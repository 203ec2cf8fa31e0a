//! Ablation: real I/O — writing and re-reading the WFN/epsmat-style
//! binary files whose cost produces the paper's "incl. I/O" rows
//! (Table 5: Si998-b goes from 390.75 s to 604.96 s once inputs are read).
//!
//! Measures actual file write/read throughput for band sets and dielectric
//! matrices at several sizes on this host, verifies the checksummed
//! round-trip, and compares the measured local I/O-to-kernel ratio with
//! the modeled Frontier one.

use bgw_bench::timed;
use bgw_core::sigma::diag::{gpp_sigma_diag, KernelVariant};
use bgw_core::{bands_around_gap, build_screening, sigma_context, GwConfig};
use bgw_io::{read_matrix, read_wavefunctions, write_matrix, write_wavefunctions};
use bgw_linalg::CMatrix;
use bgw_perf::Table;
use bgw_pwdft::solve_bands;

pub fn run() {
    let dir = std::env::temp_dir().join(format!("bgw_io_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // --- raw throughput ladder -------------------------------------------
    let mut t = Table::new(
        "Measured BGWR file throughput (this host)",
        &[
            "record",
            "size MiB",
            "write s",
            "read s",
            "write MB/s",
            "read MB/s",
        ],
    );
    for n in [128usize, 256, 512] {
        let m = CMatrix::random(n, n, n as u64);
        let path = dir.join(format!("mat_{n}.bgwr"));
        let (bytes, tw) = timed(|| write_matrix(&path, &m).unwrap());
        let (back, tr) = timed(|| read_matrix(&path).unwrap());
        assert_eq!(back.max_abs_diff(&m), 0.0, "roundtrip must be exact");
        let mib = bytes as f64 / 1048576.0;
        t.row(&[
            format!("epsmat {n}x{n}"),
            format!("{mib:.1}"),
            format!("{tw:.4}"),
            format!("{tr:.4}"),
            format!("{:.0}", bytes as f64 / tw / 1e6),
            format!("{:.0}", bytes as f64 / tr / 1e6),
        ]);
    }
    // a real band set
    let sys = bgw_pwdft::si_bulk(2, 2.4);
    let wfn_sph = sys.wfn_sphere();
    let wf = solve_bands(&sys.crystal, &wfn_sph, 200.min(wfn_sph.len()));
    let path = dir.join("wfn.bgwr");
    let (bytes, tw) = timed(|| write_wavefunctions(&path, &wf).unwrap());
    let (back, tr) = timed(|| read_wavefunctions(&path).unwrap());
    assert_eq!(back.coeffs.max_abs_diff(&wf.coeffs), 0.0);
    t.row(&[
        format!("WFN {}x{}", wf.n_bands(), wf.n_g()),
        format!("{:.1}", bytes as f64 / 1048576.0),
        format!("{tw:.4}"),
        format!("{tr:.4}"),
        format!("{:.0}", bytes as f64 / tw / 1e6),
        format!("{:.0}", bytes as f64 / tr / 1e6),
    ]);
    print!("{}", t.render());

    // --- incl. vs excl. I/O for a real kernel run -------------------------
    let mut small = bgw_pwdft::si_divacancy(1, 4.2);
    small.ecut_eps_ry = small.ecut_wfn_ry / 2.2;
    small.n_bands = 60;
    let s = build_screening(&small, &GwConfig::default(), None)
        .expect("dielectric matrix must be invertible");
    let ctx = &sigma_context(&s, &bands_around_gap(s.wf.n_valence, s.wf.n_bands(), 4));
    let grids: Vec<Vec<f64>> = ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - 0.05, e, e + 0.05])
        .collect();
    // write the inputs a Sigma run would read
    let wfn_path = dir.join("sigma_wfn.bgwr");
    let eps_path = dir.join("sigma_eps.bgwr");
    write_wavefunctions(&wfn_path, &s.wf).unwrap();
    write_matrix(&eps_path, s.eps_inv.static_inv()).unwrap();
    // incl. I/O: read inputs, then run the kernel
    let (_, t_io) = timed(|| {
        let _ = read_wavefunctions(&wfn_path).unwrap();
        let _ = read_matrix(&eps_path).unwrap();
    });
    let (_, t_kernel) = timed(|| gpp_sigma_diag(ctx, &grids, KernelVariant::Optimized));
    println!(
        "\nlocal Sigma run: kernel {t_kernel:.4} s, input read {t_io:.4} s \
         -> incl./excl. ratio {:.2}",
        (t_kernel + t_io) / t_kernel
    );
    println!(
        "paper (Frontier, Si998-b): 390.75 s excl. -> 604.96 s incl. I/O,\n\
         ratio 1.55 — at production scale the wavefunction file is ~100 GB\n\
         and the effective parallel-filesystem rate for this access pattern\n\
         is far below peak, which the bgw-perf machine model calibrates."
    );
    std::fs::remove_dir_all(&dir).ok();
}
