//! Ablation: the NV-Block algorithm (paper Sec. 5.2) — CHI_SUM's peak
//! memory versus block size, at exactly invariant results.
//!
//! The full `M` panel is `N_v N_c x N_G` complex (the O(N^3) footprint the
//! paper redesigned around); blocking over valence bands caps the live
//! panel at `nv_block * N_c x N_G`. This bench sweeps the block size and
//! reports measured time, panel memory, and the result deviation from the
//! single-band-block reference (must be ~1e-12).

use bgw_bench::timed;
use bgw_core::chi::{ChiConfig, ChiEngine};
use bgw_core::coulomb::Coulomb;
use bgw_core::mtxel::Mtxel;
use bgw_perf::Table;
use bgw_pwdft::solve_bands;

pub fn run() {
    let mut sys = bgw_pwdft::si_bulk(2, 2.4);
    sys.ecut_eps_ry = 0.9;
    sys.n_bands = 200;
    let wfn_sph = sys.wfn_sphere();
    let eps_sph = sys.eps_sphere();
    let wf = solve_bands(&sys.crystal, &wfn_sph, sys.n_bands.min(wfn_sph.len()));
    let coulomb = Coulomb::bulk_for_cell(sys.crystal.lattice.volume());
    let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
    let nv = wf.n_valence;
    let nc = wf.n_conduction();
    let ng = eps_sph.len();
    println!(
        "system: {} | N_v = {nv}, N_c = {nc}, N_G = {ng}; full M panel = {:.1} MiB\n",
        sys.name,
        (nv * nc * ng * 16) as f64 / 1048576.0
    );

    let reference = {
        let cfg = ChiConfig {
            nv_block: 1,
            q0: coulomb.q0,
            ..ChiConfig::default()
        };
        ChiEngine::new(&wf, &mtxel, cfg).chi_static()
    };
    let mut t = Table::new(
        "NV-Block sweep: memory vs time at bitwise-stable results",
        &["nv_block", "panel MiB", "seconds", "max |dev| vs block=1"],
    );
    for nv_block in [1usize, 2, 4, 8, 16, nv] {
        let cfg = ChiConfig {
            nv_block,
            q0: coulomb.q0,
            ..ChiConfig::default()
        };
        let engine = ChiEngine::new(&wf, &mtxel, cfg);
        let (chi, secs) = timed(|| engine.chi_static());
        let dev = chi.max_abs_diff(&reference);
        t.row(&[
            nv_block.to_string(),
            format!(
                "{:.2}",
                (nv_block.min(nv) * nc * ng * 16) as f64 / 1048576.0
            ),
            format!("{secs:.3}"),
            format!("{dev:.2e}"),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nThe block size is a pure memory/throughput dial: results are\n\
         invariant (deviations at roundoff), the live panel shrinks from\n\
         the O(N^3) full footprint to an O(N^2) slice, and the ZGEMM still\n\
         runs at panel-sized efficiency — the paper's NV-Block design point."
    );
}
