//! Ablation: the static subspace approximation (paper Sec. 5.2) —
//! accuracy and speedup versus the subspace fraction `N_Eig / N_G`.
//!
//! The paper states that a 10-20% fraction converges quasiparticle
//! energies and yields a ~25-100x speedup of the finite-frequency
//! polarizability over the full plane-wave implementation (the cost drops
//! as `(N_G / N_Eig)^2`). This bench measures both on the model system:
//! CHI-Freq seconds (full basis vs subspace) and the FF self-energy error.

use bgw_bench::timed;
use bgw_core::chi::{ChiConfig, ChiEngine, ChiTimings};
use bgw_core::epsilon::EpsilonInverse;
use bgw_core::sigma::fullfreq::{ff_sigma_diag, ff_sigma_diag_subspace};
use bgw_core::subspace::Subspace;
use bgw_core::{bands_around_gap, build_screening, sigma_context, GwConfig};
use bgw_num::grid::semi_infinite_quadrature;
use bgw_perf::Table;

pub fn run() {
    let mut sys = bgw_pwdft::si_divacancy(1, 3.8);
    sys.ecut_eps_ry = sys.ecut_wfn_ry / 2.2;
    sys.n_bands = 90;
    let s = build_screening(&sys, &GwConfig::default(), None)
        .expect("dielectric matrix must be invertible");
    let ctx = &sigma_context(&s, &bands_around_gap(s.wf.n_valence, s.wf.n_bands(), 2));
    let ng = ctx.n_g();
    let (nodes_q, weights) = semi_infinite_quadrature(10, 2.0);
    let cfg = ChiConfig {
        q0: s.coulomb.q0,
        ..ChiConfig::default()
    };
    let engine = ChiEngine::new(&s.wf, &s.mtxel, cfg);
    let chi0 = engine.chi_static();

    // Full-basis finite-frequency chi (the expensive reference path).
    let mut tm_full = ChiTimings::default();
    let chis = engine.chi_freqs_subset(&nodes_q, None, &mut tm_full);
    let eps_ff = EpsilonInverse::build(&chis, &nodes_q, &s.coulomb, &s.eps_sph)
        .expect("dielectric matrix must be invertible");
    let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    let (full_sigma, _) = timed(|| ff_sigma_diag(ctx, &eps_ff, &weights, &grids, 0.05));

    let mut t = Table::new(
        &format!(
            "Subspace fraction sweep (N_G = {ng}, {} freqs)",
            nodes_q.len()
        ),
        &[
            "N_Eig",
            "fraction %",
            "CHI-Freq s",
            "speedup",
            "(N_G/N_Eig)^2",
            "max Sigma err (mRy)",
        ],
    );
    t.row(&[
        ng.to_string(),
        "100".into(),
        format!("{:.3}", tm_full.t_chifreq),
        "1.0x".into(),
        "1.0".into(),
        "0.00".into(),
    ]);
    for fraction in [0.5, 0.25, 0.15, 0.08] {
        let n_eig = ((ng as f64 * fraction) as usize).max(2);
        let sub = Subspace::from_chi0(&chi0, &s.vsqrt, n_eig);
        let mut tm = ChiTimings::default();
        let _ = engine.chi_freqs_subspace(&nodes_q, &sub.basis, &s.vsqrt, &mut tm);
        let sig = ff_sigma_diag_subspace(ctx, &eps_ff, &weights, &grids, 0.05, &sub);
        let err = (0..ctx.n_sigma())
            .map(|s| (sig.sigma[s][0].re - full_sigma.sigma[s][0].re).abs())
            .fold(0.0, f64::max);
        t.row(&[
            n_eig.to_string(),
            format!("{:.0}", 100.0 * n_eig as f64 / ng as f64),
            format!("{:.3}", tm.t_chifreq),
            format!("{:.1}x", tm_full.t_chifreq / tm.t_chifreq.max(1e-9)),
            format!("{:.1}", (ng as f64 / n_eig as f64).powi(2)),
            format!("{:.2}", 1000.0 * err),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nShape targets (paper): errors converge rapidly with the kept\n\
         fraction — 10-20% suffices for quasiparticle energies — while the\n\
         CHI-Freq contraction cost tracks (N_G/N_Eig)^2, the paper's quoted\n\
         ~25-100x speedup window."
    );
}
