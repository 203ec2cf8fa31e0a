//! Regenerates paper Fig. 1 as a table: the full GW / GWPT workflow with
//! per-module timings on the scaled Table 2 roster — mean field (DFT
//! stand-in), Parabands, Epsilon (MTXEL + CHI_SUM + inversion), Sigma
//! (GPP kernel), and Dyson, plus the GWPT branch for the LiH system.
//! The per-module seconds are the inclusive times of the run's
//! `workflow.*` stage spans.

use bgw_bench::timed;
use bgw_core::{
    bands_around_gap, build_screening, gwpt_for_perturbation, run_gpp_gw, sigma_context, GwConfig,
};
use bgw_num::{UniformGrid, RYDBERG_EV};
use bgw_perf::Table;
use bgw_pwdft::Perturbation;

pub fn run() {
    let mut t = Table::new(
        "Fig. 1 workflow: per-module seconds across the scaled roster",
        &[
            "System",
            "atoms",
            "mean-field",
            "chi",
            "epsilon",
            "Sigma mtxel",
            "GPP kernel",
            "MF gap eV",
            "QP gap eV",
        ],
    );
    bgw_trace::set_enabled(true);
    for (paper_name, sys, n_sigma) in bgw_bench::bench_roster() {
        let cfg = GwConfig {
            bands_around_gap: n_sigma / 2,
            slab: sys.name.starts_with("BN"),
            ..Default::default()
        };
        bgw_trace::reset();
        let r = run_gpp_gw(&sys, &cfg);
        let spans = bgw_trace::report();
        let secs = |stage: &str| {
            spans
                .find(&format!("workflow.gpp_gw/workflow.{stage}"))
                .map_or(0.0, |s| s.incl_ns as f64 * 1e-9)
        };
        t.row(&[
            format!("{} ({})", sys.name, paper_name),
            sys.crystal.n_atoms().to_string(),
            format!("{:.2}", secs("meanfield")),
            format!("{:.2}", secs("chi")),
            format!("{:.3}", secs("epsilon")),
            format!("{:.2}", secs("mtxel")),
            format!("{:.3}", secs("sigma")),
            format!("{:.2}", r.gap_mf_ry * RYDBERG_EV),
            format!("{:.2}", r.gap_qp_ry * RYDBERG_EV),
        ]);
    }
    bgw_trace::set_enabled(false);
    print!("{}", t.render());

    // GWPT branch (Fig. 1c): one perturbation on the LiH defect system.
    let mut sys = bgw_pwdft::lih_defect(1, 3.6);
    sys.n_bands = 36;
    let s = build_screening(&sys, &GwConfig::default(), None)
        .expect("dielectric matrix must be invertible");
    let ctx = &sigma_context(&s, &bands_around_gap(s.wf.n_valence, s.wf.n_bands(), 2));
    let pert = Perturbation::new(&sys.crystal, &s.wfn_sph, 0, 0);
    let e_grid = UniformGrid::new(
        ctx.sigma_energies[0] - 0.3,
        *ctx.sigma_energies.last().unwrap() + 0.3,
        5,
    );
    let (g, secs) = timed(|| gwpt_for_perturbation(&s, ctx, &pert, &e_grid));
    println!(
        "\nGWPT branch ({}): dSigma/dR kernel {secs:.2} s per perturbation,\n\
         max |g_DFPT| = {:.4} eV/bohr, max |g_GW| = {:.4} eV/bohr\n\
         (the N_p perturbations run independently — the paper's massively\n\
         parallel dimension).",
        sys.name,
        g.g_dfpt.max_abs() * RYDBERG_EV,
        g.g_gw.max_abs() * RYDBERG_EV,
    );
}
