//! The pool's granularity, pinned by count: which calls wake the worker
//! pool and how often. Counter deltas are taken under the process-wide
//! counter guard, so the equalities are exact.
//!
//! The floor itself (both sides of it, and that it never changes a bit)
//! is pinned inside `bgw-par`, the only place that knows its value; here
//! the callers' cost statements are: a small grid's axis passes stay on
//! the calling thread, a batch of them is one region, a Sigma band's
//! pairs are one region, a tau node of the space-time chi is two, and the
//! imaginary-axis Sigma wakes the pool at most once per ZGEMM.

use berkeleygw_rs::core::spacetime::{
    build_imag_epsilon, ChiBackend, SpaceTimeChi, SpaceTimeConfig, SpaceTimeReport,
};
use berkeleygw_rs::core::testkit::context_at;
use berkeleygw_rs::core::workflow::{run_gpp_gw, GwConfig};
use berkeleygw_rs::core::{imag_axis_sigma_diag, ChiConfig, Mtxel, SigmaContext};
use berkeleygw_rs::fft::{Direction, Fft3d};
use berkeleygw_rs::num::c64;
use berkeleygw_rs::par::set_num_threads;
use berkeleygw_rs::perf::counters::{exclusive_test_guard, snapshot};
use berkeleygw_rs::pwdft::{si_bulk, GSphere};

#[test]
fn one_small_grid_never_wakes_the_pool_and_a_batch_wakes_it_once() {
    let _guard = exclusive_test_guard();
    set_num_threads(4);
    let plan = Fft3d::new(12, 12, 12);
    let grid: Vec<_> = (0..plan.len())
        .map(|i| c64((i % 7) as f64, (i % 5) as f64 - 2.0))
        .collect();

    let before = snapshot();
    let mut single = grid.clone();
    plan.process(&mut single, Direction::Forward);
    let one = before.delta(&snapshot());
    assert_eq!(one.pool_dispatches, 0, "three 144-line axis passes");
    assert_eq!((one.pool_inline_runs, one.pool_inline_small), (3, 3));
    assert_eq!((one.fft_grids, one.fft_lines), (1, 432));

    let before = snapshot();
    let mut batch = vec![grid; 256];
    plan.process_many(&mut batch, Direction::Forward);
    let many = before.delta(&snapshot());
    assert_eq!(many.pool_dispatches, 1, "one region over the 256 grids");
    assert_eq!(
        many.pool_inline_runs, 0,
        "axis passes inside it are plain loops"
    );
    assert_eq!((many.fft_grids, many.fft_lines), (256, 256 * 432));
    assert!(
        batch.iter().all(|g| *g == single),
        "same bits either way in"
    );
    set_num_threads(0);
}

#[test]
fn a_sigma_context_wakes_the_pool_once_per_band_and_a_run_reports_its_inline_regions() {
    let _guard = exclusive_test_guard();
    // Large enough that a band's pairs clear the floor (see
    // tests/determinism.rs): one region per Sigma band plus the batched
    // transform of the bands themselves.
    let (ctx, setup) = context_at(4.2, 1.0, 60);
    let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
    set_num_threads(4);
    let before = snapshot();
    let built = SigmaContext::build(
        &setup.wf,
        &mtxel,
        ctx.gpp.clone(),
        &setup.vsqrt,
        &ctx.sigma_bands,
        setup.coulomb.q0,
    );
    let d = before.delta(&snapshot());
    let n_sigma = ctx.n_sigma() as u64;
    assert_eq!(
        d.pool_dispatches,
        n_sigma + 1,
        "N_Sigma pair batches + one to_real_space_many"
    );
    assert_eq!(d.fft_grids, (n_sigma + 1) * ctx.n_b() as u64);
    assert_eq!(built.m_tilde, ctx.m_tilde, "and the fixture's bits");

    // The reason a region stayed inline travels with the run's counters.
    let before = snapshot();
    run_gpp_gw(&si_bulk(1, 2.2), &GwConfig::default());
    let s = before.delta(&snapshot());
    assert!(
        s.pool_inline_small > 0,
        "an 8-atom cell has regions under the floor"
    );
    assert!(s.pool_inline_small + s.pool_inline_busy <= s.pool_inline_runs);
    set_num_threads(0);
}

#[test]
fn a_tau_node_is_two_regions_and_the_imaginary_axis_sigma_at_most_one_per_zgemm() {
    let _guard = exclusive_test_guard();
    let (ctx, setup) = context_at(4.2, 1.0, 60);
    let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
    let q0 = setup.coulomb.q0;
    set_num_threads(2);

    // chi(tau): the row batches of stage 1 are one region and the column
    // transforms of stage 2 are one `forward_many`. The Green's-function
    // GEMMs and the row FFTs run inside the first and ask for nothing.
    // (Read out on a larger sphere than the fixture's 19 G-vectors, whose
    // stage-2 batch would sit under the pool's floor.)
    let out_sph = GSphere::new(&setup.crystal.lattice, 2.2);
    let cfg = SpaceTimeConfig {
        q0,
        ..SpaceTimeConfig::default()
    };
    let st = SpaceTimeChi::new(
        &setup.wf,
        &Mtxel::new(&setup.wfn_sph, &out_sph),
        &setup.wfn_sph,
        &out_sph,
        cfg,
    )
    .expect("bulk Si is gapped");
    let before = snapshot();
    let mut report = SpaceTimeReport::default();
    st.chi_tau(0.7, &mut report);
    let d = before.delta(&snapshot());
    assert_eq!(d.pool_dispatches, 2, "stage-1 batch region + stage-2 batch");
    assert_eq!(
        d.pool_inline_busy, 0,
        "nested regions never try to dispatch"
    );
    let n_batches = st.npts().div_ceil(SpaceTimeConfig::default().row_batch) as u64;
    assert_eq!(d.gemm_calls, 2 * n_batches + 1, "two per batch + the wings");
    assert_eq!(d.fft_grids, (st.npts() + st.n_g() + 1) as u64);
    assert!(report.t_green > 0.0 && report.t_fft > 0.0);

    // Sigma(i w): one ZGEMM per (quadrature node, Sigma band), each
    // offered to the pool once.
    let (eps, weights, _) = build_imag_epsilon(
        &setup.wf,
        &mtxel,
        &setup.wfn_sph,
        &setup.eps_sph,
        &setup.coulomb,
        &ChiBackend::Dense(ChiConfig {
            q0,
            ..ChiConfig::default()
        }),
        8,
        1.5,
    )
    .expect("dielectric matrices invertible");
    let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    let before = snapshot();
    imag_axis_sigma_diag(&ctx, &eps, &weights, &grids, 8).expect("continuation succeeds");
    let d = before.delta(&snapshot());
    let n_gemms = (ctx.n_sigma() * eps.n_freq()) as u64;
    assert_eq!(d.gemm_calls, n_gemms, "N_Sigma x N_k");
    assert!(
        d.pool_dispatches <= n_gemms,
        "{} dispatches",
        d.pool_dispatches
    );
    assert_eq!(d.pool_inline_busy, 0);
    set_num_threads(0);
}
