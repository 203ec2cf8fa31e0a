//! The pool's granularity, pinned by count: which calls wake the worker
//! pool and how often. Counter deltas are taken under the process-wide
//! counter guard, so the equalities are exact.
//!
//! The floor itself (both sides of it, and that it never changes a bit)
//! is pinned inside `bgw-par`, the only place that knows its value; here
//! the callers' cost statements are: a small grid's axis passes stay on
//! the calling thread, a batch of them is one region, and a Sigma band's
//! pairs are one region.

use berkeleygw_rs::core::testkit::context_at;
use berkeleygw_rs::core::workflow::{run_gpp_gw, GwConfig};
use berkeleygw_rs::core::{Mtxel, SigmaContext};
use berkeleygw_rs::fft::{Direction, Fft3d};
use berkeleygw_rs::num::c64;
use berkeleygw_rs::par::set_num_threads;
use berkeleygw_rs::perf::counters::{exclusive_test_guard, snapshot};
use berkeleygw_rs::pwdft::si_bulk;

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
    let r = run_gpp_gw(&si_bulk(1, 2.2), &GwConfig::default());
    let s = r.timings.substrate;
    assert!(
        s.pool_inline_small > 0,
        "an 8-atom cell has regions under the floor"
    );
    assert!(s.pool_inline_small + s.pool_inline_busy <= s.pool_inline_runs);
    set_num_threads(0);
}
