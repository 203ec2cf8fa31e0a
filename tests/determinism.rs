//! The determinism battery: every kernel family returns the same bits at
//! every pool width and on every run.
//!
//! `bgw_par::parallel_reduce` folds per-chunk partials in chunk order and
//! the pool's floor only picks *where* a region runs, never its chunking,
//! so `to_bits()` equality across `BGW_THREADS` is a legitimate check.
//! `tests/pipeline.rs` holds the GPP one-shot, DAG and served legs; this
//! file holds the rest: `zgemm` itself, full-frequency Sigma in the
//! subspace, the imaginary-axis pipeline on both chi backends, the
//! off-diagonal GPP kernel, GWPT, and the batched MTXEL pair rows against
//! the one-pair path. Every leg but the off-diagonal one must also have
//! reached the pool at the widths above 1 — a battery that only ever ran
//! inline would prove nothing about the choice between the two — so the
//! fixture is a size up from `testkit::small_context`, whose regions all
//! sit under the pool's floor.

use berkeleygw_rs::core::gwpt::{build_dm_tilde, gwpt_dsigma};
use berkeleygw_rs::core::spacetime::{run_imagaxis_gw, ChiBackend, SpaceTimeConfig};
use berkeleygw_rs::core::testkit::{context_at, TestSetup};
use berkeleygw_rs::core::{
    ff_sigma_diag_subspace, gpp_sigma_offdiag, ChiConfig, ChiEngine, EpsilonInverse, Mtxel,
    SigmaContext, Subspace,
};
use berkeleygw_rs::linalg::{zgemm, CMatrix, Op};
use berkeleygw_rs::num::grid::semi_infinite_quadrature;
use berkeleygw_rs::num::minimax::FitOptions;
use berkeleygw_rs::num::{c64, Complex64, UniformGrid};
use berkeleygw_rs::par::set_num_threads;
use berkeleygw_rs::perf::counters::{exclusive_test_guard, snapshot};
use berkeleygw_rs::pwdft::Perturbation;
use std::sync::OnceLock;

const WIDTHS: [usize; 5] = [1, 2, 3, 4, 7];
const REPEATS: usize = 5;

fn bits(zs: impl IntoIterator<Item = Complex64>) -> Vec<u64> {
    zs.into_iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

fn matrix_bits<'a>(ms: impl IntoIterator<Item = &'a CMatrix>) -> Vec<u64> {
    bits(ms.into_iter().flat_map(|m| m.as_slice().iter().copied()))
}

/// Bulk Si at 4.2 / 1.0 Ry with 60 bands (N_G 19, N_G^psi 171, an 8^3
/// MTXEL box), built once per process: the smallest shape whose per-band
/// pair batches, frequency loops and Sigma rows clear the pool's floor.
fn fixture() -> &'static (SigmaContext, TestSetup) {
    static FIXTURE: OnceLock<(SigmaContext, TestSetup)> = OnceLock::new();
    FIXTURE.get_or_init(|| context_at(4.2, 1.0, 60))
}

/// Runs `leg` [`REPEATS`] times at each of [`WIDTHS`] and requires every
/// result to equal the first in every bit. With `pooled`, the widths
/// above 1 must have dispatched to the pool at least once (and width 1
/// never does). The caller holds [`exclusive_test_guard`]: the pool width
/// and the counters are process-wide.
fn assert_invariant(what: &str, pooled: bool, leg: impl Fn() -> Vec<u64>) {
    let mut reference: Option<Vec<u64>> = None;
    for width in WIDTHS {
        set_num_threads(width);
        let before = snapshot();
        for repeat in 0..REPEATS {
            let got = leg();
            assert!(!got.is_empty(), "{what}: the leg produced nothing");
            let want = reference.get_or_insert_with(|| got.clone());
            assert!(
                got == *want,
                "{what}: width {width}, repeat {repeat} differs from width 1, repeat 0"
            );
        }
        let d = before.delta(&snapshot());
        assert_eq!(
            d.pool_dispatches > 0,
            pooled && width > 1,
            "{what}: width {width} ran {} pooled and {} inline regions",
            d.pool_dispatches,
            d.pool_inline_runs
        );
    }
    set_num_threads(0);
}

fn three_point_grids(ctx: &SigmaContext) -> Vec<Vec<f64>> {
    ctx.sigma_energies
        .iter()
        .map(|&e| vec![e - 0.05, e, e + 0.05])
        .collect()
}

fn mtxel_of(setup: &TestSetup) -> Mtxel {
    Mtxel::new(&setup.wfn_sph, &setup.eps_sph)
}

fn chi_config(setup: &TestSetup) -> ChiConfig {
    ChiConfig {
        q0: setup.coulomb.q0,
        ..ChiConfig::default()
    }
}

/// Width 1 is the serial path; wider pools split the row panels of `C`
/// across workers. The shape has two row panels (64 + 6 rows at the
/// default `mc`), two `kc` steps (128 + 3) and ragged edges against every
/// register tile, and every one of the nine `Op` pairs runs at
/// `beta` in {0, 1, other}.
#[test]
fn zgemm_is_bitwise_invariant_across_pool_widths() {
    let _guard = exclusive_test_guard();
    let (m, k, n) = (70, 131, 19);
    let ops = [Op::None, Op::Trans, Op::Adj];
    let betas = [Complex64::ZERO, Complex64::ONE, c64(0.3, -0.7)];
    let stored = |op: Op, rows: usize, cols: usize, seed: u64| match op {
        Op::None => CMatrix::random(rows, cols, seed),
        Op::Trans | Op::Adj => CMatrix::random(cols, rows, seed),
    };
    let c0 = CMatrix::random(m, n, 3);
    assert_invariant("zgemm", true, || {
        let mut out = Vec::new();
        for (i, &opa) in ops.iter().enumerate() {
            for (j, &opb) in ops.iter().enumerate() {
                let seed = 10 * (3 * i + j) as u64;
                let a = stored(opa, m, k, seed);
                let b = stored(opb, k, n, seed + 1);
                for &beta in &betas {
                    let mut c = c0.clone();
                    zgemm(c64(0.8, 0.4), &a, opa, &b, opb, beta, &mut c);
                    out.extend(matrix_bits([&c]));
                }
            }
        }
        out
    });
}

#[test]
fn full_frequency_subspace_sigma_is_bitwise_invariant() {
    let _guard = exclusive_test_guard();
    let (ctx, setup) = fixture();
    let mtxel = mtxel_of(setup);
    let (nodes, weights) = semi_infinite_quadrature(12, 2.0);
    let grids = three_point_grids(ctx);
    // chi(omega) and its inversions are the dense imaginary-axis leg's
    // business; here they are input.
    let engine = ChiEngine::new(&setup.wf, &mtxel, chi_config(setup));
    let (chis, _) = engine.chi_freqs(&nodes);
    let eps_ff = EpsilonInverse::build(&chis, &nodes, &setup.coulomb, &setup.eps_sph)
        .expect("the fixture's dielectric matrices are invertible");
    assert_invariant("ff_sigma_diag_subspace", true, || {
        let sub = Subspace::from_chi0(&setup.chi0, &setup.vsqrt, ctx.n_g() - 1);
        let r = ff_sigma_diag_subspace(ctx, &eps_ff, &weights, &grids, 0.05, &sub);
        bits(r.sigma.into_iter().flatten())
    });
}

#[test]
fn imaginary_axis_gw_is_bitwise_invariant_on_both_chi_backends() {
    let _guard = exclusive_test_guard();
    let dense = fixture();
    // The space-time chi is cubic in the box: a size down (a 6^3 box),
    // with `row_batch` raised so a batch of rows is still worth a
    // dispatch, and the cheapest fit that runs every stage — the bits,
    // not the residual, are what this leg looks at.
    let small = context_at(3.0, 1.0, 40);
    let space_time = SpaceTimeConfig {
        n_tau: 6,
        row_batch: 128,
        q0: small.1.coulomb.q0,
        fit: FitOptions {
            n_samples: 64,
            optimize_passes: 0,
            ..FitOptions::default()
        },
    };
    let legs = [
        ("dense", dense, ChiBackend::Dense(chi_config(&dense.1))),
        ("space-time", &small, ChiBackend::SpaceTime(space_time)),
    ];
    for (name, (ctx, setup), backend) in &legs {
        let mtxel = mtxel_of(setup);
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        assert_invariant(&format!("run_imagaxis_gw ({name})"), true, || {
            let r = run_imagaxis_gw(
                ctx,
                &setup.wf,
                &mtxel,
                &setup.wfn_sph,
                &setup.eps_sph,
                &setup.coulomb,
                backend,
                &grids,
                8,
                8,
            )
            .expect("the fixture is gapped and its dielectric matrices invertible");
            bits(r.sigma.sigma.into_iter().chain(r.sigma.sigma_iw).flatten())
        });
    }
}

#[test]
fn offdiagonal_gpp_and_gwpt_are_bitwise_invariant() {
    let _guard = exclusive_test_guard();
    let (ctx, setup) = fixture();
    let mtxel = mtxel_of(setup);
    let lo = ctx.sigma_energies[0] - 0.5;
    let hi = ctx.sigma_energies[ctx.n_sigma() - 1] + 0.5;
    let e_grid = UniformGrid::new(lo, hi, 5);
    // N_G rows of N_G kernel factors: under the floor at any N_G a debug
    // test can afford, so this leg pins that the width reaches nothing
    // (not even `auto_chunk`) that the bits depend on.
    assert_invariant("gpp_sigma_offdiag", false, || {
        matrix_bits(&gpp_sigma_offdiag(ctx, &e_grid).sigma)
    });
    let pert = Perturbation::new(&setup.crystal, &setup.wfn_sph, 0, 0);
    let dpsi = pert.first_order_wavefunctions(&setup.wf, 1e-8);
    assert_invariant("build_dm_tilde + gwpt_dsigma", true, || {
        let dm = build_dm_tilde(ctx, &setup.wf, &mtxel, &dpsi, &setup.vsqrt);
        let r = gwpt_dsigma(ctx, &dm, &pert, &setup.wf, &e_grid);
        let mut out = matrix_bits(&dm);
        out.extend(matrix_bits(&r.d_sigma));
        out.extend(matrix_bits([&r.g_gw]));
        out
    });
}

#[test]
fn batched_pair_rows_equal_the_one_pair_path_in_every_bit() {
    let _guard = exclusive_test_guard();
    // The one body that transforms a pair, called two ways: a band's
    // pairs as one pooled region writing matrix rows (`ChiEngine::m_panel`,
    // `SigmaContext::build`), and one pair at a time through
    // `pair_from_real` with the callers' epilogue applied by hand.
    let (ctx, setup) = fixture();
    let wf = &setup.wf;
    let mtxel = mtxel_of(setup);
    let q0 = setup.coulomb.q0;
    let all_bands: Vec<usize> = (0..wf.n_bands()).collect();
    let real = mtxel.to_real_space_many(wf, &all_bands);
    let pair = |m: usize, n: usize| {
        let mut row = mtxel.pair_from_real(&real[m], &real[n]);
        row[0] = mtxel.head_kp(wf, m, n, q0);
        row
    };
    let nv = wf.n_valence;
    let (pair, vsqrt) = (&pair, &setup.vsqrt);
    let panel_want = bits((0..nv).flat_map(|v| (nv..wf.n_bands()).flat_map(move |c| pair(v, c))));
    let m_tilde_want = bits(ctx.sigma_bands.iter().flat_map(|&l| {
        (0..wf.n_bands())
            .flat_map(move |n| pair(l, n).into_iter().zip(vsqrt).map(|(z, &v)| z.scale(v)))
    }));

    assert_invariant("ChiEngine::m_panel", true, || {
        let got = matrix_bits([&ChiEngine::new(wf, &mtxel, chi_config(setup)).m_panel(0, nv)]);
        assert!(got == panel_want, "m_panel differs from pair_from_real");
        got
    });
    assert_invariant("SigmaContext::build", true, || {
        let built = SigmaContext::build(
            wf,
            &mtxel,
            ctx.gpp.clone(),
            &setup.vsqrt,
            &ctx.sigma_bands,
            q0,
        );
        let got = matrix_bits(&built.m_tilde);
        assert!(got == m_tilde_want, "m_tilde differs from pair_from_real");
        got
    });
}
