//! Golden-file and FLOP-model validation tests for the `bgw-trace` run
//! report (DESIGN.md Sec. 11).
//!
//! The golden test pins the `bgw-trace/1` JSON encoding byte for byte —
//! field order, indentation, the nonzero-counters-only rule — so the
//! format cannot drift silently out from under external consumers. The
//! model tests assert the paper's Eq. 7 FLOP count (`gpp_diag_flops`)
//! reproduces the kernel's own counted FLOPs *exactly* on a tiny
//! deterministic workload, including when `alpha` is calibrated on one
//! workload shape and used to predict another, and that a traced kernel
//! (GPP diag, full-frequency and imaginary-axis) attributes exactly its
//! counted FLOPs to its span. The stage spans are the one record of stage
//! time, so every GW driver must leave all five of them.

use berkeleygw_rs::core::sigma::diag::{gpp_sigma_diag, measured_alpha, KernelVariant};
use berkeleygw_rs::core::{
    ff_sigma_diag, imag_axis_sigma_diag, run_full_dyson_gw, run_gpp_gw, testkit, ChiConfig,
    ChiEngine, Coulomb, EpsilonInverse, GwConfig, Mtxel,
};
use berkeleygw_rs::num::grid::semi_infinite_quadrature;
use berkeleygw_rs::perf::counters::exclusive_test_guard;
use berkeleygw_rs::perf::flopmodel::{ff_sigma_flops, imagaxis_sigma_flops};
use berkeleygw_rs::perf::{gpp_diag_flops, CounterSnapshot};
use berkeleygw_rs::pwdft::si_bulk;
use berkeleygw_rs::trace;
use berkeleygw_rs::trace::{RunReport, SpanNode};

const GOLDEN: &str = include_str!("golden/trace_report.json");

/// A hand-built report with fixed integers: span trees from real runs
/// carry nondeterministic times, so the byte-stability check uses a
/// synthetic tree exercising every encoding rule (nested children,
/// zero-suppressed counters, escaping-free names, empty child lists).
fn golden_report() -> RunReport {
    let gemm_counters = CounterSnapshot {
        gemm_calls: 3,
        gemm_pack_ns: 1_200,
        gemm_compute_ns: 8_400,
        ..CounterSnapshot::default()
    };
    let pool_counters = CounterSnapshot {
        pool_dispatches: 1,
        pool_dispatch_ns: 52_000,
        pool_region_ns: 410_000,
        ..CounterSnapshot::default()
    };
    RunReport::new(vec![SpanNode {
        name: "workflow.gpp_gw".to_string(),
        calls: 1,
        incl_ns: 2_000_000,
        excl_ns: 150_000,
        flops: 0,
        counters: pool_counters,
        children: vec![
            SpanNode {
                name: "gemm".to_string(),
                calls: 3,
                incl_ns: 450_000,
                excl_ns: 440_000,
                flops: 1_228_800,
                counters: gemm_counters,
                children: vec![SpanNode {
                    name: "gemm.pack".to_string(),
                    calls: 3,
                    incl_ns: 10_000,
                    excl_ns: 10_000,
                    flops: 0,
                    counters: CounterSnapshot::default(),
                    children: Vec::new(),
                }],
            },
            SpanNode {
                name: "sigma.diag".to_string(),
                calls: 1,
                incl_ns: 1_400_000,
                excl_ns: 1_400_000,
                flops: 60_480,
                counters: CounterSnapshot::default(),
                children: Vec::new(),
            },
        ],
    }])
}

#[test]
fn golden_json_is_byte_stable() {
    assert_eq!(
        golden_report().to_json(),
        GOLDEN,
        "bgw-trace/1 JSON encoding drifted from tests/golden/trace_report.json"
    );
}

#[test]
fn golden_preserves_derived_quantities() {
    let rep = golden_report();
    let root = rep.find("workflow.gpp_gw").expect("root span");
    assert_eq!(root.inclusive_flops(), 1_228_800 + 60_480);
    assert_eq!(
        rep.find("workflow.gpp_gw/gemm")
            .unwrap()
            .counters
            .gemm_calls,
        3
    );
}

#[test]
fn gpp_diag_model_matches_counted_flops_exactly() {
    let _guard = exclusive_test_guard();
    let (ctx, _) = testkit::small_context();
    let grids: Vec<Vec<f64>> = ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - 0.05, e, e + 0.05])
        .collect();
    let r = gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized);
    let alpha = measured_alpha(&r, &ctx);
    let predicted = gpp_diag_flops(alpha, ctx.n_sigma(), ctx.n_b(), ctx.n_g(), 3);
    let err = (predicted - r.flops as f64).abs() / predicted;
    assert!(
        err < 1e-12,
        "Eq. 7 must reproduce the counted FLOPs exactly: {predicted} vs {}",
        r.flops
    );
}

#[test]
fn gpp_diag_model_transfers_across_workloads() {
    let _guard = exclusive_test_guard();
    let (ctx, _) = testkit::small_context();
    // Calibrate alpha on a 1-point grid...
    let grids1: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    let cal = gpp_sigma_diag(&ctx, &grids1, KernelVariant::Reference);
    let alpha = measured_alpha(&cal, &ctx);
    // ...and predict a 5-point grid: alpha depends only on the GPP pole
    // structure, so the Eq. 7 prediction is exact, not just close.
    let grids5: Vec<Vec<f64>> = ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - 0.2, e - 0.1, e, e + 0.1, e + 0.2])
        .collect();
    let r = gpp_sigma_diag(&ctx, &grids5, KernelVariant::Blocked);
    let predicted = gpp_diag_flops(alpha, ctx.n_sigma(), ctx.n_b(), ctx.n_g(), 5);
    let err = (predicted - r.flops as f64).abs() / predicted;
    assert!(
        err < 1e-12,
        "cross-workload Eq. 7 drifted: predicted {predicted}, counted {}",
        r.flops
    );
}

#[test]
fn adopted_span_finishing_after_parent_does_not_double_count_exclusive() {
    let _guard = exclusive_test_guard();
    trace::reset();
    trace::set_enabled(true);
    // Dispatcher opens a parent span and hands its handle to a "stolen
    // task" thread; the task deliberately outlives the parent's frame.
    // The overlap used to be reported as exclusive time on BOTH nodes;
    // the parent must now shed the adopted child's inclusive time even
    // though the child closed after the parent's frame was folded in.
    let worker = {
        let _parent = trace::span!("t.steal_parent");
        let h = trace::current_handle();
        let worker = std::thread::spawn(move || {
            let _adopt = trace::adopt(h);
            let _child = trace::span!("t.stolen_task");
            std::thread::sleep(std::time::Duration::from_millis(40));
        });
        // Keep the parent open long enough that the whole of its life is
        // overlapped by the child, then close it while the child runs on.
        std::thread::sleep(std::time::Duration::from_millis(10));
        worker
    };
    worker.join().expect("stolen-task thread");
    trace::set_enabled(false);
    let rep = trace::report();
    let parent = rep.find("t.steal_parent").expect("parent span");
    let child = rep
        .find("t.steal_parent/t.stolen_task")
        .expect("adopted child nests under the dispatcher");
    assert!(parent.incl_ns >= 9_000_000, "parent lived >= ~10ms");
    assert!(child.incl_ns >= 39_000_000, "child lived >= ~40ms");
    // The child covered the parent's entire frame, so the parent's
    // exclusive time must collapse to ~0 instead of re-reporting the
    // overlapped ~10ms (generous slack for scheduling jitter between
    // the spawn and the child's span actually opening).
    assert!(
        parent.excl_ns < 5_000_000,
        "parent exclusive {}ns still double-counts the adopted overlap",
        parent.excl_ns
    );
    trace::reset();
}

#[test]
fn traced_kernel_attributes_its_counted_flops_to_the_span() {
    let _guard = exclusive_test_guard();
    let (ctx, setup) = testkit::small_context();
    let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    // Full-frequency inputs: eps~^{-1} at the quadrature nodes.
    let (nodes, weights) = semi_infinite_quadrature(6, 2.0);
    let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
    let (chis, _) = ChiEngine::new(&setup.wf, &mtxel, ChiConfig::default()).chi_freqs(&nodes);
    let eps_ff = EpsilonInverse::build(&chis, &nodes, &Coulomb::bulk(), &setup.eps_sph)
        .expect("dielectric matrix must be invertible");
    let ff_model = ff_sigma_flops(
        ctx.n_sigma(),
        eps_ff.n_freq(),
        ctx.n_b(),
        ctx.n_g(),
        ctx.n_g(),
        ctx.n_occ,
        1,
        false,
    );

    // Runs `kernel` (returning its own FLOP count) traced and checks the
    // named span carries exactly that count.
    let span_carries_counted = |name: &str, kernel: &dyn Fn() -> u64| -> u64 {
        trace::reset();
        trace::set_enabled(true);
        let counted = kernel();
        trace::set_enabled(false);
        let rep = trace::report();
        let span = rep
            .find(name)
            .unwrap_or_else(|| panic!("{name} span recorded"));
        assert_eq!(span.calls, 1, "{name}");
        assert_eq!(
            span.inclusive_flops(),
            counted,
            "the {name} span must carry exactly the kernel's counted FLOPs"
        );
        assert!(span.incl_ns > 0 && span.excl_ns <= span.incl_ns, "{name}");
        counted
    };
    span_carries_counted("sigma.diag", &|| {
        gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized).flops
    });
    // The FF count splits over the kernel's ZGEMMs and three `add_flops`
    // sites under `sigma.ff`; dropping any one breaks the identity. Its
    // count is shape-only, so it also equals the closed-form model.
    let ff_counted = span_carries_counted("sigma.ff", &|| {
        ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05).flops
    });
    assert_eq!(ff_counted as f64, ff_model, "sigma.ff: counted vs model");
    // The imaginary-axis count splits the same way: N_Sigma x N_k ZGEMMs
    // plus two `add_flops` sites (the row dots, the sample assembly).
    let engine = ChiEngine::new(&setup.wf, &mtxel, ChiConfig::default());
    let chis_iw = engine.chi_imag_freqs(&nodes, &mut Default::default());
    let eps_iw = EpsilonInverse::build(&chis_iw, &nodes, &Coulomb::bulk(), &setup.eps_sph)
        .expect("dielectric matrix must be invertible");
    let n_iw = 8;
    let imag_counted = span_carries_counted("sigma.imagaxis", &|| {
        imag_axis_sigma_diag(&ctx, &eps_iw, &weights, &grids, n_iw)
            .expect("continuation succeeds")
            .flops
    });
    let imag_model =
        imagaxis_sigma_flops(ctx.n_sigma(), eps_iw.n_freq(), ctx.n_b(), ctx.n_g(), n_iw);
    assert_eq!(
        imag_counted as f64, imag_model,
        "sigma.imagaxis: counted vs model"
    );
    trace::reset();
}

/// Calls and counter deltas of every node named `name`, wherever it sits
/// in the tree (each driver opens its own root span).
fn totals(rep: &RunReport, name: &str) -> (u64, CounterSnapshot) {
    fn walk(n: &SpanNode, name: &str, acc: &mut (u64, CounterSnapshot)) {
        if n.name == name {
            acc.0 += n.calls;
            acc.1.accumulate(&n.counters);
        }
        n.children.iter().for_each(|c| walk(c, name, acc));
    }
    let mut acc = (0, CounterSnapshot::default());
    rep.spans.iter().for_each(|r| walk(r, name, &mut acc));
    acc
}

#[test]
fn every_gw_driver_leaves_the_five_stage_spans() {
    let _guard = exclusive_test_guard();
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    let cfg = GwConfig::default();
    let drivers: [(&str, &dyn Fn()); 2] = [
        ("run_gpp_gw", &|| {
            run_gpp_gw(&sys, &cfg);
        }),
        ("run_full_dyson_gw", &|| {
            run_full_dyson_gw(&sys, &cfg, 8).expect("full-Dyson run");
        }),
    ];
    for (driver, run) in drivers {
        trace::reset();
        trace::set_enabled(true);
        run();
        trace::set_enabled(false);
        let rep = trace::report();
        for stage in ["meanfield", "chi", "epsilon", "mtxel", "sigma"] {
            let (calls, _) = totals(&rep, &format!("workflow.{stage}"));
            assert!(calls >= 1, "{driver}: no workflow.{stage} span");
        }
        let (_, chi) = totals(&rep, "workflow.chi");
        assert!(
            chi.gemm_calls > 0,
            "{driver}: chi0 ran no ZGEMM under its span"
        );
    }
    trace::reset();
}
