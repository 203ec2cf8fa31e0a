//! Checkpoint/restart integration tests: a GW run killed at any
//! checkpoint boundary and resumed must reproduce the uninterrupted run's
//! quasiparticle energies to 1e-10, and corrupt checkpoint residue must
//! be skipped, not resumed from.

use berkeleygw_rs::core::chi::{ChiConfig, ChiEngine, ChiTimings};
use berkeleygw_rs::core::mtxel::Mtxel;
use berkeleygw_rs::core::restart::{
    run_evgw_checkpointed, run_gpp_gw_checkpointed, CheckpointPolicy,
};
use berkeleygw_rs::core::sigma::fullfreq::ff_sigma_diag_subspace;
use berkeleygw_rs::core::subspace::{symmetrize, Subspace};
use berkeleygw_rs::core::testkit;
use berkeleygw_rs::core::workflow::{run_evgw, run_gpp_gw, GwConfig, GwResults};
use berkeleygw_rs::core::{EpsilonInverse, GwError, SigmaRow, SigmaRows};
use berkeleygw_rs::io::{read_checkpoint_file, write_checkpoint, Checkpoint};
use berkeleygw_rs::linalg::CMatrix;
use berkeleygw_rs::perf::counters::{exclusive_test_guard, snapshot};
use berkeleygw_rs::pwdft::{si_bulk, ModelSystem};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bgw_restart_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn small_system() -> ModelSystem {
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    sys
}

fn assert_qp_match(a: &GwResults, b: &GwResults, tol: f64, label: &str) {
    assert_eq!(a.sigma_bands, b.sigma_bands, "{label}: band sets differ");
    for (x, y) in a.states.iter().zip(&b.states) {
        assert!(
            (x.e_qp - y.e_qp).abs() < tol,
            "{label}: QP energy {} vs {}",
            x.e_qp,
            y.e_qp
        );
    }
    assert!((a.gap_qp_ry - b.gap_qp_ry).abs() < tol, "{label}: gap");
    assert!(
        (a.eps_macro - b.eps_macro).abs() < tol,
        "{label}: eps_macro"
    );
}

#[test]
fn checkpointed_gpp_matches_plain_driver_and_restarts_cleanly() {
    // Reads the process-wide checkpoint counter.
    let _guard = exclusive_test_guard();
    let sys = small_system();
    let cfg = GwConfig::default();
    let plain = run_gpp_gw(&sys, &cfg);

    // Uninterrupted checkpointed run: same physics as the plain driver.
    let dir = tmpdir("gpp_clean");
    let before = snapshot();
    let uninterrupted = run_gpp_gw_checkpointed(&sys, &cfg, &CheckpointPolicy::new(&dir)).unwrap();
    assert!(before.delta(&snapshot()).ckpt_writes > 0);
    assert_qp_match(&uninterrupted, &plain, 1e-10, "uninterrupted vs plain");
    assert_eq!(uninterrupted.sigma_flops, plain.sigma_flops);
    std::fs::remove_dir_all(&dir).ok();

    // Kill the run after every possible number of checkpoint writes and
    // resume: the restart must land on the uninterrupted numbers.
    for kill_after in [1usize, 2, 3, 5] {
        let dir = tmpdir(&format!("gpp_kill{kill_after}"));
        let killer = CheckpointPolicy {
            dir: dir.clone(),
            chi_stride: None,
            abort_after_writes: Some(kill_after),
        };
        match run_gpp_gw_checkpointed(&sys, &cfg, &killer) {
            Err(GwError::Aborted { writes }) => assert_eq!(writes, kill_after),
            other => panic!("kill switch did not fire: {other:?}"),
        }
        let resumed = run_gpp_gw_checkpointed(&sys, &cfg, &CheckpointPolicy::new(&dir)).unwrap();
        assert_qp_match(
            &resumed,
            &uninterrupted,
            1e-10,
            &format!("resume after {kill_after} writes"),
        );
        assert_eq!(resumed.sigma_flops, uninterrupted.sigma_flops);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_latest_checkpoint_is_skipped_on_restart() {
    let sys = small_system();
    let cfg = GwConfig::default();
    let dir = tmpdir("gpp_corrupt");
    let oracle_dir = tmpdir("gpp_corrupt_oracle");
    let oracle = run_gpp_gw_checkpointed(&sys, &cfg, &CheckpointPolicy::new(&oracle_dir)).unwrap();
    std::fs::remove_dir_all(&oracle_dir).ok();

    let killer = CheckpointPolicy {
        dir: dir.clone(),
        chi_stride: None,
        abort_after_writes: Some(3),
    };
    assert!(run_gpp_gw_checkpointed(&sys, &cfg, &killer).is_err());
    // Corrupt the newest checkpoint — the torn-write residue of a crash.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .max()
        .unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).unwrap();

    let resumed = run_gpp_gw_checkpointed(&sys, &cfg, &CheckpointPolicy::new(&dir)).unwrap();
    assert_qp_match(&resumed, &oracle, 1e-10, "resume past corrupt checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evgw_restart_matches_uninterrupted() {
    let sys = small_system();
    let cfg = GwConfig::default();
    let oracle = run_evgw(&sys, &cfg, 40, 1e-5).unwrap();

    let dir = tmpdir("evgw_clean");
    let clean = run_evgw_checkpointed(&sys, &cfg, 40, 1e-5, &CheckpointPolicy::new(&dir)).unwrap();
    assert_eq!(clean.iterations, oracle.iterations);
    assert!((clean.gap_ry - oracle.gap_ry).abs() < 1e-12);
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpdir("evgw_kill");
    let killer = CheckpointPolicy {
        dir: dir.clone(),
        chi_stride: None,
        abort_after_writes: Some(2),
    };
    match run_evgw_checkpointed(&sys, &cfg, 40, 1e-5, &killer) {
        Err(GwError::Aborted { writes }) => assert_eq!(writes, 2),
        other => panic!("kill switch did not fire: {other:?}"),
    }
    let resumed =
        run_evgw_checkpointed(&sys, &cfg, 40, 1e-5, &CheckpointPolicy::new(&dir)).unwrap();
    assert_eq!(resumed.iterations, oracle.iterations, "iteration count");
    for (a, b) in resumed.e_qp.iter().zip(&oracle.e_qp) {
        assert!((a - b).abs() < 1e-10, "QP energy {a} vs {b}");
    }
    assert!((resumed.gap_ry - oracle.gap_ry).abs() < 1e-10);
    assert_eq!(resumed.gap_history.len(), oracle.gap_history.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// The six values one row occupies in a `SigmaPartial` record.
fn sigma_row_values(band: usize, delta_ry: f64) -> Vec<f64> {
    vec![band as f64, delta_ry, 42.0, 0.1, 0.2, 0.3]
}

/// A well-formed `SigmaPartial` record of a checkpointed run (through the
/// one encoder), holding a row for each `(band, delta)` key.
fn sigma_record(keys: &[(usize, f64)], ng: usize) -> Checkpoint {
    let rows = keys
        .iter()
        .map(|&(band, delta_ry)| SigmaRow {
            band,
            delta_ry,
            sigma: [0.1, 0.2, 0.3],
            flops: 42,
        })
        .collect();
    Checkpoint {
        matrices: vec![CMatrix::zeros(ng, ng)],
        ..SigmaRows { rows }.to_checkpoint()
    }
}

#[test]
fn malformed_gpp_checkpoints_are_typed_errors_not_panics() {
    // Records that decode cleanly (checksums pass) but whose payload does
    // not fit this run — missing matrices, wrong G-sphere, truncated sigma
    // tables, impossible step counts, rows of another run, either
    // pre-unification sigma layout — must surface as
    // GwError::Malformed, never as an index-out-of-bounds panic.
    let sys = small_system();
    let cfg = GwConfig::default();
    // Learn the run's actual G-sphere size from a real checkpoint, so the
    // deeper checks (step counts, sigma table lengths) are what trip on
    // the correctly-shaped cases rather than the shape guard.
    let probe_dir = tmpdir("gpp_malformed_probe");
    let killer = CheckpointPolicy {
        dir: probe_dir.clone(),
        chi_stride: None,
        abort_after_writes: Some(1),
    };
    assert!(run_gpp_gw_checkpointed(&sys, &cfg, &killer).is_err());
    let ng = read_checkpoint_file(&berkeleygw_rs::io::checkpoint_path(&probe_dir, 0))
        .unwrap()
        .matrices[0]
        .nrows();
    std::fs::remove_dir_all(&probe_dir).ok();
    let nv = run_gpp_gw(&sys, &cfg).sigma_bands[0] + cfg.bands_around_gap;
    let cases: Vec<(&str, Checkpoint)> = vec![
        (
            "chi record with no accumulator matrix",
            Checkpoint {
                stage: 1, // ChiPartial
                step: 1,
                meta: vec![],
                matrices: vec![],
            },
        ),
        (
            "chi accumulator from a different G-sphere",
            Checkpoint {
                stage: 1,
                step: 1,
                meta: vec![],
                matrices: vec![CMatrix::zeros(3, 3)],
            },
        ),
        (
            "chi step count beyond this run's chunk total",
            Checkpoint {
                stage: 1,
                step: 10_000,
                meta: vec![],
                matrices: vec![CMatrix::zeros(ng, ng)],
            },
        ),
        (
            "epsilon record with no inverse matrix",
            Checkpoint {
                stage: 2, // EpsilonDone
                step: 0,
                meta: vec![],
                matrices: vec![],
            },
        ),
        (
            "sigma record with a truncated metadata header",
            Checkpoint {
                stage: 3, // SigmaPartial
                step: 1,
                meta: vec![3.0],
                matrices: vec![CMatrix::zeros(ng, ng)],
            },
        ),
        (
            "sigma table shorter than the claimed row count",
            Checkpoint {
                step: 4,
                meta: [vec![3.0, 4.0], sigma_row_values(nv, 0.05)].concat(),
                ..sigma_record(&[], ng)
            },
        ),
        (
            // Internally consistent (5 rows), but the run has 4 Sigma
            // bands: used to reach the Dyson solver's assert.
            "sigma record claiming more rows than the run has",
            sigma_record(
                &[
                    (nv - 2, 0.05),
                    (nv - 1, 0.05),
                    (nv, 0.05),
                    (nv + 1, 0.05),
                    (nv + 2, 0.05),
                ],
                ng,
            ),
        ),
        (
            // Internally consistent 2-point rows against the run's
            // 3-point grids: used to reach `solve_one`'s length assert.
            "sigma record on a different energy-grid width",
            Checkpoint {
                stage: 3,
                step: 1,
                meta: vec![2.0, 1.0, nv as f64, 0.05, 0.0, 0.1, 0.2],
                matrices: vec![CMatrix::zeros(ng, ng)],
            },
        ),
        (
            "sigma row for a band outside this run's window",
            sigma_record(&[(nv + 7, 0.05)], ng),
        ),
        (
            "sigma row sampled at another run's delta",
            sigma_record(&[(nv, 0.07)], ng),
        ),
        (
            // The checkpointed driver's pre-unification layout: meta =
            // [n_grid, flops, rows band-major], step = bands done.
            "former core-layout sigma record",
            Checkpoint {
                stage: 3,
                step: 2,
                meta: [vec![3.0, 84.0], vec![0.1; 6]].concat(),
                matrices: vec![CMatrix::zeros(ng, ng)],
            },
        ),
        (
            // The serving loop's pre-unification layout: meta = [n, then
            // per row: band, delta_milli, flops, samples], step = n.
            "former serve-layout sigma record",
            Checkpoint {
                stage: 3,
                step: 3,
                meta: [
                    vec![3.0],
                    [nv - 1, nv, nv + 1]
                        .iter()
                        .flat_map(|&b| [b as f64, 50.0, 42.0, 0.1, 0.2, 0.3])
                        .collect(),
                ]
                .concat(),
                matrices: vec![CMatrix::zeros(ng, ng)],
            },
        ),
    ];
    for (label, ck) in cases {
        let dir = tmpdir("gpp_malformed");
        write_checkpoint(&dir, 0, &ck).unwrap();
        match run_gpp_gw_checkpointed(&sys, &cfg, &CheckpointPolicy::new(&dir)) {
            Err(GwError::Malformed { stage, reason }) => {
                assert!(!reason.is_empty(), "{label}: empty reason");
                assert!(
                    ["chi", "epsilon", "sigma"].contains(&stage),
                    "{label}: unexpected stage {stage}"
                );
            }
            other => panic!("{label}: expected Malformed, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn malformed_evgw_iterate_is_a_typed_error() {
    // An evGW iterate whose meta length disagrees with its step count (a
    // record from a different band set, or a half-rewritten one) must be
    // rejected typed, and non-finite resumed QP energies likewise.
    let sys = small_system();
    let cfg = GwConfig::default();

    let dir = tmpdir("evgw_malformed_len");
    write_checkpoint(
        &dir,
        0,
        &Checkpoint {
            stage: 4, // EvGwIter
            step: 2,
            meta: vec![0.5], // needs n_sigma + 2 values
            matrices: vec![],
        },
    )
    .unwrap();
    match run_evgw_checkpointed(&sys, &cfg, 10, 1e-5, &CheckpointPolicy::new(&dir)) {
        Err(GwError::Malformed { stage: "evgw", .. }) => {}
        other => panic!("short evGW meta: expected Malformed, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();

    // Learn the real n_sigma from a clean run so the length check passes
    // and the finiteness check is what trips.
    let probe_dir = tmpdir("evgw_malformed_probe");
    let probe = run_evgw_checkpointed(&sys, &cfg, 2, 1e-12, &CheckpointPolicy::new(&probe_dir))
        .expect("probe run succeeds");
    std::fs::remove_dir_all(&probe_dir).ok();
    let n_sigma = probe.e_qp.len();

    let dir = tmpdir("evgw_malformed_nan");
    let mut meta = vec![f64::NAN; n_sigma];
    meta.push(0.1); // gap history, one entry for step = 1
    write_checkpoint(
        &dir,
        0,
        &Checkpoint {
            stage: 4,
            step: 1,
            meta,
            matrices: vec![],
        },
    )
    .unwrap();
    match run_evgw_checkpointed(&sys, &cfg, 10, 1e-5, &CheckpointPolicy::new(&dir)) {
        Err(GwError::Malformed {
            stage: "evgw",
            reason,
        }) => {
            assert!(reason.contains("non-finite"), "wrong reason: {reason}");
        }
        other => panic!("NaN evGW iterate: expected Malformed, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evgw_iterate_with_overflowing_step_is_a_typed_error() {
    // `step` comes off disk unchecked by any checksum of its own: a record
    // claiming u64::MAX completed iterations is malformed, and the length
    // check must not overflow computing `n_sigma + step`.
    let sys = small_system();
    let cfg = GwConfig::default();
    let dir = tmpdir("evgw_malformed_step");
    write_checkpoint(
        &dir,
        0,
        &Checkpoint {
            stage: 4, // EvGwIter
            step: u64::MAX,
            meta: vec![0.5],
            matrices: vec![],
        },
    )
    .unwrap();
    match run_evgw_checkpointed(&sys, &cfg, 10, 1e-5, &CheckpointPolicy::new(&dir)) {
        Err(GwError::Malformed { stage: "evgw", .. }) => {}
        other => panic!("step = u64::MAX: expected Malformed, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evgw_with_no_iteration_budget_is_one_typed_error_from_both_drivers() {
    // max_iter = 0 leaves no gap to report. run_evgw used to panic on
    // `.expect("max_iter >= 1")` while its checkpointed twin returned a
    // typed error; they are one loop now and fail the same way.
    let sys = small_system();
    let cfg = GwConfig::default();
    let dir = tmpdir("evgw_zero_iter");
    let plain = run_evgw(&sys, &cfg, 0, 1e-5);
    let checkpointed = run_evgw_checkpointed(&sys, &cfg, 0, 1e-5, &CheckpointPolicy::new(&dir));
    for (label, err) in [
        ("run_evgw", plain.unwrap_err()),
        ("run_evgw_checkpointed", checkpointed.unwrap_err()),
    ] {
        match err {
            GwError::Malformed {
                stage: "evgw",
                reason,
            } => assert!(reason.contains("empty gap history"), "{label}: {reason}"),
            other => panic!("{label}: expected the typed empty-history error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subspace_ff_sigma_is_invariant_under_chi_checkpoint_roundtrip() {
    // Recovery invariant: accumulating CHI in chunks, parking the partial
    // sum in a checkpoint, and resuming from disk must leave the static
    // subspace and the full-frequency Sigma built on it unchanged.
    let (ctx, setup) = testkit::small_context();
    let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
    let cfg = ChiConfig {
        q0: setup.coulomb.q0,
        ..ChiConfig::default()
    };
    let engine = ChiEngine::new(&setup.wf, &mtxel, cfg);
    let valence: Vec<usize> = (0..setup.wf.n_valence).collect();
    let chunks: Vec<&[usize]> = valence.chunks(cfg.nv_block).collect();
    let ng = engine.n_g();

    // Uninterrupted chunked accumulation (the oracle).
    let mut t = ChiTimings::default();
    let mut chi_oracle = CMatrix::zeros(ng, ng);
    for chunk in &chunks {
        let p = engine
            .chi_freqs_subset(&[0.0], Some(chunk), &mut t)
            .pop()
            .unwrap();
        for (a, b) in chi_oracle.as_mut_slice().iter_mut().zip(p.as_slice()) {
            *a += *b;
        }
    }

    // Interrupted: first chunk, checkpoint to disk, "crash", resume from
    // the file, finish the remaining chunks.
    let dir = tmpdir("ff_subspace");
    let mut chi_acc = CMatrix::zeros(ng, ng);
    let p = engine
        .chi_freqs_subset(&[0.0], Some(chunks[0]), &mut t)
        .pop()
        .unwrap();
    for (a, b) in chi_acc.as_mut_slice().iter_mut().zip(p.as_slice()) {
        *a += *b;
    }
    write_checkpoint(
        &dir,
        0,
        &Checkpoint {
            stage: 1,
            step: 1,
            meta: vec![],
            matrices: vec![chi_acc],
        },
    )
    .unwrap();
    let mut chi_restarted = read_checkpoint_file(&berkeleygw_rs::io::checkpoint_path(&dir, 0))
        .unwrap()
        .matrices
        .pop()
        .unwrap();
    for chunk in &chunks[1..] {
        let p = engine
            .chi_freqs_subset(&[0.0], Some(chunk), &mut t)
            .pop()
            .unwrap();
        for (a, b) in chi_restarted.as_mut_slice().iter_mut().zip(p.as_slice()) {
            *a += *b;
        }
    }
    // The checkpoint roundtrip is bit-exact, so the accumulators agree.
    assert_eq!(chi_restarted.max_abs_diff(&chi_oracle), 0.0);

    // Subspace + full-frequency Sigma from both paths.
    let n_eig = (ng / 2).max(2);
    let (nodes, weights) = berkeleygw_rs::num::grid::semi_infinite_quadrature(8, 2.0);
    let (chis_ff, _) = engine.chi_freqs(&nodes);
    let eps_ff = EpsilonInverse::build(&chis_ff, &nodes, &setup.coulomb, &setup.eps_sph)
        .expect("dielectric matrix must be invertible");
    let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    let sigma_of = |chi0: &CMatrix| {
        let sub = Subspace::from_chi0_sym(&symmetrize(chi0, &setup.vsqrt), n_eig);
        ff_sigma_diag_subspace(&ctx, &eps_ff, &weights, &grids, 0.05, &sub)
    };
    let oracle = sigma_of(&chi_oracle);
    let restarted = sigma_of(&chi_restarted);
    for s in 0..ctx.n_sigma() {
        let d = (oracle.sigma[s][0] - restarted.sigma[s][0]).abs();
        assert!(
            d < 1e-10,
            "band {s}: FF Sigma drifted by {d} across restart"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
