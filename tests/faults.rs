//! Workflow-level fault-injection battery: under every seeded or canned
//! `FaultPlan` the distributed GW pipeline must either recover (shrinking
//! the communicator and redistributing work) or fail with a typed error —
//! never deadlock — and recovered runs must reproduce the fault-free QP
//! energies to 1e-10.

use berkeleygw_rs::comm::{try_run_world, CommError, FaultPlan};
use berkeleygw_rs::core::pseudobands::{compress, PseudobandsConfig};
use berkeleygw_rs::core::resilient::{run_gpp_gw_resilient, ResilientGwReport};
use berkeleygw_rs::core::testkit;
use berkeleygw_rs::core::GwError;
use berkeleygw_rs::num::Complex64;
use berkeleygw_rs::pwdft::{si_bulk, ModelSystem};

const WORLD: usize = 4;

fn small_system() -> ModelSystem {
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    sys
}

fn resilient_run(plan: FaultPlan) -> berkeleygw_rs::comm::WorldReport<ResilientGwReport> {
    let sys = small_system();
    let cfg = berkeleygw_rs::core::workflow::GwConfig::default();
    try_run_world(WORLD, plan, move |comm| {
        run_gpp_gw_resilient(&sys, &cfg, comm).map_err(|e| match e {
            GwError::Comm(c) => c,
            // The test systems are well-conditioned; a singular epsilon
            // (or anything else) here is a regression, not a fault scenario.
            other => panic!("unexpected non-communicator failure: {other}"),
        })
    })
}

fn qp_energies(r: &ResilientGwReport) -> Vec<f64> {
    r.results.states.iter().map(|s| s.e_qp).collect()
}

#[test]
fn resilient_pipeline_survives_crash_transient_and_corruption() {
    // Fault-free oracle through the same resilient code path.
    let oracle = resilient_run(FaultPlan::none());
    assert!(oracle.all_ok(), "oracle failed: {:?}", oracle.first_error());
    let oracle_qp = qp_energies(oracle.results[0].as_ref().unwrap());
    assert_eq!(oracle.faults.injected, 0);

    // Rank 2 crashes at its first collective (mid-CHI_SUM): survivors
    // shrink to 3 ranks, redo the stage, and land on the oracle numbers.
    let crash = resilient_run(FaultPlan::none().crash_at(2, 0));
    assert_eq!(crash.faults.crashes, 1);
    assert!(crash.faults.shrinks > 0, "survivors must have shrunk");
    assert!(crash.faults.recovery_seconds >= 0.0);
    for (rank, res) in crash.results.iter().enumerate() {
        match res {
            Ok(report) => {
                assert_eq!(report.final_size, WORLD - 1, "rank {rank}");
                assert!(report.recoveries >= 1, "rank {rank}");
                for (a, b) in qp_energies(report).iter().zip(&oracle_qp) {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "rank {rank}: recovered QP {a} vs fault-free {b}"
                    );
                }
            }
            Err(e) => {
                assert_eq!(rank, 2, "only the crashed rank may fail");
                assert!(
                    matches!(e, CommError::SelfCrashed { rank: 2, .. }),
                    "crashed rank got {e}"
                );
            }
        }
    }

    // Transient send failures on rank 1: retried with backoff, everyone
    // finishes in place (no shrink), numbers exactly reproduce the oracle.
    let transient = resilient_run(
        FaultPlan::none()
            .transient_at(1, 0, 2)
            .transient_at(1, 3, 1),
    );
    assert!(
        transient.all_ok(),
        "transient run failed: {:?}",
        transient.first_error()
    );
    assert!(transient.faults.retries >= 3);
    assert_eq!(transient.faults.crashes, 0);
    for res in &transient.results {
        let report = res.as_ref().unwrap();
        assert_eq!(report.final_size, WORLD);
        assert_eq!(report.recoveries, 0);
        for (a, b) in qp_energies(report).iter().zip(&oracle_qp) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    // Corrupted allreduce payload from rank 0: the collective observes the
    // checksum-style mismatch, retransmits, and completes identically.
    let corrupt = resilient_run(FaultPlan::none().corrupt_at(0, 1, 1));
    assert!(
        corrupt.all_ok(),
        "corruption run failed: {:?}",
        corrupt.first_error()
    );
    assert!(corrupt.faults.retries >= 1, "retransmit must be counted");
    for res in &corrupt.results {
        for (a, b) in qp_energies(res.as_ref().unwrap()).iter().zip(&oracle_qp) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}

#[test]
fn persistent_corruption_fails_typed_on_every_rank() {
    // Corruption beyond the retry budget is unrecoverable: every rank gets
    // the same typed error instead of hanging.
    let report = resilient_run(FaultPlan::none().corrupt_at(1, 1, 10).with_max_retries(2));
    assert!(!report.all_ok());
    for (rank, res) in report.results.iter().enumerate() {
        match res {
            Err(CommError::CorruptPayload { rank: from, .. }) => assert_eq!(*from, 1),
            other => panic!("rank {rank}: expected CorruptPayload, got {other:?}"),
        }
    }
}

#[test]
fn seeded_plans_never_deadlock_and_recoveries_match_oracle() {
    // A sweep of seeded plans: whatever mix of crash/transient/corrupt/
    // delay events fires, every rank must terminate with Ok-or-typed-Err,
    // and every Ok rank must reproduce the fault-free QP energies.
    let oracle = resilient_run(FaultPlan::none());
    let oracle_qp = qp_energies(oracle.results[0].as_ref().unwrap());
    for seed in [3u64, 11, 29] {
        let plan = FaultPlan::seeded(seed, WORLD, 3, 6);
        let report = resilient_run(plan);
        for (rank, res) in report.results.iter().enumerate() {
            match res {
                Ok(r) => {
                    for (a, b) in qp_energies(r).iter().zip(&oracle_qp) {
                        assert!((a - b).abs() < 1e-10, "seed {seed} rank {rank}: {a} vs {b}");
                    }
                }
                Err(e) => {
                    // typed, not a hang — and never the untyped poison of
                    // a genuine panic
                    assert!(
                        !matches!(e, CommError::WorldPoisoned { .. }),
                        "seed {seed} rank {rank}: {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn fault_counters_flow_into_perf_snapshots() {
    // GwTimings carries a CounterSnapshot delta; the comm layer's fault
    // counters must be visible through that channel.
    let before = berkeleygw_rs::perf::counters::snapshot();
    let report = resilient_run(FaultPlan::none().crash_at(2, 0).transient_at(1, 2, 1));
    let delta = before.delta(&berkeleygw_rs::perf::counters::snapshot());
    assert!(
        delta.comm_faults >= 2,
        "injected faults: {}",
        delta.comm_faults
    );
    assert!(delta.comm_retries >= 1, "retries: {}", delta.comm_retries);
    assert!(delta.comm_crashes >= 1, "crashes: {}", delta.comm_crashes);
    assert!(delta.comm_shrinks >= 1, "shrinks: {}", delta.comm_shrinks);
    // and the world-level report agrees
    assert_eq!(report.faults.crashes, 1);
    assert!(report.faults.injected >= 2);
}

#[test]
fn pseudobands_tolerance_holds_under_shrunken_comm() {
    // The stochastic-slice completeness estimate (documented tolerance:
    // rel < 0.25 averaged over 40 seeds) must survive losing a rank: the
    // seed sweep is redistributed over the shrunken communicator.
    let (_, setup) = testkit::small_context();
    let wf = setup.wf.clone();
    let report = try_run_world(3, FaultPlan::none().crash_at(1, 0), move |comm| {
        // First collective: rank 1 dies here; survivors shrink.
        let shrunk;
        let comm: &berkeleygw_rs::comm::Comm = match comm.try_allgather(0u8) {
            Ok(_) => comm,
            Err(e) if e.is_recoverable() => {
                shrunk = comm.shrink()?;
                &shrunk
            }
            Err(e) => return Err(e),
        };
        let ng = wf.n_g();
        let probe: Vec<Complex64> = (0..ng)
            .map(|i| Complex64::cis(i as f64 * 1.7).scale(1.0 / (ng as f64).sqrt()))
            .collect();
        let project =
            |coeffs: &berkeleygw_rs::linalg::CMatrix, rows: std::ops::Range<usize>| -> f64 {
                rows.map(|n| {
                    let mut ov = Complex64::ZERO;
                    for (c, x) in coeffs.row(n).iter().zip(&probe) {
                        ov = ov.conj_mul_add(*c, *x);
                    }
                    ov.norm_sqr()
                })
                .sum()
            };
        let cfg0 = PseudobandsConfig {
            protection_ry: 0.2,
            n_xi: 2,
            first_slice_ry: 0.6,
            growth: 1.5,
            seed: 0,
        };
        let exact_tail = {
            let pb = compress(&wf, &cfg0);
            project(&wf.coeffs, pb.n_protected..wf.n_bands())
        };
        // Seeds split round-robin over the survivors, partial sums
        // combined with an allreduce on the shrunken communicator.
        let n_seeds = 40u64;
        let mut local = 0.0;
        for seed in (0..n_seeds).filter(|s| *s as usize % comm.size() == comm.rank()) {
            let pb = compress(&wf, &PseudobandsConfig { seed, ..cfg0 });
            local += project(&pb.wf.coeffs, pb.n_protected..pb.wf.n_bands());
        }
        let mean = comm.try_allreduce(local, |a, b| a + b)? / n_seeds as f64;
        let rel = (mean - exact_tail).abs() / exact_tail.max(1e-12);
        Ok((comm.size(), rel))
    });
    assert_eq!(report.faults.crashes, 1);
    for (rank, res) in report.results.iter().enumerate() {
        match res {
            Ok((size, rel)) => {
                assert_eq!(*size, 2, "rank {rank} must end on the shrunken comm");
                assert!(
                    *rel < 0.25,
                    "rank {rank}: stochastic estimate off by {rel} on shrunken comm"
                );
            }
            Err(e) => {
                assert_eq!(rank, 1);
                assert!(matches!(e, CommError::SelfCrashed { .. }), "{e}");
            }
        }
    }
}

/// A diagonal index `d` and a representable head `c` with
/// `fl(v_d^2 * c) == 1.0` exactly, so `chi = c * e_d e_d^T` makes
/// `eps~ = I - v^{1/2} chi v^{1/2}` exactly singular in floating point
/// (row/column `d` become exactly zero). `1.0 / v_d^2` alone may round
/// the product to 1 +- 1 ulp and leave a nonzero pivot that LU accepts.
fn exactly_singular_head(vsqrt: &[f64]) -> (usize, f64) {
    for (d, &v) in vsqrt.iter().enumerate() {
        let v2 = v * v;
        if v2 <= 0.0 || !v2.is_finite() {
            continue;
        }
        let base = (1.0 / v2).to_bits() as i64;
        for off in -64i64..=64 {
            let c = f64::from_bits((base + off) as u64);
            if v2 * c == 1.0 {
                return (d, c);
            }
        }
    }
    panic!("no diagonal admits an exactly-representable singular head");
}

#[test]
fn singular_epsilon_surfaces_typed_through_the_fault_path() {
    // A singular dielectric matrix assembled *under an active fault plan*
    // must come out as the typed `EpsilonError` on every rank — the
    // transient comm faults are absorbed by retries, and the application
    // error is never promoted to a panic (which would poison the world).
    use berkeleygw_rs::core::{Coulomb, EpsilonError, EpsilonInverse};
    use berkeleygw_rs::linalg::CMatrix;
    use berkeleygw_rs::num::c64;

    let sys = small_system();
    let eps_sph = sys.eps_sphere();
    let coul = Coulomb::bulk_for_cell(sys.crystal.lattice.volume());
    let vsqrt = coul.sqrt_on_sphere(&eps_sph);
    let (d, head) = exactly_singular_head(&vsqrt);

    let report = try_run_world(
        WORLD,
        FaultPlan::none().transient_at(1, 0, 2),
        move |comm| {
            // Rank 0 owns the singular head; the allreduce (which eats the
            // injected transient faults) replicates it. Summing one nonzero
            // share with zeros is exact in any reduction order.
            let share = if comm.rank() == 0 { head } else { 0.0 };
            let got = comm.try_allreduce(share, |a, b| a + b)?;
            let n = eps_sph.len();
            let mut chi = CMatrix::zeros(n, n);
            chi[(d, d)] = c64(got, 0.0);
            Ok(EpsilonInverse::build(&[chi], &[0.0], &coul, &eps_sph).map(|_| ()))
        },
    );
    assert!(report.faults.injected >= 1, "plan must have fired");
    assert!(report.faults.retries >= 1, "transients must be retried");
    for (rank, res) in report.results.iter().enumerate() {
        let inner = res
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank}: comm-level failure {e}"));
        match inner {
            Err(EpsilonError::Singular { freq_index: 0, .. }) => {}
            other => panic!("rank {rank}: expected typed Singular, got {other:?}"),
        }
    }
}
