//! Fault-injection battery for the task-granular (DAG) resilient driver:
//! under crash, transient, corruption, and seeded mixed plans,
//! `run_gpp_gw_resilient_dag` must recover by re-enqueueing ONLY the
//! tasks whose owner died — never a whole stage — and every recovered
//! rank must reproduce the fault-free QP energies to 1e-10. Fixed-seed
//! plans must be exactly reproducible run to run.

use berkeleygw_rs::comm::{try_run_world, CommError, FaultPlan, WorldReport};
use berkeleygw_rs::core::resilient::{
    run_gpp_gw_resilient, run_gpp_gw_resilient_dag, ResilientGwReport,
};
use berkeleygw_rs::core::GwError;
use berkeleygw_rs::pwdft::{si_bulk, ModelSystem};

const WORLD: usize = 4;

fn small_system() -> ModelSystem {
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    sys
}

fn dag_run(plan: FaultPlan) -> WorldReport<ResilientGwReport> {
    let sys = small_system();
    let cfg = berkeleygw_rs::core::workflow::GwConfig::default();
    try_run_world(WORLD, plan, move |comm| {
        run_gpp_gw_resilient_dag(&sys, &cfg, comm).map_err(|e| match e {
            GwError::Comm(c) => c,
            other => panic!("unexpected non-communicator failure: {other}"),
        })
    })
}

fn qp_energies(r: &ResilientGwReport) -> Vec<f64> {
    r.results.states.iter().map(|s| s.e_qp).collect()
}

/// `(total, reenqueued)` task counts of a task-granular report.
fn tasks(r: &ResilientGwReport) -> (usize, usize) {
    r.tasks
        .expect("the task-granular driver reports its task counts")
}

#[test]
fn fault_free_dag_matches_stage_level_driver() {
    let dag = dag_run(FaultPlan::none());
    assert!(dag.all_ok(), "dag run failed: {:?}", dag.first_error());
    assert_eq!(dag.faults.injected, 0);

    // Same collectives, same reduction contents (up to summation order)
    // as the stage-granular driver.
    let sys = small_system();
    let cfg = berkeleygw_rs::core::workflow::GwConfig::default();
    let stage = try_run_world(WORLD, FaultPlan::none(), move |comm| {
        run_gpp_gw_resilient(&sys, &cfg, comm).map_err(|e| match e {
            GwError::Comm(c) => c,
            other => panic!("unexpected non-communicator failure: {other}"),
        })
    });
    let stage_qp: Vec<f64> = stage.results[0]
        .as_ref()
        .unwrap()
        .results
        .states
        .iter()
        .map(|s| s.e_qp)
        .collect();

    let first = dag.results[0].as_ref().unwrap();
    for (rank, res) in dag.results.iter().enumerate() {
        let r = res.as_ref().unwrap();
        assert_eq!(r.final_size, WORLD, "rank {rank}");
        assert_eq!(r.recoveries, 0, "rank {rank}");
        assert_eq!(tasks(r).1, 0, "rank {rank}: nothing died");
        assert_eq!(
            tasks(r).0,
            tasks(first).0,
            "rank {rank}: task identity must be world-wide"
        );
        assert!(tasks(r).0 > WORLD, "must be overdecomposed");
        for (a, b) in qp_energies(r).iter().zip(&stage_qp) {
            assert!(
                (a - b).abs() < 1e-10,
                "rank {rank}: DAG QP {a} vs stage-level {b}"
            );
        }
    }
}

#[test]
fn crash_reenqueues_only_the_lost_ranks_tasks() {
    let oracle = dag_run(FaultPlan::none());
    let oracle_qp = qp_energies(oracle.results[0].as_ref().unwrap());

    // Rank 2 dies entering its first collective: the CHI allreduce. Its
    // locally-completed CHI band tasks are orphaned; the survivors must
    // recompute exactly those, not the whole CHI stage.
    let crash = dag_run(FaultPlan::none().crash_at(2, 0));
    assert_eq!(crash.faults.crashes, 1);
    assert!(crash.faults.shrinks > 0, "survivors must have shrunk");

    // nv is recoverable from the band window: sigma_bands = nv-2..nv+2.
    let first_ok = crash
        .results
        .iter()
        .find_map(|r| r.as_ref().ok())
        .expect("some survivor succeeded");
    let nv = first_ok.results.sigma_bands[0] + 2;
    let rank2_chi_tasks = (0..nv).filter(|v| v % WORLD == 2).count();
    assert!(rank2_chi_tasks > 0, "test system too small to orphan tasks");

    let mut reenqueued_total = 0;
    for (rank, res) in crash.results.iter().enumerate() {
        match res {
            Ok(report) => {
                assert_eq!(report.final_size, WORLD - 1, "rank {rank}");
                assert!(report.recoveries >= 1, "rank {rank}");
                reenqueued_total += tasks(report).1;
                for (a, b) in qp_energies(report).iter().zip(&oracle_qp) {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "rank {rank}: recovered QP {a} vs fault-free {b}"
                    );
                }
            }
            Err(e) => {
                assert_eq!(rank, 2, "only the crashed rank may fail");
                assert!(matches!(e, CommError::SelfCrashed { rank: 2, .. }), "{e}");
            }
        }
    }
    // Task-granular contract: the survivors collectively recomputed the
    // dead rank's CHI tasks — no more, no less. (Sigma starts after the
    // shrink, so its initial split already covers every slice.)
    assert_eq!(
        reenqueued_total, rank2_chi_tasks,
        "re-enqueued task count must equal the orphaned task count"
    );
}

#[test]
fn transients_and_corruption_are_absorbed_without_reenqueue() {
    let oracle = dag_run(FaultPlan::none());
    let oracle_qp = qp_energies(oracle.results[0].as_ref().unwrap());

    // Retried in place at the collective layer: no shrink, no orphaned
    // tasks, identical physics.
    let plan = FaultPlan::none()
        .transient_at(1, 0, 2)
        .corrupt_at(0, 1, 1)
        .transient_at(3, 2, 1);
    let report = dag_run(plan);
    assert!(report.all_ok(), "run failed: {:?}", report.first_error());
    assert!(report.faults.retries >= 3, "faults must have been retried");
    assert_eq!(report.faults.crashes, 0);
    for res in &report.results {
        let r = res.as_ref().unwrap();
        assert_eq!(r.final_size, WORLD);
        assert_eq!(r.recoveries, 0);
        assert_eq!(tasks(r).1, 0);
        for (a, b) in qp_energies(r).iter().zip(&oracle_qp) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}

#[test]
fn seeded_plans_terminate_and_reproduce_fault_free_numbers() {
    let oracle = dag_run(FaultPlan::none());
    let oracle_qp = qp_energies(oracle.results[0].as_ref().unwrap());
    for seed in [3u64, 11, 29] {
        let report = dag_run(FaultPlan::seeded(seed, WORLD, 3, 6));
        for (rank, res) in report.results.iter().enumerate() {
            match res {
                Ok(r) => {
                    for (a, b) in qp_energies(r).iter().zip(&oracle_qp) {
                        assert!((a - b).abs() < 1e-10, "seed {seed} rank {rank}: {a} vs {b}");
                    }
                }
                Err(e) => {
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
fn fixed_seed_recovery_is_deterministic() {
    // Same seeded plan twice: the same ranks fail the same way, the same
    // tasks are re-enqueued to the same owners, and every surviving
    // rank's QP energies agree bitwise between the two runs (all
    // reductions fold in fixed task/rank order; work stealing only
    // reorders execution, never accumulation).
    let a = dag_run(FaultPlan::seeded(11, WORLD, 3, 6));
    let b = dag_run(FaultPlan::seeded(11, WORLD, 3, 6));
    assert_eq!(a.faults.crashes, b.faults.crashes);
    for (rank, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.recoveries, rb.recoveries, "rank {rank}");
                assert_eq!(tasks(ra).1, tasks(rb).1, "rank {rank}");
                assert_eq!(ra.final_size, rb.final_size, "rank {rank}");
                for (x, y) in qp_energies(ra).iter().zip(qp_energies(rb)) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "rank {rank}: fixed-seed run not bitwise reproducible: {x} vs {y}"
                    );
                }
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(
                    std::mem::discriminant(ea),
                    std::mem::discriminant(eb),
                    "rank {rank}: {ea} vs {eb}"
                );
            }
            (ra, rb) => panic!("rank {rank}: outcome diverged: {ra:?} vs {rb:?}"),
        }
    }
}

#[test]
fn reenqueue_counter_flows_into_perf_snapshots() {
    let before = berkeleygw_rs::perf::counters::snapshot();
    let crash = dag_run(FaultPlan::none().crash_at(1, 0));
    let delta = before.delta(&berkeleygw_rs::perf::counters::snapshot());
    let reenqueued: usize = crash
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| tasks(r).1)
        .sum();
    assert!(reenqueued > 0, "crash must orphan at least one task");
    assert!(
        delta.dag_reenqueued >= reenqueued as u64,
        "perf must account re-enqueued tasks: {} < {reenqueued}",
        delta.dag_reenqueued
    );
    assert!(
        delta.dag_tasks > 0,
        "task executions must flow into the dag_tasks counter"
    );
}
