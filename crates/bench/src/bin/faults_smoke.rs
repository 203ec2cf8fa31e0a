//! Fault-injection smoke gate (wired into `tools/check.sh --faults`).
//!
//! Runs the resilient distributed GPP pipeline at world size 4 under a
//! fault-free plan (the oracle) and three canned fault plans — a rank
//! crash, transient send failures, and a corrupted collective payload —
//! and verifies the recovery contract end to end:
//!
//! * survivors of a crash shrink the communicator and reproduce the
//!   fault-free quasiparticle energies to 1e-10;
//! * transient and corruption faults are retried/retransmitted and every
//!   rank lands on the oracle numbers in place;
//! * no scenario deadlocks (a watchdog thread aborts the process with
//!   exit code 2 if the battery does not finish in time) and no worker
//!   threads are leaked (`/proc/self/status` thread count must return to
//!   its baseline).
//!
//! Any violated gate aborts with a nonzero exit so CI catches it.

use bgw_comm::{try_run_world, CommError, FaultPlan, WorldReport};
use bgw_core::resilient::{ResilientError, ResilientGwReport};
use bgw_core::run_gpp_gw_resilient;
use bgw_core::workflow::GwConfig;
use bgw_pwdft::{si_bulk, ModelSystem};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WORLD: usize = 4;
const TOL: f64 = 1e-10;
const WATCHDOG_SECS: u64 = 120;

static DONE: AtomicBool = AtomicBool::new(false);

/// Thread count of this process from `/proc/self/status` (falls back to 1
/// on platforms without procfs, which disables the leak gate gracefully).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(1)
}

fn small_system() -> ModelSystem {
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    sys
}

fn resilient_run(plan: FaultPlan) -> WorldReport<ResilientGwReport> {
    let sys = small_system();
    let cfg = GwConfig::default();
    try_run_world(WORLD, plan, move |comm| {
        run_gpp_gw_resilient(&sys, &cfg, comm).map_err(|e| match e {
            ResilientError::Comm(c) => c,
            // The smoke systems are well-conditioned; a singular epsilon
            // here is a bug, not a scenario.
            ResilientError::Epsilon(eps) => panic!("unexpected epsilon failure: {eps}"),
        })
    })
}

fn qp_energies(r: &ResilientGwReport) -> Vec<f64> {
    r.states.iter().map(|s| s.e_qp).collect()
}

fn gate_qp(label: &str, rank: usize, got: &ResilientGwReport, oracle: &[f64]) {
    for (a, b) in qp_energies(got).iter().zip(oracle) {
        let d = (a - b).abs();
        if d >= TOL {
            eprintln!("FAIL [{label}] rank {rank}: QP drift {d:.3e} (gate {TOL:.0e})");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Watchdog: a hung fault scenario is itself a test failure — never
    // let the smoke stage block CI.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(WATCHDOG_SECS));
        if !DONE.load(Ordering::SeqCst) {
            eprintln!("FAIL: watchdog fired after {WATCHDOG_SECS}s — a fault scenario hung");
            std::process::exit(2);
        }
    });

    let t0 = Instant::now();
    // The worker pool is a persistent singleton by design: one chunk per
    // pool thread spawns all of it before the baseline, so the gate only
    // catches leaked world-rank threads.
    bgw_par::parallel_for_chunked(bgw_par::num_threads(), 1, |_, _| {});
    let threads_baseline = thread_count();

    // Fault-free oracle through the same resilient code path.
    let oracle = resilient_run(FaultPlan::none());
    if !oracle.all_ok() {
        eprintln!("FAIL [oracle]: {:?}", oracle.first_error());
        std::process::exit(1);
    }
    let oracle_qp = qp_energies(oracle.results[0].as_ref().unwrap());
    println!(
        "oracle   : {} ranks, {} QP bands, gap reference established",
        WORLD,
        oracle_qp.len()
    );

    // Scenario 1 — rank 2 crashes at its first collective: survivors must
    // shrink to 3 ranks and reproduce the oracle.
    let crash = resilient_run(FaultPlan::none().crash_at(2, 0));
    if crash.faults.crashes != 1 || crash.faults.shrinks == 0 {
        eprintln!(
            "FAIL [crash]: crashes={} shrinks={}",
            crash.faults.crashes, crash.faults.shrinks
        );
        std::process::exit(1);
    }
    for (rank, res) in crash.results.iter().enumerate() {
        match res {
            Ok(report) => {
                if report.final_size != WORLD - 1 || report.recoveries == 0 {
                    eprintln!(
                        "FAIL [crash] rank {rank}: final_size={} recoveries={}",
                        report.final_size, report.recoveries
                    );
                    std::process::exit(1);
                }
                gate_qp("crash", rank, report, &oracle_qp);
            }
            Err(CommError::SelfCrashed { rank: 2, .. }) if rank == 2 => {}
            Err(e) => {
                eprintln!("FAIL [crash] rank {rank}: unexpected error {e}");
                std::process::exit(1);
            }
        }
    }
    println!("crash    : rank 2 lost, 3 survivors recovered, QP match <= {TOL:.0e}");

    // Scenario 2 — transient send failures on rank 1: retried with
    // backoff, nobody shrinks, everyone matches the oracle.
    let transient = resilient_run(FaultPlan::none().transient_at(1, 0, 2));
    if !transient.all_ok() || transient.faults.retries < 2 || transient.faults.crashes != 0 {
        eprintln!(
            "FAIL [transient]: ok={} retries={} crashes={} ({:?})",
            transient.all_ok(),
            transient.faults.retries,
            transient.faults.crashes,
            transient.first_error()
        );
        std::process::exit(1);
    }
    for (rank, res) in transient.results.iter().enumerate() {
        let report = res.as_ref().unwrap();
        if report.final_size != WORLD {
            eprintln!(
                "FAIL [transient] rank {rank}: shrank to {}",
                report.final_size
            );
            std::process::exit(1);
        }
        gate_qp("transient", rank, report, &oracle_qp);
    }
    println!(
        "transient: {} retries absorbed in place, QP match <= {TOL:.0e}",
        transient.faults.retries
    );

    // Scenario 3 — corrupted allreduce payload from rank 0: detected by
    // the checksum, retransmitted, completes identically.
    let corrupt = resilient_run(FaultPlan::none().corrupt_at(0, 1, 1));
    if !corrupt.all_ok() || corrupt.faults.retries == 0 {
        eprintln!(
            "FAIL [corrupt]: ok={} retries={} ({:?})",
            corrupt.all_ok(),
            corrupt.faults.retries,
            corrupt.first_error()
        );
        std::process::exit(1);
    }
    for (rank, res) in corrupt.results.iter().enumerate() {
        gate_qp("corrupt", rank, res.as_ref().unwrap(), &oracle_qp);
    }
    println!("corrupt  : payload retransmitted, QP match <= {TOL:.0e}");

    // Leak gate: every world's rank threads are scoped, so the count must
    // return to the baseline (+1 for the watchdog already in baseline's
    // successor runs; it was spawned before the baseline was read, so the
    // comparison is exact). Give the OS a few grace periods to reap.
    let mut threads_now = thread_count();
    for _ in 0..50 {
        if threads_now <= threads_baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        threads_now = thread_count();
    }
    if threads_now > threads_baseline {
        eprintln!("FAIL: thread leak — baseline {threads_baseline}, now {threads_now}");
        std::process::exit(1);
    }

    DONE.store(true, Ordering::SeqCst);
    println!(
        "faults smoke: all scenarios passed in {:.2}s (threads {threads_baseline} -> {threads_now})",
        t0.elapsed().as_secs_f64()
    );
}
