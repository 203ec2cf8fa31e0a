//! Fault-tolerant distributed GW: shrink-and-retry over the simulated
//! communicator.
//!
//! The distributed GPP pipeline (CHI allreduce -> Newton-Schulz epsilon
//! inversion -> G'-sliced Sigma) is rebuilt here on the fallible `try_*`
//! collectives: when a peer rank crashes mid-collective, the survivors
//! observe a typed [`CommError::PeerCrashed`], agree on a shrunken
//! communicator via [`Comm::shrink`], redistribute the work over the new
//! (dense, ordered) ranks, and re-run the failed stage. Unrecoverable
//! faults — the crashed rank's own error, exhausted retries, persistent
//! corruption, a poisoned world — propagate out as `Err` instead of
//! deadlocking, which is the ULFM-style contract of paper-scale runs.
//!
//! Every stage retry restarts the *stage*, not the pipeline: results
//! already replicated on the survivors (e.g. the CHI matrices) are kept.
//!
//! [`run_gpp_gw_resilient_dag`] goes one granularity level further: the
//! CHI and Sigma stages are decomposed into fixed task sets (one task per
//! valence band, `2 * world` G' slices), and a crash re-enqueues only the
//! tasks whose owner died instead of re-running the survivors' work
//! (DESIGN.md Sec. 14).

use crate::chi::{try_chi_distributed, ChiTimings};
use crate::epsilon::{EpsilonError, EpsilonInverse};
use crate::error::GwError;
use crate::service::{
    assemble, finish_screening, into_context, prefix, three_point_grids, Prefix, N_GRID,
};
use crate::sigma::diag::{gpp_sigma_diag_partial, try_gpp_sigma_diag_distributed, SigmaDiagResult};
use crate::workflow::{GwConfig, GwResults, GwTimings};
use bgw_comm::{Comm, CommError};
use bgw_dist::{try_invert_epsilon_distributed, DistMatrix};
use bgw_linalg::CMatrix;
use bgw_num::{c64, Complex64};
use bgw_par::dag::TaskGraph;
use bgw_pwdft::ModelSystem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Most shrink-and-retry cycles one stage may consume before giving up
/// with [`CommError::RecoveryExhausted`].
pub const MAX_RECOVERIES: u32 = 8;

/// Borrow-or-owned communicator cursor: starts out borrowing the world
/// communicator handed to a rank closure and switches to owned shrunken
/// communicators as ranks are lost, so every later stage automatically
/// runs on the current survivor set.
pub struct CommCursor<'a> {
    world: &'a Comm,
    owned: Option<Comm>,
    recoveries: u32,
}

impl<'a> CommCursor<'a> {
    /// Starts the cursor on the (borrowed) world communicator.
    pub fn new(world: &'a Comm) -> Self {
        Self {
            world,
            owned: None,
            recoveries: 0,
        }
    }

    /// The communicator every operation should currently use.
    pub fn get(&self) -> &Comm {
        self.owned.as_ref().unwrap_or(self.world)
    }

    /// Shrinks the current communicator to its survivors.
    pub fn shrink(&mut self) -> Result<(), CommError> {
        self.owned = Some(self.get().shrink()?);
        self.recoveries += 1;
        Ok(())
    }

    /// Shrink-and-retry cycles performed so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }
}

/// Runs `f` against the cursor's communicator, shrinking and retrying on
/// recoverable communicator faults (peer crashes). Everything else — this
/// rank's own injected crash, a numerical failure that a shrunken world
/// would only recompute — returns immediately.
pub fn with_recovery<T>(
    cursor: &mut CommCursor<'_>,
    mut f: impl FnMut(&Comm) -> Result<T, GwError>,
) -> Result<T, GwError> {
    for _ in 0..MAX_RECOVERIES {
        match f(cursor.get()) {
            Err(GwError::Comm(e)) if e.is_recoverable() => cursor.shrink()?,
            done => return done,
        }
    }
    Err(CommError::RecoveryExhausted {
        attempts: MAX_RECOVERIES,
    }
    .into())
}

/// What a surviving rank reports after a resilient GPP run, stage- or
/// task-granular.
#[derive(Clone, Debug)]
pub struct ResilientGwReport {
    /// The physics, as stage 7 (`service::assemble`) returned it.
    pub results: GwResults,
    /// Communicator size at the end of the run (`< initial` iff ranks
    /// were lost and the survivors recovered).
    pub final_size: usize,
    /// Shrink-and-retry cycles this rank performed.
    pub recoveries: u32,
    /// `(total, reenqueued)` task counts of the task-granular driver;
    /// `None` from the stage-granular one. `total` is one CHI task per
    /// valence band plus the overdecomposed Sigma G' slices — identical
    /// on every rank and invariant under shrinks (task identity never
    /// changes, only ownership does). `reenqueued` counts the orphaned
    /// tasks this rank recomputed after their owners died: zero on
    /// fault-free runs, and summed over the survivors of one crash it is
    /// the dead rank's task count, not the whole stage.
    pub tasks: Option<(usize, usize)>,
}

/// The distributed G0W0(GPP) pipeline on fallible collectives with
/// shrink-and-retry recovery.
///
/// Under a fault-free plan this reproduces the serial
/// [`run_gpp_gw`](crate::workflow::run_gpp_gw) physics through the
/// distributed code path (Newton-Schulz inversion instead of LU, so QP
/// energies agree to the iteration tolerance rather than bitwise). Under
/// a seeded [`bgw_comm::FaultPlan`], surviving ranks recover and
/// reproduce the *fault-free resilient* run's QP energies to 1e-10; the
/// crashed rank gets its own typed error. A singular dielectric matrix
/// surfaces as [`GwError::Epsilon`] on every rank instead of a
/// panic inside the distributed inversion.
pub fn run_gpp_gw_resilient(
    system: &ModelSystem,
    cfg: &GwConfig,
    comm: &Comm,
) -> Result<ResilientGwReport, GwError> {
    let mut cursor = CommCursor::new(comm);
    let mut timings = GwTimings::started();
    let p = prefix(system, cfg, &mut timings);

    // CHI: round-robin valence split + allreduce, re-split on shrink.
    let chi0 = with_recovery(&mut cursor, |c| {
        Ok(try_chi_distributed(c, &p.wf, &p.mtxel, p.chi_cfg, &[0.0])?
            .pop()
            .expect("one frequency asked, one matrix returned"))
    })?;

    // Epsilon: distributed Newton-Schulz inversion, replicated at the end.
    let eps_inv = epsilon_stage(&mut cursor, &chi0, &p)?;

    // Sigma: G'-sliced diag kernel + allreduce, re-sliced on shrink.
    let (ctx, eps_macro) = into_context(finish_screening(p, eps_inv, None), cfg, &mut timings);
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let diag = with_recovery(&mut cursor, |c| {
        Ok(try_gpp_sigma_diag_distributed(c, &ctx, &grids)?)
    })?;

    Ok(ResilientGwReport {
        results: assemble(&ctx, &ctx.sigma_bands, &diag, eps_macro, timings)?,
        final_size: cursor.get().size(),
        recoveries: cursor.recoveries(),
        tasks: None,
    })
}

/// The epsilon stage shared by both resilient drivers. NS diverges (and
/// asserts) on a singular matrix, so a rank-local LU factorization of the
/// replicated eps~ screens for singularity first — every rank sees the
/// same matrix, so every rank agrees on the typed error and no collective
/// is left half-entered. The stage is deliberately *stage*-granular even
/// on the DAG path: the Newton-Schulz iterates are global state, so there
/// is no finer-grained task whose loss could be recovered independently.
fn epsilon_stage(
    cursor: &mut CommCursor<'_>,
    chi0: &CMatrix,
    p: &Prefix,
) -> Result<EpsilonInverse, GwError> {
    let vsqrt = &p.vsqrt;
    let eps_m = crate::epsilon::assemble_sym_eps(chi0, vsqrt);
    if !eps_m
        .as_slice()
        .iter()
        .all(|z| z.re.is_finite() && z.im.is_finite())
    {
        return Err(EpsilonError::NonFinite {
            freq_index: 0,
            omega: 0.0,
        }
        .into());
    }
    if bgw_linalg::Lu::new(&eps_m).is_err() {
        return Err(EpsilonError::Singular {
            freq_index: 0,
            omega: 0.0,
        }
        .into());
    }
    let inv = with_recovery(cursor, |c| {
        let chi_dist = DistMatrix::from_replicated(c, chi0);
        let (inv_dist, _iters) = try_invert_epsilon_distributed(c, &chi_dist, vsqrt, 1e-12)?;
        Ok(inv_dist.try_to_replicated(c)?)
    })?;
    Ok(p.adopt(vec![0.0], vec![inv]))
}

// ---------------------------------------------------------------------------
// Task-granular recovery: the DAG resilient driver
// ---------------------------------------------------------------------------

/// Runs one stage's locally-owned tasks through a [`TaskGraph`]
/// (overdecomposed and work-stolen when a worker pool is available) and
/// returns their payloads in task order.
fn run_task_set<T, F>(ids: &[usize], f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = ids.iter().map(|_| Mutex::new(None)).collect();
    {
        let mut g = TaskGraph::new();
        for (i, &t) in ids.iter().enumerate() {
            let slots = &slots;
            g.add(&[], move || {
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(f(t));
            });
        }
        g.execute();
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("task executed")
        })
        .collect()
}

/// Survivor consensus on which tasks died with the lost ranks: every
/// survivor contributes a presence mask of the tasks it holds locally; a
/// zero count after the sum means no survivor holds that contribution and
/// the task must be re-enqueued. The mask collective itself runs under
/// shrink-and-retry, so a crash *during the census* just shrinks further
/// and the census repeats among the remaining survivors.
fn lost_tasks(cursor: &mut CommCursor<'_>, done: &[bool]) -> Result<Vec<usize>, GwError> {
    let mask: Vec<Complex64> = done
        .iter()
        .map(|&d| c64(if d { 1.0 } else { 0.0 }, 0.0))
        .collect();
    let counts = with_recovery(cursor, |c| Ok(c.try_allreduce_sum_c64(mask.clone())?))?;
    Ok(counts
        .iter()
        .enumerate()
        .filter(|(_, z)| z.re < 0.5)
        .map(|(t, _)| t)
        .collect())
}

/// Allreduce-sum of per-task contributions with task-granular recovery.
///
/// On a peer crash the survivors shrink, agree on the orphaned tasks via
/// [`lost_tasks`], re-enqueue ONLY those (split round-robin over the
/// survivor ranks and executed through the task graph), fold the
/// recomputed contributions into the local partial, and retry the
/// collective. Tasks whose results already live on a survivor are never
/// recomputed — that is what makes recovery task-granular instead of
/// stage-granular: losing one rank of `P` costs `~1/P` of the stage, not
/// the whole stage.
fn allreduce_with_reenqueue<F>(
    cursor: &mut CommCursor<'_>,
    done: &mut [bool],
    partial: &mut [Complex64],
    reenqueued: &mut usize,
    compute: &F,
) -> Result<Vec<Complex64>, GwError>
where
    F: Fn(usize) -> Vec<Complex64> + Sync,
{
    loop {
        match cursor.get().try_allreduce_sum_c64(partial.to_vec()) {
            Ok(total) => return Ok(total),
            Err(e) if e.is_recoverable() => {
                if cursor.recoveries() >= MAX_RECOVERIES {
                    return Err(CommError::RecoveryExhausted {
                        attempts: MAX_RECOVERIES,
                    }
                    .into());
                }
                cursor.shrink()?;
                let lost = lost_tasks(cursor, done)?;
                let c = cursor.get();
                let mine: Vec<usize> = lost
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % c.size() == c.rank())
                    .map(|(_, t)| t)
                    .collect();
                bgw_perf::counters::record_dag_reenqueued(mine.len() as u64);
                *reenqueued += mine.len();
                for (t, contrib) in mine.iter().zip(run_task_set(&mine, compute)) {
                    assert_eq!(contrib.len(), partial.len(), "task payload shape");
                    for (a, b) in partial.iter_mut().zip(&contrib) {
                        *a += *b;
                    }
                    done[*t] = true;
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// One task-granular stage: runs this rank's round-robin share of tasks
/// `0..n_tasks` (each a `len`-long additive contribution), then
/// [`allreduce_with_reenqueue`]s the partial sums.
fn reduce_task_set<F>(
    cursor: &mut CommCursor<'_>,
    n_tasks: usize,
    len: usize,
    reenqueued: &mut usize,
    compute: &F,
) -> Result<Vec<Complex64>, GwError>
where
    F: Fn(usize) -> Vec<Complex64> + Sync,
{
    let mut done = vec![false; n_tasks];
    let mut partial = vec![Complex64::ZERO; len];
    let c = cursor.get();
    let mine: Vec<usize> = (0..n_tasks).filter(|t| t % c.size() == c.rank()).collect();
    for (t, contrib) in mine.iter().zip(run_task_set(&mine, compute)) {
        for (a, b) in partial.iter_mut().zip(&contrib) {
            *a += *b;
        }
        done[*t] = true;
    }
    allreduce_with_reenqueue(cursor, &mut done, &mut partial, reenqueued, compute)
}

/// The distributed G0W0(GPP) pipeline with *task-granular* fault
/// recovery.
///
/// Where [`run_gpp_gw_resilient`] re-runs a whole stage after a crash
/// (every survivor recomputes its share from scratch), this driver
/// decomposes the CHI sum into one task per valence band and the Sigma
/// G' summation into `2 * world` slices, tracks which task results are
/// locally held, and on a crash re-enqueues only the tasks whose owner
/// died. Fault-free runs reproduce the stage-granular driver's physics
/// (same collectives, same reduction contents up to summation order);
/// faulted runs reproduce the fault-free QP energies to 1e-10 while
/// recomputing `~1/P` of the lost stages instead of all of them.
pub fn run_gpp_gw_resilient_dag(
    system: &ModelSystem,
    cfg: &GwConfig,
    comm: &Comm,
) -> Result<ResilientGwReport, GwError> {
    let mut cursor = CommCursor::new(comm);
    let mut reenqueued = 0usize;
    let mut timings = GwTimings::started();
    let p = prefix(system, cfg, &mut timings);

    // CHI: one task per valence band, owners fixed round-robin over the
    // initial ranks — a lost rank orphans exactly its bands.
    let engine = p.chi_engine();
    let ng = engine.n_g();
    let nv = p.wf.n_valence;
    let chi_task = |v: usize| -> Vec<Complex64> {
        engine
            .chi_freqs_subset(&[0.0], Some(&[v]), &mut ChiTimings::default())
            .pop()
            .expect("single static frequency")
            .as_slice()
            .to_vec()
    };
    let chi0 = CMatrix::from_vec(
        ng,
        ng,
        reduce_task_set(&mut cursor, nv, ng * ng, &mut reenqueued, &chi_task)?,
    );

    // Epsilon: stage-granular by design (see `epsilon_stage`).
    let eps_inv = epsilon_stage(&mut cursor, &chi0, &p)?;

    // Sigma: G' slices overdecomposed 2x over the initial world, so the
    // shrunken world rebalances at task granularity.
    let (ctx, eps_macro) = into_context(finish_screening(p, eps_inv, None), cfg, &mut timings);
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let ng_s = ctx.n_g();
    let n_slices = (comm.size() * 2).clamp(1, ng_s.max(1));
    let sigma_flops = AtomicU64::new(0);
    let sigma_task = |t: usize| -> Vec<Complex64> {
        let lo = t * ng_s / n_slices;
        let hi = (t + 1) * ng_s / n_slices;
        let part = gpp_sigma_diag_partial(&ctx, &grids, lo, hi);
        sigma_flops.fetch_add(part.flops, Ordering::Relaxed);
        part.sigma
            .iter()
            .flat_map(|band| band.iter().map(|&x| c64(x, 0.0)))
            .collect()
    };
    let t_sigma = Instant::now();
    let reduced = reduce_task_set(
        &mut cursor,
        n_slices,
        grids.len() * N_GRID,
        &mut reenqueued,
        &sigma_task,
    )?;
    let sigma = reduced
        .chunks_exact(N_GRID)
        .map(|row| row.iter().map(|z| z.re).collect())
        .collect();
    let diag = SigmaDiagResult {
        sigma,
        e_grids: grids,
        seconds: t_sigma.elapsed().as_secs_f64(),
        flops: sigma_flops.into_inner(),
    };

    Ok(ResilientGwReport {
        results: assemble(&ctx, &ctx.sigma_bands, &diag, eps_macro, timings)?,
        final_size: cursor.get().size(),
        recoveries: cursor.recoveries(),
        tasks: Some((nv + n_slices, reenqueued)),
    })
}
