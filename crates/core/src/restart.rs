//! Checkpoint/restart drivers for the GW workflows.
//!
//! Leadership-class GW runs burn node-hours by the hundred thousand; a
//! crash at hour N must not restart the pipeline from hour zero. These
//! drivers run [`run_gpp_gw`](crate::workflow::run_gpp_gw) and
//! [`run_evgw`](crate::workflow::run_evgw) with periodic snapshots of the
//! expensive accumulated state — partial CHI sums, inverted dielectric
//! blocks, per-band Sigma values, self-consistency iterates — through the
//! checksummed BGWR checkpoint records of `bgw-io`. A restarted run reads
//! the newest *valid* checkpoint (corrupt/truncated residue of the crash
//! is skipped) and resumes mid-stage; the cheap deterministic prefix
//! (mean-field solve, Coulomb setup, MTXEL caches) is recomputed, so only
//! O(N^3)-and-up work is snapshotted.
//!
//! The restart contract, enforced by `tests/restart.rs`: a run killed at
//! any checkpoint boundary and resumed reproduces the uninterrupted run's
//! quasiparticle energies to 1e-10.

use crate::chi::ChiTimings;
use crate::service::{
    assemble, decode_sigma_partial, finish_screening, gpp_partial_to_checkpoint,
    gpp_rows_preemptible, into_context, prefix, screened_context, sigma_band_window,
    three_point_grids, GppPartial, Stage, N_GRID,
};
use crate::sigma::SigmaContext;
use crate::workflow::{evgw_step, EvGwResults, GwConfig, GwResults, GwTimings};
use bgw_io::{read_latest_checkpoint, write_checkpoint, Checkpoint, IoError};
use bgw_linalg::CMatrix;
use bgw_pwdft::ModelSystem;
use std::path::PathBuf;
use std::time::Instant;

/// Stage markers stored in [`Checkpoint::stage`]. The numeric values are
/// part of the on-disk format: renumbering breaks old checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GwStage {
    /// CHI accumulation in progress; `step` = valence chunks summed,
    /// matrix 0 = the partial `chi(0)` accumulator.
    ChiPartial = 1,
    /// Dielectric inversion finished; matrix 0 = `eps~^{-1}(0)`.
    EpsilonDone = 2,
    /// Sigma evaluation in progress; `step` = Sigma bands done, matrix 0 =
    /// `eps~^{-1}(0)`, meta = flattened per-band Sigma values + flops.
    SigmaPartial = 3,
    /// Self-consistent (evGW) iteration finished; `step` = iterations,
    /// meta = current QP energies then the gap history.
    EvGwIter = 4,
    /// Screening artifact record used by the `bgw-serve` artifact store:
    /// matrix 0 = static `eps~^{-1}`, matrices 1.. = full-frequency
    /// `eps~^{-1}(omega_i)` blocks, meta = quadrature nodes then weights.
    WScreening = 5,
}

/// When and where to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory for `ckpt_NNNNNN.bgwr` files (created on first write).
    pub dir: PathBuf,
    /// Valence bands accumulated between CHI checkpoints. `None` uses the
    /// run's `nv_block`, which keeps the chunked accumulation identical to
    /// the uninterrupted [`ChiEngine`](crate::chi::ChiEngine) sweep.
    pub chi_stride: Option<usize>,
    /// Test hook simulating a kill: abort with
    /// [`RestartError::Aborted`] immediately *after* this many checkpoint
    /// writes, leaving a valid on-disk state to resume from.
    pub abort_after_writes: Option<usize>,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir` with default stride and no injected abort.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            chi_stride: None,
            abort_after_writes: None,
        }
    }
}

/// Errors from a checkpointed run.
#[derive(Debug)]
pub enum RestartError {
    /// Checkpoint file traffic failed.
    Io(IoError),
    /// The [`CheckpointPolicy::abort_after_writes`] kill switch fired.
    Aborted {
        /// Checkpoint writes completed before the abort.
        writes: usize,
    },
    /// The dielectric matrix could not be inverted — an application
    /// condition surfaced as data (the on-disk checkpoints up to the CHI
    /// stage stay valid and resumable), not a panic that would discard
    /// them.
    Epsilon(crate::epsilon::EpsilonError),
    /// A checkpoint decoded cleanly (checksums passed) but its payload
    /// does not fit the run resuming from it: a missing or mis-shaped
    /// matrix, a truncated metadata table, or a step count inconsistent
    /// with the stored data. Stale residue from a different system or a
    /// partially rewritten record degrades to this typed error instead of
    /// an index-out-of-bounds panic deep inside the resume path.
    Malformed {
        /// Which resume path rejected the record (`"chi"`, `"epsilon"`,
        /// `"sigma"`, `"evgw"`).
        stage: &'static str,
        /// What failed to validate.
        reason: String,
    },
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::Io(e) => write!(f, "checkpoint io: {e}"),
            RestartError::Aborted { writes } => {
                write!(
                    f,
                    "aborted after {writes} checkpoint writes (injected kill)"
                )
            }
            RestartError::Epsilon(e) => write!(f, "epsilon stage: {e}"),
            RestartError::Malformed { stage, reason } => {
                write!(f, "malformed checkpoint ({stage}): {reason}")
            }
        }
    }
}

impl std::error::Error for RestartError {}

impl From<IoError> for RestartError {
    fn from(e: IoError) -> Self {
        RestartError::Io(e)
    }
}

impl From<crate::epsilon::EpsilonError> for RestartError {
    fn from(e: crate::epsilon::EpsilonError) -> Self {
        RestartError::Epsilon(e)
    }
}

/// Bookkeeping for one checkpointed invocation: monotonic file indices and
/// the injected-kill countdown.
struct CkptWriter {
    policy: CheckpointPolicy,
    next_index: u64,
    writes: usize,
    t_checkpoint: f64,
}

impl CkptWriter {
    fn write(&mut self, ckpt: &Checkpoint) -> Result<(), RestartError> {
        let _s = bgw_trace::span!("workflow.checkpoint");
        let t = Instant::now();
        write_checkpoint(&self.policy.dir, self.next_index, ckpt)?;
        self.t_checkpoint += t.elapsed().as_secs_f64();
        self.next_index += 1;
        self.writes += 1;
        if let Some(limit) = self.policy.abort_after_writes {
            if self.writes >= limit {
                return Err(RestartError::Aborted {
                    writes: self.writes,
                });
            }
        }
        Ok(())
    }
}

/// State recovered from disk when a GPP run resumes.
enum GppResume {
    /// Nothing usable on disk: start from scratch.
    Fresh,
    /// CHI partially accumulated over the first `chunks_done` chunks.
    Chi { chunks_done: usize, acc: CMatrix },
    /// Epsilon inverted; Sigma not started.
    Epsilon { inv: CMatrix },
    /// Sigma evaluated for the first `partial.sigma.len()` bands.
    Sigma { inv: CMatrix, partial: GppPartial },
}

/// Takes matrix 0 of a record. It must exist and match the G-sphere of
/// the run resuming from it; anything else is residue from a different
/// system or cutoff.
fn first_matrix(
    matrices: Vec<CMatrix>,
    ng: usize,
    stage: &'static str,
    what: &str,
) -> Result<CMatrix, RestartError> {
    let m = matrices
        .into_iter()
        .next()
        .ok_or_else(|| RestartError::Malformed {
            stage,
            reason: format!("record carries no {what} matrix"),
        })?;
    if m.nrows() != ng || m.ncols() != ng {
        return Err(RestartError::Malformed {
            stage,
            reason: format!(
                "matrix is {}x{}, this run needs {ng}x{ng}",
                m.nrows(),
                m.ncols()
            ),
        });
    }
    Ok(m)
}

fn classify_gpp(
    found: Option<(u64, Checkpoint)>,
    ng: usize,
    n_chunks: usize,
    n_sigma: usize,
) -> Result<(GppResume, u64), RestartError> {
    let Some((idx, ck)) = found else {
        return Ok((GppResume::Fresh, 0));
    };
    let resume = match ck.stage {
        s if s == GwStage::ChiPartial as u64 => {
            let acc = first_matrix(ck.matrices, ng, "chi", "chi accumulator")?;
            let chunks_done = ck.step as usize;
            if chunks_done > n_chunks {
                return Err(RestartError::Malformed {
                    stage: "chi",
                    reason: format!(
                        "claims {chunks_done} valence chunks accumulated, \
                         this run only has {n_chunks}"
                    ),
                });
            }
            GppResume::Chi { chunks_done, acc }
        }
        s if s == GwStage::EpsilonDone as u64 => GppResume::Epsilon {
            inv: first_matrix(ck.matrices, ng, "epsilon", "inverse dielectric")?,
        },
        s if s == GwStage::SigmaPartial as u64 => {
            let partial = decode_sigma_partial(&ck, n_sigma, N_GRID).map_err(|reason| {
                RestartError::Malformed {
                    stage: "sigma",
                    reason,
                }
            })?;
            GppResume::Sigma {
                inv: first_matrix(ck.matrices, ng, "sigma", "inverse dielectric")?,
                partial,
            }
        }
        _ => GppResume::Fresh, // unknown stage (e.g. evGW residue)
    };
    Ok((resume, idx + 1))
}

/// [`run_gpp_gw`](crate::workflow::run_gpp_gw) with checkpoint/restart.
///
/// On entry the newest valid checkpoint under `policy.dir` (if any) is
/// loaded and the pipeline resumes after it; on success the results are
/// identical to the uninterrupted driver to better than 1e-10 in every QP
/// energy. Checkpoints are written after every `chi_stride` valence bands
/// of CHI accumulation, after the dielectric inversion, and between Sigma
/// bands. The policy pieces kept here are the chunked CHI accumulation and
/// the write after every step; the rest is the shared spine.
pub fn run_gpp_gw_checkpointed(
    system: &ModelSystem,
    cfg: &GwConfig,
    policy: &CheckpointPolicy,
) -> Result<GwResults, RestartError> {
    let mut timings = GwTimings::default();
    let counters0 = bgw_perf::counters::snapshot();
    let p = prefix(system, cfg, &mut timings);
    let engine = p.chi_engine();
    let ng = engine.n_g();
    let stride = policy.chi_stride.unwrap_or(p.chi_cfg.nv_block).max(1);
    let valence: Vec<usize> = (0..p.wf.n_valence).collect();
    let chunks: Vec<&[usize]> = valence.chunks(stride).collect();
    let n_sigma = sigma_band_window(&p.wf, cfg).len();

    let t_read = Instant::now();
    let found = read_latest_checkpoint(&policy.dir)?;
    let (resume, next_index) = classify_gpp(found, ng, chunks.len(), n_sigma)?;
    let mut writer = CkptWriter {
        policy: policy.clone(),
        next_index,
        writes: 0,
        t_checkpoint: t_read.elapsed().as_secs_f64(),
    };

    // ---- CHI accumulation, chunk by chunk -------------------------------
    let (mut chi0, start_chunk, have_inv, mut partial) = match resume {
        GppResume::Fresh => (CMatrix::zeros(ng, ng), 0, None, None),
        GppResume::Chi { chunks_done, acc } => (acc, chunks_done, None, None),
        GppResume::Epsilon { inv } => (CMatrix::zeros(0, 0), chunks.len(), Some(inv), None),
        GppResume::Sigma { inv, partial } => {
            (CMatrix::zeros(0, 0), chunks.len(), Some(inv), Some(partial))
        }
    };
    for (ci, chunk) in chunks.iter().enumerate().skip(start_chunk) {
        let part = Stage::Chi.timed(&mut timings, || {
            engine
                .chi_freqs_subset(&[0.0], Some(chunk), &mut ChiTimings::default())
                .pop()
                .expect("one frequency asked, one matrix returned")
        });
        for (a, b) in chi0.as_mut_slice().iter_mut().zip(part.as_slice()) {
            *a += *b;
        }
        writer.write(&Checkpoint {
            stage: GwStage::ChiPartial as u64,
            step: (ci + 1) as u64,
            meta: vec![],
            matrices: vec![chi0.clone()],
        })?;
    }

    // ---- Epsilon inversion ---------------------------------------------
    let eps_inv = match have_inv {
        Some(inv) => p.adopt(vec![0.0], vec![inv]),
        None => {
            let built = p.invert(&[chi0], &[0.0], &mut timings)?;
            writer.write(&Checkpoint {
                stage: GwStage::EpsilonDone as u64,
                step: 0,
                meta: vec![],
                matrices: vec![built.inv[0].clone()],
            })?;
            built
        }
    };
    let inv0 = eps_inv.inv[0].clone();

    // ---- Sigma, band by band -------------------------------------------
    let (ctx, eps_macro) = into_context(finish_screening(p, eps_inv, None), cfg, &mut timings);
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let diag = loop {
        let rows = gpp_rows_preemptible(
            &ctx,
            &grids,
            cfg.variant,
            partial.take(),
            &mut timings,
            |_| true,
        );
        match rows {
            Ok(diag) => break diag,
            Err(done) => {
                let mut ck = gpp_partial_to_checkpoint(&done, N_GRID);
                ck.matrices = vec![inv0.clone()];
                writer.write(&ck)?;
                partial = Some(done);
            }
        }
    };
    timings.t_checkpoint = writer.t_checkpoint;
    Ok(assemble(&ctx, &diag, eps_macro, timings, &counters0))
}

/// A one-band view of a [`SigmaContext`]: the checkpoint unit of the Sigma
/// stage (and the preemption unit of the `bgw-serve` loop). Evaluating the
/// slices in order reproduces the full-context kernel exactly (each band's
/// sum is independent).
pub fn band_slice(ctx: &SigmaContext, s: usize) -> SigmaContext {
    SigmaContext {
        m_tilde: vec![ctx.m_tilde[s].clone()],
        energies: ctx.energies.clone(),
        n_occ: ctx.n_occ,
        gpp: ctx.gpp.clone(),
        sigma_bands: vec![ctx.sigma_bands[s]],
        sigma_energies: vec![ctx.sigma_energies[s]],
    }
}

/// [`run_evgw`](crate::workflow::run_evgw) with per-iteration
/// checkpoint/restart. The screening prefix (CHI, epsilon, Sigma context)
/// is deterministic and recomputed on resume; only the self-consistency
/// iterate (QP energies + gap history) is snapshotted, after every
/// iteration.
pub fn run_evgw_checkpointed(
    system: &ModelSystem,
    cfg: &GwConfig,
    max_iter: usize,
    tol_ry: f64,
    policy: &CheckpointPolicy,
) -> Result<EvGwResults, RestartError> {
    let (ctx, _) = screened_context(system, cfg, &mut GwTimings::default())?;
    let n_sigma = ctx.n_sigma();

    // Resume the iterate if a valid evGW checkpoint exists.
    let found = read_latest_checkpoint(&policy.dir)?;
    let (mut e_qp, mut gap_history, mut iterations, next_index) = match found {
        Some((idx, ck)) if ck.stage == GwStage::EvGwIter as u64 => {
            // meta = [e_qp per sigma band, gap history: one entry per
            // completed iteration]. Anything else is residue from a
            // different band set or a half-rewritten record.
            let expect = n_sigma + ck.step as usize;
            if ck.meta.len() != expect {
                return Err(RestartError::Malformed {
                    stage: "evgw",
                    reason: format!(
                        "iterate has {} meta values; step {} with {n_sigma} sigma bands \
                         needs exactly {expect}",
                        ck.meta.len(),
                        ck.step
                    ),
                });
            }
            let e_qp = ck.meta[..n_sigma].to_vec();
            if e_qp.iter().any(|e| !e.is_finite()) {
                return Err(RestartError::Malformed {
                    stage: "evgw",
                    reason: "resumed QP energies contain non-finite values".into(),
                });
            }
            let hist = ck.meta[n_sigma..].to_vec();
            (e_qp, hist, ck.step as usize, idx + 1)
        }
        Some((idx, _)) => (ctx.sigma_energies.clone(), Vec::new(), 0, idx + 1),
        None => (ctx.sigma_energies.clone(), Vec::new(), 0, 0),
    };
    let mut writer = CkptWriter {
        policy: policy.clone(),
        next_index,
        writes: 0,
        t_checkpoint: 0.0,
    };

    while iterations < max_iter {
        iterations += 1;
        let max_delta = evgw_step(&ctx, cfg.variant, &mut e_qp, &mut gap_history);
        let mut meta = e_qp.clone();
        meta.extend_from_slice(&gap_history);
        writer.write(&Checkpoint {
            stage: GwStage::EvGwIter as u64,
            step: iterations as u64,
            meta,
            matrices: vec![],
        })?;
        if max_delta < tol_ry && iterations > 1 {
            break;
        }
    }
    let gap_ry = *gap_history.last().ok_or(RestartError::Malformed {
        stage: "evgw",
        reason: "run finished with an empty gap history \
                 (zero iterations performed and nothing resumed)"
            .into(),
    })?;
    Ok(EvGwResults {
        gap_ry,
        gap_history,
        iterations,
        e_qp,
    })
}
