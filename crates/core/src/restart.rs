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
use crate::error::GwError;
use crate::service::{
    finish_screening, into_context, prefix, screened_context, sigma_band_window, sigma_row,
    SigmaRows, Stage,
};
use crate::workflow::{evgw_iterate, EvGwResults, GwConfig, GwResults};
use bgw_io::{read_latest_checkpoint, write_checkpoint, Checkpoint};
use bgw_linalg::CMatrix;
use bgw_pwdft::ModelSystem;
use std::path::PathBuf;

/// Stage markers stored in [`Checkpoint::stage`]. The numeric values are
/// part of the on-disk format: renumbering breaks old checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GwStage {
    /// CHI accumulation in progress; `step` = valence chunks summed,
    /// matrix 0 = the partial `chi(0)` accumulator.
    ChiPartial = 1,
    /// Dielectric inversion finished; matrix 0 = `eps~^{-1}(0)`.
    EpsilonDone = 2,
    /// Sigma evaluation in progress; `step` = Sigma rows done, meta = the
    /// keyed rows ([`SigmaRows::to_checkpoint`] is the layout), matrix 0 =
    /// `eps~^{-1}(0)`. Only a checkpointed run writes it: a served batch
    /// runs to completion and keeps its rows in memory.
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
    /// [`GwError::Aborted`] immediately *after* this many checkpoint
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

/// Bookkeeping for one checkpointed invocation: monotonic file indices and
/// the injected-kill countdown.
struct CkptWriter {
    policy: CheckpointPolicy,
    next_index: u64,
    writes: usize,
}

impl CkptWriter {
    fn write(&mut self, ckpt: &Checkpoint) -> Result<(), GwError> {
        let _s = bgw_trace::span!("workflow.checkpoint");
        write_checkpoint(&self.policy.dir, self.next_index, ckpt)?;
        self.next_index += 1;
        self.writes += 1;
        if let Some(limit) = self.policy.abort_after_writes {
            if self.writes >= limit {
                return Err(GwError::Aborted {
                    writes: self.writes,
                });
            }
        }
        Ok(())
    }
}

/// State recovered from disk when a GPP run resumes; the default is a
/// fresh start.
#[derive(Default)]
struct GppResume {
    /// Valence chunks already summed into `chi_acc` (all of them once the
    /// inversion is on record).
    chunks_done: usize,
    /// The partial `chi(0)` accumulator of an interrupted CHI stage.
    chi_acc: Option<CMatrix>,
    /// `eps~^{-1}(0)`, once inverted.
    inv: Option<CMatrix>,
    /// Sigma rows evaluated so far.
    rows: SigmaRows,
}

/// Takes matrix 0 of a record. It must exist and match the G-sphere of
/// the run resuming from it; anything else is residue from a different
/// system or cutoff.
fn first_matrix(
    matrices: Vec<CMatrix>,
    ng: usize,
    stage: &'static str,
    what: &str,
) -> Result<CMatrix, GwError> {
    let m = matrices
        .into_iter()
        .next()
        .ok_or_else(|| GwError::Malformed {
            stage,
            reason: format!("record carries no {what} matrix"),
        })?;
    if m.nrows() != ng || m.ncols() != ng {
        return Err(GwError::Malformed {
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
    window: &[usize],
    delta_ry: f64,
) -> Result<(GppResume, u64), GwError> {
    let Some((idx, ck)) = found else {
        return Ok((GppResume::default(), 0));
    };
    let mut resume = GppResume::default();
    match ck.stage {
        s if s == GwStage::ChiPartial as u64 => {
            resume.chi_acc = Some(first_matrix(ck.matrices, ng, "chi", "chi accumulator")?);
            resume.chunks_done = ck.step as usize;
            if resume.chunks_done > n_chunks {
                return Err(GwError::Malformed {
                    stage: "chi",
                    reason: format!(
                        "claims {} valence chunks accumulated, this run only has {n_chunks}",
                        resume.chunks_done
                    ),
                });
            }
        }
        s if s == GwStage::EpsilonDone as u64 => {
            resume.chunks_done = n_chunks;
            resume.inv = Some(first_matrix(
                ck.matrices,
                ng,
                "epsilon",
                "inverse dielectric",
            )?);
        }
        s if s == GwStage::SigmaPartial as u64 => {
            let malformed = |reason| GwError::Malformed {
                stage: "sigma",
                reason,
            };
            resume.rows = SigmaRows::from_checkpoint(&ck, window.len()).map_err(malformed)?;
            if let Some(r) = resume
                .rows
                .rows
                .iter()
                .find(|r| !window.contains(&r.band) || r.delta_ry != delta_ry)
            {
                return Err(malformed(format!(
                    "row (band {}, delta {} Ry) is not one of this run's",
                    r.band, r.delta_ry
                )));
            }
            resume.chunks_done = n_chunks;
            resume.inv = Some(first_matrix(
                ck.matrices,
                ng,
                "sigma",
                "inverse dielectric",
            )?);
        }
        _ => {} // unknown stage (e.g. evGW residue): start fresh
    }
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
) -> Result<GwResults, GwError> {
    let _run_span = bgw_trace::span!("workflow.gpp_gw_checkpointed");
    let p = prefix(system, cfg);
    let engine = p.chi_engine();
    let ng = engine.n_g();
    let stride = policy.chi_stride.unwrap_or(p.chi_cfg.nv_block).max(1);
    let valence: Vec<usize> = (0..p.wf.n_valence).collect();
    let chunks: Vec<&[usize]> = valence.chunks(stride).collect();
    let window = sigma_band_window(&p.wf, cfg);
    let delta = cfg.sampling_delta_ry;

    let found = read_latest_checkpoint(&policy.dir)?;
    let (resume, next_index) = classify_gpp(found, ng, chunks.len(), &window, delta)?;
    let mut writer = CkptWriter {
        policy: policy.clone(),
        next_index,
        writes: 0,
    };

    // ---- CHI accumulation, chunk by chunk -------------------------------
    let mut chi0 = resume.chi_acc.unwrap_or_else(|| CMatrix::zeros(ng, ng));
    let mut rows = resume.rows;
    for (ci, chunk) in chunks.iter().enumerate().skip(resume.chunks_done) {
        let part = Stage::Chi.run(|| {
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
    let eps_inv = match resume.inv {
        Some(inv) => p.adopt(vec![0.0], vec![inv]),
        None => {
            let built = p.invert(&[chi0], &[0.0])?;
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

    // ---- Sigma, row by row: a write after every row but the last --------
    let (ctx, eps_macro) = into_context(finish_screening(p, eps_inv, None), cfg);
    for s in 0..ctx.n_sigma() {
        if rows.get(ctx.sigma_bands[s], delta).is_some() {
            continue;
        }
        let row = Stage::Sigma.run(|| sigma_row(&ctx, s, delta, cfg.variant));
        rows.rows.push(row);
        if rows.rows.len() < ctx.n_sigma() {
            let mut ck = rows.to_checkpoint();
            ck.matrices = vec![inv0.clone()];
            writer.write(&ck)?;
        }
    }
    rows.assemble(&ctx, &ctx.sigma_bands, delta, eps_macro)
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
) -> Result<EvGwResults, GwError> {
    let (ctx, _) = screened_context(system, cfg)?;
    let n_sigma = ctx.n_sigma();

    // Resume the iterate if a valid evGW checkpoint exists.
    let found = read_latest_checkpoint(&policy.dir)?;
    let (e_qp, gap_history, next_index) = match found {
        Some((idx, ck)) if ck.stage == GwStage::EvGwIter as u64 => {
            // meta = [e_qp per sigma band, gap history: one entry per
            // completed iteration]. Anything else is residue from a
            // different band set or a half-rewritten record.
            let expect = usize::try_from(ck.step)
                .ok()
                .and_then(|step| step.checked_add(n_sigma));
            if expect != Some(ck.meta.len()) {
                return Err(GwError::Malformed {
                    stage: "evgw",
                    reason: format!(
                        "iterate has {} meta values; step {} with {n_sigma} sigma bands \
                         needs {n_sigma} + step",
                        ck.meta.len(),
                        ck.step
                    ),
                });
            }
            let e_qp = ck.meta[..n_sigma].to_vec();
            if e_qp.iter().any(|e| !e.is_finite()) {
                return Err(GwError::Malformed {
                    stage: "evgw",
                    reason: "resumed QP energies contain non-finite values".into(),
                });
            }
            (e_qp, ck.meta[n_sigma..].to_vec(), idx + 1)
        }
        Some((idx, _)) => (ctx.sigma_energies.clone(), Vec::new(), idx + 1),
        None => (ctx.sigma_energies.clone(), Vec::new(), 0),
    };
    let mut writer = CkptWriter {
        policy: policy.clone(),
        next_index,
        writes: 0,
    };

    evgw_iterate(
        &ctx,
        cfg.variant,
        max_iter,
        tol_ry,
        e_qp,
        gap_history,
        |e_qp, gap_history| {
            writer.write(&Checkpoint {
                stage: GwStage::EvGwIter as u64,
                step: gap_history.len() as u64,
                meta: [e_qp, gap_history].concat(),
                matrices: vec![],
            })
        },
    )
}
