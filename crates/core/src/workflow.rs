//! End-to-end GW drivers (the full Fig. 1 pipeline).
//!
//! Mean field -> Parabands -> MTXEL -> chi (Epsilon) -> GPP or FF ->
//! Sigma -> Dyson. Used by the examples and the benchmark harness; each
//! stage runs under its `workflow.*` span, the one record of its time
//! (`bgw_trace::report()`). The stages themselves live in
//! [`service`](crate::service) (the spine); the drivers here are its
//! barrier policy plus what they do with the Sigma context.

use crate::chi::ChiConfig;
use crate::dyson::{solve_qp_full, QpState};
use crate::error::GwError;
use crate::service::{assemble, screened_context, three_point_grids, Stage};
use crate::sigma::diag::{gpp_sigma_diag, KernelVariant};
use crate::sigma::offdiag::gpp_sigma_offdiag;
use crate::sigma::SigmaContext;
use bgw_num::UniformGrid;
use bgw_pwdft::ModelSystem;

/// Configuration for a one-shot G0W0(GPP) run.
#[derive(Clone, Copy, Debug)]
pub struct GwConfig {
    /// How many bands on each side of the gap get a self-energy
    /// (`N_Sigma = 2 * bands_around_gap`).
    pub bands_around_gap: usize,
    /// Energy offset for the 3-point Sigma sampling (Ry).
    pub sampling_delta_ry: f64,
    /// Diag-kernel implementation variant.
    pub variant: KernelVariant,
    /// Polarizability settings.
    pub chi: ChiConfig,
    /// Use the slab-truncated Coulomb (2-D sheets).
    pub slab: bool,
}

impl Default for GwConfig {
    fn default() -> Self {
        Self {
            bands_around_gap: 2,
            sampling_delta_ry: 0.05,
            variant: KernelVariant::Optimized,
            chi: ChiConfig::default(),
            slab: false,
        }
    }
}

/// Problem dimensions of the Sigma stage, recorded so run reports can
/// re-evaluate the paper's FLOP models (Eqs. 7-8, Table 3) against the
/// measured counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigmaDims {
    /// `N_Sigma`: number of bands with a self-energy.
    pub n_sigma: usize,
    /// `N_b`: bands summed over.
    pub n_b: usize,
    /// `N_G`: G-vectors of the epsilon sphere.
    pub n_g: usize,
    /// `N_E`: energy evaluations per Sigma band.
    pub n_e: usize,
}

/// Results of a one-shot GW run.
#[derive(Clone, Debug)]
pub struct GwResults {
    /// Band indices whose self-energy was computed.
    pub sigma_bands: Vec<usize>,
    /// Quasiparticle solutions, aligned with `sigma_bands`.
    pub states: Vec<QpState>,
    /// Mean-field gap (Ry).
    pub gap_mf_ry: f64,
    /// Quasiparticle gap (Ry).
    pub gap_qp_ry: f64,
    /// Macroscopic dielectric constant of the model.
    pub eps_macro: f64,
    /// Kernel FLOPs counted in the Sigma stage.
    pub sigma_flops: u64,
    /// Sigma-stage problem sizes, for FLOP-model cross-validation.
    pub dims: SigmaDims,
}

/// Runs the full G0W0(GPP) pipeline on a model system: the barrier
/// policy over the shared spine ([`service`](crate::service)) — the same
/// stages `build_screening` -> `sigma_context` -> the diag kernel run for
/// a served request, so the two agree bit for bit.
///
/// # Panics
/// On a singular dielectric matrix or a system with no gap for the band
/// window to straddle; the other drivers return those as [`GwError`]s.
pub fn run_gpp_gw(system: &ModelSystem, cfg: &GwConfig) -> GwResults {
    let _run_span = bgw_trace::span!("workflow.gpp_gw");
    gpp_gw(system, cfg).expect("G0W0(GPP) run failed").1
}

/// The barrier-policy run [`run_gpp_gw`] and [`run_full_dyson_gw`] share:
/// the Sigma context and its diagonal results.
fn gpp_gw(system: &ModelSystem, cfg: &GwConfig) -> Result<(SigmaContext, GwResults), GwError> {
    let (ctx, eps_macro) = screened_context(system, cfg)?;
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let diag = Stage::Sigma.run(|| gpp_sigma_diag(&ctx, &grids, cfg.variant));
    let results = assemble(&ctx, &ctx.sigma_bands, &diag, eps_macro)?;
    Ok((ctx, results))
}

/// Result of a self-consistent quasiparticle-energy solve.
#[derive(Clone, Debug)]
pub struct EvGwResults {
    /// Gap after each iteration (Ry); entry 0 is the one-shot
    /// (non-linearized) G0W0 value.
    pub gap_history: Vec<f64>,
    /// Final self-consistent gap (Ry).
    pub gap_ry: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Self-consistent QP energies of the Sigma bands (Ry).
    pub e_qp: Vec<f64>,
}

/// One damped fixed-point update of `E = E^MF + Re Sigma_ll(E)` on every
/// Sigma band: evaluates Sigma at the current estimates `e_qp`, moves
/// them, appends the new gap to `gap_history`, and returns the largest
/// move (Ry).
fn evgw_step(
    ctx: &SigmaContext,
    variant: KernelVariant,
    e_qp: &mut [f64],
    gap_history: &mut Vec<f64>,
) -> f64 {
    const DAMPING: f64 = 0.6;
    let grids: Vec<Vec<f64>> = e_qp.iter().map(|&e| vec![e]).collect();
    let diag = gpp_sigma_diag(ctx, &grids, variant);
    let mut max_delta: f64 = 0.0;
    for (s, e) in e_qp.iter_mut().enumerate() {
        let target = ctx.sigma_energies[s] + diag.sigma[s][0];
        let new = *e + DAMPING * (target - *e);
        max_delta = max_delta.max((new - *e).abs());
        *e = new;
    }
    gap_history.push(e_qp[ctx.lumo_pos()] - e_qp[ctx.homo_pos()]);
    max_delta
}

/// The damped self-consistency loop of both evGW drivers: [`evgw_step`]
/// from the iterate `(e_qp, gap_history)` — one history entry per
/// iteration already on record — until the largest move drops below
/// `tol_ry` or `max_iter` iterations are done, handing the iterate to
/// `after_iter` after every step (the checkpointed driver's write). A run
/// that ends with no iteration on record (`max_iter = 0`, nothing resumed)
/// has no gap to report and fails typed.
pub(crate) fn evgw_iterate(
    ctx: &SigmaContext,
    variant: KernelVariant,
    max_iter: usize,
    tol_ry: f64,
    mut e_qp: Vec<f64>,
    mut gap_history: Vec<f64>,
    mut after_iter: impl FnMut(&[f64], &[f64]) -> Result<(), GwError>,
) -> Result<EvGwResults, GwError> {
    while gap_history.len() < max_iter {
        let max_delta = evgw_step(ctx, variant, &mut e_qp, &mut gap_history);
        after_iter(&e_qp, &gap_history)?;
        if max_delta < tol_ry && gap_history.len() > 1 {
            break;
        }
    }
    let gap_ry = *gap_history.last().ok_or(GwError::Malformed {
        stage: "evgw",
        reason: "run finished with an empty gap history \
                 (zero iterations performed and nothing resumed)"
            .into(),
    })?;
    Ok(EvGwResults {
        gap_ry,
        iterations: gap_history.len(),
        gap_history,
        e_qp,
    })
}

/// Graphical (fixed-point) solution of the quasiparticle equation
/// `E = E^MF + Re Sigma_ll(E)` for every Sigma band, iterated to
/// self-consistency with damping — the beyond-Z-factor solution the
/// off-diag kernel's uniform energy grid enables at scale (paper
/// Sec. 5.6: "much more accurate self-consistent quasiparticle energies
/// from the full solutions of the Dyson's equation"). The screening stays
/// at RPA@mean-field (GW0).
pub fn run_evgw(
    system: &ModelSystem,
    cfg: &GwConfig,
    max_iter: usize,
    tol_ry: f64,
) -> Result<EvGwResults, GwError> {
    let (ctx, _) = screened_context(system, cfg)?;
    let e_mf = ctx.sigma_energies.clone();
    evgw_iterate(
        &ctx,
        cfg.variant,
        max_iter,
        tol_ry,
        e_mf,
        Vec::new(),
        |_, _| Ok(()),
    )
}

/// Results of a full-matrix Dyson solution.
#[derive(Clone, Debug)]
pub struct FullDysonResults {
    /// Band indices of the Sigma block.
    pub sigma_bands: Vec<usize>,
    /// Mean-field energies (Ry).
    pub e_mf: Vec<f64>,
    /// Diagonal-approximation QP energies (Ry).
    pub e_qp_diag: Vec<f64>,
    /// Full-matrix QP energies (Ry) from the off-diag kernel grid.
    pub e_qp_full: Vec<f64>,
    /// Off-diag kernel ZGEMM FLOPs.
    pub zgemm_flops: u64,
}

/// Runs the off-diagonal Sigma kernel on a uniform energy grid and solves
/// Dyson's equation both in the diagonal approximation and with the full
/// Sigma matrix — the paper's "full solutions of the Dyson's equation"
/// workflow (Sec. 5.6). The diagonal reference *is* [`run_gpp_gw`]'s
/// result (same spine, same kernel).
pub fn run_full_dyson_gw(
    system: &ModelSystem,
    cfg: &GwConfig,
    n_e: usize,
) -> Result<FullDysonResults, GwError> {
    let (ctx, reference) = gpp_gw(system, cfg)?;
    let e_qp_diag: Vec<f64> = reference.states.iter().map(|s| s.e_qp).collect();

    // uniform grid spanning the expected QP window (Sec. 5.6's
    // (l, m)-independent energy grid)
    let window = || e_qp_diag.iter().chain(&ctx.sigma_energies).copied();
    let lo = window().fold(f64::INFINITY, f64::min) - 0.3;
    let hi = window().fold(f64::NEG_INFINITY, f64::max) + 0.3;
    let grid = UniformGrid::new(lo, hi, n_e.max(4));
    let off = gpp_sigma_offdiag(&ctx, &grid);
    let e_qp_full = solve_qp_full(&ctx.sigma_energies, &off);
    Ok(FullDysonResults {
        sigma_bands: reference.sigma_bands,
        e_mf: ctx.sigma_energies,
        e_qp_diag,
        e_qp_full,
        zgemm_flops: off.zgemm_flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_pwdft::si_bulk;

    #[test]
    fn evgw_converges_and_exceeds_g0w0() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let g0w0 = run_gpp_gw(&sys, &GwConfig::default());
        let ev = run_evgw(&sys, &GwConfig::default(), 40, 1e-5).expect("evGW runs");
        assert!(
            ev.iterations >= 2 && ev.iterations < 40,
            "iters {}",
            ev.iterations
        );
        assert!(ev.gap_ry.is_finite() && ev.gap_ry > 0.0);
        // converged: last two gaps nearly equal
        let n = ev.gap_history.len();
        assert!(
            (ev.gap_history[n - 1] - ev.gap_history[n - 2]).abs() < 1e-4,
            "not converged: {:?}",
            &ev.gap_history[n.saturating_sub(3)..]
        );
        // the self-consistent gap opens relative to the mean field and is
        // the same order as the Z-linearized G0W0 gap
        assert!(ev.gap_ry > g0w0.gap_mf_ry);
        let ratio = ev.gap_ry / g0w0.gap_qp_ry;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sc gap {} vs G0W0 {}",
            ev.gap_ry,
            g0w0.gap_qp_ry
        );
    }

    #[test]
    fn full_dyson_workflow_runs() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let r = run_full_dyson_gw(&sys, &GwConfig::default(), 24).expect("full Dyson runs");
        assert_eq!(r.e_qp_full.len(), r.sigma_bands.len());
        assert!(r.zgemm_flops > 0);
        for (full, diag) in r.e_qp_full.iter().zip(&r.e_qp_diag) {
            assert!(full.is_finite());
            assert!(
                (full - diag).abs() < 0.4,
                "full-matrix and diagonal QP energies diverged: {full} vs {diag}"
            );
        }
    }

    #[test]
    fn full_pipeline_on_bulk_si() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let r = run_gpp_gw(&sys, &GwConfig::default());
        assert_eq!(r.sigma_bands.len(), 4);
        assert!(r.gap_qp_ry > r.gap_mf_ry, "GW must open the model gap");
        assert!(r.eps_macro > 1.0);
        assert!(r.sigma_flops > 0);
        for st in &r.states {
            assert!(st.e_qp.is_finite() && st.z > 0.0 && st.z <= 1.0);
        }
    }
}
