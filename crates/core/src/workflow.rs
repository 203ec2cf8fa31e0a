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
    traced_gpp_gw(system, cfg).expect("G0W0(GPP) run failed")
}

/// [`run_gpp_gw`]'s run, failing typed instead of panicking, under the
/// name `benchmark/src/adapter.rs` calls (DESIGN §14). Kept only for the
/// adapter; ROADMAP 6(d) moves it, then it goes.
pub fn run_gpp_gw_dag(system: &ModelSystem, cfg: &GwConfig) -> Result<DagGwResults, GwError> {
    traced_gpp_gw(system, cfg).map(|results| DagGwResults { results })
}

/// What [`run_gpp_gw_dag`] returns. Kept only for the adapter; ROADMAP
/// 6(d) moves it, then it goes.
#[derive(Clone, Debug)]
pub struct DagGwResults {
    /// The barrier run's results.
    pub results: GwResults,
}

/// [`gpp_gw`]'s results under the `workflow.gpp_gw` root span.
fn traced_gpp_gw(system: &ModelSystem, cfg: &GwConfig) -> Result<GwResults, GwError> {
    let _run_span = bgw_trace::span!("workflow.gpp_gw");
    Ok(gpp_gw(system, cfg)?.1)
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
