//! The GW spine, split at the W boundary, and the request-shaped entry
//! points the serving layer (`bgw-serve`) builds on it.
//!
//! The Fig. 1 pipeline is spelled exactly once, here, as seven shared
//! stages (DESIGN.md, "The spine and its policies"):
//!
//! 1. `prefix` — spheres, mean-field bands, the slab-aware Coulomb,
//!    the MTXEL engine, `sqrt(v)` and the `q0`-patched `ChiConfig`;
//! 2. chi0 — **the driver's own** (barrier `chi_static`, checkpointed
//!    chunks);
//! 3. the dielectric inversion — **the driver's own** (`Prefix::invert`
//!    is the barrier LU the non-distributed drivers share);
//! 4. `finish_screening` — `eps_macro`, charge density, [`GppModel`]
//!    -> [`Screening`];
//! 5. [`sigma_context`] / `into_context` — the Sigma matrix elements;
//! 6. Sigma rows — **the driver's own loop** over the one row entry
//!    ([`sigma_row`]: row `s` of a context on its 3-point grid, with its
//!    counted FLOPs; `gpp_sigma_diag` is the whole-context kernel, the
//!    same loop inside one span), collected in a keyed [`SigmaRows`] set;
//! 7. `assemble` — Dyson solve, gaps and `SigmaDims` -> [`GwResults`].
//!
//! Every driver in [`workflow`](crate::workflow) and
//! [`restart`](crate::restart) is the shared stages plus the three
//! pieces it keeps, so "served == one-shot" holds by construction. Stage
//! spans (`workflow.meanfield|chi|epsilon|mtxel|sigma`) are opened by
//! `Stage::run` and nowhere else; they are the one record of stage time.
//!
//! On top of the spine the serving layer gets:
//!
//! * [`build_screening`] — the barrier policy up to and including
//!   `eps~^{-1}` (static, and optionally full-frequency on the quadrature
//!   nodes), packaged as a [`Screening`];
//! * [`screening_to_checkpoint`] / [`screening_from_checkpoint`] encode a
//!   `Screening` as a checksummed BGWR [`Checkpoint`] record (stage
//!   [`GwStage::WScreening`]) — the serve artifact store's unit, so a
//!   cache hit *is* a restart: the cheap deterministic prefix is
//!   recomputed and the stored `eps~^{-1}` blocks are re-adopted;
//! * [`gpp_eval_preemptible`] / [`ff_eval`] evaluate Sigma for an explicit
//!   band list against a `Screening`. The GPP path is the plain loop over
//!   [`sigma_row`] and can stop between rows; the [`SigmaRows`] it returns
//!   round-trip through the one `SigmaPartial` checkpoint layout
//!   ([`SigmaRows::to_checkpoint`] / [`SigmaRows::from_checkpoint`]) — the
//!   serving loop's preemption unit and the checkpointed driver's restart
//!   unit.

use crate::chi::{ChiConfig, ChiEngine};
use crate::coulomb::Coulomb;
use crate::dyson::{qp_gap, solve_qp_diag};
use crate::epsilon::{EpsilonError, EpsilonInverse};
use crate::error::GwError;
use crate::gpp::GppModel;
use crate::mtxel::Mtxel;
use crate::restart::GwStage;
use crate::sigma::diag::{gpp_sigma_row, KernelVariant, SigmaDiagResult};
use crate::sigma::fullfreq::ff_sigma_diag;
use crate::sigma::SigmaContext;
use crate::workflow::{GwConfig, GwResults, SigmaDims};
use bgw_io::Checkpoint;
use bgw_linalg::CMatrix;
use bgw_num::grid::semi_infinite_quadrature;
use bgw_num::Complex64;
use bgw_pwdft::{charge_density_g, solve_bands, GSphere, ModelSystem, Wavefunctions};

/// The five stages of a GW run: the one place their span names are
/// spelled.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stage {
    Meanfield,
    Chi,
    Epsilon,
    Mtxel,
    Sigma,
}

impl Stage {
    /// Runs `f` under this stage's span.
    pub(crate) fn run<T>(self, f: impl FnOnce() -> T) -> T {
        let _span = match self {
            Stage::Meanfield => bgw_trace::span!("workflow.meanfield"),
            Stage::Chi => bgw_trace::span!("workflow.chi"),
            Stage::Epsilon => bgw_trace::span!("workflow.epsilon"),
            Stage::Mtxel => bgw_trace::span!("workflow.mtxel"),
            Stage::Sigma => bgw_trace::span!("workflow.sigma"),
        };
        f()
    }
}

/// Full-frequency screening request: build `eps~^{-1}` on the
/// semi-infinite quadrature (scale 2.0 Ry) in addition to the static
/// matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FfSpec {
    /// Quadrature nodes on the positive frequency axis.
    pub n_quad: usize,
}

/// The reusable (and cacheable) screening state shared by every Sigma
/// request against one structure: the W boundary of the GW pipeline.
pub struct Screening {
    /// Mean-field bands (cheap deterministic prefix, never stored).
    pub wf: Wavefunctions,
    /// Wavefunction G-sphere.
    pub wfn_sph: GSphere,
    /// Epsilon/Sigma G-sphere.
    pub eps_sph: GSphere,
    /// Bare Coulomb interaction for this cell.
    pub coulomb: Coulomb,
    /// MTXEL engine (FFT plan + scatter tables), reused across requests.
    pub mtxel: Mtxel,
    /// `sqrt(v(G))` on the epsilon sphere.
    pub vsqrt: Vec<f64>,
    /// Static `eps~^{-1}` (omegas = [0.0]).
    pub eps_inv: EpsilonInverse,
    /// Full-frequency `eps~^{-1}` on the quadrature nodes, with the
    /// quadrature weights; `None` for GPP-only screenings.
    pub ff: Option<(EpsilonInverse, Vec<f64>)>,
    /// Macroscopic dielectric constant.
    pub eps_macro: f64,
    /// Plasmon-pole model derived from the static inverse.
    pub gpp: GppModel,
}

impl Screening {
    /// Decoded in-memory footprint of this screening, in bytes: the
    /// currency a cost-aware cache charges against its budget. Full
    /// frequency blocks dominate — an FF screening carries one
    /// `eps~^{-1}` matrix per quadrature node on top of the static one —
    /// so this is deliberately *not* an entry count. The estimate covers
    /// the large arrays (matrices, coefficient tables, spheres); small
    /// scalar fields are ignored.
    pub fn approx_bytes(&self) -> u64 {
        const C64: u64 = std::mem::size_of::<Complex64>() as u64;
        const F64: u64 = std::mem::size_of::<f64>() as u64;
        let mat = |m: &bgw_linalg::CMatrix| (m.nrows() * m.ncols()) as u64 * C64;
        let eps = |e: &EpsilonInverse| {
            e.inv.iter().map(&mat).sum::<u64>() + (e.omegas.len() + e.vsqrt.len()) as u64 * F64
        };
        let sphere = |s: &GSphere| {
            // miller [i32;3] + cart [f64;3] + norm2 f64 per G-vector.
            s.len() as u64 * (12 + 24 + 8)
        };
        let mut total = 0u64;
        total += mat(&self.wf.coeffs) + self.wf.energies.len() as u64 * F64;
        total += sphere(&self.wfn_sph) + sphere(&self.eps_sph);
        total += self.vsqrt.len() as u64 * F64;
        total += eps(&self.eps_inv);
        if let Some((ff, weights)) = &self.ff {
            total += eps(ff) + weights.len() as u64 * F64;
        }
        total += (self.gpp.pole_strength.len() + self.gpp.mode_freq.len()) as u64 * F64;
        // MTXEL scatter/gather tables: one usize per box point per table
        // plus the wavefunction cartesian list.
        total += (self.wfn_sph.len() * (8 + 8 + 24)) as u64;
        total
    }
}

// ---------------------------------------------------------------------------
// The shared stages
// ---------------------------------------------------------------------------

/// Stage 1: the deterministic cheap prefix every driver starts from (and
/// every restore recomputes).
pub(crate) struct Prefix {
    pub(crate) wfn_sph: GSphere,
    pub(crate) eps_sph: GSphere,
    pub(crate) wf: Wavefunctions,
    pub(crate) coulomb: Coulomb,
    pub(crate) mtxel: Mtxel,
    pub(crate) vsqrt: Vec<f64>,
    /// `cfg.chi` with `q0` patched to the Coulomb's.
    pub(crate) chi_cfg: ChiConfig,
    volume: f64,
}

pub(crate) fn prefix(system: &ModelSystem, cfg: &GwConfig) -> Prefix {
    let wfn_sph = system.wfn_sphere();
    let eps_sph = system.eps_sphere();
    let wf = Stage::Meanfield
        .run(|| solve_bands(&system.crystal, &wfn_sph, system.n_bands.min(wfn_sph.len())));
    let volume = system.crystal.lattice.volume();
    let coulomb = if cfg.slab {
        Coulomb::slab(system.crystal.lattice.a[2][2], volume)
    } else {
        Coulomb::bulk_for_cell(volume)
    };
    let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
    let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);
    let chi_cfg = ChiConfig {
        q0: coulomb.q0,
        ..cfg.chi
    };
    Prefix {
        wfn_sph,
        eps_sph,
        wf,
        coulomb,
        mtxel,
        vsqrt,
        chi_cfg,
        volume,
    }
}

impl Prefix {
    /// The polarizability engine every chi0 policy drives.
    pub(crate) fn chi_engine(&self) -> ChiEngine<'_> {
        ChiEngine::new(&self.wf, &self.mtxel, self.chi_cfg)
    }

    /// The barrier inversion policy: LU of every frequency at once.
    pub(crate) fn invert(
        &self,
        chis: &[CMatrix],
        omegas: &[f64],
    ) -> Result<EpsilonInverse, EpsilonError> {
        Stage::Epsilon.run(|| EpsilonInverse::build(chis, omegas, &self.coulomb, &self.eps_sph))
    }

    /// Re-adopts inverted blocks a policy produced elsewhere (a
    /// checkpoint, per-frequency tasks, a distributed inversion).
    pub(crate) fn adopt(&self, omegas: Vec<f64>, inv: Vec<CMatrix>) -> EpsilonInverse {
        EpsilonInverse::from_parts(omegas, inv, self.vsqrt.clone())
    }

    /// The plasmon-pole model of a static inverse and a charge density.
    pub(crate) fn gpp_model(&self, eps_inv: &EpsilonInverse, rho: &[Complex64]) -> GppModel {
        GppModel::new(eps_inv, &self.eps_sph, &self.wfn_sph, rho, self.volume)
    }
}

/// Stage 4: `eps_macro`, charge density and the GPP model -> [`Screening`].
pub(crate) fn finish_screening(
    p: Prefix,
    eps_inv: EpsilonInverse,
    ff: Option<(EpsilonInverse, Vec<f64>)>,
) -> Screening {
    let eps_macro = eps_inv.macroscopic_constant();
    let gpp = p.gpp_model(&eps_inv, &charge_density_g(&p.wf, &p.wfn_sph));
    Screening {
        wf: p.wf,
        wfn_sph: p.wfn_sph,
        eps_sph: p.eps_sph,
        coulomb: p.coulomb,
        mtxel: p.mtxel,
        vsqrt: p.vsqrt,
        eps_inv,
        ff,
        eps_macro,
        gpp,
    }
}

/// Stages 1-4 under the barrier policy (`chi_static` + LU, plus the
/// quadrature blocks when `ff` is set).
fn screen(
    system: &ModelSystem,
    cfg: &GwConfig,
    ff: Option<FfSpec>,
) -> Result<Screening, EpsilonError> {
    let p = prefix(system, cfg);
    let (engine, chi0) = Stage::Chi.run(|| {
        let engine = p.chi_engine();
        let chi0 = engine.chi_static();
        (engine, chi0)
    });
    let eps_inv = p.invert(&[chi0], &[0.0])?;
    let ff = match ff {
        None => None,
        Some(spec) => {
            let (nodes, weights) = semi_infinite_quadrature(spec.n_quad, 2.0);
            let chis = Stage::Chi.run(|| engine.chi_freqs(&nodes).0);
            Some((p.invert(&chis, &nodes)?, weights))
        }
    };
    Ok(finish_screening(p, eps_inv, ff))
}

/// The Sigma band window of the one-shot drivers: `cfg.bands_around_gap`
/// bands (at least one) on each side of the gap.
pub(crate) fn sigma_band_window(wf: &Wavefunctions, cfg: &GwConfig) -> Vec<usize> {
    bands_around_gap(wf.n_valence, wf.n_bands(), cfg.bands_around_gap.max(1))
}

/// `k` bands on each side of the gap of a system with `nv` valence bands
/// out of `nb`, clamped to the bands that exist.
pub fn bands_around_gap(nv: usize, nb: usize, k: usize) -> Vec<usize> {
    (nv.saturating_sub(k)..(nv + k).min(nb)).collect()
}

/// Points per band of [`three_point_grids`].
pub(crate) const N_GRID: usize = 3;

/// The 3-point Sigma sampling grid around one mean-field energy (Ry) —
/// what the diagonal Dyson solve interpolates.
fn three_point_grid(e: f64, delta: f64) -> [f64; N_GRID] {
    [e - delta, e, e + delta]
}

/// The 3-point sampling grid around each of `energies`.
pub fn three_point_grids(energies: &[f64], delta: f64) -> Vec<Vec<f64>> {
    energies
        .iter()
        .map(|&e| three_point_grid(e, delta).to_vec())
        .collect()
}

/// Stage 5 on borrowed parts (a [`Prefix`] inside a task graph, or a
/// [`Screening`]): the Sigma matrix elements.
pub(crate) fn context_stage(
    wf: &Wavefunctions,
    mtxel: &Mtxel,
    vsqrt: &[f64],
    q0: f64,
    gpp: GppModel,
    bands: &[usize],
) -> SigmaContext {
    Stage::Mtxel.run(|| SigmaContext::build(wf, mtxel, gpp, vsqrt, bands, q0))
}

/// Stage 5 for the one-shot drivers: consumes the screening — its GPP
/// model moves into the context, no `N_G^2` copy — and returns the
/// context over [`sigma_band_window`] with `eps_macro`.
pub(crate) fn into_context(s: Screening, cfg: &GwConfig) -> (SigmaContext, f64) {
    let bands = sigma_band_window(&s.wf, cfg);
    let ctx = context_stage(&s.wf, &s.mtxel, &s.vsqrt, s.coulomb.q0, s.gpp, &bands);
    (ctx, s.eps_macro)
}

/// Stages 1-5 under the barrier policy: where `run_gpp_gw`, `run_evgw`
/// and `run_full_dyson_gw` start.
pub(crate) fn screened_context(
    system: &ModelSystem,
    cfg: &GwConfig,
) -> Result<(SigmaContext, f64), EpsilonError> {
    Ok(into_context(screen(system, cfg, None)?, cfg))
}

/// Stage 6, one row: row `s` of `ctx` on its 3-point grid at offset
/// `delta_ry` — the unit the checkpointed driver writes after and the
/// serving loop polls preemption between.
pub fn sigma_row(ctx: &SigmaContext, s: usize, delta_ry: f64, variant: KernelVariant) -> SigmaRow {
    let mut sigma = [0.0; N_GRID];
    let grid = three_point_grid(ctx.sigma_energies[s], delta_ry);
    let flops = gpp_sigma_row(ctx, s, &grid, variant, &mut sigma);
    SigmaRow {
        band: ctx.sigma_bands[s],
        delta_ry,
        sigma,
        flops,
    }
}

/// Stage 7: the diagonal Dyson solve, both gaps and the Sigma-stage
/// dimensions for `bands` — the context's own list for a one-shot run, one
/// request's window of a coalesced batch's union context for a served one
/// — with `diag` aligned to `bands`.
pub(crate) fn assemble(
    ctx: &SigmaContext,
    bands: &[usize],
    diag: &SigmaDiagResult,
    eps_macro: f64,
) -> Result<GwResults, GwError> {
    let missing = |input| GwError::MissingInput { input };
    let e_mf = bands
        .iter()
        .map(|&b| ctx.energies.get(b).copied())
        .collect::<Option<Vec<f64>>>()
        .ok_or(missing("band energy"))?;
    if diag.sigma.len() != bands.len() {
        return Err(missing("sigma row"));
    }
    let pos = |band| bands.iter().position(|&b| Some(b) == band);
    let (Some(homo), Some(lumo)) = (pos(ctx.n_occ.checked_sub(1)), pos(Some(ctx.n_occ))) else {
        return Err(missing("HOMO/LUMO row"));
    };
    let states = solve_qp_diag(&e_mf, diag);
    Ok(GwResults {
        sigma_bands: bands.to_vec(),
        gap_mf_ry: e_mf[lumo] - e_mf[homo],
        gap_qp_ry: qp_gap(&states, homo, lumo),
        states,
        eps_macro,
        sigma_flops: diag.flops,
        dims: SigmaDims {
            n_sigma: bands.len(),
            n_b: ctx.n_b(),
            n_g: ctx.n_g(),
            n_e: diag.e_grids.first().map_or(0, Vec::len),
        },
    })
}

// ---------------------------------------------------------------------------
// Request-shaped entry points
// ---------------------------------------------------------------------------

/// Computes the full screening state for a structure: CHI, the static
/// dielectric inversion (and the full-frequency inversions when `ff` is
/// set), and the GPP model — the one-shot drivers' own stages, so
/// downstream Sigma evaluations match them bitwise.
pub fn build_screening(
    system: &ModelSystem,
    cfg: &GwConfig,
    ff: Option<FfSpec>,
) -> Result<Screening, EpsilonError> {
    let _s = bgw_trace::span!("serve.screening.build");
    screen(system, cfg, ff)
}

/// Encodes a screening as a BGWR checkpoint record (stage
/// [`GwStage::WScreening`]): matrix 0 = static `eps~^{-1}`, matrices 1..
/// = the full-frequency blocks, meta = `[n_ff, nodes..., weights...]`,
/// `step` = `n_ff`. Only the expensive O(N^3) state is stored; the cheap
/// prefix is recomputed on restore.
pub fn screening_to_checkpoint(s: &Screening) -> Checkpoint {
    let mut matrices = vec![s.eps_inv.inv[0].clone()];
    let mut meta = Vec::new();
    let n_ff = s.ff.as_ref().map_or(0, |(e, _)| e.n_freq());
    meta.push(n_ff as f64);
    if let Some((eps, weights)) = &s.ff {
        matrices.extend(eps.inv.iter().cloned());
        meta.extend_from_slice(&eps.omegas);
        meta.extend_from_slice(weights);
    }
    Checkpoint {
        stage: GwStage::WScreening as u64,
        step: n_ff as u64,
        meta,
        matrices,
    }
}

/// Restores a screening from a [`screening_to_checkpoint`] record: the
/// serve cache-hit path, which *is* a restart. The cheap prefix is
/// recomputed from `system`/`cfg` and the stored `eps~^{-1}` blocks are
/// re-adopted via [`EpsilonInverse::from_parts`]. Returns `None` when the
/// record does not validate against this structure (wrong stage, shape
/// mismatch, non-finite payload, inconsistent meta) — the caller must
/// degrade to a recompute, never serve a wrong hit.
pub fn screening_from_checkpoint(
    system: &ModelSystem,
    cfg: &GwConfig,
    ck: &Checkpoint,
) -> Option<Screening> {
    let _s = bgw_trace::span!("serve.screening.restore");
    if ck.stage != GwStage::WScreening as u64 {
        return None;
    }
    // `step` is read off disk: a count no record could hold is malformed,
    // not an overflow.
    let n_ff = usize::try_from(ck.step).ok()?;
    let n_meta = n_ff.checked_mul(2)?.checked_add(1)?;
    if ck.matrices.len() != n_ff.checked_add(1)? || ck.meta.len() != n_meta {
        return None;
    }
    if ck.meta[0] as usize != n_ff {
        return None;
    }
    let p = prefix(system, cfg);
    let ng = p.eps_sph.len();
    for m in &ck.matrices {
        if m.nrows() != ng || m.ncols() != ng {
            return None;
        }
        if m.as_slice()
            .iter()
            .any(|z| !z.re.is_finite() || !z.im.is_finite())
        {
            return None;
        }
    }
    let nodes = ck.meta[1..1 + n_ff].to_vec();
    let weights = ck.meta[1 + n_ff..].to_vec();
    if nodes.iter().chain(&weights).any(|x| !x.is_finite()) {
        return None;
    }
    let eps_inv = p.adopt(vec![0.0], vec![ck.matrices[0].clone()]);
    let ff = (n_ff > 0).then(|| (p.adopt(nodes, ck.matrices[1..].to_vec()), weights));
    Some(finish_screening(p, eps_inv, ff))
}

/// Builds the Sigma context for an explicit band list against a
/// screening. Kept separate from the evaluators so a coalesced batch pays
/// the matrix-element cost once for its union band set.
pub fn sigma_context(s: &Screening, bands: &[usize]) -> SigmaContext {
    context_stage(
        &s.wf,
        &s.mtxel,
        &s.vsqrt,
        s.coulomb.q0,
        s.gpp.clone(),
        bands,
    )
}

/// A multi-band view of a context: the bands at `positions` of `ctx`'s
/// band list, in that order. Evaluating a subset view reproduces the
/// directly-built context exactly (each band's matrix-element block and
/// energy row are independent) — the full-frequency coalescing path uses
/// this to serve one member of a batch from the union context.
pub fn band_subset(ctx: &SigmaContext, positions: &[usize]) -> SigmaContext {
    SigmaContext {
        m_tilde: positions.iter().map(|&p| ctx.m_tilde[p].clone()).collect(),
        energies: ctx.energies.clone(),
        n_occ: ctx.n_occ,
        gpp: ctx.gpp.clone(),
        sigma_bands: positions.iter().map(|&p| ctx.sigma_bands[p]).collect(),
        sigma_energies: positions.iter().map(|&p| ctx.sigma_energies[p]).collect(),
    }
}

/// One evaluated Sigma row: the 3-point `Sigma_ll(E)` samples of `band`
/// at sampling offset `delta_ry`, with the kernel FLOPs they cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SigmaRow {
    /// Band index `l`.
    pub band: usize,
    /// Grid offset (Ry): the samples sit at `E^MF_l + [-delta, 0, delta]`.
    pub delta_ry: f64,
    /// `Sigma_ll` on that grid (Ry).
    pub sigma: [f64; N_GRID],
    /// Kernel FLOPs counted for this row.
    pub flops: u64,
}

/// Evaluated rows keyed by `(band, delta)`: what a GPP evaluation carries
/// across a preemption or a checkpoint. Keyed rather than "first k bands
/// done" because a coalesced batch mixes deltas and can come back reshaped
/// after a preemption; the checkpointed driver's prefix is the special
/// case.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SigmaRows {
    /// The rows, in evaluation order.
    pub rows: Vec<SigmaRow>,
}

/// Values per row of a `SigmaPartial` record: band, delta, FLOPs, samples.
const ROW_WIDTH: usize = 3 + N_GRID;

impl SigmaRows {
    /// The row of `band` at `delta_ry`, if evaluated.
    pub fn get(&self, band: usize, delta_ry: f64) -> Option<&SigmaRow> {
        self.rows
            .iter()
            .find(|r| r.band == band && r.delta_ry == delta_ry)
    }

    /// Stage 7 straight from a row set: `assemble` over the rows of
    /// `bands` at `delta_ry`. Fails typed on a row that was never
    /// evaluated.
    pub fn assemble(
        &self,
        ctx: &SigmaContext,
        bands: &[usize],
        delta_ry: f64,
        eps_macro: f64,
    ) -> Result<GwResults, GwError> {
        let diag = self.diag_for(ctx, bands, delta_ry)?;
        assemble(ctx, bands, &diag, eps_macro)
    }

    /// The rows of `bands` at `delta_ry` in the diag kernel's result shape
    /// (grids rebuilt around `ctx`'s mean-field energies).
    fn diag_for(
        &self,
        ctx: &SigmaContext,
        bands: &[usize],
        delta_ry: f64,
    ) -> Result<SigmaDiagResult, GwError> {
        let mut diag = SigmaDiagResult {
            sigma: Vec::with_capacity(bands.len()),
            e_grids: Vec::with_capacity(bands.len()),
            seconds: 0.0,
            flops: 0,
        };
        for &band in bands {
            let (Some(row), Some(&e_mf)) = (self.get(band, delta_ry), ctx.energies.get(band))
            else {
                return Err(GwError::MissingInput { input: "sigma row" });
            };
            diag.sigma.push(row.sigma.to_vec());
            diag.e_grids.push(three_point_grid(e_mf, delta_ry).to_vec());
            diag.flops += row.flops;
        }
        Ok(diag)
    }

    /// The one encoder of `SigmaPartial` records: `step` = rows, meta =
    /// `[n_grid, rows, then per row: band, delta_ry, flops, samples]`, no
    /// matrices (a checkpointed run adds its `eps~^{-1}` as matrix 0).
    pub fn to_checkpoint(&self) -> Checkpoint {
        let mut meta = vec![N_GRID as f64, self.rows.len() as f64];
        for r in &self.rows {
            meta.extend([r.band as f64, r.delta_ry, r.flops as f64]);
            meta.extend(r.sigma);
        }
        Checkpoint {
            stage: GwStage::SigmaPartial as u64,
            step: self.rows.len() as u64,
            meta,
            matrices: vec![],
        }
    }

    /// The one decoder of `SigmaPartial` records, for an evaluation that
    /// can need at most `max_rows` rows. Everything read off disk is
    /// validated before it sizes or indexes anything: the header, the row
    /// count against `step`, `max_rows` and the table length (checked
    /// arithmetic), integral band/FLOP fields, finite values, distinct
    /// keys. Records of either pre-unification layout fail the header or
    /// length check. The reason of a rejection comes back as text
    /// ([`GwError::Malformed`] on the restart side, a recompute from row 0
    /// on the serving side).
    pub fn from_checkpoint(ck: &Checkpoint, max_rows: usize) -> Result<Self, String> {
        if ck.stage != GwStage::SigmaPartial as u64 {
            return Err(format!("stage {} is not a sigma partial", ck.stage));
        }
        let [n_grid, n_rows, table @ ..] = ck.meta.as_slice() else {
            return Err(format!(
                "metadata has {} values, header needs 2",
                ck.meta.len()
            ));
        };
        if *n_grid != N_GRID as f64 {
            return Err(format!(
                "rows are {n_grid} energies wide, this build samples {N_GRID}"
            ));
        }
        let n = usize::try_from(ck.step)
            .ok()
            .filter(|&n| n <= max_rows && n as f64 == *n_rows)
            .ok_or_else(|| {
                format!(
                    "claims {} rows (header says {n_rows}), this evaluation has at most {max_rows}",
                    ck.step
                )
            })?;
        if n.checked_mul(ROW_WIDTH) != Some(table.len()) {
            return Err(format!(
                "sigma table has {} values, {n} rows need {ROW_WIDTH} each",
                table.len()
            ));
        }
        // Exactly representable non-negative integers only.
        let integral = |x: f64| (0.0..9.0e15).contains(&x) && x.fract() == 0.0;
        let mut rows: Vec<SigmaRow> = Vec::with_capacity(n);
        for c in table.chunks_exact(ROW_WIDTH) {
            if !integral(c[0]) || !integral(c[2]) || c.iter().any(|x| !x.is_finite()) {
                return Err("sigma table holds a non-integral key or non-finite value".into());
            }
            let row = SigmaRow {
                band: c[0] as usize,
                delta_ry: c[1],
                flops: c[2] as u64,
                sigma: [c[3], c[4], c[5]],
            };
            if rows
                .iter()
                .any(|r| r.band == row.band && r.delta_ry == row.delta_ry)
            {
                return Err(format!(
                    "row (band {}, delta {}) appears twice",
                    row.band, row.delta_ry
                ));
            }
            rows.push(row);
        }
        Ok(Self { rows })
    }
}

/// Evaluates the GPP Sigma rows of `ctx` at offset `delta_ry` that
/// `resume` does not already hold, one [`sigma_row`] at a time, asking
/// `should_yield(rows_held)` between rows. Returns the row set — complete
/// (one row per band of `ctx`, ready for [`SigmaRows::assemble`]) unless the hook stopped it, in which case passing it back
/// as `resume` continues where it stopped.
pub fn gpp_eval_preemptible(
    ctx: &SigmaContext,
    delta_ry: f64,
    variant: KernelVariant,
    resume: Option<SigmaRows>,
    mut should_yield: impl FnMut(usize) -> bool,
) -> SigmaRows {
    let mut rows = resume.unwrap_or_default();
    for s in 0..ctx.n_sigma() {
        if rows.get(ctx.sigma_bands[s], delta_ry).is_some() {
            continue;
        }
        rows.rows.push(sigma_row(ctx, s, delta_ry, variant));
        if s + 1 < ctx.n_sigma() && should_yield(rows.rows.len()) {
            break;
        }
    }
    rows
}

/// Result of a full-frequency Sigma evaluation through the service path.
#[derive(Clone, Debug)]
pub struct FfEvalResult {
    /// Band indices evaluated.
    pub bands: Vec<usize>,
    /// Mean-field energies of those bands (Ry).
    pub sigma_energies: Vec<f64>,
    /// `sigma[s][e]` (complex, Ry) on the 3-point grids.
    pub sigma: Vec<Vec<Complex64>>,
    /// Kernel FLOPs.
    pub flops: u64,
}

/// Evaluates full-frequency Sigma diagonals for `ctx` against a
/// screening's quadrature blocks. Returns `None` when the screening was
/// built without [`FfSpec`].
pub fn ff_eval(
    s: &Screening,
    ctx: &SigmaContext,
    delta_ry: f64,
    eta_ry: f64,
) -> Option<FfEvalResult> {
    let (eps_ff, weights) = s.ff.as_ref()?;
    let _sp = bgw_trace::span!("serve.sigma.ff");
    let grids = three_point_grids(&ctx.sigma_energies, delta_ry);
    let r = ff_sigma_diag(ctx, eps_ff, weights, &grids, eta_ry);
    Some(FfEvalResult {
        bands: ctx.sigma_bands.clone(),
        sigma_energies: ctx.sigma_energies.clone(),
        sigma: r.sigma,
        flops: r.flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::run_gpp_gw;
    use bgw_pwdft::si_bulk;

    fn small_system() -> ModelSystem {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 24;
        sys
    }

    #[test]
    fn screening_checkpoint_roundtrip_preserves_matrices() {
        let sys = small_system();
        let cfg = GwConfig::default();
        let s = build_screening(&sys, &cfg, Some(FfSpec { n_quad: 6 })).expect("build");
        let ck = screening_to_checkpoint(&s);
        assert_eq!(ck.stage, GwStage::WScreening as u64);
        assert_eq!(ck.matrices.len(), 7);
        let back = screening_from_checkpoint(&sys, &cfg, &ck).expect("restore");
        assert_eq!(
            s.eps_inv.inv[0].as_slice(),
            back.eps_inv.inv[0].as_slice(),
            "static inverse must round-trip bitwise"
        );
        let (ff_a, w_a) = s.ff.as_ref().unwrap();
        let (ff_b, w_b) = back.ff.as_ref().unwrap();
        assert_eq!(ff_a.omegas, ff_b.omegas);
        assert_eq!(w_a, w_b);
        for (a, b) in ff_a.inv.iter().zip(&ff_b.inv) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(s.eps_macro, back.eps_macro);
    }

    #[test]
    fn restore_rejects_malformed_records() {
        let sys = small_system();
        let cfg = GwConfig::default();
        let s = build_screening(&sys, &cfg, None).expect("build");
        let good = screening_to_checkpoint(&s);
        assert!(screening_from_checkpoint(&sys, &cfg, &good).is_some());
        // Wrong stage.
        let mut bad = good.clone();
        bad.stage = GwStage::EpsilonDone as u64;
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
        // Shape mismatch (record for a different sphere).
        let mut bad = good.clone();
        bad.matrices[0] = bgw_linalg::CMatrix::zeros(3, 3);
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
        // Non-finite payload.
        let mut bad = good.clone();
        bad.matrices[0][(0, 0)] = bgw_num::c64(f64::NAN, 0.0);
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
        // Inconsistent meta.
        let mut bad = good.clone();
        bad.meta[0] = 5.0;
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
        // A frequency count no record could hold (`1 + 2 n_ff` overflows).
        let mut bad = good;
        bad.step = u64::MAX;
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
    }

    /// Stage 7 for `bands` out of a row set, as the serving loop runs it.
    fn solve(
        s: &Screening,
        ctx: &SigmaContext,
        bands: &[usize],
        rows: &SigmaRows,
        delta_ry: f64,
    ) -> GwResults {
        rows.assemble(ctx, bands, delta_ry, s.eps_macro)
            .expect("every row evaluated, window straddles the gap")
    }

    #[test]
    fn preemptible_eval_matches_oneshot_driver_exactly() {
        let sys = small_system();
        let cfg = GwConfig::default();
        let oracle = run_gpp_gw(&sys, &cfg);
        let s = build_screening(&sys, &cfg, None).expect("build");
        let ctx = sigma_context(&s, &oracle.sigma_bands);
        let delta = cfg.sampling_delta_ry;

        // Uninterrupted.
        let rows = gpp_eval_preemptible(&ctx, delta, cfg.variant, None, |_| false);
        assert_eq!(rows.rows.len(), ctx.n_sigma(), "must not yield");
        let done = solve(&s, &ctx, &ctx.sigma_bands, &rows, delta);
        assert_eq!(done.sigma_bands, oracle.sigma_bands);
        assert_eq!(done.sigma_flops, oracle.sigma_flops);
        for (a, b) in done.states.iter().zip(&oracle.states) {
            assert_eq!(
                a.e_qp.to_bits(),
                b.e_qp.to_bits(),
                "served {} vs oracle {}",
                a.e_qp,
                b.e_qp
            );
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(done.gap_qp_ry.to_bits(), oracle.gap_qp_ry.to_bits());
        assert_eq!(done.gap_mf_ry.to_bits(), oracle.gap_mf_ry.to_bits());

        // Yield after every row, round-tripping the rows through a
        // checkpoint record each time, and still match exactly.
        let mut rows = SigmaRows::default();
        let mut yields = 0;
        while rows.rows.len() < ctx.n_sigma() {
            rows = gpp_eval_preemptible(&ctx, delta, cfg.variant, Some(rows), |_| true);
            rows = SigmaRows::from_checkpoint(&rows.to_checkpoint(), ctx.n_sigma())
                .expect("partial roundtrip");
            yields += 1;
        }
        assert_eq!(yields, ctx.n_sigma(), "one row per resumption");
        let resumed = solve(&s, &ctx, &ctx.sigma_bands, &rows, delta);
        for (a, b) in resumed.states.iter().zip(&oracle.states) {
            assert_eq!(a.e_qp.to_bits(), b.e_qp.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn union_context_band_slices_match_per_request_contexts() {
        // Coalescing contract: a band evaluated through the union context
        // of a batch equals the same band through a request-sized context,
        // and a request's window assembles out of the union's row set.
        let sys = small_system();
        let cfg = GwConfig::default();
        let s = build_screening(&sys, &cfg, None).expect("build");
        let nv = s.wf.n_valence;
        let narrow: Vec<usize> = vec![nv - 1, nv];
        let wide: Vec<usize> = (nv - 2..nv + 2).collect();
        let delta = cfg.sampling_delta_ry;
        let ctx_n = sigma_context(&s, &narrow);
        let ctx_w = sigma_context(&s, &wide);
        let rows_n = gpp_eval_preemptible(&ctx_n, delta, cfg.variant, None, |_| false);
        let rows_w = gpp_eval_preemptible(&ctx_w, delta, cfg.variant, None, |_| false);
        let rn = solve(&s, &ctx_n, &narrow, &rows_n, delta);
        let from_union = solve(&s, &ctx_w, &narrow, &rows_w, delta);
        assert_eq!(from_union.sigma_bands, narrow);
        assert_eq!(from_union.sigma_flops, rn.sigma_flops);
        for (band, (a, b)) in narrow.iter().zip(rn.states.iter().zip(&from_union.states)) {
            assert_eq!(
                a.e_qp, b.e_qp,
                "band {band} differs between narrow and union contexts"
            );
        }
        assert_eq!(from_union.gap_qp_ry, rn.gap_qp_ry);
    }

    fn row(band: usize, delta_ry: f64) -> SigmaRow {
        SigmaRow {
            band,
            delta_ry,
            sigma: [1.0, 2.0, 3.0],
            flops: 42,
        }
    }

    #[test]
    fn partial_checkpoint_rejects_inconsistent_records() {
        let p = SigmaRows {
            rows: vec![row(7, 0.05), row(7, 0.1)],
        };
        let ck = p.to_checkpoint();
        assert_eq!(SigmaRows::from_checkpoint(&ck, 4).unwrap(), p);
        let reject = |bad: &Checkpoint, why: &str| {
            assert!(SigmaRows::from_checkpoint(bad, 4).is_err(), "{why}");
        };
        let mut bad = ck.clone();
        bad.step = 3;
        reject(&bad, "claims more rows than the meta holds");
        let mut bad = ck.clone();
        bad.meta[1] = 3.0;
        reject(&bad, "header row count disagrees with step");
        let mut bad = ck.clone();
        bad.meta[5] = f64::NAN;
        reject(&bad, "non-finite sample");
        let mut bad = ck.clone();
        bad.meta[2] = 7.5;
        reject(&bad, "fractional band index");
        let mut bad = ck.clone();
        bad.meta[4] = -1.0;
        reject(&bad, "negative FLOP count");
        let mut bad = ck.clone();
        bad.meta[9] = 0.05;
        reject(&bad, "the same (band, delta) twice");
        let mut bad = ck.clone();
        bad.meta[0] = 2.0;
        reject(&bad, "another grid width");
        let mut bad = ck.clone();
        bad.meta.pop();
        reject(&bad, "truncated table");
        let mut bad = ck.clone();
        bad.stage = GwStage::ChiPartial as u64;
        reject(&bad, "wrong stage");
        // A consistent record that does not fit the evaluation resuming
        // from it: more rows than it can need.
        assert!(SigmaRows::from_checkpoint(&ck, 1).is_err());
    }

    #[test]
    fn partial_decoder_rejects_both_former_layouts_and_hostile_counts() {
        // Former core layout: [n_grid, flops, rows band-major], step =
        // bands done.
        let former_core = Checkpoint {
            stage: GwStage::SigmaPartial as u64,
            step: 2,
            meta: vec![3.0, 84.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            matrices: vec![],
        };
        assert!(SigmaRows::from_checkpoint(&former_core, 64).is_err());
        // Former serve layout: [n, then per row: band, delta_milli, flops,
        // samples], step = n. With n = 3 its first value even equals
        // N_GRID; the length (1 + 6 n, never 2 + 6 n) gives it away.
        let mut meta = vec![3.0];
        for band in [3.0, 4.0, 5.0] {
            meta.extend([band, 50.0, 42.0, 1.0, 2.0, 3.0]);
        }
        let former_serve = Checkpoint {
            stage: GwStage::SigmaPartial as u64,
            step: 3,
            meta,
            matrices: vec![],
        };
        assert!(SigmaRows::from_checkpoint(&former_serve, 64).is_err());
        // Row counts no table can back: nothing may be sized from them.
        for (step, n_rows) in [(u64::MAX, f64::INFINITY), (u64::MAX, 1.8446744073709552e19)] {
            let hostile = Checkpoint {
                stage: GwStage::SigmaPartial as u64,
                step,
                meta: vec![3.0, n_rows],
                matrices: vec![],
            };
            assert!(SigmaRows::from_checkpoint(&hostile, usize::MAX).is_err());
        }
    }
}
