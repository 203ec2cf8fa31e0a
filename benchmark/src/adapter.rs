//! Every call into a `bgw-*` crate lives in this file. The workloads,
//! the timing loops, the statistics and the span recorder never name a
//! program type, so unifying the program's drivers (ROADMAP item 2)
//! costs a change here and nowhere else.
//!
//! Each public function below is either one operation a user waits for
//! (`gpp_solve`, `ff_solve`, `imag_solve`, `Daemon::submit` + `wait`),
//! its oracle, or the same operation replayed stage by stage through
//! the layers' public functions with a harness span around each call.

use crate::spans::Recorder;
use bgw_core::chi::{ChiConfig, ChiEngine, ChiTimings};
use bgw_core::service::{
    build_screening, gpp_eval_preemptible, screening_from_checkpoint, screening_to_checkpoint,
    sigma_context,
};
use bgw_core::spacetime::{run_imagaxis_gw, ChiBackend, SpaceTimeChi, SpaceTimeConfig};
use bgw_core::workflow::{run_gpp_gw, GwConfig};
use bgw_core::{
    ff_sigma_diag, ff_sigma_diag_subspace, ff_sigma_diag_subspace_serial, gpp_sigma_diag,
    imag_axis_sigma_diag, run_gpp_gw_dag, solve_qp_diag, Coulomb, EpsilonInverse, GppModel,
    KernelVariant, Mtxel, SigmaContext, Subspace,
};
use bgw_num::grid::semi_infinite_quadrature;
use bgw_num::{Complex64, MinimaxGrid, Xoshiro256StarStar};
use bgw_pwdft::{charge_density_g, lih_defect, solve_bands, GSphere, ModelSystem, Wavefunctions};
use bgw_serve::{
    zipf_stream, GwRequest, Payload, RequestKind, ServeConfig, Server, StructureSpec, Ticket,
    TrafficConfig,
};
use std::fmt::Write as _;
use std::path::Path;

// ---------------------------------------------------------------------
// Process-wide knobs and facts
// ---------------------------------------------------------------------

/// Environment variable naming the persisted GEMM autotune table.
pub const AUTOTUNE_PATH_ENV: &str = bgw_linalg::autotune::PATH_ENV;

/// Keeps the program's own `bgw-trace` spans off for the whole run.
pub fn program_tracing_off() {
    bgw_trace::set_enabled(false);
}

/// Sets the worker-pool width used by every later parallel region.
pub fn set_pool_width(n: usize) {
    bgw_par::set_num_threads(n);
}

/// The SIMD instruction set the kernels dispatch to on this host.
pub fn isa_name() -> &'static str {
    bgw_num::simd::effective().name()
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The program's perf counters the benchmark reads, copied out
        /// of `bgw_perf::counters` under the same names.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn snapshot() -> Self {
                let s = bgw_perf::counters::snapshot();
                Self { $($field: s.$field,)* }
            }

            /// Counts accumulated between `self` and `later`.
            pub fn delta_to(&self, later: &Self) -> Self {
                Self { $($field: later.$field.saturating_sub(self.$field),)* }
            }

            /// The nonzero counters as a JSON object.
            pub fn to_json(self) -> String {
                let mut out = String::from("{");
                $(
                    if self.$field != 0 {
                        if out.len() > 1 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "\"{}\": {}", stringify!($field), self.$field);
                    }
                )*
                out.push('}');
                out
            }
        }
    };
}

counters!(
    pool_dispatches,
    pool_dispatch_ns,
    pool_region_ns,
    pool_inline_runs,
    gemm_calls,
    gemm_pack_ns,
    gemm_compute_ns,
    fft_grids,
    fft_lines,
    fft_ns,
    ckpt_writes,
    ckpt_reads,
    ckpt_bytes,
    dag_steals,
    serve_completed,
    serve_hits_mem,
    serve_hits_disk,
    serve_misses,
    serve_coalesced,
    serve_mem_evicted,
    serve_gc_removed,
    serve_store_invalid,
);

/// Numbers a layer's public function reports about itself, collected
/// while a solve runs. Fields a workload does not touch stay zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Facts {
    /// `ChiTimings::t_mtxel`, summed over the chi builds of the solve.
    pub chi_mtxel_s: f64,
    /// `ChiTimings::t_chi0 + t_chifreq`, summed likewise.
    pub chi_sum_s: f64,
    /// Dielectric matrices inverted.
    pub n_inversions: usize,
    /// Counted FLOPs and kernel seconds of the GPP diag kernel.
    pub gpp_flops: u64,
    pub gpp_kernel_s: f64,
    /// Counted FLOPs and kernel seconds of the FF Sigma kernel.
    pub ff_flops: u64,
    pub ff_kernel_s: f64,
    /// `SpaceTimeReport` of the space-time chi build.
    pub st_green_s: f64,
    pub st_fft_s: f64,
    pub st_transform_s: f64,
    pub st_fit_residual: f64,
}

impl Facts {
    fn add_chi(&mut self, t: &ChiTimings) {
        self.chi_mtxel_s += t.t_mtxel;
        self.chi_sum_s += t.t_chi0 + t.t_chifreq;
    }
}

// ---------------------------------------------------------------------
// One-shot inputs: the LiH62 defect cell, rattled by the seed
// ---------------------------------------------------------------------

/// `(N_v, N_b, N_G, N_G^psi)` of a system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub n_v: usize,
    pub n_b: usize,
    pub n_g: usize,
    pub n_g_psi: usize,
}

/// A model system the one-shot workloads solve.
pub struct System(ModelSystem);

/// Largest displacement of one atom by the seeded rattle (bohr).
const RATTLE_BOHR: f64 = 0.02;

impl System {
    /// The LiH62 defect cell (`lih_defect(2, ecut)`), every atom
    /// displaced by a seeded vector of at most [`RATTLE_BOHR`]. The
    /// seed changes the numbers, never the shape. `eps_cutoff_ratio`
    /// is `ecut_eps / ecut_wfn`.
    pub fn lih62(seed: u64, ecut_wfn_ry: f64, eps_cutoff_ratio: f64) -> Self {
        let mut sys = lih_defect(2, ecut_wfn_ry);
        sys.ecut_eps_ry = ecut_wfn_ry * eps_cutoff_ratio;
        let pristine = shape_of(&sys);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let per_axis = RATTLE_BOHR / 3f64.sqrt();
        for i in 0..sys.crystal.n_atoms() {
            let d = [0; 3].map(|_| per_axis * (2.0 * rng.next_f64() - 1.0));
            sys.crystal = sys.crystal.with_displacement(i, d);
        }
        assert_eq!(shape_of(&sys), pristine, "the rattle changed the shape");
        Self(sys)
    }

    pub fn shape(&self) -> Shape {
        shape_of(&self.0)
    }
}

fn shape_of(sys: &ModelSystem) -> Shape {
    let n_g_psi = sys.wfn_sphere().len();
    Shape {
        n_v: sys.n_valence(),
        n_b: sys.n_bands.min(n_g_psi),
        n_g: sys.eps_sphere().len(),
        n_g_psi,
    }
}

/// Everything the staged drivers share once the mean field is solved.
struct MeanField {
    wfn_sph: GSphere,
    eps_sph: GSphere,
    wf: Wavefunctions,
    coulomb: Coulomb,
    volume: f64,
}

fn mean_field(sys: &ModelSystem) -> MeanField {
    let wfn_sph = sys.wfn_sphere();
    let eps_sph = sys.eps_sphere();
    let wf = solve_bands(&sys.crystal, &wfn_sph, sys.n_bands.min(wfn_sph.len()));
    let volume = sys.crystal.lattice.volume();
    MeanField {
        wfn_sph,
        eps_sph,
        wf,
        coulomb: Coulomb::bulk_for_cell(volume),
        volume,
    }
}

fn chi_config(coulomb: &Coulomb) -> ChiConfig {
    ChiConfig {
        q0: coulomb.q0,
        ..ChiConfig::default()
    }
}

/// `k` bands on each side of the gap, as the one-shot drivers pick them.
fn bands_around_gap(wf: &Wavefunctions, k: usize) -> Vec<usize> {
    let nv = wf.n_valence;
    (nv.saturating_sub(k)..(nv + k).min(wf.n_bands())).collect()
}

fn three_point_grids(ctx: &SigmaContext, delta_ry: f64) -> Vec<Vec<f64>> {
    ctx.sigma_energies
        .iter()
        .map(|&e| vec![e - delta_ry, e, e + delta_ry])
        .collect()
}

fn flatten(sigma: &[Vec<Complex64>]) -> Vec<f64> {
    sigma.iter().flatten().flat_map(|z| [z.re, z.im]).collect()
}

// ---------------------------------------------------------------------
// gpp_oneshot: the public driver, its oracle, the DAG driver, and the
// stage-by-stage replay
// ---------------------------------------------------------------------

/// Bands on each side of the gap that get a self-energy in `gpp_oneshot`.
const GPP_BANDS_AROUND_GAP: usize = 8;

fn gpp_config(variant: KernelVariant) -> GwConfig {
    GwConfig {
        bands_around_gap: GPP_BANDS_AROUND_GAP,
        variant,
        ..GwConfig::default()
    }
}

fn gpp_energies(sys: &System, variant: KernelVariant) -> Vec<f64> {
    let r = run_gpp_gw(&sys.0, &gpp_config(variant));
    r.states.iter().map(|s| s.e_qp).collect()
}

/// One G0W0(GPP) solve through `workflow::run_gpp_gw`, the entry point
/// users call. Returns the quasiparticle energies (Ry).
pub fn gpp_solve(sys: &System) -> Vec<f64> {
    gpp_energies(sys, KernelVariant::Optimized)
}

/// The same solve with the plain triple-loop Sigma kernel: the oracle.
pub fn gpp_oracle(sys: &System) -> Vec<f64> {
    gpp_energies(sys, KernelVariant::Reference)
}

/// The same solve through the task-DAG driver; returns the energies and
/// the scheduler's steal count.
pub fn gpp_solve_dag(sys: &System) -> Result<(Vec<f64>, u64), String> {
    let before = Counters::snapshot();
    let r =
        run_gpp_gw_dag(&sys.0, &gpp_config(KernelVariant::Optimized)).map_err(|e| e.to_string())?;
    let steals = before.delta_to(&Counters::snapshot()).dag_steals;
    Ok((r.results.states.iter().map(|s| s.e_qp).collect(), steals))
}

/// `run_gpp_gw` replayed through the public stage functions, one span
/// per stage under a `solve` span.
pub fn gpp_solve_staged(sys: &System, rec: &mut Recorder) -> (Vec<f64>, Facts) {
    let sys = &sys.0;
    let cfg = gpp_config(KernelVariant::Optimized);
    let mut facts = Facts::default();
    let e_qp = rec.span("solve", |rec| {
        let mf = rec.span("pwdft.solve_bands", |_| mean_field(sys));
        let mtxel = rec.span("core.mtxel.plan", |_| Mtxel::new(&mf.wfn_sph, &mf.eps_sph));
        let chi0 = rec.span("core.chi.static", |_| {
            let mut t = ChiTimings::default();
            let chi0 = ChiEngine::new(&mf.wf, &mtxel, chi_config(&mf.coulomb))
                .chi_freqs_subset(&[0.0], None, &mut t)
                .pop()
                .expect("one frequency asked, one matrix returned");
            facts.add_chi(&t);
            chi0
        });
        let eps_inv = rec.span("core.epsilon.build", |_| {
            EpsilonInverse::build(&[chi0], &[0.0], &mf.coulomb, &mf.eps_sph)
                .expect("the workload's dielectric matrix is invertible")
        });
        facts.n_inversions += eps_inv.n_freq();
        let gpp = rec.span("core.gpp.model", |_| {
            let rho = charge_density_g(&mf.wf, &mf.wfn_sph);
            GppModel::new(&eps_inv, &mf.eps_sph, &mf.wfn_sph, &rho, mf.volume)
        });
        let ctx = rec.span("core.sigma.context", |_| {
            let vsqrt = mf.coulomb.sqrt_on_sphere(&mf.eps_sph);
            let bands = bands_around_gap(&mf.wf, cfg.bands_around_gap);
            SigmaContext::build(&mf.wf, &mtxel, gpp, &vsqrt, &bands, mf.coulomb.q0)
        });
        let diag = rec.span("core.sigma.gpp_diag", |_| {
            let grids = three_point_grids(&ctx, cfg.sampling_delta_ry);
            gpp_sigma_diag(&ctx, &grids, cfg.variant)
        });
        facts.gpp_flops = diag.flops;
        facts.gpp_kernel_s = diag.seconds;
        rec.span("core.dyson.solve", |_| {
            solve_qp_diag(&ctx.sigma_energies, &diag)
                .iter()
                .map(|s| s.e_qp)
                .collect()
        })
    });
    (e_qp, facts)
}

// ---------------------------------------------------------------------
// ff_sigma: full-frequency Sigma in the static subspace, staged from
// precomputed wavefunctions
// ---------------------------------------------------------------------

const FF_N_QUAD: usize = 8;
const FF_QUAD_SCALE_RY: f64 = 2.0;
const FF_ETA_RY: f64 = 0.05;
const FF_DELTA_RY: f64 = 0.05;
/// `N_Sigma = 8`.
const FF_BANDS_AROUND_GAP: usize = 4;
/// `N_Eig = N_G / 5`, inside the paper's 10-20 % window.
const FF_SUBSPACE_DIVISOR: usize = 5;

/// The mean field of an `ff_sigma` solve: input, as WFN is to
/// Epsilon/Sigma in the paper.
pub struct FfInputs(MeanField);

pub fn ff_inputs(sys: &System) -> FfInputs {
    FfInputs(mean_field(&sys.0))
}

/// chi(0) -> subspace -> chi(omega) -> 9 inversions -> Sigma context ->
/// FF Sigma contracted in the subspace. Returns Sigma (re, im pairs)
/// and, when `with_oracle` is set, the retained scalar kernel's Sigma on
/// the same context and screening.
pub fn ff_solve(
    inp: &FfInputs,
    with_oracle: bool,
    rec: &mut Recorder,
) -> (Vec<f64>, Option<Vec<f64>>, Facts) {
    let mf = &inp.0;
    let mut facts = Facts::default();
    let (sigma, oracle) = rec.span("solve", |rec| {
        let mtxel = rec.span("core.mtxel.plan", |_| Mtxel::new(&mf.wfn_sph, &mf.eps_sph));
        let vsqrt = mf.coulomb.sqrt_on_sphere(&mf.eps_sph);
        let (engine, chi0) = rec.span("core.chi.static", |_| {
            let mut t = ChiTimings::default();
            let engine = ChiEngine::new(&mf.wf, &mtxel, chi_config(&mf.coulomb));
            let chi0 = engine
                .chi_freqs_subset(&[0.0], None, &mut t)
                .pop()
                .expect("one frequency asked, one matrix returned");
            facts.add_chi(&t);
            (engine, chi0)
        });
        let sub = rec.span("core.subspace.diag", |_| {
            Subspace::from_chi0(&chi0, &vsqrt, mf.eps_sph.len() / FF_SUBSPACE_DIVISOR)
        });
        let (nodes, weights) = semi_infinite_quadrature(FF_N_QUAD, FF_QUAD_SCALE_RY);
        let chis = rec.span("core.chi.freqs", |_| {
            let (chis, t) = engine.chi_freqs(&nodes);
            facts.add_chi(&t);
            chis
        });
        let (eps_inv, eps_ff) = rec.span("core.epsilon.build", |_| {
            let invertible = "the workload's dielectric matrices are invertible";
            (
                EpsilonInverse::build(&[chi0], &[0.0], &mf.coulomb, &mf.eps_sph).expect(invertible),
                EpsilonInverse::build(&chis, &nodes, &mf.coulomb, &mf.eps_sph).expect(invertible),
            )
        });
        facts.n_inversions += eps_inv.n_freq() + eps_ff.n_freq();
        let gpp = rec.span("core.gpp.model", |_| {
            let rho = charge_density_g(&mf.wf, &mf.wfn_sph);
            GppModel::new(&eps_inv, &mf.eps_sph, &mf.wfn_sph, &rho, mf.volume)
        });
        let ctx = rec.span("core.sigma.context", |_| {
            let bands = bands_around_gap(&mf.wf, FF_BANDS_AROUND_GAP);
            SigmaContext::build(&mf.wf, &mtxel, gpp, &vsqrt, &bands, mf.coulomb.q0)
        });
        let grids = three_point_grids(&ctx, FF_DELTA_RY);
        let r = rec.span("core.sigma.ff", |_| {
            ff_sigma_diag_subspace(&ctx, &eps_ff, &weights, &grids, FF_ETA_RY, &sub)
        });
        facts.ff_flops = r.flops;
        facts.ff_kernel_s = r.seconds;
        let oracle = with_oracle.then(|| {
            let r = ff_sigma_diag_subspace_serial(&ctx, &eps_ff, &weights, &grids, FF_ETA_RY, &sub);
            flatten(&r.sigma)
        });
        (flatten(&r.sigma), oracle)
    });
    (sigma, oracle, facts)
}

// ---------------------------------------------------------------------
// imag_spacetime: imaginary-axis GW on the cubic space-time chi
// ---------------------------------------------------------------------

const IMAG_N_QUAD: usize = 16;
const IMAG_PADE_SAMPLES: usize = 16;
/// The quadrature scale `run_imagaxis_gw` fixes internally; the staged
/// replay has to use the same one.
const IMAG_QUAD_SCALE_RY: f64 = 1.5;
/// `N_Sigma = 8`.
const IMAG_BANDS_AROUND_GAP: usize = 4;

/// Wavefunctions, matrix-element plan and Sigma context of an
/// `imag_spacetime` solve, all precomputed: the solve starts at chi.
pub struct ImagInputs {
    mf: MeanField,
    mtxel: Mtxel,
    ctx: SigmaContext,
    grids: Vec<Vec<f64>>,
}

pub fn imag_inputs(sys: &System) -> ImagInputs {
    let mf = mean_field(&sys.0);
    let mtxel = Mtxel::new(&mf.wfn_sph, &mf.eps_sph);
    let chi0 = ChiEngine::new(&mf.wf, &mtxel, chi_config(&mf.coulomb)).chi_static();
    let eps_inv = EpsilonInverse::build(&[chi0], &[0.0], &mf.coulomb, &mf.eps_sph)
        .expect("the workload's dielectric matrix is invertible");
    let rho = charge_density_g(&mf.wf, &mf.wfn_sph);
    let gpp = GppModel::new(&eps_inv, &mf.eps_sph, &mf.wfn_sph, &rho, mf.volume);
    let vsqrt = mf.coulomb.sqrt_on_sphere(&mf.eps_sph);
    let bands = bands_around_gap(&mf.wf, IMAG_BANDS_AROUND_GAP);
    let ctx = SigmaContext::build(&mf.wf, &mtxel, gpp, &vsqrt, &bands, mf.coulomb.q0);
    let grids = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    ImagInputs {
        mf,
        mtxel,
        ctx,
        grids,
    }
}

fn spacetime_config(mf: &MeanField) -> SpaceTimeConfig {
    SpaceTimeConfig {
        q0: mf.coulomb.q0,
        ..SpaceTimeConfig::default()
    }
}

/// One `spacetime::run_imagaxis_gw` solve. `dense` selects the quartic
/// band-sum chi (the oracle) over the space-time one. Returns the raw
/// Sigma^c(i w) samples (re, im pairs).
pub fn imag_solve(inp: &ImagInputs, dense: bool) -> Result<(Vec<f64>, Facts), String> {
    let mf = &inp.mf;
    let backend = if dense {
        ChiBackend::Dense(chi_config(&mf.coulomb))
    } else {
        ChiBackend::SpaceTime(spacetime_config(mf))
    };
    let r = run_imagaxis_gw(
        &inp.ctx,
        &mf.wf,
        &inp.mtxel,
        &mf.wfn_sph,
        &mf.eps_sph,
        &mf.coulomb,
        &backend,
        &inp.grids,
        IMAG_N_QUAD,
        IMAG_PADE_SAMPLES,
    )
    .map_err(|e| e.to_string())?;
    let facts = Facts {
        st_fit_residual: r.report.map_or(0.0, |rep| rep.fit_residual),
        ..Facts::default()
    };
    Ok((flatten(&r.sigma.sigma_iw), facts))
}

/// `run_imagaxis_gw` on the space-time backend replayed through the
/// public stage functions.
pub fn imag_solve_staged(
    inp: &ImagInputs,
    rec: &mut Recorder,
) -> Result<(Vec<f64>, Facts), String> {
    let mf = &inp.mf;
    let mut facts = Facts::default();
    let sigma = rec.span("solve", |rec| -> Result<Vec<f64>, String> {
        let (nodes, weights) = semi_infinite_quadrature(IMAG_N_QUAD, IMAG_QUAD_SCALE_RY);
        let st = rec
            .span("core.spacetime.engine", |_| {
                SpaceTimeChi::new(
                    &mf.wf,
                    &inp.mtxel,
                    &mf.wfn_sph,
                    &mf.eps_sph,
                    spacetime_config(mf),
                )
            })
            .map_err(|e| e.to_string())?;
        let (chis, rep) = rec
            .span("core.spacetime.chi", |_| st.chi_imag_freqs(&nodes))
            .map_err(|e| e.to_string())?;
        facts.st_green_s = rep.t_green;
        facts.st_fft_s = rep.t_fft;
        facts.st_transform_s = rep.t_transform;
        facts.st_fit_residual = rep.fit_residual;
        let eps = rec
            .span("core.epsilon.build", |_| {
                EpsilonInverse::build(&chis, &nodes, &mf.coulomb, &mf.eps_sph)
            })
            .map_err(|e| e.to_string())?;
        facts.n_inversions += eps.n_freq();
        let r = rec
            .span("core.sigma.imagaxis", |_| {
                imag_axis_sigma_diag(&inp.ctx, &eps, &weights, &inp.grids, IMAG_PADE_SAMPLES)
            })
            .map_err(|e| e.to_string())?;
        Ok(flatten(&r.sigma_iw))
    })?;
    Ok((sigma, facts))
}

/// Isolated calls for the space-time layer's table rows: the minimax
/// fit on its own (span `core.spacetime.fit`), and the relative error
/// of the space-time chi against the dense band sum.
pub fn imag_chi_probe(inp: &ImagInputs, rec: &mut Recorder) -> Result<f64, String> {
    let mf = &inp.mf;
    let (nodes, _) = semi_infinite_quadrature(IMAG_N_QUAD, IMAG_QUAD_SCALE_RY);
    let cfg = spacetime_config(mf);
    let st = SpaceTimeChi::new(&mf.wf, &inp.mtxel, &mf.wfn_sph, &mf.eps_sph, cfg.clone())
        .map_err(|e| e.to_string())?;
    rec.span("core.spacetime.fit", |_| {
        MinimaxGrid::build_with(cfg.n_tau, &nodes, st.e_min, st.e_max, &cfg.fit)
    });
    let (chis, _) = st.chi_imag_freqs(&nodes).map_err(|e| e.to_string())?;
    let mut t = ChiTimings::default();
    let dense =
        ChiEngine::new(&mf.wf, &inp.mtxel, chi_config(&mf.coulomb)).chi_imag_freqs(&nodes, &mut t);
    Ok(chis
        .iter()
        .zip(&dense)
        .map(|(a, b)| a.max_abs_diff(b) / b.max_abs().max(1e-300))
        .fold(0.0, f64::max))
}

// ---------------------------------------------------------------------
// Serve workloads: request streams, oracles, the daemon
// ---------------------------------------------------------------------

/// One request to the daemon.
#[derive(Clone, Copy)]
pub struct Request(GwRequest);

impl Request {
    /// Requests with equal keys must get equal answers.
    pub fn key(&self) -> u64 {
        self.0.request_key().0
    }

    /// A plasmon-pole request, as opposed to a full-frequency one.
    pub fn is_gpp(&self) -> bool {
        matches!(self.0.kind, RequestKind::GppDiag { .. })
    }
}

/// The traffic mix is drawn once, from this seed; a run's `--seed` only
/// reorders it. Every seed then carries the same requests (the same
/// share of full-frequency ones, of each structure), so run-to-run
/// differences are the host's and the cache ladder's, not the draw's.
const MIX_SEED: u64 = 2024;

fn reordered(cfg: &TrafficConfig, seed: u64) -> Vec<Request> {
    let mut stream: Vec<Request> = zipf_stream(cfg).into_iter().map(Request).collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.next_below(i + 1));
    }
    stream
}

/// `serve_zipf`: the stock three-structure catalog, zipf-skewed.
pub fn zipf_requests(seed: u64, n: usize) -> Vec<Request> {
    reordered(&TrafficConfig::small(MIX_SEED, n), seed)
}

fn churn_catalog() -> Vec<StructureSpec> {
    let mut structures = Vec::new();
    for step in 0..4u32 {
        let d = 10 * step;
        structures.push(StructureSpec::SiBulk {
            m: 1,
            ecut_centi_ry: 220 + d,
            n_bands: 24,
        });
        structures.push(StructureSpec::SiDivacancy {
            m: 1,
            ecut_centi_ry: 200 + d,
            n_bands: 24,
        });
        structures.push(StructureSpec::LihDefect {
            m: 1,
            ecut_centi_ry: 240 + d,
            n_bands: 20,
        });
    }
    structures
}

/// `serve_churn`: the three stock families at four cutoffs each, drawn
/// uniformly, so the working set is twelve structures.
pub fn churn_requests(seed: u64, n: usize) -> Vec<Request> {
    let cfg = TrafficConfig {
        zipf_exponent: 0.0,
        structures: churn_catalog(),
        ..TrafficConfig::small(MIX_SEED, n)
    };
    reordered(&cfg, seed)
}

/// What a request must answer, from the one-shot drivers.
pub enum Oracle {
    Gpp(Vec<f64>),
    Ff(Vec<f64>),
}

/// The one-shot answer for a request: `run_gpp_gw`, or the direct
/// full-frequency pipeline with no service layer in it.
pub fn oracle_for(req: &Request) -> Oracle {
    let req = &req.0;
    let sys = req.structure.system();
    let RequestKind::FullFreq { n_quad, .. } = req.kind else {
        let r = run_gpp_gw(&sys, &req.gw_config());
        return Oracle::Gpp(r.states.iter().map(|s| s.e_qp).collect());
    };
    let mf = mean_field(&sys);
    let mtxel = Mtxel::new(&mf.wfn_sph, &mf.eps_sph);
    let engine = ChiEngine::new(&mf.wf, &mtxel, chi_config(&mf.coulomb));
    let invertible = "the catalog's dielectric matrices are invertible";
    let eps_inv = EpsilonInverse::build(&[engine.chi_static()], &[0.0], &mf.coulomb, &mf.eps_sph)
        .expect(invertible);
    let (nodes, weights) = semi_infinite_quadrature(n_quad, 2.0);
    let (chis, _) = engine.chi_freqs(&nodes);
    let eps_ff = EpsilonInverse::build(&chis, &nodes, &mf.coulomb, &mf.eps_sph).expect(invertible);
    let rho = charge_density_g(&mf.wf, &mf.wfn_sph);
    let gpp = GppModel::new(&eps_inv, &mf.eps_sph, &mf.wfn_sph, &rho, mf.volume);
    let vsqrt = mf.coulomb.sqrt_on_sphere(&mf.eps_sph);
    let bands = req.bands(mf.wf.n_valence, mf.wf.n_bands());
    let ctx = SigmaContext::build(&mf.wf, &mtxel, gpp, &vsqrt, &bands, mf.coulomb.q0);
    let grids = three_point_grids(&ctx, req.delta_ry());
    Oracle::Ff(flatten(
        &ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, req.eta_ry()).sigma,
    ))
}

/// One reply, reduced to what the harness checks and tabulates.
pub struct Reply {
    /// Largest deviation from the oracle; infinite on a payload of the
    /// wrong kind or length.
    pub oracle_err: f64,
    pub batch_size: usize,
    pub queue_s: f64,
    pub compute_s: f64,
}

/// Largest element-wise distance; infinite when the lengths differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(
            0.0,
            |m, d| if d.is_nan() { f64::INFINITY } else { m.max(d) },
        )
}

/// A submitted request.
pub struct Pending(Ticket);

impl Pending {
    /// Blocks until the daemon replies; `Err` carries its typed error.
    pub fn wait(self, oracle: &Oracle) -> Result<Reply, String> {
        let ok = self.0.wait().map_err(|e| e.to_string())?;
        let oracle_err = match (&ok.payload, oracle) {
            (Payload::Gpp(p), Oracle::Gpp(e_qp)) => max_abs_diff(&p.e_qp, e_qp),
            (Payload::FullFreq(p), Oracle::Ff(sigma)) => max_abs_diff(&flatten(&p.sigma), sigma),
            _ => f64::INFINITY,
        };
        let t = &ok.telemetry;
        Ok(Reply {
            oracle_err,
            batch_size: t.batch_size,
            queue_s: t.queue_seconds,
            compute_s: t.compute_seconds,
        })
    }
}

/// Cache budgets of a daemon; `None` keeps the program's default.
#[derive(Clone, Copy, Default)]
pub struct Budgets {
    pub mem_bytes: Option<u64>,
    pub store_bytes: Option<u64>,
}

/// The resident daemon: one dispatcher shard over a store directory.
pub struct Daemon(Server);

impl Daemon {
    pub fn start(store_dir: &Path, budgets: Budgets) -> Self {
        let mut cfg = ServeConfig::new(store_dir);
        if let Some(b) = budgets.mem_bytes {
            cfg.mem_budget_bytes = b;
        }
        if let Some(b) = budgets.store_bytes {
            cfg.store_budget_bytes = b;
        }
        Self(Server::start(cfg))
    }

    pub fn submit(&self, req: &Request) -> Pending {
        Pending(self.0.submit(req.0))
    }

    /// Stops the dispatcher after it drains; returns the bytes the
    /// store holds on disk, or an error if work was left queued.
    pub fn shutdown(self) -> Result<u64, String> {
        let cores = self.0.shutdown();
        if !cores.iter().all(|c| c.is_idle()) {
            return Err("the daemon shut down with requests still queued".into());
        }
        Ok(cores.first().map_or(0, |c| c.store().disk_bytes()))
    }
}

/// Isolated calls on one request's structure for the `core.service` and
/// `io` table rows: build the screening, write it as a checkpoint, read
/// it back, restore it, evaluate the request's GPP Sigma against it.
/// Returns the checkpoint's payload bytes.
pub fn service_probe(req: &Request, scratch: &Path, rec: &mut Recorder) -> Result<u64, String> {
    let req = &req.0;
    let sys = req.structure.system();
    let cfg = req.gw_config();
    let screening = rec
        .span("core.service.build_screening", |_| {
            build_screening(&sys, &cfg, req.ff_spec())
        })
        .map_err(|e| e.to_string())?;
    let ck = screening_to_checkpoint(&screening);
    let path = scratch.join("probe.bgwr");
    let bytes = rec
        .span("io.ckpt_write", |_| {
            bgw_io::write_checkpoint_file(&path, &ck)
        })
        .map_err(|e| e.to_string())?;
    let back = rec
        .span("io.ckpt_read", |_| bgw_io::read_checkpoint_file(&path))
        .map_err(|e| e.to_string())?;
    let restored = rec
        .span("core.service.restore", |_| {
            screening_from_checkpoint(&sys, &cfg, &back)
        })
        .ok_or("the checkpoint just written did not restore")?;
    rec.span("core.service.gpp_eval", |_| {
        let bands = req.bands(restored.wf.n_valence, restored.wf.n_bands());
        let ctx = sigma_context(&restored, &bands);
        gpp_eval_preemptible(&ctx, req.delta_ry(), cfg.variant, None, |_| false)
    });
    Ok(bytes)
}
