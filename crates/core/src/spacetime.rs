//! Space-time chi0: the cubic-scaling polarizability in imaginary time.
//!
//! The dense CHI_SUM path (`crate::chi`) pays `O(N_v N_c N_G^2)` per
//! frequency — the quartic band double-sum. Following Liu et al. ("Cubic
//! scaling GW", arXiv:1607.02859) and Wilhelm et al. (arXiv:2104.09857),
//! this module instead builds the polarizability in *imaginary time* as a
//! real-space product of Green's functions,
//!
//! `chi0(r, r'; i tau) = -2 G_occ(r, r'; i tau) G_emp(r', r; i tau)`,
//!
//! where (with `mu` mid-gap and `e~ = e - mu`)
//!
//! `G_occ(r, r') = sum_v psi_v(r) psi_v^*(r') e^{ e~_v tau }`,
//! `G_emp(r', r) = sum_c psi_c^*(r) psi_c(r') e^{ -e~_c tau }`,
//!
//! and transforms back to the plane-wave basis with two staged batched
//! FFTs and to imaginary frequency with the fitted cosine weights of
//! [`bgw_num::minimax`]. Per tau node the cost is `O(N_b N_r^2)` (the
//! Green's-function GEMMs) plus `O(N_r log N_r)` FFTs — cubic in system
//! size, against the dense path's quartic sum. Each v,c pair contributes
//! `e^{-(e_c - e_v) tau}`, whose cosine image is exactly the dense
//! imaginary-axis denominator `2 de / (de^2 + u^2)` (see
//! [`crate::chi::delta_vc_imag`]), so the transformed chi agrees with the
//! dense oracle to the minimax fit residual — which is how the tests and
//! the `--spacetime` CI stage gate it.
//!
//! The `q -> 0` head and wings are not FFT-representable (they need the
//! k.p matrix elements), so row/column `G = 0` are rebuilt explicitly at
//! every tau from the same `head_kp` elements the dense path uses.

use crate::chi::{ChiConfig, ChiEngine, ChiTimings};
use crate::coulomb::Coulomb;
use crate::epsilon::EpsilonInverse;
use crate::error::GwError;
use crate::mtxel::Mtxel;
use crate::sigma::imagaxis::{imag_axis_sigma_diag, SigmaImagAxisResult};
use crate::sigma::SigmaContext;
use bgw_fft::{Direction, Fft3d};
use bgw_linalg::{matmul, zgemm_flops, CMatrix, Op};
use bgw_num::grid::semi_infinite_quadrature;
use bgw_num::minimax::{FitOptions, MinimaxGrid};
use bgw_num::{c64, Complex64};
use bgw_par::{Flops, SendPtr};
use bgw_pwdft::{GSphere, Wavefunctions};
use std::time::Instant;

/// Why a space-time chi0 build cannot proceed (or went numerically bad).
#[derive(Clone, Debug, PartialEq)]
pub enum SpaceTimeError {
    /// The system has no gap: `e^{-(e_c - e_v) tau}` does not decay, so
    /// no imaginary-time grid can represent the transitions. (The dense
    /// path handles metals; space-time GW needs a spectral gap.)
    Gapless {
        /// The (non-positive) HOMO-LUMO gap found, in Ry.
        gap: f64,
    },
    /// A non-finite value appeared in the per-tau polarizability.
    NonFinite {
        /// Which stage produced it.
        stage: &'static str,
        /// The imaginary-time node being processed.
        tau: f64,
    },
}

impl std::fmt::Display for SpaceTimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Gapless { gap } => write!(
                f,
                "space-time chi0 needs a gapped system (HOMO-LUMO gap = {gap:.3e} Ry <= 0)"
            ),
            Self::NonFinite { stage, tau } => {
                write!(
                    f,
                    "non-finite value in space-time {stage} at tau = {tau:.3e}"
                )
            }
        }
    }
}

impl std::error::Error for SpaceTimeError {}

/// Configuration for the space-time polarizability build.
#[derive(Clone, Debug)]
pub struct SpaceTimeConfig {
    /// Number of imaginary-time nodes (the minimax grid size). 10-16
    /// reaches fit residuals of 1e-5..1e-7 for typical gap ratios.
    pub n_tau: usize,
    /// Rows of `r` processed per Green's-function GEMM + FFT batch, the
    /// unit of parallel work (bounds peak memory at two `row_batch * N_r`
    /// amplitude buffers per pool participant).
    pub row_batch: usize,
    /// Momentum magnitude (bohr^-1) for the k.p head, as in
    /// [`ChiConfig::q0`]; use the Coulomb `q0`. `0` disables the head.
    pub q0: f64,
    /// Minimax fit options (tests shrink `optimize_passes` for speed).
    pub fit: FitOptions,
}

impl Default for SpaceTimeConfig {
    fn default() -> Self {
        Self {
            n_tau: 12,
            row_batch: 64,
            q0: 0.2,
            fit: FitOptions::default(),
        }
    }
}

/// Which polarizability algorithm feeds the imaginary-axis pipeline.
#[derive(Clone, Debug)]
pub enum ChiBackend {
    /// The quartic dense band double-sum (`crate::chi`) — exact on the
    /// imaginary axis, the oracle the space-time path is validated
    /// against.
    Dense(ChiConfig),
    /// The cubic space-time path of this module (exact up to the minimax
    /// fit residual, reported per build).
    SpaceTime(SpaceTimeConfig),
}

/// Work/accuracy breakdown of one space-time chi0 build.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpaceTimeReport {
    /// Imaginary-time nodes used.
    pub n_tau: usize,
    /// Real-space grid points `N_r` of the FFT box.
    pub npts: usize,
    /// Output G-vectors `N_G`.
    pub n_g: usize,
    /// Sup-norm relative residual of the fitted tau -> omega cosine
    /// transform: the tolerance cross-validation should gate on.
    pub fit_residual: f64,
    /// Busy seconds in the Green's-function GEMMs, summed over the row
    /// batches wherever they ran: at pool width `W > 1` this can reach
    /// `W` times the wall it took.
    pub t_green: f64,
    /// Seconds in the staged FFTs (both passes plus gathers): stage 1 is
    /// busy seconds summed over the row batches like `t_green`, stage 2
    /// is the wall of its one batched transform.
    pub t_fft: f64,
    /// Seconds in the time -> frequency accumulation.
    pub t_transform: f64,
}

/// The space-time polarizability engine.
///
/// Holds the real-space band amplitudes (both manifolds, FFT'd once), the
/// mid-gap-referenced energies, the k.p head elements, and its own FFT
/// plan with gather tables for both `+G` and `-G` (the two staged
/// transforms need opposite sign conventions).
pub struct SpaceTimeChi {
    plan: Fft3d,
    npts: usize,
    /// Box position of `-G` per output G (stage 1: transform over `r'`).
    gather_minus: Vec<usize>,
    /// Box position of `+G` per output G (stage 2: transform over `r`).
    gather_plus: Vec<usize>,
    /// Occupied amplitudes, `occ_mat[(v, r)] = psi_v(r)` (`N_v x N_r`).
    occ_mat: CMatrix,
    /// Empty amplitudes, `emp_mat[(c, r)] = psi_c(r)` (`N_c x N_r`).
    emp_mat: CMatrix,
    /// `e_v - mu` (negative), `mu` mid-gap.
    e_occ: Vec<f64>,
    /// `e_c - mu` (positive).
    e_emp: Vec<f64>,
    /// k.p head elements `h[(v, c)]` matching the dense panel's `G = 0`.
    h_vc: CMatrix,
    /// Smallest transition energy (the gap, Ry).
    pub e_min: f64,
    /// Largest transition energy (Ry).
    pub e_max: f64,
    cfg: SpaceTimeConfig,
}

impl SpaceTimeChi {
    /// Builds the engine: FFTs every band to real space once and
    /// prepares the gather tables. `mtxel` must have been built from the
    /// same `(wfn_sph, out_sph)` pair. Fails with
    /// [`SpaceTimeError::Gapless`] when the system has no spectral gap.
    pub fn new(
        wf: &Wavefunctions,
        mtxel: &Mtxel,
        wfn_sph: &GSphere,
        out_sph: &GSphere,
        cfg: SpaceTimeConfig,
    ) -> Result<Self, SpaceTimeError> {
        let nv = wf.n_valence;
        let nc = wf.n_conduction();
        assert!(nv > 0 && nc > 0, "need both occupied and empty bands");
        let ev_max = wf.energies[..nv].iter().cloned().fold(f64::MIN, f64::max);
        let ec_min = wf.energies[nv..].iter().cloned().fold(f64::MAX, f64::min);
        let gap = ec_min - ev_max;
        if gap <= 1e-12 {
            return Err(SpaceTimeError::Gapless { gap });
        }
        let mu = 0.5 * (ev_max + ec_min);
        let e_occ: Vec<f64> = wf.energies[..nv].iter().map(|e| e - mu).collect();
        let e_emp: Vec<f64> = wf.energies[nv..].iter().map(|e| e - mu).collect();
        let ev_min = wf.energies[..nv].iter().cloned().fold(f64::MAX, f64::min);
        let ec_max = wf.energies[nv..].iter().cloned().fold(f64::MIN, f64::max);

        // Same alias-free box rule as Mtxel: the pair densities the staged
        // transforms resolve have support `2 m_psi`, read out to `m_out`.
        let max_m = |sph: &GSphere, axis: usize| {
            sph.miller
                .iter()
                .map(|m| m[axis].unsigned_abs() as usize)
                .max()
                .unwrap_or(0)
        };
        let dim =
            |axis: usize| bgw_fft::good_size(2 * max_m(wfn_sph, axis) + max_m(out_sph, axis) + 1);
        let (nx, ny, nz) = (dim(0), dim(1), dim(2));
        let plan = Fft3d::new(nx, ny, nz);
        let npts = plan.len();
        let wrap = |v: i32, n: usize| -> usize {
            let n = n as i32;
            (((v % n) + n) % n) as usize
        };
        let pos = |m: [i32; 3]| (wrap(m[0], nx) * ny + wrap(m[1], ny)) * nz + wrap(m[2], nz);
        let gather_minus: Vec<usize> = out_sph
            .miller
            .iter()
            .map(|&m| pos([-m[0], -m[1], -m[2]]))
            .collect();
        let gather_plus: Vec<usize> = out_sph.miller.iter().map(|&m| pos(m)).collect();

        let occ_bands: Vec<usize> = (0..nv).collect();
        let emp_bands: Vec<usize> = (nv..nv + nc).collect();
        let occ_real = mtxel.to_real_space_many(wf, &occ_bands);
        let emp_real = mtxel.to_real_space_many(wf, &emp_bands);
        assert_eq!(
            occ_real[0].len(),
            npts,
            "mtxel was built over different spheres than the space-time engine"
        );
        let pack = |rows: Vec<Vec<Complex64>>, n: usize| {
            let mut m = CMatrix::zeros(n, npts);
            for (i, row) in rows.into_iter().enumerate() {
                m.row_mut(i).copy_from_slice(&row);
            }
            m
        };
        let occ_mat = pack(occ_real, nv);
        let emp_mat = pack(emp_real, nc);
        let h_vc = CMatrix::from_fn(nv, nc, |v, c| mtxel.head_kp(wf, v, nv + c, cfg.q0));

        Ok(Self {
            plan,
            npts,
            gather_minus,
            gather_plus,
            occ_mat,
            emp_mat,
            e_occ,
            e_emp,
            h_vc,
            e_min: gap,
            e_max: ec_max - ev_min,
            cfg,
        })
    }

    /// Number of output G-vectors.
    pub fn n_g(&self) -> usize {
        self.gather_minus.len()
    }

    /// Real-space grid points of the FFT box.
    pub fn npts(&self) -> usize {
        self.npts
    }

    /// Band amplitudes scaled by half the imaginary-time exponent, so the
    /// Green's function is a single `A^dagger A` product: row `b` holds
    /// `psi_b(r) e^{ sign * e~_b * tau / 2 }`.
    fn half_exp(&self, mat: &CMatrix, energies: &[f64], tau: f64, sign: f64) -> CMatrix {
        let (nb, npts) = mat.shape();
        let mut out = CMatrix::zeros(nb, npts);
        for (b, e) in energies.iter().enumerate().take(nb) {
            let w = (0.5 * sign * e * tau).exp();
            for (dst, src) in out.row_mut(b).iter_mut().zip(mat.row(b)) {
                *dst = src.scale(w);
            }
        }
        out
    }

    /// The polarizability at one imaginary-time node, on the output
    /// sphere: `chi[(G, G')] = -2 sum_vc M_vc^{G*} M_vc^{G'}
    /// e^{-(e_c - e_v) tau}`, built without ever forming the `N_v N_c`
    /// pair set. Row/column `G = 0` carry the k.p head/wings.
    pub fn chi_tau(&self, tau: f64, report: &mut SpaceTimeReport) -> CMatrix {
        let ng = self.n_g();
        let npts = self.npts;
        let n_bands = self.e_occ.len() + self.e_emp.len();
        let inv_n2 = 1.0 / (npts as f64 * npts as f64);

        let t0 = Instant::now();
        let a = self.half_exp(&self.occ_mat, &self.e_occ, tau, 1.0);
        let b = self.half_exp(&self.emp_mat, &self.e_emp, tau, -1.0);
        report.t_green += t0.elapsed().as_secs_f64();

        // Stage 1: for each r, transform chi0(r, .) over r' and gather at
        // -G' (the e^{+i G'.r'} component). Batched over `row_batch` rows
        // of r so the Green's functions never materialize fully, and a
        // batch is the unit of parallel work: its GEMMs have one row
        // panel (nothing for the pool to split) and run, like its FFTs,
        // inline on whichever participant drew it. Each batch writes its
        // own rows of `t1` and nothing else, so the arithmetic — and the
        // bits — are those of the serial batch loop at every pool width.
        let mut t1 = CMatrix::zeros(npts, ng);
        let batch = self.cfg.row_batch.max(1);
        let batch_cost =
            Flops(zgemm_flops(batch, n_bands, npts) + batch as u64 * self.plan.flops());
        let t1_rows = SendPtr::new(t1.as_mut_slice().as_mut_ptr());
        let (green_s, fft_s) = bgw_par::parallel_reduce(
            npts.div_ceil(batch),
            1,
            batch_cost,
            || (0.0f64, 0.0f64),
            |busy, lo, hi| {
                // Chunks of one: `[lo, hi)` is a single batch of rows.
                let (r0, r1) = (lo * batch, (hi * batch).min(npts));
                let tg = Instant::now();
                // Rows r0..r1 of `amps^dagger amps`, the `(r0+i, r')`
                // block of a Green's function.
                let green_rows = |amps: &CMatrix| {
                    let sub = amps.submatrix(0, amps.nrows(), r0, r1);
                    matmul(&sub, Op::Adj, amps, Op::None)
                };
                // pair[(i, r')] = sum_v conj(A[(v, r0+i)]) A[(v, r')]
                //               = conj(G_occ(r0+i, r'))
                let mut pair = green_rows(&a);
                // emp_rows[(i, r')] = sum_c conj(B[(c, r0+i)]) B[(c, r')]
                //                   = G_emp(r', r0+i)
                let emp_rows = green_rows(&b);
                busy.0 += tg.elapsed().as_secs_f64();

                // The pair product overwrites the occupied rows: two
                // `batch x N_r` buffers per participant, not three.
                let tf = Instant::now();
                for (o, e) in pair.as_mut_slice().iter_mut().zip(emp_rows.as_slice()) {
                    *o = o.conj() * *e;
                }
                let mut scratch = self.plan.scratch();
                for i in 0..r1 - r0 {
                    let grid = pair.row_mut(i);
                    self.plan
                        .process_with(grid, &mut scratch, Direction::Forward);
                    // SAFETY: `t1` is `npts x ng` and `r0 + i < npts`;
                    // batches cover disjoint row ranges and each is drawn
                    // by exactly one participant, so this row has one
                    // writer and no reader until the region has returned.
                    let row = unsafe {
                        std::slice::from_raw_parts_mut(t1_rows.get().add((r0 + i) * ng), ng)
                    };
                    for (dst, &pos) in row.iter_mut().zip(&self.gather_minus) {
                        *dst = grid[pos];
                    }
                }
                busy.1 += tf.elapsed().as_secs_f64();
            },
            |x, y| (x.0 + y.0, x.1 + y.1),
        );
        report.t_green += green_s;
        report.t_fft += fft_s;

        // Stage 2: per output column G', transform over r and gather at
        // +G (the e^{-i G.r} component).
        let tf = Instant::now();
        let mut cols: Vec<Vec<Complex64>> = (0..ng)
            .map(|g| (0..npts).map(|r| t1[(r, g)]).collect())
            .collect();
        self.plan.forward_many(&mut cols);
        let mut chi = CMatrix::zeros(ng, ng);
        for gp in 0..ng {
            let col = &cols[gp];
            for (g, &pos) in self.gather_plus.iter().enumerate() {
                chi[(g, gp)] = col[pos].scale(-2.0 * inv_n2);
            }
        }
        report.t_fft += tf.elapsed().as_secs_f64();

        self.overwrite_head_wings(tau, &mut chi);
        chi
    }

    /// Rebuilds row/column `G = 0` from the k.p head elements — the FFT
    /// pass puts the (vanishing) naive `G = 0` overlap there, while the
    /// physical screening head is the k.p limit, exactly as in the dense
    /// panel build.
    fn overwrite_head_wings(&self, tau: f64, chi: &mut CMatrix) {
        let ng = self.n_g();
        let nv = self.e_occ.len();
        let nc = self.e_emp.len();
        let npts = self.npts;

        // S[(v, r')] = sum_c conj(h_vc) e^{-e~_c tau} psi_c(r')
        let mut hp = CMatrix::zeros(nv, nc);
        for v in 0..nv {
            let hr = self.h_vc.row(v);
            let row = hp.row_mut(v);
            for c in 0..nc {
                row[c] = hr[c].conj().scale((-self.e_emp[c] * tau).exp());
            }
        }
        let s = matmul(&hp, Op::None, &self.emp_mat, Op::None);

        // W(r') = sum_v e^{e~_v tau} conj(psi_v(r')) S[(v, r')], whose
        // forward FFT at -G' is the wing sum_vc conj(h_vc) M_vc^{G'}
        // e^{-(e_c - e_v) tau} (times N).
        let mut w = vec![Complex64::ZERO; npts];
        for v in 0..nv {
            let ev = self.e_occ[v].mul_add(tau, 0.0).exp();
            let pv = self.occ_mat.row(v);
            let sv = s.row(v);
            for (r, wr) in w.iter_mut().enumerate() {
                *wr += (pv[r].conj() * sv[r]).scale(ev);
            }
        }
        self.plan.process(&mut w, Direction::Forward);
        let inv_n = 1.0 / npts as f64;

        // Head: -2 sum_vc |h_vc|^2 e^{-(e_c - e_v) tau}.
        let mut head = 0.0;
        for v in 0..nv {
            let hr = self.h_vc.row(v);
            for (c, h) in hr.iter().enumerate().take(nc) {
                let a_vc = self.e_emp[c] - self.e_occ[v];
                head += h.norm_sqr() * (-a_vc * tau).exp();
            }
        }
        chi[(0, 0)] = c64(-2.0 * head, 0.0);
        for g in 1..ng {
            let wing = w[self.gather_minus[g]].scale(-2.0 * inv_n);
            chi[(0, g)] = wing;
            // chi(i tau) is Hermitian (real spectral weights).
            chi[(g, 0)] = wing.conj();
        }
    }

    /// The polarizability at the requested imaginary frequencies `i u_k`
    /// (Ry): builds chi at every minimax tau node and accumulates the
    /// fitted cosine-transform weights. The report carries the fit
    /// residual — the agreement tolerance vs the dense oracle.
    pub fn chi_imag_freqs(
        &self,
        us: &[f64],
    ) -> Result<(Vec<CMatrix>, SpaceTimeReport), SpaceTimeError> {
        let grid =
            MinimaxGrid::build_with(self.cfg.n_tau, us, self.e_min, self.e_max, &self.cfg.fit);
        let ng = self.n_g();
        let mut report = SpaceTimeReport {
            n_tau: grid.taus.len(),
            npts: self.npts,
            n_g: ng,
            fit_residual: grid.cos_tw.residual,
            ..Default::default()
        };
        let mut chis = vec![CMatrix::zeros(ng, ng); us.len()];
        for (j, &tau) in grid.taus.iter().enumerate() {
            let chi_t = self.chi_tau(tau, &mut report);
            if !chi_t
                .as_slice()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite())
            {
                return Err(SpaceTimeError::NonFinite {
                    stage: "chi(tau)",
                    tau,
                });
            }
            let tt = Instant::now();
            for (k, chi_k) in chis.iter_mut().enumerate() {
                let gamma = grid.cos_tw.weights[k][j];
                if gamma != 0.0 {
                    chi_k.axpy(c64(gamma, 0.0), &chi_t);
                }
            }
            report.t_transform += tt.elapsed().as_secs_f64();
        }
        Ok((chis, report))
    }
}

/// Builds `eps~^{-1}(i u_k)` on a semi-infinite quadrature through either
/// polarizability backend. Returns the inverse, the quadrature weights
/// (for [`imag_axis_sigma_diag`]), and the space-time report when that
/// path ran (`None` for the dense oracle).
#[allow(clippy::too_many_arguments)]
pub fn build_imag_epsilon(
    wf: &Wavefunctions,
    mtxel: &Mtxel,
    wfn_sph: &GSphere,
    eps_sph: &GSphere,
    coulomb: &Coulomb,
    backend: &ChiBackend,
    n_quad: usize,
    quad_w0: f64,
) -> Result<(EpsilonInverse, Vec<f64>, Option<SpaceTimeReport>), GwError> {
    let (nodes, weights) = semi_infinite_quadrature(n_quad, quad_w0);
    let (chis, report) = match backend {
        ChiBackend::Dense(cfg) => {
            let engine = ChiEngine::new(wf, mtxel, *cfg);
            let mut t = ChiTimings::default();
            (engine.chi_imag_freqs(&nodes, &mut t), None)
        }
        ChiBackend::SpaceTime(cfg) => {
            let st = SpaceTimeChi::new(wf, mtxel, wfn_sph, eps_sph, cfg.clone())?;
            let (chis, report) = st.chi_imag_freqs(&nodes)?;
            (chis, Some(report))
        }
    };
    let eps = EpsilonInverse::build(&chis, &nodes, coulomb, eps_sph)?;
    Ok((eps, weights, report))
}

/// Result of the end-to-end imaginary-axis GW run.
#[derive(Clone, Debug)]
pub struct ImagAxisGwResult {
    /// The continued self-energies.
    pub sigma: SigmaImagAxisResult,
    /// Space-time build report (None when the dense backend ran).
    pub report: Option<SpaceTimeReport>,
    /// Quadrature nodes used for the dielectric inverse.
    pub n_quad: usize,
}

/// Runs the imaginary-axis GW pipeline end to end on the chosen chi
/// backend: chi(i u) -> eps~^{-1}(i u) -> Sigma(i w) -> Pade-continued
/// Sigma(E). This is the consumer the `ChiBackend` switch exists for —
/// swapping `Dense` for `SpaceTime` changes the chi algorithm and nothing
/// else.
#[allow(clippy::too_many_arguments)]
pub fn run_imagaxis_gw(
    ctx: &SigmaContext,
    wf: &Wavefunctions,
    mtxel: &Mtxel,
    wfn_sph: &GSphere,
    eps_sph: &GSphere,
    coulomb: &Coulomb,
    backend: &ChiBackend,
    e_grids: &[Vec<f64>],
    n_quad: usize,
    iw_samples: usize,
) -> Result<ImagAxisGwResult, GwError> {
    let (eps, weights, report) =
        build_imag_epsilon(wf, mtxel, wfn_sph, eps_sph, coulomb, backend, n_quad, 1.5)?;
    let sigma = imag_axis_sigma_diag(ctx, &eps, &weights, e_grids, iw_samples)?;
    Ok(ImagAxisGwResult {
        sigma,
        report,
        n_quad,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::ChiTimings;
    use crate::testkit;

    /// Cheap fit options for tests: skip node optimization, fewer
    /// samples; the reported residual stays the honest gate.
    fn test_fit() -> FitOptions {
        FitOptions {
            n_samples: 128,
            optimize_passes: 2,
            ..FitOptions::default()
        }
    }

    #[test]
    fn spacetime_matches_dense_oracle_on_si() {
        let (_, setup) = testkit::small_context();
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        let q0 = setup.coulomb.q0;
        let us = [0.0, 0.3, 1.1, 4.0];

        let dense_cfg = ChiConfig {
            q0,
            ..ChiConfig::default()
        };
        let engine = ChiEngine::new(&setup.wf, &mtxel, dense_cfg);
        let mut t = ChiTimings::default();
        let dense = engine.chi_imag_freqs(&us, &mut t);

        let st_cfg = SpaceTimeConfig {
            n_tau: 14,
            q0,
            fit: test_fit(),
            ..SpaceTimeConfig::default()
        };
        let st = SpaceTimeChi::new(&setup.wf, &mtxel, &setup.wfn_sph, &setup.eps_sph, st_cfg)
            .expect("Si is gapped");
        let (chis, report) = st.chi_imag_freqs(&us).expect("build succeeds");

        assert!(
            report.fit_residual < 1e-3,
            "residual {}",
            report.fit_residual
        );
        for (k, (a, b)) in chis.iter().zip(&dense).enumerate() {
            let scale = b.max_abs().max(1e-12);
            let rel = a.max_abs_diff(b) / scale;
            // The only systematic error is the minimax fit.
            assert!(
                rel < 10.0 * report.fit_residual + 1e-12,
                "u = {}: rel err {rel:.3e} vs fit residual {:.3e}",
                us[k],
                report.fit_residual
            );
        }
    }

    #[test]
    fn spacetime_matches_dense_oracle_on_lih_defect() {
        // Second roster system: the LiH6 defect cell (rocksalt minus an
        // H), solved fresh at small cutoff — different lattice, different
        // gap structure, same parity requirement.
        let sys = bgw_pwdft::systems::lih_defect(1, 3.0);
        let wfn_sph = sys.wfn_sphere();
        let eps_sph = sys.eps_sphere();
        let wf = bgw_pwdft::solve_bands(&sys.crystal, &wfn_sph, sys.n_bands);
        let coulomb = Coulomb::bulk_for_cell(sys.crystal.lattice.volume());
        let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
        let us = [0.0, 0.8, 3.0];

        let engine = ChiEngine::new(
            &wf,
            &mtxel,
            ChiConfig {
                q0: coulomb.q0,
                ..ChiConfig::default()
            },
        );
        let mut t = ChiTimings::default();
        let dense = engine.chi_imag_freqs(&us, &mut t);

        let st = SpaceTimeChi::new(
            &wf,
            &mtxel,
            &wfn_sph,
            &eps_sph,
            SpaceTimeConfig {
                n_tau: 14,
                q0: coulomb.q0,
                fit: test_fit(),
                ..SpaceTimeConfig::default()
            },
        )
        .expect("LiH defect cell is gapped");
        let (chis, report) = st.chi_imag_freqs(&us).expect("build succeeds");
        for (k, (a, b)) in chis.iter().zip(&dense).enumerate() {
            let rel = a.max_abs_diff(b) / b.max_abs().max(1e-12);
            assert!(
                rel < 10.0 * report.fit_residual + 1e-12,
                "u = {}: rel err {rel:.3e} vs fit residual {:.3e}",
                us[k],
                report.fit_residual
            );
        }
    }

    #[test]
    fn per_tau_chi_is_hermitian_and_negative_head() {
        let (_, setup) = testkit::small_context();
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        let cfg = SpaceTimeConfig {
            q0: setup.coulomb.q0,
            fit: test_fit(),
            ..SpaceTimeConfig::default()
        };
        let st = SpaceTimeChi::new(&setup.wf, &mtxel, &setup.wfn_sph, &setup.eps_sph, cfg)
            .expect("gapped");
        let mut rep = SpaceTimeReport::default();
        let chi = st.chi_tau(0.7, &mut rep);
        let ng = st.n_g();
        let mut herm = 0.0f64;
        for i in 0..ng {
            for j in 0..ng {
                herm = herm.max((chi[(i, j)] - chi[(j, i)].conj()).abs());
            }
        }
        assert!(
            herm < 1e-10 * chi.max_abs().max(1.0),
            "hermiticity {herm:.3e}"
        );
        assert!(chi[(0, 0)].re < 0.0, "head must be negative");
        assert!(chi[(0, 0)].im.abs() < 1e-12);
    }

    #[test]
    fn chi_tau_is_bitwise_the_same_at_pool_width_1_and_4() {
        let _guard = bgw_perf::counters::exclusive_test_guard();
        let (_, setup) = testkit::small_context();
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        let cfg = SpaceTimeConfig {
            q0: setup.coulomb.q0,
            row_batch: 100,
            fit: test_fit(),
            ..SpaceTimeConfig::default()
        };
        let st = SpaceTimeChi::new(&setup.wf, &mtxel, &setup.wfn_sph, &setup.eps_sph, cfg)
            .expect("gapped");
        assert!(
            st.npts() > 200 && !st.npts().is_multiple_of(100),
            "several batches, the last one ragged: npts = {}",
            st.npts()
        );
        // Whether width 4 reaches the pool is `tests/granularity.rs`'s
        // pin (other unit tests share this process's counters).
        let bits_at_width = |width: usize| -> Vec<u64> {
            bgw_par::set_num_threads(width);
            let chi = st.chi_tau(0.7, &mut SpaceTimeReport::default());
            bgw_par::set_num_threads(0);
            chi.as_slice()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect()
        };
        let (serial, pooled) = (bits_at_width(1), bits_at_width(4));
        assert!(serial == pooled, "chi(tau) depends on the pool width");
    }

    #[test]
    fn gapless_system_is_a_typed_error() {
        let (_, setup) = testkit::small_context();
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        let mut wf = setup.wf.clone();
        // Close the gap: degenerate HOMO/LUMO.
        let nv = wf.n_valence;
        wf.energies[nv] = wf.energies[nv - 1];
        match SpaceTimeChi::new(
            &wf,
            &mtxel,
            &setup.wfn_sph,
            &setup.eps_sph,
            SpaceTimeConfig::default(),
        ) {
            Err(SpaceTimeError::Gapless { gap }) => assert!(gap <= 0.0),
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("gapless must fail"),
        }
    }

    #[test]
    fn backend_switch_runs_end_to_end() {
        let (ctx, setup) = testkit::small_context();
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let st_cfg = SpaceTimeConfig {
            q0: setup.coulomb.q0,
            fit: test_fit(),
            ..SpaceTimeConfig::default()
        };
        let dense_cfg = ChiConfig {
            q0: setup.coulomb.q0,
            ..ChiConfig::default()
        };
        let r_dense = run_imagaxis_gw(
            &ctx,
            &setup.wf,
            &mtxel,
            &setup.wfn_sph,
            &setup.eps_sph,
            &setup.coulomb,
            &ChiBackend::Dense(dense_cfg),
            &grids,
            12,
            10,
        )
        .expect("dense path runs");
        let r_st = run_imagaxis_gw(
            &ctx,
            &setup.wf,
            &mtxel,
            &setup.wfn_sph,
            &setup.eps_sph,
            &setup.coulomb,
            &ChiBackend::SpaceTime(st_cfg),
            &grids,
            12,
            10,
        )
        .expect("space-time path runs");
        assert!(r_dense.report.is_none());
        let rep = r_st.report.expect("space-time reports");
        assert!(rep.fit_residual > 0.0 && rep.fit_residual < 1e-2);
        // The two backends continue to nearly identical self-energies:
        // the chi difference is at the fit residual, and everything
        // downstream is shared.
        for s in 0..ctx.n_sigma() {
            let a = r_dense.sigma.sigma[s][0].re;
            let b = r_st.sigma.sigma[s][0].re;
            assert!(a.is_finite() && b.is_finite());
            assert!(
                (a - b).abs() < 1e-2 * a.abs().max(1.0),
                "band {s}: dense {a} vs space-time {b}"
            );
        }
    }
}
