//! CHI_SUM: the RPA polarizability (paper Eq. 4) with the NV-Block
//! algorithm.
//!
//! `chi_GG'(omega) = 2 sum_vc M_vc^{G*} Delta_vc(omega) M_vc^{G'}`.
//!
//! The naive implementation stores all `N_v N_c` matrix-element rows at
//! once — the O(N^3) memory bottleneck of Sec. 5.2. The NV-Block algorithm
//! processes the valence bands in blocks: each block's `M` panel is built
//! (MTXEL), contracted into `chi` via ZGEMM (CHI_SUM), and discarded. The
//! result is exactly independent of the block size, which the tests check.
//!
//! Frequencies reuse the same `M` panels: the zero-frequency pass (CHI-0)
//! and the finite-frequency passes (CHI-Freq) differ only in the energy
//! denominator `Delta_vc(omega)`.

use crate::epsilon::is_static_freq;
use crate::mtxel::Mtxel;
use bgw_linalg::{zgemm, CMatrix, Op};
use bgw_num::{c64, Complex64};
use bgw_par::Flops;
use bgw_pwdft::Wavefunctions;
use std::time::Instant;

/// Configuration for the polarizability build.
#[derive(Clone, Copy, Debug)]
pub struct ChiConfig {
    /// Valence bands per NV block.
    pub nv_block: usize,
    /// Lorentzian broadening (Ry) for finite real frequencies.
    pub eta_ry: f64,
    /// Momentum magnitude (bohr^-1) for the k.p head of the `G = 0`
    /// matrix elements; use the `q0` of the Coulomb interaction so that
    /// the screening head is consistent. `0` disables the correction.
    pub q0: f64,
}

impl Default for ChiConfig {
    fn default() -> Self {
        Self {
            nv_block: 4,
            eta_ry: 0.05,
            q0: 0.2,
        }
    }
}

/// Timing/work breakdown of one polarizability build, keyed to the kernel
/// names of paper Fig. 3.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChiTimings {
    /// Seconds in the MTXEL kernel (FFT matrix elements).
    pub t_mtxel: f64,
    /// Seconds in the zero-frequency contraction (CHI-0).
    pub t_chi0: f64,
    /// Seconds in the finite-frequency contractions (CHI-Freq).
    pub t_chifreq: f64,
    /// ZGEMM FLOPs executed.
    pub flops: u64,
}

/// The energy factor `Delta_vc(omega)` of Eq. 4 (time-ordered RPA with
/// broadening `eta`): `1/(E_v - E_c - w - i eta) + 1/(E_v - E_c + w + i eta)`.
pub fn delta_vc(e_v: f64, e_c: f64, omega: f64, eta: f64) -> Complex64 {
    let de = e_v - e_c; // negative
    let a = c64(de - omega, -eta).inv();
    let b = c64(de + omega, eta).inv();
    a + b
}

/// The energy factor on the *imaginary* frequency axis, `omega -> i u`:
/// `1/(de - iu) + 1/(de + iu) = 2 de / (de^2 + u^2)` — purely real, no
/// broadening needed (there are no poles on the imaginary axis). This is
/// `-cos_kernel(a, u)` of `bgw_num::minimax` with `a = -de`, which is what
/// ties the dense oracle to the space-time cosine transform.
pub fn delta_vc_imag(e_v: f64, e_c: f64, u: f64) -> f64 {
    let de = e_v - e_c; // negative
    2.0 * de / (de * de + u * u)
}

/// Which frequency axis the energy denominators live on.
#[derive(Clone, Copy, Debug)]
enum FreqAxis {
    /// Real frequencies with `eta` broadening (zero at the static point).
    Real,
    /// Imaginary frequencies `i u`: real denominators, no broadening.
    Imag,
}

/// Polarizability engine holding cached conduction-band amplitudes.
pub struct ChiEngine<'a> {
    wf: &'a Wavefunctions,
    mtxel: &'a Mtxel,
    /// Real-space amplitudes of all conduction bands (index by `c`).
    cond_real: Vec<Vec<Complex64>>,
    cfg: ChiConfig,
}

impl<'a> ChiEngine<'a> {
    /// Builds the engine, caching all conduction-band FFTs once.
    pub fn new(wf: &'a Wavefunctions, mtxel: &'a Mtxel, cfg: ChiConfig) -> Self {
        let nv = wf.n_valence;
        let nc = wf.n_conduction();
        assert!(nc > 0, "no conduction bands");
        let cond_bands: Vec<usize> = (0..nc).map(|c| nv + c).collect();
        let cond_real = mtxel.to_real_space_many(wf, &cond_bands);
        Self {
            wf,
            mtxel,
            cond_real,
            cfg,
        }
    }

    /// Number of output G-vectors.
    pub fn n_g(&self) -> usize {
        self.mtxel.n_out()
    }

    /// Builds the `M` panel for valence bands `v0..v1`: row `(v - v0) * N_c
    /// + c` holds `M_vc^G` over the output sphere.
    pub fn m_panel(&self, v0: usize, v1: usize) -> CMatrix {
        let bands: Vec<usize> = (v0..v1).collect();
        self.m_panel_of(&bands, None)
    }

    /// The `M` panel of the valence bands `vs` (rows `(i, c)`), every
    /// band's row block filled by one batched pair pass; `vsqrt`
    /// symmetrizes the rows (Eq. 6 subspace) when given.
    fn m_panel_of(&self, vs: &[usize], vsqrt: Option<&[f64]>) -> CMatrix {
        let nc = self.wf.n_conduction();
        let ng = self.n_g();
        let mut panel = CMatrix::zeros(vs.len() * nc, ng);
        let val_real = self.mtxel.to_real_space_many(self.wf, vs);
        let blocks = panel.as_mut_slice().chunks_exact_mut(nc * ng);
        for ((&v, psi_v), block) in vs.iter().zip(&val_real).zip(blocks) {
            self.mtxel
                .pairs_from_real(psi_v, &self.cond_real, block, |c, row| {
                    row[0] = self
                        .mtxel
                        .head_kp(self.wf, v, self.wf.n_valence + c, self.cfg.q0);
                    if let Some(vsqrt) = vsqrt {
                        for (x, &w) in row.iter_mut().zip(vsqrt) {
                            *x = x.scale(w);
                        }
                    }
                });
        }
        panel
    }

    /// Computes `chi(omega_i)` for every requested frequency (Ry), using
    /// NV blocks over a subset of valence bands (all bands when
    /// `valence_subset` is `None`). The zero-frequency entry uses `eta = 0`
    /// so the static polarizability is exactly Hermitian.
    pub fn chi_freqs_subset(
        &self,
        omegas: &[f64],
        valence_subset: Option<&[usize]>,
        timings: &mut ChiTimings,
    ) -> Vec<CMatrix> {
        self.chi_freqs_core(omegas, FreqAxis::Real, valence_subset, None, timings)
    }

    /// Dense polarizability at *imaginary* frequencies `i u_k` over all
    /// valence bands: the oracle the space-time path
    /// (`core::spacetime`) is cross-validated against, and the input for
    /// an imaginary-axis `EpsilonInverse` feeding `sigma::imagaxis`. The
    /// denominators are exactly real (`delta_vc_imag`), so no broadening
    /// or eta trickery is involved.
    pub fn chi_imag_freqs(&self, us: &[f64], timings: &mut ChiTimings) -> Vec<CMatrix> {
        self.chi_freqs_core(us, FreqAxis::Imag, None, None, timings)
    }

    /// Shared NV-block loop behind every dense chi build: real or
    /// imaginary axis, full plane-wave or subspace-projected output.
    fn chi_freqs_core(
        &self,
        freqs: &[f64],
        axis: FreqAxis,
        valence_subset: Option<&[usize]>,
        proj: Option<(&CMatrix, &[f64])>,
        timings: &mut ChiTimings,
    ) -> Vec<CMatrix> {
        let ng = self.n_g();
        let nc = self.wf.n_conduction();
        let n_out = proj.map_or(ng, |(basis, _)| basis.ncols());
        let all: Vec<usize>;
        let vs: &[usize] = match valence_subset {
            Some(v) => v,
            None => {
                all = (0..self.wf.n_valence).collect();
                &all
            }
        };
        let mut chis = vec![CMatrix::zeros(n_out, n_out); freqs.len()];
        // NV blocks over the subset.
        for chunk in vs.chunks(self.cfg.nv_block.max(1)) {
            let t0 = Instant::now();
            // Build this block's M panel (rows: (idx within chunk, c)),
            // symmetrized before projecting when a subspace is given.
            let panel = self.m_panel_of(chunk, proj.map(|(_, vsqrt)| vsqrt));
            timings.t_mtxel += t0.elapsed().as_secs_f64();
            // Projection (the Transf-like step folded into CHI-Freq).
            let panel = match proj {
                Some((basis, _)) => {
                    let t1 = Instant::now();
                    let projected = bgw_linalg::matmul(&panel, Op::None, basis, Op::None);
                    timings.flops += bgw_linalg::zgemm_flops(panel.nrows(), ng, n_out);
                    timings.t_chifreq += t1.elapsed().as_secs_f64();
                    projected
                }
                None => panel,
            };

            // One scratch buffer per NV block, reused by every frequency
            // (the per-frequency `panel.clone()` used to dominate the
            // CHI-Freq allocation traffic).
            let mut scaled = CMatrix::zeros(panel.nrows(), n_out);
            let mut deltas = vec![Complex64::ZERO; panel.nrows()];
            for (wi, &freq) in freqs.iter().enumerate() {
                let t1 = Instant::now();
                for (i, &v) in chunk.iter().enumerate() {
                    let e_v = self.wf.energies[v];
                    for c in 0..nc {
                        let e_c = self.wf.energies[self.wf.n_valence + c];
                        deltas[i * nc + c] = match axis {
                            FreqAxis::Real => {
                                let eta = if is_static_freq(freq) {
                                    0.0
                                } else {
                                    self.cfg.eta_ry
                                };
                                delta_vc(e_v, e_c, freq, eta)
                            }
                            FreqAxis::Imag => c64(delta_vc_imag(e_v, e_c, freq), 0.0),
                        };
                    }
                }
                // scaled = Delta * M: fused copy + row scaling on the pool.
                let src = panel.as_slice();
                // One complex multiply per element.
                let cost = Flops(6 * n_out as u64);
                bgw_par::parallel_rows(scaled.as_mut_slice(), n_out, cost, |r, row| {
                    let d = deltas[r];
                    for (z, &p) in row.iter_mut().zip(&src[r * n_out..(r + 1) * n_out]) {
                        *z = p * d;
                    }
                });
                // chi += 2 M^dagger scaled
                zgemm(
                    c64(2.0, 0.0),
                    &panel,
                    Op::Adj,
                    &scaled,
                    Op::None,
                    Complex64::ONE,
                    &mut chis[wi],
                );
                timings.flops += bgw_linalg::zgemm_flops(n_out, panel.nrows(), n_out);
                let dt = t1.elapsed().as_secs_f64();
                if matches!(axis, FreqAxis::Real) && is_static_freq(freq) {
                    timings.t_chi0 += dt;
                } else {
                    timings.t_chifreq += dt;
                }
            }
        }
        chis
    }

    /// Finite-frequency polarizability in a subspace basis (paper Eq. 6):
    /// `chi_BB'(omega) = 2 sum_vc M_vc^{B*} Delta_vc(omega) M_vc^{B'}`
    /// with `M^B = sum_G M^G C_s^{GB}`. The `basis` columns must be the
    /// subspace vectors in the *symmetrized* representation, so the `M`
    /// rows are symmetrized with `vsqrt` before projection; the returned
    /// matrices are the symmetrized subspace `chi~_BB'`.
    ///
    /// This is the CHI-Freq kernel: the full plane-wave basis is only ever
    /// touched by the projection GEMM, so each frequency costs
    /// `O(N_v N_c N_Eig^2)` instead of `O(N_v N_c N_G^2)`.
    pub fn chi_freqs_subspace(
        &self,
        omegas: &[f64],
        basis: &CMatrix,
        vsqrt: &[f64],
        timings: &mut ChiTimings,
    ) -> Vec<CMatrix> {
        assert_eq!(basis.nrows(), self.n_g(), "basis rows must match N_G");
        assert_eq!(vsqrt.len(), self.n_g());
        self.chi_freqs_core(omegas, FreqAxis::Real, None, Some((basis, vsqrt)), timings)
    }

    /// The NV-block boundaries `(v0, v1)` the chi builds iterate, in
    /// order: contiguous `cfg.nv_block`-sized ranges covering the valence
    /// bands (the last block may be short). These are the natural task
    /// boundaries of the DAG-scheduled workflow — one
    /// [`chi_freqs_subset`](Self::chi_freqs_subset) call over each entry's
    /// bands, a single NV block of the shared loop.
    pub fn nv_blocks(&self) -> Vec<(usize, usize)> {
        let nvb = self.cfg.nv_block.max(1);
        (0..self.wf.n_valence)
            .step_by(nvb)
            .map(|v0| (v0, (v0 + nvb).min(self.wf.n_valence)))
            .collect()
    }

    /// Static polarizability `chi(0)`.
    pub fn chi_static(&self) -> CMatrix {
        let mut t = ChiTimings::default();
        self.chi_freqs_subset(&[0.0], None, &mut t).pop().unwrap()
    }

    /// Full-frequency set over all valence bands.
    pub fn chi_freqs(&self, omegas: &[f64]) -> (Vec<CMatrix>, ChiTimings) {
        let mut t = ChiTimings::default();
        let chis = self.chi_freqs_subset(omegas, None, &mut t);
        (chis, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_pwdft::{solve_bands, Crystal, GSphere, Species};

    fn setup() -> (GSphere, GSphere, Wavefunctions) {
        let c = Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0);
        let wfn = GSphere::new(&c.lattice, 2.2);
        let eps = GSphere::new(&c.lattice, 1.0);
        let wf = solve_bands(&c, &wfn, 24);
        (wfn, eps, wf)
    }

    #[test]
    fn delta_static_is_negative_real() {
        let d = delta_vc(-0.5, 0.3, 0.0, 0.0);
        assert!(d.im.abs() < 1e-15);
        assert!((d.re - 2.0 / (-0.8)).abs() < 1e-12);
    }

    #[test]
    fn negative_zero_selects_the_static_eta_path() {
        let (wfn, eps, wf) = setup();
        let mtxel = Mtxel::new(&wfn, &eps);
        let engine = ChiEngine::new(&wf, &mtxel, ChiConfig::default());
        // -0.0 is the static point: identical matrix, eta = 0 branch.
        let (chis, _) = engine.chi_freqs(&[0.0, -0.0]);
        assert_eq!(chis[0].max_abs_diff(&chis[1]), 0.0);
        // A tiny finite offset takes the broadened-eta branch, so the
        // result differs from CHI-0 (eta enters the denominator).
        let (chi_off, _) = engine.chi_freqs(&[1e-12]);
        assert!(chi_off[0].max_abs_diff(&chis[0]) > 0.0);
    }

    #[test]
    fn chi0_is_hermitian_negative_definite() {
        let (wfn, eps, wf) = setup();
        let mtxel = Mtxel::new(&wfn, &eps);
        let engine = ChiEngine::new(&wf, &mtxel, ChiConfig::default());
        let chi = engine.chi_static();
        assert!(
            chi.hermiticity_error() <= 1e-9,
            "err {}",
            chi.hermiticity_error()
        );
        let eig = bgw_linalg::eigvalsh(&chi);
        assert!(
            eig.iter().all(|&w| w < 1e-9),
            "chi(0) must be negative semi-definite; max eig {}",
            eig.last().unwrap()
        );
        // head (G=0,G=0) strictly negative: the system is polarizable
        assert!(chi[(0, 0)].re < -1e-6);
    }

    #[test]
    fn block_contributions_sum_to_full_chi() {
        // The DAG task decomposition: per-block contributions summed in
        // block order must reproduce the barrier-ordered build to
        // summation-reassociation accuracy at every frequency.
        let (wfn, eps, wf) = setup();
        let mtxel = Mtxel::new(&wfn, &eps);
        let engine = ChiEngine::new(&wf, &mtxel, ChiConfig::default());
        let omegas = [0.0, 0.35];
        let (full, _) = engine.chi_freqs(&omegas);
        let blocks = engine.nv_blocks();
        assert!(blocks.len() > 1, "test system must span several blocks");
        assert_eq!(blocks.first(), Some(&(0, ChiConfig::default().nv_block)));
        assert_eq!(blocks.last().unwrap().1, wf.n_valence);
        let ng = engine.n_g();
        let mut summed = vec![CMatrix::zeros(ng, ng); omegas.len()];
        for &(v0, v1) in &blocks {
            let block: Vec<usize> = (v0..v1).collect();
            let mut t = ChiTimings::default();
            let contribs = engine.chi_freqs_subset(&omegas, Some(&block), &mut t);
            for (wi, contrib) in contribs.iter().enumerate() {
                summed[wi].axpy(Complex64::ONE, contrib);
            }
        }
        for (wi, chi) in full.iter().enumerate() {
            let d = summed[wi].max_abs_diff(chi);
            assert!(d < 1e-12, "freq {wi}: block sum drifted by {d}");
        }
    }

    #[test]
    fn distributed_matches_serial() {
        // The band-batch decomposition of Sec. 5.2 deals valence bands
        // round-robin (`v % parts`), so every share is strided, not a
        // contiguous NV block; the shares still sum to the serial chi.
        let (wfn, eps, wf) = setup();
        let mtxel = Mtxel::new(&wfn, &eps);
        let engine = ChiEngine::new(&wf, &mtxel, ChiConfig::default());
        let omegas = [0.0, 0.35];
        let (serial, _) = engine.chi_freqs(&omegas);
        let ng = engine.n_g();
        for parts in [1usize, 2, 3, 5] {
            let mut summed = vec![CMatrix::zeros(ng, ng); omegas.len()];
            for part in 0..parts {
                let mine: Vec<usize> = (0..wf.n_valence).filter(|v| v % parts == part).collect();
                let mut t = ChiTimings::default();
                let contribs = engine.chi_freqs_subset(&omegas, Some(&mine), &mut t);
                for (wi, contrib) in contribs.iter().enumerate() {
                    summed[wi].axpy(Complex64::ONE, contrib);
                }
            }
            for (wi, chi) in serial.iter().enumerate() {
                let d = summed[wi].max_abs_diff(chi);
                assert!(d < 1e-10, "{parts} parts, freq {wi}: drifted by {d}");
            }
        }
    }

    #[test]
    fn nv_block_size_does_not_change_result() {
        let (wfn, eps, wf) = setup();
        let mtxel = Mtxel::new(&wfn, &eps);
        let reference = ChiEngine::new(
            &wf,
            &mtxel,
            ChiConfig {
                nv_block: 1,
                ..Default::default()
            },
        )
        .chi_static();
        for nv_block in [2usize, 3, 7, 100] {
            let chi = ChiEngine::new(
                &wf,
                &mtxel,
                ChiConfig {
                    nv_block,
                    ..Default::default()
                },
            )
            .chi_static();
            assert!(
                chi.max_abs_diff(&reference) < 1e-10,
                "nv_block = {nv_block}: {}",
                chi.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn finite_frequency_weakens_screening() {
        // |chi(0)| >= |chi(w)| head as w grows beyond the gap.
        let (wfn, eps, wf) = setup();
        let mtxel = Mtxel::new(&wfn, &eps);
        let engine = ChiEngine::new(&wf, &mtxel, ChiConfig::default());
        let (chis, timings) = engine.chi_freqs(&[0.0, 2.0, 6.0]);
        let h0 = chis[0][(0, 0)].re.abs();
        let h2 = chis[1][(0, 0)].abs();
        let h6 = chis[2][(0, 0)].abs();
        assert!(h0 > h2 * 0.9, "h0 {h0} vs h2 {h2}");
        assert!(h2 > h6, "h2 {h2} vs h6 {h6}");
        assert!(timings.t_chi0 > 0.0 && timings.t_chifreq > 0.0);
        assert!(timings.flops > 0);
    }

    #[test]
    fn subspace_chi_matches_projected_full_chi() {
        // chi~_BB'(w) from Eq. 6 must equal C^dagger (v^1/2 chi(w) v^1/2) C
        // computed the long way, exactly, for any basis.
        let (wfn, eps, wf) = setup();
        let mtxel = Mtxel::new(&wfn, &eps);
        let coulomb = crate::coulomb::Coulomb::bulk_for_cell(1080.0);
        let cfg = ChiConfig {
            q0: coulomb.q0,
            ..ChiConfig::default()
        };
        let engine = ChiEngine::new(&wf, &mtxel, cfg);
        let vsqrt = coulomb.sqrt_on_sphere(&eps);
        let freqs = [0.0, 1.2];
        let (chis, _) = engine.chi_freqs(&freqs);
        // subspace from chi(0)
        let sub = crate::subspace::Subspace::from_chi0(&chis[0], &vsqrt, eps.len() / 2);
        let mut tm = ChiTimings::default();
        let fast = engine.chi_freqs_subspace(&freqs, &sub.basis, &vsqrt, &mut tm);
        for (wi, chi_w) in chis.iter().enumerate() {
            let sym = crate::subspace::symmetrize(chi_w, &vsqrt);
            let slow = sub.project(&sym);
            assert!(
                fast[wi].max_abs_diff(&slow) < 1e-9,
                "freq {wi}: {}",
                fast[wi].max_abs_diff(&slow)
            );
        }
        assert!(tm.t_chifreq > 0.0 && tm.flops > 0);
    }
}
