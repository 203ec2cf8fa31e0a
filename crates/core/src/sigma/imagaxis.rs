//! Imaginary-axis full-frequency Sigma with Pade analytic continuation.
//!
//! The alternative full-frequency route (used by WEST, CP2K, and the
//! space-time codes the paper surveys in Sec. 4): all frequency integrals
//! run on the *imaginary* axis where `eps~^{-1}(i w)` is smooth — no
//! poles, no broadening — and the resulting `Sigma(i w)` is analytically
//! continued to real energies with a Pade approximant
//! (`bgw_num::pade`). Complements the real-axis sampled path of
//! [`super::fullfreq`]; agreement between the two (and with GPP) is a
//! strong validation of all three.
//!
//! Working expression (exchange split off exactly):
//!
//! `Sigma^c_ll(E) = -(1/pi) sum_n sum_k w_k q_k(n)
//!                  * (E - E_n) / ((E - E_n)^2 + u_k^2)`
//!
//! evaluated at `E = i w` on the imaginary-frequency grid `{w}` and
//! continued; `q_k(n) = m~_n^dagger [eps~^{-1}(i u_k) - I] m~_n` with
//! `{u_k, w_k}` a Gauss-Legendre quadrature of the semi-infinite axis.
//!
//! # `q_k(n)` on ZGEMM
//!
//! Written out, `q_k(n) = sum_i conj(m~_n[i]) sum_j C_k[i, j] m~_n[j]`
//! with `C_k = eps~^{-1}(i u_k) - I`: an `N_G^2` bilinear form per
//! `(s, k, n)`, `N_Sigma N_k N_b N_G^2` scalar multiply-adds in all. The
//! inner sum is row `n` of a matrix product — with `M~_s` the
//! `N_b x N_G` matrix whose rows are the `m~_n` of Sigma band `s`,
//!
//! `Y = M~_s C_k^T`,  `Y[n, i] = sum_j M~_s[n, j] C_k[i, j] = (C_k m~_n)[i]`,
//!
//! so `q_k(n) = Re conj_dot(m~_n, Y_n)`: one `N_b x N_G x N_G` ZGEMM and
//! `N_b` contiguous-row dots per `(s, k)` — the paper's Eq. 8 move, and
//! the same `Y_k = M B_k^T` recast [`super::fullfreq`] uses on the real
//! axis. The node loop is outermost so exactly one `C_k` is alive at a
//! time and it is shared by every Sigma band; the ZGEMM is offered to the
//! worker pool (its row panels are the parallel unit). The scalar
//! quadruple loop survives as the test module's oracle.

use super::SigmaContext;
use crate::epsilon::EpsilonInverse;
use bgw_linalg::{conj_dot, matmul, zgemm_flops, Op};
use bgw_num::pade::{PadeApproximant, PadeError};
use bgw_num::{c64, Complex64};
use bgw_perf::flopmodel::{
    FF_FLOPS_PER_DOT_TERM, IMAG_FLOPS_PER_KERNEL_TERM, IMAG_FLOPS_PER_SAMPLE_TERM,
};

/// Result of an imaginary-axis Sigma evaluation.
#[derive(Clone, Debug)]
pub struct SigmaImagAxisResult {
    /// `sigma[s][e]`: continued self-energy at the requested real
    /// energies (complex, Ry), exchange included.
    pub sigma: Vec<Vec<Complex64>>,
    /// Real-energy grids per band (Ry).
    pub e_grids: Vec<Vec<f64>>,
    /// The raw `Sigma^c(i w)` samples per band (for diagnostics).
    pub sigma_iw: Vec<Vec<Complex64>>,
    /// Imaginary-frequency sample points (Ry).
    pub iw_grid: Vec<f64>,
    /// Counted FLOPs: the `bgw_perf::flopmodel::imagaxis_sigma_flops`
    /// model evaluated at the actual shapes; the same count the
    /// `sigma.imagaxis` span attributes.
    pub flops: u64,
}

/// `q_k(n) = m~_n^dagger [eps~^{-1}(i u_k) - I] m~_n` for every Sigma
/// band, as `q[s][n * N_k + k]`: one pooled `Y = M~_s C_k^T` ZGEMM and
/// `N_b` row dots per `(k, s)` (module docs). The forms are real because
/// `C_k` is Hermitian.
fn q_forms(ctx: &SigmaContext, eps_iw: &EpsilonInverse) -> Vec<Vec<f64>> {
    let (nb, nk) = (ctx.n_b(), eps_iw.n_freq());
    let mut q = vec![vec![0.0f64; nb * nk]; ctx.n_sigma()];
    for k in 0..nk {
        let corr = eps_iw.correlation_part(k);
        for (m, qs) in ctx.m_tilde.iter().zip(&mut q) {
            let y = matmul(m, Op::None, &corr, Op::Trans);
            for n in 0..nb {
                qs[n * nk + k] = conj_dot(m.row(n), y.row(n)).re;
            }
        }
    }
    q
}

/// Evaluates Sigma on the imaginary axis and continues to `e_grids`.
///
/// `eps_iw` must hold `eps~^{-1}` at the imaginary quadrature frequencies
/// `u_k` (i.e. built from `chi(i u_k)`), with `weights` the matching
/// quadrature weights. `iw_samples` sets how many `Sigma(i w)` points feed
/// the Pade continuation (8-16 is typical).
///
/// A degenerate `i w` sample grid (e.g. a zero quadrature range collapses
/// every node onto the origin) or non-finite `Sigma(i w)` samples make
/// the Thiele construction garbage; those now surface as a typed
/// [`PadeError`] instead of silently continuing nonsense to the real axis.
pub fn imag_axis_sigma_diag(
    ctx: &SigmaContext,
    eps_iw: &EpsilonInverse,
    weights: &[f64],
    e_grids: &[Vec<f64>],
    iw_samples: usize,
) -> Result<SigmaImagAxisResult, PadeError> {
    assert_eq!(e_grids.len(), ctx.n_sigma());
    assert_eq!(weights.len(), eps_iw.n_freq());
    assert!(iw_samples >= 2, "need several imaginary-axis samples");
    let _span = bgw_trace::span!("sigma.imagaxis");
    let (n_sigma, nb, nk, ng) = (ctx.n_sigma(), ctx.n_b(), eps_iw.n_freq(), ctx.n_g());

    // Sigma(i w) sample grid: logarithmic-ish spread over the correlation
    // energy scale set by the quadrature range.
    let w_max = eps_iw.omegas.last().copied().unwrap_or(1.0);
    let iw_grid: Vec<f64> = (0..iw_samples)
        .map(|j| 0.05 * w_max * 1.6f64.powi(j as i32))
        .collect();

    // The ZGEMMs attribute themselves to the span; the dots are charged
    // here.
    let mut q = q_forms(ctx, eps_iw);
    let dot_flops = FF_FLOPS_PER_DOT_TERM as u64 * (n_sigma * nk * nb * ng) as u64;
    bgw_trace::add_flops(dot_flops);
    let mut flops = (n_sigma * nk) as u64 * zgemm_flops(nb, ng, ng) + dot_flops;

    // Sigma^c(i w_j) is the convolution integral along the imaginary
    // axis, analytic for a Green's function pole at E_n (below the real
    // axis when occupied, above when empty):
    //   -(1/pi) sum_n sum_k w_k q_k(n) kernel(i w_j - E_n, u_k)
    // with kernel(z, u) = z / (z^2 + u^2). The kernel depends on neither
    // the Sigma band nor the matrix elements: one table,
    // `kern[(j * N_b + n) * N_k + k]`, laid out like a band's `q`, which
    // takes the `w_k / pi` weights.
    let u_sqr: Vec<f64> = eps_iw.omegas.iter().map(|u| u * u).collect();
    let mut kern = Vec::with_capacity(iw_samples * nb * nk);
    for &w in &iw_grid {
        for &en in &ctx.energies[..nb] {
            let dz = c64(0.0, w) - en;
            let dz_sqr = dz * dz;
            kern.extend(u_sqr.iter().map(|&u2| dz / (dz_sqr + u2)));
        }
    }
    let inv_pi = 1.0 / std::f64::consts::PI;
    let w_over_pi: Vec<f64> = weights.iter().map(|w| w * inv_pi).collect();
    for qs in &mut q {
        for (i, qnk) in qs.iter_mut().enumerate() {
            *qnk *= w_over_pi[i % nk];
        }
    }
    let asm_flops = IMAG_FLOPS_PER_KERNEL_TERM as u64 * kern.len() as u64
        + (n_sigma * nb * nk) as u64
        + IMAG_FLOPS_PER_SAMPLE_TERM as u64 * (n_sigma * kern.len()) as u64;
    bgw_trace::add_flops(asm_flops);
    flops += asm_flops;

    let nodes: Vec<Complex64> = iw_grid.iter().map(|&w| c64(0.0, w)).collect();
    let mut sigma = Vec::with_capacity(n_sigma);
    let mut sigma_iw_all = Vec::with_capacity(n_sigma);
    for ((m, qs), grid) in ctx.m_tilde.iter().zip(&q).zip(e_grids) {
        // bare exchange (exact, static)
        let mut sigma_x = 0.0;
        for n in 0..ctx.n_occ {
            sigma_x -= m.row(n).iter().map(|z| z.norm_sqr()).sum::<f64>();
        }
        let samples: Vec<Complex64> = (0..iw_samples)
            .map(|j| {
                let mut acc = Complex64::ZERO;
                for (&kw, &qnk) in kern[j * nb * nk..(j + 1) * nb * nk].iter().zip(qs) {
                    acc += kw.scale(qnk);
                }
                -acc
            })
            .collect();
        // continue to the real energies
        let pade = PadeApproximant::try_new(&nodes, &samples)?;
        let band: Vec<Complex64> = grid
            .iter()
            .map(|&e| pade.eval(c64(e, 0.02)) + Complex64::real(sigma_x))
            .collect();
        sigma.push(band);
        sigma_iw_all.push(samples);
    }
    Ok(SigmaImagAxisResult {
        sigma,
        e_grids: e_grids.to_vec(),
        sigma_iw: sigma_iw_all,
        iw_grid,
        flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::{ChiConfig, ChiEngine};
    use crate::mtxel::Mtxel;
    use crate::sigma::diag::{gpp_sigma_diag, KernelVariant};
    use crate::testkit;
    use bgw_num::grid::semi_infinite_quadrature;

    fn build_imag_eps(setup: &testkit::TestSetup) -> (EpsilonInverse, Vec<f64>) {
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        let cfg = ChiConfig {
            q0: setup.coulomb.q0,
            ..ChiConfig::default()
        };
        let engine = ChiEngine::new(&setup.wf, &mtxel, cfg);
        let (nodes, weights) = semi_infinite_quadrature(12, 1.5);
        let mut t = Default::default();
        let chis = engine.chi_imag_freqs(&nodes, &mut t);
        let eps = EpsilonInverse::build(&chis, &nodes, &setup.coulomb, &setup.eps_sph)
            .expect("dielectric matrix must be invertible");
        (eps, weights)
    }

    /// `q_k(n)`, `Sigma^c(i w_j)` and continued `Sigma(E)` of the scalar
    /// oracle, per Sigma band.
    struct ScalarOracle {
        /// `q[s][k * N_b + n]` (node-major, unlike [`q_forms`]).
        q: Vec<Vec<f64>>,
        sigma_iw: Vec<Vec<Complex64>>,
        sigma: Vec<Vec<Complex64>>,
    }

    /// The retained scalar oracle: the pre-recast kernel, an `N_G^2`
    /// bilinear form per `(s, k, n)` and one kernel evaluation per
    /// `(s, j, n, k)` term. Same arithmetic per term as the ZGEMM path, so
    /// the only divergence is the blocked-GEMM summation order in `q_k(n)`.
    fn scalar_oracle(
        ctx: &SigmaContext,
        eps_iw: &EpsilonInverse,
        weights: &[f64],
        e_grids: &[Vec<f64>],
        iw_samples: usize,
    ) -> ScalarOracle {
        let nb = ctx.n_b();
        let nk = eps_iw.n_freq();
        let inv_pi = 1.0 / std::f64::consts::PI;
        let w_max = eps_iw.omegas.last().copied().unwrap_or(1.0);
        let iw_grid: Vec<f64> = (0..iw_samples)
            .map(|j| 0.05 * w_max * 1.6f64.powi(j as i32))
            .collect();
        let mut out = ScalarOracle {
            q: Vec::new(),
            sigma_iw: Vec::new(),
            sigma: Vec::new(),
        };
        for (s, grid) in e_grids.iter().enumerate() {
            let m = &ctx.m_tilde[s];
            let mut q = vec![0.0f64; nk * nb];
            for k in 0..nk {
                let corr = eps_iw.correlation_part(k);
                for n in 0..nb {
                    let row = m.row(n);
                    let mut acc = Complex64::ZERO;
                    for (i, &mi) in row.iter().enumerate() {
                        let mut inner = Complex64::ZERO;
                        for (j, &mj) in row.iter().enumerate() {
                            inner = inner.mul_add(corr[(i, j)], mj);
                        }
                        acc = acc.conj_mul_add(mi, inner);
                    }
                    q[k * nb + n] = acc.re;
                }
            }
            let mut sigma_x = 0.0;
            for n in 0..ctx.n_occ {
                sigma_x -= m.row(n).iter().map(|z| z.norm_sqr()).sum::<f64>();
            }
            let samples: Vec<Complex64> = iw_grid
                .iter()
                .map(|&w| {
                    let z = c64(0.0, w);
                    let mut acc = Complex64::ZERO;
                    for n in 0..nb {
                        let dz = z - ctx.energies[n];
                        for k in 0..nk {
                            let u = eps_iw.omegas[k];
                            let kern = dz / (dz * dz + u * u);
                            acc += kern.scale(weights[k] * inv_pi * q[k * nb + n]);
                        }
                    }
                    -acc
                })
                .collect();
            let nodes: Vec<Complex64> = iw_grid.iter().map(|&w| c64(0.0, w)).collect();
            let pade = PadeApproximant::try_new(&nodes, &samples).expect("oracle continues");
            out.sigma.push(
                grid.iter()
                    .map(|&e| pade.eval(c64(e, 0.02)) + Complex64::real(sigma_x))
                    .collect(),
            );
            out.sigma_iw.push(samples);
            out.q.push(q);
        }
        out
    }

    /// Largest `|a - b|` over two per-band tables, and the largest `|b|`.
    fn worst_and_scale(a: &[Vec<Complex64>], b: &[Vec<Complex64>]) -> (f64, f64) {
        let pairs = a.iter().flatten().zip(b.iter().flatten());
        pairs.fold((0.0f64, 0.0f64), |(worst, scale), (x, y)| {
            (worst.max((*x - *y).abs()), scale.max(y.abs()))
        })
    }

    #[test]
    fn zgemm_forms_match_the_scalar_oracle_at_every_pool_width() {
        let _guard = bgw_perf::counters::exclusive_test_guard();
        // The small fixture, and one whose N_b = 60 is not a multiple of
        // any microkernel's row count.
        for (ctx, setup) in [testkit::small_context(), testkit::context_at(4.2, 1.0, 60)] {
            let (eps, weights) = build_imag_eps(&setup);
            let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
            let oracle = scalar_oracle(&ctx, &eps, &weights, &grids, 10);
            let (nb, nk) = (ctx.n_b(), eps.n_freq());
            let q_scale = oracle
                .q
                .iter()
                .flatten()
                .fold(0.0f64, |a, q| a.max(q.abs()));
            for width in [1, 2, 3, 4, 7] {
                bgw_par::set_num_threads(width);
                let q = q_forms(&ctx, &eps);
                for (qs, os) in q.iter().zip(&oracle.q) {
                    for n in 0..nb {
                        for k in 0..nk {
                            let d = (qs[n * nk + k] - os[k * nb + n]).abs();
                            assert!(
                                d <= 1e-12 * q_scale,
                                "width {width}: q_{k}({n}) off by {d:e} of {q_scale:e}"
                            );
                        }
                    }
                }
                let r = imag_axis_sigma_diag(&ctx, &eps, &weights, &grids, 10)
                    .expect("continuation succeeds");
                // The 10-point Thiele continuation amplifies a sample
                // perturbation by orders of magnitude (4.7e-13 of scale
                // measured on the small fixture with the AVX-512 kernel),
                // and the GEMM summation order behind the perturbation is
                // the host ISA's: the continued values get the headroom
                // the samples do not need.
                for (what, got, want, tol) in [
                    ("Sigma^c(i w)", &r.sigma_iw, &oracle.sigma_iw, 1e-12),
                    ("Sigma(E)", &r.sigma, &oracle.sigma, 1e-10),
                ] {
                    let (worst, scale) = worst_and_scale(got, want);
                    assert!(
                        worst <= tol * scale,
                        "width {width}: {what} off by {worst:e} of {scale:e}"
                    );
                }
            }
            bgw_par::set_num_threads(0);
        }
    }

    #[test]
    fn imaginary_axis_chi_is_real_and_screens_less_with_u() {
        let (eps, _) = build_imag_eps(&testkit::small_context().1);
        // eps^{-1}(iu) is real-symmetric-ish and approaches I for large u
        let n = eps.n_freq();
        let first = eps.inv[0][(0, 0)].re;
        let last = eps.inv[n - 1][(0, 0)].re;
        assert!(first < last && last <= 1.0 + 1e-9, "{first} vs {last}");
        for k in 0..n {
            assert!(eps.inv[k][(0, 0)].im.abs() < 1e-8, "Im at k={k}");
        }
    }

    #[test]
    fn continued_sigma_matches_gpp_scale() {
        let (ctx, setup) = testkit::small_context();
        let (eps, weights) = build_imag_eps(&setup);
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let r =
            imag_axis_sigma_diag(&ctx, &eps, &weights, &grids, 10).expect("continuation succeeds");
        let gpp = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
        for s in 0..ctx.n_sigma() {
            let a = r.sigma[s][0].re;
            let b = gpp.sigma[s][0];
            assert!(a.is_finite());
            assert_eq!(a.signum(), b.signum(), "band {s}: {a} vs {b}");
            let ratio = (a / b).abs();
            assert!((0.2..5.0).contains(&ratio), "band {s}: {a} vs GPP {b}");
        }
        // HOMO below LUMO: the gap opens in this formulation too
        let h = r.sigma[ctx.homo_pos()][0].re;
        let l = r.sigma[ctx.lumo_pos()][0].re;
        assert!(h < l, "imag-axis: Sigma_HOMO {h} !< Sigma_LUMO {l}");
        assert_eq!(r.iw_grid.len(), 10);
    }

    #[test]
    fn degenerate_iw_grid_is_a_typed_error() {
        // A quadrature whose frequencies are all zero collapses the
        // Sigma(i w) sample grid onto the origin (w_max = 0): every Pade
        // node coincides and the continuation must fail typed, not
        // continue garbage.
        let (ctx, setup) = testkit::small_context();
        let (eps, weights) = build_imag_eps(&setup);
        let zeroed =
            EpsilonInverse::from_parts(vec![0.0; eps.n_freq()], eps.inv.clone(), eps.vsqrt.clone());
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let err = imag_axis_sigma_diag(&ctx, &zeroed, &weights, &grids, 8)
            .expect_err("all-zero iw grid must fail");
        assert!(
            matches!(err, bgw_num::PadeError::DuplicateNodes { .. }),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn sigma_on_imaginary_axis_is_smooth() {
        // |Sigma(i w)| decays monotonically at large w — the smoothness
        // that motivates the imaginary-axis formulation.
        let (ctx, setup) = testkit::small_context();
        let (eps, weights) = build_imag_eps(&setup);
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let r =
            imag_axis_sigma_diag(&ctx, &eps, &weights, &grids, 12).expect("continuation succeeds");
        let s = &r.sigma_iw[ctx.homo_pos()];
        let tail: Vec<f64> = s.iter().map(|z| z.abs()).collect();
        // beyond the correlation scale the magnitude decreases
        let peak_idx = tail
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        for w in tail[peak_idx..].windows(2) {
            assert!(w[1] <= w[0] * 1.2 + 1e-12, "non-smooth tail: {tail:?}");
        }
    }
}
