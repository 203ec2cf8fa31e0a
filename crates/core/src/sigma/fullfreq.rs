//! Full-frequency (FF) self-energy by numerical frequency quadrature
//! (paper Sec. 5.2).
//!
//! Instead of the plasmon-pole model, the correlation self-energy is built
//! from the sampled inverse dielectric matrix on a real-frequency grid via
//! its spectral (anti-Hermitian) part:
//!
//! `Sigma^c_ll(E) = sum_n sum_k (w_k / pi) q_k(n)
//!      * [occ: 1/(E - E_n + w_k - i eta); emp: 1/(E - E_n - w_k + i eta)]`
//!
//! with `q_k(n) = m~_n^dagger B(w_k) m~_n` and `B = (W - W^dagger)/(2i)`
//! the spectral weight of `W = eps~^{-1} - I`. The bare exchange
//! `Sigma^x_ll = -sum_{n occ} |m~_n|^2` completes Sigma.
//!
//! ## The ZGEMM recast
//!
//! The quadrature contraction is batched linear algebra, not a scalar
//! triple loop: per quadrature node the bilinear forms for *all* bands are
//! one ZGEMM `Y_k = M B_k^T` (so `Y_k[(n, i)] = sum_j M[(n, j)] B_k[(i, j)]`,
//! keeping both operand rows and the output rows contiguous) followed by a
//! row-wise conjugated dot `q_k(n) = conj_dot(M_n, Y_k_n)` — the same
//! recast the paper applies to the off-diagonal GPP kernel (Eq. 8). The
//! frequency loop runs over the `bgw_par` worker pool (the per-frequency
//! GEMMs then execute inline inside their worker), as does the Sigma(E)
//! grid assembly. The pre-recast scalar implementation is retained as the
//! `_serial` oracle and the pooled path is validated against it to 1e-12
//! across pool sizes.
//!
//! Discarding the imaginary part of `q_k(n)` is exact only for Hermitian
//! `B`; the guard in `real_part_checked` surfaces violations through a
//! `bgw-perf` occurrence counter (and a debug assertion) instead of
//! silently dropping spectral weight.
//!
//! The static subspace approximation enters exactly as in Eq. 6: both the
//! spectral weights and the matrix elements are projected onto the
//! `N_Eig`-dimensional basis, turning each `q_k(n)` from `O(N_G^2)` into
//! `O(N_Eig^2)` — the measured speedup in the Fig. 3/4 benches.

use super::SigmaContext;
use crate::epsilon::EpsilonInverse;
use crate::subspace::Subspace;
use bgw_linalg::{conj_dot, matmul, zgemm_flops, CMatrix, Op};
use bgw_num::{c64, Complex64};
use bgw_perf::flopmodel::{
    FF_FLOPS_PER_DOT_TERM, FF_FLOPS_PER_EXCHANGE_TERM, FF_FLOPS_PER_POLE_TERM,
};
use std::time::Instant;

/// Relative tolerance on the imaginary residue of a bilinear form
/// `q_k(n)` before taking its real part counts as *dropping* spectral
/// weight (the form is exactly real for Hermitian `B`, so anything beyond
/// accumulated roundoff means the Hermiticity assumption broke).
const HERMITICITY_TOL: f64 = 1e-8;

/// Result of a full-frequency Sigma evaluation.
#[derive(Clone, Debug)]
pub struct SigmaFfResult {
    /// `sigma[s][e]` (complex, Ry): correlation + exchange at grid energies.
    pub sigma: Vec<Vec<Complex64>>,
    /// Energy grids per band (Ry).
    pub e_grids: Vec<Vec<f64>>,
    /// Seconds in the quadrature contraction.
    pub seconds: f64,
    /// Basis dimension actually contracted over (`N_G` or `N_Eig`).
    pub contracted_dim: usize,
    /// Counted FLOPs of the contraction (the `bgw_perf::flopmodel::
    /// ff_sigma_flops` model evaluated at the actual shapes; the same
    /// count the `sigma.ff` span attributes).
    pub flops: u64,
}

/// Full-frequency Sigma on the full `N_G` basis (pooled ZGEMM path).
///
/// `eps_ff` must hold `eps~^{-1}` at strictly positive quadrature
/// frequencies `omega_k` with weights `weights[k]` (e.g. from
/// `bgw_num::grid::semi_infinite_quadrature`).
pub fn ff_sigma_diag(
    ctx: &SigmaContext,
    eps_ff: &EpsilonInverse,
    weights: &[f64],
    e_grids: &[Vec<f64>],
    eta: f64,
) -> SigmaFfResult {
    let spectral = spectral_weights(eps_ff);
    ff_sigma_impl(ctx, &spectral, &eps_ff.omegas, weights, e_grids, eta, None)
}

/// Full-frequency Sigma contracted in the static subspace (pooled ZGEMM
/// path).
pub fn ff_sigma_diag_subspace(
    ctx: &SigmaContext,
    eps_ff: &EpsilonInverse,
    weights: &[f64],
    e_grids: &[Vec<f64>],
    eta: f64,
    sub: &Subspace,
) -> SigmaFfResult {
    let spectral = spectral_weights_projected(eps_ff, sub);
    ff_sigma_impl(
        ctx,
        &spectral,
        &eps_ff.omegas,
        weights,
        e_grids,
        eta,
        Some(sub),
    )
}

/// Subspace-contracted FF Sigma through the retained scalar oracle.
pub fn ff_sigma_diag_subspace_serial(
    ctx: &SigmaContext,
    eps_ff: &EpsilonInverse,
    weights: &[f64],
    e_grids: &[Vec<f64>],
    eta: f64,
    sub: &Subspace,
) -> SigmaFfResult {
    let spectral = spectral_weights_projected(eps_ff, sub);
    ff_sigma_impl_serial(
        ctx,
        &spectral,
        &eps_ff.omegas,
        weights,
        e_grids,
        eta,
        Some(sub),
    )
}

/// Spectral weights `B(omega_k)` for every stored frequency.
fn spectral_weights(eps_ff: &EpsilonInverse) -> Vec<CMatrix> {
    (0..eps_ff.n_freq())
        .map(|k| anti_hermitian_part(&eps_ff.correlation_part(k)))
        .collect()
}

/// Subspace-projected spectral weights.
fn spectral_weights_projected(eps_ff: &EpsilonInverse, sub: &Subspace) -> Vec<CMatrix> {
    (0..eps_ff.n_freq())
        .map(|k| sub.project(&anti_hermitian_part(&eps_ff.correlation_part(k))))
        .collect()
}

/// Takes the real part of a bilinear form that is real-by-symmetry,
/// surfacing Hermiticity violations: the imaginary residue beyond
/// [`HERMITICITY_TOL`] (relative to the form's magnitude) bumps the
/// `ff_hermiticity_drops` counter and trips a debug assertion. The
/// `!(x <= y)` form also catches NaN residues.
fn real_part_checked(acc: Complex64) -> f64 {
    let scale = acc.re.abs().max(1.0);
    // Deliberately `!(x <= y)` rather than `x > y`: a NaN residue must
    // also count as a violation, and NaN fails every ordered compare.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(acc.im.abs() <= HERMITICITY_TOL * scale) {
        bgw_perf::counters::record_ff_hermiticity_drop();
        debug_assert!(
            false,
            "non-Hermitian spectral weight: discarding Im(q) = {:e} against Re(q) = {:e}",
            acc.im, acc.re
        );
    }
    acc.re
}

/// Shared argument validation for both implementations.
fn check_ff_args(
    ctx: &SigmaContext,
    spectral: &[CMatrix],
    omegas: &[f64],
    weights: &[f64],
    e_grids: &[Vec<f64>],
) {
    assert_eq!(spectral.len(), omegas.len());
    assert_eq!(weights.len(), omegas.len());
    assert_eq!(e_grids.len(), ctx.n_sigma());
    assert!(
        omegas.iter().all(|&w| w > 0.0),
        "quadrature nodes must be positive"
    );
}

/// Pooled ZGEMM implementation: per-frequency `Y_k = M B_k^T` plus
/// row-wise dots under `sigma.ff.qk`, pooled grid assembly under
/// `sigma.ff.assemble`.
fn ff_sigma_impl(
    ctx: &SigmaContext,
    spectral: &[CMatrix],
    omegas: &[f64],
    weights: &[f64],
    e_grids: &[Vec<f64>],
    eta: f64,
    sub: Option<&Subspace>,
) -> SigmaFfResult {
    check_ff_args(ctx, spectral, omegas, weights, e_grids);
    let _span = bgw_trace::span!("sigma.ff");
    let t0 = Instant::now();
    let nb = ctx.n_b();
    let nk = omegas.len();
    let contracted_dim = sub.map_or(ctx.n_g(), |s| s.n_eig());
    let dim = contracted_dim;
    let inv_pi = 1.0 / std::f64::consts::PI;
    let mut flops: u64 = 0;

    let mut sigma = Vec::with_capacity(ctx.n_sigma());
    for (s, grid) in e_grids.iter().enumerate() {
        // Matrix elements for this Sigma band, possibly projected (the
        // projection ZGEMM runs and self-attributes inside this span).
        let m = match sub {
            Some(su) => {
                flops += zgemm_flops(nb, ctx.n_g(), dim);
                su.project_rows(&ctx.m_tilde[s])
            }
            None => ctx.m_tilde[s].clone(),
        };
        // q_k(n) = m_n^dagger B_k m_n for all (k, n): the frequency loop is
        // pooled (one q row per node), each node is one ZGEMM + nb dots.
        let mut q = vec![0.0f64; nk * nb];
        {
            let _qk = bgw_trace::span!("sigma.ff.qk");
            // Per node: one ZGEMM and nb dots (the counts added to `flops`).
            let node_cost = bgw_par::Flops(
                zgemm_flops(nb, dim, dim) + FF_FLOPS_PER_DOT_TERM as u64 * (nb * dim) as u64,
            );
            bgw_par::parallel_rows(&mut q, nb, node_cost, |k, qrow| {
                let y = matmul(&m, Op::None, &spectral[k], Op::Trans);
                for (n, qn) in qrow.iter_mut().enumerate() {
                    *qn = real_part_checked(conj_dot(m.row(n), y.row(n)));
                }
            });
            let dot_flops = FF_FLOPS_PER_DOT_TERM as u64 * (nk * nb * dim) as u64;
            bgw_trace::add_flops(dot_flops);
            flops += nk as u64 * zgemm_flops(nb, dim, dim) + dot_flops;
        }
        // Bare exchange (occupied bands only): -sum |m~|^2 in the full
        // basis. Projection would truncate exchange, so always use the
        // unprojected matrix elements for Sigma^x.
        let mx = &ctx.m_tilde[s];
        let mut sigma_x = 0.0;
        for n in 0..ctx.n_occ {
            sigma_x -= mx.row(n).iter().map(|z| z.norm_sqr()).sum::<f64>();
        }
        let exch_flops = FF_FLOPS_PER_EXCHANGE_TERM as u64 * (ctx.n_occ * ctx.n_g()) as u64;
        bgw_trace::add_flops(exch_flops);
        flops += exch_flops;
        // Assemble Sigma(E) on this band's grid, pooled over grid points.
        let mut band = vec![Complex64::ZERO; grid.len()];
        {
            let _asm = bgw_trace::span!("sigma.ff.assemble");
            let point_cost = bgw_par::Flops(FF_FLOPS_PER_POLE_TERM as u64 * (nb * nk) as u64);
            bgw_par::parallel_fill(&mut band, point_cost, |gi, slot| {
                let e = grid[gi];
                let mut corr = Complex64::ZERO;
                for n in 0..nb {
                    let occupied = n < ctx.n_occ;
                    let den = e - ctx.energies[n];
                    for k in 0..nk {
                        let wgt = weights[k] * inv_pi * q[k * nb + n];
                        let pole = if occupied {
                            c64(den + omegas[k], -eta).inv()
                        } else {
                            c64(den - omegas[k], eta).inv()
                        };
                        corr += pole.scale(wgt);
                    }
                }
                *slot = corr + Complex64::real(sigma_x);
            });
            let asm_flops = FF_FLOPS_PER_POLE_TERM as u64 * (grid.len() * nb * nk) as u64;
            bgw_trace::add_flops(asm_flops);
            flops += asm_flops;
        }
        sigma.push(band);
    }
    SigmaFfResult {
        sigma,
        e_grids: e_grids.to_vec(),
        seconds: t0.elapsed().as_secs_f64(),
        contracted_dim,
        flops,
    }
}

/// The retained scalar oracle: the pre-recast triple-loop kernel. Same
/// arithmetic per term as the pooled path (the only divergence is GEMM
/// summation order), so the two agree to well below 1e-12.
fn ff_sigma_impl_serial(
    ctx: &SigmaContext,
    spectral: &[CMatrix],
    omegas: &[f64],
    weights: &[f64],
    e_grids: &[Vec<f64>],
    eta: f64,
    sub: Option<&Subspace>,
) -> SigmaFfResult {
    check_ff_args(ctx, spectral, omegas, weights, e_grids);
    let _span = bgw_trace::span!("sigma.ff.serial");
    let t0 = Instant::now();
    let nb = ctx.n_b();
    let nk = omegas.len();
    let contracted_dim = sub.map_or(ctx.n_g(), |s| s.n_eig());
    let dim = contracted_dim;
    let inv_pi = 1.0 / std::f64::consts::PI;
    let mut flops: u64 = 0;

    let mut sigma = Vec::with_capacity(ctx.n_sigma());
    for (s, grid) in e_grids.iter().enumerate() {
        // Matrix elements for this Sigma band, possibly projected.
        let m = match sub {
            Some(su) => {
                flops += zgemm_flops(nb, ctx.n_g(), dim);
                su.project_rows(&ctx.m_tilde[s])
            }
            None => ctx.m_tilde[s].clone(),
        };
        // Precompute q_k(n) = m_n^dagger B_k m_n for all (k, n).
        let mut q = vec![0.0f64; nk * nb];
        for (k, b) in spectral.iter().enumerate() {
            for n in 0..nb {
                let row = m.row(n);
                // bilinear form; B is Hermitian so the result is real.
                let mut acc = Complex64::ZERO;
                for (i, &mi) in row.iter().enumerate() {
                    let mut inner = Complex64::ZERO;
                    for (j, &mj) in row.iter().enumerate() {
                        inner = inner.mul_add(b[(i, j)], mj);
                    }
                    acc = acc.conj_mul_add(mi, inner);
                }
                q[k * nb + n] = real_part_checked(acc);
            }
        }
        // The scalar loops execute the same multiply-adds the ZGEMM recast
        // batches, so the count is the identical model (minus the GEMMs,
        // which self-attribute — here there are none, so charge it all).
        let qk_flops = nk as u64 * zgemm_flops(nb, dim, dim)
            + FF_FLOPS_PER_DOT_TERM as u64 * (nk * nb * dim) as u64;
        bgw_trace::add_flops(qk_flops);
        flops += qk_flops;
        // Bare exchange (occupied bands only): -sum |m~|^2 in the full
        // basis. Projection would truncate exchange, so always use the
        // unprojected matrix elements for Sigma^x.
        let mx = &ctx.m_tilde[s];
        let mut sigma_x = 0.0;
        for n in 0..ctx.n_occ {
            sigma_x -= mx.row(n).iter().map(|z| z.norm_sqr()).sum::<f64>();
        }
        let exch_flops = FF_FLOPS_PER_EXCHANGE_TERM as u64 * (ctx.n_occ * ctx.n_g()) as u64;
        bgw_trace::add_flops(exch_flops);
        flops += exch_flops;
        // Assemble Sigma(E) on this band's grid.
        let mut band = Vec::with_capacity(grid.len());
        for &e in grid {
            let mut corr = Complex64::ZERO;
            for n in 0..nb {
                let occupied = n < ctx.n_occ;
                let den = e - ctx.energies[n];
                for k in 0..nk {
                    let wgt = weights[k] * inv_pi * q[k * nb + n];
                    let pole = if occupied {
                        c64(den + omegas[k], -eta).inv()
                    } else {
                        c64(den - omegas[k], eta).inv()
                    };
                    corr += pole.scale(wgt);
                }
            }
            band.push(corr + Complex64::real(sigma_x));
        }
        let asm_flops = FF_FLOPS_PER_POLE_TERM as u64 * (grid.len() * nb * nk) as u64;
        bgw_trace::add_flops(asm_flops);
        flops += asm_flops;
        sigma.push(band);
    }
    SigmaFfResult {
        sigma,
        e_grids: e_grids.to_vec(),
        seconds: t0.elapsed().as_secs_f64(),
        contracted_dim,
        flops,
    }
}

/// Anti-Hermitian (spectral) part `(A - A^dagger) / 2i` of a matrix; the
/// result is Hermitian.
pub fn anti_hermitian_part(a: &CMatrix) -> CMatrix {
    assert!(a.is_square());
    CMatrix::from_fn(a.nrows(), a.ncols(), |i, j| {
        let d = a[(i, j)] - a[(j, i)].conj();
        // d / 2i = -i d / 2
        c64(d.im * 0.5, -d.re * 0.5)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::{ChiConfig, ChiEngine};
    use crate::coulomb::Coulomb;
    use crate::mtxel::Mtxel;
    use crate::sigma::diag::{gpp_sigma_diag, KernelVariant};
    use crate::testkit;
    use bgw_num::grid::semi_infinite_quadrature;

    fn build_ff_eps() -> (EpsilonInverse, Vec<f64>) {
        let (_, setup) = testkit::small_context();
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        let engine = ChiEngine::new(&setup.wf, &mtxel, ChiConfig::default());
        let (nodes, weights) = semi_infinite_quadrature(12, 2.0);
        let (chis, _) = engine.chi_freqs(&nodes);
        let eps = EpsilonInverse::build(&chis, &nodes, &Coulomb::bulk(), &setup.eps_sph)
            .expect("dielectric matrix must be invertible");
        (eps, weights)
    }

    /// Full-frequency Sigma on the full basis through the retained scalar
    /// oracle — the pre-recast triple-loop kernel the pooled path must
    /// match to 1e-12 (`pooled_matches_serial_oracle_across_pool_sizes`).
    fn ff_sigma_diag_serial(
        ctx: &SigmaContext,
        eps_ff: &EpsilonInverse,
        weights: &[f64],
        e_grids: &[Vec<f64>],
        eta: f64,
    ) -> SigmaFfResult {
        let spectral = spectral_weights(eps_ff);
        ff_sigma_impl_serial(ctx, &spectral, &eps_ff.omegas, weights, e_grids, eta, None)
    }

    #[test]
    fn anti_hermitian_part_is_hermitian() {
        let a = CMatrix::random(6, 6, 3);
        let b = anti_hermitian_part(&a);
        assert!(b.hermiticity_error() <= 1e-12);
        // for Hermitian input the spectral part vanishes
        let h = CMatrix::random_hermitian(6, 4);
        assert!(anti_hermitian_part(&h).max_abs() < 1e-12);
    }

    #[test]
    fn ff_sigma_has_gw_structure() {
        let (ctx, _) = testkit::small_context();
        let (eps_ff, weights) = build_ff_eps();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let r = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05);
        assert_eq!(r.contracted_dim, ctx.n_g());
        // valence Sigma below conduction Sigma (gap opens), as in GPP
        let homo = r.sigma[ctx.homo_pos()][0].re;
        let lumo = r.sigma[ctx.lumo_pos()][0].re;
        assert!(homo < lumo, "FF: Sigma_HOMO {homo} !< Sigma_LUMO {lumo}");
        assert!(homo < 0.0, "occupied FF Sigma must be negative: {homo}");
    }

    #[test]
    fn ff_and_gpp_agree_in_sign_and_scale() {
        let (ctx, _) = testkit::small_context();
        let (eps_ff, weights) = build_ff_eps();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let ff = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05);
        let gpp = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
        for s in 0..ctx.n_sigma() {
            let a = ff.sigma[s][0].re;
            let b = gpp.sigma[s][0];
            assert!(
                a.signum() == b.signum() && (a / b).abs() < 10.0 && (b / a).abs() < 10.0,
                "band {s}: FF {a} vs GPP {b}"
            );
        }
    }

    #[test]
    fn subspace_ff_converges_to_full() {
        let (ctx, setup) = testkit::small_context();
        let (eps_ff, weights) = build_ff_eps();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let full = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05);
        let n_g = ctx.n_g();
        let err_at = |n_eig: usize| {
            let sub = Subspace::from_chi0(&setup.chi0, &setup.vsqrt, n_eig);
            let r = ff_sigma_diag_subspace(&ctx, &eps_ff, &weights, &grids, 0.05, &sub);
            (0..ctx.n_sigma())
                .map(|s| (r.sigma[s][0].re - full.sigma[s][0].re).abs())
                .fold(0.0, f64::max)
        };
        let e_full = err_at(n_g);
        assert!(e_full < 1e-8, "full subspace must be exact: {e_full}");
        let e_half = err_at((n_g / 2).max(2));
        let e_small = err_at((n_g / 6).max(1));
        assert!(
            e_half <= e_small + 1e-9,
            "error must not grow with N_Eig: {e_half} vs {e_small}"
        );
    }

    #[test]
    fn subspace_contraction_is_cheaper() {
        let (ctx, setup) = testkit::small_context();
        let (eps_ff, weights) = build_ff_eps();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let sub = Subspace::from_chi0(&setup.chi0, &setup.vsqrt, (ctx.n_g() / 5).max(1));
        let r = ff_sigma_diag_subspace(&ctx, &eps_ff, &weights, &grids, 0.05, &sub);
        assert!(r.contracted_dim < ctx.n_g());
        let full = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05);
        assert!(
            r.flops < full.flops,
            "subspace contraction must count fewer FLOPs: {} vs {}",
            r.flops,
            full.flops
        );
    }

    /// Satellite: serial-vs-pooled parity to 1e-12 across pool sizes 1-4,
    /// full basis and subspace variants. The pooled assembly performs the
    /// identical per-term arithmetic in the identical order, so the only
    /// divergence is the blocked-GEMM summation order in `q_k(n)`.
    #[test]
    fn pooled_matches_serial_oracle_across_pool_sizes() {
        let (ctx, setup) = testkit::small_context();
        let (eps_ff, weights) = build_ff_eps();
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e - 0.05, e, e + 0.05])
            .collect();
        let sub = Subspace::from_chi0(&setup.chi0, &setup.vsqrt, (ctx.n_g() / 2).max(2));
        let oracle_full = ff_sigma_diag_serial(&ctx, &eps_ff, &weights, &grids, 0.05);
        let oracle_sub = ff_sigma_diag_subspace_serial(&ctx, &eps_ff, &weights, &grids, 0.05, &sub);
        let max_diff = |a: &SigmaFfResult, b: &SigmaFfResult| {
            let mut worst = 0.0f64;
            for (ba, bb) in a.sigma.iter().zip(&b.sigma) {
                for (za, zb) in ba.iter().zip(bb) {
                    worst = worst.max((*za - *zb).abs());
                }
            }
            worst
        };
        for threads in 1..=4usize {
            bgw_par::set_num_threads(threads);
            let pooled_full = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05);
            let d_full = max_diff(&pooled_full, &oracle_full);
            assert!(
                d_full <= 1e-12,
                "pool size {threads}: full-basis deviation {d_full:e}"
            );
            let pooled_sub = ff_sigma_diag_subspace(&ctx, &eps_ff, &weights, &grids, 0.05, &sub);
            let d_sub = max_diff(&pooled_sub, &oracle_sub);
            assert!(
                d_sub <= 1e-12,
                "pool size {threads}: subspace deviation {d_sub:e}"
            );
            // counted FLOPs are shape-only, so the two paths agree exactly
            assert_eq!(pooled_full.flops, oracle_full.flops);
            assert_eq!(pooled_sub.flops, oracle_sub.flops);
        }
        bgw_par::set_num_threads(0);
    }

    #[test]
    fn counted_flops_match_the_model() {
        let (ctx, _) = testkit::small_context();
        let (eps_ff, weights) = build_ff_eps();
        let n_e = 3;
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e - 0.05, e, e + 0.05])
            .collect();
        let r = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05);
        let model = bgw_perf::flopmodel::ff_sigma_flops(
            ctx.n_sigma(),
            eps_ff.n_freq(),
            ctx.n_b(),
            ctx.n_g(),
            ctx.n_g(),
            ctx.n_occ,
            n_e,
            false,
        );
        assert_eq!(r.flops as f64, model, "counted vs model mismatch");
    }

    /// Satellite: a deliberately non-Hermitian spectral weight must not be
    /// silently truncated — the drop is counted (and asserts in debug).
    #[test]
    fn non_hermitian_spectral_weight_is_surfaced() {
        let _guard = bgw_perf::counters::exclusive_test_guard();
        let (ctx, _) = testkit::small_context();
        let n_g = ctx.n_g();
        // Purely imaginary with a *symmetric* pattern: B^dagger = -B, so
        // the bilinear form m^dagger B m is purely imaginary — every band
        // trips the Hermiticity guard. (An antisymmetric imaginary pattern
        // would be Hermitian and stay quiet.)
        let b = CMatrix::from_fn(n_g, n_g, |i, j| c64(0.0, 1.0 + (i + j) as f64 * 0.1));
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let before = bgw_perf::counters::snapshot();
        let run = || {
            ff_sigma_impl(
                &ctx,
                std::slice::from_ref(&b),
                &[1.0],
                &[1.0],
                &grids,
                0.05,
                None,
            )
        };
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            assert!(r.is_err(), "debug build must trip the Hermiticity guard");
        } else {
            let _ = run();
        }
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert!(
            d.ff_hermiticity_drops >= 1,
            "dropped spectral weight must be counted"
        );
    }

    #[test]
    fn hermitian_forms_stay_quiet() {
        let _guard = bgw_perf::counters::exclusive_test_guard();
        let before = bgw_perf::counters::snapshot();
        // Roundoff-scale residue on an O(1) form: within tolerance.
        assert_eq!(real_part_checked(c64(2.0, 1e-9)), 2.0);
        // Tiny forms are judged against the absolute floor of 1.
        assert_eq!(real_part_checked(c64(1e-30, 1e-9)), 1e-30);
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert_eq!(d.ff_hermiticity_drops, 0);
    }
}
