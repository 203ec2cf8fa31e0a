//! The GPP *off-diag.* kernel (paper Sec. 5.6): the full self-energy matrix
//! `Sigma_lm({E_i})` on a uniform energy grid, recast as dense matrix
//! multiplication.
//!
//! For each `(n, E_i)` pair the band/frequency-dependent inner matrix
//! `P^{(n,E)}_GG'` is precomputed (*prep.* step, reusing the diag-kernel
//! optimizations), then two ZGEMMs produce the contribution to all
//! `N_Sigma^2` matrix elements at once:
//! `Sigma^{(n,E)} = conj(B_n) P B_n^T` with `B_n` the `(N_Sigma x N_G)`
//! slice of symmetrized matrix elements. FLOPs are counted from the ZGEMMs
//! only (paper Eq. 8), while the `sigma.offdiag` span's time includes the
//! prep step — the same lower-bound convention the paper uses.

use super::{gpp_factor, gpp_row_cost, SigmaContext};
use bgw_linalg::{zgemm, CMatrix, Op};
use bgw_num::UniformGrid;
use bgw_num::{c64, Complex64};

/// Result of an off-diag kernel run.
#[derive(Clone, Debug)]
pub struct SigmaOffdiagResult {
    /// `sigma[e]` is the `(N_Sigma x N_Sigma)` matrix `Sigma_lm(E_e)` (Ry).
    pub sigma: Vec<CMatrix>,
    /// The shared uniform energy grid (Ry).
    pub e_grid: UniformGrid,
    /// ZGEMM-only FLOPs (paper Eq. 8 convention).
    pub zgemm_flops: u64,
}

/// Runs the off-diagonal GPP kernel on the uniform grid `e_grid`.
pub fn gpp_sigma_offdiag(ctx: &SigmaContext, e_grid: &UniformGrid) -> SigmaOffdiagResult {
    let _span = bgw_trace::span!("sigma.offdiag");
    let ns = ctx.n_sigma();
    let ng = ctx.n_g();
    let nb = ctx.n_b();
    let ne = e_grid.len();
    let mut zgemm_flops = 0u64;
    let mut sigma = vec![CMatrix::zeros(ns, ns); ne];

    // B_n: (N_Sigma x N_G) slice of m~ for fixed n.
    let mut b_n = CMatrix::zeros(ns, ng);
    let mut p = CMatrix::zeros(ng, ng);
    for n in 0..nb {
        let occupied = n < ctx.n_occ;
        let en = ctx.energies[n];
        for s in 0..ns {
            b_n.row_mut(s).copy_from_slice(ctx.m_tilde[s].row(n));
        }
        // conj(B_n) once per n (P is real, so conj(B) P B^T =
        // conj(B) * (P B^T) and we fold the conjugation into the operand).
        let b_conj = b_n.conj();
        for (ei, &e) in e_grid.points.iter().enumerate() {
            let de = e - en;
            // Fill the (real) GPP P-matrix row-parallel on the worker pool;
            // rows are independent and this prep step bounds the ZGEMM rate.
            bgw_par::parallel_rows(p.as_mut_slice(), ng, gpp_row_cost(ng), |g, row| {
                for (gp, z) in row.iter_mut().enumerate() {
                    *z = c64(gpp_factor(&ctx.gpp, g, gp, de, occupied), 0.0);
                }
            });
            // T = P * B_n^T  (N_G x N_Sigma)
            let mut t = CMatrix::zeros(ng, ns);
            zgemm(
                Complex64::ONE,
                &p,
                Op::None,
                &b_n,
                Op::Trans,
                Complex64::ZERO,
                &mut t,
            );
            // Sigma(E) += conj(B_n) * T   (N_Sigma x N_Sigma)
            zgemm(
                Complex64::ONE,
                &b_conj,
                Op::None,
                &t,
                Op::None,
                Complex64::ONE,
                &mut sigma[ei],
            );
            zgemm_flops +=
                bgw_linalg::zgemm_flops(ng, ng, ns) + bgw_linalg::zgemm_flops(ns, ng, ns);
        }
    }
    SigmaOffdiagResult {
        sigma,
        e_grid: e_grid.clone(),
        zgemm_flops,
    }
}

/// Paper Eq. 8: the analytic ZGEMM FLOP count for given sizes.
pub fn offdiag_flops_eq8(n_b: usize, n_e: usize, n_sigma: usize, n_g: usize) -> u64 {
    2 * n_b as u64
        * n_e as u64
        * 8
        * (n_sigma as u64 * (n_g as u64).pow(2) + n_g as u64 * (n_sigma as u64).pow(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigma::diag::{gpp_sigma_diag, KernelVariant};
    use crate::testkit;

    #[test]
    fn diagonal_matches_diag_kernel() {
        let (ctx, _) = testkit::small_context();
        let grid = UniformGrid::new(
            ctx.sigma_energies[0] - 0.2,
            *ctx.sigma_energies.last().unwrap() + 0.2,
            4,
        );
        let off = gpp_sigma_offdiag(&ctx, &grid);
        // diag kernel on the same grid for every band
        let grids: Vec<Vec<f64>> = (0..ctx.n_sigma()).map(|_| grid.points.clone()).collect();
        let diag = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
        for s in 0..ctx.n_sigma() {
            for (ei, _) in grid.points.iter().enumerate() {
                let a = off.sigma[ei][(s, s)].re;
                let b = diag.sigma[s][ei];
                assert!(
                    (a - b).abs() < 1e-8 * (1.0 + b.abs()),
                    "({s},{ei}): offdiag {a} vs diag {b}"
                );
            }
        }
    }

    #[test]
    fn sigma_matrix_is_hermitian() {
        let (ctx, _) = testkit::small_context();
        let grid = UniformGrid::new(-1.0, 1.0, 3);
        let off = gpp_sigma_offdiag(&ctx, &grid);
        for (ei, s) in off.sigma.iter().enumerate() {
            assert!(
                s.hermiticity_error() <= 1e-8,
                "Sigma(E_{ei}) Hermiticity error {}",
                s.hermiticity_error()
            );
        }
    }

    #[test]
    fn zgemm_flop_count_matches_eq8() {
        let (ctx, _) = testkit::small_context();
        let grid = UniformGrid::new(-0.5, 0.5, 3);
        let off = gpp_sigma_offdiag(&ctx, &grid);
        // Our loop performs exactly 2 ZGEMMs per (n, E); Eq. 8 charges the
        // same  8(Ns Ng^2 + Ng Ns^2) per pair with a leading factor 2 N_b
        // N_E. Our counted flops are half of Eq. 8's bound because the
        // paper's factor 2 counts the *pair* of ZGEMMs whose sizes are
        // already summed inside the parenthesis; verify the exact relation.
        let eq8 = offdiag_flops_eq8(ctx.n_b(), grid.len(), ctx.n_sigma(), ctx.n_g());
        assert_eq!(off.zgemm_flops * 2, eq8);
    }

    #[test]
    fn prep_and_zgemms_run_inside_the_offdiag_span() {
        // The span is the kernel's one clock: its time includes the prep
        // step because every prep region and every ZGEMM runs inside it.
        // Tracing is process-wide and the other tests of this binary may
        // run kernels meanwhile, so the counts are lower bounds.
        let _guard = bgw_perf::counters::exclusive_test_guard();
        let (ctx, _) = testkit::small_context();
        let grid = UniformGrid::new(-0.5, 0.5, 2);
        bgw_trace::reset();
        bgw_trace::set_enabled(true);
        gpp_sigma_offdiag(&ctx, &grid);
        bgw_trace::set_enabled(false);
        let rep = bgw_trace::report();
        let span = rep.find("sigma.offdiag").expect("sigma.offdiag span");
        let pairs = (ctx.n_b() * grid.len()) as u64;
        let calls = |child: &str| {
            rep.find(&format!("sigma.offdiag/{child}"))
                .map_or(0, |s| s.calls)
        };
        assert!(calls("gemm") >= 2 * pairs, "two ZGEMMs per (n, E)");
        assert!(
            calls("par.region") + calls("par.inline") >= pairs,
            "one prep region per (n, E)"
        );
        assert!(span.incl_ns > 0);
        bgw_trace::reset();
    }
}
