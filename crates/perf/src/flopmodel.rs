//! FLOP-count models (paper Sec. 6, Eqs. 7-8, Table 3).
//!
//! The diag kernel's count is `alpha * N_Sigma N_b N_G^2 N_E` with an
//! architecture/compiler prefactor `alpha` measured by a profiler
//! (ROCm / Intel Advisor in the paper, our instrumented counters here);
//! the off-diag kernel is charged for its ZGEMMs only.

/// Architecture prefactor measured on Frontier (paper Sec. 6).
pub const ALPHA_FRONTIER: f64 = 83.50;
/// Architecture prefactor measured on Aurora (paper Sec. 6).
pub const ALPHA_AURORA: f64 = 94.27;

/// Eq. 7: estimated FLOPs of the GPP diag kernel.
pub fn gpp_diag_flops(alpha: f64, n_sigma: usize, n_b: usize, n_g: usize, n_e: usize) -> f64 {
    alpha * n_sigma as f64 * n_b as f64 * (n_g as f64).powi(2) * n_e as f64
}

/// Eq. 8: ZGEMM FLOPs of the GPP off-diag kernel.
pub fn gpp_offdiag_flops(n_b: usize, n_e: usize, n_sigma: usize, n_g: usize) -> f64 {
    let ns = n_sigma as f64;
    let ng = n_g as f64;
    2.0 * n_b as f64 * n_e as f64 * 8.0 * (ns * ng * ng + ng * ns * ns)
}

/// FLOPs charged per pole term of the FF Sigma assembly: one complex
/// reciprocal (6), the denominator shift (1), the `w_k / pi * q` weight
/// fold (2), the pole scale (2), and the accumulate (2).
pub const FF_FLOPS_PER_POLE_TERM: f64 = 13.0;
/// FLOPs per element of the row-wise `conj(m) . y` dot (one complex
/// fused multiply-add).
pub const FF_FLOPS_PER_DOT_TERM: f64 = 8.0;
/// FLOPs per element of the bare-exchange `-sum |m|^2` reduction.
pub const FF_FLOPS_PER_EXCHANGE_TERM: f64 = 4.0;

/// FLOPs of the full-frequency Sigma quadrature in its ZGEMM recast
/// (paper Sec. 5.2): per Sigma band, an optional subspace projection
/// `M~ = M V` (`8 N_b N_G N_dim`), one `Y_k = M B_k^T` ZGEMM per
/// quadrature node (`8 N_b N_dim^2` each), the pooled row-wise dots, the
/// bare exchange, and the pole assembly over the `N_E`-point energy grid.
///
/// This is the exact count the instrumented `sigma.ff` span attributes,
/// so span-vs-model validation for FF is an identity check like Eq. 8.
#[allow(clippy::too_many_arguments)]
pub fn ff_sigma_flops(
    n_sigma: usize,
    n_k: usize,
    n_b: usize,
    dim: usize,
    n_g: usize,
    n_occ: usize,
    n_e: usize,
    projected: bool,
) -> f64 {
    let (nk, nb, dim_f, ng, nocc, ne) = (
        n_k as f64,
        n_b as f64,
        dim as f64,
        n_g as f64,
        n_occ as f64,
        n_e as f64,
    );
    let proj = if projected {
        8.0 * nb * ng * dim_f
    } else {
        0.0
    };
    let gemm = 8.0 * nb * dim_f * dim_f * nk;
    let dots = FF_FLOPS_PER_DOT_TERM * nk * nb * dim_f;
    let exch = FF_FLOPS_PER_EXCHANGE_TERM * nocc * ng;
    let assemble = FF_FLOPS_PER_POLE_TERM * ne * nb * nk;
    n_sigma as f64 * (proj + gemm + dots + exch + assemble)
}

/// FLOPs charged per entry of the imaginary-axis kernel table
/// `dz / (dz^2 + u_k^2)`: the shift (1) and one complex divide (11).
/// `dz^2` is hoisted out of the node loop.
pub const IMAG_FLOPS_PER_KERNEL_TERM: f64 = 12.0;
/// FLOPs per term of a `Sigma^c(i w_j)` sum: scale the table entry by
/// `w_k / pi * q_k(n)` (2) and accumulate (2).
pub const IMAG_FLOPS_PER_SAMPLE_TERM: f64 = 4.0;

/// FLOPs of the imaginary-axis Sigma quadrature in its ZGEMM recast: per
/// Sigma band and quadrature node one `Y = M~ C_k^T` ZGEMM
/// (`8 N_b N_G^2`) and `N_b` row-wise dots, then the sample assembly —
/// the `N_iw N_b N_k` kernel table, built once, the `w_k / pi` fold into
/// `q_k(n)` (one multiply each) and the table's contraction with it per
/// Sigma band. The bare exchange and the Pade continuation are not
/// charged (`O(N_G)` and `O(N_iw^2)` per band).
///
/// This is the exact count the `sigma.imagaxis` span attributes, an
/// identity check like [`ff_sigma_flops`].
pub fn imagaxis_sigma_flops(
    n_sigma: usize,
    n_k: usize,
    n_b: usize,
    n_g: usize,
    n_iw: usize,
) -> f64 {
    let (ns, nk, nb, ng, niw) = (
        n_sigma as f64,
        n_k as f64,
        n_b as f64,
        n_g as f64,
        n_iw as f64,
    );
    let gemm = 8.0 * nb * ng * ng;
    let dots = FF_FLOPS_PER_DOT_TERM * nb * ng;
    let table = IMAG_FLOPS_PER_KERNEL_TERM * niw * nb * nk;
    let fold = ns * nb * nk;
    let sums = IMAG_FLOPS_PER_SAMPLE_TERM * ns * niw * nb * nk;
    ns * nk * (gemm + dots) + table + fold + sums
}

/// FLOPs of one dense complex LU inversion of an `n x n` matrix:
/// factorization (`8/3 n^3`) plus the `n`-RHS triangular solves
/// (`8 n^3`), the model attributed to the `epsilon.invert` span.
pub fn epsilon_invert_flops(n: usize) -> f64 {
    let nf = n as f64;
    (8.0 / 3.0) * nf.powi(3) + 8.0 * nf.powi(3)
}

/// One row of a Table 3-style validation: estimated vs measured FLOPs.
#[derive(Clone, Copy, Debug)]
pub struct FlopRow {
    /// `N_Sigma`.
    pub n_sigma: usize,
    /// `N_b`.
    pub n_b: usize,
    /// `N_G`.
    pub n_g: usize,
    /// `N_E`.
    pub n_e: usize,
    /// Estimated TFLOP from the linear model.
    pub est_tflop: f64,
    /// Measured TFLOP (instrumented counters).
    pub meas_tflop: f64,
}

impl FlopRow {
    /// The paper's accuracy metric: `100 * (1 - |est - meas| / meas)`.
    pub fn accuracy_pct(&self) -> f64 {
        100.0 * (1.0 - (self.est_tflop - self.meas_tflop).abs() / self.meas_tflop)
    }
}

/// The paper's Table 3 rows (Frontier block then Aurora block), used to
/// cross-check the published linear relationship.
pub fn paper_table3() -> Vec<(char, FlopRow)> {
    let row = |m: char, ns, nb, ng, ne, est, meas| {
        (
            m,
            FlopRow {
                n_sigma: ns,
                n_b: nb,
                n_g: ng,
                n_e: ne,
                est_tflop: est,
                meas_tflop: meas,
            },
        )
    };
    vec![
        row('F', 2, 5_000, 3_911, 3, 38.32, 38.55),
        row('F', 4, 15_045, 26_529, 3, 10_609.67, 10_564.75),
        row('F', 8, 6_340, 11_075, 4, 2_077.88, 2_064.84),
        row('A', 2, 3_000, 11_075, 6, 416.27, 415.17),
        row('A', 1, 5_000, 11_075, 6, 346.89, 345.89),
        row('A', 1, 2_000, 11_075, 6, 138.76, 139.42),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq7_matches_paper_estimates() {
        // each Table 3 row's Est. column must equal Eq. 7 with the stated
        // machine prefactor (to rounding in the paper).
        for (m, row) in paper_table3() {
            let alpha = if m == 'F' {
                ALPHA_FRONTIER
            } else {
                ALPHA_AURORA
            };
            let est = gpp_diag_flops(alpha, row.n_sigma, row.n_b, row.n_g, row.n_e) / 1e12;
            assert!(
                (est - row.est_tflop).abs() / row.est_tflop < 0.01,
                "row {row:?}: eq7 gives {est}"
            );
        }
    }

    #[test]
    fn paper_accuracies_are_above_99_pct() {
        for (_, row) in paper_table3() {
            let acc = row.accuracy_pct();
            assert!(acc > 99.0 && acc <= 100.0, "accuracy {acc}");
        }
    }

    #[test]
    fn ff_sigma_model_scales_like_its_gemms() {
        let base = ff_sigma_flops(4, 10, 40, 100, 200, 10, 3, false);
        // linear in N_Sigma
        let double = ff_sigma_flops(8, 10, 40, 100, 200, 10, 3, false);
        assert!((double / base - 2.0).abs() < 1e-12);
        // at large dim the per-frequency ZGEMMs dominate: dim -> 2 dim ~ 4x
        let big = ff_sigma_flops(4, 10, 40, 200, 200, 10, 3, false);
        assert!(big / base > 3.5 && big / base < 4.1, "{}", big / base);
        // the subspace projection charges exactly 8 N_b N_G dim more per band
        let proj = ff_sigma_flops(4, 10, 40, 100, 200, 10, 3, true);
        assert!((proj - base - 4.0 * 8.0 * 40.0 * 200.0 * 100.0).abs() < 1.0);
    }

    #[test]
    fn imagaxis_model_is_its_gemms_plus_the_sample_assembly() {
        let base = imagaxis_sigma_flops(8, 16, 186, 81, 16);
        let gemm_and_dots = 8.0 * 16.0 * (8.0 * 186.0 * 81.0 * 81.0 + 8.0 * 186.0 * 81.0);
        let per_band = 186.0 * 16.0 * (1.0 + 4.0 * 16.0);
        let table = 12.0 * 16.0 * 186.0 * 16.0;
        assert_eq!(base, gemm_and_dots + 8.0 * per_band + table);
        // the kernel table is shared by the Sigma bands: doubling N_Sigma
        // doubles everything but it
        assert_eq!(
            2.0 * base - imagaxis_sigma_flops(16, 16, 186, 81, 16),
            table
        );
    }

    #[test]
    fn epsilon_invert_model_is_cubic() {
        let ratio = epsilon_invert_flops(64) / epsilon_invert_flops(32);
        assert!((ratio - 8.0).abs() < 1e-12);
        assert_eq!(epsilon_invert_flops(3), (8.0 / 3.0) * 27.0 + 8.0 * 27.0);
    }

    #[test]
    fn eq8_scaling() {
        let base = gpp_offdiag_flops(100, 10, 64, 1000);
        // doubling N_b doubles the count
        assert!((gpp_offdiag_flops(200, 10, 64, 1000) / base - 2.0).abs() < 1e-12);
        // N_G^2 dominates for N_G >> N_Sigma
        let big = gpp_offdiag_flops(100, 10, 64, 2000);
        assert!(big / base > 3.5 && big / base < 4.1);
    }
}
