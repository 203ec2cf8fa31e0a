//! LU decomposition with partial pivoting for complex matrices.
//!
//! The dielectric-matrix inversion `eps^{-1} = [I - v chi]^{-1}` (paper
//! Eq. 3) is a dense complex inversion; on the machines in the paper it is
//! dispatched to ScaLAPACK/vendor solvers, here to this module.

use crate::matrix::CMatrix;
use bgw_num::Complex64;

/// A pivoted LU factorization `P A = L U`.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Packed factors: `U` on and above the diagonal, unit-diagonal `L`
    /// strictly below.
    lu: CMatrix,
    /// Row permutation: `piv[i]` is the original row now in position `i`.
    piv: Vec<usize>,
}

/// Error returned when a matrix is numerically singular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Elimination column at which no usable pivot remained.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular at elimination column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrix {}

impl Lu {
    /// Factorizes a square matrix.
    pub fn new(a: &CMatrix) -> Result<Self, SingularMatrix> {
        assert!(a.is_square(), "LU needs a square matrix");
        let n = a.nrows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: largest modulus in column k at or below row k.
            let mut best = k;
            let mut best_mag = lu[(k, k)].abs();
            for i in k + 1..n {
                let mag = lu[(i, k)].abs();
                if mag > best_mag {
                    best = i;
                    best_mag = mag;
                }
            }
            if best_mag == 0.0 || !best_mag.is_finite() {
                return Err(SingularMatrix { column: k });
            }
            if best != k {
                // swap rows k and best
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(best, j)];
                    lu[(best, j)] = t;
                }
                piv.swap(k, best);
            }
            let pivot_inv = lu[(k, k)].inv();
            for i in k + 1..n {
                let factor = lu[(i, k)] * pivot_inv;
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(Self { lu, piv })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b` for a single right-hand side.
    #[allow(clippy::needless_range_loop)] // triangular solves index partial ranges
    pub fn solve_vec(&self, b: &[Complex64]) -> Vec<Complex64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation, then forward/back substitution.
        let mut x: Vec<Complex64> = self.piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc * self.lu[(i, i)].inv();
        }
        x
    }

    /// Solves `A X = B` column by column.
    pub fn solve(&self, b: &CMatrix) -> CMatrix {
        let n = self.dim();
        assert_eq!(b.nrows(), n, "rhs rows mismatch");
        let mut x = CMatrix::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let col: Vec<Complex64> = (0..n).map(|i| b[(i, j)]).collect();
            let sol = self.solve_vec(&col);
            for i in 0..n {
                x[(i, j)] = sol[i];
            }
        }
        x
    }

    /// Computes `A^{-1}`.
    pub fn inverse(&self) -> CMatrix {
        self.solve(&CMatrix::identity(self.dim()))
    }
}

/// One-shot inverse of a square matrix.
pub fn invert(a: &CMatrix) -> Result<CMatrix, SingularMatrix> {
    Ok(Lu::new(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use bgw_num::c64;

    #[test]
    fn solve_known_system() {
        // [[2, 1], [1, 3]] x = [5, 10] -> x = [1, 3]
        let a = CMatrix::from_vec(
            2,
            2,
            vec![c64(2.0, 0.0), c64(1.0, 0.0), c64(1.0, 0.0), c64(3.0, 0.0)],
        );
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_vec(&[c64(5.0, 0.0), c64(10.0, 0.0)]);
        assert!((x[0] - c64(1.0, 0.0)).abs() < 1e-13);
        assert!((x[1] - c64(3.0, 0.0)).abs() < 1e-13);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        for &n in &[1usize, 2, 5, 12, 30] {
            let a = CMatrix::random(n, n, n as u64 + 100);
            let inv = invert(&a).unwrap();
            let prod = matmul(&a, Op::None, &inv, Op::None);
            assert!(
                prod.max_abs_diff(&CMatrix::identity(n)) < 1e-9,
                "n = {n}: {}",
                prod.max_abs_diff(&CMatrix::identity(n))
            );
        }
    }

    #[test]
    fn solve_matches_direct_multiply() {
        let n = 10;
        let a = CMatrix::random(n, n, 3);
        let x_true = CMatrix::random(n, 3, 4);
        let b = matmul(&a, Op::None, &x_true, Op::None);
        let x = Lu::new(&a).unwrap().solve(&b);
        assert!(x.max_abs_diff(&x_true) < 1e-9);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = CMatrix::zeros(3, 3);
        a[(0, 0)] = c64(1.0, 0.0);
        a[(1, 1)] = c64(1.0, 0.0);
        // third row/col all zeros -> singular
        let err = Lu::new(&a).unwrap_err();
        assert_eq!(err.column, 2);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn complex_valued_system() {
        let a = CMatrix::from_vec(
            2,
            2,
            vec![c64(0.0, 1.0), c64(1.0, 0.0), c64(1.0, 0.0), c64(0.0, -1.0)],
        );
        // det = i*(-i) - 1 = 1 - 1 = 0: the second pivot is exactly zero.
        assert!(Lu::new(&a).is_err());
        let b = CMatrix::from_vec(
            2,
            2,
            vec![c64(0.0, 2.0), c64(1.0, 0.0), c64(1.0, 0.0), c64(0.0, -1.0)],
        );
        let inv = invert(&b).unwrap();
        let prod = matmul(&b, Op::None, &inv, Op::None);
        assert!(prod.max_abs_diff(&CMatrix::identity(2)) < 1e-12);
    }
}
