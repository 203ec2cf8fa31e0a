//! Hermitian eigensolver.
//!
//! Used by the static subspace approximation (paper Sec. 5.2: diagonalize
//! the zero-frequency polarizability and keep the `N_Eig` dominant
//! eigenvectors), by the `Diag` step of the Epsilon module (Fig. 3), and by
//! the full solution of Dyson's equation in the off-diagonal Sigma path.
//!
//! Algorithm: unitary Householder reduction of the Hermitian matrix to
//! complex tridiagonal form, a diagonal phase similarity making the
//! tridiagonal real symmetric, then the implicit-shift QL iteration
//! (EISPACK `tql2`) with eigenvector accumulation.

use crate::matrix::CMatrix;
use bgw_num::Complex64;

/// Eigendecomposition `A = V diag(w) V^dagger` of a Hermitian matrix.
#[derive(Clone, Debug)]
pub struct HermitianEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose `j`-th *column* is the eigenvector of
    /// `values[j]`.
    pub vectors: CMatrix,
}

/// Computes all eigenvalues and eigenvectors of a Hermitian matrix.
///
/// Only the Hermitian part of the input enters (tiny asymmetries from
/// accumulated roundoff are projected out). Panics if the QL iteration
/// exceeds its iteration budget, which signals non-finite input.
pub fn eigh(a: &CMatrix) -> HermitianEig {
    assert!(a.is_square(), "eigh needs a square matrix");
    let n = a.nrows();
    if n == 0 {
        return HermitianEig {
            values: vec![],
            vectors: CMatrix::zeros(0, 0),
        };
    }
    let mut m = a.hermitian_part();
    let mut q = CMatrix::identity(n);

    // --- Householder tridiagonalization -------------------------------
    for k in 0..n.saturating_sub(2) {
        let mut xnorm2 = 0.0;
        for i in k + 1..n {
            xnorm2 += m[(i, k)].norm_sqr();
        }
        let head = m[(k + 1, k)];
        let tail2 = xnorm2 - head.norm_sqr();
        if tail2 <= f64::EPSILON * f64::EPSILON * xnorm2.max(1e-300) {
            continue; // column already tridiagonal
        }
        let xnorm = xnorm2.sqrt();
        let phase = if head.abs() > 0.0 {
            head.scale(1.0 / head.abs())
        } else {
            Complex64::ONE
        };
        // v = x + e^{i theta} ||x|| e1; H = I - tau v v^dagger with
        // tau = 2/||v||^2 is Hermitian unitary and maps x to
        // -e^{i theta} ||x|| e1.
        let mut v = vec![Complex64::ZERO; n];
        for i in k + 1..n {
            v[i] = m[(i, k)];
        }
        v[k + 1] += phase.scale(xnorm);
        let vnorm2: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        let tau = 2.0 / vnorm2;

        // u = tau * M v ; only components i >= k are nonzero/needed, but
        // i < k rows of column k..n are zero anyway after prior steps.
        let mut u = vec![Complex64::ZERO; n];
        for (i, ui) in u.iter_mut().enumerate().take(n).skip(k) {
            let mut acc = Complex64::ZERO;
            let row = m.row(i);
            for j in k + 1..n {
                acc = acc.mul_add(row[j], v[j]);
            }
            *ui = acc.scale(tau);
        }
        // s = v^dagger u (real for Hermitian M); w = u - (tau s / 2) v.
        let s: Complex64 = v.iter().zip(&u).map(|(vi, ui)| vi.conj() * *ui).sum();
        let half_tau_s = s.scale(0.5 * tau);
        let w: Vec<Complex64> = u
            .iter()
            .zip(&v)
            .map(|(ui, vi)| *ui - *vi * half_tau_s)
            .collect();
        // Rank-2 update M -= v w^dagger + w v^dagger (rows/cols >= k).
        for i in k..n {
            let vi = v[i];
            let wi = w[i];
            let row = m.row_mut(i);
            for j in k..n {
                row[j] = row[j] - vi * w[j].conj() - wi * v[j].conj();
            }
        }
        // Accumulate Q <- Q * H = Q - tau (Q v) v^dagger.
        for i in 0..n {
            let mut qv = Complex64::ZERO;
            let qrow = q.row(i);
            for j in k + 1..n {
                qv = qv.mul_add(qrow[j], v[j]);
            }
            let qv_tau = qv.scale(tau);
            let qrow = q.row_mut(i);
            for j in k + 1..n {
                qrow[j] -= qv_tau * v[j].conj();
            }
        }
    }

    // --- Phase similarity: make the tridiagonal real ------------------
    let mut d = vec![0.0; n]; // diagonal
    let mut e = vec![0.0; n]; // e[i] couples i and i+1; e[n-1] unused
    {
        let mut dk = Complex64::ONE;
        for i in 0..n {
            d[i] = m[(i, i)].re;
            if i + 1 < n {
                let sub = m[(i + 1, i)];
                let mag = sub.abs();
                let phase = if mag > 0.0 {
                    sub.scale(1.0 / mag)
                } else {
                    Complex64::ONE
                };
                // Scale column i of Q by the accumulated phase d_i, and
                // propagate d_{i+1} = d_i * phase(e_i).
                for r in 0..n {
                    q[(r, i)] *= dk;
                }
                dk *= phase;
                e[i] = mag;
            } else {
                for r in 0..n {
                    q[(r, i)] *= dk;
                }
            }
        }
    }

    // --- Implicit-shift QL iteration (tql2) ---------------------------
    ql_implicit(&mut d, &mut e, &mut q);

    // --- Sort ascending ------------------------------------------------
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let vectors = CMatrix::from_fn(n, n, |r, c| q[(r, order[c])]);
    HermitianEig { values, vectors }
}

/// Convenience: eigenvalues only.
pub fn eigvalsh(a: &CMatrix) -> Vec<f64> {
    eigh(a).values
}

/// EISPACK `tql2`-style implicit QL with eigenvector accumulation.
/// `d` holds the diagonal, `e[i]` the coupling between `i` and `i+1`.
fn ql_implicit(d: &mut [f64], e: &mut [f64], z: &mut CMatrix) {
    let n = d.len();
    if n <= 1 {
        return;
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a negligible off-diagonal element.
            let mut mseg = l;
            while mseg + 1 < n {
                let dd = d[mseg].abs() + d[mseg + 1].abs();
                if e[mseg].abs() <= f64::EPSILON * dd {
                    break;
                }
                mseg += 1;
            }
            if mseg == l {
                break;
            }
            iter += 1;
            assert!(
                iter <= 50,
                "QL iteration failed to converge (non-finite input?)"
            );
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[mseg] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut i = mseg;
            let mut underflow = false;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[mseg] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate eigenvector columns i and i+1 (real Givens on
                // complex columns).
                for k in 0..z.nrows() {
                    let zi1 = z[(k, i + 1)];
                    let zi = z[(k, i)];
                    z[(k, i + 1)] = zi.scale(s) + zi1.scale(c);
                    z[(k, i)] = zi.scale(c) - zi1.scale(s);
                }
            }
            if underflow {
                continue; // retry this segment after deflation
            }
            d[l] -= p;
            e[l] = g;
            e[mseg] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use bgw_num::c64;

    fn check_decomposition(a: &CMatrix, tol: f64) {
        let n = a.nrows();
        let eig = eigh(a);
        assert_eq!(eig.values.len(), n);
        // ascending order
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "eigenvalues not sorted: {w:?}");
        }
        // V^dagger V = I
        let vhv = matmul(&eig.vectors, Op::Adj, &eig.vectors, Op::None);
        assert!(
            vhv.max_abs_diff(&CMatrix::identity(n)) < tol,
            "eigenvectors not orthonormal: {}",
            vhv.max_abs_diff(&CMatrix::identity(n))
        );
        // A V = V diag(w)
        let ah = a.hermitian_part();
        let av = matmul(&ah, Op::None, &eig.vectors, Op::None);
        let mut vw = eig.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                vw[(i, j)] = vw[(i, j)].scale(eig.values[j]);
            }
        }
        let scale = ah.frobenius_norm().max(1.0);
        assert!(
            av.max_abs_diff(&vw) < tol * scale,
            "A V != V W: {}",
            av.max_abs_diff(&vw)
        );
    }

    #[test]
    fn empty_and_single() {
        let e = eigh(&CMatrix::zeros(0, 0));
        assert!(e.values.is_empty());
        let a = CMatrix::from_fn(1, 1, |_, _| c64(4.2, 0.0));
        let e = eigh(&a);
        assert!((e.values[0] - 4.2).abs() < 1e-14);
        assert!((e.vectors[(0, 0)].abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn diagonal_matrix() {
        let a = CMatrix::from_diag(&[c64(3.0, 0.0), c64(-1.0, 0.0), c64(2.0, 0.0)]);
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-13);
        assert!((e.values[1] - 2.0).abs() < 1e-13);
        assert!((e.values[2] - 3.0).abs() < 1e-13);
        check_decomposition(&a, 1e-11);
    }

    #[test]
    fn pauli_y_like_two_by_two() {
        // [[0, -i], [i, 0]] has eigenvalues +-1.
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = c64(0.0, -1.0);
        a[(1, 0)] = c64(0.0, 1.0);
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-13);
        assert!((e.values[1] - 1.0).abs() < 1e-13);
        check_decomposition(&a, 1e-12);
    }

    #[test]
    fn random_hermitian_various_sizes() {
        for &n in &[2usize, 3, 5, 8, 13, 24, 40] {
            let a = CMatrix::random_hermitian(n, n as u64 * 17 + 1);
            check_decomposition(&a, 1e-9);
        }
    }

    #[test]
    fn eigenvalues_are_real_invariants() {
        // trace and Frobenius norm are preserved.
        let n = 20;
        let a = CMatrix::random_hermitian(n, 5);
        let e = eigh(&a);
        let tr: f64 = e.values.iter().sum();
        let trace: f64 = (0..n).map(|i| a[(i, i)].re).sum();
        assert!((tr - trace).abs() < 1e-9 * a.frobenius_norm().max(1.0));
        let f2: f64 = e.values.iter().map(|w| w * w).sum();
        let af2 = a.frobenius_norm().powi(2);
        assert!((f2 - af2).abs() < 1e-8 * af2.max(1.0));
    }

    #[test]
    fn degenerate_spectrum() {
        // 2I (+) 1-dim: eigenvalues {1, 2, 2}; eigenvectors still orthonormal.
        let mut a = CMatrix::identity(3);
        a.scale_inplace(c64(2.0, 0.0));
        a[(2, 2)] = c64(1.0, 0.0);
        check_decomposition(&a, 1e-11);
        let e = eigh(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn known_clement_matrix() {
        // Real symmetric Clement matrix of size 5 has spectrum {-4,-2,0,2,4}.
        let n = 5usize;
        let a = CMatrix::from_fn(n, n, |i, j| {
            if j == i + 1 {
                let k = (i + 1) as f64;
                c64((k * (n as f64 - k)).sqrt(), 0.0)
            } else if i == j + 1 {
                let k = (j + 1) as f64;
                c64((k * (n as f64 - k)).sqrt(), 0.0)
            } else {
                Complex64::ZERO
            }
        });
        let e = eigh(&a);
        let expect = [-4.0, -2.0, 0.0, 2.0, 4.0];
        for (v, ex) in e.values.iter().zip(expect) {
            assert!((v - ex).abs() < 1e-10, "{v} vs {ex}");
        }
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        let a = CMatrix::random_hermitian(10, 77);
        let v1 = eigvalsh(&a);
        let v2 = eigh(&a).values;
        for (x, y) in v1.iter().zip(&v2) {
            assert_eq!(x, y);
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let _ = eigh(&CMatrix::zeros(2, 3));
    }
}
