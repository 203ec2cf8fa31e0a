//! Dense row-major complex matrices.
//!
//! The containers for every two-index object in the GW workflow: plane-wave
//! matrix elements `M` (bands x G-vectors), polarizability `chi_GG'`,
//! dielectric matrix `eps_GG'`, subspace projectors `C_s`, and the
//! self-energy `Sigma_lm`.

use bgw_num::{c64, Complex64};
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of [`Complex64`].
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<Complex64>,
}

impl std::fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.nrows, self.ncols)?;
        let show_r = self.nrows.min(6);
        let show_c = self.ncols.min(6);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                let z = self[(i, j)];
                write!(f, "{:.3e}{:+.3e}i ", z.re, z.im)?;
            }
            writeln!(f, "{}", if self.ncols > show_c { "..." } else { "" })?;
        }
        if self.nrows > show_r {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl CMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![Complex64::ZERO; nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex64>(
        nrows: usize,
        ncols: usize,
        mut f: F,
    ) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Builds a matrix taking ownership of row-major `data`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length mismatch");
        Self { nrows, ncols, data }
    }

    /// Diagonal matrix from a complex diagonal.
    pub fn from_diag(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` for square matrices.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Underlying row-major storage.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex64] {
        let s = i * self.ncols;
        &self.data[s..s + self.ncols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Complex64] {
        let s = i * self.ncols;
        &mut self.data[s..s + self.ncols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<Complex64> {
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Complex-conjugate transpose `A^dagger`.
    pub fn adjoint(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Hermitian part `(A + A^dagger)/2` (square only).
    pub fn hermitian_part(&self) -> Self {
        assert!(self.is_square());
        Self::from_fn(self.nrows, self.ncols, |i, j| {
            (self[(i, j)] + self[(j, i)].conj()).scale(0.5)
        })
    }

    /// Maximum deviation from Hermiticity `max |A_ij - conj(A_ji)|`.
    pub fn hermiticity_error(&self) -> f64 {
        assert!(self.is_square());
        let mut err: f64 = 0.0;
        for i in 0..self.nrows {
            for j in i..self.ncols {
                err = err.max((self[(i, j)] - self[(j, i)].conj()).abs());
            }
        }
        err
    }

    /// Largest elementwise modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Maximum elementwise difference `max |A_ij - B_ij|`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Scales every element in place.
    pub fn scale_inplace(&mut self, s: Complex64) {
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// `self += other * alpha`.
    pub fn axpy(&mut self, alpha: Complex64, other: &Self) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.mul_add(alpha, *b);
        }
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        let mut y = vec![Complex64::ZERO; self.nrows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(x) {
                acc = acc.mul_add(*a, *b);
            }
            *yi = acc;
        }
        y
    }

    /// Extracts the contiguous sub-matrix with rows `r0..r1`, cols `c0..c1`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Self {
        assert!(r0 <= r1 && r1 <= self.nrows && c0 <= c1 && c1 <= self.ncols);
        Self::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Deterministic pseudo-random matrix with entries in the unit square
    /// (test and benchmark workloads; independent of the `rand` crate).
    pub fn random(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut state = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x2545F4914F6CDD1D);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        Self::from_fn(nrows, ncols, |_, _| c64(next(), next()))
    }

    /// Deterministic pseudo-random Hermitian matrix.
    pub fn random_hermitian(n: usize, seed: u64) -> Self {
        let a = Self::random(n, n, seed);
        a.hermitian_part()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

/// References the tests hold the GEMM `Op::Trans` path and the
/// eigensolver's spectrum to.
#[cfg(test)]
impl CMatrix {
    /// Plain transpose.
    pub(crate) fn transpose(&self) -> Self {
        Self::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Frobenius norm.
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = CMatrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.frobenius_norm(), 0.0);
        let i3 = CMatrix::identity(3);
        let trace: Complex64 = (0..3).map(|i| i3[(i, i)]).sum();
        assert_eq!(trace, c64(3.0, 0.0));
        let f = CMatrix::from_fn(2, 2, |i, j| c64((i + j) as f64, 0.0));
        assert_eq!(f[(1, 1)], c64(2.0, 0.0));
        let d = CMatrix::from_diag(&[c64(1.0, 0.0), c64(0.0, 2.0)]);
        assert_eq!(d[(1, 1)], c64(0.0, 2.0));
        assert_eq!(d[(0, 1)], Complex64::ZERO);
    }

    #[test]
    fn rows_and_cols() {
        let m = CMatrix::from_fn(3, 2, |i, j| c64(i as f64, j as f64));
        assert_eq!(m.row(1), &[c64(1.0, 0.0), c64(1.0, 1.0)]);
        assert_eq!(m.col(1), vec![c64(0.0, 1.0), c64(1.0, 1.0), c64(2.0, 1.0)]);
        let mut m2 = m.clone();
        m2.row_mut(0)[0] = c64(9.0, 9.0);
        assert_eq!(m2[(0, 0)], c64(9.0, 9.0));
    }

    #[test]
    fn adjoint_transpose_conj() {
        let m = CMatrix::random(3, 4, 7);
        let adj = m.adjoint();
        assert_eq!(adj.shape(), (4, 3));
        assert_eq!(adj[(2, 1)], m[(1, 2)].conj());
        assert_eq!(m.transpose()[(2, 1)], m[(1, 2)]);
        assert_eq!(m.conj()[(1, 2)], m[(1, 2)].conj());
        // (A^dagger)^dagger = A
        assert_eq!(m.adjoint().adjoint(), m);
    }

    #[test]
    fn hermitian_checks() {
        let h = CMatrix::random_hermitian(5, 3);
        assert!(h.hermiticity_error() < 1e-15);
        let mut nh = h.clone();
        nh[(0, 1)] += c64(0.1, 0.0);
        assert!(nh.hermiticity_error() > 1e-3);
        assert!(nh.hermitian_part().hermiticity_error() <= 1e-14);
    }

    #[test]
    fn matvec_and_adjoint_consistent() {
        let a = CMatrix::random(4, 3, 11);
        let x = vec![c64(1.0, 0.5), c64(-0.3, 0.2), c64(0.0, 1.0)];
        let y = vec![c64(0.5, 0.0), c64(0.1, -0.7), c64(1.0, 1.0), c64(-0.2, 0.4)];
        // <y, A x> == <A^dagger y, x>
        let ax = a.matvec(&x);
        let aty = a.adjoint().matvec(&y);
        let lhs: Complex64 = y.iter().zip(&ax).map(|(u, v)| u.conj() * *v).sum();
        let rhs: Complex64 = aty.iter().zip(&x).map(|(u, v)| u.conj() * *v).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = CMatrix::from_fn(4, 4, |i, j| c64((10 * i + j) as f64, 0.0));
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], c64(12.0, 0.0));
        assert_eq!(s[(1, 1)], c64(23.0, 0.0));
    }

    #[test]
    fn norms_and_axpy() {
        let mut a = CMatrix::identity(2);
        let b = CMatrix::identity(2);
        a.axpy(c64(2.0, 0.0), &b);
        assert_eq!(a[(0, 0)], c64(3.0, 0.0));
        assert!((a.frobenius_norm() - (18.0f64).sqrt()).abs() < 1e-14);
        assert_eq!(a.max_abs(), 3.0);
        a.scale_inplace(c64(0.0, 1.0));
        assert_eq!(a[(1, 1)], c64(0.0, 3.0));
        assert!(a.max_abs_diff(&a) == 0.0);
    }

    #[test]
    fn random_is_deterministic() {
        let a = CMatrix::random(3, 3, 42);
        let b = CMatrix::random(3, 3, 42);
        assert_eq!(a, b);
        let c = CMatrix::random(3, 3, 43);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_checks_length() {
        let _ = CMatrix::from_vec(2, 2, vec![Complex64::ZERO; 3]);
    }
}
