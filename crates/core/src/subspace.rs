//! The static subspace approximation (paper Sec. 5.2, Eq. 6).
//!
//! The zero-frequency symmetrized polarizability is diagonalized and the
//! `N_Eig` eigenvectors with the largest screening weight (most negative
//! eigenvalues) span a subspace in which all finite-frequency
//! polarizabilities are represented:
//! `chi_BB'(omega) = sum_GG' C_s^{GB*} chi_GG'(omega) C_s^{G'B'}`.
//! A 10-20% subspace fraction converges quasiparticle energies while
//! cutting the finite-frequency cost by `(N_G / N_Eig)^2` — the 25-100x
//! speedup quoted in the paper.

use bgw_linalg::{eigh, matmul, CMatrix, Op};

/// The subspace basis extracted from `chi~(0)`.
#[derive(Clone, Debug)]
pub struct Subspace {
    /// `C_s`: `(N_G x N_Eig)` orthonormal basis columns.
    pub basis: CMatrix,
    /// Eigenvalues of `chi~(0)` kept (ascending, i.e. most negative first).
    pub eigenvalues: Vec<f64>,
}

impl Subspace {
    /// Builds the subspace from the *symmetrized* static polarizability
    /// `chi~(0) = v^{1/2} chi(0) v^{1/2}`, keeping `n_eig` eigenvectors.
    pub fn from_chi0_sym(chi0_sym: &CMatrix, n_eig: usize) -> Self {
        assert!(chi0_sym.is_square());
        let n_g = chi0_sym.nrows();
        let n_eig = n_eig.clamp(1, n_g);
        let eig = eigh(chi0_sym);
        // chi(0) is negative semi-definite: the most significant screening
        // modes are the most negative eigenvalues = the first columns.
        let basis = eig.vectors.submatrix(0, n_g, 0, n_eig);
        Self {
            basis,
            eigenvalues: eig.values[..n_eig].to_vec(),
        }
    }

    /// Symmetrizes a plain `chi` with `v^{1/2}` weights, then builds the
    /// subspace.
    pub fn from_chi0(chi0: &CMatrix, vsqrt: &[f64], n_eig: usize) -> Self {
        Self::from_chi0_sym(&symmetrize(chi0, vsqrt), n_eig)
    }

    /// Subspace dimension `N_Eig`.
    pub fn n_eig(&self) -> usize {
        self.basis.ncols()
    }

    /// Basis size `N_G`.
    pub fn n_g(&self) -> usize {
        self.basis.nrows()
    }

    /// Subspace fraction `N_Eig / N_G`.
    pub fn fraction(&self) -> f64 {
        self.n_eig() as f64 / self.n_g() as f64
    }

    /// Projects a symmetrized `(N_G x N_G)` matrix into the subspace:
    /// `A_BB' = C_s^dagger A C_s` (the `Transf` kernel of Fig. 3).
    pub fn project(&self, a_sym: &CMatrix) -> CMatrix {
        let tmp = matmul(a_sym, Op::None, &self.basis, Op::None);
        matmul(&self.basis, Op::Adj, &tmp, Op::None)
    }

    /// Projects matrix-element *rows* into the subspace: rows of `m`
    /// (pairs x N_G) become rows over `N_Eig`: `M^B = sum_G M^G C_s^{GB}`.
    pub fn project_rows(&self, m: &CMatrix) -> CMatrix {
        matmul(m, Op::None, &self.basis, Op::None)
    }

    /// Reconstructs a full `(N_G x N_G)` matrix from its subspace
    /// representation: `A_GG' = C_s A_BB' C_s^dagger`.
    pub fn reconstruct(&self, a_sub: &CMatrix) -> CMatrix {
        let tmp = matmul(&self.basis, Op::None, a_sub, Op::None);
        matmul(&tmp, Op::None, &self.basis, Op::Adj)
    }
}

/// `v^{1/2} A v^{1/2}` row/column scaling.
pub fn symmetrize(a: &CMatrix, vsqrt: &[f64]) -> CMatrix {
    assert_eq!(a.nrows(), vsqrt.len());
    assert_eq!(a.ncols(), vsqrt.len());
    CMatrix::from_fn(a.nrows(), a.ncols(), |i, j| {
        a[(i, j)].scale(vsqrt[i] * vsqrt[j])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use bgw_linalg::CMatrix;

    #[test]
    fn full_subspace_reproduces_matrix_exactly() {
        let (_, setup) = testkit::small_context();
        let chi_sym = symmetrize(&setup.chi0, &setup.vsqrt);
        let n_g = chi_sym.nrows();
        let sub = Subspace::from_chi0_sym(&chi_sym, n_g);
        assert_eq!(sub.n_eig(), n_g);
        let projected = sub.project(&chi_sym);
        let back = sub.reconstruct(&projected);
        assert!(
            back.max_abs_diff(&chi_sym) < 1e-8,
            "roundtrip error {}",
            back.max_abs_diff(&chi_sym)
        );
    }

    #[test]
    fn truncation_error_decreases_with_n_eig() {
        let (_, setup) = testkit::small_context();
        let chi_sym = symmetrize(&setup.chi0, &setup.vsqrt);
        let n_g = chi_sym.nrows();
        let err = |n_eig: usize| {
            let sub = Subspace::from_chi0_sym(&chi_sym, n_eig);
            let approx = sub.reconstruct(&sub.project(&chi_sym));
            approx.max_abs_diff(&chi_sym)
        };
        let e1 = err((n_g / 8).max(1));
        let e2 = err((n_g / 2).max(2));
        let e3 = err(n_g);
        assert!(
            e2 <= e1 + 1e-12,
            "e({}) = {e2} > e({}) = {e1}",
            n_g / 2,
            n_g / 8
        );
        assert!(e3 < 1e-8);
    }

    #[test]
    fn basis_is_orthonormal() {
        let (_, setup) = testkit::small_context();
        let sub = Subspace::from_chi0(&setup.chi0, &setup.vsqrt, setup.chi0.nrows() / 3);
        let overlap = matmul(&sub.basis, Op::Adj, &sub.basis, Op::None);
        assert!(overlap.max_abs_diff(&CMatrix::identity(sub.n_eig())) < 1e-9);
        assert!(sub.fraction() > 0.0 && sub.fraction() <= 1.0);
    }

    #[test]
    fn kept_eigenvalues_are_most_negative() {
        let (_, setup) = testkit::small_context();
        let chi_sym = symmetrize(&setup.chi0, &setup.vsqrt);
        let sub = Subspace::from_chi0_sym(&chi_sym, 4);
        // all kept eigenvalues negative, sorted ascending
        for w in sub.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
        assert!(sub.eigenvalues[0] < 0.0);
        // dominant screening mode has the largest |lambda| of the spectrum
        let all = bgw_linalg::eigvalsh(&chi_sym);
        assert!((sub.eigenvalues[0] - all[0]).abs() < 1e-9);
    }

    #[test]
    fn requested_rank_sweep_clamps_silently_and_stays_orthonormal() {
        // `from_chi0_sym` clamps the requested rank into [1, n_g] instead
        // of panicking or over-allocating: a zero request yields the
        // single dominant mode, an oversized request yields the full
        // basis, and every clamped result is internally consistent
        // (orthonormal columns, eigenvalues aligned with the basis).
        let (_, setup) = testkit::small_context();
        let chi_sym = symmetrize(&setup.chi0, &setup.vsqrt);
        let n_g = chi_sym.nrows();
        for (req, want) in [
            (0, 1),
            (1, 1),
            (n_g - 1, n_g - 1),
            (n_g, n_g),
            (n_g + 1, n_g),
            (10 * n_g, n_g),
            (usize::MAX, n_g),
        ] {
            let sub = Subspace::from_chi0_sym(&chi_sym, req);
            assert_eq!(sub.n_eig(), want, "requested {req}");
            assert_eq!(sub.n_g(), n_g, "requested {req}");
            assert_eq!(sub.eigenvalues.len(), want, "requested {req}");
            let overlap = matmul(&sub.basis, Op::Adj, &sub.basis, Op::None);
            assert!(
                overlap.max_abs_diff(&CMatrix::identity(want)) < 1e-9,
                "requested {req}: basis not orthonormal"
            );
            assert!(sub.fraction() > 0.0 && sub.fraction() <= 1.0);
        }
    }

    #[test]
    fn projected_chi_freq_matches_full_within_truncation() {
        // Eq. 6: building chi(omega) in the subspace and reconstructing
        // approximates the full chi(omega), improving with N_Eig.
        let (_, setup) = testkit::small_context();
        let chi_w = &setup.chi_finite; // chi(omega > 0), symmetrized below
        let chi_w_sym = symmetrize(chi_w, &setup.vsqrt);
        let chi0_sym = symmetrize(&setup.chi0, &setup.vsqrt);
        let n_g = chi0_sym.nrows();
        let err = |n_eig: usize| {
            let sub = Subspace::from_chi0_sym(&chi0_sym, n_eig);
            let approx = sub.reconstruct(&sub.project(&chi_w_sym));
            approx.max_abs_diff(&chi_w_sym) / chi_w_sym.max_abs().max(1e-300)
        };
        let coarse = err((n_g / 6).max(1));
        let fine = err(n_g);
        assert!(fine < 1e-8, "full basis must be exact: {fine}");
        assert!(
            coarse < 0.5,
            "even coarse subspace captures the bulk: {coarse}"
        );
    }
}
