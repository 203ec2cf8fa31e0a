//! Computational parameters of the GW workflow (paper Table 1).

/// The standard GW calculation parameters, named as in paper Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GwParams {
    /// `N_G^psi`: plane waves for the wavefunctions.
    pub n_g_psi: usize,
    /// `N_G`: plane waves for `epsilon` / `chi` (Eqs. 3, 4).
    pub n_g: usize,
    /// `N_v`: valence bands (Eq. 4).
    pub n_v: usize,
    /// `N_c`: conduction bands (Eq. 4).
    pub n_c: usize,
    /// `N_Sigma`: dimension of the self-energy matrix (Eq. 2).
    pub n_sigma: usize,
    /// `N_E`: energy grid points for `Sigma(E)` (Eq. 2).
    pub n_e: usize,
    /// `N_omega`: frequency integration points (Eq. 2).
    pub n_omega: usize,
    /// `N_Eig`: eigenvectors kept for the low-rank `chi(omega)`.
    pub n_eig: usize,
    /// `N_p`: phonon perturbations (Eq. 5).
    pub n_p: usize,
}

impl GwParams {
    /// `N_b = N_v + N_c`: total bands (Eq. 2).
    pub fn n_b(&self) -> usize {
        self.n_v + self.n_c
    }

    /// One-line synopsis for each parameter (regenerates Table 1).
    pub fn synopsis() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "N_G^psi",
                "No. of PWs (G vectors) for wavefunctions {psi_n}",
            ),
            ("N_G", "No. of PWs (G vectors) for epsilon, chi (Eq. 3,4)"),
            ("N_v", "No. of valence bands (Eq. 4)"),
            ("N_c", "No. of conduction bands (Eq. 4)"),
            ("N_b", "No. of total bands N_v + N_c (Eq. 2)"),
            (
                "N_Sigma",
                "Dimension of Sigma(E) self-energy matrix (Eq. 2)",
            ),
            ("N_E", "No. of E grid points for Sigma(E) (Eq. 2)"),
            ("N_omega", "No. of omega integration points (Eq. 2)"),
            ("N_Eig", "No. of eigenvectors for low rank chi0(omega)"),
            ("N_p", "No. of phonon perturbations R_p (Eq. 5)"),
        ]
    }

    /// ZGEMM FLOPs of the GPP off-diag kernel, paper Eq. 8:
    /// `2 N_b N_E * 8 (N_Sigma N_G^2 + N_G N_Sigma^2)`.
    pub fn gpp_offdiag_flops(&self) -> u128 {
        let ns = self.n_sigma as u128;
        let ng = self.n_g as u128;
        2 * self.n_b() as u128 * self.n_e as u128 * 8 * (ns * ng * ng + ng * ns * ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GwParams {
        GwParams {
            n_g_psi: 1000,
            n_g: 300,
            n_v: 16,
            n_c: 64,
            n_sigma: 8,
            n_e: 3,
            n_omega: 16,
            n_eig: 60,
            n_p: 6,
        }
    }

    #[test]
    fn band_total() {
        assert_eq!(sample().n_b(), 80);
    }

    #[test]
    fn table1_has_ten_rows() {
        assert_eq!(GwParams::synopsis().len(), 10);
    }

    #[test]
    fn complexity_formulas() {
        let p = sample();
        assert_eq!(
            p.gpp_offdiag_flops(),
            2 * 80 * 3 * 8 * (8 * 300u128 * 300 + 300 * 64)
        );
    }
}
