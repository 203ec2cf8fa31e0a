//! DFPT-like linear response: atom-displacement perturbations.
//!
//! GWPT (paper Sec. 5.1, Eq. 5) needs the first-order change of the
//! wavefunctions `d psi_n / d R_p` for every band. In the paper these come
//! from DFPT; here the analogue is exact linear response of the model
//! Hamiltonian: the perturbation operator `dV/dR` is analytic (derivative
//! of the structure factor), and first-order states follow from the
//! sum-over-states Sternheimer solution.

use crate::gvec::GSphere;
use crate::lattice::Crystal;
use crate::solver::Wavefunctions;
use bgw_linalg::{matmul, CMatrix, Op};
use bgw_num::{c64, Complex64};

/// A single atomic-displacement perturbation `p = (atom, axis)`.
#[derive(Clone, Debug)]
pub struct Perturbation {
    /// Index of the displaced atom.
    pub atom: usize,
    /// Cartesian axis of the displacement (0, 1, 2).
    pub axis: usize,
    /// Dense perturbation operator `dV(G - G')/dR` on the sphere (Ry/bohr).
    dv: CMatrix,
}

impl Perturbation {
    /// Builds the perturbation operator for displacing `atom` along `axis`.
    pub fn new(crystal: &Crystal, sph: &GSphere, atom: usize, axis: usize) -> Self {
        assert!(atom < crystal.n_atoms(), "atom index out of range");
        assert!(axis < 3, "axis must be 0..3");
        let at = &crystal.atoms[atom];
        let vol = crystal.lattice.volume();
        let n = sph.len();
        let two_pi = 2.0 * std::f64::consts::PI;
        // dV(dG) = (-i dG_axis / Omega) u(|dG|) e^{-i dG . r}
        let dv = CMatrix::from_fn(n, n, |i, j| {
            let a = sph.miller[i];
            let b = sph.miller[j];
            let m = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
            let g = crystal.lattice.g_cart(m);
            let q = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
            let u = at.species.form_factor(q);
            if u == 0.0 {
                return Complex64::ZERO;
            }
            let phase = -two_pi
                * (m[0] as f64 * at.frac[0] + m[1] as f64 * at.frac[1] + m[2] as f64 * at.frac[2]);
            let sf = Complex64::cis(phase);
            // -i * g_axis * u * e^{-i dG r} / vol
            c64(0.0, -g[axis]) * sf.scale(u / vol)
        });
        Self { atom, axis, dv }
    }

    /// Electron-phonon matrix elements at the mean-field (DFPT) level:
    /// `g_mn = <psi_m| dV/dR |psi_n>` (Ry/bohr), for all band pairs.
    pub fn coupling_matrix(&self, wf: &Wavefunctions) -> CMatrix {
        // g = conj(C) dV C^T with C the (bands x G) coefficient matrix:
        // g_mn = sum_{GG'} conj(c_m(G)) dV_{GG'} c_n(G').
        // Using conj(C) X = conj(C conj(X)):
        let dv_ct = matmul(&self.dv, Op::None, &wf.coeffs, Op::Trans);
        matmul(&wf.coeffs, Op::None, &dv_ct.conj(), Op::None).conj()
    }

    /// First-order wavefunctions by sum-over-states (Sternheimer):
    /// `|d psi_n> = sum_{m != n} |psi_m> g_mn / (E_n - E_m)`.
    ///
    /// Quasi-degenerate pairs (`|E_n - E_m| < degeneracy_tol`) are skipped,
    /// the standard convention for intra-degenerate-subspace rotations that
    /// do not contribute to physical responses.
    pub fn first_order_wavefunctions(&self, wf: &Wavefunctions, degeneracy_tol: f64) -> CMatrix {
        let nb = wf.n_bands();
        let ng = wf.n_g();
        let g = self.coupling_matrix(wf);
        // weights w_mn = g_mn / (E_n - E_m), zero for (quasi)degenerate.
        let mut w = CMatrix::zeros(nb, nb);
        for m in 0..nb {
            for n in 0..nb {
                let de = wf.energies[n] - wf.energies[m];
                if de.abs() > degeneracy_tol {
                    w[(m, n)] = g[(m, n)].scale(1.0 / de);
                }
            }
        }
        // dpsi_n(G) = sum_m w_mn c_m(G)  ->  dPsi = W^T C
        let mut dpsi = matmul(&w, Op::Trans, &wf.coeffs, Op::None);
        debug_assert_eq!(dpsi.shape(), (nb, ng));
        // Orthogonality to the unperturbed state is automatic (m != n terms
        // only), but guard against roundoff by projecting out <psi_n|dpsi_n>.
        for n in 0..nb {
            let mut overlap = Complex64::ZERO;
            for (a, b) in wf.coeffs.row(n).iter().zip(dpsi.row(n)) {
                overlap = overlap.conj_mul_add(*a, *b);
            }
            if overlap.abs() > 0.0 {
                for gidx in 0..ng {
                    let c = wf.coeffs[(n, gidx)];
                    dpsi[(n, gidx)] -= c * overlap;
                }
            }
        }
        dpsi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Crystal;
    use crate::pseudo::{Species, SI_A0};
    use crate::solver::solve_bands;

    fn setup() -> (Crystal, GSphere, Wavefunctions) {
        let c = Crystal::diamond(Species::Si, SI_A0);
        let sph = GSphere::new(&c.lattice, 2.4);
        let wf = solve_bands(&c, &sph, 24);
        (c, sph, wf)
    }

    #[test]
    fn perturbation_operator_is_hermitian() {
        let (c, sph, _) = setup();
        let p = Perturbation::new(&c, &sph, 1, 0);
        assert!(
            p.dv.hermiticity_error() <= 1e-12,
            "dV/dR must be Hermitian: {}",
            p.dv.hermiticity_error()
        );
        assert_eq!(p.atom, 1);
        assert_eq!(p.axis, 0);
    }

    #[test]
    fn coupling_matrix_is_hermitian() {
        let (c, sph, wf) = setup();
        let p = Perturbation::new(&c, &sph, 0, 2);
        let g = p.coupling_matrix(&wf);
        assert!(
            g.hermiticity_error() <= 1e-9,
            "g_mn Hermiticity error {}",
            g.hermiticity_error()
        );
    }

    #[test]
    fn hellmann_feynman_matches_finite_difference() {
        // dE_n/dR = g_nn; compare against (E(+h) - E(-h)) / 2h for a
        // non-degenerate band.
        let (c, sph, wf) = setup();
        let p = Perturbation::new(&c, &sph, 0, 0);
        let g = p.coupling_matrix(&wf);
        let h = 1e-3;
        let cp = c.with_displacement(0, [h, 0.0, 0.0]);
        let cm = c.with_displacement(0, [-h, 0.0, 0.0]);
        let wfp = solve_bands(&cp, &sph, 24);
        let wfm = solve_bands(&cm, &sph, 24);
        // pick bands that are isolated (gap to neighbours > 0.05 Ry)
        let mut checked = 0;
        for n in 0..20 {
            let isolated = (n == 0 || wf.energies[n] - wf.energies[n - 1] > 0.05)
                && (wf.energies[n + 1] - wf.energies[n] > 0.05);
            if !isolated {
                continue;
            }
            let fd = (wfp.energies[n] - wfm.energies[n]) / (2.0 * h);
            let hf = g[(n, n)].re;
            assert!(
                (fd - hf).abs() < 5e-3 * (1.0 + hf.abs()),
                "band {n}: HF {hf} vs FD {fd}"
            );
            checked += 1;
        }
        assert!(checked >= 1, "no isolated band found to check");
    }

    #[test]
    fn first_order_states_are_orthogonal_to_zeroth() {
        let (c, sph, wf) = setup();
        let p = Perturbation::new(&c, &sph, 1, 1);
        let dpsi = p.first_order_wavefunctions(&wf, 1e-6);
        assert_eq!(dpsi.shape(), (wf.n_bands(), wf.n_g()));
        for n in 0..wf.n_bands() {
            let mut overlap = Complex64::ZERO;
            for (a, b) in wf.coeffs.row(n).iter().zip(dpsi.row(n)) {
                overlap = overlap.conj_mul_add(*a, *b);
            }
            assert!(overlap.abs() < 1e-10, "band {n}: <psi|dpsi> = {overlap}");
        }
    }

    #[test]
    fn sternheimer_solves_linear_system() {
        // (H - E_n) |dpsi_n> = -(dV - g_nn) |psi_n> projected on m != n.
        let (c, sph, wf) = setup();
        let p = Perturbation::new(&c, &sph, 0, 1);
        let dpsi = p.first_order_wavefunctions(&wf, 1e-6);
        let h = crate::hamiltonian::Hamiltonian::new(&c, &sph).to_matrix();
        let n = 2; // a low valence band
                   // lhs = (H - E_n) dpsi_n
        let hd = h.matvec(dpsi.row(n));
        let lhs: Vec<Complex64> = hd
            .iter()
            .zip(dpsi.row(n))
            .map(|(a, b)| *a - b.scale(wf.energies[n]))
            .collect();
        // rhs = -(dV psi_n) projected onto the orthogonal complement of all
        // (quasi-)degenerate partners of n.
        let dv_psi = p.dv.matvec(wf.coeffs.row(n));
        let mut rhs: Vec<Complex64> = dv_psi.iter().map(|z| -*z).collect();
        for m in 0..wf.n_bands() {
            if (wf.energies[m] - wf.energies[n]).abs() <= 1e-6 {
                let mut ov = Complex64::ZERO;
                for (a, b) in wf.coeffs.row(m).iter().zip(&dv_psi) {
                    ov = ov.conj_mul_add(*a, *b);
                }
                for (r, cmg) in rhs.iter_mut().zip(wf.coeffs.row(m)) {
                    *r += *cmg * ov;
                }
            }
        }
        // The sum-over-states solution only spans the computed bands, so
        // compare after projecting both sides onto that subspace.
        let project = |x: &[Complex64]| -> Vec<Complex64> {
            let mut out = vec![Complex64::ZERO; x.len()];
            for m in 0..wf.n_bands() {
                let mut ov = Complex64::ZERO;
                for (a, b) in wf.coeffs.row(m).iter().zip(x) {
                    ov = ov.conj_mul_add(*a, *b);
                }
                for (o, cmg) in out.iter_mut().zip(wf.coeffs.row(m)) {
                    *o += *cmg * ov;
                }
            }
            out
        };
        let lhs_p = project(&lhs);
        let rhs_p = project(&rhs);
        let err = lhs_p
            .iter()
            .zip(&rhs_p)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        let scale = rhs_p.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-12);
        assert!(err / scale < 1e-8, "Sternheimer residual {err} / {scale}");
    }
}
