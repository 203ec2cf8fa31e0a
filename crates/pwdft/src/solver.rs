//! Band solver ("Parabands").
//!
//! The paper's Parabands module generates the large band sets `{psi_n}`
//! needed by the sum-over-bands GW formulas by *densely diagonalizing* the
//! mean-field Hamiltonian in the plane-wave basis (iterative DFT solvers
//! struggle to converge thousands of empty states). We do the same with the
//! in-repo Hermitian eigensolver, and additionally expose a residual check
//! and the real-space density needed by the GPP model.

use crate::gvec::GSphere;
use crate::hamiltonian::Hamiltonian;
use crate::lattice::Crystal;
use bgw_fft::{Direction, Fft3d};
use bgw_linalg::{eigh, CMatrix};
use bgw_num::Complex64;

/// A set of Gamma-point Bloch states on a plane-wave sphere.
#[derive(Clone, Debug)]
pub struct Wavefunctions {
    /// Band energies (Ry), ascending.
    pub energies: Vec<f64>,
    /// Plane-wave coefficients: row `n` holds band `n` over the sphere
    /// (`n_bands x N_G^psi`). Rows are orthonormal.
    pub coeffs: CMatrix,
    /// Number of doubly-occupied valence bands.
    pub n_valence: usize,
}

impl Wavefunctions {
    /// Number of bands kept (`N_b`).
    pub fn n_bands(&self) -> usize {
        self.coeffs.nrows()
    }

    /// Plane-wave basis size (`N_G^psi`).
    pub fn n_g(&self) -> usize {
        self.coeffs.ncols()
    }

    /// Number of conduction (empty) bands (`N_c`).
    pub fn n_conduction(&self) -> usize {
        self.n_bands() - self.n_valence
    }

    /// Mean-field band gap (Ry): `E_{N_v} - E_{N_v - 1}`.
    pub fn gap_ry(&self) -> f64 {
        assert!(self.n_valence > 0 && self.n_bands() > self.n_valence);
        self.energies[self.n_valence] - self.energies[self.n_valence - 1]
    }

    /// Fermi level estimate (Ry): midgap.
    pub fn fermi_ry(&self) -> f64 {
        0.5 * (self.energies[self.n_valence] + self.energies[self.n_valence - 1])
    }
}

/// Diagonalizes the Hamiltonian and keeps the lowest `n_bands` states
/// (all states if `n_bands >= N_G`).
pub fn solve_bands(crystal: &Crystal, sph: &GSphere, n_bands: usize) -> Wavefunctions {
    let h = Hamiltonian::new(crystal, sph);
    solve_bands_from_h(&h, crystal, sph, n_bands)
}

/// Same as [`solve_bands`] for a prebuilt Hamiltonian.
pub fn solve_bands_from_h(
    h: &Hamiltonian,
    crystal: &Crystal,
    sph: &GSphere,
    n_bands: usize,
) -> Wavefunctions {
    let _span = bgw_trace::span!("pwdft.solve_bands");
    let n_g = sph.len();
    let keep = n_bands.min(n_g);
    let n_valence = crystal.n_valence_bands();
    assert!(
        keep > n_valence,
        "need at least one empty band: requested {keep}, N_v = {n_valence}"
    );
    let eig = eigh(&h.to_matrix());
    // Eigenvectors are columns; store bands as rows.
    let coeffs = CMatrix::from_fn(keep, n_g, |n, g| eig.vectors[(g, n)]);
    Wavefunctions {
        energies: eig.values[..keep].to_vec(),
        coeffs,
        n_valence,
    }
}

/// Valence charge density `rho(G)` on the sphere (electrons per cell at
/// `G = 0`), computed by FFT of `sum_v 2 |psi_v(r)|^2` — the input to the
/// generalized plasmon-pole model.
pub fn charge_density_g(wf: &Wavefunctions, sph: &GSphere) -> Vec<Complex64> {
    let (nx, ny, nz) = sph.fft_dims;
    let plan = Fft3d::new(nx, ny, nz);
    let npts = plan.len();
    let mut rho_r = vec![0.0f64; npts];
    // Transform valence bands in batched blocks through the pooled 3-D
    // FFT; the block bounds the extra memory at a few grids.
    const RHO_BLOCK: usize = 8;
    for v0 in (0..wf.n_valence).step_by(RHO_BLOCK) {
        let v1 = (v0 + RHO_BLOCK).min(wf.n_valence);
        let mut grids: Vec<Vec<Complex64>> = (v0..v1)
            .map(|v| {
                let mut grid = vec![Complex64::ZERO; npts];
                for g in 0..sph.len() {
                    grid[sph.fft_index(g)] = wf.coeffs[(v, g)];
                }
                grid
            })
            .collect();
        plan.inverse_many(&mut grids);
        // Inverse carries 1/N; |psi(r)|^2 with psi(r) = sum_G c_G e^{iGr}
        // means we must undo that normalization.
        let scale = npts as f64;
        for grid in &grids {
            for (r, z) in rho_r.iter_mut().zip(grid) {
                let amp = z.scale(scale);
                *r += 2.0 * amp.norm_sqr(); // spin factor 2
            }
        }
    }
    // Forward FFT of the density, normalized so rho(G=0) = N_electrons.
    let mut rho_c: Vec<Complex64> = rho_r.iter().map(|&r| Complex64::real(r)).collect();
    plan.process(&mut rho_c, Direction::Forward);
    let norm = 1.0 / npts as f64;
    (0..sph.len())
        .map(|g| rho_c[sph.fft_index(g)].scale(norm))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Crystal;
    use crate::pseudo::{Species, LIH_A0, SI_A0};
    use bgw_num::RYDBERG_EV;

    fn si_bulk_wf() -> (Crystal, GSphere, Wavefunctions) {
        let c = Crystal::diamond(Species::Si, SI_A0);
        let sph = GSphere::new(&c.lattice, 3.2);
        let wf = solve_bands(&c, &sph, 40);
        (c, sph, wf)
    }

    #[test]
    fn bands_are_sorted_and_orthonormal() {
        let (_, _, wf) = si_bulk_wf();
        for w in wf.energies.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // max |<m|n> - delta_mn|
        let nb = wf.n_bands();
        let mut err: f64 = 0.0;
        for m in 0..nb {
            for n in m..nb {
                let mut acc = Complex64::ZERO;
                for (a, b) in wf.coeffs.row(m).iter().zip(wf.coeffs.row(n)) {
                    acc = acc.conj_mul_add(*a, *b);
                }
                let target = if m == n { 1.0 } else { 0.0 };
                err = err.max((acc - target).abs());
            }
        }
        assert!(err < 1e-8, "{err}");
    }

    #[test]
    fn si_model_is_insulating_with_sane_gap() {
        let (_, _, wf) = si_bulk_wf();
        assert_eq!(wf.n_valence, 16);
        let gap_ev = wf.gap_ry() * RYDBERG_EV;
        assert!(
            gap_ev > 0.2 && gap_ev < 5.0,
            "Si-model gap out of window: {gap_ev} eV"
        );
    }

    #[test]
    fn lih_model_is_insulating() {
        let c = Crystal::rocksalt(Species::Li, Species::H, LIH_A0);
        let sph = GSphere::new(&c.lattice, 3.0);
        let wf = solve_bands(&c, &sph, 16);
        let gap_ev = wf.gap_ry() * RYDBERG_EV;
        assert!(gap_ev > 0.5, "LiH-model gap too small: {gap_ev} eV");
    }

    #[test]
    fn residuals_are_small() {
        // ||H psi_n - E_n psi_n|| over the first ten bands.
        let (c, sph, wf) = si_bulk_wf();
        let h = Hamiltonian::new(&c, &sph);
        for n in 0..10 {
            let psi = wf.coeffs.row(n);
            let r2: f64 = h
                .matvec(psi)
                .iter()
                .zip(psi)
                .map(|(hp, p)| (*hp - p.scale(wf.energies[n])).norm_sqr())
                .sum();
            assert!(r2.sqrt() < 1e-8, "band {n}: residual {}", r2.sqrt());
        }
    }

    #[test]
    fn density_normalizes_to_electron_count() {
        let (c, sph, wf) = si_bulk_wf();
        let rho = charge_density_g(&wf, &sph);
        // rho(G=0) = number of electrons in the cell
        assert!(
            (rho[0].re - c.n_electrons() as f64).abs() < 1e-6,
            "rho(0) = {} vs {}",
            rho[0].re,
            c.n_electrons()
        );
        assert!(rho[0].im.abs() < 1e-9);
        // Hermitian symmetry rho(-G) = conj(rho(G))
        for i in 0..sph.len().min(30) {
            let j = sph.minus(i);
            assert!((rho[i] - rho[j].conj()).abs() < 1e-8, "i = {i}");
        }
    }

    #[test]
    fn vacancy_introduces_gap_state() {
        // A vacancy in a (small) Si supercell should pull states into the
        // gap: the HOMO-LUMO gap of the defective cell is smaller than the
        // bulk gap of the same supercell.
        let bulk = Crystal::diamond(Species::Si, SI_A0);
        let sph_b = GSphere::new(&bulk.lattice, 2.6);
        let wf_b = solve_bands(&bulk, &sph_b, bulk.n_valence_bands() + 6);
        let vac = bulk.with_vacancy(0);
        let sph_v = GSphere::new(&vac.lattice, 2.6);
        let wf_v = solve_bands(&vac, &sph_v, vac.n_valence_bands() + 6);
        assert!(
            wf_v.gap_ry() < wf_b.gap_ry(),
            "vacancy gap {} !< bulk gap {}",
            wf_v.gap_ry(),
            wf_b.gap_ry()
        );
    }

    #[test]
    #[should_panic(expected = "at least one empty band")]
    fn too_few_bands_rejected() {
        let c = Crystal::diamond(Species::Si, SI_A0);
        let sph = GSphere::new(&c.lattice, 2.0);
        let _ = solve_bands(&c, &sph, c.n_valence_bands());
    }
}
