//! Plane-wave Hamiltonian assembly.
//!
//! `H_{GG'} = |G|^2 delta_{GG'} + V(G - G')` (Ry), with the local model
//! potential `V(dG) = (1/Omega) sum_j u_j(|dG|) e^{-i dG . r_j}` summed over
//! atoms. The potential is precomputed on the double-size FFT box so that
//! assembly is O(N_G^2) lookups, and a matrix-free `matvec` supports the
//! Chebyshev-filter path of the pseudobands construction (paper Sec. 5.3).

use crate::gvec::GSphere;
use crate::lattice::Crystal;
use bgw_linalg::CMatrix;
use bgw_num::Complex64;

/// The plane-wave one-electron Hamiltonian of a crystal at the Gamma point.
#[derive(Clone, Debug)]
pub struct Hamiltonian {
    /// Potential on the FFT box, indexed by wrapped Miller differences.
    vpot: Vec<Complex64>,
    /// FFT box dimensions (shared with the sphere).
    dims: (usize, usize, usize),
    /// Kinetic energies `|G|^2` (Ry) per sphere index.
    kinetic: Vec<f64>,
    /// Miller indices per sphere index (for difference lookups).
    miller: Vec<[i32; 3]>,
}

impl Hamiltonian {
    /// Builds the Hamiltonian of `crystal` on the sphere `sph`.
    pub fn new(crystal: &Crystal, sph: &GSphere) -> Self {
        let dims = sph.fft_dims;
        let vpot = potential_on_box(crystal, &crystal_lattice_box(crystal, dims));
        Self {
            vpot,
            dims,
            kinetic: sph.norm2.clone(),
            miller: sph.miller.clone(),
        }
    }

    /// Basis size `N_G^psi`.
    pub fn dim(&self) -> usize {
        self.kinetic.len()
    }

    /// Potential matrix element `V(G_i - G_j)` (Ry).
    #[inline]
    pub fn v_element(&self, i: usize, j: usize) -> Complex64 {
        let (nx, ny, nz) = self.dims;
        let a = self.miller[i];
        let b = self.miller[j];
        let wrap = |v: i32, n: usize| -> usize {
            let n = n as i32;
            (((v % n) + n) % n) as usize
        };
        let ix = wrap(a[0] - b[0], nx);
        let iy = wrap(a[1] - b[1], ny);
        let iz = wrap(a[2] - b[2], nz);
        self.vpot[(ix * ny + iy) * nz + iz]
    }

    /// Dense Hamiltonian matrix (Ry).
    pub fn to_matrix(&self) -> CMatrix {
        let n = self.dim();
        let mut h = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = self.v_element(i, j);
            }
            h[(i, i)] += Complex64::real(self.kinetic[i]);
        }
        h
    }

    /// Matrix-free application `y = H x` (Ry).
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        let n = self.dim();
        assert_eq!(x.len(), n);
        let mut y = vec![Complex64::ZERO; n];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (j, &xj) in x.iter().enumerate() {
                acc = acc.mul_add(self.v_element(i, j), xj);
            }
            *yi = acc + x[i].scale(self.kinetic[i]);
        }
        y
    }

    /// Crude upper/lower bounds on the spectrum (Ry) via Gershgorin-like
    /// estimates; used to set up the Chebyshev spectral map.
    pub fn spectral_bounds(&self) -> (f64, f64) {
        let v0 = self.vpot.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let kin_max = self.kinetic.iter().cloned().fold(0.0, f64::max);
        let n = self.dim() as f64;
        let spread = v0 * n.sqrt().min(64.0);
        (-spread - v0, kin_max + spread + v0)
    }
}

/// Helper carrying lattice info needed by `potential_on_box`.
struct BoxSpec {
    dims: (usize, usize, usize),
    lattice: crate::lattice::Lattice,
    atoms: Vec<crate::lattice::Atom>,
    volume: f64,
}

fn crystal_lattice_box(crystal: &Crystal, dims: (usize, usize, usize)) -> BoxSpec {
    BoxSpec {
        dims,
        lattice: crystal.lattice,
        atoms: crystal.atoms.clone(),
        volume: crystal.lattice.volume(),
    }
}

/// Nominal operation count of one atom's term in `V(dG)`: the form-factor
/// interpolation, the phase dot product, a sine/cosine pair and the
/// scaled accumulate.
const FLOPS_PER_ATOM_TERM: u64 = 60;

/// Computes `V(dG)` for every Miller triplet representable on the FFT box.
fn potential_on_box(_crystal: &Crystal, spec: &BoxSpec) -> Vec<Complex64> {
    let (nx, ny, nz) = spec.dims;
    let total = nx * ny * nz;
    let mut v = vec![Complex64::ZERO; total];
    let to_signed = |idx: usize, n: usize| -> i32 {
        let idx = idx as i32;
        let n = n as i32;
        if idx <= n / 2 {
            idx
        } else {
            idx - n
        }
    };
    let two_pi = 2.0 * std::f64::consts::PI;
    // Per grid point: |G| and, per atom, a form factor, a phase and a
    // complex exponential.
    let point_cost = bgw_par::Flops(FLOPS_PER_ATOM_TERM * spec.atoms.len() as u64);
    bgw_par::parallel_fill(&mut v, point_cost, |flat, slot| {
        let ix = flat / (ny * nz);
        let iy = (flat / nz) % ny;
        let iz = flat % nz;
        let m = [to_signed(ix, nx), to_signed(iy, ny), to_signed(iz, nz)];
        let g = spec.lattice.g_cart(m);
        let q = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
        let mut acc = Complex64::ZERO;
        for at in &spec.atoms {
            let u = at.species.form_factor(q);
            if u == 0.0 {
                continue;
            }
            // phase = -G . r_j = -2 pi m . frac
            let phase = -two_pi
                * (m[0] as f64 * at.frac[0] + m[1] as f64 * at.frac[1] + m[2] as f64 * at.frac[2]);
            acc += Complex64::cis(phase).scale(u);
        }
        *slot = acc.scale(1.0 / spec.volume);
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{Crystal, Lattice};
    use crate::pseudo::{Species, SI_A0};

    fn si_bulk() -> (Crystal, GSphere, Hamiltonian) {
        let c = Crystal::diamond(Species::Si, SI_A0);
        let sph = GSphere::new(&c.lattice, 3.0);
        let h = Hamiltonian::new(&c, &sph);
        (c, sph, h)
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let (_, _, h) = si_bulk();
        let m = h.to_matrix();
        assert!(
            m.hermiticity_error() <= 1e-12,
            "err {}",
            m.hermiticity_error()
        );
    }

    #[test]
    fn diagonal_is_kinetic_plus_v0() {
        let (c, sph, h) = si_bulk();
        let m = h.to_matrix();
        // V(0) = (1/Omega) sum_j u_j(0)
        let v0: f64 = c
            .atoms
            .iter()
            .map(|a| a.species.form_factor(0.0))
            .sum::<f64>()
            / c.lattice.volume();
        for i in 0..5 {
            let expect = sph.norm2[i] + v0;
            assert!(
                (m[(i, i)].re - expect).abs() < 1e-10,
                "diag {i}: {} vs {expect}",
                m[(i, i)].re
            );
            assert!(m[(i, i)].im.abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let (_, sph, h) = si_bulk();
        let n = sph.len();
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(i as f64 * 0.7).scale(1.0 / (1.0 + i as f64)))
            .collect();
        let dense = h.to_matrix();
        let y1 = h.matvec(&x);
        let y2 = dense.matvec(&x);
        let err = y1
            .iter()
            .zip(&y2)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10, "err {err}");
    }

    #[test]
    fn potential_has_inversion_symmetry_for_centrosymmetric_crystal() {
        // Rocksalt is centrosymmetric about an atom: V(G) should be
        // Hermitian-symmetric V(-G) = conj(V(G)) always, and here also real
        // up to the basis origin choice phase. Check the conj symmetry.
        let c = Crystal::rocksalt(Species::Li, Species::H, 7.72);
        let sph = GSphere::new(&c.lattice, 3.0);
        let h = Hamiltonian::new(&c, &sph);
        for i in 0..sph.len().min(40) {
            let j = sph.minus(i);
            let vij = h.v_element(i, 0);
            let vji = h.v_element(j, 0);
            assert!((vij - vji.conj()).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn empty_lattice_limit_is_free_electron() {
        // A crystal whose atoms all have zero weight isn't constructible,
        // so take the kinetic-only part: off-diagonal elements must vanish
        // when all atoms are removed.
        let c = Crystal {
            lattice: Lattice::cubic(10.0),
            atoms: vec![],
        };
        let sph = GSphere::new(&c.lattice, 2.0);
        let h = Hamiltonian::new(&c, &sph);
        let m = h.to_matrix();
        for i in 0..sph.len() {
            for j in 0..sph.len() {
                if i != j {
                    assert_eq!(m[(i, j)], Complex64::ZERO);
                } else {
                    assert!((m[(i, i)].re - sph.norm2[i]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn spectral_bounds_contain_diagonal() {
        let (_, _, h) = si_bulk();
        let (lo, hi) = h.spectral_bounds();
        let m = h.to_matrix();
        for i in 0..h.dim() {
            assert!(m[(i, i)].re > lo && m[(i, i)].re < hi);
        }
    }
}
