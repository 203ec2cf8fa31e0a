//! Plane-wave basis spheres (G-vector sets).
//!
//! `N_G^psi` and `N_G` in paper Table 1/2 are the sizes of two such spheres:
//! a larger one for wavefunctions and a smaller one for the polarizability
//! and dielectric matrices. A sphere holds all reciprocal-lattice vectors
//! with kinetic energy `|G|^2 <= E_cut` (Ry), deterministically ordered by
//! `(|G|^2, Miller indices)` so that rank-distributed slices are
//! reproducible.

use crate::lattice::Lattice;
use std::collections::HashMap;

/// A set of G-vectors inside an energy cutoff.
#[derive(Clone, Debug)]
pub struct GSphere {
    /// Miller indices of each G-vector.
    pub miller: Vec<[i32; 3]>,
    /// Cartesian components (bohr^-1).
    pub cart: Vec<[f64; 3]>,
    /// `|G|^2` (bohr^-2), equal to the kinetic energy in Ry.
    pub norm2: Vec<f64>,
    /// The cutoff (Ry) used to build the sphere.
    pub ecut_ry: f64,
    /// FFT box dimensions able to hold all pairwise differences.
    pub fft_dims: (usize, usize, usize),
    index: HashMap<[i32; 3], usize>,
}

impl GSphere {
    /// Builds the sphere for `lattice` with cutoff `ecut_ry` (Ry).
    pub fn new(lattice: &Lattice, ecut_ry: f64) -> Self {
        assert!(ecut_ry > 0.0, "cutoff must be positive");
        let gmax = ecut_ry.sqrt();
        // |m_i| = |G . a_i| / 2 pi <= |G| |a_i| / 2 pi
        let bound = |row: [f64; 3]| {
            let len = (row[0] * row[0] + row[1] * row[1] + row[2] * row[2]).sqrt();
            (gmax * len / (2.0 * std::f64::consts::PI)).ceil() as i32 + 1
        };
        let (m1, m2, m3) = (
            bound(lattice.a[0]),
            bound(lattice.a[1]),
            bound(lattice.a[2]),
        );
        let mut entries: Vec<([i32; 3], [f64; 3], f64)> = Vec::new();
        for i in -m1..=m1 {
            for j in -m2..=m2 {
                for k in -m3..=m3 {
                    let g = lattice.g_cart([i, j, k]);
                    let n2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
                    if n2 <= ecut_ry + 1e-12 {
                        entries.push(([i, j, k], g, n2));
                    }
                }
            }
        }
        // Deterministic order: energy, then Miller lexicographic.
        entries.sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut miller = Vec::with_capacity(entries.len());
        let mut cart = Vec::with_capacity(entries.len());
        let mut norm2 = Vec::with_capacity(entries.len());
        let mut index = HashMap::with_capacity(entries.len());
        for (pos, (m, g, n2)) in entries.into_iter().enumerate() {
            index.insert(m, pos);
            miller.push(m);
            cart.push(g);
            norm2.push(n2);
        }
        // FFT box: must hold differences G - G', i.e. Miller range
        // [-2 m_max, 2 m_max]; round up to 5-smooth sizes.
        let max_m = |axis: usize| {
            miller
                .iter()
                .map(|m| m[axis].unsigned_abs())
                .max()
                .unwrap_or(0)
        };
        let dim = |axis: usize| bgw_fft::good_size((4 * max_m(axis) + 1) as usize);
        let fft_dims = (dim(0), dim(1), dim(2));
        Self {
            miller,
            cart,
            norm2,
            ecut_ry,
            fft_dims,
            index,
        }
    }

    /// Number of G-vectors (`N_G`).
    pub fn len(&self) -> usize {
        self.miller.len()
    }

    /// `true` if the sphere is empty (never for positive cutoffs).
    pub fn is_empty(&self) -> bool {
        self.miller.is_empty()
    }

    /// Position of a Miller triplet in the sphere, if inside the cutoff.
    pub fn find(&self, m: [i32; 3]) -> Option<usize> {
        self.index.get(&m).copied()
    }

    /// Flattened FFT-box index for the G-vector at `i` (wrapping negative
    /// Miller indices into the box).
    pub fn fft_index(&self, i: usize) -> usize {
        let (nx, ny, nz) = self.fft_dims;
        let m = self.miller[i];
        let wrap = |v: i32, n: usize| -> usize {
            let n = n as i32;
            (((v % n) + n) % n) as usize
        };
        (wrap(m[0], nx) * ny + wrap(m[1], ny)) * nz + wrap(m[2], nz)
    }
}

/// The `-G` partner the Hermitian-symmetry tests pair each G with.
#[cfg(test)]
impl GSphere {
    /// Index of `-G` for the G-vector at `i` (spheres are inversion
    /// symmetric by construction).
    pub(crate) fn minus(&self, i: usize) -> usize {
        let m = self.miller[i];
        self.find([-m[0], -m[1], -m[2]])
            .expect("sphere must be inversion symmetric")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_counts_match_volume_estimate() {
        let lat = Lattice::cubic(10.0);
        let sph = GSphere::new(&lat, 4.0);
        // N_G ~ Omega * gmax^3 / (6 pi^2)
        let est = lat.volume() * 4.0f64.powf(1.5) / (6.0 * std::f64::consts::PI.powi(2));
        let n = sph.len() as f64;
        assert!(
            (n - est).abs() / est < 0.25,
            "count {n} vs continuum estimate {est}"
        );
    }

    #[test]
    fn first_vector_is_gamma_and_sorted() {
        let sph = GSphere::new(&Lattice::cubic(8.0), 6.0);
        assert_eq!(sph.miller[0], [0, 0, 0]);
        assert_eq!(sph.norm2[0], 0.0);
        for w in sph.norm2.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // all inside the cutoff
        assert!(sph.norm2.iter().all(|&n2| n2 <= 6.0 + 1e-9));
    }

    #[test]
    fn inversion_symmetry() {
        let sph = GSphere::new(&Lattice::hexagonal(5.0, 12.0), 5.0);
        for m in &sph.miller {
            assert!(sph.find([-m[0], -m[1], -m[2]]).is_some(), "-{m:?} missing");
        }
    }

    #[test]
    fn find_roundtrip() {
        let sph = GSphere::new(&Lattice::cubic(9.0), 3.5);
        for (i, &m) in sph.miller.iter().enumerate() {
            assert_eq!(sph.find(m), Some(i));
        }
        assert_eq!(sph.find([100, 0, 0]), None);
    }

    #[test]
    fn fft_box_holds_differences() {
        let sph = GSphere::new(&Lattice::cubic(10.0), 4.0);
        let (nx, ny, nz) = sph.fft_dims;
        let max_m = sph
            .miller
            .iter()
            .map(|m| m.iter().map(|v| v.unsigned_abs()).max().unwrap())
            .max()
            .unwrap();
        assert!(nx >= (4 * max_m + 1) as usize);
        assert!(ny >= (4 * max_m + 1) as usize && nz >= (4 * max_m + 1) as usize);
        // fft_index is injective over the sphere
        let mut seen = std::collections::HashSet::new();
        for i in 0..sph.len() {
            assert!(seen.insert(sph.fft_index(i)), "fft_index collision at {i}");
        }
    }

    #[test]
    fn larger_cutoff_is_superset() {
        let lat = Lattice::cubic(10.0);
        let small = GSphere::new(&lat, 2.0);
        let big = GSphere::new(&lat, 5.0);
        assert!(big.len() > small.len());
        for &m in &small.miller {
            assert!(big.find(m).is_some());
        }
    }
}
