//! k-point sampling and band structures.
//!
//! The GW engine in this reproduction works at the Gamma point of (large)
//! supercells, like the paper's defect calculations — but the mean-field
//! substrate supports arbitrary Bloch vectors: `H_{GG'}(k) = |k + G|^2
//! delta_{GG'} + V(G - G')`. This module provides the k-dependent solver
//! and high-symmetry paths, used to validate the model pseudopotentials
//! against the known band topology (and for band-structure examples).

use crate::gvec::GSphere;
use crate::hamiltonian::Hamiltonian;
use crate::lattice::Crystal;
use bgw_linalg::{eigh, CMatrix};
use bgw_num::Complex64;

/// A Bloch vector in Cartesian coordinates (bohr^-1).
pub type KVector = [f64; 3];

/// Dense k-dependent Hamiltonian built on a Gamma-centered sphere.
///
/// The sphere should use a slightly larger cutoff than the target states
/// need, since the kinetic energies `|k + G|^2` shift by up to
/// `2 |k| G_max + |k|^2`.
pub fn hamiltonian_at_k(crystal: &Crystal, sph: &GSphere, h0: &Hamiltonian, k: KVector) -> CMatrix {
    let n = sph.len();
    assert_eq!(h0.dim(), n, "Hamiltonian and sphere disagree");
    assert!(crystal.n_atoms() > 0 || n > 0);
    let mut h = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            h[(i, j)] = h0.v_element(i, j);
        }
        let g = sph.cart[i];
        let kin = (k[0] + g[0]).powi(2) + (k[1] + g[1]).powi(2) + (k[2] + g[2]).powi(2);
        h[(i, i)] += Complex64::real(kin);
    }
    h
}

/// Band energies (Ry, ascending) at one k-point; keeps `n_bands`.
pub fn bands_at_k(
    crystal: &Crystal,
    sph: &GSphere,
    h0: &Hamiltonian,
    k: KVector,
    n_bands: usize,
) -> Vec<f64> {
    let h = hamiltonian_at_k(crystal, sph, h0, k);
    let mut vals = bgw_linalg::eigvalsh(&h);
    vals.truncate(n_bands.min(sph.len()));
    vals
}

/// Full eigenvectors at one k-point (columns), for optical-matrix uses.
pub fn states_at_k(
    crystal: &Crystal,
    sph: &GSphere,
    h0: &Hamiltonian,
    k: KVector,
) -> (Vec<f64>, CMatrix) {
    let h = hamiltonian_at_k(crystal, sph, h0, k);
    let e = eigh(&h);
    (e.values, e.vectors)
}

/// A labeled high-symmetry point.
#[derive(Clone, Debug)]
pub struct KPoint {
    /// Label, e.g. `"Gamma"`, `"X"`, `"L"`.
    pub label: String,
    /// Cartesian coordinates (bohr^-1).
    pub k: KVector,
}

/// A sampled path through the Brillouin zone.
#[derive(Clone, Debug)]
pub struct KPath {
    /// The sampled k-points.
    pub kpoints: Vec<KVector>,
    /// Cumulative path length at each sample (for plotting).
    pub distance: Vec<f64>,
    /// `(sample index, label)` of the high-symmetry vertices.
    pub labels: Vec<(usize, String)>,
}

/// Builds a piecewise-linear path through `vertices` with `per_segment`
/// samples per leg (endpoints included once).
pub fn kpath(vertices: &[KPoint], per_segment: usize) -> KPath {
    assert!(vertices.len() >= 2, "need at least two vertices");
    assert!(per_segment >= 1);
    let mut kpoints = Vec::new();
    let mut distance = Vec::new();
    let mut labels = Vec::new();
    let mut dist = 0.0;
    for (v, pair) in vertices.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        labels.push((kpoints.len(), a.label.clone()));
        let steps = per_segment;
        let seg_len =
            ((b.k[0] - a.k[0]).powi(2) + (b.k[1] - a.k[1]).powi(2) + (b.k[2] - a.k[2]).powi(2))
                .sqrt();
        let upper = if v == vertices.len() - 2 {
            steps + 1
        } else {
            steps
        };
        for s in 0..upper {
            let t = s as f64 / steps as f64;
            kpoints.push([
                a.k[0] + t * (b.k[0] - a.k[0]),
                a.k[1] + t * (b.k[1] - a.k[1]),
                a.k[2] + t * (b.k[2] - a.k[2]),
            ]);
            distance.push(dist + t * seg_len);
        }
        dist += seg_len;
    }
    labels.push((kpoints.len() - 1, vertices.last().unwrap().label.clone()));
    KPath {
        kpoints,
        distance,
        labels,
    }
}

/// The standard fcc high-symmetry points for a conventional cubic cell of
/// edge `a0` (bohr): L, Gamma, X, and the zone-boundary K-ish point U.
pub fn fcc_path_vertices(a0: f64) -> Vec<KPoint> {
    let g = 2.0 * std::f64::consts::PI / a0;
    vec![
        KPoint {
            label: "L".into(),
            k: [0.5 * g, 0.5 * g, 0.5 * g],
        },
        KPoint {
            label: "Gamma".into(),
            k: [0.0, 0.0, 0.0],
        },
        KPoint {
            label: "X".into(),
            k: [g, 0.0, 0.0],
        },
    ]
}

/// Computes the band structure along a path.
pub fn band_structure(
    crystal: &Crystal,
    sph: &GSphere,
    path: &KPath,
    n_bands: usize,
) -> Vec<Vec<f64>> {
    let h0 = Hamiltonian::new(crystal, sph);
    path.kpoints
        .iter()
        .map(|&k| bands_at_k(crystal, sph, &h0, k, n_bands))
        .collect()
}

/// Indirect gap over a sampled path: `min_k E_{N_v}(k) - max_k E_{N_v-1}(k)`.
pub fn indirect_gap(bands: &[Vec<f64>], n_valence: usize) -> f64 {
    // A NaN band energy must surface as a NaN gap: `f64::max`/`min`
    // silently ignore NaN operands, which used to hide a diverged
    // eigenvalue behind a plausible-looking number.
    let mut vbm = f64::NEG_INFINITY;
    let mut cbm = f64::INFINITY;
    for b in bands {
        let (ev, ec) = (b[n_valence - 1], b[n_valence]);
        if ev.is_nan() || ec.is_nan() {
            return f64::NAN;
        }
        vbm = vbm.max(ev);
        cbm = cbm.min(ec);
    }
    cbm - vbm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudo::{Species, SI_A0};

    fn si_setup() -> (Crystal, GSphere) {
        // primitive 2-atom cell: unfolded band structure
        let c = Crystal::diamond_primitive(Species::Si, SI_A0);
        let sph = GSphere::new(&c.lattice, 6.0);
        (c, sph)
    }

    #[test]
    fn gamma_matches_gamma_solver() {
        let (c, sph) = si_setup();
        let h0 = Hamiltonian::new(&c, &sph);
        let at_k = bands_at_k(&c, &sph, &h0, [0.0; 3], 12);
        let gamma = crate::solver::solve_bands(&c, &sph, 12);
        for (a, b) in at_k.iter().zip(&gamma.energies) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn hamiltonian_at_k_is_hermitian() {
        let (c, sph) = si_setup();
        let h0 = Hamiltonian::new(&c, &sph);
        let h = hamiltonian_at_k(&c, &sph, &h0, [0.21, -0.1, 0.33]);
        assert!(h.hermiticity_error() <= 1e-12);
    }

    #[test]
    fn kpath_geometry() {
        let verts = fcc_path_vertices(10.0);
        let path = kpath(&verts, 4);
        assert_eq!(path.kpoints.len(), 9); // 4 + 4 + endpoint
        assert_eq!(path.labels.len(), 3);
        assert_eq!(path.labels[0].1, "L");
        assert_eq!(path.labels[2].1, "X");
        // distances strictly increasing
        for w in path.distance.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn nan_band_energy_surfaces_as_nan_gap() {
        // A diverged eigenvalue must neither panic the k-point argmax /
        // argmin machinery nor be silently dropped by the gap finder.
        let mut bands = vec![
            vec![-1.0, -0.5, 0.3, 0.9],
            vec![-1.1, -0.4, 0.2, 1.0],
            vec![-0.9, -0.6, 0.4, 0.8],
        ];
        let clean = indirect_gap(&bands, 2);
        assert!((clean - (0.2 - (-0.4))).abs() < 1e-15);
        bands[1][2] = f64::NAN; // poison one conduction energy
        let gap = indirect_gap(&bands, 2);
        assert!(gap.is_nan(), "NaN input must produce a NaN gap, got {gap}");
        bands[1][2] = 0.2;
        bands[0][1] = f64::NAN; // poison a valence energy
        assert!(indirect_gap(&bands, 2).is_nan());
        // total_cmp keeps max_by/min_by panic-free on the same data (NaN
        // sorts above every real value in descending significance).
        let vbm_k = (0..bands.len())
            .max_by(|&i, &j| bands[i][1].total_cmp(&bands[j][1]))
            .unwrap();
        assert_eq!(vbm_k, 0, "NaN compares greater than any real energy");
    }

    #[test]
    fn si_model_band_topology() {
        // The CB-interpolated Si model must show: (i) an insulating gap
        // everywhere on L-Gamma-X, (ii) valence-band maximum at Gamma,
        // (iii) conduction minimum NOT at Gamma (silicon's indirect gap).
        let (c, sph) = si_setup();
        let path = kpath(&fcc_path_vertices(SI_A0), 8);
        let bands = band_structure(&c, &sph, &path, 6);
        let nv = c.n_valence_bands(); // 4 in the primitive 2-atom cell
        let gap = indirect_gap(&bands, nv);
        assert!(
            gap > 0.0,
            "model Si must be insulating along the path: {gap}"
        );
        // VBM at Gamma
        let gamma_idx = path
            .kpoints
            .iter()
            .position(|k| k.iter().all(|&x| x.abs() < 1e-12))
            .unwrap();
        let vbm_k = (0..bands.len())
            .max_by(|&i, &j| bands[i][nv - 1].total_cmp(&bands[j][nv - 1]))
            .unwrap();
        assert_eq!(vbm_k, gamma_idx, "VBM must sit at Gamma");
        // CBM away from Gamma (indirect)
        let cbm_k = (0..bands.len())
            .min_by(|&i, &j| bands[i][nv].total_cmp(&bands[j][nv]))
            .unwrap();
        assert_ne!(cbm_k, gamma_idx, "silicon-like model must be indirect");
    }

    #[test]
    fn bands_are_continuous_along_path() {
        let (c, sph) = si_setup();
        let path = kpath(&fcc_path_vertices(SI_A0), 10);
        let bands = band_structure(&c, &sph, &path, 8);
        for w in bands.windows(2) {
            for (b, (&e0, &e1)) in w[0].iter().zip(&w[1]).enumerate().take(8) {
                assert!((e1 - e0).abs() < 0.25, "band {b} jumps: {e0} -> {e1}");
            }
        }
    }

    #[test]
    fn states_at_k_are_orthonormal() {
        let (c, sph) = si_setup();
        let h0 = Hamiltonian::new(&c, &sph);
        let (_, v) = states_at_k(&c, &sph, &h0, [0.1, 0.2, 0.0]);
        let overlap = bgw_linalg::matmul(&v, bgw_linalg::Op::Adj, &v, bgw_linalg::Op::None);
        assert!(overlap.max_abs_diff(&CMatrix::identity(sph.len())) < 1e-8);
    }
}
