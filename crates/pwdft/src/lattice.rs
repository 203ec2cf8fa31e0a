//! Crystal lattices, atomic bases, supercells, and point defects.
//!
//! Provides the geometric substrate for the model systems of paper Table 2:
//! diamond-structure Si supercells with divacancies, rocksalt LiH supercells
//! with defects, and hexagonal BN sheets with substitutions — all in
//! Hartree atomic units (lengths in bohr).

use crate::pseudo::Species;

/// A Bravais lattice given by three row vectors (bohr).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lattice {
    /// Lattice vectors as rows: `a[i]` is the i-th lattice vector.
    pub a: [[f64; 3]; 3],
}

impl Lattice {
    /// Creates a lattice from row vectors.
    pub fn new(a: [[f64; 3]; 3]) -> Self {
        let l = Self { a };
        assert!(l.volume() > 1e-9, "degenerate lattice");
        l
    }

    /// Simple cubic lattice with edge `a0`.
    pub fn cubic(a0: f64) -> Self {
        Self::new([[a0, 0.0, 0.0], [0.0, a0, 0.0], [0.0, 0.0, a0]])
    }

    /// Hexagonal lattice (in-plane constant `a0`, out-of-plane `c`).
    pub fn hexagonal(a0: f64, c: f64) -> Self {
        Self::new([
            [a0, 0.0, 0.0],
            [-0.5 * a0, 0.5 * a0 * 3f64.sqrt(), 0.0],
            [0.0, 0.0, c],
        ])
    }

    /// Cell volume (bohr^3).
    pub fn volume(&self) -> f64 {
        let [u, v, w] = self.a;
        (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))
            .abs()
    }

    /// Reciprocal lattice vectors as rows (bohr^-1), `b_i . a_j = 2 pi d_ij`.
    pub fn reciprocal(&self) -> [[f64; 3]; 3] {
        let [u, v, w] = self.a;
        let vol = u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]);
        let f = 2.0 * std::f64::consts::PI / vol;
        let cross = |p: [f64; 3], q: [f64; 3]| {
            [
                p[1] * q[2] - p[2] * q[1],
                p[2] * q[0] - p[0] * q[2],
                p[0] * q[1] - p[1] * q[0],
            ]
        };
        let b1 = cross(v, w).map(|x| x * f);
        let b2 = cross(w, u).map(|x| x * f);
        let b3 = cross(u, v).map(|x| x * f);
        [b1, b2, b3]
    }

    /// Cartesian G-vector for integer Miller indices.
    pub fn g_cart(&self, m: [i32; 3]) -> [f64; 3] {
        let b = self.reciprocal();
        let mut g = [0.0; 3];
        for (i, gi) in g.iter_mut().enumerate() {
            *gi = m[0] as f64 * b[0][i] + m[1] as f64 * b[1][i] + m[2] as f64 * b[2][i];
        }
        g
    }
}

/// One atom: a species plus its fractional position in the cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Atom {
    /// Chemical identity (carries the model pseudopotential).
    pub species: Species,
    /// Fractional coordinates in `[0, 1)`.
    pub frac: [f64; 3],
}

/// A crystal: lattice plus atomic basis.
#[derive(Clone, Debug)]
pub struct Crystal {
    /// The periodic cell.
    pub lattice: Lattice,
    /// Atoms in the cell.
    pub atoms: Vec<Atom>,
}

impl Crystal {
    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total number of valence electrons.
    pub fn n_electrons(&self) -> usize {
        self.atoms
            .iter()
            .map(|a| a.species.valence_electrons())
            .sum()
    }

    /// Number of doubly-occupied valence bands (spin-degenerate).
    /// Panics on odd electron counts (open shells are out of scope).
    pub fn n_valence_bands(&self) -> usize {
        let ne = self.n_electrons();
        assert!(
            ne.is_multiple_of(2),
            "odd electron count: open-shell system"
        );
        ne / 2
    }

    /// Diamond-structure crystal (two-atom basis at 0 and (1/4,1/4,1/4) of
    /// the *conventional* cubic cell, replicated to the 8-atom cell).
    pub fn diamond(species: Species, a0: f64) -> Self {
        let lattice = Lattice::cubic(a0);
        // 4 fcc sites + 2-atom basis = 8 atoms in the conventional cell.
        let fcc = [
            [0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
        ];
        let mut atoms = Vec::with_capacity(8);
        for site in fcc {
            atoms.push(Atom {
                species,
                frac: site,
            });
            atoms.push(Atom {
                species,
                frac: [site[0] + 0.25, site[1] + 0.25, site[2] + 0.25],
            });
        }
        Self { lattice, atoms }
    }

    /// Primitive diamond cell: fcc lattice vectors `a0/2 (0,1,1)` etc.
    /// with a two-atom basis — the cell for unfolded band structures.
    pub fn diamond_primitive(species: Species, a0: f64) -> Self {
        let h = 0.5 * a0;
        let lattice = Lattice::new([[0.0, h, h], [h, 0.0, h], [h, h, 0.0]]);
        Self {
            lattice,
            atoms: vec![
                Atom {
                    species,
                    frac: [0.0, 0.0, 0.0],
                },
                Atom {
                    species,
                    frac: [0.25, 0.25, 0.25],
                },
            ],
        }
    }

    /// Rocksalt crystal (8-atom conventional cell: 4 cation + 4 anion).
    pub fn rocksalt(cation: Species, anion: Species, a0: f64) -> Self {
        let lattice = Lattice::cubic(a0);
        let fcc = [
            [0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
        ];
        let mut atoms = Vec::with_capacity(8);
        for site in fcc {
            atoms.push(Atom {
                species: cation,
                frac: site,
            });
            atoms.push(Atom {
                species: anion,
                frac: [site[0] + 0.5, site[1], site[2]],
            });
        }
        Self { lattice, atoms }
    }

    /// A single hexagonal BN-like sheet with vacuum padding `c` (bohr).
    pub fn hex_sheet(a_species: Species, b_species: Species, a0: f64, c: f64) -> Self {
        let lattice = Lattice::hexagonal(a0, c);
        Self {
            lattice,
            atoms: vec![
                Atom {
                    species: a_species,
                    frac: [1.0 / 3.0, 2.0 / 3.0, 0.5],
                },
                Atom {
                    species: b_species,
                    frac: [2.0 / 3.0, 1.0 / 3.0, 0.5],
                },
            ],
        }
    }

    /// Replicates the cell `n1 x n2 x n3` times.
    pub fn supercell(&self, n: [usize; 3]) -> Self {
        assert!(n.iter().all(|&x| x >= 1), "supercell factors must be >= 1");
        let nf = [n[0] as f64, n[1] as f64, n[2] as f64];
        let mut a = self.lattice.a;
        for (i, row) in a.iter_mut().enumerate() {
            for x in row.iter_mut() {
                *x *= nf[i];
            }
        }
        let mut atoms = Vec::with_capacity(self.atoms.len() * n[0] * n[1] * n[2]);
        for i in 0..n[0] {
            for j in 0..n[1] {
                for k in 0..n[2] {
                    for at in &self.atoms {
                        atoms.push(Atom {
                            species: at.species,
                            frac: [
                                (at.frac[0] + i as f64) / nf[0],
                                (at.frac[1] + j as f64) / nf[1],
                                (at.frac[2] + k as f64) / nf[2],
                            ],
                        });
                    }
                }
            }
        }
        Self {
            lattice: Lattice::new(a),
            atoms,
        }
    }

    /// Removes the atom at `index` (a vacancy defect).
    pub fn with_vacancy(&self, index: usize) -> Self {
        assert!(index < self.atoms.len(), "vacancy index out of range");
        let mut c = self.clone();
        c.atoms.remove(index);
        c
    }

    /// Replaces the species of the atom at `index` (substitutional defect).
    pub fn with_substitution(&self, index: usize, species: Species) -> Self {
        assert!(index < self.atoms.len(), "substitution index out of range");
        let mut c = self.clone();
        c.atoms[index].species = species;
        c
    }

    /// Displaces atom `index` by a Cartesian vector (bohr) — the frozen
    /// phonon used by finite-difference checks of DFPT/GWPT.
    pub fn with_displacement(&self, index: usize, cart: [f64; 3]) -> Self {
        assert!(index < self.atoms.len());
        let mut c = self.clone();
        // Convert Cartesian displacement to fractional.
        let b = self.lattice.reciprocal();
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut df = [0.0; 3];
        for (i, dfi) in df.iter_mut().enumerate() {
            *dfi = (b[i][0] * cart[0] + b[i][1] * cart[1] + b[i][2] * cart[2]) / two_pi;
        }
        for (fk, dfk) in c.atoms[index].frac.iter_mut().zip(df) {
            *fk += dfk;
        }
        c
    }
}

/// The reference the tests hold `g_cart` and `with_displacement`'s
/// Cartesian-to-fractional step to.
#[cfg(test)]
impl Lattice {
    /// Converts fractional coordinates to Cartesian (bohr).
    fn frac_to_cart(&self, f: [f64; 3]) -> [f64; 3] {
        let mut r = [0.0; 3];
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = f[0] * self.a[0][i] + f[1] * self.a[1][i] + f[2] * self.a[2][i];
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudo::Species;

    #[test]
    fn cubic_lattice_geometry() {
        let l = Lattice::cubic(10.0);
        assert!((l.volume() - 1000.0).abs() < 1e-9);
        let b = l.reciprocal();
        // b_i . a_j = 2 pi delta_ij
        for (i, bi) in b.iter().enumerate() {
            for j in 0..3 {
                let dot: f64 = (0..3).map(|k| bi[k] * l.a[j][k]).sum();
                let expect = if i == j {
                    2.0 * std::f64::consts::PI
                } else {
                    0.0
                };
                assert!((dot - expect).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn hexagonal_volume() {
        let l = Lattice::hexagonal(4.0, 10.0);
        let expect = 4.0 * 4.0 * 3f64.sqrt() / 2.0 * 10.0;
        assert!((l.volume() - expect).abs() < 1e-9);
    }

    #[test]
    fn frac_cart_roundtrip_via_g() {
        let l = Lattice::hexagonal(4.7, 12.0);
        let f = [0.3, 0.6, 0.25];
        let r = l.frac_to_cart(f);
        // G . r = 2 pi (m . f)
        let g = l.g_cart([1, -2, 3]);
        let dot: f64 = (0..3).map(|k| g[k] * r[k]).sum();
        let expect = 2.0 * std::f64::consts::PI * (0.3 - 2.0 * 0.6 + 3.0 * 0.25);
        assert!((dot - expect).abs() < 1e-10);
    }

    #[test]
    fn diamond_cell_counts() {
        let c = Crystal::diamond(Species::Si, 10.26);
        assert_eq!(c.n_atoms(), 8);
        assert_eq!(c.n_electrons(), 32);
        assert_eq!(c.n_valence_bands(), 16);
    }

    #[test]
    fn rocksalt_cell_counts() {
        let c = Crystal::rocksalt(Species::Li, Species::H, 7.72);
        assert_eq!(c.n_atoms(), 8);
        assert_eq!(c.n_electrons(), 8);
        assert_eq!(c.n_valence_bands(), 4);
    }

    #[test]
    fn supercell_scales_atoms_and_volume() {
        let c = Crystal::diamond(Species::Si, 10.26);
        let s = c.supercell([2, 2, 2]);
        assert_eq!(s.n_atoms(), 64);
        assert!((s.lattice.volume() - 8.0 * c.lattice.volume()).abs() < 1e-6);
        // all fractional coordinates remain in [0, 1)
        for at in &s.atoms {
            for x in at.frac {
                assert!((0.0..1.0).contains(&x), "frac {x}");
            }
        }
    }

    #[test]
    fn defects_change_composition() {
        let c = Crystal::diamond(Species::Si, 10.26).supercell([2, 1, 1]);
        let v = c.with_vacancy(3);
        assert_eq!(v.n_atoms(), 15);
        assert_eq!(v.n_electrons(), 60);
        let s = c.with_substitution(0, Species::C);
        assert_eq!(s.n_atoms(), 16);
        assert_eq!(s.atoms[0].species, Species::C);
    }

    #[test]
    fn displacement_moves_one_atom() {
        let c = Crystal::diamond(Species::Si, 10.0);
        let d = c.with_displacement(2, [0.1, 0.0, 0.0]);
        let before = c.lattice.frac_to_cart(c.atoms[2].frac);
        let after = d.lattice.frac_to_cart(d.atoms[2].frac);
        assert!((after[0] - before[0] - 0.1).abs() < 1e-12);
        assert!((after[1] - before[1]).abs() < 1e-12);
        for i in 0..c.n_atoms() {
            if i != 2 {
                assert_eq!(c.atoms[i], d.atoms[i]);
            }
        }
    }

    #[test]
    fn divacancy_matches_paper_counting() {
        // Paper's Si214 is a 216-site cell minus a divacancy.
        let c = Crystal::diamond(Species::Si, 10.26).supercell([3, 3, 3]);
        assert_eq!(c.n_atoms(), 216);
        let dv = c.with_vacancy(10).with_vacancy(9);
        assert_eq!(dv.n_atoms(), 214);
        assert_eq!(dv.n_valence_bands(), 428); // matches Table 2's N_v
    }
}
