//! `bgw-pwdft`: the mean-field starting point for GW.
//!
//! The paper's workflow begins with DFT/DFPT calculations (Quantum
//! ESPRESSO) that supply Kohn-Sham wavefunctions, energies, and
//! first-order perturbed wavefunctions to BerkeleyGW (Fig. 1a). This crate
//! is that substrate, rebuilt as an empirical-pseudopotential plane-wave
//! model (see DESIGN.md Sec. 2 for the substitution argument):
//!
//! - [`lattice`]: crystals, supercells, vacancies/substitutions/
//!   displacements (the defect systems of Table 2).
//! - [`pseudo`]: smooth model form factors per species (Si interpolates the
//!   Cohen-Bergstresser values).
//! - [`gvec`]: plane-wave spheres `N_G^psi`, `N_G` and FFT boxes.
//! - [`hamiltonian`]: `H_{GG'}` assembly and matrix-free application.
//! - [`solver`]: dense "Parabands" diagonalization producing the band sets
//!   `{psi_n, E_n}`, plus the valence charge density for the GPP model.
//! - [`dfpt`]: atom-displacement perturbations and first-order
//!   wavefunctions for GWPT (Sec. 5.1).
//! - [`systems`]: the scaled Table 2 roster (Si divacancy, LiH defect,
//!   BN sheet defect).
//! - [`kpoints`]: arbitrary-k solver, high-symmetry paths, and band
//!   structures for validating the model pseudopotentials.

#![warn(missing_docs)]

pub mod dfpt;
pub mod gvec;
pub mod hamiltonian;
pub mod kpoints;
pub mod lattice;
pub mod pseudo;
pub mod solver;
pub mod systems;

pub use dfpt::Perturbation;
pub use gvec::GSphere;
pub use hamiltonian::Hamiltonian;
pub use kpoints::{band_structure, bands_at_k, indirect_gap, kpath, KPath, KPoint};
pub use lattice::{Atom, Crystal, Lattice};
pub use pseudo::Species;
pub use solver::{charge_density_g, solve_bands, Wavefunctions};
pub use systems::{bn_defect_sheet, lih_defect, si_bulk, si_divacancy, ModelSystem};
