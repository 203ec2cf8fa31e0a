//! Shared small-system fixtures for tests, examples, and benches.
//!
//! Builds a bulk-silicon model GW setup end to end (bands -> MTXEL ->
//! chi -> epsilon -> GPP -> SigmaContext) at cutoffs small enough for unit
//! tests, cached behind a `OnceLock` so the many test cases pay the cost
//! once per process.

use crate::chi::{ChiConfig, ChiEngine};
use crate::coulomb::Coulomb;
use crate::epsilon::EpsilonInverse;
use crate::gpp::GppModel;
use crate::mtxel::Mtxel;
use crate::sigma::SigmaContext;
use bgw_linalg::CMatrix;
use bgw_pwdft::{charge_density_g, solve_bands, Crystal, GSphere, Species, Wavefunctions};
use std::sync::OnceLock;

/// Everything a test might want to poke at.
#[derive(Clone, Debug)]
pub struct TestSetup {
    /// The crystal (bulk Si conventional cell).
    pub crystal: Crystal,
    /// Wavefunction sphere.
    pub wfn_sph: GSphere,
    /// Epsilon sphere.
    pub eps_sph: GSphere,
    /// Mean-field bands.
    pub wf: Wavefunctions,
    /// Static polarizability (plain, unsymmetrized).
    pub chi0: CMatrix,
    /// A finite-frequency polarizability (at `omega = 1.5` Ry).
    pub chi_finite: CMatrix,
    /// `sqrt(v(G))` on the epsilon sphere.
    pub vsqrt: Vec<f64>,
    /// Inverse symmetrized dielectric matrix at `omega = 0`.
    pub eps_inv: EpsilonInverse,
    /// Charge density on the wavefunction sphere.
    pub rho: Vec<bgw_num::Complex64>,
    /// Cell volume (bohr^3).
    pub volume: f64,
    /// The Coulomb interaction used (miniBZ-averaged q0).
    pub coulomb: Coulomb,
}

/// The bulk-silicon GW setup at the given wavefunction and epsilon
/// cutoffs (Ry) with `n_bands` bands, uncached: for the tests that need
/// regions larger than [`small_context`]'s (which all sit under the
/// worker pool's floor).
pub fn context_at(ecut_wfn_ry: f64, ecut_eps_ry: f64, n_bands: usize) -> (SigmaContext, TestSetup) {
    let crystal = Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0);
    let wfn_sph = GSphere::new(&crystal.lattice, ecut_wfn_ry);
    let eps_sph = GSphere::new(&crystal.lattice, ecut_eps_ry);
    let wf = solve_bands(&crystal, &wfn_sph, n_bands);
    let volume = crystal.lattice.volume();
    let coulomb = Coulomb::bulk_for_cell(volume);
    let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
    let chi_cfg = ChiConfig {
        q0: coulomb.q0,
        ..ChiConfig::default()
    };
    let engine = ChiEngine::new(&wf, &mtxel, chi_cfg);
    let (chis, _) = engine.chi_freqs(&[0.0, 1.5]);
    let eps_inv = EpsilonInverse::build(&chis[..1], &[0.0], &coulomb, &eps_sph)
        .expect("dielectric matrix must be invertible");
    let rho = charge_density_g(&wf, &wfn_sph);
    let gpp = GppModel::new(&eps_inv, &eps_sph, &wfn_sph, &rho, volume);
    let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);
    // Sigma bands bracketing the gap: HOMO-1, HOMO, LUMO, LUMO+1.
    let nv = wf.n_valence;
    let sigma_bands = vec![nv - 2, nv - 1, nv, nv + 1];
    let ctx = SigmaContext::build(&wf, &mtxel, gpp, &vsqrt, &sigma_bands, coulomb.q0);
    let setup = TestSetup {
        crystal,
        wfn_sph,
        eps_sph,
        wf,
        chi0: chis[0].clone(),
        chi_finite: chis[1].clone(),
        vsqrt,
        eps_inv,
        rho,
        volume,
        coulomb,
    };
    (ctx, setup)
}

static CACHE: OnceLock<(SigmaContext, TestSetup)> = OnceLock::new();

/// A cached small Si GW context: `(SigmaContext, TestSetup)`.
pub fn small_context() -> (SigmaContext, TestSetup) {
    CACHE.get_or_init(|| context_at(2.2, 0.55, 28)).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_consistent() {
        let (ctx, setup) = small_context();
        assert_eq!(ctx.n_g(), setup.eps_sph.len());
        assert_eq!(ctx.n_b(), setup.wf.n_bands());
        assert_eq!(ctx.n_sigma(), 4);
        assert_eq!(ctx.homo_pos(), 1);
        assert_eq!(ctx.lumo_pos(), 2);
        assert!(setup.volume > 0.0);
        // cached: same pointer-equal energies on second call
        let (ctx2, _) = small_context();
        assert_eq!(ctx.energies, ctx2.energies);
    }
}
