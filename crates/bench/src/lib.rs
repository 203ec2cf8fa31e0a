//! `bgw-bench`: the paper-reproduction binaries.
//!
//! One binary per table, figure and ablation of the paper's evaluation
//! (see DESIGN.md Sec. 5 for the index). Performance is measured by
//! `gwbench` (`benchmark/`), correctness by `cargo test`; nothing here
//! gates either. This library holds the shared plumbing: scaled-system
//! construction, GW setup assembly, and a timing helper.

#![warn(missing_docs)]

use bgw_core::chi::{ChiConfig, ChiEngine};
use bgw_core::coulomb::Coulomb;
use bgw_core::epsilon::EpsilonInverse;
use bgw_core::gpp::GppModel;
use bgw_core::mtxel::Mtxel;
use bgw_core::sigma::SigmaContext;
use bgw_linalg::CMatrix;
use bgw_pwdft::{charge_density_g, solve_bands, GSphere, ModelSystem, Wavefunctions};
use std::time::Instant;

/// A fully assembled GW setup for benchmarking kernels on a model system.
pub struct BenchSetup {
    /// The model system used.
    pub system: ModelSystem,
    /// Wavefunction sphere.
    pub wfn_sph: GSphere,
    /// Epsilon sphere.
    pub eps_sph: GSphere,
    /// Mean-field bands.
    pub wf: Wavefunctions,
    /// Static polarizability.
    pub chi0: CMatrix,
    /// Coulomb interaction (miniBZ q0).
    pub coulomb: Coulomb,
    /// `sqrt(v)` on the epsilon sphere.
    pub vsqrt: Vec<f64>,
    /// Static inverse dielectric matrix.
    pub eps_inv: EpsilonInverse,
    /// Sigma context with `n_sigma` bands around the gap.
    pub ctx: SigmaContext,
}

/// Builds the full pipeline up to a [`SigmaContext`] with `n_sigma` bands
/// centered on the gap.
pub fn build_setup(system: ModelSystem, n_sigma: usize) -> BenchSetup {
    let wfn_sph = system.wfn_sphere();
    let eps_sph = system.eps_sphere();
    let n_bands = system.n_bands.min(wfn_sph.len());
    let wf = solve_bands(&system.crystal, &wfn_sph, n_bands);
    let coulomb = Coulomb::bulk_for_cell(system.crystal.lattice.volume());
    let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
    let cfg = ChiConfig {
        q0: coulomb.q0,
        ..ChiConfig::default()
    };
    let engine = ChiEngine::new(&wf, &mtxel, cfg);
    let chi0 = engine.chi_static();
    let eps_inv = EpsilonInverse::build(std::slice::from_ref(&chi0), &[0.0], &coulomb, &eps_sph)
        .expect("dielectric matrix must be invertible");
    let rho = charge_density_g(&wf, &wfn_sph);
    let gpp = GppModel::new(
        &eps_inv,
        &eps_sph,
        &wfn_sph,
        &rho,
        system.crystal.lattice.volume(),
    );
    let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);
    let nv = wf.n_valence;
    let half = (n_sigma / 2).max(1);
    let lo = nv.saturating_sub(half);
    let hi = (lo + n_sigma).min(wf.n_bands());
    let sigma_bands: Vec<usize> = (lo..hi).collect();
    let ctx = SigmaContext::build(&wf, &mtxel, gpp, &vsqrt, &sigma_bands, coulomb.q0);
    BenchSetup {
        system,
        wfn_sph,
        eps_sph,
        wf,
        chi0,
        coulomb,
        vsqrt,
        eps_inv,
        ctx,
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The scaled benchmark roster: `(paper name, scaled system, N_Sigma)`.
/// Cutoffs are sized for minutes-not-hours runtimes on one node.
pub fn bench_roster() -> Vec<(&'static str, ModelSystem, usize)> {
    let mut si510 = bgw_pwdft::si_divacancy(2, 2.6);
    // cap N_b so full-workflow benches stay in the seconds range
    si510.n_bands = si510.n_valence() + 76;
    vec![
        ("Si214", bgw_pwdft::si_divacancy(1, 4.2), 8),
        ("Si510", si510, 8),
        ("LiH998", bgw_pwdft::lih_defect(1, 4.0), 6),
        ("BN867", bgw_pwdft::bn_defect_sheet(2, 12.0, 5.0), 6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_builds_on_smallest_system() {
        let sys = bgw_pwdft::si_bulk(1, 2.2);
        let mut sys = sys;
        sys.n_bands = 24;
        let s = build_setup(sys, 4);
        assert_eq!(s.ctx.n_sigma(), 4);
        assert!(s.ctx.n_g() > 4);
        assert!(s.eps_inv.macroscopic_constant() > 1.0);
    }

    #[test]
    fn roster_has_table2_shape() {
        for (name, sys, n_sigma) in bench_roster() {
            assert!(!name.is_empty());
            assert!(sys.n_bands > sys.n_valence(), "{name}");
            assert!(n_sigma >= 2);
        }
    }
}
