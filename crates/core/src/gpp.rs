//! The generalized plasmon-pole (GPP) model of Hybertsen and Louie.
//!
//! The frequency integral of Eq. 2 is modeled with one effective plasmon
//! mode per `(G, G')` pair:
//! `eps~^{-1}_GG'(omega) = delta_GG' + Omega~^2_GG' / (omega^2 - w~^2_GG')`,
//! where the pole strengths follow the f-sum rule,
//! `Omega~^2_GG' = wp^2 (G^.G'^) rho(G - G') / rho(0)` (symmetrized form),
//! and the mode frequencies are fixed by the computed static inverse:
//! `Omega~^2 / w~^2 = delta - eps~^{-1}(0)`.
//!
//! All quantities here live in the *symmetrized* representation used by
//! [`crate::epsilon::EpsilonInverse`].

use crate::epsilon::EpsilonInverse;
use bgw_num::Complex64;
use bgw_pwdft::GSphere;

/// Precomputed GPP pole data on the epsilon sphere.
#[derive(Clone, Debug)]
pub struct GppModel {
    /// Pole strength `Omega~^2_GG'` (Ry^2); 0 marks a skipped mode.
    pub pole_strength: Vec<f64>,
    /// Mode frequency `w~_GG'` (Ry); meaningful only where strength > 0.
    pub mode_freq: Vec<f64>,
    /// Basis size.
    pub n_g: usize,
    /// Plasma frequency squared (Ry^2).
    pub wp2: f64,
}

impl GppModel {
    /// Builds the model from the static inverse dielectric matrix, the
    /// valence charge density `rho(G)` on the *wavefunction* sphere, and
    /// the cell volume (bohr^3).
    ///
    /// `rho` must be indexed on `wfn_sph`; differences `G - G'` of epsilon
    /// sphere vectors are looked up there (they fit by construction when
    /// the wavefunction cutoff is at least four times the epsilon cutoff,
    /// and are dropped — strength 0 — otherwise, the standard practice).
    pub fn new(
        eps: &EpsilonInverse,
        sph: &GSphere,
        wfn_sph: &GSphere,
        rho: &[Complex64],
        volume: f64,
    ) -> Self {
        let n_g = sph.len();
        assert_eq!(eps.n_g(), n_g);
        assert_eq!(rho.len(), wfn_sph.len());
        let rho0 = rho[0].re;
        assert!(rho0 > 0.0, "empty density");
        // Plasma frequency in Ry: wp^2 = 16 pi n, n = N_e / Omega.
        let wp2 = 16.0 * std::f64::consts::PI * rho0 / volume;
        let inv0 = eps.static_inv();
        let mut pole_strength = vec![0.0; n_g * n_g];
        let mut mode_freq = vec![0.0; n_g * n_g];
        // q -> 0 regularization for the head direction G^ = (G+q)/|G+q|:
        // use x^ for G = 0 (any fixed direction; isotropic model density).
        let unit = |i: usize| -> [f64; 3] {
            let g = sph.cart[i];
            let n = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
            if n > 0.0 {
                [g[0] / n, g[1] / n, g[2] / n]
            } else {
                [1.0, 0.0, 0.0]
            }
        };
        for i in 0..n_g {
            let gi = unit(i);
            let mi = sph.miller[i];
            for j in 0..n_g {
                let gj = unit(j);
                let mj = sph.miller[j];
                let dot = gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2];
                // rho(G - G') lookup on the wavefunction sphere.
                let dm = [mi[0] - mj[0], mi[1] - mj[1], mi[2] - mj[2]];
                let Some(k) = wfn_sph.find(dm) else { continue };
                let omega2 = wp2 * dot * rho[k].re / rho0;
                // Static constraint: Omega^2 / w~^2 = (I - inv0)_GG'.
                let a = if i == j {
                    1.0 - inv0[(i, j)].re
                } else {
                    -inv0[(i, j)].re
                };
                // Keep only physically meaningful modes (positive strength
                // and positive squared frequency) — the standard GPP
                // screening of ill-conditioned pairs.
                if omega2 <= 0.0 || a <= 1e-12 {
                    continue;
                }
                let w2 = omega2 / a;
                pole_strength[i * n_g + j] = omega2;
                mode_freq[i * n_g + j] = w2.sqrt();
            }
        }
        Self {
            pole_strength,
            mode_freq,
            n_g,
            wp2,
        }
    }

    /// Pole strength accessor.
    #[inline(always)]
    pub fn strength(&self, i: usize, j: usize) -> f64 {
        self.pole_strength[i * self.n_g + j]
    }

    /// Mode frequency accessor.
    #[inline(always)]
    pub fn freq(&self, i: usize, j: usize) -> f64 {
        self.mode_freq[i * self.n_g + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::{ChiConfig, ChiEngine};
    use crate::coulomb::Coulomb;
    use crate::mtxel::Mtxel;
    use bgw_pwdft::{charge_density_g, solve_bands, Crystal, Species};

    fn build() -> (GppModel, EpsilonInverse, f64) {
        let c = Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0);
        let wfn = GSphere::new(&c.lattice, 2.2);
        let eps_sph = GSphere::new(&c.lattice, 0.55);
        let wf = solve_bands(&c, &wfn, 24);
        let mtxel = Mtxel::new(&wfn, &eps_sph);
        let engine = ChiEngine::new(&wf, &mtxel, ChiConfig::default());
        let chi0 = engine.chi_static();
        let eps = EpsilonInverse::build(&[chi0], &[0.0], &Coulomb::bulk(), &eps_sph)
            .expect("dielectric matrix must be invertible");
        let rho = charge_density_g(&wf, &wfn);
        let vol = c.lattice.volume();
        let gpp = GppModel::new(&eps, &eps_sph, &wfn, &rho, vol);
        (gpp, eps, vol)
    }

    /// Model inverse dielectric matrix element at real frequency `omega`
    /// (Ry): `delta + Omega^2 / (omega^2 - w~^2)`, the plasmon-pole form
    /// `GppModel::new` fits.
    fn eps_inv_model(gpp: &GppModel, i: usize, j: usize, omega: f64) -> f64 {
        let delta = if i == j { 1.0 } else { 0.0 };
        let s = gpp.strength(i, j);
        if s == 0.0 {
            return delta;
        }
        let w = gpp.freq(i, j);
        delta + s / (omega * omega - w * w)
    }

    #[test]
    fn plasma_frequency_is_physical() {
        let (gpp, _, vol) = build();
        // 32 electrons in the Si cell
        let expect = 16.0 * std::f64::consts::PI * 32.0 / vol;
        assert!((gpp.wp2 - expect).abs() / expect < 1e-6);
        // f-sum rule at the head: rho(0) = rho0 and a unit direction, so the
        // pole strength Omega^2_00 is the plasma frequency squared itself.
        let head = gpp.strength(0, 0);
        assert!((head - expect).abs() / expect < 1e-6, "Omega^2_00 = {head}");
        // silicon-like plasmon ~ 16 eV, model should be within a factor 2
        let wp_ev = gpp.wp2.sqrt() * bgw_num::RYDBERG_EV;
        assert!(wp_ev > 8.0 && wp_ev < 35.0, "wp = {wp_ev} eV");
    }

    #[test]
    fn head_mode_recovers_static_screening() {
        let (gpp, eps, _) = build();
        // at omega = 0, the model reproduces the static inverse by
        // construction wherever the pole is active.
        let inv0 = eps.static_inv();
        let model = eps_inv_model(&gpp, 0, 0, 0.0);
        assert!(
            (model - inv0[(0, 0)].re).abs() < 1e-9,
            "model {model} vs computed {}",
            inv0[(0, 0)].re
        );
    }

    #[test]
    fn high_frequency_limit_is_identity() {
        let (gpp, _, _) = build();
        let far = eps_inv_model(&gpp, 0, 0, 100.0);
        assert!((far - 1.0).abs() < 1e-2);
        let off = eps_inv_model(&gpp, 0, 1, 100.0);
        assert!(off.abs() < 1e-2);
    }

    #[test]
    fn diagonal_modes_are_active_with_sane_frequencies() {
        let (gpp, _, _) = build();
        let active = gpp.pole_strength.iter().filter(|&&s| s > 0.0).count();
        let fraction = active as f64 / (gpp.n_g * gpp.n_g) as f64;
        assert!(fraction > 0.1, "{fraction}");
        // diagonal modes exist and their frequencies exceed the plasma
        // frequency scale / sqrt(strength ratios) — just check positivity
        // and reasonable magnitude.
        for i in 0..gpp.n_g.min(10) {
            let s = gpp.strength(i, i);
            assert!(s > 0.0, "inactive diagonal mode {i}");
            let w = gpp.freq(i, i);
            assert!(w > 0.0 && w < 100.0, "mode freq {w} Ry at {i}");
        }
    }

    #[test]
    fn strengths_are_symmetric() {
        let (gpp, _, _) = build();
        // Omega^2_GG' = Omega^2_G'G for a real (inversion-symmetric) density
        for i in 0..gpp.n_g.min(15) {
            for j in 0..gpp.n_g.min(15) {
                assert!(
                    (gpp.strength(i, j) - gpp.strength(j, i)).abs() < 1e-9,
                    "asymmetric strength at ({i},{j})"
                );
            }
        }
    }
}
