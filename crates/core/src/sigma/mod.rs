//! The Sigma module: GW self-energy construction (paper Eq. 2, Secs.
//! 5.5-5.6).
//!
//! Submodules:
//! - [`diag`]: the GPP *diag.* kernel — diagonal matrix elements
//!   `Sigma_ll(E)` with the inner `P` matrix generated on the fly, in
//!   several implementation variants standing in for the paper's
//!   programming models (Table 4).
//! - [`offdiag`]: the GPP *off-diag.* kernel — the full `Sigma_lm({E_i})`
//!   matrix on a uniform energy grid, recast as two ZGEMMs per `(n, E)`
//!   pair (Sec. 5.6).
//! - [`fullfreq`]: full-frequency correlation self-energy by numerical
//!   frequency quadrature over the sampled `eps~^{-1}(omega)` (Sec. 5.2).
//! - [`imagaxis`]: the imaginary-axis alternative with Pade analytic
//!   continuation (the Sec. 4 competitor formulation, as a cross-check).
//!
//! Conventions: the mean field is Hartree-like (the model pseudopotential
//! carries no exchange-correlation), so quasiparticle energies are
//! `E^QP = E^MF + <Sigma(E^QP)>` with `Sigma = Sigma_SX + Sigma_CH`
//! including bare exchange. Matrix elements are *symmetrized*:
//! `m~_ln^G = v^{1/2}(G) M_ln^G`, so every contraction runs against the
//! symmetrized `eps~^{-1}`-derived kernels.

pub mod diag;
pub mod fullfreq;
pub mod imagaxis;
pub mod offdiag;

use crate::gpp::GppModel;
use crate::mtxel::Mtxel;
use bgw_linalg::CMatrix;
use bgw_pwdft::Wavefunctions;

/// Everything the Sigma kernels need, prebuilt once per calculation.
#[derive(Clone, Debug)]
pub struct SigmaContext {
    /// Symmetrized matrix elements per Sigma band: entry `s` is the
    /// `(N_b x N_G)` matrix `m~_{l_s n}^G` for the `s`-th band of interest.
    pub m_tilde: Vec<CMatrix>,
    /// Orbital energies `E_n` (Ry) of all `N_b` bands.
    pub energies: Vec<f64>,
    /// Number of occupied bands among the `N_b`.
    pub n_occ: usize,
    /// The plasmon-pole data.
    pub gpp: GppModel,
    /// Band indices `l` whose self-energy is evaluated (`N_Sigma` of them).
    pub sigma_bands: Vec<usize>,
    /// Mean-field energies of the Sigma bands (Ry).
    pub sigma_energies: Vec<f64>,
}

impl SigmaContext {
    /// Builds the context: computes `m~_ln^G = v^{1/2}(G) M_ln^G` for every
    /// Sigma band against all `N_b` bands. `q0` sets the k.p treatment of
    /// the `G = 0` elements (pass the Coulomb `q0`; 0 disables it).
    pub fn build(
        wf: &Wavefunctions,
        mtxel: &Mtxel,
        gpp: GppModel,
        vsqrt: &[f64],
        sigma_bands: &[usize],
        q0: f64,
    ) -> Self {
        let nb = wf.n_bands();
        let ng = mtxel.n_out();
        assert_eq!(vsqrt.len(), ng, "vsqrt dimension mismatch");
        // Every Sigma band pairs against all N_b bands: transform each
        // band to real space once (batched) and reuse it across the whole
        // l-loop instead of re-running the inverse FFT per (l, n) pair.
        let all_bands: Vec<usize> = (0..nb).collect();
        let band_real = mtxel.to_real_space_many(wf, &all_bands);
        let mut m_tilde = Vec::with_capacity(sigma_bands.len());
        for &l in sigma_bands {
            assert!(l < nb, "Sigma band {l} out of range");
            let psi_l = &band_real[l];
            let mut m = CMatrix::zeros(nb, ng);
            mtxel.pairs_from_real(psi_l, &band_real, m.as_mut_slice(), |n, row| {
                row[0] = mtxel.head_kp(wf, l, n, q0);
                for (mg, &v) in row.iter_mut().zip(vsqrt) {
                    *mg = mg.scale(v);
                }
            });
            m_tilde.push(m);
        }
        Self {
            m_tilde,
            energies: wf.energies.clone(),
            n_occ: wf.n_valence,
            gpp,
            sigma_bands: sigma_bands.to_vec(),
            sigma_energies: sigma_bands.iter().map(|&l| wf.energies[l]).collect(),
        }
    }

    /// `N_Sigma`.
    pub fn n_sigma(&self) -> usize {
        self.sigma_bands.len()
    }

    /// `N_b`.
    pub fn n_b(&self) -> usize {
        self.energies.len()
    }

    /// `N_G` of the epsilon sphere.
    pub fn n_g(&self) -> usize {
        self.gpp.n_g
    }

    /// Position within `sigma_bands` of the highest occupied band.
    pub fn homo_pos(&self) -> usize {
        self.sigma_bands
            .iter()
            .position(|&l| l == self.n_occ - 1)
            .expect("HOMO not among the Sigma bands")
    }

    /// Position within `sigma_bands` of the lowest empty band.
    pub fn lumo_pos(&self) -> usize {
        self.sigma_bands
            .iter()
            .position(|&l| l == self.n_occ)
            .expect("LUMO not among the Sigma bands")
    }
}

/// The GPP kernel factor `P_GG'(n, E)` (real in this model): screened
/// exchange for occupied `n` plus Coulomb hole for all `n`, in the
/// symmetrized representation (paper Fig. 2a).
///
/// `P = -occ * [delta_GG' + Omega^2 / (dE^2 - w~^2)]
///      + Omega^2 / (2 w~ (dE - w~))`,  `dE = E - E_n`.
///
/// Near-resonant denominators are clamped at `DENOM_FLOOR` (the standard
/// GPP guard against accidental poles on the real axis).
#[inline(always)]
pub fn gpp_factor(gpp: &GppModel, i: usize, j: usize, de: f64, occupied: bool) -> f64 {
    const DENOM_FLOOR: f64 = 1e-4;
    let s = gpp.strength(i, j);
    let mut p = 0.0;
    if occupied && i == j {
        p -= 1.0; // bare exchange
    }
    if s > 0.0 {
        let w = gpp.freq(i, j);
        if occupied {
            let d = de * de - w * w;
            let d = if d.abs() < DENOM_FLOOR {
                DENOM_FLOOR.copysign(d)
            } else {
                d
            };
            p -= s / d;
        }
        let d = 2.0 * w * (de - w);
        let d = if d.abs() < DENOM_FLOOR {
            DENOM_FLOOR.copysign(d)
        } else {
            d
        };
        p += s / d;
    }
    p
}

/// What filling one `N_G`-long row of the `P` matrix with [`gpp_factor`]
/// costs, at the diag kernel's count for one `(G, G')` pair — the cost
/// the off-diagonal and GWPT prep loops state to the pool.
pub(crate) fn gpp_row_cost(ng: usize) -> bgw_par::Flops {
    bgw_par::Flops(diag::FLOPS_PER_ACTIVE_PAIR * ng as u64)
}

pub use SigmaContext as Context;
