//! Dyson's equation: quasiparticle energies from the self-energy (Eq. 1).
//!
//! Two solution modes, matching the paper's two Sigma kernels:
//! - **Diagonal**: per-band Newton / Z-factor solution of
//!   `E = E^MF + Re Sigma_ll(E)` from a few sampled energies (the standard
//!   quasiparticle approximation, `N_E ~ O(1)-O(10)`, Sec. 6).
//! - **Full matrix**: self-consistent eigenvalues of
//!   `H^QP(E) = diag(E^MF) + (Sigma(E) + Sigma(E)^dagger)/2` on the
//!   off-diag kernel's uniform energy grid — "full solutions of the Dyson's
//!   equation" (Sec. 5.6).

use crate::sigma::diag::SigmaDiagResult;
use crate::sigma::offdiag::SigmaOffdiagResult;
use bgw_linalg::{eigvalsh, CMatrix};
use bgw_num::c64;

/// Quasiparticle solution for one band.
#[derive(Clone, Copy, Debug)]
pub struct QpState {
    /// Mean-field energy (Ry).
    pub e_mf: f64,
    /// `Re Sigma(E^MF)` (Ry).
    pub sigma_mf: f64,
    /// Renormalization factor `Z = 1 / (1 - dSigma/dE)`, clamped to (0, 1].
    pub z: f64,
    /// Quasiparticle energy (Ry).
    pub e_qp: f64,
}

/// Solves the diagonal quasiparticle equation for every band of a diag
/// result. Each band's grid must contain at least 2 points bracketing its
/// `E^MF` (3-point grids centered on `E^MF` are the usual choice).
pub fn solve_qp_diag(e_mf: &[f64], diag: &SigmaDiagResult) -> Vec<QpState> {
    assert_eq!(e_mf.len(), diag.sigma.len());
    e_mf.iter()
        .zip(diag.sigma.iter().zip(&diag.e_grids))
        .map(|(&emf, (sig, grid))| solve_one(emf, grid, sig))
        .collect()
}

fn solve_one(e_mf: f64, grid: &[f64], sigma: &[f64]) -> QpState {
    assert!(grid.len() >= 2, "need >= 2 energy samples");
    assert_eq!(grid.len(), sigma.len());
    // Interpolate Sigma and dSigma/dE at E^MF from the sampled grid.
    let (sig_mf, dsig) = interp_with_slope(grid, sigma, e_mf);
    // Z factor; clamp to (0, 1] as production GW codes do when the linear
    // expansion misbehaves near poles.
    let mut z = 1.0 / (1.0 - dsig);
    if !(0.0..=1.0).contains(&z) {
        z = if z > 1.0 { 1.0 } else { 0.3 };
    }
    QpState {
        e_mf,
        sigma_mf: sig_mf,
        z,
        e_qp: e_mf + z * sig_mf,
    }
}

/// Linear interpolation of `f` and its slope at `x` from samples.
fn interp_with_slope(xs: &[f64], fs: &[f64], x: f64) -> (f64, f64) {
    let n = xs.len();
    if n == 2 {
        let slope = (fs[1] - fs[0]) / (xs[1] - xs[0]);
        return (fs[0] + slope * (x - xs[0]), slope);
    }
    // locate the nearest interval
    let mut i = 0;
    while i + 2 < n && xs[i + 1] < x {
        i += 1;
    }
    let slope = (fs[i + 1] - fs[i]) / (xs[i + 1] - xs[i]);
    (fs[i] + slope * (x - xs[i]), slope)
}

/// Full-matrix quasiparticle energies from the off-diag kernel result.
///
/// For each grid energy `E_i` the Hermitianized quasiparticle Hamiltonian
/// is diagonalized, giving eigenvalue curves `lambda_k(E_i)`; each state's
/// QP energy is the self-consistent point `lambda_k(E) = E` found by
/// linear interpolation between grid points (clamped to the grid ends).
pub fn solve_qp_full(e_mf: &[f64], off: &SigmaOffdiagResult) -> Vec<f64> {
    let ns = e_mf.len();
    assert_eq!(off.sigma[0].nrows(), ns);
    let ne = off.e_grid.len();
    // lambda[k][i]: k-th eigenvalue at grid energy i.
    let mut lambda = vec![vec![0.0; ne]; ns];
    for (i, sig) in off.sigma.iter().enumerate() {
        let mut h = CMatrix::from_diag(&e_mf.iter().map(|&e| c64(e, 0.0)).collect::<Vec<_>>());
        // Hermitianized Sigma(E_i)
        for a in 0..ns {
            for b in 0..ns {
                h[(a, b)] += (sig[(a, b)] + sig[(b, a)].conj()).scale(0.5);
            }
        }
        let vals = eigvalsh(&h);
        for k in 0..ns {
            lambda[k][i] = vals[k];
        }
    }
    // Self-consistency per eigenvalue branch. The GPP kernel has poles on
    // the real axis, so lambda_k(E) can cross E several times; the
    // physical quasiparticle is the crossing nearest the one-shot estimate
    // lambda_k evaluated at the mean-field energy.
    (0..ns)
        .map(|k| {
            let g = &off.e_grid.points;
            let f: Vec<f64> = g.iter().zip(&lambda[k]).map(|(&e, &l)| l - e).collect();
            let e0 = lambda[k][off.e_grid.nearest(e_mf[k])];
            let mut best: Option<f64> = None;
            for i in 0..ne - 1 {
                let crossing = if f[i] == 0.0 {
                    Some(g[i])
                } else if f[i] * f[i + 1] < 0.0 {
                    let t = f[i] / (f[i] - f[i + 1]);
                    Some(g[i] + t * (g[i + 1] - g[i]))
                } else {
                    None
                };
                if let Some(c) = crossing {
                    if best.is_none_or(|b| (c - e0).abs() < (b - e0).abs()) {
                        best = Some(c);
                    }
                }
            }
            best.unwrap_or_else(|| {
                // No crossing inside the window: take the endpoint with the
                // smaller residual (state outside the sampled range).
                if f[0].abs() < f[ne - 1].abs() {
                    lambda[k][0]
                } else {
                    lambda[k][ne - 1]
                }
            })
        })
        .collect()
}

/// Quasiparticle gap (Ry) between two solved states.
pub fn qp_gap(states: &[QpState], homo_pos: usize, lumo_pos: usize) -> f64 {
    states[lumo_pos].e_qp - states[homo_pos].e_qp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigma::diag::{gpp_sigma_diag, KernelVariant};
    use crate::sigma::offdiag::gpp_sigma_offdiag;
    use crate::testkit;
    use bgw_num::UniformGrid;

    #[test]
    fn newton_solves_linear_sigma_exactly() {
        // Sigma(E) = 0.2 - 0.5 (E - E0): fixed point of E = E0 + Sigma(E)
        // is E0 + 0.2/1.5; the one-shot Z-factor update gives exactly that.
        let e0 = 1.0;
        let grid = vec![e0 - 0.1, e0, e0 + 0.1];
        let sigma: Vec<f64> = grid.iter().map(|&e| 0.2 - 0.5 * (e - e0)).collect();
        let st = solve_one(e0, &grid, &sigma);
        assert!((st.sigma_mf - 0.2).abs() < 1e-12);
        assert!((st.z - 1.0 / 1.5).abs() < 1e-12);
        assert!((st.e_qp - (e0 + 0.2 / 1.5)).abs() < 1e-12);
    }

    #[test]
    fn z_factor_is_clamped() {
        // pathological positive slope > 1 -> clamp
        let grid = vec![0.0, 1.0];
        let sigma = vec![0.0, 3.0];
        let st = solve_one(0.5, &grid, &sigma);
        assert!(st.z > 0.0 && st.z <= 1.0);
    }

    #[test]
    fn gw_opens_the_gap() {
        // The headline physics check: QP gap > mean-field gap.
        let (ctx, setup) = testkit::small_context();
        let delta = 0.05;
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e - delta, e, e + delta])
            .collect();
        let diag = gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized);
        let states = solve_qp_diag(&ctx.sigma_energies, &diag);
        let mf_gap = setup.wf.gap_ry();
        let qp = qp_gap(&states, ctx.homo_pos(), ctx.lumo_pos());
        assert!(
            qp > mf_gap,
            "QP gap {qp} Ry must exceed mean-field gap {mf_gap} Ry"
        );
        for st in &states {
            assert!(st.z > 0.0 && st.z <= 1.0, "Z out of range: {}", st.z);
            assert!(st.e_qp.is_finite());
        }
    }

    #[test]
    fn full_solve_tracks_diag_for_weak_offdiagonals() {
        let (ctx, _) = testkit::small_context();
        let lo = ctx.sigma_energies[0] - 3.0;
        let hi = ctx.sigma_energies[3] + 3.0;
        let grid = UniformGrid::new(lo, hi, 24);
        let off = gpp_sigma_offdiag(&ctx, &grid);
        let full = solve_qp_full(&ctx.sigma_energies, &off);
        assert_eq!(full.len(), ctx.n_sigma());
        for (k, &e) in full.iter().enumerate() {
            assert!(e.is_finite(), "state {k}");
            // QP energies stay within the sampled window
            assert!(e >= lo - 1.0 && e <= hi + 1.0);
        }
        // the full solution stays insulating and lands near the diag
        // solution (off-diagonal mixing shifts it, but not wildly)
        let gap_qp = full[ctx.lumo_pos()] - full[ctx.homo_pos()];
        assert!(gap_qp > 0.0, "full Dyson gap closed: {gap_qp}");
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e - 0.05, e, e + 0.05])
            .collect();
        let diag = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
        let states = solve_qp_diag(&ctx.sigma_energies, &diag);
        for (k, st) in states.iter().enumerate() {
            assert!(
                (full[k] - st.e_qp).abs() < 0.3,
                "state {k}: full {} vs diag {}",
                full[k],
                st.e_qp
            );
        }
    }
}
