//! GW perturbation theory (GWPT): electron-phonon coupling at the
//! many-body level (paper Sec. 5.1, Eq. 5).
//!
//! The atom-displacement derivative of the self-energy is assembled from
//! the first-order changes of the plane-wave matrix elements,
//! `dM_ln^G = <d psi_l| e^{iG.r} |psi_n> + <psi_l| e^{iG.r} |d psi_n>`,
//! contracted against the *frozen* GPP screening (the phonon-induced
//! change of `W` is neglected, the standard GWPT approximation):
//!
//! `[dSigma(E)]_lm = sum_n { conj(dB_n) P^{(n,E)} B_n^T
//!                         + conj(B_n) P^{(n,E)} dB_n^T }_lm`,
//!
//! which reuses the off-diagonal kernel's ZGEMM structure — this is why
//! the paper's GWPT runs ride on the optimized GPP kernels, with the `N_p`
//! perturbations embarrassingly parallel on top.
//!
//! The GW-level electron-phonon matrix elements are
//! `g^GW_lm = g^DFPT_lm + [dSigma(E)]_lm`.

use crate::mtxel::Mtxel;
use crate::service::Screening;
use crate::sigma::{gpp_factor, gpp_row_cost, SigmaContext};
use bgw_linalg::{zgemm, CMatrix, Op};
use bgw_num::{c64, Complex64, UniformGrid};
use bgw_pwdft::{Perturbation, Wavefunctions};

/// Result of a GWPT evaluation for one perturbation.
#[derive(Clone, Debug)]
pub struct GwptResult {
    /// `dSigma(E_e)` as `(N_Sigma x N_Sigma)` matrices (Ry/bohr).
    pub d_sigma: Vec<CMatrix>,
    /// The energy grid (Ry).
    pub e_grid: UniformGrid,
    /// Mean-field (DFPT-level) coupling `g^DFPT_lm` restricted to the
    /// Sigma bands (Ry/bohr).
    pub g_dfpt: CMatrix,
    /// GW-level coupling `g^GW_lm = g^DFPT + dSigma(E*)` at the grid point
    /// nearest the band-pair average energy window center (Ry/bohr).
    pub g_gw: CMatrix,
    /// ZGEMM FLOPs (doubled relative to plain Sigma: two products per
    /// term, two terms).
    pub zgemm_flops: u64,
}

/// First-order matrix elements `dm~` for every Sigma band: the analogue of
/// `SigmaContext::m_tilde` built from the perturbed wavefunctions.
pub fn build_dm_tilde(
    ctx: &SigmaContext,
    wf: &Wavefunctions,
    mtxel: &Mtxel,
    dpsi: &CMatrix,
    vsqrt: &[f64],
) -> Vec<CMatrix> {
    let nb = wf.n_bands();
    let ng = mtxel.n_out();
    assert_eq!(dpsi.shape(), (nb, wf.n_g()));
    // Transform every zeroth- and first-order state once (two batched
    // FFT passes) and reuse across the l x n pair loop; the old code
    // re-ran both inverse FFTs for every pair.
    let all_bands: Vec<usize> = (0..nb).collect();
    let psi_real = mtxel.to_real_space_many(wf, &all_bands);
    let dpsi_rows: Vec<&[Complex64]> = (0..nb).map(|n| dpsi.row(n)).collect();
    let dpsi_real = mtxel.vectors_to_real_space_many(&dpsi_rows);
    let mut out = Vec::with_capacity(ctx.sigma_bands.len());
    for &l in &ctx.sigma_bands {
        let psi_l = &psi_real[l];
        let dpsi_l = &dpsi_real[l];
        // <d psi_l| e^{iGr} |psi_n> + <psi_l| e^{iGr} |d psi_n>
        let mut a = CMatrix::zeros(nb, ng);
        mtxel.pairs_from_real(dpsi_l, &psi_real, a.as_mut_slice(), |_, _| {});
        let mut m = CMatrix::zeros(nb, ng);
        mtxel.pairs_from_real(psi_l, &dpsi_real, m.as_mut_slice(), |n, row| {
            for ((b, &a), &v) in row.iter_mut().zip(a.row(n)).zip(vsqrt) {
                *b = (a + *b).scale(v);
            }
        });
        out.push(m);
    }
    out
}

/// Evaluates `dSigma(E)` on `e_grid` and assembles the GW coupling.
pub fn gwpt_dsigma(
    ctx: &SigmaContext,
    dm_tilde: &[CMatrix],
    perturbation: &Perturbation,
    wf: &Wavefunctions,
    e_grid: &UniformGrid,
) -> GwptResult {
    let ns = ctx.n_sigma();
    let ng = ctx.n_g();
    let nb = ctx.n_b();
    assert_eq!(dm_tilde.len(), ns);
    let _span = bgw_trace::span!("gwpt.dsigma");
    let mut d_sigma = vec![CMatrix::zeros(ns, ns); e_grid.len()];
    let mut zgemm_flops = 0u64;

    let mut b_n = CMatrix::zeros(ns, ng);
    let mut db_n = CMatrix::zeros(ns, ng);
    let mut p = CMatrix::zeros(ng, ng);
    for n in 0..nb {
        let occupied = n < ctx.n_occ;
        let en = ctx.energies[n];
        for (s, dms) in dm_tilde.iter().enumerate() {
            b_n.row_mut(s).copy_from_slice(ctx.m_tilde[s].row(n));
            db_n.row_mut(s).copy_from_slice(dms.row(n));
        }
        let b_conj = b_n.conj();
        let db_conj = db_n.conj();
        for (ei, &e) in e_grid.points.iter().enumerate() {
            let de = e - en;
            bgw_par::parallel_rows(p.as_mut_slice(), ng, gpp_row_cost(ng), |g, row| {
                for (gp, z) in row.iter_mut().enumerate() {
                    *z = c64(gpp_factor(&ctx.gpp, g, gp, de, occupied), 0.0);
                }
            });
            // term 1: conj(dB) P B^T
            let mut t1 = CMatrix::zeros(ng, ns);
            zgemm(
                Complex64::ONE,
                &p,
                Op::None,
                &b_n,
                Op::Trans,
                Complex64::ZERO,
                &mut t1,
            );
            zgemm(
                Complex64::ONE,
                &db_conj,
                Op::None,
                &t1,
                Op::None,
                Complex64::ONE,
                &mut d_sigma[ei],
            );
            // term 2: conj(B) P dB^T
            let mut t2 = CMatrix::zeros(ng, ns);
            zgemm(
                Complex64::ONE,
                &p,
                Op::None,
                &db_n,
                Op::Trans,
                Complex64::ZERO,
                &mut t2,
            );
            zgemm(
                Complex64::ONE,
                &b_conj,
                Op::None,
                &t2,
                Op::None,
                Complex64::ONE,
                &mut d_sigma[ei],
            );
            zgemm_flops +=
                2 * (bgw_linalg::zgemm_flops(ng, ng, ns) + bgw_linalg::zgemm_flops(ns, ng, ns));
        }
    }

    // DFPT coupling restricted to the Sigma bands.
    let g_full = perturbation.coupling_matrix(wf);
    let g_dfpt = CMatrix::from_fn(ns, ns, |a, b| {
        g_full[(ctx.sigma_bands[a], ctx.sigma_bands[b])]
    });
    // Representative energy: center of the Sigma-band window.
    let e_star = 0.5
        * (ctx
            .sigma_energies
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            + ctx
                .sigma_energies
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max));
    let e_idx = e_grid.nearest(e_star);
    let mut g_gw = g_dfpt.clone();
    for a in 0..ns {
        for b in 0..ns {
            g_gw[(a, b)] += d_sigma[e_idx][(a, b)];
        }
    }
    GwptResult {
        d_sigma,
        e_grid: e_grid.clone(),
        g_dfpt,
        g_gw,
        zgemm_flops,
    }
}

/// GWPT for one atomic perturbation against a shared [`Screening`]: the
/// bands, MTXEL engine and `sqrt(v)` are the screening's own, so every
/// perturbation of a run contracts against the same frozen `W`.
pub fn gwpt_for_perturbation(
    s: &Screening,
    ctx: &SigmaContext,
    perturbation: &Perturbation,
    e_grid: &UniformGrid,
) -> GwptResult {
    let dpsi = perturbation.first_order_wavefunctions(&s.wf, 1e-8);
    let dm = build_dm_tilde(ctx, &s.wf, &s.mtxel, &dpsi, &s.vsqrt);
    gwpt_dsigma(ctx, &dm, perturbation, &s.wf, e_grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{bands_around_gap, build_screening, sigma_context};
    use crate::sigma::diag::{gpp_sigma_diag, KernelVariant};
    use crate::testkit;
    use crate::workflow::GwConfig;
    use bgw_pwdft::{si_bulk, solve_bands, ModelSystem};

    /// Bulk Si at unit-test cutoffs: the system, its one screening and the
    /// Sigma context of two bands on each side of the gap.
    fn fixture() -> (ModelSystem, Screening, SigmaContext) {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let s = build_screening(&sys, &GwConfig::default(), None).expect("invertible epsilon");
        let ctx = sigma_context(&s, &bands_around_gap(s.wf.n_valence, s.wf.n_bands(), 2));
        (sys, s, ctx)
    }

    fn grid_for(ctx: &SigmaContext) -> UniformGrid {
        let lo = ctx.sigma_energies[0] - 0.5;
        let hi = *ctx.sigma_energies.last().unwrap() + 0.5;
        UniformGrid::new(lo, hi, 5)
    }

    #[test]
    fn distributed_perturbations_match_serial() {
        // N_p = 4 perturbations against ONE screening. A round-robin share
        // (`p % ranks`) computes them in rank-major order, not serial
        // order; gathered back by index, every share size — 6 > N_p
        // leaves two shares empty — returns the serial loop's bits, so no
        // perturbation depends on which ran before it.
        let (sys, s, ctx) = fixture();
        let e_grid = grid_for(&ctx);
        let perts = [(0usize, 0usize), (0, 1), (1, 0), (1, 2)];
        let bits = |&(a, ax): &(usize, usize)| -> Vec<(u64, u64)> {
            let p = Perturbation::new(&sys.crystal, &s.wfn_sph, a, ax);
            gwpt_for_perturbation(&s, &ctx, &p, &e_grid)
                .g_gw
                .as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let serial: Vec<_> = perts.iter().map(bits).collect();
        for ranks in [2usize, 3, 6] {
            let mut gathered = vec![Vec::new(); perts.len()];
            for r in 0..ranks {
                for p in (0..perts.len()).filter(|p| p % ranks == r) {
                    gathered[p] = bits(&perts[p]);
                }
            }
            assert_eq!(gathered, serial, "{ranks} ranks");
        }
    }

    #[test]
    fn dsigma_is_hermitian() {
        let (sys, s, ctx) = fixture();
        let pert = Perturbation::new(&sys.crystal, &s.wfn_sph, 0, 0);
        let r = gwpt_for_perturbation(&s, &ctx, &pert, &grid_for(&ctx));
        for (ei, ds) in r.d_sigma.iter().enumerate() {
            assert!(
                ds.hermiticity_error() <= 1e-8,
                "dSigma(E_{ei}) Hermiticity error {}",
                ds.hermiticity_error()
            );
        }
        assert!(r.g_dfpt.hermiticity_error() <= 1e-8);
        assert!(r.g_gw.hermiticity_error() <= 1e-8);
        assert!(r.zgemm_flops > 0);
    }

    #[test]
    fn gw_coupling_differs_from_dfpt() {
        // The many-body correction must actually do something.
        let (sys, s, ctx) = fixture();
        let pert = Perturbation::new(&sys.crystal, &s.wfn_sph, 1, 2);
        let r = gwpt_for_perturbation(&s, &ctx, &pert, &grid_for(&ctx));
        let diff = r.g_gw.max_abs_diff(&r.g_dfpt);
        assert!(diff > 1e-12, "GW correction to g vanished");
    }

    #[test]
    fn finite_difference_consistency_of_dsigma_diag() {
        // dSigma_ll from GWPT (frozen screening, frozen energies) must
        // match the finite difference of Sigma_ll built from displaced
        // wavefunctions with the SAME GPP model and band energies.
        // The sum-over-states response is exact only if all bands of the
        // basis are kept, so solve the small system completely.
        let (_, setup) = testkit::small_context();
        let n_full = setup.wfn_sph.len();
        let wf = solve_bands(&setup.crystal, &setup.wfn_sph, n_full);
        let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
        // Sigma_ll is only rotation-invariant for non-degenerate l, so the
        // finite-difference comparison must use isolated bands.
        let isolated: Vec<usize> = (0..wf.n_bands())
            .filter(|&n| {
                let below = n == 0 || wf.energies[n] - wf.energies[n - 1] > 0.05;
                let above = n + 1 >= wf.n_bands() || wf.energies[n + 1] - wf.energies[n] > 0.05;
                below && above
            })
            .take(2)
            .collect();
        assert_eq!(
            isolated.len(),
            2,
            "need two isolated bands for the FD check"
        );
        let sigma_bands = isolated;
        let ctx = SigmaContext::build(
            &wf,
            &mtxel,
            // reuse the converged small-system GPP screening
            {
                let (c, _) = testkit::small_context();
                c.gpp.clone()
            },
            &setup.vsqrt,
            &sigma_bands,
            // q0 = 0: the naive G = 0 elements are exactly constant under
            // displacement (orthonormality), matching the dM construction
            0.0,
        );
        let atom = 0;
        let axis = 0;
        let pert = Perturbation::new(&setup.crystal, &setup.wfn_sph, atom, axis);
        let e_grid = UniformGrid::new(ctx.sigma_energies[0], ctx.sigma_energies[1], 2);
        let dpsi = pert.first_order_wavefunctions(&wf, 1e-8);
        let dm = build_dm_tilde(&ctx, &wf, &mtxel, &dpsi, &setup.vsqrt);
        let r = gwpt_dsigma(&ctx, &dm, &pert, &wf, &e_grid);
        // finite difference: Sigma with displaced wavefunctions, frozen
        // energies and screening.
        let h = 2e-3;
        let sig_at = |sign: f64| -> Vec<Vec<f64>> {
            let disp = setup.crystal.with_displacement(atom, [sign * h, 0.0, 0.0]);
            let wf_d = solve_bands(&disp, &setup.wfn_sph, n_full);
            let mut ctx_d = SigmaContext::build(
                &wf_d,
                &mtxel,
                ctx.gpp.clone(),
                &setup.vsqrt,
                &sigma_bands,
                0.0,
            );
            // freeze energies at the unperturbed values (Eq. 5 keeps only
            // the dM terms)
            ctx_d.energies = ctx.energies.clone();
            ctx_d.sigma_energies = ctx.sigma_energies.clone();
            let grids: Vec<Vec<f64>> = (0..2).map(|s| vec![e_grid.points[s]]).collect();
            gpp_sigma_diag(&ctx_d, &grids, KernelVariant::Reference).sigma
        };
        let plus = sig_at(1.0);
        let minus = sig_at(-1.0);
        for s in 0..2 {
            let fd = (plus[s][0] - minus[s][0]) / (2.0 * h);
            let an = r.d_sigma[s][(s, s)].re; // grid point s equals e_grid.points[s]
            let scale = an.abs().max(fd.abs()).max(1e-3);
            assert!(
                (fd - an).abs() / scale < 0.05,
                "band {s}: FD {fd} vs GWPT {an}"
            );
        }
    }
}
