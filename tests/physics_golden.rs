//! Physics goldens in tier-1: the *values* of the GPP and full-frequency
//! Sigma(E) and of the imaginary-axis Sigma^c(i w) on the small Si
//! fixture, not only their agreement with another path. A factor error in
//! a treatment's prefactor (the `1/pi` of the frequency integral, the
//! plasmon-pole strength) moves every value here while every parity test
//! still passes.
//!
//! The constants were recorded from the tree before the first change
//! that uses them. Re-bless them only in a change that says why, with
//! the old -> new diff recorded in EXPERIMENTS.md.

use berkeleygw_rs::core::sigma::diag::{gpp_sigma_diag, KernelVariant};
use berkeleygw_rs::core::{
    ff_sigma_diag, imag_axis_sigma_diag, testkit, ChiConfig, ChiEngine, EpsilonInverse, Mtxel,
};
use berkeleygw_rs::num::grid::semi_infinite_quadrature;
use berkeleygw_rs::num::Complex64;

/// Tolerance relative to the largest golden magnitude: the gwbench QP
/// golden's 1e-8, loose enough for any ISA's summation order.
const TOL: f64 = 1e-8;

/// `gpp_sigma_diag` Sigma(E) (Ry, real: `(re, 0)`) per Sigma band at
/// `E^MF - 0.05, E^MF, E^MF + 0.05` Ry.
#[rustfmt::skip]
const GPP_SIGMA: [[(f64, f64); 3]; 4] = [
    [(-5.420595519191038e-1, 0.0), (-5.590392971418635e-1, 0.0), (-5.756135985520537e-1, 0.0)],
    [(-5.459539416249739e-1, 0.0), (-5.630653452419154e-1, 0.0), (-5.797802128992198e-1, 0.0)],
    [(-4.3609983228428667e-1, 0.0), (-4.490474188571879e-1, 0.0), (-4.6264733736953456e-1, 0.0)],
    [(-4.626693112971569e-1, 0.0), (-4.7618668403718517e-1, 0.0), (-4.9032131354163616e-1, 0.0)],
];

/// `ff_sigma_diag` Sigma(E) (Ry, `(re, im)`) per Sigma band at
/// `E^MF - 0.05, E^MF, E^MF + 0.05` Ry, broadening 0.05 Ry.
#[rustfmt::skip]
const FF_SIGMA: [[(f64, f64); 3]; 4] = [
    [(-6.962114850577608e-1, -4.485552509231222e-3), (-6.897938691250768e-1, -2.8290034735629745e-3), (-6.832208155572548e-1, -1.776632727890871e-3)],
    [(-6.968775345491072e-1, -4.520906898367792e-3), (-6.904033666515745e-1, -2.8595589586598476e-3), (-6.837753557199231e-1, -1.801503276329347e-3)],
    [(-2.1329280222856709e-1, 3.4118352716210713e-3), (-2.0721529410945339e-1, 5.011933728174604e-3), (-2.019883400450559e-1, 8.41306627695558e-3)],
    [(-2.6196422907621286e-1, 3.2470648533086855e-3), (-2.557062742337081e-1, 4.861393637833378e-3), (-2.5031142315508115e-1, 8.276972919002971e-3)],
];

/// `imag_axis_sigma_diag` Sigma^c(i w_j) (Ry, `(re, im)`) per Sigma band
/// at its eight imaginary-axis samples.
#[rustfmt::skip]
const IMAG_SIGMA_IW: [[(f64, f64); 8]; 4] = [
    [(-1.43296941361574e-1, -8.525338841869536e-2), (-3.600735164084947e-2, -1.6307567083553043e-1), (-1.1293585802616336e-2, -7.570019730423423e-2), (-8.586970499230365e-3, -7.878063960965025e-2), (-1.2623202323225292e-3, -3.996819055085067e-2), (-4.4159410638149553e-4, -2.378380604064182e-2), (-2.635165737914414e-4, -1.3308538646742531e-2), (-8.519228045319445e-5, -1.0280442718088086e-2)],
    [(-1.44920886100164e-1, -8.632969314322765e-2), (-3.648645437120037e-2, -1.646859540707085e-1), (-1.1449137428541045e-2, -7.646995466743724e-2), (-8.703690979080473e-3, -7.958047947665033e-2), (-1.2798655585107334e-3, -4.0377539697484144e-2), (-4.477318311116409e-4, -2.4027261134071366e-2), (-2.67185276044884e-4, -1.3444448055848839e-2), (-8.637805565903384e-5, -1.038593478778184e-2)],
    [(-9.587130784563565e-2, -4.430360798076089e-2), (-2.1045483864854726e-2, -1.2444972427886129e-1), (-6.449241582726997e-3, -5.6687852442706535e-2), (-4.906545687748063e-3, -5.913203295896486e-2), (-7.204096101958872e-4, -2.982610330053876e-2), (-2.5267548560457034e-4, -1.775382152069971e-2), (-1.4924617647862426e-4, -9.946946810402552e-3), (-4.843056815900075e-5, -7.663691877772032e-3)],
    [(-1.0055924395055876e-1, -4.340337300189167e-2), (-2.16783380308787e-2, -1.321774581882853e-1), (-6.632814020859645e-3, -6.004059524417836e-2), (-5.050553552139073e-3, -6.274472912153674e-2), (-7.405287268654739e-4, -3.1614372058871264e-2), (-2.5970728326960566e-4, -1.8816014142691462e-2), (-1.5344315610004512e-4, -1.0539362164263004e-2), (-4.9786278359455177e-5, -8.123738776111392e-3)],
];

/// Holds `got` to `want` within `TOL` of the largest golden magnitude.
fn assert_golden<const N: usize>(label: &str, got: &[Vec<Complex64>], want: &[[(f64, f64); N]]) {
    assert_eq!(got.len(), want.len(), "{label}: Sigma bands");
    let scale = want
        .iter()
        .flatten()
        .map(|&(re, im)| re.hypot(im))
        .fold(0.0, f64::max);
    for (s, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), N, "{label}: points of band {s}");
        for (k, (z, &(re, im))) in g.iter().zip(w).enumerate() {
            let err = (z.re - re).hypot(z.im - im);
            assert!(
                err <= TOL * scale,
                "{label}: band {s} point {k}: {z:?} vs golden ({re:e}, {im:e})"
            );
        }
    }
}

#[test]
fn gpp_ff_and_imaginary_axis_sigma_hold_their_recorded_values() {
    let (ctx, setup) = testkit::small_context();
    let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
    let engine = ChiEngine::new(&setup.wf, &mtxel, ChiConfig::default());
    let (nodes, weights) = semi_infinite_quadrature(6, 2.0);
    let grids: Vec<Vec<f64>> = ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - 0.05, e, e + 0.05])
        .collect();

    let gpp = gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized);
    let gpp: Vec<Vec<Complex64>> = gpp
        .sigma
        .iter()
        .map(|b| b.iter().map(|&x| Complex64::real(x)).collect())
        .collect();
    assert_golden("gpp_sigma_diag Sigma(E)", &gpp, &GPP_SIGMA);

    let (chis, _) = engine.chi_freqs(&nodes);
    let eps_ff = EpsilonInverse::build(&chis, &nodes, &setup.coulomb, &setup.eps_sph)
        .expect("dielectric matrix must be invertible");
    let ff = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, 0.05);
    assert_golden("ff_sigma_diag Sigma(E)", &ff.sigma, &FF_SIGMA);

    let chis_iw = engine.chi_imag_freqs(&nodes, &mut Default::default());
    let eps_iw = EpsilonInverse::build(&chis_iw, &nodes, &setup.coulomb, &setup.eps_sph)
        .expect("dielectric matrix must be invertible");
    let imag =
        imag_axis_sigma_diag(&ctx, &eps_iw, &weights, &grids, 8).expect("continuation succeeds");
    assert_golden(
        "imag_axis_sigma_diag Sigma^c(iw)",
        &imag.sigma_iw,
        &IMAG_SIGMA_IW,
    );
}
