//! The Epsilon module: dielectric matrices and their inverses (Eq. 3).
//!
//! Works with the *symmetrized* dielectric matrix
//! `eps~_GG' = delta_GG' - v^{1/2}(G) chi_GG' v^{1/2}(G')`, which is
//! Hermitian at `omega = 0` and keeps the self-energy contractions in the
//! clean form `(v^{1/2} M)^dagger eps~^{-1} (v^{1/2} M)`.
//!
//! The per-frequency matrices are independent, so [`EpsilonInverse::build`]
//! assembles and inverts them pool-parallel over the frequency axis, with
//! the `I - v^{1/2} chi v^{1/2}` scaling fused into a single sweep over the
//! cloned polarizability. A singular or non-finite dielectric matrix is a
//! *recoverable application condition* (a served request reports it and
//! the daemon keeps serving), so inversion failures surface as a typed
//! [`EpsilonError`] instead of a panic.

use crate::coulomb::Coulomb;
use bgw_linalg::{invert, CMatrix};
use bgw_num::Complex64;
use bgw_pwdft::GSphere;

/// True when `omega` is the static (zero-frequency) point.
///
/// Centralizes the exact-zero frequency compare used by the eta selection
/// in CHI and the static-matrix accessors here: IEEE `-0.0` compares equal
/// to `0.0` and is therefore static, while any nonzero offset — however
/// tiny — selects the finite-frequency path. NaN is never static.
pub fn is_static_freq(omega: f64) -> bool {
    omega == 0.0
}

/// Typed failure of the dielectric-matrix assembly/inversion.
#[derive(Clone, Debug, PartialEq)]
pub enum EpsilonError {
    /// `eps~(omega)` is singular to working precision — LU elimination hit
    /// a zero pivot. Physically: the screening diverges at this frequency
    /// (or the polarizability input is corrupt).
    Singular {
        /// Index of the offending frequency in the build's `omegas`.
        freq_index: usize,
        /// The frequency itself (Ry).
        omega: f64,
    },
    /// The assembled `eps~(omega)` contains NaN or infinite entries, so
    /// inversion would silently produce garbage.
    NonFinite {
        /// Index of the offending frequency in the build's `omegas`.
        freq_index: usize,
        /// The frequency itself (Ry).
        omega: f64,
    },
}

impl std::fmt::Display for EpsilonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpsilonError::Singular { freq_index, omega } => write!(
                f,
                "dielectric matrix is singular at omega[{freq_index}] = {omega} Ry"
            ),
            EpsilonError::NonFinite { freq_index, omega } => write!(
                f,
                "dielectric matrix has non-finite entries at omega[{freq_index}] = {omega} Ry"
            ),
        }
    }
}

impl std::error::Error for EpsilonError {}

/// Assembles the symmetrized dielectric matrix
/// `eps~ = I - v^{1/2} chi v^{1/2}` in one pass over a clone of `chi`
/// (scale and diagonal shift fused, no identity intermediate).
pub(crate) fn assemble_sym_eps(chi: &CMatrix, vsqrt: &[f64]) -> CMatrix {
    let n = chi.nrows();
    let mut eps = chi.clone();
    for (i, row) in eps.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let vi = -vsqrt[i];
        for (z, &vj) in row.iter_mut().zip(vsqrt) {
            *z = z.scale(vi * vj);
        }
        row[i] += Complex64::ONE;
    }
    eps
}

/// The inverse symmetrized dielectric matrix at a set of frequencies.
#[derive(Clone, Debug)]
pub struct EpsilonInverse {
    /// Frequencies (Ry) at which `eps~^{-1}` is stored; `omegas[0]` must be
    /// 0 for the static matrix used by GPP and the subspace construction.
    pub omegas: Vec<f64>,
    /// `eps~^{-1}(omega_i)`, same order as `omegas`.
    pub inv: Vec<CMatrix>,
    /// `sqrt(v(G))` on the sphere (for symmetrizing matrix elements).
    pub vsqrt: Vec<f64>,
}

impl EpsilonInverse {
    /// Builds `eps~(omega) = I - v^{1/2} chi(omega) v^{1/2}` and inverts it
    /// for every supplied polarizability, pool-parallel over frequencies.
    ///
    /// A singular or non-finite `eps~(omega_k)` returns the typed
    /// [`EpsilonError`] for the *first* offending frequency instead of
    /// panicking, so the typed drivers and the daemon can surface it.
    pub fn build(
        chis: &[CMatrix],
        omegas: &[f64],
        coulomb: &Coulomb,
        sph: &GSphere,
    ) -> Result<Self, EpsilonError> {
        assert_eq!(chis.len(), omegas.len());
        assert!(!chis.is_empty(), "need at least one frequency");
        let vsqrt = coulomb.sqrt_on_sphere(sph);
        for chi in chis {
            assert_eq!(chi.nrows(), sph.len(), "chi dimension mismatch");
            assert!(chi.is_square());
        }
        let mut slots: Vec<Option<Result<CMatrix, EpsilonError>>> = vec![None; chis.len()];
        let invert_cost =
            bgw_par::Flops(bgw_perf::flopmodel::epsilon_invert_flops(sph.len()) as u64);
        bgw_par::parallel_fill(&mut slots, invert_cost, |k, slot| {
            *slot = Some(invert_one(&chis[k], &vsqrt, k, omegas[k]));
        });
        let mut inv = Vec::with_capacity(chis.len());
        for slot in slots {
            inv.push(slot.expect("parallel_fill visits every slot")?);
        }
        Ok(Self {
            omegas: omegas.to_vec(),
            inv,
            vsqrt,
        })
    }

    /// Reassembles an `EpsilonInverse` from already-inverted blocks — the
    /// restore path: a stored screening record's `eps~^{-1}(omega_i)`
    /// matrices are loaded back without redoing the inversion.
    pub fn from_parts(omegas: Vec<f64>, inv: Vec<CMatrix>, vsqrt: Vec<f64>) -> Self {
        assert_eq!(omegas.len(), inv.len());
        Self { omegas, inv, vsqrt }
    }

    /// The static inverse (`omega = 0`).
    pub fn static_inv(&self) -> &CMatrix {
        assert!(is_static_freq(self.omegas[0]), "first frequency must be 0");
        &self.inv[0]
    }

    /// Basis size `N_G`.
    pub fn n_g(&self) -> usize {
        self.vsqrt.len()
    }

    /// Number of stored frequencies.
    pub fn n_freq(&self) -> usize {
        self.omegas.len()
    }

    /// The screening part `eps~^{-1}(omega_i) - I` (what enters the
    /// correlation self-energy).
    pub fn correlation_part(&self, i: usize) -> CMatrix {
        let mut w = self.inv[i].clone();
        for d in 0..w.nrows() {
            w[(d, d)] -= Complex64::ONE;
        }
        w
    }

    /// Macroscopic screening: `1 / eps~^{-1}_head(0)` (the effective
    /// dielectric constant of the model system).
    ///
    /// Guarded against a degenerate head: a zero head returns
    /// `f64::INFINITY` (metallic limit: complete screening) and a
    /// non-finite head returns `f64::NAN` — neither divides blindly.
    pub fn macroscopic_constant(&self) -> f64 {
        let head = self.static_inv()[(0, 0)].re;
        if !head.is_finite() {
            f64::NAN
        } else if head == 0.0 {
            f64::INFINITY
        } else {
            1.0 / head
        }
    }
}

/// Assemble + invert one frequency's dielectric matrix.
fn invert_one(
    chi: &CMatrix,
    vsqrt: &[f64],
    freq_index: usize,
    omega: f64,
) -> Result<CMatrix, EpsilonError> {
    let eps = assemble_sym_eps(chi, vsqrt);
    if !eps
        .as_slice()
        .iter()
        .all(|z| z.re.is_finite() && z.im.is_finite())
    {
        return Err(EpsilonError::NonFinite { freq_index, omega });
    }
    let _span = bgw_trace::span!("epsilon.invert");
    bgw_trace::add_flops(bgw_perf::flopmodel::epsilon_invert_flops(eps.nrows()) as u64);
    invert(&eps).map_err(|_| EpsilonError::Singular { freq_index, omega })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chi::{ChiConfig, ChiEngine};
    use crate::mtxel::Mtxel;
    use bgw_num::c64;
    use bgw_pwdft::{solve_bands, Crystal, Species, Wavefunctions};

    fn setup() -> (GSphere, GSphere, Wavefunctions) {
        let c = Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0);
        let wfn = GSphere::new(&c.lattice, 2.2);
        let eps = GSphere::new(&c.lattice, 1.0);
        let wf = solve_bands(&c, &wfn, 24);
        (wfn, eps, wf)
    }

    fn cell_coulomb() -> Coulomb {
        let c = Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0);
        Coulomb::bulk_for_cell(c.lattice.volume())
    }

    fn build_eps(freqs: &[f64]) -> EpsilonInverse {
        let (wfn, eps_sph, wf) = setup();
        let coulomb = cell_coulomb();
        let mtxel = Mtxel::new(&wfn, &eps_sph);
        let cfg = ChiConfig {
            q0: coulomb.q0,
            ..ChiConfig::default()
        };
        let engine = ChiEngine::new(&wf, &mtxel, cfg);
        let (chis, _) = engine.chi_freqs(freqs);
        EpsilonInverse::build(&chis, freqs, &coulomb, &eps_sph)
            .expect("dielectric matrix must be invertible")
    }

    #[test]
    fn static_inverse_is_hermitian_and_screens() {
        let e = build_eps(&[0.0]);
        let inv0 = e.static_inv();
        assert!(
            inv0.hermiticity_error() <= 1e-8,
            "err {}",
            inv0.hermiticity_error()
        );
        // Screening: 0 < eps~^{-1}_00 < 1 for an insulator.
        let head = inv0[(0, 0)].re;
        assert!(head > 0.0 && head < 1.0, "head = {head}");
        let eps_macro = e.macroscopic_constant();
        assert!(eps_macro > 1.0, "macroscopic eps = {eps_macro}");
    }

    #[test]
    fn inverse_times_eps_is_identity() {
        let (wfn, eps_sph, wf) = setup();
        let coul = cell_coulomb();
        let mtxel = Mtxel::new(&wfn, &eps_sph);
        let cfg = ChiConfig {
            q0: coul.q0,
            ..ChiConfig::default()
        };
        let engine = ChiEngine::new(&wf, &mtxel, cfg);
        let chi0 = engine.chi_static();
        let e = EpsilonInverse::build(std::slice::from_ref(&chi0), &[0.0], &coul, &eps_sph)
            .expect("dielectric matrix must be invertible");
        // rebuild eps~ and check eps~ * inv = I
        let n = chi0.nrows();
        let vs = coul.sqrt_on_sphere(&eps_sph);
        let mut eps_m = CMatrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                eps_m[(i, j)] -= chi0[(i, j)].scale(vs[i] * vs[j]);
            }
        }
        let prod = bgw_linalg::matmul(
            &eps_m,
            bgw_linalg::Op::None,
            e.static_inv(),
            bgw_linalg::Op::None,
        );
        assert!(prod.max_abs_diff(&CMatrix::identity(n)) < 1e-8);
    }

    #[test]
    fn fused_assembly_matches_two_pass_reference() {
        let n = 7;
        let chi = CMatrix::random(n, n, 11);
        let vsqrt: Vec<f64> = (0..n).map(|i| 0.3 + 0.1 * i as f64).collect();
        let fused = assemble_sym_eps(&chi, &vsqrt);
        let mut reference = CMatrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                reference[(i, j)] -= chi[(i, j)].scale(vsqrt[i] * vsqrt[j]);
            }
        }
        assert!(fused.max_abs_diff(&reference) < 1e-15);
    }

    #[test]
    fn screening_fades_at_high_frequency() {
        // omega = 50 Ry is far beyond every transition of the small model,
        // so the response dies out: eps~^{-1} -> I.
        let e = build_eps(&[0.0, 50.0]);
        let head0 = (e.inv[0][(0, 0)] - bgw_num::c64(1.0, 0.0)).abs();
        let head50 = (e.inv[1][(0, 0)] - bgw_num::c64(1.0, 0.0)).abs();
        assert!(
            head50 < 0.2 * head0.max(0.05),
            "head50 {head50} vs head0 {head0}"
        );
        let corr = e.correlation_part(1);
        assert!(corr[(0, 0)].abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "first frequency must be 0")]
    fn static_inv_requires_zero_first() {
        let e = build_eps(&[0.0]);
        let bad = EpsilonInverse {
            omegas: vec![1.0],
            inv: e.inv.clone(),
            vsqrt: e.vsqrt.clone(),
        };
        let _ = bad.static_inv();
    }

    #[test]
    fn is_static_freq_semantics() {
        assert!(is_static_freq(0.0));
        // IEEE negative zero compares equal to zero: still the static point.
        assert!(is_static_freq(-0.0));
        // Any finite offset, however tiny, is a finite frequency.
        assert!(!is_static_freq(5e-324)); // smallest positive subnormal
        assert!(!is_static_freq(-5e-324));
        assert!(!is_static_freq(1e-300));
        assert!(!is_static_freq(f64::NAN));
    }

    #[test]
    fn negative_zero_frequency_is_accepted_as_static() {
        let e = build_eps(&[0.0]);
        let neg = EpsilonInverse {
            omegas: vec![-0.0],
            inv: e.inv.clone(),
            vsqrt: e.vsqrt.clone(),
        };
        assert!(neg.static_inv().max_abs_diff(e.static_inv()) == 0.0);
    }

    /// A polarizability crafted so `eps~ = I - v^{1/2} chi v^{1/2}` is
    /// *exactly* singular in floating point: find a diagonal `d` and a
    /// representable `c` with `fl(v_d^2 * c) == 1.0`, put `c` at
    /// `chi_(d,d)` and zero everywhere else. Row and column `d` of `eps~`
    /// are then exactly zero (all other entries are products with 0), so
    /// LU elimination meets a pivot of exactly 0 — the only condition the
    /// factorization flags as singular. `1.0 / v_d^2` alone is not enough:
    /// the product can round to 1 +- 1 ulp and leave a tiny nonzero pivot.
    fn singular_chi(vsqrt: &[f64]) -> CMatrix {
        let n = vsqrt.len();
        for d in 0..n {
            let v2 = vsqrt[d] * vsqrt[d];
            if v2 <= 0.0 || !v2.is_finite() {
                continue;
            }
            let base = (1.0 / v2).to_bits() as i64;
            for off in -64i64..=64 {
                let c = f64::from_bits((base + off) as u64);
                if v2 * c == 1.0 {
                    let mut chi = CMatrix::zeros(n, n);
                    chi[(d, d)] = c64(c, 0.0);
                    return chi;
                }
            }
        }
        unreachable!("no diagonal admits an exactly-representable singular head");
    }

    #[test]
    fn singular_dielectric_is_a_typed_error_not_a_panic() {
        let (_, eps_sph, _) = setup();
        let coul = cell_coulomb();
        let vsqrt = coul.sqrt_on_sphere(&eps_sph);
        let chi = singular_chi(&vsqrt);
        let err = EpsilonInverse::build(&[chi.clone(), chi], &[0.0, 1.5], &coul, &eps_sph)
            .expect_err("singular dielectric must not invert");
        // The first offending frequency is reported.
        assert_eq!(
            err,
            EpsilonError::Singular {
                freq_index: 0,
                omega: 0.0
            }
        );
        assert!(err.to_string().contains("singular"), "{err}");
    }

    #[test]
    fn non_finite_dielectric_is_a_typed_error() {
        let (_, eps_sph, _) = setup();
        let coul = cell_coulomb();
        let n = eps_sph.len();
        let mut chi = CMatrix::zeros(n, n);
        chi[(1, 2)] = c64(f64::NAN, 0.0);
        let err = EpsilonInverse::build(&[chi], &[0.25], &coul, &eps_sph)
            .expect_err("NaN polarizability must be rejected");
        assert_eq!(
            err,
            EpsilonError::NonFinite {
                freq_index: 0,
                omega: 0.25
            }
        );
    }

    #[test]
    fn macroscopic_constant_guards_zero_and_nan_head() {
        let e = build_eps(&[0.0]);
        let with_head = |head: Complex64| {
            let mut inv0 = e.inv[0].clone();
            inv0[(0, 0)] = head;
            EpsilonInverse::from_parts(vec![0.0], vec![inv0], e.vsqrt.clone())
        };
        // Zero head: the metallic (perfect-screening) limit, not a 1/0 panic
        // or a spurious +-inf sign flip from dividing by a signed zero.
        assert_eq!(
            with_head(c64(0.0, 0.0)).macroscopic_constant(),
            f64::INFINITY
        );
        assert_eq!(
            with_head(c64(-0.0, 0.0)).macroscopic_constant(),
            f64::INFINITY
        );
        // Non-finite head propagates as NaN instead of an infinity that
        // looks like legitimate screening.
        assert!(with_head(c64(f64::NAN, 0.0))
            .macroscopic_constant()
            .is_nan());
        assert!(with_head(c64(f64::INFINITY, 0.0))
            .macroscopic_constant()
            .is_nan());
        // Sane heads still divide through.
        let direct = with_head(c64(0.25, 0.0)).macroscopic_constant();
        assert!((direct - 4.0).abs() < 1e-15);
    }
}
