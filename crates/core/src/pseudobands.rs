//! Mixed stochastic-deterministic pseudobands (paper Sec. 5.3).
//!
//! The high-energy tail of the band sum is compressed: the spectrum above
//! a protection window `P` around the Fermi energy is partitioned into
//! energy slices of exponentially growing width, and the Kohn-Sham states
//! in each slice are replaced by `N_xi` stochastic linear combinations
//! `|xi_j^S> = (1/sqrt(N_xi)) sum_{n in S} e^{2 pi i theta_n^j} |psi_n>`
//! carrying the slice's average energy. In expectation
//! `sum_j |xi_j><xi_j| = sum_{n in S} |psi_n><psi_n|`, so the sum-over-
//! bands in Eqs. 2 and 4 is unbiased while the band count drops
//! exponentially.
//!
//! The slice projector can also be applied to a random vector directly via
//! a Chebyshev-Jackson expansion of the spectral window in the Hamiltonian
//! (avoiding full diagonalization): [`chebyshev_pseudoband`].

use bgw_linalg::CMatrix;
use bgw_num::Xoshiro256StarStar;
use bgw_num::{ChebyshevJackson, Complex64, SpectralMap};
use bgw_pwdft::{Hamiltonian, Wavefunctions};

/// Configuration of the pseudobands compression.
#[derive(Clone, Copy, Debug)]
pub struct PseudobandsConfig {
    /// Conduction states within `protection_ry` above the Fermi level stay
    /// exact (all valence states always stay exact).
    pub protection_ry: f64,
    /// Stochastic pseudobands per slice (paper: typically 2-5).
    pub n_xi: usize,
    /// Width of the first slice (Ry).
    pub first_slice_ry: f64,
    /// Geometric growth factor of successive slice widths (> 1 gives the
    /// exponential compression).
    pub growth: f64,
    /// RNG seed (stochastic runs average over seeds).
    pub seed: u64,
}

impl Default for PseudobandsConfig {
    fn default() -> Self {
        Self {
            protection_ry: 0.5,
            n_xi: 3,
            first_slice_ry: 0.5,
            growth: 1.5,
            seed: 12345,
        }
    }
}

/// A compressed band set.
#[derive(Clone, Debug)]
pub struct Pseudobands {
    /// The compressed states: protected exact states followed by
    /// stochastic pseudobands (usable anywhere a [`Wavefunctions`] is).
    pub wf: Wavefunctions,
    /// Number of exactly kept states.
    pub n_protected: usize,
    /// Number of slices formed.
    pub n_slices: usize,
    /// Original band count, for the compression ratio.
    pub n_original: usize,
}

/// Compresses a band set according to `cfg`.
pub fn compress(wf: &Wavefunctions, cfg: &PseudobandsConfig) -> Pseudobands {
    assert!(cfg.n_xi >= 1, "need at least one pseudoband per slice");
    assert!(cfg.growth >= 1.0, "slice widths must not shrink");
    let nb = wf.n_bands();
    let ng = wf.n_g();
    let fermi = wf.fermi_ry();
    let protect_top = fermi + cfg.protection_ry;
    // Protected region: all bands with E <= protect_top (always includes
    // all valence states since protection_ry > 0).
    let n_protected = wf
        .energies
        .iter()
        .take_while(|&&e| e <= protect_top)
        .count();
    let n_protected = n_protected.max(wf.n_valence + 1).min(nb);

    let mut energies: Vec<f64> = wf.energies[..n_protected].to_vec();
    let mut rows: Vec<Vec<Complex64>> = (0..n_protected)
        .map(|n| wf.coeffs.row(n).to_vec())
        .collect();

    let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);
    let mut n_slices = 0;
    let mut lo = n_protected;
    let mut width = cfg.first_slice_ry;
    while lo < nb {
        let e_lo = wf.energies[lo];
        let mut hi = lo;
        while hi < nb && wf.energies[hi] < e_lo + width {
            hi += 1;
        }
        // guard: at least one state per slice
        let hi = hi.max(lo + 1);
        let n_in_slice = hi - lo;
        if n_in_slice <= cfg.n_xi {
            // no compression possible; keep exact
            for n in lo..hi {
                energies.push(wf.energies[n]);
                rows.push(wf.coeffs.row(n).to_vec());
            }
        } else {
            let e_avg: f64 = wf.energies[lo..hi].iter().sum::<f64>() / n_in_slice as f64;
            let norm = 1.0 / (cfg.n_xi as f64).sqrt();
            for _ in 0..cfg.n_xi {
                let mut xi = vec![Complex64::ZERO; ng];
                for n in lo..hi {
                    let theta: f64 = rng.next_f64();
                    let phase = Complex64::cis(2.0 * std::f64::consts::PI * theta);
                    let row = wf.coeffs.row(n);
                    for (x, &c) in xi.iter_mut().zip(row) {
                        *x = x.mul_add(phase, c);
                    }
                }
                for x in xi.iter_mut() {
                    *x = x.scale(norm);
                }
                energies.push(e_avg);
                rows.push(xi);
            }
        }
        n_slices += 1;
        lo = hi;
        width *= cfg.growth;
    }

    let n_new = rows.len();
    let mut coeffs = CMatrix::zeros(n_new, ng);
    for (i, row) in rows.iter().enumerate() {
        coeffs.row_mut(i).copy_from_slice(row);
    }
    Pseudobands {
        wf: Wavefunctions {
            energies,
            coeffs,
            n_valence: wf.n_valence,
        },
        n_protected,
        n_slices,
        n_original: nb,
    }
}

/// Builds one pseudoband by applying the Chebyshev-Jackson approximation
/// of the spectral projector onto `[e_lo, e_hi]` (Ry) to a random vector —
/// the diagonalization-free construction of Sec. 5.3.
///
/// `bounds` must bracket the full spectrum of `h` (Ry).
pub fn chebyshev_pseudoband(
    h: &Hamiltonian,
    e_lo: f64,
    e_hi: f64,
    bounds: (f64, f64),
    degree: usize,
    seed: u64,
) -> Vec<Complex64> {
    assert!(e_hi > e_lo, "empty energy window");
    let map = SpectralMap::new(bounds.0, bounds.1, 0.01);
    let a = map.to_canonical(e_lo).clamp(-0.999, 0.999);
    let b = map.to_canonical(e_hi).clamp(-0.999, 0.999);
    assert!(b > a, "window collapsed under the spectral map");
    let exp = ChebyshevJackson::window(a, b, degree);
    let n = h.dim();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let x: Vec<Complex64> = (0..n)
        .map(|_| {
            Complex64::cis(2.0 * std::f64::consts::PI * rng.next_f64())
                .scale(1.0 / (n as f64).sqrt())
        })
        .collect();
    // Operator recursion: T_0 = x, T_1 = H~ x, T_{k+1} = 2 H~ T_k - T_{k-1}
    // with H~ = (H - center) / half_width.
    let apply = |v: &[Complex64]| -> Vec<Complex64> {
        let mut hv = h.matvec(v);
        let inv_hw = 1.0 / map.half_width;
        for (o, i) in hv.iter_mut().zip(v) {
            *o = (*o - i.scale(map.center)).scale(inv_hw);
        }
        hv
    };
    let mut t_prev = x.clone();
    let mut t_cur = apply(&x);
    let mut out: Vec<Complex64> = x.iter().map(|&v| v.scale(exp.coeffs[0])).collect();
    if exp.coeffs.len() > 1 {
        for (o, t) in out.iter_mut().zip(&t_cur) {
            *o += t.scale(exp.coeffs[1]);
        }
    }
    for &c in &exp.coeffs[2..] {
        let ht = apply(&t_cur);
        let t_next: Vec<Complex64> = ht
            .iter()
            .zip(&t_prev)
            .map(|(h2, p)| h2.scale(2.0) - *p)
            .collect();
        for (o, t) in out.iter_mut().zip(&t_next) {
            *o += t.scale(c);
        }
        t_prev = std::mem::replace(&mut t_cur, t_next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn protected_states_are_exact() {
        let (_, setup) = testkit::small_context();
        let pb = compress(&setup.wf, &PseudobandsConfig::default());
        assert!(pb.n_protected > setup.wf.n_valence);
        for n in 0..pb.n_protected {
            assert_eq!(pb.wf.energies[n], setup.wf.energies[n]);
            assert_eq!(pb.wf.coeffs.row(n), setup.wf.coeffs.row(n));
        }
        assert_eq!(pb.wf.n_valence, setup.wf.n_valence);
    }

    #[test]
    fn compression_reduces_band_count() {
        let (_, setup) = testkit::small_context();
        let cfg = PseudobandsConfig {
            protection_ry: 0.05,
            n_xi: 2,
            first_slice_ry: 0.3,
            growth: 2.0,
            seed: 7,
        };
        let pb = compress(&setup.wf, &cfg);
        assert!(pb.wf.n_bands() < setup.wf.n_bands());
        assert!(pb.n_slices >= 1);
    }

    #[test]
    fn completeness_is_unbiased() {
        // E_seeds[ sum_pseudobands |<g|xi>|^2 ] ~ sum_exact |<g|psi>|^2 for
        // a fixed test vector g.
        let (_, setup) = testkit::small_context();
        let wf = &setup.wf;
        let nb = wf.n_bands();
        let ng = wf.n_g();
        let g: Vec<Complex64> = (0..ng)
            .map(|i| Complex64::cis(i as f64 * 1.7).scale(1.0 / (ng as f64).sqrt()))
            .collect();
        let project = |coeffs: &CMatrix, rows: std::ops::Range<usize>| -> f64 {
            rows.map(|n| {
                let mut ov = Complex64::ZERO;
                for (c, x) in coeffs.row(n).iter().zip(&g) {
                    ov = ov.conj_mul_add(*c, *x);
                }
                ov.norm_sqr()
            })
            .sum()
        };
        let cfg0 = PseudobandsConfig {
            protection_ry: 0.2,
            n_xi: 2,
            first_slice_ry: 0.6,
            growth: 1.5,
            seed: 0,
        };
        let exact_tail = {
            let pb = compress(wf, &cfg0);
            project(&wf.coeffs, pb.n_protected..nb)
        };
        let n_seeds = 40;
        let mut mean = 0.0;
        for seed in 0..n_seeds {
            let pb = compress(wf, &PseudobandsConfig { seed, ..cfg0 });
            mean += project(&pb.wf.coeffs, pb.n_protected..pb.wf.n_bands());
        }
        mean /= n_seeds as f64;
        let rel = (mean - exact_tail).abs() / exact_tail.max(1e-12);
        assert!(
            rel < 0.25,
            "stochastic completeness biased: {mean} vs {exact_tail}"
        );
    }

    #[test]
    fn larger_n_xi_reduces_variance() {
        let (_, setup) = testkit::small_context();
        let wf = &setup.wf;
        let ng = wf.n_g();
        let g: Vec<Complex64> = (0..ng)
            .map(|i| Complex64::cis(i as f64 * 0.37).scale(1.0 / (ng as f64).sqrt()))
            .collect();
        let sample_var = |n_xi: usize| -> f64 {
            let mut stats = bgw_num::RunningStats::new();
            for seed in 0..30 {
                let cfg = PseudobandsConfig {
                    protection_ry: 0.2,
                    n_xi,
                    first_slice_ry: 0.6,
                    growth: 1.5,
                    seed,
                };
                let pb = compress(wf, &cfg);
                let v: f64 = (pb.n_protected..pb.wf.n_bands())
                    .map(|n| {
                        let mut ov = Complex64::ZERO;
                        for (c, x) in pb.wf.coeffs.row(n).iter().zip(&g) {
                            ov = ov.conj_mul_add(*c, *x);
                        }
                        ov.norm_sqr()
                    })
                    .sum();
                stats.push(v);
            }
            stats.variance()
        };
        let v1 = sample_var(1);
        let v4 = sample_var(4);
        assert!(v4 < v1, "variance must drop with N_xi: {v4} !< {v1}");
    }

    #[test]
    fn chebyshev_pseudoband_matches_exact_projector() {
        use bgw_linalg::eigh;
        let (_, setup) = testkit::small_context();
        let h = Hamiltonian::new(&setup.crystal, &setup.wfn_sph);
        let hm = h.to_matrix();
        let eig = eigh(&hm);
        let bounds = (eig.values[0] - 0.1, eig.values.last().unwrap() + 0.1);
        // Window edges must fall inside clear spectral gaps, or the
        // expansion half-includes a degenerate multiplet.
        let gaps: Vec<usize> = (5..eig.values.len() - 5)
            .filter(|&i| eig.values[i + 1] - eig.values[i] > 0.05)
            .collect();
        assert!(gaps.len() >= 2, "spectrum has too few gaps for the test");
        let e_lo = 0.5 * (eig.values[gaps[0]] + eig.values[gaps[0] + 1]);
        let e_hi = 0.5 * (eig.values[gaps[1]] + eig.values[gaps[1] + 1]);
        let seed = 3;
        let xi = chebyshev_pseudoband(&h, e_lo, e_hi, bounds, 600, seed);
        // exact projection of the same random vector
        let n = h.dim();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let x: Vec<Complex64> = (0..n)
            .map(|_| {
                Complex64::cis(2.0 * std::f64::consts::PI * rng.next_f64())
                    .scale(1.0 / (n as f64).sqrt())
            })
            .collect();
        let mut exact = vec![Complex64::ZERO; n];
        for k in 0..n {
            if eig.values[k] > e_lo && eig.values[k] < e_hi {
                let mut ov = Complex64::ZERO;
                for (i, &xv) in x.iter().enumerate() {
                    ov = ov.conj_mul_add(eig.vectors[(i, k)], xv);
                }
                for (o, i2) in exact.iter_mut().zip(0..n) {
                    *o += eig.vectors[(i2, k)] * ov;
                }
            }
        }
        let err: f64 = xi
            .iter()
            .zip(&exact)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        let scale: f64 = exact.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(
            err < 0.05 * scale.max(0.1),
            "Chebyshev projector error {err} (scale {scale})"
        );
    }
}
