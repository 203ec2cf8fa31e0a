//! MTXEL: plane-wave matrix elements via FFT.
//!
//! `M_mn^G = <psi_m| e^{i G.r} |psi_n> = sum_{G'} c_m^*(G' + G) c_n(G')`,
//! computed by transforming both bands to real space, forming the pointwise
//! product `psi_m^*(r) psi_n(r)`, and transforming back (the MTXEL kernel
//! of paper Sec. 5.2 and ref 8). The output sphere (for `chi`/`Sigma`) is in
//! general smaller than the wavefunction sphere.

use bgw_fft::{Direction, Fft3d};
use bgw_num::Complex64;
use bgw_par::{Flops, SendPtr};
use bgw_pwdft::{GSphere, Wavefunctions};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts of work done by an MTXEL engine (for the perf model).
#[derive(Debug, Default)]
pub struct MtxelStats {
    /// 3-D FFTs executed.
    pub ffts: AtomicU64,
    /// Band-pair products formed.
    pub pairs: AtomicU64,
}

/// FFT-based matrix-element engine between a wavefunction sphere and an
/// output sphere (both on the same lattice, sharing the same FFT box).
pub struct Mtxel {
    plan: Fft3d,
    /// Scatter indices of the wavefunction sphere into the FFT box.
    wfn_scatter: Vec<usize>,
    /// Gather indices: for output G, position of `-G` in the box (the
    /// correlation `M^G = (1/N) FFT[psi_m^* psi_n](-G)`).
    out_gather: Vec<usize>,
    /// Cartesian G-vectors of the wavefunction sphere (for the k.p head).
    wfn_cart: Vec<[f64; 3]>,
    npts: usize,
    stats: MtxelStats,
}

impl Mtxel {
    /// Builds the engine. `wfn_sph` and `out_sph` must come from the same
    /// lattice. The FFT box is the smallest alias-free one for this
    /// kernel: the product `psi_m^* psi_n` has spectral support up to
    /// `2 m_psi` per axis, and reading components inside the output sphere
    /// (`<= m_out`) stays alias-free for box sizes `>= 2 m_psi + m_out + 1`
    /// — substantially smaller than the `4 m_psi + 1` box the Hamiltonian
    /// difference-lookup table needs.
    pub fn new(wfn_sph: &GSphere, out_sph: &GSphere) -> Self {
        let max_m = |sph: &GSphere, axis: usize| {
            sph.miller
                .iter()
                .map(|m| m[axis].unsigned_abs() as usize)
                .max()
                .unwrap_or(0)
        };
        let dim =
            |axis: usize| bgw_fft::good_size(2 * max_m(wfn_sph, axis) + max_m(out_sph, axis) + 1);
        let (nx, ny, nz) = (dim(0), dim(1), dim(2));
        let plan = Fft3d::new(nx, ny, nz);
        let wrap = |v: i32, n: usize| -> usize {
            let n = n as i32;
            (((v % n) + n) % n) as usize
        };
        let wfn_scatter: Vec<usize> = (0..wfn_sph.len())
            .map(|i| {
                let m = wfn_sph.miller[i];
                (wrap(m[0], nx) * ny + wrap(m[1], ny)) * nz + wrap(m[2], nz)
            })
            .collect();
        let out_gather: Vec<usize> = (0..out_sph.len())
            .map(|i| {
                let m = out_sph.miller[i];
                // position of -G in the box
                (wrap(-m[0], nx) * ny + wrap(-m[1], ny)) * nz + wrap(-m[2], nz)
            })
            .collect();
        Self {
            npts: plan.len(),
            plan,
            wfn_scatter,
            out_gather,
            wfn_cart: wfn_sph.cart.clone(),
            stats: MtxelStats::default(),
        }
    }

    /// The `q -> 0` (head) matrix element by k.p perturbation theory:
    /// `<m| e^{i q.r} |n> ~ i q . <m|r|n>` with
    /// `<m|r|n> = -2 <m|grad|n> / (E_m - E_n)` (Ry units), evaluated for
    /// `q = q0 x^`. A Gamma-only supercell calculation needs this because
    /// the naive `G = 0` element vanishes by orthogonality while the
    /// screening head is physical and finite.
    ///
    /// Returns 1 for `m == n`, 0 for distinct (quasi-)degenerate bands,
    /// and the k.p value otherwise. `q0 = 0` reduces to the naive elements.
    pub fn head_kp(&self, wf: &Wavefunctions, m: usize, n: usize, q0: f64) -> Complex64 {
        if m == n {
            return Complex64::ONE;
        }
        if q0 == 0.0 {
            return Complex64::ZERO;
        }
        self.kp_element(wf, m, n, [q0, 0.0, 0.0])
    }

    /// The k.p matrix element `<m| e^{i q.r} |n> ~ i q . <m|r|n>` for an
    /// arbitrary small `q` (bohr^-1); returns 0 for (quasi-)degenerate
    /// pairs. Used for the q -> 0 heads and for optical dipoles.
    pub fn kp_element(&self, wf: &Wavefunctions, m: usize, n: usize, q: [f64; 3]) -> Complex64 {
        let de = wf.energies[m] - wf.energies[n];
        if de.abs() < 1e-9 {
            return Complex64::ZERO;
        }
        // sum_G conj(c_m(G)) (q . G) c_n(G)
        let mut acc = Complex64::ZERO;
        let rm = wf.coeffs.row(m);
        let rn = wf.coeffs.row(n);
        for (g, cart) in self.wfn_cart.iter().enumerate() {
            let qg = q[0] * cart[0] + q[1] * cart[1] + q[2] * cart[2];
            if qg != 0.0 {
                acc = acc.conj_mul_add(rm[g], rn[g].scale(qg));
            }
        }
        acc.scale(2.0 / de)
    }

    /// Number of output G-vectors.
    pub fn n_out(&self) -> usize {
        self.out_gather.len()
    }

    /// FFT and pair counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.stats.ffts.load(Ordering::Relaxed),
            self.stats.pairs.load(Ordering::Relaxed),
        )
    }

    /// Transforms several bands of `wf` to real space in one batched pass
    /// over the pooled 3-D FFT (grids are distributed over workers; each
    /// grid's axis passes run the batched line kernel inline).
    pub fn to_real_space_many(&self, wf: &Wavefunctions, bands: &[usize]) -> Vec<Vec<Complex64>> {
        let mut grids: Vec<Vec<Complex64>> = bands
            .iter()
            .map(|&b| {
                let mut grid = vec![Complex64::ZERO; self.npts];
                for (g, &pos) in self.wfn_scatter.iter().enumerate() {
                    grid[pos] = wf.coeffs[(b, g)];
                }
                grid
            })
            .collect();
        self.plan.inverse_many(&mut grids);
        let s = self.npts as f64;
        for grid in grids.iter_mut() {
            for z in grid.iter_mut() {
                *z = z.scale(s);
            }
        }
        self.stats
            .ffts
            .fetch_add(bands.len() as u64, Ordering::Relaxed);
        grids
    }

    /// Transforms several coefficient vectors on the wavefunction sphere
    /// to real space in one batched pass (GWPT transforms every
    /// first-order state once this way).
    pub fn vectors_to_real_space_many(&self, vecs: &[&[Complex64]]) -> Vec<Vec<Complex64>> {
        let mut grids: Vec<Vec<Complex64>> = vecs
            .iter()
            .map(|coeffs| {
                assert_eq!(coeffs.len(), self.wfn_scatter.len());
                let mut grid = vec![Complex64::ZERO; self.npts];
                for (g, &pos) in self.wfn_scatter.iter().enumerate() {
                    grid[pos] = coeffs[g];
                }
                grid
            })
            .collect();
        self.plan.inverse_many(&mut grids);
        let s = self.npts as f64;
        for grid in grids.iter_mut() {
            for z in grid.iter_mut() {
                *z = z.scale(s);
            }
        }
        self.stats
            .ffts
            .fetch_add(vecs.len() as u64, Ordering::Relaxed);
        grids
    }

    /// The batched pair kernel: `M_{m n}^G` of one band `psi_m_r` against
    /// every band of `others` (real-space amplitudes), row `n` of the
    /// row-major `out` (`others.len() x n_out`) receiving pair `(m, n)`.
    ///
    /// One pooled region spans the pairs. Each participant forms the
    /// product `psi_m^*(r) psi_n(r)`, transforms it with its own scratch
    /// (axis passes on its own thread), gathers the output sphere straight
    /// into the destination row and hands the row to `finish(n, row)` —
    /// the caller's k.p head and `v^{1/2}` scaling — so no per-pair vector
    /// is allocated and the pool is woken once per band, not three times
    /// per pair.
    pub fn pairs_from_real<B, F>(
        &self,
        psi_m_r: &[Complex64],
        others: &[B],
        out: &mut [Complex64],
        finish: F,
    ) where
        B: AsRef<[Complex64]> + Sync,
        F: Fn(usize, &mut [Complex64]) + Sync,
    {
        let ng = self.n_out();
        assert_eq!(psi_m_r.len(), self.npts);
        assert_eq!(out.len(), others.len() * ng, "one output row per pair");
        let norm = 1.0 / self.npts as f64;
        // Per pair: the 3-D FFT plus one complex multiply per grid point.
        let cost = Flops(self.plan.flops() + 6 * self.npts as u64);
        let chunk = bgw_par::auto_chunk(others.len(), bgw_par::num_threads(), 1);
        let rows = SendPtr::new(out.as_mut_ptr());
        bgw_par::parallel_for_chunked(others.len(), chunk, cost, |lo, hi| {
            let mut prod = vec![Complex64::ZERO; self.npts];
            let mut scratch = self.plan.scratch();
            for (n, psi_n_r) in others.iter().enumerate().take(hi).skip(lo) {
                let psi_n_r = psi_n_r.as_ref();
                assert_eq!(psi_n_r.len(), self.npts);
                for (p, (m, n)) in prod.iter_mut().zip(psi_m_r.iter().zip(psi_n_r)) {
                    *p = m.conj() * *n;
                }
                self.plan
                    .process_with(&mut prod, &mut scratch, Direction::Forward);
                // SAFETY: chunks [lo, hi) are disjoint across participants
                // and `out` holds `others.len()` rows of `ng`, so row `n`
                // has exactly one writer.
                let row = unsafe { std::slice::from_raw_parts_mut(rows.get().add(n * ng), ng) };
                for (slot, &pos) in row.iter_mut().zip(&self.out_gather) {
                    *slot = prod[pos].scale(norm);
                }
                finish(n, row);
            }
        });
        let pairs = others.len() as u64;
        self.stats.ffts.fetch_add(pairs, Ordering::Relaxed);
        self.stats.pairs.fetch_add(pairs, Ordering::Relaxed);
    }

    /// Computes `M_mn^G` over the output sphere given the two bands'
    /// real-space amplitudes: the one-pair case of
    /// [`Mtxel::pairs_from_real`].
    pub fn pair_from_real(&self, psi_m_r: &[Complex64], psi_n_r: &[Complex64]) -> Vec<Complex64> {
        let mut row = vec![Complex64::ZERO; self.n_out()];
        self.pairs_from_real(psi_m_r, &[psi_n_r], &mut row, |_, _| {});
        row
    }
}

/// The one-grid transform the batched [`Mtxel::to_real_space_many`] is
/// held to.
#[cfg(test)]
impl Mtxel {
    /// Transforms band `n` of `wf` to real space (amplitude on the box).
    fn to_real_space(&self, wf: &Wavefunctions, band: usize) -> Vec<Complex64> {
        let mut grid = vec![Complex64::ZERO; self.npts];
        for (g, &pos) in self.wfn_scatter.iter().enumerate() {
            grid[pos] = wf.coeffs[(band, g)];
        }
        self.plan.process(&mut grid, Direction::Inverse);
        // undo the 1/N of the inverse so grid holds sum_G c e^{iGr}
        let s = self.npts as f64;
        for z in grid.iter_mut() {
            *z = z.scale(s);
        }
        self.stats.ffts.fetch_add(1, Ordering::Relaxed);
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_pwdft::{solve_bands, Crystal, Species};

    fn setup() -> (GSphere, GSphere, Wavefunctions) {
        let c = Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0);
        let wfn = GSphere::new(&c.lattice, 2.4);
        let eps = GSphere::new(&c.lattice, 1.2);
        let wf = solve_bands(&c, &wfn, 20);
        (wfn, eps, wf)
    }

    /// `M_mn^G` for a band pair of `wf` through the FFT path.
    fn band_pair(eng: &Mtxel, wf: &Wavefunctions, m: usize, n: usize) -> Vec<Complex64> {
        eng.pair_from_real(&eng.to_real_space(wf, m), &eng.to_real_space(wf, n))
    }

    /// Reference O(N_G^psi * N_G) direct evaluation (correctness oracle).
    fn band_pair_direct(
        wf: &Wavefunctions,
        wfn_sph: &GSphere,
        out_sph: &GSphere,
        m: usize,
        n: usize,
    ) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; out_sph.len()];
        for (gi, slot) in out.iter_mut().enumerate() {
            let gm = out_sph.miller[gi];
            let mut acc = Complex64::ZERO;
            for gp in 0..wfn_sph.len() {
                let mp = wfn_sph.miller[gp];
                // c_m^*(G' + G) c_n(G')
                if let Some(gshift) = wfn_sph.find([mp[0] + gm[0], mp[1] + gm[1], mp[2] + gm[2]]) {
                    acc = acc.conj_mul_add(wf.coeffs[(m, gshift)], wf.coeffs[(n, gp)]);
                }
            }
            *slot = acc;
        }
        out
    }

    #[test]
    fn fft_matches_direct_evaluation() {
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        for (m, n) in [(0usize, 0usize), (0, 5), (3, 7), (10, 2)] {
            let fast = band_pair(&eng, &wf, m, n);
            let slow = band_pair_direct(&wf, &wfn, &eps, m, n);
            let err = fast
                .iter()
                .zip(&slow)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "pair ({m},{n}): err {err}");
        }
    }

    #[test]
    fn diagonal_g0_is_norm() {
        // M_nn^{G=0} = <n|n> = 1.
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        for n in [0usize, 4, 9] {
            let m = band_pair(&eng, &wf, n, n);
            assert!((m[0] - Complex64::ONE).abs() < 1e-9, "band {n}: {}", m[0]);
        }
    }

    #[test]
    fn offdiagonal_g0_is_orthogonality() {
        // M_mn^{G=0} = <m|n> = 0 for m != n.
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let m = band_pair(&eng, &wf, 2, 6);
        assert!(m[0].abs() < 1e-9, "overlap leak {}", m[0]);
    }

    #[test]
    fn hermitian_symmetry() {
        // M_mn^G = conj(M_nm^{-G}).
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let mn = band_pair(&eng, &wf, 1, 4);
        let nm = band_pair(&eng, &wf, 4, 1);
        for (g, &mng) in mn.iter().enumerate().take(eps.len()) {
            let m = eps.miller[g];
            let gm = eps
                .find([-m[0], -m[1], -m[2]])
                .expect("inversion-symmetric sphere");
            assert!(
                (mng - nm[gm].conj()).abs() < 1e-10,
                "g = {g}: {} vs conj {}",
                mng,
                nm[gm]
            );
        }
    }

    #[test]
    fn to_real_space_many_matches_single() {
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let bands = [0usize, 2, 7, 11];
        let grids = eng.to_real_space_many(&wf, &bands);
        for (i, &b) in bands.iter().enumerate() {
            let want = eng.to_real_space(&wf, b);
            assert_eq!(grids[i].as_slice(), want.as_slice(), "band {b}");
        }
    }

    #[test]
    fn alias_free_box_holds_at_max_output_g() {
        // The box rule is n >= 2 m_psi + m_out + 1 per axis; the claim is
        // that reading M at the *largest* output |m| is still alias-free.
        // Check the FFT path against the direct convolution exactly at the
        // output G-vectors of maximal |m| along each axis.
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let fast = band_pair(&eng, &wf, 1, 6);
        let slow = band_pair_direct(&wf, &wfn, &eps, 1, 6);
        for axis in 0..3 {
            let mmax = eps
                .miller
                .iter()
                .map(|m| m[axis].unsigned_abs())
                .max()
                .unwrap();
            for (gi, m) in eps.miller.iter().enumerate() {
                if m[axis].unsigned_abs() == mmax {
                    let err = (fast[gi] - slow[gi]).abs();
                    assert!(err < 1e-10, "axis {axis} boundary G {m:?}: err {err}");
                }
            }
        }
    }

    #[test]
    fn reusing_real_space_amplitudes() {
        // One transform of band 1 serves every pair it enters: the batched
        // kernel's rows equal the one-pair kernel's, and the counters
        // record one FFT per transform plus one per pair.
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let p1 = eng.to_real_space(&wf, 1);
        let others: Vec<Vec<Complex64>> = [4usize, 7]
            .iter()
            .map(|&n| eng.to_real_space(&wf, n))
            .collect();
        let mut rows = vec![Complex64::ZERO; others.len() * eng.n_out()];
        eng.pairs_from_real(&p1, &others, &mut rows, |_, _| {});
        for (n, other) in others.iter().enumerate() {
            let single = eng.pair_from_real(&p1, other);
            assert_eq!(
                &rows[n * eng.n_out()..(n + 1) * eng.n_out()],
                single.as_slice()
            );
        }
        let (ffts, pairs) = eng.stats();
        assert_eq!((ffts, pairs), (3 + 2 + 2, 2 + 2));
    }
}
