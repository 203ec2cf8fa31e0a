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
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes of one real-space grid of `npts` complex amplitudes.
fn grid_bytes(npts: usize) -> usize {
    npts * std::mem::size_of::<Complex64>()
}

/// Caller-owned LRU cache of real-space band amplitudes with a byte
/// budget.
///
/// The MTXEL pair kernel transforms *two* bands per pair; every consumer
/// loop (`chi` panels, the Sigma bare-exchange sum, GWPT's `l`-loop, BSE
/// kernels) iterates an outer band against many inner bands, so caching
/// the inner transforms turns `O(n_outer * n_inner)` inverse FFTs into
/// `O(n_inner)`. The cache is owned by the *caller*, not the engine: the
/// same [`Mtxel`] is routinely used with several `Wavefunctions` objects
/// (e.g. GWPT's displaced crystals), and a band index alone would alias
/// between them. Entries are `Arc`s, so a hit is a pointer clone and
/// eviction never invalidates grids still in use.
pub struct BandCache {
    budget: usize,
    inner: Mutex<CacheInner>,
}

struct CacheInner {
    map: HashMap<usize, (Arc<Vec<Complex64>>, u64)>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl BandCache {
    /// Creates a cache that holds at most `budget_bytes` of grids (at
    /// least one grid is always retained, so a tiny budget degrades to
    /// per-call memoization of the most recent band, never to a panic).
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            budget: budget_bytes,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Sizing rule used by the GW kernels: room for `max_grids` grids of
    /// `npts` points each.
    pub fn for_grids(npts: usize, max_grids: usize) -> Self {
        Self::with_budget(grid_bytes(npts) * max_grids.max(1))
    }

    /// Returns the cached grid for `key`, computing it with `make` on a
    /// miss. Oldest-used entries are evicted once the budget overflows.
    pub fn get_or(&self, key: usize, make: impl FnOnce() -> Vec<Complex64>) -> Arc<Vec<Complex64>> {
        {
            let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            st.tick += 1;
            let tick = st.tick;
            if let Some(entry) = st.map.get_mut(&key) {
                entry.1 = tick;
                let grid = Arc::clone(&entry.0);
                st.hits += 1;
                return grid;
            }
        }
        // Compute outside the lock: transforms are expensive and other
        // bands' lookups should not serialize behind this one.
        let grid = Arc::new(make());
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        st.misses += 1;
        st.tick += 1;
        let tick = st.tick;
        let added = grid_bytes(grid.len());
        if let Some(prev) = st.map.insert(key, (Arc::clone(&grid), tick)) {
            st.bytes -= grid_bytes(prev.0.len());
        }
        st.bytes += added;
        while st.bytes > self.budget && st.map.len() > 1 {
            let oldest = st
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| *k);
            match oldest {
                Some(k) => {
                    if let Some((g, _)) = st.map.remove(&k) {
                        st.bytes -= grid_bytes(g.len());
                    }
                }
                None => break,
            }
        }
        grid
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (st.hits, st.misses)
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }

    /// Drops every entry (the `Arc`s keep outstanding grids alive).
    pub fn clear(&self) {
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        st.map.clear();
        st.bytes = 0;
    }
}

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

    /// Transforms band `n` of `wf` to real space (amplitude on the box).
    pub fn to_real_space(&self, wf: &Wavefunctions, band: usize) -> Vec<Complex64> {
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

    /// Transforms an arbitrary coefficient vector on the wavefunction
    /// sphere to real space (used by GWPT for the first-order states).
    pub fn vector_to_real_space(&self, coeffs: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(coeffs.len(), self.wfn_scatter.len());
        let mut grid = vec![Complex64::ZERO; self.npts];
        for (g, &pos) in self.wfn_scatter.iter().enumerate() {
            grid[pos] = coeffs[g];
        }
        self.plan.process(&mut grid, Direction::Inverse);
        let s = self.npts as f64;
        for z in grid.iter_mut() {
            *z = z.scale(s);
        }
        self.stats.ffts.fetch_add(1, Ordering::Relaxed);
        grid
    }

    /// [`Mtxel::to_real_space`] through a caller-owned [`BandCache`]
    /// keyed by band index. The cache must be used with a single
    /// `Wavefunctions` object (band indices alias across different ones).
    pub fn to_real_space_cached(
        &self,
        cache: &BandCache,
        wf: &Wavefunctions,
        band: usize,
    ) -> Arc<Vec<Complex64>> {
        cache.get_or(band, || self.to_real_space(wf, band))
    }

    /// [`Mtxel::vector_to_real_space`] through a caller-owned cache under
    /// a caller-chosen `key` (GWPT keys first-order states by row index).
    pub fn vector_to_real_space_cached(
        &self,
        cache: &BandCache,
        key: usize,
        coeffs: &[Complex64],
    ) -> Arc<Vec<Complex64>> {
        cache.get_or(key, || self.vector_to_real_space(coeffs))
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

    /// Batched [`Mtxel::vector_to_real_space`] over several coefficient
    /// vectors (GWPT transforms every first-order state once this way).
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

    /// Convenience: `M_mn^G` for a band pair of `wf`.
    pub fn band_pair(&self, wf: &Wavefunctions, m: usize, n: usize) -> Vec<Complex64> {
        let pm = self.to_real_space(wf, m);
        let pn = self.to_real_space(wf, n);
        self.pair_from_real(&pm, &pn)
    }

    /// Reference O(N_G^psi * N_G) direct evaluation (correctness oracle).
    pub fn band_pair_direct(
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

    #[test]
    fn fft_matches_direct_evaluation() {
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        for (m, n) in [(0usize, 0usize), (0, 5), (3, 7), (10, 2)] {
            let fast = eng.band_pair(&wf, m, n);
            let slow = Mtxel::band_pair_direct(&wf, &wfn, &eps, m, n);
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
            let m = eng.band_pair(&wf, n, n);
            assert!((m[0] - Complex64::ONE).abs() < 1e-9, "band {n}: {}", m[0]);
        }
    }

    #[test]
    fn offdiagonal_g0_is_orthogonality() {
        // M_mn^{G=0} = <m|n> = 0 for m != n.
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let m = eng.band_pair(&wf, 2, 6);
        assert!(m[0].abs() < 1e-9, "overlap leak {}", m[0]);
    }

    #[test]
    fn hermitian_symmetry() {
        // M_mn^G = conj(M_nm^{-G}).
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let mn = eng.band_pair(&wf, 1, 4);
        let nm = eng.band_pair(&wf, 4, 1);
        for (g, &mng) in mn.iter().enumerate().take(eps.len()) {
            let gm = eps.minus(g);
            assert!(
                (mng - nm[gm].conj()).abs() < 1e-10,
                "g = {g}: {} vs conj {}",
                mng,
                nm[gm]
            );
        }
    }

    #[test]
    fn band_cache_hits_reuse_and_budget_evicts() {
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let npts = eng.to_real_space(&wf, 0).len();
        let cache = BandCache::for_grids(npts, 2);
        // First touch of each band misses; repeats hit and return the
        // exact same allocation.
        let a = eng.to_real_space_cached(&cache, &wf, 3);
        let b = eng.to_real_space_cached(&cache, &wf, 3);
        assert!(Arc::ptr_eq(&a, &b));
        let direct = eng.to_real_space(&wf, 3);
        assert_eq!(a.as_slice(), direct.as_slice());
        let (h, m) = cache.stats();
        assert_eq!((h, m), (1, 1));
        // Budget of 2 grids: touching a third band must evict the oldest.
        eng.to_real_space_cached(&cache, &wf, 4);
        eng.to_real_space_cached(&cache, &wf, 5);
        assert!(cache.bytes() <= npts * std::mem::size_of::<Complex64>() * 2);
        // Band 3 was evicted: next touch is a miss but still correct.
        let a2 = eng.to_real_space_cached(&cache, &wf, 3);
        assert_eq!(a2.as_slice(), direct.as_slice());
        let (_, m2) = cache.stats();
        assert!(m2 >= 4);
        cache.clear();
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn tiny_budget_degrades_to_most_recent_band() {
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let cache = BandCache::with_budget(1); // below one grid
        let a = eng.to_real_space_cached(&cache, &wf, 0);
        let b = eng.to_real_space_cached(&cache, &wf, 0);
        assert!(Arc::ptr_eq(&a, &b), "most recent band must stay cached");
        assert_eq!(a.as_slice(), eng.to_real_space(&wf, 0).as_slice());
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
        let fast = eng.band_pair(&wf, 1, 6);
        let slow = Mtxel::band_pair_direct(&wf, &wfn, &eps, 1, 6);
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
        let (wfn, eps, wf) = setup();
        let eng = Mtxel::new(&wfn, &eps);
        let p1 = eng.to_real_space(&wf, 1);
        let p4 = eng.to_real_space(&wf, 4);
        let via_cache = eng.pair_from_real(&p1, &p4);
        let direct = eng.band_pair(&wf, 1, 4);
        let err = via_cache
            .iter()
            .zip(&direct)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-13);
        let (ffts, pairs) = eng.stats();
        assert!(ffts >= 5 && pairs >= 2);
    }
}
