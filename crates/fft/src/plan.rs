//! One-dimensional complex FFT plans.
//!
//! Mixed-radix Cooley-Tukey for sizes factoring into {2, 3, 5, 7, 11, 13},
//! with a Bluestein (chirp-z) fallback for any other size, so arbitrary FFT
//! grids are supported. Forward transforms use the physics sign convention
//! `X_k = sum_j x_j e^{-2 pi i j k / n}`; the inverse applies the `1/n`
//! normalization, so `inverse(forward(x)) == x`.
//!
//! The batched kernel ([`FftPlan::process_batch_split`]) operates on
//! **split re/im `f64` planes** with the batch as the fastest-varying
//! dimension: every radix-2/3/4/5 butterfly body is a straight-line
//! real-arithmetic loop over `batch` contiguous lanes — no complex
//! shuffles, no index arithmetic — which the compiler vectorizes across
//! the batch. The bodies are compiled once per instruction set
//! (`#[target_feature]` multiversioning for AVX2+FMA and AVX-512F on
//! x86-64; the portable body *is* the NEON version on aarch64, where
//! Advanced SIMD is baseline) and dispatched at runtime through
//! [`bgw_num::simd`], the same ISA decision the ZGEMM microkernels use.

use bgw_num::simd::Isa;
use bgw_num::{c64, Complex64};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Direction of a transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `e^{-2 pi i j k / n}` with no normalization.
    Forward,
    /// `e^{+2 pi i j k / n}` with `1/n` normalization.
    Inverse,
}

/// Largest radix handled directly by the mixed-radix butterflies.
const MAX_RADIX: usize = 13;

/// Width of a line batch in the batched transforms: the 3-D driver feeds
/// [`FftPlan::process_batch_split`] groups of up to this many lines, laid
/// out plane-wise so each butterfly's twiddle lookup is amortized over the
/// whole group and the inner loops vectorize over contiguous memory.
pub const LINE_BATCH: usize = 16;

/// Returns the process-wide cached plan for length `n`, creating it on
/// first use. Every `Fft3d` of a GW run shares the same handful of 1-D
/// plans this way (MTXEL boxes, Hamiltonian boxes and density grids all
/// draw from the same few smooth sizes), so twiddle and stage tables are
/// built once per length instead of once per engine.
pub fn cached_plan(n: usize) -> Arc<FftPlan> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(n).or_insert_with(|| Arc::new(FftPlan::new(n))))
}

/// A reusable FFT plan for a fixed transform length.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Radix factors of `n`, or empty when Bluestein is used.
    factors: Vec<usize>,
    /// Forward twiddle table: `tw[k] = e^{-2 pi i k / n}` for `k in 0..n`.
    twiddles: Vec<Complex64>,
    /// Per-stage twiddle tables for the batched kernel:
    /// `stage_tw[d][k * r + q] = e^{-2 pi i k q step_d / n}` with
    /// `k in 0..m_d`, precomputed so the hot loops are pure table reads
    /// (the recursive path recomputes the index with a modulo per
    /// butterfly, which dominates its runtime).
    stage_tw: Vec<Vec<Complex64>>,
    /// Per-stage radix-DFT matrices `dft_tw[d][p * r + q] = e^{-2 pi i p q / r_d}`.
    dft_tw: Vec<Vec<Complex64>>,
    /// Chirp-z machinery for lengths with large prime factors.
    bluestein: Option<Box<Bluestein>>,
}

#[derive(Clone, Debug)]
struct Bluestein {
    /// Power-of-two convolution length `m >= 2n - 1`.
    m: usize,
    /// Plan for the internal power-of-two transforms.
    inner: FftPlan,
    /// Chirp `w^{k^2/2}` for `k in 0..n` (forward sign).
    chirp: Vec<Complex64>,
    /// Forward FFT of the zero-padded conjugate chirp.
    chirp_hat: Vec<Complex64>,
}

/// Factorizes `n` into radices `<= MAX_RADIX`, largest first.
/// Returns `None` if a larger prime remains.
fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut factors = Vec::new();
    for r in [13usize, 11, 7, 5, 4, 3, 2] {
        while n.is_multiple_of(r) {
            factors.push(r);
            n /= r;
        }
    }
    if n == 1 {
        Some(factors)
    } else {
        None
    }
}

/// Rounds `n` up to the next 5-smooth size (factors 2, 3, 5 only), the
/// conventional "good" FFT grid dimensions used by plane-wave codes.
pub fn good_size(n: usize) -> usize {
    let mut m = n.max(1);
    loop {
        let mut k = m;
        for r in [2usize, 3, 5] {
            while k.is_multiple_of(r) {
                k /= r;
            }
        }
        if k == 1 {
            return m;
        }
        m += 1;
    }
}

impl FftPlan {
    /// Creates a plan for transforms of length `n >= 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be positive");
        let twiddles = forward_twiddles(n);
        match factorize(n) {
            Some(factors) => {
                let (stage_tw, dft_tw) = stage_tables(n, &factors, &twiddles);
                Self {
                    n,
                    factors,
                    twiddles,
                    stage_tw,
                    dft_tw,
                    bluestein: None,
                }
            }
            None => {
                let m = (2 * n - 1).next_power_of_two();
                let inner = FftPlan::new(m);
                // chirp[k] = e^{-i pi k^2 / n}; computing k^2 mod 2n keeps
                // the argument small and the phase exact.
                let chirp: Vec<Complex64> = (0..n)
                    .map(|k| {
                        let q = (k * k) % (2 * n);
                        Complex64::cis(-std::f64::consts::PI * q as f64 / n as f64)
                    })
                    .collect();
                let mut b = vec![Complex64::ZERO; m];
                b[0] = chirp[0].conj();
                for k in 1..n {
                    b[k] = chirp[k].conj();
                    b[m - k] = chirp[k].conj();
                }
                inner.process(&mut b, Direction::Forward);
                Self {
                    n,
                    factors: Vec::new(),
                    twiddles,
                    stage_tw: Vec::new(),
                    dft_tw: Vec::new(),
                    bluestein: Some(Box::new(Bluestein {
                        m,
                        inner,
                        chirp,
                        chirp_hat: b,
                    })),
                }
            }
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Operation count of one line by the usual `5 n log2 n` convention
    /// (exact for radix 2, the accepted nominal count otherwise).
    pub fn line_flops(&self) -> u64 {
        (5.0 * self.n as f64 * (self.n.max(1) as f64).log2()) as u64
    }

    /// `true` only for the degenerate length-0 case (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transforms `data` (length `n`) in place.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        self.process_with(data, &mut scratch, dir);
    }

    /// Scratch length required by [`FftPlan::process_with`].
    pub fn scratch_len(&self) -> usize {
        match &self.bluestein {
            Some(b) => 2 * b.m + b.inner.scratch_len(),
            None => self.n,
        }
    }

    /// Transforms `data` in place using caller-provided scratch (hot path
    /// for the batched transforms of MTXEL).
    pub fn process_with(&self, data: &mut [Complex64], scratch: &mut [Complex64], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        if self.n == 1 {
            return;
        }
        // Inverse via conjugation: IFFT(x) = conj(FFT(conj(x))) / n.
        if dir == Direction::Inverse {
            for z in data.iter_mut() {
                *z = z.conj();
            }
            self.process_with(data, scratch, Direction::Forward);
            let s = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.conj().scale(s);
            }
            return;
        }
        match &self.bluestein {
            Some(b) => self.bluestein_forward(b, data, scratch),
            None => {
                let (buf, _) = scratch.split_at_mut(self.n);
                self.mixed_radix(data, buf);
            }
        }
    }

    /// Out-of-place recursive mixed-radix driver; result ends in `data`.
    fn mixed_radix(&self, data: &mut [Complex64], buf: &mut [Complex64]) {
        buf.copy_from_slice(data);
        self.rec(buf, data, self.n, 1, 0);
    }

    /// Recursive decimation-in-time step.
    ///
    /// Reads `src` with stride `stride`, writes the length-`n` transform
    /// contiguously into `dst`. `depth` indexes into the factor list.
    fn rec(&self, src: &[Complex64], dst: &mut [Complex64], n: usize, stride: usize, depth: usize) {
        if n == 1 {
            dst[0] = src[0];
            return;
        }
        let r = self.factors[depth];
        let m = n / r;
        // Transform the r interleaved sub-sequences.
        for q in 0..r {
            let sub = &src[q * stride..];
            let (head, _) = dst.split_at_mut((q + 1) * m);
            self.rec(sub, &mut head[q * m..], m, stride * r, depth + 1);
        }
        // Combine with radix-r butterflies. The twiddle e^{-2pi i k q / n}
        // is twiddles[(k*q*step) % N] with step = N/n.
        let step = self.n / n;
        let mut tmp = [Complex64::ZERO; MAX_RADIX];
        for k in 0..m {
            for (q, t) in tmp.iter_mut().enumerate().take(r) {
                let tw = self.twiddles[(k * q * step) % self.n];
                *t = dst[q * m + k] * tw;
            }
            // out[k + p*m] = sum_q tmp[q] * e^{-2 pi i p q / r}
            for p in 0..r {
                let mut acc = tmp[0];
                for (q, &t) in tmp.iter().enumerate().take(r).skip(1) {
                    let tw = self.twiddles[(p * q * m * step) % self.n];
                    acc = acc.mul_add(t, tw);
                }
                dst[p * m + k] = acc;
            }
        }
        // In-place safety: for a fixed k, all reads (positions q*m + k) are
        // gathered into `tmp` before any write (positions p*m + k), and
        // distinct k values touch disjoint positions.
    }

    /// Scratch length (in `f64` elements) required by
    /// [`FftPlan::process_batch_split`]: ping-pong re/im planes for a full
    /// line batch.
    pub fn batch_scratch_split_len(&self) -> usize {
        2 * self.n * LINE_BATCH
    }

    /// Transforms a batch of `batch <= LINE_BATCH` lines held as split
    /// re/im `f64` planes, in place.
    ///
    /// Element `k` of line `b` lives at `re[k * batch + b]` /
    /// `im[k * batch + b]`: the batch is the fastest-varying dimension, so
    /// every butterfly reads and writes `batch` contiguous lanes per plane
    /// with a single twiddle — the SIMD dimension is the batch and the
    /// butterfly bodies contain no shuffles. Radices 2/3/4/5 (everything a
    /// 5-smooth grid produces) use hard-wired butterflies whose DFT
    /// constants (±1, ±i, the exact radix-3/5 cosines) are applied as real
    /// scalings, compiled per ISA and dispatched at runtime (see module
    /// docs); results agree with the scalar kernel to rounding (~1e-13
    /// relative), not bit-for-bit, because the scalar path multiplies by
    /// table entries like `cis(-pi)` that carry ~1e-16 phase error.
    pub fn process_batch_split(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        batch: usize,
        scratch: &mut [f64],
        dir: Direction,
    ) {
        assert!((1..=LINE_BATCH).contains(&batch), "batch out of range");
        assert_eq!(re.len(), self.n * batch, "batch buffer length mismatch");
        assert_eq!(im.len(), self.n * batch, "batch buffer length mismatch");
        assert!(
            scratch.len() >= self.batch_scratch_split_len(),
            "batch scratch too small"
        );
        if self.n == 1 {
            return;
        }
        if dir == Direction::Inverse {
            // Inverse via conjugation on split planes: negate im, forward,
            // then scale and negate im again.
            for v in im.iter_mut() {
                *v = -*v;
            }
            self.process_batch_split(re, im, batch, scratch, Direction::Forward);
            let s = 1.0 / self.n as f64;
            for v in re.iter_mut() {
                *v *= s;
            }
            for v in im.iter_mut() {
                *v *= -s;
            }
            return;
        }
        if self.bluestein.is_some() {
            // Chirp-z lengths go through the scalar kernel line by line;
            // they only appear for pathological grid dimensions.
            bgw_perf::counters::record_fft_mk_call(Isa::Scalar.index());
            let mut line = vec![Complex64::ZERO; self.n];
            let mut inner = vec![Complex64::ZERO; self.scratch_len()];
            for b in 0..batch {
                for k in 0..self.n {
                    line[k] = c64(re[k * batch + b], im[k * batch + b]);
                }
                self.process_with(&mut line, &mut inner, Direction::Forward);
                for (k, z) in line.iter().enumerate() {
                    re[k * batch + b] = z.re;
                    im[k * batch + b] = z.im;
                }
            }
            return;
        }
        let cs = combine_set();
        bgw_perf::counters::record_fft_mk_call(cs.isa.index());
        let (buf_re, rest) = scratch.split_at_mut(self.n * batch);
        let (buf_im, _) = rest.split_at_mut(self.n * batch);
        buf_re[..re.len()].copy_from_slice(re);
        buf_im[..im.len()].copy_from_slice(im);
        self.rec_batch_split(
            &buf_re[..re.len()],
            &buf_im[..im.len()],
            re,
            im,
            self.n,
            1,
            0,
            batch,
            cs,
        );
    }

    /// Batched split-plane analogue of [`FftPlan::rec`]: logical element
    /// `i` of `src` is the `b`-wide block at `src_*[i * stride * b ..]`,
    /// and the transform lands contiguously (blocked by `b`) in `dst_*`.
    /// Twiddles come from the per-stage tables; the combines are the
    /// ISA-dispatched butterfly set.
    #[allow(clippy::too_many_arguments)]
    fn rec_batch_split(
        &self,
        src_re: &[f64],
        src_im: &[f64],
        dst_re: &mut [f64],
        dst_im: &mut [f64],
        n: usize,
        stride: usize,
        depth: usize,
        b: usize,
        cs: &CombineSet,
    ) {
        if n == 1 {
            dst_re[..b].copy_from_slice(&src_re[..b]);
            dst_im[..b].copy_from_slice(&src_im[..b]);
            return;
        }
        let r = self.factors[depth];
        let m = n / r;
        for q in 0..r {
            let sub_re = &src_re[q * stride * b..];
            let sub_im = &src_im[q * stride * b..];
            let (head_re, _) = dst_re.split_at_mut((q + 1) * m * b);
            let (head_im, _) = dst_im.split_at_mut((q + 1) * m * b);
            self.rec_batch_split(
                sub_re,
                sub_im,
                &mut head_re[q * m * b..],
                &mut head_im[q * m * b..],
                m,
                stride * r,
                depth + 1,
                b,
                cs,
            );
        }
        let st = &self.stage_tw[depth];
        // SAFETY: `cs` only holds butterfly versions this host can execute
        // (combine_set derives it from `bgw_num::simd::effective`).
        match r {
            2 => unsafe { (cs.c2)(dst_re, dst_im, st, m, b) },
            3 => unsafe { (cs.c3)(dst_re, dst_im, st, m, b) },
            4 => unsafe { (cs.c4)(dst_re, dst_im, st, m, b) },
            5 => unsafe { (cs.c5)(dst_re, dst_im, st, m, b) },
            _ => combine_generic_split(dst_re, dst_im, st, &self.dft_tw[depth], r, m, b),
        }
    }

    /// Bluestein forward transform.
    fn bluestein_forward(&self, b: &Bluestein, data: &mut [Complex64], scratch: &mut [Complex64]) {
        let n = self.n;
        let m = b.m;
        let (a, rest) = scratch.split_at_mut(m);
        let (inner_scratch, _) = rest.split_at_mut(b.inner.scratch_len());
        // a = x * chirp, zero-padded to m.
        for k in 0..n {
            a[k] = data[k] * b.chirp[k];
        }
        for z in a.iter_mut().skip(n) {
            *z = Complex64::ZERO;
        }
        b.inner.process_with(a, inner_scratch, Direction::Forward);
        for (ak, ck) in a.iter_mut().zip(&b.chirp_hat) {
            *ak *= *ck;
        }
        b.inner.process_with(a, inner_scratch, Direction::Inverse);
        for k in 0..n {
            data[k] = a[k] * b.chirp[k];
        }
    }
}

// ---------------------------------------------------------------------------
// Split-plane butterfly bodies.
//
// Each body is `#[inline(always)]` straight-line real arithmetic over the
// batch dimension; the `#[target_feature]` wrappers below re-compile the
// same body per ISA so the autovectorizer emits 256-/512-bit lanes. On
// aarch64 the plain body is already the NEON version (Advanced SIMD is the
// baseline target). The per-radix DFT constants (±1, ±i, the exact
// radix-3/5 cosines) appear as real scalings, so the loop bodies contain
// no complex shuffles — the batch is the SIMD dimension.
// ---------------------------------------------------------------------------

/// Radix-2 combine: `X0 = a0 + tw a1`, `X1 = a0 - tw a1`.
#[inline(always)]
fn combine2_body(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    assert!(re.len() >= 2 * m * b && im.len() >= 2 * m * b && st.len() >= 2 * m);
    for k in 0..m {
        let tw = st[k * 2 + 1];
        let (i0, i1) = (k * b, (m + k) * b);
        for j in 0..b {
            let xr = re[i1 + j];
            let xi = im[i1 + j];
            let tr = xr * tw.re - xi * tw.im;
            let ti = xr * tw.im + xi * tw.re;
            let ar = re[i0 + j];
            let ai = im[i0 + j];
            re[i0 + j] = ar + tr;
            im[i0 + j] = ai + ti;
            re[i1 + j] = ar - tr;
            im[i1 + j] = ai - ti;
        }
    }
}

/// Radix-3 combine with the exact `w = e^{-2 pi i / 3}` constants:
/// `X1 = a0 - s/2 + i Im(w) d`, `X2 = a0 - s/2 - i Im(w) d` with
/// `s = a1 + a2`, `d = a1 - a2` (inputs already twiddled).
#[inline(always)]
fn combine3_body(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    const B3: f64 = -0.866_025_403_784_438_6; // Im(e^{-2 pi i / 3}) = -sqrt(3)/2
    assert!(re.len() >= 3 * m * b && im.len() >= 3 * m * b && st.len() >= 3 * m);
    for k in 0..m {
        let tw1 = st[k * 3 + 1];
        let tw2 = st[k * 3 + 2];
        let (i0, i1, i2) = (k * b, (m + k) * b, (2 * m + k) * b);
        for j in 0..b {
            let a0r = re[i0 + j];
            let a0i = im[i0 + j];
            let (x1r, x1i) = (re[i1 + j], im[i1 + j]);
            let a1r = x1r * tw1.re - x1i * tw1.im;
            let a1i = x1r * tw1.im + x1i * tw1.re;
            let (x2r, x2i) = (re[i2 + j], im[i2 + j]);
            let a2r = x2r * tw2.re - x2i * tw2.im;
            let a2i = x2r * tw2.im + x2i * tw2.re;
            let sr = a1r + a2r;
            let si = a1i + a2i;
            let dr = a1r - a2r;
            let di = a1i - a2i;
            let er = a0r - 0.5 * sr;
            let ei = a0i - 0.5 * si;
            let fr = -B3 * di; // f = i B3 d
            let fi = B3 * dr;
            re[i0 + j] = a0r + sr;
            im[i0 + j] = a0i + si;
            re[i1 + j] = er + fr;
            im[i1 + j] = ei + fi;
            re[i2 + j] = er - fr;
            im[i2 + j] = ei - fi;
        }
    }
}

/// Radix-4 combine: the DFT matrix entries are `{1, -i, -1, i}`, so the
/// whole butterfly is additions plus one quarter-turn (`-i z` is a re/im
/// swap with one negation — a pure plane exchange in split layout).
#[inline(always)]
fn combine4_body(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    assert!(re.len() >= 4 * m * b && im.len() >= 4 * m * b && st.len() >= 4 * m);
    for k in 0..m {
        let tw1 = st[k * 4 + 1];
        let tw2 = st[k * 4 + 2];
        let tw3 = st[k * 4 + 3];
        let (i0, i1, i2, i3) = (k * b, (m + k) * b, (2 * m + k) * b, (3 * m + k) * b);
        for j in 0..b {
            let a0r = re[i0 + j];
            let a0i = im[i0 + j];
            let (x1r, x1i) = (re[i1 + j], im[i1 + j]);
            let a1r = x1r * tw1.re - x1i * tw1.im;
            let a1i = x1r * tw1.im + x1i * tw1.re;
            let (x2r, x2i) = (re[i2 + j], im[i2 + j]);
            let a2r = x2r * tw2.re - x2i * tw2.im;
            let a2i = x2r * tw2.im + x2i * tw2.re;
            let (x3r, x3i) = (re[i3 + j], im[i3 + j]);
            let a3r = x3r * tw3.re - x3i * tw3.im;
            let a3i = x3r * tw3.im + x3i * tw3.re;
            let s02r = a0r + a2r;
            let s02i = a0i + a2i;
            let d02r = a0r - a2r;
            let d02i = a0i - a2i;
            let s13r = a1r + a3r;
            let s13i = a1i + a3i;
            // -i (a1 - a3): quarter turn in split planes.
            let jdr = a1i - a3i;
            let jdi = -(a1r - a3r);
            re[i0 + j] = s02r + s13r;
            im[i0 + j] = s02i + s13i;
            re[i1 + j] = d02r + jdr;
            im[i1 + j] = d02i + jdi;
            re[i2 + j] = s02r - s13r;
            im[i2 + j] = s02i - s13i;
            re[i3 + j] = d02r - jdr;
            im[i3 + j] = d02i - jdi;
        }
    }
}

/// Radix-5 combine via the standard two-fold symmetry split: with
/// `t1 = a1 + a4`, `t2 = a2 + a3`, `t3 = a1 - a4`, `t4 = a2 - a3`,
/// `X{1,4} = a0 + c1 t1 + c2 t2 -/+ i (s1 t3 + s2 t4)` and
/// `X{2,3} = a0 + c2 t1 + c1 t2 -/+ i (s2 t3 - s1 t4)`.
#[inline(always)]
fn combine5_body(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    const C1: f64 = 0.309_016_994_374_947_45; // cos(2 pi / 5)
    const S1: f64 = 0.951_056_516_295_153_5; // sin(2 pi / 5)
    const C2: f64 = -0.809_016_994_374_947_4; // cos(4 pi / 5)
    const S2: f64 = 0.587_785_252_292_473_1; // sin(4 pi / 5)
    assert!(re.len() >= 5 * m * b && im.len() >= 5 * m * b && st.len() >= 5 * m);
    for k in 0..m {
        let tw1 = st[k * 5 + 1];
        let tw2 = st[k * 5 + 2];
        let tw3 = st[k * 5 + 3];
        let tw4 = st[k * 5 + 4];
        let (i0, i1, i2, i3, i4) = (
            k * b,
            (m + k) * b,
            (2 * m + k) * b,
            (3 * m + k) * b,
            (4 * m + k) * b,
        );
        for j in 0..b {
            let a0r = re[i0 + j];
            let a0i = im[i0 + j];
            let (x1r, x1i) = (re[i1 + j], im[i1 + j]);
            let a1r = x1r * tw1.re - x1i * tw1.im;
            let a1i = x1r * tw1.im + x1i * tw1.re;
            let (x2r, x2i) = (re[i2 + j], im[i2 + j]);
            let a2r = x2r * tw2.re - x2i * tw2.im;
            let a2i = x2r * tw2.im + x2i * tw2.re;
            let (x3r, x3i) = (re[i3 + j], im[i3 + j]);
            let a3r = x3r * tw3.re - x3i * tw3.im;
            let a3i = x3r * tw3.im + x3i * tw3.re;
            let (x4r, x4i) = (re[i4 + j], im[i4 + j]);
            let a4r = x4r * tw4.re - x4i * tw4.im;
            let a4i = x4r * tw4.im + x4i * tw4.re;
            let t1r = a1r + a4r;
            let t1i = a1i + a4i;
            let t2r = a2r + a3r;
            let t2i = a2i + a3i;
            let t3r = a1r - a4r;
            let t3i = a1i - a4i;
            let t4r = a2r - a3r;
            let t4i = a2i - a3i;
            let e1r = a0r + C1 * t1r + C2 * t2r;
            let e1i = a0i + C1 * t1i + C2 * t2i;
            let e2r = a0r + C2 * t1r + C1 * t2r;
            let e2i = a0i + C2 * t1i + C1 * t2i;
            // f1 = -i (S1 t3 + S2 t4), f2 = -i (S2 t3 - S1 t4).
            let f1r = S1 * t3i + S2 * t4i;
            let f1i = -(S1 * t3r + S2 * t4r);
            let f2r = S2 * t3i - S1 * t4i;
            let f2i = -(S2 * t3r - S1 * t4r);
            re[i0 + j] = a0r + t1r + t2r;
            im[i0 + j] = a0i + t1i + t2i;
            re[i1 + j] = e1r + f1r;
            im[i1 + j] = e1i + f1i;
            re[i4 + j] = e1r - f1r;
            im[i4 + j] = e1i - f1i;
            re[i2 + j] = e2r + f2r;
            im[i2 + j] = e2i + f2i;
            re[i3 + j] = e2r - f2r;
            im[i3 + j] = e2i - f2i;
        }
    }
}

/// Generic radix-`r` combine via the precomputed DFT matrix; only the
/// large prime radices (7, 11, 13) land here, so it stays scalar-bodied
/// on every ISA.
fn combine_generic_split(
    re: &mut [f64],
    im: &mut [f64],
    st: &[Complex64],
    dt: &[Complex64],
    r: usize,
    m: usize,
    b: usize,
) {
    let mut tmp_re = [0.0f64; MAX_RADIX * LINE_BATCH];
    let mut tmp_im = [0.0f64; MAX_RADIX * LINE_BATCH];
    let mut acc_re = [0.0f64; LINE_BATCH];
    let mut acc_im = [0.0f64; LINE_BATCH];
    for k in 0..m {
        tmp_re[..b].copy_from_slice(&re[k * b..k * b + b]); // q = 0: tw = 1
        tmp_im[..b].copy_from_slice(&im[k * b..k * b + b]);
        for q in 1..r {
            let tw = st[k * r + q];
            let at = (q * m + k) * b;
            for j in 0..b {
                let xr = re[at + j];
                let xi = im[at + j];
                tmp_re[q * b + j] = xr * tw.re - xi * tw.im;
                tmp_im[q * b + j] = xr * tw.im + xi * tw.re;
            }
        }
        for p in 0..r {
            acc_re[..b].copy_from_slice(&tmp_re[..b]);
            acc_im[..b].copy_from_slice(&tmp_im[..b]);
            for q in 1..r {
                let tw = dt[p * r + q];
                for j in 0..b {
                    let tr = tmp_re[q * b + j];
                    let ti = tmp_im[q * b + j];
                    acc_re[j] += tr * tw.re - ti * tw.im;
                    acc_im[j] += tr * tw.im + ti * tw.re;
                }
            }
            let at = (p * m + k) * b;
            re[at..at + b].copy_from_slice(&acc_re[..b]);
            im[at..at + b].copy_from_slice(&acc_im[..b]);
        }
    }
}

/// Signature shared by every butterfly version. The `unsafe` is the
/// `#[target_feature]` contract: a pointer must only be called on a host
/// that executes its ISA (the scalar versions are safe functions coerced
/// to this type).
type CombineFn = unsafe fn(&mut [f64], &mut [f64], &[Complex64], usize, usize);

/// One runtime-selected butterfly set: the radix-2/3/4/5 combine versions
/// compiled for a single ISA.
struct CombineSet {
    isa: Isa,
    c2: CombineFn,
    c3: CombineFn,
    c4: CombineFn,
    c5: CombineFn,
}

// Safe scalar versions (also the NEON versions on aarch64, where the
// baseline target already emits Advanced SIMD for the plain bodies).
fn combine2_scalar(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    combine2_body(re, im, st, m, b)
}
fn combine3_scalar(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    combine3_body(re, im, st, m, b)
}
fn combine4_scalar(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    combine4_body(re, im, st, m, b)
}
fn combine5_scalar(re: &mut [f64], im: &mut [f64], st: &[Complex64], m: usize, b: usize) {
    combine5_body(re, im, st, m, b)
}

#[cfg(target_arch = "x86_64")]
mod mv {
    //! `#[target_feature]` multiversions of the butterfly bodies. Each
    //! wrapper inlines the shared body under a wider feature set, so the
    //! autovectorizer emits 256-bit (AVX2+FMA) or 512-bit (AVX-512F)
    //! lanes across the batch dimension.
    //!
    //! # Safety
    //! Callers must guarantee the host supports the named feature set;
    //! the dispatch table is built from `bgw_num::simd::effective`, which
    //! never names an ISA the machine cannot execute.
    #![allow(missing_docs)]

    use super::*;

    macro_rules! multiversion {
        ($name:ident, $body:ident, $feat:literal) => {
            #[target_feature(enable = $feat)]
            pub unsafe fn $name(
                re: &mut [f64],
                im: &mut [f64],
                st: &[Complex64],
                m: usize,
                b: usize,
            ) {
                $body(re, im, st, m, b)
            }
        };
    }

    multiversion!(c2_avx2, combine2_body, "avx2,fma");
    multiversion!(c3_avx2, combine3_body, "avx2,fma");
    multiversion!(c4_avx2, combine4_body, "avx2,fma");
    multiversion!(c5_avx2, combine5_body, "avx2,fma");
    multiversion!(c2_avx512, combine2_body, "avx512f");
    multiversion!(c3_avx512, combine3_body, "avx512f");
    multiversion!(c4_avx512, combine4_body, "avx512f");
    multiversion!(c5_avx512, combine5_body, "avx512f");
}

static SCALAR_SET: CombineSet = CombineSet {
    isa: Isa::Scalar,
    c2: combine2_scalar as CombineFn,
    c3: combine3_scalar as CombineFn,
    c4: combine4_scalar as CombineFn,
    c5: combine5_scalar as CombineFn,
};

#[cfg(target_arch = "aarch64")]
static NEON_SET: CombineSet = CombineSet {
    isa: Isa::Neon,
    c2: combine2_scalar as CombineFn,
    c3: combine3_scalar as CombineFn,
    c4: combine4_scalar as CombineFn,
    c5: combine5_scalar as CombineFn,
};

#[cfg(target_arch = "x86_64")]
static AVX2_SET: CombineSet = CombineSet {
    isa: Isa::Avx2,
    c2: mv::c2_avx2,
    c3: mv::c3_avx2,
    c4: mv::c4_avx2,
    c5: mv::c5_avx2,
};

#[cfg(target_arch = "x86_64")]
static AVX512_SET: CombineSet = CombineSet {
    isa: Isa::Avx512,
    c2: mv::c2_avx512,
    c3: mv::c3_avx512,
    c4: mv::c4_avx512,
    c5: mv::c5_avx512,
};

/// The butterfly set for the current effective ISA (forced override or
/// runtime detection; see `bgw_num::simd`). Every set returned here is
/// executable on this host — that is the safety contract the `unsafe`
/// combine calls rely on.
fn combine_set() -> &'static CombineSet {
    match bgw_num::simd::effective() {
        Isa::Scalar => &SCALAR_SET,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => &NEON_SET,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &AVX2_SET,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &AVX512_SET,
        #[allow(unreachable_patterns)]
        _ => &SCALAR_SET,
    }
}

/// Builds the forward twiddle table `e^{-2 pi i k / n}`.
fn forward_twiddles(n: usize) -> Vec<Complex64> {
    let w = -2.0 * std::f64::consts::PI / n as f64;
    (0..n).map(|k| Complex64::cis(w * k as f64)).collect()
}

/// Precomputes, for every recursion depth of the mixed-radix kernel, the
/// butterfly twiddles `stage_tw[d][k*r+q] = twiddles[(k*q*step_d) % n]`
/// and the radix-DFT matrix `dft_tw[d][p*r+q] = twiddles[(p*q*m_d*step_d) % n]`
/// (the latter only consumed by the generic large-prime combine; radices
/// 2/3/4/5 hard-wire their DFT constants). Entries are copied out of the
/// shared `twiddles` table, so the batched kernel reads the same twiddle
/// values as the recursive one without the per-butterfly
/// multiply-and-modulo index computation.
fn stage_tables(
    n: usize,
    factors: &[usize],
    twiddles: &[Complex64],
) -> (Vec<Vec<Complex64>>, Vec<Vec<Complex64>>) {
    let mut stage_tw = Vec::with_capacity(factors.len());
    let mut dft_tw = Vec::with_capacity(factors.len());
    let mut nd = n;
    for &r in factors {
        let m = nd / r;
        let step = n / nd;
        let mut st = Vec::with_capacity(m * r);
        for k in 0..m {
            for q in 0..r {
                st.push(twiddles[(k * q * step) % n]);
            }
        }
        let mut dt = Vec::with_capacity(r * r);
        for p in 0..r {
            for q in 0..r {
                dt.push(twiddles[(p * q * m * step) % n]);
            }
        }
        stage_tw.push(st);
        dft_tw.push(dt);
        nd = m;
    }
    (stage_tw, dft_tw)
}

/// Reference O(n^2) DFT used by tests and as a correctness oracle.
pub fn dft_reference(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = x.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let norm = match dir {
        Direction::Forward => 1.0,
        Direction::Inverse => 1.0 / n as f64,
    };
    (0..n)
        .map(|k| {
            let mut acc = c64(0.0, 0.0);
            for (j, &xj) in x.iter().enumerate() {
                let ph = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
                acc += xj * Complex64::cis(ph);
            }
            acc.scale(norm)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_num::c64;
    use bgw_perf::counters::CounterSnapshot;

    /// Butterfly passes by combine-set ISA index (0 scalar, 1 neon,
    /// 2 avx2, 3 avx512).
    fn fft_mk_calls(s: &CounterSnapshot) -> [u64; 4] {
        [
            s.fft_mk_calls_scalar,
            s.fft_mk_calls_neon,
            s.fft_mk_calls_avx2,
            s.fft_mk_calls_avx512,
        ]
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Small deterministic LCG; avoids pulling rand into the hot crate.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| c64(next(), next())).collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn factorize_smooth_and_prime() {
        assert_eq!(factorize(1), Some(vec![]));
        assert_eq!(factorize(8), Some(vec![4, 2]));
        assert!(factorize(360).is_some());
        assert!(factorize(97).is_none()); // prime > 13
        assert_eq!(factorize(13), Some(vec![13]));
    }

    #[test]
    fn good_size_is_5_smooth_and_geq() {
        for n in [1usize, 7, 17, 97, 101, 640, 1009] {
            let g = good_size(n);
            assert!(g >= n);
            let mut k = g;
            for r in [2, 3, 5] {
                while k.is_multiple_of(r) {
                    k /= r;
                }
            }
            assert_eq!(k, 1, "good_size({n}) = {g} not 5-smooth");
        }
    }

    #[test]
    fn matches_reference_dft_smooth_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 8, 12, 15, 16, 20, 36, 60, 64, 100] {
            let x = rand_signal(n, n as u64);
            let plan = FftPlan::new(n);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            let r = dft_reference(&x, Direction::Forward);
            assert!(max_err(&y, &r) < 1e-10 * (n as f64), "n = {n}");
        }
    }

    #[test]
    fn matches_reference_dft_bluestein_sizes() {
        for n in [17usize, 19, 23, 29, 31, 97, 101, 127] {
            let x = rand_signal(n, n as u64 + 7);
            let plan = FftPlan::new(n);
            assert!(plan.bluestein.is_some(), "n = {n} should use Bluestein");
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            let r = dft_reference(&x, Direction::Forward);
            assert!(
                max_err(&y, &r) < 1e-9 * (n as f64),
                "n = {n}: {}",
                max_err(&y, &r)
            );
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [4usize, 30, 97, 125, 128, 210] {
            let x = rand_signal(n, 3 * n as u64 + 1);
            let plan = FftPlan::new(n);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            plan.process(&mut y, Direction::Inverse);
            assert!(max_err(&y, &x) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 180;
        let x = rand_signal(n, 42);
        let plan = FftPlan::new(n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-10 * ex);
    }

    #[test]
    fn linearity() {
        let n = 48;
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let alpha = c64(0.3, -1.2);
        let plan = FftPlan::new(n);
        let mut lhs: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x * alpha + *y).collect();
        plan.process(&mut lhs, Direction::Forward);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.process(&mut fa, Direction::Forward);
        plan.process(&mut fb, Direction::Forward);
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * alpha + *y).collect();
        assert!(max_err(&lhs, &rhs) < 1e-10);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 64;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        FftPlan::new(n).process(&mut x, Direction::Forward);
        for z in &x {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn plane_wave_transforms_to_delta() {
        let n = 60;
        let k0 = 7usize;
        let mut x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        FftPlan::new(n).process(&mut x, Direction::Forward);
        for (k, z) in x.iter().enumerate() {
            let expect = if k == k0 { n as f64 } else { 0.0 };
            assert!((z.re - expect).abs() < 1e-9 && z.im.abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn process_with_reusable_scratch() {
        let n = 90;
        let plan = FftPlan::new(n);
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        let x = rand_signal(n, 5);
        let mut y1 = x.clone();
        let mut y2 = x.clone();
        plan.process(&mut y1, Direction::Forward);
        plan.process_with(&mut y2, &mut scratch, Direction::Forward);
        assert!(max_err(&y1, &y2) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn length_mismatch_panics() {
        let plan = FftPlan::new(8);
        let mut x = vec![Complex64::ZERO; 7];
        plan.process(&mut x, Direction::Forward);
    }

    #[test]
    fn split_batch_matches_scalar_and_advances_isa_counter() {
        // Degenerate lengths, radix-2/3/4/5 mixes, a large-prime radix
        // (13) and Bluestein lengths (17, 31); full and ragged batches,
        // both directions, checked per line against the scalar kernel.
        // The hard-wired radix-2/3/4/5 butterflies use exact DFT constants
        // where the scalar kernel multiplies by table entries with ~1e-16
        // phase error, so the two agree to rounding, not bit-for-bit. Also
        // pins the per-ISA FFT telemetry: the butterfly set that ran must
        // be the effective ISA's.
        let effective = bgw_num::simd::effective();
        let before = fft_mk_calls(&bgw_perf::counters::snapshot());
        for n in [1usize, 2, 8, 12, 15, 17, 26, 31, 45, 60, 64, 90, 100] {
            for batch in [1usize, 3, 5, LINE_BATCH] {
                for dir in [Direction::Forward, Direction::Inverse] {
                    let plan = FftPlan::new(n);
                    let lines: Vec<Vec<Complex64>> = (0..batch)
                        .map(|b| rand_signal(n, (29 * n + b) as u64))
                        .collect();
                    let mut re = vec![0.0f64; n * batch];
                    let mut im = vec![0.0f64; n * batch];
                    for (b, line) in lines.iter().enumerate() {
                        for (k, &z) in line.iter().enumerate() {
                            re[k * batch + b] = z.re;
                            im[k * batch + b] = z.im;
                        }
                    }
                    let mut scratch = vec![0.0f64; plan.batch_scratch_split_len()];
                    plan.process_batch_split(&mut re, &mut im, batch, &mut scratch, dir);
                    for (b, line) in lines.iter().enumerate() {
                        let mut want = line.clone();
                        plan.process(&mut want, dir);
                        for (k, w) in want.iter().enumerate() {
                            let got = c64(re[k * batch + b], im[k * batch + b]);
                            assert!(
                                (got - *w).abs() <= 1e-12 * (n as f64).max(1.0),
                                "n={n} batch={batch} dir={dir:?} b={b} k={k}: {got:?} vs {w:?}"
                            );
                        }
                    }
                }
            }
        }
        let after = fft_mk_calls(&bgw_perf::counters::snapshot());
        assert!(
            after[effective.index()] > before[effective.index()],
            "effective-ISA butterfly lane must advance"
        );
    }

    #[test]
    fn cached_plan_is_shared() {
        let a = cached_plan(48);
        let b = cached_plan(48);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 48);
    }
}
