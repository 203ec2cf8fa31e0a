//! One-dimensional complex FFT plans.
//!
//! Mixed-radix Cooley-Tukey over radices 2, 3, 4 and 5: every length is
//! 5-smooth, because every grid the program builds is sized by
//! [`good_size`]. Forward transforms use the physics sign convention
//! `X_k = sum_j x_j e^{-2 pi i j k / n}`; the inverse applies the `1/n`
//! normalization, so `inverse(forward(x)) == x`.
//!
//! The one kernel ([`FftPlan::process_batch_split`]) operates on
//! **split re/im `f64` planes** with the batch as the fastest-varying
//! dimension: every radix-2/3/4/5 butterfly body is a straight-line
//! real-arithmetic loop over `batch` contiguous lanes — no complex
//! shuffles, no index arithmetic — which the compiler vectorizes across
//! the batch. The bodies are compiled once per instruction set
//! (`#[target_feature]` multiversioning for AVX2+FMA and AVX-512F on
//! x86-64; the portable body *is* the NEON version on aarch64, where
//! Advanced SIMD is baseline) and dispatched at runtime through
//! [`bgw_num::simd`], the same ISA decision the ZGEMM microkernels use.
//! Each version runs the same IEEE operations in the same order (no
//! `mul_add`), so every ISA returns the scalar bits.

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

/// A reusable FFT plan for a fixed 5-smooth transform length.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Radix factors of `n`, largest first.
    factors: Vec<usize>,
    /// Per-stage twiddle tables:
    /// `stage_tw[d][k * r + q] = e^{-2 pi i k q step_d / n}` with
    /// `k in 0..m_d`, precomputed so the hot loops are pure table reads.
    stage_tw: Vec<Vec<Complex64>>,
}

/// Factorizes `n` into radices 5, 4, 3, 2, largest first. Returns `None`
/// if `n` is not 5-smooth.
fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut factors = Vec::new();
    for r in [5usize, 4, 3, 2] {
        while n.is_multiple_of(r) {
            factors.push(r);
            n /= r;
        }
    }
    (n == 1).then_some(factors)
}

/// Rounds `n` up to the next 5-smooth size (factors 2, 3, 5 only), the
/// conventional "good" FFT grid dimensions used by plane-wave codes.
pub fn good_size(n: usize) -> usize {
    (n.max(1)..)
        .find(|&m| factorize(m).is_some())
        .expect("5-smooth numbers are unbounded")
}

impl FftPlan {
    /// Creates a plan for transforms of length `n >= 1`.
    ///
    /// # Panics
    /// If `n` has a prime factor above 5: size the grid with [`good_size`].
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be positive");
        let factors = factorize(n).unwrap_or_else(|| {
            panic!("FFT length {n} is not 5-smooth; size the grid with good_size")
        });
        let stage_tw = stage_tables(n, &factors);
        Self {
            n,
            factors,
            stage_tw,
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
    /// butterfly bodies contain no shuffles. The radix-2/3/4/5 butterflies
    /// apply their DFT constants (±1, ±i, the exact radix-3/5 cosines) as
    /// real scalings, compiled per ISA and dispatched at runtime (see
    /// module docs).
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

    /// Recursive decimation-in-time step: logical element `i` of `src` is
    /// the `b`-wide block at `src_*[i * stride * b ..]`, and the length-`n`
    /// transform lands contiguously (blocked by `b`) in `dst_*`. `depth`
    /// indexes the factor list and the per-stage twiddle tables; the
    /// combines are the ISA-dispatched butterfly set.
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
        let combine = match r {
            2 => cs.c2,
            3 => cs.c3,
            4 => cs.c4,
            5 => cs.c5,
            _ => unreachable!("factorize yields radices 2 to 5 only"),
        };
        // SAFETY: `cs` only holds butterfly versions this host can execute
        // (combine_set derives it from `bgw_num::simd::effective`).
        unsafe { combine(dst_re, dst_im, &self.stage_tw[depth], m, b) }
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

/// Precomputes, for every recursion depth of the mixed-radix kernel, the
/// butterfly twiddles `stage_tw[d][k*r+q] = e^{-2 pi i (k*q*step_d mod n) / n}`.
/// The radices hard-wire their DFT constants, so these are the only
/// twiddles the kernel reads.
fn stage_tables(n: usize, factors: &[usize]) -> Vec<Vec<Complex64>> {
    let w = -2.0 * std::f64::consts::PI / n as f64;
    let twiddles: Vec<Complex64> = (0..n).map(|k| Complex64::cis(w * k as f64)).collect();
    let mut stage_tw = Vec::with_capacity(factors.len());
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
        stage_tw.push(st);
        nd = m;
    }
    stage_tw
}

/// Reference O(n^2) DFT: the direct sum, a different algorithm from the
/// mixed-radix kernel, which the tests hold every transform to.
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

    /// Transforms `lines` (each of the plan's length, at most
    /// [`LINE_BATCH`]) as one batch through the split-plane kernel.
    fn transform_lines(
        plan: &FftPlan,
        lines: &[Vec<Complex64>],
        dir: Direction,
    ) -> Vec<Vec<Complex64>> {
        let (n, batch) = (plan.len(), lines.len());
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
        (0..batch)
            .map(|b| {
                (0..n)
                    .map(|k| c64(re[k * batch + b], im[k * batch + b]))
                    .collect()
            })
            .collect()
    }

    /// One line through the split-plane kernel.
    fn transform(plan: &FftPlan, x: &[Complex64], dir: Direction) -> Vec<Complex64> {
        transform_lines(plan, &[x.to_vec()], dir).remove(0)
    }

    #[test]
    fn factorize_smooth_and_prime() {
        assert_eq!(factorize(1), Some(vec![]));
        assert_eq!(factorize(8), Some(vec![4, 2]));
        assert_eq!(factorize(360), Some(vec![5, 4, 3, 3, 2]));
        assert!(factorize(97).is_none());
        assert!(factorize(7).is_none());
        assert!(factorize(210).is_none()); // 2 * 3 * 5 * 7
    }

    #[test]
    #[should_panic(expected = "FFT length 17 is not 5-smooth; size the grid with good_size")]
    fn rough_length_is_rejected() {
        FftPlan::new(17);
    }

    #[test]
    fn good_size_is_5_smooth_and_geq() {
        // The least 5-smooth size >= n: these pin every grid's dims.
        for (n, g) in [
            (1, 1),
            (7, 8),
            (17, 18),
            (97, 100),
            (101, 108),
            (640, 640),
            (1009, 1024),
        ] {
            assert_eq!(good_size(n), g, "good_size({n})");
            FftPlan::new(g);
        }
    }

    #[test]
    fn matches_reference_dft_smooth_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 8, 12, 15, 16, 20, 36, 60, 64, 100] {
            let x = rand_signal(n, n as u64);
            let y = transform(&FftPlan::new(n), &x, Direction::Forward);
            let r = dft_reference(&x, Direction::Forward);
            assert!(max_err(&y, &r) < 1e-10 * (n as f64), "n = {n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [4usize, 30, 96, 125, 128, 180] {
            let x = rand_signal(n, 3 * n as u64 + 1);
            let plan = FftPlan::new(n);
            let y = transform(&plan, &x, Direction::Forward);
            let y = transform(&plan, &y, Direction::Inverse);
            assert!(max_err(&y, &x) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 180;
        let x = rand_signal(n, 42);
        let y = transform(&FftPlan::new(n), &x, Direction::Forward);
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
        let lhs: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x * alpha + *y).collect();
        let lhs = transform(&plan, &lhs, Direction::Forward);
        let fa = transform(&plan, &a, Direction::Forward);
        let fb = transform(&plan, &b, Direction::Forward);
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * alpha + *y).collect();
        assert!(max_err(&lhs, &rhs) < 1e-10);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 64;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        for z in &transform(&FftPlan::new(n), &x, Direction::Forward) {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn plane_wave_transforms_to_delta() {
        let n = 60;
        let k0 = 7usize;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        let y = transform(&FftPlan::new(n), &x, Direction::Forward);
        for (k, z) in y.iter().enumerate() {
            let expect = if k == k0 { n as f64 } else { 0.0 };
            assert!((z.re - expect).abs() < 1e-9 && z.im.abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "batch buffer length mismatch")]
    fn length_mismatch_panics() {
        let plan = FftPlan::new(8);
        let mut re = vec![0.0; 7];
        let mut im = vec![0.0; 7];
        let mut scratch = vec![0.0; plan.batch_scratch_split_len()];
        plan.process_batch_split(&mut re, &mut im, 1, &mut scratch, Direction::Forward);
    }

    #[test]
    fn split_batch_matches_reference_and_advances_isa_counter() {
        // Degenerate lengths and radix-2/3/4/5 mixes; full and ragged
        // batches, both directions, each line held to the O(n^2) direct
        // sum. Also pins the per-ISA FFT telemetry: the butterfly set that
        // ran must be the effective ISA's.
        let effective = bgw_num::simd::effective();
        let before = fft_mk_calls(&bgw_perf::counters::snapshot());
        for n in [1usize, 2, 8, 12, 15, 18, 25, 32, 45, 60, 64, 90, 100] {
            let plan = FftPlan::new(n);
            for batch in [1usize, 3, 5, LINE_BATCH] {
                for dir in [Direction::Forward, Direction::Inverse] {
                    let lines: Vec<Vec<Complex64>> = (0..batch)
                        .map(|b| rand_signal(n, (29 * n + b) as u64))
                        .collect();
                    let got = transform_lines(&plan, &lines, dir);
                    for (b, line) in lines.iter().enumerate() {
                        let want = dft_reference(line, dir);
                        let err = max_err(&got[b], &want);
                        assert!(
                            err <= 1e-12 * (n as f64).max(1.0),
                            "n={n} batch={batch} dir={dir:?} b={b}: err {err}"
                        );
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
