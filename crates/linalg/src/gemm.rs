//! ZGEMM: complex double-precision general matrix multiply.
//!
//! The paper's off-diagonal GPP kernel (Sec. 5.6) recasts the self-energy
//! contraction into two dense ZGEMM calls per `(n, E)` pair and leans on
//! vendor libraries (rocBLAS + Tensile on Frontier, oneMKL on Aurora,
//! cuBLAS on Perlmutter), one ZGEMM per platform. This module is that
//! substrate: one BLIS-style five-loop blocked kernel (`jc -> pc -> ic`
//! cache loops around a `jr/ir` register microkernel), [`zgemm`], plus the
//! triple loop [`zgemm_reference`] the tests hold it to. Production calls
//! run the effective ISA's default microkernel at fixed tiles; the
//! explicit-tile hook [`zgemm_with_microkernel`] is what the tile sweep of
//! the paper's Tensile comparison (Sec. 7.3) times.
//!
//! Layout choices, in the order they matter:
//! * operands are packed once per cache block into **split re/im planes**
//!   so the microkernel runs pure `f64` FMA chains with no shuffles;
//! * the register microkernel is **runtime-dispatched** per ISA
//!   (scalar / NEON / AVX2+FMA / AVX-512F, see [`crate::microkernel`]);
//!   packing is parameterized on the selected kernel's `(mr, nr)` so the
//!   panel geometry always matches the register tile;
//! * the `B` strip for a `(jc, pc)` block is packed **once** and shared by
//!   every row panel (and every pool worker) that consumes it;
//! * the microkernel holds an `mr x nr` complex tile of `C` in registers
//!   across the whole `kc` depth, so `C` traffic is one read-modify-write
//!   per cache block instead of one per `k` step;
//! * row panels of `C` are independent and are scheduled on the `bgw-par`
//!   worker pool.
//!
//! Packing time versus microkernel time is recorded in the global
//! [`bgw_perf::counters`] — both the legacy process totals and the
//! per-ISA lanes — so benchmarks can attribute wins and see when a wider
//! microkernel shifts time into packing.

use crate::matrix::CMatrix;
use crate::microkernel::{self, MicroKernel, MAX_MR, MAX_NR};
use bgw_num::simd::{self, Isa};
use bgw_num::Complex64;
use bgw_par::SendPtr;
use std::time::Instant;

/// How an operand enters the product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    None,
    /// Use the plain transpose.
    Trans,
    /// Use the conjugate transpose.
    Adj,
}

impl Op {
    /// Shape of `op(A)` given the stored shape of `A`.
    pub fn shape(self, (r, c): (usize, usize)) -> (usize, usize) {
        match self {
            Op::None => (r, c),
            Op::Trans | Op::Adj => (c, r),
        }
    }
}

/// Cache-tile sizes for the blocked kernels: `C` is processed in `mc x nc`
/// panels accumulating over `kc`-deep strips. All three loops are honored
/// (`nc` bounds the shared packed `B` strip); `mc`/`nc` are rounded up to
/// multiples of the selected microkernel's `mr`/`nr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileParams {
    /// Rows of the `C` panel held hot.
    pub mc: usize,
    /// Depth of the accumulation strip.
    pub kc: usize,
    /// Columns of the `C` panel.
    pub nc: usize,
}

impl Default for TileParams {
    fn default() -> Self {
        // A-panel (mc x kc split planes) ~128 KiB for L2 residency; the
        // shared B strip (kc x nc) ~512 KiB lives in last-level cache.
        Self {
            mc: 64,
            kc: 128,
            nc: 256,
        }
    }
}

/// Computes `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes must satisfy `op(A): m x k`, `op(B): k x n`, `C: m x n`. Every
/// call runs the default microkernel of the effective ISA
/// ([`microkernel::default_kernel`] of `simd::effective()`) at
/// [`TileParams::default`], with the row panels of `C` on the worker pool;
/// a one-panel or sub-floor call runs inline. The result is the same in
/// every bit at every pool width.
pub fn zgemm(
    alpha: Complex64,
    a: &CMatrix,
    opa: Op,
    b: &CMatrix,
    opb: Op,
    beta: Complex64,
    c: &mut CMatrix,
) {
    let kernel = microkernel::default_kernel(simd::effective());
    zgemm_with_microkernel(
        alpha,
        a,
        opa,
        b,
        opb,
        beta,
        c,
        kernel,
        TileParams::default(),
    )
}

/// Convenience product `op(A) * op(B)` with a fresh output matrix.
pub fn matmul(a: &CMatrix, opa: Op, b: &CMatrix, opb: Op) -> CMatrix {
    let (m, _) = opa.shape(a.shape());
    let (_, n) = opb.shape(b.shape());
    let mut c = CMatrix::zeros(m, n);
    zgemm(Complex64::ONE, a, opa, b, opb, Complex64::ZERO, &mut c);
    c
}

/// FLOP count of one `m x k x n` complex GEMM using the standard `8 m k n`
/// convention the paper applies in Eq. 8.
pub fn zgemm_flops(m: usize, k: usize, n: usize) -> u64 {
    8 * m as u64 * k as u64 * n as u64
}

/// Conjugated dot product `sum_i conj(a_i) b_i`.
///
/// The row-wise contraction that closes ZGEMM-recast bilinear forms
/// (`x^dagger B x = conj_dot(x, B x)`): after a batched `Y = X op(B)`,
/// each form is one contiguous-row dot. Accumulates with
/// [`Complex64::conj_mul_add`]; cost is 8 FLOPs per element.
pub fn conj_dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "conj_dot length mismatch");
    let mut acc = Complex64::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc = acc.conj_mul_add(x, y);
    }
    acc
}

#[inline(always)]
fn fetch(a: &CMatrix, op: Op, i: usize, j: usize) -> Complex64 {
    match op {
        Op::None => a[(i, j)],
        Op::Trans => a[(j, i)],
        Op::Adj => a[(j, i)].conj(),
    }
}

/// The triple loop: `C = alpha * op(A) * op(B) + beta * C` with no
/// packing, each element summed over `k` front to back and scaled by
/// `alpha` last. [`zgemm`] folds `alpha` into its packed `A` panels and
/// accumulates per `kc` strip, so this is a different algorithm, and the
/// tests hold the blocked kernel to it within rounding.
pub fn zgemm_reference(
    alpha: Complex64,
    a: &CMatrix,
    opa: Op,
    b: &CMatrix,
    opb: Op,
    beta: Complex64,
    c: &mut CMatrix,
) {
    let (m, k, n) = check_shapes(a, opa, b, opb, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = Complex64::ZERO;
            for p in 0..k {
                acc += fetch(a, opa, i, p) * fetch(b, opb, p, j);
            }
            let old = c[(i, j)];
            c[(i, j)] = alpha * acc + beta * old;
        }
    }
}

/// `(m, k, n)` of `op(A) * op(B)` into `C`; panics when the shapes disagree.
fn check_shapes(a: &CMatrix, opa: Op, b: &CMatrix, opb: Op, c: &CMatrix) -> (usize, usize, usize) {
    let (m, k) = opa.shape(a.shape());
    let (kb, n) = opb.shape(b.shape());
    assert_eq!(k, kb, "inner dimensions disagree: {k} vs {kb}");
    assert_eq!(c.shape(), (m, n), "output shape mismatch");
    (m, k, n)
}

/// Packs `alpha * op(A)` rows `i0..i1`, depth `p0..p1` into split re/im
/// planes of `mr`-row micro-panels: element `(i0 + s*mr + r, p0 + p)` lands
/// at index `s*kk*mr + p*mr + r`. Rows past `i1` are zero-padded so the
/// microkernel never branches on the row edge. `mr` is the register-tile
/// height of the dispatched microkernel.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &CMatrix,
    opa: Op,
    alpha: Complex64,
    i0: usize,
    i1: usize,
    p0: usize,
    p1: usize,
    mr: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mm = i1 - i0;
    let kk = p1 - p0;
    let strips = mm.div_ceil(mr);
    let mut re = vec![0.0; strips * kk * mr];
    let mut im = vec![0.0; strips * kk * mr];
    for s in 0..strips {
        let base = s * kk * mr;
        let rows = (mm - s * mr).min(mr);
        for p in 0..kk {
            let at = base + p * mr;
            for r in 0..rows {
                let v = alpha * fetch(a, opa, i0 + s * mr + r, p0 + p);
                re[at + r] = v.re;
                im[at + r] = v.im;
            }
        }
    }
    (re, im)
}

/// Packs `op(B)` depth `p0..p1`, cols `j0..j1` into split re/im planes of
/// `nr`-column micro-panels: element `(p0 + p, j0 + s*nr + q)` lands at
/// index `s*kk*nr + p*nr + q`, zero-padded past the column edge. `nr` is
/// the register-tile width of the dispatched microkernel.
fn pack_b(
    b: &CMatrix,
    opb: Op,
    p0: usize,
    p1: usize,
    j0: usize,
    j1: usize,
    nr: usize,
) -> (Vec<f64>, Vec<f64>) {
    let nn = j1 - j0;
    let kk = p1 - p0;
    let strips = nn.div_ceil(nr);
    let mut re = vec![0.0; strips * kk * nr];
    let mut im = vec![0.0; strips * kk * nr];
    for s in 0..strips {
        let base = s * kk * nr;
        let cols = (nn - s * nr).min(nr);
        for p in 0..kk {
            let at = base + p * nr;
            for q in 0..cols {
                let v = fetch(b, opb, p0 + p, j0 + s * nr + q);
                re[at + q] = v.re;
                im[at + q] = v.im;
            }
        }
    }
    (re, im)
}

/// Tags the enclosing `gemm` span with the dispatched microkernel's ISA
/// (one static site per variant so the run report separates them).
fn kernel_span(isa: Isa) -> bgw_trace::Span {
    static SCALAR: bgw_trace::SpanSite = bgw_trace::SpanSite::new("gemm.kernel.scalar");
    static NEON: bgw_trace::SpanSite = bgw_trace::SpanSite::new("gemm.kernel.neon");
    static AVX2: bgw_trace::SpanSite = bgw_trace::SpanSite::new("gemm.kernel.avx2");
    static AVX512: bgw_trace::SpanSite = bgw_trace::SpanSite::new("gemm.kernel.avx512");
    bgw_trace::enter(match isa {
        Isa::Scalar => &SCALAR,
        Isa::Neon => &NEON,
        Isa::Avx2 => &AVX2,
        Isa::Avx512 => &AVX512,
    })
}

/// [`zgemm`] at an explicit microkernel and tiles: the hook the
/// `ablation_gemm_tuning` sweep and the per-kernel parity tests drive. It touches no global
/// dispatch state, so concurrent callers can exercise different kernels.
///
/// The kernel must come from the registry ([`microkernel::kernels_for`]),
/// which only hands out host-executable variants.
#[allow(clippy::too_many_arguments)]
pub fn zgemm_with_microkernel(
    alpha: Complex64,
    a: &CMatrix,
    opa: Op,
    b: &CMatrix,
    opb: Op,
    beta: Complex64,
    c: &mut CMatrix,
    kernel: &'static MicroKernel,
    tiles: TileParams,
) {
    let (m, k, n) = check_shapes(a, opa, b, opb, c);
    bgw_perf::counters::record_gemm_call();
    let (mr, nr) = (kernel.mr, kernel.nr);
    bgw_perf::counters::record_gemm_mk_call(kernel.isa.index());
    let _span = bgw_trace::span!("gemm");
    let _kernel_span = kernel_span(kernel.isa);
    // 4 real multiplies + 4 adds per complex multiply-accumulate.
    bgw_trace::add_flops(8 * (m as u64) * (n as u64) * (k as u64));
    // beta-scale once up front.
    if beta != Complex64::ONE {
        if beta == Complex64::ZERO {
            c.as_mut_slice().fill(Complex64::ZERO);
        } else {
            c.scale_inplace(beta);
        }
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert!(
        mr <= MAX_MR && nr <= MAX_NR,
        "kernel tile exceeds stack buffers"
    );
    let mc = tiles.mc.max(1).div_ceil(mr) * mr;
    let kc = tiles.kc.max(1);
    let nc = tiles.nc.max(1).div_ceil(nr) * nr;
    let ldc = n;
    let cptr = SendPtr::new(c.as_mut_slice().as_mut_ptr());

    // 5-loop blocking: jc over C columns (bounds the shared B strip),
    // pc over depth, ic over C row panels (parallel), then jr/ir register
    // tiles inside `row_panel`.
    for jc0 in (0..n).step_by(nc) {
        let jc1 = (jc0 + nc).min(n);
        for pc0 in (0..k).step_by(kc) {
            let pc1 = (pc0 + kc).min(k);
            let kk = pc1 - pc0;
            let (bre, bim) = {
                let _pack_span = bgw_trace::span!("gemm.pack");
                let t_pack = Instant::now();
                let packed = pack_b(b, opb, pc0, pc1, jc0, jc1, nr);
                bgw_perf::counters::record_gemm_pack_ns(t_pack.elapsed().as_nanos() as u64);
                packed
            };

            let row_panel = |i0: usize, i1: usize| {
                let (are, aim) = {
                    let _pack_span = bgw_trace::span!("gemm.pack");
                    let t_a = Instant::now();
                    let packed = pack_a(a, opa, alpha, i0, i1, pc0, pc1, mr);
                    bgw_perf::counters::record_gemm_pack_ns(t_a.elapsed().as_nanos() as u64);
                    packed
                };
                let _compute_span = bgw_trace::span!("gemm.compute");
                let t_c = Instant::now();
                let mm = i1 - i0;
                for (sj, (bre_s, bim_s)) in bre
                    .chunks_exact(kk * nr)
                    .zip(bim.chunks_exact(kk * nr))
                    .enumerate()
                {
                    let j = jc0 + sj * nr;
                    let cols = (jc1 - j).min(nr);
                    for (si, (are_s, aim_s)) in are
                        .chunks_exact(kk * mr)
                        .zip(aim.chunks_exact(kk * mr))
                        .enumerate()
                    {
                        let i = i0 + si * mr;
                        let rows = (mm - si * mr).min(mr);
                        let mut cre = [0.0f64; MAX_MR * MAX_NR];
                        let mut cim = [0.0f64; MAX_MR * MAX_NR];
                        // SAFETY: packed panels hold exactly kk*mr / kk*nr
                        // elements per strip (zero-padded at edges) and the
                        // stack tiles hold MAX_MR*MAX_NR >= mr*nr, meeting
                        // the kernel's layout contract; the registry only
                        // hands out host-executable kernels.
                        unsafe {
                            kernel.run_raw(
                                kk,
                                are_s.as_ptr(),
                                aim_s.as_ptr(),
                                bre_s.as_ptr(),
                                bim_s.as_ptr(),
                                cre.as_mut_ptr(),
                                cim.as_mut_ptr(),
                            );
                        }
                        for ii in 0..rows {
                            // SAFETY: row panels [i0, i1) are disjoint
                            // across pool workers and jr strips are visited
                            // serially within a panel, so every C element
                            // has exactly one writer at a time.
                            let row = unsafe { cptr.get().add((i + ii) * ldc + j) };
                            for jj in 0..cols {
                                unsafe {
                                    let e = &mut *row.add(jj);
                                    e.re += cre[ii * nr + jj];
                                    e.im += cim[ii * nr + jj];
                                }
                            }
                        }
                    }
                }
                bgw_perf::counters::record_gemm_compute_ns(t_c.elapsed().as_nanos() as u64);
            };

            let panels = m.div_ceil(mc);
            // One `mc x kk` panel of A against the packed B strip.
            let panel_cost = bgw_par::Flops(zgemm_flops(mc.min(m), kk, jc1 - jc0));
            bgw_par::parallel_for_chunked(panels, 1, panel_cost, |lo, hi| {
                for pi in lo..hi {
                    let i0 = pi * mc;
                    row_panel(i0, (i0 + mc).min(m));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_num::{c64, Xoshiro256StarStar};
    use bgw_perf::counters::CounterSnapshot;

    /// Microkernel dispatches by ISA index (0 scalar, 1 neon, 2 avx2,
    /// 3 avx512).
    fn gemm_mk_calls(s: &CounterSnapshot) -> [u64; 4] {
        [
            s.gemm_mk_calls_scalar,
            s.gemm_mk_calls_neon,
            s.gemm_mk_calls_avx2,
            s.gemm_mk_calls_avx512,
        ]
    }

    /// Tiles small enough that every loop of the blocked driver takes
    /// several steps, and that straddle the register tile.
    const TINY_TILES: [TileParams; 2] = [
        TileParams {
            mc: 3,
            kc: 5,
            nc: 7,
        },
        TileParams {
            mc: 8,
            kc: 16,
            nc: 8,
        },
    ];

    /// [`zgemm_reference`] on a copy of `c0`.
    fn reference(
        alpha: Complex64,
        a: &CMatrix,
        opa: Op,
        b: &CMatrix,
        opb: Op,
        beta: Complex64,
        c0: &CMatrix,
    ) -> CMatrix {
        let mut c = c0.clone();
        zgemm_reference(alpha, a, opa, b, opb, beta, &mut c);
        c
    }

    /// The blocked products on copies of `c0`, labelled: [`zgemm`], then the
    /// same kernel at each of [`TINY_TILES`].
    fn blocked(
        alpha: Complex64,
        a: &CMatrix,
        opa: Op,
        b: &CMatrix,
        opb: Op,
        beta: Complex64,
        c0: &CMatrix,
    ) -> Vec<(String, CMatrix)> {
        let mut c = c0.clone();
        zgemm(alpha, a, opa, b, opb, beta, &mut c);
        let mut out = vec![("zgemm".to_string(), c)];
        let kernel = microkernel::default_kernel(simd::effective());
        for tiles in TINY_TILES {
            let mut c = c0.clone();
            zgemm_with_microkernel(alpha, a, opa, b, opb, beta, &mut c, kernel, tiles);
            out.push((format!("{tiles:?}"), c));
        }
        out
    }

    /// Every blocked product of `op(A) op(B)` is within `tol` of the
    /// reference.
    fn assert_products_match(a: &CMatrix, opa: Op, b: &CMatrix, opb: Op, tol: f64) {
        let (m, _) = opa.shape(a.shape());
        let (_, n) = opb.shape(b.shape());
        let (one, zero, c0) = (Complex64::ONE, Complex64::ZERO, CMatrix::zeros(m, n));
        let want = reference(one, a, opa, b, opb, zero, &c0);
        for (what, got) in blocked(one, a, opa, b, opb, zero, &c0) {
            let diff = got.max_abs_diff(&want);
            assert!(diff < tol, "{what} {opa:?}/{opb:?}: max diff {diff:e}");
        }
    }

    #[test]
    fn op_shapes() {
        assert_eq!(Op::None.shape((2, 3)), (2, 3));
        assert_eq!(Op::Trans.shape((2, 3)), (3, 2));
        assert_eq!(Op::Adj.shape((2, 3)), (3, 2));
    }

    #[test]
    fn conj_dot_matches_scalar_bilinear_form() {
        let x: Vec<Complex64> = (0..9)
            .map(|i| c64(0.3 * i as f64, 1.0 - 0.2 * i as f64))
            .collect();
        let y: Vec<Complex64> = (0..9)
            .map(|i| c64(-0.1 * i as f64, 0.05 * i as f64))
            .collect();
        let direct: Complex64 = x
            .iter()
            .zip(&y)
            .fold(Complex64::ZERO, |acc, (&a, &b)| acc + a.conj() * b);
        assert!((conj_dot(&x, &y) - direct).abs() < 1e-13);
        // x^dagger B x through a GEMM row equals conj_dot(x, (B x^T-row)).
        let b = CMatrix::random_hermitian(9, 7);
        let xm = CMatrix::from_fn(1, 9, |_, j| x[j]);
        let z = matmul(&xm, Op::None, &b, Op::Trans);
        let form = conj_dot(&x, z.row(0));
        let mut scalar = Complex64::ZERO;
        for i in 0..9 {
            for j in 0..9 {
                scalar += x[i].conj() * b[(i, j)] * x[j];
            }
        }
        assert!((form - scalar).abs() < 1e-12);
        assert!(form.im.abs() < 1e-12, "Hermitian form must be real");
    }

    /// `zgemm`, and its kernel at the tiny tiles, against the triple loop.
    #[test]
    fn all_backends_agree_with_naive() {
        let a = CMatrix::random(7, 5, 1);
        let b = CMatrix::random(5, 9, 2);
        assert_products_match(&a, Op::None, &b, Op::None, 1e-12);
    }

    #[test]
    fn transpose_and_adjoint_ops() {
        let a = CMatrix::random(6, 4, 3);
        let b = CMatrix::random(6, 5, 4);
        // A^T B and A^H B : (4x6)(6x5)
        assert_products_match(&a, Op::Trans, &b, Op::None, 1e-12);
        assert_products_match(&a, Op::Adj, &b, Op::None, 1e-12);
        // The explicit transposes agree with the ops.
        let expect_h = matmul(&a.adjoint(), Op::None, &b, Op::None);
        assert!(matmul(&a, Op::Adj, &b, Op::None).max_abs_diff(&expect_h) < 1e-12);
        let expect_t = matmul(&a.transpose(), Op::None, &b, Op::None);
        assert!(matmul(&a, Op::Trans, &b, Op::None).max_abs_diff(&expect_t) < 1e-12);
        // B with ops on the right side too: A * B^H : (6x4)(4x5)
        let b2 = CMatrix::random(5, 4, 5);
        assert_products_match(&a, Op::None, &b2, Op::Adj, 1e-12);
    }

    #[test]
    fn alpha_beta_accumulation() {
        let a = CMatrix::random(4, 4, 6);
        let b = CMatrix::random(4, 4, 7);
        let c0 = CMatrix::random(4, 4, 8);
        let alpha = c64(0.5, -1.0);
        let beta = c64(2.0, 0.25);
        let expect = reference(alpha, &a, Op::None, &b, Op::None, beta, &c0);
        for (what, c) in blocked(alpha, &a, Op::None, &b, Op::None, beta, &c0) {
            assert!(c.max_abs_diff(&expect) < 1e-12, "{what}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = CMatrix::random(5, 5, 9);
        let i5 = CMatrix::identity(5);
        let (one, zero, c0) = (Complex64::ONE, Complex64::ZERO, CMatrix::zeros(5, 5));
        for (l, r) in [(&a, &i5), (&i5, &a)] {
            assert!(reference(one, l, Op::None, r, Op::None, zero, &c0).max_abs_diff(&a) < 1e-13);
            for (what, c) in blocked(one, l, Op::None, r, Op::None, zero, &c0) {
                assert!(c.max_abs_diff(&a) < 1e-13, "{what}");
            }
        }
    }

    #[test]
    fn associativity_within_tolerance() {
        let a = CMatrix::random(4, 6, 10);
        let b = CMatrix::random(6, 3, 11);
        let c = CMatrix::random(3, 5, 12);
        let ab_c = matmul(&matmul(&a, Op::None, &b, Op::None), Op::None, &c, Op::None);
        let a_bc = matmul(&a, Op::None, &matmul(&b, Op::None, &c, Op::None), Op::None);
        assert!(ab_c.max_abs_diff(&a_bc) < 1e-12);
    }

    #[test]
    fn degenerate_dimensions() {
        let a = CMatrix::zeros(0, 3);
        let b = CMatrix::zeros(3, 4);
        let c = matmul(&a, Op::None, &b, Op::None);
        assert_eq!(c.shape(), (0, 4));
        // k = 0: C = beta*C only
        let a = CMatrix::zeros(2, 0);
        let b = CMatrix::zeros(0, 2);
        let mut c = CMatrix::identity(2);
        zgemm(
            Complex64::ONE,
            &a,
            Op::None,
            &b,
            Op::None,
            c64(3.0, 0.0),
            &mut c,
        );
        assert_eq!(c[(0, 0)], c64(3.0, 0.0));
    }

    #[test]
    fn flop_count_convention() {
        assert_eq!(zgemm_flops(2, 3, 4), 8 * 24);
        assert_eq!(zgemm_flops(0, 3, 4), 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(4, 2);
        let _ = matmul(&a, Op::None, &b, Op::None);
    }

    #[test]
    fn large_blocked_matches_naive() {
        let a = CMatrix::random(150, 70, 21);
        let b = CMatrix::random(70, 90, 22);
        // errors scale with k; keep a sane bound
        assert_products_match(&a, Op::None, &b, Op::None, 1e-10);
    }

    /// Randomized shape sweep: tall/skinny, degenerate vectors, and shapes
    /// straddling every tile boundary, crossed with all Op combinations, the
    /// blocked products against the reference at pool width 3.
    #[test]
    fn randomized_shape_sweep_all_ops_all_backends() {
        bgw_par::set_num_threads(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xC0FFEE);
        // Dimensions chosen to straddle common mr/nr (4..16), the tiny
        // tiles (3/5/7, 8/16/8), and default mc/kc boundaries.
        let dims = [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 63, 64, 65, 130];
        let ops = [Op::None, Op::Trans, Op::Adj];
        let mut seed = 1000u64;
        for case in 0..40 {
            let m = dims[rng.next_below(dims.len())];
            let k = dims[rng.next_below(dims.len())];
            let n = dims[rng.next_below(dims.len())];
            let opa = ops[rng.next_below(3)];
            let opb = ops[rng.next_below(3)];
            let a_shape = match opa {
                Op::None => (m, k),
                _ => (k, m),
            };
            let b_shape = match opb {
                Op::None => (k, n),
                _ => (n, k),
            };
            seed += 3;
            let a = CMatrix::random(a_shape.0, a_shape.1, seed);
            let b = CMatrix::random(b_shape.0, b_shape.1, seed + 1);
            let c0 = CMatrix::random(m, n, seed + 2);
            let alpha = c64(rng.next_f64() - 0.5, rng.next_f64() - 0.5);
            let beta = match case % 3 {
                0 => Complex64::ZERO,
                1 => Complex64::ONE,
                _ => c64(rng.next_f64() - 0.5, rng.next_f64()),
            };
            let expect = reference(alpha, &a, opa, &b, opb, beta, &c0);
            for (what, c) in blocked(alpha, &a, opa, &b, opb, beta, &c0) {
                assert!(
                    c.max_abs_diff(&expect) < 1e-10,
                    "case {case}: {m}x{k}x{n} {opa:?}/{opb:?} {what}"
                );
            }
        }
        bgw_par::set_num_threads(0);
    }

    /// Every microkernel variant this host can execute must match the
    /// reference at 1e-12 across edge shapes built from its own register
    /// tile (1, mr-1, mr, mr+1, 129, non-dividing) and
    /// conjugated/transposed Op combinations. Drives
    /// `zgemm_with_microkernel` directly, so no global dispatch state is
    /// touched and all variants are covered even though `zgemm` only ever
    /// runs the default one.
    #[test]
    fn every_host_microkernel_matches_naive_on_edge_shapes() {
        let ops = [Op::None, Op::Trans, Op::Adj];
        let alpha = c64(0.7, -0.3);
        let beta = c64(0.2, 0.1);
        for kernel in microkernel::host_kernels() {
            let m_dims = [1, kernel.mr - 1, kernel.mr, kernel.mr + 1, 129];
            let n_dims = [1, kernel.nr - 1, kernel.nr, kernel.nr + 1, 37];
            let k_dims = [1, 37, 129];
            let mut seed = 0x51D_0000 + (kernel.mr * 64 + kernel.nr) as u64;
            let mut case = 0usize;
            for &m in &m_dims {
                for &n in &n_dims {
                    for &k in &k_dims {
                        // Rotate through Op combos instead of the full
                        // cross to bound runtime; every pair appears.
                        let opa = ops[case % 3];
                        let opb = ops[(case / 3) % 3];
                        case += 1;
                        seed += 7;
                        let a = match opa {
                            Op::None => CMatrix::random(m, k, seed),
                            _ => CMatrix::random(k, m, seed),
                        };
                        let b = match opb {
                            Op::None => CMatrix::random(k, n, seed + 1),
                            _ => CMatrix::random(n, k, seed + 1),
                        };
                        let c0 = CMatrix::random(m, n, seed + 2);
                        let expect = reference(alpha, &a, opa, &b, opb, beta, &c0);
                        let mut got = c0.clone();
                        zgemm_with_microkernel(
                            alpha,
                            &a,
                            opa,
                            &b,
                            opb,
                            beta,
                            &mut got,
                            kernel,
                            TileParams::default(),
                        );
                        assert!(
                            got.max_abs_diff(&expect) <= 1e-12,
                            "{} {m}x{k}x{n} {opa:?}/{opb:?}: max diff {}",
                            kernel.label(),
                            got.max_abs_diff(&expect)
                        );
                    }
                }
            }
        }
    }

    /// Forcing each host-supported ISA routes `zgemm` through that ISA's
    /// kernel, observed via the per-ISA telemetry lanes (this is what makes
    /// `fmadd`'s silent compile-time degradation impossible to miss).
    #[test]
    fn forced_dispatch_exercises_each_supported_isa() {
        let a = CMatrix::random(40, 24, 311);
        let b = CMatrix::random(24, 48, 312);
        let zero = CMatrix::zeros(40, 48);
        let want = reference(
            Complex64::ONE,
            &a,
            Op::None,
            &b,
            Op::None,
            Complex64::ZERO,
            &zero,
        );
        for isa in simd::supported() {
            assert!(simd::force(Some(isa)), "supported ISA must be forceable");
            let before = gemm_mk_calls(&bgw_perf::counters::snapshot())[isa.index()];
            let c = matmul(&a, Op::None, &b, Op::None);
            assert!(c.max_abs_diff(&want) <= 1e-12, "{isa:?} parity");
            let after = gemm_mk_calls(&bgw_perf::counters::snapshot())[isa.index()];
            assert!(
                after > before,
                "{isa:?} lane must record the dispatched kernel"
            );
        }
        assert!(simd::force(None));
    }

    #[test]
    fn gemm_counters_advance() {
        let before = bgw_perf::counters::snapshot();
        let a = CMatrix::random(40, 40, 77);
        let b = CMatrix::random(40, 40, 78);
        let _ = matmul(&a, Op::None, &b, Op::None);
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert!(d.gemm_calls >= 1);
        assert!(d.gemm_pack_ns > 0, "packing must be accounted");
        assert!(d.gemm_compute_ns > 0, "microkernel must be accounted");
        // The per-ISA lanes must account the same work to some lane.
        let mk_calls: u64 = gemm_mk_calls(&d).iter().sum();
        assert!(mk_calls >= 1, "dispatched kernel lane must advance");
    }
}
