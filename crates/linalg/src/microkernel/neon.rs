//! AArch64 Advanced SIMD (NEON) register-tile kernels for the
//! split-complex ZGEMM.
//!
//! NEON is baseline on every aarch64 target, so these kernels need no
//! runtime feature probe — `bgw_num::simd::probe` reports `Isa::Neon`
//! unconditionally there. 128-bit registers hold 2 f64 lanes; with 32
//! architectural registers the `6 x 4` tile (24 accumulators + 4 B
//! vectors + 2 broadcasts) still fits without spilling.
//!
//! The complex product uses the same four-FMA lattice as the x86 kernels:
//! `vfmaq_f64(acc, a, b)` computes `acc + a*b` and `vfmsq_f64(acc, a, b)`
//! computes `acc - a*b`, so no negation or shuffle appears in the body.
//!
//! # Safety
//! Callers must uphold the panel layout contract of
//! [`super::scalar::kernel_4x4`] with each kernel's `MR`/`NR`.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::*;

macro_rules! neon_kernel {
    ($name:ident, $mr:expr, $nv:expr, $doc:expr) => {
        #[doc = $doc]
        ///
        /// # Safety
        /// Panel layout contract as in [`super::scalar::kernel_4x4`] with
        /// this kernel's `MR`/`NR`.
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
            const NR: usize = NV * 2;
            let mut acc_re = [[vdupq_n_f64(0.0); NV]; MR];
            let mut acc_im = [[vdupq_n_f64(0.0); NV]; MR];
            for p in 0..kk {
                let mut bv_re = [vdupq_n_f64(0.0); NV];
                let mut bv_im = [vdupq_n_f64(0.0); NV];
                for v in 0..NV {
                    bv_re[v] = vld1q_f64(bre.add(p * NR + v * 2));
                    bv_im[v] = vld1q_f64(bim.add(p * NR + v * 2));
                }
                for i in 0..MR {
                    let ar = vdupq_n_f64(*are.add(p * MR + i));
                    let ai = vdupq_n_f64(*aim.add(p * MR + i));
                    for v in 0..NV {
                        acc_re[i][v] = vfmaq_f64(acc_re[i][v], ar, bv_re[v]);
                        acc_re[i][v] = vfmsq_f64(acc_re[i][v], ai, bv_im[v]);
                        acc_im[i][v] = vfmaq_f64(acc_im[i][v], ar, bv_im[v]);
                        acc_im[i][v] = vfmaq_f64(acc_im[i][v], ai, bv_re[v]);
                    }
                }
            }
            for i in 0..MR {
                for v in 0..NV {
                    vst1q_f64(cre.add(i * NR + v * 2), acc_re[i][v]);
                    vst1q_f64(cim.add(i * NR + v * 2), acc_im[i][v]);
                }
            }
        }
    };
}

neon_kernel!(
    neon_4x4,
    4,
    2,
    "NEON `4 x 4` tile: 16 accumulator vectors; matches the scalar \
     kernel's footprint, the safe default."
);
neon_kernel!(
    neon_6x4,
    6,
    2,
    "NEON `6 x 4` tile: 24 accumulator vectors, better A-broadcast \
     amortization; swept by `ablation_gemm_tuning`."
);
