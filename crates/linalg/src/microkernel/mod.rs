//! Runtime-dispatched register-tile microkernels for the split-complex
//! ZGEMM.
//!
//! One code base, several inner kernels: a portable scalar `4x4`, NEON
//! `4x4`/`6x4`, AVX2+FMA `4x8`/`6x4`/`4x4`, and AVX-512F
//! `8x8`/`12x8`/`4x16`. `zgemm` runs [`default_kernel`] of the runtime ISA
//! decision from [`bgw_num::simd`] (detected once per process, or pinned by
//! `simd::force` in tests), at fixed cache tiles. The other registered
//! shapes are reached only through `zgemm_with_microkernel`: the tile
//! sweep times them and the parity tests hold them to the reference.
//!
//! Every kernel shares one panel-layout contract (see
//! [`scalar::kernel_4x4`]): packed A strips of `MR` rows, packed B strips
//! of `NR` columns, split re/im planes, and an overwriting row-major
//! `MR x NR` output tile. Packing is parameterized on the selected
//! kernel's `(MR, NR)` so the panel geometry always matches the register
//! tile.

pub mod scalar;
#[cfg(target_arch = "x86_64")]
pub mod x86;

#[cfg(target_arch = "aarch64")]
pub mod neon;

use bgw_num::simd::{self, Isa};

/// Unified kernel signature: `(kk, a_re, a_im, b_re, b_im, c_re, c_im)`
/// over split-plane panels; see [`scalar::kernel_4x4`] for the layout and
/// safety contract.
pub type KernelFn =
    unsafe fn(usize, *const f64, *const f64, *const f64, *const f64, *mut f64, *mut f64);

/// Largest `MR` of any registered kernel — sizes stack tile buffers.
pub const MAX_MR: usize = 12;
/// Largest `NR` of any registered kernel — sizes stack tile buffers.
pub const MAX_NR: usize = 16;

/// One registered register-tile kernel. Instances only exist in this
/// module's per-ISA tables, and [`kernels_for`] never hands out a kernel
/// the host cannot execute — that is the soundness boundary for the
/// `unsafe` target-feature functions underneath.
#[derive(Clone, Copy)]
pub struct MicroKernel {
    /// Instruction set the kernel requires.
    pub isa: Isa,
    /// Register-tile rows (packed-A strip height).
    pub mr: usize,
    /// Register-tile columns (packed-B strip width).
    pub nr: usize,
    kernel: KernelFn,
}

impl MicroKernel {
    /// Stable identifier used in span labels, benchmark JSON and the
    /// `ablation_gemm_tuning` sweep, e.g. `avx512_8x8`.
    pub fn label(&self) -> String {
        format!("{}_{}x{}", self.isa.name(), self.mr, self.nr)
    }

    /// Runs the kernel on packed split-plane panels.
    ///
    /// Bounds are checked here (panics on undersized slices), and the
    /// registry guarantees the ISA is host-executable, so this wrapper is
    /// safe.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        kk: usize,
        a_re: &[f64],
        a_im: &[f64],
        b_re: &[f64],
        b_im: &[f64],
        c_re: &mut [f64],
        c_im: &mut [f64],
    ) {
        assert!(a_re.len() >= kk * self.mr && a_im.len() >= kk * self.mr);
        assert!(b_re.len() >= kk * self.nr && b_im.len() >= kk * self.nr);
        assert!(c_re.len() >= self.mr * self.nr && c_im.len() >= self.mr * self.nr);
        debug_assert!(simd::host_supports(self.isa));
        // SAFETY: lengths checked above; the registry only constructs
        // kernels for ISAs this host supports.
        unsafe {
            (self.kernel)(
                kk,
                a_re.as_ptr(),
                a_im.as_ptr(),
                b_re.as_ptr(),
                b_im.as_ptr(),
                c_re.as_mut_ptr(),
                c_im.as_mut_ptr(),
            )
        }
    }

    /// Raw kernel entry point, for the blocked driver which manages its
    /// own panel pointers.
    ///
    /// # Safety
    /// Caller upholds the panel layout contract of
    /// [`scalar::kernel_4x4`] with this kernel's `MR`/`NR`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn run_raw(
        &self,
        kk: usize,
        a_re: *const f64,
        a_im: *const f64,
        b_re: *const f64,
        b_im: *const f64,
        c_re: *mut f64,
        c_im: *mut f64,
    ) {
        unsafe { (self.kernel)(kk, a_re, a_im, b_re, b_im, c_re, c_im) }
    }
}

static SCALAR_KERNELS: [MicroKernel; 1] = [MicroKernel {
    isa: Isa::Scalar,
    mr: 4,
    nr: 4,
    kernel: scalar::kernel_4x4,
}];

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: [MicroKernel; 3] = [
    MicroKernel {
        isa: Isa::Avx2,
        mr: 4,
        nr: 8,
        kernel: x86::avx2_4x8,
    },
    MicroKernel {
        isa: Isa::Avx2,
        mr: 6,
        nr: 4,
        kernel: x86::avx2_6x4,
    },
    MicroKernel {
        isa: Isa::Avx2,
        mr: 4,
        nr: 4,
        kernel: x86::avx2_4x4,
    },
];

#[cfg(target_arch = "x86_64")]
static AVX512_KERNELS: [MicroKernel; 3] = [
    MicroKernel {
        isa: Isa::Avx512,
        mr: 8,
        nr: 8,
        kernel: x86::avx512_8x8,
    },
    MicroKernel {
        isa: Isa::Avx512,
        mr: 12,
        nr: 8,
        kernel: x86::avx512_12x8,
    },
    MicroKernel {
        isa: Isa::Avx512,
        mr: 4,
        nr: 16,
        kernel: x86::avx512_4x16,
    },
];

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: [MicroKernel; 2] = [
    MicroKernel {
        isa: Isa::Neon,
        mr: 4,
        nr: 4,
        kernel: neon::neon_4x4,
    },
    MicroKernel {
        isa: Isa::Neon,
        mr: 6,
        nr: 4,
        kernel: neon::neon_6x4,
    },
];

/// Every kernel registered for `isa` that this host can execute (empty
/// slice when the host lacks the ISA). The first entry is the per-ISA
/// default; the rest are alternatives `ablation_gemm_tuning` sweeps.
pub fn kernels_for(isa: Isa) -> &'static [MicroKernel] {
    if !simd::host_supports(isa) {
        return &[];
    }
    match isa {
        Isa::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &AVX2_KERNELS,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &AVX512_KERNELS,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => &NEON_KERNELS,
        #[allow(unreachable_patterns)]
        _ => &[],
    }
}

/// The default kernel for `isa`, falling back to scalar when the host
/// lacks the ISA (so the return is always executable).
pub fn default_kernel(isa: Isa) -> &'static MicroKernel {
    kernels_for(isa).first().unwrap_or(&SCALAR_KERNELS[0])
}

/// All kernels this host can execute, narrowest ISA first: what the
/// parity sweeps iterate.
#[cfg(test)]
pub(crate) fn host_kernels() -> Vec<&'static MicroKernel> {
    simd::supported()
        .into_iter()
        .flat_map(|isa| kernels_for(isa).iter())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference on the same packed panels, any (mr, nr).
    fn reference_tile(
        kk: usize,
        mr: usize,
        nr: usize,
        a_re: &[f64],
        a_im: &[f64],
        b_re: &[f64],
        b_im: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let mut c_re = vec![0.0; mr * nr];
        let mut c_im = vec![0.0; mr * nr];
        for p in 0..kk {
            for i in 0..mr {
                let x = a_re[p * mr + i];
                let y = a_im[p * mr + i];
                for j in 0..nr {
                    let br = b_re[p * nr + j];
                    let bi = b_im[p * nr + j];
                    c_re[i * nr + j] += x * br - y * bi;
                    c_im[i * nr + j] += x * bi + y * br;
                }
            }
        }
        (c_re, c_im)
    }

    #[test]
    fn registry_shapes_fit_buffers_and_labels_are_unique() {
        let mut labels = std::collections::HashSet::new();
        for isa in bgw_num::simd::Isa::all() {
            for k in kernels_for(isa) {
                assert!(
                    k.mr <= MAX_MR && k.nr <= MAX_NR,
                    "{} exceeds MAX tile",
                    k.label()
                );
                assert!(k.mr > 0 && k.nr > 0);
                assert_eq!(k.isa, isa);
                assert!(labels.insert(k.label()), "duplicate kernel {}", k.label());
            }
        }
        // Scalar is always present and is its own default.
        assert_eq!(
            default_kernel(bgw_num::simd::Isa::Scalar).label(),
            "scalar_4x4"
        );
        assert!(!host_kernels().is_empty());
    }

    #[test]
    fn every_host_kernel_matches_scalar_reference() {
        let mut rng = bgw_num::SplitMix64::new(0x6_5eed);
        for k in host_kernels() {
            for kk in [1usize, 2, 7, 33] {
                let a_re: Vec<f64> = (0..kk * k.mr).map(|_| rng.next_f64() - 0.5).collect();
                let a_im: Vec<f64> = (0..kk * k.mr).map(|_| rng.next_f64() - 0.5).collect();
                let b_re: Vec<f64> = (0..kk * k.nr).map(|_| rng.next_f64() - 0.5).collect();
                let b_im: Vec<f64> = (0..kk * k.nr).map(|_| rng.next_f64() - 0.5).collect();
                let (want_re, want_im) = reference_tile(kk, k.mr, k.nr, &a_re, &a_im, &b_re, &b_im);
                let mut got_re = vec![0.0; k.mr * k.nr];
                let mut got_im = vec![0.0; k.mr * k.nr];
                k.run(kk, &a_re, &a_im, &b_re, &b_im, &mut got_re, &mut got_im);
                for i in 0..k.mr * k.nr {
                    assert!(
                        (got_re[i] - want_re[i]).abs() <= 1e-12
                            && (got_im[i] - want_im[i]).abs() <= 1e-12,
                        "{} kk={kk} elem {i}: got ({}, {}), want ({}, {})",
                        k.label(),
                        got_re[i],
                        got_im[i],
                        want_re[i],
                        want_im[i],
                    );
                }
            }
        }
    }
}
