//! Runtime SIMD instruction-set detection shared by every kernel crate.
//!
//! The paper's portability study (Sec. 7) ships one code base across three
//! vendor ISAs and lets the runtime pick the fastest implementation; this
//! module is the CPU-side analogue. `bgw-linalg` selects its ZGEMM
//! microkernel and `bgw-fft` its butterfly set from the single
//! [`detected`] answer, so the whole process agrees on which lanes it is
//! using and the telemetry counters in `bgw-perf` are keyed consistently.
//!
//! Detection happens once per process (relaxed-atomic cached). Tests and
//! benchmark harnesses can pin the decision with [`force`]; forcing an ISA
//! the host cannot execute is refused (returns `false`), which is the
//! soundness invariant every `unsafe` SIMD call site relies on: an ISA
//! returned by [`effective`] is always executable on this machine.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction sets the complex microkernels are specialized for, in
/// ascending capability order. [`Isa::index`] is the stable array index
/// used by the per-ISA telemetry counters in `bgw-perf`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable scalar Rust; always available.
    Scalar,
    /// AArch64 Advanced SIMD (baseline on every aarch64 target).
    Neon,
    /// x86-64 AVX2 + FMA (256-bit lanes).
    Avx2,
    /// x86-64 AVX-512F (512-bit lanes).
    Avx512,
}

/// Number of ISA variants (length of per-ISA counter arrays).
pub const ISA_COUNT: usize = 4;

impl Isa {
    /// Stable index into per-ISA counter arrays: scalar 0, neon 1,
    /// avx2 2, avx512 3.
    pub fn index(self) -> usize {
        match self {
            Isa::Scalar => 0,
            Isa::Neon => 1,
            Isa::Avx2 => 2,
            Isa::Avx512 => 3,
        }
    }

    /// Lowercase name used in benchmark JSON, the autotune table and span
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Neon => "neon",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Inverse of [`Isa::name`]; `None` for unknown strings (a stale or
    /// foreign autotune table must fall back, never panic).
    pub fn from_name(s: &str) -> Option<Isa> {
        match s {
            "scalar" => Some(Isa::Scalar),
            "neon" => Some(Isa::Neon),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            _ => None,
        }
    }

    /// Every variant, in [`Isa::index`] order.
    pub fn all() -> [Isa; ISA_COUNT] {
        [Isa::Scalar, Isa::Neon, Isa::Avx2, Isa::Avx512]
    }
}

/// `detected() + 1` once probed; 0 = not yet probed.
static DETECTED: AtomicU8 = AtomicU8::new(0);
/// `forced.index() + 1`; 0 = no override.
static FORCED: AtomicU8 = AtomicU8::new(0);

fn probe() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2;
        }
        Isa::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        // Advanced SIMD is baseline on aarch64.
        Isa::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Isa::Scalar
    }
}

fn from_index(i: usize) -> Isa {
    Isa::all()[i.min(ISA_COUNT - 1)]
}

/// The best instruction set this host can execute, probed once per
/// process.
pub fn detected() -> Isa {
    let cached = DETECTED.load(Ordering::Relaxed);
    if cached != 0 {
        return from_index(cached as usize - 1);
    }
    let isa = probe();
    DETECTED.store(isa.index() as u8 + 1, Ordering::Relaxed);
    isa
}

/// `true` when this host can execute `isa` (scalar always; wider ISAs by
/// CPUID/feature probe).
pub fn host_supports(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        Isa::Neon => cfg!(target_arch = "aarch64"),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Every ISA this host can execute, narrowest (scalar) first. The
/// forced-dispatch test batteries iterate this list.
pub fn supported() -> Vec<Isa> {
    Isa::all()
        .into_iter()
        .filter(|&i| host_supports(i))
        .collect()
}

/// Pins the process-wide dispatch decision (tests and autotune sweeps).
/// Returns `false` — leaving the previous
/// setting untouched — when the host cannot execute `isa`: [`effective`]
/// must never name an ISA the machine would fault on. `force(None)`
/// restores runtime detection.
pub fn force(isa: Option<Isa>) -> bool {
    match isa {
        None => {
            FORCED.store(0, Ordering::Relaxed);
            true
        }
        Some(i) => {
            if !host_supports(i) {
                return false;
            }
            FORCED.store(i.index() as u8 + 1, Ordering::Relaxed);
            true
        }
    }
}

/// The ISA kernels should dispatch to right now: the [`force`]d override
/// if one is set, otherwise the [`detected`] best. Guaranteed executable
/// on this host.
pub fn effective() -> Isa {
    let f = FORCED.load(Ordering::Relaxed);
    if f != 0 {
        from_index(f as usize - 1)
    } else {
        detected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_roundtrip() {
        for (i, isa) in Isa::all().into_iter().enumerate() {
            assert_eq!(isa.index(), i);
            assert_eq!(Isa::from_name(isa.name()), Some(isa));
        }
        assert_eq!(Isa::from_name("sse9"), None);
    }

    #[test]
    fn detected_is_supported_and_stable() {
        let d = detected();
        assert!(host_supports(d));
        assert_eq!(detected(), d, "probe must be cached");
        assert!(supported().contains(&Isa::Scalar));
        assert!(supported().contains(&d));
    }

    #[test]
    fn force_refuses_unsupported_and_pins_supported() {
        // Scalar is always forceable.
        assert!(force(Some(Isa::Scalar)));
        assert_eq!(effective(), Isa::Scalar);
        // An ISA foreign to this architecture must be refused, leaving
        // the previous override in place.
        #[cfg(target_arch = "x86_64")]
        {
            assert!(!force(Some(Isa::Neon)));
            assert_eq!(effective(), Isa::Scalar);
        }
        #[cfg(target_arch = "aarch64")]
        {
            assert!(!force(Some(Isa::Avx2)));
            assert_eq!(effective(), Isa::Scalar);
        }
        assert!(force(None));
        assert_eq!(effective(), detected());
    }
}
