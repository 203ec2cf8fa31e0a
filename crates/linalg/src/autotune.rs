//! [`PATH_ENV`] is all this module holds: `benchmark/src/adapter.rs` still
//! sets that variable, until ROADMAP item 6(d) drops the pin and this
//! module with it.
//!
//! No GEMM reads a tuned table and the library writes none: `zgemm` runs
//! the ISA's default kernel at fixed tiles, as the paper's production runs
//! use one vendor ZGEMM per platform (Sec. 7.3), and `repro
//! ablation_gemm_tuning` only prints its kernel x tile sweep.

/// Environment variable the benchmark harness sets; nothing reads it.
pub const PATH_ENV: &str = "BGW_AUTOTUNE_PATH";
