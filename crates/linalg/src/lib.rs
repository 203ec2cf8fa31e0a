//! `bgw-linalg`: dense complex linear algebra.
//!
//! The stand-in for the vendor BLAS/LAPACK stacks (cuBLAS/rocBLAS + Tensile
//! /oneMKL, ScaLAPACK) the paper's kernels dispatch to:
//!
//! - [`gemm`]: one blocked, pooled ZGEMM path plus the triple-loop
//!   reference the tests hold it to (the off-diagonal GPP kernel of
//!   Sec. 5.6 is two ZGEMMs per `(n, E)`).
//! - [`eig`]: Hermitian eigensolver for the static subspace approximation
//!   (Sec. 5.2) and full Dyson solutions.
//! - [`lu`]: pivoted LU for the dielectric-matrix inversion (Eq. 3).
//! - [`matrix`]: the dense row-major complex container shared by all of it.
//! - [`microkernel`]: runtime-dispatched SIMD register-tile kernels
//!   (scalar / NEON / AVX2+FMA / AVX-512F) under the blocked ZGEMM.
//! - [`autotune`]: the persistent per-host record of the kernel/tile sweep
//!   (no GEMM reads it).

#![warn(missing_docs)]

pub mod autotune;
pub mod eig;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod microkernel;

pub use eig::{eigh, eigvalsh, HermitianEig};
pub use gemm::{
    conj_dot, matmul, zgemm, zgemm_flops, zgemm_reference, zgemm_with_microkernel, Op, TileParams,
};
pub use lu::{invert, Lu, SingularMatrix};
pub use matrix::CMatrix;
pub use microkernel::MicroKernel;
