//! `berkeleygw-rs`: a from-scratch Rust reproduction of the exascale
//! quantum many-body GW system described in "Advancing Quantum Many-Body GW
//! Calculations on Exascale Supercomputing Platforms" (SC'25).
//!
//! This root crate re-exports the workspace crates so that examples and
//! downstream users can depend on a single package:
//!
//! - [`num`]: complex arithmetic, Chebyshev-Jackson, Pade, grids.
//! - [`par`]: thread pool and data-parallel primitives.
//! - [`fft`]: batched mixed-radix complex FFTs on 5-smooth sizes (1-D and 3-D).
//! - [`linalg`]: dense complex linear algebra (ZGEMM, eigensolver, LU).
//! - [`pwdft`]: plane-wave empirical-pseudopotential mean field (the DFT
//!   starting point), supercells, defects, Parabands, DFPT perturbations.
//! - [`core`]: the GW engine — MTXEL, CHI/NV-block, Epsilon, static
//!   subspace, full-frequency, GPP Sigma kernels, Dyson, pseudobands, GWPT.
//! - [`perf`]: machine models and FLOP/scaling models for the paper's
//!   Frontier/Aurora/Perlmutter experiments.
//! - [`io`]: binary WFN/epsmat-style file formats (the real-I/O substrate
//!   for the incl.-I/O experiments).
//! - [`trace`]: hierarchical span tracing and machine-readable run reports
//!   that cross-validate the paper's FLOP models (Table 3).
//! - [`serve`]: GW-as-a-service — resident server with a bounded queue,
//!   content-hash artifact caching, request coalescing and priority
//!   order (a batch runs to completion);
//!   a panicking shard fails its tickets instead of hanging them.
//!
//! The paper's three decompositions — G' slices inside a self-energy pool,
//! NV-block band batches and independent perturbations — run in one
//! process (`gpp_sigma_diag_partial`, `ChiEngine::chi_freqs_subset`,
//! `gwpt_for_perturbation`); inter-node communication is modeled in
//! [`perf`], not simulated.

pub use bgw_core as core;
pub use bgw_fft as fft;
pub use bgw_io as io;
pub use bgw_linalg as linalg;
pub use bgw_num as num;
pub use bgw_par as par;
pub use bgw_perf as perf;
pub use bgw_pwdft as pwdft;
pub use bgw_serve as serve;
pub use bgw_trace as trace;
