//! `bgw-core`: the GW engine — a from-scratch Rust reproduction of the
//! computational core of BerkeleyGW as described in "Advancing Quantum
//! Many-Body GW Calculations on Exascale Supercomputing Platforms"
//! (SC'25).
//!
//! Pipeline (paper Fig. 1): mean-field bands (from `bgw-pwdft`) ->
//! [`mtxel`] plane-wave matrix elements -> [`chi`] polarizability with the
//! NV-Block algorithm -> [`epsilon`] dielectric inversion -> either the
//! [`gpp`] plasmon-pole model or the sampled full-frequency path
//! ([`sigma::fullfreq`], accelerated by the [`subspace`] approximation) ->
//! [`sigma`] self-energy kernels (diag and ZGEMM-recast off-diag) ->
//! [`dyson`] quasiparticle energies. [`pseudobands`] compresses the band
//! sums (Sec. 5.3) and [`gwpt`] computes electron-phonon coupling at the
//! GW level (Sec. 5.1) for `N_p` perturbations against one shared
//! [`Screening`]. [`service`] spells the pipeline's shared stages once
//! (the spine); [`workflow`] and its sibling drivers run them.

#![warn(missing_docs)]

pub mod chi;
pub mod coulomb;
pub mod dyson;
pub mod epsilon;
pub mod error;
pub mod gpp;
pub mod gwpt;
pub mod mtxel;
pub mod params;
pub mod pseudobands;
pub mod restart;
pub mod service;
pub mod sigma;
pub mod spacetime;
pub mod subspace;
pub mod testkit;
pub mod workflow;

pub use chi::{ChiConfig, ChiEngine};
pub use coulomb::Coulomb;
pub use dyson::{solve_qp_diag, solve_qp_full, QpState};
pub use epsilon::{is_static_freq, EpsilonError, EpsilonInverse};
pub use error::GwError;
pub use gpp::GppModel;
pub use gwpt::{gwpt_for_perturbation, GwptResult};
pub use mtxel::Mtxel;
pub use params::GwParams;
pub use pseudobands::{chebyshev_pseudoband, compress, Pseudobands, PseudobandsConfig};
pub use restart::{run_evgw_checkpointed, run_gpp_gw_checkpointed, CheckpointPolicy, GwStage};
pub use service::{
    band_subset, bands_around_gap, build_screening, ff_eval, gpp_eval_preemptible,
    screening_from_checkpoint, screening_to_checkpoint, sigma_context, sigma_row,
    three_point_grids, FfEvalResult, FfSpec, Screening, SigmaRow, SigmaRows,
};
pub use sigma::diag::{gpp_sigma_diag, gpp_sigma_row, KernelVariant, SigmaDiagResult};
pub use sigma::fullfreq::{
    ff_sigma_diag, ff_sigma_diag_subspace, ff_sigma_diag_subspace_serial, SigmaFfResult,
};
pub use sigma::imagaxis::{imag_axis_sigma_diag, SigmaImagAxisResult};
pub use sigma::offdiag::{gpp_sigma_offdiag, SigmaOffdiagResult};
pub use sigma::SigmaContext;
pub use spacetime::{
    build_imag_epsilon, run_imagaxis_gw, ChiBackend, ImagAxisGwResult, SpaceTimeChi,
    SpaceTimeConfig, SpaceTimeError, SpaceTimeReport,
};
pub use subspace::Subspace;
pub use workflow::{
    run_evgw, run_full_dyson_gw, run_gpp_gw, run_gpp_gw_dag, DagGwResults, EvGwResults,
    FullDysonResults, GwConfig, GwResults, SigmaDims,
};
