//! `bgw-perf`: performance models for the paper's experiments.
//!
//! Carries the published hardware descriptions of Frontier, Aurora, and
//! Perlmutter (Sec. 6), the FLOP-count models of Eqs. 7-8 with the
//! paper's measured `alpha` prefactors (Table 3), and a time/scaling model
//! that executes the paper's data decompositions symbolically (pools,
//! per-rank `G'` splits, `(n, E)` ZGEMM pairs) and charges calibrated
//! per-unit rates — the documented substitution for the machines we do
//! not have (DESIGN.md Sec. 2).

#![warn(missing_docs)]

pub mod counters;
pub mod flopmodel;
pub mod machine;
pub mod report;
pub mod roofline;
pub mod timemodel;

pub use counters::CounterSnapshot;
pub use flopmodel::{gpp_diag_flops, gpp_offdiag_flops, ALPHA_AURORA, ALPHA_FRONTIER};
pub use machine::Machine;
pub use report::{fmt_secs, Table};
pub use roofline::{attainable, diag_intensity, offdiag_intensity, roofline_point, RooflinePoint};
pub use timemodel::{
    sigma_time, strong_scaling, weak_scaling, Efficiencies, Kernel, ScalingPoint, SigmaWorkload,
    TimeBreakdown,
};
