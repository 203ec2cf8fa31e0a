//! `bgw-num`: numerical foundations for the BerkeleyGW reproduction.
//!
//! Provides the scalar complex type every GW kernel is built on,
//! Chebyshev-Jackson expansions for the pseudobands spectral
//! projectors (Sec. 5.3), frequency/energy grids (Secs. 5.2 and 5.6), and
//! small statistics utilities for the stochastic-error analysis and the
//! benchmark harness.

#![warn(missing_docs)]

pub mod chebyshev;
pub mod complex;
pub mod grid;
pub mod minimax;
pub mod pade;
pub mod rng;
pub mod simd;
pub mod stats;

pub use chebyshev::{ChebyshevJackson, SpectralMap};
pub use complex::{c64, Complex64};
pub use grid::UniformGrid;
pub use minimax::{MinimaxGrid, TransformFit};
pub use pade::{PadeApproximant, PadeError};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::RunningStats;

/// Hartree atomic unit of energy expressed in electron-volts.
pub const HARTREE_EV: f64 = 27.211386245988;

/// Rydberg expressed in electron-volts.
pub const RYDBERG_EV: f64 = HARTREE_EV / 2.0;
