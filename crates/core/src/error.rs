//! The one error type of the GW drivers.
//!
//! Every driver — one-shot, full-Dyson, imaginary-axis — fails with a
//! [`GwError`]: the layer errors it can meet (`Epsilon`, `SpaceTime`,
//! `Pade`) wrapped as they are, plus the one condition the drivers
//! themselves detect (`MissingInput`).

use crate::epsilon::EpsilonError;
use crate::spacetime::SpaceTimeError;
use bgw_num::pade::PadeError;

/// How a GW run fails.
#[derive(Debug)]
pub enum GwError {
    /// The dielectric matrix is singular or non-finite. An application
    /// condition surfaced as data: a served screening build fails its
    /// tickets, not the daemon.
    Epsilon(EpsilonError),
    /// The assembly (Dyson solve and gaps) found an input missing: a
    /// Sigma row that was never evaluated, a band energy out of range, or
    /// a band window without the HOMO/LUMO rows.
    MissingInput {
        /// Which input was missing.
        input: &'static str,
    },
    /// The space-time chi0 build failed.
    SpaceTime(SpaceTimeError),
    /// The Pade analytic continuation was degenerate.
    Pade(PadeError),
}

impl std::fmt::Display for GwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Epsilon(e) => write!(f, "epsilon stage: {e}"),
            Self::MissingInput { input } => write!(f, "assembly found input '{input}' missing"),
            Self::SpaceTime(e) => write!(f, "space-time chi0: {e}"),
            Self::Pade(e) => write!(f, "analytic continuation: {e}"),
        }
    }
}

impl std::error::Error for GwError {}

impl From<EpsilonError> for GwError {
    fn from(e: EpsilonError) -> Self {
        Self::Epsilon(e)
    }
}

impl From<SpaceTimeError> for GwError {
    fn from(e: SpaceTimeError) -> Self {
        Self::SpaceTime(e)
    }
}

impl From<PadeError> for GwError {
    fn from(e: PadeError) -> Self {
        Self::Pade(e)
    }
}
