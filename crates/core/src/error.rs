//! The one error type of the GW drivers.
//!
//! Every driver — one-shot, checkpointed, imaginary-axis — fails with a
//! [`GwError`]: the layer errors it can meet (`Epsilon`, `Io`,
//! `SpaceTime`, `Pade`) wrapped as they are, plus the three conditions
//! the drivers themselves detect.

use crate::epsilon::EpsilonError;
use crate::spacetime::SpaceTimeError;
use bgw_io::IoError;
use bgw_num::pade::PadeError;

/// How a GW run fails.
#[derive(Debug)]
pub enum GwError {
    /// The dielectric matrix is singular or non-finite. An application
    /// condition surfaced as data: checkpoints written before it stay
    /// resumable.
    Epsilon(EpsilonError),
    /// Checkpoint file traffic failed.
    Io(IoError),
    /// The [`CheckpointPolicy::abort_after_writes`] kill switch fired.
    ///
    /// [`CheckpointPolicy::abort_after_writes`]: crate::restart::CheckpointPolicy::abort_after_writes
    Aborted {
        /// Checkpoint writes completed before the abort.
        writes: usize,
    },
    /// A checkpoint decoded cleanly (checksums passed) but its payload
    /// does not fit the run resuming from it: a missing or mis-shaped
    /// matrix, a truncated or old-layout table, a step count inconsistent
    /// with the stored data. Stale residue degrades to this instead of an
    /// index-out-of-bounds panic deep inside the resume path.
    Malformed {
        /// Which resume path rejected the record (`"chi"`, `"epsilon"`,
        /// `"sigma"`, `"evgw"`).
        stage: &'static str,
        /// What failed to validate.
        reason: String,
    },
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
            Self::Io(e) => write!(f, "checkpoint io: {e}"),
            Self::Aborted { writes } => {
                write!(
                    f,
                    "aborted after {writes} checkpoint writes (injected kill)"
                )
            }
            Self::Malformed { stage, reason } => {
                write!(f, "malformed checkpoint ({stage}): {reason}")
            }
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

impl From<IoError> for GwError {
    fn from(e: IoError) -> Self {
        Self::Io(e)
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
