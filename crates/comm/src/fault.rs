//! Deterministic fault model for the simulated MPI runtime.
//!
//! Production GW runs occupy most of a machine for hours — a regime where
//! rank loss and transient link faults are routine events, not exceptions.
//! This module models them *reproducibly*: a [`FaultPlan`] is a seeded
//! (xoshiro256**-driven) schedule mapping `(rank, op index)` slots to
//! injected faults. Every fault-checkable communicator operation (each
//! collective rendezvous, each shrink) consumes exactly one op index on
//! the issuing rank, so a plan replays identically run after run — the
//! determinism contract that makes the
//! adversarial test battery a regression suite instead of a flake farm.
//!
//! Fault semantics (see DESIGN.md Sec. 10 for the full model):
//! - [`FaultKind::Transient`]: the rank's link drops the message `failures`
//!   times; the runtime retries with bounded exponential backoff and the
//!   operation succeeds, unless `failures` exceeds the retry budget, in
//!   which case the op fails with [`CommError::RetriesExhausted`].
//! - [`FaultKind::Corrupt`]: the rank's contribution to a collective
//!   arrives with a failed link-level checksum; every rank of the
//!   communicator observes the same corrupt slot, agrees to retransmit,
//!   and the collective succeeds unless the corruption outlives the retry
//!   budget ([`CommError::CorruptPayload`]).
//! - [`FaultKind::Crash`]: the rank dies permanently. The dying rank gets
//!   [`CommError::SelfCrashed`]; every surviving rank's in-flight or later
//!   operation fails with [`CommError::PeerCrashed`] instead of
//!   deadlocking, after which survivors can agree on a shrunken
//!   communicator via `Comm::shrink`.
//! - [`FaultKind::Delay`]: the rank stalls before the operation —
//!   artificial skew for load-imbalance and straggler experiments.

use bgw_num::Xoshiro256StarStar;
use std::collections::HashMap;

/// What an injected fault does when its `(rank, op index)` slot is hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The rank dies permanently at this operation.
    Crash,
    /// The rank's link fails this many times before the operation
    /// succeeds; each failure costs one backoff-retried attempt.
    Transient {
        /// Consecutive link failures before success.
        failures: u32,
    },
    /// The rank's contribution to a collective arrives corrupted this many
    /// times (simulated link-level checksum failure followed by a
    /// communicator-wide retransmit).
    Corrupt {
        /// Consecutive corrupted attempts before a clean transmission.
        repeats: u32,
    },
    /// The rank stalls for this many microseconds before the operation
    /// (artificial skew).
    Delay {
        /// Stall duration in microseconds.
        micros: u64,
    },
}

/// A seeded, fully reproducible schedule of injected faults.
///
/// Keys are `(rank, op index)` where the op index is the count of
/// fault-checkable operations the rank has issued so far (monotonic across
/// communicator shrinks on the same rank thread). Plans are
/// immutable once built; the same plan against the same program replays
/// the same fault sequence bit for bit.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    events: HashMap<(usize, u64), FaultKind>,
    max_retries: u32,
    backoff_base_us: u64,
    backoff_cap_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// An empty plan: no faults, default retry policy.
    pub fn none() -> Self {
        Self {
            events: HashMap::new(),
            max_retries: 5,
            backoff_base_us: 20,
            backoff_cap_us: 2_000,
        }
    }

    /// Generates `n_events` faults over `n_ranks` ranks and the op-index
    /// window `0..op_window` from a xoshiro256** stream — identical seeds
    /// produce identical plans.
    pub fn seeded(seed: u64, n_ranks: usize, n_events: usize, op_window: u64) -> Self {
        assert!(n_ranks >= 1 && op_window >= 1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut plan = Self::none();
        for _ in 0..n_events {
            let rank = rng.next_below(n_ranks);
            let op = rng.next_u64() % op_window;
            let kind = match rng.next_below(4) {
                // keep rank 0 alive so every seeded plan leaves a survivor
                0 if rank != 0 => FaultKind::Crash,
                1 => FaultKind::Transient {
                    failures: 1 + rng.next_below(3) as u32,
                },
                2 => FaultKind::Corrupt {
                    repeats: 1 + rng.next_below(2) as u32,
                },
                _ => FaultKind::Delay {
                    micros: 10 + rng.next_below(500) as u64,
                },
            };
            plan.events.insert((rank, op), kind);
        }
        plan
    }

    /// Adds a permanent crash of `rank` at its `op`-th operation.
    pub fn crash_at(mut self, rank: usize, op: u64) -> Self {
        self.events.insert((rank, op), FaultKind::Crash);
        self
    }

    /// Adds `failures` transient link failures on `rank` at its `op`-th
    /// operation.
    pub fn transient_at(mut self, rank: usize, op: u64, failures: u32) -> Self {
        self.events
            .insert((rank, op), FaultKind::Transient { failures });
        self
    }

    /// Adds `repeats` corrupted transmissions of `rank`'s contribution at
    /// its `op`-th operation.
    pub fn corrupt_at(mut self, rank: usize, op: u64, repeats: u32) -> Self {
        self.events
            .insert((rank, op), FaultKind::Corrupt { repeats });
        self
    }

    /// Adds an artificial stall of `micros` on `rank` before its `op`-th
    /// operation.
    pub fn delay_at(mut self, rank: usize, op: u64, micros: u64) -> Self {
        self.events.insert((rank, op), FaultKind::Delay { micros });
        self
    }

    /// Overrides the retry budget (attempts beyond the first) for
    /// transient and corruption faults.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// `true` when the plan schedules no faults (the fast path: unarmed
    /// worlds skip all per-op bookkeeping beyond one branch).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The fault scheduled for `rank`'s `op`-th operation, if any.
    pub fn event(&self, rank: usize, op: u64) -> Option<FaultKind> {
        self.events.get(&(rank, op)).copied()
    }

    /// Retry budget for transient/corruption faults.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Bounded exponential backoff delay for retry `attempt` (0-based):
    /// `base * 2^attempt`, capped.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.backoff_base_us
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.backoff_cap_us)
    }
}

/// Typed failure of a communicator operation. The whole point of the fault
/// subsystem: a fault surfaces as one of these instead of a deadlock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// This rank was scheduled to crash at this operation: the closure
    /// should treat it as process death and return.
    SelfCrashed {
        /// World rank of the crashed rank (the caller).
        rank: usize,
        /// Op index at which the crash fired.
        op: u64,
    },
    /// A member of this communicator crashed; the operation cannot
    /// complete. Survivors may call `Comm::shrink` to recover.
    PeerCrashed {
        /// World rank of the first observed crashed peer.
        rank: usize,
    },
    /// A transient fault outlived the bounded-backoff retry budget.
    RetriesExhausted {
        /// World rank that exhausted its retries.
        rank: usize,
        /// Op index of the failing operation.
        op: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// A corrupted collective payload outlived the retransmit budget.
    CorruptPayload {
        /// World rank whose contribution stayed corrupt.
        rank: usize,
        /// Attempts made.
        attempts: u32,
    },
    /// A rank thread panicked; the world is unrecoverable and every rank
    /// receives this error instead of hanging in a collective.
    WorldPoisoned {
        /// Panic message of the first failing rank.
        reason: String,
    },
    /// A blocking wait exceeded its budget on a fault-armed world — the
    /// typed form of "this would have deadlocked".
    Timeout {
        /// World rank that timed out.
        rank: usize,
        /// What the rank was waiting for.
        waiting_for: &'static str,
    },
    /// The shrink-and-retry loop exceeded its recovery budget.
    RecoveryExhausted {
        /// Recovery attempts made.
        attempts: u32,
    },
}

impl CommError {
    /// `true` for errors a surviving rank can recover from by shrinking
    /// the communicator and redistributing work.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, CommError::PeerCrashed { .. })
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::SelfCrashed { rank, op } => {
                write!(f, "rank {rank} crashed (injected) at op {op}")
            }
            CommError::PeerCrashed { rank } => {
                write!(f, "peer rank {rank} crashed; collective aborted")
            }
            CommError::RetriesExhausted { rank, op, attempts } => write!(
                f,
                "rank {rank} exhausted {attempts} retries at op {op} (transient fault persisted)"
            ),
            CommError::CorruptPayload { rank, attempts } => write!(
                f,
                "payload from rank {rank} still corrupt after {attempts} attempts"
            ),
            CommError::WorldPoisoned { reason } => {
                write!(f, "world poisoned by rank panic: {reason}")
            }
            CommError::Timeout { rank, waiting_for } => {
                write!(f, "rank {rank} timed out waiting for {waiting_for}")
            }
            CommError::RecoveryExhausted { attempts } => {
                write!(
                    f,
                    "recovery budget exhausted after {attempts} shrink attempts"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Aggregated fault/recovery counters of one world run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultReport {
    /// Fault events injected (all kinds).
    pub injected: u64,
    /// Retried transmissions (transient backoff retries + collective
    /// retransmits after corruption).
    pub retries: u64,
    /// Permanent rank crashes.
    pub crashes: u64,
    /// Communicator shrinks performed by survivors.
    pub shrinks: u64,
    /// Wall-clock seconds spent inside `Comm::shrink` (summed over ranks).
    pub recovery_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 4, 12, 50);
        let b = FaultPlan::seeded(7, 4, 12, 50);
        let c = FaultPlan::seeded(8, 4, 12, 50);
        assert_eq!(a.len(), b.len());
        for (k, v) in &a.events {
            assert_eq!(b.events.get(k), Some(v));
        }
        assert!(
            a.events != c.events,
            "different seeds must give different plans"
        );
        assert!(!a.is_empty());
    }

    #[test]
    fn seeded_never_crashes_rank_zero() {
        for seed in 0..50 {
            let p = FaultPlan::seeded(seed, 6, 20, 40);
            assert!(
                !p.events
                    .iter()
                    .any(|(&(r, _), &k)| r == 0 && k == FaultKind::Crash),
                "seed {seed} crashed rank 0"
            );
        }
    }

    #[test]
    fn builders_register_events() {
        let p = FaultPlan::none()
            .crash_at(1, 3)
            .transient_at(0, 2, 2)
            .corrupt_at(2, 5, 1)
            .delay_at(3, 0, 100);
        assert_eq!(p.event(1, 3), Some(FaultKind::Crash));
        assert_eq!(p.event(0, 2), Some(FaultKind::Transient { failures: 2 }));
        assert_eq!(p.event(2, 5), Some(FaultKind::Corrupt { repeats: 1 }));
        assert_eq!(p.event(3, 0), Some(FaultKind::Delay { micros: 100 }));
        assert_eq!(p.event(0, 0), None);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = FaultPlan::none();
        assert_eq!(p.backoff_us(0), 20);
        assert_eq!(p.backoff_us(1), 40);
        assert_eq!(p.backoff_us(2), 80);
        assert_eq!(p.backoff_us(30), 2_000, "cap must bound the backoff");
    }

    #[test]
    fn errors_display_and_classify() {
        let e = CommError::PeerCrashed { rank: 3 };
        assert!(e.is_recoverable());
        assert!(e.to_string().contains("3"));
        let e = CommError::SelfCrashed { rank: 1, op: 9 };
        assert!(!e.is_recoverable());
        assert!(e.to_string().contains("op 9"));
        let e = CommError::RetriesExhausted {
            rank: 0,
            op: 1,
            attempts: 6,
        };
        assert!(!e.is_recoverable());
        assert!(e.to_string().contains("6"));
    }
}
