//! Deterministic request-fault model for the serving loop.
//!
//! A [`FaultPlan`] is a seeded (xoshiro256**-driven) schedule mapping
//! `(rank, op index)` slots to injected faults. The daemon is one rank
//! (rank 0) and consumes one op index per request evaluation, so a plan
//! replays identically run after run — the determinism contract that
//! makes the adversarial battery (`tests/serve_faults.rs`) a regression
//! suite instead of a flake farm.
//!
//! Fault semantics at the daemon's fault gate (DESIGN.md Sec. 10):
//! - [`FaultKind::Crash`]: the evaluation dies; the request is
//!   re-enqueued (and retires with a typed error past its retry budget).
//! - [`FaultKind::Transient`]: the evaluation fails `failures` times and
//!   is retried with bounded exponential backoff, unless `failures`
//!   exceeds [`FaultPlan::max_retries`].
//! - [`FaultKind::Corrupt`]: the stored artifact is damaged (a torn
//!   write) and the checksummed reader must catch it on the next load.
//! - [`FaultKind::Delay`]: the evaluation stalls — artificial skew.

use bgw_num::Xoshiro256StarStar;
use std::collections::HashMap;

/// What an injected fault does when its `(rank, op index)` slot is hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The evaluation dies at this operation.
    Crash,
    /// The operation fails this many times before it succeeds; each
    /// failure costs one backoff-retried attempt.
    Transient {
        /// Consecutive failures before success.
        failures: u32,
    },
    /// The operation's stored output arrives corrupted this many times.
    Corrupt {
        /// Consecutive corrupted attempts before a clean one.
        repeats: u32,
    },
    /// The operation stalls for this many microseconds (artificial skew).
    Delay {
        /// Stall duration in microseconds.
        micros: u64,
    },
}

/// A seeded, fully reproducible schedule of injected faults.
///
/// Keys are `(rank, op index)` where the op index counts the
/// fault-checkable operations the rank has issued so far. Plans are
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

    /// Adds a crash of `rank` at its `op`-th operation.
    pub fn crash_at(mut self, rank: usize, op: u64) -> Self {
        self.events.insert((rank, op), FaultKind::Crash);
        self
    }

    /// Adds `failures` transient failures on `rank` at its `op`-th
    /// operation.
    pub fn transient_at(mut self, rank: usize, op: u64, failures: u32) -> Self {
        self.events
            .insert((rank, op), FaultKind::Transient { failures });
        self
    }

    /// Adds `repeats` corrupted outputs of `rank` at its `op`-th
    /// operation.
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

    /// The fault scheduled for `rank`'s `op`-th operation, if any.
    pub fn event(&self, rank: usize, op: u64) -> Option<FaultKind> {
        self.events.get(&(rank, op)).copied()
    }

    /// Retry budget for transient faults.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 4, 12, 50);
        let b = FaultPlan::seeded(7, 4, 12, 50);
        let c = FaultPlan::seeded(8, 4, 12, 50);
        assert_eq!(a.events.len(), b.events.len());
        for (k, v) in &a.events {
            assert_eq!(b.events.get(k), Some(v));
        }
        assert!(
            a.events != c.events,
            "different seeds must give different plans"
        );
        assert!(!a.events.is_empty());
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
        assert_eq!(p.events.len(), 4);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = FaultPlan::none();
        assert_eq!(p.backoff_us(0), 20);
        assert_eq!(p.backoff_us(1), 40);
        assert_eq!(p.backoff_us(2), 80);
        assert_eq!(p.backoff_us(30), 2_000, "cap must bound the backoff");
    }
}
