//! `bgw-comm`: a simulated MPI runtime with deterministic fault injection.
//!
//! The paper's Sigma module distributes the `G'` summation over the MPI
//! ranks of a *self-energy pool* and parallelizes pools over self-energy
//! matrix elements (Sec. 5.5); Epsilon distributes valence bands (the
//! NV-Block algorithm, Sec. 5.2). This crate executes those decompositions
//! for real: each rank is an OS thread, and the collectives the drivers
//! call (allgather, allreduce, and the complex elementwise-sum allreduce)
//! run over shared memory with exact per-rank traffic accounting.
//!
//! The traffic statistics feed the `bgw-perf` time model, which converts
//! *executed* communication volume into modeled wall-clock on the paper's
//! machines — the documented substitution for not owning 9,408 Frontier
//! nodes (see DESIGN.md Sec. 2).
//!
//! # Fault model
//!
//! Production GW runs hold most of a machine for hours, a regime where
//! rank loss and transient link faults are routine. The [`fault`] module
//! injects them deterministically: a seeded [`FaultPlan`] maps
//! `(rank, op index)` slots to crashes, transient failures, payload
//! corruption, or artificial skew. Every *primitive* operation — the
//! allgather rendezvous (which the allreduces funnel through) and shrink —
//! consumes exactly one op index on the issuing rank, so a plan replays
//! identically. Faults surface through the fallible `try_*` API as typed
//! [`CommError`]s instead of deadlocks; transient faults are retried with
//! bounded exponential backoff; after a peer crash the survivors agree on
//! a shrunken communicator via [`Comm::shrink`]. Every operation has the
//! one fallible spelling; a caller that cannot meet a fault (an unarmed
//! [`run_world`]) says so with `.expect` at its own edge. See DESIGN.md
//! Sec. 10.

#![warn(missing_docs)]

pub mod fault;

pub use fault::{CommError, FaultKind, FaultPlan, FaultReport};

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Polling period of every blocking wait: short enough that poisoning
/// (a crash or panic anywhere in the world) is observed promptly, long
/// enough to cost nothing — the common wakeup path is still the condvar
/// notification.
const POLL: Duration = Duration::from_millis(25);

/// Wait budget on fault-armed worlds. A wait exceeding this surfaces as
/// [`CommError::Timeout`] — the typed form of "this would have
/// deadlocked". Unarmed worlds (empty plan) wait indefinitely, like the
/// pre-fault runtime, but still observe poisoning.
const WAIT_BUDGET: Duration = Duration::from_secs(30);

/// Payload trait: anything sent through a communicator, with a byte size
/// used for traffic accounting.
pub trait CommData: Clone + Send + 'static {
    /// Wire size of one value when it is the same for *every* value of
    /// the type, `None` for variable-size payloads (`Vec`, `Option`,
    /// tuples containing them). Containers use this to account a hot
    /// `Vec<f64>` / `Vec<Complex64>` collective in O(1) instead of
    /// walking every element.
    const FIXED_BYTES: Option<usize> = Some(std::mem::size_of::<Self>());

    /// Approximate wire size in bytes.
    fn comm_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl CommData for u8 {}
impl CommData for u32 {}
impl CommData for u64 {}
impl CommData for usize {}
impl CommData for i32 {}
impl CommData for i64 {}
impl CommData for f32 {}
impl CommData for f64 {}
impl CommData for bool {}
impl CommData for bgw_num::Complex64 {}
impl<A: CommData, B: CommData> CommData for (A, B) {
    const FIXED_BYTES: Option<usize> = match (A::FIXED_BYTES, B::FIXED_BYTES) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };

    fn comm_bytes(&self) -> usize {
        self.0.comm_bytes() + self.1.comm_bytes()
    }
}
impl<T: CommData> CommData for Vec<T> {
    const FIXED_BYTES: Option<usize> = None;

    fn comm_bytes(&self) -> usize {
        // Fixed-size elements: O(1) accounting, identical to the sum the
        // per-element walk used to produce.
        match T::FIXED_BYTES {
            Some(b) => self.len() * b,
            None => self.iter().map(|x| x.comm_bytes()).sum(),
        }
    }
}
impl<T: CommData> CommData for Option<T> {
    const FIXED_BYTES: Option<usize> = None;

    fn comm_bytes(&self) -> usize {
        self.as_ref().map_or(0, |x| x.comm_bytes())
    }
}

/// Per-rank communication counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    /// Bytes contributed to collectives.
    pub bytes_sent: u64,
    /// Bytes read from collectives.
    pub bytes_received: u64,
    /// Number of collective operations entered.
    pub collectives: u64,
    /// Retried transmissions: transient-fault backoff retries plus
    /// collective retransmits after a corrupted payload.
    pub retries: u64,
    /// Fault events injected on this rank by the world's [`FaultPlan`].
    pub faults_injected: u64,
}

#[derive(Default)]
struct StatsCell {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    collectives: AtomicU64,
    retries: AtomicU64,
    faults_injected: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> CommStats {
        CommStats {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            collectives: self.collectives.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

/// World-level poison state: which root-world ranks died, and whether a
/// rank panicked with a non-fault payload (unrecoverable).
#[derive(Default)]
struct PoisonInfo {
    /// Root-world ranks that permanently stopped participating (injected
    /// crash, exhausted retries, or a closure that returned an error).
    crashed: Vec<usize>,
    /// Panic message of the first genuinely-panicking rank; fatal to the
    /// whole world, shrink included.
    panic_reason: Option<String>,
}

/// State shared by *every* communicator derived from one `run_world`:
/// the fault plan, the poison state, the shrink registry, and the
/// world-level fault counters. Shrinks hand out new [`WorldShared`]s but
/// always the same `RootState`, which is what lets a crash in one
/// communicator promptly fail waits in every other.
struct RootState {
    plan: FaultPlan,
    /// Fast-path flag: no wait bothers locking `poison` until this is set.
    maybe_poisoned: AtomicBool,
    poison: Mutex<PoisonInfo>,
    /// Allocator for `WorldShared::id` (shrink registry keys).
    world_ids: AtomicU64,
    /// Shrink rendezvous registry, keyed by `(world id, shrink seq)`.
    shrinks: Mutex<HashMap<(u64, u64), ShrinkEntry>>,
    shrink_cv: Condvar,
    injected: AtomicU64,
    retries: AtomicU64,
    crashes: AtomicU64,
    shrink_count: AtomicU64,
    recovery_ns: AtomicU64,
}

impl RootState {
    fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(Self {
            plan,
            maybe_poisoned: AtomicBool::new(false),
            poison: Mutex::new(PoisonInfo::default()),
            world_ids: AtomicU64::new(0),
            shrinks: Mutex::new(HashMap::new()),
            shrink_cv: Condvar::new(),
            injected: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            shrink_count: AtomicU64::new(0),
            recovery_ns: AtomicU64::new(0),
        })
    }

    /// Marks a root-world rank as permanently dead. Idempotent. `counted`
    /// distinguishes real crashes (injected crash, dead link) from the
    /// bookkeeping mark the scaffold applies to any rank whose closure
    /// exits with an error — the latter must not inflate the crash
    /// counters.
    fn mark_crashed(&self, root_rank: usize, counted: bool) {
        let mut info = self.poison.lock().unwrap();
        if !info.crashed.contains(&root_rank) {
            info.crashed.push(root_rank);
            if counted {
                self.crashes.fetch_add(1, Ordering::Relaxed);
                bgw_perf::counters::record_comm_crash();
            }
        }
        drop(info);
        self.maybe_poisoned.store(true, Ordering::Release);
        self.shrink_cv.notify_all();
    }

    /// Records a genuine (non-fault) rank panic; fatal to the world.
    fn poison_panic(&self, reason: String) {
        let mut info = self.poison.lock().unwrap();
        if info.panic_reason.is_none() {
            info.panic_reason = Some(reason);
        }
        drop(info);
        self.maybe_poisoned.store(true, Ordering::Release);
        self.shrink_cv.notify_all();
    }

    fn record_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        bgw_perf::counters::record_comm_fault();
    }

    fn report(&self) -> FaultReport {
        FaultReport {
            injected: self.injected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            shrinks: self.shrink_count.load(Ordering::Relaxed),
            recovery_seconds: self.recovery_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// One rank's contribution to a collective rendezvous. `corrupt` models a
/// failed link-level checksum: every rank observes the same flag, agrees
/// the attempt failed, and retransmits under the next attempt key.
struct Slot {
    value: BoxedAny,
    corrupt: bool,
}

/// Rendezvous state of one collective attempt, keyed by
/// `(collective seq, attempt)`.
struct SlotEntry {
    values: Vec<Option<Slot>>,
    /// Ranks that have consumed the filled entry; the last one removes it.
    readers: usize,
}

impl SlotEntry {
    fn new(n: usize) -> Self {
        let mut values = Vec::with_capacity(n);
        values.resize_with(n, || None);
        Self { values, readers: 0 }
    }

    fn filled(&self) -> bool {
        self.values.iter().all(|s| s.is_some())
    }
}

/// Shrink rendezvous: survivors register; the first rank to observe that
/// every communicator rank is either registered or crashed freezes the
/// survivor set *under the registry lock* (so stragglers cannot disagree
/// about membership) and builds the new shared world.
#[derive(Default)]
struct ShrinkEntry {
    registered: Vec<usize>,
    frozen: Option<Arc<ShrinkResult>>,
    taken: usize,
}

struct ShrinkResult {
    /// Surviving *old* communicator ranks, sorted; the new rank of a
    /// survivor is its position in this list.
    survivors: Vec<usize>,
    shared: Arc<WorldShared>,
}

type BoxedAny = Box<dyn Any + Send>;

/// State shared by all ranks of one communicator.
struct WorldShared {
    /// Unique id within the root world (shrink registry key component).
    id: u64,
    size: usize,
    /// Communicator rank → root-world rank. Crash detection is scoped to
    /// this group: a crash only fails communicators the dead rank belongs
    /// to, which is what lets a *shrunken* communicator keep working.
    group: Vec<usize>,
    root: Arc<RootState>,
    /// Rendezvous slots for collectives, keyed by (collective seq, attempt).
    slots: Mutex<HashMap<(u64, u32), SlotEntry>>,
    slots_cv: Condvar,
    stats: Vec<StatsCell>,
}

impl WorldShared {
    fn new(root: Arc<RootState>, group: Vec<usize>) -> Arc<Self> {
        let size = group.len();
        let id = root.world_ids.fetch_add(1, Ordering::Relaxed);
        Arc::new(Self {
            id,
            size,
            group,
            root,
            slots: Mutex::new(HashMap::new()),
            slots_cv: Condvar::new(),
            stats: (0..size).map(|_| StatsCell::default()).collect(),
        })
    }
}

/// A rank's handle to a communicator (the analogue of an `MPI_Comm` plus
/// the calling rank).
///
/// Every operation is fallible: the `try_*` methods (and
/// [`shrink`](Comm::shrink)) return `Result<_, CommError>`, which is where
/// faults surface. On an unarmed world they never fail.
pub struct Comm {
    rank: usize,
    shared: Arc<WorldShared>,
    /// Per-rank collective sequence counter; all ranks of a communicator
    /// must issue collectives in the same order (MPI semantics).
    seq: Cell<u64>,
    /// Fault-plan op counter, shared by every `Comm` handle of this rank
    /// thread (shrinks clone it), so op indices stay monotonic
    /// per rank regardless of which communicator issues the operation.
    /// The `Rc` makes `Comm: !Send` — handles never leave their rank
    /// thread, which `run_world` guarantees by construction.
    ops: Rc<Cell<u64>>,
    /// Per-communicator shrink sequence counter.
    shrink_seq: Cell<u64>,
}

impl Comm {
    /// This rank's index in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// This rank's rank in the *root* world (stable across shrinks; fault
    /// plans are keyed by it).
    pub fn world_rank(&self) -> usize {
        self.shared.group[self.rank]
    }

    /// Communicator rank → root-world rank map of this communicator.
    pub fn group(&self) -> &[usize] {
        &self.shared.group
    }

    fn stats_cell(&self) -> &StatsCell {
        &self.shared.stats[self.rank]
    }

    /// Snapshot of this rank's traffic counters.
    pub fn stats(&self) -> CommStats {
        self.stats_cell().snapshot()
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// `true` when the world carries a non-empty fault plan. Only armed
    /// worlds enforce the `WAIT_BUDGET`; unarmed worlds keep the
    /// pre-fault "wait forever" semantics.
    fn armed(&self) -> bool {
        !self.shared.root.plan.is_empty()
    }

    fn deadline(&self) -> Option<Instant> {
        self.armed().then(|| Instant::now() + WAIT_BUDGET)
    }

    /// Fatal-poison check: a genuine panic anywhere in the world fails
    /// every operation, recovery included.
    fn check_world_panic(&self) -> Result<(), CommError> {
        let root = &self.shared.root;
        if !root.maybe_poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        let info = root.poison.lock().unwrap();
        if let Some(reason) = &info.panic_reason {
            return Err(CommError::WorldPoisoned {
                reason: reason.clone(),
            });
        }
        Ok(())
    }

    /// Snapshot of the crashed root-world ranks (empty in the common,
    /// unpoisoned case).
    fn crashed_ranks(&self) -> Vec<usize> {
        let root = &self.shared.root;
        if !root.maybe_poisoned.load(Ordering::Acquire) {
            return Vec::new();
        }
        root.poison.lock().unwrap().crashed.clone()
    }

    fn record_retry(&self) {
        self.stats_cell().retries.fetch_add(1, Ordering::Relaxed);
        self.shared.root.retries.fetch_add(1, Ordering::Relaxed);
        bgw_perf::counters::record_comm_retry();
    }

    fn backoff(&self, attempt: u32) {
        let _span = bgw_trace::span!("comm.retry");
        std::thread::sleep(Duration::from_micros(
            self.shared.root.plan.backoff_us(attempt),
        ));
    }

    /// Consumes one op index and applies any fault scheduled for it.
    /// Returns the number of corrupted transmissions to simulate (0 for
    /// no corruption) — only the slot-rendezvous collectives can model
    /// corruption faithfully; shrink degrades it via
    /// [`Comm::degrade_corrupt`].
    fn fault_gate(&self) -> Result<u32, CommError> {
        let op = self.ops.get();
        self.ops.set(op + 1);
        let root = &self.shared.root;
        if root.plan.is_empty() {
            return Ok(0);
        }
        let me = self.world_rank();
        match root.plan.event(me, op) {
            None => Ok(0),
            Some(FaultKind::Delay { micros }) => {
                root.record_injected();
                self.stats_cell()
                    .faults_injected
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(micros));
                Ok(0)
            }
            Some(FaultKind::Crash) => {
                root.record_injected();
                self.stats_cell()
                    .faults_injected
                    .fetch_add(1, Ordering::Relaxed);
                root.mark_crashed(me, true);
                Err(CommError::SelfCrashed { rank: me, op })
            }
            Some(FaultKind::Transient { failures }) => {
                root.record_injected();
                self.stats_cell()
                    .faults_injected
                    .fetch_add(1, Ordering::Relaxed);
                let budget = root.plan.max_retries();
                let tries = failures.min(budget);
                for a in 0..tries {
                    self.backoff(a);
                    self.record_retry();
                }
                if failures > budget {
                    // The link never came back: this rank stops
                    // participating, which poisons its communicators so
                    // peers fail promptly instead of waiting forever.
                    root.mark_crashed(me, true);
                    return Err(CommError::RetriesExhausted {
                        rank: me,
                        op,
                        attempts: budget,
                    });
                }
                Ok(0)
            }
            Some(FaultKind::Corrupt { repeats }) => {
                root.record_injected();
                self.stats_cell()
                    .faults_injected
                    .fetch_add(1, Ordering::Relaxed);
                Ok(repeats)
            }
        }
    }

    /// Corruption on an op without a slot rendezvous (shrink) degrades to
    /// transient-style local retries: the link-level checksum failure is
    /// retried point-to-point without involving the group.
    fn degrade_corrupt(&self, repeats: u32) -> Result<(), CommError> {
        if repeats == 0 {
            return Ok(());
        }
        let budget = self.shared.root.plan.max_retries();
        let tries = repeats.min(budget);
        for a in 0..tries {
            self.backoff(a);
            self.record_retry();
        }
        if repeats > budget {
            let me = self.world_rank();
            self.shared.root.mark_crashed(me, true);
            return Err(CommError::CorruptPayload {
                rank: me,
                attempts: budget,
            });
        }
        Ok(())
    }

    /// The rendezvous engine behind every collective: publish one slot
    /// per rank under `(seq, attempt)`, wait for the entry to fill,
    /// retransmit on observed corruption.
    ///
    /// Failure is *deterministic*: an attempt fails if and only if some
    /// member never publishes its slot, which happens exactly when that
    /// member's fault plan kills it before this collective — not when a
    /// waiting rank happens to poll the poison state at an unlucky
    /// moment. A crashed member whose slot is already present does not
    /// fail the collective.
    fn rendezvous<T: CommData>(
        &self,
        value: T,
        corrupt_repeats: u32,
        waiting_for: &'static str,
    ) -> Result<Vec<T>, CommError> {
        let _span = bgw_trace::span!("comm.collective");
        bgw_perf::counters::record_comm_collective();
        let seq = self.next_seq();
        let n = self.size();
        let deadline = self.deadline();
        let max_retries = self.shared.root.plan.max_retries();
        let mut attempt: u32 = 0;
        loop {
            let corrupt = attempt < corrupt_repeats;
            {
                let mut slots = self.shared.slots.lock().unwrap();
                let entry = slots
                    .entry((seq, attempt))
                    .or_insert_with(|| SlotEntry::new(n));
                entry.values[self.rank] = Some(Slot {
                    value: Box::new(value.clone()),
                    corrupt,
                });
                self.shared.slots_cv.notify_all();
            }
            // Wait for the attempt to fill, then read it exactly once per
            // rank; the last reader removes the entry (no trailing
            // rendezvous needed — the next collective uses a fresh key).
            let outcome: Result<Result<Vec<T>, usize>, CommError> = loop {
                let mut slots = self.shared.slots.lock().unwrap();
                let entry = slots.get_mut(&(seq, attempt)).expect("slots vanished");
                if entry.filled() {
                    let bad = entry
                        .values
                        .iter()
                        .position(|s| s.as_ref().is_some_and(|s| s.corrupt));
                    let read = match bad {
                        Some(idx) => Err(self.shared.group[idx]),
                        None => Ok(entry
                            .values
                            .iter()
                            .map(|s| {
                                s.as_ref()
                                    .expect("slot filled")
                                    .value
                                    .downcast_ref::<T>()
                                    .expect("collective type mismatch across ranks")
                                    .clone()
                            })
                            .collect::<Vec<T>>()),
                    };
                    entry.readers += 1;
                    if entry.readers == n {
                        slots.remove(&(seq, attempt));
                    }
                    break Ok(read);
                }
                // Unfilled: fail only if the entry can never fill — a
                // dead member has not published its slot.
                let crashed = self.crashed_ranks();
                if !crashed.is_empty() {
                    if let Err(e) = self.check_world_panic() {
                        break Err(e);
                    }
                    let dead_unpublished = (0..n).find(|&i| {
                        entry.values[i].is_none() && crashed.contains(&self.shared.group[i])
                    });
                    if let Some(i) = dead_unpublished {
                        break Err(CommError::PeerCrashed {
                            rank: self.shared.group[i],
                        });
                    }
                }
                let (guard, _) = self.shared.slots_cv.wait_timeout(slots, POLL).unwrap();
                drop(guard);
                if deadline.is_some_and(|d| Instant::now() > d) {
                    break Err(CommError::Timeout {
                        rank: self.world_rank(),
                        waiting_for,
                    });
                }
            };
            match outcome? {
                Ok(out) => return Ok(out),
                Err(corrupt_rank) => {
                    // Whole group observed the failed checksum and agrees
                    // to retransmit — or to give up, identically, once the
                    // budget is spent.
                    if attempt >= max_retries {
                        return Err(CommError::CorruptPayload {
                            rank: corrupt_rank,
                            attempts: attempt + 1,
                        });
                    }
                    attempt += 1;
                    self.record_retry();
                }
            }
        }
    }

    /// The fundamental rendezvous: every rank contributes one value and
    /// receives everyone's values in rank order. Injected corruption is
    /// observed by the whole group, which agrees to retransmit under a
    /// fresh attempt key; persistent corruption (beyond the retry budget)
    /// fails every rank with [`CommError::CorruptPayload`].
    pub fn try_allgather<T: CommData>(&self, value: T) -> Result<Vec<T>, CommError> {
        let corrupt_repeats = self.fault_gate()?;
        let n = self.size();
        let bytes = value.comm_bytes() as u64;
        let cell = self.stats_cell();
        cell.collectives.fetch_add(1, Ordering::Relaxed);
        cell.bytes_sent
            .fetch_add(bytes * (n as u64 - 1), Ordering::Relaxed);
        let out = self.rendezvous(value, corrupt_repeats, "allgather")?;
        let recv_bytes: u64 = out.iter().map(|x| x.comm_bytes() as u64).sum();
        cell.bytes_received
            .fetch_add(recv_bytes.saturating_sub(bytes), Ordering::Relaxed);
        Ok(out)
    }

    /// Reduction to all ranks with a caller-supplied associative fold.
    pub fn try_allreduce<T: CommData, F: Fn(T, T) -> T>(
        &self,
        value: T,
        op: F,
    ) -> Result<T, CommError> {
        let gathered = self.try_allgather(value)?;
        let mut it = gathered.into_iter();
        let first = it.next().expect("empty communicator");
        Ok(it.fold(first, op))
    }

    /// Elementwise vector sum allreduce for complex payloads — the pattern
    /// of the two-stage GPP kernel reduction (paper Sec. 5.5.1, item 5).
    pub fn try_allreduce_sum_c64(
        &self,
        value: Vec<bgw_num::Complex64>,
    ) -> Result<Vec<bgw_num::Complex64>, CommError> {
        self.try_allreduce(value, |mut a, b| {
            assert_eq!(a.len(), b.len(), "allreduce length mismatch");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        })
    }

    /// Agrees with the surviving ranks on a shrunken communicator after a
    /// peer crash ([`CommError::PeerCrashed`]). Every survivor must call
    /// `shrink` the same number of times; dead ranks are excluded and the
    /// survivors are renumbered densely (old rank order preserved), ready
    /// for work redistribution via the usual `row_range` decomposition.
    ///
    /// The first survivor to observe that every communicator rank is
    /// either registered or crashed freezes the survivor set under the
    /// registry lock, so late arrivals cannot disagree about membership.
    /// Shrink always runs under the `WAIT_BUDGET` and never deadlocks;
    /// a genuine panic anywhere in the world still aborts it with
    /// [`CommError::WorldPoisoned`].
    pub fn shrink(&self) -> Result<Comm, CommError> {
        let _span = bgw_trace::span!("comm.shrink");
        let t0 = Instant::now();
        let repeats = self.fault_gate()?;
        self.degrade_corrupt(repeats)?;
        let sseq = self.shrink_seq.get();
        self.shrink_seq.set(sseq + 1);
        let root = self.shared.root.clone();
        let reg_key = (self.shared.id, sseq);
        {
            let mut reg = root.shrinks.lock().unwrap();
            let entry = reg.entry(reg_key).or_default();
            if !entry.registered.contains(&self.rank) {
                entry.registered.push(self.rank);
            }
            root.shrink_cv.notify_all();
        }
        let deadline = Instant::now() + WAIT_BUDGET;
        let result: Arc<ShrinkResult> = {
            let mut reg = root.shrinks.lock().unwrap();
            loop {
                // A genuine panic is fatal even to recovery.
                {
                    let info = root.poison.lock().unwrap();
                    if let Some(reason) = &info.panic_reason {
                        return Err(CommError::WorldPoisoned {
                            reason: reason.clone(),
                        });
                    }
                }
                let entry = reg.get_mut(&reg_key).expect("shrink entry vanished");
                if entry.frozen.is_none() {
                    let crashed: Vec<usize> = {
                        let info = root.poison.lock().unwrap();
                        (0..self.size())
                            .filter(|&r| info.crashed.contains(&self.shared.group[r]))
                            .collect()
                    };
                    let accounted = (0..self.size())
                        .all(|r| entry.registered.contains(&r) || crashed.contains(&r));
                    if accounted {
                        let mut survivors = entry.registered.clone();
                        survivors.sort_unstable();
                        let new_group: Vec<usize> =
                            survivors.iter().map(|&r| self.shared.group[r]).collect();
                        entry.frozen = Some(Arc::new(ShrinkResult {
                            survivors,
                            shared: WorldShared::new(root.clone(), new_group),
                        }));
                        root.shrink_cv.notify_all();
                    }
                }
                let entry = reg.get_mut(&reg_key).expect("shrink entry vanished");
                if let Some(frozen) = &entry.frozen {
                    let frozen = frozen.clone();
                    entry.taken += 1;
                    if entry.taken == frozen.survivors.len() {
                        reg.remove(&reg_key);
                    }
                    break frozen;
                }
                let (guard, _) = root.shrink_cv.wait_timeout(reg, POLL).unwrap();
                reg = guard;
                if Instant::now() > deadline {
                    return Err(CommError::Timeout {
                        rank: self.world_rank(),
                        waiting_for: "shrink",
                    });
                }
            }
        };
        let new_rank = result
            .survivors
            .iter()
            .position(|&r| r == self.rank)
            .expect("shrinking rank must be a survivor");
        let ns = t0.elapsed().as_nanos() as u64;
        root.shrink_count.fetch_add(1, Ordering::Relaxed);
        root.recovery_ns.fetch_add(ns, Ordering::Relaxed);
        bgw_perf::counters::record_comm_shrink(ns);
        Ok(Comm {
            rank: new_rank,
            shared: result.shared.clone(),
            seq: Cell::new(0),
            ops: Rc::clone(&self.ops),
            shrink_seq: Cell::new(0),
        })
    }
}

/// Outcome of [`try_run_world`]: per-rank results (a rank that crashed,
/// exhausted retries, or returned an error reports its typed error),
/// per-rank traffic statistics, and the world-level fault/recovery
/// counters.
#[derive(Debug)]
pub struct WorldReport<R> {
    /// Per-rank closure results, index = root-world rank.
    pub results: Vec<Result<R, CommError>>,
    /// Per-rank traffic statistics of the *root* communicator.
    pub stats: Vec<CommStats>,
    /// World-level fault/recovery counters.
    pub faults: FaultReport,
}

impl<R> WorldReport<R> {
    /// `true` when every rank returned `Ok`.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// The first error in rank order, if any.
    pub fn first_error(&self) -> Option<&CommError> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }
}

/// Spawns `size` rank threads under the given [`FaultPlan`] and runs `f`
/// on each with its [`Comm`] handle. Never hangs: every injected fault or
/// rank panic surfaces as a typed per-rank `Err` in the report.
pub fn try_run_world<R, F>(size: usize, plan: FaultPlan, f: F) -> WorldReport<R>
where
    R: Send,
    F: Fn(&Comm) -> Result<R, CommError> + Send + Sync,
{
    assert!(size >= 1, "world needs at least one rank");
    let root = RootState::new(plan);
    let shared = WorldShared::new(root.clone(), (0..size).collect());
    let mut results: Vec<Result<R, CommError>> = Vec::with_capacity(size);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let shared = shared.clone();
            let root = &root;
            let f = &f;
            handles.push(s.spawn(move || {
                let comm = Comm {
                    rank,
                    shared,
                    seq: Cell::new(0),
                    ops: Rc::new(Cell::new(0)),
                    shrink_seq: Cell::new(0),
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                match outcome {
                    Ok(res) => {
                        if res.is_err() {
                            // The rank bailed out; peers must not wait
                            // for it in later collectives.
                            root.mark_crashed(rank, false);
                        }
                        res
                    }
                    Err(payload) => {
                        // A panic (assertion failure, bug): fatal to the
                        // whole world, shrink included.
                        let reason = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "opaque panic payload".to_string());
                        root.poison_panic(reason.clone());
                        root.mark_crashed(rank, true);
                        Err(CommError::WorldPoisoned { reason })
                    }
                }
            }));
        }
        for h in handles {
            // Rank threads can no longer hang: every blocking wait inside
            // the runtime observes poisoning, so join always completes.
            results.push(h.join().expect("rank scaffold panicked"));
        }
    });
    let stats = shared.stats.iter().map(|c| c.snapshot()).collect();
    WorldReport {
        results,
        stats,
        faults: root.report(),
    }
}

/// Spawns `size` rank threads, runs `f` on each with its [`Comm`] handle,
/// and returns the per-rank results (index = rank) together with the
/// per-rank traffic statistics.
///
/// A panic in any rank closure no longer hangs the peers: it poisons the
/// world, every blocked collective fails with
/// [`CommError::WorldPoisoned`], and `run_world` re-panics with the
/// original rank's reason after all threads have exited.
pub fn run_world<R, F>(size: usize, f: F) -> (Vec<R>, Vec<CommStats>)
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let report = try_run_world(size, FaultPlan::none(), |c| Ok(f(c)));
    let mut out = Vec::with_capacity(size);
    for (rank, res) in report.results.into_iter().enumerate() {
        match res {
            Ok(r) => out.push(r),
            Err(CommError::WorldPoisoned { reason }) => {
                panic!("rank thread panicked: {reason}")
            }
            Err(e) => panic!("rank {rank} failed: {e}"),
        }
    }
    (out, report.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_num::c64;

    /// `run_world` for a fallible rank body on an unarmed world.
    fn world<R: Send>(
        size: usize,
        f: impl Fn(&Comm) -> Result<R, CommError> + Send + Sync,
    ) -> (Vec<R>, Vec<CommStats>) {
        run_world(size, |c| f(c).expect("unarmed world"))
    }

    #[test]
    fn world_runs_every_rank() {
        let (out, stats) = run_world(4, |c| c.rank() * 10 + c.size());
        assert_eq!(out, vec![4, 14, 24, 34]);
        assert_eq!(stats.len(), 4);
    }

    #[test]
    fn allgather_orders_by_rank() {
        let (out, _) = world(5, |c| c.try_allgather(c.rank() as u64 * 2));
        for gathered in out {
            assert_eq!(gathered, vec![0, 2, 4, 6, 8]);
        }
    }

    #[test]
    fn allreduce_sums() {
        let (out, _) = world(6, |c| c.try_allreduce(c.rank() as u64 + 1, |a, b| a + b));
        assert_eq!(out, vec![21; 6]);
    }

    #[test]
    fn allreduce_sum_c64_elementwise() {
        let (out, _) = world(3, |c| {
            let v = vec![c64(c.rank() as f64, 1.0), c64(0.0, c.rank() as f64)];
            c.try_allreduce_sum_c64(v)
        });
        for o in out {
            assert_eq!(o[0], c64(3.0, 3.0));
            assert_eq!(o[1], c64(0.0, 3.0));
        }
    }

    #[test]
    fn traffic_accounting_counts_collectives() {
        let (_, stats) = world(3, |c| c.try_allgather(1.0f64));
        for st in &stats {
            assert_eq!(st.collectives, 1);
            assert_eq!(st.bytes_sent, 16); // 8 bytes to each of 2 peers
            assert_eq!(st.bytes_received, 16);
        }
    }

    #[test]
    fn single_rank_world() {
        let (out, _) = world(1, |c| {
            let g = c.try_allgather(5u64)?;
            let r = c.try_allreduce(3u64, |a, b| a + b)?;
            Ok((g, r))
        });
        assert_eq!(out[0], (vec![5], 3));
    }

    #[test]
    fn comm_bytes_fixed_size_fast_path_matches_element_walk() {
        // Regression guard for the O(1) Vec accounting: reported byte
        // counts must be exactly what the per-element walk produced.
        let v64 = vec![1.5f64; 1000];
        assert_eq!(
            v64.comm_bytes(),
            v64.iter().map(|x| x.comm_bytes()).sum::<usize>()
        );
        assert_eq!(v64.comm_bytes(), 8000);
        let vc: Vec<bgw_num::Complex64> = vec![bgw_num::c64(1.0, -2.0); 333];
        assert_eq!(
            vc.comm_bytes(),
            vc.iter().map(|x| x.comm_bytes()).sum::<usize>()
        );
        assert_eq!(vc.comm_bytes(), 333 * 16);
        // Tuples of fixed types compose into a fixed size (field sum, not
        // size_of the padded tuple — same as the old override).
        let vt: Vec<(u32, f64)> = vec![(7, 3.0); 50];
        assert_eq!(<(u32, f64) as CommData>::FIXED_BYTES, Some(12));
        assert_eq!(
            vt.comm_bytes(),
            vt.iter().map(|x| x.comm_bytes()).sum::<usize>()
        );
        assert_eq!(vt.comm_bytes(), 50 * 12);
        // Variable-size elements still take the element walk.
        assert_eq!(<Vec<f64> as CommData>::FIXED_BYTES, None);
        let nested: Vec<Vec<f64>> = vec![vec![0.0; 3], vec![0.0; 5]];
        assert_eq!(nested.comm_bytes(), 8 * 8);
        let opts: Vec<Option<u64>> = vec![Some(1), None, Some(3)];
        assert_eq!(opts.comm_bytes(), 16);
        // Empty vectors report zero either way.
        assert_eq!(Vec::<f64>::new().comm_bytes(), 0);
    }

    #[test]
    fn allgather_synchronizes_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let (out, _) = world(4, |c| {
            phase1.fetch_add(1, Ordering::SeqCst);
            c.try_allgather(0u8)?;
            // after the rendezvous every rank must observe all 4 increments
            Ok(phase1.load(Ordering::SeqCst))
        });
        assert_eq!(out, vec![4; 4]);
    }

    // ---- fault injection ----

    #[test]
    fn crash_surfaces_typed_errors_not_deadlock() {
        // Rank 1 dies at its first op (the allgather); rank 0 and 2 get
        // PeerCrashed instead of hanging.
        let plan = FaultPlan::none().crash_at(1, 0);
        let report = try_run_world(3, plan, |c| c.try_allgather(c.rank() as u64));
        assert_eq!(
            report.results[1],
            Err(CommError::SelfCrashed { rank: 1, op: 0 })
        );
        for r in [0, 2] {
            assert_eq!(report.results[r], Err(CommError::PeerCrashed { rank: 1 }));
        }
        assert_eq!(report.faults.crashes, 1);
        assert_eq!(report.faults.injected, 1);
    }

    #[test]
    fn transient_fault_retries_and_succeeds() {
        let plan = FaultPlan::none().transient_at(1, 0, 2);
        let report = try_run_world(3, plan, |c| c.try_allreduce(c.rank() as u64, |a, b| a + b));
        for r in &report.results {
            assert_eq!(*r, Ok(3));
        }
        assert_eq!(report.faults.injected, 1);
        assert_eq!(report.faults.retries, 2);
        assert_eq!(report.stats[1].retries, 2);
        assert_eq!(report.stats[1].faults_injected, 1);
    }

    #[test]
    fn transient_beyond_budget_is_typed() {
        let plan = FaultPlan::none().transient_at(2, 0, 10).with_max_retries(3);
        let report = try_run_world(3, plan, |c| c.try_allgather(c.rank() as u64));
        assert_eq!(
            report.results[2],
            Err(CommError::RetriesExhausted {
                rank: 2,
                op: 0,
                attempts: 3
            })
        );
        // peers observe the dead rank, typed
        assert_eq!(report.results[0], Err(CommError::PeerCrashed { rank: 2 }));
    }

    #[test]
    fn corruption_retransmits_then_succeeds() {
        let plan = FaultPlan::none().corrupt_at(1, 0, 2);
        let report = try_run_world(3, plan, |c| c.try_allgather(c.rank() as u64));
        for r in &report.results {
            assert_eq!(*r, Ok(vec![0, 1, 2]));
        }
        // every rank retransmitted twice
        assert_eq!(report.faults.retries, 6);
    }

    #[test]
    fn persistent_corruption_fails_every_rank_identically() {
        let plan = FaultPlan::none().corrupt_at(1, 0, 99).with_max_retries(2);
        let report = try_run_world(3, plan, |c| c.try_allgather(c.rank() as u64));
        for r in &report.results {
            assert_eq!(
                *r,
                Err(CommError::CorruptPayload {
                    rank: 1,
                    attempts: 3
                })
            );
        }
    }

    #[test]
    fn delay_only_skews_timing() {
        let plan = FaultPlan::none().delay_at(0, 0, 200);
        let report = try_run_world(2, plan, |c| c.try_allgather(c.rank() as u64));
        for r in &report.results {
            assert_eq!(*r, Ok(vec![0, 1]));
        }
        assert_eq!(report.faults.injected, 1);
    }

    #[test]
    fn shrink_recovers_surviving_ranks() {
        // Rank 1 of 4 dies; survivors shrink and finish an allreduce on
        // the 3-rank communicator, renumbered densely.
        let plan = FaultPlan::none().crash_at(1, 1);
        let report = try_run_world(4, plan, |c| {
            let me = c.rank() as u64;
            // ops line up so rank 1 dies at its second collective
            let attempt = c
                .try_allreduce(me, |a, b| a + b)
                .and_then(|_| c.try_allreduce(me, |a, b| a + b).map(|s| (s, c.size())));
            attempt.or_else(|e| {
                if !e.is_recoverable() {
                    return Err(e);
                }
                let small = c.shrink()?;
                let sum = small.try_allreduce(me, |a, b| a + b)?;
                Ok((sum, small.size()))
            })
        });
        assert_eq!(
            report.results[1],
            Err(CommError::SelfCrashed { rank: 1, op: 1 })
        );
        for r in [0, 2, 3] {
            let (sum, size) = *report.results[r].as_ref().unwrap();
            assert_eq!(sum, 2 + 3, "survivors' world-rank sum (ranks 0+2+3)");
            assert_eq!(size, 3);
        }
        assert_eq!(report.faults.shrinks, 3);
        assert!(report.faults.recovery_seconds >= 0.0);
    }

    #[test]
    fn shrunken_comm_ranks_are_dense_and_ordered() {
        let plan = FaultPlan::none().crash_at(2, 0);
        let report = try_run_world(4, plan, |c| {
            match c.try_allgather(0u8) {
                Ok(_) => {}
                Err(e) if e.is_recoverable() => {
                    let small = c.shrink()?;
                    return Ok((small.rank(), small.size(), small.world_rank()));
                }
                Err(e) => return Err(e),
            }
            Ok((usize::MAX, 0, 0))
        });
        // old ranks 0,1,3 -> new ranks 0,1,2 with world_rank preserved
        let expect = [(0, 3, 0), (1, 3, 1), (2, 3, 3)];
        for (i, r) in [0usize, 1, 3].iter().enumerate() {
            assert_eq!(*report.results[*r].as_ref().unwrap(), expect[i]);
        }
    }

    #[test]
    fn seeded_plan_replays_identically() {
        // The determinism contract (DESIGN.md Sec. 10): the injection
        // schedule and the success/failure of every operation replay
        // identically. The *attributed* rank inside PeerCrashed may vary
        // when several peers die concurrently, so it is normalized.
        fn normalize(r: &Result<u64, CommError>) -> String {
            match r {
                Ok(v) => format!("ok:{v}"),
                Err(CommError::PeerCrashed { .. }) => "peer-crashed".to_string(),
                Err(e) => format!("err:{e}"),
            }
        }
        for seed in [7u64, 42, 1234] {
            let run = || {
                let plan = FaultPlan::seeded(seed, 3, 6, 4);
                let report = try_run_world(3, plan, |c| {
                    let mut acc = 0u64;
                    for _ in 0..4 {
                        acc = acc.wrapping_add(c.try_allreduce(c.rank() as u64, |a, b| a + b)?);
                    }
                    Ok(acc)
                });
                (
                    report.results.iter().map(normalize).collect::<Vec<_>>(),
                    report.faults,
                )
            };
            let (r1, f1) = run();
            let (r2, f2) = run();
            assert_eq!(r1, r2, "seed {seed}: fault runs must replay identically");
            assert_eq!(f1.injected, f2.injected, "seed {seed}");
            assert_eq!(f1.crashes, f2.crashes, "seed {seed}");
        }
    }

    #[test]
    fn panic_in_one_rank_poisons_all_ranks() {
        // Satellite regression: rank 1 panics mid-allreduce; peers used to
        // hang in the collective forever. Now every rank reports a typed
        // WorldPoisoned error carrying the original reason.
        let report = try_run_world(3, FaultPlan::none(), |c| {
            if c.rank() == 1 {
                panic!("rank 1 exploded mid-allreduce");
            }
            c.try_allreduce(c.rank() as u64, |a, b| a + b)
        });
        for r in &report.results {
            match r {
                Err(CommError::WorldPoisoned { reason }) => {
                    assert!(reason.contains("exploded mid-allreduce"));
                }
                other => panic!("expected WorldPoisoned, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn legacy_run_world_repanics_with_reason() {
        let _ = run_world(2, |c| {
            if c.rank() == 1 {
                panic!("legacy panic path");
            }
            c.try_allreduce(1u64, |a, b| a + b)
        });
    }

    #[test]
    fn sender_crash_fails_pending_recv() {
        // Rank 0 dies before posting its contribution: rank 1, already
        // waiting in the complex allreduce, fails typed instead of hanging.
        let plan = FaultPlan::none().crash_at(0, 0);
        let report = try_run_world(2, plan, |c| {
            c.try_allreduce_sum_c64(vec![c64(c.rank() as f64, 0.0)])
        });
        assert_eq!(
            report.results[0],
            Err(CommError::SelfCrashed { rank: 0, op: 0 })
        );
        assert_eq!(report.results[1], Err(CommError::PeerCrashed { rank: 0 }));
    }

    #[test]
    fn message_posted_before_crash_is_still_delivered() {
        // Rank 0 publishes its slot at op 0 and dies at op 1: the slot is
        // already in the rendezvous, so the collective completes on the
        // survivor rather than erroring; only the next one fails.
        let plan = FaultPlan::none().crash_at(0, 1);
        let report = try_run_world(2, plan, |c| {
            let first = c.try_allgather(42u64 + c.rank() as u64)?;
            match c.try_allgather(0u64) {
                Err(CommError::PeerCrashed { rank: 0 }) if c.rank() == 1 => Ok(first),
                second => second,
            }
        });
        assert_eq!(
            report.results[0],
            Err(CommError::SelfCrashed { rank: 0, op: 1 })
        );
        assert_eq!(report.results[1], Ok(vec![42, 43]));
    }
}
