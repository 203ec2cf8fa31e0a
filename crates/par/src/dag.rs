//! Message-driven task DAG with overdecomposition and work stealing.
//!
//! The bulk-synchronous pipeline runs MTXEL, CHI, epsilon and Sigma as
//! barrier-separated phases: every rank/worker waits at each phase edge,
//! so the slowest chunk of one phase gates the *start* of the next even
//! when most of the next phase's inputs are long since ready. OpenAtom
//! (arXiv:1810.07772) maps GW onto overdecomposed message-driven objects
//! instead — work starts the moment its inputs exist. This module is the
//! node-level analogue over the `bgw-par` pool: a [`TaskGraph`] of
//! fine-grained tasks (per q-point, per band block, per frequency node)
//! with explicit data dependencies, executed readiness-first on per-worker
//! deques with work stealing.
//!
//! ## Execution model
//!
//! Tasks are closures added with [`TaskGraph::add`]; each names the tasks
//! it depends on, and dependencies must point at *already-added* tasks, so
//! the graph is acyclic by construction (ids are a topological order).
//! [`TaskGraph::execute`] seeds the ready tasks round-robin across
//! per-worker deques and runs them on the persistent pool: a worker pops
//! its own deque LIFO (freshly-enabled tasks are cache-hot), steals FIFO
//! from a victim's deque when its own runs dry (stolen tasks are the
//! oldest, most-likely-large ones), and sleeps on a condition variable
//! only when no deque holds work. Completing a task decrements its
//! dependents' pending counts; a count hitting zero pushes that dependent
//! onto the *completing* worker's deque — readiness-driven execution with
//! no phase barrier anywhere.
//!
//! Nested data-parallel calls (`parallel_for_chunked` etc.) made from
//! inside a task body run inline on the executing worker, exactly like any
//! nested parallel region: with the graph overdecomposed (more tasks than
//! workers), task-level concurrency *is* the node-level parallelism.
//!
//! ## Determinism contract
//!
//! The scheduler promises each task runs exactly once, after all its
//! dependencies — nothing about *order between independent tasks*. Bodies
//! that reduce into shared state must therefore either own disjoint slots
//! (the common case: one slot per task) or defer combination to a
//! dedicated reduction task that reads its inputs in a fixed order. The
//! workflow DAGs in `core::dagflow` follow that rule, which is what makes
//! the DAG path bit-exact against the barrier-ordered oracle.
//!
//! A panic in any task cancels the remaining graph (no further tasks
//! start) and resurfaces from [`TaskGraph::execute`] on the caller.

use crate::{num_threads, pool_run};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Identifier of a task inside one [`TaskGraph`], returned by
/// [`TaskGraph::add`] and consumed as a dependency handle.
///
/// Ids are dense and ordered: a task's id is strictly greater than every
/// dependency's id (a topological order of the DAG).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Dense index of this task in its graph (0-based insertion order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Outcome statistics of one [`TaskGraph::execute`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DagStats {
    /// Tasks executed (equals the graph size on a panic-free run).
    pub tasks: usize,
    /// Tasks a worker acquired by stealing from another worker's deque.
    pub steals: usize,
    /// True when the graph ran on the worker pool; false when it ran
    /// inline in id order (single worker, nested call, or busy pool).
    pub pooled: bool,
}

type TaskFn<'env> = Box<dyn FnOnce() + Send + 'env>;

/// A dependency-ordered collection of one-shot tasks, executed
/// readiness-first over the `bgw-par` pool with work stealing.
///
/// ```
/// let mut g = bgw_par::dag::TaskGraph::new();
/// let data = std::sync::Mutex::new(0u64);
/// let a = g.add(&[], || *data.lock().unwrap() += 1);
/// let b = g.add(&[], || *data.lock().unwrap() += 10);
/// g.add(&[a, b], || *data.lock().unwrap() *= 100);
/// g.execute();
/// assert_eq!(*data.lock().unwrap(), 1100);
/// ```
#[derive(Default)]
pub struct TaskGraph<'env> {
    tasks: Vec<TaskFn<'env>>,
    deps: Vec<Vec<u32>>,
}

impl<'env> TaskGraph<'env> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks have been added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task that may start once every task in `deps` has finished.
    ///
    /// # Panics
    /// If a dependency id does not come from this graph (forward or
    /// foreign reference), or the graph already holds `u32::MAX` tasks.
    pub fn add<F>(&mut self, deps: &[TaskId], f: F) -> TaskId
    where
        F: FnOnce() + Send + 'env,
    {
        let id = u32::try_from(self.tasks.len()).expect("task graph over capacity");
        for d in deps {
            assert!(
                d.0 < id,
                "task dependency {} is not an earlier task of this graph (adding id {id})",
                d.0
            );
        }
        self.tasks.push(Box::new(f));
        // Dedup so a repeated dependency cannot desync the pending count.
        let mut ds: Vec<u32> = deps.iter().map(|d| d.0).collect();
        ds.sort_unstable();
        ds.dedup();
        self.deps.push(ds);
        TaskId(id)
    }

    /// Runs every task, respecting dependencies, and returns run
    /// statistics. Consumes the graph (tasks are one-shot).
    ///
    /// Parallel when the pool is available (readiness-driven, work
    /// stealing); otherwise falls back to inline execution in id order,
    /// which is a valid topological order by construction.
    ///
    /// # Panics
    /// Re-raises the first task panic on the calling thread after
    /// cancelling the not-yet-started remainder of the graph.
    pub fn execute(self) -> DagStats {
        let n = self.tasks.len();
        if n == 0 {
            return DagStats::default();
        }
        let _span = bgw_trace::span!("dag.execute");
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut pending = Vec::with_capacity(n);
        for (id, deps) in self.deps.iter().enumerate() {
            pending.push(AtomicUsize::new(deps.len()));
            for &d in deps {
                dependents[d as usize].push(id as u32);
            }
        }
        let participants = num_threads().min(n).max(1);
        let slots: Vec<Mutex<Option<TaskFn<'env>>>> = self
            .tasks
            .into_iter()
            .map(|t| Mutex::new(Some(t)))
            .collect();
        let shared = Shared {
            slots: &slots,
            dependents: &dependents,
            pending: &pending,
            deques: (0..participants)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            participants,
            remaining: AtomicUsize::new(n),
            ready_epoch: AtomicU64::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            cancelled: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            executed: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        };
        // Seed ready tasks round-robin so every worker starts with work.
        {
            let mut next = 0usize;
            for (id, count) in pending.iter().enumerate() {
                if count.load(Ordering::Relaxed) == 0 {
                    shared.deques[next % participants]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_back(id as u32);
                    next += 1;
                }
            }
            assert!(next > 0, "task graph has no ready roots");
        }
        let work = |slot: usize| shared.run_worker(slot);
        let pooled = participants > 1 && pool_run(participants, &work);
        if !pooled {
            // Inline topological execution: ids are dependency-ordered.
            for deque in &shared.deques {
                deque.lock().unwrap_or_else(|e| e.into_inner()).clear();
            }
            for id in 0..n {
                if shared.cancelled.load(Ordering::Relaxed) {
                    break;
                }
                shared.run_task(0, id as u32, false);
            }
        }
        let stats = DagStats {
            tasks: shared.executed.load(Ordering::Relaxed),
            steals: shared.steals.load(Ordering::Relaxed),
            pooled,
        };
        bgw_perf::counters::record_dag_tasks(stats.tasks as u64);
        bgw_perf::counters::record_dag_steals(stats.steals as u64);
        let payload = shared
            .panic_payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
        stats
    }
}

struct Shared<'g, 'env> {
    slots: &'g [Mutex<Option<TaskFn<'env>>>],
    dependents: &'g [Vec<u32>],
    pending: &'g [AtomicUsize],
    deques: Vec<Mutex<VecDeque<u32>>>,
    participants: usize,
    /// Tasks not yet finished (or cancelled); 0 means the run is over.
    remaining: AtomicUsize,
    /// Bumped whenever a task becomes ready; sleepers compare it to spot
    /// work that arrived between their empty scan and going to sleep.
    ready_epoch: AtomicU64,
    sleep: Mutex<()>,
    wake: Condvar,
    cancelled: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    executed: AtomicUsize,
    steals: AtomicUsize,
}

impl<'env> Shared<'_, 'env> {
    fn run_worker(&self, slot: usize) {
        loop {
            if self.cancelled.load(Ordering::Relaxed) || self.remaining.load(Ordering::Acquire) == 0
            {
                return;
            }
            let seen = self.ready_epoch.load(Ordering::Acquire);
            match self.grab(slot) {
                Some((id, stolen)) => self.run_task(slot, id, stolen),
                None => {
                    // Sleep until the epoch moves or the run ends. The
                    // publisher bumps the epoch before locking `sleep` to
                    // notify, so a bump between our scan and this lock is
                    // visible in the condition check — no missed wakeups.
                    let mut g = self.sleep.lock().unwrap_or_else(|e| e.into_inner());
                    while self.ready_epoch.load(Ordering::Acquire) == seen
                        && self.remaining.load(Ordering::Acquire) != 0
                        && !self.cancelled.load(Ordering::Relaxed)
                    {
                        g = self.wake.wait(g).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }
    }

    /// Pops from the worker's own deque (LIFO), then tries to steal the
    /// oldest task from each other deque in ring order (FIFO).
    fn grab(&self, slot: usize) -> Option<(u32, bool)> {
        if let Some(id) = self.deques[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_back()
        {
            return Some((id, false));
        }
        for k in 1..self.participants {
            let victim = (slot + k) % self.participants;
            if let Some(id) = self.deques[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
            {
                return Some((id, true));
            }
        }
        None
    }

    fn run_task(&self, slot: usize, id: u32, stolen: bool) {
        let task = self.slots[id as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let Some(task) = task else {
            // Already executed (defensive; cannot happen with unique
            // dequeues) — don't double-count completion.
            return;
        };
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let result = {
            let _span = bgw_trace::span!("dag.task");
            catch_unwind(AssertUnwindSafe(task))
        };
        self.executed.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(()) => {
                let mut enabled = false;
                for &d in &self.dependents[id as usize] {
                    if self.pending[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.deques[slot]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push_back(d);
                        enabled = true;
                    }
                }
                let finished = self.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
                if enabled || finished {
                    if enabled {
                        self.ready_epoch.fetch_add(1, Ordering::Release);
                    }
                    let _g = self.sleep.lock().unwrap_or_else(|e| e.into_inner());
                    self.wake.notify_all();
                }
            }
            Err(payload) => {
                let mut slot = self.panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                self.cancelled.store(true, Ordering::Release);
                let _g = self.sleep.lock().unwrap_or_else(|e| e.into_inner());
                self.wake.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_num_threads;
    use crate::tests::{test_guard, HEAVY};
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    #[test]
    fn empty_graph_is_a_noop() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        let stats = g.execute();
        assert_eq!(stats, DagStats::default());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let _g = test_guard();
        for &threads in &[1usize, 2, 4, 8] {
            set_num_threads(threads);
            let n = 200;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let mut g = TaskGraph::new();
            let mut prev: Option<TaskId> = None;
            for (i, h) in hits.iter().enumerate() {
                // Mix of independent tasks and a sparse dependency chain.
                let deps: Vec<TaskId> = match (i % 3, prev) {
                    (0, Some(p)) => vec![p],
                    _ => vec![],
                };
                prev = Some(g.add(&deps, move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }));
            }
            let stats = g.execute();
            assert_eq!(stats.tasks, n, "threads {threads}");
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}, threads {threads}");
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn dependencies_order_execution() {
        let _g = test_guard();
        set_num_threads(4);
        // Diamond fan: root -> n middles -> join; the join must observe
        // every middle's write, and middles must observe the root's.
        let n_mid = 32;
        let root_done = AtomicU32::new(0);
        let mids_done = AtomicU32::new(0);
        let join_saw = AtomicU32::new(u32::MAX);
        let mut g = TaskGraph::new();
        let root = g.add(&[], || {
            root_done.store(1, Ordering::SeqCst);
        });
        let mids: Vec<TaskId> = (0..n_mid)
            .map(|_| {
                g.add(&[root], || {
                    assert_eq!(root_done.load(Ordering::SeqCst), 1, "middle before root");
                    mids_done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        g.add(&mids, || {
            join_saw.store(mids_done.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        let stats = g.execute();
        assert_eq!(stats.tasks, n_mid + 2);
        assert_eq!(join_saw.load(Ordering::SeqCst), n_mid as u32);
        set_num_threads(0);
    }

    #[test]
    fn skewed_load_triggers_stealing() {
        let _g = test_guard();
        set_num_threads(4);
        // Many independent tasks with wildly uneven cost: whichever worker
        // draws the heavy ones falls behind and the rest must steal. With
        // round-robin seeding and 4 workers this reliably produces steals.
        let mut g = TaskGraph::new();
        let total = AtomicU32::new(0);
        for i in 0..64u64 {
            let total = &total;
            g.add(&[], move || {
                if i % 4 == 0 {
                    // Heavy: all multiples of 4 seed onto the same deque.
                    let mut acc = 0u64;
                    for k in 0..200_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                }
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        let stats = g.execute();
        assert_eq!(total.load(Ordering::Relaxed), 64);
        if stats.pooled {
            assert!(stats.steals > 0, "skewed load should induce stealing");
        }
        set_num_threads(0);
    }

    #[test]
    fn single_thread_runs_inline_in_id_order() {
        let _g = test_guard();
        set_num_threads(1);
        let order = Mutex::new(Vec::new());
        let mut g = TaskGraph::new();
        let a = g.add(&[], || order.lock().unwrap().push(0));
        let b = g.add(&[a], || order.lock().unwrap().push(1));
        g.add(&[a, b], || order.lock().unwrap().push(2));
        let stats = g.execute();
        assert!(!stats.pooled);
        assert_eq!(stats.tasks, 3);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        set_num_threads(0);
    }

    #[test]
    fn nested_from_parallel_region_runs_inline() {
        let _g = test_guard();
        set_num_threads(4);
        let ran = AtomicU32::new(0);
        // chunk=1 yields 4 chunks, so the outer region genuinely dispatches
        // to the pool (it could still fall back inline if the pool is busy;
        // the pool-worker name check below covers exactly the pooled case).
        crate::parallel_for_chunked(4, 1, HEAVY, |_, _| {
            let mut g = TaskGraph::new();
            let a = g.add(&[], || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            g.add(&[a], || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            let stats = g.execute();
            let on_pool_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("bgw-par-"));
            if on_pool_worker {
                assert!(!stats.pooled, "nested DAG must not grab the pool");
            }
            assert_eq!(stats.tasks, 2);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        set_num_threads(0);
    }

    #[test]
    fn tasks_may_use_data_parallelism() {
        let _g = test_guard();
        set_num_threads(4);
        let sums = Mutex::new(Vec::new());
        let mut g = TaskGraph::new();
        for t in 0..8u64 {
            let sums = &sums;
            g.add(&[], move || {
                let s = crate::parallel_reduce(
                    100,
                    8,
                    HEAVY,
                    || 0u64,
                    |acc, lo, hi| {
                        for i in lo..hi {
                            *acc += t * 1000 + i as u64;
                        }
                    },
                    |a, b| a + b,
                );
                sums.lock().unwrap().push(s);
            });
        }
        g.execute();
        let mut got = sums.into_inner().unwrap();
        got.sort_unstable();
        let want: Vec<u64> = (0..8u64).map(|t| t * 100_000 + 4950).collect();
        assert_eq!(got, want);
        set_num_threads(0);
    }

    #[test]
    fn panic_in_task_propagates_and_cancels() {
        let _g = test_guard();
        for &threads in &[1usize, 4] {
            set_num_threads(threads);
            let late_ran = AtomicU32::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut g = TaskGraph::new();
                let boom = g.add(&[], || panic!("task detonated"));
                g.add(&[boom], || {
                    late_ran.fetch_add(1, Ordering::Relaxed);
                });
                g.execute();
            }));
            assert!(result.is_err(), "threads {threads}");
            let msg = result.unwrap_err();
            let msg = msg
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or_else(|| msg.downcast_ref::<String>().map(|s| s.as_str()).unwrap());
            assert!(msg.contains("task detonated"));
            assert_eq!(
                late_ran.load(Ordering::Relaxed),
                0,
                "dependent of a panicked task must not run (threads {threads})"
            );
        }
        set_num_threads(0);
    }

    #[test]
    #[should_panic(expected = "not an earlier task")]
    fn forward_dependency_is_rejected() {
        let mut g = TaskGraph::new();
        let fake = TaskId(5);
        g.add(&[fake], || {});
    }

    #[test]
    fn pool_usable_after_dag_panic() {
        let _g = test_guard();
        set_num_threads(4);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut g = TaskGraph::new();
            g.add(&[], || panic!("first run detonates"));
            g.execute();
        }));
        // The pool and a fresh graph must both still work.
        let count = AtomicU32::new(0);
        let mut g = TaskGraph::new();
        for _ in 0..16 {
            let count = &count;
            g.add(&[], move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        let stats = g.execute();
        assert_eq!(stats.tasks, 16);
        assert_eq!(count.load(Ordering::Relaxed), 16);
        set_num_threads(0);
    }

    #[test]
    fn duplicate_dependencies_do_not_wedge() {
        let _g = test_guard();
        set_num_threads(2);
        let ran = AtomicU32::new(0);
        let mut g = TaskGraph::new();
        let a = g.add(&[], || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        g.add(&[a, a, a], || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        let stats = g.execute();
        assert_eq!(stats.tasks, 2);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        set_num_threads(0);
    }
}
