//! `bgw-par`: node-level data parallelism on a persistent worker pool.
//!
//! On the machines in the paper each MPI rank drives a GPU with thousands
//! of threads; in this reproduction a rank is a thread and the *node-level*
//! parallelism inside a rank is provided by this crate: dynamically
//! scheduled `parallel_for_chunked` / `parallel_reduce` over index ranges (the
//! software analogue of the two-level work-group decomposition of paper
//! Sec. 5.5).
//!
//! Execution runs on a lazily created, process-wide pool of parked worker
//! threads. A parallel call publishes its body once (an epoch bump on a
//! condition variable wakes the workers), every participant pulls chunks
//! from a shared atomic counter, and the caller blocks until the region
//! has quiesced. Workers then park again, so the per-call cost is a
//! wake/park cycle instead of the thread spawn/join the previous
//! implementation paid on *every* parallel call — which sat on the hot
//! path of every GW kernel (CHI_SUM, GPP diag/off-diag, GWPT, ZGEMM).
//!
//! Re-entrancy rule: a parallel call made from inside a parallel region
//! (from a worker, or from the caller's own body), or while another OS
//! thread is dispatching, runs inline on the calling thread. This makes
//! nesting and concurrent callers deadlock-free by construction.
//!
//! Granularity rule: every call states what one index costs ([`Flops`],
//! from the call site's own operation count) and a region whose total is
//! below one crate-private floor runs inline too — a wake-up costs tens
//! of microseconds, so a region has to be worth several of them. The
//! choice never alters `chunk`: inline and pooled execution walk the same
//! [`chunk_bounds`] split, so results are bit-identical either way.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be overridden with the `BGW_THREADS` environment variable or
//! [`set_num_threads`].

#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on pool threads, a guard against absurd `BGW_THREADS`.
const MAX_POOL_WORKERS: usize = 128;

/// Estimated floating-point operations *one index* of a parallel region
/// costs, stated by the call site from its own operation count (a line
/// FFT's `5 n log2 n`, a ZGEMM panel's `8 m k n`, a GPP band's pair
/// count). It is all a call site says about granularity: whether the
/// region is worth a pool wake-up is decided in this crate, against one
/// floor, never by a threshold at the call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flops(pub u64);

/// The floor: a region whose stated single-thread work (`n` indices times
/// its [`Flops`]) is below this runs inline on the calling thread.
///
/// Measured on the 2-vCPU reference host with `gwbench --trace`: a pooled
/// region costs 23-35 us of publish, condvar wake-up and join
/// (`par.dispatch_s / par.dispatches`: 0.54 s / 23 424 on `gpp_oneshot`,
/// 3.2 ms / 91 per `serve_zipf` request), and the kernels that reach the
/// pool sustain 2.5-3.2 GFLOP/s single-threaded by their own counts (a
/// 12^3 FFT is 93 kFLOP in ~36 us; the scalar GPP diag kernel reported
/// 3.2, its SIMD lane groups about 40). Ten wake-ups, ~250 us, of such
/// work is ~0.75 MFLOP.
const MIN_REGION_FLOPS: u64 = 750_000;

/// Sets the number of worker threads used by subsequent parallel calls.
/// A value of 0 restores the automatic default.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// Returns the number of worker threads parallel calls will use.
pub fn num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    if let Ok(s) = std::env::var("BGW_THREADS") {
        if let Ok(v) = s.parse::<usize>() {
            if v > 0 {
                return v;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Picks a chunk size that yields a few chunks per worker for dynamic load
/// balance, with a floor of `min_chunk` to bound scheduling overhead.
///
/// The returned size is *balanced*: the raw `(n / (4 * workers))`-style
/// target is rounded to the ceil-split of `n` over the chunk count that
/// target implies, so `n` just above a multiple of `workers * min_chunk`
/// no longer strands a sliver remainder chunk on one worker (e.g.
/// `n = 65, workers = 4, min_chunk = 16` used to split `16/16/16/16/1`,
/// doubling one worker's share; it now splits `13/13/13/13/13`).
pub fn auto_chunk(n: usize, workers: usize, min_chunk: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let target = workers.max(1) * 4;
    let raw = (n / target).max(min_chunk).max(1);
    let n_chunks = n.div_ceil(raw);
    n.div_ceil(n_chunks)
}

/// The balanced chunk decomposition `[lo, hi)` ranges that
/// [`parallel_for_chunked`] executes for `(n, chunk)`: `k = ceil(n /
/// chunk)` chunks whose sizes differ by at most one index (the first
/// `n mod k` chunks carry the extra element). Every chunk size is
/// `<= chunk`, so caller-side scratch sized for `chunk` stays valid.
pub fn chunk_bounds(n: usize, chunk: usize, i: usize) -> (usize, usize) {
    let chunk = chunk.max(1);
    let k = n.div_ceil(chunk).max(1);
    debug_assert!(i < k);
    let base = n / k;
    let rem = n % k;
    let lo = i * base + i.min(rem);
    let hi = lo + base + usize::from(i < rem);
    (lo, hi)
}

/// Number of chunks [`chunk_bounds`] splits `n` indices into.
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n.div_ceil(chunk.max(1))
}

// ---------------------------------------------------------------------------
// The persistent pool.
// ---------------------------------------------------------------------------

thread_local! {
    /// True on pool workers (always) and on a dispatcher while it runs its
    /// own share of a region; nested parallel calls check it to run inline.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Wall nanoseconds consumed by *completed* nested parallel regions at
    /// the current nesting level on this thread. Each region executor
    /// zeroes it on entry, reads it on exit to subtract nested-region time
    /// from its own, and reports its full wall to the level it restored —
    /// so every nanosecond of region time is charged to exactly one of
    /// `pool_dispatch_ns` / `pool_region_ns` / `pool_inline_ns`.
    static CHILD_PAR_NS: Cell<u64> = const { Cell::new(0) };
}

/// Times one region execution on this thread with exclusive attribution:
/// `finish()` yields `(wall_ns, exclusive_ns)` where exclusive excludes
/// nested parallel regions the body completed, and the full wall is
/// reported to the enclosing level. The drop path keeps `CHILD_PAR_NS`
/// consistent when the region body unwinds.
struct RegionTimer {
    saved: u64,
    t0: Instant,
    done: bool,
}

impl RegionTimer {
    fn start() -> Self {
        Self {
            saved: CHILD_PAR_NS.with(|c| c.replace(0)),
            t0: Instant::now(),
            done: false,
        }
    }

    fn finish(mut self) -> (u64, u64) {
        self.done = true;
        let wall = self.t0.elapsed().as_nanos() as u64;
        let child = CHILD_PAR_NS.with(|c| c.get());
        CHILD_PAR_NS.with(|c| c.set(self.saved + wall));
        (wall, wall.saturating_sub(child))
    }
}

impl Drop for RegionTimer {
    fn drop(&mut self) {
        if !self.done {
            let wall = self.t0.elapsed().as_nanos() as u64;
            CHILD_PAR_NS.with(|c| c.set(self.saved + wall));
        }
    }
}

/// Lifetime-erased pointer to a region body `Fn(slot)`.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is `Sync` and the dispatcher keeps the referent alive
// (and uniquely published) until every worker has finished the epoch.
unsafe impl Send for JobRef {}

struct PoolState {
    /// Bumped once per published region; workers sleep until it changes.
    epoch: u64,
    /// The current region body, valid for exactly one epoch.
    job: Option<JobRef>,
    /// Dispatcher's span at publish time; workers adopt it so their spans
    /// nest under the dispatching call in the trace tree.
    job_trace: Option<bgw_trace::Handle>,
    /// Width of the current region: slots below it (the dispatcher is
    /// slot 0) join the epoch, the other workers re-park. 0 between
    /// regions.
    participants: usize,
    /// Joined workers that have not yet finished the current epoch.
    active: usize,
    /// Worker threads spawned so far (they never exit).
    spawned: usize,
    /// Set when a worker's body panicked during the current epoch.
    panicked: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here waiting for the next epoch.
    work_cv: Condvar,
    /// The dispatcher parks here waiting for quiescence.
    done_cv: Condvar,
    /// Serializes dispatchers; `try_lock` failure means "run inline".
    dispatch: Mutex<()>,
}

fn lock_state(p: &'static Pool) -> MutexGuard<'static, PoolState> {
    // A panic inside a region body is caught before the state lock is
    // touched, so poisoning can only come from unwinding in this module;
    // recover the guard rather than compounding the failure.
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            epoch: 0,
            job: None,
            job_trace: None,
            participants: 0,
            active: 0,
            spawned: 0,
            panicked: false,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        dispatch: Mutex::new(()),
    })
}

fn worker_loop(p: &'static Pool, slot: usize, mut seen: u64) {
    IN_PARALLEL.with(|c| c.set(true));
    loop {
        let (job, job_trace) = {
            let mut st = lock_state(p);
            // Only the region's participants join an epoch. A worker the
            // region is too narrow for notes the epoch and parks again
            // without touching `active`, so after a wide region a narrow
            // one neither runs on nor waits for every thread ever spawned.
            loop {
                while st.epoch == seen {
                    st = p.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                seen = st.epoch;
                if slot < st.participants {
                    break;
                }
            }
            (st.job, st.job_trace)
        };
        let panicked = match job {
            Some(j) => {
                let _adopt = job_trace.map(bgw_trace::adopt);
                let _span = bgw_trace::span!("par.worker");
                let timer = RegionTimer::start();
                // SAFETY: the dispatcher keeps the body alive until this
                // epoch quiesces (it waits for `active == 0` below).
                let panicked = catch_unwind(AssertUnwindSafe(|| (unsafe { &*j.0 })(slot))).is_err();
                let (_wall, excl) = timer.finish();
                bgw_perf::counters::record_pool_region_ns(excl);
                // Top of the worker: drop the residue a finished region
                // reports upward so the next epoch starts clean.
                CHILD_PAR_NS.with(|c| c.set(0));
                panicked
            }
            None => false,
        };
        let mut st = lock_state(p);
        if panicked {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            p.done_cv.notify_all();
        }
    }
}

/// Spawns workers (under the state lock) until `target` exist. Workers get
/// the current epoch so a thread born between regions never mistakes an
/// old epoch for fresh work.
fn spawn_to(st: &mut PoolState, target: usize) {
    while st.spawned < target.min(MAX_POOL_WORKERS) {
        let slot = st.spawned + 1; // slot 0 is the dispatcher
        let epoch = st.epoch;
        let spawned = std::thread::Builder::new()
            .name(format!("bgw-par-{slot}"))
            .spawn(move || worker_loop(pool(), slot, epoch))
            .is_ok();
        if !spawned {
            break; // proceed with fewer helpers
        }
        st.spawned += 1;
    }
}

/// Runs `job(slot)` on the pool for every `slot < participants` that has a
/// thread (the caller is slot 0; fewer helpers may exist than asked for).
/// Returns `false` — without running anything — when the region must run
/// inline instead (single participant, nested call, or another thread is
/// mid-dispatch).
fn pool_run(participants: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
    if participants <= 1 || IN_PARALLEL.with(|c| c.get()) {
        return false;
    }
    let p = pool();
    // A poisoned dispatch mutex must not read as "busy" forever: that
    // would silently demote every future parallel call to the inline
    // path after one unwind in the dispatch window. Recover the guard;
    // actual contention (WouldBlock) still falls back inline.
    let _dispatch = match p.dispatch.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            bgw_perf::counters::record_pool_inline_busy();
            return false;
        }
    };
    let _region_span = bgw_trace::span!("par.region");
    let trace_handle = bgw_trace::current_handle();
    let region = RegionTimer::start();
    let t0 = Instant::now();
    let ptr: *const (dyn Fn(usize) + Sync) = job;
    // SAFETY: lifetime erasure only; the quiesce loop below keeps `job`
    // borrowed until no worker can still be executing it.
    let job_ref = JobRef(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
            ptr,
        )
    });
    {
        let mut st = lock_state(p);
        spawn_to(&mut st, participants - 1);
        st.job = Some(job_ref);
        st.job_trace = Some(trace_handle);
        st.participants = participants;
        st.active = st.spawned.min(participants - 1);
        st.epoch += 1;
        p.work_cv.notify_all();
    }
    IN_PARALLEL.with(|c| c.set(true));
    // Slot 0 (the caller) executes its share in its own exclusive-timing
    // frame: nested inline regions inside the body charge themselves and
    // are subtracted here, so `pool_region_ns` never double-counts them.
    let (body_wall, caller_result) = {
        let _body_span = bgw_trace::span!("par.body");
        let body = RegionTimer::start();
        let caller_result = catch_unwind(AssertUnwindSafe(|| job(0)));
        let (wall, excl) = body.finish();
        bgw_perf::counters::record_pool_region_ns(excl);
        (wall, caller_result)
    };
    IN_PARALLEL.with(|c| c.set(false));
    let worker_panicked = {
        let _join_span = bgw_trace::span!("par.join");
        let mut st = lock_state(p);
        while st.active > 0 {
            st = p.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        st.job_trace = None;
        st.participants = 0;
        std::mem::replace(&mut st.panicked, false)
    };
    // Everything the dispatching thread spent beyond its own body share
    // is dispatch overhead: job publish, worker wakeup, and the quiesce
    // wait for stragglers. Body execution is charged to the region
    // counters above, never here. `region.finish()` also reports the
    // whole pooled region as one nested region to the enclosing level.
    let total = t0.elapsed().as_nanos() as u64;
    bgw_perf::counters::record_pool_dispatch(total.saturating_sub(body_wall));
    let _ = region.finish();
    drop(_dispatch);
    if let Err(e) = caller_result {
        resume_unwind(e);
    }
    if worker_panicked {
        panic!("bgw-par worker panicked during a parallel region");
    }
    true
}

// ---------------------------------------------------------------------------
// Data-parallel primitives.
// ---------------------------------------------------------------------------

/// How many threads a region of `k` chunks over `n` indices gets: 1 (run
/// inline) at pool width 1, inside another region, or when the stated
/// work is under [`MIN_REGION_FLOPS`]. `chunk` is not an input and not an
/// output: grouping stays a function of `(n, chunk)` on both sides of the
/// choice.
fn region_width(n: usize, k: usize, cost: Flops) -> usize {
    let width = num_threads().min(k);
    if width <= 1 || IN_PARALLEL.with(|c| c.get()) {
        return 1;
    }
    if cost.0.saturating_mul(n as u64) < MIN_REGION_FLOPS {
        bgw_perf::counters::record_pool_inline_small();
        return 1;
    }
    width
}

/// Runs `per_chunk(i)` for every chunk index `i in 0..k` of a region over
/// `n` indices: on the pool, participants drawing indices from one shared
/// counter, when [`region_width`] grants more than one thread and no other
/// thread is dispatching; inline in index order otherwise.
fn run_chunks<F>(n: usize, k: usize, cost: Flops, per_chunk: F)
where
    F: Fn(usize) + Sync,
{
    let participants = region_width(n, k, cost);
    if participants > 1 {
        let counter = AtomicUsize::new(0);
        let work = |_slot: usize| loop {
            let i = counter.fetch_add(1, Ordering::Relaxed);
            if i >= k {
                break;
            }
            per_chunk(i);
        };
        if pool_run(participants, &work) {
            return;
        }
    }
    let _span = bgw_trace::span!("par.inline");
    let timer = RegionTimer::start();
    (0..k).for_each(per_chunk);
    let (_wall, excl) = timer.finish();
    bgw_perf::counters::record_pool_inline(excl);
}

/// Runs `body(lo, hi)` over disjoint chunks `[lo, hi)` covering `0..n`;
/// `cost` is the work of one index.
///
/// This is the primitive the GW kernels use directly: a chunk corresponds
/// to a tile of the `(G', n)` loop nest and the body runs its own inner
/// loops. Chunks are the balanced [`chunk_bounds`] split: sizes differ by
/// at most one index and never exceed `chunk`, so a remainder just above
/// a chunk boundary is spread over all chunks instead of stranded as a
/// sliver on one worker.
pub fn parallel_for_chunked<F>(n: usize, chunk: usize, cost: Flops, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    run_chunks(n, chunk_count(n, chunk), cost, |i| {
        let (lo, hi) = chunk_bounds(n, chunk, i);
        body(lo, hi);
    });
}

/// Parallel reduction with a schedule-independent result: every chunk
/// `[lo, hi)` of the [`chunk_bounds`] split is folded by `body` into its
/// *own* fresh `identity()` partial, and the partials are combined with
/// `merge` as a left fold in chunk-index order. `cost` is the work of one
/// index.
///
/// The operand grouping is therefore a function of `(n, chunk)` alone —
/// not of the pool width, of which participant picked up which chunk, or
/// of whether the region ran pooled or inline (`cost` only picks between
/// those two) — so a non-associative `merge` (f64 addition) returns
/// bit-identical results at every `BGW_THREADS` and on every run. Chunk
/// *assignment* stays dynamic (shared counter); only the combination is
/// fixed-shape, like the paper's two-stage reductions (Sec. 5.5.1). One
/// partial per chunk is held until the final fold, so pick `chunk` with
/// the size of `T` in mind.
pub fn parallel_reduce<T, Fid, Fbody, Fmerge>(
    n: usize,
    chunk: usize,
    cost: Flops,
    identity: Fid,
    body: Fbody,
    merge: Fmerge,
) -> T
where
    T: Send,
    Fid: Fn() -> T + Sync,
    Fbody: Fn(&mut T, usize, usize) + Sync,
    Fmerge: Fn(T, T) -> T,
{
    if n == 0 {
        return identity();
    }
    let chunk = chunk.max(1);
    let k = chunk_count(n, chunk);
    // One slot per chunk on either path, so the fold below sees the same
    // partials in the same order wherever the chunks ran.
    let parts: Vec<Mutex<Option<T>>> = (0..k).map(|_| Mutex::new(None)).collect();
    run_chunks(n, k, cost, |i| {
        let (lo, hi) = chunk_bounds(n, chunk, i);
        let mut part = identity();
        body(&mut part, lo, hi);
        *parts[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(part);
    });
    parts
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every chunk is folded before the region returns")
        })
        .reduce(merge)
        .expect("n > 0 gives at least one chunk")
}

/// A `Send + Sync` raw-pointer wrapper for handing disjoint regions of a
/// buffer to pool workers.
///
/// # Safety contract
/// The wrapper itself is safe to create and copy; every dereference is
/// `unsafe` and the caller must guarantee that concurrent accesses through
/// copies of the pointer touch disjoint elements.
pub struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Wraps a raw pointer.
    pub fn new(p: *mut T) -> Self {
        Self(p)
    }

    /// The wrapped pointer.
    pub fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: see the type-level contract — disjointness is the caller's
// obligation at each unsafe dereference site.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Applies `body(i, &mut slot)` to each element of `out` in parallel,
/// where `i` is the element index and `cost` the work of one element.
/// This is the safe "one writer per element" pattern used to fill rows of
/// distributed matrices.
pub fn parallel_fill<T, F>(out: &mut [T], cost: Flops, body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = out.len();
    if n == 0 {
        return;
    }
    let chunk = auto_chunk(n, num_threads(), 1);
    let ptr = SendPtr::new(out.as_mut_ptr());
    parallel_for_chunked(n, chunk, cost, move |lo, hi| {
        for i in lo..hi {
            // SAFETY: chunks [lo, hi) are disjoint across participants and
            // `i` is visited exactly once, so each element has one writer.
            let slot = unsafe { &mut *ptr.get().add(i) };
            body(i, slot);
        }
    });
}

/// Applies `body(r, row)` to each `row_len`-sized row of `data` in
/// parallel; `cost` is the work of one row. `data.len()` must be a
/// multiple of `row_len`.
///
/// This is the row-scaling / row-fill primitive behind the CHI_SUM energy
/// factors and the GPP `P`-matrix prep step.
pub fn parallel_rows<T, F>(data: &mut [T], row_len: usize, cost: Flops, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "data is not a whole number of rows"
    );
    let nrows = data.len() / row_len;
    let chunk = auto_chunk(nrows, num_threads(), 1);
    let ptr = SendPtr::new(data.as_mut_ptr());
    parallel_for_chunked(nrows, chunk, cost, move |lo, hi| {
        for r in lo..hi {
            // SAFETY: row ranges [lo, hi) are disjoint across participants,
            // so each row slice has exactly one writer.
            let row =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r * row_len), row_len) };
            body(r, row);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    // Tests mutate the global thread count; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_guard() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One index is already worth a wake-up: regions stating this cost
    /// reach the pool whenever the width and chunk count allow.
    const HEAVY: Flops = Flops(MIN_REGION_FLOPS);

    /// `body(i)` for every `i in 0..n` over auto-sized chunks: the
    /// per-index spelling the pool tests drive `parallel_for_chunked`
    /// through.
    fn parallel_for<F>(n: usize, cost: Flops, body: F)
    where
        F: Fn(usize) + Sync,
    {
        parallel_for_chunked(n, auto_chunk(n, num_threads(), 16), cost, |lo, hi| {
            for i in lo..hi {
                body(i);
            }
        });
    }

    #[test]
    fn thread_count_override() {
        let _g = test_guard();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn auto_chunk_bounds() {
        assert_eq!(auto_chunk(0, 8, 16), 1);
        // Small n: one balanced chunk, not an oversized min_chunk sliver.
        assert_eq!(auto_chunk(10, 8, 16), 10);
        assert!(auto_chunk(10_000, 4, 16) >= 16);
        assert_eq!(auto_chunk(5, 1, 1), 1);
    }

    /// Satellite: `auto_chunk` used to strand the remainder on one worker
    /// when `n` sat just above a multiple of `workers * min_chunk`. The
    /// balanced split must cover every index exactly once with chunk sizes
    /// differing by at most one.
    #[test]
    fn chunk_coverage_property_sweep() {
        for workers in [1usize, 2, 3, 4, 8, 16] {
            for min_chunk in [1usize, 4, 16, 64] {
                let base = workers * min_chunk;
                for n in [
                    1,
                    min_chunk,
                    base,
                    base + 1, // the historical stranding case
                    base * 4,
                    base * 4 + 1,
                    base * 4 + workers,
                    1000,
                    1003,
                ] {
                    let chunk = auto_chunk(n, workers, min_chunk);
                    assert!(chunk >= 1);
                    let k = chunk_count(n, chunk);
                    let mut covered = vec![0u32; n];
                    let mut sizes = Vec::with_capacity(k);
                    let mut prev_hi = 0;
                    for i in 0..k {
                        let (lo, hi) = chunk_bounds(n, chunk, i);
                        assert_eq!(lo, prev_hi, "gap/overlap at chunk {i}");
                        assert!(hi > lo, "empty chunk {i} (n={n} chunk={chunk})");
                        assert!(hi - lo <= chunk, "chunk {i} exceeds requested size");
                        prev_hi = hi;
                        sizes.push(hi - lo);
                        for c in &mut covered[lo..hi] {
                            *c += 1;
                        }
                    }
                    assert_eq!(prev_hi, n, "chunks must cover 0..n");
                    assert!(
                        covered.iter().all(|&c| c == 1),
                        "every index exactly once (n={n} workers={workers} min={min_chunk})"
                    );
                    let max = *sizes.iter().max().unwrap();
                    let min = *sizes.iter().min().unwrap();
                    assert!(
                        max - min <= 1,
                        "chunk spread {max}-{min} > 1 (n={n} workers={workers} min={min_chunk})"
                    );
                }
            }
        }
    }

    /// The executed path: `parallel_for_chunked` on the stranding shape
    /// must hand out balanced chunks, visiting each index exactly once.
    #[test]
    fn chunked_rebalances_stranded_remainder() {
        let _g = test_guard();
        set_num_threads(4);
        let (workers, min_chunk) = (4usize, 16usize);
        let n = workers * min_chunk + 1; // 65: old split -> four 16s + one 1
        let chunk = auto_chunk(n, workers, min_chunk);
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let max_sz = AtomicU64::new(0);
        let min_sz = AtomicU64::new(u64::MAX);
        parallel_for_chunked(n, chunk, HEAVY, |lo, hi| {
            max_sz.fetch_max((hi - lo) as u64, Ordering::Relaxed);
            min_sz.fetch_min((hi - lo) as u64, Ordering::Relaxed);
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(max_sz.load(Ordering::Relaxed) - min_sz.load(Ordering::Relaxed) <= 1);
        set_num_threads(0);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let _g = test_guard();
        for &threads in &[1usize, 2, 5] {
            set_num_threads(threads);
            let n = 1000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for(n, HEAVY, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}, threads {threads}");
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn chunked_covers_range_with_disjoint_chunks() {
        let _g = test_guard();
        set_num_threads(4);
        let n = 103;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_chunked(n, 10, HEAVY, |lo, hi| {
            assert!(lo < hi && hi <= n);
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        set_num_threads(0);
    }

    #[test]
    fn reduce_sums_match_serial() {
        let _g = test_guard();
        for &threads in &[1usize, 2, 7] {
            set_num_threads(threads);
            let n = 12_345usize;
            let total = parallel_reduce(
                n,
                64,
                HEAVY,
                || 0u64,
                |acc, lo, hi| {
                    for i in lo..hi {
                        *acc += i as u64;
                    }
                },
                |a, b| a + b,
            );
            assert_eq!(total, (n as u64 - 1) * n as u64 / 2, "threads {threads}");
        }
        set_num_threads(0);
    }

    #[test]
    fn reduce_f64_sum_is_bitwise_identical_across_widths_and_repeats() {
        // f64 addition is not associative: with terms spanning ~30 decades
        // and mixed signs, any change in operand grouping moves the last
        // bits. The grouping must depend on (n, chunk) only.
        let _g = test_guard();
        let n = 100_003usize;
        let term = |i: usize| {
            let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mantissa = 1.0 + (h >> 12) as f64 / (1u64 << 52) as f64;
            let exponent = ((h >> 3) % 31) as i32 - 15;
            let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
            sign * mantissa * 10f64.powi(exponent)
        };
        let sum = || {
            parallel_reduce(
                n,
                32,
                HEAVY,
                || 0.0f64,
                |acc, lo, hi| {
                    for i in lo..hi {
                        *acc += term(i);
                    }
                },
                |a, b| a + b,
            )
        };
        set_num_threads(1);
        let reference = sum().to_bits();
        for &threads in &[1usize, 2, 3, 4, 7] {
            set_num_threads(threads);
            for repeat in 0..20 {
                assert_eq!(
                    sum().to_bits(),
                    reference,
                    "threads {threads}, repeat {repeat}: grouping depended on scheduling"
                );
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let v = parallel_reduce(0, 8, HEAVY, || 42i32, |_, _, _| unreachable!(), |a, _| a);
        assert_eq!(v, 42);
    }

    #[test]
    fn parallel_fill_writes_each_slot() {
        let _g = test_guard();
        set_num_threads(4);
        let mut out = vec![0usize; 517];
        parallel_fill(&mut out, HEAVY, |i, slot| *slot = i * i);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
        set_num_threads(0);
    }

    #[test]
    fn parallel_fill_empty_is_noop() {
        let mut out: Vec<u8> = vec![];
        parallel_fill(&mut out, HEAVY, |_, _| panic!("must not run"));
    }

    #[test]
    fn parallel_rows_scales_disjoint_rows() {
        let _g = test_guard();
        set_num_threads(4);
        let nrows = 37;
        let row_len = 11;
        let mut data = vec![1.0f64; nrows * row_len];
        parallel_rows(&mut data, row_len, HEAVY, |r, row| {
            for x in row {
                *x *= (r + 1) as f64;
            }
        });
        for r in 0..nrows {
            for j in 0..row_len {
                assert_eq!(data[r * row_len + j], (r + 1) as f64, "row {r}");
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let _g = test_guard();
        set_num_threads(2);
        let acc = AtomicU64::new(0);
        parallel_for(4, HEAVY, |_| {
            parallel_for(8, HEAVY, |_| {
                acc.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(acc.load(Ordering::Relaxed), 32);
        set_num_threads(0);
    }

    #[test]
    fn deeply_nested_calls_run_inline() {
        let _g = test_guard();
        set_num_threads(3);
        let acc = AtomicU64::new(0);
        parallel_for(2, HEAVY, |_| {
            parallel_for(2, HEAVY, |_| {
                parallel_reduce(
                    4,
                    1,
                    HEAVY,
                    || 0u64,
                    |a, lo, hi| *a += (hi - lo) as u64,
                    |a, b| a + b,
                );
                acc.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(acc.load(Ordering::Relaxed), 4);
        set_num_threads(0);
    }

    #[test]
    fn concurrent_callers_from_two_os_threads() {
        let _g = test_guard();
        set_num_threads(4);
        // Two OS threads issue parallel calls at once: one wins the pool,
        // the other must fall back inline; both must compute correctly.
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    s.spawn(move || {
                        let mut totals = Vec::new();
                        for round in 0..20 {
                            let n = 500 + 37 * t + round;
                            let total = parallel_reduce(
                                n,
                                16,
                                HEAVY,
                                || 0u64,
                                |acc, lo, hi| {
                                    for i in lo..hi {
                                        *acc += i as u64;
                                    }
                                },
                                |a, b| a + b,
                            );
                            totals.push((n, total));
                        }
                        totals
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for totals in results {
            for (n, total) in totals {
                assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
            }
        }
        set_num_threads(0);
    }

    #[test]
    fn thread_count_changes_between_calls() {
        let _g = test_guard();
        // Shrinking and growing the pool between calls must stay correct:
        // the pool keeps its largest size but gates participation.
        for &threads in &[1usize, 6, 2, 5, 1, 3] {
            set_num_threads(threads);
            let n = 777;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for(n, HEAVY, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads {threads}"
            );
        }
        set_num_threads(0);
    }

    #[test]
    fn narrow_region_after_a_wide_one_wakes_only_its_participants() {
        // The pool keeps its widest size. A region used to set `active`
        // to every spawned worker, so after one width-7 region each
        // width-2 region ran on, and joined, all six.
        let _g = test_guard();
        set_num_threads(7);
        parallel_for_chunked(7, 1, HEAVY, |_, _| {}); // spawn six workers
        set_num_threads(2);
        let worker_bodies = AtomicU64::new(0);
        let job = |slot: usize| {
            if slot != 0 {
                worker_bodies.fetch_add(1, Ordering::Relaxed);
            }
        };
        assert!(pool_run(2, &job), "the guarded pool is free");
        assert_eq!(
            worker_bodies.load(Ordering::Relaxed),
            1,
            "a width-2 region has one worker beside its dispatcher"
        );
        set_num_threads(0);
    }

    #[test]
    fn the_floor_picks_inline_or_pooled_and_never_the_bits() {
        // Both sides of the choice, by count: under the floor no
        // dispatch, one index of cost above it a dispatch; and the
        // non-associative f64 sum of `reduce_f64_sum_is_bitwise_...` is
        // the same on both, because `cost` never reaches `chunk`.
        let _g = test_guard();
        set_num_threads(4);
        let n = 4096usize;
        let under = Flops(MIN_REGION_FLOPS / n as u64 - 1);
        let over = Flops(MIN_REGION_FLOPS / n as u64 + 1);
        let term = |i: usize| {
            let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
            sign * (1.0 + (h >> 12) as f64 / (1u64 << 52) as f64) * 10f64.powi((h % 31) as i32 - 15)
        };
        let run = |cost: Flops| {
            let before = bgw_perf::counters::snapshot();
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for_chunked(n, 32, cost, |lo, hi| {
                for h in &hits[lo..hi] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let sum = parallel_reduce(
                n,
                32,
                cost,
                || 0.0f64,
                |acc, lo, hi| {
                    for i in lo..hi {
                        *acc += term(i);
                    }
                },
                |a, b| a + b,
            );
            (sum.to_bits(), before.delta(&bgw_perf::counters::snapshot()))
        };
        let (small_bits, small) = run(under);
        assert_eq!(small.pool_dispatches, 0, "under the floor: no wake-up");
        assert_eq!((small.pool_inline_runs, small.pool_inline_small), (2, 2));
        let (large_bits, large) = run(over);
        assert_eq!(large.pool_dispatches, 2, "over the floor: pooled");
        assert_eq!((large.pool_inline_runs, large.pool_inline_small), (0, 0));
        assert_eq!(
            small_bits, large_bits,
            "the choice must not regroup the sum"
        );
        // Width 1 and nested calls are inline for their own reason, not
        // the floor's.
        set_num_threads(1);
        let (_, serial) = run(over);
        assert_eq!((serial.pool_inline_runs, serial.pool_inline_small), (2, 0));
        set_num_threads(0);
    }

    #[test]
    fn a_busy_pool_is_counted_as_the_reason() {
        let _g = test_guard();
        set_num_threads(4);
        let before = bgw_perf::counters::snapshot();
        {
            // Another dispatcher holds the pool: the region must run
            // inline and say why.
            let _held = pool().dispatch.lock().unwrap_or_else(|e| e.into_inner());
            let hits = AtomicU64::new(0);
            parallel_for_chunked(64, 1, HEAVY, |lo, hi| {
                hits.fetch_add((hi - lo) as u64, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert_eq!((d.pool_dispatches, d.pool_inline_runs), (0, 1));
        assert_eq!((d.pool_inline_busy, d.pool_inline_small), (1, 0));
        set_num_threads(0);
    }

    #[test]
    fn pool_dispatch_counter_advances() {
        let _g = test_guard();
        set_num_threads(4);
        let before = bgw_perf::counters::snapshot();
        parallel_for(10_000, HEAVY, |_| {});
        let after = bgw_perf::counters::snapshot();
        let d = before.delta(&after);
        assert!(
            d.pool_dispatches >= 1 || d.pool_inline_runs >= 1,
            "a parallel call must be accounted somewhere"
        );
        set_num_threads(0);
    }

    #[test]
    fn nested_regions_attribute_exclusive_time() {
        // Regression for the dispatch-attribution bug: the old code
        // charged the *entire* region (publish + every body + join) to
        // `record_pool_dispatch`, and nested inline regions were counted
        // both by themselves and inside their parent. The sleeps give
        // each participant a body of >= 25 ms (15 ms own work + 10 ms
        // nested inline region), so dispatch overhead — now total minus
        // the dispatcher's own body — must sit well below the wall
        // clock, while region/inline time carries the body.
        let _g = test_guard();
        set_num_threads(2);
        parallel_for(64, HEAVY, |_| {}); // warm the pool (spawn + first wakeup)
        let before = bgw_perf::counters::snapshot();
        let t0 = Instant::now();
        let mut rows = vec![0u8; 2];
        parallel_rows(&mut rows, 1, HEAVY, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(15));
            let mut inner = vec![0u8; 2];
            parallel_rows(&mut inner, 1, HEAVY, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert_eq!(d.pool_dispatches, 1, "outer region must use the pool");
        assert_eq!(d.pool_inline_runs, 2, "one nested inline per participant");
        // Dispatch overhead excludes the dispatcher's 25 ms body by
        // construction (overhead = total - body), so this bound holds
        // deterministically; the old accounting set dispatch ~= wall.
        assert!(
            d.pool_dispatch_ns <= wall_ns.saturating_sub(24_000_000),
            "dispatch {} ns must exclude body time (wall {} ns)",
            d.pool_dispatch_ns,
            wall_ns
        );
        // Each participant's exclusive body is >= 15 ms of own sleep.
        assert!(
            d.pool_region_ns >= 28_000_000,
            "region time {} ns must carry both participants' own work",
            d.pool_region_ns
        );
        // Nested inline regions charge themselves (>= 10 ms each)...
        assert!(
            d.pool_inline_ns >= 18_000_000,
            "inline time {} ns must carry the nested regions",
            d.pool_inline_ns
        );
        // ...and exactly once: all three counters together can't exceed
        // what two participants plus a dispatcher could physically spend.
        assert!(
            d.pool_dispatch_ns + d.pool_region_ns + d.pool_inline_ns <= 3 * wall_ns,
            "attribution must not double-count (d={} r={} i={} wall={})",
            d.pool_dispatch_ns,
            d.pool_region_ns,
            d.pool_inline_ns,
            wall_ns
        );
        set_num_threads(0);
    }

    #[test]
    fn span_tree_sibling_exclusive_times_bounded_by_parent() {
        // Single-threaded, every region runs inline on one stack, so the
        // span-tree invariant is exact: children's inclusive time fits
        // inside the parent, and the parent's exclusive time is its
        // inclusive minus its children.
        let _g = test_guard();
        let _c = bgw_perf::counters::exclusive_test_guard();
        set_num_threads(1);
        bgw_trace::reset();
        bgw_trace::set_enabled(true);
        {
            let _t = bgw_trace::span!("t.par.tree");
            let mut rows = vec![0u8; 4];
            parallel_rows(&mut rows, 1, HEAVY, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                let mut inner = vec![0u8; 2];
                parallel_rows(&mut inner, 1, HEAVY, |_, _| {});
            });
        }
        bgw_trace::set_enabled(false);
        let rep = bgw_trace::report();
        fn check(node: &bgw_trace::SpanNode) {
            let child_sum: u64 = node.children.iter().map(|c| c.incl_ns).sum();
            assert!(
                child_sum <= node.incl_ns,
                "{}: children {} ns exceed parent {} ns",
                node.name,
                child_sum,
                node.incl_ns
            );
            assert!(
                node.excl_ns + child_sum <= node.incl_ns + 100_000,
                "{}: exclusive {} + children {} must not exceed inclusive {}",
                node.name,
                node.excl_ns,
                child_sum,
                node.incl_ns
            );
            for c in &node.children {
                check(c);
            }
        }
        let root = rep.find("t.par.tree").expect("traced root span");
        assert!(
            root.children.iter().any(|c| c.name == "par.inline"),
            "inline region must appear under the caller's span"
        );
        let outer = root
            .children
            .iter()
            .find(|c| c.name == "par.inline")
            .unwrap();
        assert!(
            outer.children.iter().any(|c| c.name == "par.inline"),
            "nested inline region must nest, not flatten"
        );
        check(root);
        bgw_trace::reset();
        set_num_threads(0);
    }

    #[test]
    fn pooled_worker_spans_adopt_dispatcher_parent() {
        let _g = test_guard();
        let _c = bgw_perf::counters::exclusive_test_guard();
        set_num_threads(4);
        parallel_for(64, HEAVY, |_| {}); // warm the pool before tracing
        bgw_trace::reset();
        bgw_trace::set_enabled(true);
        {
            let _t = bgw_trace::span!("t.par.pooled");
            parallel_for(4096, HEAVY, |_| {
                std::hint::black_box(());
            });
        }
        bgw_trace::set_enabled(false);
        let rep = bgw_trace::report();
        let region = rep
            .find("t.par.pooled/par.region")
            .expect("pooled region span under caller");
        assert!(
            region.children.iter().any(|c| c.name == "par.body"),
            "dispatcher body span missing"
        );
        assert!(
            region.children.iter().any(|c| c.name == "par.join"),
            "join span missing"
        );
        assert!(
            region.children.iter().any(|c| c.name == "par.worker"),
            "worker spans must adopt the dispatcher's span as parent"
        );
        bgw_trace::reset();
        set_num_threads(0);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let _g = test_guard();
        set_num_threads(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(64, HEAVY, |i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "panic in a region body must propagate");
        // The pool must still be usable afterwards.
        let hits = AtomicU64::new(0);
        parallel_for(100, HEAVY, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        set_num_threads(0);
    }

    #[test]
    fn pool_still_dispatches_after_region_panic() {
        // Reuse after a panic must mean *pooled* reuse: a wedge that
        // silently demoted every later call to the inline path would
        // still compute correct results, so check the dispatch counter,
        // not just the sums.
        let _g = test_guard();
        set_num_threads(4);
        for round in 0..3 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                parallel_for_chunked(256, 8, HEAVY, |lo, _| {
                    if lo == 64 {
                        panic!("boom in round {round}");
                    }
                });
            }));
            assert!(r.is_err(), "round {round}: panic must propagate");
            let before = bgw_perf::counters::snapshot();
            let hits = AtomicU64::new(0);
            parallel_for_chunked(256, 8, HEAVY, |lo, hi| {
                hits.fetch_add((hi - lo) as u64, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 256, "round {round}");
            let d = before.delta(&bgw_perf::counters::snapshot());
            assert!(
                d.pool_dispatches >= 1,
                "round {round}: the next region must run on the pool, \
                 not fall back inline (dispatches {}, inline {})",
                d.pool_dispatches,
                d.pool_inline_runs
            );
        }
        set_num_threads(0);
    }

    #[test]
    fn caller_slot_panic_leaves_pool_usable() {
        // Panic specifically in the dispatcher's own share (slot 0): the
        // dispatch guard unwinds through pool_run's epilogue and must not
        // poison the next dispatch.
        let _g = test_guard();
        set_num_threads(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_reduce(
                64,
                4,
                HEAVY,
                || 0u64,
                |_, lo, _| {
                    if lo < 64 {
                        panic!("dispatcher-side boom");
                    }
                },
                |a, b| a + b,
            );
        }));
        assert!(r.is_err());
        let total = parallel_reduce(
            100,
            4,
            HEAVY,
            || 0u64,
            |acc, lo, hi| *acc += (lo..hi).map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(total, 4950);
        set_num_threads(0);
    }
}
