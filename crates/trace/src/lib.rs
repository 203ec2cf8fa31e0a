//! `bgw-trace`: hierarchical span tracing for the GW runtime.
//!
//! The paper validates its FLOP models against *profilers* (Table 3);
//! this crate is the reproduction's profiler. A span is a named region
//! of execution entered with the [`span!`](crate::span!) macro (or [`enter`]) and
//! closed by RAII. Spans nest through a thread-local stack; every
//! distinct `(parent, call-site)` pair becomes one node in a
//! process-wide tree, and each node accumulates:
//!
//! - **inclusive** wall time (entry to exit),
//! - **exclusive** wall time (inclusive minus same-thread children —
//!   nested spans are never double-counted),
//! - FLOPs attributed by kernels via [`add_flops`], and
//! - the [`bgw_perf::CounterSnapshot`] delta observed across the span
//!   (inclusive of children, accumulated over calls).
//!
//! Tracing is **off by default at runtime** ([`set_enabled`]): a
//! disabled span costs one relaxed atomic load (DESIGN.md Sec. 11).
//!
//! ## Threads
//!
//! Span stacks are thread-local: a span entered on one thread must exit
//! on the same thread (guards are `!Send`). Work handed to pool workers
//! is stitched into the tree by *adoption*: the dispatching thread
//! captures [`current_handle`] and each worker wraps its share in
//! [`adopt`], so worker-side spans parent under the dispatcher's span.
//! Adopted children run concurrently with their parent, which is why
//! the "sibling exclusive times sum to ≤ parent inclusive" invariant is
//! only a single-thread guarantee — across threads, child inclusive
//! time is real CPU time, not a slice of the parent's wall clock.
//! Adopted children *do* subtract from their parent's exclusive time,
//! but the correction is settled node-side at [`report()`] time (an
//! adopted child — a stolen task, say — may finish after its parent's
//! frame has already closed), saturating at zero.

#![warn(missing_docs)]

pub mod report;

pub use report::{RunReport, SpanNode};

mod imp {
    use crate::report::{RunReport, SpanNode};
    use bgw_perf::counters::{self, CounterSnapshot};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// A static call-site identity for a span.
    ///
    /// Declared once per call site (the [`span!`](crate::span!) macro does this) and
    /// registered lazily in the process-wide registry on first use; the
    /// atomic id makes repeat entries lock-free on the site itself.
    pub struct SpanSite {
        name: &'static str,
        /// 0 = not yet registered; registered ids start at 1.
        id: AtomicU32,
    }

    impl SpanSite {
        /// Declares a call site with a fixed span name.
        pub const fn new(name: &'static str) -> Self {
            Self {
                name,
                id: AtomicU32::new(0),
            }
        }
    }

    /// One node of the process-wide span tree.
    struct Node {
        site: u32,
        children: Vec<u32>,
        calls: u64,
        incl_ns: u64,
        excl_ns: u64,
        /// Inclusive nanoseconds of *adopted* (cross-thread) children.
        /// Same-thread children are subtracted from the parent frame
        /// while it is still open, but an adopted child — a stolen task,
        /// say — may close *after* its parent's frame already folded into
        /// this node, so its exclusive-time correction has to accumulate
        /// here and be applied at [`report`] time. Without this, the
        /// wall-clock interval where parent and adopted child overlap was
        /// counted as exclusive time on *both* nodes.
        adopted_child_ns: u64,
        flops: u64,
        counters: CounterSnapshot,
    }

    #[derive(Default)]
    struct Registry {
        /// Site id (1-based) -> name.
        site_names: Vec<&'static str>,
        nodes: Vec<Node>,
        roots: Vec<u32>,
    }

    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        site_names: Vec::new(),
        nodes: Vec::new(),
        roots: Vec::new(),
    });
    static ENABLED: AtomicBool = AtomicBool::new(false);
    /// Bumped by [`reset`]; stale frames/caches are detected by epoch
    /// mismatch and dropped instead of touching rebuilt registry state.
    static EPOCH: AtomicU64 = AtomicU64::new(0);

    fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct Frame {
        node: u32,
        epoch: u64,
        start: Instant,
        /// Inclusive nanoseconds of same-thread children, subtracted
        /// from this frame's inclusive time to get exclusive time.
        child_ns: u64,
        flops: u64,
        counters0: CounterSnapshot,
    }

    #[derive(Default)]
    struct ThreadState {
        stack: Vec<Frame>,
        /// `(parent node + 1 (0 = root), site id)` -> node index.
        cache: HashMap<(u32, u32), u32>,
        cache_epoch: u64,
        /// Cross-thread parent adopted from a dispatching thread.
        adopted: Option<(u32, u64)>,
    }

    thread_local! {
        static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::default());
    }

    /// Turns runtime span collection on or off (off at process start).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being collected.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Discards the span tree (epoch-bumped: spans still open on any
    /// thread exit silently instead of corrupting the rebuilt tree).
    /// Intended for harness use between measured sections, not for
    /// library code.
    pub fn reset() {
        let mut reg = lock_registry();
        EPOCH.fetch_add(1, Ordering::Relaxed);
        reg.nodes.clear();
        reg.roots.clear();
        // Site names survive: site ids are burned into statics.
    }

    fn site_id(site: &'static SpanSite) -> u32 {
        let id = site.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let mut reg = lock_registry();
        // Double-checked under the lock: another thread may have won.
        let id = site.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        reg.site_names.push(site.name);
        let id = reg.site_names.len() as u32;
        site.id.store(id, Ordering::Relaxed);
        id
    }

    /// RAII guard for an active span; closing happens on drop. `!Send`:
    /// a span must exit on the thread that entered it.
    pub struct Span {
        active: bool,
        _not_send: PhantomData<*const ()>,
    }

    /// Enters a span at `site`. Prefer the [`span!`](crate::span!) macro, which owns
    /// the static site declaration.
    pub fn enter(site: &'static SpanSite) -> Span {
        if !enabled() {
            return Span {
                active: false,
                _not_send: PhantomData,
            };
        }
        let sid = site_id(site);
        let epoch = EPOCH.load(Ordering::Relaxed);
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if tls.cache_epoch != epoch {
                // Note: `adopted` is NOT cleared here — it carries its own
                // epoch and is filtered at use, and a freshly adopted
                // handle on a new thread is still at the old TLS epoch.
                tls.cache.clear();
                tls.cache_epoch = epoch;
            }
            let parent = match tls.stack.last() {
                Some(f) if f.epoch == epoch => Some(f.node),
                Some(_) => None,
                None => tls.adopted.filter(|&(_, e)| e == epoch).map(|(n, _)| n),
            };
            let key = (parent.map_or(0, |p| p + 1), sid);
            let node = match tls.cache.get(&key) {
                Some(&n) => n,
                None => {
                    let mut reg = lock_registry();
                    let found = match parent {
                        Some(p) => reg.nodes[p as usize]
                            .children
                            .iter()
                            .copied()
                            .find(|&c| reg.nodes[c as usize].site == sid),
                        None => reg
                            .roots
                            .iter()
                            .copied()
                            .find(|&r| reg.nodes[r as usize].site == sid),
                    };
                    let n = found.unwrap_or_else(|| {
                        let n = reg.nodes.len() as u32;
                        reg.nodes.push(Node {
                            site: sid,
                            children: Vec::new(),
                            calls: 0,
                            incl_ns: 0,
                            excl_ns: 0,
                            adopted_child_ns: 0,
                            flops: 0,
                            counters: CounterSnapshot::default(),
                        });
                        match parent {
                            Some(p) => reg.nodes[p as usize].children.push(n),
                            None => reg.roots.push(n),
                        }
                        n
                    });
                    drop(reg);
                    tls.cache.insert(key, n);
                    n
                }
            };
            tls.stack.push(Frame {
                node,
                epoch,
                start: Instant::now(),
                child_ns: 0,
                flops: 0,
                counters0: counters::snapshot(),
            });
        });
        Span {
            active: true,
            _not_send: PhantomData,
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            TLS.with(|tls| {
                let mut tls = tls.borrow_mut();
                let Some(frame) = tls.stack.pop() else {
                    return;
                };
                let incl = frame.start.elapsed().as_nanos() as u64;
                if frame.epoch != EPOCH.load(Ordering::Relaxed) {
                    return; // reset() happened under us; drop the sample
                }
                let delta = frame.counters0.delta(&counters::snapshot());
                let mut adopted_parent = None;
                match tls.stack.last_mut() {
                    Some(parent) => {
                        if parent.epoch == frame.epoch {
                            parent.child_ns += incl;
                        }
                    }
                    // Bottom of this thread's stack: if the frame was
                    // parented by adoption, its parent lives on another
                    // thread (and its frame may already be closed — a
                    // stolen task outliving its dispatcher). Charge the
                    // correction to the parent *node*, applied at report
                    // time, rather than to a frame that may be gone.
                    None => {
                        adopted_parent = tls
                            .adopted
                            .filter(|&(_, e)| e == frame.epoch)
                            .map(|(n, _)| n);
                    }
                }
                let mut reg = lock_registry();
                // A concurrent reset between the epoch check and the
                // lock would leave `frame.node` dangling; re-check.
                if frame.epoch != EPOCH.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(p) = adopted_parent {
                    reg.nodes[p as usize].adopted_child_ns += incl;
                }
                let node = &mut reg.nodes[frame.node as usize];
                node.calls += 1;
                node.incl_ns += incl;
                node.excl_ns += incl.saturating_sub(frame.child_ns);
                node.flops += frame.flops;
                node.counters.accumulate(&delta);
            });
        }
    }

    /// Attributes `n` floating-point operations to the innermost active
    /// span on this thread (no-op when disabled or outside any span).
    pub fn add_flops(n: u64) {
        if !enabled() {
            return;
        }
        TLS.with(|tls| {
            if let Some(f) = tls.borrow_mut().stack.last_mut() {
                f.flops += n;
            }
        });
    }

    /// A cross-thread reference to the caller's innermost span, for
    /// parenting worker-side spans under a dispatcher ([`adopt`]).
    #[derive(Clone, Copy, Debug)]
    pub struct Handle {
        node: u32,
        epoch: u64,
        some: bool,
    }

    /// Captures the calling thread's innermost span as a [`Handle`]
    /// (an empty handle when disabled or outside any span).
    pub fn current_handle() -> Handle {
        let none = Handle {
            node: 0,
            epoch: 0,
            some: false,
        };
        if !enabled() {
            return none;
        }
        TLS.with(|tls| {
            let tls = tls.borrow();
            match tls.stack.last() {
                Some(f) => Handle {
                    node: f.node,
                    epoch: f.epoch,
                    some: true,
                },
                None => tls
                    .adopted
                    .map(|(n, e)| Handle {
                        node: n,
                        epoch: e,
                        some: true,
                    })
                    .unwrap_or(none),
            }
        })
    }

    /// Restores the pre-adoption parent on drop.
    pub struct AdoptGuard {
        prev: Option<(u32, u64)>,
        installed: bool,
        _not_send: PhantomData<*const ()>,
    }

    /// Makes `handle`'s span the parent for root-level spans entered on
    /// this thread until the guard drops. Used by pool workers so their
    /// spans nest under the dispatching thread's span.
    pub fn adopt(handle: Handle) -> AdoptGuard {
        if !handle.some {
            return AdoptGuard {
                prev: None,
                installed: false,
                _not_send: PhantomData,
            };
        }
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let prev = tls.adopted;
            tls.adopted = Some((handle.node, handle.epoch));
            AdoptGuard {
                prev,
                installed: true,
                _not_send: PhantomData,
            }
        })
    }

    impl Drop for AdoptGuard {
        fn drop(&mut self) {
            if !self.installed {
                return;
            }
            let prev = self.prev;
            TLS.with(|tls| tls.borrow_mut().adopted = prev);
        }
    }

    /// Builds a [`RunReport`] snapshot of the span tree accumulated so
    /// far. Children are ordered by name so reports from threaded runs
    /// are deterministic.
    pub fn report() -> RunReport {
        let reg = lock_registry();
        fn build(reg: &Registry, idx: u32) -> SpanNode {
            let node = &reg.nodes[idx as usize];
            let mut children: Vec<SpanNode> =
                node.children.iter().map(|&c| build(reg, c)).collect();
            children.sort_by(|a, b| a.name.cmp(&b.name));
            SpanNode {
                name: reg.site_names[(node.site - 1) as usize].to_string(),
                calls: node.calls,
                incl_ns: node.incl_ns,
                // Adopted (cross-thread) children subtract here, at
                // report time: their frames may have closed after the
                // parent's, so the overlap cannot be settled frame-side.
                // Saturating: several adopted children running
                // concurrently can together exceed the parent's wall.
                excl_ns: node.excl_ns.saturating_sub(node.adopted_child_ns),
                flops: node.flops,
                counters: node.counters,
                children,
            }
        }
        let mut spans: Vec<SpanNode> = reg.roots.iter().map(|&r| build(&reg, r)).collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        RunReport::new(spans)
    }
}

pub use imp::{
    add_flops, adopt, current_handle, enabled, enter, report, reset, set_enabled, AdoptGuard,
    Handle, Span, SpanSite,
};

/// Opens a span named by a string literal, registering the call site
/// statically. Binds the guard to a local:
///
/// ```
/// let _s = bgw_trace::span!("gemm.pack");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static SITE: $crate::SpanSite = $crate::SpanSite::new($name);
        $crate::enter(&SITE)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests mutate the global registry; serialize them alongside
    /// counter-asserting tests.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        bgw_perf::counters::exclusive_test_guard()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        reset();
        set_enabled(false);
        {
            let _s = span!("t.disabled");
        }
        assert!(report().spans.iter().all(|s| s.name != "t.disabled"));
    }

    #[test]
    fn nesting_builds_tree_with_exclusive_times() {
        let _g = guard();
        reset();
        set_enabled(true);
        {
            let _a = span!("t.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = span!("t.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
                add_flops(100);
            }
            {
                let _c = span!("t.inner2");
                add_flops(7);
            }
        }
        set_enabled(false);
        let rep = report();
        let outer = rep.find("t.outer").expect("outer span");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.children.len(), 2);
        let inner = rep.find("t.outer/t.inner").expect("inner span");
        assert_eq!(inner.flops, 100);
        assert!(inner.incl_ns >= 2_000_000);
        // Exclusive excludes children; inclusive covers them.
        assert!(outer.incl_ns >= inner.incl_ns);
        let child_sum: u64 = outer.children.iter().map(|c| c.incl_ns).sum();
        assert!(outer.excl_ns <= outer.incl_ns - child_sum + 1_000_000);
        // Single-thread invariant: children inclusive fits in parent.
        assert!(child_sum <= outer.incl_ns);
        assert_eq!(outer.inclusive_flops(), 107);
        reset();
    }

    #[test]
    fn repeated_calls_accumulate_on_one_node() {
        let _g = guard();
        reset();
        set_enabled(true);
        for _ in 0..5 {
            let _a = span!("t.loop");
            let _b = span!("t.loop.body");
        }
        set_enabled(false);
        let rep = report();
        assert_eq!(rep.find("t.loop").unwrap().calls, 5);
        assert_eq!(rep.find("t.loop/t.loop.body").unwrap().calls, 5);
        reset();
    }

    #[test]
    fn counter_deltas_attach_to_spans() {
        let _g = guard();
        reset();
        set_enabled(true);
        {
            let _a = span!("t.counters");
            bgw_perf::counters::record_gemm_call();
            bgw_perf::counters::record_gemm_call();
        }
        set_enabled(false);
        let rep = report();
        let n = rep.find("t.counters").unwrap();
        assert!(n.counters.gemm_calls >= 2);
        assert_eq!(n.counters.delta_underflows, 0);
        reset();
    }

    #[test]
    fn adoption_parents_worker_spans_under_dispatcher() {
        let _g = guard();
        reset();
        set_enabled(true);
        {
            let _a = span!("t.dispatch");
            let h = current_handle();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _adopt = adopt(h);
                    let _w = span!("t.worker");
                });
            });
        }
        set_enabled(false);
        let rep = report();
        assert!(rep.find("t.dispatch/t.worker").is_some());
        assert!(rep.find("t.worker").is_none(), "not a root");
        reset();
    }

    #[test]
    fn same_site_under_different_parents_gets_distinct_nodes() {
        let _g = guard();
        reset();
        set_enabled(true);
        static SHARED: SpanSite = SpanSite::new("t.shared");
        {
            let _p = span!("t.parent_a");
            let _s = enter(&SHARED);
        }
        {
            let _p = span!("t.parent_b");
            let _s = enter(&SHARED);
        }
        set_enabled(false);
        let rep = report();
        assert!(rep.find("t.parent_a/t.shared").is_some());
        assert!(rep.find("t.parent_b/t.shared").is_some());
        reset();
    }

    #[test]
    fn disabled_enter_is_cheap() {
        let _g = guard();
        set_enabled(false);
        let n = 100_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            let _s = span!("t.overhead");
        }
        let per_span = t0.elapsed().as_nanos() as u64 / n;
        // One relaxed load + a stack-local struct: generous bound that
        // still catches an accidental lock or TLS hit on this path.
        assert!(per_span < 1_000, "disabled span cost {per_span} ns");
    }
}
