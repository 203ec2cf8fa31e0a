//! Global, lock-free runtime counters for the node-level substrates.
//!
//! The paper attributes its kernel wins to two layers below the physics:
//! the threading runtime (Sec. 5.5's two-level work decomposition) and the
//! ZGEMM substrate (Sec. 5.6's Tensile-tuned GEMMs). These counters make
//! both layers observable from any binary without plumbing handles through
//! every call site: `bgw-par` records worker-pool dispatches and the time
//! spent inside pooled regions, `bgw-linalg` records GEMM packing versus
//! compute time.
//!
//! Counters are process-global, **monotonic** atomics. Readers take
//! [`snapshot`]s and difference them around a region of interest with
//! [`CounterSnapshot::delta`]; concurrent work from other threads is
//! included by design (the counters describe the process, not a call
//! tree — `bgw-trace` builds the call-tree view on top of these deltas).
//! There is deliberately no global reset: a reset interleaving with
//! another reader's snapshot pair silently destroys that reader's delta,
//! which is exactly the flake the old benchmark-harness `reset()` caused
//! under `cargo test`'s threaded runner. Harnesses that need isolation
//! serialize through [`exclusive_test_guard`] instead.
//!
//! ## Pool-time attribution
//!
//! Pooled parallel regions are split into *dispatch overhead*
//! (publish/wakeup plus the post-body quiesce wait, measured on the
//! dispatching thread) and *region execution* (body time summed over the
//! participating threads, each participant excluding any nested inline
//! parallel calls it made — those are charged once, to
//! [`CounterSnapshot::pool_inline_ns`]). Exclusive attribution means the
//! three pool time counters never double-count a nanosecond of body work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of SIMD instruction-set lanes tracked by the per-ISA kernel
/// counters. Indices follow `bgw_num::simd::Isa::index()`: 0 scalar,
/// 1 neon, 2 avx2, 3 avx512 (this crate is dependency-free, so the
/// correspondence is by convention, pinned by tests on the consumer side).
pub const ISA_LANES: usize = 4;

/// One row per [`CounterSnapshot`] field, in field order: its doc, its
/// name and the static it reads (a per-ISA row indexes one lane of an
/// array, which the row of lane 0 declares). The table generates the
/// statics, the struct, the field-wise methods and [`snapshot`]; the
/// `record_*` functions below update the statics by hand.
macro_rules! counters {
    (@static $cell:ident) => {
        static $cell: AtomicU64 = AtomicU64::new(0);
    };
    (@static $cell:ident [0]) => {
        static $cell: [AtomicU64; ISA_LANES] = [const { AtomicU64::new(0) }; ISA_LANES];
    };
    (@static $cell:ident [$lane:tt]) => {};
    ($($(#[$doc:meta])* $field:ident: $cell:ident $([$lane:tt])?,)*) => {
        $(counters!(@static $cell $([$lane])?);)*

        /// Point-in-time reading of every substrate counter.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $field: u64,)*
            /// Monotonicity violations observed while computing this snapshot as
            /// a delta: the number of counters that went *backwards* between the
            /// two snapshots. Always zero for direct [`snapshot`]s; nonzero on a
            /// delta means work was lost between the endpoints (snapshots taken
            /// in the wrong order, or mixed across processes) and the clamped
            /// fields under-report — surfaced instead of silently hidden.
            pub delta_underflows: u64,
        }

        impl CounterSnapshot {
            /// Counter increments between `self` (earlier) and `later`, plus the
            /// number of monotonicity violations — fields where `later` reads
            /// *below* `self`, i.e. where the saturating subtraction clamped to
            /// zero and lost work. The caller decides how loudly to surface a
            /// nonzero count; [`CounterSnapshot::delta`] debug-asserts on it.
            pub fn delta_checked(&self, later: &CounterSnapshot) -> (CounterSnapshot, u64) {
                let mut out = CounterSnapshot::default();
                let mut underflows = 0u64;
                $(
                    if later.$field < self.$field {
                        underflows += 1;
                    }
                    out.$field = later.$field.saturating_sub(self.$field);
                )*
                out.delta_underflows = underflows;
                (out, underflows)
            }

            /// Counter increments between `self` (earlier) and `later`.
            ///
            /// Counters are monotonic, so a field of `later` reading below `self`
            /// means the snapshots were taken in the wrong order (or crossed a
            /// process boundary). That used to be clamped to zero silently; it is
            /// now a debug assertion, and release builds surface it through the
            /// [`CounterSnapshot::delta_underflows`] field of the result.
            pub fn delta(&self, later: &CounterSnapshot) -> CounterSnapshot {
                let (out, underflows) = self.delta_checked(later);
                debug_assert_eq!(
                    underflows, 0,
                    "CounterSnapshot::delta: {underflows} counters went backwards \
                     between snapshots (earlier/later swapped?) — the clamped delta \
                     under-reports lost work"
                );
                out
            }

            /// Field-wise accumulation (used by the span registry to sum per-span
            /// deltas; `delta_underflows` accumulates too, so a span tree never
            /// hides a monotonicity violation seen by any of its spans).
            pub fn accumulate(&mut self, other: &CounterSnapshot) {
                $(self.$field += other.$field;)*
                self.delta_underflows += other.delta_underflows;
            }

            /// Visits every counter field as a `(name, value)` pair in declaration
            /// order — the single source of truth for serializers.
            pub fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
                $(f(stringify!($field), self.$field);)*
                f("delta_underflows", self.delta_underflows);
            }

            /// Sets a counter field by name (deserializer hook); returns `false`
            /// for an unknown name.
            pub fn set_field(&mut self, name: &str, value: u64) -> bool {
                $(
                    if name == stringify!($field) {
                        self.$field = value;
                        return true;
                    }
                )*
                if name == "delta_underflows" {
                    self.delta_underflows = value;
                    return true;
                }
                false
            }
        }

        /// Reads all counters.
        pub fn snapshot() -> CounterSnapshot {
            CounterSnapshot {
                $($field: $cell$([$lane])?.load(Ordering::Relaxed),)*
                delta_underflows: 0,
            }
        }
    };
}

counters! {
    /// Parallel regions executed on the persistent worker pool.
    pool_dispatches: POOL_DISPATCHES,
    /// Dispatch overhead of pooled regions: job publish + worker wakeup
    /// plus the post-body quiesce wait, measured on the dispatching
    /// thread (excludes all body execution).
    pool_dispatch_ns: POOL_DISPATCH_NS,
    /// Region body execution nanoseconds, summed over participating
    /// threads; each participant excludes nested inline parallel calls,
    /// so this never overlaps `pool_inline_ns`.
    pool_region_ns: POOL_REGION_NS,
    /// Parallel calls that ran inline, whatever the reason (single worker
    /// requested, nested call, work below the pool's floor, or the pool
    /// busy with another dispatcher).
    pool_inline_runs: POOL_INLINE_RUNS,
    /// Exclusive nanoseconds spent in inline parallel calls (nested
    /// inline calls are charged to themselves, not to their parent).
    pool_inline_ns: POOL_INLINE_NS,
    /// The inline runs above that could have used the pool (width > 1,
    /// not nested) but whose stated work sat below `bgw-par`'s floor.
    pool_inline_small: POOL_INLINE_SMALL,
    /// The inline runs above that lost the dispatch `try_lock` to another
    /// OS thread's region (shards sharing one pool).
    pool_inline_busy: POOL_INLINE_BUSY,
    /// Blocked ZGEMM invocations (`zgemm`, `zgemm_with_microkernel`; the
    /// reference triple loop is not counted).
    gemm_calls: GEMM_CALLS,
    /// Nanoseconds spent packing GEMM operand panels (summed over threads).
    gemm_pack_ns: GEMM_PACK_NS,
    /// Nanoseconds spent in the GEMM microkernel sweep (summed over
    /// threads; overlapping threads each contribute their own time).
    gemm_compute_ns: GEMM_COMPUTE_NS,
    /// 3-D FFT grid transforms executed (each counts one `Fft3d` pass,
    /// whichever path — pooled, serial or batched-many — ran it).
    fft_grids: FFT_GRIDS,
    /// 1-D line transforms executed inside 3-D passes (nx*ny + nx*nz +
    /// ny*nz per grid), the natural work unit of the batched driver.
    fft_lines: FFT_LINES,
    /// Wall-clock nanoseconds spent inside `Fft3d` passes, measured on
    /// the calling thread (dispatch + gather/scatter + butterflies).
    fft_ns: FFT_NS,
    /// Checkpoint records written through `bgw-io`.
    ckpt_writes: CKPT_WRITES,
    /// Checkpoint records read back through `bgw-io`.
    ckpt_reads: CKPT_READS,
    /// Checkpoint payload bytes moved (written + read).
    ckpt_bytes: CKPT_BYTES,
    /// FF Sigma bilinear forms `q_k(n)` whose imaginary part exceeded the
    /// Hermiticity tolerance before being discarded. Taking `Re(q)` is
    /// only exact for a Hermitian spectral weight `B(omega_k)`; a nonzero
    /// count means that assumption was violated and spectral weight was
    /// silently dropped — surfaced instead of hidden (debug builds also
    /// assert).
    ff_hermiticity_drops: FF_HERMITICITY_DROPS,
    /// Always zero: nothing increments it. Kept only for the adapter;
    /// ROADMAP 6(d) moves it, then it goes.
    dag_steals: DAG_STEALS,
    /// GW requests accepted into the serving queue (`bgw-serve`).
    serve_requests: SERVE_REQUESTS,
    /// GW requests completed (successfully or with a typed error). The
    /// instantaneous queue depth is `serve_requests - serve_completed`.
    serve_completed: SERVE_COMPLETED,
    /// Served requests whose W screening came from the in-memory cache.
    serve_hits_mem: SERVE_HITS_MEM,
    /// Served requests whose W screening was restarted from an on-disk
    /// artifact record (a cache hit that is a checkpoint read).
    serve_hits_disk: SERVE_HITS_DISK,
    /// Served requests whose W screening had to be computed from scratch.
    serve_misses: SERVE_MISSES,
    /// Requests that shared another request's screening build within one
    /// coalesced batch (group size minus one, summed over groups).
    serve_coalesced: SERVE_COALESCED,
    /// Requests preempted mid-evaluation (checkpointed and re-enqueued in
    /// favor of a higher-priority request).
    serve_preemptions: SERVE_PREEMPTIONS,
    /// Artifact-store entries rejected as corrupt/torn and recomputed
    /// (a checksum failure downgraded to a miss, never a wrong hit).
    serve_store_invalid: SERVE_STORE_INVALID,
    /// Nanoseconds requests spent queued before their evaluation began.
    serve_queue_ns: SERVE_QUEUE_NS,
    /// Decoded screenings evicted from the in-memory cache by the
    /// cost-aware byte budget.
    serve_mem_evicted: SERVE_MEM_EVICTED,
    /// Artifact-store files (artifacts + partials) reclaimed by GC.
    serve_gc_removed: SERVE_GC_REMOVED,
    /// Bytes reclaimed from the artifact store by GC.
    serve_gc_bytes: SERVE_GC_BYTES,
    /// ZGEMM calls dispatched to the scalar microkernel.
    gemm_mk_calls_scalar: GEMM_MK_CALLS[0],
    /// ZGEMM calls dispatched to the NEON microkernel.
    gemm_mk_calls_neon: GEMM_MK_CALLS[1],
    /// ZGEMM calls dispatched to the AVX2+FMA microkernel.
    gemm_mk_calls_avx2: GEMM_MK_CALLS[2],
    /// ZGEMM calls dispatched to the AVX-512 microkernel.
    gemm_mk_calls_avx512: GEMM_MK_CALLS[3],
    /// GEMM packing nanoseconds attributed to scalar-microkernel calls.
    gemm_mk_pack_ns_scalar: GEMM_MK_PACK_NS[0],
    /// GEMM packing nanoseconds attributed to NEON-microkernel calls.
    gemm_mk_pack_ns_neon: GEMM_MK_PACK_NS[1],
    /// GEMM packing nanoseconds attributed to AVX2-microkernel calls.
    gemm_mk_pack_ns_avx2: GEMM_MK_PACK_NS[2],
    /// GEMM packing nanoseconds attributed to AVX-512-microkernel calls.
    gemm_mk_pack_ns_avx512: GEMM_MK_PACK_NS[3],
    /// GEMM microkernel-sweep nanoseconds on the scalar variant.
    gemm_mk_compute_ns_scalar: GEMM_MK_COMPUTE_NS[0],
    /// GEMM microkernel-sweep nanoseconds on the NEON variant.
    gemm_mk_compute_ns_neon: GEMM_MK_COMPUTE_NS[1],
    /// GEMM microkernel-sweep nanoseconds on the AVX2 variant.
    gemm_mk_compute_ns_avx2: GEMM_MK_COMPUTE_NS[2],
    /// GEMM microkernel-sweep nanoseconds on the AVX-512 variant.
    gemm_mk_compute_ns_avx512: GEMM_MK_COMPUTE_NS[3],
    /// Batched-FFT butterfly passes executed by the scalar combine set.
    fft_mk_calls_scalar: FFT_MK_CALLS[0],
    /// Batched-FFT butterfly passes executed by the NEON combine set.
    fft_mk_calls_neon: FFT_MK_CALLS[1],
    /// Batched-FFT butterfly passes executed by the AVX2 combine set.
    fft_mk_calls_avx2: FFT_MK_CALLS[2],
    /// Batched-FFT butterfly passes executed by the AVX-512 combine set.
    fft_mk_calls_avx512: FFT_MK_CALLS[3],
    /// GPP diag lane groups (L consecutive bands) run by the scalar body.
    gpp_mk_groups_scalar: GPP_MK_GROUPS[0],
    /// GPP diag lane groups run by the NEON body.
    gpp_mk_groups_neon: GPP_MK_GROUPS[1],
    /// GPP diag lane groups run by the AVX2+FMA body (4 bands per group).
    gpp_mk_groups_avx2: GPP_MK_GROUPS[2],
    /// GPP diag lane groups run by the AVX-512 body (8 bands per group).
    gpp_mk_groups_avx512: GPP_MK_GROUPS[3],
}

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Serializes counter-sensitive test/benchmark sections.
///
/// `cargo test` runs tests of one binary on several threads; two tests
/// that bracket pool/GEMM work with snapshot pairs and assert *upper
/// bounds* (or equalities) on the delta race each other — the other
/// test's work lands inside this test's bracket. Holding this guard for
/// the duration of the bracketed section removes the interleaving without
/// any global reset. Lower-bound (`>=`) assertions don't need it:
/// concurrent work only adds. The guard recovers from poisoning, so one
/// panicking test does not cascade.
pub fn exclusive_test_guard() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Records one pooled parallel region whose dispatch overhead (publish +
/// wakeup + quiesce wait, body time excluded) was `overhead_ns`.
#[inline]
pub fn record_pool_dispatch(overhead_ns: u64) {
    POOL_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    POOL_DISPATCH_NS.fetch_add(overhead_ns, Ordering::Relaxed);
}

/// Adds one participant's exclusive region-body time (nested inline
/// parallel calls already subtracted by the caller).
#[inline]
pub fn record_pool_region_ns(ns: u64) {
    POOL_REGION_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Records one inline (non-pooled) parallel call of exclusive duration
/// `ns` (nested inline calls subtracted by the caller).
#[inline]
pub fn record_pool_inline(ns: u64) {
    POOL_INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
    POOL_INLINE_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Marks the inline run about to be recorded as one the floor chose:
/// the pool was available and the region's stated work was too small.
#[inline]
pub fn record_pool_inline_small() {
    POOL_INLINE_SMALL.fetch_add(1, Ordering::Relaxed);
}

/// Marks the inline run about to be recorded as one that found another
/// OS thread mid-dispatch.
#[inline]
pub fn record_pool_inline_busy() {
    POOL_INLINE_BUSY.fetch_add(1, Ordering::Relaxed);
}

/// Records one blocked-family ZGEMM invocation.
#[inline]
pub fn record_gemm_call() {
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Adds operand-packing time to the GEMM accounting.
#[inline]
pub fn record_gemm_pack_ns(ns: u64) {
    GEMM_PACK_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Adds microkernel time to the GEMM accounting.
#[inline]
pub fn record_gemm_compute_ns(ns: u64) {
    GEMM_COMPUTE_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Records one 3-D FFT pass of `lines` 1-D transforms taking `ns`
/// nanoseconds on the calling thread.
#[inline]
pub fn record_fft_pass(lines: u64, ns: u64) {
    FFT_GRIDS.fetch_add(1, Ordering::Relaxed);
    FFT_LINES.fetch_add(lines, Ordering::Relaxed);
    FFT_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Records one checkpoint record written with `bytes` of payload.
#[inline]
pub fn record_ckpt_write(bytes: u64) {
    CKPT_WRITES.fetch_add(1, Ordering::Relaxed);
    CKPT_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Records one checkpoint record read back with `bytes` of payload.
#[inline]
pub fn record_ckpt_read(bytes: u64) {
    CKPT_READS.fetch_add(1, Ordering::Relaxed);
    CKPT_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Records one FF Sigma bilinear form whose imaginary residue exceeded
/// the Hermiticity tolerance when it was discarded.
pub fn record_ff_hermiticity_drop() {
    FF_HERMITICITY_DROPS.fetch_add(1, Ordering::Relaxed);
}

/// Records one request accepted into the serving queue.
#[inline]
pub fn record_serve_request() {
    SERVE_REQUESTS.fetch_add(1, Ordering::Relaxed);
}

/// Records one request completed after spending `queue_ns` queued.
#[inline]
pub fn record_serve_completed(queue_ns: u64) {
    SERVE_COMPLETED.fetch_add(1, Ordering::Relaxed);
    SERVE_QUEUE_NS.fetch_add(queue_ns, Ordering::Relaxed);
}

/// Records one screening served from the in-memory cache.
#[inline]
pub fn record_serve_hit_mem() {
    SERVE_HITS_MEM.fetch_add(1, Ordering::Relaxed);
}

/// Records one screening restarted from an on-disk artifact record.
#[inline]
pub fn record_serve_hit_disk() {
    SERVE_HITS_DISK.fetch_add(1, Ordering::Relaxed);
}

/// Records one screening computed from scratch (cache miss).
#[inline]
pub fn record_serve_miss() {
    SERVE_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` requests that rode along on another request's screening
/// within one coalesced batch.
#[inline]
pub fn record_serve_coalesced(n: u64) {
    SERVE_COALESCED.fetch_add(n, Ordering::Relaxed);
}

/// Records one mid-evaluation preemption (checkpoint + re-enqueue).
#[inline]
pub fn record_serve_preemption() {
    SERVE_PREEMPTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Records one corrupt/torn artifact-store entry downgraded to a miss.
#[inline]
pub fn record_serve_store_invalid() {
    SERVE_STORE_INVALID.fetch_add(1, Ordering::Relaxed);
}

/// Records one screening evicted from the in-memory cache by the byte
/// budget.
#[inline]
pub fn record_serve_mem_evicted() {
    SERVE_MEM_EVICTED.fetch_add(1, Ordering::Relaxed);
}

/// Records `n` artifact-store files reclaiming `bytes` bytes in one GC
/// pass.
#[inline]
pub fn record_serve_gc(n: u64, bytes: u64) {
    SERVE_GC_REMOVED.fetch_add(n, Ordering::Relaxed);
    SERVE_GC_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

#[inline]
fn isa_lane(isa: usize) -> usize {
    debug_assert!(isa < ISA_LANES, "unknown ISA index {isa}");
    isa.min(ISA_LANES - 1)
}

/// Records one blocked-family ZGEMM call dispatched to the microkernel
/// of ISA index `isa` (0 scalar, 1 neon, 2 avx2, 3 avx512).
#[inline]
pub fn record_gemm_mk_call(isa: usize) {
    GEMM_MK_CALLS[isa_lane(isa)].fetch_add(1, Ordering::Relaxed);
}

/// Adds operand-packing time attributed to the microkernel of ISA index
/// `isa` (the packing layout is the one that kernel's register tile
/// demands, so packing cost is charged to the consuming variant).
#[inline]
pub fn record_gemm_mk_pack_ns(isa: usize, ns: u64) {
    GEMM_MK_PACK_NS[isa_lane(isa)].fetch_add(ns, Ordering::Relaxed);
}

/// Adds microkernel-sweep time for the variant of ISA index `isa`.
#[inline]
pub fn record_gemm_mk_compute_ns(isa: usize, ns: u64) {
    GEMM_MK_COMPUTE_NS[isa_lane(isa)].fetch_add(ns, Ordering::Relaxed);
}

/// Records one batched-FFT butterfly pass executed by the combine set of
/// ISA index `isa`.
#[inline]
pub fn record_fft_mk_call(isa: usize) {
    FFT_MK_CALLS[isa_lane(isa)].fetch_add(1, Ordering::Relaxed);
}

/// Records one GPP diag lane group run by the body of ISA index `isa`.
#[inline]
pub fn record_gpp_mk_group(isa: usize) {
    GPP_MK_GROUPS[isa_lane(isa)].fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_reflect_records() {
        let before = snapshot();
        record_pool_dispatch(1000);
        record_pool_region_ns(4000);
        record_pool_inline(200);
        record_pool_inline_small();
        record_pool_inline_busy();
        record_gemm_call();
        record_gemm_pack_ns(10);
        record_gemm_compute_ns(20);
        record_fft_pass(48, 30);
        record_ckpt_write(64);
        record_ckpt_read(64);
        record_serve_request();
        record_serve_hit_mem();
        record_serve_hit_disk();
        record_serve_miss();
        record_serve_coalesced(4);
        record_serve_preemption();
        record_serve_store_invalid();
        record_serve_mem_evicted();
        record_serve_gc(2, 4096);
        record_serve_completed(750);
        let after = snapshot();
        let d = before.delta(&after);
        assert!(d.pool_dispatches >= 1);
        assert!(d.pool_dispatch_ns >= 1000);
        assert!(d.pool_region_ns >= 4000);
        assert!(d.pool_inline_runs >= 1);
        assert!(d.pool_inline_ns >= 200);
        assert!(d.pool_inline_small >= 1);
        assert!(d.pool_inline_busy >= 1);
        assert!(d.gemm_calls >= 1);
        assert!(d.gemm_pack_ns >= 10);
        assert!(d.gemm_compute_ns >= 20);
        assert!(d.fft_grids >= 1);
        assert!(d.fft_lines >= 48);
        assert!(d.fft_ns >= 30);
        assert!(d.ckpt_writes >= 1);
        assert!(d.ckpt_reads >= 1);
        assert!(d.ckpt_bytes >= 128);
        assert!(d.serve_requests >= 1);
        assert!(d.serve_completed >= 1);
        assert!(d.serve_hits_mem >= 1);
        assert!(d.serve_hits_disk >= 1);
        assert!(d.serve_misses >= 1);
        assert!(d.serve_coalesced >= 4);
        assert!(d.serve_preemptions >= 1);
        assert!(d.serve_store_invalid >= 1);
        assert!(d.serve_queue_ns >= 750);
        assert!(d.serve_mem_evicted >= 1);
        assert!(d.serve_gc_removed >= 2);
        assert!(d.serve_gc_bytes >= 4096);
        assert_eq!(d.delta_underflows, 0);
    }

    #[test]
    fn delta_checked_counts_monotonicity_violations() {
        let earlier = CounterSnapshot {
            gemm_calls: 10,
            fft_ns: 500,
            ..Default::default()
        };
        let later = CounterSnapshot {
            gemm_calls: 7, // went backwards
            fft_ns: 400,   // went backwards
            ckpt_bytes: 3,
            ..Default::default()
        };
        let (d, underflows) = earlier.delta_checked(&later);
        assert_eq!(underflows, 2);
        assert_eq!(d.delta_underflows, 2);
        assert_eq!(d.gemm_calls, 0, "clamped, but counted");
        assert_eq!(d.fft_ns, 0);
        assert_eq!(d.ckpt_bytes, 3, "forward fields still differenced");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "went backwards"))]
    fn delta_asserts_on_underflow_in_debug() {
        let earlier = CounterSnapshot {
            gemm_calls: 10,
            ..Default::default()
        };
        let later = CounterSnapshot::default();
        let d = earlier.delta(&later);
        // Release builds reach here and surface the violation as data.
        assert_eq!(d.delta_underflows, 1);
    }

    #[test]
    fn per_isa_kernel_counters_advance() {
        let before = snapshot();
        record_gemm_mk_call(3);
        record_gemm_mk_pack_ns(3, 250);
        record_gemm_mk_compute_ns(3, 750);
        record_fft_mk_call(0);
        record_gpp_mk_group(2);
        let d = before.delta(&snapshot());
        assert!(d.gemm_mk_calls_avx512 >= 1);
        assert!(d.gemm_mk_pack_ns_avx512 >= 250);
        assert!(d.gemm_mk_compute_ns_avx512 >= 750);
        assert!(d.fft_mk_calls_scalar >= 1);
        assert!(d.gpp_mk_groups_avx2 >= 1);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = CounterSnapshot {
            gemm_calls: 2,
            delta_underflows: 1,
            ..Default::default()
        };
        let b = CounterSnapshot {
            gemm_calls: 3,
            pool_region_ns: 7,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.gemm_calls, 5);
        assert_eq!(a.pool_region_ns, 7);
        assert_eq!(a.delta_underflows, 1);
    }

    #[test]
    fn field_visitor_roundtrip() {
        let a = CounterSnapshot {
            pool_dispatches: 1,
            gemm_pack_ns: 2,
            ckpt_bytes: 3,
            delta_underflows: 4,
            ..Default::default()
        };
        let mut b = CounterSnapshot::default();
        let mut n_fields = 0;
        a.for_each_field(|name, value| {
            assert!(b.set_field(name, value), "unknown field {name}");
            n_fields += 1;
        });
        assert_eq!(a, b);
        assert_eq!(n_fields, 51, "visitor must cover every field");
        assert!(!b.set_field("no_such_counter", 1));
    }
}
