//! The synchronous serving engine.
//!
//! [`ServeCore`] owns the bounded queue, the two-level cache (in-memory
//! LRU of decoded [`Screening`]s over the on-disk [`ArtifactStore`]), and
//! the batch evaluator. It is deliberately single-threaded and
//! externally driven — [`ServeCore::step`] runs exactly one coalesced
//! batch to completion per call — so the traffic-replay test battery can
//! assert the exact event sequence a seeded request stream produces. The
//! threaded daemon in [`server`](crate::server) wraps this engine
//! verbatim; nothing about scheduling lives only in the threaded path.
//!
//! A step:
//! 1. pick the highest-priority queued request (ties: arrival order) and
//!    pull every queued request sharing its W artifact key — the batch;
//! 2. acquire the screening: memory LRU → disk artifact (a cache hit *is*
//!    a restart through `screening_from_checkpoint`) → full recompute +
//!    atomic store;
//! 3. evaluate each distinct `(band, delta)` Sigma row exactly once over
//!    the union context — `bgw_core::service::sigma_row`, the one-shot
//!    drivers' row entry;
//! 4. assemble (`SigmaRows::assemble`, the one-shot drivers' stage 7, over
//!    each member's own window) and answer every member, with its payload
//!    or a typed error.
//!
//! Nothing interrupts a batch: priority only picks the next one, so a
//! request is queued, then in a batch, then answered, and never goes back
//! to the queue.

use crate::key::ArtifactKey;
use crate::request::{GwRequest, RequestKind};
use crate::store::ArtifactStore;
use bgw_core::epsilon::EpsilonError;
use bgw_core::service::{
    band_subset, build_screening, ff_eval, screening_from_checkpoint, screening_to_checkpoint,
    sigma_context, sigma_row, Screening, SigmaRows,
};
use bgw_num::Complex64;
use bgw_perf::counters;
use bgw_trace::RunReport;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Identifier assigned to each accepted request.
pub type RequestId = u64;

/// Serving-engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Artifact store directory.
    pub store_dir: PathBuf,
    /// Bounded queue capacity; excess enqueues fail with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Byte budget for the in-memory cache of decoded screenings. Each
    /// entry is charged its decoded footprint
    /// ([`Screening::approx_bytes`], FF blocks included) — cost-aware
    /// eviction, not an entry count: a full-frequency screening (~5x a
    /// GPP one here) displaces proportionally more of the cache. The
    /// most recent entry is always kept, even over budget; `0` disables
    /// the cache entirely.
    pub mem_budget_bytes: u64,
    /// Byte budget for the on-disk artifact store; when the store
    /// exceeds it, a GC pass after each batch reclaims records
    /// oldest-access-first (never one pinned by an in-flight batch).
    /// `0` disables the size cap.
    pub store_budget_bytes: u64,
    /// Dispatcher shards the threaded [`Server`](crate::server::Server)
    /// spawns; requests route to shard `w_key % n_shards`, so distinct
    /// screenings build concurrently while coalescing stays per-shard
    /// by construction. A synchronous `ServeCore` ignores this field.
    pub n_shards: usize,
    /// Attach a per-request `bgw-trace` report delta to each response.
    pub collect_reports: bool,
    /// Test hook: panic the engine at this evaluation op — the
    /// dispatcher-death battery uses it to prove no ticket ever blocks
    /// forever on a dead shard.
    pub panic_at_op: Option<u64>,
}

impl ServeConfig {
    /// Defaults: queue 64, 256 MiB memory cache, no disk cap, 1 shard.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        Self {
            store_dir: store_dir.into(),
            queue_capacity: 64,
            mem_budget_bytes: 256 << 20,
            store_budget_bytes: 0,
            n_shards: 1,
            collect_reports: false,
            panic_at_op: None,
        }
    }
}

/// Typed request failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The bounded queue is full; the request was not accepted.
    QueueFull,
    /// The request's band window cannot straddle the gap: the structure
    /// solves to `n_valence` occupied bands out of `n_bands` kept, so the
    /// window would miss HOMO and/or LUMO (rejected at enqueue — the
    /// band solver itself requires at least one empty band).
    InvalidBandWindow {
        /// Occupied valence bands of the requested structure.
        n_valence: usize,
        /// Bands the solver would keep (request's `n_bands`, clamped to
        /// the wavefunction basis size).
        n_bands: usize,
    },
    /// A frequency input the evaluator cannot use (rejected at enqueue):
    /// a full-frequency quadrature with no nodes, or a zero sampling
    /// offset, which collapses the 3-point grid the Dyson slope divides
    /// by.
    InvalidFrequency {
        /// The zero field: `"n_quad"` or `"delta_milli_ry"`.
        field: &'static str,
    },
    /// The dielectric inversion failed for this structure.
    Epsilon(EpsilonError),
    /// The owning dispatcher shard died (panicked) before this request
    /// retired; every outstanding ticket on the shard fails with this
    /// instead of blocking forever.
    DispatcherDown,
    /// An engine invariant broke mid-evaluation (a logic regression —
    /// e.g. a band missing from the batch union). The request fails
    /// typed instead of panicking the shard.
    Internal {
        /// Which invariant broke.
        what: String,
    },
}

/// A typed internal-invariant failure (never expected in a correct
/// build; degrades a logic regression to a failed request instead of a
/// dead shard).
fn internal(what: impl Into<String>) -> ServeError {
    ServeError::Internal { what: what.into() }
}

/// Pairs each batch member with its own band window, and returns the
/// sorted union of the windows.
fn member_bands(
    batch: Vec<Pending>,
    screening: &Screening,
) -> (Vec<(Pending, Vec<usize>)>, Vec<usize>) {
    let (nv, nb) = (screening.wf.n_valence, screening.wf.n_bands());
    let batch: Vec<(Pending, Vec<usize>)> = batch
        .into_iter()
        .map(|p| {
            let bands = p.req.bands(nv, nb);
            (p, bands)
        })
        .collect();
    let mut union: Vec<usize> = batch.iter().flat_map(|(_, b)| b).copied().collect();
    union.sort_unstable();
    union.dedup();
    (batch, union)
}

/// One coalesced batch's Sigma context over its union band set, under
/// the serve-owned span the per-request report pins (the shared stage
/// inside it reports as `workflow.mtxel`).
fn batch_context(screening: &Screening, union: &[usize]) -> bgw_core::SigmaContext {
    let _s = bgw_trace::span!("serve.sigma.mtxel");
    sigma_context(screening, union)
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "queue full"),
            ServeError::InvalidBandWindow { n_valence, n_bands } => write!(
                f,
                "band window cannot straddle the gap: {n_valence} valence bands, \
                 {n_bands} bands kept"
            ),
            ServeError::InvalidFrequency { field } => {
                write!(f, "invalid frequency input: {field} must be positive")
            }
            ServeError::Epsilon(e) => write!(f, "epsilon stage: {e}"),
            ServeError::DispatcherDown => write!(f, "dispatcher shard died"),
            ServeError::Internal { what } => {
                write!(f, "internal invariant broke: {what}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// How the batch's screening was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Computed from scratch (and stored).
    Miss,
    /// Served from the in-memory LRU.
    MemHit,
    /// Restored from the on-disk artifact store (a restart).
    DiskHit,
}

/// Per-request response telemetry.
#[derive(Clone, Debug)]
pub struct ServeTelemetry {
    /// How the screening was obtained for this request's batch.
    pub cache: CacheStatus,
    /// Requests in the coalesced batch (1 = alone).
    pub batch_size: usize,
    /// Seconds between enqueue and the start of the completing batch.
    pub queue_seconds: f64,
    /// Seconds of batch compute (shared across the batch's members).
    pub compute_seconds: f64,
    /// Span-tree delta bracketing the completing batch, when
    /// [`ServeConfig::collect_reports`] is set and tracing is compiled in.
    pub report: Option<RunReport>,
}

/// GPP response payload.
#[derive(Clone, Debug)]
pub struct GppPayload {
    /// Band indices evaluated (the request's window).
    pub bands: Vec<usize>,
    /// Mean-field energies of those bands (Ry).
    pub e_mf: Vec<f64>,
    /// Quasiparticle energies (Ry), aligned with `bands`.
    pub e_qp: Vec<f64>,
    /// Renormalization factors, aligned with `bands`.
    pub z: Vec<f64>,
    /// Mean-field gap (Ry).
    pub gap_mf_ry: f64,
    /// Quasiparticle gap (Ry) from this request's own band window.
    pub gap_qp_ry: f64,
    /// Macroscopic dielectric constant of the screening.
    pub eps_macro: f64,
    /// Sigma kernel FLOPs attributed to this request's rows.
    pub flops: u64,
}

/// Full-frequency response payload.
#[derive(Clone, Debug)]
pub struct FfPayload {
    /// Band indices evaluated.
    pub bands: Vec<usize>,
    /// Mean-field energies of those bands (Ry).
    pub e_mf: Vec<f64>,
    /// `sigma[s][e]` (complex, Ry) on the request's 3-point grids.
    pub sigma: Vec<Vec<Complex64>>,
    /// Macroscopic dielectric constant of the screening.
    pub eps_macro: f64,
    /// Kernel FLOPs of this request's evaluation.
    pub flops: u64,
}

/// A served result.
#[derive(Clone, Debug)]
pub enum Payload {
    /// GPP diagonals + QP energies.
    Gpp(GppPayload),
    /// Full-frequency diagonals.
    FullFreq(FfPayload),
}

/// A successful response: payload plus telemetry.
#[derive(Clone, Debug)]
pub struct ServeOk {
    /// The physics.
    pub payload: Payload,
    /// How it was served.
    pub telemetry: ServeTelemetry,
}

/// One entry of the deterministic event log — the traffic-replay test
/// battery asserts exact sequences of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// Batch screening served from the in-memory LRU (attributed to the
    /// batch leader).
    MemHit {
        /// Batch leader request.
        id: RequestId,
    },
    /// Batch screening restored from the on-disk artifact store.
    DiskHit {
        /// Batch leader request.
        id: RequestId,
    },
    /// Batch screening recomputed (and stored).
    Miss {
        /// Batch leader request.
        id: RequestId,
    },
    /// `id` rode along in the batch led by `with`.
    Coalesced {
        /// Coalesced member.
        id: RequestId,
        /// Batch leader it joined.
        with: RequestId,
    },
    /// A present-but-unreadable store record degraded to a recompute.
    StoreInvalid {
        /// Batch leader request.
        id: RequestId,
    },
    /// The request retired successfully.
    Completed {
        /// Affected request.
        id: RequestId,
    },
    /// The request retired with an error.
    Failed {
        /// Affected request.
        id: RequestId,
    },
}

struct Pending {
    id: RequestId,
    seq: u64,
    req: GwRequest,
    enqueued: Instant,
}

/// The synchronous serving engine. See the module docs for the step
/// anatomy; [`Server`](crate::server::Server) is the threaded wrapper.
pub struct ServeCore {
    cfg: ServeConfig,
    store: ArtifactStore,
    queue: VecDeque<Pending>,
    mem: Vec<(ArtifactKey, Arc<Screening>, u64)>,
    mem_bytes: u64,
    events: Vec<ServeEvent>,
    responses: Vec<(RequestId, Result<ServeOk, ServeError>)>,
    next_id: RequestId,
    next_seq: u64,
    op_counter: u64,
}

impl ServeCore {
    /// An idle engine over `cfg.store_dir`.
    pub fn new(cfg: ServeConfig) -> Self {
        let store = ArtifactStore::new(cfg.store_dir.clone());
        Self::with_store(cfg, store)
    }

    /// An idle engine over an existing store handle. Shards of a
    /// [`Server`](crate::server::Server) all clone one handle, so the
    /// pin/access bookkeeping that guards GC is shared across shards
    /// while each shard keeps its own queue and memory cache.
    pub fn with_store(cfg: ServeConfig, store: ArtifactStore) -> Self {
        Self {
            cfg,
            store,
            queue: VecDeque::new(),
            mem: Vec::new(),
            mem_bytes: 0,
            events: Vec::new(),
            responses: Vec::new(),
            next_id: 1,
            next_seq: 0,
            op_counter: 0,
        }
    }

    /// The artifact store this engine serves from.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Queued (not yet retired) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when no request is queued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drains the event log.
    pub fn take_events(&mut self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains retired responses.
    pub fn take_responses(&mut self) -> Vec<(RequestId, Result<ServeOk, ServeError>)> {
        std::mem::take(&mut self.responses)
    }

    /// Accepts a request into the bounded queue.
    pub fn enqueue(&mut self, req: GwRequest) -> Result<RequestId, ServeError> {
        if self.queue.len() >= self.cfg.queue_capacity {
            return Err(ServeError::QueueFull);
        }
        // Zero quadrature nodes would panic the quadrature (and with it
        // the shard) mid-batch; a zero offset would answer NaN energies.
        if matches!(req.kind, RequestKind::FullFreq { n_quad: 0, .. }) {
            return Err(ServeError::InvalidFrequency { field: "n_quad" });
        }
        if req.delta_milli_ry() == 0 {
            return Err(ServeError::InvalidFrequency {
                field: "delta_milli_ry",
            });
        }
        // Reject windows that cannot straddle the gap *before* any
        // evaluation: `n_bands` is client-supplied, and a window missing
        // HOMO/LUMO would otherwise panic the engine mid-batch (killing
        // the threaded daemon's dispatcher). The check mirrors the band
        // derivation the evaluator uses: n_valence from the crystal,
        // n_bands clamped to the wavefunction basis.
        let sys = req.structure.system();
        let nv = sys.n_valence();
        let nb = sys.n_bands.min(sys.wfn_sphere().len());
        if nv == 0 || nb <= nv {
            return Err(ServeError::InvalidBandWindow {
                n_valence: nv,
                n_bands: nb,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(Pending {
            id,
            seq,
            req,
            enqueued: Instant::now(),
        });
        counters::record_serve_request();
        Ok(id)
    }

    /// Runs batches until the queue drains.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs one coalesced batch to completion, answering every member;
    /// returns `false` when the queue was empty. See the module docs for
    /// the step anatomy.
    pub fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let _batch_span = bgw_trace::span!("serve.batch");

        // --- batch selection: highest priority, then arrival order ------
        let leader = self
            .queue
            .iter()
            .min_by_key(|p| (std::cmp::Reverse(p.req.priority), p.seq))
            .expect("non-empty queue");
        let wkey = leader.req.w_key();
        // Pin this batch's W for the whole step: a GC pass (from this
        // shard or a concurrent one sharing the store) must never
        // reclaim the artifact of an in-flight batch.
        let _pin = self.store.pin(wkey);
        let mut batch: Vec<Pending> = Vec::new();
        let mut rest: VecDeque<Pending> = VecDeque::new();
        for p in std::mem::take(&mut self.queue) {
            if p.req.w_key() == wkey {
                batch.push(p);
            } else {
                rest.push_back(p);
            }
        }
        self.queue = rest;
        batch.sort_by_key(|p| p.seq);
        let leader_id = batch[0].id;
        if batch.len() > 1 {
            counters::record_serve_coalesced((batch.len() - 1) as u64);
            for m in &batch[1..] {
                self.events.push(ServeEvent::Coalesced {
                    id: m.id,
                    with: leader_id,
                });
            }
        }

        let report_before = self.cfg.collect_reports.then(bgw_trace::report);
        let t_batch = Instant::now();

        // --- screening acquisition ---------------------------------------
        let (screening, cache) = match self.acquire_screening(&batch[0].req, leader_id) {
            Ok(pair) => pair,
            Err(e) => {
                for p in batch {
                    self.retire_err(p, ServeError::Epsilon(e.clone()));
                }
                return true;
            }
        };

        // --- evaluation ---------------------------------------------------
        match batch[0].req.kind {
            RequestKind::GppDiag { .. } => {
                self.eval_gpp_batch(batch, &screening, cache, t_batch, report_before)
            }
            RequestKind::FullFreq { .. } => {
                self.eval_ff_batch(batch, &screening, cache, t_batch, report_before)
            }
        }
        // Disk GC after the batch retires, while the batch's W is still
        // pinned: reclaim oldest-accessed records until the store fits
        // the byte budget again (0 = uncapped).
        if self.cfg.store_budget_bytes > 0 {
            let _ = self.store.gc(self.cfg.store_budget_bytes);
        }
        true
    }

    // ---------------------------------------------------------------------

    fn retire_err(&mut self, p: Pending, e: ServeError) {
        self.events.push(ServeEvent::Failed { id: p.id });
        self.responses.push((p.id, Err(e)));
    }

    fn mem_get(&mut self, key: ArtifactKey) -> Option<Arc<Screening>> {
        let pos = self.mem.iter().position(|(k, _, _)| *k == key)?;
        let entry = self.mem.remove(pos);
        let hit = entry.1.clone();
        self.mem.push(entry); // most-recently-used at the back
        Some(hit)
    }

    /// Cost-aware insert: the entry is charged its decoded byte
    /// footprint and least-recently-used entries are evicted until the
    /// cache fits the byte budget again. The newest entry always stays
    /// (even alone over budget) so a hot oversized screening still
    /// coalesces; budget 0 disables the cache.
    fn mem_insert(&mut self, key: ArtifactKey, s: Arc<Screening>) {
        if self.cfg.mem_budget_bytes == 0 {
            return;
        }
        let bytes = s.approx_bytes();
        if let Some(pos) = self.mem.iter().position(|(k, _, _)| *k == key) {
            let (_, _, old) = self.mem.remove(pos);
            self.mem_bytes = self.mem_bytes.saturating_sub(old);
        }
        self.mem.push((key, s, bytes));
        self.mem_bytes += bytes;
        while self.mem_bytes > self.cfg.mem_budget_bytes && self.mem.len() > 1 {
            let (_, _, b) = self.mem.remove(0);
            self.mem_bytes = self.mem_bytes.saturating_sub(b);
            counters::record_serve_mem_evicted();
        }
    }

    fn acquire_screening(
        &mut self,
        req: &GwRequest,
        leader_id: RequestId,
    ) -> Result<(Arc<Screening>, CacheStatus), EpsilonError> {
        let wspec = req.w_spec();
        let wkey = wspec.key();
        let wcanon = wspec.canonical();
        if let Some(s) = self.mem_get(wkey) {
            counters::record_serve_hit_mem();
            self.events.push(ServeEvent::MemHit { id: leader_id });
            return Ok((s, CacheStatus::MemHit));
        }
        let system = req.structure.system();
        let cfg = req.gw_config();
        let had_record = self.store.contains(wkey);
        if let Some(ck) = self.store.load(wkey, &wcanon) {
            if let Some(s) = screening_from_checkpoint(&system, &cfg, &ck) {
                counters::record_serve_hit_disk();
                self.events.push(ServeEvent::DiskHit { id: leader_id });
                let s = Arc::new(s);
                self.mem_insert(wkey, s.clone());
                return Ok((s, CacheStatus::DiskHit));
            }
            // Readable record, wrong payload: count it like a torn entry.
            counters::record_serve_store_invalid();
            self.events.push(ServeEvent::StoreInvalid { id: leader_id });
        } else if had_record {
            // Present but failed the checksummed read or the embedded-spec
            // comparison (already counted by the store); surface it in the
            // event log.
            self.events.push(ServeEvent::StoreInvalid { id: leader_id });
        }
        counters::record_serve_miss();
        self.events.push(ServeEvent::Miss { id: leader_id });
        let s = build_screening(&system, &cfg, req.ff_spec())?;
        let _ = self.store.save(wkey, &wcanon, screening_to_checkpoint(&s));
        let s = Arc::new(s);
        self.mem_insert(wkey, s.clone());
        Ok((s, CacheStatus::Miss))
    }

    /// Counts one member's evaluation op, where
    /// [`ServeConfig::panic_at_op`] fires.
    fn admit(&mut self) {
        let op = self.op_counter;
        self.op_counter += 1;
        if self.cfg.panic_at_op == Some(op) {
            panic!("injected dispatcher panic at evaluation op {op}");
        }
    }

    fn eval_gpp_batch(
        &mut self,
        batch: Vec<Pending>,
        screening: &Arc<Screening>,
        cache: CacheStatus,
        t_batch: Instant,
        report_before: Option<RunReport>,
    ) {
        let batch_size = batch.len();
        let (batch, union) = member_bands(batch, screening);
        let mut rows_needed: Vec<(usize, f64)> = Vec::new();
        for (p, bands) in &batch {
            for &b in bands {
                let key = (b, p.req.delta_ry());
                if !rows_needed.contains(&key) {
                    rows_needed.push(key);
                }
            }
        }
        rows_needed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));

        let ctx = batch_context(screening, &union);
        let variant = batch[0].0.req.gw_config().variant;
        let mut rows = SigmaRows::default();
        for (band, delta) in rows_needed {
            let Some(s) = union.iter().position(|&b| b == band) else {
                // An engine invariant broke: degrade to failed requests
                // (typed), never a panicked (dead) shard.
                for (p, _) in batch {
                    self.retire_err(p, internal(format!("band {band} missing from batch union")));
                }
                return;
            };
            let _row_span = bgw_trace::span!("serve.sigma.gpp");
            rows.rows.push(sigma_row(&ctx, s, delta, variant));
        }

        // --- assemble + retire per member --------------------------------
        let report = self.finish_report(report_before);
        let compute_seconds = t_batch.elapsed().as_secs_f64();
        for (p, bands) in batch {
            self.admit();
            // enqueue() rejects windows that cannot straddle the gap and
            // every needed row was just evaluated, so an error here means
            // the band derivation or the row bookkeeping regressed.
            let solved = rows.assemble(&ctx, &bands, p.req.delta_ry(), screening.eps_macro);
            let r = match solved {
                Ok(r) => r,
                Err(e) => {
                    self.retire_err(p, internal(e.to_string()));
                    continue;
                }
            };
            let payload = GppPayload {
                bands,
                e_mf: r.states.iter().map(|st| st.e_mf).collect(),
                e_qp: r.states.iter().map(|st| st.e_qp).collect(),
                z: r.states.iter().map(|st| st.z).collect(),
                gap_mf_ry: r.gap_mf_ry,
                gap_qp_ry: r.gap_qp_ry,
                eps_macro: r.eps_macro,
                flops: r.sigma_flops,
            };
            self.retire_ok(
                p,
                Payload::Gpp(payload),
                cache,
                batch_size,
                compute_seconds,
                &report,
            );
        }
    }

    fn eval_ff_batch(
        &mut self,
        batch: Vec<Pending>,
        screening: &Arc<Screening>,
        cache: CacheStatus,
        t_batch: Instant,
        report_before: Option<RunReport>,
    ) {
        let batch_size = batch.len();
        let (batch, union) = member_bands(batch, screening);
        let ctx = batch_context(screening, &union);

        let mut retirements = Vec::new();
        for (p, bands) in batch {
            self.admit();
            let mut positions = Vec::with_capacity(bands.len());
            for &b in &bands {
                match union.iter().position(|&u| u == b) {
                    Some(s) => positions.push(s),
                    None => break,
                }
            }
            if positions.len() != bands.len() {
                self.retire_err(p, internal("band missing from batch union"));
                continue;
            }
            let view = band_subset(&ctx, &positions);
            let Some(r) = ff_eval(screening, &view, p.req.delta_ry(), p.req.eta_ry()) else {
                // Request kind and screening kind diverged: the W spec
                // should have carried the FF grid for this request.
                self.retire_err(p, internal("FF request paired with a non-FF screening"));
                continue;
            };
            let payload = FfPayload {
                e_mf: r.sigma_energies,
                sigma: r.sigma,
                eps_macro: screening.eps_macro,
                flops: r.flops,
                bands,
            };
            retirements.push((p, payload));
        }
        let report = self.finish_report(report_before);
        let compute_seconds = t_batch.elapsed().as_secs_f64();
        for (p, payload) in retirements {
            self.retire_ok(
                p,
                Payload::FullFreq(payload),
                cache,
                batch_size,
                compute_seconds,
                &report,
            );
        }
    }

    fn finish_report(&self, before: Option<RunReport>) -> Option<RunReport> {
        before.map(|b| b.delta(&bgw_trace::report()))
    }

    fn retire_ok(
        &mut self,
        p: Pending,
        payload: Payload,
        cache: CacheStatus,
        batch_size: usize,
        compute_seconds: f64,
        report: &Option<RunReport>,
    ) {
        let queue_seconds = p.enqueued.elapsed().as_secs_f64() - compute_seconds;
        let queue_seconds = queue_seconds.max(0.0);
        counters::record_serve_completed((queue_seconds * 1e9) as u64);
        self.events.push(ServeEvent::Completed { id: p.id });
        self.responses.push((
            p.id,
            Ok(ServeOk {
                payload,
                telemetry: ServeTelemetry {
                    cache,
                    batch_size,
                    queue_seconds,
                    compute_seconds,
                    report: report.clone(),
                },
            }),
        ));
    }
}
