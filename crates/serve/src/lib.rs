//! `bgw-serve`: GW-as-a-service — a resident in-process server over the
//! one-shot GW pipeline.
//!
//! Every driver in the tree used to be a one-shot CLI run, recomputing
//! the expensive screening artifacts (`eps~^{-1}` / W, the GPP model,
//! MTXEL caches) per invocation even though requests differing only in
//! which Sigma diagonals or energies they ask for share them verbatim.
//! This crate turns that path into a long-lived service:
//!
//! * a bounded job queue of [`GwRequest`]s ([`ServeCore`] synchronous
//!   engine; [`Server`] threaded daemon wrapper);
//! * a content-hash-keyed [`ArtifactStore`] layered on the checksummed
//!   BGWR checkpoint format — a cache hit *is* a restart through
//!   `bgw_core::service::screening_from_checkpoint`, plus an in-memory
//!   LRU of decoded screenings;
//! * request coalescing: queued requests sharing a W artifact key are
//!   batched into one pass — the screening is acquired once, the Sigma
//!   context is built once over the union band set, and each distinct
//!   `(band, delta)` diagonal is evaluated once;
//! * preemption/cancellation between band slices, with the partial state
//!   checkpointed (`SigmaPartial` records) and resumed — and deleted
//!   once the last request interested in its W retires, so
//!   preempt-heavy traffic cannot leak store disk;
//! * dispatcher sharding: [`Server`] spawns `n_shards` dispatcher
//!   threads and routes each request to shard `w_key % n_shards`, so
//!   distinct screenings build concurrently while coalescing stays
//!   per-shard; cache eviction is cost-aware (decoded byte footprints
//!   against byte budgets) and the shared store is garbage-collected
//!   oldest-access-first under a size budget, never touching entries
//!   pinned by an in-flight batch;
//! * per-request `bgw-trace` span-tree reports returned as response
//!   telemetry, extracted with `RunReport::delta`;
//! * one recovery per real failure: a torn artifact or partial degrades
//!   to a recompute, a malformed request to a typed admission error, a
//!   singular epsilon to a failed ticket, and a panicking shard to
//!   [`ServeError::DispatcherDown`] on every outstanding ticket.
//!
//! Every served result is pinned to the corresponding one-shot oracle
//! (`run_gpp_gw` / `ff_sigma_diag`) at 1e-12 by `tests/serve.rs`.

#![warn(missing_docs)]

pub mod core;
pub mod key;
pub mod request;
pub mod server;
pub mod store;
pub mod traffic;

pub use crate::core::{
    CacheStatus, FfPayload, GppPayload, Payload, RequestId, ServeConfig, ServeCore, ServeError,
    ServeEvent, ServeOk, ServeTelemetry,
};
pub use key::{ArtifactKey, KeySpec};
pub use request::{GwRequest, RequestKind, StructureSpec};
pub use server::{Server, Ticket};
pub use store::{ArtifactStore, GcReport, StorePin};
pub use traffic::{zipf_stream, TrafficConfig};
