//! The threaded daemon: dispatcher shards wrapping [`ServeCore`].
//!
//! [`Server::start`] spawns `cfg.n_shards` dispatcher threads, each
//! owning one engine; a submitted request routes to shard
//! `w_key % n_shards`, so requests for the *same* screening always land
//! on the same shard (coalescing and the PR 8 hit/coalesce invariants
//! hold per shard by construction) while distinct screenings build
//! concurrently. All shards clone one [`ArtifactStore`] handle, sharing
//! the pin bookkeeping that keeps store GC safe across shards.
//!
//! Clients get a [`Ticket`] per submitted request and block on
//! [`Ticket::wait`]. A shard runs each batch to completion; a
//! high-priority submission that arrives mid-batch waits for it, then
//! leads the next one.
//!
//! A panicking engine must never strand a waiter: each step runs under
//! `catch_unwind`, and on a panic the shard marks itself dead, fails
//! every outstanding ticket with [`ServeError::DispatcherDown`], and
//! fails subsequent submissions fast. Every lock here recovers from
//! poisoning, so a waiter blocked in [`Ticket::wait`] always wakes.

use crate::core::{RequestId, ServeConfig, ServeCore, ServeError, ServeOk};
use crate::request::GwRequest;
use crate::store::ArtifactStore;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Locks recovering from poisoning: a dispatcher that panicked while
/// holding a lock must not strand other threads — the guarded state
/// stays consistent because every critical section here is a plain
/// field read/write or a `Vec` take.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct Injector {
    waiting: Vec<(GwRequest, Arc<Cell>)>,
    shutdown: bool,
    /// Set when the shard's dispatcher died; submissions fail fast.
    dead: bool,
}

#[derive(Default)]
struct Cell {
    slot: Mutex<Option<Result<ServeOk, ServeError>>>,
    ready: Condvar,
}

struct Shared {
    injector: Mutex<Injector>,
    wake: Condvar,
}

/// A handle to one submitted request.
pub struct Ticket {
    cell: Arc<Cell>,
}

impl Ticket {
    /// Blocks until the request retires; returns its result. Poison-safe:
    /// a dispatcher panic fulfills the ticket with
    /// [`ServeError::DispatcherDown`] rather than leaving the waiter
    /// blocked on the condvar.
    pub fn wait(self) -> Result<ServeOk, ServeError> {
        let mut slot = self
            .cell
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self
                .cell
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Shard {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<ServeCore>>,
}

/// The resident GW daemon. See the module docs for the thread layout.
pub struct Server {
    shards: Vec<Shard>,
}

impl Server {
    /// Starts `cfg.n_shards` dispatchers (min 1) over one shared store.
    pub fn start(cfg: ServeConfig) -> Self {
        let n = cfg.n_shards.max(1);
        let store = ArtifactStore::new(cfg.store_dir.clone());
        let shards = (0..n)
            .map(|_| {
                let shared = Arc::new(Shared {
                    injector: Mutex::new(Injector::default()),
                    wake: Condvar::new(),
                });
                let dispatcher = {
                    let shared = shared.clone();
                    let cfg = cfg.clone();
                    let store = store.clone();
                    std::thread::spawn(move || dispatch_loop(cfg, store, shared))
                };
                Shard {
                    shared,
                    dispatcher: Some(dispatcher),
                }
            })
            .collect();
        Server { shards }
    }

    /// Dispatcher shards running.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Submits a request to its owning shard (`w_key % n_shards`); the
    /// ticket resolves when it retires. Rejected submissions (bounded
    /// queue full, dead shard) fail fast on the ticket.
    pub fn submit(&self, req: GwRequest) -> Ticket {
        let shard = &self.shards[req.shard_of(self.shards.len())];
        let cell = Arc::new(Cell::default());
        let accepted = {
            let mut inj = relock(&shard.shared.injector);
            if inj.dead {
                false
            } else {
                inj.waiting.push((req, cell.clone()));
                true
            }
        };
        if accepted {
            shard.shared.wake.notify_all();
        } else {
            fulfill(&cell, Err(ServeError::DispatcherDown));
        }
        Ticket { cell }
    }

    /// Stops every dispatcher after it drains in-flight work and returns
    /// the engines in shard order (so callers can inspect queues and the
    /// shared store; a dispatcher keeps no event log, see
    /// `dispatch_loop`).
    pub fn shutdown(mut self) -> Vec<ServeCore> {
        for shard in &self.shards {
            relock(&shard.shared.injector).shutdown = true;
            shard.shared.wake.notify_all();
        }
        let mut cores = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            if let Some(h) = shard.dispatcher.take() {
                if let Ok(core) = h.join() {
                    cores.push(core);
                }
            }
        }
        cores
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        for shard in &self.shards {
            relock(&shard.shared.injector).shutdown = true;
            shard.shared.wake.notify_all();
        }
        for shard in &mut self.shards {
            if let Some(h) = shard.dispatcher.take() {
                let _ = h.join();
            }
        }
    }
}

fn dispatch_loop(cfg: ServeConfig, store: ArtifactStore, shared: Arc<Shared>) -> ServeCore {
    let queue_capacity = cfg.queue_capacity;
    let mut core = ServeCore::with_store(cfg, store);
    let mut tickets: HashMap<RequestId, Arc<Cell>> = HashMap::new();
    loop {
        // Admit waiting submissions into the bounded engine queue, and
        // keep admitting until none is left. A client's burst lands a few
        // microseconds apart while admission validates each request, so a
        // single drain would batch whatever prefix of the burst beat the
        // dispatcher's wake-up: batch shapes would follow thread timing
        // instead of the request stream. Stopping at capacity keeps a
        // flood of submissions from starving the step below.
        let mut shutdown;
        loop {
            let drained = {
                let mut inj = relock(&shared.injector);
                shutdown = inj.shutdown;
                std::mem::take(&mut inj.waiting)
            };
            if drained.is_empty() {
                break;
            }
            for (req, cell) in drained {
                match core.enqueue(req) {
                    Ok(id) => {
                        tickets.insert(id, cell);
                    }
                    Err(e) => fulfill(&cell, Err(e)),
                }
            }
            if core.queue_len() >= queue_capacity {
                break;
            }
        }

        // One batch, run to completion and caught so an engine panic
        // degrades to failed tickets instead of a poisoned injector with
        // waiters blocked forever.
        let step = catch_unwind(AssertUnwindSafe(|| core.step()));
        // The event log is for replays that drive a `ServeCore` directly;
        // nothing reads a dispatcher's, and a resident daemon must not
        // keep every event it ever logged.
        drop(core.take_events());
        let progressed = match step {
            Ok(p) => p,
            Err(_) => {
                // Mark the shard dead first so racing submits fail fast,
                // then fail everything outstanding: tickets already in
                // the engine AND submissions still waiting in the
                // injector. No waiter is left behind.
                let late = {
                    let mut inj = relock(&shared.injector);
                    inj.dead = true;
                    std::mem::take(&mut inj.waiting)
                };
                for (_, cell) in late {
                    fulfill(&cell, Err(ServeError::DispatcherDown));
                }
                for (_, cell) in tickets.drain() {
                    fulfill(&cell, Err(ServeError::DispatcherDown));
                }
                return core;
            }
        };
        for (id, result) in core.take_responses() {
            if let Some(cell) = tickets.remove(&id) {
                fulfill(&cell, result);
            }
        }

        if !progressed {
            let inj = relock(&shared.injector);
            if !inj.waiting.is_empty() {
                continue;
            }
            if shutdown {
                drop(inj);
                return core;
            }
            // Idle: sleep until a submission or shutdown arrives.
            let _unused = shared
                .wake
                .wait_timeout(inj, std::time::Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn fulfill(cell: &Cell, result: Result<ServeOk, ServeError>) {
    *cell.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    cell.ready.notify_all();
}
