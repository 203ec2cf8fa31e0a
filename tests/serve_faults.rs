//! Failure battery for the serving loop (DESIGN.md Sec. 10): a panicking
//! shard fails every outstanding ticket with `DispatcherDown` instead of
//! hanging it, and a dead shard fails later submissions fast. A batch
//! runs to completion, so no other failure is born between its rows. (A
//! torn artifact degrading to a recompute, and a batch writing nothing
//! but its screening artifact, are pinned in `tests/serve.rs`.)

use berkeleygw_rs::perf::counters::exclusive_test_guard;
use berkeleygw_rs::serve::{
    GwRequest, RequestKind, ServeConfig, ServeError, ServeOk, Server, StructureSpec, Ticket,
};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bgw_serve_ft_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn si_small() -> StructureSpec {
    StructureSpec::SiBulk {
        m: 1,
        ecut_centi_ry: 220,
        n_bands: 24,
    }
}

fn gpp_req(bag: usize, delta: u32) -> GwRequest {
    GwRequest {
        structure: si_small(),
        kind: RequestKind::GppDiag {
            bands_around_gap: bag,
            delta_milli_ry: delta,
        },
        priority: 0,
    }
}

/// Waits for every ticket on a helper thread under a hard timeout, so a
/// ticket a dead shard strands shows up as a test failure, not a hung
/// test binary. The bound stays under `tools/mutants.sh`'s 60 s floor,
/// so a stranded ticket fails the test before the runner stops it.
fn wait_bounded(tickets: Vec<Ticket>) -> Vec<Result<ServeOk, ServeError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let _ = tx.send(results);
    });
    let results = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("tickets must resolve after a dispatcher panic, not hang");
    waiter.join().expect("waiter thread");
    results
}

#[test]
fn dispatcher_panic_fails_every_ticket_and_never_hangs() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("panic");
    let mut sc = ServeConfig::new(&dir);
    // The first evaluation op panics the (single) dispatcher shard mid
    // batch — after screening acquisition, with all three coalesced
    // tickets outstanding. The bug this pins: the panic used to poison
    // the injector mutex and leave every `Ticket::wait` blocked forever.
    sc.panic_at_op = Some(0);
    let server = Server::start(sc);
    let tickets: Vec<_> = [gpp_req(1, 50), gpp_req(2, 50), gpp_req(1, 40)]
        .into_iter()
        .map(|r| server.submit(r))
        .collect();
    let results = wait_bounded(tickets);
    assert_eq!(results.len(), 3);
    for r in results {
        assert_eq!(r.unwrap_err(), ServeError::DispatcherDown);
    }

    // The dead shard fails later submissions fast instead of queueing
    // them into the void, and shutdown still returns cleanly.
    let late = wait_bounded(vec![server.submit(gpp_req(1, 50))]);
    assert_eq!(late[0].clone().unwrap_err(), ServeError::DispatcherDown);
    let cores = server.shutdown();
    assert_eq!(cores.len(), 1, "the panicked shard's engine is recovered");
    let _ = std::fs::remove_dir_all(&dir);
}
