//! Failure battery for the serving loop (DESIGN.md Sec. 10): the failures
//! one daemon process can meet, each with its one recovery. A preemption
//! partial is never visible to a later cache hit, an undecodable partial
//! degrades to a recompute from row 0, a panicking shard fails every
//! outstanding ticket with `DispatcherDown` instead of hanging it, and a
//! retired request leaves no partial file behind. (A torn artifact
//! degrading to a recompute is pinned in `tests/serve.rs`.)

use berkeleygw_rs::core::{run_gpp_gw, GwResults};
use berkeleygw_rs::perf::counters::exclusive_test_guard;
use berkeleygw_rs::serve::{
    GwRequest, Payload, RequestKind, ServeConfig, ServeCore, ServeError, ServeEvent, ServeOk,
    Server, StructureSpec, Ticket,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

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

fn check_gpp(oracles: &mut HashMap<u64, GwResults>, req: &GwRequest, payload: &Payload) {
    let Payload::Gpp(p) = payload else {
        panic!("expected a GPP payload");
    };
    let oracle = oracles
        .entry(req.request_key().0)
        .or_insert_with(|| run_gpp_gw(&req.structure.system(), &req.gw_config()));
    assert_eq!(p.bands, oracle.sigma_bands);
    for (i, st) in oracle.states.iter().enumerate() {
        assert!(
            (p.e_qp[i] - st.e_qp).abs() < 1e-12,
            "post-fault parity broke: {} vs {}",
            p.e_qp[i],
            st.e_qp
        );
    }
}

#[test]
fn no_partial_record_is_visible_to_a_later_hit() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("partial");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    let req = gpp_req(2, 50); // 4 band rows: room to preempt
    core.enqueue(req).unwrap();
    assert!(core.step_with(&mut || Some(9)), "batch runs and preempts");
    let wkey = req.w_key();
    let wcanon = req.w_spec().canonical();
    // Mid-preemption: the partial exists on disk but only under its own
    // name space, and the artifact record is the screening, untouched.
    assert!(core.store().load_partial(wkey, &wcanon).is_some());
    let art = core
        .store()
        .load(wkey, &wcanon)
        .expect("screening artifact intact");
    assert_eq!(
        art.stage,
        berkeleygw_rs::core::GwStage::WScreening as u64,
        "artifact is screening state, never Sigma partials"
    );
    core.run_until_idle(&mut || None);
    let (_, resp) = core.take_responses().pop().unwrap();
    let mut oracles = HashMap::new();
    check_gpp(&mut oracles, &req, &resp.expect("resumed").payload);
    // Completion removed the partial; nothing for a later hit to see.
    assert!(core.store().load_partial(wkey, &wcanon).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn undecodable_partials_degrade_to_recompute_from_row_zero() {
    // A partial that passes the store's checksum and spec check but is not
    // a record the one decoder accepts must cost a recompute from row 0 —
    // never a misread row, never a dead shard. The first record used to
    // overflow `1 + n * 6` (n cast from an infinite float that `step`
    // agreed with) and panic the engine; the other two are the serving
    // loop's and the checkpointed driver's pre-unification layouts, rows
    // the batch needs included, with Sigma values no kernel produced.
    let _guard = exclusive_test_guard();
    let req = gpp_req(1, 50); // bands nv-1, nv
    let nv = req.structure.system().n_valence();
    let (wkey, wcanon) = (req.w_key(), req.w_spec().canonical());
    let sigma_partial = |step: u64, meta: Vec<f64>| berkeleygw_rs::io::Checkpoint {
        stage: berkeleygw_rs::core::GwStage::SigmaPartial as u64,
        step,
        meta,
        matrices: vec![],
    };
    let former_serve: Vec<f64> = [nv - 1, nv]
        .iter()
        .flat_map(|&b| [b as f64, 50.0, 42.0, 9.0, 9.0, 9.0])
        .collect();
    let cases = [
        (
            "hostile row count",
            sigma_partial(u64::MAX, vec![f64::INFINITY]),
        ),
        (
            "former serve layout",
            sigma_partial(2, [vec![2.0], former_serve].concat()),
        ),
        (
            "former core layout",
            sigma_partial(2, [vec![3.0, 84.0], vec![9.0; 6]].concat()),
        ),
    ];
    let mut oracles = HashMap::new();
    for (label, record) in cases {
        let dir = tmpdir("bad_partial");
        let mut core = ServeCore::new(ServeConfig::new(&dir));
        core.store()
            .save_partial(wkey, &wcanon, record)
            .expect("partial written");
        core.enqueue(req).unwrap();
        core.run_until_idle(&mut || None);
        assert!(
            !core
                .events()
                .iter()
                .any(|e| matches!(e, ServeEvent::Resumed { .. })),
            "{label}: nothing may be resumed from the record"
        );
        let (_, resp) = core.take_responses().pop().expect("request retired");
        check_gpp(&mut oracles, &req, &resp.expect(label).payload);
        assert!(
            core.store().load_partial(wkey, &wcanon).is_none(),
            "{label}: completion clears the bad record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn store_file_counts(dir: &Path) -> (usize, usize) {
    let (mut artifacts, mut partials) = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with("art_") {
                artifacts += 1;
            } else if name.starts_with("partial_") {
                partials += 1;
            }
        }
    }
    (artifacts, partials)
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

#[test]
fn retired_requests_leave_no_partial_files_behind() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("orphan");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    let req = gpp_req(2, 50); // 4 band rows: room to preempt

    // Preempt mid-batch: a partial_* checkpoint lands on disk.
    let id = core.enqueue(req).unwrap();
    assert!(core.step_with(&mut || Some(9)), "batch runs and preempts");
    assert_eq!(store_file_counts(&dir), (1, 1), "one artifact, one partial");

    // Cancelling the only interested request must delete the partial —
    // the leak this pins: it used to survive retirement forever.
    assert!(core.cancel(id));
    assert_eq!(
        store_file_counts(&dir),
        (1, 0),
        "cancellation sweeps the orphaned partial"
    );

    // Preempt again, then let the batch complete: same invariant.
    core.enqueue(req).unwrap();
    assert!(core.step_with(&mut || Some(9)));
    assert_eq!(store_file_counts(&dir), (1, 1));
    core.run_until_idle(&mut || None);
    assert_eq!(
        store_file_counts(&dir),
        (1, 0),
        "completion deletes the partial"
    );
    let mut oracles = HashMap::new();
    let (_, resp) = core.take_responses().pop().unwrap();
    check_gpp(
        &mut oracles,
        &req,
        &resp.expect("resumed after preempt").payload,
    );

    // A stale partial from a dead engine (crash between preempt and
    // retire) is an orphan: no in-flight batch pins it, no queued request
    // is interested. GC sweeps it even with no byte budget pressure.
    let mut other = ServeCore::new(ServeConfig::new(&dir));
    other.enqueue(req).unwrap();
    other.step_with(&mut || Some(9));
    drop(other); // leaks its partial: simulated dispatcher death
    assert_eq!(store_file_counts(&dir), (1, 1), "stale partial on disk");
    let report = core.store().gc(0);
    assert_eq!(report.orphaned_partials, 1);
    assert_eq!(store_file_counts(&dir), (1, 0), "GC sweeps the orphan");
    let _ = std::fs::remove_dir_all(&dir);
}
