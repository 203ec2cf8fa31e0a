//! Failure battery for the serving loop (DESIGN.md Sec. 10): the failures
//! one daemon process can meet, each with its one recovery. A preemption
//! writes nothing but the screening artifact, the rows of a preempted
//! batch die with the last of its requests and no earlier, and a
//! panicking shard fails every outstanding ticket with `DispatcherDown`
//! instead of hanging it. (A torn artifact degrading to a recompute is
//! pinned in `tests/serve.rs`.)

use berkeleygw_rs::core::{run_gpp_gw, GwResults};
use berkeleygw_rs::perf::counters::exclusive_test_guard;
use berkeleygw_rs::serve::{
    GwRequest, Payload, RequestKind, ServeConfig, ServeCore, ServeError, ServeEvent, ServeOk,
    Server, StructureSpec, Ticket,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// The file names in a store directory, sorted.
fn store_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| {
            e.expect("store entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn resumed_rows(events: &[ServeEvent]) -> Option<usize> {
    events.iter().find_map(|e| match e {
        ServeEvent::Resumed { rows_done, .. } => Some(*rows_done),
        _ => None,
    })
}

fn preempted_rows(events: &[ServeEvent]) -> usize {
    events
        .iter()
        .find_map(|e| match e {
            ServeEvent::Preempted { rows_done, .. } => Some(*rows_done),
            _ => None,
        })
        .expect("the batch was preempted")
}

#[test]
fn preemption_writes_nothing_but_the_screening_artifact() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("preempt_files");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    let req = gpp_req(2, 50); // 4 band rows: room to preempt
    core.enqueue(req).unwrap();
    assert!(core.step_with(&mut || Some(9)), "batch runs and preempts");
    assert!(preempted_rows(core.events()) >= 1);
    // Mid-preemption the store holds the screening and nothing else: the
    // finished rows went back to the queue on the request.
    let artifact = vec![format!("art_{}.bgwr", req.w_key().hex())];
    assert_eq!(store_files(&dir), artifact);
    let art = core
        .store()
        .load(req.w_key(), &req.w_spec().canonical())
        .expect("screening artifact intact");
    assert_eq!(
        art.stage,
        berkeleygw_rs::core::GwStage::WScreening as u64,
        "artifact is screening state, never Sigma rows"
    );
    core.run_until_idle(&mut || None);
    let (_, resp) = core.take_responses().pop().unwrap();
    check_gpp(&mut HashMap::new(), &req, &resp.expect("resumed").payload);
    assert_eq!(store_files(&dir), artifact);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_cancelled_preempted_batch_leaves_nothing_to_resume() {
    // Both members of a preempted batch cancel: one through the engine,
    // one through its shared flag (as a threaded ticket does), which
    // leaves it queued until the next batch of its W drops it. The rows
    // they carried die with them, so a later request of the same W
    // starts from row 0 and still answers the oracle.
    let _guard = exclusive_test_guard();
    let dir = tmpdir("cancel_all");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    let a = core.enqueue(gpp_req(2, 50)).unwrap();
    let flag = Arc::new(AtomicBool::new(false));
    let b = core
        .enqueue_with_cancel(gpp_req(1, 50), flag.clone())
        .unwrap();
    assert!(core.step_with(&mut || Some(9)), "batch runs and preempts");
    assert!(preempted_rows(&core.take_events()) >= 1);
    assert!(core.cancel(a));
    flag.store(true, Ordering::Release);

    let later = gpp_req(2, 50);
    let c = core.enqueue(later).unwrap();
    core.run_until_idle(&mut || None);
    let events = core.take_events();
    assert_eq!(resumed_rows(&events), None, "nothing may be resumed");
    for id in [a, b] {
        assert!(events.contains(&ServeEvent::Cancelled { id }));
    }
    let mut responses: HashMap<_, _> = core.take_responses().into_iter().collect();
    assert_eq!(
        responses.remove(&a).unwrap().unwrap_err(),
        ServeError::Cancelled
    );
    assert_eq!(
        responses.remove(&b).unwrap().unwrap_err(),
        ServeError::Cancelled
    );
    let answer = responses.remove(&c).expect("later request retired");
    check_gpp(
        &mut HashMap::new(),
        &later,
        &answer.expect("answered").payload,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preempted_batch_resumes_every_row_after_one_member_cancels() {
    // The batch leader, whose window the other member's contains, is
    // cancelled between the preemption and the resume: the survivor
    // still resumes every finished row, the one it shared included.
    let _guard = exclusive_test_guard();
    let dir = tmpdir("cancel_one");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    let leader = core.enqueue(gpp_req(1, 50)).unwrap(); // bands nv-1, nv
    let survivor_req = gpp_req(2, 50); // bands nv-2 ..= nv+1
    let survivor = core.enqueue(survivor_req).unwrap();
    let mut polls = 0;
    assert!(core.step_with(&mut || {
        polls += 1;
        (polls == 2).then_some(9)
    }));
    let done = preempted_rows(&core.take_events());
    assert_eq!(done, 2, "rows nv-2 and nv-1 finished before the yield");
    assert!(core.cancel(leader));

    core.run_until_idle(&mut || None);
    let events = core.take_events();
    assert_eq!(resumed_rows(&events), Some(done), "no finished row lost");
    let (id, answer) = core.take_responses().pop().unwrap();
    assert_eq!(id, survivor);
    check_gpp(
        &mut HashMap::new(),
        &survivor_req,
        &answer.expect("answered").payload,
    );
    let _ = std::fs::remove_dir_all(&dir);
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
