//! Deterministic traffic-replay battery for the `bgw-serve` daemon
//! (DESIGN.md Sec. 15).
//!
//! A fixed-seed zipf request stream is replayed through a synchronous
//! [`ServeCore`] and the *exact* hit/miss event sequence is asserted
//! against an independent cache model; every served response is pinned at
//! 1e-12 to the corresponding one-shot oracle (`run_gpp_gw` for GPP
//! requests, a direct `ff_sigma_diag` build for full-frequency ones).
//! Further tests cover coalescing, disk-hit-as-restart, preemption,
//! cancellation, artifact-key properties, torn store entries, the golden
//! per-request trace report, the threaded [`Server`] wrapper, and a replay
//! under a store byte budget (GC end to end).

use berkeleygw_rs::core::{
    ff_sigma_diag, run_gpp_gw, ChiConfig, ChiEngine, Coulomb, EpsilonInverse, GppModel, GwResults,
    Mtxel, SigmaContext,
};
use berkeleygw_rs::num::grid::semi_infinite_quadrature;
use berkeleygw_rs::num::Complex64;
use berkeleygw_rs::perf::counters::{self, exclusive_test_guard};
use berkeleygw_rs::pwdft::{charge_density_g, solve_bands};
use berkeleygw_rs::serve::{
    zipf_stream, ArtifactStore, CacheStatus, GwRequest, Payload, RequestKind, ServeConfig,
    ServeCore, ServeError, ServeEvent, ServeOk, Server, StructureSpec, TrafficConfig,
};
use berkeleygw_rs::trace;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bgw_serve_it_{tag}_{}", std::process::id()));
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

fn lih_small() -> StructureSpec {
    StructureSpec::LihDefect {
        m: 1,
        ecut_centi_ry: 240,
        n_bands: 20,
    }
}

fn gpp_req(structure: StructureSpec, bag: usize, delta: u32, priority: u8) -> GwRequest {
    GwRequest {
        structure,
        kind: RequestKind::GppDiag {
            bands_around_gap: bag,
            delta_milli_ry: delta,
        },
        priority,
    }
}

fn ff_req(structure: StructureSpec, bag: usize, n_quad: usize, priority: u8) -> GwRequest {
    GwRequest {
        structure,
        kind: RequestKind::FullFreq {
            bands_around_gap: bag,
            n_quad,
            eta_milli_ry: 50,
            delta_milli_ry: 50,
        },
        priority,
    }
}

/// One-shot FF oracle: the direct primitive pipeline (no service layer,
/// no cache, no checkpoints).
fn ff_oracle(req: &GwRequest) -> (Vec<usize>, Vec<f64>, Vec<Vec<Complex64>>) {
    let RequestKind::FullFreq { n_quad, .. } = req.kind else {
        panic!("ff oracle on a GPP request");
    };
    let sys = req.structure.system();
    let cfg = req.gw_config();
    let wfn_sph = sys.wfn_sphere();
    let eps_sph = sys.eps_sphere();
    let wf = solve_bands(&sys.crystal, &wfn_sph, sys.n_bands.min(wfn_sph.len()));
    let volume = sys.crystal.lattice.volume();
    let coulomb = Coulomb::bulk_for_cell(volume);
    let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
    let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);
    let engine = ChiEngine::new(
        &wf,
        &mtxel,
        ChiConfig {
            q0: coulomb.q0,
            ..cfg.chi
        },
    );
    let chi0 = engine.chi_static();
    let eps_inv = EpsilonInverse::build(&[chi0], &[0.0], &coulomb, &eps_sph).expect("static eps");
    let (nodes, weights) = semi_infinite_quadrature(n_quad, 2.0);
    let (chis, _) = engine.chi_freqs(&nodes);
    let eps_ff = EpsilonInverse::build(&chis, &nodes, &coulomb, &eps_sph).expect("ff eps");
    let rho = charge_density_g(&wf, &wfn_sph);
    let gpp = GppModel::new(&eps_inv, &eps_sph, &wfn_sph, &rho, volume);
    let bands = req.bands(wf.n_valence, wf.n_bands());
    let ctx = SigmaContext::build(&wf, &mtxel, gpp, &vsqrt, &bands, coulomb.q0);
    let d = req.delta_ry();
    let grids: Vec<Vec<f64>> = ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - d, e, e + d])
        .collect();
    let r = ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, req.eta_ry());
    (bands, ctx.sigma_energies, r.sigma)
}

/// FF oracle record: `(bands, sigma_energies, sigma)`.
type FfOracle = (Vec<usize>, Vec<f64>, Vec<Vec<Complex64>>);

/// Per-test oracle cache: one one-shot run per unique request key.
#[derive(Default)]
struct Oracles {
    gpp: HashMap<u64, GwResults>,
    ff: HashMap<u64, FfOracle>,
}

impl Oracles {
    fn check(&mut self, req: &GwRequest, ok: &ServeOk) {
        let rk = req.request_key().0;
        match (&req.kind, &ok.payload) {
            (RequestKind::GppDiag { .. }, Payload::Gpp(p)) => {
                let oracle = self
                    .gpp
                    .entry(rk)
                    .or_insert_with(|| run_gpp_gw(&req.structure.system(), &req.gw_config()));
                assert_eq!(p.bands, oracle.sigma_bands, "band window mismatch");
                for (i, st) in oracle.states.iter().enumerate() {
                    assert!(
                        (p.e_qp[i] - st.e_qp).abs() < 1e-12,
                        "band {} e_qp: served {} vs oracle {}",
                        p.bands[i],
                        p.e_qp[i],
                        st.e_qp
                    );
                    assert!((p.z[i] - st.z).abs() < 1e-12, "z drifted");
                    assert!((p.e_mf[i] - st.e_mf).abs() < 1e-12, "e_mf drifted");
                }
                assert!((p.gap_qp_ry - oracle.gap_qp_ry).abs() < 1e-12);
                assert!((p.eps_macro - oracle.eps_macro).abs() < 1e-12);
            }
            (RequestKind::FullFreq { .. }, Payload::FullFreq(p)) => {
                let (bands, e_mf, sigma) = self.ff.entry(rk).or_insert_with(|| ff_oracle(req));
                assert_eq!(&p.bands, bands, "band window mismatch");
                for (i, (row, oracle_row)) in p.sigma.iter().zip(sigma.iter()).enumerate() {
                    assert!((p.e_mf[i] - e_mf[i]).abs() < 1e-12);
                    for (a, b) in row.iter().zip(oracle_row) {
                        assert!(
                            (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12,
                            "ff sigma drifted: served {a:?} vs oracle {b:?}"
                        );
                    }
                }
            }
            _ => panic!("payload kind does not match request kind"),
        }
    }
}

fn cache_events(events: &[ServeEvent]) -> Vec<&'static str> {
    events
        .iter()
        .filter_map(|e| match e {
            ServeEvent::MemHit { .. } => Some("mem"),
            ServeEvent::DiskHit { .. } => Some("disk"),
            ServeEvent::Miss { .. } => Some("miss"),
            _ => None,
        })
        .collect()
}

#[test]
fn traffic_replay_exact_hit_miss_sequence_and_parity() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("replay");
    let cfg = TrafficConfig {
        seed: 42,
        n_requests: 10,
        zipf_exponent: 1.1,
        structures: vec![si_small(), lih_small()],
        ff_fraction: 0.25,
        high_priority_fraction: 0.0,
    };
    let stream = zipf_stream(&cfg);
    assert_eq!(stream, zipf_stream(&cfg), "stream must be reproducible");

    // Independent cache model: mem LRU of capacity 1 over a disk set.
    let mem_capacity = 1usize;
    let mut disk: Vec<u64> = Vec::new();
    let mut mem: Vec<u64> = Vec::new();
    let mut expected = Vec::new();
    for r in &stream {
        let k = r.w_key().0;
        if let Some(pos) = mem.iter().position(|&m| m == k) {
            expected.push("mem");
            let v = mem.remove(pos);
            mem.push(v);
        } else if disk.contains(&k) {
            expected.push("disk");
            mem.push(k);
        } else {
            expected.push("miss");
            disk.push(k);
            mem.push(k);
        }
        if mem.len() > mem_capacity {
            mem.remove(0);
        }
    }
    assert!(expected.contains(&"miss"));
    assert!(
        expected.iter().any(|&e| e != "miss"),
        "zipf repeats must produce warm requests"
    );

    let mut sc = ServeConfig::new(&dir);
    // A 1-byte budget degenerates to "keep only the newest screening"
    // (the cost-aware evictor always retains the most recent entry), so
    // the engine models a capacity-1 LRU exactly.
    sc.mem_budget_bytes = 1;
    let mut core = ServeCore::new(sc);
    let mut oracles = Oracles::default();
    let mut completed = 0usize;
    // One request per batch (enqueue -> drain) so the event sequence is a
    // pure function of the stream: no coalescing, no priorities.
    for req in &stream {
        let id = core.enqueue(*req).expect("queue has room");
        core.run_until_idle(&mut || None);
        for (rid, resp) in core.take_responses() {
            assert_eq!(rid, id);
            let ok = resp.expect("no faults planned");
            oracles.check(req, &ok);
            completed += 1;
        }
    }
    assert_eq!(completed, stream.len(), "every request must retire");
    let events = core.take_events();
    assert_eq!(
        cache_events(&events),
        expected,
        "hit/miss sequence must match the independent cache model exactly"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ServeEvent::Coalesced { .. })),
        "solo batches cannot coalesce"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coalesced_burst_shares_one_screening_pass() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("coalesce");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    // Four requests sharing the Si W artifact (different Sigma windows and
    // grid offsets), plus one cold LiH request.
    let burst = [
        gpp_req(si_small(), 1, 50, 0),
        gpp_req(si_small(), 2, 50, 0),
        gpp_req(si_small(), 1, 40, 0),
        gpp_req(si_small(), 2, 40, 0),
    ];
    let lih = gpp_req(lih_small(), 1, 50, 0);
    let before = counters::snapshot();
    let mut ids = Vec::new();
    for r in &burst {
        ids.push(core.enqueue(*r).unwrap());
    }
    let lih_id = core.enqueue(lih).unwrap();
    core.run_until_idle(&mut || None);
    let d = before.delta(&counters::snapshot());
    assert_eq!(d.serve_coalesced, 3, "three riders on the Si batch leader");
    assert_eq!(d.serve_misses, 2, "one screening build per structure");
    assert_eq!(d.serve_completed, 5);

    let events = core.take_events();
    let coalesced: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ServeEvent::Coalesced { id, with } => Some((*id, *with)),
            _ => None,
        })
        .collect();
    assert_eq!(
        coalesced,
        vec![(ids[1], ids[0]), (ids[2], ids[0]), (ids[3], ids[0])]
    );

    let mut oracles = Oracles::default();
    let responses = core.take_responses();
    assert_eq!(responses.len(), 5);
    for (rid, resp) in responses {
        let ok = resp.expect("no faults");
        let req = if rid == lih_id {
            assert_eq!(ok.telemetry.batch_size, 1);
            &lih
        } else {
            let i = ids.iter().position(|&x| x == rid).expect("burst id");
            assert_eq!(ok.telemetry.batch_size, 4, "whole burst in one batch");
            &burst[i]
        };
        oracles.check(req, &ok);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_hit_is_a_restart_across_engines() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("restart");
    let req = gpp_req(si_small(), 1, 50, 0);
    let mut oracles = Oracles::default();

    let mut a = ServeCore::new(ServeConfig::new(&dir));
    a.enqueue(req).unwrap();
    a.run_until_idle(&mut || None);
    let (_, first) = a.take_responses().pop().unwrap();
    let first = first.unwrap();
    assert_eq!(first.telemetry.cache, CacheStatus::Miss);
    oracles.check(&req, &first);
    drop(a);

    // A fresh engine over the same store: the hit is a restart through the
    // checksummed WScreening record, not a recompute.
    let before = counters::snapshot();
    let mut b = ServeCore::new(ServeConfig::new(&dir));
    b.enqueue(req).unwrap();
    b.run_until_idle(&mut || None);
    let (_, second) = b.take_responses().pop().unwrap();
    let second = second.unwrap();
    assert_eq!(second.telemetry.cache, CacheStatus::DiskHit);
    oracles.check(&req, &second);
    let d = before.delta(&counters::snapshot());
    assert_eq!(d.serve_hits_disk, 1);
    assert_eq!(d.serve_misses, 0, "warm store must not recompute");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preemption_yields_to_higher_priority_and_resumes_with_parity() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("preempt");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    let slow = gpp_req(si_small(), 2, 50, 0); // 4 band rows
    let urgent = gpp_req(lih_small(), 1, 50, 5);
    let slow_id = core.enqueue(slow).unwrap();

    // A higher-priority request "arrives" outside the engine mid-batch.
    let before = counters::snapshot();
    assert!(core.step_with(&mut || Some(5)));
    assert_eq!(core.queue_len(), 1, "preempted request went back to queue");
    let urgent_id = core.enqueue(urgent).unwrap();
    core.run_until_idle(&mut || None);
    let d = before.delta(&counters::snapshot());
    assert_eq!(d.serve_preemptions, 1);

    let events = core.take_events();
    let preempt_rows = events
        .iter()
        .find_map(|e| match e {
            ServeEvent::Preempted { id, rows_done } if *id == slow_id => Some(*rows_done),
            _ => None,
        })
        .expect("slow batch preempted");
    assert!(preempt_rows >= 1, "yield only after progress");
    let resumed_rows = events
        .iter()
        .find_map(|e| match e {
            ServeEvent::Resumed { rows_done, .. } => Some(*rows_done),
            _ => None,
        })
        .expect("preempted batch resumed from its partial");
    assert_eq!(resumed_rows, preempt_rows, "no row recomputed, none lost");
    // The urgent request retires before the preempted one resumes.
    let completions: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ServeEvent::Completed { id } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(completions, vec![urgent_id, slow_id]);

    let mut oracles = Oracles::default();
    for (rid, resp) in core.take_responses() {
        let req = if rid == slow_id { &slow } else { &urgent };
        oracles.check(req, &resp.expect("no faults"));
    }
    // Completion cleared the preemption partial from the store.
    assert!(core
        .store()
        .load_partial(slow.w_key(), &slow.w_spec().canonical())
        .is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_and_bounded_queue() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("cancel");
    let mut sc = ServeConfig::new(&dir);
    sc.queue_capacity = 2;
    let mut core = ServeCore::new(sc);
    let a = core.enqueue(gpp_req(si_small(), 1, 50, 0)).unwrap();
    let b = core.enqueue(gpp_req(si_small(), 2, 50, 0)).unwrap();
    assert_eq!(
        core.enqueue(gpp_req(lih_small(), 1, 50, 0)),
        Err(ServeError::QueueFull),
        "bounded queue rejects the overflow request"
    );
    assert!(core.cancel(b), "queued request cancels instantly");
    assert!(!core.cancel(999), "unknown id is a no-op");
    core.run_until_idle(&mut || None);
    let responses = core.take_responses();
    assert_eq!(responses.len(), 2);
    for (rid, resp) in responses {
        if rid == b {
            assert_eq!(resp.unwrap_err(), ServeError::Cancelled);
        } else {
            assert_eq!(rid, a);
            assert!(resp.is_ok());
        }
    }
    let events = core.take_events();
    assert!(events.contains(&ServeEvent::Cancelled { id: b }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_batch_cancellation_keeps_survivor_band_windows() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("midcancel");
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    // Two coalesced members with *different* band windows: the leader is
    // cancelled mid-batch (flag flipped between band rows, exactly what a
    // threaded Ticket::cancel does while the batch runs), and the
    // surviving rider must still retire with its own window — never the
    // cancelled member's.
    let wide = gpp_req(si_small(), 2, 50, 0); // 4 band rows: room to cancel
    let narrow = gpp_req(si_small(), 1, 50, 0);
    let wide_cancel = Arc::new(AtomicBool::new(false));
    let wide_id = core.enqueue_with_cancel(wide, wide_cancel.clone()).unwrap();
    let narrow_id = core.enqueue(narrow).unwrap();

    // The peek hook runs between band rows: flip the leader's flag there.
    let mut peeks = 0usize;
    core.run_until_idle(&mut || {
        peeks += 1;
        wide_cancel.store(true, Ordering::Release);
        None
    });
    assert!(
        peeks >= 1,
        "the batch must have row boundaries to cancel at"
    );

    let events = core.take_events();
    assert!(events.contains(&ServeEvent::Cancelled { id: wide_id }));
    assert!(events.contains(&ServeEvent::Completed { id: narrow_id }));

    let mut oracles = Oracles::default();
    let responses = core.take_responses();
    assert_eq!(responses.len(), 2);
    for (rid, resp) in responses {
        if rid == wide_id {
            assert_eq!(resp.unwrap_err(), ServeError::Cancelled);
        } else {
            assert_eq!(rid, narrow_id);
            // Oracles::check asserts the band window and 1e-12 parity: a
            // survivor paired with the cancelled member's bands fails here.
            oracles.check(&narrow, &resp.expect("survivor retires"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn window_that_cannot_straddle_the_gap_is_rejected_at_enqueue() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("badwindow");
    // Si m=1 has 16 valence bands; keeping only 16 leaves no LUMO, so the
    // band solver (and the gap extraction) could never serve this request.
    let bad = gpp_req(
        StructureSpec::SiBulk {
            m: 1,
            ecut_centi_ry: 220,
            n_bands: 16,
        },
        1,
        50,
        0,
    );
    let mut core = ServeCore::new(ServeConfig::new(&dir));
    assert_eq!(
        core.enqueue(bad),
        Err(ServeError::InvalidBandWindow {
            n_valence: 16,
            n_bands: 16,
        }),
        "gap-less window must be rejected before any evaluation"
    );
    assert!(core.is_idle(), "rejected request never enters the queue");

    // Malformed frequency inputs: an FF quadrature with no nodes (it used
    // to panic the quadrature and kill the shard) and a zero sampling
    // offset, GPP or FF (it used to answer NaN energies).
    let mut ff_no_delta = ff_req(si_small(), 1, 6, 0);
    if let RequestKind::FullFreq { delta_milli_ry, .. } = &mut ff_no_delta.kind {
        *delta_milli_ry = 0;
    }
    let bad_freq = [
        (ff_req(si_small(), 1, 0, 0), "n_quad"),
        (gpp_req(si_small(), 1, 0, 0), "delta_milli_ry"),
        (ff_no_delta, "delta_milli_ry"),
    ];
    for (req, field) in bad_freq {
        assert_eq!(
            core.enqueue(req),
            Err(ServeError::InvalidFrequency { field }),
            "{req:?}"
        );
        assert!(core.is_idle(), "rejected request never enters the queue");
    }

    // Through the threaded daemon each rejection is a typed ticket error,
    // not a dead dispatcher: later submissions still serve.
    let server = Server::start(ServeConfig::new(&dir));
    let t_bad = server.submit(bad);
    assert!(matches!(
        t_bad.wait(),
        Err(ServeError::InvalidBandWindow { .. })
    ));
    for (req, field) in bad_freq {
        assert_eq!(
            server.submit(req).wait().map(|_| ()),
            Err(ServeError::InvalidFrequency { field })
        );
    }
    let good = gpp_req(si_small(), 1, 50, 0);
    let ok = server.submit(good).wait().expect("daemon still serves");
    let mut oracles = Oracles::default();
    oracles.check(&good, &ok);
    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_keys_canonicalize_and_torn_entries_degrade_to_recompute() {
    let _guard = exclusive_test_guard();
    // Canonicalization: the key is a pure function of the quantized
    // physics, not of field order or float formatting (keys are built from
    // sorted name=value fields with integer/bit-pattern encodings).
    let a = gpp_req(si_small(), 1, 50, 0);
    let b = gpp_req(si_small(), 1, 50, 7); // priority is not a key input
    assert_eq!(a.w_key(), b.w_key());
    assert_eq!(a.request_key(), b.request_key());
    // Any perturbed band / structure / frequency input changes the key.
    assert_ne!(a.request_key(), gpp_req(si_small(), 2, 50, 0).request_key());
    assert_ne!(a.request_key(), gpp_req(si_small(), 1, 40, 0).request_key());
    assert_ne!(a.w_key(), gpp_req(lih_small(), 1, 50, 0).w_key());
    assert_ne!(a.w_key(), ff_req(si_small(), 1, 6, 0).w_key());
    assert_ne!(
        ff_req(si_small(), 1, 6, 0).w_key(),
        ff_req(si_small(), 1, 8, 0).w_key(),
        "quadrature is a screening input"
    );

    // A corrupted store record must degrade to a recompute, never a hit.
    let dir = tmpdir("torn");
    let req = gpp_req(si_small(), 1, 50, 0);
    let mut a = ServeCore::new(ServeConfig::new(&dir));
    a.enqueue(req).unwrap();
    a.run_until_idle(&mut || None);
    let mut oracles = Oracles::default();
    oracles.check(&req, &a.take_responses().pop().unwrap().1.unwrap());
    // A torn write: one payload byte of the stored record flipped.
    let path = a.store().artifact_path(req.w_key());
    let mut bytes = std::fs::read(&path).expect("artifact on disk");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, bytes).expect("rewrite artifact");
    drop(a);

    let before = counters::snapshot();
    let mut b = ServeCore::new(ServeConfig::new(&dir));
    b.enqueue(req).unwrap();
    b.run_until_idle(&mut || None);
    let d = before.delta(&counters::snapshot());
    assert!(d.serve_store_invalid >= 1, "corruption must be detected");
    assert_eq!(d.serve_hits_disk, 0, "a torn record is never a hit");
    assert_eq!(d.serve_misses, 1);
    let events = b.take_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, ServeEvent::StoreInvalid { .. })));
    oracles.check(&req, &b.take_responses().pop().unwrap().1.unwrap());
    // The recompute rewrote a valid record: the next engine hits it.
    drop(b);
    let mut c = ServeCore::new(ServeConfig::new(&dir));
    c.enqueue(req).unwrap();
    c.run_until_idle(&mut || None);
    let (_, r) = c.take_responses().pop().unwrap();
    assert_eq!(r.unwrap().telemetry.cache, CacheStatus::DiskHit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_per_request_trace_report() {
    let _guard = exclusive_test_guard();
    trace::reset();
    trace::set_enabled(true);
    let dir = tmpdir("golden");
    let mut sc = ServeConfig::new(&dir);
    sc.collect_reports = true;
    let mut core = ServeCore::new(sc);
    let req = gpp_req(si_small(), 1, 50, 0);

    core.enqueue(req).unwrap();
    core.run_until_idle(&mut || None);
    let (_, cold) = core.take_responses().pop().unwrap();
    let cold_rep = cold.unwrap().telemetry.report.expect("cold report");
    assert!(
        cold_rep.find("serve.batch/serve.screening.build").is_some(),
        "a cold request pays the screening build"
    );

    core.enqueue(req).unwrap();
    core.run_until_idle(&mut || None);
    let (_, warm) = core.take_responses().pop().unwrap();
    let warm = warm.unwrap();
    trace::set_enabled(false);
    trace::reset();
    assert_eq!(warm.telemetry.cache, CacheStatus::MemHit);
    // Tracing changes no physics: the traced response equals the untraced
    // one-shot run.
    Oracles::default().check(&req, &warm);
    let warm_rep = warm.telemetry.report.expect("warm report");
    assert!(
        warm_rep.find("serve.batch/serve.screening.build").is_none(),
        "a warm request must not rebuild the screening"
    );

    // Pin the pruned + scrubbed warm report: serve-owned spans only (host
    // pool/kernel spans vary), times and counters zeroed, names / call
    // counts / nesting exact.
    let pinned = warm_rep
        .pruned(&|n: &str| n.starts_with("serve."))
        .scrubbed();
    let actual = pinned.to_json();
    if std::env::var("BGW_BLESS").is_ok() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/serve_report.json"
            ),
            &actual,
        )
        .expect("bless golden");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let golden = include_str!("golden/serve_report.json");
    assert_eq!(
        actual, golden,
        "per-request serve report drifted from tests/golden/serve_report.json \
         (re-bless with BGW_BLESS=1 if the change is intentional)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays `stream` through the threaded daemon over `dir` in waves of
/// eight, checking every ticket against its one-shot oracle; the store is
/// capped at `store_budget_bytes` (0 = uncapped).
fn replay_through_server(
    dir: &Path,
    store_budget_bytes: u64,
    stream: &[GwRequest],
    oracles: &mut Oracles,
) {
    let mut sc = ServeConfig::new(dir);
    sc.queue_capacity = stream.len();
    sc.store_budget_bytes = store_budget_bytes;
    let server = Server::start(sc);
    for wave in stream.chunks(8) {
        let tickets: Vec<_> = wave.iter().map(|r| server.submit(*r)).collect();
        for (req, t) in wave.iter().zip(tickets) {
            oracles.check(req, &t.wait().expect("no faults planned"));
        }
    }
    let cores = server.shutdown();
    assert!(
        cores.iter().all(|c| c.is_idle()),
        "shutdown drains the queue"
    );
    assert!(
        cores.iter().all(|c| c.events().is_empty()),
        "a resident dispatcher keeps no event log"
    );
}

#[test]
fn threaded_server_round_trips_tickets() {
    let _guard = exclusive_test_guard();
    let dir = tmpdir("daemon");
    let req = gpp_req(si_small(), 1, 50, 0);
    // Duplicate submissions: whichever interleaving the dispatcher picks
    // (coalesced into one batch or served warm), only one screening build
    // may happen.
    let before = counters::snapshot();
    replay_through_server(&dir, 0, &[req; 3], &mut Oracles::default());
    let d = before.delta(&counters::snapshot());
    assert_eq!(d.serve_misses, 1, "one screening build for three requests");
    assert_eq!(d.serve_completed, 3);
    assert_eq!(d.serve_hits_mem + d.serve_coalesced, 2, "two warm riders");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(total bytes, largest file, partial_* count)` under a store directory.
fn store_footprint(dir: &Path) -> (u64, u64, usize) {
    let mut total = 0;
    let mut largest = 0;
    let mut partials = 0;
    for entry in std::fs::read_dir(dir).expect("store dir") {
        let entry = entry.expect("store entry");
        let len = entry.metadata().expect("store entry metadata").len();
        total += len;
        largest = largest.max(len);
        if entry.file_name().to_string_lossy().starts_with("partial_") {
            partials += 1;
        }
    }
    (total, largest, partials)
}

#[test]
fn store_budget_replay_stays_under_budget_at_parity() {
    let _guard = exclusive_test_guard();
    let stream = zipf_stream(&TrafficConfig::small(2024, 24));
    let mut oracles = Oracles::default();

    // The uncapped footprint calibrates the budget: half of it, floored at
    // twice the largest record so the newest write plus a pinned in-flight
    // entry always fit.
    let uncapped_dir = tmpdir("gc_uncapped");
    replay_through_server(&uncapped_dir, 0, &stream, &mut oracles);
    let (uncapped, largest, _) = store_footprint(&uncapped_dir);
    let _ = std::fs::remove_dir_all(&uncapped_dir);
    let budget = (uncapped / 2).max(2 * largest);
    assert!(
        budget < uncapped,
        "the stream must outgrow the budget ({uncapped} bytes uncapped, budget {budget})"
    );

    let dir = tmpdir("gc_capped");
    replay_through_server(&dir, budget, &stream, &mut oracles);
    let (bytes, _, partials) = store_footprint(&dir);
    assert!(
        bytes <= budget,
        "store holds {bytes} bytes over the {budget}-byte budget"
    );
    assert_eq!(partials, 0, "orphaned partial_* files survived the replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_replay_is_deterministic_and_shard_count_invariant() {
    let _guard = exclusive_test_guard();
    // The synchronous model of the sharded daemon: N engines over one
    // shared store handle, each request routed to `w_key % N` in stream
    // order. Requests sharing a W always land on the same shard, so the
    // per-request cache ladder — and therefore every result bit — must
    // be independent of the shard count, and each shard's event log must
    // be a pure function of (stream, N).
    let cfg = TrafficConfig {
        seed: 7,
        n_requests: 12,
        zipf_exponent: 1.1,
        structures: vec![si_small(), lih_small()],
        ff_fraction: 0.25,
        high_priority_fraction: 0.0,
    };
    let stream = zipf_stream(&cfg);

    let run = |n: usize, tag: &str| -> (Vec<Vec<u64>>, Vec<Vec<ServeEvent>>) {
        let dir = tmpdir(&format!("shardrep_{n}_{tag}"));
        let store = ArtifactStore::new(dir.clone());
        let mut shards: Vec<ServeCore> = (0..n)
            .map(|_| {
                let mut sc = ServeConfig::new(&dir);
                sc.n_shards = n;
                ServeCore::with_store(sc, store.clone())
            })
            .collect();
        let mut results = Vec::with_capacity(stream.len());
        for req in &stream {
            let core = &mut shards[req.shard_of(n)];
            let id = core.enqueue(*req).expect("queue has room");
            core.run_until_idle(&mut || None);
            let (rid, resp) = core.take_responses().pop().expect("one response");
            assert_eq!(rid, id);
            let bits: Vec<u64> = match resp.expect("no faults planned").payload {
                Payload::Gpp(p) => p.e_qp.iter().map(|x| x.to_bits()).collect(),
                Payload::FullFreq(p) => p
                    .sigma
                    .iter()
                    .flatten()
                    .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                    .collect(),
            };
            results.push(bits);
        }
        let events = shards.iter_mut().map(|c| c.take_events()).collect();
        let _ = std::fs::remove_dir_all(&dir);
        (results, events)
    };

    let (r1, e1) = run(1, "a");
    let (r1b, e1b) = run(1, "b");
    assert_eq!(r1, r1b, "1-shard replay must be deterministic");
    assert_eq!(e1, e1b, "1-shard event log must be deterministic");
    for n in [2usize, 4] {
        let (ra, ea) = run(n, "a");
        let (rb, eb) = run(n, "b");
        assert_eq!(
            ra, r1,
            "{n}-shard results must be byte-identical to 1 shard"
        );
        assert_eq!(ra, rb, "{n}-shard replay must be deterministic");
        assert_eq!(ea, eb, "per-shard event logs must be deterministic");
        assert_eq!(ea.len(), n);
        assert_eq!(
            ea.iter().flatten().count(),
            e1[0].len(),
            "sharding partitions the event stream, never drops events"
        );
    }
}
