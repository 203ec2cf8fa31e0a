//! Traffic-replay gate for the `bgw-serve` daemon (wired into
//! `tools/check.sh --serve`).
//!
//! Replays a seeded zipf request stream (hundreds of mixed GPP and
//! full-frequency requests over a few structures) through the threaded
//! [`Server`] in bursts, then gates:
//!
//! * cache hit rate > 0 on the repeated structures (warm requests must
//!   ride the in-memory LRU / artifact store / coalescing instead of
//!   rebuilding W) — and exactly one screening build per distinct W key,
//!   verified against the perf counters;
//! * warm requests skip the epsilon/W recomputation, verified on the
//!   per-request span-tree reports (`serve.screening.build` absent);
//! * every served response matches its one-shot oracle (`run_gpp_gw` /
//!   direct `ff_sigma_diag`) at 1e-12;
//! * p50/p99 service latency finite, written with the hit statistics to
//!   `BENCH_serve.json`;
//! * store GC: replaying the stream with a byte budget (half the
//!   uncapped footprint) leaves the store under budget with zero
//!   leftover `partial_*` files, results still at parity;
//! * shard sweep: a distinct-W request mix served with 1/2/4 dispatcher
//!   shards must produce bit-identical results at every shard count
//!   with per-shard warm hits preserved; on a host with >= 4 cores the
//!   4-shard run must beat 1 shard by >= 1.5x throughput.
//!
//! `--smoke` shrinks the stream for the CI gate; any violated gate exits
//! nonzero.

use bgw_core::workflow::run_gpp_gw;
use bgw_core::{
    ff_sigma_diag, three_point_grids, ChiConfig, ChiEngine, Coulomb, EpsilonInverse, GppModel,
    Mtxel, SigmaContext,
};
use bgw_num::grid::semi_infinite_quadrature;
use bgw_num::Complex64;
use bgw_perf::counters;
use bgw_pwdft::{charge_density_g, solve_bands};
use bgw_serve::{
    zipf_stream, CacheStatus, GwRequest, Payload, RequestKind, ServeConfig, Server, StructureSpec,
    TrafficConfig,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

const PARITY_TOL: f64 = 1e-12;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One-shot FF oracle: the direct primitive pipeline, no service layer.
fn ff_oracle(req: &GwRequest) -> Vec<Vec<Complex64>> {
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
    let grids = three_point_grids(&ctx.sigma_energies, req.delta_ry());
    ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, req.eta_ry()).sigma
}

enum Oracle {
    Gpp(Vec<f64>),
    Ff(Vec<Vec<Complex64>>),
}

fn oracle_for(req: &GwRequest) -> Oracle {
    match req.kind {
        RequestKind::GppDiag { .. } => {
            let r = run_gpp_gw(&req.structure.system(), &req.gw_config());
            Oracle::Gpp(r.states.iter().map(|s| s.e_qp).collect())
        }
        RequestKind::FullFreq { .. } => Oracle::Ff(ff_oracle(req)),
    }
}

fn parity_err(payload: &Payload, oracle: &Oracle) -> f64 {
    match (payload, oracle) {
        (Payload::Gpp(p), Oracle::Gpp(e_qp)) => p
            .e_qp
            .iter()
            .zip(e_qp)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max),
        (Payload::FullFreq(p), Oracle::Ff(sigma)) => p
            .sigma
            .iter()
            .flatten()
            .zip(sigma.iter().flatten())
            .map(|(a, b)| (a.re - b.re).abs().max((a.im - b.im).abs()))
            .fold(0.0, f64::max),
        _ => f64::INFINITY,
    }
}

/// (total bytes, largest file, `partial_*` count) under a store dir.
fn store_footprint(dir: &Path) -> (u64, u64, usize) {
    let mut total = 0u64;
    let mut largest = 0u64;
    let mut partials = 0usize;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            total += meta.len();
            largest = largest.max(meta.len());
            if e.file_name().to_string_lossy().starts_with("partial_") {
                partials += 1;
            }
        }
    }
    (total, largest, partials)
}

/// Replays `stream` against a store capped at `budget` bytes and gates
/// that GC keeps the directory under budget with no leftover partials.
fn gc_gate(stream: &[GwRequest], budget: u64, burst: usize, failed: &mut bool) -> String {
    let dir = std::env::temp_dir().join(format!("bgw_serve_gc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sc = ServeConfig::new(&dir);
    sc.queue_capacity = stream.len() + burst;
    sc.store_budget_bytes = budget;
    let server = Server::start(sc);
    let mut completed = 0usize;
    for wave in stream.chunks(burst) {
        let tickets: Vec<_> = wave.iter().map(|r| server.submit(*r)).collect();
        for t in tickets {
            match t.wait() {
                Ok(_) => completed += 1,
                Err(e) => {
                    eprintln!("FAIL: gc-capped replay rejected a request: {e}");
                    *failed = true;
                }
            }
        }
    }
    let cores = server.shutdown();
    let under_queue = cores.iter().all(|c| c.is_idle());
    let (bytes_after, _, partials_after) = store_footprint(&dir);
    if !under_queue {
        eprintln!("FAIL: gc-capped replay left a non-idle queue");
        *failed = true;
    }
    if completed != stream.len() {
        eprintln!(
            "FAIL: gc-capped replay completed {completed} of {} requests",
            stream.len()
        );
        *failed = true;
    }
    if bytes_after > budget {
        eprintln!("FAIL: store holds {bytes_after} bytes over the {budget}-byte GC budget");
        *failed = true;
    }
    if partials_after != 0 {
        eprintln!("FAIL: {partials_after} orphaned partial_* files survived the replay");
        *failed = true;
    }
    let _ = std::fs::remove_dir_all(&dir);
    format!(
        "{{\"budget_bytes\": {budget}, \"bytes_after\": {bytes_after}, \
         \"partials_after\": {partials_after}, \"requests\": {}, \
         \"under_budget\": {}}}",
        stream.len(),
        bytes_after <= budget,
    )
}

/// Picks `per_bucket` Si-bulk cutoffs per `w_key % 4` residue so a
/// distinct-W stream spreads evenly over 1/2/4 shards (4 divides by 2,
/// so mod-4 balance implies mod-2 balance).
fn balanced_sweep_requests(per_bucket: usize, repeats: usize) -> Vec<GwRequest> {
    let mut buckets: Vec<Vec<GwRequest>> = vec![Vec::new(); 4];
    for ecut in (200..600).step_by(5) {
        let req = GwRequest {
            structure: StructureSpec::SiBulk {
                m: 1,
                ecut_centi_ry: ecut,
                n_bands: 24,
            },
            kind: RequestKind::GppDiag {
                bands_around_gap: 1,
                delta_milli_ry: 50,
            },
            priority: 0,
        };
        let b = req.shard_of(4);
        if buckets[b].len() < per_bucket {
            buckets[b].push(req);
        }
        if buckets.iter().all(|v| v.len() >= per_bucket) {
            break;
        }
    }
    let distinct: Vec<GwRequest> = (0..per_bucket)
        .flat_map(|i| buckets.iter().filter_map(move |v| v.get(i).copied()))
        .collect();
    (0..repeats)
        .flat_map(|_| distinct.iter().copied())
        .collect()
}

struct SweepRun {
    shards: usize,
    wall: f64,
    warm: u64,
    misses: u64,
    worst_parity: f64,
    /// Per-request QP energies as raw bit patterns, submission order.
    bits: Vec<Vec<u64>>,
}

/// Serves a distinct-W stream with 1/2/4 dispatcher shards; gates
/// bit-identical results, preserved warm hits and parity per shard
/// count, and (on >= 4 cores) >= 1.5x 4-shard throughput.
fn shard_sweep(smoke: bool, failed: &mut bool) -> String {
    let per_bucket = if smoke { 1 } else { 2 };
    let repeats = if smoke { 2 } else { 3 };
    let stream = balanced_sweep_requests(per_bucket, repeats);
    let n_distinct = stream.len() / repeats;
    // Oracles up front, outside the timed sections: lazy computation
    // would bill the whole oracle cost to the first (1-shard) run and
    // fake the speedup.
    let mut oracles: HashMap<u64, Oracle> = HashMap::new();
    for req in &stream {
        oracles
            .entry(req.request_key().0)
            .or_insert_with(|| oracle_for(req));
    }
    let mut runs: Vec<SweepRun> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let dir =
            std::env::temp_dir().join(format!("bgw_serve_sweep_{}_{}", std::process::id(), shards));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sc = ServeConfig::new(&dir);
        sc.queue_capacity = stream.len() + 8;
        sc.n_shards = shards;
        let before = counters::snapshot();
        let t0 = Instant::now();
        let server = Server::start(sc);
        let tickets: Vec<_> = stream.iter().map(|r| server.submit(*r)).collect();
        let mut bits = Vec::with_capacity(stream.len());
        let mut worst = 0.0f64;
        for (req, t) in stream.iter().zip(tickets) {
            match t.wait() {
                Ok(ok) => {
                    if let Payload::Gpp(p) = &ok.payload {
                        bits.push(p.e_qp.iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
                    }
                    let oracle = oracles
                        .entry(req.request_key().0)
                        .or_insert_with(|| oracle_for(req));
                    worst = worst.max(parity_err(&ok.payload, oracle));
                }
                Err(e) => {
                    eprintln!("FAIL: {shards}-shard sweep rejected a request: {e}");
                    *failed = true;
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let cores = server.shutdown();
        let d = before.delta(&counters::snapshot());
        let warm = d.serve_hits_mem + d.serve_hits_disk + d.serve_coalesced;
        if !cores.iter().all(|c| c.is_idle()) {
            eprintln!("FAIL: {shards}-shard sweep left a non-idle shard");
            *failed = true;
        }
        if d.serve_misses as usize != n_distinct {
            eprintln!(
                "FAIL: {} screening builds for {n_distinct} distinct W keys at {shards} shards",
                d.serve_misses
            );
            *failed = true;
        }
        if (warm as usize) < n_distinct * (repeats - 1) {
            eprintln!(
                "FAIL: warm hits collapsed at {shards} shards ({warm} < {})",
                n_distinct * (repeats - 1)
            );
            *failed = true;
        }
        if worst > PARITY_TOL {
            eprintln!("FAIL: {shards}-shard sweep drifted {worst:e} from the oracles");
            *failed = true;
        }
        runs.push(SweepRun {
            shards,
            wall,
            warm,
            misses: d.serve_misses,
            worst_parity: worst,
            bits,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    for r in &runs[1..] {
        if r.bits != runs[0].bits {
            eprintln!(
                "FAIL: {}-shard results not bit-identical to the 1-shard run",
                r.shards
            );
            *failed = true;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup_4v1 = runs[0].wall / runs[2].wall.max(1e-12);
    let gate_armed = cores >= 4;
    if gate_armed && speedup_4v1 < 1.5 {
        eprintln!(
            "FAIL: 4 shards gained only {speedup_4v1:.2}x over 1 shard on a {cores}-core host"
        );
        *failed = true;
    }
    let sweep_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"shards\": {}, \"wall_s\": {:.4}, \"throughput_rps\": {:.3}, \
                 \"warm\": {}, \"misses\": {}, \"worst_parity\": {:e}}}",
                r.shards,
                r.wall,
                r.bits.len() as f64 / r.wall.max(1e-12),
                r.warm,
                r.misses,
                r.worst_parity,
            )
        })
        .collect();
    format!(
        "{{\"requests\": {}, \"distinct_w_keys\": {n_distinct}, \"cores\": {cores}, \
         \"gate_armed\": {gate_armed}, \"speedup_4v1\": {speedup_4v1:.3}, \
         \"bit_identical\": {}, \"sweep\": [{}]}}",
        stream.len(),
        runs[1..].iter().all(|r| r.bits == runs[0].bits),
        sweep_json.join(", "),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_requests = if smoke { 48 } else { 240 };
    let burst = 8;
    let traffic = TrafficConfig::small(2024, n_requests);
    let stream = zipf_stream(&traffic);

    let store_dir = std::env::temp_dir().join(format!("bgw_serve_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut sc = ServeConfig::new(&store_dir);
    sc.queue_capacity = n_requests + burst;
    sc.collect_reports = true;

    let n_wkeys = {
        let mut keys: Vec<u64> = stream.iter().map(|r| r.w_key().0).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    };

    let before = counters::snapshot();
    let t0 = Instant::now();
    let server = Server::start(sc);
    let mut failed = false;
    let mut latencies: Vec<f64> = Vec::with_capacity(stream.len());
    let mut oracles: HashMap<u64, Oracle> = HashMap::new();
    let mut worst_parity = 0.0f64;
    let mut warm_with_build = 0usize;
    let mut n_warm_reports = 0usize;

    for wave in stream.chunks(burst) {
        let tickets: Vec<_> = wave.iter().map(|r| (*r, server.submit(*r))).collect();
        for (req, ticket) in tickets {
            let ok = match ticket.wait() {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("FAIL: request rejected or faulted with no plan armed: {e}");
                    std::process::exit(1);
                }
            };
            latencies.push(ok.telemetry.queue_seconds + ok.telemetry.compute_seconds);
            let oracle = oracles
                .entry(req.request_key().0)
                .or_insert_with(|| oracle_for(&req));
            let err = parity_err(&ok.payload, oracle);
            worst_parity = worst_parity.max(err);
            if err > PARITY_TOL {
                eprintln!("FAIL: served result drifted {err:e} from the one-shot oracle");
                failed = true;
            }
            // Warm requests must not rebuild the screening: their span
            // report has no serve.screening.build subtree.
            if ok.telemetry.cache != CacheStatus::Miss {
                if let Some(rep) = &ok.telemetry.report {
                    n_warm_reports += 1;
                    if rep.find("serve.batch/serve.screening.build").is_some() {
                        warm_with_build += 1;
                    }
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cores = server.shutdown();
    if !cores.iter().all(|c| c.is_idle()) {
        eprintln!("FAIL: queue not drained after shutdown");
        failed = true;
    }
    // The uncapped footprint calibrates the GC budget: half the total,
    // floored at twice the largest record so the budget is always
    // satisfiable (the newest write plus a pinned in-flight entry fit).
    let (uncapped_bytes, largest_file, _) = store_footprint(&store_dir);
    let d = before.delta(&counters::snapshot());

    let warm = d.serve_hits_mem + d.serve_hits_disk + d.serve_coalesced;
    let hit_rate = warm as f64 / stream.len() as f64;
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);

    if warm == 0 {
        eprintln!("FAIL: zipf repeats produced zero cache hits");
        failed = true;
    }
    if d.serve_misses as usize != n_wkeys {
        eprintln!(
            "FAIL: {} screening builds for {} distinct W keys — warm requests recomputed W",
            d.serve_misses, n_wkeys
        );
        failed = true;
    }
    if bgw_trace::compiled_in() && n_warm_reports == 0 {
        eprintln!("FAIL: no warm request carried a span report");
        failed = true;
    }
    if warm_with_build > 0 {
        eprintln!("FAIL: {warm_with_build} warm requests rebuilt the screening (span tree)");
        failed = true;
    }
    if !p99.is_finite() || !p50.is_finite() {
        eprintln!("FAIL: latency percentiles not finite (p50 {p50}, p99 {p99})");
        failed = true;
    }
    if d.serve_completed as usize != stream.len() {
        eprintln!(
            "FAIL: {} completions for {} requests",
            d.serve_completed,
            stream.len()
        );
        failed = true;
    }

    let _ = std::fs::remove_dir_all(&store_dir);

    // GC gate: replay the same stream against a store capped at half the
    // uncapped footprint; the pass must hold it under budget throughout.
    let gc_budget = (uncapped_bytes / 2).max(2 * largest_file).max(1);
    let gc_json = gc_gate(&stream, gc_budget, burst, &mut failed);

    // Shard sweep: distinct-W scaling + bit-identical results per count.
    let shards_json = shard_sweep(smoke, &mut failed);

    let json = format!(
        "{{\n  \"config\": {{\"smoke\": {smoke}, \"n_requests\": {}, \"burst\": {burst}, \
         \"structures\": {}, \"zipf_exponent\": {}, \"seed\": {}, \"threads\": {}, \
         \"parity_tol\": {PARITY_TOL:e}}},\n  \
         \"cache\": {{\"hit_rate\": {hit_rate:.4}, \"hits_mem\": {}, \"hits_disk\": {}, \
         \"coalesced\": {}, \"misses\": {}, \"distinct_w_keys\": {n_wkeys}, \
         \"store_invalid\": {}}},\n  \
         \"latency\": {{\"p50_s\": {p50:.6}, \"p99_s\": {p99:.6}, \"wall_s\": {wall:.3}, \
         \"completed\": {}}},\n  \
         \"parity\": {{\"worst\": {worst_parity:e}, \"oracles\": {}}},\n  \
         \"warm_skip\": {{\"warm_reports\": {n_warm_reports}, \"warm_with_build\": {warm_with_build}}},\n  \
         \"gc\": {gc_json},\n  \
         \"shards\": {shards_json},\n  \
         \"pass\": {}\n}}\n",
        stream.len(),
        traffic.structures.len(),
        traffic.zipf_exponent,
        traffic.seed,
        bgw_par::num_threads(),
        d.serve_hits_mem,
        d.serve_hits_disk,
        d.serve_coalesced,
        d.serve_misses,
        d.serve_store_invalid,
        d.serve_completed,
        oracles.len(),
        !failed,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    if failed {
        std::process::exit(1);
    }
    println!(
        "serve smoke: {} requests, hit rate {:.1}%, {} screening builds for {} W keys, \
         p50 {:.2}ms, p99 {:.2}ms, worst parity {worst_parity:.2e}",
        stream.len(),
        hit_rate * 100.0,
        d.serve_misses,
        n_wkeys,
        p50 * 1e3,
        p99 * 1e3
    );
}
