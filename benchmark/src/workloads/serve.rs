//! The two serve workloads: a workflow fires Sigma requests at the
//! resident daemon and waits for each reply. A closed loop: one client
//! submits a wave of eight requests and waits for the whole wave before
//! the next. Every reply is checked against the one-shot oracle for its
//! request key, made during set-up.

use super::{fill_span_rows, fill_substrate_rows, Outcome, RunSpec, Tally};
use crate::adapter::{self, Budgets, Counters, Daemon, Oracle, Reply, Request};
use crate::host;
use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile, samples_beyond, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// Requests in flight at once.
const WAVE: usize = 8;
/// Replies agree with the one-shot oracle within this.
const ORACLE_TOLERANCE: f64 = 1e-10;
/// Repetitions of each isolated service call in the traced run.
const PROBE_REPEATS: usize = 5;

struct Traffic {
    requests: fn(u64, usize) -> Vec<Request>,
    budgets: Budgets,
    /// Requests generated per second of measuring time, sized so the
    /// width-`W` replay lasts about the measuring time on a 2-core host.
    /// The count depends on the run's length alone, never on how fast
    /// the program is, so a seed's cache misses repeat exactly.
    per_second: usize,
}

fn traffic(name: &str) -> Result<Traffic, String> {
    match name {
        "serve_zipf" => Ok(Traffic {
            requests: adapter::zipf_requests,
            budgets: Budgets::default(),
            per_second: 200,
        }),
        // The 24 screenings of the catalog (12 structures, GPP and FF) take
        // about 300 kB on disk and 40 kB is about one in memory: nearly
        // every batch evicts, two in three restore from disk, one in six
        // rebuilds, and store GC runs throughout.
        "serve_churn" => Ok(Traffic {
            requests: adapter::churn_requests,
            budgets: Budgets {
                mem_bytes: Some(40_000),
                store_bytes: Some(200_000),
            },
            per_second: 70,
        }),
        _ => Err(format!("{name} is not a serve workload")),
    }
}

fn check(reply: &Result<Reply, String>) -> Option<String> {
    match reply {
        Err(e) => Some(format!("the daemon refused or failed the request: {e}")),
        Ok(r) if r.oracle_err > ORACLE_TOLERANCE => Some(format!(
            "reply deviates from the one-shot oracle by {:e}, tolerance {ORACLE_TOLERANCE:e}",
            r.oracle_err
        )),
        Ok(_) => None,
    }
}

/// A daemon over a fresh store directory, removed again on `finish`.
struct Session {
    daemon: Daemon,
    dir: std::path::PathBuf,
}

impl Session {
    fn start(tag: &str, budgets: Budgets) -> Result<Self, String> {
        let dir = host::fresh_dir(tag).map_err(|e| e.to_string())?;
        Ok(Self {
            daemon: Daemon::start(&dir, budgets),
            dir,
        })
    }

    /// Stops the daemon; returns the bytes its store held at the end.
    fn finish(self) -> Result<u64, String> {
        let bytes = self.daemon.shutdown();
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        bytes
    }
}

/// One pass over a request stream.
struct Replay {
    wall_s: f64,
    /// Submit to `wait` return, per request, on the client's clock.
    latency_s: Vec<f64>,
    replies: Vec<Reply>,
    counters: Counters,
    store_bytes: u64,
}

/// Replays `stream` against a fresh daemon whose parallel regions run
/// `width` wide.
fn replay(
    stream: &[Request],
    width: usize,
    oracles: &BTreeMap<u64, Oracle>,
    budgets: Budgets,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    adapter::set_pool_width(width);
    let session = Session::start("store", budgets)?;
    let before = Counters::snapshot();
    let mut latency_s = Vec::with_capacity(stream.len());
    let mut replies = Vec::with_capacity(stream.len());
    let t0 = Instant::now();
    rec.span("replay", |rec| {
        for wave in stream.chunks(WAVE) {
            rec.next_run();
            let pending: Vec<_> = wave
                .iter()
                .map(|r| (r, rec.now(), Instant::now(), session.daemon.submit(r)))
                .collect();
            for (req, start_s, t, p) in pending {
                let reply = p.wait(&oracles[&req.key()]);
                latency_s.push(t.elapsed().as_secs_f64());
                rec.push("request", start_s, rec.now());
                tally.record(check(&reply));
                if let Ok(reply) = reply {
                    replies.push(reply);
                }
            }
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let store_bytes = session.finish()?;
    Ok(Replay {
        wall_s,
        latency_s,
        replies,
        counters: before.delta_to(&Counters::snapshot()),
        store_bytes,
    })
}

pub fn run(name: &str, spec: &RunSpec) -> Result<Outcome, String> {
    let width = host::default_width();
    let traffic = traffic(name)?;
    let mut tally = Tally::default();

    // Set-up: the seeded stream and the one-shot oracle of every
    // distinct request key in it.
    let t_setup = Instant::now();
    adapter::set_pool_width(width);
    let n = (spec.measure.as_secs_f64() * traffic.per_second as f64) as usize;
    let n = n.max(4 * WAVE).next_multiple_of(2 * WAVE);
    let stream = (traffic.requests)(spec.seed, n);
    let mut oracles = BTreeMap::new();
    for req in &stream {
        oracles
            .entry(req.key())
            .or_insert_with(|| adapter::oracle_for(req));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    println!(
        "{name}: {n} requests, {} distinct request keys, waves of {WAVE}",
        oracles.len()
    );
    let budgets = traffic.budgets;
    let per_1000 = |r: &Replay| 1000.0 * r.wall_s / r.replies.len() as f64;

    if !spec.trace {
        let off = &mut Recorder::off();
        let r = replay(&stream, width, &oracles, budgets, &mut tally, off)?;
        // The width-1 pass is several times shorter than the width-`W`
        // one, so a burst of host noise would own it: repeat it until it
        // has had a quarter of the measuring time, and take the median.
        let t_single = Instant::now();
        let mut single = Vec::new();
        while single.is_empty() || t_single.elapsed() < spec.measure / 4 {
            single.push(replay(&stream, 1, &oracles, budgets, &mut tally, off)?);
        }
        let single_per_1000: Vec<f64> = single.iter().map(per_1000).collect();
        println!("{name}: request latency: {}", Summary::of(&r.latency_s));
        println!(
            "{name}: req_p95_s has {} of {} samples beyond it",
            samples_beyond(r.latency_s.len(), 95.0),
            r.latency_s.len()
        );
        println!(
            "{name}: at width 1, seconds per 1000 requests: {}",
            Summary::of(&single_per_1000)
        );
        let mut m = Metrics::end_to_end();
        // The workflow's wait for its whole sweep, per 1000 requests.
        m.set("solve_s", per_1000(&r));
        m.set("solve_1t_s", median(&single_per_1000));
        m.set("req_p50_s", median(&r.latency_s));
        m.set("req_p95_s", percentile(&r.latency_s, 95.0));
        m.set("throughput_rps", r.replies.len() as f64 / r.wall_s);
        m.set("setup_s", setup_s);
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: m,
            spans_json: None,
        });
    }

    // Traced run: the same half stream three times. Spans off then on at
    // width `W`, so the recorder's own cost shows and the table comes
    // from the traced pass; then at width 1 for the thread speed-up.
    let half = &stream[..n / 2];
    let mut rec = Recorder::on();
    let plain = replay(
        half,
        width,
        &oracles,
        budgets,
        &mut tally,
        &mut Recorder::off(),
    )?;
    let traced = replay(half, width, &oracles, budgets, &mut tally, &mut rec)?;
    let single = replay(half, 1, &oracles, budgets, &mut tally, &mut Recorder::off())?;
    adapter::set_pool_width(width);
    let mut m = layer_table(&traced);
    m.set("par.thread_speedup", per_1000(&single) / per_1000(&plain));
    m.set(
        "harness.trace_overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
    );

    // Isolated calls on the stream's first plasmon-pole request.
    let probe = stream.iter().find(|r| r.is_gpp()).unwrap_or(&stream[0]);
    let scratch = host::fresh_dir("probe").map_err(|e| e.to_string())?;
    for _ in 0..PROBE_REPEATS {
        adapter::service_probe(probe, &scratch, &mut rec)?;
    }
    std::fs::remove_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    fill_span_rows(&mut m, &rec);

    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        spans_json: Some(rec.to_json()),
    })
}

/// The per-layer table of a traced replay: what every reply's telemetry
/// says, and the program's counters over the replay.
fn layer_table(r: &Replay) -> Metrics {
    let mut m = Metrics::per_layer();
    let n = r.replies.len() as f64;
    let of = |f: &dyn Fn(&Reply) -> f64| r.replies.iter().map(f).collect::<Vec<_>>();
    let queue = of(&|x| x.queue_s);
    m.set("serve.queue_wait_p50_s", median(&queue));
    m.set("serve.queue_wait_p95_s", percentile(&queue, 95.0));
    m.set("serve.compute_p50_s", median(&of(&|x| x.compute_s)));
    m.set("serve.batch_size_mean", mean(&of(&|x| x.batch_size as f64)));
    m.set("serve.req_p99_s", percentile(&r.latency_s, 99.0));

    // Every request is either a batch leader (memory hit, disk hit or
    // miss) or coalesced into a leader's batch: the four shares sum to 1.
    let c = &r.counters;
    m.set("serve.mem_hit_ratio", c.serve_hits_mem as f64 / n);
    m.set("serve.disk_hit_ratio", c.serve_hits_disk as f64 / n);
    m.set("serve.miss_ratio", c.serve_misses as f64 / n);
    m.set("serve.coalesced_ratio", c.serve_coalesced as f64 / n);
    m.set("serve.mem_evictions", c.serve_mem_evicted as f64);
    m.set("serve.store.bytes_final", r.store_bytes as f64);
    m.set("serve.store.gc_removed", c.serve_gc_removed as f64);
    m.set("serve.store.invalid", c.serve_store_invalid as f64);
    m.set("io.ckpt_bytes", c.ckpt_bytes as f64);
    // Substrate counters per request served.
    fill_substrate_rows(&mut m, &|pick| pick(c) as f64 / n);

    // The dispatcher is the shared resource: the share of the replay's
    // wall it spent computing batches (each batch counted once).
    let busy: f64 = r
        .replies
        .iter()
        .map(|x| x.compute_s / x.batch_size as f64)
        .sum();
    m.set("attribution.stage_sum_over_wall", busy / r.wall_s);
    m
}
