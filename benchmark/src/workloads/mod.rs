//! The five workloads. Each is one set of inputs made from a seed, one
//! operation timed over and over, and a correctness check on every
//! operation's output.

mod oneshot;
mod serve;

use crate::adapter::Counters;
use crate::metrics::{Metrics, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::median;
use std::time::Duration;

/// Every workload, in the order `all` runs them. `BENCHMARK.json` and
/// the README say why each was chosen.
pub const NAMES: [&str; 5] = [
    "gpp_oneshot",
    "ff_sigma",
    "imag_spacetime",
    "serve_zipf",
    "serve_churn",
];

/// What one run of one workload is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub seed: u64,
    /// How long to measure, set-up excluded.
    pub measure: Duration,
    /// Per-layer run (harness spans on) instead of the end-to-end run.
    pub trace: bool,
    /// Write the first operation's output as the seed's golden file.
    pub write_golden: bool,
}

/// What one run produced.
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored or missed their check.
    pub failed: u64,
    pub metrics: Metrics,
    /// The harness's span list, from a traced run.
    pub spans_json: Option<String>,
}

/// Counts checked operations and prints each failure once.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records one operation; `problem` says what was wrong with it.
    fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            println!("FAILED operation {}: {p}", self.attempted);
        }
    }
}

/// Fills every `x_s` row of the table that has spans called `x` with
/// the median of their durations.
fn fill_span_rows(m: &mut Metrics, rec: &Recorder) {
    for (metric, _, _) in PER_LAYER {
        if let Some(span) = metric.strip_suffix("_s") {
            let d = rec.durations(span);
            if !d.is_empty() {
                m.set(metric, median(&d));
            }
        }
    }
}

/// `part / (part + rest)`, zero when both are.
fn share(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

/// Picks one counter out of a delta.
type Pick = fn(&Counters) -> u64;

/// The substrate rows (`fft`, `linalg`, `par`) from counter deltas;
/// `typical` gives a counter's value for one typical operation.
fn fill_substrate_rows(m: &mut Metrics, typical: &dyn Fn(Pick) -> f64) {
    let seconds = |pick: Pick| typical(pick) / 1e9;
    m.set("fft.grids", typical(|c| c.fft_grids));
    m.set("fft.lines", typical(|c| c.fft_lines));
    m.set("fft.busy_s", seconds(|c| c.fft_ns));
    m.set("linalg.gemm_calls", typical(|c| c.gemm_calls));
    m.set("linalg.gemm_pack_s", seconds(|c| c.gemm_pack_ns));
    m.set("linalg.gemm_compute_s", seconds(|c| c.gemm_compute_ns));
    m.set(
        "linalg.gemm_pack_frac",
        share(seconds(|c| c.gemm_pack_ns), seconds(|c| c.gemm_compute_ns)),
    );
    m.set("par.dispatches", typical(|c| c.pool_dispatches));
    m.set("par.dispatch_s", seconds(|c| c.pool_dispatch_ns));
    m.set("par.region_s", seconds(|c| c.pool_region_ns));
    m.set("par.inline_runs", typical(|c| c.pool_inline_runs));
}

/// Runs the workload called `name`; `Err` when it does not exist or
/// cannot set up.
pub fn run(name: &str, spec: &RunSpec) -> Result<Outcome, String> {
    match name {
        "gpp_oneshot" | "ff_sigma" | "imag_spacetime" => oneshot::run(name, spec),
        "serve_zipf" | "serve_churn" => serve::run(name, spec),
        _ => Err(format!(
            "no workload called {name}; there are: {}",
            NAMES.join(", ")
        )),
    }
}
