//! The three one-shot workloads: a materials scientist runs one GW
//! calculation and waits for it. Each timed operation is one full solve
//! on the LiH62 defect cell, at the default pool width `W` and at width
//! 1 in turn; every solve's output is checked against an oracle made
//! during set-up.

use super::{fill_span_rows, fill_substrate_rows, share, Outcome, RunSpec, Tally};
use crate::adapter::{self, Facts, Shape, System};
use crate::host;
use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile, samples_beyond, Summary};
use std::time::Instant;

/// Rounds of (width `W`, width 1) timed even when the first ones
/// already overrun the measuring time.
const MIN_ROUNDS: usize = 2;
/// Width-1 and width-`W` outputs of one input agree within this.
const WIDTH_AGREEMENT: f64 = 1e-9;
/// A seed's golden file pins its first output within this.
const GOLDEN_TOLERANCE: f64 = 1e-8;

/// One workload's inputs, operation, and oracle.
trait Case {
    /// One timed operation, through the entry point users call.
    fn solve(&self) -> Result<Vec<f64>, String>;
    /// The same operation stage by stage, one harness span per stage.
    fn solve_staged(&self, rec: &mut Recorder) -> Result<(Vec<f64>, Facts), String>;
    fn oracle(&self) -> &[f64];
    /// Largest deviation from the oracle an output may show.
    fn tolerance(&self) -> f64;
    fn shape(&self) -> Shape;
    /// Isolated calls that fill table rows the solve itself does not;
    /// `barrier_s` is the untraced width-`W` solve time.
    fn probes(&self, _rec: &mut Recorder, _m: &mut Metrics, _barrier_s: f64) -> Result<(), String> {
        Ok(())
    }
}

struct Gpp {
    sys: System,
    oracle: Vec<f64>,
}

impl Case for Gpp {
    fn solve(&self) -> Result<Vec<f64>, String> {
        Ok(adapter::gpp_solve(&self.sys))
    }
    fn solve_staged(&self, rec: &mut Recorder) -> Result<(Vec<f64>, Facts), String> {
        Ok(adapter::gpp_solve_staged(&self.sys, rec))
    }
    fn oracle(&self) -> &[f64] {
        &self.oracle
    }
    fn tolerance(&self) -> f64 {
        1e-10
    }
    fn shape(&self) -> Shape {
        self.sys.shape()
    }
    /// The DAG driver on the same input: the armed DAG-vs-barrier
    /// verdict, informational.
    fn probes(&self, rec: &mut Recorder, m: &mut Metrics, barrier_s: f64) -> Result<(), String> {
        let (mut walls, mut steals) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t = Instant::now();
            let (e_qp, n) =
                rec.span("core.dagflow.solve", |_| adapter::gpp_solve_dag(&self.sys))?;
            walls.push(t.elapsed().as_secs_f64());
            steals.push(n as f64);
            if let Some(p) = deviation(&e_qp, &self.oracle, self.tolerance()) {
                return Err(format!("the DAG driver's energies: {p}"));
            }
        }
        m.set("core.dagflow.solve_s", median(&walls));
        m.set("core.dagflow.steals", median(&steals));
        m.set("core.dagflow.over_barrier", median(&walls) / barrier_s);
        Ok(())
    }
}

struct Ff {
    inputs: adapter::FfInputs,
    shape: Shape,
    oracle: Vec<f64>,
}

impl Case for Ff {
    fn solve(&self) -> Result<Vec<f64>, String> {
        Ok(adapter::ff_solve(&self.inputs, false, &mut Recorder::off()).0)
    }
    fn solve_staged(&self, rec: &mut Recorder) -> Result<(Vec<f64>, Facts), String> {
        let (sigma, _, facts) = adapter::ff_solve(&self.inputs, false, rec);
        Ok((sigma, facts))
    }
    fn oracle(&self) -> &[f64] {
        &self.oracle
    }
    fn tolerance(&self) -> f64 {
        1e-10
    }
    fn shape(&self) -> Shape {
        self.shape
    }
}

struct Imag {
    inputs: adapter::ImagInputs,
    shape: Shape,
    oracle: Vec<f64>,
    tolerance: f64,
}

impl Case for Imag {
    fn solve(&self) -> Result<Vec<f64>, String> {
        Ok(adapter::imag_solve(&self.inputs, false)?.0)
    }
    fn solve_staged(&self, rec: &mut Recorder) -> Result<(Vec<f64>, Facts), String> {
        adapter::imag_solve_staged(&self.inputs, rec)
    }
    fn oracle(&self) -> &[f64] {
        &self.oracle
    }
    fn tolerance(&self) -> f64 {
        self.tolerance
    }
    fn shape(&self) -> Shape {
        self.shape
    }
    fn probes(&self, rec: &mut Recorder, m: &mut Metrics, _barrier_s: f64) -> Result<(), String> {
        let rel_err = adapter::imag_chi_probe(&self.inputs, rec)?;
        m.set("core.spacetime.chi_rel_err", rel_err);
        let engine = median(&rec.durations("core.spacetime.engine"));
        let fit = median(&rec.durations("core.spacetime.fit"));
        m.set("core.spacetime.setup_s", engine + fit);
        Ok(())
    }
}

/// Makes the workload's inputs from the seed, runs its oracle, and runs
/// the operation once untimed, so the worker pool, FFT plans and
/// allocator are warm before the first timed solve. Returns that first
/// output with the case.
fn set_up(name: &str, seed: u64) -> Result<(Box<dyn Case>, Vec<f64>), String> {
    let case: Box<dyn Case> = match name {
        "gpp_oneshot" => {
            let sys = System::lih62(seed, 3.0, 0.5);
            let oracle = adapter::gpp_oracle(&sys);
            Box::new(Gpp { sys, oracle })
        }
        "ff_sigma" => {
            let sys = System::lih62(seed, 3.0, 1.0);
            let inputs = adapter::ff_inputs(&sys);
            // The oracle is the retained scalar kernel on the first
            // solve's own context and screening.
            let (first, oracle, _) = adapter::ff_solve(&inputs, true, &mut Recorder::off());
            let case = Ff {
                inputs,
                shape: sys.shape(),
                oracle: oracle.expect("asked for with the solve"),
            };
            return Ok((Box::new(case), first));
        }
        "imag_spacetime" => {
            let sys = System::lih62(seed, 2.4, 0.5);
            let inputs = adapter::imag_inputs(&sys);
            let (oracle, _) = adapter::imag_solve(&inputs, true)?;
            // The cosine-transform fit is the only approximation between
            // the two chi algorithms, so its residual, which the first
            // solve reports, sets the tolerance.
            let (first, facts) = adapter::imag_solve(&inputs, false)?;
            let scale = oracle.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            let case = Imag {
                inputs,
                shape: sys.shape(),
                oracle,
                tolerance: 10.0 * facts.st_fit_residual * scale,
            };
            return Ok((Box::new(case), first));
        }
        _ => return Err(format!("{name} is not a one-shot workload")),
    };
    let first = case.solve()?;
    Ok((case, first))
}

/// `None` when `out` is within `tol` of `reference`, else what is wrong.
fn deviation(out: &[f64], reference: &[f64], tol: f64) -> Option<String> {
    let d = adapter::max_abs_diff(out, reference);
    (d > tol).then(|| format!("deviates by {d:e}, tolerance {tol:e}"))
}

fn read_golden(workload: &str, seed: u64) -> Option<Vec<f64>> {
    let text = std::fs::read_to_string(host::golden_path(workload, seed)).ok()?;
    text.lines().map(|l| l.trim().parse().ok()).collect()
}

fn write_golden(workload: &str, seed: u64, out: &[f64]) -> Result<(), String> {
    let path = host::golden_path(workload, seed);
    let text: String = out.iter().map(|x| format!("{x:.17e}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

pub fn run(name: &str, spec: &RunSpec) -> Result<Outcome, String> {
    let width = host::default_width();
    let mut tally = Tally::default();

    let t_setup = Instant::now();
    adapter::set_pool_width(width);
    let (case, first) = set_up(name, spec.seed)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let sh = case.shape();
    println!(
        "{name}: N_v = {}, N_b = {}, N_G = {}, N_G^psi = {}, oracle tolerance {:e}",
        sh.n_v,
        sh.n_b,
        sh.n_g,
        sh.n_g_psi,
        case.tolerance()
    );
    tally.record(deviation(&first, case.oracle(), case.tolerance()));
    if spec.write_golden {
        write_golden(name, spec.seed, &first)?;
    }
    match read_golden(name, spec.seed) {
        Some(golden) => tally.record(
            deviation(&first, &golden, GOLDEN_TOLERANCE).map(|p| format!("golden file: {p}")),
        ),
        None => println!(
            "{name}: no golden file for seed {}, check skipped",
            spec.seed
        ),
    }

    let mut rec = if spec.trace {
        Recorder::on()
    } else {
        Recorder::off()
    };
    let (mut wall_w, mut wall_1) = (Vec::new(), Vec::new());
    let mut facts = Vec::new();
    let t_measure = Instant::now();
    while wall_w.len() < MIN_ROUNDS || t_measure.elapsed() < spec.measure {
        let timed = |w: usize| -> Result<(Vec<f64>, f64), String> {
            adapter::set_pool_width(w);
            let t = Instant::now();
            let out = case.solve()?;
            Ok((out, t.elapsed().as_secs_f64()))
        };
        let (out_w, s) = timed(width)?;
        wall_w.push(s);
        tally.record(deviation(&out_w, case.oracle(), case.tolerance()));
        let (out_1, s) = timed(1)?;
        wall_1.push(s);
        tally.record(
            deviation(&out_1, case.oracle(), case.tolerance()).or_else(|| {
                deviation(&out_1, &out_w, WIDTH_AGREEMENT)
                    .map(|p| format!("width 1 against width {width}: {p}"))
            }),
        );
        if spec.trace {
            adapter::set_pool_width(width);
            rec.next_run();
            let (out, f) = case.solve_staged(&mut rec)?;
            facts.push(f);
            tally.record(deviation(&out, case.oracle(), case.tolerance()));
        }
    }
    adapter::set_pool_width(width);
    println!("{name}: solve at width {width}: {}", Summary::of(&wall_w));
    println!("{name}: solve at width 1: {}", Summary::of(&wall_1));

    let metrics = if spec.trace {
        layer_table(case.as_ref(), &mut rec, &facts, &wall_w, &wall_1)?
    } else {
        let mut m = Metrics::end_to_end();
        m.set("solve_s", median(&wall_w));
        m.set("solve_1t_s", median(&wall_1));
        // A one-shot caller's request is the solve itself.
        m.set("req_p50_s", median(&wall_w));
        m.set("req_p95_s", percentile(&wall_w, 95.0));
        println!(
            "{name}: req_p95_s has {} of {} samples beyond it",
            samples_beyond(wall_w.len(), 95.0),
            wall_w.len()
        );
        m.set("throughput_rps", 1.0 / mean(&wall_w));
        m.set("setup_s", setup_s);
        m
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        spans_json: spec.trace.then(|| rec.to_json()),
    })
}

/// The per-layer table of a traced run: medians over the staged solves.
fn layer_table(
    case: &dyn Case,
    rec: &mut Recorder,
    facts: &[Facts],
    wall_w: &[f64],
    wall_1: &[f64],
) -> Result<Metrics, String> {
    let mut m = Metrics::per_layer();
    fill_span_rows(&mut m, rec);
    let over = |f: &dyn Fn(&Facts) -> f64| median(&facts.iter().map(f).collect::<Vec<_>>());
    let rate = |flops: u64, s: f64| if s > 0.0 { flops as f64 / s / 1e9 } else { 0.0 };
    m.set(
        "core.chi.mtxel_share",
        over(&|f| share(f.chi_mtxel_s, f.chi_sum_s)),
    );
    m.set(
        "core.epsilon.n_inversions",
        over(&|f| f.n_inversions as f64),
    );
    m.set(
        "core.sigma.gpp_diag_gflops",
        over(&|f| rate(f.gpp_flops, f.gpp_kernel_s)),
    );
    m.set(
        "core.sigma.ff_gflops",
        over(&|f| rate(f.ff_flops, f.ff_kernel_s)),
    );
    m.set("core.spacetime.green_s", over(&|f| f.st_green_s));
    m.set("core.spacetime.fft_s", over(&|f| f.st_fft_s));
    m.set("core.spacetime.transform_s", over(&|f| f.st_transform_s));
    m.set("core.spacetime.fit_residual", over(&|f| f.st_fit_residual));

    // Counter deltas between the boundaries of each staged solve.
    let solves: Vec<usize> = (0..rec.spans().len())
        .filter(|&i| rec.spans()[i].name == "solve")
        .collect();
    fill_substrate_rows(&mut m, &|pick| {
        let per_solve: Vec<f64> = solves
            .iter()
            .map(|&i| pick(&rec.spans()[i].counters) as f64)
            .collect();
        median(&per_solve)
    });
    m.set("par.thread_speedup", median(wall_1) / median(wall_w));

    // Validity of the table: the stages must add up to the untraced wall.
    // Each staged solve is held against the untraced solve of its own
    // round, seconds apart, so slow drift of the host cancels.
    let over_untraced = |of: &dyn Fn(usize) -> f64| {
        let ratios: Vec<f64> = solves.iter().zip(wall_w).map(|(&i, w)| of(i) / w).collect();
        median(&ratios)
    };
    let coverage = over_untraced(&|i| rec.spans()[i].seconds() - rec.self_seconds(i));
    m.set("attribution.stage_sum_over_wall", coverage);
    if !(0.9..=1.1).contains(&coverage) {
        println!(
            "UNRESOLVED: the stages add up to {coverage:.3} of the untraced solve; \
             the layer table below does not account for the wall time"
        );
    }
    m.set(
        "harness.trace_overhead_frac",
        over_untraced(&|i| rec.spans()[i].seconds()) - 1.0,
    );

    case.probes(rec, &mut m, median(wall_w))?;
    Ok(m)
}
