//! `gwbench`: the repository's benchmark. Five workloads, seven
//! end-to-end metrics every workload reports, and a per-layer table
//! timed from outside the program. See `README.md` beside this package.
//!
//! ```text
//! gwbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! gwbench run <name> [--seed N] [--seconds S] [--trace] [--write-golden]
//! gwbench all [--seed N] [--seconds S] [--trace]
//! gwbench repeat [--seed N] [--seconds S]
//! ```
//!
//! The first form is what `BENCHMARK.json` names; `run` is the same with
//! the workload as a word. Both print every metric as `workload metric
//! value unit` and end with one JSON object on the last line. `all` runs
//! every workload in a child process of its own, one after another;
//! `repeat` runs two such sets and compares them against the bounds.

mod adapter;
mod host;
mod metrics;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{Outcome, RunSpec, NAMES};

/// Seed used when none is given; 7 is the customary unseen seed.
const DEFAULT_SEED: u64 = 2024;
/// Measuring time when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 14;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_golden: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        write_golden: false,
    };
    let mut it = raw.iter().peekable();
    if let Some(word) = it.next_if(|a| !a.starts_with("--")) {
        args.command = word.clone();
        if word == "run" {
            args.workload = it.next_if(|a| !a.starts_with("--")).cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what} after it"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a whole number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds {v}: not a whole number from 1 to 60"))?;
            }
            // `--trace 0|1` as the driver writes it, or bare `--trace`.
            "--trace" => {
                args.trace = match it.next_if(|a| *a == "0" || *a == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--write-golden" => args.write_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One `"name": {"value": v, "unit": "u"}` entry per metric.
fn metric_entries(o: &Outcome) -> Vec<String> {
    o.metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect()
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_json(o: &Outcome) -> String {
    let metrics = metric_entries(o);
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn write_trace(
    workload: &str,
    fp: &host::Fingerprint,
    o: &Outcome,
    spans: &str,
) -> Result<(), String> {
    let path = host::out_dir()
        .map_err(|e| e.to_string())?
        .join(format!("{workload}.trace.json"));
    let text = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"host\": {},\n  \"metrics\": {{\n    {}\n  }},\n  \"spans\": {spans}\n}}\n",
        fp.to_json(),
        metric_entries(o).join(",\n    "),
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One run of one workload in this process.
fn run_one(workload: &str, args: &Args) -> Result<ExitCode, String> {
    host::pin_autotune().map_err(|e| format!("benchmark/out: {e}"))?;
    adapter::program_tracing_off();
    let fp = host::Fingerprint::take(args.seed);
    println!("host: {fp}");
    let spec = RunSpec {
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        trace: args.trace,
        write_golden: args.write_golden,
    };
    let mut outcome = workloads::run(workload, &spec)?;
    let expected: Vec<&'static str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        let rss = host::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?;
        outcome.metrics.set("peak_rss_mb", rss);
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let invalid = outcome.metrics.invalid(expected.into_iter());
    if !invalid.is_empty() {
        return Err(format!("no finite value for {}", invalid.join(", ")));
    }
    if let Some(spans) = &outcome.spans_json {
        write_trace(workload, &fp, &outcome, spans)?;
    }
    for (name, value, unit) in outcome.metrics.iter() {
        println!("{workload} {name} {value} {unit}");
    }
    println!(
        "{workload}: {} of {} checked operations failed",
        outcome.failed, outcome.attempted
    );
    println!("{}", result_json(&outcome));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Metric values of one set of runs, by (workload, metric).
type Set = BTreeMap<(String, String), f64>;

/// Runs every workload in a child process of its own, strictly one at a
/// time, echoing its output. Returns the metrics it printed and whether
/// every child succeeded.
fn run_set(args: &Args) -> Result<(Set, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = Set::new();
    let mut all_ok = true;
    for w in NAMES {
        let mut child = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let out = child.stdout.take().expect("stdout was piped");
        for line in BufReader::new(out).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.starts_with('{') {
                continue; // the machine-readable last line
            }
            println!("{line}");
            let words: Vec<&str> = line.split_whitespace().collect();
            if let [workload, metric, value, _unit] = words[..] {
                if let (true, Ok(v)) = (workload == w, value.parse::<f64>()) {
                    set.insert((workload.into(), metric.into()), v);
                }
            }
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            println!("{w}: FAILED ({status})");
            all_ok = false;
        }
    }
    Ok((set, all_ok))
}

/// Two full sets back to back; every (workload, end-to-end metric) pair
/// is printed with both values, how much worse the second is as a share
/// of the first, and the bound. No pair is skipped on any host.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    let (first, ok1) = run_set(args)?;
    let (second, ok2) = run_set(args)?;
    let mut within = true;
    println!("\nworkload metric first second worse_by bound");
    for w in NAMES {
        for m in END_TO_END {
            let key = (w.to_string(), m.name.to_string());
            let (Some(&a), Some(&b)) = (first.get(&key), second.get(&key)) else {
                println!("{w} {} MISSING", m.name);
                within = false;
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let mark = if worse_by.abs() > m.bound {
                "  BEYOND BOUND"
            } else {
                ""
            };
            within &= mark.is_empty();
            println!("{w} {} {a} {b} {worse_by:+.4} {}{mark}", m.name, m.bound);
        }
    }
    Ok(if ok1 && ok2 && within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| match args.command.as_str() {
        "run" => match &args.workload {
            Some(w) => run_one(w, &args),
            None => Err(format!("name a workload: {}", NAMES.join(", "))),
        },
        "all" => run_set(&args).map(|(_, ok)| {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }),
        "repeat" => repeat(&args),
        other => Err(format!(
            "unknown command {other}; there are: run, all, repeat"
        )),
    });
    result.unwrap_or_else(|e| {
        eprintln!("gwbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Metrics;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload ff_sigma --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.command.as_str(), a.workload.as_deref()),
            ("run", Some("ff_sigma"))
        );
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(!parse("--workload x --trace 0").unwrap().trace);
        assert!(parse("run serve_zipf --trace").unwrap().trace);
        assert_eq!(parse("all").unwrap().seed, DEFAULT_SEED);
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("run x --frobnicate").is_err());
    }

    #[test]
    fn the_last_line_has_exactly_the_contracts_keys() {
        let mut m = Metrics::end_to_end();
        m.set("solve_s", 1.25);
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: m,
            spans_json: None,
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
