//! The metric names, units, directions and bounds, once. `BENCHMARK.json`
//! at the repository root lists the same names; a test below holds the
//! two together.

use std::collections::BTreeMap;
use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_1t_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p50_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p95_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
];

/// Per-layer metrics `(name, unit, better)`: every workload's traced run
/// reports every one of them, zero where the workload does not touch
/// the layer. They carry no bound.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("pwdft.solve_bands_s", "s", Lower),
    ("core.mtxel.plan_s", "s", Lower),
    ("core.chi.static_s", "s", Lower),
    ("core.chi.freqs_s", "s", Lower),
    ("core.chi.mtxel_share", "ratio", Lower),
    ("core.subspace.diag_s", "s", Lower),
    ("core.epsilon.build_s", "s", Lower),
    ("core.epsilon.n_inversions", "count", Lower),
    ("core.gpp.model_s", "s", Lower),
    ("core.sigma.context_s", "s", Lower),
    ("core.sigma.gpp_diag_s", "s", Lower),
    ("core.sigma.gpp_diag_gflops", "GFLOP/s", Higher),
    ("core.sigma.ff_s", "s", Lower),
    ("core.sigma.ff_gflops", "GFLOP/s", Higher),
    ("core.sigma.imagaxis_s", "s", Lower),
    ("core.dyson.solve_s", "s", Lower),
    ("core.spacetime.setup_s", "s", Lower),
    ("core.spacetime.chi_s", "s", Lower),
    ("core.spacetime.green_s", "s", Lower),
    ("core.spacetime.fft_s", "s", Lower),
    ("core.spacetime.transform_s", "s", Lower),
    ("core.spacetime.fit_residual", "ratio", Lower),
    ("core.spacetime.chi_rel_err", "ratio", Lower),
    ("core.dagflow.solve_s", "s", Lower),
    ("core.dagflow.steals", "count", Lower),
    ("core.dagflow.over_barrier", "ratio", Lower),
    ("core.service.build_screening_s", "s", Lower),
    ("core.service.restore_s", "s", Lower),
    ("core.service.gpp_eval_s", "s", Lower),
    ("io.ckpt_write_s", "s", Lower),
    ("io.ckpt_read_s", "s", Lower),
    ("io.ckpt_bytes", "bytes", Lower),
    ("fft.grids", "count", Lower),
    ("fft.lines", "count", Lower),
    ("fft.busy_s", "s", Lower),
    ("linalg.gemm_calls", "count", Lower),
    ("linalg.gemm_pack_s", "s", Lower),
    ("linalg.gemm_compute_s", "s", Lower),
    ("linalg.gemm_pack_frac", "ratio", Lower),
    ("par.dispatches", "count", Lower),
    ("par.dispatch_s", "s", Lower),
    ("par.region_s", "s", Lower),
    ("par.inline_runs", "count", Lower),
    ("par.thread_speedup", "ratio", Higher),
    ("serve.queue_wait_p50_s", "s", Lower),
    ("serve.queue_wait_p95_s", "s", Lower),
    ("serve.compute_p50_s", "s", Lower),
    ("serve.batch_size_mean", "count", Higher),
    ("serve.mem_hit_ratio", "ratio", Higher),
    ("serve.disk_hit_ratio", "ratio", Higher),
    ("serve.miss_ratio", "ratio", Lower),
    ("serve.coalesced_ratio", "ratio", Higher),
    ("serve.mem_evictions", "count", Lower),
    ("serve.req_p99_s", "s", Lower),
    ("serve.store.bytes_final", "bytes", Lower),
    ("serve.store.gc_removed", "count", Lower),
    ("serve.store.invalid", "count", Lower),
    ("attribution.stage_sum_over_wall", "ratio", Higher),
    ("harness.trace_overhead_frac", "ratio", Lower),
];

/// Metric values of one run, by name, with their units.
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// An empty set for the end-to-end run: every name must be `set`.
    pub fn end_to_end() -> Self {
        Self {
            values: BTreeMap::new(),
        }
    }

    /// The per-layer set, every metric present and zero until `set`.
    pub fn per_layer() -> Self {
        Self {
            values: PER_LAYER.iter().map(|&(n, u, _)| (n, (0.0, u))).collect(),
        }
    }

    /// Sets a metric. The name must be one of the tables' names.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither table"));
        self.values.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values.iter().map(|(&n, &(v, u))| (n, v, u))
    }

    /// Names whose value is missing or not a finite number.
    pub fn invalid(&self, expected: impl Iterator<Item = &'static str>) -> Vec<&'static str> {
        expected
            .filter(|n| !self.get(n).is_some_and(f64::is_finite))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written one metric to a line, so plain text
    /// matching is enough to hold it to the tables above.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for (name, unit, better) in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        let listed = text.matches("{\"name\": ").count();
        let workloads = crate::workloads::NAMES.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
