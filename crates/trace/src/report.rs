//! Run reports: the serializable view of a span tree.
//!
//! A [`RunReport`] is a plain data snapshot (built by [`crate::report()`])
//! that can render a human-readable span tree and serialize to a
//! hand-rolled JSON encoding (`schema = "bgw-trace/1"`). Everything in
//! the JSON is an integer, a string, or a nested object/array — no
//! floats — so the golden-file tests can compare bytes. Field order is
//! fixed (declaration order here, counter declaration order in
//! `bgw-perf`), which is what makes the golden files stable. The program
//! only writes this format; nothing in it reads a report back.

use bgw_perf::counters::CounterSnapshot;

/// Schema tag stamped into every JSON report.
const SCHEMA: &str = "bgw-trace/1";

/// One aggregated span in the report tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name from the call site.
    pub name: String,
    /// Times this `(parent, site)` node was entered.
    pub calls: u64,
    /// Total wall nanoseconds, entry to exit, summed over calls.
    pub incl_ns: u64,
    /// Inclusive minus same-thread children: time spent in this span
    /// itself. Cross-thread (adopted) children are *not* subtracted —
    /// they overlap the parent's wall clock rather than consuming it.
    pub excl_ns: u64,
    /// FLOPs attributed directly to this span via [`crate::add_flops`].
    pub flops: u64,
    /// Substrate counter delta observed across the span (inclusive of
    /// children; accumulated over calls).
    pub counters: CounterSnapshot,
    /// Child spans, ordered by name.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Direct plus descendant FLOPs.
    pub fn inclusive_flops(&self) -> u64 {
        self.flops
            + self
                .children
                .iter()
                .map(|c| c.inclusive_flops())
                .sum::<u64>()
    }

    /// Achieved FLOP rate over inclusive wall time (0 when untimed).
    pub fn flop_rate(&self) -> f64 {
        if self.incl_ns == 0 {
            0.0
        } else {
            self.inclusive_flops() as f64 / (self.incl_ns as f64 * 1e-9)
        }
    }
}

/// A full span-tree snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Root spans, ordered by name.
    pub spans: Vec<SpanNode>,
}

impl RunReport {
    /// Wraps root spans into a report.
    pub fn new(spans: Vec<SpanNode>) -> Self {
        Self { spans }
    }

    /// Looks up a span by `/`-separated name path, e.g.
    /// `"workflow.sigma/sigma.diag"`.
    pub fn find(&self, path: &str) -> Option<&SpanNode> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut node = self.spans.iter().find(|s| s.name == first)?;
        for part in parts {
            node = node.children.iter().find(|c| c.name == part)?;
        }
        Some(node)
    }

    /// Renders the span tree with inclusive/exclusive times, call
    /// counts, and FLOP rates where FLOPs were attributed, then a footer
    /// naming each fallback the run took (nonzero ones only).
    pub fn render_tree(&self) -> String {
        let mut out = String::from("== span tree ==\n");
        if self.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
            return out;
        }
        for (i, root) in self.spans.iter().enumerate() {
            render_node(&mut out, root, "", i + 1 == self.spans.len(), 0);
        }
        let mut total = CounterSnapshot::default();
        for root in &self.spans {
            total.accumulate(&root.counters);
        }
        let fallbacks = [
            (
                "pool_inline_small",
                total.pool_inline_small,
                "parallel regions run inline: work under the pool's floor",
            ),
            (
                "pool_inline_busy",
                total.pool_inline_busy,
                "parallel regions run inline: pool busy with another thread's region",
            ),
        ];
        if fallbacks.iter().any(|&(_, n, _)| n > 0) {
            out.push_str("== fallbacks ==\n");
            for (name, n, what) in fallbacks {
                if n > 0 {
                    out.push_str(&format!("{name} = {n}  ({what})\n"));
                }
            }
        }
        out
    }

    /// Serializes to the `bgw-trace/1` JSON encoding (stable field
    /// order, integers only, 2-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"spans\": [");
        write_nodes(&mut out, &self.spans, 2);
        out.push_str("]\n}\n");
        out
    }

    /// Per-request report extraction: the increments accumulated between
    /// `self` (earlier) and `later` snapshots of the same process-global
    /// span registry.
    ///
    /// The registry only ever accumulates (node identity is `(parent,
    /// site)` and counters are monotonic), so two [`crate::report()`] calls
    /// bracketing a served request differ exactly by that request's
    /// spans. Nodes are matched by name path; nodes new in `later` are
    /// kept whole, nodes whose call count did not advance are dropped,
    /// and counter deltas saturate (never panic) so a bracketing pair
    /// raced by another thread degrades to under-reporting, surfaced via
    /// `delta_underflows`.
    pub fn delta(&self, later: &RunReport) -> RunReport {
        RunReport::new(delta_nodes(&self.spans, &later.spans))
    }

    /// Keeps only spans whose name passes `keep`, recursively; dropping a
    /// node drops its whole subtree. Used to pin the deterministic
    /// serving-layer skeleton of a per-request report while discarding
    /// scheduling-dependent substrate spans (pool workers, microkernels).
    pub fn pruned(&self, keep: &dyn Fn(&str) -> bool) -> RunReport {
        fn walk(nodes: &[SpanNode], keep: &dyn Fn(&str) -> bool) -> Vec<SpanNode> {
            nodes
                .iter()
                .filter(|n| keep(&n.name))
                .map(|n| SpanNode {
                    children: walk(&n.children, keep),
                    ..n.clone()
                })
                .collect()
        }
        RunReport::new(walk(&self.spans, keep))
    }

    /// Zeroes every wall-clock and substrate-counter field, keeping only
    /// the deterministic skeleton: span names, tree structure, call
    /// counts, and attributed FLOPs. Two runs of the same request on any
    /// host produce byte-identical scrubbed JSON, which is what the
    /// golden-file test pins.
    pub fn scrubbed(&self) -> RunReport {
        fn walk(nodes: &[SpanNode]) -> Vec<SpanNode> {
            nodes
                .iter()
                .map(|n| SpanNode {
                    name: n.name.clone(),
                    calls: n.calls,
                    incl_ns: 0,
                    excl_ns: 0,
                    flops: n.flops,
                    counters: CounterSnapshot::default(),
                    children: walk(&n.children),
                })
                .collect()
        }
        RunReport::new(walk(&self.spans))
    }
}

fn delta_nodes(earlier: &[SpanNode], later: &[SpanNode]) -> Vec<SpanNode> {
    let mut out = Vec::new();
    for node in later {
        match earlier.iter().find(|e| e.name == node.name) {
            None => out.push(node.clone()),
            Some(prev) => {
                let calls = node.calls.saturating_sub(prev.calls);
                let children = delta_nodes(&prev.children, &node.children);
                if calls == 0 && children.is_empty() {
                    continue;
                }
                let (counters, _) = prev.counters.delta_checked(&node.counters);
                out.push(SpanNode {
                    name: node.name.clone(),
                    calls,
                    incl_ns: node.incl_ns.saturating_sub(prev.incl_ns),
                    excl_ns: node.excl_ns.saturating_sub(prev.excl_ns),
                    flops: node.flops.saturating_sub(prev.flops),
                    counters,
                    children,
                });
            }
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 * 1e-9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

fn render_node(out: &mut String, node: &SpanNode, prefix: &str, last: bool, depth: usize) {
    let (branch, cont) = if depth == 0 {
        ("", "")
    } else if last {
        ("`- ", "   ")
    } else {
        ("|- ", "|  ")
    };
    out.push_str(prefix);
    out.push_str(branch);
    out.push_str(&format!(
        "{}  calls={} incl={} excl={}",
        node.name,
        node.calls,
        fmt_ns(node.incl_ns),
        fmt_ns(node.excl_ns)
    ));
    let flops = node.inclusive_flops();
    if flops > 0 {
        out.push_str(&format!(
            " flops={:.3e} rate={:.2} GF/s",
            flops as f64,
            node.flop_rate() / 1e9
        ));
    }
    if node.counters.delta_underflows > 0 {
        out.push_str(&format!(" UNDERFLOWS={}", node.counters.delta_underflows));
    }
    out.push('\n');
    let child_prefix = format!("{prefix}{cont}");
    for (i, child) in node.children.iter().enumerate() {
        render_node(
            out,
            child,
            &child_prefix,
            i + 1 == node.children.len(),
            depth + 1,
        );
    }
}

fn write_nodes(out: &mut String, nodes: &[SpanNode], indent: usize) {
    if nodes.is_empty() {
        return;
    }
    let pad = "  ".repeat(indent);
    for (i, node) in nodes.iter().enumerate() {
        out.push('\n');
        out.push_str(&pad);
        out.push_str("{\n");
        let field_pad = "  ".repeat(indent + 1);
        out.push_str(&format!("{field_pad}\"name\": {},\n", quote(&node.name)));
        out.push_str(&format!("{field_pad}\"calls\": {},\n", node.calls));
        out.push_str(&format!("{field_pad}\"incl_ns\": {},\n", node.incl_ns));
        out.push_str(&format!("{field_pad}\"excl_ns\": {},\n", node.excl_ns));
        out.push_str(&format!("{field_pad}\"flops\": {},\n", node.flops));
        out.push_str(&format!("{field_pad}\"counters\": {{"));
        let mut first = true;
        node.counters.for_each_field(|name, value| {
            if value != 0 {
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\": {value}"));
                first = false;
            }
        });
        out.push_str("},\n");
        out.push_str(&format!("{field_pad}\"children\": ["));
        write_nodes(out, &node.children, indent + 2);
        if !node.children.is_empty() {
            out.push_str(&field_pad);
        }
        out.push_str("]\n");
        out.push_str(&pad);
        out.push('}');
        if i + 1 != nodes.len() {
            out.push(',');
        }
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent - 1));
}

/// Quotes a string as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let leaf = SpanNode {
            name: "gemm.compute".into(),
            calls: 4,
            incl_ns: 900,
            excl_ns: 900,
            flops: 4096,
            counters: CounterSnapshot {
                gemm_compute_ns: 880,
                ..Default::default()
            },
            children: vec![],
        };
        let mid = SpanNode {
            name: "sigma.offdiag".into(),
            calls: 1,
            incl_ns: 1500,
            excl_ns: 600,
            flops: 0,
            counters: CounterSnapshot {
                gemm_calls: 4,
                gemm_compute_ns: 880,
                ..Default::default()
            },
            children: vec![leaf],
        };
        RunReport::new(vec![SpanNode {
            name: "workflow.sigma".into(),
            calls: 1,
            incl_ns: 2000,
            excl_ns: 500,
            flops: 128,
            counters: CounterSnapshot {
                gemm_calls: 4,
                gemm_compute_ns: 880,
                ..Default::default()
            },
            children: vec![mid],
        }])
    }

    #[test]
    fn find_descends_paths() {
        let rep = sample_report();
        assert_eq!(rep.find("workflow.sigma").unwrap().calls, 1);
        assert_eq!(
            rep.find("workflow.sigma/sigma.offdiag/gemm.compute")
                .unwrap()
                .flops,
            4096
        );
        assert!(rep.find("workflow.sigma/nope").is_none());
        assert!(rep.find("nope").is_none());
    }

    #[test]
    fn inclusive_flops_and_rate() {
        let rep = sample_report();
        let root = rep.find("workflow.sigma").unwrap();
        assert_eq!(root.inclusive_flops(), 128 + 4096);
        assert!(root.flop_rate() > 0.0);
        assert_eq!(SpanNode::default().flop_rate(), 0.0);
    }

    #[test]
    fn tree_render_shows_structure() {
        let rep = sample_report();
        let s = rep.render_tree();
        assert!(s.contains("workflow.sigma"));
        assert!(s.contains("`- sigma.offdiag"));
        assert!(s.contains("   `- gemm.compute"));
        assert!(s.contains("calls=4"));
        assert!(!s.contains("fallbacks"), "no fallback taken, no footer");
        let empty = RunReport::default().render_tree();
        assert!(empty.contains("no spans"));
    }

    #[test]
    fn footer_names_nonzero_inline_reasons() {
        let mut rep = sample_report();
        rep.spans[0].counters.pool_inline_small = 12;
        let s = rep.render_tree();
        assert!(s.contains("== fallbacks ==\npool_inline_small = 12  ("));
        assert!(!s.contains("pool_inline_busy"), "zero counters stay out");
        rep.spans[0].counters.pool_inline_busy = 3;
        assert!(rep.render_tree().contains("\npool_inline_busy = 3  ("));
    }

    #[test]
    fn quote_escapes_quotes_backslashes_and_controls() {
        assert_eq!(quote("ab"), "\"ab\"");
        assert_eq!(quote("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(quote("x\n\t\r\u{1}"), r#""x\n\t\r\u0001""#);
        // Multibyte text passes through unescaped.
        assert_eq!(quote("αβγ"), "\"αβγ\"");
    }

    #[test]
    fn delta_extracts_per_request_increments() {
        let before = sample_report();
        // "Later" snapshot: same tree with one more request's worth of
        // work folded in, plus a brand-new root span.
        let mut after = before.clone();
        {
            let root = &mut after.spans[0];
            root.calls += 1;
            root.incl_ns += 300;
            root.excl_ns += 100;
            root.counters.gemm_calls += 2;
            let mid = &mut root.children[0];
            mid.calls += 1;
            mid.incl_ns += 200;
            mid.counters.gemm_calls += 2;
        }
        after.spans.push(SpanNode {
            name: "serve.store".into(),
            calls: 1,
            incl_ns: 50,
            excl_ns: 50,
            ..Default::default()
        });
        let d = before.delta(&after);
        let root = d.find("workflow.sigma").expect("advanced root kept");
        assert_eq!(root.calls, 1);
        assert_eq!(root.incl_ns, 300);
        assert_eq!(root.excl_ns, 100);
        assert_eq!(root.counters.gemm_calls, 2);
        assert_eq!(root.counters.delta_underflows, 0);
        let mid = d.find("workflow.sigma/sigma.offdiag").expect("child kept");
        assert_eq!(mid.calls, 1);
        assert_eq!(mid.incl_ns, 200);
        // The leaf did not advance: dropped from the delta.
        assert!(d
            .find("workflow.sigma/sigma.offdiag/gemm.compute")
            .is_none());
        // New-in-later root kept whole.
        assert_eq!(d.find("serve.store").unwrap().incl_ns, 50);
        // No change at all → empty delta.
        assert!(before.delta(&before).spans.is_empty());
    }

    #[test]
    fn pruned_and_scrubbed_pin_deterministic_skeleton() {
        let rep = sample_report();
        let kept = rep.pruned(&|name: &str| name != "sigma.offdiag");
        assert!(kept.find("workflow.sigma").is_some());
        // Dropping a node drops its subtree.
        assert!(kept.find("workflow.sigma/sigma.offdiag").is_none());

        let s = rep.scrubbed();
        let root = s.find("workflow.sigma").unwrap();
        assert_eq!(root.calls, 1);
        assert_eq!(root.flops, 128);
        assert_eq!(root.incl_ns, 0);
        assert_eq!(root.excl_ns, 0);
        assert_eq!(root.counters, CounterSnapshot::default());
        let leaf = s.find("workflow.sigma/sigma.offdiag/gemm.compute").unwrap();
        assert_eq!(leaf.calls, 4);
        assert_eq!(leaf.flops, 4096);
        // Scrubbing is idempotent and serialization stays byte-stable.
        assert_eq!(s.scrubbed().to_json(), s.to_json());
    }
}
