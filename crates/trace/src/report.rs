//! Run reports: the serializable view of a span tree.
//!
//! A [`RunReport`] is a plain data snapshot (built by [`crate::report()`])
//! that can render a human-readable span tree and round-trip through a
//! hand-rolled JSON encoding (`schema = "bgw-trace/1"`). Everything in
//! the JSON is an integer, a string, or a nested object/array — no
//! floats — so emit/parse round-trips are exact and the golden-file test
//! can compare bytes. Field order is fixed (declaration order here,
//! counter declaration order in `bgw-perf`), which is what makes the
//! golden file stable.

use bgw_perf::counters::CounterSnapshot;

/// Schema tag stamped into every JSON report.
pub const SCHEMA: &str = "bgw-trace/1";

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

    /// Parses the `bgw-trace/1` JSON encoding back into a report.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("report: expected object")?;
        let schema = json::get(obj, "schema")
            .and_then(|v| v.as_str())
            .ok_or("report: missing schema")?;
        if schema != SCHEMA {
            return Err(format!("report: unknown schema {schema:?}"));
        }
        let spans = json::get(obj, "spans")
            .and_then(|v| v.as_array())
            .ok_or("report: missing spans array")?;
        let spans = spans.iter().map(node_from_json).collect::<Result<_, _>>()?;
        Ok(Self { spans })
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
        out.push_str(&format!(
            "{field_pad}\"name\": {},\n",
            json::quote(&node.name)
        ));
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

fn node_from_json(value: &json::Value) -> Result<SpanNode, String> {
    let obj = value.as_object().ok_or("span: expected object")?;
    let name = json::get(obj, "name")
        .and_then(|v| v.as_str())
        .ok_or("span: missing name")?
        .to_string();
    let int = |key: &str| -> Result<u64, String> {
        match json::get(obj, key) {
            Some(v) => v.as_u64().ok_or_else(|| format!("span {name}: bad {key}")),
            None => Ok(0),
        }
    };
    let mut counters = CounterSnapshot::default();
    if let Some(c) = json::get(obj, "counters").and_then(|v| v.as_object()) {
        for (k, v) in c {
            let v = v.as_u64().ok_or_else(|| format!("counter {k}: not int"))?;
            if !counters.set_field(k, v) {
                return Err(format!("counter {k}: unknown field"));
            }
        }
    }
    let children = match json::get(obj, "children").and_then(|v| v.as_array()) {
        Some(arr) => arr.iter().map(node_from_json).collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let calls = int("calls")?;
    let incl_ns = int("incl_ns")?;
    let excl_ns = int("excl_ns")?;
    let flops = int("flops")?;
    Ok(SpanNode {
        name,
        calls,
        incl_ns,
        excl_ns,
        flops,
        counters,
        children,
    })
}

/// Minimal JSON support: enough to round-trip `bgw-trace/1` reports
/// without external crates. Integers only (no floats), `\u` escapes
/// accepted on input, key order preserved.
pub mod json {
    /// A parsed JSON value (no floats — the report schema is integral).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true`/`false`.
        Bool(bool),
        /// Non-negative integer (report values are counters/ns).
        Int(u64),
        /// String.
        Str(String),
        /// Array.
        Array(Vec<Value>),
        /// Object with key order preserved.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// String payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Integer payload, if this is an integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }

        /// Array payload, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        /// Object payload, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }
    }

    /// First value for `key` in an object slice.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Quotes a string as a JSON string literal.
    pub fn quote(s: &str) -> String {
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

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parses a JSON document (single value, trailing whitespace only).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                b'0'..=b'9' => self.integer(),
                c => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            }
        }

        fn integer(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<u64>()
                .map(Value::Int)
                .map_err(|e| format!("bad integer {text:?}: {e}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                        self.pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                                self.pos += 4;
                                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            }
                            _ => return Err(format!("bad escape \\{}", e as char)),
                        }
                    }
                    _ => {
                        // Re-attach multibyte UTF-8 sequences whole.
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                            end += 1;
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid utf-8 in string")?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    c => return Err(format!("expected , or ] got {:?}", c as char)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut items = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Object(items));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                items.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Object(items));
                    }
                    c => return Err(format!("expected , or }} got {:?}", c as char)),
                }
            }
        }
    }
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
    fn json_roundtrip_is_exact() {
        let rep = sample_report();
        let text = rep.to_json();
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(rep, back);
        // Serialization is deterministic.
        assert_eq!(text, back.to_json());
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
        // Both survive the JSON round trip like every other counter.
        let back = RunReport::from_json(&rep.to_json()).expect("parse");
        assert_eq!(back.spans[0].counters.pool_inline_busy, 3);
        assert_eq!(back.spans[0].counters.pool_inline_small, 12);
    }

    #[test]
    fn parser_handles_escapes_and_rejects_junk() {
        use json::{parse, Value};
        let v = parse(r#"{"a": "x\n\"Aé", "b": [1, 2], "c": true, "d": null}"#).expect("parse");
        let obj = v.as_object().unwrap();
        assert_eq!(
            json::get(obj, "a").unwrap().as_str().unwrap(),
            "x\n\"A\u{e9}"
        );
        assert_eq!(json::get(obj, "b").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(json::get(obj, "c").unwrap(), &Value::Bool(true));
        assert_eq!(json::get(obj, "d").unwrap(), &Value::Null);
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        // Round-trip a multibyte name through quote + parse.
        let q = json::quote("αβ\tγ");
        let parsed = parse(&q).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "αβ\tγ");
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

    #[test]
    fn from_json_rejects_wrong_schema_and_bad_counters() {
        assert!(RunReport::from_json(r#"{"schema": "other/9", "spans": []}"#).is_err());
        let bad_counter = r#"{"schema": "bgw-trace/1", "spans": [
            {"name": "x", "calls": 1, "incl_ns": 1, "excl_ns": 1, "flops": 0,
             "counters": {"bogus_field": 3}, "children": []}
        ]}"#;
        assert!(RunReport::from_json(bad_counter).is_err());
    }
}
