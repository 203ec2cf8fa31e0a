//! The harness's own span recorder: one span per call into a layer's
//! public function, kept in memory and written out when the run ends.
//! The spans inside the program (`bgw-trace`) stay off; these are timed
//! from outside. Plain std.

use crate::adapter::Counters;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one operation (one solve, one request) share a run id.
    pub run: u32,
    /// Program counter deltas between the span's two boundaries.
    pub counters: Counters,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans when on; when off, `span` only calls the closure, so
/// one staged driver serves the untraced and the traced run.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Recorder {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts the next operation: later spans carry a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name`; nested calls on the
    /// recorder handed to `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let before = Counters::snapshot();
        self.spans.push(Span {
            name,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
            counters: Counters::default(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
        self.spans[idx].counters = before.delta_to(&Counters::snapshot());
        out
    }

    /// Seconds since the recorder was created, for [`Recorder::push`].
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Records a span that overlaps others (a request in flight next to
    /// its wave), timed by the caller with [`Recorder::now`].
    pub fn push(&mut self, name: &'static str, start_s: f64, end_s: f64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_s,
                end_s,
                parent: self.open.last().copied(),
                run: self.run,
                counters: Counters::default(),
            });
        }
    }

    /// A span's duration minus the part its direct children cover.
    /// Children may overlap each other (requests of one wave), so the
    /// covered part is the union of their intervals.
    pub fn self_seconds(&self, idx: usize) -> f64 {
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_s, s.end_s))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        self.spans[idx].seconds() - covered
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The span list as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_s\": {:.9}, \"end_s\": {:.9}, \"self_s\": {:.9}, \"counters\": {}}}",
                s.name,
                s.run,
                s.start_s,
                s.end_s,
                self.self_seconds(i),
                s.counters.to_json(),
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut rec = Recorder::on();
        rec.next_run();
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.span("inner", |_| ());
        });
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.run == 1));
        let inner: f64 = rec.durations("inner").iter().sum();
        assert!((rec.self_seconds(0) - (s[0].seconds() - inner)).abs() < 1e-12);
        assert!(rec.self_seconds(0) >= 0.0 && inner >= 0.005);
        assert!(rec.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let mut rec = Recorder::on();
        rec.span("replay", |rec| {
            // two requests in flight together, then a gap, then a third
            rec.push("request", 1.0, 3.0);
            rec.push("request", 2.0, 4.0);
            rec.push("request", 6.0, 7.0);
        });
        let covered = rec.spans()[0].seconds() - rec.self_seconds(0);
        assert!((covered - 4.0).abs() < 1e-12, "covered {covered}");
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("x", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
