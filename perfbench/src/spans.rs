//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, the span that
//! caused it and the run it belongs to. Spans stay in memory while the
//! benchmark runs and are written out once, at exit, so recording costs a
//! clock read and a `Vec` push per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Run id of spans that belong to no measured run (set-up, the report).
pub const NO_RUN: u64 = u64::MAX;

/// One closed or open span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `improve`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Measured-run index, or [`NO_RUN`].
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total self time per span name, in nanoseconds, each span's self
    /// time multiplied by `scale` of its run id.
    pub fn self_time_by_name(&self, scale: impl Fn(u64) -> f64) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *totals.entry(span.name).or_insert(0.0) += own as f64 * scale(span.run);
        }
        totals
    }

    /// The spans as JSON lines, one object per span, ids in recording order.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let run = if s.run == NO_RUN {
                "null".to_string()
            } else {
                s.run.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{run}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: only 40..50 is new coverage.
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(t.self_times_ns(), vec![50, 22, 20, 10, 8]);
        let by_name = t.self_time_by_name(|_| 1.0);
        assert_eq!(by_name["run"], 50.0);
        assert_eq!(by_name.values().sum::<f64>(), 110.0);
        t.spans[1].run = 1;
        let scaled = t.self_time_by_name(|run| if run == 1 { 0.5 } else { 1.0 });
        assert_eq!((scaled["a"], scaled["b"]), (11.0, 20.0));
    }

    #[test]
    fn spans_serialize_with_parent_and_run() {
        let mut t = Tracer::new();
        let root = t.open("run", None, 3);
        t.time("improve", Some(root), 3, || ());
        t.close(root);
        t.time("report", None, NO_RUN, || ());
        let lines = t.to_json_lines();
        let parsed: Vec<serde::Value> = lines
            .lines()
            .map(|l| serde::from_json_str(l).expect("valid JSON"))
            .collect();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(parsed[1].get("run").and_then(|v| v.as_u64()), Some(3));
        assert!(parsed[2].get("run").is_some_and(|v| v.is_null()));
    }
}
