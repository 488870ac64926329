//! The harness's own span recorder.
//!
//! Spans are recorded from the benchmark's side of the library
//! boundary — around `build_spec`, `validate` and `run` — kept in
//! memory, and written out once as JSONL when the invocation ends.
//! Below `run` the library is a black box to an outside caller; what it
//! already exports (`engine.wall_ns`, `Profiler::wall_totals()`) is
//! attached as derived child records so self times can be read off one
//! file.

use hades_telemetry::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was running.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// An in-memory span log; disabled recorders ignore every call, so
/// untraced repetitions share the traced code path without paying for
/// it.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records.
    pub fn enabled() -> Self {
        Spans {
            origin: Instant::now(),
            enabled: true,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that ignores everything.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of the span open at
    /// the call.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The log as JSONL: one `span` record per span, then one `derived`
    /// record per `(name, ns)` the library exported below the `run`
    /// spans of the `repetition`-th root span, then one `count` record
    /// per deterministic count.
    pub fn to_jsonl(
        &self,
        workload: &str,
        repetition: usize,
        derived: &[(&str, u64)],
        counts: &[(&str, u64)],
    ) -> String {
        let mut out = String::new();
        let workload = escape(workload);
        let roots = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none());
        let parent = roots
            .map(|(id, _)| id.to_string())
            .nth(repetition)
            .unwrap_or_else(|| "null".into());
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"record\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":{},\
                 \"workload\":{workload},\"start_ns\":{},\"end_ns\":{}}}",
                escape(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        for (name, ns) in derived {
            let _ = writeln!(
                out,
                "{{\"record\":\"derived\",\"parent\":{parent},\"name\":{},\
                 \"workload\":{workload},\"total_ns\":{ns}}}",
                escape(name)
            );
        }
        for (name, value) in counts {
            let _ = writeln!(
                out,
                "{{\"record\":\"count\",\"name\":{},\"workload\":{workload},\"value\":{value}}}",
                escape(name)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_telemetry::json::Json;

    #[test]
    fn nesting_sets_parents_and_children_fit_inside() {
        let mut spans = Spans::enabled();
        spans.scope("repetition", |s| {
            s.scope("build_spec", |_| ());
            s.scope("run", |_| ());
        });
        let v = spans.spans();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].parent, None);
        assert_eq!((v[1].parent, v[2].parent), (Some(0), Some(0)));
        assert!(v[0].start_ns <= v[1].start_ns && v[2].end_ns <= v[0].end_ns);
        assert_eq!(
            spans.total_ns("build_spec") + spans.total_ns("run"),
            (v[1].end_ns - v[1].start_ns) + (v[2].end_ns - v[2].start_ns)
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::disabled();
        assert_eq!(spans.scope("run", |_| 7), 7);
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_parse() {
        let mut spans = Spans::enabled();
        spans.scope("run", |_| ());
        let doc = spans.to_jsonl("w", 0, &[("engine_loop", 5)], &[("trace.events", 9)]);
        assert_eq!(doc.lines().count(), 3);
        assert!(doc.contains("\"record\":\"derived\",\"parent\":0,"));
        for line in doc.lines() {
            let v = Json::parse(line).expect("valid JSON line");
            assert_eq!(v.get("workload").and_then(Json::as_str), Some("w"));
        }
    }
}
