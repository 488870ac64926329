//! Execution traces: event log and Gantt segments.
//!
//! The dispatcher's monitoring duties (Section 3.2.1 of the paper) and the
//! figure reproductions both need a faithful record of *what happened when*.
//! [`Trace`] collects timestamped [`TraceEvent`]s plus CPU-occupancy
//! [`Gantt`] segments, and can render a compact textual timeline — used to
//! regenerate Figure 2 (the EDF scheduler/dispatcher cooperation diagram).

use crate::net::NodeId;
use hades_time::{Duration, Time};
use std::fmt::Write as _;

/// Classification of a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A thread became runnable.
    Runnable,
    /// A thread started or resumed running on the CPU.
    Run,
    /// A thread was preempted.
    Preempt,
    /// A thread finished.
    Finish,
    /// A notification was pushed to a scheduler FIFO (`Atv`, `Trm`, ...).
    Notify,
    /// A scheduler changed a thread's priority or earliest start time.
    AttrChange,
    /// A monitoring alarm (deadline miss, deadlock, ...).
    Alarm,
    /// A message was sent on the network.
    MsgSend,
    /// A message was delivered.
    MsgRecv,
    /// A message was lost.
    MsgDrop,
    /// Anything else.
    Other(String),
}

/// One timestamped occurrence in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the occurrence.
    pub at: Time,
    /// Node on which it occurred.
    pub node: NodeId,
    /// Classification.
    pub kind: TraceKind,
    /// Free-form detail (thread name, notification type, ...).
    pub detail: String,
}

/// A CPU-occupancy segment: `lane` (thread name) ran on `node` during
/// `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gantt {
    /// Node whose CPU the segment occupies.
    pub node: NodeId,
    /// Lane label, typically the thread name.
    pub lane: String,
    /// Segment start (inclusive).
    pub start: Time,
    /// Segment end (exclusive).
    pub end: Time,
}

impl Gantt {
    /// Length of the segment.
    pub fn len(&self) -> Duration {
        self.end - self.start
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Recorder accumulating events and segments during a run.
///
/// # Examples
///
/// ```
/// use hades_sim::{NodeId, Trace, TraceKind};
/// use hades_time::Time;
///
/// let mut tr = Trace::new();
/// tr.record(Time::ZERO, NodeId(0), TraceKind::Run, "t1");
/// assert_eq!(tr.events().len(), 1);
/// assert_eq!(tr.of_kind(&TraceKind::Run).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    segments: Vec<Gantt>,
    enabled: bool,
}

impl Trace {
    /// Creates an enabled, empty trace.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            segments: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled trace: all recording calls are no-ops. Use in
    /// large benchmark runs to avoid measurement distortion.
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            segments: Vec::new(),
            enabled: false,
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event.
    pub fn record(&mut self, at: Time, node: NodeId, kind: TraceKind, detail: impl Into<String>) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                node,
                kind,
                detail: detail.into(),
            });
        }
    }

    /// Records one event whose detail has to be built: `detail` runs only
    /// when recording is enabled, so a disabled trace costs no formatting.
    pub fn record_with(
        &mut self,
        at: Time,
        node: NodeId,
        kind: TraceKind,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.record(at, node, kind, detail());
        }
    }

    /// Records one CPU-occupancy segment.
    pub fn segment(&mut self, node: NodeId, lane: impl Into<String>, start: Time, end: Time) {
        if self.enabled && end > start {
            self.segments.push(Gantt {
                node,
                lane: lane.into(),
                start,
                end,
            });
        }
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All recorded segments.
    pub fn segments(&self) -> &[Gantt] {
        &self.segments
    }

    /// Events of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a TraceKind) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.kind == *kind)
    }

    /// Events whose detail contains `needle`.
    pub fn matching<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.detail.contains(needle))
    }

    /// Total CPU time recorded for `lane` on `node`.
    pub fn cpu_time(&self, node: NodeId, lane: &str) -> Duration {
        self.segments
            .iter()
            .filter(|s| s.node == node && s.lane == lane)
            .map(|s| s.len())
            .sum()
    }

    /// Renders the event log as an aligned text table (one line per event).
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{:>12} {:<4} {:<10} {}",
                e.at.as_nanos(),
                e.node.to_string(),
                kind_label(&e.kind),
                e.detail
            );
        }
        out
    }

    /// Renders an ASCII Gantt chart for one node, one row per lane, with
    /// `cell` virtual time per character. Used to regenerate Figure 2.
    pub fn render_gantt(&self, node: NodeId, cell: Duration) -> String {
        assert!(!cell.is_zero(), "cell width must be positive");
        let segs: Vec<&Gantt> = self.segments.iter().filter(|s| s.node == node).collect();
        if segs.is_empty() {
            return String::from("(no segments)\n");
        }
        let mut lanes: Vec<String> = Vec::new();
        for s in &segs {
            if !lanes.contains(&s.lane) {
                lanes.push(s.lane.clone());
            }
        }
        let end = segs.iter().map(|s| s.end).fold(Time::ZERO, Time::max);
        let width = (end.as_nanos()).div_ceil(cell.as_nanos()) as usize;
        let label_w = lanes.iter().map(|l| l.len()).max().unwrap_or(4).max(4);
        let mut out = String::new();
        for lane in &lanes {
            let mut row = vec![b'.'; width];
            for s in segs.iter().filter(|s| s.lane == *lane) {
                let a = (s.start.as_nanos() / cell.as_nanos()) as usize;
                let b = (s.end.as_nanos()).div_ceil(cell.as_nanos()) as usize;
                for c in row.iter_mut().take(b.min(width)).skip(a) {
                    *c = b'#';
                }
            }
            let _ = writeln!(
                out,
                "{:<label_w$} |{}|",
                lane,
                String::from_utf8(row).expect("ascii row"),
            );
        }
        out
    }
}

fn kind_label(kind: &TraceKind) -> &str {
    match kind {
        TraceKind::Runnable => "RUNNABLE",
        TraceKind::Run => "RUN",
        TraceKind::Preempt => "PREEMPT",
        TraceKind::Finish => "FINISH",
        TraceKind::Notify => "NOTIFY",
        TraceKind::AttrChange => "ATTR",
        TraceKind::Alarm => "ALARM",
        TraceKind::MsgSend => "SEND",
        TraceKind::MsgRecv => "RECV",
        TraceKind::MsgDrop => "DROP",
        TraceKind::Other(s) => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: NodeId = NodeId(0);

    #[test]
    fn records_events_in_order() {
        let mut tr = Trace::new();
        tr.record(Time::from_nanos(1), N, TraceKind::Run, "a");
        tr.record(Time::from_nanos(2), N, TraceKind::Finish, "a");
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.events()[0].detail, "a");
        assert_eq!(tr.of_kind(&TraceKind::Run).count(), 1);
        assert_eq!(tr.matching("a").count(), 2);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        assert!(!tr.is_enabled());
        tr.record(Time::ZERO, N, TraceKind::Run, "x");
        tr.segment(N, "x", Time::ZERO, Time::from_nanos(5));
        assert!(tr.events().is_empty());
        assert!(tr.segments().is_empty());
    }

    #[test]
    fn cpu_time_sums_lane_segments() {
        let mut tr = Trace::new();
        tr.segment(N, "t1", Time::from_nanos(0), Time::from_nanos(10));
        tr.segment(N, "t1", Time::from_nanos(20), Time::from_nanos(25));
        tr.segment(N, "t2", Time::from_nanos(10), Time::from_nanos(20));
        assert_eq!(tr.cpu_time(N, "t1"), Duration::from_nanos(15));
        assert_eq!(tr.cpu_time(N, "t2"), Duration::from_nanos(10));
        assert_eq!(tr.cpu_time(NodeId(9), "t1"), Duration::ZERO);
    }

    #[test]
    fn empty_segments_are_dropped() {
        let mut tr = Trace::new();
        tr.segment(N, "t", Time::from_nanos(5), Time::from_nanos(5));
        assert!(tr.segments().is_empty());
    }

    #[test]
    fn gantt_render_shows_occupancy() {
        let mut tr = Trace::new();
        tr.segment(N, "t1", Time::from_nanos(0), Time::from_nanos(4));
        tr.segment(N, "t2", Time::from_nanos(4), Time::from_nanos(8));
        let s = tr.render_gantt(N, Duration::from_nanos(1));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("####...."), "got {:?}", lines[0]);
        assert!(lines[1].contains("....####"), "got {:?}", lines[1]);
    }

    #[test]
    fn gantt_render_empty_node() {
        let tr = Trace::new();
        assert_eq!(
            tr.render_gantt(N, Duration::from_nanos(1)),
            "(no segments)\n"
        );
    }

    #[test]
    fn log_render_contains_fields() {
        let mut tr = Trace::new();
        tr.record(Time::from_nanos(42), N, TraceKind::Notify, "Atv t2");
        let log = tr.render_log();
        assert!(log.contains("42"));
        assert!(log.contains("NOTIFY"));
        assert!(log.contains("Atv t2"));
    }

    #[test]
    fn gantt_len_and_empty() {
        let g = Gantt {
            node: N,
            lane: "x".into(),
            start: Time::from_nanos(3),
            end: Time::from_nanos(9),
        };
        assert_eq!(g.len(), Duration::from_nanos(6));
        assert!(!g.is_empty());
    }
}
