//! Protocol trace spans: causally-linked, engine-time trees describing
//! one protocol flow each (a rejoin, a failover, a view agreement, one
//! Δ-multicast request).
//!
//! A span is minted at the flow's triggering event (a crash, a JOIN, a
//! client submission) and identified by a [`SpanId`]; the id corresponds
//! to the correlation key the protocol already carries on its messages
//! (the joiner's epoch, the request id), which is what makes the causal
//! link exact rather than heuristic. Child spans point at their parent,
//! and each span carries a list of named engine-time [`Phase`]s
//! decomposing its interval (announce → transfer → replay → readmit for
//! a rejoin, detect → agree for a view change, and so on).
//!
//! [`SpanLog::to_jsonl`] serialises one span per line next to the
//! `ClusterEvent` stream; [`SpanLog::render_tree`] renders the trees
//! human-readably. Both are byte-stable across same-seed runs.

use std::fmt::Write as _;

use hades_time::Time;

use crate::json;

/// Identifier of one span inside a [`SpanLog`]; ids are minted
/// sequentially in deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

/// One named sub-interval of a span (e.g. the `transfer` phase of a
/// rejoin span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (`announce`, `transfer`, `replay`, `readmit`, …).
    pub name: String,
    /// Engine time the phase began.
    pub start: Time,
    /// Engine time the phase ended.
    pub end: Time,
}

/// One protocol trace span: a kind, a label, an optional node, an
/// engine-time interval, an optional parent, and its phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Parent span, if this is a child (e.g. the `detect` child of a
    /// failover span).
    pub parent: Option<SpanId>,
    /// Flow kind: `rejoin`, `failover`, `view`, `request`, ….
    pub kind: String,
    /// Human-readable label (who/what this flow concerns).
    pub label: String,
    /// Node the flow centres on, when there is one.
    pub node: Option<u32>,
    /// Engine time the flow was triggered.
    pub start: Time,
    /// Engine time the flow completed.
    pub end: Time,
    /// Engine-time phase decomposition of the interval.
    pub phases: Vec<Phase>,
}

impl Span {
    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"span\":{},\"parent\":", self.id.0);
        match self.parent {
            Some(p) => {
                let _ = write!(out, "{}", p.0);
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"kind\":{},\"label\":{},\"node\":",
            json::escape(&self.kind),
            json::escape(&self.label)
        );
        match self.node {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"start_ns\":{},\"end_ns\":{},\"phases\":[",
            self.start.as_nanos(),
            self.end.as_nanos()
        );
        for (i, ph) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json::escape(&ph.name),
                ph.start.as_nanos(),
                ph.end.as_nanos()
            );
        }
        out.push_str("]}");
        out
    }
}

/// An append-only log of protocol trace spans, forming one tree per
/// root span.
///
/// For long population runs the log can be bounded with
/// [`SpanLog::with_cap`]: whenever the span count exceeds the cap, the
/// oldest root tree (the root plus its whole subtree) is dropped and
/// counted in [`SpanLog::spans_dropped`]. Span ids stay stable across
/// drops — [`SpanLog::phase`] on a dropped id is a no-op, and so is
/// [`SpanLog::child`] under one (counted as one more dropped span).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    next_id: u32,
    cap: Option<usize>,
    dropped: u64,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// An empty log that keeps at most `cap` spans, dropping the oldest
    /// root trees beyond it.
    pub fn with_cap(cap: usize) -> Self {
        SpanLog {
            cap: Some(cap),
            ..SpanLog::default()
        }
    }

    /// The configured span cap, if any.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Number of spans dropped so far to honour the cap.
    pub fn spans_dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans (roots and children).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans in minting order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mints a new root span for one protocol flow.
    pub fn root(
        &mut self,
        kind: &str,
        label: &str,
        node: Option<u32>,
        start: Time,
        end: Time,
    ) -> SpanId {
        self.push(None, kind, label, node, start, end)
    }

    /// Mints a child span under `parent`. Under an unknown or cap-dropped
    /// parent no span is kept: the id is consumed all the same (ids stay
    /// what an uncapped log mints) and the child counts as dropped.
    pub fn child(
        &mut self,
        parent: SpanId,
        kind: &str,
        label: &str,
        node: Option<u32>,
        start: Time,
        end: Time,
    ) -> SpanId {
        if self.index_of(parent).is_none() {
            let id = SpanId(self.next_id);
            self.next_id += 1;
            self.dropped += 1;
            return id;
        }
        self.push(Some(parent), kind, label, node, start, end)
    }

    fn push(
        &mut self,
        parent: Option<SpanId>,
        kind: &str,
        label: &str,
        node: Option<u32>,
        start: Time,
        end: Time,
    ) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            kind: kind.to_string(),
            label: label.to_string(),
            node,
            start,
            end,
            phases: Vec::new(),
        });
        self.enforce_cap();
        id
    }

    /// Drops whole oldest root trees until the log fits the cap again.
    /// Children are always minted after their parent, so one forward
    /// pass collects each root's entire subtree.
    fn enforce_cap(&mut self) {
        let Some(cap) = self.cap else {
            return;
        };
        while self.spans.len() > cap {
            let Some(root) = self.spans.iter().find(|s| s.parent.is_none()).map(|s| s.id) else {
                break;
            };
            let mut doomed = std::collections::BTreeSet::new();
            doomed.insert(root);
            for s in &self.spans {
                if let Some(p) = s.parent {
                    if doomed.contains(&p) {
                        doomed.insert(s.id);
                    }
                }
            }
            self.spans.retain(|s| !doomed.contains(&s.id));
            self.dropped += doomed.len() as u64;
        }
    }

    /// Position of span `id` in the (id-sorted) log, if it is still
    /// retained.
    fn index_of(&self, id: SpanId) -> Option<usize> {
        self.spans.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Appends a named phase to the span `id`. No-op for an unknown (or
    /// cap-dropped) id.
    pub fn phase(&mut self, id: SpanId, name: &str, start: Time, end: Time) {
        if let Some(i) = self.index_of(id) {
            self.spans[i].phases.push(Phase {
                name: name.to_string(),
                start,
                end,
            });
        }
    }

    /// Spans of a given kind, in minting order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// One JSON object per line, one line per span, in minting order —
    /// byte-identical across same-seed runs.
    ///
    /// Schema: `{"span":<id>,"parent":<id|null>,"kind":…,"label":…,
    /// "node":<u32|null>,"start_ns":…,"end_ns":…,"phases":[{"name":…,
    /// "start_ns":…,"end_ns":…},…]}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders every root span's tree, one after the other.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            if s.parent.is_none() {
                out.push_str(&self.render_subtree(s.id));
            }
        }
        out
    }

    /// Renders the subtree rooted at `id` (phases indented under each
    /// span, children recursively below).
    pub fn render_subtree(&self, id: SpanId) -> String {
        let mut out = String::new();
        self.render_at(id, 0, &mut out);
        out
    }

    fn render_at(&self, id: SpanId, depth: usize, out: &mut String) {
        let Some(s) = self.index_of(id).map(|i| &self.spans[i]) else {
            return;
        };
        let pad = "  ".repeat(depth);
        let node = s.node.map_or(String::new(), |n| format!(" @n{n}"));
        let _ = writeln!(
            out,
            "{pad}{} \"{}\"{node} [{} .. {}] ({})",
            s.kind,
            s.label,
            s.start,
            s.end,
            s.end.elapsed_since(s.start)
        );
        for ph in &s.phases {
            let _ = writeln!(
                out,
                "{pad}  · {} [{} .. {}] ({})",
                ph.name,
                ph.start,
                ph.end,
                ph.end.elapsed_since(ph.start)
            );
        }
        for child in &self.spans {
            if child.parent == Some(id) {
                self.render_at(child.id, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_time::Duration;

    fn t(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn minting_order_assigns_sequential_ids() {
        let mut log = SpanLog::new();
        let a = log.root("failover", "g0", None, t(1), t(5));
        let b = log.child(a, "detect", "n2", Some(2), t(1), t(2));
        assert_eq!(a, SpanId(0));
        assert_eq!(b, SpanId(1));
        assert_eq!(log.len(), 2);
        assert_eq!(log.spans()[1].parent, Some(a));
    }

    #[test]
    fn jsonl_has_one_line_per_span_and_inlines_phases() {
        let mut log = SpanLog::new();
        let r = log.root("rejoin", "n1", Some(1), t(10), t(42));
        log.phase(r, "announce", t(20), t(22));
        log.phase(r, "transfer", t(22), t(35));
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"kind\":\"rejoin\""));
        assert!(jsonl.contains("\"parent\":null"));
        assert!(jsonl.contains("\"name\":\"announce\""));
        assert!(jsonl.contains("\"start_ns\":10000000"));
    }

    #[test]
    fn render_tree_indents_children_under_roots() {
        let mut log = SpanLog::new();
        let f = log.root("failover", "group 0", None, t(5), t(9));
        log.child(f, "takeover", "n3 becomes primary", Some(3), t(8), t(9));
        log.root("view", "view 2", None, t(6), t(7));
        let tree = log.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("failover"));
        assert!(lines[1].starts_with("  takeover"));
        assert!(lines[2].starts_with("view"));
    }

    #[test]
    fn phase_on_unknown_id_is_a_noop() {
        let mut log = SpanLog::new();
        log.phase(SpanId(9), "ghost", t(0), t(1));
        assert!(log.is_empty());
    }

    #[test]
    fn cap_drops_oldest_root_tree_and_counts_it() {
        let mut log = SpanLog::with_cap(3);
        let a = log.root("rejoin", "n1", Some(1), t(0), t(4));
        log.child(a, "detect", "d", Some(0), t(0), t(1));
        let b = log.root("failover", "g0", None, t(5), t(9));
        assert_eq!(log.len(), 3);
        assert_eq!(log.spans_dropped(), 0);
        // The fourth span exceeds the cap: the oldest root tree (a and
        // its detect child) goes, ids keep counting up.
        let c = log.root("view", "view 2", None, t(6), t(7));
        assert_eq!(c, SpanId(3));
        assert_eq!(log.len(), 2);
        assert_eq!(log.spans_dropped(), 2);
        assert_eq!(
            log.spans().iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![b, c]
        );
        // Phases on dropped ids are no-ops; survivors still take them.
        log.phase(a, "ghost", t(0), t(1));
        log.phase(b, "detect", t(5), t(6));
        assert!(log.spans()[0].phases.len() == 1);
        assert!(log.render_tree().contains("failover"));
    }

    #[test]
    fn child_of_a_cap_dropped_parent_is_counted_not_orphaned() {
        let mut log = SpanLog::with_cap(2);
        let first = log.root("failover", "f0", None, t(0), t(1));
        let second = log.root("view", "v1", None, t(1), t(2));
        let third = log.root("view", "v2", None, t(2), t(3));
        assert_eq!(log.spans_dropped(), 1, "the first root made room");
        for k in 0..3 {
            let id = log.child(first, "takeover", "late", Some(k), t(3), t(4));
            assert_eq!(id, SpanId(3 + k), "the id is consumed all the same");
        }
        // No orphan, no live root evicted for one, never above the cap.
        assert_eq!(
            log.spans().iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![second, third]
        );
        assert!(log.spans().iter().all(|s| s.parent.is_none()));
        assert_eq!(log.spans_dropped(), 4);
        assert_eq!(log.root("view", "v3", None, t(4), t(5)), SpanId(6));
    }

    #[test]
    fn uncapped_log_never_drops() {
        let mut log = SpanLog::new();
        for i in 0..100 {
            log.root("view", &format!("v{i}"), None, t(i), t(i + 1));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.spans_dropped(), 0);
        assert_eq!(log.cap(), None);
    }

    #[test]
    fn of_kind_filters() {
        let mut log = SpanLog::new();
        log.root("rejoin", "n1", Some(1), t(0), t(1));
        log.root("failover", "g0", None, t(0), t(1));
        log.root("rejoin", "n2", Some(2), t(2), t(3));
        assert_eq!(log.of_kind("rejoin").count(), 2);
        assert_eq!(log.of_kind("failover").count(), 1);
    }
}
