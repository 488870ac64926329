//! Deterministic DES profiler: per-kind / per-actor attribution of
//! engine work, interval timelines and a message-traffic matrix.
//!
//! The lab's aggregate figures (`run_s`, `trace.ns_per_event`) say *how
//! fast* the engine runs but not *where* the events come from. The
//! [`Profiler`] answers that: embedding run loops feed it through their
//! [`Probe`] — one call per delivered event, one per handled actor
//! delivery, one per accepted network send — and at the end of the run
//! [`Profiler::report`] folds the feed into a [`ProfileReport`]:
//!
//! * **per-kind attribution** — event count and the exact engine-tick
//!   inter-delivery gap distribution of every event kind the embedding
//!   declared (via [`Probe::kinds`]);
//! * **per-actor shares** — deliveries per `(label, node, class)` for
//!   every hosted protocol actor;
//! * **timeline** — queue depth, event mix and heartbeat share per
//!   engine-time interval ([`Profiler::DEFAULT_INTERVAL`]);
//! * **traffic matrix** — messages and bytes per
//!   `(sender label, message kind, from, to)` link.
//!
//! Everything in the report is a pure function of the deterministic
//! event order: same spec + same seed ⇒ byte-identical
//! [`ProfileReport::to_jsonl`]. Wall-clock attribution (per-kind
//! wall-ns, timed by the guard [`Probe::event`] returns) is kept out of
//! the report and read back through [`Profiler::wall_totals`] — the probe
//! publishes it on the registry's volatile channel when the run ends,
//! next to `engine.wall_ns`.
//!
//! Like the registry and the watchdog, an enabled profiler is pure
//! observation and never posts events or perturbs the run. The same
//! probe call that feeds the traffic matrix or the per-actor row also
//! bumps the registry's `net.msgs.*` / `net.bytes.*` and
//! `actors.*_events` counters, so the two sinks agree by construction
//! and either works without the other.
//!
//! [`Probe`]: crate::Probe
//! [`Probe::kinds`]: crate::Probe::kinds
//! [`Probe::event`]: crate::Probe::event

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use hades_time::Duration;

use crate::json::{self, Json};
use crate::stats::HistogramSummary;

/// The actor delivery classes, in the order the `class` argument of
/// [`Probe::delivery`](crate::Probe::delivery) indexes them.
pub const DELIVERY_CLASSES: [&str; 5] = ["start", "restart", "timer", "message", "notify"];

/// Schema tag of the profile JSONL emitted by [`ProfileReport::to_jsonl`].
pub const PROFILE_SCHEMA: &str = "hades.profile.v1";

#[derive(Debug, Default)]
struct KindRecord {
    name: &'static str,
    count: u64,
    last_at: Option<u64>,
    gaps: Vec<u64>,
    wall_ns: u64,
}

#[derive(Debug, Default)]
struct Bucket {
    events: u64,
    queue_depth_max: u64,
    heartbeat_events: u64,
    /// Events per kind row (index into [`ProfileState::kinds`]).
    by_kind: Vec<u64>,
}

/// The timeline interval in engine ns.
const INTERVAL_NS: u64 = Profiler::DEFAULT_INTERVAL.as_nanos();

/// Traffic-matrix cell key: `(send kind row, from node, to node)`.
type TrafficKey = (usize, u32, u32);
/// Accumulated `(messages, bytes)` for one traffic cell.
type TrafficCell = (u64, u64);

/// Everything one profiler has recorded; fed by the [`crate::Probe`].
#[derive(Debug, Default)]
pub(crate) struct ProfileState {
    total_events: u64,
    heartbeat_events: u64,
    total_msgs: u64,
    total_bytes: u64,
    heartbeat_msgs: u64,
    kinds: Vec<KindRecord>,
    /// `(node, delivery class, label)` → handled deliveries; the integers
    /// lead so a look-up compares labels only within one node's cells.
    actors: BTreeMap<(u32, usize, &'static str), u64>,
    buckets: BTreeMap<u64, Bucket>,
    traffic: BTreeMap<TrafficKey, TrafficCell>,
    /// `(sender label, message kind name)` rows, as the probe resolved them.
    send_kinds: Vec<(&'static str, String)>,
}

impl ProfileState {
    #[inline]
    fn bucket(&mut self, now_ns: u64) -> &mut Bucket {
        self.buckets.entry(now_ns / INTERVAL_NS).or_default()
    }

    /// The row of the event kind `name`, opened on first use.
    pub(crate) fn kind_row(&mut self, name: &'static str) -> usize {
        let known = self.kinds.iter().position(|k| k.name == name);
        known.unwrap_or_else(|| {
            let fresh = KindRecord {
                name,
                ..KindRecord::default()
            };
            self.kinds.push(fresh);
            self.kinds.len() - 1
        })
    }

    /// One delivered event: the totals, the timeline bucket (one look-up
    /// for event count, queue-depth high water and event mix) and, with a
    /// `kind` row, its count and exact inter-delivery gap.
    #[inline]
    pub(crate) fn event(&mut self, now_ns: u64, queue_len: u64, kind: Option<usize>) {
        self.total_events += 1;
        let b = self.bucket(now_ns);
        b.events += 1;
        b.queue_depth_max = b.queue_depth_max.max(queue_len);
        let Some(row) = kind else { return };
        if b.by_kind.len() <= row {
            b.by_kind.resize(row + 1, 0);
        }
        b.by_kind[row] += 1;
        let k = &mut self.kinds[row];
        k.count += 1;
        if let Some(last) = k.last_at {
            k.gaps.push(now_ns.saturating_sub(last));
        }
        k.last_at = Some(now_ns);
    }

    /// Wall-clock nanoseconds spent handling one event of kind `row`.
    pub(crate) fn add_wall(&mut self, row: usize, ns: u64) {
        self.kinds[row].wall_ns += ns;
    }

    /// One handled actor delivery of class [`DELIVERY_CLASSES`]`[class]`.
    #[inline]
    pub(crate) fn delivery(
        &mut self,
        now_ns: u64,
        label: &'static str,
        node: u32,
        class: usize,
        heartbeat: bool,
    ) {
        *self.actors.entry((node, class, label)).or_default() += 1;
        if heartbeat {
            self.heartbeat_events += 1;
            self.bucket(now_ns).heartbeat_events += 1;
        }
    }

    /// The row of the message kind `name` sent by `label` actors, opened
    /// on first use.
    pub(crate) fn send_kind_row(&mut self, label: &'static str, name: &str) -> usize {
        let known = |(l, n): &(&str, String)| *l == label && n == name;
        self.send_kinds.iter().position(known).unwrap_or_else(|| {
            self.send_kinds.push((label, name.to_string()));
            self.send_kinds.len() - 1
        })
    }

    /// One accepted network send of the message kind `row`.
    #[inline]
    pub(crate) fn send(&mut self, row: usize, from: u32, to: u32, bytes: u64, heartbeat: bool) {
        let cell = self.traffic.entry((row, from, to)).or_default();
        cell.0 += 1;
        cell.1 += bytes;
        self.total_msgs += 1;
        self.total_bytes += bytes;
        self.heartbeat_msgs += u64::from(heartbeat);
    }
}

/// A clonable handle to one run's profile store; disabled by default.
///
/// Mirrors [`Registry`](crate::Registry): a run is profiled by building
/// its [`Probe`](crate::Probe) from an enabled profiler, and a disabled
/// one adds nothing to the probe's one `Option` check per call.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    pub(crate) inner: Option<Rc<RefCell<ProfileState>>>,
}

impl Profiler {
    /// The timeline interval (1 engine-time millisecond).
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(1);

    /// An enabled profiler.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Rc::new(RefCell::new(ProfileState::default()))),
        }
    }

    /// A disabled profiler: it records nothing (this is also
    /// [`Default`]).
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// Whether this profiler records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The bare run-loop feed: one call per delivered event with the
    /// current engine time and pending-queue length. Feeds the total
    /// event count and the timeline's per-interval event count and
    /// queue-depth high water — what [`Probe::event`](crate::Probe::event)
    /// feeds for an event without a kind.
    #[inline]
    pub fn tick(&self, now_ns: u64, queue_len: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut().event(now_ns, queue_len, None);
        }
    }

    /// Per-kind wall-clock totals `(kind name, wall ns)`, sorted by
    /// name — **volatile** by nature. The probe copies these onto the
    /// registry's volatile channel (`profile.wall_ns.<kind>`); they are
    /// deliberately absent from the deterministic [`ProfileReport`].
    pub fn wall_totals(&self) -> Vec<(String, u64)> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<(String, u64)> = i
            .borrow()
            .kinds
            .iter()
            .filter(|k| k.wall_ns > 0)
            .map(|k| (k.name.to_string(), k.wall_ns))
            .collect();
        out.sort();
        out
    }

    /// Folds everything recorded so far into the deterministic report.
    /// A disabled profiler reports empty.
    pub fn report(&self) -> ProfileReport {
        let Some(i) = &self.inner else {
            return ProfileReport::default();
        };
        let i = i.borrow();
        let mut kinds: Vec<KindProfile> = i
            .kinds
            .iter()
            .map(|k| KindProfile {
                name: k.name.to_string(),
                count: k.count,
                gap: HistogramSummary::of(&k.gaps),
            })
            .collect();
        kinds.sort_by(|a, b| a.name.cmp(&b.name));
        let mut actors: Vec<ActorProfile> = i
            .actors
            .iter()
            .map(|((node, class, label), events)| ActorProfile {
                label: label.to_string(),
                node: *node,
                class: DELIVERY_CLASSES[*class].to_string(),
                events: *events,
            })
            .collect();
        actors.sort_by(|a, b| (&a.label, a.node, &a.class).cmp(&(&b.label, b.node, &b.class)));
        let timeline = i
            .buckets
            .iter()
            .map(|(idx, b)| {
                let mut mix: Vec<(String, u64)> = (b.by_kind.iter().zip(&i.kinds))
                    .filter(|(count, _)| **count > 0)
                    .map(|(count, k)| (k.name.to_string(), *count))
                    .collect();
                mix.sort();
                IntervalProfile {
                    start_ns: idx * INTERVAL_NS,
                    events: b.events,
                    queue_depth_max: b.queue_depth_max,
                    heartbeat_events: b.heartbeat_events,
                    mix,
                }
            })
            .collect();
        let mut traffic: Vec<TrafficProfile> = i
            .traffic
            .iter()
            .map(|((row, from, to), (msgs, bytes))| TrafficProfile {
                sender: i.send_kinds[*row].0.to_string(),
                kind: i.send_kinds[*row].1.clone(),
                from: *from,
                to: *to,
                msgs: *msgs,
                bytes: *bytes,
            })
            .collect();
        traffic.sort_by(|a, b| {
            (&a.sender, &a.kind, a.from, a.to).cmp(&(&b.sender, &b.kind, b.from, b.to))
        });
        ProfileReport {
            interval_ns: INTERVAL_NS,
            total_events: i.total_events,
            heartbeat_events: i.heartbeat_events,
            total_msgs: i.total_msgs,
            total_bytes: i.total_bytes,
            heartbeat_msgs: i.heartbeat_msgs,
            kinds,
            actors,
            timeline,
            traffic,
        }
    }
}

/// Per-kind attribution: event count and the exact engine-tick
/// inter-delivery gap distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindProfile {
    /// The kind name the embedding minted.
    pub name: String,
    /// Deliveries of this kind.
    pub count: u64,
    /// Inter-delivery gap summary in engine ns (`None` below two
    /// deliveries).
    pub gap: Option<HistogramSummary>,
}

/// Per-actor attribution: handled deliveries of one
/// `(label, node, class)` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorProfile {
    /// The actor's label (e.g. `"agent"`, `"group"`, `"control"`).
    pub label: String,
    /// The actor's node.
    pub node: u32,
    /// Delivery class: `"start"`, `"restart"`, `"timer"`, `"message"`
    /// or `"notify"`.
    pub class: String,
    /// Handled deliveries.
    pub events: u64,
}

/// One timeline interval: what the engine processed in
/// `[start_ns, start_ns + interval_ns)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalProfile {
    /// Interval start in engine ns.
    pub start_ns: u64,
    /// Events delivered in the interval.
    pub events: u64,
    /// Largest pending-queue length observed at a delivery in the
    /// interval.
    pub queue_depth_max: u64,
    /// Heartbeat deliveries in the interval (per the classifier).
    pub heartbeat_events: u64,
    /// Per-kind event counts `(kind, count)`, sorted by kind.
    pub mix: Vec<(String, u64)>,
}

/// One traffic-matrix cell: accepted messages over one
/// `(sender, kind, from, to)` link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficProfile {
    /// Sending actor's label.
    pub sender: String,
    /// Resolved message kind name.
    pub kind: String,
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Accepted messages.
    pub msgs: u64,
    /// Accepted bytes.
    pub bytes: u64,
}

/// The deterministic end-of-run view of a [`Profiler`]:
/// `Eq`-comparable, with a byte-stable JSONL serialization
/// ([`ProfileReport::to_jsonl`]) and a folded-stacks flamegraph export
/// ([`ProfileReport::to_folded`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileReport {
    /// Timeline bucketing interval in engine ns.
    pub interval_ns: u64,
    /// Events delivered by the engine run loop.
    pub total_events: u64,
    /// Heartbeat deliveries (per the embedding's classifier).
    pub heartbeat_events: u64,
    /// Messages the network accepted.
    pub total_msgs: u64,
    /// Bytes the network accepted.
    pub total_bytes: u64,
    /// Heartbeat messages among [`ProfileReport::total_msgs`].
    pub heartbeat_msgs: u64,
    /// Per-kind attribution, sorted by name.
    pub kinds: Vec<KindProfile>,
    /// Per-actor attribution, sorted by `(label, node, class)`.
    pub actors: Vec<ActorProfile>,
    /// The interval timeline in time order.
    pub timeline: Vec<IntervalProfile>,
    /// The traffic matrix, sorted by `(sender, kind, from, to)`.
    pub traffic: Vec<TrafficProfile>,
}

impl ProfileReport {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_events == 0 && self.total_msgs == 0 && self.kinds.is_empty()
    }

    /// The attribution row of the kind `name`.
    pub fn kind(&self, name: &str) -> Option<&KindProfile> {
        self.kinds.iter().find(|k| k.name == name)
    }

    /// Heartbeat share of all delivered events, in permille — the
    /// single queryable number behind the O(n²) membership-traffic
    /// claim.
    pub fn heartbeat_event_share_permille(&self) -> u64 {
        self.heartbeat_events * 1000 / self.total_events.max(1)
    }

    /// Heartbeat share of all accepted messages, in permille.
    pub fn heartbeat_msg_share_permille(&self) -> u64 {
        self.heartbeat_msgs * 1000 / self.total_msgs.max(1)
    }

    /// One JSON object per line: a `"record":"profile"` header with the
    /// aggregate totals, then `kind` / `actor` / `interval` / `traffic`
    /// records in deterministic order. Byte-identical across same-seed
    /// runs; [`ProfileReport::validate_jsonl`] checks the shape.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"record\":\"profile\",\"schema\":\"{PROFILE_SCHEMA}\",\"interval_ns\":{},\
             \"total_events\":{},\"heartbeat_events\":{},\"heartbeat_event_share_permille\":{},\
             \"total_msgs\":{},\"total_bytes\":{},\"heartbeat_msgs\":{},\
             \"heartbeat_msg_share_permille\":{}}}",
            self.interval_ns,
            self.total_events,
            self.heartbeat_events,
            self.heartbeat_event_share_permille(),
            self.total_msgs,
            self.total_bytes,
            self.heartbeat_msgs,
            self.heartbeat_msg_share_permille(),
        );
        for k in &self.kinds {
            let _ = write!(
                out,
                "{{\"record\":\"kind\",\"name\":{},\"count\":{}",
                json::escape(&k.name),
                k.count
            );
            if let Some(g) = &k.gap {
                let _ = write!(
                    out,
                    ",\"gap\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\
                     \"p95\":{},\"p99\":{},\"p999\":{}}}",
                    g.count, g.min, g.max, g.mean, g.p50, g.p95, g.p99, g.p999
                );
            }
            out.push_str("}\n");
        }
        for a in &self.actors {
            let _ = writeln!(
                out,
                "{{\"record\":\"actor\",\"label\":{},\"node\":{},\"class\":{},\"events\":{}}}",
                json::escape(&a.label),
                a.node,
                json::escape(&a.class),
                a.events
            );
        }
        for iv in &self.timeline {
            let _ = write!(
                out,
                "{{\"record\":\"interval\",\"start_ns\":{},\"events\":{},\"queue_depth_max\":{},\
                 \"heartbeat_events\":{},\"mix\":{{",
                iv.start_ns, iv.events, iv.queue_depth_max, iv.heartbeat_events
            );
            for (n, (kind, count)) in iv.mix.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{count}", json::escape(kind));
            }
            out.push_str("}}\n");
        }
        for t in &self.traffic {
            let _ = writeln!(
                out,
                "{{\"record\":\"traffic\",\"sender\":{},\"kind\":{},\"from\":{},\"to\":{},\
                 \"msgs\":{},\"bytes\":{}}}",
                json::escape(&t.sender),
                json::escape(&t.kind),
                t.from,
                t.to,
                t.msgs,
                t.bytes
            );
        }
        out
    }

    /// Validates one profile JSONL document: a `profile` header line
    /// carrying the [`PROFILE_SCHEMA`] tag followed by well-formed
    /// `kind` / `actor` / `interval` / `traffic` records.
    pub fn validate_jsonl(doc: &str) -> Result<(), String> {
        let mut lines = doc.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty profile document")?;
        let header = Json::parse(header).map_err(|e| format!("header: {e}"))?;
        if header.get("record").and_then(Json::as_str) != Some("profile") {
            return Err("first line is not the profile header".into());
        }
        if header.get("schema").and_then(Json::as_str) != Some(PROFILE_SCHEMA) {
            return Err(format!("header schema is not {PROFILE_SCHEMA}"));
        }
        for key in [
            "interval_ns",
            "total_events",
            "heartbeat_events",
            "heartbeat_event_share_permille",
            "total_msgs",
            "total_bytes",
            "heartbeat_msgs",
            "heartbeat_msg_share_permille",
        ] {
            header
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("header missing integer `{key}`"))?;
        }
        for (n, line) in lines {
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let record = v
                .get("record")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing `record`", n + 1))?;
            let required: &[&str] = match record {
                "kind" => &["name", "count"],
                "actor" => &["label", "node", "class", "events"],
                "interval" => &["start_ns", "events", "queue_depth_max", "heartbeat_events"],
                "traffic" => &["sender", "kind", "from", "to", "msgs", "bytes"],
                "wall" => &["kind", "wall_ns", "share_permille"],
                other => return Err(format!("line {}: unknown record `{other}`", n + 1)),
            };
            for key in required {
                if v.get(key).is_none() {
                    return Err(format!("line {}: {record} missing `{key}`", n + 1));
                }
            }
        }
        Ok(())
    }

    /// Renders per-kind wall-clock totals (the
    /// `profile.wall_ns.<kind>` volatiles, as returned by
    /// [`crate::Profiler::wall_totals`]) as `"record":"wall"` JSONL
    /// lines appendable to [`ProfileReport::to_jsonl`] output. Wall
    /// time is nondeterministic, which is exactly why it is rendered
    /// separately: the deterministic document stays byte-stable, and a
    /// pipeline that wants wall shares concatenates these lines into
    /// its own (still schema-valid) artifact.
    pub fn wall_records(walls: &[(String, u64)]) -> String {
        let total: u64 = walls.iter().map(|(_, ns)| *ns).sum();
        let mut out = String::new();
        for (kind, ns) in walls {
            let _ = writeln!(
                out,
                "{{\"record\":\"wall\",\"kind\":{},\"wall_ns\":{ns},\"share_permille\":{}}}",
                json::escape(kind),
                ns * 1000 / total.max(1)
            );
        }
        out
    }

    /// Folded-stacks flamegraph text (`stack;frames count` per line),
    /// weighted by deterministic event counts so the export is
    /// byte-stable. Actor deliveries expand to
    /// `hades;engine;actor.<class>;<label>;n<node>`; every other kind
    /// collapses to `hades;engine;<kind>`. Feed the output to any
    /// `flamegraph.pl`-compatible renderer.
    pub fn to_folded(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for k in &self.kinds {
            if k.count > 0 && !k.name.starts_with("actor.") {
                lines.push(format!("hades;engine;{} {}", k.name, k.count));
            }
        }
        for a in &self.actors {
            if a.events > 0 {
                lines.push(format!(
                    "hades;engine;actor.{};{};n{:03} {}",
                    a.class, a.label, a.node, a.events
                ));
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Probe, Registry};

    /// Indices into [`DELIVERY_CLASSES`].
    const TIMER: usize = 2;
    const MESSAGE: usize = 3;

    /// A probe over `p` alone, with the cluster-like vocabulary the tests
    /// below use: `agent` tag 1 is the heartbeat `hb`.
    fn probe(p: &Profiler, kinds: &[&'static str]) -> Probe {
        let probe = Probe::new(
            &Registry::disabled(),
            p,
            |label, tag| (label == "agent" && tag == 1).then(|| "hb".to_string()),
            |label, class, tag| {
                label == "agent" && ((class == "timer" || class == "send") && tag == 1)
            },
        );
        probe.kinds(kinds);
        probe
    }

    #[test]
    fn disabled_profiler_is_inert_and_reports_empty() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.tick(5, 3);
        let k = probe(&p, &["activate"]);
        assert!(!k.is_enabled());
        k.delivery(5, "agent", 0, TIMER, 1);
        k.send("agent", 1, 0, 1, 32);
        drop(k.event(10, 0, Some(0)));
        assert!(p.report().is_empty());
        assert!(p.wall_totals().is_empty());
        assert!(p.report().to_jsonl().starts_with("{\"record\":\"profile\""));
    }

    #[test]
    fn wall_records_append_as_schema_valid_lines() {
        let p = Profiler::enabled();
        drop(probe(&p, &["activate"]).event(10, 0, Some(0)));
        let walls = vec![
            ("activate".to_string(), 750),
            ("work_done".to_string(), 250),
        ];
        let mut doc = p.report().to_jsonl();
        doc.push_str(&ProfileReport::wall_records(&walls));
        ProfileReport::validate_jsonl(&doc).expect("wall records stay schema-valid");
        assert!(doc.contains(
            "\"record\":\"wall\",\"kind\":\"activate\",\"wall_ns\":750,\"share_permille\":750"
        ));
    }

    #[test]
    fn kinds_count_and_measure_gaps() {
        let p = Profiler::enabled();
        let k = probe(&p, &["activate"]);
        for at in [100u64, 300, 600] {
            drop(k.event(at, 0, Some(0)));
        }
        let r = p.report();
        let kp = r.kind("activate").unwrap();
        assert_eq!(kp.count, 3);
        let gap = kp.gap.unwrap();
        assert_eq!(gap.count, 2);
        assert_eq!((gap.min, gap.max), (200, 300));
    }

    #[test]
    fn timeline_buckets_split_on_the_interval() {
        let p = Profiler::enabled();
        p.tick(10, 4);
        p.tick(20, 9);
        p.tick(INTERVAL_NS + 50, 2);
        let r = p.report();
        assert_eq!(r.timeline.len(), 2);
        assert_eq!(r.timeline[0].start_ns, 0);
        assert_eq!(r.timeline[0].events, 2);
        assert_eq!(r.timeline[0].queue_depth_max, 9);
        assert_eq!(r.timeline[1].start_ns, INTERVAL_NS);
        assert_eq!(r.timeline[1].events, 1);
        assert_eq!(r.total_events, 3);
    }

    #[test]
    fn heartbeat_classifier_feeds_shares_and_timeline() {
        let p = Profiler::enabled();
        let k = probe(&p, &[]);
        p.tick(10, 1);
        p.tick(20, 1);
        k.delivery(10, "agent", 0, TIMER, 1);
        k.delivery(20, "group", 1, MESSAGE, 1);
        k.send("agent", 1, 0, 1, 32);
        k.send("group", 2, 1, 2, 32);
        let r = p.report();
        assert_eq!(r.heartbeat_events, 1);
        assert_eq!(r.heartbeat_event_share_permille(), 500);
        assert_eq!(r.heartbeat_msgs, 1);
        assert_eq!(r.heartbeat_msg_share_permille(), 500);
        assert_eq!(r.timeline[0].heartbeat_events, 1);
    }

    #[test]
    fn traffic_matrix_resolves_names_through_the_namer() {
        let p = Profiler::enabled();
        let k = probe(&p, &[]);
        k.send("agent", 1, 0, 1, 32);
        k.send("agent", 1, 0, 1, 32);
        k.send("group", 5, 1, 2, 40);
        let r = p.report();
        assert_eq!(r.traffic.len(), 2);
        assert_eq!(r.traffic[0].kind, "hb");
        assert_eq!((r.traffic[0].msgs, r.traffic[0].bytes), (2, 64));
        assert_eq!(r.traffic[1].kind, "group.t5", "fallback name");
        assert_eq!(r.total_msgs, 3);
        assert_eq!(r.total_bytes, 104);
    }

    #[test]
    fn report_jsonl_round_trips_the_validator() {
        let p = Profiler::enabled();
        let k = probe(&p, &["activate"]);
        drop(k.event(10, 1, Some(0)));
        drop(k.event(30, 2, Some(0)));
        k.delivery(10, "agent", 3, TIMER, 1);
        k.send("agent", 1, 3, 4, 32);
        let doc = p.report().to_jsonl();
        ProfileReport::validate_jsonl(&doc).expect("valid document");
        assert!(doc.contains("\"record\":\"kind\""));
        assert!(doc.contains("\"record\":\"actor\""));
        assert!(doc.contains("\"record\":\"interval\""));
        assert!(doc.contains("\"mix\":{\"activate\":2}"));
        assert!(doc.contains("\"record\":\"traffic\""));
    }

    #[test]
    fn validator_rejects_missing_header_and_fields() {
        assert!(ProfileReport::validate_jsonl("").is_err());
        assert!(ProfileReport::validate_jsonl("{\"record\":\"kind\",\"name\":\"x\"}").is_err());
        let good = Profiler::enabled().report().to_jsonl();
        ProfileReport::validate_jsonl(&good).expect("empty but well-formed");
        let bad = format!("{good}{{\"record\":\"kind\",\"name\":\"x\"}}\n");
        assert!(
            ProfileReport::validate_jsonl(&bad).is_err(),
            "kind w/o count"
        );
    }

    #[test]
    fn folded_export_expands_actors_and_is_sorted() {
        let p = Profiler::enabled();
        let k = probe(&p, &["activate", "actor.timer"]);
        drop(k.event(10, 0, Some(0)));
        drop(k.event(20, 0, Some(1)));
        k.delivery(20, "agent", 2, TIMER, 1);
        let folded = p.report().to_folded();
        assert_eq!(
            folded,
            "hades;engine;activate 1\nhades;engine;actor.timer;agent;n002 1\n"
        );
    }

    #[test]
    fn wall_totals_stay_out_of_the_deterministic_report() {
        // Fed below the probe, whose guard would add its own real time.
        let feed = |wall_ns: u64| {
            let p = Profiler::enabled();
            let mut state = p.inner.as_ref().expect("enabled").borrow_mut();
            let row = state.kind_row("activate");
            state.event(10, 0, Some(row));
            state.add_wall(row, wall_ns);
            drop(state);
            p
        };
        let p = feed(1234);
        assert_eq!(p.wall_totals(), vec![("activate".to_string(), 1234)]);
        assert!(!p.report().to_jsonl().contains("1234"));
        // Two same-feed profilers with different wall figures still
        // produce byte-identical reports.
        let q = feed(999_999);
        assert_eq!(p.report(), q.report());
        assert_eq!(p.report().to_jsonl(), q.report().to_jsonl());
    }

    fn hb_namer(label: &str, tag: u64) -> Option<String> {
        (label == "agent" && tag == 1).then(|| "hb".to_string())
    }

    #[test]
    fn net_probe_counts_per_kind_and_totals() {
        let registry = Registry::enabled();
        let probe = Probe::new(&registry, &Profiler::disabled(), hb_namer, |_, _, _| false);
        probe.send("agent", 1, 0, 1, 32);
        probe.send("agent", 1, 0, 1, 32);
        probe.send("group", 9, 1, 2, 40);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.msgs.hb"), Some(2));
        assert_eq!(snap.counter("net.bytes.hb"), Some(64));
        assert_eq!(snap.counter("net.msgs.group.t9"), Some(1));
        assert_eq!(snap.counter("net.msgs.total"), Some(3));
        assert_eq!(snap.counter("net.bytes.total"), Some(104));
    }

    #[test]
    fn net_probe_from_disabled_registry_is_inert() {
        let none = Probe::new(
            &Registry::disabled(),
            &Profiler::disabled(),
            hb_namer,
            |_, _, _| false,
        );
        assert!(!none.is_enabled());
        none.send("agent", 1, 0, 1, 32);
        assert!(!none.registry().is_enabled());
        // With only a profiler the registry half stays inert while the
        // traffic matrix is still fed, under the same name.
        let profiler = Profiler::enabled();
        let probe = Probe::new(&Registry::disabled(), &profiler, hb_namer, |_, _, _| false);
        assert!(probe.is_enabled());
        probe.send("agent", 1, 0, 1, 32);
        assert!(probe.registry().snapshot().is_empty());
        assert_eq!(profiler.report().traffic[0].kind, "hb");
    }
}
