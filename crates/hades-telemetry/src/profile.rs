//! Deterministic DES profiler: per-kind / per-actor attribution of
//! engine work, interval timelines and a message-traffic matrix.
//!
//! The lab's aggregate figures (`run_s`, `trace.ns_per_event`) say *how
//! fast* the engine runs but not *where* the events come from. The
//! [`Profiler`] answers that: embedding run loops feed it one hook call
//! per delivered event (and one per accepted network send), and at the end
//! of the run [`Profiler::report`] folds the feed into a [`ProfileReport`]:
//!
//! * **per-kind attribution** — event count and the exact engine-tick
//!   inter-delivery gap distribution of every event kind the embedding
//!   registered (via [`Profiler::kind`] handles, mirroring the
//!   [`Registry`] handle pattern);
//! * **per-actor shares** — deliveries per `(label, node, class)` for
//!   every hosted protocol actor;
//! * **timeline** — queue depth, event mix and heartbeat share per
//!   configurable engine-time interval;
//! * **traffic matrix** — messages and bytes per
//!   `(sender label, message kind, from, to)` link.
//!
//! Everything in the report is a pure function of the deterministic
//! event order: same spec + same seed ⇒ byte-identical
//! [`ProfileReport::to_jsonl`]. Wall-clock attribution (per-kind
//! wall-ns, fed via [`ProfKind::add_wall`]) is kept out of the report
//! and read back through [`Profiler::wall_totals`] — the embedding
//! publishes it on the registry's volatile channel, exactly like
//! `engine.wall_ns`.
//!
//! A disabled profiler (the default) costs one `Option` discriminant
//! check per hook and records nothing; like the registry and the
//! watchdog, an enabled profiler is pure observation and never posts
//! events or perturbs the run.
//!
//! [`NetProbe`] is the always-on little sibling: registry-backed
//! `net.msgs.*` / `net.bytes.*` counters per message kind that work
//! with plain telemetry even when the full profiler is off.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use hades_time::Duration;

use crate::json::{self, Json};
use crate::metrics::{Counter, HistogramSummary, Registry};

/// Resolves `(sender label, protocol tag)` to a human-readable message
/// kind name; `None` falls back to `<label>.t<tag>`.
pub type TagNamer = Box<dyn Fn(&str, u64) -> Option<String>>;

/// Classifies one observation as heartbeat work. Called with
/// `(actor label, class, tag)` where `class` is a delivery class
/// (`"timer"`, `"message"`, …) or `"send"` for outgoing messages.
pub type HeartbeatPred = Box<dyn Fn(&str, &str, u64) -> bool>;

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
    by_kind: BTreeMap<&'static str, u64>,
}

/// Traffic-matrix cell key: `(sender label, tag, from node, to node)`.
type TrafficKey = (&'static str, u64, u32, u32);
/// Accumulated `(messages, bytes)` for one traffic cell.
type TrafficCell = (u64, u64);

#[derive(Default)]
struct ProfilerInner {
    interval_ns: Cell<u64>,
    total_events: Cell<u64>,
    heartbeat_events: Cell<u64>,
    total_msgs: Cell<u64>,
    total_bytes: Cell<u64>,
    heartbeat_msgs: Cell<u64>,
    kinds: RefCell<Vec<KindRecord>>,
    kind_index: RefCell<BTreeMap<&'static str, usize>>,
    /// `(label, node, class)` → handled deliveries.
    actors: RefCell<BTreeMap<(&'static str, u32, &'static str), u64>>,
    buckets: RefCell<BTreeMap<u64, Bucket>>,
    traffic: RefCell<BTreeMap<TrafficKey, TrafficCell>>,
    namer: RefCell<Option<TagNamer>>,
    heartbeat: RefCell<Option<HeartbeatPred>>,
}

impl std::fmt::Debug for ProfilerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilerInner")
            .field("total_events", &self.total_events.get())
            .finish_non_exhaustive()
    }
}

impl ProfilerInner {
    fn bucket_of(&self, now_ns: u64) -> u64 {
        now_ns / self.interval_ns.get().max(1)
    }

    fn is_heartbeat(&self, label: &str, class: &str, tag: u64) -> bool {
        self.heartbeat
            .borrow()
            .as_ref()
            .is_some_and(|p| p(label, class, tag))
    }

    fn kind_name(&self, label: &str, tag: u64) -> String {
        self.namer
            .borrow()
            .as_ref()
            .and_then(|n| n(label, tag))
            .unwrap_or_else(|| format!("{label}.t{tag}"))
    }
}

/// A clonable handle to one run's profile store; disabled by default.
///
/// Mirrors [`Registry`]: embeddings call the hot-path hooks
/// unconditionally, and a disabled profiler reduces every hook to one
/// `Option` check.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Rc<ProfilerInner>>,
}

impl Profiler {
    /// The default timeline interval (1 engine-time millisecond).
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(1);

    /// An enabled profiler recording with the default timeline interval.
    pub fn enabled() -> Self {
        let inner = ProfilerInner::default();
        inner.interval_ns.set(Self::DEFAULT_INTERVAL.as_nanos());
        Profiler {
            inner: Some(Rc::new(inner)),
        }
    }

    /// A disabled profiler: every hook is one `Option` check (this is
    /// also [`Default`]).
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// Whether this profiler records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the timeline bucketing interval (engine time). Zero is
    /// clamped to one nanosecond. Call before the run; changing the
    /// interval mid-run splits earlier samples at the old width.
    pub fn set_interval(&self, interval: Duration) {
        if let Some(i) = &self.inner {
            i.interval_ns.set(interval.as_nanos().max(1));
        }
    }

    /// Installs the message-kind namer used by the traffic matrix and
    /// the folded export (see [`TagNamer`]).
    pub fn set_tag_namer(&self, namer: impl Fn(&str, u64) -> Option<String> + 'static) {
        if let Some(i) = &self.inner {
            *i.namer.borrow_mut() = Some(Box::new(namer));
        }
    }

    /// Installs the heartbeat classifier used for the timeline's
    /// heartbeat share and the aggregate heartbeat totals (see
    /// [`HeartbeatPred`]).
    pub fn set_heartbeat_pred(&self, pred: impl Fn(&str, &str, u64) -> bool + 'static) {
        if let Some(i) = &self.inner {
            *i.heartbeat.borrow_mut() = Some(Box::new(pred));
        }
    }

    /// Mints (or re-opens) the event-kind handle `name`. Embedding run
    /// loops mint one handle per event variant up front and call
    /// [`ProfKind::record`] on every delivery.
    pub fn kind(&self, name: &'static str) -> ProfKind {
        ProfKind(self.inner.as_ref().map(|i| {
            let mut index = i.kind_index.borrow_mut();
            let mut kinds = i.kinds.borrow_mut();
            let idx = *index.entry(name).or_insert_with(|| {
                kinds.push(KindRecord {
                    name,
                    ..KindRecord::default()
                });
                kinds.len() - 1
            });
            (i.clone(), idx)
        }))
    }

    /// The engine run-loop hook: one call per delivered event with the
    /// current engine time and pending-queue length. Feeds the total
    /// event count and the timeline's per-interval event count and
    /// queue-depth high water.
    #[inline]
    pub fn tick(&self, now_ns: u64, queue_len: u64) {
        if let Some(i) = &self.inner {
            i.total_events.set(i.total_events.get() + 1);
            let bucket_key = i.bucket_of(now_ns);
            let mut buckets = i.buckets.borrow_mut();
            let b = buckets.entry(bucket_key).or_default();
            b.events += 1;
            b.queue_depth_max = b.queue_depth_max.max(queue_len);
        }
    }

    /// The actor-host hook: one call per *handled* actor delivery with
    /// the actor's label, node, delivery class (`"start"`, `"restart"`,
    /// `"timer"`, `"message"`, `"notify"`) and protocol tag. Feeds the
    /// per-actor shares and — through the heartbeat classifier — the
    /// heartbeat totals and timeline share.
    #[inline]
    pub fn record_delivery(
        &self,
        now_ns: u64,
        label: &'static str,
        node: u32,
        class: &'static str,
        tag: u64,
    ) {
        if let Some(i) = &self.inner {
            *i.actors
                .borrow_mut()
                .entry((label, node, class))
                .or_default() += 1;
            if i.is_heartbeat(label, class, tag) {
                i.heartbeat_events.set(i.heartbeat_events.get() + 1);
                i.buckets
                    .borrow_mut()
                    .entry(i.bucket_of(now_ns))
                    .or_default()
                    .heartbeat_events += 1;
            }
        }
    }

    /// The network hook: one call per message the network accepted
    /// (omitted sends never consume bandwidth downstream). Feeds the
    /// traffic matrix and the message/byte totals.
    #[inline]
    pub fn record_send(&self, label: &'static str, tag: u64, from: u32, to: u32, bytes: u64) {
        if let Some(i) = &self.inner {
            let entry = &mut *i.traffic.borrow_mut();
            let cell = entry.entry((label, tag, from, to)).or_default();
            cell.0 += 1;
            cell.1 += bytes;
            i.total_msgs.set(i.total_msgs.get() + 1);
            i.total_bytes.set(i.total_bytes.get() + bytes);
            if i.is_heartbeat(label, "send", tag) {
                i.heartbeat_msgs.set(i.heartbeat_msgs.get() + 1);
            }
        }
    }

    /// Per-kind wall-clock totals `(kind name, wall ns)`, sorted by
    /// name — **volatile** by nature. Embeddings copy these onto the
    /// registry's volatile channel (`profile.wall_ns.<kind>`); they are
    /// deliberately absent from the deterministic [`ProfileReport`].
    pub fn wall_totals(&self) -> Vec<(String, u64)> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<(String, u64)> = i
            .kinds
            .borrow()
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
        let mut kinds: Vec<KindProfile> = i
            .kinds
            .borrow()
            .iter()
            .map(|k| KindProfile {
                name: k.name.to_string(),
                count: k.count,
                gap: HistogramSummary::of(&k.gaps),
            })
            .collect();
        kinds.sort_by(|a, b| a.name.cmp(&b.name));
        let actors = i
            .actors
            .borrow()
            .iter()
            .map(|((label, node, class), events)| ActorProfile {
                label: label.to_string(),
                node: *node,
                class: class.to_string(),
                events: *events,
            })
            .collect();
        let interval_ns = i.interval_ns.get().max(1);
        let timeline = i
            .buckets
            .borrow()
            .iter()
            .map(|(idx, b)| IntervalProfile {
                start_ns: idx * interval_ns,
                events: b.events,
                queue_depth_max: b.queue_depth_max,
                heartbeat_events: b.heartbeat_events,
                mix: b.by_kind.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            })
            .collect();
        let mut traffic: Vec<TrafficProfile> = i
            .traffic
            .borrow()
            .iter()
            .map(|((label, tag, from, to), (msgs, bytes))| TrafficProfile {
                sender: label.to_string(),
                kind: i.kind_name(label, *tag),
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
            interval_ns,
            total_events: i.total_events.get(),
            heartbeat_events: i.heartbeat_events.get(),
            total_msgs: i.total_msgs.get(),
            total_bytes: i.total_bytes.get(),
            heartbeat_msgs: i.heartbeat_msgs.get(),
            kinds,
            actors,
            timeline,
            traffic,
        }
    }
}

/// A handle for one event kind; inert when minted from a disabled
/// profiler.
#[derive(Debug, Clone, Default)]
pub struct ProfKind(Option<(Rc<ProfilerInner>, usize)>);

impl ProfKind {
    /// An inert handle (what a disabled profiler mints).
    pub fn disabled() -> Self {
        ProfKind(None)
    }

    /// Records one delivery of this kind at engine time `now_ns`:
    /// bumps the kind's count, its exact inter-delivery gap
    /// distribution, and the timeline's per-interval event mix.
    #[inline]
    pub fn record(&self, now_ns: u64) {
        if let Some((i, idx)) = &self.0 {
            let name = {
                let mut kinds = i.kinds.borrow_mut();
                let k = &mut kinds[*idx];
                k.count += 1;
                if let Some(last) = k.last_at {
                    k.gaps.push(now_ns.saturating_sub(last));
                }
                k.last_at = Some(now_ns);
                k.name
            };
            *i.buckets
                .borrow_mut()
                .entry(i.bucket_of(now_ns))
                .or_default()
                .by_kind
                .entry(name)
                .or_default() += 1;
        }
    }

    /// Adds wall-clock nanoseconds spent handling this kind (volatile
    /// attribution, surfaced through [`Profiler::wall_totals`]).
    #[inline]
    pub fn add_wall(&self, ns: u64) {
        if let Some((i, idx)) = &self.0 {
            i.kinds.borrow_mut()[*idx].wall_ns += ns;
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

/// Per-kind `(msgs counter, bytes counter)` pair minted on first use.
type KindCounters = (Counter, Counter);

struct NetProbeInner {
    registry: Registry,
    namer: RefCell<Option<TagNamer>>,
    cache: RefCell<BTreeMap<(&'static str, u64), KindCounters>>,
    msgs_total: Counter,
    bytes_total: Counter,
}

impl std::fmt::Debug for NetProbeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetProbeInner")
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

/// Registry-backed network send counters: `net.msgs.<kind>` /
/// `net.bytes.<kind>` plus `net.msgs.total` / `net.bytes.total`,
/// recorded per accepted send even when the full [`Profiler`] is off.
/// Inert when minted from a disabled registry (one `Option` check per
/// send).
#[derive(Debug, Clone, Default)]
pub struct NetProbe {
    inner: Option<Rc<NetProbeInner>>,
}

impl NetProbe {
    /// An inert probe (the default).
    pub fn disabled() -> Self {
        NetProbe::default()
    }

    /// A probe recording into `registry`; inert when the registry is
    /// disabled.
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return NetProbe::default();
        }
        NetProbe {
            inner: Some(Rc::new(NetProbeInner {
                registry: registry.clone(),
                namer: RefCell::new(None),
                cache: RefCell::new(BTreeMap::new()),
                msgs_total: registry.counter("net.msgs.total"),
                bytes_total: registry.counter("net.bytes.total"),
            })),
        }
    }

    /// Whether this probe records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs the message-kind namer (install before the run: the
    /// per-kind counter names are fixed on first use of each kind).
    pub fn set_tag_namer(&self, namer: impl Fn(&str, u64) -> Option<String> + 'static) {
        if let Some(i) = &self.inner {
            *i.namer.borrow_mut() = Some(Box::new(namer));
        }
    }

    /// Records one accepted send of `bytes` wire bytes.
    #[inline]
    pub fn record(&self, label: &'static str, tag: u64, bytes: u64) {
        if let Some(i) = &self.inner {
            let mut cache = i.cache.borrow_mut();
            let (msgs, bytes_c) = cache.entry((label, tag)).or_insert_with(|| {
                let name = i
                    .namer
                    .borrow()
                    .as_ref()
                    .and_then(|n| n(label, tag))
                    .unwrap_or_else(|| format!("{label}.t{tag}"));
                (
                    i.registry.counter(&format!("net.msgs.{name}")),
                    i.registry.counter(&format!("net.bytes.{name}")),
                )
            });
            msgs.incr();
            bytes_c.add(bytes);
            i.msgs_total.incr();
            i.bytes_total.add(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert_and_reports_empty() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.tick(5, 3);
        p.record_delivery(5, "agent", 0, "timer", 1);
        p.record_send("agent", 1, 0, 1, 32);
        let k = p.kind("activate");
        k.record(10);
        k.add_wall(99);
        assert!(p.report().is_empty());
        assert!(p.wall_totals().is_empty());
        assert!(p.report().to_jsonl().starts_with("{\"record\":\"profile\""));
    }

    #[test]
    fn wall_records_append_as_schema_valid_lines() {
        let p = Profiler::enabled();
        p.kind("activate").record(10);
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
        let k = p.kind("activate");
        for at in [100u64, 300, 600] {
            k.record(at);
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
        p.set_interval(Duration::from_nanos(100));
        p.tick(10, 4);
        p.tick(20, 9);
        p.tick(150, 2);
        let r = p.report();
        assert_eq!(r.timeline.len(), 2);
        assert_eq!(r.timeline[0].start_ns, 0);
        assert_eq!(r.timeline[0].events, 2);
        assert_eq!(r.timeline[0].queue_depth_max, 9);
        assert_eq!(r.timeline[1].start_ns, 100);
        assert_eq!(r.timeline[1].events, 1);
        assert_eq!(r.total_events, 3);
    }

    #[test]
    fn heartbeat_classifier_feeds_shares_and_timeline() {
        let p = Profiler::enabled();
        p.set_interval(Duration::from_nanos(100));
        p.set_heartbeat_pred(|label, class, tag| {
            label == "agent" && ((class == "timer" || class == "send") && tag == 1)
        });
        p.tick(10, 1);
        p.tick(20, 1);
        p.record_delivery(10, "agent", 0, "timer", 1);
        p.record_delivery(20, "group", 1, "message", 1);
        p.record_send("agent", 1, 0, 1, 32);
        p.record_send("group", 2, 1, 2, 32);
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
        p.set_tag_namer(|label, tag| (label == "agent" && tag == 1).then(|| "hb".to_string()));
        p.record_send("agent", 1, 0, 1, 32);
        p.record_send("agent", 1, 0, 1, 32);
        p.record_send("group", 5, 1, 2, 40);
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
        let k = p.kind("activate");
        k.record(10);
        k.record(30);
        p.tick(10, 1);
        p.tick(30, 2);
        p.record_delivery(10, "agent", 3, "timer", 1);
        p.record_send("agent", 1, 3, 4, 32);
        let doc = p.report().to_jsonl();
        ProfileReport::validate_jsonl(&doc).expect("valid document");
        assert!(doc.contains("\"record\":\"kind\""));
        assert!(doc.contains("\"record\":\"actor\""));
        assert!(doc.contains("\"record\":\"interval\""));
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
        p.kind("activate").record(10);
        p.kind("actor.timer").record(20);
        p.record_delivery(20, "agent", 2, "timer", 1);
        let folded = p.report().to_folded();
        assert_eq!(
            folded,
            "hades;engine;activate 1\nhades;engine;actor.timer;agent;n002 1\n"
        );
    }

    #[test]
    fn wall_totals_stay_out_of_the_deterministic_report() {
        let p = Profiler::enabled();
        let k = p.kind("activate");
        k.record(10);
        k.add_wall(1234);
        assert_eq!(p.wall_totals(), vec![("activate".to_string(), 1234)]);
        assert!(!p.report().to_jsonl().contains("1234"));
        // Two same-feed profilers with different wall figures still
        // produce byte-identical reports.
        let q = Profiler::enabled();
        let kq = q.kind("activate");
        kq.record(10);
        kq.add_wall(999_999);
        assert_eq!(p.report(), q.report());
        assert_eq!(p.report().to_jsonl(), q.report().to_jsonl());
    }

    #[test]
    fn net_probe_counts_per_kind_and_totals() {
        let registry = Registry::enabled();
        let probe = NetProbe::from_registry(&registry);
        probe.set_tag_namer(|label, tag| (label == "agent" && tag == 1).then(|| "hb".to_string()));
        probe.record("agent", 1, 32);
        probe.record("agent", 1, 32);
        probe.record("group", 9, 40);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.msgs.hb"), Some(2));
        assert_eq!(snap.counter("net.bytes.hb"), Some(64));
        assert_eq!(snap.counter("net.msgs.group.t9"), Some(1));
        assert_eq!(snap.counter("net.msgs.total"), Some(3));
        assert_eq!(snap.counter("net.bytes.total"), Some(104));
    }

    #[test]
    fn net_probe_from_disabled_registry_is_inert() {
        let probe = NetProbe::from_registry(&Registry::disabled());
        assert!(!probe.is_enabled());
        probe.record("agent", 1, 32);
    }
}
