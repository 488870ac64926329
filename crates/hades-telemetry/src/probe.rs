//! The one engine-side hook: what an embedding run loop calls, and the
//! only thing it calls, to be observed.
//!
//! A [`Probe`] is built once per run from the run's [`Registry`] and
//! [`Profiler`] (either, both or neither enabled) together with the
//! embedding's message-kind namer and heartbeat classifier. The run loop
//! then reports each thing **once**, at the place it happens:
//!
//! | call | call site | what it feeds |
//! |------|-----------|---------------|
//! | [`Probe::event`] | `Simulation::handle`, once per delivered event | profile totals, timeline bucket (events, queue depth, event mix), kind row (count, gaps) and — through the returned guard — the kind's wall-clock total |
//! | [`Probe::delivery`] | `ActorHost::deliver`, once per *handled* delivery | `actors.<class>_events`, the profile's per-actor row, heartbeat totals and timeline share |
//! | [`Probe::send`] | `ActorCtx::send` and the dispatcher's remote-precedence send, once per *accepted* send | `net.msgs.*` / `net.bytes.*`, the profile's traffic matrix and message totals |
//!
//! What the engine itself counts (events delivered, queue-depth high
//! water) it keeps as plain integers; the embedding publishes them once
//! at the end of the run through [`Probe::run_ended`].
//!
//! A probe built from a disabled registry and a disabled profiler (also
//! the [`Default`] one) holds nothing: each call is one `Option` check. An
//! enabled probe is pure observation — it never posts events and never
//! changes what the run does.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use crate::metrics::{Counter, Registry};
use crate::profile::{ProfileState, Profiler, DELIVERY_CLASSES};

/// Resolves `(sender label, protocol tag)` to a message kind name; `None`
/// falls back to `<label>.t<tag>`.
type TagNamer = Box<dyn Fn(&str, u64) -> Option<String>>;

/// Classifies `(actor label, class, tag)` as heartbeat work; `class` is a
/// delivery class or `"send"`.
type HeartbeatPred = Box<dyn Fn(&str, &str, u64) -> bool>;

/// What one `(sender label, tag)` message kind resolved to, on first use.
struct SendKind {
    msgs: Counter,
    bytes: Counter,
    heartbeat: bool,
    /// Its row in the profiler's traffic matrix (0 without a profiler).
    row: usize,
}

struct ProbeInner {
    registry: Registry,
    profiler: Profiler,
    namer: TagNamer,
    heartbeat: HeartbeatPred,
    /// The embedding's event-kind index → the profiler's kind row.
    kind_rows: RefCell<Vec<usize>>,
    /// `actors.<class>_events`, in [`DELIVERY_CLASSES`] order.
    class_events: [Counter; 5],
    msgs_total: Counter,
    bytes_total: Counter,
    send_kinds: RefCell<BTreeMap<(&'static str, u64), SendKind>>,
}

/// A clonable handle to one run's observers; see the [module docs](self).
#[derive(Clone, Default)]
pub struct Probe(Option<Rc<ProbeInner>>);

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Probe(enabled: {})", self.is_enabled())
    }
}

/// Closes one event's wall-clock attribution when dropped.
struct Handling(Option<(Rc<RefCell<ProfileState>>, usize, Instant)>);

impl Drop for Handling {
    fn drop(&mut self) {
        // `try_`: a drop while a handler unwinds must not panic in turn.
        if let Some((profile, row, start)) = self.0.take() {
            if let Ok(mut profile) = profile.try_borrow_mut() {
                profile.add_wall(row, start.elapsed().as_nanos() as u64);
            }
        }
    }
}

impl Probe {
    /// A probe feeding `registry` and `profiler`; holds nothing when both
    /// are disabled. `namer` resolves `(sender label, protocol tag)` to
    /// the message kind name of the `net.msgs.<kind>` / `net.bytes.<kind>`
    /// counters and the traffic matrix (`None` falls back to
    /// `<label>.t<tag>`); `heartbeat` classifies `(actor label, class,
    /// tag)` — `class` a delivery class (`"timer"`, `"message"`, …) or
    /// `"send"` — as heartbeat work for the profile's heartbeat shares.
    pub fn new(
        registry: &Registry,
        profiler: &Profiler,
        namer: impl Fn(&str, u64) -> Option<String> + 'static,
        heartbeat: impl Fn(&str, &str, u64) -> bool + 'static,
    ) -> Self {
        if !registry.is_enabled() && !profiler.is_enabled() {
            return Probe(None);
        }
        let class_events = |c| registry.counter(&format!("actors.{c}_events"));
        Probe(Some(Rc::new(ProbeInner {
            registry: registry.clone(),
            profiler: profiler.clone(),
            namer: Box::new(namer),
            heartbeat: Box::new(heartbeat),
            kind_rows: RefCell::default(),
            class_events: DELIVERY_CLASSES.map(class_events),
            msgs_total: registry.counter("net.msgs.total"),
            bytes_total: registry.counter("net.bytes.total"),
            send_kinds: RefCell::default(),
        })))
    }

    /// Whether any observer is attached.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The registry this probe feeds (disabled when there is none): where
    /// an embedding publishes what it counts itself.
    pub fn registry(&self) -> Registry {
        let registry = self.0.as_ref().map(|i| i.registry.clone());
        registry.unwrap_or_default()
    }

    /// Declares the embedding's event kinds: the `kind` of
    /// [`Probe::event`] indexes `names`, and every name gets a row in the
    /// profile report whether or not an event of it is ever delivered.
    pub fn kinds(&self, names: &[&'static str]) {
        let Some(i) = &self.0 else { return };
        if let Some(p) = &i.profiler.inner {
            let mut p = p.borrow_mut();
            *i.kind_rows.borrow_mut() = names.iter().map(|n| p.kind_row(n)).collect();
        }
    }

    /// Reports one delivered event, at the top of `Simulation::handle`:
    /// engine time, pending-queue length and — for embeddings that
    /// declared their [kinds](Probe::kinds) — the event's kind. Hold the
    /// returned guard until the handler returns: dropping it closes the
    /// kind's wall-clock attribution.
    #[inline]
    pub fn event(&self, now_ns: u64, queue_len: u64, kind: Option<usize>) -> impl Drop {
        let profiled = self
            .0
            .as_ref()
            .and_then(|i| Some((i, i.profiler.inner.as_ref()?)));
        let Some((i, profile)) = profiled else {
            return Handling(None);
        };
        let row = kind.map(|k| i.kind_rows.borrow()[k]);
        profile.borrow_mut().event(now_ns, queue_len, row);
        Handling(row.map(|row| (profile.clone(), row, Instant::now())))
    }

    /// Reports one *handled* actor delivery: the receiving actor's label
    /// and node, the delivery class as an index into
    /// [`DELIVERY_CLASSES`] and the protocol tag.
    #[inline]
    pub fn delivery(&self, now_ns: u64, label: &'static str, node: u32, class: usize, tag: u64) {
        let Some(i) = &self.0 else { return };
        i.class_events[class].incr();
        if let Some(p) = &i.profiler.inner {
            let heartbeat = (i.heartbeat)(label, DELIVERY_CLASSES[class], tag);
            p.borrow_mut()
                .delivery(now_ns, label, node, class, heartbeat);
        }
    }

    /// Reports one message the network *accepted* (omitted sends never
    /// consume bandwidth downstream): sender label, protocol tag, the two
    /// nodes and the wire bytes. The kind's name and heartbeat class are
    /// resolved once, on its first send.
    #[inline]
    pub fn send(&self, label: &'static str, tag: u64, from: u32, to: u32, bytes: u64) {
        let Some(i) = &self.0 else { return };
        let mut kinds = i.send_kinds.borrow_mut();
        let kind = kinds.entry((label, tag)).or_insert_with(|| {
            let name = (i.namer)(label, tag).unwrap_or_else(|| format!("{label}.t{tag}"));
            let profile = i.profiler.inner.as_ref();
            SendKind {
                msgs: i.registry.counter(&format!("net.msgs.{name}")),
                bytes: i.registry.counter(&format!("net.bytes.{name}")),
                heartbeat: (i.heartbeat)(label, "send", tag),
                row: profile.map_or(0, |p| p.borrow_mut().send_kind_row(label, &name)),
            }
        });
        kind.msgs.incr();
        kind.bytes.add(bytes);
        i.msgs_total.incr();
        i.bytes_total.add(bytes);
        if let Some(p) = &i.profiler.inner {
            p.borrow_mut()
                .send(kind.row, from, to, bytes, kind.heartbeat);
        }
    }

    /// Closes a `run` of the embedding's engine: adds the `events` it
    /// delivered to `engine.events`, raises `engine.queue_depth_peak` to
    /// the engine's high water, and copies the per-kind wall-clock totals
    /// onto the registry's **volatile** channel (`profile.wall_ns.<kind>`,
    /// never part of the deterministic snapshot or profile report).
    pub fn run_ended(&self, events: u64, queue_depth_peak: u64) {
        let Some(i) = &self.0 else { return };
        i.registry.counter("engine.events").add(events);
        let peak = i.registry.gauge("engine.queue_depth_peak");
        peak.record_max(queue_depth_peak);
        for (kind, ns) in i.profiler.wall_totals() {
            let name = format!("profile.wall_ns.{kind}");
            i.registry.set_volatile(&name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb_namer(label: &str, tag: u64) -> Option<String> {
        (label == "agent" && tag == 1).then(|| "hb".to_string())
    }

    #[test]
    fn one_call_feeds_both_sinks_the_same_number() {
        let (registry, profiler) = (Registry::enabled(), Profiler::enabled());
        let probe = Probe::new(&registry, &profiler, hb_namer, |_, class, tag| {
            (class == "timer" || class == "send") && tag == 1
        });
        probe.kinds(&["actor.timer", "work_done"]);
        for at in [10, 20, 30] {
            drop(probe.event(at, 2, Some(0)));
            probe.delivery(at, "agent", 0, 2, 1);
            probe.send("agent", 1, 0, 1, 32);
        }
        probe.run_ended(3, 2);
        let (snap, report) = (registry.snapshot(), profiler.report());
        assert_eq!(snap.counter("engine.events"), Some(report.total_events));
        assert_eq!(snap.gauge("engine.queue_depth_peak"), Some(2));
        assert_eq!(snap.counter("actors.timer_events"), Some(3));
        assert_eq!(report.actors[0].events, 3);
        assert_eq!(snap.counter("net.msgs.hb"), Some(report.total_msgs));
        assert_eq!(snap.counter("net.bytes.total"), Some(report.total_bytes));
        assert_eq!((report.heartbeat_events, report.heartbeat_msgs), (3, 3));
        // A declared kind keeps its row even when it never fires.
        assert_eq!(report.kind("work_done").map(|k| k.count), Some(0));
        assert_eq!(report.kind("actor.timer").map(|k| k.count), Some(3));
    }
}
