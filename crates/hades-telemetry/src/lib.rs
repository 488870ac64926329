//! Observability layer of the HADES runtime: an engine-time metrics
//! registry, causally-linked protocol trace spans, and the hand-rolled
//! JSON plumbing their JSONL exports are written and schema-checked with.
//!
//! The design splits observability into two strictly separated halves:
//!
//! * **Deterministic engine-time telemetry** — counters, gauges and
//!   exact-tick histograms ([`Registry`]) plus trace spans ([`SpanLog`]),
//!   all pure functions of the simulation's deterministic event order.
//!   Two runs with the same spec and seed produce *byte-identical*
//!   snapshots and span JSONL; the property tests of the workspace
//!   assert exactly that.
//! * **Volatile wall-clock figures** — wall-time per engine event, peak
//!   RSS and friends. These are kept out of the deterministic snapshot
//!   entirely (see [`Registry::set_volatile`]) and only surface through
//!   [`Registry::volatiles`], which the measurement lab (`benchmark/`)
//!   reads — there nondeterminism is the point.
//!
//! A disabled registry (the default) is a single `Option` check on every
//! hot-path hook: handles minted from it carry no cell, so instrumented
//! code pays near-zero cost and — crucially — posts **zero additional
//! events** to the simulation engine either way.
//!
//! What happens *inside* a run loop reaches both the registry and the
//! profiler through one handle, the [`Probe`] ([`probe`]): built once
//! per run, installed through one setter per embedding, called once per
//! event delivered, delivery handled and message sent.
//!
//! On top of the passive half sits the **online invariant layer**
//! ([`monitor`]): a [`Watchdog`] of [`Monitor`]s that consumes the same
//! engine-time observation feeds and raises [`Violation`]s the instant a
//! cluster-wide protocol invariant breaks, instead of waiting for the
//! post-run report.
//!
//! Each observation type exists once, here: every protocol observation
//! and Section 3.2.1 dispatcher alarm is one [`MonitorEvent`] on one
//! [`ProtocolTap`], every order statistic one [`HistogramSummary`].
//! Three channels stay beside the tap, none of them an observation:
//! `hades_sim::mux::Postbox` is the wake channel a tap uses, because a
//! tap must not re-enter the engine; `hades_sim::Trace` is the event log
//! and Gantt chart that Figure 2 and `hades-dispatch/tests/locality.rs`
//! read; [`Probe`] carries the engine-side counters.
//!
//! The **profiling layer** ([`profile`]) follows the same split: a
//! [`Profiler`], fed by the probe, attributes engine work per event
//! kind, per actor and per link deterministically (with per-kind
//! wall-ns riding the volatile channel), aggregates a queue/event-mix
//! timeline, and exports schema-checked JSONL plus folded-stacks
//! flamegraph text. Every export's schema is in `SCHEMAS.md` at the
//! repository root.
//!
//! # Examples
//!
//! Counting and summarising with a registry:
//!
//! ```
//! use hades_telemetry::Registry;
//!
//! let registry = Registry::enabled();
//! let events = registry.counter("engine.events");
//! let depth = registry.gauge("engine.queue_depth_peak");
//! let lat = registry.histogram("group.response_ns");
//!
//! for d in [3u64, 1, 2] {
//!     events.incr();
//!     depth.record_max(d);
//!     lat.record(d * 1_000);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("engine.events"), Some(3));
//! assert_eq!(snap.gauge("engine.queue_depth_peak"), Some(3));
//! assert_eq!(snap.histogram("group.response_ns").unwrap().p50, 2_000);
//! ```
//!
//! Building a span tree:
//!
//! ```
//! use hades_telemetry::SpanLog;
//! use hades_time::{Duration, Time};
//!
//! let t = |ms| Time::ZERO + Duration::from_millis(ms);
//! let mut spans = SpanLog::new();
//! let rejoin = spans.root("rejoin", "n1", Some(1), t(10), t(42));
//! spans.phase(rejoin, "announce", t(20), t(22));
//! spans.phase(rejoin, "transfer", t(22), t(35));
//! spans.child(rejoin, "detect", "n0 suspects n1", Some(0), t(10), t(13));
//! assert_eq!(spans.to_jsonl().lines().count(), 2);
//! assert!(spans.render_tree().contains("rejoin"));
//! ```

#![warn(missing_docs)]

pub mod fabric;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod probe;
pub mod profile;
pub mod span;
pub mod stats;

pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use monitor::{
    Monitor, MonitorCtx, MonitorEvent, MonitorParams, ProtocolTap, Violation, Watchdog,
};
pub use probe::Probe;
pub use profile::{
    ActorProfile, IntervalProfile, KindProfile, ProfileReport, Profiler, TrafficProfile,
    DELIVERY_CLASSES,
};
pub use span::{Phase, Span, SpanId, SpanLog};
pub use stats::HistogramSummary;

/// The deterministic telemetry a run hands back to its caller: the
/// metrics snapshot and the protocol span log, both `Eq`-comparable so
/// same-seed runs can be asserted byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunTelemetry {
    /// Counters, gauges and histogram summaries at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Causally-linked protocol trace spans (rejoin, failover, view
    /// agreement, Δ-multicast requests).
    pub spans: SpanLog,
}

impl RunTelemetry {
    /// Whether the run recorded anything at all (a disabled registry
    /// produces an empty telemetry).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.spans.is_empty()
    }
}
