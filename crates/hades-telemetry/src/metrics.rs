//! The metrics registry: engine-time counters, gauges and exact-tick
//! histograms with near-zero cost when disabled.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are minted by name
//! from a [`Registry`] and cached by the instrumented code; a handle
//! minted from a disabled registry carries no storage, so every hot-path
//! update degenerates to one `Option` discriminant check. Minting the
//! same name twice returns handles over the same cell.
//!
//! Histograms record raw `u64` samples (engine-time nanoseconds by
//! convention) and summarise them with **exact nearest-rank**
//! percentiles up to p999 ([`HistogramSummary`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::json;
use crate::stats::HistogramSummary;

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RefCell<BTreeMap<String, Rc<Cell<u64>>>>,
    gauges: RefCell<BTreeMap<String, Rc<Cell<u64>>>>,
    histograms: RefCell<BTreeMap<String, Rc<RefCell<Vec<u64>>>>>,
    /// Wall-clock and other nondeterministic figures: readable through
    /// [`Registry::volatiles`] but **never** part of the deterministic
    /// [`MetricsSnapshot`].
    volatile: RefCell<BTreeMap<String, u64>>,
}

/// A clonable handle to one run's metric store; disabled by default.
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Rc<RegistryInner>>,
}

impl Registry {
    /// An enabled registry: handles minted from it record.
    pub fn enabled() -> Self {
        Registry {
            inner: Some(Rc::new(RegistryInner::default())),
        }
    }

    /// A disabled registry: handles minted from it are inert and every
    /// update is one `Option` check (this is also [`Default`]).
    pub fn disabled() -> Self {
        Registry::default()
    }

    /// Whether this registry records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Mints (or re-opens) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            i.counters
                .borrow_mut()
                .entry(name.to_string())
                .or_default()
                .clone()
        }))
    }

    /// Mints (or re-opens) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            i.gauges
                .borrow_mut()
                .entry(name.to_string())
                .or_default()
                .clone()
        }))
    }

    /// Mints (or re-opens) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| {
            i.histograms
                .borrow_mut()
                .entry(name.to_string())
                .or_default()
                .clone()
        }))
    }

    /// Records a **volatile** (nondeterministic, e.g. wall-clock) value.
    /// Volatile values never enter the deterministic snapshot.
    pub fn set_volatile(&self, name: &str, value: u64) {
        if let Some(i) = &self.inner {
            i.volatile.borrow_mut().insert(name.to_string(), value);
        }
    }

    /// Reads back one volatile value.
    pub fn volatile(&self, name: &str) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|i| i.volatile.borrow().get(name).copied())
    }

    /// All volatile values, sorted by name.
    pub fn volatiles(&self) -> Vec<(String, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.volatile
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        })
    }

    /// The deterministic snapshot: every counter, gauge and histogram
    /// summary, sorted by name. A disabled registry snapshots empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(i) = &self.inner else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: i
                .counters
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: i
                .gauges
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: i
                .histograms
                .borrow()
                .iter()
                .filter_map(|(k, v)| HistogramSummary::of(&v.borrow()).map(|s| (k.clone(), s)))
                .collect(),
        }
    }
}

/// A monotonically increasing counter handle; inert when minted from a
/// disabled registry (or by [`Default`]).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get() + n);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A last-value / high-water gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Rc<Cell<u64>>>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.set(v);
        }
    }

    /// Raises the value to `v` if `v` is larger (high-water tracking).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(c) = &self.0 {
            if v > c.get() {
                c.set(v);
            }
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// An exact-sample histogram handle: samples are retained verbatim and
/// summarised with nearest-rank percentiles at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Rc<RefCell<Vec<u64>>>>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.borrow_mut().push(v);
        }
    }

    /// Number of recorded samples (0 when inert).
    pub fn count(&self) -> usize {
        self.0.as_ref().map_or(0, |c| c.borrow().len())
    }
}

/// The deterministic end-of-run view of a [`Registry`]: every metric,
/// sorted by name, in `Eq`-comparable form. [`MetricsSnapshot::to_jsonl`]
/// is the byte-stable serialization the determinism tests compare.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` histograms, sorted by name (empty histograms
    /// are dropped).
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of the counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Summary of the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, s)| s)
    }

    /// One JSON object per line, one line per metric, sorted by kind
    /// then name — byte-identical across same-seed runs.
    ///
    /// Schema: `{"metric":<name>,"type":"counter"|"gauge","value":<u64>}`
    /// for scalars and `{"metric":<name>,"type":"histogram","count":…,
    /// "min":…,"max":…,"mean":…,"p50":…,"p95":…,"p99":…,"p999":…}` for
    /// histograms.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"metric\":{},\"type\":\"counter\",\"value\":{v}}}",
                json::escape(name)
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"metric\":{},\"type\":\"gauge\",\"value\":{v}}}",
                json::escape(name)
            );
        }
        for (name, s) in &self.histograms {
            let _ = writeln!(
                out,
                "{{\"metric\":{},\"type\":\"histogram\",\"count\":{},\"min\":{},\"max\":{},\
                 \"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                json::escape(name),
                s.count,
                s.min,
                s.max,
                s.mean,
                s.p50,
                s.p95,
                s.p99,
                s.p999,
            );
        }
        out
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  counter   {name:<40} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  gauge     {name:<40} {v}");
        }
        for (name, s) in &self.histograms {
            let _ = writeln!(
                out,
                "  histogram {name:<40} n={} min={} mean={} p50={} p95={} p99={} p999={} max={}",
                s.count, s.min, s.mean, s.p50, s.p95, s.p99, s.p999, s.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert_and_snapshots_empty() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.incr();
        assert_eq!(c.get(), 0);
        r.set_volatile("w", 7);
        assert_eq!(r.volatile("w"), None);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn same_name_shares_the_cell() {
        let r = Registry::enabled();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.snapshot().counter("a"), Some(5));
    }

    #[test]
    fn gauge_high_water_only_rises() {
        let r = Registry::enabled();
        let g = r.gauge("depth");
        g.record_max(5);
        g.record_max(3);
        assert_eq!(g.get(), 5);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_percentiles_are_exact_nearest_rank() {
        let s = HistogramSummary::of(&(1..=1000).collect::<Vec<u64>>()).unwrap();
        assert_eq!(s.p50, 500);
        assert_eq!(s.p95, 950);
        assert_eq!(s.p99, 990);
        assert_eq!(s.p999, 999);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean, 500); // 500.5 rounded down
    }

    #[test]
    fn small_histograms_clamp_ranks() {
        let s = HistogramSummary::of(&[7]).unwrap();
        assert_eq!((s.p50, s.p99, s.p999, s.max), (7, 7, 7, 7));
        let s = HistogramSummary::of(&[10, 20]).unwrap();
        assert_eq!(s.p50, 10, "lower middle sample for even counts");
        assert_eq!(s.p999, 20);
    }

    #[test]
    fn volatile_values_stay_out_of_the_snapshot() {
        let r = Registry::enabled();
        r.counter("det").incr();
        r.set_volatile("wall_ns", 123);
        assert_eq!(r.volatile("wall_ns"), Some(123));
        assert_eq!(r.volatiles(), vec![("wall_ns".to_string(), 123)]);
        let jsonl = r.snapshot().to_jsonl();
        assert!(!jsonl.contains("wall_ns"));
        assert!(jsonl.contains("\"metric\":\"det\""));
    }

    #[test]
    fn snapshot_jsonl_is_sorted_and_stable() {
        let r = Registry::enabled();
        r.counter("b").incr();
        r.counter("a").incr();
        r.histogram("h").record(5);
        let one = r.snapshot().to_jsonl();
        let two = r.snapshot().to_jsonl();
        assert_eq!(one, two);
        let a = one.find("\"a\"").unwrap();
        let b = one.find("\"b\"").unwrap();
        assert!(a < b, "counters sorted by name");
        assert!(one.contains("\"type\":\"histogram\""));
    }
}
