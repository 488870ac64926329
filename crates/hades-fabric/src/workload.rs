//! Population-scale workload generators.
//!
//! Simulating 10⁶ clients as 10⁶ actors would drown the engine in think
//! timers. The fabric instead models a population as a handful of *load
//! classes*: each class carries a client-count **multiplier** and a mean
//! per-client think time, and one generator per class synthesises the
//! *aggregate* arrival process those clients would produce — a stream
//! with mean inter-arrival `think / clients`. One actor per class, not
//! per client, so a million-client fabric costs the engine a few
//! thousand materialized requests instead of a million timers.
//!
//! [`PopulationWorkload`] implements the cluster runtime's
//! [`Workload`] trait, so a load class drops into any
//! `ServiceSpec::workload` slot unchanged; the fabric additionally uses
//! [`PopulationWorkload::events`] to obtain `(instant, key)` pairs and
//! route each request to its shard.
//!
//! Everything is a pure function of the class shape and a seed — no
//! wall clock, no global RNG — so same-seed fabrics materialize
//! byte-identical schedules.
//!
//! # Examples
//!
//! ```
//! use hades_fabric::{Arrival, LoadClass, PopulationWorkload};
//! use hades_cluster::Workload;
//! use hades_time::Duration;
//!
//! // 100k browsing clients thinking 10 s each → ~10k requests/s.
//! let class = LoadClass::new("browse", 100_000, Duration::from_secs(10));
//! let w = PopulationWorkload::new(class, 7);
//! let times = w.request_times(Duration::from_millis(5));
//! assert!(!times.is_empty());
//! assert!(times.windows(2).all(|p| p[0] < p[1]), "strictly increasing");
//! assert_eq!(times, PopulationWorkload::new(
//!     LoadClass::new("browse", 100_000, Duration::from_secs(10)), 7,
//! ).request_times(Duration::from_millis(5)), "same seed, same schedule");
//! ```

use hades_cluster::Workload;
use hades_time::{Duration, Time};
use std::ops::ControlFlow;

use crate::ring::mix64;

/// Shape of a load class's aggregate arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Memoryless arrivals: exponential inter-arrival gaps around the
    /// aggregate mean — the superposition limit of many independent
    /// clients.
    Poisson,
    /// On/off bursts: the class fires at a proportionally higher rate
    /// for `on`, then goes silent for `off`, keeping the same average
    /// rate over a cycle.
    Bursty {
        /// Length of the active window.
        on: Duration,
        /// Length of the silent window.
        off: Duration,
    },
    /// Diurnal-style ramp: the instantaneous rate climbs linearly from
    /// `from_permille`/1000 of nominal at the start of the horizon to
    /// nominal at its end.
    Ramp {
        /// Starting rate in permille of the nominal class rate (clamped
        /// to at least 1).
        from_permille: u32,
    },
}

/// One population segment: `clients` simulated clients of mean think
/// time `think`, arriving per `arrival`.
///
/// The class never materializes its clients — `clients` is a pure
/// multiplier on the aggregate rate (`clients / think` requests per
/// second).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadClass {
    /// Class label (diagnostics and reports).
    pub name: String,
    /// Simulated client count — the aggregate-rate multiplier.
    pub clients: u64,
    /// Mean per-client think time between requests.
    pub think: Duration,
    /// Aggregate arrival shape.
    pub arrival: Arrival,
}

impl LoadClass {
    /// A Poisson class of `clients` clients thinking `think` each.
    ///
    /// Zero clients or a zero think time make a class that is not
    /// [`valid`](LoadClass::is_valid): `FabricSpec::run` reports it as
    /// `FabricError::InvalidLoadClass`.
    pub fn new(name: impl Into<String>, clients: u64, think: Duration) -> Self {
        LoadClass {
            name: name.into(),
            clients,
            think,
            arrival: Arrival::Poisson,
        }
    }

    /// Overrides the arrival shape.
    pub fn arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Whether the class can generate a stream: at least one client, a
    /// positive think time, and a `Bursty` cycle (`on + off`) that is
    /// not empty.
    pub fn is_valid(&self) -> bool {
        let empty_cycle =
            matches!(self.arrival, Arrival::Bursty { on, off } if on.is_zero() && off.is_zero());
        self.clients > 0 && !self.think.is_zero() && !empty_cycle
    }

    /// Mean aggregate inter-arrival gap, `think / clients`, floored at
    /// one nanosecond tick; `Duration::MAX` for a class of no clients.
    pub fn mean_gap(&self) -> Duration {
        let gap = self.think.as_nanos().checked_div(self.clients);
        Duration::from_nanos(gap.unwrap_or(u64::MAX).max(1))
    }
}

/// Salt separating the request-key stream from the gap stream.
const KEY_SALT: u64 = 0x4B_45_59_53; // "KEYS"

/// The minimum inter-arrival gap (peak-rate cap).
const GAP_FLOOR: Duration = Duration::from_micros(1);

/// Deterministic aggregate request stream of one [`LoadClass`].
///
/// Implements [`Workload`], so it plugs into `ServiceSpec::workload`
/// like any other generator; the fabric calls [`events`] instead to
/// get keyed requests it can route to shards.
///
/// Gaps are clamped below at 1 µs so the admission charge a feasibility
/// analysis derives from the peak rate stays finite even for very large
/// populations.
///
/// [`events`]: PopulationWorkload::events
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationWorkload {
    /// The population segment this stream aggregates.
    pub class: LoadClass,
    seed: u64,
    start: Time,
}

impl PopulationWorkload {
    /// The aggregate stream of `class`, drawn from `seed`, starting at
    /// 1 ms (matching `GroupLoad`'s default first request).
    pub fn new(class: LoadClass, seed: u64) -> Self {
        PopulationWorkload {
            class,
            seed,
            start: Time::ZERO + Duration::from_millis(1),
        }
    }

    /// Overrides the first possible arrival instant.
    pub fn start(mut self, start: Time) -> Self {
        self.start = start;
        self
    }

    /// Materializes the aggregate stream as `(instant, key)` pairs —
    /// strictly increasing instants in `[start, horizon)`, each stamped
    /// with a deterministic 64-bit request key the router hashes onto a
    /// shard. A class that is not [`valid`](LoadClass::is_valid) has an
    /// empty stream.
    pub fn events(&self, horizon: Duration) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        let _ = self.stream(horizon, |t| {
            let key = mix64(self.seed ^ KEY_SALT ^ (out.len() as u64) << 8);
            out.push((t, key));
            ControlFlow::Continue(())
        });
        out
    }

    /// Hands the stream's instants to `visit` in order, stopping when it
    /// breaks; a class that is not valid streams nothing.
    fn stream(
        &self,
        horizon: Duration,
        mut visit: impl FnMut(Time) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !self.class.is_valid() {
            return ControlFlow::Continue(());
        }
        let end = Time::ZERO + horizon;
        let mean_ns = self.class.mean_gap().as_nanos();
        let floor_ns = GAP_FLOOR.as_nanos();
        let mut t = self.start;
        let mut draw = 0u64;
        while t < end {
            visit(t)?;
            let gap_ns = match self.class.arrival {
                Arrival::Poisson => {
                    // Inverse-CDF exponential from a 53-bit uniform in
                    // (0, 1]; IEEE f64 ops are exact functions of their
                    // inputs, so the draw is deterministic.
                    let bits = mix64(self.seed ^ draw) >> 11;
                    let u = (bits as f64 + 1.0) / (1u64 << 53) as f64;
                    (-(u.ln()) * mean_ns as f64) as u64
                }
                Arrival::Bursty { on, off } => {
                    let cycle = on + off;
                    // Peak gap keeps the cycle average at the nominal
                    // mean: all traffic compressed into the on-window.
                    let peak =
                        (mean_ns as u128 * on.as_nanos() as u128 / cycle.as_nanos() as u128) as u64;
                    let next = t + Duration::from_nanos(peak.max(floor_ns));
                    let pos = next.elapsed_since(self.start).as_nanos() % cycle.as_nanos();
                    if pos < on.as_nanos() {
                        peak
                    } else {
                        // Jump to the start of the next on-window.
                        next.elapsed_since(t).as_nanos() + (cycle.as_nanos() - pos)
                    }
                }
                Arrival::Ramp { from_permille } => {
                    let elapsed = t
                        .elapsed_since(Time::ZERO)
                        .as_nanos()
                        .min(horizon.as_nanos());
                    let f = from_permille.max(1) as u128
                        + (1000u128 - from_permille.min(1000) as u128) * elapsed as u128
                            / horizon.as_nanos().max(1) as u128;
                    (mean_ns as u128 * 1000 / f) as u64
                }
            };
            draw += 1;
            t += Duration::from_nanos(gap_ns.max(floor_ns));
        }
        ControlFlow::Continue(())
    }
}

impl Workload for PopulationWorkload {
    fn for_each_request(
        &self,
        horizon: Duration,
        visit: &mut dyn FnMut(Time) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.stream(horizon, visit)
    }

    fn admission_period(&self, horizon: Duration) -> Duration {
        // Peak rate of the stream, exactly like `TraceReplay`: the
        // minimum separation, floored by the generator's own gap floor.
        let (mut prev, mut min_gap) = (None, None::<Duration>);
        let _ = self.stream(horizon, |t| {
            if let Some(prev) = prev.replace(t) {
                min_gap = Some(min_gap.map_or(t - prev, |m| m.min(t - prev)));
            }
            ControlFlow::Continue(())
        });
        min_gap.unwrap_or_else(|| self.class.mean_gap().max(GAP_FLOOR))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn poisson_stream_hits_the_aggregate_rate() {
        let class = LoadClass::new("web", 1_000_000, Duration::from_secs(10));
        let w = PopulationWorkload::new(class, 42);
        // 100k req/s → ~3000 over 30 ms (minus the 1 ms start offset).
        let n = w.request_times(ms(30)).len() as f64;
        assert!((2000.0..4200.0).contains(&n), "got {n} requests");
    }

    #[test]
    fn streams_are_strictly_increasing_and_seeded() {
        for arrival in [
            Arrival::Poisson,
            Arrival::Bursty {
                on: ms(2),
                off: ms(3),
            },
            Arrival::Ramp { from_permille: 100 },
        ] {
            let class = LoadClass::new("c", 200_000, Duration::from_secs(5)).arrival(arrival);
            let a = PopulationWorkload::new(class.clone(), 9).events(ms(20));
            let b = PopulationWorkload::new(class.clone(), 9).events(ms(20));
            let c = PopulationWorkload::new(class, 10).events(ms(20));
            assert_eq!(a, b, "{arrival:?}: same seed must reproduce");
            assert_ne!(a, c, "{arrival:?}: different seed must differ");
            assert!(
                a.windows(2).all(|p| p[0].0 < p[1].0),
                "{arrival:?}: instants must strictly increase"
            );
        }
    }

    #[test]
    fn bursty_stream_goes_silent_in_the_off_window() {
        let class =
            LoadClass::new("tick", 100_000, Duration::from_secs(1)).arrival(Arrival::Bursty {
                on: ms(2),
                off: ms(8),
            });
        let w = PopulationWorkload::new(class, 3).start(Time::ZERO);
        let times = w.request_times(ms(10));
        assert!(!times.is_empty());
        for t in &times {
            let pos = t.elapsed_since(Time::ZERO).as_nanos() % ms(10).as_nanos();
            assert!(pos < ms(2).as_nanos(), "arrival at {t:?} outside on-window");
        }
    }

    #[test]
    fn ramp_stream_accelerates_toward_the_horizon() {
        let class = LoadClass::new("diurnal", 500_000, Duration::from_secs(5))
            .arrival(Arrival::Ramp { from_permille: 100 });
        let times = PopulationWorkload::new(class, 11).request_times(ms(40));
        let mid = Time::ZERO + ms(20);
        let early = times.iter().filter(|t| **t < mid).count();
        let late = times.len() - early;
        assert!(
            late > early * 2,
            "ramp should back-load: {early} early vs {late} late"
        );
    }

    #[test]
    fn admission_period_is_the_peak_separation() {
        let class = LoadClass::new("c", 10_000, Duration::from_secs(1));
        let w = PopulationWorkload::new(class, 5);
        let times = w.request_times(ms(50));
        let min_gap = times.windows(2).map(|p| p[1] - p[0]).min().unwrap();
        assert_eq!(w.admission_period(ms(50)), min_gap);
        assert!(min_gap >= Duration::from_micros(1), "floor respected");
    }
}
