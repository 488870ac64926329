//! Bounded-delay network with omission and performance failures.
//!
//! The paper assumes an ATM interconnect whose failures are *omissions*
//! (messages lost) and *performance failures* (messages delivered late).
//! [`Network`] reproduces that envelope: each directed link delivers within
//! `[δmin, δmax]` when healthy, loses a message with a configured
//! probability, and occasionally exceeds `δmax` by a bounded excess when a
//! performance failure is injected.
//!
//! The network is a *policy* object: it decides when (whether) a message
//! arrives; the caller posts the corresponding delivery event on its own
//! [`crate::Engine`]. This keeps the network reusable under any event
//! vocabulary.

use crate::fault::FaultPlan;
use crate::rng::SimRng;
use hades_time::{Duration, Time};
use std::collections::HashMap;

/// Identifier of a processing node (site) in the distributed system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-link behaviour: delay bounds and failure rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Minimum healthy transit delay.
    pub delay_min: Duration,
    /// Maximum healthy transit delay.
    pub delay_max: Duration,
    /// Probability (‰) that a message is lost (omission failure).
    pub omission_permille: u32,
    /// Probability (‰) that a message suffers a performance failure
    /// (delivered after `delay_max`).
    pub late_permille: u32,
    /// Maximum excess over `delay_max` for performance failures.
    pub late_excess_max: Duration,
}

impl LinkConfig {
    /// A healthy link with the given delay bounds and no failures.
    ///
    /// # Panics
    ///
    /// Panics if `delay_min > delay_max`.
    pub fn reliable(delay_min: Duration, delay_max: Duration) -> Self {
        assert!(
            delay_min <= delay_max,
            "delay_min must not exceed delay_max"
        );
        LinkConfig {
            delay_min,
            delay_max,
            omission_permille: 0,
            late_permille: 0,
            late_excess_max: Duration::ZERO,
        }
    }

    /// Returns a copy with the given omission probability (‰).
    pub fn with_omissions(mut self, permille: u32) -> Self {
        self.omission_permille = permille;
        self
    }

    /// Returns a copy with the given performance-failure rate (‰) and
    /// maximum lateness.
    pub fn with_performance_failures(mut self, permille: u32, excess_max: Duration) -> Self {
        self.late_permille = permille;
        self.late_excess_max = excess_max;
        self
    }
}

impl Default for LinkConfig {
    /// A LAN-ish default: 5–50 µs transit, no failures.
    fn default() -> Self {
        LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(50))
    }
}

/// Outcome of handing one message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives at the given absolute time.
    At(Time),
    /// The message was lost (omission, scripted cut, or dead endpoint).
    Omitted,
}

impl Delivery {
    /// Delivery time if the message arrives.
    pub fn time(self) -> Option<Time> {
        match self {
            Delivery::At(t) => Some(t),
            Delivery::Omitted => None,
        }
    }
}

/// Counters describing one run's network behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages that will be delivered on time (within `delay_max`).
    pub delivered_on_time: u64,
    /// Messages delivered late (performance failures).
    pub delivered_late: u64,
    /// Messages lost to probabilistic omissions.
    pub omitted_random: u64,
    /// Messages lost to scripted cuts or dead endpoints.
    pub omitted_scripted: u64,
}

impl NetworkStats {
    /// Total lost messages.
    pub fn omitted(&self) -> u64 {
        self.omitted_random + self.omitted_scripted
    }
}

/// The simulated interconnect.
///
/// # Examples
///
/// ```
/// use hades_sim::{Delivery, LinkConfig, Network, NodeId, SimRng};
/// use hades_time::{Duration, Time};
///
/// let cfg = LinkConfig::reliable(Duration::from_micros(10), Duration::from_micros(20));
/// let mut net = Network::homogeneous(4, cfg, SimRng::seed_from(1));
/// match net.transit(NodeId(0), NodeId(1), Time::ZERO) {
///     Delivery::At(t) => {
///         assert!(t >= Time::ZERO + Duration::from_micros(10));
///         assert!(t <= Time::ZERO + Duration::from_micros(20));
///     }
///     Delivery::Omitted => unreachable!("reliable link"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    nodes: u32,
    default_link: LinkConfig,
    overrides: HashMap<(NodeId, NodeId), LinkConfig>,
    plan: FaultPlan,
    rng: SimRng,
    stats: NetworkStats,
}

impl Network {
    /// A fully-connected network of `nodes` nodes, all links sharing `link`.
    pub fn homogeneous(nodes: u32, link: LinkConfig, rng: SimRng) -> Self {
        Network {
            nodes,
            default_link: link,
            overrides: HashMap::new(),
            plan: FaultPlan::new(),
            rng,
            stats: NetworkStats::default(),
        }
    }

    /// Installs a fault plan (scripted crashes and link cuts).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Overrides the configuration of one directed link.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) {
        self.overrides.insert((from, to), cfg);
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }

    /// The fault plan in force.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Mutable access to the fault plan in force — the injection point
    /// for **runtime** fault ops ([`FaultPlan::apply`]) applied to a
    /// network already owned by a running engine.
    pub fn fault_plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.plan
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// The configuration of the directed link `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkConfig {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Worst-case healthy transit delay over all links (the `δmax` used by
    /// time-bounded protocols when computing delivery deadlines).
    pub fn max_delay(&self) -> Duration {
        self.overrides
            .values()
            .map(|l| l.delay_max)
            .fold(self.default_link.delay_max, Duration::max)
    }

    /// Decides the fate of a message sent `from → to` at time `now`.
    ///
    /// A message is lost if either endpoint has crashed at send time, if a
    /// scripted window cuts the link, or by the link's omission probability.
    /// Otherwise it arrives after a uniformly sampled healthy delay — or, on
    /// a performance failure, after `delay_max` plus a sampled excess.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`: local delivery must not go through the
    /// network (the dispatcher handles local precedence directly).
    pub fn transit(&mut self, from: NodeId, to: NodeId, now: Time) -> Delivery {
        assert!(from != to, "network transit to self");
        self.stats.sent += 1;
        if self.plan.is_crashed(from, now)
            || self.plan.is_crashed(to, now)
            || self.plan.link_cut(from, to, now)
        {
            self.stats.omitted_scripted += 1;
            return Delivery::Omitted;
        }
        let link = self.link(from, to);
        if self.rng.chance_permille(link.omission_permille) {
            self.stats.omitted_random += 1;
            return Delivery::Omitted;
        }
        // Gray-failure degradation: an extra loss draw and an added delay,
        // only when a degraded window matches — the healthy path draws no
        // extra randomness, keeping unused hooks pure observation.
        let extra = match self.plan.degrade(from, to, now) {
            Some((delay, loss)) => {
                if loss > 0 && self.rng.chance_permille(loss) {
                    self.stats.omitted_random += 1;
                    return Delivery::Omitted;
                }
                delay
            }
            None => Duration::ZERO,
        };
        let healthy = Duration::from_nanos(
            self.rng
                .range_inclusive(link.delay_min.as_nanos(), link.delay_max.as_nanos()),
        );
        if link.late_permille > 0 && self.rng.chance_permille(link.late_permille) {
            let excess = Duration::from_nanos(
                self.rng
                    .range_inclusive(1, link.late_excess_max.as_nanos().max(1)),
            );
            self.stats.delivered_late += 1;
            Delivery::At(now + link.delay_max + excess + extra)
        } else {
            self.stats.delivered_on_time += 1;
            Delivery::At(now + healthy + extra)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn reliable_link_delivers_within_bounds() {
        let mut net = Network::homogeneous(
            2,
            LinkConfig::reliable(micro(10), micro(20)),
            SimRng::seed_from(42),
        );
        for i in 0..200 {
            let now = Time::from_nanos(i * 1000);
            match net.transit(NodeId(0), NodeId(1), now) {
                Delivery::At(t) => {
                    let d = t - now;
                    assert!(d >= micro(10) && d <= micro(20), "delay {d} out of bounds");
                }
                Delivery::Omitted => panic!("reliable link dropped a message"),
            }
        }
        assert_eq!(net.stats().sent, 200);
        assert_eq!(net.stats().delivered_on_time, 200);
        assert_eq!(net.stats().omitted(), 0);
    }

    #[test]
    fn omission_rate_is_roughly_respected() {
        let link = LinkConfig::reliable(micro(1), micro(2)).with_omissions(300);
        let mut net = Network::homogeneous(2, link, SimRng::seed_from(7));
        for _ in 0..10_000 {
            net.transit(NodeId(0), NodeId(1), Time::ZERO);
        }
        let lost = net.stats().omitted_random;
        assert!((2500..3500).contains(&lost), "lost {lost} of 10000");
    }

    #[test]
    fn performance_failures_exceed_delay_max() {
        let link =
            LinkConfig::reliable(micro(1), micro(2)).with_performance_failures(1000, micro(5));
        let mut net = Network::homogeneous(2, link, SimRng::seed_from(9));
        let d = net.transit(NodeId(0), NodeId(1), Time::ZERO);
        let t = d.time().expect("late, not lost");
        assert!(t > Time::ZERO + micro(2));
        assert!(t <= Time::ZERO + micro(7));
        assert_eq!(net.stats().delivered_late, 1);
    }

    #[test]
    fn crashed_endpoints_lose_messages() {
        let plan = FaultPlan::new().crash_at(NodeId(1), Time::from_nanos(100));
        let mut net = Network::homogeneous(
            2,
            LinkConfig::reliable(micro(1), micro(1)),
            SimRng::seed_from(1),
        )
        .with_fault_plan(plan);
        assert!(matches!(
            net.transit(NodeId(0), NodeId(1), Time::from_nanos(99)),
            Delivery::At(_)
        ));
        assert_eq!(
            net.transit(NodeId(0), NodeId(1), Time::from_nanos(100)),
            Delivery::Omitted
        );
        assert_eq!(
            net.transit(NodeId(1), NodeId(0), Time::from_nanos(100)),
            Delivery::Omitted,
            "crashed sender emits nothing"
        );
        assert_eq!(net.stats().omitted_scripted, 2);
    }

    #[test]
    fn scripted_cut_loses_messages_in_window_only() {
        let plan = FaultPlan::new().cut_link(
            NodeId(0),
            NodeId(1),
            Time::from_nanos(10),
            Time::from_nanos(20),
        );
        let mut net = Network::homogeneous(
            2,
            LinkConfig::reliable(micro(1), micro(1)),
            SimRng::seed_from(1),
        )
        .with_fault_plan(plan);
        assert!(matches!(
            net.transit(NodeId(0), NodeId(1), Time::from_nanos(9)),
            Delivery::At(_)
        ));
        assert_eq!(
            net.transit(NodeId(0), NodeId(1), Time::from_nanos(15)),
            Delivery::Omitted
        );
        assert!(matches!(
            net.transit(NodeId(0), NodeId(1), Time::from_nanos(21)),
            Delivery::At(_)
        ));
    }

    #[test]
    fn degraded_window_inflates_delay_and_loses_messages() {
        let plan = FaultPlan::new()
            .degrade_link(
                NodeId(0),
                NodeId(1),
                Time::from_nanos(0),
                Time::from_nanos(1_000),
                micro(100),
                0,
            )
            .degrade_link(
                NodeId(1),
                NodeId(0),
                Time::from_nanos(0),
                Time::from_nanos(1_000),
                Duration::ZERO,
                1000,
            );
        let mut net = Network::homogeneous(
            2,
            LinkConfig::reliable(micro(1), micro(2)),
            SimRng::seed_from(11),
        )
        .with_fault_plan(plan);
        // Forward direction: delivered, but at least 100 µs late.
        let t = net
            .transit(NodeId(0), NodeId(1), Time::ZERO)
            .time()
            .expect("degraded, not cut");
        assert!(t >= Time::ZERO + micro(101) && t <= Time::ZERO + micro(102));
        // Reverse direction: saturated extra loss drops everything.
        assert_eq!(
            net.transit(NodeId(1), NodeId(0), Time::ZERO),
            Delivery::Omitted
        );
        // Outside the window both directions are healthy again.
        let after = Time::from_nanos(2_000);
        assert!(net.transit(NodeId(0), NodeId(1), after).time().unwrap() <= after + micro(2));
        assert!(net.transit(NodeId(1), NodeId(0), after).time().is_some());
    }

    #[test]
    fn link_override_changes_bounds() {
        let mut net = Network::homogeneous(
            3,
            LinkConfig::reliable(micro(1), micro(2)),
            SimRng::seed_from(3),
        );
        net.set_link(
            NodeId(0),
            NodeId(2),
            LinkConfig::reliable(micro(100), micro(100)),
        );
        let t = net
            .transit(NodeId(0), NodeId(2), Time::ZERO)
            .time()
            .unwrap();
        assert_eq!(t, Time::ZERO + micro(100));
        assert_eq!(net.max_delay(), micro(100));
        assert_eq!(net.link(NodeId(0), NodeId(1)).delay_max, micro(2));
    }

    #[test]
    #[should_panic(expected = "transit to self")]
    fn self_transit_panics() {
        let mut net = Network::homogeneous(2, LinkConfig::default(), SimRng::seed_from(0));
        net.transit(NodeId(0), NodeId(0), Time::ZERO);
    }

    #[test]
    fn node_iterator_and_display() {
        let net = Network::homogeneous(3, LinkConfig::default(), SimRng::seed_from(0));
        let ids: Vec<String> = net.nodes().map(|n| n.to_string()).collect();
        assert_eq!(ids, vec!["n0", "n1", "n2"]);
        assert_eq!(net.node_count(), 3);
    }
}
