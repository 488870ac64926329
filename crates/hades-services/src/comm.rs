//! Time-bounded reliable communication (the "Rel. Bcast" / "Rel. Mcast"
//! boxes of Figure 1).
//!
//! Two primitives, each with an explicit worst-case delivery bound so the
//! feasibility test can account for communication:
//!
//! * [`BroadcastSim`] — reliable broadcast by message diffusion: every
//!   correct receiver relays the first copy it sees, so delivery tolerates
//!   `f` crashed nodes with bound `(f + 1) · δmax`.
//! * [`DeltaInbox`] — the receive side of Δ-protocol atomic multicast on
//!   synchronized clocks: messages carry a sender timestamp and are
//!   delivered at `ts + Δ` in timestamp order, giving total order across
//!   the group when `Δ ≥ δmax + γ`.
//!
//! Point-to-point retransmission is not a primitive of its own: every
//! actor sends through `hades_sim::mux::ActorCtx::send`, and the per-copy
//! attempt budget of `ActorCtx::fanout` is what masks omissions.

use crate::idset::IdSet;
use hades_sim::{Delivery, Engine, Network, NodeId, Scheduler, Simulation};
use hades_time::{Duration, Time};
use std::collections::{BTreeMap, BTreeSet, HashSet};

// ---------------------------------------------------------------------
// Reliable broadcast by diffusion
// ---------------------------------------------------------------------

/// Result of one diffusion broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// Nodes (correct at send time) that delivered, with delivery times.
    pub delivered: BTreeMap<u32, Time>,
    /// Correct nodes that never delivered (validity/agreement violation if
    /// non-empty while the initiator is correct).
    pub missed: Vec<u32>,
    /// Total point-to-point messages consumed.
    pub messages: u64,
    /// The analytic delivery bound `(f + 1) · δmax`.
    pub bound: Duration,
}

impl BroadcastOutcome {
    /// Latest delivery among correct nodes, if all delivered.
    pub fn max_latency(&self, sent_at: Time) -> Option<Duration> {
        if !self.missed.is_empty() {
            return None;
        }
        self.delivered.values().map(|t| *t - sent_at).max()
    }

    /// Agreement: either all correct nodes delivered or none did.
    pub fn agreement_holds(&self) -> bool {
        self.delivered.is_empty() || self.missed.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DiffEv {
    Receive { node: u32 },
}

struct Diffusion {
    net: Network,
    delivered: BTreeMap<u32, Time>,
    relayed: HashSet<u32>,
    messages: u64,
    attempts: u32,
    timeout: Duration,
}

impl Simulation for Diffusion {
    type Event = DiffEv;
    fn handle(&mut self, now: Time, ev: DiffEv, sched: &mut Scheduler<DiffEv>) {
        let DiffEv::Receive { node } = ev;
        if self.net.fault_plan().is_crashed(NodeId(node), now) {
            return; // dead nodes neither deliver nor relay
        }
        if self.delivered.contains_key(&node) {
            return; // duplicate
        }
        self.delivered.insert(node, now);
        // Relay once to every other node (diffusion), retransmitting up to
        // `attempts` times per link to mask omission failures.
        if self.relayed.insert(node) {
            let targets: Vec<NodeId> = self.net.nodes().filter(|n| n.0 != node).collect();
            for to in targets {
                let mut t_send = now;
                for _ in 0..self.attempts {
                    self.messages += 1;
                    match self.net.transit(NodeId(node), to, t_send) {
                        Delivery::At(t) => {
                            sched.post(t, DiffEv::Receive { node: to.0 });
                            break;
                        }
                        Delivery::Omitted => t_send += self.timeout,
                    }
                }
            }
        }
    }
}

/// Reliable-broadcast simulation: diffusion over a faulty network.
///
/// # Examples
///
/// ```
/// use hades_services::BroadcastSim;
/// use hades_sim::{LinkConfig, Network, NodeId, SimRng};
/// use hades_time::{Duration, Time};
///
/// let net = Network::homogeneous(
///     4,
///     LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(20)),
///     SimRng::seed_from(1),
/// );
/// let out = BroadcastSim::new(net, 1).broadcast(NodeId(0), Time::ZERO);
/// assert!(out.agreement_holds());
/// assert_eq!(out.delivered.len(), 4, "all four nodes deliver");
/// ```
#[derive(Debug)]
pub struct BroadcastSim {
    net: Network,
    f: u32,
    attempts: u32,
}

impl BroadcastSim {
    /// Creates a broadcast simulation tolerating up to `f` crashed nodes,
    /// with single-shot relays (no omission masking).
    pub fn new(net: Network, f: u32) -> Self {
        BroadcastSim {
            net,
            f,
            attempts: 1,
        }
    }

    /// Sets the per-link retransmission budget: each relay link masks up
    /// to `attempts − 1` consecutive omission failures.
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Broadcasts from `initiator` at `sent_at` and runs to quiescence.
    pub fn broadcast(self, initiator: NodeId, sent_at: Time) -> BroadcastOutcome {
        let timeout = self.net.max_delay().saturating_mul(2) + Duration::from_micros(1);
        let bound = (self.net.max_delay() + timeout.saturating_mul(self.attempts as u64 - 1))
            .saturating_mul(self.f as u64 + 1);
        let node_count = self.net.node_count();
        let plan_crashed: Vec<u32> = (0..node_count)
            .filter(|n| self.net.fault_plan().crash_time(NodeId(*n)).is_some())
            .collect();
        let mut sim = Diffusion {
            net: self.net,
            delivered: BTreeMap::new(),
            relayed: HashSet::new(),
            messages: 0,
            attempts: self.attempts,
            timeout,
        };
        let mut engine = Engine::new();
        engine.post(sent_at, DiffEv::Receive { node: initiator.0 });
        engine.run_to_completion(&mut sim);
        let missed: Vec<u32> = (0..node_count)
            .filter(|n| !sim.delivered.contains_key(n) && !plan_crashed.contains(n))
            .collect();
        BroadcastOutcome {
            delivered: sim.delivered,
            missed,
            messages: sim.messages,
            bound,
        }
    }
}

// ---------------------------------------------------------------------
// Δ-protocol atomic multicast
// ---------------------------------------------------------------------

/// Δ-protocol delivery buffer: atomic multicast on synchronized clocks.
///
/// A [`crate::group::ReplicaGroup`] (or any other actor) feeds every
/// received multicast copy into the inbox with its sender timestamp; the
/// inbox discards late copies (arrival past `ts + Δ`), suppresses
/// duplicates by message id, and releases messages at `ts + Δ` in
/// `(ts, sender, id)` order. If the network holds its delay bound and
/// clocks their precision, `Δ ≥ δmax + γ` guarantees every correct
/// receiver delivers every message, in that same total order.
///
/// # Examples
///
/// ```
/// use hades_services::comm::DeltaInbox;
/// use hades_time::{Duration, Time};
///
/// let delta = Duration::from_micros(30);
/// let mut inbox = DeltaInbox::new(delta);
/// let t0 = Time::ZERO;
/// // Two messages, the later-stamped one arriving first.
/// assert_eq!(
///     inbox.accept(7, t0 + Duration::from_micros(10), 1, t0 + Duration::from_micros(15)),
///     Some(t0 + Duration::from_micros(40)),
/// );
/// assert_eq!(
///     inbox.accept(3, t0, 0, t0 + Duration::from_micros(20)),
///     Some(t0 + Duration::from_micros(30)),
/// );
/// // Delivery at ts + Δ, in timestamp order regardless of arrival order.
/// assert_eq!(inbox.due(t0 + Duration::from_micros(30)), vec![(3, t0, 0)]);
/// assert_eq!(
///     inbox.due(t0 + Duration::from_micros(40)),
///     vec![(7, t0 + Duration::from_micros(10), 1)],
/// );
/// ```
#[derive(Debug, Default)]
pub struct DeltaInbox {
    /// The delivery delay Δ.
    delta: Duration,
    /// Pending copies as `(ts, sender, id)` — the delivery order.
    pending: BTreeSet<(Time, u32, u64)>,
    /// Ids already accepted or delivered (duplicate suppression).
    seen: IdSet,
    /// Copies discarded for arriving past `ts + Δ`.
    late_discards: u64,
    /// Duplicate copies suppressed.
    duplicates: u64,
}

impl DeltaInbox {
    /// An empty inbox delivering at `ts + delta`.
    pub fn new(delta: Duration) -> Self {
        DeltaInbox {
            delta,
            ..DeltaInbox::default()
        }
    }

    /// The delivery delay Δ.
    pub fn delta(&self) -> Duration {
        self.delta
    }

    /// Offers one received copy of message `id`, stamped `ts` by `sender`,
    /// arriving at `now`. Returns the delivery due time `ts + Δ` when the
    /// copy was accepted (the caller arms a timer there), `None` when it
    /// was discarded as late or suppressed as a duplicate.
    ///
    /// # Panics
    ///
    /// Panics if a copy that is not late carries an id past the 20-bit
    /// request-id space (`id ≥ 2^20`).
    pub fn accept(&mut self, id: u64, ts: Time, sender: u32, now: Time) -> Option<Time> {
        if now > ts + self.delta {
            self.late_discards += 1;
            return None;
        }
        if !self.seen.insert(id) {
            self.duplicates += 1;
            return None;
        }
        self.pending.insert((ts, sender, id));
        Some(ts + self.delta)
    }

    /// Releases every message due by `now` (`ts + Δ ≤ now`), in
    /// `(ts, sender, id)` order, as `(id, ts, sender)` triples.
    pub fn due(&mut self, now: Time) -> Vec<(u64, Time, u32)> {
        let mut out = Vec::new();
        while let Some(&(ts, sender, id)) = self.pending.first() {
            if ts + self.delta > now {
                break;
            }
            self.pending.pop_first();
            out.push((id, ts, sender));
        }
        out
    }

    /// Whether message `id` has been accepted (or already delivered).
    pub fn knows(&self, id: u64) -> bool {
        self.seen.contains(id)
    }

    /// Copies discarded for arriving past their delivery instant.
    pub fn late_discards(&self) -> u64 {
        self.late_discards
    }

    /// Duplicate copies suppressed by message id.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Drops all pending (undelivered) copies — the volatile part of a
    /// cold restart. The duplicate-suppression memory survives: delivered
    /// ids must not be re-delivered to a restarted state machine.
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_sim::{FaultPlan, LinkConfig, SimRng};

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn reliable_net(n: u32, seed: u64) -> Network {
        Network::homogeneous(
            n,
            LinkConfig::reliable(us(5), us(20)),
            SimRng::seed_from(seed),
        )
    }

    #[test]
    fn broadcast_reaches_all_on_healthy_network() {
        let out = BroadcastSim::new(reliable_net(5, 2), 1).broadcast(NodeId(0), Time::ZERO);
        assert_eq!(out.delivered.len(), 5);
        assert!(out.missed.is_empty());
        assert!(out.agreement_holds());
        let lat = out.max_latency(Time::ZERO).unwrap();
        assert!(
            lat <= out.bound,
            "latency {lat} exceeds bound {}",
            out.bound
        );
    }

    #[test]
    fn broadcast_survives_initiator_crash_after_first_send() {
        // Initiator crashes 1 µs after sending: its messages at t=0 are
        // already in flight; relays complete the diffusion.
        let plan = FaultPlan::new().crash_at(NodeId(0), Time::from_nanos(1_000));
        let net = reliable_net(5, 4).with_fault_plan(plan);
        let out = BroadcastSim::new(net, 1).broadcast(NodeId(0), Time::ZERO);
        // All *other* correct nodes deliver (initiator itself delivered at
        // t=0 before crashing).
        for n in 1..5 {
            assert!(out.delivered.contains_key(&n), "node {n} missed");
        }
        assert!(out.agreement_holds());
    }

    #[test]
    fn broadcast_diffusion_masks_single_link_omissions() {
        // The 0→3 link always drops; node 3 still delivers via relays.
        let mut net = reliable_net(4, 5);
        net.set_link(
            NodeId(0),
            NodeId(3),
            LinkConfig::reliable(us(5), us(20)).with_omissions(1000),
        );
        let out = BroadcastSim::new(net, 1).broadcast(NodeId(0), Time::ZERO);
        assert!(out.delivered.contains_key(&3));
        assert!(out.missed.is_empty());
    }

    #[test]
    fn broadcast_message_complexity_is_n_squared() {
        let out = BroadcastSim::new(reliable_net(6, 6), 1).broadcast(NodeId(2), Time::ZERO);
        // Every delivering node relays to n−1 others: n(n−1) total.
        assert_eq!(out.messages, 30);
    }

    #[test]
    fn delta_inbox_orders_by_timestamp_then_sender() {
        let mut inbox = DeltaInbox::new(us(50));
        let t = |n| Time::ZERO + us(n);
        inbox.accept(2, t(10), 3, t(20));
        inbox.accept(1, t(10), 1, t(25));
        inbox.accept(0, t(5), 2, t(30));
        assert!(inbox.due(t(54)).is_empty(), "nothing due before ts + delta");
        assert_eq!(
            inbox.due(t(60)),
            vec![(0, t(5), 2), (1, t(10), 1), (2, t(10), 3)],
            "(ts, sender) order, all due by 60"
        );
    }

    #[test]
    fn delta_inboxes_release_the_same_order_whatever_the_arrival_order() {
        // Five stamped messages — two share a timestamp, so the sender
        // breaks the tie — reach two receivers in different orders.
        let t = |n| Time::ZERO + us(n);
        let msgs = [
            (10u64, t(10), 0u32),
            (11, t(5), 1),
            (12, t(10), 2),
            (13, t(7), 3),
            (14, t(12), 1),
        ];
        let release = |arrival: [usize; 5]| {
            let mut inbox = DeltaInbox::new(us(22));
            for (k, i) in arrival.into_iter().enumerate() {
                let (id, ts, sender) = msgs[i];
                assert!(inbox.accept(id, ts, sender, t(13 + k as u64)).is_some());
            }
            inbox.due(t(34))
        };
        let first = release([0, 1, 2, 3, 4]);
        assert_eq!(first, release([4, 2, 3, 0, 1]));
        assert_eq!(
            first,
            vec![
                (11, t(5), 1),
                (13, t(7), 3),
                (10, t(10), 0),
                (12, t(10), 2),
                (14, t(12), 1),
            ]
        );
    }

    #[test]
    fn delta_inbox_discards_late_and_suppresses_duplicates() {
        let mut inbox = DeltaInbox::new(us(50));
        let t = |n| Time::ZERO + us(n);
        assert_eq!(inbox.accept(9, t(0), 0, t(51)), None, "late copy dropped");
        assert_eq!(inbox.late_discards(), 1);
        assert_eq!(inbox.accept(9, t(60), 0, t(70)), Some(t(110)));
        assert_eq!(
            inbox.accept(9, t(60), 1, t(75)),
            None,
            "second copy of the same id suppressed"
        );
        assert_eq!(inbox.duplicates(), 1);
        assert!(inbox.knows(9));
        assert_eq!(inbox.due(t(110)), vec![(9, t(60), 0)]);
        assert_eq!(
            inbox.accept(9, t(120), 0, t(125)),
            None,
            "delivered ids stay suppressed"
        );
    }

    #[test]
    fn delta_inbox_restart_drops_pending_but_not_memory() {
        let mut inbox = DeltaInbox::new(us(50));
        let t = |n| Time::ZERO + us(n);
        inbox.accept(1, t(0), 0, t(10));
        inbox.clear_pending();
        assert!(inbox.due(t(100)).is_empty(), "pending lost with the crash");
        assert_eq!(inbox.accept(1, t(60), 0, t(65)), None, "memory survives");
    }
}
