//! Replication groups over Δ-atomic multicast: in-cluster active,
//! semi-active and passive replication as engine-driven actors.
//!
//! This module runs the three replication styles of \[Pol96\]
//! ([`crate::replication::ReplicaStyle`]) **on the shared DES network**:
//! a [`ReplicaGroup`] is one member of a replicated service, client
//! requests enter through Δ-protocol atomic multicast (the
//! [`crate::comm::DeltaInbox`] delivery discipline), and the group
//! re-binds to the agreed membership view on every view change:
//!
//! * **request entry** — the *gateway* (lowest live member) timestamps
//!   request `k` at its scheduled submission tick and multicasts it to
//!   every member; each member delivers it at `ts + Δ` in `(ts, sender)`
//!   order, so all members see the same request sequence;
//! * **active** — every member executes every delivered request and
//!   emits its output (a vote); the voter suppresses all but the first
//!   copy per request, so one replica crash is masked with zero outage;
//! * **semi-active** — every member receives every request, but only the
//!   *leader* executes at delivery and emits; it multicasts the decided
//!   order to the followers, which execute in that order with their
//!   outputs suppressed. A leader crash hands leadership to the next
//!   live member, which orders (and emits) whatever was delivered but
//!   never ordered;
//! * **passive** — only the *primary* executes; every
//!   `checkpoint_every` requests it multicasts its checkpoint watermark
//!   to the backups (which buffer, but do not execute, the delivered
//!   requests). A primary crash promotes the next member, which folds
//!   its buffer up to the watermark (the checkpoint install) and
//!   replays the requests delivered since — re-emission of
//!   post-checkpoint outputs is possible and is what the duplicate
//!   counters of the report quantify.
//!
//! Membership is not re-derived by the group itself: a member follows
//! the agreed view history of the co-located [`crate::NodeAgent`]
//! (its shared [`AgentLog`]), intersected with the group's member list.
//! A member that restarts comes back cold (pending deliveries lost, its
//! service state restored from local stable storage, cf.
//! [`crate::storage`]) and holds back from leadership until its agent
//! installs a view at or after the restart — the group-level face of the
//! rejoin protocol.
//!
//! That view history is **polled**, not pushed: a member re-reads it
//! (`rebind`) at the head of every submission tick, every received
//! message and every Δ-delivery, so the instant a member notices an
//! install — and takes over — is the instant of its next such event. The
//! *set of instants at which a member ticks* is therefore modelled
//! behaviour, not bookkeeping. Ticks are armed from two places — after
//! every tick, for the source's next submission instant, and at every
//! response that extends a closed-loop schedule — and a source with a
//! client timeout always names a next instant while a request is
//! outstanding (see [`RequestSource::next_submission_after`]), so without
//! care every response would start one more never-ending chain of ticks
//! over the same instants. The invariant that prevents it: **at most one
//! submission tick is pending per firing instant per life** of a member.
//! A second arm for an instant that already has one is dropped — the set
//! of tick instants stays what it was, only the duplicates at one instant
//! go — and the instant compared is the one the timer *fires* at on the
//! engine's timeline ([`ActorCtx::timer_fires_at`]), because on a node
//! with a skewed clock two arms of one local instant made at different
//! times fire apart, and each of them is a poll.
//!
//! What a member did is appended to its shared [`GroupLog`] and — when a
//! tap is installed ([`ReplicaGroup::with_tap`]) — handed to it at the
//! same engine instant as a [`MonitorEvent`]: leadership handoffs,
//! submissions, Δ-deliveries and outputs, each naming the group (and the
//! member). An output carries whether the member's own replication style
//! deduplicates, so a monitor needs no per-group configuration. The tap is
//! invoked synchronously inside the handler and must not re-enter the
//! engine.
//!
//! The module assumes the Δ-protocol's premises: bounded transit
//! (`δmax ≤ Δ`) and view installs synchronized within one agreement
//! round. Per-link omission failures are masked by the redundant
//! transmission budget [`GroupConfig::attempts`] (the reliable-multicast
//! substrate of the paper's "Rel. Mcast" box).

use crate::actors::AgentLog;
use crate::comm::DeltaInbox;
use crate::idset::{IdSet, ID_LIMIT};
use crate::replication::ReplicaStyle;
use hades_sim::mux::{ActorCtx, ActorEvent, ActorId, NetActor};
use hades_sim::NodeId;
use hades_telemetry::monitor::{MonitorEvent, ProtocolTap};
use hades_time::{Duration, Time};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Message kind: one client request, Δ-multicast by the gateway.
const GMSG_REQ: u64 = 1;
/// Message kind: the semi-active leader's decided order (seq + request).
const GMSG_ORDER: u64 = 2;
/// Message kind: an active member's output vote (request + digest).
const GMSG_VOTE: u64 = 3;
/// Message kind: passive checkpoint watermark (highest executed
/// request; the backup reconstructs the state fold from its own
/// delivery buffer, so no separate state message can race it).
const GMSG_CKPT: u64 = 4;
/// Message kind: a restarted member requests the group fold (payload =
/// its epoch) — the group-level face of the rejoin state transfer.
const GMSG_PULL: u64 = 5;
/// Message kind: catch-up snapshot, high half of the state fold
/// (payload = joiner epoch + bits 63..32).
const GMSG_SNAP_HI: u64 = 6;
/// Message kind: catch-up snapshot, low half of the state fold.
const GMSG_SNAP_LO: u64 = 7;
/// Message kind: catch-up snapshot watermark (payload = joiner epoch +
/// covered-id floor + executed count mod 4096).
const GMSG_SNAP_MARK: u64 = 8;

/// Timer kind: submission tick (every request period).
const GK_TICK: u64 = 1;
/// Timer kind: Δ-delivery instant of an accepted request.
const GK_DELIVER: u64 = 2;
/// Timer kind: end of the post-restart order-resync window.
const GK_RESYNC: u64 = 3;
/// Timer kind: catch-up PULL retransmission while no snapshot arrived.
const GK_PULL: u64 = 4;
/// Timer kind: leader-side deferred snapshot reply (the deferral lets
/// every request already in the Δ-pipeline at the pull instant execute
/// first, so snapshot coverage and the joiner's live stream overlap
/// instead of leaving a gap).
const GK_SNAP: u64 = 5;

/// [`hades_sim::mux::ActorEvent::Notify`] tag: an out-of-band wake
/// (closed-loop schedule extension, or a control-plane workload retune)
/// asking this member to re-run its submission tick. Public so an
/// embedding control plane can wake group members after retuning their
/// shared [`RequestSource`].
pub const GN_WAKE: u64 = 1;

/// The profiling label of [`ReplicaGroup`] actors (see
/// `hades_sim::mux::NetActor::label`).
pub const GROUP_LABEL: &str = "group";

/// Short kind name of a group protocol message tag, for traffic
/// attribution (`None` for tags the group never sends).
pub fn group_msg_name(tag: u64) -> Option<&'static str> {
    Some(match tag {
        GMSG_REQ => "req",
        GMSG_ORDER => "order",
        GMSG_VOTE => "vote",
        GMSG_CKPT => "ckpt",
        GMSG_PULL => "pull",
        GMSG_SNAP_HI => "snap_hi",
        GMSG_SNAP_LO => "snap_lo",
        GMSG_SNAP_MARK => "snap_mark",
        _ => return None,
    })
}

fn tag(kind: u64, body: u64) -> u64 {
    (kind << 60) | body
}

/// Request payload: id in the top 20 bits, sender timestamp (ns) below.
/// The packing bounds the protocol to ~4.9 h of virtual time (2^44 ns)
/// and 2^20 requests — asserted at submission rather than silently
/// wrapping into order divergence.
fn req_payload(id: u64, ts: Time) -> u64 {
    let ns = (ts - Time::ZERO).as_nanos();
    assert!(id < ID_LIMIT, "request id {id} exceeds the 20-bit payload");
    assert!(
        ns < 1 << 44,
        "timestamp {ns} ns exceeds the 44-bit payload (~4.9 h horizon cap)"
    );
    (id << 44) | ns
}

fn req_decode(payload: u64) -> (u64, Time) {
    (
        (payload >> 44) & 0xF_FFFF,
        Time::from_nanos(payload & ((1 << 44) - 1)),
    )
}

/// Order: leader node (6 bits) | stream sequence number (38 bits) |
/// request id (20 bits). Order streams are per-leader — a new leader
/// always starts at sequence 0 and followers re-anchor on the stream
/// switch — so a leader taking over with stale knowledge can never
/// collide with (or be dropped against) its predecessor's numbering.
fn order_payload(leader: u32, seq: u64, id: u64) -> u64 {
    ((leader as u64 & 0x3F) << 58) | ((seq & 0x3F_FFFF_FFFF) << 20) | (id & 0xF_FFFF)
}

fn order_decode(payload: u64) -> (u32, u64, u64) {
    (
        (payload >> 58) as u32,
        (payload >> 20) & 0x3F_FFFF_FFFF,
        payload & 0xF_FFFF,
    )
}

/// Vote: request id (20 bits) | executed count mod 4096 (12 bits) |
/// state digest (32 bits). The count lets receivers skip the digest
/// cross-check against members whose history legitimately differs (a
/// restarted replica missed its blackout window).
fn vote_payload(id: u64, count: u64, digest: u64) -> u64 {
    ((id & 0xF_FFFF) << 44) | ((count & 0xFFF) << 32) | (digest & 0xFFFF_FFFF)
}

fn vote_decode(payload: u64) -> (u64, u64, u64) {
    (
        (payload >> 44) & 0xF_FFFF,
        (payload >> 32) & 0xFFF,
        payload & 0xFFFF_FFFF,
    )
}

/// Catch-up snapshot part: joiner epoch (16 bits) | 32 payload bits.
fn snap_payload(epoch: u64, bits: u64) -> u64 {
    ((epoch & 0xFFFF) << 48) | (bits & 0xFFFF_FFFF)
}

fn snap_decode(payload: u64) -> (u64, u64) {
    ((payload >> 48) & 0xFFFF, payload & 0xFFFF_FFFF)
}

/// Snapshot watermark: joiner epoch (16) | covered-id floor (20) |
/// executed count mod 4096 (12). Ids below `floor` are folded into the
/// shipped state and must not be re-executed by the joiner.
fn snap_mark_payload(epoch: u64, floor: u64, count: u64) -> u64 {
    ((epoch & 0xFFFF) << 48) | ((floor & 0xF_FFFF) << 12) | (count & 0xFFF)
}

fn snap_mark_decode(payload: u64) -> (u64, u64, u64) {
    (
        (payload >> 48) & 0xFFFF,
        (payload >> 12) & 0xF_FFFF,
        payload & 0xFFF,
    )
}

/// The actor-side request stream of a replicated service: the gateway
/// asks it *when* to submit, and feeds every first client-visible
/// response back into it — the hook that closes the loop between the
/// group's measured behaviour and the client's submission schedule.
///
/// One source instance is **shared by every member** of the group
/// (behind `Rc<RefCell<…>>`), so an interim gateway taking over after a
/// crash sees exactly the schedule the dead gateway was working from.
/// All calls happen inside engine event handlers, in the deterministic
/// total order; implementations must be deterministic functions of the
/// call sequence.
pub trait RequestSource: std::fmt::Debug {
    /// Number of requests scheduled at or before `now` — request ids
    /// `0..n` are the gateway's responsibility by `now`.
    fn submissions_through(&mut self, now: Time) -> u64;

    /// The next instant strictly after `now` at which the gateway must
    /// run a submission tick, if any is known yet: the next scheduled
    /// submission, or — for a closed loop with a client timeout — the
    /// instant the outstanding request is abandoned and re-issued. A
    /// closed loop *without* a timeout returns `None` while its next
    /// request waits on a response; one *with* a timeout never does
    /// while a request is outstanding inside the horizon, so every tick
    /// arms a successor. Members keep at most one pending tick per
    /// firing instant (see the module doc), so asking again for an
    /// instant already armed costs nothing — but each distinct instant
    /// returned is one more poll of the membership view, i.e. behaviour.
    fn next_submission_after(&mut self, now: Time) -> Option<Time>;

    /// Reports the **first** client-visible output of request `id`,
    /// observed at `at` (members report their own emissions; the shared
    /// source keeps the first report, which — engine time being
    /// monotone — is the earliest one). Returns a newly scheduled
    /// submission instant when the report extended the schedule, so the
    /// reporting member can arm the wake-up.
    fn on_response(&mut self, id: u64, at: Time) -> Option<Time>;

    /// Rescales the source's future pacing to `permille` of its
    /// **nominal** rate from `now` on (1000 = nominal, 500 = half rate,
    /// 0 = pause). Repeated retunes must not compound — each call is
    /// absolute against the nominal rate — and a pause must be
    /// resumable by a later positive retune. Closed-loop sources scale
    /// their think time; open-loop sources re-pace the remaining
    /// nominal tail.
    fn throttle(&mut self, now: Time, permille: u32);

    /// Number of requests this source has **abandoned** so far: given up
    /// on client-side (e.g. a closed loop timing out an outstanding
    /// request whose group died) and re-issued or dropped. Open-loop
    /// sources never abandon; the default is 0.
    fn abandoned(&self) -> u64 {
        0
    }
}

/// The open-loop [`RequestSource`]: a pre-materialized, strictly
/// increasing submission schedule (the lowering of an offline workload).
///
/// Throttling keeps the **nominal** schedule immutable and re-paces the
/// not-yet-issued tail: on `throttle(now, p > 0)` the remaining
/// requests replay from `now` with their nominal inter-arrival gaps
/// scaled by `1000/p` (so repeated retunes never compound), and
/// `throttle(now, 0)` pauses the tail until a later positive retune
/// resumes it. A retune to the rate already in force is a no-op — a
/// driver re-asserting the same rate every tick must not perpetually
/// push the next submission out.
#[derive(Debug, Clone)]
pub struct FixedSchedule {
    /// The nominal schedule (never rescaled).
    nominal: Vec<Time>,
    /// The effective schedule under the retunes applied so far
    /// (`Time::MAX` = paused entry).
    effective: Vec<Time>,
    /// The pacing currently in force (permille of nominal).
    permille: u32,
}

impl FixedSchedule {
    /// Wraps `times` (must be strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics when `times` is not strictly increasing.
    pub fn new(times: Vec<Time>) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "the submission schedule must be strictly increasing"
        );
        FixedSchedule {
            effective: times.clone(),
            nominal: times,
            permille: 1000,
        }
    }
}

impl RequestSource for FixedSchedule {
    fn submissions_through(&mut self, now: Time) -> u64 {
        self.effective.partition_point(|t| *t <= now) as u64
    }

    fn next_submission_after(&mut self, now: Time) -> Option<Time> {
        self.effective
            .get(self.effective.partition_point(|t| *t <= now))
            .copied()
            .filter(|t| *t != Time::MAX)
    }

    fn on_response(&mut self, _id: u64, _at: Time) -> Option<Time> {
        None
    }

    fn throttle(&mut self, now: Time, permille: u32) {
        if permille == self.permille {
            return; // same rate re-asserted: nothing to re-pace
        }
        self.permille = permille;
        let idx = self.effective.partition_point(|t| *t <= now);
        if permille == 0 {
            // Pause: park the tail where a later retune can revive it.
            for t in self.effective[idx..].iter_mut() {
                *t = Time::MAX;
            }
            return;
        }
        // Replay the remaining nominal tail from `now`, gaps scaled
        // against the *nominal* schedule — never the current effective
        // one, so repeated retunes stay absolute instead of compounding.
        let mut t = now;
        for k in idx..self.nominal.len() {
            let prev = if k == 0 {
                Time::ZERO
            } else {
                self.nominal[k - 1]
            };
            let gap = (self.nominal[k] - prev).as_nanos() as u128 * 1000 / permille as u128;
            t += Duration::from_nanos(gap.clamp(1, u64::MAX as u128) as u64);
            self.effective[k] = t;
        }
    }
}

/// Static configuration of one replica-group member.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// The group this member belongs to (report key).
    pub group: u32,
    /// The node this member runs on; must appear in `members`.
    pub node: NodeId,
    /// The group's member nodes, ascending.
    pub members: Vec<u32>,
    /// The replication style the group runs.
    pub style: ReplicaStyle,
    /// Client request period: request `k` is scheduled at
    /// `first_request_at + k · request_period` (unless
    /// [`GroupConfig::source`] overrides the law).
    pub request_period: Duration,
    /// Scheduled submission instant of request 0.
    pub first_request_at: Time,
    /// The shared request source driving the gateway: open-loop
    /// ([`FixedSchedule`], lowered from a deployment-spec `Workload`) or
    /// closed-loop (fed back through [`RequestSource::on_response`]).
    /// `None` runs the periodic law above.
    pub source: Option<Rc<RefCell<dyn RequestSource>>>,
    /// The Δ of the atomic multicast (delivery at `ts + Δ`); must be at
    /// least the network's `δmax` for loss-free ordering.
    pub delta: Duration,
    /// Per-link redundant-transmission budget of the multicast fan-out
    /// (masks up to `attempts − 1` consecutive omissions per copy).
    pub attempts: u32,
    /// Actor addresses of every member, as `(node, actor)` pairs in
    /// `members` order.
    pub peers: Vec<(u32, ActorId)>,
}

impl GroupConfig {
    /// The analytic delivery bound of the Δ-multicast: a request
    /// submitted on schedule is delivered at every live member exactly
    /// `Δ` after its submission.
    pub fn delivery_bound(&self) -> Duration {
        self.delta
    }

    /// The analytic client-visible output bound in the failure-free
    /// case: delivery (`Δ`) plus one network hop for the vote (active)
    /// or the decided order (semi-active follower).
    pub fn output_bound(&self, max_delay: Duration) -> Duration {
        self.delta + max_delay
    }

    /// Number of scheduled submissions with instant `≤ now` — request
    /// ids `0..count` are the gateway's responsibility by `now`.
    fn submissions_through(&self, now: Time) -> u64 {
        match &self.source {
            Some(s) => s.borrow_mut().submissions_through(now),
            None => {
                if now < self.first_request_at {
                    0
                } else {
                    (now - self.first_request_at).as_nanos() / self.request_period.as_nanos().max(1)
                        + 1
                }
            }
        }
    }

    /// The next submission-tick instant strictly after `now`; `None`
    /// once an explicit source is exhausted (or, closed-loop without a
    /// timeout, still waiting on a response).
    fn next_submission_after(&self, now: Time) -> Option<Time> {
        match &self.source {
            Some(s) => s.borrow_mut().next_submission_after(now),
            None => Some(if now < self.first_request_at {
                self.first_request_at
            } else {
                self.first_request_at
                    + self
                        .request_period
                        .saturating_mul(self.submissions_through(now))
            }),
        }
    }
}

/// Everything one group member observed and decided, readable after the
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupLog {
    /// The group.
    pub group: u32,
    /// The member's node.
    pub node: u32,
    /// Requests this member submitted as the gateway: `(id, at)`.
    pub submitted: Vec<(u64, Time)>,
    /// The member's delivery sequence, as request ids in delivery
    /// order — the sequence the agreement checks compare. Each
    /// delivery's Δ-order stamp and instant go to the tap
    /// ([`MonitorEvent::RequestDelivered`]), not here.
    pub delivered: Vec<u64>,
    /// Client-visible outputs this member emitted: `(id, at)`. For
    /// active replication these are the member's votes (the voter keeps
    /// the first copy per request); for semi-active and passive only
    /// the leader/primary emits.
    pub emitted: Vec<(u64, Time)>,
    /// Duplicate outputs this member suppressed (redundant votes seen,
    /// or follower executions whose output was withheld).
    pub suppressed: u64,
    /// Active-style vote digests that disagreed with the local state.
    pub vote_mismatches: u64,
    /// Leadership takeovers this member performed: `(old, new, at)`.
    pub handoffs: Vec<(u32, u32, Time)>,
    /// Cold restarts of this member.
    pub restarts: Vec<Time>,
    /// Requests re-executed during a passive takeover replay.
    pub replayed: u64,
    /// Completed catch-up snapshots this member adopted after a restart
    /// (the group fold shipped alongside the rejoin checkpoint).
    pub catchups: u64,
    /// Group-protocol messages this member pushed into the network.
    pub messages_sent: u64,
    /// Multicast copies discarded for arriving past `ts + Δ`.
    pub late_discards: u64,
    /// The member's service state (an order-sensitive fold of the
    /// executed requests, so equal states certify equal orders).
    pub final_state: u64,
}

impl GroupLog {
    fn new(group: u32, node: u32) -> Self {
        GroupLog {
            group,
            node,
            submitted: Vec::new(),
            delivered: Vec::new(),
            emitted: Vec::new(),
            suppressed: 0,
            vote_mismatches: 0,
            handoffs: Vec::new(),
            restarts: Vec::new(),
            replayed: 0,
            catchups: 0,
            messages_sent: 0,
            late_discards: 0,
            final_state: 0,
        }
    }

    /// Whether this member's delivery sequence is a subsequence of
    /// `reference` — the consistency a member that missed requests
    /// (downtime, unmasked omissions) must still satisfy.
    pub fn order_consistent_with(&self, reference: &[u64]) -> bool {
        let mut it = reference.iter();
        self.delivered.iter().all(|id| it.any(|r| r == id))
    }
}

/// One member of a replication group, as a [`NetActor`] on the shared
/// engine.
///
/// # Examples
///
/// A standalone three-member active group (no membership agents: the
/// static member list is the view). The gateway submits a request every
/// millisecond; every member delivers the same sequence at `ts + Δ`:
///
/// ```
/// use hades_services::group::{GroupConfig, ReplicaGroup};
/// use hades_services::ReplicaStyle;
/// use hades_sim::mux::ActorId;
/// use hades_sim::{ActorEngine, LinkConfig, Network, NodeId, SimRng};
/// use hades_time::{Duration, Time};
///
/// let net = Network::homogeneous(
///     3,
///     LinkConfig::reliable(Duration::from_micros(10), Duration::from_micros(40)),
///     SimRng::seed_from(1),
/// );
/// let delta = Duration::from_micros(50);
/// let mut rt = ActorEngine::new(net);
/// let peers: Vec<(u32, ActorId)> = (0..3).map(|n| (n, ActorId(n))).collect();
/// let logs: Vec<_> = (0..3)
///     .map(|n| {
///         let (member, log) = ReplicaGroup::new(
///             GroupConfig {
///                 group: 0,
///                 node: NodeId(n),
///                 members: vec![0, 1, 2],
///                 style: ReplicaStyle::Active,
///                 request_period: Duration::from_millis(1),
///                 first_request_at: Time::ZERO + Duration::from_millis(1),
///                 source: None,
///                 delta,
///                 attempts: 1,
///                 peers: peers.clone(),
///             },
///             None,
///         );
///         rt.add_actor(Box::new(member));
///         log
///     })
///     .collect();
/// rt.run(Time::ZERO + Duration::from_millis(10));
/// let reference = logs[0].borrow().delivered.clone();
/// assert!(!reference.is_empty());
/// for log in &logs {
///     assert_eq!(log.borrow().delivered, reference);
/// }
/// ```
#[derive(Debug)]
pub struct ReplicaGroup {
    cfg: GroupConfig,
    /// The co-located membership agent's log; `None` runs the group on
    /// its static member list (no failover).
    view_source: Option<Rc<RefCell<AgentLog>>>,
    inbox: DeltaInbox,
    /// Order-sensitive fold of the executed requests.
    state: u64,
    executed: IdSet,
    /// Ids below this floor are covered by an adopted catch-up snapshot:
    /// folded into `state` already, never re-executed.
    executed_floor: u64,
    /// Executed-request count, floor-covered ids included (the vote
    /// cross-check compares it mod 4096).
    executed_count: u64,
    /// Highest executed request id (`executed.max()` without the scan).
    last_executed: Option<u64>,
    /// Between restart and snapshot adoption (active/semi-active):
    /// deliveries buffer instead of executing, so the adopted fold and
    /// the live stream splice without overlap.
    catching_up: bool,
    /// Received snapshot parts: state halves and `(floor, count)`.
    snap_hi: Option<u64>,
    snap_lo: Option<u64>,
    snap_mark: Option<(u64, u64)>,
    /// Leader side: queued `(node, epoch)` pulls awaiting the deferred
    /// snapshot reply.
    pending_pulls: Vec<(u32, u64)>,
    /// Delivered but not yet executed (semi-active followers await the
    /// order; passive backups await a takeover): `id → (ts, sender)`.
    pending: HashMap<u64, (Time, u32)>,
    /// Semi-active: buffered decided orders `seq → id` of the current
    /// stream.
    orders: BTreeMap<u64, u64>,
    next_seq: u64,
    /// The leader whose order stream this member is following.
    cur_order_leader: Option<u32>,
    /// While re-anchoring onto a (new) order stream — after a restart or
    /// a leadership change — incoming orders are buffered for one Δ (so
    /// a reordered in-flight copy is not dropped) and the stream is
    /// adopted at the lowest buffered sequence number.
    order_resync: bool,
    emitted_ids: IdSet,
    /// Passive: watermark of the last received checkpoint.
    ckpt_watermark: Option<u64>,
    executions_since_ckpt: u64,
    /// Lowest request id this member may submit as gateway: bumped past
    /// the blackout at restart — requests scheduled while it was down
    /// were the interim gateway's responsibility, and re-submitting them
    /// would append stale ids to its own Δ-order.
    makeup_floor: u64,
    cur_leader: u32,
    /// Set at restart: leadership is withheld until the co-located agent
    /// installs a view at or after this instant (re-admission), so a
    /// stale pre-crash view cannot make a rejoining member submit
    /// concurrently with the interim gateway.
    await_view_since: Option<Time>,
    epoch: u64,
    /// Engine instants at which a `GK_TICK` of this life is pending — at
    /// most one per instant (see the module doc); a handful of entries,
    /// one per request inside the client timeout window.
    ticks: Vec<Time>,
    log: Rc<RefCell<GroupLog>>,
    tap: Option<ProtocolTap>,
}

impl ReplicaGroup {
    /// Creates one group member and the shared log handle the embedding
    /// runtime reads after the run. `view_source` is the co-located
    /// membership agent's log (group membership re-binds to its agreed
    /// views); `None` pins the view to the static member list.
    ///
    /// # Panics
    ///
    /// Panics if the member list is empty, unsorted, does not contain
    /// the member's own node, disagrees with `peers`, or the request
    /// period is zero (the submission tick would stop advancing time).
    pub fn new(
        cfg: GroupConfig,
        view_source: Option<Rc<RefCell<AgentLog>>>,
    ) -> (Self, Rc<RefCell<GroupLog>>) {
        assert!(!cfg.members.is_empty(), "a group needs members");
        assert!(
            cfg.source.is_some() || !cfg.request_period.is_zero(),
            "the request period must be positive"
        );
        assert!(
            cfg.members.windows(2).all(|w| w[0] < w[1]),
            "group members must be ascending"
        );
        assert!(
            cfg.members.contains(&cfg.node.0),
            "the member's node must be in the group"
        );
        assert_eq!(
            cfg.members.len(),
            cfg.peers.len(),
            "one peer address per member"
        );
        assert!(
            cfg.members
                .iter()
                .zip(cfg.peers.iter())
                .all(|(m, (n, _))| m == n),
            "peer addresses must follow the member list"
        );
        let log = Rc::new(RefCell::new(GroupLog::new(cfg.group, cfg.node.0)));
        let member = ReplicaGroup {
            inbox: DeltaInbox::new(cfg.delta),
            cur_leader: cfg.members[0],
            cfg,
            view_source,
            state: 0,
            executed: IdSet::default(),
            executed_floor: 0,
            executed_count: 0,
            last_executed: None,
            catching_up: false,
            snap_hi: None,
            snap_lo: None,
            snap_mark: None,
            pending_pulls: Vec::new(),
            pending: HashMap::new(),
            orders: BTreeMap::new(),
            next_seq: 0,
            cur_order_leader: None,
            order_resync: false,
            emitted_ids: IdSet::default(),
            ckpt_watermark: None,
            executions_since_ckpt: 0,
            makeup_floor: 0,
            await_view_since: None,
            epoch: 0,
            ticks: Vec::new(),
            log: log.clone(),
            tap: None,
        };
        (member, log)
    }

    /// Installs the online observation tap: handoffs, submissions,
    /// deliveries and outputs are handed to it as [`MonitorEvent`]s at
    /// their engine instant. The tap must not re-enter the engine.
    pub fn with_tap(mut self, tap: ProtocolTap) -> Self {
        self.tap = Some(tap);
        self
    }

    fn me(&self) -> u32 {
        self.cfg.node.0
    }

    /// The leader per the agreed view: the lowest member it holds live
    /// (the static list's head when no agent is attached, no view is
    /// installed yet or the view holds no member), honouring the
    /// post-restart leadership holdback.
    fn live_leader(&mut self, now: Time) -> u32 {
        let head = self.cfg.members[0];
        let Some(source) = &self.view_source else {
            return head;
        };
        let source = source.borrow();
        let Some(view) = source.views.iter().rev().find(|v| v.installed_at <= now) else {
            return head;
        };
        if let Some(since) = self.await_view_since {
            // Re-admission shows up as a fresh view install — or, when
            // the outage was shorter than the detection window, as a
            // completed fast-path rejoin with no view change at all.
            let readmitted = view.installed_at >= since
                || source.rejoins.iter().any(|r| r.readmitted_at >= since);
            if readmitted {
                self.await_view_since = None;
            }
        }
        // Rejoin in progress: this member must not count itself live (a
        // stale pre-crash view could otherwise hand it leadership
        // concurrently with the interim leader).
        let (me, held_back) = (self.me(), self.await_view_since.is_some());
        self.cfg
            .members
            .iter()
            .copied()
            .find(|m| view.members.contains(m) && !(held_back && *m == me))
            .unwrap_or(head)
    }

    /// Re-reads the agreed view and re-binds leadership; runs the
    /// style-specific takeover when leadership lands here.
    fn rebind(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let leader = self.live_leader(now);
        if leader != self.cur_leader {
            let old = self.cur_leader;
            self.cur_leader = leader;
            if leader == self.me() {
                self.take_over(old, now, ctx);
            } else {
                // Follower side: every leadership change starts a fresh
                // order stream at sequence 0 — re-anchor on its first
                // burst even when the leader *id* repeats (a returning
                // leader's second tenure must not be dropped against its
                // first tenure's sequence numbers).
                self.cur_order_leader = None;
                self.orders.clear();
                self.order_resync = true;
            }
        }
    }

    fn fanout(&mut self, ctx: &mut ActorCtx<'_>, tag: u64, payload: u64) {
        let targets = self.cfg.peers.iter().map(|(n, a)| (*a, NodeId(*n)));
        let accepted = ctx.fanout(targets, tag, payload, self.cfg.attempts);
        self.log.borrow_mut().messages_sent += accepted as u64;
    }

    /// Order-sensitive state fold (FNV-style): equal states certify
    /// identical execution orders. Ids below the catch-up floor are
    /// already folded into the adopted snapshot and never re-execute.
    fn execute(&mut self, id: u64) -> bool {
        if id < self.executed_floor || !self.executed.insert(id) {
            return false;
        }
        self.executed_count += 1;
        self.last_executed = Some(self.last_executed.map_or(id, |m| m.max(id)));
        self.state = self
            .state
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(id + 1);
        self.log.borrow_mut().final_state = self.state;
        true
    }

    /// Hands the tap, if any, the event `build` makes of this member's
    /// group and node ids.
    fn observe(&self, now: Time, build: impl FnOnce(u32, u32) -> MonitorEvent) {
        if let Some(tap) = &self.tap {
            (tap.0)(now, &build(self.cfg.group, self.me()));
        }
    }

    /// Records a client-visible output and feeds it back into the shared
    /// request source — the closed-loop response hook. When the report
    /// extends the schedule (the closed-loop client's next request), this
    /// member arms its own tick at the new instant and wakes every peer
    /// there too, so whichever member is gateway *then* submits it.
    fn emit(&mut self, id: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        if !self.emitted_ids.insert(id) {
            return;
        }
        self.log.borrow_mut().emitted.push((id, now));
        self.observe(now, |group, member| MonitorEvent::OutputEmitted {
            group,
            member,
            id,
            expect_unique: self.cfg.style != ReplicaStyle::Active,
        });
        let next = self
            .cfg
            .source
            .as_ref()
            .and_then(|s| s.borrow_mut().on_response(id, now));
        if let Some(next) = next {
            self.arm_tick(next, ctx);
            let me = self.me();
            for &(n, actor) in &self.cfg.peers {
                if n != me {
                    ctx.notify_at(actor, next, GN_WAKE);
                }
            }
        }
    }

    /// The one place a `GK_TICK` is armed: nothing when a tick of this
    /// life is already pending for the instant this one would fire at.
    /// That instant is where the timer lands on the engine's timeline,
    /// not `at` — on a skewed node two arms of one `at` from different
    /// `now`s fire apart, and each is a poll of the view log that the
    /// dedup must keep (see the module doc).
    fn arm_tick(&mut self, at: Time, ctx: &mut ActorCtx<'_>) {
        let fires_at = ctx.timer_fires_at(at);
        if !self.ticks.contains(&fires_at) {
            self.ticks.push(fires_at);
            ctx.timer_at(at, tag(GK_TICK, self.epoch & 0xFFFF));
        }
    }

    fn arm_next_tick(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        // An exhausted explicit schedule arms nothing: the stream is over.
        if let Some(next) = self.cfg.next_submission_after(now) {
            self.arm_tick(next, ctx);
        }
    }

    /// Submission tick: the gateway submits the scheduled request plus
    /// any request it has no knowledge of (a predecessor gateway died
    /// before submitting it).
    fn on_tick(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rebind(now, ctx);
        // The floor chases the contiguously-known prefix so a tick scans
        // only genuinely unknown ids, not the whole run so far.
        while self.inbox.knows(self.makeup_floor) {
            self.makeup_floor += 1;
        }
        if self.cur_leader == self.me() {
            let upto = self.cfg.submissions_through(now);
            for id in self.makeup_floor..upto {
                if !self.inbox.knows(id) {
                    // Fresh timestamp: a catch-up submission cannot be
                    // retrofitted into the past of the Δ-order.
                    self.log.borrow_mut().submitted.push((id, now));
                    self.observe(now, |group, _| MonitorEvent::RequestSubmitted { group, id });
                    if let Some(due) = self.inbox.accept(id, now, self.me(), now) {
                        ctx.timer_at(due, tag(GK_DELIVER, self.epoch & 0xFFFF));
                    }
                    self.fanout(ctx, GMSG_REQ, req_payload(id, now));
                }
            }
        }
        self.arm_next_tick(now, ctx);
    }

    /// Δ-delivery instant: release everything due, in `(ts, sender)`
    /// order, and apply the style.
    fn on_deliver(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rebind(now, ctx);
        let due = self.inbox.due(now);
        for (id, ts, sender) in due {
            self.log.borrow_mut().delivered.push(id);
            self.observe(now, |group, member| MonitorEvent::RequestDelivered {
                group,
                member,
                id,
                ts,
            });
            match self.cfg.style {
                ReplicaStyle::Active => {
                    if self.catching_up {
                        // Buffer until the catch-up snapshot arrives: the
                        // adopted fold covers everything below its floor,
                        // and buffered deliveries splice in above it.
                        self.pending.insert(id, (ts, sender));
                        continue;
                    }
                    self.execute(id);
                    // Every member votes; the voter keeps the first copy.
                    self.emit(id, now, ctx);
                    let digest = self.state & 0xFFFF_FFFF;
                    let count = self.executed_count;
                    self.fanout(ctx, GMSG_VOTE, vote_payload(id, count, digest));
                }
                ReplicaStyle::SemiActive => {
                    if self.cur_leader == self.me() && !self.catching_up {
                        self.execute(id);
                        self.emit(id, now, ctx);
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        let me = self.me();
                        self.fanout(ctx, GMSG_ORDER, order_payload(me, seq, id));
                    } else {
                        self.pending.insert(id, (ts, sender));
                    }
                }
                ReplicaStyle::Passive { checkpoint_every } => {
                    if self.cur_leader == self.me() {
                        self.execute(id);
                        self.emit(id, now, ctx);
                        self.executions_since_ckpt += 1;
                        if self.executions_since_ckpt >= checkpoint_every as u64 {
                            self.executions_since_ckpt = 0;
                            self.fanout(ctx, GMSG_CKPT, id);
                        }
                    } else {
                        self.pending.insert(id, (ts, sender));
                    }
                }
            }
        }
    }

    /// Applies buffered semi-active orders in contiguous sequence.
    fn apply_orders(&mut self) {
        if self.catching_up {
            return; // orders buffer until the snapshot is adopted
        }
        while let Some(id) = self.orders.remove(&self.next_seq) {
            self.next_seq += 1;
            self.pending.remove(&id);
            if self.execute(id) {
                // Executed under the leader's order, output withheld.
                self.log.borrow_mut().suppressed += 1;
            }
        }
    }

    /// Ends the post-restart order-resync window: adopt the stream at
    /// the lowest buffered sequence number (in-flight reordering is
    /// bounded by `δmax ≤ Δ`, so every copy of the burst has arrived)
    /// and apply contiguously.
    fn finish_order_resync(&mut self) {
        if !self.order_resync {
            return;
        }
        if self.catching_up {
            // A snapshot pull is still in flight. In the steady path the
            // follower is strictly behind the leader, so the adoption
            // overwrite would stay consistent — but a leadership change
            // mid-pull can pair a stale snapshot with a newer order
            // stream, whose executed folds the overwrite would silently
            // lose. Keep buffering; the adoption re-runs the resync.
            return;
        }
        self.order_resync = false;
        if let Some(&seq) = self.orders.keys().next() {
            self.next_seq = seq;
        }
        self.apply_orders();
    }

    /// Pending deliveries in Δ-order — the takeover work list.
    fn pending_in_order(&self) -> Vec<u64> {
        let mut v: Vec<(Time, u32, u64)> = self
            .pending
            .iter()
            .map(|(id, (ts, sender))| (*ts, *sender, *id))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, _, id)| id).collect()
    }

    /// Abandons an unanswered catch-up: leadership (or the end of the
    /// run) cannot wait on a snapshot that may never arrive, so the
    /// member falls back to the pre-catch-up behaviour — buffered
    /// deliveries execute now, the blackout window stays skipped.
    fn abort_catchup(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        if !self.catching_up {
            return;
        }
        self.catching_up = false;
        if matches!(self.cfg.style, ReplicaStyle::Active) {
            for id in self.pending_in_order() {
                self.pending.remove(&id);
                if self.execute(id) {
                    self.emit(id, now, ctx);
                }
            }
        }
    }

    /// Style-specific leadership takeover.
    fn take_over(&mut self, old: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        self.abort_catchup(now, ctx);
        self.log.borrow_mut().handoffs.push((old, self.me(), now));
        self.observe(now, |group, to| MonitorEvent::LeadershipHandoff {
            group,
            from: old,
            to,
        });
        match self.cfg.style {
            ReplicaStyle::Active => {
                // Nothing to repair: outputs were never interrupted (the
                // voter has the surviving members' votes); the next tick
                // makes this member the submitting gateway.
            }
            ReplicaStyle::SemiActive => {
                // Settle any in-flight resync first: buffered orders
                // execute as the previous leader decided before this
                // member re-orders the leftovers. Then open a fresh
                // order stream — streams are per-leader, starting at
                // sequence 0, so no knowledge of the predecessor's
                // numbering is needed.
                self.finish_order_resync();
                self.next_seq = 0;
                self.cur_order_leader = Some(self.me());
                // Order, execute and emit everything delivered but never
                // ordered by the dead leader.
                for id in self.pending_in_order() {
                    self.pending.remove(&id);
                    self.execute(id);
                    self.emit(id, now, ctx);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let me = self.me();
                    self.fanout(ctx, GMSG_ORDER, order_payload(me, seq, id));
                }
            }
            ReplicaStyle::Passive { .. } => {
                // Reconstruct the checkpointed state by folding the
                // buffered deliveries up to the watermark (the backup's
                // Δ-order matches the primary's, so the fold does too —
                // and unlike shipping the state alongside the watermark
                // in a second message, this cannot race a reordered or
                // dropped copy), then replay what was delivered since.
                // Re-emissions past the watermark are the passive
                // style's duplicate-output exposure.
                let w = self.ckpt_watermark;
                let (covered, replay): (Vec<u64>, Vec<u64>) = self
                    .pending_in_order()
                    .into_iter()
                    .partition(|id| w.is_some_and(|w| *id <= w));
                for id in covered {
                    self.pending.remove(&id);
                    self.execute(id); // checkpoint install, no output
                }
                self.log.borrow_mut().replayed += replay.len() as u64;
                for id in replay {
                    self.pending.remove(&id);
                    self.execute(id);
                    self.emit(id, now, ctx);
                }
            }
        }
        // A closed-loop source only advances when responses flow; the
        // dead gateway's pending tick died with it, so the new leader
        // runs one tick immediately — submitting whatever the source had
        // scheduled during the outage — instead of waiting for a timer
        // that nobody will arm. A redundant tick is harmless (makeup
        // submissions dedup against the inbox).
        self.on_tick(now, ctx);
    }

    fn on_restart(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.epoch += 1;
        // The previous life's timers are dead (epoch check): none pends.
        self.ticks.clear();
        self.log.borrow_mut().restarts.push(now);
        // Volatile protocol state is gone; the executed set and the
        // service state survive on local stable storage (the requests of
        // the down window are lost to this member).
        self.inbox.clear_pending();
        self.pending.clear();
        self.orders.clear();
        self.pending_pulls.clear();
        self.cur_order_leader = None;
        self.order_resync = true;
        // Requests scheduled during the blackout are off limits; a
        // restart before the stream even started leaves everything
        // submittable.
        self.makeup_floor = self.cfg.submissions_through(now);
        self.await_view_since = Some(now);
        self.arm_next_tick(now, ctx);
        // Group state transfer: instead of permanently skipping the
        // blackout window, an active/semi-active member pulls the group
        // fold from the current leader (the group-level payload of the
        // rejoin checkpoint) and splices its live stream on top.
        if !matches!(self.cfg.style, ReplicaStyle::Passive { .. }) && self.cfg.members.len() > 1 {
            self.catching_up = true;
            self.snap_hi = None;
            self.snap_lo = None;
            self.snap_mark = None;
            self.fanout(ctx, GMSG_PULL, self.epoch & 0xFFFF);
            ctx.timer_after(
                self.cfg.delta.saturating_mul(4),
                tag(GK_PULL, self.epoch & 0xFFFF),
            );
        }
    }

    /// Adopts the catch-up snapshot once all three parts arrived: the
    /// state fold stands in for every request below the floor, and the
    /// deliveries buffered since the restart splice in above it.
    fn maybe_adopt_snapshot(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        if !self.catching_up {
            return;
        }
        let (Some(hi), Some(lo), Some((floor, count))) =
            (self.snap_hi, self.snap_lo, self.snap_mark)
        else {
            return;
        };
        self.catching_up = false;
        self.state = (hi << 32) | lo;
        self.executed_floor = self.executed_floor.max(floor);
        self.executed_count = count;
        if floor > 0 {
            self.last_executed = Some(self.last_executed.map_or(floor - 1, |m| m.max(floor - 1)));
        }
        {
            let mut log = self.log.borrow_mut();
            log.final_state = self.state;
            log.catchups += 1;
        }
        match self.cfg.style {
            ReplicaStyle::Active => {
                // Execute (and vote) the buffered live stream above the
                // floor, in Δ-order; covered ids are settled by the fold.
                for id in self.pending_in_order() {
                    self.pending.remove(&id);
                    if self.execute(id) {
                        self.emit(id, now, ctx);
                        let digest = self.state & 0xFFFF_FFFF;
                        let count = self.executed_count;
                        self.fanout(ctx, GMSG_VOTE, vote_payload(id, count, digest));
                    }
                }
            }
            ReplicaStyle::SemiActive => {
                // Covered ids are settled; the rest stays buffered for
                // the leader's order stream (or this member's own
                // takeover, should leadership land here).
                let covered: Vec<u64> = self
                    .pending
                    .keys()
                    .copied()
                    .filter(|id| *id < self.executed_floor)
                    .collect();
                for id in covered {
                    self.pending.remove(&id);
                }
                // Orders received while the pull was in flight were held
                // back (executing them pre-adoption would lose their
                // folds to the snapshot overwrite): settle the buffered
                // stream now — ids below the floor dedup away.
                self.finish_order_resync();
                if self.cur_leader == self.me() {
                    for id in self.pending_in_order() {
                        self.pending.remove(&id);
                        if self.execute(id) {
                            self.emit(id, now, ctx);
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            let me = self.me();
                            self.fanout(ctx, GMSG_ORDER, order_payload(me, seq, id));
                        }
                    }
                }
            }
            ReplicaStyle::Passive { .. } => {}
        }
    }

    /// Leader side: answers every queued pull with the current fold.
    /// Runs one deferral window after the pull arrived, so everything in
    /// the Δ-pipeline at the pull instant is already folded in and the
    /// snapshot overlaps the joiner's live stream instead of leaving a
    /// gap.
    fn serve_pending_pulls(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rebind(now, ctx);
        let pulls = std::mem::take(&mut self.pending_pulls);
        if pulls.is_empty() || self.catching_up || self.cur_leader != self.me() {
            return; // the puller's retransmission finds the current leader
        }
        let floor = self
            .last_executed
            .map_or(0, |x| x + 1)
            .max(self.executed_floor)
            .min(0xF_FFFF);
        for (node, epoch) in pulls {
            let Some((_, actor)) = self.cfg.peers.iter().find(|(n, _)| *n == node).copied() else {
                continue;
            };
            let to = NodeId(node);
            for (kind, payload) in [
                (GMSG_SNAP_HI, snap_payload(epoch, self.state >> 32)),
                (GMSG_SNAP_LO, snap_payload(epoch, self.state & 0xFFFF_FFFF)),
                (
                    GMSG_SNAP_MARK,
                    snap_mark_payload(epoch, floor, self.executed_count),
                ),
            ] {
                let accepted = ctx.fanout([(actor, to)], kind, payload, self.cfg.attempts);
                self.log.borrow_mut().messages_sent += accepted as u64;
            }
        }
    }

    fn sync_inbox_counters(&mut self) {
        let mut log = self.log.borrow_mut();
        log.late_discards = self.inbox.late_discards();
    }
}

impl NetActor for ReplicaGroup {
    fn node(&self) -> NodeId {
        self.cfg.node
    }

    fn label(&self) -> &'static str {
        GROUP_LABEL
    }

    fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
        match ev {
            ActorEvent::Start => {
                self.rebind(now, ctx);
                self.arm_next_tick(now, ctx);
            }
            // Out-of-band wake: a closed-loop response elsewhere (or a
            // control-plane workload retune) extended/changed the shared
            // schedule — run a submission tick so the current gateway
            // picks it up, whoever that is by now.
            ActorEvent::Notify { tag: GN_WAKE } => self.on_tick(now, ctx),
            ActorEvent::Notify { .. } => {}
            ActorEvent::Restart => self.on_restart(now, ctx),
            ActorEvent::Timer { tag: t } => {
                if t & 0xFFFF != self.epoch & 0xFFFF {
                    return; // timer of a previous life
                }
                match t >> 60 {
                    GK_TICK => {
                        self.ticks.retain(|t| *t != now);
                        self.on_tick(now, ctx);
                    }
                    GK_DELIVER => self.on_deliver(now, ctx),
                    GK_RESYNC => self.finish_order_resync(),
                    GK_PULL
                        // Re-announce the pull while no snapshot arrived
                        // (lost PULL or reply copies, or a leader change
                        // mid-answer).
                        if self.catching_up => {
                            self.fanout(ctx, GMSG_PULL, self.epoch & 0xFFFF);
                            ctx.timer_after(
                                self.cfg.delta.saturating_mul(4),
                                tag(GK_PULL, self.epoch & 0xFFFF),
                            );
                        }
                    GK_SNAP => self.serve_pending_pulls(now, ctx),
                    _ => {}
                }
            }
            ActorEvent::Message {
                from,
                tag: t,
                payload,
            } => {
                self.rebind(now, ctx);
                match t {
                    GMSG_REQ => {
                        let (id, ts) = req_decode(payload);
                        if let Some(due) = self.inbox.accept(id, ts, from.0, now) {
                            ctx.timer_at(due, tag(GK_DELIVER, self.epoch & 0xFFFF));
                        }
                        self.sync_inbox_counters();
                    }
                    GMSG_ORDER => {
                        let (leader, seq, id) = order_decode(payload);
                        if self.cur_leader == self.me() {
                            return; // leaders decide, they don't follow
                        }
                        if self.cur_order_leader != Some(leader) {
                            // Stream switch (leadership changed, or the
                            // first stream this member ever sees): drop
                            // leftovers of the old stream and re-anchor.
                            self.cur_order_leader = Some(leader);
                            self.orders.clear();
                            self.order_resync = true;
                        }
                        if self.order_resync {
                            // Buffer the whole burst for one Δ before
                            // adopting the stream: a lower-seq copy
                            // reordered in flight must not be dropped.
                            if self.orders.is_empty() {
                                ctx.timer_at(
                                    now + self.cfg.delta,
                                    tag(GK_RESYNC, self.epoch & 0xFFFF),
                                );
                            }
                            self.orders.insert(seq, id);
                        } else if seq >= self.next_seq {
                            self.orders.insert(seq, id);
                            self.apply_orders();
                        }
                    }
                    GMSG_VOTE => {
                        let (id, count, digest) = vote_decode(payload);
                        if self.executed.contains(id) {
                            // A redundant copy of an output this member
                            // already produced: the voter suppresses it.
                            // The digest cross-check is only meaningful
                            // between members with the same history —
                            // this member's latest execution is the voted
                            // request and both executed the same number
                            // of requests (a restarted replica's shorter
                            // history is not a divergence).
                            let comparable = self.last_executed == Some(id)
                                && self.executed_count & 0xFFF == count;
                            let mut log = self.log.borrow_mut();
                            log.suppressed += 1;
                            if comparable && self.state & 0xFFFF_FFFF != digest {
                                log.vote_mismatches += 1;
                            }
                        }
                    }
                    // Watermarks only ever advance; a reordered older
                    // copy must not roll the checkpoint back.
                    GMSG_CKPT if self.ckpt_watermark.is_none_or(|w| payload > w) => {
                        self.ckpt_watermark = Some(payload);
                    }
                    GMSG_PULL
                        // Only the current leader answers, after one
                        // deferral window; everyone else stays silent and
                        // the puller's retransmission finds the leader.
                        if from.0 != self.me() && self.cur_leader == self.me() && !self.catching_up
                        => {
                            let epoch = payload & 0xFFFF;
                            self.pending_pulls.retain(|(n, _)| *n != from.0);
                            self.pending_pulls.push((from.0, epoch));
                            ctx.timer_at(
                                now + self.cfg.delta.saturating_mul(2),
                                tag(GK_SNAP, self.epoch & 0xFFFF),
                            );
                        }
                    GMSG_SNAP_HI if self.catching_up => {
                        let (epoch, bits) = snap_decode(payload);
                        if epoch == self.epoch & 0xFFFF {
                            self.snap_hi = Some(bits);
                            self.maybe_adopt_snapshot(now, ctx);
                        }
                    }
                    GMSG_SNAP_LO if self.catching_up => {
                        let (epoch, bits) = snap_decode(payload);
                        if epoch == self.epoch & 0xFFFF {
                            self.snap_lo = Some(bits);
                            self.maybe_adopt_snapshot(now, ctx);
                        }
                    }
                    GMSG_SNAP_MARK if self.catching_up => {
                        let (epoch, floor, count) = snap_mark_decode(payload);
                        if epoch == self.epoch & 0xFFFF {
                            self.snap_mark = Some((floor, count));
                            self.maybe_adopt_snapshot(now, ctx);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
#[path = "tests/group.rs"]
mod tests;
