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
//! What a member did at an instant — a leadership handoff, a submission,
//! a Δ-delivery or an output — is handed to the tap, when one is
//! installed ([`ReplicaGroup::with_tap`]), at that engine instant as a
//! [`MonitorEvent`] naming the group (and the member); the tap is the one
//! record of those events. An output carries whether the member's own
//! replication style deduplicates, so a monitor needs no per-group
//! configuration. The tap is invoked synchronously inside the handler and
//! must not re-enter the engine. The member's shared [`GroupLog`] keeps
//! what no event carries: its delivery sequence, its counters, its
//! restarts and its final state.
//!
//! The module assumes the Δ-protocol's premises: bounded transit
//! (`δmax ≤ Δ`) and view installs synchronized within one agreement
//! round. Per-link omission failures are masked by the redundant
//! transmission budget [`GroupConfig::attempts`] (the reliable-multicast
//! substrate of the paper's "Rel. Mcast" box).

use crate::actors::AgentLog;
use crate::comm::DeltaInbox;
use crate::idset::IdSet;
use crate::replication::ReplicaStyle;
use crate::wire;
use hades_sim::mux::{ActorCtx, ActorEvent, ActorId, NetActor};
use hades_sim::NodeId;
use hades_telemetry::monitor::{MonitorEvent, ProtocolTap};
use hades_time::{Duration, Time};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

mod request;
mod styles;
mod transfer;

pub use request::{FixedSchedule, RequestSource};

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

/// Timer kind (the kind bits of a [`wire::epoch_timer`] tag): submission
/// tick (every request period).
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
}

/// What one group member keeps for after the run: its delivery sequence,
/// its counters, its restarts and its final state. Submissions, outputs
/// and handoffs are not kept here; they go to the tap
/// ([`MonitorEvent::RequestSubmitted`], [`MonitorEvent::OutputEmitted`],
/// [`MonitorEvent::LeadershipHandoff`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupLog {
    /// The group.
    pub group: u32,
    /// The member's node.
    pub node: u32,
    /// The member's delivery sequence, as request ids in delivery
    /// order — the sequence the agreement checks compare. Each
    /// delivery's Δ-order stamp and instant go to the tap
    /// ([`MonitorEvent::RequestDelivered`]), not here.
    pub delivered: Vec<u64>,
    /// Duplicate outputs this member suppressed (redundant votes seen,
    /// or follower executions whose output was withheld).
    pub suppressed: u64,
    /// Active-style vote digests that disagreed with the local state.
    pub vote_mismatches: u64,
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
            ..GroupLog::default()
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
                if !wire::same_epoch(t, self.epoch) {
                    return; // timer of a previous life
                }
                match wire::TIMER.unpack(t)[0] {
                    GK_TICK => self.on_tick_due(now, ctx),
                    GK_DELIVER => self.on_deliver(now, ctx),
                    GK_RESYNC => self.finish_order_resync(),
                    GK_PULL
                        // Re-announce the pull while no snapshot arrived
                        // (lost PULL or reply copies, or a leader change
                        // mid-answer).
                        if self.catching_up => self.on_pull_retry(ctx),
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
                    GMSG_REQ => self.on_request(from, payload, now, ctx),
                    GMSG_ORDER => self.on_order(payload, now, ctx),
                    GMSG_VOTE => self.on_vote(payload),
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
                        => self.on_pull(from, payload, now, ctx),
                    GMSG_SNAP_HI if self.catching_up => self.on_snap_hi(payload, now, ctx),
                    GMSG_SNAP_LO if self.catching_up => self.on_snap_lo(payload, now, ctx),
                    GMSG_SNAP_MARK if self.catching_up => self.on_snap_mark(payload, now, ctx),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
#[path = "../tests/group.rs"]
mod tests;
