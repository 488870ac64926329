//! Engine-driven service actors: the per-node middleware agent.
//!
//! A cluster runtime needs detection, membership and recovery as
//! **actors** on a shared engine, interleaved with the dispatcher and with
//! each other — the composition the paper deploys on every node.
//!
//! [`NodeAgent`] is that composition for one node. It runs four layers in
//! one state machine:
//!
//! * **crash detection** — emits heartbeats every `H` to all peers and
//!   suspects a peer whose silence exceeds `T₀ = H + δmax + γ`
//!   ([`AgentConfig::timeout`]). On a synchronous substrate (bounded
//!   delay δmax, clocks within γ) that makes the detector *perfect*: a
//!   silent node is crashed, never merely slow, and detection happens
//!   within [`AgentConfig::detection_bound`] of the crash. Every
//!   sign of life *reserves* the peer's next deadline as a
//!   [`Place`] in the delivery order — the instant and the tie-break a
//!   timer armed right then would have — and the agent keeps **one**
//!   time-out in the engine's queue, in the earliest live place, re-armed
//!   when it fires: a deadline a later heartbeat voided costs the
//!   simulator nothing, and one that comes due fires exactly where its
//!   own timer would have. After a restart the agent drops every place
//!   that came due during the outage — the host delivered nothing then,
//!   the queued time-out included — and queues under what is left;
//! * **membership** — on suspicion it floods a view-change proposal
//!   (`f + 1` rounds, FloodSet-style, as in [`crate::consensus`]) and
//!   installs the agreed view at a bounded time after the first round;
//!   proposals can both *remove* suspects and *re-admit* joiners
//!   (exclusion wins for current members, inclusion wins for returners);
//! * **passive replication management** — the lowest-numbered member of
//!   the current view is the primary; a view change that removes the
//!   primary promotes the next member, which is the takeover moment of
//!   passive/semi-active replication ([`crate::replication`]);
//! * **crash recovery** — on [`ActorEvent::Restart`] the agent comes back
//!   *cold* and runs the rejoin protocol of [`crate::recovery`]: it
//!   announces itself, the lowest-numbered surviving member serves its
//!   latest checkpoint as paced MTU-sized chunks over the shared network
//!   (size-proportional cost), the joiner replays the log tail locally
//!   and a view change re-admits it to membership.
//!
//! Membership travels as a [`MemberSet`]: proposals and transfer
//! preambles ship the set as independent 32-bit wire words (one message
//! per word), which is sound because every membership merge rule is
//! bitwise and can be applied word by word. The old single-`u64` packing
//! capped clusters at 48 nodes; the word-chunked encoding addresses
//! [`crate::memberset::MAX_NODES`].
//!
//! Every externally visible transition is appended to a shared
//! [`AgentLog`] the embedding runtime reads back after the run, and — when
//! a tap is installed ([`NodeAgent::with_tap`]) — handed to it at the same
//! engine instant as a [`MonitorEvent`]: view installs, suspicions raised
//! and cleared, and the rejoin phase marks, each naming this agent's node.
//! The tap is invoked synchronously inside the handler and must not
//! re-enter the engine. The agent
//! assumes crashes are separated by more than one detection + agreement
//! window (the paper's bounded-failure model); overlapping failures keep
//! safety of the sets but may skip view numbers on some nodes. A state
//! transfer whose server dies mid-stream does *not* stall until the next
//! failure-free window: the joiner re-announces on the heartbeat cadence
//! (each re-announcement is a liveness mark for the stall watchdog), every
//! live node remembers the request, and whichever member the post-exclusion
//! view designates as server re-serves from its own preamble. When *every*
//! member is simultaneously rejoining (total failure), the lowest-numbered
//! announcer that has heard only fellow announcers for two stalled retry
//! rounds bootstraps a singleton view numbered past every view it has heard
//! of and serves the others back in.

use crate::memberset::{MemberSet, MAX_NODES};
use crate::membership::View;
use crate::recovery::{RecoveryConfig, RejoinRecord};
use crate::wire;
use hades_sim::mux::{ActorCtx, ActorEvent, ActorId, NetActor, Place};
use hades_sim::{ActorEngine, Network, NodeId};
use hades_telemetry::monitor::{MonitorEvent, ProtocolTap};
use hades_time::{Duration, Time};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

mod detector;
mod membership;
mod rejoin;

/// Message kind: heartbeat.
const MSG_HB: u64 = 1;
/// Message kind: one wire word of a view-change proposal (payload =
/// target view + word index + word bits).
const MSG_VC: u64 = 2;
/// Message kind: join request from a restarted node (payload = epoch).
const MSG_JOIN: u64 = 3;
/// Message kind: one state-transfer chunk (payload = epoch + seq + total).
const MSG_CKPT: u64 = 4;
/// Message kind: transfer preamble, part 1 (epoch + log tail + view
/// number).
const MSG_SYNC: u64 = 5;
/// Message kind: transfer preamble, part 2 — one wire word of the
/// membership set (epoch + word index + word bits).
const MSG_MASK: u64 = 6;
/// Message kind: selective-retransmission request from the joiner — one
/// missing chunk sequence number (epoch + seq).
const MSG_NACK: u64 = 7;
/// Message kind: *delta*-transfer preamble, part 1. Same payload layout
/// as [`MSG_SYNC`], but signals that the stream carries the log tail
/// only — the joiner's durable checkpoint already covers the snapshot.
const MSG_DSYNC: u64 = 8;

/// Timer kinds (the kind field of a [`wire::TIMER`] tag).
const KIND_HB_TICK: u64 = 1;
const KIND_TIMEOUT: u64 = 2;
const KIND_ROUND: u64 = 3;
const KIND_DECIDE: u64 = 4;
const KIND_XFER: u64 = 5;
const KIND_REPLAY: u64 = 6;
const KIND_JOIN_RETRY: u64 = 7;
const KIND_NACK: u64 = 8;

/// Most missing chunks NACKed per gap-detection round; the next round
/// picks up the remainder once these retransmissions land.
const NACK_BATCH: u64 = 64;

/// The profiling label of [`NodeAgent`] actors (see
/// `hades_sim::mux::NetActor::label`).
pub const AGENT_LABEL: &str = "agent";

/// Short kind name of an agent protocol message tag, for traffic
/// attribution (`None` for tags the agent never sends).
pub fn agent_msg_name(tag: u64) -> Option<&'static str> {
    Some(match tag {
        MSG_HB => "hb",
        MSG_VC => "view_change",
        MSG_JOIN => "join",
        MSG_CKPT => "ckpt",
        MSG_SYNC => "sync",
        MSG_MASK => "mask",
        MSG_NACK => "nack",
        MSG_DSYNC => "dsync",
        _ => return None,
    })
}

/// Whether one agent observation is heartbeat work: the periodic
/// heartbeat-tick timer (kind bits of the composite timer tag) or an
/// `MSG_HB` message, received (`class == "message"`) or sent
/// (`class == "send"`).
pub fn agent_is_heartbeat(class: &str, tag: u64) -> bool {
    match class {
        "timer" => wire::TIMER.unpack(tag)[0] == KIND_HB_TICK,
        "message" | "send" => tag == MSG_HB,
        _ => false,
    }
}

/// Static configuration of one node's agent.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// The node this agent serves.
    pub node: NodeId,
    /// Cluster size; agents are assumed registered in node order, so the
    /// agent of node *i* has actor id *i*.
    pub nodes: u32,
    /// Heartbeat emission period `H`.
    pub heartbeat_period: Duration,
    /// Clock precision `γ` folded into the suspicion timeout.
    pub clock_precision: Duration,
    /// Crash-fault bound `f`: the view-change flood runs `f + 1` rounds.
    pub f: u32,
    /// Sizing of checkpointed state transfer during rejoins.
    pub recovery: RecoveryConfig,
    /// Route view-change proposals through the Δ-multicast discipline
    /// (each participant multicasts its proposal once, re-multicasting
    /// only when a merge actually changes it) instead of the
    /// FloodSet-style `f + 1`-round rebroadcast. Same agreement bound,
    /// `O(n²)` messages per change instead of `O((f+1)·n²)`.
    pub vc_delta_multicast: bool,
    /// Per-link redundant-transmission budget of the Δ-multicast
    /// view-change transport: each proposal copy is retried up to
    /// `vc_attempts − 1` extra times when the network omits it, so the
    /// cheap transport also survives lossy links (the flood transport
    /// has round-level redundancy instead and always sends single-shot).
    pub vc_attempts: u32,
}

impl AgentConfig {
    /// The suspicion timeout `T₀ = H + δmax + γ`.
    pub fn timeout(&self, max_delay: Duration) -> Duration {
        self.heartbeat_period + max_delay + self.clock_precision
    }

    /// Worst-case detection latency `H + T₀`.
    pub fn detection_bound(&self, max_delay: Duration) -> Duration {
        self.heartbeat_period + self.timeout(max_delay)
    }

    /// One agreement round: `δmax + γ` plus a scheduling margin.
    pub fn round_length(&self, max_delay: Duration) -> Duration {
        max_delay + self.clock_precision + Duration::from_micros(1)
    }

    /// Bound on the time from first local suspicion to view install.
    pub fn agreement_bound(&self, max_delay: Duration) -> Duration {
        self.round_length(max_delay)
            .saturating_mul(self.f as u64 + 1)
    }

    /// Bound on the restart→re-admission latency of the rejoin protocol:
    /// the join announcement reaches the serving member within the
    /// detection bound (one `δmax` in the failure-free case, but bounded
    /// by `H + T₀` like any liveness observation), the state transfer and
    /// replay take at most [`RecoveryConfig::transfer_bound`], and the
    /// re-admission flood completes within one agreement window.
    pub fn rejoin_bound(&self, max_delay: Duration) -> Duration {
        self.detection_bound(max_delay)
            .saturating_add(self.recovery.transfer_bound(max_delay))
            .saturating_add(self.agreement_bound(max_delay))
    }

    /// Number of 32-bit wire words a membership of this cluster takes.
    fn wire_words(&self) -> u32 {
        MemberSet::wire_words(self.nodes)
    }
}

/// Everything one agent observed and decided, readable after the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentLog {
    /// The observing node.
    pub node: u32,
    /// Heartbeats received.
    pub heartbeats_seen: u64,
    /// Own suspicions: `(suspect, when)` in suspicion order.
    pub suspicions: Vec<(u32, Time)>,
    /// Installed views, starting with view 0.
    pub views: Vec<View>,
    /// Cold restarts of this node, in order.
    pub restarts: Vec<Time>,
    /// Completed rejoin cycles of this node.
    pub rejoins: Vec<RejoinRecord>,
    /// State transfers this node served to rejoining peers.
    pub transfers_served: u64,
    /// State-transfer chunks this node sent.
    pub chunks_sent: u64,
    /// View-change proposal messages this node sent (flood rebroadcasts
    /// and per-word copies included), for the flood-vs-Δ-multicast
    /// complexity comparison.
    pub vc_messages_sent: u64,
    /// JOIN/preamble retransmissions this node issued while rejoining
    /// (lossy-link masking on the heartbeat cadence).
    pub join_retries: u64,
    /// Heartbeat copies this node sent that the network accepted.
    pub heartbeats_sent: u64,
    /// Heartbeat copies the network refused at send time (link down or
    /// receiver's node crashed) — suppressed rather than lost in flight.
    pub heartbeats_suppressed: u64,
}

impl AgentLog {
    fn new(node: u32) -> Self {
        AgentLog {
            node,
            ..AgentLog::default()
        }
    }

    /// The current primary: lowest-numbered member of the latest view.
    pub fn primary(&self) -> Option<u32> {
        self.views.last().and_then(|v| v.members.first().copied())
    }

    /// Member sequences of the installed views (for cross-node agreement
    /// checks, which must ignore the node-local install instants).
    pub fn view_members(&self) -> Vec<(u32, Vec<u32>)> {
        self.views
            .iter()
            .map(|v| (v.number, v.members.clone()))
            .collect()
    }
}

/// An in-flight view change.
#[derive(Debug, Clone)]
struct Change {
    target: u32,
    proposal: MemberSet,
}

/// An outbound state transfer in progress (server side).
#[derive(Debug, Clone)]
struct Transfer {
    to: u32,
    to_epoch: u64,
    /// The joiner's durable checkpoint generation (from its join
    /// announcement), kept so an aborted stream can be re-queued.
    to_ckpt_gen: u64,
    total: u64,
    next: u64,
    /// The preamble this transfer shipped, kept for lossy-link re-sends
    /// (view number and membership must stay the consistent pair the
    /// stream was started with).
    log_tail: u64,
    view: u32,
    mask: MemberSet,
    /// Whether the stream is a delta: log tail only, no snapshot bytes.
    delta: bool,
}

/// Timestamps of a rejoin in progress (joiner side).
#[derive(Debug, Clone, Copy, Default)]
struct PendingRejoin {
    restarted_at: Time,
    transfer_started_at: Option<Time>,
    transfer_completed_at: Option<Time>,
    replay_completed_at: Option<Time>,
}

/// The per-node middleware agent (detector + membership + replication
/// management + crash recovery) as a [`NetActor`].
///
/// # Examples
///
/// Running four agents standalone on an [`hades_sim::ActorEngine`]; node 2
/// crashes at 5 ms and restarts at 12 ms, and is re-admitted after a
/// checkpointed state transfer:
///
/// ```
/// use hades_services::actors::{AgentConfig, NodeAgent};
/// use hades_services::recovery::RecoveryConfig;
/// use hades_sim::{FaultPlan, LinkConfig, Network, NodeId, SimRng};
/// use hades_time::{Duration, Time};
///
/// let plan = FaultPlan::new().crash_window(
///     NodeId(2),
///     Time::ZERO + Duration::from_millis(5),
///     Time::ZERO + Duration::from_millis(12),
/// );
/// let net = Network::homogeneous(
///     4,
///     LinkConfig::reliable(Duration::from_micros(10), Duration::from_micros(40)),
///     SimRng::seed_from(1),
/// ).with_fault_plan(plan);
/// let (mut rt, logs) = NodeAgent::cluster(net, AgentConfig {
///     node: NodeId(0), // filled in per agent
///     nodes: 4,
///     heartbeat_period: Duration::from_millis(1),
///     clock_precision: Duration::from_micros(10),
///     f: 1,
///     recovery: RecoveryConfig::default(),
///     vc_delta_multicast: true,
///     vc_attempts: 1,
/// });
/// rt.run(Time::ZERO + Duration::from_millis(30));
/// let joiner = logs[2].borrow();
/// assert_eq!(joiner.rejoins.len(), 1, "node 2 rejoined");
/// assert_eq!(logs[0].borrow().views.last().unwrap().members, vec![0, 1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct NodeAgent {
    cfg: AgentConfig,
    /// The silence deadline of each peer: the place in the delivery order
    /// reserved at its last sign of life, `None` once it fired.
    deadline: Vec<Option<Place>>,
    /// `(peer, deadline)`s still live beside a newer one of the same peer.
    /// [`NodeAgent::finish_rejoin`] sets a deadline without withdrawing the
    /// one a heartbeat heard while rejoining set, so a peer can hold two —
    /// and the earlier one must still suspect it if it stays silent. The
    /// peer's next sign of life voids them all.
    held_over: Vec<(u32, Place)>,
    /// Places a `KIND_TIMEOUT` is queued in: one — at or before the
    /// earliest deadline — and a superseded later one only after a clock
    /// speed-up pulled a new deadline ahead of it.
    armed: Vec<Place>,
    /// Peers this agent itself suspects.
    suspected_local: MemberSet,
    /// Union of own suspicions and exclusions adopted from peers'
    /// view-change proposals; removed from every proposal.
    excluded: MemberSet,
    /// Restarted peers awaiting re-admission; added to every proposal.
    joining: MemberSet,
    view_number: u32,
    view_mask: MemberSet,
    changing: Option<Change>,
    /// Incarnation counter: bumped on every restart so events armed by a
    /// previous life are discarded.
    epoch: u64,
    /// Whether this agent is between restart and re-admission.
    rejoining: bool,
    /// Joiner side: preamble and chunk progress of the inbound transfer.
    have_sync: bool,
    /// Which membership wire words of the preamble have arrived.
    mask_got: Vec<bool>,
    replayed: bool,
    log_tail: u64,
    xfer_total: Option<u64>,
    xfer_seen: u64,
    /// Chunk count at the last JOIN-retry check: no progress since means
    /// the stream stalled (lost JOIN, preamble or chunks) and the join
    /// announcement is retransmitted on the heartbeat cadence.
    xfer_seen_at_retry: u64,
    /// Consecutive stalled retry rounds with no preamble at all; two in a
    /// row (plus the conditions below) is the total-failure bootstrap
    /// trigger.
    stall_rounds: u32,
    /// Joiner side: join announcements heard *while rejoining* (announcer
    /// → announced view). A rejoining node's `view_mask` is stale, so
    /// these must not enter `pending_joins`; they feed the total-failure
    /// bootstrap instead.
    heard_joins: std::collections::BTreeMap<u32, u32>,
    /// Peers heard from (heartbeats) since this rejoin began. Bootstrap
    /// requires every such peer to be a join announcer itself — any
    /// established member heartbeating at us vetoes the bootstrap.
    hb_since_rejoin: MemberSet,
    /// Distinct chunk sequence numbers received (the stream's chunks
    /// carry their position, so losses leave identifiable gaps).
    xfer_got: BTreeSet<u64>,
    /// Whether the inbound stream is a delta (preamble was `MSG_DSYNC`).
    xfer_delta: bool,
    /// The node serving the inbound stream (source of the last chunk):
    /// where NACKs go.
    xfer_from: u32,
    /// Sequence numbers NACKed and not yet received again; receipt moves
    /// them into the resent count.
    nacked: BTreeSet<u64>,
    /// Chunks recovered through selective retransmission this rejoin.
    chunks_resent: u64,
    /// Whether a gap-detection (NACK) timer is pending.
    nack_armed: bool,
    /// Chunk count when the pending NACK timer was armed: progress since
    /// means the stream is still flowing and the round just re-arms.
    xfer_seen_at_nack: u64,
    /// Durable checkpoint cursor (checkpoint generation installed on
    /// stable storage). Survives crashes: it is exactly what makes a
    /// delta transfer sound, so [`NodeAgent::begin_rejoin`] must not
    /// reset it.
    durable_ckpt_gen: u64,
    pending: Option<PendingRejoin>,
    /// View number last installed before the most recent crash.
    pre_crash_view: u32,
    /// Server side: the outbound transfer in progress and the queue of
    /// joiners waiting behind it.
    serving: Option<Transfer>,
    /// The last stream this node finished serving, kept so late NACKs
    /// (losses discovered after the paced send completed) can be answered
    /// with targeted resends instead of a from-scratch re-serve.
    last_served: Option<Transfer>,
    pending_joins: VecDeque<(u32, u64, u64)>,
    log: Rc<RefCell<AgentLog>>,
    tap: Option<ProtocolTap>,
}

impl NodeAgent {
    /// Creates the agent and the shared log handle the embedding runtime
    /// keeps for after-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if the cluster exceeds [`MAX_NODES`] (wire word indices are
    /// packed into 8 payload bits) or the agent's node is out of range.
    pub fn new(cfg: AgentConfig) -> (Self, Rc<RefCell<AgentLog>>) {
        assert!(
            cfg.nodes <= MAX_NODES,
            "membership wire words address up to {MAX_NODES} nodes"
        );
        assert!(cfg.node.0 < cfg.nodes, "agent node outside the cluster");
        let log = Rc::new(RefCell::new(AgentLog::new(cfg.node.0)));
        let agent = NodeAgent {
            cfg,
            deadline: vec![None; cfg.nodes as usize],
            held_over: Vec::new(),
            armed: Vec::new(),
            suspected_local: MemberSet::new(),
            excluded: MemberSet::new(),
            joining: MemberSet::new(),
            view_number: 0,
            view_mask: MemberSet::full(cfg.nodes),
            changing: None,
            epoch: 0,
            rejoining: false,
            have_sync: false,
            mask_got: vec![false; cfg.wire_words() as usize],
            replayed: false,
            log_tail: 0,
            xfer_total: None,
            xfer_seen: 0,
            xfer_seen_at_retry: 0,
            stall_rounds: 0,
            heard_joins: std::collections::BTreeMap::new(),
            hb_since_rejoin: MemberSet::new(),
            xfer_got: BTreeSet::new(),
            xfer_delta: false,
            xfer_from: 0,
            nacked: BTreeSet::new(),
            chunks_resent: 0,
            nack_armed: false,
            xfer_seen_at_nack: 0,
            durable_ckpt_gen: 0,
            pending: None,
            pre_crash_view: 0,
            serving: None,
            last_served: None,
            pending_joins: VecDeque::new(),
            log: log.clone(),
            tap: None,
        };
        (agent, log)
    }

    /// An [`ActorEngine`] over `net` hosting one agent per node, each
    /// configured as `cfg` with `node` and `nodes` filled in from the
    /// network, next to the agents' logs in node order — the standalone
    /// rig of the service's own tests, examples and experiments. The
    /// caller runs the engine.
    pub fn cluster(net: Network, cfg: AgentConfig) -> (ActorEngine, Vec<Rc<RefCell<AgentLog>>>) {
        let nodes = net.node_count();
        let mut rt = ActorEngine::new(net);
        let logs = (0..nodes)
            .map(|n| {
                let node = NodeId(n);
                let (agent, log) = NodeAgent::new(AgentConfig { node, nodes, ..cfg });
                rt.add_actor(Box::new(agent));
                log
            })
            .collect();
        (rt, logs)
    }

    /// Installs the online observation tap; every externally visible
    /// transition is handed to it as a [`MonitorEvent`] at its engine
    /// instant, in addition to the post-run [`AgentLog`]. The tap must
    /// not re-enter the engine.
    pub fn with_tap(mut self, tap: ProtocolTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Hands the tap, if any, the event `build` makes of this agent's
    /// node id.
    fn emit(&self, now: Time, build: impl FnOnce(u32) -> MonitorEvent) {
        if let Some(tap) = &self.tap {
            (tap.0)(now, &build(self.cfg.node.0));
        }
    }

    /// Every agent as a fan-out target: agent *i* is actor *i* on node
    /// *i* ([`AgentConfig::nodes`]), and a fan-out skips the sender.
    fn peers(&self) -> impl Iterator<Item = (ActorId, NodeId)> {
        (0..self.cfg.nodes).map(|p| (ActorId(p), NodeId(p)))
    }

    fn on_timer(&mut self, now: Time, t: u64, ctx: &mut ActorCtx<'_>) {
        let [kind, body] = wire::TIMER.unpack(t);
        match kind {
            KIND_HB_TICK => self.on_heartbeat_tick(body, now, ctx),
            KIND_TIMEOUT => self.on_silence_timeout(body, now, ctx),
            KIND_ROUND => self.on_flood_round(body, ctx),
            KIND_DECIDE => self.install(wire::DECIDE.unpack(body)[0] as u32, now, ctx),
            KIND_XFER => self.on_chunk_due(body, now, ctx),
            KIND_JOIN_RETRY => self.on_join_retry(body, now, ctx),
            KIND_NACK => self.on_nack_round(body, ctx),
            KIND_REPLAY => self.on_replay_done(body, now, ctx),
            _ => {}
        }
    }
}

impl NetActor for NodeAgent {
    fn node(&self) -> NodeId {
        self.cfg.node
    }

    fn label(&self) -> &'static str {
        AGENT_LABEL
    }

    fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
        match ev {
            ActorEvent::Start => self.on_start(now, ctx),
            ActorEvent::Restart => self.on_restart(now, ctx),
            ActorEvent::Timer { tag } => self.on_timer(now, tag, ctx),
            ActorEvent::Message { from, tag, payload } => match tag {
                MSG_HB => self.on_heartbeat(from, now, ctx),
                MSG_VC => self.on_proposal_word(payload, now, ctx),
                MSG_JOIN => self.on_join(from, payload, now, ctx),
                MSG_SYNC | MSG_DSYNC if self.rejoining => self.on_preamble(tag, payload, now, ctx),
                MSG_MASK if self.rejoining => self.on_mask_word(payload, now, ctx),
                MSG_CKPT if self.rejoining => self.on_chunk(from, payload, now, ctx),
                MSG_NACK if !self.rejoining => self.on_nack(from, payload, ctx),
                _ => {}
            },
            // Control-plane wakes carry no agent-level meaning.
            ActorEvent::Notify { .. } => {}
        }
    }
}

#[cfg(test)]
#[path = "../tests/actors.rs"]
mod tests;
