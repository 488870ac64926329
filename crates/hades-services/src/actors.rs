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
use hades_sim::mux::{ActorCtx, ActorEvent, ActorId, NetActor, Place};
use hades_sim::{ActorEngine, Network, NodeId};
use hades_telemetry::monitor::{MonitorEvent, ProtocolTap};
use hades_time::{Duration, Time};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

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

/// Timer kinds (upper 4 bits of the tag; dispatch is on `tag >> 60`).
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

fn tag(kind: u64, body: u64) -> u64 {
    (kind << 60) | body
}

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
        "timer" => tag >> 60 == KIND_HB_TICK,
        "message" | "send" => tag == MSG_HB,
        _ => false,
    }
}

fn hb_tag(epoch: u64) -> u64 {
    tag(KIND_HB_TICK, epoch & 0xFFFF)
}

fn round_tag(target: u32, round: u32) -> u64 {
    tag(KIND_ROUND, ((target as u64) << 16) | round as u64)
}

fn xfer_tag(to: u32, seq: u64) -> u64 {
    tag(KIND_XFER, ((to as u64) << 32) | (seq & 0xFFFF_FFFF))
}

fn replay_tag(epoch: u64) -> u64 {
    tag(KIND_REPLAY, epoch & 0xFFFF)
}

/// View-change word: target view (16 bits) | word index (8 bits) | word
/// bits (32 bits).
fn vc_payload(target: u32, widx: u32, bits: u32) -> u64 {
    ((target as u64 & 0xFFFF) << 48) | ((widx as u64 & 0xFF) << 32) | bits as u64
}

fn vc_decode(payload: u64) -> (u32, u32, u32) {
    (
        ((payload >> 48) & 0xFFFF) as u32,
        ((payload >> 32) & 0xFF) as u32,
        payload as u32,
    )
}

/// Join announcement: epoch (16 bits) | announcer's last installed view
/// (16 bits) | durable checkpoint generation (32 bits). The checkpoint
/// cursor lets the server offer a delta transfer; the view lets a
/// total-failure bootstrap pick a view number past every view any
/// announcer has installed (view numbers never regress cluster-wide).
fn join_payload(epoch: u64, view: u32, ckpt_gen: u64) -> u64 {
    ((epoch & 0xFFFF) << 48) | ((view as u64 & 0xFFFF) << 32) | (ckpt_gen & 0xFFFF_FFFF)
}

fn join_decode(payload: u64) -> (u64, u32, u64) {
    (
        (payload >> 48) & 0xFFFF,
        ((payload >> 32) & 0xFFFF) as u32,
        payload & 0xFFFF_FFFF,
    )
}

/// Selective-retransmission request: epoch (16 bits) | missing chunk
/// sequence number (24 bits).
fn nack_payload(epoch: u64, seq: u64) -> u64 {
    ((epoch & 0xFFFF) << 48) | (seq & 0xFF_FFFF)
}

fn nack_decode(payload: u64) -> (u64, u64) {
    ((payload >> 48) & 0xFFFF, payload & 0xFF_FFFF)
}

fn sync_payload(epoch: u64, log_tail: u64, view: u32) -> u64 {
    ((epoch & 0xFFFF) << 48) | ((log_tail & 0xFFFF) << 32) | view as u64
}

fn sync_decode(payload: u64) -> (u64, u64, u32) {
    (
        (payload >> 48) & 0xFFFF,
        (payload >> 32) & 0xFFFF,
        payload as u32,
    )
}

fn ckpt_payload(epoch: u64, seq: u64, total: u64) -> u64 {
    ((epoch & 0xFFFF) << 48) | ((seq & 0xFF_FFFF) << 24) | (total & 0xFF_FFFF)
}

fn ckpt_decode(payload: u64) -> (u64, u64, u64) {
    (
        (payload >> 48) & 0xFFFF,
        (payload >> 24) & 0xFF_FFFF,
        payload & 0xFF_FFFF,
    )
}

/// Membership word of a transfer preamble: epoch (16 bits) | word index
/// (8 bits) | word bits (32 bits).
fn mask_payload(epoch: u64, widx: u32, bits: u32) -> u64 {
    ((epoch & 0xFFFF) << 48) | ((widx as u64 & 0xFF) << 32) | bits as u64
}

fn mask_decode(payload: u64) -> (u64, u32, u32) {
    (
        (payload >> 48) & 0xFFFF,
        ((payload >> 32) & 0xFF) as u32,
        payload as u32,
    )
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentLog {
    /// The observing node.
    pub node: u32,
    /// Heartbeats received.
    pub heartbeats_seen: u64,
    /// Own suspicions: `(suspect, when)` in suspicion order.
    pub suspicions: Vec<(u32, Time)>,
    /// Installed views, starting with view 0.
    pub views: Vec<View>,
    /// Primary handovers: `(new_primary, when)` at each view install that
    /// moved the primary.
    pub primary_changes: Vec<(u32, Time)>,
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
            heartbeats_seen: 0,
            suspicions: Vec::new(),
            views: Vec::new(),
            primary_changes: Vec::new(),
            restarts: Vec::new(),
            rejoins: Vec::new(),
            transfers_served: 0,
            chunks_sent: 0,
            vc_messages_sent: 0,
            join_retries: 0,
            heartbeats_sent: 0,
            heartbeats_suppressed: 0,
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
    primary: u32,
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
            primary: 0,
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

    /// Queues the one silence time-out in `place` if it comes before every
    /// one already queued; otherwise the fire of an earlier one re-arms.
    fn arm(&mut self, place: Place, ctx: &mut ActorCtx<'_>) {
        if self.armed.iter().all(|queued| place < *queued) {
            ctx.timer_in(place, tag(KIND_TIMEOUT, place.seq));
            self.armed.push(place);
        }
    }

    /// Arms at the earliest live deadline: after a fire, and after a
    /// restart forgot what the outage swallowed. (A scan of every peer —
    /// never done per heartbeat.)
    fn rearm(&mut self, ctx: &mut ActorCtx<'_>) {
        let held_over = self.held_over.iter().map(|(_, place)| place);
        if let Some(&earliest) = self.deadline.iter().flatten().chain(held_over).min() {
            self.arm(earliest, ctx);
        }
    }

    /// Withdraws the live deadline reserved under `seq` and names its peer.
    fn take_deadline(&mut self, seq: u64) -> Option<u32> {
        let newest = |d: &Option<Place>| d.is_some_and(|place| place.seq == seq);
        if let Some(peer) = self.deadline.iter().position(newest) {
            self.deadline[peer] = None;
            return Some(peer as u32);
        }
        let held = self.held_over.iter().position(|(_, p)| p.seq == seq)?;
        Some(self.held_over.swap_remove(held).0)
    }

    /// Records one more silence deadline of `peer`, `T₀` from now.
    fn add_deadline(&mut self, peer: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        let place = ctx.reserve(now + self.cfg.timeout(ctx.max_delay()));
        if let Some(earlier) = self.deadline[peer as usize].replace(place) {
            self.held_over.push((peer, earlier));
        }
        self.arm(place, ctx);
    }

    /// `peer` gave a sign of life: its earlier deadlines are void, the
    /// next is `T₀` from now.
    fn watch(&mut self, peer: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        self.deadline[peer as usize] = None;
        self.held_over.retain(|&(held, _)| held != peer);
        self.add_deadline(peer, now, ctx);
    }

    fn have_mask(&self) -> bool {
        self.mask_got.iter().all(|g| *g)
    }

    fn broadcast(&self, ctx: &mut ActorCtx<'_>, tag: u64, payload: u64) {
        let mut sent = 0u64;
        let mut suppressed = 0u64;
        for peer in 0..self.cfg.nodes {
            if NodeId(peer) != self.cfg.node {
                if ctx.send(ActorId(peer), NodeId(peer), tag, payload) {
                    sent += 1;
                } else {
                    suppressed += 1;
                }
            }
        }
        if tag == MSG_HB {
            let mut log = self.log.borrow_mut();
            log.heartbeats_sent += sent;
            log.heartbeats_suppressed += suppressed;
        }
    }

    /// Sends the given wire words of a view-change proposal to every
    /// peer, counting accepted copies toward the flood-vs-multicast
    /// complexity comparison. The Δ-multicast transport retries each
    /// omitted copy up to `vc_attempts − 1` extra times; the flood
    /// transport relies on its round-level redundancy instead.
    fn send_proposal_words(&mut self, ctx: &mut ActorCtx<'_>, target: u32, words: &[(u32, u32)]) {
        let attempts = if self.cfg.vc_delta_multicast {
            self.cfg.vc_attempts.max(1)
        } else {
            1
        };
        let targets: Vec<(ActorId, NodeId)> = (0..self.cfg.nodes)
            .filter(|p| NodeId(*p) != self.cfg.node)
            .map(|p| (ActorId(p), NodeId(p)))
            .collect();
        let mut sent = 0u64;
        for (widx, bits) in words {
            sent += ctx.fanout(
                targets.iter().copied(),
                MSG_VC,
                vc_payload(target, *widx, *bits),
                attempts,
            ) as u64;
        }
        self.log.borrow_mut().vc_messages_sent += sent;
    }

    /// All wire words of `set`, for full-proposal sends.
    fn all_words(&self, set: &MemberSet) -> Vec<(u32, u32)> {
        (0..self.cfg.wire_words())
            .map(|w| (w, set.wire_word(w)))
            .collect()
    }

    /// Starts a view change (or folds more exclusions/joins into the one
    /// in flight) toward the next view. Proposal merging is FloodSet-style
    /// with a twist: exclusion wins for current members (intersection),
    /// inclusion wins for non-members being re-admitted (union), so every
    /// correct node converges on the same set after `f + 1` rounds. The
    /// merge is bitwise, so each wire word travels — and merges — on its
    /// own.
    ///
    /// Transport: under the default Δ-multicast discipline each node
    /// multicasts its proposal once when it joins the change and again
    /// only when a merge actually changes it (information diffuses
    /// through the members' own sends, so a proposer's crash cannot hide
    /// its contribution — its atomic multicast either reached everyone
    /// or no one). The flood transport rebroadcasts every round instead.
    fn begin_change(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let mut own = self.view_mask.union(&self.joining);
        own.subtract(&self.excluded);
        let words = self.cfg.wire_words();
        match &mut self.changing {
            Some(c) => {
                let target = c.target;
                let mut changed: Vec<(u32, u32)> = Vec::new();
                for w in 0..words {
                    if c.proposal
                        .merge_wire_word(w, own.wire_word(w), &self.view_mask)
                    {
                        changed.push((w, c.proposal.wire_word(w)));
                    }
                }
                if self.cfg.vc_delta_multicast && !changed.is_empty() {
                    self.send_proposal_words(ctx, target, &changed);
                }
            }
            None => {
                let target = self.view_number + 1;
                let all = self.all_words(&own);
                self.changing = Some(Change {
                    target,
                    proposal: own,
                });
                self.send_proposal_words(ctx, target, &all);
                let round = self.cfg.round_length(ctx.max_delay());
                if !self.cfg.vc_delta_multicast {
                    for r in 1..=self.cfg.f {
                        ctx.timer_at(now + round.saturating_mul(r as u64), round_tag(target, r));
                    }
                }
                ctx.timer_at(
                    now + round.saturating_mul(self.cfg.f as u64 + 1),
                    tag(KIND_DECIDE, target as u64),
                );
            }
        }
    }

    fn install(&mut self, target: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        let matches = self.changing.as_ref().is_some_and(|c| c.target == target);
        if !matches {
            return;
        }
        let c = self.changing.take().expect("checked above");
        self.view_number = target;
        self.view_mask = c.proposal;
        self.joining.subtract(&self.view_mask);
        // Exclusions adopted from peers' proposals have served their
        // purpose once the view installs; keeping them would veto a later
        // re-admission of a recovered node (exclusion wins in the merge).
        // Own live suspicions persist — they re-enter the next proposal.
        self.excluded = self.suspected_local.clone();
        let members = self.view_mask.to_vec();
        {
            let mut log = self.log.borrow_mut();
            log.views.push(View {
                number: target,
                members: members.clone(),
                installed_at: now,
            });
            if let Some(&new_primary) = members.first() {
                if new_primary != self.primary {
                    self.primary = new_primary;
                    log.primary_changes.push((new_primary, now));
                }
            }
        }
        self.emit(now, |node| MonitorEvent::ViewInstalled {
            node,
            number: target,
            members: members.clone(),
        });
        if self.rejoining && self.view_mask.contains(self.cfg.node.0) {
            self.finish_rejoin(target, now, ctx);
        } else if !self.rejoining && !self.view_mask.contains(self.cfg.node.0) {
            // The cluster excluded us while we are alive: our restart
            // raced the exclusion flood (the transfer shipped a mask that
            // still contained us), or a false suspicion won agreement.
            // Self-heal by running the rejoin protocol again from the
            // announce step instead of lingering outside the view.
            self.begin_rejoin(now, ctx);
        }
        // A transfer in flight to a node this view just excluded shipped
        // a membership that is now wrong (the joiner would take the fast
        // re-admission path on it): abort it and re-serve from the front
        // of the queue with the fresh view in the preamble.
        let aborted = self
            .serving
            .as_ref()
            .is_some_and(|t| !self.view_mask.contains(t.to));
        if aborted {
            let t = self.serving.take().expect("checked above");
            self.pending_joins.retain(|(j, _, _)| *j != t.to);
            self.pending_joins
                .push_front((t.to, t.to_epoch, t.to_ckpt_gen));
        }
        // Joins deferred behind this view change can be served now, with
        // the newly agreed membership in their preambles; requests of
        // joiners this view just re-admitted are settled and dropped.
        let vm = self.view_mask.clone();
        self.pending_joins.retain(|(j, _, _)| !vm.contains(*j));
        self.drain_pending_joins(now, ctx);
    }

    /// Serves queued join requests this node is the server for (the
    /// lowest-numbered view member other than the joiner), once no
    /// transfer and no view change is in flight. Requests this node is
    /// not the server for stay queued: a later view change may make it
    /// the server (e.g. when the previous server is excluded), and
    /// entries of re-admitted joiners are pruned at install.
    fn drain_pending_joins(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let mut i = 0;
        while i < self.pending_joins.len() {
            if self.serving.is_some() || self.changing.is_some() {
                return; // one transfer at a time; re-drained on install
            }
            let (joiner, epoch, ckpt_gen) = self.pending_joins[i];
            let server = self.view_mask.members().find(|m| *m != joiner);
            if server == Some(self.cfg.node.0) {
                self.pending_joins.remove(i);
                self.start_transfer(joiner, epoch, ckpt_gen, now, ctx);
            } else {
                i += 1;
            }
        }
    }

    /// The joiner is back in the view: close the rejoin record and resume
    /// detection duty.
    fn finish_rejoin(&mut self, view: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rejoining = false;
        self.heard_joins.clear();
        self.stall_rounds = 0;
        let p = self.pending.take().unwrap_or_default();
        let record = RejoinRecord {
            node: self.cfg.node.0,
            restarted_at: p.restarted_at,
            transfer_started_at: p.transfer_started_at.unwrap_or(now),
            transfer_completed_at: p.transfer_completed_at.unwrap_or(now),
            replay_completed_at: p.replay_completed_at.unwrap_or(now),
            readmitted_at: now,
            view,
            views_traversed: view.saturating_sub(self.pre_crash_view),
            chunks: self.xfer_seen,
            chunks_resent: self.chunks_resent,
            bytes: if self.xfer_delta {
                self.cfg.recovery.delta_bytes(self.log_tail)
            } else {
                self.cfg.recovery.bytes(self.log_tail)
            },
            log_entries: self.log_tail,
            delta: self.xfer_delta,
        };
        self.log.borrow_mut().rejoins.push(record);
        // The replayed state is current as of now: the durable cursor
        // advances to the checkpoint interval the rejoin landed in.
        self.durable_ckpt_gen = self
            .durable_ckpt_gen
            .max(self.cfg.recovery.checkpoint_gen_at(now));
        self.emit(now, |node| MonitorEvent::RejoinCompleted {
            node,
            view,
            restarted_at: p.restarted_at,
        });
        // Resume watching the peers of the (re)joined view — on top of
        // any deadline still live from before: a heartbeat heard while
        // rejoining set one, and it stays in force.
        for peer in self.view_mask.to_vec() {
            if NodeId(peer) != self.cfg.node {
                self.add_deadline(peer, now, ctx);
            }
        }
    }

    /// How long the joiner waits after the last transfer progress before
    /// NACKing the gaps: enough for the next paced chunk (plus jitter) to
    /// arrive on its own, far below the heartbeat-cadence JOIN retry.
    fn nack_delay(&self, max_delay: Duration) -> Duration {
        self.cfg
            .recovery
            .chunk_interval
            .saturating_mul(2)
            .saturating_add(max_delay.saturating_mul(2))
    }

    /// Arms the gap-detection timer if no round is pending and the
    /// inbound stream is still incomplete.
    fn arm_nack(&mut self, ctx: &mut ActorCtx<'_>) {
        let complete = self.xfer_total.is_some_and(|t| self.xfer_seen >= t);
        if self.nack_armed || complete {
            return;
        }
        self.nack_armed = true;
        self.xfer_seen_at_nack = self.xfer_seen;
        let delay = self.nack_delay(ctx.max_delay());
        ctx.timer_after(delay, tag(KIND_NACK, self.epoch & 0xFFFF));
    }

    /// Re-sends the stored preamble of the transfer in flight (the joiner
    /// lost it on a lossy link).
    fn resend_preamble(&self, ctx: &mut ActorCtx<'_>) {
        let Some(t) = &self.serving else { return };
        let to = ActorId(t.to);
        let node = NodeId(t.to);
        let kind = if t.delta { MSG_DSYNC } else { MSG_SYNC };
        ctx.send(to, node, kind, sync_payload(t.to_epoch, t.log_tail, t.view));
        for w in 0..self.cfg.wire_words() {
            ctx.send(
                to,
                node,
                MSG_MASK,
                mask_payload(t.to_epoch, w, t.mask.wire_word(w)),
            );
        }
    }

    /// Handles a join request on a live node: re-arm liveness tracking of
    /// the joiner and queue the request; the queue drain ships the state
    /// from whichever node the current view designates as server.
    fn handle_join(
        &mut self,
        joiner: u32,
        epoch: u64,
        ckpt_gen: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        // The joiner is demonstrably alive again: retract any suspicion
        // and invalidate stale silence timers.
        if self.suspected_local.remove(joiner) {
            self.emit(now, |observer| MonitorEvent::SuspicionCleared {
                observer,
                suspect: joiner,
            });
        }
        self.excluded.remove(joiner);
        self.watch(joiner, now, ctx);
        if let Some(t) = &self.serving {
            if t.to == joiner && t.to_epoch == epoch {
                // A retransmitted JOIN of the joiner this transfer already
                // serves: the preamble (or early chunks) was lost on a
                // lossy link. Re-send the preamble the stream is based on;
                // the chunk pacing continues untouched.
                self.resend_preamble(ctx);
                return;
            }
            if t.to == joiner {
                // The joiner restarted again mid-transfer: the stream in
                // flight serves a dead incarnation — abort it and queue
                // the fresh epoch below.
                self.serving = None;
            }
        }
        // Every live node remembers the request — not only the node that
        // currently believes it is the server. Servership is re-evaluated
        // at every drain point (now, and after each view install), so if
        // the perceived server is itself dead and about to be excluded,
        // the next-lowest member picks the join up instead of the request
        // being silently dropped. Only the freshest request per joiner is
        // kept; entries of re-admitted joiners are pruned at install.
        self.pending_joins.retain(|(j, _, _)| *j != joiner);
        self.pending_joins.push_back((joiner, epoch, ckpt_gen));
        self.drain_pending_joins(now, ctx);
    }

    fn start_transfer(
        &mut self,
        joiner: u32,
        epoch: u64,
        ckpt_gen: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        // The preamble carries the tail length in 16 bits: clamp it here,
        // on the serving side, so the chunk pacing, the payload and the
        // joiner's replay/byte accounting all agree even for checkpoint
        // cadences whose tail would exceed 65535 operations.
        let log_tail = self.cfg.recovery.log_tail_at(now).min(0xFFFF);
        // Delta transfer: the joiner's durable checkpoint cursor already
        // covers the snapshot this server would ship, so only the log
        // tail accumulated since that checkpoint needs to travel.
        let delta = self.cfg.recovery.delta_transfers
            && ckpt_gen >= self.cfg.recovery.checkpoint_gen_at(now);
        let total = if delta {
            self.cfg.recovery.delta_chunks(log_tail).min(0xFF_FFFF)
        } else {
            self.cfg.recovery.chunks(log_tail).min(0xFF_FFFF)
        };
        self.serving = Some(Transfer {
            to: joiner,
            to_epoch: epoch,
            to_ckpt_gen: ckpt_gen,
            total,
            next: 0,
            log_tail,
            view: self.view_number,
            mask: self.view_mask.clone(),
            delta,
        });
        self.resend_preamble(ctx);
        self.log.borrow_mut().transfers_served += 1;
        self.send_chunk(now, ctx);
    }

    /// Sends the next chunk of the outbound transfer and paces the one
    /// after it; on the last chunk, starts any queued transfer.
    fn send_chunk(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let Some(t) = &mut self.serving else { return };
        ctx.send(
            ActorId(t.to),
            NodeId(t.to),
            MSG_CKPT,
            ckpt_payload(t.to_epoch, t.next, t.total),
        );
        t.next += 1;
        let (done, next_seq, to) = (t.next >= t.total, t.next, t.to);
        self.log.borrow_mut().chunks_sent += 1;
        if done {
            // Keep the finished stream's identity: a loss the joiner
            // discovers only now (the tail chunks never arrived) comes
            // back as NACKs, answered from here with targeted resends.
            self.last_served = self.serving.take();
            self.drain_pending_joins(now, ctx);
        } else {
            ctx.timer_after(self.cfg.recovery.chunk_interval, xfer_tag(to, next_seq));
        }
    }

    /// Joiner side: once the preamble and every chunk arrived, start the
    /// local replay of the log tail.
    fn maybe_start_replay(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        // `>=` rather than `==`: stray chunks of a superseded stream may
        // inflate the count, which at worst starts the replay early —
        // never stalls it.
        if self.replayed
            || !self.have_sync
            || !self.have_mask()
            || self.xfer_total.is_none_or(|t| self.xfer_seen < t)
        {
            return;
        }
        if let Some(p) = &mut self.pending {
            p.transfer_completed_at = Some(now);
        }
        self.emit(now, |node| MonitorEvent::TransferCompleted { node });
        ctx.timer_at(
            now + self.cfg.recovery.replay_time(self.log_tail),
            replay_tag(self.epoch),
        );
    }

    fn on_timer(&mut self, now: Time, t: u64, ctx: &mut ActorCtx<'_>) {
        match t >> 60 {
            KIND_HB_TICK => {
                if t & 0xFFFF != self.epoch & 0xFFFF {
                    return; // tick of a previous life
                }
                if !self.rejoining {
                    // A member applies operations continuously and
                    // persists each checkpoint as the cadence passes: the
                    // durable cursor tracks the latest boundary. A
                    // rejoining node is not applying state and must not
                    // advance it.
                    self.durable_ckpt_gen = self
                        .durable_ckpt_gen
                        .max(self.cfg.recovery.checkpoint_gen_at(now));
                }
                self.broadcast(ctx, MSG_HB, 0);
                ctx.timer_after(self.cfg.heartbeat_period, hb_tag(self.epoch));
            }
            KIND_TIMEOUT => {
                // The place this fire was queued in is the tag's body. Only
                // a deadline still live there means silence; either way the
                // next earliest takes the queue.
                let seq = t & ((1 << 60) - 1);
                self.armed.retain(|queued| queued.seq != seq);
                let due = self.take_deadline(seq);
                self.rearm(ctx);
                let Some(peer) = due else { return };
                if self.rejoining || self.suspected_local.contains(peer) {
                    return;
                }
                self.suspected_local.insert(peer);
                self.excluded.insert(peer);
                self.log.borrow_mut().suspicions.push((peer, now));
                self.emit(now, |observer| MonitorEvent::Suspected {
                    observer,
                    suspect: peer,
                });
                if self.view_mask.contains(peer) {
                    self.begin_change(now, ctx);
                }
            }
            KIND_ROUND => {
                let target = ((t >> 16) & 0xFFFF) as u32;
                let words = match &self.changing {
                    Some(c) if c.target == target => Some(self.all_words(&c.proposal)),
                    _ => None,
                };
                if let Some(words) = words {
                    self.send_proposal_words(ctx, target, &words);
                }
            }
            KIND_DECIDE => self.install((t & 0xFFFF) as u32, now, ctx),
            KIND_XFER => {
                let to = ((t >> 32) & 0x0FFF_FFFF) as u32;
                let seq = t & 0xFFFF_FFFF;
                if self
                    .serving
                    .as_ref()
                    .is_some_and(|s| s.to == to && s.next == seq)
                {
                    self.send_chunk(now, ctx);
                }
            }
            KIND_JOIN_RETRY => {
                if t & 0xFFFF != self.epoch & 0xFFFF || !self.rejoining || self.replayed {
                    return;
                }
                let complete = self.xfer_total.is_some_and(|total| self.xfer_seen >= total);
                let stalled = !self.have_sync
                    || !self.have_mask()
                    || (!complete && self.xfer_seen == self.xfer_seen_at_retry);
                if stalled {
                    // The re-announcement is a liveness mark: the stall
                    // watchdog re-arms on it, because a joiner that keeps
                    // asking is making the only progress possible while no
                    // server exists (the true wedge — a joiner that went
                    // silent — stops re-announcing and still trips it).
                    self.emit(now, |node| MonitorEvent::RejoinAnnounced { node });
                    self.broadcast(
                        ctx,
                        MSG_JOIN,
                        join_payload(self.epoch, self.view_number, self.durable_ckpt_gen),
                    );
                    self.log.borrow_mut().join_retries += 1;
                    if !self.have_sync {
                        self.stall_rounds += 1;
                        let lowest_announcer = self
                            .heard_joins
                            .keys()
                            .next()
                            .is_some_and(|lowest| self.cfg.node.0 < *lowest);
                        let only_announcers_heard = self
                            .hb_since_rejoin
                            .members()
                            .all(|p| self.heard_joins.contains_key(&p));
                        if self.stall_rounds >= 2 && lowest_announcer && only_announcers_heard {
                            self.bootstrap_view(now, ctx);
                            return;
                        }
                    }
                }
                self.xfer_seen_at_retry = self.xfer_seen;
                ctx.timer_after(
                    self.cfg.heartbeat_period,
                    tag(KIND_JOIN_RETRY, self.epoch & 0xFFFF),
                );
            }
            KIND_NACK => {
                if t & 0xFFFF != self.epoch & 0xFFFF {
                    return; // round of a previous life
                }
                self.nack_armed = false;
                if !self.rejoining || self.replayed {
                    return;
                }
                let Some(total) = self.xfer_total else {
                    return;
                };
                if self.xfer_seen >= total {
                    return; // completed while the round was pending
                }
                if self.xfer_seen == self.xfer_seen_at_nack {
                    // No progress for a full round: the gaps are losses,
                    // not pacing. Ask the server for exactly the missing
                    // sequence numbers instead of re-serving the stream.
                    let server = (ActorId(self.xfer_from), NodeId(self.xfer_from));
                    let missing: Vec<u64> = (0..total)
                        .filter(|s| !self.xfer_got.contains(s))
                        .take(NACK_BATCH as usize)
                        .collect();
                    for seq in missing {
                        ctx.send(server.0, server.1, MSG_NACK, nack_payload(self.epoch, seq));
                        self.nacked.insert(seq);
                    }
                }
                self.arm_nack(ctx);
            }
            KIND_REPLAY => {
                if t & 0xFFFF != self.epoch & 0xFFFF || self.replayed || !self.rejoining {
                    return;
                }
                self.replayed = true;
                if let Some(p) = &mut self.pending {
                    p.replay_completed_at = Some(now);
                }
                self.emit(now, |node| MonitorEvent::ReplayCompleted { node });
                if self.view_mask.contains(self.cfg.node.0) {
                    // The outage was shorter than the detection window: the
                    // cluster never excluded us, so no view change is
                    // needed — we are back as soon as the state is current.
                    self.finish_rejoin(self.view_number, now, ctx);
                } else {
                    self.joining.insert(self.cfg.node.0);
                    self.begin_change(now, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.log.borrow_mut().restarts.push(now);
        // The host dropped every delivery of the outage: a deadline that
        // came due in it is gone unfired, and so is a time-out queued in
        // it — forget both, and queue under what is still to come. (A
        // deadline due at this very instant fires after this handler, into
        // the rejoin, whichever side of the restart it was reserved on.)
        for deadline in &mut self.deadline {
            *deadline = deadline.filter(|place| place.at >= now);
        }
        self.held_over.retain(|(_, place)| place.at >= now);
        self.armed.retain(|queued| queued.at >= now);
        self.rearm(ctx);
        self.begin_rejoin(now, ctx);
    }

    /// Enters (or re-enters) the rejoin protocol from the announce step:
    /// fresh epoch, all volatile protocol state dropped. Used on a cold
    /// restart and by the self-heal path when the cluster excluded a
    /// live node.
    fn begin_rejoin(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.epoch += 1;
        self.rejoining = true;
        self.have_sync = false;
        self.mask_got = vec![false; self.cfg.wire_words() as usize];
        self.replayed = false;
        self.log_tail = 0;
        self.xfer_total = None;
        self.xfer_seen = 0;
        self.xfer_seen_at_retry = 0;
        self.stall_rounds = 0;
        self.heard_joins.clear();
        self.hb_since_rejoin = MemberSet::new();
        self.xfer_got.clear();
        self.xfer_delta = false;
        self.nacked.clear();
        self.chunks_resent = 0;
        self.nack_armed = false;
        self.xfer_seen_at_nack = 0;
        self.pre_crash_view = self.view_number;
        self.pending = Some(PendingRejoin {
            restarted_at: now,
            ..PendingRejoin::default()
        });
        self.suspected_local = MemberSet::new();
        self.excluded = MemberSet::new();
        self.joining = MemberSet::new();
        self.changing = None;
        self.serving = None;
        self.last_served = None;
        self.pending_joins.clear();
        self.emit(now, |node| MonitorEvent::RejoinAnnounced { node });
        // Liveness first (peers resume watching us), then the join
        // announcement that triggers the state transfer — re-announced on
        // the heartbeat cadence while the transfer makes no progress, so
        // a lost JOIN or preamble cannot stall the rejoin on lossy links.
        self.broadcast(ctx, MSG_HB, 0);
        ctx.timer_after(self.cfg.heartbeat_period, hb_tag(self.epoch));
        self.broadcast(
            ctx,
            MSG_JOIN,
            join_payload(self.epoch, self.view_number, self.durable_ckpt_gen),
        );
        ctx.timer_after(
            self.cfg.heartbeat_period,
            tag(KIND_JOIN_RETRY, self.epoch & 0xFFFF),
        );
    }

    /// Total-failure bootstrap: every member restarted at once, so no
    /// live server exists and join announcements bounce between rejoining
    /// nodes forever. The lowest-numbered announcer — after two stalled
    /// retry rounds in which it heard *only* fellow announcers — installs
    /// a singleton view numbered past every view it has heard of (its own
    /// and every announcer's, so an established cluster history cannot be
    /// reused) and finishes its rejoin from durable state. The other
    /// announcers' heartbeat-cadence retries then reach a live member and
    /// take the ordinary transfer + re-admission path.
    fn bootstrap_view(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let heard_max = self.heard_joins.values().copied().max().unwrap_or(0);
        let target = self.view_number.max(heard_max) + 1;
        self.view_number = target;
        let mut mask = MemberSet::new();
        mask.insert(self.cfg.node.0);
        self.view_mask = mask;
        self.changing = None;
        let members = vec![self.cfg.node.0];
        {
            let mut log = self.log.borrow_mut();
            log.views.push(View {
                number: target,
                members: members.clone(),
                installed_at: now,
            });
            if self.primary != self.cfg.node.0 {
                self.primary = self.cfg.node.0;
                log.primary_changes.push((self.primary, now));
            }
        }
        self.emit(now, |node| MonitorEvent::ViewInstalled {
            node,
            number: target,
            members,
        });
        self.finish_rejoin(target, now, ctx);
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
            ActorEvent::Start => {
                self.log.borrow_mut().views.push(View {
                    number: 0,
                    members: self.view_mask.to_vec(),
                    installed_at: now,
                });
                self.emit(now, |node| MonitorEvent::ViewInstalled {
                    node,
                    number: 0,
                    members: self.view_mask.to_vec(),
                });
                // First heartbeat immediately, then every H.
                self.broadcast(ctx, MSG_HB, 0);
                ctx.timer_after(self.cfg.heartbeat_period, hb_tag(self.epoch));
                // Until the first heartbeat arrives, a peer is treated as
                // heard-from at time zero.
                for peer in 0..self.cfg.nodes {
                    if NodeId(peer) != self.cfg.node {
                        self.add_deadline(peer, now, ctx);
                    }
                }
            }
            ActorEvent::Restart => self.on_restart(now, ctx),
            ActorEvent::Timer { tag } => self.on_timer(now, tag, ctx),
            ActorEvent::Message { from, tag, payload } => match tag {
                MSG_HB => {
                    let p = from.0;
                    self.log.borrow_mut().heartbeats_seen += 1;
                    if self.rejoining {
                        self.hb_since_rejoin.insert(p);
                    }
                    self.watch(p, now, ctx);
                }
                MSG_VC => {
                    if self.rejoining && !self.have_sync {
                        return; // no view knowledge at all yet: sit it out
                    }
                    let (target, widx, bits) = vc_decode(payload);
                    if target > self.view_number + 1 && !self.rejoining {
                        // A flood for a view beyond our next one proves we
                        // missed at least one install while believing
                        // ourselves a member (our restart raced an
                        // exclusion flood): self-heal by re-entering the
                        // rejoin protocol rather than dropping floods
                        // forever.
                        self.begin_rejoin(now, ctx);
                        return;
                    }
                    if target != self.view_number + 1 || widx >= self.cfg.wire_words() {
                        return; // stale, too far ahead mid-rejoin, or junk
                    }
                    // `None` = echo nothing, `Some(None)` = join the
                    // change, `Some(Some(word))` = echo the merged word.
                    let action: Option<Option<(u32, u32)>> = match &mut self.changing {
                        Some(c) if c.target == target => {
                            if c.proposal.merge_wire_word(widx, bits, &self.view_mask) {
                                // Echo-on-change: the merge learned
                                // something the peers may not have.
                                Some(Some((widx, c.proposal.wire_word(widx))))
                            } else {
                                None
                            }
                        }
                        Some(_) => None,
                        None => {
                            // Adopt the exclusions and joins this word
                            // reveals and join the flood with our own
                            // knowledge folded in.
                            let vm = self.view_mask.wire_word(widx);
                            self.excluded
                                .set_wire_word(widx, self.excluded.wire_word(widx) | (vm & !bits));
                            self.joining
                                .set_wire_word(widx, self.joining.wire_word(widx) | (bits & !vm));
                            Some(None)
                        }
                    };
                    match action {
                        Some(Some(word)) if self.cfg.vc_delta_multicast => {
                            self.send_proposal_words(ctx, target, &[word]);
                        }
                        Some(None) => self.begin_change(now, ctx),
                        _ => {}
                    }
                }
                MSG_JOIN => {
                    let (epoch, view, ckpt_gen) = join_decode(payload);
                    if self.rejoining {
                        // Our own view_mask is stale, so this must not
                        // enter pending_joins (the drain could wrongly
                        // self-select as server). Record the announcer for
                        // the total-failure bootstrap; once some node is
                        // live again, the announcer's heartbeat-cadence
                        // retries take the ordinary path below.
                        self.heard_joins.insert(from.0, view);
                    } else {
                        self.handle_join(from.0, epoch, ckpt_gen, now, ctx);
                    }
                }
                MSG_SYNC | MSG_DSYNC if self.rejoining => {
                    let (epoch, log_tail, view) = sync_decode(payload);
                    if epoch != self.epoch & 0xFFFF {
                        return;
                    }
                    // A preamble for a *newer* view supersedes the transfer in
                    // progress (the server aborts and re-serves when a
                    // view change invalidates the mask it shipped):
                    // restart the chunk count — and the membership words —
                    // for the new stream. The first preamble must not
                    // reset: chunk 0 (or a mask word) may legitimately
                    // arrive before it.
                    if self.have_sync && view != self.view_number {
                        self.xfer_seen = 0;
                        self.xfer_total = None;
                        self.xfer_got.clear();
                        self.nacked.clear();
                        self.mask_got = vec![false; self.cfg.wire_words() as usize];
                    }
                    self.have_sync = true;
                    self.stall_rounds = 0;
                    self.xfer_delta = tag == MSG_DSYNC;
                    self.log_tail = log_tail;
                    self.view_number = view;
                    self.maybe_start_replay(now, ctx);
                }
                MSG_MASK if self.rejoining => {
                    let (epoch, widx, bits) = mask_decode(payload);
                    if epoch != self.epoch & 0xFFFF || widx >= self.cfg.wire_words() {
                        return;
                    }
                    self.view_mask.set_wire_word(widx, bits);
                    self.mask_got[widx as usize] = true;
                    self.maybe_start_replay(now, ctx);
                }
                MSG_CKPT if self.rejoining => {
                    let (epoch, seq, total) = ckpt_decode(payload);
                    if epoch != self.epoch & 0xFFFF {
                        return;
                    }
                    if self.xfer_seen == 0 {
                        if let Some(p) = &mut self.pending {
                            p.transfer_started_at = Some(now);
                        }
                        self.emit(now, |node| MonitorEvent::TransferStarted { node });
                    }
                    self.xfer_from = from.0;
                    self.xfer_total = Some(total);
                    if self.xfer_got.insert(seq) {
                        self.xfer_seen = self.xfer_got.len() as u64;
                        if self.nacked.remove(&seq) {
                            self.chunks_resent += 1;
                        }
                        self.emit(now, |node| MonitorEvent::TransferProgress {
                            node,
                            chunks: self.xfer_seen,
                        });
                    }
                    self.arm_nack(ctx);
                    self.maybe_start_replay(now, ctx);
                }
                MSG_NACK if !self.rejoining => {
                    let (epoch, seq) = nack_decode(payload);
                    // The stream may still be pacing or may have finished:
                    // either way, resend exactly the requested chunk of
                    // the joiner's stream without disturbing the pacing.
                    let stream = self
                        .serving
                        .as_ref()
                        .into_iter()
                        .chain(self.last_served.as_ref())
                        .find(|t| t.to == from.0 && t.to_epoch & 0xFFFF == epoch && seq < t.total);
                    if let Some(t) = stream {
                        ctx.send(
                            ActorId(t.to),
                            NodeId(t.to),
                            MSG_CKPT,
                            ckpt_payload(t.to_epoch, seq, t.total),
                        );
                        self.log.borrow_mut().chunks_sent += 1;
                    }
                }
                _ => {}
            },
            // Control-plane wakes carry no agent-level meaning.
            ActorEvent::Notify { .. } => {}
        }
    }
}

#[cfg(test)]
#[path = "tests/actors.rs"]
mod tests;
