//! Multi-consumer engine handle: protocol actors sharing one engine.
//!
//! The service simulations of `hades-services` were originally written as
//! self-contained loops, each owning its own timeline. A *cluster* run
//! needs the opposite: many per-node protocol actors (heartbeat emission,
//! membership agreement, replication management) advancing on **one**
//! shared [`crate::Engine`] and exchanging messages over **one** shared
//! [`Network`], optionally interleaved with other consumers of the same
//! engine (the `hades-dispatch` run loop hosts an [`ActorHost`] next to
//! its dispatcher events).
//!
//! The pieces:
//!
//! * [`NetActor`] — the consumer trait: an actor lives on a node, receives
//!   [`ActorEvent`]s, and reacts through an [`ActorCtx`] (timers + network
//!   sends).
//! * [`ActorHost`] — owns a set of actors and routes one event to one
//!   actor, handing back its staged [`Reactions`]: the events to post,
//!   numbered in staging order from the engine's next order seq so the
//!   embedding posts them as **one** [`Scheduler::post_run`] — one heap
//!   key for a whole broadcast — and the [`ControlOp`]s to apply. Events
//!   addressed to an actor whose node has crashed are dropped, so a dead
//!   node goes silent exactly as the fault plan dictates.
//! * [`Place`] — a reserved position in the delivery order. Every timer
//!   and send takes the next order seq as it is staged;
//!   [`ActorCtx::reserve`] takes one *without* queueing anything, and
//!   [`ActorCtx::timer_in`] queues a timer under it later, at most once.
//!   Reserving costs one seq and no queue work, so an actor whose
//!   deadlines are mostly superseded before they come due keeps them as
//!   places and has one timer in the queue instead of one per deadline —
//!   with every fire exactly where an eagerly armed timer's would be.
//! * [`ActorEngine`] — a ready-made standalone runtime (host + engine +
//!   network) for running actors without a dispatcher, used by unit tests
//!   and service-level experiments.
//!
//! Observation goes through one handle, a [`hades_telemetry::Probe`]
//! ([`ActorHost::set_probe`], [`ActorEngine::set_probe`]): the host
//! reports every handled delivery, [`ActorCtx::send`] every accepted
//! send, the run loop every delivered event — once each.
//!
//! Two control-plane facilities let *online* controllers (reactive
//! scenario drivers, event taps) reach into a **running** engine:
//!
//! * a [`Postbox`] — an engine-time callback channel: code running inside
//!   any event handler (an event tap fired by an actor, a dispatcher
//!   hook) drops `(actor, tag)` wake requests into the shared postbox,
//!   and the embedding engine drains it after every handled event,
//!   posting an [`ActorEvent::Notify`] *at the current instant*. The
//!   woken actor therefore runs at the same virtual time as the event
//!   that triggered it, strictly after it in the deterministic total
//!   order.
//! * [`ControlOp`]s — fault/workload injection into the running run:
//!   an actor stages them through [`ActorCtx::control`], and the
//!   embedding engine applies them right after the actor's handler
//!   returns (crash windows and link cuts mutate the shared network's
//!   [`FaultPlan`]; task admission ops are interpreted by embeddings
//!   that host a task dispatcher and ignored by the bare
//!   [`ActorEngine`]).

use crate::engine::{Engine, Scheduler, Simulation};
use crate::fault::FaultPlan;
use crate::net::{Delivery, Network, NodeId};
use hades_telemetry::Probe;
use hades_time::{Duration, Time};
use std::cell::RefCell;
use std::rc::Rc;

/// Identifier of an actor within its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Events delivered to a [`NetActor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorEvent {
    /// Delivered once at the beginning of the run.
    Start,
    /// The actor's node came back up after a crash window (cold restart).
    /// Delivered at each restart instant of the node's
    /// [`crate::FaultPlan`] crash windows; the actor's volatile protocol
    /// state should be considered lost — timers armed before the crash may
    /// still fire afterwards, so restart-aware actors must guard them with
    /// an epoch folded into the timer tag.
    Restart,
    /// A timer the actor armed via [`ActorCtx::timer_at`] fired.
    Timer {
        /// The tag given when arming.
        tag: u64,
    },
    /// A message from another actor arrived over the network.
    Message {
        /// Sending actor's node.
        from: NodeId,
        /// Protocol-defined message kind.
        tag: u64,
        /// Protocol-defined payload.
        payload: u64,
    },
    /// An out-of-band control-plane wake-up: posted through a [`Postbox`]
    /// (or staged by another actor via [`ActorCtx::notify_at`]), it
    /// bypasses the network — no transit delay, no fault-plan omission on
    /// the *path* (delivery to a crashed node's actor is still dropped).
    /// Used by event taps and scenario drivers, never by the simulated
    /// protocols themselves.
    Notify {
        /// Controller-defined discriminator.
        tag: u64,
    },
}

impl ActorEvent {
    /// This event's delivery class — `Start`, `Restart`, `Timer`,
    /// `Message`, `Notify`, as an index into
    /// [`hades_telemetry::DELIVERY_CLASSES`] — and its protocol tag (0
    /// for the two untagged classes): how observers classify a delivery.
    pub fn class(&self) -> (usize, u64) {
        match *self {
            ActorEvent::Start => (0, 0),
            ActorEvent::Restart => (1, 0),
            ActorEvent::Timer { tag } => (2, tag),
            ActorEvent::Message { tag, .. } => (3, tag),
            ActorEvent::Notify { tag } => (4, tag),
        }
    }
}

/// An engine-time callback channel into a running actor engine.
///
/// Cloning shares the underlying queue. Code executing inside *any*
/// event handler — an event tap invoked by an actor, a dispatcher hook —
/// calls [`Postbox::notify`]; the embedding engine drains the postbox
/// after every handled event and posts an [`ActorEvent::Notify`] to each
/// requested actor **at the current virtual instant**. The woken actor
/// therefore observes the same `now` as the event that triggered the
/// wake, ordered strictly after it.
#[derive(Debug, Clone, Default)]
pub struct Postbox {
    pending: Rc<RefCell<Vec<(ActorId, u64)>>>,
}

impl Postbox {
    /// An empty postbox.
    pub fn new() -> Self {
        Postbox::default()
    }

    /// Requests a wake-up of `to` at the current engine instant.
    pub fn notify(&self, to: ActorId, tag: u64) {
        self.pending.borrow_mut().push((to, tag));
    }

    /// Drains the pending wake requests (embedding engines call this
    /// after every handled event).
    pub fn drain(&self) -> Vec<(ActorId, u64)> {
        std::mem::take(&mut *self.pending.borrow_mut())
    }
}

/// A control operation staged by an actor through [`ActorCtx::control`],
/// applied by the embedding engine right after the staging actor's
/// handler returns. This is how a control plane injects faults (and task
/// admission changes) into a **running** engine instead of scripting
/// them before the run.
///
/// Times in the past are clamped to the application instant. The
/// network-level ops mutate the shared [`FaultPlan`]; the task ops carry
/// an embedding-defined task handle and are interpreted only by
/// embeddings that host a task dispatcher (`hades-dispatch`) — the bare
/// [`ActorEngine`] ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Crash `node` at `at`; down until `until` (`None` = permanent).
    /// The embedding posts an [`ActorEvent::Restart`] to every actor on
    /// `node` at `until`.
    Crash {
        /// The crashing node.
        node: NodeId,
        /// First down instant (inclusive).
        at: Time,
        /// Restart instant (exclusive end of the outage), if any.
        until: Option<Time>,
    },
    /// Close the open crash window of `node` at `at` (schedule a restart
    /// of an already-injected crash). A no-op when no window covers `at`.
    Restart {
        /// The restarting node.
        node: NodeId,
        /// The restart instant.
        at: Time,
    },
    /// Drop every message `from → to` sent within `[from_t, until_t]`
    /// (one direction of a link partition).
    CutLink {
        /// Sending side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
        /// First instant of the cut (inclusive).
        from_t: Time,
        /// Last instant of the cut (inclusive).
        until_t: Time,
    },
    /// Degrade (without severing) the directed link `from → to` within
    /// `[from_t, until_t]`: every message suffers `extra_delay` on top of
    /// its drawn transit time plus an additional `loss_permille` chance
    /// of loss (gray failure).
    DegradeLink {
        /// Sending side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
        /// First instant of the degradation (inclusive).
        from_t: Time,
        /// Last instant of the degradation (inclusive).
        until_t: Time,
        /// Extra transit delay added to every delivered message.
        extra_delay: Duration,
        /// Additional loss probability (‰) on top of the link's own rate.
        loss_permille: u32,
    },
    /// Slow `node`'s CPU to `speed_permille / 1000` of nominal during
    /// `[from_t, until_t)`: the node stays up and keeps emitting, but its
    /// work (and deadline compliance) lags. Interpreted by embeddings
    /// that host a task dispatcher; the bare [`ActorEngine`] has no CPU
    /// model and records it in the plan only.
    SlowNode {
        /// The slowed node.
        node: NodeId,
        /// First slowed instant (inclusive).
        from_t: Time,
        /// End of the slowdown (exclusive).
        until_t: Time,
        /// CPU speed during the window (‰ of nominal, clamped ≥ 1).
        speed_permille: u32,
    },
    /// Skew `node`'s local clock from `at` on: locally-measured timer
    /// intervals of that node's actors stretch (negative drift) or
    /// compress (positive drift) by `1 + drift_ppb / 1e9` relative to
    /// engine time.
    SkewClock {
        /// The skewed node.
        node: NodeId,
        /// First skewed instant (inclusive).
        at: Time,
        /// Clock drift in parts per billion (positive = fast clock).
        drift_ppb: i64,
    },
    /// Open the activation window of dispatcher task `task` at `at`
    /// (admit a standby task into the running schedule).
    AdmitTask {
        /// Embedding-defined task handle (`TaskId.0` for hades-dispatch).
        task: u32,
        /// First activation instant.
        at: Time,
    },
    /// Close the activation window of dispatcher task `task` at `at`
    /// (retire it from the running schedule; in-flight instances finish).
    RetireTask {
        /// Embedding-defined task handle.
        task: u32,
        /// The retirement instant.
        at: Time,
    },
}

/// Fixed wire envelope charged per accepted message by the send
/// accounting hooks: sender id + tag + payload plus framing. The
/// simulated network itself is latency-only; this constant only feeds
/// the `net.bytes.*` counters and the profiler's traffic matrix.
pub const WIRE_BYTES: u64 = 32;

/// A protocol actor living on one node of the shared network.
pub trait NetActor {
    /// The node this actor runs on. Events are dropped once the node has
    /// crashed according to the network's fault plan.
    fn node(&self) -> NodeId;

    /// A short static label classifying this actor for profiling and
    /// traffic attribution (e.g. `"agent"`, `"group"`, `"control"`).
    fn label(&self) -> &'static str {
        "actor"
    }

    /// Reacts to one event at virtual time `now`.
    fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>);
}

/// A reserved place in the delivery order: the engine instant a timer
/// fires at and the order seq that breaks its ties — exactly the
/// `(time, seq)` an [`ActorCtx::timer_at`] made at the reservation would
/// have been queued under. [`ActorCtx::reserve`] takes one (it costs one
/// seq and no queue work) and [`ActorCtx::timer_in`] queues a timer there,
/// in this handler or a later one, **at most once**: an actor that
/// supersedes most of its deadlines before they come due (a failure
/// detector) keeps the places and queues only under the earliest.
/// Places order as the engine delivers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Place {
    /// The engine instant of the place.
    pub at: Time,
    /// Its position among the events of that instant.
    pub seq: u64,
}

/// One staged reaction: `(fire_time, order seq, (target_actor, event))`.
pub type Staged = (Time, u64, (ActorId, ActorEvent));

/// The interface an actor reacts through: arm timers, send messages,
/// inspect the shared network.
#[derive(Debug)]
pub struct ActorCtx<'a> {
    now: Time,
    self_id: ActorId,
    self_node: NodeId,
    self_label: &'static str,
    net: &'a mut Network,
    probe: &'a Probe,
    /// The order seq the next staged reaction or reservation takes.
    next_seq: u64,
    staged: &'a mut Vec<Staged>,
    controls: Vec<ControlOp>,
}

impl ActorCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The reacting actor's id.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Arms a timer for the reacting actor at absolute time `at`.
    ///
    /// The interval is measured on the actor's node-local clock: under an
    /// injected clock skew ([`ControlOp::SkewClock`]) the engine-time
    /// firing instant stretches or compresses accordingly. Unskewed nodes
    /// (the only case on a fault-free run) fire exactly at `at`.
    pub fn timer_at(&mut self, at: Time, tag: u64) {
        let place = self.reserve(at);
        self.timer_in(place, tag);
    }

    /// Takes the [`Place`] a timer armed now for `at` would fire in — the
    /// instant [`ActorCtx::timer_fires_at`] gives and the next order seq —
    /// and queues nothing.
    pub fn reserve(&mut self, at: Time) -> Place {
        let at = self.timer_fires_at(at);
        let seq = self.next_seq;
        self.next_seq += 1;
        Place { at, seq }
    }

    /// Arms a timer for the reacting actor in a place it reserved and has
    /// not used. The place must not have passed.
    pub fn timer_in(&mut self, place: Place, tag: u64) {
        let timer = (self.self_id, ActorEvent::Timer { tag });
        self.staged.push((place.at, place.seq, timer));
    }

    /// Stages `ev` for `to` at `at`, under the next order seq.
    fn stage(&mut self, at: Time, to: ActorId, ev: ActorEvent) {
        self.staged.push((at, self.next_seq, (to, ev)));
        self.next_seq += 1;
    }

    /// The engine instant at which a timer armed *now* for `at` fires —
    /// what [`ActorCtx::timer_at`] posts. Two arms of one `at` from
    /// different `now`s fire apart on a skewed node, so an actor that
    /// keeps at most one timer per instant must key on this, not on `at`.
    pub fn timer_fires_at(&self, at: Time) -> Time {
        let at = at.max(self.now);
        let drift = self
            .net
            .fault_plan()
            .clock_drift_ppb(self.self_node, self.now);
        let local = at - self.now;
        if drift == 0 || local.is_zero() {
            return at;
        }
        // A fast clock compresses the wait but must never collapse a
        // nonzero local interval to zero real time: an actor that
        // re-arms an absolute deadline on an early fire would then
        // spin forever at one instant.
        self.now + hades_time::clock::dilate_interval(local, drift).max(Duration::from_nanos(1))
    }

    /// Arms a timer `after` from now.
    pub fn timer_after(&mut self, after: Duration, tag: u64) {
        self.timer_at(self.now + after, tag);
    }

    /// Sends a message to `to` (running on `to_node`) over the shared
    /// network. Returns `false` when the network omitted it (crashed
    /// endpoint, cut link or probabilistic omission).
    pub fn send(&mut self, to: ActorId, to_node: NodeId, tag: u64, payload: u64) -> bool {
        match self.net.transit(self.self_node, to_node, self.now) {
            Delivery::At(at) => {
                self.probe.send(
                    self.self_label,
                    tag,
                    self.self_node.0,
                    to_node.0,
                    WIRE_BYTES,
                );
                let from = self.self_node;
                self.stage(at, to, ActorEvent::Message { from, tag, payload });
                true
            }
            Delivery::Omitted => false,
        }
    }

    /// Multicast fan-out: sends `(tag, payload)` to every `(actor, node)`
    /// target in one call, skipping the reacting actor itself, and returns
    /// how many copies the network accepted. Retries each omitted copy up
    /// to `attempts − 1` extra times (same instant — the Δ-protocol's
    /// reliable-multicast substrate masks per-link omissions by redundant
    /// transmission, not by waiting).
    pub fn fanout(
        &mut self,
        targets: impl IntoIterator<Item = (ActorId, NodeId)>,
        tag: u64,
        payload: u64,
        attempts: u32,
    ) -> u32 {
        let mut accepted = 0;
        for (to, to_node) in targets {
            if to == self.self_id {
                continue;
            }
            for _ in 0..attempts.max(1) {
                if self.send(to, to_node, tag, payload) {
                    accepted += 1;
                    break;
                }
            }
        }
        accepted
    }

    /// Stages a control operation, applied by the embedding engine right
    /// after this handler returns (see [`ControlOp`]). Reserved for
    /// control-plane actors (scenario drivers), not simulated protocols.
    pub fn control(&mut self, op: ControlOp) {
        self.controls.push(op);
    }

    /// Stages an out-of-band [`ActorEvent::Notify`] for `to` at `at` —
    /// a control-plane edge that bypasses the network (no transit delay,
    /// no omission). Delivery to an actor whose node is down at `at` is
    /// still dropped by the host.
    pub fn notify_at(&mut self, to: ActorId, at: Time, tag: u64) {
        self.stage(at.max(self.now), to, ActorEvent::Notify { tag });
    }

    /// Whether `node` has crashed by now (per the fault plan).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.net.fault_plan().is_crashed(node, self.now)
    }

    /// Worst-case healthy transit delay of the shared network (`δmax`).
    pub fn max_delay(&self) -> Duration {
        self.net.max_delay()
    }

    /// Number of nodes in the shared network.
    pub fn node_count(&self) -> u32 {
        self.net.node_count()
    }
}

/// Owns a set of actors and routes events to them.
///
/// The host is engine-agnostic: an embedding run loop delivers one
/// `(ActorId, ActorEvent)` at a time via [`ActorHost::deliver`] and posts
/// the returned reactions on its own engine, under its own event
/// vocabulary. [`ActorEngine`] is the standalone embedding.
#[derive(Default)]
pub struct ActorHost {
    actors: Vec<Box<dyn NetActor>>,
    probe: Probe,
    /// What the last delivery staged, lent out in its [`Reactions`]: one
    /// buffer for the whole run, so staging allocates nothing.
    staged: Vec<Staged>,
}

impl std::fmt::Debug for ActorHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorHost")
            .field("actors", &self.actors.len())
            .finish()
    }
}

impl ActorHost {
    /// An empty host.
    pub fn new() -> Self {
        ActorHost::default()
    }

    /// Installs the run's observation probe: [`ActorHost::deliver`]
    /// reports every *handled* delivery to it ([`Probe::delivery`]) and
    /// [`ActorCtx::send`] every *accepted* send ([`Probe::send`]). The
    /// default probe holds nothing (one `Option` check per report); an
    /// installed one never alters routing or posts events.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Registers an actor, returning its id.
    pub fn add(&mut self, actor: Box<dyn NetActor>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(actor);
        id
    }

    /// Number of registered actors.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether no actors are registered.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Ids of all registered actors, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ActorId> {
        (0..self.actors.len() as u32).map(ActorId)
    }

    /// The `(restart_time, actor)` pairs at which the embedding engine
    /// should post [`ActorEvent::Restart`], derived from the crash windows
    /// of `plan`: one event per scheduled restart of each actor's node.
    pub fn restart_schedule(&self, plan: &FaultPlan) -> Vec<(Time, ActorId)> {
        let restarts = plan.restarts();
        let mut out = Vec::new();
        for (idx, actor) in self.actors.iter().enumerate() {
            let node = actor.node();
            for (n, at) in &restarts {
                if *n == node {
                    out.push((*at, ActorId(idx as u32)));
                }
            }
        }
        out.sort();
        out
    }

    /// Ids of the registered actors living on `node`, in registration
    /// order (the targets of a runtime-injected restart's
    /// [`ActorEvent::Restart`]).
    pub fn actors_on(&self, node: NodeId) -> Vec<ActorId> {
        self.actors
            .iter()
            .enumerate()
            .filter(|(_, actor)| actor.node() == node)
            .map(|(idx, _)| ActorId(idx as u32))
            .collect()
    }

    /// Delivers one event to one actor and returns its staged
    /// [`Reactions`]: events to post and control ops to apply.
    ///
    /// Events for unknown actors or for actors whose node has crashed at
    /// `now` are silently dropped.
    pub fn deliver(
        &mut self,
        id: ActorId,
        ev: ActorEvent,
        now: Time,
        net: &mut Network,
    ) -> Reactions<'_> {
        self.deliver_ordered(0, id, ev, now, net)
    }

    /// [`ActorHost::deliver`] for an embedding that posts the reactions
    /// as one [`Scheduler::post_run`]: they are numbered from `next_seq`,
    /// its engine's [`Scheduler::next_seq`], on.
    pub fn deliver_ordered(
        &mut self,
        next_seq: u64,
        id: ActorId,
        ev: ActorEvent,
        now: Time,
        net: &mut Network,
    ) -> Reactions<'_> {
        self.staged.clear();
        let mut reactions = Reactions {
            posts: &mut self.staged,
            seqs: 0,
            controls: Vec::new(),
        };
        let Some(actor) = self.actors.get_mut(id.0 as usize) else {
            return reactions;
        };
        let node = actor.node();
        if net.fault_plan().is_crashed(node, now) {
            return reactions;
        }
        let (class, tag) = ev.class();
        let label = actor.label();
        self.probe
            .delivery(now.as_nanos(), label, node.0, class, tag);
        let mut ctx = ActorCtx {
            now,
            self_id: id,
            self_node: node,
            self_label: label,
            net,
            probe: &self.probe,
            next_seq,
            staged: reactions.posts,
            controls: Vec::new(),
        };
        actor.handle(now, ev, &mut ctx);
        reactions.seqs = ctx.next_seq - next_seq;
        reactions.controls = ctx.controls;
        reactions
    }
}

/// Everything one delivered event caused: events to post on the
/// embedding engine, and control ops to apply to the running run.
#[derive(Debug)]
pub struct Reactions<'a> {
    /// The events to post, each under the order seq it was staged with:
    /// the host's own buffer, for the embedding to drain.
    pub posts: &'a mut Vec<Staged>,
    /// Order seqs the handler took, from the `next_seq` it was delivered
    /// under: one per staged send, timer and notify and one per
    /// [`ActorCtx::reserve`] — what [`Scheduler::post_run`] advances by.
    pub seqs: u64,
    /// Control operations to apply (in staging order) before the engine
    /// processes its next event.
    pub controls: Vec<ControlOp>,
}

/// Applies the network-level part of one control op to `plan`, returning
/// the restart instants (if any) at which the embedding must post
/// [`ActorEvent::Restart`]s and fault transitions. The task ops return
/// nothing — they are dispatcher-level and interpreted by the embedding
/// itself. An op that does not change the plan (a crash window already
/// in force — e.g. a scripted time-zero window pre-seeded before the
/// run) also returns `None`, so the embedding never posts duplicate
/// restart events for it.
pub fn apply_network_op(
    plan: &mut FaultPlan,
    op: &ControlOp,
    now: Time,
) -> Option<(NodeId, Time, Option<Time>)> {
    match *op {
        ControlOp::Crash { node, at, until } => {
            let at = at.max(now);
            let until = until.map(|u| u.max(at + Duration::from_nanos(1)));
            let before = plan.crash_windows();
            let before_restarts = plan.restarts();
            plan.add_crash(node, at, until);
            if plan.crash_windows() == before {
                return None;
            }
            // Only a restart instant the plan did not already schedule
            // gets actor Restart events — a window merging into an
            // existing restart reuses the events already posted for it.
            let new_restart = plan
                .restarts()
                .into_iter()
                .filter(|(n, _)| *n == node)
                .map(|(_, r)| r)
                .find(|r| !before_restarts.contains(&(node, *r)));
            Some((node, at, new_restart))
        }
        ControlOp::Restart { node, at } => {
            let at = at.max(now + Duration::from_nanos(1));
            plan.add_restart(node, at).then_some((node, at, Some(at)))
        }
        // A link window starts no earlier than now and ends no earlier
        // than it starts.
        ControlOp::CutLink {
            from,
            to,
            from_t,
            until_t,
        } => {
            let start = from_t.max(now);
            plan.add_cut(from, to, start, until_t.max(start));
            None
        }
        ControlOp::DegradeLink {
            from,
            to,
            from_t,
            until_t,
            extra_delay,
            loss_permille,
        } => {
            let start = from_t.max(now);
            plan.add_degrade(
                Some(from),
                Some(to),
                start,
                until_t.max(start),
                extra_delay,
                loss_permille,
            );
            None
        }
        ControlOp::SlowNode {
            node,
            from_t,
            until_t,
            speed_permille,
        } => {
            let start = from_t.max(now);
            let end = until_t.max(start + Duration::from_nanos(1));
            plan.add_slow(node, start, end, speed_permille);
            None
        }
        ControlOp::SkewClock {
            node,
            at,
            drift_ppb,
        } => {
            plan.add_skew(node, at.max(now), drift_ppb);
            None
        }
        ControlOp::AdmitTask { .. } | ControlOp::RetireTask { .. } => None,
    }
}

struct HostSim<'a> {
    host: &'a mut ActorHost,
    net: &'a mut Network,
    postbox: &'a Postbox,
}

impl Simulation for HostSim<'_> {
    type Event = (ActorId, ActorEvent);

    fn handle(&mut self, now: Time, (id, ev): Self::Event, sched: &mut Scheduler<Self::Event>) {
        let _handling = self.host.probe.event(now.as_nanos(), sched.depth(), None);
        let reactions = self
            .host
            .deliver_ordered(sched.next_seq(), id, ev, now, self.net);
        sched.post_run(reactions.posts, reactions.seqs);
        for op in &reactions.controls {
            if let Some((node, _, Some(r))) = apply_network_op(self.net.fault_plan_mut(), op, now) {
                for actor in self.host.actors_on(node) {
                    sched.post(r, (actor, ActorEvent::Restart));
                }
            }
        }
        for (to, tag) in self.postbox.drain() {
            sched.post(now, (to, ActorEvent::Notify { tag }));
        }
    }
}

/// A standalone multi-actor runtime: one engine, one network, N actors.
///
/// # Examples
///
/// ```
/// use hades_sim::mux::{ActorCtx, ActorEngine, ActorEvent, NetActor};
/// use hades_sim::{LinkConfig, Network, NodeId, SimRng};
/// use hades_time::{Duration, Time};
///
/// /// Counts pings it receives; node 0 pings node 1 every millisecond.
/// struct Pinger { node: NodeId, seen: u32 }
/// impl NetActor for Pinger {
///     fn node(&self) -> NodeId { self.node }
///     fn handle(&mut self, _now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
///         match ev {
///             ActorEvent::Start | ActorEvent::Timer { .. } if self.node == NodeId(0) => {
///                 ctx.send(hades_sim::mux::ActorId(1), NodeId(1), 7, 42);
///                 ctx.timer_after(Duration::from_millis(1), 0);
///             }
///             ActorEvent::Message { tag: 7, .. } => self.seen += 1,
///             _ => {}
///         }
///     }
/// }
///
/// let net = Network::homogeneous(2, LinkConfig::default(), SimRng::seed_from(1));
/// let mut rt = ActorEngine::new(net);
/// rt.add_actor(Box::new(Pinger { node: NodeId(0), seen: 0 }));
/// rt.add_actor(Box::new(Pinger { node: NodeId(1), seen: 0 }));
/// rt.run(Time::ZERO + Duration::from_millis(5));
/// ```
#[derive(Debug)]
pub struct ActorEngine {
    engine: Engine<(ActorId, ActorEvent)>,
    host: ActorHost,
    net: Network,
    postbox: Postbox,
    started: bool,
}

impl ActorEngine {
    /// Creates a runtime over `net`.
    pub fn new(net: Network) -> Self {
        ActorEngine {
            engine: Engine::new(),
            host: ActorHost::new(),
            net,
            postbox: Postbox::new(),
            started: false,
        }
    }

    /// The engine-time callback channel: wake requests dropped here (by
    /// event taps and other in-handler code) are delivered as
    /// [`ActorEvent::Notify`] at the current instant, after the handled
    /// event.
    pub fn postbox(&self) -> Postbox {
        self.postbox.clone()
    }

    /// Registers an actor.
    ///
    /// # Panics
    ///
    /// Panics once the runtime has started running.
    pub fn add_actor(&mut self, actor: Box<dyn NetActor>) -> ActorId {
        assert!(!self.started, "actors must be added before the first run");
        self.host.add(actor)
    }

    /// The shared network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Installs the run's observation probe. Every delivered event is
    /// reported once without a kind (timeline ticks), every handled
    /// delivery and accepted send once through the actor host, and each
    /// [`ActorEngine::run`] publishes the engine's own counts
    /// (`engine.events` / `engine.queue_depth_peak`) when it returns.
    pub fn set_probe(&mut self, probe: Probe) {
        self.host.set_probe(probe);
    }

    /// Runs until `until` (inclusive), delivering `Start` to every actor
    /// on the first call — plus a [`ActorEvent::Restart`] at every
    /// scheduled restart of each actor's node. Returns the number of
    /// delivered events.
    pub fn run(&mut self, until: Time) -> u64 {
        if !self.started {
            self.started = true;
            for id in self.host.ids() {
                self.engine.post(Time::ZERO, (id, ActorEvent::Start));
            }
            for (at, id) in self.host.restart_schedule(self.net.fault_plan()) {
                self.engine.post(at, (id, ActorEvent::Restart));
            }
        }
        let postbox = self.postbox.clone();
        let mut sim = HostSim {
            host: &mut self.host,
            net: &mut self.net,
            postbox: &postbox,
        };
        let delivered = self.engine.run(&mut sim, until);
        let depth_peak = self.engine.depth_peak();
        self.host.probe.run_ended(delivered, depth_peak);
        delivered
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }
}

#[cfg(test)]
#[path = "tests/mux.rs"]
mod tests;
