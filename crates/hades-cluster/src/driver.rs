//! The reactive control plane: online [`ScenarioDriver`]s closing the
//! loop between what the cluster *does* and what the scenario *injects*.
//!
//! [`crate::ScenarioPlan`] scripts an **open-loop** experiment: every
//! crash, restart, partition and mode change is fixed at spec time. The
//! paper's value proposition, though, is timely *reaction* — detection,
//! view change, failover — and realistic dependability studies drive
//! faults and load *from observed system state* (fault cascades
//! triggered by detections, load shedding triggered by deadline
//! misses). A [`ScenarioDriver`] is that closed loop:
//!
//! * it receives every [`ClusterEvent`] **at its engine timestamp**
//!   (through the protocol tap and the mux postbox), plus a
//!   periodic tick;
//! * it reacts through a [`ControlHandle`] that can inject any
//!   [`FaultOp`] into the *running* network, retire or admit (standby)
//!   services, and retune live workloads;
//! * the offline path is not a second mechanism: at start the control
//!   plane replays the spec's [`crate::ScenarioPlan`] through the same
//!   control ops a reactive driver would use, before any registered
//!   driver starts; the offline feasibility and transition analyses read
//!   the same plan.
//!
//! # The applied fault plan
//!
//! The control plane records every fault op it stages — crashes,
//! restarts, cuts, degraded links, slow nodes, clock skews, scripted and
//! reactive alike — in a [`FaultPlan`] of its own, applied with
//! [`mux::apply_network_op`], the function the network applies the same
//! op with at the same instant. The two plans therefore cannot drift:
//! online classification (a `Detected` latency, a `FailedOver`, the
//! crash-casualty filter on `DeadlineMiss` and on each settled instance
//! the node reports count) and the post-run report read that one record
//! of who was down when.
//!
//! # Event-delivery timing contract
//!
//! An event is delivered to every driver at the virtual instant it was
//! emitted (same `now`), strictly *after* the emitting protocol step in
//! the engine's deterministic total order. Control commands issued from
//! a callback take effect at that same instant, after the callback
//! returns — an injected crash at `now` silences the node for every
//! *later* event, never retroactively. Commands aimed at the past are
//! clamped to `now`. Driver callbacks run in driver-registration order
//! and must be deterministic: they see only the event stream and their
//! own state, and the whole run (report **and** event stream) remains a
//! pure function of the spec.

use crate::events::ClusterEvent;
use crate::report::NodeReport;
use crate::scenario::{FaultOp, ScenarioPlan};
use hades_services::group::{RequestSource, GN_WAKE};
use hades_sim::mux::{self, ActorCtx, ActorEvent, ActorId, ControlOp, NetActor};
use hades_sim::{FaultPlan, NodeId};
use hades_task::TaskId;
use hades_telemetry::monitor::{MonitorEvent, Watchdog};
use hades_time::{Duration, Time};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// A during-run scenario controller: receives every [`ClusterEvent`] at
/// its engine timestamp (plus a periodic tick) and reacts through a
/// [`ControlHandle`].
///
/// See the module docs for the timing contract. Register drivers with
/// [`crate::ClusterSpec::driver`].
///
/// # Examples
///
/// A detection-triggered fault cascade — the second crash is *not*
/// pre-scheduled anywhere; it happens because the first one was
/// detected:
///
/// ```
/// use hades_cluster::{
///     ClusterEvent, ClusterSpec, ControlHandle, FaultOp, ScenarioDriver, ScenarioPlan, ServiceSpec,
/// };
/// use hades_sim::NodeId;
/// use hades_time::{Duration, Time};
///
/// #[derive(Debug, Default)]
/// struct Cascade {
///     fired: bool,
/// }
///
/// impl ScenarioDriver for Cascade {
///     fn on_event(&mut self, now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
///         if let ClusterEvent::Detected { suspect: 0, .. } = event {
///             if !self.fired {
///                 self.fired = true;
///                 // Reactive: injected at the detection instant.
///                 ctl.inject(FaultOp::Crash { node: 3, at: now, until: None });
///             }
///         }
///     }
/// }
///
/// let mut spec = ClusterSpec::new(4)
///     .horizon(Duration::from_millis(60))
///     .scenario(ScenarioPlan::new().crash(NodeId(0), Time::ZERO + Duration::from_millis(10)))
///     .driver(Box::new(Cascade::default()));
/// for node in 0..4 {
///     spec = spec.service(ServiceSpec::periodic(
///         format!("app@{node}"),
///         node,
///         Duration::from_micros(100),
///         Duration::from_millis(2),
///     ));
/// }
/// let run = spec.run()?;
/// // Both crashes really happened: only nodes 1 and 2 survive.
/// assert_eq!(run.report().view_history.last().unwrap().1, vec![1, 2]);
/// # Ok::<(), hades_cluster::SpecError>(())
/// ```
pub trait ScenarioDriver: fmt::Debug {
    /// Called once at time zero, before any event is delivered. The
    /// default does nothing.
    fn on_start(&mut self, now: Time, ctl: &mut ControlHandle<'_>) {
        let _ = (now, ctl);
    }

    /// Called for each [`ClusterEvent`] at its engine timestamp (see the
    /// module-level timing contract).
    fn on_event(&mut self, now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>);

    /// Called at every periodic control tick, once per millisecond of
    /// engine time. The default does nothing.
    fn on_tick(&mut self, now: Time, ctl: &mut ControlHandle<'_>) {
        let _ = (now, ctl);
    }
}

/// What a driver command may do to one registered service (built by the
/// spec lowering).
#[derive(Debug, Clone)]
pub(crate) enum ServiceControlKind {
    /// A task-backed service (periodic or raw task): its dispatcher task
    /// ids.
    Tasks {
        /// The service's task ids (`TaskId.0`).
        ids: Vec<u32>,
    },
    /// A replicated service: its shared request source and its members'
    /// actor addresses (woken after a retune).
    Group {
        /// The shared request source.
        source: Rc<RefCell<dyn RequestSource>>,
        /// `(node, actor)` of every member.
        members: Vec<(u32, ActorId)>,
    },
}

/// One registered service as seen by the control plane.
#[derive(Debug, Clone)]
pub(crate) struct ServiceControl {
    pub(crate) name: String,
    pub(crate) kind: ServiceControlKind,
}

/// A command collected from a driver callback, applied by the control
/// actor right after the callback returns. Node ranges are checked when
/// the command is issued.
#[derive(Debug, Clone)]
enum Command {
    Fault(FaultOp),
    Throttle { service: usize, permille: u32 },
    Retire { service: usize },
    Admit { service: usize },
    ShardMoved { shard: u32, from: u32, to: u32 },
}

/// The injection surface handed to every [`ScenarioDriver`] callback.
///
/// **Timing contract**: a command issued from a callback running at
/// virtual time `now` takes effect at `now` (or the requested future
/// instant; past instants are clamped), *after* the callback returns
/// and before the engine processes its next event — an injected crash
/// silences the node for every later event, never retroactively.
/// Service-addressed methods return whether the named service exists
/// and supports the operation.
///
/// # Examples
///
/// Deadline-miss-triggered load shedding — the driver hears each miss at
/// the missed deadline itself and halves the store's live request rate:
///
/// ```
/// use hades_cluster::{
///     ClusterEvent, ClusterSpec, ControlHandle, GroupLoad, ScenarioDriver, ServiceSpec,
/// };
/// use hades_services::ReplicaStyle;
/// use hades_time::{Duration, Time};
///
/// #[derive(Debug, Default)]
/// struct Shed {
///     done: bool,
/// }
///
/// impl ScenarioDriver for Shed {
///     fn on_event(&mut self, _now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
///         if let ClusterEvent::DeadlineMiss { middleware: false, .. } = event {
///             if !std::mem::replace(&mut self.done, true) {
///                 // Effective at the miss instant, for all later traffic.
///                 assert!(ctl.throttle_workload("store", 500));
///             }
///         }
///     }
/// }
///
/// let run = ClusterSpec::new(3)
///     .horizon(Duration::from_millis(40))
///     .service(ServiceSpec::replicated(
///         "store",
///         ReplicaStyle::Active,
///         vec![1, 2],
///         GroupLoad::default(),
///     ))
///     // An overloaded node 0 (U > 1) produces the triggering misses.
///     .service(ServiceSpec::periodic("heavy-a", 0, Duration::from_millis(1), Duration::from_millis(2)))
///     .service(ServiceSpec::periodic("heavy-b", 0, Duration::from_micros(1_100), Duration::from_millis(2)))
///     .driver(Box::new(Shed::default()))
///     .run()?;
/// assert!(run.events_of_kind("workload-retuned").next().is_some());
/// # Ok::<(), hades_cluster::SpecError>(())
/// ```
#[derive(Debug)]
pub struct ControlHandle<'a> {
    now: Time,
    nodes: u32,
    services: &'a [ServiceControl],
    cmds: &'a mut Vec<Command>,
}

impl ControlHandle<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Cluster size.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Stages `op` (see [`FaultOp`] for each kind and the crash rule).
    /// An op naming a node outside the cluster, or a link from a node to
    /// itself, is ignored.
    pub fn inject(&mut self, op: FaultOp) {
        let n = self.nodes;
        let valid = match op {
            FaultOp::Cut { from, to, .. } | FaultOp::Degrade { from, to, .. } => {
                from < n && to < n && from != to
            }
            FaultOp::Crash { node, .. }
            | FaultOp::Restart { node, .. }
            | FaultOp::Slow { node, .. }
            | FaultOp::Skew { node, .. } => node < n,
        };
        if valid {
            self.cmds.push(Command::Fault(op));
        }
    }

    /// Retunes the named replicated service's live workload to
    /// `permille` of its nominal rate (1000 = nominal, 0 = stopped),
    /// effective now. A name shared by several registered services (the
    /// common one-entry-per-node idiom) addresses **every** replicated
    /// service carrying it. Returns `false` when no replicated service
    /// matches.
    pub fn throttle_workload(&mut self, service: &str, permille: u32) -> bool {
        let mut any = false;
        for idx in self.matching(service) {
            if matches!(self.services[idx].kind, ServiceControlKind::Group { .. }) {
                any = true;
                self.cmds.push(Command::Throttle {
                    service: idx,
                    permille,
                });
            }
        }
        any
    }

    /// Retires the named service(s) from the running deployment,
    /// effective now: a task-backed service stops activating (in-flight
    /// instances finish), a replicated service's workload stops. A
    /// shared name addresses every service carrying it. Returns `false`
    /// when nothing matches.
    pub fn retire_service(&mut self, service: &str) -> bool {
        let matches = self.matching(service);
        for idx in &matches {
            self.cmds.push(Command::Retire { service: *idx });
        }
        !matches.is_empty()
    }

    /// Admits the named service(s) into the running deployment,
    /// effective now: a standby (or retired) task-backed service starts
    /// activating, a stopped replicated workload resumes at nominal
    /// rate. A shared name addresses every service carrying it. Returns
    /// `false` when nothing matches.
    pub fn admit_service(&mut self, service: &str) -> bool {
        let matches = self.matching(service);
        for idx in &matches {
            self.cmds.push(Command::Admit { service: *idx });
        }
        !matches.is_empty()
    }

    /// Records a shard ownership move in the event stream
    /// ([`ClusterEvent::ShardMoved`]), effective now. Fabric-level
    /// drivers call this alongside the retire/admit pair that actuates
    /// the move, so stream consumers (reports, tests, other drivers)
    /// see which shard moved between which placements without decoding
    /// service names.
    pub fn mark_shard_moved(&mut self, shard: u32, from: u32, to: u32) {
        self.cmds.push(Command::ShardMoved { shard, from, to });
    }

    /// Registration indices of every service named `service`.
    fn matching(&self, service: &str) -> Vec<usize> {
        self.services
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == service)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Task → (home node, whether it is injected middleware), sorted by task
/// id: the one look-up of the per-instance path, a binary search.
#[derive(Debug, Clone, Default)]
pub(crate) struct Origins(Vec<(TaskId, (u32, bool))>);

impl Origins {
    /// Records `task`'s origin.
    pub(crate) fn insert(&mut self, task: TaskId, origin: (u32, bool)) {
        match self.0.binary_search_by_key(&task, |(t, _)| *t) {
            Ok(i) => self.0[i].1 = origin,
            Err(i) => self.0.insert(i, (task, origin)),
        }
    }

    /// `task`'s origin, if it has one.
    pub(crate) fn get(&self, task: TaskId) -> Option<(u32, bool)> {
        let i = self.0.binary_search_by_key(&task, |(t, _)| *t).ok()?;
        Some(self.0[i].1)
    }
}

/// One settled instance as a node report counts it.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    node: u32,
    middleware: bool,
    activated: Time,
    /// The instant its fate was sealed: completion, or the deadline if
    /// that came first (a miss is a miss from the deadline on).
    settled: Time,
    missed: bool,
    response: Option<Duration>,
}

/// One group's deliveries as its `request` spans phase them: per request
/// id, the Δ-order stamp and the first delivery instant, folded as the
/// members deliver.
#[derive(Debug)]
pub(crate) struct DeliveryFold {
    /// The group's members in list order.
    members: Vec<u32>,
    /// `id → (ts, rank, first delivery)`: `ts` as the first member in
    /// list order that delivered the id stamped it, `rank` that member's
    /// index in `members`.
    first: BTreeMap<u64, (Time, usize, Time)>,
}

impl DeliveryFold {
    pub(crate) fn new(members: Vec<u32>) -> Self {
        DeliveryFold {
            members,
            first: BTreeMap::new(),
        }
    }

    fn record(&mut self, member: u32, id: u64, ts: Time, at: Time) {
        let rank = self.members.iter().position(|m| *m == member);
        let rank = rank.unwrap_or(self.members.len());
        let e = self.first.entry(id).or_insert((ts, rank, at));
        if rank < e.1 {
            (e.0, e.1) = (ts, rank);
        }
        e.2 = e.2.min(at);
    }

    /// The Δ-order stamp and first delivery of request `id`, if any
    /// member delivered it.
    pub(crate) fn get(&self, id: u64) -> Option<(Time, Time)> {
        self.first.get(&id).map(|(ts, _, at)| (*ts, *at))
    }
}

/// Everything the control plane accumulates during a run: the events
/// emitted so far (the final stream), the queue still to be delivered
/// to drivers, the *applied* fault plan (the one classification source,
/// online and in the post-run report), the view bookkeeping for
/// first-install and failover derivation, the node reports' instance
/// counts, folded as the dispatcher settles each instance, and the
/// groups' deliveries when spans will be built.
#[derive(Debug, Default)]
pub(crate) struct ControlState {
    /// Every fault op staged so far (scripted replays and reactive
    /// injections alike), applied exactly as the network applies it —
    /// crash windows, cuts, degraded links, slow nodes and skews.
    pub(crate) applied: FaultPlan,
    /// The full online event stream, in emission order.
    pub(crate) events: Vec<ClusterEvent>,
    /// Events emitted but not yet delivered to drivers.
    pending: VecDeque<ClusterEvent>,
    /// First-install members per view number.
    seen_views: BTreeMap<u32, Vec<u32>>,
    /// View numbers whose failover (if any) was already emitted.
    emitted_failovers: BTreeSet<u32>,
    origin: Origins,
    /// One report per node, by node: the instance counts fold in online
    /// ([`ControlState::fold`]); the crash fields are the lowering's.
    pub(crate) node_reports: Vec<NodeReport>,
    /// Outcomes sealed at the current instant, held until time moves on
    /// (see [`ControlState::settle`]).
    held: Vec<Outcome>,
    /// One fold per group, by group; empty when no span reads them.
    pub(crate) deliveries: Vec<DeliveryFold>,
}

impl ControlState {
    pub(crate) fn new(
        origin: Origins,
        node_reports: Vec<NodeReport>,
        deliveries: Vec<DeliveryFold>,
    ) -> Self {
        ControlState {
            origin,
            node_reports,
            deliveries,
            ..ControlState::default()
        }
    }

    /// Counts one settled instance in its home node's report, unless the
    /// node was down during any instant of `[activated, settled]`: such
    /// an instance is a casualty of the crash (recorded by the recovery
    /// machinery), not a scheduling outcome. An instance whose fate was
    /// sealed before the crash — on-time completion or a miss at its
    /// deadline — still counts.
    fn fold(&mut self, o: Outcome) {
        if self
            .applied
            .down_during(NodeId(o.node), o.activated, o.settled)
        {
            return;
        }
        let r = &mut self.node_reports[o.node as usize];
        if o.middleware {
            r.middleware_instances += 1;
            r.middleware_misses += o.missed as u64;
        } else {
            r.app_instances += 1;
            r.app_misses += o.missed as u64;
            if let Some(rt) = o.response {
                r.worst_app_response = Some(r.worst_app_response.map_or(rt, |w| w.max(rt)));
            }
        }
    }

    /// Folds in one settled instance.
    ///
    /// The same-instant rule: an outcome sealed at `now` itself is held
    /// until a later instant or the end of the run. A fault op staged
    /// later at this same instant can still open a window at `now` that
    /// covers it; one staged at any later instant crashes no earlier than
    /// that, after `settled`. So the count equals the one the final
    /// applied plan gives.
    fn settle(&mut self, now: Time, o: Outcome) {
        if o.settled == now {
            self.held.push(o);
        } else {
            self.fold(o);
        }
    }

    /// Folds the held outcomes once time has moved past their instant
    /// (`Time::MAX` at the end of the run).
    pub(crate) fn release_held(&mut self, now: Time) {
        if self.held.first().is_some_and(|o| o.settled < now) {
            for o in std::mem::take(&mut self.held) {
                self.fold(o);
            }
        }
    }

    fn push(&mut self, ev: ClusterEvent) {
        self.events.push(ev.clone());
        self.pending.push_back(ev);
    }

    /// Translates one tap observation into cluster events. Returns
    /// whether anything was queued (a control wake is needed).
    pub(crate) fn on_protocol_event(&mut self, now: Time, ev: &MonitorEvent) -> bool {
        self.release_held(now);
        let before = self.pending.len();
        match ev {
            MonitorEvent::Suspected { observer, suspect } => {
                let latency = self
                    .applied
                    .down_since(NodeId(*suspect), now)
                    .map(|crashed_at| now - crashed_at);
                self.push(ClusterEvent::Detected {
                    observer: *observer,
                    suspect: *suspect,
                    at: now,
                    latency,
                });
            }
            MonitorEvent::ViewInstalled {
                node,
                number,
                members,
            } => {
                // Failover derivation: the previous view's primary is
                // down and the *new primary itself* just installed the
                // promoting view.
                if !self.emitted_failovers.contains(number) {
                    if let Some(prev) = number.checked_sub(1).and_then(|p| self.seen_views.get(&p))
                    {
                        if let (Some(&old), Some(&new)) = (prev.first(), members.first()) {
                            if old != new
                                && new == *node
                                && self.applied.is_crashed(NodeId(old), now)
                            {
                                self.emitted_failovers.insert(*number);
                                self.push(ClusterEvent::FailedOver {
                                    failed_primary: old,
                                    new_primary: new,
                                    at: now,
                                });
                            }
                        }
                    }
                }
                if !self.seen_views.contains_key(number) {
                    self.seen_views.insert(*number, members.clone());
                    self.push(ClusterEvent::ViewInstalled {
                        number: *number,
                        members: members.clone(),
                        at: now,
                    });
                }
            }
            MonitorEvent::RejoinCompleted {
                node,
                view,
                restarted_at,
            } => {
                self.push(ClusterEvent::RejoinCompleted {
                    node: *node,
                    view: *view,
                    at: now,
                    latency: now - *restarted_at,
                });
            }
            MonitorEvent::LeadershipHandoff { group, from, to } => {
                self.push(ClusterEvent::Handoff {
                    group: *group,
                    from: *from,
                    to: *to,
                    at: now,
                });
            }
            // Instances overlapping an applied down window of their node
            // are crash casualties, not scheduling outcomes, and emit
            // nothing.
            MonitorEvent::DeadlineMiss {
                node,
                task,
                activated,
                ..
            } => {
                let task = TaskId(*task);
                let (node, middleware) = self.origin.get(task).unwrap_or((*node, false));
                if !self.applied.down_during(NodeId(node), *activated, now) {
                    self.push(ClusterEvent::DeadlineMiss {
                        node,
                        task,
                        middleware,
                        at: now,
                    });
                }
            }
            // Report input, not an event: the node reports count it.
            MonitorEvent::InstanceSettled {
                task,
                activated,
                deadline,
                completed,
                missed,
                ..
            } => {
                if let Some((node, middleware)) = self.origin.get(TaskId(*task)) {
                    let outcome = Outcome {
                        node,
                        middleware,
                        activated: *activated,
                        settled: completed.map_or(*deadline, |c| c.min(*deadline)),
                        missed: *missed,
                        response: completed.map(|c| c - *activated),
                    };
                    self.settle(now, outcome);
                }
            }
            // Span input, not an event.
            MonitorEvent::RequestDelivered {
                group,
                member,
                id,
                ts,
            } => {
                if let Some(fold) = self.deliveries.get_mut(*group as usize) {
                    fold.record(*member, *id, *ts, now);
                }
            }
            // Suspicion clears, rejoin phase marks, per-request
            // submit/emit marks and the other dispatcher alarms feed the
            // invariant watchdog, not the cluster event stream.
            _ => {}
        }
        self.pending.len() > before
    }
}

/// The period of the drivers' [`ScenarioDriver::on_tick`].
const TICK: Duration = Duration::from_millis(1);
/// Control-actor timer tag: the periodic driver tick.
const CK_TICK: u64 = 1;
/// Control-actor timer tag: a watchdog deadline (stalled transfer or
/// silent group) falls due.
const CK_WATCH: u64 = 2;
/// Control-actor timer tag base: scripted mode-change event emission
/// (`CK_MODE + index`).
const CK_MODE: u64 = 16;

/// The control plane as a hosted actor: it lives on the virtual node
/// `NodeId(u32::MAX)` — outside the cluster, and therefore uncrashable
/// (the experimenter's harness must survive every injected fault). It
/// never touches the simulated network; it reacts only through timers,
/// control ops and out-of-band notifies.
pub(crate) struct ControlActor {
    /// The spec's own plan as commands, applied at start before the
    /// drivers start.
    script: Vec<Command>,
    drivers: Vec<Box<dyn ScenarioDriver>>,
    state: Rc<RefCell<ControlState>>,
    services: Vec<ServiceControl>,
    nodes: u32,
    horizon: Time,
    /// `(script_at, released_at)` of the statically lowered mode
    /// changes; their events are emitted online at the script instant.
    mode_marks: Vec<(Time, Time)>,
    /// The online invariant watchdog, when the spec registered
    /// monitors. Shared with the protocol tap, which feeds it
    /// observations; the control actor drains its violations into the
    /// event stream and arms its deadlines as engine timers.
    watchdog: Option<Rc<RefCell<Watchdog>>>,
    /// Watchdog deadlines already armed as engine timers, pruned as time
    /// passes.
    armed: BTreeSet<Time>,
}

impl fmt::Debug for ControlActor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlActor")
            .field("drivers", &self.drivers.len())
            .field("services", &self.services.len())
            .finish_non_exhaustive()
    }
}

impl ControlActor {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        plan: &ScenarioPlan,
        drivers: Vec<Box<dyn ScenarioDriver>>,
        state: Rc<RefCell<ControlState>>,
        services: Vec<ServiceControl>,
        nodes: u32,
        horizon: Time,
        mode_marks: Vec<(Time, Time)>,
        watchdog: Option<Rc<RefCell<Watchdog>>>,
    ) -> Self {
        // The spec's own script: its crash windows, paired by
        // `fault_plan`, then its cuts in builder order. Mode changes are
        // not replayed: they need the offline transition analysis, so
        // they lower statically and the control plane emits their events
        // at the script instant.
        let mut script = Vec::new();
        let mut handle = ControlHandle {
            now: Time::ZERO,
            nodes,
            services: &services,
            cmds: &mut script,
        };
        for (node, w) in plan.fault_plan().crash_windows() {
            handle.inject(FaultOp::Crash {
                node: node.0,
                at: w.crash_at,
                until: w.restart_at,
            });
        }
        for op in plan.ops() {
            if let FaultOp::Cut { .. } = op {
                handle.inject(*op);
            }
        }
        ControlActor {
            script,
            drivers,
            state,
            services,
            nodes,
            horizon,
            mode_marks,
            watchdog,
            armed: BTreeSet::new(),
        }
    }

    /// Drains the watchdog: fires due deadlines, surfaces every fresh
    /// violation as an [`ClusterEvent::InvariantViolated`] at the
    /// engine instant the monitor detected it, and arms each deadline
    /// the monitors requested as one engine timer (strictly in the
    /// future, within the horizon, not already armed). The watchdog
    /// itself never touches the engine.
    fn service_watchdog(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let Some(watchdog) = &self.watchdog else {
            return;
        };
        let (violations, wakeups) = {
            let mut dog = watchdog.borrow_mut();
            dog.wake(now);
            (dog.take_fresh(), dog.take_wakeups())
        };
        if !violations.is_empty() {
            let mut state = self.state.borrow_mut();
            for v in violations {
                state.push(ClusterEvent::InvariantViolated {
                    monitor: v.monitor,
                    node: v.node,
                    group: v.group,
                    message: v.message,
                    at: v.at,
                });
            }
        }
        self.armed = self.armed.split_off(&now);
        for at in wakeups {
            if at > now && at <= self.horizon && self.armed.insert(at) {
                ctx.timer_at(at, CK_WATCH);
            }
        }
    }

    /// Runs one driver callback and applies the commands it issued.
    fn call_driver<F>(&mut self, idx: usize, now: Time, ctx: &mut ActorCtx<'_>, f: F)
    where
        F: FnOnce(&mut dyn ScenarioDriver, &mut ControlHandle<'_>),
    {
        let mut cmds = Vec::new();
        {
            let mut handle = ControlHandle {
                now,
                nodes: self.nodes,
                services: &self.services,
                cmds: &mut cmds,
            };
            f(self.drivers[idx].as_mut(), &mut handle);
        }
        for cmd in cmds {
            self.apply(cmd, now, ctx);
        }
    }

    /// Applies one collected command. A fault op is lowered to its
    /// network op, applied to the applied plan with the network's own
    /// rule, and handed to the engine, which applies it to the network's
    /// plan at this same instant. A service control is applied and its
    /// event emitted.
    fn apply(&mut self, cmd: Command, now: Time, ctx: &mut ActorCtx<'_>) {
        match cmd {
            Command::Fault(op) => {
                let op = match op {
                    // The crash rule: a crash of a node already down is a
                    // no-op, and a restart already booked for a later
                    // window of the node ends this one.
                    FaultOp::Crash { node, at, until } => {
                        let node = NodeId(node);
                        let at = at.max(now);
                        let booked = {
                            let state = self.state.borrow();
                            if state.applied.is_crashed(node, at) {
                                return;
                            }
                            state
                                .applied
                                .windows_of(node)
                                .iter()
                                .filter_map(|w| w.restart_at)
                                .find(|r| *r > at)
                        };
                        // `apply_network_op` lifts an `until` at or before
                        // `at`.
                        let until = until.into_iter().chain(booked).min();
                        ControlOp::Crash { node, at, until }
                    }
                    FaultOp::Restart { node, at } => ControlOp::Restart {
                        node: NodeId(node),
                        at,
                    },
                    FaultOp::Cut {
                        from,
                        to,
                        at,
                        until,
                    } => ControlOp::CutLink {
                        from: NodeId(from),
                        to: NodeId(to),
                        from_t: at,
                        until_t: until,
                    },
                    FaultOp::Degrade {
                        from,
                        to,
                        at,
                        until,
                        extra_delay,
                        loss_permille,
                    } => ControlOp::DegradeLink {
                        from: NodeId(from),
                        to: NodeId(to),
                        from_t: at,
                        until_t: until,
                        extra_delay,
                        loss_permille,
                    },
                    FaultOp::Slow {
                        node,
                        at,
                        until,
                        speed_permille,
                    } => ControlOp::SlowNode {
                        node: NodeId(node),
                        from_t: at,
                        until_t: until,
                        speed_permille,
                    },
                    FaultOp::Skew {
                        node,
                        at,
                        drift_ppb,
                    } => ControlOp::SkewClock {
                        node: NodeId(node),
                        at,
                        drift_ppb,
                    },
                };
                mux::apply_network_op(&mut self.state.borrow_mut().applied, &op, now);
                ctx.control(op);
            }
            Command::Throttle { service, permille } => {
                self.retune(service, permille, now, ctx);
                self.state.borrow_mut().push(ClusterEvent::WorkloadRetuned {
                    service: service as u32,
                    permille,
                    at: now,
                });
            }
            Command::Retire { service } => {
                match &self.services[service].kind {
                    ServiceControlKind::Tasks { ids } => {
                        for id in ids.clone() {
                            ctx.control(ControlOp::RetireTask { task: id, at: now });
                        }
                    }
                    ServiceControlKind::Group { .. } => {
                        self.retune(service, 0, now, ctx);
                    }
                }
                self.state.borrow_mut().push(ClusterEvent::ServiceRetired {
                    service: service as u32,
                    at: now,
                });
            }
            Command::Admit { service } => {
                match &self.services[service].kind {
                    ServiceControlKind::Tasks { ids } => {
                        for id in ids.clone() {
                            ctx.control(ControlOp::AdmitTask { task: id, at: now });
                        }
                    }
                    ServiceControlKind::Group { .. } => {
                        self.retune(service, 1000, now, ctx);
                    }
                }
                self.state.borrow_mut().push(ClusterEvent::ServiceAdmitted {
                    service: service as u32,
                    at: now,
                });
            }
            Command::ShardMoved { shard, from, to } => {
                self.state.borrow_mut().push(ClusterEvent::ShardMoved {
                    shard,
                    from,
                    to,
                    at: now,
                });
            }
        }
    }

    /// Applies a workload retune and wakes every member of the group so
    /// the current gateway re-reads the (re-paced) schedule.
    fn retune(&self, service: usize, permille: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        let ServiceControlKind::Group { source, members } = &self.services[service].kind else {
            return;
        };
        source.borrow_mut().throttle(now, permille);
        for (_, actor) in members {
            ctx.notify_at(*actor, now, GN_WAKE);
        }
    }

    /// Delivers every queued event to every driver, applying commands as
    /// they are issued (commands may queue further events; the loop
    /// drains those too).
    fn drain_pending(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        loop {
            let ev = self.state.borrow_mut().pending.pop_front();
            let Some(ev) = ev else { break };
            for idx in 0..self.drivers.len() {
                self.call_driver(idx, now, ctx, |d, ctl| d.on_event(now, &ev, ctl));
            }
        }
    }
}

impl NetActor for ControlActor {
    fn node(&self) -> NodeId {
        // A virtual node outside every cluster: no fault plan entry can
        // ever name it, so the control plane survives all injections.
        NodeId(u32::MAX)
    }

    fn label(&self) -> &'static str {
        "control"
    }

    fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
        match ev {
            ActorEvent::Start => {
                for (i, (at, _)) in self.mode_marks.clone().into_iter().enumerate() {
                    ctx.timer_at(at, CK_MODE + i as u64);
                }
                for cmd in std::mem::take(&mut self.script) {
                    self.apply(cmd, now, ctx);
                }
                for idx in 0..self.drivers.len() {
                    self.call_driver(idx, now, ctx, |d, ctl| d.on_start(now, ctl));
                }
                self.service_watchdog(now, ctx);
                self.drain_pending(now, ctx);
                if now + TICK <= self.horizon {
                    ctx.timer_after(TICK, CK_TICK);
                }
            }
            ActorEvent::Notify { .. } => {
                self.service_watchdog(now, ctx);
                self.drain_pending(now, ctx);
            }
            ActorEvent::Timer { tag: CK_WATCH } => {
                self.service_watchdog(now, ctx);
                self.drain_pending(now, ctx);
            }
            ActorEvent::Timer { tag: CK_TICK } => {
                for idx in 0..self.drivers.len() {
                    self.call_driver(idx, now, ctx, |d, ctl| d.on_tick(now, ctl));
                }
                self.service_watchdog(now, ctx);
                self.drain_pending(now, ctx);
                if now + TICK <= self.horizon {
                    ctx.timer_after(TICK, CK_TICK);
                }
            }
            ActorEvent::Timer { tag } if tag >= CK_MODE => {
                let idx = (tag - CK_MODE) as usize;
                if let Some(&(at, released_at)) = self.mode_marks.get(idx) {
                    self.state
                        .borrow_mut()
                        .push(ClusterEvent::ModeChanged { at, released_at });
                    self.drain_pending(now, ctx);
                }
            }
            ActorEvent::Timer { .. } | ActorEvent::Restart | ActorEvent::Message { .. } => {}
        }
    }
}
