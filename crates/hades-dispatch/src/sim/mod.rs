//! The simulated HADES node(s): dispatcher execution over the DES substrate.
//!
//! [`DispatchSim`] executes a [`hades_task::TaskSet`] on one or more
//! simulated processors, faithfully charging every dispatcher activity from
//! the [`CostModel`], running background kernel interrupts from the
//! [`hades_sim::KernelModel`] at `prio_max`, executing the scheduler policy
//! as a task at the highest application priority fed by the notification
//! FIFO, and performing all the monitoring duties of Section 3.2.1.
//!
//! Remote precedence constraints travel over the simulated
//! [`hades_sim::Network`]; an omission is detected when the message fails to
//! arrive within the network's worst-case delay, as the paper prescribes
//! ("network omission failures based on the observation of remote
//! precedence constraints").

use crate::costs::CostModel;
use crate::monitor::MonitorReport;
use crate::notify::{
    AttrChange, Notification, NotificationKind, NotificationQueue, SchedulerPolicy, ThreadSnapshot,
};
use crate::report::{RunReport, Tallies, TaskOutcome};
use crate::resources::{Admission, ResourceManager, ResourceProtocol};
use crate::runq::RunQueue;
use crate::thread::{InvPhase, Thread, ThreadId, ThreadState};
use crate::window::IdWindow;
use hades_sim::mux::{self, ActorEvent, ActorHost, ActorId, ControlOp, NetActor, Postbox};
use hades_sim::{
    Delivery, Engine, EventId, KernelModel, LinkConfig, Network, NodeId, Scheduler, SimRng,
    Simulation, Trace, TraceKind,
};
use hades_task::arrival::ArrivalMonitor;
use hades_task::{Eu, EuIndex, InvocationMode, Priority, Task, TaskId, TaskSet};
use hades_telemetry::{MonitorEvent, Probe, ProtocolTap};
use hades_time::{Duration, Time};
use std::collections::VecDeque;
use std::rc::Rc;

mod alarms;
mod cpu;
mod faults;
mod threads;

use alarms::Alarms;

/// How actual action execution times relate to declared WCETs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTimeModel {
    /// Every action runs for exactly its WCET (worst case; the default).
    Wcet,
    /// Every action runs for `permille/1000` of its WCET (early
    /// termination).
    FractionPermille(u32),
    /// Each action's time is drawn uniformly in
    /// `[min_permille, max_permille]` of its WCET.
    UniformFraction {
        /// Lower bound, ‰ of WCET.
        min_permille: u32,
        /// Upper bound, ‰ of WCET.
        max_permille: u32,
    },
}

impl ExecTimeModel {
    fn draw(&self, wcet: Duration, rng: &mut SimRng) -> Duration {
        let permille = match *self {
            ExecTimeModel::Wcet => 1000,
            ExecTimeModel::FractionPermille(p) => p.min(1000) as u64,
            ExecTimeModel::UniformFraction {
                min_permille,
                max_permille,
            } => rng.range_inclusive(min_permille.min(1000) as u64, max_permille.min(1000) as u64),
        };
        let t = Duration::from_nanos(wcet.as_nanos() * permille / 1000);
        // An action always takes at least one tick.
        t.max(Duration::from_nanos(1))
    }
}

/// What the dispatcher does when an instance misses its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Let the instance finish late (soft deadline).
    #[default]
    Continue,
    /// Kill the instance's remaining threads (hard deadline; the reaped
    /// threads are counted as orphans).
    AbortInstance,
}

/// Configuration of a simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Dispatcher activity costs (Section 4.1).
    pub costs: CostModel,
    /// Background kernel activities (Section 4.2).
    pub kernel: KernelModel,
    /// Network link behaviour for remote precedence constraints.
    pub link: LinkConfig,
    /// Seed for every random draw of the run.
    pub seed: u64,
    /// End of the run (activations are generated up to this time).
    pub horizon: Duration,
    /// Actual-vs-worst-case execution time model.
    pub exec: ExecTimeModel,
    /// Deadline-miss handling.
    pub miss_policy: MissPolicy,
    /// Resource-access protocol.
    pub protocol: ResourceProtocol,
    /// Whether to record a full trace (disable for large sweeps).
    pub trace: bool,
    /// Auto-generate activations for periodic tasks (and sporadic tasks at
    /// their pseudo-period, the worst-case arrival pattern).
    pub auto_activate: bool,
}

impl SimConfig {
    /// An idealised configuration: zero costs, no kernel activities,
    /// reliable fast network, WCET execution, 100 ms horizon.
    pub fn ideal(horizon: Duration) -> Self {
        SimConfig {
            costs: CostModel::zero(),
            kernel: KernelModel::none(),
            link: LinkConfig::default(),
            seed: 0,
            horizon,
            exec: ExecTimeModel::Wcet,
            miss_policy: MissPolicy::Continue,
            protocol: ResourceProtocol::None,
            trace: true,
            auto_activate: true,
        }
    }

    /// A realistic configuration: measured dispatcher costs and the
    /// ChorusR3-like kernel model.
    pub fn realistic(horizon: Duration) -> Self {
        SimConfig {
            costs: CostModel::measured_default(),
            kernel: KernelModel::chorus_like(),
            ..SimConfig::ideal(horizon)
        }
    }
}

/// `task` is a position in `TaskSet::tasks()`, resolved when the event is
/// posted: an event can only name a task that exists.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Activate { task: usize, gen: u32 },
    WorkDone { node: u32 },
    EarliestReached { thread: ThreadId, node: u32 },
    DeadlineCheck { task: usize, instance: u64 },
    LatestCheck { thread: ThreadId },
    RemoteArrive { thread: ThreadId, pred: EuIndex },
    OmissionCheck { thread: ThreadId, pred: EuIndex },
    KernelIrq { node: u32, activity: usize },
    Actor { actor: ActorId, ev: ActorEvent },
    FaultTransition { node: u32 },
}

/// The profile's event kinds, declared to the probe once
/// ([`Probe::kinds`]) and indexed by [`Ev::kind`]; the five `actor.`
/// kinds follow [`hades_telemetry::DELIVERY_CLASSES`].
const EV_KINDS: [&str; 14] = [
    "activate",
    "work_done",
    "earliest_reached",
    "deadline_check",
    "latest_check",
    "remote_arrive",
    "omission_check",
    "kernel_irq",
    "fault_transition",
    "actor.start",
    "actor.restart",
    "actor.timer",
    "actor.message",
    "actor.notify",
];

impl Ev {
    /// Index of this event's kind in [`EV_KINDS`].
    fn kind(&self) -> usize {
        match self {
            Ev::Activate { .. } => 0,
            Ev::WorkDone { .. } => 1,
            Ev::EarliestReached { .. } => 2,
            Ev::DeadlineCheck { .. } => 3,
            Ev::LatestCheck { .. } => 4,
            Ev::RemoteArrive { .. } => 5,
            Ev::OmissionCheck { .. } => 6,
            Ev::KernelIrq { .. } => 7,
            Ev::FaultTransition { .. } => 8,
            Ev::Actor { ev, .. } => 9 + ev.class().0,
        }
    }
}

/// What currently occupies a node's CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exec {
    App(ThreadId),
    Sched,
    Irq(usize),
}

#[derive(Default)]
struct NodeState {
    /// The scheduler policy installed on this node, if any.
    policy: Option<Box<dyn SchedulerPolicy>>,
    /// The live threads of this node (`ThreadState::is_live`), in
    /// ascending id order: what the scheduler task is handed on every
    /// notification. `spawn_instance` appends (ids are handed out
    /// monotonically, so appending keeps the order); `complete_thread`
    /// and `abort_thread` remove the thread the moment its state stops
    /// being live, and `crash_node` empties the list with the node.
    live: Vec<ThreadId>,
    runq: RunQueue,
    current: Option<Exec>,
    since: Time,
    /// Work `current` has done beyond its whole nanoseconds, in
    /// thousandths of a nanosecond: what [`Inner::sync_clock`] carries
    /// from one charging interval to the next. Zero whenever `current`
    /// changes or the node is idle, crashed or just restarted, so it is
    /// never non-zero on a node that was never slowed.
    carry: u32,
    /// The one live [`Ev::WorkDone`] of this node, with the exec it was
    /// armed for and the instant it fires at; see [`Inner::reschedule`].
    armed: Option<(EventId, Exec, Time)>,
    sched_fifo: NotificationQueue,
    /// Remaining work of the notification currently being processed by the
    /// scheduler task (zero = none in progress).
    sched_remaining: Duration,
    /// Whether a notification is mid-processing (work charged but policy
    /// not yet invoked).
    sched_busy: bool,
    irq_pending: VecDeque<usize>,
    irq_remaining: Duration,
    last_app: Option<ThreadId>,
    /// Whether the node is down per the fault plan (dispatcher kill
    /// switch): a down node executes nothing and accrues no CPU work.
    down: bool,
    /// When the current down window started (mode-change × recovery
    /// bookkeeping: a restart re-enters activation windows that opened
    /// while the node was away).
    down_since: Option<Time>,
}

#[derive(Debug)]
struct InstanceState {
    /// The instance's threads have consecutive ids from this one on, in
    /// `EuIndex` order.
    first_thread: u64,
    /// How many of them are still live.
    live: usize,
    activated: Time,
    deadline: Time,
    completed: Option<Time>,
    missed: bool,
    /// Whether the instance's `DeadlineCheck` has fired; an instance with
    /// no live thread left is dropped once it has — its outcome is final
    /// then ([`settle`]).
    checked: bool,
    /// Inv_EU threads (possibly of other tasks) waiting for this instance
    /// to complete, with their nodes.
    sync_waiters: Vec<(ThreadId, u32)>,
}

/// The run-time state of one task; `Inner::task_state` holds one per task,
/// parallel to `TaskSet::tasks()`.
#[derive(Debug)]
struct TaskState {
    /// What the task's settled instances came to.
    outcome: TaskOutcome,
    /// The instances something can still name, by instance number; the
    /// next activation takes `instances.next_id()`.
    instances: IdWindow<InstanceState>,
    arrivals: ArrivalMonitor,
    /// Auto-activation window `[from, until)`; `None` activates over the
    /// whole run.
    window: Option<(Time, Time)>,
    /// Periodic-chain generation: bumped when a restart re-anchors the
    /// chain, so the superseded chain's pending activations die instead
    /// of duplicating it.
    chain_gen: u32,
}

/// An instance: the position of its task in `TaskSet::tasks()` and its
/// instance number.
type InstanceKey = (usize, u64);

struct Inner {
    tasks: Rc<TaskSet>,
    cfg: SimConfig,
    task_state: Vec<TaskState>,
    /// Live threads only, by `ThreadId`: a thread is dropped when it
    /// finishes or dies, and the next one takes `threads.next_id()`.
    threads: IdWindow<Thread>,
    nodes: Vec<NodeState>,
    resmgr: Vec<ResourceManager>,
    network: Network,
    condvars: hades_task::condvar::CondVarTable,
    actors: ActorHost,
    /// Scratch: one actor delivery's reactions as engine events, on their
    /// way into the queue as one run.
    actor_posts: Vec<(Time, u64, Ev)>,
    postbox: Postbox,
    probe: Probe,
    ctx_switches: u64,
    alarms: Alarms,
    trace: Trace,
    notifications: u64,
    scheduler_cpu: Duration,
    kernel_cpu: Duration,
    node_cpu: Vec<Duration>,
    rng: SimRng,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("threads", &self.threads.len())
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

/// A simulated HADES deployment: task set, dispatcher(s), scheduler
/// task(s), kernel activities and network, executed deterministically.
///
/// # Examples
///
/// ```
/// use hades_dispatch::{DispatchSim, SimConfig};
/// use hades_task::prelude::*;
///
/// let task = Task::new(
///     TaskId(0),
///     Heug::single(CodeEu::new("beat", Duration::from_micros(100), ProcessorId(0)))?,
///     ArrivalLaw::Periodic(Duration::from_millis(1)),
///     Duration::from_millis(1),
/// );
/// let set = TaskSet::new(vec![task])?;
/// let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(10)));
/// let report = sim.run();
/// assert!(report.all_deadlines_met());
/// assert_eq!(report.instances.len(), 11); // t = 0, 1ms, ..., 10ms
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DispatchSim {
    engine: Engine<Ev>,
    inner: Inner,
    ran: bool,
}

impl std::fmt::Debug for DispatchSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchSim")
            .field("inner", &self.inner)
            .field("ran", &self.ran)
            .finish()
    }
}

impl DispatchSim {
    /// Builds a simulation for `tasks` under `cfg`. The number of simulated
    /// nodes is the highest processor id any `Code_EU` names, plus one.
    pub fn new(tasks: TaskSet, cfg: SimConfig) -> Self {
        let max_proc = tasks
            .iter()
            .flat_map(|t| t.heug.eus().iter())
            .map(|e| e.processor().0)
            .max()
            .unwrap_or(0);
        let node_count = max_proc + 1;
        let rng = SimRng::seed_from(cfg.seed);
        let network = Network::homogeneous(node_count.max(2), cfg.link, rng.split(0x4E45));
        Self::with_network(tasks, cfg, network)
    }

    /// Builds a simulation with an explicit network (custom links or fault
    /// plans).
    pub fn with_network(tasks: TaskSet, cfg: SimConfig, network: Network) -> Self {
        let max_proc = tasks
            .iter()
            .flat_map(|t| t.heug.eus().iter())
            .map(|e| e.processor().0)
            .max()
            .unwrap_or(0);
        let node_count = (max_proc + 1) as usize;
        let rng = SimRng::seed_from(cfg.seed);
        let trace = if cfg.trace {
            Trace::new()
        } else {
            Trace::disabled()
        };
        let protocol_per_node: Vec<ResourceManager> = (0..node_count)
            .map(|_| ResourceManager::new(cfg.protocol.clone()))
            .collect();
        let inner = Inner {
            task_state: tasks
                .iter()
                .map(|t| TaskState {
                    outcome: TaskOutcome::new(t.id),
                    instances: IdWindow::default(),
                    arrivals: ArrivalMonitor::default(),
                    window: None,
                    chain_gen: 0,
                })
                .collect(),
            tasks: Rc::new(tasks),
            cfg,
            threads: IdWindow::default(),
            nodes: (0..node_count).map(|_| NodeState::default()).collect(),
            resmgr: protocol_per_node,
            network,
            condvars: hades_task::condvar::CondVarTable::new(),
            actors: ActorHost::new(),
            actor_posts: Vec::new(),
            postbox: Postbox::new(),
            probe: Probe::default(),
            ctx_switches: 0,
            alarms: Alarms::default(),
            trace,
            notifications: 0,
            scheduler_cpu: Duration::ZERO,
            kernel_cpu: Duration::ZERO,
            node_cpu: vec![Duration::ZERO; node_count],
            rng: rng.split(0x4558),
        };
        DispatchSim {
            engine: Engine::new(),
            inner,
            ran: false,
        }
    }

    /// Installs a scheduler policy on `node`. The policy runs as the
    /// scheduler task of that node at the highest application priority,
    /// charged [`CostModel::sched_notif`] per notification. A policy for a
    /// node the task set does not use is never notified, and is dropped.
    pub fn set_policy(&mut self, node: u32, policy: Box<dyn SchedulerPolicy>) {
        if let Some(ns) = self.inner.nodes.get_mut(node as usize) {
            ns.policy = Some(policy);
        }
    }

    /// Registers a middleware protocol actor hosted by this run loop.
    ///
    /// This is the injection hook for externally supplied middleware
    /// activities: the actor shares the simulation's engine and network,
    /// receives [`ActorEvent::Start`] at time zero, and exchanges
    /// messages/timers interleaved — in one deterministic total order —
    /// with dispatcher events. Events addressed to an actor whose node
    /// has crashed (per the network's fault plan) are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already ran.
    pub fn add_actor(&mut self, actor: Box<dyn NetActor>) -> ActorId {
        assert!(!self.ran, "simulation already ran");
        self.inner.actors.add(actor)
    }

    /// The engine-time callback channel of this run: wake requests
    /// dropped into the returned (shared) [`Postbox`] — by event taps or
    /// any other code running inside an event handler — are delivered as
    /// [`ActorEvent::Notify`] to the requested actor at the current
    /// virtual instant, after the handled event. This is how online
    /// controllers (reactive scenario drivers) get called back at the
    /// engine timestamp of the observation that woke them.
    pub fn postbox(&self) -> Postbox {
        self.inner.postbox.clone()
    }

    /// Installs the run's observation tap: it hears every Section 3.2.1
    /// alarm as a [`MonitorEvent`] at the instant it is raised (a miss at
    /// the missed deadline), before [`RunReport::monitor`] records it —
    /// in one stream with the protocol actors that share the tap. It also
    /// hears each instance's outcome once, as
    /// [`MonitorEvent::InstanceSettled`], when the dispatcher drops the
    /// instance (no live thread left and its deadline checked), or at the
    /// end of the run for one still in flight; that outcome is already
    /// folded into [`RunReport::instances`] and is not an alarm.
    pub fn set_tap(&mut self, tap: ProtocolTap) {
        assert!(!self.ran, "simulation already ran");
        self.inner.alarms.tap = Some(tap);
    }

    /// Statistics of the shared network (message fates observed so far).
    pub fn network_stats(&self) -> hades_sim::NetworkStats {
        self.inner.network.stats()
    }

    /// The shared network's fault plan: the seeded windows plus every
    /// fault op applied so far.
    pub fn fault_plan(&self) -> &hades_sim::FaultPlan {
        self.inner.network.fault_plan()
    }

    /// Installs the run's observation probe, the one hook this run loop
    /// is observed through: every delivered event is reported once with
    /// its [`Ev`]-variant kind ([`Probe::event`]), hosted actor
    /// deliveries and accepted sends once each ([`Probe::delivery`],
    /// [`Probe::send`]). What the run counts itself it publishes into the
    /// probe's registry when it ends — `engine.*`, `dispatch.*`, and the
    /// **volatile** `engine.wall_ns` / `profile.wall_ns.<kind>`. The
    /// default probe holds nothing (one `Option` check per report); an
    /// installed one never changes event order or outcomes.
    ///
    /// [`Ev`]: DispatchSim
    ///
    /// # Panics
    ///
    /// Panics if the simulation already ran.
    pub fn set_probe(&mut self, probe: Probe) {
        assert!(!self.ran, "simulation already ran");
        probe.kinds(&EV_KINDS);
        self.inner.actors.set_probe(probe.clone());
        self.inner.probe = probe;
    }

    /// Restricts the auto-activation of `task` to `[from, until)`: the
    /// first activation is posted at `from` and the periodic chain stops
    /// at `until`. Used by mode changes, where the retiring mode's tasks
    /// stop at the switch and the new mode's tasks start after the safe
    /// offset.
    ///
    /// # Panics
    ///
    /// Panics if the task is unknown or the simulation already ran.
    pub fn set_activation_window(&mut self, task: TaskId, from: Time, until: Time) {
        assert!(!self.ran, "simulation already ran");
        let pos = self.known(task);
        self.inner.task_state[pos].window = Some((from, until));
    }

    /// Requests an activation of `task` at absolute time `at` (for
    /// aperiodic/sporadic workloads driven by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the task is unknown or the simulation already ran.
    pub fn activate_at(&mut self, task: TaskId, at: Time) {
        assert!(!self.ran, "simulation already ran");
        let task = self.known(task);
        self.engine.post(at, Ev::Activate { task, gen: 0 });
    }

    /// Position of `task` in the task set; panics with `unknown task` if
    /// it has none. Every event and table entry is made from a position
    /// obtained here or by walking the set, which is why the handlers
    /// index the set without a check.
    fn known(&self, task: TaskId) -> usize {
        let pos = self.inner.tasks.position(task);
        pos.unwrap_or_else(|| panic!("unknown task {task}"))
    }

    /// Runs the simulation to its horizon and returns the report.
    ///
    /// # Panics
    ///
    /// Panics on a second call: a simulation runs once.
    pub fn run(&mut self) -> RunReport {
        self.prime();
        let horizon = Time::ZERO + self.inner.cfg.horizon;
        // Wall-clock around the run loop is telemetry-only and volatile:
        // it never feeds back into the simulation or the deterministic
        // snapshot, so instrumented runs stay bit-identical.
        let telemetry = self.inner.probe.registry();
        let wall_start = telemetry.is_enabled().then(std::time::Instant::now);
        let delivered = self.engine.run(&mut self.inner, horizon);
        if let Some(start) = wall_start {
            telemetry.set_volatile("engine.wall_ns", start.elapsed().as_nanos() as u64);
        }
        let depth_peak = self.engine.depth_peak();
        self.inner.probe.run_ended(delivered, depth_peak);
        let end = self.engine.now();
        self.inner.finish(end)
    }

    /// Posts the initial conditions of the run: first activations, actor
    /// starts, the fault plan's transitions and the kernel activities.
    fn prime(&mut self) {
        assert!(!self.ran, "simulation already ran");
        self.ran = true;
        if self.inner.cfg.auto_activate {
            for (pos, task) in self.inner.tasks.iter().enumerate() {
                if task.arrival.min_separation().is_some() {
                    let window = self.inner.task_state[pos].window;
                    let start = window.map_or(Time::ZERO, |(from, _)| from);
                    self.engine.post(start, Ev::Activate { task: pos, gen: 0 });
                }
            }
        }
        for actor in self.inner.actors.ids() {
            self.engine.post(
                Time::ZERO,
                Ev::Actor {
                    actor,
                    ev: ActorEvent::Start,
                },
            );
        }
        // Dispatcher-side crash semantics: mirror the fault plan's crash
        // windows as node up/down transitions, and wake hosted actors of
        // restarted nodes.
        for node in 0..self.inner.nodes.len() as u32 {
            let plan = self.inner.network.fault_plan();
            if plan.is_crashed(NodeId(node), Time::ZERO) {
                self.inner.nodes[node as usize].down = true;
                self.inner.nodes[node as usize].down_since = Some(Time::ZERO);
            }
            if let Some(at) = plan.next_transition(NodeId(node), Time::ZERO) {
                self.engine.post(at, Ev::FaultTransition { node });
            }
        }
        for (at, actor) in self
            .inner
            .actors
            .restart_schedule(self.inner.network.fault_plan())
        {
            self.engine.post(
                at,
                Ev::Actor {
                    actor,
                    ev: ActorEvent::Restart,
                },
            );
        }
        for (idx, _a) in self.inner.cfg.kernel.activities().iter().enumerate() {
            for node in 0..self.inner.nodes.len() as u32 {
                self.engine.post(
                    Time::ZERO,
                    Ev::KernelIrq {
                        node,
                        activity: idx,
                    },
                );
            }
        }
    }
}

impl Simulation for Inner {
    type Event = Ev;

    fn handle(&mut self, now: Time, event: Ev, sched: &mut Scheduler<Ev>) {
        // The one report of this event; the guard times the handler into
        // the kind's volatile wall-clock total.
        let _handling = self
            .probe
            .event(now.as_nanos(), sched.depth(), Some(event.kind()));
        match event {
            Ev::Activate { task, gen } => self.activate(task, gen, now, sched),
            Ev::WorkDone { node } => {
                // Superseded completions were cancelled; this one is spent, so
                // even a zero-length successor ending right now arms anew.
                let ns = &mut self.nodes[node as usize];
                let (armed, current) = (ns.armed.take(), ns.current);
                debug_assert_eq!(
                    armed.map(|(_, exec, at)| (Some(exec), at)),
                    Some((current, now)),
                    "stale completion delivered on node {node}"
                );
                self.sync_clock(node, now);
                let done = self.current_remaining(node).is_zero();
                if done {
                    self.nodes[node as usize].current = None;
                }
                match current {
                    Some(Exec::App(tid)) if done => self.complete_thread(tid, now, sched),
                    Some(Exec::Sched) if done => {
                        self.scheduler_step(node, now, sched);
                        self.reschedule(node, now, sched);
                    }
                    _ => self.reschedule(node, now, sched),
                }
            }
            Ev::EarliestReached { thread, node } => {
                self.try_unblock(thread, now);
                self.reschedule(node, now, sched);
            }
            Ev::DeadlineCheck { task, instance } => self.deadline_check(task, instance, now, sched),
            Ev::LatestCheck { thread } => self.latest_check(thread, now),
            Ev::RemoteArrive { thread, pred } => self.remote_arrive(thread, pred, now, sched),
            Ev::OmissionCheck { thread, pred } => self.omission_check(thread, pred, now, sched),
            Ev::KernelIrq { node, activity } => self.kernel_irq(node, activity, now, sched),
            Ev::FaultTransition { node } => self.fault_transition(node, now, sched),
            Ev::Actor { actor, ev } => {
                let reactions = self.actors.deliver_ordered(
                    sched.next_seq(),
                    actor,
                    ev,
                    now,
                    &mut self.network,
                );
                let posts = reactions.posts.drain(..);
                self.actor_posts
                    .extend(posts.map(|(at, seq, (actor, ev))| (at, seq, Ev::Actor { actor, ev })));
                sched.post_run(&mut self.actor_posts, reactions.seqs);
                for op in &reactions.controls {
                    self.apply_control(op, now, sched);
                }
            }
        }
        // Engine-time callbacks: wake every actor whose tap fired during
        // this event, at this instant.
        for (to, tag) in self.postbox.drain() {
            sched.post(
                now,
                Ev::Actor {
                    actor: to,
                    ev: ActorEvent::Notify { tag },
                },
            );
        }
    }
}

#[cfg(test)]
#[path = "../tests/sim.rs"]
mod tests;
