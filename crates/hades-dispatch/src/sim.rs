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

/// Every Section 3.2.1 alarm goes to the tap, then into the report, so
/// the two cannot disagree; an instance outcome goes to the tap only. A
/// field, so raising borrows only this.
#[derive(Default)]
struct Alarms {
    tap: Option<ProtocolTap>,
    report: MonitorReport,
}

impl Alarms {
    fn raise(&mut self, now: Time, ev: MonitorEvent) {
        if let Some(tap) = &self.tap {
            (tap.0)(now, &ev);
        }
        self.report.push(ev);
    }
}

/// Instance `instance` of `task` was just dropped from the dispatcher's
/// tables, so nothing can change its outcome any more: fold it into the
/// task's tally and hand it to the tap as
/// [`MonitorEvent::InstanceSettled`].
fn settle(
    outcome: &mut TaskOutcome,
    alarms: &Alarms,
    task: &Task,
    instance: u64,
    inst: &InstanceState,
    now: Time,
) {
    outcome.settle(inst.activated, inst.completed, inst.missed);
    if let Some(tap) = &alarms.tap {
        let ev = MonitorEvent::InstanceSettled {
            node: home_node(task),
            task: task.id.0,
            instance,
            activated: inst.activated,
            deadline: inst.deadline,
            completed: inst.completed,
            missed: inst.missed,
        };
        (tap.0)(now, &ev);
    }
}

/// The processor of a task's first unit: where its activations happen.
fn home_node(task: &Task) -> u32 {
    task.heug.eus().first().map_or(0, |eu| eu.processor().0)
}

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

impl Inner {
    // ------------------------------------------------------------------
    // CPU accounting
    // ------------------------------------------------------------------

    /// Charges elapsed CPU time on `node` to whatever is current, records
    /// the trace segment and advances `since`.
    ///
    /// Under an injected CPU slowdown the wall-clock interval is converted
    /// to work *progress* at the speed in force when the interval started
    /// — safe because a fault transition resynchronises `since` at every
    /// speed-window edge, so no charging interval straddles a boundary.
    ///
    /// Charging is exact at speed 1000: however an interval is split
    /// into calls, the progress adds up to the elapsed time, so a call
    /// that changes nothing else is a no-op. At any other speed it is
    /// floor-per-interval — each call rounds `elapsed × speed / 1000`
    /// down on its own — so *how often* a slowed node is synced shifts
    /// its completion instants by nanoseconds. Recorded runs contain
    /// that artefact; [`Inner::reschedule_touched`] preserves it.
    fn sync_clock(&mut self, node: u32, now: Time) {
        let speed = self
            .network
            .fault_plan()
            .speed_permille(NodeId(node), self.nodes[node as usize].since);
        let ns = &mut self.nodes[node as usize];
        let Some(exec) = ns.current else {
            ns.since = now;
            return;
        };
        let elapsed = now - ns.since;
        if elapsed.is_zero() {
            return;
        }
        let progress = if speed == 1000 {
            elapsed
        } else {
            Duration::from_nanos((elapsed.as_nanos() as u128 * speed as u128 / 1000) as u64)
        };
        let lane = match exec {
            Exec::App(tid) => {
                let th = self.threads.get_mut(tid.0).expect("running thread exists");
                th.remaining = th.remaining.saturating_sub(progress);
                th.name.as_str()
            }
            Exec::Sched => {
                ns.sched_remaining = ns.sched_remaining.saturating_sub(progress);
                self.scheduler_cpu += elapsed;
                "scheduler"
            }
            Exec::Irq(_) => {
                ns.irq_remaining = ns.irq_remaining.saturating_sub(progress);
                self.kernel_cpu += elapsed;
                "kernel"
            }
        };
        let since = ns.since;
        ns.since = now;
        self.node_cpu[node as usize] += elapsed;
        self.trace.segment(NodeId(node), lane, since, now);
    }

    /// Wall-clock time `rem` of work takes on `node` at the CPU speed in
    /// force at `now`. Ceiling division guarantees the completion instant
    /// never undershoots the work, so a slowed exec still finishes at its
    /// armed [`Ev::WorkDone`].
    fn wall_for(&self, node: u32, now: Time, rem: Duration) -> Duration {
        let speed = self.network.fault_plan().speed_permille(NodeId(node), now);
        if speed == 1000 {
            rem
        } else {
            let scaled = (rem.as_nanos() as u128 * 1000).div_ceil(speed as u128);
            Duration::from_nanos(scaled as u64)
        }
    }

    // ------------------------------------------------------------------
    // Crash / restart (dispatcher kill switch)
    // ------------------------------------------------------------------

    /// Applies the fault-plan transition of `node` due at `now`, and arms
    /// the next one.
    fn fault_transition(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let crashed = self.network.fault_plan().is_crashed(NodeId(node), now);
        if crashed && !self.nodes[node as usize].down {
            self.crash_node(node, now, sched);
        } else if !crashed && self.nodes[node as usize].down {
            self.restart_node(node, now, sched);
        } else if !self.nodes[node as usize].down
            && self.network.fault_plan().has_slow_windows(NodeId(node))
        {
            // A CPU speed-window edge: charge the interval behind us at
            // the old rate and re-arm the completion at the new one, so
            // no charging interval ever straddles a speed boundary.
            self.reschedule(node, now, sched);
        }
        if let Some(at) = self.network.fault_plan().next_transition(NodeId(node), now) {
            sched.post(at, Ev::FaultTransition { node });
        }
    }

    /// Applies one runtime [`ControlOp`] staged by a hosted actor (a
    /// control-plane driver): fault ops mutate the shared network's
    /// fault plan and arm the corresponding dispatcher transitions plus
    /// the hosted actors' [`ActorEvent::Restart`]s; task ops open/close
    /// activation windows of the *running* schedule. Ops naming unknown
    /// tasks or out-of-range nodes are ignored.
    fn apply_control(&mut self, op: &ControlOp, now: Time, sched: &mut Scheduler<Ev>) {
        match *op {
            ControlOp::AdmitTask { task, at } => {
                let Some(task) = self.tasks.position(TaskId(task)) else {
                    return;
                };
                let st = &mut self.task_state[task];
                let at = at.max(now);
                let until = st.window.map_or(Time::MAX, |(_, u)| u);
                let until = if until <= at { Time::MAX } else { until };
                st.window = Some((at, until));
                // Re-anchor the chain at the admission instant; any stale
                // pending activation of a previous window dies against
                // the bumped generation.
                st.chain_gen += 1;
                let gen = st.chain_gen;
                sched.post(at, Ev::Activate { task, gen });
            }
            ControlOp::RetireTask { task, at } => {
                let Some(task) = self.tasks.position(TaskId(task)) else {
                    return;
                };
                let st = &mut self.task_state[task];
                let from = st.window.map_or(Time::ZERO, |(f, _)| f);
                st.window = Some((from, at.max(now)));
            }
            ControlOp::SlowNode {
                node,
                from_t,
                until_t,
                ..
            } => {
                mux::apply_network_op(self.network.fault_plan_mut(), op, now);
                if (node.0 as usize) < self.nodes.len() {
                    // Resynchronise CPU charging at both window edges
                    // (same clamping as the plan mutation).
                    let start = from_t.max(now);
                    let end = until_t.max(start + Duration::from_nanos(1));
                    sched.post(start, Ev::FaultTransition { node: node.0 });
                    sched.post(end, Ev::FaultTransition { node: node.0 });
                }
            }
            _ => {
                let applied = mux::apply_network_op(self.network.fault_plan_mut(), op, now);
                if let Some((node, down_at, restart_at)) = applied {
                    if (node.0 as usize) < self.nodes.len() {
                        sched.post(down_at, Ev::FaultTransition { node: node.0 });
                        if let Some(r) = restart_at {
                            sched.post(r, Ev::FaultTransition { node: node.0 });
                        }
                    }
                    if let Some(r) = restart_at {
                        for actor in self.actors.actors_on(node) {
                            sched.post(
                                r,
                                Ev::Actor {
                                    actor,
                                    ev: ActorEvent::Restart,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Kills `node`: work executed up to the crash stays charged, every
    /// live thread dies, the ready queue and all dispatcher queues drop,
    /// and nothing runs (or is charged) until the node restarts.
    fn crash_node(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        self.sync_clock(node, now);
        self.trace
            .record(now, NodeId(node), TraceKind::Alarm, "node_crash");
        for tid in std::mem::take(&mut self.nodes[node as usize].live) {
            // Fail-silent death, not an application fault: the thread just
            // stops existing, without orphan alarms.
            let th = self.threads.remove(tid.0).expect("victim thread");
            self.resmgr[node as usize].release_all(tid);
            let key = (th.task_pos, th.instance);
            if let Some(inst) = self.task_state[key.0].instances.get_mut(key.1) {
                inst.live -= 1;
            }
            self.reap_instance(key, now);
        }
        let ns = &mut self.nodes[node as usize];
        ns.down = true;
        ns.down_since = Some(now);
        ns.current = None;
        ns.last_app = None;
        ns.runq = RunQueue::new();
        ns.sched_fifo = NotificationQueue::new();
        ns.sched_busy = false;
        ns.sched_remaining = Duration::ZERO;
        ns.irq_pending.clear();
        ns.irq_remaining = Duration::ZERO;
        ns.since = now;
        if let Some((id, ..)) = ns.armed.take() {
            sched.cancel(id); // nothing completes on a dead node
        }
    }

    /// Brings `node` back up cold: empty queues, no threads, no carry-over
    /// state. Subsequent activations repopulate it.
    ///
    /// Mode-change × recovery: a task homed on this node whose activation
    /// window *opened while the node was down* (the new mode of a mode
    /// change that happened mid-outage) has its periodic chain
    /// re-anchored at the restart instant — the node rejoins directly
    /// into the new mode instead of waiting out the stale phase of the
    /// pre-crash chain. Windows already open before the crash keep their
    /// original phase, as before.
    fn restart_node(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let down_since = self.nodes[node as usize].down_since;
        let ns = &mut self.nodes[node as usize];
        ns.down = false;
        ns.down_since = None;
        ns.since = now;
        self.trace
            .record(now, NodeId(node), TraceKind::Alarm, "node_restart");
        if !self.cfg.auto_activate {
            return;
        }
        for (task, (t, st)) in self.tasks.iter().zip(&mut self.task_state).enumerate() {
            let home = t.heug.eus().first().map(|eu| eu.processor().0);
            if home != Some(node) || t.arrival.min_separation().is_none() {
                continue;
            }
            let Some((from, until)) = st.window else {
                continue;
            };
            // `>=`: a window opening at the crash instant itself was
            // missed too (the node died before spawning anything).
            if down_since.is_some_and(|d| from >= d) && from <= now && now < until {
                st.chain_gen += 1;
                let gen = st.chain_gen;
                sched.post(now, Ev::Activate { task, gen });
            }
        }
    }

    /// Remaining work of the current exec on `node`.
    fn current_remaining(&self, node: u32) -> Duration {
        let ns = &self.nodes[node as usize];
        match ns.current {
            Some(Exec::App(tid)) => self.threads[tid.0].remaining,
            Some(Exec::Sched) => ns.sched_remaining,
            Some(Exec::Irq(_)) => ns.irq_remaining,
            None => Duration::ZERO,
        }
    }

    /// Picks what should occupy the CPU of `node` next.
    fn desired_exec(&self, node: u32) -> Option<Exec> {
        let ns = &self.nodes[node as usize];
        // Kernel interrupts run at prio_max with pt = prio_max: they
        // preempt everything and nothing preempts them.
        if let Some(Exec::Irq(a)) = ns.current {
            if !ns.irq_remaining.is_zero() {
                return Some(Exec::Irq(a));
            }
        }
        if let Some(&a) = ns.irq_pending.front() {
            return Some(Exec::Irq(a));
        }
        // Scheduler task at the highest application priority.
        let sched_wants = ns.sched_busy || !ns.sched_fifo.is_empty();
        match ns.current {
            Some(Exec::App(tid)) => {
                let th = &self.threads[tid.0];
                if sched_wants && th.preemptable_by(Priority::APP_MAX) {
                    return Some(Exec::Sched);
                }
                // Running rule with preemption thresholds.
                if let Some(p) = ns.runq.preempter(th.pt) {
                    Some(Exec::App(p))
                } else {
                    Some(Exec::App(tid))
                }
            }
            Some(Exec::Sched) | Some(Exec::Irq(_)) | None => {
                if sched_wants {
                    return Some(Exec::Sched);
                }
                ns.runq.peek_best().map(Exec::App)
            }
        }
    }

    /// Re-evaluates the CPU allocation of `node` after any state change.
    ///
    /// Invariant: an up node with a `current` has exactly one live
    /// [`Ev::WorkDone`] queued, due when `current` runs out of work; an idle
    /// or down node has none. It is re-armed (cancelled, and a new one
    /// posted) only when `current` or that instant changed.
    ///
    /// The rule every handler follows, and the reason no handler has to
    /// look at a node it did not touch: *every mutation of a node's
    /// dispatcher state is followed by a reschedule of that node in the
    /// same handler*, so between events `current` is what
    /// [`Inner::desired_exec`] picks and the armed completion is right.
    /// The mutation sites, each with the reschedule that covers it:
    ///
    /// - run queue and thread states: `try_unblock` (from
    ///   `spawn_instance`, the `EarliestReached` and `RemoteArrive`
    ///   handlers, `finish_inv_pre`, `instance_thread_done` for
    ///   synchronous waiters — each reschedules the thread's node — and
    ///   `recheck_blocked`, whose callers `complete_thread` and
    ///   `abort_thread` are covered below); `boost_priority` (a resource
    ///   holder is on the admitting thread's node); `apply_attr_change`
    ///   (`scheduler_step` hands a policy its own node's threads, and the
    ///   `WorkDone` handler reschedules that node);
    /// - `current` and the thread table: `complete_thread` (the finishing
    ///   thread's node; every node when a condition variable changed,
    ///   because those are system-wide), `abort_thread` (its callers
    ///   `deadline_check` and `omission_check` pass the victims' nodes to
    ///   [`Inner::reschedule_touched`]);
    /// - scheduler FIFO: `notify` (always on the node its caller
    ///   reschedules);
    /// - interrupt queue: `kernel_irq`;
    /// - CPU speed: `fault_transition` at every slow-window edge;
    /// - `crash_node` leaves nothing to schedule, and `restart_node`
    ///   brings the node up empty.
    fn reschedule(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        if self.nodes[node as usize].down {
            return; // a dead node schedules nothing
        }
        self.sync_clock(node, now);
        let desired = self.desired_exec(node);
        let ns = &mut self.nodes[node as usize];
        if ns.current != desired {
            // Put the displaced exec back where it belongs.
            match ns.current {
                Some(Exec::App(tid)) => {
                    let th = self.threads.get_mut(tid.0).expect("displaced thread");
                    if th.state == ThreadState::Running {
                        th.state = ThreadState::Runnable;
                        ns.runq.insert(tid, th.prio, th.runnable_since);
                        self.trace
                            .record(now, NodeId(node), TraceKind::Preempt, th.name.as_str());
                    }
                }
                Some(Exec::Sched) | Some(Exec::Irq(_)) | None => {}
            }
            let ns = &mut self.nodes[node as usize];
            match desired {
                Some(Exec::App(tid)) => {
                    ns.runq.remove(tid);
                    let th = self.threads.get_mut(tid.0).expect("dispatched thread");
                    th.state = ThreadState::Running;
                    if !th.started {
                        th.started = true;
                        th.first_run = Some(now);
                    }
                    // Context-switch cost at each dispatch of a different
                    // thread.
                    if ns.last_app != Some(tid) {
                        th.remaining += self.cfg.costs.ctx_switch;
                        ns.last_app = Some(tid);
                        self.ctx_switches += 1;
                    }
                    self.trace
                        .record(now, NodeId(node), TraceKind::Run, th.name.as_str());
                }
                Some(Exec::Sched) => {
                    if !ns.sched_busy {
                        ns.sched_busy = true;
                        // Zero cost: done via the WorkDone armed below at `now`.
                        ns.sched_remaining = self.cfg.costs.sched_notif;
                    }
                    self.trace
                        .record(now, NodeId(node), TraceKind::Run, "scheduler");
                }
                Some(Exec::Irq(a)) => {
                    if ns.irq_remaining.is_zero() {
                        let popped = ns.irq_pending.pop_front();
                        debug_assert_eq!(popped, Some(a));
                        ns.irq_remaining = self.cfg.kernel.activities()[a].wcet;
                    }
                    self.trace
                        .record(now, NodeId(node), TraceKind::Run, "kernel");
                }
                None => {}
            }
            let ns = &mut self.nodes[node as usize];
            ns.current = desired;
            ns.since = now;
        }
        // (Re)arm the completion, unless the one armed still stands.
        let want = self.nodes[node as usize].current.map(|exec| {
            let rem = self.current_remaining(node);
            (exec, now + self.wall_for(node, now, rem))
        });
        let ns = &mut self.nodes[node as usize];
        if ns.armed.map(|(_, exec, at)| (exec, at)) != want {
            if let Some((stale, ..)) = ns.armed.take() {
                sched.cancel(stale);
            }
            ns.armed = want.map(|(exec, at)| (sched.post(at, Ev::WorkDone { node }), exec, at));
        }
    }

    /// Reschedules the nodes a handler touched (`touched` ascending, as
    /// the whole-cluster walk this replaces went), which by the rule on
    /// [`Inner::reschedule`] are all that can have changed.
    ///
    /// One coupling keeps it from being just those: under an injected CPU
    /// slowdown [`Inner::sync_clock`] floors per charging interval, so
    /// the foreign completions that used to re-sync a slowed node are
    /// part of where its completions fall. While the fault plan holds any
    /// slow window the walk therefore also covers every node that has
    /// one, touched or not. (Carrying the `elapsed × speed mod 1000`
    /// remainder per node would make charging split-invariant and this
    /// guard unnecessary, at the price of re-recording every run that
    /// contains a slowdown.)
    fn reschedule_touched(&mut self, touched: &[u32], now: Time, sched: &mut Scheduler<Ev>) {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        if !self.network.fault_plan().any_slow_windows() {
            for &node in touched {
                self.reschedule(node, now, sched);
            }
            return;
        }
        for node in 0..self.nodes.len() as u32 {
            if touched.contains(&node) || self.network.fault_plan().has_slow_windows(NodeId(node)) {
                self.reschedule(node, now, sched);
            }
        }
    }

    // ------------------------------------------------------------------
    // Activation & thread creation
    // ------------------------------------------------------------------

    fn activate(&mut self, pos: usize, gen: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let st = &self.task_state[pos];
        if gen != st.chain_gen {
            return; // a restart re-anchored this task's chain
        }
        let window_until = st.window.map(|(_, until)| until);
        let tasks = Rc::clone(&self.tasks);
        let task = &tasks.tasks()[pos];
        let task_id = task.id;
        if window_until.is_some_and(|until| now >= until) {
            return; // the task's mode was retired: stop the chain
        }
        // Auto re-activation for periodic/sporadic tasks (the chain stays
        // alive across node downtime so a restarted node resumes its load).
        if self.cfg.auto_activate {
            if let Some(p) = task.arrival.min_separation() {
                let next = now + p;
                if next <= Time::ZERO + self.cfg.horizon
                    && window_until.is_none_or(|until| next < until)
                {
                    sched.post(next, Ev::Activate { task: pos, gen });
                }
            }
        }
        // Kill switch: a down node neither monitors arrivals nor spawns
        // work — the activation is simply lost with the node.
        if self.nodes[home_node(task) as usize].down {
            return;
        }
        // Arrival-law monitoring.
        if self.task_state[pos].arrivals.observe(task.arrival, now) {
            self.alarms.raise(
                now,
                MonitorEvent::ArrivalLawViolation {
                    task: task_id.0,
                    at: now,
                },
            );
            self.trace
                .record_with(now, NodeId(0), TraceKind::Alarm, || {
                    format!("arrival_violation {task_id}")
                });
        }
        self.spawn_instance(task, pos, now, sched);
    }

    /// Creates the threads of one instance of `task` (at `pos` in the
    /// task set) activated at `now`.
    fn spawn_instance(
        &mut self,
        task: &Task,
        pos: usize,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) -> u64 {
        let instance = self.task_state[pos].instances.next_id();
        // Only trace records read a thread's name.
        let trace = self.cfg.trace;
        let name = move |eu: &str| {
            if trace {
                format!("{}.{}#{}", task.name(), eu, instance)
            } else {
                String::new()
            }
        };
        let deadline = now + task.deadline;
        self.task_state[pos].outcome.activated += 1;
        let first_thread = self.threads.next_id();
        let mut touched: Vec<u32> = Vec::new();
        for (i, eu) in task.heug.eus().iter().enumerate() {
            let eu_idx = EuIndex(i as u32);
            let tid = ThreadId(self.threads.next_id());
            let node = eu.processor().0;
            self.nodes[node as usize].live.push(tid);
            if !touched.contains(&node) {
                touched.push(node);
            }
            let preds = task.heug.predecessors(eu_idx).len();
            let th = match eu {
                Eu::Code(code) => {
                    let actual = self.cfg.exec.draw(code.wcet, &mut self.rng);
                    let succs = task.heug.successors(eu_idx);
                    let (local_edges, remote_edges): (Vec<EuIndex>, Vec<EuIndex>) = succs
                        .iter()
                        .copied()
                        .partition(|s| task.heug.eu(*s).processor() == code.processor);
                    let remaining = self.cfg.costs.act_start
                        + actual
                        + self.cfg.costs.act_end
                        + self
                            .cfg
                            .costs
                            .loc_prec
                            .saturating_mul(local_edges.len() as u64)
                        + self
                            .cfg
                            .costs
                            .rem_prec
                            .saturating_mul(remote_edges.len() as u64);
                    let prio = code.timing.prio.min(Priority::APP_MAX.lower(1));
                    let pt = code.timing.pt.min(Priority::APP_MAX).max(prio);
                    Thread {
                        id: tid,
                        name: name(&code.name),
                        task: task.id,
                        instance,
                        eu: eu_idx,
                        node,
                        prio,
                        pt,
                        earliest: code.timing.earliest.map_or(now, |e| now + e),
                        latest: code.timing.latest.map(|l| now + l),
                        abs_deadline: code.timing.deadline.map_or(deadline, |d| now + d),
                        activation: now,
                        remaining,
                        action_wcet: code.wcet,
                        action_actual: actual,
                        preds_pending: preds,
                        waits: code.waits.clone(),
                        resources: code.resources.clone(),
                        state: ThreadState::Blocked,
                        started: false,
                        first_run: None,
                        runnable_since: now,
                        task_pos: pos,
                        inv_phase: None,
                        remote_arrived: Vec::new(),
                    }
                }
                Eu::Inv(inv) => Thread {
                    id: tid,
                    name: name(&inv.name),
                    task: task.id,
                    instance,
                    eu: eu_idx,
                    node,
                    prio: Priority::APP_MAX.lower(1),
                    pt: Priority::APP_MAX.lower(1),
                    earliest: now,
                    latest: None,
                    abs_deadline: deadline,
                    activation: now,
                    remaining: self.cfg.costs.inv_start.max(Duration::from_nanos(1)),
                    action_wcet: self.cfg.costs.inv_start.max(Duration::from_nanos(1)),
                    action_actual: self.cfg.costs.inv_start.max(Duration::from_nanos(1)),
                    preds_pending: preds,
                    waits: Vec::new(),
                    resources: Vec::new(),
                    state: ThreadState::Blocked,
                    started: false,
                    first_run: None,
                    runnable_since: now,
                    task_pos: pos,
                    inv_phase: Some(InvPhase::Pre),
                    remote_arrived: Vec::new(),
                },
            };
            if let Some(latest) = th.latest {
                sched.post(latest, Ev::LatestCheck { thread: tid });
            }
            if th.earliest > now {
                sched.post(th.earliest, Ev::EarliestReached { thread: tid, node });
            }
            self.threads.push(th);
            self.notify(node, NotificationKind::Atv, tid, now);
        }
        self.task_state[pos].instances.push(InstanceState {
            first_thread,
            live: task.heug.eus().len(),
            activated: now,
            deadline,
            completed: None,
            missed: false,
            checked: false,
            sync_waiters: Vec::new(),
        });
        let check = Ev::DeadlineCheck {
            task: pos,
            instance,
        };
        sched.post(deadline, check);
        // Try to unblock every new thread, then reschedule touched nodes.
        for tid in (first_thread..self.threads.next_id()).map(ThreadId) {
            self.try_unblock(tid, now);
        }
        // Not `reschedule_touched`: an activation never re-synced a
        // foreign node, slowed or not.
        touched.sort_unstable();
        for &node in &touched {
            self.reschedule(node, now, sched);
        }
        instance
    }

    // ------------------------------------------------------------------
    // Runnable conditions
    // ------------------------------------------------------------------

    /// Checks the four runnable conditions for `tid`; on success grants
    /// resources and inserts the thread into the run queue. Does *not*
    /// reschedule — callers batch that.
    fn try_unblock(&mut self, tid: ThreadId, now: Time) -> bool {
        let Some(th) = self.threads.get(tid.0) else {
            return false;
        };
        if th.state != ThreadState::Blocked || self.nodes[th.node as usize].down {
            return false;
        }
        if th.inv_phase == Some(InvPhase::WaitingTarget) {
            return false;
        }
        if !th.precedence_satisfied() {
            return false;
        }
        if now < th.earliest {
            return false;
        }
        if !self.condvars.all_set(&th.waits) {
            return false;
        }
        // Resource admission (the second runnable condition). Only at
        // first start: a thread re-entering the queue after preemption
        // already holds its resources.
        let (node, prio, task, resources_empty) =
            (th.node, th.prio, th.task, th.resources.is_empty());
        if !th.started {
            let adm = self.resmgr[node as usize].try_admit(tid, task, prio, &th.resources);
            match adm {
                Admission::Granted => {
                    if !resources_empty {
                        self.notify(node, NotificationKind::Rac, tid, now);
                    }
                }
                Admission::Blocked { boost } => {
                    for (holder, new_prio) in boost {
                        self.boost_priority(holder, new_prio, now);
                    }
                    return false;
                }
            }
        }
        let th = self.threads.get_mut(tid.0).expect("thread checked above");
        th.state = ThreadState::Runnable;
        th.runnable_since = now;
        self.nodes[node as usize].runq.insert(tid, th.prio, now);
        self.trace
            .record(now, NodeId(node), TraceKind::Runnable, th.name.as_str());
        true
    }

    /// PCP priority inheritance: raise `holder` to `prio` if higher.
    fn boost_priority(&mut self, holder: ThreadId, prio: Priority, now: Time) {
        let Some(th) = self.threads.get_mut(holder.0) else {
            return;
        };
        if !th.state.is_live() || th.prio >= prio {
            return;
        }
        th.prio = prio;
        th.pt = th.pt.max(prio);
        self.nodes[th.node as usize].runq.reprioritize(holder, prio);
        self.trace
            .record_with(now, NodeId(th.node), TraceKind::AttrChange, || {
                format!("{} inherits {prio}", th.name)
            });
    }

    /// Re-examines every blocked thread on `node` (after a resource
    /// release, condvar change, ...), in priority order for determinism.
    fn recheck_blocked(&mut self, node: u32, now: Time) {
        let mut blocked: Vec<(Priority, ThreadId)> = self.nodes[node as usize]
            .live
            .iter()
            .map(|tid| &self.threads[tid.0])
            .filter(|t| t.state == ThreadState::Blocked)
            .map(|t| (t.prio, t.id))
            .collect();
        blocked.sort_by(|a, b| b.cmp(a));
        for (_, tid) in blocked {
            self.try_unblock(tid, now);
        }
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    fn complete_thread(&mut self, tid: ThreadId, now: Time, sched: &mut Scheduler<Ev>) {
        // Inv_EU phase transitions intercept ordinary completion.
        let th = self.threads.get_mut(tid.0).expect("completing thread");
        match th.inv_phase {
            Some(InvPhase::Pre) => {
                self.finish_inv_pre(tid, now, sched);
                return;
            }
            Some(InvPhase::WaitingTarget) => unreachable!("waiting inv thread cannot run"),
            Some(InvPhase::Post) | None => {}
        }
        th.state = ThreadState::Finished;
        let (node, task_pos, instance, eu) = (th.node, th.task_pos, th.instance, th.eu);
        let had_resources = !th.resources.is_empty();
        if th.terminated_early() {
            self.alarms.raise(
                now,
                MonitorEvent::EarlyTermination {
                    thread: tid.0,
                    wcet: th.action_wcet,
                    actual: th.action_actual,
                },
            );
        }
        self.trace
            .record(now, NodeId(node), TraceKind::Finish, th.name.as_str());
        self.unlist(node, tid);
        // Release resources.
        if self.resmgr[node as usize].release_all(tid) {
            self.recheck_blocked(node, now);
        }
        if had_resources {
            self.notify(node, NotificationKind::Rre, tid, now);
        }
        // Condition variables.
        let tasks = Rc::clone(&self.tasks);
        let task = &tasks.tasks()[task_pos];
        let mut condvar_changed = false;
        if let Eu::Code(c) = task.heug.eu(eu) {
            for &cv in &c.sets {
                condvar_changed |= self.condvars.set(cv);
            }
            for &cv in &c.clears {
                self.condvars.clear(cv);
            }
        }
        if condvar_changed {
            // Condition variables are system-wide: recheck everywhere.
            for n in 0..self.nodes.len() as u32 {
                self.recheck_blocked(n, now);
            }
        }
        // Precedence propagation.
        self.propagate_precedence(task, tid, now, sched);
        self.notify(node, NotificationKind::Trm, tid, now);
        self.threads.remove(tid.0);
        self.instance_thread_done((task_pos, instance), now, sched);
        if condvar_changed {
            // The recheck above may have made threads runnable anywhere.
            for n in 0..self.nodes.len() as u32 {
                self.reschedule(n, now, sched);
            }
        } else {
            self.reschedule_touched(&[node], now, sched);
        }
    }

    fn finish_inv_pre(&mut self, tid: ThreadId, now: Time, sched: &mut Scheduler<Ev>) {
        let (task_pos, eu_idx, node) = {
            let th = &self.threads[tid.0];
            (th.task_pos, th.eu, th.node)
        };
        let tasks = Rc::clone(&self.tasks);
        let inv = tasks.tasks()[task_pos]
            .heug
            .eu(eu_idx)
            .as_inv()
            .expect("inv thread wraps Inv_EU");
        // `TaskSet::new` rejects a set with a dangling invocation target.
        let target = tasks
            .position(inv.target)
            .expect("validated invocation target");
        let inst = self.spawn_instance(&tasks.tasks()[target], target, now, sched);
        let th = self.threads.get_mut(tid.0).expect("inv thread");
        th.state = ThreadState::Blocked;
        th.remaining = self.cfg.costs.inv_end.max(Duration::from_nanos(1));
        match inv.mode {
            InvocationMode::Synchronous => {
                th.inv_phase = Some(InvPhase::WaitingTarget);
                self.task_state[target]
                    .instances
                    .get_mut(inst)
                    .expect("just spawned")
                    .sync_waiters
                    .push((tid, node));
            }
            InvocationMode::Asynchronous => {
                th.inv_phase = Some(InvPhase::Post);
                self.try_unblock(tid, now);
            }
        }
        self.reschedule(node, now, sched);
    }

    /// Tells the successors of the just-finished `done` thread (an
    /// instance of `task`) that one predecessor is satisfied.
    fn propagate_precedence(
        &mut self,
        task: &Task,
        done: ThreadId,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let th = &self.threads[done.0];
        let (done_eu, done_node) = (th.eu, th.node);
        let first_thread = self.task_state[th.task_pos].instances[th.instance].first_thread;
        for s in task.heug.successors(done_eu) {
            // The successor thread of the same instance. It may be dead
            // already; a remote handoff is transmitted all the same.
            let succ_tid = ThreadId(first_thread + s.0 as u64);
            let succ_node = task.heug.eu(s).processor().0;
            if succ_node == done_node {
                // Local precedence: verified by the dispatcher (its cost
                // was charged to the predecessor's WCET already).
                if let Some(th) = self.threads.get_mut(succ_tid.0) {
                    th.preds_pending = th.preds_pending.saturating_sub(1);
                    self.try_unblock(succ_tid, now);
                }
            } else {
                // Remote precedence: the msg_task transmits over the
                // network; the receiver's kernel-side cost is the net IRQ
                // kernel activity.
                let fate = self
                    .network
                    .transit(NodeId(done_node), NodeId(succ_node), now);
                self.trace
                    .record_with(now, NodeId(done_node), TraceKind::MsgSend, || {
                        format!("{} -> {}", self.threads[done.0].name, s)
                    });
                let deadline_guess = now + self.network.max_delay() + Duration::from_nanos(1);
                match fate {
                    Delivery::At(t) => {
                        // The dispatcher's precedence handoffs share the
                        // network with the protocol actors: account them
                        // under the "dispatch" sender label (tag 0).
                        self.probe
                            .send("dispatch", 0, done_node, succ_node, mux::WIRE_BYTES);
                        sched.post(
                            t,
                            Ev::RemoteArrive {
                                thread: succ_tid,
                                pred: done_eu,
                            },
                        );
                        // Watchdog still armed: performance failures
                        // (delivery after δmax) are detected too.
                        sched.post(
                            deadline_guess,
                            Ev::OmissionCheck {
                                thread: succ_tid,
                                pred: done_eu,
                            },
                        );
                    }
                    Delivery::Omitted => {
                        sched.post(
                            deadline_guess,
                            Ev::OmissionCheck {
                                thread: succ_tid,
                                pred: done_eu,
                            },
                        );
                    }
                }
            }
        }
    }

    /// One thread of instance `key` finished.
    fn instance_thread_done(&mut self, key: InstanceKey, now: Time, sched: &mut Scheduler<Ev>) {
        let Some(inst) = self.task_state[key.0].instances.get_mut(key.1) else {
            return;
        };
        inst.live -= 1;
        if inst.live == 0 && inst.completed.is_none() {
            inst.completed = Some(now);
            inst.missed |= now > inst.deadline;
            for (w, node) in std::mem::take(&mut inst.sync_waiters) {
                // A waiter that died meanwhile has no phase left to
                // advance; its node is re-evaluated all the same.
                if let Some(th) = self.threads.get_mut(w.0) {
                    th.inv_phase = Some(InvPhase::Post);
                    self.try_unblock(w, now);
                }
                self.reschedule(node, now, sched);
            }
        }
        self.reap_instance(key, now);
    }

    /// Drops the bookkeeping of instance `key` once nothing can name it
    /// any more — no live thread left and its `DeadlineCheck` delivered —
    /// and settles its outcome.
    fn reap_instance(&mut self, key: InstanceKey, now: Time) {
        let st = &mut self.task_state[key.0];
        if !st
            .instances
            .get(key.1)
            .is_some_and(|i| i.live == 0 && i.checked)
        {
            return;
        }
        let inst = st.instances.remove(key.1).expect("reaped instance");
        let task = &self.tasks.tasks()[key.0];
        settle(&mut st.outcome, &self.alarms, task, key.1, &inst, now);
    }

    /// Takes `tid`, which just stopped being live, off its node's live
    /// index.
    fn unlist(&mut self, node: u32, tid: ThreadId) {
        let live = &mut self.nodes[node as usize].live;
        if let Ok(i) = live.binary_search(&tid) {
            live.remove(i);
        }
    }

    // ------------------------------------------------------------------
    // Scheduler task
    // ------------------------------------------------------------------

    fn notify(&mut self, node: u32, kind: NotificationKind, tid: ThreadId, now: Time) {
        if self.nodes[node as usize].down {
            return;
        }
        let Some(policy) = &self.nodes[node as usize].policy else {
            return;
        };
        if !policy.subscriptions().contains(&kind) {
            return;
        }
        self.notifications += 1;
        self.trace
            .record_with(now, NodeId(node), TraceKind::Notify, || {
                format!("{} {}", kind.label(), self.threads[tid.0].name)
            });
        self.nodes[node as usize].sched_fifo.push(Notification {
            kind,
            thread: tid,
            at: now,
        });
    }

    /// The scheduler task finished processing one notification: invoke the
    /// policy and apply its attribute changes (the dispatcher primitive).
    fn scheduler_step(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let n = {
            let ns = &mut self.nodes[node as usize];
            ns.sched_busy = false;
            ns.sched_remaining = Duration::ZERO;
            ns.sched_fifo.pop()
        };
        let Some(n) = n else { return };
        debug_assert_eq!(
            self.nodes[node as usize].live.len(),
            self.threads
                .values()
                .filter(|t| t.node == node && t.state.is_live())
                .count(),
            "live index of node {node} out of step with the thread table"
        );
        let live: Vec<ThreadSnapshot> = self.nodes[node as usize]
            .live
            .iter()
            .map(|tid| {
                let t = &self.threads[tid.0];
                debug_assert!(t.node == node && t.state.is_live());
                ThreadSnapshot {
                    thread: t.id,
                    task: t.task,
                    prio: t.prio,
                    abs_deadline: t.abs_deadline,
                    earliest: t.earliest,
                    activation: t.activation,
                    wcet: t.action_wcet,
                    started: t.started,
                    first_run: t.first_run,
                    state: t.state,
                }
            })
            .collect();
        // Only `notify` fills the FIFO, and only for a node with a policy.
        let policy = self.nodes[node as usize].policy.as_mut();
        let changes = policy
            .expect("scheduler step without policy")
            .on_notification(&n, &live);
        for c in changes {
            self.apply_attr_change(node, c, now, sched);
        }
    }

    /// The dispatcher primitive (Section 3.2.2): modify a thread's
    /// priority and/or earliest start time.
    fn apply_attr_change(
        &mut self,
        node: u32,
        c: AttrChange,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(th) = self.threads.get_mut(c.thread.0) else {
            return;
        };
        if !th.state.is_live() {
            return;
        }
        if let Some(p) = c.prio {
            let p = p.min(Priority::APP_MAX.lower(1));
            th.prio = p;
            th.pt = th.pt.max(p);
            self.nodes[th.node as usize].runq.reprioritize(c.thread, p);
            self.trace
                .record_with(now, NodeId(node), TraceKind::AttrChange, || {
                    format!("{} prio <- {p}", th.name)
                });
        }
        if let Some(e) = c.earliest {
            th.earliest = e;
            let tid = th.id;
            if th.state == ThreadState::Runnable && e > now {
                // Pushed into the future: leave the queue until then.
                let node = th.node;
                th.state = ThreadState::Blocked;
                self.nodes[node as usize].runq.remove(tid);
            }
            if e > now {
                // Re-arm the wake-up so the thread is rechecked when its
                // (re)planned start time arrives.
                sched.post(
                    e,
                    Ev::EarliestReached {
                        thread: tid,
                        node: th.node,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Monitoring helpers
    // ------------------------------------------------------------------

    fn deadline_check(&mut self, pos: usize, instance: u64, now: Time, sched: &mut Scheduler<Ev>) {
        let st = &mut self.task_state[pos];
        let Some(inst) = st.instances.get_mut(instance) else {
            return;
        };
        inst.checked = true;
        let t = &self.tasks.tasks()[pos];
        if inst.completed.is_some() {
            let inst = st.instances.remove(instance).expect("checked instance");
            settle(&mut st.outcome, &self.alarms, t, instance, &inst, now);
            return;
        }
        inst.missed = true;
        let (task, eus) = (t.id, t.heug.eus());
        self.alarms.raise(
            now,
            MonitorEvent::DeadlineMiss {
                node: home_node(t),
                task: task.0,
                instance,
                activated: inst.activated,
                deadline: now,
            },
        );
        self.trace
            .record_with(now, NodeId(0), TraceKind::Alarm, || {
                format!("deadline_miss {task}#{instance}")
            });
        if matches!(self.cfg.miss_policy, MissPolicy::AbortInstance) {
            // The dead among them are skipped by `abort_thread`.
            let threads = inst.first_thread..inst.first_thread + eus.len() as u64;
            let mut touched: Vec<u32> = threads
                .filter_map(|tid| self.abort_thread(ThreadId(tid), now))
                .collect();
            touched.sort_unstable();
            touched.dedup();
            self.reschedule_touched(&touched, now, sched);
        }
        self.reap_instance((pos, instance), now);
    }

    /// Kills a live thread (aborted instance or lost predecessor) and
    /// counts it as an orphan. Returns the node it died on, for the
    /// caller to reschedule; `None` if there was nothing left to kill.
    fn abort_thread(&mut self, tid: ThreadId, now: Time) -> Option<u32> {
        let th = self.threads.get_mut(tid.0)?;
        if !th.state.is_live() {
            return None;
        }
        let node = th.node;
        let was_running = th.state == ThreadState::Running;
        th.state = ThreadState::Aborted;
        self.unlist(node, tid);
        self.nodes[node as usize].runq.remove(tid);
        if was_running {
            self.nodes[node as usize].current = None;
        }
        if self.resmgr[node as usize].release_all(tid) {
            self.recheck_blocked(node, now);
        }
        self.alarms.raise(
            now,
            MonitorEvent::Orphan {
                thread: tid.0,
                at: now,
            },
        );
        let th = self.threads.remove(tid.0).expect("aborted thread");
        self.trace
            .record_with(now, NodeId(node), TraceKind::Alarm, || {
                format!("orphan {}", th.name)
            });
        let key = (th.task_pos, th.instance);
        if let Some(inst) = self.task_state[key.0].instances.get_mut(key.1) {
            inst.live -= 1;
            // An aborted instance can never complete: record it as missed
            // immediately rather than waiting for the deadline to pass.
            if inst.completed.is_none() {
                inst.missed = true;
            }
        }
        self.reap_instance(key, now);
        Some(node)
    }

    fn omission_check(
        &mut self,
        tid: ThreadId,
        pred: EuIndex,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(th) = self.threads.get(tid.0) else {
            return;
        };
        if th.remote_arrived.contains(&pred) || !th.state.is_live() {
            return;
        }
        self.alarms.raise(
            now,
            MonitorEvent::NetworkOmission {
                waiting: tid.0,
                detected_at: now,
            },
        );
        self.trace
            .record_with(now, NodeId(th.node), TraceKind::Alarm, || {
                format!("network_omission {}", th.name)
            });
        // The successor can never run: reap it (and transitively its own
        // successors will be reaped by their own watchdogs or the stall
        // detector; we reap just this thread here).
        let touched = self.abort_thread(tid, now);
        self.reschedule_touched(touched.as_slice(), now, sched);
    }

    fn remote_arrive(
        &mut self,
        tid: ThreadId,
        pred: EuIndex,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        // A late delivery to a dead thread is dropped.
        let Some(th) = self.threads.get_mut(tid.0) else {
            return;
        };
        if th.remote_arrived.contains(&pred) {
            return; // duplicate delivery
        }
        th.remote_arrived.push(pred);
        let node = th.node;
        th.preds_pending = th.preds_pending.saturating_sub(1);
        self.trace
            .record_with(now, NodeId(node), TraceKind::MsgRecv, || {
                format!("{} <- {}", th.name, pred)
            });
        self.try_unblock(tid, now);
        self.reschedule(node, now, sched);
    }

    fn latest_check(&mut self, tid: ThreadId, now: Time) {
        let Some(th) = self.threads.get(tid.0) else {
            return;
        };
        if th.state.is_live() && !th.started {
            let latest = th.latest.expect("latest check armed with a bound");
            self.alarms.raise(
                now,
                MonitorEvent::LatestStartExceeded {
                    thread: tid.0,
                    latest,
                },
            );
            self.trace
                .record_with(now, NodeId(th.node), TraceKind::Alarm, || {
                    format!("latest_start_exceeded {}", th.name)
                });
        }
    }

    fn kernel_irq(&mut self, node: u32, activity: usize, now: Time, sched: &mut Scheduler<Ev>) {
        let act = &self.cfg.kernel.activities()[activity];
        let period = act.pseudo_period;
        let next = now + period;
        if next <= Time::ZERO + self.cfg.horizon {
            sched.post(next, Ev::KernelIrq { node, activity });
        }
        if act.wcet.is_zero() || self.nodes[node as usize].down {
            return;
        }
        self.nodes[node as usize].irq_pending.push_back(activity);
        self.reschedule(node, now, sched);
    }

    // ------------------------------------------------------------------
    // End of run
    // ------------------------------------------------------------------

    fn finish(&mut self, end: Time) -> RunReport {
        // Progress-based deadlock/stall detection (Section 3.2.1 (iv)).
        // Threads still blocked *past their deadline* when the run ends can
        // never make progress; blocked threads with remaining slack are
        // merely in flight at the horizon cutoff, not stalled.
        // The thread table iterates in ascending id order.
        let stuck: Vec<u64> = self
            .threads
            .values()
            .filter(|t| t.state == ThreadState::Blocked && t.abs_deadline <= end)
            .map(|t| t.id.0)
            .collect();
        if !stuck.is_empty() {
            self.alarms.raise(
                end,
                MonitorEvent::Stall {
                    threads: stuck,
                    at: end,
                },
            );
        }
        let telemetry = self.probe.registry();
        if telemetry.is_enabled() {
            let misses = self.alarms.report.deadline_misses() as u64;
            telemetry
                .counter("dispatch.ctx_switches")
                .add(self.ctx_switches);
            telemetry.counter("dispatch.deadline_misses").add(misses);
            telemetry
                .gauge("dispatch.notifications")
                .set(self.notifications);
            telemetry
                .gauge("dispatch.scheduler_cpu_ns")
                .set(self.scheduler_cpu.as_nanos());
            telemetry
                .gauge("dispatch.kernel_cpu_ns")
                .set(self.kernel_cpu.as_nanos());
            for (node, cpu) in self.node_cpu.iter().enumerate() {
                telemetry
                    .gauge(&format!("dispatch.node_cpu_ns.n{node:03}"))
                    .set(cpu.as_nanos());
            }
        }
        // The instances still held at the end are final now too.
        for (task, st) in self.tasks.iter().zip(&mut self.task_state) {
            for (instance, inst) in st.instances.iter() {
                settle(&mut st.outcome, &self.alarms, task, instance, inst, end);
            }
        }
        RunReport {
            instances: Tallies(self.task_state.iter().map(|st| st.outcome).collect()),
            monitor: std::mem::take(&mut self.alarms.report),
            trace: std::mem::replace(&mut self.trace, Trace::disabled()),
            notifications: self.notifications,
            scheduler_cpu: self.scheduler_cpu,
            kernel_cpu: self.kernel_cpu,
            node_cpu: std::mem::take(&mut self.node_cpu),
            finished_at: end,
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
#[path = "tests/sim.rs"]
mod tests;
