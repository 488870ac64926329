//! The deployment-spec front door: typed services lowered onto the
//! shared engine.
//!
//! A [`ClusterSpec`] declares *what* a fault-tolerant application
//! deploys — the platform (nodes, links, timing model, seed, scenario)
//! and a list of typed [`ServiceSpec`]s (replicated groups with a
//! [`Workload`], bare periodic tasks, raw HEUG tasks) — and
//! [`ClusterSpec::run`] lowers it onto the existing per-node runtime:
//! dispatcher + policy + heartbeat detector + membership + replication
//! management on **one** shared DES engine and network. The whole spec
//! is validated before anything is built: every problem is reported as a
//! typed [`SpecIssue`] naming the offending service, collected into one
//! [`SpecError`] instead of failing at the first.
//!
//! The run returns a [`ClusterRun`]: the aggregate
//! [`crate::ClusterReport`] the
//! old builder produced, plus a typed, time-ordered
//! [`crate::ClusterEvent`] stream so tests and benches assert on
//! sequences instead of scraping aggregates.
//!
//! # Examples
//!
//! The crate-level failover scenario through the spec API:
//!
//! ```
//! use hades_cluster::{ClusterSpec, ScenarioPlan, ServiceSpec};
//! use hades_sim::NodeId;
//! use hades_time::{Duration, Time};
//!
//! let crash = Time::ZERO + Duration::from_millis(50);
//! let mut spec = ClusterSpec::new(4)
//!     .horizon(Duration::from_millis(100))
//!     .scenario(ScenarioPlan::new().crash(NodeId(0), crash));
//! for node in 0..4 {
//!     spec = spec.service(ServiceSpec::periodic(
//!         format!("control@{node}"),
//!         node,
//!         Duration::from_micros(200),
//!         Duration::from_millis(2),
//!     ));
//! }
//! let run = spec.run()?;
//! assert!(run.report().detection_within_bound());
//! assert!(run.report().views_agree);
//! // The event stream carries the causal order directly.
//! let kinds = run.kind_sequence();
//! assert!(kinds.contains(&"detected") && kinds.contains(&"view-installed"));
//! # Ok::<(), hades_cluster::SpecError>(())
//! ```

use crate::driver::{
    ControlActor, ControlState, Origins, ScenarioDriver, ServiceControl, ServiceControlKind,
};
use crate::events::ClusterRun;
use crate::middleware::{GroupLoad, MiddlewareConfig, MIDDLEWARE_TASK_BASE};
use crate::report;
use crate::scenario::{ModeChangeScript, ScenarioPlan};
use crate::workload::{ConstantRate, Workload};
use crate::PlanDriver;
use hades_dispatch::{CostModel, DispatchSim, SimConfig};
use hades_sched::analysis::rta::{rta_feasible, RtaTask};
use hades_sched::{edf_feasible, EdfAnalysisConfig, EdfPolicy, ModeChange, Policy};
use hades_services::actors::{
    agent_is_heartbeat, agent_msg_name, AgentLog, NodeAgent, AGENT_LABEL,
};
use hades_services::group::{
    group_msg_name, GroupConfig, GroupLog, ReplicaGroup, RequestSource, GROUP_LABEL,
};
use hades_services::ReplicaStyle;
use hades_sim::mux::ActorId;
use hades_sim::{FaultPlan, KernelModel, LinkConfig, Network, NodeId, SimRng};
use hades_task::spuri::SpuriTask;
use hades_task::task::TaskSetError;
use hades_task::{Task, TaskId, TaskSet};
use hades_telemetry::monitor::{MonitorEvent, MonitorParams, ProtocolTap};
use hades_telemetry::{Probe, Profiler, Registry, RunTelemetry, SpanLog, Watchdog};
use hades_time::{Duration, Time};
use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// The largest cluster the integrated runtime deploys. The membership
/// protocols address [`hades_services::memberset::MAX_NODES`] nodes;
/// the tighter runtime ceiling keeps the reserved task-id tiers
/// ([`MIDDLEWARE_TASK_BASE`] and up) disjoint.
pub const MAX_CLUSTER_NODES: u32 = 1_024;

/// Resolves a mux `(sender label, message tag)` pair to the cluster's
/// canonical message-kind name. Names are label-prefixed because agents
/// and groups reuse short names (both have a `ckpt`): the heartbeat is
/// `agent.hb`, a group client request is `group.req`, the dispatcher's
/// precedence handoff is `dispatch.handoff`. Unknown pairs fall back to
/// the probes' own `<label>.t<tag>` form.
fn cluster_msg_name(label: &str, tag: u64) -> Option<String> {
    match label {
        AGENT_LABEL => agent_msg_name(tag).map(|n| format!("{AGENT_LABEL}.{n}")),
        GROUP_LABEL => group_msg_name(tag).map(|n| format!("{GROUP_LABEL}.{n}")),
        "dispatch" => Some("dispatch.handoff".to_string()),
        _ => None,
    }
}

/// One validation finding, naming the service it concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecIssue {
    /// Fewer than two nodes requested.
    TooFewNodes {
        /// The requested node count.
        nodes: u32,
    },
    /// More nodes than the runtime deploys.
    TooManyNodes {
        /// The requested node count.
        nodes: u32,
        /// The runtime ceiling ([`MAX_CLUSTER_NODES`]).
        max: u32,
    },
    /// A replicated service has no members.
    EmptyMembers {
        /// The offending service.
        service: ServiceRef,
    },
    /// A replicated service lists the same member twice.
    DuplicateMember {
        /// The offending service.
        service: ServiceRef,
        /// The repeated member node.
        node: u32,
    },
    /// A replicated service names a member outside the cluster.
    MemberOutOfRange {
        /// The offending service.
        service: ServiceRef,
        /// The out-of-range member node.
        node: u32,
        /// The cluster size.
        nodes: u32,
    },
    /// A service is pinned to a node outside the cluster.
    NodeOutOfRange {
        /// The offending service, if the task came from one (scripted
        /// mode-change introductions carry `None`).
        service: Option<ServiceRef>,
        /// The offending node id.
        node: u32,
        /// The cluster size.
        nodes: u32,
    },
    /// A task service is registered on one node but one of its
    /// elementary units is homed on another processor.
    TaskOffNode {
        /// The offending service, if the task came from one.
        service: Option<ServiceRef>,
        /// The task.
        task: TaskId,
        /// The node it was registered on.
        node: u32,
    },
    /// Two application tasks share an id.
    DuplicateTaskId {
        /// The offending service, if the task came from one.
        service: Option<ServiceRef>,
        /// The shared id.
        task: TaskId,
    },
    /// An application task uses an id reserved for middleware tasks.
    ReservedTaskId {
        /// The offending service, if the task came from one.
        service: Option<ServiceRef>,
        /// The reserved id.
        task: TaskId,
    },
    /// A workload's admission period (or a periodic service's period) is
    /// zero — its arrival law would stop virtual time from advancing.
    ZeroPeriod {
        /// The offending service.
        service: ServiceRef,
    },
    /// A workload generated a schedule that is not strictly increasing.
    NonMonotoneWorkload {
        /// The offending service.
        service: ServiceRef,
    },
    /// A workload generated more requests than the 20-bit request-id
    /// wire encoding addresses.
    WorkloadTooLong {
        /// The offending service.
        service: ServiceRef,
        /// The generated request count.
        requests: u64,
    },
    /// A scripted restart cannot be attached to a crash window.
    RestartWithoutCrash {
        /// The restarting node.
        node: u32,
        /// The scripted restart instant.
        at: Time,
    },
    /// A mode change retires a task id no registered task carries.
    UnknownRetiredTask {
        /// The unknown id.
        task: TaskId,
    },
    /// The assembled task set failed validation.
    InvalidTaskSet(TaskSetError),
}

/// Which service a [`SpecIssue`] concerns: its index in registration
/// order and its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRef {
    /// Index in [`ClusterSpec::service`] registration order.
    pub index: usize,
    /// The service's name.
    pub name: String,
}

impl fmt::Display for ServiceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service #{} '{}'", self.index, self.name)
    }
}

impl fmt::Display for SpecIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let svc = |s: &Option<ServiceRef>| match s {
            Some(s) => format!("{s}: "),
            None => "mode-change script: ".to_string(),
        };
        match self {
            SpecIssue::TooFewNodes { nodes } => {
                write!(f, "a cluster needs at least two nodes, got {nodes}")
            }
            SpecIssue::TooManyNodes { nodes, max } => {
                write!(f, "the runtime deploys at most {max} nodes, got {nodes}")
            }
            SpecIssue::EmptyMembers { service } => write!(f, "{service}: no members"),
            SpecIssue::DuplicateMember { service, node } => {
                write!(f, "{service}: member {node} listed twice")
            }
            SpecIssue::MemberOutOfRange {
                service,
                node,
                nodes,
            } => write!(
                f,
                "{service}: member {node} outside the {nodes}-node cluster"
            ),
            SpecIssue::NodeOutOfRange {
                service,
                node,
                nodes,
            } => write!(
                f,
                "{}node {node} outside the {nodes}-node cluster",
                svc(service)
            ),
            SpecIssue::TaskOffNode {
                service,
                task,
                node,
            } => write!(
                f,
                "{}task {task} registered on node {node} has units elsewhere",
                svc(service)
            ),
            SpecIssue::DuplicateTaskId { service, task } => {
                write!(f, "{}duplicate application task id {task}", svc(service))
            }
            SpecIssue::ReservedTaskId { service, task } => write!(
                f,
                "{}task id {task} is reserved for middleware (>= {MIDDLEWARE_TASK_BASE})",
                svc(service)
            ),
            SpecIssue::ZeroPeriod { service } => {
                write!(f, "{service}: zero period/admission rate")
            }
            SpecIssue::NonMonotoneWorkload { service } => {
                write!(f, "{service}: workload instants not strictly increasing")
            }
            SpecIssue::WorkloadTooLong { service, requests } => write!(
                f,
                "{service}: workload generated {requests} requests (wire encoding caps at 2^20)"
            ),
            SpecIssue::RestartWithoutCrash { node, at } => write!(
                f,
                "restart of node {node} at {at} is not attached to a crash window"
            ),
            SpecIssue::UnknownRetiredTask { task } => {
                write!(f, "mode change retires unknown application task {task}")
            }
            SpecIssue::InvalidTaskSet(e) => write!(f, "invalid cluster task set: {e}"),
        }
    }
}

/// Everything wrong with a deployment spec, collected in one pass so a
/// spec author sees every per-service diagnostic at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The findings, in validation order.
    pub issues: Vec<SpecIssue>,
}

impl SpecError {
    /// The first finding (validation order).
    pub fn first(&self) -> &SpecIssue {
        &self.issues[0]
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invalid deployment spec ({} issue(s)):",
            self.issues.len()
        )?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecError {}

/// What one service deploys.
#[derive(Debug)]
enum ServiceKind {
    /// A replicated group serving a client request stream.
    Replicated {
        style: ReplicaStyle,
        members: Vec<u32>,
        load: GroupLoad,
        workload: Box<dyn Workload>,
    },
    /// A single-unit periodic application task pinned to one node
    /// (deadline = period; ids auto-assigned).
    Periodic {
        node: u32,
        wcet: Duration,
        period: Duration,
    },
    /// A raw HEUG application task pinned to one node.
    Task { node: u32, task: Task },
}

/// One typed service of a deployment spec.
///
/// # Examples
///
/// ```
/// use hades_cluster::{Bursty, GroupLoad, ServiceSpec};
/// use hades_services::ReplicaStyle;
/// use hades_time::{Duration, Time};
///
/// // A semi-active replicated store driven by a bursty client.
/// let svc = ServiceSpec::replicated(
///     "store",
///     ReplicaStyle::SemiActive,
///     vec![0, 1, 2],
///     GroupLoad::default(),
/// )
/// .workload(Box::new(Bursty {
///     burst: 4,
///     spacing: Duration::from_micros(200),
///     gap: Duration::from_millis(5),
///     start: Time::ZERO + Duration::from_millis(1),
/// }));
/// assert_eq!(svc.name(), "store");
/// ```
#[derive(Debug)]
pub struct ServiceSpec {
    name: String,
    kind: ServiceKind,
    standby: bool,
}

impl ServiceSpec {
    /// A replicated group: `members` run `style`, serving the client
    /// request stream described by `load` — by default one request per
    /// [`GroupLoad::request_period`] from
    /// [`GroupLoad::first_request_at`]; override the stream shape with
    /// [`ServiceSpec::workload`].
    pub fn replicated(
        name: impl Into<String>,
        style: ReplicaStyle,
        members: Vec<u32>,
        load: GroupLoad,
    ) -> Self {
        let workload = Box::new(ConstantRate::new(
            load.request_period,
            load.first_request_at,
        ));
        ServiceSpec {
            name: name.into(),
            kind: ServiceKind::Replicated {
                style,
                members,
                load,
                workload,
            },
            standby: false,
        }
    }

    /// Replaces a replicated service's request stream.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-replicated service — only replicated
    /// services serve a client request stream.
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        match &mut self.kind {
            ServiceKind::Replicated { workload: w, .. } => *w = workload,
            _ => panic!("only replicated services take a workload"),
        }
        self
    }

    /// A single-unit periodic application task on `node`, with deadline
    /// equal to its period. Task ids are auto-assigned (ascending over
    /// the spec's periodic services, skipping explicitly taken ids).
    pub fn periodic(name: impl Into<String>, node: u32, wcet: Duration, period: Duration) -> Self {
        ServiceSpec {
            name: name.into(),
            kind: ServiceKind::Periodic { node, wcet, period },
            standby: false,
        }
    }

    /// A raw HEUG application task on `node` (every elementary unit must
    /// be homed on that node's processor).
    pub fn task(name: impl Into<String>, node: u32, task: Task) -> Self {
        ServiceSpec {
            name: name.into(),
            kind: ServiceKind::Task { node, task },
            standby: false,
        }
    }

    /// Declares this service **standby**: it is validated, lowered and
    /// charged by the feasibility analyses (capacity is reserved for its
    /// admission), but it does not activate until a
    /// [`crate::ScenarioDriver`] admits it at run time through
    /// [`crate::ControlHandle::admit_service`] — the driver-side face of
    /// a mode change.
    ///
    /// For a task-backed service, standby means the task never releases
    /// until admission. For a replicated service, the members run from
    /// the start (so admission needs no warm-up) but the request stream
    /// is paused at rate zero; admission resumes it at nominal rate from
    /// the admission instant — the mechanism a sharded fabric uses to
    /// hold a migrating shard's successor group silent until the shard
    /// actually moves.
    pub fn standby(mut self) -> Self {
        self.standby = true;
        self
    }

    /// The service's name (appears in diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn service_ref(&self, index: usize) -> ServiceRef {
        ServiceRef {
            index,
            name: self.name.clone(),
        }
    }
}

/// A declarative deployment: platform + typed services (+ reactive
/// [`ScenarioDriver`]s), validated as a whole and lowered onto the
/// integrated multi-node runtime.
///
/// See the module-level example for typical use.
#[derive(Debug)]
pub struct ClusterSpec {
    nodes: u32,
    link: LinkConfig,
    seed: u64,
    horizon: Duration,
    policy: Policy,
    costs: CostModel,
    kernel: KernelModel,
    middleware: MiddlewareConfig,
    scenario: ScenarioPlan,
    services: Vec<ServiceSpec>,
    drivers: Vec<Box<dyn ScenarioDriver>>,
    driver_tick: Duration,
    telemetry: Registry,
    profile: Profiler,
    watchdog: Option<Watchdog>,
    span_cap: Option<usize>,
}

impl ClusterSpec {
    /// A deployment of `nodes` nodes with a reliable LAN-ish link, zero
    /// dispatcher costs, no kernel load, RM scheduling, a 100 ms horizon
    /// and no services.
    pub fn new(nodes: u32) -> Self {
        ClusterSpec {
            nodes,
            link: LinkConfig::reliable(Duration::from_micros(10), Duration::from_micros(50)),
            seed: 0,
            horizon: Duration::from_millis(100),
            policy: Policy::default(),
            costs: CostModel::zero(),
            kernel: KernelModel::none(),
            middleware: MiddlewareConfig::default(),
            scenario: ScenarioPlan::new(),
            services: Vec::new(),
            drivers: Vec::new(),
            driver_tick: Duration::from_millis(1),
            telemetry: Registry::disabled(),
            profile: Profiler::disabled(),
            watchdog: None,
            span_cap: None,
        }
    }

    /// Sets the link model shared by every pair of nodes.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the random seed (network delays and execution-time draws).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulation horizon.
    pub fn horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Selects the scheduling policy installed on every node.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the dispatcher cost model (Section 4.1 constants).
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets the background kernel model (Section 4.2 activities).
    pub fn kernel(mut self, kernel: KernelModel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Configures the injected middleware activities (the timing model).
    pub fn middleware(mut self, middleware: MiddlewareConfig) -> Self {
        self.middleware = middleware;
        self
    }

    /// Installs the offline failure scenario. At run time the plan is
    /// replayed by the canned [`PlanDriver`] through the same control
    /// path reactive drivers use — `scenario(plan)` and
    /// `driver(Box::new(PlanDriver::new(plan)))` are equivalent, except
    /// that the former also keeps the legacy accessor semantics.
    pub fn scenario(mut self, scenario: ScenarioPlan) -> Self {
        self.scenario = scenario;
        self
    }

    /// Registers a during-run [`ScenarioDriver`]: it receives every
    /// [`crate::ClusterEvent`] at its engine timestamp plus a periodic
    /// tick ([`ClusterSpec::driver_tick`]), and can inject faults,
    /// retire/admit services and retune workloads through its
    /// [`crate::ControlHandle`]. Drivers run in registration order.
    pub fn driver(mut self, driver: Box<dyn ScenarioDriver>) -> Self {
        self.drivers.push(driver);
        self
    }

    /// Sets the period of the drivers' [`crate::ScenarioDriver::on_tick`]
    /// callback (default 1 ms; zero disables the tick).
    pub fn driver_tick(mut self, tick: Duration) -> Self {
        self.driver_tick = tick;
        self
    }

    /// Attaches a telemetry registry. With [`Registry::enabled`] the run
    /// records engine-time counters and histograms (engine events, queue
    /// depth high-water, dispatcher context switches, heartbeats
    /// sent/suppressed, `group.response_ns`, …) and mints protocol trace
    /// spans for every rejoin, failover, view agreement and client
    /// request; [`crate::ClusterRun::telemetry`] returns both. The
    /// default disabled registry keeps every hook a no-op and the run's
    /// telemetry empty. Telemetry is pure observation: it never perturbs
    /// the simulation, so two same-seed runs produce byte-identical
    /// snapshots whether or not a registry is attached.
    pub fn telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }

    /// Attaches a deterministic [`Profiler`]. With [`Profiler::enabled`]
    /// the run attributes engine work — per-event-kind counts and exact
    /// engine-tick service-gap distributions, per-actor delivery shares,
    /// a queue-depth/event-mix timeline at the profiler's interval, and
    /// a `(sender kind, message kind, link)` traffic matrix — and
    /// [`crate::ClusterRun::profile`] returns the [`ProfileReport`]
    /// (exportable as schema-checked JSONL and folded flamegraph
    /// stacks). Wall-clock nanoseconds per kind are recorded too, but
    /// travel only through the registry's volatile channel
    /// (`profile.wall_ns.<kind>`), so the report stays a byte-stable
    /// function of spec and seed. Profiling is pure observation: the
    /// report and event stream of a profiled run are byte-identical to
    /// an unprofiled one, and the default disabled profiler keeps every
    /// hook a single `Option` check.
    ///
    /// [`ProfileReport`]: hades_telemetry::ProfileReport
    pub fn profile(mut self, profiler: Profiler) -> Self {
        self.profile = profiler;
        self
    }

    /// Attaches an online invariant [`Watchdog`]: its monitors consume
    /// the engine-time agent/group feeds during the run and check
    /// cluster-wide invariants — cross-agent view agreement, the
    /// per-output Δ-bound, duplicate-output suppression, stalled state
    /// transfers and silent groups — with every bound derived from this
    /// spec's own timing model (`Δ + δmax`, the analytic rejoin bound).
    /// Each violation surfaces as a
    /// [`crate::ClusterEvent::InvariantViolated`] at the engine instant
    /// the monitor detected it, so [`ScenarioDriver`]s can react to it
    /// during the run; [`crate::ClusterRun::violations`] collects them
    /// afterwards. Unlike telemetry, monitors are opt-in precisely
    /// because reacting to a violation *may* perturb the run (the
    /// watchdog wakes the control actor); with no drivers attached the
    /// report still matches a monitor-less run.
    pub fn monitors(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Caps the protocol-trace span log at `cap` spans: once over, the
    /// oldest whole span tree is dropped and counted in
    /// [`hades_telemetry::SpanLog::spans_dropped`]. Uncapped by default.
    pub fn span_cap(mut self, cap: usize) -> Self {
        self.span_cap = Some(cap);
        self
    }

    /// Adds one typed service.
    pub fn service(mut self, service: ServiceSpec) -> Self {
        self.services.push(service);
        self
    }

    /// The registered services, in registration order.
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// The Δ of the replicated services' atomic multicast: `δmax + γ`
    /// for this spec's link model and synchronized-clock precision.
    pub fn group_delta(&self) -> Duration {
        self.middleware.group_delta(&self.link)
    }

    /// The detection bound `H + T₀ = 2H + δmax + γ` this deployment's
    /// detector guarantees.
    pub fn detection_bound(&self) -> Duration {
        self.middleware
            .agent_config(NodeId(0), self.nodes, &self.link)
            .detection_bound(self.link.delay_max)
    }

    /// The analytic worst-case rejoin latency (restart → re-admission).
    pub fn rejoin_bound(&self) -> Duration {
        self.middleware
            .agent_config(NodeId(0), self.nodes, &self.link)
            .rejoin_bound(self.link.delay_max)
    }

    /// Validates the whole spec, collecting every finding.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] listing every [`SpecIssue`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.lower().map(|_| ())
    }

    /// Validates, lowers and runs the deployment.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] listing every validation finding, or the task-set
    /// assembly failure.
    pub fn run(mut self) -> Result<ClusterRun, SpecError> {
        let lowered = self.lower()?;
        let drivers = std::mem::take(&mut self.drivers);
        let watchdog = self.watchdog.take();
        lowered.execute(drivers, self.driver_tick, watchdog, self.span_cap)
    }

    /// The offline-known fault script: the spec's own scenario merged
    /// with every driver's [`ScenarioDriver::static_plan`] — what the
    /// static analyses (and validation) must account for.
    fn static_scenario(&self) -> ScenarioPlan {
        self.drivers
            .iter()
            .filter_map(|d| d.static_plan())
            .fold(self.scenario.clone(), |acc, p| acc.merged(p))
    }

    /// Validates the spec and lowers it into the runtime's flat form.
    fn lower(&self) -> Result<Lowered, SpecError> {
        let static_scenario = self.static_scenario();
        let mut issues = Vec::new();
        if self.nodes < 2 {
            issues.push(SpecIssue::TooFewNodes { nodes: self.nodes });
        }
        if self.nodes > MAX_CLUSTER_NODES {
            issues.push(SpecIssue::TooManyNodes {
                nodes: self.nodes,
                max: MAX_CLUSTER_NODES,
            });
        }
        for (node, at) in static_scenario.orphan_restarts() {
            issues.push(SpecIssue::RestartWithoutCrash { node: node.0, at });
        }

        // Explicit task ids first: periodic services skip them when
        // auto-assigning.
        let explicit: Vec<TaskId> = self
            .services
            .iter()
            .filter_map(|s| match &s.kind {
                ServiceKind::Task { task, .. } => Some(task.id),
                _ => None,
            })
            .collect();

        let mut app_tasks: Vec<(Option<ServiceRef>, u32, Task)> = Vec::new();
        let mut groups: Vec<LoweredGroup> = Vec::new();
        let mut service_infos: Vec<LoweredService> = Vec::new();
        let mut next_auto = 0u32;
        for (index, service) in self.services.iter().enumerate() {
            let sref = service.service_ref(index);
            match &service.kind {
                ServiceKind::Replicated {
                    style,
                    members,
                    load,
                    workload,
                } => {
                    if members.is_empty() {
                        issues.push(SpecIssue::EmptyMembers { service: sref });
                        continue;
                    }
                    let mut sorted = members.clone();
                    sorted.sort_unstable();
                    if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
                        issues.push(SpecIssue::DuplicateMember {
                            service: sref.clone(),
                            node: dup[0],
                        });
                        continue;
                    }
                    if let Some(bad) = sorted.iter().find(|m| **m >= self.nodes) {
                        issues.push(SpecIssue::MemberOutOfRange {
                            service: sref.clone(),
                            node: *bad,
                            nodes: self.nodes,
                        });
                        continue;
                    }
                    let admission_period = workload.admission_period(self.horizon);
                    if admission_period.is_zero() {
                        issues.push(SpecIssue::ZeroPeriod { service: sref });
                        continue;
                    }
                    // Reject over-long streams *before* materializing
                    // them: at the (peak) admission rate, the horizon
                    // bounds the request count, so a runaway generator
                    // is refused without allocating its schedule.
                    let projected =
                        self.horizon.as_nanos() / admission_period.as_nanos().max(1) + 1;
                    if projected >= 1 << 20 {
                        issues.push(SpecIssue::WorkloadTooLong {
                            service: sref,
                            requests: projected,
                        });
                        continue;
                    }
                    // An empty stream is legal (a standby service); a
                    // zero-period generator also returns empty and is
                    // caught by the admission-period check above.
                    let schedule = workload.request_times(self.horizon);
                    if !schedule.windows(2).all(|w| w[0] < w[1]) {
                        issues.push(SpecIssue::NonMonotoneWorkload { service: sref });
                        continue;
                    }
                    if schedule.len() as u64 >= 1 << 20 {
                        issues.push(SpecIssue::WorkloadTooLong {
                            service: sref,
                            requests: schedule.len() as u64,
                        });
                        continue;
                    }
                    service_infos.push(LoweredService::Group {
                        name: service.name.clone(),
                        group: groups.len(),
                    });
                    let source = workload.build_source(self.horizon);
                    if service.standby {
                        // A standby group's members run from time zero
                        // (admission needs no warm-up), but its request
                        // stream is paused until a driver admits the
                        // service — admission retunes the source back to
                        // nominal rate from the admission instant.
                        source.borrow_mut().throttle(Time::ZERO, 0);
                    }
                    groups.push(LoweredGroup {
                        style: *style,
                        members: sorted,
                        load: *load,
                        source,
                        admission_period,
                    });
                }
                ServiceKind::Periodic { node, wcet, period } => {
                    if period.is_zero() {
                        issues.push(SpecIssue::ZeroPeriod { service: sref });
                        continue;
                    }
                    while explicit.contains(&TaskId(next_auto)) {
                        next_auto += 1;
                    }
                    let id = TaskId(next_auto);
                    next_auto += 1;
                    let task = Task::new(
                        id,
                        single_heug(&service.name, *node, *wcet),
                        hades_task::ArrivalLaw::Periodic(*period),
                        *period,
                    );
                    service_infos.push(LoweredService::Tasks {
                        name: service.name.clone(),
                        ids: vec![id.0],
                        standby: service.standby,
                    });
                    app_tasks.push((Some(sref), *node, task));
                }
                ServiceKind::Task { node, task } => {
                    service_infos.push(LoweredService::Tasks {
                        name: service.name.clone(),
                        ids: vec![task.id.0],
                        standby: service.standby,
                    });
                    app_tasks.push((Some(sref), *node, task.clone()));
                }
            }
        }

        // Scripted mode-change introductions join the task checks.
        for script in static_scenario.mode_changes() {
            for (node, task) in &script.introduce {
                app_tasks.push((None, *node, task.clone()));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (sref, node, task) in &app_tasks {
            if *node >= self.nodes {
                issues.push(SpecIssue::NodeOutOfRange {
                    service: sref.clone(),
                    node: *node,
                    nodes: self.nodes,
                });
            }
            if task.id.0 >= MIDDLEWARE_TASK_BASE {
                issues.push(SpecIssue::ReservedTaskId {
                    service: sref.clone(),
                    task: task.id,
                });
            }
            if !seen.insert(task.id) {
                issues.push(SpecIssue::DuplicateTaskId {
                    service: sref.clone(),
                    task: task.id,
                });
            }
            for eu in task.heug.eus() {
                if eu.processor().0 != *node {
                    issues.push(SpecIssue::TaskOffNode {
                        service: sref.clone(),
                        task: task.id,
                        node: *node,
                    });
                    break;
                }
            }
        }
        // A mode change may retire an initial application task or one a
        // previous mode change introduced (multi-phase scripts). The
        // introduced tasks were appended after the service tasks above,
        // so `seen` holds every known id — but retire legality is
        // per-phase: a task may only be retired once known.
        let mut known_ids: std::collections::HashSet<TaskId> = app_tasks
            .iter()
            .filter(|(sref, _, _)| sref.is_some())
            .map(|(_, _, t)| t.id)
            .collect();
        let mut scripts: Vec<&ModeChangeScript> = static_scenario.mode_changes().iter().collect();
        scripts.sort_by_key(|s| s.at);
        for script in scripts {
            for id in &script.retire {
                if !known_ids.contains(id) {
                    issues.push(SpecIssue::UnknownRetiredTask { task: *id });
                }
            }
            known_ids.extend(script.introduce.iter().map(|(_, t)| t.id));
        }

        if !issues.is_empty() {
            return Err(SpecError { issues });
        }
        // Mode-change introductions are re-derived from the scenario at
        // execution; keep only the service tasks here.
        let app_tasks = app_tasks
            .into_iter()
            .filter(|(sref, _, _)| sref.is_some())
            .map(|(_, node, task)| (node, task))
            .collect();
        Ok(Lowered {
            nodes: self.nodes,
            link: self.link,
            seed: self.seed,
            horizon: self.horizon,
            policy: self.policy,
            costs: self.costs,
            kernel: self.kernel.clone(),
            middleware: self.middleware,
            scenario: self.scenario.clone(),
            static_scenario,
            app_tasks,
            groups,
            service_infos,
            telemetry: self.telemetry.clone(),
            profile: self.profile.clone(),
        })
    }
}

/// One replicated service, lowered: sorted members + the shared request
/// source (open-loop schedule or live closed loop).
#[derive(Debug)]
struct LoweredGroup {
    style: ReplicaStyle,
    members: Vec<u32>,
    load: GroupLoad,
    source: Rc<RefCell<dyn RequestSource>>,
    admission_period: Duration,
}

/// One registered service as the control plane will address it.
#[derive(Debug)]
enum LoweredService {
    /// Task-backed: its dispatcher task ids (and whether it starts
    /// standby).
    Tasks {
        name: String,
        ids: Vec<u32>,
        standby: bool,
    },
    /// Replicated: index into the lowered groups.
    Group { name: String, group: usize },
}

/// The flat runtime form a validated spec lowers into.
///
/// `scenario` is the spec's own plan (replayed at run time by the
/// canned [`PlanDriver`]); `static_scenario` additionally folds in the
/// drivers' [`ScenarioDriver::static_plan`]s and feeds the offline
/// analyses (feasibility, mode-change transitions, recovery cost
/// windows).
#[derive(Debug)]
struct Lowered {
    nodes: u32,
    link: LinkConfig,
    seed: u64,
    horizon: Duration,
    policy: Policy,
    costs: CostModel,
    kernel: KernelModel,
    middleware: MiddlewareConfig,
    scenario: ScenarioPlan,
    static_scenario: ScenarioPlan,
    app_tasks: Vec<(u32, Task)>,
    groups: Vec<LoweredGroup>,
    service_infos: Vec<LoweredService>,
    telemetry: Registry,
    profile: Profiler,
}

impl Lowered {
    /// Builds and runs the deployment, producing the report + events.
    ///
    /// `drivers` are the registered reactive controllers; the canned
    /// [`PlanDriver`] replaying the spec's own scenario always runs
    /// first, so the offline path is one driver among them.
    fn execute(
        self,
        drivers: Vec<Box<dyn ScenarioDriver>>,
        driver_tick: Duration,
        watchdog: Option<Watchdog>,
        span_cap: Option<usize>,
    ) -> Result<ClusterRun, SpecError> {
        let agent_config = self
            .middleware
            .agent_config(NodeId(0), self.nodes, &self.link);
        let detection_bound = agent_config.detection_bound(self.link.delay_max);
        let rejoin_bound = agent_config.rejoin_bound(self.link.delay_max);

        // ---- assemble the task set: application + mode-change targets +
        // middleware + per-recovery cost tasks ----
        let mut origin = Origins::default();
        let mut tasks: Vec<Task> = Vec::new();
        for (node, task) in &self.app_tasks {
            origin.insert(task.id, (*node, false));
            tasks.push(task.clone());
        }
        for script in self.static_scenario.mode_changes() {
            for (node, task) in &script.introduce {
                origin.insert(task.id, (*node, false));
                tasks.push(task.clone());
            }
        }
        for node in 0..self.nodes {
            for task in self.middleware.tasks_for(node) {
                origin.insert(task.id, (node, true));
                tasks.push(task);
            }
        }
        for (g, group) in self.groups.iter().enumerate() {
            for (node, task) in self.middleware.group_cost_tasks(
                g as u32,
                group.style,
                &group.members,
                &group.load,
                group.admission_period,
            ) {
                origin.insert(task.id, (node, true));
                tasks.push(task);
            }
        }
        // One serving + one installing cost task per scripted restart,
        // windowed to the rejoin interval so the transfer's CPU overhead
        // is charged where (and when) it occurs — and, conservatively,
        // folded into the stationary feasibility analyses. Reactive
        // (driver-injected) restarts have no offline existence and are
        // therefore not charged here — the inherent price of closing the
        // loop at run time.
        let transfer_span = self.middleware.recovery.transfer_bound(self.link.delay_max);
        let static_faults = self.static_scenario.fault_plan();
        let mut recovery_windows: Vec<(TaskId, Time, Time)> = Vec::new();
        for (k, (joiner, restart_at)) in static_faults.restarts().iter().enumerate() {
            // The protocol's server is the lowest surviving *view member*;
            // statically we approximate it as the lowest node that is up
            // at the restart and not itself mid-rejoin: each of its windows
            // starts after the restart or ended at least one rejoin bound
            // before it.
            let server = (0..self.nodes).find(|n| {
                NodeId(*n) != *joiner
                    && static_faults.windows_of(NodeId(*n)).iter().all(|w| {
                        w.crash_at > *restart_at
                            || w.restart_at
                                .is_some_and(|r| r + rejoin_bound <= *restart_at)
                    })
            });
            let Some(server) = server else { continue };
            for (node, task) in self
                .middleware
                .recovery_cost_tasks(server, joiner.0, k as u32)
            {
                origin.insert(task.id, (node, true));
                recovery_windows.push((task.id, *restart_at, *restart_at + transfer_span));
                tasks.push(task);
            }
        }
        match self.policy {
            Policy::RateMonotonic => hades_sched::assign_rm(&mut tasks),
            Policy::DeadlineMonotonic => hades_sched::assign_dm(&mut tasks),
            Policy::Edf | Policy::Manual => {}
        }

        // ---- mode-change transition analysis (Section 5 + Mos94) ----
        let mode_plans = self.mode_plans();

        // ---- per-node feasibility (naive vs cost-integrated) ----
        let feasibility: Vec<report::NodeFeasibility> = (0..self.nodes)
            .map(|node| self.node_feasibility(node, &tasks, &origin))
            .collect();

        // ---- one shared network + one shared engine ----
        // Scripted faults are no longer pre-compiled — the canned
        // PlanDriver injects them through the runtime control path at
        // time zero, exactly as a reactive driver would mid-run. The one
        // exception: faults already in force AT time zero must be seeded
        // before the zero-instant Start batch runs (a node scripted dead
        // at t = 0 must not emit its first heartbeat; a link cut from
        // t = 0 must drop it). The driver's re-injection of the same
        // window is a no-op (see `apply_network_op`), so no duplicate
        // transition or restart events arise.
        let mut initial_plan = FaultPlan::new();
        for (node, w) in static_faults.crash_windows() {
            if w.crash_at == Time::ZERO {
                initial_plan.add_crash(node, w.crash_at, w.restart_at);
            }
        }
        for p in self.static_scenario.partitions() {
            if p.from == Time::ZERO {
                initial_plan.add_cut(p.a, p.b, p.from, p.until);
                initial_plan.add_cut(p.b, p.a, p.from, p.until);
            }
        }
        let net = Network::homogeneous(
            self.nodes,
            self.link,
            SimRng::seed_from(self.seed ^ 0x004E_4554),
        )
        .with_fault_plan(initial_plan);
        let set = TaskSet::new(tasks).map_err(|e| SpecError {
            issues: vec![SpecIssue::InvalidTaskSet(e)],
        })?;
        let mut cfg = SimConfig::ideal(self.horizon);
        cfg.costs = self.costs;
        cfg.kernel = self.kernel.clone();
        cfg.link = self.link;
        cfg.seed = self.seed;
        cfg.trace = false;
        let mut sim = DispatchSim::with_network(set, cfg, net);
        // One probe per run feeds the registry's `net.msgs.*` / `net.bytes.*`
        // and the profiler's traffic matrix under the cluster's one
        // message-kind vocabulary: `net.msgs.agent.hb` and the matrix's
        // `agent.hb` rows count the same sends.
        sim.set_probe(Probe::new(
            &self.telemetry,
            &self.profile,
            cluster_msg_name,
            |label, class, tag| label == AGENT_LABEL && agent_is_heartbeat(class, tag),
        ));
        if self.policy == Policy::Edf {
            for node in 0..self.nodes {
                sim.set_policy(node, Box::new(EdfPolicy::new()));
            }
        }
        // A task introduced by one mode change and retired by a later one
        // gets both window edges; everything else keeps the full run on
        // its open side.
        let mut mode_windows: BTreeMap<TaskId, (Time, Time)> = BTreeMap::new();
        for plan in &mode_plans {
            for id in &plan.retire {
                mode_windows.entry(*id).or_insert((Time::ZERO, Time::MAX)).1 = plan.at;
            }
            for id in &plan.introduced {
                mode_windows.entry(*id).or_insert((Time::ZERO, Time::MAX)).0 = plan.release_at;
            }
        }
        for (id, (from, until)) in mode_windows {
            sim.set_activation_window(id, from, until);
        }
        for (id, from, until) in &recovery_windows {
            sim.set_activation_window(*id, *from, *until);
        }
        // Standby services: validated and charged, but never activated
        // until a driver admits them (the admission op re-opens the
        // window and re-anchors the chain).
        for info in &self.service_infos {
            if let LoweredService::Tasks {
                ids, standby: true, ..
            } = info
            {
                for id in ids {
                    sim.set_activation_window(TaskId(*id), Time::MAX, Time::MAX);
                }
            }
        }

        // ---- the reactive control plane: shared state + event taps ----
        // Actor ids: agents are 0..nodes (the protocol addresses them by
        // node id), group members follow, the control actor comes last.
        let node_reports = feasibility
            .into_iter()
            .enumerate()
            .map(|(node, feasibility)| report::NodeReport {
                node: node as u32,
                crashed_at: None,
                restarted_at: None,
                app_instances: 0,
                app_misses: 0,
                middleware_instances: 0,
                middleware_misses: 0,
                worst_app_response: None,
                feasibility,
            })
            .collect();
        let state = Rc::new(RefCell::new(ControlState::new(origin, node_reports)));
        let postbox = sim.postbox();
        let total_members: u32 = self.groups.iter().map(|g| g.members.len() as u32).sum();
        let control_id = ActorId(self.nodes + total_members);
        // The invariant watchdog's bounds come from the spec's own
        // timing model: a healthy group answers within `Δ + δmax`, a
        // healthy rejoin completes within the analytic rejoin bound.
        let watchdog: Option<Rc<RefCell<Watchdog>>> = watchdog.map(|mut dog| {
            let output_bound = self.middleware.group_delta(&self.link) + self.link.delay_max;
            dog.configure(&MonitorParams {
                output_bound,
                transfer_stall: rejoin_bound,
                silent_group: output_bound + output_bound,
            });
            Rc::new(RefCell::new(dog))
        });
        // One tap for the dispatcher, every agent and every group member:
        // the control plane and the watchdog read the same event — except
        // a settled instance, which is report input for the control plane
        // and no invariant's business. It only records and requests a
        // control wake — it never re-enters the engine.
        let tap = {
            let state = state.clone();
            let postbox = postbox.clone();
            let watchdog = watchdog.clone();
            ProtocolTap(Rc::new(move |now, ev| {
                let mut wake = state.borrow_mut().on_protocol_event(now, ev);
                if let Some(dog) = &watchdog {
                    if !matches!(ev, MonitorEvent::InstanceSettled { .. }) {
                        wake |= dog.borrow_mut().observe(now, ev);
                    }
                }
                if wake {
                    postbox.notify(control_id, 0);
                }
            }))
        };
        sim.set_tap(tap.clone());

        // ---- per-node middleware agents on the same engine ----
        let logs: Vec<Rc<RefCell<AgentLog>>> = (0..self.nodes)
            .map(|node| {
                let cfg = self
                    .middleware
                    .agent_config(NodeId(node), self.nodes, &self.link);
                let (agent, log) = NodeAgent::new(cfg);
                sim.add_actor(Box::new(agent.with_tap(tap.clone())));
                log
            })
            .collect();

        // ---- replication-group members, after the agents ----
        let delta = self.middleware.group_delta(&self.link);
        let mut next_actor = self.nodes;
        let mut group_logs: Vec<Vec<Rc<RefCell<GroupLog>>>> = Vec::new();
        let mut group_peers: Vec<Vec<(u32, ActorId)>> = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            let peers: Vec<(u32, ActorId)> = group
                .members
                .iter()
                .enumerate()
                .map(|(i, m)| (*m, ActorId(next_actor + i as u32)))
                .collect();
            let mut glogs = Vec::new();
            for (i, m) in group.members.iter().enumerate() {
                let (member, glog) = ReplicaGroup::new(
                    GroupConfig {
                        group: g as u32,
                        node: NodeId(*m),
                        members: group.members.clone(),
                        style: group.style,
                        request_period: group.load.request_period,
                        first_request_at: group.load.first_request_at,
                        source: Some(group.source.clone()),
                        delta,
                        attempts: group.load.attempts,
                        peers: peers.clone(),
                    },
                    Some(logs[*m as usize].clone()),
                );
                let id = sim.add_actor(Box::new(member.with_tap(tap.clone())));
                assert_eq!(
                    id, peers[i].1,
                    "group peer addressing drifted from actor registration order"
                );
                glogs.push(glog);
            }
            next_actor += group.members.len() as u32;
            group_logs.push(glogs);
            group_peers.push(peers);
        }

        // ---- the control actor: canned plan replay + reactive drivers ----
        let services_ctl: Vec<ServiceControl> = self
            .service_infos
            .iter()
            .map(|info| match info {
                LoweredService::Tasks { name, ids, .. } => ServiceControl {
                    name: name.clone(),
                    kind: ServiceControlKind::Tasks { ids: ids.clone() },
                },
                LoweredService::Group { name, group } => ServiceControl {
                    name: name.clone(),
                    kind: ServiceControlKind::Group {
                        source: self.groups[*group].source.clone(),
                        members: group_peers[*group].clone(),
                    },
                },
            })
            .collect();
        let mut all_drivers: Vec<Box<dyn ScenarioDriver>> =
            vec![Box::new(PlanDriver::new(self.scenario.clone()))];
        all_drivers.extend(drivers);
        let mode_marks: Vec<(Time, Time)> =
            mode_plans.iter().map(|p| (p.at, p.release_at)).collect();
        let control = ControlActor::new(
            all_drivers,
            state.clone(),
            services_ctl,
            self.nodes,
            Time::ZERO + self.horizon,
            driver_tick,
            mode_marks,
            watchdog.clone(),
        );
        let cid = sim.add_actor(Box::new(control));
        assert_eq!(cid, control_id, "control actor must register last");

        let run = sim.run();
        let network = sim.network_stats();

        // ---- fold everything into the report ----
        // Classification runs against the *applied* fault plan —
        // scripted replays and reactive injections alike — not the
        // static plan, so reactive faults are first-class citizens of
        // the report.
        let (applied, events, mut node_reports) = {
            let mut state = state.borrow_mut();
            state.release_held(Time::MAX);
            (
                std::mem::take(&mut state.applied),
                std::mem::take(&mut state.events),
                std::mem::take(&mut state.node_reports),
            )
        };
        debug_assert_eq!(
            applied.crash_windows(),
            sim.fault_plan().crash_windows(),
            "the report's outages must be the network's"
        );
        for r in &mut node_reports {
            let windows = applied.windows_of(NodeId(r.node));
            r.crashed_at = windows.first().map(|w| w.crash_at);
            r.restarted_at = windows.first().and_then(|w| w.restart_at);
        }
        let (detections, failovers, handoffs) = fold_events(&events, &applied);
        let heartbeats_seen = logs.iter().map(|l| l.borrow().heartbeats_seen).sum();
        let survivors: Vec<u32> = (0..self.nodes)
            .filter(|n| applied.windows_of(NodeId(*n)).is_empty())
            .collect();
        let view_history: Vec<(u32, Vec<u32>)> = survivors
            .first()
            .map(|n| logs[*n as usize].borrow().view_members())
            .unwrap_or_default();
        let views_agree = survivors
            .iter()
            .all(|n| logs[*n as usize].borrow().view_members() == view_history);
        let recoveries = self.recoveries(&logs, &applied, &detections);
        let mode_changes: Vec<report::ModeChangeRecord> = mode_plans
            .iter()
            .map(|p| {
                let first_new_completion = p
                    .introduced
                    .iter()
                    .filter_map(|t| run.outcome(*t)?.first_completion)
                    .min();
                report::ModeChangeRecord {
                    at: p.at,
                    carryover: p.carryover,
                    immediate_feasible: p.immediate_feasible,
                    safe_offset: p.safe_offset,
                    new_mode_released_at: p.release_at,
                    first_new_completion,
                    transition_latency: first_new_completion.map_or(p.safe_offset, |f| f - p.at),
                }
            })
            .collect();

        let (groups, request_folds) = self.group_reports(&group_logs, delta, &applied, &handoffs);
        let view_changes = view_history
            .last()
            .map(|(number, _)| *number)
            .unwrap_or_default();
        let pairs = (self.nodes as u64) * (self.nodes as u64 - 1);
        let words = hades_services::MemberSet::wire_words(self.nodes) as u64;
        let view_change = report::ViewChangeStats {
            transport: if self.middleware.delta_multicast_vc {
                "delta-multicast"
            } else {
                "flood"
            },
            messages: logs.iter().map(|l| l.borrow().vc_messages_sent).sum(),
            view_changes,
            flood_equivalent: (self.middleware.f as u64 + 1) * pairs * words * view_changes as u64,
            multicast_equivalent: pairs * words * view_changes as u64,
        };
        let join_retries = logs.iter().map(|l| l.borrow().join_retries).sum();

        // ---- fold the service logs into the telemetry registry ----
        // No-ops against the default disabled registry; with an enabled
        // one these land in the deterministic snapshot next to the
        // engine/dispatcher counters the run published through its probe.
        let t = &self.telemetry;
        t.counter("agents.heartbeats_sent")
            .add(logs.iter().map(|l| l.borrow().heartbeats_sent).sum());
        t.counter("agents.heartbeats_suppressed")
            .add(logs.iter().map(|l| l.borrow().heartbeats_suppressed).sum());
        t.counter("agents.heartbeats_seen").add(heartbeats_seen);
        t.counter("agents.vc_messages").add(view_change.messages);
        t.counter("agents.transfers_served")
            .add(logs.iter().map(|l| l.borrow().transfers_served).sum());
        t.counter("agents.chunks_sent")
            .add(logs.iter().map(|l| l.borrow().chunks_sent).sum());
        t.counter("agents.join_retries").add(join_retries);
        t.counter("recovery.bytes_transferred")
            .add(recoveries.iter().map(|r| r.bytes_transferred).sum());
        t.counter("recovery.log_entries_replayed")
            .add(recoveries.iter().map(|r| r.log_entries_replayed).sum());
        for gr in &groups {
            t.counter("group.messages").add(gr.messages);
            t.counter("group.requests_submitted").add(gr.submitted);
            t.counter("group.outputs").add(gr.outputs);
            t.counter("group.duplicates_suppressed")
                .add(gr.duplicates_suppressed);
            t.counter("group.replayed").add(gr.replayed);
        }

        let report = report::ClusterReport {
            nodes: self.nodes,
            seed: self.seed,
            finished_at: run.finished_at,
            node_reports,
            detections,
            detection_bound,
            view_history,
            views_agree,
            failovers,
            recoveries,
            scripted_rejoins: applied.restarts().len() as u32,
            rejoin_bound,
            mode_changes,
            groups,
            view_change,
            join_retries,
            heartbeats_seen,
            network,
            scheduler_cpu: run.scheduler_cpu,
            kernel_cpu: run.kernel_cpu,
        };
        // The event stream is exactly what the drivers saw, re-sorted
        // under the documented deterministic tie-break.
        let mut cluster_run = ClusterRun::new(report, events);
        if let Some(dog) = &watchdog {
            cluster_run = cluster_run.with_violations(dog.borrow().violations());
        }
        if self.telemetry.is_enabled() {
            let spans = self.build_spans(
                cluster_run.report(),
                cluster_run.events(),
                &request_folds,
                span_cap,
            );
            self.telemetry
                .counter("telemetry.spans_dropped")
                .add(spans.spans_dropped());
            cluster_run = cluster_run.with_telemetry(RunTelemetry {
                metrics: self.telemetry.snapshot(),
                spans,
            });
        }
        if self.profile.is_enabled() {
            cluster_run = cluster_run.with_profile(self.profile.report());
        }
        Ok(cluster_run)
    }

    /// Builds the protocol trace spans from the finished run's records.
    ///
    /// Spans are built post-run from the report's own records and the
    /// request fold the report was built from, so they cost nothing
    /// during simulation; every timestamp is the engine instant an agent
    /// or group member logged, ids are minted in a fixed record order
    /// (recoveries, failovers, group handoffs, view agreements, client
    /// requests), so the span log — like the metrics snapshot — is a
    /// deterministic function of spec and seed.
    fn build_spans(
        &self,
        report: &report::ClusterReport,
        events: &[crate::ClusterEvent],
        request_folds: &[RequestFold],
        span_cap: Option<usize>,
    ) -> SpanLog {
        let mut spans = match span_cap {
            Some(cap) => SpanLog::with_cap(cap),
            None => SpanLog::new(),
        };
        // Rejoins: one root per completed crash→restart→readmit cycle,
        // phased by the protocol's decomposition. The detect child hangs
        // off the same span: the survivors' suspicion is what makes the
        // later announce land in a view that excluded the joiner.
        for r in &report.recoveries {
            let end = r.restarted_at + r.rejoin_latency;
            let root = spans.root(
                "rejoin",
                &format!("node {} rejoin -> view {}", r.node, r.readmitted_view),
                Some(r.node),
                r.restarted_at,
                end,
            );
            if let Some(detected) = r.detected_at {
                spans.child(
                    root,
                    "detect",
                    "crash detected by survivors",
                    Some(r.node),
                    r.crashed_at,
                    detected,
                );
            }
            let announce_end = r.restarted_at + r.announce_latency;
            let transfer_end = announce_end + r.transfer_latency;
            spans.phase(root, "announce", r.restarted_at, announce_end);
            spans.phase(root, "transfer+replay", announce_end, transfer_end);
            spans.phase(
                root,
                "readmit",
                transfer_end,
                transfer_end + r.readmit_latency,
            );
        }
        // Failovers: crash → promoting view install, decomposed into the
        // detection and agreement components when a matching suspicion
        // exists.
        let mut failover_spans: Vec<(hades_telemetry::SpanId, u32, Time)> = Vec::new();
        for f in &report.failovers {
            let root = spans.root(
                "failover",
                &format!("primary {} -> {}", f.failed_primary, f.new_primary),
                Some(f.new_primary),
                f.crashed_at,
                f.taken_over_at,
            );
            let detected = report
                .detections
                .iter()
                .filter(|d| {
                    d.suspect == f.failed_primary
                        && d.suspected_at >= f.crashed_at
                        && d.suspected_at <= f.taken_over_at
                })
                .map(|d| d.suspected_at)
                .min();
            if let Some(det) = detected {
                spans.phase(root, "detect", f.crashed_at, det);
                spans.phase(root, "agree", det, f.taken_over_at);
            }
            failover_spans.push((root, f.failed_primary, f.crashed_at));
        }
        // Group-leadership takeovers: children of the failover that
        // evicted the old leader, roots when none did (driver-injected
        // retunes, restarts without a primary crash).
        for gr in &report.groups {
            for h in &gr.handoffs {
                let parent = failover_spans
                    .iter()
                    .filter(|(_, failed, at)| *failed == h.from && *at <= h.at)
                    .max_by_key(|(_, _, at)| *at)
                    .copied();
                let label = format!("group {} leadership {} -> {}", h.group, h.from, h.to);
                match parent {
                    Some((p, _, crashed_at)) => {
                        spans.child(p, "takeover", &label, Some(h.to), crashed_at, h.at);
                    }
                    None => {
                        spans.root("takeover", &label, Some(h.to), h.at, h.at);
                    }
                }
            }
        }
        // View agreements: each install spans from the suspicion that
        // (most recently) preceded it to the first member's install.
        let mut last_detect: Option<Time> = None;
        for e in events {
            match e {
                crate::ClusterEvent::Detected { at, .. } => last_detect = Some(*at),
                crate::ClusterEvent::ViewInstalled {
                    number,
                    members,
                    at,
                } => {
                    let start = last_detect.filter(|d| *d <= *at).unwrap_or(*at);
                    spans.root(
                        "view",
                        &format!("view {} ({} members)", number, members.len()),
                        None,
                        start,
                        *at,
                    );
                }
                _ => {}
            }
        }
        // Client requests through the Δ-atomic multicast: submission →
        // first client-visible output, phased order → deliver → emit.
        for (g, fold) in request_folds.iter().enumerate() {
            for (id, sub) in &fold.submitted_at {
                let Some(out) = fold.output_at.get(id) else {
                    continue;
                };
                let root = spans.root(
                    "request",
                    &format!("group {g} request {id}"),
                    None,
                    *sub,
                    (*out).max(*sub),
                );
                if let Some((ts, delivered)) = fold.ordered.get(id) {
                    let ts = (*ts).max(*sub);
                    let delivered = (*delivered).max(ts);
                    spans.phase(root, "order", *sub, ts);
                    spans.phase(root, "deliver", ts, delivered);
                    spans.phase(root, "emit", delivered, (*out).max(delivered));
                }
            }
        }
        spans
    }

    /// Folds every group's member logs into its report section; on a
    /// telemetry run the request folds it read go on to the span builder
    /// (a bare run keeps none and skips the Δ-order part).
    fn group_reports(
        &self,
        group_logs: &[Vec<Rc<RefCell<GroupLog>>>],
        delta: Duration,
        applied: &FaultPlan,
        handoffs: &[report::GroupHandoff],
    ) -> (Vec<report::GroupReport>, Vec<RequestFold>) {
        let mut out = Vec::new();
        let mut folds = Vec::new();
        let spans_wanted = self.telemetry.is_enabled();
        let response_hist = self.telemetry.histogram("group.response_ns");
        for (g, (group, glogs)) in self.groups.iter().zip(group_logs.iter()).enumerate() {
            let logs: Vec<Ref<'_, GroupLog>> = glogs.iter().map(|l| l.borrow()).collect();
            // Reference order: the first member never down (reactive
            // injections included); when every member restarted at some
            // point, the longest delivery log stands in (identical full
            // sequences cannot be demanded of restarted members, so
            // agreement then means subsequence consistency, never a
            // vacuous true).
            let full_time: Vec<usize> = group
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| applied.windows_of(NodeId(**m)).is_empty())
                .map(|(i, _)| i)
                .collect();
            let reference_idx = full_time.first().copied().unwrap_or_else(|| {
                (0..logs.len())
                    .max_by_key(|i| logs[*i].delivered.len())
                    .unwrap_or(0)
            });
            let reference = logs[reference_idx].delivery_order();
            let order_consistent = logs.iter().all(|l| l.order_consistent_with(&reference));
            let order_agreement = if full_time.is_empty() {
                order_consistent
            } else {
                full_time
                    .iter()
                    .all(|i| logs[*i].delivery_order() == reference)
            };
            let fold = RequestFold::of(&logs, spans_wanted);
            let (submitted_at, output_at) = (&fold.submitted_at, &fold.output_at);
            let outputs = output_at.len() as u64;
            let output_bound = delta + self.link.delay_max;
            let mut on_time = 0u64;
            let mut delayed = 0u64;
            let mut worst: Option<Duration> = None;
            let mut response_ns: Vec<u64> = Vec::with_capacity(output_at.len());
            for (id, at) in output_at {
                let Some(sub) = submitted_at.get(id) else {
                    continue;
                };
                let latency = *at - *sub;
                response_hist.record(latency.as_nanos());
                response_ns.push(latency.as_nanos());
                worst = Some(worst.map_or(latency, |w| w.max(latency)));
                if latency <= output_bound {
                    on_time += 1;
                } else {
                    delayed += 1;
                }
            }
            response_ns.sort_unstable();
            // Client-visible duplicates: surplus emissions for active
            // replication are the redundant copies the voter absorbs
            // (the members' own per-vote suppression counters observe
            // each copy multiple times and would overstate it), not
            // duplicates.
            let surplus = fold.emissions - outputs;
            let (duplicate_outputs, duplicates_suppressed) = match group.style {
                ReplicaStyle::Active => (0, surplus),
                _ => (surplus, logs.iter().map(|l| l.suppressed).sum()),
            };
            let abandoned = group.source.borrow().abandoned();
            self.telemetry
                .counter("group.requests_abandoned")
                .add(abandoned);
            self.telemetry
                .counter("group.late_discards")
                .add(logs.iter().map(|l| l.late_discards).sum());
            out.push(report::GroupReport {
                group: g as u32,
                style_name: group.style.name(),
                members: group.members.clone(),
                submitted: submitted_at.len() as u64,
                delivered: reference.len() as u64,
                order_agreement,
                order_consistent,
                outputs,
                duplicate_outputs,
                duplicates_suppressed,
                handoffs: handoffs
                    .iter()
                    .filter(|h| h.group == g as u32)
                    .copied()
                    .collect(),
                delivery_bound: delta,
                output_bound,
                on_time_outputs: on_time,
                delayed_outputs: delayed,
                worst_latency: worst,
                messages: logs.iter().map(|l| l.messages_sent).sum(),
                replayed: logs.iter().map(|l| l.replayed).sum(),
                catchups: logs.iter().map(|l| l.catchups).sum(),
                vote_mismatches: logs.iter().map(|l| l.vote_mismatches).sum(),
                abandoned,
                response_ns,
            });
            if spans_wanted {
                folds.push(fold);
            }
        }
        (out, folds)
    }

    /// Analyzes every scripted mode change: per affected node, the
    /// retiring tasks' carry-over against the entering tasks' demand
    /// (cost-integrated), yielding the safe release offset the runtime
    /// applies.
    fn mode_plans(&self) -> Vec<ModePlan> {
        let integrated_cfg = EdfAnalysisConfig::with_platform(self.costs, self.kernel.clone());
        // Retired tasks may come from the initial application set or from
        // an earlier mode change's introductions.
        let known: Vec<&Task> = self
            .app_tasks
            .iter()
            .map(|(_, t)| t)
            .chain(
                self.static_scenario
                    .mode_changes()
                    .iter()
                    .flat_map(|s| s.introduce.iter().map(|(_, t)| t)),
            )
            .collect();
        self.static_scenario
            .mode_changes()
            .iter()
            .map(|script| {
                let retired: Vec<&Task> = known
                    .iter()
                    .copied()
                    .filter(|t| script.retire.contains(&t.id))
                    .collect();
                let mut affected: Vec<u32> = retired
                    .iter()
                    .filter_map(|t| t.heug.eus().first().map(|e| e.processor().0))
                    .chain(script.introduce.iter().map(|(n, _)| *n))
                    .collect();
                affected.sort_unstable();
                affected.dedup();
                let mut carryover = Duration::ZERO;
                let mut immediate_feasible = true;
                let mut safe_offset = Duration::ZERO;
                for node in affected {
                    let old: Vec<SpuriTask> = retired
                        .iter()
                        .filter(|t| {
                            t.heug
                                .eus()
                                .first()
                                .is_some_and(|e| e.processor().0 == node)
                        })
                        .filter_map(|t| spuri_of(t, node))
                        .collect();
                    let new: Vec<SpuriTask> = script
                        .introduce
                        .iter()
                        .filter(|(n, _)| *n == node)
                        .filter_map(|(n, t)| spuri_of(t, *n))
                        .collect();
                    let r = ModeChange::new(old, new).analyze(&integrated_cfg);
                    carryover = carryover.saturating_add(r.carryover);
                    immediate_feasible &= r.immediate_feasible;
                    safe_offset = safe_offset.max(r.safe_offset);
                }
                let release_at = if safe_offset == Duration::MAX {
                    Time::MAX // infeasible new mode: never released
                } else {
                    (script.at + safe_offset).min(Time::MAX)
                };
                ModePlan {
                    at: script.at,
                    release_at,
                    retire: script.retire.clone(),
                    introduced: script.introduce.iter().map(|(_, t)| t.id).collect(),
                    carryover,
                    immediate_feasible,
                    safe_offset,
                }
            })
            .collect()
    }

    /// Joins each completed rejoin cycle with its applied down window and
    /// the survivors' first detection of the crash.
    fn recoveries(
        &self,
        logs: &[Rc<RefCell<AgentLog>>],
        applied: &FaultPlan,
        detections: &[report::DetectionRecord],
    ) -> Vec<report::RecoveryRecord> {
        let mut out = Vec::new();
        for node in 0..self.nodes {
            let rejoins = logs[node as usize].borrow().rejoins.clone();
            for rj in rejoins {
                let Some(crashed_at) = applied
                    .windows_of(NodeId(node))
                    .iter()
                    .find(|w| w.restart_at == Some(rj.restarted_at))
                    .map(|w| w.crash_at)
                else {
                    continue;
                };
                let detected_at = detections
                    .iter()
                    .filter(|d| d.suspect == node && d.observer != node)
                    .map(|d| d.suspected_at)
                    .find(|at| *at >= crashed_at && *at < rj.restarted_at);
                out.push(report::RecoveryRecord {
                    node,
                    crashed_at,
                    restarted_at: rj.restarted_at,
                    detected_at,
                    detect_latency: detected_at.map(|d| d - crashed_at),
                    announce_latency: rj.announce_latency(),
                    transfer_latency: rj.transfer_latency(),
                    readmit_latency: rj.readmit_latency(),
                    rejoin_latency: rj.latency(),
                    readmitted_view: rj.view,
                    views_traversed: rj.views_traversed,
                    bytes_transferred: rj.bytes,
                    chunks: rj.chunks,
                    chunks_resent: rj.chunks_resent,
                    log_entries_replayed: rj.log_entries,
                    delta: rj.delta,
                });
            }
        }
        out.sort_by_key(|r| (r.restarted_at, r.node));
        out
    }

    fn node_feasibility(
        &self,
        node: u32,
        tasks: &[Task],
        origin: &Origins,
    ) -> report::NodeFeasibility {
        let mut spuri: Vec<SpuriTask> = Vec::new();
        let mut app_util = 0u32;
        let mut mw_util = 0u32;
        for task in tasks {
            let Some((home, is_mw)) = origin.get(task.id) else {
                continue;
            };
            if home != node {
                continue;
            }
            let Some(period) = task.arrival.min_separation() else {
                continue;
            };
            let c = task.wcet();
            let permille = (c.as_nanos() * 1000 / period.as_nanos().max(1)) as u32;
            if is_mw {
                mw_util += permille;
            } else {
                app_util += permille;
            }
            spuri.push(SpuriTask::independent(
                task.id,
                format!("n{node}.{}", task.name()),
                c,
                task.deadline,
                period,
            ));
        }
        // Utilization figures come from the EDF demand analysis (they are
        // load measures, not verdicts); the feasibility verdicts use the
        // test matching the installed policy.
        let integrated_cfg = EdfAnalysisConfig::with_platform(self.costs, self.kernel.clone());
        let integrated = edf_feasible(&spuri, &integrated_cfg);
        let (naive_feasible, integrated_feasible) = match self.policy {
            Policy::RateMonotonic | Policy::DeadlineMonotonic => {
                // Response-time analysis over the fixed-priority order the
                // policy installs (RM: by period; DM: by deadline).
                let mut rta: Vec<RtaTask> = spuri
                    .iter()
                    .map(|t| RtaTask {
                        c: t.total_c(),
                        period: t.pseudo_period,
                        deadline: t.deadline,
                        blocking: Duration::ZERO,
                    })
                    .collect();
                match self.policy {
                    Policy::RateMonotonic => rta.sort_by_key(|t| t.period),
                    _ => rta.sort_by_key(|t| t.deadline),
                }
                (
                    rta_feasible(&rta, &CostModel::zero(), &KernelModel::none()).feasible,
                    rta_feasible(&rta, &self.costs, &self.kernel).feasible,
                )
            }
            Policy::Edf | Policy::Manual => (
                edf_feasible(&spuri, &EdfAnalysisConfig::naive()).feasible,
                integrated.feasible,
            ),
        };
        report::NodeFeasibility {
            naive_feasible,
            integrated_feasible,
            app_utilization_permille: app_util,
            middleware_utilization_permille: mw_util,
            inflated_utilization_permille: (integrated.utilization * 1000.0).round() as u32,
        }
    }
}

/// The report sections read from the event stream the drivers saw:
/// detections (classified online, sorted by instant, observer and
/// suspect), failovers in takeover order, and group handoffs (sorted by
/// instant and new leader). A failover's crash is the applied window the
/// old primary was down in when its successor took over.
fn fold_events(
    events: &[crate::ClusterEvent],
    applied: &FaultPlan,
) -> (
    Vec<report::DetectionRecord>,
    Vec<report::FailoverRecord>,
    Vec<report::GroupHandoff>,
) {
    let (mut detections, mut failovers, mut handoffs) = (Vec::new(), Vec::new(), Vec::new());
    for e in events {
        match *e {
            crate::ClusterEvent::Detected {
                observer,
                suspect,
                at,
                latency,
            } => detections.push(report::DetectionRecord {
                suspect,
                observer,
                crashed_at: latency
                    .map(|l| at - l)
                    .or_else(|| applied.crash_time(NodeId(suspect))),
                suspected_at: at,
                latency,
            }),
            crate::ClusterEvent::FailedOver {
                failed_primary,
                new_primary,
                at,
            } => {
                if let Some(crashed_at) = applied.down_since(NodeId(failed_primary), at) {
                    failovers.push(report::FailoverRecord {
                        failed_primary,
                        crashed_at,
                        new_primary,
                        taken_over_at: at,
                        latency: at - crashed_at,
                    });
                }
            }
            crate::ClusterEvent::Handoff {
                group,
                from,
                to,
                at,
            } => handoffs.push(report::GroupHandoff {
                group,
                from,
                to,
                at,
            }),
            _ => {}
        }
    }
    detections.sort_by_key(|d| (d.suspected_at, d.observer, d.suspect));
    handoffs.sort_by_key(|h| (h.at, h.to));
    (detections, failovers, handoffs)
}

/// What one group's members logged about its client requests, folded
/// once per run: the report's request counts and latencies and the
/// `request` spans are both read from it.
#[derive(Debug, Default)]
struct RequestFold {
    /// First submission per request id.
    submitted_at: BTreeMap<u64, Time>,
    /// Δ-order timestamp and first delivery per request id — only the
    /// spans read it, so it is folded only when they are wanted.
    ordered: BTreeMap<u64, (Time, Time)>,
    /// First client-visible output per request id.
    output_at: BTreeMap<u64, Time>,
    /// Outputs emitted over all members, redundant copies included.
    emissions: u64,
}

impl RequestFold {
    fn of(member_logs: &[Ref<'_, GroupLog>], spans_wanted: bool) -> Self {
        let mut fold = RequestFold::default();
        for log in member_logs {
            for (id, at) in &log.submitted {
                let e = fold.submitted_at.entry(*id).or_insert(*at);
                *e = (*e).min(*at);
            }
            if spans_wanted {
                for (id, ts, delivered_at) in &log.delivered {
                    let e = fold.ordered.entry(*id).or_insert((*ts, *delivered_at));
                    e.1 = e.1.min(*delivered_at);
                }
            }
            for (id, at) in &log.emitted {
                fold.emissions += 1;
                let e = fold.output_at.entry(*id).or_insert(*at);
                *e = (*e).min(*at);
            }
        }
        fold
    }
}

/// One analyzed mode change, as applied by the runtime.
#[derive(Debug, Clone)]
struct ModePlan {
    at: Time,
    release_at: Time,
    retire: Vec<TaskId>,
    introduced: Vec<TaskId>,
    carryover: Duration,
    immediate_feasible: bool,
    safe_offset: Duration,
}

/// The Spuri view of a single-node task, for the transition analysis.
fn spuri_of(task: &Task, node: u32) -> Option<SpuriTask> {
    let period = task.arrival.min_separation()?;
    Some(SpuriTask::independent(
        task.id,
        format!("n{node}.{}", task.name()),
        task.wcet(),
        task.deadline,
        period,
    ))
}

/// Builds the single-unit HEUG of a convenience task.
pub(crate) fn single_heug(name: &str, node: u32, wcet: Duration) -> hades_task::Heug {
    hades_task::Heug::single(hades_task::CodeEu::new(
        name,
        wcet,
        hades_task::ProcessorId(node),
    ))
    .expect("single-unit HEUG cannot fail validation")
}
