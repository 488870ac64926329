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
    ControlActor, ControlState, DeliveryFold, Origins, RequestFold, ScenarioDriver, ServiceControl,
    ServiceControlKind,
};
use crate::events::ClusterRun;
use crate::middleware::{GroupLoad, MiddlewareConfig, MIDDLEWARE_TASK_BASE};
use crate::report;
use crate::scenario::{ModeChangeScript, ScenarioPlan};
use crate::workload::{ConstantRate, Workload};
use hades_dispatch::{CostModel, DispatchSim, RunReport, SimConfig};
use hades_sched::analysis::rta::{rta_feasible, RtaTask};
use hades_sched::{edf_feasible, EdfAnalysisConfig, ModeChange, Policy};
use hades_services::actors::{
    agent_is_heartbeat, agent_msg_name, AgentLog, NodeAgent, AGENT_LABEL,
};
use hades_services::group::{
    group_msg_name, GroupConfig, GroupLog, ReplicaGroup, RequestSource, GROUP_LABEL,
};
use hades_services::ReplicaStyle;
use hades_sim::mux::ActorId;
use hades_sim::{FaultOp, FaultPlan, KernelModel, LinkConfig, Network, NodeId, SimRng};
use hades_task::spuri::SpuriTask;
use hades_task::task::TaskSetError;
use hades_task::{Task, TaskId, TaskSet};
use hades_telemetry::monitor::{MonitorEvent, MonitorParams, ProtocolTap};
use hades_telemetry::{Probe, Profiler, Registry, RunTelemetry, SpanLog, Watchdog};
use hades_time::{Duration, Time};
use std::borrow::Cow;
use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

mod execute;
mod fold;
mod lower;

/// The largest cluster the integrated runtime deploys. The membership
/// protocols address [`hades_services::memberset::MAX_NODES`] nodes;
/// the tighter runtime ceiling keeps the reserved task-id tiers
/// ([`MIDDLEWARE_TASK_BASE`] and up) disjoint.
pub const MAX_CLUSTER_NODES: u32 = 1_024;

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
    /// A workload's client-side request timeout is zero
    /// ([`crate::ClosedLoop::with_timeout`]): it would abandon every
    /// request.
    ZeroTimeout {
        /// The offending service.
        service: ServiceRef,
    },
    /// A workload generated a schedule that is not strictly increasing.
    NonMonotoneWorkload {
        /// The offending service.
        service: ServiceRef,
    },
    /// A workload was given to a service that is not replicated: only a
    /// replica group serves a client request stream
    /// ([`ServiceSpec::workload`]).
    WorkloadWithoutGroup {
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
            SpecIssue::ZeroTimeout { service } => {
                write!(f, "{service}: zero request timeout")
            }
            SpecIssue::NonMonotoneWorkload { service } => {
                write!(f, "{service}: workload instants not strictly increasing")
            }
            SpecIssue::WorkloadWithoutGroup { service } => {
                write!(f, "{service}: only replicated services take a workload")
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
    /// Borrowed for a literal name: nothing is copied until a
    /// [`ServiceRef`] names the service.
    name: Cow<'static, str>,
    kind: ServiceKind,
    standby: bool,
    /// [`ServiceSpec::workload`] was called on a service that is not
    /// replicated; validation reports it.
    stray_workload: bool,
}

impl ServiceSpec {
    /// A replicated group: `members` run `style`, serving the client
    /// request stream described by `load` — by default one request per
    /// [`GroupLoad::request_period`] from
    /// [`GroupLoad::first_request_at`]; override the stream shape with
    /// [`ServiceSpec::workload`].
    pub fn replicated(
        name: impl Into<Cow<'static, str>>,
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
            stray_workload: false,
        }
    }

    /// Replaces a replicated service's request stream. Only replicated
    /// services serve one: on any other service the workload is dropped
    /// and validation reports [`SpecIssue::WorkloadWithoutGroup`].
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        match &mut self.kind {
            ServiceKind::Replicated { workload: w, .. } => *w = workload,
            _ => self.stray_workload = true,
        }
        self
    }

    /// A single-unit periodic application task on `node`, with deadline
    /// equal to its period. Task ids are auto-assigned (ascending over
    /// the spec's periodic services, skipping explicitly taken ids).
    pub fn periodic(
        name: impl Into<Cow<'static, str>>,
        node: u32,
        wcet: Duration,
        period: Duration,
    ) -> Self {
        ServiceSpec {
            name: name.into(),
            kind: ServiceKind::Periodic { node, wcet, period },
            standby: false,
            stray_workload: false,
        }
    }

    /// A raw HEUG application task on `node` (every elementary unit must
    /// be homed on that node's processor).
    pub fn task(name: impl Into<Cow<'static, str>>, node: u32, task: Task) -> Self {
        ServiceSpec {
            name: name.into(),
            kind: ServiceKind::Task { node, task },
            standby: false,
            stray_workload: false,
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
            name: self.name.to_string(),
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

    /// Installs the offline failure scenario. The offline analyses read
    /// it (feasibility, mode-change transitions, recovery cost windows),
    /// and at run time the control plane replays its fault ops at start —
    /// through [`crate::ControlHandle::inject`], as reactive drivers do,
    /// before any registered driver starts.
    pub fn scenario(mut self, scenario: ScenarioPlan) -> Self {
        self.scenario = scenario;
        self
    }

    /// Registers a during-run [`ScenarioDriver`]: it receives every
    /// [`crate::ClusterEvent`] at its engine timestamp plus a tick every
    /// millisecond of engine time, and can inject faults,
    /// retire/admit services and retune workloads through its
    /// [`crate::ControlHandle`]. Drivers run in registration order.
    pub fn driver(mut self, driver: Box<dyn ScenarioDriver>) -> Self {
        self.drivers.push(driver);
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
    /// a queue-depth/event-mix timeline per engine millisecond, and
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

    /// Validates the whole spec, collecting every finding. It only
    /// checks: it builds no task, HEUG, request source or lowered
    /// service, and [`ClusterSpec::run`] runs the same checks once more
    /// before it lowers.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] listing every [`SpecIssue`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.check().map(|_| ())
    }

    /// Validates, lowers and runs the deployment.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] listing every validation finding, or the task-set
    /// assembly failure.
    pub fn run(self) -> Result<ClusterRun, SpecError> {
        self.lower()?.execute()
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

/// One registered service as the control plane will address it; the
/// `k`-th is the spec's `k`-th service, which keeps its name.
#[derive(Debug)]
enum LoweredService {
    /// Task-backed: its dispatcher task ids (and whether it starts
    /// standby).
    Tasks { ids: Vec<u32>, standby: bool },
    /// Replicated: index into the lowered groups.
    Group { group: usize },
}

/// The flat runtime form a validated spec lowers into, kept with the
/// spec it was lowered from: its scenario feeds both the offline
/// analyses (feasibility, mode-change transitions, recovery cost
/// windows) and the control actor's replay at start.
#[derive(Debug)]
struct Lowered {
    spec: ClusterSpec,
    app_tasks: Vec<(u32, Task)>,
    groups: Vec<LoweredGroup>,
    service_infos: Vec<LoweredService>,
}

/// What a finished run leaves for the report fold.
struct Finished {
    run: RunReport,
    sim: DispatchSim,
    state: Rc<RefCell<ControlState>>,
    logs: Vec<Rc<RefCell<AgentLog>>>,
    group_logs: Vec<Vec<Rc<RefCell<GroupLog>>>>,
    mode_plans: Vec<ModePlan>,
    watchdog: Option<Rc<RefCell<Watchdog>>>,
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

/// Builds the single-unit HEUG of a convenience task.
pub(crate) fn single_heug(name: &str, node: u32, wcet: Duration) -> hades_task::Heug {
    hades_task::Heug::single(hades_task::CodeEu::new(
        name,
        wcet,
        hades_task::ProcessorId(node),
    ))
    .expect("single-unit HEUG cannot fail validation")
}
