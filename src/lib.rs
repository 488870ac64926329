//! # HADES — middleware for distributed safety-critical real-time applications
//!
//! A Rust reproduction of *"HADES: A Middleware Support for Distributed
//! Safety-Critical Real-Time Applications"* (Anceaume, Cabillic, Chevochot,
//! Puaut — INRIA RR-3280 / ICDCS 1998).
//!
//! HADES is a toolkit of flexible services for building distributed
//! safety-critical real-time applications over off-the-shelf components.
//! Its two design pillars, both reproduced here, are:
//!
//! 1. **Separation of application-dedicated from generic services** — the
//!    scheduling *policy* (RM, EDF, planning-based, ...) is isolated from a
//!    generic *dispatcher* and a set of robustness services (reliable
//!    communication, clock synchronization, fault detection, replication,
//!    consensus, stable storage, dependency tracking).
//! 2. **Precise cost information** — every middleware activity has a known
//!    worst-case execution time that feasibility tests fold in, so an
//!    accepted task set stays schedulable on the real platform.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`hades_time`] | tick-exact time, drifting clocks, LL88 averaging core |
//! | [`hades_sim`] | deterministic DES engine, bounded-delay faulty network, kernel activity model, traces |
//! | [`hades_task`] | the HEUG task model (Section 3), arrival laws, resources, condition variables, Spuri translation (Figure 3) |
//! | [`hades_dispatch`] | the generic dispatcher: run queue, preemption thresholds, PCP/SRP, notifications, cost charging, monitoring |
//! | [`hades_sched`] | RM/DM/EDF/Spring policies and the feasibility analyses of Section 5 |
//! | [`hades_services`] | clock sync, reliable broadcast/multicast, crash detection, consensus, replication, storage, dependency tracking |
//! | [`hades_cluster`] | the integrated multi-node runtime: N per-node stacks (dispatcher + policy + services) over one shared engine and network |
//! | [`hades_chaos`] | gray-failure fault fabric programs and the invariant-guided scenario fuzzer (generate → watchdog oracle → shrink → corpus) |
//! | [`hades_fabric`] | sharded service fabric: consistent-hash shard placement, population-scale load classes (10⁶ clients as rate multipliers), rebalancing director, per-shard latency report |
//! | [`hades_telemetry`] | the one observation tap (protocol events and dispatcher alarms) and invariant watchdog, engine-time metrics registry, protocol trace spans, deterministic profiler (time/traffic attribution, flamegraph export), JSONL export — near-free when disabled |
//!
//! ## Quickstart
//!
//! ```
//! use hades::prelude::*;
//!
//! // A 100 µs control job every millisecond, scheduled by EDF.
//! let task = Task::new(
//!     TaskId(0),
//!     Heug::single(CodeEu::new("control", Duration::from_micros(100), ProcessorId(0)))?,
//!     ArrivalLaw::Periodic(Duration::from_millis(1)),
//!     Duration::from_millis(1),
//! );
//! let report = HadesNode::new()
//!     .task(task)
//!     .policy(Policy::Edf)
//!     .horizon(Duration::from_millis(10))
//!     .run()?;
//! assert!(report.all_deadlines_met());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use hades_chaos;
pub use hades_cluster;
pub use hades_dispatch;
pub use hades_fabric;
pub use hades_sched;
pub use hades_services;
pub use hades_sim;
pub use hades_task;
pub use hades_telemetry;
pub use hades_time;

mod system;

pub use system::{HadesNode, Policy, SystemError};

/// One-stop imports for building and running a HADES deployment.
pub mod prelude {
    pub use crate::system::{HadesNode, Policy, SystemError};
    pub use hades_chaos::{
        ChaosFuzzer, ChaosOp, ChaosProgram, CorpusScenario, FuzzConfig, ProgramDriver, ViolationKey,
    };
    pub use hades_cluster::{
        Bursty, ClosedLoop, ClusterEvent, ClusterReport, ClusterRun, ClusterSpec, ConstantRate,
        ControlHandle, GroupLoad, GroupReport, MiddlewareConfig, ModeChangeRecord, RecoveryRecord,
        ScenarioDriver, ScenarioPlan, ServiceSpec, SpecError, SpecIssue, TraceReplay,
        ViewChangeStats, Workload,
    };
    pub use hades_dispatch::{
        CostModel, DispatchSim, ExecTimeModel, MissPolicy, ResourceProtocol, RunReport, SimConfig,
    };
    pub use hades_fabric::{
        Arrival, FabricDirector, FabricError, FabricReport, FabricRun, FabricSpec, HashRing,
        LoadClass, PopulationWorkload, ShardRouter, ShardStats,
    };
    pub use hades_sched::{
        assign_dm, assign_rm, edf_feasible, EdfAnalysisConfig, EdfPolicy, ModeChange,
        SpringPlanner, SpringPolicy,
    };
    pub use hades_services::ReplicaStyle;
    pub use hades_sim::{FaultPlan, KernelModel, LinkConfig, Network, NodeId, SimRng};
    pub use hades_task::prelude::*;
    pub use hades_task::spuri::SpuriTask;
    pub use hades_telemetry::{
        MonitorEvent, ProfileReport, Profiler, ProtocolTap, Registry, RunTelemetry, Violation,
        Watchdog,
    };
    pub use hades_time::{Duration, Time};
}
