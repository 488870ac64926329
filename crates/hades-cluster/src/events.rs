//! Typed event streams of a cluster run — emitted **online**.
//!
//! The aggregate [`ClusterReport`] answers "how did the run go" with
//! counters and worst cases; tests and benches that care about *order* —
//! did detection precede the view change, did the handoff land between
//! exclusion and re-admission — had to scrape those aggregates. A
//! [`ClusterRun`] carries both: the report, and a time-ordered
//! [`ClusterEvent`] stream to assert sequences on directly.
//!
//! Since the reactive-control-plane redesign the stream is no longer
//! synthesized from logs after the run: every event is emitted **at its
//! engine timestamp** through the protocol tap
//! ([`hades_telemetry::monitor::ProtocolTap`], fed by every agent, group
//! member and the dispatcher), and delivered to the registered
//! [`ScenarioDriver`](crate::ScenarioDriver)s *during* the run; the
//! stream returned here is the accumulation of exactly those deliveries.
//!
//! # Ordering contract
//!
//! The stream is sorted by instant. Simultaneous events (same
//! timestamp) are ordered by [`ClusterEvent::sort_node`] — the node the
//! event concerns, with cluster-wide events last — then by
//! [`ClusterEvent::kind`] in declaration order, then by emission order
//! (which is itself deterministic). Driver callbacks observe events in
//! emission order; the final stream re-sorts under this contract so
//! stream assertions are reproducible across refactorings of the
//! emission sites.

use crate::report::ClusterReport;
use hades_task::TaskId;
use hades_telemetry::monitor::Violation;
use hades_telemetry::{ProfileReport, RunTelemetry};
use hades_time::{Duration, Time};

/// One externally visible transition of a cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// An observer suspected a node.
    Detected {
        /// The observing node.
        observer: u32,
        /// The suspected node.
        suspect: u32,
        /// When the observer suspected it.
        at: Time,
        /// Detection latency; `None` for false suspicions.
        latency: Option<Duration>,
    },
    /// A new view was installed (emitted at the **first** member's
    /// install; per-member install instants stay in the report's agent
    /// aggregates).
    ViewInstalled {
        /// Monotone view number.
        number: u32,
        /// Agreed members, ascending.
        members: Vec<u32>,
        /// First install instant across the members.
        at: Time,
    },
    /// A crashed primary's role moved to the next member.
    FailedOver {
        /// The crashed primary.
        failed_primary: u32,
        /// The promoted member.
        new_primary: u32,
        /// When the new primary installed the promoting view.
        at: Time,
    },
    /// A replication group's leadership moved.
    Handoff {
        /// The group.
        group: u32,
        /// The member that held leadership before.
        from: u32,
        /// The member that took over.
        to: u32,
        /// The takeover instant.
        at: Time,
    },
    /// A restarted node completed its rejoin (re-admitted to the view).
    RejoinCompleted {
        /// The recovered node.
        node: u32,
        /// The re-admitting view number.
        view: u32,
        /// The re-admission instant.
        at: Time,
        /// End-to-end restart → re-admission latency.
        latency: Duration,
    },
    /// A scripted mode change released its new task set.
    ModeChanged {
        /// The scripted switch instant.
        at: Time,
        /// When the new mode's tasks were released (`at` + safe offset).
        released_at: Time,
    },
    /// An application or middleware instance missed its deadline on a
    /// live node.
    DeadlineMiss {
        /// The node the instance ran on.
        node: u32,
        /// The task.
        task: TaskId,
        /// Whether the task is injected middleware (vs application).
        middleware: bool,
        /// The missed deadline.
        at: Time,
    },
    /// A control-plane driver retired a service from the running
    /// deployment.
    ServiceRetired {
        /// The service's registration index.
        service: u32,
        /// The retirement instant.
        at: Time,
    },
    /// A control-plane driver admitted a (standby) service into the
    /// running deployment.
    ServiceAdmitted {
        /// The service's registration index.
        service: u32,
        /// The admission instant.
        at: Time,
    },
    /// A control-plane driver retuned a replicated service's live
    /// workload.
    WorkloadRetuned {
        /// The service's registration index.
        service: u32,
        /// New pacing in permille of the nominal rate (1000 = nominal,
        /// 0 = stopped).
        permille: u32,
        /// The retune instant.
        at: Time,
    },
    /// A sharded fabric moved a shard between placements (rebalancing
    /// after a failure): the owning replica group changed. Emitted by
    /// fabric-level drivers through
    /// [`crate::ControlHandle::mark_shard_moved`] alongside the
    /// retire/admit pair that actuates the move.
    ShardMoved {
        /// The shard that moved.
        shard: u32,
        /// The placement (replica-group slot) that owned it before.
        from: u32,
        /// The placement that owns it now.
        to: u32,
        /// The move instant.
        at: Time,
    },
    /// An online invariant monitor raised a violation (see
    /// [`hades_telemetry::monitor`]). Only emitted when the spec was
    /// built with [`crate::ClusterSpec::monitors`]; drivers observe it
    /// at the violation's engine instant, which makes the watchdog the
    /// oracle of reactive chaos scenarios.
    InvariantViolated {
        /// Name of the monitor that raised it (e.g. `delta-bound`).
        monitor: String,
        /// The node the violation centres on, when there is one.
        node: Option<u32>,
        /// The replica group concerned, when there is one.
        group: Option<u32>,
        /// Human-readable description of the broken invariant.
        message: String,
        /// The detection instant.
        at: Time,
    },
}

impl ClusterEvent {
    /// The event's instant (the stream is sorted by it).
    pub fn at(&self) -> Time {
        match self {
            ClusterEvent::Detected { at, .. }
            | ClusterEvent::ViewInstalled { at, .. }
            | ClusterEvent::FailedOver { at, .. }
            | ClusterEvent::Handoff { at, .. }
            | ClusterEvent::RejoinCompleted { at, .. }
            | ClusterEvent::ModeChanged { at, .. }
            | ClusterEvent::DeadlineMiss { at, .. }
            | ClusterEvent::ServiceRetired { at, .. }
            | ClusterEvent::ServiceAdmitted { at, .. }
            | ClusterEvent::WorkloadRetuned { at, .. }
            | ClusterEvent::ShardMoved { at, .. }
            | ClusterEvent::InvariantViolated { at, .. } => *at,
        }
    }

    /// A stable kind label, for compact sequence assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            ClusterEvent::Detected { .. } => "detected",
            ClusterEvent::ViewInstalled { .. } => "view-installed",
            ClusterEvent::FailedOver { .. } => "failed-over",
            ClusterEvent::Handoff { .. } => "handoff",
            ClusterEvent::RejoinCompleted { .. } => "rejoin-completed",
            ClusterEvent::ModeChanged { .. } => "mode-changed",
            ClusterEvent::DeadlineMiss { .. } => "deadline-miss",
            ClusterEvent::ServiceRetired { .. } => "service-retired",
            ClusterEvent::ServiceAdmitted { .. } => "service-admitted",
            ClusterEvent::WorkloadRetuned { .. } => "workload-retuned",
            ClusterEvent::ShardMoved { .. } => "shard-moved",
            ClusterEvent::InvariantViolated { .. } => "invariant-violated",
        }
    }

    /// The node this event primarily concerns — the **tie-break key**
    /// for simultaneous events: `Detected` sorts by its observer,
    /// `FailedOver` by the promoted member, `Handoff` by the member
    /// taking over, `RejoinCompleted`/`DeadlineMiss` by their node.
    /// Cluster-wide events (`ViewInstalled`, `ModeChanged`, the
    /// service-control events) carry no node and sort last
    /// (`u32::MAX`).
    pub fn sort_node(&self) -> u32 {
        match self {
            ClusterEvent::Detected { observer, .. } => *observer,
            ClusterEvent::FailedOver { new_primary, .. } => *new_primary,
            ClusterEvent::Handoff { to, .. } => *to,
            ClusterEvent::RejoinCompleted { node, .. }
            | ClusterEvent::DeadlineMiss { node, .. } => *node,
            ClusterEvent::InvariantViolated { node, .. } => node.unwrap_or(u32::MAX),
            ClusterEvent::ViewInstalled { .. }
            | ClusterEvent::ModeChanged { .. }
            | ClusterEvent::ServiceRetired { .. }
            | ClusterEvent::ServiceAdmitted { .. }
            | ClusterEvent::WorkloadRetuned { .. }
            | ClusterEvent::ShardMoved { .. } => u32::MAX,
        }
    }

    /// The kind's rank in declaration order — the second tie-break key.
    fn kind_rank(&self) -> u8 {
        match self {
            ClusterEvent::Detected { .. } => 0,
            ClusterEvent::ViewInstalled { .. } => 1,
            ClusterEvent::FailedOver { .. } => 2,
            ClusterEvent::Handoff { .. } => 3,
            ClusterEvent::RejoinCompleted { .. } => 4,
            ClusterEvent::ModeChanged { .. } => 5,
            ClusterEvent::DeadlineMiss { .. } => 6,
            ClusterEvent::ServiceRetired { .. } => 7,
            ClusterEvent::ServiceAdmitted { .. } => 8,
            ClusterEvent::WorkloadRetuned { .. } => 9,
            ClusterEvent::InvariantViolated { .. } => 10,
            ClusterEvent::ShardMoved { .. } => 11,
        }
    }
}

/// Everything a [`crate::ClusterSpec`] run produces: the aggregate
/// report, the typed, time-ordered event stream, and — when the spec
/// was built with an enabled telemetry registry — the deterministic
/// metrics snapshot and protocol trace spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRun {
    report: ClusterReport,
    events: Vec<ClusterEvent>,
    telemetry: RunTelemetry,
    violations: Vec<Violation>,
    profile: Option<ProfileReport>,
}

impl ClusterRun {
    pub(crate) fn new(report: ClusterReport, mut events: Vec<ClusterEvent>) -> Self {
        // The documented deterministic order: instant, then concerned
        // node, then kind; the (stable) sort keeps deterministic
        // emission order beyond that.
        events.sort_by_key(|e| (e.at(), e.sort_node(), e.kind_rank()));
        ClusterRun {
            report,
            events,
            telemetry: RunTelemetry::default(),
            violations: Vec::new(),
            profile: None,
        }
    }

    pub(crate) fn with_telemetry(mut self, telemetry: RunTelemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    pub(crate) fn with_violations(mut self, violations: Vec<Violation>) -> Self {
        self.violations = violations;
        self
    }

    pub(crate) fn with_profile(mut self, profile: ProfileReport) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The aggregate report.
    pub fn report(&self) -> &ClusterReport {
        &self.report
    }

    /// The run's telemetry: the deterministic metrics snapshot and the
    /// protocol trace spans. Empty unless the spec was built with
    /// `ClusterSpec::telemetry` and an enabled registry — telemetry is
    /// pure observation, so two same-seed runs produce byte-identical
    /// snapshots and span JSONL (or identically empty ones).
    pub fn telemetry(&self) -> &RunTelemetry {
        &self.telemetry
    }

    /// The full event stream, time-ordered; simultaneous events follow
    /// the documented tie-break (node, then kind — see the module docs).
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Events of one [`ClusterEvent::kind`], time-ordered.
    pub fn events_of_kind(&self, kind: &str) -> impl Iterator<Item = &ClusterEvent> {
        let kind = kind.to_string();
        self.events.iter().filter(move |e| e.kind() == kind)
    }

    /// The kind labels of the stream, time-ordered — the compact form
    /// sequence assertions compare against.
    pub fn kind_sequence(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.kind()).collect()
    }

    /// Every invariant violation the run's watchdog raised, in
    /// detection order. Empty unless the spec was built with
    /// [`crate::ClusterSpec::monitors`]. Each violation also appears in
    /// the event stream as [`ClusterEvent::InvariantViolated`];
    /// [`hades_telemetry::monitor::violations_to_jsonl`] exports this
    /// list as schema-validated JSONL.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The run's deterministic profile — per-event-kind counts and
    /// service-gap distributions, per-actor shares, the queue/event-mix
    /// timeline and the (sender, kind, link) traffic matrix. `None`
    /// unless the spec was built with [`crate::ClusterSpec::profile`]
    /// and an enabled [`hades_telemetry::Profiler`]. Like the metrics
    /// snapshot, the report is a pure function of spec and seed —
    /// wall-clock attribution travels separately through the registry's
    /// volatile channel.
    pub fn profile(&self) -> Option<&ProfileReport> {
        self.profile.as_ref()
    }

    /// Consumes the run, keeping the aggregate report.
    pub fn into_report(self) -> ClusterReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::empty_report;

    fn t(n: u64) -> Time {
        Time::ZERO + Duration::from_millis(n)
    }

    #[test]
    fn events_sort_by_time_then_node_then_kind() {
        let detected = |observer, at| ClusterEvent::Detected {
            observer,
            suspect: 0,
            at,
            latency: Some(Duration::from_micros(50)),
        };
        let view = |number, at| ClusterEvent::ViewInstalled {
            number,
            members: vec![1, 2],
            at,
        };
        // Deliberately shuffled: same-instant events must come back in
        // (node, kind) order, cluster-wide events last.
        let run = ClusterRun::new(
            empty_report(),
            vec![
                view(1, t(5)),
                detected(3, t(5)),
                detected(1, t(5)),
                detected(2, t(1)),
            ],
        );
        let kinds: Vec<(&str, Time, u32)> = run
            .events()
            .iter()
            .map(|e| (e.kind(), e.at(), e.sort_node()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("detected", t(1), 2),
                ("detected", t(5), 1),
                ("detected", t(5), 3),
                ("view-installed", t(5), u32::MAX),
            ]
        );
    }
}
