//! Cluster run reports: per-node schedulability, detection, membership
//! and failover outcomes, all in `Eq`-comparable form so two runs with
//! the same seed can be asserted identical.

use hades_sim::NetworkStats;
use hades_time::{Duration, Time};

/// Feasibility of one node's load (application + middleware tasks),
/// naive vs. cost-integrated (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFeasibility {
    /// Verdict of the overhead-blind EDF processor-demand test.
    pub naive_feasible: bool,
    /// Verdict with dispatcher constants, scheduler notifications and
    /// kernel activities folded in.
    pub integrated_feasible: bool,
    /// Raw application utilization, permille.
    pub app_utilization_permille: u32,
    /// Injected middleware utilization, permille.
    pub middleware_utilization_permille: u32,
    /// Total inflated utilization reported by the integrated test,
    /// permille.
    pub inflated_utilization_permille: u32,
}

/// One node's execution outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// The node.
    pub node: u32,
    /// When the scenario first crashed it, if it did.
    pub crashed_at: Option<Time>,
    /// When the scenario first restarted it, if it did.
    pub restarted_at: Option<Time>,
    /// Application instances activated while the node was up.
    pub app_instances: u64,
    /// Deadline misses among those.
    pub app_misses: u64,
    /// Middleware instances activated while the node was up.
    pub middleware_instances: u64,
    /// Deadline misses among those.
    pub middleware_misses: u64,
    /// Worst application response time observed while up.
    pub worst_app_response: Option<Duration>,
    /// Schedulability of the node's combined load.
    pub feasibility: NodeFeasibility,
}

/// One observer's suspicion of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionRecord {
    /// The suspected node.
    pub suspect: u32,
    /// The observing node.
    pub observer: u32,
    /// The crash this suspicion detects (the scripted down window
    /// covering the suspicion instant), or the suspect's nearest scripted
    /// crash for false suspicions (`None` = it never crashed at all).
    pub crashed_at: Option<Time>,
    /// When the observer suspected it.
    pub suspected_at: Time,
    /// Detection latency (suspicion − crash); `None` for false
    /// suspicions — premature ones raised before the crash, and stale
    /// ones raised after the suspect already restarted.
    pub latency: Option<Duration>,
}

impl DetectionRecord {
    /// Whether this suspicion was raised against a node that was correct
    /// at the time (it never crashed, crashed only later, or had already
    /// restarted).
    pub fn is_false(&self) -> bool {
        self.latency.is_none()
    }
}

/// One completed crash→restart→rejoin cycle, cluster view: the joiner's
/// [`hades_services::RejoinRecord`] cross-referenced with the scripted
/// crash window and the survivors' detections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// The recovered node.
    pub node: u32,
    /// When it crashed (start of the down window this cycle recovers
    /// from).
    pub crashed_at: Time,
    /// When it restarted.
    pub restarted_at: Time,
    /// When the first surviving observer suspected the crash, if any did
    /// before the restart.
    pub detected_at: Option<Time>,
    /// Detection component: first suspicion − crash.
    pub detect_latency: Option<Duration>,
    /// Announce component: restart until the state transfer starts.
    pub announce_latency: Duration,
    /// Transfer component: first chunk until the log replay finishes.
    pub transfer_latency: Duration,
    /// Re-admission component: replay done until the view installs.
    pub readmit_latency: Duration,
    /// End-to-end rejoin latency (restart → re-admission).
    pub rejoin_latency: Duration,
    /// Number of the view that re-admitted the node.
    pub readmitted_view: u32,
    /// Views the cluster traversed while the node was away.
    pub views_traversed: u32,
    /// State-transfer bytes shipped over the shared network.
    pub bytes_transferred: u64,
    /// State-transfer messages (chunks) shipped.
    pub chunks: u64,
    /// Chunks recovered through selective retransmission (NACKed by the
    /// joiner and resent by the server) — zero on clean links.
    pub chunks_resent: u64,
    /// Logged operations the joiner replayed.
    pub log_entries_replayed: u64,
    /// Whether the transfer was a delta (log tail only, the joiner's
    /// durable checkpoint cursor covered the snapshot).
    pub delta: bool,
}

/// One scripted application mode change, analysis and observed outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeChangeRecord {
    /// The scripted switch instant.
    pub at: Time,
    /// Worst-case carry-over demand of the retiring mode (inflated).
    pub carryover: Duration,
    /// Whether releasing the new mode at the switch instant was safe.
    pub immediate_feasible: bool,
    /// The safe release offset the runtime applied (zero when immediate).
    pub safe_offset: Duration,
    /// When the new mode's tasks were first released (`at + safe_offset`).
    pub new_mode_released_at: Time,
    /// First completion of a new-mode instance, if one completed.
    pub first_new_completion: Option<Time>,
    /// Observed transition latency: switch instant until the first
    /// new-mode completion (falls back to the release offset when the run
    /// ended before a completion).
    pub transition_latency: Duration,
}

/// One leadership handover inside a replication group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupHandoff {
    /// The group.
    pub group: u32,
    /// The member that held leadership before.
    pub from: u32,
    /// The member that took over.
    pub to: u32,
    /// When the new leader re-bound to the promoting view.
    pub at: Time,
}

/// Outcome of one replication group's client-request workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReport {
    /// The group.
    pub group: u32,
    /// Replication style run.
    pub style_name: &'static str,
    /// Member nodes.
    pub members: Vec<u32>,
    /// Distinct requests submitted by the gateway(s).
    pub submitted: u64,
    /// Requests delivered by the reference member (first member that was
    /// never scripted down; falls back to the first member).
    pub delivered: u64,
    /// Whether every never-crashed member delivered the identical
    /// request sequence.
    pub order_agreement: bool,
    /// Whether every member's sequence (restarted members included) is a
    /// subsequence of the reference order.
    pub order_consistent: bool,
    /// Distinct client-visible outputs.
    pub outputs: u64,
    /// Client-visible duplicate outputs (possible for semi-active /
    /// passive takeovers that cannot know what the dead leader emitted).
    pub duplicate_outputs: u64,
    /// Redundant output copies absorbed before the client: vote copies
    /// beyond the first per request (active) and follower executions
    /// withheld (semi-active).
    pub duplicates_suppressed: u64,
    /// Leadership handovers, in takeover order.
    pub handoffs: Vec<GroupHandoff>,
    /// The Δ of the group's atomic multicast: a request submitted at its
    /// scheduled tick is delivered exactly Δ later at every live member.
    pub delivery_bound: Duration,
    /// The analytic client-visible output bound `Δ + δmax`.
    pub output_bound: Duration,
    /// Outputs within the bound (measured from the actual submission).
    pub on_time_outputs: u64,
    /// Outputs beyond the bound (requests caught in a leader handoff).
    pub delayed_outputs: u64,
    /// Worst observed submission→output latency.
    pub worst_latency: Option<Duration>,
    /// Group-protocol messages pushed into the shared network.
    pub messages: u64,
    /// Requests re-executed by passive takeover replays.
    pub replayed: u64,
    /// Catch-up snapshots adopted by restarted members (the group fold
    /// shipped alongside the rejoin checkpoint).
    pub catchups: u64,
    /// Active-style vote digests that disagreed across members.
    pub vote_mismatches: u64,
    /// Requests the client-side workload abandoned (a closed loop's
    /// request timeout expired and the request was re-issued — see
    /// `ClosedLoop::with_timeout`). Also exported as the
    /// `group.requests_abandoned` telemetry counter.
    pub abandoned: u64,
    /// Per-request submission→first-output latencies, ascending, in
    /// nanoseconds — the raw samples behind the `group.response_ns`
    /// telemetry histogram, kept per group so layered reports (e.g. a
    /// sharded fabric's per-shard percentiles) can merge and
    /// re-summarize them without re-running.
    pub response_ns: Vec<u64>,
}

impl GroupReport {
    /// Whether every emitted output met the Δ-multicast bound.
    pub fn within_delta_bound(&self) -> bool {
        self.delayed_outputs == 0
    }
}

/// Message-complexity accounting of the view-change transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewChangeStats {
    /// The transport the run used (`"delta-multicast"` or `"flood"`).
    pub transport: &'static str,
    /// View-change proposal messages actually pushed into the network.
    pub messages: u64,
    /// Views installed beyond the initial one.
    pub view_changes: u32,
    /// Analytic per-run flood complexity `(f + 1) · n · (n − 1)` per
    /// change.
    pub flood_equivalent: u64,
    /// Analytic per-run Δ-multicast complexity `n · (n − 1)` per change.
    pub multicast_equivalent: u64,
}

/// One primary handover caused by a primary crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRecord {
    /// The crashed primary.
    pub failed_primary: u32,
    /// When it crashed.
    pub crashed_at: Time,
    /// The member promoted in the next view.
    pub new_primary: u32,
    /// When the new primary installed the view that promoted it.
    pub taken_over_at: Time,
    /// `taken_over_at − crashed_at`: detection + agreement.
    pub latency: Duration,
}

/// The aggregate outcome of a [`crate::ClusterSpec`] run.
///
/// The report is the *verdict* side of a run's observability; its
/// sibling is the telemetry side, reached through
/// `ClusterRun::telemetry()` when the spec was built with
/// `ClusterSpec::telemetry(Registry::enabled())`: engine-time counters
/// and histograms (`engine.events`, `agents.heartbeats_sent`,
/// `group.response_ns`, …) plus causally-linked protocol trace spans
/// for every rejoin, failover, view agreement and client request. Both
/// are deterministic functions of the spec and seed; a disabled
/// registry (the default) leaves the telemetry empty and the hooks
/// near-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// Cluster size.
    pub nodes: u32,
    /// Seed of the run.
    pub seed: u64,
    /// Virtual time at which the run ended.
    pub finished_at: Time,
    /// Per-node outcomes, indexed by node id.
    pub node_reports: Vec<NodeReport>,
    /// Every suspicion raised by every surviving observer.
    pub detections: Vec<DetectionRecord>,
    /// The analytic worst-case detection latency `H + T₀`.
    pub detection_bound: Duration,
    /// Reference view history `(number, members)` (first surviving node).
    pub view_history: Vec<(u32, Vec<u32>)>,
    /// Whether every surviving node installed the same view sequence.
    pub views_agree: bool,
    /// Primary handovers for crashed primaries.
    pub failovers: Vec<FailoverRecord>,
    /// Completed crash→restart→rejoin cycles.
    pub recoveries: Vec<RecoveryRecord>,
    /// Rejoins the scenario scripted (restarts attached to a crash
    /// window); fewer completed [`ClusterReport::recoveries`] than this
    /// means a rejoin stalled or ran past the horizon.
    pub scripted_rejoins: u32,
    /// The analytic worst-case rejoin latency (restart → re-admission).
    pub rejoin_bound: Duration,
    /// Scripted mode changes, analysis and observed transition latency.
    pub mode_changes: Vec<ModeChangeRecord>,
    /// Per-group replication outcomes, indexed by group id.
    pub groups: Vec<GroupReport>,
    /// View-change transport message accounting.
    pub view_change: ViewChangeStats,
    /// JOIN/preamble retransmissions issued by rejoining nodes.
    pub join_retries: u64,
    /// Heartbeats received across all agents.
    pub heartbeats_seen: u64,
    /// Shared-network counters (dispatcher messages + middleware traffic).
    pub network: NetworkStats,
    /// CPU consumed by scheduler tasks across nodes.
    pub scheduler_cpu: Duration,
    /// CPU consumed by kernel interrupts across nodes.
    pub kernel_cpu: Duration,
}

impl ClusterReport {
    /// Whether every application instance activated on a live node met
    /// its deadline.
    pub fn all_app_deadlines_met(&self) -> bool {
        self.node_reports.iter().all(|n| n.app_misses == 0)
    }

    /// Whether every surviving node met every deadline, middleware
    /// included.
    pub fn all_deadlines_met(&self) -> bool {
        self.node_reports
            .iter()
            .all(|n| n.app_misses == 0 && n.middleware_misses == 0)
    }

    /// Whether no correct node was ever suspected.
    pub fn no_false_suspicions(&self) -> bool {
        self.detections.iter().all(|d| !d.is_false())
    }

    /// Whether every real crash was detected within the analytic bound by
    /// every surviving observer that reported it.
    pub fn detection_within_bound(&self) -> bool {
        self.detections
            .iter()
            .filter_map(|d| d.latency)
            .all(|l| l <= self.detection_bound)
    }

    /// Worst observed detection latency, if any crash was detected.
    pub fn worst_detection_latency(&self) -> Option<Duration> {
        self.detections.iter().filter_map(|d| d.latency).max()
    }

    /// Worst failover latency, if any primary failed over.
    pub fn worst_failover_latency(&self) -> Option<Duration> {
        self.failovers.iter().map(|f| f.latency).max()
    }

    /// Worst end-to-end rejoin latency, if any node recovered.
    pub fn worst_rejoin_latency(&self) -> Option<Duration> {
        self.recoveries.iter().map(|r| r.rejoin_latency).max()
    }

    /// Whether every scripted rejoin completed *and* stayed within the
    /// analytic bound. A rejoin that never finished (stalled protocol,
    /// horizon cut) counts as a violation, never as a vacuous success.
    pub fn rejoin_within_bound(&self) -> bool {
        self.recoveries.len() as u32 == self.scripted_rejoins
            && self
                .recoveries
                .iter()
                .all(|r| r.rejoin_latency <= self.rejoin_bound)
    }

    /// A human-readable multi-line summary (used by the experiment
    /// harness).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cluster: {} nodes, seed {}, finished at {}",
            self.nodes, self.seed, self.finished_at
        );
        for n in &self.node_reports {
            let _ = writeln!(
                s,
                "  n{}: app {}/{} missed, mw {}/{} missed, util {}‰ (+mw {}‰ → inflated {}‰), feasible naive={} integrated={}{}",
                n.node,
                n.app_misses,
                n.app_instances,
                n.middleware_misses,
                n.middleware_instances,
                n.feasibility.app_utilization_permille,
                n.feasibility.middleware_utilization_permille,
                n.feasibility.inflated_utilization_permille,
                n.feasibility.naive_feasible,
                n.feasibility.integrated_feasible,
                match (n.crashed_at, n.restarted_at) {
                    (Some(c), Some(r)) => format!(", crashed at {c}, restarted at {r}"),
                    (Some(c), None) => format!(", crashed at {c}"),
                    _ => String::new(),
                },
            );
        }
        let _ = writeln!(
            s,
            "  detection: {} suspicion(s), bound {}, worst {}, false: {}",
            self.detections.len(),
            self.detection_bound,
            self.worst_detection_latency()
                .map_or_else(|| "-".into(), |d| d.to_string()),
            self.detections.iter().filter(|d| d.is_false()).count(),
        );
        let _ = writeln!(
            s,
            "  views: {:?}, agree: {}",
            self.view_history, self.views_agree
        );
        for f in &self.failovers {
            let _ = writeln!(
                s,
                "  failover: primary n{} crashed at {} -> n{} took over at {} (latency {})",
                f.failed_primary, f.crashed_at, f.new_primary, f.taken_over_at, f.latency
            );
        }
        for r in &self.recoveries {
            let _ = writeln!(
                s,
                "  recovery: n{} crashed at {}, restarted at {}, readmitted in view {} after {} \
                 (detect {}, announce {}, transfer {}, readmit {}; {} bytes / {} chunks / {} ops; bound {})",
                r.node,
                r.crashed_at,
                r.restarted_at,
                r.readmitted_view,
                r.rejoin_latency,
                r.detect_latency
                    .map_or_else(|| "-".into(), |d| d.to_string()),
                r.announce_latency,
                r.transfer_latency,
                r.readmit_latency,
                r.bytes_transferred,
                r.chunks,
                r.log_entries_replayed,
                self.rejoin_bound,
            );
        }
        for m in &self.mode_changes {
            let _ = writeln!(
                s,
                "  mode change at {}: carry-over {}, immediate={}, offset {}, released {}, transition {}",
                m.at,
                m.carryover,
                m.immediate_feasible,
                m.safe_offset,
                m.new_mode_released_at,
                m.transition_latency,
            );
        }
        for g in &self.groups {
            let _ = writeln!(
                s,
                "  group {} ({}, members {:?}): {}/{} requests output ({} on time, {} delayed; worst {}), \
                 dup outputs {}, suppressed {}, order agree={} consistent={}, {} handoff(s), {} msgs",
                g.group,
                g.style_name,
                g.members,
                g.outputs,
                g.submitted,
                g.on_time_outputs,
                g.delayed_outputs,
                g.worst_latency
                    .map_or_else(|| "-".into(), |d| d.to_string()),
                g.duplicate_outputs,
                g.duplicates_suppressed,
                g.order_agreement,
                g.order_consistent,
                g.handoffs.len(),
                g.messages,
            );
            for h in &g.handoffs {
                let _ = writeln!(s, "    handoff: n{} -> n{} at {}", h.from, h.to, h.at);
            }
        }
        let _ = writeln!(
            s,
            "  view changes: {} over '{}' transport, {} msgs (flood would take {}, multicast {})",
            self.view_change.view_changes,
            self.view_change.transport,
            self.view_change.messages,
            self.view_change.flood_equivalent,
            self.view_change.multicast_equivalent,
        );
        let _ = writeln!(
            s,
            "  network: {} sent, {} on time, {} late, {} omitted; {} heartbeats seen",
            self.network.sent,
            self.network.delivered_on_time,
            self.network.delivered_late,
            self.network.omitted(),
            self.heartbeats_seen,
        );
        s
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A structurally empty report for tests of the event-stream layer.
    pub(crate) fn empty_report() -> ClusterReport {
        ClusterReport {
            nodes: 0,
            seed: 0,
            finished_at: Time::ZERO,
            node_reports: Vec::new(),
            detections: Vec::new(),
            detection_bound: Duration::ZERO,
            view_history: Vec::new(),
            views_agree: true,
            failovers: Vec::new(),
            recoveries: Vec::new(),
            scripted_rejoins: 0,
            rejoin_bound: Duration::ZERO,
            mode_changes: Vec::new(),
            groups: Vec::new(),
            view_change: ViewChangeStats {
                transport: "flood",
                messages: 0,
                view_changes: 0,
                flood_equivalent: 0,
                multicast_equivalent: 0,
            },
            join_retries: 0,
            heartbeats_seen: 0,
            network: NetworkStats::default(),
            scheduler_cpu: Duration::ZERO,
            kernel_cpu: Duration::ZERO,
        }
    }
}
