//! # hades-cluster — the integrated multi-node HADES runtime
//!
//! The paper's deployment model puts the application scheduling policy
//! *and* the generic robustness services together on every node, with
//! every middleware activity's cost folded into the feasibility test.
//! This crate is that composition, fronted by a **deployment spec**: a
//! [`ClusterSpec`] declares the platform (nodes, links, timing model,
//! seed, failure scenario) and a list of typed [`ServiceSpec`]s —
//! replicated groups driven by a [`Workload`], bare periodic tasks, raw
//! HEUG tasks — validated as a whole ([`SpecError`] with per-service
//! diagnostics) and lowered onto one shared `hades-sim` engine and one
//! shared [`hades_sim::Network`]:
//!
//! * application tasks execute under the chosen [`hades_sched::Policy`] on the
//!   multi-node [`hades_dispatch::DispatchSim`];
//! * middleware activities are injected as cost-charged periodic HEUG
//!   tasks ([`MiddlewareConfig`]), so the Section 5 analyses of
//!   `hades-sched` account for them (pillar 2 of the paper);
//! * the protocol side of the same services runs as per-node
//!   [`hades_services::NodeAgent`] actors hosted by the dispatcher's
//!   engine through the `hades-sim` mux layer, sharing the network — and
//!   therefore the fault script — with dispatcher traffic;
//! * the **scenario control plane is reactive**: a [`ScenarioDriver`]
//!   receives every [`ClusterEvent`] at its engine timestamp and can
//!   inject crashes/restarts/partitions, retire or admit services and
//!   retune live [`Workload`]s through a [`ControlHandle`] — the
//!   offline [`ScenarioPlan`] is replayed at start through the same
//!   control ops, before the registered drivers start;
//! * the run produces a [`ClusterRun`]: the aggregate [`ClusterReport`]
//!   (per-node deadline statistics and schedulability, detection
//!   latencies against the analytic bound, the agreed view history and
//!   primary failover times) plus the typed, time-ordered
//!   [`ClusterEvent`] stream the drivers saw.
//!
//! There is **one record of what the protocols did, read once**.
//! Agents append what they observed to their `AgentLog`, group members
//! keep their delivery sequences and counters in their `GroupLog`, and
//! both hand each transition, as a [`hades_telemetry::monitor::MonitorEvent`],
//! to the one [`hades_telemetry::monitor::ProtocolTap`] the run installs
//! on all of them and on the dispatcher, whose Section 3.2.1 alarms
//! (deadline misses among them) are `MonitorEvent`s too. The tap gives
//! the same `&event` to the control plane (which derives the
//! [`ClusterEvent`]s the drivers see) and, when
//! monitors are registered, to the invariant watchdog; it must not
//! re-enter the engine — it records, and at most posts a wake for the
//! control actor. Each group's submissions and outputs are folded from
//! the tap as they happen, and nowhere else. After the run the logs are
//! folded once into the report, and the protocol trace spans are built
//! from that report and the same folds: their timestamps are the
//! instants the actors logged or handed to the tap.
//!
//! Membership travels as variable-length
//! [`hades_services::MemberSet`]s, so deployments are no longer capped
//! at the 48 nodes of the old packed-`u64` masks (the runtime ceiling is
//! [`MAX_CLUSTER_NODES`]).
//!
//! # Examples
//!
//! A 4-node deployment under EDF with measured dispatcher costs; the
//! primary (node 0) crashes mid-run, is detected within the bound, a
//! view change is agreed and the passive replica on node 1 takes over:
//!
//! ```
//! use hades_cluster::{ClusterSpec, ScenarioPlan, ServiceSpec};
//! use hades_dispatch::CostModel;
//! use hades_sched::Policy;
//! use hades_sim::NodeId;
//! use hades_time::{Duration, Time};
//!
//! let crash = Time::ZERO + Duration::from_millis(50);
//! let mut spec = ClusterSpec::new(4)
//!     .policy(Policy::Edf)
//!     .costs(CostModel::measured_default())
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
//! let report = run.report();
//! assert!(report.detection_within_bound());
//! assert!(report.views_agree);
//! assert_eq!(report.failovers[0].new_primary, 1);
//! # Ok::<(), hades_cluster::SpecError>(())
//! ```
//!
//! For closed-loop scenarios — fault cascades triggered by detections,
//! load shedding triggered by deadline misses — see the
//! [`driver`] module.

#![warn(missing_docs)]

pub mod driver;
pub mod events;
pub mod middleware;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod workload;

pub use driver::{ControlHandle, ScenarioDriver};
pub use events::{ClusterEvent, ClusterRun};
pub use hades_sim::FaultOp;
pub use middleware::{
    GroupLoad, MiddlewareConfig, GROUP_TASK_BASE, GROUP_TASK_STRIDE, MIDDLEWARE_TASKS_PER_NODE,
    MIDDLEWARE_TASK_BASE, RECOVERY_TASK_BASE,
};
pub use report::{
    ClusterReport, DetectionRecord, FailoverRecord, GroupHandoff, GroupReport, ModeChangeRecord,
    NodeFeasibility, NodeReport, RecoveryRecord, ViewChangeStats,
};
pub use scenario::{ModeChangeScript, ScenarioPlan};
pub use spec::{ClusterSpec, ServiceRef, ServiceSpec, SpecError, SpecIssue, MAX_CLUSTER_NODES};
pub use workload::{Bursty, ClosedLoop, ConstantRate, TraceReplay, Workload};

#[cfg(test)]
mod tests {
    use super::*;
    use hades_dispatch::CostModel;
    use hades_sched::Policy;
    use hades_sim::NodeId;
    use hades_task::{Task, TaskId};
    use hades_time::{Duration, Time};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn quad() -> ClusterSpec {
        let mut spec = ClusterSpec::new(4).horizon(ms(60)).seed(1);
        for node in 0..4 {
            spec = spec.service(ServiceSpec::periodic("ctl", node, us(200), ms(2)));
        }
        spec
    }

    #[test]
    fn healthy_cluster_meets_every_deadline_in_view_zero() {
        let report = quad().run().unwrap().into_report();
        assert!(report.all_deadlines_met());
        assert!(report.no_false_suspicions());
        assert_eq!(report.view_history, vec![(0, vec![0, 1, 2, 3])]);
        assert!(report.views_agree);
        assert!(report.failovers.is_empty());
        assert!(report.heartbeats_seen > 0);
        for n in &report.node_reports {
            assert!(n.app_instances > 0);
            assert!(n.middleware_instances > 0);
            assert!(n.feasibility.naive_feasible);
            assert!(n.feasibility.integrated_feasible);
            assert!(n.feasibility.middleware_utilization_permille > 0);
        }
    }

    #[test]
    fn primary_crash_fails_over_within_bounds() {
        let crash = Time::ZERO + ms(20);
        let report = quad()
            .scenario(ScenarioPlan::new().crash(NodeId(0), crash))
            .run()
            .unwrap()
            .into_report();
        assert!(report.detection_within_bound());
        assert!(report.views_agree);
        assert_eq!(report.view_history.last().unwrap().1, vec![1, 2, 3]);
        assert_eq!(report.failovers.len(), 1);
        let f = report.failovers[0];
        assert_eq!((f.failed_primary, f.new_primary), (0, 1));
        assert!(f.taken_over_at > crash);
        assert!(report.all_app_deadlines_met(), "survivors unaffected");
    }

    #[test]
    fn non_primary_crash_changes_view_without_failover() {
        let report = quad()
            .scenario(ScenarioPlan::new().crash(NodeId(3), Time::ZERO + ms(20)))
            .run()
            .unwrap()
            .into_report();
        assert_eq!(report.view_history.last().unwrap().1, vec![0, 1, 2]);
        assert!(report.failovers.is_empty());
    }

    #[test]
    fn same_seed_same_run() {
        let crash = ScenarioPlan::new().crash(NodeId(0), Time::ZERO + ms(20));
        let a = quad().scenario(crash.clone()).run().unwrap();
        let b = quad().scenario(crash).run().unwrap();
        assert_eq!(a, b, "report and event stream are pure functions");
    }

    #[test]
    fn edf_policy_charges_scheduler_time() {
        let report = quad()
            .policy(Policy::Edf)
            .costs(CostModel {
                sched_notif: us(1),
                ..CostModel::zero()
            })
            .run()
            .unwrap()
            .into_report();
        assert!(report.scheduler_cpu > Duration::ZERO);
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn validation_rejects_bad_builds() {
        let first = |spec: ClusterSpec| spec.run().unwrap_err().issues.remove(0);
        assert!(matches!(
            first(ClusterSpec::new(1)),
            SpecIssue::TooFewNodes { nodes: 1 }
        ));
        assert!(matches!(
            first(ClusterSpec::new(MAX_CLUSTER_NODES + 1)),
            SpecIssue::TooManyNodes { .. }
        ));
        assert!(matches!(
            first(ClusterSpec::new(4).service(ServiceSpec::periodic("x", 7, us(10), ms(1)))),
            SpecIssue::NodeOutOfRange {
                node: 7,
                nodes: 4,
                ..
            }
        ));
        let off = ClusterSpec::new(2).service(ServiceSpec::task(
            "t",
            1,
            Task::new(
                TaskId(0),
                spec::single_heug("t", 0, us(10)),
                hades_task::ArrivalLaw::Periodic(ms(1)),
                ms(1),
            ),
        ));
        assert!(matches!(first(off), SpecIssue::TaskOffNode { .. }));
        let reserved = ClusterSpec::new(2).service(ServiceSpec::task(
            "t",
            0,
            Task::new(
                TaskId(MIDDLEWARE_TASK_BASE),
                spec::single_heug("t", 0, us(10)),
                hades_task::ArrivalLaw::Periodic(ms(1)),
                ms(1),
            ),
        ));
        assert!(matches!(first(reserved), SpecIssue::ReservedTaskId { .. }));
        assert!(matches!(
            first(quad().service(ServiceSpec::replicated(
                "g",
                hades_services::ReplicaStyle::Active,
                vec![],
                GroupLoad::default()
            ))),
            SpecIssue::EmptyMembers { .. }
        ));
        assert!(matches!(
            first(quad().service(ServiceSpec::replicated(
                "g",
                hades_services::ReplicaStyle::Active,
                vec![0, 9],
                GroupLoad::default()
            ))),
            SpecIssue::MemberOutOfRange { node: 9, .. }
        ));
        assert!(matches!(
            first(quad().service(ServiceSpec::replicated(
                "g",
                hades_services::ReplicaStyle::Active,
                vec![0, 1],
                GroupLoad {
                    request_period: Duration::ZERO,
                    ..GroupLoad::default()
                }
            ))),
            SpecIssue::ZeroPeriod { .. }
        ));
    }

    #[test]
    fn feasibility_verdict_matches_the_installed_policy() {
        // A classic non-harmonic pair: U ≈ 0.867 exceeds the 2-task RM
        // bound (RTA rejects) but stays under 1 (EDF accepts).
        let build = |policy: Policy| {
            ClusterSpec::new(2)
                .policy(policy)
                .horizon(ms(30))
                .service(ServiceSpec::periodic("a", 0, ms(1), ms(2)))
                .service(ServiceSpec::periodic("b", 0, us(1_100), ms(3)))
                .service(ServiceSpec::periodic("c", 1, us(100), ms(2)))
                .run()
                .unwrap()
                .into_report()
        };
        let rm = build(Policy::RateMonotonic);
        assert!(
            !rm.node_reports[0].feasibility.naive_feasible,
            "RTA must reject the overloaded fixed-priority node"
        );
        assert!(rm.node_reports[0].app_misses > 0, "and the run agrees");
        let edf = build(Policy::Edf);
        assert!(
            edf.node_reports[0].feasibility.naive_feasible,
            "the same load is EDF-schedulable"
        );
        assert_eq!(edf.node_reports[0].app_misses, 0);
    }

    #[test]
    fn premature_suspicion_is_reported_false_not_zero_latency() {
        // A partition longer than T₀ makes node 1 suspect node 0 while it
        // is still alive; node 0 only crashes much later. The report must
        // flag the early suspicion as false instead of crediting the
        // detector with a zero-latency detection.
        let report = quad()
            .scenario(
                ScenarioPlan::new()
                    .partition(
                        NodeId(0),
                        NodeId(1),
                        Time::ZERO + ms(5),
                        Time::ZERO + ms(15),
                    )
                    .crash(NodeId(0), Time::ZERO + ms(40)),
            )
            .run()
            .unwrap()
            .into_report();
        let premature: Vec<_> = report
            .detections
            .iter()
            .filter(|d| d.suspect == 0 && d.suspected_at < Time::ZERO + ms(40))
            .collect();
        assert!(
            !premature.is_empty(),
            "the partition must trigger suspicion"
        );
        for d in &premature {
            assert!(d.is_false(), "premature suspicion is a false suspicion");
            assert_eq!(d.latency, None);
        }
        assert!(!report.no_false_suspicions());
    }

    #[test]
    fn crash_restart_rejoin_produces_a_recovery_record() {
        let crash = Time::ZERO + ms(15);
        let restart = Time::ZERO + ms(30);
        let report = quad()
            .scenario(
                ScenarioPlan::new()
                    .crash(NodeId(2), crash)
                    .restart(NodeId(2), restart),
            )
            .run()
            .unwrap()
            .into_report();
        assert_eq!(report.recoveries.len(), 1, "one completed rejoin");
        let r = report.recoveries[0];
        assert_eq!(r.node, 2);
        assert_eq!((r.crashed_at, r.restarted_at), (crash, restart));
        assert!(r.detected_at.is_some(), "survivors detected the crash");
        assert!(r.bytes_transferred > 0, "state transfer rode the network");
        assert!(r.chunks > 1);
        assert_eq!(
            r.announce_latency + r.transfer_latency + r.readmit_latency,
            r.rejoin_latency
        );
        assert!(report.rejoin_within_bound());
        // The final agreed view re-admits the node.
        assert_eq!(report.view_history.last().unwrap().1, vec![0, 1, 2, 3]);
        assert!(report.views_agree);
        // Node report shows both window edges; only live spans counted.
        let n2 = &report.node_reports[2];
        assert_eq!(n2.crashed_at, Some(crash));
        assert_eq!(n2.restarted_at, Some(restart));
        assert_eq!(n2.app_misses, 0, "live spans met their deadlines");
        assert!(n2.app_instances > 0);
    }

    #[test]
    fn restart_without_crash_is_rejected() {
        let err = quad()
            .scenario(ScenarioPlan::new().restart(NodeId(1), Time::ZERO + ms(10)))
            .run()
            .unwrap_err();
        assert!(matches!(
            err.first(),
            SpecIssue::RestartWithoutCrash { node: 1, .. }
        ));
    }

    #[test]
    fn post_restart_suspicions_are_false_not_detections() {
        // With a tight timeout, the joiner's silence between its crash and
        // restart is detected; any suspicion after the restart instant
        // must be classified false, never a detection of the old crash.
        let report = quad()
            .scenario(
                ScenarioPlan::new()
                    .crash(NodeId(3), Time::ZERO + ms(10))
                    .restart(NodeId(3), Time::ZERO + ms(25)),
            )
            .run()
            .unwrap()
            .into_report();
        for d in report.detections.iter().filter(|d| d.suspect == 3) {
            if d.suspected_at >= Time::ZERO + ms(25) {
                assert!(d.is_false());
            } else {
                assert_eq!(d.latency, Some(d.suspected_at - (Time::ZERO + ms(10))));
            }
        }
    }

    #[test]
    fn mode_change_switches_task_sets_and_records_latency() {
        let switch = Time::ZERO + ms(30);
        let new_task = Task::new(
            TaskId(10),
            spec::single_heug("boost", 0, us(300)),
            hades_task::ArrivalLaw::Periodic(ms(3)),
            ms(3),
        );
        let run = quad()
            .scenario(ScenarioPlan::new().mode_change(switch, vec![TaskId(0)], vec![(0, new_task)]))
            .run()
            .unwrap();
        let report = run.report();
        assert_eq!(report.mode_changes.len(), 1);
        let m = report.mode_changes[0];
        assert_eq!(m.at, switch);
        assert!(m.immediate_feasible, "light modes switch immediately");
        assert_eq!(m.safe_offset, Duration::ZERO);
        assert_eq!(m.new_mode_released_at, switch);
        let first = m.first_new_completion.expect("new mode ran");
        assert!(first >= switch);
        assert_eq!(m.transition_latency, first - switch);
        assert!(report.all_deadlines_met());
        // The event stream carries the switch online.
        assert!(run
            .events_of_kind("mode-changed")
            .any(|e| matches!(e, ClusterEvent::ModeChanged { at, .. } if *at == switch)));
    }

    #[test]
    fn mode_change_can_retire_a_previously_introduced_task() {
        // Two-phase script: phase 2 introduces a task at 20 ms, phase 3
        // retires that same task at 40 ms — the runtime must accept it
        // and bound the task's activations to [20 ms, 40 ms).
        let t1 = Time::ZERO + ms(20);
        let t2 = Time::ZERO + ms(40);
        let phase2 = Task::new(
            TaskId(10),
            spec::single_heug("phase2", 0, us(200)),
            hades_task::ArrivalLaw::Periodic(ms(2)),
            ms(2),
        );
        let report = quad()
            .scenario(
                ScenarioPlan::new()
                    .mode_change(t1, vec![], vec![(0, phase2)])
                    .mode_change(t2, vec![TaskId(10)], vec![]),
            )
            .run()
            .unwrap()
            .into_report();
        assert_eq!(report.mode_changes.len(), 2);
        let intro = report.mode_changes[0];
        assert_eq!(intro.new_mode_released_at, t1);
        let first = intro.first_new_completion.expect("phase-2 task ran");
        assert!(first >= t1 && first < t2, "ran only inside its window");
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn completed_work_before_a_crash_still_counts() {
        // An instance that finishes on time just before the crash must
        // not vanish from the report merely because its deadline falls
        // inside the down window: node 2's counts include pre-crash work.
        let report = quad()
            .scenario(
                ScenarioPlan::new()
                    .crash(NodeId(2), Time::ZERO + ms(15))
                    .restart(NodeId(2), Time::ZERO + ms(30)),
            )
            .run()
            .unwrap()
            .into_report();
        let healthy = quad().run().unwrap().into_report();
        let counted = report.node_reports[2].app_instances;
        let full = healthy.node_reports[2].app_instances;
        // 60 ms horizon, 2 ms period: the 15 ms window removes ~8 of ~31
        // activations; everything settled outside the window stays.
        assert!(
            counted > full / 2,
            "pre-crash completions kept: {counted}/{full}"
        );
        assert!(counted < full, "down-window activations excluded");
    }

    #[test]
    fn restart_during_mode_transition_rejoins_into_the_new_mode() {
        // The mode change at 30 ms retires node 2's control task and
        // introduces a 10 ms-period replacement there, while node 2 is
        // down across the switch [25 ms, 37 ms]. The restarted node must
        // come back executing the *new* mode immediately: its first
        // new-mode completion lands at the restart instant (37 ms-ish),
        // not at the stale release phase (40 ms) and never in the old
        // mode.
        let switch = Time::ZERO + ms(30);
        let restart = Time::ZERO + ms(37);
        let new_task = Task::new(
            TaskId(10),
            spec::single_heug("phase2", 2, us(300)),
            hades_task::ArrivalLaw::Periodic(ms(10)),
            ms(10),
        );
        let report = quad()
            .scenario(
                ScenarioPlan::new()
                    .crash(NodeId(2), Time::ZERO + ms(25))
                    .restart(NodeId(2), restart)
                    .mode_change(switch, vec![TaskId(2)], vec![(2, new_task)]),
            )
            .run()
            .unwrap()
            .into_report();
        let m = report.mode_changes[0];
        assert_eq!(m.new_mode_released_at, switch);
        let first = m.first_new_completion.expect("the new mode ran");
        assert!(
            first >= restart && first < Time::ZERO + ms(40),
            "new mode re-anchored at the restart, got {first}"
        );
        assert!(report.all_app_deadlines_met());
    }

    #[test]
    fn mode_change_with_unknown_retiree_is_rejected() {
        let err = quad()
            .scenario(ScenarioPlan::new().mode_change(
                Time::ZERO + ms(10),
                vec![TaskId(99)],
                vec![],
            ))
            .run()
            .unwrap_err();
        assert!(matches!(
            err.first(),
            SpecIssue::UnknownRetiredTask { task: TaskId(99) }
        ));
    }

    #[test]
    fn recovery_run_is_deterministic() {
        let scenario = ScenarioPlan::new()
            .crash(NodeId(2), Time::ZERO + ms(15))
            .restart(NodeId(2), Time::ZERO + ms(30));
        let a = quad().scenario(scenario.clone()).run().unwrap();
        let b = quad().scenario(scenario).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn partition_window_heals() {
        // The [10 ms, 11 ms] cut swallows the heartbeats emitted at 10 ms
        // in both directions, leaving a 4 ms silence between the 8 ms and
        // 12 ms beats. A loss-tolerant timeout (γ floor raised so that
        // T₀ > 4 ms) rides the partition out without suspicion, as in the
        // detector's loss-tolerant configuration.
        let tolerant = MiddlewareConfig {
            clock_precision_floor: Duration::from_micros(2_500),
            ..MiddlewareConfig::default()
        };
        let report = quad()
            .middleware(tolerant)
            .scenario(ScenarioPlan::new().partition(
                NodeId(0),
                NodeId(1),
                Time::ZERO + ms(10),
                Time::ZERO + ms(11),
            ))
            .run()
            .unwrap()
            .into_report();
        assert_eq!(report.view_history.len(), 1, "membership must not split");
        assert!(report.no_false_suspicions());
        assert!(report.network.omitted() > 0, "the cut dropped traffic");
    }

    #[test]
    fn a_crash_scripted_at_time_zero_silences_the_node_from_the_start() {
        // The t = 0 window is seeded into the initial fault plan (the
        // control-path injection lands after the zero-instant Start
        // batch): the dead node must execute nothing and emit nothing —
        // not even its first heartbeat.
        let report = quad()
            .scenario(ScenarioPlan::new().crash(NodeId(3), Time::ZERO))
            .run()
            .unwrap()
            .into_report();
        assert_eq!(report.node_reports[3].app_instances, 0);
        assert_eq!(report.node_reports[3].crashed_at, Some(Time::ZERO));
        assert!(report.views_agree);
        assert_eq!(report.view_history.last().unwrap().1, vec![0, 1, 2]);
        assert!(report.no_false_suspicions());
        for d in &report.detections {
            assert_eq!(d.suspect, 3);
            assert_eq!(d.crashed_at, Some(Time::ZERO));
        }
    }

    #[test]
    fn the_scenario_is_replayed_before_the_registered_drivers() {
        // The plan's window [10 ms, 30 ms) is staged first, so a driver's
        // permanent crash of the same node at 20 ms falls while it is
        // already down: a no-op under the crash rule, and the node
        // restarts at 30 ms as scripted. Staged the other way round, the
        // permanent crash would swallow the restart.
        #[derive(Debug)]
        struct LateCrash;
        impl ScenarioDriver for LateCrash {
            fn on_start(&mut self, _now: Time, ctl: &mut ControlHandle<'_>) {
                ctl.inject(FaultOp::Crash {
                    node: 3,
                    at: Time::ZERO + ms(20),
                    until: None,
                });
            }
            fn on_event(&mut self, _: Time, _: &ClusterEvent, _: &mut ControlHandle<'_>) {}
        }
        let report = quad()
            .scenario(
                ScenarioPlan::new()
                    .crash(NodeId(3), Time::ZERO + ms(10))
                    .restart(NodeId(3), Time::ZERO + ms(30)),
            )
            .driver(Box::new(LateCrash))
            .run()
            .unwrap()
            .into_report();
        let n3 = &report.node_reports[3];
        assert_eq!(n3.crashed_at, Some(Time::ZERO + ms(10)));
        assert_eq!(n3.restarted_at, Some(Time::ZERO + ms(30)));
        assert_eq!(report.recoveries.len(), 1, "node 3 rejoined");
    }
}
