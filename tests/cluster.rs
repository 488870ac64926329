//! End-to-end cluster scenarios: crash → detect → view change → failover
//! and crash → restart → state transfer → rejoin on the integrated
//! multi-node runtime, expressed through the deployment-spec API — plus
//! the detection- and rejoin-latency bounds as properties over random
//! scenarios, the typed event stream, and a 96-node run beyond the old
//! 48-node membership-mask cap.

use proptest::prelude::*;

use hades::prelude::*;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The acceptance scenario: a 4-node deployment under EDF with measured
/// dispatcher costs; node 0 (the passive primary) is killed at t = 50 ms.
fn failover_spec(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(4)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(ms(100))
        .seed(seed)
        .scenario(ScenarioPlan::new().crash(NodeId(0), Time::ZERO + ms(50)));
    for node in 0..4 {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

#[test]
fn crash_detect_view_change_failover_sequence() {
    let crash = Time::ZERO + ms(50);
    let run = failover_spec(42).run().unwrap();
    let report = run.report();

    // Detection: every surviving observer suspected node 0, nobody else,
    // within the analytic bound.
    assert!(report.no_false_suspicions());
    assert_eq!(report.detections.len(), 3, "three survivors, one suspect");
    for d in &report.detections {
        assert_eq!(d.suspect, 0);
        assert!(d.suspected_at > crash);
        assert!(d.latency.unwrap() <= report.detection_bound);
    }

    // Membership: one agreed view change, identical on every survivor.
    assert!(report.views_agree);
    assert_eq!(
        report.view_history,
        vec![(0, vec![0, 1, 2, 3]), (1, vec![1, 2, 3])]
    );

    // Replication: the passive replica on node 1 took over after the
    // crash, within detection + agreement time.
    assert_eq!(report.failovers.len(), 1);
    let f = report.failovers[0];
    assert_eq!(f.failed_primary, 0);
    assert_eq!(f.new_primary, 1);
    assert!(f.taken_over_at > crash);
    assert!(
        f.latency <= report.detection_bound + ms(2),
        "bounded takeover"
    );

    // Scheduling: all surviving nodes met every deadline, and the
    // middleware load is visible in each node's feasibility report.
    for n in &report.node_reports {
        if n.crashed_at.is_none() {
            assert_eq!(n.app_misses, 0, "node {} missed deadlines", n.node);
            assert_eq!(n.middleware_misses, 0);
        }
        assert!(n.feasibility.middleware_utilization_permille > 0);
        assert!(
            n.feasibility.inflated_utilization_permille
                >= n.feasibility.app_utilization_permille
                    + n.feasibility.middleware_utilization_permille,
            "the integrated test sees app + middleware + overhead"
        );
        assert!(n.feasibility.integrated_feasible);
    }
}

#[test]
fn event_stream_carries_the_causal_failover_sequence() {
    // The typed event stream replaces aggregate scraping: the causal
    // order crash → detection → view change → (failover) is asserted
    // directly on the sequence.
    let crash = Time::ZERO + ms(50);
    let run = failover_spec(42).run().unwrap();
    let events = run.events();
    assert!(!events.is_empty());
    // Time-sorted.
    assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));

    // View 0 installs at time zero, before anything else happens.
    let ClusterEvent::ViewInstalled { number: 0, at, .. } = events
        .iter()
        .find(|e| matches!(e, ClusterEvent::ViewInstalled { number: 0, .. }))
        .expect("view 0 installed")
    else {
        unreachable!()
    };
    assert_eq!(*at, Time::ZERO);

    // First detection precedes the exclusion view install, which
    // precedes (or coincides with) the failover takeover.
    let first_detection = events
        .iter()
        .find_map(|e| match e {
            ClusterEvent::Detected { suspect: 0, at, .. } => Some(*at),
            _ => None,
        })
        .expect("the crash was detected");
    let view1 = events
        .iter()
        .find_map(|e| match e {
            ClusterEvent::ViewInstalled {
                number: 1,
                members,
                at,
            } => {
                assert_eq!(members, &vec![1, 2, 3]);
                Some(*at)
            }
            _ => None,
        })
        .expect("the exclusion view installed");
    let failover = events
        .iter()
        .find_map(|e| match e {
            ClusterEvent::FailedOver {
                failed_primary: 0,
                new_primary: 1,
                at,
            } => Some(*at),
            _ => None,
        })
        .expect("the failover happened");
    assert!(crash < first_detection);
    assert!(first_detection < view1);
    assert!(view1 <= failover);

    // No deadline was missed, so the stream carries no miss events.
    assert!(run.events_of_kind("deadline-miss").next().is_none());

    // The compact kind sequence reads in causal order too.
    let kinds = run.kind_sequence();
    let pos = |k: &str| kinds.iter().position(|x| *x == k).unwrap();
    assert!(pos("detected") < pos("failed-over"));
}

#[test]
fn identical_reports_for_identical_seeds() {
    let a = failover_spec(7).run().unwrap();
    let b = failover_spec(7).run().unwrap();
    assert_eq!(a, b, "the cluster run is a pure function of its inputs");
    let c = failover_spec(8).run().unwrap();
    assert!(
        a.report().heartbeats_seen != c.report().heartbeats_seen || a != c,
        "different seed actually changes the run"
    );
}

#[test]
fn cluster_bound_matches_detector_config() {
    let spec = failover_spec(1);
    let mw = MiddlewareConfig::default();
    let link = LinkConfig::reliable(us(10), us(50));
    assert_eq!(
        spec.detection_bound(),
        mw.heartbeat_period.saturating_mul(2) + link.delay_max + mw.clock_precision(&link),
        "the cluster's detection bound is H + T₀ = 2H + δmax + γ"
    );
}

#[test]
fn ninety_six_node_deployment_beyond_the_old_mask_cap() {
    // 96 nodes: double the 48-node ceiling of the packed-u64 membership
    // masks. One node crashes; every survivor must detect within the
    // bound and agree on the exclusion view, with membership riding the
    // three-word wire encoding.
    let crash = Time::ZERO + ms(8);
    let mut spec = ClusterSpec::new(96)
        .horizon(ms(25))
        .seed(5)
        .scenario(ScenarioPlan::new().crash(NodeId(70), crash));
    // A light sprinkling of application services keeps the dispatcher
    // involved without drowning the run.
    for node in [0u32, 23, 47, 70, 95] {
        spec = spec.service(ServiceSpec::periodic("probe", node, us(100), ms(2)));
    }
    let run = spec.run().unwrap();
    let report = run.report();
    assert!(report.views_agree, "96 nodes agree on the view sequence");
    let expected: Vec<u32> = (0..96).filter(|n| *n != 70).collect();
    assert_eq!(report.view_history.last().unwrap().1, expected);
    assert!(report.detection_within_bound());
    assert!(report.no_false_suspicions());
    assert_eq!(report.detections.len(), 95, "every survivor detected");
    // The event stream scales with it: 95 detections then one install.
    let view1_at = run
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::ViewInstalled { number: 1, at, .. } => Some(*at),
            _ => None,
        })
        .expect("exclusion view installed");
    assert!(view1_at > crash);
}

/// The recovery acceptance scenario: node 2 crashes at 20 ms and restarts
/// at 45 ms; the run must produce a recovery record showing re-admission,
/// nonzero state-transfer bytes, and zero work while down.
fn recovery_spec(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(4)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(ms(100))
        .seed(seed)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(2), Time::ZERO + ms(20))
                .restart(NodeId(2), Time::ZERO + ms(45)),
        );
    for node in 0..4 {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

#[test]
fn crash_restart_state_transfer_rejoin_sequence() {
    let crash = Time::ZERO + ms(20);
    let restart = Time::ZERO + ms(45);
    let run = recovery_spec(42).run().unwrap();
    let report = run.report();

    // The crash was detected, the node removed, then re-admitted: the
    // never-crashed nodes agree on the full view sequence ending with
    // everyone back in.
    assert!(report.views_agree);
    let views = &report.view_history;
    assert_eq!(views.first().unwrap().1, vec![0, 1, 2, 3]);
    assert!(
        views.iter().any(|(_, members)| *members == vec![0, 1, 3]),
        "node 2 was removed while down: {views:?}"
    );
    assert_eq!(views.last().unwrap().1, vec![0, 1, 2, 3], "and re-admitted");

    // The recovery record decomposes the rejoin and charges the transfer.
    assert_eq!(report.recoveries.len(), 1);
    let r = report.recoveries[0];
    assert_eq!(r.node, 2);
    assert_eq!((r.crashed_at, r.restarted_at), (crash, restart));
    let detect = r.detect_latency.expect("survivors detected the crash");
    assert!(detect <= report.detection_bound);
    assert!(r.bytes_transferred > 0, "state transfer is not free");
    assert!(r.chunks > 1, "the snapshot shipped in several messages");
    assert!(r.log_entries_replayed > 0, "the log tail was replayed");
    assert_eq!(
        r.announce_latency + r.transfer_latency + r.readmit_latency,
        r.rejoin_latency
    );
    assert!(report.rejoin_within_bound());

    // The event stream orders the full cycle: detection → exclusion view
    // → rejoin completion → re-admission view.
    let events = run.events();
    let detect_at = events
        .iter()
        .find_map(|e| match e {
            ClusterEvent::Detected {
                suspect: 2,
                at,
                latency: Some(_),
                ..
            } => Some(*at),
            _ => None,
        })
        .expect("real detection of node 2");
    let rejoin_at = events
        .iter()
        .find_map(|e| match e {
            ClusterEvent::RejoinCompleted { node: 2, at, .. } => Some(*at),
            _ => None,
        })
        .expect("rejoin completed");
    assert!(detect_at > crash && detect_at < restart);
    assert!(rejoin_at > restart);

    // Middleware cost tasks for the transfer ran on the server (node 0)
    // and the joiner, and the feasibility analysis saw their load.
    for n in &report.node_reports {
        assert!(n.feasibility.integrated_feasible);
        assert!(n.feasibility.middleware_utilization_permille > 0);
    }
    // Live spans kept meeting deadlines everywhere.
    assert!(report.all_app_deadlines_met());
}

#[test]
fn crashed_dispatcher_performs_zero_work_while_down() {
    // Regression for the dispatcher kill switch: between crash and
    // restart the node must execute nothing — its application and
    // middleware instance counts over the down window are zero.
    let report = recovery_spec(7).run().unwrap().into_report();
    let down = recovery_spec(7)
        .scenario(ScenarioPlan::new().crash(NodeId(2), Time::ZERO + ms(20)))
        .run()
        .unwrap()
        .into_report();
    // In the permanent-crash run, node 2 accrues exactly the pre-crash
    // instances; the restart run adds post-restart instances on top. Both
    // agree there is no instance in the down window [20 ms, 45 ms).
    let n2 = &report.node_reports[2];
    let n2_perm = &down.node_reports[2];
    assert!(n2.app_instances > n2_perm.app_instances, "work resumed");
    // ~10 control periods (2 ms) + ~2 logging periods (10 ms) died with
    // the down window; the live-span counts must reflect the gap: a full
    // 100 ms of 2 ms control is 51 instances, the 25 ms gap removes ~12.
    assert!(
        n2.app_instances <= report.node_reports[1].app_instances - 10,
        "down window produced no work: {} vs {}",
        n2.app_instances,
        report.node_reports[1].app_instances
    );
    assert_eq!(n2.app_misses, 0, "no artifact misses from the crash");
}

#[test]
fn rejoin_latency_bound_matches_components() {
    let spec = recovery_spec(1);
    let link = LinkConfig::reliable(us(10), us(50));
    let mw = MiddlewareConfig::default();
    let gamma = mw.clock_precision(&link);
    let detection = mw.heartbeat_period + (mw.heartbeat_period + us(50) + gamma);
    assert!(
        spec.rejoin_bound() > detection,
        "the rejoin bound strictly contains the detection bound"
    );
    assert!(
        spec.rejoin_bound() >= detection + mw.recovery.transfer_bound(us(50)),
        "and the transfer bound"
    );
}

#[test]
fn spec_validation_collects_every_issue_with_service_diagnostics() {
    // One spec, many problems: validation must report them all at once,
    // each naming its service — not fail at the first.
    let err = ClusterSpec::new(3)
        .horizon(ms(10))
        .service(ServiceSpec::periodic("off-grid", 9, us(100), ms(1)))
        .service(ServiceSpec::replicated(
            "empty",
            ReplicaStyle::Active,
            vec![],
            GroupLoad::default(),
        ))
        .service(ServiceSpec::replicated(
            "dupes",
            ReplicaStyle::Active,
            vec![0, 1, 1],
            GroupLoad::default(),
        ))
        .service(ServiceSpec::replicated(
            "strangers",
            ReplicaStyle::Active,
            vec![0, 7],
            GroupLoad::default(),
        ))
        .run()
        .unwrap_err();
    assert!(err.issues.len() >= 4, "all issues reported: {err}");
    let has = |pred: &dyn Fn(&SpecIssue) -> bool| err.issues.iter().any(pred);
    assert!(has(&|i| matches!(
        i,
        SpecIssue::NodeOutOfRange {
            node: 9,
            nodes: 3,
            ..
        }
    )));
    assert!(has(&|i| match i {
        SpecIssue::EmptyMembers { service } => service.name == "empty",
        _ => false,
    }));
    assert!(has(&|i| match i {
        SpecIssue::DuplicateMember { service, node: 1 } => service.name == "dupes",
        _ => false,
    }));
    assert!(has(&|i| match i {
        SpecIssue::MemberOutOfRange {
            service, node: 7, ..
        } => service.name == "strangers",
        _ => false,
    }));
    // The rendered error names each offending service.
    let text = err.to_string();
    for name in ["off-grid", "empty", "dupes", "strangers"] {
        assert!(text.contains(name), "missing {name} in: {text}");
    }
}

#[test]
fn a_workload_on_a_task_service_is_reported_beside_other_issues() {
    // The builder accepts the call; validation names the misuse and
    // still reports the same service's other problem.
    let spec = ClusterSpec::new(3).horizon(ms(10)).service(
        ServiceSpec::periodic("ticker", 9, us(100), ms(1))
            .workload(Box::new(ConstantRate::new(ms(1), Time::ZERO))),
    );
    let err = spec.validate().unwrap_err();
    assert_eq!(err.issues.len(), 2, "{err}");
    assert!(err.issues.iter().any(|i| matches!(
        i,
        SpecIssue::WorkloadWithoutGroup { service } if service.name == "ticker"
    )));
    assert!(err
        .issues
        .iter()
        .any(|i| matches!(i, SpecIssue::NodeOutOfRange { node: 9, .. })));
    assert!(err
        .to_string()
        .contains("only replicated services take a workload"));
    assert_eq!(
        spec.run().unwrap_err(),
        err,
        "run() reports the same issues"
    );
}

#[test]
fn a_zero_request_timeout_is_reported_not_panicked_on() {
    // The builder records the zero; validation and run name it.
    let loop_ = ClosedLoop::new(us(500), ms(1), Time::ZERO + ms(2)).with_timeout(Duration::ZERO);
    let spec = ClusterSpec::new(3).horizon(ms(10)).service(
        ServiceSpec::replicated(
            "store",
            ReplicaStyle::Active,
            vec![0, 1, 2],
            GroupLoad::default(),
        )
        .workload(Box::new(loop_)),
    );
    let err = spec.validate().unwrap_err();
    assert!(
        matches!(&err.issues[..], [SpecIssue::ZeroTimeout { service }] if service.name == "store"),
        "{err}"
    );
    assert!(err.to_string().contains("zero request timeout"), "{err}");
    assert_eq!(spec.run().unwrap_err(), err, "run() reports the same issue");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Detection latency never exceeds the detector's analytic bound, for any
    /// victim, crash time, seed and cluster size.
    #[test]
    fn detection_latency_never_exceeds_bound(
        seed in 0u64..10_000,
        victim in 0u32..8,
        crash_ms in 1u64..25,
        nodes in 3u32..8,
    ) {
        let victim = victim % nodes;
        let crash = Time::ZERO + ms(crash_ms);
        let mut spec = ClusterSpec::new(nodes)
            .horizon(ms(40))
            .seed(seed)
            .scenario(ScenarioPlan::new().crash(NodeId(victim), crash));
        for node in 0..nodes {
            spec = spec.service(ServiceSpec::periodic("app", node, us(100), ms(2)));
        }
        let bound = spec.detection_bound();
        let report = spec.run().unwrap().into_report();
        prop_assert!(report.no_false_suspicions());
        prop_assert_eq!(report.detections.len() as u32, nodes - 1);
        for d in &report.detections {
            prop_assert_eq!(d.suspect, victim);
            let latency = d.latency.expect("victim really crashed");
            prop_assert!(
                latency <= bound,
                "observer {} latency {} > bound {}",
                d.observer,
                latency,
                bound
            );
        }
        prop_assert!(report.views_agree);
    }

    /// Rejoin latency never exceeds detection bound + transfer bound +
    /// one agreement window, for any victim, crash window, seed and
    /// cluster size — and the recovery record always shows re-admission
    /// into the agreed view with nonzero transferred state.
    #[test]
    fn rejoin_latency_never_exceeds_bound(
        seed in 0u64..10_000,
        victim in 0u32..8,
        crash_ms in 5u64..15,
        down_ms in 8u64..20,
        nodes in 3u32..8,
    ) {
        let victim = victim % nodes;
        let crash = Time::ZERO + ms(crash_ms);
        let restart = crash + ms(down_ms);
        let mut spec = ClusterSpec::new(nodes)
            .horizon(ms(70))
            .seed(seed)
            .scenario(
                ScenarioPlan::new()
                    .crash(NodeId(victim), crash)
                    .restart(NodeId(victim), restart),
            );
        for node in 0..nodes {
            spec = spec.service(ServiceSpec::periodic("app", node, us(100), ms(2)));
        }
        let bound = spec.rejoin_bound();
        let report = spec.run().unwrap().into_report();
        prop_assert_eq!(report.recoveries.len(), 1);
        let r = report.recoveries[0];
        prop_assert_eq!(r.node, victim);
        prop_assert!(
            r.rejoin_latency <= bound,
            "rejoin {} > bound {}",
            r.rejoin_latency,
            bound
        );
        prop_assert!(r.bytes_transferred > 0);
        prop_assert!(report.views_agree);
        let expected: Vec<u32> = (0..nodes).collect();
        prop_assert_eq!(&report.view_history.last().unwrap().1, &expected);
    }
}

/// Four nodes, each with a 2 ms control task, under `plan`.
fn scripted(plan: ScenarioPlan) -> ClusterSpec {
    let mut spec = ClusterSpec::new(4).horizon(ms(60)).seed(3).scenario(plan);
    for node in 0..4 {
        spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }
    spec
}

#[test]
fn scripted_crash_windows_replay_in_pairing_order() {
    // Built out of order: the restart pairs with the first crash. Walked
    // in builder order through the crash rule, the 30 ms crash would be
    // a no-op (node 2 still down) and the 20 ms restart would then end
    // the only window: node 2 would stay up from 20 ms on.
    let at = |n| Time::ZERO + ms(n);
    let run = scripted(
        ScenarioPlan::new()
            .crash(NodeId(2), at(10))
            .crash(NodeId(2), at(30))
            .restart(NodeId(2), at(20)),
    )
    .run()
    .unwrap();
    let crashes: Vec<Time> = run
        .events()
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::Detected {
                suspect: 2,
                at,
                latency: Some(l),
                ..
            } => Some(*at - *l),
            _ => None,
        })
        .collect();
    assert!(crashes.contains(&at(10)), "down from 10 ms: {crashes:?}");
    assert!(
        crashes.contains(&at(30)),
        "down again from 30 ms: {crashes:?}"
    );
    assert!(
        crashes.iter().all(|c| *c == at(10) || *c == at(30)),
        "{crashes:?}"
    );
    let restarts: Vec<Time> = run
        .events()
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::RejoinCompleted {
                node: 2,
                at,
                latency,
                ..
            } => Some(*at - *latency),
            _ => None,
        })
        .collect();
    assert_eq!(restarts, [at(20)], "back up from 20 ms");
}

#[test]
fn a_partition_from_time_zero_drops_the_start_heartbeats() {
    // The control plane replays the scenario at the zero instant, but the
    // agents' first heartbeats go out in that same Start batch: a cut in
    // force at t = 0 must already drop them. [0, 1 ms] ends before the
    // next heartbeat round at 2 ms, so exactly the two Start heartbeats
    // across 0 <-> 1 are lost.
    let seen = |plan: ScenarioPlan| {
        let run = scripted(plan).telemetry(Registry::enabled()).run().unwrap();
        run.telemetry()
            .metrics
            .counter("agents.heartbeats_seen")
            .unwrap()
    };
    let healthy = seen(ScenarioPlan::new());
    let cut =
        seen(ScenarioPlan::new().partition(NodeId(0), NodeId(1), Time::ZERO, Time::ZERO + ms(1)));
    assert_eq!(healthy - cut, 2);
}
