//! E2E: replication groups over Δ-atomic multicast on the integrated
//! cluster runtime, deployed through the spec API — active and
//! semi-active groups sustaining a client request stream across a
//! scripted leader crash + restart (with the group fold caught up at
//! rejoin), custom workloads driving a group without touching the
//! cluster core, style-aware admission, and the order-agreement property
//! under random omission faults.

use proptest::prelude::*;

use hades::prelude::*;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The acceptance scenario: a 5-node deployment with one active group
/// ({0, 1, 2}) and one semi-active group ({0, 3, 4}); node 0 — leader
/// and request gateway of both groups, and the cluster's passive
/// primary — crashes at 20 ms and restarts at 40 ms.
fn group_spec(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(5)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(ms(100))
        .seed(seed)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), Time::ZERO + ms(20))
                .restart(NodeId(0), Time::ZERO + ms(40)),
        )
        .service(ServiceSpec::replicated(
            "active-store",
            ReplicaStyle::Active,
            vec![0, 1, 2],
            GroupLoad::default(),
        ))
        .service(ServiceSpec::replicated(
            "semi-active-store",
            ReplicaStyle::SemiActive,
            vec![0, 3, 4],
            GroupLoad::default(),
        ));
    for node in 0..5 {
        spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }
    spec
}

#[test]
fn groups_sustain_requests_across_leader_crash_and_restart() {
    let run = group_spec(42).run().unwrap();
    let report = run.report();
    assert!(report.views_agree, "membership stayed agreed");
    assert_eq!(report.groups.len(), 2);

    for g in &report.groups {
        // Requests flowed throughout the run (~99 scheduled ticks; the
        // detection + takeover gap may swallow a few).
        assert!(
            g.submitted >= 90,
            "group {} ({}): only {} requests submitted",
            g.group,
            g.style_name,
            g.submitted
        );
        assert!(g.outputs >= 90, "group {} outputs: {}", g.group, g.outputs);

        // Every surviving member delivered the identical request
        // sequence; the restarted leader's sequence is a consistent
        // subsequence (it missed the down window).
        assert!(g.order_agreement, "group {} order agreement", g.group);
        assert!(g.order_consistent, "group {} order consistency", g.group);

        // No duplicate client-visible outputs.
        assert_eq!(
            g.duplicate_outputs, 0,
            "group {} emitted duplicates",
            g.group
        );

        // End-to-end latency respects the Δ-multicast bound.
        assert!(
            g.within_delta_bound(),
            "group {}: {} outputs beyond the Δ-bound (worst {:?}, bound {})",
            g.group,
            g.delayed_outputs,
            g.worst_latency,
            g.output_bound
        );
        assert_eq!(g.on_time_outputs, g.outputs);
        assert!(g.worst_latency.unwrap() <= g.output_bound);

        // The crash of the leader was a recorded handoff (leadership
        // returns to node 0 after its rejoin, so there may be two).
        assert!(
            !g.handoffs.is_empty(),
            "group {} recorded no leader handoff",
            g.group
        );
        assert_eq!((g.handoffs[0].from, g.handoffs[0].to > 0), (0, true));
        assert!(g.handoffs[0].at > Time::ZERO + ms(20));

        // Group state transfer: the restarted member pulled the group
        // fold instead of permanently skipping its blackout window.
        assert_eq!(g.catchups, 1, "group {} catch-up adopted", g.group);

        // Group traffic rode the shared network.
        assert!(g.messages > 0);
        assert_eq!(g.vote_mismatches, 0);
    }

    // Style-specific shape: the active group's voter absorbed the
    // redundant member outputs; the semi-active followers executed with
    // outputs withheld.
    let active = &report.groups[0];
    let semi = &report.groups[1];
    assert_eq!(active.style_name, "active");
    assert_eq!(semi.style_name, "semi-active");
    assert!(
        active.duplicates_suppressed >= active.outputs,
        "the voter absorbed at least one redundant copy per request: {}",
        active.duplicates_suppressed
    );
    assert!(semi.duplicates_suppressed > 0, "followers were suppressed");

    // The cluster's own recovery machinery still did its job.
    assert_eq!(report.recoveries.len(), 1);
    assert!(report.rejoin_within_bound());
    // And the group cost tasks appear in every member's feasibility.
    for n in &report.node_reports {
        assert!(n.feasibility.middleware_utilization_permille > 0);
        assert!(n.feasibility.integrated_feasible);
    }

    // The event stream interleaves both groups' handoffs with the
    // cluster-level recovery cycle, in time order.
    let handoffs: Vec<_> = run.events_of_kind("handoff").collect();
    assert!(handoffs.len() >= 2, "both groups handed leadership away");
    let rejoin_at = run
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::RejoinCompleted { node: 0, at, .. } => Some(*at),
            _ => None,
        })
        .expect("node 0 rejoined");
    assert!(rejoin_at > Time::ZERO + ms(40));
}

#[test]
fn bursty_workload_drives_a_group_without_core_edits() {
    // Scenario diversity through the Workload trait: a bursty open-loop
    // source shapes the request stream; the cluster core is untouched.
    let bursts = Bursty {
        burst: 5,
        spacing: us(200),
        gap: ms(10),
        start: Time::ZERO + ms(1),
    };
    let expected = bursts.request_times(ms(60)).len() as u64;
    let spec = ClusterSpec::new(4).horizon(ms(60)).seed(11).service(
        ServiceSpec::replicated(
            "bursty-store",
            ReplicaStyle::Active,
            vec![0, 1, 2],
            GroupLoad::default(),
        )
        .workload(Box::new(bursts)),
    );
    let report = spec.run().unwrap().into_report();
    let g = &report.groups[0];
    assert_eq!(g.submitted, expected, "every scheduled burst request ran");
    assert_eq!(g.outputs, expected);
    assert!(g.order_agreement && g.order_consistent);
    assert_eq!(g.duplicate_outputs, 0);
    assert!(g.within_delta_bound(), "bursts still meet the Δ-bound");
}

#[test]
fn trace_replay_workload_reproduces_the_recorded_instants() {
    let trace: Vec<Time> = [2_000u64, 2_400, 9_000, 9_100, 22_000]
        .iter()
        .map(|t| Time::ZERO + us(*t))
        .collect();
    let spec = ClusterSpec::new(3).horizon(ms(40)).seed(3).service(
        ServiceSpec::replicated(
            "replayed",
            ReplicaStyle::SemiActive,
            vec![0, 1, 2],
            GroupLoad::default(),
        )
        .workload(Box::new(TraceReplay::new(trace.clone()))),
    );
    let report = spec.run().unwrap().into_report();
    let g = &report.groups[0];
    assert_eq!(g.submitted, trace.len() as u64);
    assert_eq!(g.outputs, trace.len() as u64);
    assert_eq!(g.on_time_outputs, g.outputs);
}

#[test]
fn style_aware_admission_charges_roles_not_members() {
    // A heavy request stream (600 µs WCET per 1 ms request = 60% load).
    // Full-member charging would push every backup to ~60% middleware
    // utilization; the style-aware analysis charges the passive backups
    // nothing and the semi-active followers only their order handling.
    let load = GroupLoad {
        request_wcet: us(600),
        order_wcet: us(30),
        ..GroupLoad::default()
    };
    let spec = ClusterSpec::new(4)
        .horizon(ms(20))
        .seed(9)
        .service(ServiceSpec::replicated(
            "passive-heavy",
            ReplicaStyle::Passive {
                checkpoint_every: 4,
            },
            vec![0, 1],
            load,
        ))
        .service(ServiceSpec::replicated(
            "semi-heavy",
            ReplicaStyle::SemiActive,
            vec![2, 3],
            load,
        ));
    let report = spec.run().unwrap().into_report();
    let mw = |n: usize| {
        report.node_reports[n]
            .feasibility
            .middleware_utilization_permille
    };
    // Passive: primary (node 0) carries the request load, backup (node
    // 1) only the base middleware tasks.
    assert!(
        mw(0) >= 600,
        "primary charged the full request WCET: {}",
        mw(0)
    );
    assert!(
        mw(1) < 100,
        "backup charged nothing for the group: {}",
        mw(1)
    );
    // Semi-active: leader (node 2) full, follower (node 3) order only.
    assert!(mw(2) >= 600, "leader charged in full: {}", mw(2));
    assert!(
        mw(3) < 100,
        "follower charged order handling only: {}",
        mw(3)
    );
    assert!(mw(3) > mw(1), "but more than the uncharged passive backup");
    for n in &report.node_reports {
        assert!(n.feasibility.integrated_feasible);
    }
}

#[test]
fn closed_loop_tick_deliveries_grow_with_responses_not_their_square() {
    // A closed loop with a client timeout always names a next tick
    // instant, and every response arms one on every member: the timer
    // deliveries of the group must stay a small constant per response
    // (submission tick, timeout tick, Δ-delivery) however long the run.
    // They once grew with the square — every response started a chain
    // of ticks that never ended — at ~150 per response over 200 ms.
    let group_timers = |horizon: Duration| {
        let start = Time::ZERO + ms(2);
        let workload = ClosedLoop::new(us(500), ms(1), start).with_timeout(ms(4));
        let run = ClusterSpec::new(3)
            .horizon(horizon)
            .seed(7)
            .profile(Profiler::enabled())
            .service(
                ServiceSpec::replicated(
                    "store",
                    ReplicaStyle::SemiActive,
                    vec![0, 1, 2],
                    GroupLoad::default(),
                )
                .workload(Box::new(workload)),
            )
            .run()
            .unwrap();
        let timers: u64 = run
            .profile()
            .expect("profiler attached")
            .actors
            .iter()
            .filter(|a| a.label == "group" && a.class == "timer")
            .map(|a| a.events)
            .sum();
        let outputs = run.report().groups[0].outputs;
        assert!(outputs >= 20, "the loop ran: {outputs} responses");
        assert!(
            timers <= 4 * 3 * outputs,
            "{timers} group timer deliveries for {outputs} responses on 3 members"
        );
        timers
    };
    let (short, long) = (group_timers(ms(40)), group_timers(ms(160)));
    assert!(
        long * 10 <= short * 45,
        "4× the horizon took {short} → {long} group timer deliveries"
    );
}

#[test]
fn group_runs_are_deterministic() {
    let a = group_spec(7).run().unwrap();
    let b = group_spec(7).run().unwrap();
    assert_eq!(a, b);
}

#[test]
fn delta_multicast_view_changes_cut_message_complexity() {
    // Same scenario under both transports: identical agreed views,
    // strictly fewer proposal messages over the Δ-multicast discipline.
    let run = |multicast: bool| {
        let mw = MiddlewareConfig {
            delta_multicast_vc: multicast,
            ..MiddlewareConfig::default()
        };
        group_spec(11).middleware(mw).run().unwrap().into_report()
    };
    let dm = run(true);
    let flood = run(false);
    assert_eq!(dm.view_change.transport, "delta-multicast");
    assert_eq!(flood.view_change.transport, "flood");
    assert_eq!(dm.view_history, flood.view_history, "same agreed views");
    assert!(dm.views_agree && flood.views_agree);
    assert!(
        dm.view_change.messages < flood.view_change.messages,
        "multicast {} >= flood {}",
        dm.view_change.messages,
        flood.view_change.messages
    );
    assert!(dm.view_change.multicast_equivalent < dm.view_change.flood_equivalent);
}

#[test]
fn lossy_delta_multicast_vc_agrees_with_an_attempt_budget() {
    // The cheap Δ-multicast view-change transport with a per-copy
    // retransmission budget (the ReplicaGroup retry pattern applied to
    // the transport) survives 8% omission loss: same agreed views on
    // every survivor, no fallback to the flood needed.
    let mw = MiddlewareConfig {
        delta_multicast_vc: true,
        vc_attempts: 4,
        clock_precision_floor: us(4_500),
        ..MiddlewareConfig::default()
    };
    for seed in [1u64, 2, 3] {
        let mut spec = ClusterSpec::new(5)
            .horizon(ms(60))
            .seed(seed)
            .link(LinkConfig::reliable(us(10), us(50)).with_omissions(80))
            .middleware(mw)
            .scenario(ScenarioPlan::new().crash(NodeId(2), Time::ZERO + ms(15)));
        for node in 0..5 {
            spec = spec.service(ServiceSpec::periodic("app", node, us(100), ms(2)));
        }
        let report = spec.run().unwrap().into_report();
        assert!(
            report.views_agree,
            "seed {seed}: survivors agree under loss"
        );
        assert_eq!(
            report.view_history.last().unwrap().1,
            vec![0, 1, 3, 4],
            "seed {seed}: the exclusion view installed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All group members deliver the same request order under random
    /// per-link omission faults and one crash window: never-crashed
    /// members are identical, and every member (the restarted one
    /// included) is a consistent subsequence of the agreed order.
    #[test]
    fn group_order_agreement_under_omissions_and_one_crash(
        seed in 0u64..10_000,
        victim in 0u32..8,
        crash_ms in 10u64..20,
        down_ms in 8u64..15,
        omission_permille in 0u32..80,
        nodes in 3u32..6,
    ) {
        let victim = victim % nodes;
        let crash = Time::ZERO + ms(crash_ms);
        let restart = crash + ms(down_ms);
        // A loss-tolerant detector timeout (γ floor ≈ 4.5 ms rides out
        // several consecutive heartbeat losses) and the flood transport
        // keep the membership layer stable under omissions; the group's
        // 8-attempt multicast budget masks per-copy loss.
        let mw = MiddlewareConfig {
            clock_precision_floor: us(4_500),
            delta_multicast_vc: false,
            ..MiddlewareConfig::default()
        };
        let load = GroupLoad {
            attempts: 8,
            ..GroupLoad::default()
        };
        let mut spec = ClusterSpec::new(nodes)
            .horizon(ms(80))
            .seed(seed)
            .link(
                LinkConfig::reliable(us(10), us(50)).with_omissions(omission_permille),
            )
            .middleware(mw)
            .scenario(
                ScenarioPlan::new()
                    .crash(NodeId(victim), crash)
                    .restart(NodeId(victim), restart),
            )
            .service(ServiceSpec::replicated(
                "store",
                ReplicaStyle::Active,
                (0..nodes).collect(),
                load,
            ));
        for node in 0..nodes {
            spec = spec.service(ServiceSpec::periodic("app", node, us(100), ms(2)));
        }
        let report = spec.run().unwrap().into_report();
        let g = &report.groups[0];
        prop_assert!(g.submitted > 0);
        prop_assert!(
            g.order_agreement,
            "members diverged (seed {seed}, victim {victim}, loss {omission_permille}‰)"
        );
        prop_assert!(g.order_consistent, "restarted member inconsistent");
        prop_assert_eq!(g.duplicate_outputs, 0);
        prop_assert_eq!(g.vote_mismatches, 0);
    }
}
