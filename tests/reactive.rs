//! E2E: the reactive control plane. Scenarios that were inexpressible
//! under the open-loop `ScenarioPlan` API:
//!
//! * a fault **cascade driven purely by detection events** — the second
//!   crash is injected by a `ScenarioDriver` reacting to `Detected`,
//!   never pre-scheduled;
//! * **deadline-miss-triggered load shedding** — a driver throttles a
//!   replicated service's live workload when the dispatcher reports
//!   misses;
//! * a **true closed-loop workload** whose submission schedule
//!   measurably shifts with measured responses (and under failover
//!   congestion) versus the analytic-bound baseline;
//! * **standby service admission** — a driver admits a pre-declared
//!   service mid-run.

use hades::prelude::*;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn t_ms(n: u64) -> Time {
    Time::ZERO + ms(n)
}

/// Crashes `victim` the moment anyone first suspects `trigger`.
#[derive(Debug)]
struct CascadeDriver {
    trigger: u32,
    victim: u32,
    fired: bool,
}

impl ScenarioDriver for CascadeDriver {
    fn on_event(&mut self, now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
        if self.fired {
            return;
        }
        if let ClusterEvent::Detected { suspect, .. } = event {
            if *suspect == self.trigger {
                self.fired = true;
                ctl.inject(FaultOp::Crash {
                    node: self.victim,
                    at: now,
                    until: None,
                });
            }
        }
    }
}

#[test]
fn detection_triggered_fault_cascade_without_prescheduled_second_crash() {
    // Only the FIRST crash is scripted; node 4 goes down purely because
    // the driver reacted to the detection of node 0.
    let crash0 = t_ms(15);
    let mut spec = ClusterSpec::new(5)
        .horizon(ms(60))
        .seed(3)
        .scenario(ScenarioPlan::new().crash(NodeId(0), crash0))
        .driver(Box::new(CascadeDriver {
            trigger: 0,
            victim: 4,
            fired: false,
        }));
    for node in 0..5 {
        spec = spec.service(ServiceSpec::periodic("ctl", node, us(200), ms(2)));
    }
    let run = spec.run().unwrap();
    let report = run.report();

    // The injected crash is a first-class fault: recorded on the node
    // report, detected by the survivors as a REAL detection (bounded
    // latency, not a false suspicion) and excluded from membership.
    let first_detection_of_0 = run
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::Detected { suspect: 0, at, .. } => Some(*at),
            _ => None,
        })
        .expect("the scripted crash was detected");
    assert_eq!(
        report.node_reports[4].crashed_at,
        Some(first_detection_of_0),
        "node 4 crashed exactly at the triggering detection instant"
    );
    let detections_of_4: Vec<_> = report
        .detections
        .iter()
        .filter(|d| d.suspect == 4)
        .collect();
    assert!(
        !detections_of_4.is_empty(),
        "the cascaded crash was detected too"
    );
    for d in &detections_of_4 {
        let latency = d.latency.expect("a real detection, not a false suspicion");
        assert!(latency <= report.detection_bound);
        assert!(d.suspected_at > first_detection_of_0);
    }
    assert!(report.views_agree);
    assert_eq!(
        report.view_history.last().unwrap().1,
        vec![1, 2, 3],
        "membership excluded both the scripted and the injected crash"
    );
    // Survivors kept their deadlines through the cascade.
    for n in &report.node_reports {
        if n.crashed_at.is_none() {
            assert_eq!(n.app_misses, 0);
        }
    }
}

/// Crashes a node that already has a *scripted* crash window later in
/// the run — the applied plan and the runtime fault plan must agree on
/// the resulting window.
#[derive(Debug, Default)]
struct EarlyCrash {
    fired: bool,
}

impl ScenarioDriver for EarlyCrash {
    fn on_event(&mut self, _now: Time, _event: &ClusterEvent, _ctl: &mut ControlHandle<'_>) {}

    fn on_tick(&mut self, now: Time, ctl: &mut ControlHandle<'_>) {
        if !std::mem::replace(&mut self.fired, true) {
            // Node 2 is ALSO scripted to crash at 20 ms.
            ctl.inject(FaultOp::Crash {
                node: 2,
                at: now,
                until: None,
            });
        }
    }
}

#[test]
fn reactive_crash_merging_into_a_scripted_window_stays_consistent() {
    // Scripted: node 2 down [20 ms, 35 ms). The driver additionally
    // injects a PERMANENT crash of node 2 at its first tick (~1 ms).
    // The scripted restart closes the merged window — node 2 must be
    // down exactly [tick, 35 ms), really rejoin at 35 ms, and the
    // report must say so (no phantom window edges either way).
    let mut spec = ClusterSpec::new(4)
        .horizon(ms(70))
        .seed(4)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(2), t_ms(20))
                .restart(NodeId(2), t_ms(35)),
        )
        .driver(Box::new(EarlyCrash::default()));
    for node in 0..4 {
        spec = spec.service(ServiceSpec::periodic("ctl", node, us(200), ms(2)));
    }
    let run = spec.run().unwrap();
    let report = run.report();
    let n2 = &report.node_reports[2];
    assert!(
        n2.crashed_at.unwrap() < t_ms(2),
        "the reactive crash started the window: {:?}",
        n2.crashed_at
    );
    assert_eq!(n2.restarted_at, Some(t_ms(35)), "the scripted restart held");
    // The node really came back: one completed rejoin, re-admitted view.
    assert_eq!(report.recoveries.len(), 1);
    assert_eq!(report.recoveries[0].crashed_at, n2.crashed_at.unwrap());
    assert_eq!(report.recoveries[0].restarted_at, t_ms(35));
    assert_eq!(report.view_history.last().unwrap().1, vec![0, 1, 2, 3]);
    assert!(report.views_agree);
    // Every suspicion of node 2 inside the merged window is a REAL
    // detection against the applied (merged) window start.
    assert!(report.no_false_suspicions());
    // Exactly one rejoin cycle: no duplicate restart events reached the
    // agent from the merged injection.
    assert_eq!(report.node_reports[2].app_misses, 0);
}

/// Stages two crashes of node 2 at time zero, in the given order:
/// `(at, until)`, `None` = permanent.
#[derive(Debug)]
struct TwoCrashes([(Time, Option<Time>); 2]);

impl ScenarioDriver for TwoCrashes {
    fn on_start(&mut self, _now: Time, ctl: &mut ControlHandle<'_>) {
        for (at, until) in self.0 {
            ctl.inject(FaultOp::Crash { node: 2, at, until });
        }
    }

    fn on_event(&mut self, _now: Time, _event: &ClusterEvent, _ctl: &mut ControlHandle<'_>) {}
}

fn run_two_crashes(crashes: [(Time, Option<Time>); 2]) -> ClusterRun {
    let mut spec = ClusterSpec::new(4)
        .horizon(ms(120))
        .seed(3)
        .driver(Box::new(TwoCrashes(crashes)));
    for node in 0..4 {
        spec = spec.service(ServiceSpec::periodic("app", node, us(100), ms(2)));
    }
    spec.run().unwrap()
}

#[test]
fn a_window_staged_after_a_permanent_crash_reports_no_restart() {
    // The network merges [10 ms, 50 ms) into the permanent crash at
    // 30 ms: node 2 never comes back, and the report must not say it
    // restarted at 50 ms.
    let run = run_two_crashes([(t_ms(30), None), (t_ms(10), Some(t_ms(50)))]);
    let report = run.report();
    assert_eq!(report.node_reports[2].crashed_at, Some(t_ms(10)));
    assert_eq!(report.node_reports[2].restarted_at, None);
    assert_eq!(report.scripted_rejoins, 0);
    assert!(report.recoveries.is_empty());
    assert_eq!(report.view_history.last().unwrap().1, vec![0, 1, 3]);
}

#[test]
fn a_window_merged_into_a_later_one_restarts_with_it() {
    // [30 ms, 41 ms) overlaps the already staged [40 ms, 70 ms): the
    // network keeps node 2 down over [30 ms, 70 ms), and so must the
    // report.
    let run = run_two_crashes([(t_ms(40), Some(t_ms(70))), (t_ms(30), Some(t_ms(41)))]);
    let report = run.report();
    assert_eq!(report.node_reports[2].restarted_at, Some(t_ms(70)));
    let (rejoined_at, latency) = run
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::RejoinCompleted {
                node: 2,
                at,
                latency,
                ..
            } => Some((*at, *latency)),
            _ => None,
        })
        .expect("node 2 rejoined");
    assert_eq!(report.recoveries.len(), 1);
    let recovery = &report.recoveries[0];
    assert_eq!(
        (recovery.node, recovery.crashed_at, recovery.restarted_at),
        (2, t_ms(30), t_ms(70))
    );
    assert_eq!(recovery.rejoin_latency, latency);
    assert_eq!(recovery.restarted_at + recovery.rejoin_latency, rejoined_at);
}

/// An application task on `node` activated every 1 ms, running `wcet`
/// and due `deadline` after each activation. Under the default RM
/// priorities its 1 ms period outranks every middleware task, and with
/// the default zero dispatcher costs each instance runs from its
/// activation for exactly `wcet`.
fn app_task(id: u32, node: u32, wcet: Duration, deadline: Duration) -> ServiceSpec {
    let eu = CodeEu::new(format!("app{id}"), wcet, ProcessorId(node));
    let law = ArrivalLaw::Periodic(ms(1));
    let task = Task::new(TaskId(id), Heug::single(eu).unwrap(), law, deadline);
    ServiceSpec::task(format!("app{id}"), node, task)
}

/// Crashes the node of the first application deadline miss, at the miss.
#[derive(Debug, Default)]
struct CrashOnMiss {
    fired: bool,
}

impl ScenarioDriver for CrashOnMiss {
    fn on_event(&mut self, now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
        if let ClusterEvent::DeadlineMiss {
            node,
            middleware: false,
            ..
        } = event
        {
            if !std::mem::replace(&mut self.fired, true) {
                ctl.inject(FaultOp::Crash {
                    node: *node,
                    at: now,
                    until: None,
                });
            }
        }
    }
}

#[test]
fn a_crash_staged_at_an_instance_completion_keeps_it_out_of_the_node_report() {
    // Node 1's first instance runs [0, 100 µs) and is due at 100 µs. At
    // that instant its deadline check runs first (a miss: not done yet),
    // then its completion, then the driver's reaction to the miss crashes
    // node 1. The crash covers the instant the instance's fate was
    // sealed, so it is a crash casualty, not a scheduling outcome — and
    // every later activation dies with the node.
    let run = ClusterSpec::new(3)
        .horizon(ms(10))
        .service(app_task(0, 1, us(100), us(100)))
        .driver(Box::new(CrashOnMiss::default()))
        .run()
        .unwrap();
    let miss = run
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::DeadlineMiss { node: 1, at, .. } => Some(*at),
            _ => None,
        })
        .expect("node 1's first instance missed");
    assert_eq!(miss, Time::ZERO + us(100));
    let n1 = &run.report().node_reports[1];
    assert_eq!(
        n1.crashed_at,
        Some(miss),
        "crashed at the completion instant"
    );
    assert_eq!(
        (n1.app_instances, n1.app_misses, n1.worst_app_response),
        (0, 0, None)
    );
}

#[test]
fn a_late_completion_counts_as_a_miss_and_its_response_as_the_worst() {
    // Due 50 µs after each activation, done after 100 µs: every instance
    // that completes is late. The activations are at 0, 1, …, 10 ms; the
    // one at the horizon is still in flight, neither done nor missed.
    let run = ClusterSpec::new(3)
        .horizon(ms(10))
        .service(app_task(0, 1, us(100), us(50)))
        .run()
        .unwrap();
    let n1 = &run.report().node_reports[1];
    assert_eq!((n1.app_instances, n1.app_misses), (11, 10));
    assert_eq!(n1.worst_app_response, Some(us(100)), "the late response");
    let misses = run.events_of_kind("deadline-miss").count();
    assert_eq!(misses, 10);
}

#[test]
fn an_instance_in_flight_at_the_horizon_counts_unless_a_later_crash_covers_it() {
    // The run ends at 10.2 ms, while the instances activated at 10 ms on
    // nodes 1 and 2 run [10 ms, 10.3 ms), due at 11 ms. Node 2 is
    // scripted to crash at 10.5 ms: after the horizon, but inside the
    // span its in-flight instance would have needed, so that instance is
    // a casualty. Node 1's is counted, not missed, with no response.
    let crash = Time::ZERO + us(10_500);
    let run = ClusterSpec::new(3)
        .horizon(us(10_200))
        .scenario(ScenarioPlan::new().crash(NodeId(2), crash))
        .service(app_task(0, 1, us(300), ms(1)))
        .service(app_task(1, 2, us(300), ms(1)))
        .run()
        .unwrap();
    let r = run.report();
    let (n1, n2) = (&r.node_reports[1], &r.node_reports[2]);
    assert_eq!(
        (n1.app_instances, n1.app_misses, n1.worst_app_response),
        (11, 0, Some(us(300)))
    );
    assert_eq!(n2.crashed_at, Some(crash));
    assert_eq!(
        (n2.app_instances, n2.app_misses, n2.worst_app_response),
        (10, 0, Some(us(300)))
    );
}

#[test]
fn cascade_runs_are_deterministic() {
    let build = || {
        let mut spec = ClusterSpec::new(5)
            .horizon(ms(50))
            .seed(9)
            .scenario(ScenarioPlan::new().crash(NodeId(0), t_ms(12)))
            .driver(Box::new(CascadeDriver {
                trigger: 0,
                victim: 2,
                fired: false,
            }));
        for node in 0..5 {
            spec = spec.service(ServiceSpec::periodic("ctl", node, us(200), ms(2)));
        }
        spec.run().unwrap()
    };
    assert_eq!(build(), build(), "reactive injection stays deterministic");
}

/// Sheds the named workload to `permille` on the first application
/// deadline miss.
#[derive(Debug)]
struct ShedDriver {
    service: &'static str,
    permille: u32,
    fired: bool,
}

impl ScenarioDriver for ShedDriver {
    fn on_event(&mut self, _now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
        if self.fired {
            return;
        }
        if let ClusterEvent::DeadlineMiss {
            middleware: false, ..
        } = event
        {
            self.fired = true;
            assert!(ctl.throttle_workload(self.service, self.permille));
        }
    }
}

/// An overloaded node 0 (non-harmonic pair beyond the RM bound) next to
/// a replicated store on nodes 1-2.
fn shedding_spec(seed: u64) -> ClusterSpec {
    ClusterSpec::new(3)
        .horizon(ms(60))
        .seed(seed)
        .service(ServiceSpec::replicated(
            "store",
            ReplicaStyle::Active,
            vec![1, 2],
            GroupLoad::default(),
        ))
        .service(ServiceSpec::periodic("heavy-a", 0, ms(1), ms(2)))
        .service(ServiceSpec::periodic("heavy-b", 0, us(1_100), ms(3)))
}

#[test]
fn deadline_miss_triggered_load_shedding_thins_the_request_stream() {
    let baseline = shedding_spec(5).run().unwrap();
    let shed = shedding_spec(5)
        .driver(Box::new(ShedDriver {
            service: "store",
            permille: 200,
            fired: false,
        }))
        .run()
        .unwrap();

    // The overload produced misses in both runs, and the driver reacted
    // in the second: the retune event sits in the stream right after the
    // first miss.
    let first_miss = shed
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::DeadlineMiss {
                middleware: false,
                at,
                ..
            } => Some(*at),
            _ => None,
        })
        .expect("the overloaded node missed deadlines");
    let retune = shed
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::WorkloadRetuned {
                service,
                permille,
                at,
            } => Some((*service, *permille, *at)),
            _ => None,
        })
        .expect("the driver retuned the store workload");
    assert_eq!(retune.1, 200);
    assert_eq!(retune.2, first_miss, "shed at the miss instant");
    assert_eq!(retune.0, 0, "the store is service #0");

    // The shed stream is measurably thinner than the baseline, and the
    // thinning starts only after the miss: both runs submit identically
    // up to it.
    let b = &baseline.report().groups[0];
    let s = &shed.report().groups[0];
    assert!(
        s.submitted < b.submitted,
        "shedding thinned the stream: {} vs baseline {}",
        s.submitted,
        b.submitted
    );
    assert!(s.submitted > 0, "the stream kept flowing at the shed rate");
    assert!(s.order_agreement && s.order_consistent);
}

/// Admits the standby service when the trigger node's crash is detected.
#[derive(Debug)]
struct AdmitDriver {
    trigger: u32,
    service: &'static str,
    fired: bool,
}

impl ScenarioDriver for AdmitDriver {
    fn on_event(&mut self, _now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
        if self.fired {
            return;
        }
        if let ClusterEvent::Detected { suspect, .. } = event {
            if *suspect == self.trigger {
                self.fired = true;
                assert!(ctl.admit_service(self.service));
            }
        }
    }
}

fn standby_spec(seed: u64) -> ClusterSpec {
    ClusterSpec::new(3)
        .horizon(ms(50))
        .seed(seed)
        .scenario(ScenarioPlan::new().crash(NodeId(2), t_ms(10)))
        .service(ServiceSpec::periodic("ctl-a", 0, us(200), ms(2)))
        // Node 1 carries ONLY the standby service, so its app-instance
        // count isolates the admission.
        .service(ServiceSpec::periodic("fallback", 1, us(300), ms(2)).standby())
}

#[test]
fn driver_admits_a_standby_service_on_detection() {
    // Without a driver the standby service never runs...
    let idle = standby_spec(7).run().unwrap();
    assert_eq!(idle.report().node_reports[1].app_instances, 0);

    // ...with the driver it starts exactly at the detection instant.
    let run = standby_spec(7)
        .driver(Box::new(AdmitDriver {
            trigger: 2,
            service: "fallback",
            fired: false,
        }))
        .run()
        .unwrap();
    let admitted_at = run
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::ServiceAdmitted { service: 1, at } => Some(*at),
            _ => None,
        })
        .expect("the driver admitted the fallback service");
    let detect_at = run
        .events()
        .iter()
        .find_map(|e| match e {
            ClusterEvent::Detected { suspect: 2, at, .. } => Some(*at),
            _ => None,
        })
        .expect("the crash was detected");
    assert_eq!(admitted_at, detect_at);
    let n1 = &run.report().node_reports[1];
    assert!(n1.app_instances > 0, "the fallback ran after admission");
    assert_eq!(n1.app_misses, 0);
    // ~20 activations fit between detection (~12 ms) and the horizon at
    // a 2 ms period; a full-run chain would have seen ~25.
    assert!(n1.app_instances >= 10 && n1.app_instances <= 22);
}

/// Closed-loop spec: a 3-member active store driven by a closed-loop
/// client with a deliberately loose analytic response bound (1 ms), so
/// live measured feedback and the analytic baseline differ visibly.
fn closed_loop_spec(seed: u64, live: bool, crash_gateway: bool) -> ClusterSpec {
    let workload: Box<dyn Workload> = if live {
        Box::new(ClosedLoop::new(ms(1), ms(1), t_ms(1)))
    } else {
        // The analytic baseline: one request per think + response bound.
        Box::new(ConstantRate::new(ms(1) + ms(1), t_ms(1)))
    };
    let mut spec = ClusterSpec::new(3).horizon(ms(60)).seed(seed).service(
        ServiceSpec::replicated(
            "loop-store",
            ReplicaStyle::Active,
            vec![0, 1, 2],
            GroupLoad::default(),
        )
        .workload(workload),
    );
    if crash_gateway {
        // The gateway (lowest member) dies mid-run and rejoins later:
        // the failover window is the injected congestion.
        spec = spec.scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), t_ms(20))
                .restart(NodeId(0), t_ms(35)),
        );
    }
    spec
}

#[test]
fn live_closed_loop_tracks_measured_responses_not_the_analytic_bound() {
    // Healthy runs: measured responses (≈ Δ, tens of µs) beat the 1 ms
    // analytic bound, so the live loop cycles at ~think + Δ while the
    // baseline plods at think + bound — the live stream is measurably
    // denser.
    let live = closed_loop_spec(11, true, false).run().unwrap();
    let analytic = closed_loop_spec(11, false, false).run().unwrap();
    let live_n = live.report().groups[0].submitted;
    let analytic_n = analytic.report().groups[0].submitted;
    assert!(
        live_n > analytic_n + analytic_n / 2,
        "measured feedback must outpace the analytic bound: {live_n} vs {analytic_n}"
    );
    // Every request still behaves: same agreement properties either way.
    assert!(live.report().groups[0].order_agreement);
    assert_eq!(live.report().groups[0].duplicate_outputs, 0);
}

#[test]
fn closed_loop_schedule_shifts_under_failover_congestion() {
    // Injected congestion: the gateway crashes at 20 ms. The open-loop
    // analytic baseline is blind to it — the interim gateway makes up
    // every scheduled request, so its total is unchanged. The live loop
    // genuinely stalls (no responses → no new submissions) and ends
    // measurably shorter than its own healthy run.
    let live_healthy = closed_loop_spec(13, true, false).run().unwrap();
    let live_crashed = closed_loop_spec(13, true, true).run().unwrap();
    let analytic_healthy = closed_loop_spec(13, false, false).run().unwrap();
    let analytic_crashed = closed_loop_spec(13, false, true).run().unwrap();

    let n = |run: &ClusterRun| run.report().groups[0].submitted;
    assert_eq!(
        n(&analytic_healthy),
        n(&analytic_crashed),
        "the analytic baseline is congestion-blind (makeup resubmits everything)"
    );
    assert!(
        n(&live_crashed) < n(&live_healthy),
        "the live loop reacted to the failover stall: {} vs healthy {}",
        n(&live_crashed),
        n(&live_healthy)
    );
    // And the loop recovered after the failover rather than dying with
    // the gateway: it still outpaces the analytic baseline overall.
    assert!(n(&live_crashed) > n(&analytic_crashed));
}

#[test]
fn retire_and_admit_cycle_a_running_service() {
    /// Retires the control task service on its 3rd tick, re-admits it on
    /// the 8th — a driver-side mode change.
    #[derive(Debug, Default)]
    struct Cycle {
        ticks: u32,
    }
    impl ScenarioDriver for Cycle {
        fn on_event(&mut self, _now: Time, _event: &ClusterEvent, _ctl: &mut ControlHandle<'_>) {}
        fn on_tick(&mut self, _now: Time, ctl: &mut ControlHandle<'_>) {
            self.ticks += 1;
            if self.ticks == 3 {
                assert!(ctl.retire_service("cycled"));
            } else if self.ticks == 8 {
                assert!(ctl.admit_service("cycled"));
            }
        }
    }
    let spec = ClusterSpec::new(2)
        .horizon(ms(40))
        .seed(1)
        .service(ServiceSpec::periodic("cycled", 0, us(200), ms(2)))
        .service(ServiceSpec::periodic("steady", 1, us(200), ms(2)))
        .driver(Box::new(Cycle::default()));
    let run = spec.run().unwrap();
    let kinds = run.kind_sequence();
    let retired = kinds.iter().position(|k| *k == "service-retired");
    let admitted = kinds.iter().position(|k| *k == "service-admitted");
    assert!(retired.is_some() && admitted.is_some());
    assert!(retired < admitted);
    // The cycled service lost the ~5 ms gap (a couple of activations of
    // a 2 ms period); the steady one kept the full run.
    let r = run.report();
    assert!(
        r.node_reports[0].app_instances + 1 < r.node_reports[1].app_instances,
        "the retire window removed activations: {} vs {}",
        r.node_reports[0].app_instances,
        r.node_reports[1].app_instances
    );
    assert_eq!(r.node_reports[0].app_misses, 0, "clean retire/admit edges");
}

#[test]
fn a_shared_service_name_addresses_every_entry_registered_under_it() {
    /// Retires "ctl" — registered once per node, the repo's usual
    /// idiom — on the 3rd tick. Every entry must stop, not just the
    /// first-registered one.
    #[derive(Debug, Default)]
    struct RetireAll {
        ticks: u32,
    }
    impl ScenarioDriver for RetireAll {
        fn on_event(&mut self, _now: Time, _event: &ClusterEvent, _ctl: &mut ControlHandle<'_>) {}
        fn on_tick(&mut self, _now: Time, ctl: &mut ControlHandle<'_>) {
            self.ticks += 1;
            if self.ticks == 3 {
                assert!(ctl.retire_service("ctl"));
            }
        }
    }
    let run = ClusterSpec::new(3)
        .horizon(ms(40))
        .seed(2)
        .service(ServiceSpec::periodic("ctl", 0, us(200), ms(2)))
        .service(ServiceSpec::periodic("ctl", 1, us(200), ms(2)))
        .service(ServiceSpec::periodic("steady", 2, us(200), ms(2)))
        .driver(Box::new(RetireAll::default()))
        .run()
        .unwrap();
    let r = run.report();
    // One retirement event per addressed entry.
    assert_eq!(run.events_of_kind("service-retired").count(), 2);
    // BOTH ctl entries stopped at ~3 ms; the steady service ran on.
    let steady = r.node_reports[2].app_instances;
    for node in [0usize, 1] {
        let n = r.node_reports[node].app_instances;
        assert!(
            n <= 3 && n < steady / 3,
            "node {node}: {n} instances vs steady {steady}"
        );
    }
}

/// Slows two nodes at the first tick through windows the control plane
/// must clamp: node 1's starts before the tick, node 2's ends before it
/// starts.
#[derive(Debug, Default)]
struct ClampedSlowdowns {
    fired: bool,
}

impl ScenarioDriver for ClampedSlowdowns {
    fn on_event(&mut self, _now: Time, _event: &ClusterEvent, _ctl: &mut ControlHandle<'_>) {}

    fn on_tick(&mut self, now: Time, ctl: &mut ControlHandle<'_>) {
        if std::mem::replace(&mut self.fired, true) {
            return;
        }
        ctl.inject(FaultOp::Slow {
            node: 1,
            at: now - us(500),
            until: now + us(1_500),
            speed_permille: 500,
        });
        ctl.inject(FaultOp::Slow {
            node: 2,
            at: now + us(4_100),
            until: now + ms(4),
            speed_permille: 1,
        });
    }
}

#[test]
fn a_runtime_slowdown_is_clamped_to_now_and_to_a_positive_length() {
    // The first tick is at 1 ms. Node 1's window [0.5 ms, 2.5 ms) runs
    // from the tick: its instances activated at 1 ms (600 µs) and 2 ms
    // (550 µs) run at half speed and are late. Node 2's window
    // [5.1 ms, 5 ms) lasts 1 ns from 5.1 ms, inside the instance
    // activated at 5 ms.
    let run = ClusterSpec::new(3)
        .horizon(ms(10))
        .service(app_task(0, 1, us(300), us(500)))
        .service(app_task(1, 2, us(300), us(500)))
        .driver(Box::new(ClampedSlowdowns::default()))
        .run()
        .unwrap();
    let r = run.report();
    let (n1, n2) = (&r.node_reports[1], &r.node_reports[2]);
    assert_eq!(
        (n1.app_instances, n1.app_misses, n1.worst_app_response),
        (11, 2, Some(us(600)))
    );
    assert_eq!(
        (n2.app_instances, n2.app_misses, n2.worst_app_response),
        (11, 0, Some(us(300) + Duration::from_nanos(1)))
    );
}
