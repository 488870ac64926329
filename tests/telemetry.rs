//! Telemetry end-to-end: determinism of the metrics snapshot and span
//! JSONL under a fixed seed, zero perturbation of the simulation by an
//! attached (or absent) registry, and the closed-loop abandonment path
//! surfaced through both the report and the counters.

use proptest::prelude::*;

use hades::prelude::*;
use hades_services::ReplicaStyle;
use hades_sim::NodeId;
use hades_telemetry::Registry;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// A failover + rejoin scenario with a replicated closed-loop service —
/// every span kind (rejoin, failover, takeover, view, request) on the
/// clock.
fn telemetry_scenario(nodes: u32, seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(nodes)
        .seed(seed)
        .horizon(ms(60))
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), Time::ZERO + ms(15))
                .restart(NodeId(0), Time::ZERO + ms(35)),
        )
        .service(
            ServiceSpec::replicated(
                "store",
                ReplicaStyle::SemiActive,
                vec![0, 1, 2],
                GroupLoad::default(),
            )
            .workload(Box::new(
                ClosedLoop::new(us(500), ms(1), Time::ZERO + ms(2)).with_timeout(ms(4)),
            )),
        );
    for node in 0..nodes {
        spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }
    spec
}

#[test]
fn enabled_registry_fills_metrics_and_spans() {
    let registry = Registry::enabled();
    let run = telemetry_scenario(4, 11)
        .telemetry(registry.clone())
        .run()
        .expect("valid spec");
    let telemetry = run.telemetry();
    assert!(!telemetry.is_empty());
    assert!(telemetry.metrics.counter("engine.events").unwrap_or(0) > 0);
    assert!(
        telemetry
            .metrics
            .counter("agents.heartbeats_sent")
            .unwrap_or(0)
            > 0
    );
    assert!(
        telemetry
            .metrics
            .gauge("engine.queue_depth_peak")
            .unwrap_or(0)
            > 0
    );
    assert!(telemetry.metrics.histogram("group.response_ns").is_some());
    // Every protocol span kind is present for this scenario.
    for kind in ["rejoin", "failover", "view", "request"] {
        assert!(
            telemetry.spans.of_kind(kind).next().is_some(),
            "missing {kind} spans"
        );
    }
    // The rejoin span carries the protocol's phase decomposition.
    let rejoin = telemetry.spans.of_kind("rejoin").next().unwrap();
    let phases: Vec<&str> = rejoin.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(phases, ["announce", "transfer+replay", "readmit"]);
    // Wall-clock measurements live in the volatile side channel, never
    // in the deterministic snapshot.
    assert!(registry.volatile("engine.wall_ns").unwrap_or(0) > 0);
    assert!(telemetry.metrics.counter("engine.wall_ns").is_none());
}

#[test]
fn disabled_registry_leaves_telemetry_empty() {
    let run = telemetry_scenario(4, 11).run().expect("valid spec");
    assert!(run.telemetry().is_empty());
}

#[test]
fn telemetry_is_pure_observation() {
    // Identical spec + seed, with and without a registry: the report and
    // the event stream must be identical — instrumentation never
    // perturbs the simulation.
    let bare = telemetry_scenario(4, 23).run().expect("valid spec");
    let instrumented = telemetry_scenario(4, 23)
        .telemetry(Registry::enabled())
        .run()
        .expect("valid spec");
    assert_eq!(bare.report(), instrumented.report());
    assert_eq!(bare.events(), instrumented.events());
}

#[test]
fn abandonment_is_counted_in_report_and_telemetry() {
    // Crash the whole group: every in-flight request is lost, the
    // closed loop times out, re-issues, and recovers after the rejoin.
    let mut plan = ScenarioPlan::new();
    for node in 0..3 {
        plan = plan
            .crash(NodeId(node), Time::ZERO + ms(15))
            .restart(NodeId(node), Time::ZERO + ms(25 + node as u64));
    }
    let mut spec = ClusterSpec::new(4)
        .seed(5)
        .horizon(ms(80))
        .scenario(plan)
        .service(
            ServiceSpec::replicated(
                "store",
                ReplicaStyle::SemiActive,
                vec![0, 1, 2],
                GroupLoad::default(),
            )
            .workload(Box::new(
                ClosedLoop::new(us(500), ms(1), Time::ZERO + ms(2)).with_timeout(ms(4)),
            )),
        );
    for node in 0..4 {
        spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }
    let run = spec
        .telemetry(Registry::enabled())
        .run()
        .expect("valid spec");
    let group = &run.report().groups[0];
    assert!(group.abandoned >= 1, "blackout must abandon a request");
    assert_eq!(
        run.telemetry().metrics.counter("group.requests_abandoned"),
        Some(group.abandoned)
    );
    // The loop resumed after the blackout: requests were submitted well
    // past the restarts.
    let resumed = run.report().groups[0].submitted > group.abandoned;
    assert!(resumed, "closed loop must re-issue after the blackout");
}

#[test]
fn exported_spans_are_well_formed_under_fuzzed_fault_programs() {
    // Fuzzer programs reach protocol corners the hand-written scenario
    // never does: seed 11's second program retries a JOIN after the
    // first checkpoint chunk already arrived. Whatever the program, every
    // exported span must be well-formed, and a rejoin's three phases are
    // exactly the report's latency decomposition.
    let seed = 11;
    let cfg = FuzzConfig {
        nodes: 8,
        horizon: ms(100),
        spec_seed: seed,
        ..FuzzConfig::default()
    };
    let mut fuzzer = ChaosFuzzer::standard(cfg, seed);
    for program_no in 0..2 {
        let program = fuzzer.generate();
        let run = hades_chaos::standard_spec(8, ms(100), seed)
            .monitors(Watchdog::standard())
            .telemetry(Registry::enabled())
            .driver(Box::new(ProgramDriver::new(program)))
            .run()
            .expect("valid spec");
        let spans = run.telemetry().spans.spans();
        for s in spans {
            let at = format!("program {program_no}, span {} ({})", s.id.0, s.label);
            assert!(s.start <= s.end, "{at}: ends before it starts");
            if let Some(parent) = s.parent {
                assert!(spans.iter().any(|p| p.id == parent), "{at}: orphan");
            }
            for ph in &s.phases {
                assert!(ph.start <= ph.end, "{at}: phase {} runs backwards", ph.name);
            }
            for pair in s.phases.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{at}: phases not contiguous");
            }
        }
        let rejoins: Vec<_> = run.telemetry().spans.of_kind("rejoin").collect();
        let recoveries = &run.report().recoveries;
        assert_eq!(rejoins.len(), recoveries.len(), "program {program_no}");
        for (span, r) in rejoins.iter().zip(recoveries) {
            let phases: Vec<(&str, Duration)> = span
                .phases
                .iter()
                .map(|p| (p.name.as_str(), p.end - p.start))
                .collect();
            let expected = [
                ("announce", r.announce_latency),
                ("transfer+replay", r.transfer_latency),
                ("readmit", r.readmit_latency),
            ];
            assert_eq!(phases, expected, "program {program_no}, node {}", r.node);
        }
    }
}

#[test]
fn span_cap_drops_oldest_trees_and_counts_them() {
    let uncapped = telemetry_scenario(4, 11)
        .telemetry(Registry::enabled())
        .run()
        .expect("valid spec");
    let total = uncapped.telemetry().spans.spans().len();
    assert!(
        total > 8,
        "scenario must mint enough spans to overflow the cap"
    );
    let capped = telemetry_scenario(4, 11)
        .telemetry(Registry::enabled())
        .span_cap(8)
        .run()
        .expect("valid spec");
    let spans = &capped.telemetry().spans;
    assert!(spans.spans().len() <= 8);
    assert!(spans.spans_dropped() > 0);
    // The drop counter reaches the metrics snapshot, and the cap never
    // perturbs the simulation itself.
    assert!(
        capped
            .telemetry()
            .metrics
            .counter("telemetry.spans_dropped")
            .unwrap_or(0)
            > 0
    );
    assert_eq!(uncapped.report(), capped.report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same spec + same seed ⇒ byte-identical metrics snapshot JSONL and
    /// span JSONL, across cluster sizes and seeds.
    #[test]
    fn telemetry_is_deterministic_under_fixed_seed(
        nodes in 3u32..6,
        seed in 0u64..1_000,
    ) {
        let a = telemetry_scenario(nodes, seed)
            .telemetry(Registry::enabled())
            .run()
            .expect("valid spec");
        let b = telemetry_scenario(nodes, seed)
            .telemetry(Registry::enabled())
            .run()
            .expect("valid spec");
        prop_assert_eq!(
            a.telemetry().metrics.to_jsonl(),
            b.telemetry().metrics.to_jsonl()
        );
        prop_assert_eq!(
            a.telemetry().spans.to_jsonl(),
            b.telemetry().spans.to_jsonl()
        );
        prop_assert_eq!(a.telemetry(), b.telemetry());
    }
}
