//! Integration tests of the sharded service fabric (`hades-fabric`):
//! population-scale load over consistent-hash shards, bounded
//! rebalancing on node loss, and whole-report determinism.

use proptest::prelude::*;

use hades::prelude::*;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// A 10⁶-client population in three load classes — clients are pure
/// rate multipliers, so the engine only ever sees the aggregate
/// streams.
fn million_clients(spec: FabricSpec) -> FabricSpec {
    spec.class(LoadClass::new("browse", 700_000, Duration::from_secs(15)))
        .class(
            LoadClass::new("checkout", 200_000, Duration::from_secs(8)).arrival(Arrival::Bursty {
                on: ms(4),
                off: ms(6),
            }),
        )
        .class(
            LoadClass::new("api", 100_000, Duration::from_secs(2))
                .arrival(Arrival::Ramp { from_permille: 300 }),
        )
}

/// The acceptance-scale fabric: 24 nodes (8 placements of 3), 64
/// shards, one million simulated clients over a 30 ms horizon.
fn fabric_1m(seed: u64) -> FabricSpec {
    million_clients(FabricSpec::new(24, 64))
        .horizon(ms(30))
        .seed(seed)
        .telemetry(Registry::enabled())
}

#[test]
fn million_client_fabric_sustains_the_population_without_faults() {
    let run = fabric_1m(11).run().expect("fabric runs");
    let report = &run.report;
    assert_eq!(report.clients, 1_000_000);
    assert_eq!(report.shards, 64);
    assert_eq!(report.per_shard.len(), 64);
    assert!(
        report.moves.is_empty(),
        "no faults, no moves: {:?}",
        report.moves
    );
    assert_eq!(report.totals.moved, 0);
    assert_eq!(report.totals.dropped, 0);
    assert!(
        report.totals.routed > 2_000,
        "a 1M-client population must materialize thousands of requests, got {}",
        report.totals.routed
    );
    assert_eq!(
        report.totals.routed,
        report.per_shard.iter().map(|s| s.routed).sum::<u64>(),
        "totals are the per-shard sum"
    );

    // Latency grading: percentiles exist per shard and in aggregate,
    // and a crash-free feasible fabric meets the Δ + δmax bound.
    assert!(!report.output_bound.is_zero());
    let agg = report.totals.latency.expect("aggregate latency");
    assert!(agg.p50 <= agg.p99 && agg.p99 <= agg.p999);
    assert!(
        agg.p999 <= report.output_bound.as_nanos(),
        "p999 {}ns beyond the Δ + δmax bound {}ns",
        agg.p999,
        report.output_bound.as_nanos()
    );
    assert_eq!(
        report.totals.delayed, 0,
        "crash-free outputs stay within the bound"
    );
    for shard in &report.per_shard {
        let lat = shard.latency.expect("every shard saw traffic");
        assert!(
            lat.p99 <= agg.p999.max(lat.p99),
            "per-shard summary is well-formed"
        );
        assert!(shard.home < 8);
    }

    // The fabric.* metric family mirrors the report.
    assert_eq!(run.metrics.gauge("fabric.clients"), Some(1_000_000));
    assert_eq!(run.metrics.gauge("fabric.shards"), Some(64));
    assert_eq!(
        run.metrics.counter("fabric.requests_routed"),
        Some(report.totals.routed)
    );
    assert_eq!(run.metrics.counter("fabric.shards_moved"), Some(0));
    let hist = run
        .metrics
        .histogram("fabric.response_ns")
        .expect("latency histogram");
    assert_eq!(hist.count, report.totals.on_time + report.totals.delayed);
}

#[test]
fn a_node_crash_moves_exactly_the_crashed_placements_shards() {
    // Node 4 is a follower in placement 1 (nodes 3,4,5): its crash must
    // move every shard homed on placement 1 and nothing else.
    let spec = fabric_1m(17).scenario(ScenarioPlan::new().crash(NodeId(4), Time::ZERO + ms(10)));
    let router = spec.router();
    let crashed_placement = 1u32;
    let expected: std::collections::BTreeSet<u32> = (0..64)
        .filter(|s| router.home(*s) == crashed_placement)
        .collect();
    assert!(
        !expected.is_empty(),
        "seeded ring homes no shard on placement 1?"
    );

    let run = spec.run().expect("fabric runs");
    let report = &run.report;

    let moved: std::collections::BTreeSet<u32> = report.moves.iter().map(|m| m.shard).collect();
    assert_eq!(
        moved, expected,
        "exactly the crashed placement's shards move"
    );
    assert_eq!(report.moves.len(), expected.len(), "each shard moves once");
    for mv in &report.moves {
        assert_eq!(mv.from, crashed_placement);
        assert_eq!(
            mv.to,
            router.standby(mv.shard),
            "moves land on the ring successor"
        );
        assert_ne!(mv.to, crashed_placement);
        assert!(mv.at >= Time::ZERO + ms(10), "moves follow the crash");
    }

    // Redirected traffic: the standby placements served post-move
    // requests; untouched shards saw no movement and no losses.
    assert!(
        report.totals.moved > 0,
        "standby groups served redirected requests"
    );
    for shard in &report.per_shard {
        if moved.contains(&shard.shard) {
            assert!(shard.routed >= shard.moved);
        } else {
            assert_eq!(shard.moved, 0, "shard {} moved without cause", shard.shard);
            assert_eq!(shard.dropped, 0);
        }
    }

    // No double execution: a follower crash triggers no takeover, so no
    // group may emit a duplicate client output — each request executes
    // on exactly one serving group.
    for group in &run.cluster.report().groups {
        assert_eq!(
            group.duplicate_outputs, 0,
            "group {} re-executed a request across the move",
            group.group
        );
    }

    // The event stream carries the same story.
    let shard_moved_events = run.cluster.events_of_kind("shard-moved").count();
    assert_eq!(shard_moved_events, expected.len());
    assert_eq!(
        run.metrics.counter("fabric.shards_moved"),
        Some(expected.len() as u64)
    );
    assert_eq!(
        run.metrics.counter("fabric.requests_moved"),
        Some(report.totals.moved)
    );
}

#[test]
fn a_profiled_fabric_accounts_for_every_engine_event() {
    let small = |profiler: Profiler| {
        FabricSpec::new(6, 8)
            .class(LoadClass::new("web", 60_000, Duration::from_secs(5)))
            .horizon(ms(10))
            .seed(3)
            .telemetry(Registry::enabled())
            .profile(profiler)
            .scenario(ScenarioPlan::new().crash(NodeId(1), Time::ZERO + ms(4)))
    };
    let profiler = Profiler::enabled();
    let run = small(profiler.clone()).run().expect("fabric runs");
    let profile = run.cluster.profile().expect("profiler attached");
    assert_eq!(
        Some(profile.total_events),
        run.cluster.telemetry().metrics.counter("engine.events")
    );
    // The request path shows up under its own kinds and actors...
    for kind in ["activate", "work_done", "actor.message"] {
        assert!(profile.kind(kind).is_some_and(|k| k.count > 0), "{kind}");
    }
    assert!(profile.actors.iter().any(|a| a.label == "group"));
    let wall = profiler.wall_totals();
    assert!(wall.iter().any(|(kind, ns)| kind == "work_done" && *ns > 0));
    // ...and observing it changes nothing.
    let plain = small(Profiler::disabled()).run().expect("fabric runs");
    assert_eq!(plain.cluster.profile(), None);
    assert_eq!(plain.report, run.report);
    assert_eq!(plain.cluster.events(), run.cluster.events());
}

#[test]
fn zero_virtual_nodes_are_an_error_not_a_panic() {
    let spec = FabricSpec::new(6, 4)
        .class(LoadClass::new("web", 1_000, Duration::from_secs(5)))
        .vnodes(0);
    let err = spec
        .run()
        .expect_err("a ring with no virtual node is rejected");
    assert_eq!(err, FabricError::NoVirtualNodes);
    assert_eq!(
        err.to_string(),
        "a fabric's ring needs at least one virtual node per placement"
    );
}

/// The error `run` reports for a fabric of `nodes` nodes and `shards`
/// shards under one web class, shaped further by `shape`.
fn shape_error(nodes: u32, shards: u32, shape: fn(FabricSpec) -> FabricSpec) -> FabricError {
    let spec =
        FabricSpec::new(nodes, shards).class(LoadClass::new("web", 1_000, Duration::from_secs(5)));
    shape(spec).run().expect_err("the shape is rejected")
}

#[test]
fn zero_shards_are_an_error_not_a_panic() {
    let err = shape_error(6, 0, |spec| spec);
    assert_eq!(err, FabricError::NoShards);
    assert_eq!(err.to_string(), "a fabric needs at least one shard");
}

#[test]
fn zero_replicas_are_an_error_not_a_panic() {
    let err = shape_error(6, 4, |spec| spec.replicas(0));
    assert_eq!(err, FabricError::NoReplicas);
    assert_eq!(err.to_string(), "placements need at least one replica");
}

#[test]
fn a_zero_separation_floor_is_an_error_not_a_panic() {
    let err = shape_error(6, 4, |spec| spec.min_gap(Duration::ZERO));
    assert_eq!(err, FabricError::NoMinGap);
    assert_eq!(err.to_string(), "the separation floor must be positive");
}

/// The error `run` reports for a six-node, four-shard fabric whose one
/// load class is `class`.
fn class_error(class: LoadClass) -> FabricError {
    FabricSpec::new(6, 4)
        .class(class)
        .run()
        .expect_err("the load class is rejected")
}

#[test]
fn a_class_without_clients_is_an_error_not_a_panic() {
    let err = class_error(LoadClass::new("idle", 0, Duration::from_secs(5)));
    assert_eq!(
        err,
        FabricError::InvalidLoadClass {
            name: "idle".into()
        }
    );
    assert_eq!(
        err.to_string(),
        "load class \"idle\" needs a client, a positive think time and a non-empty burst cycle"
    );
}

#[test]
fn a_class_without_think_time_is_an_error_not_a_panic() {
    let err = class_error(LoadClass::new("eager", 1_000, Duration::ZERO));
    assert_eq!(
        err,
        FabricError::InvalidLoadClass {
            name: "eager".into()
        }
    );
}

#[test]
fn a_bursty_class_without_a_cycle_is_an_error_not_a_panic() {
    let class = LoadClass::new("flat", 1_000, Duration::from_secs(5)).arrival(Arrival::Bursty {
        on: Duration::ZERO,
        off: Duration::ZERO,
    });
    assert!(!class.is_valid());
    // Neither the stream nor its mean gap divides by the empty cycle.
    assert!(PopulationWorkload::new(class.clone(), 7)
        .events(ms(5))
        .is_empty());
    assert_eq!(class.mean_gap(), Duration::from_millis(5));
    let err = class_error(class);
    assert_eq!(
        err,
        FabricError::InvalidLoadClass {
            name: "flat".into()
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A fabric run — schedules, events, report, metrics — is a pure
    /// function of its spec and seed, crash rebalancing included.
    #[test]
    fn fabric_reports_are_deterministic(seed in 0u64..1 << 48) {
        let build = |seed| {
            FabricSpec::new(6, 8)
                .class(LoadClass::new("web", 60_000, Duration::from_secs(5)))
                .horizon(ms(10))
                .seed(seed)
                .telemetry(Registry::enabled())
                .scenario(ScenarioPlan::new().crash(NodeId(1), Time::ZERO + ms(4)))
        };
        let a = build(seed).run().expect("fabric runs");
        let b = build(seed).run().expect("fabric runs");
        prop_assert_eq!(&a.report, &b.report);
        prop_assert_eq!(&a.metrics, &b.metrics);
        prop_assert_eq!(a.cluster.events(), b.cluster.events());
    }
}
