//! Profiler end-to-end: a profiled run is byte-identical to an
//! unprofiled one (pure observation), the deterministic profile
//! artifacts (JSONL, folded stacks) are byte-stable under a fixed seed,
//! the per-kind network send counters quantify the heartbeat traffic,
//! and wall-clock attribution never leaks into the deterministic
//! report.

use proptest::prelude::*;

use hades::prelude::*;
use hades_services::ReplicaStyle;
use hades_sim::NodeId;
use hades_telemetry::{ProfileReport, Profiler, Registry};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The telemetry suite's failover + rejoin scenario: a replicated
/// closed-loop service plus per-node periodic control services, with a
/// mid-run crash and restart so deliveries, sends and faults all land.
fn profiling_scenario(nodes: u32, seed: u64) -> ClusterSpec {
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

fn profiled_run(nodes: u32, seed: u64) -> (ClusterRun, Profiler) {
    let profiler = Profiler::enabled();
    let run = profiling_scenario(nodes, seed)
        .telemetry(Registry::enabled())
        .profile(profiler.clone())
        .run()
        .expect("valid spec");
    (run, profiler)
}

#[test]
fn profiled_run_attributes_work_and_traffic() {
    let (run, _) = profiled_run(4, 11);
    let profile = run.profile().expect("profiler attached");
    assert!(!profile.is_empty());
    assert_eq!(
        profile.total_events,
        run.telemetry().metrics.counter("engine.events").unwrap()
    );

    // Engine work: the dispatcher kinds and the actor delivery classes
    // all show up, with service-gap distributions where a kind repeats.
    for kind in ["activate", "work_done", "actor.timer", "actor.message"] {
        let kp = profile.kind(kind).unwrap_or_else(|| panic!("kind {kind}"));
        assert!(kp.count > 0, "kind {kind} unseen");
    }
    let timers = profile.kind("actor.timer").unwrap();
    assert!(timers.gap.as_ref().is_some_and(|g| g.count > 0));

    // Per-actor shares: agents on every node, the replica group on its
    // members, and events attributed sum to the actor-delivery total.
    let mut agent_nodes: Vec<u32> = profile
        .actors
        .iter()
        .filter(|a| a.label == "agent")
        .map(|a| a.node)
        .collect();
    agent_nodes.sort_unstable();
    agent_nodes.dedup();
    assert_eq!(agent_nodes, vec![0, 1, 2, 3]);
    let delivered: u64 = profile
        .kinds
        .iter()
        .filter(|k| k.name.starts_with("actor."))
        .map(|k| k.count)
        .sum();
    let attributed: u64 = profile.actors.iter().map(|a| a.events).sum();
    // Deliveries to a crashed node are dropped before reaching the
    // actor, so attribution can fall slightly short of the engine's
    // actor-event counts — but never exceed them.
    assert!(attributed <= delivered, "{attributed} > {delivered}");
    assert!(
        attributed * 10 >= delivered * 9,
        "{attributed} vs {delivered}"
    );

    // Timeline: buckets cover the run and carry a queue high-water.
    assert!(!profile.timeline.is_empty());
    assert!(profile.timeline.iter().any(|b| b.queue_depth_max > 0));
    assert!(profile
        .timeline
        .windows(2)
        .all(|w| w[0].start_ns < w[1].start_ns));

    // Traffic matrix: heartbeats dominate and the share is one number.
    assert!(profile.traffic.iter().any(|t| t.kind == "agent.hb"));
    assert!(profile.heartbeat_msgs > 0);
    let share = profile.heartbeat_msg_share_permille();
    assert!(share > 0 && share <= 1000, "share {share}");
    assert!(profile.heartbeat_event_share_permille() <= 1000);

    // Exports: schema-checked JSONL and non-empty folded stacks.
    let doc = profile.to_jsonl();
    ProfileReport::validate_jsonl(&doc).expect("schema-valid profile JSONL");
    let folded = profile.to_folded();
    assert!(folded.lines().any(|l| l.starts_with("hades;engine;actor.")));
}

#[test]
fn net_counters_quantify_heartbeat_traffic_without_profiler() {
    let registry = Registry::enabled();
    let run = profiling_scenario(4, 11)
        .telemetry(registry.clone())
        .run()
        .expect("valid spec");
    assert!(run.profile().is_none());
    let metrics = &run.telemetry().metrics;
    let hb = metrics
        .counter("net.msgs.agent.hb")
        .expect("hb send counter");
    let total = metrics
        .counter("net.msgs.total")
        .expect("total send counter");
    assert!(hb > 0 && hb <= total);
    assert!(metrics.counter("net.bytes.total").unwrap() >= total * 32);
    // The counters agree with the agents' own heartbeat accounting.
    assert_eq!(hb, metrics.counter("agents.heartbeats_sent").unwrap());
}

#[test]
fn wall_clock_attribution_travels_only_through_volatiles() {
    let registry = Registry::enabled();
    let profiler = Profiler::enabled();
    let run = profiling_scenario(4, 11)
        .telemetry(registry.clone())
        .profile(profiler.clone())
        .run()
        .expect("valid spec");
    let volatiles = registry.volatiles();
    assert!(
        volatiles
            .iter()
            .any(|(name, ns)| name.starts_with("profile.wall_ns.") && *ns > 0),
        "no per-kind wall time recorded"
    );
    // ... but never into the deterministic snapshot or the report.
    assert!(run
        .telemetry()
        .metrics
        .counters
        .iter()
        .all(|(name, _)| !name.starts_with("profile.")));
    let mut doc = run.profile().unwrap().to_jsonl();
    assert!(!doc.contains("wall"));
    // Appended as "wall" records, a real run's totals keep the document
    // schema-valid.
    doc.push_str(&ProfileReport::wall_records(&profiler.wall_totals()));
    assert!(doc.contains("\"record\":\"wall\""));
    ProfileReport::validate_jsonl(&doc).expect("schema-valid with wall records");
}

#[test]
fn profile_jsonl_and_folded_are_byte_stable() {
    let (a, _) = profiled_run(5, 23);
    let (b, _) = profiled_run(5, 23);
    assert_eq!(a.profile(), b.profile());
    assert_eq!(
        a.profile().unwrap().to_jsonl(),
        b.profile().unwrap().to_jsonl()
    );
    assert_eq!(
        a.profile().unwrap().to_folded(),
        b.profile().unwrap().to_folded()
    );
}

#[test]
fn profiler_adds_no_engine_events() {
    let bare = profiling_scenario(4, 7)
        .telemetry(Registry::enabled())
        .run()
        .expect("valid spec");
    let (profiled, _) = profiled_run(4, 7);
    assert_eq!(
        bare.telemetry().metrics.counter("engine.events"),
        profiled.telemetry().metrics.counter("engine.events"),
    );
}

/// The registry and the profiler are two sinks of one feed: on a run
/// observed by both, every quantity both of them hold is the same
/// number, however it is summed.
#[test]
fn registry_and_profile_agree_on_every_shared_quantity() {
    let (run, _) = profiled_run(4, 11);
    let metrics = &run.telemetry().metrics;
    let profile = run.profile().expect("profiler attached");
    let counter = |name: &str| metrics.counter(name).unwrap_or_else(|| panic!("{name}"));
    let prefixed = |prefix: &str| -> u64 {
        let named = metrics.counters.iter().filter(|(k, _)| {
            k.strip_prefix(prefix)
                .is_some_and(|rest| !rest.is_empty() && rest != "total")
        });
        named.map(|(_, v)| *v).sum()
    };

    // Delivered events: the engine's count, the profile total, the
    // timeline and the kind rows.
    let events = counter("engine.events");
    assert!(events > 0);
    assert_eq!(profile.total_events, events);
    let in_timeline: u64 = profile.timeline.iter().map(|i| i.events).sum();
    assert_eq!(in_timeline, events, "Σ interval.events");
    let in_kinds: u64 = profile.kinds.iter().map(|k| k.count).sum();
    assert_eq!(in_kinds, events, "Σ kind.count");
    let in_mix: u64 = (profile.timeline.iter().flat_map(|i| &i.mix))
        .map(|(_, n)| *n)
        .sum();
    assert_eq!(in_mix, events, "Σ interval.mix");

    // Handled actor deliveries: the five class counters and the
    // per-actor rows.
    let handled: u64 = ["start", "restart", "timer", "message", "notify"]
        .iter()
        .map(|class| counter(&format!("actors.{class}_events")))
        .sum();
    let attributed: u64 = profile.actors.iter().map(|a| a.events).sum();
    assert!(handled > 0);
    assert_eq!(attributed, handled, "Σ actor.events");

    // Accepted sends: totals, traffic matrix, per-kind counters.
    let msgs = counter("net.msgs.total");
    assert!(msgs > 0);
    assert_eq!(profile.total_msgs, msgs);
    let in_matrix: u64 = profile.traffic.iter().map(|t| t.msgs).sum();
    assert_eq!(in_matrix, msgs, "Σ traffic.msgs");
    assert_eq!(prefixed("net.msgs."), msgs, "Σ net.msgs.<kind>");
    let bytes = counter("net.bytes.total");
    assert_eq!(profile.total_bytes, bytes);
    let bytes_in_matrix: u64 = profile.traffic.iter().map(|t| t.bytes).sum();
    assert_eq!(bytes_in_matrix, bytes, "Σ traffic.bytes");
    assert_eq!(prefixed("net.bytes."), bytes, "Σ net.bytes.<kind>");
    // ... and kind by kind, under the one name both sinks were given.
    for (name, value) in &metrics.counters {
        let Some(kind) = name.strip_prefix("net.msgs.").filter(|k| *k != "total") else {
            continue;
        };
        let rows = profile.traffic.iter().filter(|t| t.kind == kind);
        assert_eq!(rows.map(|t| t.msgs).sum::<u64>(), *value, "{name}");
    }
}

/// The failure detector keeps one silence time-out queued per agent, not
/// one per heartbeat received: on a fault-free run an agent's only timers
/// are its heartbeat tick and that time-out, which fires at most once per
/// detection window `T₀ > H` — so at most two fire per period.
#[test]
fn steady_state_agent_fires_at_most_two_silence_timeouts_per_heartbeat_period() {
    let (nodes, horizon) = (12, ms(40));
    let run = ClusterSpec::new(nodes)
        .seed(5)
        .horizon(horizon)
        .profile(Profiler::enabled())
        .run()
        .expect("valid spec");
    let periods = horizon.as_nanos() / MiddlewareConfig::default().heartbeat_period.as_nanos();
    let profile = run.profile().expect("profiler attached");
    let agent_timers =
        |a: &&hades_telemetry::ActorProfile| a.label == "agent" && a.class == "timer";
    let rows: Vec<_> = profile.actors.iter().filter(agent_timers).collect();
    assert_eq!(rows.len(), nodes as usize);
    for row in rows {
        let timeouts = row.events - periods; // one heartbeat tick per period
        assert!(
            (1..=2 * periods).contains(&timeouts),
            "node {}: {timeouts} silence time-outs in {periods} periods",
            row.node
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Profiling is pure observation: report and event stream of a
    /// profiled run are byte-identical to an unprofiled same-seed run.
    #[test]
    fn profiled_run_is_byte_identical_to_unprofiled(nodes in 3u32..6, seed in 0u64..1_000) {
        let bare = profiling_scenario(nodes, seed).run().expect("valid spec");
        let (profiled, _) = profiled_run(nodes, seed);
        prop_assert_eq!(bare.report(), profiled.report());
        prop_assert_eq!(bare.events(), profiled.events());
    }

    /// The profile artifact itself is a deterministic function of spec
    /// and seed.
    #[test]
    fn profile_report_is_deterministic(nodes in 3u32..6, seed in 0u64..1_000) {
        let (a, _) = profiled_run(nodes, seed);
        let (b, _) = profiled_run(nodes, seed);
        prop_assert_eq!(a.profile(), b.profile());
    }
}
