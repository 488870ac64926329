//! Telemetry tour: metrics snapshot, protocol trace spans and the
//! online invariant watchdog, all in one run.
//!
//! A 5-node cluster runs a semi-active replicated store under a
//! closed-loop client. At t = 15 ms the group leader (node 0) crashes —
//! the survivors fail over — and at t = 35 ms it restarts and rejoins.
//! The spec carries an enabled telemetry [`Registry`]
//! (`ClusterSpec::telemetry`), so the returned `ClusterRun` holds a
//! deterministic metrics snapshot and a causally-linked span log —
//! built from the engine instants the agents logged. The example prints the
//! failover and rejoin span trees with their engine-time phase
//! decompositions, a few headline counters, and the first lines of the
//! JSONL exports CI-style tooling would archive.
//!
//! The spec also carries an enabled [`Profiler`]
//! (`ClusterSpec::profile`), so the same run yields a deterministic
//! profile: the tour prints the top event kinds by engine work, the
//! actor deliveries folded by `(label, class)`, the heartbeat share of
//! the network traffic and the first folded flamegraph stacks —
//! attribution the aggregate counters cannot give. A small sharded
//! fabric is then profiled the same way (`FabricSpec::profile`) and the
//! tour prints its handler wall time by event kind.
//!
//! A second, nastier run then trips the watchdog
//! (`ClusterSpec::monitors`): node 0 restarts one millisecond after
//! every other node died, so its rejoin announce finds no live peer to
//! serve the checkpoint transfer. The group falls silent past its
//! answer bound — the silent-group monitor fires during the run, as an
//! `InvariantViolated` cluster event a reactive driver observes at its
//! engine instant — and the violations export as schema-checked JSONL.
//! The rejoin itself rides out the blackout: each heartbeat-cadence
//! re-announcement re-arms the stall watchdog, and once the dead
//! majority returns the lowest announcer bootstraps a view and serves
//! everyone back in, so no stalled-transfer violation fires.
//!
//! Run with: `cargo run --example telemetry_tour`

use hades::prelude::*;
use hades_services::ReplicaStyle;
use hades_telemetry::monitor::{validate_violations, violations_to_jsonl};
use hades_telemetry::Registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let us = Duration::from_micros;
    let ms = Duration::from_millis;

    let registry = Registry::enabled();
    let profiler = Profiler::enabled();
    let mut spec = ClusterSpec::new(5)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(ms(60))
        .seed(42)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), Time::ZERO + ms(15))
                .restart(NodeId(0), Time::ZERO + ms(35)),
        )
        .telemetry(registry.clone())
        .profile(profiler.clone())
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
    for node in 0..5 {
        spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }

    let run = spec.run()?;
    let telemetry = run.telemetry();

    println!("== one failover, as a span tree ==");
    for span in telemetry.spans.of_kind("failover").take(1) {
        print!("{}", telemetry.spans.render_subtree(span.id));
    }

    println!("\n== one rejoin, as a span tree ==");
    for span in telemetry.spans.of_kind("rejoin").take(1) {
        print!("{}", telemetry.spans.render_subtree(span.id));
    }

    println!("\n== headline counters ==");
    for name in [
        "engine.events",
        "dispatch.ctx_switches",
        "agents.heartbeats_sent",
        "agents.heartbeats_suppressed",
        "group.requests_submitted",
        "group.requests_abandoned",
    ] {
        println!("{name:32} {}", telemetry.metrics.counter(name).unwrap_or(0));
    }
    if let Some(h) = telemetry.metrics.histogram("group.response_ns") {
        println!(
            "group.response_ns                p50={} p99={} p999={} (n={})",
            h.p50, h.p99, h.p999, h.count
        );
    }
    println!(
        "engine.wall_ns (volatile)        {}",
        registry.volatile("engine.wall_ns").unwrap_or(0)
    );

    println!("\n== first lines of the JSONL exports ==");
    for line in telemetry.metrics.to_jsonl().lines().take(3) {
        println!("{line}");
    }
    for line in telemetry.spans.to_jsonl().lines().take(3) {
        println!("{line}");
    }

    // ---- the profiler act: who actually consumed the engine? ----
    let profile = run.profile().expect("profiler attached");
    println!("\n== profile: top 5 event kinds by engine work ==");
    let mut kinds: Vec<_> = profile.kinds.iter().collect();
    kinds.sort_by_key(|k| std::cmp::Reverse(k.count));
    for k in kinds.iter().take(5) {
        println!("{:20} {:>8} events", k.name, k.count);
    }
    // The kind table says *what* the engine delivered; folding the
    // per-actor rows over the nodes says *to whom* — the table that
    // names a layer delivering more events than it has work for.
    println!("\n== profile: actor deliveries by (label, class) ==");
    let mut by_actor = std::collections::BTreeMap::<(&str, &str), u64>::new();
    for a in &profile.actors {
        *by_actor.entry((&a.label, &a.class)).or_default() += a.events;
    }
    for ((label, class), events) in &by_actor {
        println!("{label:10} {class:9} {events:>8} events");
    }
    println!(
        "heartbeats: {} of {} messages ({} permille), {} permille of all events",
        profile.heartbeat_msgs,
        profile.total_msgs,
        profile.heartbeat_msg_share_permille(),
        profile.heartbeat_event_share_permille(),
    );
    println!("\n== first folded flamegraph stacks ==");
    for line in profile.to_folded().lines().take(3) {
        println!("{line}");
    }
    assert!(
        !kinds.is_empty() && kinds[0].count > 0,
        "profile must attribute work"
    );
    assert!(
        profile.heartbeat_msg_share_permille() > 0,
        "heartbeat share must be a queryable, nonzero number"
    );
    assert_eq!(
        Some(profile.total_events),
        telemetry.metrics.counter("engine.events"),
        "profiled totals must agree with the engine counter"
    );

    // ---- the same question of a sharded fabric, in host time ----
    // `FabricSpec::profile` hands the profiler to the lowered cluster;
    // its per-kind wall totals (volatile: host nanoseconds) say which
    // handlers a fabric run spends its time in.
    let fabric_profiler = Profiler::enabled();
    let fabric = FabricSpec::new(6, 8)
        .class(LoadClass::new("web", 60_000, Duration::from_secs(5)))
        .horizon(ms(10))
        .seed(42)
        .telemetry(Registry::enabled())
        .profile(fabric_profiler.clone())
        .run()?;
    let fabric_profile = fabric.cluster.profile().expect("profiler attached");
    println!("\n== a 6-node, 8-shard fabric: handler wall time by event kind ==");
    let mut wall = fabric_profiler.wall_totals();
    wall.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (kind, ns) in &wall {
        let events = fabric_profile.kind(kind).map_or(0, |k| k.count);
        let each = ns / events.max(1);
        println!("{kind:20} {events:>8} events {ns:>12} ns {each:>7} ns/event");
    }
    assert_eq!(
        Some(fabric_profile.total_events),
        fabric.cluster.telemetry().metrics.counter("engine.events"),
        "the fabric's profile must account for every engine event"
    );

    // ---- the watchdog run: a rejoin with no one left to serve it ----
    let mut plan = ScenarioPlan::new()
        .crash(NodeId(0), Time::ZERO + ms(15))
        .restart(NodeId(0), Time::ZERO + ms(35));
    for node in 1..5 {
        plan = plan
            .crash(NodeId(node), Time::ZERO + ms(34))
            .restart(NodeId(node), Time::ZERO + ms(70));
    }
    let mut chaos = ClusterSpec::new(5)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(ms(100))
        .seed(42)
        .scenario(plan)
        .monitors(Watchdog::standard())
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
    for node in 0..5 {
        chaos = chaos.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }
    let rejoin_bound = chaos.rejoin_bound();
    let chaos_run = chaos.run()?;

    println!("\n== invariant watchdog: a rejoin whose transfer has no server ==");
    println!(
        "node 0 announces at 35 ms into a dead cluster; re-announcements \
         keep re-arming the stall deadline (the analytic rejoin bound, \
         {rejoin_bound}) until the blackout lifts"
    );
    for v in chaos_run.violations() {
        println!("  [{}] {} — {}", v.at, v.monitor, v.message);
    }
    let in_stream = chaos_run
        .events()
        .iter()
        .filter(|e| matches!(e, ClusterEvent::InvariantViolated { .. }))
        .count();
    println!(
        "{} violations, every one an InvariantViolated cluster event \
         drivers saw online ({in_stream} in the stream)",
        chaos_run.violations().len()
    );

    println!("\n== violations JSONL (schema-checked) ==");
    let jsonl = violations_to_jsonl(chaos_run.violations());
    let checked = validate_violations(&jsonl).map_err(std::io::Error::other)?;
    for line in jsonl.lines().take(3) {
        println!("{line}");
    }
    println!("({checked} lines validated)");
    assert!(
        chaos_run
            .violations()
            .iter()
            .any(|v| v.monitor == "silent-group"),
        "the blackout must trip the silent-group watchdog"
    );
    assert!(
        !chaos_run
            .violations()
            .iter()
            .any(|v| v.monitor == "stalled-transfer"),
        "re-announcements and the bootstrap keep every transfer live"
    );
    let report = chaos_run.report();
    assert_eq!(
        report.recoveries.len() as u32,
        report.scripted_rejoins,
        "every scripted rejoin completed despite the serverless window"
    );
    Ok(())
}
