//! Golden deterministic counts: four fixed scenarios whose engine-level
//! counters are pure functions of `(spec, seed)`, held exactly on every
//! machine. Host time is not measured here — that is the lab's job
//! (`benchmark/run.sh`, `BENCHMARK.json`).
//!
//! Re-record rule, by column. `agents.heartbeats_sent`,
//! `dispatch.ctx_switches`, the two zero counters, the response
//! histograms and the cluster rows' `spans` (span count and FNV-1a of
//! the exported span JSONL, i.e. every protocol timestamp the agents
//! and groups logged) record what the *modelled system* does: they
//! change only in a PR that means to change that behaviour and says so
//! in CHANGES.md — a refactor or optimisation that moves one of them
//! has changed behaviour, not just speed. `engine.events` and
//! `engine.queue_depth_peak` count the *simulator's* own bookkeeping
//! (how many events it delivers, how many keys its heap holds, to
//! simulate that behaviour): they may fall in an optimisation that says
//! so in CHANGES.md, and never rise. `metrics` (FNV-1a of
//! `MetricsSnapshot::to_jsonl()`, on `cluster24` and the fabric row) and
//! `profile` (FNV-1a of `ProfileReport::to_jsonl()` followed by
//! `to_folded()`, from a second `cluster24` run with the profiler on and
//! the registry off) are *observation exports*: every name, value and
//! line the probe and the report folds write. They move only in a PR
//! that means to change an exported schema or name — or one of the
//! columns above, which they contain — and says so in CHANGES.md; a
//! refactor of the observation plumbing must leave them where they are.
//!
//! Last re-record (a deadline that falls on its task's next release is
//! checked by that release): `engine.events` / `queue_depth_peak`
//! 15 938 → 14 940 / 349 → 226 on `cluster24`, 60 435 → 58 549 /
//! 677 → 437 on `cluster48`, 252 267 → 248 605 / 1 377 → 900 on
//! `cluster96`, 178 479 → 132 674 / 1 370 → 914 on the fabric row, and
//! the `metrics` / `profile` digests with them (`engine.events`,
//! `engine.queue_depth_peak`; the profile's `total_events` and the
//! heartbeat event share derived from it, the `deadline_check` kind row
//! and its folded line, and `events` / `queue_depth_max` / the
//! `deadline_check` mix of the interval rows — nothing else). The events
//! that went are the deadline checks that fell on the task's next
//! release and were delivered right after it; that release now runs the
//! check itself, so a periodic task with D = P holds one heap key, not
//! two.

use hades::prelude::*;
use hades_telemetry::MetricsSnapshot;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The cluster scaling scenario: `nodes` nodes under EDF with measured
/// costs, two periodic services per node, and one replicated group on
/// nodes 0–2 serving a live closed-loop client (with a request timeout,
/// so the client survives blackouts). Both group leaders crash mid-run
/// — *mid-request*, at 10.25 ms and 15.45 ms, so the in-flight request
/// straddles each failover and is answered only at takeover — and the
/// first crashed node rejoins at 20 ms. The `group.response_ns`
/// histogram therefore measures real dispersion: the p50 is the
/// steady-state Δ-multicast latency, the tail is the failover stall.
fn perf_scenario(nodes: u32, seed: u64, horizon: Duration) -> ClusterSpec {
    let start = Time::ZERO + ms(2);
    let mut spec = ClusterSpec::new(nodes)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(horizon)
        .seed(seed)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), Time::ZERO + us(10_250))
                .crash(NodeId(1), Time::ZERO + us(15_450))
                .restart(NodeId(0), Time::ZERO + ms(20)),
        )
        .service(
            ServiceSpec::replicated(
                "store",
                ReplicaStyle::SemiActive,
                vec![0, 1, 2],
                GroupLoad::default(),
            )
            .workload(Box::new(
                ClosedLoop::new(us(500), ms(1), start).with_timeout(ms(4)),
            )),
        );
    for node in 0..nodes {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

/// The population-scale fabric scenario (`fabric_1m`): one million
/// simulated clients in three load classes (steady browse, bursty
/// checkout, ramping api) over 64 consistent-hash shards on 24 nodes,
/// with a mid-run follower crash at 10 ms so the measured window
/// includes a `FabricDirector` rebalance of the crashed placement's
/// shards. Client counts are pure rate multipliers — the engine sees
/// only the aggregate per-shard streams.
fn fabric_scenario(seed: u64, horizon: Duration) -> FabricSpec {
    FabricSpec::new(24, 64)
        .class(LoadClass::new("browse", 700_000, Duration::from_secs(15)))
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
        .horizon(horizon)
        .seed(seed)
        .scenario(ScenarioPlan::new().crash(NodeId(4), Time::ZERO + ms(10)))
}

/// Holds one row: `counts` is `engine.events` / `agents.heartbeats_sent`
/// / `engine.queue_depth_peak` / `dispatch.ctx_switches`, `response` is
/// count / p50 / p99 / p999 of the `family` histogram.
fn assert_row(m: &MetricsSnapshot, counts: [u64; 4], family: &str, response: [u64; 4]) {
    let got = [
        m.counter("engine.events"),
        m.counter("agents.heartbeats_sent"),
        m.gauge("engine.queue_depth_peak"),
        m.counter("dispatch.ctx_switches"),
    ];
    let columns = "events / heartbeats_sent / queue_depth_peak / ctx_switches";
    assert_eq!(got, counts.map(Some), "{columns}");
    assert_eq!(m.counter("group.requests_abandoned").unwrap_or(0), 0);
    assert_eq!(m.counter("telemetry.spans_dropped").unwrap_or(0), 0);
    let h = m.histogram(family).expect(family);
    assert_eq!([h.count, h.p50, h.p99, h.p999], response, "{family}");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_cluster_row(nodes: u32, counts: [u64; 4], spans: (usize, u64)) -> ClusterRun {
    let run = perf_scenario(nodes, 7, ms(30))
        .telemetry(Registry::enabled())
        .run()
        .expect("valid cluster spec");
    let response = [37, 134_000, 2_732_000, 2_732_000];
    let metrics = &run.telemetry().metrics;
    assert_row(metrics, counts, "group.response_ns", response);
    let log = &run.telemetry().spans;
    let got = (log.len(), fnv1a(log.to_jsonl().as_bytes()));
    assert_eq!(got, spans, "spans: count / FNV-1a of the JSONL export");
    run
}

fn metrics_hash(m: &MetricsSnapshot) -> u64 {
    fnv1a(m.to_jsonl().as_bytes())
}

#[test]
fn cluster24() {
    let spans = (48, 0xbf96_ca99_59ee_5ae2);
    let run = assert_cluster_row(24, [14_940, 8_284, 226, 1_031], spans);
    let metrics = metrics_hash(&run.telemetry().metrics);
    assert_eq!(
        metrics, 0xe0b7_33cc_0fc3_82ed,
        "metrics: FNV-1a of the snapshot JSONL"
    );
    let profiled = perf_scenario(24, 7, ms(30))
        .profile(Profiler::enabled())
        .run()
        .expect("valid cluster spec");
    let profile = profiled.profile().expect("profiler attached");
    let export = profile.to_jsonl() + &profile.to_folded();
    let got = fnv1a(export.as_bytes());
    assert_eq!(
        got, 0xde10_c1c2_dd39_5544,
        "profile: FNV-1a of the JSONL + folded export"
    );
}

#[test]
fn cluster48() {
    let spans = (48, 0x18c6_4043_4f61_68d5);
    assert_cluster_row(48, [58_549, 34_972, 437, 1_943], spans);
}

#[test]
fn cluster96() {
    let spans = (48, 0x1844_cd72_f324_9d13);
    assert_cluster_row(96, [248_605, 143_644, 900, 3_767], spans);
}

#[test]
fn fabric_1m() {
    let run = fabric_scenario(7, ms(30))
        .telemetry(Registry::enabled())
        .run()
        .expect("valid fabric spec");
    let response = [3_003, 134_000, 134_000, 134_000];
    let counts = [132_674, 8_326, 914, 46_302];
    assert_row(&run.metrics, counts, "fabric.response_ns", response);
    let metrics = metrics_hash(&run.metrics);
    assert_eq!(
        metrics, 0x615c_a174_3133_b59d,
        "metrics: FNV-1a of the snapshot JSONL"
    );
}
