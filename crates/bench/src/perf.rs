//! The machine-readable performance snapshot (`BENCH_cluster.json`).
//!
//! Where every other experiment renders a human-readable table, this one
//! emits a JSON document CI archives on every commit, so the engine's
//! performance trajectory — events/sec, ns/event, heartbeat throughput,
//! queue-depth high-water, response-latency percentiles — is a diffable
//! artifact instead of a number somebody once pasted into a PR. The
//! document is produced from the same telemetry registry users attach
//! via [`ClusterSpec::telemetry`]; the snapshot pipeline is therefore
//! also an end-to-end test of the instrumentation.
//!
//! Schema (`hades.bench.cluster.v1`):
//!
//! ```text
//! {
//!   "schema": "hades.bench.cluster.v1",
//!   "scenarios": [ { "name", "nodes", "events", "wall_ns",
//!                    "ns_per_event", "events_per_sec",
//!                    "heartbeats_sent", "heartbeats_per_sec",
//!                    "peak_queue_depth", "ctx_switches", "abandoned",
//!                    "spans_dropped",
//!                    "response_ns": { "count", "p50", "p99", "p999" } } ],
//!   "overhead": { "nodes", "instrumented_wall_ns", "baseline_wall_ns",
//!                 "overhead_pct" },
//!   "peak_rss_bytes": N
//! }
//! ```
//!
//! [`validate_snapshot`] checks that shape; the `perf_snapshot` binary
//! refuses to write a document that fails it, so CI fails loudly on a
//! schema drift instead of archiving garbage.

use hades_cluster::{ClosedLoop, ClusterSpec, GroupLoad, ScenarioPlan, ServiceSpec};
use hades_dispatch::CostModel;
use hades_fabric::{Arrival, FabricSpec, LoadClass};
use hades_sched::Policy;
use hades_services::ReplicaStyle;
use hades_sim::NodeId;
use hades_telemetry::json::{escape, Json};
use hades_telemetry::{ProfileReport, Profiler, Registry};
use hades_time::{Duration, Time};
use std::fmt::Write;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The standard snapshot scenario: `nodes` nodes under EDF with measured
/// costs, two periodic services per node, and one replicated group on
/// nodes 0–2 serving a live closed-loop client (with a request timeout,
/// so the client survives blackouts). Both group leaders crash mid-run
/// — *mid-request*, at 10.25 ms and 15.45 ms, so the in-flight request
/// straddles each failover and is answered only at takeover — and the
/// first crashed node rejoins at 20 ms. The `group.response_ns`
/// histogram therefore measures real dispersion: the p50 is the
/// steady-state Δ-multicast latency, the tail is the failover stall.
pub fn perf_scenario(nodes: u32, seed: u64, horizon: Duration) -> ClusterSpec {
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
pub fn fabric_scenario(seed: u64, horizon: Duration) -> FabricSpec {
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

/// Runs a fabric spec and folds its telemetry into the same scenario
/// record as the scaling runs, with the `fabric.response_ns` family as
/// the latency source (the fabric report merges every shard's group
/// responses).
fn run_fabric(name: &str, nodes: u32, spec: FabricSpec) -> ScenarioPerf {
    let registry = Registry::enabled();
    let run = spec
        .telemetry(registry.clone())
        .run()
        .expect("valid fabric spec");
    let metrics = &run.metrics;
    let response = metrics.histogram("fabric.response_ns");
    ScenarioPerf {
        name: name.to_string(),
        nodes,
        events: metrics.counter("engine.events").unwrap_or(0),
        wall_ns: registry.volatile("engine.wall_ns").unwrap_or(0),
        heartbeats_sent: metrics.counter("agents.heartbeats_sent").unwrap_or(0),
        peak_queue_depth: metrics.gauge("engine.queue_depth_peak").unwrap_or(0),
        ctx_switches: metrics.counter("dispatch.ctx_switches").unwrap_or(0),
        abandoned: metrics.counter("group.requests_abandoned").unwrap_or(0),
        spans_dropped: metrics.counter("telemetry.spans_dropped").unwrap_or(0),
        response_count: response.map_or(0, |h| h.count),
        response_p50: response.map_or(0, |h| h.p50),
        response_p99: response.map_or(0, |h| h.p99),
        response_p999: response.map_or(0, |h| h.p999),
    }
}

/// One scenario's measurements, straight out of the telemetry snapshot.
struct ScenarioPerf {
    name: String,
    nodes: u32,
    events: u64,
    wall_ns: u64,
    heartbeats_sent: u64,
    peak_queue_depth: u64,
    ctx_switches: u64,
    abandoned: u64,
    spans_dropped: u64,
    response_count: u64,
    response_p50: u64,
    response_p99: u64,
    response_p999: u64,
}

/// One scenario's profile artifacts from a `--profile` run: the
/// schema-checked JSONL document (deterministic records plus the
/// nondeterministic `"wall"` share lines) and the folded-stacks
/// flamegraph text.
pub struct ProfileArtifacts {
    /// Scenario name, e.g. `cluster96`.
    pub name: String,
    /// `hades.profile.v1` JSONL, validated before return.
    pub jsonl: String,
    /// `flamegraph.pl`-compatible folded stacks.
    pub folded: String,
}

fn run_scenario(
    name: &str,
    nodes: u32,
    horizon: Duration,
    profile: bool,
) -> (ScenarioPerf, Option<ProfileArtifacts>) {
    let registry = Registry::enabled();
    let profiler = if profile {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };
    let run = perf_scenario(nodes, 7, horizon)
        .telemetry(registry.clone())
        .profile(profiler.clone())
        .run()
        .expect("valid snapshot spec");
    let metrics = &run.telemetry().metrics;
    let response = metrics.histogram("group.response_ns");
    let perf = ScenarioPerf {
        name: name.to_string(),
        nodes,
        events: metrics.counter("engine.events").unwrap_or(0),
        wall_ns: registry.volatile("engine.wall_ns").unwrap_or(0),
        heartbeats_sent: metrics.counter("agents.heartbeats_sent").unwrap_or(0),
        peak_queue_depth: metrics.gauge("engine.queue_depth_peak").unwrap_or(0),
        ctx_switches: metrics.counter("dispatch.ctx_switches").unwrap_or(0),
        abandoned: metrics.counter("group.requests_abandoned").unwrap_or(0),
        spans_dropped: metrics.counter("telemetry.spans_dropped").unwrap_or(0),
        response_count: response.map_or(0, |h| h.count),
        response_p50: response.map_or(0, |h| h.p50),
        response_p99: response.map_or(0, |h| h.p99),
        response_p999: response.map_or(0, |h| h.p999),
    };
    let artifacts = profile.then(|| {
        let report = run.profile().expect("profiler was attached");
        let mut jsonl = report.to_jsonl();
        jsonl.push_str(&ProfileReport::wall_records(&profiler.wall_totals()));
        ProfileReport::validate_jsonl(&jsonl).expect("profile doc must match its schema");
        ProfileArtifacts {
            name: name.to_string(),
            jsonl,
            folded: report.to_folded(),
        }
    });
    (perf, artifacts)
}

impl ScenarioPerf {
    fn to_json(&self) -> String {
        let wall = self.wall_ns.max(1);
        let ns_per_event = self.wall_ns as f64 / self.events.max(1) as f64;
        let events_per_sec = self.events as f64 * 1e9 / wall as f64;
        let heartbeats_per_sec = self.heartbeats_sent as f64 * 1e9 / wall as f64;
        format!(
            "{{\"name\":{},\"nodes\":{},\"events\":{},\"wall_ns\":{},\
             \"ns_per_event\":{:.1},\"events_per_sec\":{:.0},\
             \"heartbeats_sent\":{},\"heartbeats_per_sec\":{:.0},\
             \"peak_queue_depth\":{},\"ctx_switches\":{},\"abandoned\":{},\
             \"spans_dropped\":{},\
             \"response_ns\":{{\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}}}",
            escape(&self.name),
            self.nodes,
            self.events,
            self.wall_ns,
            ns_per_event,
            events_per_sec,
            self.heartbeats_sent,
            heartbeats_per_sec,
            self.peak_queue_depth,
            self.ctx_switches,
            self.abandoned,
            self.spans_dropped,
            self.response_count,
            self.response_p50,
            self.response_p99,
            self.response_p999,
        )
    }
}

/// Peak resident set of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Builds the full snapshot document: the 24/48/96-node scaling
/// scenarios, the `fabric_1m` population-scale fabric scenario (10⁶
/// clients over 64 shards with a mid-run rebalance), the
/// instrumented-vs-disabled overhead measurement at 24 nodes, and the
/// process's peak RSS.
pub fn build_snapshot() -> String {
    build_snapshot_profiled(false).0
}

/// [`build_snapshot`], optionally with the deterministic profiler
/// attached to every scaling scenario: the returned
/// [`ProfileArtifacts`] carry one schema-checked profile document and
/// one folded-stacks flamegraph per scenario. The profiler rides the
/// *measured* runs — profiling is pure observation, so the snapshot
/// numbers are the same either way (the wall-clock cost of the hooks is
/// visible in `wall_ns`, which is the point of measuring it).
pub fn build_snapshot_profiled(profile: bool) -> (String, Vec<ProfileArtifacts>) {
    let horizon = ms(30);
    let mut artifacts = Vec::new();
    let mut scenarios: Vec<ScenarioPerf> = [24u32, 48, 96]
        .iter()
        .map(|&nodes| {
            let (perf, art) = run_scenario(&format!("cluster{nodes}"), nodes, horizon, profile);
            artifacts.extend(art);
            perf
        })
        .collect();
    // The fabric scenario rides the same gate but not the profiler (CI
    // asserts exactly the three cluster* profile docs).
    scenarios.push(run_fabric("fabric_1m", 24, fabric_scenario(7, horizon)));

    // Instrumented-vs-disabled overhead: the same 24-node run, once with
    // an enabled registry and once with the default disabled one, both
    // timed from the outside so the comparison includes every hook.
    let instrumented_wall_ns = {
        let start = std::time::Instant::now();
        let _ = perf_scenario(24, 7, horizon)
            .telemetry(Registry::enabled())
            .run()
            .expect("valid snapshot spec");
        start.elapsed().as_nanos() as u64
    };
    let baseline_wall_ns = {
        let start = std::time::Instant::now();
        let _ = perf_scenario(24, 7, horizon)
            .run()
            .expect("valid snapshot spec");
        start.elapsed().as_nanos() as u64
    };
    let overhead_pct = (instrumented_wall_ns as f64 - baseline_wall_ns as f64) * 100.0
        / baseline_wall_ns.max(1) as f64;

    let mut out = String::new();
    out.push_str("{\"schema\":\"hades.bench.cluster.v1\",\"scenarios\":[");
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_json());
    }
    let _ = write!(
        out,
        "],\"overhead\":{{\"nodes\":24,\"instrumented_wall_ns\":{instrumented_wall_ns},\
         \"baseline_wall_ns\":{baseline_wall_ns},\"overhead_pct\":{overhead_pct:.2}}},\
         \"peak_rss_bytes\":{}}}",
        peak_rss_bytes()
    );
    (out, artifacts)
}

/// Validates a snapshot document against `hades.bench.cluster.v1`.
///
/// # Errors
///
/// A message naming the first missing or mistyped field.
pub fn validate_snapshot(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("hades.bench.cluster.v1") {
        return Err("schema must be \"hades.bench.cluster.v1\"".into());
    }
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("missing scenarios array")?;
    if scenarios.is_empty() {
        return Err("scenarios array is empty".into());
    }
    for (i, s) in scenarios.iter().enumerate() {
        if s.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("scenario {i}: missing name"));
        }
        for field in [
            "nodes",
            "events",
            "wall_ns",
            "ns_per_event",
            "events_per_sec",
            "heartbeats_sent",
            "heartbeats_per_sec",
            "peak_queue_depth",
            "ctx_switches",
            "abandoned",
            "spans_dropped",
        ] {
            if s.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("scenario {i}: missing numeric field {field}"));
            }
        }
        let response = s
            .get("response_ns")
            .ok_or_else(|| format!("scenario {i}: missing response_ns"))?;
        for field in ["count", "p50", "p99", "p999"] {
            if response.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("scenario {i}: response_ns missing {field}"));
            }
        }
    }
    let overhead = doc.get("overhead").ok_or("missing overhead object")?;
    for field in [
        "nodes",
        "instrumented_wall_ns",
        "baseline_wall_ns",
        "overhead_pct",
    ] {
        if overhead.get(field).and_then(Json::as_f64).is_none() {
            return Err(format!("overhead missing numeric field {field}"));
        }
    }
    if doc.get("peak_rss_bytes").and_then(Json::as_f64).is_none() {
        return Err("missing peak_rss_bytes".into());
    }
    Ok(())
}

/// The `perf_snapshot` experiment: the JSON document itself (already
/// validated), so `experiments perf_snapshot` prints exactly what the
/// binary would write to `BENCH_cluster.json`.
pub fn perf_snapshot() -> String {
    let doc = build_snapshot();
    validate_snapshot(&doc).expect("snapshot must match its own schema");
    doc
}

/// The scenario columns the gate holds, and whether each must equal the
/// baseline exactly. `events`, `heartbeats_sent`, `peak_queue_depth` and
/// `ctx_switches` are pure functions of spec and seed, the same on every
/// machine: any drift is a behaviour change, not jitter.
const GATED: [(&str, bool); 6] = [
    ("events_per_sec", false),
    ("ns_per_event", false),
    ("events", true),
    ("heartbeats_sent", true),
    ("peak_queue_depth", true),
    ("ctx_switches", true),
];

/// Gates `current` against the committed `baseline`: for every scenario
/// the two documents share by name, the deterministic columns (`events`,
/// `heartbeats_sent`, `peak_queue_depth`, `ctx_switches`) must equal the
/// baseline exactly, and `events_per_sec` and `ns_per_event` must sit
/// within `±tolerance_pct` of it. A scenario present on one side only
/// also fails — a silently dropped scenario is how a gate rots.
///
/// The band is symmetric on purpose: a run 30% *faster* than the
/// committed numbers is not a failure of the engine, but it is a stale
/// baseline, and the fix (re-run `perf_snapshot` and commit the result)
/// is the same either way. A re-recorded baseline must leave the
/// deterministic columns as they were, unless the change meant to alter
/// what the simulated system does.
///
/// # Errors
///
/// One message per drifted metric or unmatched scenario, joined by
/// newlines; parse/schema failures of either document report alone.
pub fn compare_snapshots(current: &str, baseline: &str, tolerance_pct: f64) -> Result<(), String> {
    fn scenario_metrics(doc: &str, which: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
        validate_snapshot(doc).map_err(|e| format!("{which} snapshot invalid: {e}"))?;
        let parsed = Json::parse(doc).map_err(|e| format!("{which} snapshot unreadable: {e}"))?;
        let scenarios = parsed
            .get("scenarios")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{which} snapshot has no scenarios"))?;
        scenarios
            .iter()
            .map(|s| {
                let name = s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{which} snapshot: unnamed scenario"))?
                    .to_string();
                let values = GATED
                    .iter()
                    .map(|(field, _)| s.get(field).and_then(Json::as_f64).unwrap_or(0.0))
                    .collect();
                Ok((name, values))
            })
            .collect()
    }
    let current = scenario_metrics(current, "current")?;
    let baseline = scenario_metrics(baseline, "baseline")?;

    let mut failures = Vec::new();
    for (name, values) in &current {
        let Some((_, base_values)) = baseline.iter().find(|(b, _)| b == name) else {
            failures.push(format!("{name}: present in current, missing from baseline"));
            continue;
        };
        for ((&(metric, exact), &cur), &base) in GATED.iter().zip(values).zip(base_values) {
            if exact {
                if cur != base {
                    failures.push(format!(
                        "{name}: {metric} changed (current {cur:.0}, baseline {base:.0}); \
                         the column is deterministic, so the run behaves differently"
                    ));
                }
            } else if base <= 0.0 {
                failures.push(format!("{name}: baseline {metric} is {base}, cannot gate"));
            } else {
                let drift_pct = (cur - base) * 100.0 / base;
                if drift_pct.abs() > tolerance_pct {
                    failures.push(format!(
                        "{name}: {metric} drifted {drift_pct:+.1}% \
                         (current {cur:.0}, baseline {base:.0}, tolerance ±{tolerance_pct:.0}%)"
                    ));
                }
            }
        }
    }
    for (name, _) in &baseline {
        if !current.iter().any(|(c, _)| c == name) {
            failures.push(format!("{name}: present in baseline, missing from current"));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_validates_against_its_schema() {
        // One small scenario keeps the debug-mode test affordable; the
        // full 24/48/96 sweep runs in the release-mode binary.
        let (s, none) = run_scenario("small", 4, ms(10), false);
        assert!(none.is_none());
        assert!(s.events > 0, "engine events must be counted");
        assert!(s.heartbeats_sent > 0, "heartbeats must be counted");
        let mut doc = String::from("{\"schema\":\"hades.bench.cluster.v1\",\"scenarios\":[");
        doc.push_str(&s.to_json());
        doc.push_str(
            "],\"overhead\":{\"nodes\":4,\"instrumented_wall_ns\":1,\
             \"baseline_wall_ns\":1,\"overhead_pct\":0.0},\"peak_rss_bytes\":0}",
        );
        validate_snapshot(&doc).expect("well-formed snapshot");
    }

    fn doc_with(scenarios: &[(&str, f64, f64)]) -> String {
        let mut doc = String::from("{\"schema\":\"hades.bench.cluster.v1\",\"scenarios\":[");
        for (i, (name, eps, nspe)) in scenarios.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "{{\"name\":\"{name}\",\"nodes\":4,\"events\":1000,\"wall_ns\":1000,\
                 \"ns_per_event\":{nspe},\"events_per_sec\":{eps},\
                 \"heartbeats_sent\":1,\"heartbeats_per_sec\":1,\
                 \"peak_queue_depth\":1,\"ctx_switches\":1,\"abandoned\":0,\
                 \"spans_dropped\":0,\
                 \"response_ns\":{{\"count\":0,\"p50\":0,\"p99\":0,\"p999\":0}}}}"
            );
        }
        doc.push_str(
            "],\"overhead\":{\"nodes\":4,\"instrumented_wall_ns\":1,\
             \"baseline_wall_ns\":1,\"overhead_pct\":0.0},\"peak_rss_bytes\":0}",
        );
        doc
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = doc_with(&[("a", 1000.0, 100.0), ("b", 2000.0, 50.0)]);
        let cur = doc_with(&[("a", 1200.0, 90.0), ("b", 1800.0, 55.0)]);
        compare_snapshots(&cur, &base, 25.0).expect("within ±25%");
    }

    #[test]
    fn gate_fails_on_regression_speedup_and_drift() {
        let base = doc_with(&[("a", 1000.0, 100.0)]);
        // 50% slower: both metrics out of band.
        let err = compare_snapshots(&doc_with(&[("a", 500.0, 200.0)]), &base, 25.0)
            .expect_err("regression must fail the gate");
        assert!(err.contains("events_per_sec"), "{err}");
        assert!(err.contains("ns_per_event"), "{err}");
        // 2x faster: a stale baseline also fails (symmetric band).
        assert!(compare_snapshots(&doc_with(&[("a", 2000.0, 50.0)]), &base, 25.0).is_err());
        // Scenario sets must match exactly.
        let err = compare_snapshots(
            &doc_with(&[("a", 1000.0, 100.0), ("x", 1.0, 1.0)]),
            &base,
            25.0,
        )
        .expect_err("extra scenario must fail");
        assert!(err.contains("missing from baseline"), "{err}");
        let err =
            compare_snapshots(&doc_with(&[]), &base, 25.0).expect_err("empty current must fail");
        assert!(err.contains("invalid"), "{err}");
    }

    #[test]
    fn gate_holds_the_deterministic_columns_exactly() {
        let base = doc_with(&[("a", 1000.0, 100.0)]);
        for (column, was) in [
            ("events", 1000),
            ("heartbeats_sent", 1),
            ("peak_queue_depth", 1),
            ("ctx_switches", 1),
        ] {
            let from = format!("\"{column}\":{was},");
            assert!(base.contains(&from), "{column}");
            let cur = base.replace(&from, &format!("\"{column}\":{},", was + 1));
            let err =
                compare_snapshots(&cur, &base, 25.0).expect_err("a one-count drift must fail");
            assert!(err.contains(&format!("a: {column} changed")), "{err}");
        }
    }

    #[test]
    fn validator_rejects_drifted_documents() {
        assert!(validate_snapshot("not json").is_err());
        assert!(validate_snapshot("{\"schema\":\"other\"}").is_err());
        assert!(
            validate_snapshot("{\"schema\":\"hades.bench.cluster.v1\",\"scenarios\":[]}").is_err()
        );
        let no_overhead = "{\"schema\":\"hades.bench.cluster.v1\",\"scenarios\":[{\
            \"name\":\"x\",\"nodes\":1,\"events\":1,\"wall_ns\":1,\"ns_per_event\":1,\
            \"events_per_sec\":1,\"heartbeats_sent\":1,\"heartbeats_per_sec\":1,\
            \"peak_queue_depth\":1,\"ctx_switches\":1,\"abandoned\":0,\"spans_dropped\":0,\
            \"response_ns\":{\"count\":0,\"p50\":0,\"p99\":0,\"p999\":0}}]}";
        assert!(validate_snapshot(no_overhead).is_err());
        // A document without the spans_dropped field is pre-v1-profiler
        // and must be rejected, so capped runs stay detectable.
        let no_spans = doc_with(&[("a", 1.0, 1.0)]).replace("\"spans_dropped\":0,", "");
        assert!(validate_snapshot(&no_spans)
            .unwrap_err()
            .contains("spans_dropped"));
    }

    #[test]
    fn fabric_scenario_produces_a_gateable_record() {
        // A scaled-down fabric keeps the debug-mode test affordable;
        // the full 1M-client sweep runs in the release-mode binary.
        let small = FabricSpec::new(6, 8)
            .class(LoadClass::new("web", 60_000, Duration::from_secs(5)))
            .horizon(ms(10))
            .seed(7)
            .scenario(ScenarioPlan::new().crash(NodeId(1), Time::ZERO + ms(4)));
        let s = run_fabric("fabric_small", 6, small);
        assert!(s.events > 0, "engine events must be counted");
        assert!(s.response_count > 0, "fabric responses must be graded");
        assert!(s.response_p50 <= s.response_p999);
        let mut doc = String::from("{\"schema\":\"hades.bench.cluster.v1\",\"scenarios\":[");
        doc.push_str(&s.to_json());
        doc.push_str(
            "],\"overhead\":{\"nodes\":6,\"instrumented_wall_ns\":1,\
             \"baseline_wall_ns\":1,\"overhead_pct\":0.0},\"peak_rss_bytes\":0}",
        );
        validate_snapshot(&doc).expect("well-formed snapshot");
    }

    #[test]
    fn profiled_snapshot_scenario_emits_valid_artifacts() {
        let (_, art) = run_scenario("small", 4, ms(10), true);
        let art = art.expect("profile artifacts");
        ProfileReport::validate_jsonl(&art.jsonl).expect("schema-valid");
        assert!(art.jsonl.contains("\"record\":\"wall\""));
        assert!(art.jsonl.contains("heartbeat_msg_share_permille"));
        assert!(art.folded.contains("hades;engine;"));
    }
}
