//! The benchmark's contract with its driver, checked from inside the
//! package: `BENCHMARK.json` is the catalog, every declared metric is
//! emitted (and nothing else) by every workload at `--quick` scale, the
//! result line has the agreed shape, and the digest check catches a
//! perturbed seed.

use hades_benchmark::catalog::{self, Better, MetricDef};
use hades_benchmark::run::{execute, finding, render_json, Invocation};
use hades_benchmark::trace::Spans;
use hades_benchmark::workloads::{Kind, Prepared};
use hades_telemetry::json::Json;
use std::collections::BTreeSet;

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        text,
        catalog::manifest(),
        "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --manifest`"
    );
    let doc = Json::parse(&text).expect("valid JSON");
    let Json::Object(keys) = &doc else {
        panic!("BENCHMARK.json is an object");
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(text.len() <= 64 * 1024);
}

#[test]
fn the_catalog_is_within_the_driver_s_limits() {
    assert!((2..=8).contains(&catalog::WORKLOADS.len()));
    assert!((1..=16).contains(&catalog::END_TO_END.len()));
    assert!((1..=128).contains(&catalog::PER_LAYER.len()));
    assert!((1..=60).contains(&catalog::RUN_SECONDS));
    assert!(catalog::COMMAND.len() <= 32);

    let mut names = BTreeSet::new();
    for (name, why) in catalog::WORKLOADS {
        assert!(name_ok(name), "{name}");
        assert!(names.insert(*name), "{name} declared twice");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: {}",
            why.len()
        );
        assert!(Kind::parse(name).is_some(), "{name} has no implementation");
    }
    assert_eq!(catalog::WORKLOADS.len(), Kind::ALL.len());
    for m in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(names.insert(m.name), "{} declared twice", m.name);
    }
    for m in catalog::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(catalog::PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = catalog::find("setup_s").expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = catalog::END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
}

/// Runs one `--quick` invocation and holds its output against `declared`.
fn check_invocation(kind: Kind, trace: bool, declared: &[MetricDef]) {
    let outcome = execute(&Invocation {
        kind,
        seed: 7,
        seconds: 0.05,
        trace,
        quick: true,
    });
    assert!(outcome.correct, "{}: {:?}", kind.name(), outcome.findings);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= 1);
    let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|m| m.name).collect();
    assert_eq!(emitted, expected, "{}", kind.name());

    let line = render_json(&outcome);
    assert!(!line.contains('\n'));
    let doc = Json::parse(&line).expect("the result line is JSON");
    let Json::Object(keys) = &doc else {
        panic!("the result is an object");
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    for m in declared {
        let entry = doc.get("metrics").and_then(|ms| ms.get(m.name));
        let value = entry.and_then(|e| e.get("value")).and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{}", m.name);
        let unit = entry.and_then(|e| e.get("unit")).and_then(Json::as_str);
        assert_eq!(unit, Some(m.unit), "{}", m.name);
        if m.bound.is_some() {
            assert!(value != Some(0.0), "{} must never be 0", m.name);
        }
    }
}

#[test]
fn every_workload_emits_exactly_the_end_to_end_metrics() {
    for kind in Kind::ALL {
        check_invocation(kind, false, catalog::END_TO_END);
    }
}

#[test]
fn a_traced_invocation_emits_exactly_the_per_layer_metrics() {
    // One workload with a profiler, the one without, and the sweep; the
    // layer microbenchmarks behind the rest of the list are the same
    // code for every workload.
    for kind in [Kind::RmSteady24, Kind::Fabric1m, Kind::ChaosSweep8] {
        check_invocation(kind, true, catalog::PER_LAYER);
    }
}

#[test]
fn the_digest_check_catches_a_perturbed_seed() {
    let repeat =
        |seed| Prepared::setup(Kind::RmSteady24, seed, true).repeat(&mut Spans::disabled());
    let (first, again, perturbed) = (repeat(7), repeat(7), repeat(8));
    assert_eq!(first.check, Ok(()));
    assert_eq!(finding(first.digest, &again), None, "same seed, same bytes");
    let caught = finding(first.digest, &perturbed).expect("another seed changes the outputs");
    assert!(caught.contains("digest"), "{caught}");
}

#[test]
fn observation_is_pure() {
    // The traced repetition must produce the bytes of the untraced one.
    for kind in [Kind::Failover96, Kind::Fabric1m] {
        let prepared = Prepared::setup(kind, 7, true);
        let untraced = prepared.repeat(&mut Spans::disabled());
        let mut spans = Spans::enabled();
        let traced = prepared.repeat(&mut spans);
        assert_eq!(untraced.check, Ok(()), "{}", kind.name());
        assert_eq!(finding(untraced.digest, &traced), None, "{}", kind.name());
        assert_eq!(untraced.sim, traced.sim);
        let parts = traced.parts.as_ref().expect("a traced repetition exports");
        assert!(parts.events > 0 && parts.engine_loop_ns > 0);
        assert!(spans.total_ns("run") >= traced.wall().as_nanos() as u64);
    }
}
