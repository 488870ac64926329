//! The committed counterexample corpus.
//!
//! Every scenario the fuzzer finds (or a human distills) can be saved
//! as one JSONL line: the target shape (`nodes`, `horizon`, `seed`),
//! the expected violation key, and the full chaos program. Because the
//! runtime is deterministic, the line *is* the bug — replaying it with
//! [`CorpusScenario::reproduces`] either fires the expected violation
//! or proves a regression in the reproduction.
//!
//! Line schema (`schema`/`version` are checked on parse):
//!
//! ```json
//! {"schema":"hades-chaos-scenario","version":1,"name":"...",
//!  "nodes":4,"horizon_ns":100000000,"seed":7,
//!  "expect":{"monitor":"silent-group","node":null,"group":0},
//!  "ops":[{"op":"skew","node":0,"at_ns":0,"drift_ppb":8799611}]}
//! ```

use hades_telemetry::json::{escape, Json};
use hades_telemetry::monitor::{Violation, Watchdog};
use hades_time::Duration;

use crate::fuzzer::ViolationKey;
use crate::program::{narrow, ChaosProgram, ProgramDriver};
use crate::specs::standard_spec;

/// The corpus line schema tag.
pub const SCHEMA: &str = "hades-chaos-scenario";
/// The corpus line schema version this build reads and writes.
pub const VERSION: u64 = 1;

/// One replayable counterexample: a chaos program, the standard-spec
/// shape it runs against, and the violation it must raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusScenario {
    /// Human-readable scenario name (unique within a corpus file).
    pub name: String,
    /// Cluster size of the target spec.
    pub nodes: u32,
    /// Run horizon.
    pub horizon: Duration,
    /// Spec seed (network jitter, workload think times).
    pub seed: u64,
    /// The violation the program must raise.
    pub expect: ViolationKey,
    /// The fault/load program.
    pub program: ChaosProgram,
}

impl CorpusScenario {
    /// Replays the scenario and returns every violation it raises.
    pub fn replay(&self) -> Vec<Violation> {
        standard_spec(self.nodes, self.horizon, self.seed)
            .monitors(Watchdog::standard())
            .driver(Box::new(ProgramDriver::new(self.program.clone())))
            .run()
            .expect("corpus scenario spec must be valid")
            .violations()
            .to_vec()
    }

    /// Whether the replay still raises the expected violation.
    pub fn reproduces(&self) -> bool {
        self.replay().iter().any(|v| self.expect.matches(v))
    }

    /// Serializes to one corpus JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u32>| match v {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"version\":{VERSION},\"name\":{},\"nodes\":{},\
             \"horizon_ns\":{},\"seed\":{},\"expect\":{{\"monitor\":{},\"node\":{},\
             \"group\":{}}},\"ops\":{}}}",
            escape(&self.name),
            self.nodes,
            self.horizon.as_nanos(),
            self.seed,
            escape(&self.expect.monitor),
            opt(self.expect.node),
            opt(self.expect.group),
            self.program.to_json()
        )
    }

    /// Decodes one corpus line.
    pub fn from_json(line: &str) -> Result<CorpusScenario, String> {
        let v = Json::parse(line).map_err(|e| format!("corpus line is not JSON: {e}"))?;
        let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("unknown corpus schema {schema:?}"));
        }
        let version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != VERSION {
            return Err(format!("unsupported corpus version {version}"));
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("corpus line missing string {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("corpus line missing integer {key:?}"))
        };
        let expect = v.get("expect").ok_or("corpus line missing \"expect\"")?;
        let opt_u32 = |key: &str| -> Result<Option<u32>, String> {
            let n = expect.get(key).and_then(Json::as_u64);
            n.map(|n| narrow(key, n)).transpose()
        };
        Ok(CorpusScenario {
            name: str_field("name")?,
            nodes: narrow("nodes", u64_field("nodes")?)?,
            horizon: Duration::from_nanos(u64_field("horizon_ns")?),
            seed: u64_field("seed")?,
            expect: ViolationKey {
                monitor: expect
                    .get("monitor")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("corpus expect missing \"monitor\"")?,
                node: opt_u32("node")?,
                group: opt_u32("group")?,
            },
            program: ChaosProgram::from_json(v.get("ops").ok_or("corpus line missing \"ops\"")?)?,
        })
    }
}

/// Parses a whole corpus file (one scenario per line, blank lines and
/// `#` comment lines skipped), reporting the first bad line.
pub fn parse_corpus(text: &str) -> Result<Vec<CorpusScenario>, String> {
    let mut scenarios = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        scenarios.push(
            CorpusScenario::from_json(line).map_err(|e| format!("corpus line {}: {e}", i + 1))?,
        );
    }
    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ChaosOp;
    use hades_cluster::FaultOp;
    use hades_time::Time;

    fn sample() -> CorpusScenario {
        let ms = |n| Time::ZERO + Duration::from_millis(n);
        CorpusScenario {
            name: "cut-during-view-change".into(),
            nodes: 4,
            horizon: Duration::from_millis(100),
            seed: 7,
            expect: ViolationKey {
                monitor: "view-agreement".into(),
                node: Some(3),
                group: None,
            },
            program: ChaosProgram {
                ops: vec![
                    ChaosOp::Fault(FaultOp::Cut {
                        from: 0,
                        to: 3,
                        at: ms(63),
                        until: ms(66),
                    }),
                    ChaosOp::Fault(FaultOp::Crash {
                        node: 1,
                        at: ms(61),
                        until: None,
                    }),
                ],
            },
        }
    }

    #[test]
    fn scenarios_round_trip_through_the_line_format() {
        let scenario = sample();
        let line = scenario.to_json();
        assert_eq!(CorpusScenario::from_json(&line).unwrap(), scenario);
    }

    #[test]
    fn corpus_files_skip_comments_and_report_bad_lines() {
        let good = sample().to_json();
        let text = format!("# a comment\n\n{good}\n{good}\n");
        assert_eq!(parse_corpus(&text).unwrap().len(), 2);
        let bad = format!("{good}\nnot json\n");
        let err = parse_corpus(&bad).unwrap_err();
        assert!(err.starts_with("corpus line 2:"), "got {err:?}");
    }

    #[test]
    fn out_of_range_envelope_integers_are_rejected() {
        let line = sample().to_json();
        for (field, wide) in [
            ("\"nodes\":4", "\"nodes\":4294967300"),
            ("\"node\":3", "\"node\":4294967296"),
        ] {
            assert!(line.contains(field), "{line}");
            let err = CorpusScenario::from_json(&line.replace(field, wide)).expect_err(wide);
            assert!(err.contains("exceeds u32"), "{err}");
        }
    }

    #[test]
    fn schema_and_version_are_enforced() {
        let line = sample().to_json();
        let other = line.replace("hades-chaos-scenario", "other-schema");
        assert!(CorpusScenario::from_json(&other).is_err());
        let newer = line.replace("\"version\":1", "\"version\":2");
        assert!(CorpusScenario::from_json(&newer).is_err());
    }
}
