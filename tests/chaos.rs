//! E2E: the invariant-guided chaos fuzzer. Campaigns are pure functions
//! of their seed (same programs, same violations, byte-identical
//! JSONL); the shrinker's output still reproduces and is locally
//! minimal; the committed corpus replays; and the gray-failure hooks
//! are pure observation — arming them without a matching window leaves
//! the run byte-identical to a chaos-free one.

use proptest::prelude::*;

use hades::prelude::*;
use hades_chaos::standard_spec;
use hades_telemetry::monitor::{validate_violations, Watchdog};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn corpus_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/hades-chaos/corpus/regressions.jsonl")
}

fn committed_scenarios() -> Vec<CorpusScenario> {
    let text = std::fs::read_to_string(corpus_path()).expect("corpus file is committed");
    hades_chaos::parse_corpus(&text).expect("corpus file parses")
}

#[test]
fn the_committed_corpus_replays_its_violations() {
    let scenarios = committed_scenarios();
    assert!(!scenarios.is_empty(), "corpus must not be empty");
    for scenario in &scenarios {
        assert!(
            scenario.reproduces(),
            "{}: expected {:?} no longer fires",
            scenario.name,
            scenario.expect
        );
        // The line format is stable: re-serializing reproduces the
        // scenario exactly.
        let reparsed = CorpusScenario::from_json(&scenario.to_json()).expect("round-trips");
        assert_eq!(&reparsed, scenario);
    }
}

#[test]
fn every_committed_scenario_shrinks_to_a_minimal_deterministic_program() {
    for scenario in &committed_scenarios() {
        let cfg = FuzzConfig {
            nodes: scenario.nodes,
            horizon: scenario.horizon,
            spec_seed: scenario.seed,
            ..FuzzConfig::default()
        };
        let fuzzer = ChaosFuzzer::standard(cfg, 1);

        // Pad the committed program with ops that are irrelevant to
        // its violation; the shrinker must strip them all back out.
        let mut padded = scenario.program.clone();
        padded.ops.push(ChaosOp::Fault(FaultOp::Degrade {
            from: 1,
            to: 2,
            at: Time::ZERO + ms(3),
            until: Time::ZERO + ms(9),
            extra_delay: us(80),
            loss_permille: 200,
        }));
        padded.ops.push(ChaosOp::Throttle {
            service: "store".into(),
            at: Time::ZERO + ms(5),
            permille: 700,
        });

        let minimized = fuzzer.shrink(&padded, &scenario.expect);
        assert!(fuzzer.reproduces(&minimized, &scenario.expect));
        assert!(
            minimized.ops.len() <= scenario.program.ops.len(),
            "{}: noise ops survived the shrink: {minimized:?}",
            scenario.name
        );
        // Local minimality: removing any single op loses the violation.
        for i in 0..minimized.ops.len() {
            let mut without = minimized.clone();
            without.ops.remove(i);
            assert!(
                !fuzzer.reproduces(&without, &scenario.expect),
                "{}: op {i} of the minimized program is removable",
                scenario.name
            );
        }
        // And the shrink itself is deterministic.
        assert_eq!(minimized, fuzzer.shrink(&padded, &scenario.expect));
    }
}

#[test]
fn an_asymmetric_cut_raises_false_suspicions_end_to_end() {
    // Severing only node 3's outbound links swallows its heartbeats
    // while it keeps receiving everyone else's: the survivors must
    // suspect the perfectly alive node — the classic gray failure.
    let mut ops = Vec::new();
    for to in 0..3 {
        ops.push(ChaosOp::Fault(FaultOp::Cut {
            from: 3,
            to,
            at: Time::ZERO + ms(10),
            until: Time::ZERO + ms(30),
        }));
    }
    let run = standard_spec(4, ms(60), 11)
        .driver(Box::new(ProgramDriver::new(ChaosProgram { ops })))
        .run()
        .expect("valid spec");
    let report = run.report();
    assert!(
        report
            .detections
            .iter()
            .any(|d| d.suspect == 3 && d.is_false()),
        "one-way silence must look like a crash to the survivors"
    );
    assert!(!report.no_false_suspicions());
}

/// FNV-1a (64-bit) over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn the_seed_7_campaign_runs_keep_their_bytes() {
    // The 24 programs `chaos_fuzz -- 7 24` generates, each run as the
    // campaign runs it: the standard spec, the standard watchdog, the
    // program as the driver. One hash pins every program's encoding and
    // every run's report, event stream and violations.
    let cfg = FuzzConfig::default();
    let mut fuzzer = ChaosFuzzer::standard(cfg.clone(), 7);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..24 {
        let program = fuzzer.generate();
        let run = standard_spec(cfg.nodes, cfg.horizon, cfg.spec_seed)
            .monitors(Watchdog::standard())
            .driver(Box::new(ProgramDriver::new(program.clone())))
            .run()
            .expect("valid spec");
        let text = format!(
            "{}\n{:?}\n{:?}\n{:?}\n",
            program.to_json(),
            run.report(),
            run.events(),
            run.violations()
        );
        hash = fnv1a(hash, text.as_bytes());
    }
    assert_eq!(
        hash, 0xfd9a_2c14_6033_f7f1,
        "the seed-7 campaign's runs changed: {hash:#018x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A fuzzing campaign is a pure function of its seed: the same seed
    /// generates the same programs, finds the same counterexamples with
    /// the same violations, shrinks them to the same minimal programs,
    /// and exports byte-identical schema-valid JSONL.
    #[test]
    fn campaigns_are_deterministic_under_a_fixed_seed(seed in 0u64..1_000) {
        let cfg = FuzzConfig {
            horizon: ms(50),
            max_ops: 3,
            ..FuzzConfig::default()
        };
        let mut a = ChaosFuzzer::standard(cfg.clone(), seed);
        let mut b = ChaosFuzzer::standard(cfg, seed);
        let ca = a.campaign(3);
        let cb = b.campaign(3);
        prop_assert_eq!(ca.programs_run, cb.programs_run);
        prop_assert_eq!(ca.duplicates_skipped, cb.duplicates_skipped);
        prop_assert_eq!(ca.counterexamples.len(), cb.counterexamples.len());
        for (x, y) in ca.counterexamples.iter().zip(&cb.counterexamples) {
            prop_assert_eq!(x.index, y.index);
            prop_assert_eq!(&x.program, &y.program);
            prop_assert_eq!(&x.minimized, &y.minimized);
            prop_assert_eq!(&x.key, &y.key);
            prop_assert_eq!(&x.violations, &y.violations);
        }
        let jsonl = ca.violations_jsonl();
        prop_assert_eq!(&jsonl, &cb.violations_jsonl());
        // Exported lines pass the violation schema validator.
        let lines = validate_violations(&jsonl).map_err(|e| {
            TestCaseError::fail(format!("bad violation JSONL: {e}"))
        })?;
        prop_assert_eq!(lines, jsonl.lines().count());
    }

    /// The gray-failure hooks are pure observation when unused: staging
    /// cuts, degradations, slowdowns and skews whose windows all start
    /// beyond the horizon leaves the run — report and event stream —
    /// byte-identical to the same spec with no driver at all.
    #[test]
    fn unused_gray_hooks_are_pure_observation(
        seed in 0u64..500,
        extra_delay_us in 10u64..2_000,
        loss in 1u32..1_000,
        speed in 1u32..1_000,
        drift_magnitude in 100_000i64..20_000_000,
    ) {
        let drift = if drift_magnitude % 2 == 0 { drift_magnitude } else { -drift_magnitude };
        let horizon = ms(40);
        let after = Time::ZERO + horizon + ms(1);
        let baseline = standard_spec(4, horizon, seed).run().expect("valid spec");
        let ops = vec![
            ChaosOp::Fault(FaultOp::Cut { from: 0, to: 1, at: after, until: after + ms(2) }),
            ChaosOp::Fault(FaultOp::Degrade {
                from: 1,
                to: 2,
                at: after,
                until: after + ms(3),
                extra_delay: us(extra_delay_us),
                loss_permille: loss,
            }),
            ChaosOp::Fault(FaultOp::Slow { node: 2, at: after, until: after + ms(2), speed_permille: speed }),
            ChaosOp::Fault(FaultOp::Skew { node: 3, at: after, drift_ppb: drift }),
        ];
        let armed = standard_spec(4, horizon, seed)
            .driver(Box::new(ProgramDriver::new(ChaosProgram { ops })))
            .run()
            .expect("valid spec");
        prop_assert_eq!(baseline, armed);
    }
}
