//! Command line of the measurement lab.
//!
//! ```text
//! hades-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line of stdout is the
//!     result object {"correct", "attempted", "failed", "metrics"}
//! hades-benchmark all [--seed N] [--seconds S]
//!     every workload, untraced then traced, one child process each,
//!     strictly one after the other; writes benchmark/out/results.json
//! hades-benchmark --check-repeat [--seed N] [--seconds S]
//!     `all` twice, compared under the benchmark's own bounds
//! hades-benchmark --layers [--seed N] [--seconds S]
//!     the layer microbenchmarks alone
//! hades-benchmark --list | --manifest
//!     workload names | the text of BENCHMARK.json
//! ```
//!
//! `--quick` shrinks every size ×10 (the package's debug-build tests).

use hades_benchmark::catalog::{self, Better};
use hades_benchmark::layers;
use hades_benchmark::run::{execute, render_json, render_lines, Invocation};
use hades_benchmark::workloads::Kind;
use hades_telemetry::json::{escape, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    One(Kind),
    All,
    CheckRepeat,
    Layers,
    List,
    Manifest,
}

#[derive(Debug, Clone, Copy)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut seed, mut seconds) = (7, catalog::RUN_SECONDS as f64);
    let (mut trace, mut quick) = (false, false);
    let mut mode = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "all" => mode = Some(Mode::All),
            "--check-repeat" => mode = Some(Mode::CheckRepeat),
            "--layers" => mode = Some(Mode::Layers),
            "--list" => mode = Some(Mode::List),
            "--manifest" => mode = Some(Mode::Manifest),
            "--quick" => quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                let kind = Kind::parse(name)
                    .ok_or_else(|| format!("unknown workload: {name} (try --list)"))?;
                mode = Some(Mode::One(kind));
            }
            "--seed" => {
                let v = value("a number")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds: {v}"))?;
            }
            "--trace" => {
                trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace flag: {v}")),
                };
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("nothing to do: pass --workload NAME, all, --layers or --list")?,
        seed,
        seconds,
        trace,
        quick,
    })
}

/// One metric as a child printed it.
#[derive(Debug, Clone, PartialEq)]
struct Reading {
    value: f64,
    n: u64,
    q1: f64,
    q3: f64,
}

/// What one child invocation reported.
#[derive(Debug, Clone)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: BTreeMap<String, Reading>,
}

/// Runs `--workload kind --trace t` in a child process (so `VmHWM` is
/// per workload), echoes its metric lines, and parses them back.
fn run_child(args: &Args, kind: Kind, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("cannot spawn: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let mut child = ChildResult {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: result.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: result.get("failed").and_then(Json::as_u64).unwrap_or(0),
        digest: String::new(),
        metrics: BTreeMap::new(),
    };
    for line in lines {
        println!("{line}");
        // workload name value unit n=<n> [q1 q3]
        let t: Vec<&str> = line.split_whitespace().collect();
        match t.as_slice() {
            [_, "digest", hex, ..] => child.digest = hex.to_string(),
            [_, name, value, _unit, n, q1, q3] => {
                let num = |s: &str| s.trim_matches(['[', ']']).parse::<f64>().ok();
                let n = n.strip_prefix("n=").and_then(|n| n.parse().ok());
                if let (Some(value), Some(n), Some(q1), Some(q3)) =
                    (num(value), n, num(q1), num(q3))
                {
                    let reading = Reading { value, n, q1, q3 };
                    child.metrics.insert(name.to_string(), reading);
                }
            }
            _ => {}
        }
    }
    Ok(child)
}

/// Both invocations of one workload.
#[derive(Debug, Clone)]
struct WorkloadResult {
    untraced: ChildResult,
    traced: ChildResult,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.untraced.correct && self.traced.correct
    }
}

type Results = BTreeMap<&'static str, WorkloadResult>;

fn run_all(args: &Args) -> Result<Results, String> {
    let mut results = Results::new();
    for kind in Kind::ALL {
        let untraced = run_child(args, kind, false)?;
        let traced = run_child(args, kind, true)?;
        results.insert(kind.name(), WorkloadResult { untraced, traced });
    }
    Ok(results)
}

fn all_correct(results: &Results) -> bool {
    results.values().all(WorkloadResult::correct)
}

fn results_json(args: &Args, results: &Results) -> String {
    let block = |metrics: &BTreeMap<String, Reading>| {
        let items: Vec<String> = metrics
            .iter()
            .map(|(name, r)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}}}",
                    escape(name),
                    r.value,
                    escape(catalog::find(name).map_or("?", |d| d.unit)),
                    r.n,
                    r.q1,
                    r.q3
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    };
    let mut out = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"workloads\": {{",
        args.seed, args.seconds
    );
    for (i, (name, w)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {}: {{\"correct\": {}, \"digest\": {}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}}}",
            escape(name),
            w.correct(),
            escape(&w.untraced.digest),
            w.untraced.attempted + w.traced.attempted,
            w.untraced.failed + w.traced.failed,
            block(&w.untraced.metrics),
            block(&w.traced.metrics),
        );
    }
    out.push_str("\n}}\n");
    out
}

fn write_results(args: &Args, results: &Results) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join("results.json");
    let doc = results_json(args, results);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Applies the benchmark's own bounds to two result sets of the same
/// code and seed; returns the number of violations.
fn compare(first: &Results, second: &Results) -> usize {
    let mut violations = 0;
    let mut violation = |what: String| {
        println!("REPEAT VIOLATION {what}");
        violations += 1;
    };
    for (name, a) in first {
        let b = &second[name];
        if a.untraced.digest != b.untraced.digest || a.traced.digest != b.traced.digest {
            violation(format!("{name}: digests differ between the two sets"));
        }
        if [a, b]
            .iter()
            .any(|w| w.untraced.failed + w.traced.failed > 0)
        {
            violation(format!("{name}: failed operations"));
        }
        for def in catalog::END_TO_END {
            let (x, y) = (&a.untraced.metrics[def.name], &b.untraced.metrics[def.name]);
            // Simulated-time metrics are pure functions of (spec, seed).
            if def.name.starts_with("sim_") {
                if x.value != y.value {
                    violation(format!("{name} {}: {} vs {}", def.name, x.value, y.value));
                }
                continue;
            }
            let worse = match def.better {
                Better::Lower => (y.value - x.value) / x.value,
                Better::Higher => (x.value - y.value) / x.value,
            };
            let bound = def.bound.unwrap_or(0.0);
            println!(
                "repeat {name} {} {} vs {} ({:+.1} %, bound {:.0} %)",
                def.name,
                x.value,
                y.value,
                worse * 100.0,
                bound * 100.0
            );
            if worse.abs() > bound {
                violation(format!(
                    "{name} {}: medians differ beyond the bound",
                    def.name
                ));
            }
        }
        for def in catalog::PER_LAYER {
            let (x, y) = (&a.traced.metrics[def.name], &b.traced.metrics[def.name]);
            if def.unit == "count" || def.unit == "sim_us" {
                if x.value != y.value {
                    violation(format!("{name} {}: {} vs {}", def.name, x.value, y.value));
                }
                continue;
            }
            // A layer timing only counts as the same when the medians
            // lie within the wider of the two inter-quartile spreads.
            let spread = (x.q3 - x.q1).max(y.q3 - y.q1);
            let verdict = if (x.value - y.value).abs() <= spread {
                "equal within spread"
            } else {
                "unresolved"
            };
            println!(
                "repeat {name} {} {} vs {} (spread {spread}) {verdict}",
                def.name, x.value, y.value
            );
        }
    }
    violations
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::List => {
            for (name, why) in catalog::WORKLOADS {
                println!("{name}: {why}");
            }
            true
        }
        Mode::Manifest => {
            print!("{}", catalog::manifest());
            true
        }
        Mode::Layers => {
            let budget = std::time::Duration::from_secs_f64(args.seconds);
            let metrics = layers::run(args.seed, budget, args.quick);
            print!("{}", render_lines("layers", &metrics));
            true
        }
        Mode::One(kind) => {
            let outcome = execute(&Invocation {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                quick: args.quick,
            });
            print!("{}", render_lines(kind.name(), &outcome.metrics));
            println!(
                "{} digest {:016x} hex n={}",
                kind.name(),
                outcome.digest,
                outcome.attempted
            );
            for finding in &outcome.findings {
                eprintln!("{}: {finding}", kind.name());
            }
            println!("{}", render_json(&outcome));
            outcome.correct
        }
        Mode::All => match run_all(&args) {
            Ok(results) => {
                write_results(&args, &results);
                all_correct(&results)
            }
            Err(why) => {
                eprintln!("{why}");
                false
            }
        },
        Mode::CheckRepeat => match run_all(&args).and_then(|a| Ok((a, run_all(&args)?))) {
            Ok((first, second)) => {
                write_results(&args, &second);
                let violations = compare(&first, &second);
                println!("check-repeat: {violations} violation(s)");
                violations == 0 && all_correct(&first) && all_correct(&second)
            }
            Err(why) => {
                eprintln!("{why}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
