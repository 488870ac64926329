//! One invocation: one workload, one seed, one process, one thread.
//!
//! `--trace 0` measures the end-to-end metrics with every observer off:
//! repeated set-ups, one warm-up repetition, then timed repetitions
//! until the time budget is spent. `--trace 1` measures the per-layer
//! metrics: alternating untraced/traced repetitions of the workload
//! (their difference is the tracing overhead), then the layer
//! microbenchmarks in the remaining budget.

use crate::catalog;
use crate::layers;
use crate::measure::{peak_rss_kb, time, Measured, Samples};
use crate::trace::Spans;
use crate::workloads::{Kind, Prepared, Repetition, TraceParts};
use hades_telemetry::json::escape;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Invocation {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Time budget of the measured part, seconds.
    pub seconds: f64,
    /// Per-layer (traced) instead of end-to-end metrics.
    pub trace: bool,
    /// Shrink horizons, program counts and problem sizes ×10 (for the
    /// package's own debug-build tests; never for reported numbers).
    pub quick: bool,
}

/// What an invocation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Library runs attempted (warm-up, timed and traced).
    pub attempted: u64,
    /// Runs that broke a workload check or whose digest differs from
    /// the first repetition's.
    pub failed: u64,
    /// Digest of the first repetition.
    pub digest: u64,
    /// Why `correct` is false, one line per finding.
    pub findings: Vec<String>,
    /// The metrics, in catalog order.
    pub metrics: Vec<Measured>,
}

/// Set-ups timed before the first repetition; [`SETUPS_PER_REPETITION`]
/// more follow every timed repetition, so the samples of `setup_s`
/// spread over the whole invocation like those of `run_s`.
const SETUPS: usize = 50;
const SETUPS_PER_REPETITION: usize = 5;
/// Timed repetitions made even when the budget is already spent.
const MIN_REPETITIONS: usize = 3;
/// Share of a traced invocation's budget spent on workload repetitions;
/// the rest goes to the layer microbenchmarks.
const TRACED_SHARE: f64 = 0.35;

/// Counts repetitions against the first one.
struct Judge {
    reference: u64,
    attempted: u64,
    failed: u64,
    findings: Vec<String>,
}

impl Judge {
    fn new(first: &Repetition) -> Self {
        let mut judge = Judge {
            reference: first.digest,
            attempted: 0,
            failed: 0,
            findings: Vec::new(),
        };
        judge.see(first);
        judge
    }

    fn see(&mut self, rep: &Repetition) {
        self.attempted += rep.runs();
        if let Some(finding) = finding(self.reference, rep) {
            self.failed += rep.runs();
            self.findings.push(finding);
        }
    }
}

/// What, if anything, disqualifies a repetition: a broken workload
/// check, or outputs whose digest differs from the first repetition's.
pub fn finding(reference: u64, rep: &Repetition) -> Option<String> {
    match &rep.check {
        Err(why) => Some(format!("workload check failed: {why}")),
        Ok(()) if rep.digest != reference => Some(format!(
            "digest {:016x} differs from the first repetition's {reference:016x}",
            rep.digest
        )),
        Ok(()) => None,
    }
}

/// The host time of every library run of a repetition, by position.
/// Runs are deterministic, so run `i` of one repetition does the same
/// work as run `i` of the next, and the typical cost of a repetition is
/// the sum of the typical costs of its positions — for a sweep a far
/// finer-grained estimate than the quartile of whole repetitions.
#[derive(Debug, Default)]
struct PerRun {
    positions: Vec<Samples>,
    repetitions: Samples,
}

impl PerRun {
    fn see(&mut self, rep: &Repetition) {
        self.positions
            .resize_with(rep.run_walls.len(), Samples::new);
        for (samples, wall) in self.positions.iter_mut().zip(&rep.run_walls) {
            samples.push(wall.as_secs_f64());
        }
        self.repetitions.push(rep.wall().as_secs_f64());
    }

    fn total_s(&self) -> f64 {
        self.positions.iter().map(Samples::typical).sum()
    }

    fn metric(&self, name: &str) -> Measured {
        Measured {
            value: self.total_s(),
            ..self.repetitions.metric(name)
        }
    }
}

/// Runs the invocation.
pub fn execute(inv: &Invocation) -> Outcome {
    let budget = Duration::from_secs_f64(inv.seconds);
    let mut setup = Samples::new();
    let mut set_up = |times: usize| {
        let mut prepared = None;
        for _ in 0..times {
            let (elapsed, p) = time(|| Prepared::setup(inv.kind, inv.seed, inv.quick));
            setup.push(elapsed.as_secs_f64());
            prepared = Some(p);
        }
        prepared.expect("at least one set-up")
    };
    let prepared = set_up(if inv.quick { 3 } else { SETUPS });

    let first = prepared.repeat(&mut Spans::disabled());
    // Read here, after the set-ups and one repetition, the high-water
    // mark does not depend on how many repetitions the budget allows.
    let peak_rss_mb = peak_rss_kb() as f64 * 1024.0 / 1e6;
    let mut judge = Judge::new(&first);
    if let Err(why) = prepared.cross_check() {
        judge.failed += 1;
        judge.findings.push(why);
    }

    let mut metrics = if inv.trace {
        traced(inv, &prepared, &first, &mut judge, budget)
    } else {
        let mut run = PerRun::default();
        let start = Instant::now();
        while run.repetitions.len() < MIN_REPETITIONS || start.elapsed() < budget {
            let rep = prepared.repeat(&mut Spans::disabled());
            judge.see(&rep);
            run.see(&rep);
            set_up(SETUPS_PER_REPETITION);
        }
        end_to_end(&setup, &run, peak_rss_mb, &first)
    };

    let declared = if inv.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let position = |name: &str| declared.iter().position(|d| d.name == name);
    metrics.sort_by_key(|m| position(&m.name).unwrap_or(usize::MAX));
    if !metrics
        .iter()
        .map(|m| m.name.as_str())
        .eq(declared.iter().map(|d| d.name))
    {
        judge
            .findings
            .push("emitted metrics differ from the catalog".into());
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        judge.findings.push(format!("{} is not finite", m.name));
    }
    Outcome {
        correct: judge.findings.is_empty(),
        attempted: judge.attempted,
        failed: judge.failed,
        digest: judge.reference,
        findings: judge.findings,
        metrics,
    }
}

fn end_to_end(
    setup: &Samples,
    run: &PerRun,
    peak_rss_mb: f64,
    first: &Repetition,
) -> Vec<Measured> {
    let sim = &first.sim;
    let n = run.repetitions.len() + 1;
    let responses = sim.samples as usize;
    vec![
        setup.metric("setup_s"),
        run.metric("run_s"),
        Measured::exact("peak_rss_mb", peak_rss_mb, 1),
        Measured::exact("sim_response_p50", sim.response_p50 as f64, responses),
        Measured::exact("sim_response_p99", sim.response_p99 as f64, responses),
        Measured::exact("sim_on_time_share", sim.on_time_share, n),
        Measured::exact("sim_deadline_met_share", sim.deadline_met_share, n),
        Measured::exact("sim_goodput_rps", sim.goodput_rps, n),
        Measured::exact("sim_detect_slack", sim.detect_slack as f64, n),
        Measured::exact("sim_rejoin_slack", sim.rejoin_slack as f64, n),
    ]
}

fn traced(
    inv: &Invocation,
    prepared: &Prepared,
    first: &Repetition,
    judge: &mut Judge,
    budget: Duration,
) -> Vec<Measured> {
    let start = Instant::now();
    let mut spans = Spans::enabled();
    let mut untraced = PerRun::default();
    let mut traced = PerRun::default();
    let mut traced_reps: Vec<Repetition> = Vec::new();
    while traced_reps.is_empty() || start.elapsed() < budget.mul_f64(TRACED_SHARE) {
        let rep = prepared.repeat(&mut Spans::disabled());
        judge.see(&rep);
        untraced.see(&rep);
        let rep = spans.scope("repetition", |spans| prepared.repeat(spans));
        judge.see(&rep);
        traced.see(&rep);
        traced_reps.push(rep);
    }

    // The breakdown is one repetition's — the fastest, least disturbed
    // one, whose wall is `trace.run_s` — so its parts add up exactly.
    let (fastest, rep) = traced_reps
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.wall())
        .expect("at least one traced repetition");
    let parts = rep.parts.clone().unwrap_or_default();
    let n = traced_reps.len();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let run_s = rep.wall().as_secs_f64();
    let loop_s = secs(parts.engine_loop_ns);
    let handlers_ns = parts.handlers_actor_ns + parts.handlers_dispatch_ns;
    let exact = |name: &str, value: f64| Measured::exact(name, value, n);
    let counts = [
        ("trace.events", parts.events),
        ("trace.messages", parts.messages),
        ("trace.heartbeats", parts.heartbeats),
        ("trace.queue_depth_peak", parts.queue_depth_peak),
        ("trace.ctx_switches", parts.ctx_switches),
    ];
    let mut metrics: Vec<Measured> = counts
        .iter()
        .map(|(name, count)| exact(name, *count as f64))
        .collect();
    metrics.extend([
        exact("trace.response_samples", first.sim.samples as f64),
        exact(
            "trace.worst_response_us",
            first.sim.worst_response as f64 * 1e-3,
        ),
        exact(
            "trace.detect_worst_us",
            first.sim.detect_worst as f64 * 1e-3,
        ),
        exact(
            "trace.rejoin_worst_us",
            first.sim.rejoin_worst as f64 * 1e-3,
        ),
        exact(
            "trace.ns_per_event",
            untraced.total_s() * 1e9 / parts.events.max(1) as f64,
        ),
        exact(
            "trace.heartbeat_msg_share",
            parts.heartbeats as f64 / parts.messages.max(1) as f64,
        ),
        Measured {
            value: run_s,
            ..traced.repetitions.metric("trace.run_s")
        },
        exact("trace.engine_loop_s", loop_s),
        exact("trace.outside_loop_s", run_s - loop_s),
        exact("trace.handlers_actor_s", secs(parts.handlers_actor_ns)),
        exact(
            "trace.handlers_dispatch_s",
            secs(parts.handlers_dispatch_ns),
        ),
        exact("trace.queue_self_s", loop_s - secs(handlers_ns)),
        exact(
            "trace.overhead_pct",
            (traced.total_s() - untraced.total_s()) * 100.0 / untraced.total_s(),
        ),
    ]);

    write_trace(inv.kind, &spans, fastest, &parts, &counts);
    let remaining = budget.saturating_sub(start.elapsed());
    metrics.extend(layers::run(inv.seed, remaining, inv.quick));
    metrics
}

/// Writes the span log to `benchmark/out/trace.<workload>.jsonl`; a
/// failure to write is reported on stderr and does not fail the run.
fn write_trace(
    kind: Kind,
    spans: &Spans,
    fastest: usize,
    parts: &TraceParts,
    counts: &[(&str, u64)],
) {
    let derived = [
        ("engine_loop", parts.engine_loop_ns),
        ("handlers_actor", parts.handlers_actor_ns),
        ("handlers_dispatch", parts.handlers_dispatch_ns),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace.{}.jsonl", kind.name()));
    let doc = spans.to_jsonl(kind.name(), fastest, &derived, counts);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn unit(name: &str) -> &'static str {
    catalog::find(name).map_or("?", |d| d.unit)
}

/// One line per metric: `workload name value unit n=<samples> [q1 q3]`.
pub fn render_lines(workload: &str, metrics: &[Measured]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "{workload} {} {} {} n={} [{} {}]",
            m.name,
            m.value,
            unit(&m.name),
            m.n,
            m.q1,
            m.q3
        );
    }
    out
}

/// The result object the driver reads from the last line of stdout.
pub fn render_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            escape(&m.name),
            m.value,
            escape(unit(&m.name))
        );
    }
    out.push_str("}}");
    out
}
