//! The five end-to-end workloads.
//!
//! Each workload turns `(seed, scale)` into library specs, runs them
//! through the public `run()` entry points with every observer off
//! (or, for the traced repetition, with a `Registry` and a `Profiler`
//! attached), and folds the reports into the same simulated-time
//! metrics plus a digest of everything the run produced. The timed
//! region is `run()` alone: spec construction is set-up, report folding
//! and digesting are the harness's own cost.
//!
//! Why these five (the sentence per workload in `BENCHMARK.json`):
//!
//! * `edf_steady24` / `rm_steady24` are one spec under two policies, so
//!   a scheduler-path change moves the first and must not move the
//!   second, while an engine, mux or dispatcher change moves both;
//! * `failover96` is the engine queue, network transit and heartbeat
//!   handling at 96 nodes, and the only workload whose simulated-time
//!   metrics measure failover, detection and rejoin;
//! * `fabric_1m` is the replica-group request path times 128 groups
//!   with almost no heartbeat share — the mirror image — and the
//!   memory workload;
//! * `chaos_sweep8` uses the cluster layer the other way round:
//!   hundreds of short runs with a populated fault plan and the
//!   watchdog armed, so validate/lower, analysis and report folding
//!   carry the cost and work moved into set-up shows as a loss.

use crate::measure::{median_u64, percentile, time, Fnv};
use crate::trace::Spans;
use hades_chaos::{standard_spec, ChaosFuzzer, ChaosProgram, FuzzConfig, ProgramDriver};
use hades_cluster::{
    ClosedLoop, ClusterReport, ClusterRun, ClusterSpec, GroupLoad, ScenarioPlan, ServiceSpec,
};
use hades_dispatch::CostModel;
use hades_fabric::ring::mix64;
use hades_fabric::{Arrival, FabricSpec, LoadClass, PopulationWorkload};
use hades_sched::Policy;
use hades_services::ReplicaStyle;
use hades_sim::NodeId;
use hades_telemetry::monitor::Watchdog;
use hades_telemetry::{Profiler, Registry};
use hades_time::{Duration, Time};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The named workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 24 nodes under EDF, fault-free, long horizon.
    EdfSteady24,
    /// The identical spec under rate-monotonic priorities.
    RmSteady24,
    /// 96 nodes, nine groups, two crash/rejoin cycles.
    Failover96,
    /// 10⁶ clients over 64 shards on 24 nodes, one leader crash.
    Fabric1m,
    /// A fuzzer sweep of short 8-node runs under generated fault programs.
    ChaosSweep8,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 5] = [
        Kind::EdfSteady24,
        Kind::RmSteady24,
        Kind::Failover96,
        Kind::Fabric1m,
        Kind::ChaosSweep8,
    ];

    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Kind::EdfSteady24 => "edf_steady24",
            Kind::RmSteady24 => "rm_steady24",
            Kind::Failover96 => "failover96",
            Kind::Fabric1m => "fabric_1m",
            Kind::ChaosSweep8 => "chaos_sweep8",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Client think time of every closed loop; with the 134 µs fault-free
/// response this makes one request cycle 334 µs.
const THINK: Duration = Duration::from_micros(200);
/// Fault-free submission → output latency of a semi-active group on the
/// default link (Δ + one execution). Only used to aim scripted crashes
/// at the middle of a request; the digest and the response metrics show
/// if it ever drifts.
const RESPONSE: Duration = Duration::from_micros(134);
/// First client submission of every closed loop.
const FIRST_REQUEST: Duration = Duration::from_millis(2);

/// Simulated horizon of the two steady workloads: long enough for 1000+
/// responses of the two closed loops and for per-event cost that grows
/// with simulated time to be most of the EDF run (≈ 3.5× the RM run).
fn steady_horizon(quick: bool) -> Duration {
    if quick {
        ms(40)
    } else {
        ms(200)
    }
}

fn periodic_load(mut spec: ClusterSpec, nodes: u32) -> ClusterSpec {
    for node in 0..nodes {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

fn store(name: String, first_node: u32) -> ServiceSpec {
    ServiceSpec::replicated(
        name,
        ReplicaStyle::SemiActive,
        (first_node..first_node + 3).collect(),
        GroupLoad::default(),
    )
    .workload(Box::new(
        ClosedLoop::new(THINK, ms(1), Time::ZERO + FIRST_REQUEST).with_timeout(ms(4)),
    ))
}

/// `edf_steady24` / `rm_steady24`: identical apart from the policy.
pub(crate) fn steady_spec(policy: Policy, seed: u64, quick: bool) -> ClusterSpec {
    let spec = ClusterSpec::new(24)
        .policy(policy)
        .costs(CostModel::measured_default())
        .horizon(steady_horizon(quick))
        .seed(seed)
        .service(store("store0".into(), 0))
        .service(store("store1".into(), 3));
    periodic_load(spec, 24)
}

/// Groups of `failover96` (nodes 0–26); the first `failover_slots`
/// groups each take one fault cycle, the others answer undisturbed so
/// the merged responses pass 1000.
pub(crate) const FAILOVER_GROUPS: u32 = 9;

fn failover_slots(quick: bool) -> u32 {
    if quick {
        1
    } else {
        2
    }
}

fn failover_horizon(quick: bool) -> Duration {
    if quick {
        ms(30)
    } else {
        ms(50)
    }
}

/// `failover96` (96 nodes, nine groups): `groups` closed-loop groups on
/// nodes `0..3·groups`; fault cycle `k` (one every
/// 20 ms from 8 ms, so the cluster-wide membership sees one change at a
/// time, as its `f = 1` hypothesis requires) crashes group `k`'s leader
/// in the middle of a request, its last follower 5.2 ms later, and
/// restarts them 10 ms and 15 ms after the first crash. The leader
/// crash is aimed: until its first fault a closed loop submits at
/// `2 ms + j·334 µs`, whatever the seed.
pub(crate) fn failover_spec(nodes: u32, groups: u32, seed: u64, quick: bool) -> ClusterSpec {
    let cycle = (THINK + RESPONSE).as_nanos();
    let mut plan = ScenarioPlan::new();
    for k in 0..failover_slots(quick) {
        let base = ms(8 + 20 * k as u64).as_nanos();
        let since_first = base - FIRST_REQUEST.as_nanos();
        let submitted = FIRST_REQUEST.as_nanos() + since_first.div_ceil(cycle) * cycle;
        let crash = Time::ZERO + Duration::from_nanos(submitted + RESPONSE.as_nanos() / 2);
        let (leader, follower) = (NodeId(3 * k), NodeId(3 * k + 2));
        plan = plan
            .crash(leader, crash)
            .crash(follower, crash + us(5_200))
            .restart(leader, crash + ms(10))
            .restart(follower, crash + ms(15));
    }
    let mut spec = ClusterSpec::new(nodes)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(failover_horizon(quick))
        .seed(seed)
        .scenario(plan);
    for g in 0..groups {
        spec = spec.service(store(format!("store{g}"), 3 * g));
    }
    periodic_load(spec, nodes)
}

const FABRIC_NODES: u32 = 24;
const FABRIC_SHARDS: u32 = 64;
const FABRIC_REPLICAS: u32 = 3;

fn fabric_horizon(quick: bool) -> Duration {
    if quick {
        ms(15)
    } else {
        ms(40)
    }
}

pub(crate) fn fabric_classes() -> [LoadClass; 3] {
    [
        LoadClass::new("browse", 700_000, Duration::from_secs(15)),
        LoadClass::new("checkout", 200_000, Duration::from_secs(8)).arrival(Arrival::Bursty {
            on: ms(4),
            off: ms(6),
        }),
        LoadClass::new("api", 100_000, Duration::from_secs(2))
            .arrival(Arrival::Ramp { from_permille: 300 }),
    ]
}

/// The fabric's inputs as the harness derives them from the seed: the
/// per-shard admitted request counts (the routing oracle) and the crash
/// that lands in the middle of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FabricInputs {
    /// Requests each shard admits inside the horizon.
    routed: Vec<u64>,
    /// Placement whose leader crashes.
    victim: u32,
    /// The crash instant.
    crash_at: Time,
}

fn fabric_base(seed: u64, quick: bool) -> FabricSpec {
    fabric_classes()
        .into_iter()
        .fold(FabricSpec::new(FABRIC_NODES, FABRIC_SHARDS), |s, c| {
            s.class(c)
        })
        .horizon(fabric_horizon(quick))
        .seed(seed)
}

/// Replays what `FabricSpec::run` does with its load classes — one
/// `PopulationWorkload` per class, routed by `shard_of`, colliding
/// arrivals pushed 250 µs apart — through the public generators, then
/// picks as crash victim the leader serving the request submitted
/// nearest to 10.185 ms and crashes it 65 µs into that request. The
/// per-shard counts double as the routing check of every repetition.
fn fabric_inputs(seed: u64, quick: bool) -> FabricInputs {
    let horizon = fabric_horizon(quick);
    let min_gap = us(250);
    let router = fabric_base(seed, quick).router();
    let mut per_shard: Vec<Vec<Time>> = vec![Vec::new(); FABRIC_SHARDS as usize];
    for (ci, class) in fabric_classes().into_iter().enumerate() {
        let stream = PopulationWorkload::new(class, mix64(seed ^ (ci as u64 + 1)));
        for (at, key) in stream.events(horizon) {
            per_shard[router.shard_of(key) as usize].push(at);
        }
    }
    let end = Time::ZERO + horizon;
    let aim = Time::ZERO + us(10_185);
    let mut routed = Vec::with_capacity(per_shard.len());
    let mut best: Option<(u64, u32, Time)> = None;
    for (shard, times) in per_shard.iter_mut().enumerate() {
        times.sort_unstable();
        let mut next_free = Time::ZERO;
        let mut admitted = 0;
        for &at in times.iter() {
            let at = at.max(next_free);
            if at >= end {
                break;
            }
            admitted += 1;
            next_free = at + min_gap;
            let miss = at.as_nanos().abs_diff(aim.as_nanos());
            if best.is_none_or(|(m, _, _)| miss < m) {
                best = Some((miss, router.home(shard as u32), at));
            }
        }
        routed.push(admitted);
    }
    let (_, victim, submitted) = best.expect("the fabric load classes generate requests");
    FabricInputs {
        routed,
        victim,
        crash_at: submitted + us(65),
    }
}

fn fabric_spec(seed: u64, quick: bool, inputs: &FabricInputs) -> FabricSpec {
    let leader = NodeId(inputs.victim * FABRIC_REPLICAS);
    fabric_base(seed, quick).scenario(ScenarioPlan::new().crash(leader, inputs.crash_at))
}

const CHAOS_NODES: u32 = 8;
const CHAOS_HORIZON: Duration = Duration::from_millis(100);

fn chaos_programs(quick: bool) -> usize {
    if quick {
        15
    } else {
        150
    }
}

fn chaos_fuzzer(seed: u64) -> ChaosFuzzer {
    let cfg = FuzzConfig {
        nodes: CHAOS_NODES,
        horizon: CHAOS_HORIZON,
        spec_seed: seed,
        ..FuzzConfig::default()
    };
    ChaosFuzzer::standard(cfg, seed)
}

fn chaos_generate(seed: u64, quick: bool) -> Vec<ChaosProgram> {
    let mut fuzzer = chaos_fuzzer(seed);
    (0..chaos_programs(quick))
        .map(|_| fuzzer.generate())
        .collect()
}

/// What `ChaosFuzzer::violations_of` runs, keeping the whole
/// `ClusterRun` instead of only its violations.
fn chaos_spec(seed: u64, program: &ChaosProgram) -> ClusterSpec {
    standard_spec(CHAOS_NODES, CHAOS_HORIZON, seed)
        .monitors(Watchdog::standard())
        .driver(Box::new(ProgramDriver::new(program.clone())))
}

/// The simulated-time metrics of one repetition: what the modelled
/// deployment did, a pure function of `(spec, seed)`. Times are in
/// ticks (1 tick = 1 ns of simulated time).
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Merged client responses behind the percentiles.
    pub samples: u64,
    /// Median submission → first output latency.
    pub response_p50: u64,
    /// 99th percentile of the same.
    pub response_p99: u64,
    /// Longest submission → output latency over all runs.
    pub worst_response: u64,
    /// Share of submitted requests answered within `Δ + δmax`.
    pub on_time_share: f64,
    /// Share of activated task instances that met their deadline.
    pub deadline_met_share: f64,
    /// On-time outputs per simulated second.
    pub goodput_rps: f64,
    /// Detection bound minus the worst crash → suspicion latency (the
    /// whole bound without a crash; median over the runs of a sweep).
    pub detect_slack: u64,
    /// Rejoin bound minus the worst restart → re-admission latency
    /// (likewise).
    pub rejoin_slack: u64,
    /// Worst crash → suspicion latency over all runs, 0 without a crash.
    pub detect_worst: u64,
    /// Worst rejoin latency over all runs, 0 without a rejoin.
    pub rejoin_worst: u64,
}

/// Accumulates cluster reports into [`SimMetrics`].
#[derive(Debug, Default)]
struct Fold {
    responses: Vec<u64>,
    submitted: u64,
    late: u64,
    on_time: u64,
    instances: u64,
    misses: u64,
    horizon_ns: u64,
    worst: u64,
    detect_slack: Vec<u64>,
    rejoin_slack: Vec<u64>,
    detect_worst: u64,
    rejoin_worst: u64,
}

impl Fold {
    fn add(&mut self, report: &ClusterReport) {
        for g in &report.groups {
            self.responses.extend_from_slice(&g.response_ns);
            self.submitted += g.submitted;
            self.late += g.delayed_outputs + g.abandoned;
            self.on_time += g.on_time_outputs;
        }
        for n in &report.node_reports {
            self.instances += n.app_instances + n.middleware_instances;
            self.misses += n.app_misses + n.middleware_misses;
        }
        self.horizon_ns += report.finished_at.as_nanos();
        let nanos = |d: Option<Duration>| d.map_or(0, Duration::as_nanos);
        let worst = report.groups.iter().map(|g| nanos(g.worst_latency)).max();
        self.worst = self.worst.max(worst.unwrap_or(0));
        let detect = nanos(report.worst_detection_latency());
        let rejoin = nanos(report.worst_rejoin_latency());
        self.detect_slack
            .push(report.detection_bound.as_nanos().saturating_sub(detect));
        self.rejoin_slack
            .push(report.rejoin_bound.as_nanos().saturating_sub(rejoin));
        self.detect_worst = self.detect_worst.max(detect);
        self.rejoin_worst = self.rejoin_worst.max(rejoin);
    }

    fn finish(mut self) -> SimMetrics {
        self.responses.sort_unstable();
        let share = |bad: u64, all: u64| 1.0 - bad as f64 / all.max(1) as f64;
        SimMetrics {
            samples: self.responses.len() as u64,
            response_p50: percentile(&self.responses, 500),
            response_p99: percentile(&self.responses, 990),
            worst_response: self.worst,
            on_time_share: share(self.late, self.submitted),
            deadline_met_share: share(self.misses, self.instances),
            goodput_rps: self.on_time as f64 * 1e9 / self.horizon_ns.max(1) as f64,
            detect_slack: median_u64(&mut self.detect_slack),
            rejoin_slack: median_u64(&mut self.rejoin_slack),
            detect_worst: self.detect_worst,
            rejoin_worst: self.rejoin_worst,
        }
    }
}

/// What the library exports about a traced run, summed over the runs of
/// a sweep (the queue depth is their maximum).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceParts {
    /// Engine events delivered.
    pub events: u64,
    /// Messages pushed into the shared network.
    pub messages: u64,
    /// Heartbeat copies the network accepted.
    pub heartbeats: u64,
    /// Engine queue depth high-water mark.
    pub queue_depth_peak: u64,
    /// Dispatcher context switches.
    pub ctx_switches: u64,
    /// Wall ns inside the engine run loop (`engine.wall_ns`).
    pub engine_loop_ns: u64,
    /// Wall ns in `actor.*` event handlers (mux + services).
    pub handlers_actor_ns: u64,
    /// Wall ns in the dispatcher's own event handlers (+ policy).
    pub handlers_dispatch_ns: u64,
}

/// The observers of a traced run.
#[derive(Debug, Clone)]
struct Observers {
    registry: Registry,
    profiler: Profiler,
}

impl Observers {
    fn enabled() -> Self {
        Observers {
            registry: Registry::enabled(),
            profiler: Profiler::enabled(),
        }
    }

    /// Folds what these observers saw of one run into `parts`.
    fn collect(&self, report: &ClusterReport, parts: &mut TraceParts) {
        let snap = self.registry.snapshot();
        parts.events += snap.counter("engine.events").unwrap_or(0);
        parts.messages += report.network.sent;
        parts.heartbeats += snap.counter("agents.heartbeats_sent").unwrap_or(0);
        let depth = snap.gauge("engine.queue_depth_peak").unwrap_or(0);
        parts.queue_depth_peak = parts.queue_depth_peak.max(depth);
        parts.ctx_switches += snap.counter("dispatch.ctx_switches").unwrap_or(0);
        parts.engine_loop_ns += self.registry.volatile("engine.wall_ns").unwrap_or(0);
        for (kind, ns) in self.profiler.wall_totals() {
            if kind.starts_with("actor.") {
                parts.handlers_actor_ns += ns;
            } else {
                parts.handlers_dispatch_ns += ns;
            }
        }
    }
}

/// One repetition of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Repetition {
    /// FNV-1a of the `Debug` rendering of every report, event stream and
    /// violation list the repetition produced.
    pub digest: u64,
    /// Simulated-time metrics.
    pub sim: SimMetrics,
    /// The workload's own correctness check.
    pub check: Result<(), String>,
    /// Host time inside each library `run()` call, in call order (one
    /// entry, or one per program of a sweep).
    pub run_walls: Vec<std::time::Duration>,
    /// Library-side trace exports (traced repetitions only).
    pub parts: Option<TraceParts>,
    /// Runs on which the watchdog raised a violation (sweeps only).
    pub violating_runs: u64,
}

/// Everything a repetition accumulates over its runs.
#[derive(Debug, Default)]
struct Accumulator {
    fold: Fold,
    digest: Fnv,
    parts: Option<TraceParts>,
    run_walls: Vec<std::time::Duration>,
}

impl Accumulator {
    /// One cluster run — build → (validate) → run — folded and digested.
    /// With an enabled recorder the run is the traced one: observers are
    /// attached, an explicit `validate()` is spanned, and the library's
    /// trace exports are collected.
    fn cluster_run(
        &mut self,
        build: impl FnOnce() -> ClusterSpec,
        spans: &mut Spans,
    ) -> ClusterRun {
        let mut spec = spans.scope("build_spec", |_| build());
        let observers = spans.is_enabled().then(Observers::enabled);
        if let Some(o) = &observers {
            spec = spec
                .telemetry(o.registry.clone())
                .profile(o.profiler.clone());
            spans.scope("validate", |_| {
                spec.validate().expect("benchmark spec validates")
            });
        }
        let (elapsed, run) =
            spans.scope("run", |_| time(|| spec.run().expect("benchmark spec runs")));
        self.run_walls.push(elapsed);
        self.fold.add(run.report());
        self.digest.debug(run.report());
        self.digest.debug(&run.events());
        self.digest.debug(&run.violations());
        if let Some(o) = &observers {
            o.collect(
                run.report(),
                self.parts.get_or_insert_with(TraceParts::default),
            );
        }
        run
    }
}

impl Repetition {
    /// Host time inside the library's `run()` calls, summed.
    pub fn wall(&self) -> std::time::Duration {
        self.run_walls.iter().sum()
    }

    /// Library runs made (1, or the programs of a sweep).
    pub fn runs(&self) -> u64 {
        self.run_walls.len() as u64
    }
}

/// A workload with its inputs generated from the seed.
#[derive(Debug)]
pub struct Prepared {
    kind: Kind,
    seed: u64,
    quick: bool,
    fabric: Option<FabricInputs>,
    programs: Vec<ChaosProgram>,
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

impl Prepared {
    /// The workload's set-up, the thing `setup_s` times: generate the
    /// inputs from the seed, build the spec from its parameters and
    /// validate it.
    ///
    /// # Panics
    ///
    /// Panics if a spec this file builds fails validation.
    pub fn setup(kind: Kind, seed: u64, quick: bool) -> Prepared {
        let mut prepared = Prepared {
            kind,
            seed,
            quick,
            fabric: None,
            programs: Vec::new(),
        };
        match kind {
            Kind::EdfSteady24 | Kind::RmSteady24 | Kind::Failover96 => {
                prepared
                    .cluster_spec()
                    .validate()
                    .expect("benchmark spec validates");
            }
            Kind::Fabric1m => {
                let inputs = fabric_inputs(seed, quick);
                std::hint::black_box(fabric_spec(seed, quick, &inputs).router());
                prepared.fabric = Some(inputs);
            }
            Kind::ChaosSweep8 => {
                prepared.programs = chaos_generate(seed, quick);
            }
        }
        prepared
    }

    fn cluster_spec(&self) -> ClusterSpec {
        match self.kind {
            Kind::EdfSteady24 => steady_spec(Policy::Edf, self.seed, self.quick),
            Kind::RmSteady24 => steady_spec(Policy::RateMonotonic, self.seed, self.quick),
            Kind::Failover96 => failover_spec(96, FAILOVER_GROUPS, self.seed, self.quick),
            Kind::Fabric1m | Kind::ChaosSweep8 => unreachable!("not a single-cluster workload"),
        }
    }

    /// Runs one repetition, observers off unless `spans` records (see
    /// [`Accumulator::cluster_run`]; the traced fabric takes a registry
    /// only — `FabricSpec` has no `.profile()`).
    ///
    /// # Panics
    ///
    /// Panics if the library rejects a spec this file builds.
    pub fn repeat(&self, spans: &mut Spans) -> Repetition {
        let mut acc = Accumulator::default();
        let mut violating_runs = 0;
        let check = match self.kind {
            Kind::EdfSteady24 | Kind::RmSteady24 | Kind::Failover96 => {
                let run = acc.cluster_run(|| self.cluster_spec(), spans);
                self.check_cluster(run.report())
            }
            Kind::Fabric1m => {
                let inputs = self.fabric.as_ref().expect("set-up generated the inputs");
                let mut spec =
                    spans.scope("build_spec", |_| fabric_spec(self.seed, self.quick, inputs));
                let observers = spans.is_enabled().then(|| Observers {
                    registry: Registry::enabled(),
                    profiler: Profiler::disabled(),
                });
                if let Some(o) = &observers {
                    spec = spec.telemetry(o.registry.clone());
                }
                let (elapsed, run) = spans.scope("run", |_| {
                    time(|| spec.run().expect("benchmark fabric runs"))
                });
                acc.run_walls.push(elapsed);
                acc.fold.add(run.cluster.report());
                acc.digest.debug(&run.report);
                acc.digest.debug(run.cluster.report());
                acc.digest.debug(&run.cluster.events());
                if let Some(o) = &observers {
                    let parts = acc.parts.get_or_insert_with(TraceParts::default);
                    o.collect(run.cluster.report(), parts);
                }
                check_fabric(inputs, &run)
            }
            Kind::ChaosSweep8 => {
                let mut check = Ok(());
                for (i, program) in self.programs.iter().enumerate() {
                    let run = spans.scope("program", |spans| {
                        acc.cluster_run(|| chaos_spec(self.seed, program), spans)
                    });
                    violating_runs += u64::from(!run.violations().is_empty());
                    if check.is_ok() {
                        let end = Time::ZERO + CHAOS_HORIZON;
                        check = ensure(run.report().finished_at <= end, || {
                            format!("program {i} ran past its horizon")
                        });
                    }
                }
                check
            }
        };
        let sim = acc.fold.finish();
        let check = check.and_then(|()| {
            ensure(self.quick || sim.samples >= 1000, || {
                format!("{} responses, p99 needs 1000", sim.samples)
            })
        });
        Repetition {
            digest: acc.digest.finish(),
            sim,
            check,
            run_walls: acc.run_walls,
            parts: acc.parts,
            violating_runs,
        }
    }

    /// Cross-checks the sweep's hand-built spec against the fuzzer's own
    /// `violations_of` on the first programs: both must raise the same
    /// violations. Trivially fine for the other workloads.
    pub fn cross_check(&self) -> Result<(), String> {
        if self.kind != Kind::ChaosSweep8 {
            return Ok(());
        }
        let fuzzer = chaos_fuzzer(self.seed);
        for (i, program) in self.programs.iter().take(5).enumerate() {
            let run = chaos_spec(self.seed, program)
                .run()
                .expect("benchmark spec runs");
            ensure(run.violations() == fuzzer.violations_of(program), || {
                format!("program {i}: violations differ from ChaosFuzzer::violations_of")
            })?;
        }
        Ok(())
    }

    fn check_cluster(&self, report: &ClusterReport) -> Result<(), String> {
        ensure(report.views_agree, || "views disagree".into())?;
        ensure(report.no_false_suspicions(), || "false suspicion".into())?;
        for g in &report.groups {
            ensure(g.order_agreement && g.order_consistent, || {
                format!("group {}: delivery orders disagree", g.group)
            })?;
        }
        if self.kind == Kind::Failover96 {
            ensure(report.detection_within_bound(), || {
                "detection beyond its bound".into()
            })?;
            ensure(report.rejoin_within_bound(), || {
                format!(
                    "{} of {} rejoins completed within the bound",
                    report.recoveries.len(),
                    report.scripted_rejoins
                )
            })?;
            let slots = failover_slots(self.quick) as usize;
            ensure(
                report.groups[..slots]
                    .iter()
                    .all(|g| !g.handoffs.is_empty()),
                || "a crashed leader was not replaced".into(),
            )
        } else {
            ensure(report.detections.is_empty(), || {
                "suspicion without a fault".into()
            })?;
            ensure(report.all_deadlines_met(), || "deadline missed".into())?;
            for g in &report.groups {
                ensure(
                    g.abandoned == 0 && g.delayed_outputs == 0 && g.duplicate_outputs == 0,
                    || format!("group {}: late, abandoned or duplicate output", g.group),
                )?;
            }
            Ok(())
        }
    }
}

/// The fabric moved exactly the crashed placement's shards, routed what
/// the harness's own replay of the generators says it must on every
/// untouched shard, and kept agreement.
fn check_fabric(inputs: &FabricInputs, run: &hades_fabric::FabricRun) -> Result<(), String> {
    let report = &run.report;
    ensure(run.cluster.report().views_agree, || "views disagree".into())?;
    let mut moved: Vec<u32> = report.moves.iter().map(|m| m.shard).collect();
    moved.sort_unstable();
    let homed: Vec<u32> = report
        .per_shard
        .iter()
        .filter(|s| s.home == inputs.victim)
        .map(|s| s.shard)
        .collect();
    ensure(moved == homed, || {
        format!("moved shards {moved:?}, crashed placement homes {homed:?}")
    })?;
    for s in &report.per_shard {
        let expected = inputs.routed[s.shard as usize];
        ensure(s.home == inputs.victim || s.routed == expected, || {
            format!(
                "shard {}: routed {}, generators give {expected}",
                s.shard, s.routed
            )
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_leader_crashes_land_mid_request() {
        let cycle = (THINK + RESPONSE).as_nanos();
        for k in 0..3u64 {
            let base = ms(8 + 20 * k).as_nanos();
            let submitted = FIRST_REQUEST.as_nanos()
                + (base - FIRST_REQUEST.as_nanos()).div_ceil(cycle) * cycle;
            assert!(submitted >= base && submitted < base + cycle);
            assert_eq!((submitted - FIRST_REQUEST.as_nanos()) % cycle, 0);
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(fabric_inputs(7, true), fabric_inputs(7, true));
        assert_ne!(fabric_inputs(7, true), fabric_inputs(8, true));
        assert_eq!(chaos_generate(7, true), chaos_generate(7, true));
        assert_ne!(chaos_generate(7, true), chaos_generate(8, true));
    }
}
