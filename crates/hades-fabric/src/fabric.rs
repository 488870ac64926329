//! Fabric assembly: spec builder, run, and the per-shard report.
//!
//! [`FabricSpec`] turns a fabric shape — node count, shard count, load
//! classes — into a plain [`ClusterSpec`]: per shard, a primary
//! replicated group on the shard's home placement and a *standby* group
//! on its ring-successor placement (paused at rate zero until a move
//! admits it), plus one [`FabricDirector`] driving the rebalance. The
//! cluster runtime stays completely fabric-unaware; everything the
//! fabric adds is expressed through existing spec surface.
//!
//! After the run, the fold in [`FabricSpec::run`] grades the outcome
//! into a [`FabricReport`]: per-shard and aggregate response-latency
//! percentiles against the analytic `Δ + δmax` output bound, routed /
//! moved / dropped request counts, and the shard moves the director
//! actuated — also recorded as the `fabric.*` telemetry family.

use std::fmt;

use hades_cluster::{
    ClusterRun, ClusterSpec, GroupLoad, ScenarioPlan, ServiceSpec, SpecError, TraceReplay,
};
use hades_services::ReplicaStyle;
use hades_telemetry::{fabric as metrics, HistogramSummary, MetricsSnapshot, Profiler, Registry};
use hades_time::{Duration, Time};

use crate::director::FabricDirector;
use crate::ring::{mix64, HashRing, ShardRouter};
use crate::workload::{LoadClass, PopulationWorkload};

/// Why a fabric could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The fabric was asked for zero shards: no key would have a shard.
    NoShards,
    /// Placements were asked for zero replicas each.
    NoReplicas,
    /// The node count does not yield at least two full placements of
    /// `replicas` nodes — with a single placement there is nowhere to
    /// move a shard.
    TooFewPlacements {
        /// Nodes requested.
        nodes: u32,
        /// Replicas per placement requested.
        replicas: u32,
    },
    /// No load class was registered — the fabric would be idle.
    NoClasses,
    /// A load class has no clients, no think time, or a `Bursty`
    /// cycle of zero length ([`LoadClass::is_valid`]).
    InvalidLoadClass {
        /// The class's name.
        name: String,
    },
    /// The ring was asked for zero virtual nodes per placement, so no
    /// key would have a placement to land on.
    NoVirtualNodes,
    /// The per-shard request separation floor is zero, so a shard's
    /// peak admission rate would be unbounded.
    NoMinGap,
    /// The lowered [`ClusterSpec`] failed validation.
    Cluster(SpecError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::NoShards => write!(f, "a fabric needs at least one shard"),
            FabricError::NoReplicas => write!(f, "placements need at least one replica"),
            FabricError::TooFewPlacements { nodes, replicas } => write!(
                f,
                "{nodes} nodes yield fewer than two placements of {replicas} replicas"
            ),
            FabricError::NoClasses => write!(f, "a fabric needs at least one load class"),
            FabricError::InvalidLoadClass { name } => write!(
                f,
                "load class {name:?} needs a client, a positive think time and a non-empty burst cycle"
            ),
            FabricError::NoVirtualNodes => {
                write!(
                    f,
                    "a fabric's ring needs at least one virtual node per placement"
                )
            }
            FabricError::NoMinGap => write!(f, "the separation floor must be positive"),
            FabricError::Cluster(e) => write!(f, "lowered cluster spec rejected: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<SpecError> for FabricError {
    fn from(e: SpecError) -> Self {
        FabricError::Cluster(e)
    }
}

/// Builder for a sharded service fabric over the cluster runtime.
///
/// # Examples
///
/// ```
/// use hades_fabric::{FabricSpec, LoadClass};
/// use hades_time::Duration;
///
/// let run = FabricSpec::new(6, 8)
///     .class(LoadClass::new("web", 50_000, Duration::from_secs(5)))
///     .horizon(Duration::from_millis(10))
///     .seed(7)
///     .run()
///     .expect("fabric runs");
/// assert_eq!(run.report.per_shard.len(), 8);
/// assert_eq!(run.report.totals.routed,
///            run.report.per_shard.iter().map(|s| s.routed).sum::<u64>());
/// ```
#[derive(Debug)]
pub struct FabricSpec {
    nodes: u32,
    shards: u32,
    replicas: u32,
    vnodes: u32,
    classes: Vec<LoadClass>,
    horizon: Duration,
    seed: u64,
    style: ReplicaStyle,
    load: GroupLoad,
    plan: ScenarioPlan,
    registry: Registry,
    profile: Profiler,
    min_gap: Duration,
}

impl FabricSpec {
    /// A fabric of `shards` shards over `nodes` nodes, with 3-node
    /// placements, 16 virtual ring nodes, a 30 ms horizon, semi-active
    /// replication and a light per-request cost (10 µs execute, 2 µs
    /// follower ordering) tuned for population-scale request counts.
    pub fn new(nodes: u32, shards: u32) -> Self {
        FabricSpec {
            nodes,
            shards,
            replicas: 3,
            vnodes: 16,
            classes: Vec::new(),
            horizon: Duration::from_millis(30),
            seed: 0,
            style: ReplicaStyle::SemiActive,
            load: GroupLoad {
                request_wcet: Duration::from_micros(10),
                order_wcet: Duration::from_micros(2),
                attempts: 1,
                ..GroupLoad::default()
            },
            plan: ScenarioPlan::new(),
            registry: Registry::default(),
            profile: Profiler::disabled(),
            min_gap: Duration::from_micros(250),
        }
    }

    /// Adds one population load class.
    pub fn class(mut self, class: LoadClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Sets the replicas per placement (default 3).
    pub fn replicas(mut self, replicas: u32) -> Self {
        self.replicas = replicas;
        self
    }

    /// Sets the virtual ring nodes per placement (default 16).
    pub fn vnodes(mut self, vnodes: u32) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Sets the simulation horizon (default 30 ms).
    pub fn horizon(mut self, horizon: Duration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the run seed (workload synthesis and cluster randomness).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the replication style of every shard group.
    pub fn style(mut self, style: ReplicaStyle) -> Self {
        self.style = style;
        self
    }

    /// Overrides the per-request group cost model.
    pub fn load(mut self, load: GroupLoad) -> Self {
        self.load = load;
        self
    }

    /// Injects a fault scenario (crashes, restarts, partitions).
    pub fn scenario(mut self, plan: ScenarioPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Attaches a metrics registry; the fabric records the `fabric.*`
    /// family into it after the run, next to the cluster's own metrics.
    pub fn telemetry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Attaches a [`Profiler`] to the lowered cluster
    /// ([`ClusterSpec::profile`]): `run.cluster.profile()` then holds the
    /// fabric's engine work by event kind and by actor, and
    /// [`Profiler::wall_totals`] the host time each kind's handlers took.
    pub fn profile(mut self, profiler: Profiler) -> Self {
        self.profile = profiler;
        self
    }

    /// Sets the per-shard minimum request separation (default 250 µs).
    ///
    /// Colliding arrivals from different classes are pushed apart so a
    /// shard's peak admission rate stays bounded. The floor matters for
    /// engine cost, not just analysis: every group member runs a
    /// periodic admission cost task at the shard's peak rate, so a
    /// microsecond-scale floor would flood the dispatcher with
    /// millions of releases across a hundred-group fabric.
    pub fn min_gap(mut self, min_gap: Duration) -> Self {
        self.min_gap = min_gap;
        self
    }

    /// The router this fabric shape induces (pure function of the
    /// shape — rebuildable anywhere).
    ///
    /// # Panics
    ///
    /// Panics if the shape has zero shards, zero replicas, zero
    /// placements (fewer nodes than replicas) or zero virtual nodes;
    /// [`FabricSpec::run`] reports each as a [`FabricError`] instead.
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(
            self.shards,
            HashRing::new(self.nodes / self.replicas, self.vnodes),
        )
    }

    /// Assembles the fabric, runs it, and folds the per-shard report.
    pub fn run(self) -> Result<FabricRun, FabricError> {
        if self.shards == 0 {
            return Err(FabricError::NoShards);
        }
        if self.replicas == 0 {
            return Err(FabricError::NoReplicas);
        }
        let placements_n = self.nodes / self.replicas;
        if placements_n < 2 {
            return Err(FabricError::TooFewPlacements {
                nodes: self.nodes,
                replicas: self.replicas,
            });
        }
        if self.classes.is_empty() {
            return Err(FabricError::NoClasses);
        }
        if self.vnodes == 0 {
            return Err(FabricError::NoVirtualNodes);
        }
        if self.min_gap.is_zero() {
            return Err(FabricError::NoMinGap);
        }
        if let Some(class) = self.classes.iter().find(|c| !c.is_valid()) {
            return Err(FabricError::InvalidLoadClass {
                name: class.name.clone(),
            });
        }
        let router = self.router();

        // Materialize each class's aggregate stream and route every
        // request to its shard, then push colliding arrivals apart so a
        // shard's trace keeps a bounded peak rate.
        let clients: u64 = self.classes.iter().map(|c| c.clients).sum();
        let mut per_shard: Vec<Vec<Time>> = vec![Vec::new(); self.shards as usize];
        for (ci, class) in self.classes.iter().enumerate() {
            let stream = PopulationWorkload::new(class.clone(), mix64(self.seed ^ (ci as u64 + 1)));
            for (at, key) in stream.events(self.horizon) {
                per_shard[router.shard_of(key) as usize].push(at);
            }
        }
        let end = Time::ZERO + self.horizon;
        for times in &mut per_shard {
            times.sort_unstable();
            let mut next_free = Time::ZERO;
            times.retain_mut(|at| {
                *at = (*at).max(next_free);
                next_free = *at + self.min_gap;
                *at < end
            });
        }

        // One primary group on the home placement, one paused standby
        // group on the ring successor — both driven by the same trace,
        // so an admitted standby resumes the shard's nominal stream.
        let placements: Vec<Vec<u32>> = (0..placements_n)
            .map(|p| (p * self.replicas..(p + 1) * self.replicas).collect())
            .collect();
        let mut spec = ClusterSpec::new(self.nodes)
            .seed(self.seed)
            .horizon(self.horizon)
            .scenario(self.plan.clone())
            .driver(Box::new(FabricDirector::new(&router, placements.clone())))
            .telemetry(self.registry.clone())
            .profile(self.profile.clone());
        for (s, times) in (0..).zip(per_shard) {
            let trace = TraceReplay::new(times);
            spec = spec
                .service(
                    ServiceSpec::replicated(
                        format!("shard-{s}"),
                        self.style,
                        placements[router.home(s) as usize].clone(),
                        self.load,
                    )
                    .workload(Box::new(trace.clone())),
                )
                .service(
                    ServiceSpec::replicated(
                        format!("shard-{s}~alt"),
                        self.style,
                        placements[router.standby(s) as usize].clone(),
                        self.load,
                    )
                    .workload(Box::new(trace))
                    .standby(),
                );
        }

        let cluster = spec.run()?;
        let (report, samples) = fold_report(&cluster, &router, clients, self.shards);
        record_metrics(&self.registry, &report, &samples);
        let metrics = self.registry.snapshot();
        Ok(FabricRun {
            cluster,
            report,
            metrics,
        })
    }
}

/// One shard ownership move the director actuated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// The shard.
    pub shard: u32,
    /// Placement it was homed on.
    pub from: u32,
    /// Placement it moved to.
    pub to: u32,
    /// When the move was applied.
    pub at: Time,
}

/// Per-shard outcome: routing counts and response-latency percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard.
    pub shard: u32,
    /// Home (initial) placement.
    pub home: u32,
    /// Requests stamped with this shard and admitted by a serving group
    /// (primary before a move, standby after).
    pub routed: u64,
    /// Requests served by the standby placement after a move.
    pub moved: u64,
    /// Requests submitted to a placement that was retired before
    /// answering — the migration window's losses.
    pub dropped: u64,
    /// Outputs within the analytic `Δ + δmax` bound.
    pub on_time: u64,
    /// Outputs beyond the bound.
    pub delayed: u64,
    /// Response-latency summary (p50/p95/p99/p999, nanoseconds), `None`
    /// for a shard that produced no outputs.
    pub latency: Option<HistogramSummary>,
}

/// Fabric-wide totals — the same fields as [`ShardStats`], merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricTotals {
    /// Requests admitted across every shard.
    pub routed: u64,
    /// Requests served post-move across every shard.
    pub moved: u64,
    /// Requests lost in migration windows.
    pub dropped: u64,
    /// Outputs within the bound.
    pub on_time: u64,
    /// Outputs beyond the bound.
    pub delayed: u64,
    /// Latency summary over every shard's merged samples.
    pub latency: Option<HistogramSummary>,
}

/// What a fabric run produced, per shard and in aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricReport {
    /// Shards the keyspace was split into.
    pub shards: u32,
    /// Simulated client population (sum of class multipliers).
    pub clients: u64,
    /// The analytic client-visible output bound `Δ + δmax` every
    /// latency figure is graded against.
    pub output_bound: Duration,
    /// Fabric-wide merged totals.
    pub totals: FabricTotals,
    /// Per-shard outcomes, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Shard moves the director actuated, in application order.
    pub moves: Vec<ShardMove>,
}

/// What `FabricSpec::run` hands back: the raw cluster run, the folded
/// fabric report, and the post-fold metrics snapshot (cluster metrics
/// plus the `fabric.*` family).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricRun {
    /// The underlying cluster run (events, group reports, telemetry).
    pub cluster: ClusterRun,
    /// The per-shard fabric report.
    pub report: FabricReport,
    /// Metrics snapshot including the `fabric.*` family.
    pub metrics: MetricsSnapshot,
}

/// Folds the cluster run into the fabric report plus the merged
/// latency samples (for the `fabric.response_ns` histogram). Shard
/// `s`'s primary group is replicated-service index `2s`, its standby
/// `2s + 1` — the registration order `FabricSpec::run` used.
fn fold_report(
    cluster: &ClusterRun,
    router: &ShardRouter,
    clients: u64,
    shards: u32,
) -> (FabricReport, Vec<u64>) {
    let groups = &cluster.report().groups;
    debug_assert_eq!(groups.len(), 2 * shards as usize);
    let moves: Vec<ShardMove> = cluster
        .events()
        .iter()
        .filter_map(|e| match e {
            hades_cluster::ClusterEvent::ShardMoved {
                shard,
                from,
                to,
                at,
            } => Some(ShardMove {
                shard: *shard,
                from: *from,
                to: *to,
                at: *at,
            }),
            _ => None,
        })
        .collect();
    let moved_shards: std::collections::BTreeSet<u32> = moves.iter().map(|m| m.shard).collect();

    let mut per_shard = Vec::with_capacity(shards as usize);
    let mut all_samples: Vec<u64> = Vec::new();
    for s in 0..shards {
        let primary = &groups[2 * s as usize];
        let alt = &groups[2 * s as usize + 1];
        let mut samples: Vec<u64> = primary
            .response_ns
            .iter()
            .chain(alt.response_ns.iter())
            .copied()
            .collect();
        samples.sort_unstable();
        all_samples.extend_from_slice(&samples);
        per_shard.push(ShardStats {
            shard: s,
            home: router.home(s),
            routed: primary.submitted + alt.submitted,
            moved: alt.submitted,
            dropped: if moved_shards.contains(&s) {
                primary.submitted.saturating_sub(primary.outputs)
            } else {
                0
            },
            on_time: primary.on_time_outputs + alt.on_time_outputs,
            delayed: primary.delayed_outputs + alt.delayed_outputs,
            latency: HistogramSummary::of(&samples),
        });
    }
    let totals = FabricTotals {
        routed: per_shard.iter().map(|s| s.routed).sum(),
        moved: per_shard.iter().map(|s| s.moved).sum(),
        dropped: per_shard.iter().map(|s| s.dropped).sum(),
        on_time: per_shard.iter().map(|s| s.on_time).sum(),
        delayed: per_shard.iter().map(|s| s.delayed).sum(),
        latency: HistogramSummary::of(&all_samples),
    };
    let report = FabricReport {
        shards,
        clients,
        output_bound: groups
            .first()
            .map(|g| g.output_bound)
            .unwrap_or(Duration::ZERO),
        totals,
        per_shard,
        moves,
    };
    (report, all_samples)
}

/// Records the report as the `fabric.*` metrics family.
fn record_metrics(registry: &Registry, report: &FabricReport, samples: &[u64]) {
    registry.gauge(metrics::SHARDS).set(report.shards as u64);
    registry.gauge(metrics::CLIENTS).set(report.clients);
    registry
        .counter(metrics::REQUESTS_ROUTED)
        .add(report.totals.routed);
    registry
        .counter(metrics::REQUESTS_MOVED)
        .add(report.totals.moved);
    registry
        .counter(metrics::REQUESTS_DROPPED)
        .add(report.totals.dropped);
    registry
        .counter(metrics::SHARDS_MOVED)
        .add(report.moves.len() as u64);
    let hist = registry.histogram(metrics::RESPONSE_NS);
    for v in samples {
        hist.record(*v);
    }
}
