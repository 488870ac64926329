//! Middleware activities as cost-charged periodic tasks.
//!
//! The paper's second pillar: every middleware activity has a known
//! worst-case execution time that the feasibility tests fold in. The
//! cluster runtime therefore injects, on **every** node, a HEUG task per
//! recurring middleware activity — heartbeat emission and timeout
//! checking, a clock
//! resynchronization round, a replication checkpoint write — so their CPU
//! demand is charged by the dispatcher in virtual time *and* appears in
//! the Section 5 analyses exactly like application load.

use hades_services::{AgentConfig, RecoveryConfig, ReplicaStyle};
use hades_sim::{LinkConfig, NodeId};
use hades_task::prelude::*;
use hades_time::{Duration, SyncRound, Time};

/// First task id reserved for injected middleware tasks; application task
/// ids must stay below. The tiers are sized for the deployment-spec
/// node ceiling ([`crate::MAX_CLUSTER_NODES`] nodes × 3 tasks fits
/// between this base and [`RECOVERY_TASK_BASE`]).
pub const MIDDLEWARE_TASK_BASE: u32 = 10_000;

/// Number of middleware tasks injected per node.
pub const MIDDLEWARE_TASKS_PER_NODE: u32 = 3;

/// First task id reserved for per-recovery cost tasks (state-transfer
/// serving on the surviving member, checkpoint install on the joiner).
pub const RECOVERY_TASK_BASE: u32 = 20_000;

/// First task id reserved for per-group replication cost tasks (request
/// execution on the group members admission charges).
pub const GROUP_TASK_BASE: u32 = 30_000;

/// Reserved id stride per replication group: member indices can never
/// collide across groups because membership is bounded by
/// [`crate::MAX_CLUSTER_NODES`].
pub const GROUP_TASK_STRIDE: u32 = 1_024;

/// The client-request workload one replication group serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLoad {
    /// Client request period (one request per period).
    pub request_period: Duration,
    /// WCET of executing one request on a member.
    pub request_wcet: Duration,
    /// Scheduled submission instant of request 0.
    pub first_request_at: Time,
    /// Per-link redundant-transmission budget of the group's multicasts
    /// (masks `attempts − 1` consecutive omissions per copy).
    pub attempts: u32,
    /// WCET of a semi-active follower's order handling per request (the
    /// style-aware admission charge for members that execute under the
    /// leader's decided order instead of at delivery).
    pub order_wcet: Duration,
}

impl Default for GroupLoad {
    /// One 100 µs request per millisecond, starting at 1 ms, single-shot
    /// links, 20 µs follower order handling.
    fn default() -> Self {
        GroupLoad {
            request_period: Duration::from_millis(1),
            request_wcet: Duration::from_micros(100),
            first_request_at: Time::ZERO + Duration::from_millis(1),
            attempts: 1,
            order_wcet: Duration::from_micros(20),
        }
    }
}

/// Configuration of the injected middleware activities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiddlewareConfig {
    /// Heartbeat emission period `H`.
    pub heartbeat_period: Duration,
    /// WCET of one heartbeat round (emission + peer timeout checks).
    pub heartbeat_wcet: Duration,
    /// Clock resynchronization period `P`.
    pub sync_period: Duration,
    /// WCET of one resynchronization round (read clocks + midpoint).
    pub sync_wcet: Duration,
    /// Replication checkpoint period.
    pub checkpoint_period: Duration,
    /// WCET of capturing and shipping one checkpoint.
    pub checkpoint_wcet: Duration,
    /// Clock drift bound ρ in parts per billion (for the precision bound).
    pub drift_ppb: u64,
    /// Lower bound on the precision γ used in detector timeouts.
    pub clock_precision_floor: Duration,
    /// Crash-fault bound `f` for view-change agreement.
    pub f: u32,
    /// Sizing of checkpointed state transfer during rejoins.
    pub recovery: RecoveryConfig,
    /// CPU cost, on the serving member, of shipping one transfer chunk.
    pub transfer_chunk_wcet: Duration,
    /// CPU cost, on the joiner, of installing one received chunk.
    pub install_chunk_wcet: Duration,
    /// Route view-change proposals through the Δ-multicast discipline
    /// instead of the `f + 1`-round flood (see
    /// [`hades_services::AgentConfig::vc_delta_multicast`]).
    pub delta_multicast_vc: bool,
    /// Per-link redundant-transmission budget of the Δ-multicast
    /// view-change transport (see
    /// [`hades_services::AgentConfig::vc_attempts`]): each proposal copy
    /// is retried up to `vc_attempts − 1` extra times on omission, so
    /// the cheap transport also survives lossy links.
    pub vc_attempts: u32,
}

impl Default for MiddlewareConfig {
    /// LAN-scale defaults: 2 ms heartbeats, 10 ms resync, 20 ms
    /// checkpoints, 100 ppm drift, `f = 1`.
    fn default() -> Self {
        MiddlewareConfig {
            heartbeat_period: Duration::from_millis(2),
            heartbeat_wcet: Duration::from_micros(20),
            sync_period: Duration::from_millis(10),
            sync_wcet: Duration::from_micros(50),
            checkpoint_period: Duration::from_millis(20),
            checkpoint_wcet: Duration::from_micros(100),
            drift_ppb: 100_000,
            clock_precision_floor: Duration::from_micros(10),
            f: 1,
            recovery: RecoveryConfig::default(),
            transfer_chunk_wcet: Duration::from_micros(1),
            install_chunk_wcet: Duration::from_micros(1),
            delta_multicast_vc: true,
            vc_attempts: 1,
        }
    }
}

impl MiddlewareConfig {
    /// The steady-state clock precision `γ` achieved by the \[LL88\]
    /// synchronization service over `link` (ε is half the delay
    /// uncertainty), as computed by [`SyncRound::steady_state_precision`],
    /// floored at [`MiddlewareConfig::clock_precision_floor`].
    pub fn clock_precision(&self, link: &LinkConfig) -> Duration {
        let eps = (link.delay_max - link.delay_min) / 2;
        SyncRound::new(eps, self.drift_ppb, self.sync_period)
            .steady_state_precision()
            .max(self.clock_precision_floor)
    }

    /// The Δ of the replicated services' atomic multicast over `link`:
    /// `δmax + γ`.
    pub fn group_delta(&self, link: &LinkConfig) -> Duration {
        link.delay_max + self.clock_precision(link)
    }

    /// The agent configuration installed on `node` of a `nodes`-node
    /// cluster whose links are `link`.
    pub fn agent_config(&self, node: NodeId, nodes: u32, link: &LinkConfig) -> AgentConfig {
        AgentConfig {
            node,
            nodes,
            heartbeat_period: self.heartbeat_period,
            clock_precision: self.clock_precision(link),
            f: self.f,
            recovery: self.recovery,
            vc_delta_multicast: self.delta_multicast_vc,
            vc_attempts: self.vc_attempts,
        }
    }

    /// Builds the three middleware tasks of `node`, with reserved task ids
    /// derived from [`MIDDLEWARE_TASK_BASE`].
    pub fn tasks_for(&self, node: u32) -> Vec<Task> {
        let base = MIDDLEWARE_TASK_BASE + node * MIDDLEWARE_TASKS_PER_NODE;
        let mk = |offset: u32, name: String, wcet: Duration, period: Duration| {
            Task::new(
                TaskId(base + offset),
                Heug::single(CodeEu::new(name, wcet, ProcessorId(node)))
                    .expect("single-unit middleware HEUG"),
                ArrivalLaw::Periodic(period),
                period,
            )
        };
        vec![
            mk(
                0,
                format!("mw.hb@{node}"),
                self.heartbeat_wcet,
                self.heartbeat_period,
            ),
            mk(
                1,
                format!("mw.sync@{node}"),
                self.sync_wcet,
                self.sync_period,
            ),
            mk(
                2,
                format!("mw.ckpt@{node}"),
                self.checkpoint_wcet,
                self.checkpoint_period,
            ),
        ]
    }

    /// Builds the two cost tasks of one scripted recovery (index `k`):
    /// chunk *serving* on `server` and chunk *install* on `joiner`. The
    /// per-chunk CPU cost is aggregated into a 1 ms service tick (a task
    /// period of the raw chunk pacing would drown in per-instance
    /// dispatcher overhead), so one instance carries the cost of every
    /// chunk paced within its period. The cluster runtime windows their
    /// activation to the rejoin interval; the feasibility analyses, which
    /// are stationary, account them as permanent load — a safe
    /// over-approximation of the recovery overhead.
    pub fn recovery_cost_tasks(&self, server: u32, joiner: u32, k: u32) -> Vec<(u32, Task)> {
        let period = Duration::from_millis(1);
        let chunks_per_period =
            (period.as_nanos() / self.recovery.chunk_interval.as_nanos().max(1)).max(1);
        let mk = |id: u32, name: String, node: u32, per_chunk: Duration| {
            Task::new(
                TaskId(id),
                Heug::single(CodeEu::new(
                    name,
                    per_chunk
                        .saturating_mul(chunks_per_period)
                        .max(Duration::from_nanos(1)),
                    ProcessorId(node),
                ))
                .expect("single-unit recovery HEUG"),
                ArrivalLaw::Periodic(period),
                period,
            )
        };
        vec![
            (
                server,
                mk(
                    RECOVERY_TASK_BASE + 2 * k,
                    format!("mw.xfer@{server}->{joiner}"),
                    server,
                    self.transfer_chunk_wcet,
                ),
            ),
            (
                joiner,
                mk(
                    RECOVERY_TASK_BASE + 2 * k + 1,
                    format!("mw.install@{joiner}"),
                    joiner,
                    self.install_chunk_wcet,
                ),
            ),
        ]
    }

    /// Builds the per-member request-execution cost tasks of replication
    /// group `g`, style-aware (the paper's cost model per \[Pol96\]
    /// role):
    ///
    /// * **active** — every member executes every request: full WCET on
    ///   every member;
    /// * **semi-active** — the leader executes at delivery (full WCET);
    ///   followers only apply the decided order
    ///   ([`GroupLoad::order_wcet`]);
    /// * **passive** — only the primary executes; backups merely buffer
    ///   deliveries and are charged nothing.
    ///
    /// Leadership is charged at its *nominal* seat (the lowest member):
    /// the tightened verdict is exact for the deployed leadership and an
    /// under-approximation during a failover transient, when the acting
    /// leader executes requests its seat was not charged for (the old
    /// charge-everyone rule was the safe over-approximation; a
    /// transition-style analysis per possible leader is the ROADMAP
    /// follow-on). `period` is the arrival period admission budgets per
    /// request — the workload's (peak) submission period.
    ///
    /// Ids stride [`GROUP_TASK_STRIDE`] per group, so member indices can
    /// never collide across groups.
    pub fn group_cost_tasks(
        &self,
        g: u32,
        style: ReplicaStyle,
        members: &[u32],
        load: &GroupLoad,
        period: Duration,
    ) -> Vec<(u32, Task)> {
        members
            .iter()
            .enumerate()
            .filter_map(|(i, node)| {
                let wcet = match style {
                    ReplicaStyle::Active => load.request_wcet,
                    ReplicaStyle::SemiActive if i == 0 => load.request_wcet,
                    ReplicaStyle::SemiActive => load.order_wcet,
                    ReplicaStyle::Passive { .. } if i == 0 => load.request_wcet,
                    ReplicaStyle::Passive { .. } => return None,
                };
                let task = Task::new(
                    TaskId(GROUP_TASK_BASE + g * GROUP_TASK_STRIDE + i as u32),
                    Heug::single(CodeEu::new(
                        format!("mw.grp{g}.{}@{node}", style.name()),
                        wcet.max(Duration::from_nanos(1)),
                        ProcessorId(*node),
                    ))
                    .expect("single-unit group HEUG"),
                    ArrivalLaw::Periodic(period),
                    period,
                );
                Some((*node, task))
            })
            .collect()
    }

    /// Long-run CPU utilization of the injected middleware, in permille.
    pub fn utilization_permille(&self) -> u32 {
        let parts = [
            (self.heartbeat_wcet, self.heartbeat_period),
            (self.sync_wcet, self.sync_period),
            (self.checkpoint_wcet, self.checkpoint_period),
        ];
        parts
            .iter()
            .map(|(c, p)| (c.as_nanos() * 1000 / p.as_nanos().max(1)) as u32)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tasks_are_periodic_and_homed() {
        let cfg = MiddlewareConfig::default();
        let tasks = cfg.tasks_for(3);
        assert_eq!(tasks.len(), MIDDLEWARE_TASKS_PER_NODE as usize);
        for t in &tasks {
            assert!(t.id.0 >= MIDDLEWARE_TASK_BASE);
            assert!(t.has_constrained_deadline());
            for eu in t.heug.eus() {
                assert_eq!(eu.processor(), ProcessorId(3));
            }
        }
        assert!(cfg.utilization_permille() > 0);
        assert!(cfg.utilization_permille() < 100, "middleware stays light");
    }

    #[test]
    fn group_cost_tasks_are_style_aware() {
        let cfg = MiddlewareConfig::default();
        let load = GroupLoad::default();
        let period = load.request_period;

        // Active: every member pays the full per-request WCET.
        let active = cfg.group_cost_tasks(1, ReplicaStyle::Active, &[1, 3, 4], &load, period);
        assert_eq!(active.len(), 3);
        for (node, task) in &active {
            assert!(task.id.0 >= GROUP_TASK_BASE);
            assert_eq!(task.wcet(), load.request_wcet);
            assert_eq!(task.arrival.min_separation(), Some(period));
            for eu in task.heug.eus() {
                assert_eq!(eu.processor(), ProcessorId(*node));
            }
        }

        // Semi-active: the leader pays full WCET, followers only their
        // order handling.
        let semi = cfg.group_cost_tasks(2, ReplicaStyle::SemiActive, &[1, 3, 4], &load, period);
        assert_eq!(semi.len(), 3);
        assert_eq!(semi[0], (1, semi[0].1.clone()));
        assert_eq!(semi[0].1.wcet(), load.request_wcet, "leader full charge");
        for (node, task) in &semi[1..] {
            assert_eq!(task.wcet(), load.order_wcet, "follower n{node} order cost");
        }

        // Passive: only the primary is charged at all.
        let passive = cfg.group_cost_tasks(
            3,
            ReplicaStyle::Passive {
                checkpoint_every: 4,
            },
            &[1, 3, 4],
            &load,
            period,
        );
        assert_eq!(passive.len(), 1, "backups execute nothing in steady state");
        assert_eq!(passive[0].0, 1);
        assert_eq!(passive[0].1.wcet(), load.request_wcet);

        // Distinct groups get distinct reserved ids.
        assert!(active
            .iter()
            .all(|(_, a)| semi.iter().all(|(_, b)| a.id != b.id)));
    }

    #[test]
    fn precision_grows_with_delay_uncertainty() {
        let cfg = MiddlewareConfig::default();
        let tight = LinkConfig::reliable(Duration::from_micros(10), Duration::from_micros(12));
        let loose = LinkConfig::reliable(Duration::from_micros(10), Duration::from_micros(80));
        assert!(cfg.clock_precision(&loose) > cfg.clock_precision(&tight));
        assert!(cfg.clock_precision(&tight) >= cfg.clock_precision_floor);
    }
}
