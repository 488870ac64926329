//! Scenario plans: scripted failures and transitions driving an
//! end-to-end cluster run, and [`FaultOp`], the one fault vocabulary.
//!
//! A [`FaultOp`] is one fault: a crash, restart, directed link cut,
//! degraded link, slowed CPU or skewed clock. A [`ScenarioPlan`] scripts
//! them offline, a [`crate::ScenarioDriver`] injects them online through
//! [`crate::ControlHandle::inject`], and a chaos program carries them as
//! data; the control plane lowers every one the same way.
//!
//! A [`ScenarioPlan`] is a builder that compiles to a
//! [`hades_sim::FaultPlan`] ([`ScenarioPlan::fault_plan`]) — the one
//! record of who is down when, which every query about the script reads
//! — plus the operational transitions the fault plan does not know
//! about:
//!
//! * node **crashes** and **restarts** — a crash followed by a scripted
//!   restart compiles into a [`hades_sim::CrashWindow`], so the shared
//!   network drops the node's traffic exactly while it is down, the
//!   dispatcher kill switch stops its CPU, and the restarted node's agent
//!   runs the rejoin protocol;
//! * temporary link **partitions** (whose window end models link
//!   recovery);
//! * **mode changes** — at a scripted instant the application retires one
//!   set of tasks and introduces another ([`hades_sched::ModeChange`]);
//!   the runtime releases the new mode only after the analysis' safe
//!   offset, and the report records the transition latency.
//!
//! The cluster runtime compiles the failure part into the fault plan of
//! the shared network, so the dispatcher's remote precedence messages,
//! the heartbeat traffic, the view-change flood and the state-transfer
//! chunks all see the *same* failures.

use hades_sim::{FaultPlan, NodeId};
use hades_task::{Task, TaskId};
use hades_time::{Duration, Time};

/// One fault op. Nodes are cluster node indices; times are absolute
/// virtual instants, and the control plane clamps an instant in the past
/// to "now".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Crash `node` at `at` (fail-stop: it neither sends, receives nor
    /// executes) and restart it cold at `until`, running the rejoin
    /// protocol (`None` = down for good). The crash rule: a crash of a
    /// node already down at `at` is a no-op, and a restart already booked
    /// for a later window of the same node ends this crash.
    Crash {
        /// The victim.
        node: u32,
        /// Crash instant.
        at: Time,
        /// Cold-restart instant, if the node comes back.
        until: Option<Time>,
    },
    /// Restart `node` at `at`, closing the crash window open at `at`; a
    /// no-op when none is. In a [`ScenarioPlan`] it pairs with the
    /// latest scripted crash of the node before it.
    Restart {
        /// The restarting node.
        node: u32,
        /// Restart instant.
        at: Time,
    },
    /// Sever only the directed link `from → to` during `[at, until]`:
    /// `from`'s messages to `to` vanish while the reverse direction keeps
    /// delivering. A partition is two cuts.
    Cut {
        /// Sender side of the dead direction.
        from: u32,
        /// Receiver side of the dead direction.
        to: u32,
        /// Window start.
        at: Time,
        /// Window end (inclusive); the link recovers after it.
        until: Time,
    },
    /// Degrade (without severing) the directed link `from → to` during
    /// `[at, until]`: every message suffers `extra_delay` on top of its
    /// drawn transit time plus an additional `loss_permille` chance of
    /// loss — the gray failure between healthy and cut.
    Degrade {
        /// Sender side.
        from: u32,
        /// Receiver side.
        to: u32,
        /// Window start.
        at: Time,
        /// Window end (inclusive).
        until: Time,
        /// Extra latency every message suffers inside the window.
        extra_delay: Duration,
        /// Extra loss chance (‰) inside the window.
        loss_permille: u32,
    },
    /// Slow `node`'s CPU to `speed_permille / 1000` of nominal during
    /// `[at, until)`: the node stays up and keeps emitting, but its work
    /// lags — a straggler that can miss heartbeat deadlines without being
    /// down.
    Slow {
        /// The straggler.
        node: u32,
        /// Window start.
        at: Time,
        /// Window end (exclusive).
        until: Time,
        /// CPU speed in permille of nominal (clamped to `1..=1000`).
        speed_permille: u32,
    },
    /// Skew `node`'s local clock from `at` on: its timers run at
    /// `1 + drift_ppb / 1e9` of real rate. A later skew of the same node
    /// supersedes it.
    Skew {
        /// The node whose timers drift.
        node: u32,
        /// Skew onset.
        at: Time,
        /// Drift in parts-per-billion (negative = slow clock = late
        /// heartbeats).
        drift_ppb: i64,
    },
}

/// A scripted application mode change: at `at`, the tasks in `retire`
/// stop being activated and the tasks in `introduce` take over, released
/// after the safe offset computed by [`hades_sched::ModeChange`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeChangeScript {
    /// The switch instant.
    pub at: Time,
    /// Application task ids of the mode being left.
    pub retire: Vec<TaskId>,
    /// Tasks of the mode being entered, with their home nodes.
    pub introduce: Vec<(u32, Task)>,
}

/// A deterministic failure-and-transition script for one cluster run.
///
/// # Examples
///
/// ```
/// use hades_cluster::{FaultOp, ScenarioPlan};
/// use hades_sim::NodeId;
/// use hades_time::{Duration, Time};
///
/// let ms = |n| Time::ZERO + Duration::from_millis(n);
/// let plan = ScenarioPlan::new()
///     .crash(NodeId(0), ms(50))
///     .restart(NodeId(0), ms(70))
///     .partition(NodeId(1), NodeId(2), ms(10), ms(12));
/// assert_eq!(plan.ops().len(), 4, "a partition is two cuts");
/// assert_eq!(plan.ops()[0], FaultOp::Crash { node: 0, at: ms(50), until: None });
/// let faults = plan.fault_plan();
/// assert!(faults.is_crashed(NodeId(0), ms(60)));
/// assert!(!faults.is_crashed(NodeId(0), ms(70)), "restarted");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioPlan {
    ops: Vec<FaultOp>,
    mode_changes: Vec<ModeChangeScript>,
}

impl ScenarioPlan {
    /// An empty scenario (healthy run).
    pub fn new() -> Self {
        ScenarioPlan::default()
    }

    /// Crashes `node` at `at` (fail-stop: it neither sends, receives nor
    /// executes from then on — until a scripted [`ScenarioPlan::restart`],
    /// if any).
    pub fn crash(mut self, node: NodeId, at: Time) -> Self {
        self.ops.push(FaultOp::Crash {
            node: node.0,
            at,
            until: None,
        });
        self
    }

    /// Restarts `node` at `at`: the node comes back *cold*, its links go
    /// live again, and its agent runs the rejoin protocol (announce →
    /// state transfer → replay → re-admission). Must follow a scripted
    /// crash of the same node; the cluster build rejects it otherwise.
    pub fn restart(mut self, node: NodeId, at: Time) -> Self {
        self.ops.push(FaultOp::Restart { node: node.0, at });
        self
    }

    /// Cuts both directions of the `a ↔ b` link during `[from, until]`;
    /// the link recovers after `until`.
    pub fn partition(mut self, a: NodeId, b: NodeId, from: Time, until: Time) -> Self {
        for (from_node, to) in [(a, b), (b, a)] {
            self.ops.push(FaultOp::Cut {
                from: from_node.0,
                to: to.0,
                at: from,
                until,
            });
        }
        self
    }

    /// Switches the application task set at `at`: `retire` stops and
    /// `introduce` starts after the mode-change analysis' safe offset.
    pub fn mode_change(
        mut self,
        at: Time,
        retire: Vec<TaskId>,
        introduce: Vec<(u32, Task)>,
    ) -> Self {
        self.mode_changes.push(ModeChangeScript {
            at,
            retire,
            introduce,
        });
        self
    }

    /// Whether the plan scripts nothing at all.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.mode_changes.is_empty()
    }

    /// Scripted fault ops, in insertion order.
    pub fn ops(&self) -> &[FaultOp] {
        &self.ops
    }

    /// Scripted mode changes, in insertion order.
    pub fn mode_changes(&self) -> &[ModeChangeScript] {
        &self.mode_changes
    }

    /// Scripted restarts that end no down window: no crash of the node
    /// precedes them, they fall while the node is already up (a second
    /// restart for the same window), or they collide with another
    /// scripted crash at the same instant. Invalid — the cluster build
    /// rejects them rather than silently running a contradictory plan.
    pub fn orphan_restarts(&self) -> Vec<(NodeId, Time)> {
        let matched = self.fault_plan().restarts();
        self.restarts().filter(|r| !matched.contains(r)).collect()
    }

    /// Compiles the scenario's failure script into the network fault
    /// plan. Each crash ends at the earliest scripted restart of its node
    /// after it (none: the crash is permanent); the plan merges
    /// overlapping and adjacent windows, so a crash scripted while the
    /// node is already down is a no-op.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for op in &self.ops {
            match *op {
                FaultOp::Crash { node, at, .. } => {
                    let until = self
                        .restarts()
                        .filter(|(n, t)| n.0 == node && *t > at)
                        .map(|(_, t)| t)
                        .min();
                    plan.add_crash(NodeId(node), at, until);
                }
                FaultOp::Cut {
                    from,
                    to,
                    at,
                    until,
                } => plan.add_cut(NodeId(from), NodeId(to), at, until),
                // Restarts end the crash windows above; the builder
                // scripts no other op.
                _ => {}
            }
        }
        plan
    }

    /// Scripted restarts, in insertion order.
    fn restarts(&self) -> impl Iterator<Item = (NodeId, Time)> + '_ {
        self.ops.iter().filter_map(|op| match *op {
            FaultOp::Restart { node, at } => Some((NodeId(node), at)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_sim::CrashWindow;
    use hades_time::Duration;

    fn ms(n: u64) -> Time {
        Time::ZERO + Duration::from_millis(n)
    }

    fn window(crash: u64, restart: Option<u64>) -> CrashWindow {
        CrashWindow {
            crash_at: ms(crash),
            restart_at: restart.map(ms),
        }
    }

    #[test]
    fn restart_pairs_with_preceding_crash() {
        let plan = ScenarioPlan::new()
            .crash(NodeId(1), ms(10))
            .restart(NodeId(1), ms(20))
            .crash(NodeId(1), ms(30));
        let faults = plan.fault_plan();
        assert_eq!(
            faults.windows_of(NodeId(1)),
            [window(10, Some(20)), window(30, None)]
        );
        assert!(faults.is_crashed(NodeId(1), ms(15)));
        assert!(!faults.is_crashed(NodeId(1), ms(25)));
        assert!(faults.is_crashed(NodeId(1), ms(40)));
        assert!(!faults.down_during(NodeId(1), ms(21), ms(29)));
        assert!(faults.down_during(NodeId(1), ms(5), ms(12)));
        assert!(plan.orphan_restarts().is_empty());
    }

    #[test]
    fn a_suspicion_is_a_detection_from_the_crash_until_the_restart() {
        let faults = ScenarioPlan::new()
            .crash(NodeId(1), ms(10))
            .restart(NodeId(1), ms(20))
            .crash(NodeId(1), ms(30))
            .fault_plan();
        let one_ns = Duration::from_nanos(1);
        assert_eq!(faults.down_since(NodeId(1), ms(10) - one_ns), None);
        assert_eq!(faults.down_since(NodeId(1), ms(10)), Some(ms(10)));
        assert_eq!(faults.down_since(NodeId(1), ms(20) - one_ns), Some(ms(10)));
        assert_eq!(faults.down_since(NodeId(1), ms(20)), None);
        assert_eq!(faults.down_since(NodeId(1), ms(99)), Some(ms(30)));
        assert_eq!(faults.down_since(NodeId(0), ms(15)), None);
    }

    #[test]
    fn orphan_restart_is_flagged() {
        let plan = ScenarioPlan::new().restart(NodeId(2), ms(10));
        assert_eq!(plan.orphan_restarts(), vec![(NodeId(2), ms(10))]);
    }

    #[test]
    fn overlapping_windows_merge_like_the_fault_plan() {
        // A crash scripted while the node is already down is a no-op: its
        // window merges into the one already in force.
        let plan = ScenarioPlan::new()
            .crash(NodeId(1), ms(10))
            .restart(NodeId(1), ms(30))
            .crash(NodeId(1), ms(20));
        let faults = plan.fault_plan();
        assert_eq!(faults.windows_of(NodeId(1)), [window(10, Some(30))]);
        assert_eq!(faults.restarts(), vec![(NodeId(1), ms(30))]);
        assert!(plan.orphan_restarts().is_empty());
        assert!(faults.is_crashed(NodeId(1), ms(25)));
        assert!(!faults.is_crashed(NodeId(1), ms(30)));

        // A restart exactly at the next crash instant ends no window
        // (the node goes straight back down): invalid, flagged.
        let plan = ScenarioPlan::new()
            .crash(NodeId(1), ms(10))
            .restart(NodeId(1), ms(20))
            .crash(NodeId(1), ms(20));
        assert_eq!(plan.fault_plan().windows_of(NodeId(1)), [window(10, None)]);
        assert_eq!(plan.orphan_restarts(), vec![(NodeId(1), ms(20))]);

        // A second restart while the node is already up is equally
        // invalid.
        let plan = ScenarioPlan::new()
            .crash(NodeId(1), ms(10))
            .restart(NodeId(1), ms(20))
            .restart(NodeId(1), ms(25));
        assert_eq!(plan.orphan_restarts(), vec![(NodeId(1), ms(25))]);
    }

    #[test]
    fn fault_plan_reflects_windows() {
        let plan = ScenarioPlan::new()
            .crash(NodeId(0), ms(10))
            .restart(NodeId(0), ms(20))
            .crash(NodeId(3), ms(5))
            .fault_plan();
        assert!(plan.is_crashed(NodeId(0), ms(15)));
        assert!(!plan.is_crashed(NodeId(0), ms(20)));
        assert!(plan.is_crashed(NodeId(3), ms(50)));
        assert_eq!(plan.restarts(), vec![(NodeId(0), ms(20))]);
    }
}
