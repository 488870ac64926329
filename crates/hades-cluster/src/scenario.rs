//! Scenario plans: scripted failures and transitions driving an
//! end-to-end cluster run.
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
use hades_time::Time;

/// A bidirectional link cut between two nodes over a time window; the
/// window's end is the link's recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// One side.
    pub a: NodeId,
    /// The other side.
    pub b: NodeId,
    /// First instant of the cut (inclusive).
    pub from: Time,
    /// Last instant of the cut (inclusive); traffic resumes after.
    pub until: Time,
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
/// use hades_cluster::ScenarioPlan;
/// use hades_sim::NodeId;
/// use hades_time::{Duration, Time};
///
/// let ms = |n| Time::ZERO + Duration::from_millis(n);
/// let plan = ScenarioPlan::new()
///     .crash(NodeId(0), ms(50))
///     .restart(NodeId(0), ms(70))
///     .partition(NodeId(1), NodeId(2), ms(10), ms(12));
/// assert_eq!(plan.crashes().len(), 1);
/// let faults = plan.fault_plan();
/// assert!(faults.is_crashed(NodeId(0), ms(60)));
/// assert!(!faults.is_crashed(NodeId(0), ms(70)), "restarted");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioPlan {
    crashes: Vec<(NodeId, Time)>,
    restarts: Vec<(NodeId, Time)>,
    partitions: Vec<Partition>,
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
        self.crashes.push((node, at));
        self
    }

    /// Restarts `node` at `at`: the node comes back *cold*, its links go
    /// live again, and its agent runs the rejoin protocol (announce →
    /// state transfer → replay → re-admission). Must follow a scripted
    /// crash of the same node; the cluster build rejects it otherwise.
    pub fn restart(mut self, node: NodeId, at: Time) -> Self {
        self.restarts.push((node, at));
        self
    }

    /// Cuts both directions of the `a ↔ b` link during `[from, until]`;
    /// the link recovers after `until`.
    pub fn partition(mut self, a: NodeId, b: NodeId, from: Time, until: Time) -> Self {
        self.partitions.push(Partition { a, b, from, until });
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
        self.crashes.is_empty()
            && self.restarts.is_empty()
            && self.partitions.is_empty()
            && self.mode_changes.is_empty()
    }

    /// Scripted crashes, in insertion order.
    pub fn crashes(&self) -> &[(NodeId, Time)] {
        &self.crashes
    }

    /// Scripted restarts, in insertion order.
    pub fn restarts(&self) -> &[(NodeId, Time)] {
        &self.restarts
    }

    /// Scripted partitions, in insertion order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
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
        self.restarts
            .iter()
            .filter(|r| !matched.contains(r))
            .copied()
            .collect()
    }

    /// Compiles the scenario's failure script into the network fault
    /// plan. Each crash ends at the earliest scripted restart of its node
    /// after it (none: the crash is permanent); the plan merges
    /// overlapping and adjacent windows, so a crash scripted while the
    /// node is already down is a no-op.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &(node, at) in &self.crashes {
            plan.add_crash(node, at, self.restart_after(node, at));
        }
        for p in &self.partitions {
            plan.add_cut(p.a, p.b, p.from, p.until);
            plan.add_cut(p.b, p.a, p.from, p.until);
        }
        plan
    }

    /// The earliest scripted restart of `node` strictly after `at`.
    fn restart_after(&self, node: NodeId, at: Time) -> Option<Time> {
        self.restarts
            .iter()
            .filter(|(n, t)| *n == node && *t > at)
            .map(|(_, t)| *t)
            .min()
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
