//! Run reports: per-task outcome tallies and aggregate statistics.
//!
//! The dispatcher keeps no record per activation. When an instance's
//! outcome becomes final it is folded once into its task's
//! [`TaskOutcome`] and handed to the run's tap as
//! [`hades_telemetry::MonitorEvent::InstanceSettled`]
//! ([`crate::DispatchSim::set_tap`]): a caller that needs every
//! instance collects that stream, and the report stays O(tasks) however
//! long the run.

use crate::monitor::MonitorReport;
use hades_sim::Trace;
use hades_task::TaskId;
use hades_time::{Duration, Time};
use std::collections::HashMap;

/// What one task's instances came to, folded as each became final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskId,
    /// Instances activated (counted at spawn).
    pub activated: u64,
    /// Instances that completed, late ones included.
    pub completed: u64,
    /// Instances that missed their deadline (completed late or never).
    pub missed: u64,
    /// Worst response time (completion − activation) of a completed
    /// instance; `None` until one completes.
    pub worst_response: Option<Duration>,
    /// Sum of the completed instances' response times, in nanoseconds.
    pub response_sum_ns: u128,
    /// Earliest completion instant of any instance.
    pub first_completion: Option<Time>,
}

impl TaskOutcome {
    pub(crate) fn new(task: TaskId) -> Self {
        TaskOutcome {
            task,
            activated: 0,
            completed: 0,
            missed: 0,
            worst_response: None,
            response_sum_ns: 0,
            first_completion: None,
        }
    }

    /// Folds in the final outcome of one instance whose activation was
    /// already counted.
    pub(crate) fn settle(&mut self, activated: Time, completed: Option<Time>, missed: bool) {
        self.missed += missed as u64;
        let Some(done) = completed else { return };
        let response = done - activated;
        self.completed += 1;
        self.response_sum_ns += response.as_nanos() as u128;
        self.worst_response = Some(self.worst_response.map_or(response, |w| w.max(response)));
        self.first_completion = Some(self.first_completion.map_or(done, |f| f.min(done)));
    }
}

/// Every activated instance of a run, tallied by task in task-set order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tallies(pub(crate) Vec<TaskOutcome>);

impl Tallies {
    /// Number of activated instances, over every task.
    pub fn len(&self) -> usize {
        self.0.iter().map(|t| t.activated as usize).sum()
    }

    /// Whether no instance was activated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tally of every task in the set, in task-set order.
    pub fn iter(&self) -> std::slice::Iter<'_, TaskOutcome> {
        self.0.iter()
    }
}

/// Everything a [`crate::DispatchSim`] run produces.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Every activated instance's outcome, tallied by task: one
    /// [`TaskOutcome`] per task of the set, however many instances ran.
    pub instances: Tallies,
    /// Monitoring alarms.
    pub monitor: MonitorReport,
    /// Execution trace (events + Gantt), if enabled.
    pub trace: Trace,
    /// Notifications pushed to scheduler FIFOs during the run.
    pub notifications: u64,
    /// Total CPU time consumed by scheduler tasks.
    pub scheduler_cpu: Duration,
    /// Total CPU time consumed by kernel interrupts.
    pub kernel_cpu: Duration,
    /// Total busy CPU time per node (application + scheduler + kernel);
    /// a node crashed by the fault plan accrues nothing while down.
    pub node_cpu: Vec<Duration>,
    /// Virtual time at which the run ended.
    pub finished_at: Time,
}

impl RunReport {
    /// Whether every activated instance met its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.instances.iter().all(|t| t.missed == 0)
    }

    /// Number of missed instances.
    pub fn misses(&self) -> usize {
        self.instances.iter().map(|t| t.missed as usize).sum()
    }

    /// The tally of `task`, if it is in the set.
    pub fn outcome(&self, task: TaskId) -> Option<&TaskOutcome> {
        self.instances.iter().find(|t| t.task == task)
    }

    /// Worst observed response time per task (completed instances only).
    pub fn worst_response_times(&self) -> HashMap<TaskId, Duration> {
        self.instances
            .iter()
            .filter_map(|t| Some((t.task, t.worst_response?)))
            .collect()
    }

    /// Mean response time over all completed instances, if any completed.
    pub fn mean_response_time(&self) -> Option<Duration> {
        let completed: u64 = self.instances.iter().map(|t| t.completed).sum();
        if completed == 0 {
            return None;
        }
        let total: u128 = self.instances.iter().map(|t| t.response_sum_ns).sum();
        Some(Duration::from_nanos((total / completed as u128) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    #[test]
    fn response_time_requires_completion() {
        let mut t = TaskOutcome::new(TaskId(0));
        t.activated = 2;
        t.settle(at(10), None, true);
        assert_eq!((t.completed, t.missed, t.worst_response), (0, 1, None));
        assert_eq!((t.response_sum_ns, t.first_completion), (0, None));
        t.settle(at(10), Some(at(60)), false);
        assert_eq!(t.worst_response, Some(Duration::from_nanos(50)));
        assert_eq!(t.first_completion, Some(at(60)));
    }

    #[test]
    fn aggregate_statistics() {
        let mut t0 = TaskOutcome::new(TaskId(0));
        let mut t1 = TaskOutcome::new(TaskId(1));
        (t0.activated, t1.activated) = (2, 1);
        // Settled out of activation order: the tally does not care.
        t0.settle(at(100), Some(at(180)), false);
        t1.settle(at(0), None, true);
        t0.settle(at(0), Some(at(40)), false);
        let r = RunReport {
            instances: Tallies(vec![t0, t1]),
            ..RunReport::default()
        };
        assert_eq!(r.instances.len(), 3);
        assert!(!r.all_deadlines_met());
        assert_eq!(r.misses(), 1);
        assert_eq!(r.outcome(TaskId(0)).map(|t| t.activated), Some(2));
        assert_eq!(r.outcome(TaskId(0)).unwrap().first_completion, Some(at(40)));
        assert_eq!(r.outcome(TaskId(2)), None);
        let worst = r.worst_response_times();
        assert_eq!(worst[&TaskId(0)], Duration::from_nanos(80));
        assert!(!worst.contains_key(&TaskId(1)));
        assert_eq!(r.mean_response_time(), Some(Duration::from_nanos(60)));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = RunReport::default();
        assert!(r.instances.is_empty());
        assert!(r.all_deadlines_met());
        assert_eq!(r.misses(), 0);
        assert_eq!(r.mean_response_time(), None);
        assert!(r.worst_response_times().is_empty());
    }
}
