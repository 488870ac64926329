//! Tasks and task sets.
//!
//! A [`Task`] pairs a HEUG with its arrival law and relative deadline; a
//! [`TaskSet`] collects the tasks of one application (or of the middleware
//! itself — services and schedulers are tasks too) and validates
//! cross-task references such as `Inv_EU` targets.

use crate::arrival::ArrivalLaw;
use crate::eu::Eu;
use crate::graph::Heug;
use hades_time::Duration;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a task within a [`TaskSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A task: a HEUG plus its activation law and relative deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// The task id, unique within its set.
    pub id: TaskId,
    /// Structure of the task.
    pub heug: Heug,
    /// Arrival law of activation requests.
    pub arrival: ArrivalLaw,
    /// Deadline relative to the activation request.
    pub deadline: Duration,
}

impl Task {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(id: TaskId, heug: Heug, arrival: ArrivalLaw, deadline: Duration) -> Self {
        assert!(!deadline.is_zero(), "task deadline must be positive");
        Task {
            id,
            heug,
            arrival,
            deadline,
        }
    }

    /// The task name (from its HEUG).
    pub fn name(&self) -> &str {
        self.heug.name()
    }

    /// Total worst-case execution demand of one instance (all processors).
    pub fn wcet(&self) -> Duration {
        self.heug.total_wcet()
    }

    /// Long-run CPU utilisation of this task (`C/P`), `None` for aperiodic
    /// tasks.
    pub fn utilization(&self) -> Option<f64> {
        self.arrival
            .min_separation()
            .map(|p| self.wcet().as_nanos() as f64 / p.as_nanos() as f64)
    }

    /// Whether the deadline is no later than the (pseudo-)period
    /// ("constrained deadline" in scheduling-theory terms).
    pub fn has_constrained_deadline(&self) -> bool {
        match self.arrival.min_separation() {
            Some(p) => self.deadline <= p,
            None => false,
        }
    }
}

/// Validation failure for a task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSetError {
    /// Two tasks share an id.
    DuplicateId(TaskId),
    /// An `Inv_EU` invokes a task missing from the set.
    UnknownInvocationTarget {
        /// The invoking task.
        from: TaskId,
        /// The missing invocation target.
        target: TaskId,
    },
    /// The invocation relation is cyclic (worst-case demand would be
    /// unbounded).
    InvocationCycle(TaskId),
}

impl fmt::Display for TaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSetError::DuplicateId(id) => write!(f, "duplicate task id {id}"),
            TaskSetError::UnknownInvocationTarget { from, target } => {
                write!(f, "task {from} invokes unknown task {target}")
            }
            TaskSetError::InvocationCycle(id) => {
                write!(f, "invocation cycle through task {id}")
            }
        }
    }
}

impl std::error::Error for TaskSetError {}

/// A validated collection of tasks.
///
/// # Examples
///
/// ```
/// use hades_task::prelude::*;
///
/// let t = Task::new(
///     TaskId(0),
///     Heug::single(CodeEu::new("beat", Duration::from_micros(100), ProcessorId(0)))?,
///     ArrivalLaw::Periodic(Duration::from_millis(1)),
///     Duration::from_millis(1),
/// );
/// let set = TaskSet::new(vec![t])?;
/// assert_eq!(set.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
    by_id: HashMap<TaskId, usize>,
}

impl TaskSet {
    /// Validates and builds a task set.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskSetError`] on duplicate ids, dangling invocation
    /// targets or invocation cycles.
    pub fn new(tasks: Vec<Task>) -> Result<TaskSet, TaskSetError> {
        let mut by_id = HashMap::new();
        for (i, t) in tasks.iter().enumerate() {
            if by_id.insert(t.id, i).is_some() {
                return Err(TaskSetError::DuplicateId(t.id));
            }
        }
        // Validate invocation targets and acyclicity (DFS three-colour).
        for t in &tasks {
            for eu in t.heug.eus() {
                if let Eu::Inv(inv) = eu {
                    if !by_id.contains_key(&inv.target) {
                        return Err(TaskSetError::UnknownInvocationTarget {
                            from: t.id,
                            target: inv.target,
                        });
                    }
                }
            }
        }
        let set = TaskSet { tasks, by_id };
        set.check_invocation_acyclic()?;
        Ok(set)
    }

    fn check_invocation_acyclic(&self) -> Result<(), TaskSetError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: HashMap<TaskId, Color> =
            self.tasks.iter().map(|t| (t.id, Color::White)).collect();
        // Iterative DFS with an explicit stack.
        for root in self.tasks.iter().map(|t| t.id) {
            if color[&root] != Color::White {
                continue;
            }
            let mut stack = vec![(root, 0usize)];
            color.insert(root, Color::Grey);
            while let Some((tid, child_pos)) = stack.pop() {
                let children = self.invocation_targets(tid);
                if child_pos < children.len() {
                    stack.push((tid, child_pos + 1));
                    let child = children[child_pos];
                    match color[&child] {
                        Color::Grey => return Err(TaskSetError::InvocationCycle(child)),
                        Color::White => {
                            color.insert(child, Color::Grey);
                            stack.push((child, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color.insert(tid, Color::Black);
                }
            }
        }
        Ok(())
    }

    /// Tasks a given task invokes (deduplicated, in target order).
    pub fn invocation_targets(&self, id: TaskId) -> Vec<TaskId> {
        let Some(task) = self.get(id) else {
            return Vec::new();
        };
        let mut out: Vec<TaskId> = task
            .heug
            .eus()
            .iter()
            .filter_map(|e| e.as_inv())
            .map(|i| i.target)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The task with the given id.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.position(id).map(|i| &self.tasks[i])
    }

    /// Position of the task with the given id in [`TaskSet::tasks`], for
    /// callers that keep per-task state in a parallel table.
    pub fn position(&self, id: TaskId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// All tasks, in insertion order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Iterates over the tasks.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total utilisation of tasks with bounded arrival laws; aperiodic
    /// tasks contribute nothing (they are handled by planning or
    /// best-effort policies).
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().filter_map(Task::utilization).sum()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::ProcessorId;
    use crate::eu::{CodeEu, InvEu};
    use crate::graph::HeugBuilder;

    fn simple_task(id: u32, wcet_us: u64, period_ms: u64) -> Task {
        Task::new(
            TaskId(id),
            Heug::single(CodeEu::new(
                format!("t{id}"),
                Duration::from_micros(wcet_us),
                ProcessorId(0),
            ))
            .unwrap(),
            ArrivalLaw::Periodic(Duration::from_millis(period_ms)),
            Duration::from_millis(period_ms),
        )
    }

    fn invoking_task(id: u32, target: u32) -> Task {
        let mut b = HeugBuilder::new(format!("t{id}"));
        let c = b.code_eu(CodeEu::new("pre", Duration::from_micros(1), ProcessorId(0)));
        let i = b.inv_eu(InvEu::sync("call", TaskId(target), ProcessorId(0)));
        b.precede(c, i);
        Task::new(
            TaskId(id),
            b.build().unwrap(),
            ArrivalLaw::Aperiodic,
            Duration::from_millis(1),
        )
    }

    #[test]
    fn task_utilization_and_deadlines() {
        let t = simple_task(0, 100, 1);
        assert_eq!(t.wcet(), Duration::from_micros(100));
        assert!((t.utilization().unwrap() - 0.1).abs() < 1e-9);
        assert!(t.has_constrained_deadline());
        assert_eq!(t.name(), "t0");
    }

    #[test]
    fn aperiodic_task_has_no_utilization() {
        let t = invoking_task(0, 0);
        // self-invocation is a cycle; build the set check separately
        assert_eq!(t.utilization(), None);
        assert!(!t.has_constrained_deadline());
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let heug =
            Heug::single(CodeEu::new("x", Duration::from_micros(1), ProcessorId(0))).unwrap();
        let _ = Task::new(TaskId(0), heug, ArrivalLaw::Aperiodic, Duration::ZERO);
    }

    #[test]
    fn set_rejects_duplicate_ids() {
        let err = TaskSet::new(vec![simple_task(1, 1, 1), simple_task(1, 2, 2)]).unwrap_err();
        assert_eq!(err, TaskSetError::DuplicateId(TaskId(1)));
    }

    #[test]
    fn set_rejects_unknown_invocation_target() {
        let err = TaskSet::new(vec![invoking_task(0, 9)]).unwrap_err();
        assert_eq!(
            err,
            TaskSetError::UnknownInvocationTarget {
                from: TaskId(0),
                target: TaskId(9),
            }
        );
    }

    #[test]
    fn set_rejects_invocation_cycles() {
        // 0 → 1 → 2 → 0
        let err = TaskSet::new(vec![
            invoking_task(0, 1),
            invoking_task(1, 2),
            invoking_task(2, 0),
        ])
        .unwrap_err();
        assert!(matches!(err, TaskSetError::InvocationCycle(_)));
    }

    #[test]
    fn set_accepts_invocation_dag() {
        // 0 → 2, 1 → 2 is a DAG.
        let set = TaskSet::new(vec![
            invoking_task(0, 2),
            invoking_task(1, 2),
            simple_task(2, 10, 5),
        ])
        .unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.invocation_targets(TaskId(0)), vec![TaskId(2)]);
        assert!(set.invocation_targets(TaskId(2)).is_empty());
    }

    #[test]
    fn set_utilization_sums_periodic_tasks() {
        let set = TaskSet::new(vec![simple_task(0, 100, 1), simple_task(1, 200, 1)]).unwrap();
        assert!((set.utilization() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn lookup_and_iteration() {
        let set = TaskSet::new(vec![simple_task(3, 1, 1), simple_task(7, 1, 1)]).unwrap();
        assert!(set.get(TaskId(7)).is_some());
        assert!(set.get(TaskId(8)).is_none());
        assert_eq!(set.iter().count(), 2);
        assert_eq!((&set).into_iter().count(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn error_display() {
        let e = TaskSetError::UnknownInvocationTarget {
            from: TaskId(0),
            target: TaskId(1),
        };
        assert!(e.to_string().contains("T0"));
        assert!(e.to_string().contains("T1"));
        assert!(TaskSetError::InvocationCycle(TaskId(2))
            .to_string()
            .contains("cycle"));
    }
}
