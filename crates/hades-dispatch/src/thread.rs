//! Dispatcher threads: one kernel-level thread per `Code_EU` instance.
//!
//! The dispatcher "uses a distributed set of threads managed by the
//! underlying kernel to execute a task instance, a given thread being
//! dedicated to the execution of one and only one Code_EU"
//! (Section 3.2.1). [`Thread`] is that run-time object: the elementary
//! unit's attributes resolved against a concrete activation, plus the
//! bookkeeping the run queue and monitor need.

use hades_task::{CondVarId, EuIndex, Priority, ResourceUse, TaskId};
use hades_time::{Duration, Time};
use std::fmt;

/// Globally unique identifier of a dispatcher thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "th{}", self.0)
    }
}

/// Life-cycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Waiting for one or more of the four runnable conditions.
    Blocked,
    /// In the Run Queue: all four conditions met, resources granted.
    Runnable,
    /// Currently allocated the CPU.
    Running,
    /// Finished executing.
    Finished,
    /// Killed before completion (instance aborted, orphaned, ...).
    Aborted,
}

impl ThreadState {
    /// Whether the thread still holds or may hold resources.
    pub fn is_live(self) -> bool {
        matches!(
            self,
            ThreadState::Blocked | ThreadState::Runnable | ThreadState::Running
        )
    }
}

/// Where an `Inv_EU` thread stands: it runs once before spawning its
/// target (`Pre`), waits for a synchronous target to complete
/// (`WaitingTarget`), and runs once more after it (`Post`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InvPhase {
    Pre,
    WaitingTarget,
    Post,
}

/// The run-time representation of one `Code_EU` (or invocation bookkeeping
/// unit) of one task instance.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Unique id.
    pub id: ThreadId,
    /// Display name (`task.eu#instance`); empty unless the run records a
    /// trace, its only reader.
    pub name: String,
    /// Owning task.
    pub task: TaskId,
    /// Instance (activation) sequence number of the owning task.
    pub instance: u64,
    /// The elementary unit this thread executes.
    pub eu: EuIndex,
    /// Processor (node) the thread is bound to.
    pub node: u32,
    /// Current priority (dynamic policies rewrite it via the dispatcher
    /// primitive).
    pub prio: Priority,
    /// Preemption threshold.
    pub pt: Priority,
    /// Absolute earliest start time.
    pub earliest: Time,
    /// Absolute latest start time (monitoring), if declared.
    pub latest: Option<Time>,
    /// Absolute deadline of the owning instance.
    pub abs_deadline: Time,
    /// Activation time of the owning instance.
    pub activation: Time,
    /// Remaining work on the CPU (overheads + action remainder).
    pub remaining: Duration,
    /// Declared worst-case action time (for early-termination detection).
    pub action_wcet: Duration,
    /// Actual action time drawn for this instance.
    pub action_actual: Duration,
    /// Unsatisfied precedence predecessors.
    pub preds_pending: usize,
    /// Condition variables that must be set before start.
    pub waits: Vec<CondVarId>,
    /// Resources to hold for the duration of the unit.
    pub resources: Vec<ResourceUse>,
    /// Current state.
    pub state: ThreadState,
    /// Whether the thread has ever been dispatched (for first-start
    /// bookkeeping: resource acquisition, latest-start monitoring, context
    /// switch accounting).
    pub started: bool,
    /// Time the thread first started running, if it has.
    pub first_run: Option<Time>,
    /// Time the thread entered the run queue (FIFO tie-breaking).
    pub runnable_since: Time,
    /// Position of the owning task in `TaskSet::tasks()`.
    pub(crate) task_pos: usize,
    /// The invocation phase, of an `Inv_EU` thread.
    pub(crate) inv_phase: Option<InvPhase>,
    /// Remote predecessors whose message has arrived.
    pub(crate) remote_arrived: Vec<EuIndex>,
}

impl Thread {
    /// Whether every runnable condition *except* resources and time has
    /// been met (precedence and condition variables are tracked externally
    /// through `preds_pending` and the condvar table).
    pub fn precedence_satisfied(&self) -> bool {
        self.preds_pending == 0
    }

    /// Whether the thread may be preempted by a thread at `other` priority.
    pub fn preemptable_by(&self, other: Priority) -> bool {
        other > self.pt
    }

    /// Whether the action finished earlier than its declared WCET — the
    /// *early termination* monitoring event (Section 3.2.1 (iii)).
    pub fn terminated_early(&self) -> bool {
        self.action_actual < self.action_wcet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread() -> Thread {
        Thread {
            id: ThreadId(1),
            name: "t0.eu0#0".into(),
            task: TaskId(0),
            instance: 0,
            eu: EuIndex(0),
            node: 0,
            prio: Priority::new(5),
            pt: Priority::new(7),
            earliest: Time::ZERO,
            latest: None,
            abs_deadline: Time::from_nanos(1_000),
            activation: Time::ZERO,
            remaining: Duration::from_nanos(100),
            action_wcet: Duration::from_nanos(100),
            action_actual: Duration::from_nanos(80),
            preds_pending: 1,
            waits: Vec::new(),
            resources: Vec::new(),
            state: ThreadState::Blocked,
            started: false,
            first_run: None,
            runnable_since: Time::ZERO,
            task_pos: 0,
            inv_phase: None,
            remote_arrived: Vec::new(),
        }
    }

    #[test]
    fn precedence_tracking() {
        let mut t = thread();
        assert!(!t.precedence_satisfied());
        t.preds_pending = 0;
        assert!(t.precedence_satisfied());
    }

    #[test]
    fn preemption_uses_threshold_not_priority() {
        let t = thread();
        assert!(!t.preemptable_by(Priority::new(6)), "6 ≤ pt 7");
        assert!(!t.preemptable_by(Priority::new(7)), "equal to pt");
        assert!(t.preemptable_by(Priority::new(8)));
    }

    #[test]
    fn early_termination_detection() {
        let mut t = thread();
        assert!(t.terminated_early());
        t.action_actual = t.action_wcet;
        assert!(!t.terminated_early());
    }

    #[test]
    fn liveness_by_state() {
        assert!(ThreadState::Blocked.is_live());
        assert!(ThreadState::Runnable.is_live());
        assert!(ThreadState::Running.is_live());
        assert!(!ThreadState::Finished.is_live());
        assert!(!ThreadState::Aborted.is_live());
    }

    #[test]
    fn display() {
        assert_eq!(ThreadId(9).to_string(), "th9");
    }
}
