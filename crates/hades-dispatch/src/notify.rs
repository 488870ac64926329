//! Scheduler/dispatcher cooperation (Section 3.2.2 of the paper).
//!
//! Every scheduler in HADES is a task with a statically defined priority
//! (the highest application priority). The dispatcher posts
//! [`Notification`]s — thread activation `Atv`, termination `Trm`, resource
//! access `Rac` and release `Rre` — into a FIFO shared with the scheduler,
//! which reacts by calling the *dispatcher primitive*: a request to change a
//! thread's priority and/or earliest start time, expressed here as
//! [`AttrChange`]s. This module defines the notification vocabulary and the
//! [`SchedulerPolicy`] trait that concrete policies (RM, EDF, Spring, ...)
//! implement in `hades-sched`.

use crate::thread::{ThreadId, ThreadState};
use hades_task::{Priority, TaskId};
use hades_time::Time;

/// The kind of a notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotificationKind {
    /// `Atv` — a thread was activated.
    Atv,
    /// `Trm` — a thread terminated.
    Trm,
    /// `Rac` — a thread requests access to shared resources.
    Rac,
    /// `Rre` — a thread released its shared resources.
    Rre,
}

impl NotificationKind {
    /// The paper's abbreviation for the kind.
    pub fn label(self) -> &'static str {
        match self {
            NotificationKind::Atv => "Atv",
            NotificationKind::Trm => "Trm",
            NotificationKind::Rac => "Rac",
            NotificationKind::Rre => "Rre",
        }
    }
}

/// One entry of the dispatcher→scheduler FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// What happened.
    pub kind: NotificationKind,
    /// The thread concerned.
    pub thread: ThreadId,
    /// When it happened.
    pub at: Time,
}

/// A scheduler's view of one live thread, provided alongside
/// notifications so policies can order threads without reaching into
/// dispatcher internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSnapshot {
    /// The thread.
    pub thread: ThreadId,
    /// Its owning task.
    pub task: TaskId,
    /// Current priority.
    pub prio: Priority,
    /// Absolute deadline of the owning instance.
    pub abs_deadline: Time,
    /// Absolute earliest start time.
    pub earliest: Time,
    /// Activation time of the owning instance.
    pub activation: Time,
    /// Declared worst-case execution time of the thread's action (planning
    /// policies schedule against this).
    pub wcet: hades_time::Duration,
    /// Whether the thread has started executing (planning policies must
    /// not re-plan started work).
    pub started: bool,
    /// When the thread first ran, if it has (planning policies estimate
    /// residual work from it).
    pub first_run: Option<Time>,
    /// Current state.
    pub state: ThreadState,
}

/// One call to the dispatcher primitive: modify a thread's priority and/or
/// earliest start time (Section 3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrChange {
    /// The thread to modify.
    pub thread: ThreadId,
    /// New priority, if changing.
    pub prio: Option<Priority>,
    /// New absolute earliest start time, if changing.
    pub earliest: Option<Time>,
}

impl AttrChange {
    /// A pure priority change.
    pub fn set_priority(thread: ThreadId, prio: Priority) -> Self {
        AttrChange {
            thread,
            prio: Some(prio),
            earliest: None,
        }
    }

    /// A pure earliest-start change (used by planning-based policies).
    pub fn set_earliest(thread: ThreadId, earliest: Time) -> Self {
        AttrChange {
            thread,
            prio: None,
            earliest: Some(earliest),
        }
    }
}

/// A scheduling policy cooperating with the dispatcher.
///
/// The policy is executed *by the scheduler task*: the dispatcher charges
/// [`crate::CostModel::sched_notif`] of CPU time at the highest application
/// priority for every notification processed, so scheduling overhead shows
/// up in the timeline exactly as in Section 5.3's cost term `S(t)`.
pub trait SchedulerPolicy {
    /// Human-readable policy name (`"EDF"`, `"RM"`, ...).
    fn name(&self) -> &str;

    /// Reacts to one notification. `live` describes every live application
    /// thread on the scheduler's own node and no other node's (including
    /// the notified one, unless it terminated), in ascending thread-id
    /// order, which is creation order. Returned changes are applied
    /// through the dispatcher primitive in order.
    fn on_notification(&mut self, n: &Notification, live: &[ThreadSnapshot]) -> Vec<AttrChange>;

    /// Which notification kinds this policy wants to receive. Kinds not
    /// listed are still recorded in traces but do not wake the scheduler
    /// task (RM, for instance, ignores everything). The default subscribes
    /// to activations and terminations.
    fn subscriptions(&self) -> &'static [NotificationKind] {
        &[NotificationKind::Atv, NotificationKind::Trm]
    }
}

/// The shared FIFO between dispatcher and scheduler.
#[derive(Debug, Default)]
pub struct NotificationQueue {
    fifo: std::collections::VecDeque<Notification>,
}

impl NotificationQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        NotificationQueue::default()
    }

    /// Appends a notification.
    pub fn push(&mut self, n: Notification) {
        self.fifo.push_back(n);
    }

    /// Removes and returns the oldest notification.
    pub fn pop(&mut self) -> Option<Notification> {
        self.fifo.pop_front()
    }

    /// Number of queued notifications.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(NotificationKind::Atv.label(), "Atv");
        assert_eq!(NotificationKind::Trm.label(), "Trm");
        assert_eq!(NotificationKind::Rac.label(), "Rac");
        assert_eq!(NotificationKind::Rre.label(), "Rre");
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = NotificationQueue::new();
        for i in 0..3 {
            q.push(Notification {
                kind: NotificationKind::Atv,
                thread: ThreadId(i),
                at: Time::from_nanos(i),
            });
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().thread, ThreadId(0));
        assert_eq!(q.pop().unwrap().thread, ThreadId(1));
        assert_eq!(q.pop().unwrap().thread, ThreadId(2));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn attr_change_constructors() {
        let c = AttrChange::set_priority(ThreadId(1), Priority::new(9));
        assert_eq!(c.prio, Some(Priority::new(9)));
        assert_eq!(c.earliest, None);
        let e = AttrChange::set_earliest(ThreadId(1), Time::from_nanos(5));
        assert_eq!(e.prio, None);
        assert_eq!(e.earliest, Some(Time::from_nanos(5)));
    }

    struct NopPolicy;
    impl SchedulerPolicy for NopPolicy {
        fn name(&self) -> &str {
            "nop"
        }
        fn on_notification(
            &mut self,
            _n: &Notification,
            _live: &[ThreadSnapshot],
        ) -> Vec<AttrChange> {
            Vec::new()
        }
    }

    #[test]
    fn default_subscriptions_are_atv_trm() {
        let p = NopPolicy;
        assert_eq!(
            p.subscriptions(),
            &[NotificationKind::Atv, NotificationKind::Trm]
        );
    }
}
