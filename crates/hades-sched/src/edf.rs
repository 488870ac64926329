//! Earliest Deadline First as a HADES scheduler task (Figure 2).
//!
//! EDF is a *dynamic* policy: priorities change at run time. In HADES that
//! means a scheduler task at the highest application priority that blocks
//! on the notification FIFO; on every `Atv` and `Trm` it reorders the live
//! threads by absolute deadline and pushes the new priorities through the
//! dispatcher primitive — the exact cooperation shown in Figure 2 of the
//! paper, where activating a tighter-deadline thread causes the scheduler
//! to raise its priority above the running one.

use hades_dispatch::{AttrChange, Notification, SchedulerPolicy, ThreadSnapshot};
use hades_task::Priority;

/// Priority level handed to the thread with the *latest* deadline; earlier
/// deadlines get higher levels. Chosen high enough not to collide with
/// static background assignments.
const EDF_BASE: u32 = 1_000_000;

/// The EDF scheduler policy.
///
/// # Examples
///
/// ```
/// use hades_dispatch::{DispatchSim, SimConfig};
/// use hades_sched::EdfPolicy;
/// use hades_task::prelude::*;
///
/// let t = Task::new(
///     TaskId(0),
///     Heug::single(CodeEu::new("job", Duration::from_micros(50), ProcessorId(0)))?,
///     ArrivalLaw::Periodic(Duration::from_millis(1)),
///     Duration::from_millis(1),
/// );
/// let mut sim = DispatchSim::new(TaskSet::new(vec![t])?, SimConfig::ideal(Duration::from_millis(3)));
/// sim.set_policy(0, Box::new(EdfPolicy::new()));
/// assert!(sim.run().all_deadlines_met());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct EdfPolicy {
    reassignments: u64,
    /// The live threads' indices in priority order, kept between
    /// notifications so ordering them allocates once.
    order: Vec<usize>,
}

impl EdfPolicy {
    /// Creates an EDF policy.
    pub fn new() -> Self {
        EdfPolicy::default()
    }

    /// How many priority reassignments the policy has issued (for tests
    /// and experiment accounting).
    pub fn reassignments(&self) -> u64 {
        self.reassignments
    }
}

impl SchedulerPolicy for EdfPolicy {
    fn name(&self) -> &str {
        "EDF"
    }

    fn on_notification(&mut self, _n: &Notification, live: &[ThreadSnapshot]) -> Vec<AttrChange> {
        // Order live threads: earliest absolute deadline → highest
        // priority. Ties break on thread id for determinism.
        // Thread ids are unique, so the order is total and an unstable
        // sort gives the same ranks as a stable one.
        self.order.clear();
        self.order.extend(0..live.len());
        self.order.sort_unstable_by(|&a, &b| {
            let (a, b) = (&live[a], &live[b]);
            b.abs_deadline
                .cmp(&a.abs_deadline)
                .then(b.thread.cmp(&a.thread))
        });
        let mut changes = Vec::new();
        for (rank, snap) in self.order.iter().map(|&i| &live[i]).enumerate() {
            let prio = Priority::new(EDF_BASE + rank as u32);
            if snap.prio != prio {
                changes.push(AttrChange::set_priority(snap.thread, prio));
            }
        }
        self.reassignments += changes.len() as u64;
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_dispatch::{NotificationKind, ThreadId, ThreadState};
    use hades_time::Time;

    fn snap(id: u64, deadline_ns: u64, prio: u32) -> ThreadSnapshot {
        ThreadSnapshot {
            thread: ThreadId(id),
            task: hades_task::TaskId(id as u32),
            prio: Priority::new(prio),
            abs_deadline: Time::from_nanos(deadline_ns),
            earliest: Time::ZERO,
            activation: Time::ZERO,
            wcet: hades_time::Duration::from_micros(10),
            started: false,
            first_run: None,
            state: ThreadState::Runnable,
        }
    }

    fn notif() -> Notification {
        Notification {
            kind: NotificationKind::Atv,
            thread: ThreadId(0),
            at: Time::ZERO,
        }
    }

    #[test]
    fn tighter_deadline_gets_higher_priority() {
        let mut p = EdfPolicy::new();
        let live = vec![snap(1, 1000, 0), snap(2, 500, 0)];
        let changes = p.on_notification(&notif(), &live);
        let prio_of = |tid: u64| {
            changes
                .iter()
                .find(|c| c.thread == ThreadId(tid))
                .and_then(|c| c.prio)
                .unwrap()
        };
        assert!(prio_of(2) > prio_of(1));
        assert_eq!(p.reassignments(), 2);
    }

    #[test]
    fn already_correct_priorities_produce_no_changes() {
        let mut p = EdfPolicy::new();
        // Deadline 500 ranked above deadline 1000.
        let live = vec![snap(1, 1000, EDF_BASE), snap(2, 500, EDF_BASE + 1)];
        let changes = p.on_notification(&notif(), &live);
        assert!(changes.is_empty());
        assert_eq!(p.reassignments(), 0);
    }

    #[test]
    fn deadline_ties_break_by_thread_id() {
        let mut p = EdfPolicy::new();
        let live = vec![snap(2, 500, 0), snap(1, 500, 0)];
        let changes = p.on_notification(&notif(), &live);
        let prio_of = |tid: u64| {
            changes
                .iter()
                .find(|c| c.thread == ThreadId(tid))
                .and_then(|c| c.prio)
                .unwrap()
        };
        assert!(prio_of(1) > prio_of(2), "lower id wins the tie");
    }

    #[test]
    fn empty_live_set_is_a_noop() {
        let mut p = EdfPolicy::new();
        assert!(p.on_notification(&notif(), &[]).is_empty());
    }

    #[test]
    fn name_and_subscriptions() {
        let p = EdfPolicy::new();
        assert_eq!(p.name(), "EDF");
        assert_eq!(
            p.subscriptions(),
            &[NotificationKind::Atv, NotificationKind::Trm]
        );
    }
}
