//! The Spring planner as a run-time HADES scheduler task.
//!
//! Section 3.1.2 of the paper: the `earliest` attribute "can be assigned to
//! a Code_EU either statically or dynamically. These two kinds of
//! definitions serve respectively at implementing static and dynamic
//! planning-based scheduling algorithms." This policy is the dynamic kind:
//! on every activation it re-plans the unstarted threads non-preemptively
//! and pushes the planned start times through the dispatcher primitive as
//! `earliest` values (plus matching priorities).
//!
//! Spring-style **admission control** falls out naturally: when the new
//! arrival cannot be added to a feasible plan it is *rejected* — its
//! earliest start is pushed past its deadline so it cannot disturb the
//! guaranteed work, and the dispatcher's monitoring records the miss. The
//! previously guaranteed threads keep their plan.

use crate::spring::{SpringHeuristic, SpringPlanner, SpringRequest};
use hades_dispatch::{
    AttrChange, Notification, NotificationKind, SchedulerPolicy, ThreadId, ThreadSnapshot,
};
use hades_task::Priority;
use hades_time::Duration;
use std::collections::HashSet;

/// Priority band for planned threads (below EDF's band; plan order decides
/// within the band).
const PLAN_BASE: u32 = 500_000;

/// Priority given to started threads: above every planned priority, so
/// admitted work runs non-preemptively to completion.
const RUNNING_BAND: u32 = 600_000;

/// Planning-based scheduler policy with admission control.
///
/// # Examples
///
/// ```
/// use hades_dispatch::{DispatchSim, SimConfig};
/// use hades_sched::SpringPolicy;
/// use hades_task::prelude::*;
///
/// let t = Task::new(
///     TaskId(0),
///     Heug::single(CodeEu::new("job", Duration::from_micros(50), ProcessorId(0)))?,
///     ArrivalLaw::Periodic(Duration::from_millis(1)),
///     Duration::from_millis(1),
/// );
/// let mut sim = DispatchSim::new(TaskSet::new(vec![t])?, SimConfig::ideal(Duration::from_millis(3)));
/// sim.set_policy(0, Box::new(SpringPolicy::new()));
/// assert!(sim.run().all_deadlines_met());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SpringPolicy {
    planner: SpringPlanner,
    rejected: HashSet<ThreadId>,
    rejections: u64,
    plans: u64,
}

impl SpringPolicy {
    /// Creates a planner policy with the minimum-deadline heuristic.
    pub fn new() -> Self {
        SpringPolicy::with_heuristic(SpringHeuristic::MinDeadline)
    }

    /// Creates a planner policy with an explicit heuristic.
    pub fn with_heuristic(heuristic: SpringHeuristic) -> Self {
        SpringPolicy {
            planner: SpringPlanner::new(heuristic),
            rejected: HashSet::new(),
            rejections: 0,
            plans: 0,
        }
    }

    /// Number of arrivals rejected by admission control so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Number of successful re-plans issued so far.
    pub fn plans(&self) -> u64 {
        self.plans
    }

    /// Residual CPU occupancy of already-started threads: planned work is
    /// non-preemptive, so a started thread runs continuously from its
    /// first dispatch and still needs `wcet − (now − first_run)`.
    fn busy_until(live: &[ThreadSnapshot], now: hades_time::Time) -> hades_time::Time {
        let residual: Duration = live
            .iter()
            .filter(|s| s.started)
            .map(|s| {
                let ran = s
                    .first_run
                    .map(|f| now - f.min(now))
                    .unwrap_or(Duration::ZERO);
                s.wcet.saturating_sub(ran)
            })
            .fold(Duration::ZERO, Duration::saturating_add);
        now.saturating_add(residual)
    }

    fn requests_of(&self, live: &[ThreadSnapshot], now: hades_time::Time) -> Vec<SpringRequest> {
        let busy = Self::busy_until(live, now);
        live.iter()
            .filter(|s| !s.started && !self.rejected.contains(&s.thread))
            .map(|s| SpringRequest {
                id: s.thread.0 as u32,
                arrival: busy.max(s.activation),
                wcet: s.wcet,
                deadline: s.abs_deadline,
            })
            .collect()
    }

    fn changes_from_plan(
        &mut self,
        plan: &crate::spring::SpringSchedule,
        live: &[ThreadSnapshot],
    ) -> Vec<AttrChange> {
        self.plans += 1;
        let mut changes = Vec::new();
        // Started threads run to completion ahead of any planned work:
        // keep them above the planning band (non-preemptive semantics).
        for s in live.iter().filter(|s| s.started) {
            let prio = Priority::new(RUNNING_BAND);
            if s.prio < prio {
                changes.push(AttrChange::set_priority(s.thread, prio));
            }
        }
        // Earlier slot → higher priority; earliest = planned start.
        let n = plan.slots.len() as u32;
        for (rank, slot) in plan.slots.iter().enumerate() {
            let tid = ThreadId(slot.id as u64);
            let prio = Priority::new(PLAN_BASE + (n - rank as u32));
            let snap = live
                .iter()
                .find(|s| s.thread == tid)
                .expect("planned thread is live");
            if snap.prio != prio || snap.earliest != slot.start {
                changes.push(AttrChange {
                    thread: tid,
                    prio: Some(prio),
                    earliest: Some(slot.start),
                });
            }
        }
        changes
    }
}

impl Default for SpringPolicy {
    fn default() -> Self {
        SpringPolicy::new()
    }
}

impl SchedulerPolicy for SpringPolicy {
    fn name(&self) -> &str {
        "Spring"
    }

    fn subscriptions(&self) -> &'static [NotificationKind] {
        &[NotificationKind::Atv]
    }

    fn on_notification(&mut self, n: &Notification, live: &[ThreadSnapshot]) -> Vec<AttrChange> {
        let now = n.at;
        self.rejected
            .retain(|t| live.iter().any(|s| s.thread == *t));
        let requests = self.requests_of(live, now);
        if requests.is_empty() {
            return Vec::new();
        }
        if let Some(plan) = self.planner.plan(&requests) {
            return self.changes_from_plan(&plan, live);
        }
        // Admission control: reject the newcomer, keep the guaranteed set.
        self.rejected.insert(n.thread);
        self.rejections += 1;
        let mut changes = Vec::new();
        if let Some(victim) = live.iter().find(|s| s.thread == n.thread) {
            // Park the rejected thread past its deadline at bottom priority
            // so it cannot disturb guaranteed work; the dispatcher's
            // deadline monitoring surfaces the rejection.
            changes.push(AttrChange {
                thread: victim.thread,
                prio: Some(Priority::MIN),
                earliest: Some(victim.abs_deadline + Duration::from_nanos(1)),
            });
        }
        let remaining = self.requests_of(live, now);
        if let Some(plan) = self.planner.plan(&remaining) {
            changes.extend(self.changes_from_plan(&plan, live));
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_dispatch::{DispatchSim, SimConfig};
    use hades_task::prelude::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn aperiodic(id: u32, wcet: Duration, deadline: Duration) -> Task {
        Task::new(
            TaskId(id),
            Heug::single(CodeEu::new(format!("t{id}"), wcet, ProcessorId(0))).unwrap(),
            ArrivalLaw::Aperiodic,
            deadline,
        )
    }

    fn overload_sim(policy: Box<dyn SchedulerPolicy>) -> hades_dispatch::RunReport {
        // Three 400 µs jobs all due at 1 ms: only two fit.
        let tasks = vec![
            aperiodic(0, us(400), us(1_000)),
            aperiodic(1, us(400), us(1_000)),
            aperiodic(2, us(400), us(1_000)),
        ];
        let set = TaskSet::new(tasks).unwrap();
        let mut cfg = SimConfig::ideal(us(5_000));
        cfg.auto_activate = false;
        let mut sim = DispatchSim::new(set, cfg);
        sim.set_policy(0, policy);
        sim.activate_at(TaskId(0), Time::ZERO);
        sim.activate_at(TaskId(1), Time::ZERO);
        sim.activate_at(TaskId(2), Time::ZERO);
        sim.run()
    }

    #[test]
    fn guarantees_survive_overload() {
        // Spring sheds exactly the load that does not fit: 1 miss.
        let report = overload_sim(Box::new(SpringPolicy::new()));
        assert_eq!(report.misses(), 1, "exactly the rejected job misses");
        // The two guaranteed jobs complete by their deadline.
        let met = report.instances.len() - report.misses();
        assert_eq!((report.instances.len(), met), (3, 2));
    }

    #[test]
    fn edf_suffers_domino_misses_on_the_same_overload() {
        // Contrast: EDF shares the lateness — at 120% load, with equal
        // deadlines every job finishes near 1.2 ms, so the *last-ranked*
        // jobs miss; Spring's outcome above is strictly better in misses.
        let report = overload_sim(Box::new(crate::EdfPolicy::new()));
        assert!(
            report.misses() >= 1,
            "EDF cannot avoid misses under overload either"
        );
        let spring_report = overload_sim(Box::new(SpringPolicy::new()));
        assert!(spring_report.misses() <= report.misses());
    }

    #[test]
    fn feasible_load_is_fully_planned() {
        let tasks = vec![
            aperiodic(0, us(200), us(1_000)),
            aperiodic(1, us(200), us(800)),
            aperiodic(2, us(200), us(600)),
        ];
        let set = TaskSet::new(tasks).unwrap();
        let mut cfg = SimConfig::ideal(us(5_000));
        cfg.auto_activate = false;
        let mut sim = DispatchSim::new(set, cfg);
        sim.set_policy(0, Box::new(SpringPolicy::new()));
        sim.activate_at(TaskId(0), Time::ZERO);
        sim.activate_at(TaskId(1), Time::ZERO);
        sim.activate_at(TaskId(2), Time::ZERO);
        let report = sim.run();
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn periodic_stream_is_guaranteed() {
        let t = Task::new(
            TaskId(0),
            Heug::single(CodeEu::new("p", us(100), ProcessorId(0))).unwrap(),
            ArrivalLaw::Periodic(us(1_000)),
            us(1_000),
        );
        let set = TaskSet::new(vec![t]).unwrap();
        let mut sim = DispatchSim::new(set, SimConfig::ideal(us(10_000)));
        sim.set_policy(0, Box::new(SpringPolicy::new()));
        let report = sim.run();
        assert!(report.all_deadlines_met());
        assert_eq!(report.instances.len(), 11);
    }

    #[test]
    fn policy_metadata() {
        let p = SpringPolicy::new();
        assert_eq!(p.name(), "Spring");
        assert_eq!(p.subscriptions(), &[NotificationKind::Atv]);
        assert_eq!(p.rejections(), 0);
        assert_eq!(p.plans(), 0);
    }
}
