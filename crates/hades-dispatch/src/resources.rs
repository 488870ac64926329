//! Run-time resource allocation with PCP and SRP support.
//!
//! Resources are granted to a `Code_EU` *as a block* when its thread first
//! starts and released when it ends — actions never synchronize internally
//! (Section 3.3), so there is no hold-and-wait within a unit and blocking
//! times stay analysable. On top of plain compatible-mode granting, the
//! dispatcher implements the two multiple-priority-inversion-avoidance
//! protocols the paper cites:
//!
//! * **PCP** (Priority Ceiling Protocol, \[CL90\]): a thread may acquire its
//!   resources only if its priority exceeds the ceilings of all resources
//!   locked by other threads; otherwise it blocks and the holders inherit
//!   its priority.
//! * **SRP** (Stack Resource Policy, \[Bak91\]): a thread may *start* only
//!   when its preemption level exceeds the current system ceiling; once
//!   started it never blocks on resources.

use crate::thread::ThreadId;
use hades_task::{AccessMode, Priority, ResourceId, ResourceUse, TaskId};
use std::collections::HashMap;

/// The resource-access protocol in force on a node.
#[derive(Debug, Clone, Default)]
pub enum ResourceProtocol {
    /// Plain granting: block while any incompatible holder exists.
    /// Vulnerable to unbounded priority inversion — kept as the baseline
    /// for the PCP/SRP experiments.
    #[default]
    None,
    /// Priority Ceiling Protocol with precomputed per-resource ceilings
    /// (the highest priority of any task using the resource).
    Pcp {
        /// Ceiling priority per resource.
        ceilings: HashMap<ResourceId, Priority>,
    },
    /// Stack Resource Policy with precomputed preemption levels and
    /// resource ceilings (in preemption-level units).
    Srp {
        /// Preemption level per task (higher = tighter deadline). Tasks
        /// absent from the map are unrestricted (level `u32::MAX`).
        levels: HashMap<TaskId, u32>,
        /// Ceiling (max preemption level of users) per resource.
        ceilings: HashMap<ResourceId, u32>,
    },
}

impl ResourceProtocol {
    /// Short name for traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ResourceProtocol::None => "none",
            ResourceProtocol::Pcp { .. } => "PCP",
            ResourceProtocol::Srp { .. } => "SRP",
        }
    }
}

/// Outcome of an admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Resources granted (and recorded); the thread may start.
    Granted,
    /// The thread must wait. Under PCP, `boost` lists holders that must
    /// inherit the requester's priority.
    Blocked {
        /// `(holder, inherited priority)` pairs for priority inheritance.
        boost: Vec<(ThreadId, Priority)>,
    },
}

#[derive(Debug, Clone)]
struct Hold {
    thread: ThreadId,
    mode: AccessMode,
}

/// The per-node resource manager.
#[derive(Debug, Default)]
pub struct ResourceManager {
    protocol: ResourceProtocol,
    holders: HashMap<ResourceId, Vec<Hold>>,
    /// SRP: stack of (thread, ceiling-at-entry) for started threads that
    /// hold resources; the system ceiling is the max of active entries.
    srp_locked: Vec<(ThreadId, u32)>,
}

impl ResourceManager {
    /// Creates a manager running the given protocol.
    pub fn new(protocol: ResourceProtocol) -> Self {
        ResourceManager {
            protocol,
            holders: HashMap::new(),
            srp_locked: Vec::new(),
        }
    }

    /// The protocol in force.
    pub fn protocol(&self) -> &ResourceProtocol {
        &self.protocol
    }

    /// Current SRP system ceiling (0 when nothing is locked or protocol is
    /// not SRP).
    pub fn system_ceiling(&self) -> u32 {
        self.srp_locked.iter().map(|(_, c)| *c).max().unwrap_or(0)
    }

    fn mode_conflict(&self, thread: ThreadId, uses: &[ResourceUse]) -> Option<ThreadId> {
        for u in uses {
            if let Some(hs) = self.holders.get(&u.id) {
                for h in hs {
                    if h.thread != thread && !h.mode.compatible_with(u.mode) {
                        return Some(h.thread);
                    }
                }
            }
        }
        None
    }

    fn srp_level(levels: &HashMap<TaskId, u32>, task: TaskId) -> u32 {
        levels.get(&task).copied().unwrap_or(u32::MAX)
    }

    /// Attempts to admit `thread` of `task` at `prio` with resource
    /// requirements `uses`. On [`Admission::Granted`] the holds (and, for
    /// SRP, the ceiling-stack entry) are recorded.
    ///
    /// Under SRP the admission test applies to **every** thread, even one
    /// with no resource requirements: a thread may start only when its
    /// preemption level exceeds the system ceiling, which is precisely what
    /// bounds blocking to a single critical section.
    pub fn try_admit(
        &mut self,
        thread: ThreadId,
        task: TaskId,
        prio: Priority,
        uses: &[ResourceUse],
    ) -> Admission {
        match &self.protocol {
            ResourceProtocol::None => {
                if let Some(_blocker) = self.mode_conflict(thread, uses) {
                    return Admission::Blocked { boost: Vec::new() };
                }
                self.grant(thread, uses, 0);
                Admission::Granted
            }
            ResourceProtocol::Pcp { ceilings } => {
                // The ceiling rule only applies to lock acquisitions; a
                // thread using no resources starts freely.
                if uses.is_empty() {
                    return Admission::Granted;
                }
                if let Some(blocker) = self.mode_conflict(thread, uses) {
                    return Admission::Blocked {
                        boost: vec![(blocker, prio)],
                    };
                }
                // Ceiling rule: prio must exceed ceilings of resources
                // locked by *other* threads.
                let mut boost = Vec::new();
                for (res, hs) in &self.holders {
                    let foreign: Vec<&Hold> = hs.iter().filter(|h| h.thread != thread).collect();
                    if foreign.is_empty() {
                        continue;
                    }
                    if let Some(ceiling) = ceilings.get(res) {
                        if prio <= *ceiling {
                            for h in foreign {
                                boost.push((h.thread, prio));
                            }
                        }
                    }
                }
                if !boost.is_empty() {
                    boost.sort();
                    boost.dedup();
                    return Admission::Blocked { boost };
                }
                self.grant(thread, uses, 0);
                Admission::Granted
            }
            ResourceProtocol::Srp { levels, ceilings } => {
                let level = Self::srp_level(levels, task);
                if level <= self.system_ceiling() {
                    return Admission::Blocked { boost: Vec::new() };
                }
                debug_assert!(
                    self.mode_conflict(thread, uses).is_none(),
                    "SRP admitted a thread into a mode conflict; ceilings are inconsistent"
                );
                let entry_ceiling = uses
                    .iter()
                    .filter_map(|u| ceilings.get(&u.id).copied())
                    .max()
                    .unwrap_or(0);
                self.grant(thread, uses, entry_ceiling);
                Admission::Granted
            }
        }
    }

    fn grant(&mut self, thread: ThreadId, uses: &[ResourceUse], srp_ceiling: u32) {
        for u in uses {
            self.holders.entry(u.id).or_default().push(Hold {
                thread,
                mode: u.mode,
            });
        }
        if srp_ceiling > 0 {
            self.srp_locked.push((thread, srp_ceiling));
        }
    }

    /// Releases everything `thread` holds (resources and SRP ceiling
    /// entry). Returns `true` if anything was released — the caller should
    /// then re-examine blocked threads.
    pub fn release_all(&mut self, thread: ThreadId) -> bool {
        let mut released = false;
        self.holders.retain(|_, hs| {
            let before = hs.len();
            hs.retain(|h| h.thread != thread);
            released |= hs.len() != before;
            !hs.is_empty()
        });
        let before = self.srp_locked.len();
        self.srp_locked.retain(|(t, _)| *t != thread);
        released |= self.srp_locked.len() != before;
        released
    }
}

/// Computes PCP ceilings from a task set: the ceiling of a resource is the
/// highest base priority of any `Code_EU` that uses it.
pub fn pcp_ceilings(tasks: &hades_task::TaskSet) -> HashMap<ResourceId, Priority> {
    let mut out: HashMap<ResourceId, Priority> = HashMap::new();
    for task in tasks {
        for eu in task.heug.eus() {
            if let Some(code) = eu.as_code() {
                for u in &code.resources {
                    let entry = out.entry(u.id).or_insert(Priority::MIN);
                    *entry = (*entry).max(code.timing.prio);
                }
            }
        }
    }
    out
}

/// Computes SRP preemption levels (rank by relative deadline: tighter
/// deadline → higher level) and resource ceilings (max level of any user).
pub fn srp_parameters(
    tasks: &hades_task::TaskSet,
) -> (HashMap<TaskId, u32>, HashMap<ResourceId, u32>) {
    let mut by_deadline: Vec<(TaskId, hades_time::Duration)> =
        tasks.iter().map(|t| (t.id, t.deadline)).collect();
    // Longest deadline gets level 1; ties share by order.
    by_deadline.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let levels: HashMap<TaskId, u32> = by_deadline
        .iter()
        .enumerate()
        .map(|(i, (id, _))| (*id, i as u32 + 1))
        .collect();
    let mut ceilings: HashMap<ResourceId, u32> = HashMap::new();
    for task in tasks {
        let level = levels[&task.id];
        for eu in task.heug.eus() {
            if let Some(code) = eu.as_code() {
                for u in &code.resources {
                    let entry = ceilings.entry(u.id).or_insert(0);
                    *entry = (*entry).max(level);
                }
            }
        }
    }
    (levels, ceilings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: ResourceId = ResourceId(0);
    const R1: ResourceId = ResourceId(1);

    fn excl(r: ResourceId) -> Vec<ResourceUse> {
        vec![ResourceUse::exclusive(r)]
    }

    fn shared(r: ResourceId) -> Vec<ResourceUse> {
        vec![ResourceUse::shared(r)]
    }

    #[test]
    fn plain_grant_and_conflict() {
        let mut m = ResourceManager::new(ResourceProtocol::None);
        assert_eq!(
            m.try_admit(ThreadId(1), TaskId(0), Priority::new(1), &excl(R0)),
            Admission::Granted
        );
        assert_eq!(
            m.try_admit(ThreadId(2), TaskId(1), Priority::new(9), &excl(R0)),
            Admission::Blocked { boost: Vec::new() }
        );
        assert!(m.release_all(ThreadId(1)));
        assert_eq!(
            m.try_admit(ThreadId(2), TaskId(1), Priority::new(9), &excl(R0)),
            Admission::Granted
        );
    }

    #[test]
    fn shared_holders_coexist() {
        let mut m = ResourceManager::new(ResourceProtocol::None);
        assert_eq!(
            m.try_admit(ThreadId(1), TaskId(0), Priority::new(1), &shared(R0)),
            Admission::Granted
        );
        assert_eq!(
            m.try_admit(ThreadId(2), TaskId(1), Priority::new(1), &shared(R0)),
            Admission::Granted
        );
        // A writer must wait for both readers.
        assert!(matches!(
            m.try_admit(ThreadId(3), TaskId(2), Priority::new(5), &excl(R0)),
            Admission::Blocked { .. }
        ));
    }

    #[test]
    fn release_without_holds_is_noop() {
        let mut m = ResourceManager::new(ResourceProtocol::None);
        assert!(!m.release_all(ThreadId(7)));
    }

    #[test]
    fn pcp_ceiling_blocks_and_boosts() {
        let ceilings: HashMap<ResourceId, Priority> =
            [(R0, Priority::new(9))].into_iter().collect();
        let mut m = ResourceManager::new(ResourceProtocol::Pcp { ceilings });
        // Low-priority thread takes R0.
        assert_eq!(
            m.try_admit(ThreadId(1), TaskId(0), Priority::new(2), &excl(R0)),
            Admission::Granted
        );
        // A mid-priority thread using a *different* resource is still
        // blocked by the ceiling rule, and the holder inherits its prio.
        let adm = m.try_admit(ThreadId(2), TaskId(1), Priority::new(5), &excl(R1));
        assert_eq!(
            adm,
            Admission::Blocked {
                boost: vec![(ThreadId(1), Priority::new(5))]
            }
        );
        // A thread above the ceiling passes.
        assert_eq!(
            m.try_admit(ThreadId(3), TaskId(2), Priority::new(10), &excl(R1)),
            Admission::Granted
        );
    }

    #[test]
    fn pcp_direct_conflict_boosts_holder() {
        let ceilings: HashMap<ResourceId, Priority> =
            [(R0, Priority::new(9))].into_iter().collect();
        let mut m = ResourceManager::new(ResourceProtocol::Pcp { ceilings });
        m.try_admit(ThreadId(1), TaskId(0), Priority::new(2), &excl(R0));
        let adm = m.try_admit(ThreadId(2), TaskId(1), Priority::new(8), &excl(R0));
        assert_eq!(
            adm,
            Admission::Blocked {
                boost: vec![(ThreadId(1), Priority::new(8))]
            }
        );
    }

    #[test]
    fn pcp_resource_free_thread_passes() {
        let ceilings: HashMap<ResourceId, Priority> =
            [(R0, Priority::new(9))].into_iter().collect();
        let mut m = ResourceManager::new(ResourceProtocol::Pcp { ceilings });
        m.try_admit(ThreadId(1), TaskId(0), Priority::new(2), &excl(R0));
        // No resources requested: no ceiling check applies.
        assert_eq!(
            m.try_admit(ThreadId(2), TaskId(1), Priority::new(5), &[]),
            Admission::Granted
        );
    }

    fn srp_manager() -> ResourceManager {
        let levels: HashMap<TaskId, u32> = [(TaskId(0), 1), (TaskId(1), 2), (TaskId(2), 3)]
            .into_iter()
            .collect();
        let ceilings: HashMap<ResourceId, u32> = [(R0, 3)].into_iter().collect();
        ResourceManager::new(ResourceProtocol::Srp { levels, ceilings })
    }

    #[test]
    fn srp_gates_start_by_preemption_level() {
        let mut m = srp_manager();
        // Level-1 task locks R0 (ceiling 3): system ceiling becomes 3.
        assert_eq!(
            m.try_admit(ThreadId(1), TaskId(0), Priority::new(1), &excl(R0)),
            Admission::Granted
        );
        assert_eq!(m.system_ceiling(), 3);
        // Level-2 task cannot start even without resources.
        assert_eq!(
            m.try_admit(ThreadId(2), TaskId(1), Priority::new(5), &[]),
            Admission::Blocked { boost: Vec::new() }
        );
        // Level-3 task cannot start either (must be strictly greater).
        assert_eq!(
            m.try_admit(ThreadId(3), TaskId(2), Priority::new(9), &[]),
            Admission::Blocked { boost: Vec::new() }
        );
        // Release: everyone passes again.
        assert!(m.release_all(ThreadId(1)));
        assert_eq!(m.system_ceiling(), 0);
        assert_eq!(
            m.try_admit(ThreadId(2), TaskId(1), Priority::new(5), &[]),
            Admission::Granted
        );
    }

    #[test]
    fn srp_unlisted_task_is_unrestricted() {
        let mut m = srp_manager();
        m.try_admit(ThreadId(1), TaskId(0), Priority::new(1), &excl(R0));
        assert_eq!(
            m.try_admit(ThreadId(9), TaskId(42), Priority::new(1), &[]),
            Admission::Granted
        );
    }

    #[test]
    fn srp_resource_free_sections_do_not_raise_ceiling() {
        let mut m = srp_manager();
        assert_eq!(
            m.try_admit(ThreadId(1), TaskId(2), Priority::new(1), &[]),
            Admission::Granted
        );
        assert_eq!(m.system_ceiling(), 0);
    }

    #[test]
    fn protocol_names() {
        assert_eq!(ResourceProtocol::None.name(), "none");
        assert_eq!(srp_manager().protocol().name(), "SRP");
        let pcp = ResourceProtocol::Pcp {
            ceilings: HashMap::new(),
        };
        assert_eq!(pcp.name(), "PCP");
    }

    mod parameter_computation {
        use super::*;
        use hades_task::prelude::*;

        fn task_with_resource(
            id: u32,
            prio: u32,
            deadline_us: u64,
            res: Option<ResourceId>,
        ) -> Task {
            let mut eu = CodeEu::new(format!("t{id}"), Duration::from_micros(10), ProcessorId(0))
                .with_priority(Priority::new(prio));
            if let Some(r) = res {
                eu = eu.with_resource(ResourceUse::exclusive(r));
            }
            Task::new(
                TaskId(id),
                Heug::single(eu).unwrap(),
                ArrivalLaw::Sporadic(Duration::from_millis(1)),
                Duration::from_micros(deadline_us),
            )
        }

        #[test]
        fn pcp_ceilings_take_max_user_priority() {
            let set = TaskSet::new(vec![
                task_with_resource(0, 2, 100, Some(R0)),
                task_with_resource(1, 8, 200, Some(R0)),
                task_with_resource(2, 5, 300, None),
            ])
            .unwrap();
            let c = pcp_ceilings(&set);
            assert_eq!(c.get(&R0), Some(&Priority::new(8)));
            assert_eq!(c.len(), 1);
        }

        #[test]
        fn srp_levels_rank_by_deadline() {
            let set = TaskSet::new(vec![
                task_with_resource(0, 1, 300, Some(R0)), // longest deadline → level 1
                task_with_resource(1, 1, 100, Some(R0)), // tightest → level 3
                task_with_resource(2, 1, 200, None),     // level 2
            ])
            .unwrap();
            let (levels, ceilings) = srp_parameters(&set);
            assert_eq!(levels[&TaskId(0)], 1);
            assert_eq!(levels[&TaskId(2)], 2);
            assert_eq!(levels[&TaskId(1)], 3);
            assert_eq!(ceilings[&R0], 3, "ceiling = max user level");
        }
    }
}
