//! Validation and lowering: the spec checked as a whole, its services
//! lowered, the task set assembled and analysed.

use super::*;
use std::ops::ControlFlow;

/// One application task as the checks see it, before any is built.
struct TaskEntry<'a> {
    /// The registering service's index; `None` for a scripted
    /// mode-change introduction.
    service: Option<usize>,
    node: u32,
    id: TaskId,
    /// The units of a raw or introduced task. A periodic service's one
    /// unit is homed on its node by construction.
    heug: Option<&'a hades_task::Heug>,
}

/// Auto-assigned task ids: ascending from zero over the periodic
/// services, skipping every id a raw task service takes.
fn auto_ids(services: &[ServiceSpec]) -> impl FnMut() -> TaskId {
    let mut taken: Vec<TaskId> = services
        .iter()
        .filter_map(|s| match &s.kind {
            ServiceKind::Task { task, .. } => Some(task.id),
            _ => None,
        })
        .collect();
    taken.sort_unstable();
    let mut next = 0;
    move || {
        while taken.binary_search(&TaskId(next)).is_ok() {
            next += 1;
        }
        next += 1;
        TaskId(next - 1)
    }
}

impl ClusterSpec {
    /// Checks the spec, then lowers it into the runtime's flat form.
    pub(super) fn lower(self) -> Result<Lowered, SpecError> {
        let mut admission_periods = self.check()?.into_iter();
        let mut next_id = auto_ids(&self.services);
        let mut app_tasks = Vec::new();
        let mut groups = Vec::new();
        let mut service_infos = Vec::with_capacity(self.services.len());
        for service in &self.services {
            let (node, task) = match &service.kind {
                ServiceKind::Replicated {
                    style,
                    members,
                    load,
                    workload,
                } => {
                    let mut members = members.clone();
                    members.sort_unstable();
                    let source = workload.build_source(self.horizon);
                    if service.standby {
                        // A standby group's members run from time zero
                        // (admission needs no warm-up), but its request
                        // stream is paused until a driver admits the
                        // service — admission retunes the source back to
                        // nominal rate from the admission instant.
                        source.borrow_mut().throttle(Time::ZERO, 0);
                    }
                    service_infos.push(LoweredService::Group {
                        group: groups.len(),
                    });
                    groups.push(LoweredGroup {
                        style: *style,
                        members,
                        load: *load,
                        source,
                        admission_period: admission_periods.next().expect("one per group"),
                    });
                    continue;
                }
                ServiceKind::Periodic { node, wcet, period } => {
                    let heug = single_heug(&service.name, *node, *wcet);
                    let arrival = hades_task::ArrivalLaw::Periodic(*period);
                    (*node, Task::new(next_id(), heug, arrival, *period))
                }
                ServiceKind::Task { node, task } => (*node, task.clone()),
            };
            service_infos.push(LoweredService::Tasks {
                ids: vec![task.id.0],
                standby: service.standby,
            });
            app_tasks.push((node, task));
        }
        Ok(Lowered {
            spec: self,
            app_tasks,
            groups,
            service_infos,
        })
    }

    /// Checks the whole spec, collecting every finding in validation
    /// order. Borrows the spec and builds none of its runtime form; what
    /// it returns is each replicated service's admission period, in
    /// registration order.
    pub(super) fn check(&self) -> Result<Vec<Duration>, SpecError> {
        let mut admission_periods = Vec::new();
        let mut issues = Vec::new();
        if self.nodes < 2 {
            issues.push(SpecIssue::TooFewNodes { nodes: self.nodes });
        }
        if self.nodes > MAX_CLUSTER_NODES {
            issues.push(SpecIssue::TooManyNodes {
                nodes: self.nodes,
                max: MAX_CLUSTER_NODES,
            });
        }
        for (node, at) in self.scenario.orphan_restarts() {
            issues.push(SpecIssue::RestartWithoutCrash { node: node.0, at });
        }
        for (index, service) in self.services.iter().enumerate() {
            let sref = || service.service_ref(index);
            if service.stray_workload {
                issues.push(SpecIssue::WorkloadWithoutGroup { service: sref() });
            }
            match &service.kind {
                ServiceKind::Replicated {
                    members, workload, ..
                } => match self.check_group(members, workload.as_ref(), sref) {
                    Ok(period) => admission_periods.push(period),
                    Err(issue) => issues.push(issue),
                },
                ServiceKind::Periodic { period, .. } if period.is_zero() => {
                    issues.push(SpecIssue::ZeroPeriod { service: sref() });
                }
                _ => {}
            }
        }
        self.task_issues(&mut issues);
        if issues.is_empty() {
            Ok(admission_periods)
        } else {
            Err(SpecError { issues })
        }
    }

    /// A replicated service's admission period, or its first finding:
    /// its members are checked, then its workload.
    fn check_group(
        &self,
        members: &[u32],
        workload: &dyn Workload,
        service: impl FnOnce() -> ServiceRef,
    ) -> Result<Duration, SpecIssue> {
        if members.is_empty() {
            return Err(SpecIssue::EmptyMembers { service: service() });
        }
        // Sorted, the members name their smallest repeated and smallest
        // out-of-range node; a strictly increasing list is sorted already.
        let mut sorted = std::borrow::Cow::from(members);
        if !members.windows(2).all(|w| w[0] < w[1]) {
            sorted.to_mut().sort_unstable();
        }
        if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(SpecIssue::DuplicateMember {
                service: service(),
                node: dup[0],
            });
        }
        if let Some(bad) = sorted.iter().find(|m| **m >= self.nodes) {
            return Err(SpecIssue::MemberOutOfRange {
                service: service(),
                node: *bad,
                nodes: self.nodes,
            });
        }
        let admission_period = workload.admission_period(self.horizon);
        if admission_period.is_zero() {
            return Err(SpecIssue::ZeroPeriod { service: service() });
        }
        if workload.timeout().is_some_and(|t| t.is_zero()) {
            return Err(SpecIssue::ZeroTimeout { service: service() });
        }
        // Reject over-long streams *before* materializing them: at the
        // (peak) admission rate, the horizon bounds the request count, so
        // a runaway generator is refused without allocating its schedule.
        let projected = self.horizon.as_nanos() / admission_period.as_nanos().max(1) + 1;
        if projected >= 1 << 20 {
            return Err(SpecIssue::WorkloadTooLong {
                service: service(),
                requests: projected,
            });
        }
        // An empty stream is legal (a standby service); a zero-period
        // generator also streams nothing and is caught above. The stream
        // is walked, not stored: it stops at the first instant out of
        // order and otherwise counts every request.
        let (mut requests, mut last, mut monotone) = (0u64, None, true);
        let _ = workload.for_each_request(self.horizon, &mut |t| {
            if last.is_some_and(|prev| prev >= t) {
                monotone = false;
                return ControlFlow::Break(());
            }
            (requests, last) = (requests + 1, Some(t));
            ControlFlow::Continue(())
        });
        if !monotone {
            return Err(SpecIssue::NonMonotoneWorkload { service: service() });
        }
        if requests >= 1 << 20 {
            return Err(SpecIssue::WorkloadTooLong {
                service: service(),
                requests,
            });
        }
        Ok(admission_period)
    }

    /// The application tasks in check order: each task-backed service's
    /// in registration order (a zero-period periodic service has none),
    /// then the scripted mode-change introductions.
    fn task_entries(&self) -> impl Iterator<Item = TaskEntry<'_>> {
        let mut next_id = auto_ids(&self.services);
        let registered = self
            .services
            .iter()
            .enumerate()
            .filter_map(move |(index, s)| {
                let (node, id, heug) = match &s.kind {
                    ServiceKind::Periodic { node, period, .. } if !period.is_zero() => {
                        (*node, next_id(), None)
                    }
                    ServiceKind::Task { node, task } => (*node, task.id, Some(&task.heug)),
                    _ => return None,
                };
                Some(TaskEntry {
                    service: Some(index),
                    node,
                    id,
                    heug,
                })
            });
        let introduced = self
            .scenario
            .mode_changes()
            .iter()
            .flat_map(|script| &script.introduce)
            .map(|(node, task)| TaskEntry {
                service: None,
                node: *node,
                id: task.id,
                heug: Some(&task.heug),
            });
        registered.chain(introduced)
    }

    /// The application tasks' findings, task by task, then the mode
    /// changes' retirements of unknown tasks.
    fn task_issues(&self, issues: &mut Vec<SpecIssue>) {
        // Every `(id, position)`, sorted: an entry repeats the id of the
        // one before it.
        let mut by_id: Vec<_> = self
            .task_entries()
            .enumerate()
            .map(|(at, t)| (t.id, at))
            .collect();
        by_id.sort_unstable();
        let mut repeats: Vec<usize> = by_id
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1)
            .collect();
        repeats.sort_unstable();
        for (at, task) in self.task_entries().enumerate() {
            let service = || task.service.map(|i| self.services[i].service_ref(i));
            if task.node >= self.nodes {
                issues.push(SpecIssue::NodeOutOfRange {
                    service: service(),
                    node: task.node,
                    nodes: self.nodes,
                });
            }
            if task.id.0 >= MIDDLEWARE_TASK_BASE {
                issues.push(SpecIssue::ReservedTaskId {
                    service: service(),
                    task: task.id,
                });
            }
            if repeats.binary_search(&at).is_ok() {
                issues.push(SpecIssue::DuplicateTaskId {
                    service: service(),
                    task: task.id,
                });
            }
            let elsewhere =
                |h: &hades_task::Heug| h.eus().iter().any(|eu| eu.processor().0 != task.node);
            if task.heug.is_some_and(elsewhere) {
                issues.push(SpecIssue::TaskOffNode {
                    service: service(),
                    task: task.id,
                    node: task.node,
                });
            }
        }
        // A mode change may retire a task a service registered or one an
        // earlier mode change (by instant, then script order) introduced.
        let mut scripts: Vec<&ModeChangeScript> = self.scenario.mode_changes().iter().collect();
        scripts.sort_by_key(|s| s.at);
        for (k, script) in scripts.iter().enumerate() {
            for id in &script.retire {
                let known = self
                    .task_entries()
                    .any(|t| t.service.is_some() && t.id == *id)
                    || scripts[..k]
                        .iter()
                        .any(|s| s.introduce.iter().any(|(_, t)| t.id == *id));
                if !known {
                    issues.push(SpecIssue::UnknownRetiredTask { task: *id });
                }
            }
        }
    }
}

impl Lowered {
    /// Assembles the run's task set — application tasks, mode-change
    /// introductions, middleware tasks, the groups' cost tasks and the
    /// scripted restarts' recovery cost tasks — with each task's origin
    /// and the recovery tasks' activation windows.
    pub(super) fn task_set(
        &self,
        faults: &FaultPlan,
        rejoin_bound: Duration,
    ) -> (Vec<Task>, Origins, Vec<(TaskId, Time, Time)>) {
        let mut origin = Origins::default();
        let mut tasks: Vec<Task> = Vec::new();
        for (node, task) in &self.app_tasks {
            origin.insert(task.id, (*node, false));
            tasks.push(task.clone());
        }
        for script in self.spec.scenario.mode_changes() {
            for (node, task) in &script.introduce {
                origin.insert(task.id, (*node, false));
                tasks.push(task.clone());
            }
        }
        for node in 0..self.spec.nodes {
            for task in self.spec.middleware.tasks_for(node) {
                origin.insert(task.id, (node, true));
                tasks.push(task);
            }
        }
        for (g, group) in self.groups.iter().enumerate() {
            for (node, task) in self.spec.middleware.group_cost_tasks(
                g as u32,
                group.style,
                &group.members,
                &group.load,
                group.admission_period,
            ) {
                origin.insert(task.id, (node, true));
                tasks.push(task);
            }
        }
        // One serving + one installing cost task per scripted restart,
        // windowed to the rejoin interval so the transfer's CPU overhead
        // is charged where (and when) it occurs — and, conservatively,
        // folded into the stationary feasibility analyses. Reactive
        // (driver-injected) restarts have no offline existence and are
        // therefore not charged here — the inherent price of closing the
        // loop at run time.
        let transfer_span = self
            .spec
            .middleware
            .recovery
            .transfer_bound(self.spec.link.delay_max);
        let mut recovery_windows: Vec<(TaskId, Time, Time)> = Vec::new();
        for (k, (joiner, restart_at)) in faults.restarts().iter().enumerate() {
            // The protocol's server is the lowest surviving *view member*;
            // statically we approximate it as the lowest node that is up
            // at the restart and not itself mid-rejoin: each of its windows
            // starts after the restart or ended at least one rejoin bound
            // before it.
            let server = (0..self.spec.nodes).find(|n| {
                NodeId(*n) != *joiner
                    && faults.windows_of(NodeId(*n)).iter().all(|w| {
                        w.crash_at > *restart_at
                            || w.restart_at
                                .is_some_and(|r| r + rejoin_bound <= *restart_at)
                    })
            });
            let Some(server) = server else { continue };
            for (node, task) in self
                .spec
                .middleware
                .recovery_cost_tasks(server, joiner.0, k as u32)
            {
                origin.insert(task.id, (node, true));
                recovery_windows.push((task.id, *restart_at, *restart_at + transfer_span));
                tasks.push(task);
            }
        }
        (tasks, origin, recovery_windows)
    }

    /// Analyzes every scripted mode change: per affected node, the
    /// retiring tasks' carry-over against the entering tasks' demand
    /// (cost-integrated), yielding the safe release offset the runtime
    /// applies.
    pub(super) fn mode_plans(&self) -> Vec<ModePlan> {
        let integrated_cfg =
            EdfAnalysisConfig::with_platform(self.spec.costs, self.spec.kernel.clone());
        // Retired tasks may come from the initial application set or from
        // an earlier mode change's introductions.
        let known: Vec<&Task> = self
            .app_tasks
            .iter()
            .map(|(_, t)| t)
            .chain(
                self.spec
                    .scenario
                    .mode_changes()
                    .iter()
                    .flat_map(|s| s.introduce.iter().map(|(_, t)| t)),
            )
            .collect();
        self.spec
            .scenario
            .mode_changes()
            .iter()
            .map(|script| {
                let retired: Vec<&Task> = known
                    .iter()
                    .copied()
                    .filter(|t| script.retire.contains(&t.id))
                    .collect();
                let mut affected: Vec<u32> = retired
                    .iter()
                    .filter_map(|t| t.heug.eus().first().map(|e| e.processor().0))
                    .chain(script.introduce.iter().map(|(n, _)| *n))
                    .collect();
                affected.sort_unstable();
                affected.dedup();
                let mut carryover = Duration::ZERO;
                let mut immediate_feasible = true;
                let mut safe_offset = Duration::ZERO;
                for node in affected {
                    let old: Vec<SpuriTask> = retired
                        .iter()
                        .filter(|t| {
                            t.heug
                                .eus()
                                .first()
                                .is_some_and(|e| e.processor().0 == node)
                        })
                        .filter_map(|t| spuri_of(t, node))
                        .collect();
                    let new: Vec<SpuriTask> = script
                        .introduce
                        .iter()
                        .filter(|(n, _)| *n == node)
                        .filter_map(|(n, t)| spuri_of(t, *n))
                        .collect();
                    let r = ModeChange::new(old, new).analyze(&integrated_cfg);
                    carryover = carryover.saturating_add(r.carryover);
                    immediate_feasible &= r.immediate_feasible;
                    safe_offset = safe_offset.max(r.safe_offset);
                }
                let release_at = if safe_offset == Duration::MAX {
                    Time::MAX // infeasible new mode: never released
                } else {
                    (script.at + safe_offset).min(Time::MAX)
                };
                ModePlan {
                    at: script.at,
                    release_at,
                    retire: script.retire.clone(),
                    introduced: script.introduce.iter().map(|(_, t)| t.id).collect(),
                    carryover,
                    immediate_feasible,
                    safe_offset,
                }
            })
            .collect()
    }

    pub(super) fn node_feasibility(
        &self,
        node: u32,
        tasks: &[Task],
        origin: &Origins,
    ) -> report::NodeFeasibility {
        let mut spuri: Vec<SpuriTask> = Vec::new();
        let mut app_util = 0u32;
        let mut mw_util = 0u32;
        for task in tasks {
            let Some((home, is_mw)) = origin.get(task.id) else {
                continue;
            };
            if home != node {
                continue;
            }
            let Some(task) = spuri_of(task, node) else {
                continue;
            };
            let permille =
                (task.total_c().as_nanos() * 1000 / task.pseudo_period.as_nanos().max(1)) as u32;
            if is_mw {
                mw_util += permille;
            } else {
                app_util += permille;
            }
            spuri.push(task);
        }
        // Utilization figures come from the EDF demand analysis (they are
        // load measures, not verdicts); the feasibility verdicts use the
        // test matching the installed policy.
        let integrated_cfg =
            EdfAnalysisConfig::with_platform(self.spec.costs, self.spec.kernel.clone());
        let integrated = edf_feasible(&spuri, &integrated_cfg);
        let (naive_feasible, integrated_feasible) = match self.spec.policy {
            Policy::RateMonotonic | Policy::DeadlineMonotonic => {
                // Response-time analysis over the fixed-priority order the
                // policy installs (RM: by period; DM: by deadline).
                let mut rta: Vec<RtaTask> = spuri
                    .iter()
                    .map(|t| RtaTask {
                        c: t.total_c(),
                        period: t.pseudo_period,
                        deadline: t.deadline,
                        blocking: Duration::ZERO,
                    })
                    .collect();
                match self.spec.policy {
                    Policy::RateMonotonic => rta.sort_by_key(|t| t.period),
                    _ => rta.sort_by_key(|t| t.deadline),
                }
                (
                    rta_feasible(&rta, &CostModel::zero(), &KernelModel::none()).feasible,
                    rta_feasible(&rta, &self.spec.costs, &self.spec.kernel).feasible,
                )
            }
            Policy::Edf | Policy::Manual => (
                edf_feasible(&spuri, &EdfAnalysisConfig::naive()).feasible,
                integrated.feasible,
            ),
        };
        report::NodeFeasibility {
            naive_feasible,
            integrated_feasible,
            app_utilization_permille: app_util,
            middleware_utilization_permille: mw_util,
            inflated_utilization_permille: (integrated.utilization * 1000.0).round() as u32,
        }
    }
}

/// The Spuri view of a single-node task, for the transition analysis.
fn spuri_of(task: &Task, node: u32) -> Option<SpuriTask> {
    let period = task.arrival.min_separation()?;
    Some(SpuriTask::independent(
        task.id,
        format!("n{node}.{}", task.name()),
        task.wcet(),
        task.deadline,
        period,
    ))
}
