//! Validation and lowering: the spec checked as a whole, its services
//! lowered, the task set assembled and analysed.

use super::*;

impl ClusterSpec {
    /// Validates the spec and lowers it into the runtime's flat form.
    pub(super) fn lower(self) -> Result<Lowered, SpecError> {
        let (app_tasks, groups, service_infos) = self.check()?;
        Ok(Lowered {
            spec: self,
            app_tasks,
            groups,
            service_infos,
        })
    }

    /// Validates the whole spec, collecting every finding, and lowers its
    /// services.
    pub(super) fn check(&self) -> Result<LoweredServices, SpecError> {
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

        // Explicit task ids first: periodic services skip them when
        // auto-assigning.
        let explicit: Vec<TaskId> = self
            .services
            .iter()
            .filter_map(|s| match &s.kind {
                ServiceKind::Task { task, .. } => Some(task.id),
                _ => None,
            })
            .collect();

        let mut app_tasks: Vec<(Option<ServiceRef>, u32, Task)> = Vec::new();
        let mut groups: Vec<LoweredGroup> = Vec::new();
        let mut service_infos: Vec<LoweredService> = Vec::new();
        let mut next_auto = 0u32;
        for (index, service) in self.services.iter().enumerate() {
            let sref = service.service_ref(index);
            if service.stray_workload {
                issues.push(SpecIssue::WorkloadWithoutGroup {
                    service: sref.clone(),
                });
            }
            match &service.kind {
                ServiceKind::Replicated {
                    style,
                    members,
                    load,
                    workload,
                } => {
                    if members.is_empty() {
                        issues.push(SpecIssue::EmptyMembers { service: sref });
                        continue;
                    }
                    let mut sorted = members.clone();
                    sorted.sort_unstable();
                    if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
                        issues.push(SpecIssue::DuplicateMember {
                            service: sref.clone(),
                            node: dup[0],
                        });
                        continue;
                    }
                    if let Some(bad) = sorted.iter().find(|m| **m >= self.nodes) {
                        issues.push(SpecIssue::MemberOutOfRange {
                            service: sref.clone(),
                            node: *bad,
                            nodes: self.nodes,
                        });
                        continue;
                    }
                    let admission_period = workload.admission_period(self.horizon);
                    if admission_period.is_zero() {
                        issues.push(SpecIssue::ZeroPeriod { service: sref });
                        continue;
                    }
                    if workload.timeout().is_some_and(|t| t.is_zero()) {
                        issues.push(SpecIssue::ZeroTimeout { service: sref });
                        continue;
                    }
                    // Reject over-long streams *before* materializing
                    // them: at the (peak) admission rate, the horizon
                    // bounds the request count, so a runaway generator
                    // is refused without allocating its schedule.
                    let projected =
                        self.horizon.as_nanos() / admission_period.as_nanos().max(1) + 1;
                    if projected >= 1 << 20 {
                        issues.push(SpecIssue::WorkloadTooLong {
                            service: sref,
                            requests: projected,
                        });
                        continue;
                    }
                    // An empty stream is legal (a standby service); a
                    // zero-period generator also returns empty and is
                    // caught by the admission-period check above.
                    let schedule = workload.request_times(self.horizon);
                    if !schedule.windows(2).all(|w| w[0] < w[1]) {
                        issues.push(SpecIssue::NonMonotoneWorkload { service: sref });
                        continue;
                    }
                    if schedule.len() as u64 >= 1 << 20 {
                        issues.push(SpecIssue::WorkloadTooLong {
                            service: sref,
                            requests: schedule.len() as u64,
                        });
                        continue;
                    }
                    service_infos.push(LoweredService::Group {
                        name: service.name.clone(),
                        group: groups.len(),
                    });
                    let source = workload.build_source(self.horizon);
                    if service.standby {
                        // A standby group's members run from time zero
                        // (admission needs no warm-up), but its request
                        // stream is paused until a driver admits the
                        // service — admission retunes the source back to
                        // nominal rate from the admission instant.
                        source.borrow_mut().throttle(Time::ZERO, 0);
                    }
                    groups.push(LoweredGroup {
                        style: *style,
                        members: sorted,
                        load: *load,
                        source,
                        admission_period,
                    });
                }
                ServiceKind::Periodic { node, wcet, period } => {
                    if period.is_zero() {
                        issues.push(SpecIssue::ZeroPeriod { service: sref });
                        continue;
                    }
                    while explicit.contains(&TaskId(next_auto)) {
                        next_auto += 1;
                    }
                    let id = TaskId(next_auto);
                    next_auto += 1;
                    let task = Task::new(
                        id,
                        single_heug(&service.name, *node, *wcet),
                        hades_task::ArrivalLaw::Periodic(*period),
                        *period,
                    );
                    service_infos.push(LoweredService::Tasks {
                        name: service.name.clone(),
                        ids: vec![id.0],
                        standby: service.standby,
                    });
                    app_tasks.push((Some(sref), *node, task));
                }
                ServiceKind::Task { node, task } => {
                    service_infos.push(LoweredService::Tasks {
                        name: service.name.clone(),
                        ids: vec![task.id.0],
                        standby: service.standby,
                    });
                    app_tasks.push((Some(sref), *node, task.clone()));
                }
            }
        }

        // Scripted mode-change introductions join the task checks.
        for script in self.scenario.mode_changes() {
            for (node, task) in &script.introduce {
                app_tasks.push((None, *node, task.clone()));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (sref, node, task) in &app_tasks {
            if *node >= self.nodes {
                issues.push(SpecIssue::NodeOutOfRange {
                    service: sref.clone(),
                    node: *node,
                    nodes: self.nodes,
                });
            }
            if task.id.0 >= MIDDLEWARE_TASK_BASE {
                issues.push(SpecIssue::ReservedTaskId {
                    service: sref.clone(),
                    task: task.id,
                });
            }
            if !seen.insert(task.id) {
                issues.push(SpecIssue::DuplicateTaskId {
                    service: sref.clone(),
                    task: task.id,
                });
            }
            for eu in task.heug.eus() {
                if eu.processor().0 != *node {
                    issues.push(SpecIssue::TaskOffNode {
                        service: sref.clone(),
                        task: task.id,
                        node: *node,
                    });
                    break;
                }
            }
        }
        // A mode change may retire an initial application task or one a
        // previous mode change introduced (multi-phase scripts). The
        // introduced tasks were appended after the service tasks above,
        // so `seen` holds every known id — but retire legality is
        // per-phase: a task may only be retired once known.
        let mut known_ids: std::collections::HashSet<TaskId> = app_tasks
            .iter()
            .filter(|(sref, _, _)| sref.is_some())
            .map(|(_, _, t)| t.id)
            .collect();
        let mut scripts: Vec<&ModeChangeScript> = self.scenario.mode_changes().iter().collect();
        scripts.sort_by_key(|s| s.at);
        for script in scripts {
            for id in &script.retire {
                if !known_ids.contains(id) {
                    issues.push(SpecIssue::UnknownRetiredTask { task: *id });
                }
            }
            known_ids.extend(script.introduce.iter().map(|(_, t)| t.id));
        }

        if !issues.is_empty() {
            return Err(SpecError { issues });
        }
        // Mode-change introductions are re-derived from the scenario at
        // execution; keep only the service tasks here.
        let app_tasks = app_tasks
            .into_iter()
            .filter(|(sref, _, _)| sref.is_some())
            .map(|(_, node, task)| (node, task))
            .collect();
        Ok((app_tasks, groups, service_infos))
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
