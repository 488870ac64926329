//! Execution: the network, the engine, the tap, the agents, the
//! groups and the control actor wired and run.

use super::*;

/// Resolves a mux `(sender label, message tag)` pair to the cluster's
/// canonical message-kind name. Names are label-prefixed because agents
/// and groups reuse short names (both have a `ckpt`): the heartbeat is
/// `agent.hb`, a group client request is `group.req`, the dispatcher's
/// precedence handoff is `dispatch.handoff`. Unknown pairs fall back to
/// the probes' own `<label>.t<tag>` form.
fn cluster_msg_name(label: &str, tag: u64) -> Option<String> {
    match label {
        AGENT_LABEL => agent_msg_name(tag).map(|n| format!("{AGENT_LABEL}.{n}")),
        GROUP_LABEL => group_msg_name(tag).map(|n| format!("{GROUP_LABEL}.{n}")),
        "dispatch" => Some("dispatch.handoff".to_string()),
        _ => None,
    }
}

impl Lowered {
    /// Builds and runs the deployment, producing the report + events.
    ///
    /// The control actor replays the spec's own scenario at start,
    /// before the registered drivers start.
    pub(super) fn execute(mut self) -> Result<ClusterRun, SpecError> {
        let rejoin_bound = self.spec.rejoin_bound();
        let faults = self.spec.scenario.fault_plan();
        let (tasks, origin, recovery_windows) = self.task_set(&faults, rejoin_bound);

        // ---- mode-change transition analysis (Section 5 + Mos94) ----
        let mode_plans = self.mode_plans();

        // ---- per-node feasibility (naive vs cost-integrated) ----
        let feasibility: Vec<report::NodeFeasibility> = (0..self.spec.nodes)
            .map(|node| self.node_feasibility(node, &tasks, &origin))
            .collect();

        // ---- one shared network + one shared engine ----
        // Scripted faults are not pre-compiled: the control actor replays
        // them through the runtime control path at time zero, exactly as
        // a reactive driver injects faults mid-run. The one exception:
        // faults already in force AT time zero must be seeded before the
        // zero-instant Start batch runs (a node scripted dead at t = 0
        // must not emit its first heartbeat; a link cut from t = 0 must
        // drop it). The replay's re-injection of the same window is a
        // no-op (see `apply_network_op`), so no duplicate transition or
        // restart events arise.
        let mut initial_plan = FaultPlan::new();
        for (node, w) in faults.crash_windows() {
            if w.crash_at == Time::ZERO {
                initial_plan.add_crash(node, w.crash_at, w.restart_at);
            }
        }
        for op in self.spec.scenario.ops() {
            if let FaultOp::Cut {
                from,
                to,
                at: Time::ZERO,
                until,
            } = *op
            {
                initial_plan.add_cut(NodeId(from), NodeId(to), Time::ZERO, until);
            }
        }
        let net = Network::homogeneous(
            self.spec.nodes,
            self.spec.link,
            SimRng::seed_from(self.spec.seed ^ 0x004E_4554),
        )
        .with_fault_plan(initial_plan);
        let mut cfg = SimConfig::ideal(self.spec.horizon);
        cfg.costs = self.spec.costs;
        cfg.kernel = self.spec.kernel.clone();
        cfg.link = self.spec.link;
        cfg.seed = self.spec.seed;
        cfg.trace = false;
        let mut sim = self.spec.policy.deploy(tasks, |tasks| {
            let set = TaskSet::new(tasks).map_err(|e| SpecError {
                issues: vec![SpecIssue::InvalidTaskSet(e)],
            })?;
            Ok(DispatchSim::with_network(set, cfg, net))
        })?;
        // One probe per run feeds the registry's `net.msgs.*` / `net.bytes.*`
        // and the profiler's traffic matrix under the cluster's one
        // message-kind vocabulary: `net.msgs.agent.hb` and the matrix's
        // `agent.hb` rows count the same sends.
        sim.set_probe(Probe::new(
            &self.spec.telemetry,
            &self.spec.profile,
            cluster_msg_name,
            |label, class, tag| label == AGENT_LABEL && agent_is_heartbeat(class, tag),
        ));
        // A task introduced by one mode change and retired by a later one
        // gets both window edges; everything else keeps the full run on
        // its open side.
        let mut mode_windows: BTreeMap<TaskId, (Time, Time)> = BTreeMap::new();
        for plan in &mode_plans {
            for id in &plan.retire {
                mode_windows.entry(*id).or_insert((Time::ZERO, Time::MAX)).1 = plan.at;
            }
            for id in &plan.introduced {
                mode_windows.entry(*id).or_insert((Time::ZERO, Time::MAX)).0 = plan.release_at;
            }
        }
        for (id, (from, until)) in mode_windows {
            sim.set_activation_window(id, from, until);
        }
        for (id, from, until) in &recovery_windows {
            sim.set_activation_window(*id, *from, *until);
        }
        // Standby services: validated and charged, but never activated
        // until a driver admits them (the admission op re-opens the
        // window and re-anchors the chain).
        for info in &self.service_infos {
            if let LoweredService::Tasks {
                ids, standby: true, ..
            } = info
            {
                for id in ids {
                    sim.set_activation_window(TaskId(*id), Time::MAX, Time::MAX);
                }
            }
        }

        // ---- the reactive control plane: shared state + event taps ----
        // Actor ids: agents are 0..nodes (the protocol addresses them by
        // node id), group members follow, the control actor comes last.
        let node_reports = feasibility
            .into_iter()
            .enumerate()
            .map(|(node, feasibility)| report::NodeReport {
                node: node as u32,
                crashed_at: None,
                restarted_at: None,
                app_instances: 0,
                app_misses: 0,
                middleware_instances: 0,
                middleware_misses: 0,
                worst_app_response: None,
                feasibility,
            })
            .collect();
        // Only the `request` spans read each delivery's stamp and instant.
        let deliveries = if self.spec.telemetry.is_enabled() {
            let members = self.groups.iter().map(|g| g.members.clone());
            members.map(DeliveryFold::new).collect()
        } else {
            Vec::new()
        };
        let state = Rc::new(RefCell::new(ControlState::new(
            origin,
            node_reports,
            deliveries,
        )));
        let postbox = sim.postbox();
        let total_members: u32 = self.groups.iter().map(|g| g.members.len() as u32).sum();
        let control_id = ActorId(self.spec.nodes + total_members);
        // The invariant watchdog's bounds come from the spec's own
        // timing model: a healthy group answers within `Δ + δmax`, a
        // healthy rejoin completes within the analytic rejoin bound.
        let delta = self.spec.group_delta();
        let watchdog: Option<Rc<RefCell<Watchdog>>> = self.spec.watchdog.take().map(|mut dog| {
            let output_bound = delta + self.spec.link.delay_max;
            dog.configure(&MonitorParams {
                output_bound,
                transfer_stall: rejoin_bound,
                silent_group: output_bound + output_bound,
            });
            Rc::new(RefCell::new(dog))
        });
        // One tap for the dispatcher, every agent and every group member:
        // the control plane and the watchdog read the same event — except
        // a settled instance, which is report input for the control plane
        // and no invariant's business. It only records and requests a
        // control wake — it never re-enters the engine.
        let tap = {
            let state = state.clone();
            let postbox = postbox.clone();
            let watchdog = watchdog.clone();
            ProtocolTap(Rc::new(move |now, ev| {
                let mut wake = state.borrow_mut().on_protocol_event(now, ev);
                if let Some(dog) = &watchdog {
                    if !matches!(ev, MonitorEvent::InstanceSettled { .. }) {
                        wake |= dog.borrow_mut().observe(now, ev);
                    }
                }
                if wake {
                    postbox.notify(control_id, 0);
                }
            }))
        };
        sim.set_tap(tap.clone());

        // ---- per-node middleware agents on the same engine ----
        let logs: Vec<Rc<RefCell<AgentLog>>> = (0..self.spec.nodes)
            .map(|node| {
                let cfg = self.spec.middleware.agent_config(
                    NodeId(node),
                    self.spec.nodes,
                    &self.spec.link,
                );
                let (agent, log) = NodeAgent::new(cfg);
                sim.add_actor(Box::new(agent.with_tap(tap.clone())));
                log
            })
            .collect();

        // ---- replication-group members, after the agents ----
        let mut next_actor = self.spec.nodes;
        let mut group_logs: Vec<Vec<Rc<RefCell<GroupLog>>>> = Vec::new();
        let mut group_peers: Vec<Vec<(u32, ActorId)>> = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            let peers: Vec<(u32, ActorId)> = group
                .members
                .iter()
                .enumerate()
                .map(|(i, m)| (*m, ActorId(next_actor + i as u32)))
                .collect();
            let mut glogs = Vec::new();
            for (i, m) in group.members.iter().enumerate() {
                let (member, glog) = ReplicaGroup::new(
                    GroupConfig {
                        group: g as u32,
                        node: NodeId(*m),
                        members: group.members.clone(),
                        style: group.style,
                        request_period: group.load.request_period,
                        first_request_at: group.load.first_request_at,
                        source: Some(group.source.clone()),
                        delta,
                        attempts: group.load.attempts,
                        peers: peers.clone(),
                    },
                    Some(logs[*m as usize].clone()),
                );
                let id = sim.add_actor(Box::new(member.with_tap(tap.clone())));
                assert_eq!(
                    id, peers[i].1,
                    "group peer addressing drifted from actor registration order"
                );
                glogs.push(glog);
            }
            next_actor += group.members.len() as u32;
            group_logs.push(glogs);
            group_peers.push(peers);
        }

        // ---- the control actor: the spec's plan replay + reactive drivers ----
        let services_ctl: Vec<ServiceControl> = self
            .service_infos
            .iter()
            .map(|info| match info {
                LoweredService::Tasks { name, ids, .. } => ServiceControl {
                    name: name.clone(),
                    kind: ServiceControlKind::Tasks { ids: ids.clone() },
                },
                LoweredService::Group { name, group } => ServiceControl {
                    name: name.clone(),
                    kind: ServiceControlKind::Group {
                        source: self.groups[*group].source.clone(),
                        members: group_peers[*group].clone(),
                    },
                },
            })
            .collect();
        let mode_marks: Vec<(Time, Time)> =
            mode_plans.iter().map(|p| (p.at, p.release_at)).collect();
        let control = ControlActor::new(
            &self.spec.scenario,
            std::mem::take(&mut self.spec.drivers),
            state.clone(),
            services_ctl,
            self.spec.nodes,
            Time::ZERO + self.spec.horizon,
            mode_marks,
            watchdog.clone(),
        );
        let cid = sim.add_actor(Box::new(control));
        assert_eq!(cid, control_id, "control actor must register last");

        let run = sim.run();
        Ok(self.fold(Finished {
            run,
            sim,
            state,
            logs,
            group_logs,
            mode_plans,
            watchdog,
        }))
    }
}
