//! Fault-plan transitions, runtime control ops, node crash and restart.

use super::alarms::home_node;
use super::*;

impl Inner {
    // ------------------------------------------------------------------
    // Crash / restart (dispatcher kill switch)
    // ------------------------------------------------------------------

    /// Applies the fault-plan transition of `node` due at `now`, and arms
    /// the next one.
    pub(super) fn fault_transition(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let crashed = self.network.fault_plan().is_crashed(NodeId(node), now);
        if crashed && !self.nodes[node as usize].down {
            self.crash_node(node, now, sched);
        } else if !crashed && self.nodes[node as usize].down {
            self.restart_node(node, now, sched);
        } else if !self.nodes[node as usize].down
            && self.network.fault_plan().has_slow_windows(NodeId(node))
        {
            // A CPU speed-window edge: charge the interval behind us at
            // the old rate and re-arm the completion at the new one, so
            // no charging interval ever straddles a speed boundary.
            self.reschedule(node, now, sched);
        }
        if let Some(at) = self.network.fault_plan().next_transition(NodeId(node), now) {
            sched.post(at, Ev::FaultTransition { node });
        }
    }

    /// Applies one runtime [`ControlOp`] staged by a hosted actor (a
    /// control-plane driver): fault ops mutate the shared network's
    /// fault plan and arm the corresponding dispatcher transitions plus
    /// the hosted actors' [`ActorEvent::Restart`]s; task ops open/close
    /// activation windows of the *running* schedule. Ops naming unknown
    /// tasks or out-of-range nodes are ignored.
    pub(super) fn apply_control(&mut self, op: &ControlOp, now: Time, sched: &mut Scheduler<Ev>) {
        match *op {
            ControlOp::AdmitTask { task, at } => {
                let Some(task) = self.tasks.position(TaskId(task)) else {
                    return;
                };
                let st = &mut self.task_state[task];
                let at = at.max(now);
                let until = st.window.map_or(Time::MAX, |(_, u)| u);
                let until = if until <= at { Time::MAX } else { until };
                st.window = Some((at, until));
                // Re-anchor the chain at the admission instant; any stale
                // pending activation of a previous window dies against
                // the bumped generation.
                st.chain_gen += 1;
                let gen = st.chain_gen;
                sched.post(at, Ev::Activate { task, gen });
            }
            ControlOp::RetireTask { task, at } => {
                let Some(task) = self.tasks.position(TaskId(task)) else {
                    return;
                };
                let st = &mut self.task_state[task];
                let from = st.window.map_or(Time::ZERO, |(f, _)| f);
                st.window = Some((from, at.max(now)));
            }
            ControlOp::SlowNode {
                node,
                from_t,
                until_t,
                ..
            } => {
                mux::apply_network_op(self.network.fault_plan_mut(), op, now);
                if (node.0 as usize) < self.nodes.len() {
                    // Resynchronise CPU charging at both window edges
                    // (same clamping as the plan mutation).
                    let start = from_t.max(now);
                    let end = until_t.max(start + Duration::from_nanos(1));
                    sched.post(start, Ev::FaultTransition { node: node.0 });
                    sched.post(end, Ev::FaultTransition { node: node.0 });
                }
            }
            _ => {
                let applied = mux::apply_network_op(self.network.fault_plan_mut(), op, now);
                if let Some((node, down_at, restart_at)) = applied {
                    if (node.0 as usize) < self.nodes.len() {
                        sched.post(down_at, Ev::FaultTransition { node: node.0 });
                        if let Some(r) = restart_at {
                            sched.post(r, Ev::FaultTransition { node: node.0 });
                        }
                    }
                    if let Some(r) = restart_at {
                        for actor in self.actors.actors_on(node) {
                            sched.post(
                                r,
                                Ev::Actor {
                                    actor,
                                    ev: ActorEvent::Restart,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Kills `node`: work executed up to the crash stays charged, every
    /// live thread dies, the ready queue and all dispatcher queues drop,
    /// and nothing runs (or is charged) until the node restarts.
    fn crash_node(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        self.sync_clock(node, now);
        self.trace
            .record(now, NodeId(node), TraceKind::Alarm, "node_crash");
        for tid in std::mem::take(&mut self.nodes[node as usize].live) {
            // Fail-silent death, not an application fault: the thread just
            // stops existing, without orphan alarms.
            let th = self.threads.remove(tid.0).expect("victim thread");
            self.resmgr[node as usize].release_all(tid);
            let key = (th.task_pos, th.instance);
            if let Some(inst) = self.task_state[key.0].instances.get_mut(key.1) {
                inst.live -= 1;
            }
            self.reap_instance(key, now);
        }
        let ns = &mut self.nodes[node as usize];
        ns.down = true;
        ns.down_since = Some(now);
        ns.current = None;
        ns.last_app = None;
        ns.runq = RunQueue::new();
        ns.sched_fifo = NotificationQueue::new();
        ns.sched_busy = false;
        ns.sched_remaining = Duration::ZERO;
        ns.irq_pending.clear();
        ns.irq_remaining = Duration::ZERO;
        ns.since = now;
        ns.carry = 0;
        if let Some((id, ..)) = ns.armed.take() {
            sched.cancel(id); // nothing completes on a dead node
        }
    }

    /// Brings `node` back up cold: empty queues, no threads, no carry-over
    /// state. Subsequent activations repopulate it.
    ///
    /// Mode-change × recovery: a task homed on this node whose activation
    /// window *opened while the node was down* (the new mode of a mode
    /// change that happened mid-outage) has its periodic chain
    /// re-anchored at the restart instant — the node rejoins directly
    /// into the new mode instead of waiting out the stale phase of the
    /// pre-crash chain. Windows already open before the crash keep their
    /// original phase, as before.
    fn restart_node(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let down_since = self.nodes[node as usize].down_since;
        let ns = &mut self.nodes[node as usize];
        ns.down = false;
        ns.down_since = None;
        ns.since = now;
        ns.carry = 0;
        self.trace
            .record(now, NodeId(node), TraceKind::Alarm, "node_restart");
        if !self.cfg.auto_activate {
            return;
        }
        for (task, (t, st)) in self.tasks.iter().zip(&mut self.task_state).enumerate() {
            if home_node(t) != node || t.arrival.min_separation().is_none() {
                continue;
            }
            let Some((from, until)) = st.window else {
                continue;
            };
            // `>=`: a window opening at the crash instant itself was
            // missed too (the node died before spawning anything).
            if down_since.is_some_and(|d| from >= d) && from <= now && now < until {
                st.chain_gen += 1;
                let gen = st.chain_gen;
                sched.post(now, Ev::Activate { task, gen });
            }
        }
    }
}
