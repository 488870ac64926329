//! Thread life: activation, runnable conditions, completion, precedence
//! and reaping.

use super::alarms::{home_node, settle};
use super::*;

impl Inner {
    // ------------------------------------------------------------------
    // Activation & thread creation
    // ------------------------------------------------------------------

    pub(super) fn activate(&mut self, pos: usize, gen: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let st = &self.task_state[pos];
        if gen != st.chain_gen {
            return; // a restart re-anchored this task's chain
        }
        let window_until = st.window.map(|(_, until)| until);
        let tasks = Rc::clone(&self.tasks);
        let task = &tasks.tasks()[pos];
        let task_id = task.id;
        if window_until.is_some_and(|until| now >= until) {
            return; // the task's mode was retired: stop the chain
        }
        // Auto re-activation for periodic/sporadic tasks (the chain stays
        // alive across node downtime so a restarted node resumes its load).
        let mut release = None;
        if self.cfg.auto_activate {
            if let Some(p) = task.arrival.min_separation() {
                let next = now + p;
                if next <= Time::ZERO + self.cfg.horizon
                    && window_until.is_none_or(|until| next < until)
                {
                    let seq = sched.next_seq();
                    let id = sched.post(next, Ev::release(pos, gen));
                    release = Some((id, next, seq));
                }
            }
        }
        // Kill switch: a down node neither monitors arrivals nor spawns
        // work — the activation is simply lost with the node.
        if self.nodes[home_node(task) as usize].down {
            return;
        }
        // Arrival-law monitoring.
        if self.task_state[pos].arrivals.observe(task.arrival, now) {
            self.alarms.raise(
                now,
                MonitorEvent::ArrivalLawViolation {
                    task: task_id.0,
                    at: now,
                },
            );
            self.trace
                .record_with(now, NodeId(0), TraceKind::Alarm, || {
                    format!("arrival_violation {task_id}")
                });
        }
        self.spawn_instance(task, pos, now, release, sched);
    }

    /// Creates the threads of one instance of `task` (at `pos` in the
    /// task set) activated at `now`. `release` is the task's next
    /// activation, if the caller just queued one: its id, instant and
    /// order seq.
    fn spawn_instance(
        &mut self,
        task: &Task,
        pos: usize,
        now: Time,
        release: Option<(EventId, Time, u64)>,
        sched: &mut Scheduler<Ev>,
    ) -> u64 {
        let instance = self.task_state[pos].instances.next_id();
        // Only trace records read a thread's name.
        let trace = self.cfg.trace;
        let name = move |eu: &str| {
            if trace {
                format!("{}.{}#{}", task.name(), eu, instance)
            } else {
                String::new()
            }
        };
        let deadline = now + task.deadline;
        self.task_state[pos].outcome.activated += 1;
        let first_thread = self.threads.next_id();
        // The nodes the instance's threads land on, in the buffer kept on
        // `self` for its capacity.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for (i, eu) in task.heug.eus().iter().enumerate() {
            let eu_idx = EuIndex(i as u32);
            let tid = ThreadId(self.threads.next_id());
            let node = eu.processor().0;
            self.nodes[node as usize].live.push(tid);
            if !touched.contains(&node) {
                touched.push(node);
            }
            let preds = task.heug.predecessors(eu_idx).count();
            let th = match eu {
                Eu::Code(code) => {
                    let actual = self.cfg.exec.draw(code.wcet, &mut self.rng);
                    let (mut local_edges, mut remote_edges) = (0u64, 0u64);
                    for s in task.heug.successors(eu_idx) {
                        if task.heug.eu(s).processor() == code.processor {
                            local_edges += 1;
                        } else {
                            remote_edges += 1;
                        }
                    }
                    let remaining = self.cfg.costs.act_start
                        + actual
                        + self.cfg.costs.act_end
                        + self.cfg.costs.loc_prec.saturating_mul(local_edges)
                        + self.cfg.costs.rem_prec.saturating_mul(remote_edges);
                    let prio = code.timing.prio.min(Priority::APP_MAX.lower(1));
                    let pt = code.timing.pt.min(Priority::APP_MAX).max(prio);
                    Thread {
                        id: tid,
                        name: name(&code.name),
                        task: task.id,
                        instance,
                        eu: eu_idx,
                        node,
                        prio,
                        pt,
                        earliest: code.timing.earliest.map_or(now, |e| now + e),
                        latest: code.timing.latest.map(|l| now + l),
                        abs_deadline: code.timing.deadline.map_or(deadline, |d| now + d),
                        activation: now,
                        remaining,
                        action_wcet: code.wcet,
                        action_actual: actual,
                        preds_pending: preds,
                        waits: code.waits.clone(),
                        resources: code.resources.clone(),
                        state: ThreadState::Blocked,
                        started: false,
                        first_run: None,
                        runnable_since: now,
                        task_pos: pos,
                        inv_phase: None,
                        remote_arrived: Vec::new(),
                    }
                }
                Eu::Inv(inv) => Thread {
                    id: tid,
                    name: name(&inv.name),
                    task: task.id,
                    instance,
                    eu: eu_idx,
                    node,
                    prio: Priority::APP_MAX.lower(1),
                    pt: Priority::APP_MAX.lower(1),
                    earliest: now,
                    latest: None,
                    abs_deadline: deadline,
                    activation: now,
                    remaining: self.cfg.costs.inv_start.max(Duration::from_nanos(1)),
                    action_wcet: self.cfg.costs.inv_start.max(Duration::from_nanos(1)),
                    action_actual: self.cfg.costs.inv_start.max(Duration::from_nanos(1)),
                    preds_pending: preds,
                    waits: Vec::new(),
                    resources: Vec::new(),
                    state: ThreadState::Blocked,
                    started: false,
                    first_run: None,
                    runnable_since: now,
                    task_pos: pos,
                    inv_phase: Some(InvPhase::Pre),
                    remote_arrived: Vec::new(),
                },
            };
            if let Some(latest) = th.latest {
                sched.post(latest, Ev::LatestCheck { thread: tid });
            }
            if th.earliest > now {
                sched.post(th.earliest, Ev::EarliestReached { thread: tid, node });
            }
            self.threads.push(th);
            self.notify(node, NotificationKind::Atv, tid, now);
        }
        self.task_state[pos].instances.push(InstanceState {
            first_thread,
            live: task.heug.eus().len(),
            activated: now,
            deadline,
            completed: None,
            missed: false,
            checked: false,
            sync_waiters: Vec::new(),
        });
        // A deadline on the next release, with no key taken since that
        // release was queued, would be checked by the event delivered
        // right after it: the release checks it instead.
        let next = release
            .filter(|&(_, at, seq)| at == deadline && sched.next_seq() == seq + 1)
            .and_then(|(id, ..)| sched.queued_mut(id));
        if let Some(Ev::Activate { check, .. }) = next {
            *check = Some(instance);
        } else {
            let check = Ev::DeadlineCheck {
                task: pos,
                instance,
            };
            sched.post(deadline, check);
        }
        // Try to unblock every new thread, then reschedule touched nodes.
        for tid in (first_thread..self.threads.next_id()).map(ThreadId) {
            self.try_unblock(tid, now);
        }
        touched.sort_unstable();
        self.reschedule_touched(&touched, now, sched);
        self.touched = touched;
        instance
    }

    // ------------------------------------------------------------------
    // Runnable conditions
    // ------------------------------------------------------------------

    /// Checks the four runnable conditions for `tid`; on success grants
    /// resources and inserts the thread into the run queue. Does *not*
    /// reschedule — callers batch that.
    pub(super) fn try_unblock(&mut self, tid: ThreadId, now: Time) -> bool {
        let Some(th) = self.threads.get(tid.0) else {
            return false;
        };
        if th.state != ThreadState::Blocked || self.nodes[th.node as usize].down {
            return false;
        }
        if th.inv_phase == Some(InvPhase::WaitingTarget) {
            return false;
        }
        if !th.precedence_satisfied() {
            return false;
        }
        if now < th.earliest {
            return false;
        }
        if !self.condvars.all_set(&th.waits) {
            return false;
        }
        // Resource admission (the second runnable condition). Only at
        // first start: a thread re-entering the queue after preemption
        // already holds its resources.
        let (node, prio, task, resources_empty) =
            (th.node, th.prio, th.task, th.resources.is_empty());
        if !th.started {
            let adm = self.resmgr[node as usize].try_admit(tid, task, prio, &th.resources);
            match adm {
                Admission::Granted => {
                    if !resources_empty {
                        self.notify(node, NotificationKind::Rac, tid, now);
                    }
                }
                Admission::Blocked { boost } => {
                    for (holder, new_prio) in boost {
                        self.boost_priority(holder, new_prio, now);
                    }
                    return false;
                }
            }
        }
        let th = self.threads.get_mut(tid.0).expect("thread checked above");
        th.state = ThreadState::Runnable;
        th.runnable_since = now;
        self.nodes[node as usize].runq.insert(tid, th.prio, now);
        self.trace
            .record(now, NodeId(node), TraceKind::Runnable, th.name.as_str());
        true
    }

    /// PCP priority inheritance: raise `holder` to `prio` if higher.
    fn boost_priority(&mut self, holder: ThreadId, prio: Priority, now: Time) {
        let Some(th) = self.threads.get_mut(holder.0) else {
            return;
        };
        if !th.state.is_live() || th.prio >= prio {
            return;
        }
        th.prio = prio;
        th.pt = th.pt.max(prio);
        self.nodes[th.node as usize].runq.reprioritize(holder, prio);
        self.trace
            .record_with(now, NodeId(th.node), TraceKind::AttrChange, || {
                format!("{} inherits {prio}", th.name)
            });
    }

    /// Re-examines every blocked thread on `node` (after a resource
    /// release, condvar change, ...), in priority order for determinism.
    pub(super) fn recheck_blocked(&mut self, node: u32, now: Time) {
        let mut blocked: Vec<(Priority, ThreadId)> = self.nodes[node as usize]
            .live
            .iter()
            .map(|tid| &self.threads[tid.0])
            .filter(|t| t.state == ThreadState::Blocked)
            .map(|t| (t.prio, t.id))
            .collect();
        blocked.sort_by(|a, b| b.cmp(a));
        for (_, tid) in blocked {
            self.try_unblock(tid, now);
        }
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    pub(super) fn complete_thread(&mut self, tid: ThreadId, now: Time, sched: &mut Scheduler<Ev>) {
        // Inv_EU phase transitions intercept ordinary completion.
        let th = self.threads.get_mut(tid.0).expect("completing thread");
        match th.inv_phase {
            Some(InvPhase::Pre) => {
                self.finish_inv_pre(tid, now, sched);
                return;
            }
            Some(InvPhase::WaitingTarget) => unreachable!("waiting inv thread cannot run"),
            Some(InvPhase::Post) | None => {}
        }
        th.state = ThreadState::Finished;
        let (node, task_pos, instance, eu) = (th.node, th.task_pos, th.instance, th.eu);
        let had_resources = !th.resources.is_empty();
        if th.terminated_early() {
            self.alarms.raise(
                now,
                MonitorEvent::EarlyTermination {
                    thread: tid.0,
                    wcet: th.action_wcet,
                    actual: th.action_actual,
                },
            );
        }
        self.trace
            .record(now, NodeId(node), TraceKind::Finish, th.name.as_str());
        self.unlist(node, tid);
        // Release resources.
        if self.resmgr[node as usize].release_all(tid) {
            self.recheck_blocked(node, now);
        }
        if had_resources {
            self.notify(node, NotificationKind::Rre, tid, now);
        }
        // Condition variables.
        let tasks = Rc::clone(&self.tasks);
        let task = &tasks.tasks()[task_pos];
        let mut condvar_changed = false;
        if let Eu::Code(c) = task.heug.eu(eu) {
            for &cv in &c.sets {
                condvar_changed |= self.condvars.set(cv);
            }
            for &cv in &c.clears {
                self.condvars.clear(cv);
            }
        }
        if condvar_changed {
            // Condition variables are system-wide: recheck everywhere.
            for n in 0..self.nodes.len() as u32 {
                self.recheck_blocked(n, now);
            }
        }
        // Precedence propagation.
        self.propagate_precedence(task, tid, now, sched);
        self.notify(node, NotificationKind::Trm, tid, now);
        self.threads.remove(tid.0);
        self.instance_thread_done((task_pos, instance), now, sched);
        if condvar_changed {
            // The recheck above may have made threads runnable anywhere.
            for n in 0..self.nodes.len() as u32 {
                self.reschedule(n, now, sched);
            }
        } else {
            self.reschedule_touched(&[node], now, sched);
        }
    }

    fn finish_inv_pre(&mut self, tid: ThreadId, now: Time, sched: &mut Scheduler<Ev>) {
        let (task_pos, eu_idx, node) = {
            let th = &self.threads[tid.0];
            (th.task_pos, th.eu, th.node)
        };
        let tasks = Rc::clone(&self.tasks);
        let inv = tasks.tasks()[task_pos]
            .heug
            .eu(eu_idx)
            .as_inv()
            .expect("inv thread wraps Inv_EU");
        // `TaskSet::new` rejects a set with a dangling invocation target.
        let target = tasks
            .position(inv.target)
            .expect("validated invocation target");
        let inst = self.spawn_instance(&tasks.tasks()[target], target, now, None, sched);
        let th = self.threads.get_mut(tid.0).expect("inv thread");
        th.state = ThreadState::Blocked;
        th.remaining = self.cfg.costs.inv_end.max(Duration::from_nanos(1));
        match inv.mode {
            InvocationMode::Synchronous => {
                th.inv_phase = Some(InvPhase::WaitingTarget);
                self.task_state[target]
                    .instances
                    .get_mut(inst)
                    .expect("just spawned")
                    .sync_waiters
                    .push((tid, node));
            }
            InvocationMode::Asynchronous => {
                th.inv_phase = Some(InvPhase::Post);
                self.try_unblock(tid, now);
            }
        }
        self.reschedule(node, now, sched);
    }

    /// Tells the successors of the just-finished `done` thread (an
    /// instance of `task`) that one predecessor is satisfied.
    fn propagate_precedence(
        &mut self,
        task: &Task,
        done: ThreadId,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let th = &self.threads[done.0];
        let (done_eu, done_node) = (th.eu, th.node);
        let first_thread = self.task_state[th.task_pos].instances[th.instance].first_thread;
        for s in task.heug.successors(done_eu) {
            // The successor thread of the same instance. It may be dead
            // already; a remote handoff is transmitted all the same.
            let succ_tid = ThreadId(first_thread + s.0 as u64);
            let succ_node = task.heug.eu(s).processor().0;
            if succ_node == done_node {
                // Local precedence: verified by the dispatcher (its cost
                // was charged to the predecessor's WCET already).
                if let Some(th) = self.threads.get_mut(succ_tid.0) {
                    th.preds_pending = th.preds_pending.saturating_sub(1);
                    self.try_unblock(succ_tid, now);
                }
            } else {
                // Remote precedence: the msg_task transmits over the
                // network; the receiver's kernel-side cost is the net IRQ
                // kernel activity.
                let fate = self
                    .network
                    .transit(NodeId(done_node), NodeId(succ_node), now);
                self.trace
                    .record_with(now, NodeId(done_node), TraceKind::MsgSend, || {
                        format!("{} -> {}", self.threads[done.0].name, s)
                    });
                let deadline_guess = now + self.network.max_delay() + Duration::from_nanos(1);
                match fate {
                    Delivery::At(t) => {
                        // The dispatcher's precedence handoffs share the
                        // network with the protocol actors: account them
                        // under the "dispatch" sender label (tag 0).
                        self.probe
                            .send("dispatch", 0, done_node, succ_node, mux::WIRE_BYTES);
                        sched.post(
                            t,
                            Ev::RemoteArrive {
                                thread: succ_tid,
                                pred: done_eu,
                            },
                        );
                        // Watchdog still armed: performance failures
                        // (delivery after δmax) are detected too.
                        sched.post(
                            deadline_guess,
                            Ev::OmissionCheck {
                                thread: succ_tid,
                                pred: done_eu,
                            },
                        );
                    }
                    Delivery::Omitted => {
                        sched.post(
                            deadline_guess,
                            Ev::OmissionCheck {
                                thread: succ_tid,
                                pred: done_eu,
                            },
                        );
                    }
                }
            }
        }
    }

    /// One thread of instance `key` finished.
    fn instance_thread_done(&mut self, key: InstanceKey, now: Time, sched: &mut Scheduler<Ev>) {
        let Some(inst) = self.task_state[key.0].instances.get_mut(key.1) else {
            return;
        };
        inst.live -= 1;
        if inst.live == 0 && inst.completed.is_none() {
            inst.completed = Some(now);
            inst.missed |= now > inst.deadline;
            for (w, node) in std::mem::take(&mut inst.sync_waiters) {
                // A waiter that died meanwhile has no phase left to
                // advance; its node is re-evaluated all the same.
                if let Some(th) = self.threads.get_mut(w.0) {
                    th.inv_phase = Some(InvPhase::Post);
                    self.try_unblock(w, now);
                }
                self.reschedule(node, now, sched);
            }
        }
        self.reap_instance(key, now);
    }

    /// Drops the bookkeeping of instance `key` once nothing can name it
    /// any more — no live thread left and its deadline checked —
    /// and settles its outcome.
    pub(super) fn reap_instance(&mut self, key: InstanceKey, now: Time) {
        let st = &mut self.task_state[key.0];
        if !st
            .instances
            .get(key.1)
            .is_some_and(|i| i.live == 0 && i.checked)
        {
            return;
        }
        let inst = st.instances.remove(key.1).expect("reaped instance");
        let task = &self.tasks.tasks()[key.0];
        settle(&mut st.outcome, &self.alarms, task, key.1, &inst, now);
    }

    /// Takes `tid`, which just stopped being live, off its node's live
    /// index.
    pub(super) fn unlist(&mut self, node: u32, tid: ThreadId) {
        let live = &mut self.nodes[node as usize].live;
        if let Ok(i) = live.binary_search(&tid) {
            live.remove(i);
        }
    }
}
