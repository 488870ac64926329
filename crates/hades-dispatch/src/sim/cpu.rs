//! CPU accounting: charging, picking what runs, the scheduler task and
//! the kernel interrupts.

use super::*;

impl Inner {
    // ------------------------------------------------------------------
    // CPU accounting
    // ------------------------------------------------------------------

    /// Charges elapsed CPU time on `node` to whatever is current, records
    /// the trace segment and advances `since`.
    ///
    /// Under an injected CPU slowdown the wall-clock interval is converted
    /// to work *progress* at the speed in force when the interval started
    /// — safe because a fault transition resynchronises `since` at every
    /// speed-window edge, so no charging interval straddles a boundary.
    ///
    /// The rule: with `carry` the node's [`NodeState::carry`], the
    /// interval adds `elapsed × speed + carry` thousandths of a
    /// nanosecond of work; the whole nanoseconds are progress and the
    /// rest (`mod 1000`) is the new carry. Charging is therefore exact
    /// however an interval is split into calls — the progress of the
    /// pieces adds up to the progress of the whole — so a call that
    /// changes nothing else on the node moves none of its completions.
    pub(super) fn sync_clock(&mut self, node: u32, now: Time) {
        let speed = self
            .network
            .fault_plan()
            .speed_permille(NodeId(node), self.nodes[node as usize].since);
        let ns = &mut self.nodes[node as usize];
        let Some(exec) = ns.current else {
            ns.since = now;
            ns.carry = 0;
            return;
        };
        let elapsed = now - ns.since;
        if elapsed.is_zero() {
            return;
        }
        // At full speed the carry is left as it is: `elapsed × 1000` is a
        // whole number of nanoseconds.
        let progress = if speed == 1000 {
            elapsed
        } else {
            let work = elapsed.as_nanos() as u128 * speed as u128 + ns.carry as u128;
            ns.carry = (work % 1000) as u32;
            Duration::from_nanos((work / 1000) as u64)
        };
        let lane = match exec {
            Exec::App(tid) => {
                let th = self.threads.get_mut(tid.0).expect("running thread exists");
                th.remaining = th.remaining.saturating_sub(progress);
                th.name.as_str()
            }
            Exec::Sched => {
                ns.sched_remaining = ns.sched_remaining.saturating_sub(progress);
                self.scheduler_cpu += elapsed;
                "scheduler"
            }
            Exec::Irq(_) => {
                ns.irq_remaining = ns.irq_remaining.saturating_sub(progress);
                self.kernel_cpu += elapsed;
                "kernel"
            }
        };
        let since = ns.since;
        ns.since = now;
        self.node_cpu[node as usize] += elapsed;
        self.trace.segment(NodeId(node), lane, since, now);
    }

    /// Wall-clock time `rem` of work takes on `node` at the CPU speed in
    /// force at `now`: the least `wall` with
    /// `wall × speed + carry ≥ rem × 1000`, the carry being the work
    /// [`Inner::sync_clock`] has already banked. So a slowed exec
    /// finishes at its armed [`Ev::WorkDone`] with exactly `rem` charged,
    /// and a re-sync mid-interval computes that same instant again.
    fn wall_for(&self, node: u32, now: Time, rem: Duration) -> Duration {
        let speed = self.network.fault_plan().speed_permille(NodeId(node), now);
        if speed == 1000 {
            rem
        } else {
            let carry = self.nodes[node as usize].carry as u128;
            let work = (rem.as_nanos() as u128 * 1000).saturating_sub(carry);
            Duration::from_nanos(work.div_ceil(speed as u128) as u64)
        }
    }

    /// Remaining work of the current exec on `node`.
    pub(super) fn current_remaining(&self, node: u32) -> Duration {
        let ns = &self.nodes[node as usize];
        match ns.current {
            Some(Exec::App(tid)) => self.threads[tid.0].remaining,
            Some(Exec::Sched) => ns.sched_remaining,
            Some(Exec::Irq(_)) => ns.irq_remaining,
            None => Duration::ZERO,
        }
    }

    /// Picks what should occupy the CPU of `node` next.
    fn desired_exec(&self, node: u32) -> Option<Exec> {
        let ns = &self.nodes[node as usize];
        // Kernel interrupts run at prio_max with pt = prio_max: they
        // preempt everything and nothing preempts them.
        if let Some(Exec::Irq(a)) = ns.current {
            if !ns.irq_remaining.is_zero() {
                return Some(Exec::Irq(a));
            }
        }
        if let Some(&a) = ns.irq_pending.front() {
            return Some(Exec::Irq(a));
        }
        // Scheduler task at the highest application priority.
        let sched_wants = ns.sched_busy || !ns.sched_fifo.is_empty();
        match ns.current {
            Some(Exec::App(tid)) => {
                let th = &self.threads[tid.0];
                if sched_wants && th.preemptable_by(Priority::APP_MAX) {
                    return Some(Exec::Sched);
                }
                // Running rule with preemption thresholds.
                if let Some(p) = ns.runq.preempter(th.pt) {
                    Some(Exec::App(p))
                } else {
                    Some(Exec::App(tid))
                }
            }
            Some(Exec::Sched) | Some(Exec::Irq(_)) | None => {
                if sched_wants {
                    return Some(Exec::Sched);
                }
                ns.runq.peek_best().map(Exec::App)
            }
        }
    }

    /// Re-evaluates the CPU allocation of `node` after any state change.
    ///
    /// Invariant: an up node with a `current` has exactly one live
    /// [`Ev::WorkDone`] queued, due when `current` runs out of work; an idle
    /// or down node has none. It is re-armed (cancelled, and a new one
    /// posted) only when `current` or that instant changed.
    ///
    /// The rule every handler follows, and the reason no handler has to
    /// look at a node it did not touch: *every mutation of a node's
    /// dispatcher state is followed by a reschedule of that node in the
    /// same handler*, so between events `current` is what
    /// [`Inner::desired_exec`] picks and the armed completion is right.
    /// Because [`Inner::sync_clock`] charges exactly however an interval
    /// is split, rescheduling a node whose state did not change moves
    /// nothing but its trace segments. The mutation sites, each with the
    /// reschedule that covers it:
    ///
    /// - run queue and thread states: `try_unblock` (from
    ///   `spawn_instance`, which passes its threads' nodes to
    ///   [`Inner::reschedule_touched`]; the `EarliestReached` and
    ///   `RemoteArrive` handlers, `finish_inv_pre`, `instance_thread_done`
    ///   for synchronous waiters — each reschedules the thread's node — and
    ///   `recheck_blocked`, whose callers `complete_thread` and
    ///   `abort_thread` are covered below); `boost_priority` (a resource
    ///   holder is on the admitting thread's node); `apply_attr_change`
    ///   (`scheduler_step` hands a policy its own node's threads, and the
    ///   `WorkDone` handler reschedules that node);
    /// - `current` and the thread table: `complete_thread` (the finishing
    ///   thread's node through `reschedule_touched`; every node when a
    ///   condition variable changed, because those are system-wide),
    ///   `abort_thread` (its callers `deadline_check` and `omission_check`
    ///   pass the victims' nodes to `reschedule_touched`);
    /// - scheduler FIFO: `notify` (always on the node its caller
    ///   reschedules);
    /// - interrupt queue: `kernel_irq`;
    /// - CPU speed: `fault_transition` at every slow-window edge;
    /// - `crash_node` leaves nothing to schedule, and `restart_node`
    ///   brings the node up empty.
    pub(super) fn reschedule(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        if self.nodes[node as usize].down {
            return; // a dead node schedules nothing
        }
        self.sync_clock(node, now);
        let desired = self.desired_exec(node);
        let ns = &mut self.nodes[node as usize];
        if ns.current != desired {
            // Put the displaced exec back where it belongs.
            match ns.current {
                Some(Exec::App(tid)) => {
                    let th = self.threads.get_mut(tid.0).expect("displaced thread");
                    if th.state == ThreadState::Running {
                        th.state = ThreadState::Runnable;
                        ns.runq.insert(tid, th.prio, th.runnable_since);
                        self.trace
                            .record(now, NodeId(node), TraceKind::Preempt, th.name.as_str());
                    }
                }
                Some(Exec::Sched) | Some(Exec::Irq(_)) | None => {}
            }
            let ns = &mut self.nodes[node as usize];
            match desired {
                Some(Exec::App(tid)) => {
                    ns.runq.remove(tid);
                    let th = self.threads.get_mut(tid.0).expect("dispatched thread");
                    th.state = ThreadState::Running;
                    if !th.started {
                        th.started = true;
                        th.first_run = Some(now);
                    }
                    // Context-switch cost at each dispatch of a different
                    // thread.
                    if ns.last_app != Some(tid) {
                        th.remaining += self.cfg.costs.ctx_switch;
                        ns.last_app = Some(tid);
                        self.ctx_switches += 1;
                    }
                    self.trace
                        .record(now, NodeId(node), TraceKind::Run, th.name.as_str());
                }
                Some(Exec::Sched) => {
                    if !ns.sched_busy {
                        ns.sched_busy = true;
                        // Zero cost: done via the WorkDone armed below at `now`.
                        ns.sched_remaining = self.cfg.costs.sched_notif;
                    }
                    self.trace
                        .record(now, NodeId(node), TraceKind::Run, "scheduler");
                }
                Some(Exec::Irq(a)) => {
                    if ns.irq_remaining.is_zero() {
                        let popped = ns.irq_pending.pop_front();
                        debug_assert_eq!(popped, Some(a));
                        ns.irq_remaining = self.cfg.kernel.activities()[a].wcet;
                    }
                    self.trace
                        .record(now, NodeId(node), TraceKind::Run, "kernel");
                }
                None => {}
            }
            let ns = &mut self.nodes[node as usize];
            ns.current = desired;
            ns.since = now;
            ns.carry = 0;
        }
        // (Re)arm the completion, unless the one armed still stands.
        let want = self.nodes[node as usize].current.map(|exec| {
            let rem = self.current_remaining(node);
            (exec, now + self.wall_for(node, now, rem))
        });
        let ns = &mut self.nodes[node as usize];
        if ns.armed.map(|(_, exec, at)| (exec, at)) != want {
            if let Some((stale, ..)) = ns.armed.take() {
                sched.cancel(stale);
            }
            ns.armed = want.map(|(exec, at)| (sched.post(at, Ev::WorkDone { node }), exec, at));
        }
    }

    /// Reschedules the nodes a handler touched (`touched` ascending, as
    /// the whole-cluster walk this replaces went), which by the rule on
    /// [`Inner::reschedule`] are all that can have changed.
    pub(super) fn reschedule_touched(
        &mut self,
        touched: &[u32],
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        for &node in touched {
            self.reschedule(node, now, sched);
        }
    }

    // ------------------------------------------------------------------
    // Scheduler task
    // ------------------------------------------------------------------

    pub(super) fn notify(&mut self, node: u32, kind: NotificationKind, tid: ThreadId, now: Time) {
        if self.nodes[node as usize].down {
            return;
        }
        let Some(policy) = &self.nodes[node as usize].policy else {
            return;
        };
        if !policy.subscriptions().contains(&kind) {
            return;
        }
        self.notifications += 1;
        self.trace
            .record_with(now, NodeId(node), TraceKind::Notify, || {
                format!("{} {}", kind.label(), self.threads[tid.0].name)
            });
        self.nodes[node as usize].sched_fifo.push(Notification {
            kind,
            thread: tid,
            at: now,
        });
    }

    /// The scheduler task finished processing one notification: invoke the
    /// policy and apply its attribute changes (the dispatcher primitive).
    pub(super) fn scheduler_step(&mut self, node: u32, now: Time, sched: &mut Scheduler<Ev>) {
        let n = {
            let ns = &mut self.nodes[node as usize];
            ns.sched_busy = false;
            ns.sched_remaining = Duration::ZERO;
            ns.sched_fifo.pop()
        };
        let Some(n) = n else { return };
        debug_assert_eq!(
            self.nodes[node as usize].live.len(),
            self.threads
                .values()
                .filter(|t| t.node == node && t.state.is_live())
                .count(),
            "live index of node {node} out of step with the thread table"
        );
        let live: Vec<ThreadSnapshot> = self.nodes[node as usize]
            .live
            .iter()
            .map(|tid| {
                let t = &self.threads[tid.0];
                debug_assert!(t.node == node && t.state.is_live());
                ThreadSnapshot {
                    thread: t.id,
                    task: t.task,
                    prio: t.prio,
                    abs_deadline: t.abs_deadline,
                    earliest: t.earliest,
                    activation: t.activation,
                    wcet: t.action_wcet,
                    started: t.started,
                    first_run: t.first_run,
                    state: t.state,
                }
            })
            .collect();
        // Only `notify` fills the FIFO, and only for a node with a policy.
        let policy = self.nodes[node as usize].policy.as_mut();
        let changes = policy
            .expect("scheduler step without policy")
            .on_notification(&n, &live);
        for c in changes {
            self.apply_attr_change(node, c, now, sched);
        }
    }

    /// The dispatcher primitive (Section 3.2.2): modify a thread's
    /// priority and/or earliest start time.
    fn apply_attr_change(
        &mut self,
        node: u32,
        c: AttrChange,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(th) = self.threads.get_mut(c.thread.0) else {
            return;
        };
        if !th.state.is_live() {
            return;
        }
        if let Some(p) = c.prio {
            let p = p.min(Priority::APP_MAX.lower(1));
            th.prio = p;
            th.pt = th.pt.max(p);
            self.nodes[th.node as usize].runq.reprioritize(c.thread, p);
            self.trace
                .record_with(now, NodeId(node), TraceKind::AttrChange, || {
                    format!("{} prio <- {p}", th.name)
                });
        }
        if let Some(e) = c.earliest {
            th.earliest = e;
            let tid = th.id;
            if th.state == ThreadState::Runnable && e > now {
                // Pushed into the future: leave the queue until then.
                let node = th.node;
                th.state = ThreadState::Blocked;
                self.nodes[node as usize].runq.remove(tid);
            }
            if e > now {
                // Re-arm the wake-up so the thread is rechecked when its
                // (re)planned start time arrives.
                sched.post(
                    e,
                    Ev::EarliestReached {
                        thread: tid,
                        node: th.node,
                    },
                );
            }
        }
    }

    pub(super) fn kernel_irq(
        &mut self,
        node: u32,
        activity: usize,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let act = &self.cfg.kernel.activities()[activity];
        let period = act.pseudo_period;
        let next = now + period;
        if next <= Time::ZERO + self.cfg.horizon {
            sched.post(next, Ev::KernelIrq { node, activity });
        }
        if act.wcet.is_zero() || self.nodes[node as usize].down {
            return;
        }
        self.nodes[node as usize].irq_pending.push_back(activity);
        self.reschedule(node, now, sched);
    }
}
