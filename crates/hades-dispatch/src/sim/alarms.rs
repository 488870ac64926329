//! The Section 3.2.1 alarms, instance settling, the monitoring handlers
//! and the end-of-run fold.

use super::*;

/// Every Section 3.2.1 alarm goes to the tap, then into the report, so
/// the two cannot disagree; an instance outcome goes to the tap only. A
/// field, so raising borrows only this.
#[derive(Default)]
pub(super) struct Alarms {
    pub(super) tap: Option<ProtocolTap>,
    report: MonitorReport,
}

impl Alarms {
    pub(super) fn raise(&mut self, now: Time, ev: MonitorEvent) {
        if let Some(tap) = &self.tap {
            (tap.0)(now, &ev);
        }
        self.report.push(ev);
    }
}

/// Instance `instance` of `task` was just dropped from the dispatcher's
/// tables, so nothing can change its outcome any more: fold it into the
/// task's tally and hand it to the tap as
/// [`MonitorEvent::InstanceSettled`].
pub(super) fn settle(
    outcome: &mut TaskOutcome,
    alarms: &Alarms,
    task: &Task,
    instance: u64,
    inst: &InstanceState,
    now: Time,
) {
    outcome.settle(inst.activated, inst.completed, inst.missed);
    if let Some(tap) = &alarms.tap {
        let ev = MonitorEvent::InstanceSettled {
            node: home_node(task),
            task: task.id.0,
            instance,
            activated: inst.activated,
            deadline: inst.deadline,
            completed: inst.completed,
            missed: inst.missed,
        };
        (tap.0)(now, &ev);
    }
}

/// The processor of a task's first unit: where its activations happen.
pub(super) fn home_node(task: &Task) -> u32 {
    task.heug.eus().first().map_or(0, |eu| eu.processor().0)
}

impl Inner {
    // ------------------------------------------------------------------
    // Monitoring helpers
    // ------------------------------------------------------------------

    pub(super) fn deadline_check(
        &mut self,
        pos: usize,
        instance: u64,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let st = &mut self.task_state[pos];
        let Some(inst) = st.instances.get_mut(instance) else {
            return;
        };
        inst.checked = true;
        let t = &self.tasks.tasks()[pos];
        if inst.completed.is_some() {
            let inst = st.instances.remove(instance).expect("checked instance");
            settle(&mut st.outcome, &self.alarms, t, instance, &inst, now);
            return;
        }
        inst.missed = true;
        let (task, eus) = (t.id, t.heug.eus());
        self.alarms.raise(
            now,
            MonitorEvent::DeadlineMiss {
                node: home_node(t),
                task: task.0,
                instance,
                activated: inst.activated,
                deadline: now,
            },
        );
        self.trace
            .record_with(now, NodeId(0), TraceKind::Alarm, || {
                format!("deadline_miss {task}#{instance}")
            });
        if matches!(self.cfg.miss_policy, MissPolicy::AbortInstance) {
            // The dead among them are skipped by `abort_thread`.
            let threads = inst.first_thread..inst.first_thread + eus.len() as u64;
            let mut touched: Vec<u32> = threads
                .filter_map(|tid| self.abort_thread(ThreadId(tid), now))
                .collect();
            touched.sort_unstable();
            touched.dedup();
            self.reschedule_touched(&touched, now, sched);
        }
        self.reap_instance((pos, instance), now);
    }

    /// Kills a live thread (aborted instance or lost predecessor) and
    /// counts it as an orphan. Returns the node it died on, for the
    /// caller to reschedule; `None` if there was nothing left to kill.
    fn abort_thread(&mut self, tid: ThreadId, now: Time) -> Option<u32> {
        let th = self.threads.get_mut(tid.0)?;
        if !th.state.is_live() {
            return None;
        }
        let node = th.node;
        let was_running = th.state == ThreadState::Running;
        th.state = ThreadState::Aborted;
        self.unlist(node, tid);
        self.nodes[node as usize].runq.remove(tid);
        if was_running {
            self.nodes[node as usize].current = None;
        }
        if self.resmgr[node as usize].release_all(tid) {
            self.recheck_blocked(node, now);
        }
        self.alarms.raise(
            now,
            MonitorEvent::Orphan {
                thread: tid.0,
                at: now,
            },
        );
        let th = self.threads.remove(tid.0).expect("aborted thread");
        self.trace
            .record_with(now, NodeId(node), TraceKind::Alarm, || {
                format!("orphan {}", th.name)
            });
        let key = (th.task_pos, th.instance);
        if let Some(inst) = self.task_state[key.0].instances.get_mut(key.1) {
            inst.live -= 1;
            // An aborted instance can never complete: record it as missed
            // immediately rather than waiting for the deadline to pass.
            if inst.completed.is_none() {
                inst.missed = true;
            }
        }
        self.reap_instance(key, now);
        Some(node)
    }

    pub(super) fn omission_check(
        &mut self,
        tid: ThreadId,
        pred: EuIndex,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(th) = self.threads.get(tid.0) else {
            return;
        };
        if th.remote_arrived.contains(&pred) || !th.state.is_live() {
            return;
        }
        self.alarms.raise(
            now,
            MonitorEvent::NetworkOmission {
                waiting: tid.0,
                detected_at: now,
            },
        );
        self.trace
            .record_with(now, NodeId(th.node), TraceKind::Alarm, || {
                format!("network_omission {}", th.name)
            });
        // The successor can never run: reap it (and transitively its own
        // successors will be reaped by their own watchdogs or the stall
        // detector; we reap just this thread here).
        let touched = self.abort_thread(tid, now);
        self.reschedule_touched(touched.as_slice(), now, sched);
    }

    pub(super) fn remote_arrive(
        &mut self,
        tid: ThreadId,
        pred: EuIndex,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        // A late delivery to a dead thread is dropped.
        let Some(th) = self.threads.get_mut(tid.0) else {
            return;
        };
        if th.remote_arrived.contains(&pred) {
            return; // duplicate delivery
        }
        th.remote_arrived.push(pred);
        let node = th.node;
        th.preds_pending = th.preds_pending.saturating_sub(1);
        self.trace
            .record_with(now, NodeId(node), TraceKind::MsgRecv, || {
                format!("{} <- {}", th.name, pred)
            });
        self.try_unblock(tid, now);
        self.reschedule(node, now, sched);
    }

    pub(super) fn latest_check(&mut self, tid: ThreadId, now: Time) {
        let Some(th) = self.threads.get(tid.0) else {
            return;
        };
        if th.state.is_live() && !th.started {
            let latest = th.latest.expect("latest check armed with a bound");
            self.alarms.raise(
                now,
                MonitorEvent::LatestStartExceeded {
                    thread: tid.0,
                    latest,
                },
            );
            self.trace
                .record_with(now, NodeId(th.node), TraceKind::Alarm, || {
                    format!("latest_start_exceeded {}", th.name)
                });
        }
    }

    // ------------------------------------------------------------------
    // End of run
    // ------------------------------------------------------------------

    pub(super) fn finish(&mut self, end: Time) -> RunReport {
        // Progress-based deadlock/stall detection (Section 3.2.1 (iv)).
        // Threads still blocked *past their deadline* when the run ends can
        // never make progress; blocked threads with remaining slack are
        // merely in flight at the horizon cutoff, not stalled.
        // The thread table iterates in ascending id order.
        let stuck: Vec<u64> = self
            .threads
            .values()
            .filter(|t| t.state == ThreadState::Blocked && t.abs_deadline <= end)
            .map(|t| t.id.0)
            .collect();
        if !stuck.is_empty() {
            self.alarms.raise(
                end,
                MonitorEvent::Stall {
                    threads: stuck,
                    at: end,
                },
            );
        }
        let telemetry = self.probe.registry();
        if telemetry.is_enabled() {
            let misses = self.alarms.report.deadline_misses() as u64;
            telemetry
                .counter("dispatch.ctx_switches")
                .add(self.ctx_switches);
            telemetry.counter("dispatch.deadline_misses").add(misses);
            telemetry
                .gauge("dispatch.notifications")
                .set(self.notifications);
            telemetry
                .gauge("dispatch.scheduler_cpu_ns")
                .set(self.scheduler_cpu.as_nanos());
            telemetry
                .gauge("dispatch.kernel_cpu_ns")
                .set(self.kernel_cpu.as_nanos());
            for (node, cpu) in self.node_cpu.iter().enumerate() {
                telemetry
                    .gauge(&format!("dispatch.node_cpu_ns.n{node:03}"))
                    .set(cpu.as_nanos());
            }
        }
        // The instances still held at the end are final now too.
        for (task, st) in self.tasks.iter().zip(&mut self.task_state) {
            for (instance, inst) in st.instances.iter() {
                settle(&mut st.outcome, &self.alarms, task, instance, inst, end);
            }
        }
        RunReport {
            instances: Tallies(self.task_state.iter().map(|st| st.outcome).collect()),
            monitor: std::mem::take(&mut self.alarms.report),
            trace: std::mem::replace(&mut self.trace, Trace::disabled()),
            notifications: self.notifications,
            scheduler_cpu: self.scheduler_cpu,
            kernel_cpu: self.kernel_cpu,
            node_cpu: std::mem::take(&mut self.node_cpu),
            finished_at: end,
        }
    }
}
