use super::*;
use hades_task::prelude::*;
use std::cell::RefCell;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// One instance outcome, as the tap heard it settle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Settled {
    at: Time,
    task: TaskId,
    instance: u64,
    activated: Time,
    completed: Option<Time>,
    missed: bool,
}

/// Installs a tap that keeps every settled instance, in settling
/// order; read it once the run is over.
fn settled(sim: &mut DispatchSim) -> Rc<RefCell<Vec<Settled>>> {
    let heard = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&heard);
    sim.set_tap(ProtocolTap(Rc::new(move |at, ev: &MonitorEvent| {
        if let MonitorEvent::InstanceSettled {
            task,
            instance,
            activated,
            completed,
            missed,
            ..
        } = *ev
        {
            sink.borrow_mut().push(Settled {
                at,
                task: TaskId(task),
                instance,
                activated,
                completed,
                missed,
            });
        }
    })));
    heard
}

/// The settled instances of `task`, in activation order.
fn of_task(all: &[Settled], task: TaskId) -> Vec<Settled> {
    let mut v: Vec<Settled> = all.iter().filter(|s| s.task == task).cloned().collect();
    v.sort_by_key(|s| s.instance);
    v
}

fn periodic(id: u32, name: &str, wcet_us: u64, period_us: u64, prio: u32) -> Task {
    Task::new(
        TaskId(id),
        Heug::single(
            CodeEu::new(name, us(wcet_us), ProcessorId(0)).with_priority(Priority::new(prio)),
        )
        .unwrap(),
        ArrivalLaw::Periodic(us(period_us)),
        us(period_us),
    )
}

#[test]
fn single_task_runs_every_period() {
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(5)));
    let r = sim.run();
    assert_eq!(r.instances.len(), 6);
    assert!(r.all_deadlines_met());
    let worst = r.worst_response_times();
    assert_eq!(worst[&TaskId(0)], us(100));
    assert!(r.monitor.is_clean());
}

#[test]
fn higher_priority_preempts() {
    // Low-prio long task + high-prio short task released mid-way.
    let low = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("low", us(500), ProcessorId(0)).with_priority(Priority::new(1)))
            .unwrap(),
        ArrivalLaw::Aperiodic,
        us(2000),
    );
    let high = Task::new(
        TaskId(1),
        Heug::single(CodeEu::new("high", us(100), ProcessorId(0)).with_priority(Priority::new(9)))
            .unwrap(),
        ArrivalLaw::Aperiodic,
        us(200),
    );
    let set = TaskSet::new(vec![low, high]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(5)));
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(1), Time::ZERO + us(200));
    let heard = settled(&mut sim);
    let r = sim.run();
    let heard = heard.take();
    assert!(r.all_deadlines_met());
    // high finishes at 300 (released 200 + 100), low at 600 (preempted
    // for 100).
    let recs = of_task(&heard, TaskId(1));
    assert_eq!(recs[0].completed, Some(Time::ZERO + us(300)));
    let recs = of_task(&heard, TaskId(0));
    assert_eq!(recs[0].completed, Some(Time::ZERO + us(600)));
}

#[test]
fn preemption_threshold_blocks_mid_priority() {
    // Running thread prio 1 / pt 5; arriving prio 5 must NOT preempt,
    // prio 6 must.
    let base = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("base", us(400), ProcessorId(0)).with_timing(
            EuTiming::with_priority(Priority::new(1)).with_threshold(Priority::new(5)),
        ))
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let mid = Task::new(
        TaskId(1),
        Heug::single(CodeEu::new("mid", us(100), ProcessorId(0)).with_priority(Priority::new(5)))
            .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let set = TaskSet::new(vec![base, mid]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(5)));
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(1), Time::ZERO + us(100));
    let heard = settled(&mut sim);
    sim.run();
    let heard = heard.take();
    // mid waits for base: base done at 400, mid at 500.
    assert_eq!(
        of_task(&heard, TaskId(0))[0].completed,
        Some(Time::ZERO + us(400))
    );
    assert_eq!(
        of_task(&heard, TaskId(1))[0].completed,
        Some(Time::ZERO + us(500))
    );
}

#[test]
fn costs_inflate_execution() {
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(1));
    cfg.costs = CostModel {
        act_start: us(3),
        act_end: us(2),
        ctx_switch: us(1),
        ..CostModel::zero()
    };
    cfg.auto_activate = true;
    let mut sim = DispatchSim::new(set, cfg);
    let r = sim.run();
    // 1 ctx switch + 3 start + 100 action + 2 end = 106.
    assert_eq!(r.worst_response_times()[&TaskId(0)], us(106));
}

#[test]
fn kernel_irqs_steal_cpu() {
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(1));
    cfg.kernel = KernelModel::default().with_activity(hades_sim::KernelActivity::new(
        "tick",
        us(10),
        us(50),
    ));
    let mut sim = DispatchSim::new(set, cfg);
    let r = sim.run();
    assert!(r.kernel_cpu > Duration::ZERO);
    // The task needed 100 µs of CPU but shares with 10/50 = 20% IRQ
    // load: response stretches past 100 µs.
    assert!(r.worst_response_times()[&TaskId(0)] > us(100));
    assert!(r.all_deadlines_met());
}

#[test]
fn deadline_miss_detected_and_instance_aborts() {
    // WCET 800 vs deadline 500.
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("slow", us(800), ProcessorId(0))).unwrap(),
        ArrivalLaw::Aperiodic,
        us(500),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(2));
    cfg.miss_policy = MissPolicy::AbortInstance;
    let mut sim = DispatchSim::new(set, cfg);
    sim.activate_at(TaskId(0), Time::ZERO);
    let heard = settled(&mut sim);
    let r = sim.run();
    assert_eq!(r.misses(), 1);
    assert_eq!(r.monitor.deadline_misses(), 1);
    assert_eq!(r.monitor.orphans(), 1, "aborted thread counted as orphan");
    assert_eq!(heard.borrow()[0].completed, None);
    assert_eq!(r.outcome(TaskId(0)).unwrap().completed, 0);
}

#[test]
fn late_completion_when_miss_policy_continue() {
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("slow", us(800), ProcessorId(0))).unwrap(),
        ArrivalLaw::Aperiodic,
        us(500),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(2)));
    sim.activate_at(TaskId(0), Time::ZERO);
    let heard = settled(&mut sim);
    let r = sim.run();
    assert_eq!(r.misses(), 1);
    let heard = heard.take();
    assert_eq!(heard[0].completed, Some(Time::ZERO + us(800)));
    assert!(heard[0].missed);
    // Late, but completed: its response counts.
    assert_eq!(r.worst_response_times()[&TaskId(0)], us(800));
}

#[test]
fn early_termination_reported() {
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_micros(900));
    cfg.exec = ExecTimeModel::FractionPermille(500);
    let mut sim = DispatchSim::new(set, cfg);
    let r = sim.run();
    assert_eq!(r.monitor.early_terminations(), 1);
    assert_eq!(r.worst_response_times()[&TaskId(0)], us(50));
}

#[test]
fn precedence_chain_runs_in_order() {
    let mut b = HeugBuilder::new("chain");
    let a = b.code_eu(CodeEu::new("a", us(10), ProcessorId(0)));
    let c = b.code_eu(CodeEu::new("b", us(20), ProcessorId(0)));
    let d = b.code_eu(CodeEu::new("c", us(30), ProcessorId(0)));
    b.precede(a, c).precede(c, d);
    let t = Task::new(
        TaskId(0),
        b.build().unwrap(),
        ArrivalLaw::Aperiodic,
        us(500),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(1)));
    sim.activate_at(TaskId(0), Time::ZERO);
    let heard = settled(&mut sim);
    let r = sim.run();
    assert!(r.all_deadlines_met());
    assert_eq!(heard.borrow()[0].completed, Some(Time::ZERO + us(60)));
}

#[test]
fn remote_precedence_crosses_network() {
    let mut b = HeugBuilder::new("dist");
    let a = b.code_eu(CodeEu::new("a", us(10), ProcessorId(0)));
    let c = b.code_eu(CodeEu::new("b", us(10), ProcessorId(1)));
    b.precede_with(a, c, 64);
    let t = Task::new(
        TaskId(0),
        b.build().unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(1));
    cfg.link = LinkConfig::reliable(us(100), us(100));
    let mut sim = DispatchSim::new(set, cfg);
    sim.activate_at(TaskId(0), Time::ZERO);
    let heard = settled(&mut sim);
    let r = sim.run();
    assert!(r.all_deadlines_met());
    // 10 (a) + 100 (net) + 10 (b) = 120.
    assert_eq!(heard.borrow()[0].completed, Some(Time::ZERO + us(120)));
    assert_eq!(r.monitor.network_omissions(), 0);
}

#[test]
fn network_omission_detected_and_orphan_reaped() {
    let mut b = HeugBuilder::new("dist");
    let a = b.code_eu(CodeEu::new("a", us(10), ProcessorId(0)));
    let c = b.code_eu(CodeEu::new("b", us(10), ProcessorId(1)));
    b.precede(a, c);
    let t = Task::new(
        TaskId(0),
        b.build().unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(1));
    cfg.link = LinkConfig::reliable(us(10), us(20)).with_omissions(1000); // all lost
    let mut sim = DispatchSim::new(set, cfg);
    sim.activate_at(TaskId(0), Time::ZERO);
    let r = sim.run();
    assert_eq!(r.monitor.network_omissions(), 1);
    assert_eq!(r.monitor.orphans(), 1);
    assert_eq!(r.misses(), 1, "instance can never complete");
}

#[test]
fn condvar_gates_start_across_tasks() {
    let go = CondVarId(0);
    let producer = Task::new(
        TaskId(0),
        Heug::single(
            CodeEu::new("prod", us(50), ProcessorId(0))
                .setting(go)
                .with_priority(Priority::new(1)),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(1000),
    );
    let consumer = Task::new(
        TaskId(1),
        Heug::single(
            CodeEu::new("cons", us(10), ProcessorId(0))
                .waiting_on(go)
                .with_priority(Priority::new(9)),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(1000),
    );
    let set = TaskSet::new(vec![producer, consumer]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(1)));
    sim.activate_at(TaskId(1), Time::ZERO); // consumer first: must wait
    sim.activate_at(TaskId(0), Time::ZERO + us(10));
    let heard = settled(&mut sim);
    let r = sim.run();
    assert!(r.all_deadlines_met());
    // producer: 10..60; consumer starts only after cv set at 60.
    let consumer = of_task(&heard.take(), TaskId(1));
    assert_eq!(consumer[0].completed, Some(Time::ZERO + us(70)));
}

#[test]
fn exclusive_resource_serialises() {
    let r0 = ResourceId(0);
    let t0 = Task::new(
        TaskId(0),
        Heug::single(
            CodeEu::new("w1", us(100), ProcessorId(0))
                .with_resource(ResourceUse::exclusive(r0))
                .with_priority(Priority::new(1)),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let t1 = Task::new(
        TaskId(1),
        Heug::single(
            CodeEu::new("w2", us(100), ProcessorId(0))
                .with_resource(ResourceUse::exclusive(r0))
                .with_priority(Priority::new(9)),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let set = TaskSet::new(vec![t0, t1]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(1)));
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(1), Time::ZERO + us(10)); // higher prio, but must wait
    let heard = settled(&mut sim);
    sim.run();
    let heard = heard.take();
    assert_eq!(
        of_task(&heard, TaskId(0))[0].completed,
        Some(Time::ZERO + us(100))
    );
    assert_eq!(
        of_task(&heard, TaskId(1))[0].completed,
        Some(Time::ZERO + us(200)),
        "t1 blocked until t0 released the resource"
    );
}

#[test]
fn sporadic_auto_activation_uses_pseudo_period() {
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("s", us(10), ProcessorId(0))).unwrap(),
        ArrivalLaw::Sporadic(us(500)),
        us(500),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_micros(1600)));
    let r = sim.run();
    assert_eq!(r.instances.len(), 4); // 0, 500, 1000, 1500
    assert_eq!(r.monitor.arrival_violations(), 0);
}

#[test]
fn arrival_law_violation_flagged() {
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("s", us(10), ProcessorId(0))).unwrap(),
        ArrivalLaw::Sporadic(us(500)),
        us(500),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(1));
    cfg.auto_activate = false;
    let mut sim = DispatchSim::new(set, cfg);
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(0), Time::ZERO + us(100)); // too soon
    let r = sim.run();
    assert_eq!(r.monitor.arrival_violations(), 1);
}

#[test]
fn stall_detected_for_never_set_condvar() {
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("stuck", us(10), ProcessorId(0)).waiting_on(CondVarId(9)))
            .unwrap(),
        ArrivalLaw::Aperiodic,
        us(100),
    );
    let set = TaskSet::new(vec![t]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(1)));
    sim.activate_at(TaskId(0), Time::ZERO);
    let r = sim.run();
    assert_eq!(r.monitor.stalls(), 1);
    assert_eq!(r.misses(), 1);
}

#[test]
fn latest_start_overrun_flagged() {
    // Low-prio thread with tight latest bound starved by a high-prio hog.
    let hog = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("hog", us(400), ProcessorId(0)).with_priority(Priority::new(9)))
            .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let meek = Task::new(
        TaskId(1),
        Heug::single(
            CodeEu::new("meek", us(10), ProcessorId(0))
                .with_timing(EuTiming::with_priority(Priority::new(1)).with_latest(us(50))),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5000),
    );
    let set = TaskSet::new(vec![hog, meek]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(1)));
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(1), Time::ZERO);
    let r = sim.run();
    assert_eq!(r.monitor.latest_start_exceeded(), 1);
}

#[test]
fn synchronous_invocation_waits_for_target() {
    let callee = Task::new(
        TaskId(1),
        Heug::single(CodeEu::new("callee", us(100), ProcessorId(0))).unwrap(),
        ArrivalLaw::Aperiodic,
        us(1000),
    );
    let mut b = HeugBuilder::new("caller");
    let pre = b.code_eu(CodeEu::new("pre", us(10), ProcessorId(0)));
    let call = b.inv_eu(InvEu::sync("call", TaskId(1), ProcessorId(0)));
    let post = b.code_eu(CodeEu::new("post", us(10), ProcessorId(0)));
    b.precede(pre, call).precede(call, post);
    let caller = Task::new(
        TaskId(0),
        b.build().unwrap(),
        ArrivalLaw::Aperiodic,
        us(1000),
    );
    let set = TaskSet::new(vec![caller, callee]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(1));
    cfg.auto_activate = false;
    let mut sim = DispatchSim::new(set, cfg);
    sim.activate_at(TaskId(0), Time::ZERO);
    let heard = settled(&mut sim);
    let r = sim.run();
    let heard = heard.take();
    assert!(r.all_deadlines_met());
    let callee_rec = &of_task(&heard, TaskId(1))[0];
    assert!(callee_rec.completed.is_some());
    let caller_rec = &of_task(&heard, TaskId(0))[0];
    // pre 10 + inv (>=1ns) + callee 100 + inv end + post 10 ≈ 120.
    let done = caller_rec.completed.unwrap() - Time::ZERO;
    assert!(done >= us(120), "caller done at {done}");
    assert!(done < us(125));
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let set = TaskSet::new(vec![
            periodic(0, "a", 100, 700, 3),
            periodic(1, "b", 200, 1100, 2),
            periodic(2, "c", 150, 1300, 1),
        ])
        .unwrap();
        let mut cfg = SimConfig::realistic(Duration::from_millis(20));
        cfg.seed = 42;
        cfg.exec = ExecTimeModel::UniformFraction {
            min_permille: 500,
            max_permille: 1000,
        };
        let mut sim = DispatchSim::new(set, cfg);
        let heard = settled(&mut sim);
        let r = sim.run();
        (r, heard.take())
    };
    let (a, a_settled) = mk();
    let (b, b_settled) = mk();
    assert_eq!(a_settled, b_settled);
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.monitor.events(), b.monitor.events());
    assert_eq!(a.kernel_cpu, b.kernel_cpu);
}

#[test]
fn crashed_node_executes_nothing_while_down() {
    // Node 0 is down during [2 ms, 4 ms): the trace must show no
    // execution segment overlapping the outage, and the periodic task
    // must resume cold after the restart.
    let down = Time::ZERO + Duration::from_millis(2);
    let up = Time::ZERO + Duration::from_millis(4);
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let cfg = SimConfig::ideal(Duration::from_millis(6));
    let net = Network::homogeneous(2, cfg.link, SimRng::seed_from(0))
        .with_fault_plan(hades_sim::FaultPlan::new().crash_window(NodeId(0), down, up));
    let mut sim = DispatchSim::with_network(set, cfg, net);
    let heard = settled(&mut sim);
    let r = sim.run();
    for seg in r.trace.segments() {
        if seg.node == NodeId(0) {
            assert!(
                seg.end <= down || seg.start >= up,
                "segment {seg:?} overlaps the outage"
            );
        }
    }
    // Activations at 0 and 1 ms ran; 2 and 3 ms died with the node;
    // 4 and 5 ms ran again after the cold restart (6 ms activates at
    // the horizon and cannot finish).
    let done: Vec<u64> = of_task(&heard.take(), TaskId(0))
        .iter()
        .filter(|i| i.completed.is_some())
        .map(|i| (i.activated - Time::ZERO).as_nanos() / 1_000_000)
        .collect();
    assert_eq!(done, vec![0, 1, 4, 5]);
    assert_eq!(r.instances.len(), 5, "no instances spawned while down");
}

#[test]
fn restart_during_mode_transition_enters_the_new_mode_at_restart() {
    // Old mode (task 0) retires at 3 ms; new mode (task 1) releases
    // at 3 ms. Node 0 is down across the switch, [2.5 ms, 4.3 ms):
    // the restarted node must come back executing the *new* mode
    // immediately (chain re-anchored at 4.3 ms), never replaying the
    // old mode's activations, and without waiting for the stale
    // 3 ms-phase chain (next phase instant would be 5 ms).
    let down = Time::ZERO + Duration::from_micros(2_500);
    let up = Time::ZERO + Duration::from_micros(4_300);
    let switch = Time::ZERO + Duration::from_millis(3);
    let set = TaskSet::new(vec![
        periodic(0, "old", 100, 1000, 1),
        periodic(1, "new", 100, 1000, 1),
    ])
    .unwrap();
    let cfg = SimConfig::ideal(Duration::from_millis(8));
    let net = Network::homogeneous(2, cfg.link, SimRng::seed_from(0))
        .with_fault_plan(hades_sim::FaultPlan::new().crash_window(NodeId(0), down, up));
    let mut sim = DispatchSim::with_network(set, cfg, net);
    sim.set_activation_window(TaskId(0), Time::ZERO, switch);
    sim.set_activation_window(TaskId(1), switch, Time::MAX);
    let heard = settled(&mut sim);
    let r = sim.run();
    let heard = heard.take();
    let old: Vec<u64> = of_task(&heard, TaskId(0))
        .iter()
        .map(|i| (i.activated - Time::ZERO).as_nanos() / 1_000)
        .collect();
    let new: Vec<u64> = of_task(&heard, TaskId(1))
        .iter()
        .map(|i| (i.activated - Time::ZERO).as_nanos() / 1_000)
        .collect();
    assert_eq!(
        old,
        vec![0, 1_000, 2_000],
        "no old-mode replay after restart"
    );
    assert_eq!(
        new,
        vec![4_300, 5_300, 6_300, 7_300],
        "the new mode starts at the restart instant, not at the stale phase"
    );
    assert!(r.all_deadlines_met());
}

#[test]
fn windows_open_before_the_crash_keep_their_phase() {
    // The window opened at time zero (before the down window): the
    // restarted node resumes the original phase — the pre-existing
    // behaviour must be untouched.
    let down = Time::ZERO + Duration::from_millis(2);
    let up = Time::ZERO + Duration::from_micros(4_300);
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let cfg = SimConfig::ideal(Duration::from_millis(7));
    let net = Network::homogeneous(2, cfg.link, SimRng::seed_from(0))
        .with_fault_plan(hades_sim::FaultPlan::new().crash_window(NodeId(0), down, up));
    let mut sim = DispatchSim::with_network(set, cfg, net);
    sim.set_activation_window(TaskId(0), Time::ZERO, Time::MAX);
    let heard = settled(&mut sim);
    sim.run();
    let acts: Vec<u64> = of_task(&heard.take(), TaskId(0))
        .iter()
        .map(|i| (i.activated - Time::ZERO).as_nanos() / 1_000)
        .collect();
    assert_eq!(acts, vec![0, 1_000, 5_000, 6_000, 7_000]);
}

#[test]
fn permanent_crash_keeps_node_silent_and_uncharged() {
    let down = Time::ZERO + Duration::from_millis(2);
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let cfg = SimConfig::ideal(Duration::from_millis(6));
    let net = Network::homogeneous(2, cfg.link, SimRng::seed_from(0))
        .with_fault_plan(hades_sim::FaultPlan::new().crash_at(NodeId(0), down));
    let mut sim = DispatchSim::with_network(set, cfg, net);
    let r = sim.run();
    assert_eq!(r.instances.len(), 2, "only the pre-crash activations");
    // Exactly the two 100 µs actions were charged, nothing after.
    assert_eq!(r.node_cpu[0], us(200));
}

#[test]
fn activation_window_bounds_the_periodic_chain() {
    let set = TaskSet::new(vec![
        periodic(0, "old", 100, 1000, 1),
        periodic(1, "new", 100, 1000, 1),
    ])
    .unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(8)));
    let switch = Time::ZERO + Duration::from_millis(3);
    sim.set_activation_window(TaskId(0), Time::ZERO, switch);
    sim.set_activation_window(TaskId(1), switch, Time::MAX);
    let heard = settled(&mut sim);
    let r = sim.run();
    let heard = heard.take();
    let old: Vec<u64> = of_task(&heard, TaskId(0))
        .iter()
        .map(|i| (i.activated - Time::ZERO).as_nanos() / 1_000_000)
        .collect();
    let new: Vec<u64> = of_task(&heard, TaskId(1))
        .iter()
        .map(|i| (i.activated - Time::ZERO).as_nanos() / 1_000_000)
        .collect();
    assert_eq!(old, vec![0, 1, 2], "old mode stops at the switch");
    assert_eq!(new, vec![3, 4, 5, 6, 7, 8], "new mode starts at the switch");
    assert!(r.all_deadlines_met());
}

// ------------------------------------------------------------------
// Live index and retirement
// ------------------------------------------------------------------

/// The live threads of `node` by brute force: a scan of the whole
/// thread table, which is what `scheduler_step` used to do.
fn scan_live(inner: &Inner, node: u32) -> Vec<ThreadId> {
    let mut v: Vec<ThreadId> = inner
        .threads
        .values()
        .filter(|t| t.node == node && t.state.is_live())
        .map(|t| t.id)
        .collect();
    v.sort();
    v
}

#[derive(Default)]
struct Audit {
    /// `scan_live` of every node, refreshed before each event.
    scan: std::cell::RefCell<Vec<Vec<ThreadId>>>,
    /// Notifications processed, and the snapshot lengths summed.
    calls: std::cell::Cell<u64>,
    handed: std::cell::Cell<u64>,
    /// Completions delivered.
    work_done: std::cell::Cell<u64>,
}

/// A policy that changes nothing and checks every snapshot it is
/// handed: live, ascending, and exactly the brute-force scan of its
/// own node (so complete, and free of other nodes' threads).
struct Auditor {
    node: u32,
    audit: Rc<Audit>,
}

impl SchedulerPolicy for Auditor {
    fn name(&self) -> &str {
        "auditor"
    }

    fn on_notification(&mut self, _n: &Notification, live: &[ThreadSnapshot]) -> Vec<AttrChange> {
        assert!(live.iter().all(|s| s.state.is_live()));
        let ids: Vec<ThreadId> = live.iter().map(|s| s.thread).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending: {ids:?}");
        assert_eq!(ids, self.audit.scan.borrow()[self.node as usize]);
        self.audit.calls.set(self.audit.calls.get() + 1);
        self.audit
            .handed
            .set(self.audit.handed.get() + ids.len() as u64);
        Vec::new()
    }
}

/// Runs the scan before every event. The scheduler task's completion
/// touches no thread before it calls the policy, so the scan is the
/// table as `scheduler_step` finds it.
///
/// It also holds the completion invariant of `reschedule` around every
/// event: a delivered `WorkDone` is the one its node has armed, for the
/// exec that is current, due now; and afterwards a node has a
/// completion armed exactly when it is up with something current. A
/// second live completion of a node would be delivered while another
/// (or none) is armed, so the two checks make it "exactly one".
struct Audited<'a> {
    inner: &'a mut Inner,
    audit: Rc<Audit>,
}

impl Simulation for Audited<'_> {
    type Event = Ev;

    fn handle(&mut self, now: Time, event: Ev, sched: &mut Scheduler<Ev>) {
        *self.audit.scan.borrow_mut() = (0..self.inner.nodes.len() as u32)
            .map(|n| scan_live(self.inner, n))
            .collect();
        if let Ev::WorkDone { node } = event {
            let ns = &self.inner.nodes[node as usize];
            let armed = ns.armed.map(|(_, exec, at)| (Some(exec), at));
            assert_eq!(armed, Some((ns.current, now)), "stale completion");
            assert!(!ns.down, "completion on down node {node}");
            self.audit.work_done.set(self.audit.work_done.get() + 1);
        }
        self.inner.handle(now, event, sched);
        for (n, ns) in self.inner.nodes.iter().enumerate() {
            let busy = !ns.down && ns.current.is_some();
            let state = (ns.down, ns.current, ns.armed);
            assert_eq!(ns.armed.is_some(), busy, "node {n} at {now}: {state:?}");
        }
    }
}

/// Delivers whatever the run left queued past its horizon, counting
/// the completions per node.
struct DrainCompletions(Vec<usize>);

impl Simulation for DrainCompletions {
    type Event = Ev;

    fn handle(&mut self, _: Time, event: Ev, _: &mut Scheduler<Ev>) {
        if let Ev::WorkDone { node } = event {
            self.0[node as usize] += 1;
        }
    }
}

/// `DispatchSim::run` with an [`Auditor`] as every node's scheduler.
fn run_audited(sim: &mut DispatchSim) -> (RunReport, Rc<Audit>) {
    let audit = Rc::new(Audit::default());
    for node in 0..sim.inner.nodes.len() as u32 {
        let audit = Rc::clone(&audit);
        sim.set_policy(node, Box::new(Auditor { node, audit }));
    }
    sim.prime();
    let horizon = Time::ZERO + sim.inner.cfg.horizon;
    let mut audited = Audited {
        inner: &mut sim.inner,
        audit: Rc::clone(&audit),
    };
    sim.engine.run(&mut audited, horizon);
    let end = sim.engine.now();
    // Cancelled completions are never delivered, so what is left in
    // the queue is one completion per armed node and no other.
    let mut left = DrainCompletions(vec![0; sim.inner.nodes.len()]);
    sim.engine.run_to_completion(&mut left);
    let armed = sim.inner.nodes.iter().map(|ns| ns.armed.is_some() as usize);
    assert_eq!(left.0, armed.collect::<Vec<_>>());
    (sim.inner.finish(end), audit)
}

/// `pre -> call(sync Inv of `callee`) -> post`, with `post` on
/// `post_node`.
fn caller(id: u32, callee: u32, node: u32, post_node: u32, period_us: u64) -> Task {
    let mut b = HeugBuilder::new("caller");
    let pre = b.code_eu(CodeEu::new("pre", us(10), ProcessorId(node)));
    let call = b.inv_eu(InvEu::sync("call", TaskId(callee), ProcessorId(node)));
    let post = b.code_eu(CodeEu::new("post", us(10), ProcessorId(post_node)));
    b.precede(pre, call).precede(call, post);
    Task::new(
        TaskId(id),
        b.build().unwrap(),
        ArrivalLaw::Periodic(us(period_us)),
        us(period_us),
    )
}

fn callee(id: u32, node: u32, wcet_us: u64) -> Task {
    Task::new(
        TaskId(id),
        Heug::single(CodeEu::new("callee", us(wcet_us), ProcessorId(node))).unwrap(),
        ArrivalLaw::Aperiodic,
        us(1000),
    )
}

#[test]
fn scheduler_is_handed_exactly_the_live_threads_of_its_node() {
    // Completion (beat), an instance aborted at every deadline (slow),
    // a remote precedence edge 0 -> 1 (dist), a synchronous Inv_EU on
    // node 1 (caller/callee), and node 1 crashing while its caller
    // waits for the callee, back up 1.4 ms later.
    let slow = Task::new(
        TaskId(1),
        Heug::single(CodeEu::new("slow", us(900), ProcessorId(0))).unwrap(),
        ArrivalLaw::Periodic(us(2000)),
        us(500),
    );
    let mut b = HeugBuilder::new("dist");
    let a = b.code_eu(CodeEu::new("a", us(50), ProcessorId(0)).with_priority(Priority::new(5)));
    let c = b.code_eu(CodeEu::new("b", us(50), ProcessorId(1)));
    b.precede_with(a, c, 64);
    let dist = Task::new(
        TaskId(2),
        b.build().unwrap(),
        ArrivalLaw::Periodic(us(1000)),
        us(1000),
    );
    let set = TaskSet::new(vec![
        periodic(0, "beat", 100, 1000, 9),
        slow,
        dist,
        caller(3, 4, 1, 1, 2000),
        callee(4, 1, 100),
    ])
    .unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(10));
    cfg.miss_policy = MissPolicy::AbortInstance;
    cfg.link = LinkConfig::reliable(us(20), us(40));
    cfg.costs.sched_notif = us(2);
    let down = Time::ZERO + us(2050);
    let up = Time::ZERO + us(3450);
    let net = Network::homogeneous(2, cfg.link, SimRng::seed_from(3))
        .with_fault_plan(hades_sim::FaultPlan::new().crash_window(NodeId(1), down, up));
    let mut sim = DispatchSim::with_network(set, cfg, net);
    let heard = settled(&mut sim);
    let (r, audit) = run_audited(&mut sim);
    let heard = heard.take();
    assert!(audit.calls.get() > 80, "{} snapshots", audit.calls.get());
    assert!(audit.work_done.get() > 100, "{}", audit.work_done.get());
    let done = |t: u32| {
        let n = of_task(&heard, TaskId(t))
            .iter()
            .filter(|i| i.completed.is_some())
            .count();
        assert_eq!(r.outcome(TaskId(t)).unwrap().completed, n as u64);
        n
    };
    // The activations at the horizon itself are still in flight.
    assert_eq!(done(0), 10, "beat completes every period");
    assert_eq!(done(1), 0, "slow never makes its deadline");
    assert_eq!(
        r.monitor.orphans(),
        5 + 1,
        "five slow instances, and the dist successor spawned on the down node"
    );
    assert_eq!(done(2), 9, "dist loses the instance node 1 was down for");
    assert_eq!((done(3), done(4)), (4, 4), "the crash kills one call");
    let calls = sim.inner.threads.values().filter(|t| t.inv_phase.is_some());
    assert_eq!(
        calls.count(),
        1,
        "the call that died waiting for its target left no phase behind"
    );
}

#[test]
fn tables_hold_the_live_not_every_thread_ever_created() {
    // 10^4 instances of a three-thread caller with a remote edge, each
    // spawning a callee instance: 4 * 10^4 threads over the run.
    let set = TaskSet::new(vec![caller(0, 1, 0, 1, 100), callee(1, 0, 20)]).unwrap();
    let mut cfg = SimConfig::ideal(Duration::from_millis(1000));
    cfg.link = LinkConfig::reliable(us(5), us(10));
    cfg.trace = false;
    let mut sim = DispatchSim::new(set, cfg);
    let (r, _) = run_audited(&mut sim);
    assert_eq!(r.instances.len(), 20_001);
    assert_eq!(r.misses(), 0);
    assert_eq!(sim.inner.threads.next_id(), 40_003);
    let inner = &sim.inner;
    // Records held, and the slots their id windows span (holes and all).
    let sizes = [
        inner.threads.len(),
        inner.threads.span(),
        inner.task_state.iter().map(|t| t.instances.len()).sum(),
        inner.task_state.iter().map(|t| t.instances.span()).sum(),
        inner.nodes.iter().map(|n| n.live.len()).sum(),
    ];
    // What is in flight at the horizon, plus the instances whose
    // deadline check is still queued.
    assert!(sizes.iter().all(|&n| n <= 12), "table sizes {sizes:?}");
}

#[test]
fn snapshot_volume_grows_linearly_with_the_horizon() {
    let handed = |horizon_ms: u64| {
        let set = TaskSet::new(vec![
            periodic(0, "a", 100, 1000, 3),
            periodic(1, "b", 300, 2000, 2),
            periodic(2, "c", 500, 4000, 1),
        ])
        .unwrap();
        let mut cfg = SimConfig::ideal(Duration::from_millis(horizon_ms));
        cfg.costs.sched_notif = us(2);
        cfg.trace = false;
        let mut sim = DispatchSim::new(set, cfg);
        let (_, audit) = run_audited(&mut sim);
        audit.handed.get()
    };
    // Both horizons are whole hyperperiods, and the notifications of
    // the activations at the horizon itself are never processed.
    let (short, long) = (handed(40), handed(160));
    assert!(short > 100, "{short}");
    assert_eq!(long, 4 * short);
}

#[test]
fn zero_length_exec_after_a_completion_at_the_same_instant_is_armed_anew() {
    // Under the zero-cost model the scheduler task's notification
    // takes no time: every thread completion is followed, at the same
    // instant on the same node, by an `Exec::Sched` that completes at
    // that instant too. Taken for "already armed", it would never
    // complete and the node would stop at its first completion.
    let set = TaskSet::new(vec![
        periodic(0, "a", 100, 1000, 3),
        periodic(1, "b", 300, 2000, 2),
    ])
    .unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(20)));
    assert!(sim.inner.cfg.costs.sched_notif.is_zero());
    let heard = settled(&mut sim);
    let (r, audit) = run_audited(&mut sim);
    assert_eq!(r.finished_at, Time::ZERO + Duration::from_millis(20));
    assert_eq!(r.instances.len(), 21 + 11);
    // All but the two activated at the horizon itself have completed.
    let heard = heard.take();
    assert_eq!(heard.len(), 21 + 11);
    assert_eq!(heard.iter().filter(|i| i.completed.is_some()).count(), 30);
    assert_eq!(r.instances.iter().map(|t| t.completed).sum::<u64>(), 30);
    assert_eq!(r.misses(), 0);
    // Two notifications (activation, termination) per completed thread.
    assert!(audit.calls.get() >= 60, "{} snapshots", audit.calls.get());
}

#[test]
fn actor_event_kinds_follow_the_delivery_classes() {
    let events = [
        ActorEvent::Start,
        ActorEvent::Restart,
        ActorEvent::Timer { tag: 7 },
        ActorEvent::Message {
            from: NodeId(0),
            tag: 7,
            payload: 0,
        },
        ActorEvent::Notify { tag: 7 },
    ];
    for (ev, class) in events.into_iter().zip(hades_telemetry::DELIVERY_CLASSES) {
        let actor = ActorId(0);
        let kind = Ev::Actor { actor, ev }.kind();
        assert_eq!(EV_KINDS[kind], format!("actor.{class}"));
    }
    assert_eq!(Ev::FaultTransition { node: 0 }.kind(), 8);
    assert_eq!(EV_KINDS[8], "fault_transition");
}

// ------------------------------------------------------------------
// Touched-node rescheduling
// ------------------------------------------------------------------

/// Delivers events to `inner` and re-syncs node 1 after each of them,
/// whether or not the event touched it.
struct Resync<'a>(&'a mut Inner);

impl Simulation for Resync<'_> {
    type Event = Ev;

    fn handle(&mut self, now: Time, event: Ev, sched: &mut Scheduler<Ev>) {
        self.0.handle(now, event, sched);
        self.0.reschedule(1, now, sched);
    }
}

#[test]
fn a_slowed_completion_ignores_foreign_resyncs() {
    // The scenario of `tests/locality.rs` — node 0 completes short
    // threads while node 1 runs one 10 ms thread — with node 1 at
    // 700 ‰ from t = 1 ms. 1 ms at full speed leaves 9 ms of work, which
    // takes ⌈9 ms / 0.7⌉ = 12 857 143 ns at 700 ‰: the thread completes
    // at 13 857 143 ns alone, beside node 0's load, and with node 1
    // re-synced after every event of the run (99 991 ns at 700 ‰ is
    // 69 993.7 ns of work, so each re-sync carries a fraction).
    let ns = Duration::from_nanos;
    let short = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("short", ns(9_973), ProcessorId(0))).unwrap(),
        ArrivalLaw::Periodic(ns(99_991)),
        ns(99_991),
    );
    let long = Task::new(
        TaskId(1),
        Heug::single(CodeEu::new("long", us(10_000), ProcessorId(1))).unwrap(),
        ArrivalLaw::Aperiodic,
        us(30_000),
    );
    let horizon = Duration::from_millis(20);
    let mut cfg = SimConfig::ideal(horizon);
    cfg.trace = false;
    let slow_from = Time::ZERO + us(1_000);
    let runs = [
        (vec![long.clone()], false),
        (vec![short.clone(), long.clone()], false),
        (vec![short, long], true),
    ];
    for (tasks, resync) in runs {
        let plan = hades_sim::FaultPlan::new().slow_node(NodeId(1), slow_from, Time::MAX, 700);
        let net = Network::homogeneous(2, cfg.link, SimRng::seed_from(1)).with_fault_plan(plan);
        let n = tasks.len();
        let mut sim = DispatchSim::with_network(TaskSet::new(tasks).unwrap(), cfg.clone(), net);
        sim.activate_at(TaskId(1), Time::ZERO);
        let heard = settled(&mut sim);
        if resync {
            sim.prime();
            sim.engine
                .run(&mut Resync(&mut sim.inner), Time::ZERO + horizon);
            sim.inner.finish(sim.engine.now());
        } else {
            sim.run();
        }
        let done = of_task(&heard.take(), TaskId(1))[0].completed;
        let run = format!("{n} task(s), re-synced after every event: {resync}");
        assert_eq!(done, Some(Time::ZERO + ns(13_857_143)), "{run}");
    }
}

#[test]
#[should_panic(expected = "unknown task T9")]
fn activation_window_of_an_unknown_task_panics() {
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(1)));
    sim.set_activation_window(TaskId(9), Time::ZERO, Time::MAX);
}

#[test]
#[should_panic(expected = "unknown task T9")]
fn activation_of_an_unknown_task_panics() {
    let set = TaskSet::new(vec![periodic(0, "a", 100, 1000, 1)]).unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(1)));
    sim.activate_at(TaskId(9), Time::ZERO);
}

#[test]
fn per_task_state_is_kept_by_position_not_by_id() {
    // Sparse, unordered ids: each task's window, chain and instance
    // numbering are its own.
    let set = TaskSet::new(vec![
        periodic(700, "a", 100, 1000, 1),
        periodic(3, "b", 100, 1000, 2),
    ])
    .unwrap();
    let mut sim = DispatchSim::new(set, SimConfig::ideal(Duration::from_millis(5)));
    sim.set_activation_window(TaskId(3), Time::ZERO + us(2000), Time::ZERO + us(4000));
    let heard = settled(&mut sim);
    let r = sim.run();
    let heard = heard.take();
    let numbers = |t| -> Vec<u64> {
        of_task(&heard, TaskId(t))
            .iter()
            .map(|i| i.instance)
            .collect()
    };
    assert_eq!(numbers(700), [0, 1, 2, 3, 4, 5]);
    assert_eq!(numbers(3), [0, 1]);
    assert_eq!(
        of_task(&heard, TaskId(3))[0].activated,
        Time::ZERO + us(2000)
    );
    let activated = |t| r.outcome(TaskId(t)).map(|o| o.activated);
    assert_eq!((activated(700), activated(3)), (Some(6), Some(2)));
    assert!(r.all_deadlines_met());
}
