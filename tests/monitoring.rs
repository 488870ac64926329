//! Experiment E14 as a test: every monitoring event class of
//! Section 3.2.1 is detected by the dispatcher. The paper remarks that no
//! existing real-time environment implemented all of them; this test pins
//! each one to a concrete fault-injection scenario. Every scenario runs
//! with a tap installed, and the tap hears exactly the report's alarms —
//! plus one settled outcome per activated instance.

use std::cell::RefCell;
use std::rc::Rc;

use hades::prelude::*;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// What the tap heard: the alarms, and the settled instance outcomes.
type Heard = Vec<(Time, MonitorEvent)>;

/// Runs `sim` with a tap installed and checks the one feed: apart from
/// one settled outcome per activated instance, heard no earlier than its
/// fate was sealed, the tap hears exactly `report.monitor.events()`, in
/// order, each at the instant the event names. Returns the report, the
/// alarms and the outcomes.
fn run_tapped(mut sim: DispatchSim) -> (RunReport, Heard, Heard) {
    let heard = Rc::new(RefCell::new(Vec::new()));
    let sink = heard.clone();
    sim.set_tap(ProtocolTap(Rc::new(move |now, ev: &MonitorEvent| {
        sink.borrow_mut().push((now, ev.clone()));
    })));
    let report = sim.run();
    let (settled, heard): (Heard, Heard) = heard
        .take()
        .into_iter()
        .partition(|(_, ev)| matches!(ev, MonitorEvent::InstanceSettled { .. }));
    assert_eq!(settled.len(), report.instances.len(), "each settles once");
    for (now, ev) in &settled {
        let MonitorEvent::InstanceSettled {
            deadline,
            completed,
            ..
        } = ev
        else {
            unreachable!()
        };
        let sealed = completed.map_or(*deadline, |c| c.min(*deadline));
        assert!(
            *now >= sealed || *now == report.finished_at,
            "{ev:?} at {now}"
        );
    }
    let events: Vec<MonitorEvent> = heard.iter().map(|(_, ev)| ev.clone()).collect();
    assert_eq!(
        events,
        report.monitor.events(),
        "the tap and the report agree"
    );
    for (now, ev) in &heard {
        let named = match ev {
            MonitorEvent::DeadlineMiss { deadline, .. } => Some(*deadline),
            MonitorEvent::ArrivalLawViolation { at, .. }
            | MonitorEvent::Orphan { at, .. }
            | MonitorEvent::Stall { at, .. } => Some(*at),
            MonitorEvent::LatestStartExceeded { latest, .. } => Some(*latest),
            MonitorEvent::NetworkOmission { detected_at, .. } => Some(*detected_at),
            // Raised at the completion instant, which it does not name.
            MonitorEvent::EarlyTermination { .. } => None,
            other => panic!("not a dispatcher alarm: {other:?}"),
        };
        if let Some(at) = named {
            assert_eq!(*now, at, "{ev:?} heard at its own instant");
        }
    }
    (report, heard, settled)
}

fn single(id: u32, name: &str, wcet: Duration) -> Task {
    Task::new(
        TaskId(id),
        Heug::single(CodeEu::new(name, wcet, ProcessorId(0))).expect("valid"),
        ArrivalLaw::Aperiodic,
        us(500),
    )
}

#[test]
fn deadline_violation_is_detected() {
    let mut sim = HadesNode::new()
        .task(single(0, "slow", us(900))) // deadline 500
        .configure(|c| c.auto_activate = false)
        .horizon(us(2_000))
        .build()
        .unwrap();
    sim.activate_at(TaskId(0), Time::ZERO);
    let (report, ..) = run_tapped(sim);
    assert_eq!(report.monitor.deadline_misses(), 1);
    assert_eq!(report.misses(), 1);
}

#[test]
fn arrival_law_violation_is_detected() {
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("s", us(10), ProcessorId(0))).unwrap(),
        ArrivalLaw::Sporadic(us(1_000)),
        us(1_000),
    );
    let mut sim = HadesNode::new()
        .task(t)
        .configure(|c| c.auto_activate = false)
        .horizon(us(5_000))
        .build()
        .unwrap();
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(0), Time::ZERO + us(200)); // pseudo-period violated
    let (report, ..) = run_tapped(sim);
    assert_eq!(report.monitor.arrival_violations(), 1);
}

#[test]
fn early_termination_is_detected_and_is_not_a_fault() {
    let mut sim = HadesNode::new()
        .task(single(0, "quick", us(100)))
        .configure(|c| {
            c.auto_activate = false;
            c.exec = ExecTimeModel::FractionPermille(400);
        })
        .horizon(us(2_000))
        .build()
        .unwrap();
    sim.activate_at(TaskId(0), Time::ZERO);
    let (report, heard, settled) = run_tapped(sim);
    assert_eq!(report.monitor.early_terminations(), 1);
    assert!(
        report.monitor.is_healthy(),
        "early termination is informational"
    );
    assert!(report.all_deadlines_met());
    let MonitorEvent::InstanceSettled { completed, .. } = settled[0].1 else {
        unreachable!()
    };
    assert_eq!(
        Some(heard[0].0),
        completed,
        "heard at the completion instant"
    );
    assert_eq!(
        report.outcome(TaskId(0)).unwrap().first_completion,
        completed
    );
}

#[test]
fn orphans_are_reaped_when_an_instance_aborts() {
    // A two-unit chain whose first unit blows the deadline: under
    // AbortInstance the second unit is killed and counted as an orphan.
    let mut b = HeugBuilder::new("chain");
    let a = b.code_eu(CodeEu::new("head", us(900), ProcessorId(0)));
    let c = b.code_eu(CodeEu::new("tail", us(100), ProcessorId(0)));
    b.precede(a, c);
    let t = Task::new(
        TaskId(0),
        b.build().unwrap(),
        ArrivalLaw::Aperiodic,
        us(500),
    );
    let mut sim = HadesNode::new()
        .task(t)
        .configure(|c| {
            c.auto_activate = false;
            c.miss_policy = MissPolicy::AbortInstance;
        })
        .horizon(us(3_000))
        .build()
        .unwrap();
    sim.activate_at(TaskId(0), Time::ZERO);
    let (report, ..) = run_tapped(sim);
    assert_eq!(report.monitor.deadline_misses(), 1);
    assert!(
        report.monitor.orphans() >= 1,
        "the tail thread is an orphan"
    );
}

#[test]
fn latest_start_overrun_is_detected() {
    let hog = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("hog", us(400), ProcessorId(0)).with_priority(Priority::new(9)))
            .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5_000),
    );
    let meek = Task::new(
        TaskId(1),
        Heug::single(
            CodeEu::new("meek", us(10), ProcessorId(0))
                .with_timing(EuTiming::with_priority(Priority::new(1)).with_latest(us(100))),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(5_000),
    );
    let mut sim = HadesNode::new()
        .tasks(vec![hog, meek])
        .configure(|c| c.auto_activate = false)
        .horizon(us(5_000))
        .build()
        .unwrap();
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(1), Time::ZERO);
    let (report, ..) = run_tapped(sim);
    assert_eq!(report.monitor.latest_start_exceeded(), 1);
}

#[test]
fn stall_deadlock_is_detected_for_unsatisfiable_waits() {
    // Two tasks each waiting on a condition variable only the other would
    // set *after* running: a circular producer/consumer deadlock.
    let cv_a = CondVarId(0);
    let cv_b = CondVarId(1);
    let t0 = Task::new(
        TaskId(0),
        Heug::single(
            CodeEu::new("x", us(10), ProcessorId(0))
                .waiting_on(cv_a)
                .setting(cv_b),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(500),
    );
    let t1 = Task::new(
        TaskId(1),
        Heug::single(
            CodeEu::new("y", us(10), ProcessorId(0))
                .waiting_on(cv_b)
                .setting(cv_a),
        )
        .unwrap(),
        ArrivalLaw::Aperiodic,
        us(500),
    );
    let mut sim = HadesNode::new()
        .tasks(vec![t0, t1])
        .configure(|c| c.auto_activate = false)
        .horizon(us(3_000))
        .build()
        .unwrap();
    sim.activate_at(TaskId(0), Time::ZERO);
    sim.activate_at(TaskId(1), Time::ZERO);
    let (report, ..) = run_tapped(sim);
    assert_eq!(
        report.monitor.stalls(),
        1,
        "circular wait surfaces as a stall"
    );
    assert_eq!(report.misses(), 2);
}

#[test]
fn network_omission_is_detected_via_remote_precedence() {
    let mut b = HeugBuilder::new("dist");
    let a = b.code_eu(CodeEu::new("send", us(10), ProcessorId(0)));
    let c = b.code_eu(CodeEu::new("recv", us(10), ProcessorId(1)));
    b.precede(a, c);
    let t = Task::new(
        TaskId(0),
        b.build().unwrap(),
        ArrivalLaw::Aperiodic,
        us(5_000),
    );
    let mut sim = HadesNode::new()
        .task(t)
        .link(LinkConfig::reliable(us(10), us(20)).with_omissions(1000))
        .configure(|c| c.auto_activate = false)
        .horizon(us(5_000))
        .build()
        .unwrap();
    sim.activate_at(TaskId(0), Time::ZERO);
    let (report, ..) = run_tapped(sim);
    assert_eq!(report.monitor.network_omissions(), 1);
    assert_eq!(report.monitor.orphans(), 1, "the receiver thread is reaped");
}

#[test]
fn healthy_run_raises_no_alarm() {
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("ok", us(100), ProcessorId(0))).unwrap(),
        ArrivalLaw::Periodic(us(1_000)),
        us(1_000),
    );
    let report = HadesNode::new()
        .task(t)
        .costs(CostModel::measured_default())
        .kernel(KernelModel::chorus_like())
        .horizon(Duration::from_millis(20))
        .run()
        .unwrap();
    assert!(
        report.monitor.is_clean(),
        "events: {:?}",
        report.monitor.events()
    );
    assert!(report.all_deadlines_met());
}
