//! A deadline that falls on its task's next release is checked by that
//! release, right after it, instead of by an event of its own. These
//! are the edges of that rule. Each pins the alarm stream and the
//! settled-instance stream the tap hears to what they were when every
//! check was its own event, and pins the delivered event count to that
//! older count less the checks that rode on a release.

use hades_dispatch::{DispatchSim, MissPolicy, SimConfig};
use hades_sim::mux::{ActorCtx, ActorEvent, ControlOp, NetActor};
use hades_sim::{FaultPlan, Network, NodeId, SimRng};
use hades_task::prelude::*;
use hades_telemetry::{MonitorEvent, Probe, Profiler, ProtocolTap, Registry};
use std::cell::RefCell;
use std::rc::Rc;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Periodic task `id` with D = P: one unit on `node` at `prio`.
fn task(id: u32, node: u32, prio: u32, wcet: u64, period: u64) -> Task {
    let eu = CodeEu::new(format!("t{id}"), us(wcet), ProcessorId(node))
        .with_priority(Priority::new(prio));
    let heug = Heug::single(eu).unwrap();
    Task::new(
        TaskId(id),
        heug,
        ArrivalLaw::Periodic(us(period)),
        us(period),
    )
}

/// An instant in µs.
fn at(t: Time) -> String {
    format!("{}", t.as_nanos() as f64 / 1_000.0)
}

/// What the tap heard and how many events the engine delivered.
#[derive(Debug, Default)]
struct Heard {
    /// The Section 3.2.1 alarms, one line each.
    alarms: Vec<String>,
    /// The settled instances, one line each.
    settled: Vec<String>,
    events: u64,
}

/// Runs `sim` with a tap and a counting probe installed.
fn hear(mut sim: DispatchSim) -> Heard {
    let heard = Rc::new(RefCell::new(Heard::default()));
    let sink = Rc::clone(&heard);
    sim.set_tap(ProtocolTap(Rc::new(move |now, ev: &MonitorEvent| {
        let mut heard = sink.borrow_mut();
        match *ev {
            MonitorEvent::InstanceSettled {
                task,
                instance,
                activated,
                completed,
                missed,
                ..
            } => heard.settled.push(format!(
                "{} t{task}#{instance} from {} done {} missed {missed}",
                at(now),
                at(activated),
                completed.map_or("-".to_string(), at),
            )),
            MonitorEvent::DeadlineMiss { task, instance, .. } => heard
                .alarms
                .push(format!("{} miss t{task}#{instance}", at(now))),
            MonitorEvent::Orphan { thread, .. } => {
                heard.alarms.push(format!("{} orphan {thread}", at(now)))
            }
            MonitorEvent::LatestStartExceeded { thread, .. } => heard
                .alarms
                .push(format!("{} late start {thread}", at(now))),
            ref other => heard.alarms.push(format!("{} {other:?}", at(now))),
        }
    })));
    let registry = Registry::enabled();
    let probe = Probe::new(
        &registry,
        &Profiler::disabled(),
        |_, _| None,
        |_, _, _| false,
    );
    sim.set_probe(probe);
    sim.run();
    let mut heard = heard.take();
    heard.events = registry
        .snapshot()
        .counter("engine.events")
        .expect("counted");
    heard
}

/// Checks `heard` against the streams recorded with every check an event
/// of its own, and against that run's event count less the `merged`
/// checks that now ride on a release.
fn assert_heard(heard: &Heard, alarms: &[&str], settled: &[&str], events: (u64, u64)) {
    assert_eq!(heard.alarms, alarms, "alarm stream");
    assert_eq!(heard.settled, settled, "settled stream");
    let (own_events, merged) = events;
    assert_eq!(heard.events, own_events - merged, "delivered events");
}

#[test]
fn a_miss_with_d_equal_to_p_is_aborted_at_the_release() {
    // t1 needs 700 µs of every 2 ms, but t0 takes 1 400 of them first.
    let tasks = vec![task(0, 0, 9, 700, 1_000), task(1, 0, 3, 700, 2_000)];
    let mut cfg = SimConfig::ideal(us(6_000));
    cfg.trace = false;
    cfg.miss_policy = MissPolicy::AbortInstance;
    let heard = hear(DispatchSim::new(TaskSet::new(tasks).unwrap(), cfg));
    let alarms = [
        "2000 miss t1#0",
        "2000 orphan 1",
        "4000 miss t1#1",
        "4000 orphan 3",
        "6000 miss t1#2",
        "6000 orphan 6",
    ];
    let settled = [
        "1000 t0#0 from 0 done 700 missed false",
        "2000 t1#0 from 0 done - missed true",
        "2000 t0#1 from 1000 done 1700 missed false",
        "3000 t0#2 from 2000 done 2700 missed false",
        "4000 t1#1 from 2000 done - missed true",
        "4000 t0#3 from 3000 done 3700 missed false",
        "5000 t0#4 from 4000 done 4700 missed false",
        "6000 t1#2 from 4000 done - missed true",
        "6000 t0#5 from 5000 done 5700 missed false",
        "6000 t0#6 from 6000 done - missed false",
        "6000 t1#3 from 6000 done - missed false",
    ];
    // t0's checks of #0-#5 and t1's of #0-#2 ride on releases.
    assert_heard(&heard, &alarms, &settled, (26, 9));
}

/// Stages `op` at `when` from node 1.
struct Controller {
    when: Time,
    op: ControlOp,
}

impl NetActor for Controller {
    fn node(&self) -> NodeId {
        NodeId(1)
    }

    fn handle(&mut self, _: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
        match ev {
            ActorEvent::Start => ctx.timer_at(self.when, 0),
            ActorEvent::Timer { .. } => ctx.control(self.op),
            _ => {}
        }
    }
}

#[test]
fn a_stale_release_still_checks_the_instance_it_carries_once() {
    // Node 0 crashes at 2.5 ms, killing instance 2 (released at 2 ms).
    // While it is down, task 0 is admitted anew at 2.8 ms, and at the
    // restart (4.2 ms) its window, opened during the outage, re-anchors
    // the chain again. The release at 3 ms belongs to the first chain,
    // so it spawns nothing, but it still carries instance 2's check.
    let tasks = vec![task(0, 0, 5, 600, 1_000)];
    let mut cfg = SimConfig::ideal(us(7_000));
    cfg.trace = false;
    let mut plan = FaultPlan::new();
    plan.add_crash(
        NodeId(0),
        Time::ZERO + us(2_500),
        Some(Time::ZERO + us(4_200)),
    );
    let net = Network::homogeneous(2, cfg.link, SimRng::seed_from(1)).with_fault_plan(plan);
    let mut sim = DispatchSim::with_network(TaskSet::new(tasks).unwrap(), cfg, net);
    let admit = Time::ZERO + us(2_800);
    sim.add_actor(Box::new(Controller {
        when: admit,
        op: ControlOp::AdmitTask { task: 0, at: admit },
    }));
    let heard = hear(sim);
    let settled = [
        "1000 t0#0 from 0 done 600 missed false",
        "2000 t0#1 from 1000 done 1600 missed false",
        "3000 t0#2 from 2000 done - missed true",
        "5200 t0#3 from 4200 done 4800 missed false",
        "6200 t0#4 from 5200 done 5800 missed false",
        "6800 t0#5 from 6200 done 6800 missed false",
    ];
    // The checks of #0-#4 ride on releases, #2's on the stale one: it
    // misses and settles once.
    assert_heard(&heard, &["3000 miss t0#2"], &settled, (24, 5));
}

#[test]
fn an_earliest_start_on_the_next_release_keeps_its_own_check() {
    // Each instance may start only at the next release, and is checked
    // for its latest start there too: those keys are taken after the
    // release's, so the deadline check stays an event of its own and
    // comes after them.
    let timing = EuTiming::with_priority(Priority::new(5))
        .with_earliest(us(1_000))
        .with_latest(us(1_000));
    let eu = CodeEu::new("t0", us(200), ProcessorId(0)).with_timing(timing);
    let heug = Heug::single(eu).unwrap();
    let tasks = vec![Task::new(
        TaskId(0),
        heug,
        ArrivalLaw::Periodic(us(1_000)),
        us(1_000),
    )];
    let mut cfg = SimConfig::ideal(us(4_000));
    cfg.trace = false;
    let heard = hear(DispatchSim::new(TaskSet::new(tasks).unwrap(), cfg));
    let alarms = [
        "1000 late start 0",
        "1000 miss t0#0",
        "2000 late start 1",
        "2000 miss t0#1",
        "3000 late start 2",
        "3000 miss t0#2",
        "4000 late start 3",
        "4000 miss t0#3",
    ];
    let settled = [
        "1200 t0#0 from 0 done 1200 missed true",
        "2200 t0#1 from 1000 done 2200 missed true",
        "3200 t0#2 from 2000 done 3200 missed true",
        "4000 t0#3 from 3000 done - missed true",
        "4000 t0#4 from 4000 done - missed false",
    ];
    assert_heard(&heard, &alarms, &settled, (20, 0));
}

#[test]
fn the_last_release_before_the_horizon_posts_its_own_check() {
    // The horizon falls on a release of both tasks: that release still
    // checks the instance before it, but queues no successor, so the
    // instance it spawns posts its own check past the horizon and is
    // settled in flight at the end.
    let tasks = vec![task(0, 0, 9, 300, 1_000), task(1, 0, 3, 1_200, 1_500)];
    let mut cfg = SimConfig::ideal(us(3_000));
    cfg.trace = false;
    let heard = hear(DispatchSim::new(TaskSet::new(tasks).unwrap(), cfg));
    let settled = [
        "1000 t0#0 from 0 done 300 missed false",
        "1800 t1#0 from 0 done 1800 missed true",
        "2000 t0#1 from 1000 done 1300 missed false",
        "3000 t0#2 from 2000 done 2300 missed false",
        "3000 t0#3 from 3000 done - missed false",
        "3000 t1#1 from 1500 done - missed true",
        "3000 t1#2 from 3000 done - missed false",
    ];
    // t0's checks of #0-#2 and t1's of #0 and #1 ride on releases.
    let alarms = ["1500 miss t1#0", "3000 miss t1#1"];
    assert_heard(&heard, &alarms, &settled, (16, 5));
}
