//! Every activated instance settles exactly once, and the report's
//! per-task tallies are the aggregates of the settled stream the tap
//! hears — over random task sets, remote precedence over a lossy link,
//! both miss policies and random crash windows.

use hades_dispatch::{DispatchSim, MissPolicy, SimConfig};
use hades_sim::{FaultPlan, LinkConfig, Network, NodeId, SimRng};
use hades_task::prelude::*;
use hades_telemetry::{MonitorEvent, ProtocolTap};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

const NODES: u32 = 4;

/// Task `i` from `(node, wcet µs, period µs, deadline ‰ of period)`:
/// every third one is a two-unit chain whose tail runs on the next node.
fn task(i: usize, (node, wcet, period, permille): (u32, u64, u64, u64)) -> Task {
    let id = TaskId(i as u32);
    let prio = Priority::new(1 + i as u32 % 8);
    let mut b = HeugBuilder::new(format!("t{i}"));
    let head = b.code_eu(CodeEu::new("head", us(wcet), ProcessorId(node)).with_priority(prio));
    if i % 3 == 2 {
        let next = ProcessorId((node + 1) % NODES);
        let tail = b.code_eu(CodeEu::new("tail", us(wcet / 2 + 1), next).with_priority(prio));
        b.precede_with(head, tail, 64);
    }
    let deadline = us(period * permille / 1000);
    Task::new(
        id,
        b.build().unwrap(),
        ArrivalLaw::Periodic(us(period)),
        deadline,
    )
}

/// One settled instance, as heard: `(instant, event fields)`.
#[derive(Debug, Clone, Copy)]
struct Heard {
    at: Time,
    node: u32,
    task: TaskId,
    instance: u64,
    activated: Time,
    deadline: Time,
    completed: Option<Time>,
    missed: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_activation_settles_once_and_the_tallies_are_the_stream(
        specs in prop::collection::vec((0u32..NODES, 10u64..400, 300u64..3_000, 600u64..1_300), 1..7),
        crashes in prop::collection::vec((0u32..NODES, 0u64..20_000, 100u64..6_000), 0..3),
        (horizon_ms, abort, omissions, seed) in (5u64..25, 0u8..2, 0u32..200, 0u64..1_000),
    ) {
        let tasks: Vec<Task> = specs.iter().copied().enumerate().map(|(i, s)| task(i, s)).collect();
        let homes: Vec<u32> = specs.iter().map(|s| s.0).collect();
        let mut plan = FaultPlan::new();
        for (node, start, len) in crashes {
            let start = Time::ZERO + us(start);
            plan.add_crash(NodeId(node), start, Some(start + us(len)));
        }
        let mut cfg = SimConfig::ideal(Duration::from_millis(horizon_ms));
        cfg.seed = seed;
        cfg.trace = false;
        cfg.link = LinkConfig::reliable(us(20), us(80)).with_omissions(omissions);
        if abort == 1 {
            cfg.miss_policy = MissPolicy::AbortInstance;
        }
        let net = Network::homogeneous(NODES, cfg.link, SimRng::seed_from(seed)).with_fault_plan(plan);
        let mut sim = DispatchSim::with_network(TaskSet::new(tasks).unwrap(), cfg, net);
        let heard = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&heard);
        sim.set_tap(ProtocolTap(Rc::new(move |at, ev: &MonitorEvent| {
            if let MonitorEvent::InstanceSettled { node, task, instance, activated, deadline, completed, missed } = *ev {
                let task = TaskId(task);
                sink.borrow_mut().push(Heard { at, node, task, instance, activated, deadline, completed, missed });
            }
        })));
        let report = sim.run();
        let heard = heard.take();

        prop_assert_eq!(heard.len(), report.instances.len());
        for h in &heard {
            prop_assert_eq!(h.node, homes[h.task.0 as usize]);
            // Heard once its fate is sealed — or at the end, still in flight.
            let sealed = h.completed.map_or(h.deadline, |c| c.min(h.deadline));
            prop_assert!(h.at >= sealed || h.at == report.finished_at, "{h:?}");
            // A miss never completed on time; anything else did, or is
            // still in flight before its deadline at the end.
            let on_time = h.completed.is_some_and(|c| c <= h.deadline);
            let in_flight = h.at == report.finished_at && h.at < h.deadline;
            prop_assert!(if h.missed { !on_time } else { on_time || in_flight }, "{h:?}");
        }
        for t in report.instances.iter() {
            let mine: Vec<&Heard> = heard.iter().filter(|h| h.task == t.task).collect();
            let mut numbers: Vec<u64> = mine.iter().map(|h| h.instance).collect();
            numbers.sort_unstable();
            prop_assert_eq!(numbers, (0..t.activated).collect::<Vec<u64>>());
            let done: Vec<(Time, Duration)> = mine
                .iter()
                .filter_map(|h| Some((h.completed?, h.completed? - h.activated)))
                .collect();
            prop_assert_eq!(t.completed, done.len() as u64);
            prop_assert_eq!(t.missed, mine.iter().filter(|h| h.missed).count() as u64);
            prop_assert_eq!(t.worst_response, done.iter().map(|d| d.1).max());
            let sum: u128 = done.iter().map(|d| d.1.as_nanos() as u128).sum();
            prop_assert_eq!(t.response_sum_ns, sum);
            prop_assert_eq!(t.first_completion, done.iter().map(|d| d.0).min());
        }
        prop_assert_eq!(report.misses(), heard.iter().filter(|h| h.missed).count());
    }
}
