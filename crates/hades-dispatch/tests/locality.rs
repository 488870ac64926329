//! Every node runs its own dispatcher (Section 3.2.1): what happens on
//! one node leaves no mark on a node it exchanges nothing with. These
//! tests hold the simulation to that — a completion re-evaluates the node
//! it happened on, not the cluster.

use hades_dispatch::{CostModel, DispatchSim, RunReport, SimConfig};
use hades_sim::NodeId;
use hades_task::prelude::*;
use hades_telemetry::{MonitorEvent, ProtocolTap};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn task(id: u32, node: u32, wcet_us: u64, law: ArrivalLaw, deadline_us: u64, prio: u32) -> Task {
    let eu = CodeEu::new(format!("t{id}"), us(wcet_us), ProcessorId(node));
    Task::new(
        TaskId(id),
        Heug::single(eu.with_priority(Priority::new(prio))).unwrap(),
        law,
        us(deadline_us),
    )
}

/// Every instance outcome of a run, in the order the tap heard them
/// settle. (Not the instants: an instance still in flight settles at the
/// end of the run, which is its last event, not a per-node quantity.)
type Settled = Vec<MonitorEvent>;

fn run(tasks: Vec<Task>, cfg: &SimConfig, once: &[TaskId]) -> (RunReport, Settled) {
    let mut sim = DispatchSim::new(TaskSet::new(tasks).unwrap(), cfg.clone());
    for &t in once {
        sim.activate_at(t, Time::ZERO);
    }
    let heard = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&heard);
    sim.set_tap(ProtocolTap(Rc::new(move |_, ev: &MonitorEvent| {
        if matches!(ev, MonitorEvent::InstanceSettled { .. }) {
            sink.borrow_mut().push(ev.clone());
        }
    })));
    let report = sim.run();
    (report, heard.take())
}

/// CPU time per `(node, lane)` of the run's Gantt chart.
fn cpu_by_lane(r: &RunReport) -> BTreeMap<(u32, String), Duration> {
    let cpu = |s: &hades_sim::Gantt| r.trace.cpu_time(s.node, &s.lane);
    let lanes = r.trace.segments().iter();
    lanes
        .map(|s| ((s.node.0, s.lane.clone()), cpu(s)))
        .collect()
}

/// The settled instances of `tasks`, in settling order.
fn records_of(settled: &Settled, tasks: &[TaskId]) -> Settled {
    let of = |ev: &&MonitorEvent| matches!(ev, MonitorEvent::InstanceSettled { task, .. } if tasks.contains(&TaskId(*task)));
    settled.iter().filter(of).cloned().collect()
}

/// When instance `instance` of `task` completed.
fn completed(settled: &Settled, task: TaskId, instance: u64) -> Option<Time> {
    settled.iter().find_map(|ev| match ev {
        MonitorEvent::InstanceSettled {
            task: t,
            instance: i,
            completed,
            ..
        } if (TaskId(*t), *i) == (task, instance) => *completed,
        _ => None,
    })
}

#[test]
fn a_completion_leaves_the_other_nodes_alone() {
    // Node 0 completes 100 short threads while node 1 runs one long one.
    let short = || task(0, 0, 10, ArrivalLaw::Periodic(us(100)), 100, 1);
    let long = || task(1, 1, 10_000, ArrivalLaw::Aperiodic, 20_000, 1);
    let mut cfg = SimConfig::ideal(Duration::from_micros(10_050));
    cfg.costs = CostModel {
        ctx_switch: us(1),
        ..CostModel::zero()
    };
    assert!(cfg.trace);
    let (both, both_settled) = run(vec![short(), long()], &cfg, &[TaskId(1)]);
    let (node0, node0_settled) = run(vec![short()], &cfg, &[]);
    let (node1, node1_settled) = run(vec![long()], &cfg, &[TaskId(1)]);

    assert_eq!(records_of(&both_settled, &[TaskId(0)]).len(), 101);
    assert_eq!(both.outcome(TaskId(0)).unwrap().activated, 101);
    assert_eq!(
        completed(&both_settled, TaskId(0), 99),
        Some(Time::ZERO + us(9_911))
    );
    assert_eq!(
        completed(&both_settled, TaskId(1), 0),
        Some(Time::ZERO + us(10_001))
    );
    // The long thread ran undisturbed: one segment, not one per foreign
    // completion.
    let lane: Vec<_> = both
        .trace
        .segments()
        .iter()
        .filter(|s| s.node == NodeId(1))
        .collect();
    assert_eq!(lane.len(), 1, "node 1's Gantt lane: {lane:?}");
    assert_eq!((lane[0].start, lane[0].len()), (Time::ZERO, us(10_001)));

    // Each node's share of the run is the run of that node alone.
    assert_eq!(records_of(&both_settled, &[TaskId(0)]), node0_settled);
    assert_eq!(records_of(&both_settled, &[TaskId(1)]), node1_settled);
    assert_eq!(both.outcome(TaskId(0)), node0.outcome(TaskId(0)));
    assert_eq!(both.outcome(TaskId(1)), node1.outcome(TaskId(1)));
    let mut alone = cpu_by_lane(&node0);
    alone.extend(cpu_by_lane(&node1));
    assert_eq!(cpu_by_lane(&both), alone);
    assert_eq!(both.node_cpu, [node0.node_cpu[0], node1.node_cpu[1]]);
}

#[test]
fn independent_nodes_in_one_run_equal_as_many_runs_of_one() {
    // Two periodic tasks per node that preempt each other, periods and
    // execution times differing from node to node.
    let tasks_of = |node: u32| {
        let k = node as u64;
        let (hi, lo) = (TaskId(2 * node), TaskId(2 * node + 1));
        let fast = ArrivalLaw::Periodic(us(500 + 7 * k));
        let slow = ArrivalLaw::Periodic(us(1_300 + 11 * k));
        vec![
            task(hi.0, node, 90 + k, fast, 500 + 7 * k, 5),
            task(lo.0, node, 400 + 3 * k, slow, 1_300 + 11 * k, 2),
        ]
    };
    let mut cfg = SimConfig::ideal(Duration::from_millis(20));
    cfg.costs = CostModel::measured_default();
    cfg.trace = false;
    for n in [1u32, 8, 64] {
        let (all, all_settled) = run((0..n).flat_map(tasks_of).collect(), &cfg, &[]);
        assert!(all.instances.len() > 30 * n as usize);
        assert_eq!(all_settled.len(), all.instances.len());
        for node in 0..n {
            let (alone, alone_settled) = run(tasks_of(node), &cfg, &[]);
            let ids = [TaskId(2 * node), TaskId(2 * node + 1)];
            assert_eq!(
                records_of(&all_settled, &ids),
                alone_settled,
                "node {node} of {n}"
            );
            for id in ids {
                assert_eq!(all.outcome(id), alone.outcome(id), "{id} of {n}");
            }
            assert_eq!(all.node_cpu[node as usize], alone.node_cpu[node as usize]);
        }
    }
}
