//! Every node runs its own dispatcher (Section 3.2.1): what happens on
//! one node leaves no mark on a node it exchanges nothing with. These
//! tests hold the simulation to that — a completion re-evaluates the node
//! it happened on, not the cluster.

use hades_dispatch::{CostModel, DispatchSim, InstanceRecord, RunReport, SimConfig};
use hades_sim::NodeId;
use hades_task::prelude::*;
use std::collections::BTreeMap;

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

fn run(tasks: Vec<Task>, cfg: &SimConfig, once: &[TaskId]) -> RunReport {
    let mut sim = DispatchSim::new(TaskSet::new(tasks).unwrap(), cfg.clone());
    for &t in once {
        sim.activate_at(t, Time::ZERO);
    }
    sim.run()
}

/// CPU time per `(node, lane)` of the run's Gantt chart.
fn cpu_by_lane(r: &RunReport) -> BTreeMap<(u32, String), Duration> {
    let cpu = |s: &hades_sim::Gantt| r.trace.cpu_time(s.node, &s.lane);
    let lanes = r.trace.segments().iter();
    lanes
        .map(|s| ((s.node.0, s.lane.clone()), cpu(s)))
        .collect()
}

/// The records of `tasks`, in report order.
fn records_of(r: &RunReport, tasks: &[TaskId]) -> Vec<InstanceRecord> {
    let of = |i: &&InstanceRecord| tasks.contains(&i.task);
    r.instances.iter().filter(of).cloned().collect()
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
    let both = run(vec![short(), long()], &cfg, &[TaskId(1)]);
    let node0 = run(vec![short()], &cfg, &[]);
    let node1 = run(vec![long()], &cfg, &[TaskId(1)]);

    assert_eq!(records_of(&both, &[TaskId(0)]).len(), 101);
    assert_eq!(
        both.of_task(TaskId(0))[99].completed,
        Some(Time::ZERO + us(9_911))
    );
    assert_eq!(
        both.of_task(TaskId(1))[0].completed,
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
    assert_eq!(records_of(&both, &[TaskId(0)]), node0.instances);
    assert_eq!(records_of(&both, &[TaskId(1)]), node1.instances);
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
        let all = run((0..n).flat_map(tasks_of).collect(), &cfg, &[]);
        assert!(all.instances.len() > 30 * n as usize);
        for node in 0..n {
            let alone = run(tasks_of(node), &cfg, &[]);
            let ids = [TaskId(2 * node), TaskId(2 * node + 1)];
            assert_eq!(
                records_of(&all, &ids),
                alone.instances,
                "node {node} of {n}"
            );
            assert_eq!(all.node_cpu[node as usize], alone.node_cpu[node as usize]);
        }
    }
}
