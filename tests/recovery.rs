//! Recovery-path composition: membership, checkpointing and dependency
//! tracking working together — the fault-tolerance chain a passive-
//! replicated HADES application exercises after a crash.

use hades::prelude::*;
use hades_services::checkpoint::{CheckpointService, Replayable};
use hades_services::recovery::RecoveryConfig;
use hades_services::{AgentConfig, DependencyTracker, NodeAgent};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

#[derive(Default)]
struct Register(u64);

impl Replayable for Register {
    fn apply(&mut self, op: u64) {
        self.0 = self.0.wrapping_mul(1_000_003).wrapping_add(op);
    }
    fn snapshot(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.0 = u64::from_le_bytes(b.try_into().expect("8 bytes"));
    }
}

#[test]
fn membership_checkpoint_and_orphan_chain() {
    // 1. A primary (node 0) processes requests with periodic checkpoints.
    let mut primary = CheckpointService::new(Register::default(), 5);
    for op in 1..=23u64 {
        primary.execute(op);
    }
    let reference = primary.state().0;

    // 2. Node 0 crashes at 12 ms; membership agrees on its exclusion.
    let link = LinkConfig::reliable(us(10), us(40));
    let plan = FaultPlan::new().crash_at(NodeId(0), Time::ZERO + ms(12));
    let net = Network::homogeneous(4, link, SimRng::seed_from(5)).with_fault_plan(plan);
    let (mut rt, logs) = NodeAgent::cluster(
        net,
        AgentConfig {
            node: NodeId(0),
            nodes: 4,
            heartbeat_period: ms(1),
            clock_precision: us(20),
            f: 1,
            recovery: RecoveryConfig::default(),
            vc_delta_multicast: true,
            vc_attempts: 1,
        },
    );
    rt.run(Time::ZERO + ms(30));
    let views = logs[1].borrow().views.clone();
    assert_eq!(views.len(), 2);
    assert_eq!(views[1].members, vec![1, 2, 3]);
    let agreed = logs[1].borrow().view_members();
    for survivor in &logs[2..] {
        assert_eq!(survivor.borrow().view_members(), agreed);
    }
    let takeover_at = views[1].installed_at;
    assert!(takeover_at > Time::ZERO + ms(12));
    assert!(takeover_at < Time::ZERO + ms(16), "bounded reconfiguration");

    // 3. The backup restores the last checkpoint and replays the log: the
    //    recovered state matches what the primary had committed.
    primary.crash_and_recover();
    assert_eq!(primary.state().0, reference, "no committed operation lost");
    assert!(primary.replayed() < 5, "replay bounded by the interval");

    // 4. Work that consumed the crashed primary's *uncheckpointed* output
    //    is orphaned through dependency tracking.
    let mut deps = DependencyTracker::new();
    deps.add_dependency((0, 23), (7, 0)); // downstream consumer of op 23
    deps.add_dependency((7, 0), (8, 0));
    let orphans = deps.invalidate((0, 23));
    assert_eq!(orphans, vec![(7, 0), (8, 0)]);
}

#[test]
fn degraded_mode_after_view_change_is_schedulable() {
    // After losing a node, the remaining capacity runs the degraded mode;
    // the transition analysis must clear it before installation.
    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let normal = vec![SpuriTask::independent(
        TaskId(0),
        "full_service",
        us(6_000),
        ms(20),
        ms(20),
    )];
    let degraded = vec![
        SpuriTask::independent(TaskId(10), "core_service", us(2_000), ms(10), ms(10)),
        SpuriTask::independent(TaskId(11), "sync_backlog", us(1_000), ms(20), ms(20)),
    ];
    let verdict = ModeChange::new(normal, degraded.clone())
        .analyze(&EdfAnalysisConfig::with_platform(costs, kernel.clone()));
    assert!(verdict.transition_possible());
    // Execute the degraded mode with the analysed release offset honoured
    // implicitly (activations begin at t = 0 of the new mode).
    let blocking = hades_sched::analysis::edf_demand::spuri_blocking(&degraded);
    let tasks: Vec<Task> = degraded
        .iter()
        .zip(&blocking)
        .map(|(t, b)| t.to_task(*b).expect("valid"))
        .collect();
    let report = HadesNode::new()
        .tasks(tasks)
        .policy(Policy::Edf)
        .costs(costs)
        .kernel(kernel)
        .horizon(ms(80))
        .configure(|c| c.trace = false)
        .run()
        .expect("valid deployment");
    assert!(report.all_deadlines_met());
}
