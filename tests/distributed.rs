//! Cross-crate distributed scenarios: multi-node HEUGs over the faulty
//! network, service composition, and end-to-end determinism.

use std::cell::RefCell;
use std::rc::Rc;

use hades::prelude::*;
use hades_services::recovery::RecoveryConfig;
use hades_services::{AgentConfig, BroadcastSim, ConsensusConfig, FloodConsensus, NodeAgent};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Runs `sim`, returning the report and every instance outcome the tap
/// heard settle, with its instant, in settling order.
fn run_settled(mut sim: DispatchSim) -> (RunReport, Vec<(Time, MonitorEvent)>) {
    let heard = Rc::new(RefCell::new(Vec::new()));
    let sink = heard.clone();
    sim.set_tap(ProtocolTap(Rc::new(move |now, ev: &MonitorEvent| {
        if matches!(ev, MonitorEvent::InstanceSettled { .. }) {
            sink.borrow_mut().push((now, ev.clone()));
        }
    })));
    let report = sim.run();
    (report, heard.take())
}

/// A three-stage pipeline spanning three nodes.
fn pipeline_task() -> Task {
    let mut b = HeugBuilder::new("pipeline");
    let s0 = b.code_eu(CodeEu::new("acquire", us(100), ProcessorId(0)));
    let s1 = b.code_eu(CodeEu::new("process", us(200), ProcessorId(1)));
    let s2 = b.code_eu(CodeEu::new("deliver", us(100), ProcessorId(2)));
    b.precede_with(s0, s1, 256).precede_with(s1, s2, 64);
    Task::new(
        TaskId(0),
        b.build().unwrap(),
        ArrivalLaw::Periodic(ms(2)),
        ms(2),
    )
}

#[test]
fn three_node_pipeline_meets_deadlines() {
    let report = HadesNode::new()
        .task(pipeline_task())
        .link(LinkConfig::reliable(us(20), us(80)))
        .costs(CostModel::measured_default())
        .kernel(KernelModel::chorus_like())
        .horizon(ms(40))
        .seed(3)
        .run()
        .unwrap();
    assert!(report.all_deadlines_met(), "{} misses", report.misses());
    assert_eq!(report.monitor.network_omissions(), 0);
    // Every instance traverses two remote hops: response ≥ 400 µs compute
    // + 40 µs minimum network.
    let worst = report.worst_response_times()[&TaskId(0)];
    assert!(worst >= us(440));
    assert!(worst <= ms(2));
}

#[test]
fn pipeline_survives_transient_link_cut_with_detection() {
    // The 0→1 link is cut during [3 ms, 5 ms]: instances launched in the
    // window lose their remote precedence and are reaped; instances
    // outside complete.
    let plan =
        FaultPlan::new().cut_link(NodeId(0), NodeId(1), Time::ZERO + ms(3), Time::ZERO + ms(5));
    let net = Network::homogeneous(
        3,
        LinkConfig::reliable(us(20), us(80)),
        SimRng::seed_from(5),
    )
    .with_fault_plan(plan);
    let sim = HadesNode::new()
        .task(pipeline_task())
        .network(net)
        .horizon(ms(20))
        .build()
        .unwrap();
    let (report, settled) = run_settled(sim);
    assert!(report.monitor.network_omissions() >= 1);
    assert!(report.misses() >= 1, "cut-window instances cannot complete");
    // Instances after the window complete again.
    let completed_late = settled
        .iter()
        .filter(|(_, ev)| {
            matches!(ev, MonitorEvent::InstanceSettled { activated, completed: Some(_), .. }
                if *activated >= Time::ZERO + ms(6))
        })
        .count();
    assert!(completed_late >= 5, "recovery after the window");
}

#[test]
fn end_to_end_determinism_across_reruns() {
    let run = || {
        let sim = HadesNode::new()
            .task(pipeline_task())
            .link(
                LinkConfig::reliable(us(20), us(80))
                    .with_omissions(50)
                    .with_performance_failures(30, us(200)),
            )
            .costs(CostModel::measured_default())
            .kernel(KernelModel::chorus_like())
            .configure(|c| {
                c.exec = ExecTimeModel::UniformFraction {
                    min_permille: 600,
                    max_permille: 1000,
                }
            })
            .horizon(ms(30))
            .seed(1234)
            .build()
            .unwrap();
        run_settled(sim)
    };
    let (a, a_settled) = run();
    let (b, b_settled) = run();
    assert_eq!(a_settled, b_settled);
    assert_eq!(a.instances, b.instances);
    assert_eq!(a.monitor.events(), b.monitor.events());
    assert_eq!(a.kernel_cpu, b.kernel_cpu);
    assert_eq!(a.finished_at, b.finished_at);
}

#[test]
fn detector_feeds_consensus_based_reconfiguration() {
    // Crash node 2 at 4 ms; the detector must flag it before the group
    // reconfigures by consensus on the surviving membership.
    let link = LinkConfig::reliable(us(10), us(40));
    let plan = FaultPlan::new().crash_at(NodeId(2), Time::ZERO + ms(4));
    let net = Network::homogeneous(4, link, SimRng::seed_from(8)).with_fault_plan(plan.clone());
    let agents = AgentConfig {
        node: NodeId(0),
        nodes: 4,
        heartbeat_period: ms(1),
        clock_precision: us(20),
        f: 1,
        recovery: RecoveryConfig::default(),
        vc_delta_multicast: true,
        vc_attempts: 1,
    };
    let (mut rt, logs) = NodeAgent::cluster(net, agents);
    rt.run(Time::ZERO + ms(15));
    let suspicions = logs[0].borrow().suspicions.clone();
    assert_eq!(suspicions.len(), 1, "no false suspicion");
    let (suspect, suspected_at) = suspicions[0];
    assert_eq!(suspect, 2);
    let latency = suspected_at - (Time::ZERO + ms(4));
    assert!(
        latency <= agents.detection_bound(us(40)),
        "within the bound"
    );

    // Proposals encode each node's view (bitmask of live members);
    // consensus starts after suspicion.
    let outcome = FloodConsensus::new(ConsensusConfig {
        f: 1,
        proposals: vec![0b1011, 0b1011, 0b1111, 0b1011],
        start: suspected_at,
    })
    .execute(Network::homogeneous(4, link, SimRng::seed_from(9)).with_fault_plan(plan));
    assert!(outcome.agreement_holds());
    assert_eq!(
        outcome.decided_value(),
        Some(0b1011),
        "crashed member excluded"
    );
    assert!(!outcome.decisions.contains_key(&2));
}

#[test]
fn diffusion_broadcast_reaches_all_over_lossy_links() {
    let link = LinkConfig::reliable(us(10), us(40)).with_omissions(200);
    let out = BroadcastSim::new(Network::homogeneous(4, link, SimRng::seed_from(11)), 1)
        .broadcast(NodeId(0), Time::ZERO);
    assert!(out.agreement_holds());
    assert!(out.missed.is_empty());
}
