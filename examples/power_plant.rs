//! Power-plant protection system: the robustness services in concert.
//!
//! A reactor protection system is the paper's canonical safety-critical
//! domain (failure probability 10⁻⁹/h class). This example wires the HADES
//! generic services together the way such a system would:
//!
//! 1. **Clock synchronization** (Lundelius–Lynch) keeps the four protection
//!    channels within a known precision, despite one Byzantine clock;
//! 2. the channels' **node agents** exchange heartbeats and must catch a
//!    crash within the detector's analytic bound;
//! 3. the trip decision is reached by **flooding consensus** among the
//!    surviving channels;
//! 4. the decision is disseminated by **reliable broadcast**;
//! 5. the new operating mode is recorded in crash-atomic **stable
//!    storage**;
//! 6. computations depending on the crashed channel are reaped through
//!    **dependency tracking**.
//!
//! Run with: `cargo run --example power_plant`

use hades::prelude::*;
use hades_services::recovery::RecoveryConfig;
use hades_services::{
    AgentConfig, BroadcastSim, ClockSyncConfig, ClockSyncRun, ConsensusConfig, DependencyTracker,
    FloodConsensus, NodeAgent, StableStore,
};

fn main() {
    let us = Duration::from_micros;
    let ms = Duration::from_millis;
    let link = LinkConfig::reliable(us(10), us(40));
    let crash_time = Time::ZERO + ms(8);
    let plan = FaultPlan::new().crash_at(NodeId(3), crash_time);

    println!("power plant protection system — HADES services demo");
    println!("====================================================");

    // 1. Clock synchronization with one Byzantine clock among four.
    let sync = ClockSyncRun::new(ClockSyncConfig {
        byzantine: vec![2],
        rounds: 20,
        link,
        ..ClockSyncConfig::default_quad()
    })
    .execute();
    println!(
        "\n[clock sync]  initial skew {}  final skew {}  bound {}",
        sync.initial_skew,
        sync.final_skew(),
        sync.analytic_bound
    );
    assert!(
        sync.converged(),
        "correct clocks converge despite Byzantine"
    );

    // 2. Crash detection of channel 3: the four channels' agents watch
    //    each other; channel 0's log speaks for the survivors.
    let agents = AgentConfig {
        node: NodeId(0),
        nodes: 4,
        heartbeat_period: ms(1),
        clock_precision: sync.analytic_bound,
        f: 1,
        recovery: RecoveryConfig::default(),
        vc_delta_multicast: true,
        vc_attempts: 1,
    };
    let bound = agents.detection_bound(link.delay_max);
    let net = Network::homogeneous(4, link, SimRng::seed_from(11)).with_fault_plan(plan.clone());
    let (mut rt, logs) = NodeAgent::cluster(net, agents);
    rt.run(Time::ZERO + ms(30));
    let suspicions = logs[0].borrow().suspicions.clone();
    assert_eq!(suspicions.len(), 1, "no false alarms");
    let (suspect, suspected_at) = suspicions[0];
    let latency = suspected_at - crash_time;
    println!("[detector]    channel {suspect} suspected after {latency} (bound {bound})");
    assert!(suspect == 3 && latency <= bound, "detection within bound");

    // 3. Consensus on the trip decision among surviving channels
    //    (1 = trip, 0 = stay): any channel voting trip must win — encode
    //    trip as the *minimum* by inverting: 0 = trip.
    let net = Network::homogeneous(4, link, SimRng::seed_from(13)).with_fault_plan(plan.clone());
    let consensus = FloodConsensus::new(ConsensusConfig {
        f: 1,
        proposals: vec![1, 0, 1, 1], // channel 1 demands a trip
        start: crash_time + bound,
    })
    .execute(net);
    assert!(consensus.agreement_holds());
    let trip = consensus.decided_value() == Some(0);
    println!(
        "[consensus]   {} channels decided in {} messages: trip = {trip}",
        consensus.decisions.len(),
        consensus.messages
    );
    assert!(trip, "the trip demand must prevail");

    // 4. Reliable broadcast of the trip command.
    let net = Network::homogeneous(4, link, SimRng::seed_from(17)).with_fault_plan(plan.clone());
    let bcast = BroadcastSim::new(net, 1).broadcast(NodeId(1), consensus.decided_at);
    assert!(bcast.agreement_holds());
    let lat = bcast
        .max_latency(consensus.decided_at)
        .expect("all correct delivered");
    println!(
        "[broadcast]   trip command at every correct channel within {lat} (bound {})",
        bcast.bound
    );

    // 5. Mode change recorded atomically; a crash mid-update must not
    //    corrupt the stored mode.
    let mut store = StableStore::new();
    store.write(b"mode", b"normal".to_vec());
    store.stage(b"mode", b"tripped".to_vec());
    store.crash(); // power blip before commit: old mode survives
    assert_eq!(store.read(b"mode").unwrap(), b"normal");
    store.stage(b"mode", b"tripped".to_vec());
    store.commit(b"mode");
    assert_eq!(store.read(b"mode").unwrap(), b"tripped");
    println!("[storage]     mode transition crash-atomic: normal → tripped");

    // 6. Orphan elimination: computations fed by channel 3's last scan
    //    are invalidated transitively.
    let mut deps = DependencyTracker::new();
    deps.add_dependency((3, 0), (10, 0)); // voter consumed channel 3 scan
    deps.add_dependency((10, 0), (20, 0)); // display consumed voter output
    deps.add_dependency((2, 0), (10, 1)); // unrelated chain survives
    let orphans = deps.invalidate((3, 0));
    println!(
        "[dependency]  channel 3 failure orphaned {} downstream computations",
        orphans.len()
    );
    assert_eq!(orphans, vec![(10, 0), (20, 0)]);

    println!("\nprotection chain complete: detect → agree → trip → persist ✓");
}
