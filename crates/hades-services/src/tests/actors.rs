use super::*;
use hades_sim::{FaultPlan, LinkConfig, SimRng};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn cfg(node: u32, nodes: u32) -> AgentConfig {
    AgentConfig {
        node: NodeId(node),
        nodes,
        heartbeat_period: ms(1),
        clock_precision: us(10),
        f: 1,
        recovery: RecoveryConfig::default(),
        vc_delta_multicast: true,
        vc_attempts: 1,
    }
}

/// The test rig's links: δmax = 40 µs, with `omit_permille` omissions.
fn net(nodes: u32, omit_permille: u32, plan: FaultPlan, seed: u64) -> Network {
    let link = LinkConfig::reliable(us(10), us(40)).with_omissions(omit_permille);
    Network::homogeneous(nodes, link, SimRng::seed_from(seed)).with_fault_plan(plan)
}

fn run(net: Network, cfg: AgentConfig, horizon: Duration) -> Vec<Rc<RefCell<AgentLog>>> {
    let (mut rt, logs) = NodeAgent::cluster(net, cfg);
    rt.run(Time::ZERO + horizon);
    logs
}

fn cluster(
    nodes: u32,
    plan: FaultPlan,
    seed: u64,
    horizon: Duration,
) -> Vec<Rc<RefCell<AgentLog>>> {
    run(net(nodes, 0, plan, seed), cfg(0, nodes), horizon)
}

#[test]
fn healthy_cluster_stays_in_view_zero() {
    let logs = cluster(4, FaultPlan::new(), 1, ms(20));
    for log in &logs {
        let log = log.borrow();
        assert!(log.suspicions.is_empty(), "no false suspicions");
        assert_eq!(log.views.len(), 1);
        assert_eq!(log.primary(), Some(0));
        assert!(log.heartbeats_seen > 0);
    }
}

#[test]
fn crash_is_detected_by_all_survivors_within_bound() {
    let crash = Time::ZERO + ms(5);
    let plan = FaultPlan::new().crash_at(NodeId(2), crash);
    let logs = cluster(4, plan, 2, ms(20));
    let bound = cfg(0, 4).detection_bound(us(40));
    for n in [0usize, 1, 3] {
        let log = logs[n].borrow();
        assert_eq!(log.suspicions.len(), 1, "node {n} suspects exactly once");
        let (suspect, at) = log.suspicions[0];
        assert_eq!(suspect, 2);
        assert!(at >= crash, "no anticipation");
        assert!(
            at - crash <= bound,
            "latency {} > bound {bound}",
            at - crash
        );
    }
    assert!(
        logs[2].borrow().suspicions.is_empty(),
        "the dead observe nothing"
    );
}

#[test]
fn survivors_agree_on_the_view_sequence() {
    let plan = FaultPlan::new().crash_at(NodeId(2), Time::ZERO + ms(5));
    let logs = cluster(4, plan, 3, ms(20));
    let reference = logs[0].borrow().view_members();
    assert_eq!(reference.len(), 2);
    assert_eq!(reference[1], (1, vec![0, 1, 3]));
    for n in [1usize, 3] {
        assert_eq!(
            logs[n].borrow().view_members(),
            reference,
            "node {n} agrees"
        );
    }
}

#[test]
fn primary_crash_promotes_next_member() {
    let crash = Time::ZERO + ms(5);
    let plan = FaultPlan::new().crash_at(NodeId(0), crash);
    let logs = cluster(4, plan, 4, ms(20));
    for n in [1usize, 2, 3] {
        let log = logs[n].borrow();
        assert_eq!(log.primary(), Some(1), "node {n} promoted node 1");
        // Primary handovers: the installs that moved the lowest member.
        let handovers: Vec<(u32, Time)> = log
            .views
            .windows(2)
            .filter(|w| w[0].members.first() != w[1].members.first())
            .map(|w| (w[1].members[0], w[1].installed_at))
            .collect();
        assert_eq!(handovers.len(), 1);
        let (new_primary, at) = handovers[0];
        assert_eq!(new_primary, 1);
        let ceiling = cfg(0, 4).detection_bound(us(40)) + cfg(0, 4).agreement_bound(us(40));
        assert!(at - crash <= ceiling, "takeover {} > {ceiling}", at - crash);
    }
}

#[test]
fn two_separated_crashes_install_two_views() {
    let plan = FaultPlan::new()
        .crash_at(NodeId(3), Time::ZERO + ms(4))
        .crash_at(NodeId(1), Time::ZERO + ms(12));
    let logs = cluster(4, plan, 5, ms(25));
    let reference = logs[0].borrow().view_members();
    assert_eq!(
        reference,
        vec![(0, vec![0, 1, 2, 3]), (1, vec![0, 1, 2]), (2, vec![0, 2]),]
    );
    assert_eq!(logs[2].borrow().view_members(), reference);
    // Both crashes are suspected, in order, and no live node ever is.
    for n in [0usize, 2] {
        let suspects: Vec<u32> = logs[n].borrow().suspicions.iter().map(|s| s.0).collect();
        assert_eq!(suspects, vec![3, 1], "node {n}");
    }
}

#[test]
fn peer_dead_from_the_start_is_suspected_at_exactly_the_timeout() {
    // Never heard from: the deadline set at start-up is the one that
    // fires, T₀ = H + δmax + γ after time zero.
    let timeout = cfg(0, 4).timeout(us(40));
    assert_eq!(timeout, ms(1) + us(40) + us(10));
    assert_eq!(cfg(0, 4).detection_bound(us(40)), ms(2) + us(50));
    let plan = FaultPlan::new().crash_at(NodeId(1), Time::ZERO);
    let logs = cluster(4, plan, 4, ms(5));
    for n in [0usize, 2, 3] {
        assert_eq!(
            logs[n].borrow().suspicions,
            vec![(1, Time::ZERO + timeout)],
            "node {n}"
        );
    }
}

#[test]
fn one_lost_heartbeat_is_masked_only_by_a_timeout_beyond_two_periods() {
    // The 5 ms heartbeat of node 1 never reaches node 0. The gap it
    // leaves is 2H: silent with T₀ > 2H, a (false) suspicion with the
    // default T₀ = 1.05 ms — the omission degree a time-out masks is
    // a property of the configuration, not of luck.
    let lost = || {
        let (from, until) = (Time::ZERO + us(4_900), Time::ZERO + us(5_100));
        FaultPlan::new().cut_link(NodeId(1), NodeId(0), from, until)
    };
    let suspicions = |cfg: AgentConfig| -> Vec<Vec<(u32, Time)>> {
        let logs = run(net(4, 0, lost(), 6), cfg, ms(20));
        logs.iter().map(|l| l.borrow().suspicions.clone()).collect()
    };
    let tolerant = AgentConfig {
        clock_precision: ms(2),
        ..cfg(0, 4)
    };
    assert!(tolerant.timeout(us(40)) > ms(2));
    assert!(suspicions(tolerant).iter().all(Vec::is_empty));
    let strict = suspicions(cfg(0, 4));
    assert_eq!(strict[0].len(), 1, "node 0 suspects once: {strict:?}");
    assert_eq!(strict[0][0].0, 1);
    assert!(strict[1..].iter().all(Vec::is_empty), "{strict:?}");
}

#[test]
fn deterministic_given_seed() {
    let mk = || {
        let plan = FaultPlan::new().crash_at(NodeId(1), Time::ZERO + ms(7));
        let logs = cluster(5, plan, 77, ms(25));
        logs.iter().map(|l| l.borrow().clone()).collect::<Vec<_>>()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn ninety_six_node_cluster_agrees_beyond_the_old_mask_cap() {
    // 96 nodes take three 32-bit wire words per membership — the
    // scenario the packed-u64 protocol (≤ 48 nodes) could not even
    // build. One crash: every survivor must agree on the two-view
    // sequence, with the suspect excluded.
    let crash = Time::ZERO + ms(4);
    let plan = FaultPlan::new().crash_at(NodeId(70), crash);
    let logs = cluster(96, plan, 9, ms(12));
    let reference = logs[0].borrow().view_members();
    assert_eq!(reference.len(), 2, "exactly one view change");
    let expected: Vec<u32> = (0..96).filter(|n| *n != 70).collect();
    assert_eq!(reference[1].1, expected);
    for n in (0..96usize).filter(|n| *n != 70) {
        assert_eq!(logs[n].borrow().view_members(), reference, "node {n}");
    }
}

#[test]
fn restart_runs_the_full_rejoin_protocol() {
    let crash = Time::ZERO + ms(5);
    let restart = Time::ZERO + ms(12);
    let plan = FaultPlan::new().crash_window(NodeId(2), crash, restart);
    let logs = cluster(4, plan, 6, ms(30));

    let joiner = logs[2].borrow();
    assert_eq!(joiner.restarts, vec![restart]);
    assert_eq!(joiner.rejoins.len(), 1, "exactly one rejoin cycle");
    let r = joiner.rejoins[0];
    assert_eq!(r.node, 2);
    assert_eq!(r.restarted_at, restart);
    assert!(r.transfer_started_at > restart);
    assert!(r.transfer_completed_at >= r.transfer_started_at);
    assert!(r.replay_completed_at >= r.transfer_completed_at);
    assert!(r.readmitted_at > r.replay_completed_at);
    assert!(r.chunks >= 1, "the snapshot shipped in chunks");
    assert!(r.bytes >= RecoveryConfig::default().checkpoint_bytes);
    assert_eq!(r.views_traversed, 2, "out for removal + back for rejoin");

    // Every survivor converges on a final view containing node 2 again.
    for n in [0usize, 1, 3] {
        let log = logs[n].borrow();
        let last = log.views.last().unwrap();
        assert_eq!(last.members, vec![0, 1, 2, 3], "node {n} readmitted 2");
        assert_eq!(last.number, 2);
    }
    // The primary (node 0) served the transfer.
    assert_eq!(logs[0].borrow().transfers_served, 1);
    assert!(logs[0].borrow().chunks_sent >= 1);
    assert_eq!(logs[1].borrow().transfers_served, 0);
}

#[test]
fn rejoin_latency_within_analytic_bound() {
    let plan = FaultPlan::new().crash_window(NodeId(1), Time::ZERO + ms(4), Time::ZERO + ms(11));
    let logs = cluster(5, plan, 9, ms(30));
    let joiner = logs[1].borrow();
    assert_eq!(joiner.rejoins.len(), 1);
    let bound = cfg(1, 5).rejoin_bound(us(40));
    let latency = joiner.rejoins[0].latency();
    assert!(latency <= bound, "rejoin {latency} > bound {bound}");
}

#[test]
fn restarted_primary_is_served_by_next_member() {
    // Node 0 is the primary; it crashes, node 1 takes over, and when
    // node 0 returns it is node 1 (the new lowest member) that serves
    // the checkpoint — and node 0 comes back as a plain member but
    // regains the primary role (lowest id).
    let plan = FaultPlan::new().crash_window(NodeId(0), Time::ZERO + ms(5), Time::ZERO + ms(13));
    let logs = cluster(4, plan, 11, ms(32));
    let joiner = logs[0].borrow();
    assert_eq!(joiner.rejoins.len(), 1);
    assert_eq!(logs[1].borrow().transfers_served, 1, "new primary served");
    let survivor = logs[2].borrow();
    let last = survivor.views.last().unwrap();
    assert_eq!(last.members, vec![0, 1, 2, 3]);
    assert_eq!(survivor.primary(), Some(0), "primary role returns with 0");
}

#[test]
fn restart_racing_the_exclusion_flood_still_rejoins() {
    // With H = 1 ms and δmax = 40 µs, survivors suspect ~1.05 ms after
    // the last heard heartbeat and install the exclusion view ~100 µs
    // later. A restart at crash + 150 µs lands inside (or just around)
    // that agreement window: the join must not be answered with the
    // pre-exclusion membership (fast-path trap), and the node must end
    // up re-admitted on every survivor regardless of the exact
    // interleaving.
    // Suspicions fire ~50-90 µs after the crash and the exclusion
    // flood installs ~100 µs later, so this sweep brackets the whole
    // danger zone: join-before-suspicion, join-during-flood and
    // join-after-install, under several delay draws.
    for offset_us in [30u64, 50, 60, 70, 80, 100, 150, 200, 400, 1_200] {
        for seed in 0..3u64 {
            let crash = Time::ZERO + ms(5);
            let restart = crash + us(offset_us);
            let plan = FaultPlan::new().crash_window(NodeId(2), crash, restart);
            let logs = cluster(4, plan, 31 + seed * 1000 + offset_us, ms(30));
            let joiner = logs[2].borrow();
            assert!(
                !joiner.rejoins.is_empty(),
                "offset {offset_us}µs seed {seed}: the joiner completed a rejoin"
            );
            for n in [0usize, 1, 3] {
                let log = logs[n].borrow();
                assert_eq!(
                    log.views.last().unwrap().members,
                    vec![0, 1, 2, 3],
                    "offset {offset_us}µs seed {seed}: node {n} ends with node 2 in the view"
                );
            }
        }
    }
}

#[test]
fn join_survives_the_perceived_server_being_down() {
    // Node 2 crashes at 10 ms; node 0 — the lowest member, i.e. the
    // server every survivor would designate — crashes at 20 ms; node
    // 2 restarts while node 0's exclusion is still undetected or in
    // flight. The join request must stay queued on the other
    // survivors and be served by the *new* lowest member once node
    // 0's exclusion installs, not silently dropped.
    for offset_us in [50u64, 100, 200, 800, 2_000] {
        let plan = FaultPlan::new()
            .crash_window(
                NodeId(2),
                Time::ZERO + ms(10),
                Time::ZERO + ms(20) + us(offset_us),
            )
            .crash_at(NodeId(0), Time::ZERO + ms(20));
        let logs = cluster(4, plan, 57 + offset_us, ms(60));
        let joiner = logs[2].borrow();
        assert_eq!(
            joiner.rejoins.len(),
            1,
            "offset {offset_us}µs: the rejoin completed"
        );
        assert_eq!(
            logs[1].borrow().transfers_served,
            1,
            "offset {offset_us}µs: the new lowest member served"
        );
        for n in [1usize, 3] {
            assert_eq!(
                logs[n].borrow().views.last().unwrap().members,
                vec![1, 2, 3],
                "offset {offset_us}µs: node {n} re-admitted node 2"
            );
        }
    }
}

#[test]
fn repeated_crash_restart_cycles_converge() {
    let plan = FaultPlan::new()
        .crash_window(NodeId(3), Time::ZERO + ms(4), Time::ZERO + ms(10))
        .crash_window(NodeId(3), Time::ZERO + ms(22), Time::ZERO + ms(28));
    let logs = cluster(4, plan, 13, ms(48));
    let joiner = logs[3].borrow();
    assert_eq!(joiner.restarts.len(), 2);
    assert_eq!(joiner.rejoins.len(), 2, "both cycles completed");
    for n in [0usize, 1, 2] {
        let log = logs[n].borrow();
        assert_eq!(
            log.views.last().unwrap().members,
            vec![0, 1, 2, 3],
            "node {n} ends with everyone back"
        );
    }
}

#[test]
fn rejoin_completes_on_lossy_links_via_join_retries() {
    // 10% per-message omissions: the single-shot JOIN (or the
    // transfer preamble) is regularly lost, which before the
    // heartbeat-cadence retransmission stalled the rejoin until the
    // horizon. A loss-tolerant timeout (γ floor raised) keeps the
    // detector from drowning the run in false suspicions, the flood
    // transport gives the view agreement its own redundancy, and a
    // small checkpoint keeps the re-served stream short.
    let mut completed_retries = 0u64;
    for seed in 0..5u64 {
        let lossy_cfg = AgentConfig {
            clock_precision: us(3_500),
            recovery: RecoveryConfig {
                checkpoint_bytes: 2_000,
                ..RecoveryConfig::default()
            },
            vc_delta_multicast: false,
            ..cfg(0, 4)
        };
        let plan =
            FaultPlan::new().crash_window(NodeId(2), Time::ZERO + ms(8), Time::ZERO + ms(20));
        let logs = run(net(4, 100, plan, 900 + seed), lossy_cfg, ms(80));
        let joiner = logs[2].borrow();
        assert!(
            !joiner.rejoins.is_empty(),
            "seed {seed}: the rejoin must not stall on a lossy link"
        );
        completed_retries += joiner.join_retries;
    }
    assert!(
        completed_retries > 0,
        "at least one run exercised the retransmission path"
    );
}

#[test]
fn nack_recovers_lost_chunks_by_selective_retransmission() {
    // 10% per-message omissions over a ~47-chunk transfer: several
    // chunks are lost in flight on essentially every run. The
    // per-chunk gap detector NACKs exactly the missing sequence
    // numbers and the server resends them — the rejoin completes
    // without re-serving the whole stream from scratch.
    let mut resent_total = 0u64;
    for seed in 0..5u64 {
        let lossy_cfg = AgentConfig {
            clock_precision: us(3_500),
            vc_delta_multicast: false,
            ..cfg(0, 4)
        };
        let plan =
            FaultPlan::new().crash_window(NodeId(2), Time::ZERO + ms(8), Time::ZERO + ms(20));
        let logs = run(net(4, 100, plan, 2_400 + seed), lossy_cfg, ms(80));
        let joiner = logs[2].borrow();
        assert!(
            !joiner.rejoins.is_empty(),
            "seed {seed}: the rejoin completed despite chunk losses"
        );
        for r in &joiner.rejoins {
            assert!(
                r.chunks_resent <= r.chunks,
                "seed {seed}: resends are a subset of the received chunks"
            );
            resent_total += r.chunks_resent;
        }
    }
    assert!(
        resent_total > 0,
        "at least one run recovered chunks through NACKs"
    );
}

#[test]
fn short_outage_ships_a_delta_transfer() {
    // With delta transfers on, a 2 ms outage inside one checkpoint
    // interval rejoins on the log tail alone: the joiner's durable
    // cursor (advanced by its own heartbeat ticks before the crash)
    // already covers the snapshot the server would ship.
    let rejoin = |delta_on: bool| {
        let delta_cfg = AgentConfig {
            recovery: RecoveryConfig {
                delta_transfers: delta_on,
                ..RecoveryConfig::default()
            },
            ..cfg(0, 4)
        };
        let plan =
            FaultPlan::new().crash_window(NodeId(2), Time::ZERO + ms(22), Time::ZERO + ms(24));
        let logs = run(net(4, 0, plan, 41), delta_cfg, ms(50));
        let joiner = logs[2].borrow();
        assert_eq!(joiner.rejoins.len(), 1, "delta_on={delta_on}");
        joiner.rejoins[0]
    };
    let delta = rejoin(true);
    let full = rejoin(false);
    assert!(delta.delta, "the short outage took the delta path");
    assert!(!full.delta, "the flag off forces a full transfer");
    assert!(
        delta.bytes < full.bytes,
        "delta shipped {} bytes, full {}",
        delta.bytes,
        full.bytes
    );
    assert!(
        delta.bytes < RecoveryConfig::default().checkpoint_bytes,
        "no snapshot bytes travelled"
    );
    assert!(delta.chunks < full.chunks, "and correspondingly few chunks");
}

#[test]
fn long_outage_falls_back_to_a_full_transfer() {
    // An outage crossing a checkpoint boundary leaves the joiner's
    // durable cursor behind the server's retention window: the delta
    // flag alone must not shrink that transfer.
    let delta_cfg = AgentConfig {
        recovery: RecoveryConfig {
            delta_transfers: true,
            ..RecoveryConfig::default()
        },
        ..cfg(0, 4)
    };
    let plan = FaultPlan::new().crash_window(NodeId(2), Time::ZERO + ms(15), Time::ZERO + ms(45));
    let logs = run(net(4, 0, plan, 43), delta_cfg, ms(70));
    let joiner = logs[2].borrow();
    assert_eq!(joiner.rejoins.len(), 1);
    let r = joiner.rejoins[0];
    assert!(!r.delta, "stale cursor: full transfer");
    assert!(r.bytes >= RecoveryConfig::default().checkpoint_bytes);
}

#[test]
fn delta_multicast_vc_survives_lossy_links_with_an_attempt_budget() {
    // 10% per-copy omissions with the *cheap* Δ-multicast view-change
    // transport: single-shot proposals regularly lose copies, and a
    // node that never hears any proposal for the next view cannot
    // install it — survivors drift apart. A per-copy budget of 4
    // masks the loss (0.1⁴ residual), so every survivor installs the
    // same exclusion view; this is the transport-level analogue of
    // the `ReplicaGroup` per-copy retry pattern.
    for seed in 0..5u64 {
        let lossy_cfg = AgentConfig {
            clock_precision: us(3_500),
            vc_attempts: 4,
            ..cfg(0, 5)
        };
        let plan = FaultPlan::new().crash_at(NodeId(2), Time::ZERO + ms(6));
        let logs = run(net(5, 100, plan, 1_700 + seed), lossy_cfg, ms(40));
        let reference = logs[0].borrow().view_members();
        assert_eq!(
            reference.last().map(|(_, m)| m.clone()),
            Some(vec![0, 1, 3, 4]),
            "seed {seed}: the exclusion view installed"
        );
        for n in [1usize, 3, 4] {
            assert_eq!(
                logs[n].borrow().view_members(),
                reference,
                "seed {seed}: node {n} agrees despite omissions"
            );
        }
    }
}

#[test]
fn deterministic_rejoin_given_seed() {
    let mk = || {
        let plan =
            FaultPlan::new().crash_window(NodeId(2), Time::ZERO + ms(5), Time::ZERO + ms(12));
        let logs = cluster(4, plan, 21, ms(30));
        logs.iter().map(|l| l.borrow().clone()).collect::<Vec<_>>()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn transfer_server_crash_mid_stream_fails_over() {
    // Node 2 restarts at 13 ms and node 0 (the lowest survivor, so
    // the designated server) starts the ~47-chunk, ~1 ms stream —
    // then crashes 500 µs in. The join must not stall until the next
    // failure-free window: the request is remembered on every live
    // node, node 0's exclusion view makes node 1 the server, and the
    // superseding preamble (newer view) resets the joiner's stream
    // so node 1's re-serve completes the rejoin.
    let plan = FaultPlan::new()
        .crash_window(NodeId(2), Time::ZERO + ms(5), Time::ZERO + ms(13))
        .crash_at(NodeId(0), Time::ZERO + ms(13) + us(500));
    let logs = cluster(4, plan, 17, ms(40));
    let joiner = logs[2].borrow();
    assert_eq!(joiner.rejoins.len(), 1, "the rejoin completed");
    assert!(
        joiner.rejoins[0].readmitted_at > Time::ZERO + ms(13) + us(500),
        "re-admission happened after the server's crash"
    );
    assert_eq!(logs[0].borrow().transfers_served, 1, "node 0 started");
    assert_eq!(logs[1].borrow().transfers_served, 1, "node 1 re-served");
    for n in [1usize, 3] {
        assert_eq!(
            logs[n].borrow().views.last().unwrap().members,
            vec![1, 2, 3],
            "node {n} excluded the dead server and re-admitted node 2"
        );
    }
}

#[test]
fn total_failure_bootstraps_and_readmits_everyone() {
    // Every member crashes at once and restarts at once: no live
    // server exists and every JOIN lands on a fellow rejoiner. The
    // lowest announcer (node 0) must bootstrap a singleton view after
    // two stalled retry rounds and serve the others back in — the
    // deadlock that previously stalled all four until the horizon.
    let mut plan = FaultPlan::new();
    for n in 0..4 {
        plan = plan.crash_window(NodeId(n), Time::ZERO + ms(5), Time::ZERO + ms(15));
    }
    let logs = cluster(4, plan, 23, ms(60));
    let boot = logs[0].borrow();
    assert_eq!(boot.rejoins.len(), 1, "node 0 completed its rejoin");
    assert!(
        boot.views.iter().any(|v| v.members == vec![0]),
        "node 0 bootstrapped a singleton view"
    );
    for (n, cell) in logs.iter().enumerate() {
        let log = cell.borrow();
        assert_eq!(log.rejoins.len(), 1, "node {n} rejoined");
        assert_eq!(
            log.views.last().unwrap().members,
            vec![0, 1, 2, 3],
            "node {n} ends with full membership"
        );
    }
}

#[test]
fn staggered_total_failure_recovers_after_last_restart() {
    // The graduated `serverless-stall` corpus shape: node 0 is out
    // [15, 35) ms; nodes 1–3 crash at 34 ms (before node 0's
    // announcements can be served) and return at 70 ms. While alone,
    // node 0 hears no announcer and must NOT bootstrap (an
    // established cluster may merely be partitioned away); once the
    // others announce, it is the lowest announcer hearing only
    // announcers, bootstraps past every heard view, and re-serves the
    // cluster before the horizon.
    let plan = FaultPlan::new()
        .crash_window(NodeId(0), Time::ZERO + ms(15), Time::ZERO + ms(35))
        .crash_window(NodeId(1), Time::ZERO + ms(34), Time::ZERO + ms(70))
        .crash_window(NodeId(2), Time::ZERO + ms(34), Time::ZERO + ms(70))
        .crash_window(NodeId(3), Time::ZERO + ms(34), Time::ZERO + ms(70));
    let logs = cluster(4, plan, 7, ms(100));
    let boot = logs[0].borrow();
    let singleton = boot
        .views
        .iter()
        .find(|v| v.members == vec![0])
        .expect("node 0 bootstrapped a singleton view");
    assert!(
        singleton.installed_at >= Time::ZERO + ms(70),
        "no bootstrap while alone: the others announced first"
    );
    assert!(
        singleton.number >= 2,
        "the bootstrap view is numbered past the heard history"
    );
    for (n, cell) in logs.iter().enumerate() {
        let log = cell.borrow();
        assert!(!log.rejoins.is_empty(), "node {n} rejoined");
        assert_eq!(
            log.views.last().unwrap().members,
            vec![0, 1, 2, 3],
            "node {n} ends with full membership"
        );
    }
}

/// Instant at which `observer` first suspected `suspect`.
fn suspected_at(log: &Rc<RefCell<AgentLog>>, suspect: u32) -> Option<Time> {
    let log = log.borrow();
    let hit = log.suspicions.iter().find(|(peer, _)| *peer == suspect);
    hit.map(|&(_, at)| at)
}

#[test]
fn detector_survives_an_outage_that_swallowed_its_time_out() {
    // Node 1 is down for 5 ms — five detection windows: every deadline
    // it held, and the one time-out it had queued, came due in the
    // outage and were dropped by the host. Back up and readmitted, it
    // must still suspect node 2, which falls silent at 25 ms — at the
    // instant the per-heartbeat-timer detector did (recorded from it).
    let plan = FaultPlan::new()
        .crash_window(NodeId(1), Time::ZERO + ms(3), Time::ZERO + ms(8))
        .crash_at(NodeId(2), Time::ZERO + us(25_100));
    let logs = cluster(4, plan, 21, ms(40));
    assert_eq!(logs[1].borrow().rejoins.len(), 1, "node 1 rejoined");
    let at = suspected_at(&logs[1], 2).expect("the restarted node still detects");
    assert_eq!(at, Time::from_nanos(26_066_417));
}

#[test]
fn deadline_pulled_ahead_of_the_queued_one_by_a_clock_speed_up_fires_first() {
    // From 4.5 ms node 0's clock runs 31× fast, so the deadlines it
    // reserves for the 5 ms heartbeats (T₀ / 31 ≈ 34 µs after each)
    // come due *before* the time-out it has queued for the 4 ms ones
    // (≈ 5.06 ms). It gets no heartbeat in that time and (wrongly, but
    // on its own clock's time) suspects its peers — at the instants the
    // per-heartbeat-timer detector did, the first before the time-out
    // that was queued when the clock sped up.
    let plan = FaultPlan::new().skew_clock(NodeId(0), Time::ZERO + us(4_500), 30_000_000_000);
    let logs = cluster(4, plan, 22, ms(6));
    let observed = logs[0].borrow().suspicions.clone();
    let at = |ns| Time::from_nanos(ns);
    assert_eq!(
        observed[..3],
        [(1, at(5_046_113)), (3, at(5_052_910)), (2, at(5_061_299))]
    );
    let queued_before = Time::ZERO + ms(4) + us(10) + cfg(0, 4).timeout(us(40));
    assert!(observed[0].1 < queued_before);
}

#[test]
fn a_deadline_set_while_rejoining_stays_live_beside_the_one_rejoin_adds() {
    // Why `held_over` exists. A rejoining node records a deadline for
    // every heartbeat it hears; `finish_rejoin` then sets a *second*
    // one for each member, T₀ from readmission, and withdraws nothing.
    // A peer that fell silent just before readmission is therefore
    // suspected T₀ after its last heartbeat — not T₀ after the
    // readmission, which is what replacing the deadline would give.
    let outage =
        |plan: FaultPlan| plan.crash_window(NodeId(1), Time::ZERO + ms(4), Time::ZERO + ms(11));
    let dry = cluster(5, outage(FaultPlan::new()), 9, ms(30));
    let readmitted = dry[1].borrow().rejoins[0].readmitted_at;
    // Node 3 dies right after the readmission, before its next beat.
    let silent_from = readmitted + us(1);
    let last_beat = Time::from_nanos(readmitted.as_nanos() / 1_000_000 * 1_000_000);
    assert!(silent_from < last_beat + ms(1));
    let logs = cluster(
        5,
        outage(FaultPlan::new().crash_at(NodeId(3), silent_from)),
        9,
        ms(30),
    );
    assert_eq!(logs[1].borrow().rejoins[0].readmitted_at, readmitted);
    let at = suspected_at(&logs[1], 3).expect("node 1 suspects node 3");
    let timeout = cfg(1, 5).timeout(us(40));
    assert!(
        at > last_beat + timeout && at <= last_beat + us(40) + timeout,
        "suspected at {at}: T₀ after the last heartbeat of {last_beat}"
    );
    assert!(at < readmitted + timeout, "not T₀ after the readmission");
}
