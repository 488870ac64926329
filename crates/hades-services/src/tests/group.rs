use super::*;
use crate::membership::View;
use hades_sim::{ActorEngine, FaultPlan, LinkConfig, Network, SimRng};
use hades_telemetry::{Probe, Profiler, Registry};
use std::collections::HashSet;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn t_ms(n: u64) -> Time {
    Time::ZERO + ms(n)
}

/// A synthetic view schedule shared by all members: each entry is
/// picked up once its install instant passes.
fn view_schedule(views: Vec<(u32, Vec<u32>, Time)>) -> Rc<RefCell<AgentLog>> {
    Rc::new(RefCell::new(AgentLog {
        node: 0,
        heartbeats_seen: 0,
        suspicions: Vec::new(),
        views: views
            .into_iter()
            .map(|(number, members, installed_at)| View {
                number,
                members,
                installed_at,
            })
            .collect(),
        restarts: Vec::new(),
        rejoins: Vec::new(),
        transfers_served: 0,
        chunks_sent: 0,
        vc_messages_sent: 0,
        join_retries: 0,
        heartbeats_sent: 0,
        heartbeats_suppressed: 0,
    }))
}

#[allow(clippy::too_many_arguments)]
fn run_group(
    style: ReplicaStyle,
    nodes: u32,
    plan: FaultPlan,
    views: Option<Rc<RefCell<AgentLog>>>,
    seed: u64,
    horizon: Duration,
    attempts: u32,
    omissions_permille: u32,
) -> Vec<Rc<RefCell<GroupLog>>> {
    let (logs, _) = run_group_tapped(
        style,
        nodes,
        plan,
        views,
        seed,
        horizon,
        attempts,
        omissions_permille,
    );
    logs
}

/// Every event the members handed the tap, with its instant, in the
/// order they happened.
type Tapped = Vec<(Time, MonitorEvent)>;

/// A tap that records every event it is handed, and its recording.
fn recorder() -> (ProtocolTap, Rc<RefCell<Tapped>>) {
    let events = Rc::new(RefCell::new(Vec::new()));
    let tap = {
        let events = events.clone();
        ProtocolTap(Rc::new(move |now, ev: &MonitorEvent| {
            events.borrow_mut().push((now, ev.clone()));
        }))
    };
    (tap, events)
}

/// [`run_group`], with every member's events recorded from the tap.
#[allow(clippy::too_many_arguments)]
fn run_group_tapped(
    style: ReplicaStyle,
    nodes: u32,
    plan: FaultPlan,
    views: Option<Rc<RefCell<AgentLog>>>,
    seed: u64,
    horizon: Duration,
    attempts: u32,
    omissions_permille: u32,
) -> (Vec<Rc<RefCell<GroupLog>>>, Tapped) {
    let (tap, events) = recorder();
    let link = LinkConfig::reliable(us(10), us(40)).with_omissions(omissions_permille);
    let net = Network::homogeneous(nodes, link, SimRng::seed_from(seed)).with_fault_plan(plan);
    let mut rt = ActorEngine::new(net);
    let members: Vec<u32> = (0..nodes).collect();
    let peers: Vec<(u32, ActorId)> = members.iter().map(|n| (*n, ActorId(*n))).collect();
    let logs: Vec<_> = (0..nodes)
        .map(|n| {
            let (member, log) = ReplicaGroup::new(
                GroupConfig {
                    group: 0,
                    node: NodeId(n),
                    members: members.clone(),
                    style,
                    request_period: ms(1),
                    first_request_at: t_ms(1),
                    source: None,
                    delta: us(60),
                    attempts,
                    peers: peers.clone(),
                },
                views.clone(),
            );
            rt.add_actor(Box::new(member.with_tap(tap.clone())));
            log
        })
        .collect();
    rt.run(Time::ZERO + horizon);
    (logs, events.take())
}

/// `member`'s deliveries, `(id, ts, at)`, in its delivery order.
fn deliveries_of(tapped: &Tapped, member: u32) -> Vec<(u64, Time, Time)> {
    let of = |(at, ev): &(Time, MonitorEvent)| match *ev {
        MonitorEvent::RequestDelivered {
            member: m, id, ts, ..
        } if m == member => Some((id, ts, *at)),
        _ => None,
    };
    tapped.iter().filter_map(of).collect()
}

/// `member`'s client-visible outputs, `(id, at)`, in emission order.
fn emitted_by(tapped: &Tapped, member: u32) -> Vec<(u64, Time)> {
    let of = |(at, ev): &(Time, MonitorEvent)| match *ev {
        MonitorEvent::OutputEmitted { member: m, id, .. } if m == member => Some((id, *at)),
        _ => None,
    };
    tapped.iter().filter_map(of).collect()
}

/// Every member's outputs, as request ids in emission order.
fn emitted_ids(tapped: &Tapped) -> Vec<u64> {
    let of = |(_, ev): &(Time, MonitorEvent)| match *ev {
        MonitorEvent::OutputEmitted { id, .. } => Some(id),
        _ => None,
    };
    tapped.iter().filter_map(of).collect()
}

/// The gateways' submissions, `(id, at)`, in submission order.
fn submissions(tapped: &Tapped) -> Vec<(u64, Time)> {
    let of = |(at, ev): &(Time, MonitorEvent)| match *ev {
        MonitorEvent::RequestSubmitted { id, .. } => Some((id, *at)),
        _ => None,
    };
    tapped.iter().filter_map(of).collect()
}

/// The leadership takeovers `member` performed, `(old, new, at)`.
fn handoffs_to(tapped: &Tapped, member: u32) -> Vec<(u32, u32, Time)> {
    let of = |(at, ev): &(Time, MonitorEvent)| match *ev {
        MonitorEvent::LeadershipHandoff { from, to, .. } if to == member => Some((from, to, *at)),
        _ => None,
    };
    tapped.iter().filter_map(of).collect()
}

#[test]
fn active_group_delivers_identical_order_and_unique_outputs() {
    let (logs, deliveries) = run_group_tapped(
        ReplicaStyle::Active,
        3,
        FaultPlan::new(),
        None,
        1,
        ms(12),
        1,
        0,
    );
    let reference = logs[0].borrow().delivered.clone();
    assert!(reference.len() >= 10, "requests flowed: {reference:?}");
    assert_eq!(reference, (0..reference.len() as u64).collect::<Vec<_>>());
    let mut unique = HashSet::new();
    let mut emissions = 0u64;
    for log in &logs {
        let log = log.borrow();
        assert_eq!(log.delivered, reference, "node {} order", log.node);
        // Delivery exactly at ts + Δ.
        let tapped = deliveries_of(&deliveries, log.node);
        assert_eq!(tapped.len(), log.delivered.len(), "the tap saw each one");
        for (_, ts, at) in &tapped {
            assert_eq!(*at, *ts + us(60));
        }
        let emitted = emitted_by(&deliveries, log.node);
        emissions += emitted.len() as u64;
        unique.extend(emitted.iter().map(|(id, _)| *id));
        assert!(log.suppressed > 0, "the voter saw redundant copies");
        assert_eq!(log.vote_mismatches, 0);
    }
    assert_eq!(unique.len() as u64, reference.len() as u64);
    assert_eq!(
        emissions,
        reference.len() as u64 * 3,
        "every member voted every request; the voter kept one copy each"
    );
    // All members executed everything: identical order-sensitive
    // state folds.
    let s0 = logs[0].borrow().final_state;
    assert!(logs.iter().all(|l| l.borrow().final_state == s0));
}

#[test]
fn semi_active_leader_emits_followers_suppress() {
    let (logs, tapped) = run_group_tapped(
        ReplicaStyle::SemiActive,
        3,
        FaultPlan::new(),
        None,
        2,
        ms(12),
        1,
        0,
    );
    let leader = logs[0].borrow();
    let follower = logs[1].borrow();
    assert!(!emitted_by(&tapped, 0).is_empty());
    assert_eq!(leader.suppressed, 0);
    assert!(emitted_by(&tapped, 1).is_empty(), "followers never emit");
    assert!(follower.suppressed > 0, "followers executed silently");
    assert_eq!(
        leader.final_state, follower.final_state,
        "followers executed the leader's decided order"
    );
    assert_eq!(leader.delivered, follower.delivered);
}

#[test]
fn semi_active_crash_hands_over_and_preserves_order() {
    let crash = t_ms(5);
    let vc = t_ms(6); // the agreed exclusion view installs ~1 ms later
    let plan = FaultPlan::new().crash_at(NodeId(0), crash);
    let views = view_schedule(vec![(0, vec![0, 1, 2], Time::ZERO), (1, vec![1, 2], vc)]);
    let (logs, tapped) = run_group_tapped(
        ReplicaStyle::SemiActive,
        3,
        plan,
        Some(views),
        3,
        ms(20),
        1,
        0,
    );
    let new_leader = logs[1].borrow();
    let handoffs = handoffs_to(&tapped, 1);
    assert_eq!(handoffs.len(), 1, "node 1 took over");
    let (from, to, at) = handoffs[0];
    assert_eq!((from, to), (0, 1));
    assert!(at >= vc);
    // Requests kept flowing: the new gateway resubmitted what the
    // dead leader never multicast, and ordering resumed.
    let follower = logs[2].borrow();
    assert_eq!(new_leader.delivered, follower.delivered);
    assert_eq!(new_leader.final_state, follower.final_state);
    let expected: Vec<u64> = (0..new_leader.delivered.len() as u64).collect();
    assert_eq!(
        new_leader.delivered, expected,
        "no request lost across the handoff"
    );
    assert!(new_leader.delivered.len() >= 15, "traffic sustained");
    // Exactly one emission per request across the group.
    let mut all = emitted_ids(&tapped);
    all.sort_unstable();
    let deduped: Vec<u64> = {
        let mut d = all.clone();
        d.dedup();
        d
    };
    assert_eq!(all, deduped, "no duplicate outputs across the handoff");
}

#[test]
fn returning_leader_second_tenure_does_not_collide_with_its_first() {
    // Leader node 0 crashes at 5 ms and is re-admitted at 16.03 ms —
    // inside the Δ-window of the request the interim leader submits
    // at its 16 ms tick, so the interim leader resigns before
    // ordering anything. Node 0's second tenure restarts its order
    // stream at sequence 0; followers that never saw an interim
    // order must re-anchor on the leadership change instead of
    // dropping seq 0 against the first tenure's numbering — the
    // order-sensitive state folds expose any silent divergence.
    let crash = t_ms(5);
    let restart = t_ms(15);
    let plan = FaultPlan::new().crash_window(NodeId(0), crash, restart);
    let views = view_schedule(vec![
        (0, vec![0, 1, 2], Time::ZERO),
        (1, vec![1, 2], t_ms(7)),
        (2, vec![0, 1, 2], t_ms(16) + us(30)),
    ]);
    let link = LinkConfig::reliable(us(10), us(40));
    let net = Network::homogeneous(3, link, SimRng::seed_from(17)).with_fault_plan(plan);
    let mut rt = ActorEngine::new(net);
    let members = vec![0, 1, 2];
    let peers: Vec<(u32, ActorId)> = members.iter().map(|n| (*n, ActorId(*n))).collect();
    let logs: Vec<_> = (0..3)
        .map(|n| {
            let (member, log) = ReplicaGroup::new(
                GroupConfig {
                    group: 0,
                    node: NodeId(n),
                    members: members.clone(),
                    style: ReplicaStyle::SemiActive,
                    request_period: ms(15),
                    first_request_at: t_ms(1),
                    source: None,
                    delta: us(60),
                    attempts: 1,
                    peers: peers.clone(),
                },
                Some(views.clone()),
            );
            rt.add_actor(Box::new(member));
            log
        })
        .collect();
    rt.run(Time::ZERO + ms(50));
    let leader = logs[0].borrow();
    for n in [1usize, 2] {
        let follower = logs[n].borrow();
        assert_eq!(
            follower.final_state, leader.final_state,
            "node {n} silently diverged from the returning leader"
        );
    }
    assert!(leader.delivered.len() >= 3, "requests kept flowing");
}

#[test]
fn passive_backup_takes_over_from_checkpoint() {
    let crash = t_ms(8);
    let vc = t_ms(9);
    let plan = FaultPlan::new().crash_at(NodeId(0), crash);
    let views = view_schedule(vec![(0, vec![0, 1, 2], Time::ZERO), (1, vec![1, 2], vc)]);
    let (logs, tapped) = run_group_tapped(
        ReplicaStyle::Passive {
            checkpoint_every: 3,
        },
        3,
        plan,
        Some(views),
        4,
        ms(20),
        1,
        0,
    );
    let new = logs[1].borrow();
    let (old_out, new_out) = (emitted_by(&tapped, 0), emitted_by(&tapped, 1));
    assert!(old_out.len() >= 6, "the primary served before dying");
    assert_eq!(handoffs_to(&tapped, 1).len(), 1);
    assert!(new.replayed > 0, "the takeover replayed the log tail");
    assert!(
        new.replayed <= 3 + 2,
        "replay bounded by one checkpoint interval (+ in-flight): {}",
        new.replayed
    );
    // The new primary kept serving after the takeover.
    assert!(new_out.len() >= 5, "service resumed: {new_out:?}");
    // Re-emission past the watermark is possible and visible.
    let mut all: Vec<u64> = old_out.iter().chain(&new_out).map(|(id, _)| *id).collect();
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert!(total >= all.len(), "duplicates only ever add emissions");
}

#[test]
fn group_run_is_deterministic() {
    let mk = || {
        let plan = FaultPlan::new().crash_at(NodeId(0), t_ms(5));
        let views = view_schedule(vec![
            (0, vec![0, 1, 2], Time::ZERO),
            (1, vec![1, 2], t_ms(6)),
        ]);
        let (logs, tapped) = run_group_tapped(
            ReplicaStyle::SemiActive,
            3,
            plan,
            Some(views),
            7,
            ms(18),
            1,
            0,
        );
        let logs: Vec<GroupLog> = logs.iter().map(|l| l.borrow().clone()).collect();
        (logs, tapped)
    };
    assert_eq!(mk(), mk());
}

#[test]
fn omissions_are_masked_by_the_attempt_budget() {
    // 15% per-copy loss, 8 attempts: the chance of an unmasked miss
    // over the whole run is negligible, so every member still
    // delivers the identical sequence.
    let logs = run_group(
        ReplicaStyle::Active,
        3,
        FaultPlan::new(),
        None,
        9,
        ms(15),
        8,
        150,
    );
    let reference = logs[0].borrow().delivered.clone();
    assert!(reference.len() >= 12);
    for log in &logs {
        assert_eq!(log.borrow().delivered, reference);
    }
}

#[test]
fn restarted_active_member_catches_up_to_the_full_fold() {
    // Node 1 is down for 7 ms of a 30 ms run — it misses ~7 requests
    // permanently (they were delivered while it was dead). Before the
    // catch-up protocol its order-sensitive state fold could never
    // equal the survivors' again; with the group fold pulled from the
    // leader at rejoin, every member ends with the identical state.
    let crash = t_ms(5);
    let restart = t_ms(12);
    let plan = FaultPlan::new().crash_window(NodeId(1), crash, restart);
    let (logs, deliveries) =
        run_group_tapped(ReplicaStyle::Active, 3, plan, None, 21, ms(30), 1, 0);
    let joiner = logs[1].borrow();
    assert_eq!(joiner.restarts, vec![restart]);
    assert_eq!(joiner.catchups, 1, "the snapshot was adopted");
    let reference = logs[0].borrow();
    assert!(
        joiner.delivered.len() < reference.delivered.len(),
        "the blackout window is genuinely missing from its own deliveries"
    );
    assert_eq!(
        joiner.final_state, reference.final_state,
        "the adopted fold covers the blackout window"
    );
    assert_eq!(logs[2].borrow().final_state, reference.final_state);
    // The crash itself was masked with zero outage: the survivors
    // delivered every request, each exactly at ts + Δ, and the
    // leader's vote for each went out at that same instant.
    let order = &reference.delivered;
    assert_eq!(*order, (0..order.len() as u64).collect::<Vec<_>>());
    let tapped = deliveries_of(&deliveries, 0);
    assert_eq!(tapped.len(), order.len(), "the tap saw each delivery");
    for ((id, ts, at), vote) in tapped.iter().zip(&emitted_by(&deliveries, 0)) {
        assert_eq!(*at, *ts + us(60));
        assert_eq!(*vote, (*id, *at));
    }
}

#[test]
fn passive_backup_crash_costs_the_primary_nothing() {
    let plan = FaultPlan::new().crash_at(NodeId(2), t_ms(5));
    let views = view_schedule(vec![
        (0, vec![0, 1, 2], Time::ZERO),
        (1, vec![0, 1], t_ms(6)),
    ]);
    let style = ReplicaStyle::Passive {
        checkpoint_every: 3,
    };
    let (logs, deliveries) = run_group_tapped(style, 3, plan, Some(views), 5, ms(20), 1, 0);
    let primary = logs[0].borrow();
    assert!(handoffs_to(&deliveries, 0).is_empty() && primary.replayed == 0);
    let outputs = emitted_by(&deliveries, 0);
    let served: Vec<u64> = outputs.iter().map(|(id, _)| *id).collect();
    assert_eq!(served, (0..served.len() as u64).collect::<Vec<_>>());
    assert!(served.len() >= 18, "no request delayed past the horizon");
    let tapped = deliveries_of(&deliveries, 0);
    assert_eq!(
        tapped.len(),
        primary.delivered.len(),
        "the tap saw each one"
    );
    for ((id, ts, at), output) in tapped.iter().zip(&outputs) {
        assert_eq!(*at, *ts + us(60));
        assert_eq!(*output, (*id, *at));
    }
}

#[test]
fn styles_fold_one_stream_to_one_state_at_falling_cost() {
    // The same fault-free request stream under each style: whoever
    // executes ends on the same fold; what differs is who executes
    // and how much is sent.
    let run = |style| run_group(style, 3, FaultPlan::new(), None, 6, ms(12), 1, 0);
    let sent = |logs: &[Rc<RefCell<GroupLog>>]| -> u64 {
        logs.iter().map(|l| l.borrow().messages_sent).sum()
    };
    let active = run(ReplicaStyle::Active);
    let semi = run(ReplicaStyle::SemiActive);
    let (passive, passive_tapped) = run_group_tapped(
        ReplicaStyle::Passive {
            checkpoint_every: 4,
        },
        3,
        FaultPlan::new(),
        None,
        6,
        ms(12),
        1,
        0,
    );
    let fold = active[0].borrow().final_state;
    assert_eq!(semi[0].borrow().final_state, fold);
    assert_eq!(passive[0].borrow().final_state, fold);
    assert!(
        emitted_by(&passive_tapped, 1).is_empty(),
        "backups do not execute"
    );
    assert!(sent(&passive) < sent(&semi) && sent(&semi) < sent(&active));
}

#[test]
fn restarted_semi_active_follower_defers_orders_until_adoption() {
    // A fast request stream (100 µs) floods the restart window with
    // decided orders: several arrive at the returning follower while
    // its snapshot pull is still in flight. Executing them before
    // adoption would fold ids the snapshot overwrite then silently
    // loses; the fix holds them back and settles the buffered stream
    // at adoption — every member must end on the identical fold.
    for seed in 0..6u64 {
        let crash = t_ms(5);
        let restart = t_ms(12);
        let plan = FaultPlan::new().crash_window(NodeId(1), crash, restart);
        let link = LinkConfig::reliable(us(10), us(40));
        let net =
            Network::homogeneous(3, link, SimRng::seed_from(100 + seed)).with_fault_plan(plan);
        let mut rt = ActorEngine::new(net);
        let members = vec![0, 1, 2];
        let peers: Vec<(u32, ActorId)> = members.iter().map(|n| (*n, ActorId(*n))).collect();
        let logs: Vec<_> = (0..3)
            .map(|n| {
                let (member, log) = ReplicaGroup::new(
                    GroupConfig {
                        group: 0,
                        node: NodeId(n),
                        members: members.clone(),
                        style: ReplicaStyle::SemiActive,
                        request_period: us(100),
                        first_request_at: t_ms(1),
                        source: None,
                        delta: us(60),
                        attempts: 1,
                        peers: peers.clone(),
                    },
                    None,
                );
                rt.add_actor(Box::new(member));
                log
            })
            .collect();
        rt.run(Time::ZERO + ms(30));
        let joiner = logs[1].borrow();
        assert_eq!(joiner.catchups, 1, "seed {seed}: snapshot adopted");
        let leader = logs[0].borrow();
        assert_eq!(
            joiner.final_state, leader.final_state,
            "seed {seed}: the returning follower's fold diverged"
        );
        assert_eq!(logs[2].borrow().final_state, leader.final_state);
    }
}

#[test]
fn explicit_schedule_drives_submissions_and_ends_the_stream() {
    // A replayed-trace schedule: three bursts, then silence. The
    // gateway must submit exactly the scheduled instants and stop.
    let times: Vec<Time> = [1_000u64, 1_200, 5_000, 5_100, 5_200, 9_000]
        .iter()
        .map(|us_| Time::ZERO + us(*us_))
        .collect();
    let link = LinkConfig::reliable(us(10), us(40));
    let net = Network::homogeneous(3, link, SimRng::seed_from(3));
    let mut rt = ActorEngine::new(net);
    let members = vec![0, 1, 2];
    let peers: Vec<(u32, ActorId)> = members.iter().map(|n| (*n, ActorId(*n))).collect();
    let schedule: Rc<RefCell<dyn RequestSource>> =
        Rc::new(RefCell::new(FixedSchedule::new(times.clone().into())));
    let (tap, tapped) = recorder();
    let logs: Vec<_> = (0..3)
        .map(|n| {
            let (member, log) = ReplicaGroup::new(
                GroupConfig {
                    group: 0,
                    node: NodeId(n),
                    members: members.clone(),
                    style: ReplicaStyle::Active,
                    request_period: Duration::ZERO,
                    first_request_at: Time::ZERO,
                    source: Some(schedule.clone()),
                    delta: us(60),
                    attempts: 1,
                    peers: peers.clone(),
                },
                None,
            );
            rt.add_actor(Box::new(member.with_tap(tap.clone())));
            log
        })
        .collect();
    rt.run(Time::ZERO + ms(20));
    let at: Vec<Time> = submissions(&tapped.borrow()).iter().map(|s| s.1).collect();
    assert_eq!(
        at, times,
        "one submission per scheduled instant, at that instant"
    );
    let reference = logs[0].borrow().delivered.clone();
    assert_eq!(reference, vec![0, 1, 2, 3, 4, 5]);
    for log in &logs {
        assert_eq!(log.borrow().delivered, reference);
    }
}

/// A one-member group on node 0 driven by the open-loop schedule
/// `times_us`: the runtime, the member's log and its tap recording.
fn solo_on_schedule(
    times_us: &[u64],
    plan: FaultPlan,
) -> (ActorEngine, Rc<RefCell<GroupLog>>, Rc<RefCell<Tapped>>) {
    let link = LinkConfig::reliable(us(10), us(40));
    let net = Network::homogeneous(1, link, SimRng::seed_from(5)).with_fault_plan(plan);
    let mut rt = ActorEngine::new(net);
    let times = times_us.iter().map(|t| Time::ZERO + us(*t)).collect();
    let (member, log) = ReplicaGroup::new(
        GroupConfig {
            group: 0,
            node: NodeId(0),
            members: vec![0],
            style: ReplicaStyle::Active,
            request_period: Duration::ZERO,
            first_request_at: Time::ZERO,
            source: Some(Rc::new(RefCell::new(FixedSchedule::new(times)))),
            delta: us(60),
            attempts: 1,
            peers: vec![(0, ActorId(0))],
        },
        None,
    );
    let (tap, tapped) = recorder();
    rt.add_actor(Box::new(member.with_tap(tap)));
    (rt, log, tapped)
}

fn submitted_ids(tapped: &Rc<RefCell<Tapped>>) -> Vec<u64> {
    submissions(&tapped.borrow()).iter().map(|s| s.0).collect()
}

#[test]
fn two_arms_for_one_instant_deliver_one_tick() {
    // `Start` arms the tick of the first submission; the wake right
    // behind it runs a tick at t = 0 whose successor is that same
    // instant. Unchecked, the second arm doubles every tick from
    // there to the end of the schedule.
    let (mut rt, _, tapped) = solo_on_schedule(&[1_000, 2_000, 3_000], FaultPlan::new());
    let profiler = Profiler::enabled();
    let unnamed = Probe::new(
        &Registry::disabled(),
        &profiler,
        |_, _| None,
        |_, _, _| false,
    );
    rt.set_probe(unnamed);
    rt.postbox().notify(ActorId(0), GN_WAKE);
    rt.run(t_ms(5));
    assert_eq!(submitted_ids(&tapped), vec![0, 1, 2]);
    let timers: u64 = profiler
        .report()
        .actors
        .iter()
        .filter(|a| a.label == GROUP_LABEL && a.class == "timer")
        .map(|a| a.events)
        .sum();
    assert_eq!(timers, 6, "three ticks and three Δ-deliveries");
}

#[test]
fn restart_mid_wait_clears_the_pending_ticks() {
    // Down over [2 ms, 3 ms) with the tick for 5 ms pending: that
    // timer belongs to the previous life and is ignored when it
    // fires, so the new life must arm its own for the same instant.
    let plan = FaultPlan::new().crash_window(NodeId(0), t_ms(2), t_ms(3));
    let (mut rt, log, tapped) = solo_on_schedule(&[1_000, 5_000, 9_000], plan);
    rt.run(t_ms(12));
    assert_eq!(log.borrow().restarts, vec![t_ms(3)]);
    assert_eq!(
        submissions(&tapped.borrow()),
        vec![(0, t_ms(1)), (1, t_ms(5)), (2, t_ms(9))]
    );
}

#[test]
fn member_on_a_fast_clock_submits_every_scheduled_id() {
    // +1 %: every tick fires short of the instant it was armed for,
    // finds nothing due and re-arms for the same instant from closer
    // in. The re-arm fires elsewhere on the engine's timeline, so it
    // is not a duplicate — keyed on the instant asked for, it would
    // be dropped and the request never submitted.
    let plan = FaultPlan::new().skew_clock(NodeId(0), Time::ZERO, 10_000_000);
    let (mut rt, _, tapped) = solo_on_schedule(&[1_000, 2_000, 3_000, 4_000], plan);
    rt.run(t_ms(6));
    assert_eq!(submitted_ids(&tapped), vec![0, 1, 2, 3]);
}

#[test]
fn fixed_schedule_throttle_is_absolute_against_nominal_and_resumable() {
    let t = |n: u64| Time::ZERO + us(n);
    let mut s = FixedSchedule::new(vec![t(100), t(200), t(300), t(400)].into());
    // Half rate from 150 µs: the remaining nominal gaps (100 µs)
    // replay from now at 200 µs each.
    s.throttle(t(150), 500);
    assert_eq!(s.next_submission_after(t(150)), Some(t(350)));
    // Re-asserting the SAME rate later is a no-op — a driver doing
    // so every tick must not perpetually push the stream out.
    s.throttle(t(250), 500);
    assert_eq!(s.next_submission_after(t(250)), Some(t(350)));
    // Re-issuing a retune must NOT compound: back to nominal means
    // nominal 100 µs gaps again, not half of the stretched ones.
    s.throttle(t(360), 1000);
    assert_eq!(s.next_submission_after(t(360)), Some(t(460)));
    assert_eq!(s.next_submission_after(t(460)), Some(t(560)));
    // Pause parks the tail; a later retune revives it.
    s.throttle(t(470), 0);
    assert_eq!(s.next_submission_after(t(470)), None);
    assert_eq!(
        s.submissions_through(t(10_000)),
        3,
        "paused tail not issued"
    );
    s.throttle(t(600), 1000);
    assert_eq!(s.next_submission_after(t(600)), Some(t(700)));
}

#[test]
fn subsequence_consistency_helper() {
    let mut log = GroupLog::new(0, 0);
    log.delivered = vec![0, 2, 3];
    assert!(log.order_consistent_with(&[0, 1, 2, 3]));
    assert!(!log.order_consistent_with(&[0, 3, 2]));
}
