use super::*;
use crate::fault::FaultPlan;
use crate::net::LinkConfig;
use crate::rng::SimRng;

/// Every actor broadcasts one message at start; receivers count.
struct Counter {
    node: NodeId,
    peers: u32,
    got: std::rc::Rc<std::cell::RefCell<Vec<(u32, Time)>>>,
}

impl NetActor for Counter {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
        match ev {
            ActorEvent::Start => {
                for p in 0..self.peers {
                    if NodeId(p) != self.node {
                        ctx.send(ActorId(p), NodeId(p), 1, self.node.0 as u64);
                    }
                }
            }
            ActorEvent::Message { from, .. } => {
                self.got.borrow_mut().push((from.0, now));
            }
            ActorEvent::Timer { .. } | ActorEvent::Restart | ActorEvent::Notify { .. } => {}
        }
    }
}

fn rc_log() -> std::rc::Rc<std::cell::RefCell<Vec<(u32, Time)>>> {
    std::rc::Rc::new(std::cell::RefCell::new(Vec::new()))
}

#[test]
fn actors_exchange_messages_over_shared_network() {
    let net = Network::homogeneous(
        3,
        LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(10)),
        SimRng::seed_from(3),
    );
    let mut rt = ActorEngine::new(net);
    let logs: Vec<_> = (0..3).map(|_| rc_log()).collect();
    for n in 0..3u32 {
        rt.add_actor(Box::new(Counter {
            node: NodeId(n),
            peers: 3,
            got: logs[n as usize].clone(),
        }));
    }
    rt.run(Time::ZERO + Duration::from_millis(1));
    for (n, log) in logs.iter().enumerate() {
        let senders: Vec<u32> = {
            let mut v: Vec<u32> = log.borrow().iter().map(|(s, _)| *s).collect();
            v.sort_unstable();
            v
        };
        let expected: Vec<u32> = (0..3).filter(|x| *x != n as u32).collect();
        assert_eq!(senders, expected, "node {n} heard everyone else");
    }
    assert_eq!(rt.network().stats().sent, 6);
}

#[test]
fn crashed_nodes_neither_send_nor_receive() {
    let plan = FaultPlan::new().crash_at(NodeId(1), Time::ZERO);
    let net = Network::homogeneous(
        3,
        LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(10)),
        SimRng::seed_from(3),
    )
    .with_fault_plan(plan);
    let mut rt = ActorEngine::new(net);
    let logs: Vec<_> = (0..3).map(|_| rc_log()).collect();
    for n in 0..3u32 {
        rt.add_actor(Box::new(Counter {
            node: NodeId(n),
            peers: 3,
            got: logs[n as usize].clone(),
        }));
    }
    rt.run(Time::ZERO + Duration::from_millis(1));
    assert!(logs[1].borrow().is_empty(), "dead node receives nothing");
    for n in [0usize, 2] {
        let senders: Vec<u32> = logs[n].borrow().iter().map(|(s, _)| *s).collect();
        assert_eq!(senders, vec![2 - n as u32], "only the other live node");
    }
}

#[test]
fn restarted_node_resumes_sending_and_receiving() {
    /// Node 0 pings node 1 every 100 µs; node 1 counts what it hears
    /// and records its own restarts.
    struct Beeper {
        node: NodeId,
        got: std::rc::Rc<std::cell::RefCell<Vec<(u32, Time)>>>,
    }
    impl NetActor for Beeper {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
            match ev {
                ActorEvent::Start | ActorEvent::Timer { .. } if self.node == NodeId(0) => {
                    ctx.send(ActorId(1), NodeId(1), 1, 0);
                    ctx.timer_after(Duration::from_micros(100), 0);
                }
                ActorEvent::Restart => self.got.borrow_mut().push((u32::MAX, now)),
                ActorEvent::Message { from, .. } => self.got.borrow_mut().push((from.0, now)),
                _ => {}
            }
        }
    }
    let down = Time::ZERO + Duration::from_millis(1);
    let up = Time::ZERO + Duration::from_millis(2);
    let plan = FaultPlan::new().crash_window(NodeId(1), down, up);
    let net = Network::homogeneous(
        2,
        LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(10)),
        SimRng::seed_from(4),
    )
    .with_fault_plan(plan);
    let mut rt = ActorEngine::new(net);
    let logs: Vec<_> = (0..2).map(|_| rc_log()).collect();
    for n in 0..2u32 {
        rt.add_actor(Box::new(Beeper {
            node: NodeId(n),
            got: logs[n as usize].clone(),
        }));
    }
    rt.run(Time::ZERO + Duration::from_millis(3));
    let got = logs[1].borrow();
    assert!(
        got.iter().any(|(s, t)| *s == 0 && *t < down),
        "heard pings before the crash"
    );
    assert!(
        got.iter().all(|(_, t)| *t < down || *t >= up),
        "nothing delivered while down"
    );
    assert_eq!(
        got.iter().find(|(s, _)| *s == u32::MAX).map(|(_, t)| *t),
        Some(up),
        "restart event at the window end"
    );
    assert!(
        got.iter().any(|(s, t)| *s == 0 && *t > up),
        "pings resume after restart: the links came back live"
    );
}

#[test]
fn fanout_reaches_every_target_and_masks_omissions() {
    /// Node 0 fans one message out to everyone at start; peers count.
    struct Blaster {
        node: NodeId,
        peers: u32,
        got: std::rc::Rc<std::cell::RefCell<Vec<(u32, Time)>>>,
    }
    impl NetActor for Blaster {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
            match ev {
                ActorEvent::Start if self.node == NodeId(0) => {
                    let targets: Vec<_> =
                        (0..self.peers).map(|p| (ActorId(p), NodeId(p))).collect();
                    // Self is skipped even when listed; 8 attempts mask
                    // the 30% per-link omission rate.
                    let accepted = ctx.fanout(targets, 9, 77, 8);
                    assert_eq!(accepted, self.peers - 1);
                }
                ActorEvent::Message { from, .. } => {
                    self.got.borrow_mut().push((from.0, now));
                }
                _ => {}
            }
        }
    }
    let net = Network::homogeneous(
        4,
        LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(10))
            .with_omissions(300),
        SimRng::seed_from(11),
    );
    let mut rt = ActorEngine::new(net);
    let logs: Vec<_> = (0..4).map(|_| rc_log()).collect();
    for n in 0..4u32 {
        rt.add_actor(Box::new(Blaster {
            node: NodeId(n),
            peers: 4,
            got: logs[n as usize].clone(),
        }));
    }
    rt.run(Time::ZERO + Duration::from_millis(1));
    assert!(logs[0].borrow().is_empty(), "no self-delivery");
    for (n, log) in logs.iter().enumerate().skip(1) {
        assert_eq!(log.borrow().len(), 1, "node {n} got exactly one copy");
    }
}

#[test]
fn consecutive_copies_of_one_event_are_staged_once() {
    /// Two broadcast words to the three peers, then a timer.
    struct Proposer;
    impl NetActor for Proposer {
        fn node(&self) -> NodeId {
            NodeId(0)
        }
        fn handle(&mut self, _: Time, _: ActorEvent, ctx: &mut ActorCtx<'_>) {
            for word in [5, 6] {
                let peers = (1..4).map(|p| (ActorId(p), NodeId(p)));
                assert_eq!(ctx.fanout(peers, 2, word, 1), 3);
            }
            ctx.timer_after(Duration::from_micros(1), 0);
        }
    }
    let mut net = Network::homogeneous(4, LinkConfig::default(), SimRng::seed_from(3));
    let mut host = ActorHost::new();
    host.add(Box::new(Proposer));
    let reactions = host.deliver_ordered(40, ActorId(0), ActorEvent::Start, Time::ZERO, &mut net);
    assert_eq!(reactions.seqs, 7);
    let message = |payload| ActorEvent::Message {
        from: NodeId(0),
        tag: 2,
        payload,
    };
    let staged = &reactions.posts;
    assert_eq!(
        staged.events,
        [
            (ActorId(1), message(5)),
            (ActorId(1), message(6)),
            (ActorId(0), ActorEvent::Timer { tag: 0 }),
        ],
        "each event once, as its first copy"
    );
    let copies: Vec<_> = staged
        .copies
        .iter()
        .map(|&(_, seq, to, event)| (seq, to, event))
        .collect();
    assert_eq!(
        copies,
        [
            (40, 1, 0),
            (41, 2, 0),
            (42, 3, 0),
            (43, 1, 1),
            (44, 2, 1),
            (45, 3, 1),
            (46, 0, 2)
        ]
    );
}

#[test]
fn runtime_control_op_injects_a_crash_window_into_a_running_engine() {
    /// Node 0 pings node 1 every 100 µs and, at start, injects a
    /// crash window [1 ms, 2 ms) for node 1 through the control
    /// path — no pre-scripted fault plan at all.
    struct Chaos {
        node: NodeId,
        got: std::rc::Rc<std::cell::RefCell<Vec<(u32, Time)>>>,
    }
    impl NetActor for Chaos {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
            match ev {
                ActorEvent::Start if self.node == NodeId(0) => {
                    ctx.control(ControlOp::Fault(FaultOp::Crash {
                        node: 1,
                        at: Time::ZERO + Duration::from_millis(1),
                        until: Some(Time::ZERO + Duration::from_millis(2)),
                    }));
                    ctx.send(ActorId(1), NodeId(1), 1, 0);
                    ctx.timer_after(Duration::from_micros(100), 0);
                }
                ActorEvent::Timer { .. } if self.node == NodeId(0) => {
                    ctx.send(ActorId(1), NodeId(1), 1, 0);
                    ctx.timer_after(Duration::from_micros(100), 0);
                }
                ActorEvent::Restart => self.got.borrow_mut().push((u32::MAX, now)),
                ActorEvent::Message { from, .. } => {
                    self.got.borrow_mut().push((from.0, now));
                }
                _ => {}
            }
        }
    }
    let down = Time::ZERO + Duration::from_millis(1);
    let up = Time::ZERO + Duration::from_millis(2);
    let net = Network::homogeneous(
        2,
        LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(10)),
        SimRng::seed_from(4),
    );
    let mut rt = ActorEngine::new(net);
    let logs: Vec<_> = (0..2).map(|_| rc_log()).collect();
    for n in 0..2u32 {
        rt.add_actor(Box::new(Chaos {
            node: NodeId(n),
            got: logs[n as usize].clone(),
        }));
    }
    rt.run(Time::ZERO + Duration::from_millis(3));
    let got = logs[1].borrow();
    assert!(got.iter().any(|(s, t)| *s == 0 && *t < down));
    assert!(
        got.iter().all(|(_, t)| *t < down || *t >= up),
        "the injected window silenced the node"
    );
    assert_eq!(
        got.iter().find(|(s, _)| *s == u32::MAX).map(|(_, t)| *t),
        Some(up),
        "the injected restart woke the node's actor"
    );
    assert!(got.iter().any(|(s, t)| *s == 0 && *t > up));
}

#[test]
fn postbox_wakes_the_requested_actor_at_the_current_instant() {
    /// Node 0's message handler drops a wake request for actor 1 into
    /// the postbox (standing in for an event tap); actor 1 must see
    /// the Notify at the same virtual instant.
    struct Tapped {
        node: NodeId,
        postbox: Postbox,
        got: std::rc::Rc<std::cell::RefCell<Vec<(u32, Time)>>>,
    }
    impl NetActor for Tapped {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
            match ev {
                ActorEvent::Start if self.node == NodeId(0) => {
                    ctx.send(ActorId(1), NodeId(1), 1, 0);
                }
                ActorEvent::Message { .. } => {
                    self.postbox.notify(ActorId(0), 7);
                    self.got.borrow_mut().push((0, now));
                }
                ActorEvent::Notify { tag } => {
                    self.got.borrow_mut().push((tag as u32, now));
                }
                _ => {}
            }
        }
    }
    let net = Network::homogeneous(
        2,
        LinkConfig::reliable(Duration::from_micros(5), Duration::from_micros(10)),
        SimRng::seed_from(2),
    );
    let mut rt = ActorEngine::new(net);
    let postbox = rt.postbox();
    let logs: Vec<_> = (0..2).map(|_| rc_log()).collect();
    for n in 0..2u32 {
        rt.add_actor(Box::new(Tapped {
            node: NodeId(n),
            postbox: postbox.clone(),
            got: logs[n as usize].clone(),
        }));
    }
    rt.run(Time::ZERO + Duration::from_millis(1));
    let trigger = logs[1].borrow()[0].1;
    assert_eq!(
        *logs[0].borrow(),
        vec![(7, trigger)],
        "the wake arrived at the triggering event's instant"
    );
}

#[test]
fn timers_fire_in_order_and_deterministically() {
    struct Ticker {
        fired: std::rc::Rc<std::cell::RefCell<Vec<(u32, Time)>>>,
    }
    impl NetActor for Ticker {
        fn node(&self) -> NodeId {
            NodeId(0)
        }
        fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
            match ev {
                ActorEvent::Start => {
                    ctx.timer_after(Duration::from_micros(20), 2);
                    ctx.timer_after(Duration::from_micros(10), 1);
                }
                ActorEvent::Timer { tag } => self.fired.borrow_mut().push((tag as u32, now)),
                ActorEvent::Message { .. } | ActorEvent::Restart | ActorEvent::Notify { .. } => {}
            }
        }
    }
    let run = || {
        let net = Network::homogeneous(2, LinkConfig::default(), SimRng::seed_from(9));
        let mut rt = ActorEngine::new(net);
        let log = rc_log();
        rt.add_actor(Box::new(Ticker { fired: log.clone() }));
        rt.run(Time::ZERO + Duration::from_millis(1));
        let v = log.borrow().clone();
        v
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same history");
    assert_eq!(a.len(), 2);
    assert_eq!(a[0].0, 1);
    assert_eq!(a[1].0, 2);
}

#[test]
fn a_timer_queued_late_in_a_reserved_place_fires_where_the_eager_one_did() {
    // Two actors on one node arm timers for the same instants, so every
    // fire is a tie broken by the order seq. Actor 0 arms its 50 µs
    // timer at Start (eager) or only reserves the place there and
    // queues the timer from its 20 µs one (lazy): same delivery log.
    type Log = std::rc::Rc<std::cell::RefCell<Vec<(u32, u64, Time)>>>;
    struct Tied {
        id: u32,
        eager: bool,
        place: Option<Place>,
        log: Log,
    }
    impl NetActor for Tied {
        fn node(&self) -> NodeId {
            NodeId(0)
        }
        fn handle(&mut self, now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
            let at = |n| Time::ZERO + Duration::from_micros(n);
            match ev {
                ActorEvent::Start => {
                    ctx.timer_at(at(50), 10);
                    if self.id == 0 && self.eager {
                        ctx.timer_at(at(50), 11);
                    } else if self.id == 0 {
                        self.place = Some(ctx.reserve(at(50)));
                    }
                    ctx.timer_at(at(20), 12);
                    ctx.timer_at(at(50), 13);
                }
                ActorEvent::Timer { tag } => {
                    self.log.borrow_mut().push((self.id, tag, now));
                    if tag == 12 && self.id == 0 {
                        ctx.timer_at(at(50), 14); // a later seq, same instant
                        if let Some(place) = self.place.take() {
                            ctx.timer_in(place, 11);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let run = |eager: bool| {
        let net = Network::homogeneous(2, LinkConfig::default(), SimRng::seed_from(9));
        let mut rt = ActorEngine::new(net);
        let log = Log::default();
        for id in 0..2 {
            rt.add_actor(Box::new(Tied {
                id,
                eager,
                place: None,
                log: log.clone(),
            }));
        }
        rt.run(Time::ZERO + Duration::from_millis(1));
        let fired = log.borrow().clone();
        fired
    };
    let eager = run(true);
    assert_eq!(eager, run(false));
    let at_50: Vec<(u32, u64)> = eager
        .iter()
        .filter(|(_, _, t)| *t == Time::ZERO + Duration::from_micros(50))
        .map(|&(id, tag, _)| (id, tag))
        .collect();
    assert_eq!(
        at_50,
        [(0, 10), (0, 11), (0, 13), (1, 10), (1, 13), (0, 14)],
        "tag 11 fires in the place taken at Start, not where it was queued"
    );
}

/// Two [`Counter`]s pinging each other over a 2-node network, under
/// `probe`; returns the delivered count and what each actor heard.
fn probed_exchange(probe: Probe) -> (u64, Vec<(u32, Time)>) {
    let net = Network::homogeneous(2, LinkConfig::default(), SimRng::seed_from(3));
    let mut rt = ActorEngine::new(net);
    rt.set_probe(probe);
    let log = rc_log();
    for n in 0..2 {
        rt.add_actor(Box::new(Counter {
            node: NodeId(n),
            peers: 2,
            got: log.clone(),
        }));
    }
    let delivered = rt.run(Time::ZERO + Duration::from_millis(5));
    let heard = log.borrow().clone();
    (delivered, heard)
}

fn ping_namer(label: &str, tag: u64) -> Option<String> {
    (label == "actor" && tag == 1).then(|| "ping".to_string())
}

#[test]
fn actor_probe_breaks_deliveries_down_by_kind() {
    let registry = hades_telemetry::Registry::enabled();
    let profiler = hades_telemetry::Profiler::disabled();
    let probe = Probe::new(&registry, &profiler, ping_namer, |_, _, _| false);
    let (delivered, _) = probed_exchange(probe);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("actors.start_events"), Some(2));
    assert_eq!(snap.counter("actors.message_events"), Some(2));
    assert_eq!(snap.counter("engine.events"), Some(delivered));
    assert!(snap.gauge("engine.queue_depth_peak").unwrap_or(0) >= 2);
    // The namer given at construction names the send counters.
    assert_eq!(snap.counter("net.msgs.ping"), Some(2));
    assert_eq!(snap.counter("net.msgs.total"), Some(2));
}

#[test]
fn telemetry_probe_adds_zero_events_and_preserves_order() {
    // Regression for the near-zero-cost guarantee: a run observed by
    // an enabled registry and profiler delivers exactly the same
    // events in the same order at the same times as a bare one.
    let registry = hades_telemetry::Registry::enabled();
    let profiler = hades_telemetry::Profiler::enabled();
    let bare = probed_exchange(Probe::default());
    let probed = probed_exchange(Probe::new(&registry, &profiler, ping_namer, |_, _, _| {
        false
    }));
    assert_eq!(bare, probed);
    assert_eq!(
        registry.snapshot().counter("engine.events"),
        Some(bare.0),
        "probe observed the run instead of altering it"
    );
    // ActorEngine feeds ticks, deliveries and sends — no kind rows.
    let report = profiler.report();
    assert_eq!(report.total_events, bare.0);
    assert!(report.kinds.is_empty());
    assert_eq!(report.actors.iter().map(|a| a.events).sum::<u64>(), 4);
    assert_eq!(report.traffic.iter().map(|t| t.msgs).sum::<u64>(), 2);
}
