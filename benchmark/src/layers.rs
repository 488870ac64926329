//! One microbenchmark per storey of the stack, measured from outside
//! through public functions only. Layer names are crate/module names.
//!
//! Every timing is the first quartile of at least `Budget::min_batches` batches
//! after one warm-up batch, in host nanoseconds (or µs/ms) per
//! operation; inputs come from the seed. `hades-time` and `hades-task`
//! have no metrics of their own: their calls are inlined sub-10 ns
//! helpers or spec-time only.

use crate::measure::{rss_kb, time, Budget, Measured, Samples};
use crate::workloads::{fabric_classes, failover_spec, steady_spec, FAILOVER_GROUPS};
use hades_chaos::{ChaosFuzzer, FuzzConfig};
use hades_dispatch::{
    CostModel, DispatchSim, Notification, NotificationKind, RunQueue, SchedulerPolicy, SimConfig,
    ThreadId, ThreadSnapshot, ThreadState,
};
use hades_fabric::ring::{HashRing, ShardRouter};
use hades_fabric::PopulationWorkload;
use hades_sched::analysis::rta::{rta_feasible, RtaTask};
use hades_sched::{assign_rm, edf_feasible, EdfAnalysisConfig, EdfPolicy, Policy};
use hades_services::actors::{AgentConfig, NodeAgent};
use hades_services::group::{FixedSchedule, GroupConfig, ReplicaGroup};
use hades_services::recovery::RecoveryConfig;
use hades_services::ReplicaStyle;
use hades_sim::{
    ActorCtx, ActorEngine, ActorEvent, ActorHost, ActorId, Engine, EventId, FaultPlan, KernelModel,
    LinkConfig, NetActor, Network, NodeId, Scheduler, SimRng, Simulation,
};
use hades_task::prelude::*;
use hades_task::SpuriTask;
use hades_telemetry::monitor::Watchdog;
use hades_telemetry::{Profiler, Registry};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Sum of the weights handed to [`Budget::sample`] below; one slice is
/// the layer budget divided by this.
const TOTAL_WEIGHT: f64 = 24.0;

struct Lab {
    budget: Budget,
    seed: u64,
    /// Divides every problem size (1 at full scale, 10 with `--quick`).
    shrink: u64,
    out: Vec<Measured>,
}

/// Runs every layer microbenchmark inside roughly `total` of host time.
pub fn run(seed: u64, total: std::time::Duration, quick: bool) -> Vec<Measured> {
    let mut lab = Lab {
        budget: Budget {
            slice: total.div_f64(TOTAL_WEIGHT),
            min_batches: if quick { 3 } else { 7 },
        },
        seed,
        shrink: if quick { 10 } else { 1 },
        out: Vec::new(),
    };
    lab.engine();
    lab.net();
    lab.mux();
    lab.dispatch();
    lab.sched();
    lab.services();
    lab.cluster();
    lab.fabric();
    lab.chaos();
    lab.telemetry();
    lab.out
}

fn lan() -> LinkConfig {
    LinkConfig::reliable(us(10), us(50))
}

// ---------------------------------------------------------------- engine

/// The classic hold model: every delivered event re-posts itself a
/// random increment ahead, so the queue stays at its initial depth.
struct Hold {
    rng: SimRng,
    window_ns: u64,
}

impl Simulation for Hold {
    type Event = u64;
    fn handle(&mut self, now: Time, ev: u64, sched: &mut Scheduler<u64>) {
        let ahead = self.rng.range_inclusive(1, 2 * self.window_ns);
        sched.post(now + Duration::from_nanos(ahead), ev);
    }
}

/// A timer that cancels the id it was delivered under and re-arms: the
/// pattern that grows the engine's never-evicted `cancelled` set.
struct Rearm {
    armed: EventId,
}

impl Simulation for Rearm {
    type Event = u64;
    fn handle(&mut self, now: Time, ev: u64, sched: &mut Scheduler<u64>) {
        sched.cancel(self.armed);
        self.armed = sched.post(now + us(1), ev);
    }
}

impl Lab {
    fn engine(&mut self) {
        // Steady queue depths the profiler reports for 24/48/96 nodes.
        for (label, depth) in [("d2k", 2_000u64), ("d9k", 9_000), ("d45k", 45_000)] {
            let window_ns = depth * 1_000;
            let mut sim = Hold {
                rng: SimRng::seed_from(self.seed).split(depth),
                window_ns,
            };
            let mut engine = Engine::new();
            for i in 0..depth {
                let at = sim.rng.range_inclusive(0, window_ns);
                engine.post(Time::from_nanos(at), i);
            }
            // One event per simulated µs on average.
            let span = us(50_000 / self.shrink);
            let mut until = Time::ZERO;
            let samples = self.budget.sample(1.0, || {
                until += span;
                let (elapsed, events) = time(|| engine.run(&mut sim, until));
                (elapsed, events)
            });
            self.out
                .push(samples.metric(format!("sim.engine.hold_ns.{label}")));
        }

        // A fixed number of cycles, so the RSS growth is comparable
        // between runs.
        let mut engine = Engine::new();
        let mut sim = Rearm {
            armed: engine.post(Time::ZERO, 0),
        };
        let cycles = 100_000 / self.shrink;
        let before = rss_kb();
        let mut samples = Samples::new();
        for batch in 1..=10u64 {
            let until = Time::ZERO + us(batch * cycles);
            let (elapsed, events) = time(|| engine.run(&mut sim, until));
            samples.push(elapsed.as_nanos() as f64 / events.max(1) as f64);
        }
        let grown = rss_kb().saturating_sub(before);
        self.out.push(samples.metric("sim.engine.rearm_ns"));
        self.out
            .push(Measured::exact("sim.engine.rearm_rss_kb", grown as f64, 1));

        let mut engine = Engine::new();
        let mut rng = SimRng::seed_from(self.seed);
        for i in 0..9_000u64 {
            engine.post(Time::from_nanos(rng.below(1_000_000)), i);
        }
        let calls = 200 / self.shrink;
        let samples = self.budget.sample(0.5, || {
            let (elapsed, ()) = time(|| {
                for _ in 0..calls {
                    black_box(engine.pending());
                }
            });
            (elapsed, calls)
        });
        self.out.push(samples.metric("sim.engine.pending_ns.d9k"));
    }

    // ------------------------------------------------------------ net

    fn net(&mut self) {
        let faulted = {
            let at = |n: u64| Time::ZERO + ms(n);
            let mut plan = FaultPlan::new();
            for n in 0..8u32 {
                plan = plan.crash_window(NodeId(n), at(10 + n as u64), at(14 + n as u64));
            }
            for n in 0..16u32 {
                plan = plan.cut_link(NodeId(20 + n), NodeId(40 + n), at(5), at(30));
            }
            for n in 0..8u32 {
                plan = plan.degrade_link(NodeId(60 + n), NodeId(70 + n), at(5), at(30), us(100), 0);
            }
            plan
        };
        for (label, plan) in [("clean", FaultPlan::new()), ("faulted", faulted)] {
            let rng = SimRng::seed_from(self.seed).split(0x4E45);
            let mut net = Network::homogeneous(96, lan(), rng).with_fault_plan(plan);
            let sends = 100_000 / self.shrink;
            let mut i = 0u64;
            let samples = self.budget.sample(0.5, || {
                let (elapsed, ()) = time(|| {
                    for _ in 0..sends {
                        i += 1;
                        let from = (i % 96) as u32;
                        let to = ((i * 7 + 1 + from as u64) % 95) as u32;
                        let to = if to >= from { to + 1 } else { to };
                        // Sweeps 0–40 ms, in and out of every window.
                        let now = Time::from_nanos(i * 397 % 40_000_000);
                        black_box(net.transit(NodeId(from), NodeId(to), now));
                    }
                });
                (elapsed, sends)
            });
            self.out
                .push(samples.metric(format!("sim.net.transit_ns.{label}")));
        }
    }

    // ------------------------------------------------------------ mux

    fn mux(&mut self) {
        /// Answers a message with one send; fans a timer out to everyone.
        struct Echo {
            node: NodeId,
            peers: Rc<Vec<(ActorId, NodeId)>>,
        }
        impl NetActor for Echo {
            fn node(&self) -> NodeId {
                self.node
            }
            fn handle(&mut self, _now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
                match ev {
                    ActorEvent::Message { from, tag, payload } => {
                        ctx.send(ActorId(from.0), from, tag, payload);
                    }
                    ActorEvent::Timer { tag } => {
                        ctx.fanout(self.peers.iter().copied(), tag, 0, 1);
                    }
                    _ => {}
                }
            }
        }
        let peers: Rc<Vec<(ActorId, NodeId)>> =
            Rc::new((0..96).map(|n| (ActorId(n), NodeId(n))).collect());
        let mut host = ActorHost::new();
        for n in 0..96 {
            host.add(Box::new(Echo {
                node: NodeId(n),
                peers: peers.clone(),
            }));
        }
        let mut net = Network::homogeneous(96, lan(), SimRng::seed_from(self.seed));

        let deliveries = 50_000 / self.shrink;
        let samples = self.budget.sample(0.5, || {
            let (elapsed, ()) = time(|| {
                for i in 0..deliveries {
                    let ev = ActorEvent::Message {
                        from: NodeId(1),
                        tag: 1,
                        payload: i,
                    };
                    black_box(host.deliver(ActorId(0), ev, Time::from_nanos(i), &mut net));
                }
            });
            (elapsed, deliveries)
        });
        self.out.push(samples.metric("sim.mux.deliver_ns"));

        let fanouts = 2_000 / self.shrink;
        let samples = self.budget.sample(0.5, || {
            let (elapsed, ()) = time(|| {
                for i in 0..fanouts {
                    let ev = ActorEvent::Timer { tag: 2 };
                    black_box(host.deliver(ActorId(0), ev, Time::from_nanos(i), &mut net));
                }
            });
            (elapsed, fanouts)
        });
        self.out.push(samples.metric("sim.mux.fanout_ns.n96"));
    }

    // ------------------------------------------------------- dispatch

    /// `DispatchSim` alone: 8 nodes × 3 periodic tasks under measured
    /// costs; host ns per completed job. The growth figures divide the
    /// cost per job of a 4× longer horizon by the short one's: 1.0 means
    /// per-job cost does not depend on how long the simulation has run.
    fn dispatch(&mut self) {
        let short = ms(100 / self.shrink);
        let long = short.saturating_mul(4);
        let seed = self.seed;
        let run = |policy: Policy, horizon: Duration| {
            let mut tasks = Vec::new();
            for node in 0..8u32 {
                for (k, (wcet, period)) in [(50, 1_000), (100, 2_000), (200, 5_000)]
                    .into_iter()
                    .enumerate()
                {
                    let eu = CodeEu::new(format!("t{k}@{node}"), us(wcet), ProcessorId(node));
                    tasks.push(Task::new(
                        TaskId(node * 3 + k as u32),
                        Heug::single(eu).expect("single-unit HEUG"),
                        ArrivalLaw::Periodic(us(period)),
                        us(period),
                    ));
                }
            }
            if policy == Policy::RateMonotonic {
                assign_rm(&mut tasks);
            }
            let mut cfg = SimConfig::ideal(horizon);
            cfg.costs = CostModel::measured_default();
            cfg.seed = seed;
            cfg.trace = false;
            let mut sim = DispatchSim::new(TaskSet::new(tasks).expect("valid task set"), cfg);
            if policy == Policy::Edf {
                for node in 0..8 {
                    sim.set_policy(node, Box::new(EdfPolicy::new()));
                }
            }
            let (elapsed, report) = time(|| sim.run());
            assert!(
                report.all_deadlines_met(),
                "dispatch bench load is feasible"
            );
            (elapsed, report.instances.len() as u64)
        };
        for (label, policy) in [("fixed", Policy::RateMonotonic), ("edf", Policy::Edf)] {
            let (at_short, at_long) =
                self.budget
                    .sample_pair(2.5, || run(policy, short), || run(policy, long));
            let growth = at_long.typical() / at_short.typical();
            self.out
                .push(at_short.metric(format!("dispatch.job_ns.{label}")));
            self.out.push(Measured::exact(
                format!("dispatch.{label}_growth_x"),
                growth,
                at_short.len() + at_long.len(),
            ));
        }

        let mut queue = RunQueue::new();
        let mut rng = SimRng::seed_from(self.seed);
        for t in 0..64 {
            queue.insert(
                ThreadId(t),
                Priority::new(rng.below(1_000) as u32),
                Time::ZERO,
            );
        }
        let cycles = 20_000 / self.shrink;
        let samples = self.budget.sample(0.3, || {
            let (elapsed, ()) = time(|| {
                for i in 0..cycles {
                    let best = queue.peek_best().expect("queue is never empty");
                    queue.remove(best);
                    let prio = Priority::new(rng.below(1_000) as u32);
                    queue.insert(best, prio, Time::from_nanos(i));
                }
            });
            (elapsed, cycles)
        });
        self.out.push(samples.metric("dispatch.runq_ns.q64"));
    }

    // ---------------------------------------------------------- sched

    fn sched(&mut self) {
        let mut rng = SimRng::seed_from(self.seed);
        let notification = Notification {
            kind: NotificationKind::Atv,
            thread: ThreadId(0),
            at: Time::ZERO,
        };
        for live in [8u64, 64] {
            // Every priority is stale: the policy's worst case, one
            // dispatcher primitive per live thread.
            let snapshots: Vec<ThreadSnapshot> = (0..live)
                .map(|t| ThreadSnapshot {
                    thread: ThreadId(t),
                    task: TaskId(t as u32),
                    prio: Priority::new(0),
                    abs_deadline: Time::from_nanos(rng.below(10_000_000)),
                    earliest: Time::ZERO,
                    activation: Time::ZERO,
                    wcet: us(10),
                    started: false,
                    first_run: None,
                    state: ThreadState::Runnable,
                })
                .collect();
            let mut policy = EdfPolicy::new();
            let calls = 10_000 / self.shrink;
            let samples = self.budget.sample(0.3, || {
                let (elapsed, ()) = time(|| {
                    for _ in 0..calls {
                        black_box(policy.on_notification(&notification, black_box(&snapshots)));
                    }
                });
                (elapsed, calls)
            });
            self.out
                .push(samples.metric(format!("sched.edf_notify_ns.l{live}")));
        }

        // 20 tasks at ~60 % utilization, harmonic-free periods.
        let spuri: Vec<SpuriTask> = (0..20u32)
            .map(|i| {
                let period = us(1_000 + 450 * i as u64);
                let c = Duration::from_nanos(period.as_nanos() * 3 / 100);
                SpuriTask::independent(TaskId(i), format!("t{i}"), c, period, period)
            })
            .collect();
        let cfg = EdfAnalysisConfig::with_platform(
            CostModel::measured_default(),
            KernelModel::chorus_like(),
        );
        let calls = 20 / self.shrink.min(4);
        let samples = self.budget.sample(0.3, || {
            let (elapsed, ()) = time(|| {
                for _ in 0..calls {
                    black_box(edf_feasible(black_box(&spuri), &cfg));
                }
            });
            (elapsed, calls)
        });
        self.out
            .push(samples.scaled(1e-3).metric("sched.edf_feasible_us.t20"));

        let rta: Vec<RtaTask> = spuri
            .iter()
            .map(|t| RtaTask {
                c: t.total_c(),
                period: t.pseudo_period,
                deadline: t.deadline,
                blocking: Duration::ZERO,
            })
            .collect();
        let (costs, kernel) = (CostModel::measured_default(), KernelModel::chorus_like());
        let samples = self.budget.sample(0.3, || {
            let (elapsed, ()) = time(|| {
                for _ in 0..calls {
                    black_box(rta_feasible(black_box(&rta), &costs, &kernel));
                }
            });
            (elapsed, calls)
        });
        self.out
            .push(samples.scaled(1e-3).metric("sched.rta_feasible_us.t20"));
    }

    // ------------------------------------------------------- services

    fn agent_config(node: u32, nodes: u32, recovery: RecoveryConfig) -> AgentConfig {
        // The cluster runtime's defaults (`MiddlewareConfig::default()`).
        AgentConfig {
            node: NodeId(node),
            nodes,
            heartbeat_period: ms(2),
            clock_precision: us(10),
            f: 1,
            recovery,
            vc_delta_multicast: true,
            vc_attempts: 1,
        }
    }

    /// Healthy `NodeAgent`s under `ActorEngine`: one batch, counted in
    /// engine events.
    fn agents(&self, nodes: u32, horizon: Duration) -> (std::time::Duration, u64) {
        let net = Network::homogeneous(nodes, lan(), SimRng::seed_from(self.seed));
        let mut rt = ActorEngine::new(net);
        for n in 0..nodes {
            let (agent, _log) =
                NodeAgent::new(Self::agent_config(n, nodes, RecoveryConfig::default()));
            rt.add_actor(Box::new(agent));
        }
        time(|| rt.run(Time::ZERO + horizon))
    }

    fn services(&mut self) {
        let short = ms(100 / self.shrink);
        let long = short.saturating_mul(4);
        let (n24, n24_long) =
            self.budget
                .sample_pair(1.5, || self.agents(24, short), || self.agents(24, long));
        let n96 = self
            .budget
            .sample(1.0, || self.agents(96, ms(20 / self.shrink.min(4))));
        let growth = n24_long.typical() / n24.typical();
        self.out.push(n24.metric("services.agent_event_ns.n24"));
        self.out.push(n96.metric("services.agent_event_ns.n96"));
        self.out.push(Measured::exact(
            "services.agent_growth_x",
            growth,
            n24.len() + n24_long.len(),
        ));

        // Three members with their agents, an open-loop schedule of
        // requests 250 µs apart: host µs per client request.
        let requests = 2_000 / self.shrink;
        let styles = [
            ("semi", ReplicaStyle::SemiActive),
            ("active", ReplicaStyle::Active),
            (
                "passive",
                ReplicaStyle::Passive {
                    checkpoint_every: 5,
                },
            ),
        ];
        for (label, style) in styles {
            let mut msgs_per_request = 0.0;
            let samples = self.budget.sample(0.5, || {
                let net = Network::homogeneous(3, lan(), SimRng::seed_from(self.seed));
                let mut rt = ActorEngine::new(net);
                let views: Vec<_> = (0..3)
                    .map(|n| {
                        let (agent, log) =
                            NodeAgent::new(Self::agent_config(n, 3, RecoveryConfig::default()));
                        rt.add_actor(Box::new(agent));
                        log
                    })
                    .collect();
                let first = Time::ZERO + ms(1);
                let times = (0..requests).map(|k| first + us(250 * k)).collect();
                let source = Rc::new(RefCell::new(FixedSchedule::new(times)));
                let peers: Vec<(u32, ActorId)> = (0..3).map(|n| (n, ActorId(3 + n))).collect();
                let logs: Vec<_> = (0..3u32)
                    .map(|n| {
                        let cfg = GroupConfig {
                            group: 0,
                            node: NodeId(n),
                            members: vec![0, 1, 2],
                            style,
                            request_period: us(250),
                            first_request_at: first,
                            source: Some(source.clone()),
                            delta: us(60),
                            attempts: 1,
                            peers: peers.clone(),
                        };
                        let (member, log) = ReplicaGroup::new(cfg, Some(views[n as usize].clone()));
                        rt.add_actor(Box::new(member));
                        log
                    })
                    .collect();
                let (elapsed, _) = time(|| rt.run(first + us(250 * requests) + ms(1)));
                let delivered = logs[0].borrow().delivered.len() as u64;
                assert_eq!(delivered, requests, "every request is delivered");
                let sent: u64 = logs.iter().map(|l| l.borrow().messages_sent).sum();
                msgs_per_request = sent as f64 / requests as f64;
                (elapsed, requests)
            });
            self.out.push(
                samples
                    .scaled(1e-3)
                    .metric(format!("services.group_request_us.{label}")),
            );
            if label == "semi" {
                self.out.push(Measured::exact(
                    "services.group_msgs_per_request.semi",
                    msgs_per_request,
                    samples.len(),
                ));
            }
        }

        // One crash → restart → state transfer of a 1 MiB checkpoint
        // (750 chunks) among four agents: host µs per chunk shipped.
        let recovery = RecoveryConfig {
            checkpoint_bytes: 1 << 20,
            ..RecoveryConfig::default()
        };
        let samples = self.budget.sample(0.5, || {
            let plan =
                FaultPlan::new().crash_window(NodeId(2), Time::ZERO + ms(5), Time::ZERO + ms(12));
            let net =
                Network::homogeneous(4, lan(), SimRng::seed_from(self.seed)).with_fault_plan(plan);
            let mut rt = ActorEngine::new(net);
            let logs: Vec<_> = (0..4)
                .map(|n| {
                    let (agent, log) = NodeAgent::new(Self::agent_config(n, 4, recovery));
                    rt.add_actor(Box::new(agent));
                    log
                })
                .collect();
            let (elapsed, _) = time(|| rt.run(Time::ZERO + ms(40)));
            assert_eq!(logs[2].borrow().rejoins.len(), 1, "node 2 rejoined");
            let chunks: u64 = logs.iter().map(|l| l.borrow().chunks_sent).sum();
            (elapsed, chunks)
        });
        self.out
            .push(samples.scaled(1e-3).metric("services.rejoin_us_per_chunk"));
    }

    // -------------------------------------------------------- cluster

    fn cluster(&mut self) {
        let quick = self.shrink > 1;
        let seed = self.seed;
        for label in ["n24", "n96"] {
            let samples = self.budget.sample(0.3, || {
                let spec = match label {
                    "n24" => steady_spec(Policy::Edf, seed, quick),
                    _ => failover_spec(96, FAILOVER_GROUPS, seed, quick),
                };
                let (elapsed, result) = time(|| spec.validate());
                result.expect("benchmark spec validates");
                (elapsed, 1)
            });
            self.out.push(
                samples
                    .scaled(1e-3)
                    .metric(format!("cluster.validate_us.{label}")),
            );
        }

        // The same 24-node, three-group, one-cycle failover spec bare and
        // with each observer, in rounds that rotate the order; the
        // quartiles pair every run against its round's bare run.
        let variants = ["watchdog", "telemetry", "profiler"];
        let run = |variant: Option<&str>| {
            let spec = failover_spec(24, 3, seed, true);
            let spec = match variant {
                Some("watchdog") => spec.monitors(Watchdog::standard()),
                Some("telemetry") => spec.telemetry(Registry::enabled()),
                Some("profiler") => spec.profile(Profiler::enabled()),
                _ => spec,
            };
            let (elapsed, result) = time(|| spec.run());
            black_box(result.expect("benchmark spec runs"));
            elapsed.as_secs_f64()
        };
        run(None);
        // walls[0] is the bare spec, walls[1..] the variants.
        let mut walls: [Samples; 4] = Default::default();
        let limit = self.budget.slice.mul_f64(3.0);
        let start = Instant::now();
        let mut round = 0;
        while round < self.budget.min_batches || start.elapsed() < limit {
            for k in 0..4 {
                let slot = (k + round) % 4;
                walls[slot].push(run(slot.checked_sub(1).map(|v| variants[v])));
            }
            round += 1;
        }
        let pct = |with: f64, bare: f64| (with - bare) * 100.0 / bare;
        for (variant, with) in variants.iter().zip(&walls[1..]) {
            let mut paired = Samples::new();
            for (w, bare) in with.iter().zip(walls[0].iter()) {
                paired.push(pct(w, bare));
            }
            self.out.push(Measured {
                value: pct(with.typical(), walls[0].typical()),
                ..paired.metric(format!("cluster.{variant}_overhead_pct"))
            });
        }
    }

    // --------------------------------------------------------- fabric

    fn fabric(&mut self) {
        let horizon = ms(1_000 / self.shrink);
        for (label, class) in ["poisson", "bursty", "ramp"]
            .into_iter()
            .zip(fabric_classes())
        {
            let stream = PopulationWorkload::new(class, self.seed);
            let samples = self.budget.sample(0.3, || {
                let (elapsed, events) = time(|| stream.events(horizon));
                (elapsed, black_box(events).len() as u64)
            });
            self.out
                .push(samples.metric(format!("fabric.gen_ns_per_request.{label}")));
        }

        let router = ShardRouter::new(64, HashRing::new(8, 16));
        let keys = 100_000 / self.shrink;
        let mut key = self.seed;
        let samples = self.budget.sample(0.3, || {
            let (elapsed, ()) = time(|| {
                for _ in 0..keys {
                    key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                    black_box(router.home(router.shard_of(key)));
                }
            });
            (elapsed, keys)
        });
        self.out.push(samples.metric("fabric.route_ns"));

        let samples = self.budget.sample(0.3, || {
            let (elapsed, ring) = time(|| HashRing::new(8, 64));
            black_box(ring);
            (elapsed, 1)
        });
        self.out
            .push(samples.scaled(1e-3).metric("fabric.ring_build_us.v64"));
    }

    // ---------------------------------------------------------- chaos

    /// A fixed number of programs against the standard 8-node target at
    /// a 30 ms horizon: generation cost, per-program run-time percentiles
    /// (10 samples beyond p90) and the exact violating-program count.
    fn chaos(&mut self) {
        let cfg = FuzzConfig {
            nodes: 8,
            horizon: ms(30),
            spec_seed: self.seed,
            ..FuzzConfig::default()
        };
        let programs = 100 / self.shrink;
        let mut generated = Vec::new();
        let samples = self.budget.sample(0.2, || {
            let mut fuzzer = ChaosFuzzer::standard(cfg.clone(), self.seed);
            let (elapsed, batch) = time(|| (0..programs).map(|_| fuzzer.generate()).collect());
            generated = batch;
            (elapsed, programs)
        });
        self.out
            .push(samples.scaled(1e-3).metric("chaos.generate_us"));
        let fuzzer = ChaosFuzzer::standard(cfg, self.seed);

        fuzzer.violations_of(&generated[0]);
        let mut walls = Vec::new();
        let mut violating = 0u64;
        for program in &generated {
            let (elapsed, violations) = time(|| fuzzer.violations_of(program));
            walls.push(elapsed.as_nanos() as u64);
            violating += u64::from(!violations.is_empty());
        }
        walls.sort_unstable();
        for (label, permille) in [("p50", 500), ("p90", 900)] {
            let ns = crate::measure::percentile(&walls, permille);
            self.out.push(Measured::exact(
                format!("chaos.program_ms.{label}"),
                ns as f64 * 1e-6,
                walls.len(),
            ));
        }
        self.out.push(Measured::exact(
            "chaos.violating_programs",
            violating as f64,
            walls.len(),
        ));
    }

    // ------------------------------------------------------ telemetry

    fn telemetry(&mut self) {
        let ops = 100_000 / self.shrink;
        for (label, registry) in [("on", Registry::enabled()), ("off", Registry::disabled())] {
            let counter = registry.counter("bench.counter");
            let samples = self.budget.sample(0.2, || {
                let (elapsed, ()) = time(|| {
                    for _ in 0..ops {
                        black_box(&counter).incr();
                    }
                });
                (elapsed, ops)
            });
            self.out
                .push(samples.metric(format!("telemetry.counter_incr_ns.{label}")));
        }

        let samples = self.budget.sample(0.2, || {
            let histogram = Registry::enabled().histogram("bench.histogram");
            let (elapsed, ()) = time(|| {
                for i in 0..ops {
                    black_box(&histogram).record(i);
                }
            });
            (elapsed, ops)
        });
        self.out
            .push(samples.metric("telemetry.histogram_record_ns"));

        // 50 counters and 10 histograms of 1000 samples: the size of a
        // cluster run's registry.
        let registry = Registry::enabled();
        for i in 0..50 {
            registry.counter(&format!("bench.c{i}")).add(i);
        }
        for i in 0..10 {
            let histogram = registry.histogram(&format!("bench.h{i}"));
            for v in 0..1_000 {
                histogram.record(v * 7 % 1_000);
            }
        }
        let samples = self.budget.sample(0.2, || {
            let (elapsed, snapshot) = time(|| registry.snapshot());
            black_box(snapshot);
            (elapsed, 1)
        });
        self.out
            .push(samples.scaled(1e-3).metric("telemetry.snapshot_us"));

        let profiler = Profiler::enabled();
        let samples = self.budget.sample(0.2, || {
            let (elapsed, ()) = time(|| {
                for i in 0..ops {
                    black_box(&profiler).tick(i * 1_000, i % 64);
                }
            });
            (elapsed, ops)
        });
        self.out.push(samples.metric("telemetry.profiler_tick_ns"));
    }
}
