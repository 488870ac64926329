//! Property-based tests on the core invariants of the HADES stack.

use proptest::prelude::*;

use hades::prelude::*;
use hades_dispatch::RunQueue;
use hades_dispatch::ThreadId;
use hades_sched::spring::{SpringHeuristic, SpringRequest};
use hades_services::group::{FixedSchedule, RequestSource};
use hades_services::{BroadcastSim, ConsensusConfig, FloodConsensus, StableStore};
use hades_sim::SimRng;
use hades_time::fault_tolerant_midpoint;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// The open-loop source as two full vectors: the nominal schedule and
/// the effective one, whose whole tail each retune rewrites. The cursor
/// of [`FixedSchedule`] must answer every query exactly as this does.
struct TwoVectorSchedule {
    nominal: Vec<Time>,
    /// `Time::MAX` marks a paused entry.
    effective: Vec<Time>,
    permille: u32,
}

impl TwoVectorSchedule {
    fn due(&self, now: Time) -> usize {
        self.effective.partition_point(|t| *t <= now)
    }

    fn next_after(&self, now: Time) -> Option<Time> {
        self.effective
            .get(self.due(now))
            .copied()
            .filter(|t| *t != Time::MAX)
    }

    fn throttle(&mut self, now: Time, permille: u32) {
        if permille == self.permille {
            return;
        }
        self.permille = permille;
        let idx = self.due(now);
        if permille == 0 {
            self.effective[idx..].fill(Time::MAX);
            return;
        }
        let mut t = now;
        for k in idx..self.nominal.len() {
            let prev = if k == 0 {
                Time::ZERO
            } else {
                self.nominal[k - 1]
            };
            let gap = (self.nominal[k] - prev).as_nanos() as u128 * 1000 / permille as u128;
            t += Duration::from_nanos(gap.clamp(1, u64::MAX as u128) as u64);
            self.effective[k] = t;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- hades-time ----------------

    /// The fault-tolerant midpoint always lies within the range of the
    /// surviving (non-extreme) estimates — so f outliers can never drag it
    /// outside the correct clocks' envelope.
    #[test]
    fn midpoint_within_survivor_envelope(
        mut estimates in prop::collection::vec(-1_000_000i64..1_000_000, 4..20),
        f in 0usize..3,
    ) {
        prop_assume!(estimates.len() > 3 * f);
        let mid = fault_tolerant_midpoint(&estimates, f).unwrap();
        estimates.sort_unstable();
        let lo = estimates[f];
        let hi = estimates[estimates.len() - 1 - f];
        prop_assert!(mid >= lo && mid <= hi, "mid {mid} outside [{lo}, {hi}]");
    }

    /// Duration ceiling division is the mathematical ceiling.
    #[test]
    fn div_ceil_is_ceiling(t in 0u64..1_000_000, p in 1u64..10_000) {
        let k = Duration::from_nanos(t).div_ceil(Duration::from_nanos(p));
        prop_assert!(k * p >= t);
        prop_assert!(k == 0 || (k - 1) * p < t);
    }

    // ---------------- hades-task ----------------

    /// Random DAG edges (i → j with i < j) always build, and the
    /// topological order respects every edge.
    #[test]
    fn random_dags_build_and_topo_sort(
        n in 2u32..12,
        edge_picks in prop::collection::vec((0u32..100, 0u32..100), 0..30),
    ) {
        let mut b = HeugBuilder::new("prop");
        for i in 0..n {
            b.code_eu(CodeEu::new(format!("eu{i}"), us(1), ProcessorId(0)));
        }
        let mut seen = std::collections::HashSet::new();
        for (x, y) in edge_picks {
            let (i, j) = (x % n, y % n);
            let (i, j) = if i < j { (i, j) } else if j < i { (j, i) } else { continue };
            if seen.insert((i, j)) {
                b.precede(EuIndex(i), EuIndex(j));
            }
        }
        let g = b.build().expect("forward edges cannot cycle");
        let topo = g.topological_order();
        prop_assert_eq!(topo.len(), n as usize);
        let pos: std::collections::HashMap<EuIndex, usize> =
            topo.iter().enumerate().map(|(p, e)| (*e, p)).collect();
        for e in g.edges() {
            prop_assert!(pos[&e.from] < pos[&e.to]);
        }
        // The critical path is bounded by total WCET and at least the
        // longest single unit.
        prop_assert!(g.critical_path() <= g.total_wcet());
        prop_assert!(g.critical_path() >= us(1));
    }

    /// A cycle through random permutation edges is always rejected.
    #[test]
    fn cycles_are_always_rejected(n in 2u32..10) {
        let mut b = HeugBuilder::new("cycle");
        for i in 0..n {
            b.code_eu(CodeEu::new(format!("eu{i}"), us(1), ProcessorId(0)));
        }
        for i in 0..n {
            b.precede(EuIndex(i), EuIndex((i + 1) % n));
        }
        prop_assert!(b.build().is_err());
    }

    // ---------------- hades-sim ----------------

    /// Whatever is cancelled — pending, twice over, or already delivered —
    /// the engine delivers the rest in (time, posting order), and
    /// `pending()` counts exactly what is still to come.
    #[test]
    fn engine_delivery_order_survives_any_cancellation(
        times in prop::collection::vec(0u64..50, 1..40),
        cancels in prop::collection::vec(0usize..40, 0..30),
        pause in 0u64..50,
    ) {
        struct Log(Vec<usize>);
        impl hades_sim::Simulation for Log {
            type Event = usize;
            fn handle(&mut self, _: Time, ev: usize, _: &mut hades_sim::Scheduler<usize>) {
                self.0.push(ev);
            }
        }
        let mut engine = hades_sim::Engine::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| engine.post(Time::from_nanos(*t), i))
            .collect();
        let mut log = Log(Vec::new());
        engine.run(&mut log, Time::from_nanos(pause));
        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by_key(|&i| (times[i], i));
        let cancelled: std::collections::HashSet<usize> =
            cancels.iter().map(|c| c % times.len()).collect();
        for c in &cancels {
            engine.cancel(ids[c % times.len()]);
        }
        expected.retain(|i| times[*i] <= pause || !cancelled.contains(i));
        prop_assert_eq!(engine.pending(), expected.len() - log.0.len());
        engine.run_to_completion(&mut log);
        prop_assert_eq!(engine.pending(), 0);
        prop_assert_eq!(log.0, expected);
    }

    // ---------------- hades-dispatch ----------------

    /// The run queue's choice is always a maximal-priority entry, and
    /// `preempter` never returns anything at or below the threshold.
    #[test]
    fn run_queue_ordering_invariant(
        entries in prop::collection::vec((0u64..50, 0u32..20), 1..25),
        pt in 0u32..20,
    ) {
        let mut q = RunQueue::new();
        let mut inserted = std::collections::HashSet::new();
        let mut best_prio = None;
        for (tid, prio) in &entries {
            if inserted.insert(*tid) {
                q.insert(ThreadId(*tid), Priority::new(*prio), Time::ZERO);
                best_prio = Some(best_prio.map_or(*prio, |b: u32| b.max(*prio)));
            }
        }
        let best = q.peek_best().expect("nonempty");
        prop_assert_eq!(q.peek_best_priority(), best_prio.map(Priority::new));
        // The chosen thread has the maximal priority.
        let chosen_prio = entries.iter().find(|(t, _)| *t == best.0).unwrap().1;
        // (There may be duplicates of tid with different prios; only first
        // insert counts.)
        let first_prio = entries
            .iter()
            .filter(|(t, _)| *t == best.0)
            .map(|(_, p)| *p)
            .next()
            .unwrap_or(chosen_prio);
        prop_assert_eq!(Some(Priority::new(first_prio)), best_prio.map(Priority::new));
        match q.preempter(Priority::new(pt)) {
            Some(t) => {
                let p = entries.iter().filter(|(x, _)| *x == t.0).map(|(_, p)| *p).next().unwrap();
                prop_assert!(p > pt);
            }
            None => prop_assert!(best_prio.unwrap() <= pt),
        }
    }

    // ---------------- hades-sched ----------------

    /// Every plan the Spring planner emits is valid: slots respect
    /// arrivals and deadlines, never overlap, and cover every request.
    #[test]
    fn spring_plans_are_always_valid(
        raw in prop::collection::vec((0u64..500, 1u64..100, 0u64..1000), 1..10),
        heuristic in 0u8..4,
    ) {
        let heuristic = match heuristic {
            0 => SpringHeuristic::Fcfs,
            1 => SpringHeuristic::MinDeadline,
            2 => SpringHeuristic::MinLaxity,
            _ => SpringHeuristic::Weighted(2),
        };
        let requests: Vec<SpringRequest> = raw
            .iter()
            .enumerate()
            .map(|(i, (arr, wcet, slack))| SpringRequest {
                id: i as u32,
                arrival: Time::ZERO + us(*arr),
                wcet: us(*wcet),
                deadline: Time::ZERO + us(arr + wcet + slack),
            })
            .collect();
        if let Some(plan) = SpringPlanner::new(heuristic).plan(&requests) {
            prop_assert_eq!(plan.slots.len(), requests.len());
            let mut prev_end = Time::ZERO;
            for slot in &plan.slots {
                let r = requests.iter().find(|r| r.id == slot.id).unwrap();
                prop_assert!(slot.start >= r.arrival);
                prop_assert!(slot.end <= r.deadline);
                prop_assert_eq!(slot.end - slot.start, r.wcet);
                prop_assert!(slot.start >= prev_end, "slots overlap");
                prev_end = slot.end;
            }
        }
    }

    /// The cost-integrated feasibility test is monotone: scaling overheads
    /// up never turns a rejected set into an accepted one.
    #[test]
    fn feasibility_is_antitone_in_overheads(seed in 0u64..500) {
        let mut rng = SimRng::seed_from(seed);
        let n = rng.range_inclusive(2, 5) as u32;
        let tasks: Vec<SpuriTask> = (0..n)
            .map(|i| {
                let p = rng.range_inclusive(1_000, 20_000);
                let c = rng.range_inclusive(50, p / 2);
                let d = rng.range_inclusive(c, p);
                SpuriTask::independent(TaskId(i), format!("t{i}"), us(c), us(d), us(p))
            })
            .collect();
        let half = EdfAnalysisConfig::with_platform(
            CostModel::measured_default().scaled(500),
            KernelModel::none(),
        );
        let full = EdfAnalysisConfig::with_platform(
            CostModel::measured_default(),
            KernelModel::chorus_like(),
        );
        let accept_half = edf_feasible(&tasks, &half).feasible;
        let accept_full = edf_feasible(&tasks, &full).feasible;
        if accept_full {
            prop_assert!(accept_half, "more overhead accepted, less rejected");
        }
    }

    // ---------------- hades-services ----------------

    /// Broadcast agreement and validity hold under *any* crash pattern on
    /// reliable links (the fault model the diffusion protocol is designed
    /// for): every node correct throughout delivers, and the bound holds.
    #[test]
    fn broadcast_agreement_under_any_crashes(
        seed in 0u64..1000,
        n in 3u32..8,
        crashes in prop::collection::vec((0u32..8, 0u64..100_000), 0..3),
    ) {
        let mut plan = FaultPlan::new();
        for (node, at) in &crashes {
            if node % n != 0 {
                // Initiator stays correct: validity then demands delivery
                // at every correct node.
                plan = plan.crash_at(NodeId(node % n), Time::from_nanos(*at));
            }
        }
        let link = LinkConfig::reliable(us(5), us(20));
        let net = Network::homogeneous(n, link, SimRng::seed_from(seed)).with_fault_plan(plan);
        let out = BroadcastSim::new(net, 1).broadcast(NodeId(0), Time::ZERO);
        prop_assert!(out.missed.is_empty(), "correct node missed: {:?}", out.missed);
        prop_assert!(out.agreement_holds());
        prop_assert!(out.delivered.contains_key(&0));
    }

    /// Consensus agreement + validity hold under any single crash time.
    #[test]
    fn consensus_safe_under_any_crash_time(
        seed in 0u64..500,
        crash_ns in 0u64..200_000,
        victim in 0u32..4,
        proposals in prop::collection::vec(0u64..100, 4),
    ) {
        let plan = FaultPlan::new().crash_at(NodeId(victim), Time::from_nanos(crash_ns));
        let net = Network::homogeneous(
            4,
            LinkConfig::reliable(us(5), us(20)),
            SimRng::seed_from(seed),
        )
        .with_fault_plan(plan);
        let out = FloodConsensus::new(ConsensusConfig {
            f: 1,
            proposals: proposals.clone(),
            start: Time::ZERO,
        })
        .execute(net);
        prop_assert!(out.agreement_holds());
        prop_assert!(out.validity_holds(&proposals));
        prop_assert!(out.decisions.len() >= 3);
    }

    /// Stable storage: after any sequence of stage/commit/crash
    /// operations, a read returns the last *committed* value.
    #[test]
    fn storage_always_returns_last_committed(ops in prop::collection::vec(0u8..4, 1..40)) {
        let mut store = StableStore::new();
        let mut committed: Option<u8> = None;
        let mut staged: Option<u8> = None;
        let mut counter = 0u8;
        for op in ops {
            match op {
                0 => {
                    counter = counter.wrapping_add(1);
                    store.stage(b"k", vec![counter]);
                    staged = Some(counter);
                }
                1 => {
                    if store.commit(b"k") {
                        committed = staged.take();
                    }
                }
                2 => {
                    store.crash();
                    staged = None;
                }
                _ => {
                    match (store.read(b"k"), committed) {
                        (Ok(v), Some(c)) => prop_assert_eq!(v, &[c][..]),
                        (Err(_), None) => {}
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "read {got:?}, committed {want:?}"
                            )));
                        }
                    }
                }
            }
        }
    }

    // ---------------- hades-cluster ----------------

    /// A bursty shape is charged no slower than it submits: its
    /// admission period is at most every gap between consecutive
    /// requests, including shapes whose bursts run closer than their
    /// intra-burst spacing (`gap < burst · spacing`, tail still > 0).
    #[test]
    fn bursty_admission_period_is_at_most_every_gap(
        burst in 1u32..8,
        spacing_us in 1u64..1_000,
        tail_us in 1u64..2_000,
        start_us in 0u64..1_000,
        horizon_ms in 1u64..20,
    ) {
        let w = Bursty {
            burst,
            spacing: us(spacing_us),
            gap: us(spacing_us * (burst as u64 - 1) + tail_us),
            start: Time::ZERO + us(start_us),
        };
        let horizon = Duration::from_millis(horizon_ms);
        let period = w.admission_period(horizon);
        let times = w.request_times(horizon);
        for pair in times.windows(2) {
            prop_assert!(pair[0] < pair[1], "{w:?}: {pair:?} out of order");
            prop_assert!(
                period <= pair[1] - pair[0],
                "{w:?}: charged {period} > gap {}",
                pair[1] - pair[0]
            );
        }
    }

    // ---------------- hades-services ----------------

    /// The open-loop source's cursor answers every query as the
    /// two-vector model does, under any retunes (pause, the rate
    /// already in force, 1–4000 ‰) at non-decreasing engine instants,
    /// from a first instant at or after `Time::ZERO`.
    #[test]
    fn fixed_schedule_cursor_matches_the_two_vector_model(
        first in 0usize..4,
        gaps in prop::collection::vec(1u64..40, 0..40),
        ops in prop::collection::vec((0u64..8, 0u8..6, 1u32..4_001), 0..60),
    ) {
        // From `Time::ZERO` itself, or a few ns after it, where a fast
        // retune scales the first gap below the 1 ns floor; squared
        // gaps mix 1–9 ns gaps in with longer ones.
        let mut t = Time::ZERO + Duration::from_nanos([0, 1, 3, 500][first]);
        let mut times = Vec::new();
        for g in &gaps {
            times.push(t);
            t += Duration::from_nanos(g * g);
        }
        let mut cursor = FixedSchedule::new(times.iter().copied().collect());
        let mut model = TwoVectorSchedule {
            nominal: times.clone(),
            effective: times,
            permille: 1000,
        };
        let mut now = Time::ZERO;
        for (step, op, rate) in ops {
            // A zero step asks again at the same instant.
            now += Duration::from_nanos(step * 300);
            match op {
                0 | 1 => {
                    let due = cursor.submissions_through(now);
                    prop_assert_eq!(due, model.due(now) as u64);
                }
                2 => {
                    let next = cursor.next_submission_after(now);
                    prop_assert_eq!(next, model.next_after(now));
                }
                _ => {
                    let permille = match op {
                        3 => 0,
                        4 => model.permille,
                        _ => rate,
                    };
                    cursor.throttle(now, permille);
                    model.throttle(now, permille);
                }
            }
        }
        now += us(1_000_000);
        prop_assert_eq!(cursor.next_submission_after(now), model.next_after(now));
        prop_assert_eq!(cursor.submissions_through(now), model.due(now) as u64);
    }
}
