//! E2E: the online invariant watchdog. A seeded mid-recovery blackout —
//! node 0 restarts into a cluster whose every other node just died, so
//! its state transfer has no server — must raise `InvariantViolated`
//! cluster events *during* the run, at the engine instant the monitor
//! detected them, observable by reactive [`ScenarioDriver`]s; while a
//! fault-free run with every monitor armed stays silent and leaves the
//! report untouched.
//!
//! The serverless rejoin itself is no longer a stalled-transfer
//! violation: the joiner re-announces on the heartbeat cadence (each
//! re-announcement re-arms the stall watchdog) and, once the other
//! members announce too, the lowest announcer bootstraps a view and
//! serves the cluster back in — so the same blackout now *recovers*,
//! and only the group-level silence during the outage trips a monitor.

use std::cell::RefCell;
use std::rc::Rc;

use hades::prelude::*;
use hades_sim::NodeId;
use hades_telemetry::monitor::{validate_violations, violations_to_jsonl, Monitor, MonitorCtx};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn t_ms(n: u64) -> Time {
    Time::ZERO + ms(n)
}

/// Records every `InvariantViolated` the control plane delivers, with
/// the callback instant — the proof the violation was observable online.
#[derive(Debug)]
struct ViolationRecorder {
    seen: Rc<RefCell<Vec<(Time, Time, String)>>>,
}

impl ScenarioDriver for ViolationRecorder {
    fn on_event(&mut self, now: Time, event: &ClusterEvent, _ctl: &mut ControlHandle<'_>) {
        if let ClusterEvent::InvariantViolated { monitor, at, .. } = event {
            self.seen.borrow_mut().push((now, *at, monitor.clone()));
        }
    }
}

/// Node 0 crashes at 15 ms and restarts at 35 ms — one millisecond
/// after every other node went down. Its rejoin announce finds no
/// live peer to serve the checkpoint transfer; the last requests
/// before the blackout outlive the group's answer bound (the
/// silent-group trip), while the rejoin protocol rides out the
/// blackout on re-announcements and bootstraps once the others return.
fn stall_spec(seed: u64) -> ClusterSpec {
    let mut plan = ScenarioPlan::new()
        .crash(NodeId(0), t_ms(15))
        .restart(NodeId(0), t_ms(35));
    for node in 1..4 {
        plan = plan
            .crash(NodeId(node), t_ms(34))
            .restart(NodeId(node), t_ms(70));
    }
    let mut spec = ClusterSpec::new(4)
        .seed(seed)
        .horizon(ms(100))
        .scenario(plan)
        .service(
            ServiceSpec::replicated(
                "store",
                ReplicaStyle::SemiActive,
                vec![0, 1, 2],
                GroupLoad::default(),
            )
            .workload(Box::new(
                ClosedLoop::new(us(500), ms(1), Time::ZERO + ms(2)).with_timeout(ms(4)),
            )),
        );
    for node in 0..4 {
        spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }
    spec
}

#[test]
fn serverless_rejoin_raises_violations_online() {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let run = stall_spec(7)
        .monitors(Watchdog::standard())
        .driver(Box::new(ViolationRecorder { seen: seen.clone() }))
        .run()
        .expect("valid spec");

    // The run surfaced violations, and the event stream carries them.
    assert!(!run.violations().is_empty(), "chaos must trip a monitor");
    let in_stream: Vec<_> = run
        .events()
        .iter()
        .filter(|e| matches!(e, ClusterEvent::InvariantViolated { .. }))
        .collect();
    assert_eq!(in_stream.len(), run.violations().len());

    // The group fell silent during the blackout — that is the genuine
    // service-level violation this scenario pins.
    assert!(
        run.violations().iter().any(|v| v.monitor == "silent-group"),
        "the blackout must trip the silent-group monitor: {:?}",
        run.violations()
    );

    // The rejoin itself no longer stalls: node 0 re-announces through
    // the serverless window (re-arming the watchdog each time), then
    // bootstraps and serves the others back in — every scripted rejoin
    // completes and the survivors converge on full membership.
    assert!(
        !run.violations()
            .iter()
            .any(|v| v.monitor == "stalled-transfer"),
        "re-announcements and the bootstrap keep every transfer live: {:?}",
        run.violations()
    );
    let report = run.report();
    assert_eq!(
        report.recoveries.len() as u32,
        report.scripted_rejoins,
        "every scripted rejoin completed despite the serverless window"
    );
    let last_view = run
        .events()
        .iter()
        .rev()
        .find_map(|e| match e {
            ClusterEvent::ViewInstalled { members, .. } => Some(members.clone()),
            _ => None,
        })
        .expect("views were installed");
    assert_eq!(
        last_view,
        vec![0, 1, 2, 3],
        "the cluster converged on full membership"
    );

    // A reactive driver observed every violation online, at the engine
    // instant the monitor detected it.
    let seen = seen.borrow();
    assert_eq!(seen.len(), run.violations().len());
    for (now, at, monitor) in seen.iter() {
        assert_eq!(
            now, at,
            "{monitor} violation must be delivered at its own instant"
        );
    }

    // The exported JSONL round-trips through the schema validator.
    let jsonl = violations_to_jsonl(run.violations());
    let lines = validate_violations(&jsonl).expect("schema-valid violations");
    assert_eq!(lines, run.violations().len());
}

#[test]
fn violations_are_deterministic_under_fixed_seed() {
    let a = stall_spec(7)
        .monitors(Watchdog::standard())
        .run()
        .expect("valid spec");
    let b = stall_spec(7)
        .monitors(Watchdog::standard())
        .run()
        .expect("valid spec");
    assert!(!a.violations().is_empty());
    assert_eq!(
        violations_to_jsonl(a.violations()),
        violations_to_jsonl(b.violations())
    );
    assert_eq!(a.events(), b.events());
}

#[test]
fn fault_free_run_stays_silent_and_unperturbed() {
    // Same deployment, no faults: every monitor armed, zero violations,
    // and the watchdog's presence changes nothing the run reports.
    let healthy = |seed: u64| {
        let mut spec = ClusterSpec::new(4).seed(seed).horizon(ms(80)).service(
            ServiceSpec::replicated(
                "store",
                ReplicaStyle::SemiActive,
                vec![0, 1, 2],
                GroupLoad::default(),
            )
            .workload(Box::new(
                ClosedLoop::new(us(500), ms(1), Time::ZERO + ms(2)).with_timeout(ms(4)),
            )),
        );
        for node in 0..4 {
            spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
        }
        spec
    };
    let watched = healthy(9)
        .monitors(Watchdog::standard())
        .run()
        .expect("valid spec");
    let bare = healthy(9).run().expect("valid spec");
    assert!(
        watched.violations().is_empty(),
        "healthy run must not trip any monitor: {:?}",
        watched.violations()
    );
    assert_eq!(watched.report(), bare.report());
    assert_eq!(watched.events(), bare.events());
}

/// Records the instant of every dispatcher deadline miss the watchdog
/// feeds it.
struct MissRecorder {
    seen: Rc<RefCell<Vec<Time>>>,
}

impl Monitor for MissRecorder {
    fn name(&self) -> &'static str {
        "miss-recorder"
    }

    fn on_event(&mut self, now: Time, event: &MonitorEvent, _ctx: &mut MonitorCtx<'_>) {
        if let MonitorEvent::DeadlineMiss { .. } = event {
            self.seen.borrow_mut().push(now);
        }
    }
}

#[test]
fn watchdog_hears_every_deadline_miss_the_control_plane_does() {
    // An overloaded node 0 (U > 1) next to a replicated store: the
    // dispatcher's misses reach a custom monitor through the same tap
    // that yields `ClusterEvent::DeadlineMiss`. No crash, so no miss is
    // filtered as a down-window casualty.
    let seen = Rc::new(RefCell::new(Vec::new()));
    let run = ClusterSpec::new(3)
        .horizon(ms(40))
        .service(ServiceSpec::replicated(
            "store",
            ReplicaStyle::Active,
            vec![1, 2],
            GroupLoad::default(),
        ))
        .service(ServiceSpec::periodic("heavy-a", 0, ms(1), ms(2)))
        .service(ServiceSpec::periodic("heavy-b", 0, us(1_100), ms(2)))
        .monitors(Watchdog::new().with(Box::new(MissRecorder { seen: seen.clone() })))
        .run()
        .expect("valid spec");
    let misses: Vec<Time> = run
        .events()
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::DeadlineMiss { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert!(!misses.is_empty(), "the overloaded node missed deadlines");
    assert_eq!(*seen.borrow(), misses);
    assert!(run.violations().is_empty(), "{:?}", run.violations());
}
