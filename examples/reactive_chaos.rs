//! Reactive chaos: the closed-loop control plane in one run.
//!
//! A 5-node deployment with a replicated store under a **live**
//! closed-loop client. One crash is scripted; everything else reacts:
//!
//! * a cascade driver kills a second node the instant the first crash is
//!   *detected* (no pre-scheduled second fault anywhere);
//! * a shedding driver halves the store's request rate when the
//!   overloaded analytics node misses a deadline — and restores it once
//!   the restarted node completes its rejoin;
//! * the closed-loop client meanwhile paces itself off *measured*
//!   responses, so the failover stall shows up directly in its
//!   submission count.
//!
//! Run with `cargo run --release --example reactive_chaos`.

use hades::prelude::*;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn t_ms(n: u64) -> Time {
    Time::ZERO + ms(n)
}

/// Detection-triggered cascade + miss-triggered shedding + rejoin-
/// triggered recovery, as one stateful driver.
#[derive(Debug, Default)]
struct ChaosDriver {
    cascaded: bool,
    shed: bool,
    restored: bool,
}

impl ScenarioDriver for ChaosDriver {
    fn on_event(&mut self, now: Time, event: &ClusterEvent, ctl: &mut ControlHandle<'_>) {
        match event {
            // First detection of the scripted crash: cascade onto node 4,
            // with a restart so the cluster can heal.
            ClusterEvent::Detected { suspect: 0, .. } if !self.cascaded => {
                self.cascaded = true;
                println!("[driver] {now}: node 0 detected -> cascading crash onto node 4");
                ctl.inject(FaultOp::Crash {
                    node: 4,
                    at: now,
                    until: Some(now + ms(18)),
                });
            }
            // The overloaded analytics node misses a deadline: shed the
            // store's workload until the cluster heals.
            ClusterEvent::DeadlineMiss {
                middleware: false, ..
            } if !self.shed => {
                self.shed = true;
                println!("[driver] {now}: deadline miss -> shedding store to 50%");
                ctl.throttle_workload("store", 500);
            }
            // Recovery completed: restore full load.
            ClusterEvent::RejoinCompleted { node, .. } if self.shed && !self.restored => {
                self.restored = true;
                println!("[driver] {now}: node {node} rejoined -> restoring full load");
                ctl.throttle_workload("store", 1000);
            }
            _ => {}
        }
    }
}

fn spec(drive: bool) -> ClusterSpec {
    // A live closed-loop client with a loose 1 ms analytic bound: its
    // real pacing comes from measured responses.
    let client = ClosedLoop::new(us(800), ms(1), t_ms(1));
    let mut spec = ClusterSpec::new(5)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(ms(100))
        .seed(42)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), t_ms(25))
                .restart(NodeId(0), t_ms(45)),
        )
        .service(
            ServiceSpec::replicated(
                "store",
                ReplicaStyle::SemiActive,
                vec![0, 1, 2],
                GroupLoad::default(),
            )
            .workload(Box::new(client)),
        );
    // A deliberately overloaded analytics pair on node 3 (U ≈ 1.1):
    // its misses are the shedding trigger.
    spec = spec
        .service(ServiceSpec::periodic("heavy-a", 3, ms(1), ms(2)))
        .service(ServiceSpec::periodic("heavy-b", 3, us(1_200), ms(2)));
    for node in 0..5 {
        spec = spec.service(ServiceSpec::periodic("ctl", node, us(150), ms(2)));
    }
    if drive {
        spec = spec.driver(Box::new(ChaosDriver::default()));
    }
    spec
}

fn main() {
    println!("== open loop (script only, no drivers) ==");
    let baseline = spec(false).run().expect("baseline run");
    println!("{}", baseline.report().summary());

    println!("== reactive (cascade + shedding drivers) ==");
    let run = spec(true).run().expect("reactive run");
    println!("{}", run.report().summary());

    println!("event stream (kinds): {:?}", run.kind_sequence());

    let b = &baseline.report().groups[0];
    let r = &run.report().groups[0];
    println!(
        "store submissions: baseline {} vs reactive {} (cascade stall + shedding)",
        b.submitted, r.submitted
    );
    assert!(
        run.events_of_kind("detected").count() > baseline.events_of_kind("detected").count(),
        "the cascaded crash produced extra detections"
    );
    assert!(
        run.events_of_kind("workload-retuned").count() >= 1,
        "the shedding driver acted"
    );
    assert!(
        r.submitted < b.submitted,
        "reactive faults + shedding visibly thinned the stream"
    );
    println!("ok: reactive control plane drove the run");
}
