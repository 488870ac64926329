//! Node rejoin: the primary's crash→detect→failover→restart→transfer→rejoin
//! lifecycle.
//!
//! A 5-node HADES cluster runs EDF-scheduled control loops next to the
//! injected middleware tasks (heartbeats, clock-sync rounds, checkpoint
//! writes) on one shared engine and network. At t = 20 ms the primary
//! (node 0) crashes: the survivors detect it within the analytic bound,
//! agree on a view without it, and node 1 takes over as primary. At
//! t = 45 ms node 0 restarts *cold*: it announces itself, the new primary
//! ships its latest checkpoint and log tail as paced chunks over the
//! shared network (the transfer's bytes and CPU cost are charged like any
//! other middleware activity), the joiner replays the tail, and a view
//! change re-admits it — all within the analytic rejoin bound, while
//! every live node keeps meeting every deadline.
//!
//! Run with: `cargo run --example node_rejoin`

use hades::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let us = Duration::from_micros;
    let ms = Duration::from_millis;

    let crash = Time::ZERO + ms(20);
    let restart = Time::ZERO + ms(45);
    let mut spec = ClusterSpec::new(5)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .link(LinkConfig::reliable(us(10), us(50)))
        .horizon(ms(100))
        .seed(42)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), crash)
                .restart(NodeId(0), restart),
        );
    // Each node runs a fast control loop and a slower logging service;
    // the middleware tasks (mw.hb, mw.sync, mw.ckpt) are injected on top.
    for node in 0..5 {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }

    let detection_bound = spec.detection_bound();
    let rejoin_bound = spec.rejoin_bound();
    let run = spec.run()?;
    let report = run.report();

    println!("{}", report.summary());

    let failover = report
        .failovers
        .first()
        .expect("a survivor took over from the crashed primary");
    println!(
        "primary n{} -> n{} in {}",
        failover.failed_primary, failover.new_primary, failover.latency
    );
    let r = report
        .recoveries
        .first()
        .expect("the rejoin completed within the horizon");
    println!("recovery timeline of node {}:", r.node);
    println!("  {:<26} {}", "crash", r.crashed_at);
    if let Some(d) = r.detected_at {
        println!(
            "  {:<26} {}  (+{} after the crash, bound {})",
            "first suspicion",
            d,
            r.detect_latency.unwrap(),
            detection_bound
        );
    }
    println!(
        "  {:<26} {}  (cold start, join broadcast)",
        "restart", r.restarted_at
    );
    println!(
        "  {:<26} {}  (+{} announce)",
        "state transfer starts",
        r.restarted_at + r.announce_latency,
        r.announce_latency
    );
    println!(
        "  {:<26} {}  ({} bytes in {} chunks, {} ops replayed)",
        "transfer + replay done",
        r.restarted_at + r.announce_latency + r.transfer_latency,
        r.bytes_transferred,
        r.chunks,
        r.log_entries_replayed
    );
    println!(
        "  {:<26} {}  (view {}, {} view(s) traversed while away)",
        "re-admitted",
        r.restarted_at + r.rejoin_latency,
        r.readmitted_view,
        r.views_traversed
    );
    println!(
        "rejoin latency: {} (analytic bound {})",
        r.rejoin_latency, rejoin_bound
    );

    assert!(report.detection_within_bound());
    assert!(report.rejoin_within_bound());
    assert!(report.views_agree);
    assert!(report.all_app_deadlines_met());
    assert_eq!((failover.failed_primary, failover.new_primary), (0, 1));
    assert_eq!(report.view_history.last().unwrap().1, vec![0, 1, 2, 3, 4]);

    // The typed event stream carries the causal order directly.
    println!("\nevent stream:");
    for ev in run.events() {
        println!("  {:<12} {:?}", ev.at().to_string(), ev.kind());
    }
    let kinds = run.kind_sequence();
    let pos = |k: &str| kinds.iter().position(|x| *x == k).unwrap();
    assert!(pos("detected") < pos("failed-over"));
    assert!(pos("failed-over") < pos("rejoin-completed"));
    println!("crash -> detect -> failover -> restart -> transfer -> rejoin: all bounds held");
    Ok(())
}
