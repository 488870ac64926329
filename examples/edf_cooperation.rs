//! Figure 2 reproduction: scheduler/dispatcher cooperation under EDF.
//!
//! The scenario of Figure 2 of the paper: thread τ1 is running when thread
//! τ2 — with a *shorter* absolute deadline — is activated. The dispatcher
//! pushes `Atv τ2` into the shared FIFO; the scheduler task (highest
//! application priority) wakes, applies EDF and swaps the priorities
//! through the dispatcher primitive; τ2 runs to completion, its `Trm`
//! notification is processed (and ignored by EDF), and τ1 resumes.
//!
//! Run with: `cargo run --example edf_cooperation`

use hades::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let us = Duration::from_micros;

    // τ1: long action, loose deadline. τ2: short action, tight deadline,
    // activated while τ1 runs.
    let t1 = Task::new(
        TaskId(1),
        Heug::single(CodeEu::new("t1", us(400), ProcessorId(0)))?,
        ArrivalLaw::Aperiodic,
        us(2_000),
    );
    let t2 = Task::new(
        TaskId(2),
        Heug::single(CodeEu::new("t2", us(100), ProcessorId(0)))?,
        ArrivalLaw::Aperiodic,
        us(300),
    );

    let mut sim = HadesNode::new()
        .task(t1)
        .task(t2)
        .policy(Policy::Edf)
        .costs(CostModel {
            sched_notif: us(10), // make the scheduler's CPU slice visible
            ..CostModel::zero()
        })
        .horizon(us(2_000))
        .configure(|c| c.auto_activate = false)
        .build()?;
    sim.activate_at(TaskId(1), Time::ZERO);
    sim.activate_at(TaskId(2), Time::ZERO + us(100));
    let report = sim.run();

    println!("Figure 2 — cooperation between scheduler and dispatcher (EDF)");
    println!("==============================================================");
    println!("\nEvent log:");
    print!("{}", report.trace.render_log());
    println!("\nCPU occupancy on node 0 (one char = 10 µs):");
    print!("{}", report.trace.render_gantt(NodeId(0), us(10)));

    // The properties the figure illustrates:
    let notifies: Vec<&str> = report
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, hades_sim::TraceKind::Notify))
        .map(|e| e.detail.as_str())
        .collect();
    assert!(
        notifies
            .iter()
            .any(|d| d.starts_with("Atv") && d.contains("t2")),
        "Atv τ2 notification present"
    );
    assert!(
        notifies
            .iter()
            .any(|d| d.starts_with("Trm") && d.contains("t2")),
        "Trm τ2 notification present"
    );
    // One instance each, so a task's first completion is its completion.
    let done = |task| {
        let outcome = report.outcome(task).expect("task in the set");
        assert_eq!(outcome.activated, 1);
        outcome.first_completion
    };
    let t2_done = done(TaskId(2)).expect("t2 completes");
    let t1_done = done(TaskId(1)).expect("t1 completes");
    assert!(t2_done < t1_done, "τ2 (tighter deadline) finished first");
    assert!(report.all_deadlines_met());
    println!("\nτ2 completed at {t2_done}, τ1 resumed and completed at {t1_done} ✓");
    Ok(())
}
