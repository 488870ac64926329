//! Experiment E7 as a test: the central claim of the paper.
//!
//! A feasibility test that integrates the middleware's own costs
//! (Section 5.3) stays *sufficient* on the real platform: every task set it
//! accepts meets all deadlines when executed with dispatcher costs,
//! scheduler notifications and kernel interrupts charged. The naive test
//! (zero overheads) does not have this property — it accepts sets that
//! miss deadlines once overheads are real.

use bench::sweep::random_set;
use hades::prelude::*;
use hades_sim::SimRng;

fn run_with_costs(tasks: &[SpuriTask], costs: CostModel, kernel: KernelModel) -> RunReport {
    let blocking = hades_sched::analysis::edf_demand::spuri_blocking(tasks);
    let concrete: Vec<Task> = tasks
        .iter()
        .zip(&blocking)
        .map(|(t, b)| t.to_task(*b).expect("valid translation"))
        .collect();
    HadesNode::new()
        .tasks(concrete)
        .policy(Policy::Edf)
        .srp()
        .costs(costs)
        .kernel(kernel)
        .horizon(Duration::from_millis(60))
        .configure(|c| c.trace = false)
        .seed(99)
        .run()
        .expect("valid deployment")
}

#[test]
fn cost_aware_acceptance_is_sound_on_the_costed_platform() {
    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let cfg = EdfAnalysisConfig::with_platform(costs, kernel.clone());
    let mut rng = SimRng::seed_from(2024);
    let mut accepted = 0;
    for trial in 0..40 {
        let util = rng.range_inclusive(300, 850);
        let tasks = random_set(2_024_000 + trial, 4, util);
        let verdict = edf_feasible(&tasks, &cfg);
        if !verdict.feasible {
            continue;
        }
        accepted += 1;
        let report = run_with_costs(&tasks, costs, kernel.clone());
        assert!(
            report.all_deadlines_met(),
            "trial {trial}: cost-aware test accepted a set that missed \
             {} deadlines (util {:.3})",
            report.misses(),
            verdict.utilization
        );
    }
    assert!(
        accepted >= 5,
        "the sweep must exercise accepted sets, got {accepted}"
    );
}

#[test]
fn naive_acceptance_is_unsound_under_real_overheads() {
    // A set at ~96% raw utilisation: trivially accepted by the naive test,
    // rejected by the cost-integrated one, and missing deadlines when
    // executed with real overheads.
    let tasks = vec![
        SpuriTask::independent(
            TaskId(0),
            "a",
            Duration::from_micros(480),
            Duration::from_millis(1),
            Duration::from_millis(1),
        ),
        SpuriTask::independent(
            TaskId(1),
            "b",
            Duration::from_micros(480),
            Duration::from_millis(1),
            Duration::from_millis(1),
        ),
    ];
    let naive = edf_feasible(&tasks, &EdfAnalysisConfig::naive());
    assert!(naive.feasible, "the naive test waves this set through");

    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let aware = edf_feasible(
        &tasks,
        &EdfAnalysisConfig::with_platform(costs, kernel.clone()),
    );
    assert!(!aware.feasible, "the cost-integrated test rejects it");

    let report = run_with_costs(&tasks, costs, kernel);
    assert!(
        !report.all_deadlines_met(),
        "executing the naively-accepted set with real overheads must miss"
    );
}

#[test]
fn cost_aware_acceptance_is_monotone_in_overheads() {
    // Anything the cost-integrated test accepts, the naive test accepts
    // too (the converse direction of E6's acceptance-ratio gap).
    let mut rng = SimRng::seed_from(77);
    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let cfg = EdfAnalysisConfig::with_platform(costs, kernel);
    for trial in 0..60 {
        let util = rng.range_inclusive(200, 990);
        let tasks = random_set(77_000 + trial, 5, util);
        let aware = edf_feasible(&tasks, &cfg);
        let naive = edf_feasible(&tasks, &EdfAnalysisConfig::naive());
        if aware.feasible {
            assert!(
                naive.feasible,
                "trial {trial}: naive test rejected what the costed test accepted"
            );
        }
    }
}

#[test]
fn rta_acceptance_is_sound_for_rm_on_the_costed_platform() {
    // The fixed-priority twin of the EDF property: response-time analysis
    // with cost inflation and kernel interference (BTW95-style) accepts
    // only sets that execute cleanly under RM with the same overheads.
    use hades_sched::analysis::rta::{rta_feasible, RtaTask};
    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let rng = SimRng::seed_from(31);
    let mut accepted = 0;
    for trial in 0..40u64 {
        let mut sub = rng.split(trial);
        let n = sub.range_inclusive(2, 5) as u32;
        let mut specs = Vec::new();
        for i in 0..n {
            let period = sub.range_inclusive(1_000, 20_000);
            let c = sub.range_inclusive(100, period / 2);
            specs.push((i, Duration::from_micros(c), Duration::from_micros(period)));
        }
        // RM order: shortest period = highest priority.
        let mut by_prio = specs.clone();
        by_prio.sort_by_key(|(_, _, p)| *p);
        let rta_tasks: Vec<RtaTask> = by_prio
            .iter()
            .map(|(_, c, p)| RtaTask {
                c: *c,
                period: *p,
                deadline: *p,
                blocking: Duration::ZERO,
            })
            .collect();
        if !rta_feasible(&rta_tasks, &costs, &kernel).feasible {
            continue;
        }
        accepted += 1;
        let tasks: Vec<Task> = specs
            .iter()
            .map(|(i, c, p)| {
                Task::new(
                    TaskId(*i),
                    Heug::single(CodeEu::new(format!("t{i}"), *c, ProcessorId(0))).expect("valid"),
                    ArrivalLaw::Periodic(*p),
                    *p,
                )
            })
            .collect();
        let report = HadesNode::new()
            .tasks(tasks)
            .policy(Policy::RateMonotonic)
            .costs(costs)
            .kernel(kernel.clone())
            .horizon(Duration::from_millis(60))
            .configure(|c| c.trace = false)
            .run()
            .expect("valid deployment");
        assert!(
            report.all_deadlines_met(),
            "trial {trial}: RTA accepted a set that missed {} deadlines",
            report.misses()
        );
    }
    assert!(
        accepted >= 10,
        "sweep must exercise accepted sets, got {accepted}"
    );
}

#[test]
fn resource_sharing_sets_are_validated_too() {
    // Two tasks sharing one resource under SRP: accepted by the costed
    // test, then executed cleanly with SRP in the dispatcher.
    let r = ResourceId(0);
    let tasks = vec![
        SpuriTask::with_section(
            TaskId(0),
            "fast",
            Duration::from_micros(100),
            Duration::from_micros(200),
            Duration::from_micros(100),
            r,
            Duration::from_millis(2),
            Duration::from_millis(2),
        ),
        SpuriTask::with_section(
            TaskId(1),
            "slow",
            Duration::from_micros(200),
            Duration::from_micros(400),
            Duration::from_micros(200),
            r,
            Duration::from_millis(8),
            Duration::from_millis(8),
        ),
    ];
    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let verdict = edf_feasible(
        &tasks,
        &EdfAnalysisConfig::with_platform(costs, kernel.clone()),
    );
    assert!(verdict.feasible);
    let report = run_with_costs(&tasks, costs, kernel);
    assert!(report.all_deadlines_met(), "{} misses", report.misses());
}
