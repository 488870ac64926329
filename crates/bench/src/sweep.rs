//! E6/E7: the feasibility experiments of Section 5.
//!
//! E6 sweeps raw utilisation and compares the acceptance ratio of the
//! *naive* EDF test against the *cost-integrated* test of Section 5.3.
//! E7 executes both tests' accepted sets on the costed platform and
//! reports miss rates — the cost-integrated test must be clean.

use hades_dispatch::{CostModel, DispatchSim, SimConfig};
use hades_sched::{edf_feasible, EdfAnalysisConfig};
use hades_sim::{KernelModel, SimRng};
use hades_task::prelude::*;
use hades_task::spuri::SpuriTask;
use std::fmt::Write;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Deterministic random Spuri set at roughly `util_permille` utilisation.
pub fn random_set(seed: u64, n_tasks: u32, util_permille: u64) -> Vec<SpuriTask> {
    let mut rng = SimRng::seed_from(seed);
    let share = util_permille / n_tasks as u64;
    (0..n_tasks)
        .map(|i| {
            let period_us = rng.range_inclusive(2_000, 20_000);
            let c_us = (period_us * share / 1000).max(50);
            let deadline_us = rng.range_inclusive(c_us.saturating_mul(2).max(500), period_us);
            SpuriTask::independent(
                TaskId(i),
                format!("t{i}"),
                us(c_us),
                us(deadline_us),
                us(period_us),
            )
        })
        .collect()
}

/// Executes a Spuri set under EDF+SRP on the costed platform; returns
/// `(instances, misses)`.
pub fn execute_costed(tasks: &[SpuriTask], seed: u64) -> (usize, usize) {
    let blocking = hades_sched::analysis::edf_demand::spuri_blocking(tasks);
    let concrete: Vec<Task> = tasks
        .iter()
        .zip(&blocking)
        .map(|(t, b)| t.to_task(*b).expect("valid"))
        .collect();
    let set = TaskSet::new(concrete).expect("valid");
    let (levels, ceilings) = hades_dispatch::resources::srp_parameters(&set);
    let mut cfg = SimConfig::realistic(Duration::from_millis(60));
    cfg.trace = false;
    cfg.seed = seed;
    cfg.protocol = hades_dispatch::ResourceProtocol::Srp { levels, ceilings };
    let mut sim = DispatchSim::new(set, cfg);
    sim.set_policy(0, Box::new(hades_sched::EdfPolicy::new()));
    let report = sim.run();
    (report.instances.len(), report.misses())
}

/// E6: acceptance ratio vs utilisation, naive vs cost-integrated.
pub fn feasibility_acceptance_sweep() -> String {
    let mut out = String::new();
    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let aware_cfg = EdfAnalysisConfig::with_platform(costs, kernel);
    let naive_cfg = EdfAnalysisConfig::naive();
    let trials = 200u64;
    let _ = writeln!(
        out,
        "E6 / Section 5.3 — acceptance ratio vs raw utilisation"
    );
    let _ = writeln!(
        out,
        "======================================================"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>12} {:>12}",
        "U raw", "trials", "naive", "cost-aware"
    );
    for util in (30u64..=100).step_by(10) {
        let mut naive_ok = 0;
        let mut aware_ok = 0;
        for t in 0..trials {
            let tasks = random_set(util * 10_000 + t, 4, util * 10);
            if edf_feasible(&tasks, &naive_cfg).feasible {
                naive_ok += 1;
            }
            if edf_feasible(&tasks, &aware_cfg).feasible {
                aware_ok += 1;
            }
        }
        let _ = writeln!(
            out,
            "{:>5}% {:>8} {:>11.1}% {:>11.1}%",
            util,
            trials,
            100.0 * naive_ok as f64 / trials as f64,
            100.0 * aware_ok as f64 / trials as f64
        );
    }
    let _ = writeln!(
        out,
        "\nexpected shape: both ratios fall with load; the cost-aware curve\n\
         falls earlier by roughly the overhead share (~10-15% utilisation)."
    );
    out
}

/// E7: execute accepted sets on the costed platform; the cost-aware test
/// must produce zero misses, the naive test demonstrably does not.
pub fn accepted_set_miss_rates() -> String {
    let mut out = String::new();
    let costs = CostModel::measured_default();
    let kernel = KernelModel::chorus_like();
    let aware_cfg = EdfAnalysisConfig::with_platform(costs, kernel);
    let naive_cfg = EdfAnalysisConfig::naive();
    let _ = writeln!(
        out,
        "E7 — execution of accepted sets on the costed platform"
    );
    let _ = writeln!(
        out,
        "======================================================="
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>11} {:>12} {:>12}",
        "test", "accepted", "instances", "missed", "miss rate"
    );
    let mut stats = |name: &str, aware: bool| {
        let cfg = if aware { &aware_cfg } else { &naive_cfg };
        let mut accepted = 0u64;
        let mut instances = 0usize;
        let mut misses = 0usize;
        for t in 0..120u64 {
            let util = 600 + (t % 40) * 10; // 60%..100% raw load
            let tasks = random_set(99_000 + t, 4, util);
            if !edf_feasible(&tasks, cfg).feasible {
                continue;
            }
            accepted += 1;
            let (i, m) = execute_costed(&tasks, 7);
            instances += i;
            misses += m;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>11} {:>12} {:>11.2}%",
            name,
            accepted,
            instances,
            misses,
            if instances == 0 {
                0.0
            } else {
                100.0 * misses as f64 / instances as f64
            }
        );
        misses
    };
    let aware_misses = stats("cost-aware", true);
    let naive_misses = stats("naive", false);
    let _ = writeln!(
        out,
        "\ncost-aware misses = {aware_misses} (must be 0); naive misses = {naive_misses} (> 0:\n\
         the naive test admits sets the platform cannot sustain)."
    );
    out
}
