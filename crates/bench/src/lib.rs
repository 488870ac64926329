//! Experiment harness regenerating every figure- and table-shaped result
//! of the paper; [`run_experiment`] is the index (E1–E14 plus the cluster
//! experiments), and `experiments --list` prints it.
//!
//! Each experiment is a pure function returning a printable report, so the
//! `experiments` binary and this crate's tests draw from the same code.

pub mod cluster;
pub mod costs;
pub mod extensions;
pub mod figures;
pub mod policies;
pub mod services;
pub mod sweep;

/// Runs the experiment with the given name; `None` if unknown.
pub fn run_experiment(name: &str) -> Option<String> {
    Some(match name {
        "fig1" => figures::fig1_architecture(),
        "fig2" => figures::fig2_edf_cooperation(),
        "fig3" => figures::fig3_spuri_translation(),
        "costs" => costs::dispatcher_cost_table(),
        "kernel" => costs::kernel_activity_table(),
        "feasibility" => sweep::feasibility_acceptance_sweep(),
        "validation" => sweep::validation_miss_rates(),
        "clocksync" => services::clocksync_precision(),
        "broadcast" => services::broadcast_latency(),
        "replication" => services::replication_comparison(),
        "srp_pcp" => policies::srp_vs_pcp(),
        "rm_vs_edf" => policies::rm_vs_edf_schedulability(),
        "spring" => policies::spring_success_ratio(),
        "monitoring" => figures::monitoring_coverage(),
        "ablation" => extensions::cost_ablation(),
        "overload" => extensions::spring_overload(),
        "modes" => extensions::mode_change_table(),
        "latency" => extensions::latency_distribution(),
        "cluster" => cluster::cluster_failover(),
        "cluster_scaling" => cluster::cluster_scaling(),
        "cluster_recovery" => cluster::cluster_recovery(),
        "cluster_groups" => cluster::cluster_groups(),
        _ => return None,
    })
}

/// All experiment names, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "costs",
    "kernel",
    "feasibility",
    "validation",
    "clocksync",
    "broadcast",
    "replication",
    "srp_pcp",
    "rm_vs_edf",
    "spring",
    "monitoring",
    "ablation",
    "overload",
    "modes",
    "latency",
    "cluster",
    "cluster_scaling",
    "cluster_recovery",
    "cluster_groups",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs_and_produces_output() {
        for name in ALL_EXPERIMENTS {
            let out = run_experiment(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(out.len() > 40, "{name} produced almost no output");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope").is_none());
    }
}
