//! Experiment harness regenerating every figure- and table-shaped result
//! of the paper; [`ALL_EXPERIMENTS`] is the index (E1–E14, their
//! extensions and the cluster tables), and `experiments --list` prints it.
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

/// One row of the index: the name `experiments` takes, what it reproduces
/// (a paper experiment `E1`–`E14`, an `extension` of one, or a `cluster`
/// table) and the function that runs it.
type Entry = (&'static str, &'static str, fn() -> String);

/// The experiment index, in presentation order.
pub const ALL_EXPERIMENTS: &[Entry] = &[
    ("fig1", "E1", figures::fig1_architecture),
    ("fig2", "E2", figures::fig2_edf_cooperation),
    ("fig3", "E3", figures::fig3_spuri_translation),
    ("costs", "E4", costs::dispatcher_cost_table),
    ("kernel", "E5", costs::kernel_activity_table),
    ("feasibility", "E6", sweep::feasibility_acceptance_sweep),
    ("validation", "E7", sweep::accepted_set_miss_rates),
    ("clocksync", "E8", services::clocksync_precision),
    ("broadcast", "E9", services::broadcast_latency),
    (
        "replication",
        "E10 (in-cluster, = cluster_groups)",
        cluster::cluster_groups,
    ),
    ("srp_pcp", "E11", policies::srp_vs_pcp),
    ("rm_vs_edf", "E12", policies::rm_vs_edf_schedulability),
    ("spring", "E13", policies::spring_success_ratio),
    ("monitoring", "E14", figures::monitoring_coverage),
    ("ablation", "extension", extensions::cost_ablation),
    ("overload", "extension", extensions::spring_overload),
    ("modes", "extension", extensions::mode_change_table),
    ("latency", "extension", extensions::latency_distribution),
    ("cluster", "cluster", cluster::cluster_failover),
    ("cluster_scaling", "cluster", cluster::cluster_scaling),
    ("cluster_recovery", "cluster", cluster::cluster_recovery),
];

/// Runs the experiment with the given name; `None` if unknown.
/// `cluster_groups` is E10's in-cluster name and runs `replication`.
pub fn run_experiment(name: &str) -> Option<String> {
    let name = if name == "cluster_groups" {
        "replication"
    } else {
        name
    };
    let entry = ALL_EXPERIMENTS.iter().find(|entry| entry.0 == name)?;
    Some(entry.2())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the bytes of `s`.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a of every experiment's output, in index order. The
    /// experiments read no wall clock and draw only seeded randomness,
    /// so each output is a pure function of the code: a digest that
    /// moves means a printed table changed. Re-record one only in a
    /// change that means to move that table, and say so.
    const DIGESTS: &[&str] = &[
        "fig1 7e17dd41f54a8428",
        "fig2 f37a1171b039080e",
        "fig3 795ab3261a57895a",
        "costs 04f663c35e37bb1e",
        "kernel 51e62c0c6f5a0a26",
        "feasibility 6af244b440d56563",
        "validation e4815549a1a72aab",
        "clocksync 16f2c86f57da772a",
        "broadcast 18a6c2d776e91750",
        "replication 86041a748547dce2",
        "srp_pcp 9a3ea854de3fe8fb",
        "rm_vs_edf 81a6a12eccbe358c",
        "spring 4c61f951cbc31441",
        "monitoring 3a006450a902e5a8",
        "ablation 2baa7ed9ccde8df3",
        "overload 28503db5f3db6965",
        "modes 3e77f587a8cd1e61",
        "latency a07fd90f340cd8ab",
        "cluster 17ab622b68bc3b40",
        "cluster_scaling 6a21c915633ee583",
        "cluster_recovery 2a48edd3c06ab374",
    ];

    #[test]
    fn every_listed_experiment_runs_and_produces_output() {
        let got: Vec<String> = ALL_EXPERIMENTS
            .iter()
            .map(|(name, ..)| {
                let out = run_experiment(name).unwrap_or_else(|| panic!("{name} missing"));
                format!("{name} {:016x}", fnv1a(&out))
            })
            .collect();
        assert_eq!(got, DIGESTS);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope").is_none());
    }

    #[test]
    fn cluster_groups_is_replication_and_listed_once() {
        assert_eq!(
            run_experiment("cluster_groups"),
            run_experiment("replication")
        );
        assert!(ALL_EXPERIMENTS.iter().all(|e| e.0 != "cluster_groups"));
    }
}
