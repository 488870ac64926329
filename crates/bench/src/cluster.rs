//! Cluster-level experiments on the integrated multi-node runtime:
//! end-to-end failover behaviour, the middleware overhead / failover
//! latency trend as the cluster grows, the crash→restart→rejoin
//! lifecycle (rejoin latency and state-transfer overhead vs checkpoint
//! interval and cluster size), and the replication-group workload
//! (three styles over Δ-atomic multicast across a leader crash, plus
//! the flood-vs-Δ-multicast view-change message complexity).

use hades_cluster::{ClusterSpec, GroupLoad, MiddlewareConfig, ScenarioPlan, ServiceSpec};
use hades_dispatch::CostModel;
use hades_sched::Policy;
use hades_services::{RecoveryConfig, ReplicaStyle};
use hades_sim::NodeId;
use hades_time::{Duration, Time};
use std::fmt::Write;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// A standard failover scenario: `nodes` nodes under EDF with measured
/// costs, two app services per node, primary killed mid-run.
pub fn failover_scenario(nodes: u32, seed: u64, horizon: Duration) -> ClusterSpec {
    let mut spec = ClusterSpec::new(nodes)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(horizon)
        .seed(seed)
        .scenario(ScenarioPlan::new().crash(NodeId(0), Time::ZERO + ms(20)));
    for node in 0..nodes {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

/// The end-to-end failover experiment: one annotated 4-node run.
pub fn cluster_failover() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Cluster failover (4 nodes, EDF + measured costs, primary killed at 20 ms)\n"
    );
    let spec = failover_scenario(4, 42, ms(60));
    let bound = spec.detection_bound();
    let report = spec.run().expect("valid spec").into_report();
    out.push_str(&report.summary());
    let _ = writeln!(out, "  detection bound: {bound}");
    let _ = writeln!(
        out,
        "  bounds held: detection={} views_agree={} app_deadlines={}",
        report.detection_within_bound(),
        report.views_agree,
        report.all_app_deadlines_met()
    );
    out
}

/// Failover latency and per-node middleware/dispatcher overhead vs.
/// cluster size — through the 96-node mark the packed-u64 membership
/// masks could never reach (their ceiling was 48).
pub fn cluster_scaling() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Cluster scaling (failover + overhead vs size)\n");
    let _ = writeln!(
        out,
        "{:>5} {:>14} {:>14} {:>16} {:>14} {:>12}",
        "nodes", "detect_worst", "failover", "sched_cpu/node", "net_msgs", "hb_seen"
    );
    for nodes in [3u32, 4, 6, 8, 12, 16, 24, 48, 96] {
        // The big sizes are a smoke check of the variable-length
        // membership path, not a latency sweep: a shorter horizon keeps
        // the O(n²) heartbeat traffic affordable.
        let horizon = if nodes > 16 { ms(30) } else { ms(60) };
        let report = failover_scenario(nodes, 7, horizon)
            .run()
            .expect("valid spec")
            .into_report();
        assert!(report.views_agree, "agreement must hold at size {nodes}");
        assert!(
            report.detection_within_bound(),
            "detection bound must hold at size {nodes}"
        );
        let _ = writeln!(
            out,
            "{:>5} {:>14} {:>14} {:>16} {:>14} {:>12}",
            nodes,
            report
                .worst_detection_latency()
                .map_or_else(|| "-".into(), |d| d.to_string()),
            report
                .worst_failover_latency()
                .map_or_else(|| "-".into(), |d| d.to_string()),
            (report.scheduler_cpu / nodes as u64).to_string(),
            report.network.sent,
            report.heartbeats_seen,
        );
    }
    out
}

/// A standard recovery scenario: `nodes` nodes under EDF with measured
/// costs, two app tasks per node, node 1 crashed at 15 ms and restarted
/// at 35 ms, with the given checkpoint cadence.
pub fn recovery_scenario(
    nodes: u32,
    seed: u64,
    horizon: Duration,
    checkpoint_period: Duration,
) -> ClusterSpec {
    let mw = MiddlewareConfig {
        recovery: RecoveryConfig {
            checkpoint_period,
            ..RecoveryConfig::default()
        },
        ..MiddlewareConfig::default()
    };
    let mut spec = ClusterSpec::new(nodes)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(horizon)
        .seed(seed)
        .middleware(mw)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(1), Time::ZERO + ms(15))
                .restart(NodeId(1), Time::ZERO + ms(35)),
        );
    for node in 0..nodes {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

/// The recovery experiment: rejoin latency and state-transfer overhead vs
/// checkpoint interval (longer intervals grow the replayed log tail), and
/// the rejoin latency decomposition vs cluster size.
pub fn cluster_recovery() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Cluster recovery (crash at 15 ms, restart at 35 ms, EDF + measured costs)\n"
    );
    let _ = writeln!(out, "### Rejoin vs checkpoint interval (4 nodes)\n");
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>10} {:>8} {:>14} {:>14} {:>12}",
        "ckpt", "log_replay", "bytes", "chunks", "transfer", "rejoin", "bound_ok"
    );
    for ckpt_ms in [5u64, 10, 20, 40] {
        let report = recovery_scenario(4, 11, ms(80), ms(ckpt_ms))
            .run()
            .expect("valid spec")
            .into_report();
        assert_eq!(report.recoveries.len(), 1, "rejoin must complete");
        let r = report.recoveries[0];
        let _ = writeln!(
            out,
            "{:>9} {:>12} {:>10} {:>8} {:>14} {:>14} {:>12}",
            format!("{ckpt_ms}ms"),
            r.log_entries_replayed,
            r.bytes_transferred,
            r.chunks,
            r.transfer_latency.to_string(),
            r.rejoin_latency.to_string(),
            report.rejoin_within_bound(),
        );
    }
    let _ = writeln!(out, "\n### Rejoin decomposition vs cluster size\n");
    let _ = writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "nodes", "detect", "announce", "transfer", "readmit", "rejoin", "views", "net_msgs"
    );
    for nodes in [3u32, 4, 6, 8, 12, 16] {
        let report = recovery_scenario(nodes, 23, ms(80), ms(20))
            .run()
            .expect("valid spec")
            .into_report();
        assert_eq!(report.recoveries.len(), 1, "rejoin at size {nodes}");
        assert!(report.views_agree, "agreement must hold at size {nodes}");
        let r = report.recoveries[0];
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
            nodes,
            r.detect_latency
                .map_or_else(|| "-".into(), |d| d.to_string()),
            r.announce_latency.to_string(),
            r.transfer_latency.to_string(),
            r.readmit_latency.to_string(),
            r.rejoin_latency.to_string(),
            r.views_traversed,
            report.network.sent,
        );
    }
    out
}

/// A standard replication-group scenario: 5 nodes under EDF with
/// measured costs, one group per style, node 0 (leader + gateway of two
/// of them) crashed at 20 ms and restarted at 40 ms.
pub fn groups_scenario(seed: u64, horizon: Duration, delta_multicast_vc: bool) -> ClusterSpec {
    let mw = MiddlewareConfig {
        delta_multicast_vc,
        ..MiddlewareConfig::default()
    };
    let mut spec = ClusterSpec::new(5)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(horizon)
        .seed(seed)
        .middleware(mw)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), Time::ZERO + ms(20))
                .restart(NodeId(0), Time::ZERO + ms(40)),
        )
        .service(ServiceSpec::replicated(
            "active-store",
            ReplicaStyle::Active,
            vec![0, 1, 2],
            GroupLoad::default(),
        ))
        .service(ServiceSpec::replicated(
            "semi-active-store",
            ReplicaStyle::SemiActive,
            vec![0, 3, 4],
            GroupLoad::default(),
        ))
        .service(ServiceSpec::replicated(
            "passive-store",
            ReplicaStyle::Passive {
                checkpoint_every: 5,
            },
            vec![1, 2, 3],
            GroupLoad::default(),
        ));
    for node in 0..5 {
        spec = spec.service(ServiceSpec::periodic("control", node, us(200), ms(2)));
    }
    spec
}

/// E10 / \[Pol96\], the replication-group experiment: per-style outcome
/// of the same client request stream across a leader crash + restart, and
/// the view-change transport comparison.
pub fn cluster_groups() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Replication groups over Δ-atomic multicast (5 nodes, leader crash at 20 ms, restart at 40 ms)\n"
    );
    let spec = groups_scenario(42, ms(100), true);
    let delta = spec.group_delta();
    let report = spec.run().expect("valid spec").into_report();
    let _ = writeln!(out, "Δ = δmax + γ = {delta}\n");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} {:>11} {:>8} {:>9} {:>9} {:>9}",
        "style",
        "outputs",
        "on_time",
        "delayed",
        "worst_lat",
        "dup_out",
        "suppr",
        "handoffs",
        "msgs"
    );
    for g in &report.groups {
        assert!(g.order_agreement, "order must agree for {}", g.style_name);
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>8} {:>11} {:>8} {:>9} {:>9} {:>9}",
            g.style_name,
            g.outputs,
            g.on_time_outputs,
            g.delayed_outputs,
            g.worst_latency
                .map_or_else(|| "-".into(), |d| d.to_string()),
            g.duplicate_outputs,
            g.duplicates_suppressed,
            g.handoffs.len(),
            g.messages,
        );
    }
    let _ = writeln!(
        out,
        "\nbounds held: order_agreement=true delta_bound={} dup_outputs={}",
        report.groups.iter().all(|g| g.within_delta_bound()),
        report
            .groups
            .iter()
            .map(|g| g.duplicate_outputs)
            .sum::<u64>(),
    );

    let _ = writeln!(out, "\n### View-change transport message complexity\n");
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>13} {:>12} {:>12}",
        "transport", "vc_msgs", "view_changes", "flood_eq", "mcast_eq"
    );
    // The multicast row reuses the run above; only the flood variant
    // needs a second simulation.
    let flood = groups_scenario(42, ms(100), false)
        .run()
        .expect("valid spec")
        .into_report();
    assert!(flood.views_agree, "agreement under either transport");
    for vc in [&report.view_change, &flood.view_change] {
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>13} {:>12} {:>12}",
            vc.transport,
            vc.messages,
            vc.view_changes,
            vc.flood_equivalent,
            vc.multicast_equivalent,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_experiment_reports_bounds_held() {
        let out = cluster_failover();
        assert!(out.contains("bounds held: detection=true views_agree=true app_deadlines=true"));
    }

    #[test]
    fn scaling_covers_3_to_96_nodes() {
        let out = cluster_scaling();
        for nodes in ["    3", "    4", "   16", "   48", "   96"] {
            assert!(out.contains(nodes), "missing row {nodes:?}:\n{out}");
        }
    }

    #[test]
    fn recovery_experiment_sweeps_intervals_and_sizes() {
        let out = cluster_recovery();
        for token in ["5ms", "40ms", "   16", "bound_ok"] {
            assert!(out.contains(token), "missing {token:?}:\n{out}");
        }
        assert!(
            !out.contains("false"),
            "a rejoin exceeded its bound:\n{out}"
        );
    }

    #[test]
    fn groups_experiment_covers_all_styles_and_transports() {
        let out = cluster_groups();
        for token in [
            "active",
            "semi-active",
            "passive",
            "delta-multicast",
            "flood",
            "bounds held: order_agreement=true delta_bound=true dup_outputs=0",
        ] {
            assert!(out.contains(token), "missing {token:?}:\n{out}");
        }
    }

    #[test]
    fn longer_checkpoint_interval_means_longer_replay() {
        let short = recovery_scenario(4, 5, ms(80), ms(5))
            .run()
            .unwrap()
            .into_report();
        let long = recovery_scenario(4, 5, ms(80), ms(40))
            .run()
            .unwrap()
            .into_report();
        assert!(
            long.recoveries[0].log_entries_replayed > short.recoveries[0].log_entries_replayed,
            "the log tail grows with the checkpoint interval"
        );
        assert!(long.recoveries[0].bytes_transferred > short.recoveries[0].bytes_transferred);
    }
}
