//! E8/E9: service experiments — clock sync precision, broadcast latency.
//! (E10, the replication style comparison, runs in the cluster:
//! `crate::cluster::cluster_groups`.)

use hades_services::{BroadcastSim, ClockSyncConfig, ClockSyncRun};
use hades_sim::{LinkConfig, Network, NodeId, SimRng};
use hades_time::{Duration, Time};
use std::fmt::Write;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// E8: clock-sync precision vs drift, with and without a Byzantine clock.
pub fn clocksync_precision() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E8 / [LL88] — clock synchronization precision");
    let _ = writeln!(out, "=============================================");
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "drift", "initial", "final", "final(byz)", "bound", "ok"
    );
    for drift_ppm in [10u64, 50, 100, 500] {
        let base = ClockSyncConfig {
            drift_ppb: (drift_ppm * 1000) as i64,
            rounds: 24,
            ..ClockSyncConfig::default_quad()
        };
        let clean = ClockSyncRun::new(base.clone()).execute();
        let byz = ClockSyncRun::new(ClockSyncConfig {
            byzantine: vec![3],
            ..base
        })
        .execute();
        let ok = clean.converged() && byz.converged();
        let _ = writeln!(
            out,
            "{:>7}ppm {:>12} {:>12} {:>12} {:>12} {:>6}",
            drift_ppm,
            clean.initial_skew.to_string(),
            clean.final_skew().to_string(),
            byz.final_skew().to_string(),
            clean.analytic_bound.to_string(),
            if ok { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "\nexpected shape: final skew stays within the analytic bound\n\
         γ = 4ε + 4ρP even with f = 1 Byzantine clock among n = 4."
    );
    out
}

/// E9: reliable-broadcast latency and success vs omission rate.
pub fn broadcast_latency() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E9 — time-bounded reliable broadcast (diffusion)");
    let _ = writeln!(out, "================================================");
    let _ = writeln!(
        out,
        "{:>9} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "loss", "attempts", "complete", "worst lat", "bound", "messages"
    );
    for (loss, attempts) in [(0u32, 1u32), (100, 3), (200, 4), (400, 6)] {
        let mut complete = 0u32;
        let mut worst = Duration::ZERO;
        let mut msgs = 0u64;
        let runs = 50u64;
        let mut bound = Duration::ZERO;
        for seed in 0..runs {
            let link = LinkConfig::reliable(us(5), us(20)).with_omissions(loss);
            let net = Network::homogeneous(5, link, SimRng::seed_from(seed));
            let outc = BroadcastSim::new(net, 1)
                .with_attempts(attempts)
                .broadcast(NodeId(0), Time::ZERO);
            bound = outc.bound;
            msgs += outc.messages;
            if let Some(lat) = outc.max_latency(Time::ZERO) {
                complete += 1;
                worst = worst.max(lat);
            }
        }
        let _ = writeln!(
            out,
            "{:>8}% {:>9} {:>9}% {:>12} {:>12} {:>10.1}",
            loss / 10,
            attempts,
            complete * 100 / runs as u32,
            worst.to_string(),
            bound.to_string(),
            msgs as f64 / runs as f64
        );
    }
    let _ = writeln!(
        out,
        "\nexpected shape: with a retry budget matched to the loss rate the\n\
         broadcast completes everywhere within its (f+1)-hop bound; message\n\
         cost grows with the retry budget."
    );
    out
}
