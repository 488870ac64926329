//! The benchmark's contract: every workload and metric it emits, with
//! unit, direction and regression bound. `BENCHMARK.json` at the repo
//! root is [`manifest`] verbatim (a test holds them equal), so a metric
//! cannot be emitted without being declared or declared without being
//! emitted.

use hades_telemetry::json::escape;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The direction as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit. Host time is `s`/`ms`/`us`/`ns`; simulated time is `ticks`
    /// (the library's word: 1 tick = 1 ns of virtual time).
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median by which it may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How long one invocation measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Workload names with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "edf_steady24",
        "24 fault-free nodes under EDF for 200 ms: the scheduler-task path does most of the work and cost that grows with simulated time dominates; healthy baseline of every sim_ metric",
    ),
    (
        "rm_steady24",
        "the identical spec under rate-monotonic priorities bypasses EdfPolicy and scheduler_step: a scheduler-path change must not move it, an engine or dispatcher change moves both",
    ),
    (
        "failover96",
        "96 nodes, nine closed-loop groups, two crash and rejoin cycles: engine queue, network transit and heartbeat handling dominate; the only workload that measures failover, detection and rejoin",
    ),
    (
        "fabric_1m",
        "10^6 clients over 64 shards with a leader crash mid-request: the replica-group request path of 128 groups and workload generation dominate, heartbeats do not; the memory workload",
    ),
    (
        "chaos_sweep8",
        "150 short fuzzer-generated 8-node runs with the watchdog armed and a populated fault plan: validate, lower, analysis and report fold carry the cost, so work moved into set-up shows as a loss",
    ),
];

/// End-to-end metrics: the same names on every workload. Host-time
/// metrics are the first quartile of many noisy observations and take
/// the widest bound the driver allows (this box's neighbours move them
/// by 5–25 % between invocations); `peak_rss_mb` steps by 15 % when a seed
/// pushes a hash table over a doubling; `sim_` metrics are pure
/// functions of `(spec, seed)` whose bounds only absorb seed-to-seed
/// variation.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("sim_response_p50", "ticks", Lower, 0.05),
    e2e("sim_response_p99", "ticks", Lower, 0.05),
    e2e("sim_on_time_share", "ratio", Higher, 0.02),
    e2e("sim_deadline_met_share", "ratio", Higher, 0.03),
    e2e("sim_goodput_rps", "1/s", Higher, 0.15),
    e2e("sim_detect_slack", "ticks", Higher, 0.25),
    e2e("sim_rejoin_slack", "ticks", Higher, 0.25),
];

/// Per-layer metrics: the traced repetition's `trace.*` family, then one
/// block per crate (layer names are crate/module names).
pub const PER_LAYER: &[MetricDef] = &[
    // Traced repetition of the invocation's workload.
    layer("trace.events", "count", Lower),
    layer("trace.messages", "count", Lower),
    layer("trace.heartbeats", "count", Lower),
    layer("trace.queue_depth_peak", "count", Lower),
    layer("trace.ctx_switches", "count", Lower),
    layer("trace.response_samples", "count", Higher),
    layer("trace.worst_response_us", "sim_us", Lower),
    layer("trace.detect_worst_us", "sim_us", Lower),
    layer("trace.rejoin_worst_us", "sim_us", Lower),
    layer("trace.ns_per_event", "ns", Lower),
    layer("trace.heartbeat_msg_share", "ratio", Lower),
    layer("trace.run_s", "s", Lower),
    layer("trace.engine_loop_s", "s", Lower),
    layer("trace.outside_loop_s", "s", Lower),
    layer("trace.handlers_actor_s", "s", Lower),
    layer("trace.handlers_dispatch_s", "s", Lower),
    layer("trace.queue_self_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // hades-sim::engine
    layer("sim.engine.hold_ns.d2k", "ns", Lower),
    layer("sim.engine.hold_ns.d9k", "ns", Lower),
    layer("sim.engine.hold_ns.d45k", "ns", Lower),
    layer("sim.engine.rearm_ns", "ns", Lower),
    layer("sim.engine.rearm_rss_kb", "kB", Lower),
    layer("sim.engine.pending_ns.d9k", "ns", Lower),
    // hades-sim::net + fault
    layer("sim.net.transit_ns.clean", "ns", Lower),
    layer("sim.net.transit_ns.faulted", "ns", Lower),
    // hades-sim::mux
    layer("sim.mux.deliver_ns", "ns", Lower),
    layer("sim.mux.fanout_ns.n96", "ns", Lower),
    // hades-dispatch
    layer("dispatch.job_ns.fixed", "ns", Lower),
    layer("dispatch.job_ns.edf", "ns", Lower),
    layer("dispatch.fixed_growth_x", "x", Lower),
    layer("dispatch.edf_growth_x", "x", Lower),
    layer("dispatch.runq_ns.q64", "ns", Lower),
    // hades-sched
    layer("sched.edf_notify_ns.l8", "ns", Lower),
    layer("sched.edf_notify_ns.l64", "ns", Lower),
    layer("sched.edf_feasible_us.t20", "us", Lower),
    layer("sched.rta_feasible_us.t20", "us", Lower),
    // hades-services
    layer("services.agent_event_ns.n24", "ns", Lower),
    layer("services.agent_event_ns.n96", "ns", Lower),
    layer("services.agent_growth_x", "x", Lower),
    layer("services.group_request_us.semi", "us", Lower),
    layer("services.group_request_us.active", "us", Lower),
    layer("services.group_request_us.passive", "us", Lower),
    layer("services.group_msgs_per_request.semi", "count", Lower),
    layer("services.rejoin_us_per_chunk", "us", Lower),
    // hades-cluster
    layer("cluster.validate_us.n24", "us", Lower),
    layer("cluster.validate_us.n96", "us", Lower),
    layer("cluster.watchdog_overhead_pct", "%", Lower),
    layer("cluster.telemetry_overhead_pct", "%", Lower),
    layer("cluster.profiler_overhead_pct", "%", Lower),
    // hades-fabric
    layer("fabric.gen_ns_per_request.poisson", "ns", Lower),
    layer("fabric.gen_ns_per_request.bursty", "ns", Lower),
    layer("fabric.gen_ns_per_request.ramp", "ns", Lower),
    layer("fabric.route_ns", "ns", Lower),
    layer("fabric.ring_build_us.v64", "us", Lower),
    // hades-chaos
    layer("chaos.generate_us", "us", Lower),
    layer("chaos.program_ms.p50", "ms", Lower),
    layer("chaos.program_ms.p90", "ms", Lower),
    layer("chaos.violating_programs", "count", Lower),
    // hades-telemetry
    layer("telemetry.counter_incr_ns.on", "ns", Lower),
    layer("telemetry.counter_incr_ns.off", "ns", Lower),
    layer("telemetry.histogram_record_ns", "ns", Lower),
    layer("telemetry.snapshot_us", "us", Lower),
    layer("telemetry.profiler_tick_ns", "ns", Lower),
];

/// The declaration of `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn metric_lines(out: &mut String, defs: &[MetricDef]) {
    for (i, m) in defs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            escape(m.name),
            escape(m.unit),
            escape(m.better.as_str())
        );
        if let Some(bound) = m.bound {
            let _ = write!(out, ", \"bound\": {bound}");
        }
        out.push_str(if i + 1 < defs.len() { "},\n" } else { "}\n" });
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n  \"command\": [");
    let command: Vec<String> = COMMAND.iter().map(|c| escape(c)).collect();
    out.push_str(&command.join(", "));
    let _ = write!(
        out,
        "],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"why\": {}}}",
            escape(name),
            escape(why)
        );
        out.push_str(if i + 1 < WORKLOADS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    metric_lines(&mut out, END_TO_END);
    out.push_str("  ],\n  \"per_layer\": [\n");
    metric_lines(&mut out, PER_LAYER);
    out.push_str("  ]\n}\n");
    out
}
