//! E4/E5: the cost tables of Section 4.
//!
//! The paper determines each dispatcher constant "either analytically or by
//! running worst-case scenario benchmarks" and characterises the kernel's
//! background activities by `(w, pseudo-period)` pairs. Here the constants
//! are *inputs* to the simulated platform, so the meaningful experiment is
//! a **fidelity check**: targeted micro-scenarios whose virtual-time
//! responses isolate each constant, verifying that the executed charge
//! matches the configured value exactly — the property the whole
//! cost-integration methodology rests on. (Host-time microbenchmarks of
//! the dispatcher primitives are the lab's `dispatch.*` metrics,
//! `benchmark/src/layers.rs`.)

use hades_dispatch::{CostModel, DispatchSim, SimConfig};
use hades_sim::KernelModel;
use hades_task::prelude::*;
use std::fmt::Write;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn single_run(
    tasks: Vec<Task>,
    costs: CostModel,
    activations: &[(TaskId, Time)],
) -> hades_dispatch::RunReport {
    let set = TaskSet::new(tasks).expect("valid set");
    let mut cfg = SimConfig::ideal(Duration::from_millis(5));
    cfg.costs = costs;
    cfg.auto_activate = false;
    let mut sim = DispatchSim::new(set, cfg);
    for (t, at) in activations {
        sim.activate_at(*t, *at);
    }
    sim.run()
}

/// E4: dispatcher activity constants — configured vs observed charge.
pub fn dispatcher_cost_table() -> String {
    let mut out = String::new();
    let costs = CostModel::measured_default();
    let _ = writeln!(out, "E4 / Section 4.1 — dispatcher activity costs");
    let _ = writeln!(out, "============================================");
    let _ = writeln!(
        out,
        "{:<14} {:>11} {:>11} {:>7}",
        "constant", "configured", "observed", "match"
    );

    let mut row = |name: &str, configured: Duration, observed: Duration| {
        let _ = writeln!(
            out,
            "{:<14} {:>11} {:>11} {:>7}",
            name,
            configured.to_string(),
            observed.to_string(),
            if configured == observed { "yes" } else { "NO" }
        );
    };

    // C_act_start + C_act_end + C_ctx: response of a lone 100 µs action.
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("lone", us(100), ProcessorId(0))).expect("valid"),
        ArrivalLaw::Aperiodic,
        us(2_000),
    );
    let r = single_run(vec![t], costs, &[(TaskId(0), Time::ZERO)]);
    let observed = r.worst_response_times()[&TaskId(0)] - us(100);
    row(
        "act_start+end",
        costs.act_start + costs.act_end + costs.ctx_switch,
        observed,
    );

    // C_loc_prec: two-unit chain adds one local precedence + one extra
    // action overhead + one extra context switch.
    let mut b = HeugBuilder::new("chain");
    let a = b.code_eu(CodeEu::new("a", us(100), ProcessorId(0)));
    let c = b.code_eu(CodeEu::new("b", us(100), ProcessorId(0)));
    b.precede(a, c);
    let t = Task::new(
        TaskId(0),
        b.build().expect("valid"),
        ArrivalLaw::Aperiodic,
        us(2_000),
    );
    let r = single_run(vec![t], costs, &[(TaskId(0), Time::ZERO)]);
    let chain_overhead = r.worst_response_times()[&TaskId(0)] - us(200);
    let loc_prec_observed =
        chain_overhead - (costs.act_start + costs.act_end + costs.ctx_switch).saturating_mul(2);
    row("loc_prec", costs.loc_prec, loc_prec_observed);

    // C_rem_prec: remote edge on a zero-delay link.
    let mut b = HeugBuilder::new("remote");
    let a = b.code_eu(CodeEu::new("a", us(100), ProcessorId(0)));
    let c = b.code_eu(CodeEu::new("b", us(100), ProcessorId(1)));
    b.precede(a, c);
    let t = Task::new(
        TaskId(0),
        b.build().expect("valid"),
        ArrivalLaw::Aperiodic,
        us(2_000),
    );
    let set = TaskSet::new(vec![t]).expect("valid");
    let mut cfg = SimConfig::ideal(Duration::from_millis(5));
    cfg.costs = costs;
    cfg.auto_activate = false;
    cfg.link = hades_sim::LinkConfig::reliable(us(50), us(50)); // exact transit
    let mut sim = DispatchSim::new(set, cfg);
    sim.activate_at(TaskId(0), Time::ZERO);
    let r = sim.run();
    let rem_overhead = r.worst_response_times()[&TaskId(0)] - us(200) - us(50);
    let rem_prec_observed =
        rem_overhead - (costs.act_start + costs.act_end + costs.ctx_switch).saturating_mul(2);
    row("rem_prec", costs.rem_prec, rem_prec_observed);

    // C_inv_start + C_inv_end: synchronous invocation wrapper.
    let callee = Task::new(
        TaskId(1),
        Heug::single(CodeEu::new("callee", us(100), ProcessorId(0))).expect("valid"),
        ArrivalLaw::Aperiodic,
        us(2_000),
    );
    let mut b = HeugBuilder::new("caller");
    b.inv_eu(InvEu::sync("call", TaskId(1), ProcessorId(0)));
    let caller = Task::new(
        TaskId(0),
        b.build().expect("valid"),
        ArrivalLaw::Aperiodic,
        us(2_000),
    );
    let r = single_run(vec![caller, callee], costs, &[(TaskId(0), Time::ZERO)]);
    // Caller response = inv_start + (callee: ctx+start+100+end) + inv_end
    // + 2 ctx for the inv thread's two dispatches.
    let caller_rt = r.worst_response_times()[&TaskId(0)];
    let callee_cost = us(100) + costs.act_start + costs.act_end + costs.ctx_switch;
    let inv_observed = caller_rt - callee_cost - costs.ctx_switch.saturating_mul(2);
    row(
        "inv_start+end",
        costs.inv_start + costs.inv_end,
        inv_observed,
    );

    // sched_notif: EDF scheduler charged per notification.
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("job", us(100), ProcessorId(0))).expect("valid"),
        ArrivalLaw::Aperiodic,
        us(2_000),
    );
    let set = TaskSet::new(vec![t]).expect("valid");
    let mut cfg = SimConfig::ideal(Duration::from_millis(5));
    cfg.costs = costs;
    cfg.auto_activate = false;
    let mut sim = DispatchSim::new(set, cfg);
    sim.set_policy(0, Box::new(hades_sched::EdfPolicy::new()));
    sim.activate_at(TaskId(0), Time::ZERO);
    let r = sim.run();
    // One Atv + one Trm notification.
    row(
        "sched_notif x2",
        costs.sched_notif.saturating_mul(2),
        r.scheduler_cpu,
    );
    out
}

/// E5: the kernel activity characterisation table of Section 4.2.
pub fn kernel_activity_table() -> String {
    let mut out = String::new();
    let kernel = KernelModel::chorus_like();
    let _ = writeln!(out, "E5 / Section 4.2 — background kernel activities");
    let _ = writeln!(out, "===============================================");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>14} {:>12}",
        "activity", "wcet", "pseudo-period", "utilisation"
    );
    for a in kernel.activities() {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>14} {:>11.4}%",
            a.name,
            a.wcet.to_string(),
            a.pseudo_period.to_string(),
            a.utilization() * 100.0
        );
    }
    let _ = writeln!(
        out,
        "total background utilisation: {:.4}%",
        kernel.utilization() * 100.0
    );
    // Fidelity: a measured run charges exactly K(horizon) in the
    // worst-case (back-to-back) arrival pattern.
    let horizon = Duration::from_millis(10);
    let t = Task::new(
        TaskId(0),
        Heug::single(CodeEu::new("bg", us(10), ProcessorId(0))).expect("valid"),
        ArrivalLaw::Periodic(Duration::from_millis(1)),
        Duration::from_millis(1),
    );
    let set = TaskSet::new(vec![t]).expect("valid");
    let mut cfg = SimConfig::ideal(horizon);
    cfg.kernel = kernel.clone();
    let mut sim = DispatchSim::new(set, cfg);
    let r = sim.run();
    let _ = writeln!(
        out,
        "demand K({horizon}) analytic: {}   charged in simulation: {}",
        kernel.demand(horizon),
        r.kernel_cpu
    );
    out
}
