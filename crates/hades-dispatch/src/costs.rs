//! The dispatcher cost model (Section 4.1 of the paper).
//!
//! Dispatcher activities recur with the same frequency as the application
//! tasks that cause them, so the paper folds their worst-case execution
//! times into the application WCETs as a set of constants. [`CostModel`]
//! carries those constants; the simulated dispatcher charges them in
//! virtual time and the feasibility tests of `hades-sched` inflate task
//! WCETs with them, keeping analysis and execution consistent by
//! construction.

use hades_time::Duration;

/// Worst-case execution times of the dispatcher activities.
///
/// The names map one-to-one onto the constants of Section 4.1:
///
/// | Field          | Paper constant       | Charged when |
/// |----------------|----------------------|--------------|
/// | `loc_prec`     | `C_loc_prec`         | each local precedence constraint is verified (includes the data copy and the context switch) |
/// | `rem_prec`     | `C_rem_prec`         | data is handed to the communication protocol for a remote constraint (the transit itself is the network task's) |
/// | `act_start`    | `C_act_start`        | an action starts |
/// | `act_end`      | `C_act_end`          | an action ends |
/// | `inv_start`    | `C_inv_start`        | a task invocation begins |
/// | `inv_end`      | `C_inv_end`          | a task invocation ends |
/// | `ctx_switch`   | (part of `C_loc_prec` in the paper; kept explicit here) | a thread is dispatched onto the CPU |
/// | `sched_notif`  | `S` in Section 5.3   | the scheduler task processes one notification |
///
/// # Examples
///
/// ```
/// use hades_dispatch::CostModel;
/// use hades_time::Duration;
///
/// let zero = CostModel::zero();
/// assert!(zero.is_zero());
/// let real = CostModel::measured_default();
/// assert!(real.action_overhead() > Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// `C_loc_prec`: verifying one local precedence constraint.
    pub loc_prec: Duration,
    /// `C_rem_prec`: handing data to the communication protocol.
    pub rem_prec: Duration,
    /// `C_act_start`: dispatcher + kernel work to start an action.
    pub act_start: Duration,
    /// `C_act_end`: dispatcher + kernel work to end an action.
    pub act_end: Duration,
    /// `C_inv_start`: beginning a task invocation.
    pub inv_start: Duration,
    /// `C_inv_end`: ending a task invocation.
    pub inv_end: Duration,
    /// One context switch (charged at each dispatch of a thread).
    pub ctx_switch: Duration,
    /// Scheduler cost per processed notification (`S` in Section 5.3).
    pub sched_notif: Duration,
}

impl CostModel {
    /// The idealised model: every overhead is zero. This is the "naive"
    /// baseline of the feasibility experiments — schedulability tests that
    /// assume it can accept task sets that miss deadlines on the real
    /// platform.
    pub const fn zero() -> Self {
        CostModel {
            loc_prec: Duration::ZERO,
            rem_prec: Duration::ZERO,
            act_start: Duration::ZERO,
            act_end: Duration::ZERO,
            inv_start: Duration::ZERO,
            inv_end: Duration::ZERO,
            ctx_switch: Duration::ZERO,
            sched_notif: Duration::ZERO,
        }
    }

    /// A model in the ballpark the paper measured on ChorusR3/Pentium
    /// (single-digit microseconds per dispatcher activity). The precise
    /// values for *this* platform are produced by the `bench` crate's
    /// worst-case-scenario benchmarks, mirroring the paper's methodology.
    pub const fn measured_default() -> Self {
        CostModel {
            loc_prec: Duration::from_micros(4),
            rem_prec: Duration::from_micros(9),
            act_start: Duration::from_micros(3),
            act_end: Duration::from_micros(3),
            inv_start: Duration::from_micros(5),
            inv_end: Duration::from_micros(4),
            ctx_switch: Duration::from_micros(2),
            sched_notif: Duration::from_micros(6),
        }
    }

    /// Whether every constant is zero.
    pub fn is_zero(&self) -> bool {
        self.loc_prec.is_zero()
            && self.rem_prec.is_zero()
            && self.act_start.is_zero()
            && self.act_end.is_zero()
            && self.inv_start.is_zero()
            && self.inv_end.is_zero()
            && self.ctx_switch.is_zero()
            && self.sched_notif.is_zero()
    }

    /// Fixed overhead added to every action: `C_act_start + C_act_end`.
    pub fn action_overhead(&self) -> Duration {
        self.act_start + self.act_end
    }

    /// The inflated WCET of an action with `local_edges` outgoing local and
    /// `remote_edges` outgoing remote precedence constraints — the
    /// substitution `w → w + C_act_start + C_act_end + Σ C_prec` that
    /// Section 4.1 prescribes for feasibility tests.
    pub fn inflate_action(&self, w: Duration, local_edges: u64, remote_edges: u64) -> Duration {
        w + self.action_overhead()
            + self.loc_prec.saturating_mul(local_edges)
            + self.rem_prec.saturating_mul(remote_edges)
    }

    /// Returns a copy scaled by `factor_permille / 1000` (for overhead
    /// sweep experiments; rounding is per-field, toward zero).
    pub fn scaled(&self, factor_permille: u64) -> CostModel {
        let s = |d: Duration| Duration::from_nanos(d.as_nanos() * factor_permille / 1000);
        CostModel {
            loc_prec: s(self.loc_prec),
            rem_prec: s(self.rem_prec),
            act_start: s(self.act_start),
            act_end: s(self.act_end),
            inv_start: s(self.inv_start),
            inv_end: s(self.inv_end),
            ctx_switch: s(self.ctx_switch),
            sched_notif: s(self.sched_notif),
        }
    }
}

impl Default for CostModel {
    /// Defaults to [`CostModel::measured_default`].
    fn default() -> Self {
        CostModel::measured_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_zero() {
        assert!(CostModel::zero().is_zero());
        assert!(!CostModel::measured_default().is_zero());
        assert_eq!(CostModel::zero().action_overhead(), Duration::ZERO);
    }

    #[test]
    fn overhead_sums() {
        let m = CostModel::measured_default();
        assert_eq!(m.action_overhead(), Duration::from_micros(6));
    }

    #[test]
    fn inflation_counts_edges() {
        let m = CostModel::measured_default();
        let w = Duration::from_micros(100);
        // w + 6 (start/end) + 2*4 (local) + 1*9 (remote)
        assert_eq!(m.inflate_action(w, 2, 1), Duration::from_micros(123));
        assert_eq!(
            CostModel::zero().inflate_action(w, 5, 5),
            w,
            "zero model never inflates"
        );
    }

    #[test]
    fn scaling_is_linear() {
        let m = CostModel::measured_default();
        let half = m.scaled(500);
        assert_eq!(half.loc_prec, Duration::from_micros(2));
        assert_eq!(half.rem_prec, Duration::from_nanos(4_500));
        let double = m.scaled(2000);
        assert_eq!(double.act_start, Duration::from_micros(6));
        assert!(m.scaled(0).is_zero());
    }

    #[test]
    fn default_is_measured() {
        assert_eq!(CostModel::default(), CostModel::measured_default());
    }
}
