//! # hades-sched — pluggable scheduling policies and feasibility analyses
//!
//! This crate is the *application-dedicated* half of HADES (Section 2 of the
//! paper): everything that depends on task characteristics. It provides
//!
//! * [`fixed`] — static priority assignments: Rate Monotonic and Deadline
//!   Monotonic, installed offline into the task set;
//! * [`edf`] — the Earliest Deadline First policy as a dispatcher-driven
//!   scheduler task, reproducing the cooperation protocol of Figure 2;
//! * [`spring`] — a planning-based scheduler in the style of the Spring
//!   kernel \[RSS90\]: heuristic construction of a feasible schedule with
//!   admission control;
//! * [`analysis`] — feasibility tests: the Liu & Layland utilisation bound,
//!   response-time analysis for fixed priorities, and the EDF
//!   processor-demand test over the first busy period (Spuri \[Spu96\],
//!   theorem 7.1) — in both its *naive* form and the *cost-integrated* form
//!   of Section 5.3 that accounts for dispatcher constants, scheduler
//!   notifications and background kernel activities.
//!
//! The runtime protocols PCP and SRP live in `hades-dispatch`; this crate
//! computes their parameters (ceilings, preemption levels) via
//! `hades_dispatch::resources::{pcp_ceilings, srp_parameters}`.

#![warn(missing_docs)]

pub mod analysis;
pub mod edf;
pub mod fixed;
pub mod modes;
pub mod spring;
pub mod spring_policy;

use hades_dispatch::DispatchSim;
use hades_task::Task;

/// The scheduling policy a deployment installs on its nodes.
///
/// Static policies (RM/DM) are burned into the task set's priorities
/// offline via [`assign_rm`] / [`assign_dm`] and need no scheduler task;
/// [`Policy::Edf`] installs an [`EdfPolicy`] scheduler task on every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Rate Monotonic: static priorities by period, no scheduler task.
    #[default]
    RateMonotonic,
    /// Deadline Monotonic: static priorities by relative deadline.
    DeadlineMonotonic,
    /// Earliest Deadline First: dynamic priorities via a scheduler task on
    /// every node.
    Edf,
    /// Use the priorities declared on each `Code_EU` unchanged (for
    /// hand-tuned assignments and protocol experiments).
    Manual,
}

impl Policy {
    /// Deploys `tasks` under this policy — the one policy set-up of both
    /// front doors, `hades::HadesNode` and `hades_cluster::ClusterSpec`:
    /// RM and DM burn their static priorities into the tasks
    /// ([`assign_rm`] / [`assign_dm`]), `build` makes the dispatcher from
    /// the prioritised tasks, and EDF then installs one [`EdfPolicy`]
    /// scheduler task on every node that hosts a unit.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn deploy<E>(
        self,
        mut tasks: Vec<Task>,
        build: impl FnOnce(Vec<Task>) -> Result<DispatchSim, E>,
    ) -> Result<DispatchSim, E> {
        let mut edf_nodes: Vec<u32> = Vec::new();
        match self {
            Policy::RateMonotonic => assign_rm(&mut tasks),
            Policy::DeadlineMonotonic => assign_dm(&mut tasks),
            Policy::Edf => {
                edf_nodes = tasks
                    .iter()
                    .flat_map(|t| t.heug.eus().iter())
                    .map(|e| e.processor().0)
                    .collect();
                edf_nodes.sort_unstable();
                edf_nodes.dedup();
            }
            Policy::Manual => {}
        }
        let mut sim = build(tasks)?;
        for node in edf_nodes {
            sim.set_policy(node, Box::new(EdfPolicy::new()));
        }
        Ok(sim)
    }
}

pub use analysis::edf_demand::{edf_feasible, EdfAnalysisConfig, FeasibilityReport};
pub use analysis::rta::{rta_feasible, RtaReport};
pub use analysis::utilization::{edf_utilization_test, ll_bound, rm_utilization_test};
pub use edf::EdfPolicy;
pub use fixed::{assign_dm, assign_rm};
pub use modes::{ModeChange, ModeChangeReport};
pub use spring::{SpringPlanner, SpringRequest, SpringSchedule};
pub use spring_policy::SpringPolicy;
