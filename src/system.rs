//! High-level deployment builder: tasks + policy + platform → report.
//!
//! [`HadesNode`] deploys a task set on its own: any number of
//! processors, one included, running only the tasks it is given, and it
//! returns the dispatcher's report. It is the front door of the
//! single-node experiments and of the paper's figures. The cluster's
//! front door, `hades_cluster::ClusterSpec`, cannot stand in for it: its
//! validation rejects fewer than two nodes (detection and membership
//! need a peer), and its lowering injects the middleware cost tasks and
//! a protocol agent per node into every run. Both front doors set their
//! scheduling policy up through the one [`Policy::deploy`].

use hades_dispatch::{CostModel, DispatchSim, ResourceProtocol, RunReport, SimConfig};
use hades_sim::{KernelModel, LinkConfig, Network};
use hades_task::task::TaskSetError;
use hades_task::{Task, TaskSet};
use hades_time::Duration;
use std::fmt;

pub use hades_sched::Policy;

/// Errors surfaced while assembling a deployment.
#[derive(Debug)]
pub enum SystemError {
    /// The task set failed validation.
    InvalidTaskSet(TaskSetError),
    /// No tasks were supplied.
    NoTasks,
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::InvalidTaskSet(e) => write!(f, "invalid task set: {e}"),
            SystemError::NoTasks => write!(f, "no tasks supplied"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::InvalidTaskSet(e) => Some(e),
            SystemError::NoTasks => None,
        }
    }
}

/// Builder assembling a simulated HADES deployment: tasks, a scheduling
/// policy, a resource protocol and a platform model.
///
/// See the crate-level quickstart for typical use.
#[derive(Debug)]
pub struct HadesNode {
    tasks: Vec<Task>,
    policy: Policy,
    cfg: SimConfig,
    srp: bool,
    pcp: bool,
    network: Option<Network>,
}

impl HadesNode {
    /// Starts a deployment with an ideal platform (zero costs, no kernel
    /// load) and a 100 ms horizon.
    pub fn new() -> Self {
        HadesNode {
            tasks: Vec::new(),
            policy: Policy::default(),
            cfg: SimConfig::ideal(Duration::from_millis(100)),
            srp: false,
            pcp: false,
            network: None,
        }
    }

    /// Adds a task.
    pub fn task(mut self, task: Task) -> Self {
        self.tasks.push(task);
        self
    }

    /// Adds several tasks.
    pub fn tasks(mut self, tasks: impl IntoIterator<Item = Task>) -> Self {
        self.tasks.extend(tasks);
        self
    }

    /// Selects the scheduling policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the dispatcher cost model (Section 4.1 constants).
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.cfg.costs = costs;
        self
    }

    /// Sets the background kernel model (Section 4.2 activities).
    pub fn kernel(mut self, kernel: KernelModel) -> Self {
        self.cfg.kernel = kernel;
        self
    }

    /// Sets the network link model for remote precedence constraints.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.cfg.link = link;
        self
    }

    /// Supplies a fully custom network (fault plans, per-link overrides).
    pub fn network(mut self, network: Network) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the simulation horizon.
    pub fn horizon(mut self, horizon: Duration) -> Self {
        self.cfg.horizon = horizon;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Uses the Stack Resource Policy for resource access (parameters
    /// computed from the task set).
    pub fn srp(mut self) -> Self {
        self.srp = true;
        self.pcp = false;
        self
    }

    /// Uses the Priority Ceiling Protocol for resource access.
    pub fn pcp(mut self) -> Self {
        self.pcp = true;
        self.srp = false;
        self
    }

    /// Sets remaining simulation options (miss policy, execution model,
    /// tracing, auto-activation) wholesale.
    pub fn configure(mut self, f: impl FnOnce(&mut SimConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Builds the simulation without running it (for callers that want to
    /// inject manual activations first).
    ///
    /// # Errors
    ///
    /// [`SystemError::NoTasks`] without tasks;
    /// [`SystemError::InvalidTaskSet`] when validation fails.
    pub fn build(mut self) -> Result<DispatchSim, SystemError> {
        if self.tasks.is_empty() {
            return Err(SystemError::NoTasks);
        }
        self.policy.deploy(self.tasks, |tasks| {
            let set = TaskSet::new(tasks).map_err(SystemError::InvalidTaskSet)?;
            if self.srp {
                let (levels, ceilings) = hades_dispatch::resources::srp_parameters(&set);
                self.cfg.protocol = ResourceProtocol::Srp { levels, ceilings };
            } else if self.pcp {
                let ceilings = hades_dispatch::resources::pcp_ceilings(&set);
                self.cfg.protocol = ResourceProtocol::Pcp { ceilings };
            }
            Ok(match self.network {
                Some(net) => DispatchSim::with_network(set, self.cfg, net),
                None => DispatchSim::new(set, self.cfg),
            })
        })
    }

    /// Builds and runs the deployment.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::build`] errors.
    pub fn run(self) -> Result<RunReport, SystemError> {
        Ok(self.build()?.run())
    }
}

impl Default for HadesNode {
    fn default() -> Self {
        HadesNode::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_task::prelude::*;

    fn task(id: u32, wcet_us: u64, period_us: u64) -> Task {
        Task::new(
            TaskId(id),
            Heug::single(CodeEu::new(
                format!("t{id}"),
                Duration::from_micros(wcet_us),
                ProcessorId(0),
            ))
            .unwrap(),
            ArrivalLaw::Periodic(Duration::from_micros(period_us)),
            Duration::from_micros(period_us),
        )
    }

    #[test]
    fn rm_deployment_runs() {
        let report = HadesNode::new()
            .task(task(0, 100, 1000))
            .task(task(1, 200, 2000))
            .policy(Policy::RateMonotonic)
            .horizon(Duration::from_millis(10))
            .run()
            .unwrap();
        assert!(report.all_deadlines_met());
        assert_eq!(report.notifications, 0, "static policy needs no scheduler");
    }

    #[test]
    fn edf_deployment_uses_scheduler_task() {
        let report = HadesNode::new()
            .tasks(vec![task(0, 100, 1000), task(1, 200, 2000)])
            .policy(Policy::Edf)
            .costs(CostModel {
                sched_notif: Duration::from_micros(1),
                ..CostModel::zero()
            })
            .horizon(Duration::from_millis(10))
            .run()
            .unwrap();
        assert!(report.all_deadlines_met());
        assert!(report.notifications > 0);
        assert!(report.scheduler_cpu > Duration::ZERO);
    }

    #[test]
    fn no_tasks_is_an_error() {
        assert!(matches!(HadesNode::new().run(), Err(SystemError::NoTasks)));
    }

    #[test]
    fn invalid_task_set_propagates() {
        let err = HadesNode::new()
            .task(task(0, 1, 100))
            .task(task(0, 1, 100))
            .run()
            .unwrap_err();
        assert!(matches!(err, SystemError::InvalidTaskSet(_)));
        assert!(err.to_string().contains("invalid task set"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn srp_protocol_installs() {
        let r0 = ResourceId(0);
        let mk = |id: u32, prio: u32| {
            Task::new(
                TaskId(id),
                Heug::single(
                    CodeEu::new(format!("t{id}"), Duration::from_micros(50), ProcessorId(0))
                        .with_resource(ResourceUse::exclusive(r0))
                        .with_priority(Priority::new(prio)),
                )
                .unwrap(),
                ArrivalLaw::Periodic(Duration::from_millis(1)),
                Duration::from_millis(1),
            )
        };
        let report = HadesNode::new()
            .tasks(vec![mk(0, 2), mk(1, 5)])
            .srp()
            .horizon(Duration::from_millis(5))
            .run()
            .unwrap();
        assert!(report.all_deadlines_met());
    }
}
