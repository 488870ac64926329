//! # hades-dispatch — the generic HADES dispatcher (Section 3.2 of the paper)
//!
//! The dispatcher is the application-independent half of HADES' scheduling
//! machinery. It owns the priority-ordered **Run Queue**, allocates
//! resources (including the CPU), enforces the four *runnable* conditions —
//!
//! 1. all precedence predecessors have finished,
//! 2. all required resources can be granted,
//! 3. all awaited condition variables are set,
//! 4. the current time has reached the thread's earliest start time —
//!
//! and the *running* rule (highest priority wins, moderated by preemption
//! thresholds). It cooperates with a pluggable [`SchedulerPolicy`] through a
//! shared notification FIFO (`Atv`, `Trm`, `Rac`, `Rre`) and the *dispatcher
//! primitive* (priority / earliest-start changes), exactly as in
//! Section 3.2.2. It also performs the monitoring duties of Section 3.2.1:
//! deadline misses, arrival-law violations, early terminations, orphans,
//! deadlocks/stalls and network omissions — each a telemetry
//! `MonitorEvent` on the run's one tap ([`DispatchSim::set_tap`]).
//!
//! Every dispatcher-induced activity is *charged in virtual time* according
//! to a [`CostModel`] (Section 4.1), and background kernel interrupts from a
//! [`hades_sim::KernelModel`] steal the CPU at `prio_max` (Section 4.2) —
//! the substrate for the cost-integration experiments.
//!
//! The entry point is [`DispatchSim`]: build it from a
//! [`hades_task::TaskSet`], choose costs / kernel / policy / resource
//! protocol, and [`DispatchSim::run`] it to get a [`RunReport`].
//!
//! The report is O(tasks), not O(activations): when an instance's
//! outcome becomes final the dispatcher folds it into its task's
//! [`TaskOutcome`] and hands it once to the tap as
//! `MonitorEvent::InstanceSettled`. Memory stays flat however long the
//! simulated horizon; a caller that wants every instance collects that
//! stream.

#![warn(missing_docs)]

pub mod costs;
pub mod monitor;
pub mod notify;
pub mod report;
pub mod resources;
pub mod runq;
pub mod sim;
pub mod thread;
mod window;

pub use costs::CostModel;
pub use monitor::MonitorReport;
pub use notify::{AttrChange, Notification, NotificationKind, SchedulerPolicy, ThreadSnapshot};
pub use report::{RunReport, Tallies, TaskOutcome};
pub use resources::ResourceProtocol;
pub use runq::RunQueue;
pub use sim::{DispatchSim, ExecTimeModel, MissPolicy, SimConfig};
pub use thread::{ThreadId, ThreadState};
