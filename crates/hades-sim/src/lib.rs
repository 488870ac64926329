//! # hades-sim — deterministic discrete-event simulation substrate
//!
//! The HADES paper runs on a COTS real-time kernel (ChorusR3) over an ATM
//! network. This crate is our substitute substrate: a deterministic
//! discrete-event simulator providing
//!
//! * [`engine`] — the event queue and run loop. Simulations implement
//!   [`Simulation`] and receive their own event type back at the scheduled
//!   virtual time; ties are broken FIFO so every run is reproducible.
//! * [`net`] — a network of point-to-point links with bounded delays
//!   `[δmin, δmax]`, omission failures and performance (late-delivery)
//!   failures, matching the paper's communication fault model.
//! * [`fault`] — fault plans: scripted crash windows (crash and restart),
//!   one-way link cuts, degraded links (extra delay and loss), slow nodes
//!   and clock skews; probabilistic omissions live on the link. A
//!   [`FaultOp`] is one such fault, and [`FaultPlan::apply`] the one rule
//!   every run applies it with.
//! * [`kernel`] — the background kernel-activity model of Section 4.2:
//!   a periodic clock interrupt and sporadic network interrupts, each with a
//!   worst-case execution time and pseudo-period.
//! * [`mux`] — the multi-consumer engine handle: per-node protocol actors
//!   ([`mux::NetActor`]) sharing one engine and one network, standalone via
//!   [`mux::ActorEngine`] or embedded in another run loop via
//!   [`mux::ActorHost`].
//! * [`rng`] — a seedable, splittable deterministic random source.
//! * [`trace`] — an execution trace recorder (event log + Gantt segments)
//!   used by the monitoring experiments and by the figure reproductions.
//!
//! # Examples
//!
//! ```
//! use hades_sim::{Engine, Scheduler, Simulation};
//! use hades_time::{Duration, Time};
//!
//! struct Counter(u32);
//! impl Simulation for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: Time, _ev: (), sched: &mut Scheduler<()>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             sched.post(now + Duration::from_millis(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Counter(0);
//! let mut engine = Engine::new();
//! engine.post(Time::ZERO, ());
//! engine.run(&mut sim, Time::MAX);
//! assert_eq!(sim.0, 3);
//! assert_eq!(engine.now(), Time::ZERO + Duration::from_millis(2));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod kernel;
pub mod mux;
pub mod net;
pub mod rng;
pub mod trace;

pub use engine::{Engine, EventId, Retarget, RunCopy, Scheduler, Simulation};
pub use fault::{CrashWindow, Edges, FaultOp, FaultPlan, OmissionWindow};
pub use kernel::{KernelActivity, KernelModel};
pub use mux::{
    ActorCtx, ActorEngine, ActorEvent, ActorHost, ActorId, ControlOp, NetActor, Place, Postbox,
    Reactions, Staged,
};
pub use net::{Delivery, LinkConfig, Network, NetworkStats, NodeId};
pub use rng::SimRng;
pub use trace::{Gantt, Trace, TraceEvent, TraceKind};
