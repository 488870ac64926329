//! # hades-services — generic robustness services (Section 2.2.1)
//!
//! The application-independent half of HADES: services exhibiting
//! reliability, timeliness and data-consistency properties shared by a
//! large spectrum of safety-critical domains. In the paper each service is
//! designed as a HEUG so its cost folds into the feasibility test; here
//! each service has **one** implementation over the bounded-delay network
//! of `hades-sim`, with explicit worst-case bounds exposed for exactly
//! that purpose.
//!
//! **Services that run in the cluster, as engine-driven actors** — what
//! `hades-cluster`, the fabric, the fuzzer and the lab deploy on every
//! node:
//!
//! * [`actors`] — [`actors::NodeAgent`], the per-node agent: heartbeat
//!   crash detection with `T₀ = H + δmax + γ`
//!   ([`AgentConfig::timeout`] / [`AgentConfig::detection_bound`] are the
//!   one statement of it), view-based membership agreed by a bounded
//!   flood or Δ-multicast of proposals, primary hand-over, and the
//!   crash→restart→rejoin protocol;
//! * [`group`] — [`group::ReplicaGroup`], active, semi-active and
//!   passive replication (\[Pol96\], named by [`replication`]) serving a
//!   client request stream over Δ-atomic multicast
//!   ([`comm::DeltaInbox`]);
//! * [`membership`] — the [`View`] record the agents install;
//! * [`memberset`] — variable-length membership bitsets with the compact
//!   wire encoding every membership-carrying message uses;
//! * [`recovery`] — sizing of checkpointed state transfer and the
//!   analytic rejoin-latency bounds.
//!
//! **Services that exist standalone only** — each the single
//! implementation of its Figure 1 box, reached from `crates/bench` and
//! `examples/power_plant.rs`:
//!
//! * [`consensus`] — synchronous flooding consensus on a *generic value*;
//!   the agent's view agreement is its own bitwise merge and exposes no
//!   consensus service;
//! * [`comm::BroadcastSim`] — reliable broadcast by diffusion, the only
//!   one; backs experiment E9;
//! * [`clocksync`] — the Lundelius–Lynch round (\[LL88\]) tolerating
//!   Byzantine clocks, the only one; backs E8. The cluster runs no sync
//!   round: it charges a sync task's WCET and computes the steady-state
//!   γ analytically;
//! * [`storage`] — persistent stable storage with atomic updates;
//! * [`checkpoint`] — state capture with bounded-replay recovery;
//! * [`depend`] — dependency tracking and orphan elimination (\[NMT97\]).

#![warn(missing_docs)]

pub mod actors;
pub mod checkpoint;
pub mod clocksync;
pub mod comm;
pub mod consensus;
pub mod depend;
pub mod group;
mod idset;
pub mod memberset;
pub mod membership;
pub mod recovery;
pub mod replication;
pub mod storage;
mod wire;

pub use actors::{AgentConfig, AgentLog, NodeAgent};
pub use checkpoint::{CheckpointService, Replayable};
pub use clocksync::{ClockSyncConfig, ClockSyncRun, PrecisionReport};
pub use comm::{BroadcastOutcome, BroadcastSim, DeltaInbox};
pub use consensus::{ConsensusConfig, ConsensusOutcome, FloodConsensus};
pub use depend::DependencyTracker;
pub use group::{FixedSchedule, GroupConfig, GroupLog, ReplicaGroup, RequestSource};
pub use memberset::{MemberSet, MAX_NODES};
pub use membership::View;
pub use recovery::{RecoveryConfig, RejoinRecord};
pub use replication::ReplicaStyle;
pub use storage::{StableStore, StorageError};
