//! # hades-services — generic robustness services (Section 2.2.1)
//!
//! The application-independent half of HADES: services exhibiting
//! reliability, timeliness and data-consistency properties shared by a
//! large spectrum of safety-critical domains. In the paper each service is
//! designed as a HEUG so its cost folds into the feasibility test; here
//! each service is a protocol simulation over the bounded-delay network of
//! `hades-sim`, with explicit worst-case bounds exposed for exactly that
//! purpose:
//!
//! * [`clocksync`] — the Lundelius–Lynch fault-tolerant clock
//!   synchronization protocol (\[LL88\]) tolerating Byzantine clocks;
//! * [`comm`] — time-bounded reliable point-to-point communication,
//!   reliable broadcast by diffusion, and Δ-protocol atomic multicast;
//! * [`detect`] — a heartbeat crash detector with bounded detection
//!   latency;
//! * [`consensus`] — synchronous flooding consensus tolerating crash
//!   faults;
//! * [`replication`] — active, passive and semi-active replication
//!   (\[Pol96\]), with measured failover behaviour;
//! * [`storage`] — persistent stable storage with atomic updates;
//! * [`depend`] — dependency tracking and orphan elimination (\[NMT97\]);
//! * [`membership`] — detector-triggered, consensus-agreed view changes;
//! * [`memberset`] — variable-length membership bitsets with a compact
//!   wire encoding (the post-`u64` representation circulated by every
//!   membership-carrying protocol, unbounded by the old 48-node cap);
//! * [`checkpoint`] — state capture with bounded-replay recovery;
//! * [`recovery`] — the crash→restart→rejoin lifecycle: sizing of
//!   checkpointed state transfer and the analytic rejoin-latency bounds;
//! * [`actors`] — the same protocols as engine-driven actors
//!   ([`actors::NodeAgent`]) for composition into a shared-engine cluster
//!   runtime (`hades-cluster`);
//! * [`group`] — replication groups over Δ-atomic multicast: the three
//!   replication styles as in-cluster actors ([`group::ReplicaGroup`])
//!   serving a client request stream on the shared network.

#![warn(missing_docs)]

pub mod actors;
pub mod checkpoint;
pub mod clocksync;
pub mod comm;
pub mod consensus;
pub mod depend;
pub mod detect;
pub mod group;
pub mod memberset;
pub mod membership;
pub mod recovery;
pub mod replication;
pub mod storage;

pub use actors::{AgentConfig, AgentLog, NodeAgent};
pub use checkpoint::{CheckpointService, Replayable};
pub use clocksync::{ClockSyncConfig, ClockSyncRun, PrecisionReport};
pub use comm::{
    BroadcastOutcome, BroadcastSim, DeltaInbox, DeltaMulticast, P2pConfig, P2pOutcome, ReliableP2p,
};
pub use consensus::{ConsensusConfig, ConsensusOutcome, FloodConsensus};
pub use depend::DependencyTracker;
pub use detect::{DetectorConfig, DetectorOutcome, HeartbeatDetector};
pub use group::{FixedSchedule, GroupConfig, GroupLog, ReplicaGroup, RequestSource};
pub use memberset::{MemberSet, MAX_NODES};
pub use membership::{MembershipOutcome, MembershipSim, View};
pub use recovery::{RecoveryConfig, RejoinRecord};
pub use replication::{ReplicaStyle, ReplicationOutcome, ReplicationSim};
pub use storage::{StableStore, StorageError};
