//! Invariant-guided chaos testing for HADES cluster specs.
//!
//! The deterministic simulation makes every cluster run a pure function
//! of its spec, and the online watchdog ([`hades_telemetry::monitor`])
//! turns protocol invariants — view agreement, bounded failover, no
//! duplicate outputs, no stalled transfers, no silent groups — into a
//! machine-checkable oracle. This crate closes the loop into a fuzzer:
//!
//! * [`program::ChaosProgram`] is a *typed* fault/load script over the
//!   full gray-failure vocabulary of the runtime control plane — every
//!   [`hades_cluster::FaultOp`] (crash windows, asymmetric link cuts,
//!   degraded links, slow nodes, clock skew), plus detection-triggered
//!   common-cause bursts, workload throttles and service retire/admit;
//! * [`program::ProgramDriver`] runs a program as a reactive
//!   [`hades_cluster::ScenarioDriver`] against any spec;
//! * [`fuzzer::ChaosFuzzer`] generates random programs from a seeded
//!   [`hades_sim::SimRng`], runs each with [`Watchdog::standard`]
//!   armed, treats any raised violation as a counterexample, and
//!   delta-debugs it — drop ops, narrow windows, shift instants
//!   earlier, relabel nodes downward — into a locally minimal
//!   *canonical* program that still reproduces the violation;
//!   campaigns deduplicate counterexamples whose canonical programs
//!   are isomorphic, so they report distinct bugs, not distinct seeds;
//! * [`corpus`] serializes found scenarios as one-line JSON entries so
//!   regressions replay from a committed corpus file. A scenario
//!   graduates *out* of the corpus when the bug it pinned is fixed —
//!   its line must be removed because it no longer reproduces.
//!
//! Everything is deterministic: the same fuzzer seed yields the same
//! programs, the same violations and byte-identical JSONL.
//!
//! [`Watchdog::standard`]: hades_telemetry::monitor::Watchdog::standard
//!
//! # Examples
//!
//! Replaying a committed counterexample (a fast clock on the store
//! leader answers every request late — a pure gray failure) and
//! checking its invariant violation fires:
//!
//! ```
//! use hades_chaos::corpus::CorpusScenario;
//! use hades_chaos::program::{ChaosOp, ChaosProgram};
//! use hades_chaos::fuzzer::ViolationKey;
//! use hades_cluster::FaultOp;
//! use hades_time::{Duration, Time};
//!
//! let scenario = CorpusScenario {
//!     name: "skewed-leader-silence".into(),
//!     nodes: 4,
//!     horizon: Duration::from_millis(100),
//!     seed: 7,
//!     expect: ViolationKey { monitor: "silent-group".into(), node: None, group: Some(0) },
//!     program: ChaosProgram {
//!         ops: vec![ChaosOp::Fault(FaultOp::Skew {
//!             node: 0,
//!             at: Time::ZERO,
//!             drift_ppb: 8_799_611,
//!         })],
//!     },
//! };
//! assert!(scenario.reproduces(), "the committed counterexample still fires");
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod fuzzer;
pub mod program;
pub mod specs;

pub use corpus::{parse_corpus, CorpusScenario};
pub use fuzzer::{Campaign, ChaosFuzzer, Counterexample, FuzzConfig, ViolationKey};
pub use program::{ChaosOp, ChaosProgram, ProgramDriver};
pub use specs::standard_spec;
