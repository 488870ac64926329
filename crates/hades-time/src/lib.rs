//! # hades-time — time primitives for the HADES middleware
//!
//! This crate provides the time foundation shared by every other HADES
//! subsystem:
//!
//! * [`Time`] and [`Duration`] — exact, integer nanosecond-tick time points
//!   and spans. Schedulers and feasibility analyses never touch floating
//!   point on the decision path, which keeps every result reproducible.
//! * [`clock`] — models of imperfect *hardware clocks* (bounded drift,
//!   offset, Byzantine fault injection) and of adjustable *virtual clocks*
//!   built on top of them, as assumed by the clock-synchronization service.
//! * [`sync`] — the algorithmic core of the Lundelius–Lynch fault-tolerant
//!   averaging clock-synchronization algorithm used by HADES (\[LL88\] in the
//!   paper), together with its precision bounds.
//!
//! # Examples
//!
//! ```
//! use hades_time::{Duration, Time};
//!
//! let start = Time::ZERO + Duration::from_millis(5);
//! let deadline = start + Duration::from_micros(250);
//! assert_eq!(deadline - start, Duration::from_micros(250));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod sync;
pub mod ticks;

pub use clock::{AdjustableClock, ClockFault, HardwareClock};
pub use sync::{fault_tolerant_midpoint, ConvergenceError, SyncRound};
pub use ticks::{Duration, Time};
