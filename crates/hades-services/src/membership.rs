//! View-based group membership: the agreed view record.
//!
//! Replication and reconfiguration need the group to agree on *who is in*:
//! a **membership** service producing a totally ordered sequence of views.
//! The service itself runs inside [`crate::actors::NodeAgent`] — the
//! heartbeat detector raises a suspicion, the exclusion (or re-admission)
//! is agreed by a bounded flood of proposals, and every surviving member
//! installs the identical next [`View`] a bounded time after the failure.
//! This module holds the record those installs produce.

use hades_time::Time;

/// One installed view: the agreed membership after some failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Monotone view number (view 0 is the initial full membership).
    pub number: u32,
    /// Members of the view, ascending.
    pub members: Vec<u32>,
    /// When the view was installed (agreement reached).
    pub installed_at: Time,
}
