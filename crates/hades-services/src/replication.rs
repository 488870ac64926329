//! Replication services: passive, active and semi-active (\[Pol96\]).
//!
//! HADES promises transparent fault tolerance through replication
//! (Section 2.2.1, item ii). The three classic styles trade overhead
//! against failover latency:
//!
//! * **Active** — all replicas execute every request and vote; a crash is
//!   masked instantly (zero failover) at the price of `n×` execution and
//!   per-request voting traffic.
//! * **Semi-active** — all replicas execute but only the leader emits
//!   output; a follower takes over after crash *detection*, with no state
//!   transfer.
//! * **Passive** — only the primary executes, checkpointing its state to
//!   backups every `k` requests; failover pays detection plus replay of
//!   the requests since the last checkpoint.
//!
//! The styles run in [`crate::group::ReplicaGroup`]; this module names
//! them.

/// The replication style of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStyle {
    /// All replicas execute; output by majority vote.
    Active,
    /// All replicas execute; only the leader outputs.
    SemiActive,
    /// Primary executes; state checkpointed every `checkpoint_every`
    /// requests.
    Passive {
        /// Requests between checkpoints.
        checkpoint_every: u32,
    },
}

impl ReplicaStyle {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ReplicaStyle::Active => "active",
            ReplicaStyle::SemiActive => "semi-active",
            ReplicaStyle::Passive { .. } => "passive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn style_names() {
        assert_eq!(ReplicaStyle::Active.name(), "active");
        assert_eq!(ReplicaStyle::SemiActive.name(), "semi-active");
        assert_eq!(
            ReplicaStyle::Passive {
                checkpoint_every: 1
            }
            .name(),
            "passive"
        );
    }
}
