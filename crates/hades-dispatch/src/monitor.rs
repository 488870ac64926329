//! Dispatcher monitoring (Section 3.2.1 of the paper).
//!
//! The dispatcher watches thread execution to detect the five event classes
//! the paper enumerates — and notes that, to the authors' knowledge, no
//! existing real-time environment implemented all of them:
//!
//! 1. deadline violations,
//! 2. violations of the declared arrival law of task activations,
//! 3. early thread termination and orphan threads (both reclaim resources),
//! 4. deadlocks (surfaced here as *stalls*: threads that can no longer
//!    make progress),
//! 5. network omission failures, observed through remote precedence
//!    constraints that fail to arrive in time.
//!
//! Each alarm is a telemetry [`MonitorEvent`], the type the protocol
//! actors emit too: the run's tap hears it when it is raised
//! ([`crate::DispatchSim::set_tap`]), then this report records it.

use hades_telemetry::MonitorEvent;

/// Aggregated monitoring output of one run.
#[derive(Debug, Clone, Default)]
pub struct MonitorReport {
    events: Vec<MonitorEvent>,
}

impl MonitorReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        MonitorReport::default()
    }

    /// Records an event.
    pub fn push(&mut self, ev: MonitorEvent) {
        self.events.push(ev);
    }

    /// All events in detection order.
    pub fn events(&self) -> &[MonitorEvent] {
        &self.events
    }

    /// Number of deadline misses.
    pub fn deadline_misses(&self) -> usize {
        self.count(|e| matches!(e, MonitorEvent::DeadlineMiss { .. }))
    }

    /// Number of arrival-law violations.
    pub fn arrival_violations(&self) -> usize {
        self.count(|e| matches!(e, MonitorEvent::ArrivalLawViolation { .. }))
    }

    /// Number of early terminations.
    pub fn early_terminations(&self) -> usize {
        self.count(|e| matches!(e, MonitorEvent::EarlyTermination { .. }))
    }

    /// Number of orphaned threads.
    pub fn orphans(&self) -> usize {
        self.count(|e| matches!(e, MonitorEvent::Orphan { .. }))
    }

    /// Number of network omissions detected.
    pub fn network_omissions(&self) -> usize {
        self.count(|e| matches!(e, MonitorEvent::NetworkOmission { .. }))
    }

    /// Number of stall detections.
    pub fn stalls(&self) -> usize {
        self.count(|e| matches!(e, MonitorEvent::Stall { .. }))
    }

    /// Number of latest-start overruns.
    pub fn latest_start_exceeded(&self) -> usize {
        self.count(|e| matches!(e, MonitorEvent::LatestStartExceeded { .. }))
    }

    /// Whether no alarms at all were raised.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether no alarms other than early terminations were raised (early
    /// termination is informational: it frees resources, it is not a
    /// fault).
    pub fn is_healthy(&self) -> bool {
        self.events
            .iter()
            .all(|e| matches!(e, MonitorEvent::EarlyTermination { .. }))
    }

    fn count(&self, kind: impl Fn(&MonitorEvent) -> bool) -> usize {
        self.events.iter().filter(|e| kind(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_time::{Duration, Time};

    #[test]
    fn counters_by_kind() {
        let mut r = MonitorReport::new();
        assert!(r.is_clean());
        r.push(MonitorEvent::DeadlineMiss {
            node: 0,
            task: 0,
            instance: 1,
            activated: Time::ZERO,
            deadline: Time::from_nanos(10),
        });
        r.push(MonitorEvent::EarlyTermination {
            thread: 1,
            wcet: Duration::from_nanos(10),
            actual: Duration::from_nanos(5),
        });
        r.push(MonitorEvent::Orphan {
            thread: 2,
            at: Time::from_nanos(20),
        });
        assert_eq!(r.deadline_misses(), 1);
        assert_eq!(r.early_terminations(), 1);
        assert_eq!(r.orphans(), 1);
        assert_eq!(r.arrival_violations(), 0);
        assert_eq!(r.network_omissions(), 0);
        assert_eq!(r.stalls(), 0);
        assert!(!r.is_clean());
        assert!(!r.is_healthy());
    }

    #[test]
    fn early_termination_only_is_healthy() {
        let mut r = MonitorReport::new();
        r.push(MonitorEvent::EarlyTermination {
            thread: 1,
            wcet: Duration::from_nanos(10),
            actual: Duration::from_nanos(5),
        });
        assert!(r.is_healthy());
        assert!(!r.is_clean());
    }
}
