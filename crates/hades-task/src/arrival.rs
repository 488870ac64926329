//! Task activation arrival laws (Section 3.1.2 of the paper).
//!
//! Activation requests for a task may be triggered by an `Inv_EU`, a timer
//! or an interrupt, and follow one of three laws: **periodic** (fixed
//! separation), **sporadic** (minimum separation, the *pseudo-period*) or
//! **aperiodic** (arbitrary). The dispatcher uses the declared law for
//! monitoring: an activation arriving earlier than the law permits is an
//! *arrival-law violation* alarm.

use hades_time::{Duration, Time};

/// The arrival law of a task's activation requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalLaw {
    /// Successive activations separated by exactly the period.
    Periodic(Duration),
    /// Successive activations separated by at least the pseudo-period.
    Sporadic(Duration),
    /// Arbitrary separation.
    Aperiodic,
}

impl ArrivalLaw {
    /// The minimum separation guaranteed between activations, if any.
    pub fn min_separation(&self) -> Option<Duration> {
        match self {
            ArrivalLaw::Periodic(p) | ArrivalLaw::Sporadic(p) => Some(*p),
            ArrivalLaw::Aperiodic => None,
        }
    }

    /// Whether an activation at `now`, following one at `prev`, respects
    /// the law.
    pub fn permits(&self, prev: Time, now: Time) -> bool {
        match self {
            ArrivalLaw::Periodic(p) | ArrivalLaw::Sporadic(p) => now >= prev.saturating_add(*p),
            ArrivalLaw::Aperiodic => true,
        }
    }

    /// Worst-case number of activations in a window of length `t`
    /// (`⌈t / p⌉`); `None` for aperiodic laws, whose density is unbounded.
    pub fn max_arrivals_in(&self, t: Duration) -> Option<u64> {
        self.min_separation().map(|p| t.div_ceil(p))
    }

    /// Whether this law is periodic.
    pub fn is_periodic(&self) -> bool {
        matches!(self, ArrivalLaw::Periodic(_))
    }
}

/// Generator of the activation instants of a periodic task with an offset,
/// used by experiment drivers and the validation harness.
///
/// # Examples
///
/// ```
/// use hades_task::arrival::periodic_activations;
/// use hades_time::{Duration, Time};
///
/// let acts = periodic_activations(
///     Time::ZERO,
///     Duration::from_millis(10),
///     Time::from_nanos(25_000_000),
/// );
/// assert_eq!(acts.len(), 3); // t = 0, 10 ms, 20 ms
/// ```
pub fn periodic_activations(offset: Time, period: Duration, until: Time) -> Vec<Time> {
    assert!(!period.is_zero(), "period must be positive");
    let mut out = Vec::new();
    let mut t = offset;
    while t <= until {
        out.push(t);
        match t.checked_add(period) {
            Some(next) => t = next,
            None => break,
        }
    }
    out
}

/// Run-time monitor of one task's arrival law: feeds the dispatcher's
/// arrival-law-violation detection (Section 3.2.1, event ii).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArrivalMonitor {
    last: Option<Time>,
    violations: u32,
}

impl ArrivalMonitor {
    /// Creates a monitor that has seen no activations.
    pub fn new() -> Self {
        ArrivalMonitor::default()
    }

    /// Records an activation at `now` under `law`. Returns `true` if the
    /// activation violates the law.
    pub fn observe(&mut self, law: ArrivalLaw, now: Time) -> bool {
        let violated = match self.last {
            Some(prev) => !law.permits(prev, now),
            None => false,
        };
        if violated {
            self.violations += 1;
        }
        self.last = Some(now);
        violated
    }

    /// Number of violations observed so far.
    pub fn violations(&self) -> u32 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn min_separation_by_law() {
        assert_eq!(ArrivalLaw::Periodic(MS).min_separation(), Some(MS));
        assert_eq!(ArrivalLaw::Sporadic(MS).min_separation(), Some(MS));
        assert_eq!(ArrivalLaw::Aperiodic.min_separation(), None);
    }

    #[test]
    fn permits_enforces_separation() {
        let law = ArrivalLaw::Sporadic(MS);
        let t0 = Time::ZERO;
        assert!(law.permits(t0, t0 + MS));
        assert!(law.permits(t0, t0 + MS * 5));
        assert!(!law.permits(t0, t0 + MS - Duration::from_nanos(1)));
        assert!(ArrivalLaw::Aperiodic.permits(t0, t0));
    }

    #[test]
    fn max_arrivals_uses_ceiling() {
        let law = ArrivalLaw::Periodic(MS);
        assert_eq!(law.max_arrivals_in(MS * 10), Some(10));
        assert_eq!(
            law.max_arrivals_in(MS * 10 + Duration::from_nanos(1)),
            Some(11)
        );
        assert_eq!(ArrivalLaw::Aperiodic.max_arrivals_in(MS), None);
    }

    #[test]
    fn periodic_activation_list() {
        let acts = periodic_activations(Time::from_nanos(500), MS, Time::from_nanos(2_500_000));
        assert_eq!(
            acts,
            vec![
                Time::from_nanos(500),
                Time::from_nanos(1_000_500),
                Time::from_nanos(2_000_500),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_activations_panics() {
        periodic_activations(Time::ZERO, Duration::ZERO, Time::MAX);
    }

    #[test]
    fn monitor_counts_violations() {
        let law = ArrivalLaw::Sporadic(MS);
        let mut m = ArrivalMonitor::new();
        assert!(!m.observe(law, Time::ZERO), "first activation always legal");
        assert!(m.observe(law, Time::from_nanos(10)), "too soon");
        assert!(!m.observe(law, Time::from_nanos(10 + 1_000_000)));
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn monitor_aperiodic_never_violates() {
        let mut m = ArrivalMonitor::new();
        for i in 0..5 {
            assert!(!m.observe(ArrivalLaw::Aperiodic, Time::from_nanos(i)));
        }
        assert_eq!(m.violations(), 0);
    }

    #[test]
    fn is_periodic_flag() {
        assert!(ArrivalLaw::Periodic(MS).is_periodic());
        assert!(!ArrivalLaw::Sporadic(MS).is_periodic());
        assert!(!ArrivalLaw::Aperiodic.is_periodic());
    }
}
