//! Request-stream workloads for replicated services.
//!
//! A [`crate::ServiceSpec`] separates *what* a replicated service is
//! (style, members, per-request cost) from *how* clients drive it. A
//! [`Workload`] is the latter: a deterministic generator of request
//! submission instants that the deployment spec lowers into the
//! [`hades_services::group::ReplicaGroup`] gateway's submission schedule.
//! Opening a new traffic shape therefore means implementing this trait —
//! not editing the cluster core.
//!
//! Three generators ship with the crate:
//!
//! * [`ConstantRate`] — the classic open-loop periodic stream;
//! * [`Bursty`] — an open-loop on/off source (bursts of back-to-back
//!   requests separated by idle gaps);
//! * [`TraceReplay`] — replay of an explicit, recorded instant list.
//!
//! [`ClosedLoop`] is a **true** closed-loop client: the next request is
//! issued one think time after the previous *measured* response, fed
//! back from the replica-group gateway through the actor-side
//! [`RequestSource`] hook — the generated stream reacts to congestion
//! (a failover stall pushes every later submission out; fast responses
//! pull them in). Its [`Workload::for_each_request`] stream (validation)
//! is the pre-feedback approximation, the analytic client-visible bound
//! substituted for the response: a [`ConstantRate`] of period
//! `think + response_bound`, the congestion-blind baseline.

use hades_services::group::{FixedSchedule, RequestSource};
use hades_time::{Duration, Time};
use std::cell::RefCell;
use std::fmt;
use std::ops::ControlFlow;
use std::rc::Rc;

/// A deterministic request-stream generator.
///
/// Implementations must produce **strictly increasing** submission
/// instants, all inside `[Time::ZERO, Time::ZERO + horizon)`; the spec
/// validation rejects streams violating either rule with a typed
/// [`crate::SpecIssue`]. Request `k` of the service is submitted at the
/// `k`-th instant. Validation walks the stream without storing it, so a
/// workload's length and order cost no schedule to check.
///
/// # Examples
///
/// A custom shape only streams its instants; the collected schedule,
/// the open-loop request source and validation all follow from that.
///
/// ```
/// use hades_cluster::{ClusterSpec, GroupLoad, ServiceSpec, Workload};
/// use hades_services::ReplicaStyle;
/// use hades_time::{Duration, Time};
/// use std::ops::ControlFlow;
///
/// /// One request at 1, 2, 4, 8, ... ms.
/// #[derive(Debug)]
/// struct Doubling;
///
/// impl Workload for Doubling {
///     fn for_each_request(
///         &self,
///         horizon: Duration,
///         visit: &mut dyn FnMut(Time) -> ControlFlow<()>,
///     ) -> ControlFlow<()> {
///         let mut gap = Duration::from_millis(1);
///         while gap < horizon {
///             visit(Time::ZERO + gap)?;
///             gap = gap * 2;
///         }
///         ControlFlow::Continue(())
///     }
///
///     fn admission_period(&self, _horizon: Duration) -> Duration {
///         Duration::from_millis(1)
///     }
/// }
///
/// let times = Doubling.request_times(Duration::from_millis(10));
/// assert_eq!(times.len(), 4, "requests at 1, 2, 4 and 8 ms");
/// let spec = ClusterSpec::new(3).horizon(Duration::from_millis(10)).service(
///     ServiceSpec::replicated("store", ReplicaStyle::Active, vec![0, 1, 2], GroupLoad::default())
///         .workload(Box::new(Doubling)),
/// );
/// assert_eq!(spec.validate(), Ok(()));
/// ```
pub trait Workload: fmt::Debug {
    /// Hands the submission instants of the whole run to `visit`, in
    /// order, and stops as soon as `visit` breaks, returning that break
    /// (`?` on each call does both). For a feedback-driven workload it is
    /// the *analytic approximation* used by validation and as the
    /// open-loop baseline (the live schedule unfolds at run time through
    /// [`Workload::build_source`]).
    fn for_each_request(
        &self,
        horizon: Duration,
        visit: &mut dyn FnMut(Time) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    /// The submission instants of the whole run, collected from
    /// [`Workload::for_each_request`].
    fn request_times(&self, horizon: Duration) -> Vec<Time> {
        let mut times = Vec::new();
        let _ = self.for_each_request(horizon, &mut |t| {
            times.push(t);
            ControlFlow::Continue(())
        });
        times
    }

    /// The per-request arrival period admission control charges for the
    /// service's execution cost tasks — the (peak) rate the feasibility
    /// analyses must budget for. Must be positive.
    fn admission_period(&self, horizon: Duration) -> Duration;

    /// The client-side request timeout, for a workload that abandons
    /// unanswered requests. Must be positive.
    fn timeout(&self) -> Option<Duration> {
        None
    }

    /// Builds the actor-side [`RequestSource`] the replica-group gateway
    /// runs — shared by every member of the group. The default lowers
    /// the pre-materialized [`Workload::request_times`] schedule into an
    /// open-loop [`FixedSchedule`]; feedback-driven workloads override
    /// it to return a source whose schedule extends as responses are
    /// reported back.
    fn build_source(&self, horizon: Duration) -> Rc<RefCell<dyn RequestSource>> {
        Rc::new(RefCell::new(FixedSchedule::new(
            self.request_times(horizon).into(),
        )))
    }
}

/// Open-loop constant-rate stream: one request every `period`, starting
/// at `start`.
///
/// # Examples
///
/// ```
/// use hades_cluster::{ConstantRate, Workload};
/// use hades_time::{Duration, Time};
///
/// let w = ConstantRate::new(Duration::from_millis(1), Time::ZERO + Duration::from_millis(1));
/// let times = w.request_times(Duration::from_millis(4));
/// assert_eq!(times.len(), 3, "requests at 1, 2 and 3 ms");
/// assert_eq!(w.admission_period(Duration::from_millis(4)), Duration::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantRate {
    /// Inter-request period.
    pub period: Duration,
    /// First submission instant.
    pub start: Time,
}

impl ConstantRate {
    /// A stream of one request per `period` starting at `start`.
    pub fn new(period: Duration, start: Time) -> Self {
        ConstantRate { period, start }
    }
}

impl Workload for ConstantRate {
    fn for_each_request(
        &self,
        horizon: Duration,
        visit: &mut dyn FnMut(Time) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if self.period.is_zero() {
            return ControlFlow::Continue(()); // rejected by spec validation
        }
        let end = Time::ZERO + horizon;
        let mut t = self.start;
        while t < end {
            visit(t)?;
            t += self.period;
        }
        ControlFlow::Continue(())
    }

    fn admission_period(&self, _horizon: Duration) -> Duration {
        self.period
    }
}

/// Open-loop on/off source: bursts of `burst` requests spaced `spacing`
/// apart, one burst every `gap` (start-to-start), beginning at `start`.
///
/// Admission is charged at the *peak* rate, so a feasibility verdict
/// holds through the bursts, not only on long-run average: `spacing`,
/// or the tail from one burst's last request to the next burst's first
/// (`gap − (burst − 1) · spacing`) when a shape runs its bursts closer
/// than that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bursty {
    /// Requests per burst (≥ 1; zero is refused as a zero period).
    pub burst: u32,
    /// Intra-burst spacing.
    pub spacing: Duration,
    /// Burst period (start of one burst to start of the next); must be
    /// positive and cover the burst itself (`gap ≥ burst · spacing`).
    pub gap: Duration,
    /// First burst's first request.
    pub start: Time,
}

impl Workload for Bursty {
    fn for_each_request(
        &self,
        horizon: Duration,
        visit: &mut dyn FnMut(Time) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if self.spacing.is_zero() || self.gap.is_zero() || self.burst == 0 {
            // Validation rejects each as a zero admission period.
            return ControlFlow::Continue(());
        }
        let end = Time::ZERO + horizon;
        let mut burst_start = self.start;
        while burst_start < end {
            for i in 0..self.burst {
                let t = burst_start + self.spacing.saturating_mul(i as u64);
                if t >= end {
                    break; // the rest of the burst is later still
                }
                visit(t)?;
            }
            burst_start += self.gap;
        }
        ControlFlow::Continue(())
    }

    fn admission_period(&self, _horizon: Duration) -> Duration {
        let spacings = self.burst.saturating_sub(1) as u64;
        match self.gap.checked_sub(self.spacing.saturating_mul(spacings)) {
            _ if self.burst == 0 || self.gap.is_zero() => Duration::ZERO,
            Some(tail) if !tail.is_zero() => self.spacing.min(tail),
            _ => self.spacing,
        }
    }
}

/// Replay of an explicit submission-instant trace (already strictly
/// increasing); instants at or past the horizon are dropped. The trace is
/// one shared slice: its clones and the [`FixedSchedule`] it builds copy
/// no instant, unless the trace runs past the horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReplay {
    /// The recorded submission instants, strictly increasing.
    pub times: Rc<[Time]>,
}

impl TraceReplay {
    /// Replays `times` (must be strictly increasing).
    pub fn new(times: impl Into<Rc<[Time]>>) -> Self {
        TraceReplay {
            times: times.into(),
        }
    }
}

impl Workload for TraceReplay {
    fn for_each_request(
        &self,
        horizon: Duration,
        visit: &mut dyn FnMut(Time) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let end = Time::ZERO + horizon;
        self.times
            .iter()
            .copied()
            .filter(|t| *t < end)
            .try_for_each(visit)
    }

    fn admission_period(&self, horizon: Duration) -> Duration {
        // Peak rate of the trace: the minimum separation between
        // consecutive replayed instants, skipping a backwards pair that
        // validation refuses (1 µs floor so a degenerate trace cannot
        // demand an infinite-rate cost task).
        let end = Time::ZERO + horizon;
        let replayed = self.times.iter().filter(|t| **t < end);
        (replayed.clone().zip(replayed.skip(1)))
            .filter(|(a, b)| a <= b)
            .map(|(a, b)| *b - *a)
            .min()
            .unwrap_or(Duration::from_millis(1))
            .max(Duration::from_micros(1))
    }

    fn build_source(&self, horizon: Duration) -> Rc<RefCell<dyn RequestSource>> {
        let mut times = self.times.clone();
        if times.iter().any(|t| *t >= Time::ZERO + horizon) {
            times = self.request_times(horizon).into();
        }
        Rc::new(RefCell::new(FixedSchedule::new(times)))
    }
}

/// Closed-loop client: the next request is issued one `think` time after
/// the previous **response**.
///
/// By default the loop is **live**: the gateway feeds each request's
/// first measured client-visible output back through
/// [`RequestSource::on_response`], and the next submission is scheduled
/// `think` after it — the stream genuinely reacts to congestion (a
/// failover stall pushes later submissions out; responses faster than
/// the analytic bound pull them in). Its [`Workload::for_each_request`]
/// stream (validation) is the pre-feedback approximation, one request
/// per `think + response_bound`: what
/// `ConstantRate::new(think + response_bound, start)` generates as the
/// congestion-blind baseline.
///
/// Admission: the live loop's peak rate is bounded by `think` alone
/// (a response can never land before its request), so admission charges
/// the cost tasks at period `think` — conservative under feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoop {
    /// Client think time between response and next request. Must be
    /// positive (it bounds the live loop's admission rate).
    pub think: Duration,
    /// The analytic response bound (`ClusterSpec::group_delta() + δmax`
    /// for an in-cluster service): the stand-in response of the baseline
    /// `request_times`.
    pub response_bound: Duration,
    /// First submission instant.
    pub start: Time,
    /// Client-side request timeout: an outstanding request unanswered
    /// for this long is **abandoned** and re-issued, so the loop
    /// survives losing its request to a whole-group outage (without a
    /// timeout, a live loop whose in-flight request died with every
    /// member stalls forever). `None` (the default) never abandons. Must
    /// be positive.
    pub timeout: Option<Duration>,
}

impl ClosedLoop {
    /// A live closed loop (measured-response feedback), no client-side
    /// timeout.
    pub fn new(think: Duration, response_bound: Duration, start: Time) -> Self {
        ClosedLoop {
            think,
            response_bound,
            start,
            timeout: None,
        }
    }

    /// Arms a client-side timeout: an outstanding request unanswered
    /// `timeout` after its submission is abandoned and re-issued at the
    /// timeout instant. Abandonments are reported in
    /// `GroupReport::abandoned` and the `group.requests_abandoned`
    /// telemetry counter.
    ///
    /// A zero timeout is kept as given, and validation reports it as
    /// [`crate::SpecIssue::ZeroTimeout`]: a request can never respond
    /// before it is submitted, so it would abandon everything.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

impl Workload for ClosedLoop {
    fn for_each_request(
        &self,
        horizon: Duration,
        visit: &mut dyn FnMut(Time) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        ConstantRate::new(self.think + self.response_bound, self.start)
            .for_each_request(horizon, visit)
    }

    fn admission_period(&self, _horizon: Duration) -> Duration {
        self.think
    }

    fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    fn build_source(&self, horizon: Duration) -> Rc<RefCell<dyn RequestSource>> {
        let end = Time::ZERO + horizon;
        Rc::new(RefCell::new(ClosedLoopSource {
            think: self.think,
            timeout: self.timeout,
            end,
            permille: 1000,
            scheduled: if self.start < end {
                vec![self.start]
            } else {
                Vec::new()
            },
            responded: 0,
            last_response: None,
            abandoned: 0,
        }))
    }
}

/// The live closed loop's shared [`RequestSource`]: the schedule unfolds
/// one request at a time as measured responses are fed back.
#[derive(Debug)]
struct ClosedLoopSource {
    think: Duration,
    /// Client-side request timeout; `None` waits forever.
    timeout: Option<Duration>,
    end: Time,
    permille: u32,
    /// Scheduled submission instants so far; index = request id.
    scheduled: Vec<Time>,
    /// Ids `0..responded` have had their (first) response consumed — or
    /// been abandoned at their timeout.
    responded: u64,
    last_response: Option<Time>,
    /// Requests given up on client-side (timeout expired) and re-issued.
    abandoned: u64,
}

impl ClosedLoopSource {
    /// Think time under the current throttle (permille of nominal rate).
    fn effective_think(&self) -> Duration {
        let ns = self.think.as_nanos() as u128 * 1000 / self.permille.max(1) as u128;
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Schedules the next request at `at + think` if the loop is running
    /// and the horizon allows it.
    fn schedule_next(&mut self, at: Time) -> Option<Time> {
        if self.permille == 0 {
            return None;
        }
        let prev = self.scheduled.last().copied().unwrap_or(Time::ZERO);
        let next = (at + self.effective_think()).max(prev + Duration::from_nanos(1));
        if next >= self.end {
            return None;
        }
        self.scheduled.push(next);
        Some(next)
    }

    /// Whether the latest scheduled request is still awaiting its
    /// response.
    fn outstanding(&self) -> Option<Time> {
        (self.responded + 1 == self.scheduled.len() as u64)
            .then(|| *self.scheduled.last().expect("outstanding implies nonempty"))
    }

    /// Abandons every outstanding request whose timeout expired by `now`
    /// and re-issues it at the timeout instant — repeatedly, so a long
    /// blackout (the whole group down) is crossed by a march of timed-out
    /// re-issues rather than a permanent stall. Runs lazily at the head
    /// of every query; without a timeout it is a no-op.
    fn reap_abandoned(&mut self, now: Time) {
        let Some(timeout) = self.timeout else { return };
        while self.permille > 0 {
            let Some(submitted) = self.outstanding() else {
                return;
            };
            let deadline = submitted + timeout;
            if deadline > now {
                return;
            }
            self.abandoned += 1;
            self.responded += 1;
            // Re-issue at the timeout instant (no think time: the client
            // re-sends the request it was already waiting on).
            if deadline < self.end {
                self.scheduled.push(deadline);
            } else {
                return;
            }
        }
    }
}

impl RequestSource for ClosedLoopSource {
    fn submissions_through(&mut self, now: Time) -> u64 {
        self.reap_abandoned(now);
        self.scheduled.partition_point(|t| *t <= now) as u64
    }

    fn next_submission_after(&mut self, now: Time) -> Option<Time> {
        self.reap_abandoned(now);
        if let Some(next) = self
            .scheduled
            .get(self.scheduled.partition_point(|t| *t <= now))
            .copied()
        {
            return Some(next);
        }
        // Nothing scheduled ahead, but a request is outstanding under a
        // timeout: its abandonment re-issue is the next submission — the
        // instant the caller must arm a wake-up at for the loop to
        // survive the response never arriving.
        match (self.timeout, self.permille > 0) {
            (Some(timeout), true) => self
                .outstanding()
                .map(|submitted| submitted + timeout)
                .filter(|t| *t > now && *t < self.end),
            _ => None,
        }
    }

    fn on_response(&mut self, id: u64, at: Time) -> Option<Time> {
        // Only the first report of the *latest* request advances the
        // loop; duplicate copies of the same output (every member
        // reports its own emission) and stale ids are ignored.
        if id + 1 != self.scheduled.len() as u64 || id < self.responded {
            return None;
        }
        self.responded = id + 1;
        self.last_response = Some(at);
        self.schedule_next(at)
    }

    fn throttle(&mut self, now: Time, permille: u32) {
        let resuming = self.permille == 0 && permille > 0;
        self.permille = permille;
        if permille == 0 {
            // Stop means stop: a next request already scheduled but not
            // yet submitted is withdrawn (the gateway's pending tick
            // finds nothing due), not just future ones.
            let idx = self.scheduled.partition_point(|t| *t <= now);
            self.scheduled.truncate(idx);
            return;
        }
        if resuming && self.responded == self.scheduled.len() as u64 {
            // The response that should have scheduled the next request
            // arrived while the loop was paused: resume from here.
            let anchor = self.last_response.unwrap_or(now).max(now);
            self.schedule_next(anchor);
        }
    }

    fn abandoned(&self) -> u64 {
        self.abandoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn constant_rate_fills_the_horizon() {
        let w = ConstantRate::new(ms(2), Time::ZERO + ms(1));
        let times = w.request_times(ms(10));
        assert_eq!(times.len(), 5);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times.iter().all(|t| *t < Time::ZERO + ms(10)));
    }

    #[test]
    fn bursty_emits_bursts_and_charges_peak_rate() {
        let w = Bursty {
            burst: 3,
            spacing: us(100),
            gap: ms(5),
            start: Time::ZERO + ms(1),
        };
        let times = w.request_times(ms(11));
        assert_eq!(times.len(), 6, "two full bursts fit");
        assert_eq!(times[1] - times[0], us(100));
        assert_eq!(times[3] - times[0], ms(5));
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(w.admission_period(ms(11)), us(100), "peak, not average");
    }

    /// A replicated service on three nodes over `horizon`, driven by `w`.
    fn spec_of(w: impl Workload + 'static, horizon: Duration) -> crate::ClusterSpec {
        crate::ClusterSpec::new(3).horizon(horizon).service(
            crate::ServiceSpec::replicated(
                "bursts",
                hades_services::ReplicaStyle::Active,
                vec![0, 1, 2],
                crate::GroupLoad::default(),
            )
            .workload(Box::new(w)),
        )
    }

    #[test]
    fn a_bursty_shape_with_no_request_is_refused_as_a_zero_period() {
        for (burst, gap) in [(0, ms(2)), (3, Duration::ZERO)] {
            let w = Bursty {
                burst,
                spacing: ms(1),
                gap,
                start: Time::ZERO,
            };
            assert_eq!(w.admission_period(ms(10)), Duration::ZERO);
            let err = spec_of(w, ms(10)).validate().unwrap_err();
            assert!(
                matches!(&err.issues[..], [crate::SpecIssue::ZeroPeriod { .. }]),
                "{err}"
            );
        }
    }

    #[test]
    fn a_backwards_trace_is_refused_by_validate_and_run() {
        let w = TraceReplay::new(vec![Time::ZERO + ms(2), Time::ZERO + ms(1)]);
        let refused = |err: crate::SpecError| {
            matches!(
                &err.issues[..],
                [crate::SpecIssue::NonMonotoneWorkload { .. }]
            )
        };
        assert!(refused(spec_of(w.clone(), ms(10)).validate().unwrap_err()));
        assert!(refused(spec_of(w, ms(10)).run().unwrap_err()));
    }

    #[test]
    fn a_burst_stops_at_the_horizon() {
        // 10^8 requests a burst, 10 of them inside the horizon: the
        // stream ends at the 10th, not after walking the whole burst.
        let w = Bursty {
            burst: 100_000_000,
            spacing: ms(1),
            gap: ms(1).saturating_mul(100_000_000),
            start: Time::ZERO,
        };
        assert_eq!(w.request_times(ms(10)).len(), 10);
        assert_eq!(w.admission_period(ms(10)), ms(1));
        assert_eq!(spec_of(w, ms(10)).validate(), Ok(()));
    }

    #[test]
    fn bursts_closer_than_their_spacing_are_charged_at_the_tail() {
        let at = |burst, spacing, gap| Bursty {
            burst,
            spacing,
            gap,
            start: Time::ZERO,
        };
        // The documented rule (`gap ≥ burst · spacing`) keeps `spacing`.
        assert_eq!(at(3, us(100), us(300)).admission_period(ms(10)), us(100));
        // A 50 µs tail from a burst's last request to the next burst.
        let tight = at(3, us(100), us(250));
        assert_eq!(tight.admission_period(ms(10)), us(50));
        let times = tight.request_times(ms(1));
        assert_eq!(times[3] - times[2], us(50));
        // One request a nanosecond: refused by the projection from the
        // admission period, before a single instant is walked.
        let flood = at(1, ms(1), Duration::from_nanos(1));
        assert_eq!(flood.admission_period(ms(10)), Duration::from_nanos(1));
        let err = spec_of(flood, ms(10)).validate().unwrap_err();
        assert!(
            matches!(
                &err.issues[..],
                [crate::SpecIssue::WorkloadTooLong {
                    requests: 10_000_001,
                    ..
                }]
            ),
            "{err}"
        );
    }

    #[test]
    fn trace_replay_clips_to_horizon_and_reports_min_separation() {
        let w = TraceReplay::new(vec![
            Time::ZERO + ms(1),
            Time::ZERO + ms(2),
            Time::ZERO + ms(2) + us(300),
            Time::ZERO + ms(50),
        ]);
        let times = w.request_times(ms(10));
        assert_eq!(times.len(), 3, "the 50 ms instant is past the horizon");
        assert_eq!(w.admission_period(ms(10)), us(300));
        // Its source never sees the 50 ms instant; a trace inside the
        // horizon hands its source the one slice, uncopied.
        let source = w.build_source(ms(10));
        assert_eq!(source.borrow_mut().submissions_through(Time::MAX), 3);
        assert_eq!(Rc::strong_count(&w.times), 1);
        let _source = w.build_source(ms(60));
        assert_eq!(Rc::strong_count(&w.times), 2);
    }

    #[test]
    fn closed_loop_baseline_period_is_think_plus_response_bound() {
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1));
        // The analytic baseline schedule is the constant-rate stream...
        let times = w.request_times(ms(10));
        assert_eq!(times[1] - times[0], ms(1) + us(100));
        let baseline = ConstantRate::new(ms(1) + us(100), Time::ZERO + ms(1));
        assert_eq!(times, baseline.request_times(ms(10)));
        // ...but live admission charges the peak (think-only) rate,
        // while the baseline charges what it generates.
        assert_eq!(w.admission_period(ms(10)), ms(1));
        assert_eq!(baseline.admission_period(ms(10)), ms(1) + us(100));
    }

    #[test]
    fn live_closed_loop_source_tracks_measured_responses() {
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1));
        let source = w.build_source(ms(50));
        let mut s = source.borrow_mut();
        assert_eq!(
            s.next_submission_after(Time::ZERO),
            Some(Time::ZERO + ms(1))
        );
        assert_eq!(s.submissions_through(Time::ZERO + ms(1)), 1);
        // No response yet: the next request is unknown.
        assert_eq!(s.next_submission_after(Time::ZERO + ms(1)), None);
        // A fast measured response (60 µs) beats the analytic bound: the
        // next submission lands think + 60 µs after the previous one.
        let resp = Time::ZERO + ms(1) + us(60);
        assert_eq!(s.on_response(0, resp), Some(resp + ms(1)));
        // Duplicate reports of the same output (other members) are inert.
        assert_eq!(s.on_response(0, resp + us(40)), None);
        // A slow response (congestion) pushes the loop out instead.
        let resp1 = resp + ms(1) + ms(7);
        assert_eq!(s.on_response(1, resp1), Some(resp1 + ms(1)));
        assert_eq!(s.submissions_through(Time::ZERO + ms(20)), 3);
    }

    #[test]
    fn closed_loop_stop_withdraws_the_already_scheduled_next_request() {
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1));
        let source = w.build_source(ms(50));
        let mut s = source.borrow_mut();
        // Request 0 responded: request 1 is scheduled in the future.
        let next = s.on_response(0, Time::ZERO + ms(1) + us(60)).unwrap();
        assert!(next > Time::ZERO + ms(2));
        // Stop BEFORE it is due: the pending submission must be
        // withdrawn, not leaked at its armed tick.
        s.throttle(Time::ZERO + ms(2), 0);
        assert_eq!(s.submissions_through(Time::ZERO + ms(50)), 1);
        assert_eq!(s.next_submission_after(Time::ZERO + ms(2)), None);
        // Resume picks the loop back up from the consumed response.
        s.throttle(Time::ZERO + ms(10), 1000);
        assert_eq!(
            s.next_submission_after(Time::ZERO + ms(10)),
            Some(Time::ZERO + ms(11))
        );
    }

    #[test]
    fn closed_loop_without_timeout_stalls_on_a_lost_request() {
        // The pre-fix behaviour, pinned: no timeout means an unanswered
        // request blocks the loop forever.
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1));
        let source = w.build_source(ms(50));
        let mut s = source.borrow_mut();
        assert_eq!(s.submissions_through(Time::ZERO + ms(1)), 1);
        assert_eq!(s.next_submission_after(Time::ZERO + ms(40)), None);
        assert_eq!(s.submissions_through(Time::ZERO + ms(49)), 1);
        assert_eq!(s.abandoned(), 0);
    }

    #[test]
    fn closed_loop_timeout_abandons_and_reissues_a_lost_request() {
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1)).with_timeout(ms(5));
        let source = w.build_source(ms(50));
        let mut s = source.borrow_mut();
        // Request 0 goes out at 1 ms and nobody ever answers. The next
        // submission the client knows about is the abandonment re-issue
        // at 1 + 5 ms — armable as a wake-up before the timeout fires.
        assert_eq!(s.submissions_through(Time::ZERO + ms(1)), 1);
        assert_eq!(
            s.next_submission_after(Time::ZERO + ms(2)),
            Some(Time::ZERO + ms(6))
        );
        assert_eq!(s.abandoned(), 0, "not timed out yet");
        // At the timeout tick the request is abandoned and re-issued.
        assert_eq!(s.submissions_through(Time::ZERO + ms(6)), 2);
        assert_eq!(s.abandoned(), 1);
        // A blackout spanning several timeouts is crossed by a march of
        // re-issues: 6, 11, 16 ms are all due by 16 ms.
        assert_eq!(s.submissions_through(Time::ZERO + ms(16)), 4);
        assert_eq!(s.abandoned(), 3);
        // A late response to an abandoned id is inert...
        assert_eq!(s.on_response(0, Time::ZERO + ms(17)), None);
        // ...while the live re-issue's response advances the loop again.
        let resp = Time::ZERO + ms(17);
        assert_eq!(s.on_response(3, resp), Some(resp + ms(1)));
        assert_eq!(s.abandoned(), 3, "a consumed response is not abandoned");
    }

    #[test]
    fn closed_loop_timeout_never_fires_before_the_response_window_closes() {
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1)).with_timeout(ms(5));
        let source = w.build_source(ms(50));
        let mut s = source.borrow_mut();
        assert_eq!(s.submissions_through(Time::ZERO + ms(1)), 1);
        // The response lands within the timeout: the loop advances
        // normally and nothing is abandoned, even when queried at the
        // stale timeout instant afterwards.
        let resp = Time::ZERO + ms(3);
        assert_eq!(s.on_response(0, resp), Some(resp + ms(1)));
        assert_eq!(s.submissions_through(Time::ZERO + ms(6)), 2);
        assert_eq!(s.abandoned(), 0);
    }

    #[test]
    fn closed_loop_timeout_respects_pause_and_horizon() {
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1)).with_timeout(ms(5));
        let source = w.build_source(ms(10));
        let mut s = source.borrow_mut();
        assert_eq!(s.submissions_through(Time::ZERO + ms(1)), 1);
        // Paused loop does not reap: stop means stop.
        s.throttle(Time::ZERO + ms(2), 0);
        assert_eq!(s.submissions_through(Time::ZERO + ms(9)), 1);
        assert_eq!(s.abandoned(), 0);
        // Resumed, the overdue request is abandoned; its re-issue at
        // 6 ms is within the 10 ms horizon, the next one is not.
        s.throttle(Time::ZERO + ms(9), 1000);
        assert_eq!(s.submissions_through(Time::ZERO + ms(9)), 2);
        assert_eq!(s.abandoned(), 1);
        assert_eq!(s.next_submission_after(Time::ZERO + ms(9)), None);
    }

    #[test]
    fn closed_loop_throttle_pauses_and_resumes_the_loop() {
        let w = ClosedLoop::new(ms(1), us(100), Time::ZERO + ms(1));
        let source = w.build_source(ms(50));
        let mut s = source.borrow_mut();
        s.throttle(Time::ZERO + ms(2), 0);
        // The response arriving while paused schedules nothing...
        assert_eq!(s.on_response(0, Time::ZERO + ms(3)), None);
        assert_eq!(s.next_submission_after(Time::ZERO + ms(3)), None);
        // ...and resuming at half rate picks the loop back up with a
        // stretched think time.
        s.throttle(Time::ZERO + ms(10), 500);
        assert_eq!(
            s.next_submission_after(Time::ZERO + ms(10)),
            Some(Time::ZERO + ms(12)),
            "resumed from the throttle instant with think × 2"
        );
    }
}
