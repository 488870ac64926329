//! The request path: the shared request source, submission ticks, and
//! client-visible outputs fed back into the source.

use super::*;
use crate::idset::ID_LIMIT;

/// The [`wire::REQ`] payload of request `id` stamped `ts`, asserting
/// that both fit rather than silently wrapping into order divergence.
fn req_payload(id: u64, ts: Time) -> u64 {
    let ns = (ts - Time::ZERO).as_nanos();
    assert!(id < ID_LIMIT, "request id {id} exceeds the 20-bit payload");
    assert!(
        ns < 1 << 44,
        "timestamp {ns} ns exceeds the 44-bit payload (~4.9 h horizon cap)"
    );
    wire::REQ.pack([id, ns])
}

/// The actor-side request stream of a replicated service: the gateway
/// asks it *when* to submit, and feeds every first client-visible
/// response back into it — the hook that closes the loop between the
/// group's measured behaviour and the client's submission schedule.
///
/// One source instance is **shared by every member** of the group
/// (behind `Rc<RefCell<…>>`), so an interim gateway taking over after a
/// crash sees exactly the schedule the dead gateway was working from.
/// All calls happen inside engine event handlers, in the deterministic
/// total order, at the engine's time, which never decreases (what
/// [`FixedSchedule`]'s cursor relies on); implementations must be
/// deterministic functions of the call sequence.
pub trait RequestSource: std::fmt::Debug {
    /// Number of requests scheduled at or before `now` — request ids
    /// `0..n` are the gateway's responsibility by `now`.
    fn submissions_through(&mut self, now: Time) -> u64;

    /// The next instant strictly after `now` at which the gateway must
    /// run a submission tick, if any is known yet: the next scheduled
    /// submission, or — for a closed loop with a client timeout — the
    /// instant the outstanding request is abandoned and re-issued. A
    /// closed loop *without* a timeout returns `None` while its next
    /// request waits on a response; one *with* a timeout never does
    /// while a request is outstanding inside the horizon, so every tick
    /// arms a successor. Members keep at most one pending tick per
    /// firing instant (see the module doc), so asking again for an
    /// instant already armed costs nothing — but each distinct instant
    /// returned is one more poll of the membership view, i.e. behaviour.
    fn next_submission_after(&mut self, now: Time) -> Option<Time>;

    /// Reports the **first** client-visible output of request `id`,
    /// observed at `at` (members report their own emissions; the shared
    /// source keeps the first report, which — engine time being
    /// monotone — is the earliest one). Returns a newly scheduled
    /// submission instant when the report extended the schedule, so the
    /// reporting member can arm the wake-up.
    fn on_response(&mut self, id: u64, at: Time) -> Option<Time>;

    /// Rescales the source's future pacing to `permille` of its
    /// **nominal** rate from `now` on (1000 = nominal, 500 = half rate,
    /// 0 = pause). Repeated retunes must not compound — each call is
    /// absolute against the nominal rate — and a pause must be
    /// resumable by a later positive retune. Closed-loop sources scale
    /// their think time; open-loop sources re-pace the remaining
    /// nominal tail.
    fn throttle(&mut self, now: Time, permille: u32);

    /// Number of requests this source has **abandoned** so far: given up
    /// on client-side (e.g. a closed loop timing out an outstanding
    /// request whose group died) and re-issued or dropped. Open-loop
    /// sources never abandon; the default is 0.
    fn abandoned(&self) -> u64 {
        0
    }
}

/// The open-loop [`RequestSource`]: a strictly increasing **nominal**
/// schedule (the lowering of an offline workload), shared and never
/// rewritten, paced by a cursor that moves forward with engine time.
///
/// `throttle(now, p > 0)` re-anchors the next request at `now` plus its
/// nominal gap scaled by `1000/p`, and each later one follows by its own
/// nominal gap scaled alike (so repeated retunes never compound);
/// `throttle(now, 0)` pauses until a later positive retune. A retune to
/// the rate already in force is a no-op — a driver re-asserting the same
/// rate every tick must not perpetually push the next submission out.
#[derive(Debug, Clone)]
pub struct FixedSchedule {
    /// The nominal schedule (never rescaled).
    nominal: Rc<[Time]>,
    /// The cursor: requests issued so far, and the effective instant of
    /// the next one (`None` while paused or once exhausted).
    issued: usize,
    next: Option<Time>,
    /// The pacing currently in force (permille of nominal).
    permille: u32,
}

impl FixedSchedule {
    /// Paces `times` (must be strictly increasing), sharing the slice.
    ///
    /// # Panics
    ///
    /// Panics when `times` is not strictly increasing.
    pub fn new(times: Rc<[Time]>) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "the submission schedule must be strictly increasing"
        );
        FixedSchedule {
            next: times.first().copied(),
            nominal: times,
            issued: 0,
            permille: 1000,
        }
    }

    /// Request `k`'s effective instant after one issued at `from`: its
    /// *nominal* gap scaled to the pacing in force, at least 1 ns (`None`
    /// past the end or while paused).
    fn paced(&self, k: usize, from: Time) -> Option<Time> {
        let prev = k.checked_sub(1).map_or(Time::ZERO, |j| self.nominal[j]);
        let gap = (*self.nominal.get(k)? - prev).as_nanos() as u128 * 1000;
        let gap = gap.checked_div(self.permille as u128)?;
        Some(from + Duration::from_nanos(gap.clamp(1, u64::MAX as u128) as u64))
    }

    /// Issues every request due by `now`.
    fn advance(&mut self, now: Time) {
        while let Some(t) = self.next.filter(|t| *t <= now) {
            self.issued += 1;
            self.next = self.paced(self.issued, t);
        }
    }
}

impl RequestSource for FixedSchedule {
    fn submissions_through(&mut self, now: Time) -> u64 {
        self.advance(now);
        self.issued as u64
    }

    fn next_submission_after(&mut self, now: Time) -> Option<Time> {
        self.advance(now);
        self.next
    }

    fn on_response(&mut self, _id: u64, _at: Time) -> Option<Time> {
        None
    }

    fn throttle(&mut self, now: Time, permille: u32) {
        if permille == self.permille {
            return; // same rate re-asserted: nothing to re-pace
        }
        self.advance(now);
        self.permille = permille;
        // Re-anchor the rest of the stream at `now` (a pause paces none).
        self.next = self.paced(self.issued, now);
    }
}

impl GroupConfig {
    /// Number of scheduled submissions with instant `≤ now` — request
    /// ids `0..count` are the gateway's responsibility by `now`.
    pub(super) fn submissions_through(&self, now: Time) -> u64 {
        match &self.source {
            Some(s) => s.borrow_mut().submissions_through(now),
            None => {
                if now < self.first_request_at {
                    0
                } else {
                    (now - self.first_request_at).as_nanos() / self.request_period.as_nanos().max(1)
                        + 1
                }
            }
        }
    }

    /// The next submission-tick instant strictly after `now`; `None`
    /// once an explicit source is exhausted (or, closed-loop without a
    /// timeout, still waiting on a response).
    fn next_submission_after(&self, now: Time) -> Option<Time> {
        match &self.source {
            Some(s) => s.borrow_mut().next_submission_after(now),
            None => Some(if now < self.first_request_at {
                self.first_request_at
            } else {
                self.first_request_at
                    + self
                        .request_period
                        .saturating_mul(self.submissions_through(now))
            }),
        }
    }
}

impl ReplicaGroup {
    /// Records a client-visible output and feeds it back into the shared
    /// request source — the closed-loop response hook. When the report
    /// extends the schedule (the closed-loop client's next request), this
    /// member arms its own tick at the new instant and wakes every peer
    /// there too, so whichever member is gateway *then* submits it.
    pub(super) fn emit(&mut self, id: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        if !self.emitted_ids.insert(id) {
            return;
        }
        self.observe(now, |group, member| MonitorEvent::OutputEmitted {
            group,
            member,
            id,
            expect_unique: self.cfg.style != ReplicaStyle::Active,
        });
        let next = self
            .cfg
            .source
            .as_ref()
            .and_then(|s| s.borrow_mut().on_response(id, now));
        if let Some(next) = next {
            self.arm_tick(next, ctx);
            let me = self.me();
            for &(n, actor) in &self.cfg.peers {
                if n != me {
                    ctx.notify_at(actor, next, GN_WAKE);
                }
            }
        }
    }

    /// The one place a `GK_TICK` is armed: nothing when a tick of this
    /// life is already pending for the instant this one would fire at.
    /// That instant is where the timer lands on the engine's timeline,
    /// not `at` — on a skewed node two arms of one `at` from different
    /// `now`s fire apart, and each is a poll of the view log that the
    /// dedup must keep (see the module doc).
    fn arm_tick(&mut self, at: Time, ctx: &mut ActorCtx<'_>) {
        let fires_at = ctx.timer_fires_at(at);
        if !self.ticks.contains(&fires_at) {
            self.ticks.push(fires_at);
            ctx.timer_at(at, wire::epoch_timer(GK_TICK, self.epoch));
        }
    }

    pub(super) fn arm_next_tick(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        // An exhausted explicit schedule arms nothing: the stream is over.
        if let Some(next) = self.cfg.next_submission_after(now) {
            self.arm_tick(next, ctx);
        }
    }

    /// Submission tick: the gateway submits the scheduled request plus
    /// any request it has no knowledge of (a predecessor gateway died
    /// before submitting it).
    pub(super) fn on_tick(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rebind(now, ctx);
        // The floor chases the contiguously-known prefix so a tick scans
        // only genuinely unknown ids, not the whole run so far.
        while self.inbox.knows(self.makeup_floor) {
            self.makeup_floor += 1;
        }
        if self.cur_leader == self.me() {
            let upto = self.cfg.submissions_through(now);
            for id in self.makeup_floor..upto {
                if !self.inbox.knows(id) {
                    // Fresh timestamp: a catch-up submission cannot be
                    // retrofitted into the past of the Δ-order.
                    self.observe(now, |group, _| MonitorEvent::RequestSubmitted { group, id });
                    if let Some(due) = self.inbox.accept(id, now, self.me(), now) {
                        ctx.timer_at(due, wire::epoch_timer(GK_DELIVER, self.epoch));
                    }
                    self.fanout(ctx, GMSG_REQ, req_payload(id, now));
                }
            }
        }
        self.arm_next_tick(now, ctx);
    }

    /// A submission tick of this life came due ([`GK_TICK`]).
    pub(super) fn on_tick_due(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.ticks.retain(|t| *t != now);
        self.on_tick(now, ctx);
    }

    /// A request Δ-multicast by the gateway ([`GMSG_REQ`]).
    pub(super) fn on_request(
        &mut self,
        from: NodeId,
        payload: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        let [id, ns] = wire::REQ.unpack(payload);
        let ts = Time::from_nanos(ns);
        if let Some(due) = self.inbox.accept(id, ts, from.0, now) {
            ctx.timer_at(due, wire::epoch_timer(GK_DELIVER, self.epoch));
        }
        self.sync_inbox_counters();
    }
}
