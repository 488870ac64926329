//! Group state transfer: restart, the catch-up pull, and the snapshot a
//! leader serves and a restarted member adopts.

use super::*;

impl ReplicaGroup {
    /// Abandons an unanswered catch-up: leadership (or the end of the
    /// run) cannot wait on a snapshot that may never arrive, so the
    /// member falls back to the pre-catch-up behaviour — buffered
    /// deliveries execute now, the blackout window stays skipped.
    pub(super) fn abort_catchup(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        if !self.catching_up {
            return;
        }
        self.catching_up = false;
        if matches!(self.cfg.style, ReplicaStyle::Active) {
            for id in self.pending_in_order() {
                self.pending.remove(&id);
                if self.execute(id) {
                    self.emit(id, now, ctx);
                }
            }
        }
    }

    pub(super) fn on_restart(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.epoch += 1;
        // The previous life's timers are dead (epoch check): none pends.
        self.ticks.clear();
        self.log.borrow_mut().restarts.push(now);
        // Volatile protocol state is gone; the executed set and the
        // service state survive on local stable storage (the requests of
        // the down window are lost to this member).
        self.inbox.clear_pending();
        self.pending.clear();
        self.orders.clear();
        self.pending_pulls.clear();
        self.cur_order_leader = None;
        self.order_resync = true;
        // Requests scheduled during the blackout are off limits; a
        // restart before the stream even started leaves everything
        // submittable.
        self.makeup_floor = self.cfg.submissions_through(now);
        self.await_view_since = Some(now);
        self.arm_next_tick(now, ctx);
        // Group state transfer: instead of permanently skipping the
        // blackout window, an active/semi-active member pulls the group
        // fold from the current leader (the group-level payload of the
        // rejoin checkpoint) and splices its live stream on top.
        if !matches!(self.cfg.style, ReplicaStyle::Passive { .. }) && self.cfg.members.len() > 1 {
            self.catching_up = true;
            self.snap_hi = None;
            self.snap_lo = None;
            self.snap_mark = None;
            self.fanout(ctx, GMSG_PULL, wire::epoch(self.epoch));
            ctx.timer_after(
                self.cfg.delta.saturating_mul(4),
                wire::epoch_timer(GK_PULL, self.epoch),
            );
        }
    }

    /// Adopts the catch-up snapshot once all three parts arrived: the
    /// state fold stands in for every request below the floor, and the
    /// deliveries buffered since the restart splice in above it.
    fn maybe_adopt_snapshot(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        if !self.catching_up {
            return;
        }
        let (Some(hi), Some(lo), Some((floor, count))) =
            (self.snap_hi, self.snap_lo, self.snap_mark)
        else {
            return;
        };
        self.catching_up = false;
        self.state = (hi << 32) | lo;
        self.executed_floor = self.executed_floor.max(floor);
        self.executed_count = count;
        if floor > 0 {
            self.last_executed = Some(self.last_executed.map_or(floor - 1, |m| m.max(floor - 1)));
        }
        {
            let mut log = self.log.borrow_mut();
            log.final_state = self.state;
            log.catchups += 1;
        }
        match self.cfg.style {
            ReplicaStyle::Active => {
                // Execute (and vote) the buffered live stream above the
                // floor, in Δ-order; covered ids are settled by the fold.
                for id in self.pending_in_order() {
                    self.pending.remove(&id);
                    if self.execute(id) {
                        self.emit(id, now, ctx);
                        let vote = wire::VOTE.pack([id, self.executed_count, self.state]);
                        self.fanout(ctx, GMSG_VOTE, vote);
                    }
                }
            }
            ReplicaStyle::SemiActive => {
                // Covered ids are settled; the rest stays buffered for
                // the leader's order stream (or this member's own
                // takeover, should leadership land here).
                let covered: Vec<u64> = self
                    .pending
                    .keys()
                    .copied()
                    .filter(|id| *id < self.executed_floor)
                    .collect();
                for id in covered {
                    self.pending.remove(&id);
                }
                // Orders received while the pull was in flight were held
                // back (executing them pre-adoption would lose their
                // folds to the snapshot overwrite): settle the buffered
                // stream now — ids below the floor dedup away.
                self.finish_order_resync();
                if self.cur_leader == self.me() {
                    for id in self.pending_in_order() {
                        self.pending.remove(&id);
                        if self.execute(id) {
                            self.emit(id, now, ctx);
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            let me = self.me();
                            self.fanout(ctx, GMSG_ORDER, wire::ORDER.pack([me as u64, seq, id]));
                        }
                    }
                }
            }
            ReplicaStyle::Passive { .. } => {}
        }
    }

    /// Leader side: answers every queued pull with the current fold.
    /// Runs one deferral window after the pull arrived, so everything in
    /// the Δ-pipeline at the pull instant is already folded in and the
    /// snapshot overlaps the joiner's live stream instead of leaving a
    /// gap.
    pub(super) fn serve_pending_pulls(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rebind(now, ctx);
        let pulls = std::mem::take(&mut self.pending_pulls);
        if pulls.is_empty() || self.catching_up || self.cur_leader != self.me() {
            return; // the puller's retransmission finds the current leader
        }
        let floor = self
            .last_executed
            .map_or(0, |x| x + 1)
            .max(self.executed_floor)
            .min(0xF_FFFF);
        for (node, epoch) in pulls {
            let Some((_, actor)) = self.cfg.peers.iter().find(|(n, _)| *n == node).copied() else {
                continue;
            };
            let to = NodeId(node);
            for (kind, payload) in [
                (GMSG_SNAP_HI, wire::SNAP.pack([epoch, self.state >> 32])),
                (GMSG_SNAP_LO, wire::SNAP.pack([epoch, self.state])),
                (
                    GMSG_SNAP_MARK,
                    wire::SNAP_MARK.pack([epoch, floor, self.executed_count]),
                ),
            ] {
                let accepted = ctx.fanout([(actor, to)], kind, payload, self.cfg.attempts);
                self.log.borrow_mut().messages_sent += accepted as u64;
            }
        }
    }

    /// Re-announces the pull while no snapshot arrived ([`GK_PULL`]).
    pub(super) fn on_pull_retry(&mut self, ctx: &mut ActorCtx<'_>) {
        self.fanout(ctx, GMSG_PULL, wire::epoch(self.epoch));
        ctx.timer_after(
            self.cfg.delta.saturating_mul(4),
            wire::epoch_timer(GK_PULL, self.epoch),
        );
    }

    /// Leader side: a restarted member's pull ([`GMSG_PULL`]).
    pub(super) fn on_pull(
        &mut self,
        from: NodeId,
        payload: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        let epoch = wire::epoch(payload);
        self.pending_pulls.retain(|(n, _)| *n != from.0);
        self.pending_pulls.push((from.0, epoch));
        ctx.timer_at(
            now + self.cfg.delta.saturating_mul(2),
            wire::epoch_timer(GK_SNAP, self.epoch),
        );
    }

    /// The high half of the catch-up snapshot ([`GMSG_SNAP_HI`]).
    pub(super) fn on_snap_hi(&mut self, payload: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        let [epoch, bits] = wire::SNAP.unpack(payload);
        if wire::same_epoch(epoch, self.epoch) {
            self.snap_hi = Some(bits);
            self.maybe_adopt_snapshot(now, ctx);
        }
    }

    /// The low half of the catch-up snapshot ([`GMSG_SNAP_LO`]).
    pub(super) fn on_snap_lo(&mut self, payload: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        let [epoch, bits] = wire::SNAP.unpack(payload);
        if wire::same_epoch(epoch, self.epoch) {
            self.snap_lo = Some(bits);
            self.maybe_adopt_snapshot(now, ctx);
        }
    }

    /// The catch-up snapshot's watermark ([`GMSG_SNAP_MARK`]).
    pub(super) fn on_snap_mark(&mut self, payload: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        let [epoch, floor, count] = wire::SNAP_MARK.unpack(payload);
        if wire::same_epoch(epoch, self.epoch) {
            self.snap_mark = Some((floor, count));
            self.maybe_adopt_snapshot(now, ctx);
        }
    }
}
