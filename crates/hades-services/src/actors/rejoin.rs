//! Crash recovery: join handling, the state transfer a member serves and
//! a joiner receives, NACK retransmission, replay, and restart.

use super::*;

impl NodeAgent {
    fn have_mask(&self) -> bool {
        self.mask_got.iter().all(|g| *g)
    }

    /// Announces this node's rejoin to every peer.
    fn announce_join(&self, ctx: &mut ActorCtx<'_>) {
        let payload = wire::JOIN.pack([self.epoch, self.view_number as u64, self.durable_ckpt_gen]);
        ctx.fanout(self.peers(), MSG_JOIN, payload, 1);
    }

    /// Serves queued join requests this node is the server for (the
    /// lowest-numbered view member other than the joiner), once no
    /// transfer and no view change is in flight. Requests this node is
    /// not the server for stay queued: a later view change may make it
    /// the server (e.g. when the previous server is excluded), and
    /// entries of re-admitted joiners are pruned at install.
    pub(super) fn drain_pending_joins(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let mut i = 0;
        while i < self.pending_joins.len() {
            if self.serving.is_some() || self.changing.is_some() {
                return; // one transfer at a time; re-drained on install
            }
            let (joiner, epoch, ckpt_gen) = self.pending_joins[i];
            let server = self.view_mask.members().find(|m| *m != joiner);
            if server == Some(self.cfg.node.0) {
                self.pending_joins.remove(i);
                self.start_transfer(joiner, epoch, ckpt_gen, now, ctx);
            } else {
                i += 1;
            }
        }
    }

    /// The joiner is back in the view: close the rejoin record and resume
    /// detection duty.
    pub(super) fn finish_rejoin(&mut self, view: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rejoining = false;
        self.heard_joins.clear();
        self.stall_rounds = 0;
        let p = self.pending.take().unwrap_or_default();
        let record = RejoinRecord {
            node: self.cfg.node.0,
            restarted_at: p.restarted_at,
            transfer_started_at: p.transfer_started_at.unwrap_or(now),
            transfer_completed_at: p.transfer_completed_at.unwrap_or(now),
            replay_completed_at: p.replay_completed_at.unwrap_or(now),
            readmitted_at: now,
            view,
            views_traversed: view.saturating_sub(self.pre_crash_view),
            chunks: self.xfer_seen,
            chunks_resent: self.chunks_resent,
            bytes: if self.xfer_delta {
                self.cfg.recovery.delta_bytes(self.log_tail)
            } else {
                self.cfg.recovery.bytes(self.log_tail)
            },
            log_entries: self.log_tail,
            delta: self.xfer_delta,
        };
        self.log.borrow_mut().rejoins.push(record);
        // The replayed state is current as of now: the durable cursor
        // advances to the checkpoint interval the rejoin landed in.
        self.durable_ckpt_gen = self
            .durable_ckpt_gen
            .max(self.cfg.recovery.checkpoint_gen_at(now));
        self.emit(now, |node| MonitorEvent::RejoinCompleted {
            node,
            view,
            restarted_at: p.restarted_at,
        });
        // Resume watching the peers of the (re)joined view — on top of
        // any deadline still live from before: a heartbeat heard while
        // rejoining set one, and it stays in force.
        for peer in self.view_mask.to_vec() {
            if NodeId(peer) != self.cfg.node {
                self.add_deadline(peer, now, ctx);
            }
        }
    }

    /// How long the joiner waits after the last transfer progress before
    /// NACKing the gaps: enough for the next paced chunk (plus jitter) to
    /// arrive on its own, far below the heartbeat-cadence JOIN retry.
    fn nack_delay(&self, max_delay: Duration) -> Duration {
        self.cfg
            .recovery
            .chunk_interval
            .saturating_mul(2)
            .saturating_add(max_delay.saturating_mul(2))
    }

    /// Arms the gap-detection timer if no round is pending and the
    /// inbound stream is still incomplete.
    fn arm_nack(&mut self, ctx: &mut ActorCtx<'_>) {
        let complete = self.xfer_total.is_some_and(|t| self.xfer_seen >= t);
        if self.nack_armed || complete {
            return;
        }
        self.nack_armed = true;
        self.xfer_seen_at_nack = self.xfer_seen;
        let delay = self.nack_delay(ctx.max_delay());
        ctx.timer_after(delay, wire::epoch_timer(KIND_NACK, self.epoch));
    }

    /// Re-sends the stored preamble of the transfer in flight (the joiner
    /// lost it on a lossy link).
    fn resend_preamble(&self, ctx: &mut ActorCtx<'_>) {
        let Some(t) = &self.serving else { return };
        let to = ActorId(t.to);
        let node = NodeId(t.to);
        let kind = if t.delta { MSG_DSYNC } else { MSG_SYNC };
        let sync = wire::SYNC.pack([t.to_epoch, t.log_tail, t.view as u64]);
        ctx.send(to, node, kind, sync);
        for w in 0..self.cfg.wire_words() {
            let mask = wire::MASK.pack([t.to_epoch, w as u64, t.mask.wire_word(w) as u64]);
            ctx.send(to, node, MSG_MASK, mask);
        }
    }

    /// Handles a join request on a live node: re-arm liveness tracking of
    /// the joiner and queue the request; the queue drain ships the state
    /// from whichever node the current view designates as server.
    fn handle_join(
        &mut self,
        joiner: u32,
        epoch: u64,
        ckpt_gen: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        // The joiner is demonstrably alive again: retract any suspicion
        // and invalidate stale silence timers.
        if self.suspected_local.remove(joiner) {
            self.emit(now, |observer| MonitorEvent::SuspicionCleared {
                observer,
                suspect: joiner,
            });
        }
        self.excluded.remove(joiner);
        self.watch(joiner, now, ctx);
        if let Some(t) = &self.serving {
            if t.to == joiner && t.to_epoch == epoch {
                // A retransmitted JOIN of the joiner this transfer already
                // serves: the preamble (or early chunks) was lost on a
                // lossy link. Re-send the preamble the stream is based on;
                // the chunk pacing continues untouched.
                self.resend_preamble(ctx);
                return;
            }
            if t.to == joiner {
                // The joiner restarted again mid-transfer: the stream in
                // flight serves a dead incarnation — abort it and queue
                // the fresh epoch below.
                self.serving = None;
            }
        }
        // Every live node remembers the request — not only the node that
        // currently believes it is the server. Servership is re-evaluated
        // at every drain point (now, and after each view install), so if
        // the perceived server is itself dead and about to be excluded,
        // the next-lowest member picks the join up instead of the request
        // being silently dropped. Only the freshest request per joiner is
        // kept; entries of re-admitted joiners are pruned at install.
        self.pending_joins.retain(|(j, _, _)| *j != joiner);
        self.pending_joins.push_back((joiner, epoch, ckpt_gen));
        self.drain_pending_joins(now, ctx);
    }

    fn start_transfer(
        &mut self,
        joiner: u32,
        epoch: u64,
        ckpt_gen: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        // The preamble carries the tail length in 16 bits: clamp it here,
        // on the serving side, so the chunk pacing, the payload and the
        // joiner's replay/byte accounting all agree even for checkpoint
        // cadences whose tail would exceed 65535 operations.
        let log_tail = self.cfg.recovery.log_tail_at(now).min(0xFFFF);
        // Delta transfer: the joiner's durable checkpoint cursor already
        // covers the snapshot this server would ship, so only the log
        // tail accumulated since that checkpoint needs to travel.
        let delta = self.cfg.recovery.delta_transfers
            && ckpt_gen >= self.cfg.recovery.checkpoint_gen_at(now);
        let total = if delta {
            self.cfg.recovery.delta_chunks(log_tail).min(0xFF_FFFF)
        } else {
            self.cfg.recovery.chunks(log_tail).min(0xFF_FFFF)
        };
        self.serving = Some(Transfer {
            to: joiner,
            to_epoch: epoch,
            to_ckpt_gen: ckpt_gen,
            total,
            next: 0,
            log_tail,
            view: self.view_number,
            mask: self.view_mask.clone(),
            delta,
        });
        self.resend_preamble(ctx);
        self.log.borrow_mut().transfers_served += 1;
        self.send_chunk(now, ctx);
    }

    /// Sends the next chunk of the outbound transfer and paces the one
    /// after it; on the last chunk, starts any queued transfer.
    fn send_chunk(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let Some(t) = &mut self.serving else { return };
        ctx.send(
            ActorId(t.to),
            NodeId(t.to),
            MSG_CKPT,
            wire::CKPT.pack([t.to_epoch, t.next, t.total]),
        );
        t.next += 1;
        let (done, next_seq, to) = (t.next >= t.total, t.next, t.to);
        self.log.borrow_mut().chunks_sent += 1;
        if done {
            // Keep the finished stream's identity: a loss the joiner
            // discovers only now (the tail chunks never arrived) comes
            // back as NACKs, answered from here with targeted resends.
            self.last_served = self.serving.take();
            self.drain_pending_joins(now, ctx);
        } else {
            let body = wire::XFER.pack([to as u64, next_seq]);
            ctx.timer_after(
                self.cfg.recovery.chunk_interval,
                wire::TIMER.pack([KIND_XFER, body]),
            );
        }
    }

    /// Joiner side: once the preamble and every chunk arrived, start the
    /// local replay of the log tail.
    fn maybe_start_replay(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        // `>=` rather than `==`: stray chunks of a superseded stream may
        // inflate the count, which at worst starts the replay early —
        // never stalls it.
        if self.replayed
            || !self.have_sync
            || !self.have_mask()
            || self.xfer_total.is_none_or(|t| self.xfer_seen < t)
        {
            return;
        }
        if let Some(p) = &mut self.pending {
            p.transfer_completed_at = Some(now);
        }
        self.emit(now, |node| MonitorEvent::TransferCompleted { node });
        ctx.timer_at(
            now + self.cfg.recovery.replay_time(self.log_tail),
            wire::epoch_timer(KIND_REPLAY, self.epoch),
        );
    }

    pub(super) fn on_restart(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.log.borrow_mut().restarts.push(now);
        // The host dropped every delivery of the outage: a deadline that
        // came due in it is gone unfired, and so is a time-out queued in
        // it — forget both, and queue under what is still to come. (A
        // deadline due at this very instant fires after this handler, into
        // the rejoin, whichever side of the restart it was reserved on.)
        for deadline in &mut self.deadline {
            *deadline = deadline.filter(|place| place.at >= now);
        }
        self.held_over.retain(|(_, place)| place.at >= now);
        self.armed.retain(|queued| queued.at >= now);
        self.rearm(ctx);
        self.begin_rejoin(now, ctx);
    }

    /// Enters (or re-enters) the rejoin protocol from the announce step:
    /// fresh epoch, all volatile protocol state dropped. Used on a cold
    /// restart and by the self-heal path when the cluster excluded a
    /// live node.
    pub(super) fn begin_rejoin(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.epoch += 1;
        self.rejoining = true;
        self.have_sync = false;
        self.mask_got = vec![false; self.cfg.wire_words() as usize];
        self.replayed = false;
        self.log_tail = 0;
        self.xfer_total = None;
        self.xfer_seen = 0;
        self.xfer_seen_at_retry = 0;
        self.stall_rounds = 0;
        self.heard_joins.clear();
        self.hb_since_rejoin = MemberSet::new();
        self.xfer_got.clear();
        self.xfer_delta = false;
        self.nacked.clear();
        self.chunks_resent = 0;
        self.nack_armed = false;
        self.xfer_seen_at_nack = 0;
        self.pre_crash_view = self.view_number;
        self.pending = Some(PendingRejoin {
            restarted_at: now,
            ..PendingRejoin::default()
        });
        self.suspected_local = MemberSet::new();
        self.excluded = MemberSet::new();
        self.joining = MemberSet::new();
        self.changing = None;
        self.serving = None;
        self.last_served = None;
        self.pending_joins.clear();
        self.emit(now, |node| MonitorEvent::RejoinAnnounced { node });
        // Liveness first (peers resume watching us), then the join
        // announcement that triggers the state transfer — re-announced on
        // the heartbeat cadence while the transfer makes no progress, so
        // a lost JOIN or preamble cannot stall the rejoin on lossy links.
        self.heartbeat(ctx);
        self.announce_join(ctx);
        ctx.timer_after(
            self.cfg.heartbeat_period,
            wire::epoch_timer(KIND_JOIN_RETRY, self.epoch),
        );
    }

    /// The next paced chunk of the outbound transfer ([`KIND_XFER`]).
    pub(super) fn on_chunk_due(&mut self, body: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        let [to, seq] = wire::XFER.unpack(body);
        let to = to as u32;
        if self
            .serving
            .as_ref()
            .is_some_and(|s| s.to == to && s.next == seq)
        {
            self.send_chunk(now, ctx);
        }
    }

    /// The joiner's heartbeat-cadence progress check ([`KIND_JOIN_RETRY`]).
    pub(super) fn on_join_retry(&mut self, body: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        if !wire::same_epoch(body, self.epoch) || !self.rejoining || self.replayed {
            return;
        }
        let complete = self.xfer_total.is_some_and(|total| self.xfer_seen >= total);
        let stalled = !self.have_sync
            || !self.have_mask()
            || (!complete && self.xfer_seen == self.xfer_seen_at_retry);
        if stalled {
            // The re-announcement is a liveness mark: the stall
            // watchdog re-arms on it, because a joiner that keeps
            // asking is making the only progress possible while no
            // server exists (the true wedge — a joiner that went
            // silent — stops re-announcing and still trips it).
            self.emit(now, |node| MonitorEvent::RejoinAnnounced { node });
            self.announce_join(ctx);
            self.log.borrow_mut().join_retries += 1;
            if !self.have_sync {
                self.stall_rounds += 1;
                let lowest_announcer = self
                    .heard_joins
                    .keys()
                    .next()
                    .is_some_and(|lowest| self.cfg.node.0 < *lowest);
                let only_announcers_heard = self
                    .hb_since_rejoin
                    .members()
                    .all(|p| self.heard_joins.contains_key(&p));
                if self.stall_rounds >= 2 && lowest_announcer && only_announcers_heard {
                    self.bootstrap_view(now, ctx);
                    return;
                }
            }
        }
        self.xfer_seen_at_retry = self.xfer_seen;
        ctx.timer_after(
            self.cfg.heartbeat_period,
            wire::epoch_timer(KIND_JOIN_RETRY, self.epoch),
        );
    }

    /// The joiner's gap-detection round ([`KIND_NACK`]).
    pub(super) fn on_nack_round(&mut self, body: u64, ctx: &mut ActorCtx<'_>) {
        if !wire::same_epoch(body, self.epoch) {
            return; // round of a previous life
        }
        self.nack_armed = false;
        if !self.rejoining || self.replayed {
            return;
        }
        let Some(total) = self.xfer_total else {
            return;
        };
        if self.xfer_seen >= total {
            return; // completed while the round was pending
        }
        if self.xfer_seen == self.xfer_seen_at_nack {
            // No progress for a full round: the gaps are losses,
            // not pacing. Ask the server for exactly the missing
            // sequence numbers instead of re-serving the stream.
            let server = (ActorId(self.xfer_from), NodeId(self.xfer_from));
            let missing: Vec<u64> = (0..total)
                .filter(|s| !self.xfer_got.contains(s))
                .take(NACK_BATCH as usize)
                .collect();
            for seq in missing {
                let nack = wire::NACK.pack([self.epoch, seq]);
                ctx.send(server.0, server.1, MSG_NACK, nack);
                self.nacked.insert(seq);
            }
        }
        self.arm_nack(ctx);
    }

    /// The joiner's local replay of the log tail ended ([`KIND_REPLAY`]).
    pub(super) fn on_replay_done(&mut self, body: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        if !wire::same_epoch(body, self.epoch) || self.replayed || !self.rejoining {
            return;
        }
        self.replayed = true;
        if let Some(p) = &mut self.pending {
            p.replay_completed_at = Some(now);
        }
        self.emit(now, |node| MonitorEvent::ReplayCompleted { node });
        if self.view_mask.contains(self.cfg.node.0) {
            // The outage was shorter than the detection window: the
            // cluster never excluded us, so no view change is
            // needed — we are back as soon as the state is current.
            self.finish_rejoin(self.view_number, now, ctx);
        } else {
            self.joining.insert(self.cfg.node.0);
            self.begin_change(now, ctx);
        }
    }

    /// A restarted peer's join announcement ([`MSG_JOIN`]).
    pub(super) fn on_join(
        &mut self,
        from: NodeId,
        payload: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        let [epoch, view, ckpt_gen] = wire::JOIN.unpack(payload);
        if self.rejoining {
            // Our own view_mask is stale, so this must not
            // enter pending_joins (the drain could wrongly
            // self-select as server). Record the announcer for
            // the total-failure bootstrap; once some node is
            // live again, the announcer's heartbeat-cadence
            // retries take the ordinary path below.
            self.heard_joins.insert(from.0, view as u32);
        } else {
            self.handle_join(from.0, epoch, ckpt_gen, now, ctx);
        }
    }

    /// Joiner side: part 1 of a transfer preamble ([`MSG_SYNC`] or [`MSG_DSYNC`]).
    pub(super) fn on_preamble(
        &mut self,
        tag: u64,
        payload: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        let [epoch, log_tail, view] = wire::SYNC.unpack(payload);
        let view = view as u32;
        if !wire::same_epoch(epoch, self.epoch) {
            return;
        }
        // A preamble for a *newer* view supersedes the transfer in
        // progress (the server aborts and re-serves when a
        // view change invalidates the mask it shipped):
        // restart the chunk count — and the membership words —
        // for the new stream. The first preamble must not
        // reset: chunk 0 (or a mask word) may legitimately
        // arrive before it.
        if self.have_sync && view != self.view_number {
            self.xfer_seen = 0;
            self.xfer_total = None;
            self.xfer_got.clear();
            self.nacked.clear();
            self.mask_got = vec![false; self.cfg.wire_words() as usize];
        }
        self.have_sync = true;
        self.stall_rounds = 0;
        self.xfer_delta = tag == MSG_DSYNC;
        self.log_tail = log_tail;
        self.view_number = view;
        self.maybe_start_replay(now, ctx);
    }

    /// Joiner side: one membership word of the preamble ([`MSG_MASK`]).
    pub(super) fn on_mask_word(&mut self, payload: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        let [epoch, widx, bits] = wire::MASK.unpack(payload);
        let (widx, bits) = (widx as u32, bits as u32);
        if !wire::same_epoch(epoch, self.epoch) || widx >= self.cfg.wire_words() {
            return;
        }
        self.view_mask.set_wire_word(widx, bits);
        self.mask_got[widx as usize] = true;
        self.maybe_start_replay(now, ctx);
    }

    /// Joiner side: one state-transfer chunk ([`MSG_CKPT`]).
    pub(super) fn on_chunk(
        &mut self,
        from: NodeId,
        payload: u64,
        now: Time,
        ctx: &mut ActorCtx<'_>,
    ) {
        let [epoch, seq, total] = wire::CKPT.unpack(payload);
        if !wire::same_epoch(epoch, self.epoch) {
            return;
        }
        if self.xfer_seen == 0 {
            if let Some(p) = &mut self.pending {
                p.transfer_started_at = Some(now);
            }
            self.emit(now, |node| MonitorEvent::TransferStarted { node });
        }
        self.xfer_from = from.0;
        self.xfer_total = Some(total);
        if self.xfer_got.insert(seq) {
            self.xfer_seen = self.xfer_got.len() as u64;
            if self.nacked.remove(&seq) {
                self.chunks_resent += 1;
            }
            self.emit(now, |node| MonitorEvent::TransferProgress {
                node,
                chunks: self.xfer_seen,
            });
        }
        self.arm_nack(ctx);
        self.maybe_start_replay(now, ctx);
    }

    /// Server side: a joiner's selective-retransmission request ([`MSG_NACK`]).
    pub(super) fn on_nack(&mut self, from: NodeId, payload: u64, ctx: &mut ActorCtx<'_>) {
        let [epoch, seq] = wire::NACK.unpack(payload);
        // The stream may still be pacing or may have finished:
        // either way, resend exactly the requested chunk of
        // the joiner's stream without disturbing the pacing.
        let stream = self
            .serving
            .as_ref()
            .into_iter()
            .chain(self.last_served.as_ref())
            .find(|t| t.to == from.0 && wire::same_epoch(epoch, t.to_epoch) && seq < t.total);
        if let Some(t) = stream {
            ctx.send(
                ActorId(t.to),
                NodeId(t.to),
                MSG_CKPT,
                wire::CKPT.pack([t.to_epoch, seq, t.total]),
            );
            self.log.borrow_mut().chunks_sent += 1;
        }
    }
}
