//! The replication styles: leadership from the agreed view, Δ-delivery
//! per style, the semi-active order stream, votes, and takeover.

use super::*;

impl ReplicaGroup {
    /// The leader per the agreed view: the lowest member it holds live
    /// (the static list's head when no agent is attached, no view is
    /// installed yet or the view holds no member), honouring the
    /// post-restart leadership holdback.
    fn live_leader(&mut self, now: Time) -> u32 {
        let head = self.cfg.members[0];
        let Some(source) = &self.view_source else {
            return head;
        };
        let source = source.borrow();
        let Some(view) = source.views.iter().rev().find(|v| v.installed_at <= now) else {
            return head;
        };
        if let Some(since) = self.await_view_since {
            // Re-admission shows up as a fresh view install — or, when
            // the outage was shorter than the detection window, as a
            // completed fast-path rejoin with no view change at all.
            let readmitted = view.installed_at >= since
                || source.rejoins.iter().any(|r| r.readmitted_at >= since);
            if readmitted {
                self.await_view_since = None;
            }
        }
        // Rejoin in progress: this member must not count itself live (a
        // stale pre-crash view could otherwise hand it leadership
        // concurrently with the interim leader).
        let (me, held_back) = (self.me(), self.await_view_since.is_some());
        self.cfg
            .members
            .iter()
            .copied()
            .find(|m| view.members.contains(m) && !(held_back && *m == me))
            .unwrap_or(head)
    }

    /// Re-reads the agreed view and re-binds leadership; runs the
    /// style-specific takeover when leadership lands here.
    pub(super) fn rebind(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let leader = self.live_leader(now);
        if leader != self.cur_leader {
            let old = self.cur_leader;
            self.cur_leader = leader;
            if leader == self.me() {
                self.take_over(old, now, ctx);
            } else {
                // Follower side: every leadership change starts a fresh
                // order stream at sequence 0 — re-anchor on its first
                // burst even when the leader *id* repeats (a returning
                // leader's second tenure must not be dropped against its
                // first tenure's sequence numbers).
                self.cur_order_leader = None;
                self.orders.clear();
                self.order_resync = true;
            }
        }
    }

    /// Δ-delivery instant: release everything due, in `(ts, sender)`
    /// order, and apply the style.
    pub(super) fn on_deliver(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.rebind(now, ctx);
        let due = self.inbox.due(now);
        for (id, ts, sender) in due {
            self.log.borrow_mut().delivered.push(id);
            self.observe(now, |group, member| MonitorEvent::RequestDelivered {
                group,
                member,
                id,
                ts,
            });
            match self.cfg.style {
                ReplicaStyle::Active => {
                    if self.catching_up {
                        // Buffer until the catch-up snapshot arrives: the
                        // adopted fold covers everything below its floor,
                        // and buffered deliveries splice in above it.
                        self.pending.insert(id, (ts, sender));
                        continue;
                    }
                    self.execute(id);
                    // Every member votes; the voter keeps the first copy.
                    self.emit(id, now, ctx);
                    let vote = wire::VOTE.pack([id, self.executed_count, self.state]);
                    self.fanout(ctx, GMSG_VOTE, vote);
                }
                ReplicaStyle::SemiActive => {
                    if self.cur_leader == self.me() && !self.catching_up {
                        self.execute(id);
                        self.emit(id, now, ctx);
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        let me = self.me();
                        self.fanout(ctx, GMSG_ORDER, wire::ORDER.pack([me as u64, seq, id]));
                    } else {
                        self.pending.insert(id, (ts, sender));
                    }
                }
                ReplicaStyle::Passive { checkpoint_every } => {
                    if self.cur_leader == self.me() {
                        self.execute(id);
                        self.emit(id, now, ctx);
                        self.executions_since_ckpt += 1;
                        if self.executions_since_ckpt >= checkpoint_every as u64 {
                            self.executions_since_ckpt = 0;
                            self.fanout(ctx, GMSG_CKPT, id);
                        }
                    } else {
                        self.pending.insert(id, (ts, sender));
                    }
                }
            }
        }
    }

    /// Applies buffered semi-active orders in contiguous sequence.
    fn apply_orders(&mut self) {
        if self.catching_up {
            return; // orders buffer until the snapshot is adopted
        }
        while let Some(id) = self.orders.remove(&self.next_seq) {
            self.next_seq += 1;
            self.pending.remove(&id);
            if self.execute(id) {
                // Executed under the leader's order, output withheld.
                self.log.borrow_mut().suppressed += 1;
            }
        }
    }

    /// Ends the post-restart order-resync window: adopt the stream at
    /// the lowest buffered sequence number (in-flight reordering is
    /// bounded by `δmax ≤ Δ`, so every copy of the burst has arrived)
    /// and apply contiguously.
    pub(super) fn finish_order_resync(&mut self) {
        if !self.order_resync {
            return;
        }
        if self.catching_up {
            // A snapshot pull is still in flight. In the steady path the
            // follower is strictly behind the leader, so the adoption
            // overwrite would stay consistent — but a leadership change
            // mid-pull can pair a stale snapshot with a newer order
            // stream, whose executed folds the overwrite would silently
            // lose. Keep buffering; the adoption re-runs the resync.
            return;
        }
        self.order_resync = false;
        if let Some(&seq) = self.orders.keys().next() {
            self.next_seq = seq;
        }
        self.apply_orders();
    }

    /// Pending deliveries in Δ-order — the takeover work list.
    pub(super) fn pending_in_order(&self) -> Vec<u64> {
        let mut v: Vec<(Time, u32, u64)> = self
            .pending
            .iter()
            .map(|(id, (ts, sender))| (*ts, *sender, *id))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, _, id)| id).collect()
    }

    /// Style-specific leadership takeover.
    fn take_over(&mut self, old: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        self.abort_catchup(now, ctx);
        self.observe(now, |group, to| MonitorEvent::LeadershipHandoff {
            group,
            from: old,
            to,
        });
        match self.cfg.style {
            ReplicaStyle::Active => {
                // Nothing to repair: outputs were never interrupted (the
                // voter has the surviving members' votes); the next tick
                // makes this member the submitting gateway.
            }
            ReplicaStyle::SemiActive => {
                // Settle any in-flight resync first: buffered orders
                // execute as the previous leader decided before this
                // member re-orders the leftovers. Then open a fresh
                // order stream — streams are per-leader, starting at
                // sequence 0, so no knowledge of the predecessor's
                // numbering is needed.
                self.finish_order_resync();
                self.next_seq = 0;
                self.cur_order_leader = Some(self.me());
                // Order, execute and emit everything delivered but never
                // ordered by the dead leader.
                for id in self.pending_in_order() {
                    self.pending.remove(&id);
                    self.execute(id);
                    self.emit(id, now, ctx);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let me = self.me();
                    self.fanout(ctx, GMSG_ORDER, wire::ORDER.pack([me as u64, seq, id]));
                }
            }
            ReplicaStyle::Passive { .. } => {
                // Reconstruct the checkpointed state by folding the
                // buffered deliveries up to the watermark (the backup's
                // Δ-order matches the primary's, so the fold does too —
                // and unlike shipping the state alongside the watermark
                // in a second message, this cannot race a reordered or
                // dropped copy), then replay what was delivered since.
                // Re-emissions past the watermark are the passive
                // style's duplicate-output exposure.
                let w = self.ckpt_watermark;
                let (covered, replay): (Vec<u64>, Vec<u64>) = self
                    .pending_in_order()
                    .into_iter()
                    .partition(|id| w.is_some_and(|w| *id <= w));
                for id in covered {
                    self.pending.remove(&id);
                    self.execute(id); // checkpoint install, no output
                }
                self.log.borrow_mut().replayed += replay.len() as u64;
                for id in replay {
                    self.pending.remove(&id);
                    self.execute(id);
                    self.emit(id, now, ctx);
                }
            }
        }
        // A closed-loop source only advances when responses flow; the
        // dead gateway's pending tick died with it, so the new leader
        // runs one tick immediately — submitting whatever the source had
        // scheduled during the outage — instead of waiting for a timer
        // that nobody will arm. A redundant tick is harmless (makeup
        // submissions dedup against the inbox).
        self.on_tick(now, ctx);
    }

    /// Semi-active follower side: the leader's decided order ([`GMSG_ORDER`]).
    pub(super) fn on_order(&mut self, payload: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        let [leader, seq, id] = wire::ORDER.unpack(payload);
        let leader = leader as u32;
        if self.cur_leader == self.me() {
            return; // leaders decide, they don't follow
        }
        if self.cur_order_leader != Some(leader) {
            // Stream switch (leadership changed, or the
            // first stream this member ever sees): drop
            // leftovers of the old stream and re-anchor.
            self.cur_order_leader = Some(leader);
            self.orders.clear();
            self.order_resync = true;
        }
        if self.order_resync {
            // Buffer the whole burst for one Δ before
            // adopting the stream: a lower-seq copy
            // reordered in flight must not be dropped.
            if self.orders.is_empty() {
                ctx.timer_at(
                    now + self.cfg.delta,
                    wire::epoch_timer(GK_RESYNC, self.epoch),
                );
            }
            self.orders.insert(seq, id);
        } else if seq >= self.next_seq {
            self.orders.insert(seq, id);
            self.apply_orders();
        }
    }

    /// Active: a peer's output vote ([`GMSG_VOTE`]).
    pub(super) fn on_vote(&mut self, payload: u64) {
        let [id, count, digest] = wire::VOTE.unpack(payload);
        if self.executed.contains(id) {
            // A redundant copy of an output this member
            // already produced: the voter suppresses it.
            // The digest cross-check is only meaningful
            // between members with the same history —
            // this member's latest execution is the voted
            // request and both executed the same number
            // of requests (a restarted replica's shorter
            // history is not a divergence).
            let comparable = self.last_executed == Some(id) && self.executed_count & 0xFFF == count;
            let mut log = self.log.borrow_mut();
            log.suppressed += 1;
            if comparable && self.state & 0xFFFF_FFFF != digest {
                log.vote_mismatches += 1;
            }
        }
    }
}
