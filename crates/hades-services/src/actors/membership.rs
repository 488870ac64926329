//! Membership: view-change proposals as wire words, their flood or
//! Δ-multicast, the install of the agreed view, and the total-failure
//! bootstrap.

use super::*;

impl NodeAgent {
    /// Sends the given wire words of a view-change proposal to every
    /// peer, counting accepted copies toward the flood-vs-multicast
    /// complexity comparison. The Δ-multicast transport retries each
    /// omitted copy up to `vc_attempts − 1` extra times; the flood
    /// transport relies on its round-level redundancy instead.
    fn send_proposal_words(&mut self, ctx: &mut ActorCtx<'_>, target: u32, words: &[(u32, u32)]) {
        let attempts = if self.cfg.vc_delta_multicast {
            self.cfg.vc_attempts.max(1)
        } else {
            1
        };
        let mut sent = 0u64;
        for &(widx, bits) in words {
            let payload = wire::VC.pack([target as u64, widx as u64, bits as u64]);
            sent += ctx.fanout(self.peers(), MSG_VC, payload, attempts) as u64;
        }
        self.log.borrow_mut().vc_messages_sent += sent;
    }

    /// All wire words of `set`, for full-proposal sends.
    fn all_words(&self, set: &MemberSet) -> Vec<(u32, u32)> {
        (0..self.cfg.wire_words())
            .map(|w| (w, set.wire_word(w)))
            .collect()
    }

    /// Starts a view change (or folds more exclusions/joins into the one
    /// in flight) toward the next view. Proposal merging is FloodSet-style
    /// with a twist: exclusion wins for current members (intersection),
    /// inclusion wins for non-members being re-admitted (union), so every
    /// correct node converges on the same set after `f + 1` rounds. The
    /// merge is bitwise, so each wire word travels — and merges — on its
    /// own.
    ///
    /// Transport: under the default Δ-multicast discipline each node
    /// multicasts its proposal once when it joins the change and again
    /// only when a merge actually changes it (information diffuses
    /// through the members' own sends, so a proposer's crash cannot hide
    /// its contribution — its atomic multicast either reached everyone
    /// or no one). The flood transport rebroadcasts every round instead.
    pub(super) fn begin_change(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let mut own = self.view_mask.union(&self.joining);
        own.subtract(&self.excluded);
        let words = self.cfg.wire_words();
        match &mut self.changing {
            Some(c) => {
                let target = c.target;
                let mut changed: Vec<(u32, u32)> = Vec::new();
                for w in 0..words {
                    if c.proposal
                        .merge_wire_word(w, own.wire_word(w), &self.view_mask)
                    {
                        changed.push((w, c.proposal.wire_word(w)));
                    }
                }
                if self.cfg.vc_delta_multicast && !changed.is_empty() {
                    self.send_proposal_words(ctx, target, &changed);
                }
            }
            None => {
                let target = self.view_number + 1;
                let all = self.all_words(&own);
                self.changing = Some(Change {
                    target,
                    proposal: own,
                });
                self.send_proposal_words(ctx, target, &all);
                let round = self.cfg.round_length(ctx.max_delay());
                if !self.cfg.vc_delta_multicast {
                    for r in 1..=self.cfg.f {
                        let body = wire::ROUND.pack([target as u64, r as u64]);
                        ctx.timer_at(
                            now + round.saturating_mul(r as u64),
                            wire::TIMER.pack([KIND_ROUND, body]),
                        );
                    }
                }
                ctx.timer_at(
                    now + round.saturating_mul(self.cfg.f as u64 + 1),
                    wire::TIMER.pack([KIND_DECIDE, wire::DECIDE.pack([target as u64])]),
                );
            }
        }
    }

    pub(super) fn install(&mut self, target: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        let matches = self.changing.as_ref().is_some_and(|c| c.target == target);
        if !matches {
            return;
        }
        let c = self.changing.take().expect("checked above");
        self.view_number = target;
        self.view_mask = c.proposal;
        self.joining.subtract(&self.view_mask);
        // Exclusions adopted from peers' proposals have served their
        // purpose once the view installs; keeping them would veto a later
        // re-admission of a recovered node (exclusion wins in the merge).
        // Own live suspicions persist — they re-enter the next proposal.
        self.excluded = self.suspected_local.clone();
        self.record_view(target, now);
        if self.rejoining && self.view_mask.contains(self.cfg.node.0) {
            self.finish_rejoin(target, now, ctx);
        } else if !self.rejoining && !self.view_mask.contains(self.cfg.node.0) {
            // The cluster excluded us while we are alive: our restart
            // raced the exclusion flood (the transfer shipped a mask that
            // still contained us), or a false suspicion won agreement.
            // Self-heal by running the rejoin protocol again from the
            // announce step instead of lingering outside the view.
            self.begin_rejoin(now, ctx);
        }
        // A transfer in flight to a node this view just excluded shipped
        // a membership that is now wrong (the joiner would take the fast
        // re-admission path on it): abort it and re-serve from the front
        // of the queue with the fresh view in the preamble.
        let aborted = self
            .serving
            .as_ref()
            .is_some_and(|t| !self.view_mask.contains(t.to));
        if aborted {
            let t = self.serving.take().expect("checked above");
            self.pending_joins.retain(|(j, _, _)| *j != t.to);
            self.pending_joins
                .push_front((t.to, t.to_epoch, t.to_ckpt_gen));
        }
        // Joins deferred behind this view change can be served now, with
        // the newly agreed membership in their preambles; requests of
        // joiners this view just re-admitted are settled and dropped.
        let vm = self.view_mask.clone();
        self.pending_joins.retain(|(j, _, _)| !vm.contains(*j));
        self.drain_pending_joins(now, ctx);
    }

    /// Total-failure bootstrap: every member restarted at once, so no
    /// live server exists and join announcements bounce between rejoining
    /// nodes forever. The lowest-numbered announcer — after two stalled
    /// retry rounds in which it heard *only* fellow announcers — installs
    /// a singleton view numbered past every view it has heard of (its own
    /// and every announcer's, so an established cluster history cannot be
    /// reused) and finishes its rejoin from durable state. The other
    /// announcers' heartbeat-cadence retries then reach a live member and
    /// take the ordinary transfer + re-admission path.
    pub(super) fn bootstrap_view(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        let heard_max = self.heard_joins.values().copied().max().unwrap_or(0);
        let target = self.view_number.max(heard_max) + 1;
        self.view_number = target;
        let mut mask = MemberSet::new();
        mask.insert(self.cfg.node.0);
        self.view_mask = mask;
        self.changing = None;
        self.record_view(target, now);
        self.finish_rejoin(target, now, ctx);
    }

    /// Logs view `number` (the current `view_mask`) as installed now and
    /// hands the install to the tap.
    pub(super) fn record_view(&mut self, number: u32, now: Time) {
        let members = self.view_mask.to_vec();
        self.log.borrow_mut().views.push(View {
            number,
            members: members.clone(),
            installed_at: now,
        });
        self.emit(now, |node| MonitorEvent::ViewInstalled {
            node,
            number,
            members,
        });
    }

    /// A flood round of the view change in flight ([`KIND_ROUND`]).
    pub(super) fn on_flood_round(&mut self, body: u64, ctx: &mut ActorCtx<'_>) {
        let [target, _round] = wire::ROUND.unpack(body);
        let target = target as u32;
        let words = match &self.changing {
            Some(c) if c.target == target => Some(self.all_words(&c.proposal)),
            _ => None,
        };
        if let Some(words) = words {
            self.send_proposal_words(ctx, target, &words);
        }
    }

    /// One wire word of a peer's view-change proposal ([`MSG_VC`]).
    pub(super) fn on_proposal_word(&mut self, payload: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        if self.rejoining && !self.have_sync {
            return; // no view knowledge at all yet: sit it out
        }
        let [target, widx, bits] = wire::VC.unpack(payload).map(|v| v as u32);
        if target > self.view_number + 1 && !self.rejoining {
            // A flood for a view beyond our next one proves we
            // missed at least one install while believing
            // ourselves a member (our restart raced an
            // exclusion flood): self-heal by re-entering the
            // rejoin protocol rather than dropping floods
            // forever.
            self.begin_rejoin(now, ctx);
            return;
        }
        if target != self.view_number + 1 || widx >= self.cfg.wire_words() {
            return; // stale, too far ahead mid-rejoin, or junk
        }
        // `None` = echo nothing, `Some(None)` = join the
        // change, `Some(Some(word))` = echo the merged word.
        let action: Option<Option<(u32, u32)>> = match &mut self.changing {
            Some(c) if c.target == target => {
                if c.proposal.merge_wire_word(widx, bits, &self.view_mask) {
                    // Echo-on-change: the merge learned
                    // something the peers may not have.
                    Some(Some((widx, c.proposal.wire_word(widx))))
                } else {
                    None
                }
            }
            Some(_) => None,
            None => {
                // Adopt the exclusions and joins this word
                // reveals and join the flood with our own
                // knowledge folded in.
                let vm = self.view_mask.wire_word(widx);
                self.excluded
                    .set_wire_word(widx, self.excluded.wire_word(widx) | (vm & !bits));
                self.joining
                    .set_wire_word(widx, self.joining.wire_word(widx) | (bits & !vm));
                Some(None)
            }
        };
        match action {
            Some(Some(word)) if self.cfg.vc_delta_multicast => {
                self.send_proposal_words(ctx, target, &[word]);
            }
            Some(None) => self.begin_change(now, ctx),
            _ => {}
        }
    }
}
