//! Crash detection: the silence deadlines of the peers, the one queued
//! time-out, and the heartbeats.

use super::*;

impl NodeAgent {
    /// Queues the one silence time-out in `place` if it comes before every
    /// one already queued; otherwise the fire of an earlier one re-arms.
    fn arm(&mut self, place: Place, ctx: &mut ActorCtx<'_>) {
        if self.armed.iter().all(|queued| place < *queued) {
            ctx.timer_in(
                place,
                wire::TIMER.pack([KIND_TIMEOUT, wire::TIMEOUT.pack([place.seq])]),
            );
            self.armed.push(place);
        }
    }

    /// Arms at the earliest live deadline: after a fire, and after a
    /// restart forgot what the outage swallowed. (A scan of every peer —
    /// never done per heartbeat.)
    pub(super) fn rearm(&mut self, ctx: &mut ActorCtx<'_>) {
        let held_over = self.held_over.iter().map(|(_, place)| place);
        if let Some(&earliest) = self.deadline.iter().flatten().chain(held_over).min() {
            self.arm(earliest, ctx);
        }
    }

    /// Withdraws the live deadline reserved under `seq` and names its peer.
    fn take_deadline(&mut self, seq: u64) -> Option<u32> {
        let newest = |d: &Option<Place>| d.is_some_and(|place| place.seq == seq);
        if let Some(peer) = self.deadline.iter().position(newest) {
            self.deadline[peer] = None;
            return Some(peer as u32);
        }
        let held = self.held_over.iter().position(|(_, p)| p.seq == seq)?;
        Some(self.held_over.swap_remove(held).0)
    }

    /// Records one more silence deadline of `peer`, `T₀` from now.
    pub(super) fn add_deadline(&mut self, peer: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        let place = ctx.reserve(now + self.cfg.timeout(ctx.max_delay()));
        if let Some(earlier) = self.deadline[peer as usize].replace(place) {
            self.held_over.push((peer, earlier));
        }
        self.arm(place, ctx);
    }

    /// `peer` gave a sign of life: its earlier deadlines are void, the
    /// next is `T₀` from now.
    pub(super) fn watch(&mut self, peer: u32, now: Time, ctx: &mut ActorCtx<'_>) {
        self.deadline[peer as usize] = None;
        self.held_over.retain(|&(held, _)| held != peer);
        self.add_deadline(peer, now, ctx);
    }

    /// Sends a heartbeat to every peer, counting the copies the network
    /// accepted and refused, and arms the next one `H` from now.
    pub(super) fn heartbeat(&self, ctx: &mut ActorCtx<'_>) {
        let sent = ctx.fanout(self.peers(), MSG_HB, 0, 1) as u64;
        {
            let mut log = self.log.borrow_mut();
            log.heartbeats_sent += sent;
            log.heartbeats_suppressed += (self.cfg.nodes - 1) as u64 - sent;
        }
        ctx.timer_after(
            self.cfg.heartbeat_period,
            wire::epoch_timer(KIND_HB_TICK, self.epoch),
        );
    }

    /// The periodic heartbeat tick ([`KIND_HB_TICK`]).
    pub(super) fn on_heartbeat_tick(&mut self, body: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        if !wire::same_epoch(body, self.epoch) {
            return; // tick of a previous life
        }
        if !self.rejoining {
            // A member applies operations continuously and
            // persists each checkpoint as the cadence passes: the
            // durable cursor tracks the latest boundary. A
            // rejoining node is not applying state and must not
            // advance it.
            self.durable_ckpt_gen = self
                .durable_ckpt_gen
                .max(self.cfg.recovery.checkpoint_gen_at(now));
        }
        self.heartbeat(ctx);
    }

    /// The one queued silence time-out came due ([`KIND_TIMEOUT`]).
    pub(super) fn on_silence_timeout(&mut self, body: u64, now: Time, ctx: &mut ActorCtx<'_>) {
        // The place this fire was queued in is the tag's body. Only
        // a deadline still live there means silence; either way the
        // next earliest takes the queue.
        let [seq] = wire::TIMEOUT.unpack(body);
        self.armed.retain(|queued| queued.seq != seq);
        let due = self.take_deadline(seq);
        self.rearm(ctx);
        let Some(peer) = due else { return };
        if self.rejoining || self.suspected_local.contains(peer) {
            return;
        }
        self.suspected_local.insert(peer);
        self.excluded.insert(peer);
        self.log.borrow_mut().suspicions.push((peer, now));
        self.emit(now, |observer| MonitorEvent::Suspected {
            observer,
            suspect: peer,
        });
        if self.view_mask.contains(peer) {
            self.begin_change(now, ctx);
        }
    }

    /// `ActorEvent::Start`: view 0, the first heartbeat, the first deadlines.
    pub(super) fn on_start(&mut self, now: Time, ctx: &mut ActorCtx<'_>) {
        self.record_view(0, now);
        // First heartbeat immediately, then every H.
        self.heartbeat(ctx);
        // Until the first heartbeat arrives, a peer is treated as
        // heard-from at time zero.
        for peer in 0..self.cfg.nodes {
            if NodeId(peer) != self.cfg.node {
                self.add_deadline(peer, now, ctx);
            }
        }
    }

    /// A peer's heartbeat ([`MSG_HB`]).
    pub(super) fn on_heartbeat(&mut self, from: NodeId, now: Time, ctx: &mut ActorCtx<'_>) {
        let p = from.0;
        self.log.borrow_mut().heartbeats_seen += 1;
        if self.rejoining {
            self.hb_since_rejoin.insert(p);
        }
        self.watch(p, now, ctx);
    }
}
