//! Discrete-event engine: event queue, cancellation and run loop.
//!
//! The engine is deliberately trait-based rather than closure-based: a
//! simulation owns all of its state and implements [`Simulation::handle`],
//! receiving its own event type back at the times it asked for. This keeps
//! borrows simple, makes event payloads inspectable in traces, and guarantees
//! a deterministic total order of event delivery (time, then posting order).
//!
//! The queue is a binary heap of `(time, order seq, slot)` *keys* over a
//! slab of payloads; nothing is hashed. Each key is packed into one
//! `u128` whose integer order is the key's: time in nanoseconds in bits
//! 127–64, the order seq in bits 63–24, the slot or run index in bits
//! 23–0 (bit 23 flagging a run). No two queued keys share a seq, so the
//! index bits never decide the order, and the heap compares and moves
//! one integer per key. The packing caps an engine at fewer than 2^40
//! order seqs and fewer than 2^23 queued singles or runs; both are
//! checked where they would be crossed. A key stands for one queued single
//! ([`Scheduler::post`]) or for one whole *run* — everything a handler
//! staged, posted at once by [`Scheduler::post_run`] — under the key of
//! its earliest pending copy, re-keyed in place as copies are delivered.
//! A broadcast's 95 copies therefore cost the heap one key, not 95, which
//! is why [`Scheduler::depth`] and [`Engine::depth_peak`] count keys (the
//! heap's size is what a push or pop pays for) while [`Engine::pending`]
//! counts events.
//!
//! A run stores each distinct event once and each queued copy as a
//! 24-byte [`RunCopy`], `(time, seq, target, slot)`: the run's one
//! allocation is its copies, kept sorted latest first, and the events
//! sit in the payload slab beside the singles, each slot counting down
//! the copies that still share it. A copy's event is built when it is
//! delivered, by the event type's [`Retarget`] hook — the payload
//! re-addressed to the copy's target — so a multicast of one message to
//! 95 peers holds one message and 95 records, not 95 messages.
//!
//! The order seq is the FIFO tie-break: the counter [`Scheduler::post`]
//! advances. A handler may also *take* a seq now ([`Scheduler::next_seq`],
//! consumed through [`Scheduler::post_run`]) and queue under it later: the
//! event is then delivered exactly where one posted at the taking would
//! have been (see [`crate::mux::Place`]), as long as that place still lies
//! after the event being handled.
//!
//! Cancelling empties the slot of a single and leaves its key in the heap
//! as a *tombstone*, skipped when it surfaces; run copies have no
//! [`EventId`] and cannot be cancelled. A slot is reused, one generation
//! older, once its key is popped or its last copy delivered, so an
//! [`EventId`] that outlives its event never touches the next occupant.
//! The same id reaches a queued single's event to amend it in place
//! ([`Scheduler::queued_mut`]), under the key it was posted with.
//!
//! The engine observes nothing: it keeps two plain integers
//! ([`Engine::delivered`], [`Engine::depth_peak`]), hands handlers the
//! current depth ([`Scheduler::depth`]), and leaves reporting any of it to
//! the embedding (see [`crate::mux`]).

use hades_time::Time;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Identifier of a posted event; used to cancel or amend it before it
/// fires: the event's slot in the payload slab, and the slot's generation
/// at posting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A simulation driven by the [`Engine`].
///
/// `Event` is the simulation's own event vocabulary (task activation, message
/// delivery, timer expiry, ...). The engine never interprets it.
pub trait Simulation {
    /// Event payload type delivered back to the simulation.
    type Event;

    /// Handles one event at virtual time `now`. New events may be posted
    /// (and pending ones cancelled) through `sched`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// An event type whose queued copies share one payload: the hook
/// [`Scheduler::post_run`] builds each copy's event with, at delivery.
pub trait Retarget {
    /// This event, addressed to `target` instead.
    fn retarget(&self, target: u32) -> Self;
}

/// One queued copy of a run, `(time, order seq, target, event)`: the
/// event is an index into the events handed to [`Scheduler::post_run`]
/// while staged, and the slab slot sharing it once queued.
pub type RunCopy = (Time, u64, u32, u32);

#[derive(Debug)]
struct Slot<E> {
    /// Bumped when the slot is freed: older ids stop matching.
    gen: u32,
    /// Queued run copies sharing `payload`; 0 for a single.
    copies: u32,
    /// `None` while the slot is free or a tombstone.
    payload: Option<E>,
}

/// Set in a heap key's index bits when it indexes `runs`, not `slots`;
/// every index lies below it.
const RUN: u32 = 1 << 23;

/// Order seqs an engine hands out: the 40 bits of a key between its time
/// and its index.
const SEQ_LIMIT: u64 = 1 << 40;

/// A heap key, `(time, order seq, index)` packed by [`pack`] and reversed
/// so that the max-heap pops the earliest.
type Key = Reverse<u128>;

/// Packs `(at, seq, index)` into one integer that orders as the triple
/// does; `seq` must lie below [`SEQ_LIMIT`] and `index` below `2 * RUN`.
fn pack(at: Time, seq: u64, index: u32) -> u128 {
    (at.as_nanos() as u128) << 64 | (seq as u128) << 24 | index as u128
}

/// The `(at, seq, index)` a key was packed from.
fn unpack(key: u128) -> (Time, u64, u32) {
    let at = Time::from_nanos((key >> 64) as u64);
    (at, (key as u64) >> 24, key as u32 & (2 * RUN - 1))
}

/// Index of the entry just pushed onto a slab now `len` long; it must
/// lie below [`RUN`], leaving the flag and the seq bits alone.
fn newest(len: usize) -> u32 {
    let index = len - 1;
    assert!(
        index < RUN as usize,
        "fewer than 2^23 queued singles or runs per engine"
    );
    index as u32
}

/// The event queue itself, handed to [`Simulation::handle`] for posting and
/// cancelling events during event processing; both take effect at once.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: Time,
    /// The order seq of the event being handled; `None` before the first.
    now_seq: Option<u64>,
    /// `(time, order seq, slot)`, [packed](pack): one key per queued
    /// single that has not surfaced yet, tombstones included, and — the
    /// slot flagged [`RUN`] — one per run in flight, under its earliest
    /// pending copy.
    heap: BinaryHeap<Key>,
    /// Singles, and the events run copies share.
    slots: Vec<Slot<E>>,
    /// Slots holding nothing queued.
    free: Vec<u32>,
    /// The pending copies of each run in flight, latest first: the
    /// earliest — the one its key names — pops off the end. A spent run
    /// is an empty `Vec` holding no allocation.
    runs: Vec<Vec<RunCopy>>,
    /// Entries of `runs` with no key in the heap.
    free_runs: Vec<u32>,
    /// The event type's [`Retarget`] hook, set by [`Scheduler::post_run`].
    retarget: fn(&E, u32) -> E,
    /// The order seq the next post takes: the FIFO tie-break.
    next_seq: u64,
    /// Events queued and not cancelled, run copies included.
    live: usize,
    /// High water of `heap.len()`, tombstones and all.
    depth_peak: usize,
}

impl<E> Scheduler<E> {
    /// Posts `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Posting into the past is a programming error and panics here, in
    /// the offending handler. So does a post once the engine has handed
    /// out 2^40 order seqs, or once 2^23 slots are taken at once.
    pub fn post(&mut self, at: Time, event: E) -> EventId {
        assert!(at >= self.now, "posting event into the past");
        let seq = self.take_seqs(1);
        self.single(at, seq, event)
    }

    /// Advances the order counter by `seqs`, returning the first taken.
    fn take_seqs(&mut self, seqs: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq = first
            .checked_add(seqs)
            .filter(|&next| next <= SEQ_LIMIT)
            .expect("fewer than 2^40 order seqs per engine");
        first
    }

    /// Queues one event alone under the key `(at, seq)`.
    fn single(&mut self, at: Time, seq: u64, event: E) -> EventId {
        let slot = self.occupy(event);
        self.push_key(at, seq, slot);
        self.live += 1;
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Puts `event` in a free slot.
    fn occupy(&mut self, event: E) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                copies: 0,
                payload: None,
            });
            newest(self.slots.len())
        });
        self.slots[slot as usize].payload = Some(event);
        slot
    }

    /// Frees `slot` for reuse, one generation on, returning its event.
    fn release(&mut self, slot: u32) -> Option<E> {
        self.free.push(slot);
        let entry = &mut self.slots[slot as usize];
        entry.gen = entry.gen.wrapping_add(1);
        entry.payload.take()
    }

    fn push_key(&mut self, at: Time, seq: u64, slot: u32) {
        self.heap.push(Reverse(pack(at, seq, slot)));
        self.depth_peak = self.depth_peak.max(self.heap.len());
    }

    /// The order seq the next post will take. A handler that stages its
    /// posts numbers them from here and hands them over in one
    /// [`Scheduler::post_run`].
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Posts everything one handler staged under **one** heap key: each
    /// distinct event of `events` once, and each queued copy as a
    /// [`RunCopy`]. Both buffers are drained, and their capacity stays
    /// with the caller. A copy names its target and the index of its event
    /// in `events`, and every event is named by a copy; at delivery the
    /// copy is that event, as an `E`, [retargeted](Retarget::retarget) to
    /// its target.
    ///
    /// The order counter advances by the `seqs` the handler took from
    /// [`Scheduler::next_seq`] on. A copy's seq is one of those, or one
    /// taken by an earlier handler and not queued under yet; each copy is
    /// delivered where a [`Scheduler::post`] made when its seq was taken
    /// would have been. Run copies cannot be cancelled.
    ///
    /// # Panics
    ///
    /// Panics, like [`Scheduler::post`], if a copy lies in the past, if the
    /// seqs taken pass the engine's 2^40, or if a slot or a run past the
    /// first 2^23 would be taken at once.
    pub fn post_run<P>(&mut self, events: &mut Vec<P>, copies: &mut Vec<RunCopy>, seqs: u64)
    where
        E: Retarget + From<P>,
    {
        self.take_seqs(seqs);
        if copies.len() < 2 {
            if let Some((at, seq, target, _)) = copies.pop() {
                self.check(at, seq);
                let event = E::from(events.pop().expect("a copy names an event"));
                self.single(at, seq, event.retarget(target));
            }
            debug_assert!(events.is_empty(), "every event is named by a copy");
            return;
        }
        self.retarget = E::retarget;
        // Each event takes a slot, counting the copies that share it; the
        // copies name their events in order, each the same as the one
        // before or the next.
        let mut events = events.drain(..);
        let (mut index, mut slot) = (None, 0);
        for copy in copies.iter_mut() {
            self.check(copy.0, copy.1);
            if index != Some(copy.3) {
                index = Some(copy.3);
                let event = events.next().expect("a copy names an event");
                slot = self.occupy(E::from(event));
            }
            copy.3 = slot;
            self.slots[slot as usize].copies += 1;
        }
        debug_assert!(events.next().is_none(), "every event is named by a copy");
        copies.sort_unstable_by_key(|&(at, seq, ..)| Reverse(pack(at, seq, 0)));
        let &(at, seq, ..) = copies.last().expect("two or more copies");
        let run = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(Vec::new());
            newest(self.runs.len())
        });
        self.push_key(at, seq, run | RUN);
        self.live += copies.len();
        // An allocation of the run's own size, given back when it is spent.
        let queued = &mut self.runs[run as usize];
        queued.reserve_exact(copies.len());
        queued.append(copies);
    }

    /// Checks that a copy queued under `(at, seq)` is still to come.
    fn check(&self, at: Time, seq: u64) {
        assert!(at >= self.now, "posting event into the past");
        debug_assert!(seq < self.next_seq, "seq {seq} was never taken");
        debug_assert!(
            self.now_seq
                .is_none_or(|now_seq| (at, seq) > (self.now, now_seq)),
            "({at}, seq {seq}) has passed: it would come before the event being handled"
        );
    }

    /// Cancels a previously posted event in O(1): the payload is dropped at
    /// once, the heap key stays behind as a tombstone. Cancelling a
    /// delivered, cancelled or unknown id is a no-op — its generation no
    /// longer matches, whoever occupies the slot now.
    pub fn cancel(&mut self, id: EventId) {
        let slot = self.slots.get_mut(id.slot as usize);
        if slot.is_some_and(|s| s.gen == id.gen && s.payload.take().is_some()) {
            self.live -= 1;
        }
    }

    /// The event of a queued single, to amend in place before it fires;
    /// its key, and so its place in the delivery order, stays as posted.
    /// `None` once the event was delivered or cancelled, and for an id
    /// whose slot has been handed out again.
    pub fn queued_mut(&mut self, id: EventId) -> Option<&mut E> {
        let slot = self.slots.get_mut(id.slot as usize);
        slot.filter(|s| s.gen == id.gen)?.payload.as_mut()
    }

    /// Keys in the queue right now — one per queued single, tombstones
    /// included, and one per run in flight: what a profiler's timeline
    /// samples as the pending-queue length.
    pub fn depth(&self) -> u64 {
        self.heap.len() as u64
    }

    /// Pops the earliest live event due by `until`, dropping the tombstones
    /// ahead of it, and advances the clock to it.
    fn pop(&mut self, until: Time) -> Option<E> {
        loop {
            let &Reverse(key) = self.heap.peek()?;
            let (at, seq, slot) = unpack(key);
            if at > until {
                return None;
            }
            let event = if slot & RUN == 0 {
                self.heap.pop();
                self.release(slot)
            } else {
                // The key moves to the run's next copy and sinks to its
                // place when `top` drops; the last copy keeps no more
                // than its own room while it waits.
                let mut top = self.heap.peek_mut().expect("peeked above");
                let run = &mut self.runs[(slot ^ RUN) as usize];
                let (_, _, target, shared) = run.pop().expect("a run in flight holds a copy");
                match run.last() {
                    Some(&(next_at, next_seq, ..)) => {
                        *top = Reverse(pack(next_at, next_seq, slot));
                        drop(top);
                        if run.len() == 1 {
                            run.shrink_to_fit();
                        }
                    }
                    None => {
                        PeekMut::pop(top);
                        *run = Vec::new();
                        self.free_runs.push(slot ^ RUN);
                    }
                }
                let entry = &mut self.slots[shared as usize];
                let payload = entry.payload.as_ref().expect("a queued copy's event");
                let event = (self.retarget)(payload, target);
                entry.copies -= 1;
                if entry.copies == 0 {
                    self.release(shared);
                }
                Some(event)
            };
            if let Some(event) = event {
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                self.now_seq = Some(seq);
                self.live -= 1;
                return Some(event);
            }
        }
    }
}

/// The discrete-event engine: the [`Scheduler`] queue plus the run loop.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct Engine<E> {
    queue: Scheduler<E>,
    delivered: u64,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            queue: Scheduler {
                now: Time::ZERO,
                now_seq: None,
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                runs: Vec::new(),
                free_runs: Vec::new(),
                retarget: |_, _| unreachable!("no run was posted"),
                next_seq: 0,
                live: 0,
                depth_peak: 0,
            },
            delivered: 0,
        }
    }

    /// Current virtual time (time of the last delivered event).
    pub fn now(&self) -> Time {
        self.queue.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// High-water mark of the queue depth (heap keys: one per queued
    /// single, tombstones included, one per run in flight) over every post
    /// so far.
    pub fn depth_peak(&self) -> u64 {
        self.queue.depth_peak as u64
    }

    /// Number of pending (not yet delivered, not cancelled) events, in O(1),
    /// every copy of a run counted. Tombstones do not count here;
    /// [`Engine::depth_peak`] is the heap's length and does include them.
    pub fn pending(&self) -> usize {
        self.queue.live
    }

    /// Posts an event from outside the run loop (initial conditions).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current virtual time.
    pub fn post(&mut self, at: Time, event: E) -> EventId {
        self.queue.post(at, event)
    }

    /// Cancels a pending event from outside the run loop.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }

    /// Runs the simulation until the queue drains or virtual time would pass
    /// `until`. Returns the number of events delivered by this call.
    ///
    /// Events scheduled exactly at `until` are delivered.
    ///
    /// # Panics
    ///
    /// Panics if the simulation posts an event into the past.
    pub fn run<S: Simulation<Event = E>>(&mut self, sim: &mut S, until: Time) -> u64 {
        let before = self.delivered;
        while let Some(payload) = self.queue.pop(until) {
            self.delivered += 1;
            sim.handle(self.queue.now, payload, &mut self.queue);
        }
        self.delivered - before
    }

    /// Runs until the queue is fully drained.
    pub fn run_to_completion<S: Simulation<Event = E>>(&mut self, sim: &mut S) -> u64 {
        self.run(sim, Time::MAX)
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_time::Duration;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Ping(u32),
        Chain(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(Time, Ev)>,
        cancel_target: Option<EventId>,
    }

    impl Simulation for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
            self.seen.push((now, ev.clone()));
            if let Ev::Chain(n) = ev {
                if n > 0 {
                    sched.post(now + Duration::from_nanos(10), Ev::Chain(n - 1));
                }
            }
            if let Some(id) = self.cancel_target.take() {
                sched.cancel(id);
            }
        }
    }

    #[test]
    fn delivers_in_time_order_fifo_ties() {
        let mut e = Engine::new();
        e.post(Time::from_nanos(20), Ev::Ping(2));
        e.post(Time::from_nanos(10), Ev::Ping(1));
        e.post(Time::from_nanos(20), Ev::Ping(3)); // same time as Ping(2), posted later
        let mut sim = Recorder::default();
        let n = e.run_to_completion(&mut sim);
        assert_eq!(n, 3);
        assert_eq!(
            sim.seen,
            vec![
                (Time::from_nanos(10), Ev::Ping(1)),
                (Time::from_nanos(20), Ev::Ping(2)),
                (Time::from_nanos(20), Ev::Ping(3)),
            ]
        );
    }

    #[test]
    fn chained_events_advance_time() {
        let mut e = Engine::new();
        e.post(Time::ZERO, Ev::Chain(3));
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        assert_eq!(sim.seen.len(), 4);
        assert_eq!(e.now(), Time::from_nanos(30));
        assert_eq!(e.delivered(), 4);
    }

    #[test]
    fn until_bound_is_inclusive() {
        let mut e = Engine::new();
        e.post(Time::from_nanos(5), Ev::Ping(1));
        e.post(Time::from_nanos(6), Ev::Ping(2));
        let mut sim = Recorder::default();
        let n = e.run(&mut sim, Time::from_nanos(5));
        assert_eq!(n, 1);
        assert_eq!(e.pending(), 1);
        let n = e.run(&mut sim, Time::from_nanos(6));
        assert_eq!(n, 1);
    }

    #[test]
    fn external_cancellation_suppresses_delivery() {
        let mut e = Engine::new();
        let id = e.post(Time::from_nanos(5), Ev::Ping(1));
        e.post(Time::from_nanos(6), Ev::Ping(2));
        e.cancel(id);
        assert_eq!(e.pending(), 1);
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        assert_eq!(sim.seen, vec![(Time::from_nanos(6), Ev::Ping(2))]);
    }

    #[test]
    fn in_loop_cancellation_suppresses_delivery() {
        let mut e = Engine::new();
        e.post(Time::from_nanos(1), Ev::Ping(0));
        let victim = e.post(Time::from_nanos(9), Ev::Ping(99));
        let mut sim = Recorder {
            cancel_target: Some(victim),
            ..Default::default()
        };
        e.run_to_completion(&mut sim);
        assert_eq!(sim.seen.len(), 1);
    }

    #[test]
    fn cancelling_delivered_ids_leaves_nothing_behind() {
        // A re-arming timer: every delivery cancels the id that just
        // fired (a no-op) and posts the next one. Stopped mid-run, the
        // engine holds the one armed event and nothing per past cycle.
        struct Rearm {
            armed: EventId,
        }
        impl Simulation for Rearm {
            type Event = ();
            fn handle(&mut self, now: Time, (): (), sched: &mut Scheduler<()>) {
                sched.cancel(self.armed);
                self.armed = sched.post(now + Duration::from_nanos(1), ());
            }
        }
        let mut e = Engine::new();
        let mut sim = Rearm {
            armed: e.post(Time::ZERO, ()),
        };
        let n = e.run(&mut sim, Time::from_nanos(99_999));
        assert_eq!(n, 100_000);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.queue.heap.len(), 1);
        assert!(e.queue.slots.len() <= 2, "{} slots", e.queue.slots.len());
    }

    #[test]
    fn cancelled_pending_event_drops_its_payload_at_once() {
        let mut e = Engine::new();
        let id = e.post(Time::from_nanos(5), Ev::Ping(1));
        e.cancel(id);
        e.cancel(id); // idempotent
        assert_eq!(e.pending(), 0);
        assert!(e.queue.slots.iter().all(|s| s.payload.is_none()));
        let mut sim = Recorder::default();
        assert_eq!(e.run_to_completion(&mut sim), 0);
        assert!(
            e.queue.heap.is_empty(),
            "the tombstone is skipped and popped"
        );
        assert_eq!(
            e.queue.free.len(),
            e.queue.slots.len(),
            "and its slot freed"
        );
    }

    #[test]
    fn stale_id_does_not_cancel_the_slots_next_occupant() {
        let mut e = Engine::new();
        let first = e.post(Time::from_nanos(1), Ev::Ping(1));
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        let second = e.post(Time::from_nanos(2), Ev::Ping(2));
        assert_eq!(first.slot, second.slot, "the freed slot is reused");
        assert_ne!(first, second);
        e.cancel(first);
        assert_eq!(e.pending(), 1);
        // Likewise for an id whose event was cancelled, once its tombstone
        // has been popped and the slot handed out again.
        e.cancel(second);
        e.cancel(second);
        assert_eq!(e.pending(), 0);
        e.run_to_completion(&mut sim);
        let third = e.post(Time::from_nanos(3), Ev::Ping(3));
        assert_eq!(second.slot, third.slot);
        e.cancel(second);
        e.run_to_completion(&mut sim);
        assert_eq!(
            sim.seen,
            vec![
                (Time::from_nanos(1), Ev::Ping(1)),
                (Time::from_nanos(3), Ev::Ping(3)),
            ]
        );
    }

    #[test]
    fn a_queued_single_is_amended_in_place_while_its_id_is_live() {
        let mut e = Engine::new();
        let first = e.post(Time::from_nanos(1), Ev::Ping(1));
        let later = e.post(Time::from_nanos(1), Ev::Ping(2));
        *e.queue.queued_mut(first).expect("queued") = Ev::Chain(0);
        assert_eq!(e.queue.queued_mut(first), Some(&mut Ev::Chain(0)));
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        assert_eq!(
            sim.seen,
            vec![
                (Time::from_nanos(1), Ev::Chain(0)),
                (Time::from_nanos(1), Ev::Ping(2)),
            ],
            "the amended event keeps its place"
        );
        assert_eq!(e.queue.queued_mut(first), None, "delivered");
        let cancelled = e.post(Time::from_nanos(2), Ev::Ping(3));
        e.cancel(cancelled);
        assert_eq!(e.queue.queued_mut(cancelled), None, "cancelled");
        e.run_to_completion(&mut sim);
        let next = e.post(Time::from_nanos(3), Ev::Ping(4));
        assert_eq!(cancelled.slot, next.slot, "the freed slot is reused");
        assert_eq!(e.queue.queued_mut(cancelled), None, "reused");
        assert_eq!(e.queue.queued_mut(later), None, "reused by an older id");
        assert_eq!(e.queue.queued_mut(next), Some(&mut Ev::Ping(4)));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn posting_into_past_panics() {
        let mut e = Engine::new();
        e.post(Time::from_nanos(10), Ev::Ping(0));
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        e.post(Time::from_nanos(5), Ev::Ping(1));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn posting_into_past_from_a_handler_panics() {
        struct Backwards;
        impl Simulation for Backwards {
            type Event = ();
            fn handle(&mut self, now: Time, (): (), sched: &mut Scheduler<()>) {
                sched.post(now - Duration::from_nanos(1), ());
                unreachable!("the post returned: reported too late");
            }
        }
        let mut e = Engine::new();
        e.post(Time::from_nanos(10), ());
        e.run_to_completion(&mut Backwards);
    }

    impl Retarget for Ev {
        /// A ping's number is its address; a chain has none.
        fn retarget(&self, target: u32) -> Self {
            match self {
                Ev::Ping(_) => Ev::Ping(target),
                Ev::Chain(n) => Ev::Chain(*n),
            }
        }
    }

    impl Retarget for () {
        fn retarget(&self, _: u32) {}
    }

    /// One `(time, ping)` per copy for [`Scheduler::post_run`], each its
    /// own event, numbered from the queue's next seq on in the order given.
    fn staged(e: &Engine<Ev>, items: &[(u64, u32)]) -> (Vec<Ev>, Vec<RunCopy>) {
        let numbered = items.iter().zip(e.queue.next_seq()..).zip(0..);
        numbered
            .map(|((&(at, ping), seq), i)| (Ev::Ping(ping), (Time::from_nanos(at), seq, ping, i)))
            .unzip()
    }

    /// Whether every slot and every run is free again.
    fn all_free<E>(e: &Engine<E>) -> bool {
        let q = &e.queue;
        q.free.len() == q.slots.len()
            && q.free_runs.len() == q.runs.len()
            && q.slots.iter().all(|s| s.payload.is_none() && s.copies == 0)
    }

    /// A scripted event: its id and a word the copies of one staged run
    /// may share.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Word {
        id: u32,
        word: u8,
    }

    impl Retarget for Word {
        fn retarget(&self, target: u32) -> Self {
            Word {
                id: target,
                word: self.word,
            }
        }
    }

    /// Stages `(at, seq, target, word)` items as one run's events and
    /// copies: consecutive copies of one word share its event.
    fn share(items: impl IntoIterator<Item = (Time, u64, u32, u8)>) -> (Vec<Word>, Vec<RunCopy>) {
        let (mut events, mut copies) = (Vec::<Word>::new(), Vec::new());
        for (at, seq, id, word) in items {
            if events.last().is_none_or(|last| last.word != word) {
                events.push(Word { id, word });
            }
            copies.push((at, seq, id, events.len() as u32 - 1));
        }
        (events, copies)
    }

    #[test]
    fn runs_deliver_exactly_as_single_posts() {
        // One random script — event i is posted `delay[i]` (0..4 ns: ties
        // everywhere) after its parent fires, the roots up front, each
        // carrying a word from 0..3 — played twice: every event its own
        // `post`, and every handler's children (and the roots, in random
        // chunks) as one `post_run` whose consecutive copies of one word
        // share one event.
        struct Script {
            children: Vec<Vec<(u64, u32)>>,
            words: Vec<u8>,
            batched: bool,
            seen: Vec<(Time, Word)>,
        }
        impl Simulation for Script {
            type Event = Word;
            fn handle(&mut self, now: Time, ev: Word, sched: &mut Scheduler<Word>) {
                assert_eq!(ev.word, self.words[ev.id as usize], "the copy's own word");
                self.seen.push((now, ev));
                let children = &self.children[ev.id as usize];
                let due = |delay: u64| now + Duration::from_nanos(delay);
                if self.batched {
                    let numbered = children.iter().zip(sched.next_seq()..);
                    let (mut events, mut copies) = share(numbered.map(|(&(delay, child), seq)| {
                        (due(delay), seq, child, self.words[child as usize])
                    }));
                    sched.post_run(&mut events, &mut copies, children.len() as u64);
                    assert!(
                        events.is_empty() && copies.is_empty(),
                        "both come back drained"
                    );
                } else {
                    for &(delay, child) in children {
                        let word = self.words[child as usize];
                        sched.post(due(delay), Word { id: child, word });
                    }
                }
            }
        }
        let mut shared = 0;
        for seed in 0..200 {
            let mut rng = crate::SimRng::seed_from(seed);
            let n = 2 + rng.below(80) as u32;
            let roots = 1 + rng.below(n as u64 / 2) as u32;
            let mut children = vec![Vec::new(); n as usize];
            for id in roots..n {
                let parent = rng.below(id as u64) as usize;
                children[parent].push((rng.below(4), id));
            }
            let words: Vec<u8> = (0..n).map(|_| rng.below(3) as u8).collect();
            shared += children
                .iter()
                .flat_map(|c| c.windows(2))
                .filter(|w| words[w[0].1 as usize] == words[w[1].1 as usize])
                .count();
            let root_at: Vec<u64> = (0..roots).map(|_| rng.below(4)).collect();
            let play = |batched: bool, rng: &mut crate::SimRng| {
                let mut e = Engine::new();
                let root = |id: u32| Word {
                    id,
                    word: words[id as usize],
                };
                let mut next = 0;
                while next < roots {
                    let chunk = if batched { 1 + rng.below(6) as u32 } else { 1 };
                    let ids = next..(next + chunk).min(roots);
                    next = ids.end;
                    if chunk == 1 {
                        e.post(
                            Time::from_nanos(root_at[ids.start as usize]),
                            root(ids.start),
                        );
                        continue;
                    }
                    let numbered = ids.zip(e.queue.next_seq()..);
                    let (mut events, mut copies) = share(numbered.map(|(id, seq)| {
                        let at = Time::from_nanos(root_at[id as usize]);
                        (at, seq, id, words[id as usize])
                    }));
                    let seqs = copies.len() as u64;
                    e.queue.post_run(&mut events, &mut copies, seqs);
                }
                let mut sim = Script {
                    children: children.clone(),
                    words: words.clone(),
                    batched,
                    seen: Vec::new(),
                };
                assert_eq!(e.run_to_completion(&mut sim), n as u64);
                assert_eq!(e.pending(), 0);
                assert!(e.queue.heap.is_empty());
                assert!(all_free(&e), "every slot and every run freed");
                sim.seen
            };
            let singly = play(false, &mut rng);
            assert_eq!(singly, play(true, &mut rng), "seed {seed}");
        }
        assert!(shared > 500, "{shared} copies shared an event");
    }

    #[test]
    fn a_run_is_one_key_counted_by_element_and_resumes_mid_way() {
        let mut e = Engine::new();
        let single = e.post(Time::from_nanos(20), Ev::Ping(0));
        let (mut events, mut copies) = staged(&e, &[(30, 3), (10, 1), (20, 2)]);
        e.queue.post_run(&mut events, &mut copies, 3);
        e.post(Time::from_nanos(20), Ev::Ping(9));
        assert_eq!(e.pending(), 5, "pending counts run copies");
        assert_eq!(
            e.queue.depth(),
            3,
            "depth counts keys: two singles, one run"
        );
        assert_eq!(e.depth_peak(), 3);
        // Stop in the middle of the run: its key moved to the next copy.
        let mut sim = Recorder::default();
        assert_eq!(e.run(&mut sim, Time::from_nanos(15)), 1);
        assert_eq!((e.pending(), e.queue.depth()), (4, 3));
        // A single cancelled next to the run leaves the run alone.
        e.cancel(single);
        assert_eq!((e.pending(), e.queue.depth()), (3, 3));
        assert_eq!(e.run(&mut sim, Time::from_nanos(20)), 2);
        assert_eq!(e.run_to_completion(&mut sim), 1);
        assert_eq!(
            sim.seen,
            vec![
                (Time::from_nanos(10), Ev::Ping(1)),
                (Time::from_nanos(20), Ev::Ping(2)), // seq 3: before Ping(9), seq 4
                (Time::from_nanos(20), Ev::Ping(9)),
                (Time::from_nanos(30), Ev::Ping(3)),
            ]
        );
        assert_eq!(e.depth_peak(), 3);
        assert!(all_free(&e));
    }

    #[test]
    fn copies_share_one_slot_freed_with_the_last_of_them() {
        // Two words: one shared by three copies, one by two.
        let mut e = Engine::new();
        let at = |ns| Time::from_nanos(ns);
        let items = [(at(5), 0, 1, 7), (at(3), 1, 2, 7), (at(9), 2, 3, 7)];
        let more = [(at(4), 3, 4, 8), (at(9), 4, 5, 8)];
        let (mut events, mut copies) = share(items.into_iter().chain(more));
        assert_eq!(events.len(), 2);
        e.queue.post_run(&mut events, &mut copies, 5);
        assert_eq!((e.pending(), e.queue.depth()), (5, 1));
        let held = |e: &Engine<Word>| e.queue.slots.iter().filter(|s| s.payload.is_some()).count();
        assert_eq!(held(&e), 2, "one slot per event, not per copy");
        struct Seen(Vec<Word>);
        impl Simulation for Seen {
            type Event = Word;
            fn handle(&mut self, _: Time, ev: Word, _: &mut Scheduler<Word>) {
                self.0.push(ev);
            }
        }
        let mut sim = Seen(Vec::new());
        // Word 8's first copy and word 7's first two are out: both slots
        // still hold their events.
        assert_eq!(e.run(&mut sim, at(5)), 3);
        assert_eq!((e.pending(), held(&e)), (2, 2));
        assert_eq!(e.run_to_completion(&mut sim), 2);
        let word = |id, word| Word { id, word };
        assert_eq!(
            sim.0,
            [word(2, 7), word(4, 8), word(1, 7), word(3, 7), word(5, 8)]
        );
        assert_eq!(e.pending(), 0);
        assert!(all_free(&e), "a spent run frees its event slots");
        // The next posts reuse those slots rather than growing the slab.
        let slots = e.queue.slots.len();
        let later = items.map(|(t, seq, id, w)| (t + Duration::from_nanos(20), seq + 5, id, w));
        let (mut events, mut copies) = share(later);
        e.queue.post_run(&mut events, &mut copies, 3);
        e.post(at(30), word(0, 0));
        assert_eq!(e.queue.slots.len(), slots);
    }

    #[test]
    fn depth_peak_counts_one_key_per_broadcast() {
        // Four roots each broadcast one word to eight targets at one
        // instant: 32 copies, four events, four keys.
        struct Broadcast;
        impl Simulation for Broadcast {
            type Event = Word;
            fn handle(&mut self, now: Time, ev: Word, sched: &mut Scheduler<Word>) {
                if ev.word == 0 {
                    let next = sched.next_seq();
                    let items =
                        (0..8).map(|i| (now + Duration::from_nanos(1), next + i, i as u32, 1));
                    let (mut events, mut copies) = share(items);
                    sched.post_run(&mut events, &mut copies, 8);
                }
            }
        }
        let mut e = Engine::new();
        for id in 0..4 {
            e.post(Time::ZERO, Word { id, word: 0 });
        }
        assert_eq!(e.run(&mut Broadcast, Time::ZERO), 4);
        assert_eq!((e.pending(), e.queue.depth()), (32, 4));
        assert_eq!(e.depth_peak(), 4, "the roots' keys, then one per run");
        assert_eq!(e.run_to_completion(&mut Broadcast), 32);
        assert_eq!(e.depth_peak(), 4);
        assert!(all_free(&e));
    }

    #[test]
    fn a_seq_taken_early_is_queued_under_late() {
        // Seq 0 is taken and left unused; what is later queued under it
        // is delivered before the event posted in between, at a tie.
        let mut e = Engine::new();
        e.queue.post_run::<Ev>(&mut Vec::new(), &mut Vec::new(), 1);
        e.post(Time::from_nanos(5), Ev::Ping(1));
        let late = (Time::from_nanos(5), 0, 0, 0);
        e.queue.post_run(&mut vec![Ev::Ping(0)], &mut vec![late], 0);
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        let order: Vec<Ev> = sim.seen.into_iter().map(|(_, ev)| ev).collect();
        assert_eq!(order, [Ev::Ping(0), Ev::Ping(1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "has passed")]
    fn queueing_under_a_place_that_has_passed_is_caught() {
        // The first handler takes a seq for the instant 10; the second,
        // handled at 10 under a later seq, queues under it anyway.
        struct Late(Option<u64>);
        impl Simulation for Late {
            type Event = ();
            fn handle(&mut self, now: Time, (): (), sched: &mut Scheduler<()>) {
                match self.0 {
                    None => {
                        self.0 = Some(sched.next_seq());
                        sched.post_run::<()>(&mut Vec::new(), &mut Vec::new(), 1);
                        sched.post(now, ());
                    }
                    Some(seq) => sched.post_run(&mut vec![()], &mut vec![(now, seq, 0, 0)], 0),
                }
            }
        }
        let mut e = Engine::new();
        e.post(Time::from_nanos(10), ());
        e.run_to_completion(&mut Late(None));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn a_run_element_in_the_past_panics_in_the_handler() {
        struct Backwards;
        impl Simulation for Backwards {
            type Event = ();
            fn handle(&mut self, now: Time, (): (), sched: &mut Scheduler<()>) {
                let seq = sched.next_seq();
                let past = now - Duration::from_nanos(1);
                let mut copies = vec![(now, seq, 0, 0), (past, seq + 1, 0, 0)];
                sched.post_run(&mut vec![()], &mut copies, 2);
                unreachable!("the post returned: reported too late");
            }
        }
        let mut e = Engine::new();
        e.post(Time::from_nanos(10), ());
        e.run_to_completion(&mut Backwards);
    }

    /// The heap element stays one 16-byte integer.
    const _: () = assert!(std::mem::size_of::<Key>() == 16);

    #[test]
    fn packed_keys_order_as_time_then_seq_and_read_back() {
        let mut rng = crate::SimRng::seed_from(33);
        // Small times and seqs tie often; full-width ones cover every bit.
        let mut random = |wide: bool| {
            let (time, seq) = if wide {
                (rng.next_u64(), rng.below(SEQ_LIMIT))
            } else {
                (rng.below(4), rng.below(4))
            };
            (
                Time::from_nanos(time),
                seq,
                rng.below(2 * RUN as u64) as u32,
            )
        };
        let mut keys: Vec<(Time, u64, u32)> = (0..2000).map(|i| random(i % 2 == 0)).collect();
        let top = SEQ_LIMIT - 1;
        keys.extend([
            (Time::MAX, top, RUN - 1),
            (Time::MAX, top, 2 * RUN - 1),
            (Time::MAX, 0, 0),
            (Time::ZERO, top, 2 * RUN - 1),
            (Time::ZERO, 0, RUN),
            (Time::ZERO, 0, 0),
        ]);
        for &(at, seq, index) in &keys {
            assert_eq!(unpack(pack(at, seq, index)), (at, seq, index));
        }
        for pair in keys.windows(2) {
            let [a, b] = [pair[0], pair[1]];
            let order = pack(a.0, a.1, a.2).cmp(&pack(b.0, b.1, b.2));
            if a.1 != b.1 {
                assert_eq!(order, (a.0, a.1).cmp(&(b.0, b.1)), "{a:?} against {b:?}");
            }
            assert_eq!(order, a.cmp(&b), "{a:?} against {b:?}");
        }
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("it panics");
        payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn the_seq_limit_panics_where_it_is_crossed() {
        let mut e = Engine::new();
        e.queue.next_seq = SEQ_LIMIT - 1;
        e.post(Time::ZERO, Ev::Ping(0)); // the last seq there is
        let message = panic_message(|| {
            e.post(Time::ZERO, Ev::Ping(1));
        });
        assert!(message.contains("fewer than 2^40 order seqs"), "{message}");
        let mut e = Engine::<Ev>::new();
        e.queue.next_seq = SEQ_LIMIT - 2;
        let message = panic_message(|| e.queue.post_run::<Ev>(&mut Vec::new(), &mut Vec::new(), 3));
        assert!(message.contains("fewer than 2^40 order seqs"), "{message}");
    }

    #[test]
    fn the_slot_limit_panics_where_it_is_crossed() {
        assert_eq!(newest(RUN as usize), RUN - 1, "the last index there is");
        let message = panic_message(|| {
            newest(RUN as usize + 1);
        });
        assert!(message.contains("fewer than 2^23 queued"), "{message}");
    }

    #[test]
    fn default_engine_is_empty() {
        let e: Engine<Ev> = Engine::default();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.now(), Time::ZERO);
    }

    #[test]
    fn probe_counts_events_and_queue_high_water() {
        // The engine's own counts: what an embedding's probe publishes as
        // `engine.events` / `engine.queue_depth_peak` at the end of a run.
        struct Depths(Vec<u64>);
        impl Simulation for Depths {
            type Event = Ev;
            fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
                self.0.push(sched.depth());
                if let Ev::Chain(n @ 1..) = ev {
                    sched.post(now + Duration::from_nanos(10), Ev::Chain(n - 1));
                }
            }
        }
        let mut e = Engine::new();
        e.post(Time::from_nanos(1), Ev::Ping(1));
        e.post(Time::from_nanos(2), Ev::Ping(2));
        e.post(Time::from_nanos(3), Ev::Chain(2));
        let mut sim = Depths(Vec::new());
        assert_eq!(e.run_to_completion(&mut sim), 5);
        assert_eq!(e.delivered(), 5);
        assert_eq!(e.depth_peak(), 3);
        assert_eq!(sim.0, [2, 1, 0, 0, 0], "depth as each handler sees it");
    }
}
