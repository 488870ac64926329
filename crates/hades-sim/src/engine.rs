//! Discrete-event engine: event queue, cancellation and run loop.
//!
//! The engine is deliberately trait-based rather than closure-based: a
//! simulation owns all of its state and implements [`Simulation::handle`],
//! receiving its own event type back at the times it asked for. This keeps
//! borrows simple, makes event payloads inspectable in traces, and guarantees
//! a deterministic total order of event delivery (time, then posting order).
//!
//! The queue is a binary heap of `(time, order seq, slot)` *keys* over a
//! slab of payloads; nothing is hashed. A key stands for one queued single
//! ([`Scheduler::post`]) or for one whole *run* — everything a handler
//! staged, posted at once by [`Scheduler::post_run`], kept sorted in a
//! slab of its own under the key of its earliest pending element and
//! re-keyed in place as elements are delivered. A broadcast's 95 copies therefore cost
//! the heap one key, not 95, which is why [`Scheduler::depth`] and
//! [`Engine::depth_peak`] count keys (the heap's size is what a push or
//! pop pays for) while [`Engine::pending`] counts events.
//!
//! The order seq is the FIFO tie-break: the counter [`Scheduler::post`]
//! advances. A handler may also *take* a seq now ([`Scheduler::next_seq`],
//! consumed through [`Scheduler::post_run`]) and queue under it later: the
//! event is then delivered exactly where one posted at the taking would
//! have been (see [`crate::mux::Place`]).
//!
//! Cancelling empties the slot of a single and leaves its key in the heap
//! as a *tombstone*, skipped when it surfaces; run elements have no
//! [`EventId`] and cannot be cancelled. A slot is reused, one generation
//! older, once its key is popped, so an [`EventId`] that outlives its
//! event never touches the next occupant.
//!
//! The engine observes nothing: it keeps two plain integers
//! ([`Engine::delivered`], [`Engine::depth_peak`]), hands handlers the
//! current depth ([`Scheduler::depth`]), and leaves reporting any of it to
//! the embedding (see [`crate::mux`]).

use hades_time::Time;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Identifier of a posted event; used to cancel it before it fires: the
/// event's slot in the payload slab, and the slot's generation at posting.
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

#[derive(Debug)]
struct Slot<E> {
    /// Bumped when the slot's key is popped: older ids stop matching.
    gen: u32,
    /// `None` while the slot is free or a tombstone.
    payload: Option<E>,
}

/// Set in a heap key's third field when it indexes `runs`, not `slots`.
const RUN: u32 = 1 << 31;

/// Index of the entry just pushed onto a slab now `len` long; it must
/// leave the [`RUN`] bit free.
fn newest(len: usize) -> u32 {
    let index = u32::try_from(len - 1).ok();
    index
        .filter(|i| i & RUN == 0)
        .expect("fewer than 2^31 queued events")
}

/// The event queue itself, handed to [`Simulation::handle`] for posting and
/// cancelling events during event processing; both take effect at once.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: Time,
    /// `(time, order seq, slot)`: one key per queued single that has not
    /// surfaced yet, tombstones included, and — the slot flagged [`RUN`] —
    /// one per run in flight, under its earliest pending element.
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    slots: Vec<Slot<E>>,
    /// Slots with no key in the heap.
    free: Vec<u32>,
    /// The pending `(time, seq, event)` elements of each run in flight,
    /// latest first: the earliest — the one its key names — pops off the
    /// end. A spent run is an empty `Vec` holding no allocation.
    runs: Vec<Vec<(Time, u64, E)>>,
    /// Entries of `runs` with no key in the heap.
    free_runs: Vec<u32>,
    /// The order seq the next post takes: the FIFO tie-break.
    next_seq: u64,
    /// Events queued and not cancelled, run elements included.
    live: usize,
    /// High water of `heap.len()`, tombstones and all.
    depth_peak: usize,
}

impl<E> Scheduler<E> {
    /// Posts `event` to fire at absolute time `at`. Posting into the past is
    /// a programming error and panics here, in the offending handler.
    pub fn post(&mut self, at: Time, event: E) -> EventId {
        assert!(at >= self.now, "posting event into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.single(at, seq, event)
    }

    /// Queues one event alone under the key `(at, seq)`.
    fn single(&mut self, at: Time, seq: u64, event: E) -> EventId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                payload: None,
            });
            newest(self.slots.len())
        });
        self.push_key(at, seq, slot);
        self.live += 1;
        let entry = &mut self.slots[slot as usize];
        entry.payload = Some(event);
        let gen = entry.gen;
        EventId { slot, gen }
    }

    fn push_key(&mut self, at: Time, seq: u64, slot: u32) {
        self.heap.push(Reverse((at, seq, slot)));
        self.depth_peak = self.depth_peak.max(self.heap.len());
    }

    /// The order seq the next post will take. A handler that stages its
    /// posts numbers them from here and hands them over in one
    /// [`Scheduler::post_run`].
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Posts everything one handler staged — `(time, seq, event)` elements,
    /// drained from `staged`, whose capacity stays with the caller — under
    /// **one** heap key, and advances the order counter by the `seqs` the
    /// handler took from [`Scheduler::next_seq`] on. An element's seq is
    /// one of those, or one taken by an earlier handler and not queued
    /// under yet; each is delivered where a [`Scheduler::post`] made when
    /// its seq was taken would have been. Run elements cannot be cancelled.
    ///
    /// # Panics
    ///
    /// Panics, like [`Scheduler::post`], if an element lies in the past.
    pub fn post_run(&mut self, staged: &mut Vec<(Time, u64, E)>, seqs: u64) {
        self.next_seq += seqs;
        for &(at, seq, _) in staged.iter() {
            assert!(at >= self.now, "posting event into the past");
            debug_assert!(seq < self.next_seq, "seq {seq} was never taken");
        }
        if staged.len() < 2 {
            if let Some((at, seq, event)) = staged.pop() {
                self.single(at, seq, event);
            }
            return;
        }
        staged.sort_unstable_by_key(|&(at, seq, _)| Reverse((at, seq)));
        let &(at, seq, _) = staged.last().expect("two or more elements");
        let slot = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(Vec::new());
            newest(self.runs.len())
        });
        self.push_key(at, seq, slot | RUN);
        self.live += staged.len();
        // An allocation of the run's own size, given back when it is spent.
        let run = &mut self.runs[slot as usize];
        run.reserve_exact(staged.len());
        run.append(staged);
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
            let &Reverse((at, _, slot)) = self.heap.peek().filter(|key| key.0 .0 <= until)?;
            let event = if slot & RUN == 0 {
                self.heap.pop();
                self.free.push(slot);
                let entry = &mut self.slots[slot as usize];
                entry.gen = entry.gen.wrapping_add(1);
                entry.payload.take()
            } else {
                // The key moves to the run's next element and sinks to its
                // place when `top` drops; the last element keeps no more
                // than its own room while it waits.
                let mut top = self.heap.peek_mut().expect("peeked above");
                let run = &mut self.runs[(slot ^ RUN) as usize];
                let (_, _, event) = run.pop().expect("a run in flight holds an element");
                match run.last() {
                    Some(&(next_at, next_seq, _)) => {
                        *top = Reverse((next_at, next_seq, slot));
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
                Some(event)
            };
            if let Some(event) = event {
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
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
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                runs: Vec::new(),
                free_runs: Vec::new(),
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
    /// every element of a run counted. Tombstones do not count here;
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

    /// `(time, seq, event)` elements for [`Scheduler::post_run`], numbered
    /// from the queue's next seq on in the order given.
    fn staged(e: &Engine<Ev>, items: &[(u64, Ev)]) -> Vec<(Time, u64, Ev)> {
        let numbered = items.iter().zip(e.queue.next_seq()..);
        numbered
            .map(|((at, ev), seq)| (Time::from_nanos(*at), seq, ev.clone()))
            .collect()
    }

    #[test]
    fn runs_deliver_exactly_as_single_posts() {
        // One random script — event i is posted `delay[i]` (0..4 ns: ties
        // everywhere) after its parent fires, the roots up front — played
        // twice: every event its own `post`, and every handler's children
        // (and the roots, in random chunks) as one `post_run`.
        struct Script {
            children: Vec<Vec<(u64, u32)>>,
            batched: bool,
            seen: Vec<(Time, u32)>,
        }
        impl Simulation for Script {
            type Event = u32;
            fn handle(&mut self, now: Time, id: u32, sched: &mut Scheduler<u32>) {
                self.seen.push((now, id));
                let children = &self.children[id as usize];
                let due = |delay: u64| now + Duration::from_nanos(delay);
                if self.batched {
                    let numbered = children.iter().zip(sched.next_seq()..);
                    let mut run: Vec<_> = numbered
                        .map(|(&(delay, child), seq)| (due(delay), seq, child))
                        .collect();
                    sched.post_run(&mut run, children.len() as u64);
                    assert!(run.is_empty(), "the staged buffer comes back drained");
                } else {
                    for &(delay, child) in children {
                        sched.post(due(delay), child);
                    }
                }
            }
        }
        for seed in 0..200 {
            let mut rng = crate::SimRng::seed_from(seed);
            let n = 2 + rng.below(80) as u32;
            let roots = 1 + rng.below(n as u64 / 2) as u32;
            let mut children = vec![Vec::new(); n as usize];
            for id in roots..n {
                let parent = rng.below(id as u64) as usize;
                children[parent].push((rng.below(4), id));
            }
            let root_at: Vec<u64> = (0..roots).map(|_| rng.below(4)).collect();
            let play = |batched: bool, rng: &mut crate::SimRng| {
                let mut e = Engine::new();
                let mut next = 0;
                while next < roots {
                    let chunk = if batched { 1 + rng.below(6) as u32 } else { 1 };
                    let ids = next..(next + chunk).min(roots);
                    next = ids.end;
                    if chunk == 1 {
                        e.post(Time::from_nanos(root_at[ids.start as usize]), ids.start);
                        continue;
                    }
                    let numbered = ids.zip(e.queue.next_seq()..);
                    let mut run: Vec<_> = numbered
                        .map(|(id, seq)| (Time::from_nanos(root_at[id as usize]), seq, id))
                        .collect();
                    let seqs = run.len() as u64;
                    e.queue.post_run(&mut run, seqs);
                }
                let mut sim = Script {
                    children: children.clone(),
                    batched,
                    seen: Vec::new(),
                };
                assert_eq!(e.run_to_completion(&mut sim), n as u64);
                assert_eq!(e.pending(), 0);
                assert!(e.queue.heap.is_empty());
                assert_eq!(e.queue.free.len(), e.queue.slots.len(), "every slot freed");
                assert_eq!(e.queue.free_runs.len(), e.queue.runs.len(), "and every run");
                sim.seen
            };
            let singly = play(false, &mut rng);
            assert_eq!(singly, play(true, &mut rng), "seed {seed}");
        }
    }

    #[test]
    fn a_run_is_one_key_counted_by_element_and_resumes_mid_way() {
        let mut e = Engine::new();
        let single = e.post(Time::from_nanos(20), Ev::Ping(0));
        let mut run = staged(
            &e,
            &[(30, Ev::Ping(3)), (10, Ev::Ping(1)), (20, Ev::Ping(2))],
        );
        e.queue.post_run(&mut run, 3);
        e.post(Time::from_nanos(20), Ev::Ping(9));
        assert_eq!(e.pending(), 5, "pending counts run elements");
        assert_eq!(
            e.queue.depth(),
            3,
            "depth counts keys: two singles, one run"
        );
        assert_eq!(e.depth_peak(), 3);
        // Stop in the middle of the run: its key moved to the next element.
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
        assert_eq!(e.queue.free.len(), e.queue.slots.len());
        assert_eq!(e.queue.free_runs.len(), e.queue.runs.len());
    }

    #[test]
    fn a_seq_taken_early_is_queued_under_late() {
        // Seq 0 is taken and left unused; what is later queued under it
        // is delivered before the event posted in between, at a tie.
        let mut e = Engine::new();
        e.queue.post_run(&mut Vec::new(), 1);
        e.post(Time::from_nanos(5), Ev::Ping(1));
        let late = (Time::from_nanos(5), 0, Ev::Ping(0));
        e.queue.post_run(&mut vec![late], 0);
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        let order: Vec<Ev> = sim.seen.into_iter().map(|(_, ev)| ev).collect();
        assert_eq!(order, [Ev::Ping(0), Ev::Ping(1)]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn a_run_element_in_the_past_panics_in_the_handler() {
        struct Backwards;
        impl Simulation for Backwards {
            type Event = ();
            fn handle(&mut self, now: Time, (): (), sched: &mut Scheduler<()>) {
                let seq = sched.next_seq();
                let mut run = vec![(now, seq, ()), (now - Duration::from_nanos(1), seq + 1, ())];
                sched.post_run(&mut run, 2);
                unreachable!("the post returned: reported too late");
            }
        }
        let mut e = Engine::new();
        e.post(Time::from_nanos(10), ());
        e.run_to_completion(&mut Backwards);
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
