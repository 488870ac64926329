//! Discrete-event engine: event queue, cancellation and run loop.
//!
//! The engine is deliberately trait-based rather than closure-based: a
//! simulation owns all of its state and implements [`Simulation::handle`],
//! receiving its own event type back at the times it asked for. This keeps
//! borrows simple, makes event payloads inspectable in traces, and guarantees
//! a deterministic total order of event delivery (time, then posting order).

use hades_telemetry::EngineProbe;
use hades_time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Identifier of a posted event; used to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

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

/// Interface handed to [`Simulation::handle`] for posting and cancelling
/// events during event processing.
#[derive(Debug)]
pub struct Scheduler<E> {
    staged: Vec<(Time, E, EventId)>,
    cancels: Vec<EventId>,
    next_id: u64,
}

impl<E> Scheduler<E> {
    /// Posts `event` to fire at absolute time `at`.
    ///
    /// Posting into the past is a programming error and panics in the run
    /// loop when the event is merged.
    pub fn post(&mut self, at: Time, event: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.staged.push((at, event, id));
        id
    }

    /// Cancels a previously posted event. Cancelling an already-delivered or
    /// unknown id is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancels.push(id);
    }
}

/// The discrete-event engine: a time-ordered queue plus the run loop.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct Engine<E> {
    now: Time,
    /// `(time, id)` keys, one per posted event; ids are handed out in
    /// posting order, so the id doubles as the FIFO tie-break. A key whose
    /// payload is gone from `slots` was cancelled and is skipped on pop.
    heap: BinaryHeap<Reverse<(Time, EventId)>>,
    /// Payloads of the pending events: cancelling removes the entry, so a
    /// cancelled or already-delivered id leaves nothing behind.
    slots: HashMap<EventId, E>,
    next_id: u64,
    delivered: u64,
    probe: EngineProbe,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: Time::ZERO,
            heap: BinaryHeap::new(),
            slots: HashMap::new(),
            next_id: 0,
            delivered: 0,
            probe: EngineProbe::disabled(),
        }
    }

    /// Installs a telemetry probe on the run loop (events delivered,
    /// queue-depth high water). The default probe is disabled and costs
    /// one `Option` check per event; installing a probe never changes
    /// the event order or posts events.
    pub fn set_probe(&mut self, probe: EngineProbe) {
        let profiler = std::mem::take(&mut self.probe.profiler);
        self.probe = probe;
        if !self.probe.profiler.is_enabled() {
            self.probe.profiler = profiler;
        }
    }

    /// Attaches a profiler to the run loop: one
    /// [`Profiler::tick`](hades_telemetry::Profiler::tick) per delivered
    /// event with the current time and queue length. Independent of
    /// [`Engine::set_probe`] — either may be installed first. A disabled
    /// profiler (the default) costs one `Option` check per event.
    pub fn set_profiler(&mut self, profiler: hades_telemetry::Profiler) {
        self.probe.profiler = profiler;
    }

    /// Current virtual time (time of the last delivered event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pending (not yet delivered, not cancelled) events.
    pub fn pending(&self) -> usize {
        self.slots.len()
    }

    /// Posts an event from outside the run loop (initial conditions).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current virtual time.
    pub fn post(&mut self, at: Time, event: E) -> EventId {
        assert!(at >= self.now, "posting event into the past");
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.enqueue(at, event, id);
        id
    }

    /// Cancels a pending event from outside the run loop.
    pub fn cancel(&mut self, id: EventId) {
        self.slots.remove(&id);
    }

    fn enqueue(&mut self, at: Time, payload: E, id: EventId) {
        self.heap.push(Reverse((at, id)));
        self.slots.insert(id, payload);
        self.probe
            .queue_high_water
            .record_max(self.heap.len() as u64);
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
        let mut count = 0;
        let mut sched = Scheduler {
            staged: Vec::new(),
            cancels: Vec::new(),
            next_id: 0,
        };
        loop {
            // Pop next live event.
            let (at, payload) = loop {
                match self.heap.peek() {
                    None => return count,
                    Some(&Reverse((at, _))) if at > until => return count,
                    Some(&Reverse((at, id))) => {
                        self.heap.pop();
                        if let Some(payload) = self.slots.remove(&id) {
                            break (at, payload);
                        }
                    }
                }
            };
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.delivered += 1;
            count += 1;
            self.probe.events.incr();
            self.probe
                .profiler
                .tick(self.now.as_nanos(), self.heap.len() as u64);

            sched.next_id = self.next_id;
            sim.handle(self.now, payload, &mut sched);
            self.next_id = sched.next_id;
            for (at, ev, id) in sched.staged.drain(..) {
                assert!(at >= self.now, "simulation posted event into the past");
                self.enqueue(at, ev, id);
            }
            for id in sched.cancels.drain(..) {
                self.slots.remove(&id);
            }
        }
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
        assert_eq!((e.heap.len(), e.slots.len()), (1, 1));
    }

    #[test]
    fn cancelled_pending_event_drops_its_payload_at_once() {
        let mut e = Engine::new();
        let id = e.post(Time::from_nanos(5), Ev::Ping(1));
        e.cancel(id);
        e.cancel(id); // idempotent
        assert_eq!((e.pending(), e.slots.len()), (0, 0));
        let mut sim = Recorder::default();
        assert_eq!(e.run_to_completion(&mut sim), 0);
        assert!(e.heap.is_empty(), "the orphaned key is skipped and popped");
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
    fn default_engine_is_empty() {
        let e: Engine<Ev> = Engine::default();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.now(), Time::ZERO);
    }

    #[test]
    fn probe_counts_events_and_queue_high_water() {
        let registry = hades_telemetry::Registry::enabled();
        let mut e = Engine::new();
        e.set_probe(EngineProbe::from_registry(&registry));
        e.post(Time::from_nanos(1), Ev::Ping(1));
        e.post(Time::from_nanos(2), Ev::Ping(2));
        e.post(Time::from_nanos(3), Ev::Chain(2));
        let mut sim = Recorder::default();
        e.run_to_completion(&mut sim);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.events"), Some(e.delivered()));
        assert_eq!(snap.gauge("engine.queue_depth_peak"), Some(3));
    }

    #[test]
    fn telemetry_probe_adds_zero_events_and_preserves_order() {
        // Regression for the near-zero-cost guarantee: an instrumented
        // engine with an enabled registry delivers exactly the same
        // events in the same order at the same times as a bare engine.
        let run = |probe: Option<EngineProbe>| {
            let mut e = Engine::new();
            if let Some(p) = probe {
                e.set_probe(p);
            }
            e.post(Time::from_nanos(5), Ev::Chain(4));
            e.post(Time::from_nanos(5), Ev::Ping(9));
            let mut sim = Recorder::default();
            let n = e.run_to_completion(&mut sim);
            (n, e.delivered(), sim.seen)
        };
        let registry = hades_telemetry::Registry::enabled();
        let bare = run(None);
        let probed = run(Some(EngineProbe::from_registry(&registry)));
        assert_eq!(bare, probed);
        assert_eq!(
            registry.snapshot().counter("engine.events"),
            Some(bare.1),
            "probe observed the run instead of altering it"
        );
    }
}
