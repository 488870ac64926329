//! A broadcast is queued once: its copies share one staged message, and
//! each copy costs the queue a `(time, seq, target, event)` record, not a
//! whole event.
//!
//! A counting global allocator measures the heap high water of one
//! instant at which every actor of an `ActorEngine` multicasts to all of
//! its peers — the shape of a view-change proposal round, where every
//! survivor sends at once. This file holds a single test: the allocator
//! counts the whole process, and a second test running beside it would
//! count too.

use hades_sim::mux::{ActorCtx, ActorEngine, ActorEvent, ActorId, NetActor};
use hades_sim::{LinkConfig, Network, NodeId, SimRng};
use hades_time::Time;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting the bytes live and their high water.
struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const NODES: u32 = 64;

/// Sends one word to every peer on start; counts what it receives.
struct Multicaster {
    node: NodeId,
    received: Rc<Cell<u64>>,
}

impl NetActor for Multicaster {
    fn node(&self) -> NodeId {
        self.node
    }

    fn handle(&mut self, _now: Time, ev: ActorEvent, ctx: &mut ActorCtx<'_>) {
        match ev {
            ActorEvent::Start => {
                for peer in (0..NODES).filter(|&p| p != self.node.0) {
                    assert!(ctx.send(ActorId(peer), NodeId(peer), 7, 0xC0FFEE));
                }
            }
            ActorEvent::Message { tag: 7, .. } => self.received.set(self.received.get() + 1),
            _ => {}
        }
    }
}

#[test]
fn a_queued_broadcast_copy_costs_at_most_32_bytes() {
    let received = Rc::new(Cell::new(0));
    let net = Network::homogeneous(NODES, LinkConfig::default(), SimRng::seed_from(7));
    let mut rt = ActorEngine::new(net);
    for node in 0..NODES {
        rt.add_actor(Box::new(Multicaster {
            node: NodeId(node),
            received: received.clone(),
        }));
    }
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    // Every start is delivered at time zero and every copy is in flight
    // (transit takes at least 5 µs) when this returns.
    assert_eq!(rt.run(Time::ZERO), u64::from(NODES));
    let peak = PEAK.load(Relaxed) - base;
    let copies = u64::from(NODES * (NODES - 1));
    let per_copy = peak as f64 / copies as f64;
    assert!(
        per_copy <= 32.0,
        "{peak} B of heap for {copies} queued copies: {per_copy:.1} B each"
    );
    rt.run(Time::MAX);
    assert_eq!(received.get(), copies, "every copy is delivered");
}
