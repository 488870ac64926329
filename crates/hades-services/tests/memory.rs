//! A replica-group member's memory per request served is a few ids, not
//! a hash-set slot per set: its duplicate-suppression, executed and
//! emitted sets are bitsets over the request ids, its delivery log
//! keeps ids only, and its submissions and outputs go to the tap, not to
//! its log.
//!
//! A counting global allocator measures the heap high water of building
//! and running a three-member semi-active group over a fixed schedule of
//! N and then 4N requests. What still grows with the stream is the
//! schedule itself and the member logs' delivery sequences, so the test
//! bounds the slope between the two runs per request. This file holds a
//! single test: the allocator counts the whole process, and a second
//! test running beside it would count too.

use hades_services::group::{FixedSchedule, GroupConfig, ReplicaGroup};
use hades_services::ReplicaStyle;
use hades_sim::mux::ActorId;
use hades_sim::{ActorEngine, LinkConfig, Network, NodeId, SimRng};
use hades_telemetry::monitor::{MonitorEvent, ProtocolTap};
use hades_time::{Duration, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
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

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Heap high water, above what was live before, of building a
/// three-member semi-active group and serving `requests` requests, one
/// every 100 µs, with the member logs still held. Outputs are counted
/// from the tap, which keeps nothing per request.
fn high_water(requests: u64) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let first = Time::ZERO + Duration::from_millis(1);
    let times = (0..requests).map(|k| first + us(100 * k)).collect();
    let source = Rc::new(RefCell::new(FixedSchedule::new(times)));
    let net = Network::homogeneous(
        3,
        LinkConfig::reliable(us(10), us(40)),
        SimRng::seed_from(7),
    );
    let mut engine = ActorEngine::new(net);
    let peers: Vec<(u32, ActorId)> = (0..3).map(|n| (n, ActorId(n))).collect();
    let outputs = Rc::new(Cell::new(0u64));
    let tap = {
        let outputs = outputs.clone();
        ProtocolTap(Rc::new(move |_, ev: &MonitorEvent| {
            if matches!(ev, MonitorEvent::OutputEmitted { member: 0, .. }) {
                outputs.set(outputs.get() + 1);
            }
        }))
    };
    let logs: Vec<_> = (0..3)
        .map(|n| {
            let (member, log) = ReplicaGroup::new(
                GroupConfig {
                    group: 0,
                    node: NodeId(n),
                    members: vec![0, 1, 2],
                    style: ReplicaStyle::SemiActive,
                    request_period: us(100),
                    first_request_at: first,
                    source: Some(source.clone()),
                    delta: us(60),
                    attempts: 1,
                    peers: peers.clone(),
                },
                None,
            );
            engine.add_actor(Box::new(member.with_tap(tap.clone())));
            log
        })
        .collect();
    engine.run(first + us(100 * requests) + Duration::from_millis(1));
    let peak = PEAK.load(Relaxed) - base;
    for log in &logs {
        assert_eq!(log.borrow().delivered.len() as u64, requests);
    }
    assert_eq!(outputs.get(), requests);
    peak
}

#[test]
fn group_heap_slope_per_request_is_bounded() {
    let n = 2_000;
    let short = high_water(n);
    let long = high_water(4 * n);
    let per_request = long.saturating_sub(short) / (3 * n as usize);
    assert!(
        per_request <= BOUND,
        "{per_request} B per request ({short} B for {n} requests, {long} B for {})",
        4 * n
    );
}

/// Bytes of heap high water per request served, at most. The logs'
/// delivery ids and the schedule come to ~37 B a request on this stream;
/// keeping each submission and output as an `(id, at)` pair in the logs
/// as well comes to ~69 B, and keeping the three id sets as hash sets and
/// each delivery as an `(id, ts, at)` triple ~260 B.
const BOUND: usize = 75;
