//! A fabric shard's request stream is stored once for the whole run: the
//! shard's trace and the request sources of its primary and standby
//! groups share one slice, and each source paces it with a cursor.
//!
//! A counting global allocator measures the heap high water of running
//! the lab's one-million-client shape (24 nodes, 64 shards, three load
//! classes, seed 7) over 40 ms and then 80 ms. The slope between the two
//! runs per routed request bounds what each request keeps live: its
//! instant in the shard's stream, the group logs' entries and the
//! report's latency sample. This file holds a single test: the allocator
//! counts the whole process, and a second test running beside it would
//! count too.

use hades_fabric::{Arrival, FabricSpec, LoadClass};
use hades_time::Duration;
use std::alloc::{GlobalAlloc, Layout, System};
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

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Heap high water, above what was live before, of running the fabric
/// over `horizon` with its run still held, and the requests it routed.
fn high_water(horizon: Duration) -> (usize, u64) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let spec = FabricSpec::new(24, 64)
        .class(LoadClass::new("browse", 700_000, Duration::from_secs(15)))
        .class(
            LoadClass::new("checkout", 200_000, Duration::from_secs(8)).arrival(Arrival::Bursty {
                on: ms(4),
                off: ms(6),
            }),
        )
        .class(
            LoadClass::new("api", 100_000, Duration::from_secs(2))
                .arrival(Arrival::Ramp { from_permille: 300 }),
        )
        .horizon(horizon)
        .seed(7);
    let run = spec.run().expect("the fabric shape is valid");
    let peak = PEAK.load(Relaxed) - base;
    (peak, run.report.totals.routed)
}

#[test]
fn fabric_heap_slope_per_routed_request_is_bounded() {
    let (short, short_routed) = high_water(ms(40));
    let (long, long_routed) = high_water(ms(80));
    assert!(long_routed > short_routed, "{short_routed} → {long_routed}");
    let per_request = long.saturating_sub(short) / (long_routed - short_routed) as usize;
    assert!(
        per_request <= BOUND,
        "{per_request} B per routed request ({short} B for {short_routed}, \
         {long} B for {long_routed})"
    );
}

/// Bytes of heap high water per routed request, at most. One copy of
/// each shard's stream comes to ~201 B a request on this shape; the
/// seven copies of the two-vector schedule (the routing vector, two
/// traces, and a nominal and an effective vector in each of the two
/// groups' sources) come to ~259 B.
const BOUND: usize = 230;
