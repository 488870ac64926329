//! The dispatcher's memory does not grow with the simulated horizon: an
//! instance's outcome is folded into its task's tally when it becomes
//! final, so a run holds what is in flight plus one tally per task,
//! however many activations it simulates.
//!
//! A counting global allocator measures the heap high water of building
//! and running a standalone `DispatchSim`. This file holds a single test:
//! the allocator counts the whole process, and a second test running
//! beside it would count too.

use hades_dispatch::{DispatchSim, SimConfig};
use hades_task::prelude::*;
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

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Three periodic tasks on each of 8 nodes, U = 0.475 per node.
fn task_set() -> TaskSet {
    let mut tasks = Vec::new();
    for node in 0..8u32 {
        for (k, (wcet, period)) in [(100, 1_000), (300, 2_000), (500, 4_000)]
            .into_iter()
            .enumerate()
        {
            let id = 3 * node + k as u32;
            let eu = CodeEu::new(format!("t{id}"), us(wcet), ProcessorId(node))
                .with_priority(Priority::new(3 - k as u32));
            tasks.push(Task::new(
                TaskId(id),
                Heug::single(eu).unwrap(),
                ArrivalLaw::Periodic(us(period)),
                us(period),
            ));
        }
    }
    TaskSet::new(tasks).unwrap()
}

/// Heap high water, above what was live before, of building the set and
/// running it to `horizon_ms` with the report still held; and how many
/// instances the run activated.
fn high_water(horizon_ms: u64) -> (usize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut cfg = SimConfig::ideal(Duration::from_millis(horizon_ms));
    cfg.trace = false;
    let report = DispatchSim::new(task_set(), cfg).run();
    let peak = PEAK.load(Relaxed) - base;
    assert!(report.all_deadlines_met());
    (peak, report.instances.len())
}

#[test]
fn heap_high_water_is_flat_across_a_four_fold_horizon() {
    let (short, short_n) = high_water(100);
    let (long, long_n) = high_water(400);
    // Both horizons are whole hyperperiods: 8 × (101 + 51 + 26) and
    // 8 × (401 + 201 + 101) activations.
    assert_eq!((short_n, long_n), (1_424, 5_624));
    assert!(
        long <= short + 4096,
        "high water grew with the horizon: {short} B at 100 ms, {long} B at 400 ms"
    );
}
