//! The dispatcher's event path allocates per run, not per job: a
//! fixed-priority `DispatchSim` run makes the same number of heap
//! allocations over 10 ms as over 100 ms, give or take a constant —
//! records are kept in reused slabs and buffers, not boxed one by one,
//! and a multi-unit task's precedence edges are walked in place, not
//! collected.
//!
//! A counting global allocator counts the allocations of building and
//! running the simulation, a count that does not depend on the host.
//! This file holds a single test: the allocator counts the whole
//! process, and a second test running beside it would count too.

use hades_dispatch::{DispatchSim, SimConfig};
use hades_task::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting the allocations made.
struct Counting;

// Statistics only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter only observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Three periodic tasks on each of 8 nodes under static priorities,
/// U = 0.475 per node. With `chained`, each task is two units of half
/// its WCET on its node, the first preceding the second.
fn task_set(chained: bool) -> TaskSet {
    let mut tasks = Vec::new();
    for node in 0..8u32 {
        for (k, (wcet, period)) in [(100, 1_000), (300, 2_000), (500, 4_000)]
            .into_iter()
            .enumerate()
        {
            let id = 3 * node + k as u32;
            let prio = Priority::new(3 - k as u32);
            let unit = |name: &str, wcet, on| {
                CodeEu::new(format!("t{id}{name}"), us(wcet), ProcessorId(on)).with_priority(prio)
            };
            let heug = if chained {
                let mut b = HeugBuilder::new(format!("t{id}"));
                let first = b.code_eu(unit("a", wcet / 2, node));
                let second = b.code_eu(unit("b", wcet / 2, node));
                b.precede(first, second);
                b.build().unwrap()
            } else {
                Heug::single(unit("", wcet, node)).unwrap()
            };
            tasks.push(Task::new(
                TaskId(id),
                heug,
                ArrivalLaw::Periodic(us(period)),
                us(period),
            ));
        }
    }
    TaskSet::new(tasks).unwrap()
}

/// Allocations made building the set and running it to `horizon_ms`,
/// and how many instances the run activated.
fn allocations(chained: bool, horizon_ms: u64) -> (usize, usize) {
    let before = ALLOCATIONS.load(Relaxed);
    let mut cfg = SimConfig::ideal(Duration::from_millis(horizon_ms));
    cfg.trace = false;
    let report = DispatchSim::new(task_set(chained), cfg).run();
    let made = ALLOCATIONS.load(Relaxed) - before;
    assert!(report.all_deadlines_met());
    (made, report.instances.len())
}

#[test]
fn a_fixed_priority_run_allocates_per_run_not_per_job() {
    for chained in [false, true] {
        let (short, short_n) = allocations(chained, 10);
        let (long, long_n) = allocations(chained, 100);
        // Whole hyperperiods: 8 × (11 + 6 + 3) and 8 × (101 + 51 + 26)
        // activations.
        assert_eq!((short_n, long_n), (160, 1_424));
        assert!(
            long <= short + 16,
            "chained {chained}: {short} allocations over 10 ms, {long} over 100 ms"
        );
    }
}
