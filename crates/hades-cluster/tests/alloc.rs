//! `ClusterSpec::validate()` checks a deployment without building its
//! runtime form: no task, HEUG, request source, lowered service or
//! request schedule is allocated to answer yes or no. Building the spec
//! copies no literal service name either.
//!
//! A counting global allocator counts the heap allocations building and
//! one `validate()` of a 96-node spec make — counts that do not depend on
//! the host, where their wall time does. This file holds a single test:
//! the allocator counts the whole process, and a second test running
//! beside it would count too.

use hades_cluster::{ClosedLoop, ClusterSpec, GroupLoad, ScenarioPlan, ServiceSpec};
use hades_dispatch::CostModel;
use hades_sched::Policy;
use hades_services::ReplicaStyle;
use hades_sim::NodeId;
use hades_time::{Duration, Time};
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

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// 96 nodes under EDF for 50 ms: nine closed-loop semi-active groups on
/// nodes 0–26, a 2 ms and a 10 ms periodic task on every node (192
/// periodic services), and two crash/restart cycles of a group's leader
/// and follower.
fn spec_96() -> ClusterSpec {
    let mut plan = ScenarioPlan::new();
    for k in 0..2u32 {
        let crash = Time::ZERO + ms(8 + 20 * k as u64) + us(67);
        let (leader, follower) = (NodeId(3 * k), NodeId(3 * k + 2));
        plan = plan
            .crash(leader, crash)
            .crash(follower, crash + us(5_200))
            .restart(leader, crash + ms(10))
            .restart(follower, crash + ms(15));
    }
    let mut spec = ClusterSpec::new(96)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(ms(50))
        .seed(7)
        .scenario(plan);
    for g in 0..9 {
        spec = spec.service(
            ServiceSpec::replicated(
                format!("store{g}"),
                ReplicaStyle::SemiActive,
                (3 * g..3 * g + 3).collect(),
                GroupLoad::default(),
            )
            .workload(Box::new(
                ClosedLoop::new(us(200), ms(1), Time::ZERO + ms(2)).with_timeout(ms(4)),
            )),
        );
    }
    for node in 0..96 {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

#[test]
fn validating_a_96_node_spec_builds_nothing() {
    let before = ALLOCATIONS.load(Relaxed);
    let spec = spec_96();
    let built = ALLOCATIONS.load(Relaxed) - before;
    assert_eq!(spec.services().len(), 201);
    let before = ALLOCATIONS.load(Relaxed);
    let verdict = spec.validate();
    let validated = ALLOCATIONS.load(Relaxed) - before;
    assert_eq!(verdict, Ok(()));
    // A literal service name is borrowed, not copied: the build pays for
    // the nine groups (name, members, workload) and the scenario, not
    // for each of the 192 periodic services.
    assert!(built <= 50, "building the spec made {built} allocations");
    // The check walks each group's request stream without storing it.
    // Lowering the same spec allocates a task, a HEUG and a copy of the
    // name per periodic service and a request source per group: about
    // 2 000 allocations.
    assert!(validated <= 25, "validate() made {validated} allocations");
}
