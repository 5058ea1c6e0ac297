//! Heap allocations of a solve, counted per thread by a wrapping global
//! allocator.
//!
//! Each thread keeps one solve workspace and reuses its buffers, so once
//! a thread has solved on a system, `loaded_point` allocates nothing and
//! `try_solve` allocates only the `SolveResult` it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cxl_perf::{AccessMix, FlowSpec, MemSystem};
use cxl_topology::{SncMode, Topology};

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Every single flow the SNC-4 testbed can solve: each socket to each
/// node, four mixes, idle to saturating.
fn every_single_flow(m: &MemSystem) -> Vec<FlowSpec> {
    let mut flows = Vec::new();
    for &from in m.sockets() {
        for n in m.nodes() {
            for mix in [
                AccessMix::read_only(),
                AccessMix::write_only(),
                AccessMix::ratio(2, 1),
                AccessMix::ratio(1, 1).with_regular_writes(),
            ] {
                for offered in [0.0, 10.0, 45.0, 10_000.0] {
                    flows.push(FlowSpec::new(from, n.id, mix, offered));
                }
            }
        }
    }
    flows
}

#[test]
fn loaded_point_allocates_nothing_after_the_first_solve() {
    let m = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let flows = every_single_flow(&m);
    // The thread's first solve: one local read, the shortest path.
    m.loaded_point(flows[0]);
    let n = allocations_in(|| {
        for &f in &flows {
            std::hint::black_box(m.loaded_point(f));
        }
    });
    assert_eq!(n, 0, "{n} allocations over {} loaded points", flows.len());
}

#[test]
fn try_solve_allocates_only_its_result() {
    let m = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let all = every_single_flow(&m);
    m.solve(&all[..12]);
    // `all[0]` is an idle flow; every other set loads some resource.
    for set in [&all[1..2], &all[1..6], &all[100..112], &all[300..312]] {
        let mut result = None;
        let n = allocations_in(|| result = Some(m.try_solve(set).expect("valid flows")));
        // One `Vec` of outcomes and one of used resources.
        assert_eq!(n, 2, "{n} allocations solving {} flows", set.len());
        let r = result.expect("solved");
        assert_eq!(r.flows.capacity(), set.len());
        assert_eq!(r.utilization.capacity(), r.utilization.len());
    }
    // Zero rates use no resource, and an empty list allocates nothing.
    assert_eq!(allocations_in(|| drop(m.try_solve(&all[..1]))), 1);
}
