//! Proves Ghost routes neighbour regions without allocating: a counting
//! global allocator observes one `Forest::ghost` on each rank's own
//! thread, on the `forest_fractal` benchmark's forest at 2 ranks, and
//! must see fewer allocations than the rank has mirrors (every mirror is
//! a boundary leaf the owner descent ran on). The allocations left are
//! per chunk of boundary leaves and per peer, not per routed region.
//!
//! This file holds exactly one test so no other case shares the rank
//! threads' counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{run_spmd, Communicator};

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
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
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn ghost_allocates_per_chunk_not_per_region() {
    // One lane: the owner descent runs on the calling rank's thread, and
    // the pool reads no configuration (which allocates) per call.
    forust_pool::set_worker_override(Some(1));
    run_spmd(2, |comm| {
        // The forest_fractal cycle: level 2, the fractal rule three
        // levels deeper, Partition, Balance, Partition.
        let mut f = Forest::<D3>::new_uniform(Arc::new(builders::rotcubes6()), comm, 2);
        f.refine(comm, true, |_, o| {
            o.level < 5 && 0b0110_1001 >> o.child_id() & 1 == 1
        });
        f.partition(comm);
        f.balance(comm, BalanceType::Full);
        f.partition(comm);
        drop(f.ghost(comm)); // warm up the transport
        comm.barrier();
        let before = ALLOCS.with(Cell::get);
        let g = f.ghost(comm);
        let during = ALLOCS.with(Cell::get) - before;
        let mirrors = g.mirrors.len() as u64;
        assert!(
            mirrors >= 1000,
            "rank {}: only {mirrors} mirrors",
            comm.rank()
        );
        assert!(
            during < mirrors,
            "rank {}: ghost made {during} allocations for {mirrors} mirrors",
            comm.rank()
        );
    });
    forust_pool::set_worker_override(None);
}
