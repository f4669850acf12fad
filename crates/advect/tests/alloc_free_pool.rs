//! The allocation-free steady-state contract must survive the worker
//! pool: with 4 pool lanes active, a warmed-up RK step still makes far
//! fewer allocations than elements. Per-lane workspaces are provisioned
//! up front, chunk descriptors live on the caller's stack, and job
//! hand-off is a pointer publish — none of it allocates per element.
//!
//! This file holds exactly one test so the process-wide allocation
//! counter is not polluted by concurrently running cases (and so the
//! process-global worker override cannot race other tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{rotation_velocity, AdvectConfig, AdvectSolver};
use forust_comm::run_spmd;
use forust_geom::ShellMap;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_with_pool_allocates_less_than_one_per_element() {
    forust_pool::set_worker_override(Some(4));
    run_spmd(1, |comm| {
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 2);
        let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = AdvectConfig {
            degree: 3,
            initial_level: 2,
            min_level: 2,
            max_level: 2,
            adapt_every: usize::MAX,
            cfl: 0.4,
            refine_tol: 1e9,
            coarsen_tol: -1.0,
        };
        let mut s = AdvectSolver::new(
            comm,
            forest,
            map,
            config,
            |x| x[0] * x[2] + 0.3 * x[1],
            rotation_velocity,
        );
        // Warm up: stage buffers, per-lane workspaces, the pool's worker
        // threads and the halo scratch all reach steady-state capacity.
        s.step(comm);
        s.step(comm);
        let nel = s.local_elements() as u64;
        assert!(nel >= 100, "want a meaningful element count, got {nel}");
        let before = ALLOCS.load(Ordering::Relaxed);
        s.step(comm);
        let during = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(
            during < nel,
            "steady-state pooled step made {during} allocations over {nel} elements"
        );
        assert_eq!(s.stepper.grow_events(), 0);
    });
    forust_pool::set_worker_override(None);
}
