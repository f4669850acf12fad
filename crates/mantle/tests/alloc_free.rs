//! Proves the steady-state Stokes operator application makes a constant
//! few allocations: a counting global allocator observes `apply` after
//! warm-up on two mesh sizes and must see the same number per call on
//! both, at most five. They are the element windows (kept per call on
//! purpose, see `fem.rs`'s `Scratch`) and two small ones in each of the
//! two collectives' transport; the fixed-point accumulator and the
//! pre-processed input are reused.
//!
//! This file holds exactly one test so the process-wide counter is not
//! polluted by concurrently running cases.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::run_spmd;
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{RheologyParams, StokesFem};

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
fn steady_state_apply_allocates_a_constant_few() {
    // Two lanes run the element sweep through the pool's dispatch path.
    // The override also keeps the pool from reading its configuration
    // (environment, cgroup files) on every call, which allocates.
    forust_pool::set_worker_override(Some(2));
    let per_call: Vec<(usize, u64)> = [1u8, 2]
        .into_iter()
        .map(|level| {
            run_spmd(1, |comm| {
                let conn = Arc::new(builders::cubed_sphere());
                let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, level);
                // A refined corner puts hanging nodes in the mesh.
                forest.refine(comm, false, |t, o| t == 0 && o.child_id() == 0);
                forest.balance(comm, BalanceType::Full);
                let map: Arc<dyn Mapping<D3> + Send + Sync> =
                    Arc::new(ShellMap::new(conn, 0.55, 1.0));
                let fem = StokesFem::build(&forest, comm, &map, &RheologyParams::default());
                assert!(fem.interp.num_hanging() > 0);
                let n = fem.vec_len();
                let x: Vec<f64> = (0..n)
                    .map(|i| ((i * 37) % 17) as f64 / 17.0 - 0.5)
                    .collect();
                let mut y = vec![0.0; n];
                // Warm up: the scratch reaches its steady-state capacity.
                fem.apply(comm, &x, &mut y);
                let counts: Vec<u64> = (0..3)
                    .map(|_| {
                        let before = ALLOCS.load(Ordering::Relaxed);
                        fem.apply(comm, &x, &mut y);
                        ALLOCS.load(Ordering::Relaxed) - before
                    })
                    .collect();
                assert!(
                    counts.iter().all(|&c| c == counts[0]),
                    "allocations per call vary: {counts:?}"
                );
                (fem.num_elements(), counts[0])
            })[0]
        })
        .collect();
    let [(small, a), (large, b)] = per_call[..] else {
        unreachable!()
    };
    assert!(large > 4 * small, "mesh sizes {small} and {large}");
    assert_eq!(
        a, b,
        "allocations per apply depend on the mesh: {a} at {small} elements, {b} at {large}"
    );
    // The element windows, then two transport allocations in each of the
    // max-allreduce and the assembly exchange.
    assert!(a <= 5, "steady-state apply made {a} allocations");
}
