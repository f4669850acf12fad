//! Worker-count invariance for the mantle Stokes solver: the whole
//! nonlinear Picard/MINRES iteration — pool-backed viscosity updates,
//! operator applications and preconditioner assembly on top of the
//! fixed-point cross-rank reductions — must produce a **bitwise**
//! identical solution at 1, 2 and 4 pool workers.
//!
//! Own test binary: the worker override is process-global.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::run_spmd;
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{MantleConfig, MantleSolver};

/// Final (norm, solution) bits per rank of a 2-rank solve at the given
/// pool width.
fn run_at(workers: usize) -> Vec<(u64, Vec<u64>)> {
    forust_pool::set_worker_override(Some(workers));
    let out = run_spmd(2, |comm| {
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = MantleConfig {
            picard_iters: 2,
            amr_every: 3,
            max_level: 2,
            minres_iters: 20,
            minres_tol: 1e-3,
            ..Default::default()
        };
        let mut s = MantleSolver::new(comm, forest, map, config);
        let norm = s.solve(comm);
        let bits: Vec<u64> = s.x.iter().map(|v| v.to_bits()).collect();
        (norm.to_bits(), bits)
    });
    forust_pool::set_worker_override(None);
    out
}

#[test]
fn solve_is_bitwise_invariant_of_worker_count() {
    let base = run_at(1);
    for workers in [2usize, 4] {
        let other = run_at(workers);
        for (rank, ((n1, x1), (nw, xw))) in base.iter().zip(&other).enumerate() {
            assert_eq!(n1, nw, "rank {rank}: norm diverged at w{workers}");
            assert_eq!(x1.len(), xw.len(), "rank {rank}: solution sizes diverged");
            for (i, (a, b)) in x1.iter().zip(xw).enumerate() {
                assert_eq!(a, b, "rank {rank} dof {i}: w1 vs w{workers} differ");
            }
        }
    }
}
