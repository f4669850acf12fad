//! Worker-count invariance of the f32 device tier: a device step runs the
//! host's element kernel at `R = f32`, one element per work unit with a
//! fixed accumulation order, so the state bits must not depend on how the
//! pool chunks the elements. The full f32 state (`q` and the RK register)
//! must be **bitwise** identical at 1, 2 and 4 pool workers on an adapted
//! 3-rank mesh.
//!
//! Own test binary: the worker override is process-global.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::run_spmd;
use forust_geom::{Mapping, ShellMap};
use forust_seismic::{prem_like_at, DeviceState, SeismicConfig, SeismicSolver};

/// Final device-state bits per rank of a 3-rank run at the given pool
/// width.
fn run_at(workers: usize) -> Vec<Vec<u32>> {
    forust_pool::set_worker_override(Some(workers));
    let out = run_spmd(3, |comm| {
        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = SeismicConfig {
            degree: 3,
            min_level: 1,
            max_level: 2,
            f0: 3.0,
            ppw: 6.0,
            ..Default::default()
        };
        let host = SeismicSolver::new(comm, forest, map, config, prem_like_at);
        let mut dev = DeviceState::from_host(&host);
        for _ in 0..3 {
            dev.step(&host, comm);
        }
        dev.state_bits()
    });
    forust_pool::set_worker_override(None);
    out
}

#[test]
fn device_step_is_bitwise_invariant_of_worker_count() {
    let base = run_at(1);
    for workers in [2usize, 4] {
        let other = run_at(workers);
        for (rank, (b1, bw)) in base.iter().zip(&other).enumerate() {
            assert_eq!(b1.len(), bw.len(), "rank {rank}: state sizes diverged");
            for (i, (a, b)) in b1.iter().zip(bw).enumerate() {
                assert_eq!(a, b, "rank {rank} word {i}: w1 vs w{workers} differ");
            }
        }
    }
}
