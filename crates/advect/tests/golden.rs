//! Golden bits of the advect engine on adaptive meshes.
//!
//! `step_bitwise` holds the engine to the dense-operator oracle only to
//! a relative 1e-12 once 2:1 faces appear, so a reassociated product on
//! a mortar or in a face coefficient would pass it. These hashes pin
//! every bit of the global field and of `time` after 10 steps with 3
//! adapts — mortar faces appearing, moving and carried — at degree 3
//! (the const-generic kernels) and degree 2 (the runtime-`np` path), on
//! one and three ranks. A change that claims to keep the engine's bits
//! must leave them as they are.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{rotation_velocity, AdvectConfig, AdvectSolver};
use forust_comm::{run_spmd, Communicator};
use forust_dg::mesh::FaceConn;
use forust_geom::ShellMap;

/// The hashes of [`golden_hash`]. This run coarsens the same families
/// on one and on three ranks, so both rank counts share one value.
const GOLDEN_DEGREE3: u64 = 10455235397982176778;
const GOLDEN_DEGREE2: u64 = 14605216838692090183;

/// `step_bitwise`'s adaptive configuration.
fn adaptive_config(degree: usize, adapt_every: usize) -> AdvectConfig {
    AdvectConfig {
        degree,
        initial_level: 1,
        min_level: 1,
        max_level: 3,
        adapt_every,
        cfl: 0.4,
        refine_tol: 0.05,
        coarsen_tol: 0.02,
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Hash of the global field bits (rank order) and the time bits after
/// 10 steps of the adaptive run on `ranks` ranks.
fn golden_hash(ranks: usize, degree: usize) -> u64 {
    let hashes = run_spmd(ranks, |comm| {
        let config = adaptive_config(degree, 3);
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, config.initial_level);
        let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let mut s = AdvectSolver::new(
            comm,
            forest,
            map,
            config,
            forust_advect::four_fronts,
            rotation_velocity,
        );
        let mut mortars = 0;
        for _ in 0..10 {
            s.step(comm);
            let fine = |f: &&FaceConn| matches!(f, FaceConn::FineNbrs { .. });
            mortars += s.mesh.faces.iter().filter(fine).count();
        }
        assert_eq!(s.timers.adapts, 3);
        assert!(comm.allreduce_sum_u64(mortars as u64) > 0, "no 2:1 faces");
        let c = comm.allgatherv(&s.c).into_iter().flatten();
        fnv1a(c.map(f64::to_bits).chain([s.time.to_bits()]))
    });
    assert!(hashes.iter().all(|&h| h == hashes[0]));
    hashes[0]
}

#[test]
fn golden_degree3() {
    assert_eq!(golden_hash(1, 3), GOLDEN_DEGREE3, "1 rank");
    assert_eq!(golden_hash(3, 3), GOLDEN_DEGREE3, "3 ranks");
}

#[test]
fn golden_degree2() {
    assert_eq!(golden_hash(1, 2), GOLDEN_DEGREE2, "1 rank");
    assert_eq!(golden_hash(3, 2), GOLDEN_DEGREE2, "3 ranks");
}
