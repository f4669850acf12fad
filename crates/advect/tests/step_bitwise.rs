//! The kernel-engine `step` against the retained pre-engine
//! `step_reference` oracle, which applies every face operator as a dense
//! matrix ([`FaceOp::to_dense`]) with the allocating `matvec`.
//!
//! - On a **conforming** mesh the engine's face work is an exact index
//!   gather, so the two must agree **bitwise**.
//! - Across **2:1 faces** the engine's sum-factorised mortar adds the
//!   same products in a different order; there the two must agree to
//!   [`MORTAR_REL_TOL`] of the field's magnitude — across adapt cycles
//!   (mortar faces appear and disappear, caches rebuild) and on several
//!   rank counts (ghost traces flow through the same path).
//! - The metric and caches `adapt` **carries** across a cycle must step
//!   bitwise like ones built from scratch on the same mesh.
//!
//! [`FaceOp::to_dense`]: forust_dg::FaceOp::to_dense

use std::sync::Arc;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{rotation_velocity, AdvectConfig, AdvectSolver, AdvectSpec};
use forust_comm::{run_spmd, Communicator};
use forust_dg::mesh::FaceConn;
use forust_geom::{Mapping, ShellMap};
use forust_resilience::Recoverable;

/// Engine vs dense-operator oracle on meshes with 2:1 faces, relative to
/// the largest field value.
const MORTAR_REL_TOL: f64 = 1e-12;

fn solver(comm: &impl Communicator, config: AdvectConfig) -> AdvectSolver {
    let conn = Arc::new(builders::cubed_sphere());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, config.initial_level);
    let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
    AdvectSolver::new(
        comm,
        forest,
        map,
        config,
        forust_advect::four_fronts,
        rotation_velocity,
    )
}

fn shell_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

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

fn has_mortar_faces(s: &AdvectSolver) -> bool {
    s.mesh
        .faces
        .iter()
        .any(|f| matches!(f, FaceConn::FineNbrs { .. } | FaceConn::CoarseNbr { .. }))
}

fn assert_within_mortar_tol(engine: &AdvectSolver, oracle: &AdvectSolver, what: &str) {
    assert_eq!(engine.c.len(), oracle.c.len(), "{what}: meshes diverged");
    let scale = oracle.c.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (i, (a, b)) in engine.c.iter().zip(&oracle.c).enumerate() {
        assert!(
            (a - b).abs() <= MORTAR_REL_TOL * scale,
            "{what} dof {i}: {a} vs {b}"
        );
    }
    assert_eq!(engine.time.to_bits(), oracle.time.to_bits());
}

#[test]
fn step_matches_reference_bitwise_on_conforming_mesh() {
    for ranks in [1usize, 3] {
        run_spmd(ranks, |comm| {
            // Uniform level 2 on the rotated cubed-sphere trees, never
            // adapted: every inter-tree face is a pure gather.
            let config = AdvectConfig {
                initial_level: 2,
                min_level: 2,
                max_level: 2,
                ..adaptive_config(3, usize::MAX)
            };
            let mut engine = solver(comm, config.clone());
            let mut oracle = solver(comm, config);
            assert!(!has_mortar_faces(&engine));
            assert_eq!(engine.dt.to_bits(), oracle.dt.to_bits());
            for _ in 0..4 {
                engine.step(comm);
                oracle.step_reference(comm);
            }
            for (i, (a, b)) in engine.c.iter().zip(&oracle.c).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {} ranks={} dof {i}: {a} vs {b}",
                    comm.rank(),
                    ranks,
                );
            }
            assert_eq!(engine.stepper.grow_events(), 0);
        });
    }
}

#[test]
fn step_matches_reference_across_adapts() {
    for ranks in [1usize, 3, 5] {
        run_spmd(ranks, |comm| {
            // Degree 3 (np = 4) exercises the const-generic instance.
            let mut engine = solver(comm, adaptive_config(3, 3));
            let mut oracle = solver(comm, adaptive_config(3, 3));
            assert_eq!(engine.dt.to_bits(), oracle.dt.to_bits());
            let mut saw_mortars = false;
            for _ in 0..7 {
                saw_mortars |= has_mortar_faces(&engine);
                engine.step(comm);
                oracle.step_reference(comm);
            }
            assert!(engine.timers.adapts >= 2, "adapt cycles must have run");
            assert!(
                comm.allreduce_sum_u64(saw_mortars as u64) > 0,
                "no 2:1 faces"
            );
            let what = format!("rank {} of {ranks}", comm.rank());
            assert_within_mortar_tol(&engine, &oracle, &what);
            // The workspace never regrew: the capacity contract held
            // through every stage and adapt-triggered reconfigure.
            assert_eq!(engine.stepper.grow_events(), 0);
        });
    }
}

#[test]
fn runtime_degree_also_matches_reference() {
    // Degree 2 (np = 3) takes the runtime-np fallback.
    run_spmd(2, |comm| {
        let mut engine = solver(comm, adaptive_config(2, 4));
        let mut oracle = solver(comm, adaptive_config(2, 4));
        for _ in 0..5 {
            engine.step(comm);
            oracle.step_reference(comm);
        }
        assert_within_mortar_tol(&engine, &oracle, "degree 2");
    });
}

#[test]
fn carried_geometry_steps_like_one_built_from_scratch() {
    // `adapt` moves metric and caches of surviving elements; a solver
    // restored from a checkpoint builds all of it from nothing. Taking
    // that detour after every adapt must not change a bit of the run.
    // A restore onto the saving rank count cuts the curve where Partition
    // cut it, so every rank gets its own elements back and coarsening
    // sees the same families on both twins.
    for ranks in [1usize, 3] {
        run_spmd(ranks, |comm| {
            let config = adaptive_config(3, 3);
            let spec = AdvectSpec {
                conn: builders::cubed_sphere,
                map: shell_map,
                config: config.clone(),
                init: forust_advect::four_fronts,
                velocity: rotation_velocity,
            };
            let mut carried = solver(comm, config.clone());
            let mut scratch = solver(comm, config.clone());
            for _ in 0..10 {
                carried.step(comm);
                scratch.step(comm);
                if scratch.timers.steps % config.adapt_every == 0 {
                    let segments = comm.allgather_bytes(scratch.checkpoint_segment(comm.size()));
                    scratch = AdvectSolver::restore(&spec, comm, &segments).expect("restore");
                }
            }
            assert_eq!(carried.timers.adapts, 3);
            assert_eq!(carried.dt.to_bits(), scratch.dt.to_bits());
            assert_eq!(carried.time.to_bits(), scratch.time.to_bits());
            let global_bits = |s: &AdvectSolver| -> Vec<u64> {
                let c = comm.allgatherv(&s.c).into_iter().flatten();
                c.map(f64::to_bits).collect()
            };
            assert_eq!(
                global_bits(&carried),
                global_bits(&scratch),
                "ranks={ranks}"
            );
        });
    }
}
