//! The kernel-engine seismic `step` (batched 9-field gradients, flat
//! face-trace slabs, structured face operators) against the retained
//! pre-engine `step_reference` oracle, which applies every face operator
//! as a dense matrix ([`FaceOp::to_dense`]) with the allocating `matvec`.
//!
//! - On a **conforming** mesh the engine's face work is an exact index
//!   gather, so the two must agree **bitwise**.
//! - On the wavelength-adapted mesh (2:1 faces throughout) the engine's
//!   sum-factorised mortar adds the same products in a different order;
//!   there the two must agree to [`MORTAR_REL_TOL`] of the state's
//!   magnitude.
//!
//! [`FaceOp::to_dense`]: forust_dg::FaceOp::to_dense

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::{run_spmd, Communicator};
use forust_dg::mesh::FaceConn;
use forust_geom::{Mapping, ShellMap};
use forust_seismic::{prem_like_at, SeismicConfig, SeismicSolver};

/// Engine vs dense-operator oracle on meshes with 2:1 faces, relative to
/// the largest state value.
const MORTAR_REL_TOL: f64 = 1e-12;

fn build(comm: &impl Communicator, degree: usize, max_level: u8) -> SeismicSolver {
    let conn = Arc::new(builders::shell24());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
    let config = SeismicConfig {
        degree,
        min_level: 1,
        max_level,
        f0: 3.0,
        ppw: 6.0,
        ..Default::default()
    };
    SeismicSolver::new(comm, forest, map, config, prem_like_at)
}

/// Locally owned 2:1 faces, summed over ranks.
fn mortar_faces(s: &SeismicSolver, comm: &impl Communicator) -> u64 {
    let local = s
        .mesh
        .faces
        .iter()
        .filter(|f| matches!(f, FaceConn::FineNbrs { .. } | FaceConn::CoarseNbr { .. }))
        .count();
    comm.allreduce_sum_u64(local as u64)
}

/// Four steps of both paths from rest (the source drives the field).
fn run_pair(
    comm: &impl Communicator,
    degree: usize,
    max_level: u8,
) -> (SeismicSolver, SeismicSolver) {
    let mut engine = build(comm, degree, max_level);
    let mut oracle = build(comm, degree, max_level);
    assert_eq!(engine.dt.to_bits(), oracle.dt.to_bits());
    for _ in 0..4 {
        engine.step(comm);
        oracle.step_reference(comm);
    }
    assert_eq!(engine.q.len(), oracle.q.len());
    // The workspace never regrew mid-stage.
    assert_eq!(engine.stepper.grow_events(), 0);
    (engine, oracle)
}

fn assert_within_mortar_tol(engine: &SeismicSolver, oracle: &SeismicSolver) {
    let scale = oracle.q.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(scale > 0.0, "the source must have driven the field");
    for (i, (a, b)) in engine.q.iter().zip(&oracle.q).enumerate() {
        assert!(
            (a - b).abs() <= MORTAR_REL_TOL * scale,
            "dof {i}: {a} vs {b}"
        );
    }
}

#[test]
fn step_matches_reference_bitwise_on_conforming_mesh() {
    for ranks in [1usize, 3] {
        run_spmd(ranks, |comm| {
            // Uniform level 1 on the 24 shell trees: inter-tree faces
            // only, every one a pure gather.
            let (engine, oracle) = run_pair(comm, 3, 1);
            assert_eq!(mortar_faces(&engine, comm), 0);
            for (i, (a, b)) in engine.q.iter().zip(&oracle.q).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {} ranks={} dof {i}: {a} vs {b}",
                    comm.rank(),
                    ranks,
                );
            }
        });
    }
}

#[test]
fn step_matches_reference_on_mortared_mesh() {
    for ranks in [1usize, 3, 5] {
        run_spmd(ranks, |comm| {
            // Degree 3 (np = 4) exercises the const-generic instance.
            let (engine, oracle) = run_pair(comm, 3, 2);
            assert!(mortar_faces(&engine, comm) > 0);
            assert_within_mortar_tol(&engine, &oracle);
        });
    }
}

#[test]
fn runtime_degree_also_matches_reference() {
    // Degree 2 (np = 3) takes the runtime-np fallback.
    run_spmd(2, |comm| {
        let (engine, oracle) = run_pair(comm, 2, 2);
        assert!(mortar_faces(&engine, comm) > 0);
        assert_within_mortar_tol(&engine, &oracle);
    });
}
