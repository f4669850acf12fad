//! The kernel-engine seismic `step` (batched 9-field gradients, flat
//! face-trace slabs, workspace mortar buffers) must produce **bitwise**
//! the same state as the retained pre-engine `step_reference` oracle, on
//! several rank counts — the mesh is wavelength-adapted, so 2:1 mortar
//! faces are exercised throughout.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::{run_spmd, Communicator};
use forust_geom::{Mapping, ShellMap};
use forust_seismic::{prem_like_at, SeismicConfig, SeismicSolver};

fn build(comm: &impl Communicator, degree: usize) -> SeismicSolver {
    let conn = Arc::new(builders::shell24());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
    let config = SeismicConfig {
        degree,
        min_level: 1,
        max_level: 2,
        f0: 3.0,
        ppw: 6.0,
        ..Default::default()
    };
    SeismicSolver::new(comm, forest, map, config, prem_like_at)
}

#[test]
fn step_matches_reference_bitwise() {
    for ranks in [1usize, 3, 5] {
        run_spmd(ranks, |comm| {
            // Degree 3 (np = 4) exercises the const-generic instance.
            let mut engine = build(comm, 3);
            let mut oracle = build(comm, 3);
            assert_eq!(engine.dt.to_bits(), oracle.dt.to_bits());
            for _ in 0..4 {
                engine.step(comm);
                oracle.step_reference(comm);
            }
            assert_eq!(engine.q.len(), oracle.q.len());
            for (i, (a, b)) in engine.q.iter().zip(&oracle.q).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {} ranks={} dof {i}: {a} vs {b}",
                    comm.rank(),
                    ranks,
                );
            }
            // The workspace never regrew mid-stage.
            assert_eq!(engine.stepper.grow_events(), 0);
        });
    }
}

#[test]
fn runtime_degree_also_matches_reference() {
    // Degree 2 (np = 3) takes the runtime-np fallback.
    run_spmd(2, |comm| {
        let mut engine = build(comm, 2);
        let mut oracle = build(comm, 2);
        for _ in 0..4 {
            engine.step(comm);
            oracle.step_reference(comm);
        }
        for (a, b) in engine.q.iter().zip(&oracle.q) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    });
}
