//! The kernel-engine `step` must produce **bitwise** the same solution as
//! the retained pre-engine `step_reference` oracle — across adapt cycles
//! (mortar faces appear and disappear, caches rebuild) and on several
//! rank counts (ghost traces flow through the workspace path too).

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{rotation_velocity, AdvectConfig, AdvectSolver};
use forust_comm::{run_spmd, Communicator};
use forust_geom::ShellMap;

fn adaptive_solver(comm: &impl Communicator) -> AdvectSolver {
    let conn = Arc::new(builders::cubed_sphere());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
    let config = AdvectConfig {
        degree: 3, // np = 4: exercises the const-generic instance
        initial_level: 1,
        min_level: 1,
        max_level: 3,
        adapt_every: 3,
        cfl: 0.4,
        refine_tol: 0.05,
        coarsen_tol: 0.02,
    };
    AdvectSolver::new(
        comm,
        forest,
        map,
        config,
        forust_advect::four_fronts,
        rotation_velocity,
    )
}

#[test]
fn step_matches_reference_bitwise_across_adapts() {
    for ranks in [1usize, 3, 5] {
        run_spmd(ranks, |comm| {
            let mut engine = adaptive_solver(comm);
            let mut oracle = adaptive_solver(comm);
            assert_eq!(engine.dt.to_bits(), oracle.dt.to_bits());
            for _ in 0..7 {
                engine.step(comm);
                oracle.step_reference(comm);
            }
            assert!(engine.timers.adapts >= 2, "adapt cycles must have run");
            assert_eq!(engine.c.len(), oracle.c.len(), "meshes diverged");
            for (i, (a, b)) in engine.c.iter().zip(&oracle.c).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {} ranks={} dof {i}: {a} vs {b}",
                    comm.rank(),
                    ranks,
                );
            }
            assert_eq!(engine.time.to_bits(), oracle.time.to_bits());
            // The workspace never regrew: the capacity contract held
            // through every stage and adapt-triggered reconfigure.
            assert_eq!(engine.stepper.grow_events(), 0);
        });
    }
}

#[test]
fn runtime_degree_also_matches_reference() {
    // Degree 2 (np = 3) takes the runtime-np fallback; it must be just as
    // bitwise-identical as the monomorphized degrees.
    run_spmd(2, |comm| {
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = AdvectConfig {
            degree: 2,
            initial_level: 1,
            min_level: 1,
            max_level: 3,
            adapt_every: 4,
            cfl: 0.4,
            refine_tol: 0.05,
            coarsen_tol: 0.02,
        };
        let mk = || {
            AdvectSolver::new(
                comm,
                forest.clone(),
                Arc::clone(&map) as _,
                config.clone(),
                forust_advect::four_fronts,
                rotation_velocity,
            )
        };
        let mut engine = mk();
        let mut oracle = mk();
        for _ in 0..5 {
            engine.step(comm);
            oracle.step_reference(comm);
        }
        assert_eq!(engine.c.len(), oracle.c.len());
        for (a, b) in engine.c.iter().zip(&oracle.c) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    });
}
