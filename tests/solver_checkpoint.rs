//! One solver must never restore another's checkpoint: the shared solver
//! codec tags the scalar state with the writing solver's magic, and a
//! restore under a different magic is a typed `Format` error naming the
//! scalar-state blob — on disk and from in-memory (buddy) segments, in
//! both directions.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use extreme_amr::advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver};
use extreme_amr::comm::run_spmd;
use extreme_amr::forust::connectivity::{builders, Connectivity};
use extreme_amr::forust::dim::D3;
use extreme_amr::forust::forest::{CheckpointError, Forest};
use extreme_amr::geom::{Mapping, ShellMap};
use extreme_amr::seismic::{prem_like_at, SeismicConfig, SeismicSolver};

fn domain() -> (Arc<Connectivity<D3>>, Arc<dyn Mapping<D3> + Send + Sync>) {
    let conn = Arc::new(builders::cubed_sphere());
    let map = Arc::new(ShellMap::new(Arc::clone(&conn), 0.55, 1.0));
    (conn, map)
}

fn advect_config() -> AdvectConfig {
    AdvectConfig {
        degree: 2,
        initial_level: 1,
        min_level: 1,
        max_level: 1,
        ..Default::default()
    }
}

fn seismic_config() -> SeismicConfig {
    SeismicConfig {
        degree: 2,
        min_level: 1,
        max_level: 1,
        ..Default::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("forust_solver_checkpoint")
        .join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The rejection must come from the magic check on the scalar state, not
/// from a later check that happens to fail too.
fn assert_foreign_state(err: Option<CheckpointError>, origin: &Path) {
    match err.expect("a foreign solver's checkpoint restored") {
        CheckpointError::Format { file, .. } => assert_eq!(file, origin),
        other => panic!("expected a Format error on {origin:?}, got {other:?}"),
    }
}

#[test]
fn restoring_another_solvers_checkpoint_is_a_format_error() {
    let adv_dir = tmpdir("advect");
    let sei_dir = tmpdir("seismic");
    let memory = Path::new("<memory solver state>");
    run_spmd(1, move |comm| {
        let (conn, map) = domain();
        let level1 = || Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let mut adv = AdvectSolver::new(
            comm,
            level1(),
            Arc::clone(&map),
            advect_config(),
            four_fronts,
            rotation_velocity,
        );
        let mut sei = SeismicSolver::new(
            comm,
            level1(),
            Arc::clone(&map),
            seismic_config(),
            prem_like_at,
        );
        adv.step(comm);
        sei.step(comm);
        adv.save_checkpoint(comm, &adv_dir).unwrap();
        sei.save_checkpoint(comm, &sei_dir).unwrap();
        let adv_blobs = vec![adv.checkpoint_segment(1)];
        let sei_blobs = vec![sei.checkpoint_segment(1)];

        // Each solver takes its own checkpoint back, both ways.
        let own =
            |c, m| AdvectSolver::restore(comm, c, m, advect_config(), rotation_velocity, &adv_dir);
        assert_eq!(own(Arc::clone(&conn), Arc::clone(&map)).unwrap().c, adv.c);
        let own = SeismicSolver::restore_from_segments(
            comm,
            Arc::clone(&conn),
            Arc::clone(&map),
            seismic_config(),
            prem_like_at,
            &sei_blobs,
        );
        assert_eq!(own.unwrap().q, sei.q);

        // Seismic state under advect's magic.
        let r = AdvectSolver::restore(
            comm,
            Arc::clone(&conn),
            Arc::clone(&map),
            advect_config(),
            rotation_velocity,
            &sei_dir,
        );
        assert_foreign_state(r.err(), &sei_dir.join("solver.fst"));
        let r = AdvectSolver::restore_from_segments(
            comm,
            Arc::clone(&conn),
            Arc::clone(&map),
            advect_config(),
            rotation_velocity,
            &sei_blobs,
        );
        assert_foreign_state(r.err(), memory);

        // Advect state under seismic's magic.
        let r = SeismicSolver::restore(
            comm,
            Arc::clone(&conn),
            Arc::clone(&map),
            seismic_config(),
            prem_like_at,
            &adv_dir,
        );
        assert_foreign_state(r.err(), &adv_dir.join("solver.fst"));
        let r = SeismicSolver::restore_from_segments(
            comm,
            Arc::clone(&conn),
            Arc::clone(&map),
            seismic_config(),
            prem_like_at,
            &adv_blobs,
        );
        assert_foreign_state(r.err(), memory);
    });
}
