//! One checkpoint format for every solver, checked on both paths: a
//! checkpoint is the segment blob `checkpoint_segment` returns, the disk
//! copy the supervisor writes holds exactly those bytes, and one solver
//! never restores another's checkpoint — the header carries the writer's
//! magic, and a restore under a different magic is a typed `Format` error
//! naming the segment, from disk and from memory, in every direction.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use extreme_amr::advect::{four_fronts, rotation_velocity, AdvectConfig, RecoverySetup};
use extreme_amr::comm::{run_spmd, Communicator, ThreadComm};
use extreme_amr::forust::connectivity::{builders, Connectivity};
use extreme_amr::forust::dim::D3;
use extreme_amr::forust::forest::{read_dir, write_dir, CheckpointError};
use extreme_amr::geom::{Mapping, ShellMap};
use extreme_amr::mantle::{MantleConfig, MantleRecoverySetup};
use extreme_amr::resilience::{run_with_recovery, Recoverable};
use extreme_amr::seismic::{prem_like_at, SeismicConfig, SeismicRecoverySetup};

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn advect(checkpoint_every: usize) -> RecoverySetup {
    RecoverySetup {
        conn: builders::cubed_sphere,
        map: build_map,
        config: AdvectConfig {
            degree: 2,
            initial_level: 1,
            min_level: 1,
            max_level: 1,
            ..Default::default()
        },
        init: four_fronts,
        velocity: rotation_velocity,
        steps: 2,
        checkpoint_every,
    }
}

fn seismic(checkpoint_every: usize) -> SeismicRecoverySetup {
    SeismicRecoverySetup {
        conn: builders::cubed_sphere,
        map: build_map,
        config: SeismicConfig {
            degree: 2,
            min_level: 1,
            max_level: 1,
            ..Default::default()
        },
        model: prem_like_at,
        steps: 2,
        checkpoint_every,
    }
}

fn mantle(checkpoint_every: usize) -> MantleRecoverySetup {
    MantleRecoverySetup {
        conn: builders::cubed_sphere,
        map: build_map,
        config: MantleConfig {
            picard_iters: 2,
            amr_every: 100,
            max_level: 1,
            minres_iters: 5,
            minres_tol: 1e-3,
            ..Default::default()
        },
        initial_level: 1,
        checkpoint_every,
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

/// One solver, type-erased: its checkpoint after one unit on one rank,
/// and its restore, answering with the restored solver's own checkpoint.
struct Case<'a> {
    name: &'static str,
    blob: Vec<u8>,
    restore: Box<dyn Fn(&[Vec<u8>]) -> Result<Vec<u8>, CheckpointError> + 'a>,
}

fn case<'a, R: Recoverable + 'a>(name: &'static str, exp: R, comm: &'a ThreadComm) -> Case<'a> {
    let mut solver = exp.build(comm);
    exp.advance(&mut solver, comm);
    let blob = exp.checkpoint_segment(&solver, 1);
    let restore = move |segments: &[Vec<u8>]| {
        let s = exp.restore(comm, segments)?;
        Ok(exp.checkpoint_segment(&s, 1))
    };
    Case {
        name,
        blob,
        restore: Box::new(restore),
    }
}

/// The rejection must come from the magic check on segment 0, not from a
/// later check that happens to fail too.
fn assert_foreign_state(err: Option<CheckpointError>) {
    match err.expect("a foreign solver's checkpoint restored") {
        CheckpointError::Format { file, detail } => {
            assert_eq!(file, Path::new("<segment 0>"));
            assert!(detail.contains("magic"), "{detail}");
        }
        other => panic!("expected the magic check's Format error, got {other:?}"),
    }
}

#[test]
fn restoring_another_solvers_checkpoint_is_a_format_error() {
    run_spmd(1, |comm| {
        let cases = [
            case("advect", advect(usize::MAX), comm),
            case("seismic", seismic(usize::MAX), comm),
            case("mantle", mantle(usize::MAX), comm),
        ];
        for writer in &cases {
            let dir = tmpdir(writer.name);
            write_dir(comm, &dir, &writer.blob).unwrap();
            let from_disk = read_dir(&dir).unwrap();
            let in_memory = vec![writer.blob.clone()];
            for segments in [&from_disk, &in_memory] {
                for reader in &cases {
                    let got = (reader.restore)(segments);
                    if reader.name == writer.name {
                        // Each solver takes its own checkpoint back, bit
                        // for bit.
                        assert!(got.unwrap() == writer.blob, "{} changed", writer.name);
                    } else {
                        assert_foreign_state(got.err());
                    }
                }
            }
        }
    });
}

/// Forwards to `R`, keeping every blob `checkpoint_segment` returns with
/// the rank that returned it.
struct Recording<R> {
    exp: R,
    blobs: Mutex<Vec<(usize, Vec<u8>)>>,
}

impl<R: Recoverable> Recoverable for Recording<R> {
    type Solver = (R::Solver, usize);
    type Final = R::Final;

    fn build<C: Communicator>(&self, comm: &C) -> Self::Solver {
        (self.exp.build(comm), comm.rank())
    }
    fn restore<C: Communicator>(
        &self,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<Self::Solver, CheckpointError> {
        Ok((self.exp.restore(comm, segments)?, comm.rank()))
    }
    fn checkpoint_segment(&self, (solver, rank): &Self::Solver, saved_ranks: usize) -> Vec<u8> {
        let blob = self.exp.checkpoint_segment(solver, saved_ranks);
        self.blobs.lock().unwrap().push((*rank, blob.clone()));
        blob
    }
    fn units_done(&self, solver: &Self::Solver) -> usize {
        self.exp.units_done(&solver.0)
    }
    fn total_units(&self) -> usize {
        self.exp.total_units()
    }
    fn checkpoint_every(&self) -> usize {
        self.exp.checkpoint_every()
    }
    fn advance<C: Communicator>(&self, solver: &mut Self::Solver, comm: &C) {
        self.exp.advance(&mut solver.0, comm);
    }
    fn finish<C: Communicator>(&self, solver: &Self::Solver, comm: &C) -> Self::Final {
        self.exp.finish(&solver.0, comm)
    }
}

/// Run `exp` (two units, checkpoint after the first) through the
/// supervisor on `ranks` ranks and compare the epoch it wrote to disk
/// with the blobs it was handed.
fn disk_holds_the_segments<R: Recoverable>(name: &str, exp: R, ranks: usize) {
    let root = tmpdir(&format!("supervisor_{name}_{ranks}"));
    let rec = Recording {
        exp,
        blobs: Mutex::new(Vec::new()),
    };
    run_with_recovery(ranks, ranks, None, &root, &rec, 1);
    let mut handed = rec.blobs.into_inner().unwrap();
    handed.sort_by_key(|(rank, _)| *rank);
    let handed: Vec<Vec<u8>> = handed.into_iter().map(|(_, blob)| blob).collect();
    assert_eq!(handed.len(), ranks, "{name}: one checkpoint per rank");
    let on_disk = read_dir(&root.join("epoch_1")).unwrap();
    assert!(
        on_disk == handed,
        "{name} on {ranks} ranks: disk bytes differ"
    );
}

#[test]
fn supervisor_disk_save_is_the_segment_blobs() {
    for ranks in [1, 3] {
        disk_holds_the_segments("advect", advect(1), ranks);
        disk_holds_the_segments("seismic", seismic(1), ranks);
        disk_holds_the_segments("mantle", mantle(1), ranks);
    }
}
