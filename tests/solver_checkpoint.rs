//! One checkpoint format for every solver, checked on both paths: a
//! checkpoint is the segment blob `Carried::segment` returns, the disk
//! copy the supervisor writes holds exactly those bytes, and one solver
//! never restores another's checkpoint — the header carries the writer's
//! magic, and a restore under a different magic is a typed `Format` error
//! naming the segment, from disk and from memory, in every direction.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use extreme_amr::advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver, AdvectSpec};
use extreme_amr::comm::{run_spmd, Communicator, ThreadComm};
use extreme_amr::forust::connectivity::{builders, Connectivity};
use extreme_amr::forust::dim::D3;
use extreme_amr::forust::forest::{read_dir, write_dir, CheckpointError};
use extreme_amr::geom::{Mapping, ShellMap};
use extreme_amr::mantle::{MantleConfig, MantleSolver, MantleSpec};
use extreme_amr::resilience::{run_with_recovery, Carried, Recoverable, Run, Store};
use extreme_amr::seismic::{prem_like_at, SeismicConfig, SeismicSolver, SeismicSpec};

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn advect() -> AdvectSpec {
    AdvectSpec {
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
    }
}

fn seismic() -> SeismicSpec {
    SeismicSpec {
        conn: builders::cubed_sphere,
        map: build_map,
        config: SeismicConfig {
            degree: 2,
            min_level: 1,
            max_level: 1,
            ..Default::default()
        },
        model: prem_like_at,
    }
}

fn mantle() -> MantleSpec {
    MantleSpec {
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

fn case<'a, R: Recoverable + 'a>(
    name: &'static str,
    spec: R::Spec,
    comm: &'a ThreadComm,
) -> Case<'a>
where
    R::Spec: 'a,
{
    let mut solver = R::build(&spec, comm);
    solver.advance(comm, false);
    let blob = solver.carried().segment(1);
    let restore = move |segments: &[Vec<u8>]| {
        let s = R::restore(&spec, comm, segments)?;
        Ok(s.carried().segment(1))
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
            case::<AdvectSolver>("advect", advect(), comm),
            case::<SeismicSolver>("seismic", seismic(), comm),
            case::<MantleSolver>("mantle", mantle(), comm),
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

/// `R`, keeping the segment blob of every unit it completes with the
/// rank and the unit count that produced it.
struct Recording<R> {
    solver: R,
    rank: usize,
    blobs: Arc<Blobs>,
}

type Blobs = Mutex<Vec<(usize, usize, Vec<u8>)>>;

impl<R: Recoverable> Recoverable for Recording<R> {
    type Spec = (R::Spec, Arc<Blobs>);

    fn build<C: Communicator>((spec, blobs): &Self::Spec, comm: &C) -> Self {
        let solver = R::build(spec, comm);
        let (rank, blobs) = (comm.rank(), Arc::clone(blobs));
        Recording {
            solver,
            rank,
            blobs,
        }
    }
    fn restore<C: Communicator>(
        (spec, blobs): &Self::Spec,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<Self, CheckpointError> {
        let solver = R::restore(spec, comm, segments)?;
        let (rank, blobs) = (comm.rank(), Arc::clone(blobs));
        Ok(Recording {
            solver,
            rank,
            blobs,
        })
    }
    fn advance<C: Communicator>(&mut self, comm: &C, last: bool) {
        self.solver.advance(comm, last);
        let carried = self.solver.carried();
        let blob = carried.segment(comm.size());
        let mut blobs = self.blobs.lock().unwrap();
        blobs.push((self.rank, carried.units, blob));
    }
    fn carried(&self) -> Carried<'_> {
        self.solver.carried()
    }
}

/// Run `spec` (two units, checkpoint after the first) through the
/// supervisor on `ranks` ranks and compare the epoch it wrote to disk
/// with the blobs the solver's state encodes to after that unit.
fn disk_holds_the_segments<R: Recoverable>(name: &str, spec: R::Spec, ranks: usize) {
    let root = tmpdir(&format!("supervisor_{name}_{ranks}"));
    let blobs = Arc::new(Mutex::new(Vec::new()));
    let run = Run {
        checkpoint_every: 1,
        max_attempts: 1,
        ..Run::new(ranks, 2, Store::Disk(root.clone()))
    };
    run_with_recovery::<Recording<R>>(&(spec, Arc::clone(&blobs)), &run);
    let mut handed = std::mem::take(&mut *blobs.lock().unwrap());
    handed.retain(|(_, units, _)| *units == 1);
    handed.sort_by_key(|(rank, _, _)| *rank);
    let handed: Vec<Vec<u8>> = handed.into_iter().map(|(_, _, blob)| blob).collect();
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
        disk_holds_the_segments::<AdvectSolver>("advect", advect(), ranks);
        disk_holds_the_segments::<SeismicSolver>("seismic", seismic(), ranks);
        disk_holds_the_segments::<MantleSolver>("mantle", mantle(), ranks);
    }
}

/// Every rank's segment blob after two units on `ranks` ranks, in rank
/// order.
fn blobs_after_two_units<R: Recoverable>(spec: &R::Spec, ranks: usize) -> Vec<Vec<u8>> {
    run_spmd(ranks, |comm| {
        let mut solver = R::build(spec, comm);
        for unit in 0..2 {
            solver.advance(comm, unit == 1);
        }
        solver.carried().segment(comm.size())
    })
}

/// FNV-1a over the blobs in order, each prefixed by its length.
fn digest(blobs: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for blob in blobs {
        for &b in (blob.len() as u64).to_le_bytes().iter().chain(blob) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn checkpoint_bytes_are_pinned() {
    // The encoding itself, not only its round trip: every solver's
    // segment blobs after two units, on one and on three ranks.
    const PINNED: [(&str, usize, u64); 6] = [
        ("advect", 1, 0xcf88_6785_d9a7_07f6),
        ("advect", 3, 0x186a_dce3_3c6c_1fe2),
        ("seismic", 1, 0x1a45_c50d_feb3_e41c),
        ("seismic", 3, 0x4dc8_a03b_72e4_baf5),
        ("mantle", 1, 0xee6a_4f8a_5070_e59a),
        ("mantle", 3, 0xc030_6acb_b591_cda9),
    ];
    let mut got = Vec::new();
    for (name, ranks, _) in PINNED {
        let blobs = match name {
            "advect" => blobs_after_two_units::<AdvectSolver>(&advect(), ranks),
            "seismic" => blobs_after_two_units::<SeismicSolver>(&seismic(), ranks),
            _ => blobs_after_two_units::<MantleSolver>(&mantle(), ranks),
        };
        assert_eq!(blobs.len(), ranks);
        got.push((name, ranks, digest(&blobs)));
    }
    let want: Vec<_> = PINNED.to_vec();
    assert_eq!(got, want, "checkpoint bytes moved");
}
