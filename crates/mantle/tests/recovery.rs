//! End-to-end fault tolerance for the mantle Stokes solver: an injected
//! rank crash mid-MINRES is recovered from the last valid checkpoint —
//! on fewer ranks — and the final solution is bitwise identical to a
//! fault-free run. This exercises the exact fixed-point reductions in
//! the cG assembly and inner products: without them the Krylov
//! trajectory would diverge in round-off across partitions.

use std::path::PathBuf;
use std::sync::Arc;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust_comm::{run_spmd, run_spmd_with, ChaosComm, FaultPlan};
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{MantleConfig, MantleSolver, MantleSpec};
use forust_resilience::{attempt, run_with_recovery, AttemptResult, Run, Store};

fn build_conn() -> Connectivity<D3> {
    builders::cubed_sphere()
}

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn spec() -> MantleSpec {
    MantleSpec {
        conn: build_conn,
        map: build_map,
        config: MantleConfig {
            picard_iters: 4,
            amr_every: 3,
            max_level: 2,
            minres_iters: 25,
            minres_tol: 1e-3,
            ..Default::default()
        },
        initial_level: 1,
    }
}

/// The spec's Picard iterations on `ranks` ranks with a checkpoint every
/// `checkpoint_every` into the directory `dir`.
fn disk_run(s: &MantleSpec, ranks: usize, checkpoint_every: usize, dir: PathBuf) -> Run {
    Run {
        checkpoint_every,
        ..Run::new(ranks, s.config.picard_iters, Store::Disk(dir))
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("forust_mantle_recovery")
        .join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn assert_bitwise_equal(a: &AttemptResult, b: &AttemptResult) {
    assert_eq!(a.steps, b.steps);
    assert_eq!(
        a.solution.len(),
        b.solution.len(),
        "solution length differs"
    );
    for (i, (x, y)) in a.solution.iter().zip(&b.solution).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "solution differs at corner value {i}: {x} vs {y}"
        );
    }
}

#[test]
fn full_solve_is_rank_count_invariant() {
    // The whole nonlinear pipeline — Picard, MINRES, interleaved AMR —
    // lands on bitwise-identical global state on 1, 2, and 3 ranks.
    let results: Vec<AttemptResult> = [1usize, 2, 3]
        .iter()
        .map(|&p| {
            let s = spec();
            let run = disk_run(&s, p, usize::MAX, tmpdir(&format!("invariance_{p}")));
            run_spmd(p, |comm| attempt::<MantleSolver>(comm, &s, &run).0).remove(0)
        })
        .collect();
    assert!(
        results[0].solution.iter().any(|&v| v != 0.0),
        "no flow developed"
    );
    assert_bitwise_equal(&results[0], &results[1]);
    assert_bitwise_equal(&results[0], &results[2]);
}

#[test]
fn crash_mid_minres_recovery_is_bitwise_identical() {
    const RANKS: usize = 3;
    const CKPT_EVERY: usize = 2;

    // Fault-free reference, no checkpoints.
    let s = spec();
    let ref_run = disk_run(&s, RANKS, usize::MAX, tmpdir("reference"));
    let reference = run_spmd(RANKS, |comm| attempt::<MantleSolver>(comm, &s, &ref_run).0);

    // Calibration: count communication calls of a fault-free run under
    // the real checkpoint schedule, to place the crash mid-run (well
    // inside a MINRES solve).
    let calib_run = disk_run(&s, RANKS, CKPT_EVERY, tmpdir("calibration"));
    let calib = run_spmd_with(
        RANKS,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        |comm| {
            (
                attempt::<MantleSolver>(comm, &s, &calib_run).0,
                comm.calls(),
            )
        },
    );
    assert_bitwise_equal(&reference[0], &calib[0].0);

    // Crash rank 1 at ~60% of its fault-free call count: after the
    // epoch-2 checkpoint exists, before the run completes.
    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);
    let chaos_dir = tmpdir("chaos");
    let run = Run {
        restart_ranks: RANKS - 1,
        plan: Some(FaultPlan::new(11).with_crash(1, at_call)),
        ..disk_run(&s, RANKS, CKPT_EVERY, chaos_dir.clone())
    };
    let outcome = run_with_recovery::<MantleSolver>(&s, &run);

    assert_eq!(outcome.attempts, 2, "expected exactly one restart");
    assert!(outcome.injected_crash.is_some());
    assert!(
        std::fs::read_dir(&chaos_dir).unwrap().count() > 0,
        "no checkpoint epochs were written before the crash"
    );
    assert_bitwise_equal(&reference[0], &outcome.result);
}
