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
use forust_comm::{run_spmd, run_spmd_with, ChaosComm, CommConfig, FaultPlan};
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{MantleAttemptResult, MantleConfig, MantleRecoverySetup};
use forust_resilience::{attempt, run_with_recovery, RecoveryOptions};

fn build_conn() -> Connectivity<D3> {
    builders::cubed_sphere()
}

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn setup(checkpoint_every: usize) -> MantleRecoverySetup {
    MantleRecoverySetup {
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
        checkpoint_every,
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

fn assert_bitwise_equal(a: &MantleAttemptResult, b: &MantleAttemptResult) {
    assert_eq!(a.iters, b.iters);
    assert_eq!(
        a.norm.to_bits(),
        b.norm.to_bits(),
        "final norm differs: {} vs {}",
        a.norm,
        b.norm
    );
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
    let results: Vec<MantleAttemptResult> = [1usize, 2, 3]
        .iter()
        .map(|&p| {
            let dir = tmpdir(&format!("invariance_{p}"));
            let s = setup(usize::MAX);
            let opts = RecoveryOptions::default();
            run_spmd(p, move |comm| attempt(comm, &s, &dir, &opts).0).remove(0)
        })
        .collect();
    assert!(results[0].norm > 0.0, "no flow developed");
    assert_bitwise_equal(&results[0], &results[1]);
    assert_bitwise_equal(&results[0], &results[2]);
}

#[test]
fn crash_mid_minres_recovery_is_bitwise_identical() {
    const RANKS: usize = 3;
    const CKPT_EVERY: usize = 2;

    // Fault-free reference, no checkpoints.
    let ref_dir = tmpdir("reference");
    let s_ref = setup(usize::MAX);
    let opts = RecoveryOptions::default();
    let reference = run_spmd(RANKS, move |comm| attempt(comm, &s_ref, &ref_dir, &opts).0);

    // Calibration: count communication calls of a fault-free run under
    // the real checkpoint schedule, to place the crash mid-run (well
    // inside a MINRES solve).
    let calib_dir = tmpdir("calibration");
    let s = setup(CKPT_EVERY);
    let s_calib = s.clone();
    let opts = RecoveryOptions::default();
    let calib = run_spmd_with(
        RANKS,
        CommConfig::default(),
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        move |comm| (attempt(comm, &s_calib, &calib_dir, &opts).0, comm.calls()),
    );
    assert_bitwise_equal(&reference[0], &calib[0].0);

    // Crash rank 1 at ~60% of its fault-free call count: after the
    // epoch-2 checkpoint exists, before the run completes.
    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);
    let chaos_dir = tmpdir("chaos");
    let plan = FaultPlan::new(11).with_crash(1, at_call);
    let outcome = run_with_recovery(RANKS, RANKS - 1, Some(plan), &chaos_dir, &s, 3);

    assert_eq!(outcome.attempts, 2, "expected exactly one restart");
    assert!(outcome.injected_crash.is_some());
    assert!(
        std::fs::read_dir(&chaos_dir).unwrap().count() > 0,
        "no checkpoint epochs were written before the crash"
    );
    assert_bitwise_equal(&reference[0], &outcome.result);
}
