//! End-to-end fault tolerance for the elastic wave solver: an injected
//! rank crash mid-RK-stage is recovered from the last valid checkpoint —
//! on fewer ranks — and the final wavefield is bitwise identical to a
//! fault-free run.

use std::path::PathBuf;
use std::sync::Arc;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust_comm::{run_spmd, run_spmd_with, ChaosComm, FaultPlan, RankCrashed};
use forust_geom::{Mapping, ShellMap};
use forust_resilience::{attempt, run_with_recovery, AttemptResult, Run, Store};
use forust_seismic::{prem_like_at, SeismicConfig, SeismicSolver, SeismicSpec};

fn build_conn() -> Connectivity<D3> {
    builders::cubed_sphere()
}

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn spec() -> SeismicSpec {
    SeismicSpec {
        conn: build_conn,
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

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("forust_seismic_recovery")
        .join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn assert_bitwise_equal(a: &AttemptResult, b: &AttemptResult) {
    assert_eq!(a.steps, b.steps);
    assert_eq!(
        a.time.to_bits(),
        b.time.to_bits(),
        "final time differs: {} vs {}",
        a.time,
        b.time
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
            "wavefield differs at dof {i}: {x} vs {y}"
        );
    }
}

#[test]
fn crash_mid_rk_recovery_is_bitwise_identical() {
    const STEPS: usize = 8;
    const CKPT_EVERY: usize = 3;
    const RANKS: usize = 3;

    // Fault-free reference, no checkpoints taken at all.
    let s = spec();
    let ref_run = Run::new(RANKS, STEPS, Store::Disk(tmpdir("reference")));
    let reference = run_spmd(RANKS, |comm| attempt::<SeismicSolver>(comm, &s, &ref_run).0);
    assert!(
        reference[0].solution.iter().any(|&x| x != 0.0),
        "source never excited the wavefield"
    );

    // Calibration pass: transparent ChaosComm under the real checkpoint
    // schedule, counting communication calls so the crash lands mid-run
    // (inside an RK stage's halo exchange, past the first checkpoint).
    let calib_run = Run {
        checkpoint_every: CKPT_EVERY,
        ..Run::new(RANKS, STEPS, Store::Disk(tmpdir("calibration")))
    };
    let calib = run_spmd_with(
        RANKS,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        |comm| {
            (
                attempt::<SeismicSolver>(comm, &s, &calib_run).0,
                comm.calls(),
            )
        },
    );
    assert_bitwise_equal(&reference[0], &calib[0].0);

    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);
    let chaos_dir = tmpdir("chaos");
    let run = Run {
        restart_ranks: RANKS - 1,
        plan: Some(FaultPlan::new(9).with_crash(1, at_call)),
        store: Store::Disk(chaos_dir.clone()),
        ..calib_run
    };
    let outcome = run_with_recovery::<SeismicSolver>(&s, &run);

    assert_eq!(outcome.attempts, 2, "expected exactly one restart");
    assert_eq!(
        outcome.injected_crash,
        Some(RankCrashed {
            rank: 1,
            call: at_call
        }),
        "the caught panic must be the injected crash"
    );
    assert!(
        std::fs::read_dir(&chaos_dir).unwrap().count() > 0,
        "no checkpoint epochs were written before the crash"
    );
    assert_bitwise_equal(&reference[0], &outcome.result);
}
