//! End-to-end fault-tolerance: an injected rank crash mid-run is
//! recovered from the last valid checkpoint — on fewer ranks — and the
//! final solution is bitwise identical to a fault-free run.

use std::path::PathBuf;
use std::sync::Arc;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust::forest::{read_dir, CheckpointError};
use forust_advect::{rotation_velocity, AdvectConfig, RecoverySetup};
use forust_comm::{run_spmd, run_spmd_with, ChaosComm, CommConfig, FaultPlan, RankCrashed};
use forust_geom::{Mapping, ShellMap};
use forust_resilience::{
    attempt, run_with_recovery, run_with_recovery_opts, BuddyStore, RecoveryOptions, RestoreSource,
};

fn build_conn() -> Connectivity<D3> {
    builders::cubed_sphere()
}

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn setup(steps: usize, checkpoint_every: usize) -> RecoverySetup {
    RecoverySetup {
        conn: build_conn,
        map: build_map,
        config: AdvectConfig {
            degree: 2,
            initial_level: 1,
            min_level: 1,
            max_level: 2,
            adapt_every: 4,
            cfl: 0.4,
            refine_tol: 0.3,
            coarsen_tol: 0.1,
        },
        init: forust_advect::four_fronts,
        velocity: rotation_velocity,
        steps,
        checkpoint_every,
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join("forust_recovery").join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn assert_bitwise_equal(a: &forust_advect::AttemptResult, b: &forust_advect::AttemptResult) {
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
            "solution differs at dof {i}: {x} vs {y}"
        );
    }
}

#[test]
fn crash_recovery_is_bitwise_identical_to_fault_free_run() {
    const STEPS: usize = 10;
    const CKPT_EVERY: usize = 3;
    const RANKS: usize = 3;

    // Fault-free reference, no checkpoints taken at all.
    let ref_dir = tmpdir("reference");
    let s_nockpt = setup(STEPS, usize::MAX);
    let reference = run_spmd(RANKS, move |comm| {
        attempt(comm, &s_nockpt, &ref_dir, &RecoveryOptions::default()).0
    });

    // Calibration pass: a transparent ChaosComm (no faults) running the
    // real checkpointing schedule, to learn (a) that checkpointing does
    // not perturb the solution and (b) how many communication calls a
    // full run makes, so the crash can be placed mid-run.
    let calib_dir = tmpdir("calibration");
    let s_ckpt = setup(STEPS, CKPT_EVERY);
    let s_calib = s_ckpt.clone();
    let calib = run_spmd_with(
        RANKS,
        CommConfig::default(),
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        move |comm| {
            (
                attempt(comm, &s_calib, &calib_dir, &RecoveryOptions::default()).0,
                comm.calls(),
            )
        },
    );
    assert_bitwise_equal(&reference[0], &calib[0].0);

    // Crash rank 1 at ~60% of its fault-free call count: after at least
    // one checkpoint epoch exists, before the run completes.
    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);
    let chaos_dir = tmpdir("chaos");
    let plan = FaultPlan::new(7).with_crash(1, at_call);
    let outcome = run_with_recovery(RANKS, RANKS - 1, Some(plan), &chaos_dir, &s_ckpt, 3);

    assert_eq!(outcome.attempts, 2, "expected exactly one restart");
    assert_eq!(
        outcome.injected_crash,
        Some(RankCrashed {
            rank: 1,
            call: at_call
        }),
        "the caught panic must be the injected crash"
    );
    // Checkpoints were actually written and used.
    assert!(
        std::fs::read_dir(&chaos_dir).unwrap().count() > 0,
        "no checkpoint epochs were written before the crash"
    );
    assert_bitwise_equal(&reference[0], &outcome.result);
}

#[test]
fn crash_before_first_checkpoint_recovers_from_scratch() {
    // With no checkpoint written yet, recovery degenerates to a clean
    // restart — still bitwise identical.
    const STEPS: usize = 4;
    const RANKS: usize = 2;
    let ref_dir = tmpdir("early_ref");
    let s = setup(STEPS, usize::MAX);
    let s_ref = s.clone();
    let reference = run_spmd(RANKS, move |comm| {
        attempt(comm, &s_ref, &ref_dir, &RecoveryOptions::default()).0
    });

    let chaos_dir = tmpdir("early_chaos");
    // Crash very early: call 5 is long before the first step completes.
    let plan = FaultPlan::new(3).with_crash(0, 5);
    let outcome = run_with_recovery(RANKS, RANKS, Some(plan), &chaos_dir, &s, 3);
    assert_eq!(outcome.attempts, 2);
    assert_eq!(
        outcome.injected_crash,
        Some(RankCrashed { rank: 0, call: 5 })
    );
    assert_bitwise_equal(&reference[0], &outcome.result);
}

#[test]
fn buddy_checkpoints_restore_disklessly_after_single_rank_crash() {
    // In-memory buddy checkpointing: every rank mirrors its checkpoint
    // segment to (rank+1)%p. A single-rank crash loses that rank's
    // primary copy and the mirror it held for its predecessor, but every
    // segment survives somewhere — the restart restores from buddy
    // memory on fewer ranks without the checkpoint root ever being
    // written.
    const STEPS: usize = 10;
    const CKPT_EVERY: usize = 3;
    const RANKS: usize = 3;

    let ref_dir = tmpdir("buddy_ref");
    let s_nockpt = setup(STEPS, usize::MAX);
    let reference = run_spmd(RANKS, move |comm| {
        attempt(comm, &s_nockpt, &ref_dir, &RecoveryOptions::default()).0
    });

    // Calibration under the buddy checkpoint schedule (mirroring adds
    // point-to-point traffic, so call counts differ from disk mode).
    let s_ckpt = setup(STEPS, CKPT_EVERY);
    let calib_dir = tmpdir("buddy_calib");
    let calib_opts = RecoveryOptions {
        buddy: Some(BuddyStore::new()),
        ..RecoveryOptions::default()
    };
    let s_calib = s_ckpt.clone();
    let calib = run_spmd_with(
        RANKS,
        CommConfig::default(),
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        move |comm| {
            let (result, _) = attempt(comm, &s_calib, &calib_dir, &calib_opts);
            (result, comm.calls())
        },
    );
    assert_bitwise_equal(&reference[0], &calib[0].0);

    // Crash rank 1 at ~60% of its fault-free call count: past the first
    // buddy epoch, before the run completes.
    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);
    let store = BuddyStore::new();
    let opts = RecoveryOptions {
        buddy: Some(Arc::clone(&store)),
        ..RecoveryOptions::default()
    };
    let chaos_dir = tmpdir("buddy_chaos");
    let plan = FaultPlan::new(13).with_crash(1, at_call);
    let outcome = run_with_recovery_opts(RANKS, RANKS - 1, Some(plan), &chaos_dir, &s_ckpt, &opts);

    assert_eq!(outcome.attempts, 2, "expected exactly one restart");
    assert_eq!(
        outcome.injected_crash,
        Some(RankCrashed {
            rank: 1,
            call: at_call
        })
    );
    assert!(
        matches!(outcome.restored_from, RestoreSource::Buddy(_)),
        "restart must restore from buddy memory, got {:?}",
        outcome.restored_from
    );
    assert_eq!(
        std::fs::read_dir(&chaos_dir).unwrap().count(),
        0,
        "buddy mode must never touch the checkpoint root on disk"
    );
    assert!(store.bytes() > 0, "buddy store ended up empty");
    assert_bitwise_equal(&reference[0], &outcome.result);
}

#[test]
fn corruption_heals_in_band_without_restart() {
    // Payload corruption is detected by the CRC framing and healed by
    // NACK/retransmit inside ReliableComm: the run completes on the
    // first attempt, bitwise identical, with nonzero healing counters.
    const STEPS: usize = 6;
    const RANKS: usize = 3;

    let ref_dir = tmpdir("heal_ref");
    let s = setup(STEPS, usize::MAX);
    let s_ref = s.clone();
    let reference = run_spmd(RANKS, move |comm| {
        attempt(comm, &s_ref, &ref_dir, &RecoveryOptions::default()).0
    });

    let chaos_dir = tmpdir("heal_chaos");
    let plan = FaultPlan::new(23).with_corruption(0.05).with_delay(0.05);
    let outcome = run_with_recovery(RANKS, RANKS, Some(plan), &chaos_dir, &s, 3);

    assert_eq!(outcome.attempts, 1, "healing must not need a restart");
    assert!(outcome.injected_crash.is_none());
    let healed = outcome
        .retry_counts
        .iter()
        .find(|(k, _)| *k == "comm.retry.healed")
        .map_or(0, |&(_, v)| v);
    let corrupted = outcome
        .fault_counts
        .iter()
        .find(|(k, _)| *k == "chaos.corrupt.send")
        .map_or(0, |&(_, v)| v);
    assert!(corrupted > 0, "fault plan never corrupted a frame");
    assert!(healed > 0, "no frame was healed by retransmit");
    assert_bitwise_equal(&reference[0], &outcome.result);
}

#[test]
fn crash_writes_validated_postmortem_bundle() {
    // The flight-recorder path: the same mid-run crash as the bitwise
    // test, but with a postmortem bundle requested. Recovery stays
    // bitwise identical, and the bundle — validated by the offline
    // parser — names the crashed rank, its injected call, and the phase
    // that was in flight when the rank died.
    const STEPS: usize = 10;
    const CKPT_EVERY: usize = 3;
    const RANKS: usize = 3;

    let ref_dir = tmpdir("pm_ref");
    let s_nockpt = setup(STEPS, usize::MAX);
    let reference = run_spmd(RANKS, move |comm| {
        attempt(comm, &s_nockpt, &ref_dir, &RecoveryOptions::default()).0
    });

    let calib_dir = tmpdir("pm_calib");
    let s_ckpt = setup(STEPS, CKPT_EVERY);
    let s_calib = s_ckpt.clone();
    let calib = run_spmd_with(
        RANKS,
        CommConfig::default(),
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        move |comm| {
            (
                attempt(comm, &s_calib, &calib_dir, &RecoveryOptions::default()).0,
                comm.calls(),
            )
        },
    );
    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);

    let chaos_dir = tmpdir("pm_chaos");
    let pm_path = tmpdir("pm_bundle").join("postmortem.json");
    let opts = RecoveryOptions {
        postmortem: Some(pm_path.clone()),
        ..RecoveryOptions::default()
    };
    let plan = FaultPlan::new(7).with_crash(1, at_call);
    let outcome = run_with_recovery_opts(RANKS, RANKS - 1, Some(plan), &chaos_dir, &s_ckpt, &opts);

    assert_eq!(outcome.attempts, 2, "expected exactly one restart");
    assert_eq!(
        outcome.injected_crash,
        Some(RankCrashed {
            rank: 1,
            call: at_call
        })
    );
    // Flight recording must not perturb the recovered solution.
    assert_bitwise_equal(&reference[0], &outcome.result);

    let text = std::fs::read_to_string(&pm_path).expect("postmortem bundle written");
    let summary =
        forust_obs::postmortem::validate_postmortem(&text).expect("bundle passes validation");
    assert_eq!(summary.dead_rank, 1, "bundle names the crashed rank");
    assert_eq!(summary.dead_call, format!("call {at_call}"));
    assert_eq!(summary.attempt, 0, "the first (index 0) attempt failed");
    let phase = summary
        .in_flight_phase
        .expect("dead rank's dump carries its in-flight phase");
    assert!(!phase.is_empty());
    assert!(
        summary.ranks.contains(&1),
        "dead rank's flight dump made the bundle (got ranks {:?})",
        summary.ranks
    );
    assert!(
        summary.events_total > 0,
        "surviving window carries recent span events"
    );
}

#[test]
fn damaged_newest_epoch_is_rejected_and_attempt_falls_back() {
    // An epoch with one segment file removed, or one segment corrupted,
    // must be a typed error, and the restart scan must fall back to the
    // previous epoch and still finish bitwise identical.
    const STEPS: usize = 7;
    const RANKS: usize = 2;

    let ref_dir = tmpdir("damaged_reference");
    let s_ref = setup(STEPS, usize::MAX);
    let reference = run_spmd(RANKS, move |comm| {
        attempt(comm, &s_ref, &ref_dir, &RecoveryOptions::default()).0
    });

    for damage in ["missing", "corrupt"] {
        // Five steps with a checkpoint every two: epochs 2 and 4.
        let root = tmpdir(&format!("damaged_{damage}"));
        let (s_first, dir) = (setup(5, 2), root.clone());
        run_spmd(RANKS, move |comm| {
            attempt(comm, &s_first, &dir, &RecoveryOptions::default());
        });
        let segment = root.join("epoch_4").join("forest_1.fst");
        assert!(segment.exists() && root.join("epoch_2").exists());
        if damage == "missing" {
            std::fs::remove_file(&segment).unwrap();
        } else {
            let mut bytes = std::fs::read(&segment).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
            std::fs::write(&segment, bytes).unwrap();
        }
        let err = read_dir(&root.join("epoch_4")).expect_err("a damaged epoch read back");
        match damage {
            "missing" => assert!(
                matches!(
                    err,
                    CheckpointError::MissingSegment {
                        rank: 1,
                        saved_ranks: 2
                    }
                ),
                "{err:?}"
            ),
            _ => assert!(matches!(err, CheckpointError::Crc { .. }), "{err:?}"),
        }

        let (s_resume, dir) = (setup(STEPS, usize::MAX), root.clone());
        let resumed = run_spmd(RANKS, move |comm| {
            attempt(comm, &s_resume, &dir, &RecoveryOptions::default())
        });
        assert_eq!(resumed[0].1, RestoreSource::Disk(2), "{damage}");
        assert_bitwise_equal(&reference[0], &resumed[0].0);
    }
}
