//! Chaos cell for the f32 device backend: a run that steps entirely on
//! the device — f32 state, f32 halo wire — under wire corruption plus a
//! rank crash mid-device-step must recover from the last checkpoint (on
//! fewer ranks) to a final state **bitwise** identical to a fault-free
//! device run, and within the documented error bound of the f64 engine
//! reference.
//!
//! The cross-step device state round-trips exactly: `to_host` widens
//! f32→f64 losslessly after every step, and `from_host` on restore
//! demotes the same values back, so a replayed device step sees bitwise
//! the state the crashed attempt saw.

use std::path::PathBuf;
use std::sync::Arc;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust::forest::{CheckpointError, Forest};
use forust_comm::{run_spmd, run_spmd_with, ChaosComm, CommConfig, Communicator, FaultPlan};
use forust_geom::{Mapping, ShellMap};
use forust_resilience::{attempt, run_with_recovery, Recoverable, RecoveryOptions};
use forust_seismic::{
    prem_like_at, DeviceState, SeismicAttemptResult, SeismicConfig, SeismicSolver,
};

/// Documented device error bound, as in `device_accuracy.rs`.
const DEVICE_REL_BOUND: f64 = 2e-4;

/// A seismic run whose time stepping happens on the f32 device tier.
#[derive(Clone)]
struct DeviceRecoverySetup {
    config: SeismicConfig,
    steps: usize,
    checkpoint_every: usize,
}

fn build_host<C: Communicator>(comm: &C, config: &SeismicConfig) -> SeismicSolver {
    let conn = Arc::new(builders::shell24());
    let map: Arc<dyn Mapping<D3> + Send + Sync> =
        Arc::new(ShellMap::new(Arc::clone(&conn), 0.55, 1.0));
    let forest = Forest::<D3>::new_uniform(conn, comm, config.min_level);
    SeismicSolver::new(comm, forest, map, config.clone(), prem_like_at)
}

fn geom(
    conn: Arc<Connectivity<D3>>,
) -> (Arc<Connectivity<D3>>, Arc<dyn Mapping<D3> + Send + Sync>) {
    let map: Arc<dyn Mapping<D3> + Send + Sync> =
        Arc::new(ShellMap::new(Arc::clone(&conn), 0.55, 1.0));
    (conn, map)
}

impl Recoverable for DeviceRecoverySetup {
    type Solver = (SeismicSolver, DeviceState);
    type Final = SeismicAttemptResult;

    fn build<C: Communicator>(&self, comm: &C) -> Self::Solver {
        let host = build_host(comm, &self.config);
        let dev = DeviceState::from_host(&host);
        (host, dev)
    }

    fn restore<C: Communicator>(
        &self,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<Self::Solver, CheckpointError> {
        let (conn, map) = geom(Arc::new(builders::shell24()));
        let host =
            SeismicSolver::restore(comm, conn, map, self.config.clone(), prem_like_at, segments)?;
        let dev = DeviceState::from_host(&host);
        Ok((host, dev))
    }

    fn checkpoint_segment(&self, solver: &Self::Solver, saved_ranks: usize) -> Vec<u8> {
        // `advance` mirrors the device state into the host after every
        // step, so the host checkpoint *is* the device checkpoint.
        solver.0.checkpoint_segment(saved_ranks)
    }

    fn units_done(&self, solver: &Self::Solver) -> usize {
        solver.0.timers.steps
    }

    fn total_units(&self) -> usize {
        self.steps
    }

    fn checkpoint_every(&self) -> usize {
        self.checkpoint_every
    }

    fn advance<C: Communicator>(&self, solver: &mut Self::Solver, comm: &C) {
        let (host, dev) = solver;
        dev.step(host, comm);
        dev.to_host(host);
    }

    fn finish<C: Communicator>(&self, solver: &Self::Solver, comm: &C) -> SeismicAttemptResult {
        let gathered = comm.allgatherv(&solver.0.q);
        SeismicAttemptResult {
            solution: gathered.into_iter().flatten().collect(),
            time: solver.0.time,
            steps: solver.0.timers.steps,
        }
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join("forust_device_chaos").join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn corrupt_and_crash_mid_device_step_recovers_within_bound() {
    const STEPS: usize = 6;
    const CKPT_EVERY: usize = 2;
    const RANKS: usize = 3;
    let config = SeismicConfig {
        degree: 2,
        min_level: 1,
        max_level: 1,
        ..Default::default()
    };

    // Fault-free device reference (no checkpoints).
    let setup = DeviceRecoverySetup {
        config: config.clone(),
        steps: STEPS,
        checkpoint_every: usize::MAX,
    };
    let ref_dir = tmpdir("reference");
    let s_ref = setup.clone();
    let opts = RecoveryOptions::default();
    let reference = run_spmd(RANKS, move |comm| attempt(comm, &s_ref, &ref_dir, &opts).0);
    assert!(
        reference[0].solution.iter().any(|&x| x != 0.0),
        "source never excited the device wavefield"
    );

    // f64 engine reference for the accuracy bound.
    let cfg = config.clone();
    let host_ref = run_spmd(RANKS, move |comm| {
        let mut s = build_host(comm, &cfg);
        for _ in 0..STEPS {
            s.step(comm);
        }
        comm.allgatherv(&s.q)
            .into_iter()
            .flatten()
            .collect::<Vec<f64>>()
    });
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&d, &h) in reference[0].solution.iter().zip(&host_ref[0]) {
        num = num.max((d - h).abs());
        den = den.max(h.abs());
    }
    let err = num / den.max(1e-300);
    assert!(
        err < DEVICE_REL_BOUND,
        "fault-free device run off the f64 reference by {err:.3e}"
    );

    // Calibration pass under a transparent ChaosComm: count comm calls
    // so the crash lands mid-run, past the first checkpoint.
    let calib_dir = tmpdir("calibration");
    let setup_ckpt = DeviceRecoverySetup {
        config,
        steps: STEPS,
        checkpoint_every: CKPT_EVERY,
    };
    let s_calib = setup_ckpt.clone();
    let opts = RecoveryOptions::default();
    let calib = run_spmd_with(
        RANKS,
        CommConfig::default(),
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        move |comm| (attempt(comm, &s_calib, &calib_dir, &opts).0, comm.calls()),
    );
    assert_eq!(calib[0].0.solution, reference[0].solution);

    // Chaos attempt: wire corruption throughout (healed in-band by the
    // reliable layer's CRC framing) plus a hard crash of rank 1 inside
    // a device step; the supervisor restarts on RANKS-1 ranks.
    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);
    let chaos_dir = tmpdir("chaos");
    let plan = FaultPlan::new(7)
        .with_corruption(0.02)
        .with_retransmit_corruption(0.0)
        .with_crash(1, at_call);
    let outcome = run_with_recovery(RANKS, RANKS - 1, Some(plan), &chaos_dir, &setup_ckpt, 4);

    assert!(
        outcome.injected_crash.is_some(),
        "the injected crash never fired"
    );
    assert!(outcome.attempts >= 2, "no restart happened");
    assert_eq!(outcome.result.steps, STEPS);
    assert_eq!(
        outcome.result.time.to_bits(),
        reference[0].time.to_bits(),
        "recovered time differs from fault-free device run"
    );
    // Replay from the checkpoint is bitwise: the f32 state round-trips
    // exactly through the f64 checkpoint.
    for (i, (a, b)) in outcome
        .result
        .solution
        .iter()
        .zip(&reference[0].solution)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "recovered device wavefield differs at dof {i}: {a} vs {b}"
        );
    }
}
