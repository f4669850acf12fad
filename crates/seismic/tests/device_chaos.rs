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
use forust::forest::CheckpointError;
use forust_comm::{run_spmd, run_spmd_with, ChaosComm, Communicator, FaultPlan};
use forust_geom::{Mapping, ShellMap};
use forust_resilience::{attempt, run_with_recovery, Carried, Recoverable, Run, Store};
use forust_seismic::{prem_like_at, DeviceState, SeismicConfig, SeismicSolver, SeismicSpec};

/// Documented device error bound, as in `device_accuracy.rs`.
const DEVICE_REL_BOUND: f64 = 2e-4;

/// A seismic run whose time stepping happens on the f32 device tier.
struct Device(SeismicSolver, DeviceState);

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn spec(config: SeismicConfig) -> SeismicSpec {
    SeismicSpec {
        conn: builders::shell24,
        map: build_map,
        config,
        model: prem_like_at,
    }
}

impl Recoverable for Device {
    type Spec = SeismicSpec;

    fn build<C: Communicator>(spec: &SeismicSpec, comm: &C) -> Self {
        let host = SeismicSolver::build(spec, comm);
        let dev = DeviceState::from_host(&host);
        Device(host, dev)
    }

    fn restore<C: Communicator>(
        spec: &SeismicSpec,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<Self, CheckpointError> {
        let host = SeismicSolver::restore(spec, comm, segments)?;
        let dev = DeviceState::from_host(&host);
        Ok(Device(host, dev))
    }

    fn advance<C: Communicator>(&mut self, comm: &C, _last: bool) {
        let Device(host, dev) = self;
        dev.step(host, comm);
        dev.to_host(host);
    }

    fn carried(&self) -> Carried<'_> {
        // `advance` mirrors the device state into the host after every
        // step, so the host checkpoint *is* the device checkpoint.
        self.0.carried()
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
    let s = spec(config);
    let ref_run = Run::new(RANKS, STEPS, Store::Disk(tmpdir("reference")));
    let reference = run_spmd(RANKS, |comm| attempt::<Device>(comm, &s, &ref_run).0);
    assert!(
        reference[0].solution.iter().any(|&x| x != 0.0),
        "source never excited the device wavefield"
    );

    // f64 engine reference for the accuracy bound.
    let host_ref = run_spmd(RANKS, |comm| {
        let mut host = SeismicSolver::build(&s, comm);
        for _ in 0..STEPS {
            host.step(comm);
        }
        comm.allgatherv(&host.q)
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
    let calib_run = Run {
        checkpoint_every: CKPT_EVERY,
        ..Run::new(RANKS, STEPS, Store::Disk(tmpdir("calibration")))
    };
    let calib = run_spmd_with(
        RANKS,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        |comm| (attempt::<Device>(comm, &s, &calib_run).0, comm.calls()),
    );
    assert_eq!(calib[0].0.solution, reference[0].solution);

    // Chaos attempt: wire corruption throughout (healed in-band by the
    // reliable layer's CRC framing) plus a hard crash of rank 1 inside
    // a device step; the supervisor restarts on RANKS-1 ranks.
    let at_call = calib[1].1 * 3 / 5;
    assert!(at_call > 0);
    let plan = FaultPlan::new(7)
        .with_corruption(0.02)
        .with_retransmit_corruption(0.0)
        .with_crash(1, at_call);
    let run = Run {
        restart_ranks: RANKS - 1,
        plan: Some(plan),
        max_attempts: 4,
        store: Store::Disk(tmpdir("chaos")),
        ..calib_run
    };
    let outcome = run_with_recovery::<Device>(&s, &run);

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
