//! `seismic_host` and `seismic_device`: elastic waves through the
//! PREM-like shell on a static wavelength-adapted mesh, once through the
//! f64 host engine on the worker pool (Fig. 9) and once through the f32
//! lane-batched device tier (Fig. 10). An operation is one RK step.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::ThreadComm;
use forust_geom::{Mapping, ShellMap};
use forust_seismic::{prem_like_at, DeviceState, SeismicConfig, SeismicSolver, NCOMP};

use super::replay_dg;
use crate::harness::{timed, wall, Digest, Rec, Rng, Workload};
use crate::stats::median;

/// Steps of both tiers compared in the device accuracy check, and the
/// largest relative L∞ difference allowed after them.
const ACCURACY_STEPS: usize = 4;
const DEVICE_REL_ERR_MAX: f64 = 2e-4;

/// Steps per pool width in the `pool.speedup_w2` replay.
const SPEEDUP_STEPS: usize = 8;

pub struct Seismic {
    config: SeismicConfig,
    device: bool,
    steps: usize,
}

impl Seismic {
    /// The seed places the source: a point on the sphere of radius 0.9
    /// and a force direction. The mesh follows the material model only,
    /// so every seed does the same work on different values.
    fn new(seed: u64, device: bool, degree: usize, f0: f64, max_level: u8, steps: usize) -> Self {
        let mut rng = Rng(seed);
        Seismic {
            config: SeismicConfig {
                degree,
                min_level: 1,
                max_level,
                f0,
                ppw: 6.0,
                src: rng.unit_vector().map(|x| 0.9 * x),
                src_dir: rng.unit_vector(),
                ..Default::default()
            },
            device,
            steps,
        }
    }

    /// Degree 6 (Fig. 9's order): 192 elements, 0.6 M unknowns, ≈50 ms
    /// per step on two workers.
    pub fn host(seed: u64, quick: bool) -> Self {
        let (f0, steps) = if quick { (2.0, 3) } else { (4.0, 8) };
        Self::new(seed, false, 6, f0, 3, steps)
    }

    /// Degree 3: 1032 elements with 2:1 mortar faces, ≈65 ms per step.
    pub fn device(seed: u64, quick: bool) -> Self {
        let (f0, steps) = if quick { (2.0, 3) } else { (4.0, 6) };
        Self::new(seed, true, 3, f0, 3, steps)
    }

    fn build_host(&self, comm: &ThreadComm) -> (SeismicSolver, Arc<dyn Mapping<D3> + Send + Sync>) {
        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, self.config.min_level);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let solver = SeismicSolver::new(
            comm,
            forest,
            Arc::clone(&map),
            self.config.clone(),
            prem_like_at,
        );
        (solver, map)
    }
}

pub struct State {
    host: SeismicSolver,
    dev: Option<DeviceState>,
    map: Arc<dyn Mapping<D3> + Send + Sync>,
}

impl State {
    fn step(&mut self, comm: &ThreadComm) {
        match &mut self.dev {
            Some(dev) => dev.step(&self.host, comm),
            None => self.host.step(comm),
        }
    }

    fn time(&self) -> f64 {
        self.dev.as_ref().map_or(self.host.time, |d| d.time)
    }
}

impl Workload for Seismic {
    type State = State;

    fn setup(&self, comm: &ThreadComm, rec: &mut Rec) -> State {
        let (host, map) = self.build_host(comm);
        rec.set_max("seismic.meshing_s", host.timers.meshing.as_secs_f64());
        let dev = self.device.then(|| {
            let (dev, dt) = wall(|| DeviceState::from_host(&host));
            rec.set_max("seismic.device_transfer_s", dt);
            rec.set_sum("seismic.device_transfer_bytes", dev.transfer_bytes() as f64);
            dev
        });
        let mut st = State { host, dev, map };
        // Cold step: sizes the stage buffer and the per-lane scratch.
        st.step(comm);
        st
    }

    fn run_ops(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec) {
        let elems = st.host.forest.num_global();
        for _ in 0..self.steps {
            let time0 = st.time();
            let ((), dt) = timed("bench.step", || st.step(comm));
            rec.push("bench.step", dt);
            rec.op(dt, elems, st.time() > time0);
        }
        // Hand-counted flops and computed bytes of one step, all ranks:
        // per stage the RHS reads the state, 9 metric terms, the Jacobian
        // and 3 material values per node and writes the stage vector;
        // the RK update reads three vectors and writes two.
        let unknowns = st.host.num_global_unknowns() as f64;
        let (stages, value_bytes) = (5.0, if self.device { 4.0 } else { 8.0 });
        let per_unknown = 2.0 + 5.0 + 13.0 / NCOMP as f64;
        rec.set_sum("dg.flops_per_step", st.host.flops_per_step() as f64);
        rec.set_max(
            "dg.bytes_per_step",
            stages * per_unknown * unknowns * value_bytes,
        );
        rec.set_max("dg.bytes_per_value", value_bytes);
    }

    fn check(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec, deep: bool) {
        let mut d = Digest::default();
        match &st.dev {
            Some(dev) => dev.state_bits().iter().for_each(|&b| d.word(u64::from(b))),
            None => d.f64s(&st.host.q),
        }
        d.word(st.time().to_bits());
        rec.digest = d.finish();
        match &st.dev {
            Some(dev) => {
                rec.set_sum(
                    "seismic.device_transfer_grow",
                    dev.transfer_grow_events() as f64,
                );
                rec.check(dev.state_f64().iter().all(|v| v.is_finite()));
            }
            None => {
                let energy = st.host.energy(comm);
                rec.set_max("seismic.energy", energy);
                rec.check(energy.is_finite() && energy >= 0.0);
                rec.check(st.host.q.iter().all(|v| v.is_finite()));
            }
        }
        if deep && self.device {
            // Both tiers from rest on the same mesh: the round's host
            // solver has not stepped, only its device copy has.
            let host = &mut st.host;
            let mut dev = DeviceState::from_host(host);
            for _ in 0..ACCURACY_STEPS {
                dev.step(host, comm);
                host.step(comm);
            }
            let err = dev.rel_error_vs_host(host, comm);
            rec.set_max("seismic.device_rel_err", err);
            rec.check(err <= DEVICE_REL_ERR_MAX);
        }
    }

    fn replay(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec) {
        let s = &st.host;
        replay_dg(
            comm,
            rec,
            &s.forest,
            self.config.degree,
            &*st.map,
            &s.halo,
            &s.q,
            NCOMP,
        );
        if self.device {
            // The device lane's wire size replaces the f64 figure above.
            rec.values.remove("dg.halo_bytes_per_exchange");
            rec.set_sum(
                "dg.halo_bytes_per_exchange",
                s.halo.send_bytes_per_exchange_f32(NCOMP) as f64,
            );
            return;
        }
        // The plain single-thread baseline of the same steps.
        let mut width_median = |width: usize| {
            forust_pool::set_worker_override(Some(width));
            let walls: Vec<f64> = (0..=SPEEDUP_STEPS)
                .map(|_| wall(|| st.host.step(comm)).1)
                .collect();
            // The first step at a new width rebuilds the pool and scratch.
            median(&walls[1..])
        };
        let (w1, w2) = (width_median(1), width_median(2));
        rec.set_max("pool.speedup_w2", w1 / w2);
    }
}
