//! `advect_amr`: the paper's Fig. 5 run, adaptive dG advection of four
//! fronts on the 24-tree shell. An operation is one RK step; every
//! `ADAPT_EVERY` steps the harness calls `adapt` itself, so step and
//! adapt walls are timed apart.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver};
use forust_comm::{Communicator, ThreadComm};
use forust_geom::{Mapping, ShellMap};

use super::replay_dg;
use crate::harness::{timed, wall, Digest, Rec, Workload};

/// Steps between two adapts (the paper adapts every 32).
const ADAPT_EVERY: usize = 16;

/// The paper's fields with the axes cyclically permuted `k` times. The
/// shell and its 24 trees are symmetric under that rotation, so every
/// seed gives the same element counts and work.
fn permute(x: [f64; 3], k: usize) -> [f64; 3] {
    [x[k % 3], x[(k + 1) % 3], x[(k + 2) % 3]]
}

type Fields = (fn([f64; 3]) -> f64, fn([f64; 3]) -> [f64; 3]);

/// `c'(x) = c(Px)` and `u'(x) = P⁻¹ u(Px)` for the three cyclic `P`.
const FIELDS: [Fields; 3] = [
    (four_fronts, rotation_velocity),
    (
        |x| four_fronts(permute(x, 1)),
        |x| permute(rotation_velocity(permute(x, 1)), 2),
    ),
    (
        |x| four_fronts(permute(x, 2)),
        |x| permute(rotation_velocity(permute(x, 2)), 1),
    ),
];

pub struct AdvectAmr {
    config: AdvectConfig,
    fields: Fields,
    steps: usize,
}

impl AdvectAmr {
    pub fn new(seed: u64, quick: bool) -> Self {
        // max_level 3 → ≈3.8 K elements (1.9 K per rank; the paper ran
        // 3.2 K per core), ≈25 ms per step and ≈0.13 s per adapt.
        let (max_level, steps) = if quick { (2, 4) } else { (3, ADAPT_EVERY) };
        AdvectAmr {
            config: AdvectConfig {
                degree: 3,
                initial_level: 2,
                min_level: 1,
                max_level,
                // The harness drives adapt, so both walls are timed.
                adapt_every: usize::MAX,
                cfl: 0.4,
                refine_tol: 0.1,
                coarsen_tol: 0.05,
            },
            fields: FIELDS[(seed % 3) as usize],
            steps,
        }
    }

    fn adapt_every(&self) -> usize {
        ADAPT_EVERY.min(self.steps)
    }
}

pub struct State {
    solver: AdvectSolver,
    map: Arc<dyn Mapping<D3> + Send + Sync>,
    mass0: f64,
}

impl Workload for AdvectAmr {
    type State = State;

    fn setup(&self, comm: &ThreadComm, _: &mut Rec) -> State {
        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, self.config.initial_level);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let (init, velocity) = self.fields;
        let mut solver = AdvectSolver::new(
            comm,
            forest,
            Arc::clone(&map),
            self.config.clone(),
            init,
            velocity,
        );
        let mass0 = solver.total_mass(comm);
        // Cold step and cold adapt: sizes every lazily grown buffer.
        solver.step(comm);
        solver.adapt(comm);
        State { solver, map, mass0 }
    }

    fn run_ops(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec) {
        let s = &mut st.solver;
        let timers0 = s.timers;
        let (mut adapt_s, mut adapt_kelem) = (0.0, 0.0);
        for i in 1..=self.steps {
            let (elems, time0) = (s.num_global_elements(), s.time);
            let ((), dt) = timed("bench.step", || s.step(comm));
            rec.push("bench.step", dt);
            rec.op(dt, elems, s.time > time0);
            if i % self.adapt_every() == 0 {
                let kelem = s.num_global_elements() as f64 / 1e3;
                let ((), dt) = timed("bench.adapt", || s.adapt(comm));
                rec.push("bench.adapt", dt);
                rec.amr(dt);
                adapt_s += dt;
                adapt_kelem += kelem;
                rec.check(s.num_global_elements() > 0);
            }
        }
        let amr = (s.timers.amr - timers0.amr).as_secs_f64();
        let integrate = (s.timers.integrate - timers0.integrate).as_secs_f64();
        rec.set_max("advect.amr_s", amr);
        rec.set_max("advect.integrate_s", integrate);
        rec.set_max("advect.amr_share", amr / (amr + integrate));
        rec.set_max("advect.adapts", (s.timers.adapts - timers0.adapts) as f64);
        rec.set_max("advect.elements_end", s.num_global_elements() as f64);
        rec.set_max("adapt_ms_per_kelem", adapt_s * 1e3 / adapt_kelem);
    }

    fn check(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec, _deep: bool) {
        let s = &st.solver;
        let mut d = Digest::default();
        d.f64s(&s.c);
        d.word(s.time.to_bits());
        rec.digest = d.finish();
        let drift = ((s.total_mass(comm) - st.mass0) / st.mass0).abs();
        rec.set_max("advect.mass_drift", drift);
        rec.check(drift <= MASS_DRIFT_MAX);
        rec.check(s.c.iter().all(|v| v.is_finite()));
    }

    fn replay(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec) {
        let s = &st.solver;
        replay_dg(
            comm,
            rec,
            &s.forest,
            self.config.degree,
            &*st.map,
            &s.halo,
            &s.c,
            1,
        );
        let (blob, dt) = wall(|| s.checkpoint_segment(comm.size()));
        rec.set_max("resilience.checkpoint_s", dt);
        rec.set_sum("resilience.checkpoint_bytes", blob.len() as f64);
    }
}

/// Largest relative change of total mass over a round. The advective
/// volume form aliases on curved elements, so mass is conserved to
/// this, not to round-off.
const MASS_DRIFT_MAX: f64 = 1e-6;
