//! `mantle_picard`: the paper's Fig. 7 solve, Picard iterations of the
//! variable-viscosity Stokes system (trilinear cG, MINRES, Chebyshev
//! V-cycle stand-in) with dynamic AMR every second iteration. An
//! operation is one `picard_step`.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::ThreadComm;
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{MantleConfig, MantleSolver};

use crate::harness::{timed, Digest, Rec, Rng, Workload};

pub struct MantlePicard {
    config: MantleConfig,
    base_level: u8,
    steps: usize,
}

impl MantlePicard {
    /// The seed scales the Rayleigh number by up to ±5 %: the same mesh
    /// and iteration counts on different values.
    pub fn new(seed: u64, quick: bool) -> Self {
        // Level 2 refined to 3 → 1728 elements, 7352 unknowns, ≈0.25 s
        // per Picard step (MINRES runs to its 150-iteration cap).
        let (base_level, max_level, minres_iters, steps) =
            if quick { (1, 2, 30, 2) } else { (2, 3, 150, 4) };
        MantlePicard {
            config: MantleConfig {
                ra: 1e4 * (1.0 + 0.05 * Rng(seed).signed_unit()),
                // Never reached: the harness counts the steps.
                picard_iters: usize::MAX,
                amr_every: 2,
                max_level,
                minres_iters,
                minres_tol: 1e-5,
                ..Default::default()
            },
            base_level,
            steps,
        }
    }
}

impl Workload for MantlePicard {
    type State = MantleSolver;

    fn setup(&self, comm: &ThreadComm, _: &mut Rec) -> MantleSolver {
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, self.base_level);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let mut s = MantleSolver::new(comm, forest, map, self.config.clone());
        // Cold step (no AMR falls on it: amr_every is 2).
        s.picard_step(comm);
        s
    }

    fn run_ops(&self, s: &mut MantleSolver, comm: &ThreadComm, rec: &mut Rec) {
        let timers0 = s.timers;
        for _ in 0..self.steps {
            let (elems, amr0, done0) = (s.forest.num_global(), s.timers.amr, s.picard_done);
            let ((), dt) = timed("bench.picard_step", || s.picard_step(comm));
            rec.push("bench.picard_step", dt);
            // The operation proper excludes the AMR that rides on every
            // second step (zero on the others).
            let amr = (s.timers.amr - amr0).as_secs_f64();
            rec.op(dt - amr, elems, s.picard_done > done0);
            rec.amr(amr);
        }
        let steps = self.steps as f64;
        let per_step = |d: std::time::Duration| d.as_secs_f64() / steps;
        rec.set_max("mantle.solve_s", per_step(s.timers.solve - timers0.solve));
        rec.set_max(
            "mantle.vcycle_s",
            per_step(s.timers.vcycle - timers0.vcycle),
        );
        rec.set_max("mantle.amr_s", per_step(s.timers.amr - timers0.amr));
        rec.set_max("mantle.unknowns", s.fem.num_global_unknowns() as f64);
        let iters = (s.timers.krylov_iters - timers0.krylov_iters) as f64;
        rec.set_max("krylov_iters_per_picard", iters / steps);
    }

    fn check(&self, s: &mut MantleSolver, comm: &ThreadComm, rec: &mut Rec, _deep: bool) {
        let mut d = Digest::default();
        d.f64s(&s.x);
        d.word(s.forest.num_global());
        rec.digest = d.finish();
        let norm = s.solution_norm(comm);
        rec.set_max("mantle.solution_norm", norm);
        rec.check(norm.is_finite() && norm > 0.0);
    }

    fn replay(&self, _: &mut MantleSolver, _: &ThreadComm, _: &mut Rec) {}
}
