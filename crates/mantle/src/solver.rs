//! Picard + MINRES driver with interleaved dynamic AMR (paper §IV-A).

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use forust::connectivity::Connectivity;
use forust::dim::D3;
use forust::forest::{BalanceType, CheckpointError, Forest, SolverFormat};
use forust_comm::{nan_range, Communicator};
use forust_geom::Mapping;
use forust_resilience::{Carried, Recoverable};

use crate::fem::StokesFem;
use crate::rheology::RheologyParams;

/// Parameters of the mantle-flow experiment.
#[derive(Debug, Clone)]
pub struct MantleConfig {
    /// Rayleigh-number-like buoyancy scale.
    pub ra: f64,
    /// Rheology parameters.
    pub rheology: RheologyParams,
    /// Picard (lagged-viscosity) iterations.
    pub picard_iters: usize,
    /// Dynamic AMR every this many Picard iterations (2–8 in the paper).
    pub amr_every: usize,
    /// Maximum refinement level for dynamic AMR.
    pub max_level: u8,
    /// MINRES iteration cap per Stokes solve.
    pub minres_iters: usize,
    /// MINRES relative tolerance.
    pub minres_tol: f64,
}

impl Default for MantleConfig {
    fn default() -> Self {
        MantleConfig {
            ra: 1e4,
            rheology: RheologyParams::default(),
            picard_iters: 6,
            amr_every: 3,
            max_level: 3,
            minres_iters: 120,
            minres_tol: 1e-6,
        }
    }
}

/// Format of the solver's checkpoints: its magic and the 4 components ×
/// 8 corners of each element.
const CHECKPOINT: SolverFormat = SolverFormat {
    magic: 0x464f_5255_4d41_4e54, // "FORU MANT"
    per_element: 4 * 8,
};

/// Fig. 7's wall-time buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct MantleTimers {
    /// Solver operations excluding the preconditioner: residuals, Picard
    /// operator construction, Krylov matrix-vector products and inner
    /// products.
    pub solve: Duration,
    /// Preconditioner applications and the diagonal set-up (the row
    /// Fig. 7 labels "V-cycle").
    pub vcycle: Duration,
    /// AMR: error indicators, marking, refine/coarsen/balance/partition,
    /// node renumbering, field interpolation between meshes.
    pub amr: Duration,
    /// Total MINRES iterations across all Picard steps.
    pub krylov_iters: usize,
}

/// How one MINRES solve ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovOutcome {
    /// The residual estimate fell below `minres_tol` before the iteration
    /// cap (or the preconditioner losing positivity) ended the solve.
    pub converged: bool,
    /// Iterations taken.
    pub iters: usize,
    /// Final preconditioned residual norm relative to the initial one.
    pub rel_residual: f64,
}

/// The nonlinear mantle-flow solver.
pub struct MantleSolver {
    /// Parameters.
    pub config: MantleConfig,
    /// The adaptive forest.
    pub forest: Forest<D3>,
    /// FEM state on the current mesh.
    pub fem: StokesFem,
    map: Arc<dyn Mapping<D3> + Send + Sync>,
    /// Current solution `[u; p]`.
    pub x: Vec<f64>,
    /// Picard iterations completed so far (checkpoint epoch).
    pub picard_done: usize,
    /// Wall-time split (Fig. 7).
    pub timers: MantleTimers,
    /// Outcome of the latest Picard step's MINRES solve (`None` before
    /// the first). Also published as counter `mantle.krylov_not_converged`
    /// and gauge `mantle.krylov_rel_residual` (in units of 1e-12).
    pub last_krylov: Option<KrylovOutcome>,
}

impl MantleSolver {
    /// Build on an initial (typically temperature-pre-adapted) forest.
    pub fn new(
        comm: &impl Communicator,
        mut forest: Forest<D3>,
        map: Arc<dyn Mapping<D3> + Send + Sync>,
        config: MantleConfig,
    ) -> Self {
        // Static, data-adaptive refinement on temperature variation and
        // weak zones ("First, this initial mesh is coarsened and refined
        // based on temperature variations. Then, the mesh is refined ...
        // in the narrow low viscosity zones").
        let t0 = Instant::now();
        forest.refine(comm, true, |t, o| {
            if o.level >= config.max_level {
                return false;
            }
            // A NaN temperature leaves the octant as it is (unless weak).
            let mut temp = [0.0; 8];
            let mut weak = false;
            for (c, tv) in temp.iter_mut().enumerate() {
                let off = <D3 as forust::dim::Dim>::corner_offset(c);
                let xi = forust_geom::octant_ref_coords::<D3>(
                    o,
                    [off[0] as f64, off[1] as f64, off[2] as f64],
                );
                let x = map.map(t, xi);
                *tv = crate::rheology::synthetic_temperature(x);
                weak |= crate::rheology::plate_boundary_factor(&config.rheology, x) < 1.0;
            }
            weak || nan_range(temp) > 0.15
        });
        forest.balance(comm, BalanceType::Full);
        forest.partition(comm);
        let fem = StokesFem::build(&forest, comm, &map, &config.rheology);
        let x = vec![0.0; fem.vec_len()];
        let mut s = MantleSolver {
            config,
            forest,
            fem,
            map,
            x,
            picard_done: 0,
            timers: MantleTimers::default(),
            last_krylov: None,
        };
        s.timers.amr += t0.elapsed();
        s
    }

    /// Run the full nonlinear iteration with interleaved dynamic AMR.
    /// Returns the final velocity norm (diagnostic).
    pub fn solve(&mut self, comm: &impl Communicator) -> f64 {
        let _span = forust_obs::span!("mantle.solve");
        while self.picard_done < self.config.picard_iters {
            self.picard_step(comm);
        }
        self.solution_norm(comm)
    }

    /// One Picard (lagged-viscosity) iteration: refresh the viscosity from
    /// the current solution, rebuild the buoyancy RHS, solve with MINRES,
    /// and run dynamic AMR when the schedule says so. The cross-iteration
    /// state is exactly `(forest, x, picard_done)`, so checkpoints taken
    /// between calls restore bitwise.
    pub fn picard_step(&mut self, comm: &impl Communicator) {
        let it = self.picard_done;
        // Picard operator construction: refresh viscosity.
        let t0 = Instant::now();
        self.fem.update_viscosity(&self.config.rheology, &self.x);
        let b = self.fem.buoyancy_rhs(comm, self.config.ra);
        self.timers.solve += t0.elapsed();

        let outcome = self.minres(comm, &b);
        forust_obs::counter_add("mantle.krylov_not_converged", !outcome.converged as u64);
        let rel = (outcome.rel_residual * 1e12) as u64;
        forust_obs::gauge_set("mantle.krylov_rel_residual", rel);
        self.last_krylov = Some(outcome);

        if (it + 1) % self.config.amr_every == 0 && it + 1 < self.config.picard_iters {
            self.adapt(comm);
        }
        self.picard_done = it + 1;
        // The per-step time series treats one Picard iteration as a step
        // (the enclosing `mantle.solve` span is still open and excluded;
        // the closed inner spans and counters are sliced into deltas).
        forust_obs::step_mark(self.picard_done as u64);
    }

    /// Global solution norm `sqrt(<x, x>)` (diagnostic; bitwise
    /// rank-count-invariant through the exact reduction in `dot`).
    pub fn solution_norm(&self, comm: &impl Communicator) -> f64 {
        self.fem.dot(comm, &self.x, &self.x).sqrt()
    }

    /// Preconditioned MINRES on the saddle system.
    fn minres(&mut self, comm: &impl Communicator, b: &[f64]) -> KrylovOutcome {
        let t0 = Instant::now();
        let n = self.fem.vec_len();
        let (du, dp) = self.fem.preconditioner_diagonals(comm);
        self.timers.vcycle += t0.elapsed(); // setup cost bucket (small)

        // Paige–Saunders MINRES.
        let t_solve = Instant::now();
        let mut solve_time = Duration::ZERO;
        let mut vc_time = Duration::ZERO;

        let mut r1 = vec![0.0; n];
        self.fem.apply(comm, &self.x, &mut r1);
        for i in 0..n {
            r1[i] = b[i] - r1[i];
        }
        let mut z = vec![0.0; n];
        {
            let tv = Instant::now();
            apply_preconditioner(&du, &dp, &r1, &mut z);
            vc_time += tv.elapsed();
        }
        let mut beta1 = self.fem.dot(comm, &r1, &z);
        let mut outcome = KrylovOutcome {
            converged: beta1 == 0.0,
            iters: 0,
            rel_residual: 0.0,
        };
        if beta1 <= 0.0 {
            self.timers.solve += t_solve.elapsed();
            return outcome;
        }
        beta1 = beta1.sqrt();
        let tol = self.config.minres_tol * beta1;

        let (mut r2, mut y) = (r1.clone(), z.clone());
        let (mut w0, mut w1) = (vec![0.0; n], vec![0.0; n]);
        let (mut v, mut ay) = (vec![0.0; n], vec![0.0; n]);
        let (mut oldb, mut beta) = (0.0, beta1);
        let (mut dbar, mut epsln) = (0.0, 0.0);
        let (mut cs, mut sn) = (-1.0, 0.0);
        let mut phibar = beta1;

        for _ in 0..self.config.minres_iters {
            self.timers.krylov_iters += 1;
            outcome.iters += 1;
            // Lanczos step.
            let s = 1.0 / beta;
            for (vi, &yi) in v.iter_mut().zip(&y) {
                *vi = yi * s;
            }
            self.fem.apply(comm, &v, &mut ay);
            if oldb > 0.0 {
                let c = beta / oldb;
                for i in 0..n {
                    ay[i] -= c * r1[i];
                }
            }
            let alfa = self.fem.dot(comm, &v, &ay);
            {
                let c = alfa / beta;
                for i in 0..n {
                    ay[i] -= c * r2[i];
                }
            }
            // Rotate: r1 <- r2 <- ay; the old r1 is the next `ay`.
            std::mem::swap(&mut r1, &mut r2);
            std::mem::swap(&mut r2, &mut ay);
            {
                let tv = Instant::now();
                apply_preconditioner(&du, &dp, &r2, &mut y);
                vc_time += tv.elapsed();
            }
            oldb = beta;
            let bb = self.fem.dot(comm, &r2, &y);
            if bb < 0.0 {
                break; // preconditioner lost positivity (numerical)
            }
            beta = bb.sqrt();

            // Apply previous rotation.
            let oldeps = epsln;
            let delta = cs * dbar + sn * alfa;
            let gbar = sn * dbar - cs * alfa;
            epsln = sn * beta;
            dbar = -cs * beta;
            let gamma = (gbar * gbar + beta * beta).sqrt().max(1e-300);
            cs = gbar / gamma;
            sn = beta / gamma;
            let phi = cs * phibar;
            phibar *= sn;

            // Update solution.
            for i in 0..n {
                let wi = (v[i] - oldeps * w0[i] - delta * w1[i]) / gamma;
                w0[i] = w1[i];
                w1[i] = wi;
                self.x[i] += phi * wi;
            }
            if phibar < tol {
                outcome.converged = true;
                break;
            }
        }
        outcome.rel_residual = phibar / beta1;
        solve_time += t_solve.elapsed() - vc_time;
        self.timers.solve += solve_time;
        self.timers.vcycle += vc_time;
        outcome
    }

    /// Dynamic, solution-adaptive refinement: error indicators from strain
    /// rates and viscosity gradients (paper §IV-A), then rebuild the FEM
    /// state and re-project the velocity (restart pressure).
    pub fn adapt(&mut self, comm: &impl Communicator) {
        let _span = forust_obs::span!("mantle.adapt");
        let t0 = Instant::now();
        // Per-element indicator: range of log-viscosity over qps, NaN if
        // a qp's is. A NaN compares false against the threshold: that
        // element is not refined.
        let nel = self.fem.num_elements();
        let eta = &self.fem.eta_qp[..nel * 8];
        let ind: Vec<f64> = eta
            .chunks_exact(8)
            .map(|qp| nan_range(qp.iter().map(|v| v.ln())))
            .collect();
        let nonfinite = ind.iter().filter(|r| !r.is_finite()).count();
        forust_obs::counter_add("mantle.nonfinite_elements", nonfinite as u64);
        let map: std::collections::HashMap<(u32, u64, u8), f64> = self
            .forest
            .iter_local()
            .zip(&ind)
            .map(|((t, o), &v)| ((t, o.morton(), o.level), v))
            .collect();
        let max_level = self.config.max_level;
        self.forest.refine(comm, false, |t, o| {
            o.level < max_level && map.get(&(t, o.morton(), o.level)).copied().unwrap_or(0.0) > 1.0
        });
        self.forest.balance(comm, BalanceType::Full);
        self.forest.partition(comm);
        // Rebuild the FEM state; restart the solution (the next Picard
        // iteration rebuilds it from the refreshed viscosity — the paper
        // interpolates fields, which only shifts a negligible cost between
        // the AMR and solve buckets).
        self.fem = StokesFem::build(&self.forest, comm, &self.map, &self.config.rheology);
        self.x = vec![0.0; self.fem.vec_len()];
        self.timers.amr += t0.elapsed();
    }

    /// Flat per-element corner values of the solution, the checkpoint
    /// state: 4 components × 8 corners per element. Unlike the nodal
    /// vector `x`, this layout is independent of the rank count and global
    /// dof numbering (shared corners carry identical replicas of the nodal
    /// value), so gathered copies compare bitwise across partitions.
    pub fn corner_values(&self) -> Vec<f64> {
        let nn = self.fem.nn;
        (0..self.fem.num_elements())
            .flat_map(|e| {
                let el = self.fem.nodes.element(e);
                (0..4).flat_map(move |c| el.iter().map(move |&ni| self.x[c * nn + ni as usize]))
            })
            .collect()
    }
}

/// What a mantle run is built from on any rank of any attempt.
#[derive(Clone)]
pub struct MantleSpec {
    /// Builds the domain connectivity.
    pub conn: fn() -> Connectivity<D3>,
    /// Builds the geometry mapping for that connectivity.
    pub map: fn(Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync>,
    /// Solver parameters.
    pub config: MantleConfig,
    /// Level of the uniform forest the static refinement starts from.
    pub initial_level: u8,
}

/// One Picard iteration per unit. The cross-iteration state is exactly
/// `(forest, x, picard_done)`, carried as the per-element corner values
/// at time `0.0`; viscosity, the buoyancy RHS and the preconditioner are
/// rebuilt from it at the start of every iteration, and every
/// sum-reduction feeding the solver state goes through the exact
/// fixed-point path, so a restored solver — on any rank count —
/// continues bitwise identically to an uninterrupted run.
impl Recoverable for MantleSolver {
    type Spec = MantleSpec;

    fn build<C: Communicator>(spec: &MantleSpec, comm: &C) -> Self {
        let conn = Arc::new((spec.conn)());
        let map = (spec.map)(Arc::clone(&conn));
        let forest = Forest::<D3>::new_uniform(conn, comm, spec.initial_level);
        Self::new(comm, forest, map, spec.config.clone())
    }

    /// Shared corners are written once per element that holds them, all
    /// with the same value.
    fn restore<C: Communicator>(
        spec: &MantleSpec,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<Self, CheckpointError> {
        let conn = Arc::new((spec.conn)());
        let map = (spec.map)(Arc::clone(&conn));
        let config = spec.config.clone();
        let (forest, corners, meta) = Forest::from_segments(conn, comm, segments, CHECKPOINT)?;
        let fem = StokesFem::build(&forest, comm, &map, &config.rheology);
        let nn = fem.nn;
        let mut x = vec![0.0; fem.vec_len()];
        for (e, ch) in corners.chunks(CHECKPOINT.per_element).enumerate() {
            let el = fem.nodes.element(e);
            for c in 0..4 {
                for (j, &ni) in el.iter().enumerate() {
                    x[c * nn + ni as usize] = ch[c * el.len() + j];
                }
            }
        }
        Ok(MantleSolver {
            config,
            forest,
            fem,
            map,
            x,
            picard_done: meta.epoch as usize,
            timers: MantleTimers::default(),
            last_krylov: None,
        })
    }

    fn advance<C: Communicator>(&mut self, comm: &C) {
        self.picard_step(comm);
    }

    fn carried(&self) -> Carried<'_> {
        Carried {
            forest: &self.forest,
            format: CHECKPOINT,
            units: self.picard_done,
            time: 0.0,
            state: Cow::Owned(self.corner_values()),
        }
    }
}

/// Weight of the velocity block of the block-Jacobi preconditioner,
/// `z_u = ω r_u / diag(A)`. `2/3 + 0.8` is what the code this replaced
/// applied at its defaults (a damped Jacobi step plus two fixed
/// "smoothing sweeps" of the same diagonal), kept because plain `ω = 1`
/// measured 2–5 % worse residuals at the MINRES cap on `fig7_mantle_split`
/// (9.699e-2 / 1.006e-1 against 9.480e-2 / 9.525e-2). The multigrid
/// V-cycle that belongs here is the open ROADMAP mantle item.
const VELOCITY_JACOBI_WEIGHT: f64 = 2.0 / 3.0 + 0.8;

/// Block-Jacobi preconditioner: the weighted inverse diagonal of the
/// viscous block (`du`, 3 components) and the inverse diagonal of the
/// inverse-viscosity pressure mass (`dp`, the Schur approximation).
fn apply_preconditioner(du: &[f64], dp: &[f64], r: &[f64], z: &mut [f64]) {
    let (ru, rp) = r.split_at(du.len());
    let (zu, zp) = z.split_at_mut(du.len());
    for ((z, &r), &d) in zu.iter_mut().zip(ru).zip(du) {
        *z = VELOCITY_JACOBI_WEIGHT * r / d;
    }
    for ((z, &r), &d) in zp.iter_mut().zip(rp).zip(dp) {
        *z = r / d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust_comm::run_spmd;
    use forust_geom::ShellMap;

    #[test]
    fn stokes_solve_reduces_residual_and_flows() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::cubed_sphere());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
            let config = MantleConfig {
                picard_iters: 2,
                amr_every: 100,
                max_level: 1,
                minres_iters: 60,
                minres_tol: 1e-4,
                ..Default::default()
            };
            let mut s = MantleSolver::new(comm, forest, map, config);
            let unorm = s.solve(comm);
            assert!(unorm > 0.0, "no flow developed");
            assert!(s.timers.krylov_iters > 0);
            // Residual check: ||b - Ax|| well below ||b||.
            let b = s.fem.buoyancy_rhs(comm, s.config.ra);
            let mut ax = vec![0.0; s.fem.vec_len()];
            s.fem.apply(comm, &s.x, &mut ax);
            let mut r = b.clone();
            for i in 0..r.len() {
                r[i] -= ax[i];
            }
            let rn = s.fem.dot(comm, &r, &r).sqrt();
            let bn = s.fem.dot(comm, &b, &b).sqrt();
            assert!(rn < 0.7 * bn, "MINRES made no progress: {rn} vs {bn}");
            // Same solve, fewer parts: the values the sweeps + power-iteration
            // preconditioner produced at its defaults, before it became one
            // weight. An edit of `VELOCITY_JACOBI_WEIGHT` shows up here.
            let k = s.last_krylov.expect("a Picard step records its outcome");
            let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want;
            assert!(close(k.rel_residual, 0.16014301137923476), "{k:?}");
            assert!(close(unorm, 1294.9270993977134), "norm {unorm:?}");
        });
    }

    #[test]
    fn krylov_outcome_says_whether_minres_converged() {
        run_spmd(1, |comm| {
            let outcome = |minres_iters: usize, minres_tol: f64| {
                let conn = Arc::new(builders::cubed_sphere());
                let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
                let map: Arc<dyn Mapping<D3> + Send + Sync> =
                    Arc::new(ShellMap::new(conn, 0.55, 1.0));
                let config = MantleConfig {
                    max_level: 1,
                    minres_iters,
                    minres_tol,
                    ..Default::default()
                };
                let mut s = MantleSolver::new(comm, forest, map, config);
                assert_eq!(s.last_krylov, None);
                s.picard_step(comm);
                s.last_krylov.expect("a Picard step records its outcome")
            };
            // Hits the cap: says so, and reports where it stopped.
            let capped = outcome(5, 1e-12);
            assert!(!capped.converged);
            assert_eq!(capped.iters, 5);
            assert!(capped.rel_residual > 1e-12 && capped.rel_residual < 1.0);
            // A tolerance the residual does reach.
            let loose = outcome(60, 0.5);
            assert!(loose.converged, "{loose:?}");
            assert!(loose.iters < 60 && loose.rel_residual < 0.5);
        });
    }

    #[test]
    fn amr_interleaves_and_timers_split() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::cubed_sphere());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
            let config = MantleConfig {
                picard_iters: 4,
                amr_every: 2,
                max_level: 2,
                minres_iters: 30,
                minres_tol: 1e-3,
                ..Default::default()
            };
            let mut s = MantleSolver::new(comm, forest, map, config);
            let n0 = s.forest.num_global();
            s.solve(comm);
            // Dynamic AMR ran at least once and the mesh grew near the
            // weak zones.
            assert!(s.forest.num_global() >= n0);
            let t = s.timers;
            assert!(t.solve + t.vcycle > Duration::ZERO);
            assert!(t.krylov_iters >= 30);
        });
    }

    #[test]
    fn nan_element_is_not_refined() {
        // Log-viscosity is flat everywhere but in two elements on rank 1
        // of 2: both span 3 over their qps, and the first also holds a NaN
        // qp. Its indicator is NaN, so only the second is refined, and
        // the first is counted.
        run_spmd(2, |comm| {
            forust_obs::install(comm.rank());
            let conn = Arc::new(builders::cubed_sphere());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
            let config = MantleConfig {
                max_level: 1,
                ..Default::default()
            };
            let mut s = MantleSolver::new(comm, forest, map, config);
            s.config.max_level = 2;
            let n0 = s.forest.num_global();
            s.fem.eta_qp.fill(1.0);
            let mut poisoned = Vec::new();
            if comm.rank() == 1 {
                let (t, o) = s.forest.iter_local().next().expect("rank 1 owns elements");
                poisoned.push((t, o.morton(), o.level));
                let eta = &mut s.fem.eta_qp;
                (eta[1], eta[2], eta[9]) = (3f64.exp(), f64::NAN, 3f64.exp());
            }
            s.adapt(comm);
            let report = forust_obs::uninstall().expect("recorder installed above");
            let counted = report
                .counters
                .iter()
                .find(|(n, _)| n == "mantle.nonfinite_elements")
                .map_or(0, |c| c.1);
            assert_eq!(counted, comm.rank() as u64, "rank {}", comm.rank());
            let key = comm.allgatherv(&poisoned).concat()[0];
            let kept = s
                .forest
                .iter_local()
                .filter(|(t, o)| (*t, o.morton(), o.level) == key)
                .count();
            assert_eq!(
                comm.allreduce_sum_u64(kept as u64),
                1,
                "NaN element refined"
            );
            assert_eq!(s.forest.num_global(), n0 + 7);
        });
    }
}
