//! Fault-tolerant execution of the seismic wave experiment: the
//! [`Recoverable`] contract of `forust-resilience` implemented for the
//! elastic dG solver.
//!
//! The cross-step state is exactly `(forest, q, time, steps)`; everything
//! else (mesh, metric terms, material, `dt`) is a deterministic function
//! of the forest and configuration, so a run recovered from a checkpoint
//! — on any rank count — finishes bitwise identical to a fault-free run.

use std::sync::Arc;

use forust::connectivity::Connectivity;
use forust::dim::D3;
use forust::forest::{CheckpointError, Forest};
use forust_comm::Communicator;
use forust_geom::Mapping;
use forust_resilience::Recoverable;

use crate::model::Material;
use crate::solver::{SeismicConfig, SeismicSolver};

/// Everything needed to (re)build the experiment on any rank of any
/// attempt: plain function pointers so the setup is trivially shareable
/// across rank threads and restart attempts.
#[derive(Clone)]
pub struct SeismicRecoverySetup {
    /// Builds the domain connectivity.
    pub conn: fn() -> Connectivity<D3>,
    /// Builds the geometry mapping for that connectivity.
    pub map: fn(Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync>,
    /// Solver parameters.
    pub config: SeismicConfig,
    /// The material model.
    pub model: fn([f64; 3]) -> Material,
    /// Total RK steps to take.
    pub steps: usize,
    /// Checkpoint after every this many steps.
    pub checkpoint_every: usize,
}

/// What one completed run produced (gathered redundantly on all ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct SeismicAttemptResult {
    /// The global state vector in SFC element order.
    pub solution: Vec<f64>,
    /// Final simulated time.
    pub time: f64,
    /// Steps taken in total (including steps replayed from a restart).
    pub steps: usize,
}

impl Recoverable for SeismicRecoverySetup {
    type Solver = SeismicSolver;
    type Final = SeismicAttemptResult;

    fn build<C: Communicator>(&self, comm: &C) -> SeismicSolver {
        let conn = Arc::new((self.conn)());
        let map = (self.map)(Arc::clone(&conn));
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, self.config.min_level);
        SeismicSolver::new(comm, forest, map, self.config.clone(), self.model)
    }

    fn restore<C: Communicator>(
        &self,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<SeismicSolver, CheckpointError> {
        let conn = Arc::new((self.conn)());
        let map = (self.map)(Arc::clone(&conn));
        SeismicSolver::restore(comm, conn, map, self.config.clone(), self.model, segments)
    }

    fn checkpoint_segment(&self, solver: &SeismicSolver, saved_ranks: usize) -> Vec<u8> {
        solver.checkpoint_segment(saved_ranks)
    }

    fn units_done(&self, solver: &SeismicSolver) -> usize {
        solver.timers.steps
    }

    fn total_units(&self) -> usize {
        self.steps
    }

    fn checkpoint_every(&self) -> usize {
        self.checkpoint_every
    }

    fn advance<C: Communicator>(&self, solver: &mut SeismicSolver, comm: &C) {
        solver.step(comm);
    }

    fn finish<C: Communicator>(&self, solver: &SeismicSolver, comm: &C) -> SeismicAttemptResult {
        // Ranks own contiguous SFC intervals, so concatenating the
        // gathered per-rank fields yields the global state in SFC
        // element order.
        let gathered = comm.allgatherv(&solver.q);
        SeismicAttemptResult {
            solution: gathered.into_iter().flatten().collect(),
            time: solver.time,
            steps: solver.timers.steps,
        }
    }
}
