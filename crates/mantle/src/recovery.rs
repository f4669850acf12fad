//! Fault-tolerant execution of the mantle-flow experiment: the
//! [`Recoverable`] contract of `forust-resilience` implemented for the
//! Picard/MINRES Stokes solver, one Picard iteration per unit.
//!
//! The cross-iteration state is exactly `(forest, x, picard_done)`;
//! viscosity, the buoyancy RHS, and the preconditioner are rebuilt from
//! it at the start of every iteration, and every sum-reduction feeding
//! the solver state goes through the exact fixed-point path, so a run
//! recovered from a checkpoint — on any rank count — finishes bitwise
//! identical to a fault-free run.

use std::sync::Arc;

use forust::connectivity::Connectivity;
use forust::dim::D3;
use forust::forest::{CheckpointError, Forest};
use forust_comm::Communicator;
use forust_geom::Mapping;
use forust_resilience::Recoverable;

use crate::solver::{MantleConfig, MantleSolver};

/// Everything needed to (re)build the experiment on any rank of any
/// attempt.
#[derive(Clone)]
pub struct MantleRecoverySetup {
    /// Builds the domain connectivity.
    pub conn: fn() -> Connectivity<D3>,
    /// Builds the geometry mapping for that connectivity.
    pub map: fn(Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync>,
    /// Solver parameters (`picard_iters` is the unit count).
    pub config: MantleConfig,
    /// Level of the uniform forest the static refinement starts from.
    pub initial_level: u8,
    /// Checkpoint after every this many Picard iterations.
    pub checkpoint_every: usize,
}

/// What one completed run produced (gathered redundantly on all ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct MantleAttemptResult {
    /// Global per-element corner solution values in SFC element order
    /// (rank-count-invariant layout; see `MantleSolver::corner_values`).
    pub solution: Vec<f64>,
    /// Final solution norm (exact reduction, bitwise invariant).
    pub norm: f64,
    /// Picard iterations completed in total.
    pub iters: usize,
}

impl Recoverable for MantleRecoverySetup {
    type Solver = MantleSolver;
    type Final = MantleAttemptResult;

    fn build<C: Communicator>(&self, comm: &C) -> MantleSolver {
        let conn = Arc::new((self.conn)());
        let map = (self.map)(Arc::clone(&conn));
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, self.initial_level);
        MantleSolver::new(comm, forest, map, self.config.clone())
    }

    fn restore<C: Communicator>(
        &self,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<MantleSolver, CheckpointError> {
        let conn = Arc::new((self.conn)());
        let map = (self.map)(Arc::clone(&conn));
        MantleSolver::restore(comm, conn, map, self.config.clone(), segments)
    }

    fn checkpoint_segment(&self, solver: &MantleSolver, saved_ranks: usize) -> Vec<u8> {
        solver.checkpoint_segment(saved_ranks)
    }

    fn units_done(&self, solver: &MantleSolver) -> usize {
        solver.picard_done
    }

    fn total_units(&self) -> usize {
        self.config.picard_iters
    }

    fn checkpoint_every(&self) -> usize {
        self.checkpoint_every
    }

    fn advance<C: Communicator>(&self, solver: &mut MantleSolver, comm: &C) {
        solver.picard_step(comm);
    }

    fn finish<C: Communicator>(&self, solver: &MantleSolver, comm: &C) -> MantleAttemptResult {
        // Ranks own contiguous SFC intervals, so concatenating the
        // gathered per-element corner values yields the global solution
        // in SFC element order, independent of the partition.
        let gathered = comm.allgatherv(&solver.corner_values());
        MantleAttemptResult {
            solution: gathered.into_iter().flatten().collect(),
            norm: solver.solution_norm(comm),
            iters: solver.picard_done,
        }
    }
}
