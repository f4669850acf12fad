//! Fault-tolerant execution of the advection experiment: periodic
//! checkpointing plus a restart driver that survives injected rank
//! crashes.
//!
//! The supervisor logic (`attempt`, `run_with_recovery`) lives in
//! `forust-resilience`; this module implements its [`Recoverable`]
//! contract for the advection dG solver. Because every quantity the
//! time loop evolves is either carried bitwise in the checkpoint
//! (solution, `time`, step count) or recomputed by an exact
//! deterministic reduction (`dt`), the recovered result is bitwise
//! identical to a fault-free run.
//!
//! On disk, checkpoints live in per-epoch subdirectories `epoch_<steps>`
//! of a root directory. A crash *during* a checkpoint leaves that epoch
//! invalid (missing segments, a CRC failure, or headers that disagree);
//! the restart scan simply falls back to the previous epoch.

use std::sync::Arc;

use forust::connectivity::Connectivity;
use forust::dim::D3;
use forust::forest::{CheckpointError, Forest};
use forust_comm::Communicator;
use forust_geom::Mapping;
use forust_resilience::Recoverable;

use crate::{AdvectConfig, AdvectSolver};

/// Everything needed to (re)build the experiment on any rank of any
/// attempt: plain function pointers so the setup is trivially shareable
/// across rank threads and restart attempts.
#[derive(Clone)]
pub struct RecoverySetup {
    /// Builds the domain connectivity.
    pub conn: fn() -> Connectivity<D3>,
    /// Builds the geometry mapping for that connectivity.
    pub map: fn(Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync>,
    /// Solver parameters.
    pub config: AdvectConfig,
    /// Initial condition.
    pub init: fn([f64; 3]) -> f64,
    /// Velocity field.
    pub velocity: fn([f64; 3]) -> [f64; 3],
    /// Total RK steps to take.
    pub steps: usize,
    /// Checkpoint after every this many steps.
    pub checkpoint_every: usize,
}

impl Recoverable for RecoverySetup {
    type Solver = AdvectSolver;

    fn build<C: Communicator>(&self, comm: &C) -> AdvectSolver {
        let conn = Arc::new((self.conn)());
        let map = (self.map)(Arc::clone(&conn));
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, self.config.initial_level);
        AdvectSolver::new(
            comm,
            forest,
            map,
            self.config.clone(),
            self.init,
            self.velocity,
        )
    }

    fn restore<C: Communicator>(
        &self,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<AdvectSolver, CheckpointError> {
        let conn = Arc::new((self.conn)());
        let map = (self.map)(Arc::clone(&conn));
        AdvectSolver::restore(
            comm,
            conn,
            map,
            self.config.clone(),
            self.velocity,
            segments,
        )
    }

    fn checkpoint_segment(&self, solver: &AdvectSolver, saved_ranks: usize) -> Vec<u8> {
        solver.checkpoint_segment(saved_ranks)
    }

    fn units_done(&self, solver: &AdvectSolver) -> usize {
        solver.timers.steps
    }

    fn total_units(&self) -> usize {
        self.steps
    }

    fn checkpoint_every(&self) -> usize {
        self.checkpoint_every
    }

    fn advance<C: Communicator>(&self, solver: &mut AdvectSolver, comm: &C) {
        solver.step(comm);
    }

    fn state(&self, solver: &AdvectSolver) -> (Vec<f64>, f64) {
        (solver.c.clone(), solver.time)
    }
}
