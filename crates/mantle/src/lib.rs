//! # forust-mantle — global mantle convection with nonlinear rheology
//!
//! The Rhea analogue (paper §IV-A): instantaneous global mantle flow
//! driven by a synthetic present-day temperature field, with a nonlinear
//! (strain-rate- and temperature-dependent, yielding) rheology and narrow
//! plate-boundary weak zones whose viscosity is reduced by five orders of
//! magnitude. Velocity and pressure are discretized with equal-order
//! trilinear elements on the 24-octree shell, stabilized with the
//! polynomial pressure projection of Dohrmann & Bochev (paper ref. \[40\]);
//! the nonlinear problem is solved by Picard (lagged-viscosity) iterations,
//! each requiring an implicit variable-viscosity Stokes solve by MINRES
//! preconditioned with weighted block Jacobi: the inverse diagonal of the
//! viscous block (where the paper runs an ML algebraic-multigrid V-cycle,
//! not substituted yet — DESIGN.md §3) and an inverse-viscosity mass
//! approximation of the pressure Schur complement.
//!
//! Dynamic AMR is interleaved with the nonlinear iteration exactly as the
//! paper describes: error indicators built from strain rate and viscosity
//! gradients drive refinement every few Picard iterations, and the wall
//! time is split into the three buckets of Fig. 7 — `solve`, `vcycle`
//! (the preconditioner and its diagonal set-up), and `amr`.

mod fem;
mod rheology;
mod solver;

pub use fem::StokesFem;
pub use rheology::{plate_boundary_factor, synthetic_temperature, viscosity, RheologyParams};
pub use solver::{KrylovOutcome, MantleConfig, MantleSolver, MantleSpec, MantleTimers};
