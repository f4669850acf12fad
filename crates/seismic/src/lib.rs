//! # forust-seismic — global seismic wave propagation (dGea analogue)
//!
//! Paper §IV-B: elastic waves through heterogeneous media in velocity–
//! strain form (eqs. 3a/3b), discretized with high-order nodal dG and the
//! five-stage fourth-order low-storage RK scheme; the mesh is adapted
//! *before* the solve so element sizes track the local minimum seismic
//! wavelength of a PREM-like earth model ("at least 10 points per
//! wavelength"), which the paper credits with orders-of-magnitude
//! reductions in unknowns.
//!
//! - [`model`]: the PREM-like radial earth model and the Ricker source;
//! - [`solver`]: the wavelength-meshing + dG elastic solver, with the
//!   meshing-vs-wave-propagation wall-time split of Fig. 9 and the
//!   hand-counted flop totals behind the paper's Tflops column;
//! - [`device`]: the single-precision "GPU" backend substitute of Fig. 10
//!   (see DESIGN.md §3 for the substitution argument).

pub mod device;
pub mod model;
pub mod solver;

pub use device::DeviceState;
pub use model::{plane_wave_state, prem_like, prem_like_at, ricker, Material};
pub use solver::{SeismicConfig, SeismicSolver, SeismicSpec, SeismicTimers, NCOMP};
