//! # forust-dg — high-order cG/dG machinery on forest meshes (`mangll`)
//!
//! The paper's `mangll` library "provides the functions needed to
//! discretize PDEs using this mesh structure created by p4est" (§II-E):
//! construction of high-order element shape functions and quadrature rules,
//! numerical integration, high-order interpolation on hanging faces and
//! edges, and parallel scatter-gather for shared unknowns. This crate is
//! its analogue:
//!
//! - [`legendre`]: Legendre polynomials, LGL nodes/weights, Lagrange bases;
//! - [`matrix`]: small dense operators;
//! - [`element`]: the tensor-product reference element with sum-factorized
//!   operator application and 2:1 half-interval interpolation;
//! - [`faceop`]: structured face operators — a face is an orientation
//!   index plus, across a 2:1 face, two half-interval selectors; applied
//!   as an index gather and two tensor sweeps, never as a dense matrix;
//! - [`lserk`]: the five-stage fourth-order low-storage Runge–Kutta scheme
//!   used by every time-dependent solver in the paper;
//! - [`stepper`]: the one split-phase dG driver — LSERK stages, halo
//!   `begin → interior sweep → finish → boundary sweep → update` on the
//!   worker pool, per-lane workspaces — that every solver tier, f64 host
//!   or f32 device, plugs an element [`RhsKernel`] into;
//! - [`mesh`]: the dG element mesh extracted from a balanced forest and its
//!   ghost layer — neighbor classification per face (conforming, 2:1
//!   mortar, inter-tree with rotation) and ghost field exchange;
//! - [`halo`]: the split-phase, face-trace-only ghost exchange — restricts
//!   mirror payloads to the dofs actually read across the partition
//!   boundary and overlaps the messages with interior element work; one
//!   implementation generic over the wire precision ([`HaloLane`]);
//! - [`kernels`]: the allocation-free, degree-specialized sum-factorization
//!   engine behind the solvers' RHS hot loops — axis-specialized operator
//!   sweeps, const-generic instances for the paper's production degrees,
//!   multi-field batching and the reusable [`KernelWorkspace`] scratch
//!   arena (with `element::RefElement::apply_axis` kept as the bitwise
//!   test oracle);
//! - [`real`]: the precision tier seam — the [`Real`] scalar trait with
//!   the bitwise-pinned `f64` host tier and the `f32` device tier, which
//!   runs the same kernels (Fig. 10 analogue);
//! - [`cg`]: continuous-Galerkin hanging-node interpolation built on
//!   `forust`'s `Nodes`.

pub mod cg;
pub mod element;
pub mod faceop;
pub mod geometry;
pub mod halo;
pub mod kernels;
pub mod legendre;
pub mod lserk;
pub mod matrix;
pub mod mesh;
pub mod real;
pub mod stepper;
pub mod transfer;

pub use element::RefElement;
pub use faceop::{FaceOp, FaceTables};
pub use halo::{
    HaloData, HaloExchange, HaloLane, HaloPending, TAG_HALO_EXCHANGE, TAG_HALO_EXCHANGE_F32,
};
pub use kernels::KernelWorkspace;
pub use matrix::Matrix;
pub use real::Real;
pub use stepper::{RhsKernel, Stepper};
