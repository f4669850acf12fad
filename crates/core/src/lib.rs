//! # forust — forest-of-octrees parallel AMR (the `p4est` analogue)
//!
//! This crate implements the primary contribution of *Extreme-Scale AMR*
//! (Burstedde et al., SC10): scalable algorithms for parallel adaptive mesh
//! refinement and coarsening on **forests of octrees** — collections of
//! adaptive octrees glued along faces, edges and corners with arbitrary
//! relative rotations, covering general geometries (spheres, shells, tori,
//! Möbius strips) that a single octree cannot represent.
//!
//! Layering, bottom-up:
//! - [`dim`]: the 2D/3D abstraction ([`dim::D2`] quadtrees, [`dim::D3`]
//!   octrees) with all incidence tables;
//! - [`octant`]: integer octant algebra and the space-filling-curve order;
//! - [`linear`]: linear (sorted-leaf) octree primitives and validators;
//! - [`connectivity`]: the static, replicated macro-mesh — trees, their
//!   face/edge/corner neighbors, orientations, and the integer coordinate
//!   transforms between neighboring trees (paper §II-D, Fig. 3);
//! - [`forest`]: the distributed forest with the paper's core algorithm
//!   suite — `New`, `Refine`, `Coarsen`, `Partition`, `Balance`, `Ghost`
//!   (paper §II-C) — over a [`forust_comm::Communicator`], plus the
//!   recursive volume/face traversal `iterate` the dG mesh is built from;
//! - [`nodes`]: `Nodes` — globally unique numbering of continuous-Galerkin
//!   unknowns with hanging-node constraints (paper §II-E).
//!
//! Storage is fully distributed: each rank holds one contiguous segment of
//! the space-filling curve; globally shared metadata is only the partition
//! markers (an SFC position and an octant count, 24 bytes per core against
//! the paper's 32) and one `u32` per tree naming the rank that owns it whole.

pub mod connectivity;
pub mod dim;
pub mod forest;
pub(crate) mod hash;
pub mod linear;
pub mod nodes;
pub mod octant;

pub use connectivity::{Connectivity, TreeId};
pub use dim::{Dim, D2, D3};
pub use forest::{BalanceType, FaceSide, FaceVisit, Forest, GhostLayer, LeafRef, Visit};
pub use nodes::{NodeKey, NodeStatus, Nodes, TAG_ASSEMBLE};
pub use octant::Octant;
