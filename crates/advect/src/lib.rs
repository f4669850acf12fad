//! # forust-advect — dynamically adapted dG advection (paper §III-B)
//!
//! The paper's extreme AMR stress test: solve the scalar advection
//! equation `dC/dt + u . grad C = 0` on a spherical-shell domain split
//! into 24 adaptive octrees, with an upwind nodal dG discretization of
//! order 3 in space, the five-stage fourth-order low-storage Runge-Kutta
//! scheme in time, and the mesh coarsened/refined and repartitioned every
//! 32 time steps to track four advecting spherical fronts. Because the PDE
//! is linear, scalar and explicitly integrated, there are few flops to
//! amortize the AMR operations against — an extreme test of the AMR
//! framework's overhead.
//!
//! [`AdvectSolver`] implements the full cycle and accounts its wall time in
//! the two buckets the paper's Fig. 5 reports: "AMR and projection"
//! (refine/coarsen/balance/partition, solution transfer, mesh and metric
//! rebuild) versus "time integration" (RK stages including ghost
//! exchanges).

mod recovery;
mod solver;

pub use recovery::{AttemptResult, RecoverySetup};
pub use solver::{AdvectConfig, AdvectSolver, AdvectTimers};

/// Initial condition of §III-B: four spherical fronts, implemented as
/// smoothed spherical bumps centered on four points of the mid-shell
/// sphere.
pub fn four_fronts(x: [f64; 3]) -> f64 {
    // Four centers on the sphere of radius 0.775 (mid-shell for the
    // Earth-like ratio), spread around the equator and poles.
    const R: f64 = 0.775;
    let centers = [
        [R, 0.0, 0.0],
        [-R * 0.5, R * 0.75, 0.0],
        [0.0, -R * 0.8, R * 0.5],
        [-R * 0.4, -R * 0.3, -R * 0.8],
    ];
    let width = 0.08;
    let radius = 0.22;
    let mut c: f64 = 0.0;
    for ctr in centers {
        let d =
            ((x[0] - ctr[0]).powi(2) + (x[1] - ctr[1]).powi(2) + (x[2] - ctr[2]).powi(2)).sqrt();
        c += 0.5 * (1.0 - ((d - radius) / width).tanh());
    }
    c.min(1.0)
}

/// Solid-body rotation velocity about a tilted axis: divergence-free and
/// tangential to every sphere, so the shell boundaries see no flux.
pub fn rotation_velocity(x: [f64; 3]) -> [f64; 3] {
    // omega = (0.3, 0.2, 1.0) x position.
    const W: [f64; 3] = [0.3, 0.2, 1.0];
    [
        W[1] * x[2] - W[2] * x[1],
        W[2] * x[0] - W[0] * x[2],
        W[0] * x[1] - W[1] * x[0],
    ]
}
