//! End-to-end validation of the adaptive dG advection solver (§III-B):
//! the rotating exact solution on the spherical shell, conservation
//! through adapt cycles, and rank-count independence.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{rotation_velocity, AdvectConfig, AdvectSolver};
use forust_comm::{run_spmd, Communicator};
use forust_geom::ShellMap;

/// Rotate `x` about the solver's rotation axis by angle `-theta` (to pull
/// back the exact solution): Rodrigues formula.
fn pull_back(x: [f64; 3], theta: f64) -> [f64; 3] {
    let w = [0.3f64, 0.2, 1.0];
    let nw = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt();
    let k = [w[0] / nw, w[1] / nw, w[2] / nw];
    let th = -theta * nw; // velocity is w x x, angular speed |w|
    let (s, c) = th.sin_cos();
    let kx = [
        k[1] * x[2] - k[2] * x[1],
        k[2] * x[0] - k[0] * x[2],
        k[0] * x[1] - k[1] * x[0],
    ];
    let kdx = k[0] * x[0] + k[1] * x[1] + k[2] * x[2];
    let mut out = [0.0; 3];
    for i in 0..3 {
        out[i] = x[i] * c + kx[i] * s + k[i] * kdx * (1.0 - c);
    }
    out
}

/// A smooth initial condition (polynomial, so representable accurately).
fn smooth_init(x: [f64; 3]) -> f64 {
    x[0] * x[2] + 0.3 * x[1]
}

fn shell_solver(
    comm: &impl Communicator,
    degree: usize,
    level: u8,
    adapt_every: usize,
) -> AdvectSolver {
    let conn = Arc::new(builders::cubed_sphere());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, level);
    let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
    let config = AdvectConfig {
        degree,
        initial_level: level,
        min_level: level,
        max_level: level, // uniform: no adaptation unless raised
        adapt_every,
        cfl: 0.4,
        refine_tol: 1e9,
        coarsen_tol: -1.0,
    };
    AdvectSolver::new(comm, forest, map, config, smooth_init, rotation_velocity)
}

#[test]
fn smooth_rotation_is_accurate() {
    run_spmd(2, |comm| {
        let mut s = shell_solver(comm, 3, 1, usize::MAX);
        let t_end = 0.05;
        while s.time < t_end {
            s.step(comm);
        }
        let t = s.time;
        let err = s.l2_error(comm, |x| smooth_init(pull_back(x, t)));
        // Normalize by the field magnitude ~ O(1) * sqrt(volume).
        assert!(err < 5e-3, "L2 error too large: {err}");
    });
}

#[test]
fn error_decreases_with_degree() {
    let errs: Vec<f64> = [2usize, 4]
        .iter()
        .map(|&deg| {
            run_spmd(1, |comm| {
                let mut s = shell_solver(comm, deg, 1, usize::MAX);
                for _ in 0..10 {
                    s.step(comm);
                }
                let t = s.time;
                s.l2_error(comm, |x| smooth_init(pull_back(x, t)))
            })[0]
        })
        .collect();
    assert!(
        errs[1] < errs[0] * 0.5,
        "degree-4 error {} not clearly below degree-2 error {}",
        errs[1],
        errs[0]
    );
}

#[test]
fn mass_is_conserved_through_adapts() {
    run_spmd(3, |comm| {
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = AdvectConfig {
            degree: 3,
            initial_level: 1,
            min_level: 1,
            max_level: 3,
            adapt_every: 3,
            cfl: 0.4,
            refine_tol: 0.05,
            coarsen_tol: 0.02,
        };
        let mut s = AdvectSolver::new(
            comm,
            forest,
            map,
            config,
            forust_advect::four_fronts,
            rotation_velocity,
        );
        let m0 = s.total_mass(comm);
        for _ in 0..7 {
            s.step(comm);
        }
        assert!(s.timers.adapts >= 2, "adapt cycles must have run");
        let m1 = s.total_mass(comm);
        // The advective volume form on curved elements is conservative
        // only up to aliasing; the adapt transfer is conservative in
        // reference measure. Expect small relative drift.
        let drift = ((m1 - m0) / m0).abs();
        assert!(drift < 2e-2, "mass drift {drift}");
        // The solution must stay bounded (upwind stability).
        let max = s.c.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        let gmax = comm.allreduce_max_f64(max);
        assert!(gmax < 1.5, "solution blew up: {gmax}");
    });
}

#[test]
fn adaptation_actually_changes_the_mesh() {
    run_spmd(2, |comm| {
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = AdvectConfig {
            degree: 2,
            initial_level: 1,
            min_level: 1,
            max_level: 3,
            adapt_every: 1000,
            cfl: 0.4,
            refine_tol: 0.05,
            coarsen_tol: 0.02,
        };
        let s = AdvectSolver::new(
            comm,
            forest,
            map,
            config,
            forust_advect::four_fronts,
            rotation_velocity,
        );
        // Pre-adaptation refined around the fronts: strictly more than the
        // uniform 48 elements, and fewer than uniform level-3 (24576).
        let n = s.num_global_elements();
        assert!(n > 48, "no pre-adaptation happened: {n}");
        assert!(n < 24576, "refined everywhere: {n}");
        // Counts stay balanced across ranks after partition.
        let counts = s.forest.counts().to_vec();
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "{counts:?}");
    });
}

#[test]
fn result_independent_of_rank_count() {
    // The discrete solution must not depend on the partition.
    let norms: Vec<f64> = [1usize, 3]
        .iter()
        .map(|&p| {
            run_spmd(p, |comm| {
                let mut s = shell_solver(comm, 2, 1, usize::MAX);
                for _ in 0..5 {
                    s.step(comm);
                }
                // Global L2 norm of the field.
                s.l2_error(comm, |_| 0.0)
            })[0]
        })
        .collect();
    assert!(
        (norms[0] - norms[1]).abs() < 1e-10 * norms[0].abs(),
        "solution depends on rank count: {} vs {}",
        norms[0],
        norms[1]
    );
}

#[test]
fn nan_element_is_neither_coarsened_nor_refined() {
    // Every family one rank owns wholly would coarsen, nothing refines;
    // one element on rank 1 of 2 holds NaN at every node. Its indicator
    // must be NaN, so its family stays as it is.
    run_spmd(2, |comm| {
        forust_obs::install(comm.rank());
        let conn = Arc::new(builders::cubed_sphere());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 2);
        let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = AdvectConfig {
            degree: 2,
            initial_level: 2,
            min_level: 1,
            max_level: 2,
            adapt_every: usize::MAX,
            cfl: 0.4,
            refine_tol: f64::INFINITY,
            coarsen_tol: f64::MAX,
        };
        let mut s = AdvectSolver::new(comm, forest, map, config, smooth_init, rotation_velocity);
        let npe = s.mesh.re.nodes_per_elem(3);
        let mut poisoned = Vec::new();
        if comm.rank() == 1 {
            // A first child in the middle of the rank: its whole family
            // is local, so the parent commit would coarsen it.
            let n = s.mesh.num_elements();
            let e = (n / 2..n).find(|&e| s.mesh.elements[e].1.child_id() == 0);
            let e = e.expect("a first child on rank 1");
            s.c[e * npe..(e + 1) * npe].fill(f64::NAN);
            let (t, o) = s.mesh.elements[e];
            let c = o.coords();
            poisoned.push([
                t as i64,
                c[0] as i64,
                c[1] as i64,
                c[2] as i64,
                o.level as i64,
            ]);
        }
        s.adapt(comm);
        let report = forust_obs::uninstall().expect("recorder installed above");
        let counted = report
            .counters
            .iter()
            .find(|(n, _)| n == "advect.nonfinite_elements")
            .map_or(0, |c| c.1);
        assert_eq!(
            counted >= 1,
            comm.rank() == 1,
            "rank {}: {counted}",
            comm.rank()
        );
        let [t, x, y, z, level] = comm.allgatherv(&poisoned).concat()[0];
        let o = forust::octant::Octant::<D3>::new(x as i32, y as i32, z as i32, level as u8);
        let swallowed = s
            .forest
            .iter_local()
            .filter(|&(lt, leaf)| lt as i64 == t && leaf.is_ancestor_of(&o))
            .count();
        assert_eq!(
            comm.allreduce_sum_u64(swallowed as u64),
            0,
            "NaN family coarsened"
        );
        // Elsewhere coarsening did happen: 384 level-2 elements before.
        assert!(s.num_global_elements() < 384);
    });
}
