//! §IV-A end to end: instantaneous global mantle flow with nonlinear
//! rheology and plate-boundary weak zones, writing the adapted mesh and
//! viscosity field (the data behind Fig. 6) and printing the Fig. 7
//! runtime split.
//!
//! Run with: `cargo run --release --example mantle_convection`

use std::sync::Arc;

use extreme_amr::comm::{run_spmd, Communicator};
use extreme_amr::forust::connectivity::builders;
use extreme_amr::forust::dim::D3;
use extreme_amr::forust::forest::Forest;
use extreme_amr::geom::vtk::write_forest_vtk;
use extreme_amr::geom::{Mapping, ShellMap};
use extreme_amr::mantle::{MantleConfig, MantleSolver};

fn main() {
    std::fs::create_dir_all("mantle_out").expect("create output dir");
    run_spmd(2, |comm| {
        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map: Arc<dyn Mapping<D3> + Send + Sync> =
            Arc::new(ShellMap::new(Arc::clone(&conn), 0.55, 1.0));
        let config = MantleConfig {
            picard_iters: 4,
            amr_every: 2,
            max_level: 3,
            minres_iters: 80,
            minres_tol: 1e-4,
            ..Default::default()
        };
        let mut s = MantleSolver::new(comm, forest, map, config);
        if comm.rank() == 0 {
            println!(
                "initial adapted mesh: {} elements ({} unknowns); weak zones \
                 at 1e-5 viscosity",
                s.forest.num_global(),
                s.fem.num_global_unknowns()
            );
        }
        let unorm = s.solve(comm);

        // Per-element mean log-viscosity for the Fig. 6 style output.
        let nel = s.fem.num_elements();
        let eta: Vec<f64> = (0..nel)
            .map(|e| {
                let m: f64 = (0..8).map(|q| s.fem.eta_qp[e * 8 + q].ln()).sum();
                m / 8.0
            })
            .collect();
        let shellmap = ShellMap::new(Arc::clone(&conn), 0.55, 1.0);
        let path =
            std::path::PathBuf::from("mantle_out").join(format!("viscosity_{}.vtk", comm.rank()));
        write_forest_vtk(
            &path,
            &s.forest,
            &shellmap,
            comm.rank(),
            &[("log_eta", &eta)],
        )
        .expect("write vtk");

        if comm.rank() == 0 {
            let t = s.timers;
            let total = t.solve.as_secs_f64() + t.vcycle.as_secs_f64() + t.amr.as_secs_f64();
            println!("velocity norm: {unorm:.3e}");
            println!(
                "Fig. 7 split: solve {:.1}% | preconditioner {:.1}% | AMR {:.2}% \
                 ({} Krylov iterations)",
                100.0 * t.solve.as_secs_f64() / total,
                100.0 * t.vcycle.as_secs_f64() / total,
                100.0 * t.amr.as_secs_f64() / total,
                t.krylov_iters
            );
            println!(
                "final mesh: {} elements; viscosity VTK in mantle_out/",
                s.forest.num_global()
            );
        }
    });
}
