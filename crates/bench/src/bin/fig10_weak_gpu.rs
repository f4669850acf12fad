//! Fig. 10: weak scaling of the GPU (single-precision device) version.
//!
//! Paper table: 8..256 GPUs of TACC Longhorn, degree 7, constant
//! elements per GPU (~24.6K), columns: mesh generation time, CPU->GPU
//! transfer time, wave-prop time per step normalized by elements per GPU
//! (microseconds), parallel efficiency (0.997 at 256 GPUs), single
//! precision Tflops. Substitution: the device is the f32 data-parallel
//! tier (DESIGN.md §3); "GPUs" are simulated ranks each holding the f32
//! buffers of its elements, with the halo exchanged on the f32 wire lane
//! each RHS evaluation.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::run_spmd;
use forust_geom::{Mapping, ShellMap};
use forust_seismic::{prem_like_at, DeviceState, SeismicConfig, SeismicSolver};
use std::time::Instant;

fn main() {
    let steps: usize = std::env::var("FORUST_FIG10_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    println!("# Fig. 10 reproduction: weak scaling of the device (f32) backend");
    println!("# shell24, PREM-like model; constant elements per device\n");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>14} {:>9}",
        "GPUs", "elems", "mesh (s)", "transf(s)", "us/step/elem", "par eff"
    );
    let mut csv = String::from("devices,elements,mesh_s,transfer_s,us_per_step_elem,par_eff\n");
    let mut base: Option<f64> = None;
    // Weak scaling: level grows with the device count so elements per
    // device stay roughly constant (x8 per level, x8 devices is beyond a
    // single host, so sweep 1, 2, 4 with a fixed level and report the
    // normalized time exactly as the paper does).
    for g in [1usize, 2, 4] {
        let results = run_spmd(g, |comm| {
            let conn = Arc::new(builders::shell24());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
            let config = SeismicConfig {
                degree: 3,
                min_level: 1,
                // Wavelength-adapted: 2:1 mortar faces run on the device
                // too (scalar per-lane path), as in the paper's GPU runs.
                max_level: 2,
                f0: 2.0,
                ..Default::default()
            };
            let solver = SeismicSolver::new(comm, forest, map, config, prem_like_at);
            let mesh_s = solver.timers.meshing.as_secs_f64();

            let t0 = Instant::now();
            let mut dev = DeviceState::from_host(&solver);
            let transfer_s = t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            for _ in 0..steps {
                dev.step(&solver, comm);
            }
            let wave_s = t0.elapsed().as_secs_f64() / steps as f64;
            (
                solver.mesh.num_elements() as u64,
                mesh_s,
                transfer_s,
                wave_s,
                dev.transfer_bytes() as u64,
            )
        });
        let elems_per_dev: u64 = results.iter().map(|r| r.0).sum::<u64>() / g as u64;
        let r = results
            .into_iter()
            .reduce(|a, b| {
                (
                    a.0 + b.0,
                    a.1.max(b.1),
                    a.2.max(b.2),
                    a.3.max(b.3),
                    a.4 + b.4,
                )
            })
            .expect("ranks");
        let us_per_elem = r.3 * 1e6 / elems_per_dev as f64;
        let eff = match base {
            None => {
                base = Some(us_per_elem);
                1.0
            }
            Some(b) => b / us_per_elem,
        };
        println!(
            "{:>6} {:>9} {:>10.3} {:>10.3} {:>14.3} {:>9.3}",
            g, r.0, r.1, r.2, us_per_elem, eff
        );
        csv.push_str(&format!(
            "{g},{},{},{},{us_per_elem},{eff}\n",
            r.0, r.1, r.2
        ));
    }
    println!(
        "\npaper reference: 8..256 GPUs, mesh ~9-11 s, transfer 13-21 s, \
         ~30 us/step/(elem/GPU), par eff 0.997, 0.63..20.3 Tflops (f32)"
    );
    std::fs::write("fig10_weak_gpu.csv", csv).expect("write csv");
    println!("wrote fig10_weak_gpu.csv");
}
