//! Fig. 5: weak scaling of the dynamically adapted dG advection solve.
//!
//! Paper setup: 24-octree spherical shell, tricubic (degree 3) elements,
//! mesh adapted and repartitioned every 32 steps, 3200 elements per core,
//! 12..220,320 cores; reported: the AMR+projection share of runtime (7%
//! at 12 cores growing to 27%) and 70% end-to-end weak-scaling
//! efficiency. Scaled down here: ranks sweep 1..=4 at a few hundred
//! elements per rank, reporting the same split and the end-to-end
//! efficiency normalized per element-step per rank.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver};
use forust_comm::run_spmd;
use forust_geom::ShellMap;

const STEPS: usize = 12;

fn main() {
    println!("# Fig. 5 reproduction: weak scaling of adaptive dG advection");
    println!("# shell24, degree 3, four spherical fronts, adapt every 4 steps");
    println!("# paper: 3200 elem/core, AMR overhead 7%->27%, 70% end-to-end efficiency\n");
    println!(
        "{:>5} {:>9} {:>10} {:>8} {:>8} {:>12}",
        "P", "elems", "unknowns", "AMR%", "integ%", "elemsteps/s/r"
    );

    let mut csv = String::from("ranks,elements,unknowns,amr_s,integrate_s,throughput\n");
    let mut base_thru = 0.0;
    let mut rows = Vec::new();
    for p in [1usize, 2, 4] {
        let results = run_spmd(p, |comm| {
            let conn = Arc::new(builders::shell24());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
            let config = AdvectConfig {
                degree: 3,
                initial_level: 1,
                min_level: 1,
                max_level: 2,
                adapt_every: 4,
                cfl: 0.4,
                refine_tol: 0.1,
                coarsen_tol: 0.05,
            };
            let mut s =
                AdvectSolver::new(comm, forest, map, config, four_fronts, rotation_velocity);
            let mut elem_steps = 0u64;
            for _ in 0..STEPS {
                elem_steps += s.num_global_elements();
                s.step(comm);
            }
            (
                s.num_global_elements(),
                s.num_global_unknowns(),
                s.timers.amr.as_secs_f64(),
                s.timers.integrate.as_secs_f64(),
                elem_steps,
            )
        });
        let r = results
            .into_iter()
            .reduce(|a, b| (a.0, a.1, a.2.max(b.2), a.3.max(b.3), a.4))
            .expect("ranks");
        let total = r.2 + r.3;
        let thru = r.4 as f64 / total / p as f64;
        if p == 1 {
            base_thru = thru;
        }
        rows.push((p, thru));
        println!(
            "{:>5} {:>9} {:>10} {:>7.1}% {:>7.1}% {:>12.0}",
            p,
            r.0,
            r.1,
            100.0 * r.2 / total,
            100.0 * r.3 / total,
            thru
        );
        csv.push_str(&format!("{p},{},{},{},{},{thru}\n", r.0, r.1, r.2, r.3));
    }
    println!("\n{:>5} {:>12}", "P", "end-to-end eff");
    for (p, thru) in rows {
        println!("{:>5} {:>11.1}%", p, 100.0 * thru / base_thru);
    }
    println!("\npaper reference: AMR share 7%..27%, end-to-end efficiency 70% at 18,360x");
    std::fs::write("fig5_weak_advection.csv", csv).expect("write csv");
    println!("wrote fig5_weak_advection.csv");
}
