//! Fig. 7: runtime percentages of the adaptive global mantle-flow solve.
//!
//! Paper table (13.8K / 27.6K / 55.1K Jaguar cores):
//!   solve   33.6% / 21.7% / 16.3%
//!   V-cycle 66.2% / 78.0% / 83.4%
//!   AMR      0.07% / 0.10% / 0.12%
//! The headline: the cost of 10 adaptation passes (5 data-adaptive + 5
//! solution-adaptive, including all p4est operations and field
//! interpolation) is completely negligible against the implicit
//! variable-viscosity Stokes solve. Scaled down: ranks sweep 1..=4 at a
//! small shell resolution, same three buckets.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::run_spmd;
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{MantleConfig, MantleSolver};

fn main() {
    let picard: usize = std::env::var("FORUST_FIG7_PICARD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("# Fig. 7 reproduction: runtime split of adaptive mantle convection");
    println!("# shell24, trilinear velocity-pressure, Picard + MINRES + weighted block Jacobi (the vcycle% column)\n");
    println!(
        "{:>5} {:>9} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "P", "elems", "unknowns", "solve%", "vcycle%", "AMR%", "krylov"
    );
    let mut csv = String::from(
        "ranks,elements,unknowns,solve_s,vcycle_s,amr_s,krylov_iters,converged,rel_residual\n",
    );
    for p in [1usize, 2, 4] {
        let results = run_spmd(p, |comm| {
            let conn = Arc::new(builders::cubed_sphere());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
            let config = MantleConfig {
                picard_iters: picard,
                amr_every: 2,
                max_level: 2,
                minres_iters: 150,
                minres_tol: 1e-5,
                ..Default::default()
            };
            let mut s = MantleSolver::new(comm, forest, map, config);
            // Every Picard step's MINRES outcome (global, equal on all ranks).
            let mut outcomes = Vec::with_capacity(picard);
            while s.picard_done < picard {
                s.picard_step(comm);
                outcomes.extend(s.last_krylov);
            }
            (
                s.forest.num_global(),
                s.fem.num_global_unknowns(),
                s.timers.solve.as_secs_f64(),
                s.timers.vcycle.as_secs_f64(),
                s.timers.amr.as_secs_f64(),
                s.timers.krylov_iters,
                outcomes,
            )
        });
        let r = results
            .into_iter()
            .reduce(|a, b| (a.0, a.1, a.2.max(b.2), a.3.max(b.3), a.4.max(b.4), a.5, a.6))
            .expect("ranks");
        let converged = r.6.iter().all(|k| k.converged);
        let rel_residual = r.6.iter().map(|k| k.rel_residual).fold(0.0, f64::max);
        let total = r.2 + r.3 + r.4;
        println!(
            "{:>5} {:>9} {:>10} {:>8.1}% {:>8.1}% {:>8.2}% {:>8}",
            p,
            r.0,
            r.1,
            100.0 * r.2 / total,
            100.0 * r.3 / total,
            100.0 * r.4 / total,
            r.5
        );
        for (step, k) in r.6.iter().enumerate().filter(|(_, k)| !k.converged) {
            println!(
                "NOT CONVERGED: P={p} Picard step {}: MINRES stopped after {} iterations at \
                 relative residual {:.3e}",
                step + 1,
                k.iters,
                k.rel_residual
            );
        }
        csv.push_str(&format!(
            "{p},{},{},{},{},{},{},{converged},{rel_residual:e}\n",
            r.0, r.1, r.2, r.3, r.4, r.5
        ));
    }
    println!(
        "\npaper reference: solve 33.6/21.7/16.3%, V-cycle 66.2/78.0/83.4%, \
         AMR 0.07/0.10/0.12% at 13.8K/27.6K/55.1K cores"
    );
    std::fs::write("fig7_mantle_split.csv", csv).expect("write csv");
    println!("wrote fig7_mantle_split.csv");
}
