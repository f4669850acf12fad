//! Fig. 4: weak scaling of the core forest algorithms on the six-octree
//! fractal mesh.
//!
//! Paper setup: the `rotcubes` forest, "a fractal-type mesh by recursively
//! subdividing octants with child identifiers 0, 3, 5 and 6 while not
//! exceeding four levels of size difference"; core count x8 per level
//! increment, ~2.3M octants per core, largest run 5.13e11 octants on
//! 220,320 cores. Scaled down here: simulated ranks sweep 1..=8 with a
//! few thousand octants per rank, and the same two outputs are produced:
//! percentage of runtime per algorithm, and seconds per (million octants
//! per rank) for Balance and Nodes with the derived parallel efficiency.

use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{run_spmd, Communicator};

/// Per-rank octant target (paper: 2.3e6).
const PER_RANK: u64 = 4000;

fn main() {
    println!("# Fig. 4 reproduction: weak scaling of p4est algorithms");
    println!("# forest: rotcubes6; fractal refinement of children {{0,3,5,6}}, depth 3");
    println!("# paper: 2.3e6 octants/core, 12..220,320 cores; here: ~{PER_RANK} octants/rank\n");
    println!(
        "{:>5} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>11} {:>11}",
        "P",
        "octants",
        "new%",
        "refine%",
        "part%",
        "bal%",
        "ghost%",
        "nodes%",
        "bal s/Mo/r",
        "nod s/Mo/r"
    );

    let mut csv = String::from(
        "ranks,octants,new_s,refine_s,partition_s,balance_s,ghost_s,nodes_s,\
         balance_per_moct_rank,nodes_per_moct_rank\n",
    );
    let mut norms: Vec<(usize, f64, f64)> = Vec::new();

    for p in [1usize, 2, 4, 8] {
        // Base level so total ~ p * PER_RANK: the depth-3 fractal
        // multiplies the uniform octant count by ~80.
        let total_target = (p as u64 * PER_RANK) as f64;
        let base = ((total_target / (6.0 * 80.0)).ln() / 8f64.ln())
            .round()
            .max(1.0) as u8;
        let results = run_spmd(p, |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let t0 = Instant::now();
            let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, base);
            comm.barrier();
            let t_new = t0.elapsed();

            let t0 = Instant::now();
            let maxl = base + 3;
            forest.refine(comm, true, |_, o| {
                o.level < maxl && matches!(o.child_id(), 0 | 3 | 5 | 6)
            });
            comm.barrier();
            let t_refine = t0.elapsed();

            let t0 = Instant::now();
            forest.partition(comm);
            let t_partition = t0.elapsed();

            let t0 = Instant::now();
            forest.balance(comm, BalanceType::Full);
            let t_balance = t0.elapsed();

            let t0 = Instant::now();
            let ghost = forest.ghost(comm);
            let t_ghost = t0.elapsed();

            let t0 = Instant::now();
            let _nodes = forest.nodes(comm, &ghost, 1);
            comm.barrier();
            let t_nodes = t0.elapsed();

            (
                forest.num_global(),
                [t_new, t_refine, t_partition, t_balance, t_ghost, t_nodes]
                    .map(|d| d.as_secs_f64()),
            )
        });
        let (octants, times) = results
            .into_iter()
            .reduce(|a, b| {
                let mut t = a.1;
                for i in 0..6 {
                    t[i] = t[i].max(b.1[i]);
                }
                (a.0, t)
            })
            .expect("at least one rank");
        let total: f64 = times.iter().sum();
        let oct_per_rank_m = octants as f64 / p as f64 / 1e6;
        let bal_norm = times[3] / oct_per_rank_m;
        let nod_norm = times[5] / oct_per_rank_m;
        norms.push((p, bal_norm, nod_norm));
        println!(
            "{:>5} {:>10} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% | {:>11.3} {:>11.3}",
            p,
            octants,
            100.0 * times[0] / total,
            100.0 * times[1] / total,
            100.0 * times[2] / total,
            100.0 * times[3] / total,
            100.0 * times[4] / total,
            100.0 * times[5] / total,
            bal_norm,
            nod_norm,
        );
        csv.push_str(&format!(
            "{p},{octants},{},{},{},{},{},{},{bal_norm},{nod_norm}\n",
            times[0], times[1], times[2], times[3], times[4], times[5]
        ));
    }

    // Parallel efficiencies relative to the smallest run (paper: 65% for
    // Balance, 72% for Nodes over 18,360x).
    let (_, b0, n0) = norms[0];
    println!("\n{:>5} {:>12} {:>12}", "P", "bal eff", "nodes eff");
    for &(p, b, n) in &norms {
        println!(
            "{:>5} {:>11.1}% {:>11.1}%",
            p,
            100.0 * b0 / b,
            100.0 * n0 / n
        );
    }
    println!(
        "\npaper reference: Balance+Nodes >90% of runtime; Partition+Ghost <10%; \
         Balance 65% / Nodes 72% parallel efficiency at 18,360x"
    );
    std::fs::write("fig4_weak_p4est.csv", csv).expect("write csv");
    println!("wrote fig4_weak_p4est.csv");
}
