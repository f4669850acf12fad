//! Observability end to end: a 3-rank adaptive advection run with a
//! per-rank recorder installed, ending in
//!
//! - `obs_out/trace.json` — Chrome Trace Event Format, one track per
//!   rank and one per worker-pool lane that ran a span; load it in <https://ui.perfetto.dev> to see the nested
//!   RK-stage / exchange / balance spans per rank, and
//! - a paper-style per-phase percentage table plus cross-rank counter
//!   statistics (octants moved, halo bytes, per-tag traffic), the
//!   per-step time-series table (wall seconds and load imbalance per RK
//!   step, sliced by `obs::step_mark`), and the log2 histogram
//!   summaries (halo bytes per exchange, pool lane busy times) on
//!   stdout.
//!
//! Run with: `cargo run --release --example obs_trace`

use std::sync::Arc;
use std::time::Instant;

use extreme_amr::advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver};
use extreme_amr::comm::{run_spmd, Communicator};
use extreme_amr::forust::connectivity::builders;
use extreme_amr::forust::dim::D3;
use extreme_amr::forust::forest::Forest;
use extreme_amr::geom::ShellMap;
use extreme_amr::obs;
use extreme_amr::obs::metrics::Registry;
use extreme_amr::obs::trace::{export_trace, validate_trace};

fn main() {
    std::fs::create_dir_all("obs_out").expect("create output dir");
    let trace_path = std::path::PathBuf::from("obs_out/trace.json");
    let ranks = 3;

    let tp = trace_path.clone();
    run_spmd(ranks, move |comm| {
        // One recorder per rank (ranks are threads); everything the
        // solver and forest do below lands in per-rank span stacks.
        obs::install(comm.rank());
        let t_wall = Instant::now();

        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map = Arc::new(ShellMap::new(Arc::clone(&conn), 0.55, 1.0));
        let config = AdvectConfig {
            degree: 3,
            initial_level: 1,
            min_level: 1,
            max_level: 3,
            adapt_every: 8,
            cfl: 0.4,
            refine_tol: 0.1,
            coarsen_tol: 0.04,
        };
        let mut s = {
            let _setup = obs::span!("setup");
            AdvectSolver::new(comm, forest, map, config, four_fronts, rotation_velocity)
        };
        for _ in 0..16 {
            s.step(comm); // spans: advect.step > rk.stage > rhs.* / adapt
        }
        let total_wall_s = t_wall.elapsed().as_secs_f64();

        // Cross-rank reduction (mpiP-style min/mean/max/imbalance) and
        // the Perfetto trace, one track per rank and worker lane.
        let report = Registry::collect(comm);
        export_trace(comm, &tp).expect("write trace.json");

        if comm.rank() == 0 {
            println!(
                "{} elements / {} unknowns on {} ranks\n",
                s.num_global_elements(),
                s.num_global_unknowns(),
                comm.size()
            );
            print!("{}", report.phase_table(total_wall_s));
            println!();
            print!("{}", report.counter_table());

            // The per-step series: the solver calls obs::step_mark after
            // every step, so each row is one RK step's wall time and
            // cross-rank imbalance plus its dominant phase.
            println!();
            print!("{}", report.step_table(8));
            assert_eq!(report.steps.len(), 16, "one step record per RK step");
            let imbalanced = report
                .steps
                .iter()
                .filter(|s| s.wall_s.imbalance > 1.0)
                .count();
            println!("({imbalanced}/16 steps show cross-rank wall imbalance > 1.0)");

            // Histogram summaries: distributions, not just totals.
            println!();
            print!("{}", report.hist_table());
            let halo = report
                .hist("halo.bytes_per_exchange")
                .expect("halo byte histogram recorded");
            assert!(halo.samples_mean() > 0.0, "halo histogram is empty");

            let text = std::fs::read_to_string(&tp).expect("read trace.json");
            let summary = validate_trace(&text).expect("trace.json must parse");
            // Every rank has its main track; the worker pool adds one
            // track per lane at tid 4096·L + R.
            let p = comm.size() as i64;
            for rank in 0..p {
                let tids = &summary.tids;
                assert!(
                    tids.contains(&rank),
                    "no main track for rank {rank}: {tids:?}"
                );
            }
            let tids = &summary.tids;
            assert!(
                tids.iter().all(|t| t % 4096 < p),
                "a track maps to no rank: {tids:?}"
            );
            for name in ["advect.step", "rk.stage", "rhs.interior", "forest.balance"] {
                assert!(summary.names.contains(name), "span {name} missing in trace");
            }
            println!(
                "\nwrote {} ({} events, {} tracks) — load it in ui.perfetto.dev",
                tp.display(),
                summary.complete_events,
                summary.tids.len()
            );
        }
        obs::uninstall();
    });
}
