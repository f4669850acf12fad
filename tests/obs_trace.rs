//! End-to-end observability: a 3-rank adaptive advection run with a
//! per-rank recorder installed must produce (a) a valid Chrome Trace
//! Event Format file with exactly one track per rank and the expected
//! nested span names, and (b) a cross-rank phase report whose
//! self-times tile the instrumented window.

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

#[test]
fn three_rank_advect_trace_has_one_track_per_rank() {
    const RANKS: usize = 3;
    let dir = std::env::temp_dir().join(format!("forust_obs_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.json");

    let tp = path.clone();
    let outcomes = run_spmd(RANKS, move |comm| {
        obs::install(comm.rank());
        let t_wall = Instant::now();

        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map = Arc::new(ShellMap::new(Arc::clone(&conn), 0.55, 1.0));
        let config = AdvectConfig {
            degree: 2,
            initial_level: 1,
            min_level: 1,
            max_level: 2,
            adapt_every: 4,
            cfl: 0.4,
            refine_tol: 0.3,
            coarsen_tol: 0.1,
        };
        let mut s = {
            let _setup = obs::span!("setup");
            AdvectSolver::new(comm, forest, map, config, four_fronts, rotation_velocity)
        };
        for _ in 0..6 {
            s.step(comm);
        }
        let total_wall_s = t_wall.elapsed().as_secs_f64();

        let report = Registry::collect(comm);
        export_trace(comm, &tp).expect("write trace.json");
        obs::uninstall();
        (report, total_wall_s)
    });

    // Phase report: identical on all ranks, covers the instrumented
    // window, and carries the expected pipeline phases.
    let (report, _) = &outcomes[0];
    for (other, _) in &outcomes[1..] {
        assert_eq!(other.phases.len(), report.phases.len());
        assert_eq!(other.counters.len(), report.counters.len());
    }
    assert_eq!(report.ranks, RANKS);
    // The report sums cross-rank *mean* self times, so the wall to hold it
    // against is the mean over ranks too: ranks leave the last step at
    // different times, and one rank's wall can fall short of the mean.
    let wall = outcomes.iter().map(|(_, w)| w).sum::<f64>() / RANKS as f64;
    let coverage = report.coverage(wall);
    assert!(
        coverage > 0.5 && coverage <= 1.0 + 1e-9,
        "phase self-times should tile most of the run, got coverage {coverage:.3}"
    );
    for phase in ["advect.step", "rk.stage", "rhs.interior", "halo.begin"] {
        assert!(
            report.phase(phase).is_some(),
            "phase {phase} missing from cross-rank report"
        );
    }
    assert!(
        report.counter("halo.bytes_sent").is_some(),
        "halo byte counter missing"
    );
    assert!(
        report.counter("comm.p2p_msgs").is_some(),
        "comm traffic counters missing"
    );

    // Trace file: parses as Chrome Trace Event Format, one main track
    // per rank plus (when the worker pool is wider than one lane)
    // per-worker tracks at tid 4096 * lane + rank, nested spans present
    // by name.
    let text = std::fs::read_to_string(&path).expect("read trace.json");
    let summary = validate_trace(&text).expect("trace.json must validate");
    for rank in 0..RANKS as i64 {
        assert!(
            summary.tids.contains(&rank),
            "expected a main trace track for rank {rank}, got tids {:?}",
            summary.tids
        );
    }
    for &tid in &summary.tids {
        assert!(
            (tid % 4096) < RANKS as i64,
            "track {tid} does not map to a rank/worker lane, tids {:?}",
            summary.tids
        );
    }
    assert!(summary.complete_events > 0, "no complete events in trace");
    for name in [
        "advect.step",
        "rk.stage",
        "rk.update",
        "rhs.interior",
        "rhs.boundary",
        "halo.begin",
        "halo.finish",
        "setup",
    ] {
        assert!(
            summary.names.contains(name),
            "span {name} missing from trace"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
