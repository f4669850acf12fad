//! Demonstration of the fault-injection + checkpoint/restart path: run
//! the shell advection experiment, crash a rank mid-run with a seeded
//! `FaultPlan`, recover from the last checkpoint on fewer ranks, and
//! check the result bitwise against a fault-free run.
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use std::sync::Arc;
use std::time::Instant;

use extreme_amr::advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver, AdvectSpec};
use extreme_amr::comm::{run_spmd_with, ChaosComm, Communicator, FaultPlan};
use extreme_amr::forust::connectivity::{builders, Connectivity};
use extreme_amr::forust::dim::D3;
use extreme_amr::geom::{Mapping, ShellMap};
use extreme_amr::obs;
use extreme_amr::obs::metrics::Registry;
use extreme_amr::obs::postmortem::validate_postmortem;
use extreme_amr::resilience::{attempt, run_with_recovery, Run, Store};

fn build_conn() -> Connectivity<D3> {
    builders::cubed_sphere()
}

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn main() {
    const RANKS: usize = 3;
    const STEPS: usize = 10;
    const CKPT_EVERY: usize = 3;
    const CRASH_RANK: usize = 1;

    let spec = AdvectSpec {
        conn: build_conn,
        map: build_map,
        config: AdvectConfig {
            degree: 2,
            initial_level: 1,
            min_level: 1,
            max_level: 2,
            adapt_every: 4,
            cfl: 0.4,
            refine_tol: 0.3,
            coarsen_tol: 0.1,
        },
        init: four_fronts,
        velocity: rotation_velocity,
    };
    let run = |dir| Run {
        checkpoint_every: CKPT_EVERY,
        ..Run::new(RANKS, STEPS, Store::Disk(dir))
    };

    let root = std::env::temp_dir().join("forust_chaos_recovery_example");
    let _ = std::fs::remove_dir_all(&root);

    println!("# chaos recovery demo: {STEPS}-step shell advection on {RANKS} ranks");
    println!("# checkpoint every {CKPT_EVERY} steps; reference run is fault-free\n");

    // A transparent ChaosComm pass (empty fault plan) doubles as the
    // reference run and the calibration: it counts each rank's
    // communication calls so the crash can be placed mid-run.  Each
    // rank installs an observability recorder, so the fault-free run
    // also yields the paper-style per-phase breakdown.
    let ref_run = run(root.join("reference"));
    let reference = run_spmd_with(
        RANKS,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(0)),
        |comm| {
            obs::install(comm.rank());
            let t_wall = Instant::now();
            let result = {
                let _span = obs::span!("recovery.attempt");
                attempt::<AdvectSolver>(comm, &spec, &ref_run).0
            };
            // Fault-site counters (zero on the fault-free reference)
            // flow through the same counter API as everything else.
            for (name, n) in comm.fault_counts() {
                obs::counter_add(name, n);
            }
            let report = Registry::collect(comm);
            let wall = t_wall.elapsed().as_secs_f64();
            obs::uninstall();
            (result, comm.calls(), report, wall)
        },
    );
    let mut phase_report = None;
    let (reference, calls): (Vec<_>, Vec<_>) = reference
        .into_iter()
        .map(|(result, calls, report, wall)| {
            phase_report.get_or_insert((report, wall));
            (result, calls)
        })
        .unzip();
    println!(
        "reference:  t = {:.6}, {} steps, {} dofs, {} comm calls on rank {CRASH_RANK}",
        reference[0].time,
        reference[0].steps,
        reference[0].solution.len(),
        calls[CRASH_RANK]
    );
    if let Some((report, wall)) = &phase_report {
        println!("\nper-phase breakdown of the fault-free run:");
        print!("{}", report.phase_table(*wall));
        println!();
    }

    // Crash at ~60% of the fault-free call count: past the first
    // checkpoint, before the finish line.
    let crash_at_call = calls[CRASH_RANK] * 3 / 5;
    let plan = FaultPlan::new(2026).with_crash(CRASH_RANK, crash_at_call);
    println!("injecting:  crash of rank {CRASH_RANK} at its communication call #{crash_at_call}");
    let chaos_dir = root.join("chaos");
    // The crash flight recorder: each rank deposits its last window of
    // spans and counters while unwinding, and the supervisor writes the
    // bundle before restarting.
    std::fs::create_dir_all("obs_out").expect("create output dir");
    let pm_path = std::path::PathBuf::from("obs_out/postmortem.json");
    let chaos_run = Run {
        restart_ranks: RANKS - 1,
        plan: Some(plan),
        postmortem: Some(pm_path.clone()),
        ..run(chaos_dir.clone())
    };
    // The injected crash panics inside rank threads; keep the demo
    // output readable by muting the default hook's backtrace while the
    // recovery driver is catching panics on purpose.
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = run_with_recovery::<AdvectSolver>(&spec, &chaos_run);
    let _ = std::panic::take_hook();

    match outcome.injected_crash {
        Some(rc) => println!(
            "caught:     RankCrashed {{ rank: {}, call: {} }} -> restarted on {} ranks",
            rc.rank,
            rc.call,
            RANKS - 1
        ),
        None => println!("caught:     nothing (crash call was past the end of the run)"),
    }
    let epochs: Vec<String> = std::fs::read_dir(&chaos_dir)
        .map(|d| {
            d.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    println!("checkpoints on disk: {epochs:?}");
    println!(
        "recovered:  t = {:.6}, {} steps, {} attempts",
        outcome.result.time, outcome.result.steps, outcome.attempts
    );

    // The post-mortem bundle the supervisor wrote on the failed attempt,
    // validated offline by the same zero-dep parser CI uses.
    let pm_text = std::fs::read_to_string(&pm_path).expect("postmortem.json written");
    let pm = validate_postmortem(&pm_text).expect("postmortem.json must validate");
    println!(
        "postmortem: {} — rank {} died at {} during \"{}\"; {} rank dump(s), {} recent events",
        pm_path.display(),
        pm.dead_rank,
        pm.dead_call,
        pm.in_flight_phase.as_deref().unwrap_or("<no open span>"),
        pm.ranks.len(),
        pm.events_total
    );
    assert_eq!(
        pm.dead_rank, CRASH_RANK,
        "bundle must name the injected crash rank"
    );

    let bitwise = reference[0].solution.len() == outcome.result.solution.len()
        && reference[0]
            .solution
            .iter()
            .zip(&outcome.result.solution)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && reference[0].time.to_bits() == outcome.result.time.to_bits();
    println!(
        "\nbitwise identical to fault-free run: {}",
        if bitwise { "YES" } else { "NO" }
    );
    assert!(bitwise, "recovery diverged from the fault-free run");

    // One more pass with message delays injected: delays reorder the
    // transport's internal timing but not delivery order, so the run
    // still completes — and the `chaos.*` fault-site counters show up
    // in the cross-rank counter statistics.
    let delay_run = run(root.join("delayed"));
    let delay_reports = run_spmd_with(
        RANKS,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(7).with_delay(0.25)),
        |comm| {
            obs::install(comm.rank());
            let _ = {
                let _span = obs::span!("recovery.attempt");
                attempt::<AdvectSolver>(comm, &spec, &delay_run).0
            };
            for (name, n) in comm.fault_counts() {
                obs::counter_add(name, n);
            }
            let report = Registry::collect(comm);
            obs::uninstall();
            report
        },
    );
    let delayed = delay_reports.into_iter().next().expect("rank 0 report");
    let held = delayed
        .counter("chaos.delay.send")
        .expect("delay faults fired");
    println!(
        "\ndelay injection (p=0.25): chaos.delay.send min {:.0} / mean {:.1} / max {:.0} across {RANKS} ranks",
        held.min, held.mean, held.max
    );
    assert!(held.max > 0.0, "expected at least one injected delay");
}
