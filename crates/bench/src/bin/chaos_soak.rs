//! Chaos soak: sweep seeds × fault classes × solvers × rank counts and
//! prove the resilience stack end to end.
//!
//! For every cell of the sweep the harness runs the experiment under
//! injected faults — message delay, payload corruption (healed in-band
//! by the self-healing transport), or a rank crash (recovered by
//! checkpoint/restart on fewer ranks) — and asserts the final global
//! state is **bitwise identical** to a fault-free reference run. It
//! finishes with a recovery-overhead table and the summed healing/fault
//! counters, and exits nonzero if any cell diverged, any retransmit cap
//! overflowed (`comm.retry.exhausted`), or no fault ever actually fired.
//!
//! Bounded for CI via `FORUST_SOAK_SEEDS` (default 2); the rank counts
//! are 1, 3 and 5.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust_advect::{AdvectSolver, AdvectSpec};
use forust_comm::{run_spmd, run_spmd_with, ChaosComm, FaultPlan};
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{MantleConfig, MantleSolver, MantleSpec};
use forust_resilience::{attempt, run_with_recovery, AttemptResult, Recoverable, Run, Store};
use forust_seismic::{prem_like_at, SeismicConfig, SeismicSolver, SeismicSpec};

const FAULTS: [&str; 3] = ["delay", "corrupt", "crash"];
const RANKS: [usize; 3] = [1, 3, 5];

fn build_conn() -> Connectivity<D3> {
    builders::cubed_sphere()
}

fn build_map(conn: Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync> {
    Arc::new(ShellMap::new(conn, 0.55, 1.0))
}

fn advect_spec() -> AdvectSpec {
    AdvectSpec {
        conn: build_conn,
        map: build_map,
        config: forust_advect::AdvectConfig {
            degree: 2,
            initial_level: 1,
            min_level: 1,
            max_level: 2,
            adapt_every: 4,
            cfl: 0.4,
            refine_tol: 0.3,
            coarsen_tol: 0.1,
        },
        init: forust_advect::four_fronts,
        velocity: forust_advect::rotation_velocity,
    }
}

fn seismic_spec() -> SeismicSpec {
    SeismicSpec {
        conn: build_conn,
        map: build_map,
        config: SeismicConfig {
            degree: 2,
            min_level: 1,
            max_level: 1,
            ..Default::default()
        },
        model: prem_like_at,
    }
}

fn mantle_spec() -> MantleSpec {
    MantleSpec {
        conn: build_conn,
        map: build_map,
        config: MantleConfig {
            picard_iters: 4,
            amr_every: 3,
            max_level: 2,
            minres_iters: 25,
            minres_tol: 1e-3,
            ..Default::default()
        },
        initial_level: 1,
    }
}

/// One cell of the sweep.
struct Cell {
    solver: &'static str,
    ranks: usize,
    fault: &'static str,
    seed: u64,
    attempts: usize,
    /// Faulty wall time over fault-free wall time.
    overhead: f64,
    bitwise: bool,
}

/// Running totals of the whole soak.
#[derive(Default)]
struct Totals {
    healed: u64,
    detected: u64,
    exhausted: u64,
    chaos: u64,
    crashes: u64,
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join("forust_chaos_soak").join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn plan_for(fault: &'static str, seed: u64, crash_rank: usize, at_call: u64) -> FaultPlan {
    match fault {
        "delay" => FaultPlan::new(seed).with_delay(0.05),
        "corrupt" => FaultPlan::new(seed)
            .with_corruption(0.05)
            .with_retransmit_corruption(0.02),
        "crash" => FaultPlan::new(seed).with_crash(crash_rank, at_call),
        _ => unreachable!(),
    }
}

/// Every bit of an attempt's result: the oracle compares these.
fn bits(r: &AttemptResult) -> Vec<u64> {
    let tail = [r.time.to_bits(), r.steps as u64];
    r.solution.iter().map(|x| x.to_bits()).chain(tail).collect()
}

/// Soak one solver at one rank count across all fault classes and seeds:
/// `units` units, a checkpoint every `ckpt_every`.
#[allow(clippy::too_many_arguments)]
fn soak<R: Recoverable>(
    name: &'static str,
    ranks: usize,
    seeds: u64,
    spec: &R::Spec,
    units: usize,
    ckpt_every: usize,
    cells: &mut Vec<Cell>,
    totals: &mut Totals,
) {
    // Fault-free reference: no checkpoints, timed.
    let ref_run = Run::new(
        ranks,
        units,
        Store::Disk(tmpdir(&format!("{name}_{ranks}_ref"))),
    );
    let t0 = Instant::now();
    let reference = run_spmd(ranks, |comm| attempt::<R>(comm, spec, &ref_run).0);
    let ref_time = t0.elapsed().as_secs_f64();
    let ref_bits = bits(&reference[0]);

    // Calibration: transparent ChaosComm under the real checkpoint
    // schedule, to count communication calls for crash placement.
    let calib_run = Run {
        checkpoint_every: ckpt_every,
        ..Run::new(
            ranks,
            units,
            Store::Disk(tmpdir(&format!("{name}_{ranks}_calib"))),
        )
    };
    let calib = run_spmd_with(
        ranks,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(1)),
        |comm| (attempt::<R>(comm, spec, &calib_run).0, comm.calls()),
    );
    assert_eq!(
        bits(&calib[0].0),
        ref_bits,
        "{name} p={ranks}: checkpointing alone perturbed the solution"
    );
    let crash_rank = if ranks > 1 { 1 } else { 0 };
    let calib_calls = calib[crash_rank].1;

    for fault in FAULTS {
        for seed in 0..seeds {
            // Vary the crash point across seeds: 40%..70% of the run.
            let at_call = calib_calls * (4 + seed % 4) / 10;
            let run = Run {
                restart_ranks: ranks.saturating_sub(1).max(1),
                plan: Some(plan_for(fault, 1 + seed * 7, crash_rank, at_call.max(1))),
                checkpoint_every: ckpt_every,
                max_attempts: 4,
                ..Run::new(
                    ranks,
                    units,
                    Store::Disk(tmpdir(&format!("{name}_{ranks}_{fault}_{seed}"))),
                )
            };
            let t0 = Instant::now();
            let outcome = run_with_recovery::<R>(spec, &run);
            let elapsed = t0.elapsed().as_secs_f64();

            let count = |pairs: &[(&'static str, u64)], key: &str| {
                pairs.iter().find(|(k, _)| *k == key).map_or(0, |&(_, v)| v)
            };
            totals.healed += count(&outcome.retry_counts, "comm.retry.healed");
            totals.detected += count(&outcome.retry_counts, "comm.retry.detected");
            totals.exhausted += count(&outcome.retry_counts, "comm.retry.exhausted");
            totals.chaos += outcome.fault_counts.iter().map(|&(_, v)| v).sum::<u64>();
            totals.crashes += outcome.injected_crash.is_some() as u64;

            cells.push(Cell {
                solver: name,
                ranks,
                fault,
                seed,
                attempts: outcome.attempts,
                overhead: elapsed / ref_time.max(1e-9),
                bitwise: bits(&outcome.result) == ref_bits,
            });
        }
    }
}

fn main() {
    let seeds: u64 = std::env::var("FORUST_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);

    println!("# Chaos soak: seeds x {{delay, corrupt, crash}} x {{advect, seismic, mantle}} x ranks {RANKS:?}");
    println!("# oracle: bitwise-identical final state vs fault-free run\n");

    let mut cells = Vec::new();
    let mut totals = Totals::default();
    let (advect, seismic, mantle) = (advect_spec(), seismic_spec(), mantle_spec());
    for p in RANKS {
        let (c, t) = (&mut cells, &mut totals);
        soak::<AdvectSolver>("advect", p, seeds, &advect, 8, 3, c, t);
        soak::<SeismicSolver>("seismic", p, seeds, &seismic, 6, 2, c, t);
        let picard = mantle.config.picard_iters;
        soak::<MantleSolver>("mantle", p, seeds, &mantle, picard, 2, c, t);
    }

    println!(
        "{:>8} {:>5} {:>8} {:>5} {:>9} {:>10} {:>8}",
        "solver", "P", "fault", "seed", "attempts", "overhead", "bitwise"
    );
    let mut csv = String::from("solver,ranks,fault,seed,attempts,overhead,bitwise\n");
    let mut failures = 0usize;
    for c in &cells {
        println!(
            "{:>8} {:>5} {:>8} {:>5} {:>9} {:>9.2}x {:>8}",
            c.solver,
            c.ranks,
            c.fault,
            c.seed,
            c.attempts,
            c.overhead,
            if c.bitwise { "ok" } else { "FAIL" }
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{:.3},{}\n",
            c.solver, c.ranks, c.fault, c.seed, c.attempts, c.overhead, c.bitwise
        ));
        if !c.bitwise {
            failures += 1;
        }
    }

    println!(
        "\ncounters: chaos={} detected={} healed={} exhausted={} crashes-recovered={}",
        totals.chaos, totals.detected, totals.healed, totals.exhausted, totals.crashes
    );
    std::fs::write(Path::new("chaos_soak.csv"), csv).expect("write csv");
    println!("wrote chaos_soak.csv");

    if failures > 0 {
        eprintln!("FAIL: {failures} cells diverged from the fault-free run");
        std::process::exit(1);
    }
    if totals.exhausted > 0 {
        eprintln!(
            "FAIL: retransmit retry cap overflowed {}x",
            totals.exhausted
        );
        std::process::exit(1);
    }
    if totals.chaos == 0 || totals.crashes == 0 {
        eprintln!("FAIL: the sweep never injected a fault — harness is miswired");
        std::process::exit(1);
    }
    if totals.healed == 0 {
        eprintln!("FAIL: corruption was injected but nothing was healed in-band");
        std::process::exit(1);
    }
    println!("\nchaos soak PASSED: {} cells, all bitwise", cells.len());
}
