//! Micro-benchmarks of the core forest algorithms — the building blocks
//! whose scaling Fig. 4 measures — on a single rank (serial
//! communicator). The figure-level harnesses live in the sibling
//! `fig*.rs` binaries.
//!
//! Plain `Instant`-based timing (median of repeated runs): the workspace
//! builds without external crates, so there is no criterion harness.
//!
//! Besides the human-readable table on stdout, the binary writes
//! `BENCH_core.json` at the repo root: per-kernel median microseconds,
//! octant counts and the git revision, so every PR leaves a
//! machine-readable point on the perf trajectory. If a `BENCH_core.json`
//! from a previous run exists, its kernel table is preserved under
//! `"prev"` for before/after comparison — capped at depth 1 (the prior
//! run only, never `prev.prev`). The full trajectory instead accumulates
//! as one JSONL line per run in `results/bench_history.jsonl`
//! (gitignored), which the `bench_sentinel` binary gates on.

use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver};
use forust_bench::sentinel;
use forust_comm::{run_spmd, run_spmd_with, Communicator, ReliableComm, ThreadComm};
use forust_dg::halo::HaloExchange;
use forust_dg::mesh::DgMesh;
use forust_geom::ShellMap;
use forust_obs::metrics::{MetricsReport, Registry};

fn fractal_forest(level: u8) -> (ThreadComm, Forest<D3>) {
    let comm = ThreadComm::create(1).pop().unwrap();
    let conn = Arc::new(builders::rotcubes6());
    let mut f = Forest::<D3>::new_uniform(conn, &comm, level);
    let maxl = level + 2;
    f.refine(&comm, true, |_, o| {
        o.level < maxl && matches!(o.child_id(), 0 | 3 | 5 | 6)
    });
    (comm, f)
}

/// Median wall time of `reps` runs of `f`, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// One benchmark record: kernel name, forest size it ran on, median time,
/// and (for communication kernels) total bytes on the wire per exchange.
struct Record {
    name: &'static str,
    octants: usize,
    median_us: f64,
    bytes: Option<u64>,
}

fn run(out: &mut Vec<Record>, name: &'static str, octants: usize, reps: usize, f: impl FnMut()) {
    let us = median_us(reps, f);
    println!("{name:<24} {octants:>9} oct {us:>12.1} us");
    out.push(Record {
        name,
        octants,
        median_us: us,
        bytes: None,
    });
}

/// Median wall time across `reps` rank-synchronized runs of `f`, in
/// microseconds (a barrier before every rep keeps the ranks in step).
fn median_us_sync<C: Communicator>(comm: &C, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            comm.barrier();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Extract the first `"kernels": [...]` array and `"git_rev": "..."` value
/// from a previous `BENCH_core.json`, so the new file can embed them under
/// `"prev"` without a full JSON parser. The current run's fields are
/// written before `"prev"`, so "first occurrence" is always the top-level
/// (current) table — which is also what caps `"prev"` nesting at depth 1:
/// the previous file's own `"prev"` block is never re-extracted. Deeper
/// history lives in `results/bench_history.jsonl`.
fn extract_prev(text: &str) -> Option<(String, String)> {
    let kpos = text.find("\"kernels\"")?;
    let open = kpos + text[kpos..].find('[')?;
    let close = open + text[open..].find(']')?;
    let kernels = text[open..=close].to_string();
    let rpos = text.find("\"git_rev\"")?;
    let q1 = rpos + 9 + text[rpos + 9..].find('"')? + 1;
    let q2 = q1 + text[q1..].find('"')?;
    Some((kernels, text[q1..q2].to_string()))
}

fn write_json(
    path: &std::path::Path,
    records: &[Record],
    report: &MetricsReport,
    total_wall_s: f64,
    prev: Option<(String, String)>,
) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"bench_core\",\n");
    s.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    // Worker-pool width the serial sections ran at, and the machine's
    // core count: the w1-vs-w4 SPMD records only show a speedup when
    // the host actually has the cores, so gates must read both.
    s.push_str(&format!(
        "  \"workers\": {},\n",
        forust_pool::configured_workers()
    ));
    s.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in records.iter().enumerate() {
        let bytes = r
            .bytes
            .map(|b| format!(", \"bytes\": {b}"))
            .unwrap_or_default();
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"octants\": {}, \"median_us\": {:.1}{}}}{}\n",
            r.name,
            r.octants,
            r.median_us,
            bytes,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    // The observability phase breakdown: self-time percentages tile the
    // run, so downstream tooling can track where bench wall time goes.
    s.push_str(&format!("  \"total_wall_s\": {total_wall_s:.6},\n"));
    s.push_str("  \"phases\": [\n");
    for (i, p) in report.phases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"calls\": {}, \"self_s\": {:.6}, \
             \"total_s\": {:.6}, \"self_pct\": {:.2}}}{}\n",
            p.name,
            p.calls_max,
            p.self_s.mean,
            p.total_s.mean,
            if total_wall_s > 0.0 {
                100.0 * p.self_s.mean / total_wall_s
            } else {
                0.0
            },
            if i + 1 < report.phases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]");
    if let Some((kernels, rev)) = prev {
        s.push_str(&format!(
            ",\n  \"prev\": {{\"git_rev\": \"{rev}\", \"kernels\": {kernels}}}"
        ));
    }
    s.push_str("\n}\n");
    std::fs::write(path, s).expect("write BENCH_core.json");
}

fn main() {
    const REPS: usize = 11;
    const REPS_BIG: usize = 5;
    let mut records: Vec<Record> = Vec::new();

    // Phase tracing: one recorder on the bench thread; the forest ops
    // called inside the kernels nest under the bench.* section spans.
    forust_obs::install(0);
    let t_wall = Instant::now();
    let outer = forust_obs::span!("bench.main");

    // --- level 2 fractal (small, as in the original smoke bench) -------
    let sec = forust_obs::span!("bench.l2");
    let (comm, forest2) = fractal_forest(2);
    let n2 = forest2.num_local();
    run(&mut records, "refine_fractal_l2", n2, REPS, || {
        let n = fractal_forest(2).1.num_local();
        assert!(n > 0);
    });
    run(&mut records, "balance_full_l2", n2, REPS, || {
        let mut f = forest2.clone();
        f.balance(&comm, BalanceType::Full);
    });
    let mut balanced2 = forest2.clone();
    balanced2.balance(&comm, BalanceType::Full);
    let nb2 = balanced2.num_local();
    run(&mut records, "ghost_l2", nb2, REPS, || {
        let g = balanced2.ghost(&comm);
        assert!(g.ghosts.is_empty());
    });
    let ghost2 = balanced2.ghost(&comm);
    run(&mut records, "nodes_degree1_l2", nb2, REPS, || {
        let n = balanced2.nodes(&comm, &ghost2, 1);
        assert!(n.num_local() > 0);
    });
    run(&mut records, "nodes_oracle_l2", nb2, REPS, || {
        let n = balanced2.nodes_reference(&comm, &ghost2, 1);
        assert!(n.num_local() > 0);
    });
    run(&mut records, "partition_l2", nb2, REPS, || {
        let mut f = balanced2.clone();
        f.partition(&comm);
    });

    // --- level 3 fractal (the sizes the acceptance gates run at) -------
    drop(sec);
    let sec = forust_obs::span!("bench.l3");
    let (comm3, forest3) = fractal_forest(3);
    let n3 = forest3.num_local();
    run(&mut records, "refine_fractal_l3", n3, REPS_BIG, || {
        let n = fractal_forest(3).1.num_local();
        assert!(n > 0);
    });
    run(&mut records, "balance_full_l3", n3, REPS_BIG, || {
        let mut f = forest3.clone();
        f.balance(&comm3, BalanceType::Full);
    });
    let mut balanced3 = forest3.clone();
    balanced3.balance(&comm3, BalanceType::Full);
    let nb3 = balanced3.num_local();
    run(&mut records, "ghost_l3", nb3, REPS_BIG, || {
        let g = balanced3.ghost(&comm3);
        assert!(g.ghosts.is_empty());
    });
    run(&mut records, "ghost_oracle_l3", nb3, REPS_BIG, || {
        let g = balanced3.ghost_reference(&comm3);
        assert!(g.ghosts.is_empty());
    });
    let ghost3 = balanced3.ghost(&comm3);
    run(&mut records, "nodes_degree1_l3", nb3, REPS_BIG, || {
        let n = balanced3.nodes(&comm3, &ghost3, 1);
        assert!(n.num_local() > 0);
    });
    run(&mut records, "nodes_oracle_l3", nb3, REPS_BIG, || {
        let n = balanced3.nodes_reference(&comm3, &ghost3, 1);
        assert!(n.num_local() > 0);
    });
    run(&mut records, "partition_l3", nb3, REPS_BIG, || {
        let mut f = balanced3.clone();
        f.partition(&comm3);
    });

    // Pure octant-key throughput: sum of Morton keys over the forest.
    drop(sec);
    let sec = forust_obs::span!("bench.octant_kernels");
    let octs: Vec<_> = balanced3.iter_local().map(|(_, o)| *o).collect();
    run(&mut records, "morton_sum_l3", octs.len(), REPS, || {
        let sum: u64 = octs.iter().map(|o| o.morton()).sum();
        assert!(sum > 0);
    });

    // Point-location throughput: find_containing over every leaf, per tree.
    let trees: Vec<Vec<_>> = (0..balanced3.conn.num_trees())
        .map(|t| balanced3.tree(t as u32).to_vec())
        .collect();
    run(&mut records, "find_containing_l3", nb3, REPS, || {
        let mut hits = 0usize;
        for tree in &trees {
            for o in tree {
                if forust::linear::find_containing(tree, o).is_some() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, nb3);
    });

    // --- split-phase halo exchange (4 ranks, level-3 fractal forest) ----
    // The per-RK-stage communication of the dG solvers: full-payload ghost
    // exchange vs the face-trace pipeline, with bytes-on-wire per stage
    // and the non-overlappable send-side cost of the split begin.
    drop(sec);
    let sec = forust_obs::span!("bench.halo_spmd");
    // The ranks run behind the self-healing ReliableComm so the same mesh
    // measures both the bare transport (via `inner()`) and the reliable
    // path — the steady-state, fault-free cost of resilience framing on
    // the dG hot loop.
    let halo = run_spmd_with(4, None, ReliableComm::new, |rcomm| {
        let comm = rcomm.inner();
        // Each SPMD rank is its own OS thread with its own
        // thread-local recorder: install one per rank so the halo
        // spans land somewhere instead of being silently dropped,
        // and so worker-pool busy counters attribute to the right
        // rank. The cross-rank report is collected before the
        // recorder is uninstalled and returned for the no-cross-talk
        // assertion below.
        forust_obs::install(comm.rank());
        let conn = Arc::new(builders::rotcubes6());
        let mut f = Forest::<D3>::new_uniform(conn, comm, 3);
        let maxl = 5;
        f.refine(comm, true, |_, o| {
            o.level < maxl && matches!(o.child_id(), 0 | 3 | 5 | 6)
        });
        f.balance(comm, BalanceType::Full);
        f.partition(comm);
        let mesh = DgMesh::build(&f, comm, 3);
        let halo = HaloExchange::build(&mesh);
        let npe = mesh.re.nodes_per_elem(3);
        let nghost = mesh.ghost.ghosts.len();
        let u: Vec<f64> = (0..mesh.num_elements() * npe)
            .map(|i| (i % 97) as f64)
            .collect();

        let octants = comm.allreduce_sum_u64(mesh.num_elements() as u64) as usize;
        let full_local: u64 = mesh
            .ghost
            .mirror_idx_by_rank
            .iter()
            .map(|v| (v.len() * npe * 8) as u64)
            .sum();
        let full_bytes = comm.allreduce_sum_u64(full_local);
        let trace_bytes = comm.allreduce_sum_u64(halo.send_bytes_per_exchange(1));

        // The halo section dominates the bench's wall time; the short
        // sweep keeps CI fast while `FORUST_BENCH_FULL=1` restores the
        // full 9-rep medians for real measurement runs.
        let reps: usize = if std::env::var("FORUST_BENCH_FULL").is_ok() {
            9
        } else {
            3
        };
        let full_us = median_us_sync(comm, reps, || {
            let g = mesh.exchange_element_data(comm, &u, npe);
            assert_eq!(g.len(), nghost * npe);
        });
        let trace_us = median_us_sync(comm, reps, || {
            drop(halo.exchange(comm, &u, 1));
        });
        let trace_rel_us = median_us_sync(rcomm, reps, || {
            drop(halo.exchange(rcomm, &u, 1));
        });
        let mut begin_acc = Vec::new();
        let begin_us = median_us_sync(comm, reps, || {
            let t0 = Instant::now();
            let pending = halo.begin(comm, &u, 1);
            begin_acc.push(t0.elapsed().as_secs_f64() * 1e6);
            drop(pending.finish());
        });
        let _ = begin_us; // outer timer includes the finish; use inner one
        begin_acc.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let begin_us = begin_acc[begin_acc.len() / 2];
        let rank_report = Registry::collect(comm);
        forust_obs::uninstall();
        (
            octants,
            full_bytes,
            trace_bytes,
            full_us,
            trace_us,
            trace_rel_us,
            begin_us,
            rank_report,
        )
    });
    let (octs, full_bytes, trace_bytes, full_us, trace_us, trace_rel_us, begin_us, ref spmd_report) =
        halo[0];
    // The SPMD ranks' spans must have landed in the rank recorders …
    assert_eq!(spmd_report.ranks, 4, "SPMD report must span all 4 ranks");
    for phase in ["halo.begin", "halo.finish", "forest.balance"] {
        assert!(
            spmd_report.phase(phase).is_some(),
            "phase {phase} missing from the SPMD rank report"
        );
    }
    for (name, us, bytes) in [
        ("halo_full_exchange", full_us, Some(full_bytes)),
        ("halo_trace_exchange", trace_us, Some(trace_bytes)),
        ("halo_trace_reliable", trace_rel_us, Some(trace_bytes)),
        ("halo_begin", begin_us, None),
    ] {
        let b = bytes.map(|b| format!("{b:>10} B")).unwrap_or_default();
        println!("{name:<24} {octs:>9} oct {us:>12.1} us {b}");
        records.push(Record {
            name,
            octants: octs,
            median_us: us,
            bytes,
        });
    }

    // --- SPMD dG step vs worker count (the MPI+X overlap benchmark) -----
    // The same 4-rank advect step measured with the per-rank worker pool
    // pinned to 1 and to 4 lanes. `set_worker_override` between the two
    // `run_spmd` calls is enough: each call spawns fresh rank threads,
    // and each fresh thread lazily builds its pool at the overridden
    // width. On a multi-core host the w4 step must beat w1 (interior RHS
    // chunks run on workers while the ghost exchange is in flight); the
    // CI gate checks the ratio when the runner has the cores for it.
    drop(sec);
    let sec = forust_obs::span!("bench.spmd_compute");
    let spmd_step = |workers: usize| -> (usize, f64) {
        forust_pool::set_worker_override(Some(workers));
        let out = run_spmd(4, |comm| {
            let conn = Arc::new(builders::shell24());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map = Arc::new(ShellMap::new(Arc::clone(&conn), 0.55, 1.0));
            let config = AdvectConfig {
                degree: 3,
                initial_level: 1,
                min_level: 1,
                max_level: 2,
                adapt_every: usize::MAX,
                cfl: 0.4,
                refine_tol: 0.3,
                coarsen_tol: 0.1,
            };
            let mut s =
                AdvectSolver::new(comm, forest, map, config, four_fronts, rotation_velocity);
            let elems = comm.allreduce_sum_u64(s.mesh.num_elements() as u64) as usize;
            s.step(comm); // warm caches, pool threads and halo scratch
            let us = median_us_sync(comm, 7, || {
                s.step(comm);
            });
            (elems, us)
        });
        forust_pool::set_worker_override(None);
        out[0]
    };
    for (name, workers) in [("advect_step_spmd_w1", 1), ("advect_step_spmd_w4", 4)] {
        let (elems, us) = spmd_step(workers);
        println!("{name:<24} {elems:>9} oct {us:>12.1} us");
        records.push(Record {
            name,
            octants: elems,
            median_us: us,
            bytes: None,
        });
    }

    drop(sec);
    drop(outer);
    let total_wall_s = t_wall.elapsed().as_secs_f64();

    // --- phase breakdown -------------------------------------------------
    // The paper-style percentage table: self times tile the run, so the
    // rows (plus "(untracked)") sum to 100% of wall time.
    let obs_comm = ThreadComm::create(1).pop().unwrap();
    let report = Registry::collect(&obs_comm);
    // … and must NOT have leaked into the main-thread recorder: the halo
    // spans only ever ran on SPMD rank threads.
    assert!(
        report.phase("halo.begin").is_none(),
        "SPMD rank spans leaked into the main-thread recorder"
    );
    println!();
    print!("{}", report.phase_table(total_wall_s));
    let coverage = report.coverage(total_wall_s);
    assert!(
        coverage > 0.99 && coverage <= 1.0 + 1e-9,
        "phase self-times cover {:.2}% of wall time (expected >99%)",
        coverage * 100.0
    );

    // --- JSON trajectory ------------------------------------------------
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let path = root.join("BENCH_core.json");
    let prev = std::fs::read_to_string(&path)
        .ok()
        .as_deref()
        .and_then(extract_prev);
    write_json(&path, &records, &report, total_wall_s, prev);
    println!("wrote {}", path.display());

    // --- history trajectory (the sentinel's input) ----------------------
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let kernels: Vec<(String, f64)> = records
        .iter()
        .map(|r| (r.name.to_string(), r.median_us))
        .collect();
    let line = sentinel::history_line("bench_core", &git_rev(), unix_s, &kernels);
    let hist = root.join(sentinel::HISTORY_REL_PATH);
    sentinel::append_history(&hist, &line);
    println!("appended {}", hist.display());
}
