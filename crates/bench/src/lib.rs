//! # forust-bench — harnesses regenerating the paper's evaluation
//!
//! One binary per table/figure of the SC10 evaluation (see DESIGN.md §4
//! for the experiment index):
//!
//! - `fig4_weak_p4est`: weak scaling of the core forest algorithms on the
//!   six-octree fractal mesh (Fig. 4);
//! - `fig5_weak_advection`: weak scaling of the dynamically adapted dG
//!   advection solver on the 24-octree shell (Fig. 5);
//! - `fig7_mantle_split`: runtime percentages of the mantle-convection
//!   solve (Fig. 7);
//! - `fig9_strong_seismic`: strong scaling of the seismic solver (Fig. 9);
//! - `fig10_weak_gpu`: weak scaling of the single-precision device tier
//!   (Fig. 10).
//!
//! Each prints the paper's rows plus a CSV block, and scales the problem
//! to laptop size: simulated ranks stand in for Jaguar cores (DESIGN.md
//! §3, substitution 1) — the *shape* of the results is the reproduction
//! target, not Jaguar's absolute numbers.
//!
//! Two more binaries are not figures:
//!
//! - `bench_micro`: the micro-benchmarks of the forest, halo, pool and
//!   dG kernel layers, written to `BENCH_micro.json` through the
//!   [`Micro`] scaffold of this module;
//! - `chaos_soak`: the fault-injection sweep proving every recovery
//!   bitwise (seeds from `FORUST_SOAK_SEEDS`, default 2).

use std::path::Path;
use std::time::Instant;

use forust_comm::{Communicator, ThreadComm};
use forust_obs::json::escape;
use forust_obs::metrics::{MetricsReport, Registry};
use forust_obs::SpanGuard;

/// One micro-benchmark row.
struct Record {
    name: String,
    /// Octants or elements the row ran on.
    size: usize,
    /// Best (minimum) wall time over the reps, in microseconds.
    best_us: f64,
    /// Bytes on the wire per call, for rows that measure traffic.
    bytes: Option<u64>,
}

fn time_us(f: &mut dyn FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e6
}

/// Best (minimum) wall times of `K` kernels measured in **interleaved**
/// reps (a, b, ..., a, b, ...). Scheduling or frequency noise on a shared
/// machine only ever *adds* time, so the minimum is the robust estimate
/// of true kernel cost; interleaving keeps every side in the same noise
/// environment, so drift cannot skew the ratios the CI gates read.
/// `sync` runs untimed before every call.
fn interleaved_best_us<const K: usize>(
    reps: usize,
    sync: impl Fn(),
    mut fs: [&mut dyn FnMut(); K],
) -> [f64; K] {
    let mut best = [f64::MAX; K];
    for _ in 0..reps {
        for (t, f) in best.iter_mut().zip(fs.iter_mut()) {
            sync();
            *t = t.min(time_us(*f));
        }
    }
    best
}

/// [`Micro::run_interleaved`]'s timing on every rank of an SPMD section:
/// a barrier before every call keeps the ranks in step.
pub fn best_us_sync<C: Communicator, const K: usize>(
    comm: &C,
    reps: usize,
    fs: [&mut dyn FnMut(); K],
) -> [f64; K] {
    interleaved_best_us(reps, || comm.barrier(), fs)
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

/// The snapshot document: revision, pool width and core count (the
/// w1-vs-w4 rows only show a speedup where the host has the cores, so
/// gates read both), the rows, and the phase table whose self times
/// tile `total_wall_s`.
fn snapshot_json(records: &[Record], report: &MetricsReport, total_wall_s: f64) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let bytes = r.bytes.map(|b| format!(", \"bytes\": {b}"));
            format!(
                "    {{\"name\": \"{}\", \"size\": {}, \"best_us\": {:.2}{}}}",
                escape(&r.name),
                r.size,
                r.best_us,
                bytes.unwrap_or_default()
            )
        })
        .collect();
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"calls\": {}, \"self_s\": {:.6}, \
                 \"total_s\": {:.6}, \"self_pct\": {:.2}}}",
                escape(&p.name),
                p.calls_max,
                p.self_s.mean,
                p.total_s.mean,
                100.0 * p.self_s.mean / total_wall_s
            )
        })
        .collect();
    format!(
        "{{\n  \"git_rev\": \"{}\",\n  \"workers\": {},\n  \"cores\": {},\n  \
         \"total_wall_s\": {total_wall_s:.6},\n  \"records\": [\n{}\n  ],\n  \
         \"phases\": [\n{}\n  ]\n}}\n",
        escape(&git_rev()),
        forust_pool::configured_workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n"),
        phases.join(",\n")
    )
}

/// A micro-benchmark run on the calling thread: a recorder installed
/// under one `bench.main` span, the rows recorded so far, and the wall
/// clock the phase table must tile.
pub struct Micro {
    records: Vec<Record>,
    t_wall: Instant,
    main: SpanGuard,
}

impl Micro {
    /// Install the bench thread's recorder and start the wall clock.
    pub fn start() -> Micro {
        forust_obs::install(0);
        Micro {
            records: Vec::new(),
            t_wall: Instant::now(),
            main: forust_obs::span!("bench.main"),
        }
    }

    /// Print and keep one row.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        size: usize,
        best_us: f64,
        bytes: Option<u64>,
    ) {
        let name = name.into();
        let b = bytes.map(|b| format!("{b:>10} B")).unwrap_or_default();
        println!("{name:<28} {size:>9} {best_us:>12.1} us {b}");
        self.records.push(Record {
            name,
            size,
            best_us,
            bytes,
        });
    }

    /// Time `K` kernels in interleaved reps and record each one's best.
    pub fn run_interleaved<N: Into<String>, const K: usize>(
        &mut self,
        names: [N; K],
        size: usize,
        reps: usize,
        fs: [&mut dyn FnMut(); K],
    ) {
        let best = interleaved_best_us(reps, || {}, fs);
        for (name, us) in names.into_iter().zip(best) {
            self.record(name, size, us, None);
        }
    }

    /// Time one kernel best-of-`reps` and record it.
    pub fn run(&mut self, name: impl Into<String>, size: usize, reps: usize, mut f: impl FnMut()) {
        self.run_interleaved([name], size, reps, [&mut f]);
    }

    /// Close `bench.main`, collect the bench thread's phases, assert they
    /// cover more than 99 % of wall time, and write the snapshot to
    /// `path`. Returns the report for run-specific checks.
    pub fn finish(self, path: &Path) -> MetricsReport {
        drop(self.main);
        let total_wall_s = self.t_wall.elapsed().as_secs_f64();
        let report = Registry::collect(&ThreadComm::create(1).pop().expect("one rank"));
        println!();
        print!("{}", report.phase_table(total_wall_s));
        let coverage = report.coverage(total_wall_s);
        assert!(
            coverage > 0.99 && coverage <= 1.0 + 1e-9,
            "phase self-times cover {:.2}% of wall time (expected >99%)",
            coverage * 100.0
        );
        std::fs::write(path, snapshot_json(&self.records, &report, total_wall_s))
            .expect("write the bench snapshot");
        println!("wrote {}", path.display());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust_obs::json::Json;
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn interleaved_best_returns_each_sides_minimum() {
        // Sleeps only ever overshoot, so each side's best lies in
        // [its shortest sleep, its next-shortest).
        let (a_ms, b_ms) = ([60, 20, 40], [10, 50, 30]);
        let order = RefCell::new(Vec::new());
        let call = |side: char, ms: &[u64; 3]| {
            let n = order.borrow().iter().filter(|&&s| s == side).count();
            order.borrow_mut().push(side);
            std::thread::sleep(Duration::from_millis(ms[n]));
        };
        let sync = || order.borrow_mut().push('|');
        let [a, b] = interleaved_best_us(
            3,
            sync,
            [&mut || call('a', &a_ms), &mut || call('b', &b_ms)],
        );
        assert!((20e3..40e3).contains(&a), "a best {a} us");
        assert!((10e3..30e3).contains(&b), "b best {b} us");
        let order: String = order.into_inner().into_iter().collect();
        assert_eq!(order, "|a|b|a|b|a|b");
    }

    #[test]
    fn finish_writes_a_parseable_snapshot_without_prev() {
        let path = std::env::temp_dir().join(format!("bench_micro_{}.json", std::process::id()));
        let mut bench = Micro::start();
        {
            let _s = forust_obs::span!("bench.section");
            bench.run("sleep_row", 7, 2, || {
                std::thread::sleep(Duration::from_millis(5))
            });
            bench.record("traffic_row", 3, 12.5, Some(4096));
        }
        let report = bench.finish(&path);
        assert!(report.phase("bench.section").is_some());

        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
        std::fs::remove_file(&path).unwrap();
        assert!(
            doc.get("prev").is_none(),
            "the snapshot nests no previous run"
        );
        for key in ["git_rev", "workers", "cores", "total_wall_s", "phases"] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        let rows = doc.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.get("name").and_then(Json::as_str).is_some(), "{r:?}");
            assert!(r.get("size").and_then(Json::as_u64).is_some(), "{r:?}");
            assert!(r.get("best_us").and_then(Json::as_f64).is_some(), "{r:?}");
        }
        assert!(rows[0].get("best_us").unwrap().as_f64().unwrap() >= 5e3);
        assert_eq!(rows[0].get("bytes"), None);
        assert_eq!(rows[1].get("bytes").and_then(Json::as_u64), Some(4096));
    }
}
