//! The measurement loop shared by the five workloads.
//!
//! A run is a closed loop of identical *rounds* in one process. A round
//! starts fresh rank threads (`run_spmd`), builds the workload from the
//! seeded inputs (timed: one set-up sample), runs a fixed sequence of
//! operations (each timed from outside, around the public call), and
//! checks the result. Rounds repeat until `--seconds` of set-up plus
//! operation time have been measured. Every round must reproduce the
//! first round's state digest bit for bit. With `--trace 1` every second
//! round installs the obs recorder on each rank; the rounds in between
//! are the untraced reference of the same process.
//!
//! Because the rounds are identical, position `i` of the sequence is the
//! same work in every round, and that is what the gated times rest on:
//! see [`Agg::floors`].

use std::collections::BTreeMap;
use std::time::Instant;

use forust_comm::{run_spmd, Communicator, StatsSnapshot, ThreadComm};
use forust_obs::metrics::{MetricsReport, Registry};

use crate::catalog::{Metrics, END_TO_END, PER_LAYER};
use crate::layers;
use crate::machine::{Reference, REFERENCE_NOMINAL_S};
use crate::stats::{describe, median, min};

/// How the ranks' values of a workload-computed metric combine. The
/// harness combines them after the round, so computing a metric costs
/// the workload no collective (the comm counts stay the program's own).
#[derive(Clone, Copy)]
pub enum Combine {
    Max,
    Sum,
}

/// What one rank measured in one round.
#[derive(Default)]
pub struct Rec {
    /// Wall seconds of each harness-timed call, by harness span name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metric values the workload computed on this rank, by
    /// metric name, and how the ranks' values combine.
    pub values: BTreeMap<&'static str, (f64, Combine)>,
    /// Wall seconds of each operation, mesh adaptation excluded.
    op_s: Vec<f64>,
    /// Global element (octant) count each operation worked on.
    op_elems: Vec<u64>,
    /// Wall seconds of each mesh adaptation between or inside operations.
    amr_s: Vec<f64>,
    setup_s: f64,
    /// Hash of this rank's final state.
    pub digest: u64,
    attempted: u64,
    failed: u64,
    traffic: StatsSnapshot,
    pool_busy_s: f64,
    report: Option<MetricsReport>,
}

/// `f`'s result and wall seconds.
pub fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// As [`wall`], inside the harness span `span` (a row of `layers::CALLS`):
/// for the calls of a round's operations, which a traced round records.
pub fn timed<R>(span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _guard = forust_obs::span!(span);
    wall(f)
}

impl Rec {
    /// Record the wall seconds of one call of the harness span `span`.
    pub fn push(&mut self, span: &'static str, seconds: f64) {
        self.samples.entry(span).or_default().push(seconds);
    }

    /// Record one finished operation and whether its post-condition held.
    pub fn op(&mut self, seconds: f64, elems: u64, ok: bool) {
        self.op_s.push(seconds);
        self.op_elems.push(elems);
        self.check(ok);
    }

    /// Record one mesh adaptation, timed apart from the operations.
    pub fn amr(&mut self, seconds: f64) {
        self.amr_s.push(seconds);
    }

    /// Count one checked post-condition.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// This rank's value of a per-layer metric that is the largest of
    /// the ranks' values (times, and anything the ranks agree on).
    pub fn set_max(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, (value, Combine::Max));
    }

    /// This rank's share of a per-layer metric that adds up over ranks
    /// (bytes, flops, events).
    pub fn set_sum(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, (value, Combine::Sum));
    }

    /// Wall of all operations and adaptations of the round.
    fn busy_s(&self) -> f64 {
        self.op_s.iter().chain(&self.amr_s).sum()
    }
}

/// One benchmark scenario. Every method runs on every rank.
pub trait Workload: Sync {
    type State;
    /// Build the solver and take the first (cold) operation.
    fn setup(&self, comm: &ThreadComm, rec: &mut Rec) -> Self::State;
    /// The round's fixed sequence of operations.
    fn run_ops(&self, st: &mut Self::State, comm: &ThreadComm, rec: &mut Rec);
    /// Untimed: state digest and correctness checks; `deep` adds the
    /// expensive ones (once per run).
    fn check(&self, st: &mut Self::State, comm: &ThreadComm, rec: &mut Rec, deep: bool);
    /// Untimed, once per traced run: harness-timed public calls on the
    /// round's final state.
    fn replay(&self, st: &mut Self::State, comm: &ThreadComm, rec: &mut Rec);
}

/// How a run is laid out; see `catalog::WORKLOADS`.
pub struct Layout {
    pub name: &'static str,
    pub ranks: usize,
    pub workers: usize,
}

fn pool_busy_s() -> f64 {
    forust_pool::with(|p| p.busy_ns().iter().sum::<u64>()) as f64 * 1e-9
}

/// One round on fresh rank threads; returns each rank's record.
fn round<W: Workload>(w: &W, lay: &Layout, traced: bool, deep: bool) -> Vec<Rec> {
    run_spmd(lay.ranks, |comm| {
        let mut rec = Rec::default();
        let t0 = Instant::now();
        let mut st = w.setup(comm, &mut rec);
        comm.barrier();
        rec.setup_s = t0.elapsed().as_secs_f64();
        // Set-up is measured from outside only; the recorder goes in
        // after it, so the obs tables cover the operations alone.
        if traced {
            forust_obs::install(comm.rank());
        }
        let traffic0 = comm.stats().snapshot();
        let busy0 = pool_busy_s();
        w.run_ops(&mut st, comm, &mut rec);
        rec.traffic = comm.stats().snapshot().since(&traffic0);
        rec.pool_busy_s = pool_busy_s() - busy0;
        if traced {
            rec.report = Some(Registry::collect(comm));
            if deep {
                let dir = out_dir();
                let path = dir.join(format!("{}.trace.json", lay.name));
                let written = std::fs::create_dir_all(&dir)
                    .and_then(|()| forust_obs::trace::export_trace(comm, &path));
                rec.check(written.is_ok());
            }
            forust_obs::uninstall();
        }
        w.check(&mut st, comm, &mut rec, deep);
        if traced && deep {
            w.replay(&mut st, comm, &mut rec);
        }
        rec
    })
}

/// Where the trace of a traced run goes: Cargo's target directory, which
/// is inside the checkout and ignored by git.
pub fn out_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "bench_e2e/target".into());
    std::path::Path::new(&target).join("bench_e2e_out")
}

/// The per-position walls of one round, maximum over ranks.
struct RoundWalls {
    op_s: Vec<f64>,
    amr_s: Vec<f64>,
    setup_s: f64,
    /// How much slower than nominal the reference kernel ran around the
    /// round.
    slowdown: f64,
}

/// Rounds of one kind (untraced or traced) merged.
#[derive(Default)]
struct Agg {
    rounds: Vec<RoundWalls>,
    /// Per harness span, maximum over ranks, all rounds.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Global elements of each operation of a round (the same every round).
    op_elems: Vec<u64>,
    /// Workload-computed metrics, ranks combined; the latest round's.
    values: BTreeMap<&'static str, f64>,
    traffic: [f64; 3],
    pool_busy_s: f64,
    reports: Vec<MetricsReport>,
}

fn max_over_ranks(per_rank: impl Iterator<Item = Vec<f64>>) -> Vec<f64> {
    per_rank
        .reduce(|mut a, b| {
            assert_eq!(a.len(), b.len(), "ranks timed different call counts");
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.max(y);
            }
            a
        })
        .unwrap_or_default()
}

/// The end-to-end times of a run, free of what the shared host added.
struct Floors {
    /// The fastest operation of the run, seconds per element.
    op_per_elem_s: f64,
    /// Per position of the round's sequence, seconds.
    op_s: Vec<f64>,
    amr_s: Vec<f64>,
    setup_s: f64,
    /// Rounds the minima were taken over as measured; 0 when the whole
    /// run was slow and every round was corrected instead.
    quiet_rounds: usize,
}

impl Agg {
    fn absorb(&mut self, mut ranks: Vec<Rec>, slowdown: f64) {
        let keys: Vec<&'static str> = ranks[0].samples.keys().copied().collect();
        for k in keys {
            let merged = max_over_ranks(
                ranks
                    .iter_mut()
                    .map(|r| r.samples.remove(k).unwrap_or_default()),
            );
            self.samples.entry(k).or_default().extend(merged);
        }
        self.rounds.push(RoundWalls {
            op_s: max_over_ranks(ranks.iter_mut().map(|r| std::mem::take(&mut r.op_s))),
            amr_s: max_over_ranks(ranks.iter_mut().map(|r| std::mem::take(&mut r.amr_s))),
            setup_s: ranks.iter().map(|r| r.setup_s).fold(0.0, f64::max),
            slowdown,
        });
        for r in &ranks {
            self.traffic[0] += r.traffic.p2p_msgs as f64;
            self.traffic[1] += r.traffic.p2p_bytes as f64;
            self.traffic[2] += r.traffic.coll_calls as f64;
            self.pool_busy_s += r.pool_busy_s;
        }
        let mut combined: BTreeMap<&'static str, f64> = BTreeMap::new();
        for r in &ranks {
            assert_eq!(
                r.values.len(),
                ranks[0].values.len(),
                "ranks computed different metrics"
            );
            for (&metric, &(v, combine)) in &r.values {
                let acc = combined.entry(metric).or_insert(0.0);
                *acc = match combine {
                    Combine::Max => acc.max(v),
                    Combine::Sum => *acc + v,
                };
            }
        }
        self.values.append(&mut combined);
        let rank0 = ranks.swap_remove(0);
        self.op_elems = rank0.op_elems;
        self.reports.extend(rank0.report);
    }

    /// Operations of all rounds.
    fn ops(&self) -> f64 {
        (self.rounds.len() * self.op_elems.len()) as f64
    }

    fn all_op_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.op_s.iter().copied())
            .collect()
    }

    fn busy_s(&self) -> f64 {
        self.rounds
            .iter()
            .flat_map(|r| r.op_s.iter().chain(&r.amr_s))
            .sum()
    }

    /// The time of each position of the round's sequence: the **minimum
    /// over rounds** of its wall.
    ///
    /// The two vCPUs this runs on share a host, which disturbs a run in
    /// two ways. Bursts of contention add time to some operations and
    /// never take any away, so of the 17 to 45 repetitions of the same
    /// work the fastest is the truest; a run's median moved by 5 to 22 %
    /// between runs of the same code, these minima by 1 to 5 %. Slower
    /// code moves every position's minimum, whichever operation it slows.
    ///
    /// And for minutes at a time everything, minima included, runs up to
    /// twice slower. The reference kernel timed around each round tells:
    /// a round is *quiet* when it ran within `QUIET_SLOWDOWN` of its
    /// nominal wall before or after it (what a round that the machine
    /// changed pace in ran slowly is no minimum anyway). With
    /// `MIN_QUIET_ROUNDS` quiet rounds
    /// the minima are taken over those alone, as measured. When the
    /// whole run was slow there are none to prefer: every round counts,
    /// its walls divided by its slowdown, which the kernel tracks well
    /// for the sustained states (forest 2.05× against 1.95× measured)
    /// and to about ±15 % for milder ones.
    ///
    /// `step_us_per_elem` is the fastest operation of all (the sturdiest
    /// figure: 85 to 370 samples); `elemsteps_per_s` sums every
    /// position's minimum, so it sees a change to any one operation.
    fn floors(&self) -> Floors {
        let quiet = self.rounds.iter().filter(|r| r.slowdown <= QUIET_SLOWDOWN);
        let usable: Vec<(&RoundWalls, f64)> = if quiet.clone().count() >= MIN_QUIET_ROUNDS {
            quiet.map(|r| (r, 1.0)).collect()
        } else {
            self.rounds.iter().map(|r| (r, r.slowdown)).collect()
        };
        let floor =
            |walls: &dyn Fn(&RoundWalls) -> f64| min(usable.iter().map(|(r, div)| walls(r) / div));
        let first = &self.rounds[0];
        let op_s: Vec<f64> = (0..first.op_s.len())
            .map(|i| floor(&|r| r.op_s[i]))
            .collect();
        Floors {
            op_per_elem_s: min(op_s.iter().zip(&self.op_elems).map(|(s, &n)| s / n as f64)),
            op_s,
            amr_s: (0..first.amr_s.len())
                .map(|i| floor(&|r| r.amr_s[i]))
                .collect(),
            setup_s: floor(&|r| r.setup_s),
            quiet_rounds: usable.iter().filter(|u| u.1 == 1.0).count(),
        }
    }
}

/// Largest reference slowdown of a quiet round (the kernel's own scatter
/// on the quiet machine is ±8 %), and the quiet rounds a run needs to be
/// measured on them alone.
const QUIET_SLOWDOWN: f64 = 1.15;
const MIN_QUIET_ROUNDS: usize = 2;

impl Floors {
    /// Element-operations of a round ÷ the wall of all its operations
    /// and adaptations.
    fn elemsteps_per_s(&self, op_elems: &[u64]) -> f64 {
        let busy: f64 = self.op_s.iter().chain(&self.amr_s).sum();
        op_elems.iter().sum::<u64>() as f64 / busy
    }
}

/// The result of one run of one workload.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines: every metric by name with unit and samples.
    pub report: Vec<String>,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `w` for `seconds` of measured time and reduce the rounds to the
/// end-to-end metrics (`trace == false`) or the per-layer metrics.
pub fn run<W: Workload>(w: &W, lay: &Layout, seconds: f64, trace: bool) -> RunResult {
    // Never inherited from FORUST_WORKERS or the core count.
    forust_pool::set_worker_override(Some(lay.workers));
    let (mut plain, mut traced) = (Agg::default(), Agg::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let min_rounds = if trace { 2 } else { 3 };
    let mut measured = 0.0;
    let mut i = 0;
    let mut reference = Reference::new(lay.ranks * lay.workers);
    let mut ref_before = reference.floor_s();
    while measured < seconds || i < min_rounds {
        let is_traced = trace && i % 2 == 1;
        let recs = round(w, lay, is_traced, i == usize::from(trace));
        // The faster reading: the slower one would over-correct the part
        // of the round that ran before (or after) the machine changed pace.
        let ref_after = reference.floor_s();
        let slowdown = ref_before.min(ref_after) / REFERENCE_NOMINAL_S;
        ref_before = ref_after;
        measured += recs
            .iter()
            .map(|r| r.setup_s + r.busy_s())
            .fold(0.0, f64::max);
        attempted += recs.iter().map(|r| r.attempted).sum::<u64>();
        failed += recs.iter().map(|r| r.failed).sum::<u64>();
        digests.push(recs.iter().map(|r| r.digest).collect());
        if is_traced { &mut traced } else { &mut plain }.absorb(recs, slowdown);
        i += 1;
    }
    // Traced or not, a round must reproduce the first round's state.
    attempted += 1;
    let reproducible = digests.iter().all(|d| d == &digests[0]);
    failed += u64::from(!reproducible);

    let mut report = vec![format!(
        "workload {} ranks={} workers={} rounds={} ops={} digest={:016x} reproducible={}",
        lay.name,
        lay.ranks,
        lay.workers,
        i,
        plain.ops() + traced.ops(),
        digests[0].iter().fold(0, |a, d| a ^ d),
        reproducible
    )];
    let sample_line =
        |name: &str, unit: &str, v: &[f64]| format!("  {name:<20} {unit:<2} {}", describe(v));
    let slowdowns: Vec<f64> = plain.rounds.iter().map(|r| r.slowdown).collect();
    report.push(sample_line("machine slowdown", "x", &slowdowns));
    let mut metrics;
    if trace {
        metrics = Metrics::new(PER_LAYER);
        let known = layers::reduce(&traced.reports, traced.ops(), &mut metrics, &mut report);
        attempted += 1;
        failed += u64::from(!known);
        per_layer(&plain, &traced, lay, &mut metrics);
        metrics.set("machine.slowdown", median(&slowdowns));
        crate::machine::measure(&mut metrics, lay.ranks * lay.workers);
        for (span, v) in &plain.samples {
            report.push(sample_line(span, "s", v));
        }
    } else {
        metrics = Metrics::new(END_TO_END);
        let floors = plain.floors();
        metrics.set(
            "step_us_per_elem",
            floors.op_per_elem_s * 1e6 * lay.ranks as f64,
        );
        metrics.set("elemsteps_per_s", floors.elemsteps_per_s(&plain.op_elems));
        metrics.set("setup_s", floors.setup_s);
        metrics.set(
            "peak_rss_mb",
            peak_rss_mb() - reference.bytes() as f64 / (1 << 20) as f64,
        );
        let setups: Vec<f64> = plain.rounds.iter().map(|r| r.setup_s).collect();
        report.push(format!(
            "  quiet rounds         {} of {}",
            floors.quiet_rounds,
            plain.rounds.len()
        ));
        report.push(sample_line("op wall", "s", &plain.all_op_s()));
        report.push(sample_line("set-up wall", "s", &setups));
    }
    for (d, v) in metrics.all() {
        // Drifts and relative errors are far below a fixed six decimals.
        let value = if v != 0.0 && v.abs() < 1e-3 {
            format!("{v:.6e}")
        } else {
            format!("{v:.6}")
        };
        report.push(format!("  {:<32} {value:>18} {}", d.name, d.unit));
    }
    let finite = metrics.all().all(|(_, v)| v.is_finite());
    RunResult {
        correct: failed == 0 && finite,
        attempted,
        failed,
        metrics,
        report,
    }
}

/// The per-layer metrics the harness itself measures (the obs-derived
/// ones come from `layers::reduce`). Wall-clock medians and the
/// workloads' own values come from the untraced rounds; the traced
/// rounds add what only they have (replays, counts around the recorder).
fn per_layer(plain: &Agg, traced: &Agg, lay: &Layout, m: &mut Metrics) {
    let ops = traced.ops();
    for &(span, metric) in layers::CALLS {
        if let Some(v) = plain.samples.get(span) {
            m.set(metric, median(v));
        }
    }
    for (k, v) in traced.values.iter().chain(&plain.values) {
        m.set(k, *v);
    }
    let step_s = median(&plain.all_op_s());
    // Also where the operation's span feeds another metric (mantle).
    m.set("run.op_s", step_s);
    m.set("dg.gflops", m.get("dg.flops_per_step") / step_s / 1e9);
    if m.get("dg.bytes_per_step") > 0.0 {
        m.set(
            "dg.flops_per_byte",
            m.get("dg.flops_per_step") / m.get("dg.bytes_per_step"),
        );
    }
    m.set("comm.p2p_msgs_per_op", traced.traffic[0] / ops);
    m.set("comm.p2p_bytes_per_op", traced.traffic[1] / ops);
    m.set("comm.coll_calls_per_op", traced.traffic[2] / ops);
    m.set("pool.lanes", lay.workers as f64);
    // Width-1 pools run inline and record no busy time.
    let lane_wall = (lay.ranks * lay.workers) as f64 * traced.busy_s();
    m.set("pool.busy_frac", traced.pool_busy_s / lane_wall);
    m.set(
        "obs.overhead_frac",
        median(&traced.all_op_s()) / step_s - 1.0,
    );
    m.set(
        "run.rounds",
        (plain.rounds.len() + traced.rounds.len()) as f64,
    );
    m.set("run.ops", plain.ops() + ops);
    m.set("run.elements", *traced.op_elems.last().unwrap_or(&0) as f64);
    m.set("run.ranks", lay.ranks as f64);
    m.set("run.workers", lay.workers as f64);
}

/// FNV-1a over a stream of 64-bit words.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, v: &[f64]) {
        v.iter().for_each(|x| self.word(x.to_bits()));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the seeded stream every workload draws its inputs from.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// A uniformly distributed direction.
    pub fn unit_vector(&mut self) -> [f64; 3] {
        loop {
            let v = [self.signed_unit(), self.signed_unit(), self.signed_unit()];
            let n2: f64 = v.iter().map(|x| x * x).sum();
            if (0.01..=1.0).contains(&n2) {
                return v.map(|x| x / n2.sqrt());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order_and_bits() {
        let d = |v: &[f64]| {
            let mut d = Digest::default();
            d.f64s(v);
            d.finish()
        };
        assert_eq!(d(&[1.0, 2.0]), d(&[1.0, 2.0]));
        assert_ne!(d(&[1.0, 2.0]), d(&[2.0, 1.0]));
        assert_ne!(d(&[0.0]), d(&[-0.0]));
    }

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b, mut c) = (Rng(7), Rng(7), Rng(8));
        let (va, vb, vc) = (a.unit_vector(), b.unit_vector(), c.unit_vector());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        let n2: f64 = va.iter().map(|x| x * x).sum();
        assert!((n2 - 1.0).abs() < 1e-12);
    }

    /// One rank's record of a round of two operations and one adapt.
    fn rank(ops: [f64; 2], amr: f64, setup: f64) -> Rec {
        let mut r = Rec::default();
        for dt in ops {
            r.push("bench.step", dt);
            r.op(dt, 10, true);
        }
        r.amr(amr);
        r.setup_s = setup;
        r
    }

    #[test]
    fn walls_merge_as_max_over_ranks() {
        let mut agg = Agg::default();
        let (mut a, mut b) = (rank([1.0, 4.0], 1.0, 0.5), rank([3.0, 2.0], 2.0, 0.25));
        for (r, v) in [(&mut a, 2.0), (&mut b, 5.0)] {
            r.set_max("dg.mesh_build_s", v);
            r.set_sum("dg.flops_per_step", v);
        }
        agg.absorb(vec![a, b], 1.0);
        assert_eq!(agg.values["dg.mesh_build_s"], 5.0);
        assert_eq!(agg.values["dg.flops_per_step"], 7.0);
        assert_eq!(agg.samples["bench.step"], vec![3.0, 4.0]);
        assert_eq!(agg.rounds[0].op_s, vec![3.0, 4.0]);
        assert_eq!(agg.rounds[0].amr_s, vec![2.0]);
        assert_eq!(agg.rounds[0].setup_s, 0.5);
        assert_eq!((agg.ops(), agg.busy_s()), (2.0, 9.0));
    }

    #[test]
    fn floors_take_each_position_from_its_fastest_round() {
        let mut agg = Agg::default();
        agg.absorb(vec![rank([3.0, 4.0], 2.0, 0.5)], 1.0);
        agg.absorb(vec![rank([5.0, 2.0], 1.0, 0.75)], 1.0);
        // A round on a slow machine is left out while quiet ones exist.
        agg.absorb(vec![rank([1.0, 1.0], 0.5, 0.25)], 2.0);
        let f = agg.floors();
        assert_eq!(
            (f.op_s.clone(), f.amr_s.clone(), f.setup_s),
            (vec![3.0, 2.0], vec![1.0], 0.5)
        );
        assert_eq!(f.quiet_rounds, 2);
        // The fastest operation took 2 s on 10 elements.
        assert_eq!(f.op_per_elem_s, 0.2);
        // 20 element-operations ÷ (3 + 2 + 1) s.
        assert_eq!(f.elemsteps_per_s(&agg.op_elems), 20.0 / 6.0);
    }

    #[test]
    fn a_run_without_quiet_rounds_is_corrected_by_its_slowdown() {
        let mut agg = Agg::default();
        agg.absorb(vec![rank([6.0, 4.0], 2.0, 1.0)], 2.0);
        agg.absorb(vec![rank([3.0, 9.0], 6.0, 1.5)], 1.5);
        let f = agg.floors();
        assert_eq!(
            (f.op_s.clone(), f.amr_s.clone(), f.setup_s),
            (vec![2.0, 2.0], vec![1.0], 0.5)
        );
        assert_eq!(f.quiet_rounds, 0);
    }
}
