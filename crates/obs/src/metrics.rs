//! Cross-rank metric reductions and the per-phase report.
//!
//! The paper reports per-phase statistics across ranks (max and mean
//! runtimes, load imbalance); mpiP does the same for MPI call sites.
//! [`reduce_metrics`] computes min/mean/max/imbalance of any named
//! per-rank scalar with **one** allgather over the [`Communicator`]
//! trait — the `(name, value)` pairs travel as [`forust_comm::Wire`]
//! tuples — and the fold runs in rank order on every rank, so all ranks
//! hold the identical summary afterwards.
//!
//! [`Registry::collect`] packages the whole per-rank state — every span
//! phase (inclusive and self time), every counter, and the
//! communicator's traffic counters including the per-tag breakdown —
//! into one reduced [`MetricsReport`].

use std::collections::BTreeMap;

use forust_comm::Communicator;

use crate::{snapshot_local, LocalReport};

/// Cross-rank summary of one named scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name.
    pub name: String,
    /// Minimum across ranks (ranks without the metric contribute 0).
    pub min: f64,
    /// Mean across all ranks.
    pub mean: f64,
    /// Maximum across ranks.
    pub max: f64,
    /// Load imbalance `max / mean` (1.0 when the mean is zero: an
    /// absent metric is perfectly balanced).
    pub imbalance: f64,
}

/// Reduce per-rank named scalars to cross-rank min/mean/max/imbalance.
///
/// Name sets may differ across ranks: the result covers the union, and
/// a rank that never produced a metric contributes `0.0` to it (a rank
/// that never entered a phase spent zero time there). Entries repeated
/// on one rank are summed. Results are sorted by name and — because the
/// allgather delivers contributions in rank order — bitwise identical
/// on every rank.
pub fn reduce_metrics<C: Communicator>(comm: &C, entries: &[(String, f64)]) -> Vec<MetricSummary> {
    let all = comm.allgatherv(entries);
    let p = all.len();
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (r, rank_entries) in all.into_iter().enumerate() {
        for (name, v) in rank_entries {
            by_name.entry(name).or_insert_with(|| vec![0.0; p])[r] += v;
        }
    }
    by_name
        .into_iter()
        .map(|(name, vals)| {
            let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = vals.iter().sum::<f64>() / p as f64;
            let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            MetricSummary {
                name,
                min,
                mean,
                max,
                imbalance,
            }
        })
        .collect()
}

/// Cross-rank summary of one log2 histogram: per-bucket statistics of
/// the per-rank sample counts (so `mean * ranks` is the global bucket
/// sum and `imbalance` says which ranks fill a bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Histogram name.
    pub name: String,
    /// `(bucket index, cross-rank count summary)`, ascending by bucket,
    /// only buckets some rank populated. Bucket `b` covers values in
    /// `[hist_bucket_floor(b), 2 * hist_bucket_floor(b))`.
    pub buckets: Vec<(usize, MetricSummary)>,
}

impl HistSummary {
    /// Mean per-rank sample count (sum of bucket means).
    pub fn samples_mean(&self) -> f64 {
        self.buckets.iter().map(|(_, m)| m.mean).sum()
    }

    /// Lower bound of the bucket holding quantile `q` (by per-rank mean
    /// counts): `quantile_floor(0.5)` is a log2-resolution median.
    pub fn quantile_floor(&self, q: f64) -> u64 {
        let total = self.samples_mean();
        let target = q.clamp(0.0, 1.0) * total;
        let mut cum = 0.0;
        for (b, m) in &self.buckets {
            cum += m.mean;
            if cum >= target {
                return crate::hist_bucket_floor(*b);
            }
        }
        self.buckets
            .last()
            .map(|(b, _)| crate::hist_bucket_floor(*b))
            .unwrap_or(0)
    }
}

/// Cross-rank summary of one [`step_mark`](crate::step_mark) step: the
/// per-rank wall seconds of the step (sum of phase self-time deltas)
/// plus the per-phase and per-counter deltas, each reduced across ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    /// The step index.
    pub step: u64,
    /// Per-rank wall seconds spent in the step (its imbalance is the
    /// paper's per-step load-imbalance metric).
    pub wall_s: MetricSummary,
    /// Per-phase self-second deltas within the step, sorted by name.
    pub phases: Vec<MetricSummary>,
    /// Counter deltas within the step, sorted by name.
    pub counters: Vec<MetricSummary>,
}

impl StepSummary {
    /// The phase with the largest mean self-time delta in this step.
    pub fn top_phase(&self) -> Option<&MetricSummary> {
        self.phases
            .iter()
            .max_by(|a, b| a.mean.partial_cmp(&b.mean).unwrap())
    }
}

/// Cross-rank summary of one span phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Phase name.
    pub name: String,
    /// Maximum per-rank entry count.
    pub calls_max: u64,
    /// Inclusive seconds across ranks.
    pub total_s: MetricSummary,
    /// Self seconds (inclusive minus children) across ranks.
    pub self_s: MetricSummary,
}

/// The reduced observability state of one run: every phase and counter,
/// identical on all ranks.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Communicator size the report was reduced over.
    pub ranks: usize,
    /// Per-phase wall-clock statistics, sorted by name.
    pub phases: Vec<PhaseSummary>,
    /// Counter statistics (includes `comm.*` traffic counters), sorted
    /// by name.
    pub counters: Vec<MetricSummary>,
    /// Log2 histogram statistics, sorted by name.
    pub hists: Vec<HistSummary>,
    /// Gauge statistics (last-write-wins per rank), sorted by name.
    pub gauges: Vec<MetricSummary>,
    /// Per-step time series, ascending by step index.
    pub steps: Vec<StepSummary>,
}

/// Snapshots per-rank recorder state and reduces it across ranks.
pub struct Registry;

impl Registry {
    /// Gather this rank's spans, counters and communicator traffic (the
    /// grand totals plus the per-tag point-to-point breakdown, tagged
    /// `comm.tag.<tag>.*`) and reduce everything across ranks in a
    /// single allgather. Collective: every rank must call it.
    pub fn collect<C: Communicator>(comm: &C) -> MetricsReport {
        let local = snapshot_local().unwrap_or_default();
        Self::collect_from(comm, &local)
    }

    /// As [`Registry::collect`], from an explicit local report (test
    /// support and post-hoc reduction of drained recorders).
    pub fn collect_from<C: Communicator>(comm: &C, local: &LocalReport) -> MetricsReport {
        let mut entries: Vec<(String, f64)> = Vec::new();
        for ph in &local.phases {
            entries.push((format!("t:{}", ph.name), ph.total_ns as f64 * 1e-9));
            entries.push((format!("s:{}", ph.name), ph.self_ns as f64 * 1e-9));
            entries.push((format!("n:{}", ph.name), ph.count as f64));
        }
        for (name, v) in &local.counters {
            entries.push((format!("c:{name}"), *v as f64));
        }
        // Histograms travel bucket-first ("h:<bb>:<name>") so names
        // containing ':' stay unambiguous; only populated buckets ship.
        for (name, buckets) in &local.hists {
            for (b, &count) in buckets.iter().enumerate() {
                if count > 0 {
                    entries.push((format!("h:{b:02}:{name}"), count as f64));
                }
            }
        }
        for (name, v) in &local.gauges {
            entries.push((format!("g:{name}"), *v as f64));
        }
        // Per-step deltas: a zero-padded step index keys the sort, "w"
        // is the step's per-rank wall (sum of self deltas), "s:"/"c:"
        // the per-phase and per-counter deltas.
        for sr in &local.steps {
            let wall_ns: u64 = sr.phases.iter().map(|p| p.self_ns).sum();
            entries.push((format!("e:{:012}:w", sr.step), wall_ns as f64 * 1e-9));
            for ph in &sr.phases {
                entries.push((
                    format!("e:{:012}:s:{}", sr.step, ph.name),
                    ph.self_ns as f64 * 1e-9,
                ));
            }
            for (name, v) in &sr.counters {
                entries.push((format!("e:{:012}:c:{}", sr.step, name), *v as f64));
            }
        }
        let snap = comm.stats().snapshot();
        entries.push(("c:comm.p2p_msgs".to_string(), snap.p2p_msgs as f64));
        entries.push(("c:comm.p2p_bytes".to_string(), snap.p2p_bytes as f64));
        entries.push(("c:comm.coll_calls".to_string(), snap.coll_calls as f64));
        entries.push(("c:comm.coll_bytes".to_string(), snap.coll_bytes as f64));
        for (tag, t) in comm.stats().by_tag() {
            entries.push((format!("c:comm.tag.{tag}.msgs"), t.msgs as f64));
            entries.push((format!("c:comm.tag.{tag}.bytes"), t.bytes as f64));
        }

        let reduced = reduce_metrics(comm, &entries);
        let mut totals: BTreeMap<String, MetricSummary> = BTreeMap::new();
        let mut selfs: BTreeMap<String, MetricSummary> = BTreeMap::new();
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut counters = Vec::new();
        let mut hists: BTreeMap<String, Vec<(usize, MetricSummary)>> = BTreeMap::new();
        let mut gauges = Vec::new();
        let mut steps: BTreeMap<u64, StepSummary> = BTreeMap::new();
        let blank_step = |step: u64| StepSummary {
            step,
            wall_s: MetricSummary {
                name: "wall".to_string(),
                min: 0.0,
                mean: 0.0,
                max: 0.0,
                imbalance: 1.0,
            },
            phases: Vec::new(),
            counters: Vec::new(),
        };
        for mut m in reduced {
            let (kind, name) = {
                let (k, n) = m.name.split_at(2);
                (k.to_string(), n.to_string())
            };
            m.name = name.clone();
            match kind.as_str() {
                "t:" => {
                    totals.insert(name, m);
                }
                "s:" => {
                    selfs.insert(name, m);
                }
                "n:" => {
                    counts.insert(name, m.max as u64);
                }
                "c:" => counters.push(m),
                "h:" => {
                    let (bucket, rest) = name.split_at(2);
                    let bucket: usize = bucket.parse().expect("histogram bucket index");
                    let hist_name = rest[1..].to_string();
                    m.name = hist_name.clone();
                    hists.entry(hist_name).or_default().push((bucket, m));
                }
                "g:" => gauges.push(m),
                "e:" => {
                    let (step, rest) = name.split_at(12);
                    let step: u64 = step.parse().expect("step index");
                    let rest = &rest[1..];
                    let entry = steps.entry(step).or_insert_with(|| blank_step(step));
                    if rest == "w" {
                        m.name = "wall".to_string();
                        entry.wall_s = m;
                    } else if let Some(phase) = rest.strip_prefix("s:") {
                        m.name = phase.to_string();
                        entry.phases.push(m);
                    } else if let Some(counter) = rest.strip_prefix("c:") {
                        m.name = counter.to_string();
                        entry.counters.push(m);
                    } else {
                        unreachable!("bad step metric {rest}");
                    }
                }
                _ => unreachable!("unprefixed metric {name}"),
            }
        }
        let phases = totals
            .into_iter()
            .map(|(name, total_s)| PhaseSummary {
                calls_max: counts.get(&name).copied().unwrap_or(0),
                self_s: selfs.remove(&name).expect("self metric rides with total"),
                total_s,
                name,
            })
            .collect();
        let hists = hists
            .into_iter()
            .map(|(name, mut buckets)| {
                buckets.sort_by_key(|(b, _)| *b);
                HistSummary { name, buckets }
            })
            .collect();
        MetricsReport {
            ranks: comm.size(),
            phases,
            counters,
            hists,
            gauges,
            steps: steps.into_values().collect(),
        }
    }
}

impl MetricsReport {
    /// Sum of mean self seconds over all phases — the wall clock the
    /// instrumentation accounts for. `coverage(total)` close to 1.0
    /// means the phase table tiles the run.
    pub fn tracked_self_s(&self) -> f64 {
        self.phases.iter().map(|p| p.self_s.mean).sum()
    }

    /// Fraction of `total_wall_s` covered by phase self times.
    pub fn coverage(&self, total_wall_s: f64) -> f64 {
        if total_wall_s > 0.0 {
            self.tracked_self_s() / total_wall_s
        } else {
            1.0
        }
    }

    /// The paper-style per-phase percentage table: one row per phase,
    /// self-time percentages of `total_wall_s` (which tile the run
    /// without double counting), plus inclusive mean/max and the
    /// cross-rank imbalance. Ends with an `(untracked)` row so the
    /// percentage column sums to 100.
    pub fn phase_table(&self, total_wall_s: f64) -> String {
        let mut rows: Vec<&PhaseSummary> = self.phases.iter().collect();
        rows.sort_by(|a, b| b.self_s.mean.partial_cmp(&a.self_s.mean).unwrap());
        let mut s = String::new();
        s.push_str(&format!(
            "{:<28} {:>7} {:>7} {:>12} {:>12} {:>9}\n",
            "phase", "calls", "self%", "self mean s", "incl max s", "max/mean"
        ));
        let pct = |v: f64| {
            if total_wall_s > 0.0 {
                100.0 * v / total_wall_s
            } else {
                0.0
            }
        };
        for p in &rows {
            s.push_str(&format!(
                "{:<28} {:>7} {:>6.2}% {:>12.6} {:>12.6} {:>9.3}\n",
                p.name,
                p.calls_max,
                pct(p.self_s.mean),
                p.self_s.mean,
                p.total_s.max,
                p.total_s.imbalance,
            ));
        }
        let untracked = (total_wall_s - self.tracked_self_s()).max(0.0);
        s.push_str(&format!(
            "{:<28} {:>7} {:>6.2}% {:>12.6}\n",
            "(untracked)",
            "",
            pct(untracked),
            untracked
        ));
        s.push_str(&format!(
            "{:<28} {:>7} {:>6.2}% {:>12.6}\n",
            "total", "", 100.0, total_wall_s
        ));
        s
    }

    /// Counter statistics table (mean/min/max/imbalance per counter).
    pub fn counter_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<32} {:>14} {:>14} {:>14} {:>9}\n",
            "counter", "mean", "min", "max", "max/mean"
        ));
        for c in &self.counters {
            s.push_str(&format!(
                "{:<32} {:>14.1} {:>14.1} {:>14.1} {:>9.3}\n",
                c.name, c.mean, c.min, c.max, c.imbalance
            ));
        }
        s
    }

    /// Histogram summary table: per-rank mean sample count plus
    /// log2-resolution p50/p95 and the largest populated bucket.
    pub fn hist_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<32} {:>12} {:>12} {:>12} {:>12}\n",
            "histogram", "samples/rank", "p50 >=", "p95 >=", "max >="
        ));
        for h in &self.hists {
            let max_floor = h
                .buckets
                .last()
                .map(|(b, _)| crate::hist_bucket_floor(*b))
                .unwrap_or(0);
            s.push_str(&format!(
                "{:<32} {:>12.1} {:>12} {:>12} {:>12}\n",
                h.name,
                h.samples_mean(),
                h.quantile_floor(0.5),
                h.quantile_floor(0.95),
                max_floor
            ));
        }
        s
    }

    /// Per-step table: wall seconds of each step (mean/max/imbalance
    /// across ranks) and the step's dominant phase. At most `max_rows`
    /// most-recent steps are rendered, with an ellipsis row for the rest.
    pub fn step_table(&self, max_rows: usize) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<8} {:>12} {:>12} {:>9}  {}\n",
            "step", "wall mean s", "wall max s", "max/mean", "top phase"
        ));
        let skip = self.steps.len().saturating_sub(max_rows);
        if skip > 0 {
            s.push_str(&format!("(... {skip} earlier steps)\n"));
        }
        for st in &self.steps[skip..] {
            let top = st.top_phase().map(|p| p.name.as_str()).unwrap_or("-");
            s.push_str(&format!(
                "{:<8} {:>12.6} {:>12.6} {:>9.3}  {}\n",
                st.step, st.wall_s.mean, st.wall_s.max, st.wall_s.imbalance, top
            ));
        }
        s
    }

    /// Look up a counter summary by name.
    pub fn counter(&self, name: &str) -> Option<&MetricSummary> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Look up a phase summary by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Look up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Look up a gauge summary by name.
    pub fn gauge(&self, name: &str) -> Option<&MetricSummary> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Look up a step summary by step index.
    pub fn step(&self, step: u64) -> Option<&StepSummary> {
        self.steps.iter().find(|s| s.step == step)
    }
}
