//! Satellite: cross-rank metric reductions on `ThreadComm` at 1/3/5
//! ranks, checked against hand computations.

use forust_comm::{run_spmd, Communicator};
use forust_obs::metrics::{reduce_metrics, MetricSummary, Registry};
use forust_obs::{hist_bucket, LocalReport, PhaseStat, StepRecord, HIST_BUCKETS};

fn entry(name: &str, v: f64) -> (String, f64) {
    (name.to_string(), v)
}

fn find<'a>(sums: &'a [MetricSummary], name: &str) -> &'a MetricSummary {
    sums.iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn serial_single_rank_is_identity() {
    let sums = run_spmd(1, |comm| {
        reduce_metrics(comm, &[entry("balance", 2.5), entry("ghost", 0.5)])
    })
    .remove(0);
    assert_eq!(sums.len(), 2);
    let b = find(&sums, "balance");
    assert_eq!((b.min, b.mean, b.max), (2.5, 2.5, 2.5));
    assert_eq!(b.imbalance, 1.0);
    let g = find(&sums, "ghost");
    assert_eq!((g.min, g.mean, g.max), (0.5, 0.5, 0.5));
}

#[test]
fn serial_repeated_entries_sum() {
    let sums = run_spmd(1, |comm| {
        reduce_metrics(comm, &[entry("x", 1.0), entry("x", 2.0)])
    })
    .remove(0);
    let x = find(&sums, "x");
    assert_eq!((x.min, x.mean, x.max), (3.0, 3.0, 3.0));
}

#[test]
fn thread_three_ranks_hand_computed() {
    // Rank r contributes work = (r+1) as f64: values 1, 2, 3.
    // min=1, max=3, mean=2, imbalance = 3/2 = 1.5.
    let reports = run_spmd(3, |comm| {
        reduce_metrics(comm, &[entry("work", (comm.rank() + 1) as f64)])
    });
    for sums in &reports {
        let w = find(sums, "work");
        assert_eq!(w.min, 1.0);
        assert_eq!(w.max, 3.0);
        assert_eq!(w.mean, 2.0);
        assert_eq!(w.imbalance, 1.5);
    }
    // Identical on every rank.
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
}

#[test]
fn thread_five_ranks_missing_names_contribute_zero() {
    // "solo" is reported only by rank 2 with value 10:
    //   values 0,0,10,0,0 → min 0, max 10, mean 2, imbalance 5.
    // "all" is reported by everyone with value 4:
    //   min=max=mean=4, imbalance 1.
    let reports = run_spmd(5, |comm| {
        let mut entries = vec![entry("all", 4.0)];
        if comm.rank() == 2 {
            entries.push(entry("solo", 10.0));
        }
        reduce_metrics(comm, &entries)
    });
    for sums in &reports {
        let s = find(sums, "solo");
        assert_eq!((s.min, s.mean, s.max), (0.0, 2.0, 10.0));
        assert_eq!(s.imbalance, 5.0);
        let a = find(sums, "all");
        assert_eq!((a.min, a.mean, a.max), (4.0, 4.0, 4.0));
        assert_eq!(a.imbalance, 1.0);
        // Sorted by name.
        assert!(sums.windows(2).all(|w| w[0].name < w[1].name));
    }
}

#[test]
fn zero_mean_metric_reports_unit_imbalance() {
    let reports = run_spmd(3, |comm| reduce_metrics(comm, &[entry("idle", 0.0)]));
    for sums in &reports {
        let i = find(sums, "idle");
        assert_eq!((i.min, i.mean, i.max), (0.0, 0.0, 0.0));
        assert_eq!(i.imbalance, 1.0);
    }
}

/// End-to-end Registry reduction over explicit local reports: phases
/// split into total/self/count, counters reduced alongside, comm
/// traffic counters appear.
#[test]
fn registry_collect_from_three_ranks() {
    let reports = run_spmd(3, |comm| {
        let r = comm.rank() as u64;
        let local = LocalReport {
            rank: comm.rank(),
            phases: vec![PhaseStat {
                name: "solve".to_string(),
                count: 10 + r,
                total_ns: (r + 1) * 1_000_000_000,
                self_ns: (r + 1) * 500_000_000,
            }],
            counters: vec![("octants".to_string(), 100 * (r + 1))],
            events: Vec::new(),
            dropped_events: 0,
            ..Default::default()
        };
        Registry::collect_from(comm, &local)
    });
    for rep in &reports {
        assert_eq!(rep.ranks, 3);
        let solve = rep.phase("solve").expect("solve phase");
        // total seconds 1,2,3 → mean 2, max 3, imbalance 1.5.
        assert!((solve.total_s.mean - 2.0).abs() < 1e-9);
        assert!((solve.total_s.max - 3.0).abs() < 1e-9);
        assert!((solve.total_s.imbalance - 1.5).abs() < 1e-9);
        // self seconds 0.5,1.0,1.5 → mean 1.0.
        assert!((solve.self_s.mean - 1.0).abs() < 1e-9);
        assert_eq!(solve.calls_max, 12);
        // counters 100,200,300 → mean 200, max 300.
        let oct = rep.counter("octants").expect("octants counter");
        assert_eq!((oct.min, oct.mean, oct.max), (100.0, 200.0, 300.0));
        // Traffic counters ride along (the reduction itself communicates,
        // so totals are nonzero by the time a second collect would run;
        // here we only require presence).
        assert!(rep.counter("comm.p2p_msgs").is_some());
        assert!(rep.counter("comm.coll_calls").is_some());
    }
    // Deterministic across ranks.
    assert_eq!(reports[0].counters.len(), reports[1].counters.len());
    for (a, b) in reports[0].phases.iter().zip(&reports[1].phases) {
        assert_eq!(a, b);
    }
}

#[test]
fn phase_table_sums_to_total() {
    let local = LocalReport {
        rank: 0,
        phases: vec![
            PhaseStat {
                name: "a".into(),
                count: 1,
                total_ns: 600_000_000,
                self_ns: 600_000_000,
            },
            PhaseStat {
                name: "b".into(),
                count: 2,
                total_ns: 300_000_000,
                self_ns: 300_000_000,
            },
        ],
        counters: vec![],
        events: vec![],
        dropped_events: 0,
        ..Default::default()
    };
    let rep = run_spmd(1, |comm| Registry::collect_from(comm, &local)).remove(0);
    assert!((rep.tracked_self_s() - 0.9).abs() < 1e-9);
    assert!((rep.coverage(1.0) - 0.9).abs() < 1e-9);
    let table = rep.phase_table(1.0);
    assert!(table.contains("(untracked)"));
    // 60% + 30% + 10% untracked.
    assert!(table.contains("60.00%"));
    assert!(table.contains("30.00%"));
    assert!(table.contains("10.00%"));
}

/// Histogram reduction, 1 rank: the summary is the identity of the local
/// bucket counts.
#[test]
fn serial_hist_single_rank_identity() {
    let mut buckets = vec![0u64; HIST_BUCKETS];
    buckets[hist_bucket(3)] = 4; // 4 samples of value 3 → bucket 2
    buckets[hist_bucket(100)] = 1; // value 100 → bucket 7
    let local = LocalReport {
        rank: 0,
        hists: vec![("lat".to_string(), buckets)],
        ..Default::default()
    };
    let rep = run_spmd(1, |comm| Registry::collect_from(comm, &local)).remove(0);
    let h = rep.hist("lat").expect("lat histogram");
    assert_eq!(h.buckets.len(), 2, "only populated buckets ship");
    assert_eq!(h.buckets[0].0, 2);
    assert_eq!(
        (h.buckets[0].1.min, h.buckets[0].1.mean, h.buckets[0].1.max),
        (4.0, 4.0, 4.0)
    );
    assert_eq!(h.buckets[1].0, 7);
    assert!((h.samples_mean() - 5.0).abs() < 1e-9);
    // p50 of {4 @ bucket 2, 1 @ bucket 7} lands in bucket 2: floor 2.
    assert_eq!(h.quantile_floor(0.5), 2);
}

/// Histogram reduction, 3 ranks: per-bucket counts reduce like any
/// other metric, hand-computed. Rank r contributes r+1 samples to
/// bucket 2; only rank 2 touches bucket 5.
#[test]
fn thread_three_ranks_hist_bucket_sums() {
    let reports = run_spmd(3, |comm| {
        let r = comm.rank() as u64;
        let mut buckets = vec![0u64; HIST_BUCKETS];
        buckets[2] = r + 1; // counts 1, 2, 3 across ranks
        if comm.rank() == 2 {
            buckets[5] = 6;
        }
        let local = LocalReport {
            rank: comm.rank(),
            hists: vec![("lat".to_string(), buckets)],
            ..Default::default()
        };
        Registry::collect_from(comm, &local)
    });
    for rep in &reports {
        let h = rep.hist("lat").expect("lat histogram");
        let b2 = &h.buckets.iter().find(|(b, _)| *b == 2).unwrap().1;
        // counts 1,2,3 → min 1, mean 2, max 3, imbalance 1.5
        assert_eq!((b2.min, b2.mean, b2.max), (1.0, 2.0, 3.0));
        assert_eq!(b2.imbalance, 1.5);
        let b5 = &h.buckets.iter().find(|(b, _)| *b == 5).unwrap().1;
        // counts 0,0,6 → mean 2, max 6, imbalance 3
        assert_eq!((b5.min, b5.mean, b5.max), (0.0, 2.0, 6.0));
        assert_eq!(b5.imbalance, 3.0);
        // global sample count = mean * ranks = (2 + 2) * 3 = 12
        assert!((h.samples_mean() * rep.ranks as f64 - 12.0).abs() < 1e-9);
    }
    // Bitwise identical on every rank.
    assert_eq!(reports[0].hists, reports[1].hists);
    assert_eq!(reports[1].hists, reports[2].hists);
}

/// Gauge reduction, 5 ranks: last-write-wins locally, min/mean/max
/// across ranks. Rank r reports lanes = r.
#[test]
fn thread_five_ranks_gauges() {
    let reports = run_spmd(5, |comm| {
        let local = LocalReport {
            rank: comm.rank(),
            gauges: vec![("pool.lanes".to_string(), comm.rank() as u64)],
            ..Default::default()
        };
        Registry::collect_from(comm, &local)
    });
    for rep in &reports {
        let g = rep.gauge("pool.lanes").expect("lanes gauge");
        // values 0..=4 → min 0, mean 2, max 4, imbalance 2
        assert_eq!((g.min, g.mean, g.max), (0.0, 2.0, 4.0));
        assert_eq!(g.imbalance, 2.0);
    }
    assert_eq!(reports[0].gauges, reports[4].gauges);
}

/// Per-step reduction, 3 ranks: the step's wall seconds, per-phase and
/// per-counter deltas all reduce across ranks; the step wall imbalance
/// is the paper's per-step load-imbalance metric. Rank r spends
/// (r+1) seconds of self time in "rk" during step 7.
#[test]
fn thread_three_ranks_step_series() {
    let reports = run_spmd(3, |comm| {
        let r = comm.rank() as u64;
        let local = LocalReport {
            rank: comm.rank(),
            steps: vec![
                StepRecord {
                    step: 7,
                    phases: vec![PhaseStat {
                        name: "rk".to_string(),
                        count: 5,
                        total_ns: (r + 1) * 1_000_000_000,
                        self_ns: (r + 1) * 1_000_000_000,
                    }],
                    counters: vec![("flux".to_string(), 10 * (r + 1))],
                },
                StepRecord {
                    step: 8,
                    phases: Vec::new(),
                    counters: Vec::new(),
                },
            ],
            ..Default::default()
        };
        Registry::collect_from(comm, &local)
    });
    for rep in &reports {
        assert_eq!(rep.steps.len(), 2);
        let s7 = rep.step(7).expect("step 7");
        // wall seconds 1,2,3 → mean 2, max 3, imbalance 1.5
        assert!((s7.wall_s.mean - 2.0).abs() < 1e-9);
        assert!((s7.wall_s.max - 3.0).abs() < 1e-9);
        assert!((s7.wall_s.imbalance - 1.5).abs() < 1e-9);
        let rk = s7.top_phase().expect("top phase");
        assert_eq!(rk.name, "rk");
        assert!((rk.mean - 2.0).abs() < 1e-9);
        // counter deltas 10,20,30 → mean 20
        assert_eq!(s7.counters.len(), 1);
        assert!((s7.counters[0].mean - 20.0).abs() < 1e-9);
        // The idle step reduces to zero wall with unit imbalance.
        let s8 = rep.step(8).expect("step 8");
        assert_eq!(s8.wall_s.mean, 0.0);
        assert_eq!(s8.wall_s.imbalance, 1.0);
        assert!(s8.phases.is_empty());
        // Steps ascend by index.
        assert!(rep.steps.windows(2).all(|w| w[0].step < w[1].step));
    }
    assert_eq!(reports[0].steps, reports[2].steps);
}

/// Probes-to-report integration at 5 ranks: real `histogram!` calls on
/// each rank thread, reduced via `Registry::collect`, with the global
/// bucket sums hand-computed from what each rank recorded.
#[test]
fn thread_five_ranks_recorded_hist_end_to_end() {
    let reports = run_spmd(5, |comm| {
        forust_obs::install(comm.rank());
        forust_obs::reset();
        // Every rank records one value 1 (bucket 1); rank r additionally
        // records r values of 1024 (bucket 11).
        forust_obs::histogram!("bytes", 1);
        for _ in 0..comm.rank() {
            forust_obs::histogram!("bytes", 1024);
        }
        let rep = Registry::collect(comm);
        forust_obs::uninstall();
        rep
    });
    for rep in &reports {
        let h = rep.hist("bytes").expect("bytes histogram");
        let b1 = &h.buckets.iter().find(|(b, _)| *b == 1).unwrap().1;
        assert_eq!((b1.min, b1.mean, b1.max), (1.0, 1.0, 1.0));
        let b11 = &h.buckets.iter().find(|(b, _)| *b == 11).unwrap().1;
        // counts 0,1,2,3,4 → mean 2, max 4
        assert_eq!((b11.min, b11.mean, b11.max), (0.0, 2.0, 4.0));
        // hist_table renders every histogram with its quantiles.
        let table = rep.hist_table();
        assert!(table.contains("bytes"));
    }
}
