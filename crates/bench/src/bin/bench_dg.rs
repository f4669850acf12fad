//! Micro-benchmarks of the dG kernel engine: the sum-factorized operator
//! sweeps behind both solvers' RHS hot loops, at the paper's production
//! degrees (N=3 tricubic advection, N=6 seismic), each measured against
//! the retained `apply_axis` oracle path in the same run.
//!
//! Plain `Instant`-based timing over batches of synthetic elements;
//! deterministic data, no external crates. Each oracle/engine pair is
//! measured in interleaved reps with the best (minimum) time per side, so
//! machine noise hits both sides equally and the speedup ratios stay
//! stable run-to-run.
//!
//! Besides the human-readable table on stdout, the binary writes
//! `BENCH_dg.json` at the repo root: per-kernel best microseconds and
//! element throughput, with the previous run's table preserved under
//! `"prev"` (same depth-1 cap as `BENCH_core.json`; the longer
//! trajectory goes to `results/bench_history.jsonl` for the
//! `bench_sentinel` gate). CI gates on the fused N=3 volume RHS being at
//! least 2x the oracle path recorded in the same file.

use std::hint::black_box;
use std::time::Instant;

use forust_bench::sentinel;
use forust_comm::SerialComm;
use forust_dg::kernels::{self, KernelWorkspace};
use forust_dg::real::demote_slice;
use forust_dg::{FaceOp, RefElement};
use forust_obs::metrics::{MetricsReport, Registry};

fn time_us(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e6
}

/// Best (minimum) wall times of two kernels measured in **interleaved**
/// reps (a, b, a, b, ...). Scheduling or frequency noise on a shared
/// machine only ever *adds* time, so the minimum is the robust estimate
/// of true kernel cost; interleaving keeps both sides in the same noise
/// environment. Timing the sides in separate back-to-back blocks lets
/// drift between the blocks skew the a/b ratio the CI gates on.
fn paired_best_us(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut ta = f64::MAX;
    let mut tb = f64::MAX;
    for _ in 0..reps {
        ta = ta.min(time_us(&mut a));
        tb = tb.min(time_us(&mut b));
    }
    (ta, tb)
}

/// One benchmark record: kernel, degree, batch size, best wall time over
/// the batch, and element throughput.
struct Record {
    name: String,
    degree: usize,
    np: usize,
    elements: usize,
    best_us: f64,
    elems_per_s: f64,
}

fn record(
    records: &mut Vec<Record>,
    name: String,
    degree: usize,
    np: usize,
    elements: usize,
    us: f64,
) {
    let eps = elements as f64 / (us * 1e-6);
    println!("{name:<28} N={degree} {elements:>5} elem {us:>10.1} us {eps:>12.0} elem/s");
    records.push(Record {
        name,
        degree,
        np,
        elements,
        best_us: us,
        elems_per_s: eps,
    });
}

/// Benchmark an oracle/engine kernel pair with interleaved reps and push
/// both records.
#[allow(clippy::too_many_arguments)]
fn run_pair(
    records: &mut Vec<Record>,
    name_a: String,
    name_b: String,
    degree: usize,
    np: usize,
    elements: usize,
    reps: usize,
    a: impl FnMut(),
    b: impl FnMut(),
) {
    let (us_a, us_b) = paired_best_us(reps, a, b);
    record(records, name_a, degree, np, elements, us_a);
    record(records, name_b, degree, np, elements, us_b);
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
/// from a previous `BENCH_dg.json` (mini text extraction, no JSON parser;
/// the current run's fields precede `"prev"`, so first occurrence wins —
/// and the previous file's own `"prev"` is never re-extracted, capping
/// the nesting at depth 1).
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
    s.push_str("  \"bench\": \"bench_dg\",\n");
    s.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    // Pool width and physical core count, as in BENCH_core.json.
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
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"degree\": {}, \"np\": {}, \"elements\": {}, \
             \"best_us\": {:.2}, \"elems_per_s\": {:.0}}}{}\n",
            r.name,
            r.degree,
            r.np,
            r.elements,
            r.best_us,
            r.elems_per_s,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
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
    std::fs::write(path, s).expect("write BENCH_dg.json");
}

/// Deterministic synthetic data (no RNG crates): smooth-ish nodal values,
/// diagonally dominant inverse Jacobians, bounded node positions.
fn synth_field(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 31 + seed * 17) % 97) as f64 * 0.0137 - 0.63)
        .collect()
}

/// Synthetic velocity field. Deliberately *not* inlined: the pre-engine
/// solver evaluated its velocity through a `fn([f64; 3]) -> [f64; 3]`
/// pointer at every node of every stage, and the oracle side of the
/// volume-RHS pair reproduces that cost; the engine side reads the
/// velocities cached at "mesh build" like the solvers do.
#[inline(never)]
fn synth_velocity(x: [f64; 3]) -> [f64; 3] {
    [
        0.3 * x[1] - x[2],
        0.1 * x[0] * x[2] + 0.05,
        x[0] - 0.2 * x[1],
    ]
}

fn synth_metrics(n: usize) -> (Vec<[[f64; 3]; 3]>, Vec<[f64; 3]>) {
    let inv: Vec<[[f64; 3]; 3]> = (0..n)
        .map(|i| {
            let mut m = [[0.0; 3]; 3];
            for (r, row) in m.iter_mut().enumerate() {
                for (c, x) in row.iter_mut().enumerate() {
                    let off = ((i * 7 + r * 3 + c) % 13) as f64 * 0.02;
                    *x = if r == c { 1.0 + off } else { off - 0.12 };
                }
            }
            m
        })
        .collect();
    let pos: Vec<[f64; 3]> = (0..n)
        .map(|i| {
            [
                ((i % 11) as f64) * 0.1 - 0.5,
                ((i % 7) as f64) * 0.1 - 0.3,
                ((i % 5) as f64) * 0.2 - 0.4,
            ]
        })
        .collect();
    (inv, pos)
}

/// All kernels at one degree over a batch of `elements` elements.
fn bench_degree(records: &mut Vec<Record>, degree: usize, elements: usize, reps: usize) {
    let re = RefElement::new(degree);
    let np = re.np;
    let npe = np * np * np;
    let npf = np * np;

    let fields = synth_field(elements * npe, degree);
    let (inv, pos) = synth_metrics(elements * npe);
    let velf: fn([f64; 3]) -> [f64; 3] = synth_velocity;
    // The engine's velocity cache, built once like the solvers do at mesh
    // build; the SoA planes below pack it with the metric for the fused
    // kernel.
    let vel: Vec<[f64; 3]> = pos.iter().map(|&x| velf(x)).collect();
    let mut metr_soa = vec![0.0; elements * 9 * npe];
    let mut vel_soa = vec![0.0; elements * 3 * npe];
    for e in 0..elements {
        kernels::pack_volume_soa(
            &inv[e * npe..(e + 1) * npe],
            &vel[e * npe..(e + 1) * npe],
            &mut metr_soa[e * 9 * npe..(e + 1) * 9 * npe],
            &mut vel_soa[e * 3 * npe..(e + 1) * 3 * npe],
        );
    }
    let mut ws = KernelWorkspace::new();
    ws.configure(npe, npf, 9);
    let mut out = vec![0.0; npe];
    let mut out2 = vec![0.0; npe];

    // --- volume RHS: oracle (allocating apply_axis gradient, fn-pointer
    // velocity per node, separate contraction loop — the pre-engine solver
    // path) vs the fused kernel over cached SoA planes.
    run_pair(
        records,
        format!("volume_rhs_apply_axis_n{degree}"),
        format!("volume_rhs_fused_n{degree}"),
        degree,
        np,
        elements,
        reps,
        || {
            let mut acc = 0.0;
            for e in 0..elements {
                let ce = &fields[e * npe..(e + 1) * npe];
                let einv = &inv[e * npe..(e + 1) * npe];
                let epos = &pos[e * npe..(e + 1) * npe];
                let grads = re.gradient(ce, 3);
                for v in 0..npe {
                    let u = velf(epos[v]);
                    let mut adv = 0.0;
                    for i in 0..3 {
                        let mut gi = 0.0;
                        for r in 0..3 {
                            gi += einv[v][r][i] * grads[r][v];
                        }
                        adv += u[i] * gi;
                    }
                    out[v] = -adv;
                }
                acc += out[0];
            }
            black_box(acc);
        },
        || {
            let mut acc = 0.0;
            for e in 0..elements {
                kernels::advect_volume_rhs(
                    &re.diff,
                    np,
                    &fields[e * npe..(e + 1) * npe],
                    &metr_soa[e * 9 * npe..(e + 1) * 9 * npe],
                    &vel_soa[e * 3 * npe..(e + 1) * 3 * npe],
                    &mut ws.grad[..3 * npe],
                    &mut out2,
                );
                acc += out2[0];
            }
            black_box(acc);
        },
    );

    // --- bare axis sweeps: oracle vs engine, all three axes.
    let mut axis_out = vec![0.0; npe];
    run_pair(
        records,
        format!("apply_axis_oracle_n{degree}"),
        format!("apply_axis_into_n{degree}"),
        degree,
        np,
        elements,
        reps,
        || {
            let mut acc = 0.0;
            for e in 0..elements {
                let ce = &fields[e * npe..(e + 1) * npe];
                for axis in 0..3 {
                    let g = re.apply_axis(&re.diff, ce, 3, axis);
                    acc += g[0];
                }
            }
            black_box(acc);
        },
        || {
            let mut acc = 0.0;
            for e in 0..elements {
                let ce = &fields[e * npe..(e + 1) * npe];
                for axis in 0..3 {
                    kernels::apply_axis_into(&re.diff, np, 3, axis, ce, &mut axis_out);
                    acc += axis_out[0];
                }
            }
            black_box(acc);
        },
    );

    // --- 9-field batched gradient (the seismic volume sweep) vs nine
    // oracle gradients. Batch is smaller: 9x the data per element.
    let nseis = (elements / 8).max(8);
    let seis_fields = synth_field(nseis * 9 * npe, degree + 1);
    run_pair(
        records,
        format!("gradient_9f_oracle_n{degree}"),
        format!("gradient_9f_batched_n{degree}"),
        degree,
        np,
        nseis,
        reps,
        || {
            let mut acc = 0.0;
            for e in 0..nseis {
                let base = e * 9 * npe;
                for c in 0..9 {
                    let g = re.gradient(&seis_fields[base + c * npe..base + (c + 1) * npe], 3);
                    acc += g[0][0];
                }
            }
            black_box(acc);
        },
        || {
            let mut acc = 0.0;
            for e in 0..nseis {
                let base = e * 9 * npe;
                kernels::batched_gradient_into(
                    &re.diff,
                    np,
                    3,
                    &seis_fields[base..base + 9 * npe],
                    9,
                    &mut ws.grad[..9 * 3 * npe],
                );
                acc += ws.grad[0];
            }
            black_box(acc);
        },
    );

    // --- the same production gradient at the device tier's precision:
    // `batched_gradient_any::<f32>` over demoted operator and fields.
    let mut diff32: Vec<f32> = Vec::new();
    demote_slice(&re.diff.data, &mut diff32);
    let mut seis32: Vec<f32> = Vec::new();
    demote_slice(&seis_fields, &mut seis32);
    let mut grad32 = vec![0.0f32; 9 * 3 * npe];
    let mut best_us = f64::MAX;
    for _ in 0..reps {
        best_us = best_us.min(time_us(&mut || {
            let mut acc = 0.0f32;
            for e in 0..nseis {
                let fields = &seis32[e * 9 * npe..(e + 1) * 9 * npe];
                kernels::batched_gradient_any(&diff32, np, 3, fields, 9, &mut grad32);
                acc += grad32[0];
            }
            black_box(acc);
        }));
    }
    let name = format!("gradient_9f_batched_f32_n{degree}");
    record(records, name, degree, np, nseis, best_us);

    // --- face operators: the structured `FaceOp` the engines apply (an
    // index gather across a rotated same-size face; gather plus two
    // tensor sweeps across a 2:1 face) against the same operator as a
    // dense `npf x npf` matvec.
    let face = synth_field(npf, degree + 3);
    let mut face_out = vec![0.0; npf];
    let mut face_tmp = vec![0.0; npf];
    let nfaces = elements * 6;
    let tab = &re.face_tables;
    let rotated = FaceOp::orientation([true, false], true);
    for (kind, half) in [("gather", None), ("tensor", Some([1, 0]))] {
        let op = FaceOp {
            orient: rotated,
            half,
        };
        let dense = op.to_dense(tab, 3);
        let mut dense_out = vec![0.0; npf];
        run_pair(
            records,
            format!("face_dense_{kind}_n{degree}"),
            format!("face_{kind}_n{degree}"),
            degree,
            np,
            elements,
            reps,
            || {
                let mut acc = 0.0;
                for _ in 0..nfaces {
                    dense.matvec_into(black_box(&face), &mut dense_out);
                    acc += dense_out[0];
                }
                black_box(acc);
            },
            || {
                let mut acc = 0.0;
                for _ in 0..nfaces {
                    op.apply(tab, 3, black_box(&face), &mut face_tmp, &mut face_out);
                    acc += face_out[0];
                }
                black_box(acc);
            },
        );
    }
}

fn main() {
    const REPS: usize = 21;
    let mut records: Vec<Record> = Vec::new();

    forust_obs::install(0);
    let t_wall = Instant::now();
    let outer = forust_obs::span!("bench.main");

    // The paper's production degrees: N=3 (tricubic advection, np=4,
    // const-generic instance) and N=6 (seismic, np=7, const-generic
    // instance). N=5 (np=6) rides along as a runtime-fallback data point.
    let sec = forust_obs::span!("bench.n3");
    bench_degree(&mut records, 3, 256, REPS);
    drop(sec);
    let sec = forust_obs::span!("bench.n5");
    bench_degree(&mut records, 5, 64, REPS);
    drop(sec);
    let sec = forust_obs::span!("bench.n6");
    bench_degree(&mut records, 6, 48, REPS);
    drop(sec);

    drop(outer);
    let total_wall_s = t_wall.elapsed().as_secs_f64();

    // Speedup summary (the CI gate reads these from the JSON).
    let lookup = |name: &str| -> f64 {
        records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.best_us)
            .expect("kernel record")
    };
    println!();
    for degree in [3usize, 5, 6] {
        let ratio = lookup(&format!("volume_rhs_apply_axis_n{degree}"))
            / lookup(&format!("volume_rhs_fused_n{degree}"));
        println!("volume RHS N={degree}: fused is {ratio:.2}x the apply_axis path");
    }
    println!();
    for degree in [3usize, 5, 6] {
        let ratio = lookup(&format!("gradient_9f_batched_n{degree}"))
            / lookup(&format!("gradient_9f_batched_f32_n{degree}"));
        println!("9-field gradient N={degree}: f32 is {ratio:.2}x the f64 engine");
    }

    let obs_comm = SerialComm::new();
    let report = Registry::collect(&obs_comm);
    println!();
    print!("{}", report.phase_table(total_wall_s));
    let coverage = report.coverage(total_wall_s);
    assert!(
        coverage > 0.99 && coverage <= 1.0 + 1e-9,
        "phase self-times cover {:.2}% of wall time (expected >99%)",
        coverage * 100.0
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let path = root.join("BENCH_dg.json");
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
        .map(|r| (r.name.clone(), r.best_us))
        .collect();
    let line = sentinel::history_line("bench_dg", &git_rev(), unix_s, &kernels);
    let hist = root.join(sentinel::HISTORY_REL_PATH);
    sentinel::append_history(&hist, &line);
    println!("appended {}", hist.display());
}
