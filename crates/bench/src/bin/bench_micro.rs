//! Micro-benchmarks of the layers under the paper's whole-run claims,
//! each row next to the retained oracle or baseline it is judged
//! against in the same run:
//!
//! - the core forest algorithms (the building blocks whose scaling Fig. 4
//!   measures) on the level-2 and level-3 fractal forests, one rank, with
//!   the Balance/Ghost/Nodes rows interleaved against their oracles;
//! - octant keys: Morton sums and point location over the level-3 forest;
//! - the split-phase halo exchange on 4 ranks, with bytes on the wire;
//! - the 4-rank advect step with the worker pool at 1 and 4 lanes, the
//!   1-lane step interleaved against the pre-engine `step_reference`;
//! - one mantle Stokes operator application on the `mantle_picard`
//!   workload's 1728-element mesh, one rank;
//! - the dG kernel engine (DESIGN.md §7d) at N=3/5/6 against the
//!   `apply_axis` oracle path, the f32 gradient, and the face operators.
//!
//! Every row is a best-of over its reps, interleaved for pairs, with a
//! barrier before every rep in the SPMD sections. The rows and the
//! bench thread's phase table go to `BENCH_micro.json` at the repo root
//! (see `forust_bench::Micro`); the CI bench-smoke job gates on them.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver};
use forust_bench::{best_us_sync, Micro};
use forust_comm::{run_spmd, run_spmd_with, Communicator, ReliableComm, ThreadComm};
use forust_dg::halo::HaloExchange;
use forust_dg::kernels::{self, KernelWorkspace};
use forust_dg::mesh::DgMesh;
use forust_dg::real::demote_slice;
use forust_dg::{FaceOp, RefElement};
use forust_geom::{Mapping, ShellMap};
use forust_mantle::{MantleConfig, MantleSolver};
use forust_obs::metrics::Registry;

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

/// Refine, Balance, Ghost, Nodes and Partition on the fractal forest of
/// `level`, the Balance and Nodes rows interleaved with their oracles,
/// and Ghost too where `ghost_oracle` says so.
fn bench_forest(bench: &mut Micro, level: u8, reps: usize, ghost_oracle: bool) -> Forest<D3> {
    let (comm, forest) = fractal_forest(level);
    let n = forest.num_local();
    bench.run(format!("refine_fractal_l{level}"), n, reps, || {
        let n = fractal_forest(level).1.num_local();
        assert!(n > 0);
    });
    bench.run_interleaved(
        [
            format!("balance_full_l{level}"),
            format!("balance_oracle_l{level}"),
        ],
        n,
        reps,
        [
            &mut || forest.clone().balance(&comm, BalanceType::Full),
            &mut || forest.clone().balance_ripple(&comm, BalanceType::Full),
        ],
    );
    let mut balanced = forest.clone();
    balanced.balance(&comm, BalanceType::Full);
    let nb = balanced.num_local();
    let mut ghost = || {
        let g = balanced.ghost(&comm);
        assert!(g.ghosts.is_empty());
    };
    if ghost_oracle {
        bench.run_interleaved(
            [format!("ghost_l{level}"), format!("ghost_oracle_l{level}")],
            nb,
            reps,
            [&mut ghost, &mut || {
                let g = balanced.ghost_reference(&comm);
                assert!(g.ghosts.is_empty());
            }],
        );
    } else {
        bench.run(format!("ghost_l{level}"), nb, reps, ghost);
    }
    let gl = balanced.ghost(&comm);
    bench.run_interleaved(
        [
            format!("nodes_degree1_l{level}"),
            format!("nodes_oracle_l{level}"),
        ],
        nb,
        reps,
        [
            &mut || {
                let n = balanced.nodes(&comm, &gl, 1);
                assert!(n.num_local() > 0);
            },
            &mut || {
                let n = balanced.nodes_reference(&comm, &gl, 1);
                assert!(n.num_local() > 0);
            },
        ],
    );
    bench.run(format!("partition_l{level}"), nb, reps, || {
        let mut f = balanced.clone();
        f.partition(&comm);
    });
    balanced
}

/// The per-RK-stage communication of the dG solvers on 4 ranks over the
/// level-3 fractal forest: full-payload ghost exchange vs the face-trace
/// pipeline, with bytes on the wire per stage, the same trace exchange
/// behind `ReliableComm` (the fault-free cost of resilience framing),
/// and the non-overlappable send-side cost of the split begin.
fn bench_halo(bench: &mut Micro) {
    const REPS: usize = 3;
    let halo = run_spmd_with(4, None, ReliableComm::new, |rcomm| {
        let comm = rcomm.inner();
        // Each SPMD rank is its own OS thread with its own thread-local
        // recorder: install one per rank so the halo spans land somewhere
        // and worker-pool busy counters attribute to the right rank. The
        // cross-rank report is returned for the no-cross-talk check.
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

        // The begin row is timed inside its call: the outer timer also
        // covers the finish.
        let mut begin_us = f64::MAX;
        let [full_us, trace_us, trace_rel_us, _] = best_us_sync(
            comm,
            REPS,
            [
                &mut || {
                    let g = mesh.exchange_element_data(comm, &u, npe);
                    assert_eq!(g.len(), nghost * npe);
                },
                &mut || drop(halo.exchange(comm, &u, 1)),
                &mut || drop(halo.exchange(rcomm, &u, 1)),
                &mut || {
                    let t0 = Instant::now();
                    let pending = halo.begin(comm, &u, 1);
                    begin_us = begin_us.min(t0.elapsed().as_secs_f64() * 1e6);
                    drop(pending.finish());
                },
            ],
        );
        let rows = [
            ("halo_full_exchange", full_us, Some(full_bytes)),
            ("halo_trace_exchange", trace_us, Some(trace_bytes)),
            ("halo_trace_reliable", trace_rel_us, Some(trace_bytes)),
            ("halo_begin", begin_us, None),
        ];
        let rank_report = Registry::collect(comm);
        forust_obs::uninstall();
        (octants, rows, rank_report)
    });
    let (octants, rows, ref spmd_report) = halo[0];
    // The SPMD ranks' spans must have landed in the rank recorders.
    assert_eq!(spmd_report.ranks, 4, "SPMD report must span all 4 ranks");
    for phase in ["halo.begin", "halo.finish", "forest.balance"] {
        assert!(
            spmd_report.phase(phase).is_some(),
            "phase {phase} missing from the SPMD rank report"
        );
    }
    for (name, us, bytes) in rows {
        bench.record(name, octants, us, bytes);
    }
}

/// The same 4-rank advect step with the per-rank worker pool pinned to 1
/// and to 4 lanes. `set_worker_override` between the two `run_spmd`
/// calls is enough: each call spawns fresh rank threads, which build
/// their pools lazily at the overridden width. On a multi-core host the
/// w4 step must beat w1 (interior RHS chunks run on workers while the
/// ghost exchange is in flight); CI gates the ratio where the runner has
/// the cores for it.
fn bench_spmd_step(bench: &mut Micro) {
    for (name, workers) in [("advect_step_spmd_w1", 1), ("advect_step_spmd_w4", 4)] {
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
            let s = RefCell::new(s);
            let mut step = || s.borrow_mut().step(comm);
            // One lane: the engine step against the pre-engine oracle
            // step, interleaved on the same solver.
            let [us, reference_us] = if workers == 1 {
                let mut reference = || s.borrow_mut().step_reference(comm);
                best_us_sync(comm, 7, [&mut step, &mut reference])
            } else {
                [best_us_sync(comm, 7, [&mut step])[0], 0.0]
            };
            (elems, us, reference_us)
        });
        forust_pool::set_worker_override(None);
        let (elems, us, reference_us) = out[0];
        bench.record(name, elems, us, None);
        if workers == 1 {
            bench.record("advect_step_reference_w1", elems, reference_us, None);
        }
    }
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

/// All dG kernels at one degree over a batch of `elements` elements.
fn bench_degree(bench: &mut Micro, degree: usize, elements: usize, reps: usize) {
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
    bench.run_interleaved(
        [
            format!("volume_rhs_apply_axis_n{degree}"),
            format!("volume_rhs_fused_n{degree}"),
        ],
        elements,
        reps,
        [
            &mut || {
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
            &mut || {
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
        ],
    );

    // --- bare axis sweeps: oracle vs engine, all three axes.
    let mut axis_out = vec![0.0; npe];
    bench.run_interleaved(
        [
            format!("apply_axis_oracle_n{degree}"),
            format!("apply_axis_into_n{degree}"),
        ],
        elements,
        reps,
        [
            &mut || {
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
            &mut || {
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
        ],
    );

    // --- 9-field batched gradient (the seismic volume sweep) vs nine
    // oracle gradients. Batch is smaller: 9x the data per element.
    let nseis = (elements / 8).max(8);
    let seis_fields = synth_field(nseis * 9 * npe, degree + 1);
    bench.run_interleaved(
        [
            format!("gradient_9f_oracle_n{degree}"),
            format!("gradient_9f_batched_n{degree}"),
        ],
        nseis,
        reps,
        [
            &mut || {
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
            &mut || {
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
        ],
    );

    // --- the 9-field sweep of each axis alone, at the const-`np` degrees:
    // every axis runs the same products, so the slowest may cost at most
    // 2x the fastest (the CI gate) — a runtime trip count shows here.
    if kernels::SPECIALIZED_NP.contains(&np) {
        let (fields, diff) = (&seis_fields, &re.diff);
        let sweep = |axis: usize| {
            let mut out = vec![0.0; npe];
            move || {
                let mut acc = 0.0;
                for f in fields.chunks_exact(npe) {
                    kernels::apply_axis_into(diff, np, 3, axis, f, &mut out);
                    acc += out[0];
                }
                black_box(acc);
            }
        };
        let (mut x, mut y, mut z) = (sweep(0), sweep(1), sweep(2));
        bench.run_interleaved(
            [0, 1, 2].map(|axis| format!("sweep_axis{axis}_n{degree}")),
            nseis,
            reps,
            [&mut x, &mut y, &mut z],
        );
    }

    // --- the same production gradient at the device tier's precision:
    // `batched_gradient_any::<f32>` over demoted operator and fields.
    let mut diff32: Vec<f32> = Vec::new();
    demote_slice(&re.diff.data, &mut diff32);
    let mut seis32: Vec<f32> = Vec::new();
    demote_slice(&seis_fields, &mut seis32);
    let mut grad32 = vec![0.0f32; 9 * 3 * npe];
    bench.run(
        format!("gradient_9f_batched_f32_n{degree}"),
        nseis,
        reps,
        || {
            let mut acc = 0.0f32;
            for e in 0..nseis {
                let fields = &seis32[e * 9 * npe..(e + 1) * 9 * npe];
                kernels::batched_gradient_any(&diff32, np, 3, fields, 9, &mut grad32);
                acc += grad32[0];
            }
            black_box(acc);
        },
    );

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
        bench.run_interleaved(
            [
                format!("face_dense_{kind}_n{degree}"),
                format!("face_{kind}_n{degree}"),
            ],
            elements,
            reps,
            [
                &mut || {
                    let mut acc = 0.0;
                    for _ in 0..nfaces {
                        dense.matvec_into(black_box(&face), &mut dense_out);
                        acc += dense_out[0];
                    }
                    black_box(acc);
                },
                &mut || {
                    let mut acc = 0.0;
                    for _ in 0..nfaces {
                        op.apply(tab, 3, black_box(&face), &mut face_tmp, &mut face_out);
                        acc += face_out[0];
                    }
                    black_box(acc);
                },
            ],
        );
    }
}

/// One `StokesFem::apply` (element kernel, exact-sum max, fixed-point
/// scatter, hanging collect, assembly) on the mesh the `mantle_picard`
/// end-to-end workload solves on: level 2 refined to 3 by the solver's
/// temperature and weak-zone criteria, 1728 elements, on one rank.
fn bench_mantle_apply(bench: &mut Micro) {
    let comm = ThreadComm::create(1).pop().unwrap();
    let conn = Arc::new(builders::cubed_sphere());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), &comm, 2);
    let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
    let config = MantleConfig {
        max_level: 3,
        ..Default::default()
    };
    let s = MantleSolver::new(&comm, forest, map, config);
    let n = s.fem.vec_len();
    let x: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 97.0 - 0.5).collect();
    let mut y = vec![0.0; n];
    bench.run("mantle_apply_l3", s.fem.num_elements(), 51, || {
        s.fem.apply(&comm, &x, &mut y);
        black_box(&y);
    });
}

fn main() {
    // The forest bench thread's spans (and the forest ops nested under
    // them) land in the recorder `Micro::start` installs.
    let mut bench = Micro::start();

    let sec = forust_obs::span!("bench.l2");
    bench_forest(&mut bench, 2, 11, false);
    drop(sec);
    let sec = forust_obs::span!("bench.l3");
    let balanced3 = bench_forest(&mut bench, 3, 5, true);
    drop(sec);

    // Pure octant-key throughput: sum of Morton keys over the forest,
    // and point location of every leaf in its tree.
    let sec = forust_obs::span!("bench.octant_kernels");
    let octs: Vec<_> = balanced3.iter_local().map(|(_, o)| *o).collect();
    bench.run("morton_sum_l3", octs.len(), 11, || {
        let sum: u64 = octs.iter().map(|o| o.morton()).sum();
        assert!(sum > 0);
    });
    let trees: Vec<Vec<_>> = (0..balanced3.conn.num_trees())
        .map(|t| balanced3.tree(t as u32).to_vec())
        .collect();
    bench.run("find_containing_l3", octs.len(), 11, || {
        let mut hits = 0usize;
        for tree in &trees {
            for o in tree {
                if forust::linear::find_containing(tree, o).is_some() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, octs.len());
    });
    drop(sec);

    let sec = forust_obs::span!("bench.halo_spmd");
    bench_halo(&mut bench);
    drop(sec);
    let sec = forust_obs::span!("bench.spmd_compute");
    bench_spmd_step(&mut bench);
    drop(sec);
    bench_mantle_apply(&mut bench);

    // The paper's production degrees: N=3 (tricubic advection, np=4,
    // const-generic instance) and N=6 (seismic, np=7, const-generic
    // instance). N=5 (np=6) rides along as a runtime-fallback data point.
    for (degree, elements, name) in [
        (3, 256, "bench.n3"),
        (5, 64, "bench.n5"),
        (6, 48, "bench.n6"),
    ] {
        let _sec = forust_obs::span!(name);
        bench_degree(&mut bench, degree, elements, 21);
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let report = bench.finish(&root.join("BENCH_micro.json"));
    // The halo spans only ever ran on SPMD rank threads, so they must not
    // have leaked into the bench thread's recorder.
    assert!(
        report.phase("halo.begin").is_none(),
        "SPMD rank spans leaked into the main-thread recorder"
    );
}
