//! The single-precision halo wire lane: the f32 trace exchange must
//! deliver exactly the demoted f64 traces, put strictly fewer than
//! 0.55x the f64 lane's bytes on the wire (the Fig.-10 transfer-cost
//! argument: half the payload, one shared mask byte), and survive wire
//! corruption under the reliable layer's CRC framing bitwise intact.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{
    run_spmd, run_spmd_with, ChaosComm, CommConfig, Communicator, FaultPlan, ReliableComm,
    RetryPolicy,
};
use forust_dg::mesh::{DgMesh, ElemRef, FaceConn};
use forust_dg::{HaloExchange, TAG_HALO_EXCHANGE, TAG_HALO_EXCHANGE_F32};

const NCOMP: usize = 9;

/// Adapted rotated-cubes mesh: inter-tree rotations, 2:1 mortars and
/// (for ranks > 1) ghost faces of every kind.
fn rotcubes_mesh<C: Communicator>(comm: &C, degree: usize) -> DgMesh<D3> {
    let conn = Arc::new(builders::rotcubes6());
    let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    forest.refine(comm, true, |t, o| t == 0 && o.level < 2 && o.y == 0);
    forest.balance(comm, BalanceType::Full);
    forest.partition(comm);
    DgMesh::build(&forest, comm, degree)
}

/// Rank-independent synthetic field with a seed, so fuzz rounds differ.
fn synthetic_field(mesh: &DgMesh<D3>, npe: usize, seed: u64) -> Vec<f64> {
    let mut u = vec![0.0; mesh.num_elements() * npe * NCOMP];
    for (e, (t, o)) in mesh.elements.iter().enumerate() {
        let id = (*t as f64) + (o.morton() % (1 << 20)) as f64 * 1e-4 + o.level as f64;
        for c in 0..NCOMP {
            for n in 0..npe {
                u[(e * NCOMP + c) * npe + n] =
                    id + (c * npe + n) as f64 * 1e-3 + seed as f64 * 0.01;
            }
        }
    }
    u
}

/// For every ghost face read by a local element, the f32 trace must be
/// bitwise the demotion of the f64 trace; returns faces checked.
fn check_f32_matches_demoted_f64<C: Communicator>(comm: &C, seed: u64) -> u64 {
    let mesh = rotcubes_mesh(comm, 2);
    let npe = mesh.re.nodes_per_elem(3);
    let u = synthetic_field(&mesh, npe, seed);
    let halo = HaloExchange::build(&mesh);

    let d64 = halo.exchange(comm, &u, NCOMP);
    let u32: Vec<f32> = u.iter().map(|&x| x as f32).collect();
    let d32 = halo.begin::<f32, _>(comm, &u32, NCOMP).finish();

    let mut checked = 0u64;
    let mut o64: Vec<f64> = Vec::new();
    let mut o32: Vec<f32> = Vec::new();
    for e in 0..mesh.num_elements() {
        for f in 0..6 {
            let mut check = |g: u32, nbr_face: usize| {
                for c in 0..NCOMP {
                    d64.face_values(g as usize, nbr_face, c, &mut o64);
                    d32.face_values(g as usize, nbr_face, c, &mut o32);
                    assert_eq!(o64.len(), o32.len());
                    for (j, (&w, &v)) in o64.iter().zip(&o32).enumerate() {
                        assert_eq!(
                            (w as f32).to_bits(),
                            v.to_bits(),
                            "ghost {g} face {nbr_face} comp {c} node {j}: \
                             f32 trace {v} != demoted f64 {w}"
                        );
                    }
                }
                checked += 1;
            };
            match mesh.face(e, f) {
                FaceConn::Boundary => {}
                FaceConn::Conforming { nbr, nbr_face, .. }
                | FaceConn::CoarseNbr { nbr, nbr_face, .. } => {
                    if let ElemRef::Ghost(g) = nbr {
                        check(*g, *nbr_face);
                    }
                }
                FaceConn::FineNbrs { subs } => {
                    for sub in subs {
                        if let ElemRef::Ghost(g) = sub.nbr {
                            check(g, sub.nbr_face);
                        }
                    }
                }
            }
        }
    }
    checked
}

/// Acceptance criterion: the f32 exchange puts at most 0.55x the bytes
/// of the f64 trace exchange on the wire — asserted both from the
/// precomputed plan and from the actual per-tag `TrafficStats`.
#[test]
fn f32_exchange_halves_wire_bytes() {
    for ranks in [3usize, 5] {
        run_spmd(ranks, |comm| {
            let checked = check_f32_matches_demoted_f64(comm, 0);
            let total = comm.allreduce_sum_u64(checked);
            if comm.rank() == 0 {
                assert!(total > 0, "no ghost faces exercised on {ranks} ranks");
            }

            let mesh = rotcubes_mesh(comm, 2);
            let halo = HaloExchange::build(&mesh);
            let plan64 = comm.allreduce_sum_u64(halo.send_bytes_per_exchange(NCOMP));
            let plan32 = comm.allreduce_sum_u64(halo.send_bytes_per_exchange_f32(NCOMP));
            assert!(
                plan32 as f64 <= 0.55 * plan64 as f64,
                "planned f32 bytes {plan32} not below 0.55x of f64 {plan64}"
            );

            // One exchange per lane ran above; the per-tag stats must
            // show the same halving on the actual wire.
            let w64 = comm.allreduce_sum_u64(comm.stats().tag_traffic(TAG_HALO_EXCHANGE).bytes);
            let w32 = comm.allreduce_sum_u64(comm.stats().tag_traffic(TAG_HALO_EXCHANGE_F32).bytes);
            assert!(w64 > 0, "f64 lane sent nothing on {ranks} ranks");
            assert!(
                w32 as f64 <= 0.55 * w64 as f64,
                "wire f32 bytes {w32} not below 0.55x of f64 {w64}"
            );
        });
    }
}

/// Single-rank run: no ghosts, both lanes quiet, nothing panics.
#[test]
fn f32_exchange_serial_is_silent() {
    run_spmd(1, |comm| {
        let checked = check_f32_matches_demoted_f64(comm, 1);
        assert_eq!(checked, 0, "serial mesh grew a ghost layer");
        assert_eq!(comm.stats().tag_traffic(TAG_HALO_EXCHANGE_F32).bytes, 0);
    });
}

/// Fuzz the f32 wire format through the reliable layer: five rounds of
/// distinct synthetic fields over a corrupting transport. The CRC
/// framing must detect every mangled frame and the retransmit path must
/// heal it, so the delivered traces stay bitwise the demoted f64 values.
#[test]
fn f32_wire_survives_corruption_under_reliable_comm() {
    let healed = run_spmd_with(
        3,
        CommConfig::default(),
        |tc| {
            ReliableComm::new(
                ChaosComm::new(
                    tc,
                    FaultPlan::new(42)
                        .with_corruption(0.3)
                        .with_retransmit_corruption(0.0),
                ),
                RetryPolicy::default(),
            )
        },
        |comm| {
            for seed in 0..5u64 {
                check_f32_matches_demoted_f64(comm, seed);
            }
            comm.retry_counts()
                .iter()
                .find(|(k, _)| *k == "comm.retry.healed")
                .map(|&(_, v)| v)
                .unwrap_or(0)
        },
    );
    // Corruption at p=0.3 over five exchanges on three ranks must have
    // tripped the CRC at least once somewhere — otherwise this test is
    // not exercising the recovery path at all.
    let total: u64 = healed.iter().sum();
    assert!(total > 0, "no frame was ever corrupted: fuzz is toothless");
}
