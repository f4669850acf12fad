//! The shared split-phase driver against its specification: a
//! [`Stepper`] step with a toy element kernel must be bit-equal to the
//! plain `lserk_step` loop around a blocking exchange and a serial sweep
//! — at 1, 2 and 4 pool lanes and on 1 and 3 ranks — and must not regrow
//! a lane workspace once warmed up.
//!
//! One test in its own binary: the worker override is process-global.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{run_spmd, Communicator};
use forust_dg::lserk::lserk_step;
use forust_dg::mesh::{DgMesh, ElemRef, FaceConn};
use forust_dg::{ElementKernel, FaceOp, HaloData, HaloExchange, KernelWorkspace, Stepper};

const NCOMP: usize = 2;
const STEPS: usize = 3;

/// Linear relaxation plus a time-dependent source in the volume, and on
/// every face a pull toward the neighbor's trace (interpolated across
/// conforming and coarse faces, the first fine neighbor's across 2:1
/// faces). Reads ghosts wherever the partition cuts, through the lane
/// workspace, like a real kernel.
struct Toy<'a> {
    mesh: &'a DgMesh<D3>,
    face_idx: Vec<Vec<usize>>,
}

impl ElementKernel<D3> for Toy<'_> {
    const NCOMP: usize = NCOMP;
    const GRAIN: usize = 3;

    fn rhs_element(
        &self,
        q: &[f64],
        e: usize,
        t: f64,
        traces: Option<&HaloData<'_, D3>>,
        ws: &mut KernelWorkspace,
        out_e: &mut [f64],
    ) {
        let npe = self.mesh.re.nodes_per_elem(3);
        let npf = self.mesh.re.nodes_per_face(3);
        let qe = &q[e * npe * NCOMP..(e + 1) * npe * NCOMP];
        for c in 0..NCOMP {
            for n in 0..npe {
                out_e[c * npe + n] = -0.5 * qe[c * npe + n] + t * (c + 1) as f64;
            }
        }
        let KernelWorkspace { face_b, face_c, .. } = ws;
        let tab = &self.mesh.re.face_tables;
        for f in 0..6 {
            let (from, nbr_face, op) = match self.mesh.face(e, f) {
                FaceConn::Boundary => continue,
                FaceConn::Conforming { nbr, nbr_face, op }
                | FaceConn::CoarseNbr { nbr, nbr_face, op } => (*nbr, *nbr_face, *op),
                FaceConn::FineNbrs { subs } => (subs[0].nbr, subs[0].nbr_face, FaceOp::IDENTITY),
            };
            for c in 0..NCOMP {
                let theirs = &mut face_b[..npf];
                match from {
                    ElemRef::Local(i) => {
                        let slab = &q[(i as usize * NCOMP + c) * npe..][..npe];
                        op.apply_indexed(tab, 3, slab, &self.face_idx[nbr_face], face_c, theirs);
                    }
                    ElemRef::Ghost(g) => {
                        let (trace, pos) = traces
                            .expect("interior element classified with a ghost face")
                            .face_source(g as usize, nbr_face, c);
                        op.apply_indexed(tab, 3, trace, pos, face_c, theirs);
                    }
                }
                for (j, &v) in self.face_idx[f].iter().enumerate() {
                    out_e[c * npe + v] += 0.1 * (theirs[j] - qe[c * npe + v]);
                }
            }
        }
    }
}

/// Adapted rotated-cubes mesh: inter-tree rotations, 2:1 faces and (on
/// more than one rank) ghost faces of every kind.
fn rotcubes_mesh<C: Communicator>(comm: &C, degree: usize) -> DgMesh<D3> {
    let conn = Arc::new(builders::rotcubes6());
    let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    forest.refine(comm, true, |t, o| t == 0 && o.level < 2 && o.y == 0);
    forest.balance(comm, BalanceType::Full);
    forest.partition(comm);
    DgMesh::build(&forest, comm, degree)
}

/// State bits after `STEPS` steps through the stepper and through the
/// specification, per rank.
fn run(ranks: usize, workers: usize) -> Vec<(Vec<u64>, Vec<u64>)> {
    forust_pool::set_worker_override(Some(workers));
    let out = run_spmd(ranks, |comm| {
        let mesh = rotcubes_mesh(comm, 2);
        let halo = HaloExchange::build(&mesh);
        let (npe, npf) = (mesh.re.nodes_per_elem(3), mesh.re.nodes_per_face(3));
        let nel = mesh.num_elements();
        let toy = Toy {
            mesh: &mesh,
            face_idx: mesh.re.face_node_table(3),
        };
        let q0: Vec<f64> = mesh
            .elements
            .iter()
            .flat_map(|(t, o)| {
                let id = *t as f64 + (o.morton() % 4096) as f64 * 1e-3;
                (0..NCOMP * npe).map(move |i| (id + i as f64 * 0.01).sin())
            })
            .collect();
        let dt = 0.05;

        let mut q = q0.clone();
        let mut stepper = Stepper::new(npe, npf, NCOMP);
        for s in 0..STEPS {
            stepper.step(comm, &halo, &mut q, s as f64 * dt, dt, &toy);
            assert_eq!(stepper.grow_events(), 0, "lane scratch regrew in step {s}");
        }

        let mut spec = q0;
        let mut resid = vec![0.0; spec.len()];
        let mut ws = KernelWorkspace::new();
        ws.configure(npe, npf, NCOMP);
        for s in 0..STEPS {
            lserk_step(&mut spec, &mut resid, s as f64 * dt, dt, |t, u, out| {
                let traces = halo.exchange(comm, u, NCOMP);
                for (e, out_e) in out.chunks_mut(npe * NCOMP).enumerate().take(nel) {
                    toy.rhs_element(u, e, t, Some(&traces), &mut ws, out_e);
                }
            });
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (bits(&q), bits(&spec))
    });
    forust_pool::set_worker_override(None);
    out
}

#[test]
fn stepper_is_bit_equal_to_lserk_step_at_every_width_and_rank_count() {
    for ranks in [1usize, 3] {
        for workers in [1usize, 2, 4] {
            for (rank, (got, want)) in run(ranks, workers).iter().enumerate() {
                assert!(!got.is_empty(), "rank {rank} of {ranks} owns no element");
                assert!(
                    got == want,
                    "{ranks} ranks, {workers} workers: rank {rank} diverged from lserk_step"
                );
            }
        }
    }
}
