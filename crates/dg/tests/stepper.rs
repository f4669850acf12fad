//! The shared split-phase driver against its specification: a
//! [`Stepper`] step must be bit-equal to the plain five-stage loop around
//! a blocking exchange and a serial element sweep — at 1, 2 and 4 pool
//! lanes and on 1 and 3 ranks — and must not regrow a lane workspace once
//! warmed up. One toy kernel, instantiated in both precisions the driver
//! is generic over: at f64 the specification is `lserk_step` itself, at
//! f32 the same loop written out around the f32 halo lane.
//!
//! One test in its own binary: the worker override is process-global.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{run_spmd, Communicator};
use forust_dg::lserk::{lserk_step, LSERK_A, LSERK_B, LSERK_C};
use forust_dg::mesh::{DgMesh, ElemRef, FaceConn};
use forust_dg::{
    FaceOp, FaceTables, HaloData, HaloExchange, HaloLane, KernelWorkspace, RhsKernel, Stepper,
};

const NCOMP: usize = 2;
const STEPS: usize = 3;

/// The neighbor a face pulls toward: across conforming and coarse faces
/// the one neighbor, across 2:1 faces the first fine one.
fn face_nbr(mesh: &DgMesh<D3>, e: usize, f: usize) -> Option<(ElemRef, usize, FaceOp)> {
    match mesh.face(e, f) {
        FaceConn::Boundary => None,
        FaceConn::Conforming { nbr, nbr_face, op } | FaceConn::CoarseNbr { nbr, nbr_face, op } => {
            Some((*nbr, *nbr_face, *op))
        }
        FaceConn::FineNbrs { subs } => Some((subs[0].nbr, subs[0].nbr_face, FaceOp::IDENTITY)),
    }
}

/// Linear relaxation plus a time-dependent source in the volume, and on
/// every face a pull toward the neighbor's trace (interpolated across
/// conforming and coarse faces), in precision `R`. Reads ghosts wherever
/// the partition cuts, through the lane workspace, like a real kernel.
struct Toy<'a, R> {
    mesh: &'a DgMesh<D3>,
    face_idx: Vec<Vec<usize>>,
    tab: FaceTables<R>,
}

impl<'a, R: HaloLane> Toy<'a, R> {
    fn new(mesh: &'a DgMesh<D3>) -> Self {
        Toy {
            mesh,
            face_idx: mesh.re.face_node_table(3),
            tab: mesh.re.face_tables.cast(),
        }
    }

    /// Rank-independent initial state.
    fn initial(&self) -> Vec<R> {
        let npe = self.mesh.re.nodes_per_elem(3);
        let state = |(t, o): &(u32, forust::octant::Octant<D3>)| {
            let id = *t as f64 + (o.morton() % 4096) as f64 * 1e-3;
            (0..NCOMP * npe).map(move |i| R::from_f64((id + i as f64 * 0.01).sin()))
        };
        self.mesh.elements.iter().flat_map(state).collect()
    }
}

impl<R: HaloLane> RhsKernel<D3> for Toy<'_, R> {
    type Real = R;
    const NCOMP: usize = NCOMP;
    const GRAIN: usize = 3;

    fn unit_len(&self) -> usize {
        self.mesh.re.nodes_per_elem(3) * NCOMP
    }

    fn new_scratch(&self) -> KernelWorkspace<R> {
        let re = &self.mesh.re;
        let mut ws = KernelWorkspace::new();
        ws.configure(re.nodes_per_elem(3), re.nodes_per_face(3), NCOMP);
        ws
    }

    fn rhs_unit(
        &self,
        q: &[R],
        e: usize,
        t: f64,
        traces: Option<&HaloData<'_, D3, R>>,
        ws: &mut KernelWorkspace<R>,
        out_e: &mut [R],
    ) {
        let npe = self.mesh.re.nodes_per_elem(3);
        let npf = self.mesh.re.nodes_per_face(3);
        let qe = &q[e * npe * NCOMP..(e + 1) * npe * NCOMP];
        let pull = R::from_f64(0.1);
        for c in 0..NCOMP {
            let src = R::from_f64(t * (c + 1) as f64);
            for n in 0..npe {
                out_e[c * npe + n] = -R::HALF * qe[c * npe + n] + src;
            }
        }
        let KernelWorkspace { face_b, face_c, .. } = ws;
        for f in 0..6 {
            let Some((from, nbr_face, op)) = face_nbr(self.mesh, e, f) else {
                continue;
            };
            for c in 0..NCOMP {
                let theirs = &mut face_b[..npf];
                match from {
                    ElemRef::Local(i) => {
                        let slab = &q[(i as usize * NCOMP + c) * npe..][..npe];
                        let idx = &self.face_idx[nbr_face];
                        op.apply_indexed(&self.tab, 3, slab, idx, face_c, theirs);
                    }
                    ElemRef::Ghost(g) => {
                        let (trace, pos) = traces
                            .expect("interior element classified with a ghost face")
                            .face_source(g as usize, nbr_face, c);
                        op.apply_indexed(&self.tab, 3, trace, pos, face_c, theirs);
                    }
                }
                for (j, &v) in self.face_idx[f].iter().enumerate() {
                    out_e[c * npe + v] += pull * (theirs[j] - qe[c * npe + v]);
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

fn bits<R: HaloLane>(v: &[R]) -> Vec<u64> {
    v.iter().map(|&x| x.to_f64().to_bits()).collect()
}

const DT: f64 = 0.05;

/// State bits after `STEPS` steps of the toy through the stepper, and the
/// stepper's register as the last step left it.
fn through_stepper<R: HaloLane, C: Communicator>(
    comm: &C,
    halo: &HaloExchange<D3>,
    toy: &Toy<'_, R>,
) -> (Vec<u64>, Vec<u64>) {
    let mut q = toy.initial();
    let mut stepper = Stepper::default();
    for s in 0..STEPS {
        stepper.step(comm, halo, &mut q, s as f64 * DT, DT, toy);
        assert_eq!(
            stepper.grow_events(),
            0,
            "lane workspace regrew in step {s}"
        );
    }
    (bits(&q), bits(stepper.register()))
}

/// The f64 specification: `lserk_step` around a blocking exchange and one
/// serial element sweep.
fn spec_f64<C: Communicator>(comm: &C, halo: &HaloExchange<D3>, toy: &Toy<'_, f64>) -> Vec<u64> {
    let unit = toy.unit_len();
    let mut spec = toy.initial();
    let mut resid = vec![0.0; spec.len()];
    let mut ws = toy.new_scratch();
    for s in 0..STEPS {
        lserk_step(&mut spec, &mut resid, s as f64 * DT, DT, |t, u, out| {
            let traces = halo.exchange(comm, u, NCOMP);
            for (e, out_e) in out.chunks_mut(unit).enumerate() {
                toy.rhs_unit(u, e, t, Some(&traces), &mut ws, out_e);
            }
        });
    }
    bits(&spec)
}

/// The f32 specification, written out: per step a zeroed register, per
/// stage a blocking f32 exchange, one serial element sweep and the 2N
/// update in f32. Returns state and register bits.
fn spec_f32<C: Communicator>(
    comm: &C,
    halo: &HaloExchange<D3>,
    toy: &Toy<'_, f32>,
) -> (Vec<u64>, Vec<u64>) {
    let unit = toy.unit_len();
    let mut spec = toy.initial();
    let mut resid = vec![0.0f32; spec.len()];
    let mut k = vec![0.0f32; spec.len()];
    let mut ws = toy.new_scratch();
    for s in 0..STEPS {
        resid.fill(0.0);
        for stage in 0..5 {
            let t = s as f64 * DT + LSERK_C[stage] * DT;
            let traces = halo.exchange(comm, &spec, NCOMP);
            for (e, out_e) in k.chunks_mut(unit).enumerate() {
                toy.rhs_unit(&spec, e, t, Some(&traces), &mut ws, out_e);
            }
            drop(traces);
            for ((u, r), k) in spec.iter_mut().zip(&mut resid).zip(&k) {
                *r = LSERK_A[stage] as f32 * *r + DT as f32 * k;
                *u += LSERK_B[stage] as f32 * *r;
            }
        }
    }
    (bits(&spec), bits(&resid))
}

#[test]
fn stepper_is_bit_equal_to_lserk_step_at_every_width_and_rank_count() {
    for ranks in [1usize, 3] {
        for workers in [1usize, 2, 4] {
            forust_pool::set_worker_override(Some(workers));
            let out = run_spmd(ranks, |comm| {
                let mesh = rotcubes_mesh(comm, 2);
                let halo = HaloExchange::build(&mesh);
                let (toy64, toy32) = (Toy::<f64>::new(&mesh), Toy::<f32>::new(&mesh));
                let host = (
                    through_stepper(comm, &halo, &toy64).0,
                    spec_f64(comm, &halo, &toy64),
                );
                // The register is part of the contract: zeroed per step,
                // it ends a step holding exactly what the specification's
                // does.
                let device = (
                    through_stepper(comm, &halo, &toy32),
                    spec_f32(comm, &halo, &toy32),
                );
                (host, device, halo.interior().len())
            });
            forust_pool::set_worker_override(None);
            let at = format!("{ranks} ranks, {workers} workers");
            for (rank, ((got, want), (got32, want32), _)) in out.iter().enumerate() {
                assert!(!got.is_empty(), "rank {rank} of {ranks} owns no element");
                assert!(got == want, "{at}: rank {rank} diverged from lserk_step");
                assert!(got32 == want32, "{at}: rank {rank}'s f32 step diverged");
            }
            if ranks == 3 {
                // Both sweeps ran: interior under the exchange, boundary
                // after it.
                assert!(out.iter().any(|(_, _, interior)| *interior > 0), "{at}");
            }
        }
    }
}
