//! The shared split-phase driver against its specification: a
//! [`Stepper`] step must be bit-equal to the plain five-stage loop
//! (`lserk_step` at f64) around a blocking exchange and a serial sweep — at 1, 2 and 4 pool
//! lanes and on 1 and 3 ranks — and must not regrow a lane workspace once
//! warmed up. Two toy kernels span what the driver is generic over: an
//! f64 kernel whose unit is one element on the halo's own element lists,
//! and an f32 kernel whose unit is a padded four-element block with its
//! own state layout, unit lists, lane scratch and pre-sweep.
//!
//! One test in its own binary: the worker override is process-global.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{run_spmd, Communicator};
use forust_dg::lserk::{lserk_step, LSERK_A, LSERK_B, LSERK_C};
use forust_dg::mesh::{DgMesh, ElemRef, FaceConn};
use forust_dg::{FaceOp, HaloData, HaloExchange, KernelWorkspace, LaneScratch, RhsKernel, Stepper};

const NCOMP: usize = 2;
const STEPS: usize = 3;

/// Elements per unit of the block toy.
const BLOCK: usize = 4;

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
/// conforming and coarse faces). Reads ghosts wherever the partition
/// cuts, through the lane workspace, like a real kernel.
struct Toy<'a> {
    mesh: &'a DgMesh<D3>,
    face_idx: Vec<Vec<usize>>,
}

impl RhsKernel<D3> for Toy<'_> {
    type Real = f64;
    type Scratch = KernelWorkspace;
    const NCOMP: usize = NCOMP;
    const GRAIN: usize = 3;

    fn unit_len(&self) -> usize {
        self.mesh.re.nodes_per_elem(3) * NCOMP
    }

    fn new_scratch(&self) -> KernelWorkspace {
        let re = &self.mesh.re;
        let mut ws = KernelWorkspace::new();
        ws.configure(re.nodes_per_elem(3), re.nodes_per_face(3), NCOMP);
        ws
    }

    fn rhs_unit(
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
            let Some((from, nbr_face, op)) = face_nbr(self.mesh, e, f) else {
                continue;
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

/// The f32 block toy's lane scratch: one face of staged values.
#[derive(Default)]
struct FaceScratch(Vec<f32>);

impl LaneScratch for FaceScratch {}

/// The same toy physics in f32 over `BLOCK`-element units, lanes
/// innermost (`q[((b * NCOMP + c) * npe + n) * BLOCK + l]`, the last
/// block padded with lanes that stay zero), with face values taken as
/// face means: a local neighbor's from `means`, the arena the pre-sweep
/// rebuilds from all of `q` every stage, a ghost's from the f32 halo.
struct BlockToy<'a> {
    mesh: &'a DgMesh<D3>,
    face_idx: Vec<Vec<usize>>,
    /// Blocks without / with a live lane in the halo's boundary list.
    interior: Vec<u32>,
    boundary: Vec<u32>,
    /// `means[(e * 6 + f) * NCOMP + c]`.
    means: Vec<f32>,
    pre_stages: usize,
}

impl<'a> BlockToy<'a> {
    fn new(mesh: &'a DgMesh<D3>, halo: &HaloExchange<D3>) -> Self {
        let nblocks = mesh.num_elements().div_ceil(BLOCK);
        let mut is_boundary = vec![false; nblocks];
        for &e in halo.boundary() {
            is_boundary[e as usize / BLOCK] = true;
        }
        let blocks = |want: bool| -> Vec<u32> {
            (0..nblocks as u32)
                .filter(|&b| is_boundary[b as usize] == want)
                .collect()
        };
        BlockToy {
            mesh,
            face_idx: mesh.re.face_node_table(3),
            interior: blocks(false),
            boundary: blocks(true),
            means: vec![0.0; mesh.num_elements() * 6 * NCOMP],
            pre_stages: 0,
        }
    }

    fn at(&self, e: usize, c: usize, n: usize) -> usize {
        let npe = self.mesh.re.nodes_per_elem(3);
        (((e / BLOCK) * NCOMP + c) * npe + n) * BLOCK + e % BLOCK
    }
}

impl RhsKernel<D3> for BlockToy<'_> {
    type Real = f32;
    type Scratch = FaceScratch;
    const NCOMP: usize = NCOMP;
    const GRAIN: usize = 2;

    fn unit_len(&self) -> usize {
        NCOMP * self.mesh.re.nodes_per_elem(3) * BLOCK
    }

    fn new_scratch(&self) -> FaceScratch {
        FaceScratch(vec![0.0; self.mesh.re.nodes_per_face(3)])
    }

    fn accessor<'a>(&'a self, q: &'a [f32]) -> impl Fn(usize, usize, usize) -> f32 + Sync + 'a {
        move |e, c, n| q[self.at(e, c, n)]
    }

    fn units<'a>(&'a self, _halo: &'a HaloExchange<D3>) -> [&'a [u32]; 2] {
        [&self.interior, &self.boundary]
    }

    fn pre_stage(&mut self, q: &[f32]) {
        self.pre_stages += 1;
        let npf = self.mesh.re.nodes_per_face(3) as f32;
        for e in 0..self.mesh.num_elements() {
            for (f, fidx) in self.face_idx.iter().enumerate() {
                for c in 0..NCOMP {
                    let sum: f32 = fidx.iter().map(|&n| q[self.at(e, c, n)]).sum();
                    self.means[(e * 6 + f) * NCOMP + c] = sum / npf;
                }
            }
        }
    }

    fn rhs_unit(
        &self,
        q: &[f32],
        b: usize,
        t: f64,
        traces: Option<&HaloData<'_, D3, f32>>,
        ws: &mut FaceScratch,
        out: &mut [f32],
    ) {
        let npe = self.mesh.re.nodes_per_elem(3);
        let base = b * self.unit_len();
        // Padding lanes relax from zero to zero.
        for (o, v) in out.iter_mut().zip(&q[base..]) {
            *o = -0.5 * v;
        }
        let live = (self.mesh.num_elements() - b * BLOCK).min(BLOCK);
        for l in 0..live {
            let e = b * BLOCK + l;
            for c in 0..NCOMP {
                for n in 0..npe {
                    out[self.at(e, c, n) - base] += t as f32 * (c + 1) as f32;
                }
            }
            for f in 0..6 {
                let Some((from, nbr_face, _)) = face_nbr(self.mesh, e, f) else {
                    continue;
                };
                for c in 0..NCOMP {
                    let theirs = match from {
                        ElemRef::Local(i) => self.means[(i as usize * 6 + nbr_face) * NCOMP + c],
                        ElemRef::Ghost(g) => {
                            let (trace, pos) = traces
                                .expect("interior block classified with a ghost face")
                                .face_source(g as usize, nbr_face, c);
                            for (s, &k) in ws.0.iter_mut().zip(pos) {
                                *s = trace[k as usize];
                            }
                            ws.0.iter().sum::<f32>() / pos.len() as f32
                        }
                    };
                    for &v in &self.face_idx[f] {
                        let x = self.at(e, c, v);
                        out[x - base] += 0.1 * (theirs - q[x]);
                    }
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

/// The uniform unit cube. At level 1 (eight elements) every element of a
/// three-rank partition touches a ghost, so each rank's single block is a
/// boundary block; at level 2 a rank owns whole interior blocks.
fn cube_mesh<C: Communicator>(comm: &C, level: u8, degree: usize) -> DgMesh<D3> {
    let forest = Forest::<D3>::new_uniform(Arc::new(builders::unit3d()), comm, level);
    DgMesh::build(&forest, comm, degree)
}

fn bits<R: Copy + Into<f64>>(v: &[R]) -> Vec<u64> {
    v.iter().map(|&x| x.into().to_bits()).collect()
}

/// The element toy on `mesh`: state bits after `STEPS` steps through the
/// stepper and through the specification.
fn run_elements<C: Communicator>(comm: &C, mesh: &DgMesh<D3>) -> (Vec<u64>, Vec<u64>) {
    let halo = HaloExchange::build(mesh);
    let npe = mesh.re.nodes_per_elem(3);
    let mut toy = Toy {
        mesh,
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
    let mut stepper = Stepper::default();
    for s in 0..STEPS {
        stepper.step(comm, &halo, &mut q, s as f64 * dt, dt, &mut toy);
        assert_eq!(stepper.grow_events(), 0, "lane scratch regrew in step {s}");
    }

    let mut spec = q0;
    let mut resid = vec![0.0; spec.len()];
    let mut ws = toy.new_scratch();
    for s in 0..STEPS {
        lserk_step(&mut spec, &mut resid, s as f64 * dt, dt, |t, u, out| {
            let traces = halo.exchange(comm, u, NCOMP);
            for (e, out_e) in out.chunks_mut(npe * NCOMP).enumerate() {
                toy.rhs_unit(u, e, t, Some(&traces), &mut ws, out_e);
            }
        });
    }
    (bits(&q), bits(&spec))
}

/// The block toy on `mesh`: state bits through the stepper and through
/// the specification, and the rank's interior block count.
fn run_blocks<C: Communicator>(comm: &C, mesh: &DgMesh<D3>) -> (Vec<u64>, Vec<u64>, usize) {
    let halo = HaloExchange::build(mesh);
    let npe = mesh.re.nodes_per_elem(3);
    let mut toy = BlockToy::new(mesh, &halo);
    let nblocks = toy.interior.len() + toy.boundary.len();
    let unit = toy.unit_len();
    let mut q0 = vec![0.0f32; nblocks * unit];
    for (e, (t, o)) in mesh.elements.iter().enumerate() {
        let id = *t as f32 + (o.morton() % 4096) as f32 * 1e-3;
        for c in 0..NCOMP {
            for n in 0..npe {
                q0[toy.at(e, c, n)] = (id + (c * npe + n) as f32 * 0.01).sin();
            }
        }
    }
    let dt = 0.05;

    let mut q = q0.clone();
    let mut stepper = Stepper::default();
    for s in 0..STEPS {
        stepper.step(comm, &halo, &mut q, s as f64 * dt, dt, &mut toy);
    }
    assert_eq!(toy.pre_stages, 5 * STEPS, "one pre-sweep per stage");

    // The specification, written out: per step a zeroed register, per
    // stage a blocking exchange, the pre-sweep, one serial sweep over all
    // blocks and the 2N update in f32.
    let mut spec = q0;
    let mut resid = vec![0.0f32; spec.len()];
    let mut k = vec![0.0f32; spec.len()];
    let mut ws = toy.new_scratch();
    for s in 0..STEPS {
        resid.fill(0.0);
        for stage in 0..5 {
            let t = s as f64 * dt + LSERK_C[stage] * dt;
            let traces = halo.begin_with(comm, toy.accessor(&spec), NCOMP).finish();
            toy.pre_stage(&spec);
            for (b, out_b) in k.chunks_mut(unit).enumerate() {
                toy.rhs_unit(&spec, b, t, Some(&traces), &mut ws, out_b);
            }
            for ((u, r), k) in spec.iter_mut().zip(&mut resid).zip(&k) {
                *r = LSERK_A[stage] as f32 * *r + dt as f32 * k;
                *u += LSERK_B[stage] as f32 * *r;
            }
        }
    }
    // The register is part of the contract: zeroed per step, it ends a
    // step holding exactly what the specification's does.
    assert_eq!(bits(stepper.register()), bits(&resid));
    (bits(&q), bits(&spec), toy.interior.len())
}

#[test]
fn stepper_is_bit_equal_to_lserk_step_at_every_width_and_rank_count() {
    let mut interior_blocks = Vec::new();
    for ranks in [1usize, 3] {
        for workers in [1usize, 2, 4] {
            forust_pool::set_worker_override(Some(workers));
            let out = run_spmd(ranks, |comm| {
                let adapted = rotcubes_mesh(comm, 2);
                (
                    run_elements(comm, &adapted),
                    [
                        run_blocks(comm, &adapted),
                        run_blocks(comm, &cube_mesh(comm, 1, 2)),
                        run_blocks(comm, &cube_mesh(comm, 2, 2)),
                    ],
                )
            });
            forust_pool::set_worker_override(None);
            let at = format!("{ranks} ranks, {workers} workers");
            for (rank, ((got, want), blocks)) in out.iter().enumerate() {
                assert!(!got.is_empty(), "rank {rank} of {ranks} owns no element");
                assert!(got == want, "{at}: rank {rank} diverged from lserk_step");
                for (got, want, interior) in blocks {
                    assert!(got == want, "{at}: rank {rank}'s blocks diverged");
                    if ranks == 3 {
                        interior_blocks.push(*interior);
                    }
                }
            }
        }
    }
    assert!(
        interior_blocks.contains(&0) && interior_blocks.iter().any(|&n| n > 0),
        "want an empty and a non-empty interior block list on 3 ranks: {interior_blocks:?}"
    );
}
