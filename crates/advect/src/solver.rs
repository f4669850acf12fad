//! The adaptive dG advection solver driver.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use forust::connectivity::{Connectivity, TreeId};
use forust::dim::D3;
use forust::forest::{BalanceType, CheckpointError, Forest, SolverFormat};
use forust::linear;
use forust::octant::Octant;
use forust_comm::{max_nan, nan_range, Communicator};
use forust_dg::element::RefElement;
use forust_dg::geometry::{Carry, MeshGeometry};
use forust_dg::halo::{HaloData, HaloExchange};
use forust_dg::kernels::{self, KernelWorkspace};
use forust_dg::lserk::lserk_step;
use forust_dg::mesh::{DgMesh, ElemRef, FaceConn};
use forust_dg::stepper::{RhsKernel, Stepper};
use forust_dg::transfer::transfer_fields;
use forust_dg::FaceOp;
use forust_geom::Mapping;
use forust_resilience::{Carried, Recoverable};

/// Parameters of the advection experiment (defaults follow §III-B).
#[derive(Debug, Clone)]
pub struct AdvectConfig {
    /// Polynomial degree (3 in the paper: "tricubic elements").
    pub degree: usize,
    /// Uniform starting level per tree.
    pub initial_level: u8,
    /// Coarsening floor.
    pub min_level: u8,
    /// Refinement ceiling.
    pub max_level: u8,
    /// Adapt and repartition every this many steps (32 in the paper).
    pub adapt_every: usize,
    /// CFL number for the explicit step.
    pub cfl: f64,
    /// Refine an element when its nodal range exceeds this.
    pub refine_tol: f64,
    /// Coarsen a family when every member's range is below this.
    pub coarsen_tol: f64,
}

impl Default for AdvectConfig {
    fn default() -> Self {
        AdvectConfig {
            degree: 3,
            initial_level: 1,
            min_level: 1,
            max_level: 4,
            adapt_every: 32,
            cfl: 0.5,
            refine_tol: 0.1,
            coarsen_tol: 0.05,
        }
    }
}

/// Wall-time accounting in the paper's Fig. 5 buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvectTimers {
    /// Refine + coarsen + balance + partition + solution transfer + mesh
    /// and metric rebuild ("AMR and projection").
    pub amr: Duration,
    /// RK stages including ghost exchange ("Time integration").
    pub integrate: Duration,
    /// Steps taken.
    pub steps: usize,
    /// Adapt cycles performed.
    pub adapts: usize,
}

/// The dynamically adapted upwind-dG advection solver of §III-B.
pub struct AdvectSolver {
    /// Experiment parameters.
    pub config: AdvectConfig,
    /// The distributed forest (rebuilt every adapt cycle).
    pub forest: Forest<D3>,
    /// The dG mesh on the current forest.
    pub mesh: DgMesh<D3>,
    /// Metric terms on the current mesh.
    pub geo: MeshGeometry,
    /// Split-phase face-trace ghost exchange of the current mesh.
    pub halo: HaloExchange<D3>,
    map: Arc<dyn Mapping<D3> + Send + Sync>,
    velocity: fn([f64; 3]) -> [f64; 3],
    /// The transported field, `num_elements * (N+1)^3` values.
    pub c: Vec<f64>,
    /// Simulated time.
    pub time: f64,
    /// Current stable step size (recomputed after each adapt).
    pub dt: f64,
    /// Wall-time split.
    pub timers: AdvectTimers,
    /// The shared split-phase LSERK driver: RK registers and one kernel
    /// workspace per pool lane, sized once so steady-state stepping
    /// allocates nothing.
    pub stepper: Stepper,
    /// What the element kernel reads besides the mesh and its metric.
    caches: Caches,
}

impl AdvectSolver {
    /// Set up the solver: initial mesh, a few pre-adaptation passes on the
    /// initial condition, and the initial field.
    pub fn new(
        comm: &impl Communicator,
        forest: Forest<D3>,
        map: Arc<dyn Mapping<D3> + Send + Sync>,
        config: AdvectConfig,
        init: fn([f64; 3]) -> f64,
        velocity: fn([f64; 3]) -> [f64; 3],
    ) -> Self {
        let mut forest = forest;
        // Static pre-adaptation: refine where the initial condition is
        // rough, up to max_level, then balance and partition.
        let re = RefElement::new(config.degree);
        forest.refine(comm, true, |t, o| {
            o.level < config.max_level
                && element_range_of_fn(&re, &*map, t, o, init) > config.refine_tol
        });
        forest.balance(comm, BalanceType::Full);
        forest.partition(comm);

        Self::assemble(comm, forest, map, config, velocity, 0.0, 0, |geo| {
            geo.pos.iter().map(|&x| init(x)).collect()
        })
    }

    /// Put a solver together on `forest` at `(time, steps)`, with the
    /// field given on the freshly built geometry — the common tail of
    /// [`new`](Self::new) and [`Recoverable::restore`].
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        comm: &impl Communicator,
        forest: Forest<D3>,
        map: Arc<dyn Mapping<D3> + Send + Sync>,
        config: AdvectConfig,
        velocity: fn([f64; 3]) -> [f64; 3],
        time: f64,
        steps: usize,
        field: impl FnOnce(&MeshGeometry) -> Vec<f64>,
    ) -> Self {
        let mesh = DgMesh::build(&forest, comm, config.degree);
        let mut geo = MeshGeometry::default();
        let carry = geo.rebuild(&[], &mesh, &*map);
        let mut caches = Caches::new(&mesh.re);
        caches.rebuild(&carry, &mesh, &geo, velocity);
        let mut s = AdvectSolver {
            halo: HaloExchange::build(&mesh),
            c: field(&geo),
            stepper: Stepper::default(),
            config,
            forest,
            mesh,
            geo,
            map,
            velocity,
            time,
            dt: 0.0,
            timers: AdvectTimers {
                steps,
                ..AdvectTimers::default()
            },
            caches,
        };
        s.dt = s.stable_dt(comm);
        s
    }

    /// Global element count.
    pub fn num_global_elements(&self) -> u64 {
        self.forest.num_global()
    }

    /// Global unknown count.
    pub fn num_global_unknowns(&self) -> u64 {
        self.forest.num_global() * self.mesh.re.nodes_per_elem(3) as u64
    }

    /// Largest stable time step on the current mesh: the node's speed is
    /// `Σ_r |u · ∇ξ_r|`.
    fn stable_dt(&self, comm: &impl Communicator) -> f64 {
        let npe = self.mesh.re.nodes_per_elem(3);
        let (degree, cfl) = (self.config.degree, self.config.cfl);
        self.geo.cfl_dt(comm, degree, cfl, |e, v, inv| {
            let vel = &self.caches.vel_soa[e * 3 * npe..][..3 * npe];
            let u = [vel[v], vel[npe + v], vel[2 * npe + v]];
            let mut lam = 0.0;
            for r in 0..3 {
                let a = u[0] * inv[r][0] + u[1] * inv[r][1] + u[2] * inv[r][2];
                lam += a.abs();
            }
            lam
        })
    }

    /// Advance one RK step; adapt every `adapt_every` steps.
    ///
    /// The stages, the split-phase ghost exchange and the pool sweeps are
    /// the shared [`Stepper`]'s; this solver contributes `Kernel`.
    /// Steady-state allocation-free.
    pub fn step(&mut self, comm: &impl Communicator) {
        {
            let _span = forust_obs::span!("advect.step");
            let t0 = Instant::now();
            let kernel = Kernel {
                mesh: &self.mesh,
                geo: &self.geo,
                caches: &self.caches,
                velocity: self.velocity,
            };
            let (t, dt) = (self.time, self.dt);
            self.stepper
                .step(comm, &self.halo, &mut self.c, t, dt, &kernel);
            self.finish_step(comm, t0);
        }
        // Outside the block so the step's spans have closed: the mark
        // slices everything above into this step's time-series record.
        forust_obs::step_mark(self.timers.steps as u64);
    }

    /// Bookkeeping after the RK stages of one step.
    fn finish_step(&mut self, comm: &impl Communicator, t0: Instant) {
        self.time += self.dt;
        self.timers.integrate += t0.elapsed();
        self.timers.steps += 1;
        if self.timers.steps % self.config.adapt_every == 0 {
            self.adapt(comm);
        }
    }

    /// **Test oracle.** One RK step through the pre-kernel-engine RHS
    /// path: per-element `gradient`/`matvec` allocations and fn-pointer
    /// velocity evaluation per node per stage, serial sweeps, driven by
    /// the plain [`lserk_step`]. Retained (precedent: `morton_reference`,
    /// `balance_ripple`) so regression tests can assert that
    /// [`step`](Self::step) through the specialized engine and the shared
    /// stepper stays bitwise identical across adapt cycles.
    pub fn step_reference(&mut self, comm: &impl Communicator) {
        let _span = forust_obs::span!("advect.step");
        let t0 = Instant::now();
        let kernel = Kernel {
            mesh: &self.mesh,
            geo: &self.geo,
            caches: &self.caches,
            velocity: self.velocity,
        };
        let halo = &self.halo;
        let mut resid = vec![0.0; self.c.len()];
        let mut nbr_buf = Vec::with_capacity(self.mesh.re.nodes_per_face(3));
        // Oracle RHS: blocking exchange, then one serial element sweep.
        lserk_step(&mut self.c, &mut resid, self.time, self.dt, |_, c, out| {
            let traces = halo.exchange(comm, c, 1);
            for e in 0..kernel.mesh.num_elements() {
                kernel.rhs_element_reference(c, e, Some(&traces), &mut nbr_buf, out);
            }
        });
        self.finish_step(comm, t0);
    }
}

/// The upwind nodal dG element kernel (advective volume form plus upwind
/// surface correction, mortar-consistent on 2:1 faces): a borrowed view
/// of what the RHS of one element reads.
struct Kernel<'a> {
    mesh: &'a DgMesh<D3>,
    geo: &'a MeshGeometry,
    caches: &'a Caches,
    velocity: fn([f64; 3]) -> [f64; 3],
}

/// One unit is one element: `npe` values of the single component.
impl RhsKernel<D3> for Kernel<'_> {
    type Real = f64;
    const NCOMP: usize = 1;
    const GRAIN: usize = 8;

    fn unit_len(&self) -> usize {
        self.mesh.re.nodes_per_elem(3)
    }

    fn new_scratch(&self) -> KernelWorkspace {
        let re = &self.mesh.re;
        let mut ws = KernelWorkspace::new();
        ws.configure(re.nodes_per_elem(3), re.nodes_per_face(3), 1);
        ws
    }

    /// RHS of a single element via the kernel engine: fused volume pass
    /// (reference gradient → metric contraction → flux accumulation), the
    /// surface terms from the per-mesh flux records of [`Caches`], and
    /// workspace-backed face buffers — zero heap allocations.
    fn rhs_unit(
        &self,
        q: &[f64],
        e: usize,
        _t: f64,
        traces: Option<&HaloData<'_, D3>>,
        ws: &mut KernelWorkspace,
        out_e: &mut [f64],
    ) {
        let cache = self.caches;
        let re = &self.mesh.re;
        let npe = re.nodes_per_elem(3);
        let npf = re.nodes_per_face(3);
        // Split-borrow the workspace: cm lives in face_a, the neighbor's
        // aligned trace, then the lifted flux (or mine at the mortar
        // points, then the weighted mortar flux) in face_b, a coarse
        // neighbor's staged or a fine neighbor's trace and the lifted
        // mortar flux in nbr; face_c is the face operators' scratch.
        let KernelWorkspace {
            grad,
            face_a,
            face_b,
            face_c,
            nbr: nbr_buf,
            ..
        } = ws;
        let tab = &re.face_tables;
        // A neighbor's trace on its `nbr_face`, taken through `op` into
        // `out`: one gather straight out of `q` or the ghost traces.
        let nbr_trace =
            |op: FaceOp, r: ElemRef, nbr_face: usize, tmp: &mut [f64], out: &mut [f64]| match r {
                ElemRef::Local(i) => {
                    let nv = &q[i as usize * npe..(i as usize + 1) * npe];
                    op.apply_indexed(tab, 3, nv, &cache.face_idx[nbr_face], tmp, out);
                }
                ElemRef::Ghost(g) => {
                    let (trace, pos) = traces
                        .expect("interior element classified with a ghost face")
                        .face_source(g as usize, nbr_face, 0);
                    op.apply_indexed(tab, 3, trace, pos, tmp, out);
                }
            };

        {
            let ce = &q[e * npe..(e + 1) * npe];
            let det = self.geo.elem_det(e);
            // Volume term: -(u . grad C), fused in one kernel pass over
            // the SoA metric/velocity planes.
            kernels::advect_volume_rhs(
                &re.diff,
                re.np,
                ce,
                &cache.metr_soa[e * 9 * npe..(e + 1) * 9 * npe],
                &cache.vel_soa[e * 3 * npe..(e + 1) * 3 * npe],
                &mut grad[..3 * npe],
                out_e,
            );
            // Surface terms. A face point adds `lift·(un·cm − un·up)`, `up`
            // the upwind trace; where `un ≥ 0` that is `lift·(+0.0)` for
            // every finite `un·cm`, so an all-outflow face reads neither
            // trace (a non-finite `cm` already made the volume term at that
            // node non-finite: the LGL derivative's endpoint `D₀₀ ≠ 0`).
            let own = |cm: &mut [f64], fidx: &[usize]| {
                for (c, &i) in cm.iter_mut().zip(fidx) {
                    *c = ce[i];
                }
            };
            for f in 0..6 {
                let ef = e * self.mesh.nfaces + f;
                let fidx = &cache.face_idx[f][..];
                let rec = &cache.face_rec[ef * npf..][..npf];
                let cm = &mut face_a[..npf];
                match self.mesh.face(e, f) {
                    FaceConn::Boundary => {
                        // Tangential velocity at shell boundaries: the
                        // reflective flux difference vanishes identically.
                    }
                    FaceConn::Conforming { .. } | FaceConn::CoarseNbr { .. }
                        if cache.face_out[ef] =>
                    {
                        for (&v, &[_, lift]) in fidx.iter().zip(rec) {
                            out_e[v] += lift * 0.0;
                        }
                    }
                    FaceConn::Conforming { nbr, nbr_face, op }
                    | FaceConn::CoarseNbr { nbr, nbr_face, op } => {
                        // Stage the neighbour's aligned trace in `cp`: one
                        // gather through the composed index (then a coarse
                        // neighbour's 2:1 sweeps), or the ghost trace.
                        let cp = &mut face_b[..npf];
                        if let ElemRef::Local(_) = nbr {
                            let at = &cache.nbr_gather[ef * npf..][..npf];
                            let gather = |to: &mut [f64]| {
                                for (c, &k) in to.iter_mut().zip(at) {
                                    *c = q[k as usize];
                                }
                            };
                            if op.half.is_some() {
                                let staged = &mut nbr_buf[..npf];
                                gather(staged);
                                FaceOp { orient: 0, ..*op }.apply(tab, 3, staged, face_c, cp);
                            } else {
                                gather(cp);
                            }
                        } else {
                            nbr_trace(*op, *nbr, *nbr_face, face_c, cp);
                        }
                        own(cm, fidx);
                        // The lifted flux difference replaces the trace,
                        // then one scatter-add.
                        for ((x, &m), &[un, lift]) in cp.iter_mut().zip(&*cm).zip(rec) {
                            let up = if un >= 0.0 { m } else { *x };
                            *x = lift * (un * m - un * up);
                        }
                        for (&v, &x) in fidx.iter().zip(&*cp) {
                            out_e[v] += x;
                        }
                    }
                    FaceConn::FineNbrs { subs } => {
                        own(cm, fidx);
                        let moff = cache.mortar_off[ef] as usize;
                        for (s, sub) in subs.iter().enumerate() {
                            let mortar = &mut face_b[..npf];
                            let their = &mut nbr_buf[..npf];
                            sub.op.apply(tab, 3, cm, face_c, mortar);
                            // An all-outflow sub-face never selects theirs.
                            if !cache.mortar_out[moff / npf + s] {
                                nbr_trace(FaceOp::IDENTITY, sub.nbr, sub.nbr_face, face_c, their);
                            }
                            // Quadrature-weighted upwind flux difference
                            // at the mortar points, in place of my trace.
                            let rec = &cache.mortar_rec[moff + s * npf..][..npf];
                            for ((x, &t), &[un, w]) in mortar.iter_mut().zip(&*their).zip(rec) {
                                let up = if un >= 0.0 { *x } else { t };
                                *x = w * (un * *x - un * up);
                            }
                            // Lift back through the mortar transpose.
                            let lifted = their;
                            sub.op.apply_transpose(tab, 3, mortar, face_c, lifted);
                            for (&v, h) in fidx.iter().zip(lifted.iter()) {
                                out_e[v] += h / (cache.wv[v] * det[v]);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Kernel<'_> {
    /// Oracle per-element RHS: the pre-kernel-engine implementation,
    /// verbatim (allocating `gradient`, `matvec`, per-face `collect`, and
    /// fn-pointer velocity evaluation at every node).
    fn rhs_element_reference(
        &self,
        q: &[f64],
        e: usize,
        traces: Option<&HaloData<'_, D3>>,
        nbr_buf: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        let cache = self.caches;
        let re = &self.mesh.re;
        let npe = re.nodes_per_elem(3);
        let npf = re.nodes_per_face(3);
        // Face trace of a neighbor (its `nbr_face`, face-lattice order).
        let nbr_trace = |r: ElemRef, nbr_face: usize, buf: &mut Vec<f64>| match r {
            ElemRef::Local(i) => {
                let nv = &q[i as usize * npe..(i as usize + 1) * npe];
                buf.clear();
                buf.extend(cache.face_idx[nbr_face].iter().map(|&n| nv[n]));
            }
            ElemRef::Ghost(g) => {
                traces
                    .expect("interior element classified with a ghost face")
                    .face_values(g as usize, nbr_face, 0, buf);
            }
        };

        {
            let ce = &q[e * npe..(e + 1) * npe];
            let inv = self.geo.elem_inv(e);
            let det = self.geo.elem_det(e);
            let pos = self.geo.elem_pos(e);
            // Volume term: -(u . grad C).
            let grads = re.gradient(ce, 3);
            for v in 0..npe {
                let u = (self.velocity)(pos[v]);
                let mut adv = 0.0;
                for i in 0..3 {
                    let mut gi = 0.0;
                    for r in 0..3 {
                        gi += inv[v][r][i] * grads[r][v];
                    }
                    adv += u[i] * gi;
                }
                out[e * npe + v] = -adv;
            }
            // Surface terms.
            for f in 0..6 {
                let fg = self.geo.face(e, f, 6);
                let fidx = &cache.face_idx[f];
                let cm: Vec<f64> = fidx.iter().map(|&i| ce[i]).collect();
                match self.mesh.face(e, f) {
                    FaceConn::Boundary => {
                        // Tangential velocity at shell boundaries: the
                        // reflective flux difference vanishes identically.
                    }
                    FaceConn::Conforming { nbr, nbr_face, op }
                    | FaceConn::CoarseNbr { nbr, nbr_face, op } => {
                        nbr_trace(*nbr, *nbr_face, nbr_buf);
                        let cp = op.to_dense(&re.face_tables, 3).matvec(nbr_buf);
                        for j in 0..npf {
                            let v = fidx[j];
                            let u = (self.velocity)(pos[v]);
                            let n = fg.normal[j];
                            let un = u[0] * n[0] + u[1] * n[1] + u[2] * n[2];
                            let fstar = if un >= 0.0 { un * cm[j] } else { un * cp[j] };
                            let coef = cache.wf[j] * fg.sj[j] / (cache.wv[v] * det[v]);
                            out[e * npe + v] += coef * (un * cm[j] - fstar);
                        }
                    }
                    FaceConn::FineNbrs { subs } => {
                        for (s, sub) in subs.iter().enumerate() {
                            let sg = &fg.subs[s];
                            let dense = sub.op.to_dense(&re.face_tables, 3);
                            let mine_at_fine = dense.matvec(&cm);
                            nbr_trace(sub.nbr, sub.nbr_face, nbr_buf);
                            let their = &*nbr_buf;
                            for j in 0..npf {
                                let u = (self.velocity)(sg.pos[j]);
                                let n = sg.normal[j];
                                let un = u[0] * n[0] + u[1] * n[1] + u[2] * n[2];
                                let fstar = if un >= 0.0 {
                                    un * mine_at_fine[j]
                                } else {
                                    un * their[j]
                                };
                                let diff = un * mine_at_fine[j] - fstar;
                                // Lift back through the mortar transpose.
                                let w = cache.wf[j] * sg.sj[j] * diff;
                                if w != 0.0 {
                                    for i in 0..npf {
                                        let v = fidx[i];
                                        out[e * npe + v] +=
                                            dense.data[j * npf + i] * w / (cache.wv[v] * det[v]);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl AdvectSolver {
    /// Adapt the mesh to the current solution and repartition, carrying
    /// the field along (the paper's every-32-steps cycle).
    pub fn adapt(&mut self, comm: &impl Communicator) {
        let _span = forust_obs::span!("advect.adapt");
        let t0 = Instant::now();
        let npe = self.mesh.re.nodes_per_elem(3);

        // Per-element indicator: nodal range, NaN if a node is NaN. A NaN
        // compares false against both tolerances: that element is neither
        // refined nor coarsened.
        let old = self.forest.clone();
        let indicator: Vec<f64> = self
            .c
            .chunks_exact(npe)
            .map(|ce| nan_range(ce.iter().copied()))
            .collect();
        let nonfinite = indicator.iter().filter(|r| !r.is_finite()).count();
        forust_obs::counter_add("advect.nonfinite_elements", nonfinite as u64);
        // Indicator lookup for arbitrary octants of the OLD forest.
        let old_offsets: Vec<usize> = {
            let mut v = Vec::with_capacity(old.conn.num_trees() + 1);
            let mut acc = 0;
            v.push(0);
            for t in 0..old.conn.num_trees() as u32 {
                acc += old.tree(t).len();
                v.push(acc);
            }
            v
        };
        let lookup = |t: TreeId, o: &Octant<D3>| -> f64 {
            let leaves = old.tree(t);
            if let Some(i) = linear::find_containing(leaves, o) {
                return indicator[old_offsets[t as usize] + i];
            }
            // o is coarser than the old leaves: max over descendants.
            let r = linear::find_overlapping_range(leaves, o);
            r.map(|i| indicator[old_offsets[t as usize] + i])
                .fold(0.0, max_nan)
        };

        let cfg = self.config.clone();
        self.forest.refine(comm, false, |t, o| {
            o.level < cfg.max_level && lookup(t, o) > cfg.refine_tol
        });
        self.forest.coarsen(comm, false, |t, fam| {
            fam[0].level > cfg.min_level && fam.iter().all(|o| lookup(t, o) < cfg.coarsen_tol)
        });
        self.forest.balance(comm, BalanceType::Full);

        // Transfer the solution to the new local mesh, then repartition.
        {
            let _span = forust_obs::span!("adapt.transfer");
            self.c = transfer_fields(&self.mesh.re, &old, &self.c, &self.forest, 1);
        }
        let chunks: Vec<Vec<f64>> = self.c.chunks(npe).map(|c| c.to_vec()).collect();
        let moved = self.forest.partition_with_payload(comm, |_, _| 1, chunks);
        self.c = moved.into_iter().flatten().collect();

        // Rebuild mesh-dependent state, the same sequence as `assemble`
        // but piece by piece: each old part is freed before the next new
        // one is built, which keeps the cycle's peak memory at one
        // generation of each plus the one being replaced. Metric and
        // caches of elements that survived on this rank are moved; only
        // refined, coarsened and newly arrived ones are evaluated.
        let _rebuild = forust_obs::span!("adapt.rebuild");
        let old_elements = std::mem::take(&mut self.mesh.elements);
        self.mesh = DgMesh::build(&self.forest, comm, self.config.degree);
        let carry = self.geo.rebuild(&old_elements, &self.mesh, &*self.map);
        self.halo.rebuild(&self.mesh);
        self.caches
            .rebuild(&carry, &self.mesh, &self.geo, self.velocity);
        self.dt = self.stable_dt(comm);
        self.timers.amr += t0.elapsed();
        self.timers.adapts += 1;
    }

    /// Total mass `integral of C dV` (diagnostic; conserved up to the
    /// aliasing of the advective volume form on curved elements).
    pub fn total_mass(&self, comm: &impl Communicator) -> f64 {
        let re = &self.mesh.re;
        let npe = re.nodes_per_elem(3);
        let mut m = 0.0;
        for e in 0..self.mesh.num_elements() {
            let det = self.geo.elem_det(e);
            for v in 0..npe {
                m += self.caches.wv[v] * det[v] * self.c[e * npe + v];
            }
        }
        comm.allreduce_sum_f64(m)
    }

    /// Discrete L2 error against a reference solution function.
    pub fn l2_error(&self, comm: &impl Communicator, reference: impl Fn([f64; 3]) -> f64) -> f64 {
        let re = &self.mesh.re;
        let npe = re.nodes_per_elem(3);
        let mut err = 0.0;
        for e in 0..self.mesh.num_elements() {
            let det = self.geo.elem_det(e);
            let pos = self.geo.elem_pos(e);
            for v in 0..npe {
                let d = self.c[e * npe + v] - reference(pos[v]);
                err += self.caches.wv[v] * det[v] * d * d;
            }
        }
        comm.allreduce_sum_f64(err).sqrt()
    }

    /// This rank's checkpoint segment ([`Carried::segment`]).
    pub fn checkpoint_segment(&self, saved_ranks: usize) -> Vec<u8> {
        self.carried().segment(saved_ranks)
    }
}

/// What an advection run is built from on any rank of any attempt: plain
/// function pointers, shareable across rank threads and restarts.
#[derive(Clone)]
pub struct AdvectSpec {
    /// Builds the domain connectivity.
    pub conn: fn() -> Connectivity<D3>,
    /// Builds the geometry mapping for that connectivity.
    pub map: fn(Arc<Connectivity<D3>>) -> Arc<dyn Mapping<D3> + Send + Sync>,
    /// Solver parameters.
    pub config: AdvectConfig,
    /// Initial condition.
    pub init: fn([f64; 3]) -> f64,
    /// Velocity field.
    pub velocity: fn([f64; 3]) -> [f64; 3],
}

/// The solution rides the checkpoint exactly (f64 bits), `time` as its
/// bits, the step count as epoch. Everything else — mesh, metric terms,
/// cached quadrature constants, and `dt` by the same exact max-reduction
/// that produced it — is a deterministic function of the forest and
/// configuration, rebuilt bitwise identically on restore, even on a
/// different rank count.
impl Recoverable for AdvectSolver {
    type Spec = AdvectSpec;

    fn build<C: Communicator>(spec: &AdvectSpec, comm: &C) -> Self {
        let conn = Arc::new((spec.conn)());
        let map = (spec.map)(Arc::clone(&conn));
        let forest = Forest::<D3>::new_uniform(conn, comm, spec.config.initial_level);
        let config = spec.config.clone();
        Self::new(comm, forest, map, config, spec.init, spec.velocity)
    }

    fn restore<C: Communicator>(
        spec: &AdvectSpec,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<Self, CheckpointError> {
        let conn = Arc::new((spec.conn)());
        let map = (spec.map)(Arc::clone(&conn));
        let config = spec.config.clone();
        let (forest, c, meta) = Forest::from_segments(conn, comm, segments, config.format())?;
        let steps = meta.epoch as usize;
        Ok(Self::assemble(
            comm,
            forest,
            map,
            config,
            spec.velocity,
            meta.time,
            steps,
            |_| c,
        ))
    }

    fn advance<C: Communicator>(&mut self, comm: &C, _last: bool) {
        self.step(comm);
    }

    fn carried(&self) -> Carried<'_> {
        Carried {
            forest: &self.forest,
            format: self.config.format(),
            units: self.timers.steps,
            time: self.time,
            state: Cow::Borrowed(&self.c),
        }
    }
}

impl AdvectConfig {
    /// The checkpoint format of a run with this configuration: the
    /// solver's magic and one value per volume node.
    fn format(&self) -> SolverFormat {
        SolverFormat {
            magic: 0x464f_5255_4144_5653, // "FORU ADVS"
            per_element: (self.degree + 1).pow(3),
        }
    }
}

/// Per-mesh caches for the kernel-engine RHS: quadrature weights and face
/// node tables of the degree, the volume metric and nodal velocities as
/// SoA planes for the fused volume kernel, and the surface flux records.
#[derive(Default)]
struct Caches {
    /// Volume quadrature weights.
    wv: Vec<f64>,
    /// Face quadrature weights.
    wf: Vec<f64>,
    /// Volume node indices of each face's nodes.
    face_idx: Vec<Vec<usize>>,
    /// `[u·n, wf·sj / (wv·det)]` per `(element, face, face node)`, all
    /// six faces whatever their type: the normal velocity and the lift
    /// coefficient of the node. Both read only the element's own
    /// velocity and metric, so a carried element keeps its records.
    face_rec: Vec<[f64; 2]>,
    /// Per `(element, face, face node)` of a face with a local same-size
    /// or coarse neighbour, where its trace value sits in the state:
    /// `nbr * npe + face_idx[nbr_face][perm[j]]` (0 on other faces).
    nbr_gather: Vec<u32>,
    /// `[u·n, wf·sj]` per mortar point of 2:1 faces, flat across
    /// `(element, face, sub, face node)`.
    mortar_rec: Vec<[f64; 2]>,
    /// Offset into `mortar_rec` per `(element, face)` (`u32::MAX` when the
    /// face carries no mortar).
    mortar_off: Vec<u32>,
    /// Per `(element, face)`: `u·n ≥ 0` at every node of `face_rec`.
    face_out: Vec<bool>,
    /// Per mortar sub-face (`mortar_rec` offset / `npf`): `u·n ≥ 0` at
    /// every mortar point.
    mortar_out: Vec<bool>,
    /// Inverse Jacobians repacked as SoA planes (`9 * npe` per element,
    /// [`kernels::pack_volume_soa`] layout) so the fused volume
    /// contraction loads unit-stride.
    metr_soa: Vec<f64>,
    /// Nodal velocities as SoA planes (`3 * npe` per element).
    vel_soa: Vec<f64>,
}

impl Caches {
    /// The per-degree tables; the per-mesh parts start empty.
    fn new(re: &RefElement) -> Self {
        Caches {
            wv: re.tensor_weights(3),
            wf: re.tensor_weights(2),
            face_idx: re.face_node_table(3),
            ..Caches::default()
        }
    }

    /// Bring the per-mesh parts to `mesh`, the way `geo` got there: the
    /// blocks of carried elements are moved; on fresh ones the velocity
    /// field is evaluated — at every volume node and every mortar point
    /// of 2:1 faces — and packed into SoA planes and flux records with
    /// the expressions the per-stage path evaluated, at the same points
    /// (`geo.pos`, `FaceGeo::subs[s].pos`), so bitwise identical to it.
    /// The neighbour gather names element indices: rebuilt everywhere.
    fn rebuild(
        &mut self,
        carry: &Carry,
        mesh: &DgMesh<D3>,
        geo: &MeshGeometry,
        velocity: fn([f64; 3]) -> [f64; 3],
    ) {
        let (npe, nf) = (mesh.re.nodes_per_elem(3), mesh.nfaces);
        let (npf, tab) = (mesh.re.nodes_per_face(3), &mesh.re.face_tables);
        let nel = mesh.num_elements();
        // Nothing of the gather carries; free it before the new one.
        self.nbr_gather = Vec::new();
        let old = std::mem::take(self);
        *self = Caches {
            wv: old.wv,
            wf: old.wf,
            face_idx: old.face_idx,
            face_rec: Vec::with_capacity(nel * nf * npf),
            nbr_gather: Vec::with_capacity(nel * nf * npf),
            mortar_rec: Vec::with_capacity(old.mortar_rec.len()),
            mortar_off: Vec::with_capacity(nel * nf),
            face_out: Vec::new(),
            mortar_out: Vec::new(),
            metr_soa: Vec::with_capacity(nel * 9 * npe),
            vel_soa: Vec::with_capacity(nel * 3 * npe),
        };
        assert!(nel * npe <= u32::MAX as usize, "state overflows u32");
        let mut vel = Vec::with_capacity(npe);
        for (e, &src) in carry.src.iter().enumerate() {
            let from = src.map(|i| i as usize);
            if let Some(i) = from {
                self.metr_soa
                    .extend_from_slice(&old.metr_soa[i * 9 * npe..][..9 * npe]);
                self.vel_soa
                    .extend_from_slice(&old.vel_soa[i * 3 * npe..][..3 * npe]);
                let recs = nf * npf;
                self.face_rec
                    .extend_from_slice(&old.face_rec[i * recs..][..recs]);
            } else {
                vel.clear();
                vel.extend(geo.elem_pos(e).iter().map(|&x| velocity(x)));
                let (m, v) = (self.metr_soa.len(), self.vel_soa.len());
                self.metr_soa.resize(m + 9 * npe, 0.0);
                self.vel_soa.resize(v + 3 * npe, 0.0);
                kernels::pack_volume_soa(
                    geo.elem_inv(e),
                    &vel,
                    &mut self.metr_soa[m..],
                    &mut self.vel_soa[v..],
                );
                let det = geo.elem_det(e);
                for (f, fidx) in self.face_idx.iter().enumerate() {
                    let fg = geo.face(e, f, nf);
                    for (j, &v) in fidx.iter().enumerate() {
                        let (u, n) = (vel[v], fg.normal[j]);
                        let un = u[0] * n[0] + u[1] * n[1] + u[2] * n[2];
                        let lift = self.wf[j] * fg.sj[j] / (self.wv[v] * det[v]);
                        self.face_rec.push([un, lift]);
                    }
                }
            }
            for f in 0..nf {
                let (at, face) = (self.nbr_gather.len(), mesh.face(e, f));
                self.nbr_gather.resize(at + npf, 0);
                if let FaceConn::Conforming { nbr, nbr_face, op }
                | FaceConn::CoarseNbr { nbr, nbr_face, op } = face
                {
                    if let ElemRef::Local(i) = nbr {
                        let (fidx, perm) = (&self.face_idx[*nbr_face], tab.perm(3, op.orient));
                        for (k, &c) in self.nbr_gather[at..].iter_mut().zip(perm) {
                            *k = (*i as usize * npe + fidx[c as usize]) as u32;
                        }
                    }
                }
                let FaceConn::FineNbrs { subs } = face else {
                    self.mortar_off.push(u32::MAX);
                    continue;
                };
                self.mortar_off.push(self.mortar_rec.len() as u32);
                // `geo` kept this face's `subs` iff it was a mortar before.
                let kept = from.map(|i| old.mortar_off[i * nf + f]);
                if let Some(o) = kept.filter(|&o| o != u32::MAX) {
                    let n = subs.len() * npf;
                    self.mortar_rec
                        .extend_from_slice(&old.mortar_rec[o as usize..][..n]);
                } else {
                    for sg in &geo.face(e, f, nf).subs {
                        for (j, &x) in sg.pos.iter().enumerate() {
                            let (u, n) = (velocity(x), sg.normal[j]);
                            let un = u[0] * n[0] + u[1] * n[1] + u[2] * n[2];
                            self.mortar_rec.push([un, self.wf[j] * sg.sj[j]]);
                        }
                    }
                }
            }
        }
        // The outflow flags follow the records, carried or fresh.
        let outflow = |recs: &[[f64; 2]]| -> Vec<bool> {
            let all_out = |r: &[[f64; 2]]| r.iter().all(|&[un, _]| un >= 0.0);
            recs.chunks_exact(npf).map(all_out).collect()
        };
        self.face_out = outflow(&self.face_rec);
        self.mortar_out = outflow(&self.mortar_rec);
    }
}

/// Nodal range of a function over one element (pre-adaptation
/// indicator), NaN if the function is NaN at a node.
fn element_range_of_fn(
    re: &RefElement,
    map: &dyn Mapping<D3>,
    t: TreeId,
    o: &Octant<D3>,
    f: fn([f64; 3]) -> f64,
) -> f64 {
    let np = re.np;
    let x = |i: usize| 0.5 * (re.nodes[i] + 1.0);
    nan_range((0..np * np * np).map(|n| {
        let frac = [x(n % np), x(n / np % np), x(n / (np * np))];
        f(map.map(t, forust_geom::octant_ref_coords(o, frac)))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust_comm::run_spmd;
    use forust_geom::ShellMap;

    use crate::{four_fronts, rotation_velocity};

    fn shell_solver(
        comm: &impl Communicator,
        conn: Connectivity<D3>,
        config: AdvectConfig,
        init: fn([f64; 3]) -> f64,
    ) -> AdvectSolver {
        let conn = Arc::new(conn);
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, config.initial_level);
        let map = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        AdvectSolver::new(comm, forest, map, config, init, rotation_velocity)
    }

    /// The `advect_amr` benchmark's mesh and field at degree 3 has every
    /// kind of face the surface pass tells apart — all-outflow,
    /// all-inflow and mixed conforming or coarse-neighbour faces, and
    /// all-outflow as well as other mortar sub-faces — so the bitwise
    /// suites run the outflow skip.
    #[test]
    fn benchmark_mesh_has_every_face_class() {
        run_spmd(2, |comm| {
            let config = AdvectConfig {
                initial_level: 2,
                max_level: 3,
                cfl: 0.4,
                ..AdvectConfig::default()
            };
            let s = shell_solver(comm, builders::shell24(), config, four_fronts);
            let npf = s.mesh.re.nodes_per_face(3);
            let c = &s.caches;
            // [all-outflow, all-inflow, mixed] faces, [outflow, other] subs.
            let (mut faces, mut subs) = ([0u64; 3], [0u64; 2]);
            for (ef, face) in s.mesh.faces.iter().enumerate() {
                match face {
                    FaceConn::Conforming { .. } | FaceConn::CoarseNbr { .. } => {
                        let rec = &c.face_rec[ef * npf..][..npf];
                        let inflow = rec.iter().all(|&[un, _]| un < 0.0);
                        faces[if c.face_out[ef] {
                            0
                        } else if inflow {
                            1
                        } else {
                            2
                        }] += 1;
                    }
                    FaceConn::FineNbrs { subs: fine } => {
                        let first = c.mortar_off[ef] as usize / npf;
                        for out in &c.mortar_out[first..first + fine.len()] {
                            subs[usize::from(!out)] += 1;
                        }
                    }
                    FaceConn::Boundary => {}
                }
            }
            for (n, what) in faces.into_iter().chain(subs).zip([
                "all-outflow faces",
                "all-inflow faces",
                "mixed faces",
                "all-outflow mortar sub-faces",
                "other mortar sub-faces",
            ]) {
                assert!(comm.allreduce_sum_u64(n) > 0, "no {what}");
            }
        });
    }

    /// Zero outside a ball, as in the golden tests.
    fn compact_bump(x: [f64; 3]) -> f64 {
        let d = (x[0] * x[0] + (x[1] - 0.775).powi(2) + x[2] * x[2]).sqrt();
        let b = (1.0 - d / 0.3).max(0.0);
        b * b
    }

    /// On a conforming mesh the engine RHS is the oracle's bit for bit,
    /// down to the sign of zero: where the field vanishes the volume term
    /// is `-0.0`, and every face node of an interior face — all-outflow
    /// faces included — turns it into `+0.0`.
    #[test]
    fn rhs_keeps_the_oracles_zero_signs() {
        run_spmd(1, |comm| {
            let config = AdvectConfig {
                initial_level: 2,
                min_level: 2,
                max_level: 2,
                ..AdvectConfig::default()
            };
            let s = shell_solver(comm, builders::cubed_sphere(), config, compact_bump);
            let kernel = Kernel {
                mesh: &s.mesh,
                geo: &s.geo,
                caches: &s.caches,
                velocity: s.velocity,
            };
            let npe = kernel.unit_len();
            let (mut engine, mut oracle) = (vec![0.0; s.c.len()], vec![0.0; s.c.len()]);
            let mut ws = kernel.new_scratch();
            let mut nbr_buf = Vec::new();
            for e in 0..s.mesh.num_elements() {
                let out_e = &mut engine[e * npe..(e + 1) * npe];
                kernel.rhs_unit(&s.c, e, 0.0, None, &mut ws, out_e);
                kernel.rhs_element_reference(&s.c, e, None, &mut nbr_buf, &mut oracle);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&engine), bits(&oracle));
            let signed_zeros = |sign: bool| {
                engine
                    .iter()
                    .filter(|&&x| x == 0.0 && x.is_sign_negative() == sign)
                    .count()
            };
            assert!(signed_zeros(true) > 0 && signed_zeros(false) > 0);
        });
    }

    /// A NaN or an inf at a node inside one all-outflow face — a node on
    /// no other face, so the surface pass adds only `lift·(+0.0)` there
    /// in place of its non-finite jump — stays non-finite after a step:
    /// the volume term at that node already is.
    #[test]
    fn nonfinite_value_survives_a_step() {
        for bad in [f64::NAN, f64::INFINITY] {
            run_spmd(2, |comm| {
                let config = AdvectConfig {
                    initial_level: 2,
                    min_level: 2,
                    max_level: 2,
                    ..AdvectConfig::default()
                };
                let mut s = shell_solver(comm, builders::cubed_sphere(), config, compact_bump);
                let (npe, nf, np) = (s.mesh.re.nodes_per_elem(3), s.mesh.nfaces, s.mesh.re.np);
                let interior = |f: &FaceConn| {
                    matches!(f, FaceConn::Conforming { .. } | FaceConn::CoarseNbr { .. })
                };
                let ef = (0..s.mesh.faces.len())
                    .find(|&ef| s.caches.face_out[ef] && interior(&s.mesh.faces[ef]))
                    .expect("an all-outflow interior face");
                // Face-lattice node (1, 1): inside the face.
                let at = (ef / nf) * npe + s.caches.face_idx[ef % nf][np + 1];
                s.c[at] = bad;
                s.step(comm);
                assert!(!s.c[at].is_finite(), "{bad} healed");
            });
        }
    }
}
