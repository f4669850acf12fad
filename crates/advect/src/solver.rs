//! The adaptive dG advection solver driver.

use std::sync::Arc;
use std::time::{Duration, Instant};

use forust::connectivity::{Connectivity, TreeId};
use forust::dim::D3;
use forust::forest::{BalanceType, CheckpointError, Forest, SolverFormat};
use forust::linear;
use forust::octant::Octant;
use forust_comm::Communicator;
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
        for _ in config.initial_level..config.max_level {
            let needs: Vec<(TreeId, Octant<D3>)> = {
                let mut v = Vec::new();
                for (t, o) in forest.iter_local() {
                    if o.level < config.max_level
                        && element_range_of_fn(&re, &*map, t, o, init) > config.refine_tol
                    {
                        v.push((t, *o));
                    }
                }
                v
            };
            let set: std::collections::HashSet<(u32, u64, u8)> = needs
                .iter()
                .map(|(t, o)| (*t, o.morton(), o.level))
                .collect();
            forest.refine(comm, false, |t, o| set.contains(&(t, o.morton(), o.level)));
        }
        forest.balance(comm, BalanceType::Full);
        forest.partition(comm);

        Self::assemble(comm, forest, map, config, velocity, 0.0, 0, |geo| {
            geo.pos.iter().map(|&x| init(x)).collect()
        })
    }

    /// Put a solver together on `forest` at `(time, steps)`, with the
    /// field given on the freshly built geometry — the common tail of
    /// [`new`](Self::new) and the two restore paths.
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

    /// Largest stable time step on the current mesh.
    fn stable_dt(&self, comm: &impl Communicator) -> f64 {
        let re = &self.mesh.re;
        let npe = re.nodes_per_elem(3);
        let mut lam_max: f64 = 1e-30;
        for e in 0..self.mesh.num_elements() {
            let inv = self.geo.elem_inv(e);
            for v in 0..npe {
                let u = self.caches.vel[e * npe + v];
                let mut lam = 0.0;
                for r in 0..3 {
                    let a = u[0] * inv[v][r][0] + u[1] * inv[v][r][1] + u[2] * inv[v][r][2];
                    lam += a.abs();
                }
                lam_max = lam_max.max(lam);
            }
        }
        let global = comm.allreduce_max_f64(lam_max);
        let n = self.config.degree as f64;
        self.config.cfl * 2.0 / (global * (n + 1.0) * (n + 1.0))
    }

    /// Advance one RK step; adapt every `adapt_every` steps.
    ///
    /// The stages, the split-phase ghost exchange and the pool sweeps are
    /// the shared [`Stepper`]'s; this solver contributes [`Kernel`].
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
    /// (reference gradient → metric contraction → flux accumulation),
    /// cached nodal/mortar velocities, and workspace-backed face buffers —
    /// zero heap allocations.
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
        // aligned trace (or mine at the mortar points, then the weighted
        // mortar flux) in face_b, the fine neighbor's trace and the
        // lifted flux in nbr; face_c is the face operators' scratch.
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
            // Surface terms.
            for f in 0..6 {
                let fg = self.geo.face(e, f, self.mesh.nfaces);
                let fidx = &cache.face_idx[f];
                let cm = &mut face_a[..npf];
                for (c, &i) in cm.iter_mut().zip(fidx.iter()) {
                    *c = ce[i];
                }
                match self.mesh.face(e, f) {
                    FaceConn::Boundary => {
                        // Tangential velocity at shell boundaries: the
                        // reflective flux difference vanishes identically.
                    }
                    FaceConn::Conforming { nbr, nbr_face, op }
                    | FaceConn::CoarseNbr { nbr, nbr_face, op } => {
                        let cp = &mut face_b[..npf];
                        nbr_trace(*op, *nbr, *nbr_face, face_c, cp);
                        for j in 0..npf {
                            let v = fidx[j];
                            let u = cache.vel[e * npe + v];
                            let n = fg.normal[j];
                            let un = u[0] * n[0] + u[1] * n[1] + u[2] * n[2];
                            let fstar = if un >= 0.0 { un * cm[j] } else { un * cp[j] };
                            let coef = cache.wf[j] * fg.sj[j] / (cache.wv[v] * det[v]);
                            out_e[v] += coef * (un * cm[j] - fstar);
                        }
                    }
                    FaceConn::FineNbrs { subs } => {
                        let moff = cache.mortar_off[e * self.mesh.nfaces + f] as usize;
                        for (s, sub) in subs.iter().enumerate() {
                            let sg = &fg.subs[s];
                            let mortar = &mut face_b[..npf];
                            let their = &mut nbr_buf[..npf];
                            sub.op.apply(tab, 3, cm, face_c, mortar);
                            nbr_trace(FaceOp::IDENTITY, sub.nbr, sub.nbr_face, face_c, their);
                            // Quadrature-weighted upwind flux difference
                            // at the mortar points, in place of my trace.
                            for j in 0..npf {
                                let u = cache.mortar_vel[moff + s * npf + j];
                                let n = sg.normal[j];
                                let un = u[0] * n[0] + u[1] * n[1] + u[2] * n[2];
                                let mine = mortar[j];
                                let fstar = if un >= 0.0 { un * mine } else { un * their[j] };
                                mortar[j] = cache.wf[j] * sg.sj[j] * (un * mine - fstar);
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

        // Per-element indicator: nodal range.
        let old = self.forest.clone();
        let mut indicator: Vec<f64> = Vec::with_capacity(self.mesh.num_elements());
        for e in 0..self.mesh.num_elements() {
            let ce = &self.c[e * npe..(e + 1) * npe];
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in ce {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            indicator.push(hi - lo);
        }
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
                .fold(0.0, f64::max)
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

    /// Fractions of elements refined/coarsened in the last adapt cycle are
    /// not tracked individually; expose element counts for the harness.
    pub fn local_elements(&self) -> usize {
        self.mesh.num_elements()
    }

    /// This rank's checkpoint segment ([`Forest::segment_bytes`]): the
    /// solution rides as state, the step count as epoch, `time` as its
    /// bits. Purely local; the same bytes go to disk and to buddy memory.
    ///
    /// Everything else in the solver — mesh, metric terms, `dt`, cached
    /// quadrature constants — is a deterministic function of the forest
    /// and configuration and is rebuilt bitwise identically on
    /// [`AdvectSolver::restore`], even on a different rank count.
    pub fn checkpoint_segment(&self, saved_ranks: usize) -> Vec<u8> {
        let fmt = checkpoint_format(&self.config);
        let steps = self.timers.steps as u64;
        self.forest
            .segment_bytes(saved_ranks, fmt, steps, self.time, &self.c)
    }

    /// Restore a solver from the segments of a checkpoint written by
    /// [`AdvectSolver::checkpoint_segment`] — read back from disk or from
    /// buddy memory — possibly onto a different rank count. The restored
    /// state is bitwise identical to the saved one: the solution rides the
    /// checkpoint exactly (f64 bits), `time` is restored from its saved
    /// bits, and `dt` is recomputed by the same exact max-reduction that
    /// produced it.
    pub fn restore(
        comm: &impl Communicator,
        conn: Arc<Connectivity<D3>>,
        map: Arc<dyn Mapping<D3> + Send + Sync>,
        config: AdvectConfig,
        velocity: fn([f64; 3]) -> [f64; 3],
        segments: &[Vec<u8>],
    ) -> Result<Self, CheckpointError> {
        let fmt = checkpoint_format(&config);
        let (forest, c, meta) = Forest::from_segments(conn, comm, segments, fmt)?;
        let steps = meta.epoch as usize;
        Ok(Self::assemble(
            comm,
            forest,
            map,
            config,
            velocity,
            meta.time,
            steps,
            |_| c,
        ))
    }
}

/// Magic of the solver's checkpoints.
const SOLVER_MAGIC: u64 = 0x464f_5255_4144_5653; // "FORU ADVS"

/// Checkpoint format of a run with this configuration: the solver's
/// magic and one value per volume node.
fn checkpoint_format(config: &AdvectConfig) -> SolverFormat {
    SolverFormat {
        magic: SOLVER_MAGIC,
        per_element: (config.degree + 1).pow(3),
    }
}

/// Per-mesh caches for the kernel-engine RHS: quadrature weights and face
/// node tables of the degree, nodal and mortar velocities, plus the
/// volume metric/velocity repacked as SoA planes for the fused volume
/// kernel.
#[derive(Default)]
struct Caches {
    /// Volume quadrature weights.
    wv: Vec<f64>,
    /// Face quadrature weights.
    wf: Vec<f64>,
    /// Volume node indices of each face's nodes.
    face_idx: Vec<Vec<usize>>,
    /// Velocity at every volume node, cached at mesh (re)build instead of a
    /// fn-pointer evaluation per node per stage.
    vel: Vec<[f64; 3]>,
    /// Velocity at every mortar point of 2:1 faces, flat across
    /// `(element, face, sub, face node)`.
    mortar_vel: Vec<[f64; 3]>,
    /// Offset into `mortar_vel` per `(element, face)` (`u32::MAX` when the
    /// face carries no mortar).
    mortar_off: Vec<u32>,
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

    /// Bring the per-mesh parts to `mesh`, the way `geo` got there: blocks
    /// of carried elements are moved, the velocity field is evaluated —
    /// at every volume node and every mortar point of 2:1 faces — and the
    /// SoA planes of [`kernels::pack_volume_soa`] packed only on fresh
    /// ones. The points are exactly the ones the per-stage fn-pointer
    /// path evaluated (`geo.pos`, `FaceGeo::subs[s].pos`), so the cached
    /// values are bitwise identical to it.
    fn rebuild(
        &mut self,
        carry: &Carry,
        mesh: &DgMesh<D3>,
        geo: &MeshGeometry,
        velocity: fn([f64; 3]) -> [f64; 3],
    ) {
        let (npe, nf) = (mesh.re.nodes_per_elem(3), mesh.nfaces);
        let per_sub = mesh.re.nodes_per_face(3);
        let nel = mesh.num_elements();
        let old = std::mem::take(self);
        *self = Caches {
            wv: old.wv,
            wf: old.wf,
            face_idx: old.face_idx,
            vel: Vec::with_capacity(nel * npe),
            mortar_vel: Vec::with_capacity(old.mortar_vel.len()),
            mortar_off: Vec::with_capacity(nel * nf),
            metr_soa: Vec::with_capacity(nel * 9 * npe),
            vel_soa: Vec::with_capacity(nel * 3 * npe),
        };
        for (e, &src) in carry.src.iter().enumerate() {
            let from = src.map(|i| i as usize);
            if let Some(i) = from {
                self.vel.extend_from_slice(&old.vel[i * npe..][..npe]);
                self.metr_soa
                    .extend_from_slice(&old.metr_soa[i * 9 * npe..][..9 * npe]);
                self.vel_soa
                    .extend_from_slice(&old.vel_soa[i * 3 * npe..][..3 * npe]);
            } else {
                self.vel
                    .extend(geo.elem_pos(e).iter().map(|&x| velocity(x)));
                let (m, v) = (self.metr_soa.len(), self.vel_soa.len());
                self.metr_soa.resize(m + 9 * npe, 0.0);
                self.vel_soa.resize(v + 3 * npe, 0.0);
                kernels::pack_volume_soa(
                    geo.elem_inv(e),
                    &self.vel[e * npe..],
                    &mut self.metr_soa[m..],
                    &mut self.vel_soa[v..],
                );
            }
            for f in 0..nf {
                let FaceConn::FineNbrs { subs } = mesh.face(e, f) else {
                    self.mortar_off.push(u32::MAX);
                    continue;
                };
                self.mortar_off.push(self.mortar_vel.len() as u32);
                // `geo` kept this face's `subs` iff it was a mortar before.
                let kept = from.map(|i| old.mortar_off[i * nf + f]);
                if let Some(o) = kept.filter(|&o| o != u32::MAX) {
                    let n = subs.len() * per_sub;
                    self.mortar_vel
                        .extend_from_slice(&old.mortar_vel[o as usize..][..n]);
                } else {
                    for sg in &geo.face(e, f, nf).subs {
                        self.mortar_vel.extend(sg.pos.iter().map(|&x| velocity(x)));
                    }
                }
            }
        }
    }
}

/// Nodal range of a function over one element (pre-adaptation indicator).
fn element_range_of_fn(
    re: &RefElement,
    map: &dyn Mapping<D3>,
    t: TreeId,
    o: &Octant<D3>,
    f: fn([f64; 3]) -> f64,
) -> f64 {
    let np = re.np;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for k in 0..np {
        for j in 0..np {
            for i in 0..np {
                let frac = [
                    0.5 * (re.nodes[i] + 1.0),
                    0.5 * (re.nodes[j] + 1.0),
                    0.5 * (re.nodes[k] + 1.0),
                ];
                let xi = forust_geom::octant_ref_coords(o, frac);
                let v = f(map.map(t, xi));
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    hi - lo
}
