//! The elastic wave propagation solver (dGea analogue).
//!
//! Velocity–strain form (paper eqs. 3a/3b), nine unknowns per node
//! (3 velocity + 6 strain), discretized with nodal dG and integrated with
//! the five-stage fourth-order low-storage RK scheme. The numerical flux
//! is an impedance-weighted central-plus-penalty (Rusanov-type) flux — a
//! documented substitution for the exact Godunov flux of the paper's
//! companion reference [8]; it upwinds the same characteristics with the
//! same maximal wave speed and is what the scaling experiments exercise.
//!
//! Both shell boundaries are traction-free (the paper couples the mantle
//! to an acoustic core; the truncation is documented in DESIGN.md).

use std::sync::Arc;
use std::time::{Duration, Instant};

use forust::connectivity::Connectivity;
use forust::dim::D3;
use forust::forest::{BalanceType, CheckpointError, Forest, SolverFormat};
use forust_comm::Communicator;
use forust_dg::geometry::{FaceGeo, MeshGeometry};
use forust_dg::halo::{HaloData, HaloExchange, HaloLane};
use forust_dg::kernels::{self, KernelWorkspace};
use forust_dg::lserk::lserk_step;
use forust_dg::mesh::{DgMesh, ElemRef, FaceConn};
use forust_dg::real::Real;
use forust_dg::stepper::{RhsKernel, Stepper};
use forust_dg::{FaceOp, FaceTables};
use forust_geom::Mapping;

use crate::model::{ricker, Material};

/// Number of state components: `(vx, vy, vz, Exx, Eyy, Ezz, Eyz, Exz, Exy)`.
pub const NCOMP: usize = 9;

/// Standard deviation of the source's Gaussian spatial weight.
const SOURCE_WIDTH: f64 = 0.02;

/// Seismic experiment parameters.
#[derive(Debug, Clone)]
pub struct SeismicConfig {
    /// Polynomial degree (6 in the paper's Fig. 9, 7 in Fig. 10).
    pub degree: usize,
    /// Coarsest / finest refinement levels of the wavelength meshing.
    pub min_level: u8,
    /// Refinement ceiling.
    pub max_level: u8,
    /// Source peak frequency (Hz-like normalized units).
    pub f0: f64,
    /// Points per wavelength the mesh must resolve (10 in the paper).
    pub ppw: f64,
    /// CFL number.
    pub cfl: f64,
    /// Source position.
    pub src: [f64; 3],
    /// Source direction (body force).
    pub src_dir: [f64; 3],
}

impl Default for SeismicConfig {
    fn default() -> Self {
        SeismicConfig {
            degree: 3,
            min_level: 0,
            max_level: 3,
            f0: 2.0,
            ppw: 10.0,
            cfl: 0.4,
            src: [0.0, 0.0, 0.9],
            src_dir: [0.0, 0.0, 1.0],
        }
    }
}

/// Wall-time split reported by Fig. 9 (meshing vs wave propagation).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeismicTimers {
    /// Parallel adaptive mesh generation (the "meshing" column).
    pub meshing: Duration,
    /// Total wave-propagation time (the per-step column divides by steps).
    pub wave_prop: Duration,
    /// Steps taken.
    pub steps: usize,
}

/// The elastic wave solver on a wavelength-adapted forest mesh.
pub struct SeismicSolver {
    /// Parameters.
    pub config: SeismicConfig,
    /// The (static) forest.
    pub forest: Forest<D3>,
    /// dG mesh.
    pub mesh: DgMesh<D3>,
    /// Metric terms.
    pub geo: MeshGeometry,
    /// Split-phase face-trace ghost exchange of the (static) mesh.
    pub halo: HaloExchange<D3>,
    /// State, `num_elements * npe * NCOMP`, component-major per element.
    pub q: Vec<f64>,
    /// Nodal material: (rho, lambda, mu) per volume node.
    pub mat: Vec<[f64; 3]>,
    /// Spatial weight of the source per volume node: a Gaussian of width
    /// [`SOURCE_WIDTH`] about `config.src`, evaluated once at assembly.
    pub(crate) srcw: Vec<f64>,
    /// Simulated time and step size.
    pub time: f64,
    /// Stable step size.
    pub dt: f64,
    /// Wall-time split.
    pub timers: SeismicTimers,
    /// The shared split-phase LSERK driver: RK registers and one kernel
    /// workspace per pool lane, sized once at mesh build so steady-state
    /// stepping allocates nothing.
    pub stepper: Stepper,
    /// Volume / face quadrature weights and face→volume node maps.
    pub(crate) wv: Vec<f64>,
    pub(crate) wf: Vec<f64>,
    pub(crate) face_idx: Vec<Vec<usize>>,
}

impl SeismicSolver {
    /// Build the wavelength-adapted mesh ("adapted to local wave speed")
    /// and the solver state. The meshing wall time lands in
    /// `timers.meshing` — Fig. 9's first column.
    pub fn new(
        comm: &impl Communicator,
        mut forest: Forest<D3>,
        map: Arc<dyn Mapping<D3> + Send + Sync>,
        config: SeismicConfig,
        model: impl Fn([f64; 3]) -> Material + Copy,
    ) -> Self {
        let t0 = Instant::now();
        // Wavelength meshing: refine while the element is larger than the
        // local minimum wavelength allows: h > N * lambda_min / ppw, with
        // lambda_min = vs_min / (2.5 f0) (Ricker bandwidth).
        let fmax = 2.5 * config.f0;
        let n = config.degree as f64;
        for _ in 0..(config.max_level - config.min_level) {
            let marks: std::collections::HashSet<(u32, u64, u8)> = forest
                .iter_local()
                .filter(|(t, o)| {
                    if o.level >= config.max_level {
                        return false;
                    }
                    // Element size and minimum vs from the corner points.
                    let mut h: f64 = 0.0;
                    let mut vs_min = f64::INFINITY;
                    let corners: Vec<[f64; 3]> = (0..8)
                        .map(|c| {
                            let off = <D3 as forust::dim::Dim>::corner_offset(c);
                            let xi = forust_geom::octant_ref_coords::<D3>(
                                o,
                                [off[0] as f64, off[1] as f64, off[2] as f64],
                            );
                            map.map(*t, xi)
                        })
                        .collect();
                    for i in 0..8 {
                        vs_min = vs_min.min(model(corners[i]).vs);
                        for j in (i + 1)..8 {
                            let d = (0..3)
                                .map(|k| (corners[i][k] - corners[j][k]).powi(2))
                                .sum::<f64>()
                                .sqrt();
                            h = h.max(d / 3f64.sqrt()); // diagonal -> edge scale
                        }
                    }
                    let lambda_min = vs_min / fmax;
                    h > n * lambda_min / config.ppw
                })
                .map(|(t, o)| (t, o.morton(), o.level))
                .collect();
            if comm.allreduce_sum_u64(marks.len() as u64) == 0 {
                break;
            }
            forest.refine(comm, false, |t, o| {
                marks.contains(&(t, o.morton(), o.level))
            });
        }
        forest.balance(comm, BalanceType::Full);
        forest.partition(comm);

        Self::assemble(comm, forest, map, config, model, Some(t0), None)
    }

    /// Build everything that is a function of the forest — mesh, metric
    /// terms, halo, nodal material, constants, scratch, `dt` — around a
    /// state: a restored checkpoint, or rest at time zero. `meshing_t0`
    /// is when mesh generation started; the span to the end of the halo
    /// build lands in `timers.meshing`.
    fn assemble(
        comm: &impl Communicator,
        forest: Forest<D3>,
        map: Arc<dyn Mapping<D3> + Send + Sync>,
        config: SeismicConfig,
        model: impl Fn([f64; 3]) -> Material + Copy,
        meshing_t0: Option<Instant>,
        restored: Option<(Vec<f64>, f64, usize)>,
    ) -> Self {
        let mesh = DgMesh::build(&forest, comm, config.degree);
        let geo = MeshGeometry::build(&mesh, &*map);
        let halo = HaloExchange::build(&mesh);
        let meshing = meshing_t0.map_or(Duration::ZERO, |t0| t0.elapsed());

        let re = &mesh.re;
        let npe = re.nodes_per_elem(3);
        let (q, time, steps) =
            restored.unwrap_or_else(|| (vec![0.0; mesh.num_elements() * npe * NCOMP], 0.0, 0));
        let mat: Vec<[f64; 3]> = geo
            .pos
            .iter()
            .map(|&x| {
                let m = model(x);
                [m.rho, m.lambda(), m.mu()]
            })
            .collect();
        let srcw: Vec<f64> = geo
            .pos
            .iter()
            .map(|p| {
                let dx = [
                    p[0] - config.src[0],
                    p[1] - config.src[1],
                    p[2] - config.src[2],
                ];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                (-r2 / (2.0 * SOURCE_WIDTH * SOURCE_WIDTH)).exp()
            })
            .collect();
        let mut s = SeismicSolver {
            stepper: Stepper::default(),
            srcw,
            wv: re.tensor_weights(3),
            wf: re.tensor_weights(2),
            face_idx: re.face_node_table(3),
            config,
            forest,
            mesh,
            geo,
            halo,
            q,
            mat,
            time,
            dt: 0.0,
            timers: SeismicTimers {
                meshing,
                steps,
                ..Default::default()
            },
        };
        s.dt = s.stable_dt(comm);
        s
    }

    /// Global unknown count (9 per node).
    pub fn num_global_unknowns(&self) -> u64 {
        self.forest.num_global() * (self.mesh.re.nodes_per_elem(3) * NCOMP) as u64
    }

    fn stable_dt(&self, comm: &impl Communicator) -> f64 {
        let npe = self.mesh.re.nodes_per_elem(3);
        let mut lam_max: f64 = 1e-30;
        for e in 0..self.mesh.num_elements() {
            let inv = self.geo.elem_inv(e);
            for v in 0..npe {
                let m = self.mat[e * npe + v];
                let cp = ((m[1] + 2.0 * m[2]) / m[0]).sqrt();
                let mut lam = 0.0;
                for r in 0..3 {
                    let nrm =
                        (inv[v][r][0].powi(2) + inv[v][r][1].powi(2) + inv[v][r][2].powi(2)).sqrt();
                    lam += cp * nrm;
                }
                lam_max = lam_max.max(lam);
            }
        }
        let global = comm.allreduce_max_f64(lam_max);
        let n = self.config.degree as f64;
        self.config.cfl * 2.0 / (global * (n + 1.0) * (n + 1.0))
    }

    /// The disjoint parts of a step: the stepper, the halo, the state,
    /// and the element kernel reading everything else — in place: the
    /// f64 view borrows the solver's own mesh data.
    pub(crate) fn parts(&mut self) -> (&mut Stepper, &HaloExchange<D3>, &mut Vec<f64>, Kernel<'_>) {
        let re = &self.mesh.re;
        let kernel = Kernel {
            mesh: &self.mesh,
            inv: &self.geo.inv_jac,
            det: &self.geo.det_jac,
            faces: &self.geo.faces,
            mat: &self.mat,
            srcw: &self.srcw,
            wv: &self.wv,
            wf: &self.wf,
            face_idx: &self.face_idx,
            diff: &re.diff.data,
            tab: &re.face_tables,
            f0: self.config.f0,
            src_dir: self.config.src_dir,
        };
        (&mut self.stepper, &self.halo, &mut self.q, kernel)
    }

    /// Advance one RK step.
    ///
    /// The stages, the split-phase ghost exchange and the pool sweeps are
    /// the shared [`Stepper`]'s; this solver contributes [`Kernel`].
    /// Steady-state allocation-free.
    pub fn step(&mut self, comm: &impl Communicator) {
        {
            let _span = forust_obs::span!("seismic.step");
            let t0 = Instant::now();
            let (time, dt) = (self.time, self.dt);
            let (stepper, halo, q, kernel) = self.parts();
            stepper.step(comm, halo, q, time, dt, &kernel);
            self.time += self.dt;
            self.timers.wave_prop += t0.elapsed();
            self.timers.steps += 1;
        }
        // Outside the block so the step's spans have closed before the
        // per-step time-series mark slices them into deltas.
        forust_obs::step_mark(self.timers.steps as u64);
    }

    /// **Test oracle.** One RK step through the pre-kernel-engine RHS
    /// path (per-element gradient/`matvec`/trace allocations, serial
    /// sweeps), driven by the plain [`lserk_step`]. Retained (precedent:
    /// `morton_reference`, `balance_ripple`) so regression tests can
    /// assert that [`step`](Self::step) through the specialized engine
    /// and the shared stepper stays bitwise identical.
    pub fn step_reference(&mut self, comm: &impl Communicator) {
        let _span = forust_obs::span!("seismic.step");
        let t0 = Instant::now();
        let mut q = std::mem::take(&mut self.q);
        let mut resid = vec![0.0; q.len()];
        let mut sig_nodal = vec![0.0; 6 * self.mesh.re.nodes_per_elem(3)];
        let mut nbr_buf: Vec<f64> = Vec::new();
        // Oracle RHS: blocking exchange, then one serial element sweep.
        lserk_step(&mut q, &mut resid, self.time, self.dt, |t, q, out| {
            let traces = self.halo.exchange(comm, q, NCOMP);
            let traces = Some(&traces);
            for e in 0..self.mesh.num_elements() {
                self.rhs_element_reference(q, e, t, traces, &mut sig_nodal, &mut nbr_buf, out);
            }
        });
        self.q = q;
        self.time += self.dt;
        self.timers.wave_prop += t0.elapsed();
        self.timers.steps += 1;
    }

    /// Floating-point operations of one RHS evaluation on this rank,
    /// counted by hand like the paper's Tflops column. The count covers
    /// what the engine executes: the 27 tensor gradient sweeps (3 velocity
    /// and 6 stress fields, 3 axes, `2·npe·np` flops each), the nodal work
    /// (Hooke's law, metric contraction, source: ~140 flops per node), the
    /// point flux and lift of all six faces (~90 flops per face node) and,
    /// on 2:1 faces only, the tensor mortar sweeps (`2·npf·np` flops each:
    /// two per component on the fine side, four — interpolation and lift —
    /// per component and sub-face on the coarse side). Same-size faces add
    /// nothing: aligning a neighbor's trace is an index gather.
    pub fn flops_per_rhs(&self) -> u64 {
        let np = self.mesh.re.np as u64;
        let npe = np * np * np;
        let npf = np * np;
        let nel = self.mesh.num_elements() as u64;
        let mortar_sweeps: u64 = self
            .mesh
            .faces
            .iter()
            .map(|f| match f {
                FaceConn::CoarseNbr { .. } => 2,
                FaceConn::FineNbrs { subs } => 4 * subs.len() as u64,
                _ => 0,
            })
            .sum();
        nel * (27 * 2 * npe * np + 140 * npe + 6 * npf * 90)
            + NCOMP as u64 * mortar_sweeps * 2 * npf * np
    }

    /// Total flops per full RK step (5 stages).
    pub fn flops_per_step(&self) -> u64 {
        5 * self.flops_per_rhs() + 4 * self.q.len() as u64
    }

    /// Discrete energy: `1/2 rho |v|^2 + 1/2 sigma : E` integrated.
    pub fn energy(&self, comm: &impl Communicator) -> f64 {
        let npe = self.mesh.re.nodes_per_elem(3);
        let mut en = 0.0;
        for e in 0..self.mesh.num_elements() {
            let det = self.geo.elem_det(e);
            for v in 0..npe {
                let s = node_state(&self.q, npe, e, v);
                let m = self.mat[e * npe + v];
                let (lam, mu) = (m[1], m[2]);
                let tr = s[3] + s[4] + s[5];
                let kinetic = 0.5 * m[0] * (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]);
                let strain = 0.5
                    * (lam * tr * tr
                        + 2.0
                            * mu
                            * (s[3] * s[3]
                                + s[4] * s[4]
                                + s[5] * s[5]
                                + 2.0 * (s[6] * s[6] + s[7] * s[7] + s[8] * s[8])));
                en += self.wv[v] * det[v] * (kinetic + strain);
            }
        }
        comm.allreduce_sum_f64(en)
    }
}

/// The nine state components at node `v` of element `e` of `q`.
#[inline]
fn node_state<R: Real>(q: &[R], npe: usize, e: usize, v: usize) -> [R; NCOMP] {
    let base = e * npe * NCOMP;
    let mut s = [R::ZERO; NCOMP];
    for (c, item) in s.iter_mut().enumerate() {
        *item = q[base + c * npe + v];
    }
    s
}

/// Hooke's law: the Voigt stress `(xx, yy, zz, yz, xz, xy)` of a state.
#[inline(always)]
fn stress<R: Real>(s: &[R; NCOMP], lam: R, mu: R) -> [R; 6] {
    let mu2 = (R::ONE + R::ONE) * mu;
    let tr = s[3] + s[4] + s[5];
    [
        mu2 * s[3] + lam * tr,
        mu2 * s[4] + lam * tr,
        mu2 * s[5] + lam * tr,
        mu2 * s[6],
        mu2 * s[7],
        mu2 * s[8],
    ]
}

/// Traction `sigma . n` of a Voigt-stored stress.
#[inline(always)]
fn sig_n<R: Real>(sg: &[R; 6], n: [R; 3]) -> [R; 3] {
    [
        sg[0] * n[0] + sg[5] * n[1] + sg[4] * n[2],
        sg[5] * n[0] + sg[1] * n[1] + sg[3] * n[2],
        sg[4] * n[0] + sg[3] * n[1] + sg[2] * n[2],
    ]
}

/// The impedance-weighted penalty flux at one face point: the RHS jump of
/// all nine components for interior state `qm`, exterior state `qp`,
/// outward normal `n` and material `m = (rho, lambda, mu)`. One
/// definition for both tiers; the oracle keeps its own copy, on purpose.
#[inline(always)]
pub(crate) fn penalty_flux<R: Real>(
    qm: &[R; NCOMP],
    qp: &[R; NCOMP],
    n: [R; 3],
    m: [R; 3],
) -> [R; NCOMP] {
    let (rho, lam, mu) = (m[0], m[1], m[2]);
    let cp = ((lam + (R::ONE + R::ONE) * mu) / rho).sqrt();
    let z = rho * cp;
    let tm = sig_n(&stress(qm, lam, mu), n);
    let tp = sig_n(&stress(qp, lam, mu), n);
    let mut d = [R::ZERO; NCOMP];
    let mut dvs = [R::ZERO; 3];
    for i in 0..3 {
        // Numerical traces.
        let tstar = R::HALF * (tm[i] + tp[i]) + R::HALF * z * (qp[i] - qm[i]);
        let vstar = R::HALF * (qm[i] + qp[i]) + R::HALF / z * (tp[i] - tm[i]);
        d[i] = (tstar - tm[i]) / rho;
        dvs[i] = vstar - qm[i];
    }
    d[3] = n[0] * dvs[0];
    d[4] = n[1] * dvs[1];
    d[5] = n[2] * dvs[2];
    d[6] = R::HALF * (n[1] * dvs[2] + n[2] * dvs[1]);
    d[7] = R::HALF * (n[0] * dvs[2] + n[2] * dvs[0]);
    d[8] = R::HALF * (n[0] * dvs[1] + n[1] * dvs[0]);
    d
}

/// A scalar tier the elastic kernel runs in: `f64` on the host, `f32` on
/// the device ([`crate::device`]), each with the floating-point
/// environment its pool jobs run under.
pub(crate) trait Tier: HaloLane {
    /// Enter the tier's floating-point environment: the guard is held
    /// around every pool job of a step in this tier.
    fn fp_scope() -> impl Sized;
}

/// The host tier: strict IEEE, nothing to set.
impl Tier for f64 {
    fn fp_scope() -> impl Sized {}
}

/// The elastic element kernel (velocity–strain volume terms, Ricker
/// source, impedance-weighted penalty flux, mortar-consistent on 2:1
/// faces): a borrowed view, in scalar tier `R`, of what the RHS of one
/// element reads. The host solver fills it in place from its own mesh
/// data ([`SeismicSolver::parts`]); the device tier from the f32 copies
/// its transfer made. Topology is the host mesh's in both.
pub(crate) struct Kernel<'a, R = f64> {
    pub mesh: &'a DgMesh<D3>,
    /// Inverse Jacobian and determinant per volume node.
    pub inv: &'a [[[R; 3]; 3]],
    pub det: &'a [R],
    /// Face metric, `e * 6 + f`.
    pub faces: &'a [FaceGeo<R>],
    /// `(rho, lambda, mu)` and source weight per volume node.
    pub mat: &'a [[R; 3]],
    pub srcw: &'a [R],
    /// Volume / face quadrature weights and face→volume node maps.
    pub wv: &'a [R],
    pub wf: &'a [R],
    pub face_idx: &'a [Vec<usize>],
    /// Differentiation matrix, `np x np` row-major.
    pub diff: &'a [R],
    pub tab: &'a FaceTables<R>,
    /// Source peak frequency and direction.
    pub f0: f64,
    pub src_dir: [R; 3],
}

/// One unit is one element: `npe * NCOMP` values, component-major.
impl<R: Tier> RhsKernel<D3> for Kernel<'_, R> {
    type Real = R;
    const NCOMP: usize = NCOMP;
    const GRAIN: usize = 4;

    fn unit_len(&self) -> usize {
        self.mesh.re.nodes_per_elem(3) * NCOMP
    }

    fn new_scratch(&self) -> KernelWorkspace<R> {
        let re = &self.mesh.re;
        let mut ws = KernelWorkspace::new();
        ws.configure(re.nodes_per_elem(3), re.nodes_per_face(3), NCOMP);
        ws
    }

    fn fp_scope() -> impl Sized {
        R::fp_scope()
    }

    /// RHS of a single element via the kernel engine: nodal stress in the
    /// workspace, batched 9-field reference gradients (two sweeps share
    /// each operator row), flat component-major face traces, and
    /// neighbor traces through the faces' [`FaceOp`]s (a gather, plus
    /// tensor sweeps and their transposed lift on 2:1 faces) — zero heap
    /// allocations.
    ///
    /// Never inlined: generic, it is instantiated next to the stepper's
    /// sweep closure, and folded into it the gradient and face sections
    /// measured 5–15 % slower than as the function of its own the
    /// concrete f64 kernel used to be.
    #[inline(never)]
    fn rhs_unit(
        &self,
        q: &[R],
        e: usize,
        t: f64,
        traces: Option<&HaloData<'_, D3, R>>,
        ws: &mut KernelWorkspace<R>,
        out_e: &mut [R],
    ) {
        let re = &self.mesh.re;
        let npe = re.nodes_per_elem(3);
        let npf = re.nodes_per_face(3);
        let chunk = npe * NCOMP;
        // Split-borrow the workspace: nodal stress in `nodal`, batched
        // gradients in `grad` (free again by the surface terms, where it
        // holds the weighted mortar fluxes), my face trace in `face_a`,
        // the neighbor's in `face_b`; `face_c` is the face operators'
        // scratch and `nbr` takes the lifted mortar flux.
        let KernelWorkspace {
            grad,
            nodal,
            face_a,
            face_b,
            face_c,
            nbr: lifted,
            ..
        } = ws;

        let tab = self.tab;
        // Component `c` of a neighbor's trace on its `nbr_face`, taken
        // through `op` into `out`: one gather straight out of `q` or the
        // ghost traces.
        let nbr_trace =
            |op: FaceOp, r: ElemRef, nbr_face: usize, c: usize, tmp: &mut [R], out: &mut [R]| {
                match r {
                    ElemRef::Local(i) => {
                        let nv = &q[i as usize * chunk + c * npe..][..npe];
                        op.apply_indexed(tab, 3, nv, &self.face_idx[nbr_face], tmp, out);
                    }
                    ElemRef::Ghost(g) => {
                        let (trace, pos) = traces
                            .expect("interior element classified with a ghost face")
                            .face_source(g as usize, nbr_face, c);
                        op.apply_indexed(tab, 3, trace, pos, tmp, out);
                    }
                }
            };
        {
            let base = e * chunk;
            let inv = &self.inv[e * npe..(e + 1) * npe];
            let det = &self.det[e * npe..(e + 1) * npe];

            // Nodal stress into the workspace.
            let sig_nodal = &mut nodal[..6 * npe];
            // One slice per stress plane, so the node loop's stores are
            // provably disjoint from each other and it vectorizes.
            let qe = &q[base..base + chunk];
            let mat_e = &self.mat[e * npe..(e + 1) * npe];
            let mut planes = sig_nodal.chunks_exact_mut(npe);
            let sig: [&mut [R]; 6] = std::array::from_fn(|_| planes.next().expect("six planes"));
            for v in 0..npe {
                let s: [R; NCOMP] = std::array::from_fn(|c| qe[c * npe + v]);
                let sg = stress(&s, mat_e[v][1], mat_e[v][2]);
                for c in 0..6 {
                    sig[c][v] = sg[c];
                }
            }
            // Reference gradients of velocity (3) and stress (6): two
            // batched sweeps into disjoint panels of the workspace,
            // layout `[field][axis][node]`.
            let (gv, gs) = grad[..NCOMP * 3 * npe].split_at_mut(3 * 3 * npe);
            kernels::batched_gradient_any(self.diff, re.np, 3, &q[base..base + 3 * npe], 3, gv);
            kernels::batched_gradient_any(self.diff, re.np, 3, sig_nodal, 6, gs);
            // Volume terms. The source is Gaussian in space (cached per
            // node at assembly) times a Ricker wavelet in time.
            let src_t = R::from_f64(ricker(t, self.f0, 1.2 / self.f0));
            let srcw = &self.srcw[e * npe..(e + 1) * npe];
            for v in 0..npe {
                let m = self.mat[e * npe + v];
                let rho = m[0];
                // Physical derivative d(field)/dx_i = sum_r inv[r][i] dref_r
                // of field `fld` of a batched gradient panel. Written out:
                // `.sum()` through a generic `R: Sum` bound costs this loop
                // 5x at either precision, and `(a + b) + c` is bit for bit
                // what the float fold from `-0.0` computes.
                let dphys = |g: &[R], fld: usize, i: usize| -> R {
                    let term = |r: usize| inv[v][r][i] * g[(fld * 3 + r) * npe + v];
                    term(0) + term(1) + term(2)
                };
                // Momentum: rho v_i' = sum_j d sigma_ij / dx_j.
                // Voigt: row x = (sxx, sxy, sxz) = (0, 5, 4), etc.
                let dv = [
                    (dphys(gs, 0, 0) + dphys(gs, 5, 1) + dphys(gs, 4, 2)) / rho,
                    (dphys(gs, 5, 0) + dphys(gs, 1, 1) + dphys(gs, 3, 2)) / rho,
                    (dphys(gs, 4, 0) + dphys(gs, 3, 1) + dphys(gs, 2, 2)) / rho,
                ];
                // Strain: E' = sym grad v.
                let gvx = [dphys(gv, 0, 0), dphys(gv, 0, 1), dphys(gv, 0, 2)];
                let gvy = [dphys(gv, 1, 0), dphys(gv, 1, 1), dphys(gv, 1, 2)];
                let gvz = [dphys(gv, 2, 0), dphys(gv, 2, 1), dphys(gv, 2, 2)];
                let de = [
                    gvx[0],
                    gvy[1],
                    gvz[2],
                    R::HALF * (gvy[2] + gvz[1]),
                    R::HALF * (gvx[2] + gvz[0]),
                    R::HALF * (gvx[1] + gvy[0]),
                ];
                let amp = src_t * srcw[v];
                for c in 0..3 {
                    out_e[c * npe + v] = dv[c] + amp * self.src_dir[c] / rho;
                }
                for c in 0..6 {
                    out_e[(3 + c) * npe + v] = de[c];
                }
            }

            // Surface terms. Face traces live in flat component-major
            // workspace slabs (`[component][face node]`, `npf` stride):
            // `face_a` is my trace, `face_b` the neighbor's.
            for f in 0..6 {
                let fg = &self.faces[e * 6 + f];
                let fidx = &self.face_idx[f];
                // My face trace of all components.
                for c in 0..NCOMP {
                    for (j, &i) in fidx.iter().enumerate() {
                        face_a[c * npf + j] = q[base + c * npe + i];
                    }
                }

                let apply_flux =
                    |qm: &[R],
                     qp: &[R],
                     normals: &[[R; 3]],
                     sjs: &[R],
                     lift: &mut dyn FnMut(usize, [R; NCOMP], R)| {
                        for j in 0..npf {
                            // Assemble the nodal states from the flat slabs.
                            let mut qmj = [R::ZERO; NCOMP];
                            let mut qpj = [R::ZERO; NCOMP];
                            for c in 0..NCOMP {
                                qmj[c] = qm[c * npf + j];
                                qpj[c] = qp[c * npf + j];
                            }
                            let m = self.mat[e * npe + fidx[j]]; // at the volume node
                            let d = penalty_flux(&qmj, &qpj, normals[j], m);
                            lift(j, d, sjs[j]);
                        }
                    };

                // Nodal lift of the flux jumps of a boundary or same-size face.
                let mut lift_nodal = |j: usize, d: [R; NCOMP], s: R| {
                    let v = fidx[j];
                    let coef = self.wf[j] * s / (self.wv[v] * det[v]);
                    for (c, dc) in d.iter().enumerate() {
                        out_e[c * npe + v] += coef * *dc;
                    }
                };
                match self.mesh.face(e, f) {
                    FaceConn::Boundary => {
                        // Traction-free: mirror with opposite traction.
                        // qp = qm with strain negated gives tp = -tm and
                        // vp = vm.
                        for c in 0..NCOMP {
                            for j in 0..npf {
                                let s = face_a[c * npf + j];
                                face_b[c * npf + j] = if c >= 3 { -s } else { s };
                            }
                        }
                        apply_flux(face_a, face_b, &fg.normal, &fg.sj, &mut lift_nodal);
                    }
                    FaceConn::Conforming { nbr, nbr_face, op }
                    | FaceConn::CoarseNbr { nbr, nbr_face, op } => {
                        // Each component's neighbor trace at my face nodes.
                        for (c, qp) in face_b.chunks_exact_mut(npf).enumerate() {
                            nbr_trace(*op, *nbr, *nbr_face, c, face_c, qp);
                        }
                        apply_flux(face_a, face_b, &fg.normal, &fg.sj, &mut lift_nodal);
                    }
                    FaceConn::FineNbrs { subs } => {
                        let flux = &mut grad[..NCOMP * npf];
                        for (si, sub) in subs.iter().enumerate() {
                            let sg = &fg.subs[si];
                            // My trace at the fine mortar points, straight
                            // out of `q` (the raw trace in face_a is not
                            // read again), against the fine neighbor's
                            // trace at its own face nodes.
                            for c in 0..NCOMP {
                                let mine = &q[base + c * npe..][..npe];
                                let at = c * npf..(c + 1) * npf;
                                sub.op.apply_indexed(
                                    tab,
                                    3,
                                    mine,
                                    fidx,
                                    face_c,
                                    &mut face_a[at.clone()],
                                );
                                let their = &mut face_b[at];
                                nbr_trace(
                                    FaceOp::IDENTITY,
                                    sub.nbr,
                                    sub.nbr_face,
                                    c,
                                    face_c,
                                    their,
                                );
                            }
                            // Quadrature-weighted flux jumps at the mortar
                            // points, then the lift through the mortar
                            // transpose, component by component.
                            apply_flux(face_a, face_b, &sg.normal, &sg.sj, &mut |j, d, s| {
                                let w = self.wf[j] * s;
                                for (c, dc) in d.iter().enumerate() {
                                    flux[c * npf + j] = w * *dc;
                                }
                            });
                            let lifted = &mut lifted[..npf];
                            for (c, g) in flux.chunks_exact(npf).enumerate() {
                                sub.op.apply_transpose(tab, 3, g, face_c, lifted);
                                for (&v, h) in fidx.iter().zip(lifted.iter()) {
                                    out_e[c * npe + v] += *h / (self.wv[v] * det[v]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl SeismicSolver {
    /// Oracle per-element RHS: the pre-kernel-engine implementation,
    /// verbatim (allocating per-component `gradient`/`matvec`/`collect`).
    #[allow(clippy::too_many_arguments)]
    fn rhs_element_reference(
        &self,
        q: &[f64],
        e: usize,
        t: f64,
        traces: Option<&HaloData<'_, D3>>,
        sig_nodal: &mut [f64],
        nbr_buf: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        let re = &self.mesh.re;
        let npe = re.nodes_per_elem(3);
        let npf = re.nodes_per_face(3);
        let chunk = npe * NCOMP;

        // Stress of a state given material.
        let stress = |s: &[f64; NCOMP], lam: f64, mu: f64| -> [f64; 6] {
            let tr = s[3] + s[4] + s[5];
            [
                2.0 * mu * s[3] + lam * tr,
                2.0 * mu * s[4] + lam * tr,
                2.0 * mu * s[5] + lam * tr,
                2.0 * mu * s[6], // yz
                2.0 * mu * s[7], // xz
                2.0 * mu * s[8], // xy
            ]
        };
        // sigma . n for Voigt-stored sigma.
        let sig_n = |sg: &[f64; 6], n: [f64; 3]| -> [f64; 3] {
            [
                sg[0] * n[0] + sg[5] * n[1] + sg[4] * n[2],
                sg[5] * n[0] + sg[1] * n[1] + sg[3] * n[2],
                sg[4] * n[0] + sg[3] * n[1] + sg[2] * n[2],
            ]
        };

        let cfg = &self.config;
        // Face trace of one component of a neighbor (its `nbr_face`,
        // face-lattice order).
        let nbr_trace = |r: ElemRef, nbr_face: usize, c: usize, buf: &mut Vec<f64>| match r {
            ElemRef::Local(i) => {
                let off = i as usize * chunk;
                buf.clear();
                buf.extend(
                    self.face_idx[nbr_face]
                        .iter()
                        .map(|&n| q[off + c * npe + n]),
                );
            }
            ElemRef::Ghost(g) => {
                traces
                    .expect("interior element classified with a ghost face")
                    .face_values(g as usize, nbr_face, c, buf);
            }
        };
        {
            let base = e * chunk;
            let inv = self.geo.elem_inv(e);
            let det = self.geo.elem_det(e);
            let pos = self.geo.elem_pos(e);

            // Nodal stress.
            for v in 0..npe {
                let s = node_state(q, npe, e, v);
                let m = self.mat[e * npe + v];
                let sg = stress(&s, m[1], m[2]);
                for c in 0..6 {
                    sig_nodal[c * npe + v] = sg[c];
                }
            }
            // Reference gradients of velocity (3) and stress (6).
            let mut gv = Vec::with_capacity(3);
            for c in 0..3 {
                gv.push(re.gradient(&q[base + c * npe..base + (c + 1) * npe], 3));
            }
            let mut gs = Vec::with_capacity(6);
            for c in 0..6 {
                gs.push(re.gradient(&sig_nodal[c * npe..(c + 1) * npe], 3));
            }
            // Volume terms.
            for v in 0..npe {
                let m = self.mat[e * npe + v];
                let rho = m[0];
                // Physical derivative d(field)/dx_i = sum_r inv[r][i] dref_r.
                let dphys = |g: &Vec<Vec<f64>>, i: usize| -> f64 {
                    (0..3).map(|r| inv[v][r][i] * g[r][v]).sum()
                };
                // Momentum: rho v_i' = sum_j d sigma_ij / dx_j.
                // Voigt: row x = (sxx, sxy, sxz) = (0, 5, 4), etc.
                let dv = [
                    (dphys(&gs[0], 0) + dphys(&gs[5], 1) + dphys(&gs[4], 2)) / rho,
                    (dphys(&gs[5], 0) + dphys(&gs[1], 1) + dphys(&gs[3], 2)) / rho,
                    (dphys(&gs[4], 0) + dphys(&gs[3], 1) + dphys(&gs[2], 2)) / rho,
                ];
                // Strain: E' = sym grad v.
                let gvx = [dphys(&gv[0], 0), dphys(&gv[0], 1), dphys(&gv[0], 2)];
                let gvy = [dphys(&gv[1], 0), dphys(&gv[1], 1), dphys(&gv[1], 2)];
                let gvz = [dphys(&gv[2], 0), dphys(&gv[2], 1), dphys(&gv[2], 2)];
                let de = [
                    gvx[0],
                    gvy[1],
                    gvz[2],
                    0.5 * (gvy[2] + gvz[1]),
                    0.5 * (gvx[2] + gvz[0]),
                    0.5 * (gvx[1] + gvy[0]),
                ];
                // Source: Gaussian-in-space Ricker-in-time body force.
                let dx = [
                    pos[v][0] - cfg.src[0],
                    pos[v][1] - cfg.src[1],
                    pos[v][2] - cfg.src[2],
                ];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                let sw = 0.02;
                let amp = ricker(t, cfg.f0, 1.2 / cfg.f0) * (-r2 / (2.0 * sw * sw)).exp();
                for c in 0..3 {
                    out[base + c * npe + v] = dv[c] + amp * cfg.src_dir[c] / rho;
                }
                for c in 0..6 {
                    out[base + (3 + c) * npe + v] = de[c];
                }
            }

            // Surface terms.
            for f in 0..6 {
                let fg = self.geo.face(e, f, 6);
                let fidx = &self.face_idx[f];
                // My face traces of all components.
                let trace = |buf: &[f64], off: usize, idxs: &[usize]| -> Vec<[f64; NCOMP]> {
                    idxs.iter()
                        .map(|&i| {
                            let mut s = [0.0; NCOMP];
                            for (c, item) in s.iter_mut().enumerate() {
                                *item = buf[off + c * npe + i];
                            }
                            s
                        })
                        .collect()
                };
                let mine: Vec<[f64; NCOMP]> = trace(q, base, fidx);

                // Gather the neighbor's aligned trace (or build a boundary
                // mirror state).
                let apply_flux =
                    |qm: &[[f64; NCOMP]],
                     qp: &[[f64; NCOMP]],
                     normals: &[[f64; 3]],
                     sjs: &[f64],
                     lift: &mut dyn FnMut(usize, [f64; NCOMP], f64)| {
                        for j in 0..qm.len() {
                            let v = fidx[j % npf]; // volume node for material
                            let m = self.mat[e * npe + v];
                            let (rho, lam, mu) = (m[0], m[1], m[2]);
                            let cp = ((lam + 2.0 * mu) / rho).sqrt();
                            let z = rho * cp;
                            let n = normals[j];
                            let sgm = stress(&qm[j], lam, mu);
                            let sgp = stress(&qp[j], lam, mu);
                            let tm = sig_n(&sgm, n);
                            let tp = sig_n(&sgp, n);
                            // Numerical traces.
                            let tstar = [
                                0.5 * (tm[0] + tp[0]) + 0.5 * z * (qp[j][0] - qm[j][0]),
                                0.5 * (tm[1] + tp[1]) + 0.5 * z * (qp[j][1] - qm[j][1]),
                                0.5 * (tm[2] + tp[2]) + 0.5 * z * (qp[j][2] - qm[j][2]),
                            ];
                            let vstar = [
                                0.5 * (qm[j][0] + qp[j][0]) + 0.5 / z * (tp[0] - tm[0]),
                                0.5 * (qm[j][1] + qp[j][1]) + 0.5 / z * (tp[1] - tm[1]),
                                0.5 * (qm[j][2] + qp[j][2]) + 0.5 / z * (tp[2] - tm[2]),
                            ];
                            let mut d = [0.0; NCOMP];
                            for i in 0..3 {
                                d[i] = (tstar[i] - tm[i]) / rho;
                            }
                            let dvs = [
                                vstar[0] - qm[j][0],
                                vstar[1] - qm[j][1],
                                vstar[2] - qm[j][2],
                            ];
                            d[3] = n[0] * dvs[0];
                            d[4] = n[1] * dvs[1];
                            d[5] = n[2] * dvs[2];
                            d[6] = 0.5 * (n[1] * dvs[2] + n[2] * dvs[1]);
                            d[7] = 0.5 * (n[0] * dvs[2] + n[2] * dvs[0]);
                            d[8] = 0.5 * (n[0] * dvs[1] + n[1] * dvs[0]);
                            lift(j, d, sjs[j]);
                        }
                    };

                match self.mesh.face(e, f) {
                    FaceConn::Boundary => {
                        // Traction-free: mirror with opposite traction.
                        // qp = qm with strain negated gives tp = -tm and
                        // vp = vm.
                        let qp: Vec<[f64; NCOMP]> = mine
                            .iter()
                            .map(|s| {
                                let mut r = *s;
                                for c in 3..9 {
                                    r[c] = -r[c];
                                }
                                r
                            })
                            .collect();
                        let (normal, sj) = (&fg.normal, &fg.sj);
                        apply_flux(&mine, &qp, normal, sj, &mut |j, d, s| {
                            let v = fidx[j];
                            let coef = self.wf[j] * s / (self.wv[v] * det[v]);
                            for (c, dc) in d.iter().enumerate() {
                                out[base + c * npe + v] += coef * dc;
                            }
                        });
                    }
                    FaceConn::Conforming { nbr, nbr_face, op }
                    | FaceConn::CoarseNbr { nbr, nbr_face, op } => {
                        // Interpolate each component's neighbor trace.
                        let from_nbr = op.to_dense(&re.face_tables, 3);
                        let mut qp = vec![[0.0; NCOMP]; npf];
                        for c in 0..NCOMP {
                            nbr_trace(*nbr, *nbr_face, c, nbr_buf);
                            let gp = from_nbr.matvec(nbr_buf);
                            for j in 0..npf {
                                qp[j][c] = gp[j];
                            }
                        }
                        apply_flux(&mine, &qp, &fg.normal, &fg.sj, &mut |j, d, s| {
                            let v = fidx[j];
                            let coef = self.wf[j] * s / (self.wv[v] * det[v]);
                            for (c, dc) in d.iter().enumerate() {
                                out[base + c * npe + v] += coef * dc;
                            }
                        });
                    }
                    FaceConn::FineNbrs { subs } => {
                        for (si, sub) in subs.iter().enumerate() {
                            let sg = &fg.subs[si];
                            let dense = sub.op.to_dense(&re.face_tables, 3);
                            // My trace at the fine mortar points.
                            let mut qm = vec![[0.0; NCOMP]; npf];
                            for c in 0..NCOMP {
                                let myface: Vec<f64> =
                                    fidx.iter().map(|&i| q[base + c * npe + i]).collect();
                                let at_fine = dense.matvec(&myface);
                                for j in 0..npf {
                                    qm[j][c] = at_fine[j];
                                }
                            }
                            let mut qp = vec![[0.0; NCOMP]; npf];
                            for c in 0..NCOMP {
                                nbr_trace(sub.nbr, sub.nbr_face, c, nbr_buf);
                                for j in 0..npf {
                                    qp[j][c] = nbr_buf[j];
                                }
                            }
                            apply_flux(&qm, &qp, &sg.normal, &sg.sj, &mut |j, d, s| {
                                // Lift through the mortar transpose.
                                let w = self.wf[j] * s;
                                for i in 0..npf {
                                    let v = fidx[i];
                                    let coef = dense.data[j * npf + i] * w / (self.wv[v] * det[v]);
                                    for (c, dc) in d.iter().enumerate() {
                                        out[base + c * npe + v] += coef * dc;
                                    }
                                }
                            });
                        }
                    }
                }
            }
        }
    }

    /// This rank's checkpoint segment ([`Forest::segment_bytes`]): the
    /// state rides as state, the step count as epoch, `time` as its bits.
    /// Purely local; the same bytes go to disk and to buddy memory.
    ///
    /// Everything else — mesh, metric terms, nodal material, `dt` — is a
    /// deterministic function of the forest, configuration, and material
    /// model, and is rebuilt bitwise identically on
    /// [`SeismicSolver::restore`], even on a different rank count.
    pub fn checkpoint_segment(&self, saved_ranks: usize) -> Vec<u8> {
        let fmt = checkpoint_format(&self.config);
        let steps = self.timers.steps as u64;
        self.forest
            .segment_bytes(saved_ranks, fmt, steps, self.time, &self.q)
    }

    /// Restore a solver from the segments of a checkpoint written by
    /// [`SeismicSolver::checkpoint_segment`] — read back from disk or from
    /// buddy memory — possibly onto a different rank count; the restored
    /// state continues bitwise identically to an uninterrupted run.
    pub fn restore(
        comm: &impl Communicator,
        conn: Arc<Connectivity<D3>>,
        map: Arc<dyn Mapping<D3> + Send + Sync>,
        config: SeismicConfig,
        model: impl Fn([f64; 3]) -> Material + Copy,
        segments: &[Vec<u8>],
    ) -> Result<Self, CheckpointError> {
        let fmt = checkpoint_format(&config);
        let (forest, q, meta) = Forest::from_segments(conn, comm, segments, fmt)?;
        let restored = Some((q, meta.time, meta.epoch as usize));
        Ok(Self::assemble(
            comm, forest, map, config, model, None, restored,
        ))
    }

    /// Maximum velocity magnitude (diagnostic / wavefront indicator).
    pub fn max_velocity(&self, comm: &impl Communicator) -> f64 {
        let npe = self.mesh.re.nodes_per_elem(3);
        let mut m: f64 = 0.0;
        for e in 0..self.mesh.num_elements() {
            for v in 0..npe {
                let s = node_state(&self.q, npe, e, v);
                m = m.max((s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt());
            }
        }
        comm.allreduce_max_f64(m)
    }
}

/// Magic of the solver's checkpoints.
const SOLVER_MAGIC: u64 = 0x464f_5255_5345_4953; // "FORU SEIS"

/// Checkpoint format of a run with this configuration: the solver's
/// magic and `NCOMP` values per volume node.
fn checkpoint_format(config: &SeismicConfig) -> SolverFormat {
    SolverFormat {
        magic: SOLVER_MAGIC,
        per_element: (config.degree + 1).pow(3) * NCOMP,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceState;
    use crate::model::prem_like_at;
    use forust::connectivity::builders;
    use forust_comm::run_spmd;
    use forust_geom::ShellMap;

    /// One RHS evaluation of every local element through `kernel`, behind
    /// a blocking trace exchange in the kernel's own precision.
    fn rhs_all<R: Tier>(
        kernel: &Kernel<'_, R>,
        halo: &HaloExchange<D3>,
        comm: &impl Communicator,
        q: &[R],
        t: f64,
    ) -> Vec<R> {
        let _fp = R::fp_scope();
        let traces = halo.exchange(comm, q, NCOMP);
        let mut ws = kernel.new_scratch();
        let mut out = vec![R::ZERO; q.len()];
        for (e, out_e) in out.chunks_mut(kernel.unit_len()).enumerate() {
            kernel.rhs_unit(q, e, t, Some(&traces), &mut ws, out_e);
        }
        out
    }

    /// One kernel, two precisions: on an adapted shell with every face
    /// kind and ghost faces, the f32 instantiation of one RHS evaluation
    /// of a random O(1) state is the f64 one up to single-precision
    /// rounding (measured 1.6–2.0e-7 relative L∞).
    #[test]
    fn kernel_f32_is_kernel_f64_per_rhs_up_to_rounding() {
        for degree in [3usize, 4] {
            run_spmd(3, |comm| {
                let conn = Arc::new(builders::shell24());
                let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
                let map: Arc<dyn Mapping<D3> + Send + Sync> =
                    Arc::new(ShellMap::new(conn, 0.55, 1.0));
                let config = SeismicConfig {
                    degree,
                    min_level: 1,
                    max_level: 2,
                    f0: 3.0,
                    ppw: 6.0,
                    ..Default::default()
                };
                let t = 1.2 / config.f0; // the Ricker peak
                let mut host = SeismicSolver::new(comm, forest, map, config, prem_like_at);

                // Every face kind, and ghost faces, are in the run.
                let mut kinds = [0u64; 5];
                for face in &host.mesh.faces {
                    let (kind, ghost) = match face {
                        FaceConn::Boundary => (0, false),
                        FaceConn::Conforming { nbr, .. } => (1, matches!(nbr, ElemRef::Ghost(_))),
                        FaceConn::CoarseNbr { nbr, .. } => (2, matches!(nbr, ElemRef::Ghost(_))),
                        FaceConn::FineNbrs { subs } => {
                            (3, subs.iter().any(|s| matches!(s.nbr, ElemRef::Ghost(_))))
                        }
                    };
                    kinds[kind] += 1;
                    kinds[4] += u64::from(ghost);
                }
                for (kind, n) in kinds.into_iter().enumerate() {
                    assert!(comm.allreduce_sum_u64(n) > 0, "no face of kind {kind}");
                }

                // Seeded random state in [-1, 1].
                let mut state = 0x5eed_0000 + comm.rank() as u64;
                for v in host.q.iter_mut() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *v = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                }
                let mut dev = DeviceState::from_host(&host);

                let r32 = {
                    let (_, q, kernel) = dev.parts(&host);
                    rhs_all(&kernel, &host.halo, comm, q, t)
                };
                let r64 = {
                    let (_, halo, q, kernel) = host.parts();
                    rhs_all(&kernel, halo, comm, q, t)
                };

                let mut num = 0.0f64;
                let mut den = 0.0f64;
                for (&a, &b) in r64.iter().zip(&r32) {
                    num = num.max((a - f64::from(b)).abs());
                    den = den.max(a.abs());
                }
                let num = comm.allreduce_max_f64(num);
                let den = comm.allreduce_max_f64(den);
                assert!(den > 0.0);
                if comm.rank() == 0 {
                    println!("degree {degree}: f32 vs f64 RHS {:.3e}", num / den);
                }
                assert!(
                    num / den <= 2e-6,
                    "degree {degree}: f32 RHS off the f64 RHS by {:.3e}",
                    num / den
                );
            });
        }
    }
}
