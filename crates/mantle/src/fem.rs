//! Trilinear FEM for variable-viscosity Stokes on a forest mesh.
//!
//! Velocity (3 components) and pressure share the trilinear node basis of
//! `forust`'s `Nodes` (the paper: "Rhea discretizes the velocity, pressure,
//! and temperature fields with trilinear hexahedral finite elements");
//! equal order is stabilized by the polynomial pressure projection
//! (paper ref. \[40\]). Everything is matrix-free: the saddle operator
//! `[A Bt; B -C]` is applied element by element with 2x2x2 Gauss
//! quadrature, with hanging-node constraints and cross-rank assembly
//! applied around each operator application.

use std::sync::{Arc, Mutex};

use forust::dim::{Dim, D3};
use forust::forest::Forest;
use forust::nodes::{NodeStatus, Nodes};
use forust_comm::{allreduce_max_abs, allreduce_sum_f64_exact, Communicator, FixedPoint};
use forust_dg::cg::HangingInterp;
use forust_geom::{octant_ref_coords, Mapping};

use crate::rheology::{synthetic_temperature, viscosity, RheologyParams};

/// Elements per pool chunk in the element-integration sweeps. Chunk
/// boundaries are a function of the element count and this constant
/// only, never of the worker count — part of the bitwise-determinism
/// contract (each element's contributions are computed independently and
/// written to its own window; the cross-element scatter happens later on
/// the serial fixed-point assembly path).
const FEM_GRAIN: usize = 32;

/// One element's nodal contributions, `[component][corner]`: three
/// velocity components and the pressure.
type ElemContrib = [[f64; 8]; 4];

/// Gauss points of the 2-point rule on [-1, 1].
const GP: [f64; 2] = [
    -0.577350269189625764509148780502,
    0.577350269189625764509148780502,
];

/// The eight Gauss points of an element as vector lanes: one value per
/// quadrature point `q = x + 2y + 4z`.
type Lanes = [f64; 8];

/// `((0.0 + t[0]) + t[1]) + … + t[7]`: the quadrature sum of one output,
/// in the order (and from the signed zero) of a scalar `+=` loop.
///
/// Kept out of line: inlined, its serial chain is spread through the
/// element kernel's vector code and the kernel runs about 2× slower.
#[inline(never)]
fn qsum(t: Lanes) -> f64 {
    t.iter().fold(0.0, |s, &v| s + v)
}

/// Buffers of one operator application, reused across calls. The
/// element windows (`32` values per element) are not among them: kept
/// alive between calls, they stayed pinned through every adapt, raised
/// `mantle_picard`'s peak RSS by 6–13 % and made its step about 4 %
/// slower than allocating them per call.
#[derive(Default)]
struct Scratch {
    /// The pre-processed input (`pre`).
    z: Vec<f64>,
    /// The fixed-point assembly accumulator.
    acc: Vec<i128>,
}

/// Matrix-free Stokes discretization state for one mesh.
pub struct StokesFem {
    /// The trilinear node numbering.
    pub nodes: Nodes,
    /// Hanging-node constraint weights.
    pub interp: HangingInterp,
    /// Local node count.
    pub nn: usize,
    /// Per element: physical basis gradients, `[basis][xyz][qp]`, the
    /// quadrature points as vector lanes.
    qp_grads: Vec<[[Lanes; 3]; 8]>,
    /// Per element x quadrature point: `w * detJ`.
    qp_wdet: Vec<f64>,
    /// Per element x quadrature point: physical position.
    pub qp_pos: Vec<[f64; 3]>,
    /// Basis values at quadrature points (`[basis][qp]`, constant).
    basis: [Lanes; 8],
    /// Viscosity at quadrature points (updated by Picard).
    pub eta_qp: Vec<f64>,
    /// Nodal temperature (from the synthetic model).
    pub temp: Vec<f64>,
    /// The Dirichlet (no-slip) nodes, ascending: shell boundaries.
    dirichlet: Vec<usize>,
    /// The owned nodes, ascending: the dofs of global dot products.
    owned: Vec<usize>,
    /// Per-call buffers, like the halo exchange's scratch.
    scratch: Mutex<Scratch>,
}

/// Trilinear basis value at a reference point (`xi` in `[-1,1]^3`).
fn phi(j: usize, xi: [f64; 3]) -> f64 {
    let s = |b: usize, x: f64| {
        if b == 1 {
            0.5 * (1.0 + x)
        } else {
            0.5 * (1.0 - x)
        }
    };
    s(j & 1, xi[0]) * s((j >> 1) & 1, xi[1]) * s((j >> 2) & 1, xi[2])
}

/// Reference gradient of the trilinear basis.
fn dphi(j: usize, xi: [f64; 3]) -> [f64; 3] {
    let s = |b: usize, x: f64| {
        if b == 1 {
            0.5 * (1.0 + x)
        } else {
            0.5 * (1.0 - x)
        }
    };
    let ds = |b: usize| if b == 1 { 0.5 } else { -0.5 };
    let (bx, by, bz) = (j & 1, (j >> 1) & 1, (j >> 2) & 1);
    [
        ds(bx) * s(by, xi[1]) * s(bz, xi[2]),
        s(bx, xi[0]) * ds(by) * s(bz, xi[2]),
        s(bx, xi[0]) * s(by, xi[1]) * ds(bz),
    ]
}

impl StokesFem {
    /// Build the FEM state on a balanced forest (trilinear numbering,
    /// quadrature geometry, temperature, boundary flags; viscosity starts
    /// at the linear (strain-rate-free) value).
    pub fn build(
        forest: &Forest<D3>,
        comm: &impl Communicator,
        map: &Arc<dyn Mapping<D3> + Send + Sync>,
        rheology: &RheologyParams,
    ) -> Self {
        let ghost = forest.ghost(comm);
        let nodes = forest.nodes(comm, &ghost, 1);
        let interp = HangingInterp::build(&nodes);
        let nn = nodes.num_local();
        let nel = forest.num_local();

        // Quadrature geometry.
        let mut qp_grads = Vec::with_capacity(nel);
        let mut qp_wdet = Vec::with_capacity(nel * 8);
        let mut qp_pos = Vec::with_capacity(nel * 8);
        let basis: [Lanes; 8] = std::array::from_fn(|j| {
            std::array::from_fn(|q| phi(j, [GP[q & 1], GP[(q >> 1) & 1], GP[(q >> 2) & 1]]))
        });
        for (t, o) in forest.iter_local() {
            let mut grads = [[[0.0; 8]; 3]; 8];
            for q in 0..8 {
                let xi = [GP[q & 1], GP[(q >> 1) & 1], GP[(q >> 2) & 1]];
                let frac = [
                    0.5 * (xi[0] + 1.0),
                    0.5 * (xi[1] + 1.0),
                    0.5 * (xi[2] + 1.0),
                ];
                let tref = octant_ref_coords(o, frac);
                let jt = map.jacobian(t, tref);
                let scale = o.len() as f64 / (2.0 * D3::root_len() as f64);
                let mut jac = [[0.0f64; 3]; 3];
                for r in 0..3 {
                    for c in 0..3 {
                        jac[r][c] = jt[r][c] * scale;
                    }
                }
                let det = det3(&jac);
                assert!(det != 0.0, "degenerate element");
                let inv = inv3(&jac, det);
                for (j, g) in grads.iter_mut().enumerate() {
                    let dr = dphi(j, xi);
                    for i in 0..3 {
                        // dphi/dx_i = sum_r inv[r][i] dphi/dxi_r.
                        g[i][q] = (0..3).map(|r| inv[r][i] * dr[r]).sum();
                    }
                }
                // Gauss weights are all 1; |det| handles left-handed
                // tree frames (cubed-sphere caps).
                qp_wdet.push(det.abs());
                qp_pos.push(map.map(t, tref));
            }
            qp_grads.push(grads);
        }

        // Nodal temperature and boundary flags from the canonical key
        // positions (key scaled coords = positions for degree 1).
        let bigl = D3::root_len();
        let mut temp = vec![0.0; nn];
        let mut bc = vec![false; nn];
        // Positions: evaluate through the elements so every node gets one.
        for (e, (t, o)) in forest.iter_local().enumerate() {
            let en = nodes.element(e);
            for (c, &ni) in en.iter().enumerate() {
                let off = D3::corner_offset(c);
                let xi = octant_ref_coords(o, [off[0] as f64, off[1] as f64, off[2] as f64]);
                let x = map.map(t, xi);
                temp[ni as usize] = synthetic_temperature(x);
                // Shell boundary: tree z at 0 or root_len.
                let z = o.z + off[2] * o.len();
                if z == 0 || z == bigl {
                    bc[ni as usize] = true;
                }
            }
        }

        let dirichlet = (0..nn).filter(|&i| bc[i]).collect();
        let owned: Vec<usize> = (0..nn)
            .filter(|&i| {
                matches!(nodes.status[i], NodeStatus::Independent { owner, .. } if owner == comm.rank())
            })
            .collect();

        let mut fem = StokesFem {
            nodes,
            interp,
            nn,
            qp_grads,
            qp_wdet,
            qp_pos,
            basis,
            eta_qp: vec![1.0; nel * 8],
            temp,
            dirichlet,
            owned,
            scratch: Mutex::default(),
        };
        // Initial viscosity from temperature at a reference strain rate.
        let u0 = vec![0.0; 4 * nn];
        fem.update_viscosity(rheology, &u0);
        fem
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.nodes.num_elements()
    }

    /// Total solution length: `3 nn` velocity + `nn` pressure.
    pub fn vec_len(&self) -> usize {
        4 * self.nn
    }

    /// Global number of velocity+pressure unknowns.
    pub fn num_global_unknowns(&self) -> u64 {
        self.nodes.num_global * 4
    }

    /// Globally consistent inner product (owned dofs only).
    ///
    /// Reduced with the fixed-point exact sum, so the result is bitwise
    /// independent of the rank count: the recovery supervisor restarts
    /// mantle runs on fewer ranks and asserts bitwise-identical state, and
    /// every MINRES recurrence scalar derives from these dots. The terms
    /// are the products over owned dofs, node by node, recomputed for the
    /// grid and for the encode rather than stored.
    pub fn dot(&self, comm: &impl Communicator, a: &[f64], b: &[f64]) -> f64 {
        let nn = self.nn;
        allreduce_sum_f64_exact(comm, || {
            self.owned.iter().flat_map(move |&i| {
                std::array::from_fn::<f64, 4, _>(|c| a[c * nn + i] * b[c * nn + i])
            })
        })
    }

    /// Picard viscosity update from the current velocity. Each element's
    /// eight quadrature values depend only on that element's nodal state,
    /// so the sweep fans out over the worker pool with every element
    /// writing its own `eta_qp` window.
    pub fn update_viscosity(&mut self, p: &RheologyParams, x: &[f64]) {
        let nn = self.nn;
        let mut eta = std::mem::take(&mut self.eta_qp);
        let no_scratch = &mut [(); forust_pool::MAX_LANES];
        forust_pool::par_chunks_mut(&mut eta, 8, FEM_GRAIN, None, no_scratch, |e, eta_e, _| {
            let en = self.element_nodes(e);
            let g = &self.qp_grads[e];
            // Strain rate second invariant and temperature at the
            // quadrature points.
            let mut grad = [[[0.0f64; 8]; 3]; 3];
            let mut t = [0.0; 8];
            for (j, &ni) in en.iter().enumerate() {
                for d in 0..3 {
                    for i in 0..3 {
                        for q in 0..8 {
                            grad[d][i][q] += x[d * nn + ni] * g[j][i][q];
                        }
                    }
                }
                for q in 0..8 {
                    t[q] += self.basis[j][q] * self.temp[ni];
                }
            }
            for (q, eta_q) in eta_e.iter_mut().enumerate() {
                let mut eps2 = 0.0;
                for d in 0..3 {
                    for i in 0..3 {
                        let s = 0.5 * (grad[d][i][q] + grad[i][d][q]);
                        eps2 += s * s;
                    }
                }
                let eps_ii = eps2.sqrt().max(1e-8);
                *eta_q = viscosity(p, self.qp_pos[e * 8 + q], t[q], eps_ii);
            }
        });
        self.eta_qp = eta;
    }

    /// Local node indices of element `e`'s eight corners.
    fn element_nodes(&self, e: usize) -> [usize; 8] {
        let mut en = [0usize; 8];
        for (d, &i) in en.iter_mut().zip(self.nodes.element(e)) {
            *d = i as usize;
        }
        en
    }

    /// Every hanging node: not an unknown.
    fn hanging(&self) -> impl Iterator<Item = usize> + '_ {
        self.interp.iter().map(|(i, _)| i as usize)
    }

    /// The per-call buffers. A panicking holder leaves nothing that the
    /// next call does not overwrite, so a poisoned lock is recovered.
    fn scratch(&self) -> std::sync::MutexGuard<'_, Scratch> {
        self.scratch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Apply boundary/hanging pre-state to `x` in `z`: distribute hanging
    /// values, zero Dirichlet velocities.
    fn pre(&self, x: &[f64], z: &mut Vec<f64>) {
        let nn = self.nn;
        z.clear();
        z.extend_from_slice(x);
        for c in 0..4 {
            self.interp.distribute(&mut z[c * nn..(c + 1) * nn]);
        }
        for &i in &self.dirichlet {
            for c in 0..3 {
                z[c * nn + i] = 0.0;
            }
        }
    }

    /// The one element-integration and assembly driver: `out` (component-
    /// major, `4 nn`) becomes the globally consistent sum over all elements
    /// of `element(e, nodes_of_e)`, bitwise independently of the partition
    /// and of the worker count.
    ///
    /// The element closure runs on the pool, each element writing its own
    /// 32-value window. Its result depends only on that element's geometry
    /// and nodal state — never on which rank integrates it — so the global
    /// multiset of contributions is rank-count invariant. They are
    /// quantized onto a shared fixed-point grid (`forust_comm::repro`,
    /// `shift = 2` so the dyadic hanging weights `{1/2, 1/4}` stay exact),
    /// and the scatter, hanging collect and cross-rank reduction (all four
    /// components in one exchange) run in `i128`: associative, hence
    /// identical bits on any rank count. A non-finite contribution on any
    /// rank panics on every rank. The accumulator lives in the scratch, so
    /// the element windows are a steady-state call's one allocation.
    fn integrate(
        &self,
        comm: &impl Communicator,
        out: &mut [f64],
        element: impl Fn(usize, &[usize; 8]) -> ElemContrib + Sync,
    ) {
        let nn = self.nn;
        assert_eq!(out.len(), 4 * nn);
        let mut contribs = vec![0.0f64; self.num_elements() * 32];
        let no_scratch = &mut [(); forust_pool::MAX_LANES];
        forust_pool::par_chunks_mut(&mut contribs, 32, FEM_GRAIN, None, no_scratch, |e, w, _| {
            w.copy_from_slice(element(e, &self.element_nodes(e)).as_flattened());
        });
        let gmax = allreduce_max_abs(comm, contribs.iter().copied());
        // All ranks see the same reduced max, so all take the same branch.
        let Some(fx) = FixedPoint::for_global_max(gmax, 2) else {
            assert!(
                gmax == 0.0,
                "non-finite element contribution (global max {gmax})"
            );
            out.fill(0.0);
            return;
        };
        let mut scratch = self.scratch();
        let acc = &mut scratch.acc;
        acc.clear();
        acc.resize(4 * nn, 0);
        for (e, window) in contribs.chunks_exact(32).enumerate() {
            let en = self.element_nodes(e);
            for (c, w) in window.chunks_exact(8).enumerate() {
                for (&ni, &v) in en.iter().zip(w) {
                    acc[c * nn + ni] += fx.encode(v);
                }
            }
        }
        self.interp.collect_add_i128(acc, 4);
        self.nodes.assemble_add(comm, acc);
        for (o, &q) in out.iter_mut().zip(acc.iter()) {
            *o = fx.decode(q);
        }
    }

    /// Enforce identity rows for Dirichlet and hanging slots after an
    /// operator application: `y = x` there (those slots are not unknowns).
    fn identity_rows(&self, x: &[f64], y: &mut [f64]) {
        let nn = self.nn;
        for &i in &self.dirichlet {
            for c in 0..3 {
                y[c * nn + i] = x[c * nn + i];
            }
        }
        // Hanging slots are not unknowns: identity keeps MINRES happy.
        for i in self.hanging() {
            for c in 0..4 {
                y[c * nn + i] = x[c * nn + i];
            }
        }
    }

    /// The saddle operator: `y = [A Bt; B -C] x` with
    /// `A u = -div(2 eta eps(u))`, `B = div`, and the pressure-projection
    /// stabilization `C`.
    ///
    /// The element kernel runs the eight quadrature points as vector
    /// lanes, and sums each of its 32 outputs over them in point order
    /// from `0.0`: every output keeps the operation order of a scalar loop
    /// over the points, so its bits do not depend on the lane layout.
    pub fn apply(&self, comm: &impl Communicator, x: &[f64], y: &mut [f64]) {
        let nn = self.nn;
        let mut z = std::mem::take(&mut self.scratch().z);
        self.pre(x, &mut z);
        self.integrate(comm, y, |e, en| {
            let g = &self.qp_grads[e];
            let w: Lanes = self.qp_wdet[e * 8..e * 8 + 8].try_into().unwrap();
            let eta: Lanes = self.eta_qp[e * 8..e * 8 + 8].try_into().unwrap();
            // State at the quadrature points.
            let mut grad = [[[0.0f64; 8]; 3]; 3];
            let mut pq = [0.0; 8];
            for (j, &ni) in en.iter().enumerate() {
                let u = [z[ni], z[nn + ni], z[2 * nn + ni], z[3 * nn + ni]];
                for q in 0..8 {
                    pq[q] += self.basis[j][q] * u[3];
                }
                for d in 0..3 {
                    for i in 0..3 {
                        for q in 0..8 {
                            grad[d][i][q] += u[d] * g[j][i][q];
                        }
                    }
                }
            }
            // Element means: pressure for the stabilization, viscosity.
            let vol = qsum(w);
            let pbar = qsum(std::array::from_fn(|q| w[q] * pq[q])) / vol;
            let eta_bar = qsum(std::array::from_fn(|q| w[q] * eta[q])) / vol;
            let mut divu = [0.0; 8];
            let mut two_eta = [0.0; 8];
            let mut sym = [[[0.0f64; 8]; 3]; 3];
            for q in 0..8 {
                divu[q] = grad[0][0][q] + grad[1][1][q] + grad[2][2][q];
                two_eta[q] = 2.0 * eta[q];
                for d in 0..3 {
                    for i in 0..3 {
                        sym[d][i][q] = 0.5 * (grad[d][i][q] + grad[i][d][q]);
                    }
                }
            }
            // Test against every basis function.
            let mut comp_e = ElemContrib::default();
            for (j, gj) in g.iter().enumerate() {
                for (d, comp) in comp_e.iter_mut().take(3).enumerate() {
                    // 2 eta eps(u) : eps(phi_j e_d) = 2 eta
                    // sum_i sym[d][i] gj[i] (symmetry halves fold in).
                    let mut t = [0.0; 8];
                    for q in 0..8 {
                        let s = &sym[d];
                        let a = 0.0 + s[0][q] * gj[0][q] + s[1][q] * gj[1][q] + s[2][q] * gj[2][q];
                        t[q] = w[q] * (two_eta[q] * a - pq[q] * gj[d][q]);
                    }
                    comp[j] = qsum(t);
                }
                // Pressure row: B u - C p.
                let b = &self.basis[j];
                let mut t = [0.0; 8];
                for q in 0..8 {
                    let stab = (pq[q] - pbar) * (b[q] - 0.125);
                    t[q] = w[q] * (b[q] * divu[q] - stab / eta_bar);
                }
                comp_e[3][j] = qsum(t);
            }
            comp_e
        });
        self.scratch().z = z;
        self.identity_rows(x, y);
    }

    /// Buoyancy right-hand side: `f = Ra T r_hat` tested against the
    /// velocity basis (pressure RHS zero).
    pub fn buoyancy_rhs(&self, comm: &impl Communicator, ra: f64) -> Vec<f64> {
        let mut b = vec![0.0; 4 * self.nn];
        self.integrate(comm, &mut b, |e, en| {
            let mut comp_e = ElemContrib::default();
            for q in 0..8 {
                let w = self.qp_wdet[e * 8 + q];
                let x = self.qp_pos[e * 8 + q];
                let r = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]).sqrt().max(1e-12);
                let mut t = 0.0;
                for (j, &ni) in en.iter().enumerate() {
                    t += self.basis[j][q] * self.temp[ni];
                }
                // Hot material rises: force along +r_hat proportional to T.
                let f = ra * (t - 0.5);
                for j in 0..8 {
                    for (d, comp) in comp_e.iter_mut().take(3).enumerate() {
                        comp[j] += w * self.basis[j][q] * f * x[d] / r;
                    }
                }
            }
            comp_e
        });
        let zero = vec![0.0; 4 * self.nn];
        self.identity_rows(&zero, &mut b);
        b
    }

    /// Assembled diagonal of the viscous block (for block Jacobi) and of
    /// the inverse-viscosity pressure mass (Schur approximation).
    pub fn preconditioner_diagonals(&self, comm: &impl Communicator) -> (Vec<f64>, Vec<f64>) {
        let nn = self.nn;
        let mut du = vec![0.0; 4 * nn];
        self.integrate(comm, &mut du, |e, _| {
            let mut comp_e = ElemContrib::default();
            let mut eta_bar = 0.0;
            let mut vol = 0.0;
            for q in 0..8 {
                eta_bar += self.qp_wdet[e * 8 + q] * self.eta_qp[e * 8 + q];
                vol += self.qp_wdet[e * 8 + q];
            }
            eta_bar /= vol;
            let g = &self.qp_grads[e];
            for q in 0..8 {
                let w = self.qp_wdet[e * 8 + q];
                let eta = self.eta_qp[e * 8 + q];
                for (j, gj) in g.iter().enumerate() {
                    let norm2 = gj[0][q] * gj[0][q] + gj[1][q] * gj[1][q] + gj[2][q] * gj[2][q];
                    for (d, comp) in comp_e.iter_mut().take(3).enumerate() {
                        comp[j] += w * eta * (norm2 + gj[d][q] * gj[d][q]);
                    }
                    comp_e[3][j] += w * self.basis[j][q] * self.basis[j][q] / eta_bar;
                }
            }
            comp_e
        });
        let mut dp = du.split_off(3 * nn);
        // Identity rows.
        for i in self.dirichlet.iter().copied().chain(self.hanging()) {
            for c in 0..3 {
                du[c * nn + i] = 1.0;
            }
        }
        for i in self.hanging() {
            dp[i] = 1.0;
        }
        for v in du.iter_mut().chain(dp.iter_mut()) {
            if *v == 0.0 {
                *v = 1.0;
            }
        }
        (du, dp)
    }
}

fn det3(j: &[[f64; 3]; 3]) -> f64 {
    j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0])
}

fn inv3(j: &[[f64; 3]; 3], det: f64) -> [[f64; 3]; 3] {
    [
        [
            (j[1][1] * j[2][2] - j[1][2] * j[2][1]) / det,
            (j[0][2] * j[2][1] - j[0][1] * j[2][2]) / det,
            (j[0][1] * j[1][2] - j[0][2] * j[1][1]) / det,
        ],
        [
            (j[1][2] * j[2][0] - j[1][0] * j[2][2]) / det,
            (j[0][0] * j[2][2] - j[0][2] * j[2][0]) / det,
            (j[0][2] * j[1][0] - j[0][0] * j[1][2]) / det,
        ],
        [
            (j[1][0] * j[2][1] - j[1][1] * j[2][0]) / det,
            (j[0][1] * j[2][0] - j[0][0] * j[2][1]) / det,
            (j[0][0] * j[1][1] - j[0][1] * j[1][0]) / det,
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust::forest::BalanceType;
    use forust_comm::run_spmd;
    use forust_geom::ShellMap;

    fn setup(comm: &impl Communicator, level: u8) -> StokesFem {
        let conn = Arc::new(builders::cubed_sphere());
        let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, level);
        forest.refine(comm, false, |t, o| {
            t == 0 && o.child_id() == 0 && o.level == level
        });
        forest.balance(comm, BalanceType::Full);
        forest.partition(comm);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        StokesFem::build(&forest, comm, &map, &RheologyParams::default())
    }

    #[test]
    fn operator_is_symmetric() {
        run_spmd(2, |comm| {
            let fem = setup(comm, 1);
            let n = fem.vec_len();
            // Deterministic pseudo-random vectors.
            let mk = |seed: u64| -> Vec<f64> {
                (0..n)
                    .map(|i| {
                        let h = (i as u64)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(seed);
                        ((h >> 33) as f64 / 2f64.powi(31)) - 1.0
                    })
                    .collect()
            };
            let a = mk(1);
            let b = mk(2);
            let mut ya = vec![0.0; n];
            let mut yb = vec![0.0; n];
            fem.apply(comm, &a, &mut ya);
            fem.apply(comm, &b, &mut yb);
            let d1 = fem.dot(comm, &ya, &b);
            let d2 = fem.dot(comm, &a, &yb);
            let scale = fem.dot(comm, &ya, &ya).sqrt() * fem.dot(comm, &b, &b).sqrt();
            assert!(
                (d1 - d2).abs() < 1e-9 * scale.max(1.0),
                "<Ax,y>={d1} != <x,Ay>={d2}"
            );
        });
    }

    #[test]
    fn viscous_block_is_positive() {
        run_spmd(1, |comm| {
            let fem = setup(comm, 1);
            let n = fem.vec_len();
            let nn = fem.nn;
            // Velocity-only test vector (zero pressure).
            let mut x = vec![0.0; n];
            for i in 0..3 * nn {
                x[i] = ((i * 37) % 17) as f64 / 17.0 - 0.5;
            }
            let mut y = vec![0.0; n];
            fem.apply(comm, &x, &mut y);
            // <x, [A 0] x> = <u, A u> must be positive.
            let mut s = 0.0;
            for i in 0..3 * nn {
                s += x[i] * y[i];
            }
            assert!(s > 0.0, "viscous energy {s}");
        });
    }

    #[test]
    fn rhs_points_radially() {
        run_spmd(1, |comm| {
            let fem = setup(comm, 1);
            let b = fem.buoyancy_rhs(comm, 100.0);
            let norm = fem.dot(comm, &b, &b).sqrt();
            assert!(norm > 0.0, "empty RHS");
            // Pressure part must be zero.
            let nn = fem.nn;
            assert!(b[3 * nn..].iter().all(|&v| v == 0.0));
        });
    }

    /// The resilience contract: restarting on a different rank count must
    /// reproduce the operator bitwise. Runs the same global problem on 1,
    /// 2, and 3 ranks with a global-dof-keyed input vector and compares
    /// every owned output value (and the exact dot) bit for bit.
    #[test]
    fn operator_and_dot_are_rank_count_invariant() {
        // Key the input field by the canonical node key (the node's
        // physical identity), NOT by global id: global ids are rank-blocked
        // and so differ across rank counts for the same node.
        fn node_hash(key: (u32, [i32; 3]), c: usize) -> f64 {
            let mut h = (key.0 as u64) << 8 | c as u64;
            for v in key.1 {
                h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (v as u64);
            }
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 33) as f64 / 2f64.powi(31)) - 1.0
        }
        type Keyed = Vec<((u32, [i32; 3]), [u64; 4])>;
        let mut per_p: Vec<(Keyed, u64)> = Vec::new();
        for p in [1usize, 2, 3] {
            let results = run_spmd(p, |comm| {
                let fem = setup(comm, 1);
                let nn = fem.nn;
                let mut x = vec![0.0; 4 * nn];
                for (i, s) in fem.nodes.status.iter().enumerate() {
                    if matches!(s, NodeStatus::Independent { .. }) {
                        for c in 0..4 {
                            x[c * nn + i] = node_hash(fem.nodes.keys[i], c);
                        }
                    }
                }
                let mut y = vec![0.0; 4 * nn];
                fem.apply(comm, &x, &mut y);
                let d = fem.dot(comm, &x, &y);
                let mut owned: Keyed = Vec::new();
                for (i, s) in fem.nodes.status.iter().enumerate() {
                    if let NodeStatus::Independent { owner, .. } = s {
                        if *owner == comm.rank() {
                            let mut bits = [0u64; 4];
                            for (c, b) in bits.iter_mut().enumerate() {
                                *b = y[c * nn + i].to_bits();
                            }
                            owned.push((fem.nodes.keys[i], bits));
                        }
                    }
                }
                (owned, d.to_bits())
            });
            let mut merged: Keyed = results.iter().flat_map(|r| r.0.iter().copied()).collect();
            merged.sort_unstable();
            assert!(
                results.windows(2).all(|w| w[0].1 == w[1].1),
                "dot differs across ranks at p = {p}"
            );
            per_p.push((merged, results[0].1));
        }
        for w in per_p.windows(2) {
            assert_eq!(w[0].0.len(), w[1].0.len());
            for (a, b) in w[0].0.iter().zip(&w[1].0) {
                assert_eq!(a, b, "operator output is rank-count dependent");
            }
            assert_eq!(w[0].1, w[1].1, "dot is rank-count dependent");
        }
    }

    /// Golden bits of every FEM entry point on the hanging-node mesh of
    /// `setup(comm, 1)` at 1 and 2 ranks: the viscosity update, the
    /// operator, one dot, the buoyancy right-hand side and both
    /// preconditioner diagonals, on a node-keyed input. Each field is
    /// hashed over its owned values (elements for `eta_qp`) sorted by a
    /// rank-independent key, so one pinned hash holds at both rank
    /// counts. A change to any kernel's per-output operation order moves
    /// a hash even where the result stays rank-count invariant.
    #[test]
    fn fem_outputs_match_golden_bits() {
        fn fnv(h: &mut u64, word: u64) {
            for b in word.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn digest<K: Ord>(mut rows: Vec<(K, Vec<u64>)>) -> u64 {
            rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut h = 0xcbf2_9ce4_8422_2325;
            for (_, words) in rows {
                words.iter().for_each(|&w| fnv(&mut h, w));
            }
            h
        }
        fn key_hash(key: (u32, [i32; 3]), c: usize) -> f64 {
            let mut h = (key.0 as u64) << 8 | c as u64;
            for v in key.1 {
                h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (v as u64);
            }
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 33) as f64 / 2f64.powi(31)) - 1.0
        }
        // [eta_qp, apply, dot, buoyancy_rhs, diagonal u, diagonal p].
        const GOLDEN: [u64; 6] = [
            0x45d8_4bca_5735_41e1,
            0x4396_6004_39a7_d99b,
            0x4096_ce2c_59ba_2ae3,
            0x5473_d584_2d9b_4205,
            0xf1a5_5ed1_dbab_e7e4,
            0x3f9c_bbaa_c970_17ea,
        ];
        for p in [1usize, 2] {
            let per_rank = run_spmd(p, |comm| {
                let mut fem = setup(comm, 1);
                let nn = fem.nn;
                let mut x = vec![0.0; 4 * nn];
                for (i, s) in fem.nodes.status.iter().enumerate() {
                    if matches!(s, NodeStatus::Independent { .. }) {
                        for c in 0..4 {
                            x[c * nn + i] = key_hash(fem.nodes.keys[i], c);
                        }
                    }
                }
                fem.update_viscosity(&RheologyParams::default(), &x);
                let eta: Vec<_> = (0..fem.num_elements())
                    .map(|e| {
                        let pos = fem.qp_pos[e * 8].map(f64::to_bits);
                        let bits = fem.eta_qp[e * 8..e * 8 + 8].iter().map(|v| v.to_bits());
                        (pos, bits.collect::<Vec<_>>())
                    })
                    .collect();
                let mut y = vec![0.0; 4 * nn];
                fem.apply(comm, &x, &mut y);
                let d = fem.dot(comm, &x, &y);
                let b = fem.buoyancy_rhs(comm, 100.0);
                let (du, dp) = fem.preconditioner_diagonals(comm);
                let owned = |v: &[f64], k: usize| -> Vec<((u32, [i32; 3]), Vec<u64>)> {
                    fem.owned
                        .iter()
                        .map(|&i| {
                            let bits = (0..k).map(|c| v[c * nn + i].to_bits());
                            (fem.nodes.keys[i], bits.collect())
                        })
                        .collect()
                };
                (
                    eta,
                    [owned(&y, 4), owned(&b, 4), owned(&du, 3), owned(&dp, 1)],
                    d.to_bits(),
                )
            });
            let eta = digest(per_rank.iter().flat_map(|r| r.0.clone()).collect());
            let field = |k: usize| digest(per_rank.iter().flat_map(|r| r.1[k].clone()).collect());
            let dot = per_rank[0].2;
            assert!(
                per_rank.iter().all(|r| r.2 == dot),
                "dot differs across ranks"
            );
            let got = [eta, field(0), dot, field(1), field(2), field(3)];
            assert_eq!(
                got, GOLDEN,
                "FEM output bits moved at p = {p}: {got:#018x?}"
            );
        }
    }

    /// A `NaN` in one rank's state reaches the shared grid on every rank,
    /// which stops with the non-finite diagnostic rather than encoding the
    /// `NaN` contributions as zeros.
    #[test]
    #[should_panic(expected = "non-finite element contribution")]
    fn nan_state_stops_the_operator() {
        run_spmd(2, |comm| {
            let fem = setup(comm, 1);
            let mut x = vec![0.5; fem.vec_len()];
            if comm.rank() == 1 {
                x[3 * fem.nn..].fill(f64::NAN);
            }
            let mut y = vec![0.0; fem.vec_len()];
            fem.apply(comm, &x, &mut y);
        });
    }

    #[test]
    fn diagonals_positive() {
        run_spmd(2, |comm| {
            let fem = setup(comm, 1);
            let (du, dp) = fem.preconditioner_diagonals(comm);
            assert!(du.iter().all(|&v| v > 0.0));
            assert!(dp.iter().all(|&v| v > 0.0));
        });
    }
}
