//! The split-phase dG time-step driver shared by every solver.
//!
//! In the paper `mangll` gives every application its LSERK loop and hides
//! the ghost exchange behind volume work (SC10 §III); the solvers only
//! supply physics. [`Stepper`] is that layer: it owns the 2N-storage
//! register, the stage buffer and one [`KernelWorkspace`] per worker-pool
//! lane, and its [`step`](Stepper::step) runs the five stages. Each stage
//! puts the face-trace exchange on the wire, sweeps the *interior*
//! elements (which read no ghost) while the messages fly, completes the
//! exchange, and sweeps the *boundary* elements. A solver is an
//! [`ElementKernel`]: the right-hand side of one element.
//!
//! Both sweeps fan out over the rank's worker pool in fixed chunks, and
//! elements write disjoint windows of the stage buffer, so a step is
//! bitwise identical to the serial exchange-then-sweep loop through
//! [`lserk_step`](crate::lserk::lserk_step) at any worker count.

use forust::dim::Dim;
use forust_comm::Communicator;
use forust_pool::{DisjointSlice, PerLane};

use crate::halo::{HaloData, HaloExchange};
use crate::kernels::KernelWorkspace;
use crate::lserk::{LSERK_A, LSERK_B, LSERK_C};

/// The physics a solver hands to [`Stepper::step`]: the dG right-hand
/// side of a single element.
pub trait ElementKernel<D: Dim>: Sync {
    /// State components per node. Element `e`'s window of a state or RHS
    /// vector is `npe * NCOMP` long, component-major (`[c][node]`).
    const NCOMP: usize;
    /// Elements per pool chunk in the RHS sweeps. Chunk boundaries are a
    /// function of the element count and this constant only, never of
    /// the worker count — part of the bitwise-determinism contract.
    const GRAIN: usize;

    /// Write the time derivative of element `e` of state `q` at time `t`
    /// into `out_e`, the element's own window of the RHS vector.
    ///
    /// Every entry of `out_e` must be assigned (it holds the previous
    /// stage's values on entry) and nothing outside it may be written —
    /// that is what lets the sweeps run elements concurrently. `traces`
    /// carries the received ghost face traces; it is `None` for interior
    /// elements, which have no ghost-face neighbor. `ws` is the calling
    /// lane's scratch, sized for `NCOMP` fields.
    fn rhs_element(
        &self,
        q: &[f64],
        e: usize,
        t: f64,
        traces: Option<&HaloData<'_, D>>,
        ws: &mut KernelWorkspace,
        out_e: &mut [f64],
    );
}

/// LSERK registers and per-lane kernel scratch of one solver, sized once
/// for its element shape so steady-state stepping allocates nothing.
#[derive(Default)]
pub struct Stepper {
    /// The 2N-storage register.
    resid: Vec<f64>,
    /// The RHS of the current stage.
    stage: Vec<f64>,
    /// One workspace per pool lane (lane 0 is the rank thread). Rebuilt
    /// only when the configured worker count changes.
    lanes: PerLane<KernelWorkspace>,
    npe: usize,
    npf: usize,
    ncomp: usize,
    grow_events: u64,
}

impl Stepper {
    /// A stepper for elements of `npe` volume / `npf` face nodes carrying
    /// `ncomp` components.
    pub fn new(npe: usize, npf: usize, ncomp: usize) -> Self {
        Stepper {
            npe,
            npf,
            ncomp,
            ..Default::default()
        }
    }

    /// (Re)build the lane workspaces when the configured pool width is
    /// not the one they were built for: on the first step, and whenever
    /// it changed since the last (the worker-matrix tests flip it between
    /// runs). In steady state this is a no-op.
    fn ensure_lanes(&mut self) {
        if self.lanes.len() != forust_pool::configured_workers() {
            let (npe, npf, ncomp) = (self.npe, self.npf, self.ncomp);
            self.lanes = PerLane::new(forust_pool::configured_workers(), |_| {
                let mut ws = KernelWorkspace::new();
                ws.configure(npe, npf, ncomp);
                ws
            });
        }
    }

    /// Times a lane workspace regrew mid-stage, as of the end of the last
    /// step (see [`KernelWorkspace::check_steady`]). Zero in steady state.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Advance `q` from `t` by one five-stage LSERK step of size `dt`.
    /// Collective: every stage exchanges ghost face traces through `halo`,
    /// which must be built for the mesh `q` lives on.
    pub fn step<D: Dim, C: Communicator, K: ElementKernel<D>>(
        &mut self,
        comm: &C,
        halo: &HaloExchange<D>,
        q: &mut [f64],
        t: f64,
        dt: f64,
        kernel: &K,
    ) {
        assert_eq!(K::NCOMP, self.ncomp, "stepper sized for another kernel");
        self.ensure_lanes();
        let n = q.len();
        let chunk = self.npe * self.ncomp;
        assert_eq!(
            n,
            (halo.interior().len() + halo.boundary().len()) * chunk,
            "state vector does not match the halo's mesh"
        );
        self.stage.resize(n, 0.0);
        self.resid.clear();
        self.resid.resize(n, 0.0);
        for s in 0..5 {
            let _stage = forust_obs::span!("rk.stage");
            let ts = t + LSERK_C[s] * dt;
            let pending = halo.begin(comm, q, K::NCOMP);
            // Pool sweep over one element list: each lane works on its own
            // workspace, and every element writes only its own window.
            let sweep = |list: &[u32], traces: Option<&HaloData<'_, D>>, out: &mut [f64]| {
                let slots = DisjointSlice::new(out);
                forust_pool::par_for_each(list.len(), K::GRAIN, |r, lane| {
                    // SAFETY: the pool runs each lane on exactly one thread
                    // per job, and nothing else borrows the lanes meanwhile.
                    let ws = unsafe { self.lanes.lane(lane) };
                    for i in r {
                        let e = list[i] as usize;
                        // SAFETY: `list` is one side of the halo's
                        // interior/boundary partition, which names each
                        // element at most once, so the windows are disjoint.
                        let out_e = unsafe { slots.slice(e * chunk..(e + 1) * chunk) };
                        kernel.rhs_element(q, e, ts, traces, ws, out_e);
                    }
                });
            };
            {
                let _span = forust_obs::span!("rhs.interior");
                sweep(halo.interior(), None, &mut self.stage);
            }
            let traces = {
                let _span = forust_obs::span!("rhs.exchange_wait");
                pending.finish()
            };
            {
                let _span = forust_obs::span!("rhs.boundary");
                sweep(halo.boundary(), Some(&traces), &mut self.stage);
                forust_obs::counter_add("kernels.rhs_elements", (n / chunk) as u64);
            }
            drop(traces);
            let _update = forust_obs::span!("rk.update");
            let (resid, k) = (&mut self.resid[..n], &self.stage[..n]);
            for i in 0..n {
                resid[i] = LSERK_A[s] * resid[i] + dt * k[i];
                q[i] += LSERK_B[s] * resid[i];
            }
        }
        self.grow_events = self
            .lanes
            .iter_mut()
            .map(|ws| {
                ws.check_steady();
                ws.grow_events()
            })
            .sum();
    }
}
