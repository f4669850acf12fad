//! The split-phase dG time-step driver shared by every solver and tier.
//!
//! In the paper `mangll` gives every application its LSERK loop and hides
//! the ghost exchange behind volume work (SC10 §III), and dGea runs that
//! same loop on CPUs and GPUs, swapping only the element kernels (§IV-B);
//! the solvers supply physics. [`Stepper`] is that layer: it owns the
//! 2N-storage register and, per worker-pool lane, one [`KernelWorkspace`]
//! and one element's stage buffer, and its [`step`](Stepper::step) runs
//! the five stages. Each stage puts the face-trace exchange on the wire,
//! sweeps the *interior* elements (which read no ghost) while the
//! messages fly, completes the exchange, sweeps the *boundary* elements —
//! each element's RHS goes straight into its register window — and
//! updates the state on the pool. A solver is an [`RhsKernel`]: the right-hand side of
//! one element, in the precision of its tier (`f64` host, `f32` device).
//!
//! Sweeps and update fan out over the rank's worker pool in chunks fixed
//! by the element count and shape alone, and every element writes only its
//! own windows through `forust_pool::par_chunks_mut`, so a step is bitwise
//! identical to the serial exchange-then-sweep loop through
//! [`lserk_step`](crate::lserk::lserk_step) at any worker count.

use forust::dim::Dim;
use forust_comm::Communicator;
use forust_pool::par_chunks_mut;

use crate::halo::{HaloData, HaloExchange, HaloLane};
use crate::kernels::KernelWorkspace;
use crate::lserk::{LSERK_A, LSERK_B, LSERK_C};

/// State values per pool chunk of the RK update, rounded up to whole
/// elements: a function of the element shape only, like every other chunk
/// boundary of a step.
const UPDATE_GRAIN: usize = 8192;

/// What a solver hands to [`Stepper::step`]: the dG right-hand side of one
/// element. Everything else about a step is the stepper's.
pub trait RhsKernel<D: Dim>: Sync {
    /// Precision of the state, the RK registers and the halo lane.
    type Real: HaloLane;
    /// State components per node.
    const NCOMP: usize;
    /// Elements per pool chunk in the RHS sweeps. Chunk boundaries are a
    /// function of the element count and this constant only, never of the
    /// worker count — part of the bitwise-determinism contract.
    const GRAIN: usize;

    /// Length of one element's window of a state or RHS vector, `npe *
    /// NCOMP` values component-major: element `e` owns
    /// `e * unit_len .. (e + 1) * unit_len`.
    fn unit_len(&self) -> usize;

    /// A workspace sized for this kernel's elements. The stepper builds
    /// one per pool lane, again whenever the pool width or `unit_len`
    /// changes.
    fn new_scratch(&self) -> KernelWorkspace<Self::Real>;

    /// Write the time derivative of element `e` of state `q` at time `t`
    /// into `out`, the element's own window of the RHS vector.
    ///
    /// Every entry of `out` must be assigned (it holds another element's
    /// values on entry) and nothing outside it may be written —
    /// that is what lets the sweeps run elements concurrently. `traces`
    /// carries the received ghost face traces; it is `None` for interior
    /// elements. `ws` is the calling lane's workspace.
    fn rhs_unit(
        &self,
        q: &[Self::Real],
        e: usize,
        t: f64,
        traces: Option<&HaloData<'_, D, Self::Real>>,
        ws: &mut KernelWorkspace<Self::Real>,
        out: &mut [Self::Real],
    );
}

/// LSERK registers and per-lane kernel workspaces of one solver tier, kept
/// across steps so steady-state stepping allocates nothing. Starts empty
/// (`Stepper::default()`); the first step sizes it from its kernel.
#[derive(Default)]
pub struct Stepper<R = f64> {
    /// The 2N-storage register. Zeroed at the start of every step, so a
    /// step is a pure function of `(q, t)` — a restart from a checkpoint
    /// of `q` alone continues bit for bit.
    resid: Vec<R>,
    /// Per pool lane (lane 0 is the rank thread): a workspace and the
    /// stage RHS of the element in hand, built for elements of `unit`
    /// values.
    lanes: Vec<(KernelWorkspace<R>, Vec<R>)>,
    unit: usize,
    grow_events: u64,
}

impl<R: HaloLane> Stepper<R> {
    /// Size the 2N register for a state of `n` values and zero it; `true`
    /// if that had to allocate. Every step starts here; a tier that
    /// accounts for its allocations calls it ahead of time.
    pub fn fit(&mut self, n: usize) -> bool {
        let grew = self.resid.capacity() < n;
        self.resid.clear();
        self.resid.resize(n, R::ZERO);
        grew
    }

    /// The 2N register as the last step (or [`fit`](Self::fit)) left it.
    pub fn register(&self) -> &[R] {
        &self.resid
    }

    /// Times a lane workspace regrew mid-stage, as of the end of the last
    /// step (see [`KernelWorkspace::check_steady`]). Zero in steady state.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Advance `q` from `t` by one five-stage LSERK step of size `dt`.
    /// Collective: every stage exchanges ghost face traces through `halo`,
    /// which must be built for the mesh `q` lives on.
    pub fn step<D: Dim, C: Communicator, K>(
        &mut self,
        comm: &C,
        halo: &HaloExchange<D>,
        q: &mut [R],
        t: f64,
        dt: f64,
        kernel: &K,
    ) where
        K: RhsKernel<D, Real = R>,
    {
        let unit = kernel.unit_len();
        let width = forust_pool::configured_workers();
        // In steady state a no-op: the lanes are rebuilt on the first
        // step and when the pool width (the worker-matrix tests flip it
        // between runs) or the element shape changed since the last.
        if self.lanes.len() != width || self.unit != unit {
            let lane = || (kernel.new_scratch(), vec![R::ZERO; unit]);
            self.lanes = (0..width).map(|_| lane()).collect();
            self.unit = unit;
        }
        let n = q.len();
        let (interior, boundary) = (halo.interior(), halo.boundary());
        let elements = interior.len() + boundary.len();
        assert_eq!(
            n,
            elements * unit,
            "state vector does not match the kernel's elements"
        );
        self.fit(n);
        for s in 0..5 {
            let _stage = forust_obs::span!("rk.stage");
            let ts = t + LSERK_C[s] * dt;
            let (a, b) = (R::from_f64(LSERK_A[s]), R::from_f64(LSERK_B[s]));
            let h = R::from_f64(dt);
            let pending = halo.begin(comm, q, K::NCOMP);
            let span = forust_obs::span!("rhs.interior");
            let q_in = &*q;
            // Pool sweep over one element list: each element's RHS lands
            // in its lane's stage buffer and goes straight into the
            // element's own register window. `q` is not written until
            // both lists are done, so every RHS reads this stage's state.
            let (resid, lanes) = (&mut self.resid, &mut self.lanes);
            let mut sweep = |list: &[u32], traces: Option<&HaloData<'_, D, R>>| {
                let only = Some(list);
                par_chunks_mut(resid, unit, K::GRAIN, only, lanes, |e, rw, (ws, k)| {
                    let _fp = R::fp_scope();
                    kernel.rhs_unit(q_in, e, ts, traces, ws, k);
                    for (rv, kv) in rw.iter_mut().zip(k.iter()) {
                        *rv = a * *rv + h * *kv;
                    }
                });
            };
            sweep(interior, None);
            drop(span);
            let traces = {
                let _span = forust_obs::span!("rhs.exchange_wait");
                pending.finish()
            };
            {
                let _span = forust_obs::span!("rhs.boundary");
                sweep(boundary, Some(&traces));
                forust_obs::counter_add("kernels.rhs_elements", elements as u64);
            }
            drop(traces);
            let _update = forust_obs::span!("rk.update");
            let (resid, no_scratch) = (&self.resid, &mut [(); forust_pool::MAX_LANES]);
            let grain = UPDATE_GRAIN.div_ceil(unit);
            par_chunks_mut(q, unit, grain, None, no_scratch, |e, qw, _| {
                let _fp = R::fp_scope();
                for (qv, rv) in qw.iter_mut().zip(&resid[e * unit..(e + 1) * unit]) {
                    *qv += b * *rv;
                }
            });
        }
        let regrown = |(ws, _): &mut (KernelWorkspace<R>, Vec<R>)| {
            ws.check_steady();
            ws.grow_events()
        };
        self.grow_events = self.lanes.iter_mut().map(regrown).sum();
    }
}
