//! The split-phase dG time-step driver shared by every solver and tier.
//!
//! In the paper `mangll` gives every application its LSERK loop and hides
//! the ghost exchange behind volume work (SC10 §III), and dGea runs that
//! same loop on CPUs and GPUs, swapping only the element kernels (§IV-B);
//! the solvers supply physics. [`Stepper`] is that layer: it owns the
//! 2N-storage register, the stage buffer and one scratch per worker-pool
//! lane, and its [`step`](Stepper::step) runs the five stages. Each stage
//! puts the face-trace exchange on the wire, sweeps the *interior* work
//! units (which read no ghost) while the messages fly, completes the
//! exchange, sweeps the *boundary* units and updates the state on the
//! pool. A solver tier is an [`RhsKernel`]: the right-hand side of one
//! work unit — a window of the state vector, one element on the f64 host
//! tier, one lane-batched block of elements on the f32 device tier.
//!
//! Sweeps and update fan out over the rank's worker pool in chunks fixed
//! by the unit count or the state length alone, and units write disjoint
//! windows of the stage buffer, so a step is bitwise identical to the
//! serial exchange-then-sweep loop through
//! [`lserk_step`](crate::lserk::lserk_step) at any worker count.

use forust::dim::Dim;
use forust_comm::Communicator;
use forust_pool::{DisjointSlice, PerLane};

use crate::halo::{HaloData, HaloExchange, HaloLane};
use crate::kernels::KernelWorkspace;
use crate::lserk::{LSERK_A, LSERK_B, LSERK_C};

/// State values per pool chunk of the RK update: a function of the state
/// length only, like every other chunk boundary of a step.
const UPDATE_GRAIN: usize = 8192;

/// The per-pool-lane scratch of a kernel.
pub trait LaneScratch: Send {
    /// Times this scratch had to regrow, as of now. Called after every
    /// step; a scratch of fixed-size buffers keeps the default.
    fn regrow_events(&mut self) -> u64 {
        0
    }
}

impl LaneScratch for KernelWorkspace {
    fn regrow_events(&mut self) -> u64 {
        self.check_steady();
        self.grow_events()
    }
}

/// What a solver tier hands to [`Stepper::step`]: the dG right-hand side
/// of one work unit, and the few facts about its state layout that differ
/// between tiers. Everything else about a step is the stepper's.
pub trait RhsKernel<D: Dim>: Sync {
    /// Precision of the state, the RK registers and the halo lane.
    type Real: HaloLane;
    /// Scratch of one pool lane.
    type Scratch: LaneScratch;
    /// State components per node.
    const NCOMP: usize;
    /// Units per pool chunk in the RHS sweeps. Chunk boundaries are a
    /// function of the unit count and this constant only, never of the
    /// worker count — part of the bitwise-determinism contract.
    const GRAIN: usize;

    /// Length of one unit's window of a state or RHS vector: unit `u`
    /// owns `u * unit_len .. (u + 1) * unit_len`.
    fn unit_len(&self) -> usize;

    /// A scratch sized for this kernel's units. The stepper builds one
    /// per pool lane, again whenever the pool width or `unit_len` changes.
    fn new_scratch(&self) -> Self::Scratch;

    /// `(element, component, node) -> value` over state `q`: how the
    /// trace exchange packs straight out of this tier's layout. Default:
    /// one element per unit, component-major.
    fn accessor<'a>(
        &'a self,
        q: &'a [Self::Real],
    ) -> impl Fn(usize, usize, usize) -> Self::Real + Sync + 'a {
        let npe = self.unit_len() / Self::NCOMP;
        move |e, c, n| q[(e * Self::NCOMP + c) * npe + n]
    }

    /// `[interior, boundary]`: the units that read no ghost trace, swept
    /// while the exchange is in flight (may be empty), and the others,
    /// swept once the traces are in. Together they name every unit
    /// exactly once. Default: one element per unit, the halo's lists.
    fn units<'a>(&'a self, halo: &'a HaloExchange<D>) -> [&'a [u32]; 2] {
        [halo.interior(), halo.boundary()]
    }

    /// Floating-point environment of this tier's arithmetic: the guard is
    /// held around every pool job the stepper runs for the kernel, the RK
    /// update included.
    fn fp_scope() -> impl Sized {}

    /// Once per stage, after the exchange is posted and before the first
    /// sweep: whatever the sweeps read that is derived from all of `q`.
    fn pre_stage(&mut self, _q: &[Self::Real]) {}

    /// Write the time derivative of unit `u` of state `q` at time `t`
    /// into `out`, the unit's own window of the RHS vector.
    ///
    /// Every entry of `out` must be assigned (it holds the previous
    /// stage's values on entry) and nothing outside it may be written —
    /// that is what lets the sweeps run units concurrently. `traces`
    /// carries the received ghost face traces; it is `None` for interior
    /// units. `ws` is the calling lane's scratch.
    fn rhs_unit(
        &self,
        q: &[Self::Real],
        u: usize,
        t: f64,
        traces: Option<&HaloData<'_, D, Self::Real>>,
        ws: &mut Self::Scratch,
        out: &mut [Self::Real],
    );
}

/// LSERK registers and per-lane kernel scratch of one solver tier, kept
/// across steps so steady-state stepping allocates nothing. Starts empty
/// (`Stepper::default()`); the first step sizes it from its kernel.
#[derive(Default)]
pub struct Stepper<R = f64, S = KernelWorkspace> {
    /// The 2N-storage register. Zeroed at the start of every step, so a
    /// step is a pure function of `(q, t)` — a restart from a checkpoint
    /// of `q` alone continues bit for bit.
    resid: Vec<R>,
    /// The RHS of the current stage.
    stage: Vec<R>,
    /// One scratch per pool lane (lane 0 is the rank thread), built for
    /// units of `unit` values.
    lanes: PerLane<S>,
    unit: usize,
    grow_events: u64,
}

impl<R: HaloLane, S: LaneScratch> Stepper<R, S> {
    /// Size the registers for a state of `n` values and zero the 2N
    /// register; `true` if that had to allocate. Every step starts here;
    /// a tier that accounts for its allocations calls it ahead of time.
    pub fn fit(&mut self, n: usize) -> bool {
        let grew = self.resid.capacity() < n || self.stage.capacity() < n;
        self.stage.resize(n, R::ZERO);
        self.resid.clear();
        self.resid.resize(n, R::ZERO);
        grew
    }

    /// The 2N register as the last step (or [`fit`](Self::fit)) left it.
    pub fn register(&self) -> &[R] {
        &self.resid
    }

    /// Times a lane scratch regrew mid-stage, as of the end of the last
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
        kernel: &mut K,
    ) where
        K: RhsKernel<D, Real = R, Scratch = S>,
    {
        let unit = kernel.unit_len();
        let width = forust_pool::configured_workers();
        // In steady state a no-op: the lanes are rebuilt on the first
        // step and when the pool width (the worker-matrix tests flip it
        // between runs) or the unit shape changed since the last.
        if self.lanes.len() != width || self.unit != unit {
            self.lanes = PerLane::new(width, |_| kernel.new_scratch());
            self.unit = unit;
        }
        let n = q.len();
        let [interior, boundary] = kernel.units(halo);
        assert_eq!(
            n,
            (interior.len() + boundary.len()) * unit,
            "state vector does not match the kernel's units"
        );
        let elements = (halo.interior().len() + halo.boundary().len()) as u64;
        self.fit(n);
        for s in 0..5 {
            let _stage = forust_obs::span!("rk.stage");
            let ts = t + LSERK_C[s] * dt;
            let pending = halo.begin_with(comm, kernel.accessor(q), K::NCOMP);
            let span = forust_obs::span!("rhs.interior");
            kernel.pre_stage(q);
            let (kernel, q_in) = (&*kernel, &*q);
            let [interior, boundary] = kernel.units(halo);
            // Pool sweep over one unit list: each lane works on its own
            // scratch, and every unit writes only its own window.
            let sweep = |list: &[u32], traces: Option<&HaloData<'_, D, R>>, out: &mut [R]| {
                let slots = DisjointSlice::new(out);
                forust_pool::par_for_each(list.len(), K::GRAIN, |r, lane| {
                    let _fp = K::fp_scope();
                    // SAFETY: the pool runs each lane on exactly one thread
                    // per job, and nothing else borrows the lanes meanwhile.
                    let ws = unsafe { self.lanes.lane(lane) };
                    for i in r {
                        let u = list[i] as usize;
                        // SAFETY: `list` is one side of the kernel's
                        // interior/boundary partition, which names each
                        // unit at most once, so the windows are disjoint.
                        let out_u = unsafe { slots.slice(u * unit..(u + 1) * unit) };
                        kernel.rhs_unit(q_in, u, ts, traces, ws, out_u);
                    }
                });
            };
            sweep(interior, None, &mut self.stage);
            drop(span);
            let traces = {
                let _span = forust_obs::span!("rhs.exchange_wait");
                pending.finish()
            };
            {
                let _span = forust_obs::span!("rhs.boundary");
                sweep(boundary, Some(&traces), &mut self.stage);
                forust_obs::counter_add("kernels.rhs_elements", elements);
            }
            drop(traces);
            let _update = forust_obs::span!("rk.update");
            let (a, b) = (R::from_f64(LSERK_A[s]), R::from_f64(LSERK_B[s]));
            let h = R::from_f64(dt);
            let k = &self.stage;
            let (qs, rs) = (DisjointSlice::new(q), DisjointSlice::new(&mut self.resid));
            forust_pool::par_for_each(n, UPDATE_GRAIN, |w, _| {
                let _fp = K::fp_scope();
                // SAFETY: the pool hands out pairwise disjoint ranges of
                // `0..n`, and `q` and the register are `n` long.
                let (qw, rw) = unsafe { (qs.slice(w.clone()), rs.slice(w.clone())) };
                for ((qv, rv), kv) in qw.iter_mut().zip(rw).zip(&k[w]) {
                    *rv = a * *rv + h * *kv;
                    *qv += b * *rv;
                }
            });
        }
        self.grow_events = self.lanes.iter_mut().map(|ws| ws.regrow_events()).sum();
    }
}
