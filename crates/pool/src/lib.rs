//! # forust-pool — persistent per-rank worker pool ("MPI+X")
//!
//! Ranks in this codebase are OS threads (`forust-comm`'s SPMD
//! simulator), and until this crate every rank's compute was
//! single-threaded. The paper's production runs are hybrid: message
//! passing across ranks with intra-rank threads doing the flop-heavy
//! element work. This crate is the "X": each rank thread owns one
//! persistent pool of parked worker threads, spawned lazily on the first
//! parallel call and joined when the rank thread exits.
//!
//! ## Determinism contract
//!
//! Every API here is bitwise deterministic regardless of worker count
//! and steal schedule:
//!
//! - **Fixed chunking.** An iteration space `0..n` is split into chunks
//!   of a caller-chosen `grain`; the chunk boundaries are a function of
//!   `(n, grain)` only — never of the worker count or of which worker
//!   runs a chunk.
//! - **Ordered reduction.** [`Pool::par_map_reduce`] stores one result
//!   slot per chunk and folds the slots in ascending chunk order on the
//!   calling thread, so floating-point reductions associate identically
//!   on any schedule. [`Pool::par_for_each`] requires the body to write
//!   only to locations owned by its indices (disjoint writes), which
//!   makes the memory image schedule-independent by construction.
//!
//! The step-bitwise oracle suites of the dG solvers run at
//! `FORUST_WORKERS ∈ {1, 2, 4}` and assert identical bits.
//!
//! ## Sizing
//!
//! Width is resolved per pool creation: a process-wide test override
//! ([`set_worker_override`]), else the `FORUST_WORKERS` environment
//! variable, else `available_parallelism`. Width 1 means fully inline
//! execution — no threads are spawned at all.
//!
//! ## Scheduling
//!
//! Each lane (the caller is lane 0 and participates) owns a contiguous
//! range of chunk indices behind an atomic cursor; a lane that exhausts
//! its own range steals from the other lanes' cursors. Workers park on a
//! condvar between jobs; a job submission is one mutex lock + notify.
//!
//! ## Observability
//!
//! Recorders are thread-local (`forust-obs`), so spans and counters from
//! worker threads would be silently dropped. When the submitting rank
//! has a live recorder, each worker installs a recorder for the duration
//! of the job and the drained reports are absorbed into the rank's
//! recorder afterwards; per-lane busy intervals are emitted as
//! `pool.busy` trace events on per-worker Perfetto tracks plus
//! `pool.worker.<i>.busy_us` counters.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use forust_obs as obs;

/// Hard cap on pool width (keeps per-lane trace-track ids and padded
/// cursor arrays bounded; far above any sane oversubscription).
pub const MAX_LANES: usize = 64;

/// Process-wide width override for tests and benchmarks (0 = unset).
/// Takes precedence over `FORUST_WORKERS`; picked up by the next pool
/// creation on any thread (existing pools rebuild on their next use).
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set (or clear) the process-wide worker-count override. Tests use this
/// to run the same solver at several widths inside one process without
/// racing on the environment.
pub fn set_worker_override(n: Option<usize>) {
    WORKER_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count a pool created right now would have: the test
/// override, else `FORUST_WORKERS`, else `available_parallelism`,
/// clamped to `1..=MAX_LANES`.
pub fn configured_workers() -> usize {
    let o = WORKER_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o.min(MAX_LANES);
    }
    if let Ok(s) = std::env::var("FORUST_WORKERS") {
        if let Ok(v) = s.trim().parse::<usize>() {
            if v >= 1 {
                return v.min(MAX_LANES);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_LANES)
}

thread_local! {
    /// This thread's pool (rank threads get one lazily; worker threads
    /// never create nested pools — see `LANE`/`IS_WORKER`).
    static POOL: RefCell<Option<Rc<Pool>>> = const { RefCell::new(None) };
    /// The lane this thread runs as (0 on rank threads).
    static LANE: Cell<usize> = const { Cell::new(0) };
    /// True on pool worker threads: parallel calls run inline there.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// True while this thread is executing a job body (worker or the
    /// submitting lane 0): nested parallel calls run inline instead of
    /// submitting a second, bookkeeping-corrupting job.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// RAII for `IN_JOB` (restores on unwind too).
struct JobScope {
    prev: bool,
}

impl JobScope {
    fn enter() -> JobScope {
        JobScope {
            prev: IN_JOB.with(|j| j.replace(true)),
        }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        IN_JOB.with(|j| j.set(self.prev));
    }
}

/// Run `f` with the calling thread's pool, creating it on first use (and
/// rebuilding it if the configured width changed since). On a pool
/// worker thread this hands out an inline width-1 pool view instead of
/// nesting pools.
pub fn with<R>(f: impl FnOnce(&Pool) -> R) -> R {
    if IS_WORKER.with(|w| w.get()) {
        // Nested parallelism from inside a job runs inline on the
        // worker's own lane; a worker never owns threads.
        return f(&Pool::inline());
    }
    let pool = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let want = configured_workers();
        if let Some(pool) = p.as_ref() {
            if pool.width == want {
                return Rc::clone(pool);
            }
        }
        let fresh = Rc::new(Pool::new(want));
        *p = Some(Rc::clone(&fresh));
        fresh
    });
    f(&pool)
}

/// Discard any worker-lane observability drains the calling thread's
/// pool is still holding (left behind by a job that unwound before its
/// absorb ran). Registered as an `obs` reset hook so `obs::reset()`
/// clears worker-lane state along with the rank recorder; callable
/// directly for the same effect without a full reset.
pub fn clear_pending_drains() {
    if IS_WORKER.with(|w| w.get()) {
        return;
    }
    POOL.with(|p| {
        if let Some(pool) = p.borrow().as_ref() {
            pool.shared.drains.lock().expect("pool drains").clear();
        }
    });
}

/// Convenience: fixed-chunk parallel loop on the calling thread's pool.
/// See [`Pool::par_for_each`].
pub fn par_for_each(n: usize, grain: usize, body: impl Fn(Range<usize>, usize) + Sync) {
    with(|p| p.par_for_each(n, grain, body));
}

/// Convenience: ordered-reduction parallel map on the calling thread's
/// pool. See [`Pool::par_map_reduce`].
pub fn par_map_reduce<T: Send>(
    n: usize,
    grain: usize,
    map: impl Fn(Range<usize>, usize) -> T + Sync,
    fold: impl FnMut(T),
) {
    with(|p| p.par_map_reduce(n, grain, map, fold));
}

/// Convenience: parallel index map collecting a `Vec` in index order.
/// See [`Pool::par_map`].
pub fn par_map<T: Send>(n: usize, grain: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    with(|p| p.par_map(n, grain, f))
}

/// Convenience: parallel sweep over disjoint `chunk`-sized windows of
/// `data` on the calling thread's pool. See [`Pool::par_chunks_mut`].
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    grain: usize,
    body: impl Fn(usize, &mut [T], usize) + Sync,
) {
    with(|p| p.par_chunks_mut(data, chunk, grain, body));
}

/// Cache-line padding for the per-lane cursors (steals hammer them).
#[repr(align(64))]
struct Pad<T>(T);

/// A type-erased job pointer: `&closure` with the lifetime transmuted
/// away. Sound because the submitting call blocks until every worker has
/// finished the job before the frame owning the closure unwinds.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    /// The submitting rank's recorder rank, when it has one: workers
    /// install per-job recorders under this rank and drain them back.
    obs_rank: Option<usize>,
}

// SAFETY: the pointee is `Sync` (the bound is in the type) and outlives
// the job by the blocking protocol above.
unsafe impl Send for Job {}

/// One worker's per-job observability drain.
struct Drain {
    lane: u32,
    ts_ns: u64,
    dur_ns: u64,
    report: Option<obs::LocalReport>,
}

struct State {
    /// Bumped per job; workers run a job exactly once by tracking the
    /// last epoch they served.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current job.
    remaining: usize,
    /// A worker's job body panicked (propagated by the caller).
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Per-lane next-chunk cursors for the current job.
    cursors: Vec<Pad<AtomicUsize>>,
    /// Cumulative per-lane busy nanoseconds across all jobs.
    busy_ns: Vec<Pad<AtomicU64>>,
    /// Worker recorder drains of the current job (obs-enabled jobs only).
    drains: Mutex<Vec<Drain>>,
}

/// A persistent worker pool owned by one rank thread. Lane 0 is the rank
/// thread itself; lanes `1..width` are parked worker threads.
pub struct Pool {
    width: usize,
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// An inline, thread-free pool view (width 1).
    fn inline() -> Pool {
        Pool::new(1)
    }

    fn new(width: usize) -> Pool {
        // `obs::reset()` must also discard this layer's undrained
        // worker-lane state (a job that unwound mid-run leaves its
        // drains pending), or the next measurement section would absorb
        // stale `pool.worker.<i>.busy_us` from before the reset.
        obs::register_reset_hook(clear_pending_drains);
        let width = width.clamp(1, MAX_LANES);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursors: (0..width).map(|_| Pad(AtomicUsize::new(0))).collect(),
            busy_ns: (0..width).map(|_| Pad(AtomicU64::new(0))).collect(),
            drains: Mutex::new(Vec::new()),
        });
        let handles = (1..width)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-w{lane}"))
                    .spawn(move || worker_loop(lane, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            width,
            shared,
            handles,
        }
    }

    /// Number of lanes, including the calling rank thread (lane 0).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Cumulative busy nanoseconds per lane since pool creation.
    pub fn busy_ns(&self) -> Vec<u64> {
        self.shared
            .busy_ns
            .iter()
            .map(|b| b.0.load(Ordering::Relaxed))
            .collect()
    }

    /// Submit one job: run `f(lane)` on every lane (caller = lane 0),
    /// block until all lanes finish, then absorb worker recorder drains.
    fn run(&self, f: &(dyn Fn(usize) + Sync), obs_rank: Option<usize>) {
        let obs_on = obs_rank.is_some();
        // SAFETY: erase the closure's lifetime. Workers only dereference
        // it between job submission below and the `WaitGuard` drain, and
        // this frame cannot return (or unwind) past the guard until
        // `remaining == 0`.
        let job = Job {
            f: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
            },
            obs_rank,
        };
        if obs_on {
            // A previous job that unwound mid-drain may have left stale
            // reports behind; this job's absorb must not pick them up.
            self.shared.drains.lock().expect("pool drains").clear();
        }
        {
            let mut st = self.shared.state.lock().expect("pool state");
            debug_assert_eq!(st.remaining, 0, "overlapping pool jobs");
            st.job = Some(job);
            st.epoch += 1;
            st.remaining = self.width - 1;
            st.panicked = false;
        }
        self.shared.work_cv.notify_all();

        struct WaitGuard<'a>(&'a Shared);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock().expect("pool state");
                while st.remaining != 0 {
                    st = self.0.done_cv.wait(st).expect("pool state");
                }
                st.job = None;
            }
        }
        // Even if `f(0)` unwinds, the guard keeps this frame alive until
        // every worker is done with the borrowed closure.
        let guard = WaitGuard(&self.shared);
        let ts = if obs_on { obs::now_ns() } else { 0 };
        let t0 = Instant::now();
        {
            let _scope = JobScope::enter();
            f(0);
        }
        let dur0 = t0.elapsed().as_nanos() as u64;
        self.shared.busy_ns[0].0.fetch_add(dur0, Ordering::Relaxed);
        drop(guard);

        if obs_on {
            let drains = std::mem::take(&mut *self.shared.drains.lock().expect("pool drains"));
            obs::event_add("pool.busy", ts, dur0, 0);
            obs::counter_add("pool.worker.0.busy_us", dur0 / 1_000);
            obs::histogram!("pool.lane_busy_us", dur0 / 1_000);
            for d in drains {
                if let Some(rep) = &d.report {
                    obs::absorb(rep, d.lane);
                }
                obs::event_add("pool.busy", d.ts_ns, d.dur_ns, d.lane);
                obs::counter_add(&format!("pool.worker.{}.busy_us", d.lane), d.dur_ns / 1_000);
                obs::histogram!("pool.lane_busy_us", d.dur_ns / 1_000);
            }
            obs::gauge_set("pool.lanes", self.width as u64);
        }
        let panicked = self.shared.state.lock().expect("pool state").panicked;
        if panicked {
            panic!("pool worker panicked while running a parallel job");
        }
    }

    /// Run `body(chunk_range, lane)` over fixed chunks of `0..n`.
    ///
    /// Chunk boundaries depend on `(n, grain)` only. The body MUST
    /// confine its writes to state owned by the indices it is given
    /// (e.g. through [`DisjointSlice`]/[`PerLane`]); under that contract
    /// the result is bitwise independent of worker count and schedule.
    pub fn par_for_each(&self, n: usize, grain: usize, body: impl Fn(Range<usize>, usize) + Sync) {
        self.run_chunked(n, grain, |_, r, lane| body(r, lane));
    }

    /// Parallel map with ordered reduction: `map` runs per fixed chunk
    /// on the pool, `fold` consumes the chunk results **in ascending
    /// chunk order** on the calling thread. Bitwise deterministic for
    /// any worker count because both the chunk boundaries and the fold
    /// order are schedule-independent.
    pub fn par_map_reduce<T: Send>(
        &self,
        n: usize,
        grain: usize,
        map: impl Fn(Range<usize>, usize) -> T + Sync,
        mut fold: impl FnMut(T),
    ) {
        let grain = grain.max(1);
        let chunks = n.div_ceil(grain);
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(chunks, || None);
        {
            let out = DisjointSlice::new(&mut slots);
            self.run_chunked(n, grain, |c, r, lane| {
                // SAFETY: each chunk index is executed exactly once.
                let slot = unsafe { out.slice(c..c + 1) };
                slot[0] = Some(map(r, lane));
            });
        }
        for s in slots {
            fold(s.expect("every chunk produced a result"));
        }
    }

    /// Parallel index map into a `Vec` in index order (each element
    /// computed independently, so the result is schedule-independent).
    pub fn par_map<T: Send>(
        &self,
        n: usize,
        grain: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
        out.resize_with(n, MaybeUninit::uninit);
        {
            let slots = DisjointSlice::new(&mut out);
            self.run_chunked(n, grain, |_, r, _| {
                // SAFETY: chunk ranges are pairwise disjoint.
                let dst = unsafe { slots.slice(r.clone()) };
                for (slot, i) in dst.iter_mut().zip(r) {
                    slot.write(f(i));
                }
            });
        }
        // SAFETY: run_chunked covered every index exactly once (it
        // panics otherwise), so all n slots are initialized.
        let mut out = std::mem::ManuallyDrop::new(out);
        unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut T, n, out.capacity()) }
    }

    /// Run `body(index, window, lane)` once per `chunk`-sized window of
    /// `data` (`window = data[index * chunk..(index + 1) * chunk]`; the
    /// length must be a multiple of `chunk`). The safe form of the
    /// disjoint-write contract of [`Pool::par_for_each`]: each index owns
    /// exactly its window. Pool chunks hold `grain` windows and depend on
    /// `(data.len() / chunk, grain)` only.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        grain: usize,
        body: impl Fn(usize, &mut [T], usize) + Sync,
    ) {
        assert!(
            chunk > 0 && data.len() % chunk == 0,
            "par_chunks_mut: {} values are not whole windows of {chunk}",
            data.len()
        );
        let n = data.len() / chunk;
        let windows = DisjointSlice::new(data);
        self.run_chunked(n, grain, |_, r, lane| {
            for i in r {
                // SAFETY: `run_chunked` hands every index to exactly one
                // call, and windows of distinct indices do not overlap.
                let window = unsafe { windows.slice(i * chunk..(i + 1) * chunk) };
                body(i, window, lane);
            }
        });
    }

    /// The chunked scheduler behind the public APIs: `cb(chunk, range,
    /// lane)` runs exactly once per chunk. Small or width-1 iterations
    /// run inline with the same chunk boundaries.
    fn run_chunked(&self, n: usize, grain: usize, cb: impl Fn(usize, Range<usize>, usize) + Sync) {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        let chunks = n.div_ceil(grain);
        let chunk_range = |c: usize| c * grain..n.min((c + 1) * grain);
        if self.width <= 1 || chunks <= 1 || IN_JOB.with(|j| j.get()) {
            let lane = LANE.with(|l| l.get());
            for c in 0..chunks {
                cb(c, chunk_range(c), lane);
            }
            return;
        }
        let w = self.width;
        // Contiguous per-lane chunk ranges; lane l owns
        // [l*chunks/w, (l+1)*chunks/w).
        for (lane, cur) in self.shared.cursors.iter().enumerate() {
            cur.0.store(lane * chunks / w, Ordering::Relaxed);
        }
        let shared = &self.shared;
        let body = move |lane: usize| {
            // Drain the lane's own range, then steal from the others.
            for k in 0..w {
                let victim = (lane + k) % w;
                let end = (victim + 1) * chunks / w;
                loop {
                    let c = shared.cursors[victim].0.fetch_add(1, Ordering::Relaxed);
                    if c >= end {
                        break;
                    }
                    cb(c, chunk_range(c), lane);
                }
            }
        };
        self.run(&body, obs::installed_rank());
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(lane: usize, shared: &Shared) {
    IS_WORKER.with(|w| w.set(true));
    LANE.with(|l| l.set(lane));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(job) = st.job {
                        seen = st.epoch;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).expect("pool state");
            }
        };
        let obs_on = job.obs_rank.is_some();
        let ts = if obs_on { obs::now_ns() } else { 0 };
        let t0 = Instant::now();
        if let Some(rank) = job.obs_rank {
            obs::install(rank);
        }
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = JobScope::enter();
            // SAFETY: the submitting frame blocks until `remaining == 0`.
            let f = unsafe { &*job.f };
            f(lane);
        }));
        let report = if obs_on { obs::uninstall() } else { None };
        let dur = t0.elapsed().as_nanos() as u64;
        shared.busy_ns[lane].0.fetch_add(dur, Ordering::Relaxed);
        if obs_on {
            shared.drains.lock().expect("pool drains").push(Drain {
                lane: lane as u32,
                ts_ns: ts,
                dur_ns: dur,
                report,
            });
        }
        let mut st = shared.state.lock().expect("pool state");
        if res.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A shared-slice window that hands out `&mut` subslices to concurrent
/// workers. The caller promises the ranges requested concurrently are
/// pairwise disjoint (element RHS writes, per-chunk result slots).
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: disjoint `&mut` windows into a slice may move across threads
// exactly like disjoint `split_at_mut` halves.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap a slice for disjoint concurrent writes.
    pub fn new(s: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Borrow `range` mutably.
    ///
    /// # Safety
    ///
    /// Ranges requested while another borrow from this wrapper is live
    /// (on any thread) must not overlap it.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

/// Per-lane mutable state (scratch workspaces): slot `l` may only be
/// touched by the thread currently running as lane `l`, which the pool
/// guarantees is unique per job.
pub struct PerLane<T> {
    slots: Vec<UnsafeCell<T>>,
}

// SAFETY: each slot is accessed by at most one thread at a time (the
// pool runs one thread per lane per job).
unsafe impl<T: Send> Sync for PerLane<T> {}

/// No lanes provisioned yet.
impl<T> Default for PerLane<T> {
    fn default() -> Self {
        PerLane { slots: Vec::new() }
    }
}

impl<T> PerLane<T> {
    /// Build `width` slots with `mk(lane)`.
    pub fn new(width: usize, mut mk: impl FnMut(usize) -> T) -> Self {
        PerLane {
            slots: (0..width).map(|l| UnsafeCell::new(mk(l))).collect(),
        }
    }

    /// Number of lanes provisioned.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Borrow lane `l`'s slot mutably.
    ///
    /// # Safety
    ///
    /// The caller must be the only thread using lane `l` for the
    /// lifetime of the borrow (true inside a pool job body for its own
    /// lane argument).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn lane(&self, l: usize) -> &mut T {
        &mut *self.slots[l].get()
    }

    /// Unique-access iteration (outside any job).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| s.get_mut())
    }

    /// Unique access to one slot (outside any job).
    pub fn get_mut(&mut self, l: usize) -> &mut T {
        self.slots[l].get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU32;

    /// Tests touching the process-global override run serialized.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = Pool::new(4);
        let n = 1013;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pool.par_for_each(n, 7, |r, _| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_reduce_is_bitwise_width_invariant() {
        // A reduction whose result depends on association order: any
        // schedule dependence shows up in the bits.
        let n = 10_000;
        let term = |i: usize| 1.0 / (1.0 + i as f64).sqrt();
        let sum_with = |width: usize| {
            let pool = Pool::new(width);
            let mut acc = 0.0f64;
            pool.par_map_reduce(
                n,
                64,
                |r, _| r.map(term).fold(0.0f64, |a, b| a + b),
                |chunk| acc += chunk,
            );
            acc.to_bits()
        };
        let w1 = sum_with(1);
        for w in [2, 3, 4, 7] {
            assert_eq!(sum_with(w), w1, "width {w} changed the reduction bits");
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        let pool = Pool::new(3);
        let v = pool.par_map(257, 10, |i| i * i);
        assert_eq!(v.len(), 257);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
    }

    #[test]
    fn par_chunks_mut_hands_each_index_its_window() {
        for width in [1, 3] {
            let pool = Pool::new(width);
            let mut data = vec![0usize; 5 * 203];
            pool.par_chunks_mut(&mut data, 5, 8, |i, w, _| {
                assert_eq!(w.len(), 5);
                for (j, v) in w.iter_mut().enumerate() {
                    *v += 10 * i + j;
                }
            });
            assert!(data
                .iter()
                .enumerate()
                .all(|(k, &v)| v == 10 * (k / 5) + k % 5));
        }
    }

    #[test]
    fn lanes_are_unique_per_job() {
        let pool = Pool::new(4);
        let seen = Mutex::new(BTreeSet::new());
        pool.par_for_each(4096, 1, |_, lane| {
            seen.lock().unwrap().insert(lane);
        });
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|&l| l < 4));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_for_each(100, 1, |r, _| {
                if r.contains(&63) {
                    panic!("injected");
                }
            });
        }));
        assert!(caught.is_err(), "panic in a chunk body must propagate");
        // The pool must still work after a panicked job.
        let v = pool.par_map(10, 1, |i| i + 1);
        assert_eq!(v, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_inline() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_worker_override(Some(3));
        let total = AtomicUsize::new(0);
        with(|p| {
            p.par_for_each(64, 4, |r, _| {
                // Nested parallel call from inside a job: must not
                // deadlock or nest pools.
                par_for_each(r.len(), 2, |inner, _| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
        set_worker_override(None);
    }

    #[test]
    fn worker_counters_drain_into_rank_recorder() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_worker_override(Some(3));
        obs::install(11);
        obs::reset();
        with(|p| {
            assert_eq!(p.width(), 3);
            p.par_for_each(300, 10, |_, _| {
                obs::counter_add("pool.test.visits", 1);
            });
        });
        let rep = obs::uninstall().expect("recorder installed");
        let visits = rep
            .counters
            .iter()
            .find(|(k, _)| k == "pool.test.visits")
            .map(|(_, v)| *v);
        // Every chunk's counter increments survive, no matter which
        // thread ran the chunk: 300 / 10 = 30 chunks.
        assert_eq!(visits, Some(30));
        let busy: Vec<_> = rep
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pool.worker."))
            .collect();
        assert!(!busy.is_empty(), "per-worker busy counters missing");
        assert!(rep.events.iter().any(|e| e.name == "pool.busy"));
        set_worker_override(None);
    }

    #[test]
    fn reset_hook_clears_pending_worker_drains() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_worker_override(Some(3));
        obs::install(12);
        obs::reset();
        // A job whose rank-lane (lane 0) body panics: the unwind skips
        // the absorb at the end of `run`, so the workers' per-job drains
        // stay pending in the pool.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with(|p| {
                p.par_for_each(30, 1, |_, lane| {
                    if lane == 0 {
                        panic!("injected");
                    }
                    obs::counter_add("pool.leak.visits", 1);
                });
            });
        }));
        assert!(caught.is_err());
        with(|p| {
            assert!(
                !p.shared.drains.lock().unwrap().is_empty(),
                "a panicked job should leave worker drains pending"
            );
        });
        // The fix under test: obs::reset() runs the registered pool hook,
        // so a fresh measurement section starts with no stale lane state …
        obs::reset();
        with(|p| {
            assert!(
                p.shared.drains.lock().unwrap().is_empty(),
                "obs::reset() must clear pending worker drains"
            );
        });
        // … and the next section's report carries nothing recorded by the
        // pre-reset job's workers.
        with(|p| p.par_for_each(8, 4, |_, _| {}));
        let rep = obs::uninstall().expect("recorder installed");
        assert!(
            rep.counters.iter().all(|(k, _)| k != "pool.leak.visits"),
            "stale worker drains leaked across obs::reset()"
        );
        set_worker_override(None);
    }

    #[test]
    fn configured_width_prefers_override() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_worker_override(Some(5));
        assert_eq!(configured_workers(), 5);
        set_worker_override(None);
    }
}
