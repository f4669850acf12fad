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
//! Both parallel forms are bitwise deterministic regardless of worker
//! count and steal schedule:
//!
//! - **Fixed chunking.** An iteration space `0..n` is split into chunks
//!   of a caller-chosen `grain`; the chunk boundaries are a function of
//!   `(n, grain)` only — never of the worker count or of which worker
//!   runs a chunk.
//! - **Ordered reduction.** [`par_map_reduce`] stores one result slot per
//!   chunk and folds the slots in ascending chunk order on the calling
//!   thread, so floating-point reductions associate identically on any
//!   schedule.
//! - **Owned windows.** [`par_chunks_mut`] is the only way to write in
//!   parallel: the pool cuts the caller's slice into disjoint windows and
//!   hands each body call its own window plus its lane's own scratch, so
//!   the memory image is schedule-independent by construction and no
//!   caller needs `unsafe`.
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

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
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
    /// never create nested pools — see `IS_WORKER`).
    static POOL: RefCell<Option<Rc<Pool>>> = const { RefCell::new(None) };
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
/// clears worker-lane state along with the rank recorder.
fn clear_pending_drains() {
    if IS_WORKER.with(|w| w.get()) {
        return;
    }
    POOL.with(|p| {
        if let Some(pool) = p.borrow().as_ref() {
            pool.shared.drains.lock().expect("pool drains").clear();
        }
    });
}

/// Parallel map with ordered reduction on the calling thread's pool:
/// `map(chunk_range, lane)` runs once per fixed chunk of `0..n`, and
/// `fold` consumes the chunk results **in ascending chunk order** on the
/// calling thread. Bitwise deterministic for any worker count because
/// both the chunk boundaries and the fold order are schedule-independent.
pub fn par_map_reduce<T: Send>(
    n: usize,
    grain: usize,
    map: impl Fn(Range<usize>, usize) -> T + Sync,
    fold: impl FnMut(T),
) {
    with(|p| p.par_map_reduce(n, grain, map, fold));
}

/// Parallel sweep over disjoint `chunk`-sized windows of `data` on the
/// calling thread's pool: `body(index, window, scratch)` runs once per
/// window (`window = data[index * chunk..(index + 1) * chunk]`; the
/// length must be whole windows), or, given `only`, once per window it
/// names. `only` must be strictly ascending and in range — the pool
/// panics before running any body otherwise — and an empty list submits
/// no job.
///
/// Pool chunks hold `grain` windows (listed windows, given `only`), so
/// their boundaries depend on the window count and `grain` only. `scratch`
/// is `lanes[l]` of the lane `l` running the call, never shared with
/// another lane; the job runs on at most `lanes.len()` lanes. A caller
/// without scratch passes `&mut [(); MAX_LANES]`.
pub fn par_chunks_mut<T: Send, S: Send>(
    data: &mut [T],
    chunk: usize,
    grain: usize,
    only: Option<&[u32]>,
    lanes: &mut [S],
    body: impl Fn(usize, &mut [T], &mut S) + Sync,
) {
    with(|p| p.par_chunks_mut(data, chunk, grain, only, lanes, body));
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

    /// See the free [`par_map_reduce`]: one result window per chunk,
    /// written through [`Pool::par_chunks_mut`] with the lane ids as the
    /// lanes' scratch.
    fn par_map_reduce<T: Send>(
        &self,
        n: usize,
        grain: usize,
        map: impl Fn(Range<usize>, usize) -> T + Sync,
        mut fold: impl FnMut(T),
    ) {
        let grain = grain.max(1);
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(n.div_ceil(grain), || None);
        let mut lane_ids: [usize; MAX_LANES] = std::array::from_fn(|l| l);
        self.par_chunks_mut(&mut slots, 1, 1, None, &mut lane_ids, |c, slot, lane| {
            slot[0] = Some(map(c * grain..n.min((c + 1) * grain), *lane));
        });
        for s in slots {
            fold(s.expect("every chunk produced a result"));
        }
    }

    /// See the free [`par_chunks_mut`].
    fn par_chunks_mut<T: Send, S: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        grain: usize,
        only: Option<&[u32]>,
        lanes: &mut [S],
        body: impl Fn(usize, &mut [T], &mut S) + Sync,
    ) {
        assert!(
            chunk > 0 && data.len() % chunk == 0,
            "par_chunks_mut: {} values are not whole windows of {chunk}",
            data.len()
        );
        assert!(!lanes.is_empty(), "par_chunks_mut: no lane scratch");
        let count = data.len() / chunk;
        if let Some(list) = only {
            assert!(
                list.windows(2).all(|p| p[0] < p[1])
                    && list.last().is_none_or(|&e| (e as usize) < count),
                "par_chunks_mut: the window list is not strictly ascending below {count}"
            );
        }
        let n = only.map_or(count, <[u32]>::len);
        let width = self.width.min(lanes.len());
        let (data, lanes) = (Windows::new(data), Windows::new(lanes));
        self.run_chunked(n, grain, width, |r, lane| {
            for i in r {
                let e = only.map_or(i, |list| list[i] as usize);
                // SAFETY: `run_chunked` hands every position to exactly
                // one call, a strictly ascending list names each window
                // once, and windows of distinct indices do not overlap.
                // It runs lane `lane` (below `width <= lanes.len()`) on
                // one thread at a time, and this borrow of the lane's
                // scratch ends with `body`, before the lane's next one.
                let (window, scratch) = unsafe {
                    (
                        data.slice(e * chunk..(e + 1) * chunk),
                        &mut lanes.slice(lane..lane + 1)[0],
                    )
                };
                body(e, window, scratch);
            }
        });
    }

    /// The chunked scheduler behind both forms: `cb(chunk_range, lane)`
    /// runs exactly once per chunk of `0..n`, on lanes `0..w`. Small,
    /// nested or width-1 iterations run inline as lane 0 with the same
    /// chunk boundaries.
    fn run_chunked(
        &self,
        n: usize,
        grain: usize,
        w: usize,
        cb: impl Fn(Range<usize>, usize) + Sync,
    ) {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        let chunks = n.div_ceil(grain);
        let chunk_range = |c: usize| c * grain..n.min((c + 1) * grain);
        if w <= 1 || chunks <= 1 || IN_JOB.with(|j| j.get()) {
            for c in 0..chunks {
                cb(chunk_range(c), 0);
            }
            return;
        }
        // Contiguous per-lane chunk ranges; lane l owns
        // [l*chunks/w, (l+1)*chunks/w).
        for (lane, cur) in self.shared.cursors.iter().take(w).enumerate() {
            cur.0.store(lane * chunks / w, Ordering::Relaxed);
        }
        let shared = &self.shared;
        let body = move |lane: usize| {
            if lane >= w {
                return;
            }
            // Drain the lane's own range, then steal from the others.
            for k in 0..w {
                let victim = (lane + k) % w;
                let end = (victim + 1) * chunks / w;
                loop {
                    let c = shared.cursors[victim].0.fetch_add(1, Ordering::Relaxed);
                    if c >= end {
                        break;
                    }
                    cb(chunk_range(c), lane);
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

/// `&mut` windows of one slice handed to concurrent lanes; the caller
/// promises the windows live at once are pairwise disjoint.
struct Windows<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: disjoint `&mut` windows into a slice may move across threads
// exactly like disjoint `split_at_mut` halves.
unsafe impl<T: Send> Sync for Windows<'_, T> {}

impl<'a, T> Windows<'a, T> {
    fn new(s: &'a mut [T]) -> Self {
        Windows {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            _marker: PhantomData,
        }
    }

    /// Borrow `range` mutably.
    ///
    /// # Safety
    ///
    /// No other live borrow from this wrapper (on any thread) may
    /// overlap `range`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::{MutexGuard, PoisonError};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Tests touching the process-global override run serialized.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    /// Take [`OVERRIDE_LOCK`]; a test that failed while holding it must
    /// not fail every later one.
    fn override_lock() -> MutexGuard<'static, ()> {
        OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = Pool::new(4);
        let n = 1013;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pool.par_map_reduce(
            n,
            7,
            |r, _| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            },
            |()| {},
        );
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
    fn par_chunks_mut_hands_each_index_its_window() {
        for width in [1, 3] {
            let pool = Pool::new(width);
            let mut data = vec![0usize; 5 * 203];
            pool.par_chunks_mut(&mut data, 5, 8, None, &mut [(); MAX_LANES], |i, w, _| {
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
    fn listed_windows_run_once_and_scratch_stays_on_its_lane() {
        // 103 windows of 3, every one not divisible by 3 listed: 68
        // entries, so grain 5 leaves a ragged last chunk of 3.
        let list: Vec<u32> = (0..103).filter(|e| e % 3 != 0).collect();
        assert_ne!(list.len() % 5, 0);
        for width in 1..=4 {
            let pool = Pool::new(width);
            let mut data = vec![0u32; 3 * 103];
            // Each lane's scratch: the thread that first touched it and
            // how many windows it saw.
            let mut lanes: Vec<(Option<ThreadId>, usize)> = vec![(None, 0); width];
            pool.par_chunks_mut(&mut data, 3, 5, Some(&list), &mut lanes, |e, w, s| {
                let me = std::thread::current().id();
                assert_eq!(*s.0.get_or_insert(me), me, "scratch crossed lanes");
                s.1 += 1;
                for v in w {
                    *v += 1 + e as u32;
                }
            });
            for (k, &v) in data.iter().enumerate() {
                let e = k / 3;
                let want = if e % 3 != 0 { 1 + e as u32 } else { 0 };
                assert_eq!(v, want, "width {width}: window {e}");
            }
            let seen: usize = lanes.iter().map(|s| s.1).sum();
            assert_eq!(seen, list.len(), "width {width}");
            let threads: HashSet<_> = lanes.iter().filter_map(|s| s.0).collect();
            assert_eq!(
                threads.len(),
                lanes.iter().filter(|s| s.0.is_some()).count(),
                "width {width}: two lanes ran on one thread"
            );
        }
    }

    #[test]
    fn bad_window_list_panics_before_any_body_runs() {
        let pool = Pool::new(2);
        let ran = AtomicBool::new(false);
        for list in [&[1u32, 0][..], &[2, 2], &[0, 1, 5]] {
            let mut data = vec![0u8; 5 * 4];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.par_chunks_mut(&mut data, 4, 1, Some(list), &mut [(); 2], |_, _, _| {
                    ran.store(true, Ordering::Relaxed);
                });
            }));
            assert!(caught.is_err(), "{list:?} was accepted");
        }
        // An empty list is valid and runs nothing.
        pool.par_chunks_mut(&mut [0u8; 4], 4, 1, Some(&[]), &mut [(); 2], |_, _, _| {
            ran.store(true, Ordering::Relaxed);
        });
        assert!(!ran.load(Ordering::Relaxed));
    }

    #[test]
    fn lanes_are_unique_per_job() {
        let pool = Pool::new(4);
        let seen = Mutex::new(BTreeSet::new());
        pool.par_map_reduce(
            4096,
            1,
            |_, lane| {
                seen.lock().unwrap().insert(lane);
            },
            |()| {},
        );
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        assert!(seen.iter().all(|&l| l < 4));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_reduce(
                100,
                1,
                |r, _| {
                    if r.contains(&63) {
                        panic!("injected");
                    }
                },
                |()| {},
            );
        }));
        assert!(caught.is_err(), "panic in a chunk body must propagate");
        // The pool must still work after a panicked job.
        let mut v = vec![0; 10];
        pool.par_chunks_mut(&mut v, 1, 1, None, &mut [(); 2], |i, w, _| w[0] = i + 1);
        assert_eq!(v, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_inline() {
        let _guard = override_lock();
        set_worker_override(Some(3));
        let total = AtomicUsize::new(0);
        with(|p| {
            p.par_map_reduce(
                64,
                4,
                |r, _| {
                    // Nested parallel call from inside a job: must not
                    // deadlock or nest pools.
                    par_map_reduce(
                        r.len(),
                        2,
                        |inner, _| {
                            total.fetch_add(inner.len(), Ordering::Relaxed);
                        },
                        |()| {},
                    );
                },
                |()| {},
            );
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
        set_worker_override(None);
    }

    #[test]
    fn worker_counters_drain_into_rank_recorder() {
        let _guard = override_lock();
        set_worker_override(Some(3));
        obs::install(11);
        obs::reset();
        with(|p| {
            assert_eq!(p.width, 3);
            p.par_map_reduce(
                300,
                10,
                |_, _| obs::counter_add("pool.test.visits", 1),
                |()| {},
            );
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
        let _guard = override_lock();
        set_worker_override(Some(3));
        obs::install(12);
        obs::reset();
        // A job whose rank-lane (lane 0) body panics: the unwind skips
        // the absorb at the end of `run`, so the workers' per-job drains
        // stay pending in the pool. The workers hold their first chunk
        // until lane 0 has one (bounded), or they could steal all of lane
        // 0's chunks before it starts and the panic would never fire.
        let lane0_started = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with(|p| {
                p.par_map_reduce(
                    30,
                    1,
                    |_, lane| {
                        if lane == 0 {
                            lane0_started.store(true, Ordering::Release);
                            panic!("injected");
                        }
                        let t0 = Instant::now();
                        while !lane0_started.load(Ordering::Acquire)
                            && t0.elapsed() < Duration::from_secs(10)
                        {
                            std::thread::yield_now();
                        }
                        obs::counter_add("pool.leak.visits", 1);
                    },
                    |()| {},
                );
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
        with(|p| p.par_map_reduce(8, 4, |_, _| {}, |()| {}));
        let rep = obs::uninstall().expect("recorder installed");
        assert!(
            rep.counters.iter().all(|(k, _)| k != "pool.leak.visits"),
            "stale worker drains leaked across obs::reset()"
        );
        set_worker_override(None);
    }

    #[test]
    fn configured_width_prefers_override() {
        let _guard = override_lock();
        set_worker_override(Some(5));
        assert_eq!(configured_workers(), 5);
        set_worker_override(None);
    }
}
