//! # forust-obs — per-rank phase tracing and cross-rank metrics
//!
//! The SC10 paper's central evidence is instrumentation: per-phase wall
//! clock breakdowns of `New`/`Refine`/`Coarsen`/`Balance`/`Partition`/
//! `Ghost`/`Nodes` and the AMR-vs-solve runtime fraction, measured per
//! rank at scale (Figs. 4–10). This crate is the workspace's unified way
//! to produce those numbers:
//!
//! - **Hierarchical RAII spans** ([`span!`]): `let _g = span!("balance");`
//!   accumulates per-rank wall clock per phase name, tracking both
//!   *inclusive* time and *self* time (inclusive minus children), so a
//!   percentage table over self times tiles the run without double
//!   counting.
//! - **Named counters** ([`counter_add`]): octants touched, bytes
//!   shipped, scratch grow events, faults fired.
//! - **Cross-rank reductions** ([`metrics::Registry`]): mpiP-style
//!   min/mean/max/imbalance statistics of every phase and counter,
//!   computed via one `Communicator` allgather and therefore identical
//!   on every rank.
//! - **Chrome Trace Event export** ([`trace::export_trace`]): a
//!   `trace.json` loadable in Perfetto / `chrome://tracing`, one track
//!   per rank, spans nested by time containment.
//!
//! ## Cost model
//!
//! Ranks are OS threads (see `forust-comm`), so the recorder is a
//! thread-local installed per rank by [`install`]. Until a recorder is
//! installed the probes are **disabled**: a probe is one relaxed
//! `AtomicBool` load and a branch (gated below 2% overhead in CI by
//! `disabled_overhead_under_two_percent`). Building with
//! `--no-default-features` compiles every probe out entirely.
//!
//! ```
//! use forust_obs as obs;
//! obs::install(0);
//! {
//!     let _outer = obs::span!("step");
//!     let _inner = obs::span!("exchange");
//!     obs::counter_add("bytes_shipped", 4096);
//! }
//! let report = obs::snapshot_local().unwrap();
//! assert_eq!(report.counters, vec![("bytes_shipped".to_string(), 4096)]);
//! obs::uninstall();
//! ```

pub mod json;
pub mod metrics;
pub mod postmortem;
pub mod trace;

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide master switch. Flipped on by the first [`install`]; a
/// disabled probe is one relaxed load of this flag plus a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Shared time origin of all ranks in the process, so the per-rank
/// tracks of the exported trace are aligned on one timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// True if probes are live (some rank has installed a recorder).
#[inline]
pub fn enabled() -> bool {
    if cfg!(not(feature = "capture")) {
        return false;
    }
    ENABLED.load(Ordering::Relaxed)
}

/// One completed span occurrence, for the trace export. Times are
/// nanoseconds relative to the process `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Phase name (static, from the `span!` call site).
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub ts_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Pool lane that produced the event: 0 is the rank thread itself,
    /// `i > 0` is worker `i` of the rank's pool. Lanes get their own
    /// Perfetto track under the rank's.
    pub lane: u32,
}

/// Log2 bucket count of the fixed-layout histograms: bucket 0 holds
/// value 0, bucket `b >= 1` holds values in `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of a histogram value (number of significant bits).
#[inline]
pub fn hist_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Smallest value that lands in bucket `b` (for rendering bucket labels).
pub fn hist_bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Per-step deltas of every phase and counter between two consecutive
/// [`step_mark`] calls, recorded in a bounded ring on the rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepRecord {
    /// The step index passed to [`step_mark`].
    pub step: u64,
    /// Phases that accumulated time during the step (sparse: zero-delta
    /// phases are omitted). `total_ns`/`self_ns`/`count` are deltas.
    pub phases: Vec<PhaseStat>,
    /// Counters that advanced during the step (sparse deltas).
    pub counters: Vec<(String, u64)>,
}

/// Accumulated wall clock of one phase name on one rank.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Phase name.
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Inclusive wall clock, ns.
    pub total_ns: u64,
    /// Self wall clock (inclusive minus children), ns.
    pub self_ns: u64,
}

/// A plain-data copy of one rank's recorder state.
#[derive(Debug, Clone, Default)]
pub struct LocalReport {
    /// The rank that recorded this.
    pub rank: usize,
    /// Per-phase accumulated wall clock, sorted by name.
    pub phases: Vec<PhaseStat>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Completed span occurrences (capped; see `dropped_events`).
    pub events: Vec<TraceEvent>,
    /// Events discarded after the in-memory cap was hit.
    pub dropped_events: u64,
    /// Log2 histograms, sorted by name: dense per-bucket counts of
    /// length [`HIST_BUCKETS`].
    pub hists: Vec<(String, Vec<u64>)>,
    /// Last-write-wins gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Per-step delta ring in [`step_mark`] call order (capped; see
    /// `dropped_steps`).
    pub steps: Vec<StepRecord>,
    /// Oldest step records discarded after the ring cap was hit.
    pub dropped_steps: u64,
    /// The innermost span that was open when this rank started
    /// unwinding from a panic, if it ever did — the crash flight
    /// recorder's "what was in flight" answer.
    pub crash_phase: Option<String>,
}

/// An open span on the recorder stack.
struct OpenSpan {
    name: &'static str,
    start: Instant,
    /// Inclusive ns of already-closed children, subtracted for self time.
    child_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PhaseAcc {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Per-rank (per-thread) recorder.
struct Recorder {
    rank: usize,
    stack: Vec<OpenSpan>,
    phases: BTreeMap<&'static str, PhaseAcc>,
    counters: BTreeMap<String, u64>,
    events: Vec<TraceEvent>,
    max_events: usize,
    dropped_events: u64,
    epoch: Instant,
    hists: BTreeMap<String, Vec<u64>>,
    gauges: BTreeMap<String, u64>,
    steps: VecDeque<StepRecord>,
    max_steps: usize,
    dropped_steps: u64,
    /// Baselines [`step_mark`] diffs against (state at the previous mark).
    step_base_phases: BTreeMap<&'static str, PhaseAcc>,
    step_base_counters: BTreeMap<String, u64>,
    crash_phase: Option<&'static str>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Default cap on stored trace events per rank (phase-granular spans stay
/// far below this; the cap bounds memory if a probe lands in a hot loop).
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// Default cap on the per-step delta ring: old steps are dropped first,
/// so a long run keeps its most recent window.
pub const DEFAULT_MAX_STEPS: usize = 4096;

/// Install a recorder on the current thread (= this rank) and enable
/// probes process-wide. Call once at the top of the rank closure;
/// reinstalling replaces any previous recorder on the thread.
pub fn install(rank: usize) {
    if cfg!(not(feature = "capture")) {
        return;
    }
    let rec = Recorder {
        rank,
        stack: Vec::new(),
        phases: BTreeMap::new(),
        counters: BTreeMap::new(),
        events: Vec::new(),
        max_events: DEFAULT_MAX_EVENTS,
        dropped_events: 0,
        epoch: epoch(),
        hists: BTreeMap::new(),
        gauges: BTreeMap::new(),
        steps: VecDeque::new(),
        max_steps: DEFAULT_MAX_STEPS,
        dropped_steps: 0,
        step_base_phases: BTreeMap::new(),
        step_base_counters: BTreeMap::new(),
        crash_phase: None,
    };
    RECORDER.with(|r| *r.borrow_mut() = Some(rec));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Remove this thread's recorder and return its final report, if one was
/// installed. Other ranks' recorders (and the global enable flag) are
/// unaffected.
pub fn uninstall() -> Option<LocalReport> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.report()))
}

/// True if this thread has a live recorder.
pub fn installed() -> bool {
    enabled() && RECORDER.with(|r| r.borrow().is_some())
}

/// The rank of this thread's recorder, if one is installed. Worker pools
/// use this to decide whether (and under which rank) a job's worker
/// threads should record.
pub fn installed_rank() -> Option<usize> {
    if !enabled() {
        return None;
    }
    RECORDER.with(|r| r.borrow().as_ref().map(|rec| rec.rank))
}

/// Hooks run by [`reset`] before the recorder state is cleared, so
/// sibling layers holding undrained observability state (the worker
/// pool's pending per-lane drains) can flush or discard it. Keyed by fn
/// pointer: re-registration is idempotent.
static RESET_HOOKS: Mutex<Vec<fn()>> = Mutex::new(Vec::new());

/// Register a hook to run at the start of every [`reset`] on the
/// resetting thread. Used by `forust-pool` so a reset also clears
/// absorbed-but-stale worker-lane state instead of leaking
/// `pool.worker.<i>.busy_us` into the next measurement section.
pub fn register_reset_hook(hook: fn()) {
    let mut hooks = RESET_HOOKS.lock().expect("reset hooks");
    if !hooks.iter().any(|h| std::ptr::fn_addr_eq(*h, hook)) {
        hooks.push(hook);
    }
}

/// Clear this thread's recorded phases, counters, events, histograms,
/// gauges and step ring (the recorder stays installed), after running
/// the registered reset hooks so pending worker-lane drains from a
/// previous section cannot leak across the reset. Useful to exclude
/// warmup work.
pub fn reset() {
    let hooks: Vec<fn()> = RESET_HOOKS.lock().expect("reset hooks").clone();
    for hook in hooks {
        hook();
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.phases.clear();
            rec.counters.clear();
            rec.events.clear();
            rec.dropped_events = 0;
            rec.hists.clear();
            rec.gauges.clear();
            rec.steps.clear();
            rec.dropped_steps = 0;
            rec.step_base_phases.clear();
            rec.step_base_counters.clear();
            rec.crash_phase = None;
        }
    });
}

/// Copy this thread's recorder state out (open spans contribute nothing
/// until they close). `None` if no recorder is installed.
pub fn snapshot_local() -> Option<LocalReport> {
    RECORDER.with(|r| r.borrow().as_ref().map(|rec| rec.report()))
}

/// Nanoseconds since the process-wide trace epoch. Worker pools use this
/// to timestamp per-lane busy intervals on the shared rank timeline.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Intern a phase name so dynamically produced reports (worker-thread
/// drains travel as `String`s) can merge into the `&'static str`-keyed
/// recorder maps. Phase names form a small static set, so the leaked
/// bytes are bounded by the set of distinct span names in the binary.
fn intern(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = INTERNED.lock().expect("intern table");
    if let Some(&s) = set.get(name) {
        return s;
    }
    let s: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(s);
    s
}

/// Merge a drained report from a helper thread (a pool worker) into the
/// current thread's recorder: phases and counters accumulate, events are
/// appended tagged with `lane` so they land on the worker's own trace
/// track. A no-op when this thread has no recorder.
pub fn absorb(report: &LocalReport, lane: u32) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return;
        };
        for ph in &report.phases {
            let acc = rec.phases.entry(intern(&ph.name)).or_default();
            acc.count += ph.count;
            acc.total_ns += ph.total_ns;
            acc.self_ns += ph.self_ns;
        }
        for (name, v) in &report.counters {
            *rec.counters.entry(name.clone()).or_insert(0) += v;
        }
        for ev in &report.events {
            if rec.events.len() < rec.max_events {
                rec.events.push(TraceEvent { lane, ..ev.clone() });
            } else {
                rec.dropped_events += 1;
            }
        }
        rec.dropped_events += report.dropped_events;
        for (name, buckets) in &report.hists {
            let acc = rec
                .hists
                .entry(name.clone())
                .or_insert_with(|| vec![0u64; HIST_BUCKETS]);
            for (a, b) in acc.iter_mut().zip(buckets) {
                *a += b;
            }
        }
        for (name, v) in &report.gauges {
            rec.gauges.insert(name.clone(), *v);
        }
        if rec.crash_phase.is_none() {
            if let Some(cp) = &report.crash_phase {
                rec.crash_phase = Some(intern(cp));
            }
        }
    });
}

/// Record one completed interval directly (no span guard), on the given
/// pool lane's track. Used for per-worker busy intervals, which are
/// measured on the worker but recorded by the rank thread. Does not
/// contribute to the phase table (busy time is concurrent with the rank
/// thread's own spans and would break self-time tiling).
pub fn event_add(name: &'static str, ts_ns: u64, dur_ns: u64, lane: u32) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return;
        };
        if rec.events.len() < rec.max_events {
            rec.events.push(TraceEvent {
                name,
                ts_ns,
                dur_ns,
                lane,
            });
        } else {
            rec.dropped_events += 1;
        }
    });
}

impl Recorder {
    fn report(&self) -> LocalReport {
        LocalReport {
            rank: self.rank,
            phases: self
                .phases
                .iter()
                .map(|(&name, acc)| PhaseStat {
                    name: name.to_string(),
                    count: acc.count,
                    total_ns: acc.total_ns,
                    self_ns: acc.self_ns,
                })
                .collect(),
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            events: self.events.clone(),
            dropped_events: self.dropped_events,
            hists: self
                .hists
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            steps: self.steps.iter().cloned().collect(),
            dropped_steps: self.dropped_steps,
            crash_phase: self.crash_phase.map(|s| s.to_string()),
        }
    }
}

/// Add `delta` to the named counter on this rank. A no-op when probes
/// are disabled or this thread has no recorder.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    counter_add_slow(name, delta);
}

#[cold]
fn counter_add_slow(name: &str, delta: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(v) = rec.counters.get_mut(name) {
                *v += delta;
            } else {
                rec.counters.insert(name.to_string(), delta);
            }
        }
    });
}

/// Record one sample into the named log2 histogram on this rank: the
/// count in bucket [`hist_bucket`]`(value)` advances by one. A no-op
/// when probes are disabled or this thread has no recorder.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    histogram_slow(name, hist_bucket(value), 1);
}

/// Merge pre-bucketed counts into the named histogram (bucket layout of
/// [`hist_bucket`]; shorter slices cover a prefix). Layers below obs in
/// the dependency order — `ReliableComm`'s retry-latency buckets — count
/// locally with the same log2 rule and drivers forward the buckets here.
#[inline]
pub fn histogram_merge(name: &str, buckets: &[u64]) {
    if !enabled() {
        return;
    }
    histogram_merge_slow(name, buckets);
}

#[cold]
fn histogram_slow(name: &str, bucket: usize, count: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let h = rec
                .hists
                .entry(name.to_string())
                .or_insert_with(|| vec![0u64; HIST_BUCKETS]);
            h[bucket.min(HIST_BUCKETS - 1)] += count;
        }
    });
}

#[cold]
fn histogram_merge_slow(name: &str, buckets: &[u64]) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let h = rec
                .hists
                .entry(name.to_string())
                .or_insert_with(|| vec![0u64; HIST_BUCKETS]);
            for (b, &count) in buckets.iter().enumerate().take(HIST_BUCKETS) {
                h[b] += count;
            }
        }
    });
}

/// Set the named gauge to `value` (last write wins; reduced across
/// ranks like a counter). A no-op when probes are disabled or this
/// thread has no recorder.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    gauge_slow(name, value);
}

#[cold]
fn gauge_slow(name: &str, value: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.gauges.insert(name.to_string(), value);
        }
    });
}

/// Close step `step` of the per-step time series: every phase and
/// counter delta since the previous mark is appended to the bounded
/// step ring (oldest records dropped first). Call it once per solver
/// step, *after* the step's spans have closed, on the rank thread. A
/// no-op when probes are disabled or this thread has no recorder.
#[inline]
pub fn step_mark(step: u64) {
    if !enabled() {
        return;
    }
    step_mark_slow(step);
}

#[cold]
fn step_mark_slow(step: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let mut phases = Vec::new();
            for (&name, acc) in &rec.phases {
                let base = rec.step_base_phases.get(name).copied().unwrap_or_default();
                if acc.total_ns != base.total_ns || acc.count != base.count {
                    phases.push(PhaseStat {
                        name: name.to_string(),
                        count: acc.count - base.count,
                        total_ns: acc.total_ns - base.total_ns,
                        self_ns: acc.self_ns - base.self_ns,
                    });
                }
            }
            let mut counters = Vec::new();
            for (name, &v) in &rec.counters {
                let base = rec.step_base_counters.get(name).copied().unwrap_or(0);
                if v != base {
                    counters.push((name.clone(), v - base));
                }
            }
            rec.step_base_phases = rec.phases.clone();
            rec.step_base_counters = rec.counters.clone();
            if rec.steps.len() >= rec.max_steps {
                rec.steps.pop_front();
                rec.dropped_steps += 1;
            }
            rec.steps.push_back(StepRecord {
                step,
                phases,
                counters,
            });
        }
    });
}

/// RAII guard of one phase span; created by [`span!`] (or
/// [`SpanGuard::enter`]). Closing order is guaranteed by scoping, so
/// spans nest strictly.
#[must_use = "bind the span guard to a scope: let _g = span!(...)"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Open a span named `name`. Disabled probes return an inert guard.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { armed: false };
        }
        SpanGuard {
            armed: enter_slow(name),
        }
    }
}

#[cold]
fn enter_slow(name: &'static str) -> bool {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return false;
        };
        rec.stack.push(OpenSpan {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        true
    })
}

#[cold]
fn exit_slow() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return;
        };
        let Some(open) = rec.stack.pop() else {
            return;
        };
        // The first span to close while this thread is unwinding is the
        // innermost span that was live at the panic — remember it as the
        // in-flight phase for the crash flight recorder.
        if rec.crash_phase.is_none() && std::thread::panicking() {
            rec.crash_phase = Some(open.name);
        }
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = rec.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let acc = rec.phases.entry(open.name).or_default();
        acc.count += 1;
        acc.total_ns += dur_ns;
        acc.self_ns += self_ns;
        if rec.events.len() < rec.max_events {
            let ts_ns = open.start.duration_since(rec.epoch).as_nanos() as u64;
            rec.events.push(TraceEvent {
                name: open.name,
                ts_ns,
                dur_ns,
                lane: 0,
            });
        } else {
            rec.dropped_events += 1;
        }
    });
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            exit_slow();
        }
    }
}

/// Open a hierarchical phase span: `let _g = forust_obs::span!("balance");`.
/// The span closes when the guard drops. Names must be `&'static str`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Record one sample into a named log2 histogram:
/// `forust_obs::histogram!("halo.bytes_per_exchange", bytes as u64);`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::histogram_record($name, $value)
    };
}

// ---------------------------------------------------------------------
// Crash flight recorder: per-rank dumps deposited at panic time and
// drained by the recovery supervisor into a post-mortem bundle.
// ---------------------------------------------------------------------

/// Default lookback window of a flight-recorder deposit, in ms.
pub const DEFAULT_FLIGHT_WINDOW_MS: u64 = 250;

/// One rank's contribution to a post-mortem bundle: the tail of its
/// span timeline, its counter snapshot, and — if the rank itself was
/// unwinding — the innermost span that was in flight.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// The depositing rank.
    pub rank: usize,
    /// Innermost span open at the panic (`None` for surviving ranks
    /// that deposited while healthy).
    pub crash_phase: Option<String>,
    /// Counter snapshot at deposit time.
    pub counters: Vec<(String, u64)>,
    /// Span events whose end falls inside the lookback window, oldest
    /// first.
    pub events: Vec<TraceEvent>,
    /// Deposit timestamp, ns since the process epoch.
    pub deposited_ns: u64,
}

static FLIGHT: Mutex<Vec<FlightDump>> = Mutex::new(Vec::new());

/// Deposit this rank's last `window_ms` of events plus its counter
/// snapshot into the process-wide flight store, replacing any earlier
/// deposit from the same rank. Call from a rank that is about to die
/// (between `catch_unwind` and `resume_unwind`) or from survivors when
/// a peer's death surfaces. A no-op without an installed recorder.
pub fn flight_deposit(window_ms: u64) {
    if !enabled() {
        return;
    }
    let Some(report) = snapshot_local() else {
        return;
    };
    let now = now_ns();
    let horizon = now.saturating_sub(window_ms.saturating_mul(1_000_000));
    let events: Vec<TraceEvent> = report
        .events
        .iter()
        .filter(|e| e.ts_ns + e.dur_ns >= horizon)
        .cloned()
        .collect();
    let dump = FlightDump {
        rank: report.rank,
        crash_phase: report.crash_phase.clone(),
        counters: report.counters.clone(),
        events,
        deposited_ns: now,
    };
    let mut store = FLIGHT.lock().expect("flight store");
    store.retain(|d| d.rank != dump.rank);
    store.push(dump);
}

/// Drain every deposited flight dump, sorted by rank. The supervisor
/// calls this once per caught crash to build the post-mortem bundle.
pub fn flight_take_all() -> Vec<FlightDump> {
    let mut dumps = std::mem::take(&mut *FLIGHT.lock().expect("flight store"));
    dumps.sort_by_key(|d| d.rank);
    dumps
}

/// Discard any deposited flight dumps (test isolation between chaos
/// scenarios sharing a process).
pub fn flight_reset() {
    FLIGHT.lock().expect("flight store").clear();
}

#[cfg(all(test, feature = "capture"))]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_spans_account_self_and_total() {
        install(7);
        reset();
        {
            let _outer = span!("outer");
            spin(200);
            {
                let _inner = span!("inner");
                spin(200);
            }
            spin(200);
        }
        let rep = uninstall().unwrap();
        assert_eq!(rep.rank, 7);
        let get = |n: &str| rep.phases.iter().find(|p| p.name == n).unwrap().clone();
        let outer = get("outer");
        let inner = get("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Inclusive outer covers inner entirely; self excludes it.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        // Two complete events, inner nested within outer on the timeline.
        assert_eq!(rep.events.len(), 2);
        let ev_inner = rep.events.iter().find(|e| e.name == "inner").unwrap();
        let ev_outer = rep.events.iter().find(|e| e.name == "outer").unwrap();
        assert!(ev_outer.ts_ns <= ev_inner.ts_ns);
        assert!(ev_inner.ts_ns + ev_inner.dur_ns <= ev_outer.ts_ns + ev_outer.dur_ns);
    }

    #[test]
    fn counters_accumulate_and_sort() {
        install(0);
        reset();
        counter_add("z.last", 1);
        counter_add("a.first", 2);
        counter_add("a.first", 3);
        let rep = uninstall().unwrap();
        assert_eq!(
            rep.counters,
            vec![("a.first".to_string(), 5), ("z.last".to_string(), 1)]
        );
    }

    #[test]
    fn probes_without_recorder_are_noops() {
        // Another test may have flipped ENABLED on; with no recorder on
        // this thread every probe must be inert.
        let _ = uninstall();
        {
            let _g = span!("orphan");
            counter_add("orphan", 1);
        }
        assert!(snapshot_local().is_none());
    }

    #[test]
    fn repeated_spans_count() {
        install(0);
        reset();
        for _ in 0..5 {
            let _g = span!("loop");
        }
        let rep = uninstall().unwrap();
        let p = rep.phases.iter().find(|p| p.name == "loop").unwrap();
        assert_eq!(p.count, 5);
        assert_eq!(rep.events.len(), 5);
    }

    #[test]
    fn histograms_bucket_and_merge() {
        install(0);
        reset();
        // Bucket layout: 0 -> 0, [2^(b-1), 2^b) -> b.
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(u64::MAX), 64);
        assert_eq!(hist_bucket_floor(0), 0);
        assert_eq!(hist_bucket_floor(1), 1);
        assert_eq!(hist_bucket_floor(10), 512);
        histogram!("lat", 0);
        histogram!("lat", 1);
        histogram!("lat", 3);
        histogram!("lat", 3);
        let mut ext = vec![0u64; HIST_BUCKETS];
        ext[5] = 7; // external source: values in [16, 32)
        histogram_merge("lat", &ext);
        let rep = uninstall().unwrap();
        let (name, buckets) = &rep.hists[0];
        assert_eq!(name, "lat");
        assert_eq!(buckets.len(), HIST_BUCKETS);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[5], 7);
        assert_eq!(buckets.iter().sum::<u64>(), 11);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        install(0);
        reset();
        gauge_set("pool.lanes", 4);
        gauge_set("pool.lanes", 8);
        gauge_set("a.lanes", 2);
        let rep = uninstall().unwrap();
        assert_eq!(
            rep.gauges,
            vec![("a.lanes".to_string(), 2), ("pool.lanes".to_string(), 8)]
        );
    }

    #[test]
    fn step_mark_slices_sparse_deltas() {
        install(0);
        reset();
        // Step 0: one phase and one counter advance.
        {
            let _g = span!("rk");
            spin(100);
            counter_add("flux", 3);
        }
        step_mark(0);
        // Step 1: only the counter advances; a new counter appears.
        counter_add("flux", 2);
        counter_add("fresh", 1);
        step_mark(1);
        // Step 2: nothing happened — the record is empty but present.
        step_mark(2);
        let rep = uninstall().unwrap();
        assert_eq!(rep.steps.len(), 3);
        assert_eq!(rep.dropped_steps, 0);

        let s0 = &rep.steps[0];
        assert_eq!(s0.step, 0);
        assert_eq!(s0.phases.len(), 1);
        assert_eq!(s0.phases[0].name, "rk");
        assert_eq!(s0.phases[0].count, 1);
        assert!(s0.phases[0].total_ns > 0);
        assert_eq!(s0.counters, vec![("flux".to_string(), 3)]);

        let s1 = &rep.steps[1];
        assert_eq!(s1.step, 1);
        assert!(s1.phases.is_empty(), "rk did not run in step 1");
        assert_eq!(
            s1.counters,
            vec![("flux".to_string(), 2), ("fresh".to_string(), 1)]
        );

        let s2 = &rep.steps[2];
        assert!(s2.phases.is_empty() && s2.counters.is_empty());
    }

    #[test]
    fn step_ring_drops_oldest_at_cap() {
        install(0);
        reset();
        RECORDER.with(|r| r.borrow_mut().as_mut().unwrap().max_steps = 3);
        for step in 0..5u64 {
            counter_add("c", 1);
            step_mark(step);
        }
        let rep = uninstall().unwrap();
        assert_eq!(rep.dropped_steps, 2);
        let kept: Vec<u64> = rep.steps.iter().map(|s| s.step).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest records are dropped first");
    }

    #[test]
    fn crash_phase_is_innermost_panicking_span() {
        let report = std::thread::spawn(|| {
            install(3);
            let caught = std::panic::catch_unwind(|| {
                let _outer = span!("step");
                let _inner = span!("rk.stage");
                panic!("injected");
            });
            assert!(caught.is_err());
            uninstall().unwrap()
        })
        .join()
        .unwrap();
        // The guards unwound innermost-first, so the first span to close
        // while panicking is the one that was actually in flight.
        assert_eq!(report.crash_phase.as_deref(), Some("rk.stage"));
    }

    #[test]
    fn flight_deposit_windows_and_drains() {
        let _ = std::thread::spawn(|| {
            flight_reset();
            install(5);
            reset();
            {
                let _g = span!("old.phase");
                spin(50);
            }
            counter_add("halo.bytes_sent", 42);
            {
                let _g = span!("recent.phase");
                spin(50);
            }
            // A huge window keeps both events; the dump carries the
            // counters and rank.
            flight_deposit(60_000);
            let dumps = flight_take_all();
            assert_eq!(dumps.len(), 1);
            let d = &dumps[0];
            assert_eq!(d.rank, 5);
            assert!(d.events.iter().any(|e| e.name == "recent.phase"));
            assert!(d
                .counters
                .iter()
                .any(|(n, v)| n == "halo.bytes_sent" && *v == 42));
            // Drained: a second take is empty.
            assert!(flight_take_all().is_empty());

            // A zero-ms window keeps no events (horizon is "now").
            flight_deposit(0);
            let dumps = flight_take_all();
            assert_eq!(dumps.len(), 1);
            assert!(dumps[0].events.is_empty());
            uninstall()
        })
        .join()
        .unwrap();
    }

    /// The CI overhead gate: phase-granular probes in disabled mode must
    /// cost < 2% on a representative kernel. Run explicitly
    /// (`cargo test -p forust-obs --release -- --ignored overhead`);
    /// excluded from the default run because it measures wall time.
    #[test]
    #[ignore = "perf gate, run explicitly in CI"]
    fn disabled_overhead_under_two_percent() {
        let _ = uninstall(); // disabled mode: no recorder on this thread
        fn kernel(seed: u64) -> u64 {
            // ~1k ops of integer mixing, the scale of one fine-grained
            // instrumented phase body.
            let mut z = seed;
            for _ in 0..1000 {
                z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ seed;
            }
            z
        }
        let reps = 4000usize;
        let time_pass = |probed: bool| -> f64 {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for i in 0..reps {
                if probed {
                    let _g = span!("overhead_probe");
                    acc ^= kernel(i as u64);
                    // The full probe family on the disabled path: each
                    // must cost one relaxed load and nothing else.
                    histogram!("overhead_hist", acc & 0xFFFF);
                    gauge_set("overhead_gauge", acc);
                    step_mark(i as u64);
                } else {
                    acc ^= kernel(i as u64);
                }
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64()
        };
        // Warm up, then interleave measurement rounds and take the
        // minimum of each side: the min is the noise-robust estimator
        // here — scheduler preemption and frequency transitions only
        // ever add time, and a shared CI core adds a lot of it.
        time_pass(false);
        time_pass(true);
        let (mut base, mut probed) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..15 {
            base = base.min(time_pass(false));
            probed = probed.min(time_pass(true));
        }
        let (b, p) = (base, probed);
        let overhead = (p - b) / b;
        println!(
            "disabled-probe overhead: {:.3}% (base {b:.6}s probed {p:.6}s)",
            overhead * 100.0
        );
        assert!(
            overhead < 0.02,
            "disabled-mode span overhead {:.3}% exceeds the 2% budget",
            overhead * 100.0
        );
    }
}
