//! # forust-resilience — solver-generic recovery supervisor
//!
//! The SC10 *Extreme-Scale AMR* pipeline runs for hours across hundreds of
//! thousands of cores; at that scale rank loss and link corruption are
//! expected events, not exceptions. This crate lifts the checkpoint/restart
//! driver that grew inside `forust-advect` into a solver-generic
//! supervisor:
//!
//! - [`Recoverable`] is the contract a solver experiment implements —
//!   build fresh, checkpoint (one CRC-framed segment blob per rank),
//!   restore from a set of those blobs, advance one unit, and produce a
//!   gathered, rank-count-independent final result. All three workspace
//!   experiments (advection dG, seismic dG, mantle Stokes cG) implement it.
//! - [`run_with_recovery`] launches SPMD attempts under an optional
//!   [`FaultPlan`], stacking [`ReliableComm`] *above* the fault layer so
//!   transient corruption heals in-band (NACK/retransmit), while crashes
//!   surface as panics that the supervisor catches; restarts — possibly on
//!   fewer ranks — resume from the newest checkpoint that validates.
//! - Checkpoints go to disk ([`write_dir`], one directory per epoch) or,
//!   with a [`BuddyStore`], nowhere but memory: at each checkpoint epoch
//!   every rank mirrors its segment to a partner rank (`(r+1) % p`) over a
//!   reserved tag, so a single-rank crash restores entirely from surviving
//!   memory. Both restore through the same [`Recoverable::restore`].
//!
//! Because every solver carries its cross-epoch state bitwise in the
//! checkpoint and rebuilds the rest by exact deterministic reductions, a
//! recovered run finishes bitwise identical to a fault-free run — the
//! property the chaos soak harness asserts.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use forust::forest::{read_dir, write_dir, CheckpointError};
use forust_comm::{
    run_spmd_with, ChaosComm, CommConfig, Communicator, FaultPlan, RankCrashed, ReliableComm,
    RetryPolicy, TAG_COLLECTIVE,
};

/// Reserved tag lane for buddy-checkpoint mirroring (below the collective,
/// ghost, halo, and assembly lanes).
pub const TAG_BUDDY: u32 = TAG_COLLECTIVE - 64;

/// Receive deadline of every attempt's transport: a wedged rank becomes a
/// diagnostic panic (and thus a restart) instead of a hang.
const DEADLINE: Duration = Duration::from_secs(60);

/// The contract between a solver experiment and the recovery supervisor.
///
/// Implementors are *experiment specs* (configuration + closures/fn
/// pointers), cheap to clone and shared across rank threads and restart
/// attempts; the associated [`Recoverable::Solver`] is the per-rank live
/// state. Units are whatever the solver advances by (RK steps, Picard
/// iterations); checkpoints are taken at unit boundaries.
pub trait Recoverable: Sync {
    /// Live per-rank solver state.
    type Solver;
    /// Gathered, rank-count-independent final product (what the bitwise
    /// oracle compares).
    type Final: Clone + Send + 'static;

    /// Fresh build on this communicator (no checkpoint found).
    fn build<C: Communicator>(&self, comm: &C) -> Self::Solver;
    /// Restore from the segment blobs of one checkpoint, in saved-rank
    /// order — read back from disk or from buddy memory. Collective; must
    /// fail identically on every rank for a given blob set.
    fn restore<C: Communicator>(
        &self,
        comm: &C,
        segments: &[Vec<u8>],
    ) -> Result<Self::Solver, CheckpointError>;
    /// This rank's checkpoint as one CRC-framed segment blob. Purely
    /// local.
    fn checkpoint_segment(&self, solver: &Self::Solver, saved_ranks: usize) -> Vec<u8>;
    /// Units completed so far (restored bitwise by the checkpoint).
    fn units_done(&self, solver: &Self::Solver) -> usize;
    /// Units the experiment runs to.
    fn total_units(&self) -> usize;
    /// Checkpoint cadence in units.
    fn checkpoint_every(&self) -> usize;
    /// Advance the solver by one unit. Collective.
    fn advance<C: Communicator>(&self, solver: &mut Self::Solver, comm: &C);
    /// Gather the final result (redundantly on every rank). Collective.
    fn finish<C: Communicator>(&self, solver: &Self::Solver, comm: &C) -> Self::Final;
}

/// One checkpoint epoch in the buddy store: for each saving rank `i`,
/// `primary[i]` is the segment held by `i` itself and `mirror[i]` the copy
/// held by its buddy `(i+1) % saved_ranks`. A rank's death wipes
/// everything *it* held — its own primary and the mirror it kept for its
/// predecessor — and the epoch stays restorable as long as one copy of
/// every segment survives.
struct BuddyEpoch {
    saved_ranks: usize,
    primary: Vec<Option<Vec<u8>>>,
    mirror: Vec<Option<Vec<u8>>>,
}

impl BuddyEpoch {
    /// One surviving copy of every segment, if there is one.
    fn copies(&self) -> Option<Vec<&Vec<u8>>> {
        (0..self.saved_ranks)
            .map(|i| self.primary[i].as_ref().or(self.mirror[i].as_ref()))
            .collect()
    }
}

/// Driver-side stand-in for the ranks' in-memory checkpoint copies.
///
/// Each rank keeps its own segments and its predecessor's mirrored ones
/// for the two newest restorable epochs, plus any newer epoch still being
/// mirrored — so a crash mid-mirror always finds a full fallback, and the
/// memory does not grow with the length of the run. Rank threads share
/// the driver's address space, so the store *is* that memory, and
/// [`BuddyStore::mark_dead`] models the loss of one rank's RAM. The
/// mirrored copy still travels over the communicator (tag [`TAG_BUDDY`])
/// so the fault/healing stack exercises the transfer.
#[derive(Default)]
pub struct BuddyStore {
    epochs: Mutex<HashMap<u64, BuddyEpoch>>,
}

impl BuddyStore {
    /// An empty store, shareable across attempts.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record what rank `rank` holds after the epoch-`epoch` mirror round:
    /// its own segment plus (on multi-rank runs) the copy received from
    /// its predecessor. Epochs older than the second-newest restorable
    /// one are dropped.
    fn put(
        &self,
        epoch: u64,
        saved_ranks: usize,
        rank: usize,
        own: Vec<u8>,
        mirrored: Option<(usize, Vec<u8>)>,
    ) {
        let mut epochs = self.epochs.lock().unwrap();
        let e = epochs.entry(epoch).or_insert_with(|| BuddyEpoch {
            saved_ranks,
            primary: vec![None; saved_ranks],
            mirror: vec![None; saved_ranks],
        });
        e.primary[rank] = Some(own);
        if let Some((from, seg)) = mirrored {
            e.mirror[from] = Some(seg);
        }
        let mut restorable: Vec<u64> = epochs
            .iter()
            .filter(|(_, e)| e.copies().is_some())
            .map(|(&n, _)| n)
            .collect();
        restorable.sort_unstable_by(|a, b| b.cmp(a));
        if let Some(&oldest_kept) = restorable.get(1) {
            epochs.retain(|&n, _| n >= oldest_kept);
        }
    }

    /// Model the death of `rank`: drop every copy it held, in every epoch.
    pub fn mark_dead(&self, rank: usize) {
        let mut epochs = self.epochs.lock().unwrap();
        for e in epochs.values_mut() {
            if rank < e.saved_ranks {
                e.primary[rank] = None;
                e.mirror[(rank + e.saved_ranks - 1) % e.saved_ranks] = None;
            }
        }
    }

    /// Epochs whose full segment set survives, newest first.
    pub fn epochs_newest_first(&self) -> Vec<(u64, Vec<Vec<u8>>)> {
        let epochs = self.epochs.lock().unwrap();
        let mut out: Vec<(u64, Vec<Vec<u8>>)> = epochs
            .iter()
            .filter_map(|(&n, e)| Some((n, e.copies()?.into_iter().cloned().collect())))
            .collect();
        out.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
        out
    }

    /// Total bytes currently held (diagnostic).
    pub fn bytes(&self) -> usize {
        let epochs = self.epochs.lock().unwrap();
        epochs
            .values()
            .flat_map(|e| e.primary.iter().chain(&e.mirror))
            .flatten()
            .map(Vec::len)
            .sum()
    }
}

/// Where a successful attempt got its starting state from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreSource {
    /// Fresh build, no checkpoint found.
    Fresh,
    /// Diskless restore from buddy segments of this epoch.
    Buddy(u64),
    /// Disk restore from this epoch's directory.
    Disk(u64),
}

/// Tuning of [`run_with_recovery_opts`].
#[derive(Clone)]
pub struct RecoveryOptions {
    /// SPMD launches before the last failure is resumed to the caller.
    pub max_attempts: usize,
    /// Diskless checkpointing: `Some` mirrors every checkpoint into this
    /// buddy memory and restores from it alone, never touching the
    /// checkpoint root; `None` writes one directory per epoch there.
    pub buddy: Option<Arc<BuddyStore>>,
    /// Where to write the crash post-mortem bundle. `Some(path)` turns
    /// the flight recorder on: every rank records spans/counters during
    /// attempts, deposits its last
    /// [`forust_obs::DEFAULT_FLIGHT_WINDOW_MS`] on a crash, and the
    /// supervisor writes the bundle when it catches an injected rank
    /// death.
    pub postmortem: Option<PathBuf>,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            max_attempts: 3,
            buddy: None,
            postmortem: None,
        }
    }
}

/// Outcome of [`run_with_recovery`].
#[derive(Debug, Clone)]
pub struct RecoveryOutcome<F> {
    /// The completed run's gathered result.
    pub result: F,
    /// SPMD launches needed (1 = no fault fired).
    pub attempts: usize,
    /// The injected crash that was caught, if any.
    pub injected_crash: Option<RankCrashed>,
    /// Where the final (successful) attempt restored from.
    pub restored_from: RestoreSource,
    /// Self-healing transport counters summed over all ranks and
    /// attempts (`comm.retry.*`).
    pub retry_counts: Vec<(&'static str, u64)>,
    /// Injected-fault counters summed over the chaos attempt's ranks
    /// (`chaos.*`).
    pub fault_counts: Vec<(&'static str, u64)>,
    /// Human-readable log of each failed attempt (names the dead peer).
    pub failures: Vec<String>,
}

/// Epoch subdirectories of the checkpoint root, newest first.
pub fn epochs_newest_first(root: &Path) -> Vec<(u64, PathBuf)> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(num) = name.strip_prefix("epoch_") {
                if let Ok(n) = num.parse::<u64>() {
                    found.push((n, e.path()));
                }
            }
        }
    }
    found.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
    found
}

/// One SPMD attempt: restore from the newest checkpoint that validates
/// (buddy memory with a [`BuddyStore`], the epoch directories under
/// `ckpt_root` without; fresh build if nothing validates), run to
/// completion with periodic checkpoints, and gather the final result.
pub fn attempt<C: Communicator, R: Recoverable>(
    comm: &C,
    exp: &R,
    ckpt_root: &Path,
    opts: &RecoveryOptions,
) -> (R::Final, RestoreSource) {
    // Every rank scans the same shared state with the same logic, so all
    // ranks agree on the pick without communicating.
    let found = match &opts.buddy {
        Some(store) => store
            .epochs_newest_first()
            .into_iter()
            .find_map(|(n, segments)| {
                let solver = exp.restore(comm, &segments).ok()?;
                Some((solver, RestoreSource::Buddy(n)))
            }),
        None => epochs_newest_first(ckpt_root)
            .into_iter()
            .find_map(|(n, dir)| {
                let solver = read_dir(&dir).and_then(|s| exp.restore(comm, &s)).ok()?;
                Some((solver, RestoreSource::Disk(n)))
            }),
    };
    let (mut solver, restored) = found.unwrap_or_else(|| (exp.build(comm), RestoreSource::Fresh));

    while exp.units_done(&solver) < exp.total_units() {
        exp.advance(&mut solver, comm);
        let done = exp.units_done(&solver);
        if done % exp.checkpoint_every() == 0 && done < exp.total_units() {
            let _span = forust_obs::span!("resilience.checkpoint");
            let own = exp.checkpoint_segment(&solver, comm.size());
            match &opts.buddy {
                Some(store) => mirror_segment(comm, store, done as u64, own),
                None => write_dir(comm, &ckpt_root.join(format!("epoch_{done}")), &own)
                    .unwrap_or_else(|e| panic!("rank {}: checkpoint failed: {e}", comm.rank())),
            }
        }
    }

    (exp.finish(&solver, comm), restored)
}

/// The buddy mirror round at one checkpoint epoch: send my segment to
/// `(r+1) % p`, receive my predecessor's, record both in the store. The
/// copy travels through the full communicator stack, so injected faults
/// hit it and the reliable layer heals it like any other traffic.
fn mirror_segment<C: Communicator>(comm: &C, store: &BuddyStore, epoch: u64, own: Vec<u8>) {
    let p = comm.size();
    let r = comm.rank();
    forust_obs::counter_add("resilience.buddy_bytes", own.len() as u64);
    let mirrored = if p > 1 {
        let partner = (r + 1) % p;
        comm.send(partner, TAG_BUDDY, &own);
        let from = (r + p - 1) % p;
        let seg: Vec<u8> = comm.recv(from, TAG_BUDDY);
        Some((from, seg))
    } else {
        None
    };
    store.put(epoch, p, r, own, mirrored);
}

/// Run an experiment under fault injection with checkpoint/restart
/// recovery, with default options (disk checkpoints, no post-mortem).
///
/// The first attempt launches `ranks` ranks, each wrapped in a
/// [`ChaosComm`] running `plan` underneath a [`ReliableComm`]; corruption
/// and delay heal in-band, crashes kill the attempt. If the run dies,
/// subsequent attempts launch `restart_ranks` ranks *without* fault
/// injection and resume from the newest valid checkpoint. Panics beyond
/// `max_attempts` launches are resumed to the caller.
pub fn run_with_recovery<R: Recoverable>(
    ranks: usize,
    restart_ranks: usize,
    plan: Option<FaultPlan>,
    ckpt_root: &Path,
    exp: &R,
    max_attempts: usize,
) -> RecoveryOutcome<R::Final> {
    let opts = RecoveryOptions {
        max_attempts,
        ..RecoveryOptions::default()
    };
    run_with_recovery_opts(ranks, restart_ranks, plan, ckpt_root, exp, &opts)
}

/// Per-rank product of one attempt: the result plus the healing/fault
/// counters harvested from that rank's communicator stack.
struct RankReport<F> {
    result: F,
    source: RestoreSource,
    retry: Vec<(&'static str, u64)>,
    faults: Vec<(&'static str, u64)>,
}

/// [`attempt`] wrapped in the crash flight recorder. When the options
/// carry a post-mortem path this installs a per-rank obs recorder for
/// the attempt, and on a panic — the rank's own injected crash, or the
/// deadline/peer-death panic a survivor hits once the victim is gone —
/// forwards the stack's counters (`on_crash`) and deposits the rank's
/// last flight window of spans and counters into the process-wide
/// flight store before resuming the unwind to the supervisor.
fn flight_guarded_attempt<C: Communicator, R: Recoverable>(
    comm: &C,
    exp: &R,
    ckpt_root: &Path,
    opts: &RecoveryOptions,
    on_crash: impl Fn(),
) -> (R::Final, RestoreSource) {
    if opts.postmortem.is_none() {
        return attempt(comm, exp, ckpt_root, opts);
    }
    let had_recorder = forust_obs::installed();
    if !had_recorder {
        forust_obs::install(comm.rank());
    }
    let out = catch_unwind(AssertUnwindSafe(|| attempt(comm, exp, ckpt_root, opts)));
    match out {
        Ok(v) => {
            if !had_recorder {
                forust_obs::uninstall();
            }
            v
        }
        Err(payload) => {
            on_crash();
            forust_obs::flight_deposit(forust_obs::DEFAULT_FLIGHT_WINDOW_MS);
            if !had_recorder {
                forust_obs::uninstall();
            }
            resume_unwind(payload)
        }
    }
}

fn forward_counter_pairs(pairs: &[(&'static str, u64)]) {
    for &(k, v) in pairs {
        forust_obs::counter_add(k, v);
    }
}

/// Assemble and write the post-mortem bundle for one caught crash: the
/// supervisor (the driver thread — the stand-in for rank 0, exactly as
/// with [`BuddyStore`]) pairs the drained flight dumps with the crash
/// payload and the newest checkpoint epoch still available for restore.
/// A write failure is reported, not fatal — the recovery itself must
/// proceed regardless.
fn write_crash_postmortem(
    path: &Path,
    rc: &RankCrashed,
    attempt_idx: usize,
    ckpt_root: &Path,
    opts: &RecoveryOptions,
    dumps: Vec<forust_obs::FlightDump>,
) {
    let newest_epoch = match &opts.buddy {
        Some(store) => store.epochs_newest_first().first().map(|&(n, _)| n),
        None => epochs_newest_first(ckpt_root).first().map(|&(n, _)| n),
    };
    let pm = forust_obs::postmortem::Postmortem {
        dead_rank: rc.rank,
        dead_call: format!("call {}", rc.call),
        attempt: attempt_idx,
        checkpoint_epoch: newest_epoch,
        window_ms: forust_obs::DEFAULT_FLIGHT_WINDOW_MS,
        ranks: dumps,
    };
    if let Err(e) = forust_obs::postmortem::write_postmortem(path, &pm) {
        eprintln!("recovery: failed to write post-mortem bundle {path:?}: {e}");
    }
}

/// [`run_with_recovery`] with full control over checkpoint placement,
/// buddy memory and the post-mortem bundle.
///
/// Every attempt runs on one stack, `ReliableComm<ChaosComm<ThreadComm>>`
/// under the default [`RetryPolicy`]: the first with `plan`, restarts with
/// the empty [`FaultPlan`], under which the chaos layer is a pass-through.
pub fn run_with_recovery_opts<R: Recoverable>(
    ranks: usize,
    restart_ranks: usize,
    plan: Option<FaultPlan>,
    ckpt_root: &Path,
    exp: &R,
    opts: &RecoveryOptions,
) -> RecoveryOutcome<R::Final> {
    let mut attempts = 0;
    let mut injected_crash = None;
    let mut failures = Vec::new();
    let mut retry_sum: HashMap<&'static str, u64> = HashMap::new();
    let mut fault_sum: HashMap<&'static str, u64> = HashMap::new();
    loop {
        attempts += 1;
        let first = attempts == 1;
        let p = if first { ranks } else { restart_ranks };
        let _recover_span = if first {
            None
        } else {
            Some(forust_obs::span!("comm.recover"))
        };
        let faults = match (first, &plan) {
            (true, Some(plan)) => plan.clone(),
            _ => FaultPlan::default(),
        };
        let run = catch_unwind(AssertUnwindSafe(|| -> Vec<RankReport<R::Final>> {
            run_spmd_with(
                p,
                CommConfig::with_deadline(DEADLINE),
                move |tc| {
                    ReliableComm::new(ChaosComm::new(tc, faults.clone()), RetryPolicy::default())
                },
                |comm| {
                    let (result, source) =
                        flight_guarded_attempt(comm, exp, ckpt_root, opts, || {
                            forward_counter_pairs(&comm.retry_counts());
                            forust_obs::histogram_merge(
                                "comm.retry.heal_us",
                                &comm.retry_latency_buckets(),
                            );
                            forward_counter_pairs(&comm.inner().fault_counts());
                        });
                    RankReport {
                        result,
                        source,
                        retry: comm.retry_counts(),
                        faults: comm.inner().fault_counts(),
                    }
                },
            )
        }));
        match run {
            Ok(mut reports) => {
                for rep in &reports {
                    for &(k, v) in &rep.retry {
                        *retry_sum.entry(k).or_default() += v;
                    }
                    for &(k, v) in &rep.faults {
                        *fault_sum.entry(k).or_default() += v;
                    }
                }
                let rep = reports.swap_remove(0);
                let mut retry_counts: Vec<_> = retry_sum.into_iter().collect();
                retry_counts.sort();
                let mut fault_counts: Vec<_> = fault_sum.into_iter().collect();
                fault_counts.sort();
                for &(k, v) in &retry_counts {
                    forust_obs::counter_add(k, v);
                }
                for &(k, v) in &fault_counts {
                    forust_obs::counter_add(k, v);
                }
                return RecoveryOutcome {
                    result: rep.result,
                    attempts,
                    injected_crash,
                    restored_from: rep.source,
                    retry_counts,
                    fault_counts,
                    failures,
                };
            }
            Err(payload) => {
                // Drain the flight store in every failure case so one
                // attempt's dumps never leak into the next crash.
                let dumps = forust_obs::flight_take_all();
                let why = if let Some(rc) = payload.downcast_ref::<RankCrashed>() {
                    injected_crash = Some(*rc);
                    if let Some(store) = &opts.buddy {
                        store.mark_dead(rc.rank);
                    }
                    if let Some(path) = &opts.postmortem {
                        write_crash_postmortem(path, rc, attempts - 1, ckpt_root, opts, dumps);
                    }
                    format!("rank {} crashed at communication call {}", rc.rank, rc.call)
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else {
                    "opaque panic payload".to_string()
                };
                let line = format!(
                    "recovery: attempt {attempts} on {p} ranks failed ({why}); \
                     restarting on {restart_ranks} ranks"
                );
                eprintln!("{line}");
                forust_obs::counter_add("resilience.attempts_failed", 1);
                failures.push(line);
                if attempts >= opts.max_attempts {
                    resume_unwind(payload);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Populate one epoch the way a 3-rank mirror round would: rank r
    /// stores its own segment and the copy received from (r+p-1)%p.
    fn fill_epoch(store: &BuddyStore, epoch: u64, p: usize) {
        for r in 0..p {
            let pred = (r + p - 1) % p;
            store.put(
                epoch,
                p,
                r,
                vec![r as u8; 4],
                Some((pred, vec![pred as u8; 4])),
            );
        }
    }

    #[test]
    fn epoch_survives_single_rank_death() {
        let store = BuddyStore::new();
        fill_epoch(&store, 4, 3);

        // Rank 1 dies: loses primary[1] and the mirror it held for rank 0.
        store.mark_dead(1);
        let epochs = store.epochs_newest_first();
        assert_eq!(epochs.len(), 1);
        let (n, segs) = &epochs[0];
        assert_eq!(*n, 4);
        assert_eq!(segs.len(), 3);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s, &vec![i as u8; 4], "segment {i} corrupted or misplaced");
        }
    }

    #[test]
    fn epoch_dies_when_both_copies_of_a_segment_are_lost() {
        let store = BuddyStore::new();
        fill_epoch(&store, 4, 3);

        // Rank 1's segment lives as primary[1] (on rank 1) and mirror[1]
        // (on rank 2). Killing both ranks loses both copies.
        store.mark_dead(1);
        store.mark_dead(2);
        assert!(store.epochs_newest_first().is_empty());
    }

    #[test]
    fn single_rank_store_cannot_survive_its_only_rank() {
        let store = BuddyStore::new();
        store.put(7, 1, 0, vec![1, 2, 3], None);
        assert_eq!(store.epochs_newest_first().len(), 1);
        store.mark_dead(0);
        assert!(store.epochs_newest_first().is_empty());
    }

    #[test]
    fn epochs_sorted_newest_first_and_partial_epochs_skipped() {
        let store = BuddyStore::new();
        fill_epoch(&store, 2, 3);
        fill_epoch(&store, 5, 3);
        // Epoch 7 only has rank 0's contribution: rank 2's segment has no
        // surviving copy, so the epoch must not be offered for restore.
        store.put(7, 3, 0, vec![0; 4], Some((2, vec![2; 4])));
        store.mark_dead(2);

        let epochs: Vec<u64> = store
            .epochs_newest_first()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(epochs, vec![5, 2]);
    }

    #[test]
    fn store_keeps_two_newest_complete_epochs() {
        // A long run must not grow its diskless checkpoint memory: after
        // six complete epochs the store holds two epochs' worth (3 ranks ×
        // (primary + mirror) × 4 bytes each).
        let store = BuddyStore::new();
        for epoch in 1..=6 {
            fill_epoch(&store, epoch, 3);
        }
        assert_eq!(store.bytes(), 2 * 24);
        let kept: Vec<u64> = store
            .epochs_newest_first()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(kept, vec![6, 5]);
        // An epoch still being mirrored keeps both complete fallbacks.
        store.put(7, 3, 0, vec![0; 4], Some((2, vec![2; 4])));
        assert_eq!(store.bytes(), 2 * 24 + 8);
        store.mark_dead(0);
        let kept: Vec<u64> = store
            .epochs_newest_first()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(kept, vec![6, 5]);
    }

    #[test]
    fn bytes_accounts_for_all_copies() {
        let store = BuddyStore::new();
        fill_epoch(&store, 1, 2);
        // 2 primaries + 2 mirrors, 4 bytes each.
        assert_eq!(store.bytes(), 16);
        store.mark_dead(0);
        assert_eq!(store.bytes(), 8);
    }
}
