//! Deterministic fault injection: [`ChaosComm`] wraps any
//! [`Communicator`] and injects seeded, reproducible faults from a
//! [`FaultPlan`].
//!
//! The decorator sits on the *raw byte layer* (`send_bytes` /
//! `try_recv_bytes`), below the CRC32 framing that the typed helpers and
//! collectives apply — so an injected bit flip corrupts a framed
//! envelope, and the receiving rank *detects* it as a typed
//! [`CommError::Corrupt`](crate::CommError::Corrupt) instead of decoding
//! garbage. Three fault classes are supported:
//!
//! - **Delay/reordering**: a sent message is held back and released at
//!   this rank's next communication call, letting later sends (to other
//!   `(dest, tag)` keys) overtake it. FIFO order per `(source, dest,
//!   tag)` key is preserved, as MPI guarantees — a held message is
//!   flushed before any newer message with the same key is sent.
//! - **Corruption**: a single bit of the outgoing envelope is flipped.
//! - **Rank crash**: at the Nth communication call on a chosen rank, the
//!   rank panics with a [`RankCrashed`] payload, modelling process death
//!   mid-run. Surviving ranks observe it through the poison/deadline
//!   machinery of the transport.
//!
//! All randomness is drawn from a per-rank SplitMix64 stream seeded from
//! `FaultPlan::seed` and the rank index, and advanced only on sends — so
//! a given `(plan, program)` pair replays the exact same fault sequence
//! every run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::stats::TrafficStats;

/// A seeded, reproducible fault schedule for one SPMD run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of the per-rank fault streams.
    pub seed: u64,
    /// Probability that a sent message is held back and delivered at this
    /// rank's next communication call (reordering across tags).
    pub delay_prob: f64,
    /// Probability that a single bit of an outgoing envelope is flipped.
    pub corrupt_prob: f64,
    /// Probability that a *retransmitted* frame is corrupted again on its
    /// way back — the retransmit path is just as fault-exposed as the
    /// original send, so the reliable layer's bounded retry cap is a real
    /// bound, not a formality. [`FaultPlan::with_corruption`] sets this to
    /// the same probability; [`FaultPlan::with_retransmit_corruption`]
    /// overrides it independently (e.g. 1.0 to exhaust the cap, 0.0 to
    /// guarantee the first retry heals).
    pub retransmit_corrupt_prob: f64,
    /// If set, the given rank panics at its Nth communication call.
    pub crash: Option<CrashPoint>,
}

/// Where an injected rank crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The rank that dies.
    pub rank: usize,
    /// The 1-based communication call (send, receive, or barrier) at
    /// which it dies.
    pub at_call: u64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Enable message delay/reordering with the given per-message
    /// probability.
    pub fn with_delay(mut self, prob: f64) -> Self {
        self.delay_prob = prob;
        self
    }

    /// Enable single-bit corruption with the given per-message
    /// probability (applied to first sends *and* retransmissions).
    pub fn with_corruption(mut self, prob: f64) -> Self {
        self.corrupt_prob = prob;
        self.retransmit_corrupt_prob = prob;
        self
    }

    /// Set the retransmit-path corruption probability independently of
    /// the first-send probability.
    pub fn with_retransmit_corruption(mut self, prob: f64) -> Self {
        self.retransmit_corrupt_prob = prob;
        self
    }

    /// Crash `rank` at its `at_call`-th communication call (1-based).
    pub fn with_crash(mut self, rank: usize, at_call: u64) -> Self {
        self.crash = Some(CrashPoint { rank, at_call });
        self
    }
}

/// Panic payload of an injected rank crash.
/// [`run_spmd_with`](crate::run_spmd_with) resumes this payload (rather than a secondary
/// poison panic) on the caller, so recovery drivers can identify an
/// injected crash by downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankCrashed {
    /// The rank that was crashed.
    pub rank: usize,
    /// The communication call at which it was crashed.
    pub call: u64,
}

/// SplitMix64: tiny deterministic PRNG (no external crates).
#[derive(Debug)]
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `p` (consumes one draw even for p = 0 or 1,
    /// keeping streams aligned across plan variations).
    fn chance(&mut self, p: f64) -> bool {
        let draw = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        draw < p
    }
}

/// Which communication entry point a fault fired in. The crash clock
/// ticks at every site; delay and corruption can only fire on sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Send,
    TryRecv,
    Retransmit,
    Barrier,
}

/// Per-rank counts of injected faults, by kind and call site. Names
/// follow the observability counter convention `chaos.<kind>.<site>` so
/// [`ChaosComm::fault_counts`] can feed them straight into
/// `forust-obs` counters (this crate sits below the obs layer and
/// cannot call it directly).
#[derive(Debug, Default)]
struct FaultCounters {
    delay_send: AtomicU64,
    corrupt_send: AtomicU64,
    corrupt_retransmit: AtomicU64,
    crash_send: AtomicU64,
    crash_try_recv: AtomicU64,
    crash_retransmit: AtomicU64,
    crash_barrier: AtomicU64,
}

impl FaultCounters {
    fn crash_site(&self, site: Site) -> &AtomicU64 {
        match site {
            Site::Send => &self.crash_send,
            Site::TryRecv => &self.crash_try_recv,
            Site::Retransmit => &self.crash_retransmit,
            Site::Barrier => &self.crash_barrier,
        }
    }
}

/// A fault-injecting decorator around any [`Communicator`].
pub struct ChaosComm<C: Communicator> {
    inner: C,
    plan: FaultPlan,
    rng: Mutex<SplitMix64>,
    calls: AtomicU64,
    held: Mutex<VecDeque<(usize, u32, Vec<u8>)>>,
    faults: FaultCounters,
}

impl<C: Communicator> ChaosComm<C> {
    /// Wrap `inner`, injecting the faults described by `plan`.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        let stream = plan
            .seed
            .wrapping_add((inner.rank() as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        ChaosComm {
            inner,
            plan,
            rng: Mutex::new(SplitMix64(stream)),
            calls: AtomicU64::new(0),
            held: Mutex::new(VecDeque::new()),
            faults: FaultCounters::default(),
        }
    }

    /// Total communication calls (sends, receives, barriers) made by this
    /// rank so far — the clock that [`CrashPoint::at_call`] is measured
    /// on.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Faults fired so far on this rank, as `(name, count)` pairs named
    /// `chaos.<kind>.<site>` (e.g. `chaos.corrupt.send`,
    /// `chaos.crash.barrier`). Only nonzero counters are returned; the
    /// order is fixed. The names match the observability counter
    /// convention, so callers can forward them verbatim:
    /// `for (name, n) in chaos.fault_counts() { obs::counter_add(name, n); }`
    pub fn fault_counts(&self) -> Vec<(&'static str, u64)> {
        let f = &self.faults;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            ("chaos.delay.send", load(&f.delay_send)),
            ("chaos.corrupt.send", load(&f.corrupt_send)),
            ("chaos.corrupt.retransmit", load(&f.corrupt_retransmit)),
            ("chaos.crash.send", load(&f.crash_send)),
            ("chaos.crash.try_recv", load(&f.crash_try_recv)),
            ("chaos.crash.retransmit", load(&f.crash_retransmit)),
            ("chaos.crash.barrier", load(&f.crash_barrier)),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect()
    }

    /// Advance the call clock and fire a scheduled crash.
    fn on_call(&self, site: Site) -> u64 {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cp) = self.plan.crash {
            if cp.rank == self.inner.rank() && call == cp.at_call {
                self.faults.crash_site(site).fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(RankCrashed {
                    rank: cp.rank,
                    call,
                });
            }
        }
        call
    }

    /// Release every held message, in hold order.
    fn flush_held(&self) {
        let drained: Vec<_> = {
            let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
            held.drain(..).collect()
        };
        for (dest, tag, data) in drained {
            self.inner.send_bytes(dest, tag, data);
        }
    }
}

impl<C: Communicator> Communicator for ChaosComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_bytes(&self, dest: usize, tag: u32, mut data: Vec<u8>) {
        self.on_call(Site::Send);
        let delay = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            let corrupt = rng.chance(self.plan.corrupt_prob);
            let delay = rng.chance(self.plan.delay_prob);
            let bitpos = if corrupt && !data.is_empty() {
                Some((rng.next() as usize % data.len(), (rng.next() % 8) as u8))
            } else {
                None
            };
            if let Some((byte, bit)) = bitpos {
                data[byte] ^= 1 << bit;
                self.faults.corrupt_send.fetch_add(1, Ordering::Relaxed);
            }
            if delay {
                self.faults.delay_send.fetch_add(1, Ordering::Relaxed);
            }
            delay
        };
        // Preserve FIFO per (dest, tag): a newer message must never
        // overtake a held one with the same key.
        let same_key_held = {
            let held = self.held.lock().unwrap_or_else(|e| e.into_inner());
            held.iter().any(|&(d, t, _)| (d, t) == (dest, tag))
        };
        if same_key_held {
            self.flush_held();
        }
        if delay {
            self.held
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back((dest, tag, data));
        } else {
            self.inner.send_bytes(dest, tag, data);
        }
    }

    fn try_recv_bytes(&self, src: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        self.on_call(Site::TryRecv);
        self.flush_held();
        self.inner.try_recv_bytes(src, tag)
    }

    fn barrier(&self) {
        self.on_call(Site::Barrier);
        self.flush_held();
        self.inner.barrier();
    }

    fn stats(&self) -> &TrafficStats {
        self.inner.stats()
    }

    fn record_frame(&self, dest: usize, tag: u32, seq: u64, framed: &[u8]) {
        // The retained copy is the sender's durable outbox: it is what a
        // retransmission replays, so it must stay pristine. Faults hit
        // the wire copies (send_bytes above, fetch_retransmit below),
        // never the log.
        self.inner.record_frame(dest, tag, seq, framed)
    }

    fn fetch_retransmit(&self, src: usize, tag: u32, seq: u64) -> Option<Vec<u8>> {
        // A retransmission is a communication call like any other: the
        // crash clock ticks, held messages flush, and the replayed frame
        // is corruptible again — so the reliable layer's bounded retry
        // cap can genuinely be exhausted.
        self.on_call(Site::Retransmit);
        self.flush_held();
        let mut bytes = self.inner.fetch_retransmit(src, tag, seq)?;
        let bitpos = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            let corrupt = rng.chance(self.plan.retransmit_corrupt_prob);
            if corrupt && !bytes.is_empty() {
                Some((rng.next() as usize % bytes.len(), (rng.next() % 8) as u8))
            } else {
                None
            }
        };
        if let Some((byte, bit)) = bitpos {
            bytes[byte] ^= 1 << bit;
            self.faults
                .corrupt_retransmit
                .fetch_add(1, Ordering::Relaxed);
        }
        Some(bytes)
    }
}

impl<C: Communicator> Drop for ChaosComm<C> {
    fn drop(&mut self) {
        // Deliver anything still held so a benign (fault-free) run never
        // loses messages; skip during unwinding, where peers are already
        // being torn down and a second panic would abort the process.
        if !std::thread::panicking() {
            self.flush_held();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::{run_spmd_with, ThreadComm};
    use std::time::Duration;

    fn chaos_run<R: Send>(
        p: usize,
        plan: FaultPlan,
        f: impl Fn(&ChaosComm<ThreadComm>) -> R + Sync,
    ) -> Vec<R> {
        let deadline = Some(Duration::from_secs(5));
        run_spmd_with(p, deadline, move |c| ChaosComm::new(c, plan.clone()), f)
    }

    #[test]
    fn corruption_is_always_detected_never_consumed() {
        // Every message gets one flipped bit; across 32 seeds the typed
        // error must name the faulty (src, tag) in 100% of trials.
        for seed in 0..32 {
            let plan = FaultPlan::new(seed).with_corruption(1.0);
            let results = chaos_run(2, plan, |c| {
                if c.rank() == 0 {
                    c.send(1, 7, &[seed, 2, 3]);
                    (None, c.fault_counts())
                } else {
                    (Some(c.try_recv::<u64>(0, 7)), c.fault_counts())
                }
            });
            // The sender fired exactly one corruption fault; the
            // receiver (which only receives) fired none.
            assert_eq!(results[0].1, vec![("chaos.corrupt.send", 1)]);
            assert_eq!(results[1].1, Vec::<(&str, u64)>::new());
            let err = results[1].0.clone().unwrap().unwrap_err();
            assert_eq!(err.key(), (0, 7), "seed {seed}: wrong key in {err}");
            assert!(
                matches!(err, CommError::Corrupt { .. } | CommError::Truncated { .. }),
                "seed {seed}: {err:?}"
            );
        }
    }

    #[test]
    fn delayed_messages_reorder_but_collectives_survive() {
        // With every message held back one call, the collectives must
        // still complete and produce correct results: the mailbox absorbs
        // the reordering.
        for seed in [1u64, 9, 42] {
            let plan = FaultPlan::new(seed).with_delay(0.7);
            let sums = chaos_run(4, plan, |c| {
                let mut acc = 0u64;
                for i in 0..10 {
                    acc += c.allreduce_sum_u64(i + c.rank() as u64);
                }
                c.barrier();
                acc
            });
            assert!(
                sums.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: {sums:?}"
            );
        }
    }

    #[test]
    fn delay_preserves_fifo_per_key() {
        let plan = FaultPlan::new(3).with_delay(1.0);
        let results = chaos_run(2, plan, |c| {
            if c.rank() == 0 {
                for i in 0..20u64 {
                    c.send(1, 1, &[i]);
                }
                c.barrier();
                // With delay probability 1 every one of the 20 sends
                // fired a delay fault.
                assert_eq!(c.fault_counts(), vec![("chaos.delay.send", 20)]);
                Vec::new()
            } else {
                // Messages on one (src, tag) key must arrive in order even
                // though every send was held back.
                let got: Vec<u64> = (0..20).map(|_| c.recv::<u64>(0, 1)[0]).collect();
                c.barrier();
                got
            }
        });
        assert_eq!(results[1], (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn fault_counts_split_by_kind_and_site() {
        // Both kinds at probability 1: every send fires one delay and
        // one corruption; receives and barriers fire nothing.
        let plan = FaultPlan::new(5).with_delay(1.0).with_corruption(1.0);
        let counts = chaos_run(2, plan, |c| {
            if c.rank() == 0 {
                for i in 0..4u8 {
                    c.send_bytes(1, 1, vec![i; 8]);
                }
            } else {
                for _ in 0..4 {
                    let _ = c.try_recv_bytes(0, 1);
                }
            }
            c.barrier();
            c.fault_counts()
        });
        assert_eq!(
            counts[0],
            vec![("chaos.delay.send", 4), ("chaos.corrupt.send", 4)]
        );
        assert_eq!(counts[1], Vec::<(&str, u64)>::new());
    }

    #[test]
    fn crash_site_is_counted_before_the_panic() {
        // Crash rank 0 at its very first call, which is a barrier; the
        // site counter must be bumped before the panic unwinds.
        let plan = FaultPlan::new(0).with_crash(0, 1);
        let inner = ThreadComm::create(1).pop().unwrap();
        let chaos = ChaosComm::new(inner, plan);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos.barrier();
        }));
        assert!(caught.is_err());
        assert_eq!(chaos.fault_counts(), vec![("chaos.crash.barrier", 1)]);
    }

    #[test]
    fn crash_at_nth_call_is_reported_as_rank_crashed() {
        let plan = FaultPlan::new(0).with_crash(1, 3);
        let caught = std::panic::catch_unwind(|| {
            chaos_run(3, plan, |c| {
                let mut acc = 0u64;
                for i in 0..50 {
                    acc += c.allreduce_sum_u64(i);
                }
                acc
            });
        });
        let payload = caught.unwrap_err();
        let crash = payload
            .downcast_ref::<RankCrashed>()
            .expect("root-cause payload should be the injected crash");
        assert_eq!(crash.rank, 1);
        assert_eq!(crash.call, 3);
    }

    #[test]
    fn crash_fires_on_the_wait_side_of_a_split_exchange() {
        // Probe run (fault-free): measure rank 1's call clock right after
        // start_alltoallv_bytes returns, then schedule the crash one call
        // later — i.e. inside the wait()-side receives.
        let program = |c: &ChaosComm<ThreadComm>| {
            let outgoing: Vec<Vec<u8>> = (0..3).map(|d| vec![d as u8; 4]).collect();
            let pending = c.start_alltoallv_bytes(outgoing, 3);
            let after_start = c.calls();
            let incoming = pending.wait();
            (after_start, c.calls(), incoming)
        };
        let probe = chaos_run(3, FaultPlan::new(0), program);
        let (after_start, after_wait, _) = probe[1].clone();
        assert!(
            after_wait > after_start,
            "wait must advance the chaos call clock"
        );
        let plan = FaultPlan::new(0).with_crash(1, after_start + 1);
        let caught = std::panic::catch_unwind(|| {
            chaos_run(3, plan, program);
        });
        let payload = caught.unwrap_err();
        let crash = payload
            .downcast_ref::<RankCrashed>()
            .expect("root cause should be the injected wait-side crash");
        assert_eq!(crash.rank, 1);
        assert_eq!(crash.call, after_start + 1);
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let plan = FaultPlan::new(17);
        let results = chaos_run(3, plan, |c| {
            c.send((c.rank() + 1) % 3, 2, &[c.rank() as u64]);
            let prev = (c.rank() + 2) % 3;
            (c.recv::<u64>(prev, 2)[0], c.allgather(c.rank() as u32))
        });
        for (i, (from, all)) in results.iter().enumerate() {
            assert_eq!(*from, ((i + 2) % 3) as u64);
            assert_eq!(*all, vec![0, 1, 2]);
        }
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        // Same plan, same program → byte-identical fault behaviour: the
        // corrupted receive fails with the same error both times.
        let run = || {
            let plan = FaultPlan::new(99).with_corruption(0.5);
            chaos_run(2, plan, |c| {
                if c.rank() == 0 {
                    for i in 0..8u64 {
                        c.send(1, 1, &[i, i * i]);
                    }
                    Vec::new()
                } else {
                    (0..8)
                        .map(|_| c.try_recv::<u64>(0, 1).map_err(|e| e.key()))
                        .collect()
                }
            })
        };
        assert_eq!(run()[1], run()[1]);
    }
}
