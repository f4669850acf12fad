//! Self-healing transport: [`ReliableComm`] wraps any [`Communicator`]
//! and turns *detected* integrity failures into transparent, bounded
//! NACK/retransmit rounds.
//!
//! ## Protocol
//!
//! Every framed message is stamped with a per-`(sender, receiver, tag)`
//! sequence number before the CRC32 envelope is applied:
//!
//! ```text
//! [ crc32 | seq: u64 LE | payload ]
//! ```
//!
//! The sender retains a pristine copy of each sequenced frame in the
//! transport's replay log ([`Communicator::record_frame`]) before the
//! wire copy is exposed to faults. A receiver that unframes a broken or
//! out-of-sequence message enters the heal loop:
//!
//! ```text
//!          ┌────────────────────────────────────────────────┐
//!          ▼                                                │
//!   receive frame ──CRC ok, seq == expected──▶ deliver      │
//!          │                                                │
//!    CRC bad / seq mismatch                                 │
//!          │                                                │
//!          ▼                                                │
//!   attempt < MAX_ATTEMPTS? ──no──▶ return original error   │
//!          │ yes                    (comm.retry.exhausted)  │
//!          ▼                                                │
//!   seeded backoff, fetch_retransmit(src, tag, expected) ───┘
//!   (comm.retry.requested; the replayed copy is itself
//!    fault-exposed — see ChaosComm::fetch_retransmit)
//! ```
//!
//! In a networked transport the re-request would be a NACK control
//! message; the thread-backed transport models it as a pull from the
//! shared replay log, which has identical failure semantics because the
//! fault decorator interposes on the pull.
//!
//! The protocol has no knobs: at most 8 requests per broken receive,
//! attempt `n` backing off `n × 20 µs` plus a jitter in `[0, 20 µs)` drawn
//! from a per-rank stream of seed 0.
//!
//! ## Deadlines
//!
//! The reliable layer has none of its own. Every receive — blocking or the
//! `wait()` side of a split-phase exchange — is *one* transport call, so
//! it runs under the transport's receive deadline
//! ([`ThreadComm::create_with`](crate::ThreadComm::create_with)) and a
//! [`ChaosComm`](crate::ChaosComm) crash clock underneath ticks with the
//! program alone, never with wall-clock time.
//!
//! ## Counters
//!
//! Healing activity is exported two ways: per-tag retransmit counts land in the transport's [`TrafficStats`], and protocol-level
//! counts are exposed by [`ReliableComm::retry_counts`] under the
//! observability names `comm.retry.*` (this crate sits below the obs
//! layer and cannot call it directly — drivers forward the pairs
//! verbatim, exactly like `ChaosComm::fault_counts`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::chaos::SplitMix64;
use crate::communicator::Communicator;
use crate::error::CommError;
use crate::stats::TrafficStats;
use crate::wire::{frame, unframe};

/// Log2 bucket count of the heal-latency histogram; matches
/// `forust_obs::HIST_BUCKETS` (bucket 0 holds 0, bucket `b >= 1` holds
/// `[2^(b-1), 2^b)`), so drivers can forward the buckets verbatim via
/// `obs::histogram_merge`.
pub const LATENCY_BUCKETS: usize = 65;

fn log2_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Protocol-level healing counters, named for the observability layer.
#[derive(Debug)]
struct RetryCounters {
    /// Broken receives (CRC failure or sequence mismatch) detected.
    detected: AtomicU64,
    /// Retransmission requests issued.
    requested: AtomicU64,
    /// Broken receives healed by a valid retransmission.
    healed: AtomicU64,
    /// Broken receives abandoned after [`MAX_ATTEMPTS`] requests.
    exhausted: AtomicU64,
    /// Wall-clock of each completed heal loop (healed or exhausted),
    /// log2-bucketed microseconds.
    heal_us: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for RetryCounters {
    fn default() -> Self {
        RetryCounters {
            detected: AtomicU64::new(0),
            requested: AtomicU64::new(0),
            healed: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            heal_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Retransmission requests per broken receive before the original error
/// is surfaced.
const MAX_ATTEMPTS: u32 = 8;

/// Base backoff between retransmission requests: attempt `n` waits
/// `n * BACKOFF` plus a seeded jitter in `[0, BACKOFF)`.
const BACKOFF: Duration = Duration::from_micros(20);

/// Seed of the backoff-jitter stream (per-rank streams derive from it, so
/// runs are reproducible).
const JITTER_SEED: u64 = 0;

/// A self-healing decorator around any [`Communicator`].
///
/// Stacks *above* a fault decorator: `ReliableComm<ChaosComm<ThreadComm>>`
/// heals the faults the chaos layer injects below it.
pub struct ReliableComm<C: Communicator> {
    inner: C,
    /// Next sequence number per outgoing `(dest, tag)` link.
    tx_seq: Mutex<HashMap<(usize, u32), u64>>,
    /// Next expected sequence number per incoming `(src, tag)` link.
    rx_seq: Mutex<HashMap<(usize, u32), u64>>,
    rng: Mutex<SplitMix64>,
    retries: RetryCounters,
}

impl<C: Communicator> ReliableComm<C> {
    /// Wrap `inner` with the retransmit protocol.
    pub fn new(inner: C) -> Self {
        let stream =
            JITTER_SEED.wrapping_add((inner.rank() as u64 + 1).wrapping_mul(0x9E6C_63D0_876A_3F35));
        ReliableComm {
            inner,
            tx_seq: Mutex::new(HashMap::new()),
            rx_seq: Mutex::new(HashMap::new()),
            rng: Mutex::new(SplitMix64(stream)),
            retries: RetryCounters::default(),
        }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Healing activity so far on this rank, as `(name, count)` pairs
    /// named `comm.retry.<event>`. Only nonzero counters are returned;
    /// the order is fixed. Names match the observability counter
    /// convention so callers can forward them verbatim:
    /// `for (name, n) in comm.retry_counts() { obs::counter_add(name, n); }`
    pub fn retry_counts(&self) -> Vec<(&'static str, u64)> {
        let r = &self.retries;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            ("comm.retry.detected", load(&r.detected)),
            ("comm.retry.requested", load(&r.requested)),
            ("comm.retry.healed", load(&r.healed)),
            ("comm.retry.exhausted", load(&r.exhausted)),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect()
    }

    /// Wall-clock distribution of completed heal loops as log2-bucketed
    /// microsecond counts (layout of `LATENCY_BUCKETS`). Like
    /// [`retry_counts`](Self::retry_counts) this cannot reach the obs
    /// layer from here; drivers forward it:
    /// `obs::histogram_merge("comm.retry.heal_us", &comm.retry_latency_buckets())`.
    pub fn retry_latency_buckets(&self) -> Vec<u64> {
        self.retries
            .heal_us
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn bump(a: &AtomicU64) {
        a.fetch_add(1, Ordering::Relaxed);
    }

    fn record_heal_latency(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.retries.heal_us[log2_bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Allocate the next sequence number of the `(dest, tag)` link.
    fn next_tx_seq(&self, dest: usize, tag: u32) -> u64 {
        let mut tx = self.tx_seq.lock().unwrap_or_else(|e| e.into_inner());
        let slot = tx.entry((dest, tag)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// The sequence number the next frame from `(src, tag)` must carry.
    fn expected_rx_seq(&self, src: usize, tag: u32) -> u64 {
        *self
            .rx_seq
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry((src, tag))
            .or_insert(0)
    }

    fn advance_rx_seq(&self, src: usize, tag: u32) {
        *self
            .rx_seq
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry((src, tag))
            .or_insert(0) += 1;
    }

    /// Unframe a raw wire message and split off its sequence stamp.
    fn validate(&self, src: usize, tag: u32, raw: &[u8]) -> Result<(u64, Vec<u8>), CommError> {
        let body = unframe(raw).map_err(|e| CommError::bad_frame(src, tag, e))?;
        if body.len() < 8 {
            // CRC-valid but too short to carry a sequence stamp: a peer
            // is not speaking the sequenced protocol.
            return Err(CommError::Decode { src, tag });
        }
        let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
        Ok((seq, body[8..].to_vec()))
    }

    /// Sleep `attempt * BACKOFF` plus seeded jitter, modelling the NACK
    /// round trip.
    fn backoff(&self, attempt: u32) {
        let jitter_ns = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            rng.next() % BACKOFF.as_nanos() as u64
        };
        std::thread::sleep(BACKOFF * attempt + Duration::from_nanos(jitter_ns));
    }

    /// The heal loop: bounded retransmission requests for the frame
    /// `(src, tag, expected)`, returning its payload or the original
    /// receive error once the cap is exhausted (or the frame has left the
    /// sender's replay window).
    fn heal(
        &self,
        src: usize,
        tag: u32,
        expected: u64,
        original: CommError,
    ) -> Result<Vec<u8>, CommError> {
        Self::bump(&self.retries.detected);
        let heal_start = Instant::now();
        for attempt in 1..=MAX_ATTEMPTS {
            Self::bump(&self.retries.requested);
            self.backoff(attempt);
            let Some(raw) = self.inner.fetch_retransmit(src, tag, expected) else {
                // No retained copy: the corruption is fatal.
                Self::bump(&self.retries.exhausted);
                self.record_heal_latency(heal_start.elapsed());
                return Err(original);
            };
            self.inner.stats().record_retransmit(tag, raw.len());
            if let Ok((seq, payload)) = self.validate(src, tag, &raw) {
                if seq == expected {
                    Self::bump(&self.retries.healed);
                    self.record_heal_latency(heal_start.elapsed());
                    return Ok(payload);
                }
            }
        }
        Self::bump(&self.retries.exhausted);
        self.record_heal_latency(heal_start.elapsed());
        Err(original)
    }

    /// Validate a received wire message against the expected sequence
    /// number, healing through the retransmit protocol on failure.
    fn sequenced_receive(&self, src: usize, tag: u32, raw: Vec<u8>) -> Result<Vec<u8>, CommError> {
        let expected = self.expected_rx_seq(src, tag);
        let outcome = match self.validate(src, tag, &raw) {
            Ok((seq, payload)) if seq == expected => Ok(payload),
            // CRC-valid but out of sequence: the link lost FIFO order (a
            // protocol violation on this transport) — re-request the
            // frame we actually need.
            Ok(_) => self.heal(src, tag, expected, CommError::Decode { src, tag }),
            Err(e) => self.heal(src, tag, expected, e),
        };
        if outcome.is_ok() {
            self.advance_rx_seq(src, tag);
        }
        outcome
    }
}

impl<C: Communicator> Communicator for ReliableComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_bytes(&self, dest: usize, tag: u32, data: Vec<u8>) {
        // Raw (unframed) traffic bypasses the sequenced protocol — only
        // framed messages carry stamps, and both ends of a link wear the
        // decorator symmetrically.
        self.inner.send_bytes(dest, tag, data);
    }

    fn try_recv_bytes(&self, src: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        self.inner.try_recv_bytes(src, tag)
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn stats(&self) -> &TrafficStats {
        self.inner.stats()
    }

    fn record_frame(&self, dest: usize, tag: u32, seq: u64, framed: &[u8]) {
        self.inner.record_frame(dest, tag, seq, framed)
    }

    fn fetch_retransmit(&self, src: usize, tag: u32, seq: u64) -> Option<Vec<u8>> {
        self.inner.fetch_retransmit(src, tag, seq)
    }

    fn send_framed(&self, dest: usize, tag: u32, payload: &[u8]) {
        let seq = self.next_tx_seq(dest, tag);
        let mut body = Vec::with_capacity(8 + payload.len());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(payload);
        let framed = frame(&body);
        // Retain the pristine copy *before* the wire copy is exposed to
        // faults: the replay log is the sender's durable outbox.
        self.inner.record_frame(dest, tag, seq, &framed);
        self.inner.send_bytes(dest, tag, framed);
    }

    fn try_recv_framed(&self, src: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        let raw = self.inner.try_recv_bytes(src, tag)?;
        self.sequenced_receive(src, tag, raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosComm, FaultPlan};
    use crate::thread::{run_spmd_with, ThreadComm};

    type Stack = ReliableComm<ChaosComm<ThreadComm>>;

    fn reliable_run<R: Send>(
        p: usize,
        deadline: Duration,
        plan: FaultPlan,
        f: impl Fn(&Stack) -> R + Sync,
    ) -> Vec<R> {
        run_spmd_with(
            p,
            Some(deadline),
            move |c| ReliableComm::new(ChaosComm::new(c, plan.clone())),
            f,
        )
    }

    const DEADLINE: Duration = Duration::from_secs(5);

    #[test]
    fn fault_free_traffic_is_transparent() {
        let results = reliable_run(3, DEADLINE, FaultPlan::new(0), |c| {
            let next = (c.rank() + 1) % 3;
            let prev = (c.rank() + 2) % 3;
            c.send(next, 2, &[c.rank() as u64]);
            let from_prev = c.recv::<u64>(prev, 2)[0];
            let sum = c.allreduce_sum_u64(c.rank() as u64 + 1);
            let gathered = c.allgather(c.rank() as u32);
            (from_prev, sum, gathered, c.retry_counts())
        });
        for (i, (from_prev, sum, gathered, retries)) in results.into_iter().enumerate() {
            assert_eq!(from_prev, ((i + 2) % 3) as u64);
            assert_eq!(sum, 6);
            assert_eq!(gathered, vec![0, 1, 2]);
            assert!(retries.is_empty(), "rank {i}: {retries:?}");
        }
    }

    #[test]
    fn corruption_heals_via_retransmit() {
        // Every first send is corrupted; retransmissions are clean, so a
        // single NACK round must heal every message.
        for seed in 0..8 {
            let plan = FaultPlan::new(seed)
                .with_corruption(1.0)
                .with_retransmit_corruption(0.0);
            let results = reliable_run(2, DEADLINE, plan, |c| {
                if c.rank() == 0 {
                    c.send(1, 7, &[seed, 2, 3]);
                    c.barrier();
                    (None, Vec::new(), 0)
                } else {
                    let got = c.try_recv::<u64>(0, 7);
                    c.barrier();
                    let retrans = c.stats().snapshot().retrans_msgs;
                    (Some(got), c.retry_counts(), retrans)
                }
            });
            let (got, retries, retrans) = results[1].clone();
            assert_eq!(got.unwrap().unwrap(), vec![seed, 2, 3], "seed {seed}");
            assert_eq!(
                retries,
                vec![
                    ("comm.retry.detected", 1),
                    ("comm.retry.requested", 1),
                    ("comm.retry.healed", 1),
                ],
                "seed {seed}"
            );
            assert_eq!(retrans, 1, "seed {seed}");
        }
    }

    #[test]
    fn retry_cap_exhaustion_surfaces_original_error() {
        // Retransmissions are corrupted too: the bounded cap must be
        // exhausted and the original typed error surfaced, with the
        // chaos layer counting every corrupted replay.
        let plan = FaultPlan::new(11).with_corruption(1.0);
        let results = reliable_run(2, DEADLINE, plan, |c| {
            if c.rank() == 0 {
                c.send(1, 4, &[5u64]);
                c.barrier();
                (None, Vec::new(), Vec::new())
            } else {
                let got = c.try_recv::<u64>(0, 4);
                c.barrier();
                (Some(got), c.retry_counts(), c.inner().fault_counts())
            }
        });
        let (got, retries, faults) = results[1].clone();
        let err = got.unwrap().unwrap_err();
        assert!(
            matches!(err, CommError::Corrupt { .. } | CommError::Truncated { .. }),
            "{err:?}"
        );
        assert_eq!(err.key(), (0, 4));
        assert_eq!(
            retries,
            vec![
                ("comm.retry.detected", 1),
                ("comm.retry.requested", 8),
                ("comm.retry.exhausted", 1),
            ]
        );
        assert!(
            faults.contains(&("chaos.corrupt.retransmit", 8)),
            "every replay must pass through the fault layer: {faults:?}"
        );
    }

    #[test]
    fn one_deadline_governs_blocking_and_split_phase_receives() {
        // The transport's deadline is the only one: through the full
        // reliable-over-chaos stack, (a) a blocking receive from a silent
        // peer returns the mailbox diagnostic, and (b) the wait() side of a
        // split-phase exchange panics with it, naming the first missing
        // source.
        let results = reliable_run(2, Duration::from_millis(50), FaultPlan::new(0), |c| {
            if c.rank() == 0 {
                // Send only on tag 8, then stay alive (in the second
                // barrier) until rank 1 is done with both receives.
                c.send(1, 8, &[42u64]);
                c.barrier();
                c.barrier();
                None
            } else {
                c.barrier();
                let err = c.try_recv::<u64>(0, 9).unwrap_err();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.start_allgather_bytes(vec![1u8], 5).wait()
                }));
                c.barrier();
                let msg = caught.unwrap_err().downcast_ref::<String>().cloned();
                Some((err, msg))
            }
        });
        let (err, msg) = results[1].clone().expect("rank 1 reports");
        match err {
            CommError::Deadline {
                src,
                tag,
                waited_ms,
                pending,
            } => {
                assert_eq!((src, tag), (0, 9));
                assert!(waited_ms >= 50);
                assert_eq!(pending, vec![(0, 8, 1)]);
            }
            other => panic!("expected Deadline, got {other:?}"),
        }
        let msg = msg.expect("deadline panic message");
        assert!(
            msg.contains("receive deadline expired") && msg.contains("src 0, tag 5"),
            "unexpected panic: {msg}"
        );
    }

    #[test]
    fn collectives_survive_heavy_corruption() {
        // Half of all first sends corrupted across 20 back-to-back
        // allreduces on 3 ranks: every result must still be correct, and
        // at least one heal must have fired (deterministic per seed).
        let plan = FaultPlan::new(42)
            .with_corruption(0.5)
            .with_retransmit_corruption(0.0);
        let results = reliable_run(3, DEADLINE, plan, |c| {
            let mut acc = 0u64;
            for i in 0..20 {
                acc += c.allreduce_sum_u64(i + c.rank() as u64);
            }
            let healed: u64 = c
                .retry_counts()
                .iter()
                .find(|(n, _)| *n == "comm.retry.healed")
                .map_or(0, |&(_, n)| n);
            (acc, healed)
        });
        let expect: u64 = (0..20u64).map(|i| 3 * i + 3).sum();
        let total_healed: u64 = results.iter().map(|&(_, h)| h).sum();
        for (acc, _) in &results {
            assert_eq!(*acc, expect);
        }
        assert!(total_healed > 0, "corruption at 0.5 must trigger heals");
    }

    #[test]
    fn serial_self_send_heals() {
        let plan = FaultPlan::new(1)
            .with_corruption(1.0)
            .with_retransmit_corruption(0.0);
        let tc = ThreadComm::create(1).pop().unwrap();
        let c = ReliableComm::new(ChaosComm::new(tc, plan));
        c.send(0, 3, &[9u64, 8]);
        assert_eq!(c.try_recv::<u64>(0, 3).unwrap(), vec![9, 8]);
        assert_eq!(
            c.retry_counts(),
            vec![
                ("comm.retry.detected", 1),
                ("comm.retry.requested", 1),
                ("comm.retry.healed", 1),
            ]
        );
    }

    #[test]
    fn sequence_numbers_are_per_link() {
        // Interleaved tags and destinations each carry their own stream;
        // a receiver validates them independently.
        let results = reliable_run(3, DEADLINE, FaultPlan::new(0), |c| {
            if c.rank() == 0 {
                for i in 0..5u64 {
                    c.send(1, 1, &[i]);
                    c.send(2, 1, &[10 + i]);
                    c.send(1, 2, &[20 + i]);
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..5 {
                    got.push(c.recv::<u64>(0, 1)[0]);
                }
                if c.rank() == 1 {
                    for _ in 0..5 {
                        got.push(c.recv::<u64>(0, 2)[0]);
                    }
                }
                got
            }
        });
        assert_eq!(results[1], vec![0, 1, 2, 3, 4, 20, 21, 22, 23, 24]);
        assert_eq!(results[2], vec![10, 11, 12, 13, 14]);
    }
}
