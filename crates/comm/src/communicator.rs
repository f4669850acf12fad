//! The [`Communicator`] trait: MPI-semantics message passing.
//!
//! Only four primitives are required of an implementation — rank/size,
//! point-to-point send/receive of byte buffers, a barrier, and the
//! replay log the reliable layer retransmits from. Every collective
//! the AMR algorithms need (`Allgather`, `Allgatherv`, `Allreduce`,
//! exclusive scan, `Alltoallv`) is provided as a default method built from
//! those primitives with simple, deadlock-free schedules: sends never block
//! (transports are required to buffer), and message matching is FIFO per
//! `(source, tag)` pair, so back-to-back collectives cannot interleave.

use crate::error::CommError;
use crate::repro::max_nan;
use crate::stats::TrafficStats;
use crate::wire::{frame, read_vec, try_read_vec, unframe, write_vec, Wire};

/// Tag space reserved for the default collective implementations.
/// User point-to-point traffic must use tags below this value.
pub const TAG_COLLECTIVE: u32 = 0xFFFF_0000;

/// An MPI-like communicator connecting `size()` SPMD ranks.
///
/// Implementations must guarantee:
/// - `send_bytes` never blocks (buffered transport);
/// - messages between a fixed `(source, destination, tag)` triple are
///   delivered in FIFO order;
/// - `try_recv_bytes` blocks until a matching message arrives or the
///   transport's one receive deadline expires.
pub trait Communicator {
    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Send `data` to rank `dest` with message tag `tag`. Non-blocking.
    fn send_bytes(&self, dest: usize, tag: u32, data: Vec<u8>);

    /// Receive the next message from rank `src` with tag `tag`, blocking.
    /// The one receive primitive: a typed [`CommError`] replaces a hang
    /// when the transport's deadline expires or a peer has died.
    fn try_recv_bytes(&self, src: usize, tag: u32) -> Result<Vec<u8>, CommError>;

    /// Block until all ranks have entered the barrier.
    fn barrier(&self);

    /// Traffic counters for this rank.
    fn stats(&self) -> &TrafficStats;

    // ------------------------------------------------------------------
    // Retransmission support (the reliable layer's NACK protocol)
    // ------------------------------------------------------------------

    /// Retain a copy of a sequenced frame this rank just sent, so a
    /// receiver detecting corruption can re-request it.
    fn record_frame(&self, dest: usize, tag: u32, seq: u64, framed: &[u8]);

    /// Pull a retransmission of the frame `(src → this rank, tag, seq)`
    /// from the sender's retained outbox (`None` once it has left the
    /// replay window). In a networked transport this would be a NACK
    /// control message plus a reply; the thread-backed transport models it
    /// as a pull from the shared replay log. Fault decorators override
    /// this so the *retransmitted* copy is just as exposed to corruption
    /// (and the crash clock) as the original send.
    fn fetch_retransmit(&self, src: usize, tag: u32, seq: u64) -> Option<Vec<u8>>;

    // ------------------------------------------------------------------
    // Integrity-framed point-to-point (CRC32 envelope)
    // ------------------------------------------------------------------
    //
    // All typed traffic and all collectives travel inside a CRC32 frame
    // (see [`frame`]/[`unframe`]): the raw `send_bytes`/`try_recv_bytes`
    // primitives remain the transport boundary, so a fault-injection
    // decorator sitting on the raw layer corrupts *framed* bytes — and the
    // receiver detects it instead of decoding garbage.

    /// Send `payload` wrapped in a CRC32 integrity envelope.
    fn send_framed(&self, dest: usize, tag: u32, payload: &[u8]) {
        self.send_bytes(dest, tag, frame(payload));
    }

    /// Receive a framed message and validate its CRC, returning the
    /// payload or a typed error naming the faulty `(src, tag)`.
    fn try_recv_framed(&self, src: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        let raw = self.try_recv_bytes(src, tag)?;
        unframe(&raw)
            .map(<[u8]>::to_vec)
            .map_err(|e| CommError::bad_frame(src, tag, e))
    }

    /// Like [`try_recv_framed`](Self::try_recv_framed), panicking with the
    /// typed diagnostic on failure (for contexts, like the collectives,
    /// where a corrupt message is unrecoverable).
    fn recv_framed(&self, src: usize, tag: u32) -> Vec<u8> {
        self.try_recv_framed(src, tag)
            .unwrap_or_else(|e| panic!("rank {}: {e}", self.rank()))
    }

    // ------------------------------------------------------------------
    // Typed point-to-point helpers
    // ------------------------------------------------------------------

    /// Send a slice of `Wire` values to `dest` (CRC-framed).
    fn send<T: Wire>(&self, dest: usize, tag: u32, items: &[T]) {
        self.send_framed(dest, tag, &write_vec(items));
    }

    /// Receive a whole message from `src` and decode it as consecutive values.
    fn recv<T: Wire>(&self, src: usize, tag: u32) -> Vec<T> {
        read_vec(&self.recv_framed(src, tag))
    }

    /// Fallible typed receive: integrity and decode failures become typed
    /// errors instead of panics.
    fn try_recv<T: Wire>(&self, src: usize, tag: u32) -> Result<Vec<T>, CommError> {
        let payload = self.try_recv_framed(src, tag)?;
        try_read_vec(&payload).ok_or(CommError::Decode { src, tag })
    }

    // ------------------------------------------------------------------
    // Request API: split-phase (start/wait) communication
    // ------------------------------------------------------------------
    //
    // MPI-style nonblocking semantics: a `start_*` call puts messages on
    // the wire immediately (sends are buffered, so starting never blocks)
    // and returns a handle; the caller overlaps local work, then `wait()`s
    // the handle, which is a blocking receive under the transport's
    // deadline. The blocking collectives are thin start+wait wrappers, so
    // there is exactly one wire code path.

    /// Start an `MPI_Alltoallv` on the given `tag`: element `d` of
    /// `outgoing` is sent to rank `d` immediately; the returned
    /// [`PendingExchange`] completes the `size()` receives.
    ///
    /// At most one exchange per tag may be in flight at a time (message
    /// matching is FIFO per `(source, tag)`, so two concurrent exchanges
    /// on one tag would steal each other's messages). Concurrent
    /// exchanges must use distinct tags.
    fn start_alltoallv_bytes(&self, outgoing: Vec<Vec<u8>>, tag: u32) -> PendingExchange<'_, Self> {
        let (p, me) = (self.size(), self.rank());
        assert_eq!(outgoing.len(), p, "alltoallv: need one buffer per rank");
        let total: usize = outgoing.iter().map(Vec::len).sum();
        self.stats().record_collective(total);
        let mut slots: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
        for (dest, buf) in outgoing.into_iter().enumerate() {
            if dest == me {
                slots[me] = Some(buf);
            } else {
                self.send_framed(dest, tag, &buf);
            }
        }
        PendingExchange {
            comm: self,
            tag,
            slots,
        }
    }

    // ------------------------------------------------------------------
    // Collectives (default implementations over point-to-point)
    // ------------------------------------------------------------------

    /// Start an allgather on the given `tag`: `mine` goes to every peer
    /// immediately; the returned [`PendingExchange`] completes the
    /// receives and yields the contributions in rank order.
    ///
    /// Same one-in-flight-per-tag rule as
    /// [`start_alltoallv_bytes`](Self::start_alltoallv_bytes).
    fn start_allgather_bytes(&self, mine: Vec<u8>, tag: u32) -> PendingExchange<'_, Self> {
        let (p, me) = (self.size(), self.rank());
        self.stats().record_collective(mine.len());
        let mut slots: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
        // Framing goes through `send_framed` per destination (not one
        // pre-framed buffer cloned to all) so a reliable decorator can
        // stamp each link's own sequence number on its copy.
        for dest in 0..p {
            if dest != me {
                self.send_framed(dest, tag, &mine);
            }
        }
        slots[me] = Some(mine);
        PendingExchange {
            comm: self,
            tag,
            slots,
        }
    }

    /// Gather one byte buffer from every rank onto every rank,
    /// returned in rank order.
    ///
    /// Blocking wrapper over the request API: start, then wait.
    fn allgather_bytes(&self, mine: Vec<u8>) -> Vec<Vec<u8>> {
        self.start_allgather_bytes(mine, TAG_COLLECTIVE).wait()
    }

    /// `MPI_Allgather` of exactly one value per rank.
    fn allgather<T: Wire>(&self, mine: T) -> Vec<T> {
        let bufs = self.allgather_bytes(write_vec(std::slice::from_ref(&mine)));
        bufs.into_iter()
            .map(|b| {
                let mut s = b.as_slice();
                T::decode(&mut s).expect("allgather: malformed contribution")
            })
            .collect()
    }

    /// `MPI_Allgatherv`: gather a variable-length vector from every rank.
    fn allgatherv<T: Wire>(&self, mine: &[T]) -> Vec<Vec<T>> {
        self.allgather_bytes(write_vec(mine))
            .into_iter()
            .map(|b| read_vec(&b))
            .collect()
    }

    /// `MPI_Allreduce` with a user-supplied associative fold.
    ///
    /// The fold is applied in rank order on every rank, so the result is
    /// deterministic and identical across ranks even for non-commutative
    /// or floating-point operations.
    fn allreduce<T: Wire + Clone>(&self, mine: T, op: impl Fn(T, T) -> T) -> T {
        let all = self.allgather(mine);
        let mut it = all.into_iter();
        let first = it.next().expect("allreduce on empty communicator");
        it.fold(first, op)
    }

    /// Sum-allreduce of a `u64` (the most common case in the forest code).
    fn allreduce_sum_u64(&self, mine: u64) -> u64 {
        self.allreduce(mine, |a, b| a + b)
    }

    /// Max-allreduce of a `u64`.
    fn allreduce_max_u64(&self, mine: u64) -> u64 {
        self.allreduce(mine, |a, b| a.max(b))
    }

    /// Logical-or allreduce — used e.g. to certify `Balance` convergence.
    fn allreduce_or(&self, mine: bool) -> bool {
        self.allreduce(mine, |a, b| a || b)
    }

    /// Sum-allreduce of an `f64`, deterministic across ranks.
    fn allreduce_sum_f64(&self, mine: f64) -> f64 {
        self.allreduce(mine, |a, b| a + b)
    }

    /// Max-allreduce of an `f64`; `NaN` on every rank if any rank holds
    /// one ([`max_nan`]).
    fn allreduce_max_f64(&self, mine: f64) -> f64 {
        self.allreduce(mine, max_nan)
    }

    /// Exclusive prefix sum: rank `r` receives `sum(values of ranks < r)`.
    fn exscan_sum_u64(&self, mine: u64) -> u64 {
        let all = self.allgather(mine);
        all[..self.rank()].iter().sum()
    }

    /// `MPI_Alltoallv` over byte buffers: element `d` of `outgoing` is sent
    /// to rank `d`; the result's element `s` is the buffer received from
    /// rank `s`. Every rank must call this with `outgoing.len() == size()`.
    ///
    /// Blocking wrapper over the request API: start, then wait.
    fn alltoallv_bytes(&self, outgoing: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        self.start_alltoallv_bytes(outgoing, TAG_COLLECTIVE + 1)
            .wait()
    }

    /// Typed `MPI_Alltoallv`: send `outgoing[d]` to rank `d`, receive the
    /// vector each source rank addressed to us.
    fn alltoallv<T: Wire>(&self, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let bufs = outgoing.iter().map(|v| write_vec(v)).collect();
        self.alltoallv_bytes(bufs)
            .into_iter()
            .map(|b| read_vec(&b))
            .collect()
    }
}

/// An in-flight all-to-all exchange started by
/// [`Communicator::start_alltoallv_bytes`].
///
/// The outgoing buffers are already on the wire; this handle owns the
/// `size()` incoming slots. [`wait`](Self::wait) receives every missing
/// slot — a blocking receive under the transport's deadline — and returns
/// the buffers in source-rank order.
#[must_use = "an exchange must be completed with wait()"]
pub struct PendingExchange<'a, C: Communicator + ?Sized> {
    comm: &'a C,
    tag: u32,
    /// `slots[s]` is the payload received from rank `s` (the own-rank slot
    /// is filled at start time).
    slots: Vec<Option<Vec<u8>>>,
}

impl<C: Communicator + ?Sized> PendingExchange<'_, C> {
    /// Block until the exchange completes; returns the received buffers in
    /// source-rank order (the own-rank slot holds the locally addressed
    /// buffer, unframed and uncopied). A receive that fails — a corrupt
    /// frame the communicator cannot heal, an expired deadline, a dead
    /// peer — panics with the typed diagnostic naming its `(src, tag)`.
    pub fn wait(mut self) -> Vec<Vec<u8>> {
        for (src, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(self.comm.recv_framed(src, self.tag));
            }
        }
        self.slots.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod default_collective_tests {
    use super::*;
    use crate::thread::run_spmd;

    #[test]
    fn max_allreduce_propagates_a_nan_from_any_rank() {
        for nan_rank in 0..2 {
            let got = run_spmd(2, |c| {
                let mine = if c.rank() == nan_rank { f64::NAN } else { 1.0 };
                c.allreduce_max_f64(mine)
            });
            assert!(
                got.iter().all(|v| v.is_nan()),
                "NaN on rank {nan_rank}: {got:?}"
            );
        }
        assert_eq!(
            run_spmd(2, |c| c.allreduce_max_f64(c.rank() as f64)),
            [1.0, 1.0]
        );
    }

    #[test]
    fn allreduce_is_deterministic_in_rank_order() {
        // Non-commutative fold: string-like concatenation encoded as
        // digit-shifting; every rank must compute the same value, equal to
        // the rank-ordered fold.
        let results = run_spmd(4, |c| c.allreduce((c.rank() + 1) as u64, |a, b| a * 10 + b));
        assert!(results.iter().all(|&r| r == 1234));
    }

    #[test]
    fn allgather_bytes_preserves_payload_sizes() {
        let results = run_spmd(3, |c| {
            let mine = vec![c.rank() as u8; c.rank() + 1];
            c.allgather_bytes(mine)
        });
        for r in results {
            assert_eq!(r[0], vec![0]);
            assert_eq!(r[1], vec![1, 1]);
            assert_eq!(r[2], vec![2, 2, 2]);
        }
    }

    #[test]
    fn exscan_of_zeroes() {
        let results = run_spmd(3, |c| c.exscan_sum_u64(0));
        assert_eq!(results, vec![0, 0, 0]);
    }

    #[test]
    fn split_phase_alltoallv_overlaps_local_work() {
        let p = 4;
        let results = run_spmd(p, |c| {
            let outgoing: Vec<Vec<u8>> = (0..p)
                .map(|d| vec![(10 * c.rank() + d) as u8; d + 1])
                .collect();
            let pending = c.start_alltoallv_bytes(outgoing, 77);
            // Local work while the exchange is in flight.
            let local: u64 = (0..1000).sum();
            (local, pending.wait())
        });
        for (d, (local, incoming)) in results.into_iter().enumerate() {
            assert_eq!(local, 499500);
            for (s, buf) in incoming.into_iter().enumerate() {
                assert_eq!(buf, vec![(10 * s + d) as u8; d + 1]);
            }
        }
    }

    #[test]
    fn blocking_alltoallv_is_start_plus_wait() {
        // The blocking wrapper and an explicit start+wait must agree.
        let p = 3;
        let results = run_spmd(p, |c| {
            let mk = |c: &crate::ThreadComm| -> Vec<Vec<u8>> {
                (0..p).map(|d| vec![(c.rank() * p + d) as u8]).collect()
            };
            let a = c.alltoallv_bytes(mk(c));
            let b = c.start_alltoallv_bytes(mk(c), 11).wait();
            (a, b)
        });
        for (a, b) in results {
            assert_eq!(a, b);
        }
    }
}
