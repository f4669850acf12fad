//! Thread-backed SPMD execution: `P` ranks as OS threads.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::chaos::RankCrashed;
use crate::communicator::Communicator;
use crate::error::CommError;
use crate::stats::TrafficStats;

type Envelope = (usize, u32, Vec<u8>); // (source rank, tag, payload)

/// How often a blocked receive or barrier wakes up to check the poison
/// flag and the receive deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Shared failure-detection state of one communicator: the index of the
/// first rank that died, or `usize::MAX` while every rank is healthy. The
/// first victim wins, so every survivor reports the same dead peer.
#[derive(Debug)]
pub(crate) struct PoisonFlag(AtomicUsize);

impl PoisonFlag {
    fn new() -> Self {
        PoisonFlag(AtomicUsize::new(usize::MAX))
    }

    /// Mark the communicator poisoned by the death of `dead_rank`.
    pub(crate) fn poison(&self, dead_rank: usize) {
        let _ =
            self.0
                .compare_exchange(usize::MAX, dead_rank, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The dead rank, if any rank has died.
    pub(crate) fn dead_rank(&self) -> Option<usize> {
        match self.0.load(Ordering::Relaxed) {
            usize::MAX => None,
            r => Some(r),
        }
    }
}

/// A barrier that can be abandoned: waiters poll the communicator's
/// poison flag so a crashed rank turns a permanent hang into a loud
/// panic on every surviving rank.
struct PoisonBarrier {
    state: Mutex<(usize, u64)>, // (waiting count, generation)
    cv: Condvar,
}

impl PoisonBarrier {
    fn new() -> Self {
        PoisonBarrier {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn wait(&self, size: usize, poisoned: &PoisonFlag) {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let gen = guard.1;
        guard.0 += 1;
        if guard.0 == size {
            guard.0 = 0;
            guard.1 += 1;
            self.cv.notify_all();
            return;
        }
        while guard.1 == gen {
            if let Some(dead) = poisoned.dead_rank() {
                drop(guard);
                panic!("ThreadComm: peer rank {dead} died; aborting barrier");
            }
            guard = self
                .cv
                .wait_timeout(guard, POLL_INTERVAL)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// Per-(source, tag) FIFO queues of received-but-unmatched messages.
type Mailbox = HashMap<(usize, u32), VecDeque<Vec<u8>>>;

/// Per-link replay log of recently sent frames, shared by all endpoints
/// of one communicator: `(src, dest, tag)` → the last
/// [`REPLAY_WINDOW`] frames with their sequence numbers. This is the
/// sender-side retained "outbox" the reliable layer's NACK protocol pulls
/// retransmissions from.
type ReplayMap = HashMap<(usize, usize, u32), VecDeque<(u64, Vec<u8>)>>;

/// How many recent frames each `(src, dest, tag)` link retains for
/// retransmission. The reliable protocol re-requests only the frame it is
/// currently blocked on, so a small window is ample.
const REPLAY_WINDOW: usize = 32;

/// One rank's endpoint of a thread-backed communicator.
///
/// Transport is an unbounded mpsc channel per destination rank, so sends
/// never block. Receives drain the channel into a private mailbox keyed
/// by `(source, tag)` until a matching message is found; matching is FIFO
/// per key, mirroring MPI ordering guarantees.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    inbox: Receiver<Envelope>,
    peers: Vec<Sender<Envelope>>,
    barrier: Arc<PoisonBarrier>,
    mailbox: Mutex<Mailbox>,
    stats: TrafficStats,
    /// If set, a receive blocked longer than this returns a
    /// [`CommError::Deadline`] diagnostic (listing the blocked `(src,
    /// tag)` key and the pending mailbox) instead of hanging forever.
    recv_deadline: Option<Duration>,
    /// Set when any rank of this communicator panics, so blocked peers
    /// fail fast instead of deadlocking on a receive that will never
    /// complete.
    poisoned: Arc<PoisonFlag>,
    /// Retained sent frames for the reliable layer's retransmit pulls.
    replay: Arc<Mutex<ReplayMap>>,
}

impl ThreadComm {
    /// Create all `p` connected endpoints of a communicator.
    ///
    /// Endpoint `r` must be moved to the thread executing rank `r`.
    pub fn create(p: usize) -> Vec<ThreadComm> {
        Self::create_with(p, None)
    }

    /// Like [`create`](Self::create), with a receive deadline: a receive
    /// blocked longer than `recv_deadline` returns
    /// [`CommError::Deadline`] instead of hanging.
    pub fn create_with(p: usize, recv_deadline: Option<Duration>) -> Vec<ThreadComm> {
        assert!(p >= 1, "communicator needs at least one rank");
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(PoisonBarrier::new());
        let poisoned = Arc::new(PoisonFlag::new());
        let replay = Arc::new(Mutex::new(ReplayMap::new()));
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| ThreadComm {
                rank,
                size: p,
                inbox,
                peers: senders.clone(),
                barrier: barrier.clone(),
                mailbox: Mutex::new(HashMap::new()),
                stats: TrafficStats::default(),
                recv_deadline,
                poisoned: poisoned.clone(),
                replay: replay.clone(),
            })
            .collect()
    }

    /// The shared poison flag (set when any rank of this communicator
    /// panics).
    pub(crate) fn poison_handle(&self) -> Arc<PoisonFlag> {
        self.poisoned.clone()
    }

    fn lock_mailbox(&self) -> std::sync::MutexGuard<'_, Mailbox> {
        self.mailbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the pending mailbox for deadlock diagnostics:
    /// `(source, tag, queued messages)`, sorted.
    fn pending_snapshot(&self) -> Vec<(usize, u32, usize)> {
        let mut v: Vec<(usize, u32, usize)> = self
            .lock_mailbox()
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&(s, t), q)| (s, t, q.len()))
            .collect();
        v.sort_unstable();
        v
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_bytes(&self, dest: usize, tag: u32, data: Vec<u8>) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        self.stats.record_p2p(tag, data.len());
        if self.peers[dest].send((self.rank, tag, data)).is_err() {
            // The destination endpoint was dropped: that rank crashed or
            // exited early — and we know exactly which one. Poison the
            // communicator naming the victim and fail with the same
            // diagnostic a poisoned receive produces, so every surviving
            // rank reports the crash consistently instead of one of them
            // dying on an opaque channel error.
            self.poisoned.poison(dest);
        }
        if let Some(dead) = self.poisoned.dead_rank() {
            panic!("ThreadComm: peer rank {dead} died; aborting send to rank {dest} (tag {tag})");
        }
    }

    fn try_recv_bytes(&self, src: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let key = (src, tag);
        let start = Instant::now();
        loop {
            if let Some(buf) = self
                .lock_mailbox()
                .get_mut(&key)
                .and_then(VecDeque::pop_front)
            {
                return Ok(buf);
            }
            match self.inbox.recv_timeout(POLL_INTERVAL) {
                Ok((from, t, data)) if (from, t) == key => return Ok(data),
                Ok((from, t, data)) => self
                    .lock_mailbox()
                    .entry((from, t))
                    .or_default()
                    .push_back(data),
                // A timeout; `Disconnected` cannot happen while this
                // endpoint holds its own `Sender`, and is treated alike.
                Err(_) => {
                    if let Some(peer) = self.poisoned.dead_rank() {
                        return Err(CommError::PeerDead { peer, src, tag });
                    }
                    if let Some(deadline) = self.recv_deadline {
                        let waited = start.elapsed();
                        if waited >= deadline {
                            return Err(CommError::Deadline {
                                src,
                                tag,
                                waited_ms: waited.as_millis() as u64,
                                pending: self.pending_snapshot(),
                            });
                        }
                    }
                }
            }
        }
    }

    fn barrier(&self) {
        self.barrier.wait(self.size, &self.poisoned);
    }

    fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    fn record_frame(&self, dest: usize, tag: u32, seq: u64, framed: &[u8]) {
        let mut replay = self.replay.lock().unwrap_or_else(|e| e.into_inner());
        let q = replay.entry((self.rank, dest, tag)).or_default();
        q.push_back((seq, framed.to_vec()));
        while q.len() > REPLAY_WINDOW {
            q.pop_front();
        }
    }

    fn fetch_retransmit(&self, src: usize, tag: u32, seq: u64) -> Option<Vec<u8>> {
        let replay = self.replay.lock().unwrap_or_else(|e| e.into_inner());
        replay
            .get(&(src, self.rank, tag))
            .and_then(|q| q.iter().find(|&&(s, _)| s == seq))
            .map(|(_, frame)| frame.clone())
    }
}

/// Run `f` as an SPMD program on `p` ranks (OS threads) and return each
/// rank's result, in rank order.
///
/// This is the workspace's analogue of `mpirun -np P`: the same function
/// body executes on every rank, ranks communicate only through the
/// [`Communicator`] passed to them, and a rank panic aborts the whole run
/// with that panic's payload.
pub fn run_spmd<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&ThreadComm) -> R + Sync,
{
    run_spmd_with(p, None, |c| c, f)
}

/// Generalized SPMD driver: the endpoints carry `recv_deadline` (see
/// [`ThreadComm::create_with`]), and each rank's endpoint is passed
/// through `wrap` before use, so callers can interpose a decorator — most
/// notably [`ChaosComm`](crate::ChaosComm) for fault injection.
///
/// If several ranks panic, the panic resumed on the caller is the *root
/// cause* when one can be identified: an injected [`RankCrashed`] payload
/// wins over the secondary `PeerDead`/poison panics it triggers on
/// surviving ranks.
pub fn run_spmd_with<C, R, F, W>(p: usize, recv_deadline: Option<Duration>, wrap: W, f: F) -> Vec<R>
where
    C: Communicator + Send,
    R: Send,
    F: Fn(&C) -> R + Sync,
    W: Fn(ThreadComm) -> C + Sync,
{
    let comms = ThreadComm::create_with(p, recv_deadline);
    let (f, wrap) = (&f, &wrap);
    let results: Vec<Result<R, Box<dyn std::any::Any + Send>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                std::thread::Builder::new()
                    .name(format!("rank-{}", comm.rank()))
                    .stack_size(16 << 20)
                    .spawn_scoped(scope, move || {
                        let rank = comm.rank();
                        let poisoned = comm.poison_handle();
                        let wrapped = wrap(comm);
                        let r =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&wrapped)));
                        if r.is_err() {
                            // Name the panicking rank so survivors'
                            // PeerDead diagnostics identify the victim.
                            poisoned.poison(rank);
                        }
                        r
                    })
                    .expect("failed to spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked outside catch_unwind"))
            .collect()
    });
    // Prefer an injected crash payload as the root cause over the
    // secondary panics it causes on other ranks.
    let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
    let mut out = Vec::with_capacity(p);
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(e) => panics.push(e),
        }
    }
    if !panics.is_empty() {
        let root = panics
            .iter()
            .position(|e| e.is::<RankCrashed>())
            .unwrap_or(0);
        std::panic::resume_unwind(panics.swap_remove(root));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = run_spmd(5, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 1, &[c.rank() as u64]);
            c.recv::<u64>(prev, 1)[0]
        });
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn allgather_orders_by_rank() {
        let results = run_spmd(7, |c| c.allgather((c.rank() as u32) * 10));
        for r in results {
            assert_eq!(r, vec![0, 10, 20, 30, 40, 50, 60]);
        }
    }

    #[test]
    fn allgatherv_variable_lengths() {
        let results = run_spmd(4, |c| {
            let mine: Vec<u64> = (0..c.rank() as u64).collect();
            c.allgatherv(&mine)
        });
        for r in results {
            assert_eq!(r, vec![vec![], vec![0], vec![0, 1], vec![0, 1, 2]]);
        }
    }

    #[test]
    fn allreduce_and_scan() {
        let results = run_spmd(6, |c| {
            let x = (c.rank() + 1) as u64;
            (
                c.allreduce_sum_u64(x),
                c.exscan_sum_u64(x),
                c.allreduce_max_u64(x),
            )
        });
        for (rank, (sum, scan, max)) in results.into_iter().enumerate() {
            assert_eq!(sum, 21);
            assert_eq!(max, 6);
            let expect: u64 = (1..=rank as u64).sum();
            assert_eq!(scan, expect);
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let p = 4;
        let results = run_spmd(p, |c| {
            // Rank r sends the value 100*r + d to each destination d.
            let outgoing: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![100 * c.rank() as u64 + d as u64])
                .collect();
            c.alltoallv(outgoing)
        });
        for (d, incoming) in results.into_iter().enumerate() {
            for (s, v) in incoming.into_iter().enumerate() {
                assert_eq!(v, vec![100 * s as u64 + d as u64]);
            }
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_spmd(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, &[5u8]);
                c.send(1, 6, &[6u8]);
                0u8
            } else {
                // Receive in the opposite order they were sent.
                let six = c.recv::<u8>(0, 6)[0];
                let five = c.recv::<u8>(0, 5)[0];
                six * 10 + five
            }
        });
        assert_eq!(results[1], 65);
    }

    #[test]
    fn stats_count_traffic() {
        let results = run_spmd(3, |c| {
            c.send(0, 1, &[1u64, 2, 3]);
            if c.rank() == 0 {
                for src in 0..3 {
                    let _ = c.recv::<u64>(src, 1);
                }
            }
            c.barrier();
            c.stats().snapshot()
        });
        for s in &results {
            assert_eq!(s.p2p_msgs, 1);
            // 3 u64 values plus the 4-byte CRC32 frame header.
            assert_eq!(s.p2p_bytes, 28);
        }
    }

    #[test]
    fn nested_collectives_back_to_back() {
        let results = run_spmd(5, |c| {
            let mut acc = 0u64;
            for i in 0..20 {
                acc = acc.wrapping_add(c.allreduce_sum_u64(i + c.rank() as u64));
            }
            acc
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn deadline_reports_blocked_key_and_pending_mailbox() {
        let errs = run_spmd_with(
            2,
            Some(Duration::from_millis(100)),
            |c| c,
            |c| {
                if c.rank() == 0 {
                    // Send on tag 8; never send the tag 7 message rank 1 waits
                    // for.
                    c.send(1, 8, &[42u64]);
                    None
                } else {
                    let err = c.try_recv::<u64>(0, 7).unwrap_err();
                    // Drain the tag-8 message so rank 0's send is matched.
                    assert_eq!(c.recv::<u64>(0, 8), vec![42]);
                    Some(err)
                }
            },
        );
        let err = errs[1].clone().expect("rank 1 returns the error");
        match err {
            CommError::Deadline {
                src, tag, pending, ..
            } => {
                assert_eq!((src, tag), (0, 7));
                assert_eq!(pending, vec![(0, 8, 1)]);
            }
            other => panic!("expected Deadline, got {other:?}"),
        }
    }

    #[test]
    fn crashed_peer_fails_sender_with_poison_diagnostic() {
        let caught = std::panic::catch_unwind(|| {
            run_spmd(2, |c| {
                if c.rank() == 0 {
                    panic!("rank 0 dies");
                }
                // Rank 1 keeps sending until the crash is detected; the
                // poison fast-fail path must raise the peer-crash
                // diagnostic rather than hanging or dying on a raw
                // channel error.
                loop {
                    c.send(0, 1, &[1u8]);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("rank 0 dies") || msg.contains("peer rank 0 died"),
            "unexpected panic payload: {msg}"
        );
    }
}
