//! Per-rank communication traffic accounting.
//!
//! The paper reports that the communication volumes of `Balance` and `Ghost`
//! "scale roughly with the number of octants on the partition boundaries",
//! and that `Partition` needs one `MPI_Allgather` of a single long integer
//! per core. The benchmark harnesses verify those claims on the Rust
//! implementation by reading these counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Lock-free counters of messages and payload bytes, split into
/// point-to-point and collective traffic, plus a per-tag breakdown of
/// point-to-point traffic so phases (ghost exchange, halo traces, node
/// assembly, collectives) can be attributed individually.
///
/// The grand-total counters use relaxed atomics: they are statistics, not
/// synchronization. The per-tag map takes a mutex, which is fine because a
/// rank's sends are not themselves concurrent.
#[derive(Debug, Default)]
pub struct TrafficStats {
    p2p_msgs: AtomicU64,
    p2p_bytes: AtomicU64,
    coll_calls: AtomicU64,
    coll_bytes: AtomicU64,
    retrans_msgs: AtomicU64,
    retrans_bytes: AtomicU64,
    by_tag: Mutex<BTreeMap<u32, TagTraffic>>,
}

/// Message/byte totals of one point-to-point tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagTraffic {
    /// Messages sent on this tag.
    pub msgs: u64,
    /// Payload bytes sent on this tag (including any framing the sender
    /// put on the wire).
    pub bytes: u64,
    /// Retransmissions requested on this tag by the reliable layer (each
    /// one models a NACK to the sender plus a replayed frame).
    pub retransmits: u64,
    /// Retransmitted bytes replayed on this tag.
    pub retransmit_bytes: u64,
}

/// A plain-data copy of [`TrafficStats`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Number of point-to-point messages sent by this rank.
    pub p2p_msgs: u64,
    /// Payload bytes of point-to-point messages sent by this rank.
    pub p2p_bytes: u64,
    /// Number of collective operations this rank participated in.
    pub coll_calls: u64,
    /// Payload bytes this rank contributed to collectives.
    pub coll_bytes: u64,
    /// Retransmissions this rank requested from peers (reliable layer).
    pub retrans_msgs: u64,
    /// Bytes replayed to this rank by retransmissions.
    pub retrans_bytes: u64,
}

impl TrafficStats {
    /// Record one point-to-point send of `bytes` payload bytes on `tag`.
    #[inline]
    pub fn record_p2p(&self, tag: u32, bytes: usize) {
        self.p2p_msgs.fetch_add(1, Ordering::Relaxed);
        self.p2p_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let mut map = self.by_tag.lock().unwrap_or_else(|e| e.into_inner());
        let t = map.entry(tag).or_default();
        t.msgs += 1;
        t.bytes += bytes as u64;
    }

    /// Per-tag breakdown of point-to-point traffic.
    ///
    /// **Ordering guarantee:** the result is sorted by ascending tag,
    /// independent of the order in which tags were first recorded
    /// (backed by a `BTreeMap`). Consumers that reduce or diff
    /// per-tag snapshots across ranks — e.g. the observability layer's
    /// `comm.tag.<tag>.*` counters — rely on this determinism.
    pub fn by_tag(&self) -> Vec<(u32, TagTraffic)> {
        let map = self.by_tag.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(&t, &v)| (t, v)).collect()
    }

    /// Totals for one point-to-point tag (zero if never used).
    pub fn tag_traffic(&self, tag: u32) -> TagTraffic {
        let map = self.by_tag.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&tag).copied().unwrap_or_default()
    }

    /// Record participation in one collective contributing `bytes` bytes.
    #[inline]
    pub fn record_collective(&self, bytes: usize) {
        self.coll_calls.fetch_add(1, Ordering::Relaxed);
        self.coll_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one retransmission of `bytes` replayed bytes requested on
    /// `tag` (reliable layer: a NACK went out, a frame copy came back).
    #[inline]
    pub fn record_retransmit(&self, tag: u32, bytes: usize) {
        self.retrans_msgs.fetch_add(1, Ordering::Relaxed);
        self.retrans_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        let mut map = self.by_tag.lock().unwrap_or_else(|e| e.into_inner());
        let t = map.entry(tag).or_default();
        t.retransmits += 1;
        t.retransmit_bytes += bytes as u64;
    }

    /// Read the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            p2p_msgs: self.p2p_msgs.load(Ordering::Relaxed),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
            coll_calls: self.coll_calls.load(Ordering::Relaxed),
            coll_bytes: self.coll_bytes.load(Ordering::Relaxed),
            retrans_msgs: self.retrans_msgs.load(Ordering::Relaxed),
            retrans_bytes: self.retrans_bytes.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero (e.g. between benchmark phases).
    pub fn reset(&self) {
        self.p2p_msgs.store(0, Ordering::Relaxed);
        self.p2p_bytes.store(0, Ordering::Relaxed);
        self.coll_calls.store(0, Ordering::Relaxed);
        self.coll_bytes.store(0, Ordering::Relaxed);
        self.retrans_msgs.store(0, Ordering::Relaxed);
        self.retrans_bytes.store(0, Ordering::Relaxed);
        self.by_tag
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

impl StatsSnapshot {
    /// Difference of two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            p2p_msgs: self.p2p_msgs - earlier.p2p_msgs,
            p2p_bytes: self.p2p_bytes - earlier.p2p_bytes,
            coll_calls: self.coll_calls - earlier.coll_calls,
            coll_bytes: self.coll_bytes - earlier.coll_bytes,
            retrans_msgs: self.retrans_msgs - earlier.retrans_msgs,
            retrans_bytes: self.retrans_bytes - earlier.retrans_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = TrafficStats::default();
        s.record_p2p(1, 10);
        s.record_p2p(1, 20);
        s.record_collective(8);
        let snap = s.snapshot();
        assert_eq!(snap.p2p_msgs, 2);
        assert_eq!(snap.p2p_bytes, 30);
        assert_eq!(snap.coll_calls, 1);
        assert_eq!(snap.coll_bytes, 8);
    }

    #[test]
    fn since_subtracts() {
        let s = TrafficStats::default();
        s.record_p2p(1, 10);
        let a = s.snapshot();
        s.record_p2p(1, 5);
        s.record_collective(3);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.p2p_msgs, 1);
        assert_eq!(d.p2p_bytes, 5);
        assert_eq!(d.coll_bytes, 3);
    }

    #[test]
    fn reset_zeroes() {
        let s = TrafficStats::default();
        s.record_p2p(1, 10);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        assert!(s.by_tag().is_empty());
    }

    #[test]
    fn per_tag_breakdown_attributes_traffic() {
        let s = TrafficStats::default();
        s.record_p2p(7, 10);
        s.record_p2p(7, 20);
        s.record_p2p(9, 5);
        let tags = s.by_tag();
        assert_eq!(
            tags,
            vec![
                (
                    7,
                    TagTraffic {
                        msgs: 2,
                        bytes: 30,
                        ..TagTraffic::default()
                    }
                ),
                (
                    9,
                    TagTraffic {
                        msgs: 1,
                        bytes: 5,
                        ..TagTraffic::default()
                    }
                ),
            ]
        );
        assert_eq!(s.tag_traffic(7).bytes, 30);
        assert_eq!(s.tag_traffic(1234), TagTraffic::default());
        // Per-tag totals sum to the grand total.
        let sum: u64 = tags.iter().map(|(_, t)| t.bytes).sum();
        assert_eq!(sum, s.snapshot().p2p_bytes);
    }

    #[test]
    fn per_tag_snapshot_is_sorted_regardless_of_recording_order() {
        use crate::communicator::TAG_COLLECTIVE;
        // The real phase tags from the stack, recorded deliberately out
        // of order (ghost before halo before assemble before a plain
        // user tag before the collective tag).
        let halo = TAG_COLLECTIVE - 32;
        let ghost = TAG_COLLECTIVE - 16;
        let assemble = TAG_COLLECTIVE - 48;
        let s = TrafficStats::default();
        s.record_p2p(ghost, 100);
        s.record_p2p(halo, 40);
        s.record_p2p(TAG_COLLECTIVE, 8);
        s.record_p2p(assemble, 24);
        s.record_p2p(3, 1);
        s.record_p2p(halo, 60);
        let tags = s.by_tag();
        let order: Vec<u32> = tags.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, vec![3, assemble, halo, ghost, TAG_COLLECTIVE]);
        assert!(order.windows(2).all(|w| w[0] < w[1]));
        // Each phase's traffic is attributed to its own tag.
        assert_eq!(
            s.tag_traffic(halo),
            TagTraffic {
                msgs: 2,
                bytes: 100,
                ..TagTraffic::default()
            }
        );
        assert_eq!(
            s.tag_traffic(ghost),
            TagTraffic {
                msgs: 1,
                bytes: 100,
                ..TagTraffic::default()
            }
        );
        assert_eq!(
            s.tag_traffic(assemble),
            TagTraffic {
                msgs: 1,
                bytes: 24,
                ..TagTraffic::default()
            }
        );
    }

    #[test]
    fn retransmit_counters_attribute_per_tag() {
        let s = TrafficStats::default();
        s.record_p2p(5, 10);
        s.record_retransmit(5, 14);
        s.record_retransmit(5, 14);
        let snap = s.snapshot();
        assert_eq!(snap.retrans_msgs, 2);
        assert_eq!(snap.retrans_bytes, 28);
        let t5 = s.tag_traffic(5);
        assert_eq!((t5.retransmits, t5.retransmit_bytes), (2, 28));
        // Retransmits are accounted separately from first-shot traffic.
        assert_eq!((snap.p2p_msgs, snap.p2p_bytes), (1, 10));
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
