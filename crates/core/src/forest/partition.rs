//! `Partition`: space-filling-curve repartitioning of the forest.
//!
//! The SFC reduces load balancing to splitting a one-dimensional curve into
//! `P` segments (paper §II-B, Fig. 2). Each rank computes the destination
//! of its local octants from the exclusive prefix of the (optionally
//! weighted) octant counts — one `Allgather` of a single `u64` per rank —
//! then octants move point-to-point. This mirrors p4est exactly.

use forust_comm::{Communicator, Wire};

use crate::connectivity::TreeId;
use crate::dim::Dim;
use crate::forest::Forest;
use crate::octant::Octant;

impl<D: Dim> Forest<D> {
    /// Repartition so every rank holds an equal (±1) number of octants.
    pub fn partition(&mut self, comm: &impl Communicator) {
        self.partition_weighted(comm, |_, _| 1);
    }

    /// Repartition according to a per-octant work weight: the curve is cut
    /// so each rank receives approximately `total_weight / P`.
    ///
    /// Weights must be positive. With unit weights the split is exact
    /// (±1 octant). The payload is zero-sized, so the messages are those
    /// of the bare octant transfer.
    pub fn partition_weighted(
        &mut self,
        comm: &impl Communicator,
        weight: impl FnMut(TreeId, &Octant<D>) -> u64,
    ) {
        let none = vec![[0u8; 0]; self.num_local()];
        self.partition_with_payload(comm, weight, none);
    }

    /// As [`Forest::partition_weighted`] — the one place the cut lives —
    /// moving one payload value per octant with it (fields "redistributed
    /// according to the mesh partition", §IV-A). Octant and payload travel
    /// as `(tree, octant, payload)` triples in a **single** `alltoallv`
    /// round, so the two streams can never disagree about ordering.
    pub fn partition_with_payload<T: Wire>(
        &mut self,
        comm: &impl Communicator,
        mut weight: impl FnMut(TreeId, &Octant<D>) -> u64,
        payload: Vec<T>,
    ) -> Vec<T> {
        let _span = forust_obs::span!("forest.partition");
        assert_eq!(payload.len(), self.num_local());
        let p = comm.size();
        let weights: Vec<u64> = self.iter_local().map(|(t, o)| weight(t, o)).collect();
        let local_total: u64 = weights.iter().sum();
        let my_offset = comm.exscan_sum_u64(local_total);
        let grand_total = comm.allreduce_sum_u64(local_total);
        if grand_total == 0 {
            return payload;
        }

        // Destination of an octant whose exclusive weight prefix is `w`: the
        // rank whose bucket [r*W/P, (r+1)*W/P) holds it (u128: no overflow).
        let dest_of = |w: u64| -> usize {
            let r = (w as u128 * p as u128 / grand_total as u128) as usize;
            r.min(p - 1)
        };
        let mut outgoing: Vec<Vec<(u32, Octant<D>, T)>> = (0..p).map(|_| Vec::new()).collect();
        let mut w = my_offset;
        for (((t, o), wt), pl) in self.iter_local().zip(&weights).zip(payload) {
            debug_assert!(*wt > 0, "partition weights must be positive");
            outgoing[dest_of(w)].push((t, *o, pl));
            w += wt;
        }

        // Arrival order (by source rank, then SFC within each source) is
        // globally SFC-sorted already, for octants and payloads alike.
        let incoming = comm.alltoallv(outgoing);
        let mut trees: Vec<Vec<Octant<D>>> = vec![Vec::new(); self.conn.num_trees()];
        let mut pay = Vec::new();
        for part in incoming {
            for (t, o, pl) in part {
                trees[t as usize].push(o);
                pay.push(pl);
            }
        }
        self.set_trees(trees);
        self.update_meta(comm);
        pay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::dim::{D2, D3};
    use forust_comm::run_spmd;
    use std::sync::Arc;

    #[test]
    fn partition_balances_counts() {
        run_spmd(5, |comm| {
            let conn = Arc::new(builders::cubed_sphere());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 1);
            // Unbalance the forest: refine only tree 0.
            f.refine(comm, false, |t, _| t == 0);
            let counts_before: Vec<u64> = f.counts().to_vec();
            assert!(counts_before.iter().any(|&c| c != counts_before[0]));
            f.partition(comm);
            f.check_valid(comm);
            let (min, max) = (
                f.counts().iter().min().copied().unwrap(),
                f.counts().iter().max().copied().unwrap(),
            );
            assert!(max - min <= 1, "counts not equalized: {:?}", f.counts());
        });
    }

    #[test]
    fn partition_preserves_octant_multiset() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(conn, comm, 2);
            f.refine(comm, false, |t, o| (t as usize + o.child_id()) % 3 == 0);
            let gather = |f: &Forest<D2>| {
                let mine: Vec<(u32, Octant<D2>)> = f.iter_local().map(|(t, o)| (t, *o)).collect();
                let mut all: Vec<_> = comm.allgatherv(&mine).into_iter().flatten().collect();
                all.sort_by_cached_key(|(t, o)| crate::forest::sfc_pos(*t, o));
                all
            };
            let before = gather(&f);
            f.partition(comm);
            let after = gather(&f);
            assert_eq!(before, after, "partition must move, not change, octants");
        });
    }

    #[test]
    fn weighted_partition_shifts_load() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::unit3d());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 2);
            // Give the first half of the curve 9x the weight: the ranks
            // holding it should end up with ~1/9 the octants of the rest.
            let half = Octant::<D3>::root().child(3); // morton midpointish
            f.partition_weighted(comm, |_, o| if *o < half { 9 } else { 1 });
            f.check_valid(comm);
            // Rank 0 must now hold fewer octants than rank 3.
            let counts = f.counts().to_vec();
            assert!(counts[0] < counts[3], "{counts:?}");
            assert_eq!(counts.iter().sum::<u64>(), 64);
        });
    }

    #[test]
    fn partition_into_singleton_comm_is_noop() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::unit2d());
            let mut f = Forest::<D2>::new_uniform(conn, comm, 3);
            let before = f.num_local();
            f.partition(comm);
            assert_eq!(f.num_local(), before);
            f.check_valid(comm);
        });
    }

    #[test]
    fn repeated_partition_is_stable() {
        run_spmd(6, |comm| {
            let conn = Arc::new(builders::brick3d([2, 1, 1], [false; 3]));
            let mut f = Forest::<D3>::new_uniform(conn, comm, 2);
            f.partition(comm);
            let counts1 = f.counts().to_vec();
            let first1 = f.first_local();
            f.partition(comm);
            assert_eq!(f.counts(), &counts1[..]);
            assert_eq!(f.first_local(), first1);
        });
    }
}

#[cfg(test)]
mod payload_tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::dim::D3;
    use forust_comm::run_spmd;
    use std::sync::Arc;

    #[test]
    fn payload_rides_with_octants() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::unit3d());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 2);
            f.refine(comm, false, |_, o| o.child_id() == 0);
            // Payload: each octant's own morton+level signature.
            let payload: Vec<(u64, u8)> =
                f.iter_local().map(|(_, o)| (o.morton(), o.level)).collect();
            let moved = f.partition_with_payload(comm, |_, _| 1, payload);
            f.check_valid(comm);
            // After the move every octant still carries its own signature.
            let sigs: Vec<(u64, u8)> = f.iter_local().map(|(_, o)| (o.morton(), o.level)).collect();
            assert_eq!(moved, sigs);
            let (min, max) = (
                f.counts().iter().min().unwrap(),
                f.counts().iter().max().unwrap(),
            );
            assert!(max - min <= 1);
        });
    }
}
