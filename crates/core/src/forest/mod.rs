//! The distributed forest: octant storage and the core AMR algorithm suite.
//!
//! Octant storage is **fully distributed** (paper §II-B): each rank owns a
//! contiguous segment of the forest-wide space-filling curve, stored as one
//! sorted leaf array per tree. The only globally shared, per-rank metadata
//! is the partition marker — the octant count and the (tree, coordinates,
//! level) of the first octant of every rank, the paper's "32 bytes per
//! core". Owner ranks of arbitrary octants are found by binary search over
//! these markers in `O(log P)`, and local octants by binary search in the
//! sorted leaf arrays in `O(log N_p)`.
//!
//! The algorithms of §II-C:
//! - [`Forest::new_uniform`] — `New`: equi-partitioned uniform forest, no
//!   communication beyond the initial marker allgather;
//! - [`Forest::refine`] / [`Forest::coarsen`] — callback-driven, local,
//!   no communication;
//! - [`Forest::partition`] — SFC repartition by (optionally weighted)
//!   octant counts: one allgather of a `u64` per rank plus point-to-point
//!   octant transfer (see `partition.rs`);
//! - [`Forest::balance`] — 2:1 size balance across faces, edges and
//!   corners, within and between trees (see `balance.rs`);
//! - [`Forest::ghost`] — one layer of remote octants adjacent to the local
//!   partition (see `ghost.rs`).

mod balance;
mod checkpoint;
mod ghost;
mod iterate;
mod partition;
mod search;

pub use balance::BalanceType;
pub use checkpoint::{read_dir, write_dir, CheckpointError, CheckpointMeta, SolverFormat};
pub use ghost::{GhostDataPending, GhostLayer, TAG_GHOST_EXCHANGE};
pub use iterate::{
    CornerVisit, EdgeVisit, EntitySharer, FaceSide, FaceVisit, LeafRef, OwnedRoute, Visit,
};
pub use search::Descend;

use std::sync::Arc;

use forust_comm::Communicator;

use crate::connectivity::{Connectivity, TreeId};
use crate::dim::Dim;
use crate::linear;
use crate::octant::{from_morton, Octant};

/// A position in the forest-wide space-filling curve: tree, then the
/// octant's SFC key within the tree (ancestors sort before descendants).
pub(crate) type SfcPos = (TreeId, u64, u8);

pub(crate) fn sfc_pos<D: Dim>(tree: TreeId, o: &Octant<D>) -> SfcPos {
    let (m, l) = o.sfc_key();
    (tree, m, l)
}

/// The distributed forest of octrees.
///
/// All methods that communicate take the rank's [`Communicator`]; the
/// forest itself is plain data and can be moved freely within its rank.
#[derive(Debug, Clone)]
pub struct Forest<D: Dim> {
    /// The shared macro-topology.
    pub conn: Arc<Connectivity<D>>,
    /// Local leaves per tree (index = tree id; empty if none owned).
    trees: Vec<Vec<Octant<D>>>,
    /// First-octant marker of every rank, plus a sentinel
    /// `(num_trees, root)` at index `P`. Empty ranks repeat their
    /// successor's marker.
    markers: Vec<(TreeId, Octant<D>)>,
    /// Octant counts per rank.
    counts: Vec<u64>,
}

impl<D: Dim> Forest<D> {
    // ------------------------------------------------------------------
    // Construction: New
    // ------------------------------------------------------------------

    /// `New`: create an equi-partitioned forest, uniformly refined to
    /// `level`. With `level = 0` this creates only root octants, possibly
    /// leaving many ranks empty (as the paper notes).
    pub fn new_uniform(conn: Arc<Connectivity<D>>, comm: &impl Communicator, level: u8) -> Self {
        let _span = forust_obs::span!("forest.new");
        assert!(level <= D::MAX_LEVEL);
        let k = conn.num_trees() as u64;
        let per_tree = 1u64 << (D::DIM * level as u32);
        let total = k * per_tree;
        let (p, r) = (comm.size() as u64, comm.rank() as u64);
        // Rank r owns global indices [lo, hi): the standard equal split.
        let lo = (total * r) / p;
        let hi = (total * (r + 1)) / p;

        let mut trees: Vec<Vec<Octant<D>>> = vec![Vec::new(); k as usize];
        let shift = (D::DIM * (D::MAX_LEVEL - level) as u32) as u64;
        for g in lo..hi {
            let tree = (g / per_tree) as usize;
            let idx = g % per_tree;
            trees[tree].push(from_morton(idx << shift, level));
        }

        let mut forest = Forest {
            conn,
            trees,
            markers: Vec::new(),
            counts: Vec::new(),
        };
        forest.update_meta(comm);
        forest
    }

    /// Assemble a forest from per-tree sorted leaf arrays (used by
    /// checkpoint restore). The caller guarantees global completeness.
    pub(crate) fn from_parts(
        conn: Arc<Connectivity<D>>,
        trees: Vec<Vec<Octant<D>>>,
        comm: &impl Communicator,
    ) -> Self {
        assert_eq!(trees.len(), conn.num_trees());
        let mut forest = Forest {
            conn,
            trees,
            markers: Vec::new(),
            counts: Vec::new(),
        };
        forest.update_meta(comm);
        forest
    }

    // ------------------------------------------------------------------
    // Metadata / queries
    // ------------------------------------------------------------------

    /// Recompute the shared partition metadata after any local change to
    /// the leaf arrays. One allgather of `(count, first octant)` per rank.
    pub(crate) fn update_meta(&mut self, comm: &impl Communicator) {
        let first = self.first_local();
        let mine: (u64, u32, Octant<D>) = match first {
            Some((t, o)) => (self.num_local() as u64, t, o),
            None => (0, 0, Octant::root()),
        };
        let all = comm.allgather(mine);
        let p = comm.size();
        self.counts = all.iter().map(|x| x.0).collect();
        let sentinel = (self.conn.num_trees() as TreeId, Octant::<D>::root());
        let mut markers = vec![sentinel; p + 1];
        for r in (0..p).rev() {
            markers[r] = if all[r].0 > 0 {
                (all[r].1, all[r].2)
            } else {
                markers[r + 1]
            };
        }
        self.markers = markers;
    }

    /// First locally owned `(tree, octant)`, in SFC order.
    pub fn first_local(&self) -> Option<(TreeId, Octant<D>)> {
        self.trees
            .iter()
            .enumerate()
            .find_map(|(t, v)| v.first().map(|o| (t as TreeId, *o)))
    }

    /// Number of locally owned octants.
    pub fn num_local(&self) -> usize {
        self.trees.iter().map(Vec::len).sum()
    }

    /// Global octant count (from the shared metadata; no communication).
    pub fn num_global(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Octant counts of every rank (shared metadata).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Local leaves of tree `t` (possibly empty).
    pub fn tree(&self, t: TreeId) -> &[Octant<D>] {
        &self.trees[t as usize]
    }

    pub(crate) fn tree_mut(&mut self, t: TreeId) -> &mut Vec<Octant<D>> {
        &mut self.trees[t as usize]
    }

    pub(crate) fn set_trees(&mut self, trees: Vec<Vec<Octant<D>>>) {
        self.trees = trees;
    }

    /// Iterate over all local `(tree, octant)` pairs in SFC order.
    pub fn iter_local(&self) -> impl Iterator<Item = (TreeId, &Octant<D>)> + '_ {
        self.trees
            .iter()
            .enumerate()
            .flat_map(|(t, v)| v.iter().map(move |o| (t as TreeId, o)))
    }

    /// Maximum local refinement level (0 if empty).
    pub fn max_local_level(&self) -> u8 {
        self.iter_local().map(|(_, o)| o.level).max().unwrap_or(0)
    }

    /// The rank owning the finest-level atom at the anchor of `o` in tree
    /// `t` — `O(log P)` binary search over the partition markers
    /// (paper §II-B).
    pub fn owner_of_atom(&self, t: TreeId, o: &Octant<D>) -> usize {
        debug_assert!(o.is_inside_root());
        let key = sfc_pos(t, &o.first_descendant(D::MAX_LEVEL));
        let idx = self.markers[..self.markers.len() - 1]
            .partition_point(|(mt, mo)| sfc_pos(*mt, mo) <= key);
        idx.saturating_sub(1)
    }

    /// The inclusive rank range owning leaves that overlap octant `o` of
    /// tree `t`.
    pub fn owner_range(&self, t: TreeId, o: &Octant<D>) -> (usize, usize) {
        let lo = self.owner_of_atom(t, &o.first_descendant(D::MAX_LEVEL));
        let hi = self.owner_of_atom(t, &o.last_descendant(D::MAX_LEVEL));
        (lo, hi)
    }

    /// Find the local leaf equal to or containing `o`, if this rank owns
    /// it — `O(log N_p)` binary search (paper §II-B).
    pub fn find_local_containing(&self, t: TreeId, o: &Octant<D>) -> Option<(usize, &Octant<D>)> {
        let leaves = self.tree(t);
        linear::find_containing(leaves, o).map(|i| (i, &leaves[i]))
    }

    // ------------------------------------------------------------------
    // Refine / Coarsen (communication-free)
    // ------------------------------------------------------------------

    /// `Refine`: subdivide local leaves flagged by `mark`, once or
    /// recursively. Purely local; call [`Forest::update_meta`]-requiring
    /// operations (`partition`, `balance`, `ghost`) afterwards — they
    /// refresh metadata themselves, but `refine` already keeps the shared
    /// counts in sync via one allgather.
    pub fn refine(
        &mut self,
        comm: &impl Communicator,
        recursive: bool,
        mut mark: impl FnMut(TreeId, &Octant<D>) -> bool,
    ) {
        let _span = forust_obs::span!("forest.refine");
        for t in 0..self.trees.len() {
            let leaves = &mut self.trees[t];
            linear::refine_marked(leaves, recursive, |o| mark(t as TreeId, o));
        }
        self.update_meta(comm);
    }

    /// `Coarsen`: replace complete sibling families flagged by `mark` with
    /// their parent, once or recursively. Only families fully owned by this
    /// rank are eligible (at most `P - 1` families straddle rank
    /// boundaries; a subsequent `partition` + `coarsen` collapses them).
    pub fn coarsen(
        &mut self,
        comm: &impl Communicator,
        recursive: bool,
        mut mark: impl FnMut(TreeId, &[Octant<D>]) -> bool,
    ) {
        let _span = forust_obs::span!("forest.coarsen");
        for t in 0..self.trees.len() {
            let leaves = &mut self.trees[t];
            linear::coarsen_marked(leaves, recursive, |fam| mark(t as TreeId, fam));
        }
        self.update_meta(comm);
    }

    // ------------------------------------------------------------------
    // Validity checking (test support; gathers globally — small forests!)
    // ------------------------------------------------------------------

    /// Check the full distributed invariant set, gathering every rank's
    /// leaves (test support — do not call on large forests):
    /// - each tree's union of leaves is a complete linear octree,
    /// - leaves are disjoint across ranks and SFC-ordered by rank,
    /// - the shared markers and counts match reality.
    pub fn check_valid(&self, comm: &impl Communicator) {
        // Local sortedness per tree.
        for (t, v) in self.trees.iter().enumerate() {
            assert!(linear::is_linear(v), "tree {t}: local leaves not linear");
        }
        // Counts match.
        assert_eq!(
            self.counts[comm.rank()],
            self.num_local() as u64,
            "shared count out of date"
        );
        // Marker matches first octant.
        if let Some((t, o)) = self.first_local() {
            assert_eq!(self.markers[comm.rank()], (t, o), "marker out of date");
        }
        // Global completeness per tree, and rank-ordered segments.
        let mine: Vec<(u32, Octant<D>)> = self.iter_local().map(|(t, o)| (t, *o)).collect();
        let all = comm.allgatherv(&mine);
        let mut global: Vec<(u32, Octant<D>)> = Vec::new();
        for (r, part) in all.iter().enumerate() {
            // Each rank's segment must start at or after the previous end.
            if let (Some(last), Some(first)) = (global.last(), part.first()) {
                assert!(
                    sfc_pos(last.0, &last.1) < sfc_pos(first.0, &first.1),
                    "rank {r}: segment overlaps predecessor"
                );
            }
            global.extend_from_slice(part);
        }
        for t in 0..self.conn.num_trees() {
            let leaves: Vec<Octant<D>> = global
                .iter()
                .filter(|(tt, _)| *tt == t as u32)
                .map(|(_, o)| *o)
                .collect();
            assert!(
                linear::is_complete(&leaves),
                "tree {t}: global leaf set not a complete octree ({} leaves)",
                leaves.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::dim::{D2, D3};
    use forust_comm::run_spmd;

    #[test]
    fn new_uniform_distributes_evenly() {
        let results = run_spmd(5, |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let f = Forest::<D3>::new_uniform(conn, comm, 1);
            f.check_valid(comm);
            (f.num_local(), f.num_global())
        });
        for (local, global) in results {
            assert_eq!(global, 48);
            assert!(local == 9 || local == 10);
        }
    }

    #[test]
    fn new_level_zero_leaves_ranks_empty() {
        let results = run_spmd(7, |comm| {
            let conn = Arc::new(builders::unit3d());
            let f = Forest::<D3>::new_uniform(conn, comm, 0);
            f.check_valid(comm);
            f.num_local()
        });
        assert_eq!(results.iter().sum::<usize>(), 1);
    }

    #[test]
    fn owner_of_atom_partitions_the_curve() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::brick2d(2, 1, false, false));
            let f = Forest::<D2>::new_uniform(conn, comm, 2);
            // Every rank agrees on ownership, and ownership matches
            // who actually stores the leaf.
            let mine: Vec<(u32, Octant<D2>)> = f.iter_local().map(|(t, o)| (t, *o)).collect();
            let all = comm.allgatherv(&mine);
            for (r, part) in all.iter().enumerate() {
                for (t, o) in part {
                    assert_eq!(f.owner_of_atom(*t, o), r);
                    assert_eq!(f.owner_range(*t, o), (r, r));
                }
            }
        });
    }

    #[test]
    fn refine_keeps_validity() {
        run_spmd(3, |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(conn, comm, 1);
            f.refine(comm, false, |_, o| o.child_id() == 0);
            f.check_valid(comm);
            assert_eq!(f.num_global(), 5 * (4 - 1 + 4));
        });
    }

    #[test]
    fn coarsen_then_refine_roundtrip() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::unit3d());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 2);
            let before = f.num_global();
            f.refine(comm, false, |_, _| true);
            assert_eq!(f.num_global(), before * 8);
            f.coarsen(comm, false, |_, _| true);
            f.check_valid(comm);
            // All families local to a rank collapse; at most P-1 straddle.
            assert!(f.num_global() <= before + 8);
        });
    }

    #[test]
    fn max_local_level_tracks_refinement() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::unit2d());
            let mut f = Forest::<D2>::new_uniform(conn, comm, 1);
            f.refine(comm, true, |_, o| o.level < 3 && o.child_id() == 3);
            let max = comm.allreduce_max_u64(f.max_local_level() as u64);
            assert_eq!(max, 3);
        });
    }
}
