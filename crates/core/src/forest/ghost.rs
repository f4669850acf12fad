//! `Ghost`: one layer of non-local octants around the local partition.
//!
//! For most applications "one layer of non-local elements, sorted in the
//! total order defined by the space-filling curve, provides sufficient
//! neighborhood information to associate and number the unknowns" (paper
//! §II-E). The ghost layer here includes face, edge *and* corner neighbors
//! (as p4est's does), which is what `Nodes` requires; octants are stored in
//! their owning tree's coordinate system together with their owner rank.
//!
//! The layer also records the *mirrors* — the local octants that appear in
//! other ranks' ghost layers — and per-rank index lists into them, which is
//! exactly what is needed to exchange per-octant payloads
//! ([`GhostLayer::exchange`], the analogue of `p4est_ghost_exchange_data`).

use forust_comm::{Communicator, Wire};

use crate::connectivity::TreeId;
use crate::dim::Dim;
use crate::forest::{sfc_pos, Forest, SfcPos};
use crate::octant::Octant;

/// The ghost layer of a forest at one partition state.
#[derive(Debug, Clone)]
pub struct GhostLayer<D: Dim> {
    /// Remote octants adjacent to the local partition, sorted by
    /// (tree, SFC key).
    pub ghosts: Vec<(TreeId, Octant<D>)>,
    /// Owner rank of each ghost (parallel to `ghosts`).
    pub ghost_owner: Vec<usize>,
    /// Local octants that appear in at least one other rank's ghost layer,
    /// sorted by (tree, SFC key).
    pub mirrors: Vec<(TreeId, Octant<D>)>,
    /// For each rank, the indices into `mirrors` of the octants that rank
    /// holds as ghosts (each list sorted ascending).
    pub mirror_idx_by_rank: Vec<Vec<usize>>,
}

impl<D: Dim> GhostLayer<D> {
    /// Binary-search a ghost octant; returns its index in `ghosts`.
    pub fn find(&self, tree: TreeId, o: &Octant<D>) -> Option<usize> {
        let key = sfc_pos(tree, o);
        let idx = self.ghosts.partition_point(|(t, g)| sfc_pos(*t, g) < key);
        (idx < self.ghosts.len() && self.ghosts[idx] == (tree, *o)).then_some(idx)
    }

    /// Binary-search the ghost equal to or containing `o`.
    pub fn find_containing(&self, tree: TreeId, o: &Octant<D>) -> Option<usize> {
        let probe = sfc_pos(tree, &o.first_descendant(D::MAX_LEVEL));
        let idx = self
            .ghosts
            .partition_point(|(t, g)| sfc_pos(*t, g) <= probe);
        if idx == 0 {
            return None;
        }
        let (t, g) = &self.ghosts[idx - 1];
        (*t == tree && g.contains(o)).then_some(idx - 1)
    }

    /// Exchange one fixed-size payload per octant across the partition
    /// boundary: `mirror_values[i]` belongs to `mirrors[i]`; the result is
    /// aligned with `ghosts` (one value per ghost octant). Blocking: one
    /// all-to-all.
    pub fn exchange<T: Wire + Clone>(
        &self,
        comm: &impl Communicator,
        mirror_values: &[T],
    ) -> Vec<T> {
        assert_eq!(mirror_values.len(), self.mirrors.len());
        let outgoing: Vec<Vec<T>> = self
            .mirror_idx_by_rank
            .iter()
            .map(|idx| idx.iter().map(|&i| mirror_values[i].clone()).collect())
            .collect();
        let incoming = comm.alltoallv(outgoing);
        // Ghosts are grouped by owner rank in ascending rank order (their
        // SFC segments are rank-ordered), so we pop from each rank's
        // incoming buffer in ghost order.
        let mut cursors = vec![0usize; incoming.len()];
        let mut out = Vec::with_capacity(self.ghosts.len());
        for &owner in &self.ghost_owner {
            out.push(incoming[owner][cursors[owner]].clone());
            cursors[owner] += 1;
        }
        for (r, &c) in cursors.iter().enumerate() {
            assert_eq!(
                c,
                incoming[r].len(),
                "ghost exchange miscount from rank {r}"
            );
        }
        out
    }
}

/// Closed-box contact test within one tree frame.
fn touch<D: Dim>(a: &Octant<D>, b: &Octant<D>) -> bool {
    let (al, bl) = (a.len(), b.len());
    (0..D::DIM as usize).all(|d| {
        let (a0, a1) = (a.coords()[d], a.coords()[d] + al);
        let (b0, b1) = (b.coords()[d], b.coords()[d] + bl);
        a0 <= b1 && b0 <= a1
    })
}

/// Recursive owner descent: find every rank owning a leaf that
/// touches `o`, restricted to the sub-region `n` (in `o`'s frame).
/// If the routed image of `n` has a single owner, that owner's
/// leaves tile `n`, so one of them realizes the contact — exact.
fn descend<D: Dim>(
    f: &Forest<D>,
    t: TreeId,
    o: &Octant<D>,
    n: &Octant<D>,
    me: usize,
    out: &mut impl FnMut(usize),
) {
    if !touch(o, n) {
        return;
    }
    for (k2, s, _) in f.conn.exterior_images_routed(t, n) {
        let (rlo, rhi) = f.owner_range(k2, &s);
        if rlo == rhi {
            if rlo != me {
                out(rlo);
            }
        } else {
            debug_assert!(n.level < D::MAX_LEVEL);
            for c in n.children() {
                descend(f, t, o, &c, me, out);
            }
            return; // children of n cover all images
        }
    }
}

/// The ranks other than `me` owning a leaf that touches leaf `o` of tree
/// `t`: the owner descent over its 26 (8 in 2D) same-size neighbor
/// regions, sorted and deduplicated into `ranks`.
fn owners_touching<D: Dim>(
    f: &Forest<D>,
    t: TreeId,
    o: &Octant<D>,
    me: usize,
    ranks: &mut Vec<usize>,
) {
    ranks.clear();
    let zrange: &[i32] = if D::DIM == 3 { &[-1, 0, 1] } else { &[0] };
    for &dz in zrange {
        for dy in [-1i32, 0, 1] {
            for dx in [-1i32, 0, 1] {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                descend(f, t, o, &o.neighbor(dx, dy, dz), me, &mut |r| ranks.push(r));
            }
        }
    }
    ranks.sort_unstable();
    ranks.dedup();
}

/// Is the entire insulation layer of branch `b` of tree `t` — `b` itself
/// plus every routed image of its 26 (resp. 8 in 2D) same-size neighbor
/// regions — owned exclusively by rank `me`?
///
/// If so, no leaf below `b` can contribute to any ghost layer: a leaf
/// `l ⊆ b` has neighbor regions whose per-axis extents are `l.len()`-
/// aligned, and `b`'s boundary planes are multiples of `b.len()` (itself
/// a multiple of `l.len()`), so each of `l`'s neighbor regions is
/// contained in exactly one of `b`'s 27 boxes — whose images all have a
/// single owner `me`. The per-leaf `descend` would therefore emit
/// nothing for any leaf in `b`.
fn insulation_local<D: Dim>(f: &Forest<D>, t: TreeId, b: &Octant<D>, me: usize) -> bool {
    if f.owner_range(t, b) != (me, me) {
        return false;
    }
    let zrange: &[i32] = if D::DIM == 3 { &[-1, 0, 1] } else { &[0] };
    for &dz in zrange {
        for dy in [-1i32, 0, 1] {
            for dx in [-1i32, 0, 1] {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                let n = b.neighbor(dx, dy, dz);
                for (k2, s, _) in f.conn.exterior_images_routed(t, &n) {
                    if f.owner_range(k2, &s) != (me, me) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Top-down insulation walk (Isaac et al., arXiv:1406.0089): collect the
/// leaves of `b` whose insulation layer is *not* entirely local — the
/// only leaves the per-leaf descent can emit ghosts for. Whole interior
/// subtrees are pruned with one insulation test at their root. `leaves`
/// is the SFC-sorted slice of `b`'s leaf descendants.
fn prune_walk<D: Dim>(
    f: &Forest<D>,
    t: TreeId,
    b: &Octant<D>,
    leaves: &[Octant<D>],
    me: usize,
    out: &mut Vec<(u32, Octant<D>)>,
) {
    if leaves.is_empty() || insulation_local(f, t, b, me) {
        return;
    }
    if leaves.len() == 1 && leaves[0] == *b {
        out.push((t, *b));
        return;
    }
    // The slice is SFC-sorted, so each child's descendants are one
    // contiguous sub-slice, in child order.
    let mut rest = leaves;
    for c in b.children() {
        let n = rest.partition_point(|o| c.contains(o));
        let (head, tail) = rest.split_at(n);
        prune_walk(f, t, &c, head, me, out);
        rest = tail;
    }
    debug_assert!(rest.is_empty());
}

/// Chunk grain for the pool fan-out over boundary leaves. Fixed so chunk
/// boundaries depend only on the boundary-leaf count, never the worker
/// count (the PR-7 determinism contract).
const GHOST_GRAIN: usize = 128;

impl<D: Dim> Forest<D> {
    /// Build the ghost layer: collect one layer of remote octants touching
    /// the local partition across faces, edges and corners.
    ///
    /// Recursive formulation: a top-down walk over each local tree prunes
    /// every subtree whose insulation layer is entirely local
    /// (`prune_walk`), so the exact per-leaf owner descent only runs on
    /// the partition-boundary leaves that survive — on a single rank the
    /// walk prunes at the tree roots and the whole pass is `O(trees)`.
    /// The surviving leaves fan out across the PR-7 worker pool with a
    /// fixed chunk grain; every downstream list is sorted + deduplicated
    /// along the curve, so the result is bitwise identical to the
    /// retained per-leaf oracle ([`Forest::ghost_reference`]) for any
    /// worker count (the fuzz suite asserts full [`GhostLayer`] equality).
    ///
    /// Communication: one all-to-all whose volume scales with the number of
    /// octants on partition boundaries, as the paper describes.
    pub fn ghost(&self, comm: &impl Communicator) -> GhostLayer<D> {
        let _span = forust_obs::span!("forest.ghost");
        let p = comm.size();
        let me = comm.rank();

        // Phase 1: recursive insulation walk — the candidate leaves.
        let mut boundary: Vec<(u32, Octant<D>)> = Vec::new();
        for t in 0..self.conn.num_trees() as u32 {
            prune_walk(self, t, &Octant::root(), self.tree(t), me, &mut boundary);
        }

        // Phase 2: exact per-leaf owner descent over the survivors,
        // pool-parallel with deterministic chunking.
        let mut per_rank: Vec<Vec<(u32, Octant<D>)>> = (0..p).map(|_| Vec::new()).collect();
        {
            let this: &Self = self;
            let items = &boundary[..];
            forust_pool::par_map_reduce(
                items.len(),
                GHOST_GRAIN,
                |range, _| {
                    // One flat `(rank, tree, leaf)` list, bucketed in the
                    // ordered fold: per rank, chunk order then item order.
                    let mut routed: Vec<(u32, u32, Octant<D>)> = Vec::new();
                    let mut ranks: Vec<usize> = Vec::new();
                    for &(t, o) in &items[range] {
                        owners_touching(this, t, &o, me, &mut ranks);
                        routed.extend(ranks.iter().map(|&r| (r as u32, t, o)));
                    }
                    routed
                },
                |routed| {
                    for (r, t, o) in routed {
                        per_rank[r as usize].push((t, o));
                    }
                },
            );
        }

        self.ghost_finish(comm, per_rank)
    }

    /// The per-leaf formulation of [`Forest::ghost`], retained as its
    /// equivalence oracle: the same owner descent on **every** local leaf,
    /// serially — no insulation pruning and no pool. The fuzz suite
    /// asserts both construct bitwise-identical ghost layers across rank
    /// and worker counts. Not public API.
    #[doc(hidden)]
    pub fn ghost_reference(&self, comm: &impl Communicator) -> GhostLayer<D> {
        let mut per_rank: Vec<Vec<(u32, Octant<D>)>> =
            (0..comm.size()).map(|_| Vec::new()).collect();
        let mut ranks: Vec<usize> = Vec::new();
        for (t, o) in self.iter_local() {
            owners_touching(self, t, o, comm.rank(), &mut ranks);
            for &r in &ranks {
                per_rank[r].push((t, *o));
            }
        }
        self.ghost_finish(comm, per_rank)
    }

    /// Shared tail of both ghost constructions: each rank's send list in
    /// curve order, mirrors, per-rank mirror indices, and the one
    /// all-to-all that delivers the ghost octants.
    fn ghost_finish(
        &self,
        comm: &impl Communicator,
        mut per_rank: Vec<Vec<(u32, Octant<D>)>>,
    ) -> GhostLayer<D> {
        for v in &mut per_rank {
            v.sort_by_cached_key(|(t, o)| sfc_pos(*t, o));
            v.dedup();
        }
        // Mirrors: union of all per-rank send lists, with their SFC keys
        // interleaved once and reused for every binary search below.
        let mut mirrors: Vec<(u32, Octant<D>)> = per_rank.iter().flatten().copied().collect();
        mirrors.sort_by_cached_key(|(t, o)| sfc_pos(*t, o));
        mirrors.dedup();
        let mirror_keys: Vec<SfcPos> = mirrors.iter().map(|(t, o)| sfc_pos(*t, o)).collect();
        let mirror_idx_by_rank: Vec<Vec<usize>> = per_rank
            .iter()
            .map(|v| {
                v.iter()
                    .map(|x| {
                        mirror_keys
                            .binary_search(&sfc_pos(x.0, &x.1))
                            .expect("mirror must be present")
                    })
                    .collect()
            })
            .collect();

        // The actual exchange: each rank receives its ghost octants.
        let incoming = comm.alltoallv(per_rank);
        let mut ghosts = Vec::new();
        let mut ghost_owner = Vec::new();
        for (r, part) in incoming.into_iter().enumerate() {
            for x in part {
                ghosts.push(x);
                ghost_owner.push(r);
            }
        }
        debug_assert!(
            ghosts
                .windows(2)
                .all(|w| sfc_pos(w[0].0, &w[0].1) < sfc_pos(w[1].0, &w[1].1)),
            "ghost layer must be globally sorted"
        );

        GhostLayer {
            ghosts,
            ghost_owner,
            mirrors,
            mirror_idx_by_rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::dim::{D2, D3};
    use crate::forest::BalanceType;
    use forust_comm::run_spmd;
    use std::sync::Arc;

    /// Independent oracle: do leaf `o` of tree `t` and leaf `g` of tree
    /// `t2` share at least one point of the domain?
    ///
    /// Characterized entity by entity: same-tree contact is a closed-box
    /// intersection; across a shared macro-face, `o`'s box is mapped by the
    /// affine face transform and intersected; across a shared macro-edge,
    /// both must touch the edge line and their run-intervals must meet;
    /// across a shared macro-corner, both must contain the corner point.
    fn touches_oracle<D: Dim>(
        conn: &crate::connectivity::Connectivity<D>,
        t: u32,
        o: &Octant<D>,
        t2: u32,
        g: &Octant<D>,
    ) -> bool {
        let big = D::root_len();
        let boxes_touch = |a: [i32; 3], al: i32, b: [i32; 3], bl: i32| {
            (0..D::DIM as usize).all(|d| a[d] <= b[d] + bl && b[d] <= a[d] + al)
        };
        if t == t2 && boxes_touch(o.coords(), o.len(), g.coords(), g.len()) {
            return true;
        }
        // Across macro-faces (covers face, face-edge and face-corner
        // contact, since the affine map extends to all of space).
        for fc in 0..D::FACES {
            let on_face = if D::face_positive(fc) {
                o.coords()[D::face_axis(fc)] + o.len() == big
            } else {
                o.coords()[D::face_axis(fc)] == 0
            };
            if !on_face {
                continue;
            }
            if let Some(tr) = conn.face_transform(t, fc) {
                if tr.target != t2 {
                    continue;
                }
                let lo = tr.apply_point(o.coords());
                let hi = tr.apply_point([
                    o.coords()[0] + o.len(),
                    o.coords()[1] + o.len(),
                    o.coords()[2] + if D::DIM == 3 { o.len() } else { 0 },
                ]);
                let bmin = [lo[0].min(hi[0]), lo[1].min(hi[1]), lo[2].min(hi[2])];
                if boxes_touch(bmin, o.len(), g.coords(), g.len()) {
                    return true;
                }
            }
        }
        // Across macro-edges (3D).
        for e in 0..D::EDGES {
            let axis = D::edge_axis(e);
            let bits = e % 4;
            let mut on_edge = true;
            let mut b = 0;
            for d in 0..3 {
                if d == axis {
                    continue;
                }
                let want_high = (bits >> b) & 1 == 1;
                b += 1;
                let c = o.coords()[d];
                on_edge &= if want_high {
                    c + o.len() == big
                } else {
                    c == 0
                };
            }
            if !on_edge {
                continue;
            }
            for nb in conn.edge_neighbors(t, e) {
                if nb.tree != t2 || (nb.tree == t && nb.edge == e) {
                    continue;
                }
                // g must touch nb's edge line.
                let axis2 = D::edge_axis(nb.edge);
                let bits2 = nb.edge % 4;
                let mut g_on = true;
                let mut b2 = 0;
                for d in 0..3 {
                    if d == axis2 {
                        continue;
                    }
                    let want_high = (bits2 >> b2) & 1 == 1;
                    b2 += 1;
                    let c = g.coords()[d];
                    g_on &= if want_high {
                        c + g.len() == big
                    } else {
                        c == 0
                    };
                }
                if !g_on {
                    continue;
                }
                // Run-interval intersection (closed), with orientation.
                let (o0, o1) = (o.coords()[axis], o.coords()[axis] + o.len());
                let (m0, m1) = if nb.reversed {
                    (big - o1, big - o0)
                } else {
                    (o0, o1)
                };
                let (g0, g1) = (g.coords()[axis2], g.coords()[axis2] + g.len());
                if m0 <= g1 && g0 <= m1 {
                    return true;
                }
            }
        }
        // Across macro-corners.
        for c in 0..D::CORNERS {
            let off = D::corner_offset(c);
            let at = |d: usize| {
                if off[d] == 1 {
                    o.coords()[d] + o.len() == big
                } else {
                    o.coords()[d] == 0
                }
            };
            let on_corner = (0..D::DIM as usize).all(at);
            if !on_corner {
                continue;
            }
            for nb in conn.corner_neighbors(t, c) {
                if nb.tree != t2 || (nb.tree == t && nb.corner == c) {
                    continue;
                }
                let off2 = D::corner_offset(nb.corner);
                let g_at = |d: usize| {
                    if off2[d] == 1 {
                        g.coords()[d] + g.len() == big
                    } else {
                        g.coords()[d] == 0
                    }
                };
                if (0..D::DIM as usize).all(g_at) {
                    return true;
                }
            }
        }
        false
    }

    /// Brute-force ghost layer: gather everything, keep each remote leaf
    /// that shares at least one point with some local leaf.
    fn brute_force_ghosts<D: Dim>(
        f: &Forest<D>,
        comm: &impl Communicator,
    ) -> Vec<(u32, Octant<D>)> {
        let mine: Vec<(u32, Octant<D>)> = f.iter_local().map(|(t, o)| (t, *o)).collect();
        let all = comm.allgatherv(&mine);
        let me = comm.rank();
        let mut out = Vec::new();
        for (r, part) in all.iter().enumerate() {
            if r == me {
                continue;
            }
            for (t2, g) in part {
                let is_ghost = f
                    .iter_local()
                    .any(|(t, o)| touches_oracle(&f.conn, t, o, *t2, g));
                if is_ghost {
                    out.push((*t2, *g));
                }
            }
        }
        out.sort_by_cached_key(|(t, o)| sfc_pos(*t, o));
        out.dedup();
        out
    }

    #[test]
    fn ghost_matches_brute_force_uniform() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::brick2d(2, 2, false, false));
            let f = Forest::<D2>::new_uniform(conn, comm, 2);
            let ghost = f.ghost(comm);
            let expect = brute_force_ghosts(&f, comm);
            assert_eq!(ghost.ghosts, expect, "rank {}", comm.rank());
        });
    }

    #[test]
    fn ghost_matches_brute_force_adapted_3d() {
        run_spmd(3, |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 1);
            f.refine(comm, true, |t, o| {
                t == 0 && o.level < 3 && o.y == 0 && o.z == 0
            });
            f.balance(comm, BalanceType::Full);
            f.partition(comm);
            let ghost = f.ghost(comm);
            let expect = brute_force_ghosts(&f, comm);
            assert_eq!(ghost.ghosts, expect, "rank {}", comm.rank());
        });
    }

    #[test]
    fn ghost_owners_are_consistent() {
        run_spmd(5, |comm| {
            let conn = Arc::new(builders::cubed_sphere());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 1);
            f.partition(comm);
            let ghost = f.ghost(comm);
            for ((t, o), &r) in ghost.ghosts.iter().zip(&ghost.ghost_owner) {
                assert_ne!(r, comm.rank(), "own octant in ghost layer");
                assert_eq!(f.owner_of_atom(*t, o), r);
            }
        });
    }

    #[test]
    fn ghost_exchange_roundtrip() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::brick3d([2, 1, 1], [false; 3]));
            let mut f = Forest::<D3>::new_uniform(conn, comm, 2);
            f.partition(comm);
            let ghost = f.ghost(comm);
            // Payload: (rank, morton) of the mirror octant.
            let values: Vec<(u64, u64)> = ghost
                .mirrors
                .iter()
                .map(|(t, o)| (comm.rank() as u64, (*t as u64) << 60 | o.morton()))
                .collect();
            let recv = ghost.exchange(comm, &values);
            assert_eq!(recv.len(), ghost.ghosts.len());
            for (i, (t, o)) in ghost.ghosts.iter().enumerate() {
                assert_eq!(recv[i].0, ghost.ghost_owner[i] as u64);
                assert_eq!(recv[i].1, (*t as u64) << 60 | o.morton());
            }
        });
    }

    #[test]
    fn mirrors_and_ghosts_are_dual() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::moebius());
            let f = Forest::<D2>::new_uniform(conn, comm, 2);
            let ghost = f.ghost(comm);
            // Σ |ghosts| == Σ Σ_r |mirror list for r| across all ranks.
            let total_ghosts = comm.allreduce_sum_u64(ghost.ghosts.len() as u64);
            let my_sends: u64 = ghost
                .mirror_idx_by_rank
                .iter()
                .map(|v| v.len() as u64)
                .sum();
            let total_sends = comm.allreduce_sum_u64(my_sends);
            assert_eq!(total_ghosts, total_sends);
        });
    }
}
