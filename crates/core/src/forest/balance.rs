//! `Balance`: enforce 2:1 size relations between neighboring octants.
//!
//! The paper guarantees at most 2:1 size relations "both for octants within
//! the same octree and for octants that belong to different octrees and
//! connect through an octree macro-face, -edge, or -corner" (§II-B). The
//! implementation here uses the classic insulation-layer formulation: a
//! forest is balanced iff for every leaf `o` and every same-size neighbor
//! region `n` of `o` (across faces, edges and corners, routed through the
//! connectivity at tree boundaries), no leaf coarser than `level(o) - 1`
//! overlaps `n`.
//!
//! The algorithm is a worklist-driven ripple iterated to a global fixed
//! point: every leaf emits *requirements* for its neighbor regions;
//! requirements whose region is owned locally are enforced immediately
//! (splitting too-coarse leaves, whose children re-enter the worklist),
//! remote ones are exchanged with the owner ranks each round; an
//! `Allreduce` certifies convergence. Refinement is monotone and bounded
//! by `MAX_LEVEL`, so the ripple terminates. This favors simplicity over
//! p4est's single-pass formulation but computes the same closure, and its
//! communication volume likewise scales with the number of octants on
//! partition boundaries.

use forust_comm::Communicator;

use crate::connectivity::TreeId;
use crate::dim::Dim;
use crate::forest::{sfc_pos, Forest};
use crate::linear;
use crate::octant::Octant;

/// Chunk grain for parallel requirement emission. Fixed so the chunk
/// boundaries (and therefore the fold order) are a function of the
/// worklist length only, never of the worker count.
const BALANCE_GRAIN: usize = 64;

/// Which neighbor relations the 2:1 balance must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceType {
    /// Balance across faces only.
    Face,
    /// Balance across faces and edges (3D; equals `Face` in 2D).
    FaceEdge,
    /// Balance across faces, edges and corners (the paper's setting).
    Full,
}

impl BalanceType {
    /// Maximum number of nonzero direction components to insulate.
    fn max_codim(&self, dim: u32) -> usize {
        match self {
            BalanceType::Face => 1,
            BalanceType::FaceEdge => 2.min(dim as usize),
            BalanceType::Full => dim as usize,
        }
    }
}

/// All direction vectors with 1..=max_codim nonzero components.
fn directions<D: Dim>(btype: BalanceType) -> Vec<[i32; 3]> {
    let zrange: &[i32] = if D::DIM == 3 { &[-1, 0, 1] } else { &[0] };
    let mut dirs = Vec::new();
    for &dz in zrange {
        for dy in [-1, 0, 1] {
            for dx in [-1, 0, 1] {
                let nz = (dx != 0) as usize + (dy != 0) as usize + (dz != 0) as usize;
                if nz >= 1 && nz <= btype.max_codim(D::DIM) {
                    dirs.push([dx, dy, dz]);
                }
            }
        }
    }
    dirs
}

/// Apply one round's insulation requirements to one tree's leaf array in
/// a single linear rebuild pass.
///
/// A requirement `m` demands that the leaf containing `m` (if any single
/// leaf does) be at most one level coarser than `m`. Requirements are
/// sorted along the curve once; the leaf array and the requirement list
/// are then walked in tandem, so each leaf sees exactly the contiguous
/// run of requirements it contains and too-coarse leaves are expanded
/// in place into the output. Every created octant is pushed onto `work`
/// (it seeds the next round, exactly as in the ripple formulation).
fn apply_requirements<D: Dim>(
    leaves: &mut Vec<Octant<D>>,
    reqs: &[Octant<D>],
    t: TreeId,
    work: &mut Vec<(TreeId, Octant<D>)>,
) {
    // Key every requirement once; all later ordering is key-only.
    let mut keyed: Vec<((u64, u8), Octant<D>)> = reqs.iter().map(|m| (m.sfc_key(), *m)).collect();
    keyed.sort_unstable_by_key(|(k, _)| *k);
    keyed.dedup_by_key(|(k, _)| *k);
    let old = std::mem::take(leaves);
    let mut out: Vec<Octant<D>> = Vec::with_capacity(old.len());
    let mut ri = 0;
    for leaf in old {
        // Requirements sorting before this leaf are ancestors of earlier
        // leaves or of `leaf` itself: covered by finer leaves, satisfied.
        let lkey = leaf.sfc_key();
        while ri < keyed.len() && keyed[ri].0 < lkey {
            ri += 1;
        }
        // Requirements contained in `leaf` form a contiguous run: their
        // keys lie in [leaf, last finest descendant of leaf].
        let last = leaf.last_descendant(D::MAX_LEVEL).sfc_key();
        let start = ri;
        while ri < keyed.len() && keyed[ri].0 <= last {
            ri += 1;
        }
        let run = &keyed[start..ri];
        if run.iter().any(|(_, m)| m.level > leaf.level + 1) {
            expand(leaf, run, t, &mut out, work);
        } else {
            out.push(leaf);
        }
    }
    *leaves = out;
}

/// Split `oct` into children and recurse toward every requirement in
/// `reqs` (all contained in `oct`, SFC-sorted, keys precomputed) that is
/// still more than one level finer, emitting the resulting leaves onto
/// `out` in SFC order. All created octants join `work`.
fn expand<D: Dim>(
    oct: Octant<D>,
    reqs: &[((u64, u8), Octant<D>)],
    t: TreeId,
    out: &mut Vec<Octant<D>>,
    work: &mut Vec<(TreeId, Octant<D>)>,
) {
    let mut ri = 0;
    for i in 0..D::CHILDREN {
        let c = oct.child(i);
        work.push((t, c));
        let last = c.last_descendant(D::MAX_LEVEL).sfc_key();
        let start = ri;
        while ri < reqs.len() && reqs[ri].0 <= last {
            ri += 1;
        }
        let run = &reqs[start..ri];
        if run.iter().any(|(_, m)| m.level > c.level + 1) {
            expand(c, run, t, out, work);
        } else {
            out.push(c);
        }
    }
}

impl<D: Dim> Forest<D> {
    /// Enforce 2:1 balance by local refinement (octants only ever split,
    /// never merge). Mirrors p4est `Balance`.
    ///
    /// This is the recursive-era formulation (Isaac et al.,
    /// arXiv:1406.0089): each **outer** round first drives the *local*
    /// closure to its fixed point without touching the network — worklist
    /// octants emit insulation requirements (pool-parallel with fixed
    /// chunking), locally-owned requirements are applied per tree in one
    /// linear rebuild pass (`apply_requirements`, whose `expand` recursion
    /// is PR 2's top-down refinement), and the created octants re-enter
    /// the inner loop — while requirements destined for other ranks
    /// accumulate on the side. Only then does one `Alltoallv` ship the
    /// accumulated remote requirements, and an `Allreduce` certifies the
    /// global fixed point. Interior neighbor regions (the vast majority)
    /// skip the exterior-image machinery entirely. Refinement is monotone
    /// and bounded by `MAX_LEVEL`, so the iteration terminates, and the
    /// closure operator is confluent, so the result is the same least
    /// fixed point as the retained oracle, the one-split-at-a-time ripple
    /// ([`Forest::balance_ripple`], which the fuzz suite compares against).
    pub fn balance(&mut self, comm: &impl Communicator, btype: BalanceType) {
        let _span = forust_obs::span!("forest.balance");
        let p = comm.size();
        let me = comm.rank();
        let dirs = directions::<D>(btype);
        // Round 0: every local leaf's insulation could be violated.
        let mut work: Vec<(TreeId, Octant<D>)> = self.iter_local().map(|(t, o)| (t, *o)).collect();

        loop {
            let mut remote: Vec<Vec<(u32, Octant<D>)>> = (0..p).map(|_| Vec::new()).collect();
            // Inner loop: local closure. No communication happens here;
            // remote requirements pile up in `remote` across iterations.
            while !work.is_empty() {
                let mut pending: Vec<Vec<Octant<D>>> = vec![Vec::new(); self.conn.num_trees()];
                {
                    let this = &*self;
                    let items = &work[..];
                    let dirs = &dirs[..];
                    forust_pool::par_map_reduce(
                        items.len(),
                        BALANCE_GRAIN,
                        |range, _| {
                            let mut rem: Vec<Vec<(u32, Octant<D>)>> =
                                (0..p).map(|_| Vec::new()).collect();
                            let mut pend: Vec<Vec<Octant<D>>> =
                                vec![Vec::new(); this.conn.num_trees()];
                            for &(t, o) in &items[range] {
                                // A requirement at level o.level - 1 <= 0
                                // never splits.
                                if o.level <= 1 {
                                    continue;
                                }
                                for d in dirs {
                                    let n = o.neighbor(d[0], d[1], d[2]);
                                    // Fast path: an interior region is its
                                    // own (only) image — skip the
                                    // exterior-image allocation.
                                    if n.is_inside_root() {
                                        let (rlo, rhi) = this.owner_range(t, &n);
                                        if rlo != rhi {
                                            continue;
                                        }
                                        if rlo == me {
                                            pend[t as usize].push(n);
                                        } else {
                                            rem[rlo].push((t, n));
                                        }
                                        continue;
                                    }
                                    for (k2, m) in this.conn.exterior_images(t, &n) {
                                        let (rlo, rhi) = this.owner_range(k2, &m);
                                        if rlo != rhi {
                                            // The region spans ranks, so every
                                            // overlapping leaf is finer than m:
                                            // nothing to enforce.
                                            continue;
                                        }
                                        if rlo == me {
                                            pend[k2 as usize].push(m);
                                        } else {
                                            rem[rlo].push((k2, m));
                                        }
                                    }
                                }
                            }
                            (rem, pend)
                        },
                        |(rem, pend)| {
                            for (dst, src) in remote.iter_mut().zip(rem) {
                                dst.extend(src);
                            }
                            for (dst, src) in pending.iter_mut().zip(pend) {
                                dst.extend(src);
                            }
                        },
                    );
                }
                work.clear();
                for (ti, reqs) in pending.iter().enumerate() {
                    if !reqs.is_empty() {
                        let t = ti as TreeId;
                        apply_requirements(self.tree_mut(t), reqs, t, &mut work);
                    }
                }
            }
            for v in &mut remote {
                v.sort_by_cached_key(|(t, o)| sfc_pos(*t, o));
                v.dedup();
            }
            let incoming = comm.alltoallv(remote);
            let mut pending: Vec<Vec<Octant<D>>> = vec![Vec::new(); self.conn.num_trees()];
            for part in incoming {
                for (t, m) in part {
                    pending[t as usize].push(m);
                }
            }
            for (ti, reqs) in pending.iter().enumerate() {
                if !reqs.is_empty() {
                    let t = ti as TreeId;
                    apply_requirements(self.tree_mut(t), reqs, t, &mut work);
                }
            }
            if !comm.allreduce_or(!work.is_empty()) {
                break;
            }
        }
        self.update_meta(comm);
    }

    /// The original one-split-at-a-time ripple formulation of
    /// [`Forest::balance`], retained verbatim as the equivalence oracle
    /// for the batched implementation: the randomized fuzz suite asserts
    /// both produce octant-for-octant identical forests. Not public API.
    #[doc(hidden)]
    pub fn balance_ripple(&mut self, comm: &impl Communicator, btype: BalanceType) {
        let p = comm.size();
        let me = comm.rank();
        let dirs = directions::<D>(btype);
        let mut work: Vec<(TreeId, Octant<D>)> = self.iter_local().map(|(t, o)| (t, *o)).collect();

        loop {
            let mut remote: Vec<Vec<(u32, Octant<D>)>> = (0..p).map(|_| Vec::new()).collect();
            while let Some((t, o)) = work.pop() {
                if o.level <= 1 {
                    continue;
                }
                for d in &dirs {
                    let n = o.neighbor(d[0], d[1], d[2]);
                    for (k2, m) in self.conn.exterior_images(t, &n) {
                        let (rlo, rhi) = self.owner_range(k2, &m);
                        if rlo != rhi {
                            continue;
                        }
                        if rlo == me {
                            self.enforce_ripple(k2, &m, &mut work);
                        } else {
                            remote[rlo].push((k2, m));
                        }
                    }
                }
            }
            for v in &mut remote {
                v.sort_by_cached_key(|(t, o)| sfc_pos(*t, o));
                v.dedup();
            }
            let incoming = comm.alltoallv(remote);
            for part in incoming {
                for (t, m) in part {
                    self.enforce_ripple(t, &m, &mut work);
                }
            }
            if !comm.allreduce_or(!work.is_empty()) {
                break;
            }
        }
        self.update_meta(comm);
    }

    /// Enforce one requirement by per-split `Vec::splice` (oracle only):
    /// the leaf containing `m` (if any) must be at most one level coarser
    /// than `m`. Splits cascade toward `m`; every newly created leaf
    /// joins the worklist.
    fn enforce_ripple(&mut self, t: TreeId, m: &Octant<D>, work: &mut Vec<(TreeId, Octant<D>)>) {
        loop {
            let leaves = self.tree(t);
            let Some(idx) = linear::find_containing(leaves, m) else {
                return; // covered by finer leaves: satisfied
            };
            let leaf = leaves[idx];
            if leaf.level + 1 >= m.level {
                return;
            }
            let children = leaf.children();
            let tree = self.tree_mut(t);
            tree.splice(idx..idx + 1, children.iter().copied());
            for c in children {
                work.push((t, c));
            }
        }
    }

    /// Brute-force global 2:1 check (test support; gathers all leaves).
    pub fn check_balanced(&self, comm: &impl Communicator, btype: BalanceType) {
        let mine: Vec<(u32, Octant<D>)> = self.iter_local().map(|(t, o)| (t, *o)).collect();
        let all: Vec<(u32, Octant<D>)> = comm.allgatherv(&mine).into_iter().flatten().collect();
        let mut by_tree: Vec<Vec<Octant<D>>> = vec![Vec::new(); self.conn.num_trees()];
        for (t, o) in &all {
            by_tree[*t as usize].push(*o);
        }
        for v in &mut by_tree {
            v.sort();
        }
        let dirs = directions::<D>(btype);
        for (t, o) in &all {
            if o.level <= 1 {
                continue;
            }
            for d in &dirs {
                let n = o.neighbor(d[0], d[1], d[2]);
                for (k2, m) in self.conn.exterior_images(*t, &n) {
                    if let Some(i) = linear::find_containing(&by_tree[k2 as usize], &m) {
                        let leaf = by_tree[k2 as usize][i];
                        assert!(
                            leaf.level + 1 >= o.level,
                            "unbalanced: tree {t} leaf {o:?} vs tree {k2} leaf {leaf:?}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::dim::{D2, D3};
    use forust_comm::run_spmd;
    use std::sync::Arc;

    /// A single deep refinement point forces a cascade of splits across
    /// the whole domain.
    #[test]
    fn balance_cascades_within_tree() {
        run_spmd(3, |comm| {
            let conn = Arc::new(builders::unit2d());
            let mut f = Forest::<D2>::new_uniform(conn, comm, 1);
            // Refine toward the domain center from the lower-left quadrant:
            // the deep leaves there abut coarse level-1 leaves across the
            // center lines, forcing a grading cascade.
            let mid = D2::root_len() / 2;
            f.refine(comm, true, |_, o| {
                o.level < 5 && o.x + o.len() == mid && o.y + o.len() == mid
            });
            let before = f.num_global();
            f.balance(comm, BalanceType::Full);
            f.check_valid(comm);
            f.check_balanced(comm, BalanceType::Full);
            let total = f.num_global();
            assert!(
                total > before,
                "balance must have added octants: {before} -> {total}"
            );
        });
    }

    #[test]
    fn balance_is_idempotent() {
        run_spmd(4, |comm| {
            let conn = Arc::new(builders::unit3d());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 1);
            f.refine(comm, true, |_, o| {
                o.level < 4 && o.x == 0 && o.y == 0 && o.z == 0
            });
            f.balance(comm, BalanceType::Full);
            let after_first = f.num_global();
            f.balance(comm, BalanceType::Full);
            assert_eq!(
                f.num_global(),
                after_first,
                "second balance must be a no-op"
            );
        });
    }

    #[test]
    fn balance_across_moebius_seam() {
        run_spmd(3, |comm| {
            let conn = Arc::new(builders::moebius());
            let mut f = Forest::<D2>::new_uniform(conn, comm, 1);
            // Deep refinement right at the twisted seam of tree 4 (+x face).
            let big = D2::root_len();
            f.refine(comm, true, |t, o| {
                t == 4 && o.level < 5 && o.x + o.len() == big && o.y == 0
            });
            f.balance(comm, BalanceType::Full);
            f.check_valid(comm);
            f.check_balanced(comm, BalanceType::Full);
            // The seam neighbors in tree 0 must have been refined too.
            let mine: Vec<(u32, Octant<D2>)> = f.iter_local().map(|(t, o)| (t, *o)).collect();
            let all: Vec<_> = comm.allgatherv(&mine).into_iter().flatten().collect();
            let tree0_max = all
                .iter()
                .filter(|(t, _)| *t == 0)
                .map(|(_, o)| o.level)
                .max()
                .unwrap();
            assert!(tree0_max >= 3, "refinement must ripple across the seam");
        });
    }

    #[test]
    fn balance_across_rotcubes_central_edge() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let mut f = Forest::<D3>::new_uniform(conn, comm, 1);
            // Refine tree 0 near the central axis (edge 0: y=0, z=0).
            f.refine(comm, true, |t, o| {
                t == 0 && o.level < 4 && o.y == 0 && o.z == 0
            });
            f.balance(comm, BalanceType::Full);
            f.check_valid(comm);
            f.check_balanced(comm, BalanceType::Full);
        });
    }

    #[test]
    fn face_balance_weaker_than_full() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::unit2d());
            let make = |comm: &_, btype| {
                let mut f = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
                f.refine(comm, true, |_, o| o.level < 6 && o.x == 0 && o.y == 0);
                f.balance(comm, btype);
                f.num_global()
            };
            let face = make(comm, BalanceType::Face);
            let full = make(comm, BalanceType::Full);
            assert!(face <= full, "face balance must not refine more than full");
            assert!(full > 0);
        });
    }

    #[test]
    fn balance_result_independent_of_rank_count() {
        let totals: Vec<u64> = [1usize, 2, 5]
            .iter()
            .map(|&p| {
                let r = run_spmd(p, |comm| {
                    let conn = Arc::new(builders::cubed_sphere());
                    let mut f = Forest::<D3>::new_uniform(conn, comm, 1);
                    f.refine(comm, true, |t, o| {
                        t == 0 && o.level < 3 && o.x == 0 && o.y == 0 && o.z == 0
                    });
                    f.balance(comm, BalanceType::Full);
                    f.check_balanced(comm, BalanceType::Full);
                    f.num_global()
                });
                r[0]
            })
            .collect();
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[0], totals[2]);
    }
}
