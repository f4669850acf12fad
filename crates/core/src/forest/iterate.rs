//! Top-down recursive traversal of the local forest plus its ghost
//! layer, in the style of `p4est_iterate` (Isaac, Burstedde, Wilcox,
//! Ghattas, "Recursive Algorithms for Distributed Forests of Octrees",
//! arXiv:1406.0089; see also Burstedde, arXiv:1803.08432).
//!
//! [`Forest::iterate`] walks every tree once by *simultaneous
//! recursion*: branches on both sides of each candidate face descend in
//! lockstep, so a face is classified (conforming / hanging / boundary)
//! the moment both sides have settled on leaves — no per-leaf neighbor
//! search, no binary descend per octant. Callbacks see the full
//! local+ghost neighborhood; the dG mesh derives its entire face
//! topology from this traversal instead of re-deriving it.
//!
//! # Callback contract
//!
//! The forest must be 2:1 **face-balanced** ([`super::BalanceType`]
//! `Full` or `Face`) and `ghost` must be the layer built from the same
//! forest; hanging faces then have exactly [`Dim::FACE_CHILDREN`] fine
//! octants, one refinement level below the coarse side.
//!
//! * `volume` fires once per **local** leaf, in SFC order per tree,
//!   trees ascending.
//! * `face` fires once per face entity with at least one local
//!   participant: interior faces during the per-tree recursion,
//!   inter-tree (and periodic) macro faces next, physical-boundary
//!   faces last. Each [`FaceSide::transform`] maps *that* side's tree
//!   frame into the opposite side's frame (`None` when both sides share
//!   a frame); the `fine` list of a hanging visit is ordered by
//!   ascending child id in the fine side's own frame.
//!
//! Visits never pair ghost-only participants: a face all of whose
//! participants are ghosts is skipped (its owner rank visits it).
//!
//! There are no edge or corner visits. An edge/corner pass belongs with
//! its first caller, `Nodes`, and must be recursive like the face pass:
//! probing every edge and corner neighbor of every leaf costs far more
//! than the whole node numbering it would feed.

use crate::connectivity::{FaceTransform, TreeId};
use crate::dim::Dim;
use crate::linear;
use crate::octant::Octant;

use super::{Forest, GhostLayer};

/// A leaf as seen by the traversal: either the `i`-th local leaf (flat
/// index across trees, i.e. `iter_local` order) or the `i`-th entry of
/// the ghost layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeafRef {
    Local(u32),
    Ghost(u32),
}

impl LeafRef {
    #[inline]
    pub fn is_local(self) -> bool {
        matches!(self, LeafRef::Local(_))
    }
}

/// One side of a face visit.
#[derive(Debug, Clone, Copy)]
pub struct FaceSide<D: Dim> {
    pub elem: LeafRef,
    pub tree: TreeId,
    /// The leaf, in its own tree's coordinate frame.
    pub octant: Octant<D>,
    /// Face number of `octant` on this interface.
    pub face: usize,
    /// Maps this side's frame into the opposite side's frame; `None`
    /// when both sides live in the same tree frame.
    pub transform: Option<FaceTransform>,
}

/// A classified face entity.
#[derive(Debug, Clone)]
pub enum FaceVisit<D: Dim> {
    /// A local leaf's face on the physical domain boundary.
    Boundary { side: FaceSide<D> },
    /// Two equal-size leaves meeting at a conforming face.
    Conforming { a: FaceSide<D>, b: FaceSide<D> },
    /// A coarse leaf facing [`Dim::FACE_CHILDREN`] half-size leaves;
    /// `fine` is ordered by ascending child id in the fine frame.
    Hanging {
        coarse: FaceSide<D>,
        fine: Vec<FaceSide<D>>,
    },
}

/// Callbacks for [`Forest::iterate`]; both default to no-ops.
pub trait Visit<D: Dim> {
    fn volume(&mut self, _elem: LeafRef, _tree: TreeId, _octant: &Octant<D>) {}
    fn face(&mut self, _visit: &FaceVisit<D>) {}
}

/// Local leaves of one tree merged with that tree's slice of the ghost
/// layer, SFC-sorted, with a back-reference per entry.
struct MTree<D: Dim> {
    octs: Vec<Octant<D>>,
    refs: Vec<LeafRef>,
}

fn merged_trees<D: Dim>(f: &Forest<D>, ghost: &GhostLayer<D>) -> Vec<MTree<D>> {
    let nt = f.conn.num_trees();
    let mut out: Vec<MTree<D>> = Vec::with_capacity(nt);
    let mut flat = 0u32;
    let mut gi = 0usize;
    for t in 0..nt as TreeId {
        let locals = f.tree(t);
        // Ghosts are globally (tree, SFC)-sorted, so each tree's slice
        // is one contiguous run.
        let gstart = gi;
        while gi < ghost.ghosts.len() && ghost.ghosts[gi].0 == t {
            gi += 1;
        }
        let gslice = &ghost.ghosts[gstart..gi];
        let mut octs = Vec::with_capacity(locals.len() + gslice.len());
        let mut refs = Vec::with_capacity(locals.len() + gslice.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < locals.len() || b < gslice.len() {
            let take_local = if a == locals.len() {
                false
            } else if b == gslice.len() {
                true
            } else {
                locals[a] < gslice[b].1
            };
            if take_local {
                octs.push(locals[a]);
                refs.push(LeafRef::Local(flat + a as u32));
                a += 1;
            } else {
                octs.push(gslice[b].1);
                refs.push(LeafRef::Ghost((gstart + b) as u32));
                b += 1;
            }
        }
        debug_assert!(linear::is_linear(&octs));
        flat += locals.len() as u32;
        out.push(MTree { octs, refs });
    }
    debug_assert_eq!(gi, ghost.ghosts.len());
    out
}

/// `Some(i)` iff the range is a single leaf covering all of `b` — which
/// in every state the recursion can reach means the leaf *equals* `b`
/// (a strictly coarser covering leaf would already have settled the
/// parent call).
fn settle<D: Dim>(mt: &MTree<D>, r: &std::ops::Range<usize>, b: &Octant<D>) -> Option<usize> {
    (r.len() == 1 && mt.octs[r.start].contains(b)).then_some(r.start)
}

struct Trav<'a, D: Dim> {
    m: &'a [MTree<D>],
}

impl<D: Dim> Trav<'_, D> {
    /// Volume visits plus all faces interior to tree `t`, by recursion
    /// over sibling groups. `[lo, hi)` indexes the merged leaves lying
    /// inside branch `b`.
    fn rec_volume<V: Visit<D>>(&self, t: TreeId, b: &Octant<D>, lo: usize, hi: usize, v: &mut V) {
        if lo == hi {
            return;
        }
        let mt = &self.m[t as usize];
        if hi - lo == 1 && mt.octs[lo] == *b {
            if mt.refs[lo].is_local() {
                v.volume(mt.refs[lo], t, b);
            }
            return;
        }
        let children = b.children();
        let mut bounds = [0usize; 9]; // CHILDREN + 1 <= 9
        let mut i = lo;
        for (ci, c) in children.iter().enumerate() {
            bounds[ci] = i;
            while i < hi && c.contains(&mt.octs[i]) {
                i += 1;
            }
        }
        bounds[D::CHILDREN] = i;
        debug_assert_eq!(i, hi, "leaves must partition among the children");
        for (ci, c) in children.iter().enumerate() {
            self.rec_volume(t, c, bounds[ci], bounds[ci + 1], v);
        }
        // The DIM * 2^(DIM-1) faces between sibling pairs.
        for axis in 0..D::DIM as usize {
            for ci in 0..D::CHILDREN {
                if (ci >> axis) & 1 == 1 {
                    continue;
                }
                let cj = ci | (1 << axis);
                self.face_rec(
                    t,
                    &children[ci],
                    2 * axis + 1,
                    None,
                    t,
                    &children[cj],
                    2 * axis,
                    None,
                    v,
                );
            }
        }
    }

    /// Simultaneous recursion over the face shared by branches `a` (in
    /// tree `ta`, touching through its face `fa`) and `b`. The two
    /// branches always have equal levels; `tr_*` maps each branch's
    /// frame to the other's (`None` intra-tree).
    #[allow(clippy::too_many_arguments)]
    fn face_rec<V: Visit<D>>(
        &self,
        ta: TreeId,
        a: &Octant<D>,
        fa: usize,
        tr_a: Option<&FaceTransform>,
        tb: TreeId,
        b: &Octant<D>,
        fb: usize,
        tr_b: Option<&FaceTransform>,
        v: &mut V,
    ) {
        let ma = &self.m[ta as usize];
        let mb = &self.m[tb as usize];
        let ra = linear::find_overlapping_range(&ma.octs, a);
        let rb = linear::find_overlapping_range(&mb.octs, b);
        if ra.is_empty() || rb.is_empty() {
            // A face-adjacent local leaf on either side would have
            // pulled the other side's strip into the ghost layer, so an
            // uncovered side means no local participant here.
            return;
        }
        let sa = settle(ma, &ra, a);
        let sb = settle(mb, &rb, b);
        match (sa, sb) {
            (Some(ia), Some(ib)) => {
                debug_assert_eq!(ma.octs[ia], *a);
                debug_assert_eq!(mb.octs[ib], *b);
                let (ea, eb) = (ma.refs[ia], mb.refs[ib]);
                if !ea.is_local() && !eb.is_local() {
                    return;
                }
                v.face(&FaceVisit::Conforming {
                    a: FaceSide {
                        elem: ea,
                        tree: ta,
                        octant: ma.octs[ia],
                        face: fa,
                        transform: tr_a.copied(),
                    },
                    b: FaceSide {
                        elem: eb,
                        tree: tb,
                        octant: mb.octs[ib],
                        face: fb,
                        transform: tr_b.copied(),
                    },
                });
            }
            (Some(ia), None) => self.hanging(ta, ia, fa, tr_a, tb, b, fb, tr_b, v),
            (None, Some(ib)) => self.hanging(tb, ib, fb, tr_b, ta, a, fa, tr_a, v),
            (None, None) => {
                // Both sides refine: descend the face's child quadrants
                // in lockstep.
                let axis = D::face_axis(fa);
                let bit = usize::from(D::face_positive(fa));
                for ci in 0..D::CHILDREN {
                    if (ci >> axis) & 1 != bit {
                        continue;
                    }
                    let ca = a.child(ci);
                    let phantom = ca.face_neighbor(fa);
                    let cb = match tr_a {
                        None => phantom,
                        Some(tr) => tr.apply_octant(&phantom),
                    };
                    debug_assert!(b.contains(&cb) && cb.level == b.level + 1);
                    self.face_rec(ta, &ca, fa, tr_a, tb, &cb, fb, tr_b, v);
                }
            }
        }
    }

    /// Emit a hanging visit: the settled coarse leaf `mc.octs[ic]`
    /// against the face-adjacent children of the opposite branch `bf`.
    #[allow(clippy::too_many_arguments)]
    fn hanging<V: Visit<D>>(
        &self,
        tc: TreeId,
        ic: usize,
        fc: usize,
        tr_c: Option<&FaceTransform>,
        tf: TreeId,
        bf: &Octant<D>,
        ff: usize,
        tr_f: Option<&FaceTransform>,
        v: &mut V,
    ) {
        let mc = &self.m[tc as usize];
        let mf = &self.m[tf as usize];
        let coarse_ref = mc.refs[ic];
        let axis = D::face_axis(ff);
        let bit = usize::from(D::face_positive(ff));
        let mut fine: Vec<FaceSide<D>> = Vec::with_capacity(D::FACE_CHILDREN);
        for ci in 0..D::CHILDREN {
            if (ci >> axis) & 1 != bit {
                continue;
            }
            let c = bf.child(ci);
            let key = c.sfc_key();
            let i = mf.octs.partition_point(|o| o.sfc_key() < key);
            if i < mf.octs.len() && mf.octs[i] == c {
                fine.push(FaceSide {
                    elem: mf.refs[i],
                    tree: tf,
                    octant: c,
                    face: ff,
                    transform: tr_f.copied(),
                });
            } else {
                // The one-layer ghost halo only omits a fine child when
                // no participant of this face is local: skip the entity
                // (its owner visits it).
                debug_assert!(!coarse_ref.is_local());
                debug_assert!(fine.iter().all(|s| !s.elem.is_local()));
                return;
            }
        }
        if !coarse_ref.is_local() && fine.iter().all(|s| !s.elem.is_local()) {
            return;
        }
        v.face(&FaceVisit::Hanging {
            coarse: FaceSide {
                elem: coarse_ref,
                tree: tc,
                octant: mc.octs[ic],
                face: fc,
                transform: tr_c.copied(),
            },
            fine,
        });
    }
}

impl<D: Dim> Forest<D> {
    /// Run the recursive traversal over the local forest plus `ghost`,
    /// firing `v`'s callbacks. See the module docs for the contract.
    pub fn iterate<V: Visit<D>>(&self, ghost: &GhostLayer<D>, v: &mut V) {
        let _span = forust_obs::span!("forest.iterate");
        let m = merged_trees(self, ghost);
        let trav = Trav { m: &m };
        let nt = self.conn.num_trees() as TreeId;
        // Volumes and all faces interior to each tree.
        for t in 0..nt {
            let n = m[t as usize].octs.len();
            trav.rec_volume(t, &Octant::root(), 0, n, v);
        }
        // Inter-tree (and periodic intra-tree) macro faces, each glued
        // pair visited from its canonical side.
        for k in 0..nt {
            for fc in 0..D::FACES {
                let Some(tr) = self.conn.face_transform(k, fc) else {
                    continue;
                };
                if (k, fc) > (tr.target, tr.target_face) {
                    continue;
                }
                let back = self
                    .conn
                    .face_transform(tr.target, tr.target_face)
                    .expect("face gluing must be symmetric");
                trav.face_rec(
                    k,
                    &Octant::root(),
                    fc,
                    Some(tr),
                    tr.target,
                    &Octant::root(),
                    tr.target_face,
                    Some(back),
                    v,
                );
            }
        }
        // Physical-boundary faces of local leaves.
        let mut flat = 0u32;
        let big = D::root_len();
        for t in 0..nt {
            for o in self.tree(t) {
                for fc in 0..D::FACES {
                    let ax = D::face_axis(fc);
                    let on = if D::face_positive(fc) {
                        o.coords()[ax] + o.len() == big
                    } else {
                        o.coords()[ax] == 0
                    };
                    if on && self.conn.face_transform(t, fc).is_none() {
                        v.face(&FaceVisit::Boundary {
                            side: FaceSide {
                                elem: LeafRef::Local(flat),
                                tree: t,
                                octant: *o,
                                face: fc,
                                transform: None,
                            },
                        });
                    }
                }
                flat += 1;
            }
        }
    }
}
