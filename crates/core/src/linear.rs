//! Linear octrees: sorted leaf arrays and their invariants.
//!
//! A *linear octree* stores only the leaves of an octree, sorted in
//! space-filling-curve order. All of p4est's per-tree storage is linear;
//! the functions here are the primitive queries and checks the forest
//! algorithms build on, plus the independent validators used by the test
//! suite (sortedness, no overlaps, completeness).

use crate::dim::Dim;
use crate::octant::Octant;

/// Whether `leaves` is strictly SFC-sorted with no overlapping octants.
///
/// For SFC-sorted arrays it suffices to check adjacent pairs: if a leaf
/// contained any later leaf it would contain its immediate successor.
pub fn is_linear<D: Dim>(leaves: &[Octant<D>]) -> bool {
    leaves
        .windows(2)
        .all(|w| w[0] < w[1] && !w[0].contains(&w[1]))
}

/// Whether `leaves` is a *complete* linear octree of the root: sorted,
/// non-overlapping, and covering the root cube with no holes.
pub fn is_complete<D: Dim>(leaves: &[Octant<D>]) -> bool {
    if !is_linear(leaves) {
        return false;
    }
    let vol: u128 = leaves.iter().map(Octant::volume_atoms).sum();
    vol == Octant::<D>::root().volume_atoms()
}

/// Index of the unique leaf containing `target`, if any.
///
/// `leaves` must be SFC-sorted and non-overlapping. `target` may be finer,
/// equal, or coarser than the containing leaf; containment here means the
/// leaf is an ancestor-or-equal of `target`.
pub fn find_containing<D: Dim>(leaves: &[Octant<D>], target: &Octant<D>) -> Option<usize> {
    if leaves.is_empty() {
        return None;
    }
    // The containing leaf is the last leaf whose SFC key is <= the key of
    // `target`'s finest first-descendant (i.e. its anchor at MAX_LEVEL).
    // The probe key is interleaved once, not per comparison.
    let probe = target.first_descendant(D::MAX_LEVEL).sfc_key();
    let idx = leaves.partition_point(|l| l.sfc_key() <= probe);
    if idx == 0 {
        return None;
    }
    let cand = &leaves[idx - 1];
    cand.contains(target).then_some(idx - 1)
}

/// Indices `[lo, hi)` of all leaves that `region` overlaps.
///
/// `leaves` must be SFC-sorted and non-overlapping. Overlapping leaves are
/// either descendants of `region` (a contiguous SFC range) or the single
/// ancestor leaf containing it.
pub fn find_overlapping_range<D: Dim>(
    leaves: &[Octant<D>],
    region: &Octant<D>,
) -> std::ops::Range<usize> {
    if leaves.is_empty() {
        return 0..0;
    }
    if let Some(i) = find_containing(leaves, region) {
        return i..i + 1;
    }
    // No single containing leaf: all overlapping leaves are descendants of
    // `region`, which sort at or after `region` itself and no later than its
    // last finest descendant. Probe keys are interleaved once.
    let rkey = region.sfc_key();
    let last = region.last_descendant(D::MAX_LEVEL).sfc_key();
    let lo = leaves.partition_point(|l| l.sfc_key() < rkey);
    let hi = leaves.partition_point(|l| l.sfc_key() <= last);
    lo..hi
}

/// Remove any octant that is an ancestor of a later octant, in place.
///
/// Input must be SFC-sorted. The classic `linearize` step: after a union of
/// octant sets, keeps only the finest, producing a linear octree.
pub fn linearize<D: Dim>(octs: &mut Vec<Octant<D>>) {
    octs.dedup();
    let mut out: Vec<Octant<D>> = Vec::with_capacity(octs.len());
    for o in octs.drain(..) {
        // In SFC order an ancestor immediately precedes its descendants'
        // block, so popping while the tail contains the new octant works.
        while let Some(last) = out.last() {
            if last.contains(&o) {
                out.pop();
            } else {
                break;
            }
        }
        out.push(o);
    }
    *octs = out;
}

/// Refine every leaf flagged by `mark`, replacing it with its children;
/// with `recursive`, newly created children are re-tested, without it
/// `mark` sees only the original leaves.
///
/// Keeps the array linear. Purely local (no communication), mirroring
/// p4est `Refine`.
pub fn refine_marked<D: Dim>(
    leaves: &mut Vec<Octant<D>>,
    recursive: bool,
    mut mark: impl FnMut(&Octant<D>) -> bool,
) {
    let mut out = Vec::with_capacity(leaves.len());
    // Stack-based so recursive refinement stays in SFC order.
    let mut stack: Vec<Octant<D>> = Vec::new();
    for &leaf in leaves.iter() {
        stack.push(leaf);
        while let Some(o) = stack.pop() {
            if o.level < D::MAX_LEVEL && (recursive || o.level == leaf.level) && mark(&o) {
                // Push children in reverse so they pop in SFC order.
                for i in (0..D::CHILDREN).rev() {
                    stack.push(o.child(i));
                }
            } else {
                out.push(o);
            }
        }
    }
    *leaves = out;
}

/// Coarsen complete sibling families flagged by `mark`, replacing the
/// `2^d` children with their parent; with `recursive`, the parent is
/// re-tested against its own siblings.
///
/// Only families entirely present in `leaves` are eligible (the forest
/// layer guarantees families are never split across ranks before calling
/// this). Mirrors p4est `Coarsen`.
pub fn coarsen_marked<D: Dim>(
    leaves: &mut Vec<Octant<D>>,
    recursive: bool,
    mut mark: impl FnMut(&[Octant<D>]) -> bool,
) {
    let mut out: Vec<Octant<D>> = Vec::with_capacity(leaves.len());
    for &leaf in leaves.iter() {
        out.push(leaf);
        // Try to collapse the tail as long as it forms a markable family.
        loop {
            let n = out.len();
            if n < D::CHILDREN {
                break;
            }
            let family = &out[n - D::CHILDREN..];
            let first = family[0];
            if first.level == 0 || first.child_id() != 0 {
                break;
            }
            let parent = first.parent();
            let is_family = family
                .iter()
                .enumerate()
                .all(|(i, o)| o.level == first.level && *o == parent.child(i));
            if !is_family || !mark(family) {
                break;
            }
            out.truncate(n - D::CHILDREN);
            out.push(parent);
            if !recursive {
                break;
            }
        }
    }
    *leaves = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{D2, D3};

    fn uniform<D: Dim>(level: u8) -> Vec<Octant<D>> {
        let mut v = vec![Octant::<D>::root()];
        refine_marked(&mut v, true, |o| o.level < level);
        v
    }

    #[test]
    fn uniform_grid_is_complete() {
        let v = uniform::<D3>(2);
        assert_eq!(v.len(), 64);
        assert!(is_complete(&v));
        let q = uniform::<D2>(3);
        assert_eq!(q.len(), 64);
        assert!(is_complete(&q));
    }

    #[test]
    fn refine_marked_single_pass_vs_recursive() {
        let mut once = vec![Octant::<D3>::root()];
        refine_marked(&mut once, false, |_| true);
        assert_eq!(once.len(), 8);

        let mut rec = vec![Octant::<D3>::root()];
        refine_marked(&mut rec, true, |o| o.level < 2 && o.child_id() == 0);
        // Root refined (level 0 < 2, id 0), then child 0 refined again.
        assert_eq!(rec.len(), 8 + 7);
        assert!(is_complete(&rec));
    }

    #[test]
    fn coarsen_undoes_refine() {
        let mut v = uniform::<D3>(2);
        coarsen_marked(&mut v, true, |_| true);
        assert_eq!(v, vec![Octant::<D3>::root()]);
    }

    #[test]
    fn coarsen_respects_marker() {
        let mut v = uniform::<D2>(2);
        // Only coarsen families whose parent has child_id 0.
        coarsen_marked(&mut v, false, |fam| fam[0].parent().child_id() == 0);
        assert!(is_complete(&v));
        assert_eq!(v.len(), 16 - 4 + 1);
    }

    #[test]
    fn coarsen_partial_family_is_noop() {
        let mut v = uniform::<D2>(1);
        v.remove(0); // break the family
        let before = v.clone();
        coarsen_marked(&mut v, false, |_| true);
        assert_eq!(v, before);
    }

    #[test]
    fn find_containing_works() {
        let mut v = uniform::<D3>(1);
        // Refine child 3 once more.
        refine_marked(&mut v, false, |o| o.child_id() == 3);
        assert!(is_complete(&v));
        let target = Octant::<D3>::root().child(3).child(5).child(1);
        let idx = find_containing(&v, &target).unwrap();
        assert!(v[idx].contains(&target));
        assert_eq!(v[idx].level, 2);
        // A coarser region that spans several leaves has no single container.
        let coarse = Octant::<D3>::root().child(3);
        assert!(find_containing(&v, &coarse).is_none());
    }

    #[test]
    fn find_overlapping_range_spans_descendants() {
        let mut v = uniform::<D3>(1);
        refine_marked(&mut v, false, |o| o.child_id() == 3);
        let region = Octant::<D3>::root().child(3);
        let r = find_overlapping_range(&v, &region);
        assert_eq!(r.len(), 8);
        for l in &v[r] {
            assert!(region.contains(l));
        }
        // A fine region inside a coarse leaf returns that single leaf.
        let fine = Octant::<D3>::root().child(1).child(2).child(7);
        let r = find_overlapping_range(&v, &fine);
        assert_eq!(r.len(), 1);
        assert!(v[r.start].contains(&fine));
    }

    #[test]
    fn linearize_removes_ancestors() {
        let p = Octant::<D3>::root().child(2);
        let mut v = vec![
            Octant::<D3>::root().child(0),
            p,
            p.child(1),
            p.child(1).child(4),
            p.child(3),
            Octant::<D3>::root().child(5),
        ];
        v.sort();
        linearize(&mut v);
        assert!(is_linear(&v));
        assert!(!v.contains(&p));
        assert!(!v.contains(&p.child(1)));
        assert!(v.contains(&p.child(1).child(4)));
        assert!(v.contains(&p.child(3)));
    }

    #[test]
    fn is_linear_rejects_disorder_and_overlap() {
        let a = Octant::<D3>::root().child(0);
        let b = Octant::<D3>::root().child(1);
        assert!(is_linear(&[a, b]));
        assert!(!is_linear(&[b, a]));
        assert!(!is_linear(&[a, a.child(2)]));
        assert!(!is_linear(&[a, a]));
    }

    #[test]
    fn incomplete_tree_detected() {
        let mut v = uniform::<D2>(1);
        v.pop();
        assert!(is_linear(&v));
        assert!(!is_complete(&v));
    }
}
