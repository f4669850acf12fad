//! Octants (quadrants in 2D): the micro-level unit of a forest.
//!
//! An octant is identified by the integer coordinates of its anchor (the
//! corner closest to the origin) and its refinement level; its side length
//! is `root_len >> level`. All octant algebra is integer-only — the paper
//! (§II-D) stresses that no floating point enters topology, "avoiding
//! topological errors due to roundoff".
//!
//! Coordinates are signed so that **exterior octants** (paper Fig. 3: octants
//! that live in a tree's coordinate system but outside its root cube, used
//! to communicate across inter-tree boundaries) are first-class values.

use std::cmp::Ordering;
use std::marker::PhantomData;

use forust_comm::Wire;

use crate::dim::{edge_fixed_offsets, Dim};

/// An octant within one tree's coordinate system.
///
/// `x, y, z` are the anchor coordinates in units where the root octant has
/// side `D::root_len()`; `z` is always 0 in 2D. Valid (interior) octants
/// have all coordinates in `[0, root_len)` and aligned to their level.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Octant<D: Dim> {
    /// Anchor x coordinate.
    pub x: i32,
    /// Anchor y coordinate.
    pub y: i32,
    /// Anchor z coordinate (0 in 2D).
    pub z: i32,
    /// Refinement level: 0 is the root, `D::MAX_LEVEL` the finest.
    pub level: u8,
    _dim: PhantomData<D>,
}

impl<D: Dim> std::fmt::Debug for Octant<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if D::DIM == 2 {
            write!(f, "Oct[l{} ({},{})]", self.level, self.x, self.y)
        } else {
            write!(f, "Oct[l{} ({},{},{})]", self.level, self.x, self.y, self.z)
        }
    }
}

impl<D: Dim> Octant<D> {
    /// Construct an octant from anchor coordinates and level.
    ///
    /// Debug-asserts level bounds and level alignment of the coordinates.
    #[inline]
    pub fn new(x: i32, y: i32, z: i32, level: u8) -> Self {
        debug_assert!(level <= D::MAX_LEVEL, "level {level} exceeds MAX_LEVEL");
        debug_assert!(D::DIM == 3 || z == 0, "2D octants must have z == 0");
        let o = Self {
            x,
            y,
            z,
            level,
            _dim: PhantomData,
        };
        debug_assert!(o.is_aligned(), "anchor not aligned to level: {o:?}");
        o
    }

    /// The root octant covering the whole tree.
    #[inline]
    pub fn root() -> Self {
        Self::new(0, 0, 0, 0)
    }

    /// Side length in integer coordinates.
    #[inline]
    pub fn len(&self) -> i32 {
        D::root_len() >> self.level
    }

    /// Anchor coordinates as an array (z component 0 in 2D).
    #[inline]
    pub fn coords(&self) -> [i32; 3] {
        [self.x, self.y, self.z]
    }

    /// Build from a coordinate array and level.
    #[inline]
    pub fn from_coords(c: [i32; 3], level: u8) -> Self {
        Self::new(c[0], c[1], c[2], level)
    }

    /// Whether all coordinates are multiples of the side length.
    #[inline]
    pub fn is_aligned(&self) -> bool {
        let mask = self.len() - 1;
        (self.x & mask) == 0 && (self.y & mask) == 0 && (self.z & mask) == 0
    }

    /// Whether this octant lies inside its tree's root cube.
    #[inline]
    pub fn is_inside_root(&self) -> bool {
        let r = D::root_len();
        let ok_xy = (0..r).contains(&self.x) && (0..r).contains(&self.y);
        if D::DIM == 2 {
            ok_xy
        } else {
            ok_xy && (0..r).contains(&self.z)
        }
    }

    /// z-order child index of this octant within its parent (0 for the root).
    #[inline]
    pub fn child_id(&self) -> usize {
        if self.level == 0 {
            return 0;
        }
        let bit = D::MAX_LEVEL - self.level;
        let cx = ((self.x >> bit) & 1) as usize;
        let cy = ((self.y >> bit) & 1) as usize;
        let cz = ((self.z >> bit) & 1) as usize;
        cx | (cy << 1) | (cz << 2)
    }

    /// The parent octant. Panics on the root.
    #[inline]
    pub fn parent(&self) -> Self {
        assert!(self.level > 0, "root octant has no parent");
        let plen_mask = !((D::root_len() >> (self.level - 1)) - 1);
        Self::new(
            self.x & plen_mask,
            self.y & plen_mask,
            self.z & plen_mask,
            self.level - 1,
        )
    }

    /// Child `i` (z-order) of this octant. Panics at `MAX_LEVEL`.
    #[inline]
    pub fn child(&self, i: usize) -> Self {
        assert!(self.level < D::MAX_LEVEL, "cannot refine beyond MAX_LEVEL");
        assert!(i < D::CHILDREN);
        let h = self.len() >> 1;
        Self::new(
            self.x + ((i & 1) as i32) * h,
            self.y + (((i >> 1) & 1) as i32) * h,
            self.z + (((i >> 2) & 1) as i32) * h,
            self.level + 1,
        )
    }

    /// All `2^d` children in z-order.
    pub fn children(&self) -> Vec<Self> {
        (0..D::CHILDREN).map(|i| self.child(i)).collect()
    }

    /// Sibling with child index `i` (shares this octant's parent).
    #[inline]
    pub fn sibling(&self, i: usize) -> Self {
        assert!(self.level > 0, "root has no siblings");
        self.parent().child(i)
    }

    /// The ancestor at the given (coarser or equal) level.
    #[inline]
    pub fn ancestor(&self, level: u8) -> Self {
        assert!(level <= self.level, "ancestor level must be coarser");
        let mask = !((D::root_len() >> level) - 1);
        Self::new(self.x & mask, self.y & mask, self.z & mask, level)
    }

    /// Whether `self` strictly contains `other` (proper ancestor).
    #[inline]
    pub fn is_ancestor_of(&self, other: &Self) -> bool {
        self.level < other.level && *self == other.ancestor(self.level)
    }

    /// Whether `self` contains `other` (ancestor or equal).
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        self.level <= other.level && *self == other.ancestor(self.level)
    }

    /// Whether two octants overlap (one contains the other).
    #[inline]
    pub fn overlaps(&self, other: &Self) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// First (SFC-smallest) descendant at `level`.
    #[inline]
    pub fn first_descendant(&self, level: u8) -> Self {
        assert!(level >= self.level);
        Self::new(self.x, self.y, self.z, level)
    }

    /// Last (SFC-largest) descendant at `level`.
    #[inline]
    pub fn last_descendant(&self, level: u8) -> Self {
        assert!(level >= self.level);
        let d = self.len() - (D::root_len() >> level);
        let dz = if D::DIM == 3 { d } else { 0 };
        Self::new(self.x + d, self.y + d, self.z + dz, level)
    }

    /// Same-size neighbor displaced by `(dx, dy, dz)` octant side lengths.
    ///
    /// The result may be exterior to the root cube.
    #[inline]
    pub fn neighbor(&self, dx: i32, dy: i32, dz: i32) -> Self {
        debug_assert!(D::DIM == 3 || dz == 0);
        let l = self.len();
        Self::new(
            self.x + dx * l,
            self.y + dy * l,
            self.z + dz * l,
            self.level,
        )
    }

    /// Same-size neighbor across face `f`.
    #[inline]
    pub fn face_neighbor(&self, f: usize) -> Self {
        assert!(f < D::FACES);
        let mut d = [0i32; 3];
        d[D::face_axis(f)] = if D::face_positive(f) { 1 } else { -1 };
        self.neighbor(d[0], d[1], d[2])
    }

    /// Same-size neighbor diagonally across corner `c`.
    #[inline]
    pub fn corner_neighbor(&self, c: usize) -> Self {
        assert!(c < D::CORNERS);
        let o = D::corner_offset(c);
        let dz = if D::DIM == 3 { 2 * o[2] - 1 } else { 0 };
        self.neighbor(2 * o[0] - 1, 2 * o[1] - 1, dz)
    }

    /// Same-size neighbor across edge `e` (3D only).
    #[inline]
    pub fn edge_neighbor(&self, e: usize) -> Self {
        assert!(D::DIM == 3 && e < D::EDGES);
        let off = edge_fixed_offsets::<D>(e);
        let d: Vec<i32> = off
            .iter()
            .map(|&v| if v < 0 { 0 } else { 2 * v - 1 })
            .collect();
        self.neighbor(d[0], d[1], d[2])
    }

    /// Coordinates of corner `c` of this octant.
    #[inline]
    pub fn corner_coords(&self, c: usize) -> [i32; 3] {
        let o = D::corner_offset(c);
        let l = self.len();
        [self.x + o[0] * l, self.y + o[1] * l, self.z + o[2] * l]
    }

    /// Morton (z-order) index of the anchor. Requires an interior octant.
    ///
    /// Interleaves the `MAX_LEVEL` significant bits of each coordinate,
    /// x lowest: at most 58 bits in 2D, 57 in 3D — always fits `u64`.
    ///
    /// Branch-free parallel-prefix bit spreading (five shift/mask rounds
    /// per coordinate instead of a `MAX_LEVEL`-iteration loop): `Octant`
    /// comparison is on every hot path of `balance`, `ghost` and
    /// `partition`, so this is the single most executed kernel in the
    /// forest layer.
    #[inline]
    pub fn morton(&self) -> u64 {
        debug_assert!(
            self.x >= 0 && self.y >= 0 && self.z >= 0,
            "morton of exterior octant: {self:?}"
        );
        if D::DIM == 2 {
            spread_2(self.x as u64) | (spread_2(self.y as u64) << 1)
        } else {
            spread_3(self.x as u64)
                | (spread_3(self.y as u64) << 1)
                | (spread_3(self.z as u64) << 2)
        }
    }

    /// Total-order key within one tree: Morton index, ties (identical
    /// anchors, i.e. nested octants) broken ancestor-first.
    #[inline]
    pub fn sfc_key(&self) -> (u64, u8) {
        (self.morton(), self.level)
    }

    /// Number of finest-level cells covered (volume in units of the finest
    /// cell). Used for completeness checks.
    #[inline]
    pub fn volume_atoms(&self) -> u128 {
        let h = (D::MAX_LEVEL - self.level) as u32;
        1u128 << (D::DIM * h)
    }
}

impl<D: Dim> PartialOrd for Octant<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Dim> Ord for Octant<D> {
    /// Space-filling-curve order: z-order of anchors, ancestors before
    /// descendants. Only meaningful for interior octants of one tree.
    fn cmp(&self, other: &Self) -> Ordering {
        self.sfc_key().cmp(&other.sfc_key())
    }
}

impl<D: Dim> Wire for Octant<D> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.x.encode(buf);
        self.y.encode(buf);
        self.z.encode(buf);
        self.level.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let x = i32::decode(buf)?;
        let y = i32::decode(buf)?;
        let z = i32::decode(buf)?;
        let level = u8::decode(buf)?;
        Some(Self {
            x,
            y,
            z,
            level,
            _dim: PhantomData,
        })
    }
}

/// Spread the low 32 bits of `v` so bit `i` lands at position `2*i`
/// (parallel-prefix magic masks; inverse of [`compact_2`]).
#[inline]
fn spread_2(v: u64) -> u64 {
    let mut v = v & 0xFFFF_FFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    (v | (v << 1)) & 0x5555_5555_5555_5555
}

/// Spread the low 21 bits of `v` so bit `i` lands at position `3*i`
/// (parallel-prefix magic masks; inverse of [`compact_3`]).
#[inline]
fn spread_3(v: u64) -> u64 {
    let mut v = v & 0x1F_FFFF;
    v = (v | (v << 32)) & 0x001F_0000_0000_FFFF;
    v = (v | (v << 16)) & 0x001F_0000_FF00_00FF;
    v = (v | (v << 8)) & 0x100F_00F0_0F00_F00F;
    v = (v | (v << 4)) & 0x10C3_0C30_C30C_30C3;
    (v | (v << 2)) & 0x1249_2492_4924_9249
}

/// Gather every second bit of `v` back into the low 32 bits.
#[inline]
fn compact_2(v: u64) -> u64 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// Gather every third bit of `v` back into the low 21 bits.
#[inline]
fn compact_3(v: u64) -> u64 {
    let mut v = v & 0x1249_2492_4924_9249;
    v = (v | (v >> 2)) & 0x10C3_0C30_C30C_30C3;
    v = (v | (v >> 4)) & 0x100F_00F0_0F00_F00F;
    v = (v | (v >> 8)) & 0x001F_0000_FF00_00FF;
    v = (v | (v >> 16)) & 0x001F_0000_0000_FFFF;
    (v | (v >> 32)) & 0x001F_FFFF
}

/// Reconstruct an octant from its Morton index and level.
pub fn from_morton<D: Dim>(key: u64, level: u8) -> Octant<D> {
    let c = if D::DIM == 2 {
        [compact_2(key) as i32, compact_2(key >> 1) as i32, 0]
    } else {
        [
            compact_3(key) as i32,
            compact_3(key >> 1) as i32,
            compact_3(key >> 2) as i32,
        ]
    };
    // Clear sub-level bits so the anchor is aligned.
    let mask = !((D::root_len() >> level) - 1);
    Octant::new(c[0] & mask, c[1] & mask, c[2] & mask, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{D2, D3};

    #[test]
    fn root_properties() {
        let r = Octant::<D3>::root();
        assert_eq!(r.len(), D3::root_len());
        assert_eq!(r.child_id(), 0);
        assert!(r.is_inside_root());
        assert_eq!(r.morton(), 0);
        assert_eq!(r.volume_atoms(), 1u128 << (3 * D3::MAX_LEVEL as u32));
    }

    #[test]
    fn parent_child_roundtrip_3d() {
        let r = Octant::<D3>::root();
        for i in 0..8 {
            let c = r.child(i);
            assert_eq!(c.level, 1);
            assert_eq!(c.child_id(), i);
            assert_eq!(c.parent(), r);
        }
    }

    #[test]
    fn parent_child_roundtrip_2d() {
        let o = Octant::<D2>::root().child(3).child(1).child(2);
        assert_eq!(o.child_id(), 2);
        assert_eq!(o.parent().child_id(), 1);
        assert_eq!(o.parent().parent().child_id(), 3);
        assert_eq!(o.ancestor(0), Octant::root());
    }

    #[test]
    fn children_are_ordered_and_partition_parent() {
        let p = Octant::<D3>::root().child(5);
        let kids = p.children();
        for w in kids.windows(2) {
            assert!(w[0] < w[1], "children must be in SFC order");
        }
        let vol: u128 = kids.iter().map(Octant::volume_atoms).sum();
        assert_eq!(vol, p.volume_atoms());
        for k in &kids {
            assert!(p.is_ancestor_of(k));
            assert!(!k.is_ancestor_of(&p));
        }
    }

    #[test]
    fn descendants_bound_the_subtree() {
        let p = Octant::<D3>::root().child(6).child(2);
        let lo = p.first_descendant(8);
        let hi = p.last_descendant(8);
        assert!(p.contains(&lo) && p.contains(&hi));
        assert!(lo <= hi);
        // Every child's descendants are within [lo, hi].
        for k in p.children() {
            assert!(lo <= k.first_descendant(8));
            assert!(k.last_descendant(8) <= hi);
        }
    }

    #[test]
    fn face_neighbors_exterior_detection() {
        let o = Octant::<D3>::root().child(0); // at the (0,0,0) corner
        assert!(!o.face_neighbor(0).is_inside_root()); // -x is exterior
        assert!(o.face_neighbor(1).is_inside_root());
        assert!(!o.face_neighbor(2).is_inside_root());
        assert!(o.face_neighbor(3).is_inside_root());
        assert!(!o.face_neighbor(4).is_inside_root());
        assert!(o.face_neighbor(5).is_inside_root());
    }

    #[test]
    fn neighbor_relations_are_inverse() {
        let o = Octant::<D3>::new(0, 0, 0, 3).neighbor(2, 3, 1);
        for f in 0..D3::FACES {
            let n = o.face_neighbor(f);
            let back = f ^ 1; // opposite face
            assert_eq!(n.face_neighbor(back), o);
        }
        for c in 0..D3::CORNERS {
            let n = o.corner_neighbor(c);
            let back = D3::CORNERS - 1 - c;
            assert_eq!(n.corner_neighbor(back), o);
        }
        for e in 0..D3::EDGES {
            let n = o.edge_neighbor(e);
            // Opposite edge: same axis, complemented transverse bits.
            let back = (e / 4) * 4 + (3 - e % 4);
            assert_eq!(n.edge_neighbor(back), o);
        }
    }

    #[test]
    fn morton_roundtrip() {
        let o = Octant::<D3>::root().child(7).child(0).child(5).child(2);
        let back = from_morton::<D3>(o.morton(), o.level);
        assert_eq!(o, back);
        let q = Octant::<D2>::root().child(3).child(3).child(1);
        assert_eq!(from_morton::<D2>(q.morton(), q.level), q);
    }

    #[test]
    fn sfc_order_is_preorder() {
        // Ancestor sorts immediately before its first child.
        let p = Octant::<D3>::root().child(3);
        assert!(p < p.child(0));
        assert!(p.child(0) < p.child(1));
        // Last descendant of child 0 sorts before child 1.
        assert!(p.child(0).last_descendant(9) < p.child(1));
    }

    #[test]
    fn sfc_order_total_on_uniform_grid() {
        // A uniform level-2 grid sorted by SFC must enumerate 64 distinct
        // octants whose morton codes are 0..64 scaled.
        let mut all = vec![];
        for i in 0..8 {
            for j in 0..8 {
                all.push(Octant::<D3>::root().child(i).child(j));
            }
        }
        all.sort();
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
        let vol: u128 = all.iter().map(Octant::volume_atoms).sum();
        assert_eq!(vol, Octant::<D3>::root().volume_atoms());
    }

    #[test]
    fn wire_roundtrip() {
        let o = Octant::<D3>::new(-(1 << 19), 0, 12288, 7);
        let mut buf = Vec::new();
        o.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(Octant::<D3>::decode(&mut s).unwrap(), o);
    }

    #[test]
    fn corner_coords_span_octant() {
        let o = Octant::<D3>::root().child(5);
        let lo = o.corner_coords(0);
        let hi = o.corner_coords(7);
        for d in 0..3 {
            assert_eq!(hi[d] - lo[d], o.len());
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::dim::{D2, D3};

    #[test]
    fn two_dimensional_morton_matches_interleave() {
        // Hand-check a small 2D morton code: anchor (1,2) at level 2 on a
        // 4x4 grid -> cell (x=1, y=2) -> morton bits ...y x y x = 1001b at
        // the top of the key.
        let h = D2::root_len() / 4;
        let o = Octant::<D2>::new(h, 2 * h, 0, 2);
        let key = o.morton() >> (2 * (D2::MAX_LEVEL - 2));
        assert_eq!(key, 0b1001);
    }

    #[test]
    fn three_dimensional_morton_matches_interleave() {
        let h = D3::root_len() / 2;
        // Cell (1, 0, 1) at level 1: bits z y x = 101b.
        let o = Octant::<D3>::new(h, 0, h, 1);
        let key = o.morton() >> (3 * (D3::MAX_LEVEL - 1));
        assert_eq!(key, 0b101);
    }

    #[test]
    fn ancestors_chain_to_root() {
        let mut o = Octant::<D3>::root();
        for i in [0usize, 7, 3, 5, 1] {
            o = o.child(i);
        }
        let mut up = o;
        for lvl in (0..5).rev() {
            up = up.parent();
            assert_eq!(up.level, lvl as u8);
            assert!(up.is_ancestor_of(&o));
            assert_eq!(o.ancestor(lvl as u8), up);
        }
        assert_eq!(up, Octant::root());
    }

    #[test]
    fn volume_atoms_sums_over_any_partition() {
        // Split the root into an irregular complete set and check volumes.
        let r = Octant::<D2>::root();
        let mut leaves = vec![r.child(0), r.child(1), r.child(2)];
        leaves.extend(r.child(3).children());
        leaves.sort();
        let vol: u128 = leaves.iter().map(Octant::volume_atoms).sum();
        assert_eq!(vol, r.volume_atoms());
    }

    /// Reference bit-at-a-time interleave (the pre-optimization
    /// implementation), kept to pin the magic-mask version.
    fn morton_reference<D: Dim>(o: &Octant<D>) -> u64 {
        let mut key: u64 = 0;
        for bit in 0..D::MAX_LEVEL as u32 {
            let src = 1i32 << bit;
            let dst = (D::DIM * bit) as u64;
            if o.x & src != 0 {
                key |= 1 << dst;
            }
            if o.y & src != 0 {
                key |= 1 << (dst + 1);
            }
            if D::DIM == 3 && o.z & src != 0 {
                key |= 1 << (dst + 2);
            }
        }
        key
    }

    #[test]
    fn magic_mask_morton_matches_reference() {
        // SplitMix64-driven random interior octants, both dimensions.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for _ in 0..2000 {
            let r = next();
            let level = (r % (D3::MAX_LEVEL as u64 + 1)) as u8;
            let mask = !((D3::root_len() >> level) - 1);
            let o = Octant::<D3>::new(
                (next() as i32 & (D3::root_len() - 1)) & mask,
                (next() as i32 & (D3::root_len() - 1)) & mask,
                (next() as i32 & (D3::root_len() - 1)) & mask,
                level,
            );
            assert_eq!(o.morton(), morton_reference(&o), "{o:?}");
            assert_eq!(from_morton::<D3>(o.morton(), o.level), o);

            let level = (r % (D2::MAX_LEVEL as u64 + 1)) as u8;
            let mask = !((D2::root_len() >> level) - 1);
            let q = Octant::<D2>::new(
                (next() as i32 & (D2::root_len() - 1)) & mask,
                (next() as i32 & (D2::root_len() - 1)) & mask,
                0,
                level,
            );
            assert_eq!(q.morton(), morton_reference(&q), "{q:?}");
            assert_eq!(from_morton::<D2>(q.morton(), q.level), q);
        }
    }

    #[test]
    fn exterior_octants_are_representable() {
        // One root length outside in every direction stays in range and
        // neighbor arithmetic round-trips.
        let big = D3::root_len();
        let o = Octant::<D3>::new(-(big / 2), big, big - big / 2, 1);
        assert!(!o.is_inside_root());
        assert_eq!(o.neighbor(1, -1, 0).neighbor(-1, 1, 0), o);
    }
}
