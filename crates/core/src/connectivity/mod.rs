//! The macro-level of a forest: trees and how they are glued together.
//!
//! A forest decomposes the domain into `K` conforming logical cubes
//! ("trees"), each with its own right-handed coordinate system that can be
//! arbitrarily rotated in space (paper §II-D). Trees connect through
//! macro-faces, macro-edges and macro-corners; any number of trees may meet
//! at an edge or corner, and periodic identifications (including the Möbius
//! strip) are expressible. This macro-structure is static and replicated on
//! every rank — the paper notes this is unproblematic because the number of
//! trees is small and independent of problem size.
//!
//! Topology is specified by *topological corner ids* per tree
//! ([`Connectivity::from_tree_corners`]): two faces (edges, corners) are
//! glued exactly when they consist of the same corner ids. Builders that
//! place trees in an integer lattice get their gluing derived automatically
//! ([`Connectivity::from_corner_positions`]) — including relative rotations,
//! which fall out of the corner correspondences. All derivation is exact
//! integer arithmetic; no floating point touches topology.

pub mod builders;
mod transform;

pub use transform::{CornerNeighbor, EdgeNeighbor, FaceTransform, Route};

use std::collections::HashMap;
use std::marker::PhantomData;

use crate::dim::Dim;
use crate::octant::Octant;

/// Index of a tree within the forest's connectivity.
pub type TreeId = u32;

/// Static description of the forest macro-mesh. Cheap to clone conceptually
/// but typically shared behind an `Arc` by the forest.
#[derive(Debug, Clone)]
pub struct Connectivity<D: Dim> {
    /// Deduplicated integer lattice positions of the topological corners.
    corner_lattice: Vec<[i64; 3]>,
    /// `num_trees * CORNERS` topological corner ids, z-order per tree.
    tree_corners: Vec<usize>,
    /// `num_trees * FACES` face connections; `None` is a domain boundary.
    face_conn: Vec<Option<FaceTransform>>,
    /// `num_trees * EDGES` (3D): every (tree, edge) sharing the macro-edge,
    /// including the entry for the key itself.
    edge_conn: Vec<Vec<EdgeNeighbor>>,
    /// `num_trees * CORNERS`: every (tree, corner) sharing the macro-corner,
    /// including the entry for the key itself.
    corner_conn: Vec<Vec<CornerNeighbor>>,
    num_trees: usize,
    _dim: PhantomData<D>,
}

impl<D: Dim> Connectivity<D> {
    /// Number of trees in the forest.
    #[inline]
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }

    /// Topological corner id of corner `c` of tree `k`.
    #[inline]
    pub fn tree_corner_id(&self, k: TreeId, c: usize) -> usize {
        self.tree_corners[k as usize * D::CORNERS + c]
    }

    /// Integer lattice position of corner `c` of tree `k` (geometry hint
    /// for the mapping layer; not used by any topology algorithm).
    #[inline]
    pub fn corner_lattice(&self, k: TreeId, c: usize) -> [i64; 3] {
        self.corner_lattice[self.tree_corner_id(k, c)]
    }

    /// The transform across face `f` of tree `k`, or `None` at a domain
    /// boundary.
    #[inline]
    pub fn face_transform(&self, k: TreeId, f: usize) -> Option<&FaceTransform> {
        self.face_conn[k as usize * D::FACES + f].as_ref()
    }

    /// All trees sharing edge `e` of tree `k` (3D), including `(k, e)`
    /// itself.
    #[inline]
    pub fn edge_neighbors(&self, k: TreeId, e: usize) -> &[EdgeNeighbor] {
        &self.edge_conn[k as usize * D::EDGES + e]
    }

    /// All trees sharing corner `c` of tree `k`, including `(k, c)` itself.
    #[inline]
    pub fn corner_neighbors(&self, k: TreeId, c: usize) -> &[CornerNeighbor] {
        &self.corner_conn[k as usize * D::CORNERS + c]
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Build a connectivity by placing each tree's `2^d` corners on an
    /// integer lattice; corners at identical positions are identified.
    ///
    /// Rotations between trees fall out of the positions: a tree whose
    /// corner order traverses the lattice differently than its neighbor's
    /// is connected with the corresponding coordinate transform.
    pub fn from_corner_positions(positions: &[Vec<[i64; 3]>]) -> Self {
        let mut ids: HashMap<[i64; 3], usize> = HashMap::new();
        let mut lattice: Vec<[i64; 3]> = Vec::new();
        let mut tree_corners = Vec::with_capacity(positions.len() * D::CORNERS);
        for tree in positions {
            assert_eq!(tree.len(), D::CORNERS, "need 2^d corners per tree");
            for &p in tree {
                debug_assert!(D::DIM == 3 || p[2] == 0, "2D lattice must be planar");
                let next = lattice.len();
                let id = *ids.entry(p).or_insert_with(|| {
                    lattice.push(p);
                    next
                });
                tree_corners.push(id);
            }
        }
        Self::from_tree_corners(positions.len(), tree_corners, lattice)
    }

    /// Build a connectivity from explicit topological corner ids
    /// (`num_trees * 2^d` entries, z-order per tree) and optional lattice
    /// positions per corner id (pass one position per id; positions are a
    /// geometry hint only).
    pub fn from_tree_corners(
        num_trees: usize,
        tree_corners: Vec<usize>,
        corner_lattice: Vec<[i64; 3]>,
    ) -> Self {
        assert_eq!(tree_corners.len(), num_trees * D::CORNERS);
        let n_ids = tree_corners.iter().copied().max().map_or(0, |m| m + 1);
        assert!(
            corner_lattice.len() >= n_ids,
            "need a lattice position for every corner id"
        );

        let mut conn = Connectivity {
            corner_lattice,
            tree_corners,
            face_conn: vec![None; num_trees * D::FACES],
            edge_conn: vec![Vec::new(); num_trees * D::EDGES],
            corner_conn: vec![Vec::new(); num_trees * D::CORNERS],
            num_trees,
            _dim: PhantomData,
        };
        conn.derive_faces();
        if D::DIM == 3 {
            conn.derive_edges();
        }
        conn.derive_corners();
        conn
    }

    /// Ids of the corners bounding face `f` of tree `k`, in face z-order.
    fn face_ids(&self, k: usize, f: usize) -> Vec<usize> {
        D::FACE_CORNERS[f]
            .iter()
            .map(|&c| self.tree_corners[k * D::CORNERS + c])
            .collect()
    }

    fn derive_faces(&mut self) {
        // Group faces by their (sorted) corner-id tuple.
        let mut groups: HashMap<Vec<usize>, Vec<(usize, usize)>> = HashMap::new();
        for k in 0..self.num_trees {
            for f in 0..D::FACES {
                let mut ids = self.face_ids(k, f);
                assert!(
                    {
                        let mut s = ids.clone();
                        s.sort_unstable();
                        s.windows(2).all(|w| w[0] != w[1])
                    },
                    "degenerate face: tree {k} face {f} repeats a corner id \
                     (periodic directions need at least two trees)"
                );
                ids.sort_unstable();
                groups.entry(ids).or_default().push((k, f));
            }
        }
        for (ids, members) in groups {
            match members.len() {
                1 => {} // domain boundary: face_conn stays None
                2 => {
                    let (ka, fa) = members[0];
                    let (kb, fb) = members[1];
                    self.face_conn[ka * D::FACES + fa] =
                        Some(self.build_face_transform(ka, fa, kb, fb));
                    self.face_conn[kb * D::FACES + fb] =
                        Some(self.build_face_transform(kb, fb, ka, fa));
                }
                n => panic!("non-conforming connectivity: {n} faces share corners {ids:?}"),
            }
        }
    }

    /// Derive the affine transform across the glued pair `(k, f) -> (k2, f2)`
    /// from the corner-id correspondence of the shared face.
    fn build_face_transform(&self, k: usize, f: usize, k2: usize, f2: usize) -> FaceTransform {
        let big = D::root_len();
        let src_ids = self.face_ids(k, f);
        let dst_ids = self.face_ids(k2, f2);
        // Position i on face f corresponds to the position of the same id
        // on face f2.
        let map: Vec<usize> = src_ids
            .iter()
            .map(|id| {
                dst_ids
                    .iter()
                    .position(|d| d == id)
                    .expect("glued faces must have identical corner-id sets")
            })
            .collect();

        // Corner points of position i, in source and target coordinates.
        let pt = |face: usize, pos: usize| -> [i32; 3] {
            let off = D::corner_offset(D::FACE_CORNERS[face][pos]);
            [off[0] * big, off[1] * big, off[2] * big]
        };

        let axis_n = D::face_axis(f);
        let mut perm = [usize::MAX; 3];
        let mut sign = [0i32; 3];
        let mut offset = [0i32; 3];

        // Normal axis: outward in the source is inward in the target.
        let axis_n2 = D::face_axis(f2);
        let outward = if D::face_positive(f) { 1 } else { -1 };
        let inward2 = if D::face_positive(f2) { -1 } else { 1 };
        perm[axis_n] = axis_n2;
        sign[axis_n] = outward * inward2;
        let plane_src = if D::face_positive(f) { big } else { 0 };
        let plane_dst = if D::face_positive(f2) { big } else { 0 };
        offset[axis_n] = plane_dst - sign[axis_n] * plane_src;

        // Tangential axes: position pairs (0,1) differ along the first
        // tangential axis, (0,2) along the second (z-order within the face).
        let tangentials: Vec<usize> = (0..D::DIM as usize).filter(|&a| a != axis_n).collect();
        for (t_idx, &t) in tangentials.iter().enumerate() {
            let partner = 1 << t_idx; // face position differing along t
            let p0 = pt(f, 0);
            let p1 = pt(f, partner);
            let q0 = pt(f2, map[0]);
            let q1 = pt(f2, map[partner]);
            // q1 - q0 is +-big along exactly one target axis.
            let mut found = false;
            for a2 in 0..3 {
                let d = q1[a2] - q0[a2];
                if d != 0 {
                    assert!(!found && d.abs() == big, "face gluing is not an isometry");
                    perm[t] = a2;
                    sign[t] = d / big * ((p1[t] - p0[t]) / big); // p1-p0 = +big along t
                    offset[t] = q0[a2] - sign[t] * p0[t];
                    found = true;
                }
            }
            assert!(found, "face gluing degenerate along tangential axis {t}");
        }

        // 2D: third axis is inert.
        if D::DIM == 2 {
            perm[2] = 2;
            sign[2] = 1;
            offset[2] = 0;
        }

        let t = FaceTransform {
            target: k2 as TreeId,
            target_face: f2,
            perm,
            sign,
            offset,
        };
        assert!(t.is_well_formed(), "derived transform invalid: {t:?}");
        t
    }

    fn derive_edges(&mut self) {
        // Group edges by their unordered corner-id pair.
        let mut groups: HashMap<(usize, usize), Vec<(usize, usize, (usize, usize))>> =
            HashMap::new();
        for k in 0..self.num_trees {
            for e in 0..D::EDGES {
                let [ca, cb] = D::EDGE_CORNERS[e];
                let a = self.tree_corners[k * D::CORNERS + ca];
                let b = self.tree_corners[k * D::CORNERS + cb];
                assert!(a != b, "degenerate edge: tree {k} edge {e}");
                let key = (a.min(b), a.max(b));
                groups.entry(key).or_default().push((k, e, (a, b)));
            }
        }
        for members in groups.values() {
            for &(k, e, (a, _)) in members {
                let list: Vec<EdgeNeighbor> = members
                    .iter()
                    .map(|&(k2, e2, (a2, _))| EdgeNeighbor {
                        tree: k2 as TreeId,
                        edge: e2,
                        reversed: a2 != a,
                    })
                    .collect();
                self.edge_conn[k * D::EDGES + e] = list;
            }
        }
    }

    fn derive_corners(&mut self) {
        let mut groups: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
        for k in 0..self.num_trees {
            for c in 0..D::CORNERS {
                let id = self.tree_corners[k * D::CORNERS + c];
                groups.entry(id).or_default().push((k, c));
            }
        }
        for members in groups.values() {
            let list: Vec<CornerNeighbor> = members
                .iter()
                .map(|&(k2, c2)| CornerNeighbor {
                    tree: k2 as TreeId,
                    corner: c2,
                })
                .collect();
            for &(k, c) in members {
                self.corner_conn[k * D::CORNERS + c] = list.clone();
            }
        }
    }

    // ------------------------------------------------------------------
    // Routing of exterior octants and boundary points
    // ------------------------------------------------------------------

    /// Images, in neighboring trees, of an octant exterior to tree `k`.
    ///
    /// The octant must lie within one root length of the tree cube. An
    /// interior octant routes to itself; an exterior one routes across the
    /// face, edge, or corner it sits beyond — possibly to several trees
    /// (any number may share a macro-edge or -corner), or to none at a
    /// domain boundary.
    pub fn exterior_images(&self, k: TreeId, o: &Octant<D>) -> Vec<(TreeId, Octant<D>)> {
        self.exterior_images_routed(k, o)
            .map(|(t, m, _)| (t, m))
            .collect()
    }

    /// As [`Connectivity::exterior_images`], additionally reporting *how*
    /// each image was produced (which macro-entity was crossed), so callers
    /// can transform associated point data with [`Route::map_point_scaled`].
    /// Allocation-free: the images are generated on demand.
    pub fn exterior_images_routed(
        &self,
        k: TreeId,
        o: &Octant<D>,
    ) -> impl Iterator<Item = (TreeId, Octant<D>, Route<'_>)> + '_ {
        let big = D::root_len();
        let (mut out, mut high) = (0, 0);
        for (d, &cd) in o.coords().iter().enumerate().take(D::DIM as usize) {
            debug_assert!(cd >= -big && cd < 2 * big, "octant too far outside tree");
            if cd < 0 || cd >= big {
                out |= 1 << d;
                high |= usize::from(cd >= big) << d;
            }
        }
        let o = *o;
        let crossing = self.crossing(k, out, high);
        let own = match crossing {
            Crossing::Interior => Some((k, o, Route::Interior)),
            Crossing::Face(t) => t.map(|t| (t.target, t.apply_octant(&o), Route::Face(t))),
            _ => None,
        };
        let (edges, corners) = crossing.shared(k);
        own.into_iter()
            .chain(edges.map(move |(e, nb)| {
                let route = Route::Edge { source_edge: e, nb };
                (nb.tree, nb.apply_octant(e, &o), route)
            }))
            .chain(corners.map(move |(c, nb)| {
                let route = Route::Corner {
                    source_corner: c,
                    nb,
                };
                (nb.tree, nb.octant_at_corner(o.level), route)
            }))
    }

    /// All images of a point of tree `k` (coordinates in `[0, root_len]`),
    /// including `(k, p)` itself. Interior points have a single image;
    /// points on tree faces/edges/corners are shared with every touching
    /// tree.
    pub fn point_images(&self, k: TreeId, p: [i32; 3]) -> Vec<(TreeId, [i32; 3])> {
        self.point_images_scaled(k, p, 1).collect()
    }

    /// As [`Connectivity::point_images`], with coordinates scaled by
    /// `scale` (the node-lattice convention: positions are `N * x`), and
    /// allocation-free: the images are generated on demand.
    pub fn point_images_scaled(
        &self,
        k: TreeId,
        p: [i32; 3],
        scale: i32,
    ) -> impl Iterator<Item = (TreeId, [i32; 3])> + '_ {
        let big = scale * D::root_len();
        let (mut on, mut high) = (0, 0);
        for (d, &pd) in p.iter().enumerate().take(D::DIM as usize) {
            debug_assert!((0..=big).contains(&pd), "point outside closed tree cube");
            if pd == 0 || pd == big {
                on |= 1 << d;
                high |= usize::from(pd == big) << d;
            }
        }
        let crossing = self.crossing(k, on, high);
        let face = match crossing {
            Crossing::Face(Some(t)) => Some((t.target, t.apply_point_scaled(p, scale))),
            _ => None,
        };
        let (edges, corners) = crossing.shared(k);
        std::iter::once((k, p))
            .chain(face)
            .chain(edges.map(move |(e, nb)| {
                (
                    nb.tree,
                    nb.apply_edge_point_scaled::<D>(p[D::edge_axis(e)], scale),
                )
            }))
            .chain(corners.map(move |(_, nb)| (nb.tree, nb.corner_point_scaled::<D>(scale))))
    }

    /// The macro-entity of tree `k` that a box or point lies beyond (or
    /// on): `out` has a bit per such axis, `high` a bit per axis where
    /// that is the high side. No axis names the tree itself, one a face,
    /// two an edge in 3D, and all of them a corner.
    fn crossing(&self, k: TreeId, out: usize, high: usize) -> Crossing<'_> {
        match out.count_ones() {
            0 => Crossing::Interior,
            1 => {
                let axis = out.trailing_zeros() as usize;
                Crossing::Face(self.face_transform(k, 2 * axis + (high >> axis & 1)))
            }
            2 if D::DIM == 3 => {
                // The edge runs along the axis left over; the sides of
                // the two transverse axes, lower axis first, are its bits.
                let run = (!out & 7).trailing_zeros() as usize;
                let (lo, hi) = (usize::from(run == 0), 2 - usize::from(run == 2));
                let e = run * 4 + (high >> lo & 1) + 2 * (high >> hi & 1);
                Crossing::Edge(e, self.edge_neighbors(k, e))
            }
            _ => Crossing::Corner(high, self.corner_neighbors(k, high)),
        }
    }

    /// Consistency checks on the derived structure; panics with a
    /// description on failure. Used by tests and builders.
    pub fn validate(&self) {
        let big = D::root_len();
        for k in 0..self.num_trees {
            for f in 0..D::FACES {
                let Some(t) = self.face_transform(k as TreeId, f) else {
                    continue;
                };
                assert!(t.is_well_formed(), "tree {k} face {f}: malformed transform");
                // The reverse connection must exist and invert this one.
                let back = self
                    .face_transform(t.target, t.target_face)
                    .unwrap_or_else(|| panic!("tree {k} face {f}: no reverse connection"));
                assert_eq!(back.target, k as TreeId);
                assert_eq!(back.target_face, f);
                for p in [
                    [0, 0, 0],
                    [3, 5, 7],
                    [big, big, if D::DIM == 3 { big } else { 0 }],
                ] {
                    assert_eq!(
                        back.apply_point(t.apply_point(p)),
                        p,
                        "tree {k} face {f}: transform round-trip failed"
                    );
                }
                // Face corner points must map onto target face corner points.
                for &c in D::FACE_CORNERS[f] {
                    let off = D::corner_offset(c);
                    let p = [off[0] * big, off[1] * big, off[2] * big];
                    let q = t.apply_point(p);
                    let axis2 = D::face_axis(t.target_face);
                    let plane2 = if D::face_positive(t.target_face) {
                        big
                    } else {
                        0
                    };
                    assert_eq!(
                        q[axis2], plane2,
                        "tree {k} face {f}: corner off target plane"
                    );
                    for (d, &qd) in q.iter().enumerate().take(D::DIM as usize) {
                        assert!(
                            qd == 0 || qd == big,
                            "tree {k} face {f}: image {q:?} of corner {c} not a corner (axis {d})"
                        );
                    }
                }
            }
            for e in 0..D::EDGES {
                for nb in self.edge_neighbors(k as TreeId, e) {
                    // Symmetry: the neighbor's list contains us with the
                    // same relative orientation.
                    let theirs = self.edge_neighbors(nb.tree, nb.edge);
                    let back = theirs
                        .iter()
                        .find(|x| x.tree == k as TreeId && x.edge == e)
                        .unwrap_or_else(|| panic!("tree {k} edge {e}: asymmetric edge list"));
                    assert_eq!(back.reversed, nb.reversed);
                }
            }
            for c in 0..D::CORNERS {
                for nb in self.corner_neighbors(k as TreeId, c) {
                    let theirs = self.corner_neighbors(nb.tree, nb.corner);
                    assert!(
                        theirs
                            .iter()
                            .any(|x| x.tree == k as TreeId && x.corner == c),
                        "tree {k} corner {c}: asymmetric corner list"
                    );
                }
            }
        }
    }
}

/// What lies across the macro-entity a box or point of a tree sits
/// beyond (or on); see [`Connectivity::crossing`].
#[derive(Clone, Copy)]
enum Crossing<'a> {
    /// Inside the tree: nothing is crossed.
    Interior,
    /// A face: its transform, `None` at a domain boundary.
    Face(Option<&'a FaceTransform>),
    /// A macro-edge (3D): the source tree's edge and every edge sharing it.
    Edge(usize, &'a [EdgeNeighbor]),
    /// A macro-corner: the source tree's corner and every corner sharing it.
    Corner(usize, &'a [CornerNeighbor]),
}

impl<'a> Crossing<'a> {
    /// The other trees' entities across a crossed macro-edge and
    /// macro-corner, each with the source tree `k`'s entity number; both
    /// are empty for a face or the interior.
    fn shared(
        self,
        k: TreeId,
    ) -> (
        impl Iterator<Item = (usize, EdgeNeighbor)> + 'a,
        impl Iterator<Item = (usize, CornerNeighbor)> + 'a,
    ) {
        let (e, edges, c, corners) = match self {
            Crossing::Edge(e, nbs) => (e, nbs, 0, &[][..]),
            Crossing::Corner(c, nbs) => (0, &[][..], c, nbs),
            _ => (0, &[][..], 0, &[][..]),
        };
        (
            edges
                .iter()
                .filter(move |nb| !(nb.tree == k && nb.edge == e))
                .map(move |nb| (e, *nb)),
            corners
                .iter()
                .filter(move |nb| !(nb.tree == k && nb.corner == c))
                .map(move |nb| (c, *nb)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::builders::*;
    use super::*;
    use crate::dim::{D2, D3};

    /// For every glued face of every tree: pushing an interior octant out
    /// through the face yields exactly one interior image, and pushing that
    /// image back returns the original octant.
    fn check_face_roundtrip_3d(c: &Connectivity<D3>) {
        for k in 0..c.num_trees() as TreeId {
            for f in 0..D3::FACES {
                if c.face_transform(k, f).is_none() {
                    continue;
                }
                // An interior octant touching face f from inside.
                let mut o = Octant::<D3>::root().child(5).child(2);
                let axis = D3::face_axis(f);
                let big = D3::root_len();
                let mut coords = o.coords();
                coords[axis] = if D3::face_positive(f) {
                    big - o.len()
                } else {
                    0
                };
                o = Octant::from_coords(coords, o.level);

                let ext = o.face_neighbor(f);
                assert!(!ext.is_inside_root());
                let images = c.exterior_images(k, &ext);
                assert_eq!(images.len(), 1, "tree {k} face {f}");
                let (k2, m) = images[0];
                assert!(m.is_inside_root(), "image must be interior");
                // Return trip through the target face.
                let f2 = c.face_transform(k, f).unwrap().target_face;
                let back_ext = m.face_neighbor(f2);
                let back = c.exterior_images(k2, &back_ext);
                assert_eq!(back, vec![(k, o)], "tree {k} face {f} round trip");
            }
        }
    }

    #[test]
    fn face_roundtrip_all_builders() {
        check_face_roundtrip_3d(&brick3d([2, 2, 1], [false; 3]));
        check_face_roundtrip_3d(&brick3d([3, 1, 1], [true, false, false]));
        check_face_roundtrip_3d(&two_trees_rotated());
        check_face_roundtrip_3d(&rotcubes6());
        check_face_roundtrip_3d(&cubed_sphere());
        check_face_roundtrip_3d(&shell24());
    }

    #[test]
    fn face_roundtrip_2d() {
        let c = moebius();
        for k in 0..5 {
            for f in 0..2 {
                let o = Octant::<D2>::root()
                    .child(if f == 0 { 0 } else { 1 })
                    .child(if f == 0 { 0 } else { 3 });
                let ext = o.face_neighbor(f);
                let images = c.exterior_images(k, &ext);
                assert_eq!(images.len(), 1);
                let (k2, m) = images[0];
                assert!(m.is_inside_root());
                let f2 = c.face_transform(k, f).unwrap().target_face;
                let back = c.exterior_images(k2, &m.face_neighbor(f2));
                assert_eq!(back, vec![(k, o)]);
            }
        }
    }

    #[test]
    fn interior_octant_routes_to_itself() {
        let c = rotcubes6();
        let o = Octant::<D3>::root().child(3);
        assert_eq!(c.exterior_images(1, &o), vec![(1, o)]);
    }

    #[test]
    fn boundary_face_routes_nowhere() {
        let c = unit3d();
        let o = Octant::<D3>::root().child(0).face_neighbor(0);
        assert!(c.exterior_images(0, &o).is_empty());
    }

    #[test]
    fn central_edge_routes_to_three_other_trees() {
        let c = rotcubes6();
        // Tree 0's edge 0 runs along x at y=0, z=0. The diagonal exterior
        // octant across it must appear in the three other axis trees.
        let o = Octant::<D3>::new(0, 0, 0, 2);
        let diag = o.edge_neighbor(0); // y, z both exterior
        let images = c.exterior_images(0, &diag);
        assert_eq!(images.len(), 3, "{images:?}");
        for (k2, m) in &images {
            assert_ne!(*k2, 0);
            assert!(m.is_inside_root());
            assert_eq!(m.level, 2);
        }
    }

    /// `crossing`'s bit arithmetic names the macro-entity that the octant
    /// neighbor API steps across: every image of a level-1 octant's edge
    /// or corner neighbor beyond a tree edge or corner is routed through
    /// that edge or corner, on every tree.
    #[test]
    fn routes_name_the_entity_crossed() {
        let big = D3::root_len();
        let out = |m: &Octant<D3>| m.coords().iter().filter(|&&x| x < 0 || x >= big).count();
        for c in [rotcubes6(), cubed_sphere()] {
            let (mut edges, mut corners) = (0, 0);
            for k in 0..c.num_trees() as TreeId {
                for child in 0..D3::CORNERS {
                    let o = Octant::<D3>::root().child(child);
                    for e in (0..D3::EDGES).filter(|&e| out(&o.edge_neighbor(e)) == 2) {
                        for (_, _, route) in c.exterior_images_routed(k, &o.edge_neighbor(e)) {
                            let Route::Edge { source_edge, .. } = route else {
                                panic!("tree {k} edge {e}: not an edge route");
                            };
                            assert_eq!(source_edge, e, "tree {k}");
                            edges += 1;
                        }
                    }
                    for q in (0..D3::CORNERS).filter(|&q| out(&o.corner_neighbor(q)) == 3) {
                        for (_, _, route) in c.exterior_images_routed(k, &o.corner_neighbor(q)) {
                            let Route::Corner { source_corner, .. } = route else {
                                panic!("tree {k} corner {q}: not a corner route");
                            };
                            assert_eq!(source_corner, q, "tree {k}");
                            corners += 1;
                        }
                    }
                }
            }
            assert!(
                edges > 0 && corners > 0,
                "{edges} edge and {corners} corner routes"
            );
        }
    }

    #[test]
    fn point_images_symmetric_on_shell() {
        let c = shell24();
        let big = D3::root_len();
        // Points to test: a face-interior point, an edge point, a corner.
        let pts = [
            [big, big / 2, big / 4],
            [big, big, big / 2],
            [big, big, big],
        ];
        for k in 0..24 {
            for p in pts {
                let images = c.point_images(k, p);
                assert!(images.contains(&(k, p)));
                for &(k2, p2) in &images {
                    let back = c.point_images(k2, p2);
                    assert!(
                        back.contains(&(k, p)),
                        "tree {k} point {p:?}: asymmetric images via ({k2}, {p2:?})"
                    );
                    assert_eq!(back.len(), images.len(), "orbit size must agree");
                }
            }
        }
    }

    #[test]
    fn corner_point_orbit_size_matches_sharing() {
        let c = cubed_sphere();
        let big = D3::root_len();
        // An outer-corner point of a cap is shared by 3 caps.
        let images = c.point_images(0, [0, 0, big]);
        assert_eq!(images.len(), 3, "{images:?}");
    }

    #[test]
    fn moebius_point_orbit() {
        let c = moebius();
        let big = D2::root_len();
        // Mid-edge point on the twisted seam: shared by trees 4 and 0.
        let images = c.point_images(4, [big, big / 4, 0]);
        assert_eq!(images.len(), 2);
        let other = images
            .iter()
            .find(|(k, _)| *k == 0)
            .expect("image in tree 0");
        // The twist maps y to big - y.
        assert_eq!(other.1, [0, big - big / 4, 0]);
    }
}
