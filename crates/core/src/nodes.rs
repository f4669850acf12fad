//! `Nodes`: globally unique numbering of continuous-Galerkin unknowns.
//!
//! For a degree-`N` nodal discretization, every element carries `(N+1)^d`
//! nodes on its tensor lattice. On a conforming face the lattices of the
//! two neighbors coincide and the nodes are shared; on a 2:1 *hanging* face
//! or edge the small side's nodes "are generally not associated with
//! independent unknowns; instead we constrain them to interpolate
//! neighboring unknowns associated with full-size faces or edges" (paper
//! §II-E). Nodes on octree boundaries are canonicalized — "assigned to the
//! lowest numbered participating octree and transformed into its coordinate
//! system" — so that all ranks and all touching trees agree on identity.
//!
//! Identity is purely discrete: a node is keyed by its canonical
//! `(tree, scaled position)` where positions are the element lattice scaled
//! by `N` (so they are exact integers). The actual basis points (LGL) enter
//! only in the interpolation *weights*, which the discretization layer
//! computes from the rational relative positions recorded here.
//!
//! Ownership of an independent node is decided by a globally agreed rule
//! requiring no extra communication: the owner of the finest-level atom at
//! the node's canonical position (clamped into the domain) owns the node.
//! Global ids are assigned per owner in canonical key order, offset by an
//! exclusive scan of owned counts. Ranks that reference a node they do not
//! own query the owner once (one all-to-all round trip), which also builds
//! the scatter/gather plan used by [`Nodes::assemble_add`].

use std::collections::HashMap;

use forust_comm::{read_vec, write_vec, Communicator, PendingExchange, Wire, TAG_COLLECTIVE};

use crate::connectivity::{Route, TreeId};
use crate::dim::Dim;
use crate::forest::{Forest, GhostLayer};
use crate::hash::FxHashMap;
use crate::octant::Octant;

/// Canonical identity of a node: lowest participating tree, position in
/// that tree's coordinate system scaled by the polynomial degree.
pub type NodeKey = (TreeId, [i32; 3]);

/// Classification of one local node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeStatus {
    /// A genuine degree of freedom.
    Independent {
        /// Globally unique id in `0..num_global`.
        global: u64,
        /// Rank owning this dof.
        owner: usize,
    },
    /// A hanging node: its value interpolates `parents`.
    Hanging {
        /// Local indices of the parent nodes, in lattice order over the
        /// full (coarse) entity: `(N+1)^entity_dim` entries, first axis
        /// fastest.
        parents: Vec<u32>,
        /// Relative position within the coarse entity per entity axis,
        /// as a numerator over `2N` (so in `1..2N`, odd or even mixes,
        /// never all even — that case is an independent node).
        rel: [u16; 2],
        /// 1 for a hanging edge, 2 for a hanging face.
        entity_dim: u8,
    },
}

/// The result of the `Nodes` algorithm on one rank.
#[derive(Debug, Clone)]
pub struct Nodes<D: Dim> {
    /// Polynomial degree `N >= 1`.
    pub degree: usize,
    /// `(N+1)^d`.
    pub nodes_per_elem: usize,
    /// Local elements in SFC order (copied from the forest for indexing).
    pub elements: Vec<(TreeId, Octant<D>)>,
    /// `elements.len() * nodes_per_elem` local node indices, node lattice
    /// x-fastest within each element.
    pub element_nodes: Vec<u32>,
    /// Canonical key per local node.
    pub keys: Vec<NodeKey>,
    /// Status per local node.
    pub status: Vec<NodeStatus>,
    /// Number of dofs owned by this rank.
    pub num_owned: usize,
    /// Global id of this rank's first owned dof.
    pub global_offset: u64,
    /// Total dofs across all ranks.
    pub num_global: u64,
    /// Per rank: local node indices whose dof that rank owns (sorted by
    /// canonical key).
    pub borrowed_by_rank: Vec<Vec<u32>>,
    /// Per rank: local (owned) node indices that rank references, in the
    /// order of its borrowed list.
    pub lent_to_rank: Vec<Vec<u32>>,
}

/// Internal draft of a node's classification during construction.
enum Draft {
    Unset,
    Independent,
    Hanging {
        parents: Vec<u32>,
        rel: [u16; 2],
        entity_dim: u8,
    },
}

/// How one facet of an element hangs, recorded at detection time.
struct FaceHang<'a, D: Dim> {
    /// Tree of the coarse neighbor.
    tree: TreeId,
    /// The coarse neighbor leaf.
    coarse: Octant<D>,
    /// Plane axis in the coarse tree frame, and whether it is the coarse
    /// octant's high side.
    plane_axis: usize,
    plane_high: bool,
    /// Point map into the coarse tree frame.
    route: Route<'a>,
}

struct EdgeHang<'a, D: Dim> {
    tree: TreeId,
    coarse: Octant<D>,
    /// Axis in the coarse tree frame along which the edge runs.
    run_axis: usize,
    route: Route<'a>,
}

impl<D: Dim> Forest<D> {
    /// `Nodes`: build the globally unique numbering of degree-`N` cG
    /// unknowns with hanging-node constraints. Requires a 2:1 balanced
    /// forest and its ghost layer.
    ///
    /// This is the recursive-era formulation: the per-element flow of
    /// [`Forest::nodes_reference`] with allocation-free fast paths for
    /// the overwhelmingly common all-interior cases — an interior point
    /// is its own canonical image, and an in-root neighbor box routes
    /// through `Route::Interior` only, so neither needs the image
    /// enumeration. Both paths produce identical keys, classifications
    /// and interning order, so the result is bitwise identical to the
    /// oracle (asserted node-for-node by the fuzz suite).
    pub fn nodes(
        &self,
        comm: &impl Communicator,
        ghost: &GhostLayer<D>,
        degree: usize,
    ) -> Nodes<D> {
        let _span = forust_obs::span!("forest.nodes");
        assert!(degree >= 1, "nodes: degree must be at least 1");
        let n = degree as i32;
        let npe_1d = degree + 1;
        let nodes_per_elem = npe_1d.pow(D::DIM);
        let big = D::root_len();

        let elements: Vec<(TreeId, Octant<D>)> = self.iter_local().map(|(t, o)| (t, *o)).collect();

        // Leaf lookup across local storage and the ghost layer.
        let find_leaf = |t: TreeId, region: &Octant<D>| -> Option<Octant<D>> {
            if let Some((_, leaf)) = self.find_local_containing(t, region) {
                return Some(*leaf);
            }
            ghost.find_containing(t, region).map(|i| ghost.ghosts[i].1)
        };

        // Canonicalize a scaled position of tree `t`. A strictly interior
        // point has exactly one image — itself — so only boundary points
        // pay for the image enumeration.
        let canon = |t: TreeId, pos: [i32; 3]| -> NodeKey {
            if (0..D::DIM as usize).all(|d| pos[d] > 0 && pos[d] < n * big) {
                return (t, pos);
            }
            self.conn
                .point_images_scaled(t, pos, n)
                .into_iter()
                .min()
                .expect("point has at least its own image")
        };

        let mut key_index: FxHashMap<NodeKey, u32> = FxHashMap::default();
        let mut keys: Vec<NodeKey> = Vec::new();
        let mut drafts: Vec<Draft> = Vec::new();
        let mut intern = |key: NodeKey, keys: &mut Vec<NodeKey>, drafts: &mut Vec<Draft>| -> u32 {
            *key_index.entry(key).or_insert_with(|| {
                keys.push(key);
                drafts.push(Draft::Unset);
                (keys.len() - 1) as u32
            })
        };

        let mut element_nodes: Vec<u32> = Vec::with_capacity(elements.len() * nodes_per_elem);

        for &(t, o) in &elements {
            let h = o.len();
            let level = o.level;

            // --- Detect hanging faces -------------------------------------
            // A coarser neighbor can only sit across an *outer* face of the
            // sibling group: across an inner face the neighbor region lies
            // inside our parent, so a containing leaf at `level - 1` would
            // have to be the parent itself — impossible while we are its
            // descendant. Root elements have no coarser side at all. This
            // prunes half the face probes with bit arithmetic.
            let cid = o.child_id();
            let mut face_hang: Vec<Option<FaceHang<'_, D>>> = (0..D::FACES).map(|_| None).collect();
            for (f, slot) in face_hang.iter_mut().enumerate() {
                if level == 0 || (((cid >> D::face_axis(f)) & 1) == 1) != D::face_positive(f) {
                    continue;
                }
                let nb = o.face_neighbor(f);
                if nb.is_inside_root() {
                    // Fast path: the neighbor box is its own single image
                    // (`Route::Interior`).
                    if let Some(leaf) = find_leaf(t, &nb) {
                        if leaf.level + 1 == level {
                            let plane_axis = D::face_axis(f);
                            let my_plane = if D::face_positive(f) {
                                o.coords()[plane_axis] + h
                            } else {
                                o.coords()[plane_axis]
                            };
                            let plane_high = if my_plane == leaf.coords()[plane_axis] {
                                false
                            } else {
                                debug_assert_eq!(my_plane, leaf.coords()[plane_axis] + leaf.len());
                                true
                            };
                            *slot = Some(FaceHang {
                                tree: t,
                                coarse: leaf,
                                plane_axis,
                                plane_high,
                                route: Route::Interior,
                            });
                        }
                    }
                    continue;
                }
                for (k2, m, route) in self.conn.exterior_images_routed(t, &nb) {
                    let Some(leaf) = find_leaf(k2, &m) else {
                        continue;
                    };
                    if leaf.level + 1 != level {
                        continue;
                    }
                    // Plane of the shared face in the coarse frame: the
                    // boundary plane of `m` facing back toward us.
                    let plane_axis = match &route {
                        Route::Interior => D::face_axis(f),
                        Route::Face(tr) => tr.perm[D::face_axis(f)],
                        _ => unreachable!("face neighbor crosses at most a macro-face"),
                    };
                    // The shared plane coordinate equals my face plane
                    // mapped; determine low/high side of the coarse leaf.
                    let my_plane = if D::face_positive(f) {
                        o.coords()[D::face_axis(f)] + h
                    } else {
                        o.coords()[D::face_axis(f)]
                    };
                    let mut probe = o.coords();
                    probe[D::face_axis(f)] = my_plane;
                    let probe2 = route.map_point_scaled::<D>(probe, 1);
                    let plane_high = if probe2[plane_axis] == leaf.coords()[plane_axis] {
                        false
                    } else {
                        debug_assert_eq!(
                            probe2[plane_axis],
                            leaf.coords()[plane_axis] + leaf.len()
                        );
                        true
                    };
                    *slot = Some(FaceHang {
                        tree: k2,
                        coarse: leaf,
                        plane_axis,
                        plane_high,
                        route,
                    });
                    break;
                }
            }

            // --- Detect hanging edges (3D) --------------------------------
            // Same pruning for edges: a coarser edge neighbor requires the
            // edge to lie on the sibling group's boundary along *both*
            // transverse axes — three of twelve edges on average.
            let mut edge_hang: Vec<Option<EdgeHang<'_, D>>> = (0..D::EDGES).map(|_| None).collect();
            for (e, slot) in edge_hang.iter_mut().enumerate() {
                if level == 0 {
                    continue;
                }
                let axis = D::edge_axis(e);
                let bits = e % 4;
                let mut outer = true;
                let mut b = 0;
                for d in 0..3 {
                    if d == axis {
                        continue;
                    }
                    outer &= (((bits >> b) & 1) == 1) == (((cid >> d) & 1) == 1);
                    b += 1;
                }
                if !outer {
                    continue;
                }
                let nb = o.edge_neighbor(e);
                if nb.is_inside_root() {
                    // Fast path: single interior image; the run axis is the
                    // edge's own axis (identity map).
                    if let Some(leaf) = find_leaf(t, &nb) {
                        if leaf.level + 1 == level {
                            *slot = Some(EdgeHang {
                                tree: t,
                                coarse: leaf,
                                run_axis: D::edge_axis(e),
                                route: Route::Interior,
                            });
                        }
                    }
                    continue;
                }
                for (k2, m, route) in self.conn.exterior_images_routed(t, &nb) {
                    let Some(leaf) = find_leaf(k2, &m) else {
                        continue;
                    };
                    if leaf.level + 1 != level {
                        continue;
                    }
                    // Run axis in the coarse frame: map both endpoints of
                    // my edge and see which axis varies.
                    let [ca, cb] = D::EDGE_CORNERS[e];
                    let pa = route.map_point_scaled::<D>(o.corner_coords(ca), 1);
                    let pb = route.map_point_scaled::<D>(o.corner_coords(cb), 1);
                    let run_axis = (0..3)
                        .find(|&d| pa[d] != pb[d])
                        .expect("edge endpoints must differ along one axis");
                    *slot = Some(EdgeHang {
                        tree: k2,
                        coarse: leaf,
                        run_axis,
                        route,
                    });
                    break;
                }
            }

            // --- Classify every node of this element ----------------------
            let idx_ranges: [usize; 3] = [npe_1d, npe_1d, if D::DIM == 3 { npe_1d } else { 1 }];
            for iz in 0..idx_ranges[2] {
                for iy in 0..idx_ranges[1] {
                    for ix in 0..idx_ranges[0] {
                        let idx = [ix as i32, iy as i32, iz as i32];
                        // Scaled position in my tree frame.
                        let pos = [
                            n * o.x + idx[0] * h,
                            n * o.y + idx[1] * h,
                            n * o.z + idx[2] * h,
                        ];
                        // Faces this node lies on.
                        let on_face = |f: usize| -> bool {
                            let a = D::face_axis(f);
                            if D::face_positive(f) {
                                idx[a] == n
                            } else {
                                idx[a] == 0
                            }
                        };
                        // First hanging face containing the node wins.
                        let face_c = (0..D::FACES).find(|&f| on_face(f) && face_hang[f].is_some());

                        let node_idx = if let Some(f) = face_c {
                            let hang = face_hang[f].as_ref().expect("checked");
                            self.hanging_face_node(
                                hang,
                                n,
                                pos,
                                &mut intern,
                                &mut keys,
                                &mut drafts,
                                &canon,
                            )
                        } else {
                            // Hanging edge: node on edge e, no hanging face.
                            let mut via_edge = None;
                            for (e, eh) in edge_hang.iter().enumerate() {
                                let Some(eh) = eh else { continue };
                                let on_edge = {
                                    let axis = D::edge_axis(e);
                                    let bits = e % 4;
                                    let mut ok = true;
                                    let mut b = 0;
                                    for d in 0..3 {
                                        if d == axis {
                                            continue;
                                        }
                                        let want = if (bits >> b) & 1 == 1 { n } else { 0 };
                                        ok &= idx[d] == want;
                                        b += 1;
                                    }
                                    ok
                                };
                                if on_edge {
                                    via_edge = Some(self.hanging_edge_node(
                                        eh,
                                        n,
                                        pos,
                                        &mut intern,
                                        &mut keys,
                                        &mut drafts,
                                        &canon,
                                    ));
                                    break;
                                }
                            }
                            via_edge.unwrap_or_else(|| {
                                let i = intern(canon(t, pos), &mut keys, &mut drafts);
                                mark_independent(&mut drafts, i);
                                i
                            })
                        };
                        element_nodes.push(node_idx);
                    }
                }
            }
        }

        self.nodes_finish(comm, degree, elements, element_nodes, keys, drafts, |k| {
            key_index.get(k).copied()
        })
    }

    /// The pre-recursive `Nodes` classification, retained as the
    /// equivalence oracle for [`Forest::nodes`] (the fuzz suite asserts
    /// node-for-node identity across ranks and worker counts). Both share
    /// the numbering tail, which `lent_and_borrowed_are_dual` checks.
    #[doc(hidden)]
    pub fn nodes_reference(
        &self,
        comm: &impl Communicator,
        ghost: &GhostLayer<D>,
        degree: usize,
    ) -> Nodes<D> {
        assert!(degree >= 1, "nodes: degree must be at least 1");
        let n = degree as i32;
        let npe_1d = degree + 1;
        let nodes_per_elem = npe_1d.pow(D::DIM);

        let elements: Vec<(TreeId, Octant<D>)> = self.iter_local().map(|(t, o)| (t, *o)).collect();

        // Leaf lookup across local storage and the ghost layer.
        let find_leaf = |t: TreeId, region: &Octant<D>| -> Option<Octant<D>> {
            if let Some((_, leaf)) = self.find_local_containing(t, region) {
                return Some(*leaf);
            }
            ghost.find_containing(t, region).map(|i| ghost.ghosts[i].1)
        };

        // Canonicalize a scaled position of tree `t`.
        let canon = |t: TreeId, pos: [i32; 3]| -> NodeKey {
            self.conn
                .point_images_scaled(t, pos, n)
                .into_iter()
                .min()
                .expect("point has at least its own image")
        };

        let mut key_index: HashMap<NodeKey, u32> = HashMap::new();
        let mut keys: Vec<NodeKey> = Vec::new();
        let mut drafts: Vec<Draft> = Vec::new();
        let mut intern = |key: NodeKey, keys: &mut Vec<NodeKey>, drafts: &mut Vec<Draft>| -> u32 {
            *key_index.entry(key).or_insert_with(|| {
                keys.push(key);
                drafts.push(Draft::Unset);
                (keys.len() - 1) as u32
            })
        };

        let mut element_nodes: Vec<u32> = Vec::with_capacity(elements.len() * nodes_per_elem);

        for &(t, o) in &elements {
            let h = o.len();
            let level = o.level;

            // --- Detect hanging faces -------------------------------------
            let mut face_hang: Vec<Option<FaceHang<'_, D>>> = (0..D::FACES).map(|_| None).collect();
            for (f, slot) in face_hang.iter_mut().enumerate() {
                let nb = o.face_neighbor(f);
                for (k2, m, route) in self.conn.exterior_images_routed(t, &nb) {
                    let Some(leaf) = find_leaf(k2, &m) else {
                        continue;
                    };
                    if leaf.level + 1 != level {
                        continue;
                    }
                    // Plane of the shared face in the coarse frame: the
                    // boundary plane of `m` facing back toward us.
                    let plane_axis = match &route {
                        Route::Interior => D::face_axis(f),
                        Route::Face(tr) => tr.perm[D::face_axis(f)],
                        _ => unreachable!("face neighbor crosses at most a macro-face"),
                    };
                    // The shared plane coordinate equals my face plane
                    // mapped; determine low/high side of the coarse leaf.
                    let my_plane = if D::face_positive(f) {
                        o.coords()[D::face_axis(f)] + h
                    } else {
                        o.coords()[D::face_axis(f)]
                    };
                    let mut probe = o.coords();
                    probe[D::face_axis(f)] = my_plane;
                    let probe2 = route.map_point_scaled::<D>(probe, 1);
                    let plane_high = if probe2[plane_axis] == leaf.coords()[plane_axis] {
                        false
                    } else {
                        debug_assert_eq!(
                            probe2[plane_axis],
                            leaf.coords()[plane_axis] + leaf.len()
                        );
                        true
                    };
                    *slot = Some(FaceHang {
                        tree: k2,
                        coarse: leaf,
                        plane_axis,
                        plane_high,
                        route,
                    });
                    break;
                }
            }

            // --- Detect hanging edges (3D) --------------------------------
            let mut edge_hang: Vec<Option<EdgeHang<'_, D>>> = (0..D::EDGES).map(|_| None).collect();
            for (e, slot) in edge_hang.iter_mut().enumerate() {
                let nb = o.edge_neighbor(e);
                for (k2, m, route) in self.conn.exterior_images_routed(t, &nb) {
                    let Some(leaf) = find_leaf(k2, &m) else {
                        continue;
                    };
                    if leaf.level + 1 != level {
                        continue;
                    }
                    // Run axis in the coarse frame: map both endpoints of
                    // my edge and see which axis varies.
                    let [ca, cb] = D::EDGE_CORNERS[e];
                    let pa = route.map_point_scaled::<D>(o.corner_coords(ca), 1);
                    let pb = route.map_point_scaled::<D>(o.corner_coords(cb), 1);
                    let run_axis = (0..3)
                        .find(|&d| pa[d] != pb[d])
                        .expect("edge endpoints must differ along one axis");
                    *slot = Some(EdgeHang {
                        tree: k2,
                        coarse: leaf,
                        run_axis,
                        route,
                    });
                    break;
                }
            }

            // --- Classify every node of this element ----------------------
            let idx_ranges: [usize; 3] = [npe_1d, npe_1d, if D::DIM == 3 { npe_1d } else { 1 }];
            for iz in 0..idx_ranges[2] {
                for iy in 0..idx_ranges[1] {
                    for ix in 0..idx_ranges[0] {
                        let idx = [ix as i32, iy as i32, iz as i32];
                        // Scaled position in my tree frame.
                        let pos = [
                            n * o.x + idx[0] * h,
                            n * o.y + idx[1] * h,
                            n * o.z + idx[2] * h,
                        ];
                        // Faces this node lies on.
                        let on_face = |f: usize| -> bool {
                            let a = D::face_axis(f);
                            if D::face_positive(f) {
                                idx[a] == n
                            } else {
                                idx[a] == 0
                            }
                        };
                        // First hanging face containing the node wins.
                        let face_c = (0..D::FACES).find(|&f| on_face(f) && face_hang[f].is_some());

                        let node_idx = if let Some(f) = face_c {
                            let hang = face_hang[f].as_ref().expect("checked");
                            self.hanging_face_node(
                                hang,
                                n,
                                pos,
                                &mut intern,
                                &mut keys,
                                &mut drafts,
                                &canon,
                            )
                        } else {
                            // Hanging edge: node on edge e, no hanging face.
                            let mut via_edge = None;
                            for (e, eh) in edge_hang.iter().enumerate() {
                                let Some(eh) = eh else { continue };
                                let on_edge = {
                                    let axis = D::edge_axis(e);
                                    let bits = e % 4;
                                    let mut ok = true;
                                    let mut b = 0;
                                    for d in 0..3 {
                                        if d == axis {
                                            continue;
                                        }
                                        let want = if (bits >> b) & 1 == 1 { n } else { 0 };
                                        ok &= idx[d] == want;
                                        b += 1;
                                    }
                                    ok
                                };
                                if on_edge {
                                    via_edge = Some(self.hanging_edge_node(
                                        eh,
                                        n,
                                        pos,
                                        &mut intern,
                                        &mut keys,
                                        &mut drafts,
                                        &canon,
                                    ));
                                    break;
                                }
                            }
                            via_edge.unwrap_or_else(|| {
                                let i = intern(canon(t, pos), &mut keys, &mut drafts);
                                mark_independent(&mut drafts, i);
                                i
                            })
                        };
                        element_nodes.push(node_idx);
                    }
                }
            }
        }

        self.nodes_finish(comm, degree, elements, element_nodes, keys, drafts, |k| {
            key_index.get(k).copied()
        })
    }

    /// Shared tail of [`Forest::nodes`] and [`Forest::nodes_reference`]:
    /// ownership, global ids, the owner query and the lent/borrowed lists.
    /// `index_of` maps a key another rank queries back to its local node.
    #[allow(clippy::too_many_arguments)]
    fn nodes_finish(
        &self,
        comm: &impl Communicator,
        degree: usize,
        elements: Vec<(TreeId, Octant<D>)>,
        element_nodes: Vec<u32>,
        keys: Vec<NodeKey>,
        drafts: Vec<Draft>,
        index_of: impl Fn(&NodeKey) -> Option<u32>,
    ) -> Nodes<D> {
        let n = degree as i32;
        let (me, p) = (comm.rank(), comm.size());
        let big = D::root_len();
        let num_nodes = keys.len();
        let mut owners: Vec<usize> = vec![usize::MAX; num_nodes];
        let mut status: Vec<NodeStatus> = Vec::with_capacity(num_nodes);
        for (i, d) in drafts.into_iter().enumerate() {
            status.push(match d {
                // Unset can only be a parent interned before its own
                // element classified it; parents are independent.
                Draft::Independent | Draft::Unset => {
                    let (kt, kp) = keys[i];
                    let mut anchor = kp.map(|c| (c / n).clamp(0, big - 1));
                    if D::DIM == 2 {
                        anchor[2] = 0;
                    }
                    let atom = Octant::<D>::from_coords(anchor, D::MAX_LEVEL);
                    owners[i] = self.owner_of_atom(kt, &atom);
                    NodeStatus::Independent {
                        global: u64::MAX,
                        owner: owners[i],
                    }
                }
                Draft::Hanging {
                    parents,
                    rel,
                    entity_dim,
                } => NodeStatus::Hanging {
                    parents,
                    rel,
                    entity_dim,
                },
            });
        }

        // Owned nodes in canonical-key order get consecutive global ids.
        let mut owned: Vec<u32> = (0..num_nodes as u32)
            .filter(|&i| owners[i as usize] == me)
            .collect();
        owned.sort_by_key(|&i| keys[i as usize]);
        let num_owned = owned.len();
        let global_offset = comm.exscan_sum_u64(num_owned as u64);
        let num_global = comm.allreduce_sum_u64(num_owned as u64);
        for (j, &i) in owned.iter().enumerate() {
            if let NodeStatus::Independent { global, .. } = &mut status[i as usize] {
                *global = global_offset + j as u64;
            }
        }

        // Borrowed nodes: query owners for ids; owners learn lent lists.
        let mut borrowed_by_rank: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
        for i in 0..num_nodes as u32 {
            let r = owners[i as usize];
            if r != usize::MAX && r != me {
                borrowed_by_rank[r].push(i);
            }
        }
        for v in &mut borrowed_by_rank {
            v.sort_by_key(|&i| keys[i as usize]);
        }
        let queries: Vec<Vec<(u32, [i32; 3])>> = borrowed_by_rank
            .iter()
            .map(|v| v.iter().map(|&i| keys[i as usize]).collect())
            .collect();
        let incoming = comm.alltoallv(queries);
        let mut lent_to_rank: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
        let replies: Vec<Vec<u64>> = incoming
            .into_iter()
            .enumerate()
            .map(|(r, qs)| {
                qs.into_iter()
                    .map(|key| {
                        let i = index_of(&key).unwrap_or_else(|| {
                            panic!("rank {me}: queried for unknown node {key:?} by rank {r}")
                        });
                        lent_to_rank[r].push(i);
                        match &status[i as usize] {
                            NodeStatus::Independent { global, owner } => {
                                assert_eq!(*owner, me, "queried for a node we do not own");
                                *global
                            }
                            _ => panic!("queried for a hanging node"),
                        }
                    })
                    .collect()
            })
            .collect();
        let answers = comm.alltoallv(replies);
        for (r, ids) in answers.into_iter().enumerate() {
            assert_eq!(ids.len(), borrowed_by_rank[r].len());
            for (&i, id) in borrowed_by_rank[r].iter().zip(ids) {
                if let NodeStatus::Independent { global, .. } = &mut status[i as usize] {
                    *global = id;
                }
            }
        }

        Nodes {
            degree,
            nodes_per_elem: (degree + 1).pow(D::DIM),
            elements,
            element_nodes,
            keys,
            status,
            num_owned,
            global_offset,
            num_global,
            borrowed_by_rank,
            lent_to_rank,
        }
    }

    /// Classify a node on a hanging face: intern its coarse parents and
    /// compute its rational position in the coarse face; even lattice
    /// positions degenerate to the coinciding independent parent.
    #[allow(clippy::too_many_arguments)]
    fn hanging_face_node(
        &self,
        hang: &FaceHang<'_, D>,
        n: i32,
        pos: [i32; 3],
        intern: &mut impl FnMut(NodeKey, &mut Vec<NodeKey>, &mut Vec<Draft>) -> u32,
        keys: &mut Vec<NodeKey>,
        drafts: &mut Vec<Draft>,
        canon: &impl Fn(TreeId, [i32; 3]) -> NodeKey,
    ) -> u32 {
        let coarse = &hang.coarse;
        let hc = coarse.len();
        let p2 = hang.route.map_point_scaled::<D>(pos, n);
        // Tangential axes of the coarse face, ascending.
        let tang: Vec<usize> = (0..D::DIM as usize)
            .filter(|&a| a != hang.plane_axis)
            .collect();
        // Rational relative position: numerator over 2N per tangential axis.
        let mut rel = [0u16; 2];
        for (j, &a) in tang.iter().enumerate() {
            let delta = p2[a] - n * coarse.coords()[a];
            debug_assert!(delta >= 0 && delta <= n * hc);
            debug_assert_eq!((2 * delta) % hc, 0, "node off the half-lattice");
            rel[j] = (2 * delta / hc) as u16;
        }
        // All-even relative position: the node coincides with a coarse
        // lattice point and is independent.
        if rel.iter().take(tang.len()).all(|&r| r % 2 == 0) {
            let i = intern(canon(hang.tree, p2), keys, drafts);
            mark_independent(drafts, i);
            return i;
        }
        // Intern the full (N+1)^(d-1) coarse-face lattice as parents.
        let plane_coord = if hang.plane_high {
            n * (coarse.coords()[hang.plane_axis] + hc)
        } else {
            n * coarse.coords()[hang.plane_axis]
        };
        let npe_1d = n as usize + 1;
        let count = if D::DIM == 3 { npe_1d * npe_1d } else { npe_1d };
        let mut parents = Vec::with_capacity(count);
        let jb_range = if D::DIM == 3 { npe_1d } else { 1 };
        for jb in 0..jb_range {
            for ja in 0..npe_1d {
                let mut q = [0i32; 3];
                q[hang.plane_axis] = plane_coord;
                q[tang[0]] = n * coarse.coords()[tang[0]] + ja as i32 * hc;
                if D::DIM == 3 {
                    q[tang[1]] = n * coarse.coords()[tang[1]] + jb as i32 * hc;
                }
                let pi = intern(canon(hang.tree, q), keys, drafts);
                mark_independent(drafts, pi);
                parents.push(pi);
            }
        }
        let key = canon(hang.tree, p2);
        let i = intern(key, keys, drafts);
        set_hanging(drafts, i, parents, rel, (D::DIM - 1) as u8);
        i
    }

    /// Classify a node on a hanging edge (3D).
    #[allow(clippy::too_many_arguments)]
    fn hanging_edge_node(
        &self,
        hang: &EdgeHang<'_, D>,
        n: i32,
        pos: [i32; 3],
        intern: &mut impl FnMut(NodeKey, &mut Vec<NodeKey>, &mut Vec<Draft>) -> u32,
        keys: &mut Vec<NodeKey>,
        drafts: &mut Vec<Draft>,
        canon: &impl Fn(TreeId, [i32; 3]) -> NodeKey,
    ) -> u32 {
        let coarse = &hang.coarse;
        let hc = coarse.len();
        let p2 = hang.route.map_point_scaled::<D>(pos, n);
        let a = hang.run_axis;
        let delta = p2[a] - n * coarse.coords()[a];
        debug_assert!(delta >= 0 && delta <= n * hc);
        debug_assert_eq!((2 * delta) % hc, 0, "node off the half-lattice");
        let rel0 = (2 * delta / hc) as u16;
        if rel0 % 2 == 0 {
            let i = intern(canon(hang.tree, p2), keys, drafts);
            mark_independent(drafts, i);
            return i;
        }
        let npe_1d = n as usize + 1;
        let mut parents = Vec::with_capacity(npe_1d);
        for j in 0..npe_1d {
            let mut q = p2;
            q[a] = n * coarse.coords()[a] + j as i32 * hc;
            let pi = intern(canon(hang.tree, q), keys, drafts);
            mark_independent(drafts, pi);
            parents.push(pi);
        }
        let i = intern(canon(hang.tree, p2), keys, drafts);
        set_hanging(drafts, i, parents, [rel0, 0], 1);
        i
    }
}

fn mark_independent(drafts: &mut [Draft], i: u32) {
    match &drafts[i as usize] {
        Draft::Unset => drafts[i as usize] = Draft::Independent,
        Draft::Independent => {}
        Draft::Hanging { .. } => {
            panic!("node {i} classified both independent and hanging (constraint chain?)")
        }
    }
}

fn set_hanging(drafts: &mut [Draft], i: u32, parents: Vec<u32>, rel: [u16; 2], entity_dim: u8) {
    match &drafts[i as usize] {
        Draft::Unset => {
            drafts[i as usize] = Draft::Hanging {
                parents,
                rel,
                entity_dim,
            };
        }
        Draft::Hanging { entity_dim: e0, .. } => {
            // Another element constrained the same node. The records may
            // differ structurally — e.g. a node on the shared edge of two
            // hanging faces is recorded against either coarse face — but
            // they are functionally identical: the interpolation weights
            // are supported on the shared coarse edge, whose node keys
            // coincide. Keep the first record; prefer a face constraint
            // over an edge constraint when the dimensions differ (the face
            // form degenerates to the edge form on the boundary).
            if entity_dim > *e0 {
                drafts[i as usize] = Draft::Hanging {
                    parents,
                    rel,
                    entity_dim,
                };
            }
        }
        Draft::Independent => {
            panic!("node {i} classified both hanging and independent (constraint chain?)")
        }
    }
}

/// Message tag of the split-phase cG assembly, in the reserved space
/// below the collective tags so collectives issued between begin and end
/// cannot steal its messages. One tag: at most one assembly may be in
/// flight per communicator (multi-component fields travel together).
pub const TAG_ASSEMBLE: u32 = TAG_COLLECTIVE - 48;

/// An in-flight [`Nodes::assemble_add_begin`] reduction; complete it with
/// [`Nodes::assemble_add_end`].
#[must_use = "complete the assembly with Nodes::assemble_add_end"]
pub struct AssemblePending<'a, C: Communicator> {
    pending: PendingExchange<'a, C>,
}

impl<D: Dim> Nodes<D> {
    /// Node indices of local element `e`, lattice x-fastest.
    pub fn element(&self, e: usize) -> &[u32] {
        &self.element_nodes[e * self.nodes_per_elem..(e + 1) * self.nodes_per_elem]
    }

    /// Number of local nodes (independent + hanging) this rank references.
    pub fn num_local(&self) -> usize {
        self.keys.len()
    }

    /// Component count of a component-major field of `len` values
    /// (`len = k · num_local()`, component `c` at `c · num_local()..`).
    fn components(&self, len: usize) -> usize {
        let nn = self.keys.len();
        let k = len.checked_div(nn).unwrap_or(0);
        assert_eq!(len, k * nn, "field is not a whole number of components");
        k
    }

    /// Field indices of one peer's message in wire order: component-major
    /// over the peer's shared-node list, so all `k` components of a node
    /// ride in the same message.
    fn wire_order<'a>(&self, k: usize, shared: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
        let nn = self.keys.len();
        (0..k).flat_map(move |c| shared.iter().map(move |&i| c * nn + i as usize))
    }

    /// Sum-reduce shared dof values across ranks: every borrower's partial
    /// is added at the owner, and the total is broadcast back, so all
    /// copies of each dof agree afterwards. (The cG scatter-gather of
    /// paper §II-E.) Hanging-node entries are ignored.
    ///
    /// `values` is a component-major field of `k · num_local()` entries;
    /// all `k` components of a shared node travel in one message per peer.
    ///
    /// Generic over the scalar so the same plan assembles `f64` fields and
    /// the fixed-point `i128` fields of the bitwise-reproducible path
    /// (`forust_comm::repro`) — integer partials make the cross-rank sum
    /// associative, hence independent of the rank count.
    pub fn assemble_add<T>(&self, comm: &impl Communicator, values: &mut [T])
    where
        T: Wire + Copy + std::ops::AddAssign,
    {
        let pending = self.assemble_add_begin(comm, values);
        self.assemble_add_end(comm, pending, values);
    }

    /// Start the borrower-to-owner leg of [`Nodes::assemble_add`]: the
    /// partials of `values` at borrowed dofs go on the wire and the call
    /// returns immediately. Independent local work proceeds while the
    /// messages fly; [`Nodes::assemble_add_end`] completes the reduction.
    /// At most one assembly may be in flight per communicator.
    pub fn assemble_add_begin<'a, C: Communicator, T: Wire + Copy>(
        &self,
        comm: &'a C,
        values: &[T],
    ) -> AssemblePending<'a, C> {
        let _span = forust_obs::span!("nodes.assemble_begin");
        let k = self.components(values.len());
        // Borrower -> owner partials.
        let outgoing: Vec<Vec<u8>> = self
            .borrowed_by_rank
            .iter()
            .map(|borrowed| {
                let partials: Vec<T> = self.wire_order(k, borrowed).map(|i| values[i]).collect();
                write_vec(&partials)
            })
            .collect();
        AssemblePending {
            pending: comm.start_alltoallv_bytes(outgoing, TAG_ASSEMBLE),
        }
    }

    /// Complete a reduction started by [`Nodes::assemble_add_begin`]: add
    /// the received partials at the owned dofs and broadcast the totals
    /// back to every borrower. `values` must be the same field the begin
    /// call packed (mutations at *shared* dofs in between would be lost).
    pub fn assemble_add_end<C: Communicator, T>(
        &self,
        comm: &C,
        pending: AssemblePending<'_, C>,
        values: &mut [T],
    ) where
        T: Wire + Copy + std::ops::AddAssign,
    {
        let _span = forust_obs::span!("nodes.assemble_end");
        let k = self.components(values.len());
        for (lent, buf) in self.lent_to_rank.iter().zip(pending.pending.wait()) {
            let partials: Vec<T> = read_vec(&buf);
            assert_eq!(partials.len(), k * lent.len(), "assembly message size");
            for (i, v) in self.wire_order(k, lent).zip(partials) {
                values[i] += v;
            }
        }
        self.broadcast_owned(comm, values);
    }

    /// Overwrite every borrowed dof with the owner's value, all components
    /// of a component-major field in one message per peer.
    pub fn broadcast_owned<T: Wire + Copy>(&self, comm: &impl Communicator, values: &mut [T]) {
        let k = self.components(values.len());
        let out: Vec<Vec<T>> = self
            .lent_to_rank
            .iter()
            .map(|lent| self.wire_order(k, lent).map(|i| values[i]).collect())
            .collect();
        for (borrowed, vals) in self.borrowed_by_rank.iter().zip(comm.alltoallv(out)) {
            assert_eq!(vals.len(), k * borrowed.len(), "broadcast message size");
            for (i, v) in self.wire_order(k, borrowed).zip(vals) {
                values[i] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::builders;
    use crate::forest::BalanceType;
    use forust_comm::run_spmd;
    use std::sync::Arc;

    fn build<D: Dim>(
        comm: &impl Communicator,
        conn: crate::connectivity::Connectivity<D>,
        level: u8,
        degree: usize,
        refine: impl Fn(TreeId, &Octant<D>) -> bool,
    ) -> (Forest<D>, Nodes<D>) {
        let mut f = Forest::<D>::new_uniform(Arc::new(conn), comm, level);
        f.refine(comm, true, |t, o| refine(t, o));
        f.balance(comm, BalanceType::Full);
        f.partition(comm);
        let ghost = f.ghost(comm);
        let nodes = f.nodes(comm, &ghost, degree);
        (f, nodes)
    }

    #[test]
    fn uniform_grid_counts_2d() {
        for p in [1usize, 3] {
            let r = run_spmd(p, |comm| {
                let (_, nodes) = build(comm, builders::unit2d(), 2, 1, |_, _| false);
                nodes.num_global
            });
            assert!(r.iter().all(|&g| g == 25), "{r:?}"); // 5x5 grid
        }
    }

    #[test]
    fn uniform_grid_counts_3d_high_order() {
        let r = run_spmd(2, |comm| {
            let (_, nodes) = build(comm, builders::unit3d(), 1, 3, |_, _| false);
            nodes.num_global
        });
        // Degree 3, 2x2x2 elements: (2*3+1)^3 = 343 global nodes.
        assert!(r.iter().all(|&g| g == 343), "{r:?}");
    }

    #[test]
    fn two_trees_share_face_nodes() {
        let r = run_spmd(2, |comm| {
            let (_, nodes) = build(comm, builders::brick2d(2, 1, false, false), 0, 1, |_, _| {
                false
            });
            nodes.num_global
        });
        assert!(r.iter().all(|&g| g == 6), "{r:?}"); // 2x3 lattice
    }

    #[test]
    fn moebius_corner_count() {
        let r = run_spmd(3, |comm| {
            let (_, nodes) = build(comm, builders::moebius(), 0, 1, |_, _| false);
            nodes.num_global
        });
        // Five quadtrees in a twisted ring: 10 distinct macro-corners.
        assert!(r.iter().all(|&g| g == 10), "{r:?}");
    }

    #[test]
    fn rotcubes_corner_count_matches_lattice() {
        let conn = builders::rotcubes6();
        let distinct: std::collections::HashSet<usize> = (0..6u32)
            .flat_map(|k| (0..8).map(move |c| (k, c)))
            .map(|(k, c)| conn.tree_corner_id(k, c))
            .collect();
        let expect = distinct.len() as u64;
        let r = run_spmd(2, |comm| {
            let (_, nodes) = build(comm, builders::rotcubes6(), 0, 1, |_, _| false);
            nodes.num_global
        });
        assert!(r.iter().all(|&g| g == expect), "{r:?} != {expect}");
    }

    #[test]
    fn hanging_nodes_2d() {
        // Unit square, level-1 grid, child 0 refined once: 2 hanging nodes,
        // 12 independent (9 coarse grid + center of fine block + 2 domain
        // boundary midpoints).
        let r = run_spmd(2, |comm| {
            let (_, nodes) = build(comm, builders::unit2d(), 1, 1, |_, o| {
                o.level < 2 && o.x == 0 && o.y == 0
            });
            let hanging = nodes
                .status
                .iter()
                .filter(|s| matches!(s, NodeStatus::Hanging { .. }))
                .count();
            (nodes.num_global, comm.allreduce_sum_u64(hanging as u64))
        });
        for (g, _h) in &r {
            assert_eq!(*g, 12);
        }
        // Each hanging node may be seen by several ranks; at least 2 exist.
        assert!(r[0].1 >= 2);
    }

    #[test]
    fn hanging_constraint_weights_are_midpoints() {
        run_spmd(1, |comm| {
            let (_, nodes) = build(comm, builders::unit2d(), 1, 1, |_, o| {
                o.level < 2 && o.x == 0 && o.y == 0
            });
            for s in &nodes.status {
                if let NodeStatus::Hanging {
                    parents,
                    rel,
                    entity_dim,
                } = s
                {
                    assert_eq!(*entity_dim, 1, "2D hangs on faces (dim-1 entities)");
                    assert_eq!(parents.len(), 2);
                    assert_eq!(rel[0], 1, "midpoint of the coarse face");
                    // Parents must be independent.
                    for &p in parents {
                        assert!(matches!(
                            nodes.status[p as usize],
                            NodeStatus::Independent { .. }
                        ));
                    }
                }
            }
        });
    }

    #[test]
    fn global_ids_consistent_across_ranks() {
        for p in [2usize, 5] {
            run_spmd(p, |comm| {
                let (_, nodes) = build(comm, builders::cubed_sphere(), 1, 2, |t, o| {
                    t == 0 && o.level < 2 && o.x == 0 && o.y == 0 && o.z == 0
                });
                // Gather (key, gid) pairs; identical keys must have identical ids.
                let mine: Vec<((u32, [i32; 3]), u64)> = nodes
                    .keys
                    .iter()
                    .zip(&nodes.status)
                    .filter_map(|(k, s)| match s {
                        NodeStatus::Independent { global, .. } => Some((*k, *global)),
                        _ => None,
                    })
                    .collect();
                let all: Vec<_> = comm.allgatherv(&mine).into_iter().flatten().collect();
                let mut map = std::collections::HashMap::new();
                for (k, g) in all {
                    if let Some(prev) = map.insert(k, g) {
                        assert_eq!(prev, g, "key {k:?} has two global ids");
                    }
                }
                // Ids are exactly 0..num_global.
                let mut ids: Vec<u64> = map.values().copied().collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len() as u64, nodes.num_global);
                assert_eq!(ids.first(), Some(&0));
                assert_eq!(ids.last(), Some(&(nodes.num_global - 1)));
            });
        }
    }

    /// The numbering tail on its own terms (the analogue of ghost's
    /// `mirrors_and_ghosts_are_dual`): what a borrower lists for an owner
    /// is what that owner lends it, key for key and in order, and every
    /// rank owns exactly the id range its offset names.
    #[test]
    fn lent_and_borrowed_are_dual() {
        for p in [2usize, 5] {
            run_spmd(p, |comm| {
                let (_, nodes) = build(comm, builders::cubed_sphere(), 1, 2, |t, o| {
                    t == 0 && o.level < 2 && o.x == 0 && o.y == 0 && o.z == 0
                });
                let me = comm.rank();
                let keys_of = |v: &[u32]| -> Vec<NodeKey> {
                    v.iter().map(|&i| nodes.keys[i as usize]).collect()
                };
                let owner_of = |i: u32| match nodes.status[i as usize] {
                    NodeStatus::Independent { owner, .. } => owner,
                    NodeStatus::Hanging { .. } => panic!("hanging node {i} is shared"),
                };
                let borrowed: Vec<Vec<NodeKey>> =
                    nodes.borrowed_by_rank.iter().map(|v| keys_of(v)).collect();
                for (r, (lent, asked)) in nodes
                    .lent_to_rank
                    .iter()
                    .zip(comm.alltoallv(borrowed))
                    .enumerate()
                {
                    assert_eq!(keys_of(lent), asked, "rank {me} lends rank {r}");
                    assert!(lent.iter().all(|&i| owner_of(i) == me));
                    assert!(nodes.borrowed_by_rank[r].iter().all(|&i| owner_of(i) == r));
                }
                assert!(nodes.lent_to_rank[me].is_empty() && nodes.borrowed_by_rank[me].is_empty());

                let mut owned: Vec<u64> = nodes
                    .status
                    .iter()
                    .filter_map(|s| match s {
                        NodeStatus::Independent { global, owner } if *owner == me => Some(*global),
                        _ => None,
                    })
                    .collect();
                owned.sort_unstable();
                let range = nodes.global_offset..nodes.global_offset + nodes.num_owned as u64;
                assert_eq!(owned, range.collect::<Vec<u64>>(), "rank {me} owned ids");
                assert_eq!(
                    comm.allreduce_sum_u64(nodes.num_owned as u64),
                    nodes.num_global
                );
            });
        }
    }

    #[test]
    fn node_count_independent_of_rank_count() {
        let counts: Vec<u64> = [1usize, 2, 4]
            .iter()
            .map(|&p| {
                run_spmd(p, |comm| {
                    let (_, nodes) = build(comm, builders::shell24(), 1, 2, |t, o| {
                        t < 4 && o.level < 2 && o.child_id() == 0
                    });
                    nodes.num_global
                })[0]
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }

    #[test]
    fn assemble_add_counts_sharers() {
        run_spmd(4, |comm| {
            let (_, nodes) = build(
                comm,
                builders::brick3d([2, 1, 1], [false; 3]),
                1,
                1,
                |_, _| false,
            );
            // Each element contributes 1 to each of its nodes; after
            // assembly every copy of a node holds the global valence.
            let mut values = vec![0.0f64; nodes.num_local()];
            for e in 0..nodes.elements.len() {
                for &i in nodes.element(e) {
                    values[i as usize] += 1.0;
                }
            }
            nodes.assemble_add(comm, &mut values);
            // Check against a gathered brute-force valence by key.
            let mine: Vec<((u32, [i32; 3]), u64)> = {
                let mut local: std::collections::HashMap<(u32, [i32; 3]), u64> =
                    std::collections::HashMap::new();
                for e in 0..nodes.elements.len() {
                    for &i in nodes.element(e) {
                        *local.entry(nodes.keys[i as usize]).or_default() += 1;
                    }
                }
                local.into_iter().collect()
            };
            let mut global: std::collections::HashMap<(u32, [i32; 3]), u64> =
                std::collections::HashMap::new();
            for part in comm.allgatherv(&mine) {
                for (k, c) in part {
                    *global.entry(k).or_default() += c;
                }
            }
            for (i, s) in nodes.status.iter().enumerate() {
                if matches!(s, NodeStatus::Independent { .. }) {
                    let want = global[&nodes.keys[i]] as f64;
                    assert_eq!(values[i], want, "node {i} valence");
                }
            }
            // Interior nodes of a 3D trilinear mesh have valence 8.
            let max = values.iter().cloned().fold(0.0, f64::max);
            assert_eq!(max, 8.0);
        });
    }

    /// A component-major field assembles exactly like its components one
    /// by one, in one `TAG_ASSEMBLE` message per peer instead of `k`.
    #[test]
    fn fused_assembly_is_the_per_component_assembly() {
        fn check<T>(comm: &impl Communicator, nodes: &Nodes<crate::dim::D3>, mk: impl Fn(u64) -> T)
        where
            T: Wire + Copy + PartialEq + std::fmt::Debug + std::ops::AddAssign,
        {
            const K: usize = 4;
            let nn = nodes.num_local();
            let field: Vec<T> = (0..K * nn)
                .map(|i| {
                    let h = (i as u64 + 1 + ((comm.rank() as u64) << 40))
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    mk(h >> 20)
                })
                .collect();
            let sent = || comm.stats().tag_traffic(TAG_ASSEMBLE).msgs;
            let peers = comm.size() as u64 - 1;

            let mut fused = field.clone();
            let before = sent();
            nodes.assemble_add(comm, &mut fused);
            assert_eq!(sent() - before, peers, "one message per peer");

            let mut split = field;
            let before = sent();
            for comp in split.chunks_exact_mut(nn) {
                nodes.assemble_add(comm, comp);
            }
            assert_eq!(sent() - before, K as u64 * peers);
            assert_eq!(fused, split);
        }
        for p in [1usize, 2, 3] {
            run_spmd(p, |comm| {
                // The mesh of `hanging_edges_3d`: hanging faces and edges.
                let (_, nodes) = build(comm, builders::unit3d(), 1, 1, |_, o| {
                    o.level < 2 && o.z == 0 && !(o.x > 0 && o.y > 0)
                });
                let hangs = |s: &NodeStatus| matches!(s, NodeStatus::Hanging { .. });
                assert!(comm.allreduce_or(nodes.status.iter().any(hangs)));
                check(comm, &nodes, |h| h as f64 / 4096.0 - 1e9);
                check(comm, &nodes, |h| h as i128 - (1 << 43));
            });
        }
    }

    #[test]
    fn high_order_hanging_parity() {
        // Degree 2 on a refined corner: hanging-face nodes at even lattice
        // positions coincide with coarse nodes and must be independent.
        run_spmd(1, |comm| {
            let (_, nodes) = build(comm, builders::unit2d(), 1, 2, |_, o| {
                o.level < 2 && o.x == 0 && o.y == 0
            });
            let mut hanging = 0;
            for s in &nodes.status {
                if let NodeStatus::Hanging { parents, rel, .. } = s {
                    hanging += 1;
                    assert_eq!(parents.len(), 3); // degree-2 edge has 3 nodes
                    assert!(rel[0] % 2 == 1, "even positions must not hang");
                    assert!(rel[0] <= 4);
                }
            }
            // Two hanging interior faces, each with nodes at rel 1 and 3
            // (rel 2 is the coarse midpoint: independent).
            assert_eq!(hanging, 4);
        });
    }

    #[test]
    fn hanging_edges_3d() {
        run_spmd(2, |comm| {
            // Refine three of the four lower children around the vertical
            // center edge; the fourth stays coarse. Elements in the refined
            // children have conforming faces toward each other but a coarse
            // *edge-diagonal* neighbor: a pure edge constraint (paper
            // §II-E: "an edge is hanging if it is one half of a full-size
            // neighboring edge").
            let (_, nodes) = build(comm, builders::unit3d(), 1, 1, |_, o| {
                o.level < 2 && o.z == 0 && !(o.x > 0 && o.y > 0)
            });
            // A node on the central edge is recorded either as a pure
            // edge constraint (entity_dim 1) or as a face constraint that
            // degenerates to the shared edge (one rel component on the
            // face boundary lattice) — both interpolate the coarse edge.
            let mut edge_like = 0;
            let mut face_hangs = 0;
            for s in &nodes.status {
                if let NodeStatus::Hanging {
                    parents,
                    rel,
                    entity_dim,
                } = s
                {
                    match entity_dim {
                        1 => {
                            edge_like += 1;
                            assert_eq!(parents.len(), 2);
                        }
                        2 => {
                            face_hangs += 1;
                            assert_eq!(parents.len(), 4);
                            if rel[0] % 2 == 0 || rel[1] % 2 == 0 {
                                edge_like += 1;
                            }
                        }
                        _ => panic!("bad entity dim"),
                    }
                }
            }
            let te = comm.allreduce_sum_u64(edge_like as u64);
            let tf = comm.allreduce_sum_u64(face_hangs as u64);
            assert!(te >= 1, "edge-degenerate hangs {te}");
            assert!(tf >= 3, "face hangs {tf}");
        });
    }
}
