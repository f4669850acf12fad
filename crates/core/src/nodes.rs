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

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

use forust_comm::{read_vec, write_vec, Communicator, Wire, TAG_COLLECTIVE};

use crate::connectivity::{Route, TreeId};
use crate::dim::Dim;
use crate::forest::{Forest, GhostLayer};
use crate::hash::FxBuildHasher;
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
pub struct Nodes {
    /// Polynomial degree `N >= 1`.
    pub degree: usize,
    /// `(N+1)^d`.
    pub nodes_per_elem: usize,
    /// `nodes_per_elem` local node indices per local element, elements in
    /// the forest's SFC order (`Forest::iter_local`), node lattice
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

/// The key-to-index map of the walk and, in interning order, each local
/// node's key and draft classification.
struct Interner<S> {
    index: HashMap<NodeKey, u32, S>,
    keys: Vec<NodeKey>,
    drafts: Vec<Draft>,
}

impl<S: BuildHasher> Interner<S> {
    fn intern(&mut self, key: NodeKey) -> u32 {
        let (keys, drafts) = (&mut self.keys, &mut self.drafts);
        *self.index.entry(key).or_insert_with(|| {
            keys.push(key);
            drafts.push(Draft::Unset);
            (keys.len() - 1) as u32
        })
    }

    /// Intern `key` as an independent node.
    fn independent(&mut self, key: NodeKey) -> u32 {
        let i = self.intern(key);
        match self.drafts[i as usize] {
            Draft::Unset => self.drafts[i as usize] = Draft::Independent,
            Draft::Independent => {}
            Draft::Hanging { .. } => {
                panic!("node {i} classified both independent and hanging (constraint chain?)")
            }
        }
        i
    }

    /// Intern `key` as a node hanging from `parents`.
    fn hanging(&mut self, key: NodeKey, parents: Vec<u32>, rel: [u16; 2], entity_dim: u8) -> u32 {
        let i = self.intern(key);
        match self.drafts[i as usize] {
            Draft::Independent => {
                panic!("node {i} classified both hanging and independent (constraint chain?)")
            }
            // Another element constrained the same node. The records may
            // differ structurally — e.g. a node on the shared edge of two
            // hanging faces is recorded against either coarse face — but
            // they are functionally identical: the interpolation weights
            // are supported on the shared coarse edge, whose node keys
            // coincide. Keep the first record; prefer a face constraint
            // over an edge constraint when the dimensions differ (the face
            // form degenerates to the edge form on the boundary).
            Draft::Hanging { entity_dim: e0, .. } if e0 >= entity_dim => {}
            _ => {
                self.drafts[i as usize] = Draft::Hanging {
                    parents,
                    rel,
                    entity_dim,
                }
            }
        }
        i
    }
}

/// How one face or edge of an element hangs: the coarser neighbor leaf
/// whose full-size entity the element's entity is half of.
struct Hang<'a, D: Dim> {
    /// Per element axis, the lattice index every node of the entity has,
    /// or `-1` along the entity.
    at: [i32; 3],
    /// Tree of the coarse neighbor leaf, and the leaf.
    tree: TreeId,
    coarse: Octant<D>,
    /// The entity's axes in the coarse tree frame, ascending: the first
    /// `dim` entries count (2 for a 3D face, 1 for an edge or a 2D face).
    axes: [usize; 2],
    dim: usize,
    /// Point map into the coarse tree frame.
    route: Route<'a>,
}

impl<D: Dim> Hang<'_, D> {
    /// Classify the node at scaled position `pos` of the element's tree:
    /// intern the coarse entity's `(N+1)^dim` lattice as its parents and
    /// record its rational position in the coarse entity. A position that
    /// is even on every axis coincides with a parent and is independent.
    fn node<S: BuildHasher>(
        &self,
        n: i32,
        pos: [i32; 3],
        nodes: &mut Interner<S>,
        canon: &impl Fn(TreeId, [i32; 3]) -> NodeKey,
    ) -> u32 {
        let (c, hc) = (self.coarse.coords(), self.coarse.len());
        let p2 = self.route.map_point_scaled::<D>(pos, n);
        let axes = &self.axes[..self.dim];
        // Numerator over 2N per entity axis.
        let mut rel = [0u16; 2];
        for (r, &a) in rel.iter_mut().zip(axes) {
            let delta = p2[a] - n * c[a];
            debug_assert!(delta >= 0 && delta <= n * hc);
            debug_assert_eq!((2 * delta) % hc, 0, "node off the half-lattice");
            *r = (2 * delta / hc) as u16;
        }
        if rel.iter().all(|r| r % 2 == 0) {
            return nodes.independent(canon(self.tree, p2));
        }
        // The lattice, first axis fastest. Off the entity axes a parent
        // keeps the node's coordinates: a hanging face's nodes already lie
        // in the coarse leaf's boundary plane.
        let npe_1d = n as usize + 1;
        let parents = (0..npe_1d.pow(self.dim as u32))
            .map(|j| {
                let mut q = p2;
                let mut rest = j;
                for &a in axes {
                    q[a] = n * c[a] + (rest % npe_1d) as i32 * hc;
                    rest /= npe_1d;
                }
                nodes.independent(canon(self.tree, q))
            })
            .collect();
        nodes.hanging(canon(self.tree, p2), parents, rel, self.dim as u8)
    }
}

impl<D: Dim> Forest<D> {
    /// `Nodes`: build the globally unique numbering of degree-`N` cG
    /// unknowns with hanging-node constraints. Requires a 2:1 balanced
    /// forest and its ghost layer.
    ///
    /// The classification walk with its shortcuts on and an FxHash
    /// interning map; [`Forest::nodes_reference`] is the same walk with
    /// them off.
    pub fn nodes(&self, comm: &impl Communicator, ghost: &GhostLayer<D>, degree: usize) -> Nodes {
        let _span = forust_obs::span!("forest.nodes");
        self.nodes_walk::<true, FxBuildHasher>(comm, ghost, degree)
    }

    /// The equivalence oracle for [`Forest::nodes`]: the same walk with
    /// its shortcuts off and std's `HashMap`, so the fuzz suite's
    /// node-for-node comparison checks exactly the shortcuts.
    #[doc(hidden)]
    pub fn nodes_reference(
        &self,
        comm: &impl Communicator,
        ghost: &GhostLayer<D>,
        degree: usize,
    ) -> Nodes {
        self.nodes_walk::<false, RandomState>(comm, ghost, degree)
    }

    /// The per-element classification walk: find which faces and edges
    /// of each local element hang, classify and intern its nodes in
    /// lattice order, then number them in `nodes_finish`.
    ///
    /// `FAST` turns on three shortcuts, none of which changes a key, a
    /// classification or the interning order:
    /// - *sibling-group pruning*: a coarser neighbor can only sit across
    ///   a face or edge on the boundary of the element's sibling group
    ///   (across an inner one the neighbor region lies inside the parent,
    ///   so a containing leaf at `level - 1` would be the parent itself),
    ///   and root elements have no coarser side at all. This halves the
    ///   face probes and cuts the edge probes to a quarter;
    /// - the *in-root probe*: a neighbor box inside the root is its own
    ///   single image (`Route::Interior`), with no image enumeration;
    /// - the *interior-point canon*: a strictly interior point's only
    ///   image is itself.
    fn nodes_walk<const FAST: bool, S: BuildHasher + Default>(
        &self,
        comm: &impl Communicator,
        ghost: &GhostLayer<D>,
        degree: usize,
    ) -> Nodes {
        assert!(degree >= 1, "nodes: degree must be at least 1");
        let n = degree as i32;
        let npe_1d = degree + 1;
        let dim = D::DIM as usize;
        let big = D::root_len();

        // Leaf lookup across local storage and the ghost layer.
        let find_leaf = |t: TreeId, region: &Octant<D>| -> Option<Octant<D>> {
            if let Some((_, leaf)) = self.find_local_containing(t, region) {
                return Some(*leaf);
            }
            ghost.find_containing(t, region).map(|i| ghost.ghosts[i].1)
        };
        // Canonicalize a scaled position of tree `t`: its least image.
        let canon = |t: TreeId, pos: [i32; 3]| -> NodeKey {
            if FAST && (0..dim).all(|d| pos[d] > 0 && pos[d] < n * big) {
                return (t, pos);
            }
            self.conn
                .point_images_scaled(t, pos, n)
                .into_iter()
                .min()
                .expect("point has at least its own image")
        };
        // Faces, then edges, each as a diagonal pair of element corners.
        let entities: Vec<[usize; 2]> = D::FACE_CORNERS
            .iter()
            .map(|c| [c[0], c[c.len() - 1]])
            .chain(D::EDGE_CORNERS.iter().copied())
            .collect();

        let mut nodes = Interner::<S> {
            index: HashMap::default(),
            keys: Vec::new(),
            drafts: Vec::new(),
        };
        let mut element_nodes = Vec::with_capacity(self.num_local() * npe_1d.pow(D::DIM));
        let mut hangs: Vec<Hang<'_, D>> = Vec::new();
        for (t, o) in self.iter_local() {
            let (h, level, cid) = (o.len(), o.level, o.child_id());
            // The leaf one level coarser containing an image, if any.
            let coarser = |k2: TreeId, m: Octant<D>, route| {
                find_leaf(k2, &m)
                    .filter(|leaf| leaf.level + 1 == level)
                    .map(|leaf| (k2, leaf, route))
            };

            // --- Detect hanging faces and edges ---------------------------
            hangs.clear();
            for (ent, &[ca, cb]) in entities.iter().enumerate() {
                let (lo, hi) = (D::corner_offset(ca), D::corner_offset(cb));
                // The entity is fixed along the axes its corners agree on.
                let fixed = |d: usize| d < dim && lo[d] == hi[d];
                // Sibling-group pruning: skip an entity off the group's
                // boundary.
                if FAST
                    && (level == 0
                        || (0..dim).any(|d| fixed(d) && lo[d] != ((cid >> d) & 1) as i32))
                {
                    continue;
                }
                let step = |d: usize| if fixed(d) { 2 * lo[d] - 1 } else { 0 };
                let nb = o.neighbor(step(0), step(1), step(2));
                // The in-root probe, else the routed image enumeration.
                let found = if FAST && nb.is_inside_root() {
                    coarser(t, nb, Route::Interior)
                } else {
                    self.conn
                        .exterior_images_routed(t, &nb)
                        .into_iter()
                        .find_map(|(k2, m, route)| coarser(k2, m, route))
                };
                let Some((tree, coarse, route)) = found else {
                    continue;
                };
                // The entity's axes in the coarse frame: where its mapped
                // corners differ.
                let pa = route.map_point_scaled::<D>(o.corner_coords(ca), 1);
                let pb = route.map_point_scaled::<D>(o.corner_coords(cb), 1);
                let mut hang = Hang {
                    at: [-1; 3],
                    tree,
                    coarse,
                    axes: [0; 2],
                    dim: 0,
                    route,
                };
                for d in 0..dim {
                    if fixed(d) {
                        hang.at[d] = n * lo[d];
                    }
                    if pa[d] != pb[d] {
                        hang.axes[hang.dim] = d;
                        hang.dim += 1;
                    } else if ent < D::FACES {
                        let (c0, c1) = (coarse.coords()[d], coarse.coords()[d] + coarse.len());
                        debug_assert!(pa[d] == c0 || pa[d] == c1, "face off the coarse plane");
                    }
                }
                debug_assert_eq!(hang.dim, (0..dim).filter(|&d| !fixed(d)).count());
                hangs.push(hang);
            }

            // --- Classify every node of this element ----------------------
            for iz in 0..if dim == 3 { npe_1d } else { 1 } {
                for iy in 0..npe_1d {
                    for ix in 0..npe_1d {
                        let idx = [ix as i32, iy as i32, iz as i32];
                        // Scaled position in my tree frame.
                        let pos = [
                            n * o.x + idx[0] * h,
                            n * o.y + idx[1] * h,
                            n * o.z + idx[2] * h,
                        ];
                        // The first hanging entity containing the node,
                        // faces before edges, constrains it.
                        let hang = hangs
                            .iter()
                            .find(|g| (0..dim).all(|d| g.at[d] < 0 || g.at[d] == idx[d]));
                        element_nodes.push(match hang {
                            Some(g) => g.node(n, pos, &mut nodes, &canon),
                            None => nodes.independent(canon(t, pos)),
                        });
                    }
                }
            }
        }

        self.nodes_finish(comm, degree, element_nodes, nodes)
    }

    /// The numbering tail of the walk: ownership, global ids, the owner
    /// query and the lent/borrowed lists.
    fn nodes_finish<S: BuildHasher>(
        &self,
        comm: &impl Communicator,
        degree: usize,
        element_nodes: Vec<u32>,
        nodes: Interner<S>,
    ) -> Nodes {
        let Interner {
            index,
            keys,
            drafts,
        } = nodes;
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
                        let i = *index.get(&key).unwrap_or_else(|| {
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
}

/// Message tag of the cG assembly's borrower-to-owner leg, in the reserved
/// space below the collective tags, so per-tag traffic counts name it.
/// Multi-component fields travel together, one message per peer.
pub const TAG_ASSEMBLE: u32 = TAG_COLLECTIVE - 48;

impl Nodes {
    /// Node indices of local element `e`, lattice x-fastest.
    pub fn element(&self, e: usize) -> &[u32] {
        &self.element_nodes[e * self.nodes_per_elem..(e + 1) * self.nodes_per_elem]
    }

    /// Number of local elements.
    pub fn num_elements(&self) -> usize {
        self.element_nodes.len() / self.nodes_per_elem
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
        let k = self.components(values.len());
        let pending = {
            let _span = forust_obs::span!("nodes.assemble_begin");
            // Borrower -> owner partials.
            let outgoing: Vec<Vec<u8>> = self
                .borrowed_by_rank
                .iter()
                .map(|borrowed| {
                    let partials: Vec<T> =
                        self.wire_order(k, borrowed).map(|i| values[i]).collect();
                    write_vec(&partials)
                })
                .collect();
            comm.start_alltoallv_bytes(outgoing, TAG_ASSEMBLE)
        };
        let _span = forust_obs::span!("nodes.assemble_end");
        for (lent, buf) in self.lent_to_rank.iter().zip(pending.wait()) {
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
    fn broadcast_owned<T: Wire + Copy>(&self, comm: &impl Communicator, values: &mut [T]) {
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
    ) -> (Forest<D>, Nodes) {
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
            for e in 0..nodes.num_elements() {
                for &i in nodes.element(e) {
                    values[i as usize] += 1.0;
                }
            }
            nodes.assemble_add(comm, &mut values);
            // Check against a gathered brute-force valence by key.
            let mine: Vec<((u32, [i32; 3]), u64)> = {
                let mut local: std::collections::HashMap<(u32, [i32; 3]), u64> =
                    std::collections::HashMap::new();
                for e in 0..nodes.num_elements() {
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
        fn check<T>(comm: &impl Communicator, nodes: &Nodes, mk: impl Fn(u64) -> T)
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

    /// The one hanging record against exact integer geometry, computed
    /// from the keys alone since the oracle shares the record: on a
    /// one-tree mesh every key is a position in the same frame, so the
    /// parents must be the coarse entity's equispaced `(N+1)^dim` lattice
    /// (first axis fastest), all independent, and the hanging node must
    /// sit at `rel/(2N)` of it. Three ranks, so the 3D mesh also records
    /// a pure edge hang.
    #[test]
    fn hanging_keys_sit_at_rel_of_their_parents() {
        fn check<D: Dim>(
            conn: fn() -> crate::connectivity::Connectivity<D>,
            refine: fn(TreeId, &Octant<D>) -> bool,
        ) {
            for degree in 1..=4 {
                run_spmd(3, |comm| {
                    let (_, nodes) = build(comm, conn(), 1, degree, refine);
                    let (n, npe) = (degree as i64, degree + 1);
                    let pos = |i: u32| -> [i64; 3] {
                        let (t, p) = nodes.keys[i as usize];
                        assert_eq!(t, 0, "one tree");
                        p.map(i64::from)
                    };
                    let mut by_dim = [0u64; 3];
                    for (i, s) in nodes.status.iter().enumerate() {
                        let NodeStatus::Hanging {
                            parents,
                            rel,
                            entity_dim,
                        } = s
                        else {
                            continue;
                        };
                        let dim = *entity_dim as usize;
                        by_dim[dim] += 1;
                        assert_eq!(parents.len(), npe.pow(dim as u32), "node {i}");
                        assert!(rel[..dim].iter().any(|r| r % 2 == 1), "node {i}: {rel:?}");
                        assert!(rel[dim..].iter().all(|&r| r == 0), "node {i}: {rel:?}");
                        for &p in parents {
                            let parent = &nodes.status[p as usize];
                            assert!(matches!(parent, NodeStatus::Independent { .. }));
                        }
                        // Lattice index of parent `j` along entity axis `k`,
                        // and the coarse entity's extent along that axis.
                        let lat = |j: usize, k: usize| (j / npe.pow(k as u32) % npe) as i64;
                        let p0 = pos(parents[0]);
                        let extent: Vec<[i64; 3]> = (0..dim)
                            .map(|k| {
                                let end = pos(parents[degree * npe.pow(k as u32)]);
                                std::array::from_fn(|d| end[d] - p0[d])
                            })
                            .collect();
                        assert!(extent
                            .iter()
                            .all(|e| e.iter().filter(|&&x| x != 0).count() == 1));
                        let at = |d: usize, w: &dyn Fn(usize) -> i64| -> i64 {
                            (0..dim).map(|k| w(k) * extent[k][d]).sum()
                        };
                        for (j, &pj) in parents.iter().enumerate() {
                            let q = pos(pj);
                            for d in 0..3 {
                                let want = at(d, &|k| lat(j, k));
                                assert_eq!(n * (q[d] - p0[d]), want, "parent {j} of node {i}");
                            }
                        }
                        let key = pos(i as u32);
                        for d in 0..3 {
                            let want = at(d, &|k| i64::from(rel[k]));
                            assert_eq!(2 * n * (key[d] - p0[d]), want, "node {i} at {rel:?}");
                        }
                    }
                    // Both records occur: edges (and 2D faces) and 3D faces.
                    for dim in 1..D::DIM as usize {
                        let total = comm.allreduce_sum_u64(by_dim[dim]);
                        assert!(total > 0, "degree {degree}: no hanging {dim}-entities");
                    }
                });
            }
        }
        // The mesh of `hanging_edges_3d`, and a corner refined twice.
        check::<crate::dim::D3>(builders::unit3d, |_, o| {
            o.level < 2 && o.z == 0 && !(o.x > 0 && o.y > 0)
        });
        check::<crate::dim::D2>(builders::unit2d, |_, o| o.level < 3 && o.x == 0 && o.y == 0);
    }
}
