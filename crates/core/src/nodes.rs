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
//! own query the owner once (one all-to-all round trip). The owner's reply
//! carries the id and every rank that references the node, so each rank
//! learns, per peer, the nodes both reference: the sharer lists the
//! one-exchange assembly [`Nodes::assemble_add`] runs on (p4est's
//! `lnodes` sharers, Isaac et al., arXiv:1406.0089).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

use forust_comm::{Communicator, TAG_COLLECTIVE};

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
    /// Per rank: the local independent nodes that rank also references,
    /// in ascending global id, so two ranks' lists for each other name
    /// the same nodes in the same order. Empty for this rank itself.
    pub shared_with: Vec<Vec<u32>>,
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
        if let Draft::Unset = self.drafts[i as usize] {
            self.drafts[i as usize] = Draft::Independent;
        }
        self.check(i, false);
        i
    }

    /// Intern `key` as a node hanging from `parents`.
    fn hanging(&mut self, key: NodeKey, parents: &[u32], rel: [u16; 2], entity_dim: u8) -> u32 {
        let i = self.intern(key);
        self.check(i, true);
        match self.drafts[i as usize] {
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
                    parents: parents.to_vec(),
                    rel,
                    entity_dim,
                }
            }
        }
        i
    }

    /// Panic if node `i` is already classified the other way.
    fn check(&self, i: u32, hanging: bool) {
        match (&self.drafts[i as usize], hanging) {
            (Draft::Hanging { .. }, false) => {
                panic!("node {i} classified both independent and hanging (constraint chain?)")
            }
            (Draft::Independent, true) => {
                panic!("node {i} classified both hanging and independent (constraint chain?)")
            }
            _ => {}
        }
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
    /// The entity's index in the walk's entity list, which is also its
    /// parent's entity in the family probe cache.
    ent: usize,
}

impl<D: Dim> Hang<'_, D> {
    /// Classify the node at scaled position `pos` of the element's tree:
    /// intern the coarse entity's `(N+1)^dim` lattice as its parents into
    /// `lattice`, unless it holds them already, and record the node's
    /// rational position in the coarse entity. A position that is even on
    /// every axis coincides with a parent and is independent.
    fn node<S: BuildHasher>(
        &self,
        n: i32,
        pos: [i32; 3],
        lattice: &mut Vec<u32>,
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
        let npe_1d = n as usize + 1;
        if rel.iter().all(|r| r % 2 == 0) {
            let Some(&i) = lattice.get(rel[0] as usize / 2 + npe_1d * (rel[1] as usize / 2)) else {
                return nodes.independent(canon(self.tree, p2));
            };
            nodes.check(i, false);
            return i;
        }
        if lattice.is_empty() {
            // The lattice, first axis fastest. Off the entity axes a
            // parent keeps the node's coordinates: a hanging face's nodes
            // already lie in the coarse leaf's boundary plane.
            lattice.extend((0..npe_1d.pow(self.dim as u32)).map(|j| {
                let mut q = p2;
                let mut rest = j;
                for &a in axes {
                    q[a] = n * c[a] + (rest % npe_1d) as i32 * hc;
                    rest /= npe_1d;
                }
                nodes.independent(canon(self.tree, q))
            }));
        } else {
            lattice.iter().for_each(|&i| nodes.check(i, false));
        }
        nodes.hanging(canon(self.tree, p2), lattice, rel, self.dim as u8)
    }
}

/// The global id of independent node `i`.
fn global_id(status: &[NodeStatus], i: u32) -> u64 {
    match status[i as usize] {
        NodeStatus::Independent { global, .. } => global,
        NodeStatus::Hanging { .. } => unreachable!("hanging nodes are not shared"),
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
    /// node-for-node comparison checks the shortcuts (the routing both
    /// walks share has tests of its own in `connectivity`).
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
    /// `FAST` turns on these shortcuts, none of which changes a key, a
    /// classification or the interning order:
    /// - *sibling-group pruning*: a coarser neighbor can only sit across
    ///   a face or edge on the boundary of the element's sibling group
    ///   (across an inner one the neighbor region lies inside the parent,
    ///   so a containing leaf at `level - 1` would be the parent itself),
    ///   and root elements have no coarser side at all. This halves the
    ///   face probes and cuts the edge probes to a quarter;
    /// - the *family probe cache*: across an outer face or edge, a
    ///   neighbor at `level - 1` can only be the parent's same-size
    ///   neighbor, so each of the parent's faces and edges is probed at
    ///   most once per family and the siblings share the result;
    /// - the *in-root probe*: a neighbor box inside the root is its own
    ///   single image (`Route::Interior`), with no image enumeration;
    /// - the *interior-point canon*: a strictly interior point's only
    ///   image is itself;
    /// - *key-array probes*: leaves are searched on plain Morton keys read
    ///   once per walk. A leaf's SFC key `(m, l)` is at most a region's
    ///   finest first descendant `(p, MAX_LEVEL)` exactly when `m <= p`,
    ///   so the same leaf is found;
    /// - the *family lattice memo*: a visit to a point of the parent's
    ///   `(2N+1)^d` lattice that a sibling already made the same way,
    ///   through no hanging entity or through the same probe cache entry,
    ///   finds every key it would intern already interned and its draft
    ///   already recorded, so it takes the node the sibling took. It
    ///   re-checks the draft, and any other visit takes the full path;
    /// - *ownership-aware probes*: a tree this rank owns outright holds
    ///   no ghost, so a probe there skips the ghost search;
    /// - the *family lattice cache*: every node hanging through one probe
    ///   cache entry has the same coarse entity and so the same parent
    ///   lattice. The first such node interns it in lattice order; later
    ///   ones re-check its drafts instead of re-interning keys that
    ///   exist, and an all-even visit reads its parent from the lattice
    ///   only once the lattice exists, so no key's interning moves.
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

        // The probe keys: each tree's local-leaf Morton keys, and the
        // ghosts' `(tree, Morton)`.
        let (local_keys, ghost_keys): (Vec<Vec<u64>>, Vec<(TreeId, u64)>) = if FAST {
            let trees = 0..self.conn.num_trees() as TreeId;
            let local = trees.map(|t| self.tree(t).iter().map(Octant::morton).collect());
            let ghosts = ghost.ghosts.iter().map(|(t, g)| (*t, g.morton()));
            (local.collect(), ghosts.collect())
        } else {
            Default::default()
        };
        // Leaf lookup across local storage and the ghost layer.
        let find_leaf = |t: TreeId, region: &Octant<D>| -> Option<Octant<D>> {
            if FAST {
                let m = region.morton();
                let i = local_keys[t as usize].partition_point(|&k| k <= m);
                let local = i.checked_sub(1).map(|i| self.tree(t)[i]);
                if let Some(leaf) = local.filter(|leaf| leaf.contains(region)) {
                    return Some(leaf);
                }
                // No ghost lives in a tree this rank owns outright.
                if self.tree_owner(t) == Some(comm.rank()) {
                    return None;
                }
                let i = ghost_keys.partition_point(|&k| k <= (t, m));
                let (k, leaf) = ghost.ghosts[i.checked_sub(1)?];
                return (k == t && leaf.contains(region)).then_some(leaf);
            }
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
                .min()
                .expect("point has at least its own image")
        };
        // Faces, then edges, each as a diagonal pair of element corners.
        let entities: Vec<[usize; 2]> = D::FACE_CORNERS
            .iter()
            .map(|c| [c[0], c[c.len() - 1]])
            .chain(D::EDGE_CORNERS.iter().copied())
            .collect();

        // Sized up front for `(N+1)^d` nodes per element: growing the map
        // from empty rehashes it once per doubling.
        let cap = self.num_local() * npe_1d.pow(D::DIM);
        let mut nodes = Interner::<S> {
            index: HashMap::with_capacity_and_hasher(cap, S::default()),
            keys: Vec::with_capacity(cap),
            drafts: Vec::with_capacity(cap),
        };
        let mut element_nodes = Vec::with_capacity(cap);
        let mut hangs: Vec<Hang<'_, D>> = Vec::new();
        // The family probe cache: per entity, the parent's probe result.
        let mut family = None;
        let mut probes = vec![None; entities.len()];
        // The family lattice memo: per point of the parent's `(2N+1)^d`
        // lattice, the node a sibling interned there, how it got there
        // (`1` through no hanging entity, `2 + ent` through entity `ent`,
        // `0` not yet) and whether it hangs.
        let side = 2 * npe_1d - 1;
        let mut memo = vec![(0u32, 0u8, false); if FAST { side.pow(D::DIM) } else { 0 }];
        // The family lattice cache: per probe cache entry, the coarse
        // entity's parent lattice once a node hangs through it.
        let mut lattices = vec![Vec::new(); entities.len()];
        let (mut reused, mut lattice_reused) = (0u64, 0u64);
        for (t, o) in self.iter_local() {
            let (h, level, cid) = (o.len(), o.level, o.child_id());
            if FAST && level > 0 && family != Some((t, o.parent())) {
                family = Some((t, o.parent()));
                probes.fill(None);
                memo.fill((0, 0, false));
                lattices.iter_mut().for_each(Vec::clear);
            }
            // This child's corner on the parent lattice.
            let base = |d: usize| degree * ((cid >> d) & 1);
            let memo_on = FAST && level > 0;
            // The leaf one level coarser containing an image, if any.
            let coarser = |k2: TreeId, m: Octant<D>, route| {
                find_leaf(k2, &m)
                    .filter(|leaf| leaf.level + 1 == level)
                    .map(|leaf| (k2, leaf, route))
            };
            // The in-root probe, else the routed image enumeration.
            let probe = |nb: Octant<D>| {
                if FAST && nb.is_inside_root() {
                    coarser(t, nb, Route::Interior)
                } else {
                    self.conn
                        .exterior_images_routed(t, &nb)
                        .find_map(|(k2, m, route)| coarser(k2, m, route))
                }
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
                let found = if FAST {
                    let parent = o.parent();
                    *probes[ent]
                        .get_or_insert_with(|| probe(parent.neighbor(step(0), step(1), step(2))))
                } else {
                    probe(o.neighbor(step(0), step(1), step(2)))
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
                    ent,
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
                        // A sibling's visit to the same lattice point the
                        // same way already interned everything this visit
                        // would: the same key, or through the same probe
                        // cache entry the same parents and record.
                        let kind = hang.map_or(1, |g| 2 + g.ent as u8);
                        let slot = base(0) + ix + side * (base(1) + iy + side * (base(2) + iz));
                        if memo_on && memo[slot].1 == kind {
                            let (i, _, hanging) = memo[slot];
                            nodes.check(i, hanging);
                            element_nodes.push(i);
                            reused += 1;
                            continue;
                        }
                        let i = match hang {
                            Some(g) => {
                                let lattice = &mut lattices[g.ent];
                                if !FAST {
                                    lattice.clear();
                                }
                                lattice_reused += u64::from(!lattice.is_empty());
                                g.node(n, pos, lattice, &mut nodes, &canon)
                            }
                            None => nodes.independent(canon(t, pos)),
                        };
                        if memo_on {
                            let hanging = matches!(nodes.drafts[i as usize], Draft::Hanging { .. });
                            memo[slot] = (i, kind, hanging);
                        }
                        element_nodes.push(i);
                    }
                }
            }
        }
        if FAST {
            forust_obs::counter_add("nodes.family_reuse", reused);
            forust_obs::counter_add("nodes.lattice_reuse", lattice_reused);
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
        owned.sort_unstable_by_key(|&i| keys[i as usize]);
        let num_owned = owned.len();
        let global_offset = comm.exscan_sum_u64(num_owned as u64);
        let num_global = comm.allreduce_sum_u64(num_owned as u64);
        for (j, &i) in owned.iter().enumerate() {
            if let NodeStatus::Independent { global, .. } = &mut status[i as usize] {
                *global = global_offset + j as u64;
            }
        }

        // Borrowed nodes: query each owner for the id; the queries tell
        // the owner who borrows each of its nodes.
        let mut borrowed: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
        for i in 0..num_nodes as u32 {
            let r = owners[i as usize];
            if r != usize::MAX && r != me {
                borrowed[r].push(i);
            }
        }
        let queries: Vec<Vec<NodeKey>> = borrowed
            .iter()
            .map(|v| v.iter().map(|&i| keys[i as usize]).collect())
            .collect();
        let lent: Vec<Vec<u32>> = comm
            .alltoallv(queries)
            .into_iter()
            .enumerate()
            .map(|(r, qs)| {
                qs.into_iter()
                    .map(|key| {
                        let i = *index.get(&key).unwrap_or_else(|| {
                            panic!("rank {me}: queried for unknown node {key:?} by rank {r}")
                        });
                        assert_eq!(owners[i as usize], me, "queried for a node we do not own");
                        i
                    })
                    .collect()
            })
            .collect();
        // The borrowers of each owned node.
        let mut sharers: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for (r, v) in lent.iter().enumerate() {
            for &i in v {
                sharers[i as usize].push(r as u32);
            }
        }
        // The reply carries each node's id and its sharers, so a borrower
        // learns the other borrowers without another round.
        let replies: Vec<Vec<(u64, Vec<u32>)>> = lent
            .iter()
            .map(|v| {
                v.iter()
                    .map(|&i| {
                        let mut ranks = sharers[i as usize].clone();
                        ranks.push(me as u32);
                        (global_id(&status, i), ranks)
                    })
                    .collect()
            })
            .collect();
        let mut shared_with: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
        for (i, ranks) in sharers.iter().enumerate() {
            for &r in ranks {
                shared_with[r as usize].push(i as u32);
            }
        }
        for (r, answers) in comm.alltoallv(replies).into_iter().enumerate() {
            assert_eq!(answers.len(), borrowed[r].len());
            for (&i, (id, ranks)) in borrowed[r].iter().zip(answers) {
                if let NodeStatus::Independent { global, .. } = &mut status[i as usize] {
                    *global = id;
                }
                for q in ranks.into_iter().filter(|&q| q as usize != me) {
                    shared_with[q as usize].push(i);
                }
            }
        }
        for v in &mut shared_with {
            v.sort_unstable_by_key(|&i| global_id(&status, i));
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
            shared_with,
        }
    }
}

/// Message tag of the cG assembly's one exchange, in the reserved space
/// below the collective tags, so per-tag traffic counts name it.
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

    /// Sum-reduce shared dof values across ranks in one exchange: every
    /// rank sends each peer its partials of the nodes they share and adds
    /// the partials it receives, so all copies of each dof hold the total
    /// afterwards. (The cG scatter-gather of paper §II-E.) Hanging-node
    /// entries are ignored.
    ///
    /// `values` is a component-major fixed-point field (`forust_comm::repro`)
    /// of `k · num_local()` entries; all `k` components of a shared node
    /// travel in one message per peer. Integer addition is associative, so
    /// every copy ends with the same bits, independent of the order the
    /// partials arrive in and of the rank count.
    pub fn assemble_add(&self, comm: &impl Communicator, values: &mut [i128]) {
        const BYTES: usize = std::mem::size_of::<i128>();
        let k = self.components(values.len());
        let pending = {
            let _span = forust_obs::span!("nodes.assemble_begin");
            let outgoing: Vec<Vec<u8>> = self
                .shared_with
                .iter()
                .map(|shared| {
                    let mut buf = Vec::with_capacity(BYTES * k * shared.len());
                    for i in self.wire_order(k, shared) {
                        buf.extend_from_slice(&values[i].to_le_bytes());
                    }
                    buf
                })
                .collect();
            comm.start_alltoallv_bytes(outgoing, TAG_ASSEMBLE)
        };
        let _span = forust_obs::span!("nodes.assemble_end");
        for (shared, buf) in self.shared_with.iter().zip(pending.wait()) {
            assert_eq!(buf.len(), BYTES * k * shared.len(), "assembly message size");
            for (i, b) in self.wire_order(k, shared).zip(buf.chunks_exact(BYTES)) {
                values[i] += i128::from_le_bytes(b.try_into().unwrap());
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
    /// `mirrors_and_ghosts_are_dual`): rank a's sharer list for rank b
    /// names the same keys in the same order as rank b's list for rank a,
    /// it holds exactly the independent nodes both reference, in
    /// ascending global id, and every rank owns exactly the id range its
    /// offset names.
    #[test]
    fn sharer_lists_are_symmetric() {
        for p in [2usize, 5] {
            run_spmd(p, |comm| {
                let (_, nodes) = build(comm, builders::cubed_sphere(), 1, 2, |t, o| {
                    t == 0 && o.level < 2 && o.x == 0 && o.y == 0 && o.z == 0
                });
                let me = comm.rank();
                let keys_of = |v: &[u32]| -> Vec<NodeKey> {
                    v.iter().map(|&i| nodes.keys[i as usize]).collect()
                };
                let independent: Vec<u32> = (0..nodes.num_local() as u32)
                    .filter(|&i| matches!(nodes.status[i as usize], NodeStatus::Independent { .. }))
                    .collect();
                let referenced = comm.allgatherv(&keys_of(&independent));
                let lists: Vec<Vec<NodeKey>> =
                    nodes.shared_with.iter().map(|v| keys_of(v)).collect();
                for (r, (mine, theirs)) in
                    lists.iter().zip(comm.alltoallv(lists.clone())).enumerate()
                {
                    assert_eq!(*mine, theirs, "rank {me}'s list for rank {r} and its dual");
                    let ids: Vec<u64> = nodes.shared_with[r]
                        .iter()
                        .map(|&i| global_id(&nodes.status, i))
                        .collect();
                    assert!(
                        ids.windows(2).all(|w| w[0] < w[1]),
                        "rank {me} for {r}: ids"
                    );
                    let both: std::collections::HashSet<&NodeKey> = referenced[r].iter().collect();
                    let mut want: Vec<NodeKey> = keys_of(&independent)
                        .into_iter()
                        .filter(|k| r != me && both.contains(k))
                        .collect();
                    want.sort_unstable();
                    let mut got = mine.clone();
                    got.sort_unstable();
                    assert_eq!(got, want, "rank {me} for {r}: the nodes both reference");
                }

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

    /// A pseudo-random `i128` partial with carries in every limb.
    fn partial(seed: u64) -> i128 {
        let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (seed >> 29);
        ((h as i128) << 40) - (1i128 << 90) + (h >> 7) as i128
    }

    /// Every element adds a partial to each of its nodes: a count in the
    /// low bits (so the total's low bits are the node's valence) and a
    /// pseudo-random value keyed by the element and corner. After one
    /// assembly every copy of every node holds the brute-force total of
    /// all ranks' partials, bit for bit. The `brick3d` mesh on 4 and 5
    /// ranks has nodes shared by three and more ranks.
    #[test]
    fn assemble_add_counts_sharers() {
        for p in [4usize, 5] {
            run_spmd(p, |comm| {
                let (forest, nodes) = build(
                    comm,
                    builders::brick3d([2, 1, 1], [false; 3]),
                    1,
                    1,
                    |_, _| false,
                );
                let mut values = vec![0i128; nodes.num_local()];
                let mut mine: Vec<(NodeKey, i128)> = Vec::new();
                for (e, (t, o)) in forest.iter_local().enumerate() {
                    for (j, &i) in nodes.element(e).iter().enumerate() {
                        let seed = (t as u64) << 48 ^ (o.morton() << 4) ^ j as u64;
                        let v = (partial(seed) << 8) + 1;
                        values[i as usize] += v;
                        mine.push((nodes.keys[i as usize], v));
                    }
                }
                nodes.assemble_add(comm, &mut values);
                let mut total: std::collections::HashMap<NodeKey, (i128, u32)> =
                    std::collections::HashMap::new();
                for part in comm.allgatherv(&mine) {
                    for (k, v) in part {
                        let (sum, _) = total.entry(k).or_default();
                        *sum += v;
                    }
                }
                for (r, part) in comm.allgatherv(&nodes.keys).into_iter().enumerate() {
                    for k in part {
                        if let Some((_, ranks)) = total.get_mut(&k) {
                            *ranks |= 1 << r;
                        }
                    }
                }
                let mut widest = 0;
                for (i, s) in nodes.status.iter().enumerate() {
                    if matches!(s, NodeStatus::Independent { .. }) {
                        let (want, ranks) = total[&nodes.keys[i]];
                        assert_eq!(values[i], want, "node {i} total");
                        widest = widest.max(ranks.count_ones());
                    }
                }
                // Interior nodes of a 3D trilinear mesh have valence 8.
                assert_eq!(values.iter().map(|v| v & 0xFF).max(), Some(8));
                assert!(
                    comm.allreduce_max_u64(widest as u64) >= 3,
                    "no node on 3+ ranks"
                );
                // Every copy of every node agrees.
                let copies: Vec<(NodeKey, i128)> = (0..nodes.num_local())
                    .filter(|&i| matches!(nodes.status[i], NodeStatus::Independent { .. }))
                    .map(|i| (nodes.keys[i], values[i]))
                    .collect();
                let mut seen = std::collections::HashMap::new();
                for (k, v) in comm.allgatherv(&copies).into_iter().flatten() {
                    assert_eq!(*seen.entry(k).or_insert(v), v, "copies of {k:?} differ");
                }
            });
        }
    }

    /// A component-major field assembles exactly like its components one
    /// by one, in one collective and one `TAG_ASSEMBLE` message per peer
    /// instead of `k` of each.
    #[test]
    fn fused_assembly_is_the_per_component_assembly() {
        const K: usize = 4;
        for p in [1usize, 2, 3] {
            run_spmd(p, |comm| {
                // The mesh of `hanging_edges_3d`: hanging faces and edges.
                let (_, nodes) = build(comm, builders::unit3d(), 1, 1, |_, o| {
                    o.level < 2 && o.z == 0 && !(o.x > 0 && o.y > 0)
                });
                let hangs = |s: &NodeStatus| matches!(s, NodeStatus::Hanging { .. });
                assert!(comm.allreduce_or(nodes.status.iter().any(hangs)));
                let nn = nodes.num_local();
                let field: Vec<i128> = (0..K * nn)
                    .map(|i| partial(i as u64 + 1 + ((comm.rank() as u64) << 40)))
                    .collect();
                let sent = || comm.stats().tag_traffic(TAG_ASSEMBLE).msgs;
                let calls = || comm.stats().snapshot().coll_calls;
                let peers = comm.size() as u64 - 1;

                let mut fused = field.clone();
                let (msgs, colls) = (sent(), calls());
                nodes.assemble_add(comm, &mut fused);
                assert_eq!(sent() - msgs, peers, "one message per peer");
                assert_eq!(calls() - colls, 1, "one collective per assembly");

                let mut split = field;
                let (msgs, colls) = (sent(), calls());
                for comp in split.chunks_exact_mut(nn) {
                    nodes.assemble_add(comm, comp);
                }
                assert_eq!(sent() - msgs, K as u64 * peers);
                assert_eq!(calls() - colls, K as u64);
                assert_eq!(fused, split);
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

    /// The family probe cache where it could go wrong: one refined
    /// level-1 octant of rotcubes6 whose eight children straddle the
    /// two-rank cut, so each rank holds part of the family and probes its
    /// parent's neighbors through ghosts, and, for some of the targets,
    /// through another tree's frame. Shortcuts on and off agree field for
    /// field at degrees 1 to 3.
    #[test]
    fn family_cut_across_ranks_and_trees() {
        use crate::dim::D3;
        // Global positions 21..=27 of the 48 level-1 octants: the family
        // then covers position 28 of 55, the first one rank 1 holds.
        let targets = [(2, 5), (2, 6), (2, 7), (3, 0), (3, 1), (3, 2), (3, 3)];
        let conn = builders::rotcubes6();
        let across_trees = targets.iter().filter(|&&(t, c)| {
            let parent = Octant::<D3>::root().child(c);
            (0..D3::FACES).any(|f| {
                !parent.face_neighbor(f).is_inside_root() && conn.face_transform(t, f).is_some()
            })
        });
        assert!(across_trees.count() > 0, "no family on a tree boundary");
        for (t, c) in targets {
            run_spmd(2, |comm| {
                let mut f = Forest::<D3>::new_uniform(Arc::new(builders::rotcubes6()), comm, 1);
                f.refine(comm, false, |k, o| k == t && o.child_id() == c);
                f.partition(comm);
                let family = Octant::<D3>::root().child(c);
                let here = f.iter_local().any(|(k, o)| k == t && o.parent() == family);
                assert_eq!(
                    comm.allreduce_sum_u64(here as u64),
                    2,
                    "family ({t}, {c}) is cut"
                );
                let ghost = f.ghost(comm);
                for degree in 1..=3 {
                    let a = f.nodes(comm, &ghost, degree);
                    let b = f.nodes_reference(comm, &ghost, degree);
                    let ctx = format!("family ({t}, {c}), N={degree}, rank {}", comm.rank());
                    let hangs = a
                        .status
                        .iter()
                        .any(|s| matches!(s, NodeStatus::Hanging { .. }));
                    assert!(comm.allreduce_or(hangs), "{ctx}: nothing hangs");
                    assert_eq!(a.keys, b.keys, "{ctx}");
                    assert_eq!(a.status, b.status, "{ctx}");
                    assert_eq!(a.element_nodes, b.element_nodes, "{ctx}");
                    assert_eq!(a.num_owned, b.num_owned, "{ctx}");
                    assert_eq!(a.global_offset, b.global_offset, "{ctx}");
                    assert_eq!(a.num_global, b.num_global, "{ctx}");
                    assert_eq!(a.shared_with, b.shared_with, "{ctx}");
                }
            });
        }
    }

    fn assert_same(a: &Nodes, b: &Nodes, ctx: &str) {
        assert_eq!(a.keys, b.keys, "{ctx}");
        assert_eq!(a.status, b.status, "{ctx}");
        assert_eq!(a.element_nodes, b.element_nodes, "{ctx}");
        assert_eq!(a.num_owned, b.num_owned, "{ctx}");
        assert_eq!(a.global_offset, b.global_offset, "{ctx}");
        assert_eq!(a.num_global, b.num_global, "{ctx}");
        assert_eq!(a.shared_with, b.shared_with, "{ctx}");
    }

    /// The family lattice memo and the key-array probes on the
    /// `forest_fractal` benchmark's forest shape at its quick size:
    /// rotcubes6 at base level 1, the fractal rule three levels deep with
    /// either child set, full balance; and the same rule on a row of
    /// three quadtrees. Each runs
    /// on 1, 2 and 3 ranks, and at the rank counts `cut_at` names a sibling
    /// family straddles a cut. Shortcuts on and off agree field for field
    /// at degrees 1 to 3, and the `nodes.family_reuse` counter shows the
    /// memo served visits.
    #[test]
    fn family_memo_is_exact_on_fractal_forests() {
        fn check<D: Dim>(
            conn: fn() -> crate::connectivity::Connectivity<D>,
            sets: [u8; 2],
            cut_at: &[usize],
        ) {
            for set in sets {
                for p in [1usize, 2, 3] {
                    run_spmd(p, |comm| {
                        forust_obs::install(comm.rank());
                        let mut f = Forest::<D>::new_uniform(Arc::new(conn()), comm, 1);
                        f.refine(comm, true, |_, o| {
                            o.level < 4 && set >> o.child_id() & 1 == 1
                        });
                        f.partition(comm);
                        f.balance(comm, BalanceType::Full);
                        f.partition(comm);
                        // The families of each rank's first and last leaf.
                        let ends: Vec<(TreeId, Octant<D>)> =
                            [f.first_local(), f.iter_local().last().map(|(t, o)| (t, *o))]
                                .into_iter()
                                .flatten()
                                .filter(|(_, o)| o.level > 0)
                                .map(|(t, o)| (t, o.parent()))
                                .collect();
                        let ends = comm.allgatherv(&ends);
                        let cut = ends
                            .windows(2)
                            .any(|w| w[0].last().is_some() && w[0].last() == w[1].first());
                        let ctx =
                            format!("{}D set {set:#b}, {p} ranks, rank {}", D::DIM, comm.rank());
                        assert_eq!(cut, cut_at.contains(&p), "{ctx}: a family is cut");
                        let ghost = f.ghost(comm);
                        for degree in 1..=3 {
                            let a = f.nodes(comm, &ghost, degree);
                            let b = f.nodes_reference(comm, &ghost, degree);
                            assert_same(&a, &b, &format!("{ctx}, N={degree}"));
                        }
                        let report = forust_obs::uninstall().expect("a recorder");
                        let reused = report
                            .counters
                            .iter()
                            .find(|(k, _)| k == "nodes.family_reuse");
                        assert!(
                            reused.is_some_and(|&(_, v)| v > 0),
                            "{ctx}: the memo never served"
                        );
                    });
                }
            }
        }
        check::<crate::dim::D3>(builders::rotcubes6, [0b0110_1001, 0b1001_0110], &[2, 3]);
        // Two ranks cut this forest between families.
        let row = || builders::brick2d(3, 1, false, false);
        check::<crate::dim::D2>(row, [0b1001, 0b0110], &[3]);
    }

    /// The family lattice cache: shortcuts on and off agree field for
    /// field at degrees 1 to 3 on 1 to 3 ranks, and the cache serves
    /// visits. On rotcubes6, trees 0, 2 and 4 are refined along their
    /// edge `y = z = 0`, which in tree 0 is the axis four trees share, so
    /// faces and edges hang across trees; the 2D forest is the fractal on
    /// the Möbius strip.
    #[test]
    fn lattice_cache_is_exact_and_fires() {
        fn check<D: Dim>(
            conn: fn() -> crate::connectivity::Connectivity<D>,
            refine: fn(TreeId, &Octant<D>) -> bool,
        ) {
            for p in [1usize, 2, 3] {
                run_spmd(p, |comm| {
                    forust_obs::install(comm.rank());
                    let mut f = Forest::<D>::new_uniform(Arc::new(conn()), comm, 1);
                    f.refine(comm, true, refine);
                    f.balance(comm, BalanceType::Full);
                    f.partition(comm);
                    let ghost = f.ghost(comm);
                    let ctx = format!("{}D, {p} ranks, rank {}", D::DIM, comm.rank());
                    for degree in 1..=3 {
                        let a = f.nodes(comm, &ghost, degree);
                        let b = f.nodes_reference(comm, &ghost, degree);
                        assert_same(&a, &b, &format!("{ctx}, N={degree}"));
                    }
                    let report = forust_obs::uninstall().expect("a recorder");
                    let reused = report
                        .counters
                        .iter()
                        .find(|(k, _)| k == "nodes.lattice_reuse")
                        .map_or(0, |&(_, v)| v);
                    let total = comm.allreduce_sum_u64(reused);
                    assert!(total > 0, "{ctx}: the lattice cache never served");
                });
            }
        }
        check::<crate::dim::D3>(builders::rotcubes6, |t, o| {
            t % 2 == 0 && o.level < 3 && o.y == 0 && o.z == 0
        });
        check::<crate::dim::D2>(builders::moebius, |_, o| {
            o.level < 4 && 0b1001 >> o.child_id() & 1 == 1
        });
    }
}
