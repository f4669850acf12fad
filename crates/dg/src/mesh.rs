//! The dG element mesh on a balanced forest: face neighbor association.
//!
//! "Computing fluxes across faces requires access to unknowns on
//! neighboring elements. We accomplish this by fast binary searches in the
//! local octant storage, or in the ghost layer when a parallel boundary is
//! encountered. The rotation of coordinate systems between octrees needs to
//! be taken into account when aligning unknowns across inter-octree faces.
//! For 2:1 non-conforming faces, the unknowns on the larger face are
//! interpolated to align with the unknowns on the four connecting smaller
//! faces." (paper §II-E)
//!
//! All alignment cases — intra-tree, rotated inter-tree, and 2:1 mortar —
//! are one small [`FaceOp`] per face-neighbor pair: the orientation of
//! the neighbor's face lattice relative to the receiver's (an index into
//! the reference element's permutation table) and, across a 2:1 face, the
//! half of the coarse face covered along each tangential axis. Both are
//! read off the discrete data the traversal hands over — the two face
//! numbers, the inter-tree [`FaceTransform`]'s axis permutation and signs
//! restricted to the face plane, the octant anchors — so mesh memory per
//! face does not depend on the degree and nothing is evaluated pointwise.
//!
//! Face *topology* (which element is across each face, with which
//! orientation) is not derived here: the mesh rides the forest's
//! recursive traversal ([`Forest::iterate`]), which classifies every
//! local face as boundary / conforming / hanging in one top-down pass
//! over local + ghost octants.
//!
//! [`FaceTransform`]: forust::connectivity::FaceTransform

use forust::connectivity::TreeId;
use forust::dim::Dim;
use forust::forest::{FaceSide, FaceVisit, Forest, GhostLayer, LeafRef, Visit};
use forust::octant::Octant;
use forust_comm::Communicator;

use crate::element::RefElement;
use crate::faceop::FaceOp;

/// Reference to a face-neighbor element: local or in the ghost layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemRef {
    /// Index into [`DgMesh::elements`].
    Local(u32),
    /// Index into the ghost layer's octants.
    Ghost(u32),
}

/// One fine sub-face of a coarse element's 2:1 face (the mortar).
#[derive(Debug, Clone, Copy)]
pub struct FineSub {
    /// The fine neighbor.
    pub nbr: ElemRef,
    /// The fine neighbor's face number toward us.
    pub nbr_face: usize,
    /// Maps **my** face nodal values to values at the fine neighbor's face
    /// nodes (in the fine element's face lattice order). Its transpose,
    /// weighted by the fine face quadrature, lifts mortar fluxes back.
    pub op: FaceOp,
}

/// Classification and alignment data of one element face.
#[derive(Debug, Clone)]
pub enum FaceConn {
    /// Physical domain boundary.
    Boundary,
    /// Same-size neighbor (possibly in a rotated neighboring tree).
    Conforming {
        /// The neighbor element.
        nbr: ElemRef,
        /// The neighbor's face toward us.
        nbr_face: usize,
        /// Maps the neighbor's face values to my face nodes.
        op: FaceOp,
    },
    /// My face is the small side of a 2:1 face; the neighbor is coarser.
    CoarseNbr {
        /// The coarse neighbor element.
        nbr: ElemRef,
        /// The neighbor's face toward us.
        nbr_face: usize,
        /// Maps the neighbor's (coarse) face values to my face nodes.
        op: FaceOp,
    },
    /// My face is the large side: `2^(d-1)` fine neighbors across it.
    FineNbrs {
        /// The fine sub-faces.
        subs: Vec<FineSub>,
    },
}

/// The distributed dG mesh of one forest state.
#[derive(Debug)]
pub struct DgMesh<D: Dim> {
    /// Reference element (degree, operators).
    pub re: RefElement,
    /// The shared macro-topology (for inter-tree transforms).
    pub conn: std::sync::Arc<forust::connectivity::Connectivity<D>>,
    /// Local elements in SFC order (mirrors the forest's leaves).
    pub elements: Vec<(TreeId, Octant<D>)>,
    /// The ghost layer the mesh was built against.
    pub ghost: GhostLayer<D>,
    /// Local element index of every ghost-layer mirror.
    pub mirror_elem: Vec<u32>,
    /// `elements.len() * FACES` face connections.
    pub faces: Vec<FaceConn>,
    /// Faces per element (`D::FACES`), cached so the hot
    /// [`face`](Self::face) accessor does pure index arithmetic.
    pub nfaces: usize,
}

impl<D: Dim> DgMesh<D> {
    /// Build the dG mesh of a 2:1 balanced forest.
    pub fn build(forest: &Forest<D>, comm: &impl Communicator, degree: usize) -> Self {
        let re = RefElement::new(degree);
        let ghost = forest.ghost(comm);
        let elements: Vec<(TreeId, Octant<D>)> =
            forest.iter_local().map(|(t, o)| (t, *o)).collect();

        // Local element index by (tree, octant), for mirror association:
        // the per-tree index plus the leaves of all earlier trees.
        let mut tree_offset = vec![0usize; forest.conn.num_trees()];
        for t in 1..tree_offset.len() {
            tree_offset[t] = tree_offset[t - 1] + forest.tree(t as TreeId - 1).len();
        }
        let elem_index = |t: TreeId, o: &Octant<D>| -> Option<u32> {
            forest
                .find_local_containing(t, o)
                .filter(|(_, leaf)| *leaf == o)
                .map(|(i, _)| (tree_offset[t as usize] + i) as u32)
        };
        let mirror_elem: Vec<u32> = ghost
            .mirrors
            .iter()
            .map(|(t, o)| elem_index(*t, o).expect("mirror must be a local element"))
            .collect();

        // One recursive traversal classifies every local face; each
        // visit's callback reads off the face operators.
        let mut fb = FaceBuilder {
            nfaces: D::FACES,
            slots: vec![None; elements.len() * D::FACES],
        };
        forest.iterate(&ghost, &mut fb);
        let faces: Vec<FaceConn> = fb
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.unwrap_or_else(|| {
                    panic!(
                        "dG mesh: face slot {}/{} of element {} unclassified by iterate",
                        i % D::FACES,
                        D::FACES,
                        i / D::FACES
                    )
                })
            })
            .collect();

        let mesh = DgMesh {
            re,
            conn: forest.conn.clone(),
            elements,
            ghost,
            mirror_elem,
            faces,
            nfaces: D::FACES,
        };
        forust_obs::gauge_set("mem.dg_mesh_bytes", mesh.heap_bytes() as u64);
        mesh
    }

    /// Heap bytes this rank's mesh holds: elements, face connections and
    /// their mortar lists, ghost layer, and the reference element's
    /// tables. Published as gauge `mem.dg_mesh_bytes` at build.
    pub fn heap_bytes(&self) -> usize {
        let subs: usize = self
            .faces
            .iter()
            .map(|f| match f {
                FaceConn::FineNbrs { subs } => subs.len() * size_of::<FineSub>(),
                _ => 0,
            })
            .sum();
        let octant = size_of::<(TreeId, Octant<D>)>();
        let g = &self.ghost;
        let by_rank: usize = g.mirror_idx_by_rank.iter().map(Vec::len).sum();
        (self.elements.len() + g.ghosts.len() + g.mirrors.len()) * octant
            + self.mirror_elem.len() * size_of::<u32>()
            + self.faces.len() * size_of::<FaceConn>()
            + subs
            + (g.ghost_owner.len() + by_rank) * size_of::<usize>()
            + self.re.heap_bytes()
    }

    /// Face connection of local element `e`, face `f`.
    #[inline]
    pub fn face(&self, e: usize, f: usize) -> &FaceConn {
        &self.faces[e * self.nfaces + f]
    }

    /// Number of local elements.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Exchange per-element nodal data across the partition boundary:
    /// `local` holds `chunk` values per local element; the result holds
    /// `chunk` values per ghost element, aligned with `ghost.ghosts`.
    pub fn exchange_element_data(
        &self,
        comm: &impl Communicator,
        local: &[f64],
        chunk: usize,
    ) -> Vec<f64> {
        assert_eq!(local.len(), self.elements.len() * chunk);
        let mirror_vals: Vec<Vec<f64>> = self
            .mirror_elem
            .iter()
            .map(|&e| local[e as usize * chunk..(e as usize + 1) * chunk].to_vec())
            .collect();
        let ghost_vals = self.ghost.exchange(comm, &mirror_vals);
        let mut out = Vec::with_capacity(self.ghost.ghosts.len() * chunk);
        for v in ghost_vals {
            assert_eq!(v.len(), chunk);
            out.extend_from_slice(&v);
        }
        out
    }
}

/// The tangential axes of face `f`, ascending (the face-lattice axis
/// order); only the first is meaningful in 2-D.
pub(crate) fn tangential<D: Dim>(f: usize) -> [usize; 2] {
    match D::face_axis(f) {
        0 => [1, 2],
        1 => [0, 2],
        _ => [0, 1],
    }
}

/// The operator taking `src`'s face lattice to `dst`'s, from discrete
/// data only. `dst.transform` carries `dst`'s frame into `src`'s: each of
/// `dst`'s tangential axes lands on one of `src`'s (exchanged or not),
/// running with or against it. When `dst` is the fine side of a 2:1 face
/// its anchor, carried into `src`'s frame, says which half of the coarse
/// face it covers along each axis.
fn face_op<D: Dim>(dst: &FaceSide<D>, src: &FaceSide<D>) -> FaceOp {
    let tdim = D::DIM as usize - 1;
    let (td, ts) = (tangential::<D>(dst.face), tangential::<D>(src.face));
    let tr = dst.transform.as_ref();
    let mut flip = [false; 2];
    let mut src_axis = [0usize; 2];
    for k in 0..tdim {
        let (axis, sign) = tr.map_or((td[k], 1), |t| (t.perm[td[k]], t.sign[td[k]]));
        assert!(
            ts[..tdim].contains(&axis),
            "face transform maps a tangential axis off the neighbor's face plane"
        );
        src_axis[k] = axis;
        flip[k] = sign < 0;
    }
    let swap = tdim == 2 && src_axis[0] == ts[1];
    let half = (dst.octant.level > src.octant.level).then(|| {
        let image = tr.map_or(dst.octant, |t| t.apply_octant(&dst.octant));
        let (fine, coarse, h) = (image.coords(), src.octant.coords(), image.len());
        let mut half = [0u8; 2];
        for k in 0..tdim {
            // 0 or 1 along the coarse axis; counted in dst's direction.
            let along_src = ((fine[src_axis[k]] - coarse[src_axis[k]]) / h) as u8;
            debug_assert!(
                along_src < 2,
                "fine face outside its coarse neighbor's face"
            );
            half[k] = if flip[k] { 1 - along_src } else { along_src };
        }
        half
    });
    FaceOp {
        orient: FaceOp::orientation(flip, swap),
        half,
    }
}

/// The [`Visit`] implementation that turns the recursive traversal's
/// face visits into [`FaceConn`] entries for every local element face.
struct FaceBuilder {
    nfaces: usize,
    slots: Vec<Option<FaceConn>>,
}

impl FaceBuilder {
    fn set<D: Dim>(&mut self, side: &FaceSide<D>, conn: FaceConn) {
        let LeafRef::Local(i) = side.elem else {
            unreachable!("only local sides are classified");
        };
        let slot = &mut self.slots[i as usize * self.nfaces + side.face];
        debug_assert!(slot.is_none(), "face classified twice");
        *slot = Some(conn);
    }

    /// `me` receives a Conforming entry reading from `other`.
    fn conforming<D: Dim>(&mut self, me: &FaceSide<D>, other: &FaceSide<D>) {
        if !me.elem.is_local() {
            return;
        }
        self.set(
            me,
            FaceConn::Conforming {
                nbr: elem_ref(other.elem),
                nbr_face: other.face,
                op: face_op(me, other),
            },
        );
    }
}

impl<D: Dim> Visit<D> for FaceBuilder {
    fn face(&mut self, visit: &FaceVisit<D>) {
        match visit {
            FaceVisit::Boundary { side } => self.set(side, FaceConn::Boundary),
            FaceVisit::Conforming { a, b } => {
                self.conforming(a, b);
                self.conforming(b, a);
            }
            FaceVisit::Hanging { coarse, fine } => {
                // The small sides interpolate from the coarse neighbor.
                for sub in fine.iter().filter(|sub| sub.elem.is_local()) {
                    self.set(
                        sub,
                        FaceConn::CoarseNbr {
                            nbr: elem_ref(coarse.elem),
                            nbr_face: coarse.face,
                            op: face_op(sub, coarse),
                        },
                    );
                }
                // The large side gets the mortar onto each fine sub-face,
                // in ascending fine-frame child order: the same operator
                // the fine side reads the coarse trace through.
                if coarse.elem.is_local() {
                    let subs = fine
                        .iter()
                        .map(|sub| FineSub {
                            nbr: elem_ref(sub.elem),
                            nbr_face: sub.face,
                            op: face_op(sub, coarse),
                        })
                        .collect();
                    self.set(coarse, FaceConn::FineNbrs { subs });
                }
            }
        }
    }
}

fn elem_ref(r: LeafRef) -> ElemRef {
    match r {
        LeafRef::Local(i) => ElemRef::Local(i),
        LeafRef::Ghost(i) => ElemRef::Ghost(i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::MeshGeometry;
    use crate::legendre::lagrange_eval;
    use crate::matrix::Matrix;
    use forust::connectivity::{builders, FaceTransform};
    use forust::dim::{D2, D3};
    use forust::forest::BalanceType;
    use forust_comm::run_spmd;
    use forust_geom::LatticeMap;
    use std::sync::Arc;

    // ---- The point-evaluation oracle -------------------------------
    //
    // The pre-`FaceOp` construction, kept verbatim as the reference the
    // discrete derivation is checked against: place the receiver's face
    // nodes in space, carry them through the inter-tree transform, and
    // evaluate the source's face Lagrange basis there.

    /// Physical (tree-coordinate) position of face node `(a, b)` of face `f`
    /// of octant `o`: the face axis is pinned to the face plane, the
    /// tangential axes carry the LGL points.
    fn face_node_position<D: Dim>(
        re: &RefElement,
        dim: usize,
        o: &Octant<D>,
        f: usize,
        a: usize,
        b: usize,
    ) -> [f64; 3] {
        let h = o.len() as f64;
        let axis = D::face_axis(f);
        let tang: Vec<usize> = (0..dim).filter(|&d| d != axis).collect();
        let c = o.coords();
        let mut x = [c[0] as f64, c[1] as f64, c[2] as f64];
        x[axis] += if D::face_positive(f) { h } else { 0.0 };
        x[tang[0]] += 0.5 * (re.nodes[a] + 1.0) * h;
        if dim == 3 {
            x[tang[1]] += 0.5 * (re.nodes[b] + 1.0) * h;
        }
        x
    }

    /// Map a real-coordinate point through an inter-tree face transform
    /// (`None` for same-frame neighbors).
    fn map_point_real(tr: Option<&FaceTransform>, p: [f64; 3]) -> [f64; 3] {
        match tr {
            None => p,
            Some(tr) => {
                let mut out = [0.0; 3];
                for d in 0..3 {
                    out[tr.perm[d]] = tr.sign[d] as f64 * p[d] + tr.offset[d] as f64;
                }
                out
            }
        }
    }

    /// Evaluate the face-lattice basis of `nbr`'s face `nbr_face` at a real
    /// point `x` (in the neighbor's tree coordinates), producing one row of an
    /// interpolation matrix (length = nodes per face, neighbor lattice order).
    fn nbr_face_basis_row<D: Dim>(
        re: &RefElement,
        dim: usize,
        nbr: &Octant<D>,
        nbr_face: usize,
        x: [f64; 3],
    ) -> Vec<f64> {
        let axis = D::face_axis(nbr_face);
        let tang: Vec<usize> = (0..dim).filter(|&d| d != axis).collect();
        let h = nbr.len() as f64;
        let c = nbr.coords();
        let eta0 = 2.0 * (x[tang[0]] - c[tang[0]] as f64) / h - 1.0;
        let la = lagrange_eval(&re.nodes, &re.bary, eta0);
        if dim == 2 {
            return la;
        }
        let eta1 = 2.0 * (x[tang[1]] - c[tang[1]] as f64) / h - 1.0;
        let lb = lagrange_eval(&re.nodes, &re.bary, eta1);
        let mut row = Vec::with_capacity(re.np * re.np);
        for vb in &lb {
            for va in &la {
                row.push(vb * va);
            }
        }
        row
    }

    /// Build the matrix mapping the neighbor's face values (neighbor lattice
    /// order) to the receiving element's face nodes (its lattice order).
    #[allow(clippy::too_many_arguments)]
    fn interp_from_neighbor<D: Dim>(
        re: &RefElement,
        dim: usize,
        my: &Octant<D>,
        my_face: usize,
        tr: Option<&FaceTransform>,
        nbr: &Octant<D>,
        nbr_face: usize,
    ) -> Matrix {
        let npf = re.nodes_per_face(dim);
        let nb = if dim == 3 { re.np } else { 1 };
        let mut m = Matrix::zeros(npf, npf);
        for b in 0..nb {
            for a in 0..re.np {
                let x = face_node_position::<D>(re, dim, my, my_face, a, b);
                let x2 = map_point_real(tr, x);
                let row = nbr_face_basis_row::<D>(re, dim, nbr, nbr_face, x2);
                let r = b * re.np + a;
                m.data[r * npf..(r + 1) * npf].copy_from_slice(&row);
            }
        }
        m
    }

    /// Matrix mapping the coarse element's face values to the fine child's
    /// face node points (fine lattice order): the mortar interpolation.
    /// `tr` maps the coarse frame into the fine frame; it is inverted here
    /// to pull the fine face nodes back into the coarse frame.
    fn interp_to_fine<D: Dim>(
        re: &RefElement,
        dim: usize,
        coarse: &Octant<D>,
        coarse_face: usize,
        tr: Option<&FaceTransform>,
        fine: &Octant<D>,
        fine_face: usize,
    ) -> Matrix {
        let inv = tr.map(|t| t.inverse(0, 0)); // source ids unused for point mapping
        let npf = re.nodes_per_face(dim);
        let nb = if dim == 3 { re.np } else { 1 };
        let mut m = Matrix::zeros(npf, npf);
        for b in 0..nb {
            for a in 0..re.np {
                let x = face_node_position::<D>(re, dim, fine, fine_face, a, b);
                let x0 = map_point_real(inv.as_ref(), x);
                let row = nbr_face_basis_row::<D>(re, dim, coarse, coarse_face, x0);
                let r = b * re.np + a;
                m.data[r * npf..(r + 1) * npf].copy_from_slice(&row);
            }
        }
        m
    }

    /// Dense oracle matrices of every local face, by `e * FACES + f`
    /// (one per fine sub-face on the coarse side of a 2:1 face).
    struct OracleBuilder<'a> {
        re: &'a RefElement,
        dim: usize,
        nfaces: usize,
        slots: Vec<Vec<Matrix>>,
    }

    impl OracleBuilder<'_> {
        fn slot<D: Dim>(&mut self, side: &FaceSide<D>) -> Option<&mut Vec<Matrix>> {
            match side.elem {
                LeafRef::Local(i) => Some(&mut self.slots[i as usize * self.nfaces + side.face]),
                LeafRef::Ghost(_) => None,
            }
        }

        fn reads_from<D: Dim>(&mut self, me: &FaceSide<D>, other: &FaceSide<D>) {
            let m = interp_from_neighbor(
                self.re,
                self.dim,
                &me.octant,
                me.face,
                me.transform.as_ref(),
                &other.octant,
                other.face,
            );
            if let Some(slot) = self.slot(me) {
                slot.push(m);
            }
        }
    }

    impl<D: Dim> Visit<D> for OracleBuilder<'_> {
        fn face(&mut self, visit: &FaceVisit<D>) {
            match visit {
                FaceVisit::Boundary { .. } => {}
                FaceVisit::Conforming { a, b } => {
                    self.reads_from(a, b);
                    self.reads_from(b, a);
                }
                FaceVisit::Hanging { coarse, fine } => {
                    for sub in fine {
                        self.reads_from(sub, coarse);
                        let m = interp_to_fine(
                            self.re,
                            self.dim,
                            &coarse.octant,
                            coarse.face,
                            coarse.transform.as_ref(),
                            &sub.octant,
                            sub.face,
                        );
                        if let Some(slot) = self.slot(coarse) {
                            slot.push(m);
                        }
                    }
                }
            }
        }
    }

    /// Every face operator of every rank, as a dense matrix, against the
    /// point-evaluation oracle: permutations exactly, tensor mortars to
    /// 1e-13. Returns how many (conforming, coarse-neighbor, fine-sub)
    /// operators were compared across all ranks, and a bit set of the
    /// orientations met on 2:1 faces.
    fn check_ops_against_oracle<D: Dim>(
        conn: forust::connectivity::Connectivity<D>,
        level: u8,
        ranks: usize,
        degrees: std::ops::RangeInclusive<usize>,
        refine: impl Fn(TreeId, &Octant<D>) -> bool + Sync,
    ) -> ([u64; 3], u64) {
        let totals = run_spmd(ranks, |comm| {
            let conn = Arc::new(conn.clone());
            let mut forest = Forest::<D>::new_uniform(Arc::clone(&conn), comm, level);
            forest.refine(comm, false, |t, o| refine(t, o));
            forest.balance(comm, BalanceType::Full);
            forest.partition(comm);
            let dim = D::DIM as usize;
            let mut counts = [0u64; 3];
            let mut hanging_orients = 0u64;
            for degree in degrees.clone() {
                let mesh = DgMesh::build(&forest, comm, degree);
                let mut oracle = OracleBuilder {
                    re: &mesh.re,
                    dim,
                    nfaces: D::FACES,
                    slots: vec![Vec::new(); mesh.faces.len()],
                };
                forest.iterate(&mesh.ghost, &mut oracle);
                let tab = &mesh.re.face_tables;
                for (conn, want) in mesh.faces.iter().zip(&oracle.slots) {
                    match conn {
                        FaceConn::Boundary => assert!(want.is_empty()),
                        FaceConn::Conforming { op, .. } => {
                            assert_eq!(want.len(), 1);
                            assert_eq!(op.half, None);
                            assert_eq!(op.to_dense(tab, dim).data, want[0].data, "N={degree}");
                            counts[0] += 1;
                        }
                        FaceConn::CoarseNbr { op, .. } => {
                            assert_eq!(want.len(), 1);
                            assert!(op.half.is_some());
                            assert_close(&op.to_dense(tab, dim), &want[0], degree);
                            hanging_orients |= 1 << op.orient;
                            counts[1] += 1;
                        }
                        FaceConn::FineNbrs { subs } => {
                            assert_eq!(want.len(), subs.len());
                            for (sub, want) in subs.iter().zip(want) {
                                assert_close(&sub.op.to_dense(tab, dim), want, degree);
                                counts[2] += 1;
                            }
                        }
                    }
                }
            }
            (
                counts.map(|c| comm.allreduce_sum_u64(c)),
                comm.allreduce(hanging_orients, |a, b| a | b),
            )
        });
        totals[0]
    }

    fn assert_close(got: &Matrix, want: &Matrix, degree: usize) {
        for (a, b) in got.data.iter().zip(&want.data) {
            assert!((a - b).abs() < 1e-13, "N={degree}: {a} vs {b}");
        }
    }

    #[test]
    fn face_ops_match_point_evaluation_moebius_2d() {
        let (n, orients) = check_ops_against_oracle(builders::moebius(), 1, 2, 1..=7, |t, o| {
            (t == 4 || t == 0) && o.level < 3 && o.x + o.len() == D2::root_len()
        });
        assert!(n.iter().all(|&n| n > 0), "{n:?}");
        // Across the twisted seam and across an untwisted one.
        assert_eq!(orients, 0b11);
    }

    #[test]
    fn face_ops_match_point_evaluation_rotcubes6() {
        // Whole trees refined: the faces trees 0-2 share with 3-5 are 2:1.
        let (n, orients) = check_ops_against_oracle(builders::rotcubes6(), 1, 3, 1..=7, |t, o| {
            t < 3 && o.level < 2
        });
        assert!(n.iter().all(|&n| n > 0), "{n:?}");
        assert!(
            orients.count_ones() >= 2,
            "2:1 faces across rotated trees: {orients:#b}"
        );
    }

    #[test]
    fn face_ops_match_point_evaluation_shell24() {
        let (n, _) = check_ops_against_oracle(builders::shell24(), 1, 2, 1..=7, |t, o| {
            t % 3 == 0 && o.level < 2
        });
        assert!(n.iter().all(|&n| n > 0), "{n:?}");
    }

    #[test]
    fn face_ops_match_point_evaluation_cubed_sphere() {
        let (n, _) = check_ops_against_oracle(builders::cubed_sphere(), 1, 2, 1..=7, |t, o| {
            t % 2 == 1 && o.level < 2
        });
        assert!(n.iter().all(|&n| n > 0), "{n:?}");
    }

    /// A second cube attached to the first one's `+x` face in each of the
    /// 48 signed-permutation placements (24 of them left-handed frames):
    /// the derivation from `perm`/`sign` and the face numbers meets every
    /// one of the 8 face-lattice orientations, on a 2:1 face.
    #[test]
    fn face_ops_match_point_evaluation_all_placements() {
        let unit = |c: usize| [(c & 1) as i64, (c >> 1 & 1) as i64, (c >> 2 & 1) as i64];
        let mut orients = 0u64;
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            for flips in 0..8 {
                let placed = (0..8)
                    .map(|c| {
                        let mut p = [0i64; 3];
                        for d in 0..3 {
                            p[perm[d]] = if flips >> d & 1 == 1 {
                                1 - unit(c)[d]
                            } else {
                                unit(c)[d]
                            };
                        }
                        [p[0] + 1, p[1], p[2]]
                    })
                    .collect();
                let conn = forust::connectivity::Connectivity::<D3>::from_corner_positions(&[
                    (0..8).map(unit).collect(),
                    placed,
                ]);
                let (n, seen) =
                    check_ops_against_oracle(conn, 1, 2, 2..=3, |t, o| t == 0 && o.level < 2);
                assert!(n.iter().all(|&n| n > 0), "{perm:?}/{flips:#b}: {n:?}");
                orients |= seen;
            }
        }
        assert_eq!(orients, 0xff, "orientations met on 2:1 faces");
    }

    #[test]
    fn mesh_bytes_do_not_scale_with_face_nodes() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::rotcubes6());
            let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 2);
            forest.refine(comm, false, |t, o| t == 0 && o.child_id() == 0);
            forest.balance(comm, BalanceType::Full);
            forest.partition(comm);
            forust_obs::install(comm.rank());
            let lo = DgMesh::build(&forest, comm, 2).heap_bytes();
            let hi = DgMesh::build(&forest, comm, 6).heap_bytes();
            let report = forust_obs::uninstall().expect("recorder installed above");
            // 49 face nodes against 9: dense face matrices would be 30x.
            assert!(hi < 2 * lo, "degree 6: {hi} B, degree 2: {lo} B");
            // The gauge holds the last build's figure.
            let gauge = report.gauges.iter().find(|(n, _)| n == "mem.dg_mesh_bytes");
            assert_eq!(gauge.map(|(_, v)| *v), Some(hi as u64));
        });
    }

    /// Nodal values of a function of physical position.
    fn field_values(geo: &MeshGeometry, f: impl Fn([f64; 3]) -> f64) -> Vec<f64> {
        geo.pos.iter().map(|&p| f(p)).collect()
    }

    /// Extract the face values of an element's nodal field.
    fn face_values<D: Dim>(re: &RefElement, dim: usize, vals: &[f64], f: usize) -> Vec<f64> {
        re.face_nodes(dim, f).iter().map(|&i| vals[i]).collect()
    }

    /// Core consistency check: for every local face, the neighbor's data
    /// taken through the face's [`FaceOp`] must equal my own
    /// trace of a globally continuous linear field — across conforming,
    /// rotated, 2:1 and ghost faces alike.
    fn check_trace_continuity<D: Dim>(
        conn: forust::connectivity::Connectivity<D>,
        level: u8,
        degree: usize,
        ranks: usize,
        refine: impl Fn(TreeId, &Octant<D>) -> bool + Sync,
    ) {
        check_trace_continuity_mapped(
            conn,
            level,
            degree,
            ranks,
            refine,
            |c| Box::new(LatticeMap::new(c)),
            |p| 1.5 + 2.0 * p[0] - 3.0 * p[1] + 0.5 * p[2],
        );
    }

    fn check_trace_continuity_mapped<D: Dim>(
        conn: forust::connectivity::Connectivity<D>,
        level: u8,
        degree: usize,
        ranks: usize,
        refine: impl Fn(TreeId, &Octant<D>) -> bool + Sync,
        map_of: impl Fn(
                Arc<forust::connectivity::Connectivity<D>>,
            ) -> Box<dyn forust_geom::Mapping<D> + Send + Sync>
            + Sync,
        field: impl Fn([f64; 3]) -> f64 + Sync,
    ) {
        run_spmd(ranks, |comm| {
            let conn = Arc::new(conn.clone());
            let mut forest = Forest::<D>::new_uniform(Arc::clone(&conn), comm, level);
            forest.refine(comm, true, |t, o| refine(t, o));
            forest.balance(comm, BalanceType::Full);
            forest.partition(comm);
            let mesh = DgMesh::build(&forest, comm, degree);
            let map = map_of(Arc::clone(&conn));
            let geo = MeshGeometry::build(&mesh, &*map);
            let dim = D::DIM as usize;
            let re = &mesh.re;
            let npe = re.nodes_per_elem(dim);

            let u = field_values(&geo, &field);
            let ghost_u = mesh.exchange_element_data(comm, &u, npe);
            let elem_vals = |r: ElemRef| -> Vec<f64> {
                match r {
                    ElemRef::Local(i) => u[i as usize * npe..(i as usize + 1) * npe].to_vec(),
                    ElemRef::Ghost(i) => ghost_u[i as usize * npe..(i as usize + 1) * npe].to_vec(),
                }
            };

            let npf = re.nodes_per_face(dim);
            let apply = |op: &FaceOp, x: &[f64]| -> Vec<f64> {
                let (mut scratch, mut out) = (vec![0.0; npf], vec![0.0; npf]);
                op.apply(&re.face_tables, dim, x, &mut scratch, &mut out);
                out
            };
            let mut checked_conf = 0;
            let mut checked_coarse = 0;
            let mut checked_fine = 0;
            for e in 0..mesh.num_elements() {
                let mine = &u[e * npe..(e + 1) * npe];
                for f in 0..D::FACES {
                    let my_face = face_values::<D>(re, dim, mine, f);
                    match mesh.face(e, f) {
                        FaceConn::Boundary => {}
                        FaceConn::Conforming { nbr, nbr_face, op } => {
                            let nv = elem_vals(*nbr);
                            let their = face_values::<D>(re, dim, &nv, *nbr_face);
                            let got = apply(op, &their);
                            for (a, b) in got.iter().zip(&my_face) {
                                assert!((a - b).abs() < 1e-9, "conforming: {a} vs {b}");
                            }
                            checked_conf += 1;
                        }
                        FaceConn::CoarseNbr { nbr, nbr_face, op } => {
                            let nv = elem_vals(*nbr);
                            let their = face_values::<D>(re, dim, &nv, *nbr_face);
                            let got = apply(op, &their);
                            for (a, b) in got.iter().zip(&my_face) {
                                assert!((a - b).abs() < 1e-9, "coarse nbr: {a} vs {b}");
                            }
                            checked_coarse += 1;
                        }
                        FaceConn::FineNbrs { subs } => {
                            assert_eq!(subs.len(), D::FACE_CHILDREN);
                            for sub in subs {
                                let fine_vals = elem_vals(sub.nbr);
                                let their = face_values::<D>(re, dim, &fine_vals, sub.nbr_face);
                                let mine_at_fine = apply(&sub.op, &my_face);
                                for (a, b) in mine_at_fine.iter().zip(&their) {
                                    assert!((a - b).abs() < 1e-9, "fine sub: {a} vs {b}");
                                }
                            }
                            checked_fine += 1;
                        }
                    }
                }
            }
            // Make sure the interesting cases actually occurred somewhere.
            let totals = (
                comm.allreduce_sum_u64(checked_conf),
                comm.allreduce_sum_u64(checked_coarse),
                comm.allreduce_sum_u64(checked_fine),
            );
            if comm.rank() == 0 {
                assert!(totals.0 > 0, "no conforming faces tested");
            }
            totals
        });
    }

    #[test]
    fn trace_continuity_uniform_cube() {
        check_trace_continuity(builders::unit3d(), 1, 3, 2, |_, _| false);
    }

    #[test]
    fn trace_continuity_adapted_cube() {
        check_trace_continuity(builders::unit3d(), 1, 2, 3, |_, o| {
            o.level < 2 && o.x == 0 && o.y == 0 && o.z == 0
        });
    }

    #[test]
    fn trace_continuity_rotcubes_adapted() {
        check_trace_continuity(builders::rotcubes6(), 1, 2, 2, |t, o| {
            t == 0 && o.level < 2 && o.y == 0 && o.z == 0
        });
    }

    #[test]
    fn trace_continuity_moebius_2d() {
        // The Möbius strip needs its smooth embedding (the flat lattice
        // blend is degenerate on the twisted closure tree); a linear field
        // of the embedded coordinates is continuous across the seam.
        check_trace_continuity_mapped(
            builders::moebius(),
            1,
            4,
            2,
            |t, o| t == 4 && o.level < 3 && o.x + o.len() == forust::dim::D2::root_len(),
            |_c| Box::new(forust_geom::MoebiusMap::new()),
            // The squared transverse strip coordinate: w^2 = z^2 +
            // (sqrt(x^2+y^2) - R)^2 is quadratic in each tree's reference
            // coordinates (so interpolation is exact) and globally
            // continuous across the twisted seam (even in w).
            |p| {
                let r = (p[0] * p[0] + p[1] * p[1]).sqrt() - 2.0;
                p[2] * p[2] + r * r
            },
        );
    }

    #[test]
    fn trace_continuity_brick_2d_adapted() {
        check_trace_continuity(builders::brick2d(2, 2, false, false), 1, 1, 4, |t, o| {
            t == 0 && o.level < 3 && o.child_id() == 3
        });
    }

    #[test]
    fn geometry_volume_of_unit_cube() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::unit3d());
            let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            forest.refine(comm, false, |_, o| o.child_id() == 0);
            forest.balance(comm, BalanceType::Full);
            let mesh = DgMesh::build(&forest, comm, 3);
            let map = LatticeMap::new(conn);
            let geo = MeshGeometry::build(&mesh, &map);
            let re = &mesh.re;
            let np = re.np;
            let mut vol = 0.0;
            for e in 0..mesh.num_elements() {
                let det = geo.elem_det(e);
                let mut i = 0;
                for k in 0..np {
                    for j in 0..np {
                        for ii in 0..np {
                            vol += re.weights[ii] * re.weights[j] * re.weights[k] * det[i];
                            i += 1;
                        }
                    }
                }
            }
            let total = comm.allreduce_sum_f64(vol);
            assert!((total - 1.0).abs() < 1e-12, "unit cube volume {total}");
        });
    }

    #[test]
    fn geometry_normals_unit_cube() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::unit3d());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let mesh = DgMesh::build(&forest, comm, 2);
            let map = LatticeMap::new(conn);
            let geo = MeshGeometry::build(&mesh, &map);
            for e in 0..mesh.num_elements() {
                for f in 0..6 {
                    let fg = geo.face(e, f, 6);
                    let want = match f {
                        0 => [-1.0, 0.0, 0.0],
                        1 => [1.0, 0.0, 0.0],
                        2 => [0.0, -1.0, 0.0],
                        3 => [0.0, 1.0, 0.0],
                        4 => [0.0, 0.0, -1.0],
                        _ => [0.0, 0.0, 1.0],
                    };
                    for n in &fg.normal {
                        for d in 0..3 {
                            assert!((n[d] - want[d]).abs() < 1e-12);
                        }
                    }
                    // Face area: each element face is (1/2)^2 physical,
                    // sJ integrates with reference weights summing to 4.
                    let area: f64 = fg
                        .sj
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            let (a, b) = (i % 3, i / 3);
                            mesh.re.weights[a] * mesh.re.weights[b] * s
                        })
                        .sum();
                    assert!((area - 0.25).abs() < 1e-12, "face area {area}");
                }
            }
        });
    }

    #[test]
    fn face_index_arithmetic() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::brick2d(2, 1, false, false));
            let forest = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            let mesh = DgMesh::build(&forest, comm, 1);
            assert_eq!(mesh.num_elements(), 8);
            // `face` must address the right slot for every element.
            for e in 0..8 {
                for f in 0..4 {
                    let _ = mesh.face(e, f);
                }
            }
        });
    }
}
