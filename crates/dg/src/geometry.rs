//! Metric terms of a dG mesh under a smooth geometry mapping.
//!
//! Per element and node: the inverse Jacobian (for chain-rule gradients)
//! and the Jacobian determinant (for volume quadrature); per face node:
//! the outward unit normal and surface Jacobian from Nanson's formula.
//! For 2:1 faces the fine sub-face points of the mortar get their own
//! normals and surface Jacobians so both sides integrate the identical
//! physical flux (discrete conservation across the mortar).
//!
//! The metric of an element is computed once and lives as long as the
//! element does on this rank: [`MeshGeometry::rebuild`] moves it across
//! an adapt cycle and evaluates the map only for elements that are new.

use forust::connectivity::TreeId;
use forust::dim::Dim;
use forust::octant::Octant;
use forust_comm::{max_nan, Communicator};
use forust_geom::{octant_ref_coords, Mapping};

use crate::mesh::{tangential, DgMesh, ElemRef, FaceConn, FineSub};
use crate::real::{refill, Real};

/// 3x3 inverse and determinant (2D maps embed with a unit z column).
fn invert3(j: [[f64; 3]; 3]) -> ([[f64; 3]; 3], f64) {
    let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    assert!(det.abs() > 1e-300, "singular element mapping");
    let mut inv = [[0.0; 3]; 3];
    inv[0][0] = (j[1][1] * j[2][2] - j[1][2] * j[2][1]) / det;
    inv[0][1] = (j[0][2] * j[2][1] - j[0][1] * j[2][2]) / det;
    inv[0][2] = (j[0][1] * j[1][2] - j[0][2] * j[1][1]) / det;
    inv[1][0] = (j[1][2] * j[2][0] - j[1][0] * j[2][2]) / det;
    inv[1][1] = (j[0][0] * j[2][2] - j[0][2] * j[2][0]) / det;
    inv[1][2] = (j[0][2] * j[1][0] - j[0][0] * j[1][2]) / det;
    inv[2][0] = (j[1][0] * j[2][1] - j[1][1] * j[2][0]) / det;
    inv[2][1] = (j[0][1] * j[2][0] - j[0][0] * j[2][1]) / det;
    inv[2][2] = (j[0][0] * j[1][1] - j[0][1] * j[1][0]) / det;
    (inv, det)
}

/// Geometry of one face's quadrature points, in scalar tier `R`: the
/// metric is evaluated at `f64`; the f32 device tier reads a demoted copy
/// ([`FaceGeo::demote_into`]).
#[derive(Debug, Clone, Default)]
pub struct FaceGeo<R = f64> {
    /// Outward unit normal per face node.
    pub normal: Vec<[R; 3]>,
    /// Surface Jacobian per face node (physical area per unit reference
    /// face area of *this element's* face).
    pub sj: Vec<R>,
    /// For a coarse 2:1 face: geometry at the fine mortar points of each
    /// sub-face (in the fine neighbor's face-lattice order, the receiver
    /// side of `FineSub::op`).
    pub subs: Vec<SubGeo<R>>,
}

/// Geometry at one fine sub-face's mortar points, as seen from the coarse
/// element. Surface Jacobians are per unit *fine-face* reference area (the
/// `2^-(d-1)` sub-face scale is folded in), so they match what the fine
/// element computes on its own face — both mortar sides integrate the
/// identical physical flux.
#[derive(Debug, Clone, Default)]
pub struct SubGeo<R = f64> {
    /// Outward unit normal (of the coarse element) per mortar point.
    pub normal: Vec<[R; 3]>,
    /// Surface Jacobian per mortar point, fine-face reference measure.
    pub sj: Vec<R>,
    /// Physical position per mortar point, in the precision the map is
    /// evaluated in (empty in a demoted copy: no kernel reads it).
    pub pos: Vec<[f64; 3]>,
}

impl FaceGeo {
    /// Copy this face's geometry into `out` in scalar tier `R`, reusing
    /// `out`'s allocations; `true` if the face's own normals or surface
    /// Jacobians had to allocate. (The mortar `subs` follow the mesh's 2:1
    /// faces, here as in [`MeshGeometry::rebuild`]: they are re-created
    /// where a face became one.)
    pub fn demote_into<R: Real>(&self, out: &mut FaceGeo<R>) -> bool {
        let point = |n: &[f64; 3]| n.map(R::from_f64);
        let scalar = |&x: &f64| R::from_f64(x);
        let grew =
            refill(&mut out.normal, &self.normal, point) | refill(&mut out.sj, &self.sj, scalar);
        out.subs.resize_with(self.subs.len(), SubGeo::default);
        for (sub, o) in self.subs.iter().zip(&mut out.subs) {
            refill(&mut o.normal, &sub.normal, point);
            refill(&mut o.sj, &sub.sj, scalar);
        }
        grew
    }
}

/// All metric terms of one mesh + mapping combination.
#[derive(Debug, Default)]
pub struct MeshGeometry {
    /// Physical node positions, `num_elem * npe` entries.
    pub pos: Vec<[f64; 3]>,
    /// Inverse Jacobian per volume node (row-major `dxi_i/dx_j`).
    pub inv_jac: Vec<[[f64; 3]; 3]>,
    /// Jacobian determinant per volume node.
    pub det_jac: Vec<f64>,
    /// Per element and face.
    pub faces: Vec<FaceGeo>,
    /// Nodes per element (copied for indexing convenience).
    pub npe: usize,
}

/// What [`MeshGeometry::rebuild`] kept: the old↔new element index map.
#[derive(Debug)]
pub struct Carry {
    /// Per new local element, the old local index its metric was moved
    /// from; `None` for an element with no predecessor on this rank
    /// (refined, coarsened or newly arrived), which was evaluated.
    pub src: Vec<Option<u32>>,
}

impl Carry {
    /// Number of elements whose metric was moved, not evaluated.
    pub fn carried(&self) -> usize {
        self.src.iter().flatten().count()
    }
}

impl MeshGeometry {
    /// Compute metric terms for every local element of `mesh` under `map`.
    pub fn build<D: Dim>(mesh: &DgMesh<D>, map: &dyn Mapping<D>) -> Self {
        let mut geo = MeshGeometry::default();
        geo.rebuild(&[], mesh, map);
        geo
    }

    /// Turn the geometry of the SFC-sorted `old_elements` into that of
    /// `mesh` under the same `map`. Both lists are walked in lockstep:
    /// the volume block and face metric of every `(tree, octant)` present
    /// in both are moved, everything else — refined, coarsened, newly
    /// arrived — is evaluated. Mortar `subs` are kept while a face stays
    /// `FineNbrs`, dropped when it stops being one, evaluated when it
    /// becomes one. Bit-identical to a build from nothing.
    pub fn rebuild<D: Dim>(
        &mut self,
        old_elements: &[(TreeId, Octant<D>)],
        mesh: &DgMesh<D>,
        map: &dyn Mapping<D>,
    ) -> Carry {
        let re = &mesh.re;
        let dim = D::DIM as usize;
        let npe = re.nodes_per_elem(dim);
        let npf = re.nodes_per_face(dim);
        let np = re.np;
        let nel = mesh.elements.len();
        let big = D::root_len() as f64;
        let face_idx = re.face_node_table(dim);

        let mut old = std::mem::take(self);
        let old_nodes = old_elements.len() * npe;
        assert_eq!(old.det_jac.len(), old_nodes, "not this geometry's elements");
        let mut pos = Vec::with_capacity(nel * npe);
        let mut inv_jac = Vec::with_capacity(nel * npe);
        let mut det_jac = Vec::with_capacity(nel * npe);
        let mut faces: Vec<FaceGeo> = Vec::with_capacity(nel * D::FACES);
        let mut src = Vec::with_capacity(nel);

        // Jacobian of x(xi) at a reference point of an octant: tree map
        // jacobian times the octant scaling h/(2*big) per axis.
        let jac_at = |t: TreeId, o: &Octant<D>, frac: [f64; 3]| -> ([[f64; 3]; 3], [f64; 3]) {
            let xi = octant_ref_coords(o, frac);
            let jt = map.jacobian(t, xi);
            let scale = o.len() as f64 / (2.0 * big);
            let mut j = [[0.0; 3]; 3];
            for i in 0..3 {
                for d in 0..dim {
                    j[i][d] = jt[i][d] * scale;
                }
            }
            if dim == 2 {
                // 2D elements may be embedded surfaces (e.g. the Möbius
                // strip): complete the frame with the unit surface normal
                // so det = surface area element and the inverse is the
                // tangential pseudo-inverse.
                let t1 = [j[0][0], j[1][0], j[2][0]];
                let t2 = [j[0][1], j[1][1], j[2][1]];
                let n = [
                    t1[1] * t2[2] - t1[2] * t2[1],
                    t1[2] * t2[0] - t1[0] * t2[2],
                    t1[0] * t2[1] - t1[1] * t2[0],
                ];
                let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
                for i in 0..3 {
                    j[i][2] = n[i] / len;
                }
            }
            (j, map.map(t, xi))
        };
        // Nanson: a = |det| J^{-T} n_ref. The absolute value corrects the
        // orientation for left-handed tree frames, so `a` always points
        // outward through face f.
        let nanson = |inv: &[[f64; 3]; 3], det_abs: f64, f: usize| -> ([f64; 3], f64) {
            let axis = f / 2;
            let sgn = if f % 2 == 1 { 1.0 } else { -1.0 };
            let a = [
                sgn * det_abs * inv[axis][0],
                sgn * det_abs * inv[axis][1],
                sgn * det_abs * inv[axis][2],
            ];
            let sj = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
            ([a[0] / sj, a[1] / sj, a[2] / sj], sj)
        };
        // Mortar metric: MY jacobian at the fine sub-face's node points
        // (their reference fractions in my element recovered from the
        // integer octant geometry), so both mortar sides integrate
        // identical physical fluxes.
        let sub_scale = 0.5f64.powi(dim as i32 - 1);
        let sub_geo = |me: &(TreeId, Octant<D>), f: usize, sub: &FineSub| -> SubGeo {
            let fine = match sub.nbr {
                ElemRef::Local(i) => mesh.elements[i as usize],
                ElemRef::Ghost(i) => mesh.ghost.ghosts[i as usize],
            };
            let mut g = SubGeo {
                normal: Vec::with_capacity(npf),
                sj: Vec::with_capacity(npf),
                pos: Vec::with_capacity(npf),
            };
            for ab in 0..npf {
                let frac = my_frac_of_fine_point(re, me, &fine, sub.nbr_face, ab, mesh);
                let (j, x) = jac_at(me.0, &me.1, frac);
                let (inv, det) = invert3(j);
                let (n, s) = nanson(&inv, det.abs(), f);
                g.normal.push(n);
                g.sj.push(s * sub_scale);
                g.pos.push(x);
            }
            g
        };

        let mut i = 0;
        for (e, me) in mesh.elements.iter().enumerate() {
            while i < old_elements.len() && old_elements[i] < *me {
                i += 1;
            }
            if old_elements.get(i) == Some(me) {
                let nodes = i * npe..(i + 1) * npe;
                pos.extend_from_slice(&old.pos[nodes.clone()]);
                inv_jac.extend_from_slice(&old.inv_jac[nodes.clone()]);
                det_jac.extend_from_slice(&old.det_jac[nodes]);
                let mine = &mut old.faces[i * D::FACES..(i + 1) * D::FACES];
                faces.extend(mine.iter_mut().map(std::mem::take));
                src.push(Some(i as u32));
            } else {
                for v in 0..npe {
                    let lattice = [v % np, v / np % np, v / (np * np)];
                    let frac = lattice.map(|l| 0.5 * (re.nodes[l] + 1.0));
                    let (j, x) = jac_at(me.0, &me.1, frac);
                    let (inv, det) = invert3(j);
                    pos.push(x);
                    inv_jac.push(inv);
                    // Tree frames may be left-handed in physical space
                    // (the cubed-sphere caps are placed by corner
                    // positions); the volume measure is |det|.
                    det_jac.push(det.abs());
                }
                // LGL end nodes are exactly ±1: every face node is a
                // volume node, its metric already evaluated above.
                for (f, idx) in face_idx.iter().enumerate() {
                    let at = |&v: &usize| nanson(&inv_jac[e * npe + v], det_jac[e * npe + v], f);
                    let (normal, sj) = idx.iter().map(at).unzip();
                    let subs = Vec::new();
                    faces.push(FaceGeo { normal, sj, subs });
                }
                src.push(None);
            }
            for f in 0..D::FACES {
                let fg = &mut faces[e * D::FACES + f];
                match mesh.face(e, f) {
                    FaceConn::FineNbrs { subs } if fg.subs.is_empty() => {
                        fg.subs = subs.iter().map(|sub| sub_geo(me, f, sub)).collect();
                    }
                    FaceConn::FineNbrs { .. } => {}
                    _ => fg.subs = Vec::new(),
                }
            }
        }

        *self = MeshGeometry {
            pos,
            inv_jac,
            det_jac,
            faces,
            npe,
        };
        let carry = Carry { src };
        let carried = carry.carried();
        forust_obs::counter_add("geometry.elements_carried", carried as u64);
        forust_obs::counter_add("geometry.elements_evaluated", (nel - carried) as u64);
        forust_obs::gauge_set("mem.geometry_bytes", self.heap_bytes() as u64);
        carry
    }

    /// Heap bytes of the metric: volume blocks, face normals and surface
    /// Jacobians, mortar sub-faces. Published as gauge
    /// `mem.geometry_bytes` at every (re)build.
    pub fn heap_bytes(&self) -> usize {
        let point = size_of::<[f64; 3]>() + size_of::<f64>();
        let per_face = |fg: &FaceGeo| {
            let subs: usize = fg.subs.iter().map(|s| s.sj.len()).sum();
            fg.sj.len() * point
                + fg.subs.len() * size_of::<SubGeo>()
                + subs * (point + size_of::<[f64; 3]>())
        };
        self.det_jac.len() * (point + size_of::<[[f64; 3]; 3]>())
            + self.faces.len() * size_of::<FaceGeo>()
            + self.faces.iter().map(per_face).sum::<usize>()
    }

    /// The stable explicit step on this mesh: `cfl · 2 / (λ (N+1)²)`,
    /// where `λ` is the global maximum over every node of
    /// `speed(e, v, inv)` — the wave speed the physics reads at node `v` of
    /// element `e` through its inverse Jacobian `inv` — floored at
    /// `1e-30`. A `NaN` speed on any rank makes the step `NaN` on every
    /// rank. Collective: one max-allreduce.
    pub fn cfl_dt(
        &self,
        comm: &impl Communicator,
        degree: usize,
        cfl: f64,
        mut speed: impl FnMut(usize, usize, &[[f64; 3]; 3]) -> f64,
    ) -> f64 {
        let mut lam_max: f64 = 1e-30;
        for (e, inv) in self.inv_jac.chunks_exact(self.npe).enumerate() {
            for (v, inv_v) in inv.iter().enumerate() {
                lam_max = max_nan(lam_max, speed(e, v, inv_v));
            }
        }
        let global = comm.allreduce_max_f64(lam_max);
        let n = degree as f64;
        cfl * 2.0 / (global * (n + 1.0) * (n + 1.0))
    }

    /// Metric slice helpers.
    pub fn elem_det(&self, e: usize) -> &[f64] {
        &self.det_jac[e * self.npe..(e + 1) * self.npe]
    }

    /// Inverse Jacobians of element `e`.
    pub fn elem_inv(&self, e: usize) -> &[[[f64; 3]; 3]] {
        &self.inv_jac[e * self.npe..(e + 1) * self.npe]
    }

    /// Physical node positions of element `e`.
    pub fn elem_pos(&self, e: usize) -> &[[f64; 3]] {
        &self.pos[e * self.npe..(e + 1) * self.npe]
    }

    /// Face geometry of element `e`, face `f`.
    pub fn face(&self, e: usize, f: usize, nfaces: usize) -> &FaceGeo {
        &self.faces[e * nfaces + f]
    }
}

/// Reference fraction, within the coarse element `me`, of face node `ab`
/// (face-lattice index) of the `fine` neighbor's face `fine_face` across
/// a 2:1 face.
fn my_frac_of_fine_point<D: Dim>(
    re: &crate::element::RefElement,
    me: &(TreeId, Octant<D>),
    fine: &(TreeId, Octant<D>),
    fine_face: usize,
    ab: usize,
    mesh: &DgMesh<D>,
) -> [f64; 3] {
    // Fine face node position in the fine element's tree coordinates.
    let hf = fine.1.len() as f64;
    let axisf = fine_face / 2;
    let tangf = tangential::<D>(fine_face);
    let cf = fine.1.coords();
    let mut x = [cf[0] as f64, cf[1] as f64, cf[2] as f64];
    x[axisf] += if fine_face % 2 == 1 { hf } else { 0.0 };
    x[tangf[0]] += 0.5 * (re.nodes[ab % re.np] + 1.0) * hf;
    if D::DIM == 3 {
        x[tangf[1]] += 0.5 * (re.nodes[ab / re.np] + 1.0) * hf;
    }
    // Map into MY tree's coordinates if the fine neighbor is across a
    // macro-face.
    let x_my = if fine.0 == me.0 {
        x
    } else {
        // The transform from the fine tree into mine is the transform
        // across the fine element's face toward us.
        let tr = mesh
            .conn
            .face_transform(fine.0, fine_face)
            .expect("fine neighbor across a macro-face must have a transform");
        let mut out = [0.0; 3];
        for d in 0..3 {
            out[tr.perm[d]] = tr.sign[d] as f64 * x[d] + tr.offset[d] as f64;
        }
        out
    };
    let h = me.1.len() as f64;
    let c = me.1.coords();
    [
        ((x_my[0] - c[0] as f64) / h).clamp(0.0, 1.0),
        ((x_my[1] - c[1] as f64) / h).clamp(0.0, 1.0),
        if D::DIM == 3 {
            ((x_my[2] - c[2] as f64) / h).clamp(0.0, 1.0)
        } else {
            0.0
        },
    ]
}
