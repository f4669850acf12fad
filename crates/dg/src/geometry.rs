//! Metric terms of a dG mesh under a smooth geometry mapping.
//!
//! Per element and node: the inverse Jacobian (for chain-rule gradients)
//! and the Jacobian determinant (for volume quadrature); per face node:
//! the outward unit normal and surface Jacobian from Nanson's formula.
//! For 2:1 faces the fine sub-face points of the mortar get their own
//! normals and surface Jacobians so both sides integrate the identical
//! physical flux (discrete conservation across the mortar).

use forust::dim::Dim;
use forust_geom::{octant_ref_coords, Mapping};

use crate::mesh::{DgMesh, FaceConn};

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

/// Geometry of one face's quadrature points.
#[derive(Debug, Clone)]
pub struct FaceGeo {
    /// Outward unit normal per face node.
    pub normal: Vec<[f64; 3]>,
    /// Surface Jacobian per face node (physical area per unit reference
    /// face area of *this element's* face).
    pub sj: Vec<f64>,
    /// For a coarse 2:1 face: geometry at the fine mortar points of each
    /// sub-face (in the fine neighbor's face-lattice order, the receiver
    /// side of `FineSub::op`).
    pub subs: Vec<SubGeo>,
}

/// Geometry at one fine sub-face's mortar points, as seen from the coarse
/// element. Surface Jacobians are per unit *fine-face* reference area (the
/// `2^-(d-1)` sub-face scale is folded in), so they match what the fine
/// element computes on its own face — both mortar sides integrate the
/// identical physical flux.
#[derive(Debug, Clone)]
pub struct SubGeo {
    /// Outward unit normal (of the coarse element) per mortar point.
    pub normal: Vec<[f64; 3]>,
    /// Surface Jacobian per mortar point, fine-face reference measure.
    pub sj: Vec<f64>,
    /// Physical position per mortar point.
    pub pos: Vec<[f64; 3]>,
}

/// All metric terms of one mesh + mapping combination.
#[derive(Debug)]
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

impl MeshGeometry {
    /// Compute metric terms for every local element of `mesh` under `map`.
    pub fn build<D: Dim>(mesh: &DgMesh<D>, map: &dyn Mapping<D>) -> Self {
        let re = &mesh.re;
        let dim = D::DIM as usize;
        let npe = re.nodes_per_elem(dim);
        let np = re.np;
        let nel = mesh.elements.len();
        let big = D::root_len() as f64;

        let mut pos = Vec::with_capacity(nel * npe);
        let mut inv_jac = Vec::with_capacity(nel * npe);
        let mut det_jac = Vec::with_capacity(nel * npe);
        let mut faces = Vec::with_capacity(nel * D::FACES);

        // Jacobian of x(xi) at a reference point of an octant: tree map
        // jacobian times the octant scaling h/(2*big) per axis.
        let jac_at = |t: forust::connectivity::TreeId,
                      o: &forust::octant::Octant<D>,
                      frac: [f64; 3]|
         -> ([[f64; 3]; 3], [f64; 3]) {
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

        for &(t, o) in &mesh.elements {
            // Volume nodes.
            let nk = if dim == 3 { np } else { 1 };
            for k in 0..nk {
                for jj in 0..np {
                    for i in 0..np {
                        let frac = [
                            0.5 * (re.nodes[i] + 1.0),
                            0.5 * (re.nodes[jj] + 1.0),
                            if dim == 3 {
                                0.5 * (re.nodes[k] + 1.0)
                            } else {
                                0.0
                            },
                        ];
                        let (j, x) = jac_at(t, &o, frac);
                        let (inv, det) = invert3(j);
                        pos.push(x);
                        inv_jac.push(inv);
                        // Tree frames may be left-handed in physical space
                        // (the cubed-sphere caps are placed by corner
                        // positions); the volume measure is |det|.
                        det_jac.push(det.abs());
                    }
                }
            }
        }

        // Face geometry, including fine mortar points.
        let nanson = |j: [[f64; 3]; 3], f: usize| -> ([f64; 3], f64) {
            let (inv, det) = invert3(j);
            let axis = f / 2;
            let sgn = if f % 2 == 1 { 1.0 } else { -1.0 };
            // Nanson: a = |det| J^{-T} n_ref. The absolute value corrects
            // the orientation for left-handed tree frames, so `a` always
            // points outward through face f.
            let a = [
                sgn * det.abs() * inv[axis][0],
                sgn * det.abs() * inv[axis][1],
                sgn * det.abs() * inv[axis][2],
            ];
            let sj = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
            ([a[0] / sj, a[1] / sj, a[2] / sj], sj)
        };
        // Reference fractions of face node (a, b) of face f.
        let face_frac = |f: usize, a: usize, b: usize| -> [f64; 3] {
            let axis = f / 2;
            let tang: Vec<usize> = (0..dim).filter(|&d| d != axis).collect();
            let mut frac = [0.0; 3];
            frac[axis] = if f % 2 == 1 { 1.0 } else { 0.0 };
            frac[tang[0]] = 0.5 * (re.nodes[a] + 1.0);
            if dim == 3 {
                frac[tang[1]] = 0.5 * (re.nodes[b] + 1.0);
            }
            frac
        };

        for (e, &(t, o)) in mesh.elements.iter().enumerate() {
            for f in 0..D::FACES {
                let nb = if dim == 3 { np } else { 1 };
                let mut normal = Vec::with_capacity(re.nodes_per_face(dim));
                let mut sj = Vec::with_capacity(re.nodes_per_face(dim));
                for b in 0..nb {
                    for a in 0..np {
                        let (j, _) = jac_at(t, &o, face_frac(f, a, b));
                        let (n, s) = nanson(j, f);
                        normal.push(n);
                        sj.push(s);
                    }
                }
                // Fine mortar points: same face of MY element, but at the
                // reference positions of each fine sub-face.
                let mut subs = Vec::new();
                if let FaceConn::FineNbrs { subs: fs } = mesh.face(e, f) {
                    // Mortar metric: evaluate MY jacobian at the fine
                    // sub-face node points (their reference fractions in
                    // my element recovered from the fine octant geometry),
                    // so both mortar sides integrate identical physical
                    // fluxes.
                    let sub_scale = 0.5f64.powi(dim as i32 - 1);
                    for sub in fs {
                        let fine = match sub.nbr {
                            crate::mesh::ElemRef::Local(i) => mesh.elements[i as usize],
                            crate::mesh::ElemRef::Ghost(i) => mesh.ghost.ghosts[i as usize],
                        };
                        let mut ns = Vec::with_capacity(re.nodes_per_face(dim));
                        let mut ss = Vec::with_capacity(re.nodes_per_face(dim));
                        let mut ps = Vec::with_capacity(re.nodes_per_face(dim));
                        // Fine face node physical position equals a point
                        // on my face; find its reference fraction in MY
                        // element by comparing integer geometry.
                        for b in 0..nb {
                            for a in 0..np {
                                let frac = my_frac_of_fine_point::<D>(
                                    re,
                                    dim,
                                    &o,
                                    f,
                                    &fine.1,
                                    sub.nbr_face,
                                    a,
                                    b,
                                    t,
                                    fine.0,
                                    mesh,
                                );
                                let (j, x) = jac_at(t, &o, frac);
                                let (n, s) = nanson(j, f);
                                ns.push(n);
                                ss.push(s * sub_scale);
                                ps.push(x);
                            }
                        }
                        subs.push(SubGeo {
                            normal: ns,
                            sj: ss,
                            pos: ps,
                        });
                    }
                }
                faces.push(FaceGeo { normal, sj, subs });
            }
        }

        MeshGeometry {
            pos,
            inv_jac,
            det_jac,
            faces,
            npe,
        }
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

/// Reference fraction, within coarse octant `o` (tree `t`), of face node
/// `(a, b)` of the fine neighbor's face across the 2:1 face `f`.
#[allow(clippy::too_many_arguments)]
fn my_frac_of_fine_point<D: Dim>(
    re: &crate::element::RefElement,
    dim: usize,
    o: &forust::octant::Octant<D>,
    _f: usize,
    fine: &forust::octant::Octant<D>,
    fine_face: usize,
    a: usize,
    b: usize,
    t: forust::connectivity::TreeId,
    fine_tree: forust::connectivity::TreeId,
    mesh: &DgMesh<D>,
) -> [f64; 3] {
    // Fine face node position in the fine element's tree coordinates.
    let hf = fine.len() as f64;
    let axisf = fine_face / 2;
    let tangf: Vec<usize> = (0..dim).filter(|&d| d != axisf).collect();
    let cf = fine.coords();
    let mut x = [cf[0] as f64, cf[1] as f64, cf[2] as f64];
    x[axisf] += if fine_face % 2 == 1 { hf } else { 0.0 };
    x[tangf[0]] += 0.5 * (re.nodes[a] + 1.0) * hf;
    if dim == 3 {
        x[tangf[1]] += 0.5 * (re.nodes[b] + 1.0) * hf;
    }
    // Map into MY tree's coordinates if the fine neighbor is across a
    // macro-face.
    let x_my = if fine_tree == t {
        x
    } else {
        // The transform from the fine tree into mine is the transform
        // across the fine element's face toward us.
        let tr = mesh
            .conn
            .face_transform(fine_tree, fine_face)
            .expect("fine neighbor across a macro-face must have a transform");
        let mut out = [0.0; 3];
        for d in 0..3 {
            out[tr.perm[d]] = tr.sign[d] as f64 * x[d] + tr.offset[d] as f64;
        }
        out
    };
    let h = o.len() as f64;
    let c = o.coords();
    [
        ((x_my[0] - c[0] as f64) / h).clamp(0.0, 1.0),
        ((x_my[1] - c[1] as f64) / h).clamp(0.0, 1.0),
        if dim == 3 {
            ((x_my[2] - c[2] as f64) / h).clamp(0.0, 1.0)
        } else {
            0.0
        },
    ]
}
