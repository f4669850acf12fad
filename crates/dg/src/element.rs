//! The reference element: tensor-product LGL basis with sum-factorized
//! operator application, face extraction, and 2:1 mortar operators.

use crate::faceop::FaceTables;
use crate::legendre::{
    barycentric_weights, differentiation_matrix, lagrange_eval, lgl_nodes, lgl_weights,
};
use crate::matrix::Matrix;

/// Precomputed degree-`N` reference element data shared by all elements.
#[derive(Debug, Clone)]
pub struct RefElement {
    /// Polynomial degree `N`.
    pub degree: usize,
    /// Points per direction, `N + 1`.
    pub np: usize,
    /// LGL nodes in `[-1, 1]`.
    pub nodes: Vec<f64>,
    /// LGL quadrature weights.
    pub weights: Vec<f64>,
    /// Barycentric weights of the node set.
    pub bary: Vec<f64>,
    /// 1D differentiation matrix.
    pub diff: Matrix,
    /// Interpolation from the parent interval to its two halves:
    /// `interp_half[c]` maps parent nodal values to the child-`c` nodes
    /// (`c = 0`: `[-1, 0]`, `c = 1`: `[0, 1]`).
    pub interp_half: [Matrix; 2],
    /// What every [`FaceOp`](crate::faceop::FaceOp) of a mesh of this
    /// degree indexes: the face-lattice permutations of all inter-tree
    /// orientations and `interp_half` with its transposes.
    pub face_tables: FaceTables<f64>,
}

impl RefElement {
    /// Build the reference element of the given degree.
    pub fn new(degree: usize) -> Self {
        let nodes = lgl_nodes(degree);
        let weights = lgl_weights(&nodes);
        let bary = barycentric_weights(&nodes);
        let np = degree + 1;
        let diff = Matrix::from_vec(np, np, differentiation_matrix(&nodes));
        let mut halves = [Matrix::zeros(np, np), Matrix::zeros(np, np)];
        for (c, half) in halves.iter_mut().enumerate() {
            for (i, &xi) in nodes.iter().enumerate() {
                // Child node xi mapped into the parent interval.
                let xp = 0.5 * xi + (c as f64 - 0.5);
                let row = lagrange_eval(&nodes, &bary, xp);
                half.data[i * np..(i + 1) * np].copy_from_slice(&row);
            }
        }
        RefElement {
            degree,
            np,
            nodes,
            weights,
            bary,
            diff,
            face_tables: FaceTables::new(np, &halves),
            interp_half: halves,
        }
    }

    /// Heap bytes of the element's tables.
    pub fn heap_bytes(&self) -> usize {
        let np = self.np;
        (3 * np + 3 * np * np) * size_of::<f64>() + self.face_tables.heap_bytes()
    }

    /// Number of volume nodes in `dim` dimensions.
    pub fn nodes_per_elem(&self, dim: usize) -> usize {
        self.np.pow(dim as u32)
    }

    /// Number of face nodes in `dim` dimensions.
    pub fn nodes_per_face(&self, dim: usize) -> usize {
        self.np.pow(dim as u32 - 1)
    }

    /// Apply a 1D operator (`np_out x np` matrix) along `axis` of a tensor
    /// field with `fields` interleaved components, x-fastest storage.
    ///
    /// Sum factorization: cost `O(np^(d+1))` per element instead of
    /// `O(np^(2d))`.
    ///
    /// **Test oracle.** This straightforward strided implementation is
    /// retained as the bitwise reference for the allocation-free,
    /// degree-specialized engine in [`crate::kernels`] (precedent:
    /// `morton_reference`, `balance_ripple`). Hot loops should call
    /// [`crate::kernels::apply_axis_into`] instead.
    pub fn apply_axis(&self, op: &Matrix, input: &[f64], dim: usize, axis: usize) -> Vec<f64> {
        let np = self.np;
        assert_eq!(op.cols, np);
        let npo = op.rows;
        let n_in = np.pow(dim as u32);
        assert_eq!(input.len(), n_in);
        let mut shape_in = [1usize; 3];
        let mut shape_out = [1usize; 3];
        for d in 0..dim {
            shape_in[d] = np;
            shape_out[d] = np;
        }
        shape_out[axis] = npo;
        let mut out = vec![0.0; shape_out[0] * shape_out[1] * shape_out[2]];
        let stride_in = [1, shape_in[0], shape_in[0] * shape_in[1]];
        let stride_out = [1, shape_out[0], shape_out[0] * shape_out[1]];
        for k in 0..shape_out[2] {
            for j in 0..shape_out[1] {
                for i in 0..shape_out[0] {
                    let oidx = [i, j, k];
                    let mut acc = 0.0;
                    let a = oidx[axis];
                    for q in 0..np {
                        let mut iidx = oidx;
                        iidx[axis] = q;
                        let src = iidx[0] * stride_in[0]
                            + iidx[1] * stride_in[1]
                            + iidx[2] * stride_in[2];
                        acc += op.data[a * np + q] * input[src];
                    }
                    out[oidx[0] * stride_out[0]
                        + oidx[1] * stride_out[1]
                        + oidx[2] * stride_out[2]] = acc;
                }
            }
        }
        out
    }

    /// Reference-space gradient of a nodal field: `dim` vectors of nodal
    /// derivatives along each reference axis.
    ///
    /// Allocating oracle form; hot loops use
    /// [`gradient_into`](Self::gradient_into).
    pub fn gradient(&self, input: &[f64], dim: usize) -> Vec<Vec<f64>> {
        (0..dim)
            .map(|a| self.apply_axis(&self.diff, input, dim, a))
            .collect()
    }

    /// Reference-space gradient into a caller-owned `dim * npe` panel
    /// (layout `[axis][node]`), via the specialized kernel engine.
    /// Bitwise identical to [`gradient`](Self::gradient).
    pub fn gradient_into(&self, input: &[f64], dim: usize, grad: &mut [f64]) {
        crate::kernels::batched_gradient_into(&self.diff, self.np, dim, input, 1, grad);
    }

    /// Volume node index of lattice point `(i, j, k)` (x-fastest).
    #[inline]
    pub fn node_index(&self, dim: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(dim == 3 || k == 0);
        (k * self.np + j) * if dim >= 2 { self.np } else { 1 } + i
    }

    /// Volume node indices of the nodes on face `f`, in face-lattice order
    /// (lower tangential axis fastest). Matches the `forust` face
    /// conventions: faces `-x, +x, -y, +y, -z, +z`.
    pub fn face_nodes(&self, dim: usize, f: usize) -> Vec<usize> {
        let np = self.np;
        let axis = f / 2;
        let fixed = if f % 2 == 1 { np - 1 } else { 0 };
        let tang: Vec<usize> = (0..dim).filter(|&a| a != axis).collect();
        let mut out = Vec::with_capacity(self.nodes_per_face(dim));
        let nb = if dim == 3 { np } else { 1 };
        for b in 0..nb {
            for a in 0..np {
                let mut idx = [0usize; 3];
                idx[axis] = fixed;
                idx[tang[0]] = a;
                if dim == 3 {
                    idx[tang[1]] = b;
                }
                out.push(self.node_index(dim, idx[0], idx[1], idx[2]));
            }
        }
        out
    }

    /// [`face_nodes`](Self::face_nodes) of every face, indexed by face.
    pub fn face_node_table(&self, dim: usize) -> Vec<Vec<usize>> {
        (0..2 * dim).map(|f| self.face_nodes(dim, f)).collect()
    }

    /// Tensor-product LGL quadrature weights on the `dim`-dimensional
    /// lattice (x-fastest, lowest axis multiplied first): `dim = 3` gives
    /// the volume weights of a hexahedron, `dim = 2` those of its faces.
    pub fn tensor_weights(&self, dim: usize) -> Vec<f64> {
        let mut w = self.weights.clone();
        for _ in 1..dim {
            w = self
                .weights
                .iter()
                .flat_map(|&hi| w.iter().map(move |&lo| lo * hi))
                .collect();
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_half_reproduces_polynomials() {
        let re = RefElement::new(4);
        // u(x) = x^3 - 2x: interpolating to the halves must be exact.
        let u: Vec<f64> = re.nodes.iter().map(|&x| x.powi(3) - 2.0 * x).collect();
        for c in 0..2 {
            let v = re.interp_half[c].matvec(&u);
            for (i, &xi) in re.nodes.iter().enumerate() {
                let xp = 0.5 * xi + (c as f64 - 0.5);
                let want = xp.powi(3) - 2.0 * xp;
                assert!((v[i] - want).abs() < 1e-12, "c={c} i={i}");
            }
        }
    }

    #[test]
    fn apply_axis_differentiates_each_direction() {
        let re = RefElement::new(3);
        let np = re.np;
        // f(x,y,z) = x^2 * y + z
        let mut u = vec![0.0; np * np * np];
        for k in 0..np {
            for j in 0..np {
                for i in 0..np {
                    u[(k * np + j) * np + i] =
                        re.nodes[i] * re.nodes[i] * re.nodes[j] + re.nodes[k];
                }
            }
        }
        let g = re.gradient(&u, 3);
        for k in 0..np {
            for j in 0..np {
                for i in 0..np {
                    let idx = (k * np + j) * np + i;
                    let (x, y) = (re.nodes[i], re.nodes[j]);
                    assert!((g[0][idx] - 2.0 * x * y).abs() < 1e-12);
                    assert!((g[1][idx] - x * x).abs() < 1e-12);
                    assert!((g[2][idx] - 1.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn face_nodes_shapes() {
        let re = RefElement::new(2);
        for f in 0..6 {
            let fnodes = re.face_nodes(3, f);
            assert_eq!(fnodes.len(), 9);
            // All indices distinct and in range.
            let mut s = fnodes.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 9);
            assert!(s.iter().all(|&i| i < 27));
        }
        // 2D faces have np nodes.
        for f in 0..4 {
            assert_eq!(re.face_nodes(2, f).len(), 3);
        }
    }

    #[test]
    fn face_nodes_orientation_convention() {
        // Face 0 (-x): lattice order must be y fastest, then z.
        let re = RefElement::new(1);
        let f0 = re.face_nodes(3, 0);
        // Nodes: (0,0,0), (0,1,0), (0,0,1), (0,1,1) in volume indices.
        assert_eq!(f0, vec![0, 2, 4, 6]);
        let f5 = re.face_nodes(3, 5); // +z: x fastest then y, at k=1
        assert_eq!(f5, vec![4, 5, 6, 7]);
    }

    #[test]
    fn face_node_positions_match_corner_tables() {
        // The face-lattice corner order must match forust's FACE_CORNERS
        // z-order so cross-tree alignment works.
        use forust::dim::{Dim, D3};
        let re = RefElement::new(1);
        for f in 0..6 {
            let fnodes = re.face_nodes(3, f);
            for (pos, &c) in D3::FACE_CORNERS[f].iter().enumerate() {
                // Corner c has volume index with bits (x, y, z).
                let vi = (c & 1) + ((c >> 1) & 1) * 2 + ((c >> 2) & 1) * 4;
                assert_eq!(fnodes[pos], vi, "face {f} position {pos}");
            }
        }
    }
}
