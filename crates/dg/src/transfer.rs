//! Solution transfer between meshes across adaptation.
//!
//! Every time the paper's solvers adapt, "all solution fields are
//! interpolated between meshes and redistributed according to the mesh
//! partition" (§IV-A). `Refine`, `Coarsen` and `Balance` are local, so the
//! old and new forests cover the same geometric region on each rank; the
//! transfer walks both SFC-sorted leaf sequences in lockstep:
//!
//! - an unchanged element copies its values;
//! - a refined element *interpolates* its polynomial to each descendant
//!   (exact, any number of levels);
//! - a coarsened element receives the *L2 projection* of its descendants
//!   (conservative in reference measure, optimal in L2).
//!
//! Redistribution after `Partition` is handled separately by
//! [`forust::forest::Forest::partition_with_payload`], which moves each
//! element's payload with its octant.

use forust::dim::Dim;
use forust::forest::Forest;
use forust::octant::Octant;

use crate::element::RefElement;
use crate::legendre::lagrange_eval;
use crate::matrix::Matrix;

/// 1D matrix evaluating the coarse element's basis at the fine element's
/// node positions along one axis.
fn eval_1d<D: Dim>(re: &RefElement, coarse: &Octant<D>, fine: &Octant<D>, axis: usize) -> Matrix {
    let np = re.np;
    let hc = coarse.len() as f64;
    let hf = fine.len() as f64;
    let off = (fine.coords()[axis] - coarse.coords()[axis]) as f64;
    let mut m = Matrix::zeros(np, np);
    for (i, &xi) in re.nodes.iter().enumerate() {
        // Fine node position within the coarse reference interval.
        let x = 2.0 * (off + 0.5 * (xi + 1.0) * hf) / hc - 1.0;
        let row = lagrange_eval(&re.nodes, &re.bary, x);
        m.data[i * np..(i + 1) * np].copy_from_slice(&row);
    }
    m
}

/// Interpolate a coarse element's nodal values to a descendant, in
/// place: `values` is transformed to the descendant's nodal values using
/// `tmp` (same length) as the ping-pong buffer, with zero allocations.
/// Each axis sweep goes through the specialized kernel engine — bitwise
/// identical to the `apply_axis` oracle path.
pub fn interpolate_to_descendant_into<D: Dim>(
    re: &RefElement,
    coarse: &Octant<D>,
    fine: &Octant<D>,
    values: &mut [f64],
    tmp: &mut [f64],
) {
    debug_assert!(coarse.contains(fine));
    let dim = D::DIM as usize;
    for axis in 0..dim {
        let e = eval_1d(re, coarse, fine, axis);
        crate::kernels::apply_axis_into(&e, re.np, dim, axis, values, tmp);
        values.copy_from_slice(tmp);
    }
}

/// Accumulate the L2-projection contribution of one descendant's values
/// onto the ancestor's coefficients (`out` must start zeroed; divide by
/// nothing afterwards — the mass weighting is folded in per axis).
pub fn project_descendant_add<D: Dim>(
    re: &RefElement,
    coarse: &Octant<D>,
    fine: &Octant<D>,
    fine_values: &[f64],
    out: &mut [f64],
) {
    debug_assert!(coarse.contains(fine));
    let dim = D::DIM as usize;
    let ratio = fine.len() as f64 / coarse.len() as f64;
    let mut tmp = fine_values.to_vec();
    let mut pong = vec![0.0; fine_values.len()];
    for axis in 0..dim {
        // P = W^{-1} E^T W * ratio along this axis.
        let e = eval_1d(re, coarse, fine, axis);
        let np = re.np;
        let mut p = Matrix::zeros(np, np);
        for i in 0..np {
            for j in 0..np {
                p.data[i * np + j] = ratio * e.data[j * np + i] * re.weights[j] / re.weights[i];
            }
        }
        crate::kernels::apply_axis_into(&p, np, dim, axis, &tmp, &mut pong);
        std::mem::swap(&mut tmp, &mut pong);
    }
    for (o, v) in out.iter_mut().zip(&tmp) {
        *o += v;
    }
}

/// Transfer per-element nodal fields from `old` to `new`.
///
/// Both forests must have identical per-rank geometric coverage (only
/// local refinement/coarsening/balancing in between — no partitioning).
/// `old_data` holds `chunk = npe * ncomp` values per old element; the
/// result holds the same per new element, components stored consecutively
/// per element.
pub fn transfer_fields<D: Dim>(
    re: &RefElement,
    old: &Forest<D>,
    old_data: &[f64],
    new: &Forest<D>,
    ncomp: usize,
) -> Vec<f64> {
    let dim = D::DIM as usize;
    let npe = re.nodes_per_elem(dim);
    let chunk = npe * ncomp;
    assert_eq!(old_data.len(), old.num_local() * chunk);
    let mut out = Vec::with_capacity(new.num_local() * chunk);
    // Ping-pong scratch shared by every refined element's interpolation.
    let mut scratch = vec![0.0; npe];
    let mut pong = vec![0.0; npe];

    // Per-tree element offsets into the flat data arrays.
    let ntrees = old.conn.num_trees();
    let mut old_off = 0usize;
    for t in 0..ntrees as u32 {
        let olds = old.tree(t);
        let news = new.tree(t);
        assert_eq!(
            olds.iter().map(Octant::volume_atoms).sum::<u128>(),
            news.iter().map(Octant::volume_atoms).sum::<u128>(),
            "tree {t}: old and new forests cover different regions \
             (partitioned in between?)"
        );
        let mut i = 0usize;
        for b in news {
            // Skip old leaves strictly before b.
            while i < olds.len()
                && olds[i].last_descendant(D::MAX_LEVEL) < b.first_descendant(D::MAX_LEVEL)
            {
                i += 1;
            }
            assert!(i < olds.len(), "tree {t}: no old leaf overlaps {b:?}");
            let a = olds[i];
            let a_data = |j: usize| &old_data[(old_off + j) * chunk..(old_off + j + 1) * chunk];
            if a == *b {
                out.extend_from_slice(a_data(i));
                i += 1;
            } else if a.is_ancestor_of(b) {
                // Refined: interpolate; keep `i` (more descendants follow).
                let src = a_data(i);
                for c in 0..ncomp {
                    scratch.copy_from_slice(&src[c * npe..(c + 1) * npe]);
                    interpolate_to_descendant_into(re, &a, b, &mut scratch, &mut pong);
                    out.extend_from_slice(&scratch);
                }
                if a.last_descendant(D::MAX_LEVEL) <= b.last_descendant(D::MAX_LEVEL) {
                    i += 1;
                }
            } else {
                assert!(
                    b.is_ancestor_of(&a),
                    "tree {t}: leaves {a:?} and {b:?} do not nest"
                );
                // Coarsened: project all old descendants of b.
                let mut acc = vec![0.0; chunk];
                while i < olds.len() && b.contains(&olds[i]) {
                    let src = a_data(i);
                    for c in 0..ncomp {
                        project_descendant_add(
                            re,
                            b,
                            &olds[i],
                            &src[c * npe..(c + 1) * npe],
                            &mut acc[c * npe..(c + 1) * npe],
                        );
                    }
                    i += 1;
                }
                out.extend_from_slice(&acc);
            }
        }
        old_off += olds.len();
    }
    out
}

/// Reference-measure integral of one component over the rank's elements
/// (diagnostic used by conservation tests).
pub fn reference_integral<D: Dim>(
    re: &RefElement,
    forest: &Forest<D>,
    data: &[f64],
    ncomp: usize,
    comp: usize,
) -> f64 {
    let dim = D::DIM as usize;
    let npe = re.nodes_per_elem(dim);
    let chunk = npe * ncomp;
    let np = re.np;
    let mut total = 0.0;
    for (e, (_, o)) in forest.iter_local().enumerate() {
        let vals = &data[e * chunk + comp * npe..e * chunk + (comp + 1) * npe];
        let scale = (o.len() as f64 / D::root_len() as f64).powi(dim as i32);
        let nk = if dim == 3 { np } else { 1 };
        let mut idx = 0;
        for k in 0..nk {
            for j in 0..np {
                for i in 0..np {
                    let w =
                        re.weights[i] * re.weights[j] * if dim == 3 { re.weights[k] } else { 1.0 };
                    total += w * scale * vals[idx];
                    idx += 1;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust::dim::{D2, D3};
    use forust::forest::BalanceType;
    use forust_comm::{run_spmd, Communicator};
    use std::sync::Arc;

    /// Nodal values of a degree<=N polynomial in tree-reference space.
    fn poly_field<D: Dim>(re: &RefElement, f: &Forest<D>) -> Vec<f64> {
        let dim = D::DIM as usize;
        let np = re.np;
        let big = D::root_len() as f64;
        let mut out = Vec::new();
        for (_, o) in f.iter_local() {
            let h = o.len() as f64;
            let nk = if dim == 3 { np } else { 1 };
            for k in 0..nk {
                for j in 0..np {
                    for i in 0..np {
                        let x = (o.x as f64 + 0.5 * (re.nodes[i] + 1.0) * h) / big;
                        let y = (o.y as f64 + 0.5 * (re.nodes[j] + 1.0) * h) / big;
                        let z = if dim == 3 {
                            (o.z as f64 + 0.5 * (re.nodes[k] + 1.0) * h) / big
                        } else {
                            0.0
                        };
                        out.push(2.0 * x * x - 3.0 * x * y + z + 0.5);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn refine_transfer_is_exact_for_polynomials() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::unit2d());
            let old = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            let re = RefElement::new(3);
            let data = poly_field(&re, &old);
            let mut new = old.clone();
            new.refine(comm, true, |_, o| o.level < 3 && o.x == 0);
            let moved = transfer_fields(&re, &old, &data, &new, 1);
            let expect = poly_field(&re, &new);
            for (a, b) in moved.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        });
    }

    #[test]
    fn coarsen_transfer_is_exact_for_polynomials() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::unit3d());
            let old = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 2);
            // Degree 3 > polynomial degree 2: the quadrature projection is
            // exact (integrand degree 5 == 2N - 1).
            let re = RefElement::new(3);
            let data = poly_field(&re, &old);
            let mut new = old.clone();
            new.coarsen(comm, true, |_, _| true);
            assert!(new.num_global() < old.num_global());
            let moved = transfer_fields(&re, &old, &data, &new, 1);
            // Projection of a representable polynomial is exact.
            let expect = poly_field(&re, &new);
            for (a, b) in moved.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-11, "{a} vs {b}");
            }
        });
    }

    #[test]
    fn coarsen_transfer_conserves_mass() {
        run_spmd(2, |comm| {
            let conn = Arc::new(builders::unit2d());
            let mut old = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 2);
            old.refine(comm, false, |_, o| o.child_id() == 1);
            let re = RefElement::new(3);
            // A rough non-polynomial field.
            let npe = re.nodes_per_elem(2);
            let data: Vec<f64> = (0..old.num_local() * npe)
                .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0)
                .collect();
            let mass_old = reference_integral(&re, &old, &data, 1, 0);
            let mut new = old.clone();
            new.coarsen(comm, true, |_, _| true);
            let moved = transfer_fields(&re, &old, &data, &new, 1);
            let mass_new = reference_integral(&re, &new, &moved, 1, 0);
            let (t_old, t_new) = (
                comm.allreduce_sum_f64(mass_old),
                comm.allreduce_sum_f64(mass_new),
            );
            assert!(
                (t_old - t_new).abs() < 1e-12 * t_old.abs().max(1.0),
                "mass {t_old} vs {t_new}"
            );
        });
    }

    #[test]
    fn mixed_adapt_roundtrip_identity_on_unchanged() {
        run_spmd(3, |comm| {
            let conn = Arc::new(builders::moebius());
            let mut old = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 2);
            old.balance(comm, BalanceType::Full);
            let re = RefElement::new(3);
            let data = poly_field(&re, &old);
            // Refine one tree, coarsen another, balance.
            let mut new = old.clone();
            new.refine(comm, false, |t, _| t == 1);
            new.coarsen(comm, false, |t, _| t == 3);
            new.balance(comm, BalanceType::Full);
            let moved = transfer_fields(&re, &old, &data, &new, 1);
            let expect = poly_field(&re, &new);
            for (a, b) in moved.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-11, "{a} vs {b}");
            }
        });
    }

    #[test]
    fn multicomponent_layout_preserved() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::unit2d());
            let old = Forest::<D2>::new_uniform(Arc::clone(&conn), comm, 1);
            let re = RefElement::new(1);
            let npe = 4;
            // Component c has constant value c+1.
            let mut data = Vec::new();
            for _ in 0..old.num_local() {
                for c in 0..3 {
                    data.extend(std::iter::repeat_n((c + 1) as f64, npe));
                }
            }
            let mut new = old.clone();
            new.refine(comm, false, |_, _| true);
            let moved = transfer_fields(&re, &old, &data, &new, 3);
            assert_eq!(moved.len(), new.num_local() * npe * 3);
            for e in 0..new.num_local() {
                for c in 0..3 {
                    for i in 0..npe {
                        let v = moved[e * npe * 3 + c * npe + i];
                        assert!((v - (c + 1) as f64).abs() < 1e-13);
                    }
                }
            }
        });
    }
}
