//! Continuous-Galerkin support: hanging-node interpolation.
//!
//! `forust`'s `Nodes` records each hanging node's parents and its rational
//! position within the coarse entity (a numerator over `2N`). Here those
//! positions are turned into actual interpolation weights by evaluating the
//! coarse entity's Lagrange basis — on the LGL points, matching the element
//! basis — at the hanging node's position (paper §II-E: "nodal values on
//! half-size faces or edges ... are constrained to interpolate neighboring
//! unknowns associated with full-size faces or edges").

use forust::nodes::{NodeStatus, Nodes};

use crate::legendre::{barycentric_weights, lagrange_eval, lgl_nodes};

/// Precomputed hanging-node constraint weights for one `Nodes` numbering.
#[derive(Debug, Clone)]
pub struct HangingInterp {
    /// For each hanging node: `(node, parents-and-weights)`.
    constraints: Vec<(u32, Vec<(u32, f64)>)>,
    /// `4w` for every weight, in constraint order, when all of them are
    /// quarter-integers (degree 1); `None` otherwise. Decided once here,
    /// so [`HangingInterp::collect_add_i128`] converts no weight per call.
    quarters: Option<Vec<i128>>,
}

impl HangingInterp {
    /// Build the weights for all hanging nodes of a numbering.
    pub fn build(nodes: &Nodes) -> Self {
        let n = nodes.degree;
        let x = lgl_nodes(n);
        let bary = barycentric_weights(&x);
        // 1D weights for each of the 2N+1 half-lattice positions: position
        // r/(2N) of the coarse entity maps to coarse reference coordinate
        // of the fine LGL point it represents: r = q*N + i refers to fine
        // node i of half q, at coarse coordinate (xi_i + (2q - 1)) / 2.
        let w1d: Vec<Vec<f64>> = (0..=2 * n)
            .map(|r| {
                let (q, i) = if r <= n { (0, r) } else { (1, r - n) };
                let zeta = 0.5 * (x[i] + (2.0 * q as f64 - 1.0));
                lagrange_eval(&x, &bary, zeta)
            })
            .collect();

        let mut constraints = Vec::new();
        for (i, s) in nodes.status.iter().enumerate() {
            if let NodeStatus::Hanging {
                parents,
                rel,
                entity_dim,
            } = s
            {
                let wa = &w1d[rel[0] as usize];
                let mut pw: Vec<(u32, f64)> = Vec::with_capacity(parents.len());
                match entity_dim {
                    1 => {
                        assert_eq!(parents.len(), n + 1);
                        for (j, &p) in parents.iter().enumerate() {
                            if wa[j].abs() > 1e-14 {
                                pw.push((p, wa[j]));
                            }
                        }
                    }
                    2 => {
                        assert_eq!(parents.len(), (n + 1) * (n + 1));
                        let wb = &w1d[rel[1] as usize];
                        for jb in 0..=n {
                            for ja in 0..=n {
                                let w = wa[ja] * wb[jb];
                                if w.abs() > 1e-14 {
                                    pw.push((parents[jb * (n + 1) + ja], w));
                                }
                            }
                        }
                    }
                    _ => unreachable!("entity_dim is 1 or 2"),
                }
                constraints.push((i as u32, pw));
            }
        }
        let weights = || {
            constraints
                .iter()
                .flat_map(|(_, pw)| pw.iter().map(|&(_, w)| w))
        };
        let quarters = weights()
            .all(|w| (w * 4.0).round() / 4.0 == w)
            .then(|| weights().map(|w| (w * 4.0) as i128).collect());
        HangingInterp {
            constraints,
            quarters,
        }
    }

    /// Number of constrained (hanging) nodes.
    pub fn num_hanging(&self) -> usize {
        self.constraints.len()
    }

    /// Iterate over `(hanging node, [(parent, weight)])`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[(u32, f64)])> {
        self.constraints.iter().map(|(i, pw)| (*i, pw.as_slice()))
    }

    /// Set every hanging value by interpolating its parents (after the
    /// independent dofs have been updated): `u_h = sum w_j u_parent_j`.
    pub fn distribute(&self, values: &mut [f64]) {
        for (i, pw) in &self.constraints {
            let v: f64 = pw.iter().map(|&(p, w)| w * values[p as usize]).sum();
            values[*i as usize] = v;
        }
    }

    /// Transpose: accumulate each hanging entry into its parents with the
    /// constraint weights and zero the hanging entry (residual assembly).
    pub fn collect_add(&self, values: &mut [f64]) {
        for (i, pw) in &self.constraints {
            let v = values[*i as usize];
            if v != 0.0 {
                for &(p, w) in pw {
                    values[p as usize] += w * v;
                }
            }
            values[*i as usize] = 0.0;
        }
    }

    /// `true` when every constraint weight is an exact quarter-integer
    /// (`k/4`) — the degree-1 case, where edge hangs weigh `1/2` and face
    /// hangs `1/4`. Only then is [`HangingInterp::collect_add_i128`]
    /// available.
    pub fn is_dyadic_quarters(&self) -> bool {
        self.quarters.is_some()
    }

    /// [`HangingInterp::collect_add`] over a fixed-point field
    /// (`forust_comm::repro`) of `components` equal blocks, all in one
    /// pass over the constraints: weights are applied as exact integer
    /// operations `(v * 4w) >> 2`, so the hanging collect commits no
    /// rounding at all and stays bitwise independent of the partition.
    /// The field must have been encoded with `shift >= 2` so the low two
    /// bits are free for the quarter division.
    ///
    /// Panics, in every build, if any weight is not a quarter-integer
    /// (degree > 1): callers gate on [`HangingInterp::is_dyadic_quarters`].
    pub fn collect_add_i128(&self, values: &mut [i128], components: usize) {
        let quarters = self
            .quarters
            .as_deref()
            .expect("collect_add_i128 needs quarter-integer hanging weights (degree 1)");
        assert_eq!(values.len() % components, 0, "ragged component blocks");
        let stride = values.len() / components;
        let mut nums = quarters;
        for (i, pw) in &self.constraints {
            let (mine, rest) = nums.split_at(pw.len());
            nums = rest;
            for c in 0..components {
                let block = &mut values[c * stride..(c + 1) * stride];
                let v = std::mem::take(&mut block[*i as usize]);
                if v != 0 {
                    for (&(p, _), &num) in pw.iter().zip(mine) {
                        block[p as usize] += (v * num) >> 2;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust::dim::{D2, D3};
    use forust::forest::{BalanceType, Forest};
    use forust_comm::run_spmd;
    use std::sync::Arc;

    #[test]
    fn trilinear_hanging_weights_are_half() {
        run_spmd(1, |comm| {
            let mut f = Forest::<D2>::new_uniform(Arc::new(builders::unit2d()), comm, 1);
            f.refine(comm, true, |_, o| o.level < 2 && o.x == 0 && o.y == 0);
            f.balance(comm, BalanceType::Full);
            let ghost = f.ghost(comm);
            let nodes = f.nodes(comm, &ghost, 1);
            let interp = HangingInterp::build(&nodes);
            assert_eq!(interp.num_hanging(), 2);
            for (_, pw) in interp.iter() {
                assert_eq!(pw.len(), 2);
                for &(_, w) in pw {
                    assert!((w - 0.5).abs() < 1e-14);
                }
            }
        });
    }

    #[test]
    fn distribute_reproduces_linear_functions() {
        // A globally linear field set on independent nodes must be exactly
        // reproduced at hanging nodes by the constraint.
        run_spmd(2, |comm| {
            let mut f = Forest::<D2>::new_uniform(Arc::new(builders::unit2d()), comm, 1);
            f.refine(comm, true, |_, o| o.level < 3 && o.x == 0 && o.y == 0);
            f.balance(comm, BalanceType::Full);
            let ghost = f.ghost(comm);
            let nodes = f.nodes(comm, &ghost, 2);
            let interp = HangingInterp::build(&nodes);
            // u = 3x + 2y - 1 in the keys' scaled lattice coordinates.
            // The constraint interpolates at the coarse entity's LGL
            // points, so it reproduces polynomials of degree N in the node
            // positions. At degrees 1 and 2 the LGL points are equispaced,
            // so a key is its node's position up to scale and u is linear
            // in space: the constraint reproduces it exactly.
            let nval = |key: (u32, [i32; 3])| 3.0 * key.1[0] as f64 + 2.0 * key.1[1] as f64 - 1.0;
            let mut values: Vec<f64> = nodes.keys.iter().map(|&k| nval(k)).collect();
            let expect = values.clone();
            // Corrupt hanging entries, then distribute.
            for (i, pw) in interp.iter() {
                assert!(!pw.is_empty());
                values[i as usize] = f64::NAN;
            }
            interp.distribute(&mut values);
            for (i, (v, e)) in values.iter().zip(&expect).enumerate() {
                let tol = 1e-12 * e.abs().max(1.0);
                assert!((v - e).abs() < tol, "node {i}: {v} vs {e}");
            }
        });
    }

    /// The one-pass four-component integer collect agrees bitwise with the
    /// `f64` collect of each component, on a 3D mesh whose hanging nodes
    /// weigh `1/2` (edges) and `1/4` (faces).
    #[test]
    fn integer_collect_matches_f64_collect_at_degree_1() {
        run_spmd(1, |comm| {
            let mut f = Forest::<D3>::new_uniform(Arc::new(builders::unit3d()), comm, 1);
            f.refine(comm, true, |_, o| {
                o.level < 2 && o.x == 0 && o.y == 0 && o.z == 0
            });
            f.balance(comm, BalanceType::Full);
            let ghost = f.ghost(comm);
            let nodes = f.nodes(comm, &ghost, 1);
            let interp = HangingInterp::build(&nodes);
            assert!(interp.is_dyadic_quarters());
            let weights: Vec<f64> = interp
                .iter()
                .flat_map(|(_, pw)| pw.iter().map(|p| p.1))
                .collect();
            assert!(
                weights.contains(&0.5) && weights.contains(&0.25),
                "{weights:?}"
            );
            let nn = nodes.num_local();
            let vals: Vec<f64> = (0..4 * nn)
                .map(|i| (i as f64 - 3.0 * nn as f64) * 0.8125)
                .collect();
            let fx = forust_comm::FixedPoint::for_global_max(
                vals.iter().fold(0.0f64, |m, &v| m.max(v.abs())),
                2,
            )
            .unwrap();
            let mut as_f64 = vals.clone();
            for block in as_f64.chunks_exact_mut(nn) {
                interp.collect_add(block);
            }
            let mut as_q: Vec<i128> = vals.iter().map(|&v| fx.encode(v)).collect();
            interp.collect_add_i128(&mut as_q, 4);
            for (q, v) in as_q.iter().zip(&as_f64) {
                // The inputs are dyadic, so both paths are exact and agree
                // bitwise after decoding.
                assert_eq!(fx.decode(*q).to_bits(), v.to_bits());
            }
        });
    }

    /// At degree 3 the weights are not quarter-integers: the integer
    /// collect refuses in release builds too, instead of rounding `4w`.
    #[test]
    #[should_panic(expected = "quarter-integer hanging weights")]
    fn integer_collect_panics_on_non_quarter_weights() {
        run_spmd(1, |comm| {
            let mut f = Forest::<D2>::new_uniform(Arc::new(builders::unit2d()), comm, 1);
            f.refine(comm, true, |_, o| o.level < 2 && o.x == 0 && o.y == 0);
            f.balance(comm, BalanceType::Full);
            let ghost = f.ghost(comm);
            let nodes = f.nodes(comm, &ghost, 3);
            let interp = HangingInterp::build(&nodes);
            assert!(!interp.is_dyadic_quarters());
            let mut values = vec![4i128; nodes.num_local()];
            interp.collect_add_i128(&mut values, 1);
        });
    }

    #[test]
    fn collect_is_transpose_of_distribute() {
        run_spmd(1, |comm| {
            let mut f = Forest::<D2>::new_uniform(Arc::new(builders::unit2d()), comm, 1);
            f.refine(comm, true, |_, o| o.level < 2 && o.x == 0 && o.y == 0);
            f.balance(comm, BalanceType::Full);
            let ghost = f.ghost(comm);
            let nodes = f.nodes(comm, &ghost, 3);
            let interp = HangingInterp::build(&nodes);
            let nn = nodes.num_local();
            // <distribute(e_p), e_h> == <e_p, collect(e_h)> for unit vectors.
            for (h, pw) in interp.iter() {
                for &(p, w) in pw {
                    // distribute of unit vector at p.
                    let mut u = vec![0.0; nn];
                    u[p as usize] = 1.0;
                    interp.distribute(&mut u);
                    assert!((u[h as usize] - w).abs() < 1e-13);
                    // collect of unit vector at h.
                    let mut v = vec![0.0; nn];
                    v[h as usize] = 1.0;
                    interp.collect_add(&mut v);
                    assert!((v[p as usize] - w).abs() < 1e-13);
                    assert_eq!(v[h as usize], 0.0);
                }
            }
        });
    }
}
