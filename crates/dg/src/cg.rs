//! Continuous-Galerkin support: hanging-node interpolation.
//!
//! `forust`'s `Nodes` records each hanging node's parents and its rational
//! position within the coarse entity (a numerator over `2N`). Here those
//! positions are turned into actual interpolation weights by evaluating the
//! coarse entity's Lagrange basis — on the LGL points, matching the element
//! basis — at the hanging node's position (paper §II-E: "nodal values on
//! half-size faces or edges ... are constrained to interpolate neighboring
//! unknowns associated with full-size faces or edges").

use forust::dim::Dim;
use forust::nodes::{NodeStatus, Nodes};

use crate::legendre::{barycentric_weights, lagrange_eval, lgl_nodes};

/// Precomputed hanging-node constraint weights for one `Nodes` numbering.
#[derive(Debug, Clone)]
pub struct HangingInterp {
    /// For each hanging node: `(node, parents-and-weights)`.
    constraints: Vec<(u32, Vec<(u32, f64)>)>,
}

impl HangingInterp {
    /// Build the weights for all hanging nodes of a numbering.
    pub fn build<D: Dim>(nodes: &Nodes<D>) -> Self {
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
        HangingInterp { constraints }
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
        self.constraints
            .iter()
            .flat_map(|(_, pw)| pw.iter())
            .all(|&(_, w)| (w * 4.0).round() / 4.0 == w)
    }

    /// [`HangingInterp::collect_add`] over a fixed-point field
    /// (`forust_comm::repro`): weights are applied as exact integer
    /// operations `(v * round(4w)) >> 2`, so the hanging collect commits
    /// no rounding at all and stays bitwise independent of the partition.
    /// The field must have been encoded with `shift >= 2` so the low two
    /// bits are free for the quarter division.
    ///
    /// Panics if any weight is not a quarter-integer (degree > 1): callers
    /// gate on [`HangingInterp::is_dyadic_quarters`].
    pub fn collect_add_i128(&self, values: &mut [i128]) {
        for (i, pw) in &self.constraints {
            let v = values[*i as usize];
            if v != 0 {
                for &(p, w) in pw {
                    let num = (w * 4.0).round() as i128;
                    debug_assert!(
                        num as f64 * 0.25 == w,
                        "collect_add_i128 needs quarter-integer weights, got {w}"
                    );
                    values[p as usize] += (v * num) >> 2;
                }
            }
            values[*i as usize] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust::dim::D2;
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
            // Evaluate u = 3x + 2y - 1 at every node: keys are the scaled
            // LATTICE positions; for the test pick the lattice-linear
            // function (linear in lattice coords equals linear in space
            // only for the lattice function, which suffices since degree
            // >= 1 reproduces linears... using lattice coordinates).
            let nval = |key: (u32, [i32; 3])| 3.0 * key.1[0] as f64 + 2.0 * key.1[1] as f64 - 1.0;
            // Hmm: hanging nodes interpolate in LGL coordinates, which
            // reproduce *polynomials* of the coarse entity exactly; a
            // function linear in lattice coordinates is linear in space,
            // so it is reproduced whenever the key encodes the position —
            // true for degree 1 and 2 (lattice == physical up to scale).
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

    #[test]
    fn integer_collect_matches_f64_collect_at_degree_1() {
        run_spmd(1, |comm| {
            let mut f = Forest::<D2>::new_uniform(Arc::new(builders::unit2d()), comm, 1);
            f.refine(comm, true, |_, o| o.level < 2 && o.x == 0 && o.y == 0);
            f.balance(comm, BalanceType::Full);
            let ghost = f.ghost(comm);
            let nodes = f.nodes(comm, &ghost, 1);
            let interp = HangingInterp::build(&nodes);
            assert!(interp.is_dyadic_quarters());
            assert!(interp.num_hanging() > 0);
            let nn = nodes.num_local();
            let vals: Vec<f64> = (0..nn).map(|i| (i as f64 - 3.0) * 0.8125).collect();
            let fx = forust_comm::FixedPoint::for_global_max(
                vals.iter().fold(0.0f64, |m, &v| m.max(v.abs())),
                2,
            )
            .unwrap();
            let mut as_f64 = vals.clone();
            interp.collect_add(&mut as_f64);
            let mut as_q: Vec<i128> = vals.iter().map(|&v| fx.encode(v)).collect();
            interp.collect_add_i128(&mut as_q);
            for (q, v) in as_q.iter().zip(&as_f64) {
                // The inputs are dyadic, so both paths are exact and agree
                // bitwise after decoding.
                assert_eq!(fx.decode(*q).to_bits(), v.to_bits());
            }
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
