//! Seeded fuzz equivalence: the allocation-free, degree-specialized
//! kernel engine must be **bitwise** identical to the retained
//! `RefElement::apply_axis` oracle for every degree 1–8 (covering both
//! the const-generic instances np = 4/7/8 and the runtime fallback),
//! every axis, dimension 2 and 3, and several field counts.

use forust_dg::kernels;
use forust_dg::{Matrix, RefElement};

/// SplitMix64: tiny seeded PRNG (no external crates).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn fill(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: index {i} differs ({g} vs {w})"
        );
    }
}

#[test]
fn apply_axis_into_matches_oracle_square_ops() {
    let mut rng = SplitMix64(0x5eed_0001);
    for degree in 1..=8usize {
        let re = RefElement::new(degree);
        let np = re.np;
        for dim in [2usize, 3] {
            let input = rng.fill(np.pow(dim as u32));
            for axis in 0..dim {
                let want = re.apply_axis(&re.diff, &input, dim, axis);
                let mut got = vec![0.0; want.len()];
                kernels::apply_axis_into(&re.diff, np, dim, axis, &input, &mut got);
                assert_bits_eq(&got, &want, &format!("N={degree} dim={dim} axis={axis}"));
            }
        }
    }
}

#[test]
fn apply_axis_into_matches_oracle_rectangular_ops() {
    // Rectangular operators (npo != np) always take the runtime path;
    // mortar-style interpolations are the production case.
    let mut rng = SplitMix64(0x5eed_0002);
    for degree in 1..=8usize {
        let re = RefElement::new(degree);
        let np = re.np;
        for npo in [1usize, np + 2, 2 * np] {
            let op = Matrix::from_vec(npo, np, rng.fill(npo * np));
            for dim in [2usize, 3] {
                let input = rng.fill(np.pow(dim as u32));
                for axis in 0..dim {
                    let want = re.apply_axis(&op, &input, dim, axis);
                    let mut got = vec![0.0; want.len()];
                    kernels::apply_axis_into(&op, np, dim, axis, &input, &mut got);
                    assert_bits_eq(
                        &got,
                        &want,
                        &format!("N={degree} npo={npo} dim={dim} axis={axis}"),
                    );
                }
            }
        }
    }
}

#[test]
fn interp_half_through_engine_matches_oracle() {
    // The 2:1 transfer operators are the square non-differentiation case.
    let mut rng = SplitMix64(0x5eed_0003);
    for degree in [1usize, 3, 6, 7] {
        let re = RefElement::new(degree);
        let np = re.np;
        let input = rng.fill(np * np * np);
        for c in 0..2 {
            for axis in 0..3 {
                let want = re.apply_axis(&re.interp_half[c], &input, 3, axis);
                let mut got = vec![0.0; want.len()];
                kernels::apply_axis_into(&re.interp_half[c], np, 3, axis, &input, &mut got);
                assert_bits_eq(&got, &want, &format!("N={degree} child={c} axis={axis}"));
            }
        }
    }
}

#[test]
fn batched_gradient_matches_oracle_per_field() {
    let mut rng = SplitMix64(0x5eed_0004);
    for degree in 1..=8usize {
        let re = RefElement::new(degree);
        let np = re.np;
        for dim in [2usize, 3] {
            let npe = np.pow(dim as u32);
            for nf in [1usize, 3, 9] {
                let fields = rng.fill(nf * npe);
                let mut grad = vec![0.0; nf * dim * npe];
                kernels::batched_gradient_into(&re.diff, np, dim, &fields, nf, &mut grad);
                for f in 0..nf {
                    let want = re.gradient(&fields[f * npe..(f + 1) * npe], dim);
                    for axis in 0..dim {
                        assert_bits_eq(
                            &grad[(f * dim + axis) * npe..(f * dim + axis + 1) * npe],
                            &want[axis],
                            &format!("N={degree} dim={dim} nf={nf} f={f} axis={axis}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fused_advect_volume_rhs_matches_oracle_composition() {
    let mut rng = SplitMix64(0x5eed_0005);
    for degree in [1usize, 3, 4, 6, 7] {
        let re = RefElement::new(degree);
        let np = re.np;
        let npe = np * np * np;
        let ce = rng.fill(npe);
        let inv: Vec<[[f64; 3]; 3]> = (0..npe)
            .map(|_| {
                let mut m = [[0.0; 3]; 3];
                for row in &mut m {
                    for x in row.iter_mut() {
                        *x = rng.next_f64();
                    }
                }
                m
            })
            .collect();
        let vel: Vec<[f64; 3]> = (0..npe)
            .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64()])
            .collect();
        // Oracle: allocating gradient + the original contraction loop.
        let grads = re.gradient(&ce, 3);
        let mut want = vec![0.0; npe];
        for v in 0..npe {
            let u = vel[v];
            let mut adv = 0.0;
            for i in 0..3 {
                let mut gi = 0.0;
                for r in 0..3 {
                    gi += inv[v][r][i] * grads[r][v];
                }
                adv += u[i] * gi;
            }
            want[v] = -adv;
        }
        // SoA repack holds the same values; the kernel's loads change
        // address, not arithmetic.
        let mut metr = vec![0.0; 9 * npe];
        let mut vels = vec![0.0; 3 * npe];
        kernels::pack_volume_soa(&inv, &vel, &mut metr, &mut vels);
        let mut grad = vec![0.0; 3 * npe];
        let mut got = vec![0.0; npe];
        kernels::advect_volume_rhs(&re.diff, np, &ce, &metr, &vels, &mut grad, &mut got);
        assert_bits_eq(&got, &want, &format!("N={degree} fused volume RHS"));
    }
}

#[test]
fn matvec_into_matches_matvec() {
    let mut rng = SplitMix64(0x5eed_0006);
    for (rows, cols) in [(1usize, 1usize), (4, 4), (16, 9), (9, 16), (64, 64)] {
        let m = Matrix::from_vec(rows, cols, rng.fill(rows * cols));
        let x = rng.fill(cols);
        let want = m.matvec(&x);
        let mut got = vec![0.0; rows];
        m.matvec_into(&x, &mut got);
        assert_bits_eq(&got, &want, &format!("{rows}x{cols} matvec"));
    }
}

#[test]
fn workspace_capacity_contract() {
    let mut ws = forust_dg::KernelWorkspace::new();
    ws.configure(64, 16, 9);
    assert_eq!(ws.grow_events(), 0, "first sizing is free");
    assert_eq!(ws.grad.len(), 9 * 3 * 64);
    assert_eq!(ws.nodal.len(), 9 * 64);
    assert_eq!(ws.face_a.len(), 9 * 16);
    assert_eq!(ws.nbr.len(), 16);
    // Reconfiguring to the same (or smaller) shape reuses capacity.
    ws.configure(64, 16, 9);
    ws.configure(27, 9, 9);
    ws.check_steady();
    assert_eq!(ws.grow_events(), 0);
    // A mid-stage overrun is detected.
    let extra = ws.nbr.capacity() + 1;
    ws.nbr.resize(extra, 0.0);
    ws.check_steady();
    assert!(ws.grow_events() > 0, "regrow must be counted");
}

#[test]
fn tensor_weights_are_the_left_to_right_products() {
    // The solvers' cached constants are pinned to these exact bits.
    let re = RefElement::new(3);
    let (np, w) = (re.np, &re.weights);
    let (wv, wf) = (re.tensor_weights(3), re.tensor_weights(2));
    for k in 0..np {
        for j in 0..np {
            assert_eq!(wf[k * np + j].to_bits(), (w[j] * w[k]).to_bits());
            for i in 0..np {
                let want = w[i] * w[j] * w[k];
                assert_eq!(wv[(k * np + j) * np + i].to_bits(), want.to_bits());
            }
        }
    }
}
