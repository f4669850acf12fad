//! The f32 tier of the precision-generic kernel engine: the same loop
//! bodies monomorphized at `R = f32` must track the f64 engine within
//! single-precision rounding, and the batched gradient the device tier's
//! kernel calls must be, field by field and bit for bit, the single
//! sweeps it batches.

use forust_dg::kernels::{apply_axis_any, batched_gradient_any};
use forust_dg::real::demote_slice;
use forust_dg::RefElement;

/// Deterministic pseudo-random values in [-1, 1].
fn synth(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// f32 sweeps track the f64 engine within single-precision rounding on
/// every production degree and axis (fixed and runtime dispatch paths).
#[test]
fn f32_engine_tracks_f64_within_rounding() {
    for degree in [1usize, 3, 5, 6, 7] {
        let re = RefElement::new(degree);
        let np = re.np;
        let npe = np * np * np;
        let input = synth(npe, degree as u64);
        let mut out64 = vec![0.0f64; npe];
        let mut op32: Vec<f32> = Vec::new();
        demote_slice(&re.diff.data, &mut op32);
        let mut in32: Vec<f32> = Vec::new();
        demote_slice(&input, &mut in32);
        let mut out32 = vec![0.0f32; npe];
        for axis in 0..3 {
            apply_axis_any(&re.diff.data, np, np, 3, axis, &input, &mut out64);
            apply_axis_any(&op32, np, np, 3, axis, &in32, &mut out32);
            let scale: f64 = out64.iter().fold(1e-30, |m, &x| m.max(x.abs()));
            for (v, (&a, &b)) in out64.iter().zip(&out32).enumerate() {
                let err = (a - b as f64).abs() / scale;
                assert!(
                    err < 1e-5,
                    "degree {degree} axis {axis} node {v}: f32 engine off by {err:.2e}"
                );
            }
        }
    }
}

/// The 9-field batched gradient at `R = f32` (fixed-`np` and runtime
/// dispatch) is bitwise the per-field, per-axis sweeps, and tracks the
/// f64 gradient of the same fields within single-precision rounding.
#[test]
fn f32_batched_gradient_is_the_single_sweeps_and_tracks_f64() {
    for degree in [2usize, 3, 4, 6] {
        let re = RefElement::new(degree);
        let np = re.np;
        let npe = np * np * np;
        let nf = 9;
        let mut op32: Vec<f32> = Vec::new();
        demote_slice(&re.diff.data, &mut op32);

        let fields64 = synth(nf * npe, 99 + degree as u64);
        let mut fields32: Vec<f32> = Vec::new();
        demote_slice(&fields64, &mut fields32);
        let mut grad32 = vec![0.0f32; nf * 3 * npe];
        batched_gradient_any(&op32, np, 3, &fields32, nf, &mut grad32);
        let mut grad64 = vec![0.0f64; nf * 3 * npe];
        batched_gradient_any(&re.diff.data, np, 3, &fields64, nf, &mut grad64);

        let scale: f64 = grad64.iter().fold(1e-30, |m, &x| m.max(x.abs()));
        let mut single = vec![0.0f32; npe];
        for f in 0..nf {
            for axis in 0..3 {
                let field = &fields32[f * npe..(f + 1) * npe];
                apply_axis_any(&op32, np, np, 3, axis, field, &mut single);
                let at = (f * 3 + axis) * npe;
                for v in 0..npe {
                    assert_eq!(
                        grad32[at + v].to_bits(),
                        single[v].to_bits(),
                        "degree {degree} field {f} axis {axis} node {v}: batched != single sweep"
                    );
                    let err = (grad64[at + v] - grad32[at + v] as f64).abs() / scale;
                    assert!(
                        err < 1e-5,
                        "degree {degree} field {f} axis {axis} node {v}: off by {err:.2e}"
                    );
                }
            }
        }
    }
}
