//! Lane-batched structure-of-arrays kernel engine (Fig. 10 analogue).
//!
//! The paper's dGea GPU port gets its throughput from batching: every
//! thread block updates one element, and within the block threads sweep
//! nodes in lock-step. Without a GPU, this module reproduces that
//! execution shape on the CPU's vector units: [`LANES`] elements are
//! packed into a structure-of-arrays *block* where the **lane index is
//! the fastest-moving dimension** —
//!
//! ```text
//! block[(c * npe + v) * LANES + l]   // component c, node v, element lane l
//! ```
//!
//! so every kernel loop's innermost accesses are unit-stride across
//! elements and the `target-cpu=native` build vectorizes *across
//! elements* (the GPU's warp dimension), not within one element's tiny
//! `np`-sized pencils. The payoff over the scalar engine in
//! [`crate::kernels`] is that a lane-batched axis sweep is the *same*
//! broadcast-over-panel loop for every axis, including x: with lanes
//! innermost, even the x-sweep's panel is `LANES` wide, so there is no
//! serial dot-product dependency chain anywhere.
//!
//! Everything here is generic over the [`Real`] tier; the f32
//! instantiation is the device backend's hot path, and per-lane
//! arithmetic is fully independent, so results are **bitwise invariant**
//! of both the lane width (8 vs 16 under the `lanes16` feature) and the
//! worker count (blocks write disjoint windows; lane padding is inert).

use crate::real::Real;

/// Elements per SoA block — the CPU analogue of the GPU's per-block
/// thread batch. Eight f32 lanes fill one AVX2 register; the `lanes16`
/// feature widens to sixteen (AVX-512-class cores). Per-lane results are
/// bitwise identical across widths.
#[cfg(not(feature = "lanes16"))]
pub const LANES: usize = 8;
/// Elements per SoA block (`lanes16`: sixteen).
#[cfg(feature = "lanes16")]
pub const LANES: usize = 16;

/// Number of `LANES`-wide blocks covering `nel` elements (the last block
/// is padded with inert lanes).
pub fn num_blocks(nel: usize) -> usize {
    nel.div_ceil(LANES)
}

/// Pack one field of up to `LANES` consecutive elements into a SoA block
/// plane. `src` holds the field AoS per element (`src[e * npe + v]`,
/// elements `e0..`), `out` is the `npe * LANES` destination plane
/// (`out[v * LANES + l]`). Lanes beyond `nel - e0` are zero-filled —
/// padding is inert because per-lane arithmetic never mixes lanes.
pub fn pack_plane<R: Real>(src: &[f64], npe: usize, nel: usize, e0: usize, out: &mut [R]) {
    debug_assert_eq!(out.len(), npe * LANES);
    let w = LANES.min(nel.saturating_sub(e0));
    for v in 0..npe {
        let row = &mut out[v * LANES..(v + 1) * LANES];
        for (l, slot) in row.iter_mut().enumerate() {
            *slot = if l < w {
                R::from_f64(src[(e0 + l) * npe + v])
            } else {
                R::ZERO
            };
        }
    }
}

/// Inverse of [`pack_plane`]: scatter the live lanes of a SoA plane back
/// into the AoS field (padding lanes are dropped).
pub fn unpack_plane<R: Real>(plane: &[R], npe: usize, nel: usize, e0: usize, dst: &mut [f64]) {
    debug_assert_eq!(plane.len(), npe * LANES);
    let w = LANES.min(nel.saturating_sub(e0));
    for v in 0..npe {
        let row = &plane[v * LANES..(v + 1) * LANES];
        for (l, &val) in row.iter().enumerate().take(w) {
            dst[(e0 + l) * npe + v] = val.to_f64();
        }
    }
}

/// Lane-batched 1D operator sweep along `axis` of one SoA block:
/// `input` and `out` are `np^3 * LANES` planes (square `np x np` `op`,
/// row-major, 3D fields).
///
/// With lanes innermost every axis reduces to the same form: panel size
/// `np^axis * LANES` (≥ `LANES`, so even the x-sweep broadcasts one
/// operator entry over a unit-stride vector of elements). Accumulation
/// per (node, lane) is `op[a][q] * in[q]` over ascending `q` from zero —
/// the scalar engine's order, applied per lane.
pub fn soa_apply_axis<R: Real>(op: &[R], np: usize, axis: usize, input: &[R], out: &mut [R]) {
    debug_assert_eq!(op.len(), np * np);
    debug_assert!(axis < 3);
    let npe = np * np * np;
    debug_assert_eq!(input.len(), npe * LANES);
    debug_assert_eq!(out.len(), npe * LANES);
    match np {
        4 => soa_axis_fixed::<R, 4>(op, axis, input, out),
        7 => soa_axis_fixed::<R, 7>(op, axis, input, out),
        8 => soa_axis_fixed::<R, 8>(op, axis, input, out),
        _ => soa_axis_runtime(op, np, axis, input, out),
    }
}

/// Const-`NP` instance: compile-time trip counts for the production
/// degrees (same loop body as the runtime path — bitwise identical).
fn soa_axis_fixed<R: Real, const NP: usize>(op: &[R], axis: usize, input: &[R], out: &mut [R]) {
    let panel = NP.pow(axis as u32) * LANES;
    let block = NP * panel;
    for (bin, bout) in input.chunks_exact(block).zip(out.chunks_exact_mut(block)) {
        for a in 0..NP {
            let o = &mut bout[a * panel..(a + 1) * panel];
            o.fill(R::ZERO);
            let row = &op[a * NP..(a + 1) * NP];
            for q in 0..NP {
                let c = row[q];
                let pin = &bin[q * panel..(q + 1) * panel];
                for (ov, &iv) in o.iter_mut().zip(pin) {
                    *ov += c * iv;
                }
            }
        }
    }
}

/// Runtime-`np` fallback, same loop body as the const instances.
fn soa_axis_runtime<R: Real>(op: &[R], np: usize, axis: usize, input: &[R], out: &mut [R]) {
    let panel = np.pow(axis as u32) * LANES;
    let block = np * panel;
    for (bin, bout) in input.chunks_exact(block).zip(out.chunks_exact_mut(block)) {
        for a in 0..np {
            let o = &mut bout[a * panel..(a + 1) * panel];
            o.fill(R::ZERO);
            let row = &op[a * np..(a + 1) * np];
            for q in 0..np {
                let c = row[q];
                let pin = &bin[q * panel..(q + 1) * panel];
                for (ov, &iv) in o.iter_mut().zip(pin) {
                    *ov += c * iv;
                }
            }
        }
    }
}

/// Lane-batched reference gradients of `nf` fields of one SoA block.
/// `fields` holds `nf` consecutive `npe * LANES` planes; `grad` receives
/// `[field][axis][node][lane]`:
/// `grad[((f * 3 + axis) * npe + v) * LANES + l]`.
pub fn soa_batched_gradient<R: Real>(
    diff: &[R],
    np: usize,
    fields: &[R],
    nf: usize,
    grad: &mut [R],
) {
    let npe = np * np * np;
    debug_assert_eq!(fields.len(), nf * npe * LANES);
    debug_assert_eq!(grad.len(), nf * 3 * npe * LANES);
    for axis in 0..3 {
        for f in 0..nf {
            let input = &fields[f * npe * LANES..(f + 1) * npe * LANES];
            let out = &mut grad[(f * 3 + axis) * npe * LANES..(f * 3 + axis + 1) * npe * LANES];
            soa_apply_axis(diff, np, axis, input, out);
        }
    }
}

/// Lane-batched fused advection volume RHS of one SoA block:
/// reference gradient → metric contraction → flux write, the SoA
/// counterpart of [`crate::kernels::advect_volume_rhs`].
///
/// `ce` is the block's tracer plane (`npe * LANES`); `metr` holds the
/// nine inverse-Jacobian planes `metr[((r * 3 + i) * npe + v) * LANES +
/// l]` and `vels` the three velocity planes, i.e. [`pack_plane`] applied
/// per metric/velocity component; `grad` is `3 * npe * LANES` scratch.
pub fn soa_advect_volume_rhs<R: Real>(
    diff: &[R],
    np: usize,
    ce: &[R],
    metr: &[R],
    vels: &[R],
    grad: &mut [R],
    out: &mut [R],
) {
    let npe = np * np * np;
    let plane = npe * LANES;
    debug_assert_eq!(ce.len(), plane);
    debug_assert_eq!(metr.len(), 9 * plane);
    debug_assert_eq!(vels.len(), 3 * plane);
    debug_assert_eq!(out.len(), plane);
    let (gx, rest) = grad[..3 * plane].split_at_mut(plane);
    let (gy, gz) = rest.split_at_mut(plane);
    soa_apply_axis(diff, np, 0, ce, gx);
    soa_apply_axis(diff, np, 1, ce, gy);
    soa_apply_axis(diff, np, 2, ce, gz);
    let m: [&[R]; 9] = std::array::from_fn(|p| &metr[p * plane..(p + 1) * plane]);
    let u: [&[R]; 3] = std::array::from_fn(|p| &vels[p * plane..(p + 1) * plane]);
    let g = [&gx[..plane], &gy[..plane], &gz[..plane]];
    let out = &mut out[..plane];
    for x in 0..plane {
        let mut adv = R::ZERO;
        for i in 0..3 {
            let mut gi = R::ZERO;
            for r in 0..3 {
                gi += m[r * 3 + i][x] * g[r][x];
            }
            adv += u[i][x] * gi;
        }
        out[x] = -adv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::RefElement;
    use crate::kernels;

    /// The SoA sweep must agree with the scalar engine lane by lane: pack
    /// LANES distinct elements, sweep once, unpack, compare bitwise (f64
    /// tier — identical arithmetic, only data movement differs).
    #[test]
    fn soa_axis_matches_scalar_engine_bitwise() {
        for degree in [1, 3, 6, 7] {
            let re = RefElement::new(degree);
            let np = re.np;
            let npe = np * np * np;
            let nel = LANES + 3; // exercise a padded block
            let mut field = vec![0.0f64; nel * npe];
            for (i, v) in field.iter_mut().enumerate() {
                *v = ((i * 2654435761) % 1000) as f64 * 1e-3 - 0.5;
            }
            for axis in 0..3 {
                let mut want = vec![0.0f64; nel * npe];
                for e in 0..nel {
                    kernels::apply_axis_into(
                        &re.diff,
                        np,
                        3,
                        axis,
                        &field[e * npe..(e + 1) * npe],
                        &mut want[e * npe..(e + 1) * npe],
                    );
                }
                let mut got = vec![0.0f64; nel * npe];
                let mut plane = vec![0.0f64; npe * LANES];
                let mut out = vec![0.0f64; npe * LANES];
                for b in 0..num_blocks(nel) {
                    pack_plane(&field, npe, nel, b * LANES, &mut plane);
                    soa_apply_axis(&re.diff.data, np, axis, &plane, &mut out);
                    unpack_plane(&out, npe, nel, b * LANES, &mut got);
                }
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "degree {degree} axis {axis}");
                }
            }
        }
    }
}
