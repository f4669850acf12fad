//! Allocation-free, degree-specialized sum-factorization kernel engine.
//!
//! The time-integration RHS of both dG solvers is dominated by 1D operator
//! sweeps over tensor-product elements. [`RefElement::apply_axis`] computes
//! the right thing but allocates a fresh `Vec` per call and walks
//! axis-dependent strides in the innermost loop; this module is the hot
//! replacement, with `apply_axis` retained as the bitwise test oracle
//! (precedent: `morton_reference`, `balance_ripple`).
//!
//! Three layers:
//!
//! - **Axis specialization.** The x sweep is `np^(d-1)` contiguous dot
//!   products; the y/z sweeps are blocked loops that broadcast one operator
//!   entry over a unit-stride panel (`np` resp. `np^2` values), so the
//!   innermost loop is always stride-1. Accumulation order per output value
//!   is identical to the oracle (`q` ascending from `0.0`), which makes
//!   every result **bitwise identical** to `apply_axis`.
//! - **Degree monomorphization.** The paper's production degrees — N=3
//!   (tricubic advection, `np = 4`) and N=6/7 (seismic, `np = 7/8`) — are
//!   compiled as const-generic instances in which every trip count is `NP`
//!   on every axis: the y/z panel is walked in chunks of `NP` into a stack
//!   accumulator (one body for both axes), so the optimizer fully unrolls
//!   and vectorizes each axis alike. The face operators' tensor sweeps
//!   ([`FaceOp`](crate::faceop::FaceOp)) are these sweeps over the face
//!   lattice. Every other degree takes the runtime-`np` fallback, which
//!   sums in the same order and therefore produces the same bits.
//! - **Batching.** [`batched_gradient_into`] differentiates `nf` fields in
//!   one operator sweep (axis outer, field inner), so seismic's 9
//!   components and advect's tracer share the operator row traffic.
//!
//! [`KernelWorkspace`] is one pool lane's scratch arena: gradient panels,
//! face traces and mortar buffers, sized by the degree and component
//! count and reused across elements and RK stages. The
//! [`Stepper`](crate::stepper::Stepper) owns one per lane, beside the
//! lane's one-element stage buffer and the RK register. A grow counter (`kernels.scratch_grow`,
//! mirroring the halo's `halo.scratch_grow`) proves the steady state
//! allocates nothing.
//!
//! [`RefElement::apply_axis`]: crate::element::RefElement::apply_axis

use crate::matrix::Matrix;
use crate::real::Real;

/// Paper production degrees compiled as const-generic instances: N=3
/// advection (`np = 4`) and N=6/7 seismic (`np = 7/8`). At these `np`
/// every square sweep — volume gradients, same-degree interpolation and
/// the face operators' 2:1 sweeps — runs with compile-time trip counts on
/// every axis.
pub const SPECIALIZED_NP: [usize; 3] = [4, 7, 8];

/// Apply a 1D operator (`npo x np`, row-major) along `axis` of a
/// `dim`-dimensional tensor field (x-fastest storage) into `out`.
///
/// Allocation-free replacement for [`apply_axis`]; results are bitwise
/// identical (asserted by the `kernels_oracle` fuzz test for degrees 1–8 ×
/// axes × field counts).
///
/// `input.len()` must be `np^dim`; `out.len()` must be
/// `npo * np^(dim-1)`.
///
/// [`apply_axis`]: crate::element::RefElement::apply_axis
pub fn apply_axis_into(
    op: &Matrix,
    np: usize,
    dim: usize,
    axis: usize,
    input: &[f64],
    out: &mut [f64],
) {
    assert_eq!(op.cols, np);
    assert!(axis < dim);
    apply_axis_any(&op.data, np, op.rows, dim, axis, input, out)
}

/// Precision-generic form of [`apply_axis_into`]: the operator is a raw
/// row-major `npo x np` slice in the same scalar tier as the data. The
/// f64 instantiation is the exact code the concrete path compiled to
/// before the tier split (same loop bodies, same accumulation order), so
/// the bitwise oracle contract is unchanged; the f32 instantiation is
/// the device tier's.
pub fn apply_axis_any<R: Real>(
    op: &[R],
    np: usize,
    npo: usize,
    dim: usize,
    axis: usize,
    input: &[R],
    out: &mut [R],
) {
    assert!(axis < dim);
    assert_eq!(op.len(), npo * np);
    assert_eq!(input.len(), np.pow(dim as u32));
    assert_eq!(out.len(), npo * np.pow(dim as u32 - 1));
    if npo == np {
        // Square operators (differentiation, same-degree interpolation)
        // at the production degrees take the monomorphized path.
        match np {
            4 => return apply_axis_fixed::<R, 4>(op, axis, input, out),
            7 => return apply_axis_fixed::<R, 7>(op, axis, input, out),
            8 => return apply_axis_fixed::<R, 8>(op, axis, input, out),
            _ => {}
        }
    }
    apply_axis_runtime(op, np, npo, dim, axis, input, out)
}

/// Const-`NP` instance of the axis sweep: every trip count is `NP`, on
/// every axis. Same products, summed in the same order as
/// [`apply_axis_runtime`] — bitwise identical.
fn apply_axis_fixed<R: Real, const NP: usize>(op: &[R], axis: usize, input: &[R], out: &mut [R]) {
    if axis == 0 {
        // x sweep: one small matvec per pencil. The operator is staged
        // column-major on the stack so the accumulator update runs across
        // all NP outputs at once (vectorizable; no serial dot-product
        // dependency chain). Per output `a` the sum is still
        // `op[a][q] * pin[q]` over ascending `q` from 0.0 — the exact
        // accumulation order of the oracle, so results stay bitwise
        // identical (Rust never contracts the mul+add into an FMA).
        let mut op_t = [[R::ZERO; NP]; NP];
        for (a, row) in op.chunks_exact(NP).enumerate() {
            for q in 0..NP {
                op_t[q][a] = row[q];
            }
        }
        for (pin, pout) in input.chunks_exact(NP).zip(out.chunks_exact_mut(NP)) {
            let mut acc = [R::ZERO; NP];
            for q in 0..NP {
                let x = pin[q];
                for a in 0..NP {
                    acc[a] += op_t[q][a] * x;
                }
            }
            pout.copy_from_slice(&acc);
        }
    } else {
        // y/z sweep: broadcast op[a][q] over the unit-stride panel below
        // `axis` (NP values for y, NP^2 for z), NP values at a time. The
        // NP input chunks at offset `k` of the panel are read once and
        // every output row's chunk `k` is summed from them in a stack
        // accumulator, so every trip count is NP. Per output the sum is
        // `op[a][q] * pin[q]` over ascending `q` from 0.0, as in the
        // oracle.
        let panel = NP.pow(axis as u32);
        let block = NP * panel;
        for (bin, bout) in input.chunks_exact(block).zip(out.chunks_exact_mut(block)) {
            for k in (0..panel).step_by(NP) {
                let pin: [&[R; NP]; NP] = std::array::from_fn(|q| {
                    bin[q * panel + k..]
                        .first_chunk()
                        .expect("chunk inside the block")
                });
                for (a, row) in op.chunks_exact(NP).enumerate() {
                    let mut acc = [R::ZERO; NP];
                    for q in 0..NP {
                        for x in 0..NP {
                            acc[x] += row[q] * pin[q][x];
                        }
                    }
                    bout[a * panel + k..][..NP].copy_from_slice(&acc);
                }
            }
        }
    }
}

/// Runtime-`np` fallback (and the only path for rectangular operators).
/// Same accumulation order as the const instances.
fn apply_axis_runtime<R: Real>(
    op: &[R],
    np: usize,
    npo: usize,
    dim: usize,
    axis: usize,
    input: &[R],
    out: &mut [R],
) {
    if axis == 0 {
        let pencils = np.pow(dim as u32 - 1);
        for p in 0..pencils {
            let pin = &input[p * np..(p + 1) * np];
            let pout = &mut out[p * npo..(p + 1) * npo];
            for a in 0..npo {
                let row = &op[a * np..(a + 1) * np];
                let mut acc = R::ZERO;
                for q in 0..np {
                    acc += row[q] * pin[q];
                }
                pout[a] = acc;
            }
        }
    } else {
        let panel = np.pow(axis as u32);
        let nblocks = np.pow((dim - 1 - axis) as u32);
        for b in 0..nblocks {
            let bin = &input[b * np * panel..(b + 1) * np * panel];
            let bout = &mut out[b * npo * panel..(b + 1) * npo * panel];
            for a in 0..npo {
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
}

/// Reference gradients of `nf` fields in one operator sweep.
///
/// `fields` holds `nf` nodal fields of `np^dim` values each, stored
/// consecutively (the solvers' component-major element layout). The result
/// lands in `grad` with layout `[field][axis][node]`:
/// `grad[(f * dim + axis) * npe + v]`.
///
/// The axis loop is outermost so all `nf` fields share each operator
/// sweep; per field the result is bitwise identical to
/// [`gradient`](crate::element::RefElement::gradient).
pub fn batched_gradient_into(
    diff: &Matrix,
    np: usize,
    dim: usize,
    fields: &[f64],
    nf: usize,
    grad: &mut [f64],
) {
    assert_eq!(diff.cols, np);
    assert_eq!(diff.rows, np);
    batched_gradient_any(&diff.data, np, dim, fields, nf, grad)
}

/// Precision-generic form of [`batched_gradient_into`] over a raw square
/// `np x np` differentiation operator in the `R` tier.
pub fn batched_gradient_any<R: Real>(
    diff: &[R],
    np: usize,
    dim: usize,
    fields: &[R],
    nf: usize,
    grad: &mut [R],
) {
    let npe = np.pow(dim as u32);
    assert_eq!(fields.len(), nf * npe);
    assert_eq!(grad.len(), nf * dim * npe);
    for axis in 0..dim {
        for f in 0..nf {
            let input = &fields[f * npe..(f + 1) * npe];
            let out = &mut grad[(f * dim + axis) * npe..(f * dim + axis + 1) * npe];
            apply_axis_any(diff, np, np, dim, axis, input, out);
        }
    }
}

/// Pack one element's per-node inverse Jacobians and velocities into the
/// SoA plane layout [`advect_volume_rhs`] consumes: nine metric planes
/// `metr[(r * 3 + i) * npe + v] = inv[v][r][i]` followed by three velocity
/// planes `vels[i * npe + v] = vel[v][i]`.
///
/// The AoS layout loads the metric with stride 9 in the contraction's hot
/// loop, which defeats vectorization; the solvers build these planes once
/// per mesh (re)build next to the cached nodal velocities.
pub fn pack_volume_soa(
    inv: &[[[f64; 3]; 3]],
    vel: &[[f64; 3]],
    metr: &mut [f64],
    vels: &mut [f64],
) {
    let npe = inv.len();
    debug_assert_eq!(vel.len(), npe);
    debug_assert_eq!(metr.len(), 9 * npe);
    debug_assert_eq!(vels.len(), 3 * npe);
    for v in 0..npe {
        for r in 0..3 {
            for i in 0..3 {
                metr[(r * 3 + i) * npe + v] = inv[v][r][i];
            }
        }
        for i in 0..3 {
            vels[i * npe + v] = vel[v][i];
        }
    }
}

/// Fused advection volume RHS of one element: reference gradient →
/// metric contraction → flux write in one pass.
///
/// `ce` is the element's nodal tracer; `metr`/`vels` are its inverse
/// Jacobians and cached nodal velocities in the SoA plane layout of
/// [`pack_volume_soa`] (unit-stride loads in the contraction); `grad` is a
/// `3 * npe` scratch panel from the [`KernelWorkspace`]. Writes
/// `out[v] = -(u · ∇C)(v)`, overwriting `out` — the contraction performs
/// the same multiplies and adds in the same order as the `apply_axis` +
/// AoS-loop path it replaces (only load addresses differ), so results are
/// bitwise identical.
pub fn advect_volume_rhs(
    diff: &Matrix,
    np: usize,
    ce: &[f64],
    metr: &[f64],
    vels: &[f64],
    grad: &mut [f64],
    out: &mut [f64],
) {
    let npe = np * np * np;
    debug_assert_eq!(ce.len(), npe);
    debug_assert_eq!(out.len(), npe);
    if diff.rows == np {
        // Production degrees: monomorphize the whole fused pass so both
        // the sweeps and the contraction have compile-time trip counts.
        match np {
            4 => return advect_volume_fixed::<f64, 4>(&diff.data, ce, metr, vels, grad, out),
            7 => return advect_volume_fixed::<f64, 7>(&diff.data, ce, metr, vels, grad, out),
            8 => return advect_volume_fixed::<f64, 8>(&diff.data, ce, metr, vels, grad, out),
            _ => {}
        }
    }
    batched_gradient_into(diff, np, 3, ce, 1, grad);
    let (gx, rest) = grad.split_at(npe);
    let (gy, gz) = rest.split_at(npe);
    advect_contract(npe, metr, vels, gx, gy, gz, out);
}

/// Const-`NP` instance of the fused advection volume pass. Same loop
/// bodies as the runtime path — bitwise identical.
fn advect_volume_fixed<R: Real, const NP: usize>(
    diff: &[R],
    ce: &[R],
    metr: &[R],
    vels: &[R],
    grad: &mut [R],
    out: &mut [R],
) {
    let npe = NP * NP * NP;
    let (gx, rest) = grad[..3 * npe].split_at_mut(npe);
    let (gy, gz) = rest.split_at_mut(npe);
    apply_axis_fixed::<R, NP>(diff, 0, ce, gx);
    apply_axis_fixed::<R, NP>(diff, 1, ce, gy);
    apply_axis_fixed::<R, NP>(diff, 2, ce, gz);
    advect_contract(npe, metr, vels, gx, gy, gz, out);
}

/// Metric contraction + flux write of the advection volume term:
/// `out[v] = -(u · J⁻¹∇̂C)(v)` over SoA planes. Shared by the
/// monomorphized and runtime fused paths.
///
/// Per node the accumulation is exactly the original solver loop —
/// `gi` over `r` ascending from `0.0`, `adv` over `i` ascending from
/// `0.0` — but every load is unit-stride in `v`, so the (independent)
/// node iterations vectorize.
#[inline]
fn advect_contract<R: Real>(
    npe: usize,
    metr: &[R],
    vels: &[R],
    gx: &[R],
    gy: &[R],
    gz: &[R],
    out: &mut [R],
) {
    // Pre-slice every plane to exactly `npe` so the indexing below is
    // provably in-bounds and the node loop vectorizes cleanly.
    let m: [&[R]; 9] = std::array::from_fn(|p| &metr[p * npe..(p + 1) * npe]);
    let u: [&[R]; 3] = std::array::from_fn(|p| &vels[p * npe..(p + 1) * npe]);
    let g = [&gx[..npe], &gy[..npe], &gz[..npe]];
    let out = &mut out[..npe];
    for v in 0..npe {
        let mut adv = R::ZERO;
        for i in 0..3 {
            let mut gi = R::ZERO;
            for r in 0..3 {
                gi += m[r * 3 + i][v] * g[r][v];
            }
            adv += u[i][v] * gi;
        }
        out[v] = -adv;
    }
}

/// One pool lane's scratch arena of the kernel engine, in the scalar tier
/// `R` of the kernel that works in it.
///
/// Built by the kernel's `new_scratch` (sized by
/// [`configure`](Self::configure)) when the stepper first meets that
/// element shape or pool width, and reused across elements, RK stages and
/// mesh rebuilds. All
/// buffers are plain `pub` fields — the solvers split-borrow them — with a
/// **capacity contract**: `configure` sizes every buffer for the worst
/// case of one element's RHS (`nf` fields), so no buffer ever regrows
/// mid-stage. [`check_steady`](Self::check_steady) asserts the contract
/// after a stage (bumping [`grow_events`](Self::grow_events) and the
/// `kernels.scratch_grow` obs counter on violation), exactly like PR-3's
/// `halo.scratch_grow`.
#[derive(Debug, Default)]
pub struct KernelWorkspace<R = f64> {
    /// Gradient panels, `nf * dim * npe` values (`[field][axis][node]`).
    pub grad: Vec<R>,
    /// Nodal per-element scratch, `nf * npe` values (seismic's nodal
    /// stress lives here).
    pub nodal: Vec<R>,
    /// Face trace buffer A, `nf * npf` (my trace, component-major).
    pub face_a: Vec<R>,
    /// Face trace buffer B, `nf * npf` (neighbor trace, component-major).
    pub face_b: Vec<R>,
    /// Face buffer C, `npf`: the scratch of the
    /// [`FaceOp`](crate::faceop::FaceOp) sweeps.
    pub face_c: Vec<R>,
    /// Face buffer D, `npf`: one component's fine-neighbor trace or
    /// lifted mortar flux. Capacity contract: every use writes exactly
    /// one face (`npf` values, also through the clear+refill of
    /// `HaloData::face_values`) — `configure` reserves that once so it
    /// never regrows mid-stage.
    pub nbr: Vec<R>,
    /// Buffer capacities recorded by `configure` — the steady-state
    /// contract checked by `check_steady` (any change means a buffer
    /// regrew mid-stage).
    caps: [usize; 6],
    grow_events: u64,
}

impl<R: Real> KernelWorkspace<R> {
    /// Empty workspace; call [`configure`](Self::configure) before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for elements of `npe` volume / `npf` face nodes
    /// carrying `nf` fields. Reuses existing capacity; counts a grow
    /// event (and bumps the `kernels.scratch_grow` counter) only when an
    /// already-configured workspace must actually allocate — the first
    /// sizing is free, mirroring the halo scratch.
    pub fn configure(&mut self, npe: usize, npf: usize, nf: usize) {
        let first = self.caps == [0; 6];
        let wanted = [nf * 3 * npe, nf * npe, nf * npf, nf * npf, npf, npf];
        let bufs: [&mut Vec<R>; 6] = [
            &mut self.grad,
            &mut self.nodal,
            &mut self.face_a,
            &mut self.face_b,
            &mut self.face_c,
            &mut self.nbr,
        ];
        let mut grew = false;
        let mut caps = [0usize; 6];
        for (slot, (buf, &want)) in caps.iter_mut().zip(bufs.into_iter().zip(&wanted)) {
            if buf.capacity() < want {
                grew = true;
                buf.reserve(want - buf.len());
            }
            buf.clear();
            buf.resize(want, R::ZERO);
            *slot = buf.capacity();
        }
        if grew && !first {
            self.grow_events += 1;
            forust_obs::counter_add("kernels.scratch_grow", 1);
        }
        self.caps = caps;
    }

    /// Times an already-configured workspace had to allocate. Zero across
    /// steady-state stepping; adapt cycles on shrinking-or-equal meshes
    /// also stay at zero (capacity is carried over).
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Assert the capacity contract after a stage: no buffer may have
    /// changed capacity since [`configure`](Self::configure) — a change
    /// means the per-face clear+refill pattern overran its reservation
    /// and reallocated mid-stage. A violation bumps
    /// [`grow_events`](Self::grow_events) and the `kernels.scratch_grow`
    /// counter so tests and dashboards catch it.
    pub fn check_steady(&mut self) {
        let caps = [
            self.grad.capacity(),
            self.nodal.capacity(),
            self.face_a.capacity(),
            self.face_b.capacity(),
            self.face_c.capacity(),
            self.nbr.capacity(),
        ];
        for (cap, &recorded) in caps.iter().zip(&self.caps) {
            if *cap != recorded {
                self.grow_events += 1;
                forust_obs::counter_add("kernels.scratch_grow", 1);
            }
        }
        self.caps = caps;
    }
}
