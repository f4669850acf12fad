//! Single-precision lane-batched "device" backend for wave propagation.
//!
//! The paper's hybrid CPU–GPU dGea runs the wave-propagation solver in
//! single precision on the GPUs while p4est's AMR runs on the CPUs, with
//! an explicit mesh/data transfer step in between (Fig. 10). Without
//! GPUs, this module reproduces both the *structure* and the
//! *performance physics* of that split on the CPU's vector units:
//!
//! - **SoA lane batching.** State and metric data live in
//!   [`forust_dg::soa`]-layout arenas: blocks of [`LANES`] elements with
//!   the element lane innermost, so every kernel loop vectorizes across
//!   elements — the CPU analogue of the GPU batching one element per
//!   thread block. The volume pipeline (nodal stress, batched 9-field
//!   gradients, metric contraction, source) and the penalty flux of
//!   boundary/conforming faces are fully lane-batched; a neighbor's
//!   trace is aligned per lane through the face's
//!   [`FaceOp`](forust_dg::FaceOp) in the f32 copy of the mesh's face
//!   tables — the same operator the host engine applies, and the whole
//!   operator arena. Non-conforming mortar faces diverge per lane and
//!   run a scalar f32 path (their lanes opt out of the batched flux via
//!   `qp = qm ⇒ d = 0`), so adapted meshes stay on the device.
//! - **Persistent arenas.** [`transfer_from_host`](DeviceState::transfer_from_host)
//!   reuses arena capacity across adapt/transfer cycles; an
//!   already-transferred state that must actually allocate bumps the
//!   `device.transfer_grow` counter (mirroring `kernels.scratch_grow`).
//! - **f32 halo traffic.** Each RHS evaluation exchanges ghost face
//!   traces through the split-phase halo on its own f32 wire lane
//!   ([`forust_dg::halo::TAG_HALO_EXCHANGE_F32`]) — half the payload
//!   bytes of the f64 lane on top of the existing trace restriction.
//! - **The shared time loop.** As in the paper, the device tier runs the
//!   host's driver and swaps the kernel: a step is
//!   [`forust_dg::Stepper::step`] at `R = f32` over [`BlockKernel`],
//!   whose work unit is one SoA block. A block is *boundary* iff a live
//!   lane of it has a ghost-face neighbor; the other blocks are swept
//!   while the exchange is in flight. Each block writes only its own RHS
//!   window, so device steps are bitwise identical across
//!   `FORUST_WORKERS` settings (the f32 determinism contract).
//!
//! Accuracy follows the paper's methodology: the f64 engine run is the
//! reference and device runs assert **relative-error bounds** (see
//! [`rel_error_vs_host`](DeviceState::rel_error_vs_host)), not bitwise
//! identity — plane-wave closed forms in [`crate::model`] anchor the
//! absolute error.

use forust::dim::D3;
use forust_comm::Communicator;
use forust_dg::halo::{HaloData, HaloExchange};
use forust_dg::mesh::{DgMesh, ElemRef, FaceConn, FineSub};
use forust_dg::real::demote_slice;
use forust_dg::soa::{self, LANES};
use forust_dg::stepper::{LaneScratch, RhsKernel, Stepper};
use forust_dg::{FaceOp, FaceTables};
use forust_pool::DisjointSlice;

use crate::model::ricker;
use crate::solver::{penalty_flux, soa_penalty_flux, SeismicSolver, NCOMP};

/// Flush-to-zero scope for the f32 device sweeps. GPUs flush f32
/// subnormals by default (CUDA's FTZ mode); on x86 we mirror that by
/// setting the FTZ and DAZ bits of MXCSR for the duration of one device
/// job — every pool job the stepper runs for [`BlockKernel`], the RK
/// update included (its f32 bits depend on it). Without it, the near-zero
/// fields early in a run (a ramping Ricker source times a Gaussian spatial
/// decay) are subnormal in f32 — normal in the host's f64 — and every
/// flux FLOP traps into the microcode assist path, which measured as a
/// ~5x whole-step slowdown.
/// The previous control word is restored on drop so host f64 sweeps on
/// the same pool threads keep strict IEEE subnormals.
struct FtzScope {
    #[cfg(target_arch = "x86_64")]
    saved: u32,
}

impl FtzScope {
    fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: only toggles the subnormal handling bits (FTZ|DAZ
            // = 0x8040); rounding mode and exception masks are preserved
            // and the word is restored when the scope drops.
            #[allow(deprecated)]
            unsafe {
                let saved = std::arch::x86_64::_mm_getcsr();
                std::arch::x86_64::_mm_setcsr(saved | 0x8040);
                FtzScope { saved }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        FtzScope {}
    }
}

impl Drop for FtzScope {
    fn drop(&mut self) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: restores the exact control word saved by `new`.
        #[allow(deprecated)]
        unsafe {
            std::arch::x86_64::_mm_setcsr(self.saved);
        }
    }
}

/// Per-worker-lane scratch of the device sweeps (block-sized panels).
#[derive(Debug, Default)]
struct DeviceWs {
    /// Gradient input: 3 velocity + 6 stress planes, `9 * npe * LANES`.
    fields: Vec<f32>,
    /// Batched gradients, `27 * npe * LANES`.
    grad: Vec<f32>,
    /// My face trace panels, `NCOMP * npf * LANES`.
    qm: Vec<f32>,
    /// Neighbor face trace panels, `NCOMP * npf * LANES`.
    qp: Vec<f32>,
    /// Flux jump panels, `NCOMP * npf * LANES`.
    d: Vec<f32>,
    /// Face-node material planes, `npf * LANES` each.
    frho: Vec<f32>,
    flam: Vec<f32>,
    fmu: Vec<f32>,
    /// Scalar staging, `npf` each: an aligned neighbor trace or a lifted
    /// mortar flux in `nbr`, one lane's raw trace in `tmp`, the face
    /// operators' scratch in `sweep`.
    nbr: Vec<f32>,
    tmp: Vec<f32>,
    sweep: Vec<f32>,
    /// Scalar mortar traces, `NCOMP * npf` each (`qms` turns into the
    /// weighted flux jumps in place).
    qms: Vec<f32>,
    qps: Vec<f32>,
}

impl DeviceWs {
    fn new(npe: usize, npf: usize) -> Self {
        let plane = npe * LANES;
        let fp = npf * LANES;
        DeviceWs {
            fields: vec![0.0; NCOMP * plane],
            grad: vec![0.0; NCOMP * 3 * plane],
            qm: vec![0.0; NCOMP * fp],
            qp: vec![0.0; NCOMP * fp],
            d: vec![0.0; NCOMP * fp],
            frho: vec![0.0; fp],
            flam: vec![0.0; fp],
            fmu: vec![0.0; fp],
            nbr: vec![0.0; npf],
            tmp: vec![0.0; npf],
            sweep: vec![0.0; npf],
            qms: vec![0.0; NCOMP * npf],
            qps: vec![0.0; NCOMP * npf],
        }
    }
}

/// Fixed-size panels, indexed only: they cannot regrow.
impl LaneScratch for DeviceWs {}

/// What the block kernel reads besides the state: the host solver's mesh
/// data demoted to f32 and repacked lane-batched, written by
/// [`DeviceState::transfer_from_host`]. Topology is not copied — the
/// kernel reads the host mesh's [`FaceConn`]s directly.
#[derive(Default)]
struct Arenas {
    /// Inverse Jacobian planes, `((b * 9 + (r*3+i)) * npe + v) * LANES + l`.
    inv: Vec<f32>,
    /// Material planes, `(b * npe + v) * LANES + l`.
    rho: Vec<f32>,
    lam: Vec<f32>,
    mu: Vec<f32>,
    /// Jacobian determinant plane, `(b * npe + v) * LANES + l`.
    det: Vec<f32>,
    /// Source spatial weight `exp(-r² / (2 sw²))` per node-lane (zero on
    /// padding lanes).
    srcw: Vec<f32>,
    /// Face normals, `(((b*6 + f) * 3 + i) * npf + j) * LANES + l`.
    nrm: Vec<f32>,
    /// Face lift coefficient `wf[j]·sj / (wv[v]·det[v])`,
    /// `((b*6 + f) * npf + j) * LANES + l` (zero on padding lanes).
    coef: Vec<f32>,
    /// First sub-face slot of face `e * 6 + f` in the two mortar arenas;
    /// meaningful where the mesh classifies the face `FineNbrs`.
    mortar_off: Vec<u32>,
    /// Mortar-point normals of 2:1 sub-faces, `(slot * 3 + i) * npf + j`.
    mortar_nrm: Vec<f32>,
    /// Mortar-point surface Jacobians (fine-face measure), `slot * npf + j`.
    mortar_sj: Vec<f32>,
    /// f32 copy of the mesh's face tables: the whole operator arena.
    face_tab: FaceTables<f32>,
    /// f32 differentiation matrix, `np x np`.
    diff: Vec<f32>,
    /// Volume / face quadrature weights and face→volume node maps.
    wv: Vec<f32>,
    wf: Vec<f32>,
    face_idx: Vec<Vec<usize>>,
    /// Source direction (f32 copy of the config).
    src_dir: [f32; 3],
    np: usize,
    nel: usize,
    /// Blocks none of whose live lanes has a ghost-face neighbor, and the
    /// rest: the stepper's interior and boundary unit lists.
    interior: Vec<u32>,
    boundary: Vec<u32>,
}

/// The device-resident state of one solver: lane-batched f32 SoA arenas
/// with persistent capacity across transfers.
#[derive(Default)]
pub struct DeviceState {
    /// State, `((b * NCOMP + c) * npe + v) * LANES + l`.
    q: Vec<f32>,
    /// Per-stage local face-trace arena, `((e*6 + f) * NCOMP + c) * npf + j`
    /// (neighbor-face lattice order). Extracted in a dedicated sweep so
    /// that the flux sweep reads neighbor traces from contiguous panels
    /// instead of lane-strided gathers across the whole `q` arena.
    tr: Vec<f32>,
    arenas: Arenas,
    /// The shared LSERK driver at `R = f32`: RK register, stage buffer
    /// and one [`DeviceWs`] per pool lane.
    stepper: Stepper<f32, DeviceWs>,
    /// Device clock (f64 so the Ricker stage times match the host's).
    pub time: f64,
    transfers: u64,
    transfer_grow: u64,
}

/// Capacity-reusing resize: `true` if the buffer had to allocate.
fn fit<T: Clone + Default>(buf: &mut Vec<T>, want: usize) -> bool {
    let grew = buf.capacity() < want;
    buf.clear();
    buf.resize(want, T::default());
    grew
}

impl DeviceState {
    /// Empty device state; populate it with
    /// [`transfer_from_host`](Self::transfer_from_host).
    pub fn new() -> Self {
        Self::default()
    }

    /// "Transfer the mesh and other initial data from CPU to GPU
    /// memory": demote and repack everything the device kernels need
    /// into the SoA arenas. The caller times this (Fig. 10's `transf`
    /// column). Arena capacity is carried across calls — a transfer
    /// after an adapt onto a shrinking-or-equal mesh allocates nothing;
    /// one that must allocate bumps `device.transfer_grow`.
    pub fn transfer_from_host(&mut self, s: &SeismicSolver) {
        let _span = forust_obs::span!("device.transfer");
        let re = &s.mesh.re;
        let np = re.np;
        let npe = np * np * np;
        let npf = np * np;
        let nel = s.mesh.num_elements();
        let nblocks = soa::num_blocks(nel);
        let plane = npe * LANES;
        let fp = npf * LANES;
        let a = &mut self.arenas;

        let first = self.transfers == 0;
        let mut grew = false;
        grew |= fit(&mut self.q, nblocks * NCOMP * plane);
        grew |= self.stepper.fit(nblocks * NCOMP * plane);
        grew |= fit(&mut a.inv, nblocks * 9 * plane);
        grew |= fit(&mut a.rho, nblocks * plane);
        grew |= fit(&mut a.lam, nblocks * plane);
        grew |= fit(&mut a.mu, nblocks * plane);
        grew |= fit(&mut a.det, nblocks * plane);
        grew |= fit(&mut a.srcw, nblocks * plane);
        grew |= fit(&mut a.nrm, nblocks * 6 * 3 * fp);
        grew |= fit(&mut a.coef, nblocks * 6 * fp);
        grew |= fit(&mut self.tr, nblocks * LANES * 6 * NCOMP * npf);
        if grew && !first {
            self.transfer_grow += 1;
            forust_obs::counter_add("device.transfer_grow", 1);
        }
        self.transfers += 1;

        // Shared per-mesh constants.
        demote_slice(&re.diff.data, &mut a.diff);
        demote_slice(&re.tensor_weights(3), &mut a.wv);
        demote_slice(&re.tensor_weights(2), &mut a.wf);
        a.face_idx = re.face_node_table(3);
        a.face_tab = re.face_tables.cast();
        a.src_dir = s.config.src_dir.map(|x| x as f32);

        // Volume arenas: identity metric / unit material on padding
        // lanes keeps their (all-zero) state inert without NaNs.
        for b in 0..nblocks {
            for v in 0..npe {
                for l in 0..LANES {
                    let e = b * LANES + l;
                    let x = (b * npe + v) * LANES + l;
                    if e < nel {
                        let ivj = s.geo.elem_inv(e)[v];
                        for r in 0..3 {
                            for i in 0..3 {
                                a.inv[((b * 9 + (r * 3 + i)) * npe + v) * LANES + l] =
                                    ivj[r][i] as f32;
                            }
                        }
                        let m = s.mat[e * npe + v];
                        a.rho[x] = m[0] as f32;
                        a.lam[x] = m[1] as f32;
                        a.mu[x] = m[2] as f32;
                        a.det[x] = s.geo.elem_det(e)[v] as f32;
                        a.srcw[x] = s.srcw[e * npe + v] as f32;
                        for c in 0..NCOMP {
                            self.q[((b * NCOMP + c) * npe + v) * LANES + l] =
                                s.q[(e * NCOMP + c) * npe + v] as f32;
                        }
                    } else {
                        for i in 0..3 {
                            a.inv[((b * 9 + (i * 3 + i)) * npe + v) * LANES + l] = 1.0;
                        }
                        a.rho[x] = 1.0;
                        a.lam[x] = 1.0;
                        a.mu[x] = 1.0;
                        a.det[x] = 1.0;
                    }
                }
            }
        }

        // Face arenas, and the f32 geometry of the 2:1 sub-faces. Padding
        // lanes get a unit x-normal and zero lift coefficient.
        a.mortar_off.clear();
        a.mortar_nrm.clear();
        a.mortar_sj.clear();
        for e in 0..nel {
            let b = e / LANES;
            let l = e % LANES;
            for f in 0..6 {
                let fg = s.geo.face(e, f, s.mesh.nfaces);
                let fidx = &a.face_idx[f];
                for j in 0..npf {
                    for i in 0..3 {
                        a.nrm[(((b * 6 + f) * 3 + i) * npf + j) * LANES + l] =
                            fg.normal[j][i] as f32;
                    }
                    let v = fidx[j];
                    let x = (b * npe + v) * LANES + l;
                    a.coef[((b * 6 + f) * npf + j) * LANES + l] =
                        a.wf[j] * fg.sj[j] as f32 / (a.wv[v] * a.det[x]);
                }
                a.mortar_off.push((a.mortar_sj.len() / npf) as u32);
                for sg in &fg.subs {
                    for i in 0..3 {
                        a.mortar_nrm.extend(sg.normal.iter().map(|n| n[i] as f32));
                    }
                    a.mortar_sj.extend(sg.sj.iter().map(|&x| x as f32));
                }
            }
        }

        // A block is boundary iff a live lane of it is a boundary element
        // (the halo lists them in ascending order); the others read no
        // ghost trace and are swept while the exchange is in flight.
        a.boundary.clear();
        a.boundary
            .extend(s.halo.boundary().iter().map(|&e| e / LANES as u32));
        a.boundary.dedup();
        a.interior.clear();
        a.interior
            .extend((0..nblocks as u32).filter(|b| a.boundary.binary_search(b).is_err()));

        a.np = np;
        a.nel = nel;
        self.time = s.time;
    }

    /// Convenience: fresh state + first transfer.
    pub fn from_host(s: &SeismicSolver) -> DeviceState {
        let mut d = DeviceState::new();
        d.transfer_from_host(s);
        d
    }

    /// Times an already-transferred state had to allocate during a
    /// transfer. Zero across adapt cycles onto shrinking-or-equal
    /// meshes (capacity is carried over); the first transfer is free.
    pub fn transfer_grow_events(&self) -> u64 {
        self.transfer_grow
    }

    /// Bytes moved by the host→device transfer (bandwidth reporting).
    pub fn transfer_bytes(&self) -> usize {
        let a = &self.arenas;
        4 * (self.q.len()
            + a.inv.len()
            + a.rho.len() * 3
            + a.det.len()
            + a.srcw.len()
            + a.nrm.len()
            + a.coef.len())
    }

    /// The live lanes of `arena` (state layout) in the host solver's
    /// order `(e * NCOMP + c) * npe + v`.
    fn live<'a>(&'a self, arena: &'a [f32]) -> impl Iterator<Item = f32> + 'a {
        let chunk = NCOMP * self.arenas.np.pow(3);
        (0..self.arenas.nel * chunk).map(move |i| {
            let (e, cv) = (i / chunk, i % chunk);
            arena[((e / LANES) * chunk + cv) * LANES + e % LANES]
        })
    }

    /// Copy the live lanes of the state back to the host solver (end of
    /// the device phase; the paper's GPU→CPU transfer before re-adapt).
    pub fn to_host(&self, s: &mut SeismicSolver) {
        for (h, d) in s.q.iter_mut().zip(self.live(&self.q)) {
            *h = d as f64;
        }
        s.time = self.time;
    }

    /// Raw bits of the live lanes of the f32 state (q then the RK
    /// register as the last step left it), for determinism assertions: a
    /// device step must be bitwise invariant of worker count, lane
    /// batching and block placement, and a pure function of `(q, t)`.
    pub fn state_bits(&self) -> Vec<u32> {
        let arenas = [&self.q[..], self.stepper.register()];
        arenas
            .iter()
            .flat_map(|a| self.live(a))
            .map(f32::to_bits)
            .collect()
    }

    /// The live lanes of the device state as an f64 vector in the host
    /// solver's layout (`(e * NCOMP + c) * npe + v`) — for tests and
    /// diagnostics that compare against a reference without mutating a
    /// solver.
    pub fn state_f64(&self) -> Vec<f64> {
        self.live(&self.q).map(f64::from).collect()
    }

    /// Global relative L∞ error of the device state against the host
    /// solver's f64 state: `max|q32 − q64| / max|q64|`. This is the
    /// quantity the accuracy tests bound (paper methodology: the f64
    /// run is the reference; single precision is checked against it).
    pub fn rel_error_vs_host(&self, s: &SeismicSolver, comm: &impl Communicator) -> f64 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (&h, d) in s.q.iter().zip(self.live(&self.q)) {
            num = num.max((d as f64 - h).abs());
            den = den.max(h.abs());
        }
        let num = comm.allreduce(num, f64::max);
        let den = comm.allreduce(den, f64::max);
        num / den.max(1e-300)
    }

    /// One full LSERK step on the device: the shared [`Stepper`] over
    /// [`BlockKernel`]. The host solver supplies the (static) mesh
    /// topology, the halo exchange and `dt`; all state arithmetic runs in
    /// f32 on the SoA arenas, and the per-stage ghost trace exchange
    /// travels on the f32 wire lane, overlapped with the interior blocks.
    pub fn step(&mut self, s: &SeismicSolver, comm: &impl Communicator) {
        let _span = forust_obs::span!("device.step");
        let mut kernel = BlockKernel {
            a: &self.arenas,
            mesh: &s.mesh,
            f0: s.config.f0,
            tr: &mut self.tr,
        };
        self.stepper
            .step(comm, &s.halo, &mut self.q, self.time, s.dt, &mut kernel);
        self.time += s.dt;
    }
}

/// The device tier's kernel: the lane-batched f32 elastic RHS of one SoA
/// block (the "thread block" kernel), over the transferred arenas and the
/// host mesh's face classification.
struct BlockKernel<'a> {
    a: &'a Arenas,
    mesh: &'a DgMesh<D3>,
    /// Source peak frequency.
    f0: f64,
    tr: &'a mut [f32],
}

/// One unit is one block: `NCOMP * npe * LANES` values, lanes innermost.
impl RhsKernel<D3> for BlockKernel<'_> {
    type Real = f32;
    type Scratch = DeviceWs;
    const NCOMP: usize = NCOMP;
    /// One block is already `LANES` elements of heavy work.
    const GRAIN: usize = 1;

    fn unit_len(&self) -> usize {
        NCOMP * self.a.np.pow(3) * LANES
    }

    fn new_scratch(&self) -> DeviceWs {
        DeviceWs::new(self.a.np.pow(3), self.a.np.pow(2))
    }

    fn accessor<'a>(&'a self, q: &'a [f32]) -> impl Fn(usize, usize, usize) -> f32 + Sync + 'a {
        let npe = self.a.np.pow(3);
        move |e, c, n| q[(((e / LANES) * NCOMP + c) * npe + n) * LANES + e % LANES]
    }

    fn units<'a>(&'a self, _halo: &'a HaloExchange<D3>) -> [&'a [u32]; 2] {
        [&self.a.interior, &self.a.boundary]
    }

    fn fp_scope() -> impl Sized {
        FtzScope::new()
    }

    /// Trace-extraction sweep: compact every live element-face's own
    /// trace out of the SoA state into contiguous panels, one window per
    /// block. The flux sweep then reads a neighbor trace as one 64-byte
    /// run per component instead of `npf` lane-strided loads scattered
    /// across the `q` arena — that gather pattern dominated the whole
    /// device step.
    fn pre_stage(&mut self, q: &[f32]) {
        let a = self.a;
        let (npe, npf) = (a.np.pow(3), a.np.pow(2));
        let chunk = LANES * 6 * NCOMP * npf;
        let slots = DisjointSlice::new(self.tr);
        forust_pool::par_for_each(soa::num_blocks(a.nel), Self::GRAIN, |range, _| {
            for b in range {
                // SAFETY: distinct blocks own disjoint trace windows.
                let out = unsafe { slots.slice(b * chunk..(b + 1) * chunk) };
                for l in 0..LANES.min(a.nel - b * LANES) {
                    for (f, fidx) in a.face_idx.iter().enumerate() {
                        for c in 0..NCOMP {
                            let dst = &mut out[((l * 6 + f) * NCOMP + c) * npf..][..npf];
                            let src = &q[(b * NCOMP + c) * npe * LANES + l..];
                            for (d, &v) in dst.iter_mut().zip(fidx) {
                                *d = src[v * LANES];
                            }
                        }
                    }
                }
            }
        });
    }

    /// Lane-batched RHS of block `b`.
    fn rhs_unit(
        &self,
        q: &[f32],
        b: usize,
        t: f64,
        traces: Option<&HaloData<'_, D3, f32>>,
        ws: &mut DeviceWs,
        out: &mut [f32],
    ) {
        let a = self.a;
        let np = a.np;
        let npe = np * np * np;
        let npf = np * np;
        let plane = npe * LANES;
        let fp = npf * LANES;
        let qb = &q[b * NCOMP * plane..(b + 1) * NCOMP * plane];
        let rho = &a.rho[b * plane..(b + 1) * plane];
        let lam = &a.lam[b * plane..(b + 1) * plane];
        let mu = &a.mu[b * plane..(b + 1) * plane];
        let srcw = &a.srcw[b * plane..(b + 1) * plane];
        let inv = &a.inv[b * 9 * plane..(b + 1) * 9 * plane];
        let amp = ricker(t, self.f0, 1.2 / self.f0) as f32;

        // Gradient input: velocity planes verbatim, stress planes from
        // the strain components (lane-batched Hooke's law).
        ws.fields[..3 * plane].copy_from_slice(&qb[..3 * plane]);
        {
            let (_, sig) = ws.fields.split_at_mut(3 * plane);
            let (e_d, rest) = qb[3 * plane..].split_at(3 * plane);
            let e_o = &rest[..3 * plane];
            for x in 0..plane {
                let m2 = 2.0 * mu[x];
                let tr = e_d[x] + e_d[plane + x] + e_d[2 * plane + x];
                let lt = lam[x] * tr;
                sig[x] = m2 * e_d[x] + lt;
                sig[plane + x] = m2 * e_d[plane + x] + lt;
                sig[2 * plane + x] = m2 * e_d[2 * plane + x] + lt;
                sig[3 * plane + x] = m2 * e_o[x];
                sig[4 * plane + x] = m2 * e_o[plane + x];
                sig[5 * plane + x] = m2 * e_o[2 * plane + x];
            }
        }
        soa::soa_batched_gradient(&a.diff, np, &ws.fields, NCOMP, &mut ws.grad);

        // Volume contraction + source, fully lane-batched.
        let g = &ws.grad;
        let iv = |p: usize| -> &[f32] { &inv[p * plane..(p + 1) * plane] };
        let gf = |fld: usize, r: usize| -> &[f32] {
            &g[(fld * 3 + r) * plane..(fld * 3 + r + 1) * plane]
        };
        for x in 0..plane {
            let dphys = |fld: usize, i: usize| -> f32 {
                (0..3).map(|r| iv(r * 3 + i)[x] * gf(fld, r)[x]).sum()
            };
            let rh = rho[x];
            // Momentum (stress fields are gradient fields 3..9, Voigt).
            let dv = [
                (dphys(3, 0) + dphys(8, 1) + dphys(7, 2)) / rh,
                (dphys(8, 0) + dphys(4, 1) + dphys(6, 2)) / rh,
                (dphys(7, 0) + dphys(6, 1) + dphys(5, 2)) / rh,
            ];
            let gvx = [dphys(0, 0), dphys(0, 1), dphys(0, 2)];
            let gvy = [dphys(1, 0), dphys(1, 1), dphys(1, 2)];
            let gvz = [dphys(2, 0), dphys(2, 1), dphys(2, 2)];
            let src = amp * srcw[x] / rh;
            for c in 0..3 {
                out[c * plane + x] = dv[c] + src * a.src_dir[c];
            }
            out[3 * plane + x] = gvx[0];
            out[4 * plane + x] = gvy[1];
            out[5 * plane + x] = gvz[2];
            out[6 * plane + x] = 0.5 * (gvy[2] + gvz[1]);
            out[7 * plane + x] = 0.5 * (gvx[2] + gvz[0]);
            out[8 * plane + x] = 0.5 * (gvx[1] + gvy[0]);
        }

        // Surface terms.
        for f in 0..6 {
            let fidx = &a.face_idx[f];
            // My trace panels + face-node material planes (row copies,
            // unit stride in the lane dimension).
            for (j, &v) in fidx.iter().enumerate() {
                for c in 0..NCOMP {
                    ws.qm[(c * npf + j) * LANES..(c * npf + j + 1) * LANES]
                        .copy_from_slice(&qb[(c * npe + v) * LANES..(c * npe + v + 1) * LANES]);
                }
                ws.frho[j * LANES..(j + 1) * LANES]
                    .copy_from_slice(&rho[v * LANES..(v + 1) * LANES]);
                ws.flam[j * LANES..(j + 1) * LANES]
                    .copy_from_slice(&lam[v * LANES..(v + 1) * LANES]);
                ws.fmu[j * LANES..(j + 1) * LANES].copy_from_slice(&mu[v * LANES..(v + 1) * LANES]);
            }
            // Neighbor trace panels, per lane by the mesh's face
            // classification. Mortar and padding lanes copy `qm` so the
            // batched flux is a no-op for them (equal traces ⇒ zero jump).
            for l in 0..LANES {
                let e = b * LANES + l;
                match (e < a.nel).then(|| self.mesh.face(e, f)) {
                    None | Some(FaceConn::FineNbrs { .. }) => {
                        for c in 0..NCOMP {
                            for j in 0..npf {
                                ws.qp[(c * npf + j) * LANES + l] = ws.qm[(c * npf + j) * LANES + l];
                            }
                        }
                    }
                    // Traction-free: mirror trace with negated strain.
                    Some(FaceConn::Boundary) => {
                        for c in 0..NCOMP {
                            for j in 0..npf {
                                let s0 = ws.qm[(c * npf + j) * LANES + l];
                                ws.qp[(c * npf + j) * LANES + l] = if c >= 3 { -s0 } else { s0 };
                            }
                        }
                    }
                    Some(
                        FaceConn::Conforming { nbr, nbr_face, op }
                        | FaceConn::CoarseNbr { nbr, nbr_face, op },
                    ) => {
                        for c in 0..NCOMP {
                            self.nbr_trace(
                                *op,
                                *nbr,
                                *nbr_face,
                                c,
                                traces,
                                &mut ws.sweep,
                                &mut ws.nbr,
                            );
                            for j in 0..npf {
                                ws.qp[(c * npf + j) * LANES + l] = ws.nbr[j];
                            }
                        }
                    }
                }
            }
            // Lane-batched penalty flux + lift of the non-divergent lanes.
            let nrm = &a.nrm[(b * 6 + f) * 3 * fp..((b * 6 + f) * 3 + 3) * fp];
            soa_penalty_flux(
                npf, &ws.qm, &ws.qp, nrm, &ws.frho, &ws.flam, &ws.fmu, &mut ws.d,
            );
            let coef = &a.coef[(b * 6 + f) * fp..(b * 6 + f + 1) * fp];
            for (j, &v) in fidx.iter().enumerate() {
                let cj = &coef[j * LANES..(j + 1) * LANES];
                for c in 0..NCOMP {
                    let dj = &ws.d[(c * npf + j) * LANES..(c * npf + j + 1) * LANES];
                    let o = &mut out[(c * plane + v * LANES)..(c * plane + (v + 1) * LANES)];
                    for l in 0..LANES {
                        o[l] += cj[l] * dj[l];
                    }
                }
            }
            // Divergent lanes: scalar f32 mortar path (runtime np).
            for l in 0..LANES.min(a.nel - b * LANES) {
                if let FaceConn::FineNbrs { subs } = self.mesh.face(b * LANES + l, f) {
                    self.mortar_lane(b, l, f, subs, traces, ws, out);
                }
            }
        }
    }
}

impl BlockKernel<'_> {
    /// Scalar f32 mortar flux of one lane's coarse 2:1 face — the
    /// runtime-np port of the host's `FineNbrs` arm: interpolate my
    /// trace to each fine sub-face, flux against the fine neighbor's
    /// trace, lift through the mortar transpose.
    #[allow(clippy::too_many_arguments)]
    fn mortar_lane(
        &self,
        b: usize,
        l: usize,
        f: usize,
        subs: &[FineSub],
        traces: Option<&HaloData<'_, D3, f32>>,
        ws: &mut DeviceWs,
        out: &mut [f32],
    ) {
        let a = self.a;
        let np = a.np;
        let npe = np * np * np;
        let npf = np * np;
        let plane = npe * LANES;
        let fidx = &a.face_idx[f];
        let det = &a.det[b * plane..(b + 1) * plane];
        let tab = &a.face_tab;
        let slot0 = a.mortar_off[(b * LANES + l) * 6 + f] as usize;
        for (si, sub) in subs.iter().enumerate() {
            let normal = &a.mortar_nrm[(slot0 + si) * 3 * npf..][..3 * npf];
            let sj = &a.mortar_sj[(slot0 + si) * npf..][..npf];
            for c in 0..NCOMP {
                // My trace at the fine mortar points.
                for j in 0..npf {
                    ws.tmp[j] = ws.qm[(c * npf + j) * LANES + l];
                }
                let at = c * npf..(c + 1) * npf;
                sub.op
                    .apply(tab, 3, &ws.tmp, &mut ws.sweep, &mut ws.qms[at.clone()]);
                // The fine neighbor's trace, directly at its own face nodes.
                self.nbr_trace(
                    FaceOp::IDENTITY,
                    sub.nbr,
                    sub.nbr_face,
                    c,
                    traces,
                    &mut ws.sweep,
                    &mut ws.qps[at],
                );
            }
            // Quadrature-weighted flux jump per mortar point, in place of
            // my mortar trace.
            for j in 0..npf {
                let x = b * plane + fidx[j] * LANES + l;
                let m = [a.rho[x], a.lam[x], a.mu[x]];
                let n = [normal[j], normal[npf + j], normal[2 * npf + j]];
                let mut qmj = [0.0f32; NCOMP];
                let mut qpj = [0.0f32; NCOMP];
                for c in 0..NCOMP {
                    qmj[c] = ws.qms[c * npf + j];
                    qpj[c] = ws.qps[c * npf + j];
                }
                let d = penalty_flux(&qmj, &qpj, n, m);
                let w = a.wf[j] * sj[j];
                for (c, dc) in d.iter().enumerate() {
                    ws.qms[c * npf + j] = w * dc;
                }
            }
            // Lift through the mortar transpose, component by component.
            for (c, g) in ws.qms.chunks_exact(npf).enumerate() {
                sub.op
                    .apply_transpose(tab, 3, g, &mut ws.sweep, &mut ws.nbr);
                for (&v, h) in fidx.iter().zip(&ws.nbr) {
                    out[c * plane + v * LANES + l] += h / (a.wv[v] * det[v * LANES + l]);
                }
            }
        }
    }

    /// Component `c` of a neighbor's trace on its `nbr_face`, taken
    /// through `op` into `out` — from the compacted trace arena or the
    /// f32 halo.
    #[allow(clippy::too_many_arguments)]
    fn nbr_trace(
        &self,
        op: FaceOp,
        nbr: ElemRef,
        nbr_face: usize,
        c: usize,
        traces: Option<&HaloData<'_, D3, f32>>,
        scratch: &mut [f32],
        out: &mut [f32],
    ) {
        let npf = self.a.np * self.a.np;
        let tab = &self.a.face_tab;
        match nbr {
            ElemRef::Local(i) => {
                let theirs = &self.tr[((i as usize * 6 + nbr_face) * NCOMP + c) * npf..][..npf];
                op.apply(tab, 3, theirs, scratch, out);
            }
            ElemRef::Ghost(g) => {
                let (trace, pos) = traces
                    .expect("interior block classified with a ghost face")
                    .face_source(g as usize, nbr_face, c);
                op.apply_indexed(tab, 3, trace, pos, scratch, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Material;
    use crate::solver::{SeismicConfig, SeismicSolver};
    use forust::connectivity::builders;
    use forust::dim::D3;
    use forust::forest::Forest;
    use forust_comm::run_spmd;
    use forust_geom::{LatticeMap, Mapping};
    use std::sync::Arc;

    #[test]
    fn device_tracks_host_for_small_amplitudes() {
        run_spmd(1, |comm| {
            let conn = Arc::new(builders::unit3d());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(LatticeMap::new(conn));
            let cfg = SeismicConfig {
                degree: 2,
                min_level: 1,
                max_level: 1,
                f0: 2.0,
                src: [0.5, 0.5, 0.5],
                ..Default::default()
            };
            let model = |_p: [f64; 3]| Material {
                rho: 1.0,
                vp: 1.8,
                vs: 1.0,
            };
            let mut host = SeismicSolver::new(comm, forest, map, cfg, model);
            // Seed a smooth velocity pulse.
            let npe = host.mesh.re.nodes_per_elem(3);
            for e in 0..host.mesh.num_elements() {
                for v in 0..npe {
                    let p = host.geo.elem_pos(e)[v];
                    let r2 = (p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2);
                    host.q[e * npe * NCOMP + v] = (-r2 / 0.02).exp() * 1e-3;
                }
            }
            let mut dev = DeviceState::from_host(&host);
            assert!(dev.transfer_bytes() > 0);
            for _ in 0..3 {
                dev.step(&host, comm);
                host.step(comm);
            }
            let err = dev.rel_error_vs_host(&host, comm);
            assert!(err < 5e-4, "device diverged from f64 reference: {err}");
            // Round trip back to the host.
            let before = host.q.clone();
            dev.to_host(&mut host);
            assert_ne!(host.q, before);
        });
    }
}
