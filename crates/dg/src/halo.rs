//! Split-phase, face-trace-only ghost exchange for dG solvers.
//!
//! The paper's `mangll` layer hides the parallel-boundary exchange behind
//! volume work: ghost unknowns are restricted to the element faces that
//! are actually read across the partition boundary, sent early, and the
//! dG update computes interior kernels while the messages are in flight
//! (SC10 §III). [`HaloExchange`] is that machinery, built once per mesh:
//!
//! - **Face-trace restriction scatter.** For every (mirror element,
//!   destination rank) pair, the faces visible to that rank are
//!   precomputed from the mesh's own face classification: a face is
//!   visible iff its [`FaceConn`] references a ghost owned by the
//!   destination. Only the dofs on those faces travel. The receiver
//!   derives the *same* face set for each ghost from its own face
//!   classification (the two views are symmetric, both being unions over
//!   the same element pairs), so the wire needs no index metadata beyond
//!   a one-byte cross-check mask per element. Edge- and corner-only
//!   ghosts — present in the (full) ghost layer for `Nodes`, but never
//!   read by face fluxes — send zero dofs.
//! - **Interior/boundary element partition.** Elements with no
//!   ghost-face neighbor are *interior*: their fluxes read only local
//!   data, so they can be computed while the exchange is in flight. The
//!   rest are *boundary* elements, computed after
//!   [`HaloPending::finish`].
//! - **Reusable scratch.** The unpacked traces land in a scratch buffer
//!   owned by the `HaloExchange`, reused every RK stage; a debug counter
//!   ([`scratch_grow_events`](HaloExchange::scratch_grow_events)) proves
//!   the steady state allocates nothing. (The per-message send buffers
//!   are owned by the transport and are inherently per-send.)
//!
//! ## Wire format (per destination rank)
//!
//! ```text
//! [ mask: u8 × n_entries ]  one face-visibility byte per mirror entry,
//!                           in the ghost layer's per-rank mirror order
//! [ payload: R-LE ]         for each entry, for each component c,
//!                           the entry's trace nodes (sorted volume-node
//!                           order), densely packed
//! ```
//!
//! `R` is the lane's precision ([`HaloLane`]): `f64` on the host lane,
//! `f32` on the device lane, which has its own tag and scratch but shares
//! every line of pack, unpack and read-view code.
//!
//! The mask bytes are a cheap integrity cross-check: the receiver asserts
//! each against its independently derived face set, so a connectivity
//! asymmetry fails loudly at the first exchange instead of silently
//! misaligning dofs.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use forust::dim::Dim;
use forust_comm::{Communicator, PendingExchange, TAG_COLLECTIVE};

use crate::mesh::{DgMesh, ElemRef, FaceConn};
use crate::real::Real;

/// Message tag of the face-trace halo exchange: its own lane just below
/// the reserved collective tag space (and distinct from the full-payload
/// ghost exchange tag), so traffic can be attributed per phase and an
/// in-flight exchange never interleaves with collectives issued between
/// `begin` and `finish`. At most one halo exchange may be in flight per
/// communicator at a time.
pub const TAG_HALO_EXCHANGE: u32 = TAG_COLLECTIVE - 32;

/// Message tag of the **single-precision** face-trace halo exchange (the
/// device backend's wire lane, Fig. 10 analogue). Its own tag keeps f32
/// traffic attributable separately from the f64 lane in `TrafficStats`,
/// which is how the ≤ 0.55× bytes contract is asserted.
pub const TAG_HALO_EXCHANGE_F32: u32 = TAG_COLLECTIVE - 80;

/// A precision the trace exchange can travel in, with the facts that
/// differ between the lanes: `f64` is the host lane, `f32` the device
/// lane. Everything else — pack, wire layout, unpack, read view — is one
/// implementation generic over the lane. Sealed: the lanes are the two
/// below, each with its own unpack scratch inside [`HaloExchange`].
pub trait HaloLane: Real + sealed::Lane {
    /// Message tag of this lane.
    const TAG: u32;
    /// Span around packing and posting the messages.
    const SPAN_BEGIN: &'static str;
    /// Span around waiting for and unpacking the messages.
    const SPAN_FINISH: &'static str;
    /// How the unpack assertions name the lane.
    const LABEL: &'static str;

    /// Enter the floating-point environment of this precision's
    /// arithmetic: the [`Stepper`](crate::Stepper) holds the guard around
    /// every pool job of a step, the RK update included. Nothing at
    /// `f64`; the `f32` tier flushes subnormals as a GPU does.
    fn fp_scope() -> impl Sized;
}

impl HaloLane for f64 {
    const TAG: u32 = TAG_HALO_EXCHANGE;
    const SPAN_BEGIN: &'static str = "halo.begin";
    const SPAN_FINISH: &'static str = "halo.finish";
    const LABEL: &'static str = "halo exchange";

    /// Strict IEEE, nothing to set.
    #[inline]
    fn fp_scope() -> impl Sized {}
}

impl HaloLane for f32 {
    const TAG: u32 = TAG_HALO_EXCHANGE_F32;
    const SPAN_BEGIN: &'static str = "halo.begin_f32";
    const SPAN_FINISH: &'static str = "halo.finish_f32";
    const LABEL: &'static str = "f32 halo exchange";

    #[inline]
    fn fp_scope() -> impl Sized {
        FtzScope::new()
    }
}

/// Flush-to-zero scope for the f32 tier's sweeps. GPUs flush f32
/// subnormals by default (CUDA's FTZ mode); on x86 we mirror that by
/// setting the FTZ and DAZ bits of MXCSR for the duration of one job —
/// every pool job the stepper runs at `R = f32`, the RK update included
/// (its f32 bits depend on it). Without it, the near-zero fields early in
/// a seismic run (a ramping Ricker source times a Gaussian spatial decay)
/// are subnormal in f32 — normal in the host's f64 — and every flux FLOP
/// traps into the microcode assist path, which measured as a ~5x
/// whole-step slowdown.
/// The previous control word is restored on drop so host f64 sweeps on
/// the same pool threads keep strict IEEE subnormals.
struct FtzScope {
    #[cfg(target_arch = "x86_64")]
    saved: u32,
}

impl FtzScope {
    #[inline]
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
    #[inline]
    fn drop(&mut self) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: restores the exact control word saved by `new`.
        #[allow(deprecated)]
        unsafe {
            std::arch::x86_64::_mm_setcsr(self.saved);
        }
    }
}

/// The crate-private half of [`HaloLane`]: which scratch a lane unpacks
/// into. Unnameable outside this module, so no other crate can implement
/// a lane or reach (and hold) an exchange's scratch lock.
mod sealed {
    use super::{Dim, HaloExchange, Mutex};

    /// Reusable unpack target of one lane of the trace exchange.
    #[derive(Debug, Default)]
    pub struct Scratch<R> {
        /// Ghost traces, ghost-major: ghost `g` occupies
        /// `off[g] * ncomp ..` with component-major layout `[c][node]`.
        pub data: Vec<R>,
        /// Times `data` had to grow. Steady-state RK stages must not bump
        /// this — asserted by a debug-counter test.
        pub grow_events: u64,
    }

    pub trait Lane: Sized {
        /// This lane's unpack scratch. The lanes have independent
        /// scratches, so a device exchange may overlap a host exchange.
        fn scratch<D: Dim>(halo: &HaloExchange<D>) -> &Mutex<Scratch<Self>>;
    }

    impl Lane for f64 {
        fn scratch<D: Dim>(halo: &HaloExchange<D>) -> &Mutex<Scratch<f64>> {
            &halo.scratch
        }
    }

    impl Lane for f32 {
        fn scratch<D: Dim>(halo: &HaloExchange<D>) -> &Mutex<Scratch<f32>> {
            &halo.scratch32
        }
    }
}
use sealed::Scratch;

/// One mirror element's contribution to one destination rank.
#[derive(Debug, Clone)]
struct SendEntry {
    /// Local element index.
    elem: u32,
    /// Faces of this element visible to the destination rank.
    mask: u8,
    /// Sorted union of the volume-node indices on the visible faces.
    nodes: Vec<u16>,
}

/// Precomputed split-phase, face-trace ghost exchange of one mesh.
///
/// Build once per [`DgMesh`] (rebuild after every adapt/partition, like
/// the mesh itself); then every RK stage is
/// [`begin`](Self::begin) → interior work → [`HaloPending::finish`] →
/// boundary work.
#[derive(Debug)]
pub struct HaloExchange<D: Dim> {
    npe: usize,
    /// Per destination rank: entries parallel to the ghost layer's
    /// `mirror_idx_by_rank` lists.
    send_entries: Vec<Vec<SendEntry>>,
    /// Per ghost: union of faces read by local elements.
    recv_mask: Vec<u8>,
    /// Per ghost: sorted trace node list (empty for edge/corner-only
    /// ghosts).
    recv_nodes: Vec<Vec<u16>>,
    /// Prefix offsets into the trace storage, in node units
    /// (`recv_off[g + 1] - recv_off[g]` = ghost `g`'s trace length).
    recv_off: Vec<usize>,
    /// Per ghost, per face: positions of that face's nodes (face-lattice
    /// order) within the ghost's trace list. `None` for invisible faces.
    face_pos: Vec<Vec<Option<Vec<u16>>>>,
    /// Ghost indices grouped by owner rank, in ghost (SFC) order — the
    /// receive-side mirror of `mirror_idx_by_rank`.
    ghosts_of_rank: Vec<Vec<u32>>,
    /// Local elements with no ghost-face neighbor: their face fluxes can
    /// be computed while the exchange is in flight.
    interior: Vec<u32>,
    /// Local elements with at least one ghost-face neighbor.
    boundary: Vec<u32>,
    scratch: Mutex<Scratch<f64>>,
    scratch32: Mutex<Scratch<f32>>,
    _dim: std::marker::PhantomData<D>,
}

impl<D: Dim> HaloExchange<D> {
    /// Precompute the trace scatter and element partition of `mesh`.
    pub fn build(mesh: &DgMesh<D>) -> Self {
        let dim = D::DIM as usize;
        let re = &mesh.re;
        let npe = re.nodes_per_elem(dim);
        let nel = mesh.num_elements();
        let nfaces = D::FACES;
        let ghost = &mesh.ghost;
        let nghost = ghost.ghosts.len();
        let p = ghost.mirror_idx_by_rank.len();
        let face_nodes: Vec<Vec<u16>> = (0..nfaces)
            .map(|f| re.face_nodes(dim, f).iter().map(|&i| i as u16).collect())
            .collect();

        // Walk the face classification once. Each ghost reference on a
        // local face sets one bit on both sides of the pair: the face of
        // the ghost we will read (receive side), and — symmetrically on
        // the owner — the face of our element the owner will read. The
        // same classification partitions elements into interior/boundary.
        let mut recv_mask = vec![0u8; nghost];
        let mut send_mask: HashMap<(u32, usize), u8> = HashMap::new();
        let mut is_boundary = vec![false; nel];
        for e in 0..nel {
            let mut note = |g: u32, nbr_face: usize, my_face: usize| {
                recv_mask[g as usize] |= 1 << nbr_face;
                let owner = ghost.ghost_owner[g as usize];
                *send_mask.entry((e as u32, owner)).or_default() |= 1 << my_face;
                is_boundary[e] = true;
            };
            for f in 0..nfaces {
                match &mesh.faces[e * nfaces + f] {
                    FaceConn::Boundary => {}
                    FaceConn::Conforming { nbr, nbr_face, .. }
                    | FaceConn::CoarseNbr { nbr, nbr_face, .. } => {
                        if let ElemRef::Ghost(g) = nbr {
                            note(*g, *nbr_face, f);
                        }
                    }
                    FaceConn::FineNbrs { subs } => {
                        for sub in subs {
                            if let ElemRef::Ghost(g) = sub.nbr {
                                note(g, sub.nbr_face, f);
                            }
                        }
                    }
                }
            }
        }

        // Sorted union of the face node sets selected by `mask`.
        let trace_nodes = |mask: u8| -> Vec<u16> {
            let mut nodes: Vec<u16> = (0..nfaces)
                .filter(|f| mask >> f & 1 == 1)
                .flat_map(|f| face_nodes[f].iter().copied())
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        };

        // Send side: per destination rank, in the ghost layer's per-rank
        // mirror order (which matches the receiver's ghost order).
        let send_entries: Vec<Vec<SendEntry>> = (0..p)
            .map(|r| {
                ghost.mirror_idx_by_rank[r]
                    .iter()
                    .map(|&mi| {
                        let elem = mesh.mirror_elem[mi];
                        let mask = send_mask.get(&(elem, r)).copied().unwrap_or(0);
                        SendEntry {
                            elem,
                            mask,
                            nodes: trace_nodes(mask),
                        }
                    })
                    .collect()
            })
            .collect();

        // Receive side: trace layout and the per-face scatter positions.
        let mut recv_nodes = Vec::with_capacity(nghost);
        let mut recv_off = Vec::with_capacity(nghost + 1);
        let mut face_pos = Vec::with_capacity(nghost);
        let mut off = 0usize;
        for g in 0..nghost {
            let nodes = trace_nodes(recv_mask[g]);
            let pos: Vec<Option<Vec<u16>>> = (0..nfaces)
                .map(|f| {
                    (recv_mask[g] >> f & 1 == 1).then(|| {
                        face_nodes[f]
                            .iter()
                            .map(|n| {
                                nodes.binary_search(n).expect("face node in trace union") as u16
                            })
                            .collect()
                    })
                })
                .collect();
            recv_off.push(off);
            off += nodes.len();
            recv_nodes.push(nodes);
            face_pos.push(pos);
        }
        recv_off.push(off);

        let mut ghosts_of_rank: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (g, &owner) in ghost.ghost_owner.iter().enumerate() {
            ghosts_of_rank[owner].push(g as u32);
        }

        let interior = (0..nel as u32)
            .filter(|&e| !is_boundary[e as usize])
            .collect();
        let boundary = (0..nel as u32)
            .filter(|&e| is_boundary[e as usize])
            .collect();

        HaloExchange {
            npe,
            send_entries,
            recv_mask,
            recv_nodes,
            recv_off,
            face_pos,
            ghosts_of_rank,
            interior,
            boundary,
            scratch: Mutex::default(),
            scratch32: Mutex::default(),
            _dim: std::marker::PhantomData,
        }
    }

    /// Rebuild the exchange for a changed mesh (after adapt, partition
    /// or checkpoint restore), **reusing** the unpack scratch buffers.
    ///
    /// Dropping the old `HaloExchange` and calling [`build`](Self::build)
    /// would throw the steady-state allocation away, forcing a scratch
    /// grow on the first exchange after every adapt; `rebuild` carries
    /// the buffers' capacity over and resets
    /// [`scratch_grow_events`](Self::scratch_grow_events) to zero, so the
    /// counter always reads "grow events since this mesh was built" and
    /// an adapt on a shrinking-or-equal mesh allocates nothing.
    pub fn rebuild(&mut self, mesh: &DgMesh<D>) {
        let _span = forust_obs::span!("halo.rebuild");
        let fresh = Self::build(mesh);
        fresh.adopt_scratch::<f64>(self);
        fresh.adopt_scratch::<f32>(self);
        *self = fresh;
    }

    /// Take over `old`'s lane-`R` scratch allocation, emptied.
    fn adopt_scratch<R: HaloLane>(&self, old: &Self) {
        let mut new = self.lock_scratch::<R>();
        std::mem::swap(&mut new.data, &mut old.lock_scratch::<R>().data);
        new.data.clear();
    }

    /// Local elements with no ghost-face neighbor, safe to update while
    /// the exchange is in flight.
    pub fn interior(&self) -> &[u32] {
        &self.interior
    }

    /// Local elements with at least one ghost-face neighbor; update them
    /// after [`HaloPending::finish`].
    pub fn boundary(&self) -> &[u32] {
        &self.boundary
    }

    /// Times lane `R`'s reusable unpack scratch had to grow. Constant
    /// across steady-state RK stages (the first exchange sizes it).
    pub fn scratch_grow_events<R: HaloLane>(&self) -> u64 {
        self.lock_scratch::<R>().grow_events
    }

    /// Total trace dofs received per exchange, per component — the
    /// face-trace analogue of `ghosts.len() * npe`.
    pub fn trace_len(&self) -> usize {
        *self.recv_off.last().unwrap_or(&0)
    }

    /// Bytes this rank puts on the wire per exchange of `ncomp`
    /// components (payload only, before CRC framing).
    pub fn send_bytes_per_exchange(&self, ncomp: usize) -> u64 {
        self.send_bytes::<f64>(ncomp)
    }

    /// Bytes this rank puts on the wire per **f32** exchange of `ncomp`
    /// components (payload only, before CRC framing): same mask byte per
    /// entry, 4-byte values — `(1 + 4·ncomp·nodes) / (1 + 8·ncomp·nodes)`
    /// of the f64 lane per entry, i.e. strictly under 0.55× for any
    /// non-empty trace with `ncomp ≥ 1`.
    pub fn send_bytes_per_exchange_f32(&self, ncomp: usize) -> u64 {
        self.send_bytes::<f32>(ncomp)
    }

    fn send_bytes<R: Real>(&self, ncomp: usize) -> u64 {
        self.send_entries
            .iter()
            .flatten()
            .map(|e| (e.nodes.len() * ncomp * R::WIRE_BYTES + 1) as u64)
            .sum()
    }

    fn lock_scratch<R: HaloLane>(&self) -> MutexGuard<'_, Scratch<R>> {
        // A panicking holder leaves nothing half-updated that the next
        // exchange does not overwrite, so a poisoned lock is recovered.
        R::scratch(self).lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Start the trace exchange of a host-layout field in precision `R`:
    /// `local` holds `ncomp` components per element, component-major
    /// within the element (`e`'s chunk is `npe * ncomp` long with layout
    /// `[c][node]`). Every message goes on the wire under the lane's own
    /// tag; complete with [`HaloPending::finish`]. Both lanes' bytes land
    /// in the same `halo.bytes_sent` counter and `halo.bytes_per_exchange`
    /// histogram, so the f32 lane's halved traffic is visible to the same
    /// dashboards.
    pub fn begin<'a, R: HaloLane, C: Communicator>(
        &'a self,
        comm: &'a C,
        local: &[R],
        ncomp: usize,
    ) -> HaloPending<'a, C, D, R> {
        let _span = forust_obs::span!(R::SPAN_BEGIN);
        let npe = self.npe;
        // One message buffer per destination rank, each packed serially
        // from read-only state: fanning the per-rank packs out over the
        // worker pool leaves every byte of every buffer unchanged.
        let outgoing: Vec<Vec<u8>> = forust_pool::par_map(self.send_entries.len(), 1, |r| {
            let entries = &self.send_entries[r];
            let payload: usize = entries.iter().map(|en| en.nodes.len()).sum();
            let mut buf = vec![0u8; entries.len() + payload * ncomp * R::WIRE_BYTES];
            for (b, en) in buf.iter_mut().zip(entries) {
                *b = en.mask;
            }
            let mut cur = entries.len();
            for en in entries {
                for c in 0..ncomp {
                    let comp = &local[(en.elem as usize * ncomp + c) * npe..][..npe];
                    for &n in &en.nodes {
                        comp[n as usize].write_le(&mut buf[cur..]);
                        cur += R::WIRE_BYTES;
                    }
                }
            }
            buf
        });
        let bytes_sent: u64 = outgoing.iter().map(|b| b.len() as u64).sum();
        forust_obs::counter_add("halo.bytes_sent", bytes_sent);
        forust_obs::histogram!("halo.bytes_per_exchange", bytes_sent);
        HaloPending {
            halo: self,
            pending: comm.start_alltoallv_bytes(outgoing, R::TAG),
            ncomp,
            _lane: std::marker::PhantomData,
        }
    }

    /// Blocking wrapper: [`begin`](Self::begin) followed immediately by
    /// [`HaloPending::finish`].
    pub fn exchange<'a, R: HaloLane, C: Communicator>(
        &'a self,
        comm: &'a C,
        local: &[R],
        ncomp: usize,
    ) -> HaloData<'a, D, R> {
        self.begin(comm, local, ncomp).finish()
    }

    /// Unpack the received buffers into lane `R`'s scratch and hand out
    /// the read view.
    fn unpack<R: HaloLane>(&self, incoming: Vec<Vec<u8>>, ncomp: usize) -> HaloData<'_, D, R> {
        let mut scratch = self.lock_scratch::<R>();
        let needed = self.trace_len() * ncomp;
        if needed > scratch.data.capacity() {
            scratch.grow_events += 1;
            forust_obs::counter_add("halo.scratch_grow", 1);
            let additional = needed - scratch.data.len();
            scratch.data.reserve(additional);
        }
        scratch.data.clear();
        scratch.data.resize(needed, R::ZERO);
        for (r, buf) in incoming.iter().enumerate() {
            let ghosts = &self.ghosts_of_rank[r];
            let payload: usize = ghosts
                .iter()
                .map(|&g| self.recv_nodes[g as usize].len())
                .sum();
            assert_eq!(
                buf.len(),
                ghosts.len() + payload * ncomp * R::WIRE_BYTES,
                "{}: rank {r} sent a malformed trace buffer",
                R::LABEL
            );
            let mut cur = ghosts.len();
            for (i, &g) in ghosts.iter().enumerate() {
                let g = g as usize;
                assert_eq!(
                    buf[i],
                    self.recv_mask[g],
                    "{}: face-visibility mask mismatch for ghost {g} from rank {r}",
                    R::LABEL
                );
                let len = self.recv_nodes[g].len();
                let base = self.recv_off[g] * ncomp;
                for k in 0..len * ncomp {
                    scratch.data[base + k] = R::read_le(&buf[cur..]);
                    cur += R::WIRE_BYTES;
                }
            }
        }
        HaloData {
            halo: self,
            scratch,
            ncomp,
        }
    }
}

/// An in-flight halo exchange on lane `R`: complete it with
/// [`finish`](Self::finish) once the interior work is done.
#[must_use = "complete the halo exchange with finish()"]
pub struct HaloPending<'a, C: Communicator, D: Dim, R: HaloLane = f64> {
    halo: &'a HaloExchange<D>,
    pending: PendingExchange<'a, C>,
    ncomp: usize,
    _lane: std::marker::PhantomData<R>,
}

impl<'a, C: Communicator, D: Dim, R: HaloLane> HaloPending<'a, C, D, R> {
    /// Block until the exchange completes and unpack the ghost traces.
    pub fn finish(self) -> HaloData<'a, D, R> {
        let _span = forust_obs::span!(R::SPAN_FINISH);
        let incoming = self.pending.wait();
        self.halo.unpack(incoming, self.ncomp)
    }
}

/// Read view of the received ghost face traces of lane `R` (holds that
/// lane's scratch lock until dropped).
pub struct HaloData<'a, D: Dim, R: HaloLane = f64> {
    halo: &'a HaloExchange<D>,
    scratch: MutexGuard<'a, Scratch<R>>,
    ncomp: usize,
}

impl<D: Dim, R: HaloLane> HaloData<'_, D, R> {
    /// True if `face` of ghost `g` was exchanged (i.e. some local
    /// element reads it).
    pub fn has_face(&self, g: usize, face: usize) -> bool {
        self.halo.face_pos[g][face].is_some()
    }

    /// Write the trace of component `comp` of ghost `g` on `face` into
    /// `out` (face-lattice order, resized to nodes-per-face).
    ///
    /// Values are bitwise equal to indexing the ghost's full volume data
    /// with `RefElement::face_nodes` — the exchange moves fewer bytes,
    /// not different ones.
    pub fn face_values(&self, g: usize, face: usize, comp: usize, out: &mut Vec<R>) {
        let (trace, pos) = self.face_source(g, face, comp);
        out.clear();
        out.extend(pos.iter().map(|&k| trace[k as usize]));
    }

    /// Where the trace of component `comp` of ghost `g` on `face` lives:
    /// the ghost's raw trace and, per face node (face-lattice order), its
    /// position in it — what [`FaceOp::apply_indexed`] gathers through,
    /// without a staging copy.
    ///
    /// [`FaceOp::apply_indexed`]: crate::faceop::FaceOp::apply_indexed
    pub fn face_source(&self, g: usize, face: usize, comp: usize) -> (&[R], &[u16]) {
        debug_assert!(comp < self.ncomp);
        let pos = self.halo.face_pos[g][face]
            .as_deref()
            .unwrap_or_else(|| panic!("halo exchange: face {face} of ghost {g} was not exchanged"));
        (self.trace(g, comp), pos)
    }

    /// The raw trace of component `comp` of ghost `g` (sorted
    /// volume-node order, length = the ghost's trace length).
    pub fn trace(&self, g: usize, comp: usize) -> &[R] {
        let len = self.halo.recv_nodes[g].len();
        let base = self.halo.recv_off[g] * self.ncomp + comp * len;
        &self.scratch.data[base..base + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust::dim::D3;
    use forust::forest::{BalanceType, Forest};
    use forust_comm::run_spmd;
    use std::sync::Arc;

    /// Adapted rotated-cubes mesh with inter-tree rotations, 2:1 mortars
    /// and (for ranks > 1) ghost faces of every kind.
    fn rotcubes_mesh<C: Communicator>(comm: &C, degree: usize) -> DgMesh<D3> {
        let conn = Arc::new(builders::rotcubes6());
        let mut forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        forest.refine(comm, true, |t, o| t == 0 && o.level < 2 && o.y == 0);
        forest.balance(comm, BalanceType::Full);
        forest.partition(comm);
        DgMesh::build(&forest, comm, degree)
    }

    /// Rank-independent, node-distinguishing synthetic field: every
    /// (element, component, node) triple gets a unique value derived from
    /// the element's global identity.
    fn synthetic_field<D: forust::dim::Dim>(
        mesh: &DgMesh<D>,
        npe: usize,
        ncomp: usize,
    ) -> Vec<f64> {
        let mut u = vec![0.0; mesh.num_elements() * npe * ncomp];
        for (e, (t, o)) in mesh.elements.iter().enumerate() {
            let id = (*t as f64) * 1e9 + (o.morton() % (1 << 40)) as f64 + o.level as f64 * 1e7;
            for c in 0..ncomp {
                for n in 0..npe {
                    u[(e * ncomp + c) * npe + n] = id + (c * npe + n) as f64 * 1e-3;
                }
            }
        }
        u
    }

    /// The heart of the PR: for every ghost face a local element reads,
    /// the face-trace exchange must deliver values **bitwise identical**
    /// to indexing the full-payload exchange with `face_nodes` — on 1, 3
    /// and 5 ranks (conforming, rotated and mortar ghost faces alike).
    fn check_trace_matches_full_payload(ranks: usize) {
        run_spmd(ranks, |comm| {
            let mesh = rotcubes_mesh(comm, 2);
            let dim = 3;
            let re = &mesh.re;
            let npe = re.nodes_per_elem(dim);
            let ncomp = 2;
            let u = synthetic_field(&mesh, npe, ncomp);

            let full = mesh.exchange_element_data(comm, &u, npe * ncomp);
            let halo = HaloExchange::build(&mesh);
            let data = halo.exchange(comm, &u, ncomp);

            let mut faces_checked = 0u64;
            let mut out = Vec::new();
            for e in 0..mesh.num_elements() {
                for f in 0..6 {
                    let mut check = |g: u32, nbr_face: usize| {
                        let g = g as usize;
                        for c in 0..ncomp {
                            data.face_values(g, nbr_face, c, &mut out);
                            let base = (g * ncomp + c) * npe;
                            for (j, &n) in re.face_nodes(dim, nbr_face).iter().enumerate() {
                                let want = full[base + n];
                                assert!(
                                    out[j].to_bits() == want.to_bits(),
                                    "ghost {g} face {nbr_face} comp {c} node {j}: \
                                     trace {} != full {want}",
                                    out[j]
                                );
                            }
                        }
                        faces_checked += 1;
                    };
                    match mesh.face(e, f) {
                        FaceConn::Boundary => {}
                        FaceConn::Conforming { nbr, nbr_face, .. }
                        | FaceConn::CoarseNbr { nbr, nbr_face, .. } => {
                            if let ElemRef::Ghost(g) = nbr {
                                check(*g, *nbr_face);
                            }
                        }
                        FaceConn::FineNbrs { subs } => {
                            for sub in subs {
                                if let ElemRef::Ghost(g) = sub.nbr {
                                    check(g, sub.nbr_face);
                                }
                            }
                        }
                    }
                }
            }
            let total = comm.allreduce_sum_u64(faces_checked);
            if comm.rank() == 0 && ranks > 1 {
                assert!(total > 0, "no ghost faces exercised on {ranks} ranks");
            }

            // The point of the trace restriction: strictly fewer bytes on
            // the wire than the full-payload exchange (degree ≥ 2 ⇒ every
            // element has non-surface nodes that stay home).
            let full_bytes: u64 = mesh
                .ghost
                .mirror_idx_by_rank
                .iter()
                .map(|v| (v.len() * npe * ncomp * 8) as u64)
                .sum();
            let trace_bytes = halo.send_bytes_per_exchange(ncomp);
            assert!(
                trace_bytes <= full_bytes,
                "trace bytes {trace_bytes} exceed full payload {full_bytes}"
            );
            if full_bytes > 0 {
                assert!(
                    trace_bytes < full_bytes,
                    "trace restriction saved nothing ({trace_bytes} bytes)"
                );
            }
        });
    }

    #[test]
    fn trace_matches_full_payload_serial() {
        check_trace_matches_full_payload(1);
    }

    #[test]
    fn trace_matches_full_payload_3_ranks() {
        check_trace_matches_full_payload(3);
    }

    #[test]
    fn trace_matches_full_payload_5_ranks() {
        check_trace_matches_full_payload(5);
    }

    /// The interior/boundary partition is exact: disjoint, covering, and
    /// interior elements touch no ghost anywhere in their face lists.
    #[test]
    fn interior_boundary_partition_is_exact() {
        run_spmd(3, |comm| {
            let mesh = rotcubes_mesh(comm, 1);
            let halo = HaloExchange::build(&mesh);
            let mut seen = vec![false; mesh.num_elements()];
            for &e in halo.interior().iter().chain(halo.boundary()) {
                assert!(!seen[e as usize], "element {e} in both partitions");
                seen[e as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "partition does not cover the mesh");
            for &e in halo.interior() {
                for f in 0..6 {
                    let no_ghost = |r: &ElemRef| matches!(r, ElemRef::Local(_));
                    match mesh.face(e as usize, f) {
                        FaceConn::Boundary => {}
                        FaceConn::Conforming { nbr, .. } | FaceConn::CoarseNbr { nbr, .. } => {
                            assert!(no_ghost(nbr), "interior element {e} reads a ghost")
                        }
                        FaceConn::FineNbrs { subs } => {
                            for sub in subs {
                                assert!(no_ghost(&sub.nbr), "interior element {e} reads a ghost")
                            }
                        }
                    }
                }
            }
        });
    }

    /// Satellite: steady-state exchanges must reuse the scratch buffer —
    /// the grow counter moves at most once (first sizing) and never again.
    #[test]
    fn scratch_allocates_only_on_first_exchange() {
        run_spmd(4, |comm| {
            let mesh = rotcubes_mesh(comm, 2);
            let npe = mesh.re.nodes_per_elem(3);
            let ncomp = 3;
            let u = synthetic_field(&mesh, npe, ncomp);
            let halo = HaloExchange::build(&mesh);
            assert_eq!(halo.scratch_grow_events::<f64>(), 0);
            drop(halo.exchange(comm, &u, ncomp));
            let after_first = halo.scratch_grow_events::<f64>();
            assert!(after_first <= 1);
            for _ in 0..5 {
                drop(halo.exchange(comm, &u, ncomp));
            }
            assert_eq!(
                halo.scratch_grow_events::<f64>(),
                after_first,
                "steady-state halo exchange reallocated its scratch"
            );
            // Smaller payloads fit in the same allocation, too.
            let u1 = synthetic_field(&mesh, npe, 1);
            drop(halo.exchange(comm, &u1, 1));
            assert_eq!(halo.scratch_grow_events::<f64>(), after_first);
        });
    }

    /// Satellite: `rebuild` must reset the grow counter to zero and carry
    /// the scratch allocation over, so a rebuild on a same-size mesh
    /// performs no grow on its first exchange (unlike a fresh `build`).
    #[test]
    fn rebuild_resets_grow_counter_and_reuses_scratch() {
        run_spmd(3, |comm| {
            let mesh = rotcubes_mesh(comm, 2);
            let npe = mesh.re.nodes_per_elem(3);
            let ncomp = 3;
            let u = synthetic_field(&mesh, npe, ncomp);
            let mut halo = HaloExchange::build(&mesh);
            drop(halo.exchange(comm, &u, ncomp));
            let grew = halo.scratch_grow_events::<f64>();

            // Same mesh again: the rebuilt halo needs exactly the same
            // scratch, which rebuild carried over — zero grow events both
            // right after the rebuild and after the next exchange.
            halo.rebuild(&mesh);
            assert_eq!(halo.scratch_grow_events::<f64>(), 0);
            drop(halo.exchange(comm, &u, ncomp));
            assert_eq!(
                halo.scratch_grow_events::<f64>(),
                0,
                "rebuild dropped the scratch allocation"
            );

            // A fresh build by contrast starts cold and must grow (when
            // there is anything to receive at all).
            let cold = HaloExchange::build(&mesh);
            drop(cold.exchange(comm, &u, ncomp));
            assert_eq!(
                cold.scratch_grow_events::<f64>(),
                grew,
                "fresh build should repeat the first-exchange grow"
            );
        });
    }

    /// Collectives issued between `begin` and `finish` must not steal the
    /// in-flight trace messages (the halo runs on its own reserved tag).
    #[test]
    fn split_phase_tolerates_interleaved_collectives() {
        run_spmd(3, |comm| {
            let mesh = rotcubes_mesh(comm, 1);
            let npe = mesh.re.nodes_per_elem(3);
            let u = synthetic_field(&mesh, npe, 1);
            let full = mesh.exchange_element_data(comm, &u, npe);
            let halo = HaloExchange::build(&mesh);

            let pending = halo.begin(comm, &u, 1);
            // Interior-work stand-in: a collective.
            let total = comm.allreduce_sum_u64(mesh.num_elements() as u64);
            assert!(total > 0);
            let data = pending.finish();

            let mut out = Vec::new();
            for g in 0..mesh.ghost.ghosts.len() {
                for f in 0..6 {
                    if data.has_face(g, f) {
                        data.face_values(g, f, 0, &mut out);
                        for (j, &n) in mesh.re.face_nodes(3, f).iter().enumerate() {
                            assert_eq!(out[j].to_bits(), full[g * npe + n].to_bits());
                        }
                    }
                }
            }
        });
    }
}
