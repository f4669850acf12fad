//! Single-precision "device" tier for wave propagation.
//!
//! The paper's hybrid CPU–GPU dGea runs the wave-propagation solver in
//! single precision on the GPUs while p4est's AMR runs on the CPUs, with
//! an explicit mesh/data transfer step in between (Fig. 10): one time
//! loop, one set of element kernels, a different precision and a
//! different memory. Without GPUs, this module reproduces that split:
//!
//! - **One kernel, two precisions.** A device step is the host's: the
//!   shared [`forust_dg::Stepper`] over the elastic element kernel
//!   (the solver's `Kernel`), both instantiated at `R = f32`. Nothing
//!   about the RHS is written twice.
//! - **The transfer.** [`transfer_from_host`](DeviceState::transfer_from_host)
//!   demotes what the kernel reads — state, metric, material, source
//!   weight, face and mortar normals and surface Jacobians, operators —
//!   into f32 buffers in the host's layout. Topology is not copied: the
//!   kernel reads the host mesh's face classification. Buffer capacity is
//!   carried across adapt/transfer cycles; an already-transferred state
//!   that must actually allocate bumps the `device.transfer_grow` counter
//!   (mirroring `kernels.scratch_grow`).
//! - **f32 halo traffic.** Each RHS evaluation exchanges ghost face
//!   traces through the split-phase halo on its own f32 wire lane
//!   ([`forust_dg::halo::TAG_HALO_EXCHANGE_F32`]) — half the payload
//!   bytes of the f64 lane on top of the existing trace restriction.
//! - **Flush to zero.** Every pool job of a device step runs under the
//!   f32 lane's [`fp_scope`](forust_dg::HaloLane::fp_scope), as GPU
//!   arithmetic does.
//!
//! With one element per work unit the f32 arithmetic is element-local
//! exactly like the f64 tier's, so device steps are bitwise identical
//! across `FORUST_WORKERS` settings and across rank counts.
//!
//! Accuracy follows the paper's methodology: the f64 engine run is the
//! reference and device runs assert **relative-error bounds** (see
//! [`rel_error_vs_host`](DeviceState::rel_error_vs_host)), not bitwise
//! identity — plane-wave closed forms in [`crate::model`] anchor the
//! absolute error.

use forust_comm::{max_nan, Communicator};
use forust_dg::geometry::FaceGeo;
use forust_dg::real::refill;
use forust_dg::stepper::Stepper;
use forust_dg::FaceTables;

use crate::solver::{Kernel, SeismicSolver};

/// The device-resident state of one solver: f32 copies, in the host's
/// layout, of everything the element kernel reads, with persistent
/// capacity across transfers.
#[derive(Default)]
pub struct DeviceState {
    /// State, `(e * NCOMP + c) * npe + v`.
    q: Vec<f32>,
    /// Inverse Jacobian and determinant per volume node.
    inv: Vec<[[f32; 3]; 3]>,
    det: Vec<f32>,
    /// Face metric, `e * 6 + f`. A pool: never shrunk, so the per-face
    /// allocations survive a transfer onto a smaller mesh; the first
    /// `live_faces` entries are the current mesh's.
    faces: Vec<FaceGeo<f32>>,
    live_faces: usize,
    /// `(rho, lambda, mu)` and source spatial weight per volume node.
    mat: Vec<[f32; 3]>,
    srcw: Vec<f32>,
    /// Per-mesh constants: quadrature weights, differentiation matrix,
    /// face tables.
    wv: Vec<f32>,
    wf: Vec<f32>,
    diff: Vec<f32>,
    face_tab: FaceTables<f32>,
    /// The shared LSERK driver at `R = f32`: RK register and, per pool
    /// lane, one kernel workspace and one element's stage buffer.
    stepper: Stepper<f32>,
    /// Device clock (f64 so the Ricker stage times match the host's).
    pub time: f64,
    /// Steps taken: the host's count at transfer plus the device's own.
    steps: usize,
    transfers: u64,
    transfer_grow: u64,
}

impl DeviceState {
    /// Empty device state; populate it with
    /// [`transfer_from_host`](Self::transfer_from_host).
    pub fn new() -> Self {
        Self::default()
    }

    /// "Transfer the mesh and other initial data from CPU to GPU
    /// memory": demote everything the kernel reads. The caller times
    /// this (Fig. 10's `transf` column). Buffer capacity is carried across
    /// calls — a transfer after an adapt onto a shrinking-or-equal mesh
    /// allocates nothing but the mortar sub-faces that moved; one that
    /// must grow a buffer bumps `device.transfer_grow`.
    pub fn transfer_from_host(&mut self, s: &SeismicSolver) {
        let _span = forust_obs::span!("device.transfer");
        let f32_of = |x: &f64| *x as f32;
        let mut grew = refill(&mut self.q, &s.q, f32_of);
        grew |= self.stepper.fit(s.q.len());
        grew |= refill(&mut self.inv, &s.geo.inv_jac, |m| {
            m.map(|row| row.map(|x| x as f32))
        });
        grew |= refill(&mut self.det, &s.geo.det_jac, f32_of);
        grew |= refill(&mut self.mat, &s.mat, |m| m.map(|x| x as f32));
        grew |= refill(&mut self.srcw, &s.srcw, f32_of);
        self.live_faces = s.geo.faces.len();
        if self.faces.len() < self.live_faces {
            self.faces.resize_with(self.live_faces, FaceGeo::default);
        }
        for (host, dev) in s.geo.faces.iter().zip(&mut self.faces) {
            grew |= host.demote_into(dev);
        }
        if grew && self.transfers > 0 {
            self.transfer_grow += 1;
            forust_obs::counter_add("device.transfer_grow", 1);
        }
        self.transfers += 1;

        // The per-mesh constants: a few hundred values, not accounted.
        let re = &s.mesh.re;
        refill(&mut self.wv, &s.wv, f32_of);
        refill(&mut self.wf, &s.wf, f32_of);
        refill(&mut self.diff, &re.diff.data, f32_of);
        self.face_tab = re.face_tables.cast();
        self.time = s.time;
        self.steps = s.timers.steps;
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
        // Per face and mortar point a normal and a surface Jacobian.
        let live = &self.faces[..self.live_faces];
        let face_points =
            |f: &FaceGeo<f32>| f.sj.len() + f.subs.iter().map(|sub| sub.sj.len()).sum::<usize>();
        4 * (self.q.len()
            + self.inv.len() * 9
            + self.det.len()
            + self.mat.len() * 3
            + self.srcw.len()
            + live.iter().map(face_points).sum::<usize>() * 4)
    }

    /// Copy the state back to the host solver, with the clock and the
    /// step count (end of the device phase; the paper's GPU→CPU transfer
    /// before re-adapt).
    pub fn to_host(&self, s: &mut SeismicSolver) {
        for (h, &d) in s.q.iter_mut().zip(&self.q) {
            *h = d as f64;
        }
        s.time = self.time;
        s.timers.steps = self.steps;
    }

    /// Raw bits of the f32 state (q then the RK register as the last step
    /// left it), for determinism assertions: a device step must be
    /// bitwise invariant of worker count and partition, and a pure
    /// function of `(q, t)`.
    pub fn state_bits(&self) -> Vec<u32> {
        let both = self.q.iter().chain(self.stepper.register());
        both.map(|x| x.to_bits()).collect()
    }

    /// The device state as an f64 vector (`(e * NCOMP + c) * npe + v`,
    /// the host's layout) — for tests and diagnostics that compare
    /// against a reference without mutating a solver.
    pub fn state_f64(&self) -> Vec<f64> {
        self.q.iter().map(|&x| f64::from(x)).collect()
    }

    /// Global relative L∞ error of the device state against the host
    /// solver's f64 state: `max|q32 − q64| / max|q64|`. This is the
    /// quantity the accuracy tests bound (paper methodology: the f64
    /// run is the reference; single precision is checked against it).
    /// `NaN` on every rank if either state holds a `NaN` anywhere.
    pub fn rel_error_vs_host(&self, s: &SeismicSolver, comm: &impl Communicator) -> f64 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (&h, &d) in s.q.iter().zip(&self.q) {
            num = max_nan(num, (d as f64 - h).abs());
            den = max_nan(den, h.abs());
        }
        let num = comm.allreduce_max_f64(num);
        let den = comm.allreduce_max_f64(den);
        num / den.max(1e-300)
    }

    /// The disjoint parts of a device step: the stepper, the state, and
    /// the element kernel over the transferred copies and the host
    /// mesh's topology.
    pub(crate) fn parts<'a>(
        &'a mut self,
        s: &'a SeismicSolver,
    ) -> (&'a mut Stepper<f32>, &'a mut Vec<f32>, Kernel<'a, f32>) {
        let kernel = Kernel {
            mesh: &s.mesh,
            inv: &self.inv,
            det: &self.det,
            faces: &self.faces[..self.live_faces],
            mat: &self.mat,
            srcw: &self.srcw,
            wv: &self.wv,
            wf: &self.wf,
            face_idx: &s.face_idx,
            diff: &self.diff,
            tab: &self.face_tab,
            f0: s.config.f0,
            src_dir: s.config.src_dir.map(|x| x as f32),
        };
        (&mut self.stepper, &mut self.q, kernel)
    }

    /// One full LSERK step on the device: the shared [`Stepper`] over the
    /// element `Kernel`, both at `R = f32`. The host solver supplies
    /// the (static) mesh topology, the halo exchange and `dt`; all state
    /// arithmetic runs in f32 on the transferred copies, and the
    /// per-stage ghost trace exchange travels on the f32 wire lane,
    /// overlapped with the interior elements.
    pub fn step(&mut self, s: &SeismicSolver, comm: &impl Communicator) {
        {
            let _span = forust_obs::span!("device.step");
            let time = self.time;
            let (stepper, q, kernel) = self.parts(s);
            stepper.step(comm, &s.halo, q, time, s.dt, &kernel);
            self.time += s.dt;
            self.steps += 1;
        }
        // As on the host: after the step's spans have closed.
        forust_obs::step_mark(self.steps as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Material;
    use crate::solver::{SeismicConfig, NCOMP};
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

    /// One `NaN` on rank 1 of 2 — in the device state, then in the host
    /// state — reaches both ranks' error and velocity maxima, which the
    /// accuracy gates read, instead of being skipped by the fold.
    #[test]
    fn a_nan_on_one_rank_reaches_every_rank() {
        let out = run_spmd(2, |comm| {
            let conn = Arc::new(builders::unit3d());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(LatticeMap::new(conn));
            let cfg = SeismicConfig {
                degree: 1,
                min_level: 1,
                max_level: 1,
                ..Default::default()
            };
            let model = |_p: [f64; 3]| Material {
                rho: 1.0,
                vp: 1.8,
                vs: 1.0,
            };
            let mut host = SeismicSolver::new(comm, forest, map, cfg, model);
            host.q.iter_mut().for_each(|v| *v = 0.5);
            let mut dev = DeviceState::from_host(&host);
            let clean = (dev.rel_error_vs_host(&host, comm), host.max_velocity(comm));
            if comm.rank() == 1 {
                dev.q[2] = f32::NAN;
            }
            let dev_nan = dev.rel_error_vs_host(&host, comm);
            if comm.rank() == 1 {
                dev.q[2] = 0.5;
                host.q[1] = f64::NAN;
            }
            let host_nan = (dev.rel_error_vs_host(&host, comm), host.max_velocity(comm));
            (clean, dev_nan, host_nan)
        });
        for (rank, ((err, vmax), dev_nan, (host_err, host_vmax))) in out.into_iter().enumerate() {
            assert_eq!(err, 0.0, "rank {rank}");
            assert_eq!(vmax, 0.75f64.sqrt(), "rank {rank}");
            assert!(
                dev_nan.is_nan(),
                "rank {rank}: device NaN hidden ({dev_nan})"
            );
            assert!(
                host_err.is_nan(),
                "rank {rank}: host NaN hidden ({host_err})"
            );
            assert!(
                host_vmax.is_nan(),
                "rank {rank}: velocity NaN hidden ({host_vmax})"
            );
        }
    }
}
