//! Accuracy contract of the f32 device backend (paper methodology: the
//! f64 engine run is the reference, single precision is validated
//! against it, and the plane-wave closed form anchors the absolute
//! error):
//!
//! - on a wavelength-adapted mesh with 2:1 mortar faces the device
//!   solution stays within the documented relative-error bound of the
//!   f64 reference on 1, 3 and 5 ranks;
//! - against the closed-form plane wave the device run is as accurate
//!   as the f64 run up to single-precision rounding;
//! - `transfer_from_host` reuses buffer capacity across adapt/transfer
//!   cycles (`device.transfer_grow` stays zero until the mesh outgrows
//!   every prior transfer);
//! - `to_host` hands back the clock and the step count, so a checkpoint
//!   written after a device phase records both;
//! - a device step is a pure function of `(q, t)`: a state rebuilt from
//!   the host copy before every step — what a checkpoint restart does —
//!   stays bit-identical, RK register included, to one stepped straight
//!   through.

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::{run_spmd, Communicator};
use forust_dg::mesh::FaceConn;
use forust_geom::{LatticeMap, Mapping, ShellMap};
use forust_seismic::{
    plane_wave_state, prem_like_at, DeviceState, SeismicConfig, SeismicSolver, NCOMP,
};

/// Documented device error bound (DESIGN.md §7g): relative L-infinity
/// deviation from the f64 reference after O(10) RK steps.
const DEVICE_REL_BOUND: f64 = 2e-4;

fn build_shell_deg(comm: &impl Communicator, max_level: u8, degree: usize) -> SeismicSolver {
    let conn = Arc::new(builders::shell24());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
    let config = SeismicConfig {
        degree,
        min_level: 1,
        max_level,
        f0: 3.0,
        ppw: 6.0,
        ..Default::default()
    };
    SeismicSolver::new(comm, forest, map, config, prem_like_at)
}

fn build_shell(comm: &impl Communicator, max_level: u8) -> SeismicSolver {
    build_shell_deg(comm, max_level, 3)
}

/// Count this rank's 2:1 mortar faces.
fn mortar_faces(s: &SeismicSolver) -> u64 {
    let mut n = 0;
    for e in 0..s.mesh.num_elements() {
        for f in 0..6 {
            if matches!(s.mesh.face(e, f), FaceConn::FineNbrs { .. }) {
                n += 1;
            }
        }
    }
    n
}

#[test]
fn device_tracks_f64_reference_on_adapted_mesh() {
    for ranks in [1usize, 3, 5] {
        run_spmd(ranks, |comm| {
            let mut host = build_shell(comm, 2);
            // The claim "adapted meshes no longer fall back to the host"
            // is vacuous without mortar faces in the run.
            let mortars = comm.allreduce_sum_u64(mortar_faces(&host));
            assert!(mortars > 0, "adapted shell mesh produced no mortar faces");

            let mut dev = DeviceState::from_host(&host);
            // Step through the early Ricker ramp so the field is active.
            for _ in 0..8 {
                dev.step(&host, comm);
                host.step(comm);
            }
            assert!(host.energy(comm) > 0.0, "source injected no energy");
            let err = dev.rel_error_vs_host(&host, comm);
            assert!(
                err < DEVICE_REL_BOUND,
                "device error {err:.3e} above documented bound {DEVICE_REL_BOUND:.0e} \
                 on {ranks} ranks"
            );
        });
    }
}

/// Absolute anchor: both tiers against a closed-form standing P wave in
/// a homogeneous cube (source parked outside the domain). With
/// `vs = vp/√2` the first Lamé parameter vanishes, so the x-directed
/// P wave carries no lateral stress and the superposition of the +x and
/// −x waves satisfies the traction-free condition on **all** cube faces
/// exactly — the closed form solves the full initial-boundary-value
/// problem and the comparison needs no interior filter. The f64 run
/// carries only discretization error; the device may add at most
/// single-precision-scale error on top.
#[test]
fn plane_wave_anchor_bounds_both_tiers() {
    run_spmd(1, |comm| {
        let conn = Arc::new(builders::unit3d());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 2);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(LatticeMap::new(conn));
        let config = SeismicConfig {
            degree: 3,
            min_level: 2,
            max_level: 2,
            f0: 0.5,
            ppw: 2.0,
            src: [50.0, 50.0, 50.0], // outside: zero source weight
            ..Default::default()
        };
        let vp = 1.8;
        let model = move |_p: [f64; 3]| forust_seismic::Material {
            rho: 1.0,
            vp,
            vs: vp / 2.0f64.sqrt(), // lambda = 0
        };
        let (wavelen, amp) = (1.0, 1e-3);
        let ex = [1.0, 0.0, 0.0];
        let mx = [-1.0, 0.0, 0.0];
        // Incident + free-surface-reflected P wave: traction-free at
        // x = 0 and x = 1 (and everywhere else, since lambda = 0).
        let exact = move |x: [f64; 3], t: f64| -> [f64; 9] {
            let a = plane_wave_state(ex, ex, vp, wavelen, amp, x, t);
            let b = plane_wave_state(mx, mx, vp, wavelen, amp, x, t);
            std::array::from_fn(|c| a[c] - b[c])
        };
        let mut host = SeismicSolver::new(comm, forest, map, config, model);
        let npe = host.mesh.re.nodes_per_elem(3);
        for e in 0..host.mesh.num_elements() {
            for v in 0..npe {
                let q0 = exact(host.geo.elem_pos(e)[v], 0.0);
                for (c, &qc) in q0.iter().enumerate() {
                    host.q[(e * NCOMP + c) * npe + v] = qc;
                }
            }
        }
        let mut dev = DeviceState::from_host(&host);
        for _ in 0..5 {
            dev.step(&host, comm);
            host.step(comm);
        }
        let dq = dev.state_f64();
        let mut host_err = 0.0f64;
        let mut dev_err = 0.0f64;
        let mut scale = 0.0f64;
        for e in 0..host.mesh.num_elements() {
            for v in 0..npe {
                let want = exact(host.geo.elem_pos(e)[v], host.time);
                for (c, &qc) in want.iter().enumerate() {
                    let i = (e * NCOMP + c) * npe + v;
                    host_err = host_err.max((host.q[i] - qc).abs());
                    dev_err = dev_err.max((dq[i] - qc).abs());
                    scale = scale.max(qc.abs());
                }
            }
        }
        assert!(scale > 0.0);
        // Observed discretization error ~2.4e-3 (4 elements and degree 3
        // per wavelength, 5 RK steps); bound it with 2x margin.
        assert!(
            host_err / scale < 5e-3,
            "f64 standing-wave error {:.3e} too large",
            host_err / scale
        );
        assert!(
            dev_err / scale < host_err / scale + 1e-3,
            "device standing-wave error {:.3e} vs f64 {:.3e}",
            dev_err / scale,
            host_err / scale
        );
    });
}

/// The 2N register is zeroed at the start of every step, not carried: a
/// carried register enters stage 0 as `0 · resid`, whose sign follows the
/// old value, and leaves exact zeros of the other sign behind wherever
/// the stage vector is itself a (flushed) zero.
#[test]
fn device_step_is_a_pure_function_of_state_and_time() {
    run_spmd(2, |comm| {
        let mut host = build_shell(comm, 2);
        let mut straight = DeviceState::from_host(&host);
        for step in 1..=7 {
            straight.to_host(&mut host);
            let mut restarted = DeviceState::from_host(&host);
            restarted.step(&host, comm);
            straight.step(&host, comm);
            let (a, b) = (straight.state_bits(), restarted.state_bits());
            let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(
                differing,
                0,
                "step {step}: {differing} of {} state words depend on the previous step's register",
                a.len()
            );
        }
    });
}

/// The device counts its steps from the host's count at transfer and
/// `to_host` hands both clock and count back: no caller patches
/// `timers.steps` by hand, and a checkpoint after a device phase is not
/// stale.
#[test]
fn to_host_restores_clock_and_step_count() {
    run_spmd(2, |comm| {
        let mut host = build_shell(comm, 2);
        let dt = host.dt;
        let mut dev = DeviceState::from_host(&host);
        let k = 3;
        let mut time = 0.0;
        for _ in 0..k {
            dev.step(&host, comm);
            time += dt;
        }
        assert_eq!(host.timers.steps, 0, "the host solver has not stepped");
        dev.to_host(&mut host);
        assert_eq!(host.timers.steps, k);
        assert_eq!(host.time.to_bits(), time.to_bits(), "time is k steps of dt");
        assert!((host.time - k as f64 * dt).abs() <= 1e-15 * host.time);

        // A second device phase continues the count where the host is.
        host.step(comm);
        dev.transfer_from_host(&host);
        dev.step(&host, comm);
        dev.to_host(&mut host);
        assert_eq!(host.timers.steps, k + 2);
    });
}

/// Buffer capacity persists across adapt/transfer cycles.
#[test]
fn transfer_reuses_capacity_across_adapt_cycles() {
    run_spmd(1, |comm| {
        let fine = build_shell(comm, 2);
        let coarse = build_shell(comm, 1);
        assert!(fine.mesh.num_elements() > coarse.mesh.num_elements());

        let mut dev = DeviceState::new();
        dev.transfer_from_host(&fine); // first transfer: sizing, free
        assert_eq!(dev.transfer_grow_events(), 0);
        dev.transfer_from_host(&coarse); // shrink: pure reuse
        assert_eq!(dev.transfer_grow_events(), 0);
        let mut coarse = coarse;
        dev.step(&coarse, comm); // device still functional after reuse
        dev.to_host(&mut coarse);
        dev.transfer_from_host(&fine); // back up: capacity was kept
        assert_eq!(
            dev.transfer_grow_events(),
            0,
            "re-transfer onto a previously-seen size must not reallocate"
        );

        // A genuinely larger state must grow — and be counted. Doubled
        // ppw forces deeper wavelength refinement, and degree 4 (np = 5)
        // also exercises the runtime-np kernel path.
        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = SeismicConfig {
            degree: 4,
            min_level: 1,
            max_level: 3,
            f0: 3.0,
            ppw: 12.0,
            ..Default::default()
        };
        let bigger = SeismicSolver::new(comm, forest, map, config, prem_like_at);
        assert!(
            bigger.mesh.num_elements() * bigger.mesh.re.nodes_per_elem(3)
                > fine.mesh.num_elements() * fine.mesh.re.nodes_per_elem(3)
        );
        dev.transfer_from_host(&bigger);
        assert_eq!(dev.transfer_grow_events(), 1, "growth was not counted");
    });
}
