//! Partition invariance of the f32 device tier: with one element per work
//! unit its arithmetic is element-local exactly like the f64 tier's — a
//! neighbor's trace is the same f32 values whether read out of the local
//! state or off the f32 halo lane — so the state after three device steps
//! on the adapted shell, gathered in SFC order, must be **bitwise**
//! identical on 1, 3 and 5 ranks. (`device_matrix.rs` pins the other
//! axis: worker count.)

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::{run_spmd, Communicator};
use forust_dg::mesh::FaceConn;
use forust_geom::{Mapping, ShellMap};
use forust_seismic::{prem_like_at, DeviceState, SeismicConfig, SeismicSolver};

/// Global device state (SFC order) after three device steps on `ranks`
/// ranks, with the global mortar-face count.
fn run_on(ranks: usize) -> (Vec<u64>, u64) {
    let out = run_spmd(ranks, |comm| {
        let conn = Arc::new(builders::shell24());
        let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
        let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
        let config = SeismicConfig {
            degree: 3,
            min_level: 1,
            max_level: 2,
            f0: 3.0,
            ppw: 6.0,
            ..Default::default()
        };
        let host = SeismicSolver::new(comm, forest, map, config, prem_like_at);
        let mortars = host
            .mesh
            .faces
            .iter()
            .filter(|f| matches!(f, FaceConn::FineNbrs { .. }))
            .count();
        let mut dev = DeviceState::from_host(&host);
        for _ in 0..3 {
            dev.step(&host, comm);
        }
        // Ranks own contiguous SFC segments: concatenation is SFC order.
        let global = comm.allgatherv(&dev.state_f64());
        let bits = global.into_iter().flatten().map(f64::to_bits).collect();
        (bits, comm.allreduce_sum_u64(mortars as u64))
    });
    out.into_iter().next().unwrap()
}

#[test]
fn device_step_is_bitwise_invariant_of_rank_count() {
    let (serial, mortars) = run_on(1);
    assert!(mortars > 0, "adapted shell produced no mortar faces");
    assert!(
        serial.iter().any(|&w| f64::from_bits(w) != 0.0),
        "the source injected nothing in three steps"
    );
    for ranks in [3usize, 5] {
        let (other, _) = run_on(ranks);
        assert_eq!(
            serial.len(),
            other.len(),
            "{ranks} ranks: state sizes diverged"
        );
        let differing = serial.iter().zip(&other).filter(|(a, b)| a != b).count();
        assert_eq!(
            differing,
            0,
            "{ranks} ranks: {differing} of {} state words depend on the partition",
            serial.len()
        );
    }
}
