//! The five workloads; `catalog::WORKLOADS` says why each exists.

pub mod advect;
pub mod forest;
pub mod mantle;
pub mod seismic;

use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::ThreadComm;
use forust_dg::geometry::MeshGeometry;
use forust_dg::mesh::DgMesh;
use forust_dg::HaloExchange;
use forust_geom::Mapping;

use crate::harness::{wall, Rec};
use crate::stats::median;

/// Blocking halo exchanges timed in the replay.
const HALO_EXCHANGES: usize = 50;

/// Replay of the dG layer's public calls on a workload's final state:
/// the three builds every set-up and every adapt pays for, and the
/// blocking f64 trace exchange of the final field.
#[allow(clippy::too_many_arguments)]
fn replay_dg(
    comm: &ThreadComm,
    rec: &mut Rec,
    forest: &Forest<D3>,
    degree: usize,
    map: &dyn Mapping<D3>,
    halo: &HaloExchange<D3>,
    field: &[f64],
    ncomp: usize,
) {
    let (mesh, mesh_s) = wall(|| DgMesh::build(forest, comm, degree));
    let (_, geometry_s) = wall(|| MeshGeometry::build(&mesh, map));
    let (_, halo_s) = wall(|| HaloExchange::build(&mesh));
    rec.set_max("dg.mesh_build_s", mesh_s);
    rec.set_max("dg.geometry_build_s", geometry_s);
    rec.set_max("dg.halo_build_s", halo_s);
    let walls: Vec<f64> = (0..HALO_EXCHANGES)
        .map(|_| wall(|| drop(halo.exchange(comm, field, ncomp))).1)
        .collect();
    rec.set_max("dg.halo_exchange_us", median(&walls) * 1e6);
    rec.set_sum(
        "dg.halo_bytes_per_exchange",
        halo.send_bytes_per_exchange(ncomp) as f64,
    );
}
