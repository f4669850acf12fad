//! The incremental geometry against its specification.
//!
//! - **Carry**: `MeshGeometry::rebuild` across cycles of refine, coarsen,
//!   balance and partition must equal a fresh `MeshGeometry::build` of the
//!   new mesh bit for bit, and must have evaluated exactly the elements
//!   that are not in the intersection of the old and new local octant
//!   sets. A moving indicator makes every cycle (after the warm-up from
//!   a uniform mesh) contain unchanged, refined, coarsened and
//!   rank-migrated elements and faces that gain, keep and lose their
//!   mortar.
//! - **Face from volume**: the face metric the builder derives from the
//!   stored volume metric must equal, bitwise, Nanson's formula applied to
//!   `Mapping::jacobian` evaluated at the face reference points — computed
//!   here through public API only.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use forust::connectivity::{builders, Connectivity, TreeId};
use forust::dim::{Dim, D2, D3};
use forust::forest::{BalanceType, Forest};
use forust::octant::Octant;
use forust_comm::{run_spmd, Communicator};
use forust_dg::geometry::MeshGeometry;
use forust_dg::mesh::{DgMesh, FaceConn};
use forust_geom::{octant_ref_coords, LatticeMap, Mapping, MoebiusMap, ShellMap};

type Key<D> = (TreeId, Octant<D>);

fn bits3(x: &[[f64; 3]]) -> Vec<[u64; 3]> {
    x.iter().map(|p| p.map(f64::to_bits)).collect()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Field-by-field `to_bits` equality of two geometries.
fn assert_same(got: &MeshGeometry, want: &MeshGeometry, what: &str) {
    assert_eq!(got.npe, want.npe, "{what}: npe");
    assert_eq!(bits3(&got.pos), bits3(&want.pos), "{what}: pos");
    assert_eq!(bits(&got.det_jac), bits(&want.det_jac), "{what}: det_jac");
    assert_eq!(got.inv_jac.len(), want.inv_jac.len(), "{what}: inv_jac");
    for (v, (a, b)) in got.inv_jac.iter().zip(&want.inv_jac).enumerate() {
        assert_eq!(bits3(a), bits3(b), "{what}: inv_jac of node {v}");
    }
    assert_eq!(got.faces.len(), want.faces.len(), "{what}: faces");
    for (i, (a, b)) in got.faces.iter().zip(&want.faces).enumerate() {
        assert_eq!(
            bits3(&a.normal),
            bits3(&b.normal),
            "{what}: face {i} normal"
        );
        assert_eq!(bits(&a.sj), bits(&b.sj), "{what}: face {i} sj");
        assert_eq!(a.subs.len(), b.subs.len(), "{what}: face {i} subs");
        for (s, (sa, sb)) in a.subs.iter().zip(&b.subs).enumerate() {
            let what = format!("{what}: face {i} sub {s}");
            assert_eq!(bits3(&sa.normal), bits3(&sb.normal), "{what} normal");
            assert_eq!(bits(&sa.sj), bits(&sb.sj), "{what} sj");
            assert_eq!(bits3(&sa.pos), bits3(&sb.pos), "{what} pos");
        }
    }
}

/// Which faces of each local element carry a mortar.
fn mortar_faces<D: Dim>(mesh: &DgMesh<D>) -> BTreeMap<Key<D>, Vec<bool>> {
    let is_mortar = |e: usize, f: usize| matches!(mesh.face(e, f), FaceConn::FineNbrs { .. });
    mesh.elements
        .iter()
        .enumerate()
        .map(|(e, &k)| (k, (0..D::FACES).map(|f| is_mortar(e, f)).collect()))
        .collect()
}

/// The cases an adapt cycle must contain, counted over all ranks.
const CASES: [&str; 7] = [
    "carried",
    "refined",
    "coarsened",
    "migrated",
    "mortar gained",
    "mortar lost",
    "mortar kept",
];

/// Drive `CYCLES` adapt cycles of a refinement blob that travels along
/// `path`, carrying one geometry through all of them.
fn carry_cycles<D: Dim>(
    ranks: usize,
    conn: fn() -> Connectivity<D>,
    map: fn(Arc<Connectivity<D>>) -> Box<dyn Mapping<D> + Send + Sync>,
    degree: usize,
    (min_level, max_level): (u8, u8),
    path: fn(usize) -> [f64; 3],
    radius: f64,
) {
    const CYCLES: usize = 7;
    run_spmd(ranks, move |comm| {
        let conn = Arc::new(conn());
        let map = map(Arc::clone(&conn));
        forust_obs::install(comm.rank());
        let mut forest = Forest::<D>::new_uniform(conn, comm, min_level);
        let mut mesh = DgMesh::build(&forest, comm, degree);
        let mut geo = MeshGeometry::build(&mesh, &*map);
        // What the `geometry.elements_*` counters must add up to.
        let (mut carried, mut evaluated) = (0, mesh.elements.len());
        for cycle in 0..CYCLES {
            // Squared distance of an octant's centre from the blob.
            let centre = path(cycle);
            let dist2 = |t: TreeId, o: &Octant<D>| -> f64 {
                let x = map.map(t, octant_ref_coords(o, [0.5; 3]));
                (0..3).map(|d| (x[d] - centre[d]).powi(2)).sum()
            };
            let near = radius * radius;
            let old_elements = mesh.elements.clone();
            let old_mortars = mortar_faces(&mesh);
            forest.refine(comm, false, |t, o| {
                o.level < max_level && dist2(t, o) < near
            });
            forest.coarsen(comm, false, |t, fam| {
                fam[0].level > min_level && fam.iter().all(|o| dist2(t, o) > 1.2 * near)
            });
            forest.balance(comm, BalanceType::Full);
            forest.partition(comm);
            mesh = DgMesh::build(&forest, comm, degree);
            let carry = geo.rebuild(&old_elements, &mesh, &*map);

            let what = format!("cycle {cycle}, rank {} of {ranks}", comm.rank());
            assert_same(&geo, &MeshGeometry::build(&mesh, &*map), &what);
            carried += carry.carried();
            // The fresh elements of the carry, then the full build above.
            evaluated += 2 * mesh.elements.len() - carry.carried();

            // The carry is exactly the octant-set intersection.
            let old_local: BTreeSet<&Key<D>> = old_elements.iter().collect();
            assert_eq!(carry.src.len(), mesh.elements.len(), "{what}");
            for (k, &src) in mesh.elements.iter().zip(&carry.src) {
                match src {
                    Some(i) => assert_eq!(old_elements[i as usize], *k, "{what}: wrong source"),
                    None => assert!(!old_local.contains(k), "{what}: {k:?} re-evaluated"),
                }
            }
            let kept = mesh.elements.iter().filter(|k| old_local.contains(k));
            assert_eq!(carry.carried(), kept.count(), "{what}");

            // The cycle exercised every case.
            let old_global: BTreeSet<Key<D>> = comm
                .allgatherv(&old_elements)
                .into_iter()
                .flatten()
                .collect();
            let mut cov = [0u64; 7];
            for (e, k) in mesh.elements.iter().enumerate() {
                let (t, o) = *k;
                cov[0] += carry.src[e].is_some() as u64;
                cov[1] += (o.level > 0 && old_global.contains(&(t, o.parent()))) as u64;
                cov[2] += old_global.contains(&(t, o.child(0))) as u64;
                cov[3] += (old_global.contains(k) && !old_local.contains(k)) as u64;
                let Some(before) = old_mortars.get(k) else {
                    continue;
                };
                for f in 0..D::FACES {
                    let now = matches!(mesh.face(e, f), FaceConn::FineNbrs { .. });
                    cov[4] += (now && !before[f]) as u64;
                    cov[5] += (!now && before[f]) as u64;
                    cov[6] += (now && before[f]) as u64;
                }
            }
            let cov = cov.map(|c| comm.allreduce_sum_u64(c));
            // The first cycles grow the nested refinement out of a uniform
            // mesh: nothing to coarsen yet, no mortar to lose or keep. The
            // four after them contain every case. One rank cannot migrate.
            let later = cycle >= CYCLES - 4;
            let required = [true, true, later, ranks > 1, true, later, later];
            for ((case, n), required) in CASES.iter().zip(cov).zip(required) {
                assert!(!required || n > 0, "{what}: no {case} element ({cov:?})");
            }
        }
        let report = forust_obs::uninstall().expect("recorder installed above");
        let probe = |list: &[(String, u64)], name: &str| {
            let hit = list.iter().find(|(n, _)| n == name);
            hit.unwrap_or_else(|| panic!("{name} not recorded")).1 as usize
        };
        let counters = &report.counters;
        assert_eq!(probe(counters, "geometry.elements_carried"), carried);
        assert_eq!(probe(counters, "geometry.elements_evaluated"), evaluated);
        assert_eq!(
            probe(&report.gauges, "mem.geometry_bytes"),
            geo.heap_bytes()
        );
    });
}

#[test]
fn rebuild_equals_fresh_build_on_the_shell() {
    for ranks in [1, 3, 5] {
        carry_cycles::<D3>(
            ranks,
            builders::shell24,
            |conn| Box::new(ShellMap::new(conn, 0.55, 1.0)),
            3,
            (1, 3),
            |cycle| {
                let a = 0.4 * cycle as f64;
                [0.8 * a.cos(), 0.8 * a.sin(), 0.1]
            },
            0.3,
        );
    }
}

#[test]
fn rebuild_equals_fresh_build_on_the_moebius_strip() {
    for ranks in [1, 3, 5] {
        // Degree 4 on an embedded 2-D surface: the frame-completion path.
        carry_cycles::<D2>(
            ranks,
            builders::moebius,
            |_| Box::new(MoebiusMap::new()),
            4,
            (2, 5),
            |cycle| {
                let a = 0.15 * cycle as f64 + 0.3;
                [2.0 * a.cos(), 2.0 * a.sin(), 0.0]
            },
            0.5,
        );
    }
}

/// 3x3 inverse and determinant by cofactors.
fn invert3(j: [[f64; 3]; 3]) -> ([[f64; 3]; 3], f64) {
    let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    let mut inv = [[0.0; 3]; 3];
    for r in 0..3 {
        for c in 0..3 {
            // Cofactor of entry (c, r), cyclic indices carry the sign.
            let (a, b) = ((c + 1) % 3, (c + 2) % 3);
            let (p, q) = ((r + 1) % 3, (r + 2) % 3);
            inv[r][c] = (j[a][p] * j[b][q] - j[a][q] * j[b][p]) / det;
        }
    }
    (inv, det)
}

/// Outward unit normal and surface Jacobian of face `f` of octant `o` at
/// face node `(a, b)`: Nanson's formula on the map's Jacobian evaluated
/// *at the face reference point*.
fn face_metric_from_map<D: Dim>(
    map: &dyn Mapping<D>,
    nodes: &[f64],
    (t, o): Key<D>,
    f: usize,
    (a, b): (usize, usize),
) -> ([f64; 3], f64) {
    let dim = D::DIM as usize;
    let axis = f / 2;
    let tang: Vec<usize> = (0..dim).filter(|&d| d != axis).collect();
    let mut frac = [0.0; 3];
    frac[axis] = (f % 2) as f64;
    frac[tang[0]] = 0.5 * (nodes[a] + 1.0);
    if dim == 3 {
        frac[tang[1]] = 0.5 * (nodes[b] + 1.0);
    }
    let jt = map.jacobian(t, octant_ref_coords(&o, frac));
    let scale = o.len() as f64 / (2.0 * D::root_len() as f64);
    let mut j = [[0.0; 3]; 3];
    for i in 0..3 {
        for d in 0..dim {
            j[i][d] = jt[i][d] * scale;
        }
    }
    if dim == 2 {
        // Embedded surface: the unit surface normal completes the frame.
        let (t1, t2) = ([j[0][0], j[1][0], j[2][0]], [j[0][1], j[1][1], j[2][1]]);
        let n = [
            t1[1] * t2[2] - t1[2] * t2[1],
            t1[2] * t2[0] - t1[0] * t2[2],
            t1[0] * t2[1] - t1[1] * t2[0],
        ];
        let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
        for i in 0..3 {
            j[i][2] = n[i] / len;
        }
    }
    let (inv, det) = invert3(j);
    let sgn = if f % 2 == 1 { 1.0 } else { -1.0 };
    let area = [0, 1, 2].map(|c| sgn * det.abs() * inv[axis][c]);
    let sj = (area[0] * area[0] + area[1] * area[1] + area[2] * area[2]).sqrt();
    (area.map(|c| c / sj), sj)
}

fn face_metric_matches_map<D: Dim>(conn: Connectivity<D>, map: &dyn Mapping<D>, level: u8) {
    let conn = Arc::new(conn);
    for degree in [1, 3, 6] {
        run_spmd(1, |comm| {
            // One refined corner per tree so 2:1 faces are in the mix.
            let mut forest = Forest::<D>::new_uniform(Arc::clone(&conn), comm, level);
            forest.refine(comm, false, |_, o| o.morton() == 0);
            forest.balance(comm, BalanceType::Full);
            let mesh = DgMesh::build(&forest, comm, degree);
            let geo = MeshGeometry::build(&mesh, map);
            let np = mesh.re.np;
            let nb = if D::DIM == 3 { np } else { 1 };
            for (e, &key) in mesh.elements.iter().enumerate() {
                for f in 0..D::FACES {
                    let fg = geo.face(e, f, D::FACES);
                    assert_eq!(fg.sj.len(), np * nb);
                    for b in 0..nb {
                        for a in 0..np {
                            let (n, sj) = face_metric_from_map(map, &mesh.re.nodes, key, f, (a, b));
                            let got = (fg.normal[b * np + a], fg.sj[b * np + a]);
                            assert_eq!(
                                (got.0.map(f64::to_bits), got.1.to_bits()),
                                (n.map(f64::to_bits), sj.to_bits()),
                                "degree {degree} element {e} face {f} node ({a}, {b}): \
                                 {got:?} vs {:?}",
                                (n, sj)
                            );
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn face_metric_is_the_map_jacobian_at_the_face_points() {
    let shell = Arc::new(builders::shell24());
    face_metric_matches_map(
        builders::shell24(),
        &ShellMap::new(Arc::clone(&shell), 0.55, 1.0),
        1,
    );
    // Left-handed tree frames: |det| orients the normal.
    let cubes = Arc::new(builders::rotcubes6());
    face_metric_matches_map(builders::rotcubes6(), &LatticeMap::new(cubes), 1);
    face_metric_matches_map::<D2>(builders::moebius(), &MoebiusMap::new(), 2);
}

/// The CFL step folds the per-node speed and reduces it across ranks
/// without dropping a `NaN`: one `NaN` node on rank 1 of 2 makes the step
/// `NaN` on both ranks; without it the step is the formula's.
#[test]
fn cfl_dt_is_nan_on_every_rank_when_one_node_is() {
    for nan in [false, true] {
        let dts = run_spmd(2, |comm| {
            let conn = Arc::new(builders::unit3d());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let mesh = DgMesh::build(&forest, comm, 2);
            let geo = MeshGeometry::build(&mesh, &LatticeMap::new(conn));
            let poisoned = nan && comm.rank() == 1;
            geo.cfl_dt(comm, 2, 0.5, |e, v, _| {
                if poisoned && (e, v) == (1, 3) {
                    f64::NAN
                } else {
                    2.0
                }
            })
        });
        for (rank, dt) in dts.iter().enumerate() {
            if nan {
                assert!(dt.is_nan(), "rank {rank}: dt {dt} hides the NaN speed");
            } else {
                assert_eq!(*dt, 0.5 * 2.0 / (2.0 * 9.0), "rank {rank}");
            }
        }
    }
}
