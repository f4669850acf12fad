//! Exactly-once coverage suite for [`Forest::iterate`].
//!
//! On a 2:1-refined cubed sphere (3D) and Möbius strip (2D), across 1
//! and 3 ranks, a recording visitor asserts the full callback contract:
//! volume fires once per local leaf in SFC order; every local
//! `(element, face)` appears in exactly one face visit; hanging visits
//! carry [`Dim::FACE_CHILDREN`] half-size fine sides in ascending
//! fine-frame child order whose images under the side transforms nest
//! correctly.

use std::collections::HashMap;
use std::sync::Arc;

use forust::connectivity::{builders, Connectivity, TreeId};
use forust::dim::{Dim, D2, D3};
use forust::forest::{BalanceType, FaceSide, FaceVisit, Forest};
use forust::octant::Octant;
use forust::{LeafRef, Visit};
use forust_comm::{run_spmd, Communicator};

/// Records every callback and checks per-visit structural invariants.
struct Recorder<D: Dim> {
    volumes: Vec<(TreeId, Octant<D>)>,
    face_seen: HashMap<(u32, usize), usize>,
    hanging: usize,
}

impl<D: Dim> Recorder<D> {
    fn new() -> Self {
        Recorder {
            volumes: Vec::new(),
            face_seen: HashMap::new(),
            hanging: 0,
        }
    }

    fn note_face(&mut self, side: &FaceSide<D>) {
        if let LeafRef::Local(i) = side.elem {
            *self.face_seen.entry((i, side.face)).or_insert(0) += 1;
        }
    }
}

/// The octant adjacent to `side`, expressed in the opposite side's frame.
fn image<D: Dim>(side: &FaceSide<D>) -> Octant<D> {
    let nb = side.octant.face_neighbor(side.face);
    match &side.transform {
        Some(tr) => tr.apply_octant(&nb),
        None => nb,
    }
}

impl<D: Dim> Visit<D> for Recorder<D> {
    fn volume(&mut self, elem: LeafRef, tree: TreeId, octant: &Octant<D>) {
        assert_eq!(
            elem,
            LeafRef::Local(self.volumes.len() as u32),
            "volume visits must follow flat local SFC order"
        );
        self.volumes.push((tree, *octant));
    }

    fn face(&mut self, visit: &FaceVisit<D>) {
        match visit {
            FaceVisit::Boundary { side } => {
                assert!(
                    side.elem.is_local(),
                    "boundary faces are local by definition"
                );
                assert!(side.transform.is_none(), "boundary faces have no transform");
                self.note_face(side);
            }
            FaceVisit::Conforming { a, b } => {
                assert!(a.elem.is_local() || b.elem.is_local());
                assert_eq!(
                    a.octant.level, b.octant.level,
                    "conforming sides equal size"
                );
                // Each side's neighbor image must be exactly the other leaf.
                assert_eq!(image(a), b.octant, "side a maps onto side b");
                assert_eq!(image(b), a.octant, "side b maps onto side a");
                self.note_face(a);
                self.note_face(b);
            }
            FaceVisit::Hanging { coarse, fine } => {
                self.hanging += 1;
                assert_eq!(fine.len(), D::FACE_CHILDREN, "full fine-side complement");
                assert!(
                    coarse.elem.is_local() || fine.iter().any(|s| s.elem.is_local()),
                    "hanging visit must have a local participant"
                );
                // The coarse neighbor image, in the fine frame, is the
                // fine siblings' parent region.
                let img = image(coarse);
                for sub in fine {
                    assert_eq!(sub.octant.level, coarse.octant.level + 1);
                    assert!(img.contains(&sub.octant), "fine side inside coarse image");
                    // And each fine side maps back into the coarse leaf.
                    assert!(coarse.octant.contains(&image(sub)), "fine image in coarse");
                    assert_eq!(sub.tree, fine[0].tree, "fine sides share one frame");
                }
                for w in fine.windows(2) {
                    assert!(
                        w[0].octant.sfc_key() < w[1].octant.sfc_key(),
                        "fine sides ascend in fine-frame child order"
                    );
                }
                self.note_face(coarse);
                for sub in fine {
                    self.note_face(sub);
                }
            }
        }
    }
}

fn exhaustive<D: Dim>(conn_fn: fn() -> Connectivity<D>, name: &str) {
    for &ranks in &[1usize, 3] {
        run_spmd(ranks, |comm| {
            let conn = Arc::new(conn_fn());
            let mut f = Forest::<D>::new_uniform(conn, comm, 1);
            // Drive a refinement front into tree 0's origin corner so the
            // balanced forest carries genuine hanging faces.
            for _ in 0..2 {
                f.refine(comm, false, |t, o| {
                    t == 0 && o.x == 0 && o.y == 0 && o.z == 0 && o.level < 3
                });
            }
            f.balance(comm, BalanceType::Full);
            f.partition(comm);
            let ghost = f.ghost(comm);

            let mut rec = Recorder::<D>::new();
            f.iterate(&ghost, &mut rec);

            // Volume: once per local leaf, in SFC order.
            let want: Vec<(TreeId, Octant<D>)> = f.iter_local().map(|(t, o)| (t, *o)).collect();
            assert_eq!(rec.volumes, want, "{name}, p={ranks}: volume coverage");

            // Faces: every local (element, face) classified exactly once.
            let nlocal = want.len() as u32;
            assert_eq!(
                rec.face_seen.len(),
                want.len() * D::FACES,
                "{name}, p={ranks}: face slot count"
            );
            for i in 0..nlocal {
                for face in 0..D::FACES {
                    assert_eq!(
                        rec.face_seen.get(&(i, face)),
                        Some(&1),
                        "{name}, p={ranks}: elem {i} face {face} seen exactly once"
                    );
                }
            }

            // The refinement front guarantees hanging interfaces somewhere.
            let total_hanging = comm.allreduce_sum_u64(rec.hanging as u64);
            assert!(
                total_hanging > 0,
                "{name}, p={ranks}: expected hanging faces"
            );
        });
    }
}

#[test]
fn iterate_exhaustive_cubed_sphere() {
    exhaustive::<D3>(builders::cubed_sphere, "cubed_sphere");
}

#[test]
fn iterate_exhaustive_moebius() {
    exhaustive::<D2>(builders::moebius, "moebius");
}
