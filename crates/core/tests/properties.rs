//! Property-style tests of the core octant and forest invariants, driven
//! by randomized refinement patterns and rank counts from a hand-rolled
//! deterministic PRNG (the workspace builds with no external crates).

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::{Dim, D2, D3};
use forust::forest::{BalanceType, Forest};
use forust::linear;
use forust::octant::{from_morton, Octant};
use forust_comm::{run_spmd, Communicator};

/// SplitMix64: deterministic PRNG for the randomized sweeps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random valid octant, built from a random descent path.
fn rand_octant3(rng: &mut Rng) -> Octant<D3> {
    let depth = rng.below(10) as usize;
    let mut o = Octant::<D3>::root();
    for _ in 0..depth {
        o = o.child(rng.below(8) as usize);
    }
    o
}

fn rand_octant2(rng: &mut Rng) -> Octant<D2> {
    let depth = rng.below(12) as usize;
    let mut o = Octant::<D2>::root();
    for _ in 0..depth {
        o = o.child(rng.below(4) as usize);
    }
    o
}

#[test]
fn morton_roundtrip_3d() {
    let mut rng = Rng(1);
    for _ in 0..64 {
        let o = rand_octant3(&mut rng);
        assert_eq!(from_morton::<D3>(o.morton(), o.level), o);
    }
}

#[test]
fn parent_child_inverse() {
    let mut rng = Rng(2);
    for _ in 0..64 {
        let o = rand_octant3(&mut rng);
        if o.level > 0 {
            let p = o.parent();
            assert_eq!(p.child(o.child_id()), o);
            assert!(p.is_ancestor_of(&o));
        }
    }
}

#[test]
fn sfc_order_strict_and_nesting() {
    // Total order: exactly one of <, ==, > holds, and containment
    // implies SFC-interval containment.
    use std::cmp::Ordering::*;
    let mut rng = Rng(3);
    for _ in 0..64 {
        let a = rand_octant3(&mut rng);
        let b = rand_octant3(&mut rng);
        match a.cmp(&b) {
            Less => assert!(a < b),
            Greater => assert!(b < a),
            Equal => assert_eq!(a, b),
        }
        if a.is_ancestor_of(&b) {
            assert!(a <= b);
            assert!(b.last_descendant(D3::MAX_LEVEL) <= a.last_descendant(D3::MAX_LEVEL));
        }
    }
}

#[test]
fn neighbor_round_trips() {
    let mut rng = Rng(4);
    for _ in 0..64 {
        let o = rand_octant3(&mut rng);
        let f = rng.below(6) as usize;
        assert_eq!(o.face_neighbor(f).face_neighbor(f ^ 1), o);
    }
}

#[test]
fn refine_coarsen_roundtrip_2d() {
    // Refining a single leaf and coarsening greedily returns it.
    let mut rng = Rng(5);
    for _ in 0..64 {
        let o = rand_octant2(&mut rng);
        if o.level < D2::MAX_LEVEL {
            let mut v = vec![o];
            linear::refine_marked(&mut v, false, |_| true);
            assert_eq!(v.len(), 4);
            assert!(linear::is_linear(&v));
            linear::coarsen_marked(&mut v, false, |_| true);
            assert_eq!(v, vec![o]);
        }
    }
}

#[test]
fn linearize_produces_linear() {
    let mut rng = Rng(6);
    for _ in 0..64 {
        let count = 1 + rng.below(19) as usize;
        let mut octs: Vec<Octant<D3>> = (0..count)
            .map(|_| {
                let depth = rng.below(6) as usize;
                let mut o = Octant::<D3>::root();
                for _ in 0..depth {
                    o = o.child(rng.below(8) as usize);
                }
                o
            })
            .collect();
        octs.sort();
        linear::linearize(&mut octs);
        assert!(linear::is_linear(&octs));
    }
}

/// Randomized end-to-end invariant: for arbitrary refinement seeds and
/// rank counts, refine + balance + partition keeps the forest valid,
/// balanced, and identical in global content across rank counts.
#[test]
fn forest_pipeline_randomized() {
    let mut rng = Rng(7);
    for _ in 0..8 {
        let seed = rng.below(1000);
        let p = 1 + rng.below(4) as usize;
        let totals: Vec<u64> = [1usize, p]
            .iter()
            .map(|&ranks| {
                run_spmd(ranks, |comm| {
                    let conn = Arc::new(builders::cubed_sphere());
                    let mut f = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
                    f.refine(comm, true, |t, o| {
                        o.level < 3 && (o.morton() ^ seed.wrapping_mul(t as u64 + 1)) % 5 == 0
                    });
                    f.balance(comm, BalanceType::Full);
                    f.partition(comm);
                    f.check_valid(comm);
                    f.check_balanced(comm, BalanceType::Full);
                    // Ghost layer duals must match.
                    let ghost = f.ghost(comm);
                    let total_ghosts = comm.allreduce_sum_u64(ghost.ghosts.len() as u64);
                    let my_sends: u64 = ghost
                        .mirror_idx_by_rank
                        .iter()
                        .map(|v| v.len() as u64)
                        .sum();
                    let total_sends = comm.allreduce_sum_u64(my_sends);
                    assert_eq!(total_ghosts, total_sends);
                    f.num_global()
                })[0]
            })
            .collect();
        assert_eq!(totals[0], totals[1], "refinement depends on rank count");
    }
}

/// One recursive `refine` is the non-recursive `refine` iterated to its
/// fixpoint: the same local leaves on every rank, on 1 and 3 ranks, over
/// seeded level-capped predicates of `(tree, octant)` alone — the
/// property every solver's one-call pre-refinement rests on.
#[test]
fn recursive_refine_is_the_iterated_refine_fixpoint() {
    let conns = [
        ("rotcubes6", builders::rotcubes6 as fn() -> _),
        ("shell24", builders::shell24),
    ];
    let mut rng = Rng(39);
    let mut deepest = 0;
    for (name, build) in conns {
        for _ in 0..4 {
            let (seed, cap) = (rng.next(), 2 + rng.below(3) as u8);
            let mark = move |t: u32, o: &Octant<D3>| {
                let h = (o.morton() ^ (u64::from(o.level) << 58))
                    .wrapping_add(u64::from(t).wrapping_mul(0x9E37_79B9))
                    .wrapping_mul(seed | 1);
                o.level < cap && (h >> 61) < 3
            };
            for ranks in [1usize, 3] {
                let rounds = run_spmd(ranks, |comm| {
                    let conn = Arc::new(build());
                    let mut once = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
                    let mut iterated = once.clone();
                    once.refine(comm, true, mark);
                    let mut rounds = 0;
                    loop {
                        let before = iterated.num_global();
                        iterated.refine(comm, false, mark);
                        if iterated.num_global() == before {
                            break;
                        }
                        rounds += 1;
                    }
                    let leaves = |f: &Forest<D3>| -> Vec<(u32, Octant<D3>)> {
                        f.iter_local().map(|(t, o)| (t, *o)).collect()
                    };
                    assert_eq!(
                        leaves(&once),
                        leaves(&iterated),
                        "{name}, seed {seed:#x}, cap {cap}, {ranks} ranks"
                    );
                    assert_eq!(once.counts(), iterated.counts());
                    rounds
                });
                deepest = deepest.max(rounds[0]);
            }
        }
    }
    // Some predicate refined a child it had just made.
    assert!(deepest >= 2, "no case needed more than one round");
}
