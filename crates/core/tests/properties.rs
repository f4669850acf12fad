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

/// A random octant of `level` inside the root.
fn rand_at_level<D: Dim>(rng: &mut Rng, level: u8) -> Octant<D> {
    let h = D::root_len() >> level;
    let mut c = [0; 3];
    for x in c.iter_mut().take(D::DIM as usize) {
        *x = rng.below(1 << level) as i32 * h;
    }
    Octant::from_coords(c, level)
}

/// `owner_of_atom` and `owner_range` against a brute-force scan of the
/// allgathered first octants: an atom belongs to the last rank whose
/// first octant does not follow it on the curve. Probes every rank's
/// first atom and the atom before it, random atoms, and random octants
/// at every level, in every tree. Returns the most ranks one tree spans.
fn check_owners<D: Dim>(f: &Forest<D>, comm: &impl Communicator, seed: u64, ctx: &str) -> usize {
    let firsts: Vec<Vec<(u32, Octant<D>)>> = comm.allgatherv(&Vec::from_iter(f.first_local()));
    let brute = |t: u32, a: Octant<D>| {
        let mut owner = 0;
        for (r, first) in firsts.iter().enumerate() {
            if first.first().is_some_and(|&x| x <= (t, a)) {
                owner = r;
            }
        }
        owner
    };
    let max = D::MAX_LEVEL;
    let k = f.conn.num_trees() as u32;
    let mut atoms: Vec<(u32, Octant<D>)> = Vec::new();
    for &(t, o) in firsts.iter().flatten() {
        let m = o.morton();
        atoms.push((t, from_morton(m, max)));
        atoms.extend(m.checked_sub(1).map(|m| (t, from_morton(m, max))));
    }
    let mut rng = Rng(seed);
    for t in 0..k {
        let root = Octant::<D>::root();
        atoms.extend([
            (t, root.first_descendant(max)),
            (t, root.last_descendant(max)),
        ]);
        atoms.extend((0..16).map(|_| (t, rand_at_level(&mut rng, max))));
        for level in 0..=max {
            for _ in 0..4 {
                let o = rand_at_level::<D>(&mut rng, level);
                let (lo, hi) = (o.first_descendant(max), o.last_descendant(max));
                let want = (brute(t, lo), brute(t, hi));
                assert_eq!(f.owner_range(t, &o), want, "{ctx}: tree {t} {o:?}");
                assert_eq!(f.owner_of_atom(t, &o), want.0, "{ctx}: tree {t} {o:?}");
            }
        }
    }
    for (t, a) in atoms {
        assert_eq!(
            f.owner_of_atom(t, &a),
            brute(t, a),
            "{ctx}: tree {t} atom {a:?}"
        );
        assert_eq!(f.owner_range(t, &a), (brute(t, a), brute(t, a)), "{ctx}");
    }
    // The ranks holding leaves of each tree.
    let mine: Vec<u32> = (0..k).filter(|&t| !f.tree(t).is_empty()).collect();
    let held = comm.allgatherv(&mine);
    (0..k)
        .map(|t| held.iter().filter(|ts| ts.contains(&t)).count())
        .max()
        .unwrap_or(0)
}

/// Owner lookup — `O(1)` in a tree one rank owns outright, a binary
/// search over the markers where the partition cuts it — against the
/// brute-force scan, on 1, 2, 3, 5 and 7 ranks, for uniform level-0
/// forests (some ranks empty on 7) and randomly refined, partitioned
/// ones (some tree cut across three ranks).
#[test]
fn owner_lookup_matches_a_scan_of_the_markers() {
    fn sweep<D: Dim>(name: &str, conn: fn() -> forust::Connectivity<D>, seed: u64) -> usize {
        let mut widest = 0;
        for p in [1usize, 2, 3, 5, 7] {
            for level in [0u8, 1] {
                let spans = run_spmd(p, |comm| {
                    let mut f = Forest::<D>::new_uniform(Arc::new(conn()), comm, level);
                    if level > 0 {
                        f.refine(comm, true, |t, o| {
                            let h = (o.morton() ^ (u64::from(t) << 40)).wrapping_mul(seed | 1);
                            o.level < 3 && (h >> 61) < 4
                        });
                        f.partition(comm);
                    } else if p > f.conn.num_trees() {
                        assert!(f.counts().contains(&0), "{name}: no empty rank");
                    }
                    let ctx = format!("{name}, level {level}, {p} ranks, rank {}", comm.rank());
                    check_owners(&f, comm, seed ^ comm.rank() as u64, &ctx)
                });
                widest = widest.max(spans[0]);
            }
        }
        widest
    }
    let widest = [
        sweep("rotcubes6", builders::rotcubes6, 11),
        sweep("cubed_sphere", builders::cubed_sphere, 12),
        sweep::<D2>("moebius", builders::moebius, 13),
    ];
    assert!(
        widest.iter().any(|&w| w >= 3),
        "no tree cut across 3 ranks: {widest:?}"
    );
}
