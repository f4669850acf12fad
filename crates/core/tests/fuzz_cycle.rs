//! Seeded randomized AMR-cycle fuzz suite.
//!
//! Loops refine → coarsen → balance → partition → ghost → nodes over three
//! macro topologies (`moebius`, `rotcubes6`, `cubed_sphere`) and three
//! rank counts (1, 3, 5), driven by a SplitMix64-seeded hash so every run
//! is deterministic. Each iteration asserts the full distributed invariant
//! set (`check_valid`, `check_balanced`) **and** that every recursive
//! rewrite matches its retained oracle octant-for-octant: batched
//! balance vs the one-split-at-a-time ripple (`balance_ripple`), the
//! pruned insulation-walk ghost vs the per-leaf scan
//! (`ghost_reference`), and, at degrees 1 and 2, the node numbering's
//! classification walk with its shortcuts on vs the same walk with them
//! off (`nodes_reference`).

use std::sync::Arc;

use forust::connectivity::builders;
use forust::connectivity::Connectivity;
use forust::dim::{Dim, D2, D3};
use forust::forest::{BalanceType, Forest};
use forust::octant::Octant;
use forust_comm::{run_spmd, Communicator};

/// SplitMix64 finalizer as a stateless hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-octant coin, identical on every rank.
fn coin<D: Dim>(seed: u64, t: u32, o: &Octant<D>) -> u64 {
    mix(seed ^ ((t as u64) << 56) ^ o.morton().wrapping_mul(0x2545_F491_4F6C_DD1D) ^ o.level as u64)
}

fn cycle<D: Dim>(conn_fn: fn() -> Connectivity<D>, name: &str, max_level: u8) {
    for &ranks in &[1usize, 3, 5] {
        run_spmd(ranks, |comm| {
            let conn = Arc::new(conn_fn());
            let mut f = Forest::<D>::new_uniform(conn, comm, 1);
            for iter in 0..3u64 {
                let seed = mix(0xF0F0 ^ iter ^ ((ranks as u64) << 32));
                f.refine(comm, false, |t, o| {
                    o.level < max_level && coin(seed, t, o) % 3 == 0
                });
                f.coarsen(comm, false, |t, fam| {
                    coin(seed ^ 0xC0A3, t, &fam[0].parent()) % 4 == 0
                });
                f.check_valid(comm);

                // Equivalence: batched balance vs the ripple oracle, on
                // identical inputs, must agree octant for octant.
                let mut batched = f.clone();
                batched.balance(comm, BalanceType::Full);
                let mut oracle = f.clone();
                oracle.balance_ripple(comm, BalanceType::Full);
                let got: Vec<(u32, Octant<D>)> =
                    batched.iter_local().map(|(t, o)| (t, *o)).collect();
                let want: Vec<(u32, Octant<D>)> =
                    oracle.iter_local().map(|(t, o)| (t, *o)).collect();
                assert_eq!(
                    got,
                    want,
                    "batched balance != ripple oracle ({name}, p={ranks}, iter={iter}, rank={})",
                    comm.rank()
                );

                f = batched;
                f.check_valid(comm);
                f.check_balanced(comm, BalanceType::Full);

                f.partition(comm);
                f.check_valid(comm);
                f.check_balanced(comm, BalanceType::Full);

                // Ghost layer: mirror/ghost duality must hold globally.
                let ghost = f.ghost(comm);
                let total_ghosts = comm.allreduce_sum_u64(ghost.ghosts.len() as u64);
                let my_sends: u64 = ghost
                    .mirror_idx_by_rank
                    .iter()
                    .map(|v| v.len() as u64)
                    .sum();
                let total_sends = comm.allreduce_sum_u64(my_sends);
                assert_eq!(total_ghosts, total_sends, "{name}, p={ranks}, iter={iter}");

                // Equivalence: the pruned insulation-walk ghost must match
                // the retained per-leaf oracle field for field.
                let oracle = f.ghost_reference(comm);
                let ctx = format!(
                    "ghost != ghost_reference ({name}, p={ranks}, iter={iter}, rank={})",
                    comm.rank()
                );
                assert_eq!(ghost.ghosts, oracle.ghosts, "{ctx}");
                assert_eq!(ghost.ghost_owner, oracle.ghost_owner, "{ctx}");
                assert_eq!(ghost.mirrors, oracle.mirrors, "{ctx}");
                assert_eq!(ghost.mirror_idx_by_rank, oracle.mirror_idx_by_rank, "{ctx}");

                // Equivalence: the shortcut walk must match the exhaustive
                // one node for node, at degree 1 and at a degree with
                // nodes inside faces and edges.
                for degree in [1, 2] {
                    let nodes = f.nodes(comm, &ghost, degree);
                    let nodes_o = f.nodes_reference(comm, &ghost, degree);
                    let ctx = format!(
                        "nodes != nodes_reference ({name}, p={ranks}, iter={iter}, N={degree}, rank={})",
                        comm.rank()
                    );
                    assert_eq!(nodes.keys, nodes_o.keys, "{ctx}");
                    assert_eq!(nodes.status, nodes_o.status, "{ctx}");
                    assert_eq!(nodes.element_nodes, nodes_o.element_nodes, "{ctx}");
                    assert_eq!(nodes.num_owned, nodes_o.num_owned, "{ctx}");
                    assert_eq!(nodes.global_offset, nodes_o.global_offset, "{ctx}");
                    assert_eq!(nodes.num_global, nodes_o.num_global, "{ctx}");
                    assert_eq!(nodes.shared_with, nodes_o.shared_with, "{ctx}");
                }
            }
        });
    }
}

#[test]
fn fuzz_cycle_moebius() {
    cycle::<D2>(builders::moebius, "moebius", 4);
}

#[test]
fn fuzz_cycle_rotcubes6() {
    cycle::<D3>(builders::rotcubes6, "rotcubes6", 3);
}

#[test]
fn fuzz_cycle_cubed_sphere() {
    cycle::<D3>(builders::cubed_sphere, "cubed_sphere", 3);
}
