//! Chaos: a rank crash in the *middle* of a ghost-payload exchange —
//! after its last send put its messages on the wire, before it drained
//! its receives — must be survivable. The survivors abort (poison), the
//! job restarts on fewer ranks, and the checkpoint written before the
//! exchange restores the forest and its payload octant-for-octant.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{read_dir, write_dir, BalanceType, Forest, GhostLayer, SolverFormat};
use forust::octant::Octant;
use forust_comm::{
    run_spmd, run_spmd_with, ChaosComm, Communicator, FaultPlan, RankCrashed, ThreadComm,
};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("forust_split_recovery")
        .join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Three payload values per leaf.
const LEAF: SolverFormat = SolverFormat {
    magic: 0x4c45_4146,
    per_element: 3,
};

/// Per-leaf payload derived from the leaf identity alone, so the expected
/// recovered state is computable on any rank count.
fn leaf_payload(t: u32, o: &Octant<D3>) -> Vec<f64> {
    vec![t as f64, o.morton() as f64, o.level as f64]
}

/// Globally sorted `(tree, morton, level)` signature of the forest.
fn global_signature(comm: &impl Communicator, f: &Forest<D3>) -> Vec<u64> {
    let mine: Vec<u64> = f
        .iter_local()
        .flat_map(|(t, o)| [t as u64, o.morton(), o.level as u64])
        .collect();
    let mut all: Vec<u64> = comm
        .allgather_bytes(forust_comm::write_vec(&mine))
        .iter()
        .flat_map(|b| forust_comm::read_vec::<u64>(b))
        .collect();
    let mut triples: Vec<[u64; 3]> = all.chunks(3).map(|c| [c[0], c[1], c[2]]).collect();
    triples.sort_unstable();
    all = triples.into_iter().flatten().collect();
    all
}

/// Ghost payload: the ghost's own identity, so a received value can be
/// checked against the ghost it lands on.
fn ghost_payload(t: u32, o: &Octant<D3>) -> u64 {
    (t as u64) << 60 | o.morton()
}

/// Run the ghost exchange and check every ghost got its own payload.
fn exchange_and_check(comm: &impl Communicator, ghost: &GhostLayer<D3>) {
    let values: Vec<u64> = ghost
        .mirrors
        .iter()
        .map(|(t, o)| ghost_payload(*t, o))
        .collect();
    let got = ghost.exchange(comm, &values);
    let want: Vec<u64> = ghost
        .ghosts
        .iter()
        .map(|(t, o)| ghost_payload(*t, o))
        .collect();
    assert_eq!(got, want, "rank {}: ghost payloads", comm.rank());
}

/// The program under chaos: build an adapted forest, checkpoint it with a
/// per-leaf payload, then run the ghost exchange. Returns the chaos
/// call-clock readings right before and right after the exchange (to aim
/// the crash) and the global forest signature.
fn program(comm: &ChaosComm<ThreadComm>, dir: &Path) -> (u64, u64, Vec<u64>) {
    let conn = Arc::new(builders::rotcubes6());
    let mut f = Forest::<D3>::new_uniform(conn, comm, 1);
    f.refine(comm, true, |_, o| o.level < 2 && o.x == 0);
    f.balance(comm, BalanceType::Full);
    f.partition(comm);
    let chunks: Vec<f64> = f
        .iter_local()
        .flat_map(|(t, o)| leaf_payload(t, o))
        .collect();
    write_dir(
        comm,
        dir,
        &f.segment_bytes(comm.size(), LEAF, 1, 0.0, &chunks),
    )
    .unwrap();

    let ghost = f.ghost(comm);
    let before = comm.calls();
    exchange_and_check(comm, &ghost);
    let after = comm.calls();
    (before, after, global_signature(comm, &f))
}

#[test]
fn crash_mid_ghost_exchange_recovers_from_checkpoint() {
    const RANKS: usize = 3;
    const VICTIM: usize = 1;

    // Probe run, fault-free: learn the victim's call clock around the
    // exchange, and the reference state.
    let probe_dir = tmpdir("probe");
    let pd = probe_dir.clone();
    let probe = run_spmd_with(
        RANKS,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(0)),
        move |comm| program(comm, &pd),
    );
    let (before, after) = (probe[VICTIM].0, probe[VICTIM].1);
    let reference_signature = probe[0].2.clone();
    // The exchange sends to every peer first, then receives from each.
    assert_eq!(
        after - before,
        2 * (RANKS as u64 - 1),
        "one send and one receive per peer"
    );
    let last_send = before + (RANKS as u64 - 1);

    // Crash run: the victim dies one communication call after its last
    // send — on its first receive, with its own messages already in
    // flight toward the survivors.
    let crash_dir = tmpdir("crash");
    let cd = crash_dir.clone();
    let plan = FaultPlan::new(0).with_crash(VICTIM, last_send + 1);
    let caught = std::panic::catch_unwind(move || {
        run_spmd_with(
            RANKS,
            None,
            move |tc| ChaosComm::new(tc, plan.clone()),
            move |comm| program(comm, &cd),
        );
    });
    let payload = caught.expect_err("the injected crash must take the job down");
    let crash = payload
        .downcast_ref::<RankCrashed>()
        .expect("root cause should be the injected mid-exchange crash");
    assert_eq!(crash.rank, VICTIM);
    assert_eq!(crash.call, last_send + 1);

    // Recovery on the survivors (one rank fewer): the checkpoint written
    // before the exchange restores the forest octant-for-octant, every
    // leaf carries its exact payload, and the ghost exchange works on the
    // recovered forest.
    run_spmd(RANKS - 1, move |comm| {
        let conn = Arc::new(builders::rotcubes6());
        let blobs = read_dir(&crash_dir).expect("recoverable");
        let (f, chunks, meta) =
            Forest::from_segments::<f64>(conn, comm, &blobs, LEAF).expect("recoverable");
        assert_eq!(meta.epoch, 1);
        assert_eq!(
            global_signature(comm, &f),
            reference_signature,
            "recovered forest differs from the pre-crash state"
        );
        for ((t, o), chunk) in f.iter_local().zip(chunks.chunks(3)) {
            assert_eq!(chunk, &leaf_payload(t, o), "payload mismatch at {t}/{o:?}");
        }
        exchange_and_check(comm, &f.ghost(comm));
    });
}
