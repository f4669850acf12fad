//! Chaos: a rank crash in the *middle* of a split-phase ghost exchange —
//! after `exchange_begin` put the messages on the wire, before
//! `exchange_end` drained them — must be survivable. The survivors abort
//! (poison), the job restarts on fewer ranks, and the checkpoint written
//! before the exchange restores the forest and its payload
//! octant-for-octant.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::{read_dir, write_dir, BalanceType, Forest, SolverFormat};
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

/// The program under chaos: build an adapted forest, checkpoint it with a
/// per-leaf payload, then run a split-phase ghost exchange. Returns the
/// chaos call-clock reading right after `exchange_begin` (to aim the
/// crash), the exchanged ghost values, and the global forest signature.
fn program(comm: &ChaosComm<ThreadComm>, dir: &Path) -> (u64, Vec<u64>, Vec<u64>) {
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
    let values: Vec<u64> = ghost
        .mirrors
        .iter()
        .map(|(t, o)| (*t as u64) << 60 | o.morton())
        .collect();
    let pending = ghost.exchange_begin(comm, &values);
    let after_begin = comm.calls();
    let got = ghost.exchange_end(pending);
    (after_begin, got, global_signature(comm, &f))
}

#[test]
fn crash_between_exchange_begin_and_end_recovers_from_checkpoint() {
    const RANKS: usize = 3;
    const VICTIM: usize = 1;

    // Probe run, fault-free: learn the victim's call clock right after
    // exchange_begin returns, and the reference state.
    let probe_dir = tmpdir("probe");
    let pd = probe_dir.clone();
    let probe = run_spmd_with(
        RANKS,
        None,
        |tc| ChaosComm::new(tc, FaultPlan::new(0)),
        move |comm| program(comm, &pd),
    );
    let after_begin = probe[VICTIM].0;
    let reference_signature = probe[0].2.clone();
    assert!(after_begin > 0);

    // Crash run: the victim dies one communication call after its begin
    // returned — i.e. on the receive side of exchange_end, with its own
    // messages already in flight toward the survivors.
    let crash_dir = tmpdir("crash");
    let cd = crash_dir.clone();
    let plan = FaultPlan::new(0).with_crash(VICTIM, after_begin + 1);
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
    assert_eq!(crash.call, after_begin + 1);

    // Recovery on the survivors (one rank fewer): the checkpoint written
    // before the exchange restores the forest octant-for-octant, every
    // leaf carries its exact payload, and the split-phase exchange works
    // on the recovered forest.
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

        let ghost = f.ghost(comm);
        let values: Vec<u64> = ghost
            .mirrors
            .iter()
            .map(|(t, o)| (*t as u64) << 60 | o.morton())
            .collect();
        let pending = ghost.exchange_begin(comm, &values);
        let split = ghost.exchange_end(pending);
        let blocking = ghost.exchange(comm, &values);
        assert_eq!(split, blocking);
    });
}
