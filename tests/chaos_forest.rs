//! The forest algorithms under fault injection: `ChaosComm` is the
//! standing stress harness for Balance/Ghost/Partition — message
//! delay/reordering must never change any result, and injected
//! corruption must always surface as a typed error, never as a wrong
//! forest.

use std::sync::Arc;

use extreme_amr::comm::{run_spmd, run_spmd_with, ChaosComm, Communicator, FaultPlan};
use extreme_amr::forust::connectivity::builders;
use extreme_amr::forust::dim::D3;
use extreme_amr::forust::forest::{BalanceType, Forest};

/// Refine + balance + partition + ghost; returns fingerprints that any
/// transport fault would perturb: global count, per-rank counts, global
/// ghost count.
fn pipeline<C: Communicator>(comm: &C) -> (u64, Vec<u64>, u64) {
    let conn = Arc::new(builders::rotcubes6());
    let mut f = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    f.refine(comm, true, |t, o| {
        o.level < 3 && (o.morton() ^ t as u64) % 3 == 0
    });
    f.balance(comm, BalanceType::Full);
    f.partition(comm);
    f.check_valid(comm);
    f.check_balanced(comm, BalanceType::Full);
    let ghost = f.ghost(comm);
    let total_ghosts = comm.allreduce_sum_u64(ghost.ghosts.len() as u64);
    (f.num_global(), f.counts().to_vec(), total_ghosts)
}

#[test]
fn forest_pipeline_survives_message_delay_and_reordering() {
    const P: usize = 3;
    let clean = run_spmd(P, pipeline);
    for seed in 0..4u64 {
        let plan = FaultPlan::new(seed).with_delay(0.3);
        let chaotic = run_spmd_with(
            P,
            None,
            move |tc| ChaosComm::new(tc, plan.clone()),
            pipeline,
        );
        assert_eq!(
            clean, chaotic,
            "delay injection changed the result (seed {seed})"
        );
    }
}

#[test]
fn forest_pipeline_detects_injected_corruption() {
    const P: usize = 3;
    // With corruption on every message, the run must die with a typed
    // CRC diagnostic from the framing layer — never complete with a
    // silently wrong forest.
    for seed in 0..4u64 {
        let plan = FaultPlan::new(seed).with_corruption(1.0);
        let result = std::panic::catch_unwind(|| {
            run_spmd_with(
                P,
                None,
                move |tc| ChaosComm::new(tc, plan.clone()),
                pipeline,
            )
        });
        let payload = result.expect_err("corrupted run must not complete");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        // The resumed payload is either the CRC diagnostic itself or the
        // secondary fast-fail a peer raised after the detecting rank
        // died (the per-(src, tag) detection guarantee is unit-tested in
        // forust-comm's chaos suite) — never a clean completion.
        assert!(
            msg.contains("corrupt") || msg.contains("aborting") || msg.contains("peer"),
            "seed {seed}: expected a typed fault diagnostic, got: {msg}"
        );
    }
}
