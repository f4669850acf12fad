//! `forest_fractal`: the paper's Fig. 4 cycle on the six-cube forest.
//!
//! Each operation is one full AMR cycle from scratch: New → Refine
//! (fractal, three levels deep) → Partition → Balance(Full) → Partition →
//! Ghost → Nodes(degree 1), each public call timed from outside.

use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{Communicator, ThreadComm};

use crate::harness::{timed, Digest, Rec, Rng, Workload};
use crate::stats::median;

/// The paper's fractal rule refines children {0, 3, 5, 6}; its mirror
/// image {1, 2, 4, 7} costs the same by symmetry. The seed picks one of
/// the two per cycle.
const CHILD_SETS: [u8; 2] = [0b0110_1001, 0b1001_0110];

/// Levels the fractal rule refines below the uniform base level.
const FRACTAL_DEPTH: u8 = 3;

pub struct ForestFractal {
    base_level: u8,
    /// Child-id bit set of the warm-up cycle and of each timed cycle.
    child_sets: Vec<u8>,
}

impl ForestFractal {
    pub fn new(seed: u64, quick: bool) -> Self {
        // Level 2 → 45 954 octants after Balance, ≈0.15 s per cycle.
        let (base_level, cycles) = if quick { (1, 3) } else { (2, 5) };
        let mut rng = Rng(seed);
        ForestFractal {
            base_level,
            child_sets: (0..=cycles)
                .map(|_| CHILD_SETS[(rng.next_u64() >> 63) as usize])
                .collect(),
        }
    }

    /// One cycle; records the six per-call samples and the operation.
    fn cycle(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec, set: u8, record: bool) {
        let max_level = self.base_level + FRACTAL_DEPTH;
        let mut calls = [0.0; 6];
        let _cycle = forust_obs::span!("bench.cycle");
        let t0 = Instant::now();
        let (mut forest, dt) = timed("bench.new", || {
            Forest::<D3>::new_uniform(Arc::clone(&st.conn), comm, self.base_level)
        });
        calls[0] = dt;
        calls[1] = timed("bench.refine", || {
            forest.refine(comm, true, |_, o| {
                o.level < max_level && set >> o.child_id() & 1 == 1
            })
        })
        .1;
        let refined = forest.num_global();
        calls[2] = timed("bench.partition", || forest.partition(comm)).1;
        calls[3] = timed("bench.balance", || forest.balance(comm, BalanceType::Full)).1;
        calls[2] += timed("bench.partition", || forest.partition(comm)).1;
        let (ghost, dt) = timed("bench.ghost", || forest.ghost(comm));
        calls[4] = dt;
        let (nodes, dt) = timed("bench.nodes", || forest.nodes(comm, &ghost, 1));
        calls[5] = dt;
        comm.barrier();
        let wall = t0.elapsed().as_secs_f64();
        if record {
            for (span, dt) in SPANS.iter().zip(calls) {
                rec.push(span, dt);
            }
            rec.push("bench.cycle", wall);
            let octants = forest.num_global();
            // Balance only ever adds octants; every octant carries nodes.
            rec.op(wall, octants, octants >= refined && nodes.num_global > 0);
        }
        st.nodes_global = nodes.num_global;
        st.forest = Some(forest);
    }
}

const SPANS: [&str; 6] = [
    "bench.new",
    "bench.refine",
    "bench.partition",
    "bench.balance",
    "bench.ghost",
    "bench.nodes",
];

pub struct State {
    conn: Arc<Connectivity<D3>>,
    forest: Option<Forest<D3>>,
    nodes_global: u64,
}

impl Workload for ForestFractal {
    type State = State;

    fn setup(&self, comm: &ThreadComm, rec: &mut Rec) -> State {
        let mut st = State {
            conn: Arc::new(builders::rotcubes6()),
            forest: None,
            nodes_global: 0,
        };
        self.cycle(&mut st, comm, rec, self.child_sets[0], false);
        st
    }

    fn run_ops(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec) {
        for &set in &self.child_sets[1..] {
            self.cycle(st, comm, rec, set, true);
        }
        let forest = st.forest.as_ref().expect("a cycle ran");
        let moct_per_rank = forest.num_global() as f64 / comm.size() as f64 / 1e6;
        // Octant counts differ little between the two child sets, so the
        // last cycle's count normalises the medians.
        for (metric, span) in [
            ("amr_cycle_s_per_moct_rank", "bench.cycle"),
            ("balance_s_per_moct_rank", "bench.balance"),
            ("nodes_s_per_moct_rank", "bench.nodes"),
        ] {
            let local = median(&rec.samples[span]) / moct_per_rank;
            rec.set_max(metric, local);
        }
        rec.set_max("core.octants", forest.num_global() as f64);
    }

    fn check(&self, st: &mut State, comm: &ThreadComm, rec: &mut Rec, deep: bool) {
        let forest = st.forest.as_ref().expect("a cycle ran");
        let mut d = Digest::default();
        d.word(st.nodes_global);
        for (t, o) in forest.iter_local() {
            d.word(u64::from(t));
            d.word(o.morton());
            d.word(u64::from(o.level));
        }
        rec.digest = d.finish();
        if deep {
            // Both panic (and so fail the run) on a broken invariant.
            forest.check_valid(comm);
            forest.check_balanced(comm, BalanceType::Full);
            rec.check(true);
        }
    }

    fn replay(&self, _: &mut State, _: &ThreadComm, _: &mut Rec) {}
}
