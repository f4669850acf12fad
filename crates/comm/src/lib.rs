//! # forust-comm — rank-parallel SPMD message-passing substrate
//!
//! The SC10 *Extreme-Scale AMR* paper runs its forest-of-octrees algorithms
//! on MPI across up to 224K Cray XT5 cores. This crate is the workspace's
//! substitute substrate: it provides a [`Communicator`] trait with MPI-like
//! semantics (point-to-point messages plus the collectives the paper's
//! algorithms use: `Allgather`, `Allgatherv`, `Allreduce`, exclusive `Scan`,
//! `Alltoallv`, `Barrier`) and an SPMD driver [`run_spmd`] that executes the
//! same rank function on `P` OS threads connected by unbounded mpsc
//! channels.
//!
//! Because every algorithm in the workspace is written against the trait and
//! communicates *only* through owned byte buffers, the algorithms are the
//! distributed-memory algorithms of the paper — the substitution changes the
//! transport, not the logic. Unbounded channels make every send non-blocking,
//! so the simple collective schedules used here are deadlock-free.
//!
//! Every communicator keeps per-rank [`TrafficStats`] (message and byte
//! counts, split by point-to-point vs. collective) so benchmark harnesses can
//! report communication volume alongside wall time, as the paper discusses
//! for `Balance` and `Ghost`.
//!
//! ## Fault model
//!
//! At the paper's 224K-core scale the substrate cannot be assumed
//! perfect, so this crate makes failure *explicit and injectable*:
//!
//! - all typed traffic and collectives travel in CRC32 envelopes
//!   ([`frame`]/[`unframe`]); corruption surfaces as a typed
//!   [`CommError`] naming the faulty `(src, tag)`, never as silent
//!   garbage;
//! - every receive is one blocking call under the transport's one
//!   receive deadline ([`run_spmd_with`], [`ThreadComm::create_with`]),
//!   which turns a deadlock into a [`CommError::Deadline`] diagnostic
//!   listing the blocked key and the pending mailbox; a dead peer surfaces
//!   as [`CommError::PeerDead`] naming it;
//! - [`ChaosComm`] wraps any communicator and injects seeded,
//!   reproducible faults from a [`FaultPlan`]: delivery delay/reordering,
//!   payload bit-corruption, and rank-crash at the Nth communication
//!   call ([`run_spmd_with`] surfaces the injected [`RankCrashed`]
//!   payload as the root cause);
//! - [`ReliableComm`] stacks *above* the fault layer and heals what the
//!   CRC detects: every framed message carries a per-link sequence
//!   number, and a broken receive triggers a bounded NACK/retransmit
//!   round (at most 8 requests) from the sender's retained outbox. It
//!   adds no deadline of its own. Healing activity is counted per tag in
//!   [`TrafficStats`] and exported as `comm.retry.*` pairs for the
//!   observability layer.
//!
//! ```
//! use forust_comm::{run_spmd, Communicator};
//!
//! let sums = run_spmd(4, |comm| {
//!     let mine = (comm.rank() + 1) as u64;
//!     comm.allreduce_sum_u64(mine)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

mod chaos;
mod communicator;
mod error;
mod reliable;
pub mod repro;
mod stats;
mod thread;
mod wire;

pub use chaos::{ChaosComm, CrashPoint, FaultPlan, RankCrashed};
pub use communicator::{Communicator, PendingExchange, TAG_COLLECTIVE};
pub use error::CommError;
pub use reliable::ReliableComm;
pub use repro::{allreduce_max_abs, allreduce_sum_f64_exact, max_nan, FixedPoint};
pub use stats::{StatsSnapshot, TagTraffic, TrafficStats};
pub use thread::{run_spmd, run_spmd_with, ThreadComm};
pub use wire::{crc32, frame, read_vec, try_read_vec, unframe, write_vec, FrameError, Wire};
