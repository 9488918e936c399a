//! Symmetric and **asymmetric Byzantine quorum systems** — the trust substrate
//! of the paper *"DAG-based Consensus with Asymmetric Trust"* (Amores-Sesar,
//! Cachin, Villacis, Zanolini; PODC 2025).
//!
//! In protocols with asymmetric trust each process `p_i` declares its own
//! *fail-prone system* `F_i` (which sets of processes it believes may jointly
//! fail) and derives its own *quorums* `Q_i`. This crate provides:
//!
//! * [`ProcessId`] / [`ProcessSet`] — dense process identifiers and bit-set
//!   process sets, the currency of all quorum mathematics;
//! * [`FailProneSystem`] / [`QuorumSystem`] — symmetric (global) systems with
//!   threshold, explicit, and slice-threshold (UNL-style) representations;
//! * [`AsymFailProneSystem`] / [`AsymQuorumSystem`] — the per-process arrays
//!   of Definition 2.1, with the **B³ condition** (Definition 2.3),
//!   consistency/availability validation (decided per pair of distinct
//!   systems by counting, enumerating only explicit systems) and
//!   canonical-quorum construction (Theorem 2.4);
//! * [`maximal_guild`] and process classification ([`ProcessClass`]) —
//!   wise/naive/faulty processes and guilds (Definition 2.2);
//! * [`counterexample`] — the paper's 30-process Figure-1 system on which the
//!   quorum-replacement gather provably fails;
//! * [`topology`] — generators (uniform threshold, Ripple-style UNLs,
//!   Stellar-style tiers, random slices) used by the experiment suite.
//!
//! # Quick start
//!
//! ```
//! use asym_quorum::{maximal_guild, topology, ProcessSet};
//!
//! // A 7-process system where everyone tolerates 2 failures.
//! let t = topology::uniform_threshold(7, 2);
//! assert!(t.fail_prone.satisfies_b3());
//! t.quorums.validate(&t.fail_prone)?;
//!
//! // With processes 5 and 6 actually faulty, the rest form the maximal guild.
//! let faulty = ProcessSet::from_indices([5, 6]);
//! let guild = maximal_guild(&t.fail_prone, &t.quorums, &faulty).unwrap();
//! assert_eq!(guild, ProcessSet::from_indices([0, 1, 2, 3, 4]));
//! # Ok::<(), asym_quorum::QuorumError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asymmetric;
pub mod combinatorics;
pub mod counterexample;
mod error;
mod guild;
mod pid;
mod set;
mod symmetric;
pub mod topology;
mod validation;

pub use asymmetric::{AsymFailProneSystem, AsymQuorumSystem};
pub use error::QuorumError;
pub use guild::{classify, is_guild, maximal_guild, wise_processes, ProcessClass};
pub use pid::{all_processes, ProcessId};
pub use set::{Iter, ProcessSet};
pub use symmetric::{FailProneSystem, QuorumSystem};
