//! Gather (common-core) protocols — §2.4 and §3 of *"DAG-based Consensus
//! with Asymmetric Trust"* (PODC 2025).
//!
//! A *gather* protocol lets every process propose a value and delivers to
//! each process a set of `(process, value)` pairs such that a **common
//! core** — the proposals of a full quorum — is contained in every correct
//! output. This crate contains all three protocols the paper discusses, in
//! two implementations:
//!
//! * [`NaiveGather`] (Algorithms 1 and 2) — the `R`-round quorum-replacement
//!   gather. At `R = 3` over a uniform threshold system (quorums are the
//!   `n − f`-sets) it is Algorithm 1, the classic three-round threshold
//!   gather. At `R = 3` over an asymmetric system it is Algorithm 2,
//!   **shown unsound** by Lemma 3.2; [`Lemma32Scheduler`] reproduces the
//!   Appendix-A adversarial execution on the Figure-1 system. As §3 notes,
//!   `log₂ n + 1` rounds always suffice (Figure 1 needs 4), a latency that
//!   grows with `n`;
//! * [`AsymGather`] (Algorithm 3) — the paper's novel constant-round
//!   asymmetric gather with the ACK/READY/CONFIRM control layer;
//!
//! plus [`dataflow`], the pure set-union evaluator behind Listing 1 and
//! Figures 2–4, and [`common`], the shared value-set vocabulary and
//! common-core queries used by tests and experiments.
//!
//! # The negative result, in one doctest
//!
//! ```
//! use asym_gather::dataflow;
//!
//! // Three rounds of "hear exactly my quorum" on the Figure-1 system…
//! let quorums = dataflow::fig1_quorum_choice();
//! let sets = dataflow::three_rounds(&quorums);
//! // …leave NO process's S-set inside every U-set: no common core.
//! assert!(dataflow::common_core_candidates(&sets.s, &sets.u).is_empty());
//! // Algorithm 3 exists because of exactly this failure.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asymmetric;
pub mod common;
pub mod dataflow;
mod naive;

pub use asymmetric::{AsymGather, AsymGatherConfig, AsymGatherMsg};
pub use common::{
    check_pairwise_agreement, find_common_core, merge_pairs, pairs_subset, to_wire, ValueSet,
};
pub use naive::{Lemma32Scheduler, NaiveGather, NaiveGatherMsg};
