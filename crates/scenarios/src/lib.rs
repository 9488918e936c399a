//! Deterministic scenario-matrix harness for the asymmetric DAG-Rider
//! reproduction: **topology × fault-plan × adversary × seed** sweeps with a
//! library of reusable invariant checkers.
//!
//! The paper's central claims are *unconditional safety* and *liveness
//! whenever the surviving trust structure admits a guild*. A handful of
//! hand-written executions cannot exercise the cross-product of trust
//! structures and fault patterns where the interesting behaviour lives, so
//! this crate turns one execution into a datum:
//!
//! * [`Scenario`] — a plain-data descriptor of one execution: a
//!   [`TopologySpec`] (seed-replayable topology family), a [`FaultPlan`]
//!   (crash / mid-run crash / mute / crash-restart / Byzantine
//!   assignments), a [`SchedulerSpec`] (delivery adversary) and a seed,
//!   run by asymmetric DAG-Rider or, on threshold topologies, by the
//!   symmetric DAG-Rider baseline ([`ProtocolSpec`]);
//! * [`ScenarioOutcome`] — everything an execution observably produced:
//!   per-process outputs, commit logs, DAG snapshots, WAL replays, metrics,
//!   the guild;
//! * [`checks`] — invariant checkers over outcomes: total-order prefix
//!   consistency, validity/no-fabrication, DAG well-formedness,
//!   guild-liveness, coin-consistent commit logs, same-seed determinism,
//!   and the crash-recovery suite (no double delivery across a restart,
//!   restart prefix consistency, restart liveness, WAL/state equivalence);
//! * [`Matrix`] — cross-product sweeps with per-cell pass/fail reporting.
//!
//! The [`Fault::Restart`] axis equips a process with an `asym-storage`
//! write-ahead log, crashes it mid-run, and restarts it from that log: the
//! recovered process must rejoin, catch up and keep its delivered sequence
//! a prefix-consistent, duplicate-free match with everyone else. Recovery
//! is treated as an *attack surface*: [`StorageSpec`] injects powerloss
//! damage into the WAL at the crash, [`Fault::ByzantineRestart`] revives
//! an attacker that lies during its own recovery, and
//! [`ByzAttack::ForgeFetchReplies`] lies *to* a recovering process through
//! the catch-up fetch path — with [`checks::cross_dag_consistency`] and
//! [`checks::dag_no_fabrication`] proving none of it sticks.
//!
//! The **all-pruned** axis ([`Scenario::wal_everywhere`]) equips every
//! honest process with a pruning WAL, so a deep laggard can only rejoin
//! through delivered-state transfer (`asym_core::WaveSegment`s) — with
//! [`ByzAttack::ForgeStateOffers`] probing the kernel-matched install and
//! [`checks::state_transfer_consistency`] proving installed prefixes equal
//! an honest delivered prefix bit-for-bit. The persistence & recovery
//! lifecycle behind these axes is documented in `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! Every failure prints the exact `(topology, fault plan, scheduler, seed)`
//! tuple; [`replay`] re-executes it bit-for-bit.
//!
//! # Example
//!
//! ```
//! use asym_scenarios::{checks, FaultPlan, Scenario, SchedulerSpec, TopologySpec};
//!
//! let scenario = Scenario::new(
//!     TopologySpec::UniformThreshold { n: 4, f: 1 },
//!     FaultPlan::crash_from_start([3]),
//!     SchedulerSpec::Random,
//!     7,
//! );
//! let outcome = checks::run_and_check_all(&scenario).expect("all invariants hold");
//! assert!(outcome.quiescent);
//! // The same descriptor replays to the identical execution.
//! assert_eq!(asym_scenarios::replay(&scenario).outputs, outcome.outputs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod byzantine;
pub mod checks;
mod matrix;
mod runner;
mod spec;

pub use byzantine::{ByzAttack, ByzProcess, Party, FORGED_TX};
pub use checks::{replay, ScenarioFailure};
pub use matrix::{CellStats, CellStatus, Matrix, MatrixReport};
pub use runner::{ScenarioError, ScenarioOutcome};
pub use spec::{Fault, FaultPlan, ProtocolSpec, Scenario, SchedulerSpec, StorageSpec};

// Re-export so downstream tests can name topologies without an extra import.
pub use asym_quorum::topology::TopologySpec;

use asym_quorum::ProcessId;

/// Shorthand process-id constructor (the helper every integration test used
/// to re-implement).
pub fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}
