//! # asym-dag-rider
//!
//! A complete, executable reproduction of *"DAG-based Consensus with
//! Asymmetric Trust"* (Ignacio Amores-Sesar, Christian Cachin, Juan
//! Villacis, Luca Zanolini — PODC 2025, arXiv:2505.17891), built as a Rust
//! workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`quorum`] | symmetric & asymmetric Byzantine quorum systems, B³, guilds, the Figure-1 counterexample, topology generators |
//! | [`sim`] | deterministic discrete-event simulator with adversarial schedulers and fault injection |
//! | [`crypto`] | from-scratch SHA-256, digests, the simulated common coin |
//! | [`broadcast`] | Bracha / asymmetric reliable broadcast, consistent broadcast |
//! | [`gather`] | Algorithms 1–3: symmetric gather, the failing quorum-replacement attempt, the constant-round asymmetric gather |
//! | [`dag`] | certified-DAG substrate: vertices, store, reachability, waves |
//! | [`storage`] | persistent DAG event log: checksummed WAL, snapshots, in-memory & file backends, crash-recovery replay |
//! | [`core`] | DAG-Rider (baseline) and asymmetric DAG-Rider (Algorithms 4–6), with WAL-backed crash recovery |
//! | [`scenarios`] | the one execution harness: a `Scenario` (topology × fault plan × scheduler × seed × protocol) run and audited by the invariant checkers |
//!
//! This umbrella crate re-exports everything. Every consensus execution —
//! in the examples, the integration tests and the experiment binaries — is
//! a [`Scenario`](scenarios::Scenario) audited by
//! [`checks::run_and_check_all`](scenarios::checks::run_and_check_all).
//!
//! ## Quick start
//!
//! ```
//! use asym_dag_rider::prelude::*;
//!
//! // A 7-process Ripple-style trust topology (overlapping UNLs).
//! let spec = TopologySpec::RippleUnl { n: 7, unl: 6, f: 1 };
//! assert!(spec.build().unwrap().fail_prone.satisfies_b3());
//!
//! let scenario = Scenario::new(spec, FaultPlan::none(), SchedulerSpec::Random, 99).waves(4);
//! // Runs the execution and audits total order, integrity, validity,
//! // DAG well-formedness, guild liveness and the rest of the suite.
//! let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
//! assert!(outcome.quiescent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asym_broadcast as broadcast;
pub use asym_core as core;
pub use asym_crypto as crypto;
pub use asym_dag as dag;
pub use asym_gather as gather;
pub use asym_quorum as quorum;
pub use asym_scenarios as scenarios;
pub use asym_sim as sim;
pub use asym_storage as storage;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use asym_core::{
        AsymDagRider, Block, DagLog, DagRider, OrderedVertex, RiderConfig, RiderMetrics,
    };
    pub use asym_quorum::{
        maximal_guild, topology, AsymFailProneSystem, AsymQuorumSystem, FailProneSystem, ProcessId,
        ProcessSet, QuorumSystem,
    };
    pub use asym_scenarios::{
        checks, Fault, FaultPlan, ProtocolSpec, Scenario, ScenarioOutcome, SchedulerSpec,
        TopologySpec,
    };
    pub use asym_sim::{scheduler, FaultMode, Simulation};
    pub use asym_storage::{MemStorage, Storage, StorageBackend};
}
