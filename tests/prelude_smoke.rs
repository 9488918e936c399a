//! Workspace-wiring smoke test: every module re-exported by
//! [`asym_dag_rider::prelude`] (and the crate-level re-exports behind it)
//! must be importable, and a minimal 4-process symmetric configuration must
//! run a few waves end-to-end as a checked scenario through the umbrella
//! crate's re-exports.
//!
//! This test exists to catch manifest mistakes — a dropped dependency edge,
//! a renamed crate, a module that stops being re-exported — before any
//! deeper protocol test would hit a compile error.

use asym_dag_rider::prelude::*;

/// Every name the prelude promises must resolve. (Uses, not just imports,
/// so an accidental re-export of a different type also fails.)
#[test]
fn prelude_names_resolve_and_construct() {
    // asym_quorum re-exports.
    let p: ProcessId = ProcessId::new(3);
    assert_eq!(p.index(), 3);
    let full: ProcessSet = ProcessSet::full(4);
    assert_eq!(full.len(), 4);
    let fps: FailProneSystem = FailProneSystem::threshold(4, 1);
    let afps: AsymFailProneSystem = AsymFailProneSystem::uniform(fps);
    assert!(afps.satisfies_b3());
    let aqs: AsymQuorumSystem = afps.canonical_quorums();
    assert!(aqs.validate(&afps).is_ok());
    let _qs: &QuorumSystem = aqs.of(p);
    let guild = maximal_guild(&afps, &aqs, &ProcessSet::new());
    assert_eq!(guild, Some(ProcessSet::full(4)));

    // topology module.
    let t = topology::uniform_threshold(4, 1);
    assert_eq!(t.n(), 4);

    // asym_sim re-exports: the scheduler module and fault plumbing.
    let _fifo = scheduler::Fifo::default();
    let _random = scheduler::Random::new(7);
    let _mode: FaultMode = FaultMode::CrashedFromStart;

    // asym_core re-exports.
    let block: Block = Block::new(vec![1, 2, 3]);
    assert_eq!(block.txs.len(), 3);
    let cfg: RiderConfig = RiderConfig::default();
    assert!(cfg.max_waves >= 1);
}

/// The umbrella crate's own re-exported crates are reachable as modules.
#[test]
fn umbrella_module_re_exports_are_wired() {
    assert_eq!(asym_dag_rider::quorum::ProcessId::new(1).index(), 1);
    let d = asym_dag_rider::crypto::sha256(b"wiring");
    assert_eq!(d, asym_dag_rider::crypto::sha256(b"wiring"));
    let _ = asym_dag_rider::sim::scheduler::Fifo::default();
    let v = asym_dag_rider::dag::VertexId::new(0, ProcessId::new(0));
    assert_eq!(v.round, 0);
    // broadcast, gather, core and scenarios are exercised indirectly by the
    // scenario run below; here we only need their paths to resolve.
    use asym_dag_rider::broadcast as _;
    use asym_dag_rider::core as _;
    use asym_dag_rider::gather as _;
    use asym_dag_rider::scenarios as _;
}

/// One 4-process symmetric (uniform-threshold) wave pipeline end-to-end:
/// build, run, quiesce, and order the same transactions everywhere.
#[test]
fn four_process_symmetric_wave_end_to_end() {
    let scenario = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none(),
        SchedulerSpec::Fifo,
        1,
    )
    .waves(4);
    let outcome: ScenarioOutcome =
        checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));

    assert!(outcome.quiescent, "4-process symmetric run must quiesce");
    assert!(outcome.max_txs_ordered() > 0, "some transactions must be ordered");
    for p in &ProcessSet::full(4) {
        let delivered = outcome.delivered_txs(p);
        assert!(!delivered.is_empty(), "process {p} ordered nothing");
    }
}
