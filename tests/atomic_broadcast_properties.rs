//! Integration matrix: asymmetric atomic broadcast properties
//! (Definition 4.1 — agreement, validity, total order, integrity) across
//! topologies × adversaries × failure patterns.
//!
//! Cells over the named topology families run as `asym_scenarios` cells
//! under the full checker suite (which subsumes the agreement / total-order
//! / integrity assertions this file used to hand-roll). Custom topologies
//! (Figure 1, mixed thresholds) keep the `Cluster` harness and borrow the
//! shared `assert_prefix_consistent` checker.

use asym_dag_rider::prelude::*;
use asym_scenarios::{checks, Fault, FaultPlan, Scenario, SchedulerSpec, TopologySpec};

/// Runs one scenario cell under every Definition-4.1 checker.
fn check(
    topology: TopologySpec,
    scheduler: SchedulerSpec,
    crashed: &[usize],
    seed: u64,
    waves: u64,
) {
    let scenario = Scenario::new(
        topology,
        FaultPlan::crash_from_start(crashed.iter().copied()),
        scheduler,
        seed,
    )
    .waves(waves)
    .blocks_per_process(2)
    .txs_per_block(3);
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.guild.is_some(), "{scenario}: these cells must keep a guild");
}

#[test]
fn threshold_4_random() {
    check(TopologySpec::UniformThreshold { n: 4, f: 1 }, SchedulerSpec::Random, &[], 1, 6);
}

#[test]
fn threshold_4_fifo_with_crash() {
    check(TopologySpec::UniformThreshold { n: 4, f: 1 }, SchedulerSpec::Fifo, &[2], 1, 8);
}

#[test]
fn threshold_7_latency_two_crashes() {
    check(
        TopologySpec::UniformThreshold { n: 7, f: 2 },
        SchedulerSpec::RandomLatency { min: 1, max: 40 },
        &[0, 1],
        9,
        8,
    );
}

#[test]
fn threshold_10_targeted_delay() {
    check(
        TopologySpec::UniformThreshold { n: 10, f: 3 },
        SchedulerSpec::TargetedDelay { victims: vec![7, 8, 9] },
        &[],
        1,
        5,
    );
}

#[test]
fn ripple_unl_random() {
    check(TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 }, SchedulerSpec::Random, &[], 4, 6);
}

#[test]
fn ripple_unl_crash_and_latency() {
    check(
        TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
        SchedulerSpec::RandomLatency { min: 5, max: 25 },
        &[3],
        2,
        8,
    );
}

#[test]
fn stellar_tiers_leaf_and_core_crash() {
    check(
        TopologySpec::StellarTiers { n: 10, core: 4, f_core: 1 },
        SchedulerSpec::Random,
        &[2, 9],
        6,
        8,
    );
}

#[test]
fn random_slice_topology() {
    check(
        TopologySpec::RandomSlices { n: 8, slice: 6, f: 1, seed: 11 },
        SchedulerSpec::Random,
        &[],
        12,
        6,
    );
}

#[test]
fn partition_then_heal_commits_everything() {
    check(
        TopologySpec::UniformThreshold { n: 7, f: 2 },
        SchedulerSpec::Partition { groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6]], heal_at: 1_000 },
        &[],
        1,
        6,
    );
}

#[test]
fn mute_and_mid_run_crash_under_latency() {
    // A cell the old hand-rolled harness could not express: omission +
    // mid-run crash faults under a latency adversary, still fully checked.
    let scenario = Scenario::new(
        TopologySpec::UniformThreshold { n: 7, f: 2 },
        FaultPlan::none().with(5, Fault::Mute).with(6, Fault::CrashAfter(200)),
        SchedulerSpec::RandomLatency { min: 1, max: 30 },
        8,
    )
    .waves(8);
    checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn figure1_counterexample_topology() {
    // Custom topology (no TopologySpec family): runs on the Cluster harness
    // with the shared prefix-consistency checker.
    let topo = topology::Topology {
        name: "figure-1".into(),
        fail_prone: asym_dag_rider::quorum::counterexample::fig1_fail_prone(),
        quorums: asym_dag_rider::quorum::counterexample::fig1_quorums(),
    };
    let report = Cluster::new(topo)
        .adversary(Adversary::Random(8))
        .waves(5)
        .blocks_per_process(2)
        .txs_per_block(3)
        .run_asymmetric();
    assert!(report.quiescent);
    checks::assert_prefix_consistent(&report.outputs);
    checks::assert_no_duplicates(&report.outputs);
    let guild = report.guild.clone().expect("fault-free figure-1 has a guild");
    for g in &guild {
        assert!(!report.outputs[g.index()].is_empty(), "guild member {g} ordered nothing");
    }
}

#[test]
fn mixed_thresholds_topology() {
    // One cautious process (f=1), the rest f=2, n=7 — B3 holds.
    let mut systems = vec![FailProneSystem::threshold(7, 2); 7];
    systems[0] = FailProneSystem::threshold(7, 1);
    let fail_prone = AsymFailProneSystem::new(systems).unwrap();
    assert!(fail_prone.satisfies_b3());
    let quorums = fail_prone.canonical_quorums();
    let topo = topology::Topology { name: "mixed-thresholds".into(), fail_prone, quorums };
    let report = Cluster::new(topo)
        .adversary(Adversary::Random(3))
        .crash([6])
        .waves(8)
        .blocks_per_process(2)
        .txs_per_block(3)
        .run_asymmetric();
    assert!(report.quiescent);
    checks::assert_prefix_consistent(&report.outputs);
    checks::assert_no_duplicates(&report.outputs);
    let guild = report.guild.clone().expect("one crash keeps a guild");
    for g in &guild {
        assert!(!report.outputs[g.index()].is_empty(), "guild member {g} ordered nothing");
    }
}

#[test]
fn validity_all_injected_blocks_ordered_eventually() {
    // Long run: everything injected up front must come out everywhere.
    let scenario = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none(),
        SchedulerSpec::Random,
        77,
    )
    .waves(10)
    .blocks_per_process(3)
    .txs_per_block(2);
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    let all_txs: Vec<u64> =
        outcome.injected.iter().flatten().flat_map(|b| b.txs.iter().copied()).collect();
    assert_eq!(all_txs.len(), 4 * 3 * 2);
    for p in &outcome.correct {
        let delivered = outcome.delivered_txs(p);
        for tx in &all_txs {
            assert!(delivered.contains(tx), "{p} never delivered tx {tx}");
        }
    }
}

#[test]
fn coin_seed_changes_leader_schedule_but_not_safety() {
    // Scenario seeds drive both the scheduler and (decorrelated) the coin:
    // different seeds must keep every invariant while exploring different
    // leader schedules.
    for seed in [1u64, 2, 3] {
        let scenario = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            SchedulerSpec::Random,
            seed,
        );
        checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    }
}
