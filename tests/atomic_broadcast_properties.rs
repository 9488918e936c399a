//! Integration matrix: asymmetric atomic broadcast properties
//! (Definition 4.1 — agreement, validity, total order, integrity) across
//! topologies × adversaries × failure patterns.
//!
//! Every cell runs as an `asym_scenarios` cell under the full checker suite
//! (which subsumes the agreement / total-order / integrity assertions this
//! file used to hand-roll), including the paper's Figure-1 system and a
//! mixed-threshold system.

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
    // The paper's own 30-process setting, all processes correct.
    check(TopologySpec::Figure1, SchedulerSpec::Random, &[], 8, 5);
}

#[test]
fn mixed_thresholds_topology() {
    // One cautious process (f=1), the rest f=2, n=7 — B3 holds.
    check(TopologySpec::MixedThresholds { n: 7, f: 2, f0: 1 }, SchedulerSpec::Random, &[6], 3, 8);
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
