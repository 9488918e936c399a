//! Tier-1 scenario matrix: the curated topology × fault-plan × scheduler ×
//! seed sub-matrix, every cell audited by the full invariant-checker suite.
//!
//! The full sweep runs in CI (`cargo run -p asym-bench --bin
//! exp_scenarios`); this suite keeps a representative sub-matrix in
//! `cargo test` and pins the harness's own contract: a failing cell reports
//! a `(topology, fault plan, scheduler, seed)` tuple that reproduces the
//! run exactly.

use asym_scenarios::{
    checks, replay, ByzAttack, Fault, FaultPlan, Matrix, Scenario, ScenarioOutcome, SchedulerSpec,
    TopologySpec,
};

#[test]
fn curated_smoke_matrix_upholds_all_invariants() {
    let matrix = Matrix::smoke();
    // The acceptance floor: ≥3 topology families × ≥3 fault plans × ≥2
    // schedulers × multiple seeds, all under the standard checker suite.
    let families: std::collections::HashSet<_> =
        matrix.topologies.iter().map(|t| t.family()).collect();
    assert!(families.len() >= 3);
    assert!(matrix.fault_plans.len() >= 3);
    assert!(matrix.schedulers.len() >= 2);
    assert!(matrix.seeds.len() >= 2);

    let report = matrix.run();
    assert_eq!(report.unbuildable(), 0, "curated topologies must build:\n{}", report.render());
    assert_eq!(report.skipped_unfit, 0, "curated plans must fit every topology");
    report.assert_all_passed();
    assert_eq!(report.passed(), report.cells.len());
}

#[test]
fn adversarial_schedulers_and_combined_faults_cell() {
    // Axes the smoke matrix leaves to CI, pinned here once each: targeted
    // delay, a healing partition, and a two-kinds fault plan.
    let topology = TopologySpec::UniformThreshold { n: 7, f: 2 };
    let cells = [
        Scenario::new(
            topology,
            FaultPlan::none().with(5, Fault::CrashAfter(300)).with(6, Fault::Mute),
            SchedulerSpec::TargetedDelay { victims: vec![0] },
            4,
        ),
        Scenario::new(
            topology,
            FaultPlan::none(),
            SchedulerSpec::Partition {
                groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6]],
                heal_at: 800,
            },
            9,
        ),
    ];
    for scenario in cells {
        checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn all_byzantine_attacks_pass_on_two_families() {
    for attack in
        [ByzAttack::EquivocateVertices, ByzAttack::BogusStrongEdges, ByzAttack::ConfirmFlood]
    {
        for topology in [
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
        ] {
            let scenario = Scenario::new(
                topology,
                FaultPlan::none().with(3, Fault::Byzantine(attack)),
                SchedulerSpec::Random,
                6,
            );
            checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn restart_cells_recover_from_wal_without_double_delivery() {
    // The crash-recovery axis, pinned in tier 1 on two topology families
    // and two scheduler families. The standard suite already runs the
    // recovery checkers (restart_no_double_delivery,
    // restart_prefix_consistency, restart_liveness, wal_state_equivalence);
    // the explicit assertions below pin the observable recovery facts.
    let cells = [
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
            SchedulerSpec::Random,
            3,
        ),
        Scenario::new(
            TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
            FaultPlan::none().with(6, Fault::Restart { crash_at: 400, recover_at: 6000 }),
            SchedulerSpec::Fifo,
            8,
        ),
    ];
    for scenario in cells {
        let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
        let restarted = outcome.restarted();
        assert_eq!(restarted.len(), 1);
        let i = restarted[0];
        assert!(outcome.recovered[i], "{}: restart never fired", scenario.cell());
        assert!(
            !outcome.outputs[i].is_empty(),
            "{}: restarted process delivered nothing",
            scenario.cell()
        );
        // The WAL really was exercised: events appended, replay clean.
        let stats = outcome.wal_stats[i].expect("restart processes carry a WAL");
        assert!(stats.records_appended > 0);
        let replay = outcome.wal_replays[i].as_ref().unwrap().as_ref().unwrap();
        assert!(replay.dag.len() > outcome.topology.n(), "replayed DAG beyond genesis");
        // Post-recovery prefix consistency with a fault-free process, and
        // no duplicates across the restart, asserted here once explicitly
        // (the checkers verified it already).
        let correct = outcome.correct.iter().next().unwrap();
        let a = &outcome.outputs[i];
        let b = &outcome.outputs[correct.index()];
        for k in 0..a.len().min(b.len()) {
            assert_eq!(a[k].id, b[k].id, "fork at {k}");
        }
        let mut seen = std::collections::HashSet::new();
        assert!(a.iter().all(|v| seen.insert(v.id)), "double delivery across restart");
    }
}

#[test]
fn multi_attacker_cells_hold_all_invariants() {
    // Two colluding equivocators on a 7-process threshold system (f = 2
    // tolerates both), under the targeted-delay scheduler — the
    // multi-attacker × adversarial-scheduler combination the ROADMAP
    // listed as uncovered.
    let two_equivocators = Scenario::new(
        TopologySpec::UniformThreshold { n: 7, f: 2 },
        FaultPlan::none()
            .with(5, Fault::Byzantine(ByzAttack::EquivocateVertices))
            .with(6, Fault::Byzantine(ByzAttack::EquivocateVertices)),
        SchedulerSpec::TargetedDelay { victims: vec![0] },
        5,
    );
    let outcome = checks::run_and_check_all(&two_equivocators).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(outcome.honest.len(), 5);
    assert!(outcome.guild.is_some(), "f=2 must survive two attackers");

    // An equivocator colluding with a mute process on the Stellar topology,
    // under a healing partition.
    let equivocator_plus_mute = Scenario::new(
        TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
        FaultPlan::none()
            .with(6, Fault::Mute)
            .with(7, Fault::Byzantine(ByzAttack::EquivocateVertices)),
        SchedulerSpec::Partition { groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], heal_at: 700 },
        2,
    );
    checks::run_and_check_all(&equivocator_plus_mute).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn forced_failure_reports_a_tuple_that_reproduces_the_run_exactly() {
    let scenario = Scenario::new(
        TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
        FaultPlan::crash_from_start([4]),
        SchedulerSpec::Random,
        31,
    )
    .waves(5);

    // Force a failure with an impossible invariant; the harness must hand
    // back the scenario tuple.
    fn impossible(o: &ScenarioOutcome) -> Result<(), String> {
        Err(format!("forced failure after {} steps", o.steps))
    }
    let failure =
        checks::run_and_check(&scenario, &[("impossible", impossible)]).expect_err("forced");
    assert_eq!(failure.check, "impossible");
    assert_eq!(*failure.scenario, scenario, "the reported tuple is the executed one");
    let report = failure.to_string();
    for needle in ["ripple(n=10,unl=8,f=1)", "crash(p4)", "random", "seed=31", "replay"] {
        assert!(report.contains(needle), "failure report missing {needle:?}:\n{report}");
    }

    // One function call on the reported tuple reproduces the run exactly.
    let original = scenario.run();
    let replayed = replay(&failure.scenario);
    assert_eq!(replayed.outputs, original.outputs);
    assert_eq!(replayed.commit_logs, original.commit_logs);
    assert_eq!(replayed.steps, original.steps);
    assert_eq!(replayed.time, original.time);
}

#[test]
fn guild_destroying_cells_are_safety_only_but_still_checked() {
    // Beyond-threshold crashes: no guild, no liveness promise — the checker
    // suite must still pass (safety is unconditional) and nothing commits.
    let scenario = Scenario::new(
        TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
        FaultPlan::crash_from_start([0, 1]),
        SchedulerSpec::Random,
        2,
    )
    .waves(4);
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.guild.is_none(), "two core crashes must destroy the guild");
}

#[test]
fn distinct_seeds_explore_distinct_schedules() {
    let mk = |seed| {
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            SchedulerSpec::Random,
            seed,
        )
        .run()
    };
    let (a, b) = (mk(1), mk(2));
    // Different seeds change both the schedule and the coin; identical full
    // traces would mean the seed is ignored.
    assert!(
        a.outputs != b.outputs || a.steps != b.steps,
        "seeds 1 and 2 produced identical executions"
    );
}
