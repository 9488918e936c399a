//! Tier-1 adversarial-recovery cells: recovery treated as an attack
//! surface. Each test pins one of the acceptance cells of the
//! adversarial-recovery PR: (a) a Byzantine peer lying *to* a recovering
//! process, (b) a Byzantine process lying during its *own* recovery,
//! (c) powerloss-injected `FileStorage` restarts, plus the snapshot-cadence
//! sweep (including the `0 = never` edge), WAL pruning equivalence and the
//! hard-starvation scheduler axis.

use asym_scenarios::{
    checks, Fault, FaultPlan, Scenario, SchedulerSpec, StorageSpec, TopologySpec, FORGED_TX,
};
use asym_scenarios::{ByzAttack, ScenarioOutcome};

fn forge_cell() -> Scenario {
    Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none()
            .with(1, Fault::Restart { crash_at: 150, recover_at: 1200 })
            .with(3, Fault::Byzantine(ByzAttack::ForgeFetchReplies)),
        SchedulerSpec::Random,
        3,
    )
}

/// No honest process may hold (in DAG or outputs) the forged transaction
/// the fetch-forger plants in vertices attributed to honest sources.
fn assert_no_forgery_stuck(outcome: &ScenarioOutcome) {
    for p in &outcome.honest {
        let dag = outcome.dags[p.index()].as_ref().unwrap();
        for r in 1..=dag.max_round().unwrap_or(0) {
            for v in dag.vertices_in_round(r) {
                assert!(
                    !v.block().txs.contains(&FORGED_TX),
                    "{p} stores forged vertex {} — the fetch defense failed",
                    v.id()
                );
            }
        }
        for v in &outcome.outputs[p.index()] {
            assert!(!v.block.txs.contains(&FORGED_TX), "{p} delivered a forged block");
        }
    }
}

#[test]
fn byzantine_peer_lying_to_a_recovering_process_changes_nothing() {
    // Acceptance cell (a): process 1 crashes and recovers through the
    // Fetch/FetchReply path while process 3 answers every Fetch with
    // forged vertices (attributed to honest processes, carrying FORGED_TX)
    // and false confirmed-wave claims. The kernel-matched acceptance must
    // keep every forgery out, and the recovering process must still regain
    // liveness.
    let outcome = checks::run_and_check_all(&forge_cell()).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.recovered[1], "the lied-to process must still recover");
    assert!(!outcome.outputs[1].is_empty(), "and still deliver (liveness despite the liar)");
    assert_no_forgery_stuck(&outcome);
}

#[test]
fn forged_fetch_replies_fail_under_every_tier1_scheduler() {
    for scheduler in
        [SchedulerSpec::Fifo, SchedulerSpec::Random, SchedulerSpec::Starve { victims: vec![0] }]
    {
        let mut cell = forge_cell();
        cell.scheduler = scheduler;
        let outcome = checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
        assert_no_forgery_stuck(&outcome);
    }
}

#[test]
fn byzantine_process_lying_during_its_own_recovery_is_contained() {
    // Acceptance cell (b): the attacker equivocates at start, crashes, and
    // on revival re-SENDs its round-1 copies *swapped* (every peer now
    // sees the copy it did not see before) plus false CONFIRM
    // re-announcements. Reliable broadcast + the cross-DAG checker must
    // keep at most one copy alive, identical everywhere.
    let cells = [
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(
                3,
                Fault::ByzantineRestart {
                    attack: ByzAttack::EquivocateVertices,
                    crash_at: 40,
                    recover_at: 600,
                },
            ),
            SchedulerSpec::Random,
            2,
        ),
        Scenario::new(
            TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
            FaultPlan::none().with(
                7,
                Fault::ByzantineRestart {
                    attack: ByzAttack::EquivocateVertices,
                    crash_at: 80,
                    recover_at: 2000,
                },
            ),
            SchedulerSpec::Fifo,
            5,
        ),
    ];
    for cell in cells {
        let outcome = checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
        let attacker = cell.faults.byz_restarts().next().unwrap().0;
        assert!(
            outcome.restart_fired[attacker],
            "{}: the attacker's restart window never opened — the recovery lie was not \
             exercised",
            cell.cell()
        );
        // At most one equivocated copy is ever ordered, and the same one
        // everywhere (prefix_consistency compares blocks too); here we pin
        // the visible half: nobody delivered both 666 and 999.
        for p in &outcome.honest {
            let txs: Vec<u64> = outcome.outputs[p.index()]
                .iter()
                .flat_map(|o| o.block.txs.iter().copied())
                .collect();
            assert!(
                !(txs.contains(&666) && txs.contains(&999)),
                "{}: {p} delivered both equivocated copies",
                cell.cell()
            );
        }
    }
}

#[test]
fn honest_recovery_races_a_lying_recovery() {
    // Both at once: an honest process replays its WAL while the attacker
    // "recovers" by broadcasting forged fetch replies at everyone.
    let cell = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1300 }).with(
            3,
            Fault::ByzantineRestart {
                attack: ByzAttack::ForgeFetchReplies,
                crash_at: 100,
                recover_at: 1000,
            },
        ),
        SchedulerSpec::Random,
        7,
    );
    let outcome = checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.recovered[1]);
    assert_no_forgery_stuck(&outcome);
}

#[test]
fn powerloss_file_storage_restart_recovers_a_consistent_prefix() {
    // Acceptance cell (c): a real-tempdir FileStorage WAL, damaged at the
    // crash by the deterministic powerloss injector (torn final append /
    // dropped unsynced suffix / reverted snapshot rename, respecting the
    // process's fsync barriers), must still recover into a state that
    // passes the whole suite — including WAL/state equivalence re-replayed
    // at the end of the run.
    for seed in [3, 8] {
        let cell = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
            SchedulerSpec::Random,
            seed,
        )
        .storage(StorageSpec::PowerlossFile { seed: 13 });
        let outcome = checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
        assert!(outcome.recovered[1], "seed {seed}: powerloss restart must still recover");
        assert!(!outcome.outputs[1].is_empty(), "seed {seed}: and still deliver");
        let stats = outcome.wal_stats[1].expect("file WAL attached");
        assert!(stats.records_appended > 0);
    }
}

#[test]
fn torn_tail_repair_regression_from_the_full_sweep() {
    // Exact failing cell tuples from the first full sweep of this PR: the
    // powerloss left a torn tail, recovery read past it fine, but the
    // first post-recovery append fused with the torn bytes into a
    // checksum-mismatching frame — `wal_state_equivalence` reported "WAL
    // unreadable: corrupt record". Fixed by `Wal::repair_torn_tail` in
    // `restart_from_log`; these cells must now pass the whole suite.
    for seed in [1, 2] {
        let cell = Scenario::new(
            TopologySpec::RandomSlices { n: 9, slice: 7, f: 1, seed: 23 },
            FaultPlan::new([
                (1, Fault::Restart { crash_at: 200, recover_at: 1500 }),
                (3, Fault::Crash),
            ]),
            SchedulerSpec::TargetedDelay { victims: vec![0] },
            seed,
        )
        .waves(5)
        .storage(StorageSpec::PowerlossFile { seed: 13 });
        checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn snapshot_cadence_is_a_swept_axis_including_never() {
    // Satellite: the runner no longer hardcodes `with_snapshot_every(64)`.
    // The same restart cell under cadence 0 (never snapshot), 8
    // (aggressive) and 64 (default) must all pass; cadence 0 must produce
    // zero snapshots and no pruning, cadence 8 must produce both.
    let base = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
        SchedulerSpec::Random,
        3,
    );
    let never = base.clone().snapshot_every(0);
    let outcome = checks::run_and_check_all(&never).unwrap_or_else(|e| panic!("{e}"));
    let stats = outcome.wal_stats[1].unwrap();
    assert_eq!(stats.snapshots_written, 0, "cadence 0 must never snapshot");
    let replay = outcome.wal_replays[1].as_ref().unwrap().as_ref().unwrap();
    assert_eq!(replay.pruned_round, 0, "no snapshot, no pruning");

    let aggressive = base.clone().snapshot_every(8);
    let outcome = checks::run_and_check_all(&aggressive).unwrap_or_else(|e| panic!("{e}"));
    let stats = outcome.wal_stats[1].unwrap();
    assert!(stats.snapshots_written > 0, "cadence 8 must compact");
    let replay = outcome.wal_replays[1].as_ref().unwrap().as_ref().unwrap();
    assert!(replay.pruned_round > 0, "pruning rides every snapshot");

    checks::run_and_check_all(&base).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn pruned_and_unpruned_cells_agree_on_what_fault_free_processes_deliver() {
    let base = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
        SchedulerSpec::Random,
        3,
    )
    .snapshot_every(8);
    let pruned = checks::run_and_check_all(&base).unwrap_or_else(|e| panic!("{e}"));
    let unpruned =
        checks::run_and_check_all(&base.clone().prune_wal(false)).unwrap_or_else(|e| panic!("{e}"));
    // Pruning may change the restarted process's own weak edges, but the
    // delivered transaction sets of the run must not lose anything.
    let txs = |o: &ScenarioOutcome, i: usize| {
        let mut t: Vec<u64> =
            o.outputs[i].iter().flat_map(|v| v.block.txs.iter().copied()).collect();
        t.sort_unstable();
        t
    };
    assert_eq!(txs(&pruned, 0), txs(&unpruned, 0));
    // And the pruned cell really did prune while the unpruned one did not.
    let floor =
        |o: &ScenarioOutcome| o.wal_replays[1].as_ref().unwrap().as_ref().unwrap().pruned_round;
    assert!(floor(&pruned) > 0);
    assert_eq!(floor(&unpruned), 0);
}

#[test]
fn restart_under_churn_overlapping_down_windows() {
    // ROADMAP gap "restart under churn", half one: two processes whose
    // down-windows overlap — p1 is still down when p2 crashes, and p2
    // recovers (replays, refetches) while p1 is itself mid-recovery, so
    // each one's catch-up traffic races the other's. Pinned across the
    // tier-1 schedulers; the full suite (incl. both restart checkers and
    // WAL/state equivalence for both processes) must hold.
    for (scheduler, seed) in [
        (SchedulerSpec::Random, 3),
        (SchedulerSpec::Fifo, 1),
        (SchedulerSpec::TargetedDelay { victims: vec![0] }, 2),
    ] {
        let cell = Scenario::new(
            TopologySpec::UniformThreshold { n: 7, f: 2 },
            FaultPlan::new([
                (1, Fault::Restart { crash_at: 100, recover_at: 1100 }),
                (2, Fault::Restart { crash_at: 300, recover_at: 900 }),
            ]),
            scheduler,
            seed,
        );
        let outcome = checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
        for i in [1, 2] {
            assert!(outcome.restart_fired[i], "{}: p{i}'s window never opened", cell.cell());
            assert!(outcome.recovered[i], "{}: p{i} never replayed its log", cell.cell());
            assert!(!outcome.outputs[i].is_empty(), "{}: p{i} delivered nothing", cell.cell());
        }
    }
}

#[test]
fn restart_races_the_partition_heal() {
    // ROADMAP gap "restart under churn", half two: a restart whose
    // recover_at lands right at the partition's heal step — the replayed
    // process rejoins into a network still flushing cross-group backlog.
    // Swept just-before, at, and just-after the heal.
    for recover_at in [590, 600, 610] {
        let cell = Scenario::new(
            TopologySpec::UniformThreshold { n: 7, f: 2 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 100, recover_at }),
            SchedulerSpec::Partition {
                groups: vec![vec![0, 1, 2], vec![3, 4, 5, 6]],
                heal_at: 600,
            },
            5,
        );
        let outcome = checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
        if outcome.restart_fired[1] {
            assert!(outcome.recovered[1], "{}: fired but never replayed", cell.cell());
        }
    }
}

#[test]
fn starvation_scheduler_cells_pass_after_the_flush() {
    // Satellite: the `scheduler::Filtered`-style starvation axis was
    // untestable because it never quiesces; the runner now flushes starved
    // traffic before the checkers run. One plain cell and one combined
    // with a restart fault.
    let cells = [
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none(),
            SchedulerSpec::Starve { victims: vec![0] },
            2,
        ),
        Scenario::new(
            TopologySpec::RippleUnl { n: 7, unl: 6, f: 1 },
            FaultPlan::none().with(2, Fault::Restart { crash_at: 120, recover_at: 900 }),
            SchedulerSpec::Starve { victims: vec![0] },
            4,
        ),
    ];
    for cell in cells {
        let outcome = checks::run_and_check_all(&cell).unwrap_or_else(|e| panic!("{e}"));
        assert!(outcome.quiescent, "{}: flush must drain the starved bag", cell.cell());
        // The victim was really starved during the run proper, yet ends
        // with the same delivered prefix as everyone else (checked by
        // prefix_consistency); liveness for it comes from the flush.
        assert!(!outcome.outputs[0].is_empty(), "{}: victim delivered nothing", cell.cell());
    }
}
