//! Byzantine-behaviour tests: protocol-level attackers (equivocating vertex
//! creators, invalid strong edges, control-ladder flooding) against honest
//! asymmetric DAG-Rider processes. Reliable broadcast and the line-140
//! validation must neutralize them: safety is preserved, and the honest
//! majority keeps committing.
//!
//! The attacker machinery ([`asym_scenarios::ByzProcess`]) and the generic
//! invariants (prefix consistency, no fabrication, DAG well-formedness,
//! guild liveness, determinism) live in `asym-scenarios`; this suite keeps
//! only the attack-specific expectations.

use asym_scenarios::{checks, pid, ByzAttack, Fault, FaultPlan, Scenario, ScenarioOutcome};
use asym_scenarios::{SchedulerSpec, TopologySpec};

use asym_dag_rider::dag::VertexId;

/// Runs one attack on `threshold(4,1)` with p3 Byzantine, under the full
/// checker suite, and returns the outcome for attack-specific assertions.
fn run_attack(attack: ByzAttack, seed: u64) -> ScenarioOutcome {
    let scenario = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none().with(3, Fault::Byzantine(attack)),
        SchedulerSpec::Random,
        seed,
    );
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    // Liveness around the attacker: the three honest processes form the
    // guild, and the guild-liveness checker has already demanded progress —
    // pin it explicitly for this suite's claim.
    for p in &outcome.correct {
        assert!(!outcome.outputs[p.index()].is_empty(), "{attack:?}: honest {p} stalled");
    }
    outcome
}

#[test]
fn equivocating_vertex_creator_cannot_fork() {
    for seed in 0..5 {
        let outcome = run_attack(ByzAttack::EquivocateVertices, seed);
        // At most one of the two equivocated blocks may ever be ordered, and
        // it must be the same one everywhere (or none).
        let mut seen: Option<u64> = None;
        for o in outcome.correct.iter().flat_map(|p| &outcome.outputs[p.index()]) {
            if o.id == VertexId::new(1, pid(3)) {
                let tx = o.block.txs[0];
                assert!(tx == 666 || tx == 999);
                match seen {
                    None => seen = Some(tx),
                    Some(prev) => assert_eq!(prev, tx, "seed {seed}: forked equivocation"),
                }
            }
        }
    }
}

#[test]
fn bogus_strong_edges_are_rejected() {
    for seed in 0..5 {
        let outcome = run_attack(ByzAttack::BogusStrongEdges, seed);
        // The invalid vertex never enters any honest order or any honest DAG
        // (the dag_well_formed checker would also flag the latter).
        for p in &outcome.correct {
            for o in &outcome.outputs[p.index()] {
                assert!(*o.block.txs != [31337], "seed {seed}: invalid vertex ordered");
            }
            let dag = outcome.dags[p.index()].as_ref().unwrap();
            assert!(
                !dag.contains(VertexId::new(2, pid(3))),
                "seed {seed}: {p} inserted the quorum-less vertex"
            );
        }
    }
}

#[test]
fn confirm_flooding_does_not_poison_liveness_or_safety() {
    for seed in 0..5 {
        run_attack(ByzAttack::ConfirmFlood, seed);
    }
}

#[test]
fn attacks_do_not_suppress_honest_blocks() {
    let outcome = run_attack(ByzAttack::EquivocateVertices, 9);
    // Every transaction injected by an honest process must be ordered by
    // every honest process within the wave budget.
    let honest_txs: Vec<u64> = outcome
        .correct
        .iter()
        .flat_map(|p| outcome.injected[p.index()].iter().flat_map(|b| b.txs.iter().copied()))
        .collect();
    assert!(!honest_txs.is_empty());
    for p in &outcome.correct {
        let delivered = outcome.delivered_txs(p);
        for tx in &honest_txs {
            assert!(delivered.contains(tx), "honest {p} lost honest tx {tx}");
        }
    }
}

#[test]
fn attacks_replay_bit_for_bit() {
    // Byzantine cells are as reproducible as crash cells — the property the
    // matrix repro tuples rely on.
    for attack in
        [ByzAttack::EquivocateVertices, ByzAttack::BogusStrongEdges, ByzAttack::ConfirmFlood]
    {
        let a = run_attack(attack, 11);
        let b = run_attack(attack, 11);
        assert_eq!(a.outputs, b.outputs, "{attack:?}");
        assert_eq!(a.commit_logs, b.commit_logs, "{attack:?}");
    }
}
