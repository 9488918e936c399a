//! Generalized MSG2: on *random* single-quorum-per-process systems (not just
//! Figure 1), the message-passing `R`-round quorum-replacement gather under
//! the Appendix-A-style schedule produces exactly the final sets the
//! `R`-round dataflow predicts (the U sets of Listing 1 at `R = 3`, which is
//! Algorithm 2). This pins the protocol implementation to the paper's
//! abstract model on a whole family of systems.

use asym_scenarios::pid;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use asym_dag_rider::prelude::*;
use asym_gather::{dataflow, Lemma32Scheduler, NaiveGather, ValueSet};

/// Random single-quorum-per-process system with pairwise-intersecting
/// quorums (majority size), so every receiver can arb-deliver its quorum's
/// values under the filter.
fn random_single_quorum_system(n: usize, seed: u64) -> Option<(AsymQuorumSystem, Vec<ProcessSet>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let q = n / 2 + 1;
    let choice: Vec<ProcessSet> = (0..n)
        .map(|_| {
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(&mut rng);
            ids.into_iter().take(q).collect()
        })
        .collect();
    let systems: Result<Vec<QuorumSystem>, _> =
        choice.iter().map(|s| QuorumSystem::explicit(n, vec![s.clone()])).collect();
    let qs = AsymQuorumSystem::new(systems.ok()?).ok()?;
    Some((qs, choice))
}

/// Runs the `rounds`-round gather under the quorum-only schedule and returns
/// the support of each delivered final set.
fn protocol_final_sets(
    qs: &AsymQuorumSystem,
    choice: &[ProcessSet],
    rounds: u32,
) -> Vec<ProcessSet> {
    let n = choice.len();
    let procs: Vec<NaiveGather<u64>> =
        (0..n).map(|i| NaiveGather::new(pid(i), qs.clone(), rounds)).collect();
    let mut sim = Simulation::new(procs, Lemma32Scheduler::new(choice.to_vec()));
    for i in 0..n {
        sim.input(pid(i), i as u64);
    }
    assert!(sim.run(50_000_000).quiescent);
    (0..n)
        .map(|i| {
            let out: &[ValueSet<u64>] = sim.outputs(pid(i));
            assert_eq!(out.len(), 1, "process {i} must deliver exactly once");
            out[0].keys().copied().collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn protocol_matches_dataflow_on_random_systems(
        n in 4usize..9,
        seed in 0u64..10_000,
        rounds in 2u32..=5,
    ) {
        let Some((qs, choice)) = random_single_quorum_system(n, seed) else {
            return Ok(());
        };
        let predicted = dataflow::n_rounds(&choice, rounds as usize);
        if rounds == 3 {
            prop_assert_eq!(&predicted, &dataflow::three_rounds(&choice).u);
        }
        let observed = protocol_final_sets(&qs, &choice, rounds);
        for i in 0..n {
            prop_assert_eq!(
                &observed[i],
                &predicted[i],
                "final set of p{} diverges from the {}-round dataflow (n={}, seed={})",
                i, rounds, n, seed
            );
        }
        // And the paper's < 16 remark: these systems always reach a core.
        prop_assert!(dataflow::has_common_core(&choice));
    }
}

#[test]
fn protocol_matches_dataflow_on_shifted_window_systems() {
    // Deterministic structured family: windows of size ⌈n/2⌉+1 at stride 1.
    for n in [5usize, 8, 11] {
        let q = n / 2 + 1;
        let choice: Vec<ProcessSet> =
            (0..n).map(|i| (0..q).map(|k| (i + k) % n).collect()).collect();
        let systems: Vec<QuorumSystem> =
            choice.iter().map(|s| QuorumSystem::explicit(n, vec![s.clone()]).unwrap()).collect();
        let qs = AsymQuorumSystem::new(systems).unwrap();
        let predicted = dataflow::three_rounds(&choice);
        let observed = protocol_final_sets(&qs, &choice, 3);
        assert_eq!(observed, predicted.u, "n={n}");
    }
}
