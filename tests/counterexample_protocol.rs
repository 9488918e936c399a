//! End-to-end reproduction of the paper's Appendix A (experiment MSG2):
//! Lemma 3.2 as a real message-passing execution, its
//! equality with the Listing-1 dataflow, and the Algorithm-3 contrast — all
//! through the public workspace API.

use asym_dag_rider::prelude::*;
use asym_gather::{
    dataflow, find_common_core, AsymGather, Lemma32Scheduler, NaiveGather, ValueSet,
};
use asym_quorum::counterexample::{fig1_fail_prone, fig1_quorum_of, fig1_quorums, FIG1_N};
use asym_scenarios::pid;

fn fig1_choice() -> Vec<ProcessSet> {
    (0..FIG1_N).map(|i| fig1_quorum_of(pid(i))).collect()
}

#[test]
fn figure1_is_a_valid_asymmetric_quorum_system() {
    let fps = fig1_fail_prone();
    let qs = fig1_quorums();
    assert!(fps.satisfies_b3());
    qs.validate(&fps).expect("Theorem 2.4: B3 ⟹ canonical quorums valid");
    // Everyone wise, maximal guild = everyone (failure-free).
    let guild = maximal_guild(&fps, &qs, &ProcessSet::new()).unwrap();
    assert_eq!(guild, ProcessSet::full(FIG1_N));
}

#[test]
fn lemma_3_2_full_protocol_equals_listing_1() {
    let qs = fig1_quorums();
    let choice = fig1_choice();
    let expected = dataflow::three_rounds(&choice);

    let procs: Vec<NaiveGather<u64>> =
        (0..FIG1_N).map(|i| NaiveGather::new(pid(i), qs.clone(), 3)).collect();
    let mut sim = Simulation::new(procs, Lemma32Scheduler::new(choice));
    for i in 0..FIG1_N {
        sim.input(pid(i), 10_000 + i as u64);
    }
    assert!(sim.run(100_000_000).quiescent);

    let mut outputs: Vec<ValueSet<u64>> = Vec::new();
    for i in 0..FIG1_N {
        let out = sim.outputs(pid(i));
        assert_eq!(out.len(), 1, "process {i} must deliver exactly once");
        let support: ProcessSet = out[0].keys().copied().collect();
        assert_eq!(support, expected.u[i], "U_{} diverges from Listing 1", i + 1);
        // Validity: the values really are the inputs of their originators.
        for (p, v) in out[0].iter() {
            assert_eq!(*v, 10_000 + p.index() as u64);
        }
        outputs.push(out[0].clone());
    }

    let refs: Vec<(ProcessId, &ValueSet<u64>)> =
        outputs.iter().enumerate().map(|(i, u)| (pid(i), u)).collect();
    assert!(
        find_common_core(&qs, &ProcessSet::full(FIG1_N), &refs).is_none(),
        "Lemma 3.2: the adversarial execution has no common core"
    );
}

#[test]
fn algorithm_3_fixes_the_same_system() {
    let qs = fig1_quorums();
    for seed in [1u64, 2] {
        let procs: Vec<AsymGather<u64>> =
            (0..FIG1_N).map(|i| AsymGather::new(pid(i), qs.clone())).collect();
        let mut sim = Simulation::new(procs, scheduler::Random::new(seed));
        for i in 0..FIG1_N {
            sim.input(pid(i), i as u64);
        }
        assert!(sim.run(300_000_000).quiescent, "seed {seed}");
        let outputs: Vec<ValueSet<u64>> =
            (0..FIG1_N).map(|i| sim.outputs(pid(i))[0].clone()).collect();
        let refs: Vec<(ProcessId, &ValueSet<u64>)> =
            outputs.iter().enumerate().map(|(i, u)| (pid(i), u)).collect();
        assert!(
            find_common_core(&qs, &ProcessSet::full(FIG1_N), &refs).is_some(),
            "seed {seed}: Algorithm 3 must reach a common core"
        );
    }
}

#[test]
fn algorithm_3_survives_the_lemma32_style_adversary() {
    // Starve the same message classes the Lemma-3.2 adversary starves
    // (quorum-only DISTRIBUTE traffic), then release: Algorithm 3 still
    // reaches a common core — the adversary can only delay it.
    use asym_gather::AsymGatherMsg;
    use asym_sim::{InFlight, Scheduler, Step};

    struct StarveDist {
        quorum_of: Vec<ProcessSet>,
    }
    impl<V> Scheduler<AsymGatherMsg<V>> for StarveDist {
        fn next(&mut self, pending: &[InFlight<AsymGatherMsg<V>>], _now: Step) -> Option<usize> {
            pending
                .iter()
                .enumerate()
                .filter(|(_, m)| match &m.msg {
                    AsymGatherMsg::DistS(_) | AsymGatherMsg::DistT(_) => {
                        self.quorum_of[m.to.index()].contains(m.from)
                    }
                    _ => true,
                })
                .min_by_key(|(_, m)| m.seq)
                .map(|(i, _)| i)
        }
    }

    let qs = fig1_quorums();
    let procs: Vec<AsymGather<u64>> =
        (0..FIG1_N).map(|i| AsymGather::new(pid(i), qs.clone())).collect();
    let mut sim = Simulation::new(procs, StarveDist { quorum_of: fig1_choice() });
    for i in 0..FIG1_N {
        sim.input(pid(i), i as u64);
    }
    // Filtered phase, then eventual delivery of the starved messages.
    sim.run(300_000_000);
    assert!(sim.flush_starved(300_000_000).quiescent);

    let outputs: Vec<ValueSet<u64>> = (0..FIG1_N)
        .map(|i| {
            let out = sim.outputs(pid(i));
            assert!(!out.is_empty(), "process {i} must deliver after the flush");
            out[0].clone()
        })
        .collect();
    let refs: Vec<(ProcessId, &ValueSet<u64>)> =
        outputs.iter().enumerate().map(|(i, u)| (pid(i), u)).collect();
    assert!(
        find_common_core(&qs, &ProcessSet::full(FIG1_N), &refs).is_some(),
        "Algorithm 3 under the starving adversary must still reach a common core"
    );
}

#[test]
fn small_systems_are_immune_listing1_check() {
    // §3.2: any system with < 16 processes reaches a common core under the
    // 3-round dataflow, provided quorums pairwise intersect. Spot-check the
    // boundary claim with shifted-window quorum systems up to n = 15.
    for n in 4..=15usize {
        let q = n / 2 + 1;
        let quorums: Vec<ProcessSet> =
            (0..n).map(|i| (0..q).map(|k| (i + k) % n).collect()).collect();
        assert!(
            dataflow::has_common_core(&quorums),
            "n={n}: windowed majority quorums must reach a core in 3 rounds"
        );
    }
}
