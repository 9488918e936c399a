//! Regenerates the paper's negative result end to end:
//!
//! * **Figure 1** — the 30-process asymmetric fail-prone/quorum system;
//! * **Figures 2–4** — the S/T/U sets of the adversarial Algorithm-2 run;
//! * **Listing 1** — the common-core candidate check (must come out empty);
//! * the **message-passing** Algorithm 2 under the Appendix-A schedule,
//!   matching the dataflow exactly (Lemma 3.2);
//! * the same quorum-replacement gather with one more round (`R = 4`, the
//!   dataflow's requirement on Figure 1) under the same schedule, which does
//!   reach a common core;
//! * the contrast: **Algorithm 3** (constant-round asymmetric gather) on the
//!   same system reaches a common core.
//!
//! ```bash
//! cargo run --example counterexample
//! ```

use asym_dag_rider::prelude::*;
use asym_gather::{
    dataflow, find_common_core, AsymGather, Lemma32Scheduler, NaiveGather, ValueSet,
};
use asym_quorum::counterexample::{
    fig1_fail_prone, fig1_quorum_of, fig1_quorums, render_grid, FIG1_N,
};

fn main() {
    // ---- Figure 1: the fail-prone system and its canonical quorums. ----
    let fps = fig1_fail_prone();
    let qs = fig1_quorums();
    assert!(fps.satisfies_b3(), "Figure 1 satisfies B3");
    qs.validate(&fps).expect("valid asymmetric quorum system (Theorem 2.4)");
    println!("FIGURE 1 — canonical quorums (■ = member, rows = processes, paper labels)\n");
    let quorum_rows: Vec<ProcessSet> =
        (0..FIG1_N).map(|i| fig1_quorum_of(ProcessId::new(i))).collect();
    println!("{}", render_grid(&quorum_rows));
    println!("B3 condition: satisfied ✓   consistency + availability: verified ✓\n");

    // ---- Figures 2–4: the three dataflow rounds. ----
    let sets = dataflow::three_rounds(&quorum_rows);
    println!("FIGURE 2 — S sets (values after one round of hearing one's quorum)\n");
    println!("{}", render_grid(&sets.s));
    println!("FIGURE 3 — T sets (after the second round)\n");
    println!("{}", render_grid(&sets.t));
    println!("FIGURE 4 — U sets (after the third round; the delivered outputs)\n");
    println!("{}", render_grid(&sets.u));

    // ---- Listing 1: the common-core candidate check. ----
    let candidates = dataflow::common_core_candidates(&sets.s, &sets.u);
    println!("LISTING 1 — all_candidates = {candidates}");
    assert!(candidates.is_empty());
    println!("no S set is contained in every U set ⇒ NO COMMON CORE (Lemma 3.2) ✓\n");

    // ---- The same result over real messages (Algorithm 2 + adversary). ----
    let (steps, outputs) = adversarial_gather(&qs, &quorum_rows, 3);
    for (i, u) in outputs.iter().enumerate() {
        let support: ProcessSet = u.keys().copied().collect();
        assert_eq!(support, sets.u[i], "protocol U set {} matches Listing 1", i + 1);
    }
    assert!(common_core(&qs, &outputs).is_none());
    println!(
        "message-passing Algorithm 2 under the Appendix-A schedule: {steps} deliveries, \
         U sets identical to Listing 1, still no common core ✓"
    );

    // ---- With the rounds the dataflow asks for, the same gather converges. ----
    let rounds = dataflow::rounds_to_common_core(&quorum_rows, 16).unwrap();
    let (steps, outputs) = adversarial_gather(&qs, &quorum_rows, rounds as u32);
    let (owner, core) = common_core(&qs, &outputs).expect("R-round gather converges");
    println!(
        "quorum-replacement gather needs {rounds} rounds on this system: at R = {rounds} \
         under the same schedule, {steps} deliveries, common core found — quorum {core} \
         of process {owner} is in every output ✓\n"
    );

    // ---- The fix: Algorithm 3 on the very same system. ----
    let procs: Vec<AsymGather<u64>> =
        (0..FIG1_N).map(|i| AsymGather::new(ProcessId::new(i), qs.clone())).collect();
    let mut sim = Simulation::new(procs, scheduler::Random::new(7));
    for i in 0..FIG1_N {
        sim.input(ProcessId::new(i), i as u64);
    }
    assert!(sim.run(200_000_000).quiescent);
    let outputs: Vec<ValueSet<u64>> =
        (0..FIG1_N).map(|i| sim.outputs(ProcessId::new(i))[0].clone()).collect();
    let (owner, core) = common_core(&qs, &outputs).expect("Algorithm 3 guarantees a common core");
    println!(
        "ALGORITHM 3 (constant-round asymmetric gather) on the same system: \
         common core found — quorum {core} of process {owner} is in every output ✓"
    );
}

/// Runs the `rounds`-round quorum-replacement gather (`rounds = 3` is
/// Algorithm 2) on Figure 1 under the Appendix-A schedule; returns the
/// delivery steps and each process's delivered set.
fn adversarial_gather(
    qs: &AsymQuorumSystem,
    quorum_rows: &[ProcessSet],
    rounds: u32,
) -> (u64, Vec<ValueSet<u64>>) {
    let procs: Vec<NaiveGather<u64>> =
        (0..FIG1_N).map(|i| NaiveGather::new(ProcessId::new(i), qs.clone(), rounds)).collect();
    let mut sim = Simulation::new(procs, Lemma32Scheduler::new(quorum_rows.to_vec()));
    for i in 0..FIG1_N {
        sim.input(ProcessId::new(i), i as u64);
    }
    let report = sim.run(100_000_000);
    assert!(report.quiescent);
    let outputs = (0..FIG1_N).map(|i| sim.outputs(ProcessId::new(i))[0].clone()).collect();
    (report.steps, outputs)
}

/// A common core of the delivered sets among all Figure-1 processes, if any.
fn common_core(
    qs: &AsymQuorumSystem,
    outputs: &[ValueSet<u64>],
) -> Option<(ProcessId, ProcessSet)> {
    let refs: Vec<(ProcessId, &ValueSet<u64>)> =
        outputs.iter().enumerate().map(|(i, u)| (ProcessId::new(i), u)).collect();
    find_common_core(qs, &ProcessSet::full(FIG1_N), &refs)
}
