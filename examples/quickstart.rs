//! Quickstart: run asymmetric DAG-Rider on a 7-process cluster where every
//! participant declares its own trust assumption, submit transactions, and
//! watch them come out in one identical total order everywhere.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use asym_dag_rider::prelude::*;

fn main() {
    // 1. Trust: a heterogeneous system — most processes tolerate 2 failures,
    //    a cautious one (p0) tolerates only 1. B³ must hold for a quorum
    //    system to exist at all (Theorem 2.4).
    let spec = TopologySpec::MixedThresholds { n: 7, f: 2, f0: 1 };
    let topo = spec.build().expect("closed-form family");
    assert!(topo.fail_prone.satisfies_b3(), "trust assumptions admit no quorum system");
    topo.quorums.validate(&topo.fail_prone).expect("consistent + available");
    println!("topology: {}", topo.name);
    println!("smallest quorum c(Q) = {}", topo.quorums.min_quorum_size());

    // 2. Run: 6 waves under a random asynchronous schedule, with process 6
    //    crashed from the start and 3 blocks of client transactions per
    //    correct process. The invariant checkers audit the execution:
    //    identical order at every honest process (ids and blocks), no
    //    duplicates, no fabricated blocks, liveness of the guild, …
    let scenario =
        Scenario::new(spec, FaultPlan::crash_from_start([6]), SchedulerSpec::Random, 2024)
            .waves(6)
            .blocks_per_process(3)
            .txs_per_block(4);
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));

    let guild = outcome.guild.clone().expect("crashing p6 keeps a guild");
    println!("faulty = {{6}}; maximal guild = {guild}");

    // 3. Display the order one guild member delivered.
    let reference = guild.first().unwrap();
    let order = &outcome.outputs[reference.index()];
    println!("\natomic broadcast order at {reference} ({} vertices):", order.len());
    for o in order.iter().take(12) {
        println!("  wave {}  {}  txs {:?}", o.committed_in_wave, o.id, o.block.txs);
    }
    if order.len() > 12 {
        println!("  …");
    }

    for g in &guild {
        let m = &outcome.metrics[g.index()];
        println!(
            "{g}: round {}, committed {}/{} waves, ordered {} txs",
            m.round, m.waves_committed, m.waves_attempted, m.txs_ordered
        );
    }
    println!(
        "\nnetwork: {} sent, {} delivered, {} steps",
        outcome.net.sent, outcome.net.delivered, outcome.steps
    );
    println!("total order verified across the whole guild ✓");
}
