//! A Ripple-like topology: every validator trusts a sliding-window Unique
//! Node List (UNL). Shows how UNL overlap governs soundness (B³), and
//! compares asymmetric DAG-Rider against the symmetric DAG-Rider baseline on
//! the same workload.
//!
//! ```bash
//! cargo run --example ripple_unl
//! ```

use asym_dag_rider::prelude::*;

/// Runs one checked cell: 8 waves, 3 blocks of 8 txs per process, p4
/// crashed, random 5–50 unit link latency.
fn run(topology: TopologySpec, protocol: ProtocolSpec) -> ScenarioOutcome {
    let scenario = Scenario::new(
        topology,
        FaultPlan::crash_from_start([4]),
        SchedulerSpec::RandomLatency { min: 5, max: 50 },
        3,
    )
    .waves(8)
    .blocks_per_process(3)
    .txs_per_block(8)
    .protocol(protocol);
    checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"))
}

fn report(label: &str, outcome: &ScenarioOutcome) {
    println!(
        "  {label}: {} waves/commit, {} txs ordered, {} messages, simulated time {}",
        outcome.waves_per_commit().map(|w| format!("{w:.2}")).unwrap_or_else(|| "∞".into()),
        outcome.max_txs_ordered(),
        outcome.net.sent,
        outcome.time
    );
}

fn main() {
    let n = 10;

    // ---- Overlap study: when do sliding-window UNLs admit quorums? ----
    println!("UNL overlap vs. soundness (n = {n}, f = 1):");
    for unl in [4usize, 6, 8, 10] {
        let t = topology::ripple_unl(n, unl, 1);
        let b3 = t.fail_prone.satisfies_b3();
        println!(
            "  UNL size {unl:2}: min overlap {:2} → B3 {}",
            unl.saturating_sub(n - unl),
            if b3 { "holds — usable" } else { "violated — unsound" }
        );
    }

    // ---- Consensus on the sound configuration. ----
    let ripple = TopologySpec::RippleUnl { n, unl: 8, f: 1 };
    println!("\nrunning {ripple} with one crashed validator (p4)…");
    report("asymmetric DAG-Rider", &run(ripple, ProtocolSpec::AsymDagRider));

    // ---- Baseline: symmetric DAG-Rider with the equivalent threshold. ----
    let threshold = TopologySpec::UniformThreshold { n, f: 1 };
    report("symmetric baseline (f=1)", &run(threshold, ProtocolSpec::DagRider));
    println!(
        "\nthe asymmetric run pays extra control messages (ACK/READY/CONFIRM) \
         for per-validator trust autonomy — the paper's central trade-off."
    );
}
