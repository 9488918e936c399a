//! THRU: throughput under increasing load — the paper's motivation for DAG
//! protocols is that transaction dissemination parallelizes (every process
//! contributes one vertex per round), unlike single-leader chains. This
//! experiment scales the injected load and reports ordered transactions per
//! simulated time unit for asymmetric DAG-Rider and the symmetric baseline.
//!
//! ```bash
//! cargo run --release -p asym-bench --bin exp_throughput
//! ```

use asym_bench::{render_table, Row};
use asym_dag_rider::prelude::*;

/// One fault-free checked cell: 8 waves, random 1–20 unit link latency.
/// Returns `(ordered txs, simulated time, txs per time unit)`.
fn run(t: TopologySpec, protocol: ProtocolSpec, blocks: usize, txs: usize) -> (u64, u64, f64) {
    let scenario =
        Scenario::new(t, FaultPlan::none(), SchedulerSpec::RandomLatency { min: 1, max: 20 }, 11)
            .waves(8)
            .blocks_per_process(blocks)
            .txs_per_block(txs)
            .protocol(protocol);
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    let txs_ordered = outcome.max_txs_ordered();
    let time = outcome.time.max(1);
    (txs_ordered, time, txs_ordered as f64 / time as f64)
}

fn main() {
    let mut rows = Vec::new();
    let t = TopologySpec::UniformThreshold { n: 7, f: 2 };
    for (blocks, txs) in [(1usize, 4usize), (2, 16), (4, 64), (8, 128)] {
        let injected = 7 * blocks * txs;
        let (a_txs, a_time, a_tput) = run(t, ProtocolSpec::AsymDagRider, blocks, txs);
        let (s_txs, s_time, s_tput) = run(t, ProtocolSpec::DagRider, blocks, txs);
        rows.push(Row {
            label: format!("load {injected} txs"),
            values: vec![
                ("asym ordered".into(), a_txs as f64),
                ("asym time".into(), a_time as f64),
                ("asym tput".into(), a_tput),
                ("sym ordered".into(), s_txs as f64),
                ("sym time".into(), s_time as f64),
                ("sym tput".into(), s_tput),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            "THRU — n=7, 8 waves, random 1–20 unit link latency; \
             tput = ordered txs per simulated time unit",
            &rows
        )
    );

    // Topology sweep at fixed load: asymmetric trust does not tax throughput.
    let mut rows = Vec::new();
    for t in [
        TopologySpec::UniformThreshold { n: 7, f: 2 },
        TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
        TopologySpec::StellarTiers { n: 10, core: 4, f_core: 1 },
    ] {
        let (txs, time, tput) = run(t, ProtocolSpec::AsymDagRider, 4, 64);
        rows.push(Row {
            label: t.to_string(),
            values: vec![
                ("ordered".into(), txs as f64),
                ("time".into(), time as f64),
                ("tput".into(), tput),
            ],
        });
    }
    println!("{}", render_table("THRU/topologies — asymmetric DAG-Rider, load 4×64", &rows));
    println!(
        "shape: throughput rises with load (vertices batch whatever is queued) and\n\
         the asymmetric variant tracks the baseline within its constant control-\n\
         message overhead — trust heterogeneity costs latency constants, not\n\
         throughput. This mirrors the paper's §1 motivation for DAG protocols."
    );
}
