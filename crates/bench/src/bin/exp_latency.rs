//! LAT-G / LAT-C: message complexity and simulated-time latency.
//!
//! * gather: Algorithm 1 vs Algorithm 3 vs the (unsound) Algorithm 2 —
//!   messages and simulated time to everyone's `ag-deliver`;
//! * consensus: asymmetric DAG-Rider vs the symmetric baseline — simulated
//!   time per committed wave and per ordered transaction.
//!
//! ```bash
//! cargo run -p asym-bench --bin exp_latency
//! ```

use asym_bench::{measure, render_table, Row};
use asym_dag_rider::prelude::*;
use asym_gather::{AsymGather, NaiveGather, SymGather};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn gather_cost<P, F>(n: usize, make: F, seed: u64) -> (u64, u64)
where
    P: asym_sim::Protocol<Input = u64>,
    P::Msg: Clone + core::fmt::Debug + 'static,
    F: Fn(usize) -> P,
{
    let procs: Vec<P> = (0..n).map(make).collect();
    let mut sim = Simulation::new(procs, scheduler::RandomLatency::new(seed, 1, 20));
    for i in 0..n {
        sim.input(pid(i), i as u64);
    }
    let r = sim.run(u64::MAX);
    assert!(r.quiescent);
    (sim.stats().sent, sim.now())
}

fn main() {
    // ---- LAT-G: gather protocols. ----
    let mut rows = Vec::new();
    for (n, f) in [(4usize, 1usize), (7, 2), (10, 3), (16, 5)] {
        let t = topology::uniform_threshold(n, f);
        let (m1, t1) = gather_cost(n, |i| SymGather::<u64>::new(pid(i), n, f), 7);
        let (m2, t2) = gather_cost(n, |i| NaiveGather::<u64>::new(pid(i), t.quorums.clone()), 7);
        let (m3, t3) = gather_cost(n, |i| AsymGather::<u64>::new(pid(i), t.quorums.clone()), 7);
        rows.push(Row {
            label: format!("n={n}, f={f}"),
            values: vec![
                ("alg1 msgs".into(), m1 as f64),
                ("alg2 msgs".into(), m2 as f64),
                ("alg3 msgs".into(), m3 as f64),
                ("alg1 time".into(), t1 as f64),
                ("alg2 time".into(), t2 as f64),
                ("alg3 time".into(), t3 as f64),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            "LAT-G — gather cost to full delivery (random 1–20 unit link latency).\n\
             alg1 = symmetric 3-round; alg2 = quorum-replacement (UNSOUND, for cost \
             reference only); alg3 = constant-round asymmetric (sound)",
            &rows
        )
    );
    println!(
        "shape: alg3 pays a constant-factor message overhead (ACK/READY/CONFIRM are\n\
         O(n²) like the distribute rounds) and stays within a small constant of the\n\
         3-round latency — the paper's 'constant-round' claim. alg2 is as cheap as\n\
         alg1 but provides no common-core guarantee (Lemma 3.2).\n"
    );

    // ---- LAT-C: consensus. ----
    let mut rows = Vec::new();
    for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
        let t = TopologySpec::UniformThreshold { n, f };
        let waves = 8;
        let (wpc_a, msgs_a, time_a) = measure(t, ProtocolSpec::AsymDagRider, waves, 3);
        let (wpc_s, msgs_s, time_s) = measure(t, ProtocolSpec::DagRider, waves, 3);
        rows.push(Row {
            label: format!("n={n}, f={f}"),
            values: vec![
                ("asym w/commit".into(), wpc_a),
                ("sym w/commit".into(), wpc_s),
                ("asym msgs".into(), msgs_a as f64),
                ("sym msgs".into(), msgs_s as f64),
                ("asym time".into(), time_a as f64),
                ("sym time".into(), time_s as f64),
            ],
        });
    }
    println!(
        "{}",
        render_table("LAT-C — consensus over 8 waves (random 1–20 unit link latency)", &rows)
    );
    println!(
        "shape: on uniform thresholds both protocols commit every ≈3/2 waves; the\n\
         asymmetric variant's simulated time per wave stays within a constant factor\n\
         (the extra CONFIRM gating between rounds 2 and 3), matching §4.3."
    );
}
