//! LAT-C / BASE: end-to-end consensus cost — asymmetric DAG-Rider
//! (Algorithms 4–6) vs. the symmetric DAG-Rider baseline, across system
//! sizes and trust topologies. Wall time per bounded execution (fixed wave
//! budget, run to quiescence) of one scenario cell, which the invariant
//! checkers audit once before it is timed; the derived observables (waves
//! per commit, message counts, simulated latency) are printed by
//! `cargo run -p asym-bench --bin exp_waves` / `exp_latency`. The
//! `consensus-horizon` group times one cell at two DAG heights.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use asym_dag_rider::prelude::*;

/// A 3-wave, one-block-per-process cell under seeded random delivery.
fn cell(t: TopologySpec, faults: FaultPlan, protocol: ProtocolSpec) -> Scenario {
    Scenario::new(t, faults, SchedulerSpec::Random, 1).waves(3).protocol(protocol)
}

/// Checks a cell once (outside the timed loop), then times plain runs.
fn bench_cell(g: &mut criterion::BenchmarkGroup<'_>, id: impl Into<String>, scenario: Scenario) {
    checks::run_and_check_all(&scenario).unwrap_or_else(|e| panic!("{e}"));
    g.bench_function(id.into(), |b| b.iter(|| black_box(scenario.run().steps)));
}

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus-3-waves");
    g.sample_size(10);
    for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
        let t = TopologySpec::UniformThreshold { n, f };
        for (name, protocol) in [
            ("asym-dag-rider", ProtocolSpec::AsymDagRider),
            ("dag-rider-baseline", ProtocolSpec::DagRider),
        ] {
            let id = BenchmarkId::new(name, n).to_string();
            bench_cell(&mut g, id, cell(t, FaultPlan::none(), protocol));
        }
    }
    g.finish();
}

fn bench_topologies(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus-topologies");
    g.sample_size(10);
    for t in [
        TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
        TopologySpec::StellarTiers { n: 10, core: 4, f_core: 1 },
    ] {
        bench_cell(&mut g, t.to_string(), cell(t, FaultPlan::none(), ProtocolSpec::AsymDagRider));
    }
    g.finish();
}

fn bench_crash_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus-with-crash");
    g.sample_size(10);
    let t = TopologySpec::UniformThreshold { n: 7, f: 2 };
    let asym = ProtocolSpec::AsymDagRider;
    bench_cell(&mut g, "no-crash", cell(t, FaultPlan::none(), asym));
    bench_cell(&mut g, "two-crashes", cell(t, FaultPlan::crash_from_start([5, 6]), asym));
    g.finish();
}

/// The same fault-free ripple cell at 32 and 128 waves. Vertex creation
/// and commit walk only what is new, so the time per wave (time per
/// execution over waves) should stay flat as the DAG grows.
fn bench_horizon(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus-horizon");
    g.sample_size(10);
    let t = TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 };
    for waves in [32, 128] {
        let scenario = cell(t, FaultPlan::none(), ProtocolSpec::AsymDagRider).waves(waves);
        bench_cell(&mut g, BenchmarkId::new("waves", waves).to_string(), scenario);
    }
    g.finish();
}

criterion_group!(benches, bench_scaling, bench_topologies, bench_crash_overhead, bench_horizon);
criterion_main!(benches);
