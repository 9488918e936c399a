//! Cost of the broadcast layer: one asymmetric reliable broadcast to full
//! delivery (all processes), across system sizes and quorum representations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use asym_broadcast::ArbProcess;
use asym_dag_rider::prelude::*;

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn run_arb(quorums: &AsymQuorumSystem, seed: u64) -> u64 {
    let n = quorums.n();
    let procs: Vec<ArbProcess> = (0..n).map(|i| ArbProcess::new(pid(i), quorums.clone())).collect();
    let mut sim = Simulation::new(procs, scheduler::Random::new(seed));
    sim.input(pid(0), (0, 7));
    let r = sim.run(u64::MAX);
    assert!(r.quiescent);
    r.steps
}

fn bench_reliable(c: &mut Criterion) {
    let mut g = c.benchmark_group("reliable-broadcast");
    g.sample_size(20);
    for (n, f) in [(4usize, 1usize), (10, 3), (16, 5)] {
        let t = topology::uniform_threshold(n, f);
        g.bench_with_input(BenchmarkId::new("threshold", n), &n, |b, _| {
            b.iter(|| black_box(run_arb(&t.quorums, 1)))
        });
    }
    let fig1 = asym_quorum::counterexample::fig1_quorums();
    g.bench_function("fig1-n30", |b| b.iter(|| black_box(run_arb(&fig1, 1))));
    g.finish();
}

criterion_group!(benches, bench_reliable);
criterion_main!(benches);
