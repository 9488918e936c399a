//! LAT-G: cost of the gather protocols — the 3-round quorum-replacement
//! gather (on a threshold system both Algorithm 1 and Algorithm 2) vs. the
//! constant-round asymmetric gather (Algorithm 3), which pays the
//! ACK/READY/CONFIRM control layer for asymmetric soundness.
//!
//! Criterion reports wall time per full protocol execution (all processes to
//! `ag-deliver`, simulation to quiescence); message counts are reported by
//! `cargo run -p asym-bench --bin exp_latency`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use asym_dag_rider::prelude::*;
use asym_gather::{AsymGather, NaiveGather};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Runs one gather execution to quiescence, process `i` proposing `i`;
/// returns the delivery steps.
fn run<P>(procs: Vec<P>, seed: u64) -> u64
where
    P: asym_sim::Protocol<Input = u64>,
    P::Msg: Clone + core::fmt::Debug + 'static,
{
    let n = procs.len();
    let mut sim = Simulation::new(procs, scheduler::Random::new(seed));
    for i in 0..n {
        sim.input(pid(i), i as u64);
    }
    let r = sim.run(u64::MAX);
    assert!(r.quiescent);
    r.steps
}

fn run_asym(t: &topology::Topology, seed: u64) -> u64 {
    run((0..t.n()).map(|i| AsymGather::<u64>::new(pid(i), t.quorums.clone())).collect(), seed)
}

fn run_naive(t: &topology::Topology, seed: u64) -> u64 {
    run((0..t.n()).map(|i| NaiveGather::<u64>::new(pid(i), t.quorums.clone(), 3)).collect(), seed)
}

fn bench_gather_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather-full-run");
    g.sample_size(10);
    for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
        let t = topology::uniform_threshold(n, f);
        g.bench_with_input(BenchmarkId::new("algorithm3-asymmetric", n), &n, |b, _| {
            b.iter(|| black_box(run_asym(&t, 1)))
        });
        g.bench_with_input(BenchmarkId::new("algorithm2-naive", n), &n, |b, _| {
            b.iter(|| black_box(run_naive(&t, 1)))
        });
    }
    g.finish();
}

fn bench_gather_topologies(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather-asym-topologies");
    g.sample_size(10);
    let fig1 = topology::Topology {
        name: "fig1".into(),
        fail_prone: asym_quorum::counterexample::fig1_fail_prone(),
        quorums: asym_quorum::counterexample::fig1_quorums(),
    };
    for t in [topology::ripple_unl(10, 8, 1), topology::stellar_tiers(10, 4, 1), fig1] {
        let name = t.name.clone();
        g.bench_function(&name, |b| b.iter(|| black_box(run_asym(&t, 1))));
    }
    g.finish();
}

criterion_group!(benches, bench_gather_protocols, bench_gather_topologies);
criterion_main!(benches);
