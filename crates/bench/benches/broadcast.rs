//! Cost of the broadcast layer: one asymmetric reliable broadcast to full
//! delivery (all processes), across system sizes and quorum representations,
//! and the hub's per-message cost on a recorded stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use asym_broadcast::{ArbProcess, BcastMsg, BroadcastHub};
use asym_dag_rider::prelude::*;
use asym_sim::{Context, Protocol};

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

/// A process running one hub that keeps every ECHO and READY it receives.
struct Recorder {
    hub: BroadcastHub<u64>,
    heard: Vec<(ProcessId, BcastMsg<u64>)>,
}

impl Protocol for Recorder {
    type Msg = BcastMsg<u64>;
    type Input = u64;
    type Output = ();

    fn on_input(&mut self, value: u64, ctx: &mut Context<'_, Self::Msg, ()>) {
        for m in self.hub.broadcast(1, value) {
            ctx.broadcast(m);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BcastMsg<u64>,
        ctx: &mut Context<'_, Self::Msg, ()>,
    ) {
        if !matches!(msg, BcastMsg::Send { .. }) {
            self.heard.push((from, msg.clone()));
        }
        if let Some(m) = self.hub.on_message(from, msg).0 {
            ctx.broadcast(m);
        }
    }
}

/// The ECHO/READY stream p0 receives in one `ripple_unl(10, 8, 1)` round —
/// every process broadcasts one value under tag 1 — in arrival order under
/// a seeded random schedule.
fn recorded_round(quorums: &AsymQuorumSystem) -> Vec<(ProcessId, BcastMsg<u64>)> {
    let procs = (0..quorums.n())
        .map(|i| Recorder { hub: BroadcastHub::new(pid(i), quorums.clone()), heard: Vec::new() })
        .collect();
    let mut sim = Simulation::new(procs, scheduler::Random::new(1));
    for i in 0..quorums.n() {
        sim.input(pid(i), i as u64);
    }
    assert!(sim.run(u64::MAX).quiescent);
    sim.process(pid(0)).heard.clone()
}

/// The hub alone: the recorded round replayed into a fresh hub, so the
/// time per iteration over the stream's length is the cost of one ECHO or
/// READY.
fn bench_hub(c: &mut Criterion) {
    let quorums = topology::ripple_unl(10, 8, 1).quorums;
    let stream = recorded_round(&quorums);
    let mut g = c.benchmark_group("reliable-broadcast");
    g.bench_function("hub-on-message-n10", |b| {
        b.iter(|| {
            let mut hub = BroadcastHub::new(pid(0), quorums.clone());
            for (from, m) in &stream {
                black_box(hub.on_message(*from, m.clone()));
            }
            hub
        })
    });
    g.finish();
    println!("  ({} ECHO/READY messages per iteration)", stream.len());
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

criterion_group!(benches, bench_reliable, bench_hub);
criterion_main!(benches);
