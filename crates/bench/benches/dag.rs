//! Cost of the DAG substrate: vertex insertion, lookups by identity (the
//! message and commit paths' hot query), strong-path queries (the commit
//! rule's hot loop), causal-history traversal, and the wave commit walk
//! (ordering).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use asym_core::{Block, WaveCommitter};
use asym_dag::{round_of_wave, DagStore, Vertex, VertexId};
use asym_dag_rider::crypto::CommonCoin;
use asym_quorum::{ProcessId, ProcessSet};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Fully connected DAG: n processes, `rounds` rounds.
fn full_dag(n: usize, rounds: u64) -> DagStore<Block> {
    let mut dag = DagStore::with_genesis(n, Block::default());
    for r in 1..=rounds {
        for i in 0..n {
            dag.insert(Vertex::new(
                pid(i),
                r,
                Block::new(vec![r * 1000 + i as u64]),
                ProcessSet::full(n),
                vec![],
            ))
            .unwrap();
        }
    }
    dag
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag-insert");
    for n in [4usize, 10, 30] {
        g.bench_with_input(BenchmarkId::new("build-20-rounds", n), &n, |b, _| {
            b.iter(|| black_box(full_dag(n, 20)))
        });
    }
    g.finish();
}

fn bench_strong_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag-strong-path");
    for n in [4usize, 10, 30] {
        let dag = full_dag(n, 40);
        let from = VertexId::new(40, pid(0));
        let to = VertexId::new(1, pid(n - 1));
        g.bench_with_input(BenchmarkId::new("depth-40", n), &n, |b, _| {
            b.iter(|| black_box(dag.strong_path(from, to)))
        });
        g.bench_with_input(BenchmarkId::new("reach-sources-wave", n), &n, |b, _| {
            b.iter(|| black_box(dag.strong_reachable_sources(VertexId::new(8, pid(0)), 5)))
        });
    }
    g.finish();
}

fn bench_causal_history(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag-causal-history");
    g.sample_size(30);
    for n in [4usize, 10, 30] {
        let dag = full_dag(n, 40);
        let from = VertexId::new(40, pid(0));
        g.bench_with_input(BenchmarkId::new("depth-40", n), &n, |b, _| {
            b.iter(|| black_box(dag.causal_history(from).len()))
        });
    }
    g.finish();
}

/// `contains` and `get` over a 129-round DAG of `ripple_unl(10, 8, 1)`'s
/// size (n = 10, 32 waves): every stored id, then as many misses — one
/// vertex removed per round, and ids above the top round.
fn bench_contains_get(c: &mut Criterion) {
    let (n, rounds) = (10, 129);
    let mut dag = full_dag(n, rounds);
    let removed: Vec<VertexId> =
        (1..=rounds).map(|r| VertexId::new(r, pid(r as usize % n))).collect();
    for id in &removed {
        dag.remove(*id);
    }
    let hits: Vec<VertexId> = dag.vertices_in_rounds(..).map(Vertex::id).collect();
    let misses: Vec<VertexId> = removed
        .iter()
        .copied()
        .chain(
            (0..hits.len() - removed.len())
                .map(|k| VertexId::new(rounds + 1 + (k / n) as u64, pid(k % n))),
        )
        .collect();
    let mut g = c.benchmark_group("dag-contains-get");
    for (name, ids) in [("hits", &hits), ("misses", &misses)] {
        g.bench_with_input(BenchmarkId::new("contains", name), ids, |b, ids| {
            b.iter(|| black_box(ids.iter().filter(|id| dag.contains(**id)).count()))
        });
        g.bench_with_input(BenchmarkId::new("get", name), ids, |b, ids| {
            b.iter(|| {
                black_box(ids.iter().filter_map(|id| dag.get(*id)).map(|v| v.round()).sum::<u64>())
            })
        });
    }
    g.finish();
}

/// `WaveCommitter::wave_ready` over 32 waves of a full n = 10 DAG, from a
/// fresh committer: the leader checks, the strong-path commit rule and the
/// delivery walk of every vertex once.
fn bench_commit_walk(c: &mut Criterion) {
    let (n, waves) = (10, 32);
    let dag = full_dag(n, round_of_wave(waves, 4) + 1);
    let coin = CommonCoin::new(7, n);
    let mut g = c.benchmark_group("commit-walk");
    g.sample_size(30);
    g.bench_function("wave-ready-32-waves", |b| {
        b.iter(|| {
            let mut committer = WaveCommitter::new();
            let mut out = Vec::new();
            for w in 1..=waves {
                committer.wave_ready(&dag, &coin, w, |_| true, &mut out);
            }
            black_box(out.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_contains_get,
    bench_strong_path,
    bench_causal_history,
    bench_commit_walk
);
criterion_main!(benches);
