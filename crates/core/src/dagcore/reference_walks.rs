//! Differential test of the two walks that visit only what is new — weak
//! edges (`compute_weak_edges`) and the commit walk (`wave_ready`) —
//! against the paper's whole-DAG definitions built on
//! [`DagStore::causal_history`]: `setWeakEdges` (Algorithm 4, lines 84–88)
//! and `orderVertices` (Algorithm 6, lines 163–169). Random schedules mix
//! late arrivals, processes that skip rounds, weak edges, commits, pruning,
//! fast-forwards and restarts from the write-ahead log.

use std::collections::{BTreeSet, HashSet};

use asym_crypto::CommonCoin;
use asym_dag::{round_of_wave, DagStore, Round, Vertex, VertexId};
use asym_quorum::{topology, ProcessId, ProcessSet};
use asym_storage::StorageBackend;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use super::{DagCore, DagLog};
use crate::ordering::WaveCommitter;
use crate::types::{Block, RiderConfig};

const N: usize = 4;
const STEPS: usize = 400;

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// `setWeakEdges` as written: for `r` from `round − 2` down to 1, every
/// stored round-`r` vertex without a path from the new vertex becomes a
/// weak edge.
fn reference_weak_edges(dag: &DagStore<Block>, round: Round, strong: &ProcessSet) -> Vec<VertexId> {
    let mut reach: HashSet<VertexId> = HashSet::new();
    for s in strong {
        reach.extend(dag.causal_history(VertexId::new(round - 1, s)));
    }
    let mut weak = Vec::new();
    for r in (1..round.saturating_sub(1)).rev() {
        for v in dag.vertices_in_round(r) {
            if !reach.contains(&v.id()) {
                weak.push(v.id());
                reach.extend(dag.causal_history(v.id()));
            }
        }
    }
    weak
}

/// `orderVertices` for one leader as written: its causal history minus the
/// delivered vertices and genesis, sorted.
fn reference_delivery(
    dag: &DagStore<Block>,
    delivered: &HashSet<VertexId>,
    leader: VertexId,
) -> Vec<VertexId> {
    let history = dag.causal_history(leader).into_iter();
    history.filter(|id| id.round != 0 && !delivered.contains(id)).collect()
}

/// How often each branch of the weak-edge search ran.
#[derive(Default)]
struct Coverage {
    incremental: usize,
    reseeded: usize,
}

/// Drives process 0's engine and committer through one random schedule;
/// processes 1..N only author vertices, which reach process 0 in random
/// order. Every created vertex and every commit is checked against the
/// reference definitions.
fn run_schedule(seed: u64) -> Result<Coverage, TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let quorums = topology::uniform_threshold(N, 1).quorums;
    let config = RiderConfig { max_waves: 6, ..RiderConfig::default() };
    let me = pid(0);
    let mut core = DagCore::new(me, quorums.clone(), config);
    core.set_log(DagLog::new(StorageBackend::in_memory()));
    let coin = CommonCoin::new(seed, N);
    let mut committer = WaveCommitter::new();
    // Every vertex any process created: the network.
    let mut pool: Vec<Vertex<Block>> = Vec::new();
    // Per round, the sources with a vertex in `pool` (genesis is round 0).
    let mut authored: Vec<ProcessSet> = vec![ProcessSet::full(N)];
    let mut next_round = [1; N];
    let mut coverage = Coverage::default();

    // One restart is forced at mid height, so every schedule reseeds.
    let mut mid_restart = false;
    for _ in 0..STEPS {
        let mid = !mid_restart && core.round() >= config.max_round() / 2;
        mid_restart |= mid;
        if mid || rng.random_bool(0.01) {
            let log = core.take_log().expect("log attached");
            let recovered = log.replay(N, me, Block::default()).expect("in-memory log replays");
            core = DagCore::from_recovered(me, quorums.clone(), config, &recovered, log);
        }
        match rng.random_range(0..100u32) {
            // Another process authors its next vertex, or skips the round
            // when someone else already filled it.
            0..=29 => {
                let p = rng.random_range(1..N);
                let r = next_round[p];
                if r > config.max_round() || r > core.round() + 3 {
                    continue;
                }
                next_round[p] += 1;
                if authored.len() > r as usize && rng.random_bool(0.2) {
                    continue;
                }
                let below = authored[r as usize - 1].clone();
                let mut strong: ProcessSet =
                    below.iter().filter(|_| rng.random_bool(0.7)).collect();
                if strong.is_empty() {
                    strong.insert(below.iter().next().expect("every round has a vertex"));
                }
                let weak: Vec<VertexId> = pool
                    .iter()
                    .filter(|v| v.round() + 1 < r && rng.random_bool(0.05))
                    .map(Vertex::id)
                    .collect();
                if authored.len() == r as usize {
                    authored.push(ProcessSet::new());
                }
                authored[r as usize].insert(pid(p));
                pool.push(Vertex::new(pid(p), r, Block::new(vec![seed, r]), strong, weak));
            }
            // One not-yet-known vertex arrives at process 0, possibly long
            // after its round; it may wait in the buffer until the next
            // drain, which can be the one that stores process 0's vertex.
            30..=64 => {
                let unknown: Vec<&Vertex<Block>> =
                    pool.iter().filter(|v| !core.knows(v.id())).collect();
                if !unknown.is_empty() {
                    let v = unknown[rng.random_range(0..unknown.len())].clone();
                    core.accept_fetched(v);
                    if rng.random_bool(0.7) {
                        core.drain_buffer();
                    }
                }
            }
            // Process 0 creates its next vertex.
            65..=84 => {
                let r = core.round() + 1;
                let strong = core.dag().sources_in_round_or_pruned(r - 1);
                if r > config.max_round() || strong.is_empty() {
                    continue;
                }
                if r >= 3 {
                    let own = VertexId::new(r - 1, me);
                    if core.covered + 1 == r && core.dag().contains(own) {
                        coverage.incremental += 1;
                    } else {
                        coverage.reseeded += 1;
                    }
                }
                let expected = reference_weak_edges(core.dag(), r, &strong);
                core.advance_and_broadcast(r);
                let v = core.dag().get(VertexId::new(r, me)).expect("own vertex stored").clone();
                prop_assert_eq!(v.strong_edges(), &strong);
                let weak = v.weak_edges();
                prop_assert_eq!(weak, &expected[..], "{}: {:?} != {:?}", v.id(), weak, expected);
                if authored.len() == r as usize {
                    authored.push(ProcessSet::new());
                }
                authored[r as usize].insert(me);
                pool.push(v);
            }
            // A wave boundary, possibly skipping a wave, with a random rule
            // outcome; every leader committed must deliver exactly its
            // reference history.
            85..=94 => {
                let w = committer.decided_wave() + rng.random_range(1..3u64);
                if round_of_wave(w, 1) > core.round() {
                    continue;
                }
                let mut delivered: HashSet<VertexId> = committer.delivered().collect();
                let logged = committer.log().len();
                let rule = rng.random_bool(0.7);
                let mut out = Vec::new();
                committer.wave_ready(core.dag(), &coin, w, |_| rule, &mut out);
                let mut expected = Vec::new();
                for (_, leader) in &committer.log()[logged..] {
                    let fresh = reference_delivery(core.dag(), &delivered, *leader);
                    delivered.extend(&fresh);
                    expected.extend(fresh);
                }
                let got: Vec<VertexId> = out.iter().map(|o| o.id).collect();
                prop_assert_eq!(got, expected, "wave {}: {:?} != {:?}", w, got, expected);
            }
            // Snapshot-time garbage collection of the delivered prefix.
            95..=97 => {
                let delivered: BTreeSet<VertexId> = committer.delivered().collect();
                let top = delivered.iter().map(|id| id.round).max().unwrap_or(0);
                let floor = rng.random_range(0..=top);
                let _ = core.prune_delivered(|id| delivered.contains(&id), floor);
            }
            // A state install's jump past rounds this process never ran.
            _ => {
                let ahead = core.round() + rng.random_range(1..3u64);
                core.fast_forward_round(ahead.min(config.max_round() - 1));
            }
        }
    }
    Ok(coverage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn walks_match_the_whole_dag_definitions(seed in 0u64..u64::MAX) {
        let coverage = run_schedule(seed)?;
        prop_assert!(coverage.incremental > 0, "no incremental weak-edge search");
        prop_assert!(coverage.reseeded > 0, "no reseeded weak-edge search");
    }
}
