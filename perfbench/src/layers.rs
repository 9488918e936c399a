//! Per-layer timings taken outside the execution: public calls into the
//! DAG store, the quorum predicates and the event log, replayed on the
//! state and the inputs a probed execution left behind.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use asym_core::{AsymDagRider, Block, DagLog};
use asym_dag::{round_of_wave, DagStore, Vertex, VertexId, WaveId};
use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};
use asym_storage::StorageBackend;

use crate::probe::BcastEvent;

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

#[derive(Clone, Copy, Debug, Default)]
pub struct DagTimes {
    pub insert_ns: u64,
    pub inserts: u64,
    pub strong_ns: u64,
    pub strongs: u64,
    pub causal_ns: u64,
    pub causals: u64,
    pub vertices: u64,
    pub dags: u64,
}

/// Passes over the DAG's vertices re-inserted into a fresh store.
const INSERT_PASSES: usize = 3;

/// Times `DagStore` calls on one final DAG: re-inserting its vertices into
/// a fresh store, `strong_path` from each wave's round-4 vertices to its
/// round-1 vertices, and `causal_history` of each committed leader.
pub fn time_dag(
    dag: &DagStore<Block>,
    n: usize,
    leaders: &[(WaveId, VertexId)],
    out: &mut DagTimes,
) {
    let max_round = dag.max_round().unwrap_or(0);
    let vertices: Vec<Vertex<Block>> =
        (1..=max_round).flat_map(|r| dag.vertices_in_round(r).cloned()).collect();
    for _ in 0..INSERT_PASSES {
        let mut fresh = DagStore::with_genesis(n, Block::default());
        for v in &vertices {
            for p in v.parents() {
                if dag.is_pruned(p) {
                    fresh.note_pruned(p);
                }
            }
        }
        let batch = vertices.clone();
        let start = Instant::now();
        for v in batch {
            let _ = black_box(fresh.insert(v));
        }
        out.insert_ns += elapsed_ns(start);
        out.inserts += vertices.len() as u64;
    }
    for wave in 1.. {
        let (r1, r4) = (round_of_wave(wave, 1), round_of_wave(wave, 4));
        if r4 > max_round {
            break;
        }
        let tops: Vec<VertexId> = dag.vertices_in_round(r4).map(Vertex::id).collect();
        let bottoms: Vec<VertexId> = dag.vertices_in_round(r1).map(Vertex::id).collect();
        let start = Instant::now();
        for a in &tops {
            for b in &bottoms {
                black_box(dag.strong_path(*a, *b));
            }
        }
        out.strong_ns += elapsed_ns(start);
        out.strongs += (tops.len() * bottoms.len()) as u64;
    }
    for (_, leader) in leaders {
        if !dag.contains(*leader) {
            continue;
        }
        let start = Instant::now();
        black_box(dag.causal_history(*leader));
        out.causal_ns += elapsed_ns(start);
        out.causals += 1;
    }
    out.vertices += dag.len() as u64;
    out.dags += 1;
}

#[derive(Clone, Copy, Debug, Default)]
pub struct QuorumTimes {
    pub contains_ns: u64,
    pub contains: u64,
    pub kernel_ns: u64,
    pub kernels: u64,
}

fn mask_set(mask: u64) -> ProcessSet {
    (0..64).filter(|i| mask >> i & 1 == 1).collect()
}

/// Calls collected before their sets are built and timed together.
const CHUNK: usize = 4096;

#[derive(Default)]
struct Instance {
    echoes: u64,
    readies: u64,
    sent_ready: bool,
    delivered: bool,
}

/// Re-times the quorum predicates the broadcast hub evaluated on the ECHO
/// and READY sender sets each process observed, in the hub's call order:
/// `contains_quorum_for` on echoes until READY is sent, `hits_kernel_for`
/// on readies until READY is sent and `contains_quorum_for` on readies
/// until delivery.
pub fn time_predicates(q: &AsymQuorumSystem, observed: &[&[BcastEvent]], out: &mut QuorumTimes) {
    assert!(q.n() <= 64, "sender sets are kept as 64-bit masks");
    let mut contains: Vec<(ProcessId, u64)> = Vec::with_capacity(CHUNK);
    let mut kernels: Vec<(ProcessId, u64)> = Vec::with_capacity(CHUNK);
    for (i, events) in observed.iter().enumerate() {
        let me = ProcessId::new(i);
        let mut instances: HashMap<(u8, u32), Instance> = HashMap::new();
        for e in events.iter() {
            let inst = instances.entry((e.origin, e.tag)).or_default();
            if e.ready {
                inst.readies |= 1 << e.from;
                if !inst.sent_ready {
                    kernels.push((me, inst.readies));
                    inst.sent_ready = q.hits_kernel_for(me, &mask_set(inst.readies));
                }
                if !inst.delivered {
                    contains.push((me, inst.readies));
                    inst.delivered = q.contains_quorum_for(me, &mask_set(inst.readies));
                }
            } else {
                inst.echoes |= 1 << e.from;
                if !inst.sent_ready {
                    contains.push((me, inst.echoes));
                    inst.sent_ready = q.contains_quorum_for(me, &mask_set(inst.echoes));
                }
            }
            if contains.len() + kernels.len() >= CHUNK {
                flush_predicates(q, &mut contains, &mut kernels, out);
            }
        }
    }
    flush_predicates(q, &mut contains, &mut kernels, out);
}

fn flush_predicates(
    q: &AsymQuorumSystem,
    contains: &mut Vec<(ProcessId, u64)>,
    kernels: &mut Vec<(ProcessId, u64)>,
    out: &mut QuorumTimes,
) {
    let sets: Vec<(ProcessId, ProcessSet)> =
        contains.drain(..).map(|(p, m)| (p, mask_set(m))).collect();
    let start = Instant::now();
    for (p, s) in &sets {
        black_box(q.contains_quorum_for(*p, s));
    }
    out.contains_ns += elapsed_ns(start);
    out.contains += sets.len() as u64;
    let sets: Vec<(ProcessId, ProcessSet)> =
        kernels.drain(..).map(|(p, m)| (p, mask_set(m))).collect();
    let start = Instant::now();
    for (p, s) in &sets {
        black_box(q.hits_kernel_for(*p, s));
    }
    out.kernel_ns += elapsed_ns(start);
    out.kernels += sets.len() as u64;
}

#[derive(Clone, Copy, Debug, Default)]
pub struct StorageTimes {
    pub append_ns: u64,
    pub appends: u64,
    pub replay_ns: u64,
    pub replays: u64,
    pub records: u64,
    pub bytes: u64,
    pub snapshots: u64,
    pub delivered: u64,
}

/// Times the event log of one WAL-equipped process: its persisted events
/// re-appended into a fresh in-memory log, and `replay` of the final log.
pub fn time_storage(
    rider: &AsymDagRider,
    delivered: usize,
    out: &mut StorageTimes,
) -> Result<(), String> {
    let Some(log) = rider.storage() else {
        return Ok(());
    };
    let stats = log.stats();
    out.records += stats.records_appended;
    out.bytes += stats.bytes_appended;
    out.snapshots += stats.snapshots_written;
    out.delivered += delivered as u64;
    let events = log.events().map_err(|e| format!("reading the WAL failed: {e}"))?.events;
    let mut fresh = DagLog::new(StorageBackend::in_memory());
    let start = Instant::now();
    for event in &events {
        fresh.append(event).map_err(|e| format!("re-append failed: {e}"))?;
    }
    out.append_ns += elapsed_ns(start);
    out.appends += events.len() as u64;
    let start = Instant::now();
    let replayed = rider.replay_storage();
    out.replay_ns += elapsed_ns(start);
    out.replays += 1;
    match replayed {
        Some(Err(e)) => Err(format!("WAL replay failed: {e}")),
        _ => Ok(()),
    }
}
