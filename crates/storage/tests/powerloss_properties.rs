//! Property coverage of the powerloss fault injector: for arbitrary event
//! sequences, snapshot points and damage seeds, replay of a
//! powerloss-damaged store — in-memory **and** file-backed — either
//! recovers a consistent *prefix* of the pre-damage history or hard-errors.
//! It never silently diverges: no reordering, no mid-log gaps, no events
//! that were never appended. That includes a reverted snapshot rename
//! next to waves sealed after the snapshot it reverts to.

use proptest::prelude::*;

use asym_dag::{round_of_wave, Vertex, VertexId};
use asym_quorum::{ProcessId, ProcessSet};
use asym_storage::{
    DagEvent, EventLog, FaultyStorage, FileStorage, MemStorage, PowerlossPlan, Storage,
    StorageBackend, StorageError,
};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A replayable event stream: full rounds of a 3-process DAG with
/// bookkeeping interleaved at wave boundaries (insert order respects
/// parents, which is what makes any *prefix* of it replayable too).
fn workload(rounds: u64) -> Vec<DagEvent<Vec<u8>>> {
    let mut events = Vec::new();
    for r in 1..=rounds {
        for i in 0..3 {
            events.push(DagEvent::VertexInserted(Vertex::new(
                pid(i),
                r,
                vec![r as u8, i as u8],
                ProcessSet::full(3),
                vec![],
            )));
        }
        if r.is_multiple_of(4) {
            events.push(DagEvent::WaveConfirmed { wave: r / 4 });
        }
    }
    events
}

/// Applies the scenario under test to any backend: append everything,
/// optionally snapshot at `snapshot_at` (then keep appending), powerloss,
/// and return the damaged store's replay result.
fn damage_and_replay<S: Storage + Clone>(
    backend: S,
    events: &[DagEvent<Vec<u8>>],
    snapshot_at: Option<usize>,
    plan: PowerlossPlan,
) -> Result<usize, StorageError> {
    let mut log: EventLog<Vec<u8>, FaultyStorage<S>> =
        EventLog::new(FaultyStorage::new(backend, plan)).with_snapshot_every(0);
    for (k, ev) in events.iter().enumerate() {
        log.append(ev).unwrap();
        if snapshot_at == Some(k) {
            let state = log.replay(3, pid(0), Vec::new()).unwrap();
            log.compact(&state.dag, |_| None).unwrap();
        }
    }
    log.powerloss().unwrap();
    let state = log.replay(3, pid(0), Vec::new())?;
    Ok(state.dag.len())
}

/// The consistency oracle: the damaged replay must equal the replay of
/// some prefix of the original event sequence (idempotent duplicates from
/// snapshot overlap collapse, so "prefix" is measured in surviving DAG
/// height/content, which grows monotonically with the prefix).
fn assert_prefix_or_error<S: Storage + Clone>(
    backend: S,
    events: &[DagEvent<Vec<u8>>],
    snapshot_at: Option<usize>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let result = damage_and_replay(backend, events, snapshot_at, PowerlossPlan::all_volatile(seed));
    match result {
        // A hard error (corruption, I/O) is a legal outcome — the process
        // fail-stops instead of diverging.
        Err(_) => Ok(()),
        Ok(dag_len) => {
            // Enumerate the DAG sizes every prefix replays to; the damaged
            // replay must land on one of them.
            let mut valid = std::collections::HashSet::new();
            for cut in 0..=events.len() {
                let mut log: EventLog<Vec<u8>, MemStorage> =
                    EventLog::new(MemStorage::new()).with_snapshot_every(0);
                for ev in &events[..cut] {
                    log.append(ev).unwrap();
                }
                valid.insert(log.replay(3, pid(0), Vec::new()).unwrap().dag.len());
            }
            prop_assert!(
                valid.contains(&dag_len),
                "damaged replay reached {dag_len} vertices, not any prefix state {valid:?}"
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-memory backend: damaged replay is a prefix or a hard error.
    #[test]
    fn mem_powerloss_recovers_a_prefix_or_errors(
        rounds in 1u64..8,
        snapshot_seed in 0usize..40,
        seed in 0u64..10_000,
    ) {
        let events = workload(rounds);
        let snapshot_at =
            (snapshot_seed < events.len()).then_some(snapshot_seed);
        assert_prefix_or_error(MemStorage::new(), &events, snapshot_at, seed)?;
    }

    /// File backend: the same property against real `std::fs` files.
    #[test]
    fn file_powerloss_recovers_a_prefix_or_errors(
        rounds in 1u64..6,
        snapshot_seed in 0usize..30,
        seed in 0u64..10_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "asym-powerloss-prop-{}-{seed}-{rounds}-{snapshot_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let events = workload(rounds);
        let snapshot_at = (snapshot_seed < events.len()).then_some(snapshot_seed);
        let result = assert_prefix_or_error(
            FileStorage::open(&dir).unwrap(),
            &events,
            snapshot_at,
            seed,
        );
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
}

#[test]
fn powerloss_through_the_backend_enum_fires_once() {
    // The StorageBackend::Faulty plumbing end-to-end: wrap, damage, reopen.
    let backend = StorageBackend::in_memory().with_powerloss(PowerlossPlan::all_volatile(11));
    let mut log: EventLog<Vec<u8>, StorageBackend> = EventLog::new(backend).with_snapshot_every(0);
    for ev in workload(4) {
        log.append(&ev).unwrap();
    }
    let before = log.replay(3, pid(0), Vec::new()).unwrap().dag.len();
    log.powerloss().unwrap();
    let after = log.replay(3, pid(0), Vec::new()).unwrap().dag.len();
    assert!(after <= before);
    // Idempotent: a second powerloss (e.g. a second crash of the same
    // incarnation) changes nothing.
    log.powerloss().unwrap();
    assert_eq!(log.replay(3, pid(0), Vec::new()).unwrap().dag.len(), after);
}

/// A 3-process stream that decides a wave at every fourth round: its
/// confirm, its decision, and the delivery of every undelivered vertex up
/// to the leader round — the order a live process persists them in. Also
/// returns, per wave, the index of its last event.
fn deciding_workload(rounds: u64) -> (Vec<DagEvent<Vec<u8>>>, Vec<usize>) {
    let (mut events, mut wave_ends) = (Vec::new(), Vec::new());
    let mut delivered_up_to = 0;
    for r in 1..=rounds {
        for i in 0..3 {
            events.push(DagEvent::VertexInserted(Vertex::new(
                pid(i),
                r,
                vec![r as u8, i as u8],
                ProcessSet::full(3),
                vec![],
            )));
        }
        if r.is_multiple_of(4) {
            let wave = r / 4;
            let leader_round = round_of_wave(wave, 1);
            let leader = VertexId::new(leader_round, pid(wave as usize % 3));
            events.push(DagEvent::WaveConfirmed { wave });
            events.push(DagEvent::WaveDecided { wave, leader });
            for round in delivered_up_to + 1..=leader_round {
                for i in 0..3 {
                    events
                        .push(DagEvent::BlockDelivered { id: VertexId::new(round, pid(i)), wave });
                }
            }
            delivered_up_to = leader_round;
            wave_ends.push(events.len() - 1);
        }
    }
    (events, wave_ends)
}

/// Compacts `log` the way a live pruning process does: prune the delivered
/// prefix below the decided wave's leader round, seal, snapshot the window.
fn compact_live<S: Storage>(log: &mut EventLog<Vec<u8>, S>) {
    let mut state = log.replay(3, pid(0), Vec::new()).unwrap();
    if state.decided_wave >= 1 {
        state.prune_delivered(round_of_wave(state.decided_wave, 1));
    }
    let residue = state.delivered_blocks.clone();
    log.compact(&state.dag, |id| residue.get(&id).cloned()).unwrap();
}

/// `true` if `damaged` is the replay of some prefix of `events`, up to
/// pruning: the same commit log, delivered set with wave tags and
/// confirmed waves, and the same vertices, each either stored or pruned.
fn is_a_prefix_state(
    damaged: &asym_storage::RecoveredState<Vec<u8>>,
    events: &[DagEvent<Vec<u8>>],
) -> bool {
    (0..=events.len()).any(|cut| {
        let mut log: EventLog<Vec<u8>, MemStorage> =
            EventLog::new(MemStorage::new()).with_snapshot_every(0);
        for ev in &events[..cut] {
            log.append(ev).unwrap();
        }
        let prefix = log.replay(3, pid(0), Vec::new()).unwrap();
        let all_rounds = |dag: &asym_dag::DagStore<Vec<u8>>| {
            dag.vertices_in_rounds(1..).map(Vertex::id).collect::<Vec<_>>()
        };
        let pruned =
            all_rounds(&prefix.dag).iter().filter(|id| damaged.dag.is_pruned(**id)).count();
        damaged.commit_log == prefix.commit_log
            && damaged.delivered_waves == prefix.delivered_waves
            && damaged.confirmed_waves == prefix.confirmed_waves
            && all_rounds(&damaged.dag).iter().all(|id| prefix.dag.contains(*id))
            && damaged.dag.len() + pruned == prefix.dag.len()
    })
}

/// Which rename fault a powerloss applied, read off the damaged store.
#[derive(Debug, PartialEq, Eq)]
enum Rename {
    Lost,
    Reordered,
    Kept,
}

/// Seals waves 1 and 2 in two live compactions, appends a tail, powerlosses
/// under the fsync discipline, and checks the damaged replay against the
/// prefix oracle. The second compaction seals wave 2 *after* the first
/// snapshot, so reverting the second rename leaves a sealed wave newer
/// than the snapshot that comes back, and reordering it leaves the pruned
/// snapshot next to the log it should have truncated. Returns the rename
/// fault applied and whether the damaged store replayed.
fn seal_revert_and_replay<S: Storage + Clone>(
    backend: S,
    seed: u64,
    extra: usize,
) -> (Rename, bool) {
    let (events, wave_ends) = deciding_workload(11);
    let snapshots = [wave_ends[0], wave_ends[1] + extra];
    let plan = PowerlossPlan::fsync_barriers(seed, pid(0));
    let mut log: EventLog<Vec<u8>, FaultyStorage<S>> =
        EventLog::new(FaultyStorage::new(backend, plan)).with_snapshot_every(0);
    let mut snapshot_bytes = Vec::new();
    let mut log_at_second = Vec::new();
    for (k, ev) in events.iter().enumerate() {
        log.append(ev).unwrap();
        if snapshots.contains(&k) {
            if k == snapshots[1] {
                log_at_second = log.backend().inner().read_log().unwrap();
            }
            compact_live(&mut log);
            snapshot_bytes.push(log.backend().read_snapshot().unwrap());
        }
    }
    assert_eq!(log.replay(3, pid(0), Vec::new()).unwrap().sealed_wave, 2);
    log.powerloss().unwrap();
    let after = (log.backend().read_snapshot().unwrap(), log.backend().read_log().unwrap());
    let rename = if after.0 == snapshot_bytes[0] {
        Rename::Lost
    } else if after.1.starts_with(&log_at_second) && !log_at_second.is_empty() {
        Rename::Reordered
    } else {
        Rename::Kept
    };
    let Ok(damaged) = log.replay(3, pid(0), Vec::new()) else { return (rename, false) };
    assert_eq!(damaged.sealed_wave, 2, "seed {seed}: the sealed area is a barrier");
    assert!(
        is_a_prefix_state(&damaged, &events),
        "seed {seed} ({rename:?}, extra {extra}): damaged replay is no prefix state"
    );
    (rename, true)
}

/// Both rename faults must have fired, and every damaged store must have
/// replayed to a prefix — a reordered rename too, although its log
/// re-inserts vertices the pruned snapshot next to it garbage-collected.
fn assert_both_rename_faults(seen: &[(Rename, bool)]) {
    assert!(seen.iter().all(|(_, replayed)| *replayed), "a damaged store failed: {seen:?}");
    assert!(seen.contains(&(Rename::Lost, true)), "no seed lost the second rename: {seen:?}");
    assert!(
        seen.contains(&(Rename::Reordered, true)),
        "no seed reordered the second rename: {seen:?}"
    );
}

#[test]
fn mem_reverted_rename_next_to_newer_sealed_waves_replays_a_prefix() {
    let mut seen = Vec::new();
    for seed in 0..48u64 {
        seen.push(seal_revert_and_replay(MemStorage::new(), seed, (seed % 3) as usize));
    }
    assert_both_rename_faults(&seen);
}

#[test]
fn file_reverted_rename_next_to_newer_sealed_waves_replays_a_prefix() {
    let mut seen = Vec::new();
    for seed in 0..16u64 {
        let dir = std::env::temp_dir()
            .join(format!("asym-powerloss-sealed-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        seen.push(seal_revert_and_replay(FileStorage::open(&dir).unwrap(), seed, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_both_rename_faults(&seen);
}
