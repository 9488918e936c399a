//! The typed event log and the recovery protocol's first half: replaying a
//! WAL back into DAG-consensus state.
//!
//! [`EventLog`] is the handle a running process holds: it appends
//! [`DagEvent`]s, suggests when to compact, and compacts (snapshots are
//! themselves just compacted event sequences — one codec, one replay path).
//! A compaction first seals every decided wave appended since the last one
//! into the append-only sealed area, one [`DagEvent::WaveSealed`] each, and
//! then installs a snapshot of the window only: the pruning marker, the
//! stored vertices and whatever is not sealed yet. So one compaction costs
//! O(window), not O(history). [`RecoveredState::replay`] is what a
//! restarted process calls: it reads the sealed area, the snapshot and the
//! log, drops a torn tail, rejects corruption, and folds the surviving
//! events into the DAG, the delivered set, the commit log and the
//! confirmed-wave set. Replay is idempotent (duplicate events are skipped),
//! so a crash between "seal", "write snapshot" and "truncate log" still
//! recovers.

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use asym_dag::{DagError, DagStore, Round, Vertex, VertexId, VertexSet, WaveId};
use asym_quorum::ProcessId;

use crate::backend::{Storage, StorageError};
use crate::event::{BlockCodec, DagEvent};
use crate::wal::{Wal, WalStats};

/// A write-ahead log of [`DagEvent`]s over any [`Storage`] backend.
///
/// # Examples
///
/// ```
/// use asym_quorum::ProcessId;
/// use asym_storage::{DagEvent, EventLog, MemStorage};
///
/// let mut log: EventLog<Vec<u8>, MemStorage> = EventLog::new(MemStorage::new());
/// log.append(&DagEvent::WaveConfirmed { wave: 1 })?;
/// let state = log.replay(4, ProcessId::new(0), Vec::new())?;
/// assert!(state.confirmed_waves.contains(&1));
/// # Ok::<(), asym_storage::StorageError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EventLog<B, S> {
    wal: Wal<S>,
    /// The decided history this log holds outside its sealed area — what
    /// the next compaction seals.
    unsealed: Unsealed,
    _block: PhantomData<fn() -> B>,
}

impl<B: BlockCodec + Clone, S: Storage> EventLog<B, S> {
    /// Wraps a backend (default snapshot cadence).
    pub fn new(backend: S) -> Self {
        EventLog { wal: Wal::new(backend), unsealed: Unsealed::default(), _block: PhantomData }
    }

    /// Overrides the snapshot cadence (`0` disables suggestions).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.wal = self.wal.with_snapshot_every(every);
        self
    }

    /// Appends one event, encoded and framed in place.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the write.
    pub fn append(&mut self, event: &DagEvent<B>) -> Result<(), StorageError> {
        self.wal.append_with(|out| event.encode_into(out))?;
        self.unsealed.note(event);
        Ok(())
    }

    /// `true` once enough events accumulated that the owner should
    /// [compact](EventLog::compact).
    pub fn should_snapshot(&self) -> bool {
        self.wal.should_snapshot()
    }

    /// Compacts the log. Every decided wave appended since the last
    /// compaction is sealed first — one [`DagEvent::WaveSealed`] each in
    /// the sealed area, durable before anything else is written — and
    /// confirmed waves at or below the sealed watermark follow it there.
    /// Then the snapshot of the window replaces the snapshot area and the
    /// log is truncated: the [`DagEvent::Pruned`] marker, every vertex
    /// stored in `dag`, and whatever is not sealed. `residue` returns the
    /// block of a delivered vertex `dag` no longer holds. The cost is
    /// O(window): nothing below the sealed watermark is read.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects a write.
    pub fn compact(
        &mut self,
        dag: &DagStore<B>,
        residue: impl Fn(VertexId) -> Option<B>,
    ) -> Result<(), StorageError> {
        let compaction = self.unsealed.compact(dag, residue);
        self.wal.append_sealed(&compaction.sealed, DagEvent::encode_into)?;
        self.wal.install_snapshot_with(&compaction.snapshot, DagEvent::encode_into)
    }

    /// Compacts `state` as a whole into this log: its entire commit log is
    /// sealed (again, if this log sealed part of it before — replay skips
    /// the duplicates) and its window becomes the snapshot, exactly as
    /// [`EventLog::compact`] writes them.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects a write.
    pub fn compact_from(&mut self, state: &RecoveredState<B>) -> Result<(), StorageError> {
        self.unsealed = Unsealed::everything(state);
        self.compact(&state.dag, |id| state.delivered_blocks.get(&id).cloned())
    }

    /// Decodes every persisted event — sealed area, snapshot, log tail.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] on checksum mismatch, torn snapshot, or a
    /// checksummed-valid record that does not decode as an event.
    pub fn events(&self) -> Result<ReadEvents<B>, StorageError> {
        let contents = self.wal.read()?;
        let mut events = Vec::with_capacity(contents.len());
        for (i, record) in contents.all_records().enumerate() {
            events.push(DagEvent::decode(record).ok_or_else(|| StorageError::Corrupt {
                offset: i,
                detail: "checksummed record is not a valid DagEvent".into(),
            })?);
        }
        Ok(ReadEvents {
            from_sealed: contents.sealed.len(),
            from_snapshot: contents.snapshot.len(),
            torn_tail_bytes: contents.torn_tail_bytes,
            events,
        })
    }

    /// Replays the log into recovered state (see [`RecoveredState::replay`]).
    ///
    /// # Errors
    ///
    /// Propagates corruption and I/O errors from [`EventLog::events`].
    pub fn replay(
        &self,
        n: usize,
        me: ProcessId,
        genesis: B,
    ) -> Result<RecoveredState<B>, StorageError> {
        let read = self.events()?;
        RecoveredState::replay(&read, n, me, genesis)
    }

    /// Replays the log for an owner that resumes appending to it: like
    /// [`EventLog::replay`], and this handle adopts what the replayed
    /// state has not sealed, so its next compaction seals exactly that.
    ///
    /// # Errors
    ///
    /// Propagates corruption and I/O errors from [`EventLog::events`].
    pub fn recover(
        &mut self,
        n: usize,
        me: ProcessId,
        genesis: B,
    ) -> Result<RecoveredState<B>, StorageError> {
        let state = self.replay(n, me, genesis)?;
        self.unsealed = state.unsealed.clone();
        Ok(state)
    }

    /// WAL activity counters.
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Size of every snapshot installed through this handle, in order.
    pub fn snapshot_sizes(&self) -> &[u64] {
        self.wal.snapshot_sizes()
    }

    /// Applies the backend's modelled powerloss damage — a no-op for the
    /// durable backends, the injection point for
    /// [`FaultyStorage`](crate::FaultyStorage). A recovering owner calls
    /// this once before replaying.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if applying the modelled damage itself fails.
    pub fn powerloss(&mut self) -> Result<(), StorageError> {
        self.wal.backend_mut().powerloss()
    }

    /// Truncates a torn final record off the log and the sealed area (see
    /// [`Wal::repair_torn_tail`]) — mandatory before a recovered owner
    /// appends again.
    ///
    /// # Errors
    ///
    /// Propagates corruption and I/O errors from the repair.
    pub fn repair_torn_tail(&mut self) -> Result<usize, StorageError> {
        self.wal.repair_torn_tail()
    }

    /// The backend (test hooks: truncation, corruption).
    pub fn backend_mut(&mut self) -> &mut S {
        self.wal.backend_mut()
    }

    /// The backend, read-only.
    pub fn backend(&self) -> &S {
        self.wal.backend()
    }
}

/// Every decoded event plus provenance counters.
#[derive(Clone, Debug)]
pub struct ReadEvents<B> {
    /// The events: sealed records first, then snapshot records, then the
    /// log tail.
    pub events: Vec<DagEvent<B>>,
    /// How many of them came from the sealed area.
    pub from_sealed: usize,
    /// How many of them came from the snapshot area.
    pub from_snapshot: usize,
    /// Torn bytes dropped from the ends of the log and the sealed area.
    pub torn_tail_bytes: usize,
}

/// Decided history outside the sealed area — what the next compaction
/// seals. A live [`EventLog`] notes it from the events it appends; replay
/// rebuilds it from the events it reads outside the sealed area.
#[derive(Clone, Debug, Default)]
struct Unsealed {
    /// The last sealed wave (`0` = nothing sealed).
    sealed_wave: WaveId,
    /// Commit-log entries above `sealed_wave`, in commit order.
    log: Vec<(WaveId, VertexId)>,
    /// Deliveries not yet sealed, with the wave whose commit ordered each.
    deliveries: Vec<(VertexId, WaveId)>,
    /// Confirmed waves not yet sealed.
    confirmed: BTreeSet<WaveId>,
}

/// One compaction: records for the sealed area, written first, and the
/// snapshot that omits them.
struct Compaction<B> {
    sealed: Vec<DagEvent<B>>,
    snapshot: Vec<DagEvent<B>>,
}

impl Unsealed {
    /// The whole of `state`'s decided history, none of it sealed.
    fn everything<B>(state: &RecoveredState<B>) -> Self {
        let tag = |id: &VertexId| state.delivered_waves.get(id).copied().unwrap_or(0);
        Unsealed {
            sealed_wave: 0,
            log: state.commit_log.clone(),
            deliveries: state.delivered.iter().map(|id| (*id, tag(id))).collect(),
            confirmed: state.confirmed_waves.clone(),
        }
    }

    /// Records the decided history `event` adds.
    fn note<B>(&mut self, event: &DagEvent<B>) {
        match event {
            DagEvent::WaveDecided { wave, leader } => self.log.push((*wave, *leader)),
            DagEvent::BlockDelivered { id, wave } => self.deliveries.push((*id, *wave)),
            DagEvent::WaveConfirmed { wave } => {
                self.confirmed.insert(*wave);
            }
            DagEvent::WaveSealed { wave, leader, deliveries, .. } => {
                self.log.push((*wave, *leader));
                self.deliveries.extend(deliveries.iter().map(|(id, _)| (*id, *wave)));
            }
            DagEvent::VertexInserted(_)
            | DagEvent::Pruned { .. }
            | DagEvent::DeliveredBlock { .. } => {}
        }
    }

    /// The single definition of compaction, shared by live processes
    /// ([`EventLog::compact`]) and recovered state
    /// ([`EventLog::compact_from`]). Seals every unsealed commit-log entry
    /// as one [`DagEvent::WaveSealed`], chained on the previous one, with
    /// the deliveries tagged with its wave in `(round, source)` order —
    /// the delivery order — each carrying its block from `residue` when
    /// `dag` no longer holds the vertex. Confirmed waves at or below the
    /// new watermark are sealed after them. The snapshot is then the
    /// window: the [`DagEvent::Pruned`] marker of a pruned DAG, the stored
    /// vertices in `(round, source)` order (parents before children), the
    /// confirmed waves above the watermark, and any delivery whose wave has
    /// no unsealed commit-log entry (sorted, with its residue block) —
    /// which a process that records every delivery with its decision
    /// never has.
    fn compact<B: Clone>(
        &mut self,
        dag: &DagStore<B>,
        residue: impl Fn(VertexId) -> Option<B>,
    ) -> Compaction<B> {
        let block = |id: VertexId| if dag.contains(id) { None } else { residue(id) };
        self.deliveries.sort_unstable_by_key(|(id, wave)| (*wave, *id));
        let mut deliveries = std::mem::take(&mut self.deliveries).into_iter().peekable();
        let mut sealed = Vec::with_capacity(self.log.len());
        for (wave, leader) in std::mem::take(&mut self.log) {
            while let Some(d) = deliveries.next_if(|(_, w)| *w < wave) {
                self.deliveries.push(d);
            }
            let mut ids = Vec::new();
            while let Some((id, _)) = deliveries.next_if(|(_, w)| *w == wave) {
                ids.push((id, block(id)));
            }
            let prev_wave = std::mem::replace(&mut self.sealed_wave, wave);
            sealed.push(DagEvent::WaveSealed { wave, prev_wave, leader, deliveries: ids });
        }
        self.deliveries.extend(deliveries);
        let above = self.confirmed.split_off(&(self.sealed_wave + 1));
        let below = std::mem::replace(&mut self.confirmed, above);
        sealed.extend(below.into_iter().map(|wave| DagEvent::WaveConfirmed { wave }));

        let mut snapshot = Vec::new();
        if dag.pruned_floor() > 0 {
            snapshot.push(DagEvent::Pruned { up_to_round: dag.pruned_floor() });
        }
        snapshot.extend(dag.vertices_in_rounds(1..).map(|v| DagEvent::VertexInserted(v.clone())));
        snapshot.extend(self.confirmed.iter().map(|&wave| DagEvent::WaveConfirmed { wave }));
        self.deliveries.sort_unstable();
        for &(id, wave) in &self.deliveries {
            snapshot.push(DagEvent::BlockDelivered { id, wave });
        }
        for &(id, _) in &self.deliveries {
            if let Some(block) = block(id) {
                snapshot.push(DagEvent::DeliveredBlock { id, block });
            }
        }
        Compaction { sealed, snapshot }
    }
}

/// Consensus state rebuilt from a WAL — the data a restarted process needs
/// to rejoin without violating safety.
#[derive(Clone, Debug)]
pub struct RecoveredState<B> {
    /// The local DAG, rebuilt vertex by vertex.
    pub dag: DagStore<B>,
    /// The highest round in which `me` created a vertex (the round counter
    /// to resume from).
    pub own_round: Round,
    /// Every vertex already atomically delivered — the set that prevents
    /// double delivery across the restart.
    pub delivered: BTreeSet<VertexId>,
    /// For each delivered vertex, the wave whose commit ordered it — the
    /// per-wave grouping delivered-state transfer segments ship. `0` only
    /// for deliveries recorded before wave tags were persisted (none in a
    /// log written by this version).
    pub delivered_waves: BTreeMap<VertexId, WaveId>,
    /// Block payloads of delivered vertices *absent from the DAG* (pruned
    /// after delivery, or installed via delivered-state transfer without
    /// ever receiving the vertex) — the transferable residue this process
    /// can still serve to deep laggards.
    pub delivered_blocks: BTreeMap<VertexId, B>,
    /// The commit log of `(wave, leader)` pairs, in commit order.
    pub commit_log: Vec<(WaveId, VertexId)>,
    /// The last decided wave.
    pub decided_wave: WaveId,
    /// The last wave read from the sealed area (`0` = nothing sealed).
    pub sealed_wave: WaveId,
    /// Waves whose CONFIRM quorum (`tReady`) had been observed.
    pub confirmed_waves: BTreeSet<WaveId>,
    /// The pruning floor inherited from the snapshot: delivered vertices in
    /// rounds `<= pruned_round` may be absent from `dag` (they were
    /// garbage-collected after delivery). `0` = nothing pruned.
    pub pruned_round: Round,
    /// Total events folded in.
    pub events_total: usize,
    /// Events that came from the snapshot area.
    pub events_from_snapshot: usize,
    /// Torn bytes dropped from the ends of the log and the sealed area.
    pub torn_tail_bytes: usize,
    /// The decided history read from outside the sealed area.
    unsealed: Unsealed,
}

impl<B: BlockCodec + Clone> RecoveredState<B> {
    /// Folds decoded events into recovered state.
    ///
    /// Idempotent per event: duplicate vertex inserts, deliveries, confirms
    /// and already-decided waves are skipped, so the overlaps a crash
    /// mid-compaction leaves — sealed waves newer than a reverted snapshot,
    /// or a snapshot next to the log it should have truncated — are
    /// harmless.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] if a vertex event references a parent that
    /// no prior event inserted, or a sealed wave does not chain onto the
    /// commit log — an append-order violation that a correct process can
    /// never have written.
    pub fn replay(
        read: &ReadEvents<B>,
        n: usize,
        me: ProcessId,
        genesis: B,
    ) -> Result<Self, StorageError> {
        let mut state = RecoveredState {
            dag: DagStore::with_genesis(n, genesis),
            own_round: 0,
            delivered: BTreeSet::new(),
            delivered_waves: BTreeMap::new(),
            delivered_blocks: BTreeMap::new(),
            commit_log: Vec::new(),
            decided_wave: 0,
            sealed_wave: 0,
            confirmed_waves: BTreeSet::new(),
            pruned_round: 0,
            events_total: read.events.len(),
            events_from_snapshot: read.from_snapshot,
            torn_tail_bytes: read.torn_tail_bytes,
            unsealed: Unsealed::default(),
        };
        // Pre-pass: reconstruct the pruned set. A vertex that is delivered
        // but not stored was garbage-collected after delivery — its
        // children must still insert, and only those exact ids may be
        // excused (a round-based floor would also excuse vertices this
        // process simply never received). That holds at two points: after
        // the sealed area and the snapshot (what the snapshot pruned), and
        // after the whole log (what an install delivered without the
        // vertex). The first point matters when the snapshot's log was not
        // truncated: the log re-inserts what the snapshot pruned, and that
        // id is still pruned.
        {
            let before_log = read.from_sealed + read.from_snapshot;
            let mut inserted = VertexSet::new();
            let mut delivered = VertexSet::new();
            for (i, event) in read.events.iter().enumerate() {
                if i == before_log {
                    note_unstored_as_pruned(&mut state.dag, &delivered, &inserted);
                }
                match event {
                    DagEvent::VertexInserted(v) => {
                        inserted.insert(v.id());
                    }
                    DagEvent::BlockDelivered { id, .. } => {
                        delivered.insert(*id);
                    }
                    DagEvent::WaveSealed { deliveries, .. } => {
                        delivered.extend(deliveries.iter().map(|(id, _)| *id));
                    }
                    _ => {}
                }
            }
            note_unstored_as_pruned(&mut state.dag, &delivered, &inserted);
        }
        for (i, event) in read.events.iter().enumerate() {
            let fresh = match event {
                DagEvent::VertexInserted(v) => {
                    // Genesis is hard-coded, never logged; a pruned vertex
                    // stays pruned.
                    if v.round() == 0 || state.dag.is_pruned(v.id()) {
                        continue;
                    }
                    match state.dag.insert(v.clone()) {
                        Ok(()) => {
                            if v.source() == me {
                                state.own_round = state.own_round.max(v.round());
                            }
                        }
                        Err(DagError::Duplicate(_)) => {}
                        Err(e) => {
                            return Err(StorageError::Corrupt {
                                offset: i,
                                detail: format!("log not replayable in order: {e}"),
                            })
                        }
                    }
                    false
                }
                DagEvent::WaveConfirmed { wave } => state.confirmed_waves.insert(*wave),
                DagEvent::WaveDecided { wave, leader } => state.decide(*wave, *leader),
                DagEvent::BlockDelivered { id, wave } => state.deliver(*id, *wave),
                DagEvent::Pruned { up_to_round } => {
                    // Floor metadata (the pruned *ids* were reconstructed
                    // in the pre-pass above).
                    state.dag.set_pruned_floor(*up_to_round);
                    false
                }
                DagEvent::DeliveredBlock { id, block } => {
                    state.delivered_blocks.insert(*id, block.clone());
                    false
                }
                DagEvent::WaveSealed { wave, prev_wave, leader, deliveries } => {
                    let last = state.commit_log.last().map_or(0, |(w, _)| *w);
                    if *wave > state.decided_wave && *prev_wave != last {
                        return Err(StorageError::Corrupt {
                            offset: i,
                            detail: format!(
                                "sealed wave {wave} chains onto wave {prev_wave}, but the commit \
                                 log ends at wave {last}"
                            ),
                        });
                    }
                    let fresh = state.decide(*wave, *leader);
                    for (id, block) in deliveries {
                        state.deliver(*id, *wave);
                        if let Some(block) = block {
                            state.delivered_blocks.insert(*id, block.clone());
                        }
                    }
                    if i < read.from_sealed {
                        state.sealed_wave = state.sealed_wave.max(*wave);
                    }
                    fresh
                }
            };
            // What the sealed area holds is sealed; anything new read
            // after it is what the next compaction must seal.
            if fresh && i >= read.from_sealed {
                state.unsealed.note(event);
            }
        }
        state.unsealed.sealed_wave = state.sealed_wave;
        state.pruned_round = state.dag.pruned_floor();
        // A pruned own prefix must never shrink the round counter: reusing
        // a round number after recovery would be honest equivocation. The
        // pruning policy only drops rounds strictly below the decided
        // wave's span, so retained own vertices normally dominate; the max
        // is the defensive backstop.
        state.own_round = state.own_round.max(state.pruned_round);
        Ok(state)
    }

    /// Appends `(wave, leader)` to the commit log unless the wave is
    /// already decided; `true` if it was new.
    fn decide(&mut self, wave: WaveId, leader: VertexId) -> bool {
        // The commit log never holds a wave above `decided_wave`, so this
        // one check also skips duplicates.
        let fresh = wave > self.decided_wave;
        if fresh {
            self.commit_log.push((wave, leader));
            self.decided_wave = wave;
        }
        fresh
    }

    /// Records `id` as delivered by `wave`'s commit; `true` if it was new.
    fn deliver(&mut self, id: VertexId, wave: WaveId) -> bool {
        let fresh = self.delivered.insert(id);
        // Keep the strongest wave tag seen (snapshot/log overlap after a
        // mid-compaction crash may record both).
        let tag = self.delivered_waves.entry(id).or_insert(wave);
        if *tag == 0 {
            *tag = wave;
        }
        fresh
    }

    /// Garbage-collects the delivered prefix: drops every *delivered*
    /// vertex in rounds `<= up_to_round` from the DAG (retaining each
    /// pruned vertex's block in [`RecoveredState::delivered_blocks`], so
    /// the delivered prefix stays transferable as certified outputs) and
    /// ratchets the pruning floor. The delivered set, commit log and
    /// confirmed waves are untouched — they are what keeps re-delivery
    /// impossible — so replay of a subsequently compacted log reproduces
    /// exactly this state.
    /// Undelivered old vertices are retained: they may still enter a later
    /// leader's causal history via weak edges (and every path to an
    /// undelivered vertex runs through undelivered vertices only — a
    /// delivered intermediate would have delivered its whole ancestry —
    /// so pruning the delivered set can never hide one).
    pub fn prune_delivered(&mut self, up_to_round: Round) {
        let delivered = &self.delivered;
        for v in prune_dag(&mut self.dag, |id| delivered.contains(&id), up_to_round) {
            self.delivered_blocks.insert(v.id(), v.into_block());
        }
        self.pruned_round = self.dag.pruned_floor();
    }
}

/// Records as pruned in `dag` every non-genesis id of `delivered` that is
/// not in `inserted`.
fn note_unstored_as_pruned<B>(dag: &mut DagStore<B>, delivered: &VertexSet, inserted: &VertexSet) {
    for id in delivered.range(1..).filter(|id| !inserted.contains(*id)) {
        dag.note_pruned(id);
    }
}

/// Drops every *delivered* vertex in rounds `<= up_to_round` from `dag`,
/// recording each pruned identity — the in-place half of WAL pruning,
/// shared by [`RecoveredState::prune_delivered`] and live snapshot
/// compaction. `is_delivered` answers for the owner's delivered set in
/// place; only stored vertices are visited, so the cost follows the DAG,
/// not the history. Undelivered old vertices are untouched. Returns the
/// pruned vertices so the caller can harvest their blocks into a
/// transferable delivered-state store (dropping them entirely would make
/// the delivered prefix unservable to deep laggards).
pub fn prune_dag<B>(
    dag: &mut DagStore<B>,
    is_delivered: impl Fn(VertexId) -> bool,
    up_to_round: Round,
) -> Vec<Vertex<B>> {
    if up_to_round == 0 {
        return Vec::new();
    }
    let prunable: Vec<VertexId> = dag
        .vertices_in_rounds(1..=up_to_round)
        .map(Vertex::id)
        .filter(|id| is_delivered(*id))
        .collect();
    let mut pruned = Vec::with_capacity(prunable.len());
    for id in prunable {
        pruned.extend(dag.prune(id));
    }
    dag.set_pruned_floor(up_to_round);
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStorage;
    use asym_dag::Vertex;
    use asym_quorum::ProcessSet;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    type Log = EventLog<Vec<u8>, MemStorage>;

    /// Logs a full 4-process DAG of `rounds` rounds plus wave bookkeeping.
    fn populated_log(rounds: u64) -> Log {
        let mut log = Log::new(MemStorage::new()).with_snapshot_every(0);
        for r in 1..=rounds {
            for i in 0..4 {
                log.append(&DagEvent::VertexInserted(Vertex::new(
                    pid(i),
                    r,
                    vec![r as u8, i as u8],
                    ProcessSet::full(4),
                    vec![],
                )))
                .unwrap();
            }
        }
        log.append(&DagEvent::WaveConfirmed { wave: 1 }).unwrap();
        log.append(&DagEvent::WaveDecided { wave: 1, leader: VertexId::new(1, pid(2)) }).unwrap();
        log.append(&DagEvent::BlockDelivered { id: VertexId::new(1, pid(2)), wave: 1 }).unwrap();
        log
    }

    #[test]
    fn replay_rebuilds_dag_and_bookkeeping() {
        let log = populated_log(4);
        let state = log.replay(4, pid(1), Vec::new()).unwrap();
        assert_eq!(state.dag.len(), 4 + 16, "genesis + 4 rounds");
        assert_eq!(state.own_round, 4);
        assert_eq!(state.decided_wave, 1);
        assert_eq!(state.commit_log, vec![(1, VertexId::new(1, pid(2)))]);
        assert!(state.delivered.contains(&VertexId::new(1, pid(2))));
        assert_eq!(state.confirmed_waves, BTreeSet::from([1]));
        assert_eq!(state.events_from_snapshot, 0);
        assert_eq!(state.torn_tail_bytes, 0);
    }

    #[test]
    fn snapshot_compaction_replays_to_the_same_state() {
        let log = populated_log(8);
        let state = log.replay(4, pid(0), Vec::new()).unwrap();

        let mut compacted = Log::new(MemStorage::new());
        compacted.compact_from(&state).unwrap();
        // New activity lands in the log tail after the snapshot.
        compacted
            .append(&DagEvent::VertexInserted(Vertex::new(
                pid(0),
                9,
                vec![9],
                ProcessSet::full(4),
                vec![],
            )))
            .unwrap();
        let re = compacted.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.dag.len(), state.dag.len() + 1);
        assert_eq!(re.own_round, 9);
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.delivered, state.delivered);
        assert_eq!(re.confirmed_waves, state.confirmed_waves);
        assert!(re.events_from_snapshot > 0);
    }

    #[test]
    fn replay_is_idempotent_over_snapshot_log_overlap() {
        // Crash between snapshot write and log truncation: the log still
        // holds events the snapshot already covers.
        let log = populated_log(4);
        let state = log.replay(4, pid(0), Vec::new()).unwrap();
        let mut overlapped = log.clone();
        // Install the snapshot but resurrect the old log bytes afterwards.
        let old_log = log.backend().log_bytes().to_vec();
        overlapped.compact_from(&state).unwrap();
        overlapped.backend_mut().append_log_raw(&old_log);
        let re = overlapped.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.dag.len(), state.dag.len());
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.delivered, state.delivered);
    }

    #[test]
    fn pruned_snapshot_replays_to_post_prefix_state() {
        // Build 8 rounds, deliver everything in rounds <= 4, prune, compact
        // and replay: the pruned snapshot must reproduce the post-prefix
        // state exactly and be strictly smaller than the unpruned one.
        let log = populated_log(8);
        let mut state = log.replay(4, pid(1), Vec::new()).unwrap();
        for r in 1..=4u64 {
            for i in 0..4 {
                state.delivered.insert(VertexId::new(r, pid(i)));
            }
        }
        let snapshot_bytes = |state: &RecoveredState<Vec<u8>>| {
            let mut log = Log::new(MemStorage::new());
            log.compact_from(state).unwrap();
            log.stats().last_snapshot_bytes
        };
        let unpruned_len = snapshot_bytes(&state);
        state.prune_delivered(4);
        assert_eq!(state.pruned_round, 4);
        assert_eq!(state.dag.pruned_floor(), 4);
        assert_eq!(state.dag.len(), 4 + 16, "genesis + rounds 5..=8 retained");
        let pruned_len = snapshot_bytes(&state);
        assert!(pruned_len < unpruned_len, "{pruned_len} !< {unpruned_len}");

        let mut compacted = Log::new(MemStorage::new());
        compacted.compact_from(&state).unwrap();
        // New activity above the prune horizon still lands in the log tail.
        compacted
            .append(&DagEvent::VertexInserted(Vertex::new(
                pid(1),
                9,
                vec![9],
                ProcessSet::full(4),
                vec![],
            )))
            .unwrap();
        let re = compacted.replay(4, pid(1), Vec::new()).unwrap();
        assert_eq!(re.pruned_round, 4);
        assert_eq!(re.dag.pruned_floor(), 4);
        assert_eq!(re.dag.len(), state.dag.len() + 1);
        assert_eq!(re.own_round, 9, "own rounds above the floor survive");
        assert_eq!(re.delivered, state.delivered, "delivered set is never pruned");
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.confirmed_waves, state.confirmed_waves);
        // The round-9 vertex inserted although its round-8 parents are in
        // the snapshot and its pruned ancestry is gone — floor semantics.
        assert!(re.dag.get(VertexId::new(9, pid(1))).is_some());
    }

    #[test]
    fn pruned_snapshot_next_to_its_untruncated_log_replays() {
        // A reordered snapshot rename: the pruned snapshot persisted but
        // the truncation of the log it compacted did not, so the log
        // re-inserts rounds 1-4 after the snapshot's round-5 children of
        // them. They stay pruned, and the state is the compacted one.
        let mut log = populated_log(8);
        for r in 1..=4u64 {
            for i in (0..4).filter(|&i| (r, i) != (1, 2)) {
                log.append(&DagEvent::BlockDelivered { id: VertexId::new(r, pid(i)), wave: 1 })
                    .unwrap();
            }
        }
        let old_log = log.backend().log_bytes().to_vec();
        let mut state = log.replay(4, pid(1), Vec::new()).unwrap();
        state.prune_delivered(4);
        let residue = state.delivered_blocks.clone();
        log.compact(&state.dag, |id| residue.get(&id).cloned()).unwrap();
        log.backend_mut().append_log_raw(&old_log);
        let re = log.replay(4, pid(1), Vec::new()).unwrap();
        assert_eq!(re.dag.len(), 4 + 16, "genesis + rounds 5..=8");
        assert_eq!(re.dag.pruned_len(), 16);
        assert!(re.dag.is_pruned(VertexId::new(4, pid(0))));
        assert!(!re.dag.contains(VertexId::new(4, pid(0))), "the log's copy is not re-inserted");
        assert_eq!(re.delivered, state.delivered);
        assert_eq!(re.delivered_blocks, state.delivered_blocks);
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.own_round, 8);
    }

    #[test]
    fn pruning_retains_undelivered_old_vertices() {
        let log = populated_log(4);
        let mut state = log.replay(4, pid(0), Vec::new()).unwrap();
        // Only p2's vertices were delivered; the rest must survive a prune.
        for r in 1..=4u64 {
            state.delivered.insert(VertexId::new(r, pid(2)));
        }
        state.prune_delivered(4);
        assert_eq!(state.dag.len(), 4 + 12, "genesis + 3 undelivered per round");
        for r in 1..=4u64 {
            assert!(!state.dag.contains(VertexId::new(r, pid(2))), "delivered r{r} pruned");
            assert!(state.dag.contains(VertexId::new(r, pid(0))), "undelivered r{r} kept");
        }
        // Re-compaction round-trips the partial prune.
        let mut compacted = Log::new(MemStorage::new());
        compacted.compact_from(&state).unwrap();
        let re = compacted.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.dag.len(), state.dag.len());
        assert_eq!(re.pruned_round, 4);
    }

    #[test]
    fn compaction_seals_decided_waves_once_and_snapshots_only_the_window() {
        let mut log = populated_log(8);
        let mut state = log.replay(4, pid(1), Vec::new()).unwrap();
        state.prune_delivered(4);
        let residue = state.delivered_blocks.clone();
        log.compact(&state.dag, |id| residue.get(&id).cloned()).unwrap();
        let sealed: Vec<DagEvent<Vec<u8>>> = log
            .events()
            .unwrap()
            .events
            .into_iter()
            .take(log.stats().sealed_records as usize)
            .collect();
        let leader = VertexId::new(1, pid(2));
        assert_eq!(
            sealed,
            vec![
                DagEvent::WaveSealed {
                    wave: 1,
                    prev_wave: 0,
                    leader,
                    deliveries: vec![(leader, Some(vec![1, 2]))],
                },
                DagEvent::WaveConfirmed { wave: 1 },
            ],
            "the pruned delivery carries its block"
        );
        let read = log.events().unwrap();
        let window = &read.events[read.from_sealed..];
        assert!(window
            .iter()
            .all(|e| matches!(e, DagEvent::Pruned { .. } | DagEvent::VertexInserted(_))));
        let re = log.replay(4, pid(1), Vec::new()).unwrap();
        assert_eq!(re.sealed_wave, 1);
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.delivered_waves, state.delivered_waves);
        assert_eq!(re.delivered_blocks, state.delivered_blocks);
        assert_eq!(re.confirmed_waves, state.confirmed_waves);
        assert_eq!(re.dag.len(), state.dag.len());

        // Nothing new was decided: the next compaction seals nothing and
        // rewrites the same window.
        let (records, bytes) = (log.stats().sealed_records, log.stats().last_snapshot_bytes);
        log.compact(&state.dag, |id| residue.get(&id).cloned()).unwrap();
        assert_eq!(log.stats().sealed_records, records);
        assert_eq!(log.stats().last_snapshot_bytes, bytes);

        // A second wave chains onto the first.
        let second = VertexId::new(5, pid(0));
        log.append(&DagEvent::WaveDecided { wave: 2, leader: second }).unwrap();
        log.append(&DagEvent::BlockDelivered { id: second, wave: 2 }).unwrap();
        log.compact(&state.dag, |id| residue.get(&id).cloned()).unwrap();
        let re = log.replay(4, pid(1), Vec::new()).unwrap();
        assert_eq!(re.commit_log, vec![(1, leader), (2, second)]);
        assert_eq!(re.sealed_wave, 2);
        assert!(re.dag.contains(second), "a stored delivery is sealed without its block");
        assert!(!re.delivered_blocks.contains_key(&second));
    }

    #[test]
    fn a_recovered_log_resumes_sealing_where_it_stopped() {
        let mut log = populated_log(4);
        let state = log.replay(4, pid(0), Vec::new()).unwrap();
        log.compact(&state.dag, |_| None).unwrap();
        log.append(&DagEvent::WaveConfirmed { wave: 1 }).unwrap(); // a duplicate
        log.append(&DagEvent::WaveConfirmed { wave: 2 }).unwrap();
        let leader = VertexId::new(5, pid(0));
        log.append(&DagEvent::WaveDecided { wave: 2, leader }).unwrap();
        // A restarted owner adopts the replayed bookkeeping, then compacts.
        let mut resumed = log.clone();
        resumed.unsealed = Unsealed::default();
        let recovered = resumed.recover(4, pid(0), Vec::new()).unwrap();
        assert_eq!(recovered.sealed_wave, 1);
        assert_eq!(resumed.unsealed.log, vec![(2, leader)]);
        assert_eq!(resumed.unsealed.confirmed, BTreeSet::from([2]));
        resumed.compact(&recovered.dag, |_| None).unwrap();
        let re = resumed.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.commit_log, recovered.commit_log);
        assert_eq!(re.confirmed_waves, BTreeSet::from([1, 2]));
        assert_eq!(re.sealed_wave, 2);
    }

    #[test]
    fn a_sealed_wave_off_the_commit_chain_is_corruption() {
        let mut log = Log::new(MemStorage::new());
        let sealed = DagEvent::<Vec<u8>>::WaveSealed {
            wave: 3,
            prev_wave: 2,
            leader: VertexId::new(9, pid(0)),
            deliveries: vec![],
        };
        log.wal.append_sealed(&[sealed], DagEvent::encode_into).unwrap();
        match log.replay(4, pid(0), Vec::new()) {
            Err(StorageError::Corrupt { detail, .. }) => {
                assert!(detail.contains("chains"), "{detail}")
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn missing_parent_in_log_order_is_corruption() {
        let mut log = Log::new(MemStorage::new());
        // Round-2 vertex whose round-1 parent was never logged.
        log.append(&DagEvent::VertexInserted(Vertex::new(
            pid(0),
            2,
            vec![],
            ProcessSet::from_indices([1]),
            vec![],
        )))
        .unwrap();
        assert!(matches!(log.replay(4, pid(0), Vec::new()), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn valid_frame_invalid_event_is_corruption() {
        let mut log = Log::new(MemStorage::new());
        let mut framed = Vec::new();
        crate::wal::frame_record(&[42, 0, 1], &mut framed);
        log.backend_mut().append_log_raw(&framed);
        assert!(matches!(log.events(), Err(StorageError::Corrupt { .. })));
    }

    impl MemStorage {
        /// Test-only raw append (bypasses framing).
        fn append_log_raw(&mut self, bytes: &[u8]) {
            use crate::backend::Storage as _;
            self.append_log(bytes).unwrap();
        }
    }
}
