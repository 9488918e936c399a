//! Vertex lifecycle shared by both DAG-Rider variants: reliable-broadcast
//! dissemination, buffering until the causal history is complete, insertion,
//! new-vertex creation with strong/weak edges (Algorithm 4, lines 78–98
//! and Algorithm 6, lines 137–143), the wave commit both variants run
//! (Algorithm 6, lines 146–169), and every write to the write-ahead log.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::iter;

use asym_broadcast::{BcastMsg, BroadcastHub};
use asym_crypto::CommonCoin;
use asym_dag::{DagStore, Round, Vertex, VertexId, VertexSet, WaveId};
use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};
use asym_sim::Context;
use asym_storage::{DagEvent, EventLog, RecoveredState, StorageBackend};

use crate::ordering::WaveCommitter;
use crate::types::{Block, OrderedVertex, RiderConfig, RiderMetrics};

/// The write-ahead log type the consensus processes persist to: typed DAG
/// events over either storage backend.
pub type DagLog = EventLog<Block, StorageBackend>;

/// The DAG-construction engine of one process: owns the local DAG, the
/// arb hub for vertex dissemination, the insertion buffer and the block
/// queue. It admits only [valid](DagCore::is_valid) vertices, runs the
/// [commit](DagCore::commit) both variants share, and is the only writer
/// of the attached log; the protocol variants supply the round-advance
/// rules.
#[derive(Clone, Debug)]
pub struct DagCore {
    me: ProcessId,
    hub: BroadcastHub<Vertex<Block>>,
    dag: DagStore<Block>,
    buffer: Vec<Vertex<Block>>,
    round: Round,
    blocks: VecDeque<Block>,
    config: RiderConfig,
    metrics: RiderMetrics,
    log: Option<DagLog>,
    /// Vertices inserted since this process last created a vertex — the
    /// only possible weak-edge targets of its next one (see
    /// `compute_weak_edges`).
    uncovered: VertexSet,
    /// Round of the last vertex this process created, `0` if it has not
    /// created one or the stored copy of it is another.
    covered: Round,
}

impl DagCore {
    /// Creates the engine; the DAG starts with the hard-coded genesis round
    /// (one round-0 vertex per process).
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem, config: RiderConfig) -> Self {
        let n = quorums.n();
        DagCore {
            me,
            hub: BroadcastHub::new(me, quorums),
            dag: DagStore::with_genesis(n, Block::default()),
            buffer: Vec::new(),
            round: 0,
            blocks: VecDeque::new(),
            config,
            metrics: RiderMetrics::default(),
            log: None,
            uncovered: VertexSet::new(),
            covered: 0,
        }
    }

    /// Attaches a write-ahead log: from now on every vertex that enters the
    /// DAG is durably recorded in the same step.
    pub fn set_log(&mut self, log: DagLog) {
        self.log = Some(log);
    }

    /// Rebuilds an engine from crash-recovered state: the replayed DAG and
    /// round counter, plus the (still-attached) log it was replayed from.
    /// The broadcast hub, insertion buffer and block queue restart empty —
    /// they are in-memory transients a real crash loses.
    pub fn from_recovered(
        me: ProcessId,
        quorums: AsymQuorumSystem,
        config: RiderConfig,
        recovered: &RecoveredState<Block>,
        log: DagLog,
    ) -> Self {
        let (dag, round) = (recovered.dag.clone(), recovered.own_round);
        DagCore { dag, round, log: Some(log), ..DagCore::new(me, quorums, config) }
    }

    /// The attached write-ahead log, if any.
    pub fn log(&self) -> Option<&DagLog> {
        self.log.as_ref()
    }

    /// Appends `events` to the attached log, in order, or does nothing —
    /// without pulling a single event — when there is none. Callers persist
    /// outputs *before* handing them to the environment: on replay, an
    /// output the log lacks was never observable, and one it has is never
    /// repeated. Panics if an append fails (fail-stop).
    pub fn persist(&mut self, events: impl IntoIterator<Item = DagEvent<Block>>) {
        persist_to(&mut self.log, events);
    }

    /// Compacts the attached log, if there is one (see
    /// [`EventLog::compact`]): decided waves not yet sealed are sealed, and
    /// the snapshot holds this DAG plus what is above them. `residue`
    /// returns the block of a delivered vertex the DAG no longer holds.
    /// Panics if the compaction cannot be written (fail-stop).
    pub fn compact_log(&mut self, residue: impl Fn(VertexId) -> Option<Block>) {
        if let Some(log) = &mut self.log {
            log.compact(&self.dag, residue).expect("WAL snapshot failed");
        }
    }

    /// Detaches and returns the log — the durable bytes that survive a
    /// modelled crash while the rest of this engine is dropped.
    pub fn take_log(&mut self) -> Option<DagLog> {
        self.log.take()
    }

    /// This process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The local DAG (read-only).
    pub fn dag(&self) -> &DagStore<Block> {
        &self.dag
    }

    /// Current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Execution counters.
    pub fn metrics(&self) -> RiderMetrics {
        let mut m = self.metrics;
        m.round = self.round;
        m
    }

    /// The quorum system of every process, shared with the arb hub.
    pub fn quorums(&self) -> &AsymQuorumSystem {
        self.hub.quorums()
    }

    /// Algorithm 6, line 140: a vertex is valid if its strong edges contain
    /// a quorum of *some* process. Applied to arb deliveries and to fetched
    /// vertices alike.
    pub fn is_valid(&self, v: &Vertex<Block>) -> bool {
        self.quorums().contains_quorum_for_any(v.strong_edges()).is_some()
    }

    /// The configured limits.
    pub fn config(&self) -> RiderConfig {
        self.config
    }

    /// Enqueues a client block (`aa-broadcast`).
    pub fn enqueue_block(&mut self, block: Block) {
        self.blocks.push_back(block);
    }

    /// Handles an arb-layer message carrying vertices. A [valid](Self::is_valid)
    /// delivery is buffered. Returns the arb message to broadcast, if any,
    /// and the vertex delivered in this step (already buffered), if any.
    pub fn handle_arb(
        &mut self,
        from: ProcessId,
        msg: BcastMsg<Vertex<Block>>,
    ) -> (Option<BcastMsg<Vertex<Block>>>, Option<VertexId>) {
        let (out, delivery) = self.hub.on_message(from, msg);
        let fresh = delivery.and_then(|d| {
            let v = d.value;
            // Authenticated identity: the vertex must claim exactly the arb
            // instance it travelled in. Genesis is hard-coded, never
            // broadcast.
            let admitted =
                v.source() == d.origin && v.round() == d.tag && v.round() != 0 && self.is_valid(&v);
            admitted.then(|| {
                let id = v.id();
                self.buffer.push(v);
                id
            })
        });
        (out, fresh)
    }

    /// Moves every buffered vertex whose round is `≤ current round` and whose
    /// full causal history is present into the DAG (Algorithm 4, lines
    /// 95–98). Loops to a fixpoint; returns `true` if anything was inserted.
    pub fn drain_buffer(&mut self) -> bool {
        let mut progressed = false;
        loop {
            let mut inserted_one = false;
            let mut i = 0;
            while i < self.buffer.len() {
                let v = &self.buffer[i];
                // A buffered copy of a pruned identity is stale: it was
                // delivered (possibly via a state install) and garbage-
                // collected, so re-inserting it would silently diverge the
                // DAG from its log's pruning record.
                if self.dag.is_pruned(v.id()) {
                    self.buffer.swap_remove(i);
                    continue;
                }
                if v.round() > self.round {
                    i += 1;
                    continue;
                }
                let v = self.buffer.swap_remove(i);
                let id = v.id();
                let log = &mut self.log;
                let hook = |v: &Vertex<Block>| {
                    persist_to(log, iter::once_with(|| DagEvent::VertexInserted(v.clone())));
                };
                match self.dag.insert_if_parents_present(v, hook) {
                    Ok(true) => {
                        self.uncovered.insert(id);
                        inserted_one = true;
                    }
                    Ok(false) => {} // a duplicate
                    Err(v) => {
                        // A parent is missing: put it back where it was.
                        self.buffer.push(v);
                        let last = self.buffer.len() - 1;
                        self.buffer.swap(i, last);
                        i += 1;
                    }
                }
            }
            if !inserted_one {
                break;
            }
            progressed = true;
        }
        progressed
    }

    /// Creates, stores and returns this process's vertex for `round`,
    /// together with the arb messages disseminating it (Algorithm 4,
    /// `createNewVertex` + `arb-broadcast`). Advances the local round
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if called for a round other than `self.round() + 1`, or past
    /// the configured round bound.
    pub fn advance_and_broadcast(&mut self, round: Round) -> Vec<BcastMsg<Vertex<Block>>> {
        assert_eq!(round, self.round + 1, "rounds advance one at a time");
        assert!(round <= self.config.max_round(), "past configured horizon");
        self.round = round;
        // The paper's `wait until ¬empty()` would block here; an empty
        // filler block keeps the simulation live (documented deviation).
        let block = self.blocks.pop_front().unwrap_or_default();
        // Pruned previous-round vertices are sound strong-edge targets:
        // they were delivered (hence fully disseminated), so every peer
        // holds them as present-or-pruned too. Without them a process
        // resuming just above a delivered-state install floor could not
        // assemble a quorum of strong edges out of the gc'd round.
        let strong = self.dag.sources_in_round_or_pruned(round - 1);
        let weak = self.compute_weak_edges(round, &strong);
        let v = Vertex::new(self.me, round, block, strong, weak);
        self.metrics.vertices_created += 1;
        // `v` reaches everything stored up to round − 1, so only what is
        // inserted from here on — this very drain included — is uncovered.
        self.uncovered.clear();
        // Locally store via the buffer so self-delivery is not required
        // before referencing our own vertex.
        self.buffer.push(v.clone());
        self.drain_buffer();
        // A copy of this identity stored earlier (refetched after a lossy
        // restart) wins the insert; that copy covers nothing in particular.
        self.covered = if self.dag.get(v.id()) == Some(&v) { round } else { 0 };
        self.hub.broadcast(round, v)
    }

    /// Re-initiates reliable broadcast for every own vertex in the DAG —
    /// called once after crash recovery. Instances whose dissemination
    /// completed before the crash ignore the duplicate SEND; instances that
    /// stalled because this process's ECHO/READY died with it are revived
    /// (the fresh hub echoes its own re-SEND, completing the quorum).
    pub fn rebroadcast_own(&mut self) -> Vec<BcastMsg<Vertex<Block>>> {
        let mut out = Vec::new();
        for r in 1..=self.round {
            if let Some(v) = self.dag.get(VertexId::new(r, self.me)) {
                let v = v.clone();
                out.extend(self.hub.broadcast(r, v));
            }
        }
        out
    }

    /// `true` if this identity is stored, buffered or pruned — a fetched
    /// copy of it carries nothing new. A pruned identity was delivered and
    /// garbage-collected: re-buffering it would wedge on its equally pruned
    /// parents and re-grow the log.
    pub fn knows(&self, id: VertexId) -> bool {
        self.dag.contains(id) || self.dag.is_pruned(id) || self.buffer.iter().any(|b| b.id() == id)
    }

    /// Number of vertices waiting in the insertion buffer.
    #[cfg(test)]
    pub(crate) fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Buffers a fetched vertex that a kernel vouched for and that is not
    /// [known](DagCore::knows); like an arb delivery, it is inserted once
    /// the round bound and its causal history allow.
    pub fn accept_fetched(&mut self, v: Vertex<Block>) {
        self.buffer.push(v);
    }

    /// Runs `waveReady(w)` (Algorithm 6, lines 146–169) unless wave `w` is
    /// already decided: the coin-elected leader commits when all round-4
    /// vertices of some quorum of *any* process (line 148) reach it by
    /// strong paths. The outcome is counted; the decisions and deliveries
    /// are [persisted](DagCore::persist), then delivered.
    pub fn commit<M>(
        &mut self,
        committer: &mut WaveCommitter,
        coin: &CommonCoin,
        w: WaveId,
        ctx: &mut Context<'_, M, OrderedVertex>,
    ) {
        if w <= committer.decided_wave() {
            return;
        }
        let quorums = self.hub.quorums();
        let mut out = Vec::new();
        let commits_before = committer.log().len();
        let outcome = committer.wave_ready(
            &self.dag,
            coin,
            w,
            |supporters| quorums.contains_quorum_for_any(supporters).is_some(),
            &mut out,
        );
        self.metrics.count_wave(outcome);
        let decided = committer.log()[commits_before..]
            .iter()
            .map(|&(wave, leader)| DagEvent::WaveDecided { wave, leader });
        let delivered =
            out.iter().map(|o| DagEvent::BlockDelivered { id: o.id, wave: o.committed_in_wave });
        self.persist(decided.chain(delivered));
        self.deliver(out, ctx);
    }

    /// Hands atomically delivered vertices to the environment, counting
    /// each in the metrics.
    pub fn deliver<M>(
        &mut self,
        out: impl IntoIterator<Item = OrderedVertex>,
        ctx: &mut Context<'_, M, OrderedVertex>,
    ) {
        for o in out {
            self.metrics.vertices_ordered += 1;
            self.metrics.txs_ordered += o.block.txs.len() as u64;
            ctx.output(o);
        }
    }

    /// Parents referenced by buffered vertices that are neither stored nor
    /// themselves buffered — the vertices a recovering process must fetch
    /// before its buffer can drain. Pruned parents are never missing: they
    /// were delivered and garbage-collected, and asking peers for them
    /// would refetch a prefix we promised to forget.
    pub fn missing_parents(&self) -> BTreeSet<VertexId> {
        // Hashed, not a `VertexSet`: buffered rounds are not yet gated by
        // the round counter, and a Byzantine far-future one would open
        // every row below it.
        let buffered: HashSet<VertexId> = self.buffer.iter().map(Vertex::id).collect();
        let mut missing = BTreeSet::new();
        for v in &self.buffer {
            for p in v.parents() {
                if !self.dag.is_pruned(p) && !self.dag.contains(p) && !buffered.contains(&p) {
                    missing.insert(p);
                }
            }
        }
        missing
    }

    /// Garbage-collects the delivered prefix from the live DAG: every
    /// stored vertex `is_delivered` accepts with round `<= up_to_round` is
    /// removed and the pruning floor ratchets up (see
    /// [`asym_storage::prune_dag`]). Called at snapshot time so the live
    /// DAG, the snapshot and a future replay agree on what was forgotten.
    /// Returns the pruned vertices, whose blocks the rider keeps to serve
    /// deep laggards.
    #[must_use]
    pub fn prune_delivered(
        &mut self,
        is_delivered: impl Fn(VertexId) -> bool,
        up_to_round: Round,
    ) -> Vec<Vertex<Block>> {
        asym_storage::prune_dag(&mut self.dag, is_delivered, up_to_round)
    }

    /// Records `id` as delivered-and-garbage-collected without requiring
    /// it to be present (see [`asym_dag::DagStore::note_pruned`]) — the
    /// delivered-state install path marks vertices it will never receive,
    /// so children referencing them still insert.
    pub fn note_pruned(&mut self, id: VertexId) {
        self.dag.note_pruned(id);
    }

    /// Jumps the round counter forward (never backward) — called after a
    /// delivered-state install so the process resumes creating vertices
    /// just above the installed floor instead of trying to re-run rounds
    /// whose vertices the whole system has garbage-collected.
    pub fn fast_forward_round(&mut self, round: Round) {
        self.round = self.round.max(round);
    }

    /// `setWeakEdges` (Algorithm 4, lines 84–88): weak edges to every vertex
    /// in rounds `1..round−1` not already reachable from the strong parents.
    ///
    /// The search is confined to `uncovered`. When this process's own
    /// round-(`round`−1) vertex is stored and `covered == round − 1`, that
    /// vertex reaches every vertex stored before it was created, so those
    /// are never weak edges; and since a vertex is inserted only after its
    /// parents, and pruning removes ancestor-closed delivered prefixes, no
    /// path from a strong parent to a vertex inserted later runs through
    /// one stored earlier. Otherwise — a fresh
    /// [`from_recovered`](DagCore::from_recovered) engine, a
    /// [`fast_forward_round`](DagCore::fast_forward_round), or a pruned own
    /// vertex — `uncovered` is reseeded with every stored vertex of rounds
    /// 1 to `round` − 1, and the same walk is the whole-DAG search.
    fn compute_weak_edges(&mut self, round: Round, strong: &ProcessSet) -> Vec<VertexId> {
        if round < 3 {
            return Vec::new();
        }
        if self.covered + 1 != round || !self.dag.contains(VertexId::new(round - 1, self.me)) {
            self.uncovered = self.dag.vertices_in_rounds(1..round).map(Vertex::id).collect();
        }
        // Everything reachable from the strong parents; each candidate still
        // outside that reach becomes a weak edge and extends it. Candidates
        // go by round descending, then source ascending.
        let mut reach = VertexSet::new();
        for s in strong {
            let id = VertexId::new(round - 1, s);
            if self.uncovered.contains(id) {
                self.reach_uncovered(&mut reach, id);
            }
        }
        let mut weak = Vec::new();
        for (r, sources) in self.uncovered.rounds(..round - 1).rev() {
            for s in sources {
                let c = VertexId::new(r, s);
                if self.dag.contains(c) && self.reach_uncovered(&mut reach, c) {
                    weak.push(c);
                }
            }
        }
        weak
    }

    /// Adds `from` and every uncovered vertex reachable from it through
    /// stored uncovered vertices to `reach`; returns `false`, without
    /// walking, if `from` was already there.
    fn reach_uncovered(&self, reach: &mut VertexSet, from: VertexId) -> bool {
        if !reach.insert(from) {
            return false;
        }
        let mut stack = vec![from];
        while let Some(cur) = stack.pop() {
            let Some(v) = self.dag.get(cur) else { continue };
            for p in v.parents() {
                if self.uncovered.contains(p) && reach.insert(p) {
                    stack.push(p);
                }
            }
        }
        true
    }
}

/// [`DagCore::persist`], callable from the insert hook while the DAG is
/// borrowed.
fn persist_to(log: &mut Option<DagLog>, events: impl IntoIterator<Item = DagEvent<Block>>) {
    if let Some(log) = log {
        for event in events {
            log.append(&event).expect("WAL append failed");
        }
    }
}

#[cfg(test)]
mod reference_walks;

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::topology;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn core(i: usize) -> DagCore {
        let t = topology::uniform_threshold(4, 1);
        DagCore::new(pid(i), t.quorums, RiderConfig::default())
    }

    #[test]
    fn genesis_preloaded() {
        let c = core(0);
        assert_eq!(c.dag().len(), 4);
        assert_eq!(c.dag().sources_in_round(0), ProcessSet::full(4));
        assert_eq!(c.round(), 0);
    }

    #[test]
    fn advance_creates_and_self_inserts() {
        let mut c = core(0);
        c.enqueue_block(Block::new(vec![42]));
        let msgs = c.advance_and_broadcast(1);
        assert_eq!(msgs.len(), 1, "one SEND to all");
        assert_eq!(c.round(), 1);
        let own = c.dag().get(VertexId::new(1, pid(0))).expect("own vertex stored");
        assert_eq!(*own.block().txs, [42]);
        assert_eq!(own.strong_edges().len(), 4, "references all genesis vertices");
        assert_eq!(c.metrics().vertices_created, 1);
    }

    #[test]
    fn empty_queue_creates_filler_block() {
        let mut c = core(0);
        c.advance_and_broadcast(1);
        let own = c.dag().get(VertexId::new(1, pid(0))).unwrap();
        assert!(own.block().is_empty());
    }

    #[test]
    #[should_panic(expected = "one at a time")]
    fn rounds_cannot_skip() {
        let mut c = core(0);
        c.advance_and_broadcast(2);
    }

    #[test]
    fn future_vertices_stay_buffered_until_round_reached() {
        let mut a = core(0);
        let mut b = core(1);
        // b advances to round 1; its vertex reaches a through the arb layer.
        let msgs = b.advance_and_broadcast(1);
        let mut inflight: Vec<(ProcessId, BcastMsg<Vertex<Block>>)> =
            msgs.into_iter().map(|m| (pid(1), m)).collect();
        // A crude arb pump: deliver everything to `a` (and echo back a's own
        // responses as if the other three processes behaved identically).
        let mut fresh = Vec::new();
        while let Some((from, m)) = inflight.pop() {
            let (out, f) = a.handle_arb(from, m);
            fresh.extend(f);
            if let Some(m) = out {
                // Simulate the other 3 processes sending the same message.
                for i in 0..4 {
                    if let BcastMsg::Echo { .. } | BcastMsg::Ready { .. } = &m {
                        inflight.push((pid(i), m.clone()));
                    }
                }
            }
        }
        assert_eq!(fresh.len(), 1, "vertex delivered by arb");
        // a is still at round 0: round-1 vertex is insertable only after a
        // advances... per Algorithm 4 the bound is `v.round ≤ r`; round 1 > 0.
        assert_eq!(a.buffer.len(), 1);
        assert!(!a.dag().contains(VertexId::new(1, pid(1))));
        a.advance_and_broadcast(1);
        assert!(a.drain_buffer() || a.dag().contains(VertexId::new(1, pid(1))));
        assert!(a.dag().contains(VertexId::new(1, pid(1))));
    }

    #[test]
    fn vertex_identity_must_match_arb_instance() {
        let mut a = core(0);
        // A vertex claiming source p2 travelling in p1's arb instance is
        // discarded even when the arb layer delivers it.
        let forged = Vertex::new(pid(2), 1, Block::default(), ProcessSet::full(4), vec![]);
        // Drive a's hub directly to delivery: 3 echoes + 3 readies.
        let msgs: Vec<BcastMsg<Vertex<Block>>> = vec![
            BcastMsg::Echo { origin: pid(1), tag: 1, value: forged.clone() },
            BcastMsg::Ready { origin: pid(1), tag: 1, value: forged.clone() },
        ];
        for m in &msgs {
            for s in 0..4 {
                let (_, fresh) = a.handle_arb(pid(s), m.clone());
                assert_eq!(fresh, None, "mismatched identity must be dropped");
            }
        }
    }

    #[test]
    fn weak_edges_cover_unreachable_older_vertices() {
        // Build: p0 references only p0's chain strongly; p3's round-1 vertex
        // exists but is never referenced → becomes a weak edge at round 3.
        let t = topology::uniform_threshold(4, 1);
        let mut c = DagCore::new(pid(0), t.quorums, RiderConfig::default());
        c.advance_and_broadcast(1);
        // Hand-insert p3's round-1 vertex (bypassing arb for the test).
        c.buffer.push(Vertex::new(pid(3), 1, Block::default(), ProcessSet::full(4), vec![]));
        c.drain_buffer();
        c.advance_and_broadcast(2); // strong edges = {p0, p3} (both in round 1)
        c.advance_and_broadcast(3);
        let v3 = c.dag().get(VertexId::new(3, pid(0))).unwrap();
        // Round-2 has only p0's vertex; its strong edges cover rounds 1.
        // Everything is reachable → no weak edges needed.
        assert!(v3.weak_edges().is_empty());

        // Now insert p2's round-1 vertex late: the round-4 vertex must weakly
        // reference it (not reachable through p0's chain).
        c.buffer.push(Vertex::new(pid(2), 1, Block::default(), ProcessSet::full(4), vec![]));
        c.drain_buffer();
        c.advance_and_broadcast(4);
        let v4 = c.dag().get(VertexId::new(4, pid(0))).unwrap();
        assert_eq!(v4.weak_edges(), &[VertexId::new(1, pid(2))]);
    }
}
