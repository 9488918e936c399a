//! **Asymmetric DAG-Rider** — Algorithms 4, 5 and 6 of the paper: the first
//! randomized asynchronous DAG-based consensus protocol with asymmetric
//! quorums.
//!
//! Every 4-round wave executes the constant-round asymmetric gather
//! (Algorithm 3) *structurally*: round 1 plays the candidate-`S` role, the
//! round-2 vertices are the `DISTRIBUTE_S` step (each delivery is ACKed,
//! Algorithm 6 line 142), the transition into round 3 — the `DISTRIBUTE_T`
//! step — is gated on the ACK → READY → CONFIRM ladder (Algorithm 5), and
//! round 4 corresponds to the `U` sets. The gather guarantee yields a common
//! core of round-1 vertices in every wave, so the coin-elected leader is
//! committable with probability at least `c(Q)/|P|` (Lemmas 4.3, 4.4).
//!
//! Differences from the symmetric baseline, per the paper §4.3:
//!
//! * **round change** — a round completes when the vertices of one of *my
//!   quorums* are in my DAG (not `n − f` vertices);
//! * **round 2 → 3 gating** — additionally requires CONFIRMs from one of my
//!   quorums (`tReady`);
//! * **commit rule** — the leader commits when all round-4 vertices of some
//!   quorum `Q ∈ Q_j` (for *any* process `j`, Algorithm 6 line 148) have
//!   strong paths to it.

use std::collections::{BTreeSet, HashMap};
use std::iter;

use asym_broadcast::BcastMsg;
use asym_crypto::CommonCoin;
use asym_dag::{
    position_in_wave, round_of_wave, wave_of_round, DagStore, Round, Vertex, VertexId, WaveId,
};
use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};
use asym_sim::{Context, Protocol};
use asym_storage::{DagEvent, RecoveredState, StorageError};

use crate::catchup::{self, CatchUp, TransferStats, WaveSegment};
use crate::dagcore::{DagCore, DagLog};
use crate::ordering::WaveCommitter;
use crate::types::{Block, OrderedVertex, RiderConfig, RiderMetrics};

/// Wire messages of asymmetric DAG-Rider: the arb layer carrying vertices,
/// plus the per-wave ACK/READY/CONFIRM control ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsymRiderMsg {
    /// Asymmetric-reliable-broadcast layer carrying DAG vertices.
    Arb(BcastMsg<Vertex<Block>>),
    /// Acknowledges the arb-delivery of the sender's round-2 vertex of
    /// `wave` (point-to-point to the vertex creator).
    Ack {
        /// Wave the acknowledged round-2 vertex belongs to.
        wave: WaveId,
    },
    /// The sender received ACKs from one of its quorums for `wave`.
    Ready {
        /// Wave this readiness concerns.
        wave: WaveId,
    },
    /// The sender received READYs from a quorum (or CONFIRMs from a kernel)
    /// for `wave`.
    Confirm {
        /// Wave this confirmation concerns.
        wave: WaveId,
    },
    /// A recovering process asks for every DAG vertex above `above_round`
    /// (plus the responder's confirmed waves) — the catch-up half of the
    /// crash-recovery protocol.
    Fetch {
        /// Only vertices in rounds strictly above this are requested.
        above_round: Round,
    },
    /// Point-to-point reply to [`AsymRiderMsg::Fetch`]: the responder's
    /// stored vertices above the requested round (parents first) and the
    /// waves it has CONFIRMed. A fetched vertex bypasses reliable
    /// broadcast, so it is accepted only once a kernel of the requester
    /// vouches for identical copies.
    FetchReply {
        /// Vertices from the responder's DAG, in `(round, source)` order.
        vertices: Vec<Vertex<Block>>,
        /// Waves for which the responder has broadcast CONFIRM.
        confirmed: Vec<WaveId>,
    },
    /// Sent alongside a [`AsymRiderMsg::FetchReply`] when the requested
    /// floor lies below the responder's pruning floor: the responder can no
    /// longer serve those rounds as DAG vertices, but offers the delivered
    /// prefix as certified outputs instead (delivered-state transfer — see
    /// [`WaveSegment`]).
    StateOffer {
        /// The responder can ship certified state through this wave.
        decided_wave: WaveId,
        /// The responder's pruning floor (rounds at or below may be gone).
        floor: Round,
    },
    /// A deep laggard accepting a [`AsymRiderMsg::StateOffer`]: asks for
    /// every decided wave above its own watermark.
    StateRequest {
        /// The requester's last decided wave.
        above_wave: WaveId,
    },
    /// Point-to-point reply to [`AsymRiderMsg::StateRequest`]: per-wave
    /// certified segments of the responder's delivered prefix, installed
    /// only once one of the requester's **own** kernels vouches for
    /// identical copies, so a lone equivocator cannot forge state.
    StateChunk {
        /// Decided waves above the requested watermark, in wave order.
        segments: Vec<WaveSegment>,
    },
}

#[derive(Clone, Debug, Default)]
struct WaveControl {
    acks: ProcessSet,
    readys: ProcessSet,
    confirms: ProcessSet,
    sent_ready: bool,
    sent_confirm: bool,
    t_ready: bool,
}

impl WaveControl {
    /// Marks the wave's ladder done: tReady reached, READY and CONFIRM
    /// counted as sent.
    fn finish(&mut self) {
        self.t_ready = true;
        self.sent_ready = true;
        self.sent_confirm = true;
    }
}

/// One process of asymmetric DAG-Rider (Algorithms 4–6).
///
/// *Input*: blocks to `aa-broadcast`. *Output*: [`OrderedVertex`] events in
/// atomic-broadcast order. All cluster members must share the same
/// `coin_seed` and asymmetric quorum system array.
#[derive(Clone, Debug)]
pub struct AsymDagRider {
    core: DagCore,
    committer: WaveCommitter,
    coin: CommonCoin,
    control: HashMap<WaveId, WaveControl>,
    /// All receiver-side catch-up state: kernel votes on fetched vertices
    /// and transferred state, refetch and state-request tracking, and the
    /// transfer counters.
    catchup: CatchUp,
    /// Block payloads of delivered vertices absent from the DAG (pruned
    /// after delivery, or installed via state transfer) — what this process
    /// serves to deep laggards in place of the garbage-collected vertices.
    delivered_blocks: HashMap<VertexId, Block>,
}

impl AsymDagRider {
    /// Creates an asymmetric DAG-Rider process.
    pub fn new(
        me: ProcessId,
        quorums: AsymQuorumSystem,
        coin_seed: u64,
        config: RiderConfig,
    ) -> Self {
        let n = quorums.n();
        AsymDagRider {
            core: DagCore::new(me, quorums, config),
            committer: WaveCommitter::new(),
            coin: CommonCoin::new(coin_seed, n),
            control: HashMap::new(),
            catchup: CatchUp::default(),
            delivered_blocks: HashMap::new(),
        }
    }

    /// Attaches a write-ahead log (builder-style): every DAG insertion,
    /// `tReady` milestone, wave decision and atomic delivery is persisted,
    /// and [`Protocol::on_recover`] rebuilds the process from it after a
    /// [`FaultMode::RestartAfter`](asym_sim::FaultMode::RestartAfter) crash.
    #[must_use]
    pub fn with_storage(mut self, log: DagLog) -> Self {
        self.core.set_log(log);
        self
    }

    /// The attached write-ahead log, if any (observer inspection — the
    /// scenario harness replays it to audit WAL/state equivalence).
    pub fn storage(&self) -> Option<&DagLog> {
        self.core.log()
    }

    /// Replays the attached log into recovered state without touching the
    /// live process — what a restart *would* rebuild right now.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError`] from the log (corruption, I/O).
    pub fn replay_storage(&self) -> Option<Result<RecoveredState<Block>, StorageError>> {
        let log = self.core.log()?;
        Some(log.replay(self.core.quorums().n(), self.core.me(), Block::default()))
    }

    /// `true` once this process has restarted from its log.
    pub fn has_recovered(&self) -> bool {
        self.catchup.recovering()
    }

    /// The local DAG (observer inspection).
    pub fn dag(&self) -> &DagStore<Block> {
        self.core.dag()
    }

    /// Execution counters.
    pub fn metrics(&self) -> RiderMetrics {
        self.core.metrics()
    }

    /// The last decided wave.
    pub fn decided_wave(&self) -> WaveId {
        self.committer.decided_wave()
    }

    /// The wave-commitment state (observer inspection: commit log, decided
    /// wave, delivered-vertex set) — what the scenario harness's
    /// `delivery_bookkeeping` invariant checker audits.
    pub fn committer(&self) -> &WaveCommitter {
        &self.committer
    }

    /// Commit log of `(wave, leader)` pairs, in commit order.
    pub fn commit_log(&self) -> &[(WaveId, VertexId)] {
        self.committer.log()
    }

    /// Delivered-state-transfer activity counters (observer inspection —
    /// the scenario harness uses them to prove a deep laggard really
    /// recovered through state transfer rather than plain fetch).
    pub fn transfer_stats(&self) -> TransferStats {
        self.catchup.transfer_stats()
    }

    /// The main loop of Algorithm 4 (lines 94–120), event-driven: advance
    /// through as many rounds as the current DAG and control state allow.
    fn advance(&mut self, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        loop {
            self.core.drain_buffer();
            let cur = self.core.round();
            if cur >= self.core.config().max_round() {
                break;
            }
            // Pruned round members count as available: they were delivered
            // (hence fully disseminated) before being garbage-collected, so
            // a process resuming above a delivered-state install floor can
            // still assemble its round quorum out of the gc'd prefix.
            let sources = self.core.dag().sources_in_round_or_pruned(cur);
            if !self.core.quorums().contains_quorum_for(self.core.me(), &sources) {
                break;
            }
            // Lines 109–116: leaving round 2 of a wave additionally requires
            // CONFIRMs from one of my quorums (tReady).
            if cur > 0 && position_in_wave(cur) == 2 {
                let w = wave_of_round(cur);
                if !self.control.entry(w).or_default().t_ready {
                    break;
                }
            }
            // Lines 100–101: crossing a wave boundary runs the commit rule.
            if cur > 0 && cur.is_multiple_of(4) {
                self.core.commit(&mut self.committer, &self.coin, cur / 4, ctx);
            }
            for m in self.core.advance_and_broadcast(cur + 1) {
                ctx.broadcast(AsymRiderMsg::Arb(m));
            }
        }
    }

    /// Runs the ACK → READY → CONFIRM ladder of Algorithm 5 for `wave`.
    fn control_step(&mut self, wave: WaveId, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        let (me, quorums) = (self.core.me(), self.core.quorums());
        let ctrl = self.control.entry(wave).or_default();

        // Line 123: READY after ACKs from one of my quorums.
        if !ctrl.sent_ready && quorums.contains_quorum_for(me, &ctrl.acks) {
            ctrl.sent_ready = true;
            ctx.broadcast(AsymRiderMsg::Ready { wave });
        }
        // Line 127: CONFIRM after READYs from one of my quorums.
        if !ctrl.sent_confirm && quorums.contains_quorum_for(me, &ctrl.readys) {
            ctrl.sent_confirm = true;
            ctx.broadcast(AsymRiderMsg::Confirm { wave });
        }
        // Line 131: CONFIRM after CONFIRMs from one of my kernels.
        if !ctrl.sent_confirm && quorums.hits_kernel_for(me, &ctrl.confirms) {
            ctrl.sent_confirm = true;
            ctx.broadcast(AsymRiderMsg::Confirm { wave });
        }
        // Line 135: tReady after CONFIRMs from one of my quorums.
        let became_ready = !ctrl.t_ready && quorums.contains_quorum_for(me, &ctrl.confirms);
        if became_ready {
            ctrl.t_ready = true;
            self.core.persist([DagEvent::WaveConfirmed { wave }]);
        }
    }

    /// Installs a snapshot when the WAL's cadence asks for one. With
    /// [`RiderConfig::prune_wal`] set, the delivered prefix below the
    /// decided wave's leader round is garbage-collected first — from the
    /// live DAG and hence from the snapshot — so the *vertex* component of
    /// a snapshot tracks the undelivered frontier, not the whole history.
    /// The delivered-set ids and the commit log are never pruned (they are
    /// what makes re-delivery impossible) and still grow with history —
    /// compacting them safely is an open ROADMAP item, because a
    /// per-source watermark is unsound for Byzantine sources.
    fn maybe_snapshot(&mut self) {
        if !self.core.log().is_some_and(DagLog::should_snapshot) {
            return;
        }
        let decided = self.committer.decided_wave();
        if self.core.config().prune_wal && decided >= 1 {
            // Everything delivered lives at or below the decided wave's
            // leader round (a wave-w commit orders history of the
            // round-`4(w-1)+1` leader). The pruned vertices' blocks move into
            // the transferable residue, so the delivered prefix stays
            // servable to deep laggards as certified outputs.
            let floor = round_of_wave(decided, 1);
            let delivered: BTreeSet<VertexId> = self.committer.delivered().collect();
            for v in self.core.prune_delivered(&delivered, floor) {
                self.delivered_blocks.insert(v.id(), v.into_block());
            }
        }
        // The canonical snapshot event order lives in
        // `asym_storage::snapshot_events`, shared with replay-side compaction.
        let events = asym_storage::snapshot_events(
            self.core.dag(),
            self.control.iter().filter(|(_, c)| c.t_ready).map(|(w, _)| *w),
            self.committer.log(),
            self.committer.delivered_waves(),
            self.delivered_blocks.iter().map(|(id, b)| (*id, b.clone())),
        );
        self.core.install_snapshot(&events);
    }

    /// Discards all in-memory state and rebuilds this process from its
    /// write-ahead log, then rejoins the run: re-announces confirmed waves
    /// (unblocking peers stalled mid-ladder), revives its own stalled
    /// broadcast instances, and fetches everything it missed from peers.
    fn rejoin(&mut self, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        let Some(log) = self.core.take_log() else {
            return; // no persistence layer: resume with in-memory state
        };
        let (me, config) = (self.core.me(), self.core.config());
        let restart = catchup::restart_from_log(log, self.core.quorums(), me, config);
        // Nothing survives from the pre-crash in-memory state.
        self.core = restart.core;
        self.committer = restart.committer;
        self.delivered_blocks = restart.residue;
        self.control = HashMap::new();
        self.catchup = CatchUp::restarted();
        for w in restart.confirmed {
            // Mark the outbound ladder done for finished waves and instead
            // re-announce once, so peers stalled mid-ladder progress and we
            // do not re-broadcast on every late control message.
            self.control.entry(w).or_default().finish();
            ctx.broadcast(AsymRiderMsg::Confirm { wave: w });
        }
        for m in self.core.rebroadcast_own() {
            ctx.broadcast(AsymRiderMsg::Arb(m));
        }
        // Full state sync from the pruning floor: most of the reply
        // duplicates the replayed DAG and is discarded on arrival, but any
        // tighter floor can miss old vertices we never held (they surface
        // later as weak edges). An *undelivered* sub-floor vertex that is
        // still missing surfaces in `missing_parents` and is refetched.
        ctx.broadcast(AsymRiderMsg::Fetch { above_round: self.core.dag().pruned_floor() });
        self.advance(ctx);
    }

    /// Installs kernel-corroborated wave segments in chain order: each
    /// extends the commit log, its fresh deliveries are persisted and
    /// output, the vertices never received are recorded as pruned, and the
    /// round counter fast-forwards past the installed floor. Then `Fetch`
    /// catch-up resumes just below the new floor.
    fn install(
        &mut self,
        segments: Vec<WaveSegment>,
        ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>,
    ) {
        if segments.is_empty() {
            return;
        }
        for seg in segments {
            let fresh = self.committer.install_wave(seg.wave, seg.leader, &seg.deliveries);
            let absent: Vec<bool> =
                fresh.iter().map(|(id, _)| !self.core.dag().contains(*id)).collect();
            // Persist the decision, its tReady milestone (set below; a
            // replay cannot re-derive it locally), every delivery and the
            // block residue of never-received vertices *before* handing
            // outputs to the environment, as a live commit does.
            let (wave, leader) = (seg.wave, seg.leader);
            let deliveries = fresh.iter().zip(&absent).flat_map(|((id, block), miss)| {
                let residue =
                    miss.then(|| DagEvent::DeliveredBlock { id: *id, block: block.clone() });
                iter::once(DagEvent::BlockDelivered { id: *id, wave }).chain(residue)
            });
            self.core.persist(
                [DagEvent::WaveDecided { wave, leader }, DagEvent::WaveConfirmed { wave }]
                    .into_iter()
                    .chain(deliveries),
            );
            for ((id, block), miss) in fresh.iter().zip(&absent) {
                if *miss {
                    self.core.note_pruned(*id);
                    self.delivered_blocks.insert(*id, block.clone());
                }
            }
            // Kernel corroboration doubles as the wave's confirmation
            // evidence (the CONFIRM-from-kernel rule), so round advancement
            // through it is not gated on long-gone CONFIRMs.
            self.control.entry(seg.wave).or_default().finish();
            self.catchup.note_installed(fresh.len());
            let out = fresh.into_iter().map(|(id, block)| OrderedVertex {
                id,
                block,
                committed_in_wave: seg.wave,
            });
            self.core.deliver(out, ctx);
            self.core.fast_forward_round(round_of_wave(seg.wave, 1));
        }
        // One round *below* the floor: only a wave's leader is delivered by
        // its own commit, so its round siblings may still be needed.
        let floor = self.core.dag().pruned_floor();
        ctx.broadcast(AsymRiderMsg::Fetch { above_round: floor.saturating_sub(1) });
    }
}

impl Protocol for AsymDagRider {
    type Msg = AsymRiderMsg;
    type Input = Block;
    type Output = OrderedVertex;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.advance(ctx);
        self.maybe_snapshot();
    }

    fn on_input(&mut self, block: Block, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.core.enqueue_block(block);
        self.advance(ctx);
        self.maybe_snapshot();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.rejoin(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        // `advance` runs to its fixpoint whenever a handler returns, so
        // only a message that changes what it reads needs another pass: any
        // non-`Arb` message, and an `Arb` step that delivered a vertex. One
        // that delivered nothing left the buffer, the DAG, the round and the
        // control map as they were.
        let mut advance = true;
        match msg {
            AsymRiderMsg::Arb(inner) => {
                let (out, fresh) = self.core.handle_arb(from, inner);
                if let Some(m) = out {
                    ctx.broadcast(AsymRiderMsg::Arb(m));
                }
                advance = fresh.is_some();
                // Line 142: ACK the creator of every delivered round-2
                // vertex. The hub delivers each (origin, round) instance at
                // most once and `handle_arb` admits only the vertex naming
                // that instance, so each vertex is ACKed at most once.
                if let Some(vid) = fresh.filter(|vid| position_in_wave(vid.round) == 2) {
                    let wave = wave_of_round(vid.round);
                    ctx.send(vid.source, AsymRiderMsg::Ack { wave });
                }
            }
            AsymRiderMsg::Ack { wave } => {
                self.control.entry(wave).or_default().acks.insert(from);
                self.control_step(wave, ctx);
            }
            AsymRiderMsg::Ready { wave } => {
                self.control.entry(wave).or_default().readys.insert(from);
                self.control_step(wave, ctx);
            }
            AsymRiderMsg::Confirm { wave } => {
                self.control.entry(wave).or_default().confirms.insert(from);
                self.control_step(wave, ctx);
            }
            AsymRiderMsg::Fetch { above_round } => {
                let confirmed =
                    self.control.iter().filter(|(_, c)| c.sent_confirm).map(|(w, _)| *w);
                let decided = self.committer.decided_wave();
                for m in catchup::answer_fetch(above_round, self.core.dag(), confirmed, decided) {
                    ctx.send(from, m);
                }
            }
            AsymRiderMsg::FetchReply { vertices, confirmed } => {
                for v in self.catchup.on_fetch_reply(from, vertices, &self.core) {
                    self.core.accept_fetched(v);
                }
                for wave in confirmed {
                    self.control.entry(wave).or_default().confirms.insert(from);
                    self.control_step(wave, ctx);
                }
            }
            AsymRiderMsg::StateOffer { decided_wave, .. } => {
                let decided = self.committer.decided_wave();
                if self.catchup.wants_state(from, decided_wave, decided) {
                    ctx.send(from, AsymRiderMsg::StateRequest { above_wave: decided });
                }
            }
            AsymRiderMsg::StateRequest { above_wave } => {
                let residue = &self.delivered_blocks;
                let chunk =
                    catchup::state_chunk(&self.committer, self.core.dag(), residue, above_wave);
                if let Some(chunk) = chunk {
                    ctx.send(from, chunk);
                }
            }
            AsymRiderMsg::StateChunk { segments } => {
                let decided = self.committer.decided_wave();
                let (coin, quorums, me) = (&self.coin, self.core.quorums(), self.core.me());
                let ready = self.catchup.on_state_chunk(from, segments, decided, coin, quorums, me);
                self.install(ready, ctx);
            }
        }
        if advance {
            self.advance(ctx);
        }
        if let Some(floor) = self.catchup.refetch_floor(|| self.core.missing_parents()) {
            ctx.broadcast(AsymRiderMsg::Fetch { above_round: floor });
        }
        self.maybe_snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::{maximal_guild, topology};
    use asym_sim::{scheduler, FaultMode, Simulation};
    use std::collections::HashSet;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn cluster(t: &topology::Topology, waves: WaveId) -> Vec<AsymDagRider> {
        let config = RiderConfig { max_waves: waves, ..Default::default() };
        (0..t.n()).map(|i| AsymDagRider::new(pid(i), t.quorums.clone(), 42, config)).collect()
    }

    fn check_total_order(outputs: &[Vec<OrderedVertex>]) {
        // Ids *and* blocks: an equal id carrying a different payload is a fork.
        for a in outputs {
            for b in outputs {
                let common = a.len().min(b.len());
                for k in 0..common {
                    assert_eq!(
                        (a[k].id, &a[k].block),
                        (b[k].id, &b[k].block),
                        "total order violated at position {k}"
                    );
                }
            }
        }
    }

    /// Runs the protocol over a topology with crashes; checks agreement,
    /// total order, integrity and progress for guild members.
    fn run_and_check(
        t: &topology::Topology,
        crashed: &[usize],
        seed: u64,
        waves: WaveId,
    ) -> Vec<Vec<OrderedVertex>> {
        let faulty: ProcessSet = crashed.iter().copied().collect();
        let guild = maximal_guild(&t.fail_prone, &t.quorums, &faulty)
            .expect("test topology must retain a guild");
        let mut sim = Simulation::new(cluster(t, waves), scheduler::Random::new(seed));
        for c in crashed {
            sim = sim.with_fault(pid(*c), FaultMode::CrashedFromStart);
        }
        for i in 0..t.n() {
            if !crashed.contains(&i) {
                sim.input(pid(i), Block::new(vec![7000 + i as u64]));
            }
        }
        let report = sim.run(200_000_000);
        assert!(report.quiescent, "{} seed {seed}: did not quiesce", t.name);

        let outputs: Vec<Vec<OrderedVertex>> =
            (0..t.n()).map(|i| sim.outputs(pid(i)).to_vec()).collect();
        let guild_outputs: Vec<Vec<OrderedVertex>> =
            guild.iter().map(|g| outputs[g.index()].clone()).collect();
        check_total_order(&guild_outputs);
        // Progress: guild members commit within the wave budget.
        for g in &guild {
            assert!(
                !outputs[g.index()].is_empty(),
                "{} seed {seed}: guild member {g} ordered nothing",
                t.name
            );
        }
        // Integrity: no duplicates.
        for o in &outputs {
            let mut seen = HashSet::new();
            for v in o {
                assert!(seen.insert(v.id), "duplicate delivery of {}", v.id);
            }
        }
        outputs
    }

    #[test]
    fn threshold_topology_commits_and_agrees() {
        let t = topology::uniform_threshold(4, 1);
        for seed in 0..4 {
            run_and_check(&t, &[], seed, 6);
        }
    }

    #[test]
    fn threshold_with_crash() {
        let t = topology::uniform_threshold(4, 1);
        for seed in 0..3 {
            run_and_check(&t, &[3], seed, 8);
        }
    }

    #[test]
    fn seven_processes_two_crashes() {
        let t = topology::uniform_threshold(7, 2);
        run_and_check(&t, &[5, 6], 1, 8);
    }

    #[test]
    fn ripple_topology_commits() {
        let t = topology::ripple_unl(10, 8, 1);
        for seed in 0..2 {
            run_and_check(&t, &[], seed, 6);
        }
    }

    #[test]
    fn ripple_topology_with_crash() {
        let t = topology::ripple_unl(10, 8, 1);
        run_and_check(&t, &[4], 3, 8);
    }

    #[test]
    fn stellar_topology_with_leaf_crashes() {
        let t = topology::stellar_tiers(8, 4, 1);
        run_and_check(&t, &[6, 7], 2, 8);
    }

    #[test]
    fn validity_blocks_eventually_ordered() {
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_and_check(&t, &[], 11, 8);
        for (i, out) in outputs.iter().enumerate() {
            let txs: Vec<u64> = out.iter().flat_map(|o| o.block.txs.iter().copied()).collect();
            for tx in 7000..7004 {
                assert!(txs.contains(&tx), "process {i} missing tx {tx}: {txs:?}");
            }
        }
    }

    #[test]
    fn deterministic_replay() {
        let t = topology::uniform_threshold(4, 1);
        let a = run_and_check(&t, &[], 5, 5);
        let b = run_and_check(&t, &[], 5, 5);
        assert_eq!(a, b, "same seed must replay identically");
    }

    #[test]
    fn outputs_respect_causality() {
        // A vertex is always delivered after its whole (non-genesis) causal
        // history: commits deliver leader histories oldest-wave-first and
        // sorted within a commit, so every parent precedes its child.
        let t = topology::uniform_threshold(4, 1);
        let mut sim = Simulation::new(cluster(&t, 6), scheduler::Random::new(2));
        for i in 0..4 {
            sim.input(pid(i), Block::new(vec![i as u64]));
        }
        assert!(sim.run(200_000_000).quiescent);
        for i in 0..4 {
            let out = sim.outputs(pid(i));
            let dag = sim.process(pid(i)).dag();
            let pos: HashMap<VertexId, usize> =
                out.iter().enumerate().map(|(k, o)| (o.id, k)).collect();
            for o in out {
                let v = dag.get(o.id).expect("delivered vertices are stored");
                for parent in v.parents() {
                    if parent.round == 0 {
                        continue;
                    }
                    let pp = pos.get(&parent).unwrap_or_else(|| {
                        panic!("process {i}: parent {parent} of {} not delivered", o.id)
                    });
                    assert!(pp < &pos[&o.id], "process {i}: {parent} after {}", o.id);
                }
            }
        }
    }

    /// Builds a cluster in which process `restarted` persists to a WAL and
    /// crashes/restarts, runs it, and checks the recovery invariants: no
    /// double delivery, prefix consistency with the always-up processes,
    /// and exact WAL/state equivalence at the end of the run.
    fn run_restart(
        t: &topology::Topology,
        restarted: usize,
        crash_at: u64,
        recover_at: u64,
        seed: u64,
        snapshot_every: usize,
    ) -> Vec<Vec<OrderedVertex>> {
        run_restart_config(t, restarted, crash_at, recover_at, seed, snapshot_every, false)
    }

    fn run_restart_config(
        t: &topology::Topology,
        restarted: usize,
        crash_at: u64,
        recover_at: u64,
        seed: u64,
        snapshot_every: usize,
        prune: bool,
    ) -> Vec<Vec<OrderedVertex>> {
        use asym_storage::StorageBackend;

        let mut procs = cluster(t, 6);
        if prune {
            let config = RiderConfig { max_waves: 6, prune_wal: true };
            procs[restarted] = AsymDagRider::new(pid(restarted), t.quorums.clone(), 42, config);
        }
        procs[restarted] = procs[restarted].clone().with_storage(
            crate::DagLog::new(StorageBackend::in_memory()).with_snapshot_every(snapshot_every),
        );
        let mut sim = Simulation::new(procs, scheduler::Random::new(seed))
            .with_fault(pid(restarted), FaultMode::RestartAfter { crash_at, recover_at });
        for i in 0..t.n() {
            sim.input(pid(i), Block::new(vec![8000 + i as u64]));
        }
        let report = sim.run(200_000_000);
        assert!(report.quiescent, "seed {seed}: did not quiesce");

        let outputs: Vec<Vec<OrderedVertex>> =
            (0..t.n()).map(|i| sim.outputs(pid(i)).to_vec()).collect();
        let r = sim.process(pid(restarted));
        assert!(r.has_recovered(), "restart window never fired");

        // Integrity across the restart: nothing delivered twice.
        let mut seen = HashSet::new();
        for v in &outputs[restarted] {
            assert!(seen.insert(v.id), "{} delivered twice across restart", v.id);
        }
        // Prefix consistency with every always-up process.
        for (i, out) in outputs.iter().enumerate() {
            if i == restarted {
                continue;
            }
            let common = out.len().min(outputs[restarted].len());
            for k in 0..common {
                assert_eq!(out[k].id, outputs[restarted][k].id, "fork at {k} vs p{i}");
            }
        }
        // WAL/state equivalence: replaying the final log reproduces the
        // live state exactly.
        let replayed = r.replay_storage().expect("storage attached").expect("log readable");
        assert_eq!(replayed.dag.len(), r.dag().len());
        assert_eq!(replayed.decided_wave, r.decided_wave());
        assert_eq!(replayed.commit_log, r.commit_log().to_vec());
        let live: std::collections::BTreeSet<VertexId> = r.committer().delivered().collect();
        assert_eq!(replayed.delivered, live);
        outputs
    }

    #[test]
    fn restart_replays_log_and_rejoins() {
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_restart(&t, 2, 150, 1200, 3, 0);
        assert!(!outputs[2].is_empty(), "restarted process must catch up and deliver");
    }

    #[test]
    fn restart_with_snapshots_matches_restart_without() {
        let t = topology::uniform_threshold(4, 1);
        let plain = run_restart(&t, 1, 100, 800, 7, 0);
        let snapped = run_restart(&t, 1, 100, 800, 7, 16);
        assert_eq!(plain, snapped, "snapshot cadence must not change the execution");
    }

    #[test]
    fn restart_after_quiescence_still_catches_up() {
        // recover_at far beyond the run: recovery is forced at quiescence;
        // the restarted process must rebuild purely from WAL + fetch.
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_restart(&t, 3, 120, 50_000_000, 11, 0);
        assert!(!outputs[3].is_empty(), "post-quiescence recovery must still deliver");
        // It must reach the same delivered prefix as an always-up process.
        assert!(
            outputs[3].len() >= outputs[0].len() * 2 / 3,
            "recovered process fell too far behind: {} vs {}",
            outputs[3].len(),
            outputs[0].len()
        );
    }

    #[test]
    fn restart_on_ripple_topology() {
        let t = topology::ripple_unl(7, 6, 1);
        let outputs = run_restart(&t, 5, 200, 1500, 5, 32);
        assert!(!outputs[5].is_empty());
    }

    #[test]
    fn pruned_wal_restart_recovers_post_prefix_state() {
        // Pruning on, aggressive snapshot cadence: the delivered prefix is
        // garbage-collected from live DAG + snapshots, and the restart
        // still recovers, catches up and keeps all invariants (the
        // run_restart_config helper checks no-double-delivery, prefix
        // consistency and exact WAL/state equivalence — which with live
        // pruning stays *equality*, both sides lacking the pruned prefix).
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_restart_config(&t, 2, 150, 1200, 3, 16, true);
        assert!(!outputs[2].is_empty(), "pruned-WAL process must still deliver");
        // Same cell without pruning delivers the same observable outputs
        // for the *other* processes... not guaranteed bit-for-bit for the
        // pruned one (weak edges may differ), so compare only delivery
        // multisets of a fault-free process.
        let unpruned = run_restart(&t, 2, 150, 1200, 3, 16);
        let ids = |o: &[OrderedVertex]| o.iter().map(|v| v.id).collect::<Vec<_>>();
        assert_eq!(ids(&outputs[0]).len(), ids(&unpruned[0]).len());
    }

    #[test]
    fn pruning_bounds_the_snapshot() {
        // Directly exercise the rider's prune-at-snapshot path: after a
        // long run the pruned process's DAG and snapshot must not contain
        // the delivered prefix, and its WAL must record a pruning floor.
        use asym_storage::StorageBackend;
        let t = topology::uniform_threshold(4, 1);
        let config = RiderConfig { max_waves: 6, prune_wal: true };
        let mut procs = cluster(&t, 6);
        procs[1] = AsymDagRider::new(pid(1), t.quorums.clone(), 42, config)
            .with_storage(crate::DagLog::new(StorageBackend::in_memory()).with_snapshot_every(24));
        let mut sim = Simulation::new(procs, scheduler::Random::new(9));
        for i in 0..4 {
            sim.input(pid(i), Block::new(vec![9000 + i as u64]));
        }
        assert!(sim.run(200_000_000).quiescent);
        let r = sim.process(pid(1));
        let floor = r.dag().pruned_floor();
        assert!(floor > 0, "a 6-wave run with cadence 24 must have pruned");
        for round in 1..=floor {
            for v in r.dag().vertices_in_round(round) {
                assert!(
                    !r.committer().is_delivered(v.id()),
                    "delivered {} below the floor survived pruning",
                    v.id()
                );
            }
        }
        let replayed = r.replay_storage().unwrap().unwrap();
        assert_eq!(replayed.pruned_round, floor);
        assert_eq!(replayed.dag.len(), r.dag().len(), "pruned replay = pruned live state");
        // An unpruned twin of the same cell stores strictly more vertices.
        let mut procs = cluster(&t, 6);
        procs[1] = procs[1]
            .clone()
            .with_storage(crate::DagLog::new(StorageBackend::in_memory()).with_snapshot_every(24));
        let mut sim2 = Simulation::new(procs, scheduler::Random::new(9));
        for i in 0..4 {
            sim2.input(pid(i), Block::new(vec![9000 + i as u64]));
        }
        assert!(sim2.run(200_000_000).quiescent);
        assert!(
            r.dag().len() < sim2.process(pid(1)).dag().len(),
            "pruning must actually shrink the stored DAG"
        );
    }

    /// Steps `sim` to quiescence and, after every step, checks that each
    /// process is at `advance`'s fixpoint: one more call sends nothing,
    /// outputs nothing and leaves the round, the DAG and the buffer as they
    /// are. `on_message` skips `advance` after a broadcast step that
    /// delivered no vertex on the strength of this. Returns the finished
    /// simulation.
    fn assert_advance_fixpoint(
        mut sim: Simulation<AsymDagRider, scheduler::Random>,
    ) -> Simulation<AsymDagRider, scheduler::Random> {
        let n = sim.n();
        let mut step = 0;
        loop {
            for i in 0..n {
                let mut probe = sim.process(pid(i)).clone();
                let core = &probe.core;
                let before = (core.round(), core.dag().len(), core.buffer_len());
                let (mut sends, mut outputs) = (Vec::new(), Vec::new());
                probe.advance(&mut Context::new(pid(i), n, sim.now(), &mut sends, &mut outputs));
                let core = &probe.core;
                let after = (core.round(), core.dag().len(), core.buffer_len());
                assert!(sends.is_empty(), "step {step}: p{i} advanced and sent {}", sends.len());
                assert!(outputs.is_empty(), "step {step}: p{i} advanced and output");
                assert_eq!(before, after, "step {step}: p{i} (round, DAG, buffer) moved");
            }
            if !sim.step() {
                break;
            }
            step += 1;
        }
        assert!(step > 0);
        sim
    }

    #[test]
    fn advance_is_at_its_fixpoint_after_every_step() {
        for (t, seed) in
            [(topology::uniform_threshold(4, 1), 1), (topology::ripple_unl(7, 6, 1), 2)]
        {
            let mut sim = Simulation::new(cluster(&t, 3), scheduler::Random::new(seed));
            for i in 0..t.n() {
                sim.input(pid(i), Block::new(vec![i as u64]));
            }
            let sim = assert_advance_fixpoint(sim);
            assert!(!sim.outputs(pid(0)).is_empty(), "seed {seed}: nothing ordered");
        }
    }

    #[test]
    fn advance_is_at_its_fixpoint_with_pruning_wal_and_restarts() {
        use asym_storage::StorageBackend;
        let t = topology::uniform_threshold(7, 2);
        let config = RiderConfig { max_waves: 4, prune_wal: true };
        for seed in 1..3 {
            let procs = (0..t.n())
                .map(|i| {
                    let log = DagLog::new(StorageBackend::in_memory()).with_snapshot_every(16);
                    AsymDagRider::new(pid(i), t.quorums.clone(), 42, config).with_storage(log)
                })
                .collect();
            let mut sim = Simulation::new(procs, scheduler::Random::new(seed))
                .with_fault(pid(2), FaultMode::RestartAfter { crash_at: 300, recover_at: 1500 })
                .with_fault(pid(5), FaultMode::RestartAfter { crash_at: 900, recover_at: 2500 });
            for i in 0..t.n() {
                sim.input(pid(i), Block::new(vec![i as u64]));
            }
            let sim = assert_advance_fixpoint(sim);
            for r in [2, 5] {
                assert!(sim.process(pid(r)).has_recovered(), "seed {seed}: p{r} never restarted");
            }
            let pruned = (0..t.n()).filter(|&i| sim.process(pid(i)).dag().pruned_floor() > 0);
            assert!(pruned.count() > 0, "seed {seed}: nothing was pruned");
        }
    }

    #[test]
    fn figure1_topology_runs() {
        // The 30-process counterexample system is a valid quorum system; the
        // full consensus protocol must run on it (this is the paper's own
        // setting: all processes correct).
        let t = topology::TopologySpec::Figure1.build().expect("closed-form family");
        run_and_check(&t, &[], 1, 6);
    }
}
