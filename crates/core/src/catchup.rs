//! Catch-up: how a process restarted from its write-ahead log gets back
//! what it missed while it was down.
//!
//! * [`restart_from_log`] rebuilds the process from its durable state;
//! * **fetch** asks every peer for the DAG above the pruning floor
//!   ([`answer_fetch`] is the donor side) and refetches while the
//!   insertion buffer stays blocked on missing parents;
//! * **delivered-state transfer** serves a laggard below every peer's
//!   pruning floor with certified outputs instead ([`state_chunk`] is the
//!   donor side; see [`crate::transfer`]).
//!
//! Fetched vertices and transferred segments both bypass reliable
//! broadcast, so both pass one rule, [`KernelVotes`]. [`CatchUp`] keeps the
//! votes and the request bookkeeping and returns what was accepted; the
//! rider alone mutates its DAG, committer, control ladder and log.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use asym_crypto::CommonCoin;
use asym_dag::{round_of_wave, DagStore, Round, Vertex, VertexId, WaveId};
use asym_quorum::{AsymQuorumSystem, ProcessId};

use crate::asym_rider::AsymRiderMsg;
use crate::dagcore::{DagCore, DagLog};
use crate::kernel_votes::KernelVotes;
use crate::ordering::WaveCommitter;
use crate::transfer::{TransferState, TransferStats, WaveSegment};
use crate::types::{Block, RiderConfig};

/// A process's durable state, read back after a crash: its DAG engine,
/// commitment state, tReady waves and block residue.
pub(crate) struct Restart {
    pub(crate) core: DagCore,
    pub(crate) committer: WaveCommitter,
    pub(crate) confirmed: BTreeSet<WaveId>,
    pub(crate) residue: HashMap<VertexId, Block>,
}

/// Rebuilds a crashed process from its write-ahead log.
///
/// # Panics
///
/// Panics if the log is corrupt or unreadable: a process that cannot
/// trust its durable state must not rejoin (fail-stop).
pub(crate) fn restart_from_log(
    mut log: DagLog,
    quorums: &AsymQuorumSystem,
    me: ProcessId,
    config: RiderConfig,
) -> Restart {
    // The crash happened *now* as far as storage is concerned: a
    // fault-injecting backend applies its modelled powerloss damage (torn
    // append, lost unsynced suffix, reverted snapshot rename) before we
    // read a single byte back.
    log.powerloss().expect("storage failed while applying crash damage");
    // Repair before the first post-recovery append: a record written after
    // a surviving torn tail would fuse with it into one checksum-mismatching
    // frame, leaving the log unreadable at the *next* restart.
    log.repair_torn_tail().expect("WAL torn-tail repair failed");
    let recovered = log.replay(quorums.n(), me, Block::default()).expect("WAL replay failed");
    let waves = &recovered.delivered_waves;
    let delivered = recovered.delivered.iter().map(|id| (*id, waves.get(id).copied().unwrap_or(0)));
    let committer =
        WaveCommitter::from_parts(recovered.decided_wave, delivered, recovered.commit_log.clone());
    Restart {
        core: DagCore::from_recovered(me, quorums.clone(), config, &recovered, log),
        committer,
        residue: recovered.delivered_blocks.into_iter().collect(),
        confirmed: recovered.confirmed_waves,
    }
}

/// The donor's answers to a peer's `Fetch`: its stored vertices above
/// `above_round` (parents first) plus the waves it has CONFIRMed and, when
/// the request reaches below its pruning floor, a `StateOffer` of the
/// delivered prefix those rounds were garbage-collected into.
pub(crate) fn answer_fetch(
    above_round: Round,
    dag: &DagStore<Block>,
    confirmed: impl Iterator<Item = WaveId>,
    decided_wave: WaveId,
) -> Vec<AsymRiderMsg> {
    let vertices = ((above_round + 1)..=dag.max_round().unwrap_or(0))
        .flat_map(|r| dag.vertices_in_round(r).cloned())
        .collect();
    let mut confirmed: Vec<WaveId> = confirmed.collect();
    confirmed.sort_unstable();
    let mut answers = vec![AsymRiderMsg::FetchReply { vertices, confirmed }];
    let floor = dag.pruned_floor();
    if above_round < floor && decided_wave > 0 {
        answers.push(AsymRiderMsg::StateOffer { decided_wave, floor });
    }
    answers
}

/// Builds the per-wave certified segments of a donor's delivered prefix
/// above `above_wave`, each wave's deliveries in the deterministic delivery
/// order (see [`WaveCommitter::delivered_in_wave`]), blocks from the DAG or
/// from the `residue` of garbage-collected vertices. A wave with an
/// unservable block (impossible for a correct process, defensive) **ends**
/// the chunk: the receiver installs along the `prev_wave` chain, so
/// segments past a hole could never install from this donor anyway.
pub(crate) fn state_chunk(
    committer: &WaveCommitter,
    dag: &DagStore<Block>,
    residue: &HashMap<VertexId, Block>,
    above_wave: WaveId,
) -> Option<AsymRiderMsg> {
    // One pass over the delivered map groups ids by ordering wave —
    // StateRequests are repeatable and unauthenticated, so the donor must
    // not rescan the whole delivered set once per log entry.
    let mut by_wave: BTreeMap<WaveId, Vec<VertexId>> = BTreeMap::new();
    for (id, wave) in committer.delivered_waves() {
        if wave > above_wave {
            by_wave.entry(wave).or_default().push(id);
        }
    }
    let mut segments = Vec::new();
    // Commit logs legitimately skip waves, so each segment names the log
    // entry it chains onto (`prev_wave`).
    let mut prev = 0;
    for &(wave, leader) in committer.log() {
        if wave > above_wave {
            let mut ids = by_wave.remove(&wave).unwrap_or_default();
            ids.sort_unstable();
            let deliveries: Option<Vec<(VertexId, Block)>> = ids
                .into_iter()
                .map(|id| {
                    let block = dag.get(id).map(|v| v.block()).or_else(|| residue.get(&id))?;
                    Some((id, block.clone()))
                })
                .collect();
            let Some(deliveries) = deliveries.filter(|d| !d.is_empty()) else { break };
            segments.push(WaveSegment { wave, prev_wave: prev, leader, deliveries });
        }
        prev = wave;
    }
    (!segments.is_empty()).then_some(AsymRiderMsg::StateChunk { segments })
}

/// Shape-and-coin validation of one received segment, before it may
/// accumulate votes: the wave must still be installable, the leader must
/// be the coin-elected leader vertex of that wave (a forged commit-log
/// entry dies here without costing a vote slot), and the delivery list
/// must be non-empty, strictly `(round, source)`-sorted, genesis-free and
/// bounded by the leader round — the shape every honest segment has.
fn segment_valid(seg: &WaveSegment, decided: WaveId, coin: &CommonCoin) -> bool {
    seg.wave > decided
        && seg.leader == VertexId::new(round_of_wave(seg.wave, 1), coin.leader(seg.wave))
        && seg.prev_wave < seg.wave
        && !seg.deliveries.is_empty()
        && seg.deliveries.windows(2).all(|w| w[0].0 < w[1].0)
        && seg.deliveries.iter().all(|(id, _)| id.round >= 1 && id.round <= seg.leader.round)
}

/// The receiver side of catch-up: kernel votes on fetched vertices and
/// transferred segments, plus the refetch and state-request bookkeeping.
#[derive(Clone, Debug, Default)]
pub(crate) struct CatchUp {
    /// Set once restarted from the log: only then are refetches sent and
    /// transferred state accepted.
    recovering: bool,
    /// Fetched vertices awaiting identical copies from a kernel of mine
    /// (unbounded: one vote per responder per vertex id).
    fetched: KernelVotes<VertexId, Vertex<Block>>,
    /// The missing-parent set of the last refetch, to bound refetch traffic.
    last_missing: BTreeSet<VertexId>,
    /// `true` if fetch replies added votes since the last refetch check —
    /// the signal that one more refetch round may complete a kernel.
    fetch_progress: bool,
    transfer: TransferState,
}

impl CatchUp {
    /// Fresh catch-up state of a process just rebuilt from its log.
    pub(crate) fn restarted() -> Self {
        CatchUp { recovering: true, ..CatchUp::default() }
    }

    /// `true` once the process has restarted from its log.
    pub(crate) fn recovering(&self) -> bool {
        self.recovering
    }

    /// Delivered-state-transfer activity counters.
    pub(crate) fn transfer_stats(&self) -> TransferStats {
        self.transfer.stats()
    }

    /// Folds one peer's `FetchReply` vertices in and returns those now
    /// accepted (vouched for by one of my kernels), for `core` to buffer.
    /// Round-0, own, known (stored, buffered, or delivered and pruned) and
    /// quorum-less (line 140) vertices are discarded unseen; undelivered
    /// old vertices below the pruning floor are not, as a later leader can
    /// still order them.
    pub(crate) fn on_fetch_reply(
        &mut self,
        from: ProcessId,
        vertices: Vec<Vertex<Block>>,
        core: &DagCore,
        quorums: &AsymQuorumSystem,
    ) -> Vec<Vertex<Block>> {
        let me = core.me();
        let mut accepted: Vec<Vertex<Block>> = Vec::new();
        for v in vertices {
            let id = v.id();
            if v.round() == 0
                || v.source() == me
                || core.knows(id)
                || accepted.iter().any(|a| a.id() == id)
                || quorums.contains_quorum_for_any(v.strong_edges()).is_none()
                || !self.fetched.vote(id, from, v)
            {
                continue;
            }
            self.fetch_progress = true;
            accepted.extend(self.fetched.take_ready(id..=id, quorums, me, |_| true));
        }
        accepted
    }

    /// The round to refetch above while recovering, if the insertion buffer
    /// is blocked on `missing` parents: when the missing set *changed*, or
    /// when the last replies still added votes (a fetch can race peers
    /// that have arb-delivered but not yet inserted a vertex). Votes are
    /// bounded, so refetch traffic stays finite and the run still quiesces.
    pub(crate) fn refetch_floor(
        &mut self,
        missing: impl FnOnce() -> BTreeSet<VertexId>,
    ) -> Option<Round> {
        if !self.recovering {
            return None;
        }
        let missing = missing();
        let progress = std::mem::take(&mut self.fetch_progress);
        if missing.is_empty() || (missing == self.last_missing && !progress) {
            return None;
        }
        let floor = missing.first().expect("non-empty").round.saturating_sub(1);
        self.last_missing = missing;
        Some(floor)
    }

    /// `true` if `from`'s offer of state through wave `offer` is worth a
    /// `StateRequest` above `decided` (see [`TransferState::note_offer`]);
    /// only a recovering process installs transferred state.
    pub(crate) fn wants_state(&mut self, from: ProcessId, offer: WaveId, decided: WaveId) -> bool {
        self.recovering && self.transfer.note_offer(from, offer, decided)
    }

    /// Folds one donor's chunk in and returns the segments now installable
    /// above the `decided` watermark, in chain order, each vouched for by
    /// one of `me`'s kernels. Chunks from peers never asked are dropped
    /// before they can pin any state.
    pub(crate) fn on_state_chunk(
        &mut self,
        from: ProcessId,
        segments: Vec<WaveSegment>,
        mut decided: WaveId,
        coin: &CommonCoin,
        quorums: &AsymQuorumSystem,
        me: ProcessId,
    ) -> Vec<WaveSegment> {
        if !self.recovering || !self.transfer.has_requested(from) {
            return Vec::new();
        }
        for seg in segments {
            self.transfer.note_received();
            if segment_valid(&seg, decided, coin) {
                self.transfer.vote(from, seg);
            } else {
                self.transfer.note_rejected();
            }
        }
        let mut ready = Vec::new();
        while let Some(seg) = self.transfer.take_ready(decided, quorums, me) {
            decided = seg.wave;
            ready.push(seg);
        }
        if !ready.is_empty() {
            self.transfer.discard_through(decided);
        }
        ready
    }

    /// Counts one installed wave with its fresh-delivery count.
    pub(crate) fn note_installed(&mut self, fresh: usize) {
        self.transfer.note_installed(fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsymDagRider, RiderConfig};
    use asym_quorum::{topology, ProcessSet};
    use asym_sim::{Context, Protocol};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn forged_first_fetch_reply_cannot_veto_the_genuine_vertex() {
        let t = topology::uniform_threshold(4, 1);
        let mut rider = AsymDagRider::new(pid(0), t.quorums.clone(), 42, RiderConfig::default());
        let (mut sends, mut outputs) = (Vec::new(), Vec::new());
        let mut ctx = Context::new(pid(0), 4, 0, &mut sends, &mut outputs);
        rider.on_start(&mut ctx); // enters round 1, where round-1 vertices insert
        let vertex = |tx| Vertex::new(pid(1), 1, Block::new(vec![tx]), ProcessSet::full(4), vec![]);
        let id = VertexId::new(1, pid(1));
        let reply = |tx| AsymRiderMsg::FetchReply { vertices: vec![vertex(tx)], confirmed: vec![] };
        // The liar answers first; it may not vote again for the genuine copy.
        rider.on_message(pid(3), reply(666), &mut ctx);
        rider.on_message(pid(3), reply(7), &mut ctx);
        rider.on_message(pid(1), reply(7), &mut ctx);
        assert!(!rider.dag().contains(id), "one honest voucher is not a kernel of p0");
        rider.on_message(pid(2), reply(7), &mut ctx);
        let stored = rider.dag().get(id).expect("a kernel vouched for the genuine copy");
        assert_eq!(*stored.block().txs, [7]);
    }
}
