//! Catch-up: how a process restarted from its write-ahead log gets back
//! what it missed while it was down.
//!
//! * [`restart_from_log`] rebuilds the process from its durable state;
//! * **fetch** asks every peer for the DAG above the pruning floor
//!   ([`answer_fetch`] is the donor side) and refetches while the
//!   insertion buffer stays blocked on missing parents;
//! * **delivered-state transfer** serves a laggard below every peer's
//!   pruning floor with certified outputs instead ([`state_chunk`] is the
//!   donor side).
//!
//! Fetched vertices and transferred segments both bypass reliable
//! broadcast, so both pass one rule, [`KernelVotes`]. [`CatchUp`] keeps the
//! votes and the request bookkeeping and returns what was accepted; the
//! rider alone mutates its DAG, committer and control ladder, and its
//! [`DagCore`] alone writes the log.
//!
//! # Delivered-state transfer
//!
//! WAL pruning garbage-collects every delivered vertex below the decided
//! wave, so a `Fetch`/`FetchReply` catch-up can no longer serve a peer that
//! lags below the pruning floor — in a deployment where *every* process
//! prunes, a deep laggard would be stuck forever. Transfer ships the
//! delivered prefix **as certified outputs instead of DAG vertices**:
//!
//! 1. a peer answering a [`Fetch`](crate::AsymRiderMsg::Fetch) below its
//!    own pruning floor adds a
//!    [`StateOffer`](crate::AsymRiderMsg::StateOffer) ("I can ship
//!    certified delivered state through wave `decided_wave`");
//! 2. the recovering laggard answers each useful offer with a
//!    [`StateRequest`](crate::AsymRiderMsg::StateRequest) naming its own
//!    decided-wave watermark;
//! 3. the donor replies with a [`StateChunk`](crate::AsymRiderMsg::StateChunk)
//!    of per-wave [`WaveSegment`]s: the wave, its coin-elected leader, and
//!    the wave's deliveries in the deterministic delivery order, blocks
//!    included.
//!
//! **Asymmetric-trust acceptance.** A segment is installed only once
//! identical copies arrived from a *kernel* (a set meeting all quorums) of
//! the **receiver's own** quorum system, one vote per responder per wave.
//! Such a kernel holds a process the receiver trusts, so a lone equivocator
//! cannot forge state, and the corroboration doubles as the wave's
//! confirmation evidence (Algorithm 5 line 131). Agreement makes honest
//! copies bit-identical: per-wave delivery sets and their `(round, source)`
//! order are common to every honest process that decided the wave.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

use asym_crypto::CommonCoin;
use asym_dag::{round_of_wave, DagStore, Round, Vertex, VertexId, VertexMap, WaveId};
use asym_quorum::{AsymQuorumSystem, ProcessId};

use crate::asym_rider::AsymRiderMsg;
use crate::dagcore::{DagCore, DagLog};
use crate::kernel_votes::KernelVotes;
use crate::ordering::WaveCommitter;
use crate::types::{Block, RiderConfig};

/// One transferable wave of certified delivered state: the commit-log entry
/// plus the wave's deliveries in the deterministic delivery order.
///
/// Honest processes that decided `wave` agree on this segment bit for bit
/// (same coin-elected leader, same per-wave delivery set, same
/// `(round, source)` order, same blocks) — which is exactly what makes
/// kernel-matched corroboration meaningful.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveSegment {
    /// The decided wave this segment carries.
    pub wave: WaveId,
    /// The wave of the donor's commit-log entry immediately *before* this
    /// one (`0` for the first entry). Commit logs legitimately skip waves —
    /// a wave whose commit rule never fired has no entry, and its history
    /// delivers under a later wave's tag — so installs chain on the log,
    /// not on wave arithmetic: a segment is installable exactly when its
    /// `prev_wave` equals the receiver's decided watermark. Honest logs are
    /// prefix-consistent, so honest donors agree on the chain; a forged
    /// chain dies at kernel matching like any other forged field.
    pub prev_wave: WaveId,
    /// Its coin-elected leader (the commit-log entry).
    pub leader: VertexId,
    /// The wave's deliveries — `(vertex, block)` in delivery order.
    pub deliveries: Vec<(VertexId, Block)>,
}

/// Counters of one process's delivered-state-transfer activity, for the
/// scenario harness and the recovery experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// `StateOffer`s received while recovering.
    pub offers_received: u64,
    /// `StateRequest`s sent (one per useful offerer).
    pub requests_sent: u64,
    /// Wave segments received inside `StateChunk`s.
    pub segments_received: u64,
    /// Segments dropped before voting (stale wave, wrong coin leader,
    /// malformed delivery list).
    pub segments_rejected: u64,
    /// Waves installed after kernel corroboration.
    pub waves_installed: u64,
    /// Deliveries output by installs (fresh entries only).
    pub deliveries_installed: u64,
}

/// A process's durable state, read back after a crash: its DAG engine,
/// commitment state, tReady waves and block residue.
pub(crate) struct Restart {
    pub(crate) core: DagCore,
    pub(crate) committer: WaveCommitter,
    pub(crate) confirmed: BTreeSet<WaveId>,
    pub(crate) residue: VertexMap<Block>,
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
    // The log adopts what the replayed state has not sealed, so its next
    // compaction seals exactly that.
    let recovered = log.recover(quorums.n(), me, Block::default()).expect("WAL replay failed");
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
    let vertices =
        dag.vertices_in_rounds((Bound::Excluded(above_round), Bound::Unbounded)).cloned().collect();
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
    residue: &VertexMap<Block>,
    above_wave: WaveId,
) -> Option<AsymRiderMsg> {
    // One pass over the delivered map groups ids by ordering wave —
    // StateRequests are repeatable and unauthenticated, so the donor must
    // not rescan the whole delivered set once per log entry. The pass runs
    // in `(round, source)` order, so each wave's ids come out sorted.
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
            let ids = by_wave.remove(&wave).unwrap_or_default();
            let deliveries: Option<Vec<(VertexId, Block)>> = ids
                .into_iter()
                .map(|id| {
                    let block = dag.get(id).map(|v| v.block()).or_else(|| residue.get(id))?;
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
/// transferred segments, the refetch and state-request bookkeeping, and
/// the transfer counters.
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
    /// Transferred segments awaiting identical copies from a kernel of
    /// mine, for the lowest [`CatchUp::MAX_PENDING_WAVES`] waves.
    segments: KernelVotes<WaveId, WaveSegment, { CatchUp::MAX_PENDING_WAVES }>,
    /// Peers sent a `StateRequest`, with the decided-wave watermark the
    /// request named. A peer is asked again only after the watermark has
    /// advanced past its previous request — so requests stay bounded while
    /// a prefix longer than the pending-wave window can still be pulled
    /// over in installments.
    requested: HashMap<ProcessId, WaveId>,
    stats: TransferStats,
}

impl CatchUp {
    /// Most pending (not yet corroborated) waves retained at once. Installs
    /// proceed watermark-upward, so only the lowest pending waves can ever
    /// be next — keeping the lowest `MAX_PENDING_WAVES` bounds the memory a
    /// forged chunk full of far-future waves can pin, and a genuine prefix
    /// longer than the window arrives in installments (the watermark
    /// advances, peers are re-requested).
    const MAX_PENDING_WAVES: usize = 64;

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
        self.stats
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
    ) -> Vec<Vertex<Block>> {
        let me = core.me();
        let mut accepted: Vec<Vertex<Block>> = Vec::new();
        for v in vertices {
            let id = v.id();
            if v.round() == 0
                || v.source() == me
                || core.knows(id)
                || accepted.iter().any(|a| a.id() == id)
                || !core.is_valid(&v)
                || !self.fetched.vote(id, from, v)
            {
                continue;
            }
            self.fetch_progress = true;
            accepted.extend(self.fetched.take_ready(id..=id, core.quorums(), me, |_| true));
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
    /// `StateRequest` above `decided`: only a recovering process installs
    /// transferred state, only an offer past `decided` extends it, and each
    /// offerer is asked at most once *per watermark* — again only after
    /// installs advanced the watermark past its previous request.
    pub(crate) fn wants_state(&mut self, from: ProcessId, offer: WaveId, decided: WaveId) -> bool {
        if !self.recovering {
            return false;
        }
        self.stats.offers_received += 1;
        if offer <= decided || self.requested.get(&from).is_some_and(|asked| *asked >= decided) {
            return false;
        }
        self.requested.insert(from, decided);
        self.stats.requests_sent += 1;
        true
    }

    /// Folds one donor's chunk in and returns the segments now installable
    /// above the `decided` watermark, in chain order: each chains directly
    /// onto the watermark before it (`prev_wave`) and is vouched for by one
    /// of `me`'s kernels. Chunks from peers never asked are dropped before
    /// they can pin any state, and pending waves the watermark passed are
    /// dropped after the installs.
    pub(crate) fn on_state_chunk(
        &mut self,
        from: ProcessId,
        segments: Vec<WaveSegment>,
        mut decided: WaveId,
        coin: &CommonCoin,
        quorums: &AsymQuorumSystem,
        me: ProcessId,
    ) -> Vec<WaveSegment> {
        if !self.recovering || !self.requested.contains_key(&from) {
            return Vec::new();
        }
        for seg in segments {
            self.stats.segments_received += 1;
            if segment_valid(&seg, decided, coin) {
                self.segments.vote(seg.wave, from, seg);
            } else {
                self.stats.segments_rejected += 1;
            }
        }
        let mut ready = Vec::new();
        while let Some(seg) =
            self.segments.take_ready(decided + 1.., quorums, me, |seg| seg.prev_wave == decided)
        {
            decided = seg.wave;
            ready.push(seg);
        }
        if !ready.is_empty() {
            self.segments.discard_through(decided);
        }
        ready
    }

    /// Counts one installed wave with its fresh-delivery count.
    pub(crate) fn note_installed(&mut self, fresh: usize) {
        self.stats.waves_installed += 1;
        self.stats.deliveries_installed += fresh as u64;
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

    /// Wave `wave`'s segment under `coin`, chaining onto wave `wave − 1`.
    fn segment(coin: &CommonCoin, wave: WaveId, tx: u64) -> WaveSegment {
        let leader = VertexId::new(round_of_wave(wave, 1), coin.leader(wave));
        WaveSegment {
            wave,
            prev_wave: wave - 1,
            leader,
            deliveries: vec![(leader, Block::new(vec![tx]))],
        }
    }

    #[test]
    fn one_request_per_offerer_per_watermark() {
        assert!(!CatchUp::default().wants_state(pid(1), 8, 5), "only a recovering process asks");
        let mut catchup = CatchUp::restarted();
        assert!(!catchup.wants_state(pid(1), 3, 5), "offer at or below my watermark is useless");
        assert!(catchup.wants_state(pid(1), 8, 5));
        assert!(!catchup.wants_state(pid(1), 9, 5), "already asked p1 at this watermark");
        assert!(catchup.wants_state(pid(2), 8, 5));
        assert!(catchup.requested.contains_key(&pid(1)) && catchup.requested.contains_key(&pid(2)));
        assert!(!catchup.requested.contains_key(&pid(3)));
        // Once installs advance the watermark, the same peer may be asked
        // again — long prefixes arrive in installments.
        assert!(catchup.wants_state(pid(1), 9, 7), "watermark advanced past the previous request");
        assert_eq!(catchup.transfer_stats().offers_received, 5);
        assert_eq!(catchup.transfer_stats().requests_sent, 3);
    }

    #[test]
    fn discard_through_drops_stale_waves() {
        let t = topology::uniform_threshold(4, 1);
        let coin = CommonCoin::new(42, 4);
        let mut catchup = CatchUp::restarted();
        let chunk = |catchup: &mut CatchUp, from, segments, decided| {
            catchup.on_state_chunk(pid(from), segments, decided, &coin, &t.quorums, pid(0))
        };
        assert!(chunk(&mut catchup, 1, vec![segment(&coin, 1, 1)], 0).is_empty(), "unsolicited");
        for from in [1, 2] {
            assert!(catchup.wants_state(pid(from), 3, 0));
        }
        let first = (1..=3).map(|w| segment(&coin, w, w)).collect();
        assert!(chunk(&mut catchup, 1, first, 0).is_empty(), "one voucher is never a kernel");
        assert_eq!(catchup.segments.len(), 3);
        // Kernel-vouched, but wave 3 chains onto wave 2, not onto wave 1.
        assert!(chunk(&mut catchup, 2, vec![segment(&coin, 3, 3)], 1).is_empty());
        let ready = chunk(&mut catchup, 2, vec![], 2);
        assert_eq!(ready, [segment(&coin, 3, 3)]);
        assert_eq!(catchup.segments.len(), 0, "waves 1 and 2 lie below the new watermark");
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
