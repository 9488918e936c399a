//! Delivered-state transfer: deep catch-up from pruned peers.
//!
//! WAL pruning (PR 4) garbage-collects every delivered vertex below the
//! decided wave, so a `Fetch`/`FetchReply` catch-up can no longer serve a
//! peer that lags below the pruning floor — in a deployment where *every*
//! process prunes, a deep laggard would be stuck forever. This module ships
//! the delivered prefix **as certified outputs instead of DAG vertices**:
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
//! **Asymmetric-trust acceptance.** Transferred state crosses the network
//! outside reliable broadcast, so it passes the rule fetched vertices pass,
//! implemented once for both: a segment is installed only once identical
//! copies arrived from a *kernel* (a set meeting all quorums) of the
//! **receiver's own** quorum system, one vote per responder per wave. Such
//! a kernel holds a process the receiver trusts, so a lone equivocator
//! cannot forge state, and the corroboration doubles as the wave's
//! confirmation evidence (Algorithm 5 line 131). Agreement makes honest
//! copies bit-identical: per-wave delivery sets and their `(round, source)`
//! order are common to every honest process that decided the wave.
//!
//! # Example: offer → corroborate → install round-trip
//!
//! ```
//! use asym_core::{Block, TransferState, WaveCommitter, WaveSegment};
//! use asym_dag::VertexId;
//! use asym_quorum::{topology, ProcessId};
//!
//! let t = topology::uniform_threshold(4, 1);
//! let me = ProcessId::new(0);
//! let leader = VertexId::new(1, ProcessId::new(2));
//! let segment = WaveSegment {
//!     wave: 1,
//!     prev_wave: 0, // chains onto an empty commit log
//!     leader,
//!     deliveries: vec![(leader, Block::new(vec![7]))],
//! };
//!
//! // Two donors answer a StateRequest with bit-identical segments.
//! let mut xfer = TransferState::new();
//! xfer.vote(ProcessId::new(1), segment.clone());
//! assert!(xfer.take_ready(0, &t.quorums, me).is_none(), "one voucher is never a kernel");
//! xfer.vote(ProcessId::new(2), segment.clone());
//! let ready = xfer.take_ready(0, &t.quorums, me).expect("kernel corroboration reached");
//!
//! // Install: the commit log extends, and only fresh deliveries come back.
//! let mut committer = WaveCommitter::new();
//! let fresh = committer.install_wave(ready.wave, ready.leader, &ready.deliveries);
//! assert_eq!(fresh.len(), 1);
//! assert!(committer.is_delivered(leader));
//! assert_eq!(committer.decided_wave(), 1);
//! // Re-installing is impossible (the wave is decided) and re-delivery too.
//! assert!(committer.install_wave(2, VertexId::new(5, me), &ready.deliveries).is_empty());
//! ```

use std::collections::HashMap;

use asym_dag::{VertexId, WaveId};
use asym_quorum::{AsymQuorumSystem, ProcessId};

use crate::kernel_votes::KernelVotes;
use crate::types::Block;

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

/// Receiver-side state of a delivered-state transfer: per-wave segment
/// votes awaiting kernel corroboration (at most
/// [`TransferState::MAX_PENDING_WAVES`] waves), the peers asked for state,
/// and activity counters.
#[derive(Clone, Debug, Default)]
pub struct TransferState {
    votes: KernelVotes<WaveId, WaveSegment, { TransferState::MAX_PENDING_WAVES }>,
    /// Peers sent a `StateRequest`, with the decided-wave watermark the
    /// request named. A peer is asked again only after the watermark has
    /// advanced past its previous request — so requests stay bounded while
    /// a prefix longer than [`TransferState::MAX_PENDING_WAVES`] can still
    /// be pulled over in installments.
    requested: HashMap<ProcessId, WaveId>,
    stats: TransferStats,
}

impl TransferState {
    /// Most pending (not yet corroborated) waves retained at once. Installs
    /// proceed watermark-upward, so only the lowest pending waves can ever
    /// be next — keeping the lowest `MAX_PENDING_WAVES` bounds the memory a
    /// forged chunk full of far-future waves can pin, and a genuine prefix
    /// longer than the window arrives in installments (the watermark
    /// advances, peers are re-requested).
    pub const MAX_PENDING_WAVES: usize = 64;

    /// Creates empty transfer state.
    pub fn new() -> Self {
        TransferState::default()
    }

    /// Activity counters.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Records an offer and decides whether to answer it with a
    /// `StateRequest`: only when the offered state extends past
    /// `my_decided`, and at most once per offerer *per watermark* — the
    /// same peer is asked again only after installs advanced the watermark
    /// past its previous request.
    pub fn note_offer(&mut self, from: ProcessId, offered: WaveId, my_decided: WaveId) -> bool {
        self.stats.offers_received += 1;
        if offered <= my_decided {
            return false;
        }
        if self.requested.get(&from).is_some_and(|asked_at| *asked_at >= my_decided) {
            return false;
        }
        self.requested.insert(from, my_decided);
        self.stats.requests_sent += 1;
        true
    }

    /// `true` if a `StateRequest` was ever sent to `from` — chunks from
    /// anyone else are unsolicited and dropped before they can pin state.
    pub fn has_requested(&self, from: ProcessId) -> bool {
        self.requested.contains_key(&from)
    }

    /// Records one responder's copy of a segment (first copy per wave per
    /// responder wins). A full pending-wave window admits only waves below
    /// the highest pending one, which it evicts: the next installable wave
    /// is always the lowest, so the window never starves genuine progress.
    pub fn vote(&mut self, from: ProcessId, segment: WaveSegment) {
        self.votes.vote(segment.wave, from, segment);
    }

    /// Counts a segment rejected before voting (stale, wrong leader,
    /// malformed).
    pub fn note_rejected(&mut self) {
        self.stats.segments_rejected += 1;
    }

    /// Counts a segment received (before validation).
    pub fn note_received(&mut self) {
        self.stats.segments_received += 1;
    }

    /// Counts one installed wave with its fresh-delivery count.
    pub fn note_installed(&mut self, fresh: usize) {
        self.stats.waves_installed += 1;
        self.stats.deliveries_installed += fresh as u64;
    }

    /// The next installable segment after the receiver's `decided`
    /// watermark: the lowest pending wave holding a copy that (a) chains
    /// directly onto the watermark (`prev_wave == decided`) and (b) has
    /// been vouched for by one of `me`'s kernels. Removes and returns it —
    /// the caller installs it and calls again with the new watermark.
    pub fn take_ready(
        &mut self,
        decided: WaveId,
        quorums: &AsymQuorumSystem,
        me: ProcessId,
    ) -> Option<WaveSegment> {
        self.votes.take_ready(decided + 1.., quorums, me, |seg| seg.prev_wave == decided)
    }

    /// Drops pending segments for waves at or below `decided` — they can
    /// never be installed (the watermark already passed them).
    pub fn discard_through(&mut self, decided: WaveId) {
        self.votes.discard_through(decided);
    }

    /// Number of waves with pending, not-yet-corroborated segments.
    pub fn pending_waves(&self) -> usize {
        self.votes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::topology;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn segment(wave: WaveId, tx: u64) -> WaveSegment {
        let leader = VertexId::new(4 * (wave - 1) + 1, pid(2));
        WaveSegment {
            wave,
            prev_wave: wave - 1,
            leader,
            deliveries: vec![(leader, Block::new(vec![tx]))],
        }
    }

    #[test]
    fn one_request_per_offerer_per_watermark() {
        let mut xfer = TransferState::new();
        assert!(!xfer.note_offer(pid(1), 3, 5), "offer at or below my watermark is useless");
        assert!(xfer.note_offer(pid(1), 8, 5));
        assert!(!xfer.note_offer(pid(1), 9, 5), "already asked p1 at this watermark");
        assert!(xfer.note_offer(pid(2), 8, 5));
        assert!(xfer.has_requested(pid(1)) && xfer.has_requested(pid(2)));
        assert!(!xfer.has_requested(pid(3)));
        // Once installs advance the watermark, the same peer may be asked
        // again — long prefixes arrive in installments.
        assert!(xfer.note_offer(pid(1), 9, 7), "watermark advanced past the previous request");
        assert_eq!(xfer.stats().offers_received, 5);
        assert_eq!(xfer.stats().requests_sent, 3);
    }

    #[test]
    fn discard_through_drops_stale_waves() {
        let mut xfer = TransferState::new();
        xfer.vote(pid(1), segment(1, 1));
        xfer.vote(pid(1), segment(2, 2));
        xfer.vote(pid(1), segment(3, 3));
        xfer.discard_through(2);
        assert_eq!(xfer.pending_waves(), 1);
        let t = topology::uniform_threshold(4, 1);
        xfer.vote(pid(2), segment(3, 3));
        // Kernel-vouched, but wave 3 chains onto wave 2, not onto wave 1.
        assert!(xfer.take_ready(1, &t.quorums, pid(0)).is_none());
        assert!(xfer.take_ready(2, &t.quorums, pid(0)).is_some());
    }
}
