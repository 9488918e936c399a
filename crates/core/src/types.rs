//! Shared vocabulary of the consensus protocols: blocks, ordered outputs,
//! configuration and per-process metrics.

use std::sync::Arc;

use asym_dag::{Round, VertexId, WaveId};

use crate::ordering::CommitOutcome;

/// An opaque transaction identifier (simulation-level payload).
pub type Tx = u64;

/// A block of transactions carried by one DAG vertex.
///
/// `aa-broadcast` enqueues blocks; each new vertex packs the oldest queued
/// block, or an empty filler block when none is queued.
///
/// The payload is immutable and shared: cloning a block increments a
/// reference count instead of copying the transactions. A vertex is itself
/// one shared allocation ([`Vertex`](asym_dag::Vertex)), so every copy of
/// one broadcast vertex — in flight, in broadcast tallies, in the DAG —
/// holds the same block, and an ordered output or a transfer segment
/// built from it clones only the reference. Equality, hashing, `Debug` and
/// [`Block::encode`] all go by content, exactly as for a `Vec<Tx>`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Block {
    /// The transactions in this block.
    pub txs: Arc<[Tx]>,
}

impl Block {
    /// Creates a block from transactions.
    pub fn new(txs: Vec<Tx>) -> Self {
        Block { txs: txs.into() }
    }

    /// `true` for filler blocks with no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

impl Block {
    /// Canonical byte encoding (little-endian transaction ids), as the
    /// write-ahead log stores it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        asym_storage::BlockCodec::encode_block(self, &mut out);
        out
    }
}

impl asym_storage::BlockCodec for Block {
    fn encode_block(&self, out: &mut Vec<u8>) {
        out.reserve(8 * self.txs.len());
        for tx in self.txs.iter() {
            out.extend_from_slice(&tx.to_le_bytes());
        }
    }

    fn decode_block(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        // One allocation, straight into the shared payload.
        let txs = bytes
            .chunks_exact(8)
            .map(|chunk| Tx::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        Some(Block { txs })
    }
}

/// One atomically delivered vertex: the unit of `aa-deliver`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderedVertex {
    /// Identity of the ordered vertex.
    pub id: VertexId,
    /// The block it carried.
    pub block: Block,
    /// The wave whose leader commit ordered this vertex.
    pub committed_in_wave: WaveId,
}

/// Configuration shared by both DAG-Rider variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RiderConfig {
    /// Number of waves after which the process stops creating vertices
    /// (bounds a simulation; the protocol itself is infinite).
    pub max_waves: WaveId,
    /// Garbage-collect the delivered prefix at every WAL snapshot: vertices
    /// of waves below the decided wave that were already delivered are
    /// dropped from the local DAG and from subsequent snapshots (bounding
    /// both), leaving a [`Pruned`](asym_storage::DagEvent::Pruned) marker
    /// so replay tolerates the missing ancestry. Off by default: pruning
    /// changes which old vertices are visible to `setWeakEdges`, so two
    /// runs differing only in snapshot cadence are no longer bit-identical.
    pub prune_wal: bool,
}

impl Default for RiderConfig {
    fn default() -> Self {
        RiderConfig { max_waves: 8, prune_wal: false }
    }
}

impl RiderConfig {
    /// The last round this configuration allows: one past the final wave
    /// boundary, so the final `waveReady` still fires.
    pub fn max_round(&self) -> Round {
        4 * self.max_waves + 1
    }
}

/// Per-process execution counters, used by the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RiderMetrics {
    /// Highest round this process has entered.
    pub round: Round,
    /// Wave boundaries at which a commit was attempted.
    pub waves_attempted: u64,
    /// Waves committed directly at their boundary.
    pub waves_committed: u64,
    /// Waves skipped because the leader vertex was absent locally.
    pub waves_skipped_no_leader: u64,
    /// Waves skipped because the commit rule was not met.
    pub waves_skipped_rule: u64,
    /// Vertices atomically delivered.
    pub vertices_ordered: u64,
    /// Transactions atomically delivered.
    pub txs_ordered: u64,
    /// Vertices created and broadcast by this process.
    pub vertices_created: u64,
}

impl RiderMetrics {
    /// Counts one wave-boundary commit attempt by its outcome.
    pub fn count_wave(&mut self, outcome: CommitOutcome) {
        self.waves_attempted += 1;
        match outcome {
            CommitOutcome::NoLeaderVertex => self.waves_skipped_no_leader += 1,
            CommitOutcome::RuleNotMet => self.waves_skipped_rule += 1,
            CommitOutcome::Committed { .. } => self.waves_committed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_basics() {
        assert!(Block::default().is_empty());
        let b = Block::new(vec![1, 2, 3]);
        assert!(!b.is_empty());
        assert_eq!(b.txs.len(), 3);
    }

    #[test]
    fn clones_share_the_payload() {
        let b = Block::new(vec![1, 2, 3]);
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.txs, &c.txs));
        // Separately allocated copies still compare by content.
        assert_eq!(b, Block::new(vec![1, 2, 3]));
        assert_ne!(b, Block::new(vec![1, 2]));
    }

    #[test]
    fn encoding_debug_and_hash_match_the_plain_vector() {
        use std::hash::{BuildHasher, RandomState};
        let txs = vec![1, 0x0102_0304_0506_0708, u64::MAX];
        let b = Block::new(txs.clone());
        let bytes: Vec<u8> = txs.iter().flat_map(|t| t.to_le_bytes()).collect();
        assert_eq!(b.encode(), bytes);
        assert_eq!(format!("{b:?}"), format!("Block {{ txs: {txs:?} }}"));
        let s = RandomState::new();
        assert_eq!(s.hash_one(&b), s.hash_one(&txs));
        assert_eq!(<Block as asym_storage::BlockCodec>::decode_block(&bytes), Some(b));
        assert_eq!(<Block as asym_storage::BlockCodec>::decode_block(&bytes[1..]), None);
    }

    #[test]
    fn config_max_round_covers_final_wave() {
        let c = RiderConfig { max_waves: 3, ..RiderConfig::default() };
        assert_eq!(c.max_round(), 13);
        assert!(asym_dag::is_wave_boundary(c.max_round() - 1));
    }
}
