//! The DAG event vocabulary and its binary codec.
//!
//! A process's durable state is an append-only sequence of [`DagEvent`]s:
//! every vertex inserted into the local DAG, every wave whose CONFIRM
//! quorum was observed (`tReady`), every wave decided, and every block
//! atomically delivered. Replaying the sequence rebuilds the DAG, the
//! delivered set and the commit log exactly — which is what makes a crashed
//! process able to rejoin without ever delivering a block twice. Decided
//! waves end up as one [`DagEvent::WaveSealed`] record each, in the WAL's
//! append-only sealed area.
//!
//! The codec is a hand-rolled little-endian binary format (no serde — the
//! workspace builds offline). Blocks are opaque to this crate; the carrying
//! protocol supplies a [`BlockCodec`] for its block type.

use asym_dag::{Round, Vertex, VertexId, WaveId};
use asym_quorum::{ProcessId, ProcessSet};

/// En/decoding of the block payload a vertex carries.
///
/// Implemented by the consensus crate for its `Block` type; this crate
/// ships an implementation for `Vec<u8>` (raw bytes) used by its own tests
/// and benches.
pub trait BlockCodec: Sized {
    /// Appends the canonical byte encoding of `self` to `out`.
    fn encode_block(&self, out: &mut Vec<u8>);

    /// Decodes a block from exactly `bytes` (`None` on malformed input).
    fn decode_block(bytes: &[u8]) -> Option<Self>;
}

impl BlockCodec for Vec<u8> {
    fn encode_block(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode_block(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

/// One durable state transition of a DAG consensus process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagEvent<B> {
    /// A vertex entered the local DAG (its full content, so the DAG can be
    /// rebuilt without the network).
    VertexInserted(Vertex<B>),
    /// CONFIRMs from one of this process's quorums were observed for
    /// `wave` — the `tReady` milestone of the Algorithm-5 control ladder.
    WaveConfirmed {
        /// The confirmed wave.
        wave: WaveId,
    },
    /// The wave was decided with `leader` (one commit-log entry).
    WaveDecided {
        /// The decided wave.
        wave: WaveId,
        /// Its coin-elected leader vertex.
        leader: VertexId,
    },
    /// The block carried by `id` was atomically delivered.
    BlockDelivered {
        /// The delivered vertex.
        id: VertexId,
        /// The wave whose commit ordered it.
        wave: WaveId,
    },
    /// Garbage-collection marker: *delivered* vertices in rounds
    /// `<= up_to_round` may have been dropped from this snapshot. Replay
    /// sets the DAG's pruned floor so surviving vertices whose parents fell
    /// below the floor still insert; the delivered set and commit log are
    /// never pruned, so re-delivery stays impossible. Emitted first in a
    /// pruned snapshot; never written to the log tail by a live process.
    Pruned {
        /// Rounds at or below this may be missing delivered vertices.
        up_to_round: Round,
    },
    /// The block content of a delivered vertex whose full vertex is *not*
    /// in this process's DAG — the transferable residue of pruning (the
    /// edges are dropped, the output is kept) and of a delivered-state
    /// install (the vertex was never received at all). Retaining these is
    /// what lets a pruned process serve deep catch-up as certified outputs
    /// instead of DAG vertices, and replaying them rebuilds the
    /// transferable store.
    DeliveredBlock {
        /// The delivered vertex this block belonged to.
        id: VertexId,
        /// Its block payload.
        block: B,
    },
    /// One decided wave, sealed: written once to the append-only sealed
    /// area, before the snapshot that omits the wave's commit-log entry,
    /// deliveries and residue. The shape of a delivered-state-transfer
    /// segment.
    WaveSealed {
        /// The decided wave.
        wave: WaveId,
        /// The wave of the commit-log entry sealed just before this one
        /// (`0` for the first) — sealed records chain like the commit log.
        prev_wave: WaveId,
        /// Its coin-elected leader vertex.
        leader: VertexId,
        /// The wave's deliveries in delivery order, each with its block when
        /// the DAG no longer held the vertex at sealing time (the residue).
        deliveries: Vec<(VertexId, Option<B>)>,
    },
}

const TAG_VERTEX: u8 = 1;
const TAG_CONFIRMED: u8 = 2;
const TAG_DECIDED: u8 = 3;
const TAG_DELIVERED: u8 = 4;
const TAG_PRUNED: u8 = 5;
const TAG_DELIVERED_BLOCK: u8 = 6;
const TAG_SEALED: u8 = 7;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vid(out: &mut Vec<u8>, id: VertexId) {
    put_u64(out, id.round);
    put_u64(out, id.source.index() as u64);
}

fn put_set(out: &mut Vec<u8>, set: &ProcessSet) {
    put_u64(out, set.len() as u64);
    for p in set {
        put_u64(out, p.index() as u64);
    }
}

/// Writes `block` length-prefixed, encoding it in place.
fn put_block<B: BlockCodec>(out: &mut Vec<u8>, block: &B) {
    let at = out.len();
    put_u64(out, 0);
    block.encode_block(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

/// A bounded little-endian reader over a payload slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let v = u64::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn vid(&mut self) -> Option<VertexId> {
        let round = self.u64()?;
        let source = usize::try_from(self.u64()?).ok()?;
        Some(VertexId::new(round, ProcessId::new(source)))
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// A length-prefixed block.
    fn block<B: BlockCodec>(&mut self) -> Option<B> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > self.remaining() {
            return None;
        }
        B::decode_block(self.take(len)?)
    }
}

impl<B: BlockCodec> DagEvent<B> {
    /// Encodes this event as one WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends this event's WAL payload to `out` — the allocation-free form
    /// of [`DagEvent::encode`] the append path uses.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DagEvent::VertexInserted(v) => {
                out.push(TAG_VERTEX);
                put_u64(out, v.source().index() as u64);
                put_u64(out, v.round());
                put_set(out, v.strong_edges());
                put_u64(out, v.weak_edges().len() as u64);
                for w in v.weak_edges() {
                    put_vid(out, *w);
                }
                put_block(out, v.block());
            }
            DagEvent::WaveConfirmed { wave } => {
                out.push(TAG_CONFIRMED);
                put_u64(out, *wave);
            }
            DagEvent::WaveDecided { wave, leader } => {
                out.push(TAG_DECIDED);
                put_u64(out, *wave);
                put_vid(out, *leader);
            }
            DagEvent::BlockDelivered { id, wave } => {
                out.push(TAG_DELIVERED);
                put_vid(out, *id);
                put_u64(out, *wave);
            }
            DagEvent::Pruned { up_to_round } => {
                out.push(TAG_PRUNED);
                put_u64(out, *up_to_round);
            }
            DagEvent::DeliveredBlock { id, block } => {
                out.push(TAG_DELIVERED_BLOCK);
                put_vid(out, *id);
                put_block(out, block);
            }
            DagEvent::WaveSealed { wave, prev_wave, leader, deliveries } => {
                out.push(TAG_SEALED);
                put_u64(out, *wave);
                put_u64(out, *prev_wave);
                put_vid(out, *leader);
                put_u64(out, deliveries.len() as u64);
                for (id, block) in deliveries {
                    put_vid(out, *id);
                    match block {
                        Some(block) => {
                            out.push(1);
                            put_block(out, block);
                        }
                        None => out.push(0),
                    }
                }
            }
        }
    }

    /// Decodes one event from exactly `payload` — `None` on any structural
    /// problem (unknown tag, short field, trailing bytes, or a vertex
    /// violating the vertex invariants).
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let event = match r.u8()? {
            TAG_VERTEX => {
                let source = usize::try_from(r.u64()?).ok()?;
                let round: Round = r.u64()?;
                let strong_len = usize::try_from(r.u64()?).ok()?;
                // Each member costs ≥8 bytes; reject absurd counts early.
                if strong_len > r.remaining() / 8 {
                    return None;
                }
                let mut strong = ProcessSet::new();
                for _ in 0..strong_len {
                    strong.insert(ProcessId::new(usize::try_from(r.u64()?).ok()?));
                }
                if strong.len() != strong_len {
                    return None; // duplicate member: not canonical
                }
                let weak_len = usize::try_from(r.u64()?).ok()?;
                if weak_len > r.remaining() / 16 {
                    return None;
                }
                let mut weak = Vec::with_capacity(weak_len);
                for _ in 0..weak_len {
                    weak.push(r.vid()?);
                }
                let block = r.block()?;
                // Re-check the Vertex constructor invariants so hostile
                // bytes cannot reach its panics.
                if round == 0 && (!strong.is_empty() || !weak.is_empty()) {
                    return None;
                }
                if weak.iter().any(|w| w.round + 1 >= round) {
                    return None;
                }
                DagEvent::VertexInserted(Vertex::new(
                    ProcessId::new(source),
                    round,
                    block,
                    strong,
                    weak,
                ))
            }
            TAG_CONFIRMED => DagEvent::WaveConfirmed { wave: r.u64()? },
            TAG_DECIDED => DagEvent::WaveDecided { wave: r.u64()?, leader: r.vid()? },
            TAG_DELIVERED => DagEvent::BlockDelivered { id: r.vid()?, wave: r.u64()? },
            TAG_PRUNED => DagEvent::Pruned { up_to_round: r.u64()? },
            TAG_DELIVERED_BLOCK => DagEvent::DeliveredBlock { id: r.vid()?, block: r.block()? },
            TAG_SEALED => {
                let (wave, prev_wave, leader) = (r.u64()?, r.u64()?, r.vid()?);
                let len = usize::try_from(r.u64()?).ok()?;
                // Each delivery costs ≥17 bytes; reject absurd counts early.
                if len > r.remaining() / 17 {
                    return None;
                }
                let mut deliveries = Vec::with_capacity(len);
                for _ in 0..len {
                    let id = r.vid()?;
                    let block = match r.u8()? {
                        0 => None,
                        1 => Some(r.block()?),
                        _ => return None,
                    };
                    deliveries.push((id, block));
                }
                DagEvent::WaveSealed { wave, prev_wave, leader, deliveries }
            }
            _ => return None,
        };
        (r.remaining() == 0).then_some(event)
    }
}

/// Classifies one encoded WAL payload for the powerloss fault model: `true`
/// when losing this record in a crash is *observationally safe* for process
/// `me` — the event carries state that was never externalized, so a correct
/// process recovers a consistent (merely older) view without it.
///
/// The classification encodes the fsync barriers a production process must
/// honor:
///
/// * another process's vertex ([`DagEvent::VertexInserted`]) — volatile:
///   the recovery fetch re-obtains it from peers;
/// * a `tReady` milestone ([`DagEvent::WaveConfirmed`]) — volatile: the
///   control ladder re-runs idempotently;
/// * **own** vertices — a barrier: a process must fsync its own vertex
///   before broadcasting it, or a restart would mint a *different* vertex
///   for an already-used round (honest equivocation);
/// * decisions and deliveries ([`DagEvent::WaveDecided`],
///   [`DagEvent::BlockDelivered`], [`DagEvent::DeliveredBlock`]) —
///   barriers: they are persisted *before* the delivery is handed to the
///   environment, and a delivery the application saw must survive the
///   crash or it would be re-delivered;
/// * sealed waves ([`DagEvent::WaveSealed`]) — barriers: they are durable
///   before the snapshot that omits them is written;
/// * malformed payloads and [`DagEvent::Pruned`] markers — barriers
///   (conservative: never widen the damage window on bytes we do not
///   understand).
#[must_use]
pub fn payload_is_volatile(payload: &[u8], me: ProcessId) -> bool {
    match payload.first() {
        Some(&TAG_CONFIRMED) => true,
        Some(&TAG_VERTEX) => {
            let mut r = Reader::new(&payload[1..]);
            r.u64().and_then(|s| usize::try_from(s).ok()).is_some_and(|s| s != me.index())
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample_vertex() -> Vertex<Vec<u8>> {
        Vertex::new(
            pid(2),
            5,
            vec![1, 2, 3],
            ProcessSet::from_indices([0, 1, 3]),
            vec![VertexId::new(2, pid(3)), VertexId::new(1, pid(0))],
        )
    }

    #[test]
    fn all_event_kinds_round_trip() {
        let events: Vec<DagEvent<Vec<u8>>> = vec![
            DagEvent::VertexInserted(sample_vertex()),
            DagEvent::VertexInserted(Vertex::genesis(pid(0), vec![])),
            DagEvent::WaveConfirmed { wave: 3 },
            DagEvent::WaveDecided { wave: 2, leader: VertexId::new(5, pid(1)) },
            DagEvent::BlockDelivered { id: VertexId::new(4, pid(2)), wave: 2 },
            DagEvent::Pruned { up_to_round: 8 },
            DagEvent::DeliveredBlock { id: VertexId::new(3, pid(1)), block: vec![9, 8, 7] },
            DagEvent::DeliveredBlock { id: VertexId::new(2, pid(0)), block: vec![] },
            DagEvent::WaveSealed {
                wave: 3,
                prev_wave: 1,
                leader: VertexId::new(9, pid(2)),
                deliveries: vec![
                    (VertexId::new(6, pid(0)), Some(vec![4, 5])),
                    (VertexId::new(7, pid(1)), None),
                    (VertexId::new(9, pid(2)), Some(vec![])),
                ],
            },
            DagEvent::WaveSealed {
                wave: 1,
                prev_wave: 0,
                leader: VertexId::new(1, pid(0)),
                deliveries: vec![],
            },
        ];
        for ev in events {
            let bytes = ev.encode();
            assert_eq!(DagEvent::<Vec<u8>>::decode(&bytes), Some(ev));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = DagEvent::<Vec<u8>>::WaveConfirmed { wave: 1 }.encode();
        bytes.push(0);
        assert_eq!(DagEvent::<Vec<u8>>::decode(&bytes), None);
    }

    #[test]
    fn truncated_payload_rejected() {
        let sealed = DagEvent::WaveSealed {
            wave: 2,
            prev_wave: 1,
            leader: VertexId::new(5, pid(1)),
            deliveries: vec![
                (VertexId::new(4, pid(0)), Some(vec![1, 2])),
                (VertexId::new(5, pid(1)), None),
            ],
        };
        for event in [DagEvent::VertexInserted(sample_vertex()), sealed] {
            let bytes = event.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    DagEvent::<Vec<u8>>::decode(&bytes[..cut]),
                    None,
                    "decode accepted a {cut}-byte prefix"
                );
            }
        }
    }

    #[test]
    fn encode_into_appends_exactly_the_encoding() {
        let mut out = vec![0xAB];
        let event = DagEvent::VertexInserted(sample_vertex());
        event.encode_into(&mut out);
        assert_eq!(out[0], 0xAB);
        assert_eq!(&out[1..], &event.encode()[..]);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(DagEvent::<Vec<u8>>::decode(&[99, 0, 0]), None);
        assert_eq!(DagEvent::<Vec<u8>>::decode(&[]), None);
    }

    #[test]
    fn invariant_violating_vertex_rejected_not_panicking() {
        // A round-1 vertex with a weak edge to round 0 violates the weak-edge
        // invariant; hand-craft its encoding.
        let mut bytes = vec![1u8]; // TAG_VERTEX
        for v in [0u64, 1, 0, 1, 0, 0, 0] {
            // source=0, round=1, strong_len=0, weak_len=1, weak=(r0,p0), block_len=0
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(DagEvent::<Vec<u8>>::decode(&bytes), None);
    }

    #[test]
    fn volatility_classification_follows_the_fsync_barriers() {
        let me = pid(2);
        // Another process's vertex: volatile (refetched on recovery).
        let other = DagEvent::VertexInserted(sample_vertex_from(pid(3))).encode();
        assert!(payload_is_volatile(&other, me));
        // My own vertex: a barrier (fsync-before-broadcast).
        let own = DagEvent::VertexInserted(sample_vertex_from(me)).encode();
        assert!(!payload_is_volatile(&own, me));
        // tReady: volatile; decisions/deliveries/prune markers: barriers.
        assert!(payload_is_volatile(&DagEvent::<Vec<u8>>::WaveConfirmed { wave: 2 }.encode(), me));
        let decided =
            DagEvent::<Vec<u8>>::WaveDecided { wave: 2, leader: VertexId::new(5, pid(0)) };
        assert!(!payload_is_volatile(&decided.encode(), me));
        let delivered =
            DagEvent::<Vec<u8>>::BlockDelivered { id: VertexId::new(4, pid(0)), wave: 1 };
        assert!(!payload_is_volatile(&delivered.encode(), me));
        assert!(!payload_is_volatile(&DagEvent::<Vec<u8>>::Pruned { up_to_round: 4 }.encode(), me));
        let residue =
            DagEvent::<Vec<u8>>::DeliveredBlock { id: VertexId::new(2, pid(1)), block: vec![1] };
        assert!(!payload_is_volatile(&residue.encode(), me), "transferable residue is a barrier");
        let sealed = DagEvent::<Vec<u8>>::WaveSealed {
            wave: 1,
            prev_wave: 0,
            leader: VertexId::new(1, pid(0)),
            deliveries: vec![(VertexId::new(1, pid(0)), Some(vec![1]))],
        };
        assert!(!payload_is_volatile(&sealed.encode(), me), "a sealed wave is a barrier");
        // Garbage: a barrier, never widening the damage window.
        assert!(!payload_is_volatile(&[], me));
        assert!(!payload_is_volatile(&[99, 1, 2], me));
        assert!(!payload_is_volatile(&[TAG_VERTEX, 3], me), "truncated source field");
    }

    fn sample_vertex_from(source: ProcessId) -> Vertex<Vec<u8>> {
        Vertex::new(source, 5, vec![7], ProcessSet::from_indices([0, 1, 3]), vec![])
    }

    #[test]
    fn absurd_length_fields_rejected() {
        let mut bytes = vec![1u8];
        for v in [0u64, 3, u64::MAX] {
            // source, round, strong_len = u64::MAX
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(DagEvent::<Vec<u8>>::decode(&bytes), None);
    }
}
