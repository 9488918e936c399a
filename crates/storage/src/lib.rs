//! Persistent DAG log + crash recovery for the asym-dag-rider reproduction.
//!
//! The paper (like DAG-Rider before it) models a crashed process as gone
//! forever, but deployed asymmetric-trust systems (Stellar, Ripple) survive
//! operator restarts by persisting what they have delivered: safety must
//! hold for a correct process *across its whole execution*, which a
//! recovering process can only honor by remembering its delivered set. This
//! crate provides that durability layer:
//!
//! * [`Storage`] — the backend trait, with [`MemStorage`] (deterministic,
//!   for the simulator), [`FileStorage`] (`std::fs`, no extra deps) and the
//!   type-erasing [`StorageBackend`] enum;
//! * [`Wal`] — length-prefixed + FNV-1a-checksummed record framing over
//!   three areas: the log, the snapshot and the append-only sealed area;
//!   torn tails are dropped, corrupt records are hard errors;
//! * [`DagEvent`] — the durable event vocabulary (vertex inserted, wave
//!   confirmed, wave decided, block delivered) with a hand-rolled binary
//!   codec ([`BlockCodec`] abstracts the block payload);
//! * [`EventLog`] — the typed WAL a running process appends to, with
//!   cadence-driven compaction that costs O(window): decided waves are
//!   sealed once into the sealed area ([`DagEvent::WaveSealed`]) and the
//!   snapshot holds only what is above them;
//! * [`RecoveredState`] — replay: fold sealed area + snapshot + log back
//!   into a [`DagStore`](asym_dag::DagStore), the delivered set, the
//!   commit log and the confirmed-wave set, so a restarted process rejoins
//!   without ever delivering a block twice;
//! * **WAL pruning** — [`RecoveredState::prune_delivered`] /
//!   [`prune_dag`] garbage-collect the delivered-prefix *vertices* (the
//!   [`DagEvent::Pruned`] marker makes pruned snapshots self-describing),
//!   the way production DAG BFTs bound their stores; the delivered-set
//!   ids themselves are retained — they are what blocks re-delivery — in
//!   the sealed records, so a snapshot holds the stored vertices plus the
//!   little bookkeeping above the sealed watermark;
//! * [`FaultyStorage`] — deterministic powerloss injection (torn final
//!   append, dropped unsynced suffix, lost/reordered snapshot rename; the
//!   sealed area is an fsync barrier and survives) behind the
//!   [`Storage::powerloss`] hook, so crash-recovery is tested against what
//!   real disks do, not only clean shutdowns.
//!
//! The consensus crate (`asym-core`) implements [`BlockCodec`] for its
//! block type and drives the log from its insert/deliver/decide hooks; the
//! scenario harness (`asym-scenarios`) turns all of this into a restart
//! fault axis with recovery-specific invariant checkers. The end-to-end
//! persistence & recovery lifecycle — including the emit/replay/checker
//! table for every [`DagEvent`] variant and the delivered-state-transfer
//! path that serves deep laggards once everyone prunes — is documented in
//! `docs/ARCHITECTURE.md` at the repository root (CI keeps that table in
//! sync with the enum).
//!
//! # Example: log, crash, replay
//!
//! ```
//! use asym_quorum::{ProcessId, ProcessSet};
//! use asym_storage::{DagEvent, EventLog, MemStorage};
//! use asym_dag::Vertex;
//!
//! let mut log: EventLog<Vec<u8>, MemStorage> = EventLog::new(MemStorage::new());
//! log.append(&DagEvent::VertexInserted(Vertex::new(
//!     ProcessId::new(0),
//!     1,
//!     b"block".to_vec(),
//!     ProcessSet::from_indices([0, 1, 2]),
//!     vec![],
//! )))?;
//!
//! // The process dies; its in-memory state is gone. Replay the log:
//! let state = log.replay(3, ProcessId::new(0), Vec::new())?;
//! assert_eq!(state.own_round, 1);
//! assert_eq!(state.dag.len(), 3 + 1, "genesis + the logged vertex");
//! # Ok::<(), asym_storage::StorageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod event;
mod fault;
mod replay;
mod wal;

pub use backend::{FileStorage, MemStorage, Storage, StorageBackend, StorageError};
pub use event::{payload_is_volatile, BlockCodec, DagEvent};
pub use fault::{FaultyStorage, PowerlossPlan, VolatilePolicy};
pub use replay::{prune_dag, EventLog, ReadEvents, RecoveredState};
pub use wal::{
    checksum, decode_area, frame_record, DecodedArea, Wal, WalContents, WalStats,
    DEFAULT_SNAPSHOT_EVERY, RECORD_HEADER_BYTES,
};
