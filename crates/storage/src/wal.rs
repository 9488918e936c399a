//! Record framing: the length-prefixed, checksummed write-ahead log.
//!
//! Every record is stored as
//!
//! ```text
//! ┌───────────┬─────────────────┬───────────────┐
//! │ len: u32  │ checksum: u64   │ payload bytes │
//! │ (LE)      │ FNV-1a-64 (LE)  │ (len bytes)   │
//! └───────────┴─────────────────┴───────────────┘
//! ```
//!
//! and the read path distinguishes the two corruption modes a crash can
//! leave behind:
//!
//! * a **torn tail** — the final record's bytes end early (the process died
//!   mid-`write`). The torn bytes are dropped and everything before them
//!   replays; this is the expected shape of a crash.
//! * a **checksum mismatch** on a *complete* record — bit rot or a foreign
//!   writer. This is a hard [`StorageError::Corrupt`] error, never a silent
//!   skip: replaying *around* a corrupt record would silently fork the
//!   recovered state from what the process had acknowledged.
//!
//! A [`Wal`] pairs the framing with a [`Storage`] backend and two more
//! areas: [`Wal::install_snapshot`] rewrites the snapshot blob (itself a
//! sequence of framed records) and truncates the log, bounding recovery
//! work, and [`Wal::append_sealed`] appends framed records to the sealed
//! area, which is never rewritten. The snapshot area tolerates no torn
//! tail — it is written atomically, so any damage there is real
//! corruption. The sealed area is append-only like the log, so a crash
//! mid-append may tear its final record; [`Wal::repair_torn_tail`] drops
//! it.

use crate::backend::{Storage, StorageError};

/// Bytes of framing overhead per record (`u32` length + `u64` checksum).
pub const RECORD_HEADER_BYTES: usize = 4 + 8;

/// FNV-1a 64-bit checksum — small, fast, dependency-free, and plenty to
/// detect torn writes and bit rot (this is not a cryptographic integrity
/// boundary).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames one payload into `out`, returning the payload's checksum.
pub fn frame_record(payload: &[u8], out: &mut Vec<u8>) -> u64 {
    frame_with(out, |out| out.extend_from_slice(payload))
}

/// Frames the payload `encode` appends to `out` in place, returning its
/// checksum — every record is encoded once, straight into its frame.
fn frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
    let start = out.len();
    out.resize(start + RECORD_HEADER_BYTES, 0);
    encode(out);
    fill_header(&mut out[start..])
}

/// Frames every record of `records` into one blob, returning it and the
/// records' checksums.
fn frame_all<T>(records: &[T], encode: impl Fn(&T, &mut Vec<u8>)) -> (Vec<u8>, Vec<u64>) {
    let mut blob = Vec::new();
    let sums = records.iter().map(|r| frame_with(&mut blob, |out| encode(r, out))).collect();
    (blob, sums)
}

/// Writes the header of `frame` — a [`RECORD_HEADER_BYTES`] placeholder
/// followed by the payload — and returns the payload's checksum.
fn fill_header(frame: &mut [u8]) -> u64 {
    let (header, payload) = frame.split_at_mut(RECORD_HEADER_BYTES);
    let sum = checksum(payload);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&sum.to_le_bytes());
    sum
}

/// Result of decoding one framed area.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedArea {
    /// The payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn (incomplete) final record that were dropped.
    pub torn_tail_bytes: usize,
}

/// Decodes a framed byte area.
///
/// `allow_torn_tail` is `true` for the log area (crashes tear tails) and
/// `false` for the snapshot area (written atomically; a short read there is
/// corruption).
///
/// # Errors
///
/// [`StorageError::Corrupt`] on a checksum mismatch of a complete record,
/// or on a torn tail when `allow_torn_tail` is `false`.
pub fn decode_area(bytes: &[u8], allow_torn_tail: bool) -> Result<DecodedArea, StorageError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_HEADER_BYTES {
            return torn(offset, remaining, allow_torn_tail, records);
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let expected = u64::from_le_bytes(
            bytes[offset + 4..offset + RECORD_HEADER_BYTES].try_into().expect("8 bytes"),
        );
        if remaining - RECORD_HEADER_BYTES < len {
            return torn(offset, remaining, allow_torn_tail, records);
        }
        let start = offset + RECORD_HEADER_BYTES;
        let payload = &bytes[start..start + len];
        if checksum(payload) != expected {
            return Err(StorageError::Corrupt {
                offset,
                detail: format!(
                    "checksum mismatch on a complete {len}-byte record (stored {expected:#x}, \
                     computed {:#x})",
                    checksum(payload)
                ),
            });
        }
        records.push(payload.to_vec());
        offset = start + len;
    }
    Ok(DecodedArea { records, torn_tail_bytes: 0 })
}

fn torn(
    offset: usize,
    remaining: usize,
    allow: bool,
    records: Vec<Vec<u8>>,
) -> Result<DecodedArea, StorageError> {
    if allow {
        Ok(DecodedArea { records, torn_tail_bytes: remaining })
    } else {
        Err(StorageError::Corrupt {
            offset,
            detail: format!("area ends mid-record ({remaining} trailing bytes)"),
        })
    }
}

/// Counters a [`Wal`] keeps about its own activity (the `exp_recovery`
/// bench reads these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since this handle was created.
    pub records_appended: u64,
    /// Framed bytes appended since this handle was created.
    pub bytes_appended: u64,
    /// Snapshots installed since this handle was created.
    pub snapshots_written: u64,
    /// Size in bytes of the most recent snapshot blob.
    pub last_snapshot_bytes: u64,
    /// Records appended to the sealed area since this handle was created.
    pub sealed_records: u64,
    /// Framed bytes appended to the sealed area since this handle was
    /// created.
    pub sealed_bytes: u64,
    /// Running FNV-1a-64 fold, in write order, of every appended record's
    /// checksum and, per snapshot and per sealed batch, a marker followed by
    /// each of its records' checksums — unlike the counts above, it changes
    /// when the same records are written in another order or area.
    pub digest: u64,
}

/// Marker folded into [`WalStats::digest`] ahead of a snapshot's records,
/// so a snapshot never digests like the same records appended to the log.
const SNAPSHOT_MARKER: u64 = u64::MAX;

/// Marker folded into [`WalStats::digest`] ahead of a sealed batch.
const SEALED_MARKER: u64 = u64::MAX - 1;

impl WalStats {
    fn fold(&mut self, word: u64) {
        self.digest = word
            .to_le_bytes()
            .iter()
            .fold(self.digest, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3));
    }
}

/// Everything persisted: the sealed records, the snapshot records and the
/// log tail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalContents {
    /// Records from the sealed area, in append order.
    pub sealed: Vec<Vec<u8>>,
    /// Records restored from the snapshot area (empty if no snapshot).
    pub snapshot: Vec<Vec<u8>>,
    /// Records from the log tail, in append order.
    pub log: Vec<Vec<u8>>,
    /// Torn bytes dropped from the ends of the log and the sealed area.
    pub torn_tail_bytes: usize,
}

impl WalContents {
    /// Sealed, then snapshot, then log records — full replay order.
    pub fn all_records(&self) -> impl Iterator<Item = &[u8]> {
        self.sealed.iter().chain(&self.snapshot).chain(&self.log).map(Vec::as_slice)
    }

    /// Total number of persisted records.
    pub fn len(&self) -> usize {
        self.sealed.len() + self.snapshot.len() + self.log.len()
    }

    /// `true` when nothing is persisted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A framed write-ahead log with a snapshot area and a sealed area over any
/// [`Storage`].
///
/// # Examples
///
/// ```
/// use asym_storage::{MemStorage, Wal};
///
/// let mut wal = Wal::new(MemStorage::new());
/// wal.append(b"event-1")?;
/// wal.append(b"event-2")?;
/// let contents = wal.read()?;
/// assert_eq!(contents.log.len(), 2);
/// assert_eq!(contents.log[0], b"event-1");
/// # Ok::<(), asym_storage::StorageError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Wal<S> {
    backend: S,
    stats: WalStats,
    records_since_snapshot: usize,
    snapshot_every: usize,
    /// Size in bytes of every snapshot blob installed through this handle,
    /// in order — the observable behind "pruning bounds snapshot size"
    /// (without pruning this sequence grows monotonically; with pruning it
    /// is a sawtooth).
    snapshot_sizes: Vec<u64>,
    /// The frame buffer every append encodes into, reused across appends.
    scratch: Vec<u8>,
}

/// Default snapshot cadence: one snapshot per this many appended records.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 256;

impl<S: Storage> Wal<S> {
    /// Wraps a backend with the default snapshot cadence.
    pub fn new(backend: S) -> Self {
        Wal {
            backend,
            stats: WalStats::default(),
            records_since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            snapshot_sizes: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Overrides the snapshot cadence: [`Wal::should_snapshot`] suggests a
    /// compaction once `every` records accumulated since the last snapshot.
    ///
    /// **`every == 0` means "never"**: `should_snapshot` stays `false`
    /// forever and the log grows without bound (replay work is then linear
    /// in the whole history). Callers may still [`Wal::install_snapshot`]
    /// manually.
    #[must_use]
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// The configured snapshot cadence (`0` = never).
    pub fn snapshot_every(&self) -> usize {
        self.snapshot_every
    }

    /// The backend (test/bench observability).
    pub fn backend(&self) -> &S {
        &self.backend
    }

    /// Mutable backend access (test hooks: truncation, corruption).
    pub fn backend_mut(&mut self) -> &mut S {
        &mut self.backend
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Appends one payload as a framed record.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the write.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        self.append_with(|out| out.extend_from_slice(payload))
    }

    /// Appends one record whose payload `encode` writes into the frame
    /// buffer — the record is encoded and framed in place, in one buffer
    /// reused across appends.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the write.
    pub fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), StorageError> {
        let mut framed = std::mem::take(&mut self.scratch);
        framed.clear();
        let sum = frame_with(&mut framed, encode);
        let written = self.backend.append_log(&framed);
        let len = framed.len() as u64;
        self.scratch = framed;
        written?;
        self.stats.fold(sum);
        self.stats.records_appended += 1;
        self.stats.bytes_appended += len;
        // Saturating: with the cadence disabled (`0` = never snapshot) this
        // counter is never reset, and a pathological `usize::MAX` wrap
        // would otherwise turn "overdue for a snapshot" into "just took
        // one" (or panic in debug builds).
        self.records_since_snapshot = self.records_since_snapshot.saturating_add(1);
        Ok(())
    }

    /// `true` once enough records accumulated since the last snapshot that
    /// the owner should compact state into [`Wal::install_snapshot`]. A
    /// cadence of `0` means never: this always returns `false` then.
    pub fn should_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every
    }

    /// Replaces the snapshot area with `records` (a compacted encoding of
    /// the owner's full state) and truncates the log.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects either write. A crash
    /// between the two writes leaves the old log alongside the new
    /// snapshot; replay is idempotent, so recovery still converges.
    pub fn install_snapshot<R: AsRef<[u8]>>(&mut self, records: &[R]) -> Result<(), StorageError> {
        self.install_snapshot_with(records, |r, out| out.extend_from_slice(r.as_ref()))
    }

    /// [`Wal::install_snapshot`] with each record's payload written by
    /// `encode` straight into the snapshot blob.
    ///
    /// # Errors
    ///
    /// As [`Wal::install_snapshot`].
    pub fn install_snapshot_with<T>(
        &mut self,
        records: &[T],
        encode: impl Fn(&T, &mut Vec<u8>),
    ) -> Result<(), StorageError> {
        let (blob, sums) = frame_all(records, encode);
        self.backend.write_snapshot(&blob)?;
        self.backend.replace_log(&[])?;
        self.stats.fold(SNAPSHOT_MARKER);
        sums.into_iter().for_each(|sum| self.stats.fold(sum));
        self.stats.snapshots_written += 1;
        self.stats.last_snapshot_bytes = blob.len() as u64;
        self.snapshot_sizes.push(blob.len() as u64);
        self.records_since_snapshot = 0;
        Ok(())
    }

    /// Appends `records`, each payload written by `encode` straight into
    /// the batch, to the sealed area as one durable write. The
    /// caller writes them *before* the snapshot that omits them, so a crash
    /// in between leaves them duplicated, never lost. Sealed appends do not
    /// count towards the snapshot cadence.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the write.
    pub fn append_sealed<T>(
        &mut self,
        records: &[T],
        encode: impl Fn(&T, &mut Vec<u8>),
    ) -> Result<(), StorageError> {
        if records.is_empty() {
            return Ok(());
        }
        let (blob, sums) = frame_all(records, encode);
        self.backend.append_sealed(&blob)?;
        self.stats.fold(SEALED_MARKER);
        sums.into_iter().for_each(|sum| self.stats.fold(sum));
        self.stats.sealed_records += records.len() as u64;
        self.stats.sealed_bytes += blob.len() as u64;
        Ok(())
    }

    /// Size of every snapshot installed through this handle, in order.
    pub fn snapshot_sizes(&self) -> &[u64] {
        &self.snapshot_sizes
    }

    /// Truncates a torn final record off the log area and off the sealed
    /// area, returning how many bytes were dropped — the repair a
    /// recovering process **must** apply
    /// before it resumes appending. Reading tolerates a torn tail, but a
    /// fresh record appended *after* torn bytes fuses with them into one
    /// complete-looking frame whose checksum cannot match, turning a
    /// survivable crash into unreadable corruption on the next restart
    /// (found by the powerloss-file matrix cells).
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] if a complete record fails its checksum
    /// (the log is damaged beyond a torn tail — fail-stop, do not append);
    /// [`StorageError::Io`] if the backend cannot be read or rewritten.
    pub fn repair_torn_tail(&mut self) -> Result<usize, StorageError> {
        let bytes = self.backend.read_log()?;
        let torn = decode_area(&bytes, true)?.torn_tail_bytes;
        if torn > 0 {
            self.backend.replace_log(&bytes[..bytes.len() - torn])?;
        }
        let sealed = self.backend.read_sealed()?;
        let sealed_torn = decode_area(&sealed, true)?.torn_tail_bytes;
        if sealed_torn > 0 {
            self.backend.truncate_sealed(sealed.len() - sealed_torn)?;
        }
        Ok(torn + sealed_torn)
    }

    /// Reads and verifies everything persisted: the sealed records, the
    /// snapshot records, the log tail, and how many torn tail bytes were
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] if a complete record fails its checksum
    /// (any area) or the snapshot area is torn; [`StorageError::Io`] if
    /// the backend cannot be read.
    pub fn read(&self) -> Result<WalContents, StorageError> {
        let sealed_area = decode_area(&self.backend.read_sealed()?, true)?;
        let snapshot = match self.backend.read_snapshot()? {
            Some(bytes) => decode_area(&bytes, false)?.records,
            None => Vec::new(),
        };
        let log_area = decode_area(&self.backend.read_log()?, true)?;
        Ok(WalContents {
            sealed: sealed_area.records,
            snapshot,
            log: log_area.records,
            torn_tail_bytes: sealed_area.torn_tail_bytes + log_area.torn_tail_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStorage;

    /// Writes a raw payload as itself.
    fn raw<R: AsRef<[u8]>>(record: &R, out: &mut Vec<u8>) {
        out.extend_from_slice(record.as_ref());
    }

    #[test]
    fn empty_wal_reads_empty() {
        let wal = Wal::new(MemStorage::new());
        let c = wal.read().unwrap();
        assert!(c.is_empty());
        assert_eq!(c.torn_tail_bytes, 0);
    }

    #[test]
    fn append_read_round_trip() {
        let mut wal = Wal::new(MemStorage::new());
        for payload in [&b"a"[..], &b""[..], &[0xFFu8; 100][..]] {
            wal.append(payload).unwrap();
        }
        let c = wal.read().unwrap();
        assert_eq!(c.log.len(), 3);
        assert_eq!(c.log[0], b"a");
        assert_eq!(c.log[1], b"");
        assert_eq!(c.log[2], vec![0xFF; 100]);
        assert_eq!(wal.stats().records_appended, 3);
    }

    #[test]
    fn digest_follows_write_order_and_kind() {
        let digest = |appends: &[&[u8]], snapshot: Option<&[&[u8]]>| {
            let mut wal = Wal::new(MemStorage::new());
            appends.iter().for_each(|p| wal.append(p).unwrap());
            if let Some(records) = snapshot {
                wal.install_snapshot(records).unwrap();
            }
            wal.stats().digest
        };
        let ab = digest(&[b"a", b"b"], None);
        assert_eq!(ab, digest(&[b"a", b"b"], None));
        assert_ne!(ab, digest(&[b"b", b"a"], None), "same records, other order");
        assert_ne!(ab, digest(&[b"a"], Some(&[b"b"])), "a snapshot record is not an append");
        let mut sealed = Wal::new(MemStorage::new());
        sealed.append(b"a").unwrap();
        sealed.append_sealed(&[b"b"], raw).unwrap();
        assert_ne!(ab, sealed.stats().digest, "a sealed record is not an append");
        let mut snapped = Wal::new(MemStorage::new());
        snapped.append(b"a").unwrap();
        snapped.install_snapshot(&[b"b"]).unwrap();
        assert_ne!(snapped.stats().digest, sealed.stats().digest, "nor a snapshot record");
        sealed.append_sealed::<&[u8]>(&[], raw).unwrap();
        assert_eq!(sealed.stats().sealed_records, 1, "an empty batch writes nothing");
    }

    #[test]
    fn append_with_frames_exactly_like_append() {
        let mut a = Wal::new(MemStorage::new());
        let mut b = Wal::new(MemStorage::new());
        for payload in [&b"first"[..], &b""[..], &[7u8; 300][..], &b"last"[..]] {
            a.append(payload).unwrap();
            b.append_with(|out| out.extend_from_slice(payload)).unwrap();
        }
        let mut framed = Vec::new();
        frame_record(b"first", &mut framed);
        assert_eq!(&a.backend().log_bytes()[..framed.len()], &framed[..]);
        assert_eq!(a.backend().log_bytes(), b.backend().log_bytes());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn sealed_area_replays_first_survives_snapshots_and_repairs_a_torn_tail() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(b"log-1").unwrap();
        wal.append_sealed(&[b"sealed-1", b"sealed-2"], raw).unwrap();
        wal.install_snapshot(&[b"snap"]).unwrap();
        wal.append(b"log-2").unwrap();
        let c = wal.read().unwrap();
        let order: Vec<&[u8]> = c.all_records().collect();
        assert_eq!(order, vec![&b"sealed-1"[..], b"sealed-2", b"snap", b"log-2"]);
        assert_eq!(wal.stats().sealed_records, 2);
        assert_eq!(wal.stats().records_appended, 2, "sealed records are not log appends");
        // A torn final sealed record is dropped on read and repaired away.
        let full = wal.backend().sealed_bytes().len();
        wal.backend_mut().truncate_sealed(full - 3).unwrap();
        let c = wal.read().unwrap();
        assert_eq!(c.sealed, vec![b"sealed-1".to_vec()]);
        assert_eq!(c.torn_tail_bytes, RECORD_HEADER_BYTES + 8 - 3);
        assert_eq!(wal.repair_torn_tail().unwrap(), RECORD_HEADER_BYTES + 8 - 3);
        wal.append_sealed(&[b"sealed-3"], raw).unwrap();
        assert_eq!(wal.read().unwrap().sealed, vec![b"sealed-1".to_vec(), b"sealed-3".to_vec()]);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(b"keep-me").unwrap();
        wal.append(b"torn-me").unwrap();
        let full = wal.backend().log_bytes().len();
        // Tear the final record at every possible byte boundary.
        for cut in 1..(RECORD_HEADER_BYTES + 7) {
            let mut torn = wal.clone();
            torn.backend_mut().truncate_log(full - cut);
            let c = torn.read().unwrap();
            assert_eq!(c.log, vec![b"keep-me".to_vec()], "cut={cut}");
            assert_eq!(c.torn_tail_bytes, RECORD_HEADER_BYTES + 7 - cut, "cut={cut}");
        }
    }

    #[test]
    fn corrupt_complete_record_is_a_hard_error() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(b"good").unwrap();
        wal.append(b"bad!").unwrap();
        // Flip a payload byte of the *first* record: complete + wrong sum.
        wal.backend_mut().corrupt_log_byte(RECORD_HEADER_BYTES);
        match wal.read() {
            Err(StorageError::Corrupt { offset: 0, detail }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_truncates_log_and_replays_first() {
        let mut wal = Wal::new(MemStorage::new()).with_snapshot_every(2);
        wal.append(b"e1").unwrap();
        assert!(!wal.should_snapshot());
        wal.append(b"e2").unwrap();
        assert!(wal.should_snapshot());
        wal.install_snapshot(&[b"compact-state"]).unwrap();
        assert!(!wal.should_snapshot());
        wal.append(b"e3").unwrap();
        let c = wal.read().unwrap();
        assert_eq!(c.snapshot, vec![b"compact-state".to_vec()]);
        assert_eq!(c.log, vec![b"e3".to_vec()]);
        let replayed: Vec<&[u8]> = c.all_records().collect();
        assert_eq!(replayed, vec![&b"compact-state"[..], &b"e3"[..]]);
        assert_eq!(wal.stats().snapshots_written, 1);
        assert!(wal.stats().last_snapshot_bytes > 0);
    }

    #[test]
    fn appending_after_a_torn_tail_requires_repair() {
        // The bug the powerloss-file matrix cells found: a torn tail is
        // survivable to *read*, but appending after it fuses torn bytes
        // with the new record into one complete-looking frame whose
        // checksum mismatches — unreadable corruption at the next restart.
        let mut wal = Wal::new(MemStorage::new());
        wal.append(b"durable").unwrap();
        wal.append(b"torn-me-please").unwrap();
        let full = wal.backend().log_bytes().len();
        wal.backend_mut().truncate_log(full - 5);

        // Without repair: the post-recovery append corrupts the log.
        let mut unrepaired = wal.clone();
        unrepaired.append(b"post-recovery").unwrap();
        assert!(
            matches!(unrepaired.read(), Err(StorageError::Corrupt { .. })),
            "the fused frame must fail its checksum"
        );

        // With repair: the torn bytes are dropped first and appends resume
        // on a clean boundary.
        let dropped = wal.repair_torn_tail().unwrap();
        assert_eq!(dropped, RECORD_HEADER_BYTES + 14 - 5);
        assert_eq!(wal.repair_torn_tail().unwrap(), 0, "repair is idempotent");
        wal.append(b"post-recovery").unwrap();
        let contents = wal.read().unwrap();
        assert_eq!(contents.log, vec![b"durable".to_vec(), b"post-recovery".to_vec()]);
        assert_eq!(contents.torn_tail_bytes, 0);
    }

    #[test]
    fn snapshot_cadence_zero_means_never() {
        let mut wal = Wal::new(MemStorage::new()).with_snapshot_every(0);
        assert_eq!(wal.snapshot_every(), 0);
        for _ in 0..(4 * DEFAULT_SNAPSHOT_EVERY) {
            wal.append(b"e").unwrap();
            assert!(!wal.should_snapshot(), "cadence 0 must never suggest a snapshot");
        }
        // Manual compaction still works and resets nothing it shouldn't.
        wal.install_snapshot(&[b"state"]).unwrap();
        assert!(!wal.should_snapshot());
        assert_eq!(wal.stats().snapshots_written, 1);
    }

    #[test]
    fn records_since_snapshot_saturates_instead_of_wrapping() {
        let mut wal = Wal::new(MemStorage::new()).with_snapshot_every(8);
        wal.records_since_snapshot = usize::MAX;
        wal.append(b"overflow-me").unwrap();
        assert!(wal.should_snapshot(), "an overdue log must stay overdue at usize::MAX");
        wal.install_snapshot(&[b"s"]).unwrap();
        assert!(!wal.should_snapshot(), "the snapshot resets the counter");
    }

    #[test]
    fn torn_snapshot_area_is_corruption() {
        let mut wal = Wal::new(MemStorage::new());
        wal.install_snapshot(&[b"state"]).unwrap();
        // Manually shorten the snapshot blob: atomic writes cannot tear, so
        // a short snapshot must be reported as corruption.
        let snap = wal.backend().snapshot_bytes().unwrap().to_vec();
        wal.backend_mut().write_snapshot(&snap[..snap.len() - 2]).unwrap();
        assert!(matches!(wal.read(), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn checksum_is_stable_and_content_sensitive() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
    }
}
