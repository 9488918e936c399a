//! Real-filesystem ports of the torn-tail / corrupt-record coverage that
//! previously existed only for `MemStorage` byte-tearing: the same crash
//! shapes are inflicted on an actual `FileStorage` directory (truncating
//! `wal.log`, flipping bytes on disk, shortening `snapshot.bin`) and must
//! produce the same recovery semantics — torn tails dropped, corrupt
//! complete records hard errors, reopened stores byte-identical.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use asym_dag::{Vertex, VertexId};
use asym_quorum::{ProcessId, ProcessSet};
use asym_storage::{DagEvent, EventLog, FileStorage, StorageError, Wal, RECORD_HEADER_BYTES};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A unique scratch directory per test, wiped before use.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-file-backend-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_log_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// Truncates the on-disk log file to `len` bytes — the torn-write shape.
fn truncate_file(path: &PathBuf, len: u64) {
    let f = OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
    f.sync_all().unwrap();
}

/// Flips one byte of a file in place — bit rot / foreign writer.
fn corrupt_file_byte(path: &PathBuf, offset: u64) {
    let mut f = OpenOptions::new().read(true).write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
    f.sync_all().unwrap();
}

#[test]
fn file_torn_tail_is_dropped_at_every_cut_point() {
    let dir = temp_dir("torn-tail");
    let mut wal = Wal::new(FileStorage::open(&dir).unwrap());
    wal.append(b"keep-me").unwrap();
    let keep = wal.backend().read_log_len();
    wal.append(b"torn-me").unwrap();
    let total = wal.backend().read_log_len();

    for cut in 1..=(total - keep) {
        truncate_file(&wal_log_path(&dir), (total - cut) as u64);
        // A restarted process: a fresh handle over the damaged directory.
        let reopened = Wal::new(FileStorage::open(&dir).unwrap());
        let contents = reopened.read().unwrap();
        assert_eq!(contents.log, vec![b"keep-me".to_vec()], "cut={cut}");
        assert_eq!(contents.torn_tail_bytes, total - keep - cut, "cut={cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_corrupt_complete_record_is_a_hard_error() {
    let dir = temp_dir("corrupt-record");
    let mut wal = Wal::new(FileStorage::open(&dir).unwrap());
    wal.append(b"good").unwrap();
    wal.append(b"tail").unwrap();
    // Flip a payload byte of the *first* record: complete, wrong checksum.
    corrupt_file_byte(&wal_log_path(&dir), RECORD_HEADER_BYTES as u64);
    let reopened = Wal::new(FileStorage::open(&dir).unwrap());
    match reopened.read() {
        Err(StorageError::Corrupt { offset: 0, detail }) => {
            assert!(detail.contains("checksum"), "{detail}");
        }
        other => panic!("expected corruption error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_corrupt_checksum_field_is_a_hard_error() {
    let dir = temp_dir("corrupt-sum");
    let mut wal = Wal::new(FileStorage::open(&dir).unwrap());
    wal.append(b"payload").unwrap();
    wal.append(b"tail").unwrap();
    corrupt_file_byte(&wal_log_path(&dir), 4); // first checksum byte
    let reopened = Wal::new(FileStorage::open(&dir).unwrap());
    assert!(matches!(reopened.read(), Err(StorageError::Corrupt { offset: 0, .. })));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_shortened_snapshot_is_corruption_not_a_torn_tail() {
    let dir = temp_dir("short-snapshot");
    let mut wal = Wal::new(FileStorage::open(&dir).unwrap());
    wal.install_snapshot(&[b"state-record"]).unwrap();
    let snap = dir.join("snapshot.bin");
    let len = std::fs::metadata(&snap).unwrap().len();
    truncate_file(&snap, len - 2);
    let reopened = Wal::new(FileStorage::open(&dir).unwrap());
    assert!(
        matches!(reopened.read(), Err(StorageError::Corrupt { .. })),
        "snapshots are written atomically; a short one is real corruption"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_event_log_replays_identically_after_reopen_and_tear() {
    // End-to-end over typed events: populate, tear mid-final-record on
    // disk, reopen, replay — the surviving prefix must fold exactly like
    // the same prefix in memory.
    let dir = temp_dir("event-replay");
    let mut log: EventLog<Vec<u8>, FileStorage> =
        EventLog::new(FileStorage::open(&dir).unwrap()).with_snapshot_every(0);
    for r in 1..=3u64 {
        for i in 0..3 {
            log.append(&DagEvent::VertexInserted(Vertex::new(
                pid(i),
                r,
                vec![r as u8, i as u8],
                ProcessSet::full(3),
                vec![],
            )))
            .unwrap();
        }
    }
    log.append(&DagEvent::WaveConfirmed { wave: 1 }).unwrap();
    log.append(&DagEvent::BlockDelivered { id: VertexId::new(1, pid(0)), wave: 1 }).unwrap();
    let full_len = std::fs::metadata(wal_log_path(&dir)).unwrap().len();
    // Tear 3 bytes off the final record (the BlockDelivered).
    truncate_file(&wal_log_path(&dir), full_len - 3);

    let reopened: EventLog<Vec<u8>, FileStorage> = EventLog::new(FileStorage::open(&dir).unwrap());
    let state = reopened.replay(3, pid(0), Vec::new()).unwrap();
    assert_eq!(state.dag.len(), 3 + 9, "genesis + all 9 logged vertices survive");
    assert!(state.confirmed_waves.contains(&1));
    assert!(state.delivered.is_empty(), "the torn delivery never happened durably");
    assert!(state.torn_tail_bytes > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_sealed_area_round_trips_and_survives_reopen_and_tear() {
    // Decided waves sealed into `sealed.log` replay from a fresh handle,
    // ahead of the snapshot that omits them; a torn final sealed record is
    // dropped on read and truncated by the repair.
    let dir = temp_dir("sealed");
    let mut log: EventLog<Vec<u8>, FileStorage> =
        EventLog::new(FileStorage::open(&dir).unwrap()).with_snapshot_every(0);
    for r in 1..=8u64 {
        for i in 0..3 {
            log.append(&DagEvent::VertexInserted(Vertex::new(
                pid(i),
                r,
                vec![r as u8, i as u8],
                ProcessSet::full(3),
                vec![],
            )))
            .unwrap();
        }
        if r.is_multiple_of(4) {
            let wave = r / 4;
            let leader = VertexId::new(r - 3, pid(wave as usize));
            log.append(&DagEvent::WaveConfirmed { wave }).unwrap();
            log.append(&DagEvent::WaveDecided { wave, leader }).unwrap();
            log.append(&DagEvent::BlockDelivered { id: leader, wave }).unwrap();
            let mut state = log.replay(3, pid(0), Vec::new()).unwrap();
            state.prune_delivered(r - 3);
            let residue = state.delivered_blocks.clone();
            log.compact(&state.dag, |id| residue.get(&id).cloned()).unwrap();
        }
    }
    let live = log.replay(3, pid(0), Vec::new()).unwrap();
    assert_eq!(live.sealed_wave, 2);
    assert_eq!(log.stats().sealed_records, 4, "two sealed waves and their confirms");
    let sealed_path = dir.join("sealed.log");
    let sealed_len = std::fs::metadata(&sealed_path).unwrap().len();
    assert_eq!(sealed_len, log.stats().sealed_bytes);

    // A restarted process: a fresh handle over the same directory.
    let reopened: EventLog<Vec<u8>, FileStorage> = EventLog::new(FileStorage::open(&dir).unwrap());
    let state = reopened.replay(3, pid(0), Vec::new()).unwrap();
    assert_eq!(state.commit_log, live.commit_log);
    assert_eq!(state.delivered_waves, live.delivered_waves);
    assert_eq!(state.delivered_blocks, live.delivered_blocks);
    assert_eq!(state.confirmed_waves, live.confirmed_waves);
    assert_eq!(state.dag.len(), live.dag.len());
    assert_eq!(state.sealed_wave, 2);

    // Tear the final sealed record (the wave-2 confirm) on disk.
    truncate_file(&sealed_path, sealed_len - 2);
    let mut torn: EventLog<Vec<u8>, FileStorage> = EventLog::new(FileStorage::open(&dir).unwrap());
    let state = torn.replay(3, pid(0), Vec::new()).unwrap();
    assert_eq!(state.commit_log, live.commit_log, "the sealed waves before the tear survive");
    assert!(state.torn_tail_bytes > 0);
    let dropped = torn.repair_torn_tail().unwrap();
    assert_eq!(dropped, state.torn_tail_bytes);
    assert_eq!(
        std::fs::metadata(&sealed_path).unwrap().len(),
        sealed_len - 2 - dropped as u64,
        "the repair truncates sealed.log to its last whole record"
    );
    assert_eq!(torn.replay(3, pid(0), Vec::new()).unwrap().torn_tail_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Test-only helper: current on-disk log length.
trait LogLen {
    fn read_log_len(&self) -> usize;
}

impl LogLen for FileStorage {
    fn read_log_len(&self) -> usize {
        use asym_storage::Storage as _;
        self.read_log().unwrap().len()
    }
}
