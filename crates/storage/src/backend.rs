//! Storage backends: where WAL bytes physically live.
//!
//! The [`Wal`](crate::Wal) framing layer is backend-agnostic; a [`Storage`]
//! implementation only has to provide three byte areas — an append-only
//! *log*, an atomically-replaced *snapshot* blob, and an append-only
//! *sealed* area holding decided history that no snapshot rewrites. Two
//! backends ship:
//!
//! * [`MemStorage`] — a deterministic in-memory backend for the simulator
//!   (and for modelling crashes: clone the bytes, drop the process);
//! * [`FileStorage`] — a file-backed backend (`wal.log`, `snapshot.bin` and
//!   `sealed.log` in a directory) built on `std::fs` only, so it needs no
//!   extra dependencies.
//!
//! [`StorageBackend`] packs both behind one concrete type so protocol state
//! machines can hold "some storage" without becoming generic.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Why a storage operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// An I/O error from the backing medium (message of the OS error).
    Io(String),
    /// The stored bytes are unreadable: a complete record failed its
    /// checksum, or a snapshot/log area is structurally invalid.
    Corrupt {
        /// Byte offset (within the failing area) of the bad record.
        offset: usize,
        /// What exactly was wrong.
        detail: String,
    },
}

impl core::fmt::Display for StorageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { offset, detail } => {
                write!(f, "corrupt record at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// An append-only log area, an atomically-replaced snapshot area and an
/// append-only sealed area.
///
/// Implementations must preserve append order and must make
/// [`Storage::write_snapshot`] + [`Storage::replace_log`] appear atomic
/// *per call*; the [`Wal`](crate::Wal) layer tolerates a crash between the
/// two calls (replay is idempotent). [`Storage::append_sealed`] is an fsync
/// barrier: the snapshot that omits sealed records is written only after
/// they are durable.
pub trait Storage {
    /// Appends raw bytes to the end of the log area.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Reads the entire log area.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium cannot be read.
    fn read_log(&self) -> Result<Vec<u8>, StorageError>;

    /// Replaces the log area wholesale (used to truncate after a snapshot).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Atomically replaces the snapshot area.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Reads the snapshot area (`None` if no snapshot was ever written).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium cannot be read.
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError>;

    /// Appends raw bytes to the end of the sealed area and makes them
    /// durable before returning.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn append_sealed(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Reads the entire sealed area (empty if nothing was ever sealed).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium cannot be read.
    fn read_sealed(&self) -> Result<Vec<u8>, StorageError>;

    /// Truncates the sealed area to its first `len` bytes — the repair of a
    /// torn final sealed record.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn truncate_sealed(&mut self, len: usize) -> Result<(), StorageError>;

    /// Models the volatile-state loss of a power failure at the instant the
    /// hosting process crashed — called once by a recovering owner *before*
    /// it replays. Durable backends lose nothing and do nothing (the
    /// default); fault-injecting wrappers
    /// ([`FaultyStorage`](crate::FaultyStorage)) apply their configured
    /// damage here.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if applying the modelled damage itself fails.
    fn powerloss(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// Deterministic in-memory backend: the simulator's default.
///
/// "Durability" is the lifetime of the owning value — exactly right for a
/// simulated process whose crash is modelled as dropping its in-memory
/// protocol state while keeping the (notionally on-disk) log value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStorage {
    log: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    sealed: Vec<u8>,
}

impl MemStorage {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Raw log bytes (test/bench observability).
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Raw snapshot bytes (test/bench observability).
    pub fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.snapshot.as_deref()
    }

    /// Raw sealed-area bytes (test/bench observability).
    pub fn sealed_bytes(&self) -> &[u8] {
        &self.sealed
    }

    /// Truncates the log to its first `len` bytes — the test hook that
    /// simulates a torn (partially persisted) final record.
    pub fn truncate_log(&mut self, len: usize) {
        self.log.truncate(len);
    }

    /// Flips one byte of the log — the test hook that simulates bit rot.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn corrupt_log_byte(&mut self, offset: usize) {
        self.log[offset] ^= 0xFF;
    }
}

impl Storage for MemStorage {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.log.extend_from_slice(bytes);
        Ok(())
    }

    fn read_log(&self) -> Result<Vec<u8>, StorageError> {
        Ok(self.log.clone())
    }

    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.log = bytes.to_vec();
        Ok(())
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.snapshot.clone())
    }

    fn append_sealed(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.sealed.extend_from_slice(bytes);
        Ok(())
    }

    fn read_sealed(&self) -> Result<Vec<u8>, StorageError> {
        Ok(self.sealed.clone())
    }

    fn truncate_sealed(&mut self, len: usize) -> Result<(), StorageError> {
        self.sealed.truncate(len);
        Ok(())
    }
}

/// File-backed backend: `wal.log` (append-only), `snapshot.bin` (written
/// to a temp file, then renamed) and `sealed.log` (append-only) inside one
/// directory.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// Kept open so appends do not reopen the file per record.
    log: File,
    /// The sealed area's append handle.
    sealed: File,
}

impl FileStorage {
    /// Opens (creating if needed) a file store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory or log file cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let log = OpenOptions::new().create(true).append(true).open(dir.join("wal.log"))?;
        let sealed = OpenOptions::new().create(true).append(true).open(dir.join("sealed.log"))?;
        Ok(FileStorage { dir, log, sealed })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn sealed_path(&self) -> PathBuf {
        self.dir.join("sealed.log")
    }
}

impl Clone for FileStorage {
    /// Clones share the underlying files (a fresh append handle is opened).
    /// Two live clones appending concurrently would interleave records;
    /// clone only to hand the store to a restarted process.
    fn clone(&self) -> Self {
        FileStorage::open(&self.dir).expect("reopening an existing file store")
    }
}

impl Storage for FileStorage {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.log.write_all(bytes)?;
        self.log.sync_data()?;
        Ok(())
    }

    fn read_log(&self) -> Result<Vec<u8>, StorageError> {
        let mut bytes = Vec::new();
        File::open(self.log_path())?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.dir.join("wal.log.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.log_path())?;
        self.log = OpenOptions::new().create(true).append(true).open(self.log_path())?;
        Ok(())
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.dir.join("snapshot.bin.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.snapshot_path())?;
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        match File::open(self.snapshot_path()) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn append_sealed(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.sealed.write_all(bytes)?;
        self.sealed.sync_data()?;
        Ok(())
    }

    fn read_sealed(&self) -> Result<Vec<u8>, StorageError> {
        let mut bytes = Vec::new();
        File::open(self.sealed_path())?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn truncate_sealed(&mut self, len: usize) -> Result<(), StorageError> {
        self.sealed.set_len(len as u64)?;
        self.sealed.sync_data()?;
        Ok(())
    }
}

/// One concrete type over both backends, so protocol state machines can own
/// "some storage" without a generic parameter.
#[derive(Clone, Debug)]
pub enum StorageBackend {
    /// Deterministic in-memory storage (the simulator default).
    Mem(MemStorage),
    /// File-backed storage.
    File(FileStorage),
    /// Powerloss-injecting wrapper around either backend.
    Faulty(Box<crate::FaultyStorage<StorageBackend>>),
}

impl StorageBackend {
    /// A fresh in-memory backend.
    pub fn in_memory() -> Self {
        StorageBackend::Mem(MemStorage::new())
    }

    /// A file backend rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory or log file cannot be created.
    pub fn file(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Ok(StorageBackend::File(FileStorage::open(dir)?))
    }

    /// Wraps this backend in a [`FaultyStorage`](crate::FaultyStorage):
    /// the next [`Storage::powerloss`] applies `plan`'s damage.
    #[must_use]
    pub fn with_powerloss(self, plan: crate::PowerlossPlan) -> Self {
        StorageBackend::Faulty(Box::new(crate::FaultyStorage::new(self, plan)))
    }
}

impl Storage for StorageBackend {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.append_log(bytes),
            StorageBackend::File(s) => s.append_log(bytes),
            StorageBackend::Faulty(s) => s.append_log(bytes),
        }
    }

    fn read_log(&self) -> Result<Vec<u8>, StorageError> {
        match self {
            StorageBackend::Mem(s) => s.read_log(),
            StorageBackend::File(s) => s.read_log(),
            StorageBackend::Faulty(s) => s.read_log(),
        }
    }

    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.replace_log(bytes),
            StorageBackend::File(s) => s.replace_log(bytes),
            StorageBackend::Faulty(s) => s.replace_log(bytes),
        }
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.write_snapshot(bytes),
            StorageBackend::File(s) => s.write_snapshot(bytes),
            StorageBackend::Faulty(s) => s.write_snapshot(bytes),
        }
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        match self {
            StorageBackend::Mem(s) => s.read_snapshot(),
            StorageBackend::File(s) => s.read_snapshot(),
            StorageBackend::Faulty(s) => s.read_snapshot(),
        }
    }

    fn append_sealed(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.append_sealed(bytes),
            StorageBackend::File(s) => s.append_sealed(bytes),
            StorageBackend::Faulty(s) => s.append_sealed(bytes),
        }
    }

    fn read_sealed(&self) -> Result<Vec<u8>, StorageError> {
        match self {
            StorageBackend::Mem(s) => s.read_sealed(),
            StorageBackend::File(s) => s.read_sealed(),
            StorageBackend::Faulty(s) => s.read_sealed(),
        }
    }

    fn truncate_sealed(&mut self, len: usize) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.truncate_sealed(len),
            StorageBackend::File(s) => s.truncate_sealed(len),
            StorageBackend::Faulty(s) => s.truncate_sealed(len),
        }
    }

    fn powerloss(&mut self) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(_) | StorageBackend::File(_) => Ok(()),
            StorageBackend::Faulty(s) => s.powerloss(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asym-storage-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::new();
        s.append_log(b"ab").unwrap();
        s.append_log(b"cd").unwrap();
        assert_eq!(s.read_log().unwrap(), b"abcd");
        assert_eq!(s.read_snapshot().unwrap(), None);
        s.write_snapshot(b"snap").unwrap();
        assert_eq!(s.read_snapshot().unwrap().unwrap(), b"snap");
        s.replace_log(b"").unwrap();
        assert!(s.read_log().unwrap().is_empty());
        assert!(s.read_sealed().unwrap().is_empty());
        s.append_sealed(b"se").unwrap();
        s.append_sealed(b"aled").unwrap();
        s.truncate_sealed(5).unwrap();
        assert_eq!(s.read_sealed().unwrap(), b"seale");
    }

    #[test]
    fn file_storage_round_trips_and_survives_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_log(b"hello ").unwrap();
            s.append_log(b"world").unwrap();
            s.write_snapshot(b"snap-v1").unwrap();
        }
        // A "restarted process": a fresh handle over the same directory.
        let s = FileStorage::open(&dir).unwrap();
        assert_eq!(s.read_log().unwrap(), b"hello world");
        assert_eq!(s.read_snapshot().unwrap().unwrap(), b"snap-v1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_storage_replace_log_truncates() {
        let dir = temp_dir("truncate");
        let mut s = FileStorage::open(&dir).unwrap();
        s.append_log(b"old-old-old").unwrap();
        s.replace_log(b"new").unwrap();
        assert_eq!(s.read_log().unwrap(), b"new");
        // The fresh append handle continues after the replacement.
        s.append_log(b"+tail").unwrap();
        assert_eq!(s.read_log().unwrap(), b"new+tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_enum_delegates() {
        let mut b = StorageBackend::in_memory();
        b.append_log(b"x").unwrap();
        assert_eq!(b.read_log().unwrap(), b"x");
        assert!(b.read_snapshot().unwrap().is_none());
    }
}
