//! A counting [`StorageBackend`]: forwards every call to the backend it
//! wraps and tallies bytes and calls, so the store's write amplification
//! is measured at the disk boundary.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use store::{FsBackend, StorageBackend};

/// Backend call and byte tallies.
#[derive(Debug, Clone, Copy)]
pub struct IoCounts {
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// `write_file` calls (whole-file writes: meta, index slots, notes).
    pub write_calls: u64,
    /// `append_file` calls (journal and shard appends).
    pub append_calls: u64,
    pub sync_calls: u64,
}

/// [`FsBackend`] (or any backend) with counters.
pub struct CountingBackend {
    inner: Arc<dyn StorageBackend>,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    write_calls: AtomicU64,
    append_calls: AtomicU64,
    sync_calls: AtomicU64,
}

impl CountingBackend {
    /// Count the real filesystem's IO.
    pub fn fs() -> Arc<CountingBackend> {
        Arc::new(CountingBackend {
            inner: Arc::new(FsBackend),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            append_calls: AtomicU64::new(0),
            sync_calls: AtomicU64::new(0),
        })
    }

    /// Tallies so far.
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            append_calls: self.append_calls.load(Ordering::Relaxed),
            sync_calls: self.sync_calls.load(Ordering::Relaxed),
        }
    }
}

impl StorageBackend for CountingBackend {
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read_file(path)?;
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write_file(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.append_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append_file(path, bytes)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate_file(path, len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.sync_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn file_exists(&self, path: &Path) -> bool {
        self.inner.file_exists(path)
    }
}
