//! Write-once disk store: a segment's payload region, appended to.
//!
//! This is the stand-in for the Kyoto Cabinet backend used by the paper's
//! prototype. The DeltaGraph stores each delta once, under its
//! ⟨partition, delta id, component⟩ key, and never rewrites or deletes it,
//! so the store is no more than that contract needs:
//!
//! * the file is the values laid end to end, as in a [`crate::Segment`]'s
//!   payload region: no record header, no tombstone;
//! * the key → block table (offset, length, CRC) lives in memory;
//! * a `put` appends a block; a `put` of a key the store already holds,
//!   and any `delete`, is an error;
//! * a `get` is one positioned read outside the store's lock, checked
//!   against the block's CRC — the read a segment's `get` does.
//!
//! There is no reopen: the table lives as long as the store. A durable
//! deployment persists through segment files and the [`crate::Wal`].
//!
//! The DeltaGraph only ever issues point `get`s of whole deltas, so this
//! simple structure provides exactly the access pattern whose cost the
//! paper's evaluation measures: sequential construction writes and random
//! reads proportional to the bytes fetched.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::crc::crc32;
use crate::key::StoreKey;
use crate::segment::BlockRef;
use crate::stats::{StatsSnapshot, StoreStats};
use crate::store::{KeyValueStore, StoreError, StoreResult};

/// Where each stored block sits, and where the next one goes.
#[derive(Default)]
struct Table {
    blocks: HashMap<StoreKey, BlockRef>,
    /// The file's length: the sum of the stored values' lengths.
    tail: u64,
}

/// A write-once disk store with an in-memory block table.
pub struct DiskStore {
    file: File,
    path: PathBuf,
    table: Mutex<Table>,
    stats: StoreStats,
}

impl DiskStore {
    /// Creates a new, empty store at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(DiskStore {
            file,
            path,
            table: Mutex::new(Table::default()),
            stats: StoreStats::new(),
        })
    }

    fn write_once(&self, what: String) -> StoreError {
        StoreError::Io(std::io::Error::new(
            ErrorKind::Unsupported,
            format!("disk store {} is write-once: {what}", self.path.display()),
        ))
    }
}

impl KeyValueStore for DiskStore {
    fn put(&self, key: StoreKey, value: &[u8]) -> StoreResult<()> {
        let crc = crc32(value);
        let mut table = self.table.lock();
        if table.blocks.contains_key(&key) {
            return Err(self.write_once(format!("it already holds {key:?}")));
        }
        let block = BlockRef {
            offset: table.tail,
            len: value.len() as u64,
            crc,
        };
        self.file.write_all_at(value, block.offset)?;
        table.tail += block.len;
        table.blocks.insert(key, block);
        drop(table);
        self.stats.record_put(value.len());
        Ok(())
    }

    fn get(&self, key: StoreKey) -> StoreResult<Option<Vec<u8>>> {
        // Only the lookup runs under the lock; concurrent gets read in
        // parallel.
        let block = self.table.lock().blocks.get(&key).copied();
        let value = match block {
            Some(block) => Some(block.read(&self.file, &self.path, &key)?),
            None => None,
        };
        self.stats.record_get(value.as_ref().map(Vec::len));
        Ok(value)
    }

    fn delete(&self, key: StoreKey) -> StoreResult<()> {
        Err(self.write_once(format!("cannot delete {key:?}")))
    }

    fn contains(&self, key: StoreKey) -> StoreResult<bool> {
        Ok(self.table.lock().blocks.contains_key(&key))
    }

    fn len(&self) -> usize {
        self.table.lock().blocks.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.table.lock().tail
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn flush(&self) -> StoreResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        "disk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ComponentKind;

    fn key(d: u64) -> StoreKey {
        StoreKey::new(0, d, ComponentKind::Structure)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kvstore-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn put_get_on_disk_and_refuse_rewrites() {
        let path = tmpdir("basic").join("data.log");
        let s = DiskStore::create(&path).unwrap();
        s.put(key(1), b"hello").unwrap();
        s.put(key(2), b"world!").unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(s.get(key(2)).unwrap().as_deref(), Some(&b"world!"[..]));
        assert_eq!(s.get(key(3)).unwrap(), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stored_bytes(), 11);
        assert_eq!(std::fs::read(&path).unwrap(), b"helloworld!");
        // Blocks are write-once: no overwrite, no delete.
        let err = s.put(key(1), b"again").unwrap_err();
        assert!(err.to_string().contains("write-once"), "{err}");
        assert!(s.delete(key(1)).is_err());
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!((s.len(), s.stored_bytes()), (2, 11));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_flipped_byte_fails_only_the_get_of_its_block() {
        let path = tmpdir("flip").join("data.log");
        let s = DiskStore::create(&path).unwrap();
        for k in 0..4u64 {
            s.put(key(k), format!("value-{k}").as_bytes()).unwrap();
        }
        // Block 2 starts after two 7-byte values.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14 + 3] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let hit = s.get(key(2));
        assert!(matches!(hit, Err(StoreError::Corruption(_))), "{hit:?}");
        for k in [0, 1, 3] {
            let want = format!("value-{k}").into_bytes();
            assert_eq!(s.get(key(k)).unwrap(), Some(want), "key {k}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_and_backend_name() {
        let path = tmpdir("stats").join("data.log");
        let s = DiskStore::create(&path).unwrap();
        s.put(key(1), b"xyz").unwrap();
        s.get(key(1)).unwrap();
        assert_eq!(s.backend_name(), "disk");
        let st = s.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.bytes_read, 3);
        std::fs::remove_file(&path).ok();
    }
}
