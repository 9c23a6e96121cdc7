//! Append-only, log-structured disk store.
//!
//! This is the stand-in for the Kyoto Cabinet backend used by the paper's
//! prototype. The design is the classic log-structured hash store:
//!
//! * every `put` appends a CRC-protected record to a single data file,
//! * an in-memory index maps each key to the offset of its latest record,
//! * `get` performs one positioned read, outside the store's lock,
//! * `delete` appends a tombstone,
//! * [`DiskStore::open`] rebuilds the index by scanning the log, skipping a
//!   trailing torn record if the process died mid-write,
//! * [`DiskStore::compact`] rewrites only the live records.
//!
//! The DeltaGraph only ever issues point `get`s of whole deltas, so this
//! simple structure provides exactly the access pattern whose cost the
//! paper's evaluation measures: sequential construction writes and random
//! reads proportional to the bytes fetched.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::key::StoreKey;
use crate::stats::{StatsSnapshot, StoreStats};
use crate::store::{KeyValueStore, StoreError, StoreResult};

/// Magic byte starting every record.
const RECORD_MAGIC: u8 = 0xD7;
/// Value length sentinel marking a tombstone record.
const TOMBSTONE_LEN: u32 = u32::MAX;
/// Fixed-size part of a record: magic + key + value_len + crc.
const RECORD_HEADER_LEN: usize = 1 + StoreKey::ENCODED_LEN + 4 + 4;

/// Slicing-by-8 tables for CRC-32 (IEEE, reflected polynomial
/// `0xEDB88320`): `TABLES[0]` is the classic bytewise table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// CRC-32 (IEEE) of a byte slice, eight bytes per step (slicing-by-8).
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

struct DiskInner {
    /// The data file. Every read and write is positioned, so a `get` takes
    /// a clone of this handle under the lock and reads after releasing it;
    /// a handle replaced by `compact` stays readable for reads already
    /// holding it.
    file: Arc<File>,
    /// key → (offset of the value bytes, value length)
    index: HashMap<StoreKey, (u64, u32)>,
    /// next append offset
    tail: u64,
    /// sum of live value lengths
    live_bytes: u64,
}

/// An append-only disk store with an in-memory index.
pub struct DiskStore {
    inner: Mutex<DiskInner>,
    stats: StoreStats,
    path: PathBuf,
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
            inner: Mutex::new(DiskInner {
                file: Arc::new(file),
                index: HashMap::new(),
                tail: 0,
                live_bytes: 0,
            }),
            stats: StoreStats::new(),
            path,
        })
    }

    /// Opens an existing store, rebuilding the in-memory index by scanning
    /// the log. A torn record at the very end of the file (from a crash
    /// mid-append) is tolerated and truncated away; corruption anywhere else
    /// is an error.
    pub fn open(path: impl AsRef<Path>) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        let mut data = Vec::with_capacity(file_len as usize);
        file.read_to_end(&mut data)?;

        let mut index = HashMap::new();
        let mut live_bytes = 0u64;
        let mut pos = 0usize;
        let mut valid_end = 0u64;
        while pos < data.len() {
            match parse_record(&data, pos) {
                Ok(Some((key, value_range, next))) => {
                    match value_range {
                        Some((off, len)) => {
                            if let Some((_, old_len)) = index.insert(key, (off, len)) {
                                live_bytes -= u64::from(old_len);
                            }
                            live_bytes += u64::from(len);
                        }
                        None => {
                            if let Some((_, old_len)) = index.remove(&key) {
                                live_bytes -= u64::from(old_len);
                            }
                        }
                    }
                    pos = next;
                    valid_end = next as u64;
                }
                Ok(None) => {
                    // torn tail: stop scanning, truncate below
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if valid_end < file_len {
            file.set_len(valid_end)?;
        }
        Ok(DiskStore {
            inner: Mutex::new(DiskInner {
                file: Arc::new(file),
                index,
                tail: valid_end,
                live_bytes,
            }),
            stats: StoreStats::new(),
            path,
        })
    }

    /// The path of the data file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Size of the data file in bytes (live + dead records). This is the
    /// on-disk footprint before compaction.
    pub fn file_bytes(&self) -> u64 {
        self.inner.lock().tail
    }

    /// Rewrites the log keeping only the latest record of each live key.
    /// Returns the number of bytes reclaimed.
    pub fn compact(&self) -> StoreResult<u64> {
        let mut inner = self.inner.lock();
        let old_tail = inner.tail;
        let tmp_path = self.path.with_extension("compact");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;

        let keys: Vec<StoreKey> = inner.index.keys().copied().collect();
        let mut new_index = HashMap::with_capacity(keys.len());
        let mut new_tail = 0u64;
        for key in keys {
            let (off, len) = inner.index[&key];
            let value = read_value(&inner.file, off, len)?;
            let record = build_record(key, Some(&value));
            tmp.write_all(&record)?;
            new_index.insert(key, (new_tail + RECORD_HEADER_LEN as u64, len));
            new_tail += record.len() as u64;
        }
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen the renamed file as the active handle. Reads that took the
        // old handle finish against the old file, whose offsets they hold.
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        inner.file = Arc::new(file);
        inner.index = new_index;
        inner.tail = new_tail;
        Ok(old_tail.saturating_sub(new_tail))
    }
}

fn build_record(key: StoreKey, value: Option<&[u8]>) -> Vec<u8> {
    let value_len = value.map_or(TOMBSTONE_LEN, |v| v.len() as u32);
    let crc = value.map_or(0, crc32);
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + value.map_or(0, <[u8]>::len));
    record.push(RECORD_MAGIC);
    record.extend_from_slice(&key.to_bytes());
    record.extend_from_slice(&value_len.to_le_bytes());
    record.extend_from_slice(&crc.to_le_bytes());
    if let Some(v) = value {
        record.extend_from_slice(v);
    }
    record
}

/// Parses the record starting at `pos`.
///
/// Returns `Ok(Some((key, Some((value_offset, value_len))|None, next_pos)))`
/// for a complete record (tombstones have `None` value), `Ok(None)` for a
/// truncated record at the end of the buffer, and `Err` for corruption.
#[allow(clippy::type_complexity)]
fn parse_record(
    data: &[u8],
    pos: usize,
) -> StoreResult<Option<(StoreKey, Option<(u64, u32)>, usize)>> {
    if pos + RECORD_HEADER_LEN > data.len() {
        return Ok(None);
    }
    if data[pos] != RECORD_MAGIC {
        return Err(StoreError::Corruption(format!(
            "bad record magic {:#x} at offset {pos}",
            data[pos]
        )));
    }
    let key_start = pos + 1;
    let key = StoreKey::from_bytes(&data[key_start..key_start + StoreKey::ENCODED_LEN])
        .map_err(|e| StoreError::Corruption(e.to_string()))?;
    let len_start = key_start + StoreKey::ENCODED_LEN;
    let value_len = u32::from_le_bytes(data[len_start..len_start + 4].try_into().unwrap());
    let crc_stored = u32::from_le_bytes(data[len_start + 4..len_start + 8].try_into().unwrap());
    let value_start = pos + RECORD_HEADER_LEN;
    if value_len == TOMBSTONE_LEN {
        return Ok(Some((key, None, value_start)));
    }
    let value_end = value_start + value_len as usize;
    if value_end > data.len() {
        return Ok(None);
    }
    let crc_actual = crc32(&data[value_start..value_end]);
    if crc_actual != crc_stored {
        return Err(StoreError::Corruption(format!(
            "crc mismatch for {key:?} at offset {pos}"
        )));
    }
    Ok(Some((
        key,
        Some((value_start as u64, value_len)),
        value_end,
    )))
}

fn read_value(file: &File, offset: u64, len: u32) -> StoreResult<Vec<u8>> {
    let mut buf = vec![0u8; len as usize];
    file.read_exact_at(&mut buf, offset)?;
    Ok(buf)
}

impl KeyValueStore for DiskStore {
    fn put(&self, key: StoreKey, value: &[u8]) -> StoreResult<()> {
        self.stats.record_put(value.len());
        let mut inner = self.inner.lock();
        let record = build_record(key, Some(value));
        let tail = inner.tail;
        let value_offset = tail + RECORD_HEADER_LEN as u64;
        inner.file.write_all_at(&record, tail)?;
        inner.tail += record.len() as u64;
        if let Some((_, old_len)) = inner.index.insert(key, (value_offset, value.len() as u32)) {
            inner.live_bytes -= u64::from(old_len);
        }
        inner.live_bytes += value.len() as u64;
        Ok(())
    }

    fn get(&self, key: StoreKey) -> StoreResult<Option<Vec<u8>>> {
        // Only the lookup runs under the lock; concurrent gets read in
        // parallel.
        let slot = {
            let inner = self.inner.lock();
            let slot = inner.index.get(&key).copied();
            slot.map(|slot| (slot, Arc::clone(&inner.file)))
        };
        let value = match slot {
            Some(((offset, len), file)) => Some(read_value(&file, offset, len)?),
            None => None,
        };
        self.stats.record_get(value.as_ref().map(Vec::len));
        Ok(value)
    }

    fn delete(&self, key: StoreKey) -> StoreResult<()> {
        self.stats.record_delete();
        let mut inner = self.inner.lock();
        if inner.index.contains_key(&key) {
            let record = build_record(key, None);
            let tail = inner.tail;
            inner.file.write_all_at(&record, tail)?;
            inner.tail += record.len() as u64;
            if let Some((_, old_len)) = inner.index.remove(&key) {
                inner.live_bytes -= u64::from(old_len);
            }
        }
        Ok(())
    }

    fn contains(&self, key: StoreKey) -> StoreResult<bool> {
        Ok(self.inner.lock().index.contains_key(&key))
    }

    fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.lock().live_bytes
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn flush(&self) -> StoreResult<()> {
        self.inner.lock().file.sync_data()?;
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
    fn crc32_known_vector() {
        // Standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference the sliced CRC-32 must reproduce: byte by byte, each
    /// byte one bit at a time, no tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_the_bytewise_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            skip in 0usize..8,
        ) {
            // Random lengths at start offsets 0..8: the sliced loop sees
            // every alignment and every remainder.
            let data = &bytes[skip.min(bytes.len())..];
            assert_eq!(crc32(data), crc32_bitwise(data), "len {}", data.len());
        }
    }

    #[test]
    fn put_get_delete_on_disk() {
        let path = tmpdir("basic").join("data.log");
        let s = DiskStore::create(&path).unwrap();
        s.put(key(1), b"hello").unwrap();
        s.put(key(2), b"world!").unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(s.get(key(2)).unwrap().as_deref(), Some(&b"world!"[..]));
        assert_eq!(s.get(key(3)).unwrap(), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stored_bytes(), 11);
        s.delete(key(1)).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), None);
        assert_eq!(s.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_recovers_index() {
        let path = tmpdir("reopen").join("data.log");
        {
            let s = DiskStore::create(&path).unwrap();
            s.put(key(1), b"one").unwrap();
            s.put(key(2), b"two").unwrap();
            s.put(key(1), b"one-v2").unwrap();
            s.delete(key(2)).unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&path).unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"one-v2"[..]));
        assert_eq!(s.get(key(2)).unwrap(), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.stored_bytes(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_tolerates_torn_tail() {
        let path = tmpdir("torn").join("data.log");
        {
            let s = DiskStore::create(&path).unwrap();
            s.put(key(1), b"complete").unwrap();
            s.put(key(2), b"will be torn").unwrap();
            s.flush().unwrap();
        }
        // chop a few bytes off the end to simulate a crash mid-append
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let s = DiskStore::open(&path).unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"complete"[..]));
        assert_eq!(s.get(key(2)).unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_in_the_middle_is_detected() {
        let path = tmpdir("corrupt").join("data.log");
        {
            let s = DiskStore::create(&path).unwrap();
            s.put(key(1), b"aaaaaaaa").unwrap();
            s.put(key(2), b"bbbbbbbb").unwrap();
            s.flush().unwrap();
        }
        // flip a byte inside the first record's value
        let mut data = std::fs::read(&path).unwrap();
        data[RECORD_HEADER_LEN + 2] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        match DiskStore::open(&path) {
            Err(StoreError::Corruption(_)) => {}
            Err(other) => panic!("expected corruption error, got {other}"),
            Ok(_) => panic!("expected corruption error, got a successful open"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let path = tmpdir("compact").join("data.log");
        let s = DiskStore::create(&path).unwrap();
        for i in 0..50u64 {
            s.put(key(1), format!("version-{i}").as_bytes()).unwrap();
        }
        s.put(key(2), b"keep").unwrap();
        let before = s.file_bytes();
        let reclaimed = s.compact().unwrap();
        assert!(reclaimed > 0);
        assert!(s.file_bytes() < before);
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"version-49"[..]));
        assert_eq!(s.get(key(2)).unwrap().as_deref(), Some(&b"keep"[..]));
        // store still usable after compaction
        s.put(key(3), b"post-compact").unwrap();
        assert_eq!(
            s.get(key(3)).unwrap().as_deref(),
            Some(&b"post-compact"[..])
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_gets_racing_compaction_read_whole_values() {
        let path = tmpdir("race").join("data.log");
        let s = Arc::new(DiskStore::create(&path).unwrap());
        let value = |k: u64, v: u64| format!("key-{k}-version-{v}-").repeat(8 + k as usize);
        for v in 0..4 {
            for k in 0..16 {
                s.put(key(k), value(k, v).as_bytes()).unwrap();
            }
        }
        // Readers and the compactor start together, so gets holding the
        // old file handle overlap the swap to the compacted file.
        let start = Arc::new(std::sync::Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let s = Arc::clone(&s);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..2000u64 {
                        let k = (i * 7 + r) % 16;
                        let got = s.get(key(k)).unwrap().expect("a live key");
                        assert_eq!(got, value(k, 3).into_bytes(), "key {k}");
                    }
                })
            })
            .collect();
        start.wait();
        for _ in 0..20 {
            s.compact().unwrap();
        }
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(s.len(), 16);
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
