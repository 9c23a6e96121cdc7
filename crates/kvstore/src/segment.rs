//! Immutable on-disk segment files: a sealed shard's DeltaGraph.
//!
//! A historical shard is never mutated after the tail rolls past it (the
//! sharded router's invariant), so its index can be flushed once into a
//! write-once *segment file* and served from it on every restart. The file
//! is a read-only key–value store of the index's payloads plus the index's
//! own description:
//!
//! ```text
//! +-------+----------------+-----------+------+-------+--------+
//! | magic | payload blocks | key table | meta | index | footer |
//! +-------+----------------+-----------+------+-------+--------+
//! ```
//!
//! * **payload blocks** — the stored values, laid end to end in key order.
//! * **key table** — a `u64` entry count, then per block its [`StoreKey`],
//!   offset, length and CRC, sorted by key.
//! * **meta** — the shard's routing identity ([`SegmentMeta`]).
//! * **index** — opaque bytes the index layer decodes (the DeltaGraph's
//!   construction parameters and skeleton; empty for a tail's seed file).
//! * **footer** — `(offset, len, crc32)` for the key table, meta and index,
//!   a CRC over those descriptors, and a closing magic.
//!
//! [`Segment::open`] reads the footer, key table, meta and index and checks
//! their CRCs, and nothing else: a payload block is read — one positioned
//! read, checked against its own CRC — only when a `get` asks for it.
//! [`Segment::read`] additionally verifies every payload block. Every byte
//! of the file is covered by a check, so flipping any single byte fails a
//! full read with a [`StoreError::Corruption`] (property-tested below), and
//! no length read from the file is trusted before it is bounded by the
//! file's own size. Files are written to a temporary name, fsynced, and
//! atomically renamed into place, so a crash mid-flush leaves no
//! half-written segment under the real name.

use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use tgraph::codec::{Decode, Encode, Reader};
use tgraph::Timestamp;

use crate::disk::crc32;
use crate::faults;
use crate::key::StoreKey;
use crate::stats::{StatsSnapshot, StoreStats};
use crate::store::{KeyValueStore, StoreError, StoreResult};

/// Opening magic: segment format, version 2 (a DeltaGraph's payloads).
const SEGMENT_MAGIC: &[u8; 8] = b"DGSEG02\n";
/// Version 1 held seed and event blocks; it is recognized only to refuse it.
const SEGMENT_V1_MAGIC: &[u8; 8] = b"DGSEG01\n";
/// Closing magic at the very end of the footer.
const SEGMENT_END_MAGIC: &[u8; 8] = b"DGSEGEND";
/// One block descriptor: offset u64 + len u64 + crc u32.
const DESCRIPTOR_LEN: usize = 8 + 8 + 4;
/// Footer size: 3 descriptors + footer crc + magic.
const FOOTER_LEN: usize = 3 * DESCRIPTOR_LEN + 4 + 8;
/// One key-table entry: the key, then its block's descriptor.
const ENTRY_LEN: usize = StoreKey::ENCODED_LEN + DESCRIPTOR_LEN;

/// The shard identity stored in a segment's meta block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The shard's position in time order at the moment it was sealed.
    pub shard_index: u64,
    /// Inclusive lower bound of the shard's time range (`None` = unbounded
    /// below, i.e. the first shard).
    pub lower: Option<Timestamp>,
}

impl Encode for SegmentMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.shard_index.encode(buf);
        self.lower.encode(buf);
    }
}

impl Decode for SegmentMeta {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(SegmentMeta {
            shard_index: u64::decode(r)?,
            lower: Option::decode(r)?,
        })
    }
}

/// Where one block sits in the file.
#[derive(Clone, Copy, Debug)]
struct BlockRef {
    offset: u64,
    len: u64,
    crc: u32,
}

impl BlockRef {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
    }

    /// Parses a descriptor from exactly [`DESCRIPTOR_LEN`] bytes.
    fn parse(d: &[u8]) -> BlockRef {
        BlockRef {
            offset: u64::from_le_bytes(d[0..8].try_into().expect("8 bytes")),
            len: u64::from_le_bytes(d[8..16].try_into().expect("8 bytes")),
            crc: u32::from_le_bytes(d[16..20].try_into().expect("4 bytes")),
        }
    }

    /// End offset, or `None` when the descriptor overflows.
    fn end(&self) -> Option<u64> {
        self.offset.checked_add(self.len)
    }
}

/// An opened segment file: a read-only [`KeyValueStore`] over its payload
/// blocks, plus the meta and index blocks it was written with.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    file: File,
    file_len: u64,
    meta: SegmentMeta,
    /// The key table, sorted by key.
    table: Vec<(StoreKey, BlockRef)>,
    index: Vec<u8>,
    stats: StoreStats,
}

impl Segment {
    /// Writes a segment holding `blocks` (any order; keys must be distinct),
    /// `meta` and the opaque `index` bytes to `path`: temp file, fsync,
    /// atomic rename, then an fsync of the containing directory so the name
    /// itself is durable.
    pub fn write(
        path: impl AsRef<Path>,
        meta: &SegmentMeta,
        blocks: &[(StoreKey, Vec<u8>)],
        index: &[u8],
    ) -> StoreResult<()> {
        let path = path.as_ref();
        let mut sorted: Vec<&(StoreKey, Vec<u8>)> = blocks.iter().collect();
        sorted.sort_by_key(|(key, _)| *key);
        if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(StoreError::Io(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("segment {} would hold a key twice", path.display()),
            )));
        }
        let mut file_bytes = Vec::new();
        file_bytes.extend_from_slice(SEGMENT_MAGIC);
        let mut table = Vec::with_capacity(8 + sorted.len() * ENTRY_LEN);
        table.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
        for (key, value) in sorted {
            table.extend_from_slice(&key.to_bytes());
            BlockRef {
                offset: file_bytes.len() as u64,
                len: value.len() as u64,
                crc: crc32(value),
            }
            .write(&mut table);
            file_bytes.extend_from_slice(value);
        }
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        for block in [&table[..], &meta.to_bytes(), index] {
            BlockRef {
                offset: file_bytes.len() as u64,
                len: block.len() as u64,
                crc: crc32(block),
            }
            .write(&mut footer);
            file_bytes.extend_from_slice(block);
        }
        let footer_crc = crc32(&footer);
        footer.extend_from_slice(&footer_crc.to_le_bytes());
        footer.extend_from_slice(SEGMENT_END_MAGIC);
        file_bytes.extend_from_slice(&footer);

        let tmp = path.with_extension("seg.tmp");
        faults::check("segment.open", path)?;
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        faults::write_all(&mut f, &file_bytes, "segment.write", path)?;
        faults::check("segment.sync", path)?;
        f.sync_data()?;
        drop(f);
        faults::check("segment.rename", path)?;
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                faults::check("segment.dirsync", path)?;
                File::open(parent)?.sync_data()?;
            }
        }
        Ok(())
    }

    /// Opens a segment file: reads and verifies the framing, footer, key
    /// table, meta and index blocks. Payload blocks are not read; each is
    /// verified when a `get` fetches it. Any framing, bounds or checksum
    /// failure is a [`StoreError::Corruption`].
    pub fn open(path: impl AsRef<Path>) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let name = path.display();
        let corrupt = |what: String| StoreError::Corruption(format!("segment {name} {what}"));
        if file_len < (SEGMENT_MAGIC.len() + FOOTER_LEN) as u64 {
            return Err(corrupt("is shorter than its framing".into()));
        }
        let mut magic = [0u8; 8];
        file.read_exact_at(&mut magic, 0)?;
        if &magic == SEGMENT_V1_MAGIC {
            return Err(corrupt(
                "is in segment format v1 (DGSEG01: seed and event blocks), which this \
                 version does not read; rebuild the data directory"
                    .into(),
            ));
        }
        if &magic != SEGMENT_MAGIC {
            return Err(corrupt("has a bad opening magic".into()));
        }
        let footer_start = file_len - FOOTER_LEN as u64;
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer, footer_start)?;
        if &footer[FOOTER_LEN - 8..] != SEGMENT_END_MAGIC {
            return Err(corrupt("has a bad closing magic".into()));
        }
        let descriptors = &footer[..3 * DESCRIPTOR_LEN];
        let stored_crc = u32::from_le_bytes(
            footer[3 * DESCRIPTOR_LEN..3 * DESCRIPTOR_LEN + 4]
                .try_into()
                .expect("4 bytes"),
        );
        if crc32(descriptors) != stored_crc {
            return Err(corrupt("footer failed its checksum".into()));
        }
        let [table_ref, meta_ref, index_ref] = [0, 1, 2]
            .map(|i| BlockRef::parse(&descriptors[i * DESCRIPTOR_LEN..(i + 1) * DESCRIPTOR_LEN]));
        // The three blocks are contiguous and end where the footer starts,
        // so reading them allocates no more than the file holds.
        let contiguous = table_ref.offset >= SEGMENT_MAGIC.len() as u64
            && table_ref.end() == Some(meta_ref.offset)
            && meta_ref.end() == Some(index_ref.offset)
            && index_ref.end() == Some(footer_start);
        if !contiguous {
            return Err(corrupt("has out-of-bounds block descriptors".into()));
        }
        let mut tail = vec![0u8; (footer_start - table_ref.offset) as usize];
        file.read_exact_at(&mut tail, table_ref.offset)?;
        let (table_bytes, rest) = tail.split_at(table_ref.len as usize);
        let (meta_bytes, index_bytes) = rest.split_at(meta_ref.len as usize);
        for (what, bytes, block) in [
            ("key table", table_bytes, table_ref),
            ("meta block", meta_bytes, meta_ref),
            ("index block", index_bytes, index_ref),
        ] {
            if crc32(bytes) != block.crc {
                return Err(corrupt(format!("{what} failed its checksum")));
            }
        }
        let table = parse_table(table_bytes, table_ref.offset).map_err(corrupt)?;
        let meta = SegmentMeta::from_bytes(meta_bytes)
            .map_err(|e| corrupt(format!("has a bad meta block: {e}")))?;
        let index = index_bytes.to_vec();
        Ok(Segment {
            path,
            file,
            file_len,
            meta,
            table,
            index,
            stats: StoreStats::new(),
        })
    }

    /// Opens a segment file and verifies every payload block's checksum
    /// too: the whole file is checked.
    pub fn read(path: impl AsRef<Path>) -> StoreResult<Self> {
        let segment = Segment::open(path)?;
        let payload_end = segment
            .table
            .last()
            .map_or(SEGMENT_MAGIC.len() as u64, |(_, b)| b.offset + b.len);
        let mut payloads = vec![0u8; payload_end as usize - SEGMENT_MAGIC.len()];
        segment
            .file
            .read_exact_at(&mut payloads, SEGMENT_MAGIC.len() as u64)?;
        for (key, block) in &segment.table {
            let start = block.offset as usize - SEGMENT_MAGIC.len();
            segment.check_block(key, block, &payloads[start..start + block.len as usize])?;
        }
        Ok(segment)
    }

    /// The shard identity the segment was written with.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The opaque index bytes the segment was written with.
    pub fn index_bytes(&self) -> &[u8] {
        &self.index
    }

    /// Size of the segment file in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    fn check_block(&self, key: &StoreKey, block: &BlockRef, bytes: &[u8]) -> StoreResult<()> {
        if crc32(bytes) == block.crc {
            return Ok(());
        }
        Err(StoreError::Corruption(format!(
            "segment {} block {}/{}/{:?} failed its checksum",
            self.path.display(),
            key.partition,
            key.delta_id,
            key.component
        )))
    }

    fn read_only(&self) -> StoreError {
        StoreError::Io(std::io::Error::new(
            ErrorKind::Unsupported,
            format!("segment {} is read-only", self.path.display()),
        ))
    }
}

/// Parses and bounds-checks a key table whose CRC already passed: exactly
/// `count` fixed-size entries, keys strictly ascending, and blocks that tile
/// the payload region `[magic, payload_end)` end to end in key order.
fn parse_table(bytes: &[u8], payload_end: u64) -> Result<Vec<(StoreKey, BlockRef)>, String> {
    let count = bytes
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or("has a key table without an entry count")?;
    let entries = &bytes[8..];
    // The count is trusted only once the table's own length confirms it.
    if count.checked_mul(ENTRY_LEN as u64) != Some(entries.len() as u64) {
        return Err(format!(
            "key table lists {count} entries in {} bytes",
            entries.len()
        ));
    }
    let mut table = Vec::with_capacity(entries.len() / ENTRY_LEN);
    let mut next_offset = SEGMENT_MAGIC.len() as u64;
    for entry in entries.chunks_exact(ENTRY_LEN) {
        let key = StoreKey::from_bytes(&entry[..StoreKey::ENCODED_LEN])
            .map_err(|e| format!("key table holds a bad key: {e}"))?;
        let block = BlockRef::parse(&entry[StoreKey::ENCODED_LEN..]);
        if table.last().is_some_and(|(prev, _)| *prev >= key) {
            return Err("key table is not in strict key order".into());
        }
        if block.offset != next_offset || block.end().is_none_or(|end| end > payload_end) {
            return Err(format!("block {key:?} is out of bounds"));
        }
        next_offset = block.offset + block.len;
        table.push((key, block));
    }
    if next_offset != payload_end {
        return Err("has unaccounted bytes before its key table".into());
    }
    Ok(table)
}

impl KeyValueStore for Segment {
    fn put(&self, _key: StoreKey, _value: &[u8]) -> StoreResult<()> {
        Err(self.read_only())
    }

    /// One positioned read of the block, checked against its CRC.
    fn get(&self, key: StoreKey) -> StoreResult<Option<Vec<u8>>> {
        let Ok(pos) = self.table.binary_search_by_key(&key, |(k, _)| *k) else {
            self.stats.record_get(None);
            return Ok(None);
        };
        let block = &self.table[pos].1;
        let mut bytes = vec![0u8; block.len as usize];
        self.file.read_exact_at(&mut bytes, block.offset)?;
        self.check_block(&key, block, &bytes)?;
        self.stats.record_get(Some(bytes.len()));
        Ok(Some(bytes))
    }

    fn delete(&self, _key: StoreKey) -> StoreResult<()> {
        Err(self.read_only())
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.table.iter().map(|(_, b)| b.len).sum()
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn backend_name(&self) -> &'static str {
        "segment"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ComponentKind;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("segment-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta() -> SegmentMeta {
        SegmentMeta {
            shard_index: 3,
            lower: Some(Timestamp(42)),
        }
    }

    fn blocks() -> Vec<(StoreKey, Vec<u8>)> {
        vec![
            (
                StoreKey::new(0, 7, ComponentKind::NodeAttr),
                b"node attributes".to_vec(),
            ),
            (StoreKey::new(0, 2, ComponentKind::Structure), vec![1, 2, 3]),
            (StoreKey::new(1, 2, ComponentKind::Structure), Vec::new()),
        ]
    }

    fn write_sample(path: &Path) {
        Segment::write(path, &meta(), &blocks(), b"skeleton").unwrap();
    }

    #[test]
    fn round_trip() {
        let path = tmpdir("roundtrip").join("segment-00003.seg");
        write_sample(&path);
        for seg in [Segment::open(&path).unwrap(), Segment::read(&path).unwrap()] {
            assert_eq!(seg.meta(), &meta());
            assert_eq!(seg.index_bytes(), b"skeleton");
            assert_eq!(seg.len(), 3);
            assert_eq!(seg.stored_bytes(), 18);
            for (key, value) in blocks() {
                assert_eq!(seg.get(key).unwrap(), Some(value));
            }
            let absent = StoreKey::new(0, 9, ComponentKind::Structure);
            assert_eq!(seg.get(absent).unwrap(), None);
            assert_eq!(seg.stats().gets, 4);
            assert_eq!(seg.stats().get_misses, 1);
            assert!(seg.put(absent, b"x").is_err(), "a segment is read-only");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_segments_round_trip() {
        let path = tmpdir("edges").join("empty.seg");
        let meta = SegmentMeta {
            shard_index: 0,
            lower: None,
        };
        Segment::write(&path, &meta, &[], &[]).unwrap();
        let seg = Segment::read(&path).unwrap();
        assert_eq!(seg.meta(), &meta);
        assert!(seg.is_empty() && seg.index_bytes().is_empty());
    }

    #[test]
    fn duplicate_keys_are_refused() {
        let path = tmpdir("dup").join("dup.seg");
        let key = StoreKey::new(0, 1, ComponentKind::Structure);
        let dup = [(key, vec![1]), (key, vec![2])];
        assert!(Segment::write(&path, &meta(), &dup, &[]).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // Corrupting any one byte of the file — header, payload blocks, key
        // table, meta, index, footer, or checksums — must make the full read
        // fail with a clear error, never return a silently different segment.
        let path = tmpdir("flips").join("seg.seg");
        write_sample(&path);
        let original = std::fs::read(&path).unwrap();
        for i in 0..original.len() {
            let mut mutated = original.clone();
            mutated[i] ^= 0x01;
            std::fs::write(&path, &mutated).unwrap();
            match Segment::read(&path) {
                Err(StoreError::Corruption(_)) => {}
                Err(other) => panic!("byte {i}: expected corruption, got {other}"),
                Ok(read) => panic!("byte {i}: corruption went undetected ({read:?})"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_flipped_payload_byte_is_caught_by_the_get_that_reads_it() {
        let path = tmpdir("lazy").join("seg.seg");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        // The first block in key order is (0, 2, Structure) = [1, 2, 3].
        bytes[SEGMENT_MAGIC.len() + 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path).expect("open reads no payload block");
        let hit = seg.get(StoreKey::new(0, 2, ComponentKind::Structure));
        assert!(matches!(hit, Err(StoreError::Corruption(_))), "{hit:?}");
        let other = seg.get(StoreKey::new(0, 7, ComponentKind::NodeAttr));
        assert_eq!(other.unwrap().as_deref(), Some(&b"node attributes"[..]));
        assert!(Segment::read(&path).is_err());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmpdir("trunc").join("seg.seg");
        write_sample(&path);
        let original = std::fs::read(&path).unwrap();
        for cut in [0, 1, SEGMENT_MAGIC.len(), original.len() - 1] {
            std::fs::write(&path, &original[..cut]).unwrap();
            assert!(
                matches!(Segment::open(&path), Err(StoreError::Corruption(_))),
                "cut={cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_v1_segment_is_refused_by_name() {
        let path = tmpdir("v1").join("seg.seg");
        let mut bytes = SEGMENT_V1_MAGIC.to_vec();
        bytes.resize(200, 0);
        std::fs::write(&path, &bytes).unwrap();
        let err = Segment::open(&path).unwrap_err();
        assert!(err.to_string().contains("DGSEG01"), "{err}");
    }
}
