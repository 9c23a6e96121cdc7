//! Immutable on-disk segment files for rolled historical shards.
//!
//! A historical shard is never mutated after the tail rolls past it (the
//! sharded router's invariant), so its entire contents can be flushed once
//! into a write-once *segment file* and read back verbatim on every restart.
//! The layout is three opaque blocks behind a checksummed footer:
//!
//! ```text
//! +--------+------------+------------+--------------+--------+
//! | magic  | meta block | seed block | events block | footer |
//! +--------+------------+------------+--------------+--------+
//! ```
//!
//! * **meta** — the shard's routing identity ([`SegmentMeta`]): its index
//!   and inclusive lower bound.
//! * **seed** — the synthetic seed events collapsing all state before the
//!   shard's lower bound.
//! * **events** — the real events in the shard's range.
//! * **footer** — `(offset, len, crc32)` for each block, a CRC over those
//!   descriptors, and a closing magic.
//!
//! Every byte of the file is covered by a check: the two magics pin the
//! framing, each block is covered by its CRC, and the descriptors are
//! covered by the footer CRC — so flipping any single byte fails the read
//! with a clear [`StoreError::Corruption`] rather than rebuilding a wrong
//! graph (property-tested below). Files are written to a temporary name,
//! fsynced, and atomically renamed into place, so a crash mid-flush leaves
//! no half-written segment under the real name.

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::Path;

use tgraph::codec::{Decode, Encode, Reader};
use tgraph::{Event, Timestamp};

use crate::disk::crc32;
use crate::faults;
use crate::store::{StoreError, StoreResult};

/// Opening magic: segment format, version 1.
const SEGMENT_MAGIC: &[u8; 8] = b"DGSEG01\n";
/// Closing magic at the very end of the footer.
const SEGMENT_END_MAGIC: &[u8; 8] = b"DGSEGEND";
/// Footer size: 3 × (offset u64 + len u64 + crc u32) + footer crc + magic.
const FOOTER_LEN: usize = 3 * (8 + 8 + 4) + 4 + 8;

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

/// A fully decoded segment: one sealed shard's complete contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The shard's routing identity.
    pub meta: SegmentMeta,
    /// Synthetic seed events recreating all state before the lower bound.
    pub seed: Vec<Event>,
    /// Real events in the shard's range, in time order.
    pub events: Vec<Event>,
}

fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::new();
    (events.len() as u64).encode(&mut buf);
    for ev in events {
        ev.encode(&mut buf);
    }
    buf
}

fn decode_events(bytes: &[u8], what: &str) -> StoreResult<Vec<Event>> {
    let mut r = Reader::new(bytes);
    let corrupt = |e: tgraph::TgError| StoreError::Corruption(format!("bad {what} block: {e}"));
    let n = u64::decode(&mut r).map_err(corrupt)?;
    let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        out.push(Event::decode(&mut r).map_err(corrupt)?);
    }
    if !r.is_empty() {
        return Err(StoreError::Corruption(format!(
            "{} trailing bytes in {what} block",
            r.remaining()
        )));
    }
    Ok(out)
}

impl Segment {
    /// Writes a segment of the given parts to `path` — borrowed, so a writer
    /// never copies a shard's events just to seal them: temp file, fsync,
    /// atomic rename, then an fsync of the containing directory so the name
    /// itself is durable. [`Segment::read`] returns the same parts.
    pub fn write(
        path: impl AsRef<Path>,
        meta: &SegmentMeta,
        seed: &[Event],
        events: &[Event],
    ) -> StoreResult<()> {
        let path = path.as_ref();
        let blocks = [meta.to_bytes(), encode_events(seed), encode_events(events)];
        let mut file_bytes = Vec::new();
        file_bytes.extend_from_slice(SEGMENT_MAGIC);
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        for block in &blocks {
            footer.extend_from_slice(&(file_bytes.len() as u64).to_le_bytes());
            footer.extend_from_slice(&(block.len() as u64).to_le_bytes());
            footer.extend_from_slice(&crc32(block).to_le_bytes());
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

    /// Reads and fully verifies a segment file. Any framing, descriptor, or
    /// block checksum failure is a [`StoreError::Corruption`].
    pub fn read(path: impl AsRef<Path>) -> StoreResult<Self> {
        let path = path.as_ref();
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        let name = path.display();
        if data.len() < SEGMENT_MAGIC.len() + FOOTER_LEN {
            return Err(StoreError::Corruption(format!(
                "segment {name} is shorter than its framing"
            )));
        }
        if &data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(StoreError::Corruption(format!(
                "segment {name} has a bad opening magic"
            )));
        }
        let footer_start = data.len() - FOOTER_LEN;
        let footer = &data[footer_start..];
        if &footer[FOOTER_LEN - 8..] != SEGMENT_END_MAGIC {
            return Err(StoreError::Corruption(format!(
                "segment {name} has a bad closing magic"
            )));
        }
        let descriptors = &footer[..FOOTER_LEN - 12];
        let stored_footer_crc =
            u32::from_le_bytes(footer[FOOTER_LEN - 12..FOOTER_LEN - 8].try_into().unwrap());
        if crc32(descriptors) != stored_footer_crc {
            return Err(StoreError::Corruption(format!(
                "segment {name} footer failed its checksum"
            )));
        }
        let mut blocks: Vec<&[u8]> = Vec::with_capacity(3);
        let mut expected_off = SEGMENT_MAGIC.len() as u64;
        for i in 0..3 {
            let d = &descriptors[i * 20..(i + 1) * 20];
            let off = u64::from_le_bytes(d[0..8].try_into().unwrap());
            let len = u64::from_le_bytes(d[8..16].try_into().unwrap());
            let crc_stored = u32::from_le_bytes(d[16..20].try_into().unwrap());
            if off != expected_off || off + len > footer_start as u64 {
                return Err(StoreError::Corruption(format!(
                    "segment {name} block {i} descriptor is out of bounds"
                )));
            }
            let block = &data[off as usize..(off + len) as usize];
            if crc32(block) != crc_stored {
                return Err(StoreError::Corruption(format!(
                    "segment {name} block {i} failed its checksum"
                )));
            }
            blocks.push(block);
            expected_off = off + len;
        }
        if expected_off != footer_start as u64 {
            return Err(StoreError::Corruption(format!(
                "segment {name} has unaccounted bytes before the footer"
            )));
        }
        let meta = SegmentMeta::from_bytes(blocks[0])
            .map_err(|e| StoreError::Corruption(format!("bad meta block in {name}: {e}")))?;
        Ok(Segment {
            meta,
            seed: decode_events(blocks[1], "seed")?,
            events: decode_events(blocks[2], "events")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tgraph::AttrValue;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("segment-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(seg: &Segment, path: &Path) {
        Segment::write(path, &seg.meta, &seg.seed, &seg.events).unwrap();
    }

    fn sample_segment() -> Segment {
        Segment {
            meta: SegmentMeta {
                shard_index: 3,
                lower: Some(Timestamp(42)),
            },
            seed: vec![
                Event::add_node(41, 10),
                Event::set_node_attr(
                    41,
                    tgraph::NodeId(10),
                    "w",
                    None,
                    Some(AttrValue::from(7i64)),
                ),
            ],
            events: vec![Event::add_node(42, 11), Event::add_edge(43, 100, 10, 11)],
        }
    }

    #[test]
    fn round_trip() {
        let path = tmpdir("roundtrip").join("segment-00003.seg");
        let seg = sample_segment();
        write(&seg, &path);
        assert_eq!(Segment::read(&path).unwrap(), seg);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_single_event_segments_round_trip() {
        let dir = tmpdir("edges");
        let empty = Segment {
            meta: SegmentMeta {
                shard_index: 0,
                lower: None,
            },
            seed: vec![],
            events: vec![],
        };
        let path = dir.join("empty.seg");
        write(&empty, &path);
        assert_eq!(Segment::read(&path).unwrap(), empty);

        let single = Segment {
            meta: SegmentMeta {
                shard_index: 1,
                lower: Some(Timestamp(i64::MIN + 1)),
            },
            seed: vec![],
            events: vec![Event::add_node(1, 1)],
        };
        let path = dir.join("single.seg");
        write(&single, &path);
        assert_eq!(Segment::read(&path).unwrap(), single);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The acceptance bar from the issue: corrupting any one byte of the
        // file — header, blocks, footer, or checksums — must surface as a
        // clear error, never a silently different segment.
        let path = tmpdir("flips").join("seg.seg");
        let seg = sample_segment();
        write(&seg, &path);
        let original = std::fs::read(&path).unwrap();
        for i in 0..original.len() {
            let mut mutated = original.clone();
            mutated[i] ^= 0x01;
            std::fs::write(&path, &mutated).unwrap();
            match Segment::read(&path) {
                Err(StoreError::Corruption(_)) => {}
                Err(other) => panic!("byte {i}: expected corruption, got {other}"),
                Ok(read) => panic!(
                    "byte {i}: corruption went undetected (read back {:?})",
                    read.meta
                ),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmpdir("trunc").join("seg.seg");
        let seg = sample_segment();
        write(&seg, &path);
        let original = std::fs::read(&path).unwrap();
        for cut in [0, 1, SEGMENT_MAGIC.len(), original.len() - 1] {
            std::fs::write(&path, &original[..cut]).unwrap();
            assert!(
                matches!(Segment::read(&path), Err(StoreError::Corruption(_))),
                "cut={cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
