//! Sealed segments are untrusted input, and a sealed shard is served from
//! its segment, not rebuilt.
//!
//! * A byte-mutation property test over a real sealed segment: flips,
//!   truncations, and rewritten offset/length fields in the footer and key
//!   table (with and without their checksums patched to match), plus
//!   mutated skeleton bytes. `Segment::open`, every `get` and the skeleton
//!   decoder must return the original bytes or a corruption error — never
//!   panic, never allocate more than the file holds.
//! * One flipped payload byte: the directory still opens, queries that read
//!   the block fail cleanly, every other answer is right.
//! * A format-v1 segment is refused by name; a sealed shard refuses appends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use datagen::{churn_trace, ChurnConfig, Dataset};
use deltagraph::{DeltaGraphConfig, DgError, IndexImage};
use historygraph::kvstore::disk::crc32;
use historygraph::kvstore::{KeyValueStore, Segment, StoreError, StoreKey};
use historygraph::tgraph::codec::Decode;
use historygraph::{
    GraphManager, GraphManagerConfig, ShardedConfig, ShardedGraphManager, WalSyncPolicy,
};
use proptest::prelude::*;
use tgraph::{AttrOptions, Event, Timestamp};

/// Records the largest single allocation made on a thread while it is
/// measuring, so the fuzz can bound what hostile lengths make a decoder
/// reserve.
struct Measuring;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping beside it touches only
// a const-initialized thread-local flag and an atomic, neither of which
// allocates.
unsafe impl GlobalAlloc for Measuring {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` guarantees are passed on as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Measuring = Measuring;

/// Fixed allocations that do not scale with any length read from a file:
/// the path, an error message.
const SLACK: usize = 1024;

/// Runs `f`, returning its result and the largest allocation it made on
/// this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, LARGEST.load(Ordering::Relaxed))
}

/// Footer: three (offset u64, len u64, crc u32) descriptors — key table,
/// meta, index — then the footer CRC and the closing magic.
const FOOTER_LEN: usize = 3 * 20 + 4 + 8;
const ENTRY_LEN: usize = StoreKey::ENCODED_LEN + 20;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sealed-segments-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dataset() -> Dataset {
    churn_trace(&ChurnConfig::tiny(61))
}

/// Three shards over small leaves, so each sealed segment holds several
/// eventlists and deltas.
fn config() -> ShardedConfig {
    ShardedConfig::default()
        .with_shards(3)
        .with_manager(GraphManagerConfig::default().with_index(DeltaGraphConfig::new(100, 2)))
}

/// A sealed segment written by `build_durable`, and every block it holds.
struct Fixture {
    bytes: Vec<u8>,
    blocks: Vec<(StoreKey, Vec<u8>)>,
    index: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = test_dir("fixture");
        drop(
            ShardedGraphManager::build_durable(
                &dataset().events,
                config(),
                &dir,
                WalSyncPolicy::Off,
            )
            .unwrap(),
        );
        let path = dir.join("segment-00000.seg");
        let bytes = std::fs::read(&path).unwrap();
        let segment = Segment::read(&path).unwrap();
        let keys = table_keys(&bytes);
        let blocks = keys
            .into_iter()
            .map(|k| (k, segment.get(k).unwrap().expect("a listed block")))
            .collect();
        let index = segment.index_bytes().to_vec();
        std::fs::remove_dir_all(&dir).ok();
        Fixture {
            bytes,
            blocks,
            index,
        }
    })
}

fn descriptor(bytes: &[u8], i: usize) -> (usize, usize) {
    let at = bytes.len() - FOOTER_LEN + i * 20;
    let field = |o: usize| u64::from_le_bytes(bytes[at + o..at + o + 8].try_into().unwrap());
    (field(0) as usize, field(8) as usize)
}

/// The keys a well-formed segment's table lists, in order.
fn table_keys(bytes: &[u8]) -> Vec<StoreKey> {
    let (start, len) = descriptor(bytes, 0);
    bytes[start + 8..start + len]
        .chunks_exact(ENTRY_LEN)
        .map(|e| StoreKey::from_bytes(&e[..StoreKey::ENCODED_LEN]).unwrap())
        .collect()
}

/// Re-seals the key table's and the footer's checksums over whatever the
/// bytes now say, so only structural checks stand between them and a
/// reader.
fn patch_checksums(bytes: &mut [u8]) {
    let footer = bytes.len() - FOOTER_LEN;
    let (start, len) = descriptor(bytes, 0);
    if start.checked_add(len).is_some_and(|end| end <= footer) {
        let crc = crc32(&bytes[start..start + len]);
        bytes[footer + 16..footer + 20].copy_from_slice(&crc.to_le_bytes());
    }
    let crc = crc32(&bytes[footer..footer + 60]);
    bytes[footer + 60..footer + 64].copy_from_slice(&crc.to_le_bytes());
}

/// Offsets of every offset/length field in the footer and the key table.
fn length_fields(bytes: &[u8]) -> Vec<usize> {
    let footer = bytes.len() - FOOTER_LEN;
    let mut fields: Vec<usize> = (0..3)
        .flat_map(|i| [footer + i * 20, footer + i * 20 + 8])
        .collect();
    let (start, len) = descriptor(bytes, 0);
    fields.push(start); // the entry count
    for entry in (start + 8..start + len).step_by(ENTRY_LEN) {
        let at = entry + StoreKey::ENCODED_LEN;
        fields.extend([at, at + 8]);
    }
    fields
}

/// A hostile replacement for a u64 field.
fn hostile(original: u64, pick: u64) -> u64 {
    match pick % 6 {
        0 => u64::MAX,
        1 => 1 << 40,
        2 => original.wrapping_add(1 + pick % 7),
        3 => original.wrapping_sub(1 + pick % 7),
        4 => 0,
        _ => pick,
    }
}

/// Applies mutation `kind` to a copy of the fixture.
fn mutate(kind: u64, pos: u64, pick: u64) -> Vec<u8> {
    let mut bytes = fixture().bytes.clone();
    let n = bytes.len() as u64;
    match kind {
        0 => bytes[(pos % n) as usize] ^= (pick as u8) | 1,
        1 => bytes.truncate((pos % n) as usize),
        _ => {
            let fields = length_fields(&bytes);
            let at = fields[(pos % fields.len() as u64) as usize];
            let original = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            bytes[at..at + 8].copy_from_slice(&hostile(original, pick).to_le_bytes());
            if kind == 3 {
                patch_checksums(&mut bytes);
            }
        }
    }
    bytes
}

/// Mutations per generated case: 64 cases × 16 ≈ a thousand mutated files,
/// well under a second in a debug build.
const ROUNDS: u64 = 16;

/// The `round`-th variation of a generated case's inputs.
fn vary(kind: u64, pos: u64, pick: u64, round: u64) -> (u64, u64, u64) {
    (
        kind + round,
        pos.rotate_left(round as u32 * 5) ^ round,
        pick.wrapping_mul(round + 1).wrapping_add(round),
    )
}

/// Opens a mutated copy of the fixture and reads every block back: each
/// read returns the original bytes or a corruption error, and nothing
/// allocates more than the file holds.
fn check_mutation(path: &Path, kind: u64, pos: u64, pick: u64) {
    let fx = fixture();
    let bytes = mutate(kind % 4, pos, pick);
    std::fs::write(path, &bytes).unwrap();
    let what = format!("kind={} pos={pos} pick={pick}", kind % 4);
    let (opened, largest) = largest_allocation(|| Segment::open(path));
    assert!(
        largest <= bytes.len() + SLACK,
        "{what}: open allocated {largest} for {} bytes",
        bytes.len()
    );
    let segment = match opened {
        Err(StoreError::Corruption(_)) => return,
        Err(other) => panic!("{what}: expected corruption, got {other}"),
        Ok(segment) => segment,
    };
    for (key, original) in &fx.blocks {
        let (got, largest) = largest_allocation(|| segment.get(*key));
        assert!(
            largest <= bytes.len() + SLACK,
            "{what}: get allocated {largest}"
        );
        match got {
            Ok(Some(value)) => assert_eq!(&value, original, "{what} {key:?}"),
            Err(StoreError::Corruption(_)) => {}
            other => panic!("{what} {key:?}: {other:?}"),
        }
    }
    // Every checksum of the footer, table and index passed: the skeleton is
    // the original one, and it decodes.
    assert_eq!(segment.index_bytes(), &fx.index[..], "{what}");
    assert!(
        IndexImage::from_bytes(segment.index_bytes()).is_ok(),
        "{what}"
    );
}

proptest! {
    #[test]
    fn mutated_segments_read_back_whole_or_as_corruption(
        kind in 0u64..4,
        pos in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let dir = test_dir(&format!("fuzz-{pos:x}"));
        let path = dir.join("mutated.seg");
        for round in 0..ROUNDS {
            let (kind, pos, pick) = vary(kind, pos, pick, round);
            check_mutation(&path, kind, pos, pick);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutated_skeletons_decode_or_refuse(
        kind in 0u64..3,
        pos in any::<u64>(),
        pick in any::<u64>(),
    ) {
        for round in 0..ROUNDS {
            let (kind, pos, pick) = vary(kind, pos, pick, round);
            let mut bytes = fixture().index.clone();
            let at = (pos % bytes.len() as u64) as usize;
            match kind % 3 {
                0 => bytes[at] ^= (pick as u8) | 1,
                1 => bytes.truncate(at),
                // A maximal varint where a count, index or id was.
                _ => {
                    bytes.splice(at..at, [0xff; 9].into_iter().chain([0x01]));
                }
            }
            let (_, largest) = largest_allocation(|| IndexImage::from_bytes(&bytes));
            assert!(
                largest <= fixture().bytes.len() + SLACK,
                "decode allocated {largest} for {} skeleton bytes",
                bytes.len()
            );
        }
    }
}

/// `(segment-00000.seg, its first block's key)` of a fresh durable build.
fn first_block(dir: &Path) -> (PathBuf, StoreKey) {
    let path = dir.join("segment-00000.seg");
    let key = table_keys(&std::fs::read(&path).unwrap())[0];
    (path, key)
}

#[test]
fn a_corrupt_payload_block_fails_the_queries_that_read_it_and_nothing_else() {
    let dir = test_dir("payload-flip");
    let ds = dataset();
    drop(
        ShardedGraphManager::build_durable(&ds.events, config(), &dir, WalSyncPolicy::Off).unwrap(),
    );
    // The first block in key order: leaf-eventlist 1 of shard 0, which
    // every time inside the shard's first leaf interval reads.
    let (path, key) = first_block(&dir);
    assert_eq!((key.partition, key.delta_id), (0, 1));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let opened = ShardedGraphManager::open(&dir, config(), WalSyncPolicy::Off)
        .expect("open reads no payload block");
    let oracle = GraphManager::build_in_memory(&ds.events, GraphManagerConfig::default()).unwrap();
    let opts = AttrOptions::all();
    let boundary = opened.shard_infos()[0].upper.expect("shard 0 is sealed");
    let times = datagen::uniform_timepoints(ds.start_time(), ds.end_time(), 40);
    let mut refused = 0;
    for &t in &times {
        let want = oracle.index().get_snapshot(t, &opts).unwrap();
        match opened.snapshot_at(t, &opts) {
            Ok(got) => assert_eq!(got, want, "t={t}: a corrupt block gave a wrong graph"),
            Err(e) => {
                assert!(
                    t < boundary,
                    "t={t}: shard {} failed: {e}",
                    opened.shard_index_for(t)
                );
                assert!(e.to_string().contains("checksum"), "{e}");
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "no query read the corrupt block");
    assert!(times.iter().any(|&t| t >= boundary));
    let health = opened.health_info();
    assert_eq!(
        health.shards[0].state, "ready",
        "the shard itself is healthy"
    );
    assert_eq!(health.quarantined, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_format_v1_segment_is_refused_by_name() {
    let dir = test_dir("v1");
    let ds = dataset();
    drop(
        ShardedGraphManager::build_durable(&ds.events, config(), &dir, WalSyncPolicy::Off).unwrap(),
    );
    // What a version-1 writer left: seed and event blocks under the old magic.
    let mut v1 = b"DGSEG01\n".to_vec();
    v1.extend(std::iter::repeat_n(0u8, 256));
    std::fs::write(dir.join("segment-00000.seg"), &v1).unwrap();
    let err = match ShardedGraphManager::open(&dir, config(), WalSyncPolicy::Off) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a v1 segment must be refused"),
    };
    assert!(err.contains("DGSEG01") && err.contains("v1"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sealed_shard_refuses_appends_before_any_state_changes() {
    let dir = test_dir("sealed-append");
    let ds = dataset();
    drop(
        ShardedGraphManager::build_durable(&ds.events, config(), &dir, WalSyncPolicy::Off).unwrap(),
    );
    let opened = ShardedGraphManager::open(&dir, config(), WalSyncPolicy::Off).unwrap();
    let shard = opened.shard_at(0).unwrap();
    let opts = AttrOptions::all();
    let end = shard.read().index().history_range().unwrap().1;
    let before = shard.read().index().get_snapshot(end, &opts).unwrap();
    let leaves = shard.read().index().skeleton().leaves().len();
    let epoch = shard.read().append_epoch();
    let late = Event::add_node(end.raw() + 1, 987_654);
    let single = shard.write().append_event(late.clone());
    assert!(matches!(single, Err(DgError::Sealed)), "{single:?}");
    let batch = shard.write().append_batch(vec![late]);
    assert!(matches!(batch, Err(DgError::Sealed)), "{batch:?}");
    let gm = shard.read();
    assert!(gm.index().is_sealed());
    assert_eq!(gm.append_epoch(), epoch);
    assert_eq!(gm.index().skeleton().leaves().len(), leaves);
    assert!(gm.index().recent_events().is_empty());
    assert_eq!(gm.index().get_snapshot(end, &opts).unwrap(), before);
    assert_eq!(
        gm.index()
            .get_snapshot(Timestamp(end.raw() + 1), &opts)
            .unwrap(),
        before
    );
    drop(gm);
    std::fs::remove_dir_all(&dir).ok();
}
