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
//!
//! Binary reply frames are untrusted input too: every golden frame, mutated
//! byte by byte, decodes or is refused as corrupt, and a hostile sequence
//! length reserves no more than the codec's cap.
//!
//! So are a data directory's two record logs, the tail's WAL and
//! `keys.log`: every byte flipped and every cut replays a strict prefix of
//! the records or is refused as corrupt, allocating no more than the file
//! holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use datagen::{churn_trace, ChurnConfig, Dataset};
use deltagraph::{DeltaGraphConfig, DgError, IndexImage};
use historygraph::kvstore::crc::crc32;
use historygraph::kvstore::{KeyValueStore, RecordLog, Segment, StoreError, StoreKey, Wal};
use historygraph::tgraph::codec::{write_varint, Decode, MAX_RESERVE_BYTES};
use historygraph::tgraph::TgError;
use historygraph::{
    GraphManager, GraphManagerConfig, ShardedConfig, ShardedGraphManager, WalSyncPolicy,
};
use histql::wire::{Frame, BINARY_FRAME_VERSION};
use proptest::prelude::*;
use tgraph::{AttrOptions, AttrValue, Event, EventList, NodeId, Timestamp};

/// Records the largest single allocation made on a thread while it is
/// measuring, so the fuzz can bound what hostile lengths make a decoder
/// reserve.
struct Measuring;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    // Per thread, so tests measuring at once do not see each other's
    // allocations.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if MEASURING.with(Cell::get) {
        LARGEST.with(|largest| largest.set(largest.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping beside it touches only
// two const-initialized thread-local cells, neither of which allocates.
unsafe impl GlobalAlloc for Measuring {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` guarantees are passed on as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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
    LARGEST.with(|largest| largest.set(0));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, LARGEST.with(Cell::get))
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

/// The whole frames among the golden wire vectors, as frame payloads (the
/// bytes after the length prefix).
fn golden_payloads() -> Vec<Vec<u8>> {
    include_str!("../crates/histql/testdata/wire_golden.txt")
        .lines()
        .filter(|line| line.starts_with("Response::") || line.starts_with("Frame::"))
        .filter_map(|line| line.split_once(' '))
        .map(|(_, hex)| {
            (8..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        })
        .collect()
}

#[test]
fn mutated_golden_frames_decode_or_refuse() {
    let payloads = golden_payloads();
    assert!(payloads.len() >= 21, "{} golden frames", payloads.len());
    let check = |bytes: &[u8], what: &str| {
        let (got, largest) = largest_allocation(|| Frame::from_payload(bytes));
        assert!(
            matches!(got, Ok(_) | Err(TgError::Codec(_))),
            "{what}: {got:?}"
        );
        assert!(
            largest <= MAX_RESERVE_BYTES + bytes.len(),
            "{what}: allocated {largest} for {} bytes",
            bytes.len()
        );
    };
    for payload in &payloads {
        let mut bytes = payload.clone();
        for at in 0..bytes.len() {
            for flip in 1..=u8::MAX {
                bytes[at] ^= flip;
                check(
                    &bytes,
                    &format!("byte {at} ^ {flip:#04x} of {payload:02x?}"),
                );
                bytes[at] ^= flip;
            }
        }
        for len in 0..payload.len() {
            check(&payload[..len], &format!("{payload:02x?} cut at {len}"));
        }
        bytes.push(0);
        check(&bytes, &format!("{payload:02x?} plus a byte"));
        assert!(Frame::from_payload(&bytes).is_err());
    }
}

#[test]
fn a_hostile_sequence_length_reserves_no_more_than_the_cap() {
    // A 1 MiB payload: version, envelope tag 0, `Shards` (tag 13), then a
    // count of one `ShardInfo` per byte left. Every byte after it is 2: the
    // first entry's index, then an `Option` tag no `lower` can have.
    let mut payload = vec![BINARY_FRAME_VERSION, 0, 13];
    write_varint(&mut payload, (1 << 20) - 6);
    assert_eq!(payload.len(), 6);
    payload.resize(1 << 20, 2);
    let (got, largest) = largest_allocation(|| Frame::from_payload(&payload));
    assert!(matches!(got, Err(TgError::Codec(_))), "{got:?}");
    assert!(
        largest <= MAX_RESERVE_BYTES,
        "decoding reserved {largest} bytes at once"
    );
}

/// Replays `path` as a WAL (`keys = false`) or as `keys.log`, returning
/// each record decoded and rendered for comparison.
fn replay_log(path: &Path, keys: bool) -> Result<Vec<String>, StoreError> {
    if !keys {
        let replay = Wal::open(path, WalSyncPolicy::Off)?;
        return Ok(replay.events.iter().map(|e| format!("{e:?}")).collect());
    }
    let mut bindings = Vec::new();
    RecordLog::open(path, |payload| {
        let binding = <(String, u64)>::from_bytes(payload).map_err(|e| e.to_string())?;
        bindings.push(format!("{binding:?}"));
        Ok(())
    })?;
    Ok(bindings)
}

#[test]
fn mutated_record_logs_replay_a_strict_prefix_or_refuse() {
    let dir = test_dir("logs");
    let events = EventList::from_events(vec![Event::add_node(1, 1), Event::add_node(2, 2)]);
    let router = ShardedGraphManager::build_durable(
        &events,
        ShardedConfig::default(),
        &dir,
        WalSyncPolicy::Off,
    )
    .unwrap();
    router.append_event(Event::add_edge(3, 7, 1, 2)).unwrap();
    router
        .append_event(Event::set_node_attr(
            4,
            1,
            "name",
            None,
            Some(AttrValue::from("ada")),
        ))
        .unwrap();
    for (key, node) in [("alice", 1), ("bob", 2), ("carol", 1)] {
        router.register_key(key, NodeId(node));
    }
    router.sync_storage().unwrap();
    drop(router);

    let mutated = dir.join("mutated.log");
    for (name, keys) in [("wal-00000.log", false), ("keys.log", true)] {
        let original = std::fs::read(dir.join(name)).unwrap();
        let whole = replay_log(&dir.join(name), keys).unwrap();
        assert!(whole.len() >= 3, "{name}: {whole:?}");
        let check = |bytes: &[u8], what: &str| {
            std::fs::write(&mutated, bytes).unwrap();
            let (got, largest) = largest_allocation(|| replay_log(&mutated, keys));
            assert!(
                largest <= bytes.len() + SLACK,
                "{name} {what}: replay allocated {largest} for {} bytes",
                bytes.len()
            );
            match got {
                Ok(records) => assert!(
                    records.len() < whole.len() && records == whole[..records.len()],
                    "{name} {what}: replayed {records:?}, not a strict prefix of {whole:?}"
                ),
                Err(StoreError::Corruption(_)) => {}
                Err(other) => panic!("{name} {what}: expected corruption, got {other}"),
            }
        };
        for at in 0..original.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bytes = original.clone();
                bytes[at] ^= flip;
                check(&bytes, &format!("byte {at} ^ {flip:#04x}"));
            }
        }
        for cut in 0..original.len() {
            check(&original[..cut], &format!("cut at {cut}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One request line per verb: the `HELP` examples of the query shell,
/// histbench's script shapes, string keys with escapes, and a `GET GRAPHS
/// AT` line as long as the server reads.
fn query_lines() -> Vec<String> {
    let mut lines: Vec<String> = [
        "GET GRAPH AT 1976 WITH +node:all+edge:all",
        "GET GRAPHS AT 1941, 1976, 2012",
        "GET GRAPH BETWEEN 1941 AND 2012",
        "GET GRAPH MATCHING 1976 AND NOT (2012 OR 1941)",
        "DIFF 2012 1976",
        "BIND alice 1",
        "NODE alice AT 1976",
        "HISTORY NODE alice FROM 1941 TO 2012",
        "APPEND NODE 2013 777",
        "STATS",
        "RELEASE ALL",
        "QUIT",
        "GET GRAPH AT 500000 WITH +node:all",
        "HISTORY NODE k3 FROM 120000 TO 180000 STEP 20000",
        "APPEND BATCH NODE 1000001 7 ; NODE 1000001 8 ; EDGE 1000001 9 7 8",
        r#"BIND "al\"i\\ce\n" 1"#,
        r#"NODE "al\"i\\ce\t" AT -5"#,
    ]
    .map(String::from)
    .to_vec();
    let mut long = String::from("GET GRAPHS AT 1000000");
    let mut t = 1_000_000;
    while long.len() + 10 <= server::MAX_LINE_BYTES {
        t += 7;
        long.push_str(&format!(", {t}"));
    }
    lines.push(long);
    lines
}

#[test]
fn mutated_query_lines_parse_or_refuse() {
    // The lexer keeps at most one token per byte, in a vector that grows by
    // doubling; nothing else a line asks for is as large.
    let per_byte = 2 * std::mem::size_of::<histql::lexer::Spanned>();
    let check = |bytes: &[u8], what: &dyn Fn() -> String| {
        // The server reads a line as lossy UTF-8.
        let line = String::from_utf8_lossy(bytes);
        let (parsed, largest) =
            largest_allocation(|| std::panic::catch_unwind(|| histql::parse(&line).is_ok()));
        assert!(parsed.is_ok(), "{}: parse panicked", what());
        assert!(
            largest <= per_byte * line.len() + SLACK,
            "{}: allocated {largest} for {} bytes",
            what(),
            line.len()
        );
    };
    for line in query_lines() {
        let original = line.into_bytes();
        let len = original.len();
        let head = String::from_utf8_lossy(&original[..len.min(48)]).into_owned();
        // Every offset of a line, except in the middle of the long one: a
        // run of 9-byte list items, sampled at a stride of 61 so each
        // offset within an item is hit over a hundred times. (Every offset
        // of it takes minutes in a debug build.)
        let offsets = (0..len).filter(|&at| at < 512 || at + 512 >= len || at % 61 == 0);
        let mut bytes = original.clone();
        for at in offsets.clone() {
            for flip in [0x01, 0x80, 0xff] {
                bytes[at] ^= flip;
                check(&bytes, &|| format!("{head:?}…: byte {at} ^ {flip:#04x}"));
                bytes[at] ^= flip;
            }
        }
        for cut in offsets {
            check(&original[..cut], &|| format!("{head:?}… cut at {cut}"));
        }
        bytes.push(b'7');
        check(&bytes, &|| format!("{head:?}… plus a byte"));
    }
}
