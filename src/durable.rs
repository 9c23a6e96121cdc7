//! Durable backing for a sharded deployment: directory layout, manifest,
//! and the crash-atomic roll protocol.
//!
//! A durable [`crate::ShardedGraphManager`] keeps one directory:
//!
//! ```text
//! data/
//!   MANIFEST             # which files below are authoritative
//!   LOCK                 # pid of the process owning this directory
//!   keys.log             # BIND name→node records (append-only)
//!   segment-00000.seg    # sealed historical shard 0's DeltaGraph (write-once)
//!   segment-00001.seg    # sealed historical shard 1's DeltaGraph
//!   tailseed-00002.seg   # the tail shard's seed events (write-once)
//!   wal-00002.log        # the tail shard's append log (grows)
//! ```
//!
//! Sealed shards are immutable [`Segment`] files, each holding its shard's
//! DeltaGraph: the payload blocks, the key table, and the skeleton with the
//! construction parameters. Opening one reads only its footer, key table,
//! meta and skeleton; hydrating it assembles a read-only index over the
//! file, which fetches payloads on demand. The tail shard is the pair
//! *tailseed + WAL* (the tailseed a segment file holding one block, the
//! seed events): its state is always the seed replayed, then every WAL
//! record in order, and it is rebuilt on first touch. The `MANIFEST`
//! (written via temp file + fsync + atomic rename) names the generation,
//! so a crash anywhere during a roll leaves either the old generation
//! (trigger event unacknowledged, correctly absent) or the new one — never
//! a mix. Files of an incomplete roll are deleted as orphans on the next
//! open.
//!
//! Rolling the tail (generation `g` → `g+1`) performs, in order:
//!
//! 1. seal `segment-g.seg` from the old tail's index, rebuilt balanced,
//! 2. write `tailseed-(g+1).seg` with the new tail's seed events,
//! 3. create `wal-(g+1).log` holding the roll-triggering event, fsynced,
//! 4. atomically swap the `MANIFEST` to generation `g+1`,
//! 5. delete the old generation's tailseed and WAL (best-effort).
//!
//! Only step 4 commits; everything before it is invisible to recovery.
//!
//! # Failure handling
//!
//! IO errors on the write path are *classified*: transient kinds
//! (`Interrupted`, `WouldBlock`, `TimedOut`) are retried a bounded number
//! of times with exponential backoff and jitter; everything else (ENOSPC,
//! EIO, failed fsync) is fatal. A fatal failure while appending rolls the
//! write-ahead record back and flips the tail to **read-only degraded
//! mode**: reads keep serving from the already-applied state, appends are
//! refused with a typed [`StoreError::Degraded`], and the process never
//! aborts. See `docs/RELIABILITY.md`.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use deltagraph::{DeltaGraph, DgError, DgResult, IndexImage};
use kvstore::disk::crc32;
use kvstore::faults;
use kvstore::wal::{Wal, WalSyncPolicy};
use kvstore::{ComponentKind, KeyValueStore, Segment, SegmentMeta, StoreError, StoreKey};
use tgraph::codec::{Decode, Encode, Reader};
use tgraph::{Event, Timestamp};

/// The manifest's first line; bump on incompatible layout changes.
const MANIFEST_HEADER: &str = "historygraph-manifest v1";

fn corrupt(msg: impl Into<String>) -> DgError {
    DgError::Store(StoreError::Corruption(msg.into()))
}

fn io_err(e: std::io::Error) -> DgError {
    DgError::Store(StoreError::Io(e))
}

pub(crate) fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:05}.seg"))
}

fn tailseed_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("tailseed-{gen:05}.seg"))
}

fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:05}.log"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

fn lock_path(dir: &Path) -> PathBuf {
    dir.join("LOCK")
}

fn keys_path(dir: &Path) -> PathBuf {
    dir.join("keys.log")
}

/// The one block of a tailseed file: the tail's seed events.
const SEED_KEY: StoreKey = StoreKey {
    partition: 0,
    delta_id: 0,
    component: ComponentKind::Meta,
};

/// The blocks of a tailseed file holding `seed`.
fn tailseed_blocks(seed: &[Event]) -> [(StoreKey, Vec<u8>); 1] {
    let mut bytes = Vec::new();
    seed.len().encode(&mut bytes);
    for event in seed {
        event.encode(&mut bytes);
    }
    [(SEED_KEY, bytes)]
}

/// Reads generation `gen`'s tailseed file: its meta and seed events.
fn read_tailseed(path: &Path, gen: u64) -> DgResult<(SegmentMeta, Vec<Event>)> {
    let file = Segment::open(path)?;
    let malformed = || corrupt(format!("tailseed for generation {gen} is malformed"));
    if file.meta().shard_index != gen || !file.index_bytes().is_empty() {
        return Err(malformed());
    }
    let bytes = file.get(SEED_KEY)?.ok_or_else(malformed)?;
    let seed = Vec::<Event>::from_bytes(&bytes).map_err(|e| {
        corrupt(format!(
            "tailseed for generation {gen} has bad seed events: {e}"
        ))
    })?;
    Ok((file.meta().clone(), seed))
}

/// Seals `index` into the segment file at `path`: every payload block its
/// skeleton names, plus its image. Returns the file's size.
fn write_sealed(
    path: &Path,
    meta: &SegmentMeta,
    index: &DeltaGraph,
    retries: &mut u64,
) -> DgResult<u64> {
    let (image, blocks) = index.sealed_parts()?;
    retried(retries, || Ok(Segment::write(path, meta, &blocks, &image)?))?;
    Ok(std::fs::metadata(path).map_err(io_err)?.len())
}

/// Transient IO retries before giving up on an operation.
const MAX_IO_RETRIES: u32 = 4;

/// Whether an error is worth retrying: the OS said "try again", not "this
/// device is broken". ENOSPC, EIO, and failed fsyncs are fatal.
fn is_transient(e: &DgError) -> bool {
    matches!(
        e,
        DgError::Store(StoreError::Io(io)) if matches!(
            io.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        )
    )
}

/// Cheap process-wide pseudo-random value in `0..cap` for backoff jitter
/// (std-only; quality does not matter here, decorrelation does).
fn jitter(cap: u64) -> u64 {
    static SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let mut x = SEED.fetch_add(0xA076_1D64_78BD_642F, Ordering::Relaxed);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x % cap.max(1)
}

/// Sleeps for the `attempt`-th backoff: exponential base with jitter.
fn backoff(attempt: u32) {
    let base_ms = 1u64 << attempt.min(6);
    std::thread::sleep(Duration::from_millis(base_ms / 2 + jitter(base_ms)));
}

/// Runs `op`, retrying transient errors up to [`MAX_IO_RETRIES`] times with
/// exponential backoff + jitter. Fatal errors propagate immediately.
/// `retries` counts the retries actually performed.
fn retried<T>(retries: &mut u64, mut op: impl FnMut() -> DgResult<T>) -> DgResult<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(e) if attempt < MAX_IO_RETRIES && is_transient(&e) => {
                attempt += 1;
                *retries += 1;
                backoff(attempt);
            }
            other => return other,
        }
    }
}

/// Exclusive ownership of a data directory, held as a `LOCK` file naming
/// the owning pid and removed on drop.
struct DirLock {
    path: PathBuf,
}

impl Drop for DirLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Whether the process `pid` is still running (so its lock is not stale).
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        true // no cheap liveness probe: never treat a lock as stale
    }
}

/// Takes the exclusive lock on `dir`, reclaiming a stale lock left by a
/// dead process. A lock held by a live process is a clear, typed error —
/// two writers on one directory would corrupt it.
fn acquire_dir_lock(dir: &Path) -> DgResult<DirLock> {
    let path = lock_path(dir);
    for _ in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = write!(f, "{}", std::process::id());
                let _ = f.sync_data();
                return Ok(DirLock { path });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&path).unwrap_or_default();
                match holder.trim().parse::<u32>() {
                    Ok(pid) if !pid_alive(pid) => {
                        // Stale lock from a dead process: reclaim and retry.
                        std::fs::remove_file(&path).ok();
                    }
                    parsed => {
                        let who = parsed
                            .map(|p| format!("pid {p}"))
                            .unwrap_or_else(|_| "another process".to_string());
                        return Err(DgError::InvalidParameter(format!(
                            "data directory {} is locked by {who}; remove {} if that process is gone",
                            dir.display(),
                            path.display()
                        )));
                    }
                }
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    Err(DgError::InvalidParameter(format!(
        "could not acquire the lock on data directory {} (another process keeps taking it)",
        dir.display()
    )))
}

/// Appends one `BIND` record (`u32 len | u32 crc | key, node`) and fsyncs
/// it — binds are rare, so per-record durability is cheap.
fn append_key_record(file: &mut File, path: &Path, key: &str, node: u64) -> DgResult<()> {
    let mut payload = Vec::new();
    key.to_string().encode(&mut payload);
    node.encode(&mut payload);
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    faults::write_all(file, &rec, "keys.append", path).map_err(io_err)?;
    file.sync_data().map_err(io_err)?;
    Ok(())
}

/// Reads every intact key-binding record; a torn or checksum-failing tail
/// (crash mid-bind) silently ends the log, like the WAL's torn tail.
fn read_keys(dir: &Path) -> Vec<(String, u64)> {
    let Ok(data) = std::fs::read(keys_path(dir)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let len =
            u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]) as usize;
        let crc_stored =
            u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|&e| e <= data.len()) else {
            break;
        };
        let payload = &data[start..end];
        if crc32(payload) != crc_stored {
            break;
        }
        let mut r = Reader::new(payload);
        match (String::decode(&mut r), u64::decode(&mut r)) {
            (Ok(key), Ok(node)) => out.push((key, node)),
            _ => break,
        }
        pos = end;
    }
    out
}

/// Whether `dir` holds a recoverable deployment (i.e. a committed manifest).
pub fn is_durable_dir(dir: impl AsRef<Path>) -> bool {
    manifest_path(dir.as_ref()).is_file()
}

/// Writes the manifest atomically: temp file, fsync, rename, directory
/// fsync. `tail_gen` always equals the number of sealed segments.
fn write_manifest(dir: &Path, tail_gen: u64) -> DgResult<()> {
    let tmp = dir.join("MANIFEST.tmp");
    faults::check("manifest.open", &tmp).map_err(io_err)?;
    let mut f = File::create(&tmp).map_err(io_err)?;
    let text = format!("{MANIFEST_HEADER}\nsegments {tail_gen}\ntail {tail_gen}\n");
    faults::write_all(&mut f, text.as_bytes(), "manifest.write", &tmp).map_err(io_err)?;
    faults::check("manifest.sync", &tmp).map_err(io_err)?;
    f.sync_data().map_err(io_err)?;
    drop(f);
    faults::check("manifest.rename", &tmp).map_err(io_err)?;
    std::fs::rename(&tmp, manifest_path(dir)).map_err(io_err)?;
    File::open(dir)
        .and_then(|d| d.sync_data())
        .map_err(io_err)?;
    Ok(())
}

fn read_manifest(dir: &Path) -> DgResult<u64> {
    let text = std::fs::read_to_string(manifest_path(dir)).map_err(io_err)?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(corrupt(format!(
            "unrecognized manifest header in {}",
            dir.display()
        )));
    }
    let mut segments: Option<u64> = None;
    let mut tail: Option<u64> = None;
    for line in lines {
        match line.split_once(' ') {
            Some(("segments", n)) => segments = n.parse().ok(),
            Some(("tail", n)) => tail = n.parse().ok(),
            _ => {}
        }
    }
    match (segments, tail) {
        (Some(s), Some(t)) if s == t => Ok(t),
        _ => Err(corrupt(format!(
            "inconsistent manifest in {}",
            dir.display()
        ))),
    }
}

/// One shard's full contents as planned at build time, or the tail's as
/// recovered from disk: its routing lower bound, synthetic seed events,
/// and real events.
pub(crate) struct ShardPlan {
    pub lower: Option<Timestamp>,
    pub seed: Vec<Event>,
    pub events: Vec<Event>,
}

/// A sealed shard as recovered: its opened segment (a read-only store of
/// its payloads) and the decoded image naming them.
pub(crate) struct SealedShard {
    pub segment: Arc<Segment>,
    pub image: IndexImage,
}

impl SealedShard {
    /// Inclusive lower bound of the shard's time range.
    pub fn lower(&self) -> Option<Timestamp> {
        self.segment.meta().lower
    }

    /// Real (non-seed) events the shard's index holds.
    pub fn events(&self) -> usize {
        self.image
            .skeleton
            .intervals()
            .iter()
            .map(|iv| iv.event_count)
            .sum()
    }
}

/// What [`DurableState::open`] recovers beside the storage state.
pub(crate) struct Recovered {
    /// The sealed shards, in shard order.
    pub sealed: Vec<SealedShard>,
    /// The tail: its seed events and the WAL's events.
    pub tail: ShardPlan,
    /// Key bindings from `keys.log`.
    pub keys: Vec<(String, u64)>,
}

/// The live durable-storage state of a sharded deployment. Owned by the
/// router behind a mutex; every operation here assumes the caller already
/// serialized appends (the tail shard's write lock) or rolls (the router's
/// exclusive lock).
pub(crate) struct DurableState {
    dir: PathBuf,
    wal: Wal,
    /// The tail generation: `tail_gen` sealed segments exist below it.
    tail_gen: u64,
    /// Sum of sealed segment file sizes.
    segment_bytes: u64,
    /// WAL appends across generations (this process; recovery replays are
    /// not counted).
    appends_before_gen: u64,
    /// Fsyncs across generations (this process).
    fsyncs_before_gen: u64,
    /// Bytes truncated from the WAL tail at the last recovery.
    pub torn_bytes: u64,
    /// Torn-tail truncations performed at the last recovery (0 or 1, plus
    /// 1 more if a trailing never-applied record had to be dropped).
    pub torn_truncations: u64,
    /// Wall-clock milliseconds the last recovery took (0 for a fresh
    /// build). Set by the router once the shards are rebuilt.
    pub recovery_ms: u64,
    /// Transient IO errors that were retried on the write path.
    retries: u64,
    /// `Some(reason)` after a fatal tail-write failure: appends are refused
    /// with [`StoreError::Degraded`], reads keep serving.
    degraded: Option<String>,
    /// Open append handle for the key-binding log.
    keys_file: File,
    /// Exclusive data-dir lock, removed when this state drops.
    _lock: DirLock,
}

impl DurableState {
    /// Creates a fresh deployment at `dir` from build-time shard plans and
    /// the indexes built from them: one sealed segment per historical shard
    /// (`sealed[i]` is plan `i`'s index), a tailseed + WAL pair for the tail
    /// (the WAL pre-loaded with the tail's real events), and the committing
    /// manifest. Any previous deployment in `dir` is replaced.
    pub fn initialize(
        dir: &Path,
        policy: WalSyncPolicy,
        plans: &[ShardPlan],
        sealed: &[&DeltaGraph],
    ) -> DgResult<Self> {
        let Some((tail, sealed_plans)) = plans.split_last() else {
            return Err(DgError::InvalidParameter(
                "cannot initialize durable storage from zero shard plans".into(),
            ));
        };
        if sealed.len() != sealed_plans.len() {
            return Err(DgError::InvalidParameter(format!(
                "{} sealed shard plans but {} indexes",
                sealed_plans.len(),
                sealed.len()
            )));
        }
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let lock = acquire_dir_lock(dir)?;
        // Drop any stale manifest first so a crash mid-initialize can never
        // pair an old manifest with new files. Stale key bindings go too.
        std::fs::remove_file(manifest_path(dir)).ok();
        std::fs::remove_file(keys_path(dir)).ok();
        let mut retries = 0u64;
        let tail_gen = sealed.len() as u64;
        let mut segment_bytes = 0u64;
        for (i, (plan, index)) in sealed_plans.iter().zip(sealed).enumerate() {
            let meta = SegmentMeta {
                shard_index: i as u64,
                lower: plan.lower,
            };
            segment_bytes +=
                write_sealed(&segment_path(dir, i as u64), &meta, index, &mut retries)?;
        }
        let tailseed_meta = SegmentMeta {
            shard_index: tail_gen,
            lower: tail.lower,
        };
        let tailseed_file = tailseed_path(dir, tail_gen);
        let seed_blocks = tailseed_blocks(&tail.seed);
        retried(&mut retries, || {
            Ok(Segment::write(
                &tailseed_file,
                &tailseed_meta,
                &seed_blocks,
                &[],
            )?)
        })?;
        let mut wal = Wal::create(wal_path(dir, tail_gen), policy)?;
        for ev in &tail.events {
            wal.append(ev)?;
        }
        wal.sync()?;
        retried(&mut retries, || write_manifest(dir, tail_gen))?;
        let keys_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(keys_path(dir))
            .map_err(io_err)?;
        Ok(DurableState {
            dir: dir.to_path_buf(),
            wal,
            tail_gen,
            segment_bytes,
            appends_before_gen: 0,
            fsyncs_before_gen: 0,
            torn_bytes: 0,
            torn_truncations: 0,
            recovery_ms: 0,
            retries,
            degraded: None,
            keys_file,
            _lock: lock,
        })
    }

    /// Opens an existing deployment: reads the manifest; opens every sealed
    /// segment — footer, key table, meta and skeleton, checksums verified,
    /// no payload block or event read — and decodes its image; loads the
    /// tail pair (truncating a torn WAL tail); deletes orphan files from an
    /// incomplete roll. Returns the storage state and what it recovered.
    /// The caller assembles the shards and records
    /// [`DurableState::recovery_ms`].
    pub fn open(dir: &Path, policy: WalSyncPolicy) -> DgResult<(Self, Recovered)> {
        let lock = acquire_dir_lock(dir)?;
        let tail_gen = read_manifest(dir)?;
        // The manifest is untrusted input: a segment count the directory
        // cannot hold is corruption, and never sizes an allocation or a loop.
        let files = std::fs::read_dir(dir).map_err(io_err)?.count() as u64;
        if tail_gen > files {
            return Err(corrupt(format!(
                "manifest in {} lists {tail_gen} segments, but the directory holds {files} files",
                dir.display()
            )));
        }
        let mut sealed = Vec::new();
        let mut segment_bytes = 0u64;
        for i in 0..tail_gen {
            let path = segment_path(dir, i);
            let segment = Segment::open(&path)?;
            if segment.meta().shard_index != i {
                return Err(corrupt(format!(
                    "segment {} claims shard index {}, expected {i}",
                    path.display(),
                    segment.meta().shard_index
                )));
            }
            let image = IndexImage::from_bytes(segment.index_bytes()).map_err(|e| {
                corrupt(format!(
                    "segment {} has a bad skeleton: {e}",
                    path.display()
                ))
            })?;
            segment_bytes += segment.file_len();
            sealed.push(SealedShard {
                segment: Arc::new(segment),
                image,
            });
        }
        let (tailseed, seed) = read_tailseed(&tailseed_path(dir, tail_gen), tail_gen)?;
        let replay = Wal::open(wal_path(dir, tail_gen), policy)?;
        let tail = ShardPlan {
            lower: tailseed.lower,
            seed,
            events: replay.events,
        };
        let keys = read_keys(dir);
        let keys_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(keys_path(dir))
            .map_err(io_err)?;
        let state = DurableState {
            dir: dir.to_path_buf(),
            wal: replay.wal,
            tail_gen,
            segment_bytes,
            appends_before_gen: 0,
            fsyncs_before_gen: 0,
            torn_bytes: replay.torn_bytes,
            torn_truncations: u64::from(replay.torn_bytes > 0),
            recovery_ms: 0,
            retries: 0,
            degraded: None,
            keys_file,
            _lock: lock,
        };
        state.remove_orphans();
        Ok((state, Recovered { sealed, tail, keys }))
    }

    /// Deletes files a crash mid-roll or mid-initialize left behind: any
    /// segment at or past the tail generation, and any tailseed/WAL of
    /// another generation. All best-effort.
    fn remove_orphans(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = parse_numbered(name, "segment-", ".seg")
                .is_some_and(|i| i >= self.tail_gen)
                || parse_numbered(name, "tailseed-", ".seg").is_some_and(|g| g != self.tail_gen)
                || parse_numbered(name, "wal-", ".log").is_some_and(|g| g != self.tail_gen)
                || name == "MANIFEST.tmp"
                || name.ends_with(".seg.tmp");
            if stale {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }

    /// Appends events write-ahead of the in-memory apply, as one unit: every
    /// record lands or none do. A single event is a one-record batch.
    /// Returns the start offset — [`DurableState::rollback`] with it removes
    /// the entire batch, never leaving a prefix on disk.
    ///
    /// Retry and degradation accounting is per *batch*, not per event: a
    /// transient fault truncates back to the batch start (dropping any
    /// partial record), counts one retry, and rewrites the whole batch. A
    /// fatal fault rolls the batch back best-effort and flips the tail to
    /// read-only degraded mode: this and every later append returns
    /// [`StoreError::Degraded`], reads keep serving, and the process stays
    /// up.
    pub fn append_batch(&mut self, events: &[Event]) -> DgResult<u64> {
        if let Some(reason) = &self.degraded {
            return Err(DgError::Store(StoreError::Degraded(format!(
                "tail shard is read-only: {reason}"
            ))));
        }
        let start = self.wal.len();
        let mut attempt = 0u32;
        let err = loop {
            let failed = events
                .iter()
                .find_map(|ev| self.wal.append(ev).err().map(DgError::from));
            match failed {
                None => return Ok(start),
                Some(e) => {
                    if attempt < MAX_IO_RETRIES && is_transient(&e) {
                        attempt += 1;
                        self.retries += 1;
                        // Cut the partial batch (and any torn record) back to
                        // the batch boundary before rewriting it whole.
                        if self.wal.truncate_to(start).is_err() {
                            break e;
                        }
                        backoff(attempt);
                    } else {
                        break e;
                    }
                }
            }
        };
        // Fatal: undo the partial batch (best-effort — recovery repairs a
        // torn tail anyway) and degrade instead of crashing.
        self.wal.truncate_to(start).ok();
        self.degraded = Some(err.to_string());
        // The error reaches clients verbatim; it names a batch only when
        // there is one.
        let what = if events.len() == 1 { "" } else { " batch" };
        Err(DgError::Store(StoreError::Degraded(format!(
            "tail{what} append failed, shard now read-only: {err}"
        ))))
    }

    /// Undoes the record(s) written from `offset` after the in-memory apply
    /// rejected the event or batch.
    pub fn rollback(&mut self, offset: u64) -> DgResult<()> {
        Ok(self.wal.truncate_to(offset)?)
    }

    /// The crash-atomic roll protocol (module docs): seals the current tail
    /// into a segment — `sealed` is its index, rebuilt balanced by the
    /// caller — starts generation `tail_gen + 1` whose WAL holds the
    /// roll-triggering `events` (one for a plain `APPEND`, the whole batch
    /// for an `APPEND BATCH` — a recovered tail never sees a batch prefix),
    /// and commits by swapping the manifest.
    /// Nothing is visible to recovery until the swap; after `Ok` the caller
    /// must install the new in-memory tail shard.
    /// A failure anywhere before the commit point leaves the old generation
    /// authoritative (the trigger events correctly unacknowledged); transient
    /// errors at each step are retried before giving up.
    pub fn roll(
        &mut self,
        boundary: Timestamp,
        new_seed: &[Event],
        events: &[Event],
        sealed: &DeltaGraph,
    ) -> DgResult<()> {
        if let Some(reason) = &self.degraded {
            return Err(DgError::Store(StoreError::Degraded(format!(
                "tail shard is read-only: {reason}"
            ))));
        }
        let old_gen = self.tail_gen;
        let new_gen = old_gen + 1;
        let mut retries = 0u64;
        // 1. Seal: the old tail's index goes into its segment under the
        //    identity its tailseed was written with.
        let wal = &mut self.wal;
        retried(&mut retries, || Ok(wal.sync()?))?;
        let old_meta = Segment::open(tailseed_path(&self.dir, old_gen))?
            .meta()
            .clone();
        let sealed_path = segment_path(&self.dir, old_gen);
        let sealed_bytes = write_sealed(&sealed_path, &old_meta, sealed, &mut retries)?;
        // 2–3. The new generation's tailseed and WAL (trigger event synced
        //      before the commit point so an acked roll survives a crash).
        let new_meta = SegmentMeta {
            shard_index: new_gen,
            lower: Some(boundary),
        };
        let new_tailseed_path = tailseed_path(&self.dir, new_gen);
        let seed_blocks = tailseed_blocks(new_seed);
        retried(&mut retries, || {
            Ok(Segment::write(
                &new_tailseed_path,
                &new_meta,
                &seed_blocks,
                &[],
            )?)
        })?;
        let new_wal_path = wal_path(&self.dir, new_gen);
        let policy = self.wal.policy();
        let mut new_wal = retried(&mut retries, || Ok(Wal::create(&new_wal_path, policy)?))?;
        retried(&mut retries, || {
            // Restart the trigger records from scratch on each retry: the
            // fresh log is empty, so truncating to zero is always right.
            new_wal.truncate_to(0)?;
            for event in events {
                new_wal.append(event)?;
            }
            Ok(new_wal.sync()?)
        })?;
        // 4. Commit.
        retried(&mut retries, || write_manifest(&self.dir, new_gen))?;
        self.retries += retries;
        // 5. Best-effort cleanup; orphan removal at the next open catches
        //    anything missed.
        std::fs::remove_file(tailseed_path(&self.dir, old_gen)).ok();
        std::fs::remove_file(wal_path(&self.dir, old_gen)).ok();
        self.segment_bytes += sealed_bytes;
        self.appends_before_gen += self.wal.appends();
        self.fsyncs_before_gen += self.wal.fsyncs();
        self.wal = new_wal;
        self.tail_gen = new_gen;
        Ok(())
    }

    /// Drops the last WAL record: recovery's second chance when the rebuild
    /// rejects the final replayed event (a crash between the write-ahead
    /// and the rollback of a failed apply leaves exactly one such record).
    pub fn drop_last_wal_record(&mut self, record_len: u64) -> DgResult<()> {
        let new_len = self.wal.len().saturating_sub(record_len);
        self.wal.truncate_to(new_len)?;
        self.wal.sync()?;
        self.torn_bytes += record_len;
        self.torn_truncations += 1;
        Ok(())
    }

    /// Forces any buffered WAL bytes down now (shutdown path). A no-op in
    /// degraded mode: the tail is read-only and the device already failed.
    pub fn sync(&mut self) -> DgResult<()> {
        if self.degraded.is_some() {
            return Ok(());
        }
        Ok(self.wal.sync()?)
    }

    /// Durably records one key binding so `BIND` names survive restart.
    /// Refused (like all writes) while degraded.
    pub fn record_key(&mut self, key: &str, node: u64) -> DgResult<()> {
        if let Some(reason) = &self.degraded {
            return Err(DgError::Store(StoreError::Degraded(format!(
                "tail shard is read-only: {reason}"
            ))));
        }
        let mut retries = 0u64;
        let path = keys_path(&self.dir);
        let keys_file = &mut self.keys_file;
        let result = retried(&mut retries, || {
            append_key_record(keys_file, &path, key, node)
        });
        self.retries += retries;
        result
    }

    /// Whether a fatal write failure flipped the tail to read-only.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The error that degraded the tail, or `None` while healthy.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Transient IO errors retried on the write path so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Number of sealed segment files.
    pub fn segments(&self) -> u64 {
        self.tail_gen
    }

    /// Total bytes of sealed segment files.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Current WAL length in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// WAL appends this process performed (all generations).
    pub fn wal_appends(&self) -> u64 {
        self.appends_before_gen + self.wal.appends()
    }

    /// WAL fsyncs this process performed (all generations).
    pub fn wal_fsyncs(&self) -> u64 {
        self.fsyncs_before_gen + self.wal.fsyncs()
    }

    /// The configured sync policy.
    pub fn policy(&self) -> WalSyncPolicy {
        self.wal.policy()
    }
}

/// Parses `prefix<number>suffix` file names.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltagraph::DeltaGraphConfig;
    use kvstore::MemStore;
    use tgraph::{AttrOptions, NodeId, Snapshot};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("durable-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plan(lower: Option<i64>, seed: Vec<Event>, events: Vec<Event>) -> ShardPlan {
        ShardPlan {
            lower: lower.map(Timestamp),
            seed,
            events,
        }
    }

    /// The index a shard plan builds, as the router builds it.
    fn index_of(plan: &ShardPlan) -> DeltaGraph {
        let mut state = Snapshot::new();
        state.apply_events_forward(&plan.seed).unwrap();
        let seed_time = crate::manager::seeded_start(&plan.seed, &plan.events).unwrap();
        DeltaGraph::build_seeded(
            state,
            seed_time,
            &plan.events,
            DeltaGraphConfig::default(),
            Arc::new(MemStore::new()),
        )
        .unwrap()
    }

    /// Initializes `dir` from `plans`, building every sealed shard's index.
    fn initialize(dir: &Path, plans: &[ShardPlan]) -> DurableState {
        let indexes: Vec<DeltaGraph> = plans[..plans.len() - 1].iter().map(index_of).collect();
        let sealed: Vec<&DeltaGraph> = indexes.iter().collect();
        DurableState::initialize(dir, WalSyncPolicy::Always, plans, &sealed).unwrap()
    }

    /// The recovered sealed shard's snapshot at `t`, served from its segment.
    fn sealed_snapshot(shard: &SealedShard, t: i64) -> Snapshot {
        let store = Arc::clone(&shard.segment) as Arc<dyn KeyValueStore>;
        DeltaGraph::open_sealed(shard.image.clone(), store, 1)
            .get_snapshot(Timestamp(t), &AttrOptions::all())
            .unwrap()
    }

    fn node_ids(snap: &Snapshot) -> Vec<u64> {
        let mut ids: Vec<u64> = snap.node_ids().map(|n: NodeId| n.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn initialize_open_round_trip() {
        let dir = tmpdir("init");
        let plans = vec![
            plan(
                None,
                vec![],
                vec![Event::add_node(1, 1), Event::add_node(2, 2)],
            ),
            plan(
                Some(10),
                vec![Event::add_node(9, 1), Event::add_node(9, 2)],
                vec![Event::add_node(10, 3)],
            ),
        ];
        let st = initialize(&dir, &plans);
        assert_eq!(st.segments(), 1);
        assert!(st.wal_bytes() > 0);
        drop(st);

        let (st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(recovered.sealed.len(), 1);
        let sealed = &recovered.sealed[0];
        assert_eq!(sealed.lower(), None);
        assert_eq!(sealed.events(), 2);
        assert_eq!(node_ids(&sealed_snapshot(sealed, 2)), vec![1, 2]);
        assert_eq!(recovered.tail.lower, Some(Timestamp(10)));
        assert_eq!(recovered.tail.seed.len(), 2);
        assert_eq!(recovered.tail.events, vec![Event::add_node(10, 3)]);
        assert_eq!(st.torn_truncations, 0);
        assert!(recovered.keys.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roll_commits_atomically_and_cleans_up() {
        let dir = tmpdir("roll");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = initialize(&dir, &plans);
        st.append_batch(&[Event::add_node(2, 2)]).unwrap();
        let trigger = Event::add_node(5, 3);
        let old_tail = index_of(&plan(
            None,
            vec![],
            vec![Event::add_node(1, 1), Event::add_node(2, 2)],
        ));
        st.roll(
            Timestamp(5),
            &[Event::add_node(4, 1), Event::add_node(4, 2)],
            std::slice::from_ref(&trigger),
            &old_tail,
        )
        .unwrap();
        assert_eq!(st.segments(), 1);
        assert!(segment_path(&dir, 0).is_file());
        assert!(!wal_path(&dir, 0).exists());
        assert!(!tailseed_path(&dir, 0).exists());
        drop(st);

        let (st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(recovered.sealed.len(), 1);
        assert_eq!(recovered.sealed[0].events(), 2);
        assert_eq!(
            node_ids(&sealed_snapshot(&recovered.sealed[0], 4)),
            vec![1, 2]
        );
        assert_eq!(recovered.tail.lower, Some(Timestamp(5)));
        assert_eq!(recovered.tail.events, vec![trigger]);
        assert_eq!(st.segments(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphans_from_an_incomplete_roll_are_ignored_and_removed() {
        let dir = tmpdir("orphans");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        drop(initialize(&dir, &plans));
        // Simulate a crash after roll steps 1–3 but before the manifest
        // swap: the sealed segment and new generation exist on disk, but
        // the manifest still points at generation 0.
        let (image, blocks) = index_of(&plans[0]).sealed_parts().unwrap();
        Segment::write(
            segment_path(&dir, 0),
            &SegmentMeta {
                shard_index: 0,
                lower: None,
            },
            &blocks,
            &image,
        )
        .unwrap();
        Segment::write(
            tailseed_path(&dir, 1),
            &SegmentMeta {
                shard_index: 1,
                lower: Some(Timestamp(5)),
            },
            &tailseed_blocks(&[Event::add_node(4, 1)]),
            &[],
        )
        .unwrap();
        Wal::create(wal_path(&dir, 1), WalSyncPolicy::Off)
            .unwrap()
            .append(&Event::add_node(5, 9))
            .unwrap();

        let (_st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        // The old generation won: one shard, the phantom roll's event gone.
        assert!(recovered.sealed.is_empty());
        assert_eq!(recovered.tail.events, vec![Event::add_node(1, 1)]);
        assert!(!segment_path(&dir, 0).exists());
        assert!(!tailseed_path(&dir, 1).exists());
        assert!(!wal_path(&dir, 1).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_clear_error() {
        let dir = tmpdir("nomanifest");
        assert!(!is_durable_dir(&dir));
        assert!(DurableState::open(&dir, WalSyncPolicy::Always).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fatal_append_fault_degrades_instead_of_crashing() {
        let dir = tmpdir("degrade");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = initialize(&dir, &plans);
        let scope = dir.to_string_lossy().to_string();
        faults::arm_scoped(
            "wal.append",
            kvstore::FaultKind::Enospc,
            0,
            Some(1),
            Some(&scope),
        );
        let err = st.append_batch(&[Event::add_node(2, 2)]).unwrap_err();
        assert!(err.to_string().contains("DEGRADED"), "got: {err}");
        faults::clear("wal.append");
        // Degraded is sticky: even with the device healthy again, appends
        // are refused until a restart re-opens the directory.
        let err = st.append_batch(&[Event::add_node(3, 3)]).unwrap_err();
        assert!(err.to_string().contains("DEGRADED"), "got: {err}");
        assert!(st.is_degraded());
        assert!(st.sync().is_ok(), "shutdown sync is a no-op when degraded");
        drop(st);
        // The un-acked record was rolled back; the acked prefix survives.
        let (st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert!(recovered.sealed.is_empty());
        assert_eq!(recovered.tail.events, vec![Event::add_node(1, 1)]);
        assert!(!st.is_degraded(), "a fresh open starts healthy");
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_append_faults_are_retried() {
        let dir = tmpdir("transient");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = initialize(&dir, &plans);
        let scope = dir.to_string_lossy().to_string();
        faults::arm_scoped(
            "wal.append",
            kvstore::FaultKind::Transient,
            0,
            Some(2),
            Some(&scope),
        );
        st.append_batch(&[Event::add_node(2, 2)])
            .expect("transient faults retry through");
        assert!(st.retries() >= 2);
        assert!(!st.is_degraded());
        drop(st);
        let (_st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(
            recovered.tail.events,
            vec![Event::add_node(1, 1), Event::add_node(2, 2)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_dir_lock_refuses_a_second_opener_and_reclaims_stale_locks() {
        let dir = tmpdir("lock");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let st = initialize(&dir, &plans);
        // Second open while the first handle is alive: clear, typed error.
        let err = match DurableState::open(&dir, WalSyncPolicy::Always) {
            Err(e) => e,
            Ok(_) => panic!("a second opener must be refused"),
        };
        assert!(err.to_string().contains("locked"), "got: {err}");
        drop(st);
        assert!(!lock_path(&dir).exists(), "drop releases the lock");
        // A lock left by a dead process is stale: detected and reclaimed.
        std::fs::write(lock_path(&dir), "999999999").unwrap();
        let (st, _) =
            DurableState::open(&dir, WalSyncPolicy::Always).expect("stale lock is reclaimed");
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_bindings_survive_restart() {
        let dir = tmpdir("keys");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = initialize(&dir, &plans);
        st.record_key("alice", 7).unwrap();
        st.record_key("bob", 11).unwrap();
        drop(st);
        let (st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(
            recovered.keys,
            vec![("alice".to_string(), 7), ("bob".to_string(), 11)]
        );
        drop(st);
        // A torn tail (crash mid-bind) drops only the torn record.
        let full = std::fs::read(keys_path(&dir)).unwrap();
        std::fs::write(keys_path(&dir), &full[..full.len() - 3]).unwrap();
        let (st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(recovered.keys, vec![("alice".to_string(), 7)]);
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn initialize_replaces_previous_key_bindings() {
        let dir = tmpdir("keys-reinit");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = initialize(&dir, &plans);
        st.record_key("old", 1).unwrap();
        drop(st);
        drop(initialize(&dir, &plans));
        let (st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert!(
            recovered.keys.is_empty(),
            "re-initialize clears old bindings"
        );
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_plans_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("zeroplans");
        let err = match DurableState::initialize(&dir, WalSyncPolicy::Always, &[], &[]) {
            Err(e) => e,
            Ok(_) => panic!("zero plans must be refused"),
        };
        assert!(err.to_string().contains("zero shard plans"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_hostile_manifest_segment_count_is_refused_not_trusted() {
        let dir = tmpdir("hostile-manifest");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        drop(initialize(&dir, &plans));
        for count in [u64::MAX, 1 << 40] {
            std::fs::write(
                manifest_path(&dir),
                format!("{MANIFEST_HEADER}\nsegments {count}\ntail {count}\n"),
            )
            .unwrap();
            match DurableState::open(&dir, WalSyncPolicy::Always) {
                Err(DgError::Store(StoreError::Corruption(msg))) => {
                    assert!(msg.contains("segments"), "count={count}: {msg}")
                }
                Err(other) => panic!("count={count}: expected corruption, got {other}"),
                Ok(_) => panic!("count={count}: a hostile manifest was accepted"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_decodes_no_event_of_a_sealed_segment() {
        let dir = tmpdir("no-event-decode");
        let plans = vec![
            plan(
                None,
                vec![],
                vec![Event::add_node(1, 1), Event::add_node(2, 2)],
            ),
            plan(
                Some(10),
                vec![Event::add_node(9, 1), Event::add_node(9, 2)],
                vec![],
            ),
        ];
        drop(initialize(&dir, &plans));
        // Flip a byte inside the sealed segment's first payload block: the
        // block is an eventlist or a delta, so a decoder that touched it
        // would fail its checksum. Open reads no payload, so it succeeds.
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let (_st, recovered) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        let shard = &recovered.sealed[0];
        assert_eq!(shard.segment.stats().gets, 0, "open fetched a payload");
        assert!(
            Segment::read(&path).is_err(),
            "the full verify still catches it"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
