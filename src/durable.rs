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
//!   segment-00000.seg    # sealed historical shard 0 (write-once)
//!   segment-00001.seg    # sealed historical shard 1
//!   tailseed-00002.seg   # the tail shard's seed events (write-once)
//!   wal-00002.log        # the tail shard's append log (grows)
//! ```
//!
//! Sealed shards are immutable [`Segment`] files. The tail shard is the
//! pair *tailseed + WAL*: its state is always `tailseed.seed` replayed,
//! then every WAL record in order. The `MANIFEST` (written via temp file +
//! fsync + atomic rename) names the generation, so a crash anywhere during
//! a roll leaves either the old generation (trigger event unacknowledged,
//! correctly absent) or the new one — never a mix. Files of an incomplete
//! roll are deleted as orphans on the next open.
//!
//! Rolling the tail (generation `g` → `g+1`) performs, in order:
//!
//! 1. seal `segment-g.seg` from `tailseed-g.seg` + the replayed WAL,
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
use std::time::Duration;

use deltagraph::{DgError, DgResult};
use kvstore::disk::crc32;
use kvstore::faults;
use kvstore::wal::{read_wal_events, Wal, WalSyncPolicy};
use kvstore::{Segment, SegmentMeta, StoreError};
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

/// One shard's full contents as planned at build time or recovered from
/// disk: its routing lower bound, synthetic seed events, and real events.
pub(crate) struct ShardPlan {
    pub lower: Option<Timestamp>,
    pub seed: Vec<Event>,
    pub events: Vec<Event>,
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
    /// Creates a fresh deployment at `dir` from build-time shard plans:
    /// one sealed segment per historical shard, a tailseed + WAL pair for
    /// the tail (the WAL pre-loaded with the tail's real events), and the
    /// committing manifest. Any previous deployment in `dir` is replaced.
    pub fn initialize(dir: &Path, policy: WalSyncPolicy, plans: &[ShardPlan]) -> DgResult<Self> {
        let Some((tail, sealed)) = plans.split_last() else {
            return Err(DgError::InvalidParameter(
                "cannot initialize durable storage from zero shard plans".into(),
            ));
        };
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let lock = acquire_dir_lock(dir)?;
        // Drop any stale manifest first so a crash mid-initialize can never
        // pair an old manifest with new files. Stale key bindings go too.
        std::fs::remove_file(manifest_path(dir)).ok();
        std::fs::remove_file(keys_path(dir)).ok();
        let mut retries = 0u64;
        let tail_gen = sealed.len() as u64;
        let mut segment_bytes = 0u64;
        for (i, plan) in sealed.iter().enumerate() {
            let path = segment_path(dir, i as u64);
            let meta = SegmentMeta {
                shard_index: i as u64,
                lower: plan.lower,
            };
            retried(&mut retries, || {
                Ok(Segment::write(&path, &meta, &plan.seed, &plan.events)?)
            })?;
            segment_bytes += std::fs::metadata(&path).map_err(io_err)?.len();
        }
        let tailseed_meta = SegmentMeta {
            shard_index: tail_gen,
            lower: tail.lower,
        };
        let tailseed_file = tailseed_path(dir, tail_gen);
        retried(&mut retries, || {
            Ok(Segment::write(
                &tailseed_file,
                &tailseed_meta,
                &tail.seed,
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

    /// Opens an existing deployment: reads the manifest, loads every sealed
    /// segment and the tail pair (truncating a torn WAL tail), deletes
    /// orphan files from an incomplete roll, and returns the storage state,
    /// one [`ShardPlan`] per shard (tail last), and the recovered key
    /// bindings. The caller rebuilds the in-memory shards from the plans
    /// and then records [`DurableState::recovery_ms`].
    #[allow(clippy::type_complexity)]
    pub fn open(
        dir: &Path,
        policy: WalSyncPolicy,
    ) -> DgResult<(Self, Vec<ShardPlan>, Vec<(String, u64)>)> {
        let lock = acquire_dir_lock(dir)?;
        let tail_gen = read_manifest(dir)?;
        let mut plans = Vec::with_capacity(tail_gen as usize + 1);
        let mut segment_bytes = 0u64;
        for i in 0..tail_gen {
            let path = segment_path(dir, i);
            let seg = Segment::read(&path)?;
            if seg.meta.shard_index != i {
                return Err(corrupt(format!(
                    "segment {} claims shard index {}, expected {i}",
                    path.display(),
                    seg.meta.shard_index
                )));
            }
            segment_bytes += std::fs::metadata(&path).map_err(io_err)?.len();
            plans.push(ShardPlan {
                lower: seg.meta.lower,
                seed: seg.seed,
                events: seg.events,
            });
        }
        let tailseed = Segment::read(tailseed_path(dir, tail_gen))?;
        if tailseed.meta.shard_index != tail_gen || !tailseed.events.is_empty() {
            return Err(corrupt(format!(
                "tailseed for generation {tail_gen} is malformed"
            )));
        }
        let replay = Wal::open(wal_path(dir, tail_gen), policy)?;
        plans.push(ShardPlan {
            lower: tailseed.meta.lower,
            seed: tailseed.seed,
            events: replay.events,
        });
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
        Ok((state, plans, keys))
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
    /// into a segment, starts generation `tail_gen + 1` whose WAL holds the
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
    ) -> DgResult<()> {
        if let Some(reason) = &self.degraded {
            return Err(DgError::Store(StoreError::Degraded(format!(
                "tail shard is read-only: {reason}"
            ))));
        }
        let old_gen = self.tail_gen;
        let new_gen = old_gen + 1;
        let mut retries = 0u64;
        // 1. Seal: the old tail's full contents are its seed file plus the
        //    complete WAL (every record intact — this log was never torn).
        let wal = &mut self.wal;
        retried(&mut retries, || Ok(wal.sync()?))?;
        let old_seed = Segment::read(tailseed_path(&self.dir, old_gen))?;
        let wal_events = read_wal_events(self.wal.path())?;
        let sealed_path = segment_path(&self.dir, old_gen);
        retried(&mut retries, || {
            Ok(Segment::write(
                &sealed_path,
                &old_seed.meta,
                &old_seed.seed,
                &wal_events,
            )?)
        })?;
        // 2–3. The new generation's tailseed and WAL (trigger event synced
        //      before the commit point so an acked roll survives a crash).
        let new_meta = SegmentMeta {
            shard_index: new_gen,
            lower: Some(boundary),
        };
        let new_tailseed_path = tailseed_path(&self.dir, new_gen);
        retried(&mut retries, || {
            Ok(Segment::write(
                &new_tailseed_path,
                &new_meta,
                new_seed,
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
        self.segment_bytes += std::fs::metadata(&sealed_path)
            .map(|m| m.len())
            .unwrap_or(0);
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
        let st = DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap();
        assert_eq!(st.segments(), 1);
        assert!(st.wal_bytes() > 0);
        drop(st);

        let (st, recovered, keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].lower, None);
        assert_eq!(recovered[0].events.len(), 2);
        assert_eq!(recovered[1].lower, Some(Timestamp(10)));
        assert_eq!(recovered[1].seed.len(), 2);
        assert_eq!(recovered[1].events, vec![Event::add_node(10, 3)]);
        assert_eq!(st.torn_truncations, 0);
        assert!(keys.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roll_commits_atomically_and_cleans_up() {
        let dir = tmpdir("roll");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap();
        st.append_batch(&[Event::add_node(2, 2)]).unwrap();
        let trigger = Event::add_node(5, 3);
        st.roll(
            Timestamp(5),
            &[Event::add_node(4, 1), Event::add_node(4, 2)],
            std::slice::from_ref(&trigger),
        )
        .unwrap();
        assert_eq!(st.segments(), 1);
        assert!(segment_path(&dir, 0).is_file());
        assert!(!wal_path(&dir, 0).exists());
        assert!(!tailseed_path(&dir, 0).exists());
        drop(st);

        let (st, recovered, _keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(
            recovered[0].events,
            vec![Event::add_node(1, 1), Event::add_node(2, 2)]
        );
        assert_eq!(recovered[1].lower, Some(Timestamp(5)));
        assert_eq!(recovered[1].events, vec![trigger]);
        assert_eq!(st.segments(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphans_from_an_incomplete_roll_are_ignored_and_removed() {
        let dir = tmpdir("orphans");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        drop(DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap());
        // Simulate a crash after roll steps 1–3 but before the manifest
        // swap: the sealed segment and new generation exist on disk, but
        // the manifest still points at generation 0.
        Segment::write(
            segment_path(&dir, 0),
            &SegmentMeta {
                shard_index: 0,
                lower: None,
            },
            &[],
            &[Event::add_node(1, 1)],
        )
        .unwrap();
        Segment::write(
            tailseed_path(&dir, 1),
            &SegmentMeta {
                shard_index: 1,
                lower: Some(Timestamp(5)),
            },
            &[Event::add_node(4, 1)],
            &[],
        )
        .unwrap();
        Wal::create(wal_path(&dir, 1), WalSyncPolicy::Off)
            .unwrap()
            .append(&Event::add_node(5, 9))
            .unwrap();

        let (_st, recovered, _keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        // The old generation won: one shard, the phantom roll's event gone.
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].events, vec![Event::add_node(1, 1)]);
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
        let mut st = DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap();
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
        let (st, recovered, _keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].events, vec![Event::add_node(1, 1)]);
        assert!(!st.is_degraded(), "a fresh open starts healthy");
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_append_faults_are_retried() {
        let dir = tmpdir("transient");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap();
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
        let (_st, recovered, _keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(
            recovered[0].events,
            vec![Event::add_node(1, 1), Event::add_node(2, 2)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_dir_lock_refuses_a_second_opener_and_reclaims_stale_locks() {
        let dir = tmpdir("lock");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let st = DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap();
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
        let (st, _, _) =
            DurableState::open(&dir, WalSyncPolicy::Always).expect("stale lock is reclaimed");
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_bindings_survive_restart() {
        let dir = tmpdir("keys");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap();
        st.record_key("alice", 7).unwrap();
        st.record_key("bob", 11).unwrap();
        drop(st);
        let (st, _, keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(
            keys,
            vec![("alice".to_string(), 7), ("bob".to_string(), 11)]
        );
        drop(st);
        // A torn tail (crash mid-bind) drops only the torn record.
        let full = std::fs::read(keys_path(&dir)).unwrap();
        std::fs::write(keys_path(&dir), &full[..full.len() - 3]).unwrap();
        let (st, _, keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert_eq!(keys, vec![("alice".to_string(), 7)]);
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn initialize_replaces_previous_key_bindings() {
        let dir = tmpdir("keys-reinit");
        let plans = vec![plan(None, vec![], vec![Event::add_node(1, 1)])];
        let mut st = DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap();
        st.record_key("old", 1).unwrap();
        drop(st);
        drop(DurableState::initialize(&dir, WalSyncPolicy::Always, &plans).unwrap());
        let (st, _, keys) = DurableState::open(&dir, WalSyncPolicy::Always).unwrap();
        assert!(keys.is_empty(), "re-initialize clears old bindings");
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_plans_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("zeroplans");
        let err = match DurableState::initialize(&dir, WalSyncPolicy::Always, &[]) {
            Err(e) => e,
            Ok(_) => panic!("zero plans must be refused"),
        };
        assert!(err.to_string().contains("zero shard plans"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
