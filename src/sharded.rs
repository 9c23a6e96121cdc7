//! Time-range sharding of the serving layer: the [`ShardedGraphManager`].
//!
//! The paper's distributed design (Section 4.2, Figure 8(b)) partitions
//! DeltaGraph storage across machines; `kvstore::PartitionedStore` already
//! reproduces that below the index. This module pushes the same idea *up*
//! into query serving: instead of funnelling every session through one
//! [`SharedGraphManager`] — where `APPEND`s serialize all writers and every
//! read contends on a single `RwLock` — a router owns N shards, each a
//! complete `SharedGraphManager` over one time range of the history.
//!
//! * **Routing** — `GET GRAPH AT t` (and `NODE`, and each `HISTORY` sample)
//!   goes to the single shard owning `t`; `GET GRAPHS AT t1,t2,...` fans out
//!   across the owning shards in parallel and reassembles the replies in
//!   request order.
//! * **Appends** — always go to the *tail* shard. When the tail exceeds a
//!   configurable event budget, the router rolls a new tail shard seeded
//!   from the old tail's current graph. Historical shards are therefore
//!   immutable: their point caches are never invalidated by
//!   ingest, so hot historical points stay cached forever.
//! * **Self-contained shards** — shard `i` over `[lower_i, upper_i)` is a
//!   *seeded* index: leaf 0 is the full graph state entering `lower_i`
//!   (time `lower_i - 1`) and only the real events in its range are indexed
//!   after it, so it answers any `t` in its range identically to a single
//!   manager replaying the whole stream (property-tested in
//!   `tests/approach_equivalence.rs`). On disk the seed travels as
//!   synthetic *seed events*; a build replays them once into the leaf-0
//!   graph and never indexes them.
//!
//! Queries whose time range spans shards and cannot be decomposed per point
//! (`GET GRAPH BETWEEN`, `GET GRAPH MATCHING`, `DIFF`) execute on the single
//! shard covering all referenced points and are rejected with a clear error
//! otherwise — see `docs/PROTOCOL.md`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread;
use std::time::Instant;

use deltagraph::{DeltaGraph, DgError, DgResult, GraphForm};
use graphpool::GraphId;
use kvstore::wal::WalSyncPolicy;
use kvstore::{KeyValueStore, MemStore};
use tgraph::codec::{Decode, Encode, Reader};
use tgraph::{AttrOptions, Event, EventKind, EventList, Snapshot, TimeExpression, Timestamp};

use crate::cache::{CacheOverview, CacheStats, ResponseCacheStats, WireFormat};
use crate::durable::{DurableState, Recovered, SealedShard, ShardPlan};
use crate::manager::{seeded_start, BatchOutcome, GraphManager, GraphManagerConfig};
use crate::shared::{CachedPoint, PoolSession, SharedGraphManager};

/// Configuration of a [`ShardedGraphManager`].
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Per-shard manager configuration (index parameters and the point
    /// cache). Each shard owns its own cache of these capacities.
    pub manager: GraphManagerConfig,
    /// Number of shards to split the built history into when no explicit
    /// boundaries are given (equi-width over the event time range). `<= 1`
    /// builds a single shard.
    pub shards: usize,
    /// Explicit ascending shard boundaries; shard `i` owns
    /// `[boundaries[i-1], boundaries[i])` (the first shard is unbounded
    /// below, the last unbounded above). Overrides [`ShardedConfig::shards`].
    pub boundaries: Option<Vec<Timestamp>>,
    /// Tail event budget: once the tail shard holds this many real (non-seed)
    /// events, the next strictly-later append rolls a new tail shard.
    /// `0` (the default) never rolls.
    pub shard_events: usize,
    /// Milliseconds a quarantined shard fast-fails before the next touch is
    /// allowed to retry its hydration. `0` retries on every touch.
    pub quarantine_retry_ms: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            manager: GraphManagerConfig::default(),
            shards: 1,
            boundaries: None,
            shard_events: 0,
            quarantine_retry_ms: 1000,
        }
    }
}

impl ShardedConfig {
    /// Uses the given per-shard manager configuration.
    pub fn with_manager(mut self, manager: GraphManagerConfig) -> Self {
        self.manager = manager;
        self
    }

    /// Splits the built history into `n` equi-width shards.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Uses explicit ascending shard boundaries.
    pub fn with_boundaries(mut self, boundaries: Vec<Timestamp>) -> Self {
        self.boundaries = Some(boundaries);
        self
    }

    /// Sets the tail event budget that triggers rolling a new shard.
    pub fn with_shard_events(mut self, budget: usize) -> Self {
        self.shard_events = budget;
        self
    }

    /// Sets how long a quarantined shard fast-fails before hydration is
    /// retried.
    pub fn with_quarantine_retry_ms(mut self, ms: u64) -> Self {
        self.quarantine_retry_ms = ms;
        self
    }
}

/// One time-range shard: a complete manager plus its routing bounds.
struct Shard {
    cell: ShardCell,
    /// Inclusive lower bound of the owned range; `None` for the first shard
    /// (unbounded below).
    lower: Option<Timestamp>,
    /// Real (non-seed) events this shard holds, counted against the roll
    /// budget.
    events: AtomicUsize,
    /// Queries routed to this shard (skew accounting; see
    /// [`ShardInfo::queries`]).
    queries: AtomicU64,
    /// Events appended to this shard through the router.
    appends: AtomicU64,
}

impl Shard {
    fn new(cell: ShardCell, lower: Option<Timestamp>, events: usize) -> Shard {
        Shard {
            cell,
            lower,
            events: AtomicUsize::new(events),
            queries: AtomicU64::new(0),
            appends: AtomicU64::new(0),
        }
    }

    /// The shard's serving manager, hydrating a lazily recovered shard on
    /// first touch (see [`ShardCell::get`]).
    fn shared(&self, inner: &Inner) -> DgResult<SharedGraphManager> {
        self.cell.get(inner, &self.events)
    }
}

/// A shard's serving manager: built eagerly on every fresh-build path, or
/// deferred to first touch on the recovery path
/// ([`ShardedGraphManager::open`]) so restart-to-first-query pays for the
/// one shard the query lands on, not for the whole history. Every shard,
/// the tail included, stays cold until a query or append touches it. A
/// sealed shard's first touch assembles a read-only index over its opened
/// segment — skeleton from the file, payloads fetched on demand, nothing
/// rebuilt; the tail's first touch rebuilds its index from its seed and
/// WAL events.
struct ShardCell {
    built: OnceLock<SharedGraphManager>,
    /// `Some` while hydration is pending; taken by the first toucher and
    /// restored if its build fails, so a later touch can retry. The mutex
    /// serializes hydrators — concurrent touchers of one cold shard block
    /// here and then read the winner's manager.
    pending: Mutex<Option<PendingShard>>,
    /// Set when the last hydration attempt failed; cleared by a successful
    /// one. While set, touches within the retry window fast-fail with
    /// [`DgError::ShardQuarantined`] instead of re-running the build, so a
    /// shard with a broken plan cannot stall every query that routes to it.
    quarantined: AtomicBool,
    /// Hydration attempts that have failed, ever (monotonic — survives a
    /// later successful build, so health counters never run backwards).
    failures: AtomicU64,
    /// Process-clock milliseconds before which a quarantined shard is not
    /// re-hydrated.
    retry_at: AtomicU64,
    /// The error that caused the last failed hydration attempt.
    last_error: Mutex<String>,
    /// Microseconds the successful hydration took; `0` while cold and for
    /// a shard that was built eagerly.
    hydrate_us: AtomicU64,
}

/// Milliseconds on a process-local monotonic clock (first call = 0).
fn clock_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Deferred construction input of a lazily recovered shard.
struct PendingShard {
    index: usize,
    source: PendingSource,
}

/// What a cold shard hydrates from.
enum PendingSource {
    /// A sealed shard's opened segment and decoded image.
    Sealed(SealedShard),
    /// The tail's seed and WAL events, rebuilt on first touch; it carries
    /// the crash-healing retry (see [`hydrate_tail`]).
    Tail(ShardPlan),
}

impl ShardCell {
    fn eager(shared: SharedGraphManager) -> Self {
        ShardCell {
            built: OnceLock::from(shared),
            pending: Mutex::new(None),
            quarantined: AtomicBool::new(false),
            failures: AtomicU64::new(0),
            retry_at: AtomicU64::new(0),
            last_error: Mutex::new(String::new()),
            hydrate_us: AtomicU64::new(0),
        }
    }

    fn lazy(index: usize, source: PendingSource) -> Self {
        ShardCell {
            built: OnceLock::new(),
            pending: Mutex::new(Some(PendingShard { index, source })),
            quarantined: AtomicBool::new(false),
            failures: AtomicU64::new(0),
            retry_at: AtomicU64::new(0),
            last_error: Mutex::new(String::new()),
            hydrate_us: AtomicU64::new(0),
        }
    }

    /// The built manager, without hydrating: `None` means the shard is
    /// still cold. Stats and cache probes use this so a metrics scrape or
    /// a speculative cache peek never forces an index build.
    fn peek(&self) -> Option<&SharedGraphManager> {
        self.built.get()
    }

    /// The built manager, hydrating on first touch. Lock order here is
    /// `pending` → `storage` → `keys` (callers already hold the router's
    /// shard read lock); [`ShardedGraphManager::register_key`] takes `keys`
    /// without `pending`, and the manager is published *inside* the `keys`
    /// critical section, so a key registered concurrently with hydration
    /// lands either via the registry replay or via the direct registration
    /// — never neither.
    fn get(&self, inner: &Inner, events: &AtomicUsize) -> DgResult<SharedGraphManager> {
        if let Some(shared) = self.built.get() {
            return Ok(shared.clone());
        }
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(shared) = self.built.get() {
            return Ok(shared.clone());
        }
        let shard_index = pending.as_ref().map(|p| p.index).unwrap_or(0);
        // Quarantine fast path: the last hydration attempt failed and the
        // retry window has not elapsed yet — fail without touching storage
        // so a broken shard costs its callers an error, not a rebuild.
        if self.quarantined.load(Ordering::Relaxed)
            && clock_ms() < self.retry_at.load(Ordering::Relaxed)
        {
            return Err(DgError::ShardQuarantined {
                shard: shard_index,
                failures: self.failures.load(Ordering::Relaxed),
                reason: self
                    .last_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            });
        }
        let mut p = pending
            .take()
            .expect("an unbuilt shard holds a pending source");
        let started = Instant::now();
        let built = match &mut p.source {
            PendingSource::Sealed(sealed) => Ok(GraphManager::open_sealed(
                sealed.image.clone(),
                Arc::clone(&sealed.segment) as Arc<dyn KeyValueStore>,
                inner.config.manager.clone(),
            )),
            PendingSource::Tail(plan) => hydrate_tail(plan, p.index, inner, events),
        }
        .map(SharedGraphManager::new);
        match built {
            Ok(shared) => {
                self.quarantined.store(false, Ordering::Relaxed);
                let keys = inner.keys.lock().unwrap_or_else(PoisonError::into_inner);
                {
                    let mut gm = shared.write();
                    for (key, node) in keys.iter() {
                        gm.register_key(key.clone(), *node);
                    }
                }
                let _ = self.built.set(shared.clone());
                drop(keys);
                self.hydrate_us.store(
                    (started.elapsed().as_micros() as u64).max(1),
                    Ordering::Relaxed,
                );
                Ok(shared)
            }
            Err(e) => {
                // Quarantine the shard: restore the plan for a later retry,
                // remember why it failed, and fast-fail further touches
                // until the retry window elapses. Other shards are
                // untouched and keep serving.
                let failures = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
                let reason = e.to_string();
                *self
                    .last_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = reason.clone();
                self.retry_at.store(
                    clock_ms().saturating_add(inner.config.quarantine_retry_ms),
                    Ordering::Relaxed,
                );
                self.quarantined.store(true, Ordering::Relaxed);
                *pending = Some(p);
                Err(DgError::ShardQuarantined {
                    shard: shard_index,
                    failures,
                    reason,
                })
            }
        }
    }

    /// Earliest event time this shard holds, without hydrating.
    fn start_time(&self) -> Option<Timestamp> {
        if let Some(shared) = self.built.get() {
            return shared.read().index().history_range().ok().map(|(s, _)| s);
        }
        let pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        match pending.as_ref().map(|p| &p.source) {
            // Where the hydrated index anchors leaf 0, so the cold estimate
            // and the hydrated value are the same.
            Some(PendingSource::Sealed(sealed)) => sealed.image.skeleton.history_start().ok(),
            Some(PendingSource::Tail(plan)) => seeded_start(&plan.seed, &plan.events),
            // Hydrated between the peek and the lock.
            None => self
                .built
                .get()
                .and_then(|s| s.read().index().history_range().ok())
                .map(|(s, _)| s),
        }
    }

    /// Latest event time this shard holds, without hydrating.
    fn end_time(&self) -> Option<Timestamp> {
        if let Some(shared) = self.built.get() {
            return shared.read().index().history_range().ok().map(|(_, e)| e);
        }
        let pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        match pending.as_ref().map(|p| &p.source) {
            Some(PendingSource::Sealed(sealed)) => sealed.image.skeleton.history_end().ok(),
            Some(PendingSource::Tail(plan)) => {
                plan.events.last().or(plan.seed.last()).map(|e| e.time)
            }
            // Hydrated between the peek and the lock.
            None => self
                .built
                .get()
                .and_then(|s| s.read().index().history_range().ok())
                .map(|(_, e)| e),
        }
    }
}

/// Per-shard serving statistics, the payload of `STATS SHARDS`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Position of the shard in time order (the tail has the highest index).
    pub index: usize,
    /// Inclusive lower bound of the owned time range (`None` = unbounded).
    pub lower: Option<Timestamp>,
    /// Exclusive upper bound of the owned time range (`None` = unbounded;
    /// only the tail shard is unbounded above).
    pub upper: Option<Timestamp>,
    /// Real (non-seed) events the shard holds.
    pub events: usize,
    /// Active historical overlays in the shard's pool.
    pub overlays: usize,
    /// Entries in the shard's snapshot cache.
    pub cache_entries: usize,
    /// The shard's snapshot-cache counters.
    pub cache: CacheStats,
    /// Entries in the shard's rendered-response cache.
    pub response_entries: usize,
    /// The shard's response-cache counters.
    pub response: ResponseCacheStats,
    /// Queries the router sent to this shard: point retrievals, entity
    /// peeks, multipoint samples (one per sampled point), and interval or
    /// expression executions. Compare across shards to see skew.
    pub queries: u64,
    /// Events appended to this shard through the router (a rolled shard
    /// starts at 1: the append that triggered the roll).
    pub appends: u64,
}

impl Encode for ShardInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.index.encode(buf);
        self.lower.encode(buf);
        self.upper.encode(buf);
        self.events.encode(buf);
        self.overlays.encode(buf);
        self.cache_entries.encode(buf);
        self.cache.encode(buf);
        self.response_entries.encode(buf);
        self.response.encode(buf);
        self.queries.encode(buf);
        self.appends.encode(buf);
    }
}

impl Decode for ShardInfo {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(ShardInfo {
            index: usize::decode(r)?,
            lower: Option::decode(r)?,
            upper: Option::decode(r)?,
            events: usize::decode(r)?,
            overlays: usize::decode(r)?,
            cache_entries: usize::decode(r)?,
            cache: CacheStats::decode(r)?,
            response_entries: usize::decode(r)?,
            response: ResponseCacheStats::decode(r)?,
            queries: u64::decode(r)?,
            appends: u64::decode(r)?,
        })
    }
}

/// Durable-storage statistics, the payload of `STATS STORAGE`. All zeros
/// (with `durable == false`) for an in-memory deployment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StorageInfo {
    /// Whether the router persists to a data directory at all.
    pub durable: bool,
    /// The WAL sync policy in force (`"none"` when not durable).
    pub policy: String,
    /// Sealed historical-shard segment files on disk.
    pub segments: u64,
    /// Total bytes of sealed segment files.
    pub segment_bytes: u64,
    /// Current tail WAL length in bytes.
    pub wal_bytes: u64,
    /// WAL records written by this process (all tail generations).
    pub wal_appends: u64,
    /// `fsync` calls issued by this process (all tail generations).
    pub wal_fsyncs: u64,
    /// Bytes of torn WAL tail truncated at the last recovery.
    pub torn_bytes: u64,
    /// Torn-tail truncations performed at the last recovery.
    pub torn_truncations: u64,
    /// Wall-clock milliseconds the last recovery's open phase took:
    /// manifest read; each sealed segment's footer, key table, meta and
    /// skeleton read and checksummed (no payload block is read); the tail's
    /// seed file and WAL replay. Hydration on first touch is not included
    /// (see `shard_hydrate_us`). `0` = fresh build, never recovered.
    pub recovery_ms: u64,
}

impl Encode for StorageInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.durable.encode(buf);
        self.policy.encode(buf);
        self.segments.encode(buf);
        self.segment_bytes.encode(buf);
        self.wal_bytes.encode(buf);
        self.wal_appends.encode(buf);
        self.wal_fsyncs.encode(buf);
        self.torn_bytes.encode(buf);
        self.torn_truncations.encode(buf);
        self.recovery_ms.encode(buf);
    }
}

impl Decode for StorageInfo {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(StorageInfo {
            durable: bool::decode(r)?,
            policy: String::decode(r)?,
            segments: u64::decode(r)?,
            segment_bytes: u64::decode(r)?,
            wal_bytes: u64::decode(r)?,
            wal_appends: u64::decode(r)?,
            wal_fsyncs: u64::decode(r)?,
            torn_bytes: u64::decode(r)?,
            torn_truncations: u64::decode(r)?,
            recovery_ms: u64::decode(r)?,
        })
    }
}

/// One shard's health, part of the `STATS HEALTH` payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    /// Position of the shard in time order (the tail has the highest index).
    pub index: usize,
    /// `"ready"` (built and serving), `"cold"` (lazily recovered, not yet
    /// touched), `"quarantined"` (hydration failed; fast-failing until the
    /// retry window elapses), or `"degraded"` (the tail whose durable
    /// storage is read-only after a fatal write failure).
    pub state: String,
    /// Hydration attempts that have failed on this shard (monotonic).
    pub failures: u64,
}

impl Encode for ShardHealth {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.index.encode(buf);
        self.state.encode(buf);
        self.failures.encode(buf);
    }
}

impl Decode for ShardHealth {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(ShardHealth {
            index: usize::decode(r)?,
            state: String::decode(r)?,
            failures: u64::decode(r)?,
        })
    }
}

/// Router-wide health, the payload of `STATS HEALTH`. Computed without
/// hydrating any shard, so a health probe is always cheap — even, and
/// especially, when parts of the deployment are broken.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthInfo {
    /// Per-shard state, in time order (tail last).
    pub shards: Vec<ShardHealth>,
    /// Whether the tail's durable storage is read-only after a fatal write
    /// failure (appends are refused; reads keep serving).
    pub degraded: bool,
    /// The error that degraded the tail (empty while healthy).
    pub degraded_reason: String,
    /// Shards currently quarantined.
    pub quarantined: u64,
    /// Failed hydration attempts summed over shards (monotonic).
    pub hydration_failures: u64,
    /// Transient storage-IO errors absorbed by retry so far.
    pub storage_retries: u64,
}

impl Encode for HealthInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.shards.encode(buf);
        self.degraded.encode(buf);
        self.degraded_reason.encode(buf);
        self.quarantined.encode(buf);
        self.hydration_failures.encode(buf);
        self.storage_retries.encode(buf);
    }
}

impl Decode for HealthInfo {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(HealthInfo {
            shards: Vec::decode(r)?,
            degraded: bool::decode(r)?,
            degraded_reason: String::decode(r)?,
            quarantined: u64::decode(r)?,
            hydration_failures: u64::decode(r)?,
            storage_retries: u64::decode(r)?,
        })
    }
}

/// Factory handing each shard (by index) its backing store. Rolled tail
/// shards are numbered after the built ones, so a persistent deployment
/// keeps every shard durable.
type StoreFactory = Box<dyn Fn(usize) -> Arc<dyn KeyValueStore> + Send + Sync>;

struct Inner {
    shards: RwLock<Vec<Shard>>,
    config: ShardedConfig,
    make_store: StoreFactory,
    /// Durable backing (WAL + segment files), present when the router was
    /// created by [`ShardedGraphManager::build_durable`] or
    /// [`ShardedGraphManager::open`]. Locked after the tail shard's write
    /// lock on appends and after the router's exclusive lock on rolls.
    storage: Option<Mutex<DurableState>>,
    /// Keys registered through the router, replayed onto lazily hydrated
    /// shards when they build (see [`ShardCell::get`]). Locked after the
    /// shard read lock and after a cell's `pending` lock.
    keys: Mutex<Vec<(String, tgraph::NodeId)>>,
}

/// A cloneable router over N time-range shards of one history, each a
/// [`SharedGraphManager`] with its own caches and its own `RwLock`.
#[derive(Clone)]
pub struct ShardedGraphManager {
    inner: Arc<Inner>,
}

/// Builds one shard's manager from its plan: a fresh build's shard, or the
/// recovered tail. The plan is only borrowed: a lazily recovered tail keeps
/// it for the quarantine retry when the build fails.
fn build_shard(
    plan: &ShardPlan,
    index: usize,
    config: &ShardedConfig,
    make_store: &StoreFactory,
) -> DgResult<GraphManager> {
    GraphManager::build_from_seed_events(
        &plan.seed,
        &plan.events,
        config.manager.clone(),
        make_store(index),
    )
}

/// Rebuilds the recovered tail from its seed and WAL events. A crash
/// between the WAL write-ahead and the rollback of a rejected apply leaves
/// exactly one never-applied record at the very end of the log: when the
/// build fails, drop that record and rebuild once; any deeper failure is
/// real corruption.
fn hydrate_tail(
    plan: &mut ShardPlan,
    index: usize,
    inner: &Inner,
    events: &AtomicUsize,
) -> DgResult<GraphManager> {
    let first_err = match build_shard(plan, index, &inner.config, &inner.make_store) {
        Ok(gm) => return Ok(gm),
        Err(e) => e,
    };
    match (plan.events.pop(), inner.storage.as_ref()) {
        (Some(last), Some(storage)) => storage
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drop_last_wal_record(kvstore::wal_record_len(&last))
            .and_then(|()| {
                // The record is gone from the log and the plan, whatever the
                // rebuild does — keep the counter in step with both.
                events.fetch_sub(1, Ordering::Relaxed);
                build_shard(plan, index, &inner.config, &inner.make_store)
            }),
        _ => Err(first_err),
    }
}

/// Collapses a graph state into the synthetic *seed events* that recreate it
/// at time `at`: node adds, node attributes, edge adds, edge attributes, in
/// deterministic id order. Replaying them yields exactly `state`.
fn seed_events(state: &Snapshot, at: Timestamp) -> Vec<Event> {
    let mut out = Vec::new();
    let mut nodes: Vec<_> = state.nodes().collect();
    nodes.sort_by_key(|(id, _)| *id);
    for (id, data) in &nodes {
        out.push(Event::new(at, EventKind::AddNode { node: *id }));
        for (key, value) in &data.attrs {
            out.push(Event::new(
                at,
                EventKind::SetNodeAttr {
                    node: *id,
                    key: key.clone(),
                    old: None,
                    new: Some(value.clone()),
                },
            ));
        }
    }
    let mut edges: Vec<_> = state.edges().collect();
    edges.sort_by_key(|(id, _)| *id);
    for (id, data) in &edges {
        out.push(Event::new(
            at,
            EventKind::AddEdge {
                edge: *id,
                src: data.src,
                dst: data.dst,
                directed: data.directed,
            },
        ));
        for (key, value) in &data.attrs {
            out.push(Event::new(
                at,
                EventKind::SetEdgeAttr {
                    edge: *id,
                    key: key.clone(),
                    old: None,
                    new: Some(value.clone()),
                },
            ));
        }
    }
    out
}

impl ShardedGraphManager {
    /// Builds a sharded store over a complete event trace, one in-memory
    /// backing store per shard.
    pub fn build_in_memory(events: &EventList, config: ShardedConfig) -> DgResult<Self> {
        Self::build(events, config, |_shard| Arc::new(MemStore::new()))
    }

    /// Builds a sharded store over a complete event trace; `make_store`
    /// supplies one backing store per shard index. The factory is retained:
    /// every shard rolled later gets its store from it too (indexes
    /// continue past the built shards).
    pub fn build(
        events: &EventList,
        config: ShardedConfig,
        make_store: impl Fn(usize) -> Arc<dyn KeyValueStore> + Send + Sync + 'static,
    ) -> DgResult<Self> {
        let plans = Self::plan_shards(events, &config)?;
        let make_store: StoreFactory = Box::new(make_store);
        let managers = Self::build_shards(&plans, &config, &make_store)?;
        let shards = eager_shards(&plans, managers);
        Ok(Self::assemble(shards, config, make_store, None))
    }

    /// Builds a sharded store over a complete event trace AND persists it
    /// to `dir`: every historical shard's DeltaGraph is sealed into an
    /// immutable segment file and the tail gets a seed file plus a
    /// write-ahead log (pre-loaded with the tail's events), so appends are
    /// durable under `policy` and a later [`ShardedGraphManager::open`]
    /// recovers the whole deployment. Any previous deployment in `dir` is
    /// replaced.
    pub fn build_durable(
        events: &EventList,
        config: ShardedConfig,
        dir: impl AsRef<Path>,
        policy: WalSyncPolicy,
    ) -> DgResult<Self> {
        let plans = Self::plan_shards(events, &config)?;
        let make_store: StoreFactory = Box::new(|_| Arc::new(MemStore::new()));
        let managers = Self::build_shards(&plans, &config, &make_store)?;
        let sealed: Vec<&DeltaGraph> = managers[..managers.len() - 1]
            .iter()
            .map(GraphManager::index)
            .collect();
        let storage = DurableState::initialize(dir.as_ref(), policy, &plans, &sealed)?;
        let shards = eager_shards(&plans, managers);
        Ok(Self::assemble(shards, config, make_store, Some(storage)))
    }

    /// Recovers a durable deployment from `dir`: each sealed segment serves
    /// its historical shard's DeltaGraph as written, the tail replays from
    /// its seed file plus the WAL (a torn final record is truncated away),
    /// and serving resumes where the previous process stopped — every
    /// acknowledged append made under [`WalSyncPolicy::Always`] is visible
    /// again. The shard layout and each sealed index's construction
    /// parameters come from disk; only `config.manager` (caches, retrieval
    /// threads, and the tail's index parameters) and `config.shard_events`
    /// apply.
    ///
    /// Recovery is *lazy*. `open` reads each sealed segment's footer, key
    /// table, meta and skeleton and verifies their checksums, reads the
    /// tail's seed file and replays the WAL's framing, and builds nothing.
    /// A sealed shard's first touch assembles a read-only index over its
    /// segment — no event is decoded and nothing is rebuilt — and each
    /// payload block is checksummed when a retrieval first reads it, so a
    /// corrupt block fails the queries that need it, not the open. The
    /// tail's first touch rebuilds its index from seed and WAL. A segment
    /// written before format v2 is refused with an error naming the format;
    /// rebuild such a directory.
    ///
    /// Application key bindings ([`ShardedGraphManager::register_key`]) are
    /// persisted to the data directory's `keys.log` and recovered here, so
    /// `BIND` names keep resolving after a restart.
    pub fn open(
        dir: impl AsRef<Path>,
        config: ShardedConfig,
        policy: WalSyncPolicy,
    ) -> DgResult<Self> {
        let started = Instant::now();
        let (mut storage, Recovered { sealed, tail, keys }) =
            DurableState::open(dir.as_ref(), policy)?;
        let make_store: StoreFactory = Box::new(|_| Arc::new(MemStore::new()));
        // Nothing survived anywhere (a lone tail whose WAL was destroyed):
        // refuse now rather than hand out a router whose every query fails.
        if tail.seed.is_empty() && tail.events.is_empty() {
            return Err(DgError::EmptyIndex);
        }
        // No shard is built here. Each keeps what it hydrates from (see
        // [`ShardCell`]) — a sealed shard its opened segment, the tail its
        // seed and WAL events, rebuilt on the first append or tail-range
        // query with the torn-record retry.
        let tail_index = sealed.len();
        let mut shards: Vec<Shard> = sealed
            .into_iter()
            .enumerate()
            .map(|(index, shard)| {
                let (lower, events) = (shard.lower(), shard.events());
                let cell = ShardCell::lazy(index, PendingSource::Sealed(shard));
                Shard::new(cell, lower, events)
            })
            .collect();
        let (lower, events) = (tail.lower, tail.events.len());
        let cell = ShardCell::lazy(tail_index, PendingSource::Tail(tail));
        shards.push(Shard::new(cell, lower, events));
        storage.recovery_ms = started.elapsed().as_millis().max(1) as u64;
        let keys = keys
            .into_iter()
            .map(|(k, n)| (k, tgraph::NodeId(n)))
            .collect();
        Ok(Self::assemble_with_keys(
            shards,
            config,
            make_store,
            Some(storage),
            keys,
        ))
    }

    /// Walks the trace once, cutting at each boundary into per-shard
    /// plans: a shard's seed (the running state collapsed to `lower - 1`)
    /// and the real events in `[lower, next boundary)`. Boundaries that
    /// would leave a shard with neither are dropped (the index rejects an
    /// empty seed without events).
    fn plan_shards(events: &EventList, config: &ShardedConfig) -> DgResult<Vec<ShardPlan>> {
        if events.is_empty() {
            return Err(DgError::EmptyIndex);
        }
        let start = events.start_time().expect("non-empty");
        let boundaries = Self::resolve_boundaries(events, config, start)?;
        let evs = events.events();
        let mut plans: Vec<ShardPlan> = Vec::new();
        let mut state = Snapshot::new();
        let mut cut = 0usize;
        let mut lower: Option<Timestamp> = None;
        let mut seed: Vec<Event> = Vec::new();
        for b in boundaries {
            let upto = evs.partition_point(|e| e.time < b);
            let range = &evs[cut..upto];
            for ev in range {
                state
                    .apply_forward(ev)
                    .map_err(|e| DgError::InvalidParameter(format!("malformed trace: {e}")))?;
            }
            let next_seed = seed_events(&state, b.prev());
            if seed.is_empty() && range.is_empty() {
                // This shard would be empty; extend the current one over the
                // range instead (routing stays correct: the previous shard
                // holds every event below the next kept boundary).
                seed = next_seed;
                lower = Some(b);
                cut = upto;
                continue;
            }
            if next_seed.is_empty() && upto == evs.len() {
                // Everything after `b` would be an empty tail; fold the
                // remainder into the current shard instead.
                break;
            }
            plans.push(ShardPlan {
                lower,
                seed,
                events: range.to_vec(),
            });
            seed = next_seed;
            lower = Some(b);
            cut = upto;
        }
        plans.push(ShardPlan {
            lower,
            seed,
            events: evs[cut..].to_vec(),
        });
        // The suppression above can only *merge* candidate shards, so the
        // first shard always exists and owns everything below its
        // successor's bound.
        plans[0].lower = None;
        Ok(plans)
    }

    /// Builds one manager per plan, in order, through the same constructor
    /// a recovered tail hydrates with.
    fn build_shards(
        plans: &[ShardPlan],
        config: &ShardedConfig,
        make_store: &StoreFactory,
    ) -> DgResult<Vec<GraphManager>> {
        plans
            .iter()
            .enumerate()
            .map(|(index, plan)| build_shard(plan, index, config, make_store))
            .collect()
    }

    fn assemble(
        shards: Vec<Shard>,
        config: ShardedConfig,
        make_store: StoreFactory,
        storage: Option<DurableState>,
    ) -> Self {
        Self::assemble_with_keys(shards, config, make_store, storage, Vec::new())
    }

    fn assemble_with_keys(
        shards: Vec<Shard>,
        config: ShardedConfig,
        make_store: StoreFactory,
        storage: Option<DurableState>,
        keys: Vec<(String, tgraph::NodeId)>,
    ) -> Self {
        ShardedGraphManager {
            inner: Arc::new(Inner {
                shards: RwLock::new(shards),
                config,
                make_store,
                storage: storage.map(Mutex::new),
                keys: Mutex::new(keys),
            }),
        }
    }

    fn resolve_boundaries(
        events: &EventList,
        config: &ShardedConfig,
        start: Timestamp,
    ) -> DgResult<Vec<Timestamp>> {
        let mut bounds = match &config.boundaries {
            Some(explicit) => {
                let mut b = explicit.clone();
                b.sort_unstable();
                b.dedup();
                if b.first().is_some_and(|&t| t == Timestamp(i64::MIN)) {
                    return Err(DgError::InvalidParameter(
                        "shard boundary at the minimum timestamp is not representable".into(),
                    ));
                }
                b
            }
            None => {
                let n = config.shards.max(1);
                let end = events.end_time().expect("non-empty");
                let span = i128::from(end.raw()) - i128::from(start.raw());
                (1..n)
                    .map(|i| {
                        let off = span * i as i128 / n as i128;
                        Timestamp((i128::from(start.raw()) + off) as i64)
                    })
                    .collect()
            }
        };
        // A boundary at or below the first event would make the first shard
        // empty; the range it would delimit is served by the first shard.
        bounds.retain(|&b| b > start);
        bounds.dedup();
        Ok(bounds)
    }

    /// The configuration every shard is built with (for a recovered router,
    /// the one passed to [`ShardedGraphManager::open`]).
    pub fn config(&self) -> &ShardedConfig {
        &self.inner.config
    }

    fn storage_guard(&self) -> Option<MutexGuard<'_, DurableState>> {
        self.inner
            .storage
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Whether the router persists appends and rolled shards to disk.
    pub fn is_durable(&self) -> bool {
        self.inner.storage.is_some()
    }

    /// Durable-storage statistics, the payload of `STATS STORAGE`. All
    /// zeros (`durable == false`, policy `"none"`) for an in-memory router.
    pub fn storage_info(&self) -> StorageInfo {
        match self.storage_guard() {
            Some(st) => StorageInfo {
                durable: true,
                policy: st.policy().to_string(),
                segments: st.segments(),
                segment_bytes: st.segment_bytes(),
                wal_bytes: st.wal_bytes(),
                wal_appends: st.wal_appends(),
                wal_fsyncs: st.wal_fsyncs(),
                torn_bytes: st.torn_bytes,
                torn_truncations: st.torn_truncations,
                recovery_ms: st.recovery_ms,
            },
            None => StorageInfo {
                policy: "none".into(),
                ..StorageInfo::default()
            },
        }
    }

    /// Forces any buffered WAL bytes to disk now (the shutdown path; a
    /// no-op for in-memory routers).
    pub fn sync_storage(&self) -> DgResult<()> {
        match self.storage_guard() {
            Some(mut st) => st.sync(),
            None => Ok(()),
        }
    }

    fn read_shards(&self) -> RwLockReadGuard<'_, Vec<Shard>> {
        self.inner
            .shards
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write_shards(&self) -> RwLockWriteGuard<'_, Vec<Shard>> {
        self.inner
            .shards
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of shards currently serving.
    pub fn shard_count(&self) -> usize {
        self.read_shards().len()
    }

    /// Index of the shard owning time `t`: the last shard whose lower bound
    /// is at or below `t`.
    pub fn shard_index_for(&self, t: Timestamp) -> usize {
        let shards = self.read_shards();
        shard_index_in(&shards, t)
    }

    /// The shard handle at `index` (shard indexes are stable: rolls only
    /// append), hydrating a lazily recovered shard on first touch.
    pub fn shard_at(&self, index: usize) -> DgResult<SharedGraphManager> {
        self.read_shards()[index].shared(&self.inner)
    }

    /// Handles to every shard, in time order (tail last). Hydrates every
    /// lazily recovered shard still cold.
    pub fn shard_handles(&self) -> DgResult<Vec<SharedGraphManager>> {
        self.read_shards()
            .iter()
            .map(|s| s.shared(&self.inner))
            .collect()
    }

    /// The shard owning time `t`, hydrating it on first touch.
    pub fn shard_for(&self, t: Timestamp) -> DgResult<SharedGraphManager> {
        let shards = self.read_shards();
        shards[shard_index_in(&shards, t)].shared(&self.inner)
    }

    /// Whether the shard at `index` has a built manager (a lazily recovered
    /// shard stays cold until first touch).
    fn is_hydrated(&self, index: usize) -> bool {
        self.read_shards()
            .get(index)
            .is_some_and(|s| s.cell.peek().is_some())
    }

    /// The `[start, end]` range of the served history, computed without
    /// hydrating cold shards: a cold shard reports the bounds of its stored
    /// plan, a built one the bounds of its index.
    pub fn history_range(&self) -> DgResult<(Timestamp, Timestamp)> {
        let shards = self.read_shards();
        let start = shards[0].cell.start_time().ok_or(DgError::EmptyIndex)?;
        let tail = shards.last().expect("at least one shard");
        let end = tail.cell.end_time().ok_or(DgError::EmptyIndex)?;
        Ok((start, end))
    }

    /// The single shard covering every `t` in `[min, max]`, or an error when
    /// the range spans shards (interval and expression queries cannot be
    /// decomposed per point).
    pub fn covering_shard(
        &self,
        min: Timestamp,
        max: Timestamp,
    ) -> DgResult<(usize, SharedGraphManager)> {
        let shards = self.read_shards();
        let lo = shard_index_in(&shards, min);
        let hi = shard_index_in(&shards, max);
        if lo != hi {
            return Err(DgError::InvalidParameter(format!(
                "time range [{}, {}] spans shards {lo} and {hi}; interval and \
                 expression queries must fall within one shard's time range",
                min.raw(),
                max.raw()
            )));
        }
        Ok((lo, shards[lo].shared(&self.inner)?))
    }

    // Note: there are deliberately no router-level response-cache get/put —
    // rendered bytes must be looked up and inserted on the *same* shard the
    // snapshot was retrieved from (see `ShardedSession::retrieve_cached_routed`).
    // Re-routing a put by time could land it on a tail shard rolled *after*
    // the render, whose fresh append epoch can coincide with the old tail's
    // and defeat the staleness guard.

    /// Bumps the owning shard's query counter by `n` (skew accounting).
    /// Each routed *point* counts once, wherever it is served from; callers
    /// on probe-then-fallback paths count at exactly one of the two steps
    /// so a request is never double-counted.
    fn note_queries(&self, shard: usize, n: u64) {
        if let Some(s) = self.read_shards().get(shard) {
            s.queries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Routes a read-only snapshot-cache probe to the shard owning `t`.
    /// Counts as the shard's query for the probe-then-`snapshot_at`
    /// entity-read path (the fallback compute is not counted again).
    pub fn peek_cached(&self, t: Timestamp, opts: &AttrOptions) -> Option<Arc<Snapshot>> {
        let shard = self.shard_index_for(t);
        self.note_queries(shard, 1);
        // A cold shard has nothing cached; a probe must not hydrate it.
        self.read_shards()
            .get(shard)
            .and_then(|s| s.cell.peek().and_then(|shared| shared.peek_cached(t, opts)))
    }

    /// Computes the snapshot as of `t` on the owning shard (no overlay):
    /// planned under the shard's read lock, executed with no lock held.
    pub fn snapshot_at(&self, t: Timestamp, opts: &AttrOptions) -> DgResult<Snapshot> {
        self.graph_at(t, opts)
    }

    /// [`ShardedGraphManager::snapshot_at`], built as the caller asks: as
    /// sorted columns for a caller that reads a few elements and needs no
    /// [`Snapshot`].
    pub fn graph_at<G: GraphForm>(&self, t: Timestamp, opts: &AttrOptions) -> DgResult<G> {
        let retrieval = self.shard_for(t)?.read().index().plan_retrieval(t, opts)?;
        retrieval.execute()
    }

    /// Computes several snapshots, each on its owning shard, in request
    /// order. Times within one shard go through that shard's Steiner-tree
    /// multipoint planner together; distinct shards compute in parallel.
    /// No overlays are created.
    pub fn snapshots_at(&self, times: &[Timestamp], opts: &AttrOptions) -> DgResult<Vec<Snapshot>> {
        self.graphs_at(times, opts)
    }

    /// [`ShardedGraphManager::snapshots_at`], each graph built as the
    /// caller asks (see [`ShardedGraphManager::graph_at`]).
    pub fn graphs_at<G: GraphForm + Send>(
        &self,
        times: &[Timestamp],
        opts: &AttrOptions,
    ) -> DgResult<Vec<G>> {
        // Sessions only carry each group's shard here: nothing is overlaid,
        // so they hold no handles and release nothing when they drop.
        self.fan_out(&mut HashMap::new(), times, |session, ts| {
            session.shared().read().index().get_graphs(ts, opts)
        })
    }

    /// The multipoint fan-out. Groups `times` by owning shard (each point
    /// counts as one query there) and makes sure `sessions` holds a session
    /// on every group's shard — hydrating cold ones — before any is moved,
    /// so a shard that fails to resolve costs nothing elsewhere. Then runs
    /// `work` once per group with that group's times in request order (on
    /// scoped threads when there is more than one group), puts every
    /// session back whatever `work` returned — overlays acquired on a shard
    /// that succeeded stay held even if another failed — and reassembles
    /// the results by request position, regardless of completion order.
    fn fan_out<T: Send>(
        &self,
        sessions: &mut HashMap<usize, PoolSession>,
        times: &[Timestamp],
        work: impl Fn(&mut PoolSession, &[Timestamp]) -> DgResult<Vec<T>> + Sync,
    ) -> DgResult<Vec<T>> {
        // Request positions grouped by owning shard, in order within each.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        {
            let shards = self.read_shards();
            for (pos, &t) in times.iter().enumerate() {
                let shard = shard_index_in(&shards, t);
                match groups.iter_mut().find(|(s, _)| *s == shard) {
                    Some((_, positions)) => positions.push(pos),
                    None => groups.push((shard, vec![pos])),
                }
            }
        }
        for (shard, positions) in &groups {
            self.note_queries(*shard, positions.len() as u64);
        }
        for (shard, _) in &groups {
            if !sessions.contains_key(shard) {
                sessions.insert(*shard, self.shard_at(*shard)?.session());
            }
        }
        let mut tasks: Vec<(PoolSession, Vec<Timestamp>)> = groups
            .iter()
            .map(|(shard, positions)| {
                let session = sessions.remove(shard).expect("resolved above");
                (session, positions.iter().map(|&pos| times[pos]).collect())
            })
            .collect();
        let results: Vec<DgResult<Vec<T>>> = if tasks.len() <= 1 {
            tasks
                .iter_mut()
                .map(|(session, ts)| work(session, ts))
                .collect()
        } else {
            let work = &work;
            thread::scope(|scope| {
                let handles: Vec<_> = tasks
                    .iter_mut()
                    .map(|(session, ts)| scope.spawn(move || work(session, ts)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
        };
        for ((shard, _), (session, _)) in groups.iter().zip(tasks) {
            sessions.insert(*shard, session);
        }
        let mut slots: Vec<Option<T>> = times.iter().map(|_| None).collect();
        for ((_, positions), result) in groups.iter().zip(results) {
            for (&pos, item) in positions.iter().zip(result?) {
                slots[pos] = Some(item);
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every requested point resolved"))
            .collect())
    }

    /// Appends one live event to the tail shard; `build` constructs the
    /// event against the tail's current graph under the same locks that
    /// apply it (attribute appends read the *old* value from it). Rolls a
    /// new tail shard first when the event budget is exceeded and the event
    /// is strictly later than everything the tail holds.
    pub fn append_with(&self, build: impl Fn(&Snapshot) -> Event) -> DgResult<BatchOutcome> {
        self.append_prepared(
            |current| vec![build(current)],
            |gm, mut events| gm.expand_event(events.pop().expect("one event built")),
        )
    }

    /// Appends a ready-made event (no old-value lookup needed).
    pub fn append_event(&self, event: Event) -> DgResult<()> {
        self.append_with(|_| event.clone()).map(|_| ())
    }

    /// Appends a group of live events to the tail shard as one atomic unit;
    /// `build` constructs the batch against the tail's current graph under
    /// the same locks that apply it. The batch is validated — chronology,
    /// tail range, §3.1 well-formedness — *as a unit* before anything is
    /// applied: a rejected batch leaves no prefix in memory or on disk. It
    /// lands entirely in one shard (at most one roll, decided on the whole
    /// batch), becomes visible under a single append-epoch bump, and
    /// invalidates the tail's caches once.
    pub fn append_batch_with(
        &self,
        build: impl Fn(&Snapshot) -> Vec<Event>,
    ) -> DgResult<BatchOutcome> {
        self.append_prepared(build, |gm, events| gm.prepare_batch(events))
    }

    /// Appends a ready-made batch atomically (see
    /// [`ShardedGraphManager::append_batch_with`]).
    pub fn append_batch(&self, events: Vec<Event>) -> DgResult<BatchOutcome> {
        self.append_batch_with(|_| events.clone())
    }

    /// The one append body behind both verbs, which differ only in
    /// `prepare` — the §3.1 boundary that turns the built events into the
    /// sequence to apply (one event expanded, or a batch validated as a
    /// unit). Under the tail's write lock: build the events against its
    /// current graph, check them against its range, decide on a roll from
    /// the first event, prepare, then apply — or roll a new tail whose first
    /// contents are the prepared sequence, so the new shard (and its
    /// durable WAL) records the normalized, well-formed stream. The whole
    /// sequence lands in one shard.
    ///
    /// The first pass runs under the router's shared lock, where rolls are
    /// excluded and concurrent appenders serialize only on the tail's own
    /// write lock. A roll needs the exclusive lock; the pass is then re-run
    /// under it, because another appender may have rolled in between.
    fn append_prepared(
        &self,
        build: impl Fn(&Snapshot) -> Vec<Event>,
        prepare: impl Fn(&GraphManager, Vec<Event>) -> DgResult<(Vec<Event>, usize)>,
    ) -> DgResult<BatchOutcome> {
        let mut exclusive = None;
        loop {
            let shared_lock = exclusive.is_none().then(|| self.read_shards());
            let shards = shared_lock
                .as_deref()
                .or(exclusive.as_deref())
                .expect("one router lock is held");
            let tail = shards.last().expect("at least one shard");
            let shared = tail.shared(&self.inner)?; // first post-recovery append hydrates
            let mut gm = shared.write();
            let events = build(gm.index().current_graph());
            for ev in &events {
                check_tail_range(tail, ev)?;
            }
            // An empty batch never rolls; `prepare` refuses it.
            let roll = events
                .first()
                .is_some_and(|first| self.wants_roll(tail, &gm, first));
            if roll && exclusive.is_none() {
                drop(gm);
                drop(shared_lock);
                exclusive = Some(self.write_shards());
                continue;
            }
            let (expanded, normalized) = prepare(&gm, events)?;
            if !roll {
                return self.apply_tail_prepared(tail, &mut gm, &expanded, normalized);
            }
            let mut shards = exclusive.expect("a roll holds the exclusive lock");
            self.roll_tail(&mut shards, gm, &expanded)?;
            return Ok(BatchOutcome {
                applied: expanded.len(),
                normalized,
                t_min: expanded.first().expect("non-empty sequence").time,
                t_max: expanded.last().expect("non-empty sequence").time,
            });
        }
    }

    /// Rolls a new tail shard whose first contents are `expanded` (an
    /// already §3.1-normalized event sequence — one event for `APPEND`, the
    /// whole batch for `APPEND BATCH`). The boundary is the sequence's first
    /// time; building the new shard validates the events exactly like an
    /// append would (a malformed sequence fails the build and the old tail
    /// stays). The store comes from the same factory as the built shards',
    /// so a persistent deployment keeps rolled history durable too.
    fn roll_tail(
        &self,
        shards: &mut Vec<Shard>,
        gm: RwLockWriteGuard<'_, GraphManager>,
        expanded: &[Event],
    ) -> DgResult<()> {
        let boundary = expanded.first().expect("non-empty sequence").time;
        let seed_time = boundary.prev();
        // The old tail's graph seeds the new index directly; only durable
        // storage needs it spelled out as events (the tailseed file).
        let state = gm.index().current_graph().clone();
        let seed = self.is_durable().then(|| seed_events(&state, seed_time));
        let keys = gm.key_bindings();
        let mut next = GraphManager::build_seeded(
            state,
            seed_time,
            expanded,
            self.inner.config.manager.clone(),
            (self.inner.make_store)(shards.len()),
        )?;
        for (key, node) in keys {
            next.register_key(key, node);
        }
        // The old tail's segment holds its index rebuilt balanced — the
        // index a restart serves as is, built once here instead of on
        // every restart. The in-memory old tail keeps serving unchanged.
        let sealed = seed
            .is_some()
            .then(|| gm.index().rebuild(Arc::new(MemStore::new())))
            .transpose()?;
        drop(gm);
        // Persist the roll before exposing the new shard: seal the old
        // tail into its segment, start the next WAL generation holding the
        // triggering events, and commit with the manifest swap. An error
        // here leaves both disk (old manifest wins) and memory (no new
        // shard) on the old generation, the events unacknowledged.
        if let (Some(mut st), Some(seed), Some(sealed)) = (self.storage_guard(), seed, sealed) {
            st.roll(boundary, &seed, expanded, &sealed)?;
        }
        shards.push(Shard {
            cell: ShardCell::eager(SharedGraphManager::new(next)),
            lower: Some(boundary),
            // The events that triggered the roll land in the new shard.
            events: AtomicUsize::new(expanded.len()),
            queries: AtomicU64::new(0),
            appends: AtomicU64::new(expanded.len() as u64),
        });
        Ok(())
    }

    /// Applies an already-expanded event sequence to the tail manager,
    /// writing it ahead to the WAL first (as one unit) when the router is
    /// durable — the WAL therefore always records the normalized,
    /// well-formed stream that recovery rebuilds from. If the in-memory
    /// apply rejects the sequence, the WAL records are rolled back to the
    /// sequence's start offset so recovery never replays a refused event or
    /// a batch prefix (a crash inside this window is healed by
    /// [`ShardedGraphManager::open`]'s drop-last-record retry). The applied
    /// events count against the tail's roll budget and `appends` counter —
    /// events, not requests; the request-level view lives in the per-verb
    /// histograms.
    fn apply_tail_prepared(
        &self,
        tail: &Shard,
        gm: &mut GraphManager,
        expanded: &[Event],
        normalized: usize,
    ) -> DgResult<BatchOutcome> {
        let outcome = match self.storage_guard() {
            Some(mut st) => {
                let offset = st.append_batch(expanded)?;
                match gm.apply_prepared(expanded, normalized) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        st.rollback(offset)?;
                        return Err(e);
                    }
                }
            }
            None => gm.apply_prepared(expanded, normalized)?,
        };
        tail.events.fetch_add(outcome.applied, Ordering::Relaxed);
        tail.appends
            .fetch_add(outcome.applied as u64, Ordering::Relaxed);
        Ok(outcome)
    }

    fn wants_roll(&self, tail: &Shard, gm: &GraphManager, event: &Event) -> bool {
        let budget = self.inner.config.shard_events;
        budget > 0
            && tail.events.load(Ordering::Relaxed) >= budget
            && gm
                .index()
                .history_range()
                .is_ok_and(|(_, end)| event.time > end)
    }

    /// Registers an application key on every shard (rolled shards inherit
    /// the tail's table). Cold shards receive the key when they hydrate,
    /// via the router's registry. On a durable router the binding is also
    /// appended to `keys.log` (best effort: a write failure — ENOSPC, a
    /// degraded tail — leaves the binding live in memory but not durable;
    /// `STATS HEALTH` exposes the degradation).
    pub fn register_key(&self, key: impl Into<String>, node: tgraph::NodeId) {
        let key = key.into();
        {
            let shards = self.read_shards();
            let mut keys = self
                .inner
                .keys
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            keys.push((key.clone(), node));
            // Holding the registry lock while registering on built shards
            // pairs with ShardCell::get publishing inside the same critical
            // section: a shard hydrating right now either shows up as built
            // here or replays the registry entry we just pushed.
            for shard in shards.iter() {
                if let Some(shared) = shard.cell.peek() {
                    shared.write().register_key(key.clone(), node);
                }
            }
        }
        // Persist after every lock above is released (storage is ordered
        // before `keys`, never after it).
        if let Some(mut st) = self.storage_guard() {
            st.record_key(&key, node.0).ok();
        }
    }

    /// Resolves an application key from the router's registry (the table
    /// every shard replays).
    pub fn resolve_key(&self, key: &str) -> Option<tgraph::NodeId> {
        let keys = self
            .inner
            .keys
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Latest registration wins, matching the managers' table.
        keys.iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|&(_, node)| node)
    }

    /// Per-shard serving statistics, in time order (tail last). Never
    /// hydrates: a cold (lazily recovered, untouched) shard reports its
    /// event count from the stored plan and zeroed serving counters, so a
    /// metrics scrape stays cheap right after recovery.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        let shards = self.read_shards();
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut cache = CacheOverview::default();
                let cache_entries = s.cell.peek().map_or(0, |shared| {
                    let gm = shared.read();
                    gm.cache.add_to(gm.pool(), &mut cache);
                    gm.cache.len()
                });
                ShardInfo {
                    index: i,
                    lower: s.lower,
                    upper: shards.get(i + 1).and_then(|n| n.lower),
                    events: s.events.load(Ordering::Relaxed),
                    overlays: cache.overlays,
                    cache_entries,
                    cache: cache.stats,
                    response_entries: cache.response_entries,
                    response: cache.response,
                    queries: s.queries.load(Ordering::Relaxed),
                    appends: s.appends.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Microseconds each lazily recovered shard's successful hydration took
    /// (shard order; cold and eagerly built shards contribute nothing) — the
    /// samples behind `shard_hydrations_total` and `shard_hydrate_us`.
    pub fn hydration_us(&self) -> Vec<u64> {
        self.read_shards()
            .iter()
            .map(|s| s.cell.hydrate_us.load(Ordering::Relaxed))
            .filter(|&us| us > 0)
            .collect()
    }

    /// Microseconds spent blocked acquiring shard locks, summed over the
    /// built shards, as `(read, write)` — the totals behind
    /// `shard_read_lock_wait_us_total` and `shard_write_lock_wait_us_total`
    /// (see [`SharedGraphManager::lock_wait_us`]). Never hydrates.
    pub fn lock_wait_us(&self) -> (u64, u64) {
        self.read_shards()
            .iter()
            .filter_map(|s| s.cell.peek())
            .map(SharedGraphManager::lock_wait_us)
            .fold((0, 0), |(r, w), (sr, sw)| (r + sr, w + sw))
    }

    /// Router-wide health (the `STATS HEALTH` payload). Never hydrates: a
    /// health probe must stay cheap precisely when the deployment is in
    /// trouble. Per-shard state is `"quarantined"` when the last hydration
    /// attempt failed, `"degraded"` for a tail whose durable storage went
    /// read-only, `"ready"` when built, `"cold"` otherwise.
    pub fn health_info(&self) -> HealthInfo {
        let shards = self.read_shards();
        let (degraded, degraded_reason, storage_retries) = match self.storage_guard() {
            Some(st) => (
                st.is_degraded(),
                st.degraded_reason().unwrap_or_default().to_string(),
                st.retries(),
            ),
            None => (false, String::new(), 0),
        };
        let tail = shards.len() - 1;
        let mut info = HealthInfo {
            degraded,
            degraded_reason,
            storage_retries,
            ..HealthInfo::default()
        };
        for (i, s) in shards.iter().enumerate() {
            let quarantined = s.cell.quarantined.load(Ordering::Relaxed);
            let failures = s.cell.failures.load(Ordering::Relaxed);
            let state = if quarantined {
                info.quarantined += 1;
                "quarantined"
            } else if degraded && i == tail {
                "degraded"
            } else if s.cell.peek().is_some() {
                "ready"
            } else {
                "cold"
            };
            info.hydration_failures += failures;
            info.shards.push(ShardHealth {
                index: i,
                state: state.to_string(),
                failures,
            });
        }
        info
    }

    /// Every shard's point cache (the `STATS CACHE` payload): counters
    /// summed, entry lists concatenated and sorted by `(t, opts)`;
    /// capacities are per shard.
    pub fn cache_overview(&self) -> CacheOverview {
        let shards = self.read_shards();
        let config = &self.inner.config.manager;
        let mut overview = CacheOverview {
            capacity: config.snapshot_cache_capacity,
            response_capacity: config.response_cache_capacity,
            response_byte_budget: config.response_cache_bytes,
            ..CacheOverview::default()
        };
        // A cold shard has an empty cache and no overlays: contributes
        // nothing, costs nothing.
        for shared in shards.iter().filter_map(|shard| shard.cell.peek()) {
            let gm = shared.read();
            gm.cache.add_to(gm.pool(), &mut overview);
            overview.entries.extend(gm.cache_entries());
        }
        overview.entries.sort_by(|a, b| {
            a.t.cmp(&b.t)
                .then_with(|| a.opts.cmp(&b.opts))
                .then_with(|| a.overlay.cmp(&b.overlay))
        });
        overview
    }

    /// Starts a session whose per-shard overlays are released when it drops.
    pub fn session(&self) -> ShardedSession {
        ShardedSession {
            router: self.clone(),
            sessions: HashMap::new(),
        }
    }
}

/// Serving shards over freshly built managers, one per plan.
fn eager_shards(plans: &[ShardPlan], managers: Vec<GraphManager>) -> Vec<Shard> {
    plans
        .iter()
        .zip(managers)
        .map(|(plan, gm)| {
            let cell = ShardCell::eager(SharedGraphManager::new(gm));
            Shard::new(cell, plan.lower, plan.events.len())
        })
        .collect()
}

fn shard_index_in(shards: &[Shard], t: Timestamp) -> usize {
    // The first shard is unbounded below; later shards own [lower, next).
    shards
        .iter()
        .rposition(|s| s.lower.is_none_or(|lower| lower <= t))
        .unwrap_or(0)
}

fn check_tail_range(tail: &Shard, event: &Event) -> DgResult<()> {
    if let Some(lower) = tail.lower {
        if event.time < lower {
            return Err(DgError::InvalidParameter(format!(
                "event at t={} predates the tail shard's lower bound {} — \
                 historical shards are immutable",
                event.time.raw(),
                lower.raw()
            )));
        }
    }
    Ok(())
}

/// A session over the router: one lazily created [`PoolSession`] per shard
/// the session touches. Dropping it releases every overlay on every shard.
pub struct ShardedSession {
    router: ShardedGraphManager,
    sessions: HashMap<usize, PoolSession>,
}

/// The per-shard half of a multipoint query: probe the shard's snapshot
/// cache per point (hot points share the cached overlay), then compute the
/// remaining cold points together through the shard's Steiner planner —
/// with no overlay and no insert, so a wide cold scan costs the pool
/// nothing and cannot evict the hot set.
fn shard_multipoint(
    session: &mut PoolSession,
    times: &[Timestamp],
    opts: &AttrOptions,
) -> DgResult<Vec<Arc<Snapshot>>> {
    let hits: Vec<Option<GraphId>> = times
        .iter()
        .map(|&t| session.acquire_cached(t, opts))
        .collect();
    // The session holds a reference to every hit, so each overlay stays
    // put while it is materialized.
    let mut out: Vec<Option<Arc<Snapshot>>> = {
        let gm = session.shared().read();
        hits.iter()
            .map(|hit| hit.map(|id| Arc::new(gm.graph(id).to_snapshot())))
            .collect()
    };
    let missing: Vec<Timestamp> = out
        .iter()
        .zip(times)
        .filter(|(snap, _)| snap.is_none())
        .map(|(_, &t)| t)
        .collect();
    if !missing.is_empty() {
        let snaps = session
            .shared()
            .read()
            .index()
            .get_snapshots(&missing, opts)?;
        let mut computed = snaps.into_iter();
        for slot in out.iter_mut().filter(|snap| snap.is_none()) {
            *slot = Some(Arc::new(computed.next().expect("one snapshot per miss")));
        }
    }
    Ok(out
        .into_iter()
        .map(|snap| snap.expect("every slot filled"))
        .collect())
}

impl ShardedSession {
    /// The router this session runs against.
    pub fn router(&self) -> &ShardedGraphManager {
        &self.router
    }

    fn session_for(&mut self, shard: usize) -> DgResult<&mut PoolSession> {
        if !self.sessions.contains_key(&shard) {
            let session = self.router.shard_at(shard)?.session();
            self.sessions.insert(shard, session);
        }
        Ok(self.sessions.get_mut(&shard).expect("just inserted"))
    }

    /// Point retrieval through the owning shard's snapshot cache (see
    /// [`PoolSession::retrieve_cached`]).
    pub fn retrieve_cached(&mut self, t: Timestamp, opts: &AttrOptions) -> DgResult<CachedPoint> {
        self.retrieve_cached_routed(t, opts).map(|(_, point)| point)
    }

    /// Like [`ShardedSession::retrieve_cached`], but also returns a handle
    /// to the shard that served the point. Anything derived from the
    /// snapshot — in particular rendered response bytes guarded by
    /// [`CachedPoint::epoch`] — must be cached through *this* handle: the
    /// epoch is only meaningful on the shard that produced it, and
    /// re-routing by time could reach a tail shard rolled after the
    /// retrieval, whose fresh epoch can coincide with the old tail's.
    pub fn retrieve_cached_routed(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<(SharedGraphManager, CachedPoint)> {
        let shard = self.router.shard_index_for(t);
        self.router.note_queries(shard, 1);
        let session = self.session_for(shard)?;
        let point = session.retrieve_cached(t, opts)?;
        Ok((session.shared().clone(), point))
    }

    /// A single-flight follower's reference on the owning shard (see
    /// [`PoolSession::join_cached`]): a hit bumps the cached overlay's
    /// refcount into this session — the same bookkeeping as a
    /// [`ShardedSession::retrieve_cached`] hit — and a miss computes and
    /// acquires nothing but counts toward the point's admission. The caller
    /// answers from the leader's bytes either way.
    pub fn join_cached_routed(&mut self, t: Timestamp, opts: &AttrOptions) -> Option<GraphId> {
        let shard = self.router.shard_index_for(t);
        // The follower is served either way, so the query counts either way.
        self.router.note_queries(shard, 1);
        // A probe on a cold shard is a guaranteed miss and must compute
        // nothing — including the shard's own deferred index build.
        if !self.sessions.contains_key(&shard) && !self.router.is_hydrated(shard) {
            return None;
        }
        self.session_for(shard).ok()?.join_cached(t, opts)
    }

    /// The reactor's fast path on the owning shard (see
    /// [`PoolSession::acquire_hot`]): the framed reply for
    /// `(t, opts, format)` and a reference to its cached overlay, or `None`
    /// with nothing counted or held.
    pub fn acquire_hot_routed(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<Arc<[u8]>> {
        let shard = self.router.shard_index_for(t);
        // A probe on a cold shard is a guaranteed miss and must compute
        // nothing — including the shard's own deferred index build.
        if !self.sessions.contains_key(&shard) && !self.router.is_hydrated(shard) {
            return None;
        }
        let bytes = self.session_for(shard).ok()?.acquire_hot(t, opts, format)?;
        // Counted only on the hit, like the cache's own counters.
        self.router.note_queries(shard, 1);
        Some(bytes)
    }

    /// Multipoint retrieval: times are grouped by owning shard; each group
    /// runs the hybrid cached/Steiner path on its shard, distinct shards in
    /// parallel, and the snapshots are reassembled in **request order**
    /// regardless of shard completion order.
    pub fn get_graphs_at(
        &mut self,
        times: &[Timestamp],
        opts: &AttrOptions,
    ) -> DgResult<Vec<Arc<Snapshot>>> {
        self.router
            .fan_out(&mut self.sessions, times, |session, ts| {
                shard_multipoint(session, ts, opts)
            })
    }

    /// Interval retrieval on the single shard covering `[start, end)`. The
    /// graph is answered, not overlaid.
    pub fn interval(
        &self,
        start: Timestamp,
        end: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<(Snapshot, Vec<Event>)> {
        let max = if end > start { end.prev() } else { start };
        let (shard, shared) = self.router.covering_shard(start.min(max), start.max(max))?;
        self.router.note_queries(shard, 1);
        let interval = shared
            .read()
            .index()
            .get_snapshot_interval(start, end, opts);
        interval
    }

    /// Boolean time-expression retrieval on the single shard covering every
    /// referenced point. The hypothetical graph is answered, not overlaid.
    pub fn expr(
        &self,
        tex: &TimeExpression,
        anchor: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<Snapshot> {
        let min = tex.times.iter().copied().min().unwrap_or(anchor);
        let max = tex.times.iter().copied().max().unwrap_or(anchor);
        let (shard, shared) = self.router.covering_shard(min, max)?;
        self.router.note_queries(shard, 1);
        let graph = shared.read().index().get_time_expression(tex, opts);
        graph
    }

    /// Cached overlays this session holds references to, across every shard
    /// in shard order: one entry per overlay, with how many references the
    /// session holds to it.
    pub fn handles(&self) -> Vec<(GraphId, usize)> {
        let mut shards: Vec<_> = self.sessions.iter().collect();
        shards.sort_by_key(|(idx, _)| **idx);
        shards
            .into_iter()
            .flat_map(|(_, s)| s.handles().iter().copied())
            .collect()
    }

    /// Releases every reference on every shard; returns how many were
    /// released.
    pub fn release_now(&mut self) -> usize {
        self.sessions
            .values_mut()
            .map(PoolSession::release_now)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{churn_trace, ChurnConfig};

    /// 60 nodes appearing at t = 1..=60, so shard contents are predictable.
    fn linear_trace() -> EventList {
        EventList::from_events(
            (1..=60)
                .map(|i| Event::add_node(i, 1000 + i as u64))
                .collect(),
        )
    }

    fn router(shards: usize) -> ShardedGraphManager {
        ShardedGraphManager::build_in_memory(
            &linear_trace(),
            ShardedConfig::default()
                .with_shards(shards)
                .with_manager(GraphManagerConfig::default().with_snapshot_cache(16)),
        )
        .unwrap()
    }

    #[test]
    fn sharded_snapshots_match_single_manager() {
        let events = linear_trace();
        let single = GraphManager::build_in_memory(&events, GraphManagerConfig::default()).unwrap();
        for shards in [1, 2, 3, 5] {
            let sharded = router(shards);
            assert!(sharded.shard_count() >= 1 && sharded.shard_count() <= shards);
            for t in [0i64, 1, 15, 20, 21, 40, 41, 59, 60, 99] {
                let opts = AttrOptions::all();
                let want = single.index().get_snapshot(Timestamp(t), &opts).unwrap();
                let got = sharded.snapshot_at(Timestamp(t), &opts).unwrap();
                assert_eq!(got, want, "shards={shards} t={t}");
            }
        }
    }

    #[test]
    fn routing_respects_boundaries() {
        let sharded = ShardedGraphManager::build_in_memory(
            &linear_trace(),
            ShardedConfig::default().with_boundaries(vec![Timestamp(21), Timestamp(41)]),
        )
        .unwrap();
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.shard_index_for(Timestamp(i64::MIN)), 0);
        assert_eq!(sharded.shard_index_for(Timestamp(20)), 0);
        assert_eq!(sharded.shard_index_for(Timestamp(21)), 1);
        assert_eq!(sharded.shard_index_for(Timestamp(40)), 1);
        assert_eq!(sharded.shard_index_for(Timestamp(41)), 2);
        assert_eq!(sharded.shard_index_for(Timestamp(i64::MAX)), 2);
        let infos = sharded.shard_infos();
        assert_eq!(infos[0].lower, None);
        assert_eq!(infos[0].upper, Some(Timestamp(21)));
        assert_eq!(infos[2].lower, Some(Timestamp(41)));
        assert_eq!(infos[2].upper, None);
        assert_eq!(infos.iter().map(|i| i.events).sum::<usize>(), 60);
    }

    #[test]
    fn degenerate_boundaries_are_suppressed() {
        // Boundaries below, at, and above the whole history collapse into a
        // single shard rather than building empty indexes.
        let sharded = ShardedGraphManager::build_in_memory(
            &linear_trace(),
            ShardedConfig::default().with_boundaries(vec![
                Timestamp(-100),
                Timestamp(1),
                Timestamp(30),
            ]),
        )
        .unwrap();
        assert_eq!(sharded.shard_count(), 2);
        let snap = sharded
            .snapshot_at(Timestamp(60), &AttrOptions::all())
            .unwrap();
        assert_eq!(snap.node_count(), 60);
    }

    #[test]
    fn appends_route_to_the_tail_and_historical_shards_stay_clean() {
        let sharded = router(3);
        let opts = AttrOptions::all();
        // Prime a historical point's cache on shard 0.
        let mut session = sharded.session();
        session.retrieve_cached(Timestamp(10), &opts).unwrap();
        session.retrieve_cached(Timestamp(10), &opts).unwrap();
        let before = sharded.shard_infos();
        assert_eq!(before[0].cache_entries, 1);
        sharded.append_event(Event::add_node(61, 9001)).unwrap();
        sharded.append_event(Event::add_node(62, 9002)).unwrap();
        let after = sharded.shard_infos();
        // The historical entry survived the tail appends.
        assert_eq!(after[0].cache_entries, 1);
        assert_eq!(after[0].cache.invalidations, 0);
        assert_eq!(
            after.last().unwrap().events,
            before.last().unwrap().events + 2
        );
        // And the appended nodes are visible at the tail.
        let snap = sharded.snapshot_at(Timestamp(62), &opts).unwrap();
        assert!(snap.has_node(tgraph::NodeId(9001)));
        assert!(snap.has_node(tgraph::NodeId(9002)));
    }

    #[test]
    fn appends_below_the_tail_bound_are_rejected() {
        let sharded = router(3);
        let err = sharded.append_event(Event::add_node(5, 9001)).unwrap_err();
        assert!(err.to_string().contains("immutable"), "{err}");
        // Ordinary chronology violations still surface from the tail shard.
        sharded.append_event(Event::add_node(70, 9001)).unwrap();
        let err = sharded.append_event(Event::add_node(65, 9002)).unwrap_err();
        assert!(err.to_string().contains("appended after"), "{err}");
    }

    #[test]
    fn tail_rolls_when_the_event_budget_is_exceeded() {
        let sharded = ShardedGraphManager::build_in_memory(
            &linear_trace(),
            ShardedConfig::default().with_shards(2).with_shard_events(5),
        )
        .unwrap();
        let shards_before = sharded.shard_count();
        // The built tail already exceeds the budget, so the first
        // strictly-later append rolls.
        sharded.append_event(Event::add_node(100, 9000)).unwrap();
        assert_eq!(sharded.shard_count(), shards_before + 1);
        let infos = sharded.shard_infos();
        assert_eq!(infos.last().unwrap().lower, Some(Timestamp(100)));
        assert_eq!(infos.last().unwrap().events, 1);
        // Appends keep landing on the new tail until it too fills up.
        for i in 1..5 {
            sharded
                .append_event(Event::add_node(100 + i, 9000 + i as u64))
                .unwrap();
        }
        assert_eq!(sharded.shard_count(), shards_before + 1);
        sharded.append_event(Event::add_node(200, 9500)).unwrap();
        assert_eq!(sharded.shard_count(), shards_before + 2);
        // History is intact across every roll.
        let snap = sharded
            .snapshot_at(Timestamp(200), &AttrOptions::all())
            .unwrap();
        assert_eq!(snap.node_count(), 60 + 6);
        assert!(snap.has_node(tgraph::NodeId(9500)));
        // And pre-roll history still answers from the rolled-over shards.
        let mid = sharded
            .snapshot_at(Timestamp(102), &AttrOptions::all())
            .unwrap();
        assert_eq!(mid.node_count(), 60 + 3);
    }

    #[test]
    fn a_retrieval_planned_on_the_tail_executes_after_a_roll() {
        let sharded = ShardedGraphManager::build_in_memory(
            &linear_trace(),
            ShardedConfig::default()
                .with_shards(2)
                .with_shard_events(40)
                .with_manager(
                    GraphManagerConfig::default()
                        .with_index(deltagraph::DeltaGraphConfig::new(4, 2)),
                ),
        )
        .unwrap();
        let mut replay = linear_trace();
        let mut append = |t: i64, node: u64| {
            let event = Event::add_node(t, node);
            replay.push(event.clone()).unwrap();
            sharded.append_event(event).unwrap();
        };
        append(61, 9061);
        append(62, 9062);
        // t=45 lies in an interval of the tail's index, t=62 after its
        // last leaf.
        let tail = sharded.shard_for(Timestamp(62)).unwrap();
        let opts = AttrOptions::all();
        let plan = |t: i64| tail.read().index().plan_retrieval(Timestamp(t), &opts);
        assert!(tail
            .read()
            .index()
            .plan_snapshot(Timestamp(45), &opts)
            .unwrap()
            .is_some());
        assert!(tail
            .read()
            .index()
            .plan_snapshot(Timestamp(62), &opts)
            .unwrap()
            .is_none());
        let planned = [(45, plan(45).unwrap()), (62, plan(62).unwrap())];
        let shards = sharded.shard_count();
        for i in 0..12 {
            append(70 + i, 9070 + i as u64);
        }
        assert!(sharded.shard_count() > shards, "the tail did not roll");
        let oracle = datagen::Dataset {
            name: "linear",
            events: replay,
        };
        for (t, retrieval) in planned {
            let t = Timestamp(t);
            assert_eq!(
                retrieval.execute::<Snapshot>().unwrap(),
                oracle.snapshot_at(t),
                "t={t}"
            );
        }
    }

    #[test]
    fn response_bytes_put_after_a_roll_stay_on_the_shard_that_rendered_them() {
        // The exact race the pinned-handle API exists for: a reply is
        // rendered from the tail, a concurrent append rolls a new tail
        // (fresh epoch 0, same as the old tail's), and only then does the
        // renderer insert its bytes. The insert must land on the shard the
        // snapshot came from — where it is harmless — never on the new
        // tail, which would serve pre-roll bytes for post-roll queries.
        let sharded = ShardedGraphManager::build_in_memory(
            &linear_trace(),
            ShardedConfig::default()
                .with_shards(2)
                .with_shard_events(4)
                .with_manager(
                    GraphManagerConfig::default()
                        .with_snapshot_cache(8)
                        .with_response_cache(8),
                ),
        )
        .unwrap();
        let opts = AttrOptions::all();
        let t = Timestamp(1000);
        let mut session = sharded.session();
        let bytes: Arc<[u8]> = b"pre-roll reply".to_vec().into();
        // Bytes are kept only for an admitted point, its second reference.
        let (first, point) = session.retrieve_cached_routed(t, &opts).unwrap();
        assert!(!first.response_cache_put(
            t,
            &opts,
            WireFormat::Text,
            Arc::clone(&bytes),
            point.epoch
        ));
        let (old_shard, point) = session.retrieve_cached_routed(t, &opts).unwrap();
        assert!(point.overlay.is_some(), "the second reference is admitted");
        // The roll happens between the render and the insert.
        sharded.append_event(Event::add_node(100, 9000)).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        assert!(
            old_shard.response_cache_put(
                t,
                &opts,
                WireFormat::Text,
                Arc::clone(&bytes),
                point.epoch
            ),
            "the rendering shard's epoch is unchanged, so it may cache"
        );
        // t=1000 now routes to the rolled tail, whose cache never saw the
        // stale bytes.
        let owning = sharded.shard_for(t).unwrap();
        assert!(owning
            .response_cache_get(t, &opts, WireFormat::Text)
            .is_none());
        // And a fresh retrieval reflects the append.
        let snap = sharded.snapshot_at(t, &opts).unwrap();
        assert!(snap.has_node(tgraph::NodeId(9000)));
    }

    #[test]
    fn rolled_shards_draw_their_store_from_the_factory() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counting = {
            let calls = Arc::clone(&calls);
            move |_shard: usize| -> Arc<dyn KeyValueStore> {
                calls.fetch_add(1, Ordering::Relaxed);
                Arc::new(MemStore::new())
            }
        };
        let sharded = ShardedGraphManager::build(
            &linear_trace(),
            ShardedConfig::default().with_shards(2).with_shard_events(5),
            counting,
        )
        .unwrap();
        let built = sharded.shard_count();
        assert_eq!(calls.load(Ordering::Relaxed), built);
        // A roll must go back to the same factory (durable deployments keep
        // rolled history durable), not silently fall back to a MemStore.
        sharded.append_event(Event::add_node(100, 9000)).unwrap();
        assert_eq!(sharded.shard_count(), built + 1);
        assert_eq!(calls.load(Ordering::Relaxed), built + 1);
    }

    #[test]
    fn multipoint_preserves_request_order_across_shards() {
        let sharded = router(3);
        let opts = AttrOptions::all();
        let times: Vec<Timestamp> = [55i64, 5, 35, 15, 45, 25]
            .into_iter()
            .map(Timestamp)
            .collect();
        let mut session = sharded.session();
        let snaps = session.get_graphs_at(&times, &opts).unwrap();
        assert_eq!(snaps.len(), times.len());
        for (t, snap) in times.iter().zip(&snaps) {
            assert_eq!(
                snap.node_count(),
                t.raw() as usize,
                "snapshot order must follow request order (t={})",
                t.raw()
            );
        }
        // Cold points are answered, not overlaid.
        assert!(session.handles().is_empty());
        let overlays = || -> usize { sharded.shard_infos().iter().map(|i| i.overlays).sum() };
        assert_eq!(overlays(), 0);
        // Once every point is cached (a second point reference admits it),
        // the multipoint shares the cached overlays across shard sessions.
        let mut warm = sharded.session();
        for &t in times.iter().chain(&times) {
            warm.retrieve_cached(t, &opts).unwrap();
        }
        assert_eq!(overlays(), times.len());
        let again = session.get_graphs_at(&times, &opts).unwrap();
        assert_eq!(again, snaps);
        assert_eq!(session.handles().len(), times.len());
        assert_eq!(session.release_now(), times.len());
    }

    #[test]
    fn history_samples_span_shards() {
        let sharded = router(4);
        let times: Vec<Timestamp> = (0..=5).map(|i| Timestamp(i * 12)).collect();
        let snaps = sharded.snapshots_at(&times, &AttrOptions::all()).unwrap();
        for (t, snap) in times.iter().zip(&snaps) {
            assert_eq!(snap.node_count(), (t.raw().clamp(0, 60)) as usize);
        }
    }

    #[test]
    fn interval_and_expr_are_range_restricted() {
        let sharded = router(3);
        let opts = AttrOptions::all();
        let session = sharded.session();
        // Fully inside shard 1 ([21, 41)): fine.
        let (graph, transients) = session
            .interval(Timestamp(25), Timestamp(30), &opts)
            .unwrap();
        assert_eq!(graph.node_count(), 5); // nodes 25..29
        assert!(transients.is_empty());
        // Spanning shards: a clear error, not a wrong answer.
        let err = session
            .interval(Timestamp(10), Timestamp(50), &opts)
            .unwrap_err();
        assert!(err.to_string().contains("spans shards"), "{err}");
        let tex = TimeExpression::diff(30i64, 25i64);
        assert!(session.expr(&tex, Timestamp(25), &opts).is_ok());
        let spanning = TimeExpression::diff(50i64, 10i64);
        let err = session.expr(&spanning, Timestamp(10), &opts).unwrap_err();
        assert!(err.to_string().contains("spans shards"), "{err}");
        // Answers are not overlaid: the session holds nothing.
        assert!(session.handles().is_empty());
        let shard = sharded.shard_for(Timestamp(25)).unwrap();
        assert_eq!(shard.read().pool().active_overlay_count(), 0);
    }

    #[test]
    fn keys_registered_before_a_roll_survive_it() {
        let sharded = ShardedGraphManager::build_in_memory(
            &linear_trace(),
            ShardedConfig::default().with_shard_events(5),
        )
        .unwrap();
        sharded.register_key("alice", tgraph::NodeId(1001));
        sharded.append_event(Event::add_node(100, 9000)).unwrap();
        assert!(sharded.shard_count() > 1);
        assert_eq!(sharded.resolve_key("alice"), Some(tgraph::NodeId(1001)));
        // The rolled tail resolves it too.
        let tail = sharded.shard_handles().unwrap().pop().unwrap();
        assert_eq!(tail.read().resolve_key("alice"), Some(tgraph::NodeId(1001)));
    }

    #[test]
    fn sessions_release_across_shards_on_drop() {
        let sharded = router(3);
        let opts = AttrOptions::all();
        {
            let mut session = sharded.session();
            for t in [10, 50, 10, 50] {
                session.retrieve_cached(Timestamp(t), &opts).unwrap();
            }
            let overlays: usize = sharded.shard_infos().iter().map(|i| i.overlays).sum();
            assert_eq!(overlays, 2);
        }
        // The cache (capacity 16) keeps the overlays warm, but the sessions'
        // own references are gone.
        for shared in sharded.shard_handles().unwrap() {
            let gm = shared.read();
            for entry in gm.cache_entries() {
                assert_eq!(entry.refs, 1, "only the cache reference remains");
            }
        }
    }

    #[test]
    fn churn_trace_equivalence_with_appends() {
        let ds = churn_trace(&ChurnConfig::tiny(424));
        let mut single =
            GraphManager::build_in_memory(&ds.events, GraphManagerConfig::default()).unwrap();
        let sharded = ShardedGraphManager::build_in_memory(
            &ds.events,
            ShardedConfig::default().with_shards(4).with_shard_events(8),
        )
        .unwrap();
        let end = ds.end_time().raw();
        for i in 0..20 {
            let ev = Event::add_node(end + 1 + i, 77_000 + i as u64);
            single.append_event(ev.clone()).unwrap();
            sharded.append_event(ev).unwrap();
        }
        let opts = AttrOptions::all();
        for t in [
            ds.start_time().raw(),
            (ds.start_time().raw() + end) / 2,
            end,
            end + 10,
            end + 20,
        ] {
            assert_eq!(
                sharded.snapshot_at(Timestamp(t), &opts).unwrap(),
                single.index().get_snapshot(Timestamp(t), &opts).unwrap(),
                "t={t}"
            );
        }
    }

    #[test]
    fn shard_info_roundtrips_through_the_codec() {
        let info = ShardInfo {
            index: 2,
            lower: Some(Timestamp(-5)),
            upper: None,
            events: 42,
            overlays: 3,
            cache_entries: 2,
            cache: CacheStats {
                hits: 9,
                misses: 4,
                insertions: 4,
                invalidations: 1,
                evictions: 0,
            },
            response_entries: 1,
            response: ResponseCacheStats {
                hits: 7,
                misses: 2,
                insertions: 2,
                invalidations: 0,
                evictions: 1,
                bytes: 128,
            },
            queries: 17,
            appends: 5,
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        let decoded = ShardInfo::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(decoded, info);
    }

    #[test]
    fn storage_info_roundtrips_through_the_codec() {
        let info = StorageInfo {
            durable: true,
            policy: "interval=250".into(),
            segments: 3,
            segment_bytes: 4096,
            wal_bytes: 512,
            wal_appends: 17,
            wal_fsyncs: 5,
            torn_bytes: 7,
            torn_truncations: 1,
            recovery_ms: 42,
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        let decoded = StorageInfo::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(decoded, info);
    }

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sharded-durable-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The tail WAL file of a durable directory.
    fn tail_wal(dir: &std::path::Path) -> std::path::PathBuf {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.extension().is_some_and(|x| x == "log")
                    && p.file_name().is_some_and(|f| f != "keys.log")
            })
            .expect("wal file")
    }

    #[test]
    fn durable_build_and_open_match_the_in_memory_router() {
        let dir = durable_dir("roundtrip");
        let ds = churn_trace(&ChurnConfig::tiny(77));
        let config = ShardedConfig::default()
            .with_shards(3)
            .with_shard_events(16);
        let mem = ShardedGraphManager::build_in_memory(&ds.events, config.clone()).unwrap();
        let built = ShardedGraphManager::build_durable(
            &ds.events,
            config.clone(),
            &dir,
            WalSyncPolicy::Off,
        )
        .unwrap();
        assert!(built.is_durable() && !mem.is_durable());
        assert!(crate::durable::is_durable_dir(&dir));
        drop(built);
        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
        assert_eq!(opened.shard_count(), mem.shard_count());
        let opts = AttrOptions::all();
        let (lo, hi) = (ds.start_time().raw(), ds.end_time().raw());
        for t in [lo, (lo + hi) / 2, hi] {
            assert_eq!(
                opened.snapshot_at(Timestamp(t), &opts).unwrap(),
                mem.snapshot_at(Timestamp(t), &opts).unwrap(),
                "t={t}"
            );
        }
        let info = opened.storage_info();
        assert!(info.durable);
        assert_eq!(info.segments as usize, opened.shard_count() - 1);
        assert!(info.recovery_ms >= 1);
        assert_eq!(info.torn_truncations, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_appends_and_rolls_survive_a_reopen() {
        let dir = durable_dir("rolls");
        let config = ShardedConfig::default().with_shards(2).with_shard_events(5);
        let sharded = ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        // The built tail already exceeds the 5-event budget, so the first
        // append rolls a new shard; the rest land in the fresh tail.
        for i in 0..8u64 {
            sharded
                .append_event(Event::add_node(100 + i as i64, 9000 + i))
                .unwrap();
        }
        let shards = sharded.shard_count();
        let segments = sharded.storage_info().segments;
        assert!(shards >= 3, "expected a roll, got {shards} shards");
        assert_eq!(segments as usize, shards - 1);
        drop(sharded);

        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
        assert_eq!(opened.shard_count(), shards);
        let snap = opened
            .snapshot_at(Timestamp(200), &AttrOptions::all())
            .unwrap();
        for i in 0..8u64 {
            assert!(snap.has_node(tgraph::NodeId(9000 + i)), "node {i} lost");
        }
        assert_eq!(snap.node_count(), 60 + 8);
        // Appending keeps working on the recovered tail.
        opened.append_event(Event::add_node(300, 9990)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_durable_tail_folds_appends_without_a_copy_each_and_reopens_to_the_same_answers() {
        // Appends fold into the tail's index under the full-copy rule; a
        // reopen rebuilds the tail from its log. Both answer alike.
        let dir = durable_dir("fold-replay");
        let ds = churn_trace(&ChurnConfig::tiny(53));
        let half = ds.events.len() / 2;
        let config = ShardedConfig::default().with_manager(
            GraphManagerConfig::default().with_index(deltagraph::DeltaGraphConfig::new(30, 2)),
        );
        let first = EventList::from_events(ds.events.events()[..half].to_vec());
        let sharded =
            ShardedGraphManager::build_durable(&first, config.clone(), &dir, WalSyncPolicy::Off)
                .unwrap();
        let leaves = |router: &ShardedGraphManager| {
            let tail = router.shard_handles().unwrap().pop().unwrap();
            let gm = tail.read();
            gm.index().skeleton().leaves().len()
        };
        let built = leaves(&sharded);
        for ev in &ds.events.events()[half..] {
            sharded.append_event(ev.clone()).unwrap();
        }
        let tail = sharded.shard_handles().unwrap().pop().unwrap();
        let (folds, copies) = {
            let gm = tail.read();
            let skeleton = gm.index().skeleton();
            let folded = &skeleton.leaves()[built..];
            let copies = skeleton
                .edges_from(skeleton.super_root())
                .filter(|e| folded.contains(&e.to))
                .count();
            (folded.len(), copies)
        };
        assert!(
            folds > 10 && copies >= 1 && copies < folds / 2,
            "{folds} folds, {copies} copies"
        );
        let opts = AttrOptions::all();
        let times = datagen::uniform_timepoints(ds.start_time(), ds.end_time(), 9);
        let answers: Vec<Snapshot> = times
            .iter()
            .map(|&t| sharded.snapshot_at(t, &opts).unwrap())
            .collect();
        drop((tail, sharded));
        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
        for (t, want) in times.iter().zip(&answers) {
            assert_eq!(&opened.snapshot_at(*t, &opts).unwrap(), want, "t={t}");
            assert_eq!(want, &ds.snapshot_at(*t), "t={t}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_wal_tail_is_truncated_on_open() {
        let dir = durable_dir("torn");
        let config = ShardedConfig::default().with_shards(1);
        let sharded = ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        sharded.append_event(Event::add_node(61, 9001)).unwrap();
        drop(sharded);
        // Simulate a crash mid-write: append half a record to the WAL.
        let wal = tail_wal(&dir);
        use std::io::Write;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&wal)
            .unwrap()
            .write_all(&[0xA1, 0xFF, 0x03])
            .unwrap();
        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
        let info = opened.storage_info();
        assert_eq!(info.torn_truncations, 1);
        assert_eq!(info.torn_bytes, 3);
        let snap = opened
            .snapshot_at(Timestamp(61), &AttrOptions::all())
            .unwrap();
        assert!(snap.has_node(tgraph::NodeId(9001)));
        assert_eq!(snap.node_count(), 61);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_rejected_apply_record_is_dropped_on_first_tail_touch() {
        let dir = durable_dir("heal");
        let config = ShardedConfig::default().with_shards(2);
        let sharded = ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        drop(sharded);
        // Simulate a crash between the WAL write-ahead and the rollback of
        // a rejected apply: a well-framed, checksum-valid final record whose
        // event the rebuild must refuse (node 1001 already exists).
        let wal_file = tail_wal(&dir);
        let bad = Event::add_node(61, 1001);
        let mut replay = kvstore::wal::Wal::open(&wal_file, WalSyncPolicy::Always).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        replay.wal.append(&bad).unwrap();
        drop(replay);
        let poisoned_len = std::fs::metadata(&wal_file).unwrap().len();

        // Open verifies frames, not semantics, so it accepts the record and
        // the cold tail counts it.
        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
        let tail = opened.shard_count() - 1;
        let events_before = opened.shard_infos()[tail].events;
        // The first tail touch fails the build, drops exactly that record,
        // rebuilds, and serves the surviving history.
        let snap = opened
            .snapshot_at(Timestamp(60), &AttrOptions::all())
            .unwrap();
        assert_eq!(snap.node_count(), 60);
        assert_eq!(opened.shard_infos()[tail].events, events_before - 1);
        assert_eq!(
            std::fs::metadata(&wal_file).unwrap().len(),
            poisoned_len - kvstore::wal_record_len(&bad),
            "exactly the poisoned record must be dropped from the log"
        );
        // The healed tail keeps ingesting, and the heal is durable: a
        // second recovery replays a clean log.
        opened.append_event(Event::add_node(61, 9001)).unwrap();
        drop(opened);
        let reopened = ShardedGraphManager::open(
            &dir,
            ShardedConfig::default().with_shards(2),
            WalSyncPolicy::Always,
        )
        .unwrap();
        let snap = reopened
            .snapshot_at(Timestamp(61), &AttrOptions::all())
            .unwrap();
        assert_eq!(snap.node_count(), 61);
        assert!(snap.has_node(tgraph::NodeId(9001)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_defers_historical_shard_builds_until_first_touch() {
        let dir = durable_dir("lazy");
        let ds = churn_trace(&ChurnConfig::tiny(79));
        let config = ShardedConfig::default().with_shards(3);
        let mem = ShardedGraphManager::build_in_memory(&ds.events, config.clone()).unwrap();
        drop(
            ShardedGraphManager::build_durable(
                &ds.events,
                config.clone(),
                &dir,
                WalSyncPolicy::Off,
            )
            .unwrap(),
        );

        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
        let shards = opened.shard_count();
        assert!(shards >= 2, "need a historical shard, got {shards}");
        // Every shard — tail included — came up cold; the stats, cache,
        // banner, and probe surfaces must all leave them cold.
        assert!(!opened.is_hydrated(shards - 1));
        assert!(!opened.is_hydrated(0));
        let infos = opened.shard_infos();
        assert_eq!(infos.len(), shards);
        assert_eq!(infos, mem.shard_infos(), "cold stats must match eager ones");
        let _ = opened.cache_overview();
        assert_eq!(
            opened.history_range().unwrap(),
            mem.history_range().unwrap()
        );
        assert!(opened
            .peek_cached(ds.start_time(), &AttrOptions::all())
            .is_none());
        assert!(!opened.is_hydrated(0), "a stats read must not hydrate");

        // A key registered while the shard is cold is visible after its
        // deferred build, exactly as if every shard had been built eagerly.
        let node = match ds.events.events()[0].kind {
            EventKind::AddNode { node } => node,
            ref k => panic!("first event should add a node, got {k:?}"),
        };
        opened.register_key("first", node);
        assert_eq!(opened.resolve_key("first"), Some(node));

        // First touch hydrates exactly the owning shard, and the answer
        // matches the in-memory router's.
        let t = ds.start_time();
        let opts = AttrOptions::all();
        assert_eq!(
            opened.snapshot_at(t, &opts).unwrap(),
            mem.snapshot_at(t, &opts).unwrap()
        );
        assert!(opened.is_hydrated(0));
        assert_eq!(
            opened.shard_at(0).unwrap().read().resolve_key("first"),
            Some(node),
            "registry must replay onto the hydrated shard"
        );
        // The tail stays cold through all of the above and hydrates on its
        // first append, which remains durable.
        assert!(!opened.is_hydrated(shards - 1));
        opened
            .append_event(Event::add_node(ds.end_time().raw() + 1, 777_777))
            .unwrap();
        assert!(opened.is_hydrated(shards - 1));
        assert!(opened.storage_info().wal_appends >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_and_hydrated_shards_report_identical_bounds() {
        let dir = durable_dir("bounds");
        let ds = churn_trace(&ChurnConfig::tiny(83));
        let config = ShardedConfig::default().with_shards(4);
        drop(
            ShardedGraphManager::build_durable(
                &ds.events,
                config.clone(),
                &dir,
                WalSyncPolicy::Off,
            )
            .unwrap(),
        );
        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
        let shards = opened.shard_count();
        assert!(shards >= 3, "need seeded shards, got {shards}");
        // `STATS SHARDS` rows and the per-shard time range, every shard cold.
        let bounds = |router: &ShardedGraphManager| -> Vec<_> {
            let cells = router.read_shards();
            router
                .shard_infos()
                .into_iter()
                .zip(cells.iter())
                .map(|(info, s)| {
                    let range = (s.cell.start_time(), s.cell.end_time());
                    (info.lower, info.upper, info.events, range)
                })
                .collect()
        };
        let cold = bounds(&opened);
        let cold_range = opened.history_range().unwrap();
        for i in 0..shards {
            assert!(!opened.is_hydrated(i), "shard {i} must start cold");
        }
        for (i, (lower, _, _, estimate)) in cold.iter().enumerate() {
            let range = opened
                .shard_at(i)
                .unwrap()
                .read()
                .index()
                .history_range()
                .unwrap();
            assert_eq!(*estimate, (Some(range.0), Some(range.1)), "shard {i}");
            if let Some(lower) = lower {
                // A seeded shard's history starts at its seed: the state
                // one tick below the routing bound.
                assert_eq!(range.0, lower.prev(), "shard {i}");
            }
        }
        assert_eq!(bounds(&opened), cold, "first touch must not move a bound");
        assert_eq!(opened.history_range().unwrap(), cold_range);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_tail_healed_down_to_its_seed_serves_and_ingests() {
        let dir = durable_dir("seed-only");
        let config = ShardedConfig::default().with_shards(2).with_shard_events(5);
        let sharded = ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        // The built tail is over budget: this append rolls a fresh tail whose
        // WAL holds exactly the trigger record.
        sharded.append_event(Event::add_node(100, 9000)).unwrap();
        let shards = sharded.shard_count();
        drop(sharded);
        // Replace that record with one the rebuild must refuse (node 1001 is
        // in the seed): the crash window between write-ahead and rollback.
        let bad = Event::add_node(100, 1001);
        let mut replay = kvstore::wal::Wal::open(tail_wal(&dir), WalSyncPolicy::Always).unwrap();
        assert_eq!(replay.events.len(), 1);
        replay.wal.truncate_to(0).unwrap();
        replay.wal.append(&bad).unwrap();
        drop(replay);

        let opened =
            ShardedGraphManager::open(&dir, config.clone(), WalSyncPolicy::Always).unwrap();
        assert_eq!(opened.shard_count(), shards);
        let tail = shards - 1;
        let opts = AttrOptions::all();
        // First touch: the build fails, the heal drops the only record, and
        // the tail comes up as its seed alone — a one-leaf index.
        assert_eq!(
            opened
                .snapshot_at(Timestamp(100), &opts)
                .unwrap()
                .node_count(),
            60
        );
        assert_eq!(opened.shard_infos()[tail].events, 0);
        assert_eq!(std::fs::metadata(tail_wal(&dir)).unwrap().len(), 0);
        let tail_shard = opened.shard_at(tail).unwrap();
        assert_eq!(tail_shard.read().index().skeleton().leaves().len(), 1);
        assert_eq!(
            opened.history_range().unwrap(),
            (Timestamp(0), Timestamp(99))
        );
        // An append onto the seeded tail, read on both sides of it.
        opened.append_event(Event::add_node(105, 9001)).unwrap();
        for (t, nodes) in [(99, 60), (100, 60), (104, 60), (105, 61), (1000, 61)] {
            let snap = opened.snapshot_at(Timestamp(t), &opts).unwrap();
            assert_eq!(snap.node_count(), nodes, "t={t}");
            assert_eq!(snap.has_node(tgraph::NodeId(9001)), t >= 105, "t={t}");
        }
        drop(tail_shard);
        drop(opened);
        // The heal and the append are both durable.
        let reopened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
        let snap = reopened.snapshot_at(Timestamp(105), &opts).unwrap();
        assert_eq!(snap.node_count(), 61);
        assert_eq!(reopened.shard_infos()[tail].events, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_roll_over_a_malformed_batch_leaves_the_old_tail_in_place() {
        let dir = durable_dir("bad-roll");
        let sharded = ShardedGraphManager::build_durable(
            &linear_trace(),
            ShardedConfig::default().with_shards(2).with_shard_events(5),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        let shards_before = sharded.shard_count();
        let segments_before = sharded.storage_info().segments;
        {
            // Past the append boundary's own validation: a sequence that
            // re-adds a node the seed already holds fails the seeded build.
            let mut shards = sharded.write_shards();
            let shared = shards.last().unwrap().shared(&sharded.inner).unwrap();
            let malformed = [Event::add_node(100, 9000), Event::add_node(101, 1001)];
            let err = sharded
                .roll_tail(&mut shards, shared.write(), &malformed)
                .unwrap_err();
            assert!(matches!(err, DgError::Model(_)), "{err}");
            assert_eq!(shards.len(), shards_before);
        }
        assert_eq!(sharded.storage_info().segments, segments_before);
        let opts = AttrOptions::all();
        let snap = sharded.snapshot_at(Timestamp(101), &opts).unwrap();
        assert_eq!(snap.node_count(), 60);
        assert!(!snap.has_node(tgraph::NodeId(9000)));
        // The old tail still ingests — and this well-formed append rolls.
        sharded.append_event(Event::add_node(100, 9000)).unwrap();
        assert_eq!(sharded.shard_count(), shards_before + 1);
        assert_eq!(sharded.storage_info().segments, segments_before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_info_roundtrips_through_the_codec() {
        let info = HealthInfo {
            shards: vec![
                ShardHealth {
                    index: 0,
                    state: "ready".into(),
                    failures: 0,
                },
                ShardHealth {
                    index: 1,
                    state: "quarantined".into(),
                    failures: 3,
                },
            ],
            degraded: true,
            degraded_reason: "injected EIO at wal.append".into(),
            quarantined: 1,
            hydration_failures: 3,
            storage_retries: 7,
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        let decoded = HealthInfo::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(decoded, info);
    }

    /// Appends `n` records to the durable dir's WAL that the rebuild must
    /// refuse (duplicate node ids), simulating a crash that left applied-
    /// rejected records behind. One such record is healed by the tail's
    /// drop-last-record retry; two exceed it and quarantine the tail.
    fn poison_tail_wal(dir: &std::path::Path, n: usize) {
        let mut replay = kvstore::wal::Wal::open(tail_wal(dir), WalSyncPolicy::Always).unwrap();
        for i in 0..n {
            // Node 1001 + i already exists in `linear_trace()`.
            replay
                .wal
                .append(&Event::add_node(61 + i as i64, 1001 + i as u64))
                .unwrap();
        }
    }

    #[test]
    fn a_failed_fan_out_keeps_the_sessions_overlays_on_other_shards() {
        let dir = durable_dir("fanout-keep");
        let config = ShardedConfig::default()
            .with_shards(2)
            .with_manager(GraphManagerConfig::default().with_snapshot_cache(8));
        drop(
            ShardedGraphManager::build_durable(
                &linear_trace(),
                config.clone(),
                &dir,
                WalSyncPolicy::Always,
            )
            .unwrap(),
        );
        // Two refused records quarantine the tail on its first touch.
        poison_tail_wal(&dir, 2);
        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
        let opts = AttrOptions::all();
        let mut session = opened.session();
        session.retrieve_cached(Timestamp(10), &opts).unwrap();
        session.retrieve_cached(Timestamp(10), &opts).unwrap();
        let held = session.handles();
        let refs = || {
            opened
                .shard_at(0)
                .unwrap()
                .read()
                .pool()
                .refcount(held[0].0)
        };
        let before = refs();
        assert_eq!(before, Some(2), "the cache's reference plus the session's");
        // Shard 0 resolves, the quarantined tail does not: the query fails
        // and the overlay the session already held on shard 0 must survive.
        let err = session
            .get_graphs_at(&[Timestamp(10), Timestamp(61)], &opts)
            .unwrap_err();
        assert!(matches!(err, DgError::ShardQuarantined { .. }), "{err}");
        assert_eq!(session.handles(), held);
        assert_eq!(refs(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_one_event_batch_writes_ahead_exactly_like_an_append() {
        let run = |name: &str, batch: bool| {
            let dir = durable_dir(name);
            let router = ShardedGraphManager::build_durable(
                &linear_trace(),
                ShardedConfig::default().with_shards(2),
                &dir,
                WalSyncPolicy::Always,
            )
            .unwrap();
            let before = router.storage_info();
            let event = Event::add_node(61, 9001);
            if batch {
                router.append_batch_with(|_| vec![event.clone()]).unwrap();
            } else {
                router.append_with(|_| event.clone()).unwrap();
            }
            let info = router.storage_info();
            assert_eq!(info.wal_appends, before.wal_appends + 1);
            assert_eq!(info.wal_fsyncs, before.wal_fsyncs + 1);
            let wal = std::fs::read(tail_wal(&dir)).unwrap();
            drop(router);
            std::fs::remove_dir_all(&dir).ok();
            (wal, info)
        };
        assert_eq!(run("wal-append", false), run("wal-batch", true));
    }

    #[test]
    fn a_tail_that_fails_hydration_is_quarantined_and_fast_fails() {
        let dir = durable_dir("quarantine");
        let config = ShardedConfig::default().with_shards(2);
        drop(
            ShardedGraphManager::build_durable(
                &linear_trace(),
                config.clone(),
                &dir,
                WalSyncPolicy::Always,
            )
            .unwrap(),
        );
        poison_tail_wal(&dir, 2);
        let opened = ShardedGraphManager::open(
            &dir,
            config.with_quarantine_retry_ms(600_000),
            WalSyncPolicy::Always,
        )
        .unwrap();
        let tail = opened.shard_count() - 1;
        let opts = AttrOptions::all();
        // First touch runs the build (and the one-record heal retry), fails
        // on the second poisoned record, and quarantines the tail.
        let err = opened.snapshot_at(Timestamp(61), &opts).unwrap_err();
        assert!(
            matches!(err, DgError::ShardQuarantined { .. }),
            "expected quarantine, got {err}"
        );
        // Touches inside the retry window fast-fail without re-attempting.
        let err = opened.snapshot_at(Timestamp(61), &opts).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        let health = opened.health_info();
        assert_eq!(health.shards[tail].state, "quarantined");
        assert_eq!(health.shards[tail].failures, 1, "fast-fail must not retry");
        assert_eq!(health.quarantined, 1);
        assert_eq!(health.hydration_failures, 1);
        // Healthy shards are untouched and keep serving.
        let snap = opened.snapshot_at(Timestamp(10), &opts).unwrap();
        assert_eq!(snap.node_count(), 10);
        assert_eq!(opened.health_info().shards[0].state, "ready");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_quarantined_tail_recovers_once_the_bad_records_drain() {
        let dir = durable_dir("requarantine");
        let config = ShardedConfig::default().with_shards(2);
        drop(
            ShardedGraphManager::build_durable(
                &linear_trace(),
                config.clone(),
                &dir,
                WalSyncPolicy::Always,
            )
            .unwrap(),
        );
        poison_tail_wal(&dir, 2);
        let opened = ShardedGraphManager::open(
            &dir,
            config.with_quarantine_retry_ms(0),
            WalSyncPolicy::Always,
        )
        .unwrap();
        let opts = AttrOptions::all();
        // Touch 1: the heal retry drops one poisoned record, the build
        // still fails on the other — quarantined.
        let err = opened.snapshot_at(Timestamp(61), &opts).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        // Retry window 0: the next touch re-hydrates; the heal retry drops
        // the remaining poisoned record and the build succeeds.
        let snap = opened.snapshot_at(Timestamp(61), &opts).unwrap();
        assert_eq!(snap.node_count(), 60);
        let health = opened.health_info();
        assert_eq!(health.shards.last().unwrap().state, "ready");
        assert_eq!(health.quarantined, 0);
        assert_eq!(health.hydration_failures, 1, "the counter is monotonic");
        // The recovered tail ingests again, durably.
        opened.append_event(Event::add_node(70, 9001)).unwrap();
        drop(opened);
        let reopened = ShardedGraphManager::open(
            &dir,
            ShardedConfig::default().with_shards(2),
            WalSyncPolicy::Always,
        )
        .unwrap();
        let snap = reopened.snapshot_at(Timestamp(70), &opts).unwrap();
        assert!(snap.has_node(tgraph::NodeId(9001)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_bindings_survive_a_router_reopen() {
        let dir = durable_dir("router-keys");
        let config = ShardedConfig::default().with_shards(2);
        let built = ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        built.register_key("alice", tgraph::NodeId(1001));
        built.register_key("alice", tgraph::NodeId(1002)); // latest wins
        built.register_key("bob", tgraph::NodeId(1003));
        drop(built);
        let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
        assert_eq!(opened.resolve_key("alice"), Some(tgraph::NodeId(1002)));
        assert_eq!(opened.resolve_key("bob"), Some(tgraph::NodeId(1003)));
        // The recovered registry replays onto lazily hydrated shards too.
        assert_eq!(
            opened.shard_at(0).unwrap().read().resolve_key("bob"),
            Some(tgraph::NodeId(1003))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_degraded_tail_keeps_serving_reads_and_reports_health() {
        let dir = durable_dir("degraded-router");
        let config = ShardedConfig::default().with_shards(2);
        let sharded = ShardedGraphManager::build_durable(
            &linear_trace(),
            config,
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        let scope = dir.to_string_lossy().to_string();
        kvstore::faults::arm_scoped(
            "wal.append",
            kvstore::FaultKind::Eio,
            0,
            Some(1),
            Some(&scope),
        );
        let err = sharded.append_event(Event::add_node(61, 9001)).unwrap_err();
        assert!(err.to_string().contains("DEGRADED"), "{err}");
        // Degradation is sticky until restart even though the fault cleared.
        let err = sharded.append_event(Event::add_node(62, 9002)).unwrap_err();
        assert!(err.to_string().contains("DEGRADED"), "{err}");
        // Reads keep serving the whole history.
        let snap = sharded
            .snapshot_at(Timestamp(60), &AttrOptions::all())
            .unwrap();
        assert_eq!(snap.node_count(), 60);
        let health = sharded.health_info();
        assert!(health.degraded);
        assert!(!health.degraded_reason.is_empty());
        assert_eq!(health.shards.last().unwrap().state, "degraded");
        assert_eq!(health.shards[0].state, "ready");
        kvstore::faults::clear("wal.append");
        std::fs::remove_dir_all(&dir).ok();
    }
}
