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
//!
//! This file is the router: configuration, build and open, routing,
//! fan-out, appends and rolls. One shard and its hydration and quarantine
//! live in `cell`, [`ShardedSession`] in `session`, and the `STATS`
//! payloads ([`ShardInfo`], [`StorageInfo`], [`HealthInfo`]) in `report`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::Instant;

use deltagraph::{DeltaGraph, DgError, DgResult, GraphForm};
use kvstore::wal::WalSyncPolicy;
use kvstore::{KeyValueStore, MemStore};
use tgraph::{AttrOptions, Event, EventKind, EventList, Snapshot, Timestamp};

use crate::cache::CacheOverview;
use crate::durable::{DurableState, Recovered, ShardPlan};
use crate::manager::{BatchOutcome, GraphManager, GraphManagerConfig};
use crate::shared::{PoolSession, SharedGraphManager};

mod cell;
mod report;
mod session;
#[cfg(test)]
mod tests;

use cell::{PendingSource, Shard, ShardCell};
pub use report::{HealthInfo, ShardHealth, ShardInfo, StorageInfo};
pub use session::ShardedSession;

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
        let retrieval = self
            .shard_for(t)?
            .read()
            .index()
            .plan_retrievals(&[t], opts)?;
        let graph = retrieval.execute()?.pop().expect("one time, one graph");
        Ok(Arc::unwrap_or_clone(graph))
    }

    /// Computes several snapshots, each on its owning shard, in request
    /// order. Times within one shard go through that shard's Steiner-tree
    /// multipoint planner together, planned under its read lock and
    /// executed with no lock held; distinct shards compute in parallel.
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
        // so they hold no handles and release nothing when they drop. Each
        // group is planned under its shard's read lock and executed with
        // none.
        self.fan_out(&mut HashMap::new(), times, |session, ts| {
            let plan = session.shared().read().index().plan_retrievals(ts, opts)?;
            Ok(plan
                .execute()?
                .into_iter()
                .map(Arc::unwrap_or_clone)
                .collect())
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
