//! The `GraphManager`: the system facade of Figure 2.
//!
//! It owns the DeltaGraph index (history manager duties: planning and disk
//! I/O), the GraphPool (overlaying retrieved graphs and cleaning them up),
//! and the lookup table translating application-level keys to internal node
//! ids (the query-manager duty that the paper notes is application specific).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use deltagraph::{DeltaGraph, DeltaGraphConfig, DgError, DgResult, IndexImage, IndexStats};
use graphpool::{GraphId, GraphPool, GraphView};
use kvstore::{DiskStore, KeyValueStore, MemStore};
use tgraph::{AttrOptions, EdgeId, Event, EventKind, NodeId, Snapshot, TimeExpression, Timestamp};

use crate::cache::{CacheEntryInfo, CacheStats, PointCache, ResponseCacheStats, WireFormat};

/// What [`GraphManager::append_batch`] applied, reported to clients so an
/// `APPEND BATCH` acknowledgement can say how many events landed and how
/// many clearing events the §3.1 contract injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Events applied to the index, including injected clearing events.
    pub applied: usize,
    /// Clearing events the §3.1 contract injected.
    pub normalized: usize,
    /// Earliest event time in the batch (the invalidation horizon).
    pub t_min: Timestamp,
    /// Latest event time in the batch.
    pub t_max: Timestamp,
}

/// Configuration of a [`GraphManager`].
#[derive(Clone, Debug, Default)]
pub struct GraphManagerConfig {
    /// DeltaGraph construction parameters.
    pub index: DeltaGraphConfig,
    /// If `true`, retrieved historical graphs are overlaid as *dependent* on
    /// the current graph whenever the number of differing elements is small
    /// relative to the graph size (the query-time decision of Section 6).
    pub dependent_overlays: bool,
    /// Entry capacity of the point cache used by point retrievals routed
    /// through [`crate::PoolSession::retrieve_cached`]: an LRU keyed by
    /// `(t, AttrOptions)` whose entries are pool overlays, shared
    /// (reference-counted) across sessions, each with a byte slot per wire
    /// format. An entry is the overlay, not a private copy of the
    /// snapshot. `0` (the default) disables caching; the paper-API methods
    /// on [`GraphManager`] itself never consult the cache. See
    /// [`crate::cache`].
    pub snapshot_cache_capacity: usize,
    /// How many framed replies the point cache's byte slots hold, across
    /// every entry and format (0 — the default — caches no bytes). Slots
    /// shed in their own LRU order; the overlay stays.
    pub response_cache_capacity: usize,
    /// Byte budget of the byte slots (0 — the default — leaves the byte
    /// total uncapped): on top of the slot count, the cache drops LRU
    /// replies until the cached bytes fit this budget.
    pub response_cache_bytes: u64,
}

impl GraphManagerConfig {
    /// Uses the given DeltaGraph configuration.
    pub fn with_index(mut self, index: DeltaGraphConfig) -> Self {
        self.index = index;
        self
    }

    /// Enables the point cache with the given capacity (entries).
    pub fn with_snapshot_cache(mut self, capacity: usize) -> Self {
        self.snapshot_cache_capacity = capacity;
        self
    }

    /// Lets the point cache keep the given number of framed replies.
    pub fn with_response_cache(mut self, capacity: usize) -> Self {
        self.response_cache_capacity = capacity;
        self
    }

    /// Caps the point cache's framed replies at the given total bytes
    /// (0 = uncapped).
    pub fn with_response_cache_bytes(mut self, bytes: u64) -> Self {
        self.response_cache_bytes = bytes;
        self
    }
}

/// The time leaf 0 of an index over a shard's `(seed, events)` sits at:
/// the seed's time, or — with no seed — one tick before the first event
/// (the state *entering* it). `None` when both are empty. Cold shards
/// report this as their start without building the index.
pub(crate) fn seeded_start(seed: &[Event], events: &[Event]) -> Option<Timestamp> {
    seed.last()
        .map(|e| e.time)
        .or_else(|| events.first().map(|e| e.time.prev()))
}

/// The top-level handle to a historical graph database.
pub struct GraphManager {
    index: DeltaGraph,
    pool: GraphPool,
    /// application key → internal node id (QueryManager lookup table)
    key_to_node: HashMap<String, NodeId>,
    node_to_key: HashMap<NodeId, String>,
    config: GraphManagerConfig,
    /// The point cache (disabled at capacity 0); see [`crate::cache`].
    /// Crate code looks up, admits and puts bytes through it directly;
    /// whatever moves the cache's pool references (taking a hit's
    /// reference, inserting, invalidating, purging) stays in this module,
    /// next to the pool.
    pub(crate) cache: PointCache,
    /// Bumped on every successful append; guards cache inserts against
    /// racing with invalidation (see [`GraphManager::append_epoch`]).
    append_epoch: u64,
}

impl GraphManager {
    /// Builds the database over a complete event trace, storing the index in
    /// memory.
    pub fn build_in_memory(
        events: &tgraph::EventList,
        config: GraphManagerConfig,
    ) -> DgResult<Self> {
        Self::build(events, config, Arc::new(MemStore::new()))
    }

    /// Builds the database over a complete event trace, storing the index in
    /// an on-disk key–value store rooted at `path`.
    pub fn build_on_disk(
        events: &tgraph::EventList,
        config: GraphManagerConfig,
        path: impl AsRef<Path>,
    ) -> DgResult<Self> {
        let store = DiskStore::create(path.as_ref().join("deltagraph.log"))?;
        Self::build(events, config, Arc::new(store))
    }

    /// Builds the database from a shard's stored contents: `seed` holds the
    /// synthetic events that recreate the graph as of the shard's lower
    /// bound (all at one time, empty for the first shard) and `events` the
    /// real events after it. The seed is replayed once into a graph that
    /// becomes leaf 0 of the index ([`GraphManager::build_seeded`]); only
    /// `events` are indexed as history. Every shard — freshly planned or
    /// recovered from disk — is built here, so a rebuilt deployment is
    /// construction-identical to the one that wrote it (key bindings
    /// excepted — segments do not persist them).
    pub fn build_from_seed_events(
        seed: &[Event],
        events: &[Event],
        config: GraphManagerConfig,
        store: Arc<dyn KeyValueStore>,
    ) -> DgResult<Self> {
        let seed_time = seeded_start(seed, events).ok_or(DgError::EmptyIndex)?;
        let mut state = Snapshot::new();
        state.apply_events_forward(seed)?;
        Self::build_seeded(state, seed_time, events, config, store)
    }

    /// Builds the database over a history that starts from `seed`, the
    /// graph as of `seed_time`, followed by `events` (see
    /// [`DeltaGraph::build_seeded`]).
    pub fn build_seeded(
        seed: Snapshot,
        seed_time: Timestamp,
        events: &[Event],
        config: GraphManagerConfig,
        store: Arc<dyn KeyValueStore>,
    ) -> DgResult<Self> {
        let index = DeltaGraph::build_seeded(seed, seed_time, events, config.index.clone(), store)?;
        Ok(Self::from_index(index, config))
    }

    /// Opens a sealed shard's database: its index assembled from `image`
    /// over `store`, the segment holding the payloads the image names (see
    /// [`DeltaGraph::open_sealed`]). Nothing is rebuilt; the index has no
    /// current graph and refuses appends.
    pub fn open_sealed(
        image: IndexImage,
        store: Arc<dyn KeyValueStore>,
        config: GraphManagerConfig,
    ) -> Self {
        let index = DeltaGraph::open_sealed(image, store, config.index.retrieval_threads);
        Self::from_index(index, config)
    }

    /// Builds the database over a complete event trace on the given backing
    /// store.
    pub fn build(
        events: &tgraph::EventList,
        config: GraphManagerConfig,
        store: Arc<dyn KeyValueStore>,
    ) -> DgResult<Self> {
        let index = DeltaGraph::build(events, config.index.clone(), store)?;
        Ok(Self::from_index(index, config))
    }

    fn from_index(index: DeltaGraph, config: GraphManagerConfig) -> Self {
        let mut pool = GraphPool::new();
        pool.set_current(index.current_graph());
        let cache = PointCache::new(
            config.snapshot_cache_capacity,
            config.response_cache_capacity,
            config.response_cache_bytes,
        );
        GraphManager {
            index,
            pool,
            key_to_node: HashMap::new(),
            node_to_key: HashMap::new(),
            config,
            cache,
            append_epoch: 0,
        }
    }

    // ------------------------------------------------------------------
    // Snapshot retrieval (the paper's programmatic API, Section 3.2.1)
    // ------------------------------------------------------------------

    /// `GetHistGraph(Time t, String attr_options)`: retrieves the snapshot as
    /// of `t`, overlays it onto the GraphPool, and returns its handle.
    pub fn get_hist_graph(&mut self, t: Timestamp, attr_options: &str) -> DgResult<GraphId> {
        let opts = AttrOptions::parse(attr_options).map_err(DgError::Model)?;
        let snapshot = self.index.get_snapshot(t, &opts)?;
        Ok(self.overlay(&snapshot, t))
    }

    /// `GetHistGraphs(List<Time>, String attr_options)`: multipoint retrieval
    /// through the Steiner-tree planner; all snapshots share fetched deltas
    /// and are overlaid together.
    pub fn get_hist_graphs(
        &mut self,
        times: &[Timestamp],
        attr_options: &str,
    ) -> DgResult<Vec<GraphId>> {
        let opts = AttrOptions::parse(attr_options).map_err(DgError::Model)?;
        let snapshots = self.index.get_snapshots(times, &opts)?;
        Ok(snapshots
            .into_iter()
            .zip(times)
            .map(|(snap, &t)| self.overlay(&snap, t))
            .collect())
    }

    /// `GetHistGraph(TimeExpression, String attr_options)`: retrieves the
    /// hypothetical graph satisfying a Boolean expression over time points.
    ///
    /// An expression referencing no time points is rejected: there is no
    /// meaningful snapshot (or overlay anchor) for it.
    pub fn get_hist_graph_expr(
        &mut self,
        expr: &TimeExpression,
        attr_options: &str,
    ) -> DgResult<GraphId> {
        let opts = AttrOptions::parse(attr_options).map_err(DgError::Model)?;
        let anchor = *expr.times.last().ok_or_else(|| {
            DgError::InvalidParameter("time expression references no time points".into())
        })?;
        let snapshot = self.index.get_time_expression(expr, &opts)?;
        Ok(self.overlay(&snapshot, anchor))
    }

    /// `GetHistGraphInterval(ts, te, attr_options)`: the graph over elements
    /// added during `[ts, te)` plus the transient events of that window.
    pub fn get_hist_graph_interval(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        attr_options: &str,
    ) -> DgResult<(GraphId, Vec<Event>)> {
        let opts = AttrOptions::parse(attr_options).map_err(DgError::Model)?;
        let (snapshot, transients) = self.index.get_snapshot_interval(start, end, &opts)?;
        Ok((self.overlay(&snapshot, start), transients))
    }

    fn overlay(&mut self, snapshot: &Snapshot, t: Timestamp) -> GraphId {
        if self.config.dependent_overlays {
            // Query-time decision: overlay as dependent on the current graph
            // when the difference is small relative to the snapshot size.
            let current = self.index.current_graph();
            let diff = tgraph::Delta::between(current, snapshot).change_count();
            if diff * 4 < snapshot.element_count().max(1) {
                return self
                    .pool
                    .add_historical_dependent(snapshot, t, graphpool::CURRENT_GRAPH);
            }
        }
        self.pool.add_historical(snapshot, t)
    }

    /// Overlays an already-retrieved snapshot onto the GraphPool and returns
    /// its handle. This is the overlay half of [`GraphManager::get_hist_graph`],
    /// exposed so callers that compute snapshots under a shared read lock
    /// (see [`crate::SharedGraphManager`]) can attach them to the pool
    /// without recomputing.
    pub fn overlay_snapshot(&mut self, snapshot: &Snapshot, t: Timestamp) -> GraphId {
        self.overlay(snapshot, t)
    }

    // ------------------------------------------------------------------
    // The point cache (see `crate::cache`)
    // ------------------------------------------------------------------

    /// Cache lookup for a point retrieval. On a hit the overlay gains one
    /// reference for the calling session (which must eventually
    /// [`GraphManager::release`] it). `count` controls the hit/miss
    /// counters; the double-checked re-probe after a miss passes `false`.
    pub(crate) fn cache_acquire(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
        count: bool,
    ) -> Option<GraphId> {
        let overlay = self.cache.lookup(t, opts, count)?;
        // Defensive: the cache's own reference should keep the overlay
        // active, but never hand out a dead handle.
        self.pool.retain(overlay).then_some(overlay)
    }

    /// The reactor's hit: the overlay and framed reply for
    /// `(t, opts, format)`, found in one lookup, with one reference to the
    /// overlay taken for the calling session. `None` — with no reference
    /// taken and no counter moved — unless the entry holds the reply.
    pub(crate) fn cache_acquire_hot(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<(GraphId, Arc<[u8]>)> {
        let (overlay, bytes) = self.cache.hot(t, opts, format)?;
        self.pool.retain(overlay).then_some((overlay, bytes))
    }

    /// Overlays a freshly computed, admitted snapshot and caches the
    /// overlay. The returned handle carries one reference for the calling
    /// session; the cache holds its own (the registration reference), so
    /// the overlay outlives the session for future sharers.
    ///
    /// `computed_at_epoch` is the [`GraphManager::append_epoch`] observed
    /// while the snapshot was computed (under the read lock). If an append
    /// has landed since, the snapshot may predate events at or before `t`,
    /// so nothing is overlaid or cached and `None` is returned — a racing
    /// insert must never resurrect an invalidated time range. A disabled
    /// cache returns `None` too.
    pub(crate) fn cache_insert_overlay(
        &mut self,
        snapshot: &Snapshot,
        t: Timestamp,
        opts: &AttrOptions,
        computed_at_epoch: u64,
    ) -> Option<GraphId> {
        if self.config.snapshot_cache_capacity == 0 || self.append_epoch != computed_at_epoch {
            return None;
        }
        // Cached overlays are always self-contained (never dependent on the
        // current graph): a dependent overlay's view silently changes when
        // appends mutate its dependency, which would corrupt cache entries
        // at t < event-time — exactly the entries invalidation keeps.
        let id = self.pool.add_historical(snapshot, t);
        self.pool.retain(id); // the session's reference (registration = cache's)
        for displaced in self.cache.insert(t, opts.clone(), id) {
            self.pool.release(displaced);
        }
        Some(id)
    }

    /// Number of successful appends so far. Snapshot computations record
    /// the epoch they ran under so a result that raced an append is never
    /// inserted into the cache (the insert paths compare epochs and decline
    /// on a mismatch), neither as an overlay nor as framed bytes.
    pub fn append_epoch(&self) -> u64 {
        self.append_epoch
    }

    /// The point cache's byte-slot counters.
    pub fn response_cache_stats(&self) -> ResponseCacheStats {
        self.cache.response_stats()
    }

    /// Number of framed replies the point cache holds.
    pub fn response_cache_len(&self) -> usize {
        self.cache.slots()
    }

    /// The point cache's overlay counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of entries in the point cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The cached entries with live overlay reference counts, sorted by
    /// `(t, opts)`.
    pub fn cache_entries(&self) -> Vec<CacheEntryInfo> {
        self.cache.entries(&self.pool)
    }

    /// A read view of a retrieved graph.
    pub fn graph(&self, id: GraphId) -> GraphView<'_> {
        self.pool.view(id)
    }

    /// Releases a retrieved graph (cleanup happens lazily).
    pub fn release(&mut self, id: GraphId) {
        self.pool.release(id);
    }

    /// Releases every retrieved historical graph (materialized index nodes
    /// and the current graph stay), purges the point cache, runs the
    /// cleaner, and returns the number of graphs released. Outstanding
    /// references are ignored — this is an administrative, pool-wide reset;
    /// per-session cleanup (the server's disconnect path and the `RELEASE
    /// ALL` verb) goes through [`crate::PoolSession`], which only drops the
    /// session's own references.
    pub fn release_all(&mut self) -> usize {
        let ids: Vec<GraphId> = self
            .pool
            .active_graphs()
            .into_iter()
            .filter(|&id| {
                id != graphpool::CURRENT_GRAPH
                    && self
                        .pool
                        .entry(id)
                        .is_some_and(|e| e.kind == graphpool::GraphKind::Historical)
            })
            .collect();
        let released = ids.len();
        self.cache.purge(); // cached overlays are force-released below
        for id in ids {
            self.pool.force_release(id);
        }
        self.pool.cleanup();
        released
    }

    /// Runs the lazy cleaner; returns the number of union elements removed.
    pub fn cleanup(&mut self) -> usize {
        self.pool.cleanup()
    }

    // ------------------------------------------------------------------
    // Updates and materialization
    // ------------------------------------------------------------------

    /// Appends a new event: the current graph, the GraphPool overlay of the
    /// current graph, and the index are all updated.
    ///
    /// The §3.1 replay contract is enforced here (see `expand_contract`):
    /// a delete whose target still carries attributes (or, for nodes,
    /// incident edges) is expanded into clearing events plus the delete,
    /// all applied as one logical append with a single epoch bump.
    ///
    /// The index goes first — it validates the event (chronology, duplicate
    /// elements) — so a rejected event never reaches the pool and the two
    /// views of the current graph cannot diverge. Cached snapshots at or
    /// after the event's time are invalidated (they could now differ from a
    /// fresh computation); entries strictly before it stay valid.
    pub fn append_event(&mut self, event: Event) -> DgResult<()> {
        let (expanded, normalized) = self.expand_event(event)?;
        self.apply_prepared(&expanded, normalized).map(|_| ())
    }

    /// Enforces the §3.1 contract on one event against the live current
    /// graph — no snapshot clone, so the per-event append path stays cheap.
    /// A clean delete (or any non-delete) expands to itself. Returns the
    /// sequence to apply plus the number of injected clearing events.
    ///
    /// Durable writers call this (or [`GraphManager::prepare_batch`]) first
    /// so the *expanded* sequence is what reaches the WAL: recovery rebuilds
    /// indexes from raw WAL replay, which must therefore be well formed.
    pub fn expand_event(&self, event: Event) -> DgResult<(Vec<Event>, usize)> {
        self.index.ensure_appendable()?;
        let mut expanded = Vec::with_capacity(1);
        expand_contract(self.index.current_graph(), event, &mut expanded);
        let normalized = expanded.len() - 1;
        Ok((expanded, normalized))
    }

    /// Applies an already-validated event sequence (from
    /// [`GraphManager::expand_event`] or [`GraphManager::prepare_batch`],
    /// computed under the same exclusive lock) as one atomic unit: one
    /// append-epoch bump, one cache invalidation from the earliest time.
    ///
    /// Mid-sequence failure cannot occur for prepared input — injected
    /// clearing events are valid by construction and batches were fully
    /// simulated — so either the first event is rejected (nothing applied,
    /// no epoch bump) or the whole sequence lands.
    pub(crate) fn apply_prepared(
        &mut self,
        expanded: &[Event],
        normalized: usize,
    ) -> DgResult<BatchOutcome> {
        let t_min = expanded.first().expect("non-empty sequence").time;
        let t_max = expanded.last().expect("non-empty sequence").time;
        for ev in expanded {
            self.index.append_event(ev.clone())?;
            self.pool.apply_event_to_current(ev);
        }
        self.append_epoch += 1;
        for overlay in self.cache.invalidate_from(t_min) {
            self.pool.release(overlay);
        }
        Ok(BatchOutcome {
            applied: expanded.len(),
            normalized,
            t_min,
            t_max,
        })
    }

    /// Appends a batch of events atomically: the whole batch is validated
    /// (chronology and §3.1 well-formedness) *as a unit* against a simulated
    /// copy of the current graph before anything is applied, so a rejected
    /// batch leaves no prefix behind. Application then bumps the append
    /// epoch once and invalidates the point cache once, from the batch's
    /// earliest time — readers at any `t` either see none of the batch or
    /// all of it.
    ///
    /// Stale `old` values on attribute events (computed against a pre-batch
    /// snapshot by wire-level writers) are canonicalized against the
    /// evolving batch state: the authoritative previous value is what the
    /// graph actually holds, and recording anything else would break
    /// backward replay just like an attribute-carrying delete.
    pub fn append_batch(&mut self, events: Vec<Event>) -> DgResult<BatchOutcome> {
        let (expanded, normalized) = self.prepare_batch(events)?;
        self.apply_prepared(&expanded, normalized)
    }

    /// Validates and normalizes a batch without mutating anything: returns
    /// the full event sequence to apply (clearing events injected per the
    /// §3.1 policy, stale attribute `old` values canonicalized) plus the
    /// number of injected events. Shared by [`GraphManager::append_batch`]
    /// and by durable writers that must know the final sequence before
    /// writing it ahead to the WAL.
    pub fn prepare_batch(&self, events: Vec<Event>) -> DgResult<(Vec<Event>, usize)> {
        self.index.ensure_appendable()?;
        if events.is_empty() {
            return Err(DgError::InvalidParameter(
                "an APPEND BATCH must contain at least one event".into(),
            ));
        }
        // Chronology as a unit: non-decreasing within the batch and not
        // before recorded history — checked before any simulation so the
        // error is about the batch, not about whichever event tripped the
        // index first.
        let mut last = self.index.history_range().ok().map(|(_, end)| end);
        for ev in &events {
            if let Some(bound) = last {
                if ev.time < bound {
                    return Err(DgError::InvalidParameter(format!(
                        "batch event at {} precedes {bound}; a batch must be \
                         chronologically ordered and not predate recorded history",
                        ev.time
                    )));
                }
            }
            last = Some(ev.time);
        }
        let mut sim = seed_batch_sim(self.index.current_graph(), &events);
        let mut out = Vec::with_capacity(events.len());
        let mut normalized = 0usize;
        for ev in events {
            let before = out.len();
            expand_contract(&sim, ev, &mut out);
            normalized += out.len() - before - 1;
            // Simulate the new events so later batch members (and the §3.1
            // checks guarding them) see the in-batch state; a failure here
            // (duplicate element, missing target, ...) rejects the whole
            // batch before anything real was touched.
            for new in &out[before..] {
                sim.apply_forward(new).map_err(DgError::Model)?;
            }
        }
        Ok((out, normalized))
    }

    /// Appends a batch of events atomically (see
    /// [`GraphManager::append_batch`]); an empty iterator is a no-op.
    pub fn append_events(&mut self, events: impl IntoIterator<Item = Event>) -> DgResult<()> {
        let events: Vec<Event> = events.into_iter().collect();
        if events.is_empty() {
            return Ok(());
        }
        self.append_batch(events).map(|_| ())
    }

    /// Materializes the DeltaGraph root in memory.
    pub fn materialize_root(&mut self) -> DgResult<()> {
        self.index.materialize_root().map(|_| ())
    }

    /// Materializes every node `depth` levels below the root.
    pub fn materialize_descendants(&mut self, depth: u32) -> DgResult<usize> {
        Ok(self.index.materialize_descendants(depth)?.len())
    }

    // ------------------------------------------------------------------
    // QueryManager lookup table (external key ↔ internal id)
    // ------------------------------------------------------------------

    /// Registers an application-level key (user name, paper title, ...) for a
    /// node id.
    pub fn register_key(&mut self, key: impl Into<String>, node: NodeId) {
        let key = key.into();
        self.key_to_node.insert(key.clone(), node);
        self.node_to_key.insert(node, key);
    }

    /// Resolves an application-level key to its internal node id.
    pub fn resolve_key(&self, key: &str) -> Option<NodeId> {
        self.key_to_node.get(key).copied()
    }

    /// The application-level key of an internal node id, if registered.
    pub fn key_of(&self, node: NodeId) -> Option<&str> {
        self.node_to_key.get(&node).map(String::as_str)
    }

    /// Every registered `(key, node)` binding. Used when rolling a new tail
    /// shard (see [`crate::ShardedGraphManager`]): the fresh shard inherits
    /// the table so keys resolve on every shard.
    pub fn key_bindings(&self) -> Vec<(String, NodeId)> {
        self.key_to_node
            .iter()
            .map(|(k, n)| (k.clone(), *n))
            .collect()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The underlying DeltaGraph index.
    pub fn index(&self) -> &DeltaGraph {
        &self.index
    }

    /// Mutable access to the underlying DeltaGraph index (for benchmark
    /// harnesses that tune materialization or retrieval threads directly).
    pub fn index_mut(&mut self) -> &mut DeltaGraph {
        &mut self.index
    }

    /// The underlying GraphPool.
    pub fn pool(&self) -> &GraphPool {
        &self.pool
    }

    /// Index statistics (leaves, height, stored bytes, ...).
    pub fn stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Approximate memory held by the GraphPool, in bytes.
    pub fn pool_memory(&self) -> usize {
        self.pool.approx_memory()
    }
}

/// Builds the minimal simulation state for validating a batch: only the
/// nodes and edges the batch references — plus, for `DeleteNode` targets,
/// their incident edges — are copied out of the live graph. Validation and
/// §3.1 expansion then run the real [`Snapshot`] application logic over
/// this partial state, so a batch costs O(touched elements) to prepare
/// instead of O(graph) for a full clone, with identical accept/reject
/// behavior:
///
/// - duplicate/missing checks consult exactly the referenced elements,
///   which are seeded whenever they exist in the live graph;
/// - §3.1 expansion of a delete needs the target's attributes (seeded with
///   the element) and, for nodes, its incident edges (seeded from one edge
///   scan — `neighbors` can't be used because directed edges are only
///   recorded under their source);
/// - `AddEdge` creates missing endpoints implicitly in both the full and
///   the partial state, so unreferenced endpoints never matter.
fn seed_batch_sim(base: &Snapshot, events: &[Event]) -> Snapshot {
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut delete_targets: Vec<NodeId> = Vec::new();
    for ev in events {
        match &ev.kind {
            EventKind::AddNode { node } => nodes.push(*node),
            EventKind::DeleteNode { node } => {
                nodes.push(*node);
                delete_targets.push(*node);
            }
            EventKind::AddEdge { edge, src, dst, .. }
            | EventKind::DeleteEdge { edge, src, dst, .. } => {
                edges.push(*edge);
                nodes.push(*src);
                nodes.push(*dst);
            }
            EventKind::SetNodeAttr { node, .. } => nodes.push(*node),
            EventKind::SetEdgeAttr { edge, .. } => edges.push(*edge),
            EventKind::TransientNode { .. } | EventKind::TransientEdge { .. } => {}
        }
    }
    nodes.sort_unstable();
    nodes.dedup();
    // Incident edges matter only where a DeleteNode's §3.1 expansion (and
    // its cascade in the simulation) will consult them; the one O(edges)
    // scan is paid only by batches that actually delete nodes.
    if !delete_targets.is_empty() {
        delete_targets.sort_unstable();
        for (e, d) in base.edges() {
            if delete_targets.binary_search(&d.src).is_ok()
                || delete_targets.binary_search(&d.dst).is_ok()
            {
                edges.push(e);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    let mut sim = Snapshot::new();
    for &n in &nodes {
        if let Some(data) = base.node(n) {
            sim.add_node(n).expect("fresh node in empty sim");
            for (key, value) in &data.attrs {
                sim.set_node_attr(n, key, Some(value.clone()))
                    .expect("attr on just-seeded node");
            }
        }
    }
    for &e in &edges {
        if let Some(data) = base.edge(e) {
            sim.add_edge(e, data.src, data.dst, data.directed)
                .expect("fresh edge in partial sim");
            for (key, value) in &data.attrs {
                sim.set_edge_attr(e, key, Some(value.clone()))
                    .expect("attr on just-seeded edge");
            }
        }
    }
    sim
}

/// Expands one event into the sequence the §3.1 bidirectional-replay
/// contract requires, evaluated against `state` (the live current graph for
/// single appends, the evolving simulated graph for batches), and appends
/// it to `out`.
///
/// Deletion events carry only enough state to restore the bare element
/// (a `DeleteEdge` its endpoints, a `DeleteNode` nothing but the id), so a
/// delete whose target still carries attributes — or, for nodes, incident
/// edges — cannot be replayed backwards faithfully: forward and backward
/// replay diverge and snapshot answers become dependent on leaf layout.
/// Every write path ([`GraphManager::append_event`],
/// [`GraphManager::append_batch`]) expands its events here, at the same
/// timestamp and inside the same atomic application, so the stream recorded
/// in the index is always well formed:
///
/// - `SetNodeAttr`/`SetEdgeAttr`: the `old` value is canonicalized to what
///   the graph actually holds — recording a stale `old` breaks backward
///   replay exactly like an attribute-carrying delete.
/// - `DeleteEdge` whose edge still carries attributes: clearing
///   `SetEdgeAttr` events are injected before it.
/// - `DeleteNode` whose node still carries attributes or incident edges:
///   attribute clears, then per-edge attribute clears + `DeleteEdge`s (in
///   edge-id order, for determinism), are injected before it.
///
/// A delete whose target does not exist expands to itself; the index
/// rejects it with its own precise error.
fn expand_contract(state: &Snapshot, mut event: Event, out: &mut Vec<Event>) {
    match &mut event.kind {
        EventKind::SetNodeAttr { node, key, old, .. } => {
            *old = state.node_attr(*node, key).cloned();
        }
        EventKind::SetEdgeAttr { edge, key, old, .. } => {
            *old = state.edge_attr(*edge, key).cloned();
        }
        EventKind::DeleteEdge { edge, .. } => {
            if let Some(data) = state.edge(*edge) {
                let e = *edge;
                for (key, value) in &data.attrs {
                    out.push(Event::set_edge_attr(
                        event.time,
                        e,
                        key.clone(),
                        Some(value.clone()),
                        None,
                    ));
                }
            }
        }
        EventKind::DeleteNode { node } => {
            if let Some(data) = state.node(*node) {
                let n = *node;
                let mut incident: Vec<(EdgeId, &tgraph::EdgeData)> = state
                    .edges()
                    .filter(|(_, d)| d.src == n || d.dst == n)
                    .collect();
                incident.sort_by_key(|(e, _)| *e);
                for (key, value) in &data.attrs {
                    out.push(Event::set_node_attr(
                        event.time,
                        n,
                        key.clone(),
                        Some(value.clone()),
                        None,
                    ));
                }
                for (e, d) in incident {
                    for (key, value) in &d.attrs {
                        out.push(Event::set_edge_attr(
                            event.time,
                            e,
                            key.clone(),
                            Some(value.clone()),
                            None,
                        ));
                    }
                    out.push(Event::new(
                        event.time,
                        EventKind::DeleteEdge {
                            edge: e,
                            src: d.src,
                            dst: d.dst,
                            directed: d.directed,
                        },
                    ));
                }
            }
        }
        _ => {}
    }
    out.push(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::toy_trace;
    use deltagraph::DifferentialFunction;
    use tgraph::EdgeId;

    fn manager() -> GraphManager {
        let cfg = GraphManagerConfig::default().with_index(
            DeltaGraphConfig::new(3, 2).with_diff_fn(DifferentialFunction::Intersection),
        );
        GraphManager::build_in_memory(&toy_trace().events, cfg).unwrap()
    }

    #[test]
    fn single_and_multi_point_retrieval_through_the_facade() {
        let mut gm = manager();
        let ds = toy_trace();
        let h6 = gm
            .get_hist_graph(Timestamp(6), "+node:all+edge:all")
            .unwrap();
        assert_eq!(gm.graph(h6).to_snapshot(), ds.snapshot_at(Timestamp(6)));

        let handles = gm
            .get_hist_graphs(&[Timestamp(3), Timestamp(9)], "+node:all+edge:all")
            .unwrap();
        assert_eq!(handles.len(), 2);
        assert_eq!(
            gm.graph(handles[0]).to_snapshot(),
            ds.snapshot_at(Timestamp(3))
        );
        assert_eq!(
            gm.graph(handles[1]).to_snapshot(),
            ds.snapshot_at(Timestamp(9))
        );
        assert_eq!(gm.pool().active_overlay_count(), 3);
    }

    #[test]
    fn attr_option_strings_are_honoured() {
        let mut gm = manager();
        let h = gm.get_hist_graph(Timestamp(7), "").unwrap();
        let view = gm.graph(h);
        assert!(view.node_attr(tgraph::NodeId(1), "name").is_none());
        let h2 = gm.get_hist_graph(Timestamp(7), "+node:name").unwrap();
        assert_eq!(
            gm.graph(h2)
                .node_attr(tgraph::NodeId(1), "name")
                .and_then(|v| v.as_str()),
            Some("alicia")
        );
        assert!(gm.get_hist_graph(Timestamp(7), "bogus").is_err());
    }

    #[test]
    fn expression_and_interval_queries() {
        let mut gm = manager();
        let tex = TimeExpression::diff(6i64, 9i64);
        let h = gm.get_hist_graph_expr(&tex, "").unwrap();
        assert!(gm.graph(h).has_edge(EdgeId(100)));

        let (h, transients) = gm
            .get_hist_graph_interval(Timestamp(5), Timestamp(10), "")
            .unwrap();
        assert!(gm.graph(h).has_edge(EdgeId(101)));
        assert_eq!(transients.len(), 1);
    }

    #[test]
    fn release_and_cleanup_through_the_facade() {
        let mut gm = manager();
        let a = gm.get_hist_graph(Timestamp(3), "").unwrap();
        let b = gm.get_hist_graph(Timestamp(9), "").unwrap();
        gm.release(a);
        assert!(gm.cleanup() > 0 || gm.pool().active_overlay_count() == 1);
        assert_eq!(gm.pool().active_overlay_count(), 1);
        // remaining handle still valid
        assert!(gm.graph(b).node_count() > 0);
    }

    #[test]
    fn empty_time_expression_is_rejected() {
        let mut gm = manager();
        let empty = TimeExpression {
            times: vec![],
            expr: tgraph::BoolExpr::var(0),
        };
        let err = gm.get_hist_graph_expr(&empty, "").unwrap_err();
        assert!(matches!(err, DgError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn release_all_clears_every_historical_overlay() {
        let mut gm = manager();
        gm.get_hist_graph(Timestamp(3), "").unwrap();
        gm.get_hist_graph(Timestamp(6), "").unwrap();
        gm.get_hist_graph(Timestamp(9), "").unwrap();
        assert_eq!(gm.pool().active_overlay_count(), 3);
        assert_eq!(gm.release_all(), 3);
        assert_eq!(gm.pool().active_overlay_count(), 0);
        assert_eq!(gm.pool().pending_cleanup(), 0);
        // The current graph survives and the pool remains usable.
        assert!(gm.graph(graphpool::CURRENT_GRAPH).node_count() > 0);
        let h = gm.get_hist_graph(Timestamp(6), "").unwrap();
        assert!(gm.graph(h).node_count() > 0);
        assert_eq!(gm.release_all(), 1);
    }

    #[test]
    fn updates_flow_to_pool_and_index() {
        let mut gm = manager();
        gm.append_event(Event::add_node(20, 777)).unwrap();
        gm.append_event(Event::add_edge(21, 500, 777, 1)).unwrap();
        assert!(gm
            .graph(graphpool::CURRENT_GRAPH)
            .has_node(tgraph::NodeId(777)));
        let h = gm.get_hist_graph(Timestamp(21), "").unwrap();
        assert!(gm.graph(h).has_edge(EdgeId(500)));
    }

    #[test]
    fn rejected_appends_leave_current_views_untouched() {
        let mut gm = manager();
        gm.append_event(Event::add_node(20, 700)).unwrap();
        // Out-of-order event: must be rejected without a phantom node
        // appearing in either view of the current graph.
        let err = gm.append_event(Event::add_node(15, 701)).unwrap_err();
        assert!(err.to_string().contains("appended after"), "{err}");
        assert!(!gm.index().current_graph().has_node(tgraph::NodeId(701)));
        assert!(!gm
            .graph(graphpool::CURRENT_GRAPH)
            .has_node(tgraph::NodeId(701)));
        // Duplicate node: same guarantee, and the pool keeps matching the
        // index afterwards.
        assert!(gm.append_event(Event::add_node(21, 700)).is_err());
        assert_eq!(
            gm.graph(graphpool::CURRENT_GRAPH).to_snapshot(),
            *gm.index().current_graph()
        );
    }

    #[test]
    fn key_lookup_table() {
        let mut gm = manager();
        gm.register_key("alice", tgraph::NodeId(1));
        assert_eq!(gm.resolve_key("alice"), Some(tgraph::NodeId(1)));
        assert_eq!(gm.key_of(tgraph::NodeId(1)), Some("alice"));
        assert_eq!(gm.resolve_key("bob"), None);
    }

    #[test]
    fn dependent_overlays_produce_identical_views() {
        let ds = toy_trace();
        let base = GraphManagerConfig::default().with_index(DeltaGraphConfig::new(3, 2));
        let mut plain = GraphManager::build_in_memory(&ds.events, base.clone()).unwrap();
        let mut dependent = GraphManager::build_in_memory(
            &ds.events,
            GraphManagerConfig {
                dependent_overlays: true,
                ..base
            },
        )
        .unwrap();
        for t in [3, 6, 9, 10] {
            let hp = plain
                .get_hist_graph(Timestamp(t), "+node:all+edge:all")
                .unwrap();
            let hd = dependent
                .get_hist_graph(Timestamp(t), "+node:all+edge:all")
                .unwrap();
            assert_eq!(
                plain.graph(hp).to_snapshot(),
                dependent.graph(hd).to_snapshot(),
                "t={t}"
            );
        }
    }

    /// A manager whose leaf size is large enough that appends stay in the
    /// recent eventlist — the tests below assert on the recorded stream.
    fn wide_manager() -> GraphManager {
        GraphManager::build_in_memory(&toy_trace().events, GraphManagerConfig::default()).unwrap()
    }

    #[test]
    fn attribute_carrying_deletes_are_normalized_at_the_boundary() {
        use tgraph::AttrValue;
        let mut gm = wide_manager();
        gm.append_event(Event::add_node(20, 800)).unwrap();
        gm.append_event(Event::add_edge(20, 900, 800, 1)).unwrap();
        gm.append_event(Event::set_edge_attr(
            21,
            900,
            "w",
            None,
            Some(AttrValue::Int(5)),
        ))
        .unwrap();
        let before = gm.index().recent_events().len();
        // Ill-formed: the edge still carries `w`. The boundary must inject
        // the clearing event before the delete.
        gm.append_event(Event::delete_edge(22, 900, 800, 1))
            .unwrap();
        let recorded = gm.index().recent_events().events();
        assert_eq!(recorded.len(), before + 2, "clear + delete recorded");
        assert!(matches!(
            &recorded[recorded.len() - 2].kind,
            EventKind::SetEdgeAttr {
                old: Some(AttrValue::Int(5)),
                new: None,
                ..
            }
        ));
        assert!(matches!(
            &recorded[recorded.len() - 1].kind,
            EventKind::DeleteEdge { .. }
        ));
    }

    #[test]
    fn edge_carrying_node_delete_is_normalized_at_the_boundary() {
        use tgraph::AttrValue;
        let mut gm = wide_manager();
        gm.append_event(Event::add_node(20, 800)).unwrap();
        gm.append_event(Event::add_edge(20, 900, 800, 1)).unwrap();
        gm.append_event(Event::set_node_attr(
            21,
            800,
            "name",
            None,
            Some(AttrValue::from("x")),
        ))
        .unwrap();
        let before = gm.index().recent_events().len();
        // Ill-formed: node 800 still has an attribute and an incident edge.
        gm.append_event(Event::delete_node(22, 800)).unwrap();
        let recorded = gm.index().recent_events().events();
        // attr clear + edge delete + node delete
        assert_eq!(recorded.len(), before + 3);
        assert!(!gm.index().current_graph().has_node(tgraph::NodeId(800)));
        assert!(!gm.index().current_graph().has_edge(EdgeId(900)));
        // The pool's current view stayed in lockstep through the expansion.
        assert_eq!(
            gm.graph(graphpool::CURRENT_GRAPH).to_snapshot(),
            *gm.index().current_graph()
        );
    }

    /// `prepare_batch` validates against a *partial* simulation seeded with
    /// only the elements the batch touches. This pins its output to the
    /// full-clone reference it replaced, on a batch built to stress the
    /// seeding edge cases: a delete target with an *incoming directed*
    /// edge (invisible to `neighbors`), reuse of the cascade-freed edge id
    /// inside the same batch, and a stale attribute `old` value needing
    /// canonicalization.
    #[test]
    fn partial_sim_preparation_matches_full_clone_reference() {
        use tgraph::AttrValue;
        let mut gm = wide_manager();
        gm.append_event(Event::add_node(20, 800)).unwrap();
        gm.append_event(Event::add_node(20, 801)).unwrap();
        gm.append_event(Event::new(
            21,
            EventKind::AddEdge {
                edge: EdgeId(900),
                src: NodeId(801),
                dst: NodeId(800),
                directed: true,
            },
        ))
        .unwrap();
        gm.append_event(Event::set_node_attr(
            22,
            800,
            "name",
            None,
            Some(AttrValue::from("x")),
        ))
        .unwrap();
        gm.append_event(Event::set_edge_attr(
            22,
            900,
            "w",
            None,
            Some(AttrValue::Int(3)),
        ))
        .unwrap();

        let batch = vec![
            Event::add_node(30, 810),
            // Ill-formed: attribute plus the incoming directed edge.
            Event::delete_node(30, 800),
            // Reuses the id the cascade just freed.
            Event::new(
                31,
                EventKind::AddEdge {
                    edge: EdgeId(900),
                    src: NodeId(801),
                    dst: NodeId(810),
                    directed: false,
                },
            ),
            // Stale `old`: the graph holds no previous value for this key.
            Event::set_node_attr(
                32,
                810,
                "a",
                Some(AttrValue::Int(9)),
                Some(AttrValue::Int(1)),
            ),
        ];

        // Reference: the full-clone preparation the partial sim replaced.
        let mut sim = gm.index().current_graph().clone();
        let mut want = Vec::new();
        let mut want_normalized = 0usize;
        for ev in batch.clone() {
            let before = want.len();
            expand_contract(&sim, ev, &mut want);
            want_normalized += want.len() - before - 1;
            for new in &want[before..] {
                sim.apply_forward(new).unwrap();
            }
        }

        let (got, got_normalized) = gm.prepare_batch(batch).unwrap();
        assert_eq!(got, want, "partial sim expanded a different sequence");
        assert_eq!(got_normalized, want_normalized);
        assert!(got_normalized >= 2, "the delete should have been expanded");

        // The prepared sequence applies cleanly and lands the whole batch.
        gm.apply_prepared(&got, got_normalized).unwrap();
        let current = gm.index().current_graph();
        assert!(!current.has_node(NodeId(800)));
        assert!(current.has_edge(EdgeId(900)));
        assert_eq!(current.edge(EdgeId(900)).unwrap().dst, NodeId(810));
    }

    #[test]
    fn batches_apply_atomically_with_one_epoch_bump() {
        let mut gm = manager();
        let epoch = gm.append_epoch();
        let outcome = gm
            .append_batch(vec![
                Event::add_node(20, 800),
                Event::add_node(20, 801),
                Event::add_edge(20, 900, 800, 801),
            ])
            .unwrap();
        assert_eq!(outcome.applied, 3);
        assert_eq!(outcome.normalized, 0);
        assert_eq!(
            (outcome.t_min, outcome.t_max),
            (Timestamp(20), Timestamp(20))
        );
        assert_eq!(gm.append_epoch(), epoch + 1, "one bump per batch");
        assert!(gm.index().current_graph().has_edge(EdgeId(900)));
    }

    #[test]
    fn rejected_batches_leave_no_prefix() {
        let mut gm = manager();
        let epoch = gm.append_epoch();
        let snapshot_before = gm.index().current_graph().clone();
        // Last event is invalid (duplicate node): the whole batch must be
        // rejected with the first two events never becoming visible.
        let err = gm
            .append_batch(vec![
                Event::add_node(20, 800),
                Event::add_edge(20, 900, 800, 1),
                Event::add_node(21, 800),
            ])
            .unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        assert_eq!(gm.append_epoch(), epoch);
        assert_eq!(*gm.index().current_graph(), snapshot_before);
        // Chronology is validated as a unit, against batch-internal order.
        let err = gm
            .append_batch(vec![Event::add_node(22, 801), Event::add_node(21, 802)])
            .unwrap_err();
        assert!(err.to_string().contains("chronologically"), "{err}");
        assert_eq!(*gm.index().current_graph(), snapshot_before);
        // And the empty batch is refused outright.
        assert!(gm.append_batch(vec![]).is_err());
    }

    #[test]
    fn batch_canonicalizes_stale_old_attribute_values() {
        use tgraph::AttrValue;
        let mut gm = wide_manager();
        gm.append_batch(vec![
            Event::add_node(20, 800),
            // Both events claim old=None, as a wire client computing
            // against the pre-batch snapshot would; the second's true old
            // value is Int(1) and must be recorded as such.
            Event::set_node_attr(20, 800, "k", None, Some(AttrValue::Int(1))),
            Event::set_node_attr(21, 800, "k", None, Some(AttrValue::Int(2))),
        ])
        .unwrap();
        let recorded = gm.index().recent_events().events();
        let last = &recorded[recorded.len() - 1];
        assert!(matches!(
            &last.kind,
            EventKind::SetNodeAttr {
                old: Some(AttrValue::Int(1)),
                new: Some(AttrValue::Int(2)),
                ..
            }
        ));
    }

    #[test]
    fn batch_normalization_counts_injected_events() {
        use tgraph::AttrValue;
        let mut gm = manager();
        let outcome = gm
            .append_batch(vec![
                Event::add_node(20, 800),
                Event::add_edge(20, 900, 800, 1),
                Event::set_edge_attr(21, 900, "w", None, Some(AttrValue::Int(5))),
                // Ill-formed within the batch: the edge gained `w` above.
                Event::delete_edge(22, 900, 800, 1),
            ])
            .unwrap();
        assert_eq!(outcome.applied, 5, "four events plus one injected clear");
        assert_eq!(outcome.normalized, 1);
        assert!(!gm.index().current_graph().has_edge(EdgeId(900)));
    }

    #[test]
    fn stats_and_memory_reporting() {
        let mut gm = manager();
        let stats = gm.stats();
        assert!(stats.leaves >= 2);
        let before = gm.pool_memory();
        gm.get_hist_graph(Timestamp(9), "+node:all").unwrap();
        assert!(gm.pool_memory() >= before);
        gm.materialize_root().unwrap();
        assert!(gm.materialize_descendants(1).unwrap() >= 1);
    }
}
