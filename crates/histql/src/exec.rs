//! Query execution over a [`ShardedGraphManager`] router.
//!
//! The executor targets the router — the only way into the serving stack,
//! one shard or many: point, entity, and history queries are routed to the
//! shard owning their time; multipoint queries fan out across shards in
//! parallel and reassemble in request order; `APPEND` goes to the tail
//! shard. A point retrieval is planned under the owning shard's read lock
//! and executed with none; other snapshot computation runs under the read
//! lock, while overlays, appends, binds, and releases take that shard's
//! write lock briefly. Every retrieved graph is overlaid through the
//! executor's [`ShardedSession`], so dropping the executor (a client
//! disconnecting) releases everything it retrieved, on every shard it
//! touched.
//!
//! The executor also owns the session's response encoding (the `PROTOCOL`
//! verb) and, through [`Executor::execute_framed`], the point cache's byte
//! slots: hot `GET GRAPH AT` replies are served as pre-framed bytes with
//! zero per-request rendering, from the owning shard's cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use historygraph::{Built, ShardedGraphManager, ShardedSession, SharedGraphManager, WireFormat};
use tgraph::{AttrOptions, ColumnGraph, NodeId, TimeExpression, Timestamp};

use crate::ast::Query;
use crate::error::{QlError, QlResult};
use crate::flight::{FlightResult, FlightStats, FlightTable, Joined};
use crate::obs::{metrics_report, MetricsHub, VerbKind};
use crate::parser::parse;
use crate::wire::{
    frame_columns, frame_error, HistorySample, Response, ServerCounters, SlowQueryInfo,
};

/// Upper bound on `HISTORY NODE` samples per query, so a tiny `STEP` over a
/// huge range cannot run the server out of memory.
pub const MAX_HISTORY_SAMPLES: usize = 64;

/// One complete reply, framed for the session's current protocol: either
/// bytes shared with the point cache or a freshly rendered buffer.
/// Dereferences to the raw bytes either way.
pub enum Reply {
    /// Pre-framed bytes served from (or just inserted into) the cache.
    Shared(Arc<[u8]>),
    /// A freshly rendered, uncached reply.
    Owned(Vec<u8>),
}

impl AsRef<[u8]> for Reply {
    fn as_ref(&self) -> &[u8] {
        match self {
            Reply::Shared(b) => b,
            Reply::Owned(b) => b,
        }
    }
}

/// What an [`Executor::execute_framed`] call rendered its reply from,
/// kept until the caller takes it ([`Executor::take_rendered`]) or the
/// next call replaces it.
#[derive(Debug)]
pub enum Rendered {
    /// A response, rendered through [`Response::to_frame`].
    Response(Response),
    /// The sorted columns of a point the point cache did not admit,
    /// rendered through [`frame_columns`].
    Columns(ColumnGraph),
}

/// Node `n`'s attributes in `graph`, sorted by name.
fn column_attrs(graph: &ColumnGraph, n: NodeId) -> Vec<(String, tgraph::AttrValue)> {
    graph
        .node_attrs(n)
        .iter()
        .map(|(_, k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Live serving-core counters, shared between a server's reactor, its
/// worker pool, and every session's executor (which renders them for
/// `STATS SERVER`). The executor only reads; the server updates.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections currently open.
    pub live_connections: AtomicU64,
    /// Connections accepted since the server started.
    pub accepted: AtomicU64,
    /// Connections refused at the connection cap.
    pub rejected: AtomicU64,
    /// Requests parsed and waiting for a worker.
    pub queue_depth: AtomicU64,
    /// Worker threads executing requests (set once at startup).
    pub workers: AtomicU64,
}

impl ServerStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Snapshots the counters together with the single-flight table's.
    pub fn counters(&self, flights: FlightStats) -> ServerCounters {
        ServerCounters {
            live_connections: self.live_connections.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            sf_leaders: flights.leaders,
            sf_coalesced: flights.coalesced,
            sf_stale_rerenders: flights.stale_rerenders,
        }
    }
}

/// Executes parsed queries against one (possibly sharded) store.
pub struct Executor {
    router: ShardedGraphManager,
    session: ShardedSession,
    /// The session's response encoding, switched by the `PROTOCOL` verb.
    protocol: WireFormat,
    /// Single-flight render table shared with the other sessions of a
    /// server, when attached; point renders coalesce through it.
    flights: Option<Arc<FlightTable>>,
    /// The serving core's counters, when this executor belongs to a server
    /// session (required by `STATS SERVER`).
    server_stats: Option<Arc<ServerStats>>,
    /// The server's metrics hub, when attached: per-verb and phase latency
    /// histograms plus the slow-query ring. `None` keeps every request
    /// completely uninstrumented.
    hub: Option<Arc<MetricsHub>>,
    /// Identifies this serving session in slow-query entries.
    session_id: u64,
    /// Queue wait measured by the serving core for the next request,
    /// consumed by the next [`Executor::execute_framed`] call.
    pending_queue_us: u64,
    /// What the last [`Executor::execute_framed`] call rendered its reply
    /// from, kept so the caller can free it after the reply is on its way
    /// (see [`Executor::take_rendered`]); the next call replaces it.
    rendered: Option<Rendered>,
}

impl Executor {
    /// Creates an executor over a router (one per client session). Sessions
    /// start in [`WireFormat::Text`].
    pub fn for_router(router: ShardedGraphManager) -> Self {
        let session = router.session();
        Executor {
            router,
            session,
            protocol: WireFormat::Text,
            flights: None,
            server_stats: None,
            hub: None,
            session_id: 0,
            pending_queue_us: 0,
            rendered: None,
        }
    }

    /// Attaches a shared single-flight table: concurrent `GET GRAPH AT`
    /// renders for the same `(t, opts, protocol)` across every executor
    /// holding the same table coalesce into one render.
    pub fn with_flights(mut self, flights: Arc<FlightTable>) -> Self {
        self.flights = Some(flights);
        self
    }

    /// Attaches the serving core's counters, enabling `STATS SERVER`.
    pub fn with_server_stats(mut self, stats: Arc<ServerStats>) -> Self {
        self.server_stats = Some(stats);
        self
    }

    /// Attaches the server's metrics hub: every framed request records into
    /// the per-verb and `phase_us_service` histograms, and requests over the
    /// hub's slow threshold land in its slow-query ring.
    pub fn with_metrics(mut self, hub: Arc<MetricsHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Tags this executor's slow-query entries with a serving session id.
    pub fn with_session_id(mut self, id: u64) -> Self {
        self.session_id = id;
        self
    }

    /// Reports the queue wait the serving core measured for the request it
    /// is about to execute; folded into that one request's slow-query total
    /// by the next [`Executor::execute_framed`] call.
    pub fn note_queue_wait(&mut self, us: u64) {
        self.pending_queue_us = us;
    }

    /// Pool handles this executor's session currently tracks, across every
    /// shard it touched (in shard order): one entry per overlay, with how
    /// many references the session holds to it.
    pub fn session_handles(&self) -> Vec<(graphpool::GraphId, usize)> {
        self.session.handles()
    }

    /// Takes what the last [`Executor::execute_framed`] call rendered its
    /// reply from, if it rendered one. A cold point's columns (or response)
    /// own the whole graph, and freeing that takes a noticeable share of
    /// the request; a server takes it here and drops it after the reply is
    /// queued, off the request's critical path. Left alone, it is freed by
    /// the next call.
    pub fn take_rendered(&mut self) -> Option<Rendered> {
        self.rendered.take()
    }

    /// The session's current response encoding.
    pub fn protocol(&self) -> WireFormat {
        self.protocol
    }

    /// Parses and executes one query line.
    pub fn execute_line(&mut self, line: &str) -> QlResult<Response> {
        let query = parse(line)?;
        self.execute(&query)
    }

    /// Parses and executes one query line, returning the complete reply
    /// bytes in the session's current encoding (including the text `END`
    /// sentinel or the binary length prefix). Failures are rendered as
    /// error frames, never surfaced as `Err` — this is the server's whole
    /// per-request path.
    ///
    /// `GET GRAPH AT` replies route through the point cache's byte slots
    /// when the manager keeps them: once the cache admits a `(t, opts)`
    /// (its second reference), its render is cached in the entry under the
    /// append-epoch guard and every later hit is served with zero
    /// rendering. The session's reference to the cached overlay is still
    /// acquired on every such request, so refcount semantics (`STATS
    /// CACHE`, `RELEASE ALL`, disconnect) are identical in both paths.
    pub fn execute_framed(&mut self, line: &str) -> Reply {
        self.rendered = None;
        let queue_us = std::mem::take(&mut self.pending_queue_us);
        let started = self.hub.as_ref().map(|_| Instant::now());
        let query = match parse(line) {
            Ok(q) => q,
            Err(e) => {
                let reply = Reply::Owned(frame_error(&e.to_string(), self.protocol));
                if let Some(start) = started {
                    self.record_request(VerbKind::Other, None, queue_us, start);
                }
                return reply;
            }
        };
        let verb = VerbKind::of(&query);
        let t = primary_time(&query);
        let result = if let Query::GetGraphAt { t, attrs } = &query {
            self.execute_point_framed(*t, attrs)
        } else {
            self.execute(&query).map(|resp| {
                let bytes = resp.to_frame(self.protocol);
                self.rendered = Some(Rendered::Response(resp));
                Reply::Owned(bytes)
            })
        };
        // Render the error in the protocol that was current when the query
        // ran (a failed PROTOCOL verb never switches modes).
        let reply =
            result.unwrap_or_else(|e| Reply::Owned(frame_error(&e.to_string(), self.protocol)));
        if let Some(start) = started {
            self.record_request(verb, t, queue_us, start);
        }
        reply
    }

    /// Records one completed request into the hub (no-op without one):
    /// verb and service histograms always, a slow-query entry when the
    /// total (queue wait plus service) crosses the threshold.
    fn record_request(&self, verb: VerbKind, t: Option<Timestamp>, queue_us: u64, start: Instant) {
        let Some(hub) = &self.hub else { return };
        let service_us = start.elapsed().as_micros() as u64;
        hub.verb(verb).record(service_us);
        hub.phase_service.record(service_us);
        let threshold = hub.slow_threshold_us();
        let total_us = queue_us.saturating_add(service_us);
        if threshold > 0 && total_us >= threshold {
            hub.note_slow(SlowQueryInfo {
                verb: verb.verb_text().to_string(),
                t,
                shard: t.map(|t| self.router.shard_index_for(t) as u64),
                total_us,
                queue_us,
                service_us,
                session: self.session_id,
            });
        }
    }

    /// Bounded-time fast path for `GET GRAPH AT`, for callers that must
    /// never block on a render — the event-driven server's reactor thread
    /// serves hot points through this without a worker-pool round trip.
    ///
    /// Returns `Some` only when the reply is already resident: the owning
    /// shard's point cache holds `(t, opts)` together with its framed
    /// reply in the session's protocol. The session takes its overlay
    /// reference, exactly like the full path, and the bytes are returned
    /// as-is — one lookup under one write guard. Anything else — other
    /// verbs, parse errors, a missing entry, an entry without this
    /// protocol's reply, bytes disabled — returns `None` with **no**
    /// counters or refcounts touched, so the request can take
    /// [`Executor::execute_framed`] with identical accounting; the worker
    /// renders the reply there and fills the slot. The reactor never
    /// renders.
    pub fn try_execute_hot(&mut self, line: &str) -> Option<Reply> {
        let started = self.hub.as_ref().map(|_| Instant::now());
        let Ok(Query::GetGraphAt { t, attrs }) = parse(line) else {
            return None;
        };
        let opts = AttrOptions::parse(&attrs).ok()?;
        // With the cache or its byte slots disabled the reply is never
        // resident: decline before taking a shard lock.
        let caches = &self.router.config().manager;
        if caches.snapshot_cache_capacity == 0 || caches.response_cache_capacity == 0 {
            return None;
        }
        let reply = Reply::Shared(self.session.acquire_hot_routed(t, &opts, self.protocol)?);
        // Instrumented only on the hit path (a `None` above touched no
        // counters): a handful of relaxed atomics, no locks, no allocation.
        if let Some(start) = started {
            self.record_request(VerbKind::GetGraphAt, Some(t), 0, start);
            if let Some(hub) = &self.hub {
                hub.path_fast.inc();
            }
        }
        Some(reply)
    }

    /// The `GET GRAPH AT` fast path. With a [`FlightTable`] attached (a
    /// server session) concurrent renders of the same key coalesce; without
    /// one this is a plain render through the point cache.
    fn execute_point_framed(&mut self, t: Timestamp, attrs: &str) -> QlResult<Reply> {
        let opts = AttrOptions::parse(attrs)?;
        match self.flights.clone() {
            Some(table) => self.execute_point_coalesced(&table, t, opts),
            None => Ok(Reply::Shared(self.render_point_shared(t, &opts)?.2)),
        }
    }

    /// Point render: point-cache retrieval on the owning shard (preserving
    /// overlay refcounts), then that *same* shard's byte-slot probe, then
    /// render + insert. A point the cache did not admit is rendered and
    /// nothing else: straight from the sorted columns its retrieval built,
    /// with no snapshot and no sort, and no byte probe or insert, so a
    /// one-off point takes no second lock.
    /// Returns the framed bytes plus the shard and append epoch they were
    /// computed under, so a single-flight leader can publish them for
    /// validation by followers.
    /// The shard is resolved exactly once — the get and the epoch-guarded
    /// put go through the handle the snapshot came from, so a tail shard
    /// rolled between the render and the insert can never be handed bytes
    /// computed from the old tail (its fresh epoch could coincide with the
    /// old one).
    fn render_point_shared(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
    ) -> QlResult<(SharedGraphManager, u64, Arc<[u8]>)> {
        let (shared, point) = self.session.retrieve_cached_routed(t, opts)?;
        let epoch = point.epoch;
        let admitted = point.overlay.is_some();
        if admitted {
            if let Some(bytes) = shared.response_cache_get(t, opts, self.protocol) {
                return Ok((shared, epoch, bytes));
            }
        }
        if let Some(Built::Columns(columns)) = point.built {
            let bytes: Arc<[u8]> = frame_columns(t, &columns, self.protocol).into();
            self.rendered = Some(Rendered::Columns(columns));
            return Ok((shared, epoch, bytes));
        }
        let resp = Response::Graph {
            t,
            graph: point.into_snapshot(&shared),
        };
        let bytes: Arc<[u8]> = resp.to_frame(self.protocol).into();
        self.rendered = Some(Rendered::Response(resp));
        if admitted {
            // Declined (not cached) if an append raced the retrieval — the
            // reply is still correct for this request, just not reusable.
            shared.response_cache_put(t, opts, self.protocol, Arc::clone(&bytes), epoch);
        }
        Ok((shared, epoch, bytes))
    }

    /// Single-flight point render. The first request for a key becomes the
    /// leader and renders through [`Executor::render_point_shared`];
    /// followers block on the flight and accept the leader's bytes if the
    /// shard owning `t` is still the same manager at the same append epoch
    /// — the byte slots' staleness guard. Anything else falls back to
    /// a full render. An accepted join is a repeat reference to the point:
    /// the follower takes its own reference to the cached overlay if the
    /// leader's point was admitted, so refcount semantics (`STATS CACHE`,
    /// `RELEASE ALL`, disconnect) are identical to the uncoalesced path,
    /// and otherwise counts toward the point's admission.
    fn execute_point_coalesced(
        &mut self,
        table: &Arc<FlightTable>,
        t: Timestamp,
        opts: AttrOptions,
    ) -> QlResult<Reply> {
        match table.join((t, opts.clone(), self.protocol)) {
            Joined::Leader(guard) => match self.render_point_shared(t, &opts) {
                Ok((shard, epoch, bytes)) => {
                    guard.publish(FlightResult {
                        bytes: Arc::clone(&bytes),
                        shard,
                        epoch,
                    });
                    Ok(Reply::Shared(bytes))
                }
                Err(e) => {
                    guard.fail();
                    Err(e)
                }
            },
            Joined::Follower(flight) => {
                if let Some(result) = flight.wait() {
                    // The leader computed on the owner, so it is built; this
                    // never hydrates a cold shard.
                    let owner = self.router.shard_for(t)?;
                    let fresh = owner.same_manager(&result.shard)
                        && owner.read().append_epoch() == result.epoch;
                    if fresh {
                        self.session.join_cached_routed(t, &opts);
                        table.note_coalesced();
                        return Ok(Reply::Shared(result.bytes));
                    }
                }
                table.note_stale();
                Ok(Reply::Shared(self.render_point_shared(t, &opts)?.2))
            }
        }
    }

    /// Executes one parsed query.
    pub fn execute(&mut self, query: &Query) -> QlResult<Response> {
        match query {
            Query::GetGraphAt { t, attrs } => {
                // Point retrievals route through the shared point cache:
                // a `t` asked for twice is overlaid once and its pool
                // overlay is shared (reference-counted) by every session
                // that asks for it again.
                let opts = AttrOptions::parse(attrs)?;
                let (shared, point) = self.session.retrieve_cached_routed(*t, &opts)?;
                Ok(Response::Graph {
                    t: *t,
                    graph: point.into_snapshot(&shared),
                })
            }
            Query::GetGraphsAt { times, attrs } => {
                // Hybrid multipoint, fanned out across shards in parallel:
                // within each owning shard every point first probes that
                // shard's point cache — hot points share one
                // reference-counted overlay across sessions and across the
                // points of one query. The remaining cold points go through
                // the shard's Steiner planner together (sharing fetched
                // deltas) and are answered without an overlay or a cache
                // insert: one wide cold scan must not evict the hot set
                // that point queries built up. Replies are reassembled in
                // request order regardless of shard completion order.
                let opts = AttrOptions::parse(attrs)?;
                let snaps = self.session.get_graphs_at(times, &opts)?;
                Ok(Response::Graphs {
                    items: times.iter().copied().zip(snaps).collect(),
                })
            }
            Query::GetGraphBetween { start, end, attrs } => {
                let opts = AttrOptions::parse(attrs)?;
                let (graph, transients) = self.session.interval(*start, *end, &opts)?;
                Ok(Response::Interval {
                    start: *start,
                    end: *end,
                    graph,
                    transients,
                })
            }
            Query::GetGraphMatching { expr, attrs } => {
                let opts = AttrOptions::parse(attrs)?;
                let tex = expr.to_time_expression()?;
                self.execute_expr(&tex, &opts)
            }
            Query::Diff { a, b, attrs } => {
                let opts = AttrOptions::parse(attrs)?;
                let tex = TimeExpression::diff(*a, *b);
                self.execute_expr(&tex, &opts)
            }
            Query::NodeAt { key, t } => {
                let node = self.resolve(key)?;
                // A cached full snapshot at `t` on the owning shard answers
                // the entity query without touching the index (read-only
                // peek: no overlay reference changes hands).
                // Otherwise the node is read off the retrieved columns.
                let opts = AttrOptions::all();
                let (present, attrs, neighbors) = match self.router.peek_cached(*t, &opts) {
                    Some(snap) => {
                        let attrs = snap
                            .node(node)
                            .map(|d| {
                                d.attrs
                                    .iter()
                                    .map(|(k, v)| (k.clone(), v.clone()))
                                    .collect()
                            })
                            .unwrap_or_default();
                        let mut neighbors: Vec<_> = snap.neighbors(node).to_vec();
                        neighbors.sort_unstable();
                        (snap.has_node(node), attrs, neighbors)
                    }
                    None => {
                        let graph: ColumnGraph = self.router.graph_at(*t, &opts)?;
                        (
                            graph.has_node(node),
                            column_attrs(&graph, node),
                            graph.neighbors(node),
                        )
                    }
                };
                Ok(Response::Node {
                    key: key.clone(),
                    node,
                    t: *t,
                    present,
                    attrs,
                    neighbors,
                })
            }
            Query::NodeHistory {
                key,
                from,
                to,
                step,
            } => {
                let node = self.resolve(key)?;
                if to < from {
                    return Err(QlError::Exec(format!(
                        "empty history range: {} > {}",
                        from.raw(),
                        to.raw()
                    )));
                }
                let span = to.raw().checked_sub(from.raw()).ok_or_else(|| {
                    QlError::Exec("history range exceeds the representable span".into())
                })?;
                let step = step.unwrap_or_else(|| (span / 8).max(1));
                let count = (span / step) as usize + 1;
                if count > MAX_HISTORY_SAMPLES {
                    return Err(QlError::Exec(format!(
                        "{count} samples exceed the limit of {MAX_HISTORY_SAMPLES}; raise STEP"
                    )));
                }
                let times: Vec<Timestamp> = (0..count as i64)
                    .map(|i| Timestamp(from.raw() + i * step))
                    .collect();
                // Multipoint retrieval: within each owning shard the
                // Steiner planner shares deltas across the samples, and
                // distinct shards compute in parallel.
                // Each sample reads one node off its graph's columns.
                let graphs: Vec<ColumnGraph> =
                    self.router.graphs_at(&times, &AttrOptions::all())?;
                let samples = times
                    .iter()
                    .zip(&graphs)
                    .map(|(&t, graph)| HistorySample {
                        t,
                        present: graph.has_node(node),
                        degree: graph.neighbors(node).len(),
                        attrs: column_attrs(graph, node),
                    })
                    .collect();
                Ok(Response::History {
                    key: key.clone(),
                    node,
                    from: *from,
                    to: *to,
                    step,
                    samples,
                })
            }
            Query::Stats => {
                // Index statistics summed across shards (height is the
                // deepest shard's).
                let mut leaves = 0;
                let mut interior = 0;
                let mut height = 0;
                let mut stored_bytes = 0;
                let mut materialized_nodes = 0;
                let mut materialized_bytes = 0;
                let mut recent_events = 0;
                for shared in self.router.shard_handles()? {
                    let stats = shared.read().stats();
                    leaves += stats.leaves;
                    interior += stats.interior_nodes;
                    height = height.max(stats.height);
                    stored_bytes += stats.stored_bytes;
                    materialized_nodes += stats.materialized_nodes;
                    materialized_bytes += stats.materialized_bytes;
                    recent_events += stats.recent_events;
                }
                Ok(Response::Stats {
                    leaves,
                    interior,
                    height,
                    stored_bytes,
                    materialized_nodes,
                    materialized_bytes,
                    recent_events,
                })
            }
            Query::CacheStats => Ok(Response::CacheStats {
                overview: self.router.cache_overview(),
            }),
            Query::ShardStats => Ok(Response::Shards {
                shards: self.router.shard_infos(),
            }),
            Query::ServerStats => {
                let stats = self.server_stats.as_ref().ok_or_else(|| {
                    QlError::Exec(
                        "STATS SERVER requires a server session (no serving core attached)".into(),
                    )
                })?;
                let flights = self
                    .flights
                    .as_deref()
                    .map(FlightTable::stats)
                    .unwrap_or_default();
                Ok(Response::Server {
                    counters: stats.counters(flights),
                })
            }
            Query::MetricsStats => Ok(Response::Metrics {
                // Works in any session: push-model histograms need an
                // attached hub (a server session), the pulled counters —
                // caches, single-flight, server, per-shard skew — come from
                // whatever is reachable from here.
                entries: metrics_report(
                    self.hub.as_deref(),
                    &self.router,
                    self.flights.as_deref(),
                    self.server_stats.as_deref(),
                ),
            }),
            Query::SlowStats => Ok(Response::Slow {
                // Draining empties the ring; without a hub (no serving core
                // attached) there is nothing captured and the reply is empty.
                entries: self
                    .hub
                    .as_deref()
                    .map(MetricsHub::drain_slow)
                    .unwrap_or_default(),
            }),
            Query::StorageStats => Ok(Response::Storage {
                info: self.router.storage_info(),
            }),
            Query::HealthStats => Ok(Response::Health {
                info: self.router.health_info(),
            }),
            Query::Append(spec) => {
                // Routed to the tail shard; the event is built against the
                // tail's current graph under the same locks that apply it
                // (attribute appends read the old value from it), and the
                // tail may roll a new shard first when over budget.
                self.router.append_with(|current| spec.to_event(current))?;
                Ok(Response::Appended { t: spec.time() })
            }
            Query::AppendBatch(specs) => {
                // The whole batch is routed to the tail shard as one unit:
                // events are built against the tail's current graph under
                // the same locks that apply them, validated (chronology and
                // §3.1 well-formedness) together, and made visible under a
                // single append-epoch bump — a reader at any `t` sees either
                // none of the batch or all of it.
                let outcome = self.router.append_batch_with(|current| {
                    specs.iter().map(|s| s.to_event(current)).collect()
                })?;
                Ok(Response::AppendedBatch {
                    count: outcome.applied,
                    normalized: outcome.normalized,
                    t_min: outcome.t_min,
                    t_max: outcome.t_max,
                })
            }
            Query::Bind { key, node } => {
                self.router.register_key(key.clone(), NodeId(*node));
                Ok(Response::Bound {
                    key: key.clone(),
                    node: *node,
                })
            }
            Query::ReleaseAll => {
                // Scoped to this session's own overlays: in a multi-session
                // server, releasing pool-wide would pull graphs out from
                // under concurrent connections.
                let count = self.session.release_now();
                Ok(Response::Released { count })
            }
            Query::Protocol(mode) => {
                // Switched before rendering: the acknowledgment itself goes
                // out in the new encoding.
                self.protocol = *mode;
                Ok(Response::Protocol { mode: *mode })
            }
            Query::Ping => Ok(Response::Pong),
        }
    }

    fn execute_expr(&mut self, tex: &TimeExpression, opts: &AttrOptions) -> QlResult<Response> {
        let anchor = *tex
            .times
            .last()
            .ok_or_else(|| QlError::Exec("time expression references no time points".into()))?;
        let graph = self.session.expr(tex, anchor, opts)?;
        Ok(Response::Graph {
            t: anchor,
            graph: std::sync::Arc::new(graph),
        })
    }

    fn resolve(&self, key: &str) -> QlResult<NodeId> {
        self.router
            .resolve_key(key)
            .ok_or_else(|| QlError::Exec(format!("unknown key {key:?} (use BIND first)")))
    }
}

/// The primary time point of a query, for slow-log shard attribution.
/// Multipoint and range verbs are attributed to their first point; verbs
/// with no time (`STATS`, `PING`, ...) have no shard to attribute.
fn primary_time(query: &Query) -> Option<Timestamp> {
    match query {
        Query::GetGraphAt { t, .. } | Query::NodeAt { t, .. } => Some(*t),
        Query::GetGraphsAt { times, .. } => times.first().copied(),
        Query::GetGraphBetween { start, .. } => Some(*start),
        Query::Diff { a, .. } => Some(*a),
        Query::NodeHistory { from, .. } => Some(*from),
        Query::Append(spec) => Some(spec.time()),
        Query::AppendBatch(specs) => specs.first().map(|s| s.time()),
        _ => None,
    }
}

// Re-exported here so `Executor::session_handles` has a nameable type without
// forcing callers to depend on graphpool directly.
pub use graphpool::GraphId;

#[cfg(test)]
mod tests {
    use super::*;
    use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager};
    use tgraph::Timestamp;

    /// An executor over a one-shard router on the toy trace, plus the router.
    fn toy_executor(config: GraphManagerConfig) -> (Executor, ShardedGraphManager) {
        let router = ShardedGraphManager::build_in_memory(
            &datagen::toy_trace().events,
            ShardedConfig::default().with_manager(config),
        )
        .unwrap();
        (Executor::for_router(router.clone()), router)
    }

    fn executor() -> (Executor, ShardedGraphManager) {
        toy_executor(GraphManagerConfig::default())
    }

    fn cached_executor(capacity: usize) -> (Executor, ShardedGraphManager) {
        toy_executor(GraphManagerConfig::default().with_snapshot_cache(capacity))
    }

    fn run(exec: &mut Executor, line: &str) -> String {
        exec.execute_line(line)
            .unwrap_or_else(|e| panic!("{line:?}: {e}"))
            .to_text()
    }

    #[test]
    fn point_query_matches_direct_retrieval() {
        let (mut exec, router) = executor();
        let text = run(&mut exec, "GET GRAPH AT 6 WITH +node:all+edge:all");
        let direct = router
            .snapshot_at(Timestamp(6), &AttrOptions::all())
            .unwrap();
        let expected = crate::wire::Response::Graph {
            t: Timestamp(6),
            graph: std::sync::Arc::new(direct),
        }
        .to_text();
        assert_eq!(text, expected);
        // No cache, so nothing is admitted and the session holds nothing.
        assert!(exec.session_handles().is_empty());
    }

    #[test]
    fn diff_equals_matching_sugar() {
        let (mut exec, _router) = executor();
        let diff = run(&mut exec, "DIFF 6 9");
        let matching = run(&mut exec, "GET GRAPH MATCHING 6 AND NOT 9");
        assert_eq!(diff, matching);
    }

    #[test]
    fn node_and_history_use_the_key_table() {
        let (mut exec, _router) = executor();
        let err = exec.execute_line("NODE alice AT 6").unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        run(&mut exec, "BIND alice 1");
        let node = run(&mut exec, "NODE alice AT 6");
        assert!(
            node.starts_with("OK NODE \"alice\" id=1 t=6 present=true"),
            "{node}"
        );
        let hist = run(&mut exec, "HISTORY NODE alice FROM 0 TO 10 STEP 2");
        assert!(hist.contains("samples=6"), "{hist}");
        assert_eq!(hist.lines().filter(|l| l.starts_with("H ")).count(), 6);
    }

    #[test]
    fn history_sample_cap_is_enforced() {
        let (mut exec, _router) = executor();
        run(&mut exec, "BIND alice 1");
        let err = exec
            .execute_line("HISTORY NODE alice FROM 0 TO 1000000 STEP 1")
            .unwrap_err();
        assert!(err.to_string().contains("raise STEP"), "{err}");
    }

    #[test]
    fn appends_are_queryable_and_stats_move() {
        let (mut exec, _router) = executor();
        let before = run(&mut exec, "STATS");
        run(&mut exec, "APPEND NODE 20 777");
        run(&mut exec, "APPEND EDGE 21 500 777 1 DIRECTED");
        run(&mut exec, "APPEND NODEATTR 22 777 name \"new\"");
        let after = run(&mut exec, "STATS");
        assert_ne!(before, after);
        let g = run(&mut exec, "GET GRAPH AT 22 WITH +node:all+edge:all");
        assert!(g.contains("N 777 name=\"new\""), "{g}");
        assert!(g.contains("E 500 777 1 d"), "{g}");
    }

    #[test]
    fn append_batch_is_atomic_and_queryable() {
        let (mut exec, router) = executor();
        let shared = router.shard_at(0).unwrap();
        let ack = run(
            &mut exec,
            "APPEND BATCH NODE 20 777 ; NODEATTR 21 777 name \"new\" ; EDGE 22 500 777 1 DIRECTED",
        );
        assert_eq!(
            ack,
            "OK APPENDED BATCH count=3 normalized=0 t_min=20 t_max=22"
        );
        let g = run(&mut exec, "GET GRAPH AT 22 WITH +node:all+edge:all");
        assert!(g.contains("N 777 name=\"new\""), "{g}");
        assert!(g.contains("E 500 777 1 d"), "{g}");
        // The whole batch landed under ONE append-epoch bump.
        assert_eq!(shared.read().append_epoch(), 1);
    }

    #[test]
    fn ill_formed_batches_are_normalized_at_the_wire_boundary() {
        let (mut exec, _router) = executor();
        run(
            &mut exec,
            "APPEND BATCH NODE 20 777 ; NODEATTR 21 777 name \"x\" ; \
             EDGE 22 500 777 1 ; EDGEATTR 23 500 w 9",
        );
        // Deleting an attribute-carrying edge and then the attribute- and
        // edge-carrying node is ill-formed under §3.1; the boundary injects
        // the clearing events (edge attr, node attr, incident edge delete).
        let ack = run(
            &mut exec,
            "APPEND BATCH DELEDGE 30 500 777 1 ; DELNODE 31 777",
        );
        assert!(
            ack.starts_with("OK APPENDED BATCH count=4 normalized=2"),
            "{ack}"
        );
        let g = run(&mut exec, "GET GRAPH AT 31 WITH +node:all+edge:all");
        assert!(!g.contains("N 777"), "{g}");
        assert!(!g.contains("E 500"), "{g}");
    }

    #[test]
    fn rejected_batches_leave_no_partial_state() {
        let (mut exec, router) = executor();
        let shared = router.shard_at(0).unwrap();
        let before = run(&mut exec, "STATS");
        // The second spec predates the first — chronology is validated for
        // the batch as a unit, so nothing from the batch is applied.
        let err = exec
            .execute_line("APPEND BATCH NODE 20 777 ; NODE 19 778")
            .unwrap_err();
        assert!(err.to_string().contains("chronologically"), "{err}");
        assert_eq!(run(&mut exec, "STATS"), before);
        assert_eq!(shared.read().append_epoch(), 0, "no epoch bump");
        let g = run(&mut exec, "GET GRAPH AT 30 WITH +node:all");
        assert!(!g.contains("N 777"), "batch prefix leaked: {g}");
    }

    #[test]
    fn empty_time_expression_is_surfaced() {
        // Built directly (the parser cannot produce an empty expression).
        let expr = crate::ast::TimeExpr::At(Timestamp(3));
        assert!(expr.to_time_expression().is_ok());
        let (mut exec, _router) = executor();
        let q = Query::GetGraphMatching {
            expr: crate::ast::TimeExpr::Not(Box::new(crate::ast::TimeExpr::At(Timestamp(3)))),
            attrs: String::new(),
        };
        // NOT 3 has a time point, so it executes (complement against union).
        assert!(exec.execute(&q).is_ok());
    }

    #[test]
    fn repeated_hits_hold_one_counted_entry_and_release_every_reference() {
        let (mut exec, router) = full_executor(8, 8);
        let shared = router.shard_at(0).unwrap();
        // The first reference holds nothing; the next 10,000 hold the overlay.
        for _ in 0..=10_000 {
            exec.execute_framed("GET GRAPH AT 6");
        }
        let held = exec.session_handles();
        assert_eq!(held.len(), 1, "one entry per overlay");
        assert_eq!(held[0].1, 10_000);
        assert_eq!(shared.read().pool().refcount(held[0].0), Some(10_001));
        assert_eq!(run(&mut exec, "RELEASE ALL"), "OK RELEASED 10000");
        assert!(exec.session_handles().is_empty());
        assert_eq!(shared.read().pool().refcount(held[0].0), Some(1));
    }

    #[test]
    fn release_all_clears_overlays() {
        let (mut exec, router) = cached_executor(8);
        let shared = router.shard_at(0).unwrap();
        // The second reference to each point admits it.
        for t in [3, 9, 3, 9] {
            run(&mut exec, &format!("GET GRAPH AT {t}"));
        }
        assert_eq!(shared.read().pool().active_overlay_count(), 2);
        assert_eq!(exec.session_handles().len(), 2);
        let released = run(&mut exec, "RELEASE ALL");
        assert_eq!(released, "OK RELEASED 2");
        assert!(exec.session_handles().is_empty());
        // Only the cache's own references remain.
        let gm = shared.read();
        assert!(gm.cache_entries().iter().all(|e| e.refs == 1));
    }

    #[test]
    fn release_all_is_scoped_to_the_issuing_session() {
        let (mut exec, router) = cached_executor(8);
        let shared = router.shard_at(0).unwrap();
        let mut other = Executor::for_router(router.clone());
        for _ in 0..2 {
            run(&mut other, "GET GRAPH AT 6");
            run(&mut exec, "GET GRAPH AT 3");
        }
        let refs = |t: i64| {
            let gm = shared.read();
            let entry = gm.cache_entries().into_iter().find(|e| e.t == Timestamp(t));
            entry.map(|e| e.refs)
        };
        assert_eq!((refs(3), refs(6)), (Some(2), Some(2)));
        // exec releases only its own reference; other's survives.
        assert_eq!(run(&mut exec, "RELEASE ALL"), "OK RELEASED 1");
        assert_eq!((refs(3), refs(6)), (Some(1), Some(2)));
        assert_eq!(other.session_handles().len(), 1);
        assert!(exec.session_handles().is_empty());
        drop(other);
        assert_eq!(refs(6), Some(1));
    }

    #[test]
    fn cached_point_queries_share_one_overlay_between_executors() {
        let (mut exec, router) = cached_executor(8);
        let shared = router.shard_at(0).unwrap();
        let mut other = Executor::for_router(router.clone());
        // exec's first reference holds nothing, other's admits the point,
        // exec's second hits it.
        let first = run(&mut exec, "GET GRAPH AT 6 WITH +node:all+edge:all");
        let b = run(&mut other, "GET GRAPH AT 6 WITH +node:all+edge:all");
        let a = run(&mut exec, "GET GRAPH AT 6 WITH +node:all+edge:all");
        assert_eq!(a, b);
        assert_eq!(first, b);
        // one shared overlay: cache ref + one per executor session
        assert_eq!(shared.read().pool().active_overlay_count(), 1);
        let id = exec.session_handles()[0].0;
        assert_eq!(exec.session_handles(), [(id, 1)]);
        assert_eq!(other.session_handles(), [(id, 1)]);
        assert_eq!(shared.read().pool().refcount(id), Some(3));

        let cache = run(&mut exec, "STATS CACHE");
        assert!(
            cache.starts_with("OK CACHE entries=1 capacity=8 hits=1 misses=2"),
            "{cache}"
        );
        assert!(
            cache.contains("C t=6 opts=\"+node:all+edge:all\"") && cache.contains("refs=3"),
            "{cache}"
        );

        // RELEASE ALL drops only this session's reference
        assert_eq!(run(&mut exec, "RELEASE ALL"), "OK RELEASED 1");
        assert_eq!(shared.read().pool().refcount(id), Some(2));
        drop(other);
        assert_eq!(shared.read().pool().refcount(id), Some(1));
        assert_eq!(shared.read().pool().active_overlay_count(), 1);
    }

    #[test]
    fn append_invalidates_cache_over_the_wire() {
        let (mut exec, router) = cached_executor(8);
        let shared = router.shard_at(0).unwrap();
        for t in [6, 25, 6, 25] {
            run(&mut exec, &format!("GET GRAPH AT {t}"));
        }
        assert_eq!(shared.read().cache_len(), 2);
        run(&mut exec, "APPEND NODE 20 777");
        // the t=25 entry is at/after the append, the t=6 entry is before it
        let cache = run(&mut exec, "STATS CACHE");
        assert!(cache.contains("entries=1"), "{cache}");
        assert!(cache.contains("C t=6 "), "{cache}");
        let g = run(&mut exec, "GET GRAPH AT 25");
        assert!(g.contains("N 777"), "{g}");
    }

    #[test]
    fn node_queries_peek_the_cache_without_holding_references() {
        let (mut exec, router) = cached_executor(8);
        let shared = router.shard_at(0).unwrap();
        run(&mut exec, "BIND alice 1");
        // GET with full attributes, twice, caches (6, all); NODE peeks it
        run(&mut exec, "GET GRAPH AT 6 WITH +node:all+edge:all");
        run(&mut exec, "GET GRAPH AT 6 WITH +node:all+edge:all");
        let refs_before = {
            let gm = shared.read();
            gm.cache_entries()[0].refs
        };
        let node = run(&mut exec, "NODE alice AT 6");
        assert!(node.contains("present=true"), "{node}");
        let gm = shared.read();
        assert_eq!(gm.cache_entries()[0].refs, refs_before);
        assert_eq!(gm.cache_stats().hits, 1);
    }

    #[test]
    fn stats_cache_reports_disabled_cache() {
        let (mut exec, _router) = executor();
        run(&mut exec, "GET GRAPH AT 6");
        let cache = run(&mut exec, "STATS CACHE");
        assert_eq!(
            cache,
            "OK CACHE entries=0 capacity=0 hits=0 misses=0 insertions=0 \
             invalidations=0 evictions=0 overlays=0\n\
             RC entries=0 capacity=0 byte_budget=0 hits=0 misses=0 insertions=0 \
             invalidations=0 evictions=0 bytes=0"
        );
    }

    /// One scripted session through both cache tiers, recorded as a
    /// transcript: each request line, then its reply — as text, or as hex
    /// for a binary frame. `GET`s are served the way the server serves
    /// them: the reactor's fast path first, the full path when it declines.
    fn cache_transcript(budget: u64) -> String {
        let (mut exec, _router) = toy_executor(
            GraphManagerConfig::default()
                .with_snapshot_cache(8)
                .with_response_cache(8)
                .with_response_cache_bytes(budget),
        );
        let mut out = String::new();
        let script = [
            // A first reference, then an admitted second reference.
            "GET GRAPH AT 6",
            "STATS CACHE",
            "GET GRAPH AT 6",
            "STATS CACHE",
            // A byte hit in text, then a miss and a hit in binary.
            "GET GRAPH AT 6",
            "PROTOCOL BINARY",
            "GET GRAPH AT 6",
            "GET GRAPH AT 6",
            "STATS CACHE",
            // t=25's binary bytes overflow the byte budget: the LRU slot
            // (t=6 text) goes, and both overlays stay.
            "GET GRAPH AT 25",
            "GET GRAPH AT 25",
            "PROTOCOL TEXT",
            "STATS CACHE",
            // t=6's overlay outlived its text bytes: a hit that renders
            // again, and whose bytes push out the LRU slot (t=6 binary).
            "GET GRAPH AT 6",
            "STATS CACHE",
            "STATS SHARDS",
            // The append at 20 drops t=25 with its byte slot; t=6 stays.
            "APPEND NODE 20 777",
            "STATS CACHE",
            "PROTOCOL BINARY",
            "STATS CACHE",
            "PROTOCOL TEXT",
            "RELEASE ALL",
            "STATS CACHE",
            "STATS SHARDS",
            "STATS METRICS",
        ];
        for line in script {
            let reply = if line.starts_with("GET ") {
                exec.try_execute_hot(line)
                    .unwrap_or_else(|| exec.execute_framed(line))
            } else {
                exec.execute_framed(line)
            };
            let bytes = reply.as_ref();
            out.push_str(&format!("> {line}\n"));
            // A reply goes out in the protocol current after its request.
            let rendered = match exec.protocol() {
                WireFormat::Text => String::from_utf8(bytes.to_vec()).expect("a text reply"),
                WireFormat::Binary => {
                    bytes.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n"
                }
            };
            if line.starts_with("GET ") {
                // A graph reply is pinned by its length only.
                out.push_str(&format!("{} bytes\n", bytes.len()));
            } else if line == "STATS METRICS" {
                for l in rendered
                    .lines()
                    .filter(|l| l.starts_with("M cache_") || l.starts_with("M response_cache_"))
                {
                    out.push_str(l);
                    out.push('\n');
                }
            } else {
                out.push_str(&rendered);
            }
        }
        out
    }

    /// Pins the cache's whole observable surface — the `STATS CACHE` text,
    /// its binary frame (tag 6), the `S` line of `STATS SHARDS` and the
    /// cache metrics — over admission, byte hits in both protocols, a
    /// byte-budget eviction, an `APPEND` invalidation and `RELEASE ALL`.
    /// The budget (120 bytes) holds t=6's text (69) and binary (26) replies
    /// but not t=25's binary reply (26) on top.
    #[test]
    fn stats_cache_golden_transcript() {
        let want = r#"
            > GET GRAPH AT 6
            69 bytes
            > STATS CACHE
            OK CACHE entries=0 capacity=8 hits=0 misses=1 insertions=0 invalidations=0 evictions=0 overlays=0
            RC entries=0 capacity=8 byte_budget=120 hits=0 misses=0 insertions=0 invalidations=0 evictions=0 bytes=0
            END
            > GET GRAPH AT 6
            69 bytes
            > STATS CACHE
            OK CACHE entries=1 capacity=8 hits=0 misses=2 insertions=1 invalidations=0 evictions=0 overlays=1
            RC entries=1 capacity=8 byte_budget=120 hits=0 misses=1 insertions=1 invalidations=0 evictions=0 bytes=69
            C t=6 opts="" overlay=1 refs=2
            END
            > GET GRAPH AT 6
            69 bytes
            > PROTOCOL BINARY
            0400000001000b01
            > GET GRAPH AT 6
            26 bytes
            > GET GRAPH AT 6
            26 bytes
            > STATS CACHE
            1800000001000608030201000001010c00010508780202020200005f
            > GET GRAPH AT 25
            26 bytes
            > GET GRAPH AT 25
            26 bytes
            > PROTOCOL TEXT
            OK PROTOCOL TEXT
            END
            > STATS CACHE
            OK CACHE entries=2 capacity=8 hits=3 misses=4 insertions=2 invalidations=0 evictions=0 overlays=2
            RC entries=2 capacity=8 byte_budget=120 hits=2 misses=3 insertions=3 invalidations=0 evictions=1 bytes=52
            C t=6 opts="" overlay=1 refs=5
            C t=25 opts="" overlay=2 refs=2
            END
            > GET GRAPH AT 6
            69 bytes
            > STATS CACHE
            OK CACHE entries=2 capacity=8 hits=4 misses=4 insertions=2 invalidations=0 evictions=0 overlays=2
            RC entries=2 capacity=8 byte_budget=120 hits=2 misses=4 insertions=4 invalidations=0 evictions=2 bytes=95
            C t=6 opts="" overlay=1 refs=6
            C t=25 opts="" overlay=2 refs=2
            END
            > STATS SHARDS
            OK SHARDS count=1
            S 0 lower=- upper=- events=10 overlays=2 cache_entries=2 cache_hits=4 cache_misses=4 cache_invalidations=0 rc_entries=2 rc_hits=2 rc_misses=4 queries=8 appends=0
            END
            > APPEND NODE 20 777
            OK APPENDED t=20
            END
            > STATS CACHE
            OK CACHE entries=1 capacity=8 hits=4 misses=4 insertions=2 invalidations=1 evictions=0 overlays=2
            RC entries=1 capacity=8 byte_budget=120 hits=2 misses=4 insertions=4 invalidations=1 evictions=2 bytes=69
            C t=6 opts="" overlay=1 refs=6
            END
            > PROTOCOL BINARY
            0400000001000b01
            > STATS CACHE
            1800000001000608040402010002010c000106087801020404010245
            > PROTOCOL TEXT
            OK PROTOCOL TEXT
            END
            > RELEASE ALL
            OK RELEASED 6
            END
            > STATS CACHE
            OK CACHE entries=1 capacity=8 hits=4 misses=4 insertions=2 invalidations=1 evictions=0 overlays=1
            RC entries=1 capacity=8 byte_budget=120 hits=2 misses=4 insertions=4 invalidations=1 evictions=2 bytes=69
            C t=6 opts="" overlay=1 refs=1
            END
            > STATS SHARDS
            OK SHARDS count=1
            S 0 lower=- upper=- events=11 overlays=1 cache_entries=1 cache_hits=4 cache_misses=4 cache_invalidations=1 rc_entries=1 rc_hits=2 rc_misses=4 queries=8 appends=1
            END
            > STATS METRICS
            M cache_entries gauge value=1
            M cache_evictions_total counter value=0
            M cache_hits_total counter value=4
            M cache_insertions_total counter value=2
            M cache_invalidations_total counter value=1
            M cache_misses_total counter value=4
            M cache_overlays gauge value=1
            M response_cache_bytes gauge value=69
            M response_cache_entries gauge value=1
            M response_cache_evictions_total counter value=2
            M response_cache_hits_total counter value=2
            M response_cache_insertions_total counter value=4
            M response_cache_invalidations_total counter value=1
            M response_cache_misses_total counter value=4
        "#;
        let want: String = want.lines().map(str::trim).filter(|l| !l.is_empty()).fold(
            String::new(),
            |mut out, l| {
                out.push_str(l);
                out.push('\n');
                out
            },
        );
        assert_eq!(cache_transcript(120), want);
    }

    fn full_executor(snap_cache: usize, resp_cache: usize) -> (Executor, ShardedGraphManager) {
        toy_executor(
            GraphManagerConfig::default()
                .with_snapshot_cache(snap_cache)
                .with_response_cache(resp_cache),
        )
    }

    #[test]
    fn protocol_verb_switches_the_session_encoding() {
        let (mut exec, _router) = executor();
        assert_eq!(exec.protocol(), WireFormat::Text);
        let resp = exec.execute_line("PROTOCOL BINARY").unwrap();
        assert_eq!(resp.to_text(), "OK PROTOCOL BINARY");
        assert_eq!(exec.protocol(), WireFormat::Binary);
        // The acknowledgment of a switch back is already framed as binary
        // (the new encoding applies to the verb's own reply only after the
        // switch — TEXT's ack goes out as text).
        exec.execute_line("PROTOCOL TEXT").unwrap();
        assert_eq!(exec.protocol(), WireFormat::Text);
        // A malformed PROTOCOL verb never switches modes.
        assert!(exec.execute_line("PROTOCOL MORSE").is_err());
        assert_eq!(exec.protocol(), WireFormat::Text);
    }

    #[test]
    fn the_rendered_response_is_kept_for_the_caller_until_the_next_call() {
        let (mut exec, _router) = full_executor(8, 8);
        // A first reference is rendered from its columns, and keeps them.
        let reply = exec.execute_framed("GET GRAPH AT 6 WITH +node:all");
        let Some(Rendered::Columns(columns)) = exec.take_rendered() else {
            panic!("a first reference keeps the columns it rendered from");
        };
        let again = frame_columns(Timestamp(6), &columns, exec.protocol());
        assert_eq!(
            reply.as_ref(),
            &again[..],
            "the reply was rendered from them"
        );
        let graph = Arc::new(columns.into_snapshot());
        let as_response = Response::Graph {
            t: Timestamp(6),
            graph: Arc::clone(&graph),
        };
        assert_eq!(reply.as_ref(), &as_response.to_frame(exec.protocol())[..]);
        assert!(exec.take_rendered().is_none(), "taken once");
        // The admitted second reference renders a response and keeps it.
        let reply = exec.execute_framed("GET GRAPH AT 6 WITH +node:all");
        let Some(Rendered::Response(Response::Graph { t, graph: kept })) = exec.take_rendered()
        else {
            panic!("an admitted point keeps its response");
        };
        assert_eq!((t, &kept), (Timestamp(6), &graph));
        assert_eq!(reply.as_ref(), &as_response.to_frame(exec.protocol())[..]);
        // Other verbs keep theirs too, and the next call replaces it.
        exec.execute_framed("PING");
        exec.execute_framed("STATS");
        assert!(matches!(
            exec.take_rendered(),
            Some(Rendered::Response(Response::Stats { .. }))
        ));
        // A reply served from cached bytes renders nothing to keep.
        exec.execute_framed("GET GRAPH AT 6 WITH +node:all");
        assert!(exec.take_rendered().is_none());
        // A failed query renders no response either.
        exec.execute_framed("PING");
        exec.execute_framed("FROB 12");
        assert!(exec.take_rendered().is_none());
    }

    #[test]
    fn framed_point_queries_are_served_from_the_response_cache() {
        let (mut exec, router) = full_executor(8, 8);
        let shared = router.shard_at(0).unwrap();
        // The first reference is rendered and cached nowhere.
        let first = exec.execute_framed("GET GRAPH AT 6 WITH +node:all");
        assert_eq!(shared.read().response_cache_stats(), Default::default());
        // The second is admitted and its bytes cached; the third hits them.
        let second = exec.execute_framed("GET GRAPH AT 6 WITH +node:all");
        let third = exec.execute_framed("GET GRAPH AT 6 WITH +node:all");
        assert_eq!(first.as_ref(), second.as_ref());
        assert_eq!(first.as_ref(), third.as_ref());
        let rc = shared.read().response_cache_stats();
        assert_eq!((rc.hits, rc.misses, rc.insertions), (1, 1, 1));
        assert_eq!(rc.bytes, first.as_ref().len() as u64);
        // The byte-cache hit still took a snapshot-cache overlay reference:
        // two references to one overlay.
        let held = exec.session_handles();
        assert_eq!((held.len(), held[0].1), (1, 2));
        // A different protocol renders (and caches) separately.
        exec.execute_line("PROTOCOL BINARY").unwrap();
        let binary = exec.execute_framed("GET GRAPH AT 6 WITH +node:all");
        assert_ne!(binary.as_ref(), first.as_ref());
        assert_eq!(shared.read().response_cache_len(), 2);
        // And the binary frame decodes back to the same graph.
        let payload = &binary.as_ref()[4..];
        let crate::wire::Frame::Response(resp) = crate::wire::Frame::from_payload(payload).unwrap()
        else {
            panic!("expected a response frame");
        };
        assert_eq!(
            resp.to_frame(WireFormat::Text).as_slice(),
            first.as_ref(),
            "binary round-trip must re-render to the text reply"
        );
    }

    #[test]
    fn framed_errors_render_in_the_current_protocol() {
        let (mut exec, _router) = full_executor(8, 8);
        let text_err = exec.execute_framed("FROB 12");
        assert!(text_err.as_ref().starts_with(b"ERR "), "text error frame");
        assert!(text_err.as_ref().ends_with(b"END\n"));
        exec.execute_line("PROTOCOL BINARY").unwrap();
        let bin_err = exec.execute_framed("FROB 12");
        let payload = &bin_err.as_ref()[4..];
        match crate::wire::Frame::from_payload(payload).unwrap() {
            crate::wire::Frame::Error(msg) => assert!(msg.contains("unknown verb"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn append_invalidates_response_cache_entries() {
        let (mut exec, router) = full_executor(8, 8);
        let shared = router.shard_at(0).unwrap();
        exec.execute_framed("GET GRAPH AT 25");
        let before = exec.execute_framed("GET GRAPH AT 25");
        assert_eq!(shared.read().response_cache_len(), 1);
        run(&mut exec, "APPEND NODE 20 777");
        assert_eq!(
            shared.read().response_cache_len(),
            0,
            "stale bytes must be dropped at the append point"
        );
        let after = exec.execute_framed("GET GRAPH AT 25");
        assert_ne!(before.as_ref(), after.as_ref(), "stale bytes were served");
        assert!(std::str::from_utf8(after.as_ref())
            .unwrap()
            .contains("N 777"));
        assert_eq!(shared.read().response_cache_stats().invalidations, 1);
    }

    #[test]
    fn multipoint_queries_share_cached_overlays_without_polluting_the_cache() {
        let (mut exec, router) = cached_executor(8);
        let shared = router.shard_at(0).unwrap();
        let mut other = Executor::for_router(router.clone());
        run(&mut exec, "GET GRAPH AT 6");
        run(&mut exec, "GET GRAPH AT 6");
        // Multipoint over the same instant plus one more: the t=6 overlay is
        // reused (cache hit, shared across sessions), t=9 goes through the
        // Steiner planner with no overlay and is *not* inserted — cold
        // multipoint scans must not evict the hot set.
        let a = run(&mut other, "GET GRAPHS AT 6, 9");
        assert!(a.starts_with("OK GRAPHS count=2"), "{a}");
        assert_eq!(shared.read().pool().active_overlay_count(), 1);
        assert_eq!(shared.read().cache_len(), 1, "t=9 must not be cached");
        let stats = shared.read().cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 3));
        // Both sessions hold the same t=6 overlay.
        assert_eq!(exec.session_handles()[0].0, other.session_handles()[0].0);
        // And the result matches the uncached multipoint path.
        let (mut plain, _) = executor();
        assert_eq!(run(&mut plain, "GET GRAPHS AT 6, 9"), a);
    }

    fn sharded_executor(shards: usize) -> (Executor, ShardedGraphManager) {
        use tgraph::Event;
        // 60 nodes appearing at t = 1..=60 → predictable shard contents.
        let events = tgraph::EventList::from_events(
            (1..=60)
                .map(|i| Event::add_node(i, 1000 + i as u64))
                .collect(),
        );
        let router = ShardedGraphManager::build_in_memory(
            &events,
            historygraph::ShardedConfig::default()
                .with_shards(shards)
                .with_manager(GraphManagerConfig::default().with_snapshot_cache(16)),
        )
        .unwrap();
        (Executor::for_router(router.clone()), router)
    }

    #[test]
    fn stats_shards_reports_per_shard_counters() {
        let (mut exec, router) = sharded_executor(3);
        assert_eq!(router.shard_count(), 3);
        // A first reference, the miss that admits the point, then a hit.
        for _ in 0..3 {
            run(&mut exec, "GET GRAPH AT 10");
        }
        let shards = run(&mut exec, "STATS SHARDS");
        assert!(shards.starts_with("OK SHARDS count=3"), "{shards}");
        let s0 = shards.lines().find(|l| l.starts_with("S 0 ")).unwrap();
        assert!(s0.contains("lower=- upper=20"), "{s0}");
        assert!(s0.contains("cache_hits=1 cache_misses=2"), "{s0}");
        let s2 = shards.lines().find(|l| l.starts_with("S 2 ")).unwrap();
        assert!(s2.contains("lower=40 upper=-"), "{s2}");
        // STATS CACHE aggregates the same counters across shards.
        let cache = run(&mut exec, "STATS CACHE");
        assert!(cache.contains("hits=1 misses=2"), "{cache}");
    }

    #[test]
    fn sharded_multipoint_preserves_request_order() {
        let (mut exec, _router) = sharded_executor(3);
        let reply = run(&mut exec, "GET GRAPHS AT 55, 5, 35");
        let order: Vec<&str> = reply
            .lines()
            .filter(|l| l.starts_with("GRAPH t="))
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        assert_eq!(order, ["t=55", "t=5", "t=35"]);
        // And the snapshots are the right ones, not just relabeled.
        assert!(reply.contains("GRAPH t=5 nodes=5 edges=0"), "{reply}");
        assert!(reply.contains("GRAPH t=55 nodes=55 edges=0"), "{reply}");
    }

    #[test]
    fn sharded_appends_route_to_the_tail_and_reject_history_writes() {
        let (mut exec, router) = sharded_executor(3);
        run(&mut exec, "APPEND NODE 61 9001");
        let g = run(&mut exec, "GET GRAPH AT 61");
        assert!(g.contains("N 9001"), "{g}");
        // Writing into a historical shard's range is refused.
        let err = exec.execute_line("APPEND NODE 5 9002").unwrap_err();
        assert!(err.to_string().contains("immutable"), "{err}");
        // Chronology violations surface from the tail shard itself.
        let err = exec.execute_line("APPEND NODE 45 9003").unwrap_err();
        assert!(err.to_string().contains("appended after"), "{err}");
        // Historical shards saw no invalidations from any of this.
        let infos = router.shard_infos();
        assert_eq!(infos[0].cache.invalidations, 0);
        assert_eq!(infos[1].cache.invalidations, 0);
    }

    #[test]
    fn response_bytes_never_survive_a_tail_roll() {
        use tgraph::Event;
        // Response cache on, tiny roll budget: the built tail is already
        // over budget, so the first strictly-later append rolls a new tail
        // shard (whose fresh append epoch is 0, like an untouched shard's).
        let events = tgraph::EventList::from_events(
            (1..=20)
                .map(|i| Event::add_node(i, 1000 + i as u64))
                .collect(),
        );
        let router = ShardedGraphManager::build_in_memory(
            &events,
            historygraph::ShardedConfig::default()
                .with_shards(2)
                .with_shard_events(4)
                .with_manager(
                    GraphManagerConfig::default()
                        .with_snapshot_cache(8)
                        .with_response_cache(8),
                ),
        )
        .unwrap();
        let mut exec = Executor::for_router(router.clone());
        // Render (and cache, on the pre-roll tail) a future point.
        let before = exec.execute_framed("GET GRAPH AT 1000");
        assert!(std::str::from_utf8(before.as_ref())
            .unwrap()
            .starts_with("OK GRAPH t=1000 nodes=20"));
        // This append rolls a fresh tail owning [25, ∞) — including t=1000.
        run(&mut exec, "APPEND NODE 25 9000");
        assert_eq!(router.shard_count(), 3);
        // The pre-roll bytes must not be served from the new tail: the
        // reply reflects the append.
        let after = exec.execute_framed("GET GRAPH AT 1000");
        assert!(
            std::str::from_utf8(after.as_ref())
                .unwrap()
                .starts_with("OK GRAPH t=1000 nodes=21"),
            "stale pre-roll bytes were served: {:?}",
            std::str::from_utf8(after.as_ref()).unwrap().lines().next()
        );
    }

    #[test]
    fn cross_shard_interval_queries_error_clearly() {
        let (mut exec, _router) = sharded_executor(3);
        let ok = run(&mut exec, "GET GRAPH BETWEEN 25 AND 30");
        assert!(ok.starts_with("OK INTERVAL"), "{ok}");
        let err = exec
            .execute_line("GET GRAPH BETWEEN 10 AND 50")
            .unwrap_err();
        assert!(err.to_string().contains("spans shards"), "{err}");
        let err = exec.execute_line("DIFF 50 10").unwrap_err();
        assert!(err.to_string().contains("spans shards"), "{err}");
        // DIFF within one shard still works.
        let ok = run(&mut exec, "DIFF 30 25");
        assert!(ok.starts_with("OK GRAPH"), "{ok}");
    }

    #[test]
    fn sharded_bind_resolves_on_every_shard() {
        let (mut exec, _router) = sharded_executor(3);
        run(&mut exec, "BIND n10 1010");
        // The node appears at t=10 (shard 0) and persists into shard 2.
        let early = run(&mut exec, "NODE n10 AT 10");
        assert!(early.contains("present=true"), "{early}");
        let late = run(&mut exec, "NODE n10 AT 55");
        assert!(late.contains("present=true"), "{late}");
        let history = run(&mut exec, "HISTORY NODE n10 FROM 5 TO 55 STEP 10");
        assert_eq!(
            history.lines().filter(|l| l.starts_with("H ")).count(),
            6,
            "{history}"
        );
    }

    #[test]
    fn stats_server_requires_a_serving_core() {
        let (mut exec, _router) = executor();
        let err = exec.execute_line("STATS SERVER").unwrap_err();
        assert!(err.to_string().contains("server session"), "{err}");
    }

    #[test]
    fn stats_server_renders_core_and_flight_counters() {
        let (_, router) = executor();
        let stats = Arc::new(ServerStats::new());
        stats.live_connections.store(3, Ordering::Relaxed);
        stats.accepted.store(10, Ordering::Relaxed);
        stats.workers.store(2, Ordering::Relaxed);
        let flights = Arc::new(FlightTable::new());
        flights.note_coalesced();
        let mut exec = Executor::for_router(router)
            .with_server_stats(Arc::clone(&stats))
            .with_flights(flights);
        let text = run(&mut exec, "STATS SERVER");
        assert_eq!(
            text,
            "OK SERVER connections=3 accepted=10 rejected=0 queue_depth=0 workers=2\n\
             SF leaders=0 coalesced=1 stale_rerenders=0"
        );
    }

    #[test]
    fn stats_metrics_answers_without_a_hub() {
        // Pull-only entries (caches, per-shard skew) are always reportable;
        // push-model histograms need a serving core's hub.
        let (mut exec, _router) = sharded_executor(3);
        run(&mut exec, "GET GRAPH AT 10");
        let text = run(&mut exec, "STATS METRICS");
        assert!(text.starts_with("OK METRICS entries="), "{text}");
        assert!(
            text.contains("M cache_misses_total counter value=1"),
            "{text}"
        );
        assert!(
            text.contains("M shard0_queries_total counter value=1"),
            "{text}"
        );
        assert!(
            text.contains("M shard1_queries_total counter value=0"),
            "{text}"
        );
        assert!(!text.contains("verb_us_"), "no hub, no histograms: {text}");
    }

    #[test]
    fn stats_storage_reports_none_in_memory_and_counters_when_durable() {
        let (mut exec, _) = sharded_executor(2);
        let text = run(&mut exec, "STATS STORAGE");
        assert!(
            text.starts_with("OK STORAGE durable=false policy=none segments=0"),
            "{text}"
        );

        let dir = std::env::temp_dir().join(format!("histql-stats-storage-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let events = tgraph::EventList::from_events(
            (1..=20)
                .map(|i| tgraph::Event::add_node(i, 1000 + i as u64))
                .collect(),
        );
        let router = ShardedGraphManager::build_durable(
            &events,
            historygraph::ShardedConfig::default().with_shards(2),
            &dir,
            historygraph::WalSyncPolicy::Always,
        )
        .unwrap();
        let mut exec = Executor::for_router(router);
        exec.execute_framed("APPEND NODE 21 9001");
        let text = run(&mut exec, "STATS STORAGE");
        assert!(text.contains("durable=true"), "{text}");
        assert!(text.contains("policy=always"), "{text}");
        assert!(text.contains("segments=1"), "{text}");
        assert!(!text.contains("wal_appends=0"), "{text}");
        let metrics = run(&mut exec, "STATS METRICS");
        assert!(
            metrics.contains("M storage_wal_appends_total counter"),
            "{metrics}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_metrics_reports_verb_histograms_and_slow_queries() {
        let (_, router) = sharded_executor(3);
        let hub = Arc::new(crate::obs::MetricsHub::new());
        hub.set_slow_threshold_us(1); // everything is slow
        let mut exec = Executor::for_router(router)
            .with_metrics(Arc::clone(&hub))
            .with_session_id(7);
        exec.execute_framed("GET GRAPH AT 10");
        exec.execute_framed("GET GRAPH AT 45");
        exec.execute_framed("HISTORY NODE nobody FROM 0 TO 9"); // errors still time
        let text = run(&mut exec, "STATS METRICS");
        let hist = text
            .lines()
            .find(|l| l.starts_with("M verb_us_get_graph_at "))
            .unwrap_or_else(|| panic!("{text}"));
        assert!(hist.contains("hist count=2"), "{hist}");
        assert!(
            text.contains("M phase_us_service hist count=3"),
            "errors are timed too: {text}"
        );
        // Both routed shards saw their query.
        assert!(
            text.contains("M shard0_queries_total counter value=1"),
            "{text}"
        );
        assert!(
            text.contains("M shard2_queries_total counter value=1"),
            "{text}"
        );
        // The slow ring captured each request with shard attribution.
        let slow = run(&mut exec, "STATS SLOW");
        assert!(slow.starts_with("OK SLOW entries="), "{slow}");
        let q = slow
            .lines()
            .find(|l| l.starts_with("Q verb=\"GET GRAPH AT\" t=45 "))
            .unwrap_or_else(|| panic!("{slow}"));
        assert!(q.contains("shard=2"), "{q}");
        assert!(q.contains("session=7"), "{q}");
        // Draining emptied the ring.
        let again = run(&mut exec, "STATS SLOW");
        assert!(again.contains("entries=0"), "drain empties: {again}");
    }

    #[test]
    fn under_threshold_requests_are_not_captured() {
        let (_, router) = executor();
        let hub = Arc::new(crate::obs::MetricsHub::new());
        hub.set_slow_threshold_us(u64::MAX); // nothing is slow
        let mut exec = Executor::for_router(router).with_metrics(Arc::clone(&hub));
        exec.execute_framed("GET GRAPH AT 6");
        exec.execute_framed("PING");
        assert!(hub.drain_slow().is_empty());
        // But the histograms still recorded.
        let text = run(&mut exec, "STATS METRICS");
        assert!(
            text.contains("M verb_us_get_graph_at hist count=1"),
            "{text}"
        );
        assert!(text.contains("M verb_us_other hist count=1"), "{text}");
    }

    #[test]
    fn hot_path_records_fast_path_metrics_only_on_hits() {
        let (_, router) = full_executor(8, 8);
        let hub = Arc::new(crate::obs::MetricsHub::new());
        let mut exec = Executor::for_router(router.clone()).with_metrics(Arc::clone(&hub));
        // Cold: the hot path declines and must record nothing.
        assert!(exec.try_execute_hot("GET GRAPH AT 6").is_none());
        assert_eq!(hub.path_fast.get(), 0);
        assert_eq!(hub.verb(VerbKind::GetGraphAt).snapshot().count, 0);
        // A first reference through the full path caches nothing, so the
        // hot path still declines.
        exec.execute_framed("GET GRAPH AT 6");
        assert!(exec.try_execute_hot("GET GRAPH AT 6").is_none());
        // The second admits the point; then the fast path hits.
        exec.execute_framed("GET GRAPH AT 6");
        assert!(exec.try_execute_hot("GET GRAPH AT 6").is_some());
        assert_eq!(hub.path_fast.get(), 1);
        assert_eq!(hub.verb(VerbKind::GetGraphAt).snapshot().count, 3);
        // The point was admitted in text, so its first binary request finds
        // no binary reply: the fast path declines without rendering,
        // counting or taking a reference.
        exec.execute_line("PROTOCOL BINARY").unwrap();
        let held = exec.session_handles();
        let before = (
            router.cache_overview().stats,
            router.cache_overview().response,
        );
        assert!(exec.try_execute_hot("GET GRAPH AT 6").is_none());
        assert_eq!(exec.session_handles(), held);
        let after = (
            router.cache_overview().stats,
            router.cache_overview().response,
        );
        assert_eq!(after, before);
        assert_eq!(hub.path_fast.get(), 1);
        // The worker renders it and fills the slot; then the fast path hits.
        let rendered = exec.execute_framed("GET GRAPH AT 6");
        let hit = exec
            .try_execute_hot("GET GRAPH AT 6")
            .expect("a binary hit");
        assert_eq!(hit.as_ref(), rendered.as_ref());
        assert_eq!(hub.path_fast.get(), 2);
        let rc = router.cache_overview().response;
        assert_eq!((rc.hits, rc.misses, rc.insertions), (2, 2, 2));
    }

    #[test]
    fn concurrent_identical_points_coalesce_into_one_render() {
        // Deterministic, no timing: the test leads the flight itself so
        // every session is forced into the follower path, and publishes
        // only once all of them have joined.
        let (_, router) = full_executor(8, 8);
        let flights = Arc::new(FlightTable::new());
        let opts = AttrOptions::parse("").unwrap();
        let crate::flight::Joined::Leader(guard) =
            flights.join((Timestamp(6), opts.clone(), WireFormat::Text))
        else {
            panic!("fresh key must elect a leader");
        };
        const N: usize = 4;
        let replies: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let router = router.clone();
                    let flights = Arc::clone(&flights);
                    scope.spawn(move || {
                        let mut exec = Executor::for_router(router).with_flights(flights);
                        exec.execute_framed("GET GRAPH AT 6").as_ref().to_vec()
                    })
                })
                .collect();
            // Each joined follower holds a handle on the pending flight.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while guard.waiters() < N {
                assert!(
                    std::time::Instant::now() < deadline,
                    "followers never joined the flight"
                );
                std::thread::yield_now();
            }
            let mut leader =
                Executor::for_router(router.clone()).with_flights(Arc::clone(&flights));
            let (shard, epoch, bytes) = leader
                .render_point_shared(Timestamp(6), &opts)
                .expect("leader render");
            guard.publish(crate::flight::FlightResult {
                bytes,
                shard,
                epoch,
            });
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &replies {
            assert_eq!(r, &replies[0], "all coalesced replies identical");
            assert!(
                r.starts_with(b"OK GRAPH"),
                "no errors under coalescing: {:?}",
                String::from_utf8_lossy(r)
            );
        }
        let s = flights.stats();
        assert_eq!(
            s.coalesced, N as u64,
            "every session was served the one shared render: {s:?}"
        );
        assert_eq!(s.stale_rerenders, 0, "{s:?}");
    }

    #[test]
    fn follower_never_accepts_bytes_across_an_append() {
        // Deterministic staleness check, no timing: a follower that joins a
        // flight whose result was computed before an APPEND must re-render.
        let (_, router) = full_executor(8, 8);
        let shared = router.shard_at(0).unwrap();
        let flights = Arc::new(FlightTable::new());
        // Renders outside the flight table, so producing the stale bytes
        // does not join (and wait on) the very flight the test holds open.
        let mut renderer = Executor::for_router(router.clone());
        let mut follower = Executor::for_router(router.clone()).with_flights(Arc::clone(&flights));

        // Manufacture the race: lead a flight, publish a result captured at
        // the current epoch, then APPEND (bumping the epoch) before the
        // follower validates.
        let opts = AttrOptions::parse("").unwrap();
        let crate::flight::Joined::Leader(guard) =
            flights.join((Timestamp(25), opts.clone(), WireFormat::Text))
        else {
            panic!("must lead");
        };
        let crate::flight::Joined::Follower(flight) =
            flights.join((Timestamp(25), opts.clone(), WireFormat::Text))
        else {
            panic!("must follow");
        };
        let stale = renderer.execute_framed("GET GRAPH AT 25");
        let epoch = shared.read().append_epoch();
        guard.publish(crate::flight::FlightResult {
            bytes: Arc::from(stale.as_ref()),
            shard: shared.clone(),
            epoch,
        });
        run(&mut renderer, "APPEND NODE 20 777");

        // The follower sees the published flight but must reject it.
        let result = flight.wait().expect("flight published");
        assert!(
            !(shared.same_manager(&result.shard) && shared.read().append_epoch() == result.epoch),
            "stale result must fail validation"
        );
        let fresh = follower.execute_framed("GET GRAPH AT 25");
        assert!(
            std::str::from_utf8(fresh.as_ref())
                .unwrap()
                .contains("N 777"),
            "follower render must reflect the append"
        );
        assert_ne!(fresh.as_ref(), stale.as_ref());
    }

    #[test]
    fn history_span_overflow_is_an_error_not_a_panic() {
        let (mut exec, _router) = executor();
        run(&mut exec, "BIND alice 1");
        let err = exec
            .execute_line(&format!(
                "HISTORY NODE alice FROM {} TO {} STEP 1",
                i64::MIN,
                i64::MAX
            ))
            .unwrap_err();
        assert!(err.to_string().contains("representable span"), "{err}");
    }
}
