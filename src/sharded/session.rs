//! A session over the router: one pool session per shard it touches.

use std::collections::HashMap;
use std::sync::Arc;

use deltagraph::DgResult;
use graphpool::GraphId;
use tgraph::{AttrOptions, ColumnGraph, Event, Snapshot, TimeExpression, Timestamp};

use super::ShardedGraphManager;
use crate::cache::WireFormat;
use crate::shared::{CachedPoint, PoolSession, SharedGraphManager};

/// A session over the router: one lazily created [`PoolSession`] per shard
/// the session touches. Dropping it releases every overlay on every shard.
pub struct ShardedSession {
    pub(super) router: ShardedGraphManager,
    pub(super) sessions: HashMap<usize, PoolSession>,
}

/// The per-shard half of a multipoint query: probe the shard's snapshot
/// cache per point (hot points share the cached overlay), then compute the
/// remaining cold points together through the shard's Steiner planner —
/// with no overlay and no insert, so a wide cold scan costs the pool
/// nothing and cannot evict the hot set. Under one read guard the hits are
/// read out of their overlays into columns and the misses are planned;
/// the plan executes with no lock held.
fn shard_multipoint(
    session: &mut PoolSession,
    times: &[Timestamp],
    opts: &AttrOptions,
) -> DgResult<Vec<Arc<ColumnGraph>>> {
    let hits: Vec<Option<GraphId>> = times
        .iter()
        .map(|&t| session.acquire_cached(t, opts))
        .collect();
    // The session holds a reference to every hit, so each overlay stays
    // put while it is materialized.
    let (mut out, plan) = {
        let gm = session.shared().read();
        let mut read: Vec<(GraphId, Arc<ColumnGraph>)> = Vec::new();
        let out: Vec<Option<Arc<ColumnGraph>>> = hits
            .iter()
            .map(|hit| {
                let id = (*hit)?;
                if let Some((_, graph)) = read.iter().find(|(held, _)| *held == id) {
                    return Some(Arc::clone(graph));
                }
                let graph = Arc::new(ColumnGraph::from_snapshot(&gm.graph(id).to_snapshot()));
                read.push((id, Arc::clone(&graph)));
                Some(graph)
            })
            .collect();
        let missing: Vec<Timestamp> = out
            .iter()
            .zip(times)
            .filter(|(graph, _)| graph.is_none())
            .map(|(_, &t)| t)
            .collect();
        let plan = (!missing.is_empty())
            .then(|| gm.index().plan_retrievals(&missing, opts))
            .transpose()?;
        (out, plan)
    };
    if let Some(plan) = plan {
        let mut computed = plan.execute()?.into_iter();
        for slot in out.iter_mut().filter(|graph| graph.is_none()) {
            *slot = Some(computed.next().expect("one graph per miss"));
        }
    }
    Ok(out
        .into_iter()
        .map(|graph| graph.expect("every slot filled"))
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
    /// parallel, and the graphs are reassembled in **request order**
    /// regardless of shard completion order. A repeated time shares its
    /// graph.
    pub fn get_graphs_at(
        &mut self,
        times: &[Timestamp],
        opts: &AttrOptions,
    ) -> DgResult<Vec<Arc<ColumnGraph>>> {
        self.router
            .fan_out(&mut self.sessions, times, |session, ts| {
                shard_multipoint(session, ts, opts)
            })
    }

    /// Interval retrieval on the single shard covering `[start, end)`,
    /// planned under its read lock and executed with none. The graph is
    /// answered, not overlaid.
    pub fn interval(
        &self,
        start: Timestamp,
        end: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<(Snapshot, Vec<Event>)> {
        let max = if end > start { end.prev() } else { start };
        let (shard, shared) = self.router.covering_shard(start.min(max), start.max(max))?;
        self.router.note_queries(shard, 1);
        let plan = shared.read().index().plan_interval(start, end, opts)?;
        plan.execute()
    }

    /// Boolean time-expression retrieval on the single shard covering every
    /// referenced point, planned under its read lock and executed with
    /// none. The hypothetical graph is answered, not overlaid.
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
        let plan = shared.read().index().plan_retrievals(&tex.times, opts)?;
        plan.execute_expression(tex)
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
