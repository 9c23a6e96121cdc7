//! Concurrent access to one [`GraphManager`]: the read/write split.
//!
//! A [`GraphManager`] is single-threaded by design — retrieval overlays
//! snapshots onto the GraphPool, which mutates shared bitmaps. The snapshot
//! *computation* itself, however, only reads the DeltaGraph index. The
//! [`SharedGraphManager`] exploits that split: the expensive part of a query
//! (planning, delta fetches, eventlist replay) runs under a shared read
//! lock, so many sessions retrieve concurrently, and only the cheap overlay
//! and append operations take the exclusive write lock.
//!
//! Sessions track the pool handles they create through a [`PoolSession`];
//! dropping the session releases its overlays and runs the lazy cleaner, so
//! a disconnecting client can never leak pool bits.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use deltagraph::DgResult;
use graphpool::GraphId;
use tgraph::{AttrOptions, Snapshot, Timestamp};

use crate::manager::GraphManager;
use crate::response_cache::WireFormat;

/// A cloneable, thread-safe handle to one [`GraphManager`].
#[derive(Clone)]
pub struct SharedGraphManager {
    inner: Arc<RwLock<GraphManager>>,
}

// GraphManager must stay usable across threads for the server; assert it here
// so a future non-Send field fails at this line rather than at a use site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphManager>();
};

impl SharedGraphManager {
    /// Wraps a manager for shared use.
    pub fn new(manager: GraphManager) -> Self {
        SharedGraphManager {
            inner: Arc::new(RwLock::new(manager)),
        }
    }

    /// Whether two handles wrap the *same* underlying manager. Epoch values
    /// are only comparable between handles for which this holds — a rolled
    /// tail shard is a different manager whose fresh epoch can coincide
    /// with the old tail's.
    pub fn same_manager(&self, other: &SharedGraphManager) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Pre-framed reply lookup (see
    /// [`GraphManager::response_cache_get`]) under a brief write lock.
    pub fn response_cache_get(
        &self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<Arc<[u8]>> {
        self.write().response_cache_get(t, opts, format)
    }

    /// Caches a freshly framed reply under the append-epoch guard (see
    /// [`GraphManager::response_cache_put`]).
    pub fn response_cache_put(
        &self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
        bytes: Arc<[u8]>,
        computed_at_epoch: u64,
    ) -> bool {
        self.write()
            .response_cache_put(t, opts, format, bytes, computed_at_epoch)
    }

    /// Shared read access. Snapshot computation through
    /// [`GraphManager::index`] needs only this.
    pub fn read(&self) -> RwLockReadGuard<'_, GraphManager> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive write access, for overlays, appends, and releases.
    pub fn write(&self) -> RwLockWriteGuard<'_, GraphManager> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read-only probe of the shared snapshot cache: the cached snapshot for
    /// `(t, opts)` if present, without touching overlay references. `None`
    /// on a miss — the caller computes the snapshot itself (and decides
    /// whether that result is worth caching). Takes the write lock briefly
    /// (LRU and hit counters move on a hit).
    pub fn peek_cached(&self, t: Timestamp, opts: &AttrOptions) -> Option<Arc<Snapshot>> {
        self.write().cache_peek(t, opts)
    }

    /// Starts a session whose overlays are released when it drops.
    pub fn session(&self) -> PoolSession {
        PoolSession {
            shared: self.clone(),
            handles: Vec::new(),
        }
    }
}

/// One point retrieval served through [`PoolSession::retrieve_cached`].
#[derive(Clone, Debug)]
pub struct CachedPoint {
    /// The materialized snapshot (shared with the cache on a hit).
    pub snapshot: Arc<Snapshot>,
    /// Whether the snapshot came from the shared cache.
    pub cache_hit: bool,
    /// The append epoch the snapshot is consistent with, read under the
    /// same lock that produced it. Callers caching anything derived from
    /// the snapshot (e.g. rendered response bytes) pass this to the insert
    /// path so a result that raced an `APPEND` is never cached.
    pub epoch: u64,
}

/// Tracks the GraphPool handles one session created, releasing them (and
/// running the cleaner) when dropped — the server's per-connection guard.
pub struct PoolSession {
    shared: SharedGraphManager,
    handles: Vec<GraphId>,
}

impl PoolSession {
    /// Overlays an already-computed snapshot, recording the handle against
    /// this session. Takes the write lock briefly.
    pub fn overlay(&mut self, snapshot: &Snapshot, t: Timestamp) -> GraphId {
        let id = self.shared.write().overlay_snapshot(snapshot, t);
        self.handles.push(id);
        id
    }

    /// Point retrieval through the shared snapshot cache: returns the
    /// snapshot as of `t`, whether it was served from the cache, and the
    /// append epoch it is consistent with (see [`CachedPoint`]).
    ///
    /// On a hit the session shares the cached pool overlay (its reference
    /// count goes up; no new overlay is built). On a miss the snapshot is
    /// computed under the shared read lock — concurrent sessions retrieve in
    /// parallel — then overlaid and cached under the write lock, with a
    /// re-probe in between so two sessions racing on the same `(t, opts)`
    /// still end up sharing one overlay. Either way the handle is recorded
    /// against this session and released (one reference) when the session
    /// drops. With the cache disabled (capacity 0) both probes miss without
    /// counting and the insert declines, leaving a plain session-owned
    /// overlay.
    pub fn retrieve_cached(&mut self, t: Timestamp, opts: &AttrOptions) -> DgResult<CachedPoint> {
        // Fast path: a hit is a refcount bump under a brief write lock. The
        // epoch is read under the same guard — a cached entry is always
        // consistent with the epoch observed while holding the lock,
        // because appends (which bump it) also invalidate under it.
        {
            let mut gm = self.shared.write();
            if let Some((snap, id)) = gm.cache_acquire(t, opts, true) {
                let epoch = gm.append_epoch();
                drop(gm);
                self.handles.push(id);
                return Ok(CachedPoint {
                    snapshot: snap,
                    cache_hit: true,
                    epoch,
                });
            }
        }
        // Miss: the expensive DeltaGraph traversal runs under the read
        // lock. The append epoch is read under the same guard, so it is
        // exactly the history the snapshot saw.
        let (snapshot, epoch) = {
            let gm = self.shared.read();
            let snapshot = Arc::new(gm.index().get_snapshot(t, opts)?);
            (snapshot, gm.append_epoch())
        };
        let mut gm = self.shared.write();
        // Double-check: another session may have cached (t, opts) while we
        // computed. Counted as neither hit nor miss — this lookup already
        // recorded its miss above.
        if let Some((snap, id)) = gm.cache_acquire(t, opts, false) {
            let epoch = gm.append_epoch();
            drop(gm);
            self.handles.push(id);
            return Ok(CachedPoint {
                snapshot: snap,
                cache_hit: true,
                epoch,
            });
        }
        // If an append landed between our compute and this insert, the
        // manager declines to cache the (possibly stale) snapshot and
        // hands back a plain session-owned overlay.
        let id = gm.cache_insert_overlay(&snapshot, t, opts, epoch);
        drop(gm);
        self.handles.push(id);
        Ok(CachedPoint {
            snapshot,
            cache_hit: false,
            epoch,
        })
    }

    /// Cache-only point acquisition: on a hit the session shares the cached
    /// overlay (its reference count goes up) and the materialized snapshot
    /// is returned; on a miss nothing is computed or inserted — the caller
    /// retrieves however it prefers (e.g. the Steiner multipoint planner).
    /// Hits and misses both count toward the cache statistics.
    ///
    /// This is the probe half of [`PoolSession::retrieve_cached`], used by
    /// queries that want overlay sharing for hot points without letting a
    /// wide cold scan (multipoint over many distinct times) evict the hot
    /// set by force-inserting every point.
    pub fn acquire_cached(&mut self, t: Timestamp, opts: &AttrOptions) -> Option<Arc<Snapshot>> {
        let (snapshot, id) = self.shared.write().cache_acquire(t, opts, true)?;
        self.handles.push(id);
        Some(snapshot)
    }

    /// Handles created by this session, in creation order.
    pub fn handles(&self) -> &[GraphId] {
        &self.handles
    }

    /// Releases every handle this session created, runs the cleaner, and
    /// returns how many were released. Called automatically on drop.
    pub fn release_now(&mut self) -> usize {
        if self.handles.is_empty() {
            return 0;
        }
        let released = self.handles.len();
        let mut gm = self.shared.write();
        for id in self.handles.drain(..) {
            gm.release(id);
        }
        gm.cleanup();
        released
    }

    /// The shared manager this session runs against.
    pub fn shared(&self) -> &SharedGraphManager {
        &self.shared
    }
}

impl Drop for PoolSession {
    fn drop(&mut self) {
        self.release_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphManagerConfig;
    use datagen::toy_trace;
    use std::thread;
    use tgraph::Event;

    fn shared() -> SharedGraphManager {
        let gm = GraphManager::build_in_memory(&toy_trace().events, GraphManagerConfig::default())
            .unwrap();
        SharedGraphManager::new(gm)
    }

    #[test]
    fn concurrent_readers_agree_with_direct_retrieval() {
        let sm = shared();
        let ds = toy_trace();
        let workers: Vec<_> = [3i64, 6, 9, 10]
            .into_iter()
            .map(|t| {
                let sm = sm.clone();
                let expected = ds.snapshot_at(Timestamp(t));
                thread::spawn(move || {
                    for _ in 0..20 {
                        let snap = sm
                            .read()
                            .index()
                            .get_snapshot(Timestamp(t), &AttrOptions::all())
                            .unwrap();
                        assert_eq!(snap, expected);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn session_overlays_release_on_drop() {
        let sm = shared();
        {
            let mut session = sm.session();
            let snap = sm
                .read()
                .index()
                .get_snapshot(Timestamp(6), &AttrOptions::all())
                .unwrap();
            let id = session.overlay(&snap, Timestamp(6));
            assert_eq!(session.handles(), &[id]);
            assert_eq!(sm.read().pool().active_overlay_count(), 1);
        }
        assert_eq!(sm.read().pool().active_overlay_count(), 0);
    }

    fn shared_cached(capacity: usize) -> SharedGraphManager {
        let gm = GraphManager::build_in_memory(
            &toy_trace().events,
            GraphManagerConfig::default().with_snapshot_cache(capacity),
        )
        .unwrap();
        SharedGraphManager::new(gm)
    }

    #[test]
    fn cached_retrievals_share_one_overlay_across_sessions() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        let mut s1 = sm.session();
        let mut s2 = sm.session();
        let p1 = s1.retrieve_cached(Timestamp(6), &opts).unwrap();
        let p2 = s2.retrieve_cached(Timestamp(6), &opts).unwrap();
        assert!(!p1.cache_hit, "first retrieval must miss");
        assert!(p2.cache_hit, "second retrieval must hit");
        assert_eq!(p1.epoch, p2.epoch);
        assert_eq!(*p1.snapshot, *p2.snapshot);
        // exactly one overlay, shared: cache ref + one per session
        assert_eq!(sm.read().pool().active_overlay_count(), 1);
        let id = s1.handles()[0];
        assert_eq!(s2.handles(), &[id]);
        assert_eq!(sm.read().pool().refcount(id), Some(3));
        drop(s1);
        assert_eq!(sm.read().pool().refcount(id), Some(2));
        drop(s2);
        // both sessions gone: the cache keeps the overlay warm
        assert_eq!(sm.read().pool().refcount(id), Some(1));
        assert_eq!(sm.read().pool().active_overlay_count(), 1);
        let stats = sm.read().cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn append_invalidates_cached_snapshots_at_or_after_the_event() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        let mut session = sm.session();
        session.retrieve_cached(Timestamp(6), &opts).unwrap();
        session.retrieve_cached(Timestamp(25), &opts).unwrap();
        assert_eq!(sm.read().cache_len(), 2);
        sm.write().append_event(Event::add_node(20, 777)).unwrap();
        // t=25 (>= 20) invalidated, t=6 (< 20) still cached
        assert_eq!(sm.read().cache_len(), 1);
        let hit = session.retrieve_cached(Timestamp(6), &opts).unwrap();
        assert!(hit.cache_hit);
        // a fresh retrieval at 25 sees the appended node, under the bumped
        // append epoch
        let point = session.retrieve_cached(Timestamp(25), &opts).unwrap();
        assert!(!point.cache_hit);
        assert_eq!(point.epoch, 1);
        assert!(point.snapshot.has_node(tgraph::NodeId(777)));
        assert_eq!(sm.read().cache_stats().invalidations, 1);
    }

    #[test]
    fn cached_overlays_are_immune_to_appends_even_with_dependent_overlays_on() {
        // Cached overlays must be self-contained: a dependent overlay's view
        // follows its dependency (the current graph), so caching one would
        // let an append silently corrupt entries *before* the append point —
        // exactly the entries invalidation keeps.
        let gm = GraphManager::build_in_memory(
            &toy_trace().events,
            GraphManagerConfig {
                dependent_overlays: true,
                ..GraphManagerConfig::default().with_snapshot_cache(8)
            },
        )
        .unwrap();
        let sm = SharedGraphManager::new(gm);
        let mut session = sm.session();
        let opts = AttrOptions::all();
        let snap = session
            .retrieve_cached(Timestamp(10), &opts)
            .unwrap()
            .snapshot;
        let id = session.handles()[0];
        sm.write().append_event(Event::add_node(20, 777)).unwrap();
        // The t=10 entry survives the append (10 < 20) and its pool view
        // must still equal the snapshot it was built from — no phantom 777.
        {
            let gm = sm.read();
            assert_eq!(gm.cache_len(), 1);
            assert!(!gm.graph(id).has_node(tgraph::NodeId(777)));
            assert_eq!(gm.graph(id).to_snapshot(), *snap);
        }
        // And a cache hit hands other sessions the same clean view.
        let mut other = sm.session();
        let p2 = other.retrieve_cached(Timestamp(10), &opts).unwrap();
        assert!(p2.cache_hit);
        assert!(!p2.snapshot.has_node(tgraph::NodeId(777)));
    }

    #[test]
    fn snapshot_that_raced_an_append_is_not_cached() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        // Replay retrieve_cached's miss path by hand with an append landing
        // between the compute and the insert: the pre-append snapshot must
        // not enter the cache (it would serve stale reads at t>=20 forever).
        let (stale, epoch) = {
            let gm = sm.read();
            let snap = Arc::new(gm.index().get_snapshot(Timestamp(25), &opts).unwrap());
            (snap, gm.append_epoch())
        };
        sm.write().append_event(Event::add_node(20, 777)).unwrap();
        let id = sm
            .write()
            .cache_insert_overlay(&stale, Timestamp(25), &opts, epoch);
        assert_eq!(
            sm.read().cache_len(),
            0,
            "stale snapshot must not be cached"
        );
        // The caller still got a plain session-owned overlay (refs = 1).
        assert_eq!(sm.read().pool().refcount(id), Some(1));
        // A fresh retrieval computes post-append state and caches that.
        let mut session = sm.session();
        let point = session.retrieve_cached(Timestamp(25), &opts).unwrap();
        assert!(!point.cache_hit);
        assert!(point.snapshot.has_node(tgraph::NodeId(777)));
        assert_eq!(sm.read().cache_len(), 1);
    }

    #[test]
    fn disabled_cache_keeps_per_session_overlays() {
        let sm = shared_cached(0);
        let opts = AttrOptions::all();
        let mut s1 = sm.session();
        let mut s2 = sm.session();
        let h1 = s1.retrieve_cached(Timestamp(6), &opts).unwrap().cache_hit;
        let h2 = s2.retrieve_cached(Timestamp(6), &opts).unwrap().cache_hit;
        assert!(!h1 && !h2);
        // no sharing: one overlay per session, gone when the sessions drop
        assert_eq!(sm.read().pool().active_overlay_count(), 2);
        drop(s1);
        drop(s2);
        assert_eq!(sm.read().pool().active_overlay_count(), 0);
        assert_eq!(sm.read().cache_stats(), crate::CacheStats::default());
    }

    #[test]
    fn repeated_retrievals_in_one_session_release_cleanly() {
        let sm = shared_cached(4);
        let opts = AttrOptions::all();
        let mut session = sm.session();
        for _ in 0..3 {
            session.retrieve_cached(Timestamp(6), &opts).unwrap();
        }
        let id = session.handles()[0];
        assert_eq!(session.handles(), &[id, id, id]);
        assert_eq!(sm.read().pool().refcount(id), Some(4)); // cache + 3 holds
        assert_eq!(session.release_now(), 3);
        assert_eq!(sm.read().pool().refcount(id), Some(1));
    }

    #[test]
    fn appends_are_visible_to_subsequent_reads() {
        let sm = shared();
        sm.write().append_event(Event::add_node(20, 777)).unwrap();
        let snap = sm
            .read()
            .index()
            .get_snapshot(Timestamp(20), &AttrOptions::all())
            .unwrap();
        assert!(snap.has_node(tgraph::NodeId(777)));
    }
}
