//! Concurrent access to one [`GraphManager`]: the read/write split.
//!
//! A [`GraphManager`] is single-threaded by design — retrieval overlays
//! snapshots onto the GraphPool, which mutates shared bitmaps. The snapshot
//! *computation* itself, however, only reads the DeltaGraph index, and only
//! to plan: a [`deltagraph::Retrieval`] owns everything its execution needs.
//! The [`SharedGraphManager`] exploits that split: a point query plans under
//! the shared read lock, fetches, decodes and applies with no lock held, and
//! takes the exclusive write lock again only to overlay a point the cache
//! admits (one asked for twice; see [`crate::cache`]). Readers of other
//! points never wait behind that work, and neither do appends.
//!
//! [`SharedGraphManager::read`] and [`SharedGraphManager::write`] add the
//! time they wait to acquire the lock to per-shard totals
//! ([`SharedGraphManager::lock_wait_us`]).
//!
//! Sessions track the cached overlays they hold references to through a
//! [`PoolSession`]; dropping the session releases them and runs the lazy
//! cleaner, so a disconnecting client can never leak pool bits.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{
    Arc, LockResult, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
    TryLockResult,
};
use std::time::Instant;

use deltagraph::DgResult;
use graphpool::GraphId;
use tgraph::{AttrOptions, ColumnGraph, Snapshot, Timestamp};

use crate::cache::WireFormat;
use crate::manager::GraphManager;

/// A cloneable, thread-safe handle to one [`GraphManager`].
#[derive(Clone)]
pub struct SharedGraphManager {
    inner: Arc<Guarded>,
}

/// The manager's lock, and the nanoseconds callers have waited for it.
struct Guarded {
    lock: RwLock<GraphManager>,
    read_wait_ns: AtomicU64,
    write_wait_ns: AtomicU64,
}

/// Takes a lock, adding the time spent blocked to `wait_ns`. An
/// uncontended take reads no clock.
fn timed<G>(
    wait_ns: &AtomicU64,
    try_lock: impl FnOnce() -> TryLockResult<G>,
    lock: impl FnOnce() -> LockResult<G>,
) -> G {
    match try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let started = Instant::now();
            let guard = lock().unwrap_or_else(PoisonError::into_inner);
            let waited = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            wait_ns.fetch_add(waited, Relaxed);
            guard
        }
    }
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
            inner: Arc::new(Guarded {
                lock: RwLock::new(manager),
                read_wait_ns: AtomicU64::new(0),
                write_wait_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Whether two handles wrap the *same* underlying manager. Epoch values
    /// are only comparable between handles for which this holds — a rolled
    /// tail shard is a different manager whose fresh epoch can coincide
    /// with the old tail's.
    pub fn same_manager(&self, other: &SharedGraphManager) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The pre-framed reply for `(t, opts, format)` in the point cache,
    /// counting a byte hit or miss, under the read lock.
    pub fn response_cache_get(
        &self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<Arc<[u8]>> {
        self.read().cache.bytes(t, opts, format)
    }

    /// Caches a freshly framed reply in the entry for `(t, opts)`.
    /// `computed_at_epoch` is the [`GraphManager::append_epoch`] the
    /// underlying snapshot was acquired under: if an append has landed
    /// since, the bytes may predate events at or before `t`, so they are
    /// discarded rather than cached — a racing insert must never resurrect
    /// an invalidated time range. Bytes for a point with no entry are
    /// declined too. Returns whether the reply was cached.
    pub fn response_cache_put(
        &self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
        bytes: Arc<[u8]>,
        computed_at_epoch: u64,
    ) -> bool {
        let mut gm = self.write();
        gm.append_epoch() == computed_at_epoch && gm.cache.put_bytes(t, opts, format, bytes)
    }

    /// Shared read access: planning a retrieval through
    /// [`GraphManager::index`], cache probes that take no reference, and
    /// materializing an overlay. Time spent blocked counts toward
    /// [`SharedGraphManager::lock_wait_us`].
    pub fn read(&self) -> RwLockReadGuard<'_, GraphManager> {
        let lock = &self.inner.lock;
        timed(&self.inner.read_wait_ns, || lock.try_read(), || lock.read())
    }

    /// Exclusive write access, for overlays, appends, and releases. Time
    /// spent blocked counts toward [`SharedGraphManager::lock_wait_us`].
    pub fn write(&self) -> RwLockWriteGuard<'_, GraphManager> {
        let lock = &self.inner.lock;
        timed(
            &self.inner.write_wait_ns,
            || lock.try_write(),
            || lock.write(),
        )
    }

    /// Microseconds callers have spent blocked acquiring this manager's
    /// lock so far, as `(read, write)`. Both only grow.
    pub fn lock_wait_us(&self) -> (u64, u64) {
        (
            self.inner.read_wait_ns.load(Relaxed) / 1000,
            self.inner.write_wait_ns.load(Relaxed) / 1000,
        )
    }

    /// Read-only probe of the point cache: the snapshot for
    /// `(t, opts)`, materialized from its cached overlay under the read
    /// lock, without touching overlay references. `None` on a miss — the
    /// caller computes the snapshot itself (and decides whether that result
    /// is worth caching). Hits and misses both count.
    pub fn peek_cached(&self, t: Timestamp, opts: &AttrOptions) -> Option<Arc<Snapshot>> {
        let gm = self.read();
        let overlay = gm.cache.lookup(t, opts, true)?;
        Some(Arc::new(gm.graph(overlay).to_snapshot()))
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
    /// The cached pool overlay the session now holds one reference to: the
    /// one found on a hit, or the one an admitted miss built. `None` when
    /// the miss was not admitted — the point's first recent reference, a
    /// retrieval that raced an append, or a disabled cache — so nothing was
    /// overlaid or cached and the session holds nothing for the point.
    pub overlay: Option<GraphId>,
    /// The graph this retrieval built, owned by the caller alone — the
    /// cache keeps only the overlay. `None` on a hit, which builds nothing;
    /// see [`CachedPoint::into_snapshot`].
    pub built: Option<Built>,
    /// Whether the overlay came from the shared cache.
    pub cache_hit: bool,
    /// The append epoch the point is consistent with, read under the same
    /// lock that planned or found it. Callers caching anything derived from
    /// the point (e.g. rendered response bytes) pass this to the insert
    /// path so a result that raced an `APPEND` is never cached.
    pub epoch: u64,
}

/// The graph a point retrieval built.
#[derive(Clone, Debug)]
pub enum Built {
    /// A miss the cache did not admit: the sorted columns the retrieval
    /// produced. A reply renders from them with no sort, and no
    /// [`Snapshot`] is built.
    Columns(ColumnGraph),
    /// An admitted miss: the snapshot it overlaid.
    Snapshot(Arc<Snapshot>),
}

impl CachedPoint {
    /// The point as a snapshot: the one this retrieval built (from its
    /// columns, if it built only those) or, on a hit, one materialized from
    /// the overlay on `shared`, the shard that served the point.
    pub fn into_snapshot(self, shared: &SharedGraphManager) -> Arc<Snapshot> {
        match self.built {
            Some(Built::Columns(columns)) => Arc::new(columns.into_snapshot()),
            Some(Built::Snapshot(snapshot)) => snapshot,
            // The session holds a reference to the overlay, so it cannot be
            // released and cleaned up underneath the read.
            None => {
                let id = self.overlay.expect("a point that built nothing is a hit");
                Arc::new(shared.read().graph(id).to_snapshot())
            }
        }
    }
}

/// Tracks the cached overlays one session holds references to, releasing
/// them (and running the cleaner) when dropped — the server's
/// per-connection guard.
pub struct PoolSession {
    shared: SharedGraphManager,
    /// One entry per overlay held, with the number of references held to
    /// it, in first-acquisition order: a client that hits the same point
    /// forever holds one entry, not one per hit.
    handles: Vec<(GraphId, usize)>,
}

impl PoolSession {
    /// Point retrieval through the point cache: returns the
    /// cached overlay the session now holds (if any), the graph if this
    /// call built one, whether the overlay was served from the cache, and
    /// the append epoch the point is consistent with (see [`CachedPoint`]).
    ///
    /// On a hit the session shares the cached pool overlay (its reference
    /// count goes up; nothing is built). On a miss the retrieval is planned
    /// under the shared read lock and executed with no lock held —
    /// concurrent sessions retrieve in parallel and appends do not wait on
    /// them. What happens next is the doorkeeper's call, made under the
    /// probe's write lock (see [`crate::cache`]):
    /// * a first reference is answered from the built columns alone — no
    ///   snapshot, no overlay, no cache entry, no second write lock;
    /// * a repeat reference is admitted: overlaid and cached under the
    ///   write lock, with a re-probe first so two sessions racing on the
    ///   same `(t, opts)` still end up sharing one overlay.
    ///
    /// Every overlay the session takes a reference to is recorded and
    /// released (one reference) when the session drops. With the cache
    /// disabled (capacity 0) both probes miss without counting and nothing
    /// is ever admitted.
    pub fn retrieve_cached(&mut self, t: Timestamp, opts: &AttrOptions) -> DgResult<CachedPoint> {
        // Fast path: a hit is a refcount bump under a brief write lock. The
        // epoch is read under the same guard — a cached entry is always
        // consistent with the epoch observed while holding the lock,
        // because appends (which bump it) also invalidate under it.
        let admitted = {
            let mut gm = self.shared.write();
            if let Some(id) = gm.cache_acquire(t, opts, true) {
                let epoch = gm.append_epoch();
                drop(gm);
                return Ok(self.hold(Some(id), None, true, epoch));
            }
            gm.cache.admit(t, opts)
        };
        // Miss: plan under the read lock, reading the append epoch under
        // the same guard so it names exactly the history the plan saw. The
        // plan owns everything its execution needs and payload ids are
        // write-once, so fetch, decode and apply run with no lock held.
        let (retrieval, epoch) = {
            let gm = self.shared.read();
            (gm.index().plan_retrieval(t, opts)?, gm.append_epoch())
        };
        if !admitted {
            let columns = Built::Columns(retrieval.execute()?);
            return Ok(self.hold(None, Some(columns), false, epoch));
        }
        let snapshot = Arc::new(retrieval.execute()?);
        let mut gm = self.shared.write();
        // Double-check: another session may have cached (t, opts) while we
        // computed. Counted as neither hit nor miss — this lookup already
        // recorded its miss above.
        let (overlay, cache_hit) = match gm.cache_acquire(t, opts, false) {
            Some(id) => (Some(id), true),
            // If an append landed between our plan and this insert, the
            // manager declines to overlay or cache the (possibly stale)
            // snapshot; it still answers this request.
            None => (gm.cache_insert_overlay(&snapshot, t, opts, epoch), false),
        };
        drop(gm);
        Ok(self.hold(overlay, Some(Built::Snapshot(snapshot)), cache_hit, epoch))
    }

    /// Records `overlay` against this session and describes the point.
    fn hold(
        &mut self,
        overlay: Option<GraphId>,
        built: Option<Built>,
        cache_hit: bool,
        epoch: u64,
    ) -> CachedPoint {
        if let Some(id) = overlay {
            self.note_reference(id);
        }
        CachedPoint {
            overlay,
            built,
            cache_hit,
            epoch,
        }
    }

    /// Cache-only point acquisition: on a hit the session shares the cached
    /// overlay (its reference count goes up) and its id is returned; on a
    /// miss nothing is computed or inserted — the caller retrieves however
    /// it prefers (e.g. the Steiner multipoint planner). Hits and misses
    /// both count toward the cache statistics.
    ///
    /// This is the probe half of [`PoolSession::retrieve_cached`], used by
    /// queries that want overlay sharing for hot points without letting a
    /// wide cold scan (multipoint over many distinct times) evict the hot
    /// set by force-inserting every point.
    pub fn acquire_cached(&mut self, t: Timestamp, opts: &AttrOptions) -> Option<GraphId> {
        let id = self.shared.write().cache_acquire(t, opts, true)?;
        self.note_reference(id);
        Some(id)
    }

    /// The reactor's fast path: the framed reply for `(t, opts, format)`
    /// when the point cache holds it, with a reference to the cached
    /// overlay taken — the bookkeeping of a [`PoolSession::retrieve_cached`]
    /// hit — all under one write guard. `None` when the entry or its reply
    /// is missing; then nothing is counted or held, and the request takes
    /// the full path, which renders the reply and fills the slot.
    pub fn acquire_hot(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<Arc<[u8]>> {
        let (id, bytes) = self.shared.write().cache_acquire_hot(t, opts, format)?;
        self.note_reference(id);
        Some(bytes)
    }

    /// A single-flight follower's reference to a point another session
    /// just rendered: shares the cached overlay when there is one, and
    /// otherwise records the reference with the doorkeeper — a coalesced
    /// join counts toward admission exactly like a repeat miss.
    pub fn join_cached(&mut self, t: Timestamp, opts: &AttrOptions) -> Option<GraphId> {
        let mut gm = self.shared.write();
        let id = gm.cache_acquire(t, opts, true);
        if id.is_none() {
            gm.cache.admit(t, opts);
        }
        drop(gm);
        if let Some(id) = id {
            self.note_reference(id);
        }
        id
    }

    /// Counts one more reference held to overlay `id`.
    fn note_reference(&mut self, id: GraphId) {
        match self.handles.iter_mut().find(|(held, _)| *held == id) {
            Some((_, refs)) => *refs += 1,
            None => self.handles.push((id, 1)),
        }
    }

    /// Cached overlays this session holds references to, in first
    /// acquisition order: one entry per overlay, with how many references
    /// the session holds to it.
    pub fn handles(&self) -> &[(GraphId, usize)] {
        &self.handles
    }

    /// Releases every reference this session holds, runs the cleaner, and
    /// returns how many were released. Called automatically on drop.
    pub fn release_now(&mut self) -> usize {
        if self.handles.is_empty() {
            return 0;
        }
        let mut released = 0;
        let mut gm = self.shared.write();
        for (id, refs) in self.handles.drain(..) {
            for _ in 0..refs {
                gm.release(id);
            }
            released += refs;
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

    fn shared_cached(capacity: usize) -> SharedGraphManager {
        let gm = GraphManager::build_in_memory(
            &toy_trace().events,
            GraphManagerConfig::default().with_snapshot_cache(capacity),
        )
        .unwrap();
        SharedGraphManager::new(gm)
    }

    #[test]
    fn session_overlays_release_on_drop() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        let id = {
            let mut session = sm.session();
            session.retrieve_cached(Timestamp(6), &opts).unwrap();
            let id = session
                .retrieve_cached(Timestamp(6), &opts)
                .unwrap()
                .overlay
                .expect("a second reference is admitted");
            assert_eq!(session.handles(), &[(id, 1)]);
            assert_eq!(sm.read().pool().refcount(id), Some(2));
            id
        };
        // The session's reference went with it; the cache keeps its own.
        assert_eq!(sm.read().pool().refcount(id), Some(1));
    }

    #[test]
    fn cached_retrievals_share_one_overlay_across_sessions() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        let mut s1 = sm.session();
        let mut s2 = sm.session();
        let first = s1.retrieve_cached(Timestamp(6), &opts).unwrap();
        let p2 = s2.retrieve_cached(Timestamp(6), &opts).unwrap();
        let p1 = s1.retrieve_cached(Timestamp(6), &opts).unwrap();
        assert!(
            !first.cache_hit && first.overlay.is_none(),
            "first reference"
        );
        assert!(!p2.cache_hit, "the second reference misses and is admitted");
        assert!(p1.cache_hit, "the third hits");
        assert_eq!(p1.epoch, p2.epoch);
        assert_eq!(p1.clone().into_snapshot(&sm), first.into_snapshot(&sm));
        assert_eq!(p1.clone().into_snapshot(&sm), p2.clone().into_snapshot(&sm));
        // exactly one overlay, shared: cache ref + one per session
        assert_eq!(sm.read().pool().active_overlay_count(), 1);
        let id = s1.handles()[0].0;
        assert_eq!(s1.handles(), &[(id, 1)]);
        assert_eq!(s2.handles(), &[(id, 1)]);
        assert_eq!(sm.read().pool().refcount(id), Some(3));
        drop(s1);
        assert_eq!(sm.read().pool().refcount(id), Some(2));
        drop(s2);
        // both sessions gone: the cache keeps the overlay warm
        assert_eq!(sm.read().pool().refcount(id), Some(1));
        assert_eq!(sm.read().pool().active_overlay_count(), 1);
        let stats = sm.read().cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 2, 1));
    }

    #[test]
    fn a_coalesced_join_counts_as_a_reference() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        let mut follower = sm.session();
        // Nothing cached: the join takes no reference, but is remembered.
        assert_eq!(follower.join_cached(Timestamp(6), &opts), None);
        assert!(follower.handles().is_empty());
        // So the next retrieval is a repeat reference and is admitted.
        let mut session = sm.session();
        let point = session.retrieve_cached(Timestamp(6), &opts).unwrap();
        let id = point.overlay.expect("admitted after the join");
        assert_eq!(sm.read().cache_len(), 1);
        // A join on a cached point shares its overlay.
        assert_eq!(follower.join_cached(Timestamp(6), &opts), Some(id));
        assert_eq!(sm.read().pool().refcount(id), Some(3));
    }

    #[test]
    fn append_invalidates_cached_snapshots_at_or_after_the_event() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        let mut session = sm.session();
        for t in [6, 6, 25, 25] {
            session.retrieve_cached(Timestamp(t), &opts).unwrap();
        }
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
        assert!(point.into_snapshot(&sm).has_node(tgraph::NodeId(777)));
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
        session.retrieve_cached(Timestamp(10), &opts).unwrap();
        let snap = session
            .retrieve_cached(Timestamp(10), &opts)
            .unwrap()
            .into_snapshot(&sm);
        let id = session.handles()[0].0;
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
        assert!(!p2.into_snapshot(&sm).has_node(tgraph::NodeId(777)));
    }

    #[test]
    fn snapshot_that_raced_an_append_is_not_cached() {
        let sm = shared_cached(8);
        let opts = AttrOptions::all();
        // Replay retrieve_cached's admitted miss path by hand with an append
        // landing between the compute and the insert: the pre-append
        // snapshot must not enter the cache (it would serve stale reads at
        // t>=20 forever).
        let (stale, epoch) = {
            let gm = sm.read();
            let snap = Arc::new(gm.index().get_snapshot(Timestamp(25), &opts).unwrap());
            (snap, gm.append_epoch())
        };
        sm.write().append_event(Event::add_node(20, 777)).unwrap();
        let declined = sm
            .write()
            .cache_insert_overlay(&stale, Timestamp(25), &opts, epoch);
        assert_eq!(declined, None, "stale snapshot must not be overlaid");
        assert_eq!(
            sm.read().cache_len(),
            0,
            "stale snapshot must not be cached"
        );
        assert_eq!(sm.read().pool().active_overlay_count(), 0);
        // A fresh retrieval computes post-append state; its repeat caches
        // that.
        let mut session = sm.session();
        let point = session.retrieve_cached(Timestamp(25), &opts).unwrap();
        assert!(!point.cache_hit);
        assert!(point.into_snapshot(&sm).has_node(tgraph::NodeId(777)));
        session.retrieve_cached(Timestamp(25), &opts).unwrap();
        assert_eq!(sm.read().cache_len(), 1);
    }

    #[test]
    fn a_cold_retrieval_leaves_its_snapshot_to_the_caller_alone() {
        let sm = shared_cached(8);
        let mut session = sm.session();
        let opts = AttrOptions::all();
        // First reference: nothing overlaid, cached or held.
        let point = session.retrieve_cached(Timestamp(6), &opts).unwrap();
        assert!(!point.cache_hit && point.overlay.is_none());
        // It keeps the sorted columns its retrieval built, and no snapshot.
        let Some(Built::Columns(columns)) = point.built else {
            panic!("a first reference keeps its columns");
        };
        let first = columns.into_snapshot();
        assert_eq!(sm.read().cache_len(), 0);
        assert_eq!(sm.read().pool().active_overlay_count(), 0);
        assert!(session.handles().is_empty());
        // Second reference: admitted, and the cache keeps the overlay only —
        // no second reference pins a copy.
        let point = session.retrieve_cached(Timestamp(6), &opts).unwrap();
        assert!(!point.cache_hit);
        let Some(Built::Snapshot(snapshot)) = point.built else {
            panic!("an admitted miss builds its snapshot");
        };
        assert_eq!(Arc::strong_count(&snapshot), 1);
        assert_eq!(*snapshot, first);
        assert_eq!(sm.read().cache_len(), 1);
        let overlay = point.overlay.expect("admitted");
        assert_eq!(sm.read().graph(overlay).to_snapshot(), *snapshot);
    }

    #[test]
    fn a_disabled_cache_overlays_nothing() {
        let sm = shared_cached(0);
        let opts = AttrOptions::all();
        let mut sessions = [sm.session(), sm.session()];
        for i in [0, 1, 0, 1] {
            let point = sessions[i].retrieve_cached(Timestamp(6), &opts).unwrap();
            assert!(!point.cache_hit && point.overlay.is_none());
        }
        // No sharing and no private overlays: a reference is never repeated.
        assert_eq!(sm.read().pool().active_overlay_count(), 0);
        assert_eq!(sessions.map(|mut s| s.release_now()), [0, 0]);
        assert_eq!(sm.read().cache_stats(), crate::CacheStats::default());
    }

    #[test]
    fn repeated_retrievals_in_one_session_release_cleanly() {
        let sm = shared_cached(4);
        let opts = AttrOptions::all();
        let mut session = sm.session();
        // The first reference holds nothing; the other three share one.
        for _ in 0..4 {
            session.retrieve_cached(Timestamp(6), &opts).unwrap();
        }
        let id = session.handles()[0].0;
        assert_eq!(session.handles(), &[(id, 3)]);
        assert_eq!(sm.read().pool().refcount(id), Some(4)); // cache + 3 holds
        assert_eq!(session.release_now(), 3);
        assert_eq!(sm.read().pool().refcount(id), Some(1));
    }

    #[test]
    fn a_session_keeps_one_counted_entry_per_overlay() {
        let sm = shared_cached(4);
        let opts = AttrOptions::all();
        let mut session = sm.session();
        // The first reference holds nothing; every later one is a hit.
        for _ in 0..=10_000 {
            session.retrieve_cached(Timestamp(6), &opts).unwrap();
        }
        let id = session.handles()[0].0;
        assert_eq!(session.handles(), &[(id, 10_000)]);
        assert_eq!(sm.read().pool().refcount(id), Some(10_001));
        assert_eq!(session.release_now(), 10_000);
        assert!(session.handles().is_empty());
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
