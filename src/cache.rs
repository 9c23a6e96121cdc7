//! The shared snapshot cache: hot points become pool lookups.
//!
//! The paper's central claim is that snapshot retrieval should cost little
//! more than a GraphPool lookup once the DeltaGraph has been traversed — yet
//! without a cache every `GET GRAPH AT t` re-traverses the index, and two
//! sessions asking for the same instant build two separate pool overlays,
//! defeating the pool's sharing design (Section 6). The [`SnapshotCache`]
//! closes both gaps: it is an LRU map from `(t, `[`AttrOptions`]`)` to one
//! reference-counted pool overlay, shared by every session that retrieves
//! that point — the GraphPool's overlay sharing kicks in *across*
//! connections, not just within one.
//!
//! An entry is the overlay and nothing else: the pool is the retrieved
//! graph's resident form (Section 6), so the cache pins no private copy of
//! the snapshot. A caller that must render a hit materializes it from the
//! overlay (`GraphView::to_snapshot`), and dropping an entry frees nothing
//! but a pool reference.
//!
//! Only a point that is asked for again is overlaid. A bounded
//! *doorkeeper* remembers the keys of recent misses — as many as the cache
//! holds entries. A miss on a key the doorkeeper has not seen is answered
//! from the snapshot the caller built, with no overlay and no entry; a
//! miss on a key it has seen is admitted: overlaid, cached and shared from
//! then on. A wide scan of distinct points therefore costs the pool and
//! the cache nothing, and cannot evict the hot set.
//!
//! Consistency is kept by the append path: an `APPEND` at time `ta`
//! invalidates every cached entry with `t >= ta` (those snapshots could now
//! differ from a fresh computation), while entries strictly before `ta`
//! stay valid — history already written never changes.
//!
//! The cache itself only bookkeeps; reference counts live in the
//! [`GraphPool`](graphpool::GraphPool) and locking lives in
//! [`SharedGraphManager`](crate::SharedGraphManager). See
//! `docs/ARCHITECTURE.md` for where the cache sits in a request's life.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use graphpool::GraphId;
use tgraph::codec::{write_varint, Decode, Encode, Reader};
use tgraph::{AttrOptions, Timestamp};

/// Monotonically increasing counters describing cache behavior, reported
/// over the wire by `STATS CACHE`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing — point retrievals that had to traverse
    /// the DeltaGraph, and read-only peeks that fell back to a direct
    /// computation. Both count, so the reported hit rate reflects every
    /// query that consulted the cache.
    pub misses: u64,
    /// Overlays inserted after a miss.
    pub insertions: u64,
    /// Entries dropped because an `APPEND` landed at or before their time.
    pub invalidations: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Encode for CacheStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.hits);
        write_varint(buf, self.misses);
        write_varint(buf, self.insertions);
        write_varint(buf, self.invalidations);
        write_varint(buf, self.evictions);
    }
}

impl Decode for CacheStats {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(CacheStats {
            hits: r.read_varint()?,
            misses: r.read_varint()?,
            insertions: r.read_varint()?,
            invalidations: r.read_varint()?,
            evictions: r.read_varint()?,
        })
    }
}

/// One cached snapshot as reported by `STATS CACHE`: its key, its shared
/// overlay, and how many references that overlay currently has (the cache's
/// own plus one per session holding it).
#[derive(Clone, Debug)]
pub struct CacheEntryInfo {
    /// The cached time point.
    pub t: Timestamp,
    /// Canonical attribute-options string of the key.
    pub opts: String,
    /// The pool overlay shared by every session retrieving this entry.
    pub overlay: GraphId,
    /// Outstanding references to the overlay.
    pub refs: usize,
}

impl Encode for CacheEntryInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.t.encode(buf);
        self.opts.encode(buf);
        // GraphId is a graphpool type, so its codec impl cannot live there
        // (the trait is tgraph's); encode the raw u32 field instead.
        write_varint(buf, u64::from(self.overlay.0));
        self.refs.encode(buf);
    }
}

impl Decode for CacheEntryInfo {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(CacheEntryInfo {
            t: Timestamp::decode(r)?,
            opts: String::decode(r)?,
            overlay: GraphId(
                u32::try_from(r.read_varint()?)
                    .map_err(|_| tgraph::TgError::Codec("graph id exceeds u32 range".into()))?,
            ),
            refs: usize::decode(r)?,
        })
    }
}

struct CacheEntry {
    overlay: GraphId,
    /// LRU stamp. Atomic, like the tick and the hit/miss counters, so a
    /// lookup needs only `&self` — a read-only probe runs under a shared
    /// lock.
    last_used: AtomicU64,
}

/// An LRU cache of pool overlays keyed by `(t, AttrOptions)`.
///
/// Capacity 0 disables the cache entirely: lookups always miss without
/// touching the counters, no miss is ever admitted, and nothing is
/// retained. Entries own one pool reference to their overlay; dropping an
/// entry (eviction, invalidation, purge) returns the overlay id so the
/// owner can release that reference.
pub struct SnapshotCache {
    capacity: usize,
    entries: HashMap<(Timestamp, AttrOptions), CacheEntry>,
    /// The doorkeeper: keys of the last `capacity` distinct misses, oldest
    /// first, and the same keys as a set for the membership test.
    missed: VecDeque<(Timestamp, AttrOptions)>,
    missed_set: HashSet<(Timestamp, AttrOptions)>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Insertions, invalidations and evictions (the hit and miss fields
    /// stay zero; those counts live in the atomics above).
    stats: CacheStats,
}

impl SnapshotCache {
    /// Creates a cache holding at most `capacity` snapshots (0 disables it).
    pub fn new(capacity: usize) -> Self {
        SnapshotCache {
            capacity,
            entries: HashMap::new(),
            missed: VecDeque::new(),
            missed_set: HashSet::new(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of cached snapshots (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of snapshots currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The behavior counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            ..self.stats
        }
    }

    /// Looks up `(t, opts)`, refreshing its LRU position, and returns the
    /// cached overlay. Nothing is inserted after a miss. `count` controls
    /// whether the hit/miss counters move: a probe that fails sends its
    /// caller into a snapshot computation, which is exactly the work the
    /// hit rate describes, so it counts; the double-checked re-probe after
    /// a miss passes `false` so one logical lookup is counted once.
    pub(crate) fn lookup(&self, t: Timestamp, opts: &AttrOptions, count: bool) -> Option<GraphId> {
        if self.capacity == 0 {
            return None;
        }
        let tick = self.tick.fetch_add(1, Relaxed) + 1;
        // Borrow-friendly: probe with a borrowed tuple key is not possible
        // with a (Timestamp, AttrOptions) key, so clone the small key parts.
        let found = self.entries.get(&(t, opts.clone()));
        if count {
            let counter = if found.is_some() {
                &self.hits
            } else {
                &self.misses
            };
            counter.fetch_add(1, Relaxed);
        }
        let entry = found?;
        entry.last_used.store(tick, Relaxed);
        Some(entry.overlay)
    }

    /// Counts one hit, for a lookup made uncounted that found its entry
    /// (see [`crate::GraphManager`]'s probe-only lookup).
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Relaxed);
    }

    /// Records a reference to `(t, opts)` that found no entry, and returns
    /// whether it repeats a recent one — whether the doorkeeper admits the
    /// point into the cache. The first reference is remembered (the oldest
    /// remembered key is forgotten once `capacity` are) and refused; a
    /// disabled cache refuses everything and remembers nothing.
    pub(crate) fn admit(&mut self, t: Timestamp, opts: &AttrOptions) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let key = (t, opts.clone());
        if self.missed_set.contains(&key) {
            return true;
        }
        if self.missed.len() == self.capacity {
            let oldest = self.missed.pop_front().expect("capacity > 0");
            self.missed_set.remove(&oldest);
        }
        self.missed.push_back(key.clone());
        self.missed_set.insert(key);
        false
    }

    /// Inserts a freshly built overlay. Returns the overlays this displaced
    /// — a previous entry under the same key (replaced) and/or the
    /// least-recently-used entry (evicted to make room) — whose cache
    /// references the caller must release. Must not be called when the
    /// cache is disabled.
    pub(crate) fn insert(
        &mut self,
        t: Timestamp,
        opts: AttrOptions,
        overlay: GraphId,
    ) -> Vec<GraphId> {
        debug_assert!(self.capacity > 0, "insert into a disabled cache");
        let mut displaced = Vec::new();
        if let Some(old) = self.entries.remove(&(t, opts.clone())) {
            // Same key re-inserted: the old overlay's cache reference must
            // not leak. (Unreachable from the double-checked retrieval path,
            // but cheap to keep correct for any future caller.)
            displaced.push(old.overlay);
        } else if self.entries.len() >= self.capacity {
            if let Some(key) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Relaxed))
                .map(|(k, _)| k.clone())
            {
                let old = self.entries.remove(&key).expect("key just found");
                self.stats.evictions += 1;
                displaced.push(old.overlay);
            }
        }
        let tick = self.tick.fetch_add(1, Relaxed) + 1;
        self.stats.insertions += 1;
        self.entries.insert(
            (t, opts),
            CacheEntry {
                overlay,
                last_used: AtomicU64::new(tick),
            },
        );
        displaced
    }

    /// Drops every entry at or after `t` (an `APPEND` at `t` may change any
    /// snapshot from `t` onwards; earlier history is immutable). Returns the
    /// overlays whose cache references must be released.
    pub(crate) fn invalidate_from(&mut self, t: Timestamp) -> Vec<GraphId> {
        let doomed: Vec<(Timestamp, AttrOptions)> = self
            .entries
            .keys()
            .filter(|(et, _)| *et >= t)
            .cloned()
            .collect();
        let mut overlays = Vec::with_capacity(doomed.len());
        for key in doomed {
            if let Some(entry) = self.entries.remove(&key) {
                self.stats.invalidations += 1;
                overlays.push(entry.overlay);
            }
        }
        overlays
    }

    /// Drops every entry (administrative reset). Returns the overlays whose
    /// cache references must be released.
    pub(crate) fn purge(&mut self) -> Vec<GraphId> {
        self.entries.drain().map(|(_, e)| e.overlay).collect()
    }

    /// The cached keys and overlays, sorted by `(t, opts)` for deterministic
    /// reporting. Reference counts are the pool's business; the manager
    /// fills them in (see `GraphManager::cache_entries`).
    pub(crate) fn entry_list(&self) -> Vec<(Timestamp, AttrOptions, GraphId)> {
        let mut list: Vec<_> = self
            .entries
            .iter()
            .map(|((t, opts), e)| (*t, opts.clone(), e.overlay))
            .collect();
        list.sort_by_key(|(t, opts, _)| (*t, opts.canonical_string()));
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_never_hits_or_counts() {
        let c = SnapshotCache::new(0);
        assert!(c.lookup(Timestamp(1), &AttrOptions::all(), true).is_none());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut c = SnapshotCache::new(2);
        let o = AttrOptions::all();
        assert!(c.insert(Timestamp(1), o.clone(), GraphId(10)).is_empty());
        assert!(c.insert(Timestamp(2), o.clone(), GraphId(11)).is_empty());
        // touch t=1 so t=2 is the LRU victim
        assert!(c.lookup(Timestamp(1), &o, true).is_some());
        let evicted = c.insert(Timestamp(3), o.clone(), GraphId(12));
        assert_eq!(evicted, vec![GraphId(11)]);
        assert!(c.lookup(Timestamp(1), &o, true).is_some());
        assert!(c.lookup(Timestamp(2), &o, true).is_none());
        assert!(c.lookup(Timestamp(3), &o, true).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 1, 1));
    }

    #[test]
    fn uncounted_lookup_leaves_stats_alone() {
        let mut c = SnapshotCache::new(4);
        c.insert(Timestamp(1), AttrOptions::all(), GraphId(9));
        assert!(c.lookup(Timestamp(1), &AttrOptions::all(), false).is_some());
        assert!(c.lookup(Timestamp(2), &AttrOptions::all(), false).is_none());
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
    }

    #[test]
    fn reinserting_a_key_returns_the_replaced_overlay() {
        let mut c = SnapshotCache::new(2);
        let o = AttrOptions::all();
        c.insert(Timestamp(1), o.clone(), GraphId(10));
        c.insert(Timestamp(2), o.clone(), GraphId(11));
        // Re-inserting t=1 at full capacity replaces in place: the old
        // overlay comes back, and no innocent LRU victim is evicted.
        let displaced = c.insert(Timestamp(1), o.clone(), GraphId(12));
        assert_eq!(displaced, vec![GraphId(10)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(Timestamp(1), &o, true).unwrap(), GraphId(12));
        assert_eq!(c.lookup(Timestamp(2), &o, true).unwrap(), GraphId(11));
    }

    #[test]
    fn peek_counts_both_hits_and_misses() {
        // A read-only peek is a counted lookup through `&self`.
        let mut c = SnapshotCache::new(4);
        let peek = |c: &SnapshotCache| c.lookup(Timestamp(1), &AttrOptions::all(), true);
        assert!(peek(&c).is_none());
        assert_eq!((c.stats().hits, c.stats().misses), (0, 1));
        c.insert(Timestamp(1), AttrOptions::all(), GraphId(9));
        assert_eq!(peek(&c), Some(GraphId(9)));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
        // A disabled cache's peek stays silent: nothing was consulted.
        let off = SnapshotCache::new(0);
        assert!(peek(&off).is_none());
        assert_eq!(off.stats(), CacheStats::default());
    }

    #[test]
    fn invalidation_is_a_strict_time_cut() {
        let mut c = SnapshotCache::new(8);
        let o = AttrOptions::all();
        for t in [1i64, 5, 9] {
            c.insert(Timestamp(t), o.clone(), GraphId(100 + t as u32));
        }
        let dropped = c.invalidate_from(Timestamp(5));
        let mut ids: Vec<u32> = dropped.iter().map(|g| g.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![105, 109]); // t=5 and t=9 go, t=1 stays
        assert!(c.lookup(Timestamp(1), &o, true).is_some());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn stats_and_entry_info_round_trip_through_the_codec() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
            invalidations: 0,
            evictions: 2,
        };
        assert_eq!(CacheStats::from_bytes(&s.to_bytes()).unwrap(), s);
        let e = CacheEntryInfo {
            t: Timestamp(-6),
            opts: "+node:all".into(),
            overlay: GraphId(42),
            refs: 3,
        };
        let d = CacheEntryInfo::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(
            (d.t, d.opts, d.overlay, d.refs),
            (e.t, e.opts, e.overlay, e.refs)
        );
    }

    #[test]
    fn the_doorkeeper_admits_a_recent_second_reference_only() {
        let mut c = SnapshotCache::new(2);
        let o = AttrOptions::all();
        assert!(!c.admit(Timestamp(1), &o), "a first reference is refused");
        assert!(c.admit(Timestamp(1), &o), "a second one is admitted");
        assert!(c.admit(Timestamp(1), &o));
        assert!(!c.admit(Timestamp(1), &AttrOptions::structure_only()));
        // Two newer misses push t=1 out: it starts over.
        assert!(!c.admit(Timestamp(2), &o));
        assert!(!c.admit(Timestamp(1), &o));
        assert!(c.admit(Timestamp(2), &o));
        // Admission is bookkeeping only: no counter moves.
        assert_eq!(c.stats(), CacheStats::default());
        let mut off = SnapshotCache::new(0);
        assert!(!off.admit(Timestamp(1), &o) && !off.admit(Timestamp(1), &o));
    }

    #[test]
    fn distinct_attr_options_are_distinct_entries() {
        let mut c = SnapshotCache::new(8);
        let all = AttrOptions::all();
        let bare = AttrOptions::structure_only();
        c.insert(Timestamp(1), all.clone(), GraphId(1));
        c.insert(Timestamp(1), bare.clone(), GraphId(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(Timestamp(1), &all, true).unwrap(), GraphId(1));
        assert_eq!(c.lookup(Timestamp(1), &bare, true).unwrap(), GraphId(2));
    }
}
