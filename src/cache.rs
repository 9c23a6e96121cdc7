//! The point cache: hot points become pool lookups, and their replies
//! `write()` calls.
//!
//! Without a cache every `GET GRAPH AT t` re-traverses the DeltaGraph, and
//! two sessions asking for the same instant build two pool overlays,
//! defeating the pool's sharing design (Section 6). The `PointCache` is an
//! LRU map from `(t, `[`AttrOptions`]`)` to one reference-counted pool
//! overlay, shared by every session that retrieves the point. The pool is
//! the retrieved graph's resident form, so an entry pins no private copy of
//! the snapshot. Beside the overlay an entry keeps, per [`WireFormat`], a
//! slot of fully framed reply bytes: both encodings are deterministic, so
//! the reply is a pure function of committed history, rendered once by the
//! first request that finds the overlay without it. A hit with its bytes
//! present is one lookup.
//!
//! Only a point asked for again gets an entry: a bounded *doorkeeper*
//! remembers the keys of the last `capacity` misses, and a miss is
//! admitted only when its key is among them. A scan of one-off points
//! therefore costs the pool and the cache nothing and cannot evict the hot
//! set. The byte slots keep their own budget — `response_cache_capacity`
//! slots and `response_cache_bytes` bytes — and shed in their own LRU
//! order, so bytes can go while the overlay stays.
//!
//! An `APPEND` at `ta` drops every entry with `t >= ta`, slots included;
//! earlier history never changes. Overlay and byte inserts are guarded by
//! the manager's append epoch, so a result computed before an append never
//! resurrects an invalidated range. Reference counts live in the
//! [`GraphPool`] and locking in
//! [`SharedGraphManager`](crate::SharedGraphManager); see
//! `docs/ARCHITECTURE.md` for where the cache sits in a request's life.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use graphpool::{GraphId, GraphPool};
use tgraph::{AttrOptions, Timestamp};

/// The serving layer's response encodings. Lives in the root crate (rather
/// than `histql`, which defines the encodings themselves) because the
/// point cache keeps one byte slot per encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Line-oriented text: `OK ...` lines terminated by `END`.
    #[default]
    Text,
    /// Length-prefixed frames of `tgraph::codec` bytes.
    Binary,
}

tgraph::impl_codec_enum!(WireFormat { 0 => Text, 1 => Binary });

/// Monotonically increasing counters describing the overlay side of the
/// cache, reported over the wire on the `OK CACHE` line of `STATS CACHE`.
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

tgraph::impl_codec!(CacheStats {
    hits,
    misses,
    insertions,
    invalidations,
    evictions
});

/// Counters describing the byte slots, reported over the wire on the `RC`
/// line of `STATS CACHE` (plus the `bytes` gauge of currently cached reply
/// bytes). Every count is per slot: an entry dropped with both slots
/// filled counts two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResponseCacheStats {
    /// Point retrievals answered from pre-framed bytes.
    pub hits: u64,
    /// Point retrievals that had to render their reply.
    pub misses: u64,
    /// Replies inserted after a miss.
    pub insertions: u64,
    /// Slots dropped because an `APPEND` landed at or before their time.
    pub invalidations: u64,
    /// Slots dropped to make room (their own LRU order, or with their
    /// entry).
    pub evictions: u64,
    /// Total reply bytes currently cached (a gauge, not a counter).
    pub bytes: u64,
}

tgraph::impl_codec!(ResponseCacheStats {
    hits,
    misses,
    insertions,
    invalidations,
    evictions,
    bytes
});

/// One cached point as reported by `STATS CACHE`: its key, its shared
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

tgraph::impl_codec!(CacheEntryInfo {
    t,
    opts,
    overlay,
    refs
});

/// Every shard's point cache, summed: the payload of `STATS CACHE` (see
/// [`crate::ShardedGraphManager::cache_overview`]). Capacities are per
/// shard.
#[derive(Clone, Debug, Default)]
pub struct CacheOverview {
    /// Per-shard entry capacity (0 = disabled).
    pub capacity: usize,
    /// Overlay counters.
    pub stats: CacheStats,
    /// Active historical overlays in the pool.
    pub overlays: usize,
    /// The cached entries, sorted by `(t, opts)`.
    pub entries: Vec<CacheEntryInfo>,
    /// Per-shard byte-slot capacity (0 = no bytes are cached).
    pub response_capacity: usize,
    /// Per-shard byte budget of the slots (0 = uncapped).
    pub response_byte_budget: u64,
    /// Filled byte slots.
    pub response_entries: usize,
    /// Byte-slot counters.
    pub response: ResponseCacheStats,
}

tgraph::impl_codec!(CacheOverview {
    capacity,
    stats,
    overlays,
    entries,
    response_capacity,
    response_byte_budget,
    response_entries,
    response
});

type Key = (Timestamp, AttrOptions);

/// A hit/miss pair, atomic so a lookup needs only `&self`.
#[derive(Default)]
struct Tally {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Tally {
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Relaxed);
    }
}

/// One encoding's framed reply.
struct Slot {
    bytes: Arc<[u8]>,
    last_used: AtomicU64,
}

struct Entry {
    overlay: GraphId,
    /// LRU stamps are atomic, like the tick and the tallies, so a lookup
    /// needs only `&self` — a read-only probe runs under a shared lock.
    last_used: AtomicU64,
    /// Indexed by [`WireFormat`].
    slots: [Option<Slot>; 2],
}

/// An LRU cache of pool overlays and their framed replies, keyed by
/// `(t, AttrOptions)`.
///
/// Capacity 0 disables the cache entirely: lookups always miss without
/// touching the counters, no miss is ever admitted, and nothing is
/// retained. A slot capacity of 0 disables the byte slots the same way.
/// Entries own one pool reference to their overlay; dropping an entry
/// (eviction, invalidation) returns the overlay id so the owner can
/// release that reference.
pub(crate) struct PointCache {
    capacity: usize,
    slot_capacity: usize,
    byte_budget: u64,
    entries: HashMap<Key, Entry>,
    /// The doorkeeper: keys of the last `capacity` distinct misses, oldest
    /// first, and the same keys as a set for the membership test.
    missed: VecDeque<Key>,
    missed_set: HashSet<Key>,
    tick: AtomicU64,
    overlay_tally: Tally,
    bytes_tally: Tally,
    /// Insertions, invalidations and evictions (the hit and miss fields
    /// stay zero; those counts live in the tallies).
    stats: CacheStats,
    /// The same for the slots, plus the bytes gauge.
    response: ResponseCacheStats,
    /// Filled slots across every entry.
    filled: usize,
}

impl PointCache {
    /// Creates a cache of at most `capacity` entries (0 disables it) whose
    /// byte slots hold at most `slot_capacity` replies (0 disables them)
    /// totalling at most `byte_budget` bytes (0 = uncapped).
    pub(crate) fn new(capacity: usize, slot_capacity: usize, byte_budget: u64) -> Self {
        PointCache {
            capacity,
            slot_capacity,
            byte_budget,
            entries: HashMap::new(),
            missed: VecDeque::new(),
            missed_set: HashSet::new(),
            tick: AtomicU64::new(0),
            overlay_tally: Tally::default(),
            bytes_tally: Tally::default(),
            stats: CacheStats::default(),
            response: ResponseCacheStats::default(),
            filled: 0,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of filled byte slots.
    pub(crate) fn slots(&self) -> usize {
        self.filled
    }

    /// The overlay counters so far.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.overlay_tally.hits.load(Relaxed),
            misses: self.overlay_tally.misses.load(Relaxed),
            ..self.stats
        }
    }

    /// The byte-slot counters so far.
    pub(crate) fn response_stats(&self) -> ResponseCacheStats {
        ResponseCacheStats {
            hits: self.bytes_tally.hits.load(Relaxed),
            misses: self.bytes_tally.misses.load(Relaxed),
            ..self.response
        }
    }

    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Relaxed) + 1
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
        let found = self.entries.get(&(t, opts.clone()));
        if count {
            self.overlay_tally.count(found.is_some());
        }
        let entry = found?;
        entry.last_used.store(self.stamp(), Relaxed);
        Some(entry.overlay)
    }

    /// The framed reply for `(t, opts, format)`, refreshing the slot's LRU
    /// position and counting a byte hit or miss.
    pub(crate) fn bytes(
        &self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<Arc<[u8]>> {
        if self.capacity == 0 || self.slot_capacity == 0 {
            return None;
        }
        let slot = self
            .entries
            .get(&(t, opts.clone()))
            .and_then(|e| e.slots[format as usize].as_ref());
        self.bytes_tally.count(slot.is_some());
        let slot = slot?;
        slot.last_used.store(self.stamp(), Relaxed);
        Some(Arc::clone(&slot.bytes))
    }

    /// The reactor's lookup: the overlay and the framed reply for
    /// `(t, opts, format)` when the entry holds both. Then both LRU
    /// positions refresh and one overlay hit plus one byte hit count; when
    /// either is missing nothing is touched and `None` comes back, so the
    /// request can take the full path with identical accounting.
    pub(crate) fn hot(
        &self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<(GraphId, Arc<[u8]>)> {
        // A disabled cache holds no entry, and disabled slots no bytes.
        let entry = self.entries.get(&(t, opts.clone()))?;
        let slot = entry.slots[format as usize].as_ref()?;
        let tick = self.stamp();
        entry.last_used.store(tick, Relaxed);
        slot.last_used.store(tick, Relaxed);
        self.overlay_tally.count(true);
        self.bytes_tally.count(true);
        Some((entry.overlay, Arc::clone(&slot.bytes)))
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
    /// — a previous overlay under the same key (replaced in place; its byte
    /// slots stay, since they render the same history) or the
    /// least-recently-used entry (evicted with its slots to make room) —
    /// whose cache references the caller must release. Must not be called
    /// when the cache is disabled.
    pub(crate) fn insert(
        &mut self,
        t: Timestamp,
        opts: AttrOptions,
        overlay: GraphId,
    ) -> Vec<GraphId> {
        debug_assert!(self.capacity > 0, "insert into a disabled cache");
        let tick = self.stamp();
        self.stats.insertions += 1;
        let key = (t, opts);
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used.store(tick, Relaxed);
            return vec![std::mem::replace(&mut entry.overlay, overlay)];
        }
        let mut displaced = Vec::new();
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                let (old, slots) = self.remove(&victim);
                self.stats.evictions += 1;
                self.response.evictions += slots;
                displaced.push(old);
            }
        }
        let entry = Entry {
            overlay,
            last_used: AtomicU64::new(tick),
            slots: [None, None],
        };
        self.entries.insert(key, entry);
        displaced
    }

    /// Caches a freshly framed reply in the entry for `(t, opts)`,
    /// replacing any previous reply for `format` and shedding LRU slots
    /// until the slot count and byte budget hold. Returns `false`, caching
    /// nothing, when the point has no entry — bytes are kept only for an
    /// admitted point — or the slots are disabled.
    pub(crate) fn put_bytes(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
        bytes: Arc<[u8]>,
    ) -> bool {
        let key = (t, opts.clone());
        if self.slot_capacity == 0 || !self.entries.contains_key(&key) {
            return false;
        }
        let slot = Slot {
            bytes,
            last_used: AtomicU64::new(self.stamp()),
        };
        let len = slot.bytes.len() as u64;
        let entry = self.entries.get_mut(&key).expect("checked above");
        match entry.slots[format as usize].replace(slot) {
            Some(old) => self.response.bytes -= old.bytes.len() as u64,
            None => self.filled += 1,
        }
        self.response.insertions += 1;
        self.response.bytes += len;
        // The new slot is the MRU, so it goes only when it alone exceeds
        // the budget and nothing older is left to shed.
        while self.filled > self.slot_capacity
            || (self.byte_budget > 0 && self.response.bytes > self.byte_budget)
        {
            self.evict_lru_slot();
        }
        true
    }

    fn evict_lru_slot(&mut self) {
        let victim = self
            .entries
            .iter_mut()
            .flat_map(|(_, e)| e.slots.iter_mut())
            .filter(|s| s.is_some())
            .min_by_key(|s| s.as_ref().map_or(0, |s| s.last_used.load(Relaxed)))
            .and_then(Option::take)
            .expect("an over-budget cache holds a slot");
        self.filled -= 1;
        self.response.bytes -= victim.bytes.len() as u64;
        self.response.evictions += 1;
    }

    /// Removes an entry, taking its slots out of the byte gauges. Returns
    /// its overlay and how many slots went with it.
    fn remove(&mut self, key: &Key) -> (GraphId, u64) {
        let entry = self.entries.remove(key).expect("a cached key");
        let mut slots = 0;
        for slot in entry.slots.into_iter().flatten() {
            self.response.bytes -= slot.bytes.len() as u64;
            slots += 1;
        }
        self.filled -= slots as usize;
        (entry.overlay, slots)
    }

    /// Drops every entry at or after `t`, byte slots included (an `APPEND`
    /// at `t` may change any snapshot from `t` onwards; earlier history is
    /// immutable). Returns the overlays whose cache references must be
    /// released.
    pub(crate) fn invalidate_from(&mut self, t: Timestamp) -> Vec<GraphId> {
        let doomed: Vec<Key> = self
            .entries
            .keys()
            .filter(|(et, _)| *et >= t)
            .cloned()
            .collect();
        doomed
            .iter()
            .map(|key| {
                let (overlay, slots) = self.remove(key);
                self.stats.invalidations += 1;
                self.response.invalidations += slots;
                overlay
            })
            .collect()
    }

    /// Drops every entry (administrative reset; the pool's overlays are
    /// force-released by the caller).
    pub(crate) fn purge(&mut self) {
        self.entries.clear();
        self.filled = 0;
        self.response.bytes = 0;
    }

    /// The cached entries with their overlays' live reference counts in
    /// `pool`, sorted by `(t, opts)`.
    pub(crate) fn entries(&self, pool: &GraphPool) -> Vec<CacheEntryInfo> {
        let mut list: Vec<CacheEntryInfo> = self
            .entries
            .iter()
            .map(|((t, opts), e)| CacheEntryInfo {
                t: *t,
                opts: opts.canonical_string(),
                overlay: e.overlay,
                refs: pool.refcount(e.overlay).unwrap_or(0),
            })
            .collect();
        list.sort_by(|a, b| (a.t, &a.opts).cmp(&(b.t, &b.opts)));
        list
    }

    /// Adds this cache's counters and gauges, and `pool`'s overlay count,
    /// to `into`. The entry list and the capacities stay as they are: the
    /// list is [`PointCache::entries`], and capacities are per shard.
    pub(crate) fn add_to(&self, pool: &GraphPool, into: &mut CacheOverview) {
        let (s, o) = (self.stats(), &mut into.stats);
        o.hits += s.hits;
        o.misses += s.misses;
        o.insertions += s.insertions;
        o.invalidations += s.invalidations;
        o.evictions += s.evictions;
        let (r, o) = (self.response_stats(), &mut into.response);
        o.hits += r.hits;
        o.misses += r.misses;
        o.insertions += r.insertions;
        o.invalidations += r.invalidations;
        o.evictions += r.evictions;
        o.bytes += r.bytes;
        into.overlays += pool.active_overlay_count();
        into.response_entries += self.filled;
    }
}

/// Unit tests of the entries and their overlays; the helpers serve the
/// byte-slot tests too (`src/cache_slot_tests.rs`).
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tgraph::codec::{Decode, Encode};

    pub(crate) const TEXT: WireFormat = WireFormat::Text;
    pub(crate) const BINARY: WireFormat = WireFormat::Binary;

    pub(crate) fn at(t: i64) -> Timestamp {
        Timestamp(t)
    }

    pub(crate) fn all() -> AttrOptions {
        AttrOptions::all()
    }

    /// A cache of `capacity` entries, `slots` byte slots and `budget`
    /// bytes, holding overlays `100 + t` for each of `times`.
    pub(crate) fn filled(capacity: usize, slots: usize, budget: u64, times: &[i64]) -> PointCache {
        let mut c = PointCache::new(capacity, slots, budget);
        for &t in times {
            c.insert(at(t), all(), GraphId(100 + t as u32));
        }
        c
    }

    /// A counted overlay lookup of `(t, all)`.
    pub(crate) fn overlay(c: &PointCache, t: i64) -> Option<GraphId> {
        c.lookup(at(t), &all(), true)
    }

    pub(crate) fn put(c: &mut PointCache, t: i64, format: WireFormat, bytes: &str) -> bool {
        c.put_bytes(at(t), &all(), format, Arc::from(bytes.as_bytes()))
    }

    pub(crate) fn cached(c: &PointCache, t: i64, format: WireFormat) -> Option<Vec<u8>> {
        c.bytes(at(t), &all(), format).map(|b| b.to_vec())
    }

    /// Filled slots, slot evictions and cached bytes.
    pub(crate) fn slot_state(c: &PointCache) -> (usize, u64, u64) {
        let r = c.response_stats();
        (c.slots(), r.evictions, r.bytes)
    }

    #[test]
    fn disabled_cache_never_hits_or_counts() {
        let mut off = PointCache::new(0, 8, 0);
        assert!(overlay(&off, 1).is_none());
        assert!(cached(&off, 1, TEXT).is_none());
        assert!(!off.admit(at(1), &all()) && !off.admit(at(1), &all()));
        assert_eq!(off.stats(), CacheStats::default());
        assert_eq!(off.response_stats(), ResponseCacheStats::default());
    }

    #[test]
    fn peek_counts_both_hits_and_misses() {
        // A read-only peek is a counted lookup through `&self`.
        let mut c = PointCache::new(4, 4, 0);
        assert!(overlay(&c, 1).is_none());
        c.insert(at(1), all(), GraphId(9));
        assert_eq!(overlay(&c, 1), Some(GraphId(9)));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn uncounted_lookup_leaves_stats_alone() {
        let c = filled(4, 4, 0, &[1]);
        assert!(c.lookup(at(1), &all(), false).is_some());
        assert!(c.lookup(at(2), &all(), false).is_none());
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut c = filled(2, 8, 0, &[1, 2]);
        put(&mut c, 2, TEXT, "bbbb");
        put(&mut c, 2, BINARY, "bb");
        put(&mut c, 1, TEXT, "aa");
        // Touch t=1 so t=2 is the LRU victim, though its bytes are newer.
        assert!(overlay(&c, 1).is_some());
        assert_eq!(c.insert(at(3), all(), GraphId(103)), vec![GraphId(102)]);
        assert!(overlay(&c, 2).is_none());
        assert_eq!(overlay(&c, 1), Some(GraphId(101)));
        assert_eq!(overlay(&c, 3), Some(GraphId(103)));
        assert_eq!(c.len(), 2);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 1, 1));
        // The entry took its slots with it: one eviction per slot.
        assert_eq!(slot_state(&c), (1, 2, 2));
    }

    #[test]
    fn reinserting_a_key_returns_the_replaced_overlay() {
        let mut c = filled(2, 8, 0, &[1, 2]);
        put(&mut c, 1, TEXT, "old!");
        // At full capacity the old overlay comes back and no LRU victim is
        // evicted; the bytes render the same history and stay.
        assert_eq!(c.insert(at(1), all(), GraphId(12)), vec![GraphId(101)]);
        assert_eq!((c.len(), c.stats().evictions), (2, 0));
        assert_eq!(overlay(&c, 1), Some(GraphId(12)));
        assert_eq!(cached(&c, 1, TEXT).unwrap(), b"old!");
    }

    #[test]
    fn distinct_attr_options_are_distinct_entries() {
        let mut c = PointCache::new(8, 8, 0);
        let bare = AttrOptions::structure_only();
        c.insert(at(1), all(), GraphId(1));
        c.insert(at(1), bare.clone(), GraphId(2));
        assert_eq!(overlay(&c, 1), Some(GraphId(1)));
        assert_eq!(c.lookup(at(1), &bare, true), Some(GraphId(2)));
        // Each entry keeps its own replies.
        put(&mut c, 1, TEXT, "all");
        assert!(c.bytes(at(1), &bare, TEXT).is_none());
    }

    #[test]
    fn invalidation_is_a_strict_time_cut() {
        let mut c = filled(8, 8, 0, &[1, 5, 9]);
        let mut dropped = c.invalidate_from(at(5));
        dropped.sort_unstable();
        assert_eq!(dropped, vec![GraphId(105), GraphId(109)]);
        assert_eq!(overlay(&c, 1), Some(GraphId(101)));
        assert_eq!((c.len(), c.stats().invalidations), (1, 2));
        // A purge drops the rest.
        c.purge();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn a_hot_lookup_counts_only_when_the_slot_is_there() {
        let mut c = filled(4, 4, 0, &[1]);
        assert!(c.hot(at(1), &all(), TEXT).is_none());
        assert!(c.hot(at(2), &all(), TEXT).is_none());
        put(&mut c, 1, TEXT, "OK\nEND\n");
        assert!(c.hot(at(1), &all(), BINARY).is_none());
        let (s, r) = (c.stats(), c.response_stats());
        assert_eq!((s.hits, s.misses, r.hits, r.misses), (0, 0, 0, 0));
        let (overlay, got) = c.hot(at(1), &all(), TEXT).unwrap();
        assert_eq!((overlay, &*got), (GraphId(101), &b"OK\nEND\n"[..]));
        let (s, r) = (c.stats(), c.response_stats());
        assert_eq!((s.hits, s.misses, r.hits, r.misses), (1, 0, 1, 0));
    }

    #[test]
    fn the_doorkeeper_admits_a_recent_second_reference_only() {
        let mut c = PointCache::new(2, 2, 0);
        let o = all();
        assert!(!c.admit(at(1), &o), "a first reference is refused");
        assert!(c.admit(at(1), &o), "a second one is admitted");
        assert!(c.admit(at(1), &o));
        assert!(!c.admit(at(1), &AttrOptions::structure_only()));
        // Two newer misses push t=1 out: it starts over.
        assert!(!c.admit(at(2), &o));
        assert!(!c.admit(at(1), &o));
        assert!(c.admit(at(2), &o));
        // Admission is bookkeeping only: no counter moves.
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn stats_and_entry_info_round_trip_through_the_codec() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 2,
            ..Default::default()
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
}
