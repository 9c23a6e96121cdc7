//! The rendered-response byte cache: hot points become `write()` calls.
//!
//! PR 3's snapshot cache removed index traversal from the hot path, and the
//! bench promptly showed the next bottleneck: at small scale the hot-point
//! speedup collapses because **serialization dominates** — every `GET GRAPH
//! AT t` re-renders the same `Arc<Snapshot>` into the same bytes. Both wire
//! encodings are deterministic (sorted nodes/edges/attributes), so the fully
//! framed reply for a `(t, opts, format)` is a pure function of committed
//! history. The [`ResponseCache`] exploits that: it maps
//! `(t, `[`AttrOptions`]`, `[`WireFormat`]`)` to the complete reply bytes
//! (`Arc<[u8]>`, including the text `END` sentinel or the binary length
//! prefix), populated on the first render of a point the snapshot cache
//! has admitted and served on every later hit with zero per-request
//! rendering. A point's first reference is neither looked up nor
//! inserted here: it is not admitted (see [`crate::cache`]), so its
//! bytes would most likely be evicted unread.
//!
//! Consistency follows the snapshot cache's rule exactly: an `APPEND` at
//! `ta` drops every entry with `t >= ta`; inserts are guarded by the
//! manager's append epoch so bytes rendered from a pre-append snapshot can
//! never resurrect an invalidated time range. Unlike the snapshot cache,
//! entries hold no pool references — they are plain bytes — so eviction and
//! invalidation are pure bookkeeping.
//!
//! See `docs/ARCHITECTURE.md` for where this second cache tier sits in a
//! request's life (snapshot cache → response byte cache).

use std::collections::HashMap;
use std::sync::Arc;

use tgraph::codec::{write_varint, Decode, Encode, Reader};
use tgraph::{AttrOptions, TgError, Timestamp};

/// The serving layer's response encodings. Lives in the root crate (rather
/// than `histql`, which defines the encodings themselves) because the
/// [`ResponseCache`] keys on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Line-oriented text: `OK ...` lines terminated by `END`.
    #[default]
    Text,
    /// Length-prefixed frames of `tgraph::codec` bytes.
    Binary,
}

impl Encode for WireFormat {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            WireFormat::Text => 0,
            WireFormat::Binary => 1,
        });
    }
}

impl Decode for WireFormat {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        match u64::decode(r)? {
            0 => Ok(WireFormat::Text),
            1 => Ok(WireFormat::Binary),
            t => Err(TgError::Codec(format!("invalid WireFormat tag {t}"))),
        }
    }
}

/// Monotonically increasing counters describing response-cache behavior,
/// reported over the wire on the `RC` line of `STATS CACHE` (plus the
/// `bytes` gauge of currently cached reply bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResponseCacheStats {
    /// Point retrievals answered from pre-framed bytes.
    pub hits: u64,
    /// Point retrievals that had to render their reply.
    pub misses: u64,
    /// Replies inserted after a miss.
    pub insertions: u64,
    /// Entries dropped because an `APPEND` landed at or before their time.
    pub invalidations: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
    /// Total reply bytes currently cached (a gauge, not a counter).
    pub bytes: u64,
}

impl ResponseCacheStats {
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

impl Encode for ResponseCacheStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.hits);
        write_varint(buf, self.misses);
        write_varint(buf, self.insertions);
        write_varint(buf, self.invalidations);
        write_varint(buf, self.evictions);
        write_varint(buf, self.bytes);
    }
}

impl Decode for ResponseCacheStats {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(ResponseCacheStats {
            hits: r.read_varint()?,
            misses: r.read_varint()?,
            insertions: r.read_varint()?,
            invalidations: r.read_varint()?,
            evictions: r.read_varint()?,
            bytes: r.read_varint()?,
        })
    }
}

struct RespEntry {
    bytes: Arc<[u8]>,
    last_used: u64,
}

/// An LRU cache of fully framed replies keyed by `(t, AttrOptions,
/// WireFormat)`. Capacity 0 disables it: lookups always miss without
/// touching the counters, and nothing is retained. An optional byte
/// budget (0 = unlimited) caps the total cached reply bytes on top of
/// the entry count, evicting in LRU order until back under budget.
pub struct ResponseCache {
    capacity: usize,
    byte_budget: u64,
    entries: HashMap<(Timestamp, AttrOptions, WireFormat), RespEntry>,
    tick: u64,
    stats: ResponseCacheStats,
}

impl ResponseCache {
    /// Creates a cache holding at most `capacity` replies (0 disables it)
    /// with no byte budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, 0)
    }

    /// Creates a cache holding at most `capacity` replies (0 disables it)
    /// totalling at most `byte_budget` reply bytes (0 = unlimited).
    pub fn with_byte_budget(capacity: usize, byte_budget: u64) -> Self {
        ResponseCache {
            capacity,
            byte_budget,
            entries: HashMap::new(),
            tick: 0,
            stats: ResponseCacheStats::default(),
        }
    }

    /// Maximum number of cached replies (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum total cached reply bytes (0 = unlimited).
    pub fn byte_budget(&self) -> u64 {
        self.byte_budget
    }

    /// Number of replies currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no replies.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The behavior counters so far.
    pub fn stats(&self) -> ResponseCacheStats {
        self.stats
    }

    /// Looks up the framed reply for `(t, opts, format)`, refreshing its LRU
    /// position and counting a hit or miss.
    pub(crate) fn get(
        &mut self,
        t: Timestamp,
        opts: &AttrOptions,
        format: WireFormat,
    ) -> Option<Arc<[u8]>> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        match self.entries.get_mut(&(t, opts.clone(), format)) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.bytes))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly rendered reply, replacing any previous entry under
    /// the same key and evicting the least-recently-used entry when full.
    /// Must not be called when the cache is disabled (the manager gates on
    /// capacity and the append epoch before calling).
    pub(crate) fn insert(
        &mut self,
        t: Timestamp,
        opts: AttrOptions,
        format: WireFormat,
        bytes: Arc<[u8]>,
    ) {
        debug_assert!(self.capacity > 0, "insert into a disabled response cache");
        if let Some(old) = self.entries.remove(&(t, opts.clone(), format)) {
            self.stats.bytes -= old.bytes.len() as u64;
        } else if self.entries.len() >= self.capacity {
            if let Some(key) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                let old = self.entries.remove(&key).expect("key just found");
                self.stats.evictions += 1;
                self.stats.bytes -= old.bytes.len() as u64;
            }
        }
        self.tick += 1;
        self.stats.insertions += 1;
        self.stats.bytes += bytes.len() as u64;
        self.entries.insert(
            (t, opts, format),
            RespEntry {
                bytes,
                last_used: self.tick,
            },
        );
        self.enforce_byte_budget();
    }

    /// Evicts LRU entries until total cached bytes fit the budget. The
    /// just-inserted entry is the MRU, so it is only dropped when it alone
    /// exceeds the budget and nothing older is left to shed.
    fn enforce_byte_budget(&mut self) {
        if self.byte_budget == 0 {
            return;
        }
        while self.stats.bytes > self.byte_budget {
            let Some(key) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let old = self.entries.remove(&key).expect("key just found");
            self.stats.evictions += 1;
            self.stats.bytes -= old.bytes.len() as u64;
        }
    }

    /// Drops every entry at or after `t` (an `APPEND` at `t` may change any
    /// reply from `t` onwards; earlier history is immutable).
    pub(crate) fn invalidate_from(&mut self, t: Timestamp) {
        let doomed: Vec<(Timestamp, AttrOptions, WireFormat)> = self
            .entries
            .keys()
            .filter(|(et, _, _)| *et >= t)
            .cloned()
            .collect();
        for key in doomed {
            if let Some(entry) = self.entries.remove(&key) {
                self.stats.invalidations += 1;
                self.stats.bytes -= entry.bytes.len() as u64;
            }
        }
    }

    /// Drops every entry (administrative reset).
    pub(crate) fn purge(&mut self) {
        self.entries.clear();
        self.stats.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes())
    }

    #[test]
    fn disabled_cache_never_hits_or_counts() {
        let mut c = ResponseCache::new(0);
        assert!(c
            .get(Timestamp(1), &AttrOptions::all(), WireFormat::Text)
            .is_none());
        assert_eq!(c.stats(), ResponseCacheStats::default());
    }

    #[test]
    fn hit_returns_the_inserted_bytes_and_counts() {
        let mut c = ResponseCache::new(4);
        let o = AttrOptions::all();
        assert!(c.get(Timestamp(1), &o, WireFormat::Text).is_none());
        c.insert(
            Timestamp(1),
            o.clone(),
            WireFormat::Text,
            bytes("OK\nEND\n"),
        );
        let got = c.get(Timestamp(1), &o, WireFormat::Text).unwrap();
        assert_eq!(&*got, b"OK\nEND\n");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.bytes, 7);
    }

    #[test]
    fn text_and_binary_are_distinct_entries() {
        let mut c = ResponseCache::new(4);
        let o = AttrOptions::all();
        c.insert(Timestamp(1), o.clone(), WireFormat::Text, bytes("text"));
        c.insert(Timestamp(1), o.clone(), WireFormat::Binary, bytes("bin"));
        assert_eq!(c.len(), 2);
        assert_eq!(
            &*c.get(Timestamp(1), &o, WireFormat::Text).unwrap(),
            b"text"
        );
        assert_eq!(
            &*c.get(Timestamp(1), &o, WireFormat::Binary).unwrap(),
            b"bin"
        );
    }

    #[test]
    fn lru_eviction_prefers_stale_entries_and_tracks_bytes() {
        let mut c = ResponseCache::new(2);
        let o = AttrOptions::all();
        c.insert(Timestamp(1), o.clone(), WireFormat::Text, bytes("aa"));
        c.insert(Timestamp(2), o.clone(), WireFormat::Text, bytes("bbbb"));
        // touch t=1 so t=2 is the LRU victim
        assert!(c.get(Timestamp(1), &o, WireFormat::Text).is_some());
        c.insert(Timestamp(3), o.clone(), WireFormat::Text, bytes("cc"));
        assert!(c.get(Timestamp(2), &o, WireFormat::Text).is_none());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 4); // "aa" + "cc"
    }

    #[test]
    fn reinserting_a_key_replaces_in_place() {
        let mut c = ResponseCache::new(2);
        let o = AttrOptions::all();
        c.insert(Timestamp(1), o.clone(), WireFormat::Text, bytes("old!"));
        c.insert(Timestamp(2), o.clone(), WireFormat::Text, bytes("x"));
        c.insert(Timestamp(1), o.clone(), WireFormat::Text, bytes("new"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().bytes, 4); // "new" + "x"
        assert_eq!(&*c.get(Timestamp(1), &o, WireFormat::Text).unwrap(), b"new");
    }

    #[test]
    fn invalidation_is_a_strict_time_cut() {
        let mut c = ResponseCache::new(8);
        let o = AttrOptions::all();
        for t in [1i64, 5, 9] {
            c.insert(Timestamp(t), o.clone(), WireFormat::Text, bytes("r"));
            c.insert(Timestamp(t), o.clone(), WireFormat::Binary, bytes("b"));
        }
        c.invalidate_from(Timestamp(5));
        assert_eq!(c.len(), 2); // both formats of t=1 survive
        assert!(c.get(Timestamp(1), &o, WireFormat::Text).is_some());
        assert!(c.get(Timestamp(5), &o, WireFormat::Binary).is_none());
        assert_eq!(c.stats().invalidations, 4);
        assert_eq!(c.stats().bytes, 2);
    }

    #[test]
    fn byte_budget_evicts_lru_until_under_budget() {
        let mut c = ResponseCache::with_byte_budget(100, 8);
        assert_eq!(c.byte_budget(), 8);
        let o = AttrOptions::all();
        c.insert(Timestamp(1), o.clone(), WireFormat::Text, bytes("aaa"));
        c.insert(Timestamp(2), o.clone(), WireFormat::Text, bytes("bbb"));
        assert_eq!(c.stats().bytes, 6);
        // touch t=1 so t=2 becomes the LRU victim
        assert!(c.get(Timestamp(1), &o, WireFormat::Text).is_some());
        // +4 bytes puts the total at 10 > 8; one eviction (t=2) lands at 7
        c.insert(Timestamp(3), o.clone(), WireFormat::Text, bytes("cccc"));
        assert!(c.get(Timestamp(2), &o, WireFormat::Text).is_none());
        assert!(c.get(Timestamp(1), &o, WireFormat::Text).is_some());
        assert!(c.get(Timestamp(3), &o, WireFormat::Text).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 7);
    }

    #[test]
    fn byte_budget_can_evict_multiple_entries_for_one_insert() {
        let mut c = ResponseCache::with_byte_budget(100, 6);
        let o = AttrOptions::all();
        c.insert(Timestamp(1), o.clone(), WireFormat::Text, bytes("aa"));
        c.insert(Timestamp(2), o.clone(), WireFormat::Text, bytes("bb"));
        // 5 new bytes only fit after both older entries go
        c.insert(Timestamp(3), o.clone(), WireFormat::Text, bytes("ccccc"));
        assert_eq!(c.len(), 1);
        assert!(c.get(Timestamp(3), &o, WireFormat::Text).is_some());
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().bytes, 5);
    }

    #[test]
    fn oversized_single_entry_is_dropped_by_the_budget() {
        let mut c = ResponseCache::with_byte_budget(100, 4);
        let o = AttrOptions::all();
        c.insert(Timestamp(1), o.clone(), WireFormat::Text, bytes("toolarge"));
        assert!(c.is_empty());
        assert_eq!(c.stats().bytes, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_budget_means_unlimited_bytes() {
        let mut c = ResponseCache::new(100);
        assert_eq!(c.byte_budget(), 0);
        let o = AttrOptions::all();
        for t in 0..10 {
            c.insert(Timestamp(t), o.clone(), WireFormat::Text, bytes("xxxxxxxx"));
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().bytes, 80);
    }

    #[test]
    fn purge_resets_bytes() {
        let mut c = ResponseCache::new(4);
        c.insert(
            Timestamp(1),
            AttrOptions::all(),
            WireFormat::Text,
            bytes("xyz"),
        );
        c.purge();
        assert!(c.is_empty());
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn stats_and_format_round_trip_through_the_codec() {
        let s = ResponseCacheStats {
            hits: 5,
            misses: 2,
            insertions: 2,
            invalidations: 1,
            evictions: 0,
            bytes: 777,
        };
        let decoded = ResponseCacheStats::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(decoded, s);
        for f in [WireFormat::Text, WireFormat::Binary] {
            assert_eq!(WireFormat::from_bytes(&f.to_bytes()).unwrap(), f);
        }
        assert!(WireFormat::from_bytes(&[9]).is_err());
    }
}
