//! Unit tests of the point cache's byte slots: the framed replies an entry
//! keeps per [`WireFormat`](crate::WireFormat), under their own slot count
//! and byte budget. The slots are what the configuration and the
//! [`SharedGraphManager`](crate::SharedGraphManager) API call the response
//! cache (`with_response_cache`, `response_cache_get`), hence this
//! module's name; `cache::tests` covers the entries and their overlays.

mod tests {
    use graphpool::GraphId;
    use tgraph::codec::{Decode, Encode};

    use crate::cache::tests::{all, at, cached, filled, overlay, put, slot_state, BINARY, TEXT};
    use crate::{ResponseCacheStats, WireFormat};

    #[test]
    fn disabled_cache_never_hits_or_counts() {
        // With no slots the overlays work; bytes are neither kept nor
        // counted.
        let mut c = filled(4, 0, 0, &[1]);
        assert!(!put(&mut c, 1, TEXT, "x"));
        assert!(cached(&c, 1, TEXT).is_none());
        assert!(c.hot(at(1), &all(), TEXT).is_none());
        assert_eq!(overlay(&c, 1), Some(GraphId(101)));
        assert_eq!(c.response_stats(), ResponseCacheStats::default());
    }

    #[test]
    fn hit_returns_the_inserted_bytes_and_counts() {
        let mut c = filled(4, 4, 0, &[1]);
        assert!(!put(&mut c, 2, TEXT, "early"), "no entry, no bytes");
        assert!(cached(&c, 1, TEXT).is_none());
        assert!(put(&mut c, 1, TEXT, "OK\nEND\n"));
        assert_eq!(cached(&c, 1, TEXT).unwrap(), b"OK\nEND\n");
        let r = c.response_stats();
        assert_eq!((r.hits, r.misses, r.insertions, r.bytes), (1, 1, 1, 7));
        // Byte lookups count on their own tally.
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
    }

    #[test]
    fn text_and_binary_are_distinct_entries() {
        let mut c = filled(4, 4, 0, &[1]);
        put(&mut c, 1, TEXT, "text");
        put(&mut c, 1, BINARY, "bin");
        assert_eq!(cached(&c, 1, TEXT).unwrap(), b"text");
        assert_eq!(cached(&c, 1, BINARY).unwrap(), b"bin");
        assert_eq!((c.len(), slot_state(&c)), (1, (2, 0, 7)));
    }

    #[test]
    fn lru_eviction_prefers_stale_entries_and_tracks_bytes() {
        let mut c = filled(8, 2, 0, &[1, 2, 3]);
        put(&mut c, 1, TEXT, "aa");
        put(&mut c, 2, TEXT, "bbbb");
        // Touch t=1's bytes so t=2's are the LRU slot.
        assert!(cached(&c, 1, TEXT).is_some());
        put(&mut c, 3, TEXT, "cc");
        assert!(cached(&c, 2, TEXT).is_none());
        assert_eq!(slot_state(&c), (2, 1, 4)); // "aa" + "cc"

        // The slot went, not its entry.
        assert_eq!(overlay(&c, 2), Some(GraphId(102)));
        assert_eq!((c.len(), c.stats().evictions), (3, 0));
    }

    #[test]
    fn reinserting_a_key_replaces_in_place() {
        let mut c = filled(8, 2, 0, &[1, 2]);
        put(&mut c, 1, TEXT, "old!");
        put(&mut c, 2, TEXT, "x");
        put(&mut c, 1, TEXT, "new");
        assert_eq!(cached(&c, 1, TEXT).unwrap(), b"new");
        assert_eq!(slot_state(&c), (2, 0, 4)); // "new" + "x"
    }

    #[test]
    fn invalidation_is_a_strict_time_cut() {
        let mut c = filled(8, 8, 0, &[1, 5, 9]);
        for t in [1, 5, 9] {
            put(&mut c, t, TEXT, "r");
            put(&mut c, t, BINARY, "b");
        }
        c.invalidate_from(at(5));
        assert!(cached(&c, 1, TEXT).is_some() && cached(&c, 1, BINARY).is_some());
        assert!(cached(&c, 5, BINARY).is_none());
        // An invalidated entry takes its slots: one invalidation per slot.
        assert_eq!(c.response_stats().invalidations, 4);
        assert_eq!(slot_state(&c), (2, 0, 2));
    }

    #[test]
    fn byte_budget_evicts_lru_until_under_budget() {
        let mut c = filled(100, 100, 8, &[1, 2, 3]);
        put(&mut c, 1, TEXT, "aaa");
        put(&mut c, 2, TEXT, "bbb");
        // Touch t=1 so t=2 becomes the LRU slot; 4 more bytes make 10 > 8,
        // and one eviction (t=2) lands at 7.
        assert!(cached(&c, 1, TEXT).is_some());
        put(&mut c, 3, TEXT, "cccc");
        assert!(cached(&c, 2, TEXT).is_none());
        assert!(cached(&c, 3, TEXT).is_some());
        assert_eq!(slot_state(&c), (2, 1, 7));
        // t=2's overlay outlived its bytes.
        assert_eq!(overlay(&c, 2), Some(GraphId(102)));
        assert_eq!((c.len(), c.stats().evictions), (3, 0));
    }

    #[test]
    fn byte_budget_can_evict_multiple_entries_for_one_insert() {
        let mut c = filled(100, 100, 6, &[1, 2, 3]);
        put(&mut c, 1, TEXT, "aa");
        put(&mut c, 2, TEXT, "bb");
        // 5 new bytes only fit after both older slots go.
        put(&mut c, 3, TEXT, "ccccc");
        assert!(cached(&c, 3, TEXT).is_some());
        assert_eq!(slot_state(&c), (1, 2, 5));
    }

    #[test]
    fn oversized_single_entry_is_dropped_by_the_budget() {
        let mut c = filled(100, 100, 4, &[1]);
        put(&mut c, 1, TEXT, "toolarge");
        assert_eq!((c.len(), slot_state(&c)), (1, (0, 1, 0)));
    }

    #[test]
    fn zero_budget_means_unlimited_bytes() {
        let mut c = filled(100, 100, 0, &(0..10).collect::<Vec<_>>());
        for t in 0..10 {
            put(&mut c, t, TEXT, "xxxxxxxx");
        }
        assert_eq!(slot_state(&c), (10, 0, 80));
    }

    #[test]
    fn purge_resets_bytes() {
        let mut c = filled(4, 4, 0, &[1]);
        put(&mut c, 1, TEXT, "xyz");
        c.purge();
        assert_eq!((c.len(), slot_state(&c)), (0, (0, 0, 0)));
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
        assert_eq!(ResponseCacheStats::from_bytes(&s.to_bytes()).unwrap(), s);
        for f in [TEXT, BINARY] {
            assert_eq!(WireFormat::from_bytes(&f.to_bytes()).unwrap(), f);
        }
        assert!(WireFormat::from_bytes(&[9]).is_err());
    }
}
