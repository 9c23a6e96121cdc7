//! The router's reports: the payloads of `STATS SHARDS`, `STATS STORAGE`
//! and `STATS HEALTH`, with their codecs declared field by field.

use tgraph::Timestamp;

use crate::cache::{CacheStats, ResponseCacheStats};

/// Per-shard serving statistics, the payload of `STATS SHARDS`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Position of the shard in time order (the tail has the highest index).
    pub index: usize,
    /// Inclusive lower bound of the owned time range (`None` = unbounded).
    pub lower: Option<Timestamp>,
    /// Exclusive upper bound of the owned time range (`None` = unbounded;
    /// only the tail shard is unbounded above).
    pub upper: Option<Timestamp>,
    /// Real (non-seed) events the shard holds.
    pub events: usize,
    /// Active historical overlays in the shard's pool.
    pub overlays: usize,
    /// Entries in the shard's snapshot cache.
    pub cache_entries: usize,
    /// The shard's snapshot-cache counters.
    pub cache: CacheStats,
    /// Entries in the shard's rendered-response cache.
    pub response_entries: usize,
    /// The shard's response-cache counters.
    pub response: ResponseCacheStats,
    /// Queries the router sent to this shard: point retrievals, entity
    /// peeks, multipoint samples (one per sampled point), and interval or
    /// expression executions. Compare across shards to see skew.
    pub queries: u64,
    /// Events appended to this shard through the router (a rolled shard
    /// starts at 1: the append that triggered the roll).
    pub appends: u64,
}

tgraph::impl_codec!(ShardInfo {
    index,
    lower,
    upper,
    events,
    overlays,
    cache_entries,
    cache,
    response_entries,
    response,
    queries,
    appends
});

/// Durable-storage statistics, the payload of `STATS STORAGE`. All zeros
/// (with `durable == false`) for an in-memory deployment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StorageInfo {
    /// Whether the router persists to a data directory at all.
    pub durable: bool,
    /// The WAL sync policy in force (`"none"` when not durable).
    pub policy: String,
    /// Sealed historical-shard segment files on disk.
    pub segments: u64,
    /// Total bytes of sealed segment files.
    pub segment_bytes: u64,
    /// Current tail WAL length in bytes.
    pub wal_bytes: u64,
    /// WAL records written by this process (all tail generations).
    pub wal_appends: u64,
    /// `fsync` calls issued by this process (all tail generations).
    pub wal_fsyncs: u64,
    /// Bytes of torn tail truncated from the WAL and `keys.log` at the
    /// last recovery.
    pub torn_bytes: u64,
    /// Torn-tail truncations performed at the last recovery, across the
    /// WAL and `keys.log`.
    pub torn_truncations: u64,
    /// Wall-clock milliseconds the last recovery's open phase took:
    /// manifest read; each sealed segment's footer, key table, meta and
    /// skeleton read and checksummed (no payload block is read); the tail's
    /// seed file and WAL replay. Hydration on first touch is not included
    /// (see `shard_hydrate_us`). `0` = fresh build, never recovered.
    pub recovery_ms: u64,
}

tgraph::impl_codec!(StorageInfo {
    durable,
    policy,
    segments,
    segment_bytes,
    wal_bytes,
    wal_appends,
    wal_fsyncs,
    torn_bytes,
    torn_truncations,
    recovery_ms
});

/// One shard's health, part of the `STATS HEALTH` payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    /// Position of the shard in time order (the tail has the highest index).
    pub index: usize,
    /// `"ready"` (built and serving), `"cold"` (lazily recovered, not yet
    /// touched), `"quarantined"` (hydration failed; fast-failing until the
    /// retry window elapses), or `"degraded"` (the tail whose durable
    /// storage is read-only after a fatal write failure).
    pub state: String,
    /// Hydration attempts that have failed on this shard (monotonic).
    pub failures: u64,
}

tgraph::impl_codec!(ShardHealth {
    index,
    state,
    failures
});

/// Router-wide health, the payload of `STATS HEALTH`. Computed without
/// hydrating any shard, so a health probe is always cheap — even, and
/// especially, when parts of the deployment are broken.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthInfo {
    /// Per-shard state, in time order (tail last).
    pub shards: Vec<ShardHealth>,
    /// Whether the tail's durable storage is read-only after a fatal write
    /// failure (appends are refused; reads keep serving).
    pub degraded: bool,
    /// The error that degraded the tail (empty while healthy).
    pub degraded_reason: String,
    /// Shards currently quarantined.
    pub quarantined: u64,
    /// Failed hydration attempts summed over shards (monotonic).
    pub hydration_failures: u64,
    /// Transient storage-IO errors absorbed by retry so far.
    pub storage_retries: u64,
}

tgraph::impl_codec!(HealthInfo {
    shards,
    degraded,
    degraded_reason,
    quarantined,
    hydration_failures,
    storage_retries
});

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::codec::{Decode, Encode, Reader};

    #[test]
    fn shard_info_roundtrips_through_the_codec() {
        let info = ShardInfo {
            index: 2,
            lower: Some(Timestamp(-5)),
            upper: None,
            events: 42,
            overlays: 3,
            cache_entries: 2,
            cache: CacheStats {
                hits: 9,
                misses: 4,
                insertions: 4,
                invalidations: 1,
                evictions: 0,
            },
            response_entries: 1,
            response: ResponseCacheStats {
                hits: 7,
                misses: 2,
                insertions: 2,
                invalidations: 0,
                evictions: 1,
                bytes: 128,
            },
            queries: 17,
            appends: 5,
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        let decoded = ShardInfo::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(decoded, info);
    }

    #[test]
    fn storage_info_roundtrips_through_the_codec() {
        let info = StorageInfo {
            durable: true,
            policy: "interval=250".into(),
            segments: 3,
            segment_bytes: 4096,
            wal_bytes: 512,
            wal_appends: 17,
            wal_fsyncs: 5,
            torn_bytes: 7,
            torn_truncations: 1,
            recovery_ms: 42,
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        let decoded = StorageInfo::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(decoded, info);
    }

    #[test]
    fn health_info_roundtrips_through_the_codec() {
        let info = HealthInfo {
            shards: vec![
                ShardHealth {
                    index: 0,
                    state: "ready".into(),
                    failures: 0,
                },
                ShardHealth {
                    index: 1,
                    state: "quarantined".into(),
                    failures: 3,
                },
            ],
            degraded: true,
            degraded_reason: "injected EIO at wal.append".into(),
            quarantined: 1,
            hydration_failures: 3,
            storage_retries: 7,
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        let decoded = HealthInfo::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(decoded, info);
    }
}
