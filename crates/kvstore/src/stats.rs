//! Operation and byte counters.
//!
//! The paper-claims tests assert on index sizes (Figures 6, 9) and the
//! amount of data fetched per query (Figures 6–11), and histbench reports
//! both; every store keeps a [`StoreStats`] so those numbers come from the
//! storage layer itself rather than from estimates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing the traffic a store has served.
///
/// All counters are relaxed atomics: they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct StoreStats {
    gets: AtomicU64,
    get_misses: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A point-in-time copy of [`StoreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of `get` calls.
    pub gets: u64,
    /// Number of `get` calls that found no value.
    pub get_misses: u64,
    /// Number of `put` calls.
    pub puts: u64,
    /// Number of `delete` calls.
    pub deletes: u64,
    /// Total bytes returned by `get`.
    pub bytes_read: u64,
    /// Total bytes accepted by `put`.
    pub bytes_written: u64,
}

impl StoreStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        StoreStats::default()
    }

    /// Records a `get` that returned `bytes` bytes (`None` = miss).
    pub fn record_get(&self, bytes: Option<usize>) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        match bytes {
            Some(n) => {
                self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
            }
            None => {
                self.get_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records a `put` of `bytes` bytes.
    pub fn record_put(&self, bytes: usize) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a `delete`.
    pub fn record_delete(&self) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            get_misses: self.get_misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.gets.store(0, Ordering::Relaxed);
        self.get_misses.store(0, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.deletes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Difference between two snapshots (`self - earlier`), useful for
    /// measuring the traffic of a single query.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            gets: self.gets - earlier.gets,
            get_misses: self.get_misses - earlier.get_misses,
            puts: self.puts - earlier.puts,
            deletes: self.deletes - earlier.deletes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StoreStats::new();
        s.record_put(100);
        s.record_put(50);
        s.record_get(Some(100));
        s.record_get(None);
        s.record_delete();
        let snap = s.snapshot();
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.bytes_written, 150);
        assert_eq!(snap.gets, 2);
        assert_eq!(snap.get_misses, 1);
        assert_eq!(snap.bytes_read, 100);
        assert_eq!(snap.deletes, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = StoreStats::new();
        s.record_put(10);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn delta_since_measures_an_interval() {
        let s = StoreStats::new();
        s.record_get(Some(10));
        let before = s.snapshot();
        s.record_get(Some(20));
        s.record_put(5);
        let after = s.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.gets, 1);
        assert_eq!(d.bytes_read, 20);
        assert_eq!(d.puts, 1);
    }
}
