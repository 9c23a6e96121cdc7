//! # kvstore — persistent storage substrate
//!
//! The DeltaGraph index persists its deltas and leaf-eventlists in a
//! key–value store; the paper's prototype used Kyoto Cabinet and notes that
//! any store offering a `get`/`put` interface (HBase, Cassandra, ...) can be
//! plugged in instead (Section 1). This crate is that substrate, built from
//! scratch:
//!
//! * [`StoreKey`] — the composite key `⟨partition id, delta id, component⟩`
//!   of Section 4.2,
//! * [`KeyValueStore`] — the object-safe `get`/`put` trait the index relies on,
//! * [`MemStore`] — an in-memory store (used in tests and for the in-memory
//!   baselines),
//! * [`DiskStore`] — an append-only, CRC-checked, log-structured disk store
//!   with an in-memory index (the Kyoto Cabinet stand-in),
//! * [`PartitionedStore`] — a hash-partitioned wrapper over several stores,
//!   simulating the distributed deployment and enabling parallel fetches,
//! * [`StoreStats`] — byte/operation counters used by the benchmarks to
//!   report index sizes and I/O volumes,
//! * [`Wal`] — an append-only, CRC-checked write-ahead log of graph events
//!   (the durable tail of a sharded deployment),
//! * [`Segment`] — write-once, checksummed segment files, each a read-only
//!   store of one sealed historical shard's DeltaGraph payloads.

pub mod disk;
pub mod faults;
pub mod key;
pub mod mem;
pub mod partitioned;
pub mod segment;
pub mod stats;
pub mod store;
pub mod wal;

pub use disk::DiskStore;
pub use faults::FaultKind;
pub use key::{ComponentKind, StoreKey};
pub use mem::MemStore;
pub use partitioned::{NodePartitioner, PartitionedStore};
pub use segment::{Segment, SegmentMeta};
pub use stats::StoreStats;
pub use store::{KeyValueStore, StoreError, StoreResult};
pub use wal::{read_wal_events, wal_record_len, Wal, WalReplay, WalSyncPolicy};
