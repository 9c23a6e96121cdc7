//! # historygraph — a historical graph database
//!
//! A from-scratch Rust reproduction of *Khurana & Deshpande, "Efficient
//! Snapshot Retrieval over Historical Graph Data" (ICDE 2013)*. The system
//! stores the entire history of an evolving graph and supports efficient
//! retrieval of arbitrary historical snapshots — singly, in batches, over
//! intervals, or through Boolean time expressions — while keeping the current
//! state available for updates, and keeps the many retrieved snapshots in
//! memory compactly by overlaying them.
//!
//! The heavy lifting is done by the workspace crates re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`tgraph`] | temporal graph data model (events, snapshots, deltas) |
//! | [`kvstore`] | key–value storage substrate (memory / disk / partitioned) |
//! | [`deltagraph`] | the DeltaGraph hierarchical snapshot index |
//! | [`graphpool`] | the GraphPool overlaid in-memory multi-snapshot store |
//! | [`baselines`] | Copy+Log, Log, and interval-tree comparators |
//! | [`analytics`] | Pregel-like framework, PageRank, components, triangles |
//! | [`datagen`] | seeded synthetic datasets standing in for DBLP |
//!
//! This crate adds the system-level facade of Figure 2: [`GraphManager`]
//! (GraphPool maintenance), the embedded history manager (DeltaGraph
//! planning and I/O), and the query-manager duties of translating external
//! keys to internal ids and attribute-option strings into typed options.
//! On top of the facade sit [`SharedGraphManager`] (the concurrent
//! read/write split of one shard), the [`cache`] module's point cache,
//! which serves hot point retrievals from one reference-counted pool
//! overlay shared across sessions, together with its framed replies, and
//! the [`sharded`] module's [`ShardedGraphManager`]: a router over N
//! time-range shards (each a complete `SharedGraphManager` with its own
//! cache) so appends stop serializing against historical reads. The router is the serving
//! stack's only handle — the query executor and the TCP server take one,
//! with a single shard or many.
//!
//! ```
//! use historygraph::{GraphManager, GraphManagerConfig};
//! use tgraph::Timestamp;
//!
//! let trace = datagen::toy_trace();
//! let mut gm = GraphManager::build_in_memory(&trace.events, GraphManagerConfig::default()).unwrap();
//! // "Retrieve the historical graph structure along with node names as of time 6"
//! let handle = gm.get_hist_graph(Timestamp(6), "+node:name").unwrap();
//! let view = gm.graph(handle);
//! assert_eq!(view.node_count(), 3);
//! ```

pub use analytics;
pub use baselines;
pub use datagen;
pub use deltagraph;
pub use graphpool;
pub use kvstore;
pub use tgraph;

pub mod cache;
pub mod durable;
pub mod manager;
/// Unit tests of the point cache's byte slots, which the configuration
/// and the serving API call the response cache.
#[cfg(test)]
#[path = "cache_slot_tests.rs"]
mod response_cache;
pub mod sharded;
pub mod shared;
pub mod source;

pub use cache::{CacheEntryInfo, CacheOverview, CacheStats, ResponseCacheStats, WireFormat};
pub use durable::is_durable_dir;
pub use kvstore::wal::WalSyncPolicy;
pub use manager::{BatchOutcome, GraphManager, GraphManagerConfig};
pub use sharded::{
    HealthInfo, ShardHealth, ShardInfo, ShardedConfig, ShardedGraphManager, ShardedSession,
    StorageInfo,
};
pub use shared::{Built, CachedPoint, PoolSession, SharedGraphManager};
pub use source::DeltaGraphSource;
