//! # deltagraph — hierarchical index for historical graph snapshot retrieval
//!
//! This crate implements **DeltaGraph**, the primary contribution of
//! *Khurana & Deshpande, "Efficient Snapshot Retrieval over Historical Graph
//! Data" (ICDE 2013)*: a rooted, directed, largely hierarchical index over
//! the event history of an evolving graph.
//!
//! * The lowest level corresponds to equi-spaced snapshots of the network
//!   (never stored explicitly), chained together by *leaf-eventlists*.
//! * Interior nodes are synthetic graphs computed by a
//!   [`DifferentialFunction`] (Intersection, Union, Mixed, Balanced, ...);
//!   only the *deltas* on the edges are persisted, column-wise, in a
//!   key–value store (`kvstore` crate).
//! * A snapshot query is answered by finding the cheapest path from the
//!   super-root (or any materialized node) to the query's virtual node and
//!   applying the deltas and eventlist portion along it; multipoint queries
//!   are planned as Steiner trees so shared deltas are fetched once.
//! * Portions of the index can be materialized in memory at run time to trade
//!   memory for latency, without rebuilding anything.
//! * The structure is extensible: auxiliary information (e.g. a path index
//!   for subgraph pattern matching) can be maintained and retrieved alongside
//!   the graph itself.
//!
//! ```
//! use std::sync::Arc;
//! use deltagraph::{DeltaGraph, DeltaGraphConfig, DifferentialFunction};
//! use kvstore::MemStore;
//! use tgraph::{AttrOptions, Timestamp};
//!
//! let trace = datagen::toy_trace();
//! let dg = DeltaGraph::build(
//!     &trace.events,
//!     DeltaGraphConfig::new(3, 2).with_diff_fn(DifferentialFunction::Intersection),
//!     Arc::new(MemStore::new()),
//! ).unwrap();
//! let snapshot = dg.get_snapshot(Timestamp(6), &AttrOptions::all()).unwrap();
//! assert_eq!(snapshot, trace.snapshot_at(Timestamp(6)));
//! ```

pub mod aux;
pub mod build;
pub mod config;
pub mod diff_fn;
pub mod error;
pub mod form;
pub mod graph;
pub mod model;
mod net;
pub mod query;
pub mod skeleton;
pub mod storage;

pub use aux::{AuxEvent, AuxIndex, AuxSnapshot, PathIndex};
pub use build::DeltaGraphBuilder;
pub use config::DeltaGraphConfig;
pub use diff_fn::DifferentialFunction;
pub use error::{DgError, DgResult};
pub use form::GraphForm;
pub use graph::{DeltaGraph, IndexImage, IndexStats};
pub use query::{Anchor, PointPlan, Retrieval};
pub use skeleton::{ComponentWeights, EdgePayload, LeafInterval, NodeIdx, Skeleton};
pub use storage::PayloadStore;
