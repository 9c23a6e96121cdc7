//! # tgraph — temporal graph data model
//!
//! This crate provides the data model shared by every component of the
//! historical graph database described in *Khurana & Deshpande, "Efficient
//! Snapshot Retrieval over Historical Graph Data" (ICDE 2013)*:
//!
//! * [`NodeId`], [`EdgeId`], [`Timestamp`] — identifiers and discrete time,
//! * [`AttrValue`] / attribute maps — schema-less attribute lists on nodes and edges,
//! * [`Event`] — the atomic, bidirectional unit of change (Section 3.1 of the paper),
//! * [`EventList`] — a chronologically ordered list of events,
//! * [`Snapshot`] — a materialized graph as of one time point,
//! * [`ColumnGraph`] — the same graph as sorted columns, built by merging
//!   sorted delta runs and rendered without a sort,
//! * [`Delta`] — the columnar difference between two snapshots
//!   (split into structure / node-attribute / edge-attribute components, Section 4.2),
//! * [`AttrOptions`] — the `"+node:all-node:salary+edge:name"` retrieval options of Table 1,
//! * [`TimeExpression`] — multinomial Boolean expressions over time points (Section 3.2.1),
//! * [`codec`] — a compact, dependency-free binary encoding used by the storage layer.
//!
//! The crate deliberately knows nothing about *how* history is indexed; that
//! is the job of the `deltagraph` crate. Everything here is pure data plus
//! the algebra needed by the index: applying events forwards and backwards,
//! computing and applying deltas, and intersecting/merging snapshots.

pub mod attr;
pub mod attr_options;
pub mod codec;
pub mod columns;
pub mod delta;
pub mod error;
pub mod event;
pub mod eventlist;
pub mod fxhash;
pub mod ids;
pub mod snapshot;
pub mod time_expr;

pub use attr::{AttrMap, AttrValue};
pub use attr_options::{AttrOptions, AttrSelection};
pub use columns::ColumnGraph;
pub use delta::{Delta, DeltaComponent, EdgeRecord, StructDelta};
pub use error::{Result, TgError};
pub use event::{Event, EventKind};
pub use eventlist::EventList;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{EdgeId, NodeId, Timestamp};
pub use snapshot::{EdgeData, NodeData, Snapshot};
pub use time_expr::{BoolExpr, TimeExpression};
