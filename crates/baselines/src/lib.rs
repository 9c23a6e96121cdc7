//! # baselines — the snapshot-retrieval approaches DeltaGraph is compared to
//!
//! The paper's evaluation (Section 7) compares the DeltaGraph against prior
//! approaches, all of which are implemented here from scratch so the
//! comparison benchmarks exercise real code rather than estimates:
//!
//! * [`CopyLog`] — the Copy+Log approach: a full snapshot is persisted every
//!   `L` events together with the eventlists in between; a query loads the
//!   nearest stored snapshot and replays the remaining events.
//! * [`NaiveLog`] — the Log approach: only the events are stored; every query
//!   replays the trace from the beginning.
//! * [`IntervalTree`] — an in-memory interval tree over the validity
//!   intervals of every node, edge, and attribute value; a query is a
//!   stabbing query that assembles the snapshot from the matching intervals.
//!
//! All implement the common [`SnapshotSource`] trait so tests can swap them
//! freely.

pub mod copylog;
pub mod interval_tree;
pub mod log;
pub mod source;

pub use copylog::CopyLog;
pub use interval_tree::IntervalTree;
pub use log::NaiveLog;
pub use source::SnapshotSource;
