//! # datagen — synthetic dataset and workload generators
//!
//! The paper evaluates on three traces: a DBLP co-authorship network
//! (growing-only, ~2M edge additions over seven decades, 10 random attributes
//! per node), a churn trace built on top of it (1M additions + 1M deletions),
//! and a large patent-citation-seeded trace used for the distributed
//! experiment. The raw DBLP extract is not redistributable, so this crate
//! generates seeded synthetic traces with the same *shape* as the first two
//! (the distributed experiment's claims are checked on Dataset 2):
//!
//! * [`dblp_like`] — growing-only preferential-attachment co-authorship-style
//!   trace with super-linear event density over time (Dataset 1),
//! * [`churn_trace`] — a growing base followed by an equal mix of edge
//!   additions and deletions (Dataset 2),
//! * [`queries`] — query-workload helpers (uniformly spaced time points,
//!   multipoint batches),
//! * [`labels`] — random node labels for the subgraph-pattern-matching
//!   auxiliary-index experiment (Section 4.7).
//!
//! Every generator is deterministic given its seed, so experiments are
//! reproducible run to run.

pub mod churn;
pub mod dblp;
pub mod labels;
pub mod queries;

pub use churn::{churn_trace, ChurnConfig};
pub use dblp::{dblp_like, DblpConfig};
pub use labels::{assign_labels, DEFAULT_LABELS};
pub use queries::{multipoint_batches, uniform_timepoints};

use tgraph::{EventList, Snapshot, Timestamp};

/// A generated dataset: its event trace plus bookkeeping used by benchmarks.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Short name ("dataset1", "dataset2", ...).
    pub name: &'static str,
    /// The full chronological event trace.
    pub events: EventList,
}

impl Dataset {
    /// First event time (panics on an empty trace).
    pub fn start_time(&self) -> Timestamp {
        self.events.start_time().expect("dataset is not empty")
    }

    /// Last event time (panics on an empty trace).
    pub fn end_time(&self) -> Timestamp {
        self.events.end_time().expect("dataset is not empty")
    }

    /// Replays the full trace into a snapshot of the final state.
    pub fn final_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.events
            .apply_all_forward(&mut snap)
            .expect("generated trace must be well formed");
        snap
    }

    /// Replays the trace up to `t` (inclusive). This is the *oracle* used by
    /// correctness tests: every index must retrieve exactly this snapshot.
    pub fn snapshot_at(&self, t: Timestamp) -> Snapshot {
        let mut snap = Snapshot::new();
        self.events
            .apply_prefix_forward(&mut snap, t)
            .expect("generated trace must be well formed");
        snap
    }
}

/// A tiny hand-written trace used by doc examples and cross-crate tests:
/// three nodes and two edges appear, one attribute changes, one edge is
/// removed again.
pub fn toy_trace() -> Dataset {
    use tgraph::{AttrValue, Event};
    let events = EventList::from_events(vec![
        Event::add_node(1, 1),
        Event::add_node(2, 2),
        Event::add_edge(3, 100, 1, 2),
        Event::set_node_attr(4, 1, "name", None, Some(AttrValue::from("alice"))),
        Event::add_node(5, 3),
        Event::add_edge(6, 101, 2, 3),
        Event::set_node_attr(
            7,
            1,
            "name",
            Some(AttrValue::from("alice")),
            Some(AttrValue::from("alicia")),
        ),
        Event::delete_edge(8, 100, 1, 2),
        Event::transient_edge(9, 3, 1, Some(AttrValue::from("ping"))),
        Event::add_edge(10, 102, 1, 3),
    ]);
    Dataset {
        name: "toy",
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{EdgeId, NodeId};

    #[test]
    fn toy_trace_replays_consistently() {
        let ds = toy_trace();
        assert_eq!(ds.start_time(), Timestamp(1));
        assert_eq!(ds.end_time(), Timestamp(10));
        let final_snap = ds.final_snapshot();
        assert_eq!(final_snap.node_count(), 3);
        assert_eq!(final_snap.edge_count(), 2);
        assert!(!final_snap.has_edge(EdgeId(100)));

        let mid = ds.snapshot_at(Timestamp(6));
        assert!(mid.has_edge(EdgeId(100)));
        assert!(mid.has_edge(EdgeId(101)));
        assert_eq!(
            mid.node_attr(NodeId(1), "name").and_then(|v| v.as_str()),
            Some("alice")
        );
    }

    #[test]
    fn snapshot_at_before_history_is_empty() {
        let ds = toy_trace();
        assert!(ds.snapshot_at(Timestamp(0)).is_empty());
    }
}
