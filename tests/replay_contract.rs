//! The §3.1 replay contract, demonstrated and enforced.
//!
//! A `DeleteEdge` event carries only its endpoints and a `DeleteNode` only
//! its id, so backward replay can restore the *element* but not the
//! attributes (or, for nodes, incident edges) it carried when deleted.
//! Streams that delete still-attributed elements therefore produce
//! **layout-dependent snapshots**: whether a query happens to replay
//! forward from one materialized state or backward from another changes
//! the answer. The first test reproduces that hazard against the raw
//! DeltaGraph index; the rest prove the append boundary (`GraphManager`)
//! eliminates it by injecting clearing events.

use std::sync::Arc;

use historygraph::deltagraph::{DeltaGraph, DeltaGraphConfig};
use historygraph::kvstore::MemStore;
use historygraph::tgraph::{AttrOptions, AttrValue, Event, EventList, Snapshot, Timestamp};
use historygraph::{GraphManager, GraphManagerConfig};
use proptest::prelude::*;

/// A hand-built ill-formed stream: an edge and a node are deleted while
/// both still carry an attribute (and the node an incident edge history).
/// Every individual event is valid; only the §3.1 well-formedness contract
/// is violated.
fn ill_formed_stream() -> Vec<Event> {
    vec![
        Event::add_node(1, 10u64),
        Event::add_node(2, 11u64),
        Event::add_edge(3, 1u64, 10u64, 11u64),
        Event::set_node_attr(4, 10u64, "name", None, Some(AttrValue::Str("x".into()))),
        Event::set_edge_attr(5, 1u64, "w", None, Some(AttrValue::Int(7))),
        // Ill-formed: edge 1 still carries w=7, node 10 still carries name=x.
        Event::delete_edge(6, 1u64, 10u64, 11u64),
        Event::delete_node(7, 10u64),
        Event::add_node(8, 12u64),
    ]
}

fn build_raw(events: &EventList, leaf_size: usize) -> DeltaGraph {
    DeltaGraph::build(
        events,
        DeltaGraphConfig::new(leaf_size, 2),
        Arc::new(MemStore::new()),
    )
    .unwrap()
}

fn manager_with_leaf(leaf_size: usize) -> GraphManagerConfig {
    GraphManagerConfig::default().with_index(DeltaGraphConfig::new(leaf_size, 2))
}

/// Retrieves the full-attribute snapshot at `t` through the manager's
/// query path (which picks forward or backward replay by cost, i.e. by
/// layout).
fn manager_snapshot(gm: &mut GraphManager, t: i64) -> Snapshot {
    let id = gm
        .get_hist_graph(Timestamp(t), "+node:all+edge:all")
        .unwrap();
    let snap = gm.graph(id).to_snapshot();
    gm.release(id);
    snap
}

/// Regression: the pre-fix hazard, reproduced against the raw index by
/// appending the ill-formed stream below the boundary (exactly what the
/// old append path did). With `leaf_size = 1` every event folds into a
/// leaf and the point query at t=5 is answered *backward* across the
/// ill-formed deletes, re-adding node 10 and edge 1 bare; with
/// `leaf_size = 64` the events stay in the recent eventlist and the same
/// query replays *forward*, preserving `name=x` and `w=7`. Same stream,
/// two layouts, two different answers.
#[test]
fn raw_ill_formed_stream_yields_layout_dependent_snapshots() {
    let seed = EventList::from_events(vec![Event::add_node(0, 999u64)]);
    let opts = AttrOptions::all();
    let snapshot_at_5 = |leaf_size: usize| {
        let mut dg = build_raw(&seed, leaf_size);
        // Bypass the manager boundary: raw, unnormalized appends.
        dg.append_events(ill_formed_stream()).unwrap();
        dg.get_snapshot(Timestamp(5), &opts).unwrap()
    };
    let folded = snapshot_at_5(1);
    let recent = snapshot_at_5(64);
    assert_ne!(
        folded, recent,
        "expected the raw index to be layout-dependent over an ill-formed \
         stream; if this now agrees, the regression guard below is moot"
    );
    // The forward-replay oracle: the recent-eventlist layout matches it,
    // the folded layout silently lost both attributes.
    let mut oracle = Snapshot::new();
    oracle.apply_forward(&Event::add_node(0, 999u64)).unwrap();
    oracle
        .apply_events_forward(ill_formed_stream().iter().take_while(|ev| ev.time.0 <= 5))
        .unwrap();
    let oracle = oracle.project_attrs(&opts);
    assert_eq!(recent, oracle);
    assert_ne!(
        folded, oracle,
        "backward replay should have lost attributes"
    );
}

/// The fix: the same stream pushed through the append boundary is
/// normalized (clearing events injected inside the batch), and the two
/// layouts that disagreed above now answer every point query identically.
#[test]
fn boundary_normalization_restores_layout_independence() {
    let seed = EventList::from_events(vec![Event::add_node(0, 999u64)]);
    let mut fine = GraphManager::build_in_memory(&seed, manager_with_leaf(2)).unwrap();
    let mut coarse = GraphManager::build_in_memory(&seed, manager_with_leaf(8)).unwrap();

    for gm in [&mut fine, &mut coarse] {
        let outcome = gm.append_batch(ill_formed_stream()).unwrap();
        assert!(
            outcome.normalized >= 2,
            "boundary should inject clearing events for the attributed \
             edge and node, got {outcome:?}"
        );
        assert!(outcome.applied > ill_formed_stream().len() - 2);
    }
    for t in 0..=9 {
        assert_eq!(
            manager_snapshot(&mut fine, t),
            manager_snapshot(&mut coarse, t),
            "layouts disagree at t={t} even through the boundary"
        );
    }
}

/// The churn generator claims to emit §3.1-well-formed streams (attribute
/// clears and incident-edge deletes before every delete). Audit that claim
/// against the boundary itself: the whole trace must pass it with zero
/// injected clearing events.
#[test]
fn churn_trace_passes_the_reject_boundary_unmodified() {
    use historygraph::datagen::{churn_trace, ChurnConfig};
    let trace = churn_trace(&ChurnConfig::tiny(41));
    let events = trace.events.events();
    let seed = EventList::from_events(events[..1].to_vec());
    let mut gm = GraphManager::build_in_memory(&seed, manager_with_leaf(64)).unwrap();
    let outcome = gm.append_batch(events[1..].to_vec()).unwrap();
    assert_eq!(outcome.applied, events.len() - 1);
    assert_eq!(
        outcome.normalized, 0,
        "churn trace violated §3.1: the boundary had to normalize it"
    );
}

/// Tiny deterministic generator state: which elements are alive and which
/// still carry attributes, so every generated event is individually valid
/// while deletes are free to violate §3.1.
#[derive(Default)]
struct StreamGen {
    nodes: Vec<u64>,
    edges: Vec<(u64, u64, u64)>,
    next_node: u64,
    next_edge: u64,
}

impl StreamGen {
    fn step(&mut self, t: i64, choice: u64) -> Event {
        let nodes = self.nodes.len();
        let edges = self.edges.len();
        // Weight the menu by what is currently possible.
        match choice % 5 {
            _ if nodes == 0 => {
                self.next_node += 1;
                self.nodes.push(self.next_node);
                Event::add_node(t, self.next_node)
            }
            1 if nodes >= 2 => {
                self.next_edge += 1;
                let src = self.nodes[(choice / 7) as usize % nodes];
                let dst = self.nodes[(choice / 11) as usize % nodes];
                self.edges.push((self.next_edge, src, dst));
                Event::add_edge(t, self.next_edge, src, dst)
            }
            2 => {
                let node = self.nodes[(choice / 7) as usize % nodes];
                Event::set_node_attr(t, node, "a", None, Some(AttrValue::Int(choice as i64)))
            }
            3 if edges > 0 => {
                let (edge, src, dst) = self.edges.swap_remove((choice / 7) as usize % edges);
                // Deliberately no attribute clear first: ill-formed whenever
                // the edge was attributed.
                Event::delete_edge(t, edge, src, dst)
            }
            4 if nodes >= 2 => {
                let idx = (choice / 7) as usize % nodes;
                let node = self.nodes.swap_remove(idx);
                self.edges.retain(|&(_, s, d)| s != node && d != node);
                // Deliberately no clears: ill-formed whenever the node was
                // attributed or still had live incident edges.
                Event::delete_node(t, node)
            }
            _ => {
                self.next_node += 1;
                self.nodes.push(self.next_node);
                Event::add_node(t, self.next_node)
            }
        }
    }
}

proptest! {
    /// For random valid-but-possibly-ill-formed streams pushed through the
    /// boundary in random batch sizes, two managers with different index
    /// layouts report the same normalization count and answer every point
    /// query identically — the contract makes snapshots a function of the
    /// stream alone, never of the layout.
    #[test]
    fn prop_boundary_makes_snapshots_layout_independent(
        seed in 0u64..64,
        len in 4usize..28,
        batch_len in 1usize..6,
    ) {
        let base = EventList::from_events(vec![Event::add_node(0, 999u64)]);
        let mut fine = GraphManager::build_in_memory(&base, manager_with_leaf(1)).unwrap();
        let mut coarse = GraphManager::build_in_memory(&base, manager_with_leaf(64)).unwrap();

        // Deterministic xorshift-style choice stream off the seed.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut gen = StreamGen::default();
        let stream: Vec<Event> = (0..len).map(|i| gen.step(1 + i as i64, rng())).collect();

        for chunk in stream.chunks(batch_len) {
            let a = fine.append_batch(chunk.to_vec()).unwrap();
            let b = coarse.append_batch(chunk.to_vec()).unwrap();
            assert_eq!(a.applied, b.applied);
            assert_eq!(a.normalized, b.normalized);
        }
        for t in 0..=(len as i64 + 1) {
            assert_eq!(
                manager_snapshot(&mut fine, t),
                manager_snapshot(&mut coarse, t),
                "layouts disagree at t={t}"
            );
        }
    }
}
