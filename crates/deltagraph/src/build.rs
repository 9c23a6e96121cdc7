//! Bottom-up, single-pass DeltaGraph construction (Section 4.6).
//!
//! The construction algorithm scans the chronological event trace once,
//! creating a leaf snapshot every `L` events. Whenever `k` snapshots have
//! accumulated at a level, a parent interior node is computed with the
//! differential function, the deltas from the parent to each child are
//! persisted, and the child snapshots are discarded. Finally a super-root
//! associated with the empty graph is placed above the topmost node.

use std::sync::Arc;

use kvstore::KeyValueStore;
use tgraph::fxhash::FxHashMap;
use tgraph::{Delta, Event, EventList, Snapshot, TgError, Timestamp};

use crate::config::DeltaGraphConfig;
use crate::error::{DgError, DgResult};
use crate::graph::DeltaGraph;
use crate::skeleton::{
    ComponentWeights, EdgePayload, LeafInterval, NodeIdx, Skeleton, SkeletonNodeKind,
};
use crate::storage::PayloadStore;

/// Builder that runs the single-pass construction.
pub struct DeltaGraphBuilder {
    config: DeltaGraphConfig,
    store: Arc<dyn KeyValueStore>,
}

impl DeltaGraphBuilder {
    /// Creates a builder with the given construction parameters and backing
    /// key–value store.
    pub fn new(config: DeltaGraphConfig, store: Arc<dyn KeyValueStore>) -> Self {
        DeltaGraphBuilder { config, store }
    }

    /// Builds the index over a complete historical event trace: the seeded
    /// construction from the empty graph one tick before the first event.
    pub fn build(self, events: &EventList) -> DgResult<DeltaGraph> {
        // An empty trace has no leaf-0 time; `build_seeded` rejects it.
        let seed_time = initial_leaf_time(events).unwrap_or(Timestamp::MIN);
        self.build_seeded(Snapshot::new(), seed_time, events.events())
    }

    /// Builds the index over a history that starts from `seed`, the graph
    /// as of `seed_time`, rather than from the empty graph: leaf 0 is
    /// `(seed_time, seed)` and `events` (chronological, none before
    /// `seed_time`) are cut into leaves after it. The seed costs one leaf
    /// graph — it is never replayed through leaf-eventlists — and a seed
    /// without events yields a one-leaf index. Time points before
    /// `seed_time` are outside the indexed history.
    pub fn build_seeded(
        self,
        seed: Snapshot,
        seed_time: Timestamp,
        events: &[Event],
    ) -> DgResult<DeltaGraph> {
        self.config.validate().map_err(DgError::InvalidParameter)?;
        if events.is_empty() && seed.is_empty() {
            return Err(DgError::EmptyIndex);
        }
        let mut last = seed_time;
        for ev in events {
            if ev.time < last {
                return Err(DgError::Model(TgError::InvalidEvent(format!(
                    "event at {} appended after event at {last}",
                    ev.time
                ))));
            }
            last = ev.time;
        }

        let payloads = PayloadStore::new(
            Arc::clone(&self.store),
            kvstore::NodePartitioner::new(self.config.partitions),
            self.config.retrieval_threads,
        );
        let mut skeleton = Skeleton::new();
        let mut next_id: u64 = 1;

        // Pending (not yet combined) nodes per level, oldest first.
        let mut pending: Vec<Vec<(NodeIdx, Snapshot)>> = vec![Vec::new()];
        let arity = self.config.arity;
        let diff_fn = self.config.diff_fn;

        // Leaf 0: the state before any event.
        let mut current = seed;
        let leaf0 = skeleton.add_node(
            SkeletonNodeKind::Leaf,
            1,
            Some(seed_time),
            current.element_count(),
        );
        pending[0].push((leaf0, current.clone()));

        let mut prev_leaf = leaf0;
        let mut prev_leaf_time = seed_time;
        for chunk in events.chunks(self.config.leaf_size) {
            let chunk = EventList::from_events(chunk.to_vec());
            // Persist the leaf-eventlist.
            let eventlist_id = next_id;
            next_id += 1;
            let weights = payloads.write_eventlist(eventlist_id, &chunk)?;

            // Advance the running graph and create the next leaf.
            chunk.apply_all_forward(&mut current)?;
            let leaf_time = chunk.end_time().expect("chunk non-empty");
            let leaf = skeleton.add_node(
                SkeletonNodeKind::Leaf,
                1,
                Some(leaf_time),
                current.element_count(),
            );

            // Bidirectional eventlist edges between consecutive leaves.
            skeleton.add_edge(
                prev_leaf,
                leaf,
                EdgePayload::EventsForward { eventlist_id },
                weights,
            );
            skeleton.add_edge(
                leaf,
                prev_leaf,
                EdgePayload::EventsBackward { eventlist_id },
                weights,
            );
            skeleton.add_interval(LeafInterval {
                eventlist_id,
                left_leaf: prev_leaf,
                right_leaf: leaf,
                start: prev_leaf_time,
                end: leaf_time,
                event_count: chunk.len(),
                weights,
            });

            pending[0].push((leaf, current.clone()));
            combine_full_groups(
                &mut skeleton,
                &payloads,
                &mut pending,
                &mut next_id,
                arity,
                diff_fn,
            )?;

            prev_leaf = leaf;
            prev_leaf_time = leaf_time;
        }

        // Flush partial groups upward until a single root remains.
        let root = flush_pending(
            &mut skeleton,
            &payloads,
            &mut pending,
            &mut next_id,
            arity,
            diff_fn,
        )?;

        // Super-root: the empty graph, one level above the root.
        let root_level = skeleton.node(root.0)?.level;
        let super_root = skeleton.add_node(SkeletonNodeKind::SuperRoot, root_level + 1, None, 0);
        let delta = Delta::between(&Snapshot::new(), &root.1);
        let delta_id = next_id;
        next_id += 1;
        let weights = payloads.write_delta(delta_id, &delta)?;
        skeleton.add_edge(super_root, root.0, EdgePayload::Delta { delta_id }, weights);

        Ok(DeltaGraph::from_parts(
            self.config,
            skeleton,
            payloads,
            FxHashMap::default(),
            current,
            EventList::new(),
            next_id,
        ))
    }
}

/// While any level has accumulated `arity` pending nodes, combine them into a
/// parent at the next level.
fn combine_full_groups(
    skeleton: &mut Skeleton,
    payloads: &PayloadStore,
    pending: &mut Vec<Vec<(NodeIdx, Snapshot)>>,
    next_id: &mut u64,
    arity: usize,
    diff_fn: crate::diff_fn::DifferentialFunction,
) -> DgResult<()> {
    let mut level = 0;
    while level < pending.len() {
        if pending[level].len() >= arity {
            let group: Vec<(NodeIdx, Snapshot)> = pending[level].drain(..arity).collect();
            let parent = combine_group(skeleton, payloads, next_id, diff_fn, group, level)?;
            if pending.len() <= level + 1 {
                pending.push(Vec::new());
            }
            pending[level + 1].push(parent);
            // A parent was added one level up; the next iteration of the loop
            // re-examines that level (do not advance `level`).
            if pending[level].len() >= arity {
                continue;
            }
            level += 1;
        } else {
            level += 1;
        }
    }
    Ok(())
}

/// Combines whatever is pending at each level (groups smaller than `arity`
/// are allowed at the end of the trace) until exactly one node remains, and
/// returns it together with its graph.
fn flush_pending(
    skeleton: &mut Skeleton,
    payloads: &PayloadStore,
    pending: &mut Vec<Vec<(NodeIdx, Snapshot)>>,
    next_id: &mut u64,
    arity: usize,
    diff_fn: crate::diff_fn::DifferentialFunction,
) -> DgResult<(NodeIdx, Snapshot)> {
    let mut level = 0;
    loop {
        // Is this the topmost non-empty level with a single node and nothing
        // above it? Then that node is the root.
        let above_empty = pending[level + 1..].iter().all(Vec::is_empty);
        if pending[level].len() == 1 && above_empty {
            return Ok(pending[level].pop().expect("checked length"));
        }
        if pending[level].is_empty() {
            level += 1;
            if level >= pending.len() {
                return Err(DgError::NoPlan("construction produced no root node".into()));
            }
            continue;
        }
        // Combine up to `arity` nodes (possibly fewer) into a parent.
        let take = pending[level].len().min(arity);
        let group: Vec<(NodeIdx, Snapshot)> = pending[level].drain(..take).collect();
        let parent = if group.len() == 1 {
            // Promote a lone node upward without creating a trivial parent.
            group.into_iter().next().expect("one element")
        } else {
            combine_group(skeleton, payloads, next_id, diff_fn, group, level)?
        };
        if pending.len() <= level + 1 {
            pending.push(Vec::new());
        }
        pending[level + 1].push(parent);
        if pending[level].is_empty() {
            level += 1;
        }
    }
}

/// Creates the interior node for `group`, persists the parent→child deltas,
/// and returns the new node with its graph.
fn combine_group(
    skeleton: &mut Skeleton,
    payloads: &PayloadStore,
    next_id: &mut u64,
    diff_fn: crate::diff_fn::DifferentialFunction,
    group: Vec<(NodeIdx, Snapshot)>,
    level: usize,
) -> DgResult<(NodeIdx, Snapshot)> {
    let (children, snapshots): (Vec<NodeIdx>, Vec<Snapshot>) = group.into_iter().unzip();
    let parent_graph = diff_fn.combine(&snapshots);
    let parent_idx = skeleton.add_node(
        SkeletonNodeKind::Interior,
        (level + 2) as u32,
        None,
        parent_graph.element_count(),
    );
    for (child_idx, child_graph) in children.into_iter().zip(&snapshots) {
        let delta = Delta::between(&parent_graph, child_graph);
        let delta_id = *next_id;
        *next_id += 1;
        let weights = payloads.write_delta(delta_id, &delta)?;
        skeleton.add_edge(
            parent_idx,
            child_idx,
            EdgePayload::Delta { delta_id },
            weights,
        );
    }
    Ok((parent_idx, parent_graph))
}

/// Timestamp of the leaf representing "the state before any event".
pub fn initial_leaf_time(events: &EventList) -> Option<Timestamp> {
    events.start_time().map(Timestamp::prev)
}

/// Per-component totals of every delta edge weight in a skeleton — the
/// "index size" broken down by column, used by the space-model validation and
/// the construction-parameter experiments (Figure 9).
pub fn delta_space_breakdown(skeleton: &Skeleton) -> ComponentWeights {
    let mut total = ComponentWeights::default();
    for edge in skeleton.edges() {
        if matches!(edge.payload, EdgePayload::Delta { .. }) {
            total.structure += edge.weights.structure;
            total.node_attr += edge.weights.node_attr;
            total.edge_attr += edge.weights.edge_attr;
            total.transient += edge.weights.transient;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff_fn::DifferentialFunction;
    use datagen::{dblp_like, toy_trace, DblpConfig};
    use kvstore::MemStore;

    fn build(events: &EventList, leaf_size: usize, arity: usize) -> DeltaGraph {
        DeltaGraphBuilder::new(
            DeltaGraphConfig::new(leaf_size, arity),
            Arc::new(MemStore::new()),
        )
        .build(events)
        .unwrap()
    }

    #[test]
    fn empty_trace_is_rejected() {
        let res = DeltaGraphBuilder::new(DeltaGraphConfig::default(), Arc::new(MemStore::new()))
            .build(&EventList::new());
        assert!(matches!(res, Err(DgError::EmptyIndex)));
    }

    fn build_seeded_at(cut: usize, leaf_size: usize) -> (datagen::Dataset, Timestamp, DeltaGraph) {
        let ds = toy_trace(); // 10 events
        let events = ds.events.events();
        let seed_time = events[cut].time.prev();
        let split = events.partition_point(|e| e.time <= seed_time);
        let dg = DeltaGraphBuilder::new(
            DeltaGraphConfig::new(leaf_size, 2),
            Arc::new(MemStore::new()),
        )
        .build_seeded(ds.snapshot_at(seed_time), seed_time, &events[split..])
        .unwrap();
        (ds, seed_time, dg)
    }

    #[test]
    fn seeded_build_indexes_only_the_events_after_the_seed() {
        let (ds, seed_time, dg) = build_seeded_at(6, 3);
        let after = ds.events.suffix_after(seed_time).len();
        assert_eq!(dg.skeleton().leaves().len(), 1 + after.div_ceil(3));
        assert_eq!(dg.history_range().unwrap().0, seed_time);
        assert_eq!(dg.current_graph(), &ds.final_snapshot());
        let opts = tgraph::AttrOptions::all();
        assert_eq!(
            dg.get_snapshot(seed_time, &opts).unwrap(),
            ds.snapshot_at(seed_time)
        );
        // Before the seed is outside the indexed history.
        assert!(dg.get_snapshot(seed_time.prev(), &opts).unwrap().is_empty());
    }

    #[test]
    fn a_seed_without_events_is_a_one_leaf_index() {
        let ds = toy_trace();
        let end = ds.end_time();
        let mut dg = DeltaGraphBuilder::new(DeltaGraphConfig::new(3, 2), Arc::new(MemStore::new()))
            .build_seeded(ds.final_snapshot(), end, &[])
            .unwrap();
        assert_eq!(dg.skeleton().leaves().len(), 1);
        assert!(dg.skeleton().intervals().is_empty());
        assert_eq!(dg.history_range().unwrap(), (end, end));
        let opts = tgraph::AttrOptions::all();
        for t in [end, end.next(), Timestamp(end.raw() + 100)] {
            assert_eq!(dg.get_snapshot(t, &opts).unwrap(), ds.final_snapshot());
        }
        assert_eq!(
            dg.get_snapshots(&[end.prev(), end], &opts).unwrap(),
            vec![Snapshot::new(), ds.final_snapshot()]
        );
        // It ingests like any other index, folding leaves as they fill.
        for i in 1..=4 {
            dg.append_event(Event::add_node(end.raw() + i, 9000 + i as u64))
                .unwrap();
        }
        assert_eq!(dg.skeleton().leaves().len(), 2);
        let mid = dg.get_snapshot(Timestamp(end.raw() + 2), &opts).unwrap();
        assert_eq!(mid.node_count(), ds.final_snapshot().node_count() + 2);
        let rebuilt = dg.rebuild(Arc::new(MemStore::new())).unwrap();
        assert_eq!(
            rebuilt.history_range().unwrap(),
            dg.history_range().unwrap()
        );
        assert_eq!(
            rebuilt.get_snapshot(end, &opts).unwrap(),
            ds.final_snapshot()
        );
    }

    #[test]
    fn seeded_build_rejects_unordered_or_unseedable_input() {
        let ds = toy_trace();
        let events = ds.events.events();
        let builder =
            || DeltaGraphBuilder::new(DeltaGraphConfig::new(3, 2), Arc::new(MemStore::new()));
        // An event before the seed time.
        let res = builder().build_seeded(Snapshot::new(), events[0].time.next(), events);
        assert!(matches!(res, Err(DgError::Model(_))));
        // Events out of order among themselves.
        let mut swapped = events.to_vec();
        swapped.swap(0, events.len() - 1);
        let res = builder().build_seeded(Snapshot::new(), Timestamp::MIN, &swapped);
        assert!(matches!(res, Err(DgError::Model(_))));
        // Nothing at all.
        let res = builder().build_seeded(Snapshot::new(), Timestamp(0), &[]);
        assert!(matches!(res, Err(DgError::EmptyIndex)));
        // An event the seed graph cannot take (the node already exists).
        let seed = ds.final_snapshot();
        let (taken, _) = seed.nodes().next().expect("the toy graph has nodes");
        let dup = Event::add_node(ds.end_time().raw() + 1, taken.0);
        let res = builder().build_seeded(seed, ds.end_time(), &[dup]);
        assert!(matches!(res, Err(DgError::Model(_))));
        // Auxiliary indexes derive their state from events; a seed has none.
        let (_, _, mut dg) = build_seeded_at(6, 3);
        let res = dg.build_aux_index(Box::new(crate::aux::PathIndex::new("label")));
        assert!(matches!(res, Err(DgError::InvalidParameter(_))));
    }

    #[test]
    fn total_materialization_of_a_seeded_index_starts_from_the_seed() {
        let (ds, seed_time, mut dg) = build_seeded_at(6, 2);
        dg.materialize_all_leaves().unwrap();
        let opts = tgraph::AttrOptions::all();
        for t in [seed_time, seed_time.next(), ds.end_time()] {
            assert_eq!(dg.get_snapshot(t, &opts).unwrap(), ds.snapshot_at(t));
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let res = DeltaGraphBuilder::new(DeltaGraphConfig::new(0, 2), Arc::new(MemStore::new()))
            .build(&toy_trace().events);
        assert!(matches!(res, Err(DgError::InvalidParameter(_))));
    }

    #[test]
    fn leaf_count_matches_chunking() {
        let ds = toy_trace(); // 10 events
        let dg = build(&ds.events, 3, 2);
        // ceil(10/3) = 4 chunks -> 5 leaves
        assert_eq!(dg.skeleton().leaves().len(), 5);
        assert_eq!(dg.skeleton().intervals().len(), 4);
        assert!(dg.skeleton().is_populated());
    }

    #[test]
    fn binary_tree_shape_for_power_of_two_leaves() {
        let ds = dblp_like(&DblpConfig {
            total_edges: 100,
            attrs_per_node: 1,
            ..DblpConfig::tiny(1)
        });
        let n_events = ds.events.len();
        // pick L so that we get close to 8 chunks
        let leaf_size = n_events.div_ceil(8);
        let dg = build(&ds.events, leaf_size, 2);
        let leaves = dg.skeleton().leaves().len();
        assert!(leaves >= 8);
        // every interior node has at most `arity` children via delta edges
        for node in dg.skeleton().nodes() {
            if node.kind == SkeletonNodeKind::Interior {
                let children = dg
                    .skeleton()
                    .edges_from(node.idx)
                    .filter(|e| matches!(e.payload, EdgePayload::Delta { .. }))
                    .count();
                assert!(children <= 2, "interior node with {children} children");
                assert!(children >= 1);
            }
        }
    }

    #[test]
    fn higher_arity_gives_lower_height() {
        let ds = dblp_like(&DblpConfig::tiny(5));
        let dg2 = build(&ds.events, 40, 2);
        let dg8 = build(&ds.events, 40, 8);
        assert!(dg8.skeleton().height() < dg2.skeleton().height());
    }

    #[test]
    fn super_root_has_single_child_and_empty_graph() {
        let ds = toy_trace();
        let dg = build(&ds.events, 2, 2);
        let sr = dg.skeleton().super_root();
        assert_eq!(dg.skeleton().node(sr).unwrap().element_count, 0);
        let out: Vec<_> = dg.skeleton().edges_from(sr).collect();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, EdgePayload::Delta { .. }));
    }

    #[test]
    fn current_graph_equals_full_replay() {
        let ds = dblp_like(&DblpConfig::tiny(9));
        let dg = build(&ds.events, 50, 3);
        assert_eq!(dg.current_graph(), &ds.final_snapshot());
    }

    #[test]
    fn every_interval_is_covered_without_gaps() {
        let ds = dblp_like(&DblpConfig::tiny(11));
        let dg = build(&ds.events, 37, 2);
        let intervals = dg.skeleton().intervals();
        for pair in intervals.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(
            intervals.first().unwrap().start,
            initial_leaf_time(&ds.events).unwrap()
        );
        assert_eq!(intervals.last().unwrap().end, ds.events.end_time().unwrap());
    }

    #[test]
    fn empty_function_stores_full_copies() {
        let ds = dblp_like(&DblpConfig::tiny(13));
        let copy_log = DeltaGraphBuilder::new(
            DeltaGraphConfig::new(60, 2).with_diff_fn(DifferentialFunction::Empty),
            Arc::new(MemStore::new()),
        )
        .build(&ds.events)
        .unwrap();
        let intersection = DeltaGraphBuilder::new(
            DeltaGraphConfig::new(60, 2).with_diff_fn(DifferentialFunction::Intersection),
            Arc::new(MemStore::new()),
        )
        .build(&ds.events)
        .unwrap();
        // Copy+Log (Empty) must use more delta space than Intersection on a
        // growing-only trace.
        let copy_space = delta_space_breakdown(copy_log.skeleton()).total();
        let int_space = delta_space_breakdown(intersection.skeleton()).total();
        assert!(
            copy_space > int_space,
            "empty={copy_space} intersection={int_space}"
        );
    }

    #[test]
    fn partitioned_build_produces_same_current_graph() {
        let ds = dblp_like(&DblpConfig::tiny(17));
        let single = build(&ds.events, 50, 2);
        let partitioned = DeltaGraphBuilder::new(
            DeltaGraphConfig::new(50, 2).with_partitions(4),
            Arc::new(MemStore::new()),
        )
        .build(&ds.events)
        .unwrap();
        assert_eq!(single.current_graph(), partitioned.current_graph());
    }
}
