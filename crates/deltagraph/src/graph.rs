//! The `DeltaGraph` index object: skeleton + persisted payloads + run-time
//! state (materialized nodes, the current graph, and the recent eventlist).

use std::collections::BTreeSet;
use std::sync::Arc;

use kvstore::{ComponentKind, KeyValueStore, NodePartitioner, StoreKey};
use tgraph::codec::Encode;
use tgraph::fxhash::FxHashMap;
use tgraph::{AttrOptions, Event, EventList, Snapshot, Timestamp};

use crate::config::DeltaGraphConfig;
use crate::error::{DgError, DgResult};
use crate::skeleton::{ComponentWeights, EdgePayload, LeafInterval, NodeIdx, Skeleton};
use crate::storage::PayloadStore;

/// Summary statistics describing an index instance, used by the benchmark
/// harness and by `Display` implementations in the facade.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Number of interior nodes (excluding the super-root).
    pub interior_nodes: usize,
    /// Height of the hierarchy (levels, excluding the super-root).
    pub height: u32,
    /// Total bytes of persisted payloads (deltas + eventlists), as reported
    /// by the backing store.
    pub stored_bytes: u64,
    /// Bytes of delta payloads alone, per component.
    pub delta_bytes: ComponentWeights,
    /// Approximate bytes of materialized in-memory graphs.
    pub materialized_bytes: usize,
    /// Number of materialized nodes.
    pub materialized_nodes: usize,
    /// Events in the recent (not yet indexed) eventlist.
    pub recent_events: usize,
}

/// What a sealed index keeps beside its payloads: the construction
/// parameters the payloads were written with, and the skeleton that names
/// them. Together with a store holding those payloads it is the whole index
/// ([`DeltaGraph::open_sealed`]).
#[derive(Clone, Debug)]
pub struct IndexImage {
    /// Construction parameters (partitions decide which keys hold a payload).
    pub config: DeltaGraphConfig,
    /// The skeleton, without run-time materialization marks.
    pub skeleton: Skeleton,
}

tgraph::impl_codec!(IndexImage { config, skeleton });

/// The DeltaGraph index over the history of one graph.
pub struct DeltaGraph {
    pub(crate) config: DeltaGraphConfig,
    pub(crate) skeleton: Skeleton,
    pub(crate) payloads: PayloadStore,
    /// Graphs of materialized skeleton nodes, kept in memory.
    pub(crate) materialized: FxHashMap<NodeIdx, Snapshot>,
    /// The current (latest) state of the graph, maintained for ongoing updates.
    pub(crate) current: Snapshot,
    /// Events newer than the last leaf, not yet folded into the index.
    pub(crate) recent: EventList,
    /// Next unused payload id.
    pub(crate) next_id: u64,
    /// Registered auxiliary indexes (Section 4.7).
    pub(crate) aux: Vec<crate::aux::AuxState>,
    /// Opened from a persisted image ([`DeltaGraph::open_sealed`]): no
    /// current graph, no appends.
    sealed: bool,
}

impl DeltaGraph {
    /// Assembles an index from its parts (used by the builder).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: DeltaGraphConfig,
        skeleton: Skeleton,
        payloads: PayloadStore,
        materialized: FxHashMap<NodeIdx, Snapshot>,
        current: Snapshot,
        recent: EventList,
        next_id: u64,
    ) -> Self {
        DeltaGraph {
            config,
            skeleton,
            payloads,
            materialized,
            current,
            recent,
            next_id,
            aux: Vec::new(),
            sealed: false,
        }
    }

    /// Opens a sealed index: the skeleton and parameters of `image` over a
    /// store holding the payloads they were written with (a segment file).
    /// Nothing is fetched or rebuilt; retrievals read the store on demand.
    /// A sealed index has no current graph and refuses appends with
    /// [`DgError::Sealed`].
    pub fn open_sealed(
        image: IndexImage,
        store: Arc<dyn KeyValueStore>,
        retrieval_threads: usize,
    ) -> DeltaGraph {
        let IndexImage { config, skeleton } = image;
        let payloads = PayloadStore::new(
            store,
            NodePartitioner::new(config.partitions),
            retrieval_threads,
        );
        DeltaGraph {
            config: DeltaGraphConfig {
                retrieval_threads,
                ..config
            },
            skeleton,
            payloads,
            materialized: FxHashMap::default(),
            current: Snapshot::new(),
            recent: EventList::new(),
            // Payload ids are only taken by writes, which a sealed index refuses.
            next_id: 0,
            aux: Vec::new(),
            sealed: true,
        }
    }

    /// What sealing this index writes: its [`IndexImage`], encoded, and
    /// every payload block its skeleton names, read back from the store in
    /// key order. Refused while events wait in the recent eventlist — the
    /// image has no place for them.
    #[allow(clippy::type_complexity)]
    pub fn sealed_parts(&self) -> DgResult<(Vec<u8>, Vec<(StoreKey, Vec<u8>)>)> {
        if !self.recent.is_empty() {
            return Err(DgError::InvalidParameter(format!(
                "cannot seal an index with {} unfolded recent events",
                self.recent.len()
            )));
        }
        let image = IndexImage {
            config: self.config.clone(),
            skeleton: self.skeleton.clone(),
        }
        .to_bytes();
        let ids: BTreeSet<u64> = self
            .skeleton
            .edges()
            .iter()
            .map(|e| e.payload.id())
            .collect();
        let store = self.payloads.backing_store();
        let mut blocks = Vec::new();
        for partition in 0..self.payloads.partition_count() {
            for &id in &ids {
                for component in [
                    ComponentKind::Structure,
                    ComponentKind::NodeAttr,
                    ComponentKind::EdgeAttr,
                    ComponentKind::Transient,
                ] {
                    let key = StoreKey::new(partition, id, component);
                    if let Some(bytes) = store.get(key)? {
                        blocks.push((key, bytes));
                    }
                }
            }
        }
        Ok((image, blocks))
    }

    /// Whether this index was opened sealed ([`DeltaGraph::open_sealed`]).
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// `Err(DgError::Sealed)` on a sealed index; writers check this before
    /// touching any state.
    pub fn ensure_appendable(&self) -> DgResult<()> {
        if self.sealed {
            return Err(DgError::Sealed);
        }
        Ok(())
    }

    /// Convenience constructor: builds the index over `events` using the
    /// given configuration and backing store.
    pub fn build(
        events: &EventList,
        config: DeltaGraphConfig,
        store: std::sync::Arc<dyn kvstore::KeyValueStore>,
    ) -> DgResult<Self> {
        crate::build::DeltaGraphBuilder::new(config, store).build(events)
    }

    /// Builds the index over a history that starts from `seed`, the graph
    /// as of `seed_time`, followed by `events` (see
    /// [`crate::build::DeltaGraphBuilder::build_seeded`]).
    pub fn build_seeded(
        seed: Snapshot,
        seed_time: Timestamp,
        events: &[Event],
        config: DeltaGraphConfig,
        store: std::sync::Arc<dyn kvstore::KeyValueStore>,
    ) -> DgResult<Self> {
        crate::build::DeltaGraphBuilder::new(config, store).build_seeded(seed, seed_time, events)
    }

    /// The construction parameters.
    pub fn config(&self) -> &DeltaGraphConfig {
        &self.config
    }

    /// The in-memory skeleton.
    pub fn skeleton(&self) -> &Skeleton {
        &self.skeleton
    }

    /// The payload store (deltas and eventlists).
    pub fn payload_store(&self) -> &PayloadStore {
        &self.payloads
    }

    /// The current (latest) graph state, maintained for appends. Empty for
    /// a sealed index, which takes no appends: retrieve its latest state
    /// with a query at or after its history's end instead.
    pub fn current_graph(&self) -> &Snapshot {
        &self.current
    }

    /// First and last time points covered by the index (including the recent
    /// eventlist).
    pub fn history_range(&self) -> DgResult<(Timestamp, Timestamp)> {
        let start = self.skeleton.history_start()?;
        let end = self
            .recent
            .end_time()
            .unwrap_or(self.skeleton.history_end()?);
        Ok((start, end))
    }

    /// Changes the number of threads used for parallel partition fetches.
    pub fn set_retrieval_threads(&mut self, threads: usize) {
        self.payloads.set_threads(threads);
    }

    /// Summary statistics for reporting.
    pub fn stats(&self) -> IndexStats {
        use crate::skeleton::SkeletonNodeKind;
        let interior = self
            .skeleton
            .nodes()
            .iter()
            .filter(|n| n.kind == SkeletonNodeKind::Interior)
            .count();
        IndexStats {
            leaves: self.skeleton.leaves().len(),
            interior_nodes: interior,
            height: self.skeleton.height(),
            stored_bytes: self.payloads.backing_store().stored_bytes(),
            delta_bytes: crate::build::delta_space_breakdown(&self.skeleton),
            materialized_bytes: self.materialized_memory(),
            materialized_nodes: self.materialized.len(),
            recent_events: self.recent.len(),
        }
    }

    // ------------------------------------------------------------------
    // Memory materialization (Section 4.5)
    // ------------------------------------------------------------------

    /// Materializes the graph of a skeleton node in memory. Subsequent query
    /// plans treat the node as a zero-cost source.
    pub fn materialize(&mut self, node: NodeIdx) -> DgResult<()> {
        if self.materialized.contains_key(&node) {
            return Ok(());
        }
        let graph = self.node_graph(node, &AttrOptions::all())?;
        self.materialized.insert(node, graph);
        self.skeleton.set_materialized(node, true)?;
        Ok(())
    }

    /// Drops a materialized graph from memory.
    pub fn unmaterialize(&mut self, node: NodeIdx) -> DgResult<()> {
        self.materialized.remove(&node);
        self.skeleton.set_materialized(node, false)?;
        Ok(())
    }

    /// Materializes the root (the single child of the super-root).
    pub fn materialize_root(&mut self) -> DgResult<NodeIdx> {
        let root = self.root()?;
        self.materialize(root)?;
        Ok(root)
    }

    /// Materializes every node exactly `depth` delta-levels below the root
    /// (1 = the root's children, 2 = its grandchildren, ...). Returns the
    /// materialized node indices.
    pub fn materialize_descendants(&mut self, depth: u32) -> DgResult<Vec<NodeIdx>> {
        let root = self.root()?;
        let mut frontier = vec![root];
        for _ in 0..depth {
            let mut next = Vec::new();
            for node in &frontier {
                next.extend(self.delta_children(*node));
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        for node in &frontier {
            self.materialize(*node)?;
        }
        Ok(frontier)
    }

    /// Total materialization: every leaf is materialized in memory, which
    /// reduces the DeltaGraph to the Copy+Log approach with the snapshots
    /// held in memory (Section 4.5).
    pub fn materialize_all_leaves(&mut self) -> DgResult<()> {
        // Replay leaf by leaf instead of planning each retrieval separately:
        // leaf i+1 = leaf i + eventlist i.
        let leaves: Vec<NodeIdx> = self.skeleton.leaves().to_vec();
        let intervals: Vec<LeafInterval> = self.skeleton.intervals().to_vec();
        let mut graph = self.first_leaf_graph()?;
        for (i, leaf) in leaves.iter().enumerate() {
            if i > 0 {
                let interval = &intervals[i - 1];
                let events = self.payloads.read_eventlist(
                    interval.eventlist_id,
                    &AttrOptions::all(),
                    false,
                )?;
                events.apply_all_forward(&mut graph)?;
            }
            if !self.materialized.contains_key(leaf) {
                self.materialized.insert(*leaf, graph.clone());
                self.skeleton.set_materialized(*leaf, true)?;
            }
        }
        Ok(())
    }

    /// Marks the most recent leaf as materialized using the in-memory current
    /// graph, exploiting the fact that the current graph is always resident
    /// (Section 4.5: "the rightmost leaf should also be considered
    /// materialized").
    pub fn materialize_current_leaf(&mut self) -> DgResult<NodeIdx> {
        let last = self.skeleton.last_leaf()?;
        if self.sealed {
            // No resident current graph: retrieve the leaf like any node.
            self.materialize(last)?;
            return Ok(last);
        }
        let mut graph = self.current.clone();
        // Undo the recent (not yet indexed) events to obtain the last leaf's
        // state.
        graph.apply_events_backward(self.recent.events())?;
        self.materialized.insert(last, graph);
        self.skeleton.set_materialized(last, true)?;
        Ok(last)
    }

    /// The graph of leaf 0 — the state the indexed history starts from: the
    /// empty graph, or the seed of [`DeltaGraph::build_seeded`].
    fn first_leaf_graph(&self) -> DgResult<Snapshot> {
        let first = *self.skeleton.leaves().first().ok_or(DgError::EmptyIndex)?;
        self.node_graph(first, &AttrOptions::all())
    }

    /// Approximate memory held by materialized graphs, in bytes.
    pub fn materialized_memory(&self) -> usize {
        self.materialized
            .values()
            .map(Snapshot::approx_memory)
            .sum()
    }

    /// Indices of currently materialized nodes.
    pub fn materialized_nodes(&self) -> Vec<NodeIdx> {
        let mut v: Vec<NodeIdx> = self.materialized.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The root node (single delta-child of the super-root).
    pub fn root(&self) -> DgResult<NodeIdx> {
        self.skeleton
            .edges_from(self.skeleton.super_root())
            .find(|e| matches!(e.payload, EdgePayload::Delta { .. }))
            .map(|e| e.to)
            .ok_or_else(|| DgError::NoPlan("super-root has no child".into()))
    }

    /// Children of a node reached through delta edges (the tree structure,
    /// excluding leaf-chain eventlist edges).
    pub fn delta_children(&self, node: NodeIdx) -> Vec<NodeIdx> {
        self.skeleton
            .edges_from(node)
            .filter(|e| matches!(e.payload, EdgePayload::Delta { .. }))
            .map(|e| e.to)
            .collect()
    }

    // ------------------------------------------------------------------
    // Updates to the current graph (Section 6, "Updates")
    // ------------------------------------------------------------------

    /// Applies a new event to the current graph and records it in the recent
    /// eventlist. Once the recent eventlist reaches the leaf size `L`, it is
    /// folded into the index as a new leaf.
    pub fn append_event(&mut self, event: Event) -> DgResult<()> {
        self.ensure_appendable()?;
        // Validate chronology before touching the current graph: the recent
        // list would reject the event below, but by then `apply_forward` has
        // already mutated `current`, leaving an event in the graph that no
        // eventlist records. When the recent list is empty (right after a
        // leaf fold, or after build), the bound is the end of indexed
        // history — otherwise an out-of-order event would create a leaf
        // interval that ends before it starts.
        let bound = self
            .recent
            .end_time()
            .or_else(|| self.skeleton.history_end().ok());
        if let Some(last) = bound {
            if event.time < last {
                return Err(DgError::Model(tgraph::TgError::InvalidEvent(format!(
                    "event at {} appended after event at {last}",
                    event.time
                ))));
            }
        }
        self.current.apply_forward(&event)?;
        self.recent.push(event).map_err(DgError::Model)?;
        if self.recent.len() >= self.config.leaf_size {
            self.integrate_recent()?;
        }
        Ok(())
    }

    /// Applies a batch of new events (must be chronologically ordered and not
    /// precede already-recorded events).
    pub fn append_events(&mut self, events: impl IntoIterator<Item = Event>) -> DgResult<()> {
        for ev in events {
            self.append_event(ev)?;
        }
        Ok(())
    }

    /// Events newer than the last indexed leaf.
    pub fn recent_events(&self) -> &EventList {
        &self.recent
    }

    /// Folds the recent eventlist into the index as a new leaf.
    ///
    /// The new leaf is connected to the previous last leaf through the usual
    /// bidirectional eventlist edges. It also receives a direct delta from
    /// the super-root — a full copy of the graph — but only when the chain
    /// has outgrown one: when the cheapest path from the super-root alone
    /// (weights under [`AttrOptions::all`]) costs more than twice that
    /// delta. So a folded leaf costs at most two full copies to read, and at
    /// most one copy is written per copy's worth of eventlists. The rule
    /// reads only the skeleton and the current graph, never materialized
    /// nodes, so replaying the same appends (a WAL recovery) makes the same
    /// decisions. Every registered auxiliary index gains the leaf's
    /// auxiliary snapshot. Re-balancing the interior hierarchy is deferred
    /// to a full rebuild (the paper likewise treats incremental hierarchy
    /// maintenance as out of scope).
    fn integrate_recent(&mut self) -> DgResult<()> {
        if self.recent.is_empty() {
            return Ok(());
        }
        let prev_leaf = self.skeleton.last_leaf()?;
        let prev_time = self
            .skeleton
            .node(prev_leaf)?
            .time
            .expect("leaves carry a time");
        let recent = std::mem::take(&mut self.recent);
        let leaf_time = recent.end_time().expect("non-empty");

        let eventlist_id = self.next_id;
        self.next_id += 1;
        let ev_weights = self.payloads.write_eventlist(eventlist_id, &recent)?;

        let leaf = self.skeleton.add_node(
            crate::skeleton::SkeletonNodeKind::Leaf,
            1,
            Some(leaf_time),
            self.current.element_count(),
        );
        self.skeleton.add_edge(
            prev_leaf,
            leaf,
            EdgePayload::EventsForward { eventlist_id },
            ev_weights,
        );
        self.skeleton.add_edge(
            leaf,
            prev_leaf,
            EdgePayload::EventsBackward { eventlist_id },
            ev_weights,
        );
        self.skeleton.add_interval(LeafInterval {
            eventlist_id,
            left_leaf: prev_leaf,
            right_leaf: leaf,
            start: prev_time,
            end: leaf_time,
            event_count: recent.len(),
            weights: ev_weights,
        });

        // A direct delta from the super-root, once the chain costs more than
        // twice one.
        let all = AttrOptions::all();
        let super_root = self.skeleton.super_root();
        let chain = self.skeleton.dijkstra(&[(super_root, 0)], &all)[leaf].map(|(c, _)| c);
        let delta = tgraph::Delta::between(&Snapshot::new(), &self.current);
        let delta_id = self.next_id;
        let (blocks, weights) = self.payloads.delta_blocks(delta_id, &delta);
        if chain.is_none_or(|c| c > 2 * weights.for_options(&all)) {
            self.next_id += 1;
            self.payloads.put_blocks(&blocks)?;
            self.skeleton
                .add_edge(super_root, leaf, EdgePayload::Delta { delta_id }, weights);
        }
        self.fold_aux_leaf(&recent)
    }

    /// Rebuilds the whole index from scratch over the full recorded history
    /// (previous index payloads are left in the store; a fresh store can be
    /// supplied to reclaim the space).
    pub fn rebuild(
        &self,
        store: std::sync::Arc<dyn kvstore::KeyValueStore>,
    ) -> DgResult<DeltaGraph> {
        let seed = self.first_leaf_graph()?;
        let mut all_events: Vec<Event> = Vec::new();
        for interval in self.skeleton.intervals() {
            let events =
                self.payloads
                    .read_eventlist(interval.eventlist_id, &AttrOptions::all(), true)?;
            all_events.extend(events.into_events());
        }
        all_events.extend(self.recent.events().iter().cloned());
        crate::build::DeltaGraphBuilder::new(self.config.clone(), store).build_seeded(
            seed,
            self.skeleton.history_start()?,
            &all_events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_appends_are_rejected_even_across_leaf_folds() {
        let (ds, mut dg) = small_index();
        let end = ds.end_time().raw();
        let leaf = dg.config().leaf_size;
        // Fill exactly one leaf so the recent list is folded and left empty,
        // then try to append into the past: the chronology guard must hold
        // against the indexed history, not just the (now empty) recent list.
        for i in 0..leaf {
            dg.append_event(Event::add_node(end + 1, 900_000 + i as u64))
                .unwrap();
        }
        assert!(dg.recent_events().is_empty(), "leaf fold should have fired");
        let before = dg.current_graph().clone();
        let err = dg
            .append_event(Event::add_node(end - 1, 999_999))
            .unwrap_err();
        assert!(err.to_string().contains("appended after"), "{err}");
        assert_eq!(
            *dg.current_graph(),
            before,
            "rejected event must not mutate"
        );
        // Equal-to-boundary times remain legal, as for EventList::push.
        dg.append_event(Event::add_node(end + 1, 999_998)).unwrap();
    }
    use crate::diff_fn::DifferentialFunction;
    use datagen::{dblp_like, DblpConfig};
    use kvstore::MemStore;
    use std::sync::Arc;
    use tgraph::codec::Decode;

    fn small_index() -> (datagen::Dataset, DeltaGraph) {
        let ds = dblp_like(&DblpConfig::tiny(21));
        let dg = DeltaGraph::build(
            &ds.events,
            DeltaGraphConfig::new(60, 2).with_diff_fn(DifferentialFunction::Intersection),
            Arc::new(MemStore::new()),
        )
        .unwrap();
        (ds, dg)
    }

    #[test]
    fn stats_reflect_structure() {
        let (_, dg) = small_index();
        let stats = dg.stats();
        assert!(stats.leaves > 2);
        assert!(stats.interior_nodes >= 1);
        assert!(stats.height >= 2);
        assert!(stats.stored_bytes > 0);
        assert_eq!(stats.materialized_nodes, 0);
        assert_eq!(stats.recent_events, 0);
    }

    #[test]
    fn root_and_children_navigation() {
        let (_, dg) = small_index();
        let root = dg.root().unwrap();
        let children = dg.delta_children(root);
        assert!(!children.is_empty());
        assert!(children.len() <= dg.config().arity);
    }

    #[test]
    fn materialize_and_unmaterialize_bookkeeping() {
        let (_, mut dg) = small_index();
        let root = dg.materialize_root().unwrap();
        assert!(dg.materialized_nodes().contains(&root));
        assert!(dg.skeleton().node(root).unwrap().materialized);
        // The Intersection root of a trace that starts from the empty graph
        // is (near-)empty; the current leaf is not.
        let last = dg.materialize_current_leaf().unwrap();
        assert!(dg.materialized_memory() > 0);
        assert_eq!(dg.materialized_nodes().len(), 2);
        dg.unmaterialize(root).unwrap();
        dg.unmaterialize(last).unwrap();
        assert!(dg.materialized_nodes().is_empty());
        assert!(!dg.skeleton().node(root).unwrap().materialized);
    }

    #[test]
    fn materialize_descendants_depths() {
        let (_, mut dg) = small_index();
        let children = dg.materialize_descendants(1).unwrap();
        assert!(!children.is_empty());
        let grandchildren_count = {
            let (_, mut dg2) = small_index();
            dg2.materialize_descendants(2).unwrap().len()
        };
        assert!(grandchildren_count >= children.len());
    }

    #[test]
    fn total_materialization_covers_all_leaves() {
        let (_, mut dg) = small_index();
        dg.materialize_all_leaves().unwrap();
        assert_eq!(dg.materialized_nodes().len(), dg.skeleton().leaves().len());
    }

    #[test]
    fn materialize_current_leaf_matches_last_leaf_state() {
        let (ds, mut dg) = small_index();
        let last = dg.materialize_current_leaf().unwrap();
        let leaf_time = dg.skeleton().node(last).unwrap().time.unwrap();
        let expected = ds.snapshot_at(leaf_time);
        assert_eq!(dg.materialized[&last], expected);
    }

    #[test]
    fn append_events_update_current_and_fold_into_index() {
        let (ds, mut dg) = small_index();
        let leaves_before = dg.skeleton().leaves().len();
        let end = ds.end_time().raw();
        let base_node = 900_000u64;
        // append slightly more than one leaf worth of events
        let leaf_size = dg.config().leaf_size;
        let mut events = Vec::new();
        for i in 0..(leaf_size as u64 + 5) {
            events.push(Event::add_node(end + 1 + i as i64, base_node + i));
        }
        dg.append_events(events).unwrap();
        assert!(dg.current_graph().has_node(tgraph::NodeId(base_node)));
        assert!(dg.skeleton().leaves().len() > leaves_before);
        assert!(dg.recent_events().len() < leaf_size);
        let (_, hist_end) = dg.history_range().unwrap();
        assert!(hist_end.raw() >= end + leaf_size as i64);
    }

    #[test]
    fn storage_formats_are_pinned() {
        // A sealed segment's index block holds these bytes: the config,
        // then the skeleton (docs/STORAGE.md).
        let events = EventList::from_events(vec![
            Event::add_node(1, 1),
            Event::add_node(2, 2),
            Event::add_edge(3, 7, 1, 2),
            Event::set_node_attr(4, 1, "k", None, Some(tgraph::AttrValue::Int(5))),
            Event::delete_edge(5, 7, 1, 2),
        ]);
        let dg = DeltaGraph::build(
            &events,
            DeltaGraphConfig::new(2, 2),
            Arc::new(MemStore::new()),
        )
        .unwrap();
        let (bytes, _) = dg.sealed_parts().unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "020200000000000000000000000000000000000108020101000002010104020102000002010108040201010a030102000301030000000400000d000101010900000001000201090000000200000200000000020100030600000001030104080b000003010204080b00000304010508000000040302050800000005030006080000000504000700000000060200080000000006050009060700000706000a000000000301000100040209000000040103040802080b0000050304080a0108000000");
        let image = IndexImage::from_bytes(&bytes).unwrap();
        assert_eq!(image.to_bytes(), bytes);
        assert_eq!(format!("{:?}", image.config), format!("{:?}", dg.config));
        assert_eq!(
            format!("{:?}", image.skeleton),
            format!("{:?}", dg.skeleton)
        );
    }

    #[test]
    fn a_sealed_index_answers_like_the_index_it_was_sealed_from() {
        let ds = datagen::churn_trace(&datagen::ChurnConfig::tiny(23));
        let dg = DeltaGraph::build(
            &ds.events,
            DeltaGraphConfig::new(40, 3).with_partitions(2),
            Arc::new(MemStore::new()),
        )
        .unwrap();
        let (image, blocks) = dg.sealed_parts().unwrap();
        let store = MemStore::new();
        for (key, value) in &blocks {
            store.put(*key, value).unwrap();
        }
        assert_eq!(store.stored_bytes(), dg.stats().stored_bytes);
        let image = IndexImage::from_bytes(&image).unwrap();
        let mut sealed = DeltaGraph::open_sealed(image, Arc::new(store), 1);
        assert!(sealed.is_sealed() && sealed.current_graph().is_empty());
        assert_eq!(sealed.history_range().unwrap(), dg.history_range().unwrap());
        let times = datagen::uniform_timepoints(ds.start_time(), ds.end_time(), 9);
        for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
            for &t in &times {
                assert_eq!(
                    sealed.get_snapshot(t, &opts).unwrap(),
                    dg.get_snapshot(t, &opts).unwrap()
                );
            }
            assert_eq!(
                sealed.get_snapshots(&times, &opts).unwrap(),
                dg.get_snapshots(&times, &opts).unwrap()
            );
        }
        let (lo, hi) = (times[2], times[5]);
        assert_eq!(
            sealed
                .get_snapshot_interval(lo, hi, &AttrOptions::all())
                .unwrap(),
            dg.get_snapshot_interval(lo, hi, &AttrOptions::all())
                .unwrap()
        );
        // The last leaf is retrieved, not taken from the (empty) current graph.
        let last = sealed.materialize_current_leaf().unwrap();
        let end = ds.end_time();
        assert_eq!(sealed.materialized[&last], ds.snapshot_at(end));
        // Appends are refused, typed, before anything changes.
        let leaves = sealed.skeleton().leaves().len();
        let err = sealed
            .append_event(Event::add_node(end.raw() + 1, 999_999))
            .unwrap_err();
        assert!(matches!(err, DgError::Sealed), "{err}");
        assert!(sealed.current_graph().is_empty() && sealed.recent_events().is_empty());
        assert_eq!(sealed.skeleton().leaves().len(), leaves);
        // A rebuild of a sealed index is a normal, appendable index.
        let rebuilt = sealed.rebuild(Arc::new(MemStore::new())).unwrap();
        assert_eq!(rebuilt.current_graph(), &ds.final_snapshot());
    }

    #[test]
    fn an_index_with_unfolded_events_refuses_to_seal() {
        let (ds, mut dg) = small_index();
        dg.append_event(Event::add_node(ds.end_time().raw() + 1, 777_777))
            .unwrap();
        assert!(dg.sealed_parts().is_err());
    }

    /// A churn trace (node and edge deletions, attributes) indexed over its
    /// first half, with leaves of `leaf_size` events; returns the trace and
    /// the index. The second half is for appending.
    fn half_built(leaf_size: usize) -> (datagen::Dataset, DeltaGraph, usize) {
        let ds = datagen::churn_trace(&datagen::ChurnConfig::tiny(51));
        let half = ds.events.len() / 2;
        let first = EventList::from_events(ds.events.events()[..half].to_vec());
        let dg = DeltaGraph::build(
            &first,
            DeltaGraphConfig::new(leaf_size, 2),
            Arc::new(MemStore::new()),
        )
        .unwrap();
        (ds, dg, half)
    }

    /// The super-root's delta edges into leaves folded after the build.
    fn copies_after(dg: &DeltaGraph, built_leaves: usize) -> Vec<NodeIdx> {
        let folded = &dg.skeleton().leaves()[built_leaves..];
        dg.skeleton()
            .edges_from(dg.skeleton().super_root())
            .filter(|e| matches!(e.payload, EdgePayload::Delta { .. }) && folded.contains(&e.to))
            .map(|e| e.to)
            .collect()
    }

    fn fold_selections() -> [AttrOptions; 3] {
        [
            AttrOptions::all(),
            AttrOptions::structure_only(),
            AttrOptions::parse("+node:name").unwrap(),
        ]
    }

    #[test]
    fn folds_write_a_full_copy_only_once_the_chain_outgrows_one() {
        let (ds, mut dg, half) = half_built(40);
        let built_leaves = dg.skeleton().leaves().len();
        let events = ds.events.events();
        let check = |dg: &DeltaGraph, upto: usize| {
            // Points before the appends, inside folded leaves, and after the
            // last fold, against the replay of every appended event <= t.
            let appended = EventList::from_events(events[..upto].to_vec());
            let end = events[upto - 1].time;
            for t in datagen::uniform_timepoints(ds.start_time(), end, 7) {
                let mut replay = Snapshot::new();
                appended.apply_prefix_forward(&mut replay, t).unwrap();
                for opts in fold_selections() {
                    let want = replay.project_attrs(&opts);
                    assert_eq!(dg.get_snapshot(t, &opts).unwrap(), want, "t={t} {opts:?}");
                }
            }
        };
        let mut leaves = built_leaves;
        for (i, ev) in events[half..].iter().enumerate() {
            dg.append_event(ev.clone()).unwrap();
            if dg.skeleton().leaves().len() > leaves {
                leaves = dg.skeleton().leaves().len();
                check(&dg, half + i + 1);
            }
        }
        check(&dg, events.len());
        let folded = dg.skeleton().leaves().len() - built_leaves;
        let copies = copies_after(&dg, built_leaves).len();
        assert!(folded >= 4, "only {folded} folds");
        assert!(copies >= 1, "no fold wrote a full copy");
        assert!(copies < folded, "every fold wrote a full copy");
    }

    #[test]
    fn a_fold_without_a_copy_stores_exactly_its_eventlist() {
        let (ds, mut dg, half) = half_built(40);
        let (mut saw_copy, mut saw_bare) = (false, false);
        for ev in &ds.events.events()[half..] {
            let (before, leaves) = (dg.stats().stored_bytes, dg.skeleton().leaves().len());
            let copies = copies_after(&dg, 0).len();
            dg.append_event(ev.clone()).unwrap();
            if dg.skeleton().leaves().len() == leaves {
                continue;
            }
            let grown = dg.stats().stored_bytes - before;
            let list = dg.skeleton().intervals().last().unwrap().weights.total() as u64;
            if copies_after(&dg, 0).len() == copies {
                saw_bare = true;
                assert_eq!(
                    grown, list,
                    "a fold without a copy stores its eventlist only"
                );
            } else {
                saw_copy = true;
                assert!(grown > list);
            }
        }
        assert!(saw_copy && saw_bare);
    }

    #[test]
    fn every_folded_leaf_costs_at_most_two_full_copies_and_its_eventlist() {
        let (ds, mut dg, half) = half_built(40);
        let built_leaves = dg.skeleton().leaves().len();
        dg.append_events(ds.events.events()[half..].iter().cloned())
            .unwrap();
        let all = AttrOptions::all();
        let best = dg
            .skeleton()
            .dijkstra(&[(dg.skeleton().super_root(), 0)], &all);
        let intervals = dg.skeleton().intervals();
        for (i, &leaf) in dg.skeleton().leaves().iter().enumerate().skip(built_leaves) {
            let t = dg.skeleton().node(leaf).unwrap().time.unwrap();
            let copy = tgraph::Delta::between(&Snapshot::new(), &ds.snapshot_at(t));
            let copy = dg
                .payload_store()
                .delta_blocks(0, &copy)
                .1
                .for_options(&all);
            let list = intervals[i - 1].weights.for_options(&all);
            let cost = best[leaf].expect("reachable").0;
            assert!(
                cost <= 2 * copy + list,
                "leaf {leaf}: cost {cost}, copy {copy}, list {list}"
            );
        }
    }

    #[test]
    fn replaying_the_same_appends_folds_the_same_skeleton() {
        // The original materializes its last leaf, as a running server
        // might; a replay from the log starts with nothing materialized.
        // The fold rule reads the super-root alone, so both fold alike.
        let (ds, mut original, half) = half_built(40);
        let (_, mut replay, _) = half_built(40);
        original.materialize_current_leaf().unwrap();
        for ev in &ds.events.events()[half..] {
            original.append_event(ev.clone()).unwrap();
            replay.append_event(ev.clone()).unwrap();
        }
        let edges = |dg: &DeltaGraph| -> Vec<(NodeIdx, NodeIdx, EdgePayload)> {
            dg.skeleton()
                .edges()
                .iter()
                .map(|e| (e.from, e.to, e.payload))
                .collect()
        };
        assert_eq!(edges(&original), edges(&replay));
        assert_eq!(original.stats().stored_bytes, replay.stats().stored_bytes);
    }

    #[test]
    fn rebuild_reproduces_current_graph() {
        let (_, mut dg) = small_index();
        let end = dg.history_range().unwrap().1.raw();
        dg.append_event(Event::add_node(end + 1, 777_777)).unwrap();
        let rebuilt = dg.rebuild(Arc::new(MemStore::new())).unwrap();
        assert_eq!(rebuilt.current_graph(), dg.current_graph());
        assert_eq!(rebuilt.recent_events().len(), 0);
    }
}
