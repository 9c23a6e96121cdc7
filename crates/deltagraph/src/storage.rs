//! Columnar, partitioned persistence of deltas and leaf-eventlists.
//!
//! Deltas and eventlists are given unique ids and stored column-wise,
//! separating structure from attribute information, under the composite key
//! `⟨partition id, delta id, component⟩` (Section 4.2). Each object is split
//! into one part per horizontal partition (by hashing the node id of the
//! concerned element), so that a distributed deployment stores and fetches
//! the parts independently and in parallel.

use std::sync::Arc;

use kvstore::{ComponentKind, KeyValueStore, NodePartitioner, StoreKey};
use tgraph::codec::{visit_assignments, write_varint, Decode, Encode, Reader};
use tgraph::columns::Assignment;
use tgraph::delta::AttrAssignment;
use tgraph::event::EventCategory;
use tgraph::{
    AttrOptions, Delta, EdgeId, Event, EventList, NodeId, StructDelta, TgError, Timestamp,
};

use crate::error::DgResult;
use crate::form::GraphForm;
use crate::skeleton::ComponentWeights;

/// Writes and reads deltas / eventlists for one DeltaGraph instance.
///
/// Payload ids are write-once: an index takes each id from a counter that
/// only grows, writes its payload once, and never rewrites or deletes it.
/// A plan that names ids therefore stays valid while the index keeps
/// changing, which is what lets a [`crate::query::Retrieval`] execute with
/// no lock on the index. Cloning shares the backing store.
#[derive(Clone)]
pub struct PayloadStore {
    store: Arc<dyn KeyValueStore>,
    partitioner: NodePartitioner,
    /// Threads used to fetch partitions in parallel (1 = sequential).
    threads: usize,
}

impl PayloadStore {
    /// Creates a payload store over `store` with the given partitioning.
    pub fn new(
        store: Arc<dyn KeyValueStore>,
        partitioner: NodePartitioner,
        threads: usize,
    ) -> Self {
        PayloadStore {
            store,
            partitioner,
            threads: threads.max(1),
        }
    }

    /// The underlying key–value store.
    pub fn backing_store(&self) -> &Arc<dyn KeyValueStore> {
        &self.store
    }

    /// The node-id partitioner.
    pub fn partitioner(&self) -> NodePartitioner {
        self.partitioner
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitioner.partition_count()
    }

    /// Sets the number of parallel fetch threads (used by the multicore
    /// retrieval experiment).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    // ------------------------------------------------------------------
    // Deltas
    // ------------------------------------------------------------------

    /// Persists `delta` under `id`, columnar and partitioned. Returns the
    /// per-component serialized sizes (summed over partitions), which become
    /// the skeleton edge weights.
    pub fn write_delta(&self, id: u64, delta: &Delta) -> DgResult<ComponentWeights> {
        let (blocks, weights) = self.delta_blocks(id, delta);
        self.put_blocks(&blocks)?;
        Ok(weights)
    }

    /// What [`PayloadStore::write_delta`] would store for `delta` under
    /// `id`, without storing it: the blocks and their weights.
    pub(crate) fn delta_blocks(
        &self,
        id: u64,
        delta: &Delta,
    ) -> (Vec<(StoreKey, Vec<u8>)>, ComponentWeights) {
        let parts = partition_delta(delta, &self.partitioner);
        let mut weights = ComponentWeights::default();
        let mut blocks = Vec::new();
        for (partition, part) in parts.iter().enumerate() {
            let partition = partition as u32;
            if !part.structure.is_empty() {
                let bytes = part.structure.to_bytes();
                weights.structure += bytes.len();
                blocks.push((
                    StoreKey::new(partition, id, ComponentKind::Structure),
                    bytes,
                ));
            }
            if !part.node_attrs.is_empty() {
                let bytes = part.node_attrs.to_bytes();
                weights.node_attr += bytes.len();
                blocks.push((StoreKey::new(partition, id, ComponentKind::NodeAttr), bytes));
            }
            if !part.edge_attrs.is_empty() {
                let bytes = part.edge_attrs.to_bytes();
                weights.edge_attr += bytes.len();
                blocks.push((StoreKey::new(partition, id, ComponentKind::EdgeAttr), bytes));
            }
        }
        (blocks, weights)
    }

    /// Stores blocks from [`PayloadStore::delta_blocks`].
    pub(crate) fn put_blocks(&self, blocks: &[(StoreKey, Vec<u8>)]) -> DgResult<()> {
        for (key, bytes) in blocks {
            self.store.put(*key, bytes)?;
        }
        Ok(())
    }

    /// Reads the delta stored under `id`, restricted to the components
    /// required by `opts`.
    pub fn read_delta(&self, id: u64, opts: &AttrOptions) -> DgResult<Delta> {
        let keys = self.keys_for(id, &attr_components(opts, false));
        let values = self.fetch(&keys)?;

        let mut delta = Delta::new();
        for (key, value) in keys.iter().zip(values) {
            let Some(bytes) = value else { continue };
            match key.component {
                ComponentKind::Structure => {
                    delta
                        .structure
                        .extend(StructDelta::from_bytes(&bytes).map_err(tg)?);
                }
                ComponentKind::NodeAttr => {
                    let part: Vec<AttrAssignment<NodeId>> = Vec::from_bytes(&bytes).map_err(tg)?;
                    delta.node_attrs.extend(part);
                }
                ComponentKind::EdgeAttr => {
                    let part: Vec<AttrAssignment<EdgeId>> = Vec::from_bytes(&bytes).map_err(tg)?;
                    delta.edge_attrs.extend(part);
                }
                _ => {}
            }
        }
        Ok(delta)
    }

    /// Applies the delta stored under `id` to `graph` as it decodes it:
    /// what [`PayloadStore::read_delta`], dropping the attributes `opts`
    /// does not select, and then [`Delta::apply_to`] do, without building
    /// the intermediate [`Delta`] — into a [`tgraph::ColumnGraph`] as one
    /// linear merge per column ([`tgraph::ColumnGraph::apply`]), into a
    /// [`tgraph::Snapshot`] through its indexes. Each attribute column is
    /// read with its keys borrowed and filtered by `opts` before anything
    /// is kept. The runs of several partitions are merged into one run per
    /// column first.
    ///
    /// Every run must be sorted with no repeats, as every write path
    /// stores it ([`Delta::between`] sorts, and [`partition_delta`] keeps
    /// each partition's order); a payload that is not, or that fails to
    /// decode, is an error, and `graph` is then unspecified.
    pub fn apply_delta<G: GraphForm>(
        &self,
        id: u64,
        opts: &AttrOptions,
        graph: &mut G,
    ) -> DgResult<()> {
        let keys = self.keys_for(id, &attr_components(opts, false));
        let values = self.fetch(&keys)?;
        let mut structure: Vec<StructDelta> = Vec::new();
        let mut node_runs: Vec<Vec<Assignment<'_, NodeId>>> = Vec::new();
        let mut edge_runs: Vec<Vec<Assignment<'_, EdgeId>>> = Vec::new();
        for (key, value) in keys.iter().zip(&values) {
            let Some(bytes) = value else { continue };
            match key.component {
                ComponentKind::Structure => {
                    structure.push(StructDelta::from_bytes(bytes).map_err(tg)?);
                }
                ComponentKind::NodeAttr => {
                    node_runs.push(read_run(bytes, |k| opts.wants_node_attr(k))?);
                }
                ComponentKind::EdgeAttr => {
                    edge_runs.push(read_run(bytes, |k| opts.wants_edge_attr(k))?);
                }
                _ => {}
            }
        }
        let structure = structure
            .into_iter()
            .reduce(|a, b| StructDelta {
                add_nodes: merge_runs(a.add_nodes, b.add_nodes, |n| *n),
                del_nodes: merge_runs(a.del_nodes, b.del_nodes, |n| *n),
                add_edges: merge_runs(a.add_edges, b.add_edges, |r| r.edge),
                del_edges: merge_runs(a.del_edges, b.del_edges, |r| r.edge),
            })
            .unwrap_or_default();
        let node_attrs = node_runs
            .into_iter()
            .reduce(|a, b| merge_runs(a, b, |a| (a.0, a.1)))
            .unwrap_or_default();
        let edge_attrs = edge_runs
            .into_iter()
            .reduce(|a, b| merge_runs(a, b, |a| (a.0, a.1)))
            .unwrap_or_default();
        graph.apply_runs(&structure, node_attrs, edge_attrs)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Eventlists
    // ------------------------------------------------------------------

    /// Persists a leaf-eventlist under `id`, columnar and partitioned. The
    /// position of each event in the original list is stored alongside it so
    /// that the exact event order can be reconstructed after merging
    /// partitions and columns.
    pub fn write_eventlist(&self, id: u64, events: &EventList) -> DgResult<ComponentWeights> {
        let partitions = self.partitioner.partition_count() as usize;
        // per partition, per category: (index, event)
        let mut buckets: Vec<[Vec<(u64, &Event)>; 4]> = (0..partitions)
            .map(|_| [Vec::new(), Vec::new(), Vec::new(), Vec::new()])
            .collect();
        for (i, ev) in events.events().iter().enumerate() {
            let partition = self.partition_of_event(ev) as usize;
            let cat = category_slot(ev.category());
            buckets[partition][cat].push((i as u64, ev));
        }
        let mut weights = ComponentWeights::default();
        for (partition, cats) in buckets.iter().enumerate() {
            for (slot, items) in cats.iter().enumerate() {
                if items.is_empty() {
                    continue;
                }
                let bytes = encode_indexed_events(items);
                let component = slot_component(slot);
                match component {
                    ComponentKind::Structure => weights.structure += bytes.len(),
                    ComponentKind::NodeAttr => weights.node_attr += bytes.len(),
                    ComponentKind::EdgeAttr => weights.edge_attr += bytes.len(),
                    ComponentKind::Transient => weights.transient += bytes.len(),
                    _ => {}
                }
                self.store
                    .put(StoreKey::new(partition as u32, id, component), &bytes)?;
            }
        }
        Ok(weights)
    }

    /// Reads the eventlist stored under `id`, restricted to the components
    /// required by `opts` (plus the transient column when
    /// `include_transient`). Events are returned in their original order.
    pub fn read_eventlist(
        &self,
        id: u64,
        opts: &AttrOptions,
        include_transient: bool,
    ) -> DgResult<EventList> {
        let columns = self.eventlist_columns(id, opts, include_transient)?;
        Ok(EventList::from_events(decode_events(
            &columns,
            EventSpan::All,
        )?))
    }

    /// The stored columns of eventlist `id` that [`PayloadStore::read_eventlist`]
    /// reads, for [`decode_events`].
    pub(crate) fn eventlist_columns(
        &self,
        id: u64,
        opts: &AttrOptions,
        include_transient: bool,
    ) -> DgResult<Vec<Vec<u8>>> {
        let keys = self.keys_for(id, &attr_components(opts, include_transient));
        Ok(self.fetch(&keys)?.into_iter().flatten().collect())
    }

    // ------------------------------------------------------------------
    // Auxiliary-index payloads (Section 4.7)
    // ------------------------------------------------------------------

    /// Persists an opaque auxiliary payload under `id` (single column, all
    /// partitions collapse to partition 0 — auxiliary indexes are small).
    pub fn write_aux(&self, id: u64, bytes: &[u8]) -> DgResult<usize> {
        self.store
            .put(StoreKey::new(0, id, ComponentKind::Auxiliary), bytes)?;
        Ok(bytes.len())
    }

    /// Reads an auxiliary payload.
    pub fn read_aux(&self, id: u64) -> DgResult<Option<Vec<u8>>> {
        Ok(self
            .store
            .get(StoreKey::new(0, id, ComponentKind::Auxiliary))?)
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn keys_for(&self, id: u64, components: &[ComponentKind]) -> Vec<StoreKey> {
        let mut keys = Vec::with_capacity(components.len() * self.partition_count() as usize);
        for partition in 0..self.partition_count() {
            for &component in components {
                keys.push(StoreKey::new(partition, id, component));
            }
        }
        keys
    }

    /// Fetches many keys, in parallel across partitions when configured.
    fn fetch(&self, keys: &[StoreKey]) -> DgResult<Vec<Option<Vec<u8>>>> {
        if self.threads <= 1 || keys.len() <= 1 {
            return keys
                .iter()
                .map(|k| self.store.get(*k).map_err(Into::into))
                .collect();
        }
        let chunk = keys.len().div_ceil(self.threads);
        let mut results: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        let mut first_err = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (ci, ks) in keys.chunks(chunk).enumerate() {
                let store = &self.store;
                handles.push((
                    ci,
                    scope.spawn(move || ks.iter().map(|k| store.get(*k)).collect::<Vec<_>>()),
                ));
            }
            for (ci, handle) in handles {
                for (j, res) in handle
                    .join()
                    .expect("fetch worker panicked")
                    .into_iter()
                    .enumerate()
                {
                    match res {
                        Ok(v) => results[ci * chunk + j] = v,
                        Err(e) => first_err = Some(e),
                    }
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e.into());
        }
        Ok(results)
    }

    /// The partition an event is stored in. Edge-attribute events hash the
    /// edge id (their endpoints are not carried by the event); everything
    /// else hashes the concerned node id.
    pub fn partition_of_event(&self, ev: &Event) -> u32 {
        match ev.partition_node() {
            Some(node) => self.partitioner.partition_of(node),
            None => match &ev.kind {
                tgraph::EventKind::SetEdgeAttr { edge, .. } => {
                    (tgraph::fxhash::hash_u64(edge.raw())
                        % u64::from(self.partitioner.partition_count())) as u32
                }
                _ => 0,
            },
        }
    }
}

fn tg(e: TgError) -> crate::error::DgError {
    e.into()
}

/// The components a read under `opts` fetches: the structure always, each
/// attribute column `opts` needs, and the transient column on request.
fn attr_components(opts: &AttrOptions, include_transient: bool) -> Vec<ComponentKind> {
    let mut components = vec![ComponentKind::Structure];
    if opts.needs_node_attrs() {
        components.push(ComponentKind::NodeAttr);
    }
    if opts.needs_edge_attrs() {
        components.push(ComponentKind::EdgeAttr);
    }
    if include_transient {
        components.push(ComponentKind::Transient);
    }
    components
}

fn category_slot(cat: EventCategory) -> usize {
    match cat {
        EventCategory::Structure => 0,
        EventCategory::NodeAttr => 1,
        EventCategory::EdgeAttr => 2,
        EventCategory::Transient => 3,
    }
}

fn slot_component(slot: usize) -> ComponentKind {
    match slot {
        0 => ComponentKind::Structure,
        1 => ComponentKind::NodeAttr,
        2 => ComponentKind::EdgeAttr,
        _ => ComponentKind::Transient,
    }
}

fn encode_indexed_events(items: &[(u64, &Event)]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_varint(&mut buf, items.len() as u64);
    for (idx, ev) in items {
        write_varint(&mut buf, *idx);
        ev.encode(&mut buf);
    }
    buf
}

/// Which events of an eventlist [`decode_events`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventSpan {
    /// Every event.
    All,
    /// The events with `time <= t`: each column is decoded up to its
    /// first later event and no further.
    Until(Timestamp),
    /// The events with `time > t`.
    After(Timestamp),
}

/// The events of an eventlist's stored columns (see
/// [`PayloadStore::eventlist_columns`]) within `span`, in their original
/// order. The columns of one list are written in event order, which is
/// time order, so `EventSpan::Until` stops reading each column at its
/// first event past the bound.
pub(crate) fn decode_events(columns: &[Vec<u8>], span: EventSpan) -> DgResult<Vec<Event>> {
    let mut indexed: Vec<(u64, Event)> = Vec::new();
    for bytes in columns {
        let mut r = Reader::new(bytes);
        let count = r.read_len().map_err(tg)?;
        for _ in 0..count {
            let idx = r.read_varint().map_err(tg)?;
            let ev = Event::decode(&mut r).map_err(tg)?;
            match span {
                EventSpan::Until(t) if ev.time > t => break,
                EventSpan::After(t) if ev.time <= t => continue,
                _ => indexed.push((idx, ev)),
            }
        }
    }
    indexed.sort_unstable_by_key(|(i, _)| *i);
    Ok(indexed.into_iter().map(|(_, e)| e).collect())
}

/// One stored attribute column as a run of assignments, keys borrowed from
/// `bytes`, keeping only the keys `wanted` selects.
fn read_run<'a, Id: Decode>(
    bytes: &'a [u8],
    wanted: impl Fn(&str) -> bool,
) -> DgResult<Vec<Assignment<'a, Id>>> {
    // The column's leading count, which decoding checks again.
    let count = Reader::new(bytes).read_len().map_err(tg)?;
    let mut run = Vec::with_capacity(count);
    visit_assignments(bytes, |id, key, value| {
        if wanted(key) {
            run.push((id, key, value));
        }
    })
    .map_err(tg)?;
    Ok(run)
}

/// Merges two runs sorted by `key` into one sorted run. Order is not
/// checked here: an out-of-order input leaves its inversion in the output,
/// where [`GraphForm::apply_runs`] refuses it, and so does a key in both.
fn merge_runs<T, K: Ord>(a: Vec<T>, b: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut b = b.into_iter().peekable();
    for x in a {
        while let Some(y) = b.next_if(|y| key(y) <= key(&x)) {
            out.push(y);
        }
        out.push(x);
    }
    out.extend(b);
    out
}

/// Splits a delta into one sub-delta per partition: nodes (and their
/// attributes) go to `h(node)`, edges to `h(min(src, dst))`, edge attributes
/// to `h(edge id)` (edge-attribute assignments do not carry endpoints).
pub fn partition_delta(delta: &Delta, partitioner: &NodePartitioner) -> Vec<Delta> {
    let n = partitioner.partition_count() as usize;
    let mut parts: Vec<Delta> = (0..n).map(|_| Delta::new()).collect();
    if n == 1 {
        parts[0] = delta.clone();
        return parts;
    }
    for node in &delta.structure.add_nodes {
        parts[partitioner.partition_of(*node) as usize]
            .structure
            .add_nodes
            .push(*node);
    }
    for node in &delta.structure.del_nodes {
        parts[partitioner.partition_of(*node) as usize]
            .structure
            .del_nodes
            .push(*node);
    }
    for rec in &delta.structure.add_edges {
        let owner = rec.src.min(rec.dst);
        parts[partitioner.partition_of(owner) as usize]
            .structure
            .add_edges
            .push(*rec);
    }
    for rec in &delta.structure.del_edges {
        let owner = rec.src.min(rec.dst);
        parts[partitioner.partition_of(owner) as usize]
            .structure
            .del_edges
            .push(*rec);
    }
    for a in &delta.node_attrs {
        parts[partitioner.partition_of(a.id) as usize]
            .node_attrs
            .push(a.clone());
    }
    for a in &delta.edge_attrs {
        let p = (tgraph::fxhash::hash_u64(a.id.raw()) % u64::from(partitioner.partition_count()))
            as usize;
        parts[p].edge_attrs.push(a.clone());
    }
    parts
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kvstore::MemStore;
    use proptest::prelude::*;
    use tgraph::{AttrValue, ColumnGraph, Snapshot};

    fn payload_store(partitions: u32, threads: usize) -> PayloadStore {
        PayloadStore::new(
            Arc::new(MemStore::new()),
            NodePartitioner::new(partitions),
            threads,
        )
    }

    fn sample_delta() -> Delta {
        let from = Snapshot::new();
        let mut to = Snapshot::new();
        for n in 0..20u64 {
            to.ensure_node(NodeId(n));
        }
        for e in 0..10u64 {
            to.add_edge(EdgeId(e), NodeId(e), NodeId(e + 1), false)
                .unwrap();
        }
        to.set_node_attr(NodeId(1), "name", Some(AttrValue::from("x")))
            .unwrap();
        to.set_edge_attr(EdgeId(2), "w", Some(AttrValue::Int(5)))
            .unwrap();
        Delta::between(&from, &to)
    }

    #[test]
    fn delta_roundtrip_single_partition() {
        let ps = payload_store(1, 1);
        let delta = sample_delta();
        let w = ps.write_delta(7, &delta).unwrap();
        assert!(w.structure > 0 && w.node_attr > 0 && w.edge_attr > 0);
        let mut read = ps.read_delta(7, &AttrOptions::all()).unwrap();
        read.sort();
        let mut expected = delta.clone();
        expected.sort();
        assert_eq!(read, expected);
    }

    #[test]
    fn delta_roundtrip_multi_partition_and_parallel() {
        for threads in [1, 4] {
            let ps = payload_store(4, threads);
            let delta = sample_delta();
            ps.write_delta(9, &delta).unwrap();
            let mut read = ps.read_delta(9, &AttrOptions::all()).unwrap();
            read.sort();
            let mut expected = delta.clone();
            expected.sort();
            assert_eq!(read, expected, "threads={threads}");
        }
    }

    #[test]
    fn structure_only_read_skips_attribute_columns() {
        let ps = payload_store(2, 1);
        let delta = sample_delta();
        ps.write_delta(3, &delta).unwrap();
        let stats_before = ps.backing_store().stats();
        let read = ps.read_delta(3, &AttrOptions::structure_only()).unwrap();
        assert!(read.node_attrs.is_empty() && read.edge_attrs.is_empty());
        assert_eq!(
            read.structure.add_nodes.len(),
            delta.structure.add_nodes.len()
        );
        let stats_after = ps.backing_store().stats();
        let fetched = stats_after.delta_since(&stats_before);
        // structure-only must read fewer bytes than the full write volume
        assert!(fetched.bytes_read < stats_after.bytes_written);
    }

    #[test]
    fn partitioning_is_complete_and_disjoint() {
        let delta = sample_delta();
        let partitioner = NodePartitioner::new(3);
        let parts = partition_delta(&delta, &partitioner);
        let total_nodes: usize = parts.iter().map(|p| p.structure.add_nodes.len()).sum();
        let total_edges: usize = parts.iter().map(|p| p.structure.add_edges.len()).sum();
        let total_nattrs: usize = parts.iter().map(|p| p.node_attrs.len()).sum();
        let total_eattrs: usize = parts.iter().map(|p| p.edge_attrs.len()).sum();
        assert_eq!(total_nodes, delta.structure.add_nodes.len());
        assert_eq!(total_edges, delta.structure.add_edges.len());
        assert_eq!(total_nattrs, delta.node_attrs.len());
        assert_eq!(total_eattrs, delta.edge_attrs.len());
        // at least two partitions are non-empty for this delta
        let non_empty = parts.iter().filter(|p| !p.is_empty()).count();
        assert!(non_empty >= 2);
    }

    #[test]
    fn eventlist_roundtrip_preserves_order() {
        let ps = payload_store(3, 2);
        let events = EventList::from_events(vec![
            Event::add_node(1, 1),
            Event::add_node(1, 2),
            Event::add_edge(2, 10, 1, 2),
            Event::set_node_attr(3, 1, "k", None, Some(AttrValue::Int(1))),
            Event::transient_edge(4, 1, 2, None),
            Event::set_edge_attr(5, 10, "w", None, Some(AttrValue::Int(2))),
            Event::delete_edge(6, 10, 1, 2),
        ]);
        ps.write_eventlist(11, &events).unwrap();
        let full = ps.read_eventlist(11, &AttrOptions::all(), true).unwrap();
        assert_eq!(full, events);

        let structure = ps
            .read_eventlist(11, &AttrOptions::structure_only(), false)
            .unwrap();
        assert_eq!(structure.len(), 4);
        assert!(structure
            .events()
            .iter()
            .all(|e| e.category() == EventCategory::Structure));
    }

    #[test]
    fn missing_ids_read_as_empty() {
        let ps = payload_store(2, 1);
        let delta = ps.read_delta(999, &AttrOptions::all()).unwrap();
        assert!(delta.is_empty());
        let events = ps.read_eventlist(999, &AttrOptions::all(), true).unwrap();
        assert!(events.is_empty());
        assert_eq!(ps.read_aux(999).unwrap(), None);
    }

    #[test]
    fn aux_payload_roundtrip() {
        let ps = payload_store(1, 1);
        ps.write_aux(5, b"aux-bytes").unwrap();
        assert_eq!(ps.read_aux(5).unwrap().as_deref(), Some(&b"aux-bytes"[..]));
    }

    #[test]
    fn empty_components_are_not_stored() {
        let ps = payload_store(1, 1);
        // structure-only delta
        let from = Snapshot::new();
        let mut to = Snapshot::new();
        to.ensure_node(NodeId(1));
        let delta = Delta::between(&from, &to);
        ps.write_delta(1, &delta).unwrap();
        // only one key should be stored (partition 0, structure)
        assert_eq!(ps.backing_store().len(), 1);
    }

    /// A splitmix64 stream, for the random graphs below.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        pub(crate) fn value(&mut self) -> AttrValue {
            match self.below(3) {
                0 => AttrValue::Int(self.below(4) as i64),
                1 => AttrValue::from(["x", "yy", "zzz"][self.below(3) as usize]),
                _ => AttrValue::Bool(self.below(2) == 1),
            }
        }
    }

    pub(crate) const NODE_KEYS: [&str; 4] = ["a", "b", "name", "c"];
    pub(crate) const EDGE_KEYS: [&str; 3] = ["w", "label", "v"];

    /// A random graph over nodes 0..24 with random attributes.
    pub(crate) fn random_graph(rng: &mut Rng) -> Snapshot {
        let mut g = Snapshot::new();
        for n in 0..24 {
            if rng.below(4) > 0 {
                g.ensure_node(NodeId(n));
            }
        }
        for e in 0..30 {
            if rng.below(2) == 0 {
                let (src, dst) = (NodeId(rng.below(24)), NodeId(rng.below(24)));
                g.add_edge(EdgeId(e), src, dst, rng.below(2) == 0).unwrap();
            }
        }
        randomize_attrs(&mut g, rng);
        g
    }

    /// Sets, changes and removes attributes of every element at random.
    pub(crate) fn randomize_attrs(g: &mut Snapshot, rng: &mut Rng) {
        for n in g.node_ids().collect::<Vec<_>>() {
            for key in NODE_KEYS {
                match rng.below(3) {
                    0 => g.set_node_attr(n, key, None).unwrap(),
                    1 => g.set_node_attr(n, key, Some(rng.value())).unwrap(),
                    _ => {}
                }
            }
        }
        for e in g.edge_ids().collect::<Vec<_>>() {
            for key in EDGE_KEYS {
                match rng.below(3) {
                    0 => g.set_edge_attr(e, key, None).unwrap(),
                    1 => g.set_edge_attr(e, key, Some(rng.value())).unwrap(),
                    _ => {}
                }
            }
        }
    }

    /// A delta from a random graph to a random edit of it: deleted nodes
    /// (with their edges) and edges, added ones, and attributes set,
    /// changed and removed. Returns the source graph and the delta.
    fn random_delta(seed: u64) -> (Snapshot, Delta) {
        let mut rng = Rng(seed);
        let from = random_graph(&mut rng);
        let mut to = from.clone();
        for n in from.node_ids() {
            if rng.below(5) == 0 {
                to.remove_node(n).unwrap();
            }
        }
        for e in to.edge_ids().collect::<Vec<_>>() {
            if rng.below(5) == 0 {
                to.remove_edge(e).unwrap();
            }
        }
        for e in 30..36 {
            let (src, dst) = (NodeId(rng.below(30)), NodeId(rng.below(30)));
            to.add_edge(EdgeId(e), src, dst, rng.below(2) == 0).unwrap();
        }
        randomize_attrs(&mut to, &mut rng);
        let delta = Delta::between(&from, &to);
        assert!(!delta.structure.del_nodes.is_empty() || !delta.structure.del_edges.is_empty());
        (from, delta)
    }

    /// Every selection the equivalence is checked under.
    pub(crate) fn selections() -> Vec<AttrOptions> {
        vec![
            AttrOptions::all(),
            AttrOptions::structure_only(),
            AttrOptions::parse("+node:all").unwrap(),
            AttrOptions::parse("+node:name").unwrap(),
        ]
    }

    /// The reference for `apply_delta`: read the whole delta, drop the
    /// attributes `opts` does not select, apply.
    fn read_filter_apply(
        ps: &PayloadStore,
        id: u64,
        opts: &AttrOptions,
        base: &Snapshot,
    ) -> DgResult<Snapshot> {
        let mut delta = ps.read_delta(id, opts)?;
        delta.node_attrs.retain(|a| opts.wants_node_attr(&a.key));
        delta.edge_attrs.retain(|a| opts.wants_edge_attr(&a.key));
        let mut graph = base.clone();
        delta.apply_to(&mut graph)?;
        Ok(graph)
    }

    /// `apply_delta` over the columns of `base`.
    fn apply_onto(
        ps: &PayloadStore,
        id: u64,
        opts: &AttrOptions,
        base: &Snapshot,
    ) -> DgResult<Snapshot> {
        let mut graph = ColumnGraph::from_snapshot(base);
        ps.apply_delta(id, opts, &mut graph)?;
        Ok(graph.into_snapshot())
    }

    /// `apply_delta` over a copy of `base` itself.
    fn apply_direct(
        ps: &PayloadStore,
        id: u64,
        opts: &AttrOptions,
        base: &Snapshot,
    ) -> DgResult<Snapshot> {
        let mut graph = base.clone();
        ps.apply_delta(id, opts, &mut graph)?;
        Ok(graph)
    }

    #[test]
    fn apply_delta_builds_the_target_graph() {
        let (from, delta) = random_delta(7);
        let mut to = from.clone();
        delta.apply_to(&mut to).unwrap();
        for partitions in [1, 3] {
            let ps = payload_store(partitions, 1);
            ps.write_delta(1, &delta).unwrap();
            let got = apply_onto(&ps, 1, &AttrOptions::all(), &from).unwrap();
            assert_eq!(got, to, "partitions={partitions}");
            let got = apply_direct(&ps, 1, &AttrOptions::all(), &from).unwrap();
            assert_eq!(got, to, "partitions={partitions}");
            // A missing id applies nothing.
            assert_eq!(
                apply_onto(&ps, 2, &AttrOptions::all(), &from).unwrap(),
                from
            );
        }
    }

    /// Whether `e` is one of [`ColumnGraph::apply`]'s refusals of a
    /// payload that decodes: a run out of order or repeated, an edge added
    /// without its endpoints, or an edge outliving an endpoint.
    fn is_merge_refusal(e: &crate::error::DgError) -> bool {
        let msg = e.to_string();
        [
            "out of order or repeated",
            "not both nodes of the graph",
            "replay contract",
        ]
        .iter()
        .any(|m| msg.contains(m))
    }

    #[test]
    fn runs_out_of_order_or_repeated_are_refused() {
        let (from, delta) = random_delta(11);
        let base = ColumnGraph::from_snapshot(&from);
        let key = |c| StoreKey::new(0, 1, c);
        // Each column of the delta, corrupted so that it still decodes.
        type Corrupt = fn(&mut Delta);
        let cases: [(&str, Corrupt); 6] = [
            ("added nodes swapped", |d| d.structure.add_nodes.swap(0, 1)),
            ("added node repeated", |d| {
                let n = d.structure.add_nodes[0];
                d.structure.add_nodes.insert(0, n)
            }),
            ("deleted edges swapped", |d| {
                d.structure.del_edges.swap(0, 1)
            }),
            ("added edge repeated", |d| {
                let r = d.structure.add_edges[0];
                d.structure.add_edges.insert(0, r)
            }),
            ("node attributes swapped", |d| d.node_attrs.swap(0, 1)),
            ("edge attribute repeated", |d| {
                let a = d.edge_attrs[0].clone();
                d.edge_attrs.insert(0, a)
            }),
        ];
        for (what, corrupt) in cases {
            let mut bad = delta.clone();
            corrupt(&mut bad);
            let ps = payload_store(1, 1);
            ps.write_delta(1, &delta).unwrap();
            // Overwrite the stored columns with the corrupted ones.
            ps.backing_store()
                .put(key(ComponentKind::Structure), &bad.structure.to_bytes())
                .unwrap();
            ps.backing_store()
                .put(key(ComponentKind::NodeAttr), &bad.node_attrs.to_bytes())
                .unwrap();
            ps.backing_store()
                .put(key(ComponentKind::EdgeAttr), &bad.edge_attrs.to_bytes())
                .unwrap();
            let err = ps
                .apply_delta(1, &AttrOptions::all(), &mut base.clone())
                .expect_err(what);
            assert!(
                err.to_string().contains("out of order or repeated"),
                "{what}: {err}"
            );
            // A snapshot refuses the same runs.
            let err = apply_direct(&ps, 1, &AttrOptions::all(), &from).expect_err(what);
            assert!(
                err.to_string().contains("out of order or repeated"),
                "{what}: {err}"
            );
        }
        // Two partitions that both hold one id are refused the same way.
        let ps = payload_store(2, 1);
        ps.write_delta(1, &delta).unwrap();
        let mut twice = Delta::new();
        twice.structure.add_nodes = vec![NodeId(900)];
        for p in 0..2 {
            ps.backing_store()
                .put(
                    StoreKey::new(p, 2, ComponentKind::Structure),
                    &twice.structure.to_bytes(),
                )
                .unwrap();
        }
        let err = ps
            .apply_delta(2, &AttrOptions::all(), &mut base.clone())
            .unwrap_err();
        assert!(
            err.to_string().contains("out of order or repeated"),
            "{err}"
        );
    }

    proptest! {
        #[test]
        fn apply_delta_equals_read_filter_apply(seed in any::<u64>()) {
            let (from, delta) = random_delta(seed);
            for partitions in [1, 3] {
                let ps = payload_store(partitions, 1);
                ps.write_delta(1, &delta).unwrap();
                for opts in selections() {
                    let base = from.project_attrs(&opts);
                    let want = read_filter_apply(&ps, 1, &opts, &base).unwrap();
                    let mut columns = ColumnGraph::from_snapshot(&base);
                    ps.apply_delta(1, &opts, &mut columns).unwrap();
                    // The columns encode, unsorted-free, to the reference's bytes.
                    assert_eq!(columns.to_bytes(), want.to_bytes(), "seed={seed} {opts:?}");
                    // Neighbors read off the columns are the snapshot's.
                    for n in want.node_ids() {
                        let mut adjacent = want.neighbors(n).to_vec();
                        adjacent.sort_unstable();
                        assert_eq!(columns.neighbors(n), adjacent, "seed={seed} node {n}");
                    }
                    let got = columns.into_snapshot();
                    assert_eq!(got, want, "seed={seed} partitions={partitions} opts={opts:?}");
                    let got = apply_direct(&ps, 1, &opts, &base).unwrap();
                    assert_eq!(got, want, "seed={seed} partitions={partitions} opts={opts:?}");
                }
            }
        }

        #[test]
        fn mutated_delta_payloads_apply_like_the_reference_or_fail(
            seed in any::<u64>(),
            edit in any::<u64>(),
        ) {
            let (from, delta) = random_delta(seed);
            let mut rng = Rng(edit);
            for partitions in [1, 3] {
                let ps = payload_store(partitions, 1);
                ps.write_delta(1, &delta).unwrap();
                let store = ps.backing_store();
                let stored: Vec<(StoreKey, Vec<u8>)> = (0..partitions)
                    .flat_map(|p| {
                        [ComponentKind::Structure, ComponentKind::NodeAttr, ComponentKind::EdgeAttr]
                            .map(|c| StoreKey::new(p, 1, c))
                    })
                    .filter_map(|key| Some((key, store.get(key).unwrap()?)))
                    .collect();
                let (key, mut bytes) = stored[rng.below(stored.len() as u64) as usize].clone();
                let at = rng.below(bytes.len() as u64) as usize;
                match rng.below(4) {
                    0 => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes[at] = rng.below(256) as u8,
                    2 => bytes.truncate(at),
                    _ => bytes.insert(at, rng.below(256) as u8),
                }
                store.put(key, &bytes).unwrap();
                for opts in selections() {
                    let base = from.project_attrs(&opts);
                    let want = read_filter_apply(&ps, 1, &opts, &base);
                    for got in [apply_onto(&ps, 1, &opts, &base), apply_direct(&ps, 1, &opts, &base)] {
                        match (got, &want) {
                            (Ok(got), Ok(want)) => assert_eq!(&got, want, "seed={seed} edit={edit}"),
                            (Err(_), Err(_)) => {}
                            // The runs are refused where the order-blind
                            // reference takes them: out of order, repeated,
                            // or (by the merge) breaking §3.1.
                            (Err(e), Ok(_)) if is_merge_refusal(&e) => {}
                            (got, want) => panic!(
                                "seed={seed} edit={edit} {opts:?}: apply_delta {:?}, reference {:?}",
                                got.map(|_| ()),
                                want.as_ref().map(|_| ()),
                            ),
                        }
                    }
                }
            }
        }
    }
}
