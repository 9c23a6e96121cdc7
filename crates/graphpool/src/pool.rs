//! The GraphPool: many graphs overlaid on one in-memory structure.
//!
//! The pool maintains a single union graph of all *active* graphs — the
//! current graph, retrieved historical snapshots, and materialized DeltaGraph
//! nodes. Every component (node, edge) and every attribute value carries a
//! bitmap saying which active graphs contain it (Section 6). New snapshots
//! are overlaid element by element; graphs that are no longer needed are
//! cleaned up lazily.
//!
//! Bit assignment follows the paper's GraphID–bit mapping table: bits 0 and 1
//! are reserved for the current graph (bit 0 = member of the current graph,
//! bit 1 = recently deleted and not yet part of the index); every historical
//! graph receives a pair of bits and may be marked *dependent* on a
//! materialized graph (or the current graph), in which case only the elements
//! whose membership differs from the dependency need their bits touched;
//! materialized graphs receive a single bit.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use tgraph::fxhash::FxHashMap;
use tgraph::{AttrMap, AttrValue, EdgeData, EdgeId, Event, EventKind, NodeId, Snapshot, Timestamp};

use crate::bitmap::BitMap;
use crate::view::GraphView;

/// Handle to a graph registered in the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u32);

/// What kind of graph an entry describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// The continuously updated current graph.
    Current,
    /// A retrieved historical snapshot.
    Historical,
    /// A materialized DeltaGraph node (interior or leaf).
    Materialized,
}

/// How an entry's membership bits are interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BitAssignment {
    /// One bit: set ⇔ member (current graph and materialized graphs).
    Single { member: usize },
    /// Two bits (historical graphs): if `exception` is set the element's
    /// membership is given by `member`; otherwise it follows the dependency
    /// (or is "not a member" when the graph has no dependency).
    Pair { exception: usize, member: usize },
}

/// Registry entry for one active graph (one row of the GraphID–bit table).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphEntry {
    /// The graph's id.
    pub id: GraphId,
    /// What the graph is.
    pub kind: GraphKind,
    /// The time point of a historical graph, for reporting.
    pub time: Option<Timestamp>,
    /// The graph this entry depends on, if any.
    pub dependency: Option<GraphId>,
    bits: BitAssignment,
    /// `false` once the graph has been released and awaits cleanup.
    active: bool,
    /// Number of outstanding references. Registration hands out one; sharers
    /// (concurrent sessions, a snapshot cache) add more with
    /// [`GraphPool::retain`], and the entry is only deactivated once
    /// [`GraphPool::release`] has matched every reference.
    refs: usize,
}

impl GraphEntry {
    /// Number of outstanding references to this graph.
    pub fn refcount(&self) -> usize {
        self.refs
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
struct PoolNode {
    bm: BitMap,
    /// attribute name → list of (value, bitmap of graphs having that value)
    attrs: BTreeMap<String, Vec<(AttrValue, BitMap)>>,
}

/// Where an edge points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ends {
    src: NodeId,
    dst: NodeId,
    directed: bool,
}

impl Ends {
    fn of(data: &EdgeData) -> Self {
        Ends {
            src: data.src,
            dst: data.dst,
            directed: data.directed,
        }
    }

    /// Whether the edge puts `(to, _)` in `from`'s adjacency list.
    fn links(self, from: NodeId, to: NodeId) -> bool {
        (self.src == from && self.dst == to)
            || (!self.directed && self.src == to && self.dst == from)
    }

    /// The adjacency entries `(from, to)` the edge puts in the union.
    fn links_out(self) -> impl Iterator<Item = (NodeId, NodeId)> {
        let back = (!self.directed && self.src != self.dst).then_some((self.dst, self.src));
        std::iter::once((self.src, self.dst)).chain(back)
    }
}

/// One incarnation of an edge id: its endpoints, the graphs holding it
/// between them, and their attribute values.
#[derive(Clone, Debug, PartialEq)]
struct PoolEdge {
    ends: Ends,
    bm: BitMap,
    attrs: BTreeMap<String, Vec<(AttrValue, BitMap)>>,
}

impl PoolEdge {
    fn new(ends: Ends) -> Self {
        PoolEdge {
            ends,
            bm: BitMap::new(),
            attrs: BTreeMap::new(),
        }
    }
}

/// Every incarnation of one edge id. `APPEND` lets a deleted id come back
/// between other endpoints, so graphs from different times can disagree
/// on where an id points; each incarnation keeps its own membership bits
/// and attribute values. `reused` is empty unless that happened.
#[derive(Clone, Debug, PartialEq)]
struct EdgeSlot {
    first: PoolEdge,
    reused: Vec<PoolEdge>,
}

impl EdgeSlot {
    fn iter(&self) -> impl Iterator<Item = &PoolEdge> {
        std::iter::once(&self.first).chain(&self.reused)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut PoolEdge> {
        std::iter::once(&mut self.first).chain(&mut self.reused)
    }
}

/// The in-memory pool of overlaid graphs.
#[derive(Clone, PartialEq)]
pub struct GraphPool {
    nodes: FxHashMap<NodeId, PoolNode>,
    edges: FxHashMap<EdgeId, EdgeSlot>,
    adj: FxHashMap<NodeId, Vec<(NodeId, EdgeId)>>,
    entries: Vec<Option<GraphEntry>>,
    next_bit: usize,
    free_singles: Vec<usize>,
    free_pairs: Vec<(usize, usize)>,
    /// Graphs released but not yet cleaned (lazy cleanup).
    pending_cleanup: Vec<GraphId>,
}

/// The id of the always-present current graph.
pub const CURRENT_GRAPH: GraphId = GraphId(0);

impl Default for GraphPool {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphPool {
    /// Creates a pool containing only an empty current graph.
    pub fn new() -> Self {
        let current = GraphEntry {
            id: CURRENT_GRAPH,
            kind: GraphKind::Current,
            time: None,
            dependency: None,
            bits: BitAssignment::Single { member: 0 },
            active: true,
            refs: 1,
        };
        GraphPool {
            nodes: FxHashMap::default(),
            edges: FxHashMap::default(),
            adj: FxHashMap::default(),
            entries: vec![Some(current)],
            next_bit: 2, // bit 1 reserved for "recently deleted"
            free_singles: Vec::new(),
            free_pairs: Vec::new(),
            pending_cleanup: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Registry
    // ------------------------------------------------------------------

    fn alloc_single(&mut self) -> usize {
        if let Some(bit) = self.free_singles.pop() {
            bit
        } else {
            let bit = self.next_bit;
            self.next_bit += 1;
            bit
        }
    }

    fn alloc_pair(&mut self) -> (usize, usize) {
        if let Some(pair) = self.free_pairs.pop() {
            pair
        } else {
            let pair = (self.next_bit, self.next_bit + 1);
            self.next_bit += 2;
            pair
        }
    }

    fn register(&mut self, entry: GraphEntry) -> GraphId {
        let id = GraphId(self.entries.len() as u32);
        let mut entry = entry;
        entry.id = id;
        self.entries.push(Some(entry));
        id
    }

    /// The registry entry of a graph, if it exists and is active.
    pub fn entry(&self, id: GraphId) -> Option<&GraphEntry> {
        self.entries
            .get(id.0 as usize)
            .and_then(|e| e.as_ref())
            .filter(|e| e.active)
    }

    /// Ids of all active graphs (including the current graph).
    pub fn active_graphs(&self) -> Vec<GraphId> {
        self.entries
            .iter()
            .flatten()
            .filter(|e| e.active)
            .map(|e| e.id)
            .collect()
    }

    /// Number of active graphs, excluding the current graph.
    pub fn active_overlay_count(&self) -> usize {
        self.active_graphs().len() - 1
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    fn member(&self, bm: &BitMap, id: GraphId) -> bool {
        let Some(entry) = self.entry(id) else {
            return false;
        };
        match entry.bits {
            BitAssignment::Single { member } => bm.get(member),
            BitAssignment::Pair { exception, member } => {
                if bm.get(exception) {
                    bm.get(member)
                } else if let Some(dep) = entry.dependency {
                    self.member(bm, dep)
                } else {
                    false
                }
            }
        }
    }

    /// Whether `node` belongs to graph `id`.
    pub fn contains_node(&self, id: GraphId, node: NodeId) -> bool {
        self.nodes
            .get(&node)
            .is_some_and(|n| self.member(&n.bm, id))
    }

    /// Whether `edge` belongs to graph `id`.
    pub fn contains_edge(&self, id: GraphId, edge: EdgeId) -> bool {
        self.edge_in(id, edge).is_some()
    }

    /// The incarnation of `edge` that graph `id` holds, if any.
    fn edge_in(&self, id: GraphId, edge: EdgeId) -> Option<&PoolEdge> {
        self.edges
            .get(&edge)?
            .iter()
            .find(|e| self.member(&e.bm, id))
    }

    /// The value of `node`'s attribute `key` in graph `id`, if any.
    pub fn node_attr(&self, id: GraphId, node: NodeId, key: &str) -> Option<&AttrValue> {
        let n = self.nodes.get(&node)?;
        n.attrs
            .get(key)?
            .iter()
            .find(|(_, bm)| self.member_attr(bm, id))
            .map(|(v, _)| v)
    }

    /// The value of `edge`'s attribute `key` in graph `id`, if any.
    pub fn edge_attr(&self, id: GraphId, edge: EdgeId, key: &str) -> Option<&AttrValue> {
        self.edge_in(id, edge)?
            .attrs
            .get(key)?
            .iter()
            .find(|(_, bm)| self.member_attr(bm, id))
            .map(|(v, _)| v)
    }

    /// Attribute-value membership. Dependent historical graphs fall back to
    /// the dependency's attribute value when no exception is recorded.
    fn member_attr(&self, bm: &BitMap, id: GraphId) -> bool {
        let Some(entry) = self.entry(id) else {
            return false;
        };
        match entry.bits {
            BitAssignment::Single { member } => bm.get(member),
            BitAssignment::Pair { exception, member } => {
                if bm.get(exception) {
                    bm.get(member)
                } else if let Some(dep) = entry.dependency {
                    self.member_attr(bm, dep)
                } else {
                    false
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Overlaying graphs
    // ------------------------------------------------------------------

    fn ensure_node(&mut self, node: NodeId) -> &mut PoolNode {
        self.nodes.entry(node).or_default()
    }

    /// The incarnation of `edge` between `ends`, added (with its adjacency
    /// entries) if the union has none. An id seen before costs one
    /// endpoint comparison unless it was reused.
    fn ensure_edge(&mut self, edge: EdgeId, ends: Ends) -> &mut PoolEdge {
        let slot = match self.edges.entry(edge) {
            Entry::Vacant(vacant) => {
                for (from, to) in ends.links_out() {
                    self.adj.entry(from).or_default().push((to, edge));
                }
                return &mut vacant
                    .insert(EdgeSlot {
                        first: PoolEdge::new(ends),
                        reused: Vec::new(),
                    })
                    .first;
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        if slot.first.ends == ends {
            return &mut slot.first;
        }
        let i = match slot.reused.iter().position(|e| e.ends == ends) {
            Some(i) => i,
            None => {
                // Another incarnation may already link the same pair.
                for (from, to) in ends.links_out() {
                    let list = self.adj.entry(from).or_default();
                    if !list.contains(&(to, edge)) {
                        list.push((to, edge));
                    }
                }
                slot.reused.push(PoolEdge::new(ends));
                slot.reused.len() - 1
            }
        };
        &mut slot.reused[i]
    }

    fn set_attr_bit(
        attrs: &mut BTreeMap<String, Vec<(AttrValue, BitMap)>>,
        key: &str,
        value: &AttrValue,
        bit: usize,
    ) {
        let fresh = || {
            let mut bm = BitMap::new();
            bm.set(bit, true);
            (value.clone(), bm)
        };
        // Look up by `&str` first: the key is allocated only when it is new
        // to this element, not on every overlay.
        match attrs.get_mut(key) {
            Some(values) => match values.iter_mut().find(|(v, _)| v == value) {
                Some((_, bm)) => bm.set(bit, true),
                None => values.push(fresh()),
            },
            None => {
                attrs.insert(key.to_owned(), vec![fresh()]);
            }
        }
    }

    fn overlay_with_bits(
        &mut self,
        snapshot: &Snapshot,
        member_bit: usize,
        exception_bit: Option<usize>,
    ) {
        for (node, data) in snapshot.nodes() {
            let pool_node = self.ensure_node(node);
            pool_node.bm.set(member_bit, true);
            if let Some(e) = exception_bit {
                pool_node.bm.set(e, true);
            }
            for (key, value) in &data.attrs {
                Self::set_attr_bit(&mut pool_node.attrs, key, value, member_bit);
                if let Some(e) = exception_bit {
                    // the attribute-value bitmap reuses the member bit for the
                    // value and the exception bit to mark "explicitly recorded"
                    let values = pool_node.attrs.get_mut(key).expect("just inserted");
                    if let Some((_, bm)) = values.iter_mut().find(|(v, _)| v == value) {
                        bm.set(e, true);
                    }
                }
            }
        }
        for (edge, data) in snapshot.edges() {
            let pool_edge = self.ensure_edge(edge, Ends::of(data));
            pool_edge.bm.set(member_bit, true);
            if let Some(e) = exception_bit {
                pool_edge.bm.set(e, true);
            }
            for (key, value) in &data.attrs {
                Self::set_attr_bit(&mut pool_edge.attrs, key, value, member_bit);
                if let Some(e) = exception_bit {
                    let values = pool_edge.attrs.get_mut(key).expect("just inserted");
                    if let Some((_, bm)) = values.iter_mut().find(|(v, _)| v == value) {
                        bm.set(e, true);
                    }
                }
            }
        }
    }

    /// Replaces the current graph with `snapshot` (used at start-up; ongoing
    /// changes should go through [`GraphPool::apply_event_to_current`]).
    pub fn set_current(&mut self, snapshot: &Snapshot) {
        // Clear bit 0 everywhere, then overlay.
        for node in self.nodes.values_mut() {
            node.bm.set(0, false);
            for values in node.attrs.values_mut() {
                for (_, bm) in values.iter_mut() {
                    bm.set(0, false);
                }
            }
        }
        for edge in self.edges.values_mut().flat_map(EdgeSlot::iter_mut) {
            edge.bm.set(0, false);
            for values in edge.attrs.values_mut() {
                for (_, bm) in values.iter_mut() {
                    bm.set(0, false);
                }
            }
        }
        self.overlay_with_bits(snapshot, 0, None);
    }

    /// Applies one update event to the current graph. Deleted elements keep
    /// bit 1 ("recently deleted, not yet part of the index") so they are not
    /// reclaimed before the index has absorbed the deletion.
    pub fn apply_event_to_current(&mut self, event: &Event) {
        match &event.kind {
            EventKind::AddNode { node } => {
                self.ensure_node(*node).bm.set(0, true);
            }
            EventKind::DeleteNode { node } => {
                if let Some(n) = self.nodes.get_mut(node) {
                    n.bm.set(0, false);
                    n.bm.set(1, true);
                }
            }
            &EventKind::AddEdge {
                edge,
                src,
                dst,
                directed,
            } => {
                self.ensure_edge(edge, Ends { src, dst, directed })
                    .bm
                    .set(0, true);
            }
            EventKind::DeleteEdge { edge, .. } => {
                if let Some(e) = self.current_edge_mut(*edge) {
                    e.bm.set(0, false);
                    e.bm.set(1, true);
                }
            }
            EventKind::SetNodeAttr { node, key, new, .. } => {
                if let Some(n) = self.nodes.get_mut(node) {
                    if let Some(values) = n.attrs.get_mut(key) {
                        for (_, bm) in values.iter_mut() {
                            bm.set(0, false);
                        }
                    }
                    if let Some(value) = new {
                        Self::set_attr_bit(&mut n.attrs, key, value, 0);
                    }
                }
            }
            EventKind::SetEdgeAttr { edge, key, new, .. } => {
                if let Some(e) = self.current_edge_mut(*edge) {
                    if let Some(values) = e.attrs.get_mut(key) {
                        for (_, bm) in values.iter_mut() {
                            bm.set(0, false);
                        }
                    }
                    if let Some(value) = new {
                        Self::set_attr_bit(&mut e.attrs, key, value, 0);
                    }
                }
            }
            EventKind::TransientEdge { .. } | EventKind::TransientNode { .. } => {}
        }
    }

    /// The incarnation of `edge` in the current graph (bit 0), if any.
    fn current_edge_mut(&mut self, edge: EdgeId) -> Option<&mut PoolEdge> {
        self.edges.get_mut(&edge)?.iter_mut().find(|e| e.bm.get(0))
    }

    /// Overlays a retrieved historical snapshot and returns its handle.
    pub fn add_historical(&mut self, snapshot: &Snapshot, time: Timestamp) -> GraphId {
        let (exception, member) = self.alloc_pair();
        let id = self.register(GraphEntry {
            id: GraphId(0),
            kind: GraphKind::Historical,
            time: Some(time),
            dependency: None,
            bits: BitAssignment::Pair { exception, member },
            active: true,
            refs: 1,
        });
        // Without a dependency the exception bit is set on every overlaid
        // element (membership is always read from the member bit).
        self.overlay_with_bits(snapshot, member, Some(exception));
        id
    }

    /// Overlays a historical snapshot as *dependent* on an already-registered
    /// graph (a materialized graph or the current graph): only elements whose
    /// membership differs from the dependency get their bits touched, which
    /// is the optimization enabled by the bit pair (Section 6).
    pub fn add_historical_dependent(
        &mut self,
        snapshot: &Snapshot,
        time: Timestamp,
        dependency: GraphId,
    ) -> GraphId {
        assert!(self.entry(dependency).is_some(), "unknown dependency graph");
        let (exception, member) = self.alloc_pair();
        let id = self.register(GraphEntry {
            id: GraphId(0),
            kind: GraphKind::Historical,
            time: Some(time),
            dependency: Some(dependency),
            bits: BitAssignment::Pair { exception, member },
            active: true,
            refs: 1,
        });

        // Elements present in the snapshot but absent from the dependency:
        // record an exception with membership = true.
        let mut additions: Vec<(NodeId, bool)> = Vec::new();
        for (node, _) in snapshot.nodes() {
            if !self.contains_node(dependency, node) {
                additions.push((node, true));
            }
        }
        for (node, _present) in &additions {
            let pool_node = self.ensure_node(*node);
            pool_node.bm.set(exception, true);
            pool_node.bm.set(member, true);
        }
        for (edge, data) in snapshot.edges() {
            let shared = self
                .edge_in(dependency, edge)
                .is_some_and(|e| e.ends == Ends::of(data));
            if !shared {
                let e = self.ensure_edge(edge, Ends::of(data));
                e.bm.set(exception, true);
                e.bm.set(member, true);
                Self::record_attrs(&mut e.attrs, &data.attrs, member, exception);
            }
        }

        // Elements of the dependency that are absent from the snapshot:
        // record an exception with membership = false.
        let dep_nodes: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, n)| self.member(&n.bm, dependency))
            .map(|(id, _)| *id)
            .collect();
        for node in dep_nodes {
            if !snapshot.has_node(node) {
                if let Some(n) = self.nodes.get_mut(&node) {
                    n.bm.set(exception, true);
                    n.bm.set(member, false);
                }
            }
        }
        // An edge the snapshot holds between other endpoints counts as
        // absent here: its own incarnation was recorded above.
        let dep_edges: Vec<(EdgeId, Ends)> = self
            .edges
            .iter()
            .flat_map(|(&id, slot)| slot.iter().map(move |e| (id, e)))
            .filter(|(id, e)| {
                self.member(&e.bm, dependency) && snapshot.edge(*id).map(Ends::of) != Some(e.ends)
            })
            .map(|(id, e)| (id, e.ends))
            .collect();
        for (edge, ends) in dep_edges {
            let e = self.ensure_edge(edge, ends);
            e.bm.set(exception, true);
            e.bm.set(member, false);
        }

        // Node attributes: record the snapshot's values explicitly (the
        // attribute fallback only applies to untouched keys). Edges the
        // dependency does not share recorded theirs above.
        for (node, data) in snapshot.nodes() {
            if !data.attrs.is_empty() {
                let pool_node = self.ensure_node(node);
                Self::record_attrs(&mut pool_node.attrs, &data.attrs, member, exception);
            }
        }
        id
    }

    /// Records `values` as explicit (exception-marked) attribute values of
    /// a dependent graph.
    fn record_attrs(
        attrs: &mut BTreeMap<String, Vec<(AttrValue, BitMap)>>,
        values: &AttrMap,
        member: usize,
        exception: usize,
    ) {
        for (key, value) in values {
            Self::set_attr_bit(attrs, key, value, member);
            Self::set_attr_bit(attrs, key, value, exception);
        }
    }

    /// Overlays a materialized DeltaGraph node graph (single bit).
    pub fn add_materialized(&mut self, snapshot: &Snapshot) -> GraphId {
        let member = self.alloc_single();
        let id = self.register(GraphEntry {
            id: GraphId(0),
            kind: GraphKind::Materialized,
            time: None,
            dependency: None,
            bits: BitAssignment::Single { member },
            active: true,
            refs: 1,
        });
        self.overlay_with_bits(snapshot, member, None);
        id
    }

    /// A read view of one active graph.
    pub fn view(&self, id: GraphId) -> GraphView<'_> {
        GraphView::new(self, id)
    }

    // ------------------------------------------------------------------
    // Clean-up (lazy)
    // ------------------------------------------------------------------

    /// Adds a reference to an active graph, so a later [`GraphPool::release`]
    /// by one sharer does not tear the overlay down under the others.
    /// Returns `false` (and does nothing) if the graph is unknown, inactive,
    /// or the current graph (which is not reference-managed).
    pub fn retain(&mut self, id: GraphId) -> bool {
        if id == CURRENT_GRAPH {
            return false;
        }
        if let Some(Some(entry)) = self.entries.get_mut(id.0 as usize) {
            if entry.active {
                entry.refs += 1;
                return true;
            }
        }
        false
    }

    /// Number of outstanding references to a graph, if it is active.
    pub fn refcount(&self, id: GraphId) -> Option<usize> {
        self.entry(id).map(|e| e.refs)
    }

    /// Drops one reference to a graph. When the last reference goes, the
    /// graph is deactivated — its bits are *not* reset immediately; they are
    /// reclaimed by the next [`GraphPool::cleanup`] ("we instead perform
    /// clean-up in a lazy fashion", Section 6). The current graph cannot be
    /// released.
    pub fn release(&mut self, id: GraphId) {
        if id == CURRENT_GRAPH {
            return;
        }
        if let Some(Some(entry)) = self.entries.get_mut(id.0 as usize) {
            if entry.active {
                entry.refs = entry.refs.saturating_sub(1);
                if entry.refs == 0 {
                    entry.active = false;
                    self.pending_cleanup.push(id);
                }
            }
        }
    }

    /// Releases a graph unconditionally, ignoring outstanding references —
    /// the administrative big hammer behind pool-wide resets. The current
    /// graph still cannot be released.
    pub fn force_release(&mut self, id: GraphId) {
        if id == CURRENT_GRAPH {
            return;
        }
        if let Some(Some(entry)) = self.entries.get_mut(id.0 as usize) {
            if entry.active {
                entry.refs = 0;
                entry.active = false;
                self.pending_cleanup.push(id);
            }
        }
    }

    /// Number of graphs released but not yet cleaned up.
    pub fn pending_cleanup(&self) -> usize {
        self.pending_cleanup.len()
    }

    /// Scans the pool, resets the bits of released graphs, frees their bits
    /// for reuse, and removes elements that no longer belong to any active
    /// graph. Returns the number of elements removed from the union.
    pub fn cleanup(&mut self) -> usize {
        self.cleanup_with(BitMap::clear_mask)
    }

    /// [`GraphPool::cleanup`], clearing the released bits of every bitmap
    /// with `clear(bitmap, released)`.
    fn cleanup_with(&mut self, clear: impl Fn(&mut BitMap, &BitMap)) -> usize {
        if self.pending_cleanup.is_empty() {
            return 0;
        }
        let mut released = BitMap::new();
        for id in std::mem::take(&mut self.pending_cleanup) {
            if let Some(slot) = self.entries.get_mut(id.0 as usize) {
                if let Some(entry) = slot.take() {
                    match entry.bits {
                        BitAssignment::Single { member } => {
                            released.set(member, true);
                            self.free_singles.push(member);
                        }
                        BitAssignment::Pair { exception, member } => {
                            released.set(exception, true);
                            released.set(member, true);
                            self.free_pairs.push((exception, member));
                        }
                    }
                }
            }
        }
        let clear_attrs = |attrs: &mut BTreeMap<String, Vec<(AttrValue, BitMap)>>| {
            for values in attrs.values_mut() {
                for (_, bm) in values.iter_mut() {
                    clear(bm, &released);
                }
                values.retain(|(_, bm)| !bm.is_empty());
            }
            attrs.retain(|_, values| !values.is_empty());
        };
        for node in self.nodes.values_mut() {
            clear(&mut node.bm, &released);
            clear_attrs(&mut node.attrs);
        }
        for edge in self.edges.values_mut().flat_map(EdgeSlot::iter_mut) {
            clear(&mut edge.bm, &released);
            clear_attrs(&mut edge.attrs);
        }

        // Remove elements that belong to nothing any more.
        let mut dead_edges: Vec<(EdgeId, Ends)> = Vec::new();
        self.edges.retain(|&id, slot| {
            slot.reused.retain(|e| {
                let dead = e.bm.is_empty();
                if dead {
                    dead_edges.push((id, e.ends));
                }
                !dead
            });
            if !slot.first.bm.is_empty() {
                return true;
            }
            dead_edges.push((id, slot.first.ends));
            match slot.reused.pop() {
                Some(next) => {
                    slot.first = next;
                    true
                }
                None => false,
            }
        });
        for &(id, ends) in &dead_edges {
            for (from, to) in ends.links_out() {
                // Keep an entry a surviving incarnation shares.
                let shared = self
                    .edges
                    .get(&id)
                    .is_some_and(|slot| slot.iter().any(|e| e.ends.links(from, to)));
                if shared {
                    continue;
                }
                if let Some(list) = self.adj.get_mut(&from) {
                    list.retain(|entry| *entry != (to, id));
                }
            }
        }
        let dead_nodes: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.bm.is_empty())
            .map(|(id, _)| *id)
            .collect();
        for node in &dead_nodes {
            self.nodes.remove(node);
            self.adj.remove(node);
        }
        dead_nodes.len() + dead_edges.len()
    }

    // ------------------------------------------------------------------
    // Introspection used by views and benchmarks
    // ------------------------------------------------------------------

    pub(crate) fn union_neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        self.adj.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    pub(crate) fn union_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    pub(crate) fn union_edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.keys().copied()
    }

    /// Endpoints and direction of `edge` as graph `id` holds it.
    pub(crate) fn edge_endpoints(
        &self,
        id: GraphId,
        edge: EdgeId,
    ) -> Option<(NodeId, NodeId, bool)> {
        self.edge_in(id, edge)
            .map(|e| (e.ends.src, e.ends.dst, e.ends.directed))
    }

    /// Whether graph `id` holds `edge` as the link `from`–`to` that a
    /// [`GraphPool::union_neighbors`] entry of `from` names.
    pub(crate) fn contains_link(
        &self,
        id: GraphId,
        edge: EdgeId,
        from: NodeId,
        to: NodeId,
    ) -> bool {
        self.edge_in(id, edge)
            .is_some_and(|e| e.ends.links(from, to))
    }

    pub(crate) fn node_attrs_for(&self, id: GraphId, node: NodeId) -> Vec<(String, AttrValue)> {
        let Some(n) = self.nodes.get(&node) else {
            return Vec::new();
        };
        n.attrs
            .iter()
            .filter_map(|(key, values)| {
                values
                    .iter()
                    .find(|(_, bm)| self.member_attr(bm, id))
                    .map(|(v, _)| (key.clone(), v.clone()))
            })
            .collect()
    }

    pub(crate) fn edge_attrs_for(&self, id: GraphId, edge: EdgeId) -> Vec<(String, AttrValue)> {
        let Some(e) = self.edge_in(id, edge) else {
            return Vec::new();
        };
        e.attrs
            .iter()
            .filter_map(|(key, values)| {
                values
                    .iter()
                    .find(|(_, bm)| self.member_attr(bm, id))
                    .map(|(v, _)| (key.clone(), v.clone()))
            })
            .collect()
    }

    /// Number of nodes in the union graph.
    pub fn union_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the union graph (each incarnation of a reused
    /// edge id counts once).
    pub fn union_edge_count(&self) -> usize {
        self.edges.values().map(|slot| 1 + slot.reused.len()).sum()
    }

    /// Approximate memory footprint in bytes of the whole pool: union
    /// elements, adjacency, attribute values, and bitmaps. This is the
    /// quantity plotted in Figure 8(a).
    pub fn approx_memory(&self) -> usize {
        let mut total = 0usize;
        for node in self.nodes.values() {
            total += 48 + node.bm.approx_memory();
            for (key, values) in &node.attrs {
                total += key.len();
                for (v, bm) in values {
                    total += v.approx_size() + bm.approx_memory() + 16;
                }
            }
        }
        for edge in self.edges.values().flat_map(EdgeSlot::iter) {
            total += 64 + edge.bm.approx_memory();
            for (key, values) in &edge.attrs {
                total += key.len();
                for (v, bm) in values {
                    total += v.approx_size() + bm.approx_memory() + 16;
                }
            }
        }
        for list in self.adj.values() {
            total += 32 + list.len() * std::mem::size_of::<(NodeId, EdgeId)>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference clearing: one `set` per released bit (the random
    /// sequences below stay far below 256 bits).
    fn clear_per_bit(bm: &mut BitMap, released: &BitMap) {
        for bit in (0..256).filter(|&bit| released.get(bit)) {
            bm.set(bit, false);
        }
    }

    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }

    /// A graph over a small universe, so overlays overlap, edge ids come
    /// back between other endpoints, and attribute values collide.
    fn random_snapshot(rng: &mut u64) -> Snapshot {
        let mut s = Snapshot::new();
        for n in 0..12 {
            if !next(rng).is_multiple_of(3) {
                s.ensure_node(NodeId(n));
                if next(rng).is_multiple_of(2) {
                    let value = AttrValue::Int((next(rng) % 3) as i64);
                    s.set_node_attr(NodeId(n), "k", Some(value)).unwrap();
                }
            }
        }
        for e in 0..16 {
            if next(rng).is_multiple_of(2) {
                let (src, dst) = (NodeId(next(rng) % 12), NodeId(next(rng) % 12));
                s.add_edge(EdgeId(e), src, dst, next(rng).is_multiple_of(2))
                    .unwrap();
                if next(rng).is_multiple_of(2) {
                    let value = AttrValue::Int((next(rng) % 2) as i64);
                    s.set_edge_attr(EdgeId(e), "w", Some(value)).unwrap();
                }
            }
        }
        s
    }

    #[test]
    fn word_wise_cleanup_matches_per_bit_cleanup() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut cleanups = 0;
        for round in 0..40 {
            let mut pool = GraphPool::new();
            pool.set_current(&random_snapshot(&mut rng));
            let mut live: Vec<GraphId> = Vec::new();
            for step in 0..40 {
                let t = Timestamp(step);
                match next(&mut rng) % 6 {
                    0 | 1 => live.push(pool.add_historical(&random_snapshot(&mut rng), t)),
                    2 => {
                        let snapshot = random_snapshot(&mut rng);
                        live.push(pool.add_historical_dependent(&snapshot, t, CURRENT_GRAPH));
                    }
                    3 | 4 if !live.is_empty() => {
                        let id = live.swap_remove(next(&mut rng) as usize % live.len());
                        pool.release(id);
                    }
                    _ => {
                        let mut per_bit = pool.clone();
                        let removed = pool.cleanup();
                        assert_eq!(per_bit.cleanup_with(clear_per_bit), removed);
                        assert!(pool == per_bit, "round {round} step {step}");
                        cleanups += 1;
                    }
                }
            }
        }
        assert!(cleanups > 100, "only {cleanups} cleanups compared");
    }
}
