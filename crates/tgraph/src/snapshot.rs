//! A materialized graph snapshot as of a single time point.
//!
//! A [`Snapshot`] is the in-memory, indexed representation of a graph:
//! node and edge tables plus an adjacency index for traversal. Snapshots are
//! what the analytics layer operates on, what the DeltaGraph reconstructs,
//! and what deltas are computed between.

use std::collections::BTreeMap;

use crate::attr::{attr_map_size, AttrMap, AttrValue};
use crate::error::{Result, TgError};
use crate::event::{Event, EventKind};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{EdgeId, NodeId};

/// Per-node payload: the node's attribute map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeData {
    /// Attribute name → value.
    pub attrs: AttrMap,
}

/// Per-edge payload: endpoints, direction, and attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeData {
    /// Source endpoint (or one endpoint of an undirected edge).
    pub src: NodeId,
    /// Destination endpoint (or the other endpoint).
    pub dst: NodeId,
    /// Whether the edge is directed.
    pub directed: bool,
    /// Attribute name → value.
    pub attrs: AttrMap,
}

impl EdgeData {
    /// The endpoint opposite to `n`, if `n` is an endpoint of this edge.
    pub fn other_endpoint(&self, n: NodeId) -> Option<NodeId> {
        if self.src == n {
            Some(self.dst)
        } else if self.dst == n {
            Some(self.src)
        } else {
            None
        }
    }
}

/// A graph as of a single time point.
///
/// Equality compares the node and edge tables (ids, endpoints, attributes);
/// the adjacency index is derived state and is excluded — two snapshots built
/// by different event orders compare equal if they describe the same graph.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    nodes: FxHashMap<NodeId, NodeData>,
    edges: FxHashMap<EdgeId, EdgeData>,
    /// Outgoing adjacency: for undirected edges both endpoints index the edge,
    /// for directed edges only the source does.
    adj: FxHashMap<NodeId, Vec<(NodeId, EdgeId)>>,
    /// Incoming directed edges (self-loops excluded), indexed by their
    /// destination as `(source, edge)` — the edges `adj` does not list at
    /// the node they point into, so removing a node finds every incident
    /// edge in O(degree).
    inbound: FxHashMap<NodeId, Vec<(NodeId, EdgeId)>>,
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl Eq for Snapshot {}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the snapshot has no nodes and no edges.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// Total number of graph elements: nodes + edges + attribute entries.
    /// This is the "size" the paper's analytical model reasons about.
    pub fn element_count(&self) -> usize {
        let node_attrs: usize = self.nodes.values().map(|n| n.attrs.len()).sum();
        let edge_attrs: usize = self.edges.values().map(|e| e.attrs.len()).sum();
        self.nodes.len() + self.edges.len() + node_attrs + edge_attrs
    }

    /// Whether the node is present.
    pub fn has_node(&self, n: NodeId) -> bool {
        self.nodes.contains_key(&n)
    }

    /// Whether the edge is present.
    pub fn has_edge(&self, e: EdgeId) -> bool {
        self.edges.contains_key(&e)
    }

    /// The node payload, if present.
    pub fn node(&self, n: NodeId) -> Option<&NodeData> {
        self.nodes.get(&n)
    }

    /// The edge payload, if present.
    pub fn edge(&self, e: EdgeId) -> Option<&EdgeData> {
        self.edges.get(&e)
    }

    /// Iterator over `(NodeId, &NodeData)`.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeData)> {
        self.nodes.iter().map(|(k, v)| (*k, v))
    }

    /// Iterator over `(EdgeId, &EdgeData)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeData)> {
        self.edges.iter().map(|(k, v)| (*k, v))
    }

    /// Node ids, in unspecified order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Edge ids, in unspecified order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.keys().copied()
    }

    /// Outgoing neighbors of `n` as `(neighbor, edge)` pairs. For undirected
    /// edges both endpoints see each other; for directed edges only the
    /// source sees the destination. Returns an empty slice for unknown nodes.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        self.adj.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether any edge has `n` as an endpoint.
    pub fn has_incident_edges(&self, n: NodeId) -> bool {
        [&self.adj, &self.inbound]
            .iter()
            .any(|index| index.get(&n).is_some_and(|list| !list.is_empty()))
    }

    /// Out-degree of `n` (counting undirected edges once per endpoint).
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// The first edge found connecting `a` and `b` in either direction, if any.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.neighbors(a)
            .iter()
            .find(|(nbr, _)| *nbr == b)
            .map(|(_, e)| *e)
            .or_else(|| {
                // A directed edge b -> a is not in a's adjacency; check b's.
                self.neighbors(b)
                    .iter()
                    .find(|(nbr, _)| *nbr == a)
                    .map(|(_, e)| *e)
            })
    }

    // ------------------------------------------------------------------
    // Mutation primitives
    // ------------------------------------------------------------------

    /// Adds a node. Returns an error if it already exists.
    pub fn add_node(&mut self, n: NodeId) -> Result<()> {
        if self.nodes.contains_key(&n) {
            return Err(TgError::InvalidEvent(format!("node {n} already exists")));
        }
        self.nodes.insert(n, NodeData::default());
        Ok(())
    }

    /// Inserts a node if absent (no error when present). Used by overlays and
    /// differential-function combinators where idempotence is wanted.
    pub fn ensure_node(&mut self, n: NodeId) {
        self.nodes.entry(n).or_default();
    }

    /// Removes a node and (defensively) any incident edges, in O(degree).
    /// Returns an error if the node does not exist.
    pub fn remove_node(&mut self, n: NodeId) -> Result<()> {
        if self.nodes.remove(&n).is_none() {
            return Err(TgError::InvalidEvent(format!("node {n} does not exist")));
        }
        // Well-formed event streams delete incident edges first, but cascade
        // here so the structure never holds dangling adjacency.
        let incident: Vec<EdgeId> = [self.adj.remove(&n), self.inbound.remove(&n)]
            .into_iter()
            .flatten()
            .flatten()
            .map(|(_, e)| e)
            .collect();
        for e in incident {
            let _ = self.remove_edge(e);
        }
        Ok(())
    }

    /// Adds an edge; creates missing endpoints implicitly (the generators in
    /// `datagen` always emit node-add events first, but deltas produced by
    /// sampling differential functions may not preserve that ordering).
    pub fn add_edge(&mut self, e: EdgeId, src: NodeId, dst: NodeId, directed: bool) -> Result<()> {
        if self.edges.contains_key(&e) {
            return Err(TgError::InvalidEvent(format!("edge {e} already exists")));
        }
        self.ensure_node(src);
        self.ensure_node(dst);
        self.edges.insert(
            e,
            EdgeData {
                src,
                dst,
                directed,
                attrs: AttrMap::new(),
            },
        );
        self.link(e, src, dst, directed);
        Ok(())
    }

    /// Indexes edge `e` at its endpoints: `adj` at the source (and at the
    /// destination of an undirected edge), `inbound` at the destination of
    /// a directed one. A self-loop is indexed once.
    fn link(&mut self, e: EdgeId, src: NodeId, dst: NodeId, directed: bool) {
        self.adj.entry(src).or_default().push((dst, e));
        if src != dst {
            let at_dst = if directed {
                &mut self.inbound
            } else {
                &mut self.adj
            };
            at_dst.entry(dst).or_default().push((src, e));
        }
    }

    /// Removes an edge. Returns an error if it does not exist.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<()> {
        let data = self
            .edges
            .remove(&e)
            .ok_or_else(|| TgError::InvalidEvent(format!("edge {e} does not exist")))?;
        if let Some(list) = self.adj.get_mut(&data.src) {
            list.retain(|(_, id)| *id != e);
        }
        if data.src != data.dst {
            let at_dst = if data.directed {
                &mut self.inbound
            } else {
                &mut self.adj
            };
            if let Some(list) = at_dst.get_mut(&data.dst) {
                list.retain(|(_, id)| *id != e);
            }
        }
        Ok(())
    }

    /// Sets (or with `None` removes) a node attribute. The node must exist.
    pub fn set_node_attr(&mut self, n: NodeId, key: &str, value: Option<AttrValue>) -> Result<()> {
        if self.assign_node_attr(n, key, value) {
            Ok(())
        } else {
            Err(TgError::InvalidEvent(format!("node {n} does not exist")))
        }
    }

    /// Sets (or with `None` removes) an edge attribute. The edge must exist.
    pub fn set_edge_attr(&mut self, e: EdgeId, key: &str, value: Option<AttrValue>) -> Result<()> {
        if self.assign_edge_attr(e, key, value) {
            Ok(())
        } else {
            Err(TgError::InvalidEvent(format!("edge {e} does not exist")))
        }
    }

    /// [`Snapshot::set_node_attr`] where an absent node is skipped rather
    /// than an error; returns whether the node exists. The key is copied
    /// only when it is new to the node's map.
    pub fn assign_node_attr(&mut self, n: NodeId, key: &str, value: Option<AttrValue>) -> bool {
        match self.nodes.get_mut(&n) {
            Some(node) => {
                assign_attr(&mut node.attrs, key, value);
                true
            }
            None => false,
        }
    }

    /// [`Snapshot::assign_node_attr`] for an edge attribute.
    pub fn assign_edge_attr(&mut self, e: EdgeId, key: &str, value: Option<AttrValue>) -> bool {
        match self.edges.get_mut(&e) {
            Some(edge) => {
                assign_attr(&mut edge.attrs, key, value);
                true
            }
            None => false,
        }
    }

    /// Makes room for `nodes` more nodes and `edges` more edges, so a
    /// batch of additions of known size does not grow the tables step by
    /// step.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
        self.adj.reserve(nodes);
    }

    /// Node `n`, created if absent, with every entry of `attrs` assigned
    /// over its attributes — what `set_node_attr` per entry does, but the
    /// map's keys are moved in, not reallocated.
    pub(crate) fn merge_node_attrs(&mut self, n: NodeId, attrs: AttrMap) {
        merge_attrs(&mut self.nodes.entry(n).or_default().attrs, attrs);
    }

    /// Every entry of `attrs` assigned over the attributes of edge `e`, as
    /// [`Snapshot::merge_node_attrs`] does for nodes. The edge must exist.
    pub(crate) fn merge_edge_attrs(&mut self, e: EdgeId, attrs: AttrMap) -> Result<()> {
        let edge = self
            .edges
            .get_mut(&e)
            .ok_or_else(|| TgError::InvalidEvent(format!("edge {e} does not exist")))?;
        merge_attrs(&mut edge.attrs, attrs);
        Ok(())
    }

    /// Convenience read accessor for a node attribute.
    pub fn node_attr(&self, n: NodeId, key: &str) -> Option<&AttrValue> {
        self.nodes.get(&n).and_then(|d| d.attrs.get(key))
    }

    /// Convenience read accessor for an edge attribute.
    pub fn edge_attr(&self, e: EdgeId, key: &str) -> Option<&AttrValue> {
        self.edges.get(&e).and_then(|d| d.attrs.get(key))
    }

    // ------------------------------------------------------------------
    // Event application (forward and backward)
    // ------------------------------------------------------------------

    /// Applies a single event in the forward direction of time.
    /// Transient events are no-ops (they never affect snapshots).
    pub fn apply_forward(&mut self, ev: &Event) -> Result<()> {
        match &ev.kind {
            EventKind::AddNode { node } => self.add_node(*node),
            EventKind::DeleteNode { node } => self.remove_node(*node),
            EventKind::AddEdge {
                edge,
                src,
                dst,
                directed,
            } => self.add_edge(*edge, *src, *dst, *directed),
            EventKind::DeleteEdge { edge, .. } => self.remove_edge(*edge),
            EventKind::SetNodeAttr { node, key, new, .. } => {
                self.set_node_attr(*node, key, new.clone())
            }
            EventKind::SetEdgeAttr { edge, key, new, .. } => {
                self.set_edge_attr(*edge, key, new.clone())
            }
            EventKind::TransientEdge { .. } | EventKind::TransientNode { .. } => Ok(()),
        }
    }

    /// Applies a single event in the backward direction of time (undoes it).
    pub fn apply_backward(&mut self, ev: &Event) -> Result<()> {
        match &ev.kind {
            EventKind::AddNode { node } => self.remove_node(*node),
            EventKind::DeleteNode { node } => self.add_node(*node),
            EventKind::AddEdge { edge, .. } => self.remove_edge(*edge),
            EventKind::DeleteEdge {
                edge,
                src,
                dst,
                directed,
            } => self.add_edge(*edge, *src, *dst, *directed),
            EventKind::SetNodeAttr { node, key, old, .. } => {
                self.set_node_attr(*node, key, old.clone())
            }
            EventKind::SetEdgeAttr { edge, key, old, .. } => {
                self.set_edge_attr(*edge, key, old.clone())
            }
            EventKind::TransientEdge { .. } | EventKind::TransientNode { .. } => Ok(()),
        }
    }

    /// Applies a sequence of events in forward chronological order.
    pub fn apply_events_forward<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a Event>,
    ) -> Result<()> {
        for ev in events {
            self.apply_forward(ev)?;
        }
        Ok(())
    }

    /// Applies a sequence of events in the backward direction. The events
    /// must be supplied in forward chronological order; they are undone from
    /// the last to the first.
    pub fn apply_events_backward<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a Event, IntoIter: DoubleEndedIterator>,
    ) -> Result<()> {
        for ev in events.into_iter().rev() {
            self.apply_backward(ev)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Set-style combinators used by differential functions
    // ------------------------------------------------------------------

    /// Element-wise intersection: a node/edge is kept if present in both; an
    /// attribute entry is kept if present with an identical value in both.
    /// Edges are only kept if both endpoints survive the intersection.
    pub fn intersect(&self, other: &Snapshot) -> Snapshot {
        let mut out = Snapshot::new();
        for (n, data) in &self.nodes {
            if let Some(other_data) = other.nodes.get(n) {
                out.nodes.insert(
                    *n,
                    NodeData {
                        attrs: intersect_attrs(&data.attrs, &other_data.attrs),
                    },
                );
            }
        }
        for (e, data) in &self.edges {
            if let Some(other_data) = other.edges.get(e) {
                if out.nodes.contains_key(&data.src) && out.nodes.contains_key(&data.dst) {
                    let merged = EdgeData {
                        src: data.src,
                        dst: data.dst,
                        directed: data.directed,
                        attrs: intersect_attrs(&data.attrs, &other_data.attrs),
                    };
                    out.link(*e, data.src, data.dst, data.directed);
                    out.edges.insert(*e, merged);
                }
            }
        }
        out
    }

    /// Element-wise union: every node/edge present in either snapshot is kept;
    /// attribute conflicts are resolved in favour of `other` (the later
    /// argument), matching the Union differential function of Table 2.
    pub fn union(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (n, data) in &other.nodes {
            let entry = out.nodes.entry(*n).or_default();
            for (k, v) in &data.attrs {
                entry.attrs.insert(k.clone(), v.clone());
            }
        }
        for (e, data) in &other.edges {
            if !out.edges.contains_key(e) {
                out.ensure_node(data.src);
                out.ensure_node(data.dst);
                out.link(*e, data.src, data.dst, data.directed);
                out.edges.insert(*e, data.clone());
            } else {
                let entry = out.edges.get_mut(e).expect("just checked");
                for (k, v) in &data.attrs {
                    entry.attrs.insert(k.clone(), v.clone());
                }
            }
        }
        out
    }

    /// Returns a copy of this snapshot keeping only the attributes selected
    /// by `opts` (the structure is always kept). Used when a snapshot that is
    /// already in memory (a materialized DeltaGraph node, the current graph)
    /// serves a query that asked for fewer attributes.
    pub fn project_attrs(&self, opts: &crate::attr_options::AttrOptions) -> Snapshot {
        let mut out = self.clone();
        if !opts.node.is_all() {
            for data in out.nodes.values_mut() {
                data.attrs.retain(|k, _| opts.wants_node_attr(k));
            }
        }
        if !opts.edge.is_all() {
            for data in out.edges.values_mut() {
                data.attrs.retain(|k, _| opts.wants_edge_attr(k));
            }
        }
        out
    }

    /// Approximate memory footprint in bytes (node/edge tables, attribute
    /// payloads, adjacency). Used for the Figure 7(b) / 8(a) / 10(b)
    /// memory-consumption experiments.
    pub fn approx_memory(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .values()
            .map(|d| 48 + attr_map_size(&d.attrs))
            .sum();
        let edge_bytes: usize = self
            .edges
            .values()
            .map(|d| 64 + attr_map_size(&d.attrs))
            .sum();
        let adj_bytes: usize = self
            .adj
            .values()
            .chain(self.inbound.values())
            .map(|v| 32 + v.len() * std::mem::size_of::<(NodeId, EdgeId)>())
            .sum();
        node_bytes + edge_bytes + adj_bytes
    }

    /// Degree histogram `degree → count`, used by dataset-shape tests.
    pub fn degree_histogram(&self) -> BTreeMap<usize, usize> {
        let mut hist = BTreeMap::new();
        for n in self.nodes.keys() {
            *hist.entry(self.degree(*n)).or_insert(0) += 1;
        }
        hist
    }

    /// The set of node ids, as a hash set (convenience for tests/analytics).
    pub fn node_id_set(&self) -> FxHashSet<NodeId> {
        self.nodes.keys().copied().collect()
    }
}

/// Sets (or with `None` removes) `key` in `map`, allocating the key only
/// when it is new. Keys mostly arrive in order (a delta's attribute column
/// is sorted by element, then key), so a key past the map's last one is
/// inserted without a search for an existing entry first.
fn assign_attr(map: &mut AttrMap, key: &str, value: Option<AttrValue>) {
    let Some(v) = value else {
        map.remove(key);
        return;
    };
    if map
        .last_key_value()
        .is_none_or(|(last, _)| last.as_str() < key)
    {
        map.insert(key.to_owned(), v);
    } else if let Some(slot) = map.get_mut(key) {
        *slot = v;
    } else {
        map.insert(key.to_owned(), v);
    }
}

fn merge_attrs(into: &mut AttrMap, attrs: AttrMap) {
    if into.is_empty() {
        *into = attrs;
    } else {
        into.extend(attrs);
    }
}

fn intersect_attrs(a: &AttrMap, b: &AttrMap) -> AttrMap {
    a.iter()
        .filter(|(k, v)| b.get(*k) == Some(v))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.add_node(NodeId(1)).unwrap();
        s.add_node(NodeId(2)).unwrap();
        s.add_node(NodeId(3)).unwrap();
        s.add_edge(EdgeId(10), NodeId(1), NodeId(2), false).unwrap();
        s.add_edge(EdgeId(11), NodeId(2), NodeId(3), true).unwrap();
        s.set_node_attr(NodeId(1), "name", Some(AttrValue::from("a")))
            .unwrap();
        s.set_edge_attr(EdgeId(10), "w", Some(AttrValue::from(2i64)))
            .unwrap();
        s
    }

    #[test]
    fn basic_construction_and_counts() {
        let s = sample();
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 2);
        assert!(s.has_node(NodeId(1)));
        assert!(!s.has_node(NodeId(9)));
        assert_eq!(s.element_count(), 3 + 2 + 1 + 1);
    }

    #[test]
    fn adjacency_respects_direction() {
        let s = sample();
        // undirected edge 10 visible from both sides
        assert!(s.neighbors(NodeId(1)).contains(&(NodeId(2), EdgeId(10))));
        assert!(s.neighbors(NodeId(2)).contains(&(NodeId(1), EdgeId(10))));
        // directed edge 11 only from its source
        assert!(s.neighbors(NodeId(2)).contains(&(NodeId(3), EdgeId(11))));
        assert!(!s.neighbors(NodeId(3)).contains(&(NodeId(2), EdgeId(11))));
        assert_eq!(s.edge_between(NodeId(3), NodeId(2)), Some(EdgeId(11)));
        assert_eq!(s.edge_between(NodeId(1), NodeId(3)), None);
    }

    #[test]
    fn duplicate_node_and_edge_are_errors() {
        let mut s = sample();
        assert!(s.add_node(NodeId(1)).is_err());
        assert!(s.add_edge(EdgeId(10), NodeId(1), NodeId(3), false).is_err());
        assert!(s.remove_edge(EdgeId(99)).is_err());
        assert!(s.remove_node(NodeId(99)).is_err());
    }

    #[test]
    fn remove_node_cascades_incident_edges() {
        let mut s = sample();
        s.remove_node(NodeId(2)).unwrap();
        assert!(!s.has_edge(EdgeId(10)));
        assert!(!s.has_edge(EdgeId(11)));
        assert!(s.neighbors(NodeId(1)).is_empty());
    }

    /// The reference cascade: scan the whole edge table for edges touching
    /// the node.
    fn remove_node_by_scan(s: &mut Snapshot, n: NodeId) {
        let incident: Vec<EdgeId> = s
            .edges()
            .filter(|(_, d)| d.src == n || d.dst == n)
            .map(|(e, _)| e)
            .collect();
        for e in incident {
            s.remove_edge(e).unwrap();
        }
        s.nodes.remove(&n).unwrap();
        s.adj.remove(&n);
        s.inbound.remove(&n);
    }

    #[test]
    fn adjacency_cascade_matches_the_edge_table_scan() {
        // Node 1 has outgoing and incoming directed edges, undirected edges
        // in both endpoint orders, and a directed and an undirected
        // self-loop; 2 and 3 point at each other.
        let mut s = Snapshot::new();
        let edges = [
            (1, 1, 2, true),
            (2, 3, 1, true),
            (3, 4, 1, true),
            (4, 1, 4, false),
            (5, 5, 1, false),
            (6, 1, 1, true),
            (7, 1, 1, false),
            (8, 2, 3, true),
            (9, 3, 2, true),
            (10, 2, 5, false),
        ];
        for (e, src, dst, directed) in edges {
            s.add_edge(EdgeId(e), NodeId(src), NodeId(dst), directed)
                .unwrap();
        }
        for n in 1..=5 {
            let mut fast = s.clone();
            let mut slow = s.clone();
            fast.remove_node(NodeId(n)).unwrap();
            remove_node_by_scan(&mut slow, NodeId(n));
            assert_eq!(fast, slow, "node {n}");
            for m in fast.node_ids() {
                let mut a = fast.neighbors(m).to_vec();
                let mut b = slow.neighbors(m).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "adjacency of {m} after removing {n}");
            }
            // No index still names a removed edge.
            for list in fast.adj.values().chain(fast.inbound.values()) {
                assert!(list.iter().all(|(_, e)| fast.has_edge(*e)), "node {n}");
            }
        }
        // Node 1 removed: everything left is the 2/3/5 triangle's edges.
        s.remove_node(NodeId(1)).unwrap();
        let mut left: Vec<_> = s.edge_ids().collect();
        left.sort_unstable();
        assert_eq!(left, [EdgeId(8), EdgeId(9), EdgeId(10)]);
        assert_eq!(s.degree(NodeId(5)), 1);
        assert!(!s.inbound.contains_key(&NodeId(1)));
    }

    #[test]
    fn attribute_set_and_remove() {
        let mut s = sample();
        assert_eq!(s.node_attr(NodeId(1), "name"), Some(&AttrValue::from("a")));
        s.set_node_attr(NodeId(1), "name", None).unwrap();
        assert_eq!(s.node_attr(NodeId(1), "name"), None);
        assert!(s
            .set_node_attr(NodeId(77), "x", Some(AttrValue::Int(1)))
            .is_err());
        assert!(s
            .set_edge_attr(EdgeId(77), "x", Some(AttrValue::Int(1)))
            .is_err());
    }

    #[test]
    fn forward_then_backward_restores_snapshot() {
        let mut s = sample();
        let before = s.clone();
        let events = vec![
            Event::add_node(5, 7),
            Event::add_edge(5, 20, 7, 1),
            Event::set_node_attr(6, 7, "k", None, Some(AttrValue::Int(3))),
            Event::set_node_attr(7, 7, "k", Some(AttrValue::Int(3)), Some(AttrValue::Int(4))),
            Event::delete_edge(8, 20, 7, 1),
        ];
        s.apply_events_forward(&events).unwrap();
        assert!(s.has_node(NodeId(7)));
        assert_eq!(s.node_attr(NodeId(7), "k"), Some(&AttrValue::Int(4)));
        s.apply_events_backward(&events).unwrap();
        assert_eq!(s, before);
    }

    #[test]
    fn transient_events_are_noops() {
        let mut s = sample();
        let before = s.clone();
        let ev = Event::transient_edge(9, 1, 2, Some(AttrValue::from("hello")));
        s.apply_forward(&ev).unwrap();
        assert_eq!(s, before);
        s.apply_backward(&ev).unwrap();
        assert_eq!(s, before);
    }

    #[test]
    fn equality_ignores_adjacency_order() {
        let mut a = Snapshot::new();
        a.add_node(NodeId(1)).unwrap();
        a.add_node(NodeId(2)).unwrap();
        a.add_node(NodeId(3)).unwrap();
        a.add_edge(EdgeId(1), NodeId(1), NodeId(2), false).unwrap();
        a.add_edge(EdgeId(2), NodeId(1), NodeId(3), false).unwrap();

        let mut b = Snapshot::new();
        b.add_node(NodeId(3)).unwrap();
        b.add_node(NodeId(2)).unwrap();
        b.add_node(NodeId(1)).unwrap();
        b.add_edge(EdgeId(2), NodeId(1), NodeId(3), false).unwrap();
        b.add_edge(EdgeId(1), NodeId(1), NodeId(2), false).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn intersection_keeps_common_elements_only() {
        let a = sample();
        let mut b = sample();
        b.remove_edge(EdgeId(11)).unwrap();
        b.set_node_attr(NodeId(1), "name", Some(AttrValue::from("different")))
            .unwrap();
        let i = a.intersect(&b);
        assert_eq!(i.node_count(), 3);
        assert!(i.has_edge(EdgeId(10)));
        assert!(!i.has_edge(EdgeId(11)));
        // conflicting attribute value dropped
        assert_eq!(i.node_attr(NodeId(1), "name"), None);
        // matching edge attribute retained
        assert_eq!(i.edge_attr(EdgeId(10), "w"), Some(&AttrValue::Int(2)));
    }

    #[test]
    fn union_keeps_everything() {
        let mut a = Snapshot::new();
        a.add_node(NodeId(1)).unwrap();
        let mut b = Snapshot::new();
        b.add_node(NodeId(2)).unwrap();
        b.add_edge(EdgeId(5), NodeId(2), NodeId(3), false).unwrap();
        let u = a.union(&b);
        assert_eq!(u.node_count(), 3);
        assert!(u.has_edge(EdgeId(5)));
        assert!(u.neighbors(NodeId(3)).contains(&(NodeId(2), EdgeId(5))));
    }

    #[test]
    fn project_attrs_strips_unselected_attributes() {
        let s = sample();
        let structure_only = s.project_attrs(&crate::AttrOptions::structure_only());
        assert_eq!(structure_only.node_count(), s.node_count());
        assert_eq!(structure_only.edge_count(), s.edge_count());
        assert_eq!(structure_only.node_attr(NodeId(1), "name"), None);
        assert_eq!(structure_only.edge_attr(EdgeId(10), "w"), None);

        let all = s.project_attrs(&crate::AttrOptions::all());
        assert_eq!(all, s);

        let named = s.project_attrs(&crate::AttrOptions::parse("+node:name").unwrap());
        assert_eq!(
            named.node_attr(NodeId(1), "name"),
            Some(&AttrValue::from("a"))
        );
        assert_eq!(named.edge_attr(EdgeId(10), "w"), None);
    }

    #[test]
    fn memory_accounting_is_monotone() {
        let empty = Snapshot::new().approx_memory();
        let s = sample().approx_memory();
        assert!(s > empty);
    }

    #[test]
    fn degree_histogram_counts_nodes() {
        let s = sample();
        let hist = s.degree_histogram();
        let total: usize = hist.values().sum();
        assert_eq!(total, s.node_count());
    }
}
