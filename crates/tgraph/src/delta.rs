//! Deltas: the columnar difference between two snapshots.
//!
//! A delta `∆(S_i, S_p)` contains exactly the information needed to construct
//! snapshot `S_i` from snapshot `S_p`: the elements to delete from `S_p` and
//! the elements to add to it (Section 4.2). Deltas are stored column-wise,
//! separating the *structure* information from the *node-attribute* and
//! *edge-attribute* information, so that a query that needs only the network
//! structure never reads or processes attribute data (Figure 8(d)).

use crate::attr::AttrValue;
use crate::error::Result;
use crate::ids::{EdgeId, NodeId};
use crate::snapshot::{EdgeData, Snapshot};

pub use crate::event::EventCategory as DeltaComponent;

/// A compact record of an edge's identity and endpoints, enough to add the
/// edge to a snapshot (attributes travel in the edge-attribute component).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeRecord {
    /// The edge id.
    pub edge: EdgeId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Whether the edge is directed.
    pub directed: bool,
}

/// The structure component of a delta: node and edge additions/removals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StructDelta {
    /// Nodes to add.
    pub add_nodes: Vec<NodeId>,
    /// Nodes to remove.
    pub del_nodes: Vec<NodeId>,
    /// Edges to add.
    pub add_edges: Vec<EdgeRecord>,
    /// Edges to remove.
    pub del_edges: Vec<EdgeRecord>,
}

impl StructDelta {
    /// Number of structural changes recorded.
    pub fn len(&self) -> usize {
        self.add_nodes.len() + self.del_nodes.len() + self.add_edges.len() + self.del_edges.len()
    }

    /// `true` if no structural change is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends every change of `other`, keeping each list's order.
    pub fn extend(&mut self, other: StructDelta) {
        if self.is_empty() {
            *self = other;
            return;
        }
        self.add_nodes.extend(other.add_nodes);
        self.del_nodes.extend(other.del_nodes);
        self.add_edges.extend(other.add_edges);
        self.del_edges.extend(other.del_edges);
    }

    /// Applies these changes to `target` in place, deletions before
    /// additions, with the tables pre-sized for the additions.
    ///
    /// Deletions of elements that are already absent are tolerated (this
    /// happens when a delta is applied on top of a *partially* fetched
    /// graph, e.g. structure-only retrieval where an attribute-less node
    /// was never materialized), and so are additions of elements that
    /// already exist.
    pub fn apply_to(&self, target: &mut Snapshot) -> Result<()> {
        for rec in &self.del_edges {
            if target.has_edge(rec.edge) {
                target.remove_edge(rec.edge)?;
            }
        }
        for n in &self.del_nodes {
            if target.has_node(*n) {
                target.remove_node(*n)?;
            }
        }
        target.reserve(self.add_nodes.len(), self.add_edges.len());
        for n in &self.add_nodes {
            target.ensure_node(*n);
        }
        for rec in &self.add_edges {
            if !target.has_edge(rec.edge) {
                target.add_edge(rec.edge, rec.src, rec.dst, rec.directed)?;
            }
        }
        Ok(())
    }
}

/// An attribute assignment carried by a delta: set `key` on element `id` to
/// `value` (`None` removes the attribute).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrAssignment<Id> {
    /// The element whose attribute is being assigned.
    pub id: Id,
    /// Attribute name.
    pub key: String,
    /// New value; `None` removes the attribute.
    pub value: Option<AttrValue>,
}

/// The difference between a *source* snapshot and a *target* snapshot,
/// split into columnar components.
///
/// Applying a delta to the source snapshot yields the target snapshot
/// (provided all components are present; a delta fetched with a restrictive
/// [`crate::AttrOptions`] may deliberately omit attribute components).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// Node/edge additions and removals.
    pub structure: StructDelta,
    /// Node attribute assignments (target-state values).
    pub node_attrs: Vec<AttrAssignment<NodeId>>,
    /// Edge attribute assignments (target-state values).
    pub edge_attrs: Vec<AttrAssignment<EdgeId>>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// `true` if the delta records no change at all.
    pub fn is_empty(&self) -> bool {
        self.structure.is_empty() && self.node_attrs.is_empty() && self.edge_attrs.is_empty()
    }

    /// Total number of recorded changes across all components.
    pub fn change_count(&self) -> usize {
        self.structure.len() + self.node_attrs.len() + self.edge_attrs.len()
    }

    /// Computes the delta that transforms `from` into `to`.
    ///
    /// * nodes/edges present in `to` but not `from` are additions,
    /// * nodes/edges present in `from` but not `to` are deletions,
    /// * attribute entries of surviving or added elements that differ are
    ///   emitted as target-state assignments (deleted elements need no
    ///   attribute assignments — removing the element removes its attributes).
    pub fn between(from: &Snapshot, to: &Snapshot) -> Delta {
        let mut delta = Delta::new();

        // Node additions/deletions and attribute reconciliation.
        for (n, to_data) in to.nodes() {
            match from.node(n) {
                None => {
                    delta.structure.add_nodes.push(n);
                    for (k, v) in &to_data.attrs {
                        delta.node_attrs.push(AttrAssignment {
                            id: n,
                            key: k.clone(),
                            value: Some(v.clone()),
                        });
                    }
                }
                Some(from_data) => {
                    for (k, v) in &to_data.attrs {
                        if from_data.attrs.get(k) != Some(v) {
                            delta.node_attrs.push(AttrAssignment {
                                id: n,
                                key: k.clone(),
                                value: Some(v.clone()),
                            });
                        }
                    }
                    for k in from_data.attrs.keys() {
                        if !to_data.attrs.contains_key(k) {
                            delta.node_attrs.push(AttrAssignment {
                                id: n,
                                key: k.clone(),
                                value: None,
                            });
                        }
                    }
                }
            }
        }
        for (n, _) in from.nodes() {
            if !to.has_node(n) {
                delta.structure.del_nodes.push(n);
            }
        }

        // Edge additions/deletions and attribute reconciliation. An edge
        // whose endpoints or direction changed is deleted and added back.
        let same_edge =
            |a: &EdgeData, b: &EdgeData| (a.src, a.dst, a.directed) == (b.src, b.dst, b.directed);
        for (e, to_data) in to.edges() {
            match from.edge(e).filter(|f| same_edge(f, to_data)) {
                None => {
                    delta.structure.add_edges.push(EdgeRecord {
                        edge: e,
                        src: to_data.src,
                        dst: to_data.dst,
                        directed: to_data.directed,
                    });
                    for (k, v) in &to_data.attrs {
                        delta.edge_attrs.push(AttrAssignment {
                            id: e,
                            key: k.clone(),
                            value: Some(v.clone()),
                        });
                    }
                }
                Some(from_data) => {
                    for (k, v) in &to_data.attrs {
                        if from_data.attrs.get(k) != Some(v) {
                            delta.edge_attrs.push(AttrAssignment {
                                id: e,
                                key: k.clone(),
                                value: Some(v.clone()),
                            });
                        }
                    }
                    for k in from_data.attrs.keys() {
                        if !to_data.attrs.contains_key(k) {
                            delta.edge_attrs.push(AttrAssignment {
                                id: e,
                                key: k.clone(),
                                value: None,
                            });
                        }
                    }
                }
            }
        }
        for (e, from_data) in from.edges() {
            if to.edge(e).is_none_or(|t| !same_edge(from_data, t)) {
                delta.structure.del_edges.push(EdgeRecord {
                    edge: e,
                    src: from_data.src,
                    dst: from_data.dst,
                    directed: from_data.directed,
                });
            }
        }

        // Deterministic ordering: helps codec round-trip tests and makes
        // construction reproducible across runs.
        delta.sort();
        delta
    }

    /// Sorts all component vectors; deltas are set-valued so order carries no
    /// meaning, but deterministic order makes serialization reproducible.
    pub fn sort(&mut self) {
        self.structure.add_nodes.sort_unstable();
        self.structure.del_nodes.sort_unstable();
        self.structure.add_edges.sort_unstable_by_key(|r| r.edge);
        self.structure.del_edges.sort_unstable_by_key(|r| r.edge);
        self.node_attrs
            .sort_by(|a, b| (a.id, &a.key).cmp(&(b.id, &b.key)));
        self.edge_attrs
            .sort_by(|a, b| (a.id, &a.key).cmp(&(b.id, &b.key)));
    }

    /// Applies this delta to `target` in place: the structure first (see
    /// [`StructDelta::apply_to`]), then the attribute assignments, so that
    /// they always refer to elements that exist. An assignment to an
    /// element that is absent is skipped.
    pub fn apply_to(&self, target: &mut Snapshot) -> Result<()> {
        self.structure.apply_to(target)?;
        for a in &self.node_attrs {
            target.assign_node_attr(a.id, &a.key, a.value.clone());
        }
        for a in &self.edge_attrs {
            target.assign_edge_attr(a.id, &a.key, a.value.clone());
        }
        Ok(())
    }

    /// Returns a copy of this delta containing only the requested components.
    pub fn project(&self, components: &[DeltaComponent]) -> Delta {
        let mut out = Delta::new();
        if components.contains(&DeltaComponent::Structure) {
            out.structure = self.structure.clone();
        }
        if components.contains(&DeltaComponent::NodeAttr) {
            out.node_attrs = self.node_attrs.clone();
        }
        if components.contains(&DeltaComponent::EdgeAttr) {
            out.edge_attrs = self.edge_attrs.clone();
        }
        out
    }

    /// Approximate serialized size in bytes of one component; this is the
    /// edge weight used by the query planner (the paper approximates the
    /// read-and-apply cost of an edge by the size of the delta retrieved).
    pub fn component_size(&self, component: DeltaComponent) -> usize {
        match component {
            DeltaComponent::Structure => {
                (self.structure.add_nodes.len() + self.structure.del_nodes.len()) * 9
                    + (self.structure.add_edges.len() + self.structure.del_edges.len()) * 26
            }
            DeltaComponent::NodeAttr => self
                .node_attrs
                .iter()
                .map(|a| 10 + a.key.len() + a.value.as_ref().map_or(1, AttrValue::approx_size))
                .sum(),
            DeltaComponent::EdgeAttr => self
                .edge_attrs
                .iter()
                .map(|a| 10 + a.key.len() + a.value.as_ref().map_or(1, AttrValue::approx_size))
                .sum(),
            DeltaComponent::Transient => 0,
        }
    }

    /// Approximate total serialized size in bytes across all components.
    pub fn total_size(&self) -> usize {
        self.component_size(DeltaComponent::Structure)
            + self.component_size(DeltaComponent::NodeAttr)
            + self.component_size(DeltaComponent::EdgeAttr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;

    fn snap(nodes: &[u64], edges: &[(u64, u64, u64)]) -> Snapshot {
        let mut s = Snapshot::new();
        for &n in nodes {
            s.add_node(NodeId(n)).unwrap();
        }
        for &(e, a, b) in edges {
            s.add_edge(EdgeId(e), NodeId(a), NodeId(b), false).unwrap();
        }
        s
    }

    #[test]
    fn delta_between_identical_snapshots_is_empty() {
        let a = snap(&[1, 2], &[(1, 1, 2)]);
        let d = Delta::between(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.change_count(), 0);
    }

    #[test]
    fn delta_roundtrip_structure() {
        let a = snap(&[1, 2, 3], &[(1, 1, 2)]);
        let b = snap(&[1, 3, 4], &[(2, 3, 4)]);
        let d = Delta::between(&a, &b);
        let mut a2 = a.clone();
        d.apply_to(&mut a2).unwrap();
        assert_eq!(a2, b);
        // and the reverse delta goes back
        let rd = Delta::between(&b, &a);
        let mut b2 = b.clone();
        rd.apply_to(&mut b2).unwrap();
        assert_eq!(b2, a);
    }

    #[test]
    fn delta_roundtrip_attributes() {
        let mut a = snap(&[1, 2], &[(1, 1, 2)]);
        a.set_node_attr(NodeId(1), "name", Some(AttrValue::from("x")))
            .unwrap();
        a.set_node_attr(NodeId(1), "stale", Some(AttrValue::from(1i64)))
            .unwrap();
        a.set_edge_attr(EdgeId(1), "w", Some(AttrValue::from(1i64)))
            .unwrap();
        let mut b = a.clone();
        b.set_node_attr(NodeId(1), "name", Some(AttrValue::from("y")))
            .unwrap();
        b.set_node_attr(NodeId(1), "stale", None).unwrap();
        b.set_node_attr(NodeId(2), "new", Some(AttrValue::from(true)))
            .unwrap();
        b.set_edge_attr(EdgeId(1), "w", Some(AttrValue::from(9i64)))
            .unwrap();

        let d = Delta::between(&a, &b);
        assert!(d.structure.is_empty());
        let mut a2 = a.clone();
        d.apply_to(&mut a2).unwrap();
        assert_eq!(a2, b);
    }

    #[test]
    fn added_node_attributes_travel_in_nodeattr_component() {
        let a = Snapshot::new();
        let mut b = Snapshot::new();
        b.add_node(NodeId(5)).unwrap();
        b.set_node_attr(NodeId(5), "k", Some(AttrValue::Int(1)))
            .unwrap();
        let d = Delta::between(&a, &b);
        assert_eq!(d.structure.add_nodes, vec![NodeId(5)]);
        assert_eq!(d.node_attrs.len(), 1);
        // structure-only projection drops the attribute but keeps the node
        let proj = d.project(&[DeltaComponent::Structure]);
        let mut t = Snapshot::new();
        proj.apply_to(&mut t).unwrap();
        assert!(t.has_node(NodeId(5)));
        assert_eq!(t.node_attr(NodeId(5), "k"), None);
    }

    #[test]
    fn projection_selects_components() {
        let mut a = snap(&[1, 2], &[(1, 1, 2)]);
        a.set_node_attr(NodeId(1), "n", Some(AttrValue::Int(1)))
            .unwrap();
        a.set_edge_attr(EdgeId(1), "e", Some(AttrValue::Int(2)))
            .unwrap();
        let d = Delta::between(&Snapshot::new(), &a);
        let s = d.project(&[DeltaComponent::Structure]);
        assert!(!s.structure.is_empty());
        assert!(s.node_attrs.is_empty() && s.edge_attrs.is_empty());
        let na = d.project(&[DeltaComponent::NodeAttr, DeltaComponent::EdgeAttr]);
        assert!(na.structure.is_empty());
        assert_eq!(na.node_attrs.len(), 1);
        assert_eq!(na.edge_attrs.len(), 1);
    }

    #[test]
    fn component_sizes_reflect_content() {
        let a = snap(&[], &[]);
        let b = snap(&[1, 2, 3], &[(1, 1, 2), (2, 2, 3)]);
        let d = Delta::between(&a, &b);
        assert!(d.component_size(DeltaComponent::Structure) > 0);
        assert_eq!(d.component_size(DeltaComponent::NodeAttr), 0);
        assert_eq!(d.total_size(), d.component_size(DeltaComponent::Structure));
    }

    #[test]
    fn tolerates_deleting_already_absent_elements() {
        let a = snap(&[1, 2], &[(1, 1, 2)]);
        let b = snap(&[1], &[]);
        let d = Delta::between(&a, &b);
        // this delta only deletes; applying it to an empty snapshot must be
        // a silent no-op (partial retrieval can legitimately hit this case)
        let mut empty = Snapshot::new();
        d.apply_to(&mut empty).unwrap();
        assert!(empty.is_empty());
        // applied to the real source it produces the target
        let mut a2 = a.clone();
        d.apply_to(&mut a2).unwrap();
        assert_eq!(a2, b);
    }

    #[test]
    fn deterministic_ordering_after_between() {
        let a = snap(&[], &[]);
        let b = snap(&[5, 3, 1, 4, 2], &[(9, 1, 2), (3, 3, 4)]);
        let d = Delta::between(&a, &b);
        let mut sorted = d.structure.add_nodes.clone();
        sorted.sort_unstable();
        assert_eq!(d.structure.add_nodes, sorted);
        let mut e_sorted = d.structure.add_edges.clone();
        e_sorted.sort_unstable_by_key(|r| r.edge);
        assert_eq!(d.structure.add_edges, e_sorted);
    }
}
