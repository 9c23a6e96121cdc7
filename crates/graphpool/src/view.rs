//! Read-only views of one graph inside the pool.
//!
//! A [`GraphView`] exposes the usual graph navigation operations
//! (`has_node`, `neighbors`, attribute lookup) for a single active graph,
//! filtering the pool's union structure through the graph's bitmap bits.
//! This is what analysis code operates on after a snapshot query; the
//! filtering cost is the "bitmap penalty" measured in Section 7.

use tgraph::{AttrValue, EdgeId, NodeId, Snapshot};

use crate::pool::{GraphId, GraphPool};

/// A read-only view of one active graph of the pool.
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    pool: &'a GraphPool,
    id: GraphId,
}

impl<'a> GraphView<'a> {
    pub(crate) fn new(pool: &'a GraphPool, id: GraphId) -> Self {
        GraphView { pool, id }
    }

    /// The graph this view reads.
    pub fn graph_id(&self) -> GraphId {
        self.id
    }

    /// Whether the node belongs to the viewed graph.
    pub fn has_node(&self, node: NodeId) -> bool {
        self.pool.contains_node(self.id, node)
    }

    /// Whether the edge belongs to the viewed graph.
    pub fn has_edge(&self, edge: EdgeId) -> bool {
        self.pool.contains_edge(self.id, edge)
    }

    /// Node ids of the viewed graph (filtered from the union).
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.pool
            .union_node_ids()
            .filter(|n| self.has_node(*n))
            .collect()
    }

    /// Edge ids of the viewed graph (filtered from the union).
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.pool
            .union_edge_ids()
            .filter(|e| self.has_edge(*e))
            .collect()
    }

    /// Number of nodes in the viewed graph.
    pub fn node_count(&self) -> usize {
        self.pool
            .union_node_ids()
            .filter(|n| self.has_node(*n))
            .count()
    }

    /// Number of edges in the viewed graph.
    pub fn edge_count(&self) -> usize {
        self.pool
            .union_edge_ids()
            .filter(|e| self.has_edge(*e))
            .count()
    }

    /// Outgoing neighbors of `node` within the viewed graph.
    pub fn neighbors(&self, node: NodeId) -> Vec<(NodeId, EdgeId)> {
        if !self.has_node(node) {
            return Vec::new();
        }
        self.pool
            .union_neighbors(node)
            .iter()
            .filter(|(nbr, edge)| {
                self.pool.contains_link(self.id, *edge, node, *nbr) && self.has_node(*nbr)
            })
            .copied()
            .collect()
    }

    /// Degree of `node` within the viewed graph.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Value of a node attribute within the viewed graph.
    pub fn node_attr(&self, node: NodeId, key: &str) -> Option<&'a AttrValue> {
        self.pool.node_attr(self.id, node, key)
    }

    /// Value of an edge attribute within the viewed graph.
    pub fn edge_attr(&self, edge: EdgeId, key: &str) -> Option<&'a AttrValue> {
        self.pool.edge_attr(self.id, edge, key)
    }

    /// Endpoints and direction of an edge of the viewed graph (`None` if
    /// the graph does not hold it).
    pub fn edge_endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId, bool)> {
        self.pool.edge_endpoints(self.id, edge)
    }

    /// Extracts the viewed graph into a standalone [`Snapshot`].
    pub fn to_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for node in self.node_ids() {
            snap.ensure_node(node);
            for (key, value) in self.pool.node_attrs_for(self.id, node) {
                snap.set_node_attr(node, &key, Some(value))
                    .expect("node was just added");
            }
        }
        for edge in self.edge_ids() {
            let (src, dst, directed) = self.edge_endpoints(edge).expect("edge is in the view");
            snap.ensure_node(src);
            snap.ensure_node(dst);
            snap.add_edge(edge, src, dst, directed)
                .expect("edge ids are unique");
            for (key, value) in self.pool.edge_attrs_for(self.id, edge) {
                snap.set_edge_attr(edge, &key, Some(value))
                    .expect("edge was just added");
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::CURRENT_GRAPH;
    use tgraph::Timestamp;

    fn snap(nodes: &[u64], edges: &[(u64, u64, u64)]) -> Snapshot {
        let mut s = Snapshot::new();
        for &n in nodes {
            s.ensure_node(NodeId(n));
        }
        for &(e, a, b) in edges {
            s.add_edge(EdgeId(e), NodeId(a), NodeId(b), false).unwrap();
        }
        s
    }

    #[test]
    fn view_filters_union_by_membership() {
        let mut pool = GraphPool::new();
        let g1 = pool.add_historical(&snap(&[1, 2, 3], &[(10, 1, 2)]), Timestamp(1));
        let g2 = pool.add_historical(&snap(&[2, 3, 4], &[(11, 3, 4)]), Timestamp(2));
        let v1 = pool.view(g1);
        let v2 = pool.view(g2);
        assert_eq!(v1.node_count(), 3);
        assert_eq!(v2.node_count(), 3);
        assert!(v1.has_edge(EdgeId(10)) && !v1.has_edge(EdgeId(11)));
        assert!(v2.has_edge(EdgeId(11)) && !v2.has_edge(EdgeId(10)));
        assert_eq!(v1.neighbors(NodeId(1)), vec![(NodeId(2), EdgeId(10))]);
        assert!(v2.neighbors(NodeId(1)).is_empty());
        // the union holds everything exactly once
        assert_eq!(pool.union_node_count(), 4);
        assert_eq!(pool.union_edge_count(), 2);
    }

    #[test]
    fn to_snapshot_round_trips() {
        let mut pool = GraphPool::new();
        let mut original = snap(&[1, 2], &[(5, 1, 2)]);
        original
            .set_node_attr(NodeId(1), "name", Some(AttrValue::from("n1")))
            .unwrap();
        original
            .set_edge_attr(EdgeId(5), "w", Some(AttrValue::Int(3)))
            .unwrap();
        let id = pool.add_historical(&original, Timestamp(7));
        let view = pool.view(id);
        assert_eq!(view.to_snapshot(), original);
        assert_eq!(
            view.node_attr(NodeId(1), "name"),
            Some(&AttrValue::from("n1"))
        );
        assert_eq!(view.edge_attr(EdgeId(5), "w"), Some(&AttrValue::Int(3)));
        assert_eq!(
            view.edge_endpoints(EdgeId(5)),
            Some((NodeId(1), NodeId(2), false))
        );
    }

    #[test]
    fn current_graph_view_follows_events() {
        let mut pool = GraphPool::new();
        pool.apply_event_to_current(&tgraph::Event::add_node(1, 1));
        pool.apply_event_to_current(&tgraph::Event::add_node(1, 2));
        pool.apply_event_to_current(&tgraph::Event::add_edge(2, 9, 1, 2));
        let view = pool.view(CURRENT_GRAPH);
        assert_eq!(view.node_count(), 2);
        assert!(view.has_edge(EdgeId(9)));
        pool.apply_event_to_current(&tgraph::Event::delete_edge(3, 9, 1, 2));
        assert!(!pool.view(CURRENT_GRAPH).has_edge(EdgeId(9)));
    }
}
