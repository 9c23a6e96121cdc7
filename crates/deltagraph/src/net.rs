//! Carrying a graph across a span of events as one merge.
//!
//! A retrieval finishes at its query time by applying the prefix of a leaf
//! eventlist up to `t`, or undoing its suffix after `t`. Rather than
//! applying event by event, [`apply_events`] reduces the span to its net
//! effect per id — which nodes and edges end up deleted or added, and the
//! last value each touched attribute is left with — and merges those runs
//! into the graph's columns once ([`ColumnGraph::apply`]).
//!
//! The reduction replays the span on per-id state only: an event fails
//! exactly where applying it to the whole graph would. Where a
//! [`tgraph::Snapshot`] would cascade — removing a node removes its edges
//! and attributes — the reduction asserts the §3.1 replay contract instead:
//! a node may be removed only once its edges and attributes are gone. Each
//! touched node counts its live attributes and edges as the replay goes,
//! so that check costs one lookup.

use tgraph::columns::Assignment;
use tgraph::fxhash::FxHashMap;
use tgraph::{
    AttrOptions, AttrValue, ColumnGraph, EdgeId, EdgeRecord, Event, EventKind, NodeId, StructDelta,
    TgError, Timestamp,
};

use crate::error::{DgError, DgResult};

/// One event as applied forward; undoing an event applies its inverse.
enum Op<'a> {
    AddNode(NodeId),
    RemoveNode(NodeId),
    AddEdge(EdgeRecord),
    RemoveEdge(EdgeId),
    NodeAttr(NodeId, &'a str, Option<&'a AttrValue>),
    EdgeAttr(EdgeId, &'a str, Option<&'a AttrValue>),
}

impl<'a> Op<'a> {
    /// `ev` applied forward, or undone; `None` for a transient event.
    fn of(ev: &'a Event, forward: bool) -> Option<Op<'a>> {
        Some(match &ev.kind {
            EventKind::AddNode { node } if forward => Op::AddNode(*node),
            EventKind::AddNode { node } => Op::RemoveNode(*node),
            EventKind::DeleteNode { node } if forward => Op::RemoveNode(*node),
            EventKind::DeleteNode { node } => Op::AddNode(*node),
            EventKind::AddEdge {
                edge,
                src,
                dst,
                directed,
            } if forward => Op::AddEdge(EdgeRecord {
                edge: *edge,
                src: *src,
                dst: *dst,
                directed: *directed,
            }),
            EventKind::AddEdge { edge, .. } => Op::RemoveEdge(*edge),
            EventKind::DeleteEdge { edge, .. } if forward => Op::RemoveEdge(*edge),
            EventKind::DeleteEdge {
                edge,
                src,
                dst,
                directed,
            } => Op::AddEdge(EdgeRecord {
                edge: *edge,
                src: *src,
                dst: *dst,
                directed: *directed,
            }),
            EventKind::SetNodeAttr {
                node,
                key,
                old,
                new,
            } => Op::NodeAttr(*node, key, if forward { new } else { old }.as_ref()),
            EventKind::SetEdgeAttr {
                edge,
                key,
                old,
                new,
            } => Op::EdgeAttr(*edge, key, if forward { new } else { old }.as_ref()),
            EventKind::TransientEdge { .. } | EventKind::TransientNode { .. } => return None,
        })
    }
}

/// A touched node: whether it was in the graph, whether it is now, how
/// many times the span removed it (attributes set before the last removal
/// are gone with it), and how many attributes and edges it has now. The
/// edge count starts from the node's edges in the graph only for a node
/// the span removes: no other node's count is read.
struct NodeState {
    initial: bool,
    present: bool,
    removals: u32,
    attrs: isize,
    edges: isize,
}

/// A touched edge, as [`NodeState`] for a node.
struct EdgeState {
    initial: Option<EdgeRecord>,
    current: Option<EdgeRecord>,
    removals: u32,
}

/// Whether a span applied under `opts` reads `ev`: attribute events only
/// for a selected attribute.
pub(crate) fn wanted(ev: &Event, opts: &AttrOptions) -> bool {
    match &ev.kind {
        EventKind::SetNodeAttr { key, .. } => opts.wants_node_attr(key),
        EventKind::SetEdgeAttr { key, .. } => opts.wants_edge_attr(key),
        _ => true,
    }
}

/// The error for node `n`, removed at `time` while it still has edges or
/// attributes.
pub(crate) fn not_bare(n: NodeId, time: Timestamp) -> DgError {
    invalid(format!(
        "replay contract (§3.1): node {n} removed at {time} while it still has edges or \
         attributes"
    ))
}

/// Carries `graph` across `events` as one merge (see the module
/// documentation and [`crate::GraphForm::apply_span`]).
pub(crate) fn apply_events(
    graph: &mut ColumnGraph,
    events: &[Event],
    forward: bool,
    opts: &AttrOptions,
) -> DgResult<()> {
    let wanted = |ev: &&Event| wanted(ev, opts);
    let ops: Vec<(Timestamp, Op<'_>)> = if forward {
        events
            .iter()
            .filter(wanted)
            .filter_map(|ev| Some((ev.time, Op::of(ev, true)?)))
            .collect()
    } else {
        events
            .iter()
            .rev()
            .filter(wanted)
            .filter_map(|ev| Some((ev.time, Op::of(ev, false)?)))
            .collect()
    };
    if ops.is_empty() {
        return Ok(());
    }
    let mut span = Span {
        graph,
        nodes: FxHashMap::default(),
        edges: FxHashMap::default(),
        node_attrs: FxHashMap::default(),
        edge_attrs: FxHashMap::default(),
        degrees: removed_degrees(graph, &ops),
    };
    for (time, op) in &ops {
        span.replay(*time, op)?;
    }
    let (structure, node_attrs, edge_attrs) = span.net_runs();
    graph.apply(&structure, node_attrs, edge_attrs)?;
    Ok(())
}

/// How many edges of `graph` each node the span removes has: all of them
/// must be deleted before the node is.
fn removed_degrees(graph: &ColumnGraph, ops: &[(Timestamp, Op<'_>)]) -> FxHashMap<NodeId, isize> {
    let mut degrees: FxHashMap<NodeId, isize> = ops
        .iter()
        .filter_map(|(_, op)| match op {
            Op::RemoveNode(n) if graph.has_node(*n) => Some((*n, 0)),
            _ => None,
        })
        .collect();
    if !degrees.is_empty() {
        for r in graph.edges() {
            if let Some(d) = degrees.get_mut(&r.src) {
                *d += 1;
            }
            if let Some(d) = degrees.get_mut(&r.dst).filter(|_| r.dst != r.src) {
                *d += 1;
            }
        }
    }
    degrees
}

/// The per-id state of a span being replayed over a graph.
struct Span<'g, 'a> {
    graph: &'g ColumnGraph,
    nodes: FxHashMap<NodeId, NodeState>,
    edges: FxHashMap<EdgeId, EdgeState>,
    /// The last value each touched attribute was set to, with the number of
    /// removals its element had had then.
    node_attrs: FxHashMap<(NodeId, &'a str), (u32, Option<&'a AttrValue>)>,
    edge_attrs: FxHashMap<(EdgeId, &'a str), (u32, Option<&'a AttrValue>)>,
    /// See [`removed_degrees`].
    degrees: FxHashMap<NodeId, isize>,
}

impl<'a> Span<'_, 'a> {
    fn node(&mut self, n: NodeId) -> &mut NodeState {
        let (graph, degrees) = (self.graph, &self.degrees);
        self.nodes.entry(n).or_insert_with(|| {
            let initial = graph.has_node(n);
            NodeState {
                initial,
                present: initial,
                removals: 0,
                attrs: graph.node_attrs(n).len() as isize,
                edges: degrees.get(&n).copied().unwrap_or(0),
            }
        })
    }

    fn edge(&mut self, e: EdgeId) -> &mut EdgeState {
        let graph = self.graph;
        self.edges.entry(e).or_insert_with(|| {
            let initial = graph.edge(e).copied();
            EdgeState {
                initial,
                current: initial,
                removals: 0,
            }
        })
    }

    /// Applies one op to the state, failing where the same op on the whole
    /// graph would (see [`tgraph::Snapshot::apply_forward`]).
    fn replay(&mut self, time: Timestamp, op: &Op<'a>) -> DgResult<()> {
        match *op {
            Op::AddNode(n) => {
                let node = self.node(n);
                if node.present {
                    return Err(invalid(format!("node {n} already exists")));
                }
                node.present = true;
            }
            Op::RemoveNode(n) => {
                let node = self.node(n);
                if !node.present {
                    return Err(invalid(format!("node {n} does not exist")));
                }
                if node.attrs != 0 || node.edges != 0 {
                    return Err(not_bare(n, time));
                }
                node.present = false;
                node.removals += 1;
            }
            Op::AddEdge(rec) => {
                let edge = self.edge(rec.edge);
                if edge.current.is_some() {
                    return Err(invalid(format!("edge {} already exists", rec.edge)));
                }
                edge.current = Some(rec);
                // Like `Snapshot::add_edge`, an edge brings missing endpoints.
                self.node(rec.src).present = true;
                self.node(rec.dst).present = true;
                self.count_edge(rec, 1);
            }
            Op::RemoveEdge(e) => {
                let edge = self.edge(e);
                let Some(rec) = edge.current.take() else {
                    return Err(invalid(format!("edge {e} does not exist")));
                };
                edge.removals += 1;
                self.count_edge(rec, -1);
            }
            Op::NodeAttr(n, key, value) => {
                let node = self.node(n);
                if !node.present {
                    return Err(invalid(format!("node {n} does not exist")));
                }
                let removals = node.removals;
                // Whether the attribute was set: by the span since the
                // node's last removal, or else by the graph if none.
                let was_set = match self.node_attrs.insert((n, key), (removals, value)) {
                    Some((r, old)) => r == removals && old.is_some(),
                    None => {
                        removals == 0
                            && self.graph.node_attrs(n).iter().any(|(_, k, _)| &**k == key)
                    }
                };
                self.node(n).attrs += isize::from(value.is_some()) - isize::from(was_set);
            }
            Op::EdgeAttr(e, key, value) => {
                let edge = self.edge(e);
                if edge.current.is_none() {
                    return Err(invalid(format!("edge {e} does not exist")));
                }
                let removals = edge.removals;
                self.edge_attrs.insert((e, key), (removals, value));
            }
        }
        Ok(())
    }

    /// Adds `by` to the edge count of each endpoint of `rec` (a self-loop
    /// counts once).
    fn count_edge(&mut self, rec: EdgeRecord, by: isize) {
        self.node(rec.src).edges += by;
        if rec.dst != rec.src {
            self.node(rec.dst).edges += by;
        }
    }

    /// The net effect of the span: sorted delete and add runs per id, and
    /// the attribute assignments that still hold.
    #[allow(clippy::type_complexity)]
    fn net_runs(
        self,
    ) -> (
        StructDelta,
        Vec<Assignment<'a, NodeId>>,
        Vec<Assignment<'a, EdgeId>>,
    ) {
        let mut structure = StructDelta::default();
        for (&n, s) in &self.nodes {
            if s.initial && (!s.present || s.removals > 0) {
                structure.del_nodes.push(n);
            }
            if s.present && (!s.initial || s.removals > 0) {
                structure.add_nodes.push(n);
            }
        }
        for s in self.edges.values() {
            if let Some(rec) = s.initial.filter(|_| s.current.is_none() || s.removals > 0) {
                structure.del_edges.push(rec);
            }
            if let Some(rec) = s.current.filter(|_| s.initial.is_none() || s.removals > 0) {
                structure.add_edges.push(rec);
            }
        }
        structure.add_nodes.sort_unstable();
        structure.del_nodes.sort_unstable();
        structure.add_edges.sort_unstable_by_key(|r| r.edge);
        structure.del_edges.sort_unstable_by_key(|r| r.edge);
        let nodes = &self.nodes;
        let mut node_attrs: Vec<Assignment<'a, NodeId>> = self
            .node_attrs
            .into_iter()
            .filter(|((n, _), (r, _))| nodes[n].present && nodes[n].removals == *r)
            .map(|((n, key), (_, v))| (n, key, v.cloned()))
            .collect();
        node_attrs.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let edges = &self.edges;
        let mut edge_attrs: Vec<Assignment<'a, EdgeId>> = self
            .edge_attrs
            .into_iter()
            .filter(|((e, _), (r, _))| edges[e].current.is_some() && edges[e].removals == *r)
            .map(|((e, key), (_, v))| (e, key, v.cloned()))
            .collect();
        edge_attrs.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        (structure, node_attrs, edge_attrs)
    }
}

fn invalid(msg: String) -> DgError {
    DgError::Model(TgError::InvalidEvent(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::tests::{random_graph, selections, Rng, EDGE_KEYS, NODE_KEYS};
    use crate::GraphForm;
    use proptest::prelude::*;
    use tgraph::Snapshot;

    /// `events` applied to (or undone from) `graph` one at a time, the way
    /// a [`Snapshot`] replays them, skipping what `opts` does not select.
    fn replay(graph: &Snapshot, events: &[Event], forward: bool, opts: &AttrOptions) -> Snapshot {
        let mut out = graph.project_attrs(opts);
        let wanted = |ev: &&Event| wanted(ev, opts);
        if forward {
            for ev in events.iter().filter(wanted) {
                out.apply_forward(ev).unwrap();
            }
        } else {
            for ev in events.iter().rev().filter(wanted) {
                out.apply_backward(ev).unwrap();
            }
        }
        out
    }

    /// `events` applied as one merge to the columns of `graph`, and as a
    /// checked replay to the snapshot itself: the two forms must agree.
    fn merged(
        graph: &Snapshot,
        events: &[Event],
        forward: bool,
        opts: &AttrOptions,
    ) -> DgResult<Snapshot> {
        let mut snapshot = graph.project_attrs(opts);
        let mut columns = ColumnGraph::from_snapshot(&snapshot);
        let by_columns = columns.apply_span(events, forward, opts).map(|()| columns);
        let by_snapshot = snapshot
            .apply_span(events, forward, opts)
            .map(|()| snapshot);
        match (by_columns, by_snapshot) {
            (Ok(columns), Ok(snapshot)) => {
                let columns = columns.into_snapshot();
                assert_eq!(columns, snapshot, "the two forms differ");
                Ok(columns)
            }
            (Err(e), Err(_)) => Err(e),
            (a, b) => panic!("columns {:?}, snapshot {:?}", a.map(|_| ()), b.map(|_| ())),
        }
    }

    /// A random span of well-formed events over `graph` (§3.1: attributes
    /// and edges go before their element), and the graph it ends at.
    fn random_span(graph: &Snapshot, rng: &mut Rng) -> (Vec<Event>, Snapshot) {
        let mut g = graph.clone();
        let mut events = Vec::new();
        let mut push = |g: &mut Snapshot, ev: Event| {
            g.apply_forward(&ev).unwrap();
            events.push(ev);
        };
        for step in 0..40i64 {
            let t = step / 3;
            let nodes: Vec<NodeId> = g.node_ids().collect();
            let edges: Vec<EdgeId> = g.edge_ids().collect();
            let clear_edge = |g: &Snapshot, e: EdgeId| -> Vec<Event> {
                let d = g.edge(e).unwrap();
                let mut out: Vec<Event> = d
                    .attrs
                    .iter()
                    .map(|(k, v)| {
                        Event::set_edge_attr(t, e.raw(), k.clone(), Some(v.clone()), None)
                    })
                    .collect();
                out.push(Event::new(
                    t,
                    EventKind::DeleteEdge {
                        edge: e,
                        src: d.src,
                        dst: d.dst,
                        directed: d.directed,
                    },
                ));
                out
            };
            match rng.below(6) {
                0 => {
                    let n = NodeId(24 + rng.below(12));
                    if !g.has_node(n) {
                        push(&mut g, Event::add_node(t, n.raw()));
                    }
                }
                1 if !nodes.is_empty() => {
                    let n = nodes[rng.below(nodes.len() as u64) as usize];
                    let attrs: Vec<_> = g.node(n).unwrap().attrs.clone().into_iter().collect();
                    for (k, v) in attrs {
                        push(&mut g, Event::set_node_attr(t, n.raw(), k, Some(v), None));
                    }
                    let incident: Vec<EdgeId> = g
                        .edges()
                        .filter(|(_, d)| d.src == n || d.dst == n)
                        .map(|(e, _)| e)
                        .collect();
                    for e in incident {
                        for ev in clear_edge(&g, e) {
                            push(&mut g, ev);
                        }
                    }
                    push(&mut g, Event::delete_node(t, n.raw()));
                }
                2 if !nodes.is_empty() => {
                    let e = 100 + step as u64;
                    let (a, b) = (
                        nodes[rng.below(nodes.len() as u64) as usize],
                        nodes[rng.below(nodes.len() as u64) as usize],
                    );
                    push(&mut g, Event::add_edge(t, e, a.raw(), b.raw()));
                }
                3 if !edges.is_empty() => {
                    let e = edges[rng.below(edges.len() as u64) as usize];
                    for ev in clear_edge(&g, e) {
                        push(&mut g, ev);
                    }
                }
                4 if !nodes.is_empty() => {
                    let n = nodes[rng.below(nodes.len() as u64) as usize];
                    let key = NODE_KEYS[rng.below(NODE_KEYS.len() as u64) as usize];
                    let old = g.node_attr(n, key).cloned();
                    let new = (rng.below(3) > 0).then(|| rng.value());
                    push(&mut g, Event::set_node_attr(t, n.raw(), key, old, new));
                }
                5 if !edges.is_empty() => {
                    let e = edges[rng.below(edges.len() as u64) as usize];
                    let key = EDGE_KEYS[rng.below(EDGE_KEYS.len() as u64) as usize];
                    let old = g.edge_attr(e, key).cloned();
                    let new = (rng.below(3) > 0).then(|| rng.value());
                    push(&mut g, Event::set_edge_attr(t, e.raw(), key, old, new));
                }
                _ => {}
            }
        }
        (events, g)
    }

    proptest! {
        #[test]
        fn a_merged_span_equals_event_by_event_replay(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let start = random_graph(&mut rng);
            let (events, end) = random_span(&start, &mut rng);
            let cut = rng.below(events.len() as u64 + 1) as usize;
            let (prefix, suffix) = events.split_at(cut);
            for opts in selections() {
                let forward = replay(&start, prefix, true, &opts);
                assert_eq!(merged(&start, prefix, true, &opts).unwrap(), forward, "seed={seed}");
                let backward = replay(&end, suffix, false, &opts);
                assert_eq!(merged(&end, suffix, false, &opts).unwrap(), backward, "seed={seed}");
                assert_eq!(forward, backward, "seed={seed}");
            }
        }
    }

    /// Nodes 1 and 2, joined by undirected edge 10; node 1 has attribute
    /// `a`.
    fn pair() -> Snapshot {
        let mut g = Snapshot::new();
        g.add_edge(EdgeId(10), NodeId(1), NodeId(2), false).unwrap();
        g.set_node_attr(NodeId(1), "a", Some(AttrValue::Int(1)))
            .unwrap();
        g
    }

    #[test]
    fn a_node_removed_before_its_edges_or_attributes_is_refused() {
        let all = AttrOptions::all();
        let clear = Event::set_node_attr(1, 1, "a", Some(AttrValue::Int(1)), None);
        let drop_edge = Event::delete_edge(1, 10, 1, 2);
        let drop_node = Event::delete_node(2, 1);
        let refused = |events: &[Event], forward: bool, graph: &Snapshot| {
            let err = merged(graph, events, forward, &all).unwrap_err();
            assert!(err.to_string().contains("replay contract"), "{err}");
        };
        // Forward: the node goes while its edge (or attribute) is still there.
        refused(
            &[clear.clone(), drop_node.clone(), drop_edge.clone()],
            true,
            &pair(),
        );
        refused(&[drop_edge.clone(), drop_node.clone()], true, &pair());
        // Nothing after the removal fails in its place.
        refused(&[clear.clone(), drop_node.clone()], true, &pair());
        // A directed edge into the node counts too.
        let mut inbound = Snapshot::new();
        inbound
            .add_edge(EdgeId(12), NodeId(3), NodeId(4), true)
            .unwrap();
        refused(&[Event::delete_node(1, 4)], true, &inbound);
        // In §3.1 order the same span applies.
        let ok = [clear, drop_edge, drop_node];
        assert_eq!(
            merged(&pair(), &ok, true, &all).unwrap(),
            replay(&pair(), &ok, true, &all)
        );
        // Backward: undoing the node's addition before its edge's.
        let mut grown = pair();
        let added = [Event::add_edge(3, 11, 3, 1), Event::add_node(4, 3)];
        grown
            .add_edge(EdgeId(11), NodeId(3), NodeId(1), false)
            .unwrap();
        refused(&added, false, &grown);
        // An event that does not apply is refused as replay would refuse it.
        let err = merged(&pair(), &[Event::add_node(5, 2)], true, &all).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
    }
}
