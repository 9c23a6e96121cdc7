//! The DeltaGraph *skeleton*: the in-memory structure of the index.
//!
//! The skeleton is a small weighted graph kept in memory at all times
//! (Section 3.2.2): its nodes are the super-root, the interior nodes, and the
//! leaves; its edges carry *descriptors* of the persisted deltas and
//! leaf-eventlists (their storage ids and per-component sizes) but not the
//! data itself. Query planning runs Dijkstra / Steiner-tree algorithms over
//! the skeleton; execution then fetches only the deltas on the chosen paths.

use tgraph::codec::{Decode, Encode, Reader};
use tgraph::{AttrOptions, TgError, Timestamp};

use crate::error::{DgError, DgResult};

/// Index of a node within the skeleton.
pub type NodeIdx = usize;

/// What a skeleton node represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkeletonNodeKind {
    /// The synthetic super-root associated with the empty graph.
    SuperRoot,
    /// An interior node: a graph produced by the differential function.
    Interior,
    /// A leaf: an (implicit) equi-spaced snapshot of the history.
    Leaf,
}

/// A node of the skeleton.
#[derive(Clone, Debug)]
pub struct SkeletonNode {
    /// Position in the skeleton's node table.
    pub idx: NodeIdx,
    /// What the node represents.
    pub kind: SkeletonNodeKind,
    /// Level in the hierarchy; leaves are level 1, the super-root sits above
    /// the highest interior level.
    pub level: u32,
    /// For leaves: the time point whose snapshot the leaf represents
    /// ("the graph after every event with `time <= t`" for the leaf's `t`).
    pub time: Option<Timestamp>,
    /// Number of graph elements in the node's graph (size estimate used for
    /// dependent-overlay decisions and reporting).
    pub element_count: usize,
    /// Whether the node's graph is currently materialized in memory.
    pub materialized: bool,
}

/// Per-component serialized sizes of a delta or eventlist, used as plan
/// weights ("we approximate this cost by the size of the delta retrieved").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentWeights {
    /// Bytes of the structure component.
    pub structure: usize,
    /// Bytes of the node-attribute component.
    pub node_attr: usize,
    /// Bytes of the edge-attribute component.
    pub edge_attr: usize,
    /// Bytes of the transient component (leaf-eventlists only).
    pub transient: usize,
}

impl ComponentWeights {
    /// Total bytes across all components.
    pub fn total(&self) -> usize {
        self.structure + self.node_attr + self.edge_attr + self.transient
    }

    /// Bytes that must be fetched for a query with the given attribute
    /// options (structure always; attribute columns only when requested;
    /// transients never for point retrieval).
    pub fn for_options(&self, opts: &AttrOptions) -> usize {
        let mut w = self.structure;
        if opts.needs_node_attrs() {
            w += self.node_attr;
        }
        if opts.needs_edge_attrs() {
            w += self.edge_attr;
        }
        w
    }
}

/// What the data on a skeleton edge is and how to apply it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgePayload {
    /// A delta stored under `delta_id`; applying it to the graph of the
    /// edge's source node yields the graph of its target node.
    Delta {
        /// Storage id of the delta.
        delta_id: u64,
    },
    /// A leaf-eventlist stored under `eventlist_id`, applied forward in time
    /// (source = earlier leaf, target = later leaf).
    EventsForward {
        /// Storage id of the eventlist.
        eventlist_id: u64,
    },
    /// The same leaf-eventlist applied backward in time (source = later
    /// leaf, target = earlier leaf).
    EventsBackward {
        /// Storage id of the eventlist.
        eventlist_id: u64,
    },
}

impl EdgePayload {
    /// The payload id the edge reads: its delta's or its eventlist's.
    pub fn id(&self) -> u64 {
        match *self {
            EdgePayload::Delta { delta_id: id }
            | EdgePayload::EventsForward { eventlist_id: id }
            | EdgePayload::EventsBackward { eventlist_id: id } => id,
        }
    }
}

/// A directed edge of the skeleton.
#[derive(Clone, Debug)]
pub struct SkeletonEdge {
    /// Source node (the graph you already have).
    pub from: NodeIdx,
    /// Target node (the graph you obtain by applying the payload).
    pub to: NodeIdx,
    /// Which persisted object realizes the transformation.
    pub payload: EdgePayload,
    /// Per-component sizes of that object.
    pub weights: ComponentWeights,
}

/// One leaf-eventlist interval: the events between two consecutive leaves.
#[derive(Clone, Debug)]
pub struct LeafInterval {
    /// Storage id of the eventlist.
    pub eventlist_id: u64,
    /// The leaf at the start of the interval (state as of `start`).
    pub left_leaf: NodeIdx,
    /// The leaf at the end of the interval (state as of `end`).
    pub right_leaf: NodeIdx,
    /// Time of the left leaf.
    pub start: Timestamp,
    /// Time of the right leaf.
    pub end: Timestamp,
    /// Number of events in the interval.
    pub event_count: usize,
    /// Per-component sizes of the eventlist.
    pub weights: ComponentWeights,
}

/// Where a query time point falls relative to the indexed history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Location {
    /// Before the first recorded event.
    BeforeHistory,
    /// Within the `i`-th leaf interval.
    Interval(usize),
    /// At or after the last leaf (served from the last leaf plus the recent,
    /// not-yet-indexed eventlist).
    AfterLastLeaf,
}

/// The in-memory skeleton of a DeltaGraph.
#[derive(Clone, Debug, Default)]
pub struct Skeleton {
    nodes: Vec<SkeletonNode>,
    edges: Vec<SkeletonEdge>,
    /// Outgoing edge indices per node.
    out: Vec<Vec<usize>>,
    /// The super-root (empty graph).
    super_root: Option<NodeIdx>,
    /// Leaves in chronological order.
    leaves: Vec<NodeIdx>,
    /// Leaf intervals in chronological order (`intervals[i]` spans
    /// `leaves[i]` to `leaves[i+1]`).
    intervals: Vec<LeafInterval>,
}

impl Skeleton {
    /// Creates an empty skeleton.
    pub fn new() -> Self {
        Skeleton::default()
    }

    /// Adds a node and returns its index.
    pub fn add_node(
        &mut self,
        kind: SkeletonNodeKind,
        level: u32,
        time: Option<Timestamp>,
        element_count: usize,
    ) -> NodeIdx {
        let idx = self.nodes.len();
        self.nodes.push(SkeletonNode {
            idx,
            kind,
            level,
            time,
            element_count,
            materialized: false,
        });
        self.out.push(Vec::new());
        if kind == SkeletonNodeKind::SuperRoot {
            self.super_root = Some(idx);
        }
        if kind == SkeletonNodeKind::Leaf {
            self.leaves.push(idx);
        }
        idx
    }

    /// Adds a directed edge.
    pub fn add_edge(
        &mut self,
        from: NodeIdx,
        to: NodeIdx,
        payload: EdgePayload,
        weights: ComponentWeights,
    ) -> usize {
        let idx = self.edges.len();
        self.edges.push(SkeletonEdge {
            from,
            to,
            payload,
            weights,
        });
        self.out[from].push(idx);
        idx
    }

    /// Registers a leaf interval (must be added in chronological order).
    pub fn add_interval(&mut self, interval: LeafInterval) {
        debug_assert!(self
            .intervals
            .last()
            .map(|last| last.end <= interval.start)
            .unwrap_or(true));
        self.intervals.push(interval);
    }

    /// The super-root index. Panics if the skeleton was never populated.
    pub fn super_root(&self) -> NodeIdx {
        self.super_root.expect("skeleton has a super-root")
    }

    /// Whether a super-root exists (i.e. the skeleton is populated).
    pub fn is_populated(&self) -> bool {
        self.super_root.is_some() && !self.leaves.is_empty()
    }

    /// Node accessor.
    pub fn node(&self, idx: NodeIdx) -> DgResult<&SkeletonNode> {
        self.nodes.get(idx).ok_or(DgError::UnknownNode(idx))
    }

    /// Marks or unmarks a node as materialized.
    pub fn set_materialized(&mut self, idx: NodeIdx, materialized: bool) -> DgResult<()> {
        self.nodes
            .get_mut(idx)
            .ok_or(DgError::UnknownNode(idx))?
            .materialized = materialized;
        Ok(())
    }

    /// All nodes.
    pub fn nodes(&self) -> &[SkeletonNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[SkeletonEdge] {
        &self.edges
    }

    /// Edge accessor.
    pub fn edge(&self, idx: usize) -> &SkeletonEdge {
        &self.edges[idx]
    }

    /// Outgoing edges of a node.
    pub fn edges_from(&self, idx: NodeIdx) -> impl Iterator<Item = &SkeletonEdge> {
        self.out[idx].iter().map(|&e| &self.edges[e])
    }

    /// Outgoing edge indices of a node.
    pub fn edge_indices_from(&self, idx: NodeIdx) -> &[usize] {
        &self.out[idx]
    }

    /// Leaves in chronological order.
    pub fn leaves(&self) -> &[NodeIdx] {
        &self.leaves
    }

    /// Leaf intervals in chronological order.
    pub fn intervals(&self) -> &[LeafInterval] {
        &self.intervals
    }

    /// The last (most recent) leaf.
    pub fn last_leaf(&self) -> DgResult<NodeIdx> {
        self.leaves.last().copied().ok_or(DgError::EmptyIndex)
    }

    /// Nodes at a given level (1 = leaves).
    pub fn nodes_at_level(&self, level: u32) -> Vec<NodeIdx> {
        self.nodes
            .iter()
            .filter(|n| n.level == level && n.kind != SkeletonNodeKind::SuperRoot)
            .map(|n| n.idx)
            .collect()
    }

    /// Height of the hierarchy: number of levels excluding the super-root.
    pub fn height(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.kind != SkeletonNodeKind::SuperRoot)
            .map(|n| n.level)
            .max()
            .unwrap_or(0)
    }

    /// The time of the first leaf (start of indexed history).
    pub fn history_start(&self) -> DgResult<Timestamp> {
        let first = *self.leaves.first().ok_or(DgError::EmptyIndex)?;
        Ok(self.nodes[first].time.expect("leaves carry a time"))
    }

    /// The time of the last leaf (end of indexed history; later times are
    /// served from the recent eventlist).
    pub fn history_end(&self) -> DgResult<Timestamp> {
        let last = self.last_leaf()?;
        Ok(self.nodes[last].time.expect("leaves carry a time"))
    }

    /// Locates a query time point.
    pub fn locate(&self, t: Timestamp) -> DgResult<Location> {
        if self.leaves.is_empty() {
            return Err(DgError::EmptyIndex);
        }
        if t < self.history_start()? {
            return Ok(Location::BeforeHistory);
        }
        if t >= self.history_end()? {
            return Ok(Location::AfterLastLeaf);
        }
        // binary search over interval end times
        let i = self.intervals.partition_point(|iv| iv.end <= t);
        if i < self.intervals.len() {
            Ok(Location::Interval(i))
        } else {
            Ok(Location::AfterLastLeaf)
        }
    }

    /// Multi-source Dijkstra over the skeleton.
    ///
    /// `sources` supplies starting nodes with their initial costs (the
    /// super-root at cost 0, plus every materialized node at cost 0 — the
    /// zero-weight shortcut edges of Section 4.5). Edge costs are the
    /// component weights selected by `opts`. Returns, per node, the best cost
    /// and the incoming edge index on the best path (`None` for sources).
    pub fn dijkstra(
        &self,
        sources: &[(NodeIdx, usize)],
        opts: &AttrOptions,
    ) -> Vec<Option<(usize, Option<usize>)>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut best: Vec<Option<(usize, Option<usize>)>> = vec![None; self.nodes.len()];
        let mut heap: BinaryHeap<Reverse<(usize, NodeIdx)>> = BinaryHeap::new();
        for &(src, cost) in sources {
            if best[src].is_none_or(|(c, _)| cost < c) {
                best[src] = Some((cost, None));
                heap.push(Reverse((cost, src)));
            }
        }
        while let Some(Reverse((cost, node))) = heap.pop() {
            if best[node].is_some_and(|(c, _)| cost > c) {
                continue;
            }
            for &edge_idx in &self.out[node] {
                let edge = &self.edges[edge_idx];
                let next_cost = cost + edge.weights.for_options(opts);
                if best[edge.to].is_none_or(|(c, _)| next_cost < c) {
                    best[edge.to] = Some((next_cost, Some(edge_idx)));
                    heap.push(Reverse((next_cost, edge.to)));
                }
            }
        }
        best
    }

    /// Reconstructs the path (sequence of edge indices from a source to
    /// `target`) from a Dijkstra result table.
    pub fn path_to(
        &self,
        best: &[Option<(usize, Option<usize>)>],
        target: NodeIdx,
    ) -> DgResult<Vec<usize>> {
        let mut path = Vec::new();
        let mut cursor = target;
        loop {
            match best.get(cursor).copied().flatten() {
                None => {
                    return Err(DgError::NoPlan(format!(
                        "skeleton node {cursor} unreachable from the plan sources"
                    )))
                }
                Some((_, None)) => break, // reached a source
                Some((_, Some(edge_idx))) => {
                    path.push(edge_idx);
                    cursor = self.edges[edge_idx].from;
                }
            }
        }
        path.reverse();
        Ok(path)
    }

    /// The standard plan sources: the super-root plus every materialized node,
    /// all at cost 0.
    pub fn plan_sources(&self) -> Vec<(NodeIdx, usize)> {
        let mut sources = vec![(self.super_root(), 0)];
        for n in &self.nodes {
            if n.materialized && n.kind != SkeletonNodeKind::SuperRoot {
                sources.push((n.idx, 0));
            }
        }
        sources
    }
}

// ----------------------------------------------------------------------
// Persistence: a sealed index stores its skeleton beside its payloads.
// Materialization is run-time state and is not persisted; the derived
// tables (`out`, `leaves`, `super_root`) are rebuilt on decode.
// ----------------------------------------------------------------------

fn codec_err(msg: impl Into<String>) -> TgError {
    TgError::Codec(msg.into())
}

/// Reads a sequence length, refusing one the remaining input cannot hold
/// (every element takes at least one byte), so no allocation exceeds it.
fn read_len(r: &mut Reader<'_>) -> tgraph::Result<usize> {
    let len = r.read_varint()?;
    if len > r.remaining() as u64 {
        return Err(codec_err(format!(
            "length {len} exceeds the {} bytes left",
            r.remaining()
        )));
    }
    Ok(len as usize)
}

/// Reads a node index and checks it names one of `nodes` nodes.
fn read_node(r: &mut Reader<'_>, nodes: usize) -> tgraph::Result<NodeIdx> {
    let idx = r.read_varint()?;
    if idx >= nodes as u64 {
        return Err(codec_err(format!(
            "node index {idx} out of range ({nodes} nodes)"
        )));
    }
    Ok(idx as usize)
}

impl Encode for ComponentWeights {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.structure.encode(buf);
        self.node_attr.encode(buf);
        self.edge_attr.encode(buf);
        self.transient.encode(buf);
    }
}

impl Decode for ComponentWeights {
    /// Each weight is a payload size, so anything past 4 GiB is corrupt —
    /// and bounding it keeps the planner's path-cost sums from overflowing.
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        let mut weight = || -> tgraph::Result<usize> {
            let w = r.read_varint()?;
            if w > u64::from(u32::MAX) {
                return Err(codec_err(format!("payload weight {w} is implausible")));
            }
            Ok(w as usize)
        };
        Ok(ComponentWeights {
            structure: weight()?,
            node_attr: weight()?,
            edge_attr: weight()?,
            transient: weight()?,
        })
    }
}

impl Encode for Skeleton {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nodes.len().encode(buf);
        for node in &self.nodes {
            let kind: u8 = match node.kind {
                SkeletonNodeKind::SuperRoot => 0,
                SkeletonNodeKind::Interior => 1,
                SkeletonNodeKind::Leaf => 2,
            };
            u64::from(kind).encode(buf);
            u64::from(node.level).encode(buf);
            node.time.encode(buf);
            node.element_count.encode(buf);
        }
        self.edges.len().encode(buf);
        for edge in &self.edges {
            edge.from.encode(buf);
            edge.to.encode(buf);
            let (tag, id): (u8, u64) = match edge.payload {
                EdgePayload::Delta { delta_id } => (0, delta_id),
                EdgePayload::EventsForward { eventlist_id } => (1, eventlist_id),
                EdgePayload::EventsBackward { eventlist_id } => (2, eventlist_id),
            };
            u64::from(tag).encode(buf);
            id.encode(buf);
            edge.weights.encode(buf);
        }
        self.intervals.len().encode(buf);
        for iv in &self.intervals {
            iv.eventlist_id.encode(buf);
            iv.left_leaf.encode(buf);
            iv.right_leaf.encode(buf);
            iv.start.encode(buf);
            iv.end.encode(buf);
            iv.event_count.encode(buf);
            iv.weights.encode(buf);
        }
    }
}

impl Decode for Skeleton {
    /// Decodes and validates a skeleton: exactly one super-root, at least
    /// one leaf, leaves in time order, every edge and interval naming
    /// existing nodes, intervals joining leaves in time order. A skeleton
    /// that passes can be planned over without panicking.
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        let mut s = Skeleton::new();
        for _ in 0..read_len(r)? {
            let kind = match r.read_varint()? {
                0 => SkeletonNodeKind::SuperRoot,
                1 => SkeletonNodeKind::Interior,
                2 => SkeletonNodeKind::Leaf,
                tag => return Err(codec_err(format!("invalid skeleton node kind {tag}"))),
            };
            let level = u32::try_from(r.read_varint()?)
                .map_err(|_| codec_err("skeleton node level overflows"))?;
            let time = Option::<Timestamp>::decode(r)?;
            let element_count = usize::decode(r)?;
            match kind {
                SkeletonNodeKind::SuperRoot if s.super_root.is_some() => {
                    return Err(codec_err("skeleton has two super-roots"))
                }
                SkeletonNodeKind::Leaf => {
                    let Some(t) = time else {
                        return Err(codec_err("skeleton leaf without a time"));
                    };
                    if s.leaves.last().is_some_and(|&l| s.nodes[l].time > Some(t)) {
                        return Err(codec_err("skeleton leaves out of time order"));
                    }
                }
                _ => {}
            }
            s.add_node(kind, level, time, element_count);
        }
        if !s.is_populated() {
            return Err(codec_err("skeleton lacks a super-root or a leaf"));
        }
        let nodes = s.nodes.len();
        for _ in 0..read_len(r)? {
            let from = read_node(r, nodes)?;
            let to = read_node(r, nodes)?;
            let payload = match (r.read_varint()?, u64::decode(r)?) {
                (0, delta_id) => EdgePayload::Delta { delta_id },
                (1, eventlist_id) => EdgePayload::EventsForward { eventlist_id },
                (2, eventlist_id) => EdgePayload::EventsBackward { eventlist_id },
                (tag, _) => return Err(codec_err(format!("invalid skeleton edge tag {tag}"))),
            };
            let weights = ComponentWeights::decode(r)?;
            s.add_edge(from, to, payload, weights);
        }
        for _ in 0..read_len(r)? {
            let interval = LeafInterval {
                eventlist_id: u64::decode(r)?,
                left_leaf: read_node(r, nodes)?,
                right_leaf: read_node(r, nodes)?,
                start: Timestamp::decode(r)?,
                end: Timestamp::decode(r)?,
                event_count: usize::decode(r)?,
                weights: ComponentWeights::decode(r)?,
            };
            let leaves_ok = [interval.left_leaf, interval.right_leaf]
                .iter()
                .all(|&n| s.nodes[n].kind == SkeletonNodeKind::Leaf);
            let ordered = interval.start <= interval.end
                && s.intervals
                    .last()
                    .is_none_or(|last| last.end <= interval.start);
            if !leaves_ok || !ordered {
                return Err(codec_err(
                    "skeleton interval out of order or off its leaves",
                ));
            }
            s.add_interval(interval);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a small hand-crafted skeleton:
    ///
    /// ```text
    ///        SR(4)
    ///         |
    ///        P(3)
    ///       /    \
    ///   L0(0) == L1(1) == L2(2)      (== are eventlist edges, both ways)
    /// ```
    fn sample() -> Skeleton {
        let mut s = Skeleton::new();
        let l0 = s.add_node(SkeletonNodeKind::Leaf, 1, Some(Timestamp(10)), 10);
        let l1 = s.add_node(SkeletonNodeKind::Leaf, 1, Some(Timestamp(20)), 20);
        let l2 = s.add_node(SkeletonNodeKind::Leaf, 1, Some(Timestamp(30)), 30);
        let p = s.add_node(SkeletonNodeKind::Interior, 2, None, 15);
        let sr = s.add_node(SkeletonNodeKind::SuperRoot, 3, None, 0);

        let w = |n: usize| ComponentWeights {
            structure: n,
            node_attr: n / 2,
            edge_attr: 0,
            transient: 0,
        };
        s.add_edge(sr, p, EdgePayload::Delta { delta_id: 100 }, w(50));
        s.add_edge(p, l0, EdgePayload::Delta { delta_id: 101 }, w(10));
        s.add_edge(p, l1, EdgePayload::Delta { delta_id: 102 }, w(12));
        s.add_edge(p, l2, EdgePayload::Delta { delta_id: 103 }, w(80));
        s.add_edge(
            l0,
            l1,
            EdgePayload::EventsForward { eventlist_id: 200 },
            w(6),
        );
        s.add_edge(
            l1,
            l0,
            EdgePayload::EventsBackward { eventlist_id: 200 },
            w(6),
        );
        s.add_edge(
            l1,
            l2,
            EdgePayload::EventsForward { eventlist_id: 201 },
            w(6),
        );
        s.add_edge(
            l2,
            l1,
            EdgePayload::EventsBackward { eventlist_id: 201 },
            w(6),
        );
        s.add_interval(LeafInterval {
            eventlist_id: 200,
            left_leaf: l0,
            right_leaf: l1,
            start: Timestamp(10),
            end: Timestamp(20),
            event_count: 5,
            weights: w(6),
        });
        s.add_interval(LeafInterval {
            eventlist_id: 201,
            left_leaf: l1,
            right_leaf: l2,
            start: Timestamp(20),
            end: Timestamp(30),
            event_count: 5,
            weights: w(6),
        });
        s
    }

    #[test]
    fn the_codec_round_trips_and_refuses_broken_structure() {
        let mut s = sample();
        s.set_materialized(3, true).unwrap();
        let bytes = s.to_bytes();
        let back = Skeleton::from_bytes(&bytes).unwrap();
        // Materialization is run-time state: it does not survive encoding.
        s.set_materialized(3, false).unwrap();
        assert_eq!(format!("{back:?}"), format!("{s:?}"));
        // Every strict prefix is refused, never panics.
        for cut in 0..bytes.len() {
            assert!(Skeleton::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // An edge naming a node that does not exist.
        let mut bad = Skeleton::new();
        bad.add_node(SkeletonNodeKind::Leaf, 1, Some(Timestamp(1)), 0);
        bad.add_node(SkeletonNodeKind::SuperRoot, 2, None, 0);
        bad.edges.push(SkeletonEdge {
            from: 1,
            to: 7,
            payload: EdgePayload::Delta { delta_id: 1 },
            weights: ComponentWeights::default(),
        });
        assert!(Skeleton::from_bytes(&bad.to_bytes()).is_err());
        // No super-root.
        let mut rootless = Skeleton::new();
        rootless.add_node(SkeletonNodeKind::Leaf, 1, Some(Timestamp(1)), 0);
        assert!(Skeleton::from_bytes(&rootless.to_bytes()).is_err());
    }

    #[test]
    fn construction_bookkeeping() {
        let s = sample();
        assert!(s.is_populated());
        assert_eq!(s.leaves().len(), 3);
        assert_eq!(s.intervals().len(), 2);
        assert_eq!(s.height(), 2);
        assert_eq!(s.history_start().unwrap(), Timestamp(10));
        assert_eq!(s.history_end().unwrap(), Timestamp(30));
        assert_eq!(s.nodes_at_level(1).len(), 3);
        assert_eq!(s.nodes_at_level(2).len(), 1);
    }

    #[test]
    fn locate_classifies_time_points() {
        let s = sample();
        assert_eq!(s.locate(Timestamp(5)).unwrap(), Location::BeforeHistory);
        assert_eq!(s.locate(Timestamp(10)).unwrap(), Location::Interval(0));
        assert_eq!(s.locate(Timestamp(19)).unwrap(), Location::Interval(0));
        assert_eq!(s.locate(Timestamp(20)).unwrap(), Location::Interval(1));
        assert_eq!(s.locate(Timestamp(29)).unwrap(), Location::Interval(1));
        assert_eq!(s.locate(Timestamp(30)).unwrap(), Location::AfterLastLeaf);
        assert_eq!(s.locate(Timestamp(99)).unwrap(), Location::AfterLastLeaf);
    }

    #[test]
    fn dijkstra_finds_cheapest_route() {
        let s = sample();
        let opts = AttrOptions::structure_only();
        let best = s.dijkstra(&s.plan_sources(), &opts);
        // L2 is expensive directly (50+80); via L1 it is 50+12+6=68
        let (cost_l2, _) = best[2].unwrap();
        assert_eq!(cost_l2, 68);
        let path = s.path_to(&best, 2).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(
            s.edge(path[0]).payload,
            EdgePayload::Delta { delta_id: 100 }
        );
        assert_eq!(
            s.edge(path[1]).payload,
            EdgePayload::Delta { delta_id: 102 }
        );
        assert_eq!(
            s.edge(path[2]).payload,
            EdgePayload::EventsForward { eventlist_id: 201 }
        );
    }

    #[test]
    fn attribute_options_change_weights_and_plans() {
        let s = sample();
        let structure = AttrOptions::structure_only();
        let all = AttrOptions::all();
        let b1 = s.dijkstra(&s.plan_sources(), &structure);
        let b2 = s.dijkstra(&s.plan_sources(), &all);
        let (c1, _) = b1[0].unwrap();
        let (c2, _) = b2[0].unwrap();
        assert!(c2 > c1, "fetching attributes must cost more ({c2} vs {c1})");
    }

    #[test]
    fn materialization_short_circuits_plans() {
        let mut s = sample();
        let opts = AttrOptions::structure_only();
        let before = s.dijkstra(&s.plan_sources(), &opts)[2].unwrap().0;
        s.set_materialized(3, true).unwrap(); // interior node P
        let after_tbl = s.dijkstra(&s.plan_sources(), &opts);
        let after = after_tbl[2].unwrap().0;
        assert!(after < before);
        // path now starts at P (a source), so it has two edges: P->L1, L1->L2
        let path = s.path_to(&after_tbl, 2).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(s.edge(path[0]).from, 3);
    }

    #[test]
    fn unreachable_targets_are_reported() {
        let mut s = sample();
        let isolated = s.add_node(SkeletonNodeKind::Interior, 2, None, 0);
        let best = s.dijkstra(&s.plan_sources(), &AttrOptions::structure_only());
        assert!(s.path_to(&best, isolated).is_err());
        assert!(s.node(999).is_err());
    }

    #[test]
    fn component_weights_for_options() {
        let w = ComponentWeights {
            structure: 10,
            node_attr: 5,
            edge_attr: 3,
            transient: 2,
        };
        assert_eq!(w.total(), 20);
        assert_eq!(w.for_options(&AttrOptions::structure_only()), 10);
        assert_eq!(w.for_options(&AttrOptions::all()), 18);
        let node_only = AttrOptions::parse("+node:all").unwrap();
        assert_eq!(w.for_options(&node_only), 15);
    }
}
