//! A graph as sorted columns: the form a point retrieval builds.
//!
//! A [`ColumnGraph`] holds four columns, each sorted by id with no
//! repeats: the nodes, the edges `(id, src, dst, directed)`, and the node
//! and edge attributes `(id, key, value)`, sorted by id, then key. A delta
//! is stored the same way (its runs are written sorted, Section 4.2), so
//! applying one is a linear merge of the graph's columns with the delta's
//! add and delete runs: no hashing, no adjacency index, and a reply can be
//! rendered straight from the columns with no sort.
//!
//! [`ColumnGraph::apply`] gives exactly what [`crate::Delta::apply_to`]
//! gives on a [`Snapshot`], or an error. Runs must be sorted and
//! duplicate-free; a run that is not is refused, never applied. Where
//! `Snapshot` cascades — deleting a node deletes its incident edges — the
//! merge asserts the §3.1 replay contract instead: a node's edges are
//! deleted before the node, so an edge that survives the deletion of one
//! of its endpoints is an error.

use std::sync::Arc;

use crate::attr::AttrValue;
use crate::delta::{EdgeRecord, StructDelta};
use crate::error::{Result, TgError};
use crate::fxhash::FxHashSet;
use crate::ids::{EdgeId, NodeId};
use crate::snapshot::Snapshot;

/// One attribute entry of a column: element, key, value. Equal keys share
/// one allocation per graph.
pub type AttrRow<Id> = (Id, Arc<str>, AttrValue);

/// One attribute assignment of a run: element, key, and the value to set
/// (`None` removes the attribute). The key is borrowed from the decoded
/// payload; the graph keeps a shared copy only if it keeps the entry.
pub type Assignment<'a, Id> = (Id, &'a str, Option<AttrValue>);

/// A graph as four sorted columns (see the module documentation).
#[derive(Clone, Debug, Default)]
pub struct ColumnGraph {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeRecord>,
    node_attrs: Vec<AttrRow<NodeId>>,
    edge_attrs: Vec<AttrRow<EdgeId>>,
    /// Every attribute key the columns hold, once: rows share them, which
    /// keeps a graph's memory down at no cost to building it.
    keys: FxHashSet<Arc<str>>,
}

impl PartialEq for ColumnGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.edges == other.edges
            && self.node_attrs == other.node_attrs
            && self.edge_attrs == other.edge_attrs
    }
}

impl Eq for ColumnGraph {}

impl ColumnGraph {
    /// The empty graph.
    pub fn new() -> Self {
        ColumnGraph::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge column, sorted by id.
    pub fn edges(&self) -> &[EdgeRecord] {
        &self.edges
    }

    /// Whether node `n` is present.
    pub fn has_node(&self, n: NodeId) -> bool {
        self.nodes.binary_search(&n).is_ok()
    }

    /// Edge `e`'s record, if present.
    pub fn edge(&self, e: EdgeId) -> Option<&EdgeRecord> {
        self.edges
            .binary_search_by_key(&e, |r| r.edge)
            .ok()
            .map(|i| &self.edges[i])
    }

    /// Node `n`'s attributes, sorted by key (empty for an absent node).
    pub fn node_attrs(&self, n: NodeId) -> &[AttrRow<NodeId>] {
        rows_of(&self.node_attrs, n)
    }

    /// The neighbors of `n` as `(neighbor, edge)` pairs, sorted: what
    /// [`Snapshot::neighbors`] lists for the same graph (an undirected
    /// edge at both endpoints, a directed one at its source, a self-loop
    /// once).
    pub fn neighbors(&self, n: NodeId) -> Vec<(NodeId, EdgeId)> {
        let mut out: Vec<(NodeId, EdgeId)> = self
            .edges
            .iter()
            .filter_map(|r| {
                if r.src == n {
                    Some((r.dst, r.edge))
                } else if r.dst == n && !r.directed {
                    Some((r.src, r.edge))
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Every node with its attributes, in id order.
    pub fn node_rows(&self) -> impl Iterator<Item = (NodeId, &[AttrRow<NodeId>])> {
        let mut rest = self.node_attrs.as_slice();
        self.nodes
            .iter()
            .map(move |&n| (n, take_rows(&mut rest, n)))
    }

    /// Every edge with its attributes, in id order.
    pub fn edge_rows(&self) -> impl Iterator<Item = (&EdgeRecord, &[AttrRow<EdgeId>])> {
        let mut rest = self.edge_attrs.as_slice();
        self.edges
            .iter()
            .map(move |r| (r, take_rows(&mut rest, r.edge)))
    }

    /// The columns of `snapshot`, sorted.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let mut keys = FxHashSet::default();
        let mut nodes: Vec<NodeId> = snapshot.node_ids().collect();
        nodes.sort_unstable();
        let mut edges: Vec<EdgeRecord> = snapshot
            .edges()
            .map(|(edge, d)| EdgeRecord {
                edge,
                src: d.src,
                dst: d.dst,
                directed: d.directed,
            })
            .collect();
        edges.sort_unstable_by_key(|r| r.edge);
        let node_attrs = nodes
            .iter()
            .flat_map(|&n| {
                let attrs = &snapshot.node(n).expect("listed node").attrs;
                attrs.iter().map(move |(k, v)| (n, k, v.clone()))
            })
            .map(|(n, k, v)| (n, intern(&mut keys, k), v))
            .collect();
        let edge_attrs = edges
            .iter()
            .flat_map(|r| {
                let attrs = &snapshot.edge(r.edge).expect("listed edge").attrs;
                attrs.iter().map(move |(k, v)| (r.edge, k, v.clone()))
            })
            .map(|(e, k, v)| (e, intern(&mut keys, k), v))
            .collect();
        ColumnGraph {
            nodes,
            edges,
            node_attrs,
            edge_attrs,
            keys,
        }
    }

    /// The same graph as a [`Snapshot`]. A retrieval that needs a
    /// snapshot builds one directly; this is for a graph already built as
    /// columns.
    pub fn into_snapshot(self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.reserve(self.nodes.len(), self.edges.len());
        for n in self.nodes {
            snap.ensure_node(n);
        }
        for r in self.edges {
            snap.add_edge(r.edge, r.src, r.dst, r.directed)
                .expect("edge ids are distinct");
        }
        for (n, key, value) in self.node_attrs {
            snap.assign_node_attr(n, &key, Some(value));
        }
        for (e, key, value) in self.edge_attrs {
            snap.assign_edge_attr(e, &key, Some(value));
        }
        snap
    }

    /// Applies one delta: the structure runs of `structure`, then the
    /// attribute assignments — what [`crate::Delta::apply_to`] does to a
    /// [`Snapshot`] holding the same graph, deletions before additions:
    ///
    /// * deleting an absent element, or adding a present one, is skipped;
    ///   an id in both the delete and the add run is replaced;
    /// * a deleted element's attributes go with it;
    /// * an assignment to an absent element is skipped.
    ///
    /// Every run must be sorted by id (assignments by id, then key) with no
    /// repeats; an added edge's endpoints must be nodes of the result, and
    /// no surviving edge may touch a deleted node (§3.1). Anything else is
    /// an error, and the graph is then unspecified.
    pub fn apply<'a>(
        &mut self,
        structure: &StructDelta,
        node_attrs: Vec<Assignment<'a, NodeId>>,
        edge_attrs: Vec<Assignment<'a, EdgeId>>,
    ) -> Result<()> {
        check_runs(structure, &node_attrs, &edge_attrs)?;
        let removed_nodes = if structure.add_nodes.is_empty() && structure.del_nodes.is_empty() {
            Vec::new()
        } else {
            self.merge_nodes(&structure.add_nodes, &structure.del_nodes)?
        };
        let removed_edges =
            self.merge_edges(&structure.add_edges, &structure.del_edges, &removed_nodes)?;
        if !removed_nodes.is_empty() || !node_attrs.is_empty() {
            let live = &self.nodes;
            self.node_attrs = merge_attrs(
                std::mem::take(&mut self.node_attrs),
                &removed_nodes,
                node_attrs,
                |n| live.binary_search(&n).is_ok(),
                &mut self.keys,
            )?;
        }
        if !removed_edges.is_empty() || !edge_attrs.is_empty() {
            let live = &self.edges;
            self.edge_attrs = merge_attrs(
                std::mem::take(&mut self.edge_attrs),
                &removed_edges,
                edge_attrs,
                |e| live.binary_search_by_key(&e, |r| r.edge).is_ok(),
                &mut self.keys,
            )?;
        }
        Ok(())
    }

    /// Merges the node column with its add and delete runs; returns the
    /// ids that were present and deleted, in order.
    fn merge_nodes(&mut self, add: &[NodeId], del: &[NodeId]) -> Result<Vec<NodeId>> {
        let cur = std::mem::take(&mut self.nodes);
        let (nodes, removed) = merge_column(
            &cur,
            add,
            del,
            |n| *n,
            None::<fn(&NodeId) -> bool>,
            |_| Ok(()),
        )?;
        self.nodes = nodes;
        Ok(removed)
    }

    /// Merges the edge column with its add and delete runs; returns the
    /// ids that were present and deleted, in order. `removed_nodes` are the
    /// nodes this delta deleted: no surviving edge may touch one, and every
    /// added edge's endpoints must be nodes of the graph.
    fn merge_edges(
        &mut self,
        add: &[EdgeRecord],
        del: &[EdgeRecord],
        removed_nodes: &[NodeId],
    ) -> Result<Vec<EdgeId>> {
        let touches_removed = |r: &EdgeRecord| {
            removed_nodes.binary_search(&r.src).is_ok()
                || removed_nodes.binary_search(&r.dst).is_ok()
        };
        if add.is_empty() && del.is_empty() {
            // The column stays as it is; only the §3.1 check remains.
            if !removed_nodes.is_empty() && self.edges.iter().any(touches_removed) {
                return Err(dangling_row());
            }
            return Ok(Vec::new());
        }
        let nodes = &self.nodes;
        let endpoints_present = |a: &EdgeRecord| {
            if nodes.binary_search(&a.src).is_ok() && nodes.binary_search(&a.dst).is_ok() {
                Ok(())
            } else {
                Err(TgError::InvalidEvent(format!(
                    "edge {} added between {} and {}, not both nodes of the graph",
                    a.edge, a.src, a.dst
                )))
            }
        };
        let (edges, removed) = merge_column(
            &self.edges,
            add,
            del,
            |r| r.edge,
            (!removed_nodes.is_empty()).then_some(touches_removed),
            endpoints_present,
        )?;
        self.edges = edges;
        Ok(removed)
    }
}

/// One linear merge of a column with its sorted add and delete runs
/// (see [`ColumnGraph::apply`]): the new column, and the keys that were
/// present and deleted. A row that survives is refused if `dangles`
/// says so; an added row is checked by `admit`. Rows between changes are
/// copied in bulk.
fn merge_column<T: Copy, K: Ord + Copy>(
    cur: &[T],
    add: &[T],
    del: &[T],
    key: impl Fn(&T) -> K,
    dangles: Option<impl Fn(&T) -> bool>,
    admit: impl Fn(&T) -> Result<()>,
) -> Result<(Vec<T>, Vec<K>)> {
    let keep = |out: &mut Vec<T>, rows: &[T]| -> Result<()> {
        if dangles.as_ref().is_some_and(|d| rows.iter().any(d)) {
            return Err(dangling_row());
        }
        out.extend_from_slice(rows);
        Ok(())
    };
    let mut out = Vec::with_capacity(cur.len() + add.len());
    let mut removed = Vec::new();
    let (mut i, mut a, mut d) = (0, 0, 0);
    loop {
        // The next key either run names.
        let next = match (add.get(a), del.get(d)) {
            (Some(x), Some(y)) => key(x).min(key(y)),
            (Some(x), None) => key(x),
            (None, Some(y)) => key(y),
            (None, None) => break,
        };
        let before = gallop(&cur[i..], |r| key(r) < next);
        keep(&mut out, &cur[i..i + before])?;
        i += before;
        let present = cur.get(i).filter(|r| key(r) == next);
        let deleted = del.get(d).is_some_and(|r| key(r) == next);
        let added = add.get(a).filter(|r| key(r) == next);
        d += usize::from(deleted);
        a += usize::from(added.is_some());
        i += usize::from(present.is_some());
        match (present, added) {
            (Some(_), _) if deleted => {
                removed.push(next);
                if let Some(row) = added {
                    admit(row)?;
                    out.push(*row);
                }
            }
            (Some(row), _) => keep(&mut out, std::slice::from_ref(row))?,
            (None, Some(row)) => {
                admit(row)?;
                out.push(*row);
            }
            (None, None) => {}
        }
    }
    keep(&mut out, &cur[i..])?;
    Ok((out, removed))
}

/// The shared copy of `key` in `keys`, added if new.
fn intern(keys: &mut FxHashSet<Arc<str>>, key: &str) -> Arc<str> {
    if let Some(k) = keys.get(key) {
        return Arc::clone(k);
    }
    let k: Arc<str> = Arc::from(key);
    keys.insert(Arc::clone(&k));
    k
}

/// The rows of `id` in a column sorted by id.
fn rows_of<Id: Ord + Copy>(column: &[AttrRow<Id>], id: Id) -> &[AttrRow<Id>] {
    let lo = column.partition_point(|(i, _, _)| *i < id);
    let hi = lo + column[lo..].partition_point(|(i, _, _)| *i == id);
    &column[lo..hi]
}

/// Splits the rows of `id` off the front of `rest`. The ids of `rest` are
/// sorted and none is below `id`.
fn take_rows<'a, Id: PartialEq + Copy>(rest: &mut &'a [AttrRow<Id>], id: Id) -> &'a [AttrRow<Id>] {
    let n = rest.iter().take_while(|(i, _, _)| *i == id).count();
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    head
}

/// Fails unless every run of a delta is strictly increasing: nodes and
/// edges by id, attribute assignments by id, then key. [`ColumnGraph::apply`]
/// checks this first; a caller applying the same runs another way calls it
/// to refuse what the merge refuses.
pub fn check_runs(
    structure: &StructDelta,
    node_attrs: &[Assignment<'_, NodeId>],
    edge_attrs: &[Assignment<'_, EdgeId>],
) -> Result<()> {
    check_run(&structure.add_nodes, |n| *n, "added node")?;
    check_run(&structure.del_nodes, |n| *n, "deleted node")?;
    check_run(&structure.add_edges, |r| r.edge, "added edge")?;
    check_run(&structure.del_edges, |r| r.edge, "deleted edge")?;
    check_attr_run(node_attrs)?;
    check_attr_run(edge_attrs)
}

/// Fails unless `run` is strictly increasing by `(id, key)`.
fn check_attr_run<Id: Ord + Copy + std::fmt::Display>(run: &[Assignment<'_, Id>]) -> Result<()> {
    match run
        .windows(2)
        .find(|w| (w[0].0, w[0].1) >= (w[1].0, w[1].1))
    {
        None => Ok(()),
        Some(w) => Err(TgError::Codec(format!(
            "attribute run out of order or repeated: {} {:?} after {} {:?}",
            w[1].0, w[1].1, w[0].0, w[0].1
        ))),
    }
}

/// Fails unless `run` is strictly increasing by `key`.
fn check_run<T, K: Ord + std::fmt::Display>(
    run: &[T],
    key: impl Fn(&T) -> K,
    what: &str,
) -> Result<()> {
    match run.windows(2).find(|w| key(&w[0]) >= key(&w[1])) {
        None => Ok(()),
        Some(w) => Err(unsorted(what, &key(&w[0]), &key(&w[1]))),
    }
}

#[cold]
#[inline(never)]
fn unsorted(what: &str, a: &dyn std::fmt::Display, b: &dyn std::fmt::Display) -> TgError {
    TgError::Codec(format!(
        "{what} run out of order or repeated: {b} after {a}"
    ))
}

#[cold]
#[inline(never)]
fn dangling_row() -> TgError {
    TgError::InvalidEvent(
        "replay contract (§3.1): an edge outlives the deletion of an endpoint".into(),
    )
}

/// Merges an attribute column with the ids deleted from its elements and a
/// run of assignments; `exists` says whether an element is in the graph.
fn merge_attrs<Id: Ord + Copy + std::fmt::Display>(
    cur: Vec<AttrRow<Id>>,
    removed: &[Id],
    run: Vec<Assignment<'_, Id>>,
    exists: impl Fn(Id) -> bool,
    keys: &mut FxHashSet<Arc<str>>,
) -> Result<Vec<AttrRow<Id>>> {
    // The element of the last assignment seen, and whether it exists.
    let mut last: Option<(Id, bool)> = None;
    let mut exists = move |id: Id| match last {
        Some((l, e)) if l == id => e,
        _ => {
            let e = exists(id);
            last = Some((id, e));
            e
        }
    };
    if cur.is_empty() {
        return Ok(run
            .into_iter()
            .filter_map(|(id, key, value)| Some((id, key, value?)))
            .filter(|(id, _, _)| exists(*id))
            .map(|(id, key, value)| (id, intern(keys, key), value))
            .collect());
    }
    let mut out = Vec::with_capacity(cur.len() + run.len());
    let mut removed = removed.iter().peekable();
    let mut cur = cur.into_iter();
    for (id, key, value) in run {
        // Keep (or drop, for deleted elements) every row before this one.
        let before = gallop(cur.as_slice(), |(i, k, _)| (*i, &**k) < (id, key));
        keep_rows(&mut out, &mut cur, before, &mut removed);
        let same = cur
            .as_slice()
            .first()
            .is_some_and(|(i, k, _)| *i == id && &**k == key);
        let same = if same { cur.next() } else { None };
        let exists = exists(id);
        match (same, value) {
            // The element was deleted: its row goes, and so does the
            // assignment unless the element was added back.
            (Some(row), value) if is_removed(&mut removed, row.0) => {
                if let (Some(v), true) = (value, exists) {
                    out.push((id, row.1, v));
                }
            }
            (Some((_, k, _)), Some(v)) => out.push((id, k, v)),
            (Some(_), None) => {}
            (None, Some(v)) if exists => out.push((id, intern(keys, key), v)),
            (None, _) => {}
        }
    }
    let rest = cur.len();
    keep_rows(&mut out, &mut cur, rest, &mut removed);
    Ok(out)
}

/// The number of leading elements of `slice` that satisfy `pred`, which
/// holds for a prefix: found by galloping from the front, so a short
/// prefix costs a few probes however long the slice is.
fn gallop<T>(slice: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1;
    while hi <= slice.len() && pred(&slice[hi - 1]) {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len() + 1) - 1;
    lo + slice[lo..hi].partition_point(pred)
}

/// Moves the next `n` rows of `cur` to `out`, dropping those of removed
/// elements.
fn keep_rows<'r, Id: Ord + Copy + 'r>(
    out: &mut Vec<AttrRow<Id>>,
    cur: &mut std::vec::IntoIter<AttrRow<Id>>,
    n: usize,
    removed: &mut std::iter::Peekable<impl Iterator<Item = &'r Id>>,
) {
    if removed.peek().is_none() {
        out.extend(cur.by_ref().take(n));
        return;
    }
    for row in cur.by_ref().take(n) {
        if !is_removed(removed, row.0) {
            out.push(row);
        }
    }
}

/// Whether `id` is among the removed ids; advances past smaller ones.
fn is_removed<'r, Id: Ord + Copy + 'r>(
    removed: &mut std::iter::Peekable<impl Iterator<Item = &'r Id>>,
    id: Id,
) -> bool {
    while removed.next_if(|r| **r < id).is_some() {}
    removed.peek().is_some_and(|r| **r == id)
}
