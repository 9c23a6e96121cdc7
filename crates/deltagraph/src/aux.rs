//! Extensibility: auxiliary indexes maintained alongside the graph
//! (Section 4.7).
//!
//! An auxiliary index derives extra information from the graph (the paper's
//! running example is a *path index* for subgraph pattern matching: every
//! length-4 labelled path in the graph). The DeltaGraph maintains this
//! information historically: auxiliary events are derived from plain events,
//! auxiliary snapshots exist per leaf, and an auxiliary differential function
//! combines children (for the path index, intersection — a path associated
//! with the root existed throughout the history).
//!
//! Auxiliary snapshots are represented as sets of `(key, value)` string
//! pairs, which matches the paper's "hashtable of string key-value pairs"
//! while permitting multiple values per key (needed by the path index, where
//! one label quartet maps to many concrete paths).
//!
//! Storage layout in this implementation: per-leaf auxiliary snapshots are
//! chain-encoded (each leaf stores the delta against the previous leaf) under
//! the `Auxiliary` column of the payload store, and the root auxiliary
//! snapshot (the combination over all leaves) is kept in memory. Retrieval
//! granularity is the leaf: `get_aux_snapshot(t)` returns the auxiliary
//! snapshot of the last leaf at or before `t`.

use std::collections::BTreeSet;

use tgraph::codec::{write_varint, Decode, Encode, Reader};
use tgraph::{Event, EventKind, EventList, NodeId, Snapshot, Timestamp};

use crate::error::{DgError, DgResult};
use crate::graph::DeltaGraph;
use crate::storage::PayloadStore;

/// An auxiliary snapshot: a set of `(key, value)` pairs.
pub type AuxSnapshot = BTreeSet<(String, String)>;

/// An auxiliary event: the addition or removal of one `(key, value)` pair at
/// a given time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuxEvent {
    /// When the change happened.
    pub time: Timestamp,
    /// `true` for addition, `false` for removal.
    pub addition: bool,
    /// The pair's key.
    pub key: String,
    /// The pair's value.
    pub value: String,
}

/// User-defined auxiliary index, mirroring the paper's `AuxIndex` abstract
/// class (`CreateAuxEvent`, `CreateAuxSnapshot`, `AuxDF`).
pub trait AuxIndex: Send + Sync {
    /// Name under which the index is registered.
    fn name(&self) -> &str;

    /// Derives the auxiliary events caused by a plain event, given the graph
    /// *before* the event and the latest auxiliary snapshot.
    fn create_aux_events(
        &self,
        event: &Event,
        graph_before: &Snapshot,
        latest: &AuxSnapshot,
    ) -> Vec<AuxEvent>;

    /// Builds the next leaf auxiliary snapshot from the previous one plus the
    /// auxiliary events in between (the paper's `CreateAuxSnapshot`).
    fn create_aux_snapshot(&self, prev: &AuxSnapshot, events: &[AuxEvent]) -> AuxSnapshot {
        let mut next = prev.clone();
        for ev in events {
            let pair = (ev.key.clone(), ev.value.clone());
            if ev.addition {
                next.insert(pair);
            } else {
                next.remove(&pair);
            }
        }
        next
    }

    /// The auxiliary differential function (the paper's `AuxDF`): combines
    /// the children's auxiliary snapshots into the parent's. The default is
    /// intersection, which is what the path index uses (a pair associated
    /// with the root was present throughout the history). The root is
    /// folded in one leaf at a time, `aux_diff(&[root, leaf])`, so the
    /// function must be associative, as intersection and union are.
    fn aux_diff(&self, children: &[AuxSnapshot]) -> AuxSnapshot {
        let mut iter = children.iter();
        let Some(first) = iter.next() else {
            return AuxSnapshot::new();
        };
        let mut acc = first.clone();
        for child in iter {
            acc = acc.intersection(child).cloned().collect();
        }
        acc
    }
}

/// Internal per-registered-index state held by the [`DeltaGraph`].
pub struct AuxState {
    pub(crate) index: Box<dyn AuxIndex>,
    /// `leaf_delta_ids[i]` stores the chained delta from leaf `i-1`'s
    /// auxiliary snapshot to leaf `i`'s (`leaf_delta_ids[0]` is the full
    /// content of the first leaf's snapshot, which is usually empty).
    pub(crate) leaf_delta_ids: Vec<u64>,
    /// The last leaf's auxiliary snapshot, which the next chain delta is
    /// taken against.
    latest: AuxSnapshot,
    /// The auxiliary snapshot associated with the root (combination over all
    /// leaves via `aux_diff`).
    pub(crate) root: AuxSnapshot,
}

impl AuxState {
    /// Chains one more leaf: derives the auxiliary events of the leaf's
    /// `events` while replaying them on `graph` (the graph before them),
    /// persists the delta to the new leaf snapshot under `id`, and folds
    /// that snapshot into the root.
    fn push_leaf(
        &mut self,
        payloads: &PayloadStore,
        id: u64,
        graph: &mut Snapshot,
        events: &EventList,
    ) -> DgResult<()> {
        let mut aux_events = Vec::new();
        for ev in events.events() {
            aux_events.extend(self.index.create_aux_events(ev, graph, &self.latest));
            graph.apply_forward(ev)?;
        }
        let next = self.index.create_aux_snapshot(&self.latest, &aux_events);
        payloads.write_aux(id, &AuxDelta::between(&self.latest, &next).to_bytes())?;
        self.leaf_delta_ids.push(id);
        self.root = self
            .index
            .aux_diff(&[std::mem::take(&mut self.root), next.clone()]);
        self.latest = next;
        Ok(())
    }
}

/// Chain-encoded difference between consecutive auxiliary snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AuxDelta {
    added: Vec<(String, String)>,
    removed: Vec<(String, String)>,
}

impl AuxDelta {
    fn between(prev: &AuxSnapshot, next: &AuxSnapshot) -> AuxDelta {
        AuxDelta {
            added: next.difference(prev).cloned().collect(),
            removed: prev.difference(next).cloned().collect(),
        }
    }

    fn apply_to(&self, target: &mut AuxSnapshot) {
        for pair in &self.removed {
            target.remove(pair);
        }
        for pair in &self.added {
            target.insert(pair.clone());
        }
    }
}

impl Encode for AuxDelta {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.added.len() as u64);
        for (k, v) in &self.added {
            k.encode(buf);
            v.encode(buf);
        }
        write_varint(buf, self.removed.len() as u64);
        for (k, v) in &self.removed {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

impl Decode for AuxDelta {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        let read_pairs = |r: &mut Reader<'_>| -> tgraph::Result<Vec<(String, String)>> {
            let n = r.read_varint()? as usize;
            let mut out = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                out.push((String::decode(r)?, String::decode(r)?));
            }
            Ok(out)
        };
        let added = read_pairs(r)?;
        let removed = read_pairs(r)?;
        Ok(AuxDelta { added, removed })
    }
}

impl DeltaGraph {
    /// Builds an auxiliary index over the recorded history and registers it.
    ///
    /// The history is replayed once: for every plain event the index derives
    /// auxiliary events, auxiliary snapshots are formed at every leaf
    /// boundary, chain deltas between consecutive leaf auxiliary snapshots
    /// are persisted, and the root auxiliary snapshot (via `aux_diff`) is
    /// kept in memory. Leaves folded in later by appends extend the index
    /// the same way.
    pub fn build_aux_index(&mut self, index: Box<dyn AuxIndex>) -> DgResult<()> {
        self.ensure_appendable()?;
        // Auxiliary events are derived from plain events; a seed graph
        // (`DeltaGraph::build_seeded`) has none to derive them from.
        let first = *self.skeleton.leaves().first().ok_or(DgError::EmptyIndex)?;
        if self.skeleton.node(first)?.element_count > 0 {
            return Err(DgError::InvalidParameter(
                "auxiliary indexes replay the history from the empty graph; \
                 this index starts from a seeded state"
                    .into(),
            ));
        }
        let mut state = AuxState {
            index,
            leaf_delta_ids: Vec::new(),
            latest: AuxSnapshot::new(),
            root: AuxSnapshot::new(),
        };
        // Leaf 0 (empty) chain start.
        let first_id = self.next_id;
        self.next_id += 1;
        self.payloads
            .write_aux(first_id, &AuxDelta::default().to_bytes())?;
        state.leaf_delta_ids.push(first_id);

        let mut graph = Snapshot::new();
        for interval in self.skeleton.intervals() {
            let events = self.payloads.read_eventlist(
                interval.eventlist_id,
                &tgraph::AttrOptions::all(),
                true,
            )?;
            let id = self.next_id;
            self.next_id += 1;
            state.push_leaf(&self.payloads, id, &mut graph, &events)?;
        }
        self.aux.push(state);
        Ok(())
    }

    /// Extends every registered auxiliary index by the leaf that `events`,
    /// the eventlist just folded in and already applied to the current
    /// graph, closes.
    pub(crate) fn fold_aux_leaf(&mut self, events: &EventList) -> DgResult<()> {
        for state in &mut self.aux {
            let mut graph = self.current.clone();
            graph.apply_events_backward(events.events())?;
            let id = self.next_id;
            self.next_id += 1;
            state.push_leaf(&self.payloads, id, &mut graph, events)?;
        }
        Ok(())
    }

    /// The registered auxiliary index names.
    pub fn aux_index_names(&self) -> Vec<&str> {
        self.aux.iter().map(|a| a.index.name()).collect()
    }

    fn aux_state(&self, name: &str) -> DgResult<&AuxState> {
        self.aux
            .iter()
            .find(|a| a.index.name() == name)
            .ok_or_else(|| DgError::UnknownAuxIndex(name.to_owned()))
    }

    /// The auxiliary snapshot associated with the root: pairs that were
    /// present throughout the recorded history (for intersection-style
    /// auxiliary differential functions).
    pub fn aux_root(&self, name: &str) -> DgResult<&AuxSnapshot> {
        Ok(&self.aux_state(name)?.root)
    }

    /// The auxiliary snapshot as of time `t`, at leaf granularity (the
    /// snapshot of the last leaf at or before `t`).
    pub fn get_aux_snapshot(&self, name: &str, t: Timestamp) -> DgResult<AuxSnapshot> {
        let state = self.aux_state(name)?;
        // Number of leaves at or before t = 1 + number of intervals ending <= t.
        let upto = match self.skeleton.locate(t)? {
            crate::skeleton::Location::BeforeHistory => 0,
            crate::skeleton::Location::Interval(i) => i + 1,
            crate::skeleton::Location::AfterLastLeaf => state.leaf_delta_ids.len(),
        };
        let mut aux = AuxSnapshot::new();
        for id in state.leaf_delta_ids.iter().take(upto.max(1)) {
            let bytes = self
                .payloads
                .read_aux(*id)?
                .ok_or_else(|| DgError::NoPlan(format!("missing aux delta {id}")))?;
            let delta = AuxDelta::from_bytes(&bytes).map_err(DgError::Model)?;
            delta.apply_to(&mut aux);
        }
        Ok(aux)
    }

    /// All values ever associated with `key` over the recorded history
    /// (union over every leaf's auxiliary snapshot). This is the primitive
    /// behind "find all matches of a pattern over the entire history".
    pub fn aux_history_values(&self, name: &str, key: &str) -> DgResult<BTreeSet<String>> {
        let state = self.aux_state(name)?;
        let mut aux = AuxSnapshot::new();
        let mut out = BTreeSet::new();
        for id in &state.leaf_delta_ids {
            let bytes = self
                .payloads
                .read_aux(*id)?
                .ok_or_else(|| DgError::NoPlan(format!("missing aux delta {id}")))?;
            let delta = AuxDelta::from_bytes(&bytes).map_err(DgError::Model)?;
            delta.apply_to(&mut aux);
            out.extend(
                aux.range((key.to_owned(), String::new())..)
                    .take_while(|(k, _)| k == key)
                    .map(|(_, v)| v.clone()),
            );
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The path index for subgraph pattern matching (the paper's worked example)
// ---------------------------------------------------------------------------

/// Auxiliary index over all simple paths of `PATH_LEN` nodes, keyed by the
/// concatenation of the node labels along the path (Section 4.7). To find
/// the instances of a labelled pattern, decompose it into length-4 paths,
/// look each up in the index, and join.
pub struct PathIndex {
    /// Name of the node attribute holding the label.
    label_attr: String,
}

/// Number of nodes in an indexed path.
pub const PATH_LEN: usize = 4;

impl PathIndex {
    /// Creates a path index reading labels from the given node attribute.
    pub fn new(label_attr: impl Into<String>) -> Self {
        PathIndex {
            label_attr: label_attr.into(),
        }
    }

    fn label(&self, graph: &Snapshot, node: NodeId) -> Option<String> {
        graph
            .node_attr(node, &self.label_attr)
            .map(|v| v.to_string())
    }

    /// Key under which a path is indexed: the labels joined by `/`.
    pub fn key_for_labels(labels: &[String]) -> String {
        labels.join("/")
    }

    /// Value describing a concrete path: the node ids joined by `-`.
    pub fn value_for_nodes(nodes: &[NodeId]) -> String {
        nodes
            .iter()
            .map(|n| n.raw().to_string())
            .collect::<Vec<_>>()
            .join("-")
    }

    /// Enumerates the simple 4-node paths that contain the edge `(u, v)` in
    /// `graph` (which must already contain the edge for additions, or still
    /// contain it for deletions).
    fn paths_through_edge(&self, graph: &Snapshot, u: NodeId, v: NodeId) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let neighbors =
            |n: NodeId| -> Vec<NodeId> { graph.neighbors(n).iter().map(|(m, _)| *m).collect() };
        // Pattern x - u - v - y (edge in the middle).
        for x in neighbors(u) {
            if x == v {
                continue;
            }
            for y in neighbors(v) {
                if y == u || y == x {
                    continue;
                }
                out.push(vec![x, u, v, y]);
            }
        }
        // Pattern u - v - x - y (edge at the start).
        for x in neighbors(v) {
            if x == u {
                continue;
            }
            for y in neighbors(x) {
                if y == v || y == u {
                    continue;
                }
                out.push(vec![u, v, x, y]);
            }
        }
        // Pattern x - y - u - v (edge at the end).
        for y in neighbors(u) {
            if y == v {
                continue;
            }
            for x in neighbors(y) {
                if x == u || x == v {
                    continue;
                }
                out.push(vec![x, y, u, v]);
            }
        }
        out
    }

    fn path_events(
        &self,
        graph: &Snapshot,
        time: Timestamp,
        u: NodeId,
        v: NodeId,
        addition: bool,
    ) -> Vec<AuxEvent> {
        let mut events = Vec::new();
        for path in self.paths_through_edge(graph, u, v) {
            let labels: Option<Vec<String>> = path.iter().map(|n| self.label(graph, *n)).collect();
            let Some(labels) = labels else { continue };
            // Canonicalize: a path and its reverse are the same undirected path.
            let reversed: Vec<NodeId> = path.iter().rev().copied().collect();
            let (canon_nodes, canon_labels) =
                if PathIndex::value_for_nodes(&path) <= PathIndex::value_for_nodes(&reversed) {
                    (path.clone(), labels)
                } else {
                    (reversed, labels.into_iter().rev().collect())
                };
            events.push(AuxEvent {
                time,
                addition,
                key: PathIndex::key_for_labels(&canon_labels),
                value: PathIndex::value_for_nodes(&canon_nodes),
            });
        }
        events
    }
}

impl AuxIndex for PathIndex {
    fn name(&self) -> &str {
        "path-index"
    }

    fn create_aux_events(
        &self,
        event: &Event,
        graph_before: &Snapshot,
        _latest: &AuxSnapshot,
    ) -> Vec<AuxEvent> {
        match &event.kind {
            EventKind::AddEdge {
                edge,
                src,
                dst,
                directed,
                ..
            } => {
                // Evaluate against the graph *with* the new edge present.
                let mut graph_after = graph_before.clone();
                if graph_after.add_edge(*edge, *src, *dst, *directed).is_err() {
                    return Vec::new();
                }
                self.path_events(&graph_after, event.time, *src, *dst, true)
            }
            EventKind::DeleteEdge { src, dst, .. } => {
                // Paths through the edge disappear; enumerate them on the
                // graph before the deletion.
                self.path_events(graph_before, event.time, *src, *dst, false)
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeltaGraphConfig;
    use crate::DeltaGraph;
    use datagen::{assign_labels, dblp_like, DblpConfig, DEFAULT_LABELS};
    use kvstore::MemStore;
    use std::sync::Arc;
    use tgraph::AttrValue;

    fn labelled_line_graph() -> EventList {
        // A path 1-2-3-4-5 with labels a,b,c,d,e appearing one edge at a time.
        let mut events = Vec::new();
        let labels = ["a", "b", "c", "d", "e"];
        for (i, l) in labels.iter().enumerate() {
            let n = i as u64 + 1;
            events.push(Event::add_node(i as i64 * 2, n));
            events.push(Event::set_node_attr(
                i as i64 * 2,
                n,
                "label",
                None,
                Some(AttrValue::from(*l)),
            ));
        }
        for i in 1..5u64 {
            events.push(Event::add_edge(10 + i as i64, 100 + i, i, i + 1));
        }
        // Later, remove the middle edge 2-3 so some paths disappear.
        events.push(Event::delete_edge(30, 102, 2, 3));
        EventList::from_events(events)
    }

    fn build_with_path_index(events: &EventList, leaf_size: usize) -> DeltaGraph {
        let mut dg = DeltaGraph::build(
            events,
            DeltaGraphConfig::new(leaf_size, 2),
            Arc::new(MemStore::new()),
        )
        .unwrap();
        dg.build_aux_index(Box::new(PathIndex::new("label")))
            .unwrap();
        dg
    }

    #[test]
    fn path_index_finds_paths_at_leaf_granularity() {
        let events = labelled_line_graph();
        // leaf size 2 places a leaf boundary right after the last edge
        // addition, so the fully built line graph is captured by a leaf.
        let dg = build_with_path_index(&events, 2);
        assert_eq!(dg.aux_index_names(), vec!["path-index"]);
        // After all edges exist (t=14) the line 1-2-3-4-5 contains exactly
        // two 4-node paths: 1-2-3-4 (a/b/c/d) and 2-3-4-5 (b/c/d/e).
        let aux = dg.get_aux_snapshot("path-index", Timestamp(20)).unwrap();
        assert!(aux.contains(&("a/b/c/d".to_string(), "1-2-3-4".to_string())));
        assert!(aux.contains(&("b/c/d/e".to_string(), "2-3-4-5".to_string())));

        // After deleting edge 2-3 (t=30) both paths are gone.
        let aux_after = dg.get_aux_snapshot("path-index", Timestamp(31)).unwrap();
        assert!(!aux_after.iter().any(|(k, _)| k == "a/b/c/d"));
    }

    #[test]
    fn aux_history_values_unions_over_time() {
        let events = labelled_line_graph();
        let dg = build_with_path_index(&events, 2);
        // Even though the path is gone at the end, it existed at some point.
        let matches = dg.aux_history_values("path-index", "a/b/c/d").unwrap();
        assert_eq!(matches.len(), 1);
        assert!(matches.contains("1-2-3-4"));
        // Unknown keys return the empty set; unknown indexes error.
        assert!(dg
            .aux_history_values("path-index", "z/z/z/z")
            .unwrap()
            .is_empty());
        assert!(dg.aux_history_values("nope", "a/b/c/d").is_err());
    }

    #[test]
    fn aux_root_holds_pairs_present_throughout() {
        let events = labelled_line_graph();
        let dg = build_with_path_index(&events, 4);
        // No 4-node path exists in the very first (empty) leaf, so the root
        // auxiliary snapshot (intersection over leaves) is empty.
        assert!(dg.aux_root("path-index").unwrap().is_empty());
    }

    #[test]
    fn leaf_folds_keep_the_aux_index_equal_to_a_fresh_build() {
        // The line 1-2-3-4-5 is indexed at L = 2; four appends then fold two
        // more leaves: edge 2-3 goes and node 6 is attached to node 5.
        let mut history = labelled_line_graph().into_events();
        history.extend([
            Event::add_node(31, 6),
            Event::set_node_attr(31, 6, "label", None, Some(AttrValue::from("f"))),
            Event::add_edge(32, 105, 5, 6),
        ]);
        let (built, appended) = history.split_at(14);
        let mut dg = build_with_path_index(&EventList::from_events(built.to_vec()), 2);
        dg.append_events(appended.iter().cloned()).unwrap();
        assert!(dg.recent_events().is_empty());
        let fresh = build_with_path_index(&EventList::from_events(history), 2);

        let leaf_times = |dg: &DeltaGraph| -> Vec<Timestamp> {
            let skeleton = dg.skeleton();
            skeleton
                .leaves()
                .iter()
                .map(|leaf| skeleton.node(*leaf).unwrap().time.unwrap())
                .collect()
        };
        assert_eq!(leaf_times(&dg), leaf_times(&fresh));
        let mut keys = BTreeSet::new();
        for t in leaf_times(&fresh) {
            let expected = fresh.get_aux_snapshot("path-index", t).unwrap();
            assert_eq!(
                dg.get_aux_snapshot("path-index", t).unwrap(),
                expected,
                "at {t}"
            );
            keys.extend(expected.into_iter().map(|(key, _)| key));
        }
        assert!(keys.contains("c/d/e/f"), "{keys:?}");
        for key in &keys {
            assert_eq!(
                dg.aux_history_values("path-index", key).unwrap(),
                fresh.aux_history_values("path-index", key).unwrap(),
                "{key}"
            );
        }
        assert_eq!(
            dg.aux_root("path-index").unwrap(),
            fresh.aux_root("path-index").unwrap()
        );
    }

    #[test]
    fn path_index_on_generated_labelled_trace_runs_end_to_end() {
        let ds = assign_labels(
            &dblp_like(&DblpConfig {
                total_edges: 120,
                attrs_per_node: 1,
                ..DblpConfig::tiny(51)
            }),
            &DEFAULT_LABELS,
            7,
        );
        let dg = build_with_path_index(&ds.events, 80);
        // Count matches over history for every key actually present at the end.
        let final_aux = dg.get_aux_snapshot("path-index", ds.end_time()).unwrap();
        assert!(!final_aux.is_empty(), "expected some 4-node paths");
        let (key, _) = final_aux.iter().next().unwrap().clone();
        let matches = dg.aux_history_values("path-index", &key).unwrap();
        assert!(!matches.is_empty());
    }

    #[test]
    fn aux_delta_roundtrip() {
        let mut a = AuxSnapshot::new();
        a.insert(("k1".into(), "v1".into()));
        let mut b = a.clone();
        b.insert(("k2".into(), "v2".into()));
        b.remove(&("k1".to_string(), "v1".to_string()));
        let d = AuxDelta::between(&a, &b);
        let bytes = d.to_bytes();
        let decoded = AuxDelta::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, d);
        let mut a2 = a.clone();
        decoded.apply_to(&mut a2);
        assert_eq!(a2, b);
    }
}
