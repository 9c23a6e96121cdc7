//! The benchmark's input trace and the correctness oracle computed from it.
//!
//! The oracle never touches an index: it is one forward replay of the raw
//! event trace (paper §3.1 — the snapshot at `t` is the replay of all
//! events `<= t`), sampled at the time points the request scripts use.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use datagen::{churn_trace, ChurnConfig, Dataset};
use tgraph::codec::Encode;
use tgraph::fxhash::FxHashSet;
use tgraph::{EdgeId, Event, EventKind, NodeId, Snapshot, Timestamp};

use crate::stats::Fnv1a;

/// Last time point of the growing base trace.
pub const BASE_END: i64 = 700_000;
/// Last time point of the churn phase (and of the generated history).
pub const END: i64 = 1_000_000;

/// The generated trace with the facts the fingerprint records.
pub struct Inputs {
    pub dataset: Dataset,
    pub distinct_timestamps: usize,
    /// FNV-1a of the codec-encoded trace.
    pub trace_fnv: u64,
}

/// `datagen::churn_trace` under datagen's own default seeds, with the time
/// axis widened to `[0, 1_000_000]`: the default axis (1940–2012) has 73
/// distinct timestamps, so every point of history would fit in a 128-entry
/// snapshot cache and no cold workload could exist.
///
/// The trace is the same for every `--seed`; the seed draws the request
/// scripts. Ten differently seeded traces differ by several percent in graph
/// size, which would read as run-to-run spread of every byte count and
/// latency.
pub fn generate(scale: f64) -> Inputs {
    let mut cfg = ChurnConfig::default().scaled(scale);
    cfg.base.start_time = 0;
    cfg.base.end_time = BASE_END;
    cfg.end_time = END;
    let dataset = churn_trace(&cfg);
    let mut fnv = Fnv1a::new();
    let mut buf = Vec::new();
    let mut distinct = 0usize;
    let mut last = None;
    for ev in dataset.events.events() {
        buf.clear();
        ev.encode(&mut buf);
        fnv.write(&buf);
        if last != Some(ev.time) {
            distinct += 1;
            last = Some(ev.time);
        }
    }
    Inputs {
        dataset,
        distinct_timestamps: distinct,
        trace_fnv: fnv.finish(),
    }
}

/// A cold workload needs far more points of history than the snapshot cache
/// holds; refuse to measure otherwise.
pub fn check_distinct_timestamps(distinct: usize, cache_capacity: usize) -> Result<(), String> {
    let need = 20 * cache_capacity;
    if distinct < need {
        return Err(format!(
            "too few distinct timestamps: the trace has {distinct}, a cold workload needs at \
             least {need} (20 x the {cache_capacity}-entry snapshot cache)"
        ));
    }
    Ok(())
}

/// What the request scripts want to know about the history.
#[derive(Default)]
pub struct OracleQuery {
    /// Node and edge counts at these times.
    pub points: BTreeSet<i64>,
    /// Presence and degree of a node at a time.
    pub nodes: BTreeSet<(i64, u64)>,
    /// `DIFF a b` with `a < b`: elements present at `a` and gone at `b`.
    pub diffs: BTreeSet<(i64, i64)>,
    /// `GET GRAPH BETWEEN a AND b`: elements added during `[a, b)`.
    pub intervals: BTreeSet<(i64, i64)>,
}

/// Answers to an [`OracleQuery`].
#[derive(Default)]
pub struct Oracle {
    counts: HashMap<i64, (usize, usize)>,
    nodes: HashMap<(i64, u64), (bool, usize)>,
    diffs: HashMap<(i64, i64), (usize, usize)>,
    intervals: HashMap<(i64, i64), (usize, usize, usize)>,
}

impl Oracle {
    /// One forward sweep of `events` over every time the query names.
    pub fn sweep(events: &[Event], query: &OracleQuery) -> Oracle {
        let mut stops: BTreeSet<i64> = query.points.clone();
        stops.extend(query.nodes.iter().map(|&(t, _)| t));
        stops.extend(query.diffs.iter().flat_map(|&(a, b)| [a, b]));
        let mut nodes_at: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
        for &(t, n) in &query.nodes {
            nodes_at.entry(t).or_default().push(n);
        }
        // The earlier side of each diff, held only until its later side.
        type Earlier = (FxHashSet<NodeId>, Vec<(EdgeId, NodeId, NodeId)>);
        let mut open: HashMap<i64, (usize, Earlier)> = HashMap::new();
        for &(a, _) in &query.diffs {
            open.entry(a).or_insert((0, Earlier::default())).0 += 1;
        }

        let mut oracle = Oracle::default();
        let mut snap = Snapshot::new();
        let mut next = 0usize;
        for &t in &stops {
            while next < events.len() && events[next].time.raw() <= t {
                snap.apply_forward(&events[next])
                    .expect("generated trace is well formed");
                next += 1;
            }
            if query.points.contains(&t) {
                oracle
                    .counts
                    .insert(t, (snap.node_count(), snap.edge_count()));
            }
            for &n in nodes_at.get(&t).map(Vec::as_slice).unwrap_or_default() {
                let id = NodeId(n);
                oracle
                    .nodes
                    .insert((t, n), (snap.has_node(id), snap.neighbors(id).len()));
            }
            for &(a, b) in query.diffs.iter().filter(|d| d.1 == t) {
                let (pending, (had_nodes, had_edges)) =
                    open.get_mut(&a).expect("earlier side recorded");
                let mut nodes: FxHashSet<NodeId> = had_nodes
                    .iter()
                    .copied()
                    .filter(|n| !snap.has_node(*n))
                    .collect();
                let mut edges = 0usize;
                for (e, src, dst) in had_edges.iter() {
                    if !snap.has_edge(*e) {
                        edges += 1;
                        nodes.insert(*src);
                        nodes.insert(*dst);
                    }
                }
                oracle.diffs.insert((a, b), (nodes.len(), edges));
                *pending -= 1;
                if *pending == 0 {
                    open.remove(&a);
                }
            }
            if let Some((_, earlier)) = open.get_mut(&t) {
                if earlier.0.is_empty() && earlier.1.is_empty() {
                    earlier.0 = snap.node_id_set();
                    earlier.1 = snap.edges().map(|(e, d)| (e, d.src, d.dst)).collect();
                }
            }
        }
        for &(a, b) in &query.intervals {
            oracle
                .intervals
                .insert((a, b), added_between(events, Timestamp(a), Timestamp(b)));
        }
        oracle
    }

    pub fn counts(&self, t: i64) -> (usize, usize) {
        self.counts[&t]
    }

    pub fn node(&self, t: i64, node: u64) -> (bool, usize) {
        self.nodes[&(t, node)]
    }

    pub fn diff(&self, a: i64, b: i64) -> (usize, usize) {
        self.diffs[&(a, b)]
    }

    /// `(nodes, edges, transients)` of the interval graph.
    pub fn interval(&self, a: i64, b: i64) -> (usize, usize, usize) {
        self.intervals[&(a, b)]
    }
}

/// Distinct nodes and edges added during `[start, end)` (an added edge
/// brings its endpoints) and the transient events of the window.
fn added_between(events: &[Event], start: Timestamp, end: Timestamp) -> (usize, usize, usize) {
    let lo = events.partition_point(|e| e.time < start);
    let hi = events.partition_point(|e| e.time < end);
    let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut edges: FxHashSet<EdgeId> = FxHashSet::default();
    let mut transients = 0usize;
    for ev in &events[lo..hi] {
        match &ev.kind {
            EventKind::AddNode { node } => {
                nodes.insert(*node);
            }
            EventKind::AddEdge { edge, src, dst, .. } => {
                edges.insert(*edge);
                nodes.insert(*src);
                nodes.insert(*dst);
            }
            EventKind::TransientEdge { .. } | EventKind::TransientNode { .. } => transients += 1,
            _ => {}
        }
    }
    (nodes.len(), edges.len(), transients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{AttrOptions, TimeExpression};

    #[test]
    fn the_trace_is_reproducible_and_scale_dependent() {
        let a = generate(0.02);
        let b = generate(0.02);
        let c = generate(0.03);
        assert_eq!(a.trace_fnv, b.trace_fnv);
        assert_eq!(a.dataset.events.len(), b.dataset.events.len());
        assert_ne!(a.trace_fnv, c.trace_fnv);
        assert_eq!(a.dataset.end_time(), Timestamp(END));
        assert!(a.distinct_timestamps > 73, "the widened axis is in use");
    }

    #[test]
    fn too_few_distinct_timestamps_is_refused() {
        // The default 1940-2012 axis: 73 points against a 128-entry cache.
        let err = check_distinct_timestamps(73, 128).unwrap_err();
        assert!(err.contains("too few distinct timestamps"), "{err}");
        assert!(err.contains("2560"), "{err}");
        assert!(check_distinct_timestamps(2560, 128).is_ok());
    }

    #[test]
    fn oracle_agrees_with_dataset_replay() {
        let inputs = generate(0.02);
        let ds = &inputs.dataset;
        let node = ds
            .final_snapshot()
            .node_ids()
            .min()
            .expect("non-empty graph");
        let mut q = OracleQuery::default();
        q.points.extend([0, 400_000, BASE_END, 900_000, END]);
        q.nodes.insert((800_000, node.raw()));
        q.diffs.insert((750_000, 950_000));
        q.diffs.insert((750_000, 800_000));
        q.intervals.insert((720_000, 760_000));
        let oracle = Oracle::sweep(ds.events.events(), &q);
        for &t in &q.points {
            let snap = ds.snapshot_at(Timestamp(t));
            assert_eq!(oracle.counts(t), (snap.node_count(), snap.edge_count()));
        }
        let at = ds.snapshot_at(Timestamp(800_000));
        assert_eq!(
            oracle.node(800_000, node.raw()),
            (at.has_node(node), at.degree(node))
        );
        for &(a, b) in &q.diffs {
            let want = TimeExpression::diff(a, b)
                .evaluate(&[ds.snapshot_at(Timestamp(a)), ds.snapshot_at(Timestamp(b))])
                .unwrap();
            assert_eq!(oracle.diff(a, b), (want.node_count(), want.edge_count()));
            assert!(want.edge_count() > 0, "the churn phase deletes edges");
        }
        let index = deltagraph::DeltaGraph::build(
            &ds.events,
            deltagraph::DeltaGraphConfig::default(),
            std::sync::Arc::new(kvstore::MemStore::new()),
        )
        .unwrap();
        let (g, transients) = index
            .get_snapshot_interval(
                Timestamp(720_000),
                Timestamp(760_000),
                &AttrOptions::structure_only(),
            )
            .unwrap();
        assert_eq!(
            oracle.interval(720_000, 760_000),
            (g.node_count(), g.edge_count(), transients.len())
        );
    }
}
