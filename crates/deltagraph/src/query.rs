//! Snapshot retrieval: query planning and execution.
//!
//! * **Multipoint queries** (Section 4.4): a Steiner-tree problem. We use the
//!   standard greedy/2-approximation strategy — terminals are inserted one at
//!   a time, each via its cheapest path to the *partially built tree* — and
//!   then execute the resulting tree once, top-down, so that shared deltas
//!   are fetched and applied exactly once.
//! * **Singlepoint queries** (Section 4.3) are the tree of one terminal:
//!   locate the leaf-eventlist containing the query time, take the cheaper
//!   of its two leaves — the cheapest path to the leaf from the super-root or
//!   a materialized node, plus the share of the eventlist read from it — and
//!   execute that path, then the needed portion of the leaf-eventlist. One
//!   function makes that choice for every planned time, alone or in a tree.
//! * **Interval and TimeExpression queries** (Section 3.2.1) are built on top
//!   of the same machinery.
//!
//! Every query is split in two: a plan reads the skeleton and returns
//! owned data, and its `execute` does the fetch → decode → apply without
//! touching the index again. [`DeltaGraph::plan_retrievals`] plans one
//! point or several as a [`MultiRetrieval`], and
//! [`DeltaGraph::plan_interval`] an interval as an [`IntervalRetrieval`]. A
//! caller that guards the index with a lock holds it only for the plan.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use tgraph::fxhash::{FxHashMap, FxHashSet};
use tgraph::{AttrOptions, Event, EventKind, Snapshot, TimeExpression, Timestamp};

use crate::error::{DgError, DgResult};
use crate::form::GraphForm;
use crate::graph::DeltaGraph;
use crate::skeleton::{EdgePayload, Location, NodeIdx};
use crate::storage::{decode_events, EventSpan, PayloadStore};

/// Leaf-eventlist columns fetched during one retrieval, by payload id, so
/// an eventlist on several plan edges is fetched once.
type EventLists = FxHashMap<u64, Vec<Vec<u8>>>;

/// How the final snapshot is derived from the target leaf's graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// The leaf's graph is the answer (no leaf-eventlist processing).
    AtLeaf,
    /// Apply the events of interval `interval` with `time <= t` forward.
    Forward {
        /// Index of the leaf interval.
        interval: usize,
    },
    /// Undo the events of interval `interval` with `time > t`.
    Backward {
        /// Index of the leaf interval.
        interval: usize,
    },
}

/// A singlepoint retrieval plan.
#[derive(Clone, Debug)]
pub struct PointPlan {
    /// The query time.
    pub time: Timestamp,
    /// The leaf whose graph is constructed by the path.
    pub target_leaf: NodeIdx,
    /// Skeleton edge indices to apply, in order, starting from a plan source.
    pub path: Vec<usize>,
    /// How to finish the retrieval from the target leaf.
    pub anchor: Anchor,
    /// Estimated cost (bytes to fetch), used for reporting and tests.
    pub estimated_cost: usize,
}

/// How a retrieval turns the graph its path builds into the answer.
#[derive(Debug, PartialEq)]
enum Finish {
    /// The path's graph is the answer.
    Done,
    /// Apply the events of leaf-eventlist `eventlist_id` with `time <= t`.
    Forward { eventlist_id: u64, t: Timestamp },
    /// Undo the events of leaf-eventlist `eventlist_id` with `time > t`.
    Backward { eventlist_id: u64, t: Timestamp },
    /// Apply events not yet folded into a leaf, copied at plan time.
    Recent(Vec<Event>),
}

impl DeltaGraph {
    // ------------------------------------------------------------------
    // Public retrieval API
    // ------------------------------------------------------------------

    /// Retrieves the graph snapshot as of time `t`: a multipoint retrieval
    /// of one time.
    ///
    /// Time points before the recorded history yield the empty graph; time
    /// points after the last indexed leaf are served from the last leaf plus
    /// the recent (not yet indexed) eventlist.
    pub fn get_snapshot(&self, t: Timestamp, opts: &AttrOptions) -> DgResult<Snapshot> {
        let mut graphs = self.get_snapshots(&[t], opts)?;
        Ok(graphs.pop().expect("one time, one graph"))
    }

    /// Retrieves several snapshots at once (multipoint query), sharing the
    /// fetching and application of deltas common to the individual plans.
    /// Results are returned in the order of the requested time points.
    pub fn get_snapshots(
        &self,
        times: &[Timestamp],
        opts: &AttrOptions,
    ) -> DgResult<Vec<Snapshot>> {
        let graphs = self.plan_retrievals(times, opts)?.execute()?;
        Ok(graphs.into_iter().map(Arc::unwrap_or_clone).collect())
    }

    /// Plans the retrieval of the snapshots as of `times` (see
    /// [`DeltaGraph::get_snapshots`]) without fetching anything: one greedy
    /// Steiner tree over the skeleton (§4.4), each distinct time planned
    /// once; a single time is the cheapest path of §4.3. The result is
    /// independent of `self`: executing it after further appends still
    /// yields the snapshots that the index described at plan time.
    pub fn plan_retrievals(
        &self,
        times: &[Timestamp],
        opts: &AttrOptions,
    ) -> DgResult<MultiRetrieval> {
        let mut distinct = times.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let slots = times
            .iter()
            .map(|t| distinct.binary_search(t).expect("every time is planned"))
            .collect();
        let mut tree = SteinerTree::default();
        for (answer, &t) in distinct.iter().enumerate() {
            let (leaf, finish) = match self.skeleton.locate(t)? {
                // The super-root's graph is the empty graph.
                Location::BeforeHistory => (self.skeleton.super_root(), Finish::Done),
                Location::AfterLastLeaf => {
                    let leaf = self.skeleton.last_leaf()?;
                    tree.join(self, leaf, opts)?;
                    (leaf, Finish::Recent(self.recent.prefix_at(t).to_vec()))
                }
                Location::Interval(interval) => {
                    let plan = self.plan_point(&tree.best(self, opts), interval, t, opts)?;
                    tree.add_path(self, &plan.path);
                    (plan.target_leaf, self.finish_of(plan.anchor, t))
                }
            };
            tree.anchor(leaf, answer, finish);
        }
        tree.into_retrieval(self, opts, distinct.len(), slots)
    }

    /// Retrieves the graph formed by the elements *added* during `[start,
    /// end)`, together with the transient events recorded in that window
    /// (`GetHistGraphInterval` of Section 3.2.1).
    pub fn get_snapshot_interval(
        &self,
        start: Timestamp,
        end: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<(Snapshot, Vec<Event>)> {
        self.plan_interval(start, end, opts)?.execute()
    }

    /// Plans [`DeltaGraph::get_snapshot_interval`] without fetching
    /// anything: the leaf-eventlists whose intervals meet `[start, end)`,
    /// and a copy of the recent events in it. Like
    /// [`DeltaGraph::plan_retrievals`], the result is independent of `self`.
    pub fn plan_interval(
        &self,
        start: Timestamp,
        end: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<IntervalRetrieval> {
        if end <= start {
            return Err(DgError::InvalidParameter(format!(
                "interval end {end} must be after start {start}"
            )));
        }
        Ok(IntervalRetrieval {
            payloads: self.payloads.clone(),
            opts: opts.clone(),
            start,
            end,
            // events in an interval have times in (interval.start, interval.end]
            eventlists: self
                .skeleton
                .intervals()
                .iter()
                .filter(|interval| interval.end >= start && interval.start < end)
                .map(|interval| interval.eventlist_id)
                .collect(),
            recent: self.recent.slice_range(start, end).to_vec(),
        })
    }

    /// Retrieves the hypothetical graph whose elements satisfy a Boolean
    /// [`TimeExpression`] over several time points (Section 3.2.1).
    pub fn get_time_expression(
        &self,
        expr: &TimeExpression,
        opts: &AttrOptions,
    ) -> DgResult<Snapshot> {
        self.plan_retrievals(&expr.times, opts)?
            .execute_expression(expr)
    }

    /// Retrieves the graph associated with a skeleton node (used by
    /// materialization and by auxiliary indexes): a tree of one terminal,
    /// the node itself. Interior-node graphs are generally not valid
    /// snapshots of any time point.
    pub fn node_graph(&self, node: NodeIdx, opts: &AttrOptions) -> DgResult<Snapshot> {
        let mut tree = SteinerTree::default();
        tree.join(self, node, opts)?;
        tree.anchor(node, 0, Finish::Done);
        let graph = tree
            .into_retrieval(self, opts, 1, vec![0])?
            .execute()?
            .pop();
        Ok(Arc::unwrap_or_clone(graph.expect("one node, one graph")))
    }

    /// Plans (but does not execute) a singlepoint retrieval; exposed for plan
    /// inspection in tests and benchmarks. The plan is the one
    /// [`DeltaGraph::get_snapshot`] runs.
    pub fn plan_snapshot(&self, t: Timestamp, opts: &AttrOptions) -> DgResult<Option<PointPlan>> {
        match self.skeleton.locate(t)? {
            Location::Interval(interval) => {
                let best = self.skeleton.dijkstra(&self.skeleton.plan_sources(), opts);
                Ok(Some(self.plan_point(&best, interval, t, opts)?))
            }
            _ => Ok(None),
        }
    }

    /// Plans time `t`, inside interval `interval_idx`, over the Dijkstra
    /// table `best`: the interval's left leaf with its eventlist applied
    /// up to `t`, or its right leaf with the eventlist undone back to `t`,
    /// whichever costs less, the left one on a tie. A side's cost is its
    /// leaf's path cost plus its fraction of the eventlist's weight,
    /// truncated to whole bytes. Every time planned inside an interval, a
    /// point or a terminal of a multipoint tree, takes its leaf from here.
    fn plan_point(
        &self,
        best: &[Option<(usize, Option<usize>)>],
        interval_idx: usize,
        t: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<PointPlan> {
        let interval = &self.skeleton.intervals()[interval_idx];
        let span = (interval.end.raw() - interval.start.raw()).max(1) as f64;
        let frac = ((t.raw() - interval.start.raw()) as f64 / span).clamp(0.0, 1.0);
        let list_weight = interval.weights.for_options(opts) as f64;
        let forward = best[interval.left_leaf].map(|(c, _)| c + (list_weight * frac) as usize);
        let backward =
            best[interval.right_leaf].map(|(c, _)| c + (list_weight * (1.0 - frac)) as usize);
        let (target_leaf, anchor, estimated_cost) = match (forward, backward) {
            (Some(f), b) if b.is_none_or(|b| f <= b) => (
                interval.left_leaf,
                Anchor::Forward {
                    interval: interval_idx,
                },
                f,
            ),
            (_, Some(b)) => (
                interval.right_leaf,
                Anchor::Backward {
                    interval: interval_idx,
                },
                b,
            ),
            (_, None) => {
                return Err(DgError::NoPlan(format!(
                    "neither leaf of interval {interval_idx} is reachable"
                )))
            }
        };
        Ok(PointPlan {
            time: t,
            target_leaf,
            path: self.skeleton.path_to(best, target_leaf)?,
            anchor,
            estimated_cost,
        })
    }

    /// The [`Finish`] a planned anchor asks for, resolved to its eventlist's
    /// payload id.
    fn finish_of(&self, anchor: Anchor, t: Timestamp) -> Finish {
        let eventlist = |interval: usize| self.skeleton.intervals()[interval].eventlist_id;
        match anchor {
            Anchor::AtLeaf => Finish::Done,
            Anchor::Forward { interval } => Finish::Forward {
                eventlist_id: eventlist(interval),
                t,
            },
            Anchor::Backward { interval } => Finish::Backward {
                eventlist_id: eventlist(interval),
                t,
            },
        }
    }

    /// The graph of a plan source (the super-root or a materialized node),
    /// projected to the requested attributes. `None` if `node` is not a
    /// source.
    fn source_graph(&self, node: NodeIdx, opts: &AttrOptions) -> Option<Snapshot> {
        if node == self.skeleton.super_root() {
            return Some(Snapshot::new());
        }
        self.materialized.get(&node).map(|m| m.project_attrs(opts))
    }
}

// ----------------------------------------------------------------------
// Multipoint (Steiner-tree) planning and execution
// ----------------------------------------------------------------------

/// A planned retrieval of one or more times: the greedy Steiner tree of
/// [`DeltaGraph::plan_retrievals`], owned — each tree edge's payload, the
/// roots' source graphs, each planned time's finish (with a copy of any
/// recent prefix), and a handle on the payload store.
///
/// It borrows nothing from the [`DeltaGraph`] that planned it, so it can
/// run after the caller has let go of the index. That is sound because
/// payload ids are write-once (see [`PayloadStore`]): later appends fold new
/// leaves under new ids and never touch the payloads a plan names.
pub struct MultiRetrieval {
    payloads: PayloadStore,
    opts: AttrOptions,
    /// The tree, each node's children after it.
    nodes: Vec<TreeNode>,
    /// Each root's source graph and its index in `nodes`.
    roots: Vec<(Snapshot, usize)>,
    /// How many distinct times were planned.
    answers: usize,
    /// For each requested time, in request order, its distinct time's
    /// index.
    slots: Vec<usize>,
}

/// One node of a [`MultiRetrieval`]'s tree.
struct TreeNode {
    /// Distinct times finished from this node's graph, and how.
    finishes: Vec<(usize, Finish)>,
    /// The tree edges out of this node: payload, then the child's index.
    children: Vec<(EdgePayload, usize)>,
}

impl MultiRetrieval {
    /// Walks the tree once, top-down, so a payload the planned times share
    /// is fetched and applied once; returns the graphs in request order, a
    /// repeated time sharing its graph. Each graph is built in the form
    /// the caller asks for (see [`GraphForm`]).
    pub fn execute<G: GraphForm>(self) -> DgResult<Vec<Arc<G>>> {
        let mut walk = TreeWalk {
            payloads: &self.payloads,
            opts: &self.opts,
            nodes: &self.nodes,
            lists: EventLists::default(),
            built: vec![None; self.answers],
        };
        for (source, root) in self.roots {
            walk.visit(root, G::from_source(source))?;
        }
        let built = walk.built;
        Ok(self
            .slots
            .iter()
            .map(|&answer| Arc::clone(built[answer].as_ref().expect("every time answered")))
            .collect())
    }

    /// Executes the plan and evaluates `expr` over its graphs: the plan
    /// must be of `expr`'s times (see [`DeltaGraph::get_time_expression`]).
    pub fn execute_expression(self, expr: &TimeExpression) -> DgResult<Snapshot> {
        let snapshots: Vec<Snapshot> = self
            .execute()?
            .into_iter()
            .map(Arc::unwrap_or_clone)
            .collect();
        expr.evaluate(&snapshots).map_err(Into::into)
    }
}

/// The state of one [`MultiRetrieval::execute`].
struct TreeWalk<'a, G> {
    payloads: &'a PayloadStore,
    opts: &'a AttrOptions,
    nodes: &'a [TreeNode],
    lists: EventLists,
    built: Vec<Option<Arc<G>>>,
}

impl<G: GraphForm> TreeWalk<'_, G> {
    /// Finishes every time anchored at `node` from its graph `graph`, then
    /// carries the graph down each child edge. The last consumer takes
    /// `graph`; earlier ones work on clones.
    fn visit(&mut self, node: usize, graph: G) -> DgResult<()> {
        let TreeNode { finishes, children } = &self.nodes[node];
        let mut graph = Some(graph);
        let mut consumers = finishes.len() + children.len();
        let mut next = |graph: &mut Option<G>| {
            consumers -= 1;
            match consumers {
                0 => graph.take(),
                _ => graph.clone(),
            }
            .expect("parent graph consumed early")
        };
        for (answer, finish) in finishes {
            let mut out = next(&mut graph);
            apply_finish(self.payloads, &mut out, finish, self.opts, &mut self.lists)?;
            self.built[*answer] = Some(Arc::new(out));
        }
        for &(payload, child) in children {
            let mut out = next(&mut graph);
            apply_payload(self.payloads, &mut out, payload, self.opts, &mut self.lists)?;
            self.visit(child, out)?;
        }
        Ok(())
    }
}

/// A greedy Steiner tree under construction, over skeleton indices.
#[derive(Default)]
struct SteinerTree {
    /// Tree edges (skeleton edge indices) out of each node.
    children: FxHashMap<NodeIdx, Vec<usize>>,
    nodes: FxHashSet<NodeIdx>,
    has_incoming: FxHashSet<NodeIdx>,
    /// Leaf -> [(distinct time, how to finish at it)].
    anchored: FxHashMap<NodeIdx, Vec<(usize, Finish)>>,
}

impl SteinerTree {
    /// The cheapest path to every skeleton node from the tree built so far
    /// (the super-root and materialized nodes count as already in it).
    fn best(&self, dg: &DeltaGraph, opts: &AttrOptions) -> Vec<Option<(usize, Option<usize>)>> {
        let mut sources = dg.skeleton.plan_sources();
        sources.extend(self.nodes.iter().map(|&n| (n, 0)));
        dg.skeleton.dijkstra(&sources, opts)
    }

    /// Joins `leaf` to the tree along its cheapest path.
    fn join(&mut self, dg: &DeltaGraph, leaf: NodeIdx, opts: &AttrOptions) -> DgResult<()> {
        let best = self.best(dg, opts);
        self.add_path(dg, &dg.skeleton.path_to(&best, leaf)?);
        Ok(())
    }

    /// Anchors distinct time `answer` at tree node `node`, finished per
    /// `finish`.
    fn anchor(&mut self, node: NodeIdx, answer: usize, finish: Finish) {
        self.nodes.insert(node);
        self.anchored
            .entry(node)
            .or_default()
            .push((answer, finish));
    }

    fn add_path(&mut self, dg: &DeltaGraph, path: &[usize]) {
        for &edge_idx in path {
            let edge = dg.skeleton.edge(edge_idx);
            // Each node gains at most one incoming tree edge: paths stop as
            // soon as they reach a node already in the tree.
            if self.has_incoming.contains(&edge.to) {
                continue;
            }
            self.children.entry(edge.from).or_default().push(edge_idx);
            self.has_incoming.insert(edge.to);
            self.nodes.insert(edge.from);
            self.nodes.insert(edge.to);
        }
    }

    /// The tree as an owned plan. Its roots — nodes with no incoming tree
    /// edge — are necessarily plan sources.
    fn into_retrieval(
        mut self,
        dg: &DeltaGraph,
        opts: &AttrOptions,
        answers: usize,
        slots: Vec<usize>,
    ) -> DgResult<MultiRetrieval> {
        let mut roots: Vec<NodeIdx> = self
            .nodes
            .iter()
            .copied()
            .filter(|n| !self.has_incoming.contains(n))
            .collect();
        roots.sort_unstable();
        let mut nodes = Vec::new();
        let mut owned_roots = Vec::with_capacity(roots.len());
        for root in roots {
            let source = dg.source_graph(root, opts).ok_or_else(|| {
                DgError::NoPlan(format!(
                    "plan root {root} is neither the super-root nor materialized"
                ))
            })?;
            owned_roots.push((source, self.own(dg, root, &mut nodes)));
        }
        Ok(MultiRetrieval {
            payloads: dg.payloads.clone(),
            opts: opts.clone(),
            nodes,
            roots: owned_roots,
            answers,
            slots,
        })
    }

    /// Moves the subtree under `node` into `nodes`; returns its index.
    fn own(&mut self, dg: &DeltaGraph, node: NodeIdx, nodes: &mut Vec<TreeNode>) -> usize {
        let idx = nodes.len();
        nodes.push(TreeNode {
            finishes: self.anchored.remove(&node).unwrap_or_default(),
            children: Vec::new(),
        });
        for edge_idx in self.children.remove(&node).unwrap_or_default() {
            let edge = dg.skeleton.edge(edge_idx);
            let child = self.own(dg, edge.to, nodes);
            nodes[idx].children.push((edge.payload, child));
        }
        idx
    }
}

// ----------------------------------------------------------------------
// Interval execution
// ----------------------------------------------------------------------

/// A planned interval retrieval (see [`DeltaGraph::plan_interval`]): the
/// leaf-eventlists in range and a copy of the recent events in range.
pub struct IntervalRetrieval {
    payloads: PayloadStore,
    opts: AttrOptions,
    start: Timestamp,
    end: Timestamp,
    eventlists: Vec<u64>,
    recent: Vec<Event>,
}

impl IntervalRetrieval {
    /// Fetches the planned eventlists and folds every event in `[start,
    /// end)` into the graph of the elements it adds, collecting the
    /// transients.
    pub fn execute(self) -> DgResult<(Snapshot, Vec<Event>)> {
        let IntervalRetrieval {
            payloads,
            opts,
            start,
            end,
            eventlists,
            recent,
        } = self;
        let mut graph = Snapshot::new();
        let mut transients = Vec::new();
        let mut consume = |events: &[Event]| -> DgResult<()> {
            for ev in events {
                if ev.time < start || ev.time >= end {
                    continue;
                }
                match &ev.kind {
                    EventKind::AddNode { node } => graph.ensure_node(*node),
                    EventKind::AddEdge {
                        edge,
                        src,
                        dst,
                        directed,
                    } => {
                        if !graph.has_edge(*edge) {
                            graph.add_edge(*edge, *src, *dst, *directed)?;
                        }
                    }
                    EventKind::SetNodeAttr { node, key, new, .. } => {
                        if opts.wants_node_attr(key) && graph.has_node(*node) {
                            graph.set_node_attr(*node, key, new.clone())?;
                        }
                    }
                    EventKind::SetEdgeAttr { edge, key, new, .. } => {
                        if opts.wants_edge_attr(key) && graph.has_edge(*edge) {
                            graph.set_edge_attr(*edge, key, new.clone())?;
                        }
                    }
                    EventKind::TransientEdge { .. } | EventKind::TransientNode { .. } => {
                        transients.push(ev.clone());
                    }
                    EventKind::DeleteNode { .. } | EventKind::DeleteEdge { .. } => {}
                }
            }
            Ok(())
        };
        for eventlist_id in eventlists {
            let events = payloads.read_eventlist(eventlist_id, &AttrOptions::all(), true)?;
            consume(events.events())?;
        }
        consume(&recent)?;
        Ok((graph, transients))
    }
}

/// Applies one skeleton edge's payload to `graph`: a delta, or a whole
/// leaf-eventlist forward or backward.
fn apply_payload<G: GraphForm>(
    payloads: &PayloadStore,
    graph: &mut G,
    payload: EdgePayload,
    opts: &AttrOptions,
    lists: &mut EventLists,
) -> DgResult<()> {
    match payload {
        EdgePayload::Delta { delta_id } => payloads.apply_delta(delta_id, opts, graph),
        EdgePayload::EventsForward { eventlist_id } => {
            let columns = fetch_eventlist(payloads, lists, eventlist_id, opts)?;
            graph.apply_span(&decode_events(columns, EventSpan::All)?, true, opts)
        }
        EdgePayload::EventsBackward { eventlist_id } => {
            let columns = fetch_eventlist(payloads, lists, eventlist_id, opts)?;
            graph.apply_span(&decode_events(columns, EventSpan::All)?, false, opts)
        }
    }
}

/// Carries the graph of a plan's target leaf to the query time. The leaf
/// eventlist is decoded only as far as the finish reads it.
fn apply_finish<G: GraphForm>(
    payloads: &PayloadStore,
    graph: &mut G,
    finish: &Finish,
    opts: &AttrOptions,
    lists: &mut EventLists,
) -> DgResult<()> {
    match finish {
        Finish::Done => Ok(()),
        Finish::Forward { eventlist_id, t } => {
            let columns = fetch_eventlist(payloads, lists, *eventlist_id, opts)?;
            graph.apply_span(&decode_events(columns, EventSpan::Until(*t))?, true, opts)
        }
        Finish::Backward { eventlist_id, t } => {
            let columns = fetch_eventlist(payloads, lists, *eventlist_id, opts)?;
            graph.apply_span(&decode_events(columns, EventSpan::After(*t))?, false, opts)
        }
        Finish::Recent(events) => graph.apply_span(events, true, opts),
    }
}

/// The columns of the leaf-eventlist stored under `eventlist_id`, fetched
/// on first use and borrowed from `lists` after that.
fn fetch_eventlist<'a>(
    payloads: &PayloadStore,
    lists: &'a mut EventLists,
    eventlist_id: u64,
    opts: &AttrOptions,
) -> DgResult<&'a [Vec<u8>]> {
    Ok(match lists.entry(eventlist_id) {
        Entry::Occupied(hit) => hit.into_mut(),
        Entry::Vacant(slot) => {
            slot.insert(payloads.eventlist_columns(eventlist_id, opts, false)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeltaGraphConfig;
    use crate::diff_fn::DifferentialFunction;
    use datagen::{churn_trace, dblp_like, toy_trace, ChurnConfig, DblpConfig};
    use kvstore::MemStore;
    use std::sync::Arc;
    use tgraph::{ColumnGraph, EventList};

    fn build(
        events: &EventList,
        leaf_size: usize,
        arity: usize,
        f: DifferentialFunction,
    ) -> DeltaGraph {
        DeltaGraph::build(
            events,
            DeltaGraphConfig::new(leaf_size, arity).with_diff_fn(f),
            Arc::new(MemStore::new()),
        )
        .unwrap()
    }

    fn check_oracle(ds: &datagen::Dataset, dg: &DeltaGraph, times: &[Timestamp]) {
        for &t in times {
            let got = dg.get_snapshot(t, &AttrOptions::all()).unwrap();
            let expected = ds.snapshot_at(t);
            assert_eq!(got, expected, "mismatch at t={t}");
        }
    }

    fn query_times(ds: &datagen::Dataset, n: usize) -> Vec<Timestamp> {
        datagen::uniform_timepoints(ds.start_time(), ds.end_time(), n)
    }

    #[test]
    fn toy_trace_every_time_point_matches_oracle() {
        let ds = toy_trace();
        for leaf_size in [2, 3, 5, 20] {
            let dg = build(&ds.events, leaf_size, 2, DifferentialFunction::Intersection);
            let times: Vec<Timestamp> = (0..=11).map(Timestamp).collect();
            check_oracle(&ds, &dg, &times);
        }
    }

    #[test]
    fn growing_trace_matches_oracle_for_every_differential_function() {
        let ds = dblp_like(&DblpConfig::tiny(31));
        let times = query_times(&ds, 9);
        for f in [
            DifferentialFunction::Intersection,
            DifferentialFunction::Union,
            DifferentialFunction::Balanced,
            DifferentialFunction::Mixed { r1: 0.9, r2: 0.1 },
            DifferentialFunction::Skewed { r: 0.3 },
            DifferentialFunction::Empty,
        ] {
            let dg = build(&ds.events, 70, 2, f);
            check_oracle(&ds, &dg, &times);
        }
    }

    #[test]
    fn churn_trace_matches_oracle_across_arities() {
        let ds = churn_trace(&ChurnConfig::tiny(33));
        let times = query_times(&ds, 7);
        for arity in [2, 3, 4] {
            let dg = build(&ds.events, 90, arity, DifferentialFunction::Intersection);
            check_oracle(&ds, &dg, &times);
        }
    }

    #[test]
    fn partitioned_retrieval_matches_oracle() {
        let ds = churn_trace(&ChurnConfig::tiny(35));
        let times = query_times(&ds, 5);
        let dg = DeltaGraph::build(
            &ds.events,
            DeltaGraphConfig::new(80, 2)
                .with_partitions(4)
                .with_retrieval_threads(3),
            Arc::new(MemStore::new()),
        )
        .unwrap();
        check_oracle(&ds, &dg, &times);
    }

    #[test]
    fn before_history_is_empty_and_after_history_is_current() {
        let ds = dblp_like(&DblpConfig::tiny(37));
        let dg = build(&ds.events, 60, 2, DifferentialFunction::Intersection);
        let before = dg
            .get_snapshot(Timestamp(ds.start_time().raw() - 100), &AttrOptions::all())
            .unwrap();
        assert!(before.is_empty());
        let after = dg
            .get_snapshot(Timestamp(ds.end_time().raw() + 100), &AttrOptions::all())
            .unwrap();
        assert_eq!(&after, dg.current_graph());
    }

    #[test]
    fn structure_only_retrieval_matches_projected_oracle_and_reads_less() {
        let ds = dblp_like(&DblpConfig::tiny(39));
        let dg = build(&ds.events, 60, 2, DifferentialFunction::Intersection);
        let t = query_times(&ds, 3)[1];

        let store = dg.payload_store().backing_store();
        let before_structure = store.stats();
        let structure = dg.get_snapshot(t, &AttrOptions::structure_only()).unwrap();
        let structure_read = store.stats().delta_since(&before_structure).bytes_read;

        let before_full = store.stats();
        let full = dg.get_snapshot(t, &AttrOptions::all()).unwrap();
        let full_read = store.stats().delta_since(&before_full).bytes_read;

        let oracle = ds.snapshot_at(t);
        assert_eq!(full, oracle);
        assert_eq!(
            structure,
            oracle.project_attrs(&AttrOptions::structure_only())
        );
        assert!(
            structure_read < full_read,
            "structure-only read {structure_read} bytes, full read {full_read}"
        );
    }

    #[test]
    fn named_attribute_selection_is_respected() {
        let ds = toy_trace();
        let dg = build(&ds.events, 3, 2, DifferentialFunction::Intersection);
        let opts = AttrOptions::parse("+node:name").unwrap();
        let snap = dg.get_snapshot(Timestamp(7), &opts).unwrap();
        assert_eq!(
            snap.node_attr(tgraph::NodeId(1), "name")
                .and_then(|v| v.as_str()),
            Some("alicia")
        );
        // structure matches the oracle even though other attributes are dropped
        let oracle = ds.snapshot_at(Timestamp(7));
        assert_eq!(snap.node_count(), oracle.node_count());
        assert_eq!(snap.edge_count(), oracle.edge_count());
    }

    #[test]
    fn materialization_never_changes_results_but_cuts_io() {
        let ds = dblp_like(&DblpConfig::tiny(41));
        let mut dg = build(&ds.events, 60, 2, DifferentialFunction::Intersection);
        let times = query_times(&ds, 6);
        let plain: Vec<Snapshot> = times
            .iter()
            .map(|&t| dg.get_snapshot(t, &AttrOptions::all()).unwrap())
            .collect();

        let store = Arc::clone(dg.payload_store().backing_store());
        let before = store.stats();
        dg.materialize_root().unwrap();
        dg.materialize_descendants(1).unwrap();
        let _matz_cost = store.stats().delta_since(&before);

        let before = store.stats();
        for (i, &t) in times.iter().enumerate() {
            let got = dg.get_snapshot(t, &AttrOptions::all()).unwrap();
            assert_eq!(got, plain[i], "materialization changed the result at {t}");
        }
        let with_mat = store.stats().delta_since(&before).bytes_read;

        let mut dg_plain = build(&ds.events, 60, 2, DifferentialFunction::Intersection);
        dg_plain.unmaterialize(0).ok();
        let store_plain = Arc::clone(dg_plain.payload_store().backing_store());
        let before = store_plain.stats();
        for &t in &times {
            dg_plain.get_snapshot(t, &AttrOptions::all()).unwrap();
        }
        let without_mat = store_plain.stats().delta_since(&before).bytes_read;
        assert!(
            with_mat < without_mat,
            "materialized queries read {with_mat} bytes, plain {without_mat}"
        );
    }

    #[test]
    fn total_materialization_short_circuits_every_query() {
        let ds = dblp_like(&DblpConfig::tiny(43));
        let mut dg = build(&ds.events, 60, 2, DifferentialFunction::Intersection);
        dg.materialize_all_leaves().unwrap();
        let store = dg.payload_store().backing_store();
        let before = store.stats();
        let times = query_times(&ds, 5);
        check_oracle(&ds, &dg, &times);
        let fetched = store.stats().delta_since(&before);
        // only leaf-eventlist portions are fetched, never deltas
        assert!(fetched.bytes_read < dg.stats().stored_bytes / 2);
    }

    #[test]
    fn multipoint_results_equal_singlepoint_results() {
        let ds = churn_trace(&ChurnConfig::tiny(45));
        let dg = build(&ds.events, 80, 2, DifferentialFunction::Intersection);
        let times = query_times(&ds, 6);
        let multi = dg.get_snapshots(&times, &AttrOptions::all()).unwrap();
        for (i, &t) in times.iter().enumerate() {
            let single = dg.get_snapshot(t, &AttrOptions::all()).unwrap();
            assert_eq!(multi[i], single, "multipoint mismatch at {t}");
            assert_eq!(multi[i], ds.snapshot_at(t));
        }
    }

    #[test]
    fn multipoint_fetches_less_than_repeated_singlepoint() {
        let ds = dblp_like(&DblpConfig::tiny(47));
        let dg = build(&ds.events, 40, 2, DifferentialFunction::Intersection);
        // closely spaced points share most of their paths
        let end = ds.end_time();
        let times: Vec<Timestamp> = (0..5).map(|i| Timestamp(end.raw() - 20 - i)).collect();
        let store = dg.payload_store().backing_store();

        let before = store.stats();
        for &t in &times {
            dg.get_snapshot(t, &AttrOptions::all()).unwrap();
        }
        let single_bytes = store.stats().delta_since(&before).bytes_read;

        let before = store.stats();
        dg.get_snapshots(&times, &AttrOptions::all()).unwrap();
        let multi_bytes = store.stats().delta_since(&before).bytes_read;
        assert!(
            multi_bytes < single_bytes,
            "multipoint read {multi_bytes}, singlepoints read {single_bytes}"
        );
    }

    #[test]
    fn multipoint_handles_out_of_range_points() {
        let ds = toy_trace();
        let dg = build(&ds.events, 3, 2, DifferentialFunction::Intersection);
        let times = vec![Timestamp(-5), Timestamp(6), Timestamp(100)];
        let snaps = dg.get_snapshots(&times, &AttrOptions::all()).unwrap();
        assert!(snaps[0].is_empty());
        assert_eq!(snaps[1], ds.snapshot_at(Timestamp(6)));
        assert_eq!(&snaps[2], dg.current_graph());
    }

    #[test]
    fn interval_retrieval_returns_added_elements_and_transients() {
        let ds = toy_trace();
        let dg = build(&ds.events, 3, 2, DifferentialFunction::Intersection);
        let (graph, transients) = dg
            .get_snapshot_interval(Timestamp(5), Timestamp(10), &AttrOptions::all())
            .unwrap();
        // node 3 (t=5), edge 101 (t=6) were added in [5, 10); edge 100 was added earlier
        assert!(graph.has_node(tgraph::NodeId(3)));
        assert!(graph.has_edge(tgraph::EdgeId(101)));
        assert!(!graph.has_edge(tgraph::EdgeId(100)));
        assert_eq!(transients.len(), 1);
        assert_eq!(transients[0].time, Timestamp(9));
        assert!(dg
            .get_snapshot_interval(Timestamp(5), Timestamp(5), &AttrOptions::all())
            .is_err());
    }

    #[test]
    fn time_expression_diff_finds_removed_edge() {
        let ds = toy_trace();
        let dg = build(&ds.events, 4, 2, DifferentialFunction::Intersection);
        // edge 100 exists at t=6 but not at t=9
        let tex = TimeExpression::diff(6i64, 9i64);
        let diff = dg.get_time_expression(&tex, &AttrOptions::all()).unwrap();
        assert!(diff.has_edge(tgraph::EdgeId(100)));
        assert!(!diff.has_edge(tgraph::EdgeId(101)));
    }

    #[test]
    fn plan_is_exposed_and_anchors_sensibly() {
        let ds = dblp_like(&DblpConfig::tiny(49));
        let dg = build(&ds.events, 60, 2, DifferentialFunction::Intersection);
        let (start, end) = (ds.start_time(), ds.end_time());
        let t = Timestamp((start.raw() + end.raw()) / 2);
        let plan = dg.plan_snapshot(t, &AttrOptions::all()).unwrap().unwrap();
        assert!(!plan.path.is_empty());
        assert!(plan.estimated_cost > 0);
        assert!(matches!(
            plan.anchor,
            Anchor::Forward { .. } | Anchor::Backward { .. }
        ));
        // out-of-range plans are None
        assert!(dg
            .plan_snapshot(Timestamp(end.raw() + 10), &AttrOptions::all())
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_planned_multipoint_retrieval_survives_appends_that_fold_a_leaf() {
        let mut ds = toy_trace();
        let mut dg = build(&ds.events, 4, 2, DifferentialFunction::Intersection);
        for ev in [Event::add_node(20, 500), Event::add_edge(21, 900, 500, 1)] {
            ds.events.push(ev.clone()).unwrap();
            dg.append_event(ev).unwrap();
        }
        let opts = AttrOptions::all();
        // Before history, inside indexed intervals (one repeated), and after
        // the last leaf, where the plan carries the recent prefix.
        assert!(dg.plan_snapshot(Timestamp(6), &opts).unwrap().is_some());
        assert!(dg.plan_snapshot(Timestamp(20), &opts).unwrap().is_none());
        let times: Vec<Timestamp> = [-1, 6, 9, 6, 20, 21].map(Timestamp).to_vec();
        let planned = dg.plan_retrievals(&times, &opts).unwrap();
        let points = [6, 20].map(|t| (t, dg.plan_retrievals(&[Timestamp(t)], &opts).unwrap()));
        let interval = dg
            .plan_interval(Timestamp(5), Timestamp(22), &opts)
            .unwrap();
        let interval_then = dg
            .get_snapshot_interval(Timestamp(5), Timestamp(22), &opts)
            .unwrap();
        let leaves = dg.skeleton().leaves().len();
        for i in 0..4 {
            dg.append_event(Event::add_node(30 + i, 600 + i as u64))
                .unwrap();
        }
        assert!(dg.skeleton().leaves().len() > leaves, "no leaf was folded");
        let graphs = planned.execute::<ColumnGraph>().unwrap();
        assert_eq!(graphs.len(), times.len());
        for (graph, &t) in graphs.iter().zip(&times) {
            assert_eq!(
                graph.as_ref(),
                &ColumnGraph::from_snapshot(&ds.snapshot_at(t)),
                "t={t}"
            );
        }
        assert!(
            Arc::ptr_eq(&graphs[1], &graphs[3]),
            "a repeated time is built once"
        );
        for (t, point) in points {
            let graphs = point.execute::<Snapshot>().unwrap();
            assert_eq!(*graphs[0], ds.snapshot_at(Timestamp(t)), "t={t}");
        }
        assert_eq!(interval.execute().unwrap(), interval_then);
    }

    #[test]
    fn a_point_reads_what_a_one_time_multipoint_reads() {
        // A point planned alone and the same time planned as a multipoint
        // of one give the replay and fetch the same payloads: the same
        // number of store reads, the same bytes.
        let traces = [
            (toy_trace(), [3, 5]),
            (dblp_like(&DblpConfig::tiny(51)), [40, 90]),
            (churn_trace(&ChurnConfig::tiny(53)), [60, 150]),
        ];
        for (ds, leaf_sizes) in &traces {
            for leaf_size in leaf_sizes {
                for materialized in [false, true] {
                    let mut dg = build(
                        &ds.events,
                        *leaf_size,
                        2,
                        DifferentialFunction::Intersection,
                    );
                    if materialized {
                        dg.materialize_root().unwrap();
                        dg.materialize_descendants(1).unwrap();
                    }
                    let skeleton = dg.skeleton();
                    let mut times = vec![skeleton.history_start().unwrap().raw() - 1];
                    for interval in skeleton.intervals() {
                        times.extend(interval.start.raw()..=interval.end.raw());
                    }
                    times.push(skeleton.history_end().unwrap().raw() + 1);
                    let store = dg.payload_store().backing_store();
                    for opts in crate::storage::tests::selections() {
                        for &t in &times {
                            let t = Timestamp(t);
                            let case = format!(
                                "leaf size {leaf_size}, materialized {materialized}, {opts:?}, t={t}"
                            );
                            let before = store.stats();
                            let point = dg.get_snapshot(t, &opts).unwrap();
                            let point_read = store.stats().delta_since(&before);
                            let before = store.stats();
                            let multi = dg.get_snapshots(&[t], &opts).unwrap();
                            let multi_read = store.stats().delta_since(&before);
                            assert_eq!(point, ds.snapshot_at(t).project_attrs(&opts), "{case}");
                            assert_eq!(multi, [point], "{case}");
                            assert_eq!(point_read.gets, multi_read.gets, "{case}");
                            assert_eq!(point_read.bytes_read, multi_read.bytes_read, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// Each distinct time's path from its plan root, as payloads, and its
    /// finish, in the order the times were planned.
    fn planned_paths(plan: &MultiRetrieval) -> Vec<(Vec<EdgePayload>, &Finish)> {
        fn walk<'a>(
            nodes: &'a [TreeNode],
            node: usize,
            path: &mut Vec<EdgePayload>,
            out: &mut [Option<(Vec<EdgePayload>, &'a Finish)>],
        ) {
            for (answer, finish) in &nodes[node].finishes {
                out[*answer] = Some((path.clone(), finish));
            }
            for &(payload, child) in &nodes[node].children {
                path.push(payload);
                walk(nodes, child, path, out);
                path.pop();
            }
        }
        let mut out = vec![None; plan.answers];
        for &(_, root) in &plan.roots {
            walk(&plan.nodes, root, &mut Vec::new(), &mut out);
        }
        out.into_iter()
            .map(|p| p.expect("every time planned"))
            .collect()
    }

    #[test]
    fn a_time_lands_on_one_leaf_alone_and_first_in_a_multipoint() {
        // At t = 1994 of this trace (interval 8, +node:all) the two sides
        // tie once each eventlist share is truncated to whole bytes, and
        // the untruncated shares favour the right leaf: the point and the
        // multipoint planner once took different leaves here.
        let ds = dblp_like(&DblpConfig::tiny(0));
        let dg = build(&ds.events, 40, 2, DifferentialFunction::Intersection);
        let store = dg.payload_store().backing_store();
        for opts in crate::storage::tests::selections() {
            for interval in dg.skeleton().intervals() {
                for t in interval.start.raw()..interval.end.raw() {
                    let t = Timestamp(t);
                    let plan = dg.plan_snapshot(t, &opts).unwrap().unwrap();
                    let path: Vec<EdgePayload> = plan
                        .path
                        .iter()
                        .map(|&e| dg.skeleton.edge(e).payload)
                        .collect();
                    let reported = (path, &dg.finish_of(plan.anchor, t));
                    let alone = dg.plan_retrievals(&[t], &opts).unwrap();
                    assert_eq!(planned_paths(&alone)[0], reported, "{opts:?} t={t}");
                    // HISTORY and GET GRAPHS AT plan the earliest time first,
                    // into an empty tree.
                    let later = [t, Timestamp(t.raw() + 3), Timestamp(t.raw() + 9)];
                    let multi = dg.plan_retrievals(&later, &opts).unwrap();
                    assert_eq!(planned_paths(&multi)[0], reported, "{opts:?} t={t}");
                }
            }
        }
        let (t, opts) = (Timestamp(1994), AttrOptions::parse("+node:all").unwrap());
        let plan = dg.plan_snapshot(t, &opts).unwrap().unwrap();
        assert_eq!(plan.anchor, Anchor::Forward { interval: 8 });
        let before = store.stats();
        let graphs = dg
            .plan_retrievals(&[t], &opts)
            .unwrap()
            .execute::<Snapshot>()
            .unwrap();
        let read = store.stats().delta_since(&before);
        assert_eq!(Arc::strong_count(&graphs[0]), 1, "a point is never copied");
        let before = store.stats();
        assert_eq!(dg.get_snapshot(t, &opts).unwrap(), *graphs[0]);
        assert_eq!(store.stats().delta_since(&before), read);
    }

    #[test]
    fn updates_are_visible_to_queries_before_and_after_integration() {
        let ds = toy_trace();
        let mut dg = build(&ds.events, 4, 2, DifferentialFunction::Intersection);
        dg.append_event(Event::add_node(20, 555)).unwrap();
        dg.append_event(Event::add_edge(21, 900, 555, 1)).unwrap();
        // recent events are not yet integrated (leaf size 4) but must be visible
        let snap = dg.get_snapshot(Timestamp(21), &AttrOptions::all()).unwrap();
        assert!(snap.has_node(tgraph::NodeId(555)));
        assert!(snap.has_edge(tgraph::EdgeId(900)));
        // a query strictly before the appended events does not see them
        let old = dg.get_snapshot(Timestamp(10), &AttrOptions::all()).unwrap();
        assert!(!old.has_node(tgraph::NodeId(555)));
        // force integration and re-check
        let more: Vec<Event> = (0..4)
            .map(|i| Event::add_node(22 + i, 600 + i as u64))
            .collect();
        dg.append_events(more).unwrap();
        let snap = dg.get_snapshot(Timestamp(26), &AttrOptions::all()).unwrap();
        assert!(snap.has_node(tgraph::NodeId(603)));
        assert!(snap.has_edge(tgraph::EdgeId(900)));
    }
}
