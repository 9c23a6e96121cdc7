//! Snapshot retrieval: query planning and execution.
//!
//! * **Singlepoint queries** (Section 4.3): locate the leaf-eventlist
//!   containing the query time, add a virtual node for it, and run Dijkstra
//!   over the skeleton from the super-root and every materialized node; the
//!   cheapest path is then executed by fetching and applying the deltas on it
//!   and finally the needed portion of the leaf-eventlist.
//! * **Multipoint queries** (Section 4.4): a Steiner-tree problem. We use the
//!   standard greedy/2-approximation strategy — terminals are inserted one at
//!   a time, each via its cheapest path to the *partially built tree* — and
//!   then execute the resulting tree once, top-down, so that shared deltas
//!   are fetched and applied exactly once.
//! * **Interval and TimeExpression queries** (Section 3.2.1) are built on top
//!   of the same machinery.
//!
//! A singlepoint query is split in two: [`DeltaGraph::plan_retrieval`] reads
//! the skeleton and returns an owned [`Retrieval`], and
//! [`Retrieval::execute`] does the fetch → decode → apply without touching
//! the index again. A caller that guards the index with a lock holds it
//! only for the plan.

use std::collections::hash_map::Entry;

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

/// A planned singlepoint retrieval that owns everything its execution
/// needs: the start graph, the payload ids along the path, how to finish
/// at the query time, and a handle on the payload store.
///
/// It borrows nothing from the [`DeltaGraph`] that planned it, so it can
/// run after the caller has let go of the index. That is sound because
/// payload ids are write-once (see [`PayloadStore`]): later appends fold new
/// leaves under new ids and never touch the payloads a plan names.
pub struct Retrieval {
    payloads: PayloadStore,
    opts: AttrOptions,
    source: Snapshot,
    path: Vec<EdgePayload>,
    finish: Finish,
}

/// How a retrieval turns the graph its path builds into the answer.
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

impl Retrieval {
    /// Fetches, decodes and applies the planned payloads: the graph the
    /// plan describes, built in the form the caller asks for (see
    /// [`GraphForm`]) — a [`Snapshot`], or a [`tgraph::ColumnGraph`], where
    /// each delta is one linear merge of its sorted runs into the columns
    /// and the leaf-eventlist finish is one more.
    pub fn execute<G: GraphForm>(self) -> DgResult<G> {
        let Retrieval {
            payloads,
            opts,
            source,
            path,
            finish,
        } = self;
        let mut graph = G::from_source(source);
        let mut lists = EventLists::default();
        for payload in path {
            apply_payload(&payloads, &mut graph, payload, &opts, &mut lists)?;
        }
        apply_finish(&payloads, &mut graph, &finish, &opts, &mut lists)?;
        Ok(graph)
    }
}

impl DeltaGraph {
    // ------------------------------------------------------------------
    // Public retrieval API
    // ------------------------------------------------------------------

    /// Retrieves the graph snapshot as of time `t`.
    ///
    /// Time points before the recorded history yield the empty graph; time
    /// points after the last indexed leaf are served from the last leaf plus
    /// the recent (not yet indexed) eventlist.
    pub fn get_snapshot(&self, t: Timestamp, opts: &AttrOptions) -> DgResult<Snapshot> {
        self.plan_retrieval(t, opts)?.execute()
    }

    /// Plans the retrieval of the snapshot as of `t` (see
    /// [`DeltaGraph::get_snapshot`]) without fetching anything. The result
    /// is independent of `self`: executing it after further appends still
    /// yields the snapshot as of `t` that the index described at plan time.
    pub fn plan_retrieval(&self, t: Timestamp, opts: &AttrOptions) -> DgResult<Retrieval> {
        match self.skeleton.locate(t)? {
            // The super-root's graph is the empty graph.
            Location::BeforeHistory => {
                self.retrieval_along(self.skeleton.super_root(), &[], opts, Finish::Done)
            }
            Location::AfterLastLeaf => self.plan_node(
                self.skeleton.last_leaf()?,
                opts,
                Finish::Recent(self.recent.prefix_at(t).to_vec()),
            ),
            Location::Interval(interval) => {
                let plan = self.plan_point(interval, t, opts)?;
                self.retrieval_along(
                    plan.target_leaf,
                    &plan.path,
                    opts,
                    self.finish_of(plan.anchor, t),
                )
            }
        }
    }

    /// Retrieves several snapshots at once (multipoint query), sharing the
    /// fetching and application of deltas common to the individual plans.
    /// Results are returned in the order of the requested time points.
    pub fn get_snapshots(
        &self,
        times: &[Timestamp],
        opts: &AttrOptions,
    ) -> DgResult<Vec<Snapshot>> {
        self.get_graphs(times, opts)
    }

    /// [`DeltaGraph::get_snapshots`], each graph built as the caller asks:
    /// as sorted columns for a caller that reads a few elements of each and
    /// needs no [`Snapshot`].
    pub fn get_graphs<G: GraphForm>(
        &self,
        times: &[Timestamp],
        opts: &AttrOptions,
    ) -> DgResult<Vec<G>> {
        let mut results: Vec<Option<G>> = vec![None; times.len()];
        // (query index, interval, time), for the terminals the Steiner tree covers
        let mut terminals: Vec<(usize, usize, Timestamp)> = Vec::new();
        for (qi, &t) in times.iter().enumerate() {
            match self.skeleton.locate(t)? {
                Location::BeforeHistory => results[qi] = Some(G::default()),
                Location::AfterLastLeaf => {
                    results[qi] = Some(self.plan_retrieval(t, opts)?.execute()?)
                }
                Location::Interval(interval) => terminals.push((qi, interval, t)),
            }
        }
        if !terminals.is_empty() {
            self.execute_multipoint(&mut results, terminals, opts)?;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every query point answered"))
            .collect())
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
        if end <= start {
            return Err(DgError::InvalidParameter(format!(
                "interval end {end} must be after start {start}"
            )));
        }
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

        for interval in self.skeleton.intervals() {
            // events in an interval have times in (interval.start, interval.end]
            if interval.end < start || interval.start >= end {
                continue;
            }
            let events =
                self.payloads
                    .read_eventlist(interval.eventlist_id, &AttrOptions::all(), true)?;
            consume(events.events())?;
        }
        consume(self.recent.events())?;
        Ok((graph, transients))
    }

    /// Retrieves the hypothetical graph whose elements satisfy a Boolean
    /// [`TimeExpression`] over several time points (Section 3.2.1).
    pub fn get_time_expression(
        &self,
        expr: &TimeExpression,
        opts: &AttrOptions,
    ) -> DgResult<Snapshot> {
        let snapshots = self.get_snapshots(&expr.times, opts)?;
        expr.evaluate(&snapshots).map_err(Into::into)
    }

    /// Retrieves the graph associated with a skeleton node (used by
    /// materialization and by auxiliary indexes). Interior-node graphs are
    /// generally not valid snapshots of any time point.
    pub fn node_graph(&self, node: NodeIdx, opts: &AttrOptions) -> DgResult<Snapshot> {
        self.plan_node(node, opts, Finish::Done)?.execute()
    }

    /// Plans (but does not execute) a singlepoint retrieval; exposed for plan
    /// inspection in tests and benchmarks.
    pub fn plan_snapshot(&self, t: Timestamp, opts: &AttrOptions) -> DgResult<Option<PointPlan>> {
        match self.skeleton.locate(t)? {
            Location::Interval(interval) => Ok(Some(self.plan_point(interval, t, opts)?)),
            _ => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Singlepoint planning and execution
    // ------------------------------------------------------------------

    fn plan_point(
        &self,
        interval_idx: usize,
        t: Timestamp,
        opts: &AttrOptions,
    ) -> DgResult<PointPlan> {
        let best = self.skeleton.dijkstra(&self.skeleton.plan_sources(), opts);
        let interval = &self.skeleton.intervals()[interval_idx];

        let span = (interval.end.raw() - interval.start.raw()).max(1) as f64;
        let frac = ((t.raw() - interval.start.raw()) as f64 / span).clamp(0.0, 1.0);
        let list_weight = interval.weights.for_options(opts) as f64;
        let forward_extra = (list_weight * frac) as usize;
        let backward_extra = (list_weight * (1.0 - frac)) as usize;

        let left = best[interval.left_leaf].map(|(c, _)| c);
        let right = best[interval.right_leaf].map(|(c, _)| c);
        let (target_leaf, anchor, total) = match (left, right) {
            (Some(l), Some(r)) => {
                if l + forward_extra <= r + backward_extra {
                    (
                        interval.left_leaf,
                        Anchor::Forward {
                            interval: interval_idx,
                        },
                        l + forward_extra,
                    )
                } else {
                    (
                        interval.right_leaf,
                        Anchor::Backward {
                            interval: interval_idx,
                        },
                        r + backward_extra,
                    )
                }
            }
            (Some(l), None) => (
                interval.left_leaf,
                Anchor::Forward {
                    interval: interval_idx,
                },
                l + forward_extra,
            ),
            (None, Some(r)) => (
                interval.right_leaf,
                Anchor::Backward {
                    interval: interval_idx,
                },
                r + backward_extra,
            ),
            (None, None) => {
                return Err(DgError::NoPlan(format!(
                    "neither leaf of interval {interval_idx} is reachable"
                )))
            }
        };
        let path = self.skeleton.path_to(&best, target_leaf)?;
        Ok(PointPlan {
            time: t,
            target_leaf,
            path,
            anchor,
            estimated_cost: total,
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

    /// Plans the graph of skeleton node `node` along its cheapest path from
    /// a plan source (empty when `node` is one), finished by `finish`.
    fn plan_node(&self, node: NodeIdx, opts: &AttrOptions, finish: Finish) -> DgResult<Retrieval> {
        let best = self.skeleton.dijkstra(&self.skeleton.plan_sources(), opts);
        let path = self.skeleton.path_to(&best, node)?;
        self.retrieval_along(node, &path, opts, finish)
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

    /// The retrieval that builds `target` by applying the payloads of
    /// `path` (skeleton edge indices) to the graph of the plan source the
    /// path starts from, then finishes per `finish`.
    fn retrieval_along(
        &self,
        target: NodeIdx,
        path: &[usize],
        opts: &AttrOptions,
        finish: Finish,
    ) -> DgResult<Retrieval> {
        let start_node = match path.first() {
            Some(&edge_idx) => self.skeleton.edge(edge_idx).from,
            None => target,
        };
        let source = self.source_graph(start_node, opts).ok_or_else(|| {
            DgError::NoPlan(format!(
                "plan starts at node {start_node}, which is neither the super-root nor materialized"
            ))
        })?;
        Ok(Retrieval {
            payloads: self.payloads.clone(),
            opts: opts.clone(),
            source,
            path: path
                .iter()
                .map(|&e| self.skeleton.edge(e).payload)
                .collect(),
            finish,
        })
    }

    // ------------------------------------------------------------------
    // Multipoint (Steiner-tree) planning and execution
    // ------------------------------------------------------------------

    fn execute_multipoint<G: GraphForm>(
        &self,
        results: &mut [Option<G>],
        mut terminals: Vec<(usize, usize, Timestamp)>,
        opts: &AttrOptions,
    ) -> DgResult<()> {
        terminals.sort_by_key(|&(_, _, t)| t);

        // Greedy Steiner tree: insert each terminal via its cheapest path to
        // the tree built so far (the super-root and materialized nodes count
        // as already in the tree).
        let mut tree_children: FxHashMap<NodeIdx, Vec<usize>> = FxHashMap::default();
        let mut tree_nodes: FxHashSet<NodeIdx> = FxHashSet::default();
        let mut has_incoming: FxHashSet<NodeIdx> = FxHashSet::default();
        // leaf -> [(query index, how to finish at its time)]
        let mut anchored: FxHashMap<NodeIdx, Vec<(usize, Finish)>> = FxHashMap::default();

        for (qi, interval_idx, t) in terminals {
            let mut sources = self.skeleton.plan_sources();
            for &n in &tree_nodes {
                sources.push((n, 0));
            }
            let best = self.skeleton.dijkstra(&sources, opts);
            let interval = &self.skeleton.intervals()[interval_idx];

            let span = (interval.end.raw() - interval.start.raw()).max(1) as f64;
            let frac = ((t.raw() - interval.start.raw()) as f64 / span).clamp(0.0, 1.0);
            let list_weight = interval.weights.for_options(opts) as f64;
            let left = best[interval.left_leaf].map(|(c, _)| c);
            let right = best[interval.right_leaf].map(|(c, _)| c);
            let (leaf, anchor) = match (left, right) {
                (Some(l), Some(r)) => {
                    if (l as f64 + list_weight * frac) <= (r as f64 + list_weight * (1.0 - frac)) {
                        (
                            interval.left_leaf,
                            Anchor::Forward {
                                interval: interval_idx,
                            },
                        )
                    } else {
                        (
                            interval.right_leaf,
                            Anchor::Backward {
                                interval: interval_idx,
                            },
                        )
                    }
                }
                (Some(_), None) => (
                    interval.left_leaf,
                    Anchor::Forward {
                        interval: interval_idx,
                    },
                ),
                (None, Some(_)) => (
                    interval.right_leaf,
                    Anchor::Backward {
                        interval: interval_idx,
                    },
                ),
                (None, None) => {
                    return Err(DgError::NoPlan(format!(
                        "neither leaf of interval {interval_idx} is reachable"
                    )))
                }
            };
            let path = self.skeleton.path_to(&best, leaf)?;
            for &edge_idx in &path {
                let edge = self.skeleton.edge(edge_idx);
                // Each node gains at most one incoming tree edge: paths stop
                // as soon as they reach a node already in the tree.
                if has_incoming.contains(&edge.to) {
                    continue;
                }
                tree_children.entry(edge.from).or_default().push(edge_idx);
                has_incoming.insert(edge.to);
                tree_nodes.insert(edge.from);
                tree_nodes.insert(edge.to);
            }
            tree_nodes.insert(leaf);
            anchored
                .entry(leaf)
                .or_default()
                .push((qi, self.finish_of(anchor, t)));
        }

        // Roots of the tree: nodes involved in the tree with no incoming tree
        // edge. These are necessarily plan sources.
        let mut roots: Vec<NodeIdx> = tree_nodes
            .iter()
            .copied()
            .filter(|n| !has_incoming.contains(n))
            .collect();
        roots.sort_unstable();

        let mut lists = EventLists::default();
        for root in roots {
            let graph = self.source_graph(root, opts).ok_or_else(|| {
                DgError::NoPlan(format!(
                    "multipoint tree root {root} is neither the super-root nor materialized"
                ))
            })?;
            self.walk_tree(
                root,
                G::from_source(graph),
                &tree_children,
                &anchored,
                opts,
                &mut lists,
                results,
            )?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_tree<G: GraphForm>(
        &self,
        node: NodeIdx,
        graph: G,
        tree_children: &FxHashMap<NodeIdx, Vec<usize>>,
        anchored: &FxHashMap<NodeIdx, Vec<(usize, Finish)>>,
        opts: &AttrOptions,
        lists: &mut EventLists,
        results: &mut [Option<G>],
    ) -> DgResult<()> {
        if let Some(queries) = anchored.get(&node) {
            for (qi, finish) in queries {
                let mut out = graph.clone();
                apply_finish(&self.payloads, &mut out, finish, opts, lists)?;
                results[*qi] = Some(out);
            }
        }
        let Some(children) = tree_children.get(&node) else {
            return Ok(());
        };
        let mut graph = Some(graph);
        for (i, &edge_idx) in children.iter().enumerate() {
            let edge = self.skeleton.edge(edge_idx);
            // The last child consumes the parent graph; earlier children
            // work on clones.
            let mut child_graph = if i + 1 == children.len() {
                graph.take().expect("parent graph consumed early")
            } else {
                graph.as_ref().expect("parent graph consumed early").clone()
            };
            apply_payload(&self.payloads, &mut child_graph, edge.payload, opts, lists)?;
            self.walk_tree(
                edge.to,
                child_graph,
                tree_children,
                anchored,
                opts,
                lists,
                results,
            )?;
        }
        Ok(())
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
    use tgraph::EventList;

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
    fn a_planned_retrieval_survives_appends_that_fold_a_leaf() {
        let mut ds = toy_trace();
        let mut dg = build(&ds.events, 4, 2, DifferentialFunction::Intersection);
        for ev in [Event::add_node(20, 500), Event::add_edge(21, 900, 500, 1)] {
            ds.events.push(ev.clone()).unwrap();
            dg.append_event(ev).unwrap();
        }
        let opts = AttrOptions::all();
        // t=6 lies in an indexed interval; t=20 after the last leaf, where
        // the plan carries a copy of the recent eventlist's prefix.
        assert!(dg.plan_snapshot(Timestamp(6), &opts).unwrap().is_some());
        assert!(dg.plan_snapshot(Timestamp(20), &opts).unwrap().is_none());
        let inside = dg.plan_retrieval(Timestamp(6), &opts).unwrap();
        let after = dg.plan_retrieval(Timestamp(20), &opts).unwrap();
        let leaves = dg.skeleton().leaves().len();
        for i in 0..4 {
            dg.append_event(Event::add_node(30 + i, 600 + i as u64))
                .unwrap();
        }
        assert!(dg.skeleton().leaves().len() > leaves, "no leaf was folded");
        assert_eq!(
            inside.execute::<Snapshot>().unwrap(),
            ds.snapshot_at(Timestamp(6))
        );
        assert_eq!(
            after.execute::<Snapshot>().unwrap(),
            ds.snapshot_at(Timestamp(20))
        );
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
