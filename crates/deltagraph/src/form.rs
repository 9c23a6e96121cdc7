//! The two forms a retrieval builds its graph in.
//!
//! A point the snapshot cache does not admit is served from sorted columns
//! ([`ColumnGraph`]): each delta is one linear merge of its runs, and a
//! span of events is reduced to net per-id runs merged once. Every caller that needs a [`Snapshot`] gets one built
//! directly instead — deltas applied through its indexes, as
//! [`tgraph::Delta::apply_to`] does, and events replayed one by one — so
//! neither form is converted into the other on a serving path. Both refuse
//! a run out of order or repeated, an event that does not apply, and a
//! node removed while its edges or attributes remain (§3.1).

use tgraph::columns::{check_runs, Assignment};
use tgraph::{AttrOptions, ColumnGraph, EdgeId, Event, EventKind, NodeId, Snapshot, StructDelta};

use crate::error::DgResult;
use crate::net;

/// A form a retrieval can build its graph in (see the module
/// documentation).
pub trait GraphForm: Clone + Default {
    /// The graph of `source`, the plan's starting point.
    fn from_source(source: Snapshot) -> Self;

    /// Applies one delta's runs, as [`ColumnGraph::apply`] does.
    fn apply_runs(
        &mut self,
        structure: &StructDelta,
        node_attrs: Vec<Assignment<'_, NodeId>>,
        edge_attrs: Vec<Assignment<'_, EdgeId>>,
    ) -> DgResult<()>;

    /// Carries the graph across `events` — applied forward, or undone from
    /// the last to the first — skipping transient events and attribute
    /// events whose attribute `opts` does not select. An event that does
    /// not apply, or that removes a node which still has edges or
    /// attributes, is an error.
    fn apply_span(&mut self, events: &[Event], forward: bool, opts: &AttrOptions) -> DgResult<()>;
}

impl GraphForm for ColumnGraph {
    fn from_source(source: Snapshot) -> Self {
        ColumnGraph::from_snapshot(&source)
    }

    fn apply_runs(
        &mut self,
        structure: &StructDelta,
        node_attrs: Vec<Assignment<'_, NodeId>>,
        edge_attrs: Vec<Assignment<'_, EdgeId>>,
    ) -> DgResult<()> {
        Ok(self.apply(structure, node_attrs, edge_attrs)?)
    }

    fn apply_span(&mut self, events: &[Event], forward: bool, opts: &AttrOptions) -> DgResult<()> {
        net::apply_events(self, events, forward, opts)
    }
}

impl GraphForm for Snapshot {
    fn from_source(source: Snapshot) -> Self {
        source
    }

    fn apply_runs(
        &mut self,
        structure: &StructDelta,
        node_attrs: Vec<Assignment<'_, NodeId>>,
        edge_attrs: Vec<Assignment<'_, EdgeId>>,
    ) -> DgResult<()> {
        check_runs(structure, &node_attrs, &edge_attrs)?;
        structure.apply_to(self)?;
        for (n, key, value) in node_attrs {
            self.assign_node_attr(n, key, value);
        }
        for (e, key, value) in edge_attrs {
            self.assign_edge_attr(e, key, value);
        }
        Ok(())
    }

    fn apply_span(&mut self, events: &[Event], forward: bool, opts: &AttrOptions) -> DgResult<()> {
        let mut replay = |ev: &Event| -> DgResult<()> {
            let removed = match ev.kind {
                EventKind::DeleteNode { node } if forward => Some(node),
                EventKind::AddNode { node } if !forward => Some(node),
                _ => None,
            };
            // Where the snapshot would cascade, §3.1 is asserted instead.
            if let Some(n) = removed.filter(|&n| {
                self.has_incident_edges(n) || self.node(n).is_some_and(|d| !d.attrs.is_empty())
            }) {
                return Err(net::not_bare(n, ev.time));
            }
            if forward {
                self.apply_forward(ev)?;
            } else {
                self.apply_backward(ev)?;
            }
            Ok(())
        };
        let wanted = |ev: &&Event| net::wanted(ev, opts);
        if forward {
            events.iter().filter(wanted).try_for_each(&mut replay)
        } else {
            events.iter().rev().filter(wanted).try_for_each(&mut replay)
        }
    }
}
