//! # graphpool — many historical graphs in memory, overlaid
//!
//! The second key data structure of the system (Section 6 of *Khurana &
//! Deshpande, ICDE 2013*): a typical evolutionary analysis needs 100's of
//! historical snapshots in memory at once, and storing them independently
//! would be infeasible. The [`GraphPool`] keeps a single union graph of all
//! active graphs — the current graph, retrieved historical snapshots, and
//! materialized DeltaGraph nodes — and records membership of every node,
//! edge, and attribute value with per-element bitmaps. Graphs that are no
//! longer needed are released and reclaimed lazily by a cleaner pass.

pub mod bitmap;
pub mod pool;
pub mod view;

pub use bitmap::BitMap;
pub use pool::{GraphEntry, GraphId, GraphKind, GraphPool, CURRENT_GRAPH};
pub use view::GraphView;

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{EdgeId, NodeId, Snapshot, Timestamp};

    fn chain_snapshot(n: u64) -> Snapshot {
        // nodes 0..n with a path 0-1-...-n
        let mut s = Snapshot::new();
        for i in 0..=n {
            s.ensure_node(NodeId(i));
        }
        for i in 0..n {
            s.add_edge(EdgeId(i), NodeId(i), NodeId(i + 1), false)
                .unwrap();
        }
        s
    }

    #[test]
    fn overlapping_snapshots_share_union_memory() {
        // 20 snapshots, each a growing prefix of the same chain: the union is
        // only as large as the largest snapshot, far below the sum.
        let mut pool = GraphPool::new();
        let mut disjoint_total = 0usize;
        for i in 1..=20u64 {
            let snap = chain_snapshot(i * 5);
            disjoint_total += snap.approx_memory();
            pool.add_historical(&snap, Timestamp(i as i64));
        }
        assert_eq!(pool.active_overlay_count(), 20);
        let pooled = pool.approx_memory();
        assert!(
            pooled < disjoint_total / 3,
            "pool uses {pooled} bytes, disjoint storage would use {disjoint_total}"
        );
        // every view still sees exactly its own snapshot
        for (idx, id) in pool.active_graphs().into_iter().skip(1).enumerate() {
            let expected = chain_snapshot((idx as u64 + 1) * 5);
            assert_eq!(pool.view(id).to_snapshot(), expected);
        }
    }

    #[test]
    fn dependent_overlay_matches_plain_overlay() {
        let mut pool = GraphPool::new();
        let base = chain_snapshot(50);
        let materialized = pool.add_materialized(&base);

        // a historical snapshot differing from the base in a handful of elements
        let mut hist = base.clone();
        hist.remove_edge(EdgeId(3)).unwrap();
        hist.ensure_node(NodeId(999));
        hist.add_edge(EdgeId(900), NodeId(999), NodeId(0), false)
            .unwrap();

        let dependent = pool.add_historical_dependent(&hist, Timestamp(5), materialized);
        let plain = pool.add_historical(&hist, Timestamp(5));

        assert_eq!(
            pool.view(dependent).to_snapshot(),
            pool.view(plain).to_snapshot()
        );
        assert_eq!(pool.view(dependent).to_snapshot(), hist);
        assert!(!pool.view(dependent).has_edge(EdgeId(3)));
        assert!(pool.view(dependent).has_edge(EdgeId(900)));
        // the dependency itself is untouched
        assert!(pool.view(materialized).has_edge(EdgeId(3)));
    }

    #[test]
    fn release_and_cleanup_reclaim_elements_and_bits() {
        let mut pool = GraphPool::new();
        let a = pool.add_historical(&chain_snapshot(10), Timestamp(1));
        let b = pool.add_historical(&chain_snapshot(30), Timestamp(2));
        assert_eq!(pool.union_node_count(), 31);

        pool.release(b);
        assert_eq!(pool.pending_cleanup(), 1);
        // lazily: nothing removed yet
        assert_eq!(pool.union_node_count(), 31);
        let removed = pool.cleanup();
        assert!(removed > 0);
        // nodes 11..30 belonged only to b
        assert_eq!(pool.union_node_count(), 11);
        assert!(pool.entry(b).is_none());
        assert_eq!(pool.view(a).to_snapshot(), chain_snapshot(10));

        // released bits are reused by later overlays
        let c = pool.add_historical(&chain_snapshot(5), Timestamp(3));
        assert_eq!(pool.view(c).node_count(), 6);
        // releasing the current graph is ignored
        pool.release(CURRENT_GRAPH);
        assert_eq!(pool.pending_cleanup(), 0);
        assert!(pool.entry(CURRENT_GRAPH).is_some());
    }

    #[test]
    fn cleanup_with_nothing_pending_is_a_noop() {
        let mut pool = GraphPool::new();
        pool.add_historical(&chain_snapshot(3), Timestamp(1));
        assert_eq!(pool.cleanup(), 0);
        assert_eq!(pool.union_node_count(), 4);
    }

    #[test]
    fn attribute_values_are_tracked_per_graph() {
        let mut pool = GraphPool::new();
        let mut s1 = Snapshot::new();
        s1.ensure_node(NodeId(1));
        s1.set_node_attr(NodeId(1), "rank", Some(tgraph::AttrValue::Int(10)))
            .unwrap();
        let mut s2 = Snapshot::new();
        s2.ensure_node(NodeId(1));
        s2.set_node_attr(NodeId(1), "rank", Some(tgraph::AttrValue::Int(20)))
            .unwrap();
        let g1 = pool.add_historical(&s1, Timestamp(1));
        let g2 = pool.add_historical(&s2, Timestamp(2));
        assert_eq!(
            pool.view(g1).node_attr(NodeId(1), "rank"),
            Some(&tgraph::AttrValue::Int(10))
        );
        assert_eq!(
            pool.view(g2).node_attr(NodeId(1), "rank"),
            Some(&tgraph::AttrValue::Int(20))
        );
        assert_eq!(pool.view(g1).node_attr(NodeId(1), "missing"), None);
    }

    #[test]
    fn retained_overlays_survive_until_the_last_release() {
        let mut pool = GraphPool::new();
        let g = pool.add_historical(&chain_snapshot(5), Timestamp(1));
        assert_eq!(pool.refcount(g), Some(1));
        assert!(pool.retain(g)); // a second sharer
        assert!(pool.retain(g)); // and a third
        assert_eq!(pool.refcount(g), Some(3));

        pool.release(g);
        pool.release(g);
        // two of three references gone: still active, nothing to clean
        assert!(pool.entry(g).is_some());
        assert_eq!(pool.pending_cleanup(), 0);
        assert_eq!(pool.cleanup(), 0);

        pool.release(g);
        assert!(pool.entry(g).is_none());
        assert_eq!(pool.pending_cleanup(), 1);
        assert!(pool.cleanup() > 0);
        assert_eq!(pool.union_node_count(), 0);

        // retain on inactive/current/unknown ids is refused
        assert!(!pool.retain(g));
        assert!(!pool.retain(CURRENT_GRAPH));
        assert!(!pool.retain(GraphId(999)));
    }

    #[test]
    fn force_release_ignores_outstanding_references() {
        let mut pool = GraphPool::new();
        let g = pool.add_historical(&chain_snapshot(5), Timestamp(1));
        pool.retain(g);
        pool.retain(g);
        pool.force_release(g);
        assert!(pool.entry(g).is_none());
        assert!(pool.cleanup() > 0);
    }

    #[test]
    fn graph_registry_reports_kinds_and_times() {
        let mut pool = GraphPool::new();
        let h = pool.add_historical(&chain_snapshot(2), Timestamp(42));
        let m = pool.add_materialized(&chain_snapshot(2));
        assert_eq!(pool.entry(h).unwrap().kind, GraphKind::Historical);
        assert_eq!(pool.entry(h).unwrap().time, Some(Timestamp(42)));
        assert_eq!(pool.entry(m).unwrap().kind, GraphKind::Materialized);
        assert_eq!(pool.entry(CURRENT_GRAPH).unwrap().kind, GraphKind::Current);
        assert_eq!(pool.active_graphs().len(), 3);
    }

    /// An edge id can come back between other endpoints (`APPEND` allows
    /// reuse after a delete); every view must still report its own.
    #[test]
    fn reused_edge_ids_keep_each_views_endpoints() {
        use tgraph::{AttrValue, Event};
        let graph = |src: u64, dst: u64, w: Option<i64>| {
            let mut s = Snapshot::new();
            for n in 1..=4 {
                s.ensure_node(NodeId(n));
            }
            s.add_edge(EdgeId(9), NodeId(src), NodeId(dst), false)
                .unwrap();
            s.set_edge_attr(EdgeId(9), "w", w.map(AttrValue::Int))
                .unwrap();
            s
        };

        // Two overlays sharing the id, as 1→2 and as 3→4.
        let mut pool = GraphPool::new();
        let (sa, sb) = (graph(1, 2, Some(1)), graph(3, 4, Some(2)));
        let a = pool.add_historical(&sa, Timestamp(1));
        let b = pool.add_historical(&sb, Timestamp(2));
        assert_eq!(pool.view(a).to_snapshot(), sa);
        assert_eq!(pool.view(b).to_snapshot(), sb);
        assert_eq!(pool.view(b).neighbors(NodeId(1)), vec![]);
        assert_eq!(
            pool.view(b).neighbors(NodeId(3)),
            vec![(NodeId(4), EdgeId(9))]
        );
        assert_eq!(pool.view(b).edge_count(), 1);
        // Releasing one incarnation leaves the other intact.
        pool.release(a);
        assert_eq!(pool.cleanup(), 1);
        assert_eq!(pool.view(b).to_snapshot(), sb);
        assert_eq!(
            pool.view(b).neighbors(NodeId(3)),
            vec![(NodeId(4), EdgeId(9))]
        );

        // Both incarnations die in one cleanup pass.
        let mut pool = GraphPool::new();
        let a = pool.add_historical(&sa, Timestamp(1));
        let b = pool.add_historical(&sb, Timestamp(2));
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.cleanup(), 4 + 2); // nodes 1..=4 and both incarnations
        assert_eq!(pool.union_edge_count(), 0);
        for n in 1..=4 {
            assert!(pool.union_neighbors(NodeId(n)).is_empty());
        }

        // The current graph deletes the edge, then re-adds the id elsewhere,
        // while an overlay still holds the old endpoints.
        let mut pool = GraphPool::new();
        pool.set_current(&sa);
        let old = pool.add_historical(&sa, Timestamp(1));
        pool.apply_event_to_current(&Event::set_edge_attr(
            2,
            9,
            "w",
            Some(AttrValue::Int(1)),
            None,
        ));
        pool.apply_event_to_current(&Event::delete_edge(2, 9, 1, 2));
        pool.apply_event_to_current(&Event::add_edge(3, 9, 3, 4));
        let now = graph(3, 4, None);
        assert_eq!(pool.view(CURRENT_GRAPH).to_snapshot(), now);
        assert_eq!(pool.view(CURRENT_GRAPH).neighbors(NodeId(1)), vec![]);
        assert_eq!(pool.view(old).to_snapshot(), sa);
        // A dependent overlay of the old graph on the current one records
        // its own incarnation rather than following the dependency's.
        let dep = pool.add_historical_dependent(&sa, Timestamp(1), CURRENT_GRAPH);
        assert_eq!(pool.view(dep).to_snapshot(), sa);
        assert_eq!(pool.view(CURRENT_GRAPH).to_snapshot(), now);
    }
}
