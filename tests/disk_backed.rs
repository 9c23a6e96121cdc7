//! The same end-to-end flow, but with the index persisted on disk through the
//! write-once disk store (the Kyoto Cabinet stand-in), including a
//! partitioned deployment that fetches partitions in parallel.

use std::sync::Arc;

use historygraph::datagen::{dblp_like, uniform_timepoints, DblpConfig};
use historygraph::deltagraph::{DeltaGraph, DeltaGraphConfig, DifferentialFunction};
use historygraph::kvstore::{KeyValueStore, PartitionedStore};
use historygraph::tgraph::AttrOptions;
use historygraph::{GraphManager, GraphManagerConfig};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("historygraph-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn disk_backed_manager_matches_oracle() {
    let ds = dblp_like(&DblpConfig::tiny(301));
    let dir = temp_dir("manager");
    let mut gm = GraphManager::build_on_disk(
        &ds.events,
        GraphManagerConfig::default().with_index(
            DeltaGraphConfig::new(70, 2).with_diff_fn(DifferentialFunction::Intersection),
        ),
        &dir,
    )
    .unwrap();
    assert!(gm.stats().stored_bytes > 0);
    for t in uniform_timepoints(ds.start_time(), ds.end_time(), 6) {
        let h = gm.get_hist_graph(t, "+node:all+edge:all").unwrap();
        assert_eq!(gm.graph(h).to_snapshot(), ds.snapshot_at(t), "t={t}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partitioned_disk_deployment_with_parallel_fetch_matches_oracle() {
    let ds = dblp_like(&DblpConfig::tiny(303));
    let dir = temp_dir("partitioned");
    let store = PartitionedStore::on_disk(&dir, 4).unwrap();
    let store: Arc<dyn KeyValueStore> = Arc::new(store);
    let dg = DeltaGraph::build(
        &ds.events,
        DeltaGraphConfig::new(70, 2)
            .with_partitions(4)
            .with_retrieval_threads(4),
        Arc::clone(&store),
    )
    .unwrap();
    for t in uniform_timepoints(ds.start_time(), ds.end_time(), 5) {
        assert_eq!(
            dg.get_snapshot(t, &AttrOptions::all()).unwrap(),
            ds.snapshot_at(t),
            "t={t}"
        );
    }
    // every partition holds part of the index
    assert!(!store.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
