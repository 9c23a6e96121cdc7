//! The paper's evaluation (§7, Figures 6–11) as assertions.
//!
//! Each test builds its figure's index over the synthetic stand-ins for
//! Dataset 1 (`dblp_like`) and Dataset 2 (`churn_trace`) at a tenth of
//! their default size, on a `MemStore`, and checks the figure's qualitative
//! claim on deterministic counters: bytes the kvstore stores and returns,
//! `IndexStats`, and in-memory footprints. None of them reads a clock, so
//! they hold on any machine; wall-clock timings are histbench's job.
//!
//! "Reads" below are the bytes the store returns while the figure's uniform
//! query points are retrieved with every attribute, unless a test says
//! otherwise.

use std::sync::Arc;

use baselines::{CopyLog, IntervalTree, SnapshotSource};
use datagen::{
    churn_trace, dblp_like, multipoint_batches, uniform_timepoints, ChurnConfig, Dataset,
    DblpConfig,
};
use deltagraph::{DeltaGraph, DeltaGraphConfig, DifferentialFunction};
use graphpool::GraphPool;
use kvstore::stats::StatsSnapshot;
use kvstore::{KeyValueStore, MemStore, PartitionedStore};
use tgraph::{AttrOptions, Timestamp};

use DifferentialFunction::{Balanced, Intersection, Mixed};

/// Fraction of the default dataset sizes every figure is checked at.
const SCALE: f64 = 0.1;

/// Dataset 1: growing-only.
fn dataset1() -> Dataset {
    dblp_like(&DblpConfig::default().scaled(SCALE))
}

/// Dataset 2: Dataset 1 followed by balanced churn.
fn dataset2() -> Dataset {
    churn_trace(&ChurnConfig::default().scaled(SCALE))
}

fn build(ds: &Dataset, leaf_size: usize, arity: usize, f: DifferentialFunction) -> DeltaGraph {
    DeltaGraph::build(
        &ds.events,
        DeltaGraphConfig::new(leaf_size, arity).with_diff_fn(f),
        Arc::new(MemStore::new()),
    )
    .expect("index construction")
}

/// Leaf size as a fraction `1/per` of the trace, as each figure sets it.
fn leaf_size(ds: &Dataset, per: usize) -> usize {
    (ds.events.len() / per).max(50)
}

/// Runs `f` and returns its result with the store traffic it caused.
fn traffic<T>(store: &Arc<dyn KeyValueStore>, f: impl FnOnce() -> T) -> (T, StatsSnapshot) {
    let before = store.stats();
    let out = f();
    (out, store.stats().delta_since(&before))
}

/// Bytes read retrieving each of `times` from `dg` with `opts`.
fn reads(dg: &DeltaGraph, times: &[Timestamp], opts: &AttrOptions) -> Vec<u64> {
    let store = dg.payload_store().backing_store();
    times
        .iter()
        .map(|&t| traffic(store, || dg.get_snapshot(t, opts).expect("retrieval")).1)
        .map(|stats| stats.bytes_read)
        .collect()
}

fn total_reads(dg: &DeltaGraph, times: &[Timestamp]) -> u64 {
    reads(dg, times, &AttrOptions::all()).iter().sum()
}

/// Figure 6: under a comparable disk budget, the Intersection DeltaGraph
/// (`L = |E|/60`, `k = 2`) stores much less than Copy+Log with 4×-coarser
/// chunks and reads no more to answer the same 25 points.
#[test]
fn fig6_deltagraph_stores_less_than_copy_log_and_reads_no_more() {
    for ds in [dataset1(), dataset2()] {
        let leaf = leaf_size(&ds, 60);
        let dg = build(&ds, leaf, 2, Intersection);
        let copylog = CopyLog::build(&ds.events, 4 * leaf, Arc::new(MemStore::new()))
            .expect("copy+log construction");
        let attrs = AttrOptions::all();
        let (mut dg_read, mut cl_read) = (0, 0);
        for t in uniform_timepoints(ds.start_time(), ds.end_time(), 25) {
            let (dg_snap, dg_stats) = traffic(dg.payload_store().backing_store(), || {
                dg.get_snapshot(t, &attrs).expect("deltagraph retrieval")
            });
            let (cl_snap, cl_stats) = traffic(copylog.store(), || {
                copylog.snapshot_at(t, &attrs).expect("copy+log retrieval")
            });
            assert_eq!(dg_snap, cl_snap, "{}: approaches disagree at {t}", ds.name);
            dg_read += dg_stats.bytes_read;
            cl_read += cl_stats.bytes_read;
        }
        let (dg_stored, cl_stored) = (dg.stats().stored_bytes, copylog.storage_bytes());
        assert!(
            dg_stored as f64 <= 0.6 * cl_stored as f64,
            "{}: deltagraph stores {dg_stored} B, copy+log {cl_stored} B",
            ds.name
        );
        assert!(
            dg_read as f64 <= 1.05 * cl_read as f64,
            "{}: deltagraph reads {dg_read} B, copy+log {cl_read} B",
            ds.name
        );
    }
}

/// Figure 7 (Dataset 2, `k = 4`): the in-memory interval tree is the
/// smallest resident index, materializing the root's grandchildren costs
/// more, and materializing every leaf the most — and buys the fewest reads.
/// All three give the same answers.
#[test]
fn fig7_materialization_trades_memory_for_reads_against_the_interval_tree() {
    let ds = dataset2();
    let leaf = leaf_size(&ds, 40);
    let tree = IntervalTree::build(&ds.events);
    let mut grandchildren = build(&ds, leaf, 4, Intersection);
    grandchildren
        .materialize_descendants(2)
        .expect("materialize grandchildren");
    let mut total = build(&ds, leaf, 4, Intersection);
    total.materialize_all_leaves().expect("materialize leaves");

    let attrs = AttrOptions::all();
    let (mut gc_read, mut total_read) = (0, 0);
    for t in uniform_timepoints(ds.start_time(), ds.end_time(), 25) {
        let expected = tree.snapshot_at(t, &attrs).expect("interval tree");
        for (dg, read) in [(&grandchildren, &mut gc_read), (&total, &mut total_read)] {
            let (snap, stats) = traffic(dg.payload_store().backing_store(), || {
                dg.get_snapshot(t, &attrs).expect("retrieval")
            });
            assert_eq!(snap, expected, "answer at {t}");
            *read += stats.bytes_read;
        }
    }

    let tree_mem = tree.memory_bytes();
    let gc_mem = grandchildren.stats().materialized_bytes;
    let total_mem = total.stats().materialized_bytes;
    assert!(
        tree_mem < gc_mem && gc_mem < total_mem,
        "memory: interval tree {tree_mem} B, grandchildren {gc_mem} B, total {total_mem} B"
    );
    assert!(
        gc_read > total_read,
        "reads: grandchildren {gc_read} B, total {total_read} B"
    );
}

/// Figure 8(a): overlaying 100 retrieved snapshots onto one GraphPool grows
/// it by far less than keeping the snapshots apart would cost.
#[test]
fn fig8a_graphpool_overlays_cost_a_fraction_of_disjoint_snapshots() {
    for ds in [dataset1(), dataset2()] {
        let dg = build(&ds, leaf_size(&ds, 50), 2, Intersection);
        let mut pool = GraphPool::new();
        pool.set_current(dg.current_graph());
        let base = pool.approx_memory();
        let mut disjoint = 0;
        for t in uniform_timepoints(ds.start_time(), ds.end_time(), 100) {
            let snapshot = dg.get_snapshot(t, &AttrOptions::all()).expect("retrieval");
            disjoint += snapshot.approx_memory();
            pool.add_historical(&snapshot, t);
        }
        let growth = pool.approx_memory() - base;
        assert!(
            growth * 20 <= disjoint,
            "{}: pool grew {growth} B, disjoint snapshots take {disjoint} B",
            ds.name
        );
    }
}

/// Figure 8(c) (Dataset 1): a multipoint query over k closely spaced points
/// shares the deltas its points have in common, so it reads less than k
/// singlepoint queries and barely more as k grows from 2 to 6.
#[test]
fn fig8c_multipoint_queries_share_deltas() {
    let ds = dataset1();
    let dg = build(&ds, leaf_size(&ds, 60), 2, Intersection);
    let attrs = AttrOptions::all();
    let store = dg.payload_store().backing_store();
    let anchor = Timestamp(ds.end_time().raw() - 2);
    let mut multi_reads = Vec::new();
    for batch in multipoint_batches(anchor, 1, &[2, 3, 4, 5, 6]) {
        let single: u64 = reads(&dg, &batch, &attrs).iter().sum();
        let (snapshots, stats) = traffic(store, || {
            dg.get_snapshots(&batch, &attrs)
                .expect("multipoint retrieval")
        });
        for (t, snap) in batch.iter().zip(&snapshots) {
            assert_eq!(*snap, ds.snapshot_at(*t), "multipoint answer at {t}");
        }
        let multi = stats.bytes_read;
        assert!(
            multi < single,
            "k={}: multipoint {multi} B, singlepoints {single} B",
            batch.len()
        );
        multi_reads.push(multi);
    }
    let (min, max) = (
        *multi_reads.iter().min().expect("five batches"),
        *multi_reads.iter().max().expect("five batches"),
    );
    assert!(
        max as f64 <= 1.25 * min as f64,
        "multipoint reads for k = 2..6: {multi_reads:?}"
    );
}

/// Figure 8(d) (Dataset 2): deltas are stored by column, so retrieving only
/// the structure reads a fraction of what structure plus attributes reads.
#[test]
fn fig8d_structure_only_retrieval_skips_attribute_columns() {
    let ds = dataset2();
    let dg = build(&ds, leaf_size(&ds, 50), 2, Intersection);
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 25);
    let structure: u64 = reads(&dg, &times, &AttrOptions::structure_only())
        .iter()
        .sum();
    let everything = total_reads(&dg, &times);
    assert!(
        structure * 4 <= everything,
        "structure only {structure} B, all attributes {everything} B"
    );
}

/// Figure 9 (Dataset 1): (a) a wider arity gives a shallower hierarchy that
/// stores more; (b) a longer leaf eventlist gives fewer leaves and less
/// space, paid for with more bytes read per query.
#[test]
fn fig9_arity_and_leaf_size_trade_space_for_reads() {
    let ds = dataset1();
    let base_leaf = leaf_size(&ds, 40);
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 15);

    let by_arity: Vec<(u32, u64)> = [2, 3, 4, 6, 8]
        .into_iter()
        .map(|k| {
            let stats = build(&ds, base_leaf, k, Intersection).stats();
            (stats.height, stats.stored_bytes)
        })
        .collect();
    for pair in by_arity.windows(2) {
        let ((h0, s0), (h1, s1)) = (pair[0], pair[1]);
        assert!(h1 <= h0 && s1 > s0, "(height, stored) by k: {by_arity:?}");
    }

    let by_leaf: Vec<(usize, u64, u64)> = [1, 2, 4, 8]
        .into_iter()
        .map(|factor| {
            let dg = build(&ds, base_leaf * factor, 2, Intersection);
            let stats = dg.stats();
            (stats.leaves, stats.stored_bytes, total_reads(&dg, &times))
        })
        .collect();
    for pair in by_leaf.windows(2) {
        let ((l0, s0, r0), (l1, s1, r1)) = (pair[0], pair[1]);
        assert!(
            l1 < l0 && s1 < s0 && r1 > r0,
            "(leaves, stored, read) by L: {by_leaf:?}"
        );
    }
}

/// Figure 10 (Dataset 2, `k = 4`): materializing deeper levels of the
/// hierarchy never reads more, and the grandchildren read far less than
/// nothing. The root alone does not help: an Intersection root over a trace
/// that starts empty is the empty leaf-0 graph.
#[test]
fn fig10_deeper_materialization_reads_less() {
    let ds = dataset2();
    let leaf = leaf_size(&ds, 50);
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 20);
    let by_depth: Vec<u64> = [None, Some(0), Some(1), Some(2)]
        .into_iter()
        .map(|depth| {
            let mut dg = build(&ds, leaf, 4, Intersection);
            match depth {
                None => {}
                Some(0) => drop(dg.materialize_root().expect("materialize root")),
                Some(d) => drop(dg.materialize_descendants(d).expect("materialize")),
            }
            total_reads(&dg, &times)
        })
        .collect();
    assert!(
        by_depth.windows(2).all(|pair| pair[1] <= pair[0]),
        "reads by depth (none, root, children, grandchildren): {by_depth:?}"
    );
    assert!(
        by_depth[3] * 2 <= by_depth[0],
        "reads by depth (none, root, children, grandchildren): {by_depth:?}"
    );
}

/// Figure 11 (Dataset 1): the differential function decides which part of
/// history is cheap. Intersection keeps old snapshots near the root, so the
/// oldest quarter reads far less than the newest; Balanced evens that out;
/// materializing Balanced's root cuts its reads; and Mixed(r, r) moves cost
/// onto the oldest quarter as r grows, with r = ½ being Balanced.
#[test]
fn fig11_differential_functions_set_the_recency_skew() {
    let ds = dataset1();
    let leaf = leaf_size(&ds, 50);
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 20);
    let quarter = times.len() / 4;
    let per_point = |f| reads(&build(&ds, leaf, 2, f), &times, &AttrOptions::all());
    // (oldest quarter, newest quarter, total)
    let split = |r: &[u64]| -> (u64, u64, u64) {
        (
            r[..quarter].iter().sum(),
            r[r.len() - quarter..].iter().sum(),
            r.iter().sum(),
        )
    };

    let (int_old, int_new, _) = split(&per_point(Intersection));
    let balanced = per_point(Balanced);
    let (bal_old, bal_new, bal_total) = split(&balanced);
    assert!(
        int_old * 8 <= int_new,
        "intersection: oldest {int_old} B, newest {int_new} B"
    );
    assert!(
        bal_old > int_old && bal_old * 2 >= bal_new,
        "balanced: oldest {bal_old} B, newest {bal_new} B (intersection oldest {int_old} B)"
    );

    let mut balanced_mat = build(&ds, leaf, 2, Balanced);
    balanced_mat.materialize_root().expect("materialize root");
    let mat_total = total_reads(&balanced_mat, &times);
    assert!(
        mat_total < bal_total,
        "balanced reads {bal_total} B, with its root materialized {mat_total} B"
    );

    assert_eq!(per_point(Mixed { r1: 0.5, r2: 0.5 }), balanced);
    let oldest_share: Vec<f64> = [0.1, 0.5, 0.9]
        .into_iter()
        .map(|r| {
            let (old, _, total) = split(&per_point(Mixed { r1: r, r2: r }));
            old as f64 / total as f64
        })
        .collect();
    assert!(
        oldest_share.windows(2).all(|pair| pair[1] > pair[0]),
        "oldest quarter's share of reads for r = 0.1, 0.5, 0.9: {oldest_share:?}"
    );
}

/// Figure 8(b) and the Dataset 3 experiment fetch a partitioned index's
/// partitions on parallel threads. Their only claim that is not a timing is
/// that the thread count changes nothing about the answer or the fetch.
#[test]
fn partitioned_retrieval_does_not_depend_on_the_thread_count() {
    let ds = dataset2();
    let partitions = 4;
    let store: Arc<dyn KeyValueStore> = Arc::new(PartitionedStore::in_memory(partitions));
    let mut dg = DeltaGraph::build(
        &ds.events,
        DeltaGraphConfig::new(leaf_size(&ds, 50), 2)
            .with_diff_fn(Intersection)
            .with_partitions(partitions),
        store.clone(),
    )
    .expect("partitioned index construction");
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 7);
    let expected: Vec<_> = times.iter().map(|&t| ds.snapshot_at(t)).collect();

    let mut traffic_by_threads = Vec::new();
    for threads in [1, 2, 4] {
        dg.set_retrieval_threads(threads);
        let (snapshots, stats) = traffic(&store, || {
            times
                .iter()
                .map(|&t| dg.get_snapshot(t, &AttrOptions::all()).expect("retrieval"))
                .collect::<Vec<_>>()
        });
        assert_eq!(snapshots, expected, "answers with {threads} threads");
        traffic_by_threads.push((stats.gets, stats.bytes_read));
    }
    assert!(
        traffic_by_threads.windows(2).all(|pair| pair[0] == pair[1]),
        "(gets, bytes read) for 1, 2, 4 threads: {traffic_by_threads:?}"
    );
}
