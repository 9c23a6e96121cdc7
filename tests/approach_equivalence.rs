//! Every snapshot-retrieval approach — DeltaGraph (all differential
//! functions), Copy+Log, naive Log, and the interval tree — must return
//! byte-for-byte identical snapshots for identical queries. This is the
//! cross-cutting invariant behind every comparison figure in the paper.

use std::sync::Arc;

use historygraph::baselines::{CopyLog, IntervalTree, NaiveLog, SnapshotSource};
use historygraph::datagen::{churn_trace, uniform_timepoints, ChurnConfig};
use historygraph::deltagraph::{DeltaGraph, DeltaGraphConfig, DifferentialFunction};
use historygraph::kvstore::MemStore;
use historygraph::tgraph::{AttrOptions, Event, Timestamp};
use historygraph::{
    DeltaGraphSource, GraphManager, GraphManagerConfig, ShardedConfig, ShardedGraphManager,
};
use proptest::prelude::*;

#[test]
fn all_approaches_return_identical_snapshots() {
    let ds = churn_trace(&ChurnConfig::tiny(201));
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 9);

    let log = NaiveLog::new(ds.events.clone());
    let copylog = CopyLog::build(&ds.events, 100, Arc::new(MemStore::new())).unwrap();
    let tree = IntervalTree::build(&ds.events);

    let mut deltagraphs = Vec::new();
    for f in [
        DifferentialFunction::Intersection,
        DifferentialFunction::Balanced,
        DifferentialFunction::Mixed { r1: 0.9, r2: 0.1 },
        DifferentialFunction::Empty,
    ] {
        deltagraphs.push(
            DeltaGraph::build(
                &ds.events,
                DeltaGraphConfig::new(90, 3).with_diff_fn(f),
                Arc::new(MemStore::new()),
            )
            .unwrap(),
        );
    }

    for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
        for &t in &times {
            let reference = log.snapshot_at(t, &opts).unwrap();
            assert_eq!(
                copylog.snapshot_at(t, &opts).unwrap(),
                reference,
                "copy+log t={t}"
            );
            assert_eq!(
                tree.snapshot_at(t, &opts).unwrap(),
                reference,
                "interval tree t={t}"
            );
            for dg in &deltagraphs {
                let source = DeltaGraphSource::new(dg);
                assert_eq!(
                    source.snapshot_at(t, &opts).unwrap(),
                    reference,
                    "deltagraph {} t={t}",
                    dg.config().diff_fn.name()
                );
            }
        }
    }
}

proptest! {
    /// The sharded serving layer extends the cross-approach invariant: for
    /// random event streams, random shard boundaries (explicit or
    /// equi-width), and a random roll budget, `ShardedGraphManager`
    /// snapshots are node/edge/attribute-identical to a single
    /// `GraphManager` replaying the same stream — across the built history,
    /// at and around every shard boundary, and through live appends that
    /// roll new tail shards.
    #[test]
    fn prop_sharded_router_matches_single_manager_replay(
        seed in 0u64..6,
        shard_count in 1usize..6,
        fracs in proptest::collection::vec(1u64..100, 0..4),
        budget in 0usize..12,
    ) {
        let ds = churn_trace(&ChurnConfig::tiny(500 + seed));
        let start = ds.start_time().raw();
        let end = ds.end_time().raw();
        let span = (end - start).max(1);
        let base = if fracs.is_empty() {
            ShardedConfig::default().with_shards(shard_count)
        } else {
            let bounds: Vec<Timestamp> = fracs
                .iter()
                .map(|&f| Timestamp(start + span * f as i64 / 100))
                .collect();
            ShardedConfig::default().with_boundaries(bounds)
        };
        let sharded =
            ShardedGraphManager::build_in_memory(&ds.events, base.with_shard_events(budget))
                .unwrap();
        let mut single =
            GraphManager::build_in_memory(&ds.events, GraphManagerConfig::default()).unwrap();

        // Probe times: a uniform spread plus every shard boundary and its
        // neighbours (the seams the seeding logic must get right).
        let mut times: Vec<Timestamp> =
            uniform_timepoints(ds.start_time(), ds.end_time(), 7);
        for info in sharded.shard_infos() {
            if let Some(lower) = info.lower {
                times.extend([lower.prev(), lower, lower.next()]);
            }
        }
        let compare = |sharded: &ShardedGraphManager, single: &GraphManager, times: &[Timestamp]| {
            for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
                for &t in times {
                    let got = sharded.snapshot_at(t, &opts).unwrap();
                    let want = single.index().get_snapshot(t, &opts).unwrap();
                    assert_eq!(got, want, "t={} opts={}", t.raw(), opts.canonical_string());
                }
            }
        };
        compare(&sharded, &single, &times);

        // Live appends land on the tail (rolling new shards under small
        // budgets) and must stay equivalent, including around the rolls.
        let mut append_times = Vec::new();
        for i in 0..15i64 {
            let t = end + 1 + i;
            let node = 900_000 + i as u64;
            let ev = Event::add_node(t, node);
            sharded.append_event(ev.clone()).unwrap();
            single.append_event(ev).unwrap();
            let attr = Event::set_node_attr(
                t,
                node,
                "w",
                None,
                Some(historygraph::tgraph::AttrValue::Int(i)),
            );
            sharded.append_event(attr.clone()).unwrap();
            single.append_event(attr).unwrap();
            append_times.push(Timestamp(t));
        }
        compare(&sharded, &single, &times);
        compare(&sharded, &single, &append_times);
    }
}

proptest! {
    /// `APPEND BATCH` extends the invariant to transactional ingest: for
    /// random roll budgets and batch shapes, a sharded router applying
    /// whole batches (each routed to the tail as a unit, rolling at most
    /// one new shard per batch) stays snapshot-identical to a single
    /// manager applying the same batches — including batches whose arrival
    /// triggers a tail roll, and batches that carry ill-formed deletes the
    /// §3.1 boundary must normalize identically on both sides.
    #[test]
    fn prop_sharded_batches_match_single_manager_across_rolls(
        seed in 0u64..4,
        shard_count in 1usize..4,
        budget in 0usize..8,
        batches in 1usize..6,
        batch_len in 1usize..5,
    ) {
        use historygraph::tgraph::AttrValue;

        let ds = churn_trace(&ChurnConfig::tiny(700 + seed));
        let end = ds.end_time().raw();
        let sharded = ShardedGraphManager::build_in_memory(
            &ds.events,
            ShardedConfig::default()
                .with_shards(shard_count)
                .with_shard_events(budget),
        )
        .unwrap();
        let mut single =
            GraphManager::build_in_memory(&ds.events, GraphManagerConfig::default()).unwrap();

        let mut t = end;
        let mut probe_times = Vec::new();
        for b in 0..batches as i64 {
            // Each batch: a node birth, an attribute write, and (for the
            // later batches) an ill-formed delete of the previous batch's
            // still-attributed node — exercising normalization inside the
            // atomic unit on both the sharded and the single path.
            let node = 910_000 + b as u64;
            let mut batch = Vec::new();
            for k in 0..batch_len as i64 {
                t += 1;
                batch.push(match k % 3 {
                    0 => Event::add_node(t, node + 1000 * k as u64),
                    1 => Event::set_node_attr(
                        t,
                        node,
                        "w",
                        None,
                        Some(AttrValue::Int(b * 100 + k)),
                    ),
                    _ => Event::delete_node(t, node + 1000 * (k - 2) as u64),
                });
            }
            let got = sharded.append_batch(batch.clone()).unwrap();
            let want = single.append_batch(batch).unwrap();
            assert_eq!(got.applied, want.applied, "batch {b} applied count");
            assert_eq!(got.normalized, want.normalized, "batch {b} normalization");
            // The whole batch landed in one shard: its time span never
            // straddles a shard boundary.
            assert_eq!(
                sharded.shard_index_for(got.t_min),
                sharded.shard_index_for(got.t_max),
                "batch {b} straddles shards"
            );
            probe_times.extend([got.t_min, got.t_max]);
        }
        for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
            for &pt in &probe_times {
                let got = sharded.snapshot_at(pt, &opts).unwrap();
                let want = single.index().get_snapshot(pt, &opts).unwrap();
                assert_eq!(got, want, "t={} opts={}", pt.raw(), opts.canonical_string());
            }
        }
    }
}

proptest! {
    /// Durable recovery extends the invariant to crashes: for random
    /// streams, shard layouts, leaf sizes, roll budgets, live appends, and a
    /// random kill point (the WAL torn at an arbitrary byte offset), a
    /// recovered router must answer point retrievals, multipoint retrievals
    /// across its shards, and an interval inside a sealed shard (served
    /// from the shard's segment) identically to an in-memory manager
    /// replaying the surviving prefix of the stream. The prefix is computed
    /// independently from the WAL's record framing, so this also pins
    /// *which* events must survive a given tear.
    #[test]
    fn prop_recovered_router_matches_in_memory_over_surviving_prefix(
        seed in 0u64..4,
        shard_count in 1usize..4,
        budget in 0usize..10,
        appends in 1usize..12,
        cut_frac in 0u64..101,
        leaf_pick in 0usize..2,
        window_pct in 0i64..100,
    ) {
        use historygraph::kvstore::{read_wal_events, wal_record_len};
        use historygraph::WalSyncPolicy;

        let dir = std::env::temp_dir().join(format!(
            "recovery-equivalence-{}-{seed}-{shard_count}-{budget}-{appends}-{cut_frac}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let ds = churn_trace(&ChurnConfig::tiny(900 + seed));
        let end = ds.end_time().raw();
        let leaf_size = [1000, 60][leaf_pick];
        let config = ShardedConfig::default()
            .with_shards(shard_count)
            .with_shard_events(budget)
            .with_manager(
                GraphManagerConfig::default().with_index(DeltaGraphConfig::new(leaf_size, 2)),
            );
        let durable = ShardedGraphManager::build_durable(
            &ds.events,
            config.clone(),
            &dir,
            WalSyncPolicy::Off,
        )
        .unwrap();
        let mut all_events: Vec<Event> = ds.events.events().to_vec();
        for i in 0..appends as i64 {
            let ev = Event::add_node(end + 1 + i, 900_000 + i as u64);
            durable.append_event(ev.clone()).unwrap();
            all_events.push(ev);
        }
        drop(durable); // the "crash": no shutdown hook runs

        // Tear the tail WAL at cut_frac% of its length and compute, purely
        // from record framing, which suffix of the stream that destroys:
        // the tail WAL holds the newest events, so losing its last records
        // loses exactly the stream's tail.
        let wal = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.extension().is_some_and(|x| x == "log")
                    && p.file_name().is_some_and(|f| f != "keys.log")
            })
            .expect("tail wal");
        let tail_events = read_wal_events(&wal).unwrap();
        let full_len = std::fs::metadata(&wal).unwrap().len();
        let cut = full_len * cut_frac / 100;
        let mut offset = 0u64;
        let mut surviving_tail = 0usize;
        for ev in &tail_events {
            offset += wal_record_len(ev);
            if offset > cut {
                break;
            }
            surviving_tail += 1;
        }
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let dropped = tail_events.len() - surviving_tail;
        let surviving = &all_events[..all_events.len() - dropped];

        if surviving.is_empty() {
            // Nothing survived anywhere (single shard, WAL fully gone):
            // recovery must refuse rather than serve an empty history.
            assert!(ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).is_err());
        } else {
            let recovered =
                ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
            let oracle = GraphManager::build_in_memory(
                &historygraph::tgraph::EventList::from_events(surviving.to_vec()),
                GraphManagerConfig::default(),
            )
            .unwrap();

            let last = surviving.last().unwrap().time;
            let mut times: Vec<Timestamp> =
                uniform_timepoints(ds.start_time(), last, 7);
            times.push(last);
            for info in recovered.shard_infos() {
                if let Some(lower) = info.lower {
                    times.extend([lower.prev(), lower, lower.next()]);
                }
            }
            for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
                let mut want = Vec::new();
                for &t in &times {
                    let got = recovered.snapshot_at(t, &opts).unwrap();
                    want.push(oracle.index().get_snapshot(t, &opts).unwrap());
                    assert_eq!(&got, want.last().unwrap(), "t={} opts={}", t.raw(), opts.canonical_string());
                }
                // The same times in one request: grouped by shard, each
                // group through its shard's multipoint planner.
                let got = recovered.snapshots_at(&times, &opts).unwrap();
                assert_eq!(got, want, "multipoint opts={}", opts.canonical_string());
            }
            // An interval inside one sealed shard (every shard but the tail).
            let infos = recovered.shard_infos();
            let sealed = &infos[..infos.len() - 1];
            if let Some(info) = sealed.get(window_pct as usize % sealed.len().max(1)) {
                let lo = info.lower.unwrap_or(ds.start_time()).raw();
                let hi = info.upper.expect("a sealed shard is bounded above").raw();
                let from = Timestamp(lo + (hi - lo) * window_pct / 100);
                let to = Timestamp(hi);
                if from < to {
                    let opts = AttrOptions::all();
                    let got = recovered.session().interval(from, to, &opts).unwrap();
                    let want = oracle.index().get_snapshot_interval(from, to, &opts).unwrap();
                    assert_eq!(got, want, "interval [{}, {}) in shard {}", from.raw(), hi, info.index);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    /// Seeded construction extends the invariant to indexes that start from
    /// a graph instead of from nothing: for random traces, a random boundary
    /// `b`, every differential function, leaf sizes from "every event is a
    /// leaf" to "one leaf holds everything" and two arities, the index
    /// built over (state entering `b`, events at or after `b`) answers every
    /// `t >= b` — point, multipoint and interval — exactly like the unseeded
    /// index over the whole trace, and like naive log replay. A boundary
    /// past the end of the trace gives the seed-only, one-leaf index.
    #[test]
    fn prop_seeded_index_matches_unseeded_index_and_log_replay(
        seed in 0u64..16,
        cut_pct in 0i64..115,
    ) {
        let ds = churn_trace(&ChurnConfig::tiny(1100 + seed).scaled(0.1));
        let events = ds.events.events();
        let (start, end) = (ds.start_time().raw(), ds.end_time().raw());
        let b = Timestamp(start + (end - start) * cut_pct / 100);
        let split = events.partition_point(|e| e.time < b);
        let state = ds.snapshot_at(b.prev());
        if split == events.len() && state.is_empty() {
            continue; // nothing to index on either side
        }
        let log = NaiveLog::new(ds.events.clone());

        // The seam, the middle of the seeded range, and both ends of it;
        // the replay oracle is computed once per projection.
        let last = b.max(Timestamp(end));
        let mid = Timestamp((b.raw() + last.raw()) / 2);
        let times = [b, b.next(), mid, last, last.next()];
        let windows = [(b, mid.next()), (b.next(), last.next().next())];
        let all = AttrOptions::all();
        let replayed: Vec<(AttrOptions, Vec<_>)> = [all.clone(), AttrOptions::structure_only()]
            .into_iter()
            .map(|opts| {
                let want = times
                    .iter()
                    .map(|&t| log.snapshot_at(t, &opts).unwrap())
                    .collect();
                (opts, want)
            })
            .collect();

        for diff_fn in [
            DifferentialFunction::Intersection,
            DifferentialFunction::Union,
            DifferentialFunction::Skewed { r: 0.3 },
            DifferentialFunction::RightSkewed { r: 0.7 },
            DifferentialFunction::LeftSkewed { r: 0.7 },
            DifferentialFunction::Mixed { r1: 0.9, r2: 0.1 },
            DifferentialFunction::Balanced,
            DifferentialFunction::Empty,
        ] {
            for leaf_size in [1usize, 7, 1000] {
                for arity in [2usize, 4] {
                    let config = DeltaGraphConfig::new(leaf_size, arity).with_diff_fn(diff_fn);
                    let whole =
                        DeltaGraph::build(&ds.events, config.clone(), Arc::new(MemStore::new()))
                            .unwrap();
                    let seeded = DeltaGraph::build_seeded(
                        state.clone(),
                        b.prev(),
                        &events[split..],
                        config,
                        Arc::new(MemStore::new()),
                    )
                    .unwrap();
                    let what = format!(
                        "{} L={leaf_size} k={arity} b={} seed={seed}",
                        diff_fn.name(),
                        b.raw()
                    );
                    assert_eq!(seeded.history_range().unwrap().0, b.prev(), "{what}");
                    assert_eq!(seeded.current_graph(), whole.current_graph(), "{what}");
                    for (opts, want) in &replayed {
                        for (&t, want) in times.iter().zip(want) {
                            assert_eq!(&seeded.get_snapshot(t, opts).unwrap(), want, "{what} t={t}");
                        }
                    }
                    for &t in &times {
                        assert_eq!(
                            seeded.get_snapshot(t, &all).unwrap(),
                            whole.get_snapshot(t, &all).unwrap(),
                            "{what} t={t}"
                        );
                    }
                    assert_eq!(
                        seeded.get_snapshots(&times, &all).unwrap(),
                        whole.get_snapshots(&times, &all).unwrap(),
                        "{what} multipoint"
                    );
                    for &(from, to) in &windows {
                        assert_eq!(
                            seeded.get_snapshot_interval(from, to, &all).unwrap(),
                            whole.get_snapshot_interval(from, to, &all).unwrap(),
                            "{what} interval [{from}, {to})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn storage_footprints_are_reported_and_ordered_sensibly() {
    let ds = churn_trace(&ChurnConfig::tiny(203));

    let copylog = CopyLog::build(&ds.events, 100, Arc::new(MemStore::new())).unwrap();
    let dg = DeltaGraph::build(
        &ds.events,
        DeltaGraphConfig::new(100, 2).with_diff_fn(DifferentialFunction::Intersection),
        Arc::new(MemStore::new()),
    )
    .unwrap();
    let tree = IntervalTree::build(&ds.events);

    // Copy+Log stores full snapshots and must use more disk than the
    // Intersection DeltaGraph at the same leaf granularity.
    let dg_source = DeltaGraphSource::new(&dg);
    assert!(copylog.storage_bytes() > dg_source.storage_bytes());
    // The interval tree is an in-memory structure.
    assert_eq!(tree.storage_bytes(), 0);
    assert!(tree.memory_bytes() > 0);
}
