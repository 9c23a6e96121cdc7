//! The router's tests: routing, appends and rolls, sessions across shards,
//! and durable build, reopen, hydration and quarantine through the router.

use datagen::{churn_trace, ChurnConfig};
use tgraph::TimeExpression;

use super::*;
use crate::cache::WireFormat;

/// 60 nodes appearing at t = 1..=60, so shard contents are predictable.
fn linear_trace() -> EventList {
    EventList::from_events(
        (1..=60)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    )
}

fn router(shards: usize) -> ShardedGraphManager {
    ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default()
            .with_shards(shards)
            .with_manager(GraphManagerConfig::default().with_snapshot_cache(16)),
    )
    .unwrap()
}

#[test]
fn sharded_snapshots_match_single_manager() {
    let events = linear_trace();
    let single = GraphManager::build_in_memory(&events, GraphManagerConfig::default()).unwrap();
    for shards in [1, 2, 3, 5] {
        let sharded = router(shards);
        assert!(sharded.shard_count() >= 1 && sharded.shard_count() <= shards);
        for t in [0i64, 1, 15, 20, 21, 40, 41, 59, 60, 99] {
            let opts = AttrOptions::all();
            let want = single.index().get_snapshot(Timestamp(t), &opts).unwrap();
            let got = sharded.snapshot_at(Timestamp(t), &opts).unwrap();
            assert_eq!(got, want, "shards={shards} t={t}");
        }
    }
}

#[test]
fn routing_respects_boundaries() {
    let sharded = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default().with_boundaries(vec![Timestamp(21), Timestamp(41)]),
    )
    .unwrap();
    assert_eq!(sharded.shard_count(), 3);
    assert_eq!(sharded.shard_index_for(Timestamp(i64::MIN)), 0);
    assert_eq!(sharded.shard_index_for(Timestamp(20)), 0);
    assert_eq!(sharded.shard_index_for(Timestamp(21)), 1);
    assert_eq!(sharded.shard_index_for(Timestamp(40)), 1);
    assert_eq!(sharded.shard_index_for(Timestamp(41)), 2);
    assert_eq!(sharded.shard_index_for(Timestamp(i64::MAX)), 2);
    let infos = sharded.shard_infos();
    assert_eq!(infos[0].lower, None);
    assert_eq!(infos[0].upper, Some(Timestamp(21)));
    assert_eq!(infos[2].lower, Some(Timestamp(41)));
    assert_eq!(infos[2].upper, None);
    assert_eq!(infos.iter().map(|i| i.events).sum::<usize>(), 60);
}

#[test]
fn degenerate_boundaries_are_suppressed() {
    // Boundaries below, at, and above the whole history collapse into a
    // single shard rather than building empty indexes.
    let sharded = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default().with_boundaries(vec![
            Timestamp(-100),
            Timestamp(1),
            Timestamp(30),
        ]),
    )
    .unwrap();
    assert_eq!(sharded.shard_count(), 2);
    let snap = sharded
        .snapshot_at(Timestamp(60), &AttrOptions::all())
        .unwrap();
    assert_eq!(snap.node_count(), 60);
}

#[test]
fn appends_route_to_the_tail_and_historical_shards_stay_clean() {
    let sharded = router(3);
    let opts = AttrOptions::all();
    // Prime a historical point's cache on shard 0.
    let mut session = sharded.session();
    session.retrieve_cached(Timestamp(10), &opts).unwrap();
    session.retrieve_cached(Timestamp(10), &opts).unwrap();
    let before = sharded.shard_infos();
    assert_eq!(before[0].cache_entries, 1);
    sharded.append_event(Event::add_node(61, 9001)).unwrap();
    sharded.append_event(Event::add_node(62, 9002)).unwrap();
    let after = sharded.shard_infos();
    // The historical entry survived the tail appends.
    assert_eq!(after[0].cache_entries, 1);
    assert_eq!(after[0].cache.invalidations, 0);
    assert_eq!(
        after.last().unwrap().events,
        before.last().unwrap().events + 2
    );
    // And the appended nodes are visible at the tail.
    let snap = sharded.snapshot_at(Timestamp(62), &opts).unwrap();
    assert!(snap.has_node(tgraph::NodeId(9001)));
    assert!(snap.has_node(tgraph::NodeId(9002)));
}

#[test]
fn appends_below_the_tail_bound_are_rejected() {
    let sharded = router(3);
    let err = sharded.append_event(Event::add_node(5, 9001)).unwrap_err();
    assert!(err.to_string().contains("immutable"), "{err}");
    // Ordinary chronology violations still surface from the tail shard.
    sharded.append_event(Event::add_node(70, 9001)).unwrap();
    let err = sharded.append_event(Event::add_node(65, 9002)).unwrap_err();
    assert!(err.to_string().contains("appended after"), "{err}");
}

#[test]
fn tail_rolls_when_the_event_budget_is_exceeded() {
    let sharded = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default().with_shards(2).with_shard_events(5),
    )
    .unwrap();
    let shards_before = sharded.shard_count();
    // The built tail already exceeds the budget, so the first
    // strictly-later append rolls.
    sharded.append_event(Event::add_node(100, 9000)).unwrap();
    assert_eq!(sharded.shard_count(), shards_before + 1);
    let infos = sharded.shard_infos();
    assert_eq!(infos.last().unwrap().lower, Some(Timestamp(100)));
    assert_eq!(infos.last().unwrap().events, 1);
    // Appends keep landing on the new tail until it too fills up.
    for i in 1..5 {
        sharded
            .append_event(Event::add_node(100 + i, 9000 + i as u64))
            .unwrap();
    }
    assert_eq!(sharded.shard_count(), shards_before + 1);
    sharded.append_event(Event::add_node(200, 9500)).unwrap();
    assert_eq!(sharded.shard_count(), shards_before + 2);
    // History is intact across every roll.
    let snap = sharded
        .snapshot_at(Timestamp(200), &AttrOptions::all())
        .unwrap();
    assert_eq!(snap.node_count(), 60 + 6);
    assert!(snap.has_node(tgraph::NodeId(9500)));
    // And pre-roll history still answers from the rolled-over shards.
    let mid = sharded
        .snapshot_at(Timestamp(102), &AttrOptions::all())
        .unwrap();
    assert_eq!(mid.node_count(), 60 + 3);
}

#[test]
fn a_retrieval_planned_on_the_tail_executes_after_a_roll() {
    let sharded = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default()
            .with_shards(2)
            .with_shard_events(40)
            .with_manager(
                GraphManagerConfig::default().with_index(deltagraph::DeltaGraphConfig::new(4, 2)),
            ),
    )
    .unwrap();
    let mut replay = linear_trace();
    let mut append = |t: i64, node: u64| {
        let event = Event::add_node(t, node);
        replay.push(event.clone()).unwrap();
        sharded.append_event(event).unwrap();
    };
    append(61, 9061);
    append(62, 9062);
    // t=45 lies in an interval of the tail's index, t=62 after its
    // last leaf.
    let tail = sharded.shard_for(Timestamp(62)).unwrap();
    let opts = AttrOptions::all();
    let plan = |t: i64| tail.read().index().plan_retrievals(&[Timestamp(t)], &opts);
    assert!(tail
        .read()
        .index()
        .plan_snapshot(Timestamp(45), &opts)
        .unwrap()
        .is_some());
    assert!(tail
        .read()
        .index()
        .plan_snapshot(Timestamp(62), &opts)
        .unwrap()
        .is_none());
    let planned = [(45, plan(45).unwrap()), (62, plan(62).unwrap())];
    // The same times, repeated, as one multipoint plan; and an interval
    // reaching into the recent events.
    let times = [45, 62, 45].map(Timestamp);
    let multi = tail.read().index().plan_retrievals(&times, &opts).unwrap();
    let interval = tail
        .read()
        .index()
        .plan_interval(Timestamp(44), Timestamp(63), &opts)
        .unwrap();
    let interval_then = tail
        .read()
        .index()
        .get_snapshot_interval(Timestamp(44), Timestamp(63), &opts)
        .unwrap();
    let shards = sharded.shard_count();
    for i in 0..12 {
        append(70 + i, 9070 + i as u64);
    }
    assert!(sharded.shard_count() > shards, "the tail did not roll");
    let oracle = datagen::Dataset {
        name: "linear",
        events: replay,
    };
    for (t, retrieval) in planned {
        let t = Timestamp(t);
        let graphs = retrieval.execute::<Snapshot>().unwrap();
        assert_eq!(*graphs[0], oracle.snapshot_at(t), "t={t}");
    }
    let graphs = multi.execute::<Snapshot>().unwrap();
    for (graph, t) in graphs.iter().zip(times) {
        assert_eq!(**graph, oracle.snapshot_at(t), "t={t}");
    }
    assert_eq!(interval.execute().unwrap(), interval_then);
}

#[test]
fn response_bytes_put_after_a_roll_stay_on_the_shard_that_rendered_them() {
    // The exact race the pinned-handle API exists for: a reply is
    // rendered from the tail, a concurrent append rolls a new tail
    // (fresh epoch 0, same as the old tail's), and only then does the
    // renderer insert its bytes. The insert must land on the shard the
    // snapshot came from — where it is harmless — never on the new
    // tail, which would serve pre-roll bytes for post-roll queries.
    let sharded = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default()
            .with_shards(2)
            .with_shard_events(4)
            .with_manager(
                GraphManagerConfig::default()
                    .with_snapshot_cache(8)
                    .with_response_cache(8),
            ),
    )
    .unwrap();
    let opts = AttrOptions::all();
    let t = Timestamp(1000);
    let mut session = sharded.session();
    let bytes: Arc<[u8]> = b"pre-roll reply".to_vec().into();
    // Bytes are kept only for an admitted point, its second reference.
    let (first, point) = session.retrieve_cached_routed(t, &opts).unwrap();
    assert!(!first.response_cache_put(t, &opts, WireFormat::Text, Arc::clone(&bytes), point.epoch));
    let (old_shard, point) = session.retrieve_cached_routed(t, &opts).unwrap();
    assert!(point.overlay.is_some(), "the second reference is admitted");
    // The roll happens between the render and the insert.
    sharded.append_event(Event::add_node(100, 9000)).unwrap();
    assert_eq!(sharded.shard_count(), 3);
    assert!(
        old_shard.response_cache_put(t, &opts, WireFormat::Text, Arc::clone(&bytes), point.epoch),
        "the rendering shard's epoch is unchanged, so it may cache"
    );
    // t=1000 now routes to the rolled tail, whose cache never saw the
    // stale bytes.
    let owning = sharded.shard_for(t).unwrap();
    assert!(owning
        .response_cache_get(t, &opts, WireFormat::Text)
        .is_none());
    // And a fresh retrieval reflects the append.
    let snap = sharded.snapshot_at(t, &opts).unwrap();
    assert!(snap.has_node(tgraph::NodeId(9000)));
}

#[test]
fn rolled_shards_draw_their_store_from_the_factory() {
    let calls = Arc::new(AtomicUsize::new(0));
    let counting = {
        let calls = Arc::clone(&calls);
        move |_shard: usize| -> Arc<dyn KeyValueStore> {
            calls.fetch_add(1, Ordering::Relaxed);
            Arc::new(MemStore::new())
        }
    };
    let sharded = ShardedGraphManager::build(
        &linear_trace(),
        ShardedConfig::default().with_shards(2).with_shard_events(5),
        counting,
    )
    .unwrap();
    let built = sharded.shard_count();
    assert_eq!(calls.load(Ordering::Relaxed), built);
    // A roll must go back to the same factory (durable deployments keep
    // rolled history durable), not silently fall back to a MemStore.
    sharded.append_event(Event::add_node(100, 9000)).unwrap();
    assert_eq!(sharded.shard_count(), built + 1);
    assert_eq!(calls.load(Ordering::Relaxed), built + 1);
}

#[test]
fn multipoint_preserves_request_order_across_shards() {
    let sharded = router(3);
    let opts = AttrOptions::all();
    let times: Vec<Timestamp> = [55i64, 5, 35, 15, 45, 25]
        .into_iter()
        .map(Timestamp)
        .collect();
    let mut session = sharded.session();
    let snaps = session.get_graphs_at(&times, &opts).unwrap();
    assert_eq!(snaps.len(), times.len());
    for (t, snap) in times.iter().zip(&snaps) {
        assert_eq!(
            snap.node_count(),
            t.raw() as usize,
            "snapshot order must follow request order (t={})",
            t.raw()
        );
    }
    // Cold points are answered, not overlaid.
    assert!(session.handles().is_empty());
    let overlays = || -> usize { sharded.shard_infos().iter().map(|i| i.overlays).sum() };
    assert_eq!(overlays(), 0);
    // Once every point is cached (a second point reference admits it),
    // the multipoint shares the cached overlays across shard sessions.
    let mut warm = sharded.session();
    for &t in times.iter().chain(&times) {
        warm.retrieve_cached(t, &opts).unwrap();
    }
    assert_eq!(overlays(), times.len());
    let again = session.get_graphs_at(&times, &opts).unwrap();
    assert_eq!(again, snaps);
    assert_eq!(session.handles().len(), times.len());
    assert_eq!(session.release_now(), times.len());
}

#[test]
fn history_samples_span_shards() {
    let sharded = router(4);
    let times: Vec<Timestamp> = (0..=5).map(|i| Timestamp(i * 12)).collect();
    let snaps = sharded.snapshots_at(&times, &AttrOptions::all()).unwrap();
    for (t, snap) in times.iter().zip(&snaps) {
        assert_eq!(snap.node_count(), (t.raw().clamp(0, 60)) as usize);
    }
}

#[test]
fn interval_and_expr_are_range_restricted() {
    let sharded = router(3);
    let opts = AttrOptions::all();
    let session = sharded.session();
    // Fully inside shard 1 ([21, 41)): fine.
    let (graph, transients) = session
        .interval(Timestamp(25), Timestamp(30), &opts)
        .unwrap();
    assert_eq!(graph.node_count(), 5); // nodes 25..29
    assert!(transients.is_empty());
    // Spanning shards: a clear error, not a wrong answer.
    let err = session
        .interval(Timestamp(10), Timestamp(50), &opts)
        .unwrap_err();
    assert!(err.to_string().contains("spans shards"), "{err}");
    let tex = TimeExpression::diff(30i64, 25i64);
    assert!(session.expr(&tex, Timestamp(25), &opts).is_ok());
    let spanning = TimeExpression::diff(50i64, 10i64);
    let err = session.expr(&spanning, Timestamp(10), &opts).unwrap_err();
    assert!(err.to_string().contains("spans shards"), "{err}");
    // Answers are not overlaid: the session holds nothing.
    assert!(session.handles().is_empty());
    let shard = sharded.shard_for(Timestamp(25)).unwrap();
    assert_eq!(shard.read().pool().active_overlay_count(), 0);
}

#[test]
fn keys_registered_before_a_roll_survive_it() {
    let sharded = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default().with_shard_events(5),
    )
    .unwrap();
    sharded.register_key("alice", tgraph::NodeId(1001));
    sharded.append_event(Event::add_node(100, 9000)).unwrap();
    assert!(sharded.shard_count() > 1);
    assert_eq!(sharded.resolve_key("alice"), Some(tgraph::NodeId(1001)));
    // The rolled tail resolves it too.
    let tail = sharded.shard_handles().unwrap().pop().unwrap();
    assert_eq!(tail.read().resolve_key("alice"), Some(tgraph::NodeId(1001)));
}

#[test]
fn sessions_release_across_shards_on_drop() {
    let sharded = router(3);
    let opts = AttrOptions::all();
    {
        let mut session = sharded.session();
        for t in [10, 50, 10, 50] {
            session.retrieve_cached(Timestamp(t), &opts).unwrap();
        }
        let overlays: usize = sharded.shard_infos().iter().map(|i| i.overlays).sum();
        assert_eq!(overlays, 2);
    }
    // The cache (capacity 16) keeps the overlays warm, but the sessions'
    // own references are gone.
    for shared in sharded.shard_handles().unwrap() {
        let gm = shared.read();
        for entry in gm.cache_entries() {
            assert_eq!(entry.refs, 1, "only the cache reference remains");
        }
    }
}

#[test]
fn churn_trace_equivalence_with_appends() {
    let ds = churn_trace(&ChurnConfig::tiny(424));
    let mut single =
        GraphManager::build_in_memory(&ds.events, GraphManagerConfig::default()).unwrap();
    let sharded = ShardedGraphManager::build_in_memory(
        &ds.events,
        ShardedConfig::default().with_shards(4).with_shard_events(8),
    )
    .unwrap();
    let end = ds.end_time().raw();
    for i in 0..20 {
        let ev = Event::add_node(end + 1 + i, 77_000 + i as u64);
        single.append_event(ev.clone()).unwrap();
        sharded.append_event(ev).unwrap();
    }
    let opts = AttrOptions::all();
    for t in [
        ds.start_time().raw(),
        (ds.start_time().raw() + end) / 2,
        end,
        end + 10,
        end + 20,
    ] {
        assert_eq!(
            sharded.snapshot_at(Timestamp(t), &opts).unwrap(),
            single.index().get_snapshot(Timestamp(t), &opts).unwrap(),
            "t={t}"
        );
    }
}

fn durable_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sharded-durable-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tail WAL file of a durable directory.
fn tail_wal(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.extension().is_some_and(|x| x == "log")
                && p.file_name().is_some_and(|f| f != "keys.log")
        })
        .expect("wal file")
}

#[test]
fn durable_build_and_open_match_the_in_memory_router() {
    let dir = durable_dir("roundtrip");
    let ds = churn_trace(&ChurnConfig::tiny(77));
    let config = ShardedConfig::default()
        .with_shards(3)
        .with_shard_events(16);
    let mem = ShardedGraphManager::build_in_memory(&ds.events, config.clone()).unwrap();
    let built =
        ShardedGraphManager::build_durable(&ds.events, config.clone(), &dir, WalSyncPolicy::Off)
            .unwrap();
    assert!(built.is_durable() && !mem.is_durable());
    assert!(crate::durable::is_durable_dir(&dir));
    drop(built);
    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
    assert_eq!(opened.shard_count(), mem.shard_count());
    let opts = AttrOptions::all();
    let (lo, hi) = (ds.start_time().raw(), ds.end_time().raw());
    for t in [lo, (lo + hi) / 2, hi] {
        assert_eq!(
            opened.snapshot_at(Timestamp(t), &opts).unwrap(),
            mem.snapshot_at(Timestamp(t), &opts).unwrap(),
            "t={t}"
        );
    }
    let info = opened.storage_info();
    assert!(info.durable);
    assert_eq!(info.segments as usize, opened.shard_count() - 1);
    assert!(info.recovery_ms >= 1);
    assert_eq!(info.torn_truncations, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_appends_and_rolls_survive_a_reopen() {
    let dir = durable_dir("rolls");
    let config = ShardedConfig::default().with_shards(2).with_shard_events(5);
    let sharded = ShardedGraphManager::build_durable(
        &linear_trace(),
        config.clone(),
        &dir,
        WalSyncPolicy::Always,
    )
    .unwrap();
    // The built tail already exceeds the 5-event budget, so the first
    // append rolls a new shard; the rest land in the fresh tail.
    for i in 0..8u64 {
        sharded
            .append_event(Event::add_node(100 + i as i64, 9000 + i))
            .unwrap();
    }
    let shards = sharded.shard_count();
    let segments = sharded.storage_info().segments;
    assert!(shards >= 3, "expected a roll, got {shards} shards");
    assert_eq!(segments as usize, shards - 1);
    drop(sharded);

    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    assert_eq!(opened.shard_count(), shards);
    let snap = opened
        .snapshot_at(Timestamp(200), &AttrOptions::all())
        .unwrap();
    for i in 0..8u64 {
        assert!(snap.has_node(tgraph::NodeId(9000 + i)), "node {i} lost");
    }
    assert_eq!(snap.node_count(), 60 + 8);
    // Appending keeps working on the recovered tail.
    opened.append_event(Event::add_node(300, 9990)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_durable_tail_folds_appends_without_a_copy_each_and_reopens_to_the_same_answers() {
    // Appends fold into the tail's index under the full-copy rule; a
    // reopen rebuilds the tail from its log. Both answer alike.
    let dir = durable_dir("fold-replay");
    let ds = churn_trace(&ChurnConfig::tiny(53));
    let half = ds.events.len() / 2;
    let config = ShardedConfig::default().with_manager(
        GraphManagerConfig::default().with_index(deltagraph::DeltaGraphConfig::new(30, 2)),
    );
    let first = EventList::from_events(ds.events.events()[..half].to_vec());
    let sharded =
        ShardedGraphManager::build_durable(&first, config.clone(), &dir, WalSyncPolicy::Off)
            .unwrap();
    let leaves = |router: &ShardedGraphManager| {
        let tail = router.shard_handles().unwrap().pop().unwrap();
        let gm = tail.read();
        gm.index().skeleton().leaves().len()
    };
    let built = leaves(&sharded);
    for ev in &ds.events.events()[half..] {
        sharded.append_event(ev.clone()).unwrap();
    }
    let tail = sharded.shard_handles().unwrap().pop().unwrap();
    let (folds, copies) = {
        let gm = tail.read();
        let skeleton = gm.index().skeleton();
        let folded = &skeleton.leaves()[built..];
        let copies = skeleton
            .edges_from(skeleton.super_root())
            .filter(|e| folded.contains(&e.to))
            .count();
        (folded.len(), copies)
    };
    assert!(
        folds > 10 && copies >= 1 && copies < folds / 2,
        "{folds} folds, {copies} copies"
    );
    let opts = AttrOptions::all();
    let times = datagen::uniform_timepoints(ds.start_time(), ds.end_time(), 9);
    let answers: Vec<Snapshot> = times
        .iter()
        .map(|&t| sharded.snapshot_at(t, &opts).unwrap())
        .collect();
    drop((tail, sharded));
    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
    for (t, want) in times.iter().zip(&answers) {
        assert_eq!(&opened.snapshot_at(*t, &opts).unwrap(), want, "t={t}");
        assert_eq!(want, &ds.snapshot_at(*t), "t={t}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_wal_tail_is_truncated_on_open() {
    let dir = durable_dir("torn");
    let config = ShardedConfig::default().with_shards(1);
    let sharded = ShardedGraphManager::build_durable(
        &linear_trace(),
        config.clone(),
        &dir,
        WalSyncPolicy::Always,
    )
    .unwrap();
    sharded.append_event(Event::add_node(61, 9001)).unwrap();
    drop(sharded);
    // Simulate a crash mid-write: append half a record to the WAL.
    let wal = tail_wal(&dir);
    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .unwrap()
        .write_all(&[0xA1, 0xFF, 0x03])
        .unwrap();
    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    let info = opened.storage_info();
    assert_eq!(info.torn_truncations, 1);
    assert_eq!(info.torn_bytes, 3);
    let snap = opened
        .snapshot_at(Timestamp(61), &AttrOptions::all())
        .unwrap();
    assert!(snap.has_node(tgraph::NodeId(9001)));
    assert_eq!(snap.node_count(), 61);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_rejected_apply_record_is_dropped_on_first_tail_touch() {
    let dir = durable_dir("heal");
    let config = ShardedConfig::default().with_shards(2);
    let sharded = ShardedGraphManager::build_durable(
        &linear_trace(),
        config.clone(),
        &dir,
        WalSyncPolicy::Always,
    )
    .unwrap();
    drop(sharded);
    // Simulate a crash between the WAL write-ahead and the rollback of
    // a rejected apply: a well-framed, checksum-valid final record whose
    // event the rebuild must refuse (node 1001 already exists).
    let wal_file = tail_wal(&dir);
    let bad = Event::add_node(61, 1001);
    let mut replay = kvstore::wal::Wal::open(&wal_file, WalSyncPolicy::Always).unwrap();
    assert_eq!(replay.torn_bytes, 0);
    replay.wal.append(&bad).unwrap();
    drop(replay);
    let poisoned_len = std::fs::metadata(&wal_file).unwrap().len();

    // Open verifies frames, not semantics, so it accepts the record and
    // the cold tail counts it.
    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    let tail = opened.shard_count() - 1;
    let events_before = opened.shard_infos()[tail].events;
    // The first tail touch fails the build, drops exactly that record,
    // rebuilds, and serves the surviving history.
    let snap = opened
        .snapshot_at(Timestamp(60), &AttrOptions::all())
        .unwrap();
    assert_eq!(snap.node_count(), 60);
    assert_eq!(opened.shard_infos()[tail].events, events_before - 1);
    assert_eq!(
        std::fs::metadata(&wal_file).unwrap().len(),
        poisoned_len - kvstore::wal_record_len(&bad),
        "exactly the poisoned record must be dropped from the log"
    );
    // The healed tail keeps ingesting, and the heal is durable: a
    // second recovery replays a clean log.
    opened.append_event(Event::add_node(61, 9001)).unwrap();
    drop(opened);
    let reopened = ShardedGraphManager::open(
        &dir,
        ShardedConfig::default().with_shards(2),
        WalSyncPolicy::Always,
    )
    .unwrap();
    let snap = reopened
        .snapshot_at(Timestamp(61), &AttrOptions::all())
        .unwrap();
    assert_eq!(snap.node_count(), 61);
    assert!(snap.has_node(tgraph::NodeId(9001)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_defers_historical_shard_builds_until_first_touch() {
    let dir = durable_dir("lazy");
    let ds = churn_trace(&ChurnConfig::tiny(79));
    let config = ShardedConfig::default().with_shards(3);
    let mem = ShardedGraphManager::build_in_memory(&ds.events, config.clone()).unwrap();
    drop(
        ShardedGraphManager::build_durable(&ds.events, config.clone(), &dir, WalSyncPolicy::Off)
            .unwrap(),
    );

    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
    let shards = opened.shard_count();
    assert!(shards >= 2, "need a historical shard, got {shards}");
    // Every shard — tail included — came up cold; the stats, cache,
    // banner, and probe surfaces must all leave them cold.
    assert!(!opened.is_hydrated(shards - 1));
    assert!(!opened.is_hydrated(0));
    let infos = opened.shard_infos();
    assert_eq!(infos.len(), shards);
    assert_eq!(infos, mem.shard_infos(), "cold stats must match eager ones");
    let _ = opened.cache_overview();
    assert_eq!(
        opened.history_range().unwrap(),
        mem.history_range().unwrap()
    );
    assert!(opened
        .peek_cached(ds.start_time(), &AttrOptions::all())
        .is_none());
    assert!(!opened.is_hydrated(0), "a stats read must not hydrate");

    // A key registered while the shard is cold is visible after its
    // deferred build, exactly as if every shard had been built eagerly.
    let node = match ds.events.events()[0].kind {
        EventKind::AddNode { node } => node,
        ref k => panic!("first event should add a node, got {k:?}"),
    };
    opened.register_key("first", node);
    assert_eq!(opened.resolve_key("first"), Some(node));

    // First touch hydrates exactly the owning shard, and the answer
    // matches the in-memory router's.
    let t = ds.start_time();
    let opts = AttrOptions::all();
    assert_eq!(
        opened.snapshot_at(t, &opts).unwrap(),
        mem.snapshot_at(t, &opts).unwrap()
    );
    assert!(opened.is_hydrated(0));
    assert_eq!(
        opened.shard_at(0).unwrap().read().resolve_key("first"),
        Some(node),
        "registry must replay onto the hydrated shard"
    );
    // The tail stays cold through all of the above and hydrates on its
    // first append, which remains durable.
    assert!(!opened.is_hydrated(shards - 1));
    opened
        .append_event(Event::add_node(ds.end_time().raw() + 1, 777_777))
        .unwrap();
    assert!(opened.is_hydrated(shards - 1));
    assert!(opened.storage_info().wal_appends >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_and_hydrated_shards_report_identical_bounds() {
    let dir = durable_dir("bounds");
    let ds = churn_trace(&ChurnConfig::tiny(83));
    let config = ShardedConfig::default().with_shards(4);
    drop(
        ShardedGraphManager::build_durable(&ds.events, config.clone(), &dir, WalSyncPolicy::Off)
            .unwrap(),
    );
    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
    let shards = opened.shard_count();
    assert!(shards >= 3, "need seeded shards, got {shards}");
    // `STATS SHARDS` rows and the per-shard time range, every shard cold.
    let bounds = |router: &ShardedGraphManager| -> Vec<_> {
        let cells = router.read_shards();
        router
            .shard_infos()
            .into_iter()
            .zip(cells.iter())
            .map(|(info, s)| {
                let range = (s.cell.start_time(), s.cell.end_time());
                (info.lower, info.upper, info.events, range)
            })
            .collect()
    };
    let cold = bounds(&opened);
    let cold_range = opened.history_range().unwrap();
    for i in 0..shards {
        assert!(!opened.is_hydrated(i), "shard {i} must start cold");
    }
    for (i, (lower, _, _, estimate)) in cold.iter().enumerate() {
        let range = opened
            .shard_at(i)
            .unwrap()
            .read()
            .index()
            .history_range()
            .unwrap();
        assert_eq!(*estimate, (Some(range.0), Some(range.1)), "shard {i}");
        if let Some(lower) = lower {
            // A seeded shard's history starts at its seed: the state
            // one tick below the routing bound.
            assert_eq!(range.0, lower.prev(), "shard {i}");
        }
    }
    assert_eq!(bounds(&opened), cold, "first touch must not move a bound");
    assert_eq!(opened.history_range().unwrap(), cold_range);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_tail_healed_down_to_its_seed_serves_and_ingests() {
    let dir = durable_dir("seed-only");
    let config = ShardedConfig::default().with_shards(2).with_shard_events(5);
    let sharded = ShardedGraphManager::build_durable(
        &linear_trace(),
        config.clone(),
        &dir,
        WalSyncPolicy::Always,
    )
    .unwrap();
    // The built tail is over budget: this append rolls a fresh tail whose
    // WAL holds exactly the trigger record.
    sharded.append_event(Event::add_node(100, 9000)).unwrap();
    let shards = sharded.shard_count();
    drop(sharded);
    // Replace that record with one the rebuild must refuse (node 1001 is
    // in the seed): the crash window between write-ahead and rollback.
    let bad = Event::add_node(100, 1001);
    let mut replay = kvstore::wal::Wal::open(tail_wal(&dir), WalSyncPolicy::Always).unwrap();
    assert_eq!(replay.events.len(), 1);
    replay.wal.truncate_to(0).unwrap();
    replay.wal.append(&bad).unwrap();
    drop(replay);

    let opened = ShardedGraphManager::open(&dir, config.clone(), WalSyncPolicy::Always).unwrap();
    assert_eq!(opened.shard_count(), shards);
    let tail = shards - 1;
    let opts = AttrOptions::all();
    // First touch: the build fails, the heal drops the only record, and
    // the tail comes up as its seed alone — a one-leaf index.
    assert_eq!(
        opened
            .snapshot_at(Timestamp(100), &opts)
            .unwrap()
            .node_count(),
        60
    );
    assert_eq!(opened.shard_infos()[tail].events, 0);
    assert_eq!(std::fs::metadata(tail_wal(&dir)).unwrap().len(), 0);
    let tail_shard = opened.shard_at(tail).unwrap();
    assert_eq!(tail_shard.read().index().skeleton().leaves().len(), 1);
    assert_eq!(
        opened.history_range().unwrap(),
        (Timestamp(0), Timestamp(99))
    );
    // An append onto the seeded tail, read on both sides of it.
    opened.append_event(Event::add_node(105, 9001)).unwrap();
    for (t, nodes) in [(99, 60), (100, 60), (104, 60), (105, 61), (1000, 61)] {
        let snap = opened.snapshot_at(Timestamp(t), &opts).unwrap();
        assert_eq!(snap.node_count(), nodes, "t={t}");
        assert_eq!(snap.has_node(tgraph::NodeId(9001)), t >= 105, "t={t}");
    }
    drop(tail_shard);
    drop(opened);
    // The heal and the append are both durable.
    let reopened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    let snap = reopened.snapshot_at(Timestamp(105), &opts).unwrap();
    assert_eq!(snap.node_count(), 61);
    assert_eq!(reopened.shard_infos()[tail].events, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_roll_over_a_malformed_batch_leaves_the_old_tail_in_place() {
    let dir = durable_dir("bad-roll");
    let sharded = ShardedGraphManager::build_durable(
        &linear_trace(),
        ShardedConfig::default().with_shards(2).with_shard_events(5),
        &dir,
        WalSyncPolicy::Always,
    )
    .unwrap();
    let shards_before = sharded.shard_count();
    let segments_before = sharded.storage_info().segments;
    {
        // Past the append boundary's own validation: a sequence that
        // re-adds a node the seed already holds fails the seeded build.
        let mut shards = sharded.write_shards();
        let shared = shards.last().unwrap().shared(&sharded.inner).unwrap();
        let malformed = [Event::add_node(100, 9000), Event::add_node(101, 1001)];
        let err = sharded
            .roll_tail(&mut shards, shared.write(), &malformed)
            .unwrap_err();
        assert!(matches!(err, DgError::Model(_)), "{err}");
        assert_eq!(shards.len(), shards_before);
    }
    assert_eq!(sharded.storage_info().segments, segments_before);
    let opts = AttrOptions::all();
    let snap = sharded.snapshot_at(Timestamp(101), &opts).unwrap();
    assert_eq!(snap.node_count(), 60);
    assert!(!snap.has_node(tgraph::NodeId(9000)));
    // The old tail still ingests — and this well-formed append rolls.
    sharded.append_event(Event::add_node(100, 9000)).unwrap();
    assert_eq!(sharded.shard_count(), shards_before + 1);
    assert_eq!(sharded.storage_info().segments, segments_before + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Appends `n` records to the durable dir's WAL that the rebuild must
/// refuse (duplicate node ids), simulating a crash that left applied-
/// rejected records behind. One such record is healed by the tail's
/// drop-last-record retry; two exceed it and quarantine the tail.
fn poison_tail_wal(dir: &std::path::Path, n: usize) {
    let mut replay = kvstore::wal::Wal::open(tail_wal(dir), WalSyncPolicy::Always).unwrap();
    for i in 0..n {
        // Node 1001 + i already exists in `linear_trace()`.
        replay
            .wal
            .append(&Event::add_node(61 + i as i64, 1001 + i as u64))
            .unwrap();
    }
}

#[test]
fn a_failed_fan_out_keeps_the_sessions_overlays_on_other_shards() {
    let dir = durable_dir("fanout-keep");
    let config = ShardedConfig::default()
        .with_shards(2)
        .with_manager(GraphManagerConfig::default().with_snapshot_cache(8));
    drop(
        ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap(),
    );
    // Two refused records quarantine the tail on its first touch.
    poison_tail_wal(&dir, 2);
    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    let opts = AttrOptions::all();
    let mut session = opened.session();
    session.retrieve_cached(Timestamp(10), &opts).unwrap();
    session.retrieve_cached(Timestamp(10), &opts).unwrap();
    let held = session.handles();
    let refs = || {
        opened
            .shard_at(0)
            .unwrap()
            .read()
            .pool()
            .refcount(held[0].0)
    };
    let before = refs();
    assert_eq!(before, Some(2), "the cache's reference plus the session's");
    // Shard 0 resolves, the quarantined tail does not: the query fails
    // and the overlay the session already held on shard 0 must survive.
    let err = session
        .get_graphs_at(&[Timestamp(10), Timestamp(61)], &opts)
        .unwrap_err();
    assert!(matches!(err, DgError::ShardQuarantined { .. }), "{err}");
    assert_eq!(session.handles(), held);
    assert_eq!(refs(), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_one_event_batch_writes_ahead_exactly_like_an_append() {
    let run = |name: &str, batch: bool| {
        let dir = durable_dir(name);
        let router = ShardedGraphManager::build_durable(
            &linear_trace(),
            ShardedConfig::default().with_shards(2),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();
        let before = router.storage_info();
        let event = Event::add_node(61, 9001);
        if batch {
            router.append_batch_with(|_| vec![event.clone()]).unwrap();
        } else {
            router.append_with(|_| event.clone()).unwrap();
        }
        let info = router.storage_info();
        assert_eq!(info.wal_appends, before.wal_appends + 1);
        assert_eq!(info.wal_fsyncs, before.wal_fsyncs + 1);
        let wal = std::fs::read(tail_wal(&dir)).unwrap();
        drop(router);
        std::fs::remove_dir_all(&dir).ok();
        (wal, info)
    };
    assert_eq!(run("wal-append", false), run("wal-batch", true));
}

#[test]
fn a_tail_that_fails_hydration_is_quarantined_and_fast_fails() {
    let dir = durable_dir("quarantine");
    let config = ShardedConfig::default().with_shards(2);
    drop(
        ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap(),
    );
    poison_tail_wal(&dir, 2);
    let opened = ShardedGraphManager::open(
        &dir,
        config.with_quarantine_retry_ms(600_000),
        WalSyncPolicy::Always,
    )
    .unwrap();
    let tail = opened.shard_count() - 1;
    let opts = AttrOptions::all();
    // First touch runs the build (and the one-record heal retry), fails
    // on the second poisoned record, and quarantines the tail.
    let err = opened.snapshot_at(Timestamp(61), &opts).unwrap_err();
    assert!(
        matches!(err, DgError::ShardQuarantined { .. }),
        "expected quarantine, got {err}"
    );
    // Touches inside the retry window fast-fail without re-attempting.
    let err = opened.snapshot_at(Timestamp(61), &opts).unwrap_err();
    assert!(err.to_string().contains("quarantined"), "{err}");
    let health = opened.health_info();
    assert_eq!(health.shards[tail].state, "quarantined");
    assert_eq!(health.shards[tail].failures, 1, "fast-fail must not retry");
    assert_eq!(health.quarantined, 1);
    assert_eq!(health.hydration_failures, 1);
    // Healthy shards are untouched and keep serving.
    let snap = opened.snapshot_at(Timestamp(10), &opts).unwrap();
    assert_eq!(snap.node_count(), 10);
    assert_eq!(opened.health_info().shards[0].state, "ready");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_quarantined_tail_recovers_once_the_bad_records_drain() {
    let dir = durable_dir("requarantine");
    let config = ShardedConfig::default().with_shards(2);
    drop(
        ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap(),
    );
    poison_tail_wal(&dir, 2);
    let opened = ShardedGraphManager::open(
        &dir,
        config.with_quarantine_retry_ms(0),
        WalSyncPolicy::Always,
    )
    .unwrap();
    let opts = AttrOptions::all();
    // Touch 1: the heal retry drops one poisoned record, the build
    // still fails on the other — quarantined.
    let err = opened.snapshot_at(Timestamp(61), &opts).unwrap_err();
    assert!(err.to_string().contains("quarantined"), "{err}");
    // Retry window 0: the next touch re-hydrates; the heal retry drops
    // the remaining poisoned record and the build succeeds.
    let snap = opened.snapshot_at(Timestamp(61), &opts).unwrap();
    assert_eq!(snap.node_count(), 60);
    let health = opened.health_info();
    assert_eq!(health.shards.last().unwrap().state, "ready");
    assert_eq!(health.quarantined, 0);
    assert_eq!(health.hydration_failures, 1, "the counter is monotonic");
    // The recovered tail ingests again, durably.
    opened.append_event(Event::add_node(70, 9001)).unwrap();
    drop(opened);
    let reopened = ShardedGraphManager::open(
        &dir,
        ShardedConfig::default().with_shards(2),
        WalSyncPolicy::Always,
    )
    .unwrap();
    let snap = reopened.snapshot_at(Timestamp(70), &opts).unwrap();
    assert!(snap.has_node(tgraph::NodeId(9001)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn key_bindings_survive_a_router_reopen() {
    let dir = durable_dir("router-keys");
    let config = ShardedConfig::default().with_shards(2);
    let built = ShardedGraphManager::build_durable(
        &linear_trace(),
        config.clone(),
        &dir,
        WalSyncPolicy::Always,
    )
    .unwrap();
    built.register_key("alice", tgraph::NodeId(1001));
    built.register_key("alice", tgraph::NodeId(1002)); // latest wins
    built.register_key("bob", tgraph::NodeId(1003));
    drop(built);
    let opened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    assert_eq!(opened.resolve_key("alice"), Some(tgraph::NodeId(1002)));
    assert_eq!(opened.resolve_key("bob"), Some(tgraph::NodeId(1003)));
    // The recovered registry replays onto lazily hydrated shards too.
    assert_eq!(
        opened.shard_at(0).unwrap().read().resolve_key("bob"),
        Some(tgraph::NodeId(1003))
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_degraded_tail_keeps_serving_reads_and_reports_health() {
    let dir = durable_dir("degraded-router");
    let config = ShardedConfig::default().with_shards(2);
    let sharded =
        ShardedGraphManager::build_durable(&linear_trace(), config, &dir, WalSyncPolicy::Always)
            .unwrap();
    let scope = dir.to_string_lossy().to_string();
    kvstore::faults::arm_scoped(
        "wal.append",
        kvstore::FaultKind::Eio,
        0,
        Some(1),
        Some(&scope),
    );
    let err = sharded.append_event(Event::add_node(61, 9001)).unwrap_err();
    assert!(err.to_string().contains("DEGRADED"), "{err}");
    // Degradation is sticky until restart even though the fault cleared.
    let err = sharded.append_event(Event::add_node(62, 9002)).unwrap_err();
    assert!(err.to_string().contains("DEGRADED"), "{err}");
    // Reads keep serving the whole history.
    let snap = sharded
        .snapshot_at(Timestamp(60), &AttrOptions::all())
        .unwrap();
    assert_eq!(snap.node_count(), 60);
    let health = sharded.health_info();
    assert!(health.degraded);
    assert!(!health.degraded_reason.is_empty());
    assert_eq!(health.shards.last().unwrap().state, "degraded");
    assert_eq!(health.shards[0].state, "ready");
    kvstore::faults::clear("wal.append");
    std::fs::remove_dir_all(&dir).ok();
}
