//! End-to-end tests of the time-range-sharded serving layer: concurrent
//! sessions appending to the tail shard while others read historical points
//! on other shards, multipoint fan-out ordering, per-shard error surfacing,
//! response-cache survival across ingest, and tail rolling — all over the
//! wire.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;

use historygraph::tgraph::{Event, EventList};
use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager};
use server::{serve_sharded, Client, ServerConfig, ServerHandle};

/// 60 nodes appearing at t = 1..=60, so every snapshot's node count equals
/// its timestamp and shard contents are predictable.
fn linear_trace() -> EventList {
    EventList::from_events(
        (1..=60)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    )
}

fn start(shards: usize, shard_events: usize) -> (ServerHandle, ShardedGraphManager) {
    let router = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default()
            .with_shards(shards)
            .with_shard_events(shard_events)
            .with_manager(
                GraphManagerConfig::default()
                    .with_snapshot_cache(32)
                    .with_response_cache(32),
            ),
    )
    .unwrap();
    let handle = serve_sharded(
        router.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 32,
            ..Default::default()
        },
    )
    .unwrap();
    (handle, router)
}

/// Reads one `name=value` field off a `STATS SHARDS` line.
fn shard_field(lines: &[String], shard: usize, name: &str) -> u64 {
    let prefix = format!("S {shard} ");
    lines
        .iter()
        .find(|l| l.starts_with(&prefix))
        .and_then(|line| {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} on shard {shard}: {lines:?}"))
}

#[test]
fn concurrent_tail_appends_never_lose_events_and_leave_history_alone() {
    let (server, router) = start(3, 0);
    let addr = server.addr();
    const WRITERS: usize = 4;
    const APPENDS_PER_WRITER: i64 = 25;

    // Prime a historical point on shard 0 so its caches hold entries the
    // ingest must not touch: first request misses and inserts, second hits.
    let mut prober = Client::connect(addr).unwrap();
    let before_reply = prober.send_ok("GET GRAPH AT 15 WITH +node:all").unwrap();
    prober.send_ok("GET GRAPH AT 15 WITH +node:all").unwrap();
    let before = prober.send_ok("STATS SHARDS").unwrap();
    assert_eq!(shard_field(&before, 0, "cache_entries"), 1);
    assert_eq!(shard_field(&before, 0, "rc_entries"), 1);
    let tail_events_before = shard_field(&before, 2, "events");

    // Appends draw increasing times from one shared counter. Two writers'
    // events can still reach the tail out of order — the tail's chronology
    // check rejects those, and that rejection must be the *only* failure
    // mode; every acknowledged append must survive.
    let next_t = Arc::new(AtomicI64::new(61));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let next_t = Arc::clone(&next_t);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut appended = 0u64;
                for i in 0..APPENDS_PER_WRITER {
                    let t = next_t.fetch_add(1, Ordering::Relaxed);
                    let node = 10_000 + w as i64 * 1_000 + i;
                    let lines = c.send(&format!("APPEND NODE {t} {node}")).unwrap();
                    if lines[0].starts_with("OK APPENDED") {
                        appended += 1;
                    } else {
                        assert!(
                            lines[0].contains("appended after"),
                            "only chronology races may reject an append: {lines:?}"
                        );
                    }
                }
                appended
            })
        })
        .collect();
    let readers: Vec<_> = [15i64, 45]
        .into_iter()
        .map(|t| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..40 {
                    let lines = c.send(&format!("GET GRAPH AT {t}")).unwrap();
                    assert!(
                        lines[0].starts_with(&format!("OK GRAPH t={t} nodes={t}")),
                        "historical point changed under ingest: {lines:?}"
                    );
                }
            })
        })
        .collect();
    let appended: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        appended > 0 && appended <= (WRITERS as i64 * APPENDS_PER_WRITER) as u64,
        "{appended}"
    );

    // No lost events: the final snapshot holds the full history plus every
    // append that was acknowledged.
    let final_t = next_t.load(Ordering::Relaxed);
    let lines = prober.send_ok(&format!("GET GRAPH AT {final_t}")).unwrap();
    assert!(
        lines[0].starts_with(&format!("OK GRAPH t={final_t} nodes={}", 60 + appended)),
        "{:?}",
        &lines[0]
    );

    // Chronology errors surface per shard: a write into a historical
    // shard's range is refused by the router...
    let err = prober.send("APPEND NODE 5 99999").unwrap();
    assert!(err[0].starts_with("ERR"), "{err:?}");
    assert!(err[0].contains("immutable"), "{err:?}");
    // ...and an out-of-order write inside the tail's range is refused by
    // the tail shard's own chronology check.
    let err = prober.send("APPEND NODE 62 99999").unwrap();
    assert!(err[0].starts_with("ERR"), "{err:?}");
    assert!(err[0].contains("appended after"), "{err:?}");

    // The historical shard's caches survived the ingest: entries intact
    // (the readers added their own for other attr options), zero
    // invalidations, and the cached reply bytes are still served verbatim.
    let after = prober.send_ok("STATS SHARDS").unwrap();
    assert!(shard_field(&after, 0, "cache_entries") >= 1);
    assert_eq!(shard_field(&after, 0, "cache_invalidations"), 0);
    assert!(shard_field(&after, 0, "rc_entries") >= 1);
    let rc_hits_before = shard_field(&after, 0, "rc_hits");
    let after_reply = prober.send_ok("GET GRAPH AT 15 WITH +node:all").unwrap();
    assert_eq!(after_reply, before_reply, "cached historical reply changed");
    let after2 = prober.send_ok("STATS SHARDS").unwrap();
    assert_eq!(shard_field(&after2, 0, "rc_hits"), rc_hits_before + 1);

    // Sanity: the tail did absorb the ingest.
    assert_eq!(router.shard_count(), 3);
    let tail_events = shard_field(&after2, 2, "events");
    assert_eq!(tail_events, tail_events_before + appended);
}

#[test]
fn multipoint_fanout_returns_request_order_even_across_shards() {
    let (server, _router) = start(3, 0);
    let mut client = Client::connect(server.addr()).unwrap();
    // Times deliberately interleave the shards (2, 0, 1, 0, 2, 1), so any
    // completion-order reassembly would scramble them; repeat to give a
    // racy implementation every chance to fail.
    let times = [55i64, 5, 35, 15, 45, 25];
    for _ in 0..10 {
        let lines = client
            .send_ok("GET GRAPHS AT 55, 5, 35, 15, 45, 25")
            .unwrap();
        assert!(lines[0].starts_with("OK GRAPHS count=6"), "{:?}", &lines[0]);
        let headers: Vec<&String> = lines.iter().filter(|l| l.starts_with("GRAPH t=")).collect();
        assert_eq!(headers.len(), times.len());
        for (t, header) in times.iter().zip(headers) {
            assert!(
                header.starts_with(&format!("GRAPH t={t} nodes={t} ")),
                "snapshots out of request order: {header}"
            );
        }
        client.send_ok("RELEASE ALL").unwrap();
    }
}

#[test]
fn tail_rolls_over_the_wire_and_history_stays_queryable() {
    let (server, router) = start(2, 10);
    let mut client = Client::connect(server.addr()).unwrap();
    let shards_before = router.shard_count();
    // The built tail is already over budget, so the first strictly-later
    // append rolls a fresh shard; keep appending through another roll.
    for i in 0..25 {
        let t = 100 + i;
        let lines = client
            .send(&format!("APPEND NODE {t} {}", 20_000 + i))
            .unwrap();
        assert!(lines[0].starts_with("OK APPENDED"), "{lines:?}");
    }
    let lines = client.send_ok("STATS SHARDS").unwrap();
    let count: usize = lines[0]
        .strip_prefix("OK SHARDS count=")
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        count > shards_before,
        "tail should have rolled: {count} shards"
    );
    assert_eq!(router.shard_count(), count);
    // Every era of the history answers correctly: built trace, pre-roll
    // appends, and the final state.
    let g = client.send_ok("GET GRAPH AT 30").unwrap();
    assert!(g[0].starts_with("OK GRAPH t=30 nodes=30"), "{:?}", &g[0]);
    let g = client.send_ok("GET GRAPH AT 105").unwrap();
    assert!(g[0].starts_with("OK GRAPH t=105 nodes=66"), "{:?}", &g[0]);
    let g = client.send_ok("GET GRAPH AT 124").unwrap();
    assert!(g[0].starts_with("OK GRAPH t=124 nodes=85"), "{:?}", &g[0]);
}

#[test]
fn disconnect_releases_overlays_on_every_shard() {
    let (server, router) = start(3, 0);
    {
        let mut client = Client::connect(server.addr()).unwrap();
        let overlays = || -> usize { router.shard_infos().iter().map(|i| i.overlays).sum() };
        // Cold points are answered without overlays.
        client.send_ok("GET GRAPHS AT 10, 30, 50").unwrap();
        assert_eq!(overlays(), 0);
        // A second point reference admits each point on its shard (the
        // multipoint's probes are not point references), and the multipoint
        // then holds a reference to each cached overlay.
        for t in [10, 30, 50, 10, 30, 50] {
            client.send_ok(&format!("GET GRAPH AT {t}")).unwrap();
        }
        client.send_ok("GET GRAPHS AT 10, 30, 50").unwrap();
        assert_eq!(overlays(), 3);
        assert_eq!(
            client.send_ok("RELEASE ALL").unwrap(),
            vec!["OK RELEASED 6"]
        );
        client.send_ok("GET GRAPHS AT 10, 30, 50").unwrap();
    }
    // The client dropped; every shard's session reference must go. Cached
    // overlays stay warm holding exactly the cache's own reference.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let leaked = router.shard_handles().unwrap().iter().any(|shared| {
            let gm = shared.read();
            gm.cache_entries().iter().any(|e| e.refs > 1)
        });
        if !leaked {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session references were not released on every shard"
        );
        thread::sleep(std::time::Duration::from_millis(10));
    }
}
