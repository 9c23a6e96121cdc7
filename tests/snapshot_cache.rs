//! End-to-end tests of the shared snapshot cache over the TCP server:
//! admission on a point's second reference, cross-session overlay sharing
//! (observed through `STATS CACHE` reference counts), invalidation on
//! `APPEND`, and reference release on client disconnect.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use historygraph::datagen::toy_trace;
use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager, SharedGraphManager};
use histql::Executor;
use server::{serve_sharded, Client, ServerConfig, ServerHandle};

/// A server over a one-shard router, plus that shard.
fn start(cache: usize) -> (ServerHandle, SharedGraphManager) {
    start_with(GraphManagerConfig::default().with_snapshot_cache(cache))
}

fn start_with(config: GraphManagerConfig) -> (ServerHandle, SharedGraphManager) {
    let router = ShardedGraphManager::build_in_memory(
        &toy_trace().events,
        ShardedConfig::default().with_manager(config),
    )
    .unwrap();
    let server = serve_sharded(router.clone(), ServerConfig::default()).unwrap();
    (server, router.shard_at(0).unwrap())
}

/// Parses `name=value` integers out of a `STATS CACHE` line.
fn field(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name}= in {line:?}"))
}

/// Waits until the pool's overlay count settles to `expected` (disconnect
/// cleanup runs on the connection thread, slightly after the client drops).
fn await_overlays(shared: &SharedGraphManager, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let count = shared.read().pool().active_overlay_count();
        if count == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "pool stuck at {count} overlays (want {expected})"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

/// A point asked for once is answered and leaves nothing behind: no
/// overlay, no entry in either cache, no reference to release. So do cold
/// multipoint, interval and expression queries. The second reference
/// admits the point.
#[test]
fn a_first_reference_is_answered_without_an_overlay_or_a_cache_entry() {
    let (server, shared) = start_with(
        GraphManagerConfig::default()
            .with_snapshot_cache(16)
            .with_response_cache(16),
    );
    let mut client = Client::connect(server.addr()).unwrap();
    let first = client.send_ok("GET GRAPH AT 6").unwrap();
    client.send_ok("GET GRAPHS AT 3, 9").unwrap();
    client.send_ok("GET GRAPH BETWEEN 2 AND 8").unwrap();
    client.send_ok("DIFF 9 6").unwrap();
    let cache = client.send_ok("STATS CACHE").unwrap();
    assert_eq!(field(&cache[0], "entries"), 0, "{cache:?}");
    assert_eq!(field(&cache[0], "overlays"), 0, "{cache:?}");
    assert_eq!(field(&cache[0], "insertions"), 0, "{cache:?}");
    let rc = cache
        .iter()
        .find(|l| l.starts_with("RC "))
        .expect("RC line");
    assert_eq!(field(rc, "entries"), 0, "{rc}");
    assert_eq!(field(rc, "insertions"), 0, "{rc}");
    assert_eq!(
        client.send_ok("RELEASE ALL").unwrap(),
        vec!["OK RELEASED 0"]
    );
    assert_eq!(shared.read().pool().active_overlay_count(), 0);

    // The second reference is admitted: one entry, held by the cache and
    // this session, and its reply bytes are cached too.
    let second = client.send_ok("GET GRAPH AT 6").unwrap();
    assert_eq!(second, first);
    let cache = client.send_ok("STATS CACHE").unwrap();
    assert_eq!(field(&cache[0], "entries"), 1, "{cache:?}");
    assert_eq!(field(&cache[0], "overlays"), 1, "{cache:?}");
    let entry = cache.iter().find(|l| l.starts_with("C t=6 ")).unwrap();
    assert_eq!(field(entry, "refs"), 2, "{entry}");
    let rc = cache.iter().find(|l| l.starts_with("RC ")).unwrap();
    assert_eq!(field(rc, "entries"), 1, "{rc}");
    assert_eq!(
        client.send_ok("RELEASE ALL").unwrap(),
        vec!["OK RELEASED 1"]
    );
}

#[test]
fn concurrent_sessions_at_one_instant_share_one_overlay() {
    const CLIENTS: usize = 6;
    let (server, shared) = start(16);
    let addr = server.addr();
    let line = "GET GRAPH AT 6 WITH +node:all+edge:all";
    // A first reference, so the concurrent ones below are repeats.
    Client::connect(addr).unwrap().send_ok(line).unwrap();

    // CLIENTS concurrent sessions all retrieving the same (t, opts) at once:
    // whatever the interleaving, they must end up sharing one overlay, and
    // every response must be byte-identical.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let lines = client.send_ok(line).unwrap();
                // Hold the connection (and thus the session's reference)
                // until every response is in.
                (client, lines)
            })
        })
        .collect();
    let mut results: Vec<(Client, Vec<String>)> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    for (_, lines) in &results {
        assert_eq!(lines, &results[0].1, "responses must be identical");
    }

    // Exactly one overlay exists, with one reference per session plus the
    // cache's own — observed both in-process and over the wire.
    assert_eq!(shared.read().pool().active_overlay_count(), 1);
    let (probe, _) = &mut results[0];
    let cache = probe.send_ok("STATS CACHE").unwrap();
    assert_eq!(field(&cache[0], "entries"), 1);
    assert_eq!(field(&cache[0], "overlays"), 1);
    // The first reference's miss, and the one miss that admitted the point.
    assert_eq!(field(&cache[0], "misses"), 2, "{:?}", cache[0]);
    assert_eq!(
        field(&cache[0], "hits"),
        CLIENTS as u64 - 1,
        "{:?}",
        cache[0]
    );
    let entry = cache
        .iter()
        .find(|l| l.starts_with("C t=6 "))
        .expect("entry line");
    assert_eq!(field(entry, "refs"), CLIENTS as u64 + 1);

    // Disconnecting clients decrements the shared refcount one by one.
    let (probe, _) = results.pop().unwrap();
    drop(results); // CLIENTS-1 sessions gone
    let mut probe = probe;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let cache = probe.send_ok("STATS CACHE").unwrap();
        let entry = cache.iter().find(|l| l.starts_with("C t=6 ")).unwrap();
        let refs = field(entry, "refs");
        if refs == 2 {
            break; // this probe's session + the cache
        }
        assert!(Instant::now() < deadline, "refs stuck at {refs}");
        thread::sleep(Duration::from_millis(10));
    }
    drop(probe);
    // All sessions gone: the cache alone keeps the overlay warm.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let cache_ref_only = {
            let gm = shared.read();
            let overlay = gm.cache_entries()[0].overlay;
            gm.pool().refcount(overlay) == Some(1)
        };
        if cache_ref_only {
            break;
        }
        assert!(Instant::now() < deadline, "cache ref not restored");
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(shared.read().pool().active_overlay_count(), 1);
}

#[test]
fn append_invalidates_entries_at_or_after_the_event_time() {
    let (server, shared) = start(16);
    let mut client = Client::connect(server.addr()).unwrap();
    for t in [6, 25, 6, 25] {
        client.send_ok(&format!("GET GRAPH AT {t}")).unwrap();
    }
    let cache = client.send_ok("STATS CACHE").unwrap();
    assert_eq!(field(&cache[0], "entries"), 2);

    client.send_ok("APPEND NODE 20 777").unwrap();
    let cache = client.send_ok("STATS CACHE").unwrap();
    assert_eq!(field(&cache[0], "entries"), 1, "{:?}", cache);
    assert!(
        cache.iter().any(|l| l.starts_with("C t=6 ")),
        "the entry before the append point must survive: {cache:?}"
    );
    assert_eq!(field(&cache[0], "invalidations"), 1);

    // A re-retrieval at 25 sees the appended node and re-caches: the
    // point was asked for before, so this reference is a repeat.
    let graph = client.send_ok("GET GRAPH AT 25").unwrap();
    assert!(graph.iter().any(|l| l == "N 777"), "{graph:?}");
    let cache = client.send_ok("STATS CACHE").unwrap();
    assert_eq!(field(&cache[0], "entries"), 2);
    assert_eq!(shared.read().cache_stats().invalidations, 1);
}

#[test]
fn release_all_drops_only_the_issuing_sessions_references() {
    let (server, shared) = start(16);
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    // a's first reference holds nothing; b's admits the point; a's second
    // hits it.
    a.send_ok("GET GRAPH AT 6").unwrap();
    b.send_ok("GET GRAPH AT 6").unwrap();
    a.send_ok("GET GRAPH AT 6").unwrap();
    let cache = a.send_ok("STATS CACHE").unwrap();
    let entry = cache.iter().find(|l| l.starts_with("C t=6 ")).unwrap();
    assert_eq!(field(entry, "refs"), 3); // cache + a + b

    assert_eq!(a.send_ok("RELEASE ALL").unwrap(), vec!["OK RELEASED 1"]);
    let cache = b.send_ok("STATS CACHE").unwrap();
    let entry = cache.iter().find(|l| l.starts_with("C t=6 ")).unwrap();
    assert_eq!(field(entry, "refs"), 2); // cache + b

    // b still reads its graph through the shared overlay
    let lines = b.send_ok("GET GRAPH AT 6").unwrap();
    assert!(lines[0].starts_with("OK GRAPH t=6"));
    drop(a);
    drop(b);
    await_overlays(&shared, 1); // the cached overlay outlives both sessions
}

#[test]
fn cache_disabled_server_behaves_like_before() {
    let (server, shared) = start(0);
    {
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        a.send_ok("GET GRAPH AT 6").unwrap();
        b.send_ok("GET GRAPH AT 6").unwrap();
        a.send_ok("GET GRAPH AT 6").unwrap();
        // No cache, nothing admitted: no session holds an overlay.
        assert_eq!(shared.read().pool().active_overlay_count(), 0);
        assert_eq!(a.send_ok("RELEASE ALL").unwrap(), vec!["OK RELEASED 0"]);
        let cache = a.send_ok("STATS CACHE").unwrap();
        assert_eq!(field(&cache[0], "capacity"), 0);
        assert_eq!(field(&cache[0], "hits"), 0);
        assert_eq!(field(&cache[0], "misses"), 0);
    }
    await_overlays(&shared, 0);
}

/// The cache keeps overlays, not snapshots: a hit whose rendered bytes are
/// not cached is rendered from the pool overlay, and its text and binary
/// frames are byte-identical to both misses' — the first reference's and
/// the one that admitted the point.
#[test]
fn a_hit_without_cached_bytes_renders_like_the_miss() {
    // No response cache: every point is rendered.
    let router = ShardedGraphManager::build_in_memory(
        &toy_trace().events,
        ShardedConfig::default()
            .with_manager(GraphManagerConfig::default().with_snapshot_cache(16)),
    )
    .unwrap();
    for (t, protocol) in [(6, "TEXT"), (9, "BINARY")] {
        let mut cold = Executor::for_router(router.clone());
        let mut hot = Executor::for_router(router.clone());
        for exec in [&mut cold, &mut hot] {
            exec.execute_framed(&format!("PROTOCOL {protocol}"));
        }
        let line = format!("GET GRAPH AT {t} WITH +node:all+edge:all");
        let hits = router.cache_overview().stats.hits;
        let first = cold.execute_framed(&line);
        let miss = cold.execute_framed(&line);
        let hit = hot.execute_framed(&line);
        assert_eq!(router.cache_overview().stats.hits, hits + 1, "{protocol}");
        assert_eq!(first.as_ref(), miss.as_ref(), "{protocol} frames differ");
        assert_eq!(miss.as_ref(), hit.as_ref(), "{protocol} frames differ");
    }
}
