//! End-to-end tests of the binary wire protocol and the rendered-response
//! byte cache over the TCP server: mixed text/binary sessions agreeing on
//! results while sharing one snapshot-cache overlay, response-cache hit
//! accounting over the wire, and `APPEND` invalidation (stale bytes are
//! never served after an append).

use std::sync::{Arc, Barrier};
use std::thread;

use historygraph::datagen::toy_trace;
use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager, SharedGraphManager};
use histql::{Frame, Response};
use server::{serve_sharded, Client, ServerConfig, ServerHandle};

/// A server over a one-shard router, plus that shard.
fn start(snap_cache: usize, resp_cache: usize) -> (ServerHandle, SharedGraphManager) {
    let router = ShardedGraphManager::build_in_memory(
        &toy_trace().events,
        ShardedConfig::default().with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(snap_cache)
                .with_response_cache(resp_cache),
        ),
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

/// The acceptance scenario: one server, half the sessions in `TEXT`, half in
/// `BINARY`, all issuing the same queries concurrently. Both protocols must
/// return equivalent results (the binary frame re-renders to the text
/// reply, byte for byte) while sharing one snapshot-cache overlay.
#[test]
fn mixed_text_and_binary_sessions_agree_and_share_one_overlay() {
    const PAIRS: usize = 3;
    let (server, shared) = start(16, 16);
    let addr = server.addr();
    let queries = [
        "GET GRAPH AT 6 WITH +node:all+edge:all",
        "GET GRAPHS AT 3, 6",
        "GET GRAPH BETWEEN 2 AND 9",
        "DIFF 6 9",
        "STATS",
    ];
    // The point's first reference, so every session's is a repeat: the
    // point is admitted into the cache and shared.
    Client::connect(addr).unwrap().send_ok(queries[0]).unwrap();

    let barrier = Arc::new(Barrier::new(2 * PAIRS));
    let spawn = |binary: bool| {
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            if binary {
                client.binary().unwrap();
            }
            barrier.wait();
            let mut replies: Vec<Vec<String>> = Vec::new();
            // Two rounds: the second round's point query is guaranteed a
            // response-cache hit (this session's own first round inserted
            // or raced another session's insert of the same entry).
            for q in queries.iter().chain(queries.iter()) {
                let lines = if binary {
                    match client.send_binary(q).unwrap() {
                        Frame::Response(resp) => resp.to_lines(),
                        Frame::Error(msg) => panic!("{q:?} failed: {msg}"),
                    }
                } else {
                    client.send_ok(q).unwrap()
                };
                replies.push(lines);
            }
            // Hold the connection (and its overlay references) until every
            // session is done.
            (client, replies)
        })
    };
    let workers: Vec<_> = (0..2 * PAIRS).map(|i| spawn(i % 2 == 0)).collect();
    let results: Vec<(Client, Vec<Vec<String>>)> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Every session — text or binary — produced the same rendered replies.
    for (_, replies) in &results {
        assert_eq!(replies, &results[0].1, "protocols must agree");
    }

    // The hot point (t=6, all attrs) is one shared overlay: the cache's own
    // reference plus one per session per acquiring query (two rounds each).
    // Verified through STATS CACHE like the PR 3 e2e, and in-process.
    assert_eq!(
        shared.read().cache_entries().len(),
        shared.read().cache_len()
    );
    // A fresh text-mode probe; the worker sessions stay connected (holding
    // their overlay references) until the assertions are done.
    let mut probe = Client::connect(addr).unwrap();
    let cache = probe.send_ok("STATS CACHE").unwrap();
    let entry = cache
        .iter()
        .find(|l| l.starts_with("C t=6 ") && l.contains("+node:all+edge:all"))
        .expect("t=6 entry");
    assert_eq!(field(entry, "refs"), 2 * (2 * PAIRS as u64) + 1);

    // The response cache (and single-flight table) served the repeats.
    // Racing cold renders may each count a miss (the byte cache
    // deliberately has no double-checked insert — a raced render is still
    // a correct reply), but at least one miss per protocol is certain, the
    // second round hits for everyone, and every point lookup is accounted
    // for: a coalesced follower is served the leader's bytes without ever
    // probing the response cache, so `STATS SERVER`'s coalesced counter
    // covers the remainder.
    let rc = cache
        .iter()
        .find(|l| l.starts_with("RC "))
        .expect("RC line");
    let srv = probe.send_ok("STATS SERVER").unwrap();
    let sf = srv.iter().find(|l| l.starts_with("SF ")).expect("SF line");
    let coalesced = field(sf, "coalesced");
    let (hits, misses) = (field(rc, "hits"), field(rc, "misses"));
    let lookups = 2 * (2 * PAIRS as u64); // two rounds of one point query each
    assert_eq!(hits + misses + coalesced, lookups, "{rc:?} {sf:?}");
    assert!((2..=lookups / 2).contains(&misses), "{rc:?}");
    assert!(
        hits + coalesced >= lookups / 2,
        "second round must hit or coalesce: {rc:?} {sf:?}"
    );
    assert_eq!(field(rc, "entries"), 2, "one entry per protocol: {rc:?}");
    drop(results);
}

#[test]
fn append_invalidates_response_cache_bytes_over_the_wire() {
    let (server, shared) = start(16, 16);
    let mut text = Client::connect(server.addr()).unwrap();
    let mut binary = Client::connect(server.addr()).unwrap();
    binary.binary().unwrap();

    // The first reference caches nothing; the second admits the point.
    text.send_ok("GET GRAPH AT 25").unwrap();
    assert_eq!(shared.read().response_cache_len(), 0);
    let before_text = text.send_ok("GET GRAPH AT 25").unwrap();
    let before_bin = binary.send_binary_raw("GET GRAPH AT 25").unwrap();
    assert_eq!(shared.read().response_cache_len(), 2);

    // Both replies are now cached; a re-request serves the same bytes.
    assert_eq!(text.send_ok("GET GRAPH AT 25").unwrap(), before_text);
    assert_eq!(
        binary.send_binary_raw("GET GRAPH AT 25").unwrap(),
        before_bin
    );
    assert_eq!(shared.read().response_cache_stats().hits, 2);

    // The append lands before t=25: every cached reply at/after t=20 goes.
    text.send_ok("APPEND NODE 20 777").unwrap();
    assert_eq!(shared.read().response_cache_len(), 0);

    // Neither protocol is ever served the stale bytes.
    let after_text = text.send_ok("GET GRAPH AT 25").unwrap();
    assert_ne!(after_text, before_text, "stale text bytes were served");
    assert!(after_text.iter().any(|l| l == "N 777"), "{after_text:?}");
    let after_bin = binary.send_binary_raw("GET GRAPH AT 25").unwrap();
    assert_ne!(after_bin, before_bin, "stale binary bytes were served");
    match Frame::from_payload(&after_bin).unwrap() {
        Frame::Response(Response::Graph { graph, .. }) => {
            assert!(graph.has_node(historygraph::tgraph::NodeId(777)));
        }
        other => panic!("expected a graph frame, got {other:?}"),
    }

    // Both cached replies sat at t=25 (at/after the append point), so the
    // append invalidated exactly 2 entries — one per protocol. The
    // re-requests above re-cached them, which counts as insertions, not
    // invalidations.
    assert_eq!(shared.read().response_cache_stats().invalidations, 2);
    assert_eq!(shared.read().response_cache_len(), 2);
}

/// Disconnect semantics are protocol-independent: a binary session's
/// overlay references are released when it drops, and a server without a
/// response cache behaves exactly as before for binary clients.
#[test]
fn binary_sessions_release_overlays_and_work_without_response_cache() {
    let (server, shared) = start(16, 0);
    {
        let mut client = Client::connect(server.addr()).unwrap();
        client.binary().unwrap();
        for overlays in [0, 1] {
            let frame = client.send_binary("GET GRAPH AT 6").unwrap();
            assert!(matches!(frame, Frame::Response(Response::Graph { .. })));
            assert_eq!(shared.read().pool().active_overlay_count(), overlays);
        }
        let cache = match client.send_binary("STATS CACHE").unwrap() {
            Frame::Response(resp) => resp.to_text(),
            Frame::Error(msg) => panic!("{msg}"),
        };
        assert!(cache.contains("RC entries=0 capacity=0"), "{cache}");
    }
    // The session dropped: only the cache's own reference remains.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let gm = shared.read();
        if !gm.cache_entries().is_empty() && gm.cache_entries()[0].refs == 1 {
            break;
        }
        drop(gm);
        assert!(std::time::Instant::now() < deadline, "refs not released");
        thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(shared.read().response_cache_stats(), Default::default());
}

/// The determinism guarantee across protocols, including quoting-sensitive
/// content: a node attribute that needs escaping renders identically
/// whether it travelled as text or as codec bytes.
#[test]
fn binary_and_text_replies_are_equivalent_for_hostile_attribute_names() {
    let (server, _shared) = start(16, 16);
    let mut text = Client::connect(server.addr()).unwrap();
    let mut binary = Client::connect(server.addr()).unwrap();
    binary.binary().unwrap();
    text.send_ok("APPEND NODE 30 900").unwrap();
    text.send_ok("APPEND NODEATTR 31 900 \"x\\nEND\\nOK PONG\" 1")
        .unwrap();

    let query = "GET GRAPH AT 31 WITH +node:all";
    let text_lines = text.send_ok(query).unwrap();
    let Frame::Response(resp) = binary.send_binary(query).unwrap() else {
        panic!("expected a response frame")
    };
    assert_eq!(resp.to_lines(), text_lines);
    assert!(!text_lines.iter().any(|l| l == "OK PONG"));
}
