//! End-to-end test of the `histql` + `server` subsystem: a server over a
//! churn trace, driven by concurrent client sessions issuing every query
//! verb, with each deterministic response verified against the same query
//! executed in-process by a local `Executor`, and the point query also
//! against a directly built `GraphManager`.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use historygraph::datagen::{churn_trace, uniform_timepoints, ChurnConfig};
use historygraph::tgraph::Timestamp;
use historygraph::{GraphManager, GraphManagerConfig, ShardedConfig, ShardedGraphManager};
use histql::{Executor, Response};
use server::{serve_sharded, Client, ServerConfig};

const SESSIONS: usize = 8;

struct Setup {
    events: historygraph::tgraph::EventList,
    times: Vec<Timestamp>,
    nodes: Vec<u64>,
    append_t: i64,
    step: i64,
}

fn setup() -> Setup {
    let ds = churn_trace(&ChurnConfig::tiny(7));
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 5);
    // One existing node per session, queried via the key-lookup table.
    let mid = ds.snapshot_at(times[2]);
    let mut nodes: Vec<u64> = mid.node_ids().map(|n| n.raw()).collect();
    nodes.sort_unstable();
    nodes.truncate(SESSIONS);
    assert_eq!(nodes.len(), SESSIONS, "trace too small for the test");
    let span = times[3].raw() - times[0].raw();
    Setup {
        append_t: ds.end_time().raw() + 1,
        events: ds.events,
        times,
        nodes,
        step: (span / 8).max(1),
    }
}

fn build_router(events: &historygraph::tgraph::EventList) -> ShardedGraphManager {
    ShardedGraphManager::build_in_memory(events, ShardedConfig::default()).unwrap()
}

/// The deterministic workload of one session: every retrieval verb.
fn workload(s: &Setup, i: usize) -> Vec<String> {
    let (t0, t1, t2, t3) = (
        s.times[0].raw(),
        s.times[1].raw(),
        s.times[2].raw(),
        s.times[3].raw(),
    );
    let key = format!("k{i}");
    let node = s.nodes[i];
    let step = s.step;
    vec![
        format!("BIND {key} {node}"),
        format!("GET GRAPH AT {t1} WITH +node:all+edge:all"),
        format!("GET GRAPHS AT {t0}, {t2}"),
        format!("GET GRAPH BETWEEN {t0} AND {t3}"),
        format!("DIFF {t2} {t0}"),
        format!("GET GRAPH MATCHING {t0} AND NOT {t2} WITH +node:all"),
        format!("NODE {key} AT {t2}"),
        format!("HISTORY NODE {key} FROM {t0} TO {t3} STEP {step}"),
    ]
}

#[test]
fn concurrent_sessions_match_direct_execution() {
    let s = Arc::new(setup());
    let server = serve_sharded(
        build_router(&s.events),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: SESSIONS + 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Phase 1: SESSIONS concurrent clients, each issuing every verb (the
    // deterministic retrievals plus PING, APPEND, STATS) simultaneously.
    let barrier = Arc::new(Barrier::new(SESSIONS));
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                assert_eq!(client.send_ok("PING").unwrap(), vec!["OK PONG"]);
                let mut recorded = Vec::new();
                for request in workload(&s, i) {
                    let lines = client.send_ok(&request).unwrap();
                    recorded.push((request, lines));
                }
                // Live updates while the other sessions read history.
                let append = format!("APPEND NODE {} {}", s.append_t, 5000 + i);
                assert_eq!(
                    client.send_ok(&append).unwrap(),
                    vec![format!("OK APPENDED t={}", s.append_t)]
                );
                // STATS is exercised concurrently (content verified after
                // quiescence, once all appends have landed).
                let stats = client.send_ok("STATS").unwrap();
                assert!(stats[0].starts_with("OK STATS leaves="), "{stats:?}");
                recorded
            })
        })
        .collect();
    let recorded: Vec<Vec<(String, Vec<String>)>> =
        sessions.into_iter().map(|t| t.join().unwrap()).collect();

    // Phase 2: the reference. A router over the same trace, with the same
    // appends applied, executed through a local Executor (no server, no
    // sockets).
    let direct = build_router(&s.events);
    for i in 0..SESSIONS {
        direct
            .append_event(historygraph::tgraph::Event::add_node(
                s.append_t,
                5000 + i as u64,
            ))
            .unwrap();
    }
    let mut reference = Executor::for_router(direct);
    for (i, session) in recorded.iter().enumerate() {
        for (request, lines) in session {
            let expected = reference
                .execute_line(request)
                .unwrap_or_else(|e| panic!("direct {request:?}: {e}"))
                .to_lines();
            assert_eq!(lines, &expected, "session {i}, request {request:?}");
        }
    }

    // The point query must also match the raw GraphManager API (not just
    // the executor): overlay through get_hist_graph and serialize the view.
    let t1 = s.times[1];
    let mut raw = GraphManager::build_in_memory(&s.events, GraphManagerConfig::default()).unwrap();
    let handle = raw.get_hist_graph(t1, "+node:all+edge:all").unwrap();
    let raw_snapshot = raw.graph(handle).to_snapshot();
    let raw_lines = Response::Graph {
        t: t1,
        graph: std::sync::Arc::new(raw_snapshot),
    }
    .to_lines();
    let from_server = recorded[0]
        .iter()
        .find(|(req, _)| req.starts_with("GET GRAPH AT"))
        .map(|(_, lines)| lines.clone())
        .unwrap();
    assert_eq!(from_server, raw_lines);

    // Phase 3: quiescent verification of the append-dependent state. A
    // fresh client sees all 8 appended nodes and the same index stats as
    // the reference.
    let mut client = Client::connect(addr).unwrap();
    let graph_now = client
        .send_ok(&format!("GET GRAPH AT {}", s.append_t))
        .unwrap();
    for i in 0..SESSIONS {
        let line = format!("N {}", 5000 + i);
        assert!(graph_now.contains(&line), "missing {line}");
    }
    let stats_server = client.send_ok("STATS").unwrap();
    let stats_direct = reference.execute_line("STATS").unwrap().to_lines();
    assert_eq!(stats_server, stats_direct);
    drop(client);
}

#[test]
fn server_pool_returns_to_baseline_after_disconnects() {
    let s = setup();
    let router = ShardedGraphManager::build_in_memory(
        &s.events,
        ShardedConfig::default().with_manager(GraphManagerConfig::default().with_snapshot_cache(4)),
    )
    .unwrap();
    let shared = router.shard_at(0).unwrap();
    let server = serve_sharded(router, ServerConfig::default()).unwrap();
    let t = s.times[2].raw();
    {
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        // The second reference admits `t`; the multipoint shares it and
        // answers its cold point without an overlay.
        a.send_ok(&format!("GET GRAPH AT {t}")).unwrap();
        a.send_ok(&format!("GET GRAPH AT {t}")).unwrap();
        b.send_ok(&format!("GET GRAPHS AT {}, {t}", s.times[0].raw()))
            .unwrap();
        assert_eq!(shared.read().pool().active_overlay_count(), 1);
        assert_eq!(shared.read().cache_entries()[0].refs, 3);
    }
    // Both clients dropped: their sessions release every reference, so
    // only the current graph and the cache's own overlay remain active.
    let deadline = Instant::now() + Duration::from_secs(5);
    while shared.read().cache_entries()[0].refs != 1 {
        assert!(
            Instant::now() < deadline,
            "sessions still hold {} references",
            shared.read().cache_entries()[0].refs - 1
        );
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(shared.read().pool().active_graphs().len(), 2);
    assert_eq!(shared.read().pool().active_overlay_count(), 1);
}
