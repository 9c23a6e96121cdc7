//! End-to-end atomic-visibility tests for `APPEND BATCH` over the TCP
//! server: a writer streams multi-event batches while concurrent readers
//! poll `GET GRAPH AT t` (text and binary protocol) and must never observe
//! a partial batch — every reply reflects a whole number of batches.
//!
//! Covers a one-shard router plus a sharded one with a small shard budget,
//! so batches trigger tail rolls while readers are polling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager};
use histql::{Frame, Response};
use server::{serve_sharded, Client, ServerConfig, ServerHandle};
use tgraph::{Event, EventList};

/// In-process servers bind real sockets; serialize the tests so they don't
/// contend for file descriptors or CPU under `cargo test`'s parallelism.
static SERIAL: Mutex<()> = Mutex::new(());

/// Shape of every batch the writer sends: the invariant the readers check
/// is that the node/edge deltas over the base graph always correspond to a
/// whole number of these batches.
const NODES_PER_BATCH: u64 = 3;
const EDGES_PER_BATCH: u64 = 2;
const BATCHES: u64 = 32;
/// Probe time: at or after every batch's timestamp, so each applied batch
/// is visible to the reader the moment it commits.
const PROBE: u64 = 1_000_000;

/// Base events: a handful of pre-existing nodes so the readers' deltas
/// start from a known floor.
fn base_events() -> EventList {
    EventList::from_events(
        (1..=8)
            .map(|i| Event::add_node(i, 100 + i as u64))
            .collect(),
    )
}

fn manager_config() -> GraphManagerConfig {
    GraphManagerConfig::default()
        .with_snapshot_cache(8)
        .with_response_cache(8)
}

/// One multi-event batch: three nodes plus two edges among them, all at one
/// timestamp. A torn batch would surface as a node delta that is not a
/// multiple of three, or an edge delta inconsistent with the node delta.
fn batch_line(b: u64) -> String {
    let t = 1_000 + b;
    let n0 = 10_000 + b * 10;
    let (n1, n2) = (n0 + 1, n0 + 2);
    let (e0, e1) = (50_000 + b * 10, 50_000 + b * 10 + 1);
    format!(
        "APPEND BATCH NODE {t} {n0} ; NODE {t} {n1} ; NODE {t} {n2} ; \
         EDGE {t} {e0} {n0} {n1} ; EDGE {t} {e1} {n1} {n2}"
    )
}

/// Asserts the node/edge counts of one observed snapshot reflect a whole
/// number of applied batches over the base graph.
fn check_whole_batches(nodes: u64, edges: u64, base_nodes: u64, base_edges: u64, ctx: &str) {
    let dn = nodes
        .checked_sub(base_nodes)
        .unwrap_or_else(|| panic!("{ctx}: node count {nodes} below base {base_nodes}"));
    let de = edges
        .checked_sub(base_edges)
        .unwrap_or_else(|| panic!("{ctx}: edge count {edges} below base {base_edges}"));
    assert!(
        dn.is_multiple_of(NODES_PER_BATCH),
        "{ctx}: observed a partial batch: node delta {dn} is not a multiple of {NODES_PER_BATCH}"
    );
    assert_eq!(
        de,
        dn / NODES_PER_BATCH * EDGES_PER_BATCH,
        "{ctx}: observed a partial batch: edge delta {de} inconsistent with node delta {dn}"
    );
}

/// Parses `nodes=` / `edges=` out of an `OK GRAPH ...` header line.
fn header_counts(line: &str) -> (u64, u64) {
    let field = |name: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(name))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {line:?}"))
    };
    (field("nodes="), field("edges="))
}

/// Runs the scenario against an already-listening server: one writer client
/// streaming batches, one text reader and one binary reader polling the same
/// probe time throughout. Returns once the writer has appended every batch
/// and both readers have confirmed the final state.
fn hammer(server: &ServerHandle) {
    let addr = server.addr();
    let mut probe = Client::connect(addr).unwrap();
    let reply = probe.send_ok(&format!("GET GRAPH AT {PROBE}")).unwrap();
    let (base_nodes, base_edges) = header_counts(&reply[0]);
    probe.quit();

    let done = Arc::new(AtomicBool::new(false));
    let spawn_reader = |binary: bool| {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            if binary {
                client.binary().unwrap();
            }
            let ctx = if binary {
                "binary reader"
            } else {
                "text reader"
            };
            let mut polls = 0u64;
            let mut last = (0, 0);
            while !done.load(Ordering::Acquire) || last.0 < base_nodes + BATCHES * NODES_PER_BATCH {
                let query = format!("GET GRAPH AT {PROBE}");
                last = if binary {
                    match client.send_binary(&query).unwrap() {
                        Frame::Response(Response::Graph { graph, .. }) => {
                            (graph.node_count() as u64, graph.edge_count() as u64)
                        }
                        other => panic!("{ctx}: unexpected frame {other:?}"),
                    }
                } else {
                    header_counts(&client.send_ok(&query).unwrap()[0])
                };
                check_whole_batches(last.0, last.1, base_nodes, base_edges, ctx);
                polls += 1;
            }
            polls
        })
    };
    let text_reader = spawn_reader(false);
    let binary_reader = spawn_reader(true);

    let mut writer = Client::connect(addr).unwrap();
    for b in 0..BATCHES {
        let reply = writer.send_ok(&batch_line(b)).unwrap();
        assert!(
            reply[0].starts_with(&format!(
                "OK APPENDED BATCH count={NODES_PER_BATCH} normalized=0",
                NODES_PER_BATCH = NODES_PER_BATCH + EDGES_PER_BATCH
            )),
            "unexpected batch ack: {:?}",
            reply[0]
        );
    }
    done.store(true, Ordering::Release);
    writer.quit();

    for reader in [text_reader, binary_reader] {
        let polls = reader.join().unwrap();
        assert!(polls > 0, "reader never polled");
    }
}

fn one_shard_router() -> ShardedGraphManager {
    ShardedGraphManager::build_in_memory(
        &base_events(),
        ShardedConfig::default().with_manager(manager_config()),
    )
    .unwrap()
}

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 8,
        ..Default::default()
    }
}

/// Event-driven core: readers on both protocols never see a torn batch.
#[test]
fn event_core_readers_never_observe_partial_batches() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut server = serve_sharded(one_shard_router(), config()).unwrap();
    hammer(&server);
    server.shutdown();
}

/// Sharded router with a tiny shard budget: batches force tail rolls while
/// the readers are polling, and each batch still lands whole.
#[test]
fn sharded_router_rolls_tails_without_tearing_batches() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let router = ShardedGraphManager::build_in_memory(
        &base_events(),
        ShardedConfig::default()
            .with_shards(2)
            .with_shard_events(16)
            .with_manager(manager_config()),
    )
    .unwrap();
    let mut server = serve_sharded(router.clone(), config()).unwrap();
    hammer(&server);
    // Every batch is anchored to one shard: its first and last event resolve
    // to the same shard even after the rolls the writer provoked.
    for b in 0..BATCHES {
        let t = tgraph::Timestamp(1_000 + b as i64);
        assert_eq!(
            router.shard_index_for(t),
            router.shard_index_for(t),
            "batch at t={t:?} straddles shards"
        );
    }
    server.shutdown();
}

/// A hand-built ill-formed batch pushed through the wire: deleting an
/// attributed node (and an attributed edge) without clearing first. The
/// boundary must normalize it — the ack reports the injected clearing
/// events and the snapshot afterwards shows the deletions took effect.
#[test]
fn ill_formed_batch_over_the_wire_is_normalized() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut server = serve_sharded(one_shard_router(), config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client
        .send_ok("APPEND BATCH NODE 500 50 ; NODEATTR 500 50 name \"x\" ; NODE 500 51 ; EDGE 500 70 50 51 ; EDGEATTR 500 70 w 7")
        .unwrap();
    // Ill-formed: the edge and node both still carry attributes (and the
    // node an incident edge) when deleted.
    let reply = client
        .send_ok("APPEND BATCH DELEDGE 501 70 50 51 ; DELNODE 501 50")
        .unwrap();
    let ack = &reply[0];
    assert!(
        ack.starts_with("OK APPENDED BATCH"),
        "unexpected ack: {ack:?}"
    );
    let normalized: u64 = ack
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("normalized="))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(
        normalized > 0,
        "boundary did not inject clearing events: {ack:?}"
    );

    let after = client.send_ok("GET GRAPH AT 502").unwrap();
    let (nodes, edges) = header_counts(&after[0]);
    assert_eq!((nodes, edges), (8 + 1, 0), "deletions did not take effect");
    client.quit();
    server.shutdown();
}
