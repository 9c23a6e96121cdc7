//! End-to-end tests of the event-driven serving core over the wire:
//! single-flight coalescing proven through `STATS SERVER`, freshness of
//! cached point bytes across an interleaved `APPEND`, the serving
//! counters themselves, and one reactor multiplexing hundreds of
//! connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use historygraph::tgraph::{Event, EventList};
use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager};
use server::{serve_sharded, Client, ServerConfig, ServerHandle};

/// Serializes the tests in this binary. Each starts its own server inside
/// this process, and the coalescing proof is timing-sensitive: a sibling
/// test saturating every core can starve its reactor long enough that no
/// followers ever pile up on the leader's flight.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn start(
    events: &EventList,
    snap_cache: usize,
    resp_cache: usize,
    max_connections: usize,
) -> ServerHandle {
    let router = ShardedGraphManager::build_in_memory(
        events,
        ShardedConfig::default().with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(snap_cache)
                .with_response_cache(resp_cache),
        ),
    )
    .unwrap();
    serve_sharded(
        router,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Reads one complete text reply (terminated by a lone `END` line).
fn read_reply(sock: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = sock.read(&mut chunk).expect("read reply");
        assert!(n > 0, "server closed mid-reply");
        buf.extend_from_slice(&chunk[..n]);
        if buf.starts_with(b"END\n") || buf.windows(5).any(|w| w == b"\nEND\n") {
            return buf;
        }
    }
}

/// Sixty nodes appearing at t = 1..=60.
fn linear_trace() -> EventList {
    EventList::from_events(
        (1..=60)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    )
}

/// Reads `leaders=` and `coalesced=` off the `SF` line of `STATS SERVER`.
fn flight_counters(probe: &mut Client) -> (u64, u64) {
    let lines = probe.send_ok("STATS SERVER").unwrap();
    let sf = lines
        .iter()
        .find(|l| l.starts_with("SF "))
        .unwrap_or_else(|| panic!("no SF line: {lines:?}"));
    let field = |name: &str| -> u64 {
        sf.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} on {sf}"))
    };
    (field("leaders"), field("coalesced"))
}

/// Many sessions request the same cold point at once; `STATS SERVER` must
/// show renders being coalesced — more waiters served from a flight than
/// renders led. The snapshot is made large enough that one render spans
/// several scheduler timeslices, so queued followers reliably join the
/// leader's flight; fresh timestamps per round (each its own cache key)
/// and a bounded retry make the proof robust on a single-core host.
#[test]
fn concurrent_sessions_coalesce_renders_over_the_wire() {
    let _serial = serial();
    // Large enough that one render spans several scheduler timeslices
    // even on a single-core host — the proof needs the OS to run the
    // queued follower workers *during* the leader's render, so a render
    // that fits inside one timeslice can sporadically finish before any
    // follower joins the flight.
    const NODES: i64 = 120_000;
    const SESSIONS: usize = 8;
    let events = EventList::from_events(
        (1..=NODES)
            .map(|i| Event::add_node(i, 100_000 + i as u64))
            .collect(),
    );
    let server = start(&events, 64, 64, 32);
    let addr = server.addr();
    let mut probe = Client::connect(addr).unwrap();

    let mut socks: Vec<TcpStream> = (0..SESSIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();

    let mut proven = false;
    for round in 0..20 {
        let t = NODES + 1 + round;
        let (leaders_before, coalesced_before) = flight_counters(&mut probe);
        // Pile every request up before reading a single reply: all of
        // them hit the worker queue while the first render is running.
        for sock in &mut socks {
            writeln!(sock, "GET GRAPH AT {t}").unwrap();
            sock.flush().unwrap();
        }
        let replies: Vec<Vec<u8>> = socks.iter_mut().map(read_reply).collect();
        let head = format!("OK GRAPH t={t} nodes={NODES}");
        assert!(
            replies[0].starts_with(head.as_bytes()),
            "bad reply head: {:?}",
            String::from_utf8_lossy(&replies[0][..replies[0].len().min(80)])
        );
        for reply in &replies {
            assert_eq!(
                reply, &replies[0],
                "coalesced sessions must receive identical bytes"
            );
        }
        let (leaders_after, coalesced_after) = flight_counters(&mut probe);
        let leaders = leaders_after - leaders_before;
        let coalesced = coalesced_after - coalesced_before;
        if coalesced >= 2 && coalesced > leaders {
            proven = true;
            break;
        }
    }
    assert!(
        proven,
        "no round served more than one waiter per led render"
    );

    // The serving counters behind the proof are themselves observable.
    let lines = probe.send_ok("STATS SERVER").unwrap();
    let server_line = &lines[0];
    assert!(
        server_line.starts_with("OK SERVER connections="),
        "{lines:?}"
    );
    for field in ["accepted=", "rejected=", "queue_depth=", "workers="] {
        assert!(server_line.contains(field), "{server_line}");
    }
}

/// A point rendered, byte-cached, and re-served must pick up an APPEND
/// that lands beneath it: the epoch guard has to invalidate the cached
/// bytes, and the re-render must show the new node. No stale response is
/// ever acceptable, whichever path (fast path, single-flight, response
/// cache) served the earlier copies.
#[test]
fn append_is_never_served_stale_bytes() {
    let _serial = serial();
    let server = start(&linear_trace(), 32, 32, 32);
    let mut client = Client::connect(server.addr()).unwrap();

    // Render and cache the future point: the second request is served
    // from cached bytes (same reply, no matter which tier).
    let first = client.send_ok("GET GRAPH AT 70").unwrap();
    assert!(first[0].starts_with("OK GRAPH t=70 nodes=60"), "{first:?}");
    let cached = client.send_ok("GET GRAPH AT 70").unwrap();
    assert_eq!(cached, first, "cache must reproduce the rendered reply");

    // An append beneath the cached point bumps the epoch...
    let appended = client.send_ok("APPEND NODE 61 9999").unwrap();
    assert!(appended[0].starts_with("OK APPENDED"), "{appended:?}");

    // ...so every subsequent read must see the new node, immediately and
    // on the re-cached path too.
    for _ in 0..3 {
        let fresh = client.send_ok("GET GRAPH AT 70").unwrap();
        assert!(
            fresh[0].starts_with("OK GRAPH t=70 nodes=61"),
            "stale bytes served after APPEND: {fresh:?}"
        );
    }

    // Other sessions see the fresh bytes as well.
    let mut other = Client::connect(server.addr()).unwrap();
    let seen = other.send_ok("GET GRAPH AT 70").unwrap();
    assert!(seen[0].starts_with("OK GRAPH t=70 nodes=61"), "{seen:?}");
}

/// Reads one `name=` counter off the `OK CACHE` line of `STATS CACHE`.
fn cache_counter(client: &mut Client, name: &str) -> u64 {
    let lines = client.send_ok("STATS CACHE").unwrap();
    lines[0]
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} on {lines:?}"))
}

/// The reactor probes the snapshot cache before handing a point to a
/// worker, whose retrieval probes it again. Only the retrieval counts a
/// miss: one cold `GET GRAPH AT` moves `STATS CACHE` misses by exactly
/// one, and a point served by the reactor counts one hit and no miss.
#[test]
fn a_cold_point_counts_one_snapshot_cache_miss() {
    let _serial = serial();
    let server = start(&linear_trace(), 32, 32, 32);
    let mut client = Client::connect(server.addr()).unwrap();
    let (hits, misses) = (
        cache_counter(&mut client, "hits"),
        cache_counter(&mut client, "misses"),
    );

    client.send_ok("GET GRAPH AT 30").unwrap();
    assert_eq!(cache_counter(&mut client, "misses"), misses + 1);
    assert_eq!(cache_counter(&mut client, "hits"), hits);

    // The second reference misses once more, and is admitted...
    client.send_ok("GET GRAPH AT 30").unwrap();
    assert_eq!(cache_counter(&mut client, "misses"), misses + 2);
    // ...so the third is the reactor's hit.
    client.send_ok("GET GRAPH AT 30").unwrap();
    assert_eq!(cache_counter(&mut client, "misses"), misses + 2);
    assert_eq!(cache_counter(&mut client, "hits"), hits + 1);
}

/// A client that pipelines thousands of requests before reading a single
/// reply exercises the write-side backpressure: the total reply volume is
/// far beyond the outbox high-water mark, so the server must repeatedly
/// stall parsing (reads masked, lines buffered) and resume as the client
/// drains. Every pipelined request still gets its complete reply, in
/// order, and the session stays usable afterwards.
#[test]
fn pipelined_requests_without_reads_are_backpressured_not_dropped() {
    let _serial = serial();
    const REQUESTS: usize = 2000;
    let server = start(&linear_trace(), 32, 32, 32);
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // ~2000 replies of ~1.3 KiB each (61 attribute lines) ≈ 2.6 MiB —
    // an order of magnitude over the high-water mark plus both socket
    // buffers — while the requests themselves fit in the send buffer, so
    // this write never blocks on the server reading.
    let mut pipelined = Vec::new();
    for _ in 0..REQUESTS {
        pipelined.extend_from_slice(b"GET GRAPH AT 70\n");
    }
    sock.write_all(&pipelined).unwrap();
    sock.flush().unwrap();

    let mut reader = std::io::BufReader::new(sock.try_clone().unwrap());
    let mut heads = 0usize;
    let mut replies = 0usize;
    let mut line = String::new();
    while replies < REQUESTS {
        line.clear();
        let n = std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(n > 0, "server closed after {replies} of {REQUESTS} replies");
        if line.starts_with("OK GRAPH t=70 nodes=60") {
            heads += 1;
        } else if line == "END\n" {
            replies += 1;
        }
    }
    assert_eq!(heads, REQUESTS, "every reply must arrive intact");

    // The connection survived the backpressure cycles.
    writeln!(sock, "PING").unwrap();
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert_eq!(line, "OK PONG\n");
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert_eq!(line, "END\n");
}

/// One reactor serves 256 concurrent connections: every one gets a correct
/// hot point reply, `STATS SERVER` counts all of them at peak, and the
/// count returns to zero once they close. Raw sockets keep the client and
/// server sides together well under the default 1024 fd soft limit.
#[test]
fn reactor_multiplexes_256_concurrent_connections() {
    let _serial = serial();
    const CONNECTIONS: usize = 256;
    let server = start(&linear_trace(), 32, 32, CONNECTIONS);
    let mut socks: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    // Every request is in flight before any reply is read.
    for sock in &mut socks {
        sock.write_all(b"GET GRAPH AT 70\n").unwrap();
    }
    let replies: Vec<Vec<u8>> = socks.iter_mut().map(read_reply).collect();
    assert!(
        replies[0].starts_with(b"OK GRAPH t=70 nodes=60 "),
        "{:?}",
        String::from_utf8_lossy(&replies[0])
    );
    for reply in &replies {
        assert_eq!(reply, &replies[0], "every connection gets the same reply");
    }

    socks[0].write_all(b"STATS SERVER\n").unwrap();
    let stats = String::from_utf8(read_reply(&mut socks[0])).unwrap();
    assert!(
        stats.starts_with(&format!("OK SERVER connections={CONNECTIONS} ")),
        "{stats}"
    );

    drop(socks);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 {
        assert!(Instant::now() < deadline, "connections never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
}
