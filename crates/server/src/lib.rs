//! # server — a concurrent TCP snapshot server speaking `histql`
//!
//! Std-only. The serving core ([`serve_sharded`]) is **event-driven**: one reactor thread multiplexes every connection over a
//! readiness poller (`epoll` on linux, `poll` elsewhere — see the `epoll`
//! shim crate) and a fixed worker pool executes parsed requests, so
//! thousands of mostly-idle connections cost file descriptors, not OS
//! threads.
//!
//! All sessions share one [`ShardedGraphManager`] router (one shard or
//! many): snapshot computation runs under the owning shard's read lock so retrievals proceed concurrently, while
//! `APPEND` takes only the tail shard's write lock — live events flow in
//! without contending with historical reads on other shards. Each
//! connection owns a [`histql::Executor`], whose sharded session releases
//! every overlay the connection created (on every shard it touched) when
//! it disconnects, so a dropped client can never leak GraphPool bits.
//!
//! Point retrievals are served through the owning shard's point cache
//! (when the router's shards were configured with one): sessions
//! asking for the same `(t, opts)` share one reference-counted pool
//! overlay, and `RELEASE ALL` / disconnect drop only the session's own
//! references. Hot `GET GRAPH AT` replies are additionally served from
//! the framed bytes the cache keeps beside the overlay (when configured)
//! — by the reactor itself when they are there — and concurrent
//! cache misses for the same `(t, opts, protocol)` are **coalesced**: a
//! single-flight table makes one session render while the rest wait and
//! share the framed bytes (see `histql::FlightTable`). `STATS SERVER`
//! reports the connection, queue, and coalescing counters.
//!
//! Shutdown drains with a deadline ([`ServerHandle::shutdown_within`]):
//! idle sessions are closed immediately, in-flight requests get to finish,
//! and stragglers are force-closed when the deadline passes.
//!
//! ## Wire protocol
//!
//! Requests are single lines of `histql` (see the `histql` crate docs for
//! the grammar, and `docs/PROTOCOL.md` in the repository root for the full
//! protocol reference). Responses come in the session's current encoding:
//!
//! * **text** (the default) — one or more lines terminated by a lone `END`
//!   line; successful responses start with `OK`, failures with
//!   `ERR <message>`;
//! * **binary** (after `PROTOCOL BINARY`) — one length-prefixed frame of
//!   `tgraph::codec` bytes per response (see [`histql::Frame`]).
//!
//! Requests stay text lines in both modes; only responses switch. `QUIT`
//! closes the connection gracefully.
//!
//! ```text
//! C: GET GRAPH AT 6 WITH +node:name
//! S: OK GRAPH t=6 nodes=3 edges=2
//! S: N 1 name="alicia"
//! S: ...
//! S: END
//! ```

use std::io::{self, BufRead};
use std::net::SocketAddr;
use std::time::Duration;

use historygraph::ShardedGraphManager;

pub mod client;
mod event;
mod http;

pub use client::Client;

/// Maximum accepted request-line length; longer lines get an error and the
/// connection is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: String,
    /// Maximum simultaneously served connections; further clients are
    /// refused with `ERR server busy`.
    pub max_connections: usize,
    /// How long [`ServerHandle::shutdown`] waits for connections to finish
    /// on their own before force-closing the remaining (idle) sessions.
    pub drain_timeout: Duration,
    /// Worker threads executing parsed requests (clamped to at least 1).
    pub worker_threads: usize,
    /// Collect per-verb and per-phase latency histograms, path counters,
    /// and (when [`ServerConfig::slow_query_us`] is set) the slow-query
    /// log. On by default: the hot path costs a handful of relaxed atomic
    /// operations per request. `STATS METRICS` still answers when this is
    /// off — it reports only the pull-side counters (caches, single-flight,
    /// shards, connections), with no histograms.
    pub metrics_enabled: bool,
    /// Capture requests whose total time (queue wait + service) reaches
    /// this many microseconds into the slow-query ring, drained by `STATS
    /// SLOW`. `0` (the default) disables capture.
    pub slow_query_us: u64,
    /// Bind a plaintext HTTP scrape endpoint (`GET /metrics`, Prometheus
    /// exposition format) on this address, served off the reactor. `None`
    /// (the default) binds nothing.
    pub metrics_addr: Option<String>,
    /// Per-request deadline in milliseconds, covering queue wait plus
    /// service. A request whose deadline expires while it is still queued
    /// is refused with `ERR deadline exceeded` instead of executing; a
    /// request that overruns during service still gets its reply (aborting
    /// mid-execution could tear a session) but is counted. Both show up as
    /// `deadline_exceeded_total`. `0` (the default) disables the deadline.
    pub request_timeout_ms: u64,
    /// Admission cap on the worker queue. A request that arrives while this
    /// many requests are already queued is shed with `ERR overloaded`
    /// without taking a queue slot — the connection survives and may retry.
    /// Counted as `requests_shed_total`. `0` (the default) leaves admission
    /// unbounded.
    pub max_queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            drain_timeout: Duration::from_secs(5),
            worker_threads: 4,
            metrics_enabled: true,
            slow_query_us: 0,
            metrics_addr: None,
            request_timeout_ms: 0,
            max_queue_depth: 0,
        }
    }
}

/// Handle to a running server; shuts it down (with a drain) on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    drain_timeout: Duration,
    core: event::Core,
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP scrape-endpoint address, when
    /// [`ServerConfig::metrics_addr`] requested one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Number of connections currently being served (including closed
    /// connections whose in-flight request has not yet returned from the
    /// worker pool — their overlays are still held).
    pub fn active_connections(&self) -> usize {
        self.core.active()
    }

    /// Stops accepting connections and drains the existing ones with the
    /// configured [`ServerConfig::drain_timeout`] deadline. See
    /// [`ServerHandle::shutdown_within`].
    pub fn shutdown(&mut self) {
        self.shutdown_within(self.drain_timeout);
    }

    /// Stops accepting connections, then drains with a deadline: idle
    /// sessions observe EOF at once, unwind, and release their pool
    /// overlays, while sessions with a request in flight finish their
    /// response in full before closing. Whatever still lingers after the
    /// deadline is force-closed. Returns once the server quiesced (bounded
    /// by a second deadline of the same length, so a wedged request cannot
    /// hang the caller forever).
    pub fn shutdown_within(&mut self, deadline: Duration) {
        self.core.shutdown_within(deadline)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts serving `router` according to `config` on the event-driven core;
/// returns once the listener is bound, with the reactor and worker pool
/// running in background threads. Every session's executor targets the
/// router, so point queries land on the shard owning their time,
/// multipoint queries fan out across shards in parallel, and `APPEND`s go
/// to the tail shard without contending with historical reads.
pub fn serve_sharded(
    router: ShardedGraphManager,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let (addr, metrics_addr, core) = event::start(router, &config)?;
    Ok(ServerHandle {
        addr,
        metrics_addr,
        drain_timeout: config.drain_timeout,
        core,
    })
}

/// Reads one `\n`-terminated line without buffering more than `max` bytes:
/// `Ok(None)` on a clean EOF, `Err(InvalidData)` when the cap is exceeded
/// (the line is abandoned unread). `read_line` alone would buffer an entire
/// newline-less stream into memory before any length check could run.
pub(crate) fn read_bounded_line(
    reader: &mut impl BufRead,
    line: &mut String,
    max: usize,
) -> io::Result<Option<()>> {
    line.clear();
    let mut bytes = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF: a non-empty unterminated tail still counts as a line.
            return Ok(if bytes.is_empty() {
                None
            } else {
                *line = String::from_utf8_lossy(&bytes).into_owned();
                Some(())
            });
        }
        let (chunk, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (&buf[..=i], true),
            None => (buf, false),
        };
        if bytes.len() + chunk.len() > max {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "line exceeds maximum length",
            ));
        }
        bytes.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if found {
            *line = String::from_utf8_lossy(&bytes).into_owned();
            return Ok(Some(()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use historygraph::{ShardedConfig, SharedGraphManager};
    use std::io::{BufReader, Write};
    use std::thread;
    use std::time::Instant;
    use tgraph::{AttrOptions, Timestamp};

    /// A server over a one-shard router on the toy trace, plus that shard.
    fn start(max_connections: usize) -> (ServerHandle, SharedGraphManager) {
        let router = ShardedGraphManager::build_in_memory(
            &datagen::toy_trace().events,
            ShardedConfig::default()
                .with_manager(historygraph::GraphManagerConfig::default().with_snapshot_cache(8)),
        )
        .unwrap();
        let handle = serve_sharded(
            router.clone(),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                max_connections,
                ..Default::default()
            },
        )
        .unwrap();
        (handle, router.shard_at(0).unwrap())
    }

    #[test]
    fn round_trip_matches_direct_execution() {
        let (server, shared) = start(8);
        let mut client = Client::connect(server.addr()).unwrap();
        let lines = client
            .send("GET GRAPH AT 6 WITH +node:all+edge:all")
            .unwrap();
        let direct = shared
            .read()
            .index()
            .get_snapshot(Timestamp(6), &AttrOptions::all())
            .unwrap();
        let expected = histql::Response::Graph {
            t: Timestamp(6),
            graph: std::sync::Arc::new(direct),
        }
        .to_lines();
        assert_eq!(lines, expected);
    }

    #[test]
    fn binary_sessions_round_trip_and_can_switch_back() {
        let (server, shared) = start(8);
        let mut client = Client::connect(server.addr()).unwrap();
        client.binary().unwrap();
        let frame = client
            .send_binary("GET GRAPH AT 6 WITH +node:all+edge:all")
            .unwrap();
        let histql::Frame::Response(resp) = frame else {
            panic!("expected a response frame")
        };
        let direct = shared
            .read()
            .index()
            .get_snapshot(Timestamp(6), &AttrOptions::all())
            .unwrap();
        let expected = histql::Response::Graph {
            t: Timestamp(6),
            graph: std::sync::Arc::new(direct),
        };
        assert_eq!(resp.to_lines(), expected.to_lines());
        // Errors arrive as binary error frames, and the connection survives.
        match client.send_binary("FROB 12").unwrap() {
            histql::Frame::Error(msg) => assert!(msg.contains("unknown verb"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        // PROTOCOL TEXT acknowledges in text again.
        assert_eq!(
            client.send("PROTOCOL TEXT").unwrap(),
            vec!["OK PROTOCOL TEXT"]
        );
        assert_eq!(client.send("PING").unwrap(), vec!["OK PONG"]);
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let (server, _shared) = start(8);
        let mut client = Client::connect(server.addr()).unwrap();
        let lines = client.send("FROB 12").unwrap();
        assert!(lines[0].starts_with("ERR "), "{lines:?}");
        // The connection survives an error.
        assert_eq!(client.send("PING").unwrap(), vec!["OK PONG"]);
    }

    #[test]
    fn connection_cap_refuses_excess_clients() {
        let (server, _shared) = start(2);
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        // Make sure both connections are fully established server-side.
        a.send("PING").unwrap();
        b.send("PING").unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let lines = c.recv().unwrap();
        assert_eq!(lines, vec!["ERR server busy"]);
        // The refusal shows in the connection counters.
        let lines = a.send("STATS SERVER").unwrap();
        assert!(
            lines[0].starts_with("OK SERVER connections=2 accepted=2 rejected=1 "),
            "{lines:?}"
        );
    }

    #[test]
    fn disconnect_releases_session_overlays() {
        let (server, shared) = start(8);
        {
            let mut client = Client::connect(server.addr()).unwrap();
            // Second references admit t=3 and t=6; the multipoint shares
            // t=6 and answers t=9 without an overlay.
            for t in [3, 6, 3, 6] {
                client.send(&format!("GET GRAPH AT {t}")).unwrap();
            }
            client.send("GET GRAPHS AT 6, 9").unwrap();
            assert_eq!(shared.read().pool().active_overlay_count(), 2);
            assert!(shared.read().cache_entries().iter().all(|e| e.refs > 1));
        }
        // The client dropped; its session must release all three
        // references, leaving each cached overlay to the cache alone.
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.read().cache_entries().iter().any(|e| e.refs > 1) {
            assert!(Instant::now() < deadline, "overlays were not released");
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(shared.read().pool().active_overlay_count(), 2);
    }

    #[test]
    fn bounded_line_reader_rejects_newline_less_floods() {
        use std::io::Cursor;
        let mut line = String::new();
        // A 1 MiB stream with no newline must be rejected once the cap is
        // exceeded, long before the whole stream is buffered.
        let flood = vec![b'a'; 1024 * 1024];
        let mut r = std::io::BufReader::new(Cursor::new(flood));
        let err = read_bounded_line(&mut r, &mut line, 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Normal lines and EOF behave like read_line.
        let mut r = std::io::BufReader::new(Cursor::new(b"hello\nworld".to_vec()));
        assert!(read_bounded_line(&mut r, &mut line, 4096)
            .unwrap()
            .is_some());
        assert_eq!(line, "hello\n");
        assert!(read_bounded_line(&mut r, &mut line, 4096)
            .unwrap()
            .is_some());
        assert_eq!(line, "world");
        assert!(read_bounded_line(&mut r, &mut line, 4096)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_request_line_is_refused() {
        let (server, _shared) = start(4);
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Stream well past the cap without ever sending a newline.
        let chunk = vec![b'9'; 8 * 1024];
        for _ in 0..((MAX_LINE_BYTES / chunk.len()) + 2) {
            if stream.write_all(&chunk).is_err() {
                break; // server already hung up, which is fine too
            }
        }
        let mut reply = String::new();
        let mut reader = BufReader::new(&stream);
        let _ = reader.read_line(&mut reply);
        assert!(
            reply.is_empty() || reply.starts_with("ERR request line too long"),
            "{reply:?}"
        );
    }

    #[test]
    fn shutdown_drains_idle_sessions_and_releases_their_overlays() {
        let (mut server, shared) = start(8);
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        for _ in 0..2 {
            a.send_ok("GET GRAPH AT 6").unwrap();
            b.send_ok("GET GRAPH AT 9").unwrap();
        }
        assert_eq!(shared.read().pool().active_overlay_count(), 2);
        // Both clients now sit idle in a blocking read. A drain must not
        // wait out their 300 s read timeout: it closes them at the socket.
        let started = Instant::now();
        server.shutdown_within(Duration::from_secs(5));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drain should close idle sessions well before the deadline"
        );
        assert_eq!(server.active_connections(), 0);
        // The force-closed sessions released their references on the way
        // out; the cached overlays keep only the cache's own.
        assert!(shared.read().cache_entries().iter().all(|e| e.refs == 1));
        // The clients observe the close as EOF/error, not a hang.
        assert!(a.send("PING").is_err());
        assert!(b.send("PING").is_err());
        // New connections are refused (nothing is listening any more).
        assert!(
            Client::connect(server.addr()).is_err()
                || Client::connect(server.addr())
                    .and_then(|mut c| c.send("PING"))
                    .is_err()
        );
    }

    #[test]
    fn shutdown_lets_an_in_flight_request_finish() {
        let (mut server, _shared) = start(8);
        let addr = server.addr();
        // One client keeps issuing requests while we drain: the drain must
        // not cut off a response mid-frame — the client either gets a full
        // OK..END response or a clean close.
        let worker = thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut completed = 0usize;
            loop {
                match c.send("GET GRAPH AT 6") {
                    Ok(lines) => {
                        assert!(lines[0].starts_with("OK GRAPH"), "{lines:?}");
                        completed += 1;
                    }
                    Err(_) => return completed, // drained
                }
            }
        });
        // Let the worker get going, then drain.
        thread::sleep(Duration::from_millis(50));
        server.shutdown_within(Duration::from_secs(5));
        let completed = worker.join().unwrap();
        assert!(completed > 0, "worker should have completed some requests");
        assert_eq!(server.active_connections(), 0);
    }

    fn start_sharded(shards: usize, max_connections: usize) -> (ServerHandle, ShardedGraphManager) {
        use tgraph::Event;
        // 60 nodes appearing at t = 1..=60 → three equal time ranges.
        let events = tgraph::EventList::from_events(
            (1..=60)
                .map(|i| Event::add_node(i, 1000 + i as u64))
                .collect(),
        );
        let router = ShardedGraphManager::build_in_memory(
            &events,
            historygraph::ShardedConfig::default()
                .with_shards(shards)
                .with_manager(historygraph::GraphManagerConfig::default().with_snapshot_cache(16)),
        )
        .unwrap();
        let handle = serve_sharded(
            router.clone(),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                max_connections,
                ..Default::default()
            },
        )
        .unwrap();
        (handle, router)
    }

    #[test]
    fn sharded_shutdown_drains_idle_sessions_across_shards() {
        let (mut server, router) = start_sharded(3, 8);
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        // Each session holds overlays on more than one shard: second point
        // references admit every point, then the multipoint shares them.
        for t in [10, 50, 10, 50] {
            a.send_ok(&format!("GET GRAPH AT {t}")).unwrap();
        }
        a.send_ok("GET GRAPHS AT 10, 50").unwrap();
        b.send_ok("GET GRAPH AT 30").unwrap();
        b.send_ok("GET GRAPH AT 30").unwrap();
        let overlays = |router: &ShardedGraphManager| -> usize {
            router.shard_infos().iter().map(|i| i.overlays).sum()
        };
        assert_eq!(overlays(&router), 3);
        let started = Instant::now();
        server.shutdown_within(Duration::from_secs(5));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drain should close idle sharded sessions well before the deadline"
        );
        assert_eq!(server.active_connections(), 0);
        // Cached overlays keep only the cache's own reference; no session
        // references leak on any shard.
        for shared in router.shard_handles().unwrap() {
            let gm = shared.read();
            for entry in gm.cache_entries() {
                assert_eq!(entry.refs, 1, "session references must be released");
            }
        }
        assert!(a.send("PING").is_err());
        assert!(b.send("PING").is_err());
    }

    #[test]
    fn sharded_shutdown_lets_in_flight_multipoint_queries_finish() {
        let (mut server, _router) = start_sharded(3, 8);
        let addr = server.addr();
        // A worker keeps issuing cross-shard multipoint queries while we
        // drain: every accepted request must still get its complete,
        // request-ordered reply — never a truncated frame.
        let worker = thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut completed = 0usize;
            loop {
                match c.send("GET GRAPHS AT 55, 5, 35") {
                    Ok(lines) => {
                        assert!(lines[0].starts_with("OK GRAPHS count=3"), "{lines:?}");
                        let order: Vec<&str> = lines
                            .iter()
                            .filter(|l| l.starts_with("GRAPH t="))
                            .map(|l| l.split_whitespace().nth(1).unwrap())
                            .collect();
                        assert_eq!(order, ["t=55", "t=5", "t=35"], "request order broke");
                        completed += 1;
                    }
                    Err(_) => return completed, // drained
                }
            }
        });
        thread::sleep(Duration::from_millis(50));
        server.shutdown_within(Duration::from_secs(5));
        let completed = worker.join().unwrap();
        assert!(completed > 0, "worker should have completed some requests");
        assert_eq!(server.active_connections(), 0);
    }

    #[test]
    fn sharded_appends_interleave_with_historical_reads() {
        let (server, router) = start_sharded(3, 8);
        let addr = server.addr();
        let writer = thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..20 {
                let lines = c
                    .send(&format!("APPEND NODE {} {}", 61 + i, 900 + i))
                    .unwrap();
                assert_eq!(lines, vec![format!("OK APPENDED t={}", 61 + i)]);
            }
        });
        let reader = thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for _ in 0..20 {
                let lines = c.send("GET GRAPH AT 10").unwrap();
                assert!(lines[0].starts_with("OK GRAPH t=10 nodes=10"), "{lines:?}");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
        // Historical shards never saw an invalidation from the tail ingest.
        let infos = router.shard_infos();
        assert_eq!(infos[0].cache.invalidations, 0);
        assert_eq!(infos[1].cache.invalidations, 0);
    }

    #[test]
    fn appends_interleave_with_reads() {
        let (server, _shared) = start(8);
        let addr = server.addr();
        let writer = thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..20 {
                let lines = c.send(&format!("APPEND NODE 20 {}", 900 + i)).unwrap();
                assert_eq!(lines, vec!["OK APPENDED t=20"]);
            }
        });
        let reader = thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for _ in 0..20 {
                let lines = c.send("GET GRAPH AT 6").unwrap();
                assert!(lines[0].starts_with("OK GRAPH t=6"), "{lines:?}");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    }
}
