//! End-to-end tests of the observability layer over the wire: the server
//! must expose one metric catalog through `STATS METRICS`, the binary
//! protocol, and the HTTP `GET /metrics` scrape endpoint; counters
//! must be monotonic across scrapes; and the slow-query ring must capture
//! over-threshold requests only.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use historygraph::tgraph::{Event, EventList};
use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager};
use histql::{Frame, MetricValue, Response};
use server::{serve_sharded, Client, ServerConfig, ServerHandle};

/// 60 nodes appearing at t = 1..=60: deep enough that 4 equi-width shards
/// each own a predictable time slice (shard 0 holds the earliest quarter).
fn linear_trace() -> EventList {
    EventList::from_events(
        (1..=60)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    )
}

/// Starts a 4-shard server with the slow-query threshold and (optionally)
/// an HTTP scrape listener on an OS-picked port.
fn start(slow_query_us: u64, scrape: bool) -> ServerHandle {
    let router = ShardedGraphManager::build_in_memory(
        &linear_trace(),
        ShardedConfig::default().with_shards(4).with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(32)
                .with_response_cache(32),
        ),
    )
    .unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 32,
        slow_query_us,
        metrics_addr: scrape.then(|| "127.0.0.1:0".into()),
        ..Default::default()
    };
    serve_sharded(router, config).unwrap()
}

/// Issues a mixed workload touching every shard, with extra traffic on the
/// earliest shard so per-shard skew is visible in the counters.
fn mixed_workload(server: &ServerHandle) {
    let mut c = Client::connect(server.addr()).unwrap();
    for t in [5, 20, 35, 50] {
        c.send_ok(&format!("GET GRAPH AT {t} WITH +node:all"))
            .unwrap();
    }
    for _ in 0..8 {
        c.send_ok("GET GRAPH AT 5 WITH +node:all").unwrap();
    }
    c.send_ok("GET GRAPHS AT 10, 40").unwrap();
    // Interval-style queries must stay within one shard's time range.
    c.send_ok("DIFF 12 5").unwrap();
    // Unique node per call so a server seeing two workloads accepts both.
    static APPEND_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = APPEND_SEQ.fetch_add(1, Ordering::Relaxed);
    c.send_ok(&format!("APPEND NODE {} {}", 61 + seq, 9999 + seq))
        .unwrap();
    c.send_ok("STATS").unwrap();
    c.quit();
}

/// All metric names off a `STATS METRICS` reply, in reply (sorted) order.
fn metric_names(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix("M "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// One `name=value` field off the `M <metric> ...` line for `metric`.
fn metric_field(lines: &[String], metric: &str, name: &str) -> u64 {
    let prefix = format!("M {metric} ");
    lines
        .iter()
        .find(|l| l.starts_with(&prefix))
        .and_then(|line| {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} on metric {metric}"))
}

/// Issues one HTTP/1.0 request against the scrape endpoint and returns the
/// raw response bytes (the server closes the connection after replying).
fn scrape(server: &ServerHandle, path: &str) -> String {
    let addr = server.metrics_addr().expect("scrape endpoint bound");
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .unwrap();
    let mut reply = Vec::new();
    sock.read_to_end(&mut reply).unwrap();
    String::from_utf8(reply).unwrap()
}

/// The metric catalog reports non-zero per-verb counts after a mixed
/// workload, including the per-shard skew counters, under sorted, unique
/// names.
#[test]
fn metric_catalog_reports_traffic_per_verb_and_shard() {
    let server = start(0, false);
    mixed_workload(&server);
    let mut probe = Client::connect(server.addr()).unwrap();
    let lines = probe.send_ok("STATS METRICS").unwrap();
    assert!(
        lines[0].starts_with("OK METRICS entries="),
        "{:?}",
        lines[0]
    );

    // Per-verb latency saw the traffic.
    assert!(metric_field(&lines, "verb_us_get_graph_at", "count") >= 12);
    assert!(metric_field(&lines, "verb_us_append", "count") >= 1);
    assert!(metric_field(&lines, "verb_us_diff", "count") >= 1);

    // Per-shard skew: shard 0 (owning t=5) absorbed the hot-point
    // burst, so its query counter dominates the later shards'.
    let shard0 = metric_field(&lines, "shard0_queries_total", "value");
    let shard3 = metric_field(&lines, "shard3_queries_total", "value");
    assert!(
        shard0 > shard3 && shard0 >= 9,
        "shard0={shard0} shard3={shard3}"
    );
    assert!(metric_field(&lines, "shard3_appends_total", "value") >= 1);

    let names = metric_names(&lines);
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "names must be sorted and unique"
    );
}

/// Counters and histogram counts only ever grow between two scrapes of the
/// same live server.
#[test]
fn metrics_are_monotonic_across_scrapes() {
    let server = start(0, false);
    mixed_workload(&server);
    let mut probe = Client::connect(server.addr()).unwrap();
    let before = probe.send_ok("STATS METRICS").unwrap();
    mixed_workload(&server);
    let after = probe.send_ok("STATS METRICS").unwrap();

    let count_before = metric_field(&before, "verb_us_get_graph_at", "count");
    let count_after = metric_field(&after, "verb_us_get_graph_at", "count");
    assert!(
        count_after >= count_before + 12,
        "before={count_before} after={count_after}"
    );
    // Shard lock waits are exported as counters that never decrease.
    for name in [
        "shard_read_lock_wait_us_total",
        "shard_write_lock_wait_us_total",
    ] {
        assert!(
            before
                .iter()
                .any(|l| l.starts_with(&format!("M {name} counter"))),
            "{name} missing"
        );
        assert!(metric_field(&after, name, "value") >= metric_field(&before, name, "value"));
    }
    for name in metric_names(&before) {
        // Gauges (live connections, queue depth) may move either way;
        // counters and histogram counts must not regress.
        let field = if before
            .iter()
            .any(|l| l.starts_with(&format!("M {name} hist")))
        {
            "count"
        } else if before
            .iter()
            .any(|l| l.starts_with(&format!("M {name} counter")))
        {
            "value"
        } else {
            continue;
        };
        assert!(
            metric_field(&after, &name, field) >= metric_field(&before, &name, field),
            "{name} regressed"
        );
    }
}

/// The slow-query ring captures requests only when the threshold is set
/// and exceeded: a 1µs threshold catches real traffic, an absurdly high
/// one (and the off default) catches nothing.
#[test]
fn slow_query_log_captures_only_over_threshold_requests() {
    let server = start(1, false);
    mixed_workload(&server);
    let mut probe = Client::connect(server.addr()).unwrap();
    let lines = probe.send_ok("STATS SLOW").unwrap();
    let entries: usize = lines[0]
        .strip_prefix("OK SLOW entries=")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad header: {:?}", lines[0]));
    assert!(entries > 0, "1µs threshold must capture the workload");
    assert_eq!(lines.len(), entries + 1);
    for line in &lines[1..] {
        assert!(line.starts_with("Q verb="), "{line}");
        assert!(line.contains(" total_us="), "{line}");
    }

    // Far-above-traffic threshold: nothing is slow enough to capture.
    let server = start(u64::MAX, false);
    mixed_workload(&server);
    let mut probe = Client::connect(server.addr()).unwrap();
    let lines = probe.send_ok("STATS SLOW").unwrap();
    assert_eq!(lines[0], "OK SLOW entries=0");

    // Default (0): capture is off entirely.
    let server = start(0, false);
    mixed_workload(&server);
    let mut probe = Client::connect(server.addr()).unwrap();
    let lines = probe.send_ok("STATS SLOW").unwrap();
    assert_eq!(lines[0], "OK SLOW entries=0");
}

/// The HTTP scrape endpoint speaks Prometheus plaintext: correct framing,
/// every `STATS METRICS` name present under the `histql_` prefix, and a 404
/// (without rendering) for any other path.
#[test]
fn http_scrape_endpoint_serves_the_catalog() {
    let server = start(0, true);
    mixed_workload(&server);

    let reply = scrape(&server, "/metrics");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header separator");
    assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header");
    assert_eq!(length, body.len(), "advertised length matches the body");
    assert!(
        body.contains("# TYPE histql_verb_us_get_graph_at summary"),
        "missing verb summary"
    );
    assert!(body.contains("histql_verb_us_get_graph_at{quantile=\"0.99\"}"));
    assert!(body.contains("histql_verb_us_get_graph_at_count"));

    // Same catalog as the in-band verb, name for name.
    let mut probe = Client::connect(server.addr()).unwrap();
    let lines = probe.send_ok("STATS METRICS").unwrap();
    for name in metric_names(&lines) {
        assert!(
            body.contains(&format!("histql_{name}")),
            "scrape missing {name}"
        );
    }

    let miss = scrape(&server, "/anything-else");
    assert!(miss.starts_with("HTTP/1.0 404"), "{miss}");
}

/// A recovered deployment hydrates shards on first touch; each hydration
/// shows up as one `shard_hydrations_total` tick and one `shard_hydrate_us`
/// sample, in-band and on the scrape endpoint. A freshly built router
/// reports both at zero.
#[test]
fn shard_hydrations_are_counted_and_timed() {
    use historygraph::WalSyncPolicy;
    let fresh = start(0, false);
    let mut probe = Client::connect(fresh.addr()).unwrap();
    let lines = probe.send_ok("STATS METRICS").unwrap();
    assert_eq!(metric_field(&lines, "shard_hydrations_total", "value"), 0);
    assert_eq!(metric_field(&lines, "shard_hydrate_us", "count"), 0);

    let dir = std::env::temp_dir().join(format!("metrics-hydrate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ShardedConfig::default().with_shards(4);
    drop(
        ShardedGraphManager::build_durable(
            &linear_trace(),
            config.clone(),
            &dir,
            WalSyncPolicy::Off,
        )
        .unwrap(),
    );
    let router = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
    let server = serve_sharded(
        router,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    // A scrape must not hydrate anything by itself.
    let lines = c.send_ok("STATS METRICS").unwrap();
    assert_eq!(metric_field(&lines, "shard_hydrations_total", "value"), 0);
    c.send_ok("GET GRAPH AT 5").unwrap();
    c.send_ok("GET GRAPH AT 6").unwrap(); // same shard: already hydrated
    let lines = c.send_ok("STATS METRICS").unwrap();
    assert_eq!(metric_field(&lines, "shard_hydrations_total", "value"), 1);
    assert_eq!(metric_field(&lines, "shard_hydrate_us", "count"), 1);
    assert!(metric_field(&lines, "shard_hydrate_us", "max") >= 1);
    c.send_ok("GET GRAPH AT 50").unwrap();
    let lines = c.send_ok("STATS METRICS").unwrap();
    assert_eq!(metric_field(&lines, "shard_hydrations_total", "value"), 2);
    assert_eq!(metric_field(&lines, "shard_hydrate_us", "count"), 2);
    let body = scrape(&server, "/metrics");
    assert!(body.contains("histql_shard_hydrations_total 2"), "{body}");
    assert!(body.contains("histql_shard_hydrate_us_count 2"), "{body}");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// `STATS METRICS` over the binary protocol round-trips the same catalog
/// as typed data (tag 15), with live per-verb histogram counts.
#[test]
fn binary_stats_metrics_roundtrips_typed_entries() {
    let server = start(0, false);
    mixed_workload(&server);
    let mut probe = Client::connect(server.addr()).unwrap();
    probe.binary().unwrap();
    let frame = probe.send_binary("STATS METRICS").unwrap();
    let Frame::Response(Response::Metrics { entries }) = frame else {
        panic!("expected a Metrics response, got {frame:?}");
    };
    assert!(!entries.is_empty());
    let verb = entries
        .iter()
        .find(|e| e.name == "verb_us_get_graph_at")
        .expect("per-verb histogram present");
    match &verb.value {
        MetricValue::Histogram(h) => assert!(h.count >= 12, "count={}", h.count),
        other => panic!("expected a histogram, got {other:?}"),
    }
}
