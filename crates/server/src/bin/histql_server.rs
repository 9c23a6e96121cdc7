//! Standalone `histql` snapshot server over a generated dataset.
//!
//! ```text
//! cargo run --release -p server --bin histql_server -- \
//!     [--addr 127.0.0.1:7171] [--toy | --churn] [--scale 1.0] \
//!     [--max-conns 64] [--cache 128] [--resp-cache 128] \
//!     [--resp-cache-bytes 0] [--workers 4] \
//!     [--shards 1] [--shard-events 0] [--no-metrics] \
//!     [--metrics-addr 127.0.0.1:9191] [--slow-query-us 0] \
//!     [--data-dir DIR] [--wal-sync always|interval[=ms]|off] \
//!     [--request-timeout-ms 0] [--max-queue-depth 0]
//! ```
//!
//! `--cache N` sizes each shard's point cache (entries; 0 disables it):
//! repeated `GET GRAPH AT t` across sessions is served from one shared,
//! reference-counted pool overlay instead of recomputing per session.
//! `--resp-cache N` sizes the byte slots of those entries: how many framed
//! replies (text or binary, per the session's `PROTOCOL`) a shard keeps
//! beside its overlays, so hot points are served with zero per-request
//! rendering (0 keeps no bytes). `--resp-cache-bytes B` additionally caps
//! the slots' total payload bytes per shard (0 = slot count only); the
//! least recently used replies are dropped until they fit, and their
//! overlays stay cached.
//!
//! The server runs on the event-driven core: one reactor thread
//! multiplexes all connections, `--workers N` threads execute requests,
//! and concurrent identical point queries are coalesced into single
//! renders (`STATS SERVER` shows the counters).
//!
//! `--shards N` splits the serving layer into N time-range shards behind a
//! router (equi-width over the built history): reads route to the shard
//! owning their time, multipoint queries fan out in parallel, and `APPEND`s
//! go to the tail shard only — historical shards (and their caches) are
//! immutable. `--shard-events M` rolls a fresh tail shard once the tail
//! holds M events (0 = never roll). `STATS SHARDS` reports the layout.
//!
//! Observability (see `docs/OBSERVABILITY.md`): per-verb and per-phase
//! latency histograms are collected by default (`STATS METRICS` reports
//! them; `--no-metrics` turns collection off). `--metrics-addr A` binds a
//! Prometheus-style plaintext `GET /metrics` scrape endpoint on `A`, and
//! `--slow-query-us N` captures requests slower than N µs into the ring
//! drained by `STATS SLOW`.
//!
//! Durability (see `docs/STORAGE.md`): `--data-dir DIR` persists the
//! router to `DIR` — sealed shards as immutable segment files, the tail
//! behind a write-ahead log fsynced per `--wal-sync` (default `always`).
//! When `DIR` already holds a deployment the server *recovers* it (the
//! dataset flags are ignored) and `STATS STORAGE` reports the recovery;
//! otherwise it builds the dataset and persists it there.
//!
//! Overload protection (see `docs/RELIABILITY.md`):
//! `--request-timeout-ms N` refuses requests whose queue wait exceeded the
//! deadline with `ERR deadline exceeded` (service overruns are counted but
//! complete), and `--max-queue-depth N` sheds requests arriving over a full
//! worker queue with `ERR overloaded`. Both default to 0 (off) and surface
//! in `STATS METRICS` / `GET /metrics` as `deadline_exceeded_total` and
//! `requests_shed_total`.
//!
//! An unknown flag, a missing value or an unparsable one prints the usage
//! line and exits with status 2.
//!
//! Prints the bound address on stdout, then serves until killed. Talk to it
//! with any line client:
//!
//! ```text
//! $ nc 127.0.0.1 7171
//! GET GRAPH AT 6 WITH +node:all
//! OK GRAPH t=6 nodes=3 edges=2
//! ...
//! END
//! ```

use std::process::exit;
use std::str::FromStr;

use historygraph::datagen::{churn_trace, toy_trace, ChurnConfig};
use historygraph::{
    is_durable_dir, GraphManagerConfig, ShardedConfig, ShardedGraphManager, WalSyncPolicy,
};
use server::{serve_sharded, ServerConfig};

const USAGE: &str = "usage: histql_server [--addr A] [--toy | --churn] [--scale F] \
[--max-conns N] [--cache N] [--resp-cache N] [--resp-cache-bytes B] [--workers N] \
[--shards N] [--shard-events M] [--no-metrics] [--metrics-addr A] [--slow-query-us N] \
[--data-dir DIR] [--wal-sync always|interval[=ms]|off] [--request-timeout-ms N] \
[--max-queue-depth N]";

fn usage_error(msg: &str) -> ! {
    eprintln!("histql_server: {msg}\n{USAGE}");
    exit(2)
}

/// The value given after `flag`, parsed as `T`.
fn value<T: FromStr>(flag: &str, next: Option<String>) -> T {
    let Some(v) = next else {
        usage_error(&format!("{flag} needs a value"))
    };
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("bad value {v:?} for {flag}")))
}

fn main() {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut toy = false;
    let mut scale: f64 = 1.0;
    let mut max_connections: usize = 64;
    let mut cache: usize = 128;
    let mut resp_cache: usize = 128;
    let mut resp_cache_bytes: u64 = 0;
    let mut workers: usize = 4;
    let mut shards: usize = 1;
    let mut shard_events: usize = 0;
    let mut metrics_enabled = true;
    let mut metrics_addr: Option<String> = None;
    let mut slow_query_us: u64 = 0;
    let mut data_dir: Option<String> = None;
    let mut wal_sync = WalSyncPolicy::Always;
    let mut request_timeout_ms: u64 = 0;
    let mut max_queue_depth: usize = 0;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => addr = value(&arg, argv.next()),
            "--toy" => toy = true,
            "--churn" => {} // the default dataset
            "--scale" => scale = value(&arg, argv.next()),
            "--max-conns" => max_connections = value(&arg, argv.next()),
            "--cache" => cache = value(&arg, argv.next()),
            "--resp-cache" => resp_cache = value(&arg, argv.next()),
            "--resp-cache-bytes" => resp_cache_bytes = value(&arg, argv.next()),
            "--workers" => workers = value(&arg, argv.next()),
            "--shards" => shards = value::<usize>(&arg, argv.next()).max(1),
            "--shard-events" => shard_events = value(&arg, argv.next()),
            "--no-metrics" => metrics_enabled = false,
            "--metrics-addr" => metrics_addr = Some(value(&arg, argv.next())),
            "--slow-query-us" => slow_query_us = value(&arg, argv.next()),
            "--data-dir" => data_dir = Some(value(&arg, argv.next())),
            "--wal-sync" => {
                let v: String = value(&arg, argv.next());
                wal_sync = WalSyncPolicy::parse(&v)
                    .unwrap_or_else(|e| usage_error(&format!("--wal-sync: {e}")));
            }
            "--request-timeout-ms" => request_timeout_ms = value(&arg, argv.next()),
            "--max-queue-depth" => max_queue_depth = value(&arg, argv.next()),
            _ => usage_error(&format!("unknown argument {arg:?}")),
        }
    }
    let sharded_config = ShardedConfig::default()
        .with_shards(shards)
        .with_shard_events(shard_events)
        .with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(cache)
                .with_response_cache(resp_cache)
                .with_response_cache_bytes(resp_cache_bytes),
        );
    let router = match &data_dir {
        Some(dir) if is_durable_dir(dir) => {
            eprintln!("recovering durable deployment from {dir} (wal-sync {wal_sync})...");
            let router = ShardedGraphManager::open(dir, sharded_config, wal_sync)
                .expect("recovery from --data-dir");
            let info = router.storage_info();
            eprintln!(
                "recovered {} segment(s) + WAL ({} bytes) in {} ms{}",
                info.segments,
                info.wal_bytes,
                info.recovery_ms,
                if info.torn_truncations > 0 {
                    format!(" — truncated a torn tail ({} bytes)", info.torn_bytes)
                } else {
                    String::new()
                }
            );
            router
        }
        _ => {
            let (events, label) = if toy {
                (toy_trace().events, "toy trace".to_string())
            } else {
                let ds = churn_trace(&ChurnConfig::default().scaled(scale * 0.1));
                (ds.events, format!("churn trace (scale {scale})"))
            };
            eprintln!(
                "building index over a {label} ({} events, {shards} shard(s), point \
                 cache {cache}/shard with {resp_cache} replies)...",
                events.len()
            );
            match &data_dir {
                Some(dir) => {
                    eprintln!("persisting to {dir} (wal-sync {wal_sync})...");
                    std::fs::create_dir_all(dir).expect("create --data-dir");
                    ShardedGraphManager::build_durable(&events, sharded_config, dir, wal_sync)
                        .expect("durable index construction")
                }
                None => ShardedGraphManager::build_in_memory(&events, sharded_config)
                    .expect("index construction"),
            }
        }
    };
    let infos = router.shard_infos();
    // Computed without touching cold shards, so a recovered deployment
    // reaches its banner (and its first query) after building only the tail.
    let (start, end) = router.history_range().expect("non-empty history");
    let config = ServerConfig {
        addr,
        max_connections,
        worker_threads: workers,
        metrics_enabled,
        metrics_addr,
        slow_query_us,
        request_timeout_ms,
        max_queue_depth,
        ..Default::default()
    };
    let server = serve_sharded(router, config).expect("bind");
    println!(
        "histql server on {} — history [{start}, {end}], {} shard(s){}",
        server.addr(),
        infos.len(),
        if data_dir.is_some() { ", durable" } else { "" }
    );
    if let Some(addr) = server.metrics_addr() {
        println!("metrics scrape endpoint on http://{addr}/metrics");
    }
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
