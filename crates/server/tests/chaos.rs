//! Fault-injected end-to-end tests: a real server process (or an
//! in-process core) is driven into the failure modes the storage and
//! serving layers claim to survive, and the claims are checked over the
//! wire.
//!
//! * **Degraded mode** — `HISTORYGRAPH_FAILPOINTS` makes every WAL append
//!   fail with EIO in a spawned server. Appends must come back as typed
//!   `DEGRADED` errors (sticky — the tail is read-only from the first
//!   fatal failure), reads must keep serving, `STATS HEALTH` must report
//!   the degradation in both encodings, and a restart without the fault
//!   must recover every append acked *before* the failure and accept new
//!   ones — the rolled-back append is gone, not half-applied.
//! * **Quarantine** — a tail WAL poisoned with records that replay but
//!   fail to apply quarantines the tail on first touch; other shards keep
//!   serving and `STATS HEALTH` names the sick shard.
//! * **Overload** — a one-worker server with a one-slot queue and a
//!   millisecond deadline is flooded; some requests must be shed with
//!   `ERR overloaded`, queued requests past the deadline must be refused
//!   with `ERR deadline exceeded`, the counters must surface in `STATS
//!   METRICS`, and the server must serve normally once the flood passes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager, WalSyncPolicy};
use server::{serve_sharded, Client, ServerConfig};
use tgraph::{Event, EventList};

/// Kills the child on drop so a failing assertion never leaks a server.
struct ServerProc {
    child: Child,
    addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ServerProc {
    /// Spawns the real server binary over `dir` with extra environment
    /// variables (the failpoint channel) and waits for its banner.
    fn spawn_with_env(dir: &Path, env: &[(&str, &str)]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_histql_server"));
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--toy",
            "--shards",
            "1",
            "--data-dir",
            dir.to_str().unwrap(),
            "--wal-sync",
            "always",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn histql_server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .split("histql server on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"))
            .to_string();
        ServerProc { child, addr }
    }

    fn spawn(dir: &Path) -> ServerProc {
        Self::spawn_with_env(dir, &[])
    }

    fn connect(&self) -> Client {
        for _ in 0..50 {
            if let Ok(c) = Client::connect(&self.addr) {
                return c;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("could not connect to {}", self.addr);
    }

    /// SIGKILL — no shutdown hooks, no final fsync.
    fn kill(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("wait");
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chaos-e2e-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Node ids of the appended (`9000 + i`) nodes visible at `t`.
fn appended_nodes_at(client: &mut Client, t: i64) -> Vec<u64> {
    let lines = client
        .send_ok(&format!("GET GRAPH AT {t} WITH +node:all"))
        .unwrap();
    let mut ids: Vec<u64> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("N "))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter_map(|id| id.parse().ok())
        .filter(|&id| id >= 9000)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn a_degraded_tail_serves_reads_and_recovers_after_restart() {
    let dir = test_dir("degraded");
    // Phase 1: build the deployment and ack some appends cleanly.
    let server = ServerProc::spawn(&dir);
    let mut client = server.connect();
    const N: u64 = 10;
    for i in 0..N {
        client
            .send_ok(&format!("APPEND NODE {} {}", 100 + i, 9000 + i))
            .unwrap();
    }
    drop(client);
    server.kill();

    // Phase 2: recover with every WAL append failing fatally.
    let server = ServerProc::spawn_with_env(&dir, &[("HISTORYGRAPH_FAILPOINTS", "wal.append=eio")]);
    let mut client = server.connect();
    // Recovery itself only reads; the acked appends are all visible.
    assert_eq!(
        appended_nodes_at(&mut client, 1000),
        (9000..9000 + N).collect::<Vec<_>>()
    );
    // The first append hits the fault, rolls back, and degrades the tail.
    let reply = client.send("APPEND NODE 200 9900").unwrap();
    assert!(reply[0].starts_with("ERR"), "{:?}", reply[0]);
    // Degradation is sticky: the next append is refused as DEGRADED even
    // though the reply travels before the WAL is touched again.
    let reply = client.send("APPEND NODE 201 9901").unwrap();
    assert!(reply[0].contains("DEGRADED"), "{:?}", reply[0]);
    // Reads keep serving from the degraded tail.
    assert_eq!(
        appended_nodes_at(&mut client, 1000),
        (9000..9000 + N).collect::<Vec<_>>()
    );
    // STATS HEALTH reports it in text...
    let health = client.send_ok("STATS HEALTH").unwrap();
    assert!(health[0].contains("degraded=true"), "{health:?}");
    assert!(
        health.iter().any(|l| l.contains("state=degraded")),
        "{health:?}"
    );
    // ...and over the binary protocol (frame tag 18).
    client.binary().unwrap();
    match client.send_binary("STATS HEALTH").unwrap() {
        histql::Frame::Response(resp) => {
            let lines = resp.to_lines();
            assert!(lines[0].contains("degraded=true"), "{lines:?}");
        }
        other => panic!("expected a health response frame, got {other:?}"),
    }
    drop(client);
    server.kill();

    // Phase 3: restart without the fault. Everything acked before the
    // failure is back, the rolled-back appends are not, and the tail
    // accepts writes again.
    let server = ServerProc::spawn(&dir);
    let mut client = server.connect();
    assert_eq!(
        appended_nodes_at(&mut client, 1000),
        (9000..9000 + N).collect::<Vec<_>>()
    );
    let health = client.send_ok("STATS HEALTH").unwrap();
    assert!(health[0].contains("degraded=false"), "{health:?}");
    client.send_ok("APPEND NODE 300 9950").unwrap();
    assert!(appended_nodes_at(&mut client, 1000).contains(&9950));
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_poisoned_tail_is_quarantined_while_other_shards_serve() {
    let dir = test_dir("quarantine");
    // 60 nodes at t = 1..=60 across two shards; shard 1 is the tail.
    let events = EventList::from_events(
        (1..=60)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    );
    let config = ShardedConfig::default()
        .with_shards(2)
        .with_quarantine_retry_ms(600_000)
        .with_manager(GraphManagerConfig::default());
    drop(
        ShardedGraphManager::build_durable(&events, config.clone(), &dir, WalSyncPolicy::Always)
            .unwrap(),
    );
    // Poison the tail WAL with records that replay fine but fail to apply
    // (duplicate node ids). Two of them defeat the drop-one-record heal.
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.extension().is_some_and(|x| x == "log")
                && p.file_name().is_some_and(|f| f != "keys.log")
        })
        .expect("a wal-*.log in the data dir");
    let mut replay = kvstore::wal::Wal::open(&wal, WalSyncPolicy::Always).unwrap();
    for i in 0..2u64 {
        replay
            .wal
            .append(&Event::add_node(61 + i as i64, 1001 + i))
            .unwrap();
    }
    drop(replay);

    let router = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    let server = serve_sharded(router, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Touching the tail quarantines it; the error names the shard.
    let reply = client.send("GET GRAPH AT 55").unwrap();
    assert!(reply[0].contains("quarantined"), "{:?}", reply[0]);
    // The healthy shard keeps serving.
    let lines = client.send_ok("GET GRAPH AT 10").unwrap();
    assert!(lines[0].starts_with("OK GRAPH t=10"), "{lines:?}");
    // STATS HEALTH names the sick shard without touching it again.
    let health = client.send_ok("STATS HEALTH").unwrap();
    assert!(health[0].contains("quarantined=1"), "{health:?}");
    assert!(
        health.iter().any(|l| l.contains("state=quarantined")),
        "{health:?}"
    );
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_and_deadlines_fire_under_a_full_queue() {
    // 40,000 nodes make every request's service — retrieval plus a
    // 40,000-line render — far longer than the 1 ms deadline in debug and
    // release builds alike, so a one-worker queue backs up under eight
    // concurrent clients however fast retrieval gets.
    const NODES: i64 = 40_000;
    let events = EventList::from_events(
        (1..=NODES)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    );
    let router = ShardedGraphManager::build_in_memory(&events, ShardedConfig::default()).unwrap();
    let server = serve_sharded(
        router,
        ServerConfig {
            worker_threads: 1,
            max_queue_depth: 1,
            request_timeout_ms: 1,
            max_connections: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Flood until both protections have fired (a single round usually
    // does it; the retry bound keeps the test honest on a loaded machine).
    let mut shed = 0usize;
    let mut deadline = 0usize;
    let mut served = 0usize;
    for _round in 0..20 {
        let workers: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    // Distinct timestamps defeat the response cache and the
                    // reactor's fast path: every request takes the queue.
                    let t = NODES - 10 - i;
                    c.send(&format!("GET GRAPH AT {t} WITH +node:all"))
                        .map(|lines| lines[0].clone())
                })
            })
            .collect();
        for w in workers {
            match w.join().unwrap() {
                Ok(first) if first.starts_with("OK GRAPH") => served += 1,
                Ok(first) if first.contains("overloaded") => shed += 1,
                Ok(first) if first.contains("deadline exceeded") => deadline += 1,
                Ok(first) => panic!("unexpected reply: {first:?}"),
                Err(_) => {} // connection refused under the flood: fine
            }
        }
        if shed > 0 && deadline > 0 {
            break;
        }
    }
    assert!(shed > 0, "no request was shed ({served} served)");
    assert!(
        deadline > 0,
        "no queued request hit its deadline ({served} served, {shed} shed)"
    );
    assert!(served > 0, "the head-of-line requests should still serve");

    // The flood is over; the server serves normally again and the
    // counters surface in STATS METRICS.
    let mut client = Client::connect(addr).unwrap();
    let lines = client.send_ok("GET GRAPH AT 100").unwrap();
    assert!(lines[0].starts_with("OK GRAPH t=100"), "{lines:?}");
    let metrics = client.send_ok("STATS METRICS").unwrap();
    let get = |name: &str| -> u64 {
        metrics
            .iter()
            .find_map(|l| l.strip_prefix(&format!("M {name} counter value=")))
            .unwrap_or_else(|| panic!("missing {name} in {metrics:?}"))
            .parse()
            .unwrap()
    };
    assert!(get("requests_shed_total") >= shed as u64);
    // Service-phase overruns are counted too (every served render here
    // blows the 1 ms budget), so the counter is at least the refusals.
    assert!(get("deadline_exceeded_total") >= deadline as u64);
}
