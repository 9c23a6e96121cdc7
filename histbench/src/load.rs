//! Deployments (what set-up builds) and the closed-loop load generator.
//!
//! The server runs in this process (`server::serve_sharded`); the clients
//! are `server::Client` sessions over real TCP, one generator thread per
//! connection, each waiting for a reply before sending its next request.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use datagen::Dataset;
use historygraph::{
    GraphManagerConfig, ShardedConfig, ShardedGraphManager, WalSyncPolicy, WireFormat,
};
use histql::{Frame, MetricValue, Response};
use kvstore::{DiskStore, KeyValueStore, MemStore};
use server::{serve_sharded, Client, ServerConfig, ServerHandle};
use tgraph::{AttrOptions, Event, EventList, Snapshot, Timestamp};

use crate::dataset::{Inputs, Oracle, OracleQuery, END};
use crate::script::{self, Class, Expect, Op, Script, ScriptParams, Writer, BATCH_EVENTS};
use crate::spec::Workload;
use crate::stats::{percentile, OverSlices};

/// Sealed shards `restart_scan` persists (plus the tail).
pub const SEALED_SHARDS: usize = 16;
/// WAL policy of the durable deployment.
pub const WAL_POLICY: WalSyncPolicy = WalSyncPolicy::Always;
/// One reply in this many is kept raw and compared, after the window,
/// against the replayed trace rendered through `Response::to_frame`.
const KEEP_EVERY: u64 = 256;
/// Kept replies per connection (each costs one full replay to check).
const KEEP_MAX: usize = 12;

/// Sizes of one run: everything that is not the workload or the seed.
#[derive(Clone, Copy, Debug)]
pub struct RunShape {
    pub quick: bool,
    /// Closed-loop connections = server workers.
    pub conns: usize,
    /// Snapshot- and response-cache entries per shard.
    pub cache: usize,
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
}

impl RunShape {
    /// `C = min(nproc, 4)` connections, a timed window of `seconds` cut into
    /// five slices, and a warm-up of a quarter of the window (at most 3 s).
    pub fn new(seconds: f64, quick: bool) -> RunShape {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let slices = 5;
        RunShape {
            quick,
            conns: nproc.min(4),
            cache: if quick { 12 } else { 128 },
            warmup: Duration::from_secs_f64((seconds / 4.0).min(3.0)),
            slice: Duration::from_secs_f64(seconds / slices as f64),
            slices,
        }
    }

    pub fn manager_config(&self) -> GraphManagerConfig {
        GraphManagerConfig::default()
            .with_snapshot_cache(self.cache)
            .with_response_cache(self.cache)
    }
}

/// Where a deployment keeps its files, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// A fresh directory under `target/histbench/` of the working directory.
    pub fn new(label: &str) -> ScratchDir {
        let dir = Path::new("target")
            .join("histbench")
            .join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under target/histbench");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How a workload lays its history out.
pub struct Layout {
    pub config: ShardedConfig,
    /// `[lower, upper)` per shard, clipped to the generated history.
    pub shards: Vec<(i64, i64)>,
    pub backend: &'static str,
}

/// The shard layout of `workload` over `events`.
pub fn layout(workload: Workload, events: &EventList, shape: &RunShape) -> Layout {
    let start = events.start_time().expect("non-empty trace").raw();
    let base = ShardedConfig::default().with_manager(shape.manager_config());
    let (config, bounds, backend) = match workload {
        Workload::ColdPoint => (base, Vec::new(), "disk"),
        Workload::HotPoint => (base, Vec::new(), "mem"),
        Workload::MixedRw => {
            // What `with_shards(4)` resolves to: equi-width over the history.
            let n = 4i64;
            let bounds = (1..n).map(|i| start + (END - start) * i / n).collect();
            (base.with_shards(n as usize), bounds, "mem")
        }
        Workload::RestartScan => {
            // Sixteen sealed shards of equal event count and a short tail,
            // the layout a deployment rolled by `shard_events` ends up with.
            let evs = events.events();
            let tail = if shape.quick { 64 } else { 256 };
            let sealed = evs.len() - tail;
            let mut bounds: Vec<i64> = (1..=SEALED_SHARDS)
                .map(|i| evs[sealed * i / SEALED_SHARDS].time.raw())
                .collect();
            bounds.dedup();
            let ts = bounds.iter().map(|&b| Timestamp(b)).collect();
            (base.with_boundaries(ts), bounds, "mem+segments+wal")
        }
    };
    let mut shards = Vec::with_capacity(bounds.len() + 1);
    let mut lower = start;
    for b in bounds {
        shards.push((lower, b));
        lower = b;
    }
    shards.push((lower, END + 1));
    Layout {
        config,
        shards,
        backend,
    }
}

/// Builds the serving router of a non-durable workload; `wrap` lets the
/// traced run put its own store in front of the real one.
pub fn build_router(
    workload: Workload,
    events: &EventList,
    layout: &Layout,
    dir: &Path,
    wrap: impl Fn(Arc<dyn KeyValueStore>) -> Arc<dyn KeyValueStore> + Send + Sync + 'static,
) -> ShardedGraphManager {
    let on_disk = workload == Workload::ColdPoint;
    let dir = dir.to_path_buf();
    ShardedGraphManager::build(events, layout.config.clone(), move |shard| {
        let store: Arc<dyn KeyValueStore> = if on_disk {
            let path = dir.join(format!("deltagraph-{shard}.log"));
            Arc::new(DiskStore::create(path).expect("create the on-disk store"))
        } else {
            Arc::new(MemStore::new())
        };
        wrap(store)
    })
    .expect("index construction over the generated trace")
}

/// Builds and persists the durable deployment of `restart_scan`, syncs it
/// and drops it; returns its storage statistics.
pub fn build_durable(events: &EventList, layout: &Layout, dir: &Path) -> historygraph::StorageInfo {
    let router = ShardedGraphManager::build_durable(events, layout.config.clone(), dir, WAL_POLICY)
        .expect("durable index construction");
    router.sync_storage().expect("sync the durable deployment");
    router.storage_info()
}

pub fn open_durable(layout: &Layout, dir: &Path) -> ShardedGraphManager {
    // The shard layout comes from disk; only the manager config applies.
    let config = ShardedConfig::default().with_manager(layout.config.manager.clone());
    ShardedGraphManager::open(dir, config, WAL_POLICY).expect("recover the durable deployment")
}

pub fn start_server(router: &ShardedGraphManager, conns: usize) -> ServerHandle {
    serve_sharded(
        router.clone(),
        ServerConfig {
            worker_threads: conns,
            ..ServerConfig::default()
        },
    )
    .expect("bind the in-process server")
}

/// Everything the generator threads share.
pub struct Plan {
    pub scripts: Vec<Script>,
    pub oracle: Oracle,
    /// Node ids bound to `k0..k15`.
    pub keys: Vec<u64>,
    pub final_graph: Snapshot,
}

impl Plan {
    pub fn new(
        workload: Workload,
        seed: u64,
        inputs: &Inputs,
        layout: &Layout,
        shape: &RunShape,
    ) -> Plan {
        let final_graph = inputs.dataset.final_snapshot();
        let keys = script::bound_nodes(&final_graph);
        let scripts: Vec<Script> = (0..shape.conns)
            .map(|conn| {
                script::generate(&ScriptParams {
                    workload,
                    seed,
                    conn,
                    conns: shape.conns,
                    quick: shape.quick,
                    shards: &layout.shards,
                })
            })
            .collect();
        let mut query = OracleQuery::default();
        for s in &scripts {
            s.collect(&keys, &mut query);
        }
        Plan {
            oracle: Oracle::sweep(inputs.dataset.events.events(), &query),
            scripts,
            keys,
            final_graph,
        }
    }

    pub fn bind_keys(&self, router: &ShardedGraphManager) {
        for (i, &node) in self.keys.iter().enumerate() {
            router.register_key(format!("k{i}"), tgraph::NodeId(node));
        }
    }
}

/// One request, ready to send, with what its reply must say.
pub struct Prepared {
    pub class: Class,
    pub line: String,
    pub want: Want,
}

/// The checked facts of a reply.
pub enum Want {
    Graph {
        t: i64,
        nodes: usize,
        edges: usize,
    },
    Graphs(Vec<(i64, usize, usize)>),
    Interval {
        a: i64,
        b: i64,
        counts: (usize, usize, usize),
    },
    Node {
        key: usize,
        node: u64,
        t: i64,
        present: bool,
        degree: usize,
    },
    History {
        key: usize,
        samples: Vec<(i64, bool, usize)>,
    },
    Appended,
    AppendedBatch,
    Released,
}

/// Renders scripted operation `op` for sending.
pub fn prepare(op: &Op, plan: &Plan, writer: &mut Option<Writer>) -> Prepared {
    const WRITER: &str = "only connection 0 has writer slots";
    match op {
        Op::Fixed {
            class,
            line,
            expect,
        } => {
            let o = &plan.oracle;
            let want = match expect {
                Expect::Graph { t } => {
                    let (nodes, edges) = o.counts(*t);
                    Want::Graph {
                        t: *t,
                        nodes,
                        edges,
                    }
                }
                Expect::Graphs { times } => Want::Graphs(
                    times
                        .iter()
                        .map(|&t| {
                            let (n, e) = o.counts(t);
                            (t, n, e)
                        })
                        .collect(),
                ),
                Expect::Interval { a, b } => Want::Interval {
                    a: *a,
                    b: *b,
                    counts: o.interval(*a, *b),
                },
                Expect::Diff { a, b } => {
                    let (nodes, edges) = o.diff(*a, *b);
                    Want::Graph {
                        t: *b,
                        nodes,
                        edges,
                    }
                }
                Expect::Node { key, t } => {
                    let node = plan.keys[*key];
                    let (present, degree) = o.node(*t, node);
                    Want::Node {
                        key: *key,
                        node,
                        t: *t,
                        present,
                        degree,
                    }
                }
                Expect::History { key, times } => Want::History {
                    key: *key,
                    samples: times
                        .iter()
                        .map(|&t| {
                            let (p, d) = o.node(t, plan.keys[*key]);
                            (t, p, d)
                        })
                        .collect(),
                },
                Expect::Released => Want::Released,
            };
            Prepared {
                class: *class,
                line: line.clone(),
                want,
            }
        }
        Op::WriterTailRead => {
            let writer = writer.as_ref().expect(WRITER);
            let (line, nodes, edges) = writer.tail_read();
            Prepared {
                class: Class::Point,
                line,
                want: Want::Graph {
                    t: writer.t,
                    nodes,
                    edges,
                },
            }
        }
        Op::WriterAppendNode => Prepared {
            class: Class::Append,
            line: writer.as_mut().expect(WRITER).append_node(),
            want: Want::Appended,
        },
        Op::WriterAppendBatch => Prepared {
            class: Class::AppendBatch,
            line: writer.as_mut().expect(WRITER).append_batch(),
            want: Want::AppendedBatch,
        },
    }
}

impl Want {
    /// Whether a text reply (lines without the `END` sentinel) says this.
    pub fn matches_text(&self, lines: &[String]) -> bool {
        let Some(head) = lines.first() else {
            return false;
        };
        match self {
            Want::Graph { t, nodes, edges } => {
                *head == format!("OK GRAPH t={t} nodes={nodes} edges={edges}")
            }
            Want::Graphs(items) => {
                let mut heads = lines.iter().filter(|l| l.starts_with("GRAPH t="));
                *head == format!("OK GRAPHS count={}", items.len())
                    && items.iter().all(|(t, n, e)| {
                        heads.next() == Some(&format!("GRAPH t={t} nodes={n} edges={e}"))
                    })
                    && heads.next().is_none()
            }
            Want::Interval {
                a,
                b,
                counts: (n, e, tr),
            } => {
                *head
                    == format!("OK INTERVAL start={a} end={b} nodes={n} edges={e} transients={tr}")
            }
            Want::Node {
                key,
                node,
                t,
                present,
                degree,
            } => {
                *head
                    == format!(
                        "OK NODE \"k{key}\" id={node} t={t} present={present} degree={degree}"
                    )
            }
            Want::History { key, samples } => {
                head.starts_with(&format!("OK HISTORY \"k{key}\" "))
                    && head.ends_with(&format!(" samples={}", samples.len()))
                    && lines.len() == samples.len() + 1
                    && samples.iter().zip(&lines[1..]).all(|((t, p, d), line)| {
                        let want = format!("H t={t} present={p} degree={d}");
                        line.strip_prefix(want.as_str())
                            .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
                    })
            }
            Want::Appended => head.starts_with("OK APPENDED t="),
            Want::AppendedBatch => head.starts_with(&format!(
                "OK APPENDED BATCH count={BATCH_EVENTS} normalized=0 "
            )),
            Want::Released => head.starts_with("OK RELEASED "),
        }
    }

    /// Whether a decoded binary reply says this (binary scripts hold only
    /// point reads and releases).
    pub fn matches_frame(&self, frame: &Frame) -> bool {
        match (self, frame) {
            (
                Want::Graph { t, nodes, edges },
                Frame::Response(Response::Graph { t: got, graph }),
            ) => got.raw() == *t && graph.node_count() == *nodes && graph.edge_count() == *edges,
            (Want::Released, Frame::Response(Response::Released { .. })) => true,
            _ => false,
        }
    }
}

/// A reply kept raw for the post-window check.
pub struct Kept {
    t: i64,
    format: WireFormat,
    /// The reply as the server framed it (binary: without the length prefix).
    bytes: Vec<u8>,
}

/// What one connection measured in one slice.
#[derive(Default)]
pub struct SliceAcc {
    pub lat_ns: Vec<u64>,
    pub ok: u64,
    pub failed: u64,
    pub reply_bytes: u64,
    /// Wall time of the slice; the slice length, except on `restart_scan`.
    pub wall: Duration,
}

impl SliceAcc {
    /// Adds another connection's (or cycle's) measurements; `wall` is the
    /// caller's to set.
    fn absorb(&mut self, from: SliceAcc) {
        self.lat_ns.extend(from.lat_ns);
        self.ok += from.ok;
        self.failed += from.failed;
        self.reply_bytes += from.reply_bytes;
    }
}

/// What one connection measured over the window.
pub struct ConnOutcome {
    pub slices: Vec<SliceAcc>,
    pub class_lat_ns: Vec<Vec<u64>>,
    pub kept: Vec<Kept>,
    pub writer: Option<Writer>,
}

impl ConnOutcome {
    fn new(slices: usize) -> ConnOutcome {
        ConnOutcome {
            slices: (0..slices).map(|_| SliceAcc::default()).collect(),
            class_lat_ns: vec![Vec::new(); Class::ALL.len()],
            kept: Vec::new(),
            writer: None,
        }
    }
}

/// One connection's session state: the client, its place in the script and
/// the writer (connection 0 of `mixed_rw`).
struct Session<'a> {
    client: Client,
    script: &'a Script,
    plan: &'a Plan,
    pos: usize,
    writer: Option<Writer>,
}

/// A reply as `server::Client` hands it over.
enum Raw {
    Text(Vec<String>),
    Binary(Vec<u8>),
}

/// The outcome of one request.
struct Done {
    class: Class,
    ok: bool,
    lat_ns: u64,
    reply_bytes: u64,
    kept: Option<Kept>,
}

impl<'a> Session<'a> {
    fn connect(
        addr: std::net::SocketAddr,
        script: &'a Script,
        plan: &'a Plan,
        writer: Option<Writer>,
    ) -> Session<'a> {
        let mut client = Client::connect(addr).expect("connect to the in-process server");
        if script.binary {
            client
                .binary()
                .expect("switch the session to binary replies");
        }
        Session {
            client,
            script,
            plan,
            pos: 0,
            writer,
        }
    }

    /// Sends the next scripted request and checks its reply. An I/O error,
    /// an `ERR`, a refusal or a wrong count all come back as `ok == false`.
    fn step(&mut self) -> Done {
        let op = &self.script.ops[self.pos % self.script.ops.len()];
        self.pos += 1;
        let req = prepare(op, self.plan, &mut self.writer);
        let keep = req.class == Class::Point && self.pos as u64 % KEEP_EVERY == 1;
        let format = if self.script.binary {
            WireFormat::Binary
        } else {
            WireFormat::Text
        };
        // Latency is send -> last reply byte; checking comes after the clock.
        let start = Instant::now();
        let reply = match format {
            WireFormat::Binary => self.client.send_binary_raw(&req.line).map(Raw::Binary),
            WireFormat::Text => self.client.send(&req.line).map(Raw::Text),
        };
        let lat_ns = start.elapsed().as_nanos() as u64;
        // (verified, bytes read from the socket, the raw reply if kept)
        let (ok, reply_bytes, raw) = match reply {
            Ok(Raw::Binary(payload)) => {
                let ok =
                    Frame::from_payload(&payload).is_ok_and(|frame| req.want.matches_frame(&frame));
                (ok, payload.len() as u64 + 4, keep.then_some(payload))
            }
            Ok(Raw::Text(lines)) => {
                let bytes = lines.iter().map(|l| l.len() + 1).sum::<usize>() + 4;
                let raw = keep.then(|| {
                    let mut raw = lines.join("\n").into_bytes();
                    raw.extend_from_slice(b"\nEND\n");
                    raw
                });
                (req.want.matches_text(&lines), bytes as u64, raw)
            }
            Err(_) => (false, 0, None),
        };
        if ok && matches!(req.class, Class::Append | Class::AppendBatch) {
            self.writer
                .as_mut()
                .expect("appends come from the writer")
                .ack();
        }
        let kept = match (&req.want, raw) {
            (Want::Graph { t, .. }, Some(bytes)) => Some(Kept {
                t: *t,
                format,
                bytes,
            }),
            _ => None,
        };
        Done {
            class: req.class,
            ok,
            lat_ns,
            reply_bytes,
            kept,
        }
    }
}

/// The protocol-scraped metric catalog (`STATS METRICS`) at one instant.
pub type Wire = HashMap<String, MetricValue>;

/// Scrapes `STATS METRICS` over its own binary session.
pub fn scrape(addr: std::net::SocketAddr) -> Wire {
    let mut client = Client::connect(addr).expect("connect the scrape session");
    client.binary().expect("binary scrape session");
    let wire = match client.send_binary("STATS METRICS") {
        Ok(Frame::Response(Response::Metrics { entries })) => {
            entries.into_iter().map(|e| (e.name, e.value)).collect()
        }
        other => panic!("unexpected STATS METRICS reply: {other:?}"),
    };
    client.quit();
    wire
}

/// What the timed window of one run measured.
pub struct Window {
    /// Per slice, all connections merged.
    pub slices: Vec<SliceAcc>,
    /// Per class, whole window, all connections merged.
    pub class_lat_ns: Vec<Vec<u64>>,
    pub kept: Vec<Kept>,
    /// Events the writer appended and the server acknowledged.
    pub appended: Vec<Event>,
    pub wire_start: Wire,
    pub wire_end: Wire,
    /// `restart_scan`: per cycle, open duration and open-to-first-reply.
    pub open_ms: Vec<f64>,
    pub first_answer_ms: Vec<f64>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.slices.iter().map(|s| s.ok + s.failed).sum()
    }

    pub fn failed(&self) -> u64 {
        self.slices.iter().map(|s| s.failed).sum()
    }

    fn per_slice(&self, f: impl Fn(&SliceAcc) -> f64) -> OverSlices {
        OverSlices::of(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    pub fn ops_per_s(&self) -> OverSlices {
        self.per_slice(|s| s.ok as f64 / s.wall.as_secs_f64())
    }

    pub fn lat_us(&self, q: f64) -> OverSlices {
        self.per_slice(|s| percentile(&mut s.lat_ns.clone(), q) / 1e3)
    }

    pub fn reply_bytes_per_op(&self) -> f64 {
        let bytes: u64 = self.slices.iter().map(|s| s.reply_bytes).sum();
        bytes as f64 / self.attempted().max(1) as f64
    }

    /// Smallest per-slice sample count: `lat_p99_us` is resolved only when
    /// every slice holds at least 1000.
    pub fn min_slice_samples(&self) -> usize {
        self.slices
            .iter()
            .map(|s| s.lat_ns.len())
            .min()
            .unwrap_or(0)
    }

    pub fn class_p50_us(&self, class: Class) -> f64 {
        percentile(&mut self.class_lat_ns[class as usize].clone(), 0.5) / 1e3
    }
}

fn merge(outcomes: Vec<ConnOutcome>, slices: usize, slice: Duration) -> Window {
    let mut window = Window {
        slices: (0..slices)
            .map(|_| SliceAcc {
                wall: slice,
                ..SliceAcc::default()
            })
            .collect(),
        class_lat_ns: vec![Vec::new(); Class::ALL.len()],
        kept: Vec::new(),
        appended: Vec::new(),
        wire_start: Wire::new(),
        wire_end: Wire::new(),
        open_ms: Vec::new(),
        first_answer_ms: Vec::new(),
    };
    for outcome in outcomes {
        for (into, from) in window.slices.iter_mut().zip(outcome.slices) {
            into.absorb(from);
        }
        for (into, from) in window.class_lat_ns.iter_mut().zip(outcome.class_lat_ns) {
            into.extend(from);
        }
        let room = (KEEP_MAX * 2).saturating_sub(window.kept.len());
        window.kept.extend(outcome.kept.into_iter().take(room));
        if let Some(writer) = outcome.writer {
            window.appended = writer.acked;
        }
    }
    window
}

fn record(outcome: &mut ConnOutcome, slice: usize, done: Done) {
    let acc = &mut outcome.slices[slice];
    acc.lat_ns.push(done.lat_ns);
    acc.reply_bytes += done.reply_bytes;
    if done.ok {
        acc.ok += 1;
    } else {
        acc.failed += 1;
    }
    outcome.class_lat_ns[done.class as usize].push(done.lat_ns);
    if let Some(kept) = done.kept {
        if outcome.kept.len() < KEEP_MAX {
            outcome.kept.push(kept);
        }
    }
}

/// Warm-up (untimed), then the timed window cut into back-to-back slices,
/// against a running server. `STATS METRICS` is scraped between warm-up and
/// window and again after the window.
pub fn run_window(
    workload: Workload,
    addr: std::net::SocketAddr,
    plan: &Plan,
    shape: &RunShape,
) -> Window {
    // Generators and the scraping main thread meet twice: warm-up done,
    // then scrape done.
    let barrier = Barrier::new(shape.conns + 1);
    let (mut wire_start, mut outcomes) = (Wire::new(), Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .scripts
            .iter()
            .enumerate()
            .map(|(conn, script)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let writer = (workload == Workload::MixedRw && conn == 0)
                        .then(|| Writer::new(&plan.final_graph));
                    let mut session = Session::connect(addr, script, plan, writer);
                    let warm_until = Instant::now() + shape.warmup;
                    while Instant::now() < warm_until {
                        session.step();
                    }
                    barrier.wait();
                    barrier.wait();
                    let mut outcome = ConnOutcome::new(shape.slices);
                    let t0 = Instant::now();
                    loop {
                        let slice = (t0.elapsed().as_nanos() / shape.slice.as_nanos()) as usize;
                        if slice >= shape.slices {
                            break;
                        }
                        let done = session.step();
                        record(&mut outcome, slice, done);
                    }
                    session.client.quit();
                    outcome.writer = session.writer;
                    outcome
                })
            })
            .collect();
        barrier.wait();
        wire_start = scrape(addr);
        barrier.wait();
        outcomes = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
    });
    let mut window = merge(outcomes, shape.slices, shape.slice);
    window.wire_start = wire_start;
    window.wire_end = scrape(addr);
    window
}

/// `restart_scan`: repeats open → serve → one read per shard → quit →
/// shutdown until the window is over. No warm-up: cold is the point. The
/// completed cycles are cut into `shape.slices` contiguous groups.
pub fn run_restart_cycles(layout: &Layout, dir: &Path, plan: &Plan, shape: &RunShape) -> Window {
    struct Cycle {
        wall: Duration,
        outcomes: Vec<ConnOutcome>,
        open_ms: f64,
        first_answer_ms: f64,
    }
    let budget = shape.slice * shape.slices as u32;
    let t0 = Instant::now();
    let mut cycles = Vec::new();
    let mut last_wire = Wire::new();
    while t0.elapsed() < budget || cycles.len() < shape.slices {
        let started = Instant::now();
        let router = open_durable(layout, dir);
        let open_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut server = start_server(&router, shape.conns);
        let addr = server.addr();
        let outcomes: Vec<(ConnOutcome, Option<Instant>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .scripts
                .iter()
                .map(|script| {
                    scope.spawn(move || {
                        let mut session = Session::connect(addr, script, plan, None);
                        let mut outcome = ConnOutcome::new(1);
                        let mut first_ok = None;
                        for _ in 0..script.ops.len() {
                            let done = session.step();
                            if done.ok && first_ok.is_none() {
                                first_ok = Some(Instant::now());
                            }
                            record(&mut outcome, 0, done);
                        }
                        session.client.quit();
                        (outcome, first_ok)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        // Only the last cycle's scrape is kept: every cycle starts a fresh
        // server, so its counters are that cycle's alone.
        last_wire = scrape(addr);
        server.shutdown();
        drop(router);
        let first = outcomes.iter().filter_map(|(_, t)| *t).min();
        cycles.push(Cycle {
            wall: started.elapsed(),
            open_ms,
            first_answer_ms: first.map_or(0.0, |t| (t - started).as_secs_f64() * 1e3),
            outcomes: outcomes.into_iter().map(|(o, _)| o).collect(),
        });
    }
    let per_group = cycles.len() / shape.slices;
    let (mut open_ms, mut first_answer_ms) = (Vec::new(), Vec::new());
    let mut groups: Vec<SliceAcc> = (0..shape.slices).map(|_| SliceAcc::default()).collect();
    let mut flat = Vec::new();
    for (i, cycle) in cycles.into_iter().enumerate() {
        // The remainder of an uneven split goes to the last group.
        let group = (i / per_group).min(shape.slices - 1);
        groups[group].wall += cycle.wall;
        open_ms.push(cycle.open_ms);
        first_answer_ms.push(cycle.first_answer_ms);
        for mut outcome in cycle.outcomes {
            groups[group].absorb(std::mem::take(&mut outcome.slices[0]));
            flat.push(outcome);
        }
    }
    let mut window = merge(flat, 0, Duration::ZERO);
    window.slices = groups;
    window.open_ms = open_ms;
    window.first_answer_ms = first_answer_ms;
    window.wire_end = last_wire;
    window
}

/// Compares every kept reply, byte for byte, with the replayed trace (plus
/// the writer's acknowledged appends) rendered through `Response::to_frame`.
/// Returns the number of mismatches.
pub fn check_kept(window: &Window, dataset: &Dataset) -> u64 {
    if window.kept.is_empty() {
        return 0;
    }
    let mut events = dataset.events.events().to_vec();
    events.extend(window.appended.iter().cloned());
    let history = Dataset {
        name: "oracle",
        events: EventList::from_events(events),
    };
    let opts = AttrOptions::parse(script::POINT_ATTRS).expect("valid attribute options");
    let mut mismatches = 0;
    for kept in &window.kept {
        let t = Timestamp(kept.t);
        let graph = Arc::new(history.snapshot_at(t).project_attrs(&opts));
        let frame = Response::Graph { t, graph }.to_frame(kept.format);
        let want = match kept.format {
            WireFormat::Text => &frame[..],
            WireFormat::Binary => &frame[4..],
        };
        if want != kept.bytes {
            mismatches += 1;
        }
    }
    mismatches
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
