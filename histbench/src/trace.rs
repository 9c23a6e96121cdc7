//! The traced run: spans recorded from the benchmark's own files, around
//! the calls into each layer.
//!
//! Single-threaded, in-process, no sockets. The first requests of a
//! workload's script are replayed **by hand** through the public functions
//! of each layer — parse, route, cache probe, plan, retrieve (over a
//! [`TracedStore`]), overlay, render, release — with a span around each
//! call. The same requests are then timed through `Executor::execute_framed`
//! on an identically configured fresh router; the ratio of the two is the
//! trace's coverage. End-to-end metrics are never measured here.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use historygraph::{ShardedGraphManager, ShardedSession, SharedGraphManager, WireFormat};
use histql::{Executor, Frame, HistorySample, Query, Response};
use kvstore::key::StoreKey;
use kvstore::stats::StatsSnapshot;
use kvstore::{KeyValueStore, StoreResult};
use tgraph::{AttrOptions, Event, Snapshot, TimeExpression, Timestamp};

use crate::load::{prepare, Plan, Prepared};
use crate::script::{Class, Writer};
use crate::stats::median;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based; 0 means "no parent".
    pub id: u32,
    pub parent: u32,
    /// The request the span belongs to (0: outside any request).
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside, where the layer counts it: store reads, elements
    /// applied, path edges.
    pub count: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_us(&self) -> f64 {
        self.dur_ns() as f64 / 1e3
    }
}

#[derive(Default)]
struct Open {
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

/// Keeps spans in memory; they are written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    open: Mutex<Open>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            open: Mutex::new(Open::default()),
        }
    }

    /// Spans are recorded only while switched on (builds and warm passes
    /// run with the recorder off).
    pub fn switch(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn set_request(&self, req: u32) {
        self.lock().req = req;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Open> {
        self.open.lock().expect("no panic while recording a span")
    }

    /// Runs `f` inside a span named `name`; `counts` turns its result into
    /// the span's `(count, bytes)`.
    pub fn span_with<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        counts: impl FnOnce(&R) -> (u64, u64),
    ) -> R {
        if !self.on.load(Ordering::SeqCst) {
            return f();
        }
        let id = {
            let mut open = self.lock();
            let id = open.spans.len() as u32 + 1;
            let span = Span {
                id,
                parent: open.stack.last().copied().unwrap_or(0),
                req: open.req,
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                count: 0,
                bytes: 0,
            };
            open.spans.push(span);
            open.stack.push(id);
            id
        };
        let result = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (count, bytes) = counts(&result);
        let mut open = self.lock();
        let span = &mut open.spans[id as usize - 1];
        (span.end_ns, span.count, span.bytes) = (end_ns, count, bytes);
        open.stack.pop();
        result
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_with(name, f, |_| (0, 0))
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Forgets every span after the first `len` (none may still be open).
    pub fn truncate(&self, len: usize) {
        self.lock().spans.truncate(len);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Self time of every span: its duration minus the part its direct child
/// spans cover. Indexed like `spans`.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"count\":{},\"bytes\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.count, s.bytes
        )?;
    }
    out.flush()
}

/// The benchmark's own `KeyValueStore`: forwards to the real store and
/// times every `get` as a `kvstore.get` span. Counters stay the real
/// store's own.
pub struct TracedStore {
    inner: Arc<dyn KeyValueStore>,
    rec: Arc<Recorder>,
}

impl TracedStore {
    pub fn wrap(inner: Arc<dyn KeyValueStore>, rec: &Arc<Recorder>) -> Arc<dyn KeyValueStore> {
        Arc::new(TracedStore {
            inner,
            rec: Arc::clone(rec),
        })
    }
}

impl KeyValueStore for TracedStore {
    fn put(&self, key: StoreKey, value: &[u8]) -> StoreResult<()> {
        self.inner.put(key, value)
    }

    fn get(&self, key: StoreKey) -> StoreResult<Option<Vec<u8>>> {
        self.rec.span_with(
            "kvstore.get",
            || self.inner.get(key),
            |r| match r {
                Ok(Some(v)) => (1, v.len() as u64),
                _ => (1, 0),
            },
        )
    }

    fn delete(&self, key: StoreKey) -> StoreResult<()> {
        self.inner.delete(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    fn flush(&self) -> StoreResult<()> {
        self.inner.flush()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// The backing store's own operation counters.
fn store_stats(shard: &SharedGraphManager) -> StatsSnapshot {
    shard.read().index().payload_store().backing_store().stats()
}

/// Store reads `(gets, bytes)` since `before`, from the store's own counters.
fn reads_since(shard: &SharedGraphManager, before: &StatsSnapshot) -> (u64, u64) {
    let now = store_stats(shard);
    (now.gets - before.gets, now.bytes_read - before.bytes_read)
}

/// What the by-hand replay remembers for the measurements that follow it.
#[derive(Default)]
pub struct Observed {
    /// Cold point retrievals of the replay.
    pub cold_points: Vec<ColdPoint>,
    /// Cold times of each multipoint request with the bytes it read.
    pub multipoints: Vec<(Vec<i64>, u64)>,
    /// Distinct shards each multipoint request touched.
    pub fanouts: Vec<usize>,
    pub normalized_events: u64,
    pub reply_bytes: u64,
    pub requests: u64,
    pub failed: u64,
}

/// One point retrieval that missed the snapshot cache.
pub struct ColdPoint {
    pub t: i64,
    /// `PointPlan.estimated_cost` (bytes the §4 model expects to fetch).
    pub estimated_cost: usize,
    /// Bytes the retrieval read from the store.
    pub read_bytes: u64,
}

/// What a by-hand multipoint retrieval produced.
struct Multi {
    /// Snapshots in request order.
    snaps: Vec<Arc<Snapshot>>,
    /// The times that missed the snapshot cache, and the bytes fetching
    /// them together read.
    cold_times: Vec<i64>,
    read_bytes: u64,
    /// Distinct shards the request touched.
    fanout: usize,
}

/// The by-hand replay of requests against one router.
pub struct Hand<'a> {
    pub router: ShardedGraphManager,
    rec: &'a Recorder,
    format: WireFormat,
    /// Overlays the by-hand path created, released by `RELEASE ALL`.
    handles: Vec<(SharedGraphManager, graphpool::GraphId)>,
    /// Fills the snapshot cache exactly as the executor's miss path does;
    /// its spans are the `manager.retrieve_cached` measurement.
    shadow: ShardedSession,
    touched: HashSet<usize>,
    pub seen: Observed,
}

impl<'a> Hand<'a> {
    /// `seen` carries on what an earlier replay (a `restart_scan` cycle)
    /// already observed.
    pub fn new(
        router: ShardedGraphManager,
        rec: &'a Recorder,
        binary: bool,
        seen: Observed,
    ) -> Hand<'a> {
        Hand {
            shadow: router.session(),
            router,
            rec,
            format: if binary {
                WireFormat::Binary
            } else {
                WireFormat::Text
            },
            handles: Vec::new(),
            touched: HashSet::new(),
            seen,
        }
    }

    /// The warm-up of the timed runs, in miniature: the point requests go
    /// down the same by-hand path with the recorder off, so both cache tiers
    /// are as full as the executor's are after its own warm pass.
    pub fn warm(&mut self, requests: &[Prepared]) {
        for req in requests.iter().filter(|r| r.class == Class::Point) {
            self.dispatch(req);
        }
        self.dispatch(&Prepared {
            class: Class::Release,
            line: "RELEASE ALL".into(),
            want: crate::load::Want::Released,
        });
        self.seen = Observed::default();
    }

    /// The shard owning `t`. On a recovered deployment the first touch of a
    /// shard pays its lazy hydration, so it gets its own span name.
    fn route(&mut self, t: Timestamp) -> SharedGraphManager {
        let first_touch = self.touched.insert(self.router.shard_index_for(t));
        let name = if first_touch && self.router.is_durable() {
            "sharded.hydrate"
        } else {
            "sharded.route"
        };
        self.rec
            .span(name, || self.router.shard_for(t))
            .expect("scripted times are routable")
    }

    fn overlay(&mut self, shard: &SharedGraphManager, snapshot: &Snapshot, t: Timestamp) {
        let id = self.rec.span("graphpool.overlay", || {
            shard.write().overlay_snapshot(snapshot, t)
        });
        self.handles.push((shard.clone(), id));
    }

    fn render(&self, response: impl FnOnce() -> Response) -> Vec<u8> {
        self.rec
            .span("histql.render", || response().to_frame(self.format))
    }

    /// Multipoint retrieval by hand: per owning shard, probe every point,
    /// then fetch the cold ones together through the Steiner planner.
    fn snapshots(&mut self, times: &[Timestamp], opts: &AttrOptions, overlay: bool) -> Multi {
        let mut groups: Vec<(SharedGraphManager, usize, Vec<usize>)> = Vec::new();
        for (pos, &t) in times.iter().enumerate() {
            let index = self.router.shard_index_for(t);
            let shard = self.route(t);
            match groups.iter_mut().find(|g| g.1 == index) {
                Some(group) => group.2.push(pos),
                None => groups.push((shard, index, vec![pos])),
            }
        }
        let fanout = groups.len();
        let mut slots: Vec<Option<Arc<Snapshot>>> = vec![None; times.len()];
        let (mut cold_times, mut read_bytes) = (Vec::new(), 0u64);
        for (shard, _, positions) in groups {
            let mut cold = Vec::new();
            for pos in positions {
                let t = times[pos];
                match self.rec.span("cache.probe", || shard.peek_cached(t, opts)) {
                    Some(hit) => slots[pos] = Some(hit),
                    None => cold.push(pos),
                }
            }
            if cold.is_empty() {
                continue;
            }
            let ts: Vec<Timestamp> = cold.iter().map(|&pos| times[pos]).collect();
            let before = store_stats(&shard);
            let snaps = self
                .rec
                .span_with(
                    "deltagraph.get_snapshots",
                    || shard.read().index().get_snapshots(&ts, opts),
                    |_| (ts.len() as u64, reads_since(&shard, &before).1),
                )
                .expect("multipoint retrieval of scripted times");
            read_bytes += reads_since(&shard, &before).1;
            for (pos, snap) in cold.into_iter().zip(snaps) {
                if overlay {
                    self.overlay(&shard, &snap, times[pos]);
                }
                cold_times.push(times[pos].raw());
                slots[pos] = Some(Arc::new(snap));
            }
        }
        Multi {
            snaps: slots
                .into_iter()
                .map(|s| s.expect("every point answered"))
                .collect(),
            cold_times,
            read_bytes,
            fanout,
        }
    }

    /// Replays one request by hand under a `request` root span and returns
    /// the framed reply.
    pub fn request(&mut self, id: u32, req: &Prepared) -> Vec<u8> {
        self.rec.set_request(id);
        let rec = self.rec;
        let frame = rec.span("request", || self.dispatch(req));
        self.rec.set_request(0);
        self.seen.requests += 1;
        self.seen.reply_bytes += frame.len() as u64;
        if !reply_matches(req, &frame, self.format) {
            self.seen.failed += 1;
        }
        frame
    }

    fn dispatch(&mut self, req: &Prepared) -> Vec<u8> {
        let query = self
            .rec
            .span("histql.parse", || histql::parse(&req.line))
            .expect("scripted lines parse");
        let opts_of = |attrs: &str| AttrOptions::parse(attrs).expect("scripted options are valid");
        match query {
            Query::GetGraphAt { t, attrs } => self.point(t, &opts_of(&attrs)),
            Query::GetGraphsAt { times, attrs } => {
                let multi = self.snapshots(&times, &opts_of(&attrs), true);
                self.seen.fanouts.push(multi.fanout);
                if !multi.cold_times.is_empty() {
                    self.seen
                        .multipoints
                        .push((multi.cold_times, multi.read_bytes));
                }
                self.render(|| Response::Graphs {
                    items: times.iter().copied().zip(multi.snaps).collect(),
                })
            }
            Query::GetGraphBetween { start, end, attrs } => {
                let opts = opts_of(&attrs);
                let (_, shard) = self
                    .rec
                    .span("sharded.route", || self.router.covering_shard(start, end))
                    .expect("scripted windows stay inside one shard");
                let (graph, transients) = self
                    .rec
                    .span("deltagraph.get_interval", || {
                        shard
                            .read()
                            .index()
                            .get_snapshot_interval(start, end, &opts)
                    })
                    .expect("interval retrieval");
                self.overlay(&shard, &graph, start);
                self.render(|| Response::Interval {
                    start,
                    end,
                    graph,
                    transients,
                })
            }
            Query::Diff { a, b, attrs } => {
                let opts = opts_of(&attrs);
                let (_, shard) = self
                    .rec
                    .span("sharded.route", || {
                        self.router.covering_shard(a.min(b), a.max(b))
                    })
                    .expect("scripted diffs stay inside one shard");
                let graph = self
                    .rec
                    .span("deltagraph.get_expression", || {
                        shard
                            .read()
                            .index()
                            .get_time_expression(&TimeExpression::diff(a, b), &opts)
                    })
                    .expect("expression retrieval");
                self.overlay(&shard, &graph, b);
                self.render(|| Response::Graph {
                    t: b,
                    graph: Arc::new(graph),
                })
            }
            Query::NodeAt { key, t } => {
                let node = self
                    .rec
                    .span("sharded.resolve_key", || self.router.resolve_key(&key))
                    .expect("scripted keys are bound");
                let opts = AttrOptions::all();
                let probe = self
                    .rec
                    .span("cache.probe", || self.router.peek_cached(t, &opts));
                let snap = match probe {
                    Some(hit) => hit,
                    None => {
                        let shard = self.route(t);
                        Arc::new(self.get_snapshot(&shard, t, &opts).0)
                    }
                };
                self.render(|| {
                    let mut neighbors = snap.neighbors(node).to_vec();
                    neighbors.sort_unstable();
                    Response::Node {
                        key,
                        node,
                        t,
                        present: snap.has_node(node),
                        attrs: node_attrs(&snap, node),
                        neighbors,
                    }
                })
            }
            Query::NodeHistory {
                key,
                from,
                to,
                step,
            } => {
                let node = self
                    .rec
                    .span("sharded.resolve_key", || self.router.resolve_key(&key))
                    .expect("scripted keys are bound");
                let step = step.expect("scripted histories name their STEP");
                let times: Vec<Timestamp> = (0..=(to.raw() - from.raw()) / step)
                    .map(|i| Timestamp(from.raw() + i * step))
                    .collect();
                let snaps = self.snapshots(&times, &AttrOptions::all(), false).snaps;
                self.render(|| Response::History {
                    key,
                    node,
                    from,
                    to,
                    step,
                    samples: times
                        .iter()
                        .zip(&snaps)
                        .map(|(&t, snap)| HistorySample {
                            t,
                            present: snap.has_node(node),
                            degree: snap.degree(node),
                            attrs: node_attrs(snap, node),
                        })
                        .collect(),
                })
            }
            Query::Append(spec) => {
                let shard = self.route(spec.time());
                self.rec
                    .span("manager.append", || {
                        let mut gm = shard.write();
                        let event = spec.to_event(gm.index().current_graph());
                        gm.append_event(event)
                    })
                    .expect("scripted appends are chronological");
                self.render(|| Response::Appended { t: spec.time() })
            }
            Query::AppendBatch(specs) => {
                let shard = self.route(specs[0].time());
                let events: Vec<Event> = {
                    let gm = shard.read();
                    specs
                        .iter()
                        .map(|s| s.to_event(gm.index().current_graph()))
                        .collect()
                };
                self.rec
                    .span("manager.prepare_batch", || {
                        shard.read().prepare_batch(events.clone())
                    })
                    .expect("scripted batches are well formed");
                let outcome = self
                    .rec
                    .span("manager.append_batch", || {
                        shard.write().append_batch(events)
                    })
                    .expect("scripted batches apply");
                self.seen.normalized_events += outcome.normalized as u64;
                self.render(|| Response::AppendedBatch {
                    count: outcome.applied,
                    normalized: outcome.normalized,
                    t_min: outcome.t_min,
                    t_max: outcome.t_max,
                })
            }
            Query::ReleaseAll => {
                let handles = std::mem::take(&mut self.handles);
                let count = handles.len();
                self.rec.span("graphpool.release", || {
                    let mut shards: Vec<SharedGraphManager> = Vec::new();
                    for (shard, id) in handles {
                        shard.write().release(id);
                        if !shards.iter().any(|s| s.same_manager(&shard)) {
                            shards.push(shard);
                        }
                    }
                    for shard in shards {
                        shard.write().cleanup();
                    }
                });
                self.rec
                    .span("shadow.release", || self.shadow.release_now());
                self.render(|| Response::Released { count })
            }
            other => panic!("the scripts never send {other:?}"),
        }
    }

    fn get_snapshot(
        &mut self,
        shard: &SharedGraphManager,
        t: Timestamp,
        opts: &AttrOptions,
    ) -> (Snapshot, (u64, u64)) {
        let before = store_stats(shard);
        let snap = self
            .rec
            .span_with(
                "deltagraph.get_snapshot",
                || shard.read().index().get_snapshot(t, opts),
                |_| reads_since(shard, &before),
            )
            .expect("scripted times are retrievable");
        (snap, reads_since(shard, &before))
    }

    /// `GET GRAPH AT`: the path a reply takes through both cache tiers, or,
    /// on a miss, through plan → retrieve → overlay → render.
    fn point(&mut self, t: Timestamp, opts: &AttrOptions) -> Vec<u8> {
        let shard = self.route(t);
        let format = self.format;
        if let Some(hit) = self.rec.span("cache.probe", || shard.peek_cached(t, opts)) {
            let epoch = shard.read().append_epoch();
            let cached = self.rec.span("cache.response_get", || {
                shard.response_cache_get(t, opts, format)
            });
            return match cached {
                Some(bytes) => bytes.to_vec(),
                None => {
                    let frame = self.render(|| Response::Graph { t, graph: hit });
                    let shared: Arc<[u8]> = frame.clone().into();
                    self.rec.span("cache.response_put", || {
                        shard.response_cache_put(t, opts, format, shared, epoch)
                    });
                    frame
                }
            };
        }
        let plan = self
            .rec
            .span_with(
                "deltagraph.plan",
                || shard.read().index().plan_snapshot(t, opts),
                |plan| match plan {
                    Ok(Some(p)) => (p.path.len() as u64, p.estimated_cost as u64),
                    _ => (0, 0),
                },
            )
            .expect("planning a scripted time");
        let (snapshot, (_, read_bytes)) = self.get_snapshot(&shard, t, opts);
        if let Some(plan) = plan {
            self.seen.cold_points.push(ColdPoint {
                t: t.raw(),
                estimated_cost: plan.estimated_cost,
                read_bytes,
            });
        }
        self.overlay(&shard, &snapshot, t);
        let frame = self.render(|| Response::Graph {
            t,
            graph: Arc::new(snapshot),
        });
        self.rec.span("manager.retrieve_cached", || {
            self.shadow
                .retrieve_cached(t, opts)
                .expect("session retrieval of a scripted time")
        });
        frame
    }
}

fn node_attrs(snap: &Snapshot, node: tgraph::NodeId) -> Vec<(String, tgraph::AttrValue)> {
    snap.node(node)
        .map(|d| {
            d.attrs
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        })
        .unwrap_or_default()
}

/// Whether a framed reply says what the oracle wants.
pub fn reply_matches(req: &Prepared, frame: &[u8], format: WireFormat) -> bool {
    match format {
        WireFormat::Binary => frame
            .get(4..)
            .and_then(|payload| Frame::from_payload(payload).ok())
            .is_some_and(|f| req.want.matches_frame(&f)),
        WireFormat::Text => std::str::from_utf8(frame).is_ok_and(|text| {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines.pop() == Some("END".to_string()) && req.want.matches_text(&lines)
        }),
    }
}

/// The first `n` requests of the workload's scripts, rendered: taken from
/// the connections in turn, the scripts starting over together once every
/// one of them is through (so a `restart_scan` cycle reads each shard once).
/// Writer slots see every earlier append acknowledged, as they are by hand
/// and through the executor.
pub fn first_requests(plan: &Plan, n: usize, writer: &mut Option<Writer>) -> Vec<Prepared> {
    let mut out = Vec::with_capacity(n);
    let mut pos = vec![0usize; plan.scripts.len()];
    while out.len() < n {
        if pos
            .iter()
            .zip(&plan.scripts)
            .all(|(p, s)| *p == s.ops.len())
        {
            pos.fill(0);
        }
        for (conn, script) in plan.scripts.iter().enumerate() {
            if out.len() < n && pos[conn] < script.ops.len() {
                let prepared = prepare(&script.ops[pos[conn]], plan, writer);
                if matches!(prepared.class, Class::Append | Class::AppendBatch) {
                    writer.as_mut().expect("writer slot").ack();
                }
                out.push(prepared);
                pos[conn] += 1;
            }
        }
    }
    out
}

/// Per-request times of the same requests through `Executor::execute_framed`
/// (points first try `try_execute_hot`, as the reactor does).
#[derive(Default)]
pub struct Executed {
    pub all_us: Vec<f64>,
    pub hot_us: Vec<f64>,
    pub failed: u64,
}

pub fn execute_pass(
    router: &ShardedGraphManager,
    warm: &[Prepared],
    requests: &[Prepared],
    binary: bool,
) -> Executed {
    let mut exec = Executor::for_router(router.clone());
    let format = if binary {
        exec.execute_framed("PROTOCOL BINARY");
        WireFormat::Binary
    } else {
        WireFormat::Text
    };
    for req in warm.iter().filter(|r| r.class == Class::Point) {
        exec.execute_framed(&req.line);
    }
    exec.execute_framed("RELEASE ALL");
    let mut out = Executed::default();
    for req in requests {
        let start = Instant::now();
        let hot = if req.class == Class::Point {
            exec.try_execute_hot(&req.line)
        } else {
            None
        };
        let was_hot = hot.is_some();
        let reply = hot.unwrap_or_else(|| exec.execute_framed(&req.line));
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        out.all_us.push(us);
        if was_hot {
            out.hot_us.push(us);
        }
        if !reply_matches(req, reply.as_ref(), format) {
            out.failed += 1;
        }
    }
    out
}

/// Durations (µs) of the spans called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}

pub fn median_us(spans: &[Span], name: &str) -> f64 {
    median(&durations_us(spans, name))
}

/// Sums of `count`/`bytes`/duration over the `kvstore.get` spans below each
/// span called `parent_name`, with the parents' own total duration.
pub struct StoreShare {
    pub get_us: Vec<f64>,
    pub get_ns: u64,
    pub parent_ns: u64,
}

pub fn store_share(spans: &[Span], parent_name: &str) -> StoreShare {
    let parents: HashMap<u32, &Span> = spans
        .iter()
        .filter(|s| s.name == parent_name)
        .map(|s| (s.id, s))
        .collect();
    let mut share = StoreShare {
        get_us: Vec::new(),
        get_ns: 0,
        parent_ns: parents.values().map(|s| s.dur_ns()).sum(),
    };
    for s in spans.iter().filter(|s| s.name == "kvstore.get") {
        if parents.contains_key(&s.parent) {
            share.get_us.push(s.dur_us());
            share.get_ns += s.dur_ns();
        }
    }
    share
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "x",
            start_ns,
            end_ns,
            count: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // 1: [0,100) with children 2: [10,40) and 3: [50,70); 4 inside 2.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 50, 70),
            span(4, 2, 15, 25),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 20, 10]);
        assert_eq!(
            self_ns(&spans).iter().sum::<u64>(),
            100,
            "self times sum to the root"
        );
    }

    #[test]
    fn recorder_nests_spans_and_stays_silent_when_off() {
        let rec = Recorder::new();
        assert_eq!(rec.span("off", || 7), 7);
        assert!(rec.take().is_empty());
        rec.switch(true);
        rec.set_request(3);
        let v = rec.span("outer", || {
            rec.span_with("inner", || 5u64, |v| (*v, 2 * *v)) + 1
        });
        assert_eq!(v, 6);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].req),
            ("outer", 0, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 1));
        assert_eq!((spans[1].count, spans[1].bytes), (5, 10));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn traced_store_times_gets_and_keeps_the_real_counters() {
        let rec = Arc::new(Recorder::new());
        let store = TracedStore::wrap(Arc::new(kvstore::MemStore::new()), &rec);
        let key = StoreKey::new(0, 1, kvstore::ComponentKind::Structure);
        store.put(key, b"abcd").unwrap();
        rec.switch(true);
        assert_eq!(store.get(key).unwrap().as_deref(), Some(&b"abcd"[..]));
        let spans = rec.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].name, spans[0].count, spans[0].bytes),
            ("kvstore.get", 1, 4)
        );
        assert_eq!(store.stats().gets, 1);
        assert_eq!(store.stats().bytes_written, 4);
    }
}
