//! The traced run (`--trace 1`): the per-layer metrics of one workload.
//!
//! Two halves. The *wire* half runs a shorter untraced window and reads the
//! server's own counters over the protocol. The *trace* half replays the
//! first requests of the scripts by hand ([`crate::trace`]), times the same
//! requests through the executor, and makes a few direct calls into the
//! layers the replay does not reach on its own.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use deltagraph::DeltaGraph;
use historygraph::{ShardedGraphManager, SharedGraphManager, StorageInfo};
use histql::MetricValue;
use kvstore::wal::Wal;
use kvstore::{KeyValueStore, MemStore, Segment};
use tgraph::{AttrOptions, Event, Snapshot, Timestamp};

use crate::dataset::Inputs;
use crate::load::{self, Layout, Plan, Prepared, RunShape, ScratchDir, Window, Wire};
use crate::run::{check_inputs, fingerprint, run_window, set_up, RunArgs, RunResult};
use crate::script::{self, Class, Writer};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::{self, Hand, Observed, Recorder, Span, TracedStore};

/// Metric name → value, filled by every part of the traced run.
type Layers = BTreeMap<&'static str, f64>;

fn counter(wire: &Wire, name: &str) -> f64 {
    match wire.get(name) {
        Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v as f64,
        _ => 0.0,
    }
}

fn p50(wire: &Wire, name: &str) -> f64 {
    match wire.get(name) {
        Some(MetricValue::Histogram(h)) => h.p50 as f64,
        _ => 0.0,
    }
}

fn ratio(part: f64, rest: f64) -> f64 {
    if part + rest == 0.0 {
        0.0
    } else {
        part / (part + rest)
    }
}

/// The protocol-scraped (*wire*) and client-side layer metrics of the
/// untraced window.
fn wire_metrics(window: &Window, storage: Option<&StorageInfo>, events: usize, out: &mut Layers) {
    let (start, end) = (&window.wire_start, &window.wire_end);
    let delta = |name: &str| counter(end, name) - counter(start, name);
    for class in Class::ALL {
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_prefix("client.lat_p50_us.") == Some(class.name()))
            .expect("a client metric per class");
        out.insert(name, window.class_p50_us(class));
    }
    let queue = p50(end, "phase_us_queue_wait");
    let service = p50(end, "phase_us_service");
    out.insert("server.phase_queue_wait_p50_us", queue);
    out.insert("server.phase_service_p50_us", service);
    out.insert(
        "server.phase_outbox_flush_p50_us",
        p50(end, "phase_us_outbox_flush"),
    );
    out.insert(
        "server.fast_path_ratio",
        ratio(delta("path_fast_total"), delta("path_worker_total")),
    );
    out.insert("server.requests_shed", delta("requests_shed_total"));
    out.insert("server.deadline_exceeded", delta("deadline_exceeded_total"));
    out.insert(
        "flight.coalesced_ratio",
        ratio(delta("sf_coalesced_total"), delta("sf_leaders_total")),
    );
    let mut all: Vec<u64> = window.class_lat_ns.iter().flatten().copied().collect();
    out.insert(
        "server.rtt_overhead_p50_us",
        percentile(&mut all, 0.5) / 1e3 - (queue + service),
    );
    out.insert(
        "cache.snapshot_hit_ratio",
        ratio(delta("cache_hits_total"), delta("cache_misses_total")),
    );
    out.insert("cache.snapshot_evictions", delta("cache_evictions_total"));
    out.insert(
        "cache.snapshot_invalidations",
        delta("cache_invalidations_total"),
    );
    out.insert(
        "cache.response_hit_ratio",
        ratio(
            delta("response_cache_hits_total"),
            delta("response_cache_misses_total"),
        ),
    );
    out.insert(
        "cache.response_invalidations",
        delta("response_cache_invalidations_total"),
    );
    out.insert("cache.response_bytes", counter(end, "response_cache_bytes"));
    let shard_queries: Vec<f64> = (0..)
        .map(|i| format!("shard{i}_queries_total"))
        .take_while(|name| end.contains_key(name))
        .map(|name| delta(&name))
        .collect();
    let mean = shard_queries.iter().sum::<f64>() / shard_queries.len().max(1) as f64;
    out.insert(
        "sharded.skew",
        if mean == 0.0 {
            0.0
        } else {
            shard_queries.iter().copied().fold(0.0, f64::max) / mean
        },
    );
    let shards_at = |wire: &Wire| {
        (0..)
            .take_while(|i| wire.contains_key(&format!("shard{i}_events")))
            .count() as f64
    };
    out.insert(
        "sharded.rolls",
        if start.is_empty() {
            0.0
        } else {
            shards_at(end) - shards_at(start)
        },
    );
    let per_event = |v: u64| v as f64 / events as f64;
    out.insert(
        "kvstore.wal_fsyncs_per_event",
        storage.map_or(0.0, |s| s.wal_fsyncs as f64 / s.wal_appends.max(1) as f64),
    );
    out.insert(
        "kvstore.wal_bytes_per_event",
        storage.map_or(0.0, |s| per_event(s.wal_bytes)),
    );
    out.insert(
        "kvstore.segment_bytes_per_event",
        storage.map_or(0.0, |s| per_event(s.segment_bytes)),
    );
    out.insert("durable.open_ms", median(&window.open_ms));
    out.insert("durable.first_answer_ms", median(&window.first_answer_ms));
}

/// What both passes over the requests need.
struct Replay<'a> {
    args: &'a RunArgs,
    layout: &'a Layout,
    inputs: &'a Inputs,
    plan: &'a Plan,
    /// The requests the warm passes run before anything is timed.
    warm: &'a [Prepared],
    requests: &'a [Prepared],
}

impl Replay<'_> {
    fn binary(&self) -> bool {
        self.plan.scripts[0].binary
    }

    /// Requests a `restart_scan` cycle sends: every connection's whole script.
    fn cycle_len(&self) -> usize {
        self.plan.scripts.iter().map(|s| s.ops.len()).sum()
    }

    /// Builds the traced twin of the workload's deployment and replays the
    /// requests by hand. Returns what the replay saw and the traced router
    /// (the last cycle's, on `restart_scan`).
    fn by_hand(&self, rec: &Arc<Recorder>, dir: &ScratchDir) -> (Observed, ShardedGraphManager) {
        if self.args.workload == Workload::RestartScan {
            // Cold is the point: every cycle recovers the deployment afresh.
            load::build_durable(&self.inputs.dataset.events, self.layout, &dir.0);
            let mut seen = Observed::default();
            let mut last = None;
            let mut id = 0u32;
            for cycle in self.requests.chunks(self.cycle_len()) {
                drop(last.take());
                rec.switch(true);
                let router = rec.span("durable.open", || load::open_durable(self.layout, &dir.0));
                let mut hand = Hand::new(router.clone(), rec, self.binary(), seen);
                for req in cycle {
                    id += 1;
                    hand.request(id, req);
                }
                rec.switch(false);
                seen = hand.seen;
                last = Some(router);
            }
            return (seen, last.expect("at least one cycle"));
        }
        let wrap_rec = Arc::clone(rec);
        let router = load::build_router(
            self.args.workload,
            &self.inputs.dataset.events,
            self.layout,
            &dir.0,
            move |store| TracedStore::wrap(store, &wrap_rec),
        );
        self.plan.bind_keys(&router);
        let mut hand = Hand::new(router.clone(), rec, self.binary(), Observed::default());
        hand.warm(self.warm);
        rec.switch(true);
        for (i, req) in self.requests.iter().enumerate() {
            hand.request(i as u32 + 1, req);
        }
        rec.switch(false);
        (hand.seen, router)
    }

    /// The same requests through `Executor::execute_framed` on a fresh,
    /// identically configured router with the plain store. Returns the
    /// plain router too (the wrapper-overhead measurement reads through it).
    fn through_executor(&self, dir: &ScratchDir) -> (trace::Executed, ShardedGraphManager) {
        if self.args.workload == Workload::RestartScan {
            let mut all = trace::Executed::default();
            let mut last = None;
            for cycle in self.requests.chunks(self.cycle_len()) {
                drop(last.take());
                let router = load::open_durable(self.layout, &dir.0);
                let one = trace::execute_pass(&router, &[], cycle, self.binary());
                all.all_us.extend(one.all_us);
                all.hot_us.extend(one.hot_us);
                all.failed += one.failed;
                last = Some(router);
            }
            return (all, last.expect("at least one cycle"));
        }
        let router = load::build_router(
            self.args.workload,
            &self.inputs.dataset.events,
            self.layout,
            &dir.0,
            |store| store,
        );
        self.plan.bind_keys(&router);
        let executed = trace::execute_pass(&router, self.warm, self.requests, self.binary());
        (executed, router)
    }
}

/// Measurements made by direct calls after the replay, under `micro` root
/// spans: the by-hand execution of retrieval plans (tgraph decode/apply),
/// single-point fetches to compare a multipoint fetch with, overlay
/// memory, and raw index appends.
fn micro(
    rec: &Recorder,
    router: &ShardedGraphManager,
    seen: &Observed,
    has_appends: bool,
    out: &mut Layers,
) -> u64 {
    let opts = AttrOptions::parse(script::POINT_ATTRS).expect("valid attribute options");
    let mut mismatches = 0u64;
    rec.switch(true);
    // Overlays are held together until the end: membership bits grow by
    // the word, so one overlay alone often adds no memory at all.
    let mut held: Vec<(SharedGraphManager, graphpool::GraphId, usize)> = Vec::new();
    for cold in seen.cold_points.iter().take(24) {
        let t = Timestamp(cold.t);
        let shard = router.shard_for(t).expect("routable");
        let (by_hand, reference) = rec.span("micro", || {
            let gm = shard.read();
            (
                walk_plan(rec, gm.index(), t, &opts),
                gm.index().get_snapshot(t, &opts).expect("retrievable"),
            )
        });
        if by_hand.as_ref() != Some(&reference) {
            mismatches += 1;
        }
        let mut gm = shard.write();
        let before = gm.pool_memory();
        let id = gm.overlay_snapshot(&reference, t);
        let grown = gm.pool_memory().saturating_sub(before);
        drop(gm);
        held.push((shard, id, grown));
    }
    out.insert(
        "graphpool.bytes_per_overlay",
        held.iter().map(|h| h.2).sum::<usize>() as f64 / held.len().max(1) as f64,
    );
    for (shard, id, _) in held {
        let mut gm = shard.write();
        gm.release(id);
        gm.cleanup();
    }

    // Bytes four single points read, against what one k=4 fetch read.
    let structure = AttrOptions::parse("").expect("valid attribute options");
    let (mut multi, mut singles) = (0u64, 0u64);
    for (times, bytes) in seen.multipoints.iter().take(16) {
        multi += bytes;
        for &t in times {
            let shard = router.shard_for(Timestamp(t)).expect("routable");
            let store = || shard.read().index().payload_store().backing_store().stats();
            let before = store().bytes_read;
            rec.span("micro", || {
                shard.read().index().get_snapshot(Timestamp(t), &structure)
            })
            .expect("retrievable");
            singles += store().bytes_read - before;
        }
    }
    out.insert(
        "deltagraph.multipoint_share_ratio",
        if singles == 0 {
            0.0
        } else {
            multi as f64 / singles as f64
        },
    );

    if has_appends {
        let tail = router
            .shard_handles()
            .expect("built")
            .pop()
            .expect("a tail shard");
        let mut gm = tail.write();
        let (_, end) = gm.index().history_range().expect("non-empty history");
        let first_id = u64::MAX / 2;
        for i in 0..64u64 {
            let event = Event::add_node(end.raw() + 1 + i as i64, first_id + i);
            rec.span("deltagraph.append_event", || {
                gm.index_mut().append_event(event)
            })
            .expect("a fresh node at a later time appends");
        }
    }
    rec.switch(false);
    mismatches
}

/// Executes a point plan by hand: reads every delta and eventlist on the
/// planned path through `PayloadStore` and applies it with tgraph's own
/// functions. `None` if the time is not inside an indexed interval.
fn walk_plan(
    rec: &Recorder,
    index: &DeltaGraph,
    t: Timestamp,
    opts: &AttrOptions,
) -> Option<Snapshot> {
    use deltagraph::{Anchor, EdgePayload};
    let plan = index.plan_snapshot(t, opts).ok()??;
    let payloads = index.payload_store();
    let read_events = |id: u64| {
        rec.span("tgraph.read_eventlist", || {
            payloads.read_eventlist(id, opts, false)
        })
        .ok()
    };
    let mut graph = Snapshot::new();
    for &edge in &plan.path {
        match index.skeleton().edge(edge).payload {
            EdgePayload::Delta { delta_id } => {
                let delta = rec
                    .span("tgraph.read_delta", || payloads.read_delta(delta_id, opts))
                    .ok()?;
                rec.span_with(
                    "tgraph.delta_apply",
                    || delta.apply_to(&mut graph),
                    |_| (delta.change_count() as u64, 0),
                )
                .ok()?;
            }
            EdgePayload::EventsForward { eventlist_id } => {
                let events = read_events(eventlist_id)?;
                rec.span_with(
                    "tgraph.eventlist_apply",
                    || events.apply_all_forward(&mut graph),
                    |_| (events.len() as u64, 0),
                )
                .ok()?;
            }
            EdgePayload::EventsBackward { eventlist_id } => {
                let events = read_events(eventlist_id)?;
                rec.span_with(
                    "tgraph.eventlist_apply",
                    || events.apply_suffix_backward(&mut graph, Timestamp::MIN),
                    |_| (events.len() as u64, 0),
                )
                .ok()?;
            }
        }
    }
    let intervals = index.skeleton().intervals();
    match plan.anchor {
        Anchor::AtLeaf => {}
        Anchor::Forward { interval } => {
            let events = read_events(intervals[interval].eventlist_id)?;
            rec.span_with(
                "tgraph.eventlist_apply",
                || events.apply_prefix_forward(&mut graph, t),
                |_| (events.prefix_at(t).len() as u64, 0),
            )
            .ok()?;
        }
        Anchor::Backward { interval } => {
            let events = read_events(intervals[interval].eventlist_id)?;
            rec.span_with(
                "tgraph.eventlist_apply",
                || events.apply_suffix_backward(&mut graph, t),
                |_| (events.suffix_after(t).len() as u64, 0),
            )
            .ok()?;
        }
    }
    Some(graph)
}

/// `get_snapshot` over the traced store ÷ over the plain store, same times.
fn wrapper_overhead(
    rec: &Recorder,
    traced: &ShardedGraphManager,
    plain: &ShardedGraphManager,
    seen: &Observed,
) -> f64 {
    let opts = AttrOptions::parse(script::POINT_ATTRS).expect("valid attribute options");
    let time = |router: &ShardedGraphManager| {
        let started = Instant::now();
        for cold in seen.cold_points.iter().take(32) {
            let t = Timestamp(cold.t);
            let shard = router.shard_for(t).expect("routable");
            let snap = shard
                .read()
                .index()
                .get_snapshot(t, &opts)
                .expect("retrievable");
            std::hint::black_box(snap);
        }
        started.elapsed().as_secs_f64()
    };
    if seen.cold_points.is_empty() {
        return 1.0;
    }
    // Spans are recorded (and discarded) so the wrapper does its full work.
    let kept = rec.len();
    rec.switch(true);
    let with = time(traced);
    rec.switch(false);
    rec.truncate(kept);
    with / time(plain)
}

/// The layer metrics the spans give.
fn span_metrics(spans: &[Span], seen: &Observed, executed: &trace::Executed, out: &mut Layers) {
    let med = |name: &str| trace::median_us(spans, name);
    out.insert("histql.parse_us", med("histql.parse"));
    out.insert("histql.hot_hit_us", median(&executed.hot_us));
    out.insert("histql.execute_us", median(&executed.all_us));
    out.insert("histql.render_us", med("histql.render"));
    out.insert(
        "histql.reply_bytes",
        seen.reply_bytes as f64 / seen.requests.max(1) as f64,
    );
    out.insert("cache.probe_us", med("cache.probe"));
    out.insert("sharded.route_us", med("sharded.route"));
    out.insert(
        "sharded.multipoint_fanout",
        seen.fanouts.iter().sum::<usize>() as f64 / seen.fanouts.len().max(1) as f64,
    );
    out.insert("sharded.hydrate_ms", med("sharded.hydrate") / 1e3);
    out.insert("manager.retrieve_cached_us", med("manager.retrieve_cached"));
    out.insert("manager.append_us", med("manager.append"));
    out.insert("manager.append_batch_us", med("manager.append_batch"));
    out.insert("manager.prepare_batch_us", med("manager.prepare_batch"));
    out.insert("manager.normalized_events", seen.normalized_events as f64);
    out.insert("deltagraph.plan_us", med("deltagraph.plan"));
    let plans: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "deltagraph.plan")
        .collect();
    out.insert(
        "deltagraph.plan_edges",
        median(&plans.iter().map(|s| s.count as f64).collect::<Vec<_>>()),
    );
    out.insert("deltagraph.append_event_us", med("deltagraph.append_event"));

    // Point retrievals of the replay (spans under a request, not `micro`).
    let own = trace::self_ns(spans);
    let point_requests: HashSet<u32> = spans
        .iter()
        .filter(|s| matches!(s.name, "cache.response_get" | "deltagraph.plan"))
        .map(|s| s.parent)
        .collect();
    let points: Vec<(usize, &Span)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "deltagraph.get_snapshot" && point_requests.contains(&s.parent))
        .collect();
    out.insert(
        "deltagraph.get_snapshot_us",
        median(&points.iter().map(|(_, s)| s.dur_us()).collect::<Vec<_>>()),
    );
    let plan_us_of: BTreeMap<u32, f64> = plans.iter().map(|s| (s.req, s.dur_us())).collect();
    out.insert(
        "deltagraph.self_us",
        median(
            &points
                .iter()
                .map(|(i, s)| {
                    (own[*i] as f64 / 1e3 - plan_us_of.get(&s.req).copied().unwrap_or(0.0)).max(0.0)
                })
                .collect::<Vec<_>>(),
        ),
    );
    let point_requests = point_requests.len().max(1) as f64;
    out.insert(
        "kvstore.gets_per_point",
        points.iter().map(|(_, s)| s.count).sum::<u64>() as f64 / point_requests,
    );
    out.insert(
        "kvstore.bytes_read_per_point",
        points.iter().map(|(_, s)| s.bytes).sum::<u64>() as f64 / point_requests,
    );
    let share = trace::store_share(spans, "deltagraph.get_snapshot");
    out.insert("kvstore.get_us", median(&share.get_us));
    out.insert(
        "kvstore.time_share",
        if share.parent_ns == 0 {
            0.0
        } else {
            share.get_ns as f64 / share.parent_ns as f64
        },
    );
    let estimated: usize = seen.cold_points.iter().map(|c| c.estimated_cost).sum();
    out.insert(
        "deltagraph.model_cost_ratio",
        if estimated == 0 {
            0.0
        } else {
            seen.cold_points.iter().map(|c| c.read_bytes).sum::<u64>() as f64 / estimated as f64
        },
    );
    let multipoint_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "deltagraph.get_snapshots" && s.count > 0)
        .map(|s| s.dur_us() / s.count as f64)
        .collect();
    out.insert(
        "deltagraph.multipoint_us_per_snapshot",
        median(&multipoint_us),
    );

    // tgraph: decode = read − its store reads; apply per thousand elements.
    let per_k = |name: &str| {
        let (ns, n) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.dur_ns(), n + s.count));
        if n == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / (n as f64 / 1e3)
        }
    };
    out.insert(
        "tgraph.delta_apply_us_per_kelem",
        per_k("tgraph.delta_apply"),
    );
    out.insert(
        "tgraph.eventlist_apply_us_per_kevent",
        per_k("tgraph.eventlist_apply"),
    );
    let (decode_ns, decode_bytes) = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "tgraph.read_delta")
        .fold((0u64, 0u64), |(ns, bytes), (i, s)| {
            let read: u64 = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| c.bytes)
                .sum();
            (ns + own[i], bytes + read)
        });
    out.insert(
        "tgraph.decode_us_per_kb",
        if decode_bytes == 0 {
            0.0
        } else {
            decode_ns as f64 / 1e3 / (decode_bytes as f64 / 1024.0)
        },
    );
    out.insert("graphpool.overlay_us", med("graphpool.overlay"));
    out.insert("graphpool.release_us", med("graphpool.release"));

    // Coverage: what the layer calls of the replay took, against what the
    // executor took for the same requests. The shadow session calls are
    // the benchmark's own bookkeeping, not part of a request's path.
    let requests: HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.id)
        .collect();
    let layers_ns: u64 = spans
        .iter()
        .filter(|s| requests.contains(&s.parent))
        .filter(|s| !matches!(s.name, "manager.retrieve_cached" | "shadow.release"))
        .map(Span::dur_ns)
        .sum();
    let executor_us: f64 = executed.all_us.iter().sum();
    out.insert(
        "trace.coverage",
        if executor_us == 0.0 {
            0.0
        } else {
            layers_ns as f64 / 1e3 / executor_us
        },
    );
}

/// Index shape and pool size, read off the traced router after the replay.
fn shape_metrics(router: &ShardedGraphManager, out: &mut Layers) {
    let (mut leaves, mut height, mut stored, mut union) = (0usize, 0u32, 0u64, 0usize);
    for shard in router.shard_handles().expect("every shard is built") {
        let gm = shard.read();
        let stats = gm.stats();
        leaves += stats.leaves;
        height = height.max(stats.height);
        stored += stats.stored_bytes;
        union += gm.pool().union_node_count() + gm.pool().union_edge_count();
    }
    out.insert("deltagraph.leaves", leaves as f64);
    out.insert("deltagraph.height", f64::from(height));
    out.insert("deltagraph.stored_bytes", stored as f64);
    out.insert("graphpool.union_elements", union as f64);
}

/// `DeltaGraph::build` called directly over the whole trace: build time and
/// the bytes the build writes per event.
fn build_metrics(inputs: &Inputs, layout: &Layout, out: &mut Layers) {
    let store = Arc::new(MemStore::new());
    let started = Instant::now();
    let index = DeltaGraph::build(
        &inputs.dataset.events,
        layout.config.manager.index.clone(),
        Arc::clone(&store) as Arc<dyn KeyValueStore>,
    )
    .expect("index construction over the generated trace");
    out.insert("deltagraph.build_s", started.elapsed().as_secs_f64());
    drop(index);
    out.insert(
        "kvstore.put_bytes_per_event",
        store.stats().bytes_written as f64 / inputs.dataset.events.len() as f64,
    );
}

/// `restart_scan` only: `Segment::read` of every sealed segment and raw
/// `Wal::append` under the deployment's sync policy.
fn durable_metrics(dir: &ScratchDir, inputs: &Inputs, out: &mut Layers) {
    let mut read_ms = Vec::new();
    let mut segments: Vec<_> = std::fs::read_dir(&dir.0)
        .expect("the durable directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("segment-") && n.ends_with(".seg"))
        })
        .collect();
    segments.sort();
    for path in segments {
        let started = Instant::now();
        let segment = Segment::read(&path).expect("a sealed segment reads back");
        read_ms.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(segment);
    }
    out.insert("kvstore.segment_read_ms", median(&read_ms));
    let wal_path = dir.0.join("histbench-probe.wal");
    let mut wal = Wal::create(&wal_path, load::WAL_POLICY).expect("create a probe WAL");
    let mut append_us = Vec::new();
    for event in inputs.dataset.events.events().iter().take(64) {
        let started = Instant::now();
        wal.append(event).expect("append to the probe WAL");
        append_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_file(wal_path);
    out.insert("kvstore.wal_append_us", median(&append_us));
}

/// `--trace 1`: the per-layer metrics of one workload.
pub fn per_layer(args: &RunArgs) -> Result<RunResult, String> {
    // The untraced half: a shorter window for the wire and client metrics.
    let shape = RunShape::new(args.seconds / 2.0, args.quick);
    let (inputs, layout, deployment, setup_s) = set_up(args, &shape, "wire");
    check_inputs(&inputs, &shape)?;
    let plan = Plan::new(args.workload, args.seed, &inputs, &layout, &shape);
    let mut notes = vec![format!(
        "fingerprint {}",
        fingerprint(args, &shape, &inputs, &layout, &plan)
    )];
    let window = run_window(args, &shape, &layout, &plan, &deployment);
    let events = inputs.dataset.events.len() + window.appended.len();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    wire_metrics(&window, deployment.storage.as_ref(), events, &mut out);
    out.insert(
        "durable.build_persist_s",
        if deployment.storage.is_some() {
            setup_s
        } else {
            0.0
        },
    );
    let (mut attempted, mut failed) = (window.attempted(), window.failed());
    drop(window);
    drop(deployment);

    // The traced half.
    let n = args.workload.trace_requests(args.quick);
    let mut writer = (args.workload == Workload::MixedRw).then(|| Writer::new(&plan.final_graph));
    let requests = trace::first_requests(&plan, n, &mut writer);
    let replay = Replay {
        args,
        layout: &layout,
        inputs: &inputs,
        plan: &plan,
        warm: &requests[..requests.len().min(256)],
        requests: &requests,
    };
    let rec = Arc::new(Recorder::new());
    let hand_dir = ScratchDir::new("hand");
    let (seen, traced) = replay.by_hand(&rec, &hand_dir);
    shape_metrics(&traced, &mut out);
    let has_appends = requests.iter().any(|r| r.class == Class::Append);
    let walk_mismatches = micro(&rec, &traced, &seen, has_appends, &mut out);

    let executed = if args.workload == Workload::RestartScan {
        // The recovered directory has one owner at a time, and no store
        // wrapper can be put behind `open`: both passes read the plain store.
        drop(traced);
        let executed = replay.through_executor(&hand_dir).0;
        out.insert("trace.store_wrapper_overhead_ratio", 1.0);
        durable_metrics(&hand_dir, &inputs, &mut out);
        executed
    } else {
        let exec_dir = ScratchDir::new("exec");
        let (executed, plain) = replay.through_executor(&exec_dir);
        out.insert(
            "trace.store_wrapper_overhead_ratio",
            wrapper_overhead(&rec, &traced, &plain, &seen),
        );
        out.insert("kvstore.segment_read_ms", 0.0);
        out.insert("kvstore.wal_append_us", 0.0);
        executed
    };
    build_metrics(&inputs, &layout, &mut out);

    let spans = rec.take();
    span_metrics(&spans, &seen, &executed, &mut out);
    let path = std::path::Path::new("target")
        .join("histbench")
        .join(format!("trace-{}.jsonl", args.workload.name()));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!(
        "  {} spans of {} requests by hand -> {}",
        spans.len(),
        requests.len(),
        path.display()
    ));
    attempted += 2 * requests.len() as u64;
    failed += seen.failed + executed.failed + walk_mismatches;
    notes.push(format!(
        "  by hand: {} wrong replies; through the executor: {}; plan walks differing from \
         get_snapshot: {walk_mismatches}",
        seen.failed, executed.failed
    ));
    notes.extend(predictions(args.workload, &out));

    Ok(RunResult {
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = *out
                    .get(m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
                (m.name, value, m.unit)
            })
            .collect(),
        attempted,
        failed,
        notes,
    })
}

/// The workload predictions of ISSUE 11, printed as checks.
fn predictions(workload: Workload, out: &Layers) -> Vec<String> {
    let v = |name: &str| out[name];
    let mut checks: Vec<(String, bool)> = Vec::new();
    match workload {
        Workload::ColdPoint => {
            let hit = v("cache.snapshot_hit_ratio");
            checks.push((
                format!("cache.snapshot_hit_ratio {hit:.4} < 0.05"),
                hit < 0.05,
            ));
        }
        Workload::HotPoint => {
            let hit = v("cache.snapshot_hit_ratio");
            checks.push((
                format!("cache.snapshot_hit_ratio {hit:.4} > 0.95"),
                hit > 0.95,
            ));
            let fast = v("server.fast_path_ratio");
            checks.push((
                format!("server.fast_path_ratio {fast:.4} > 0.9"),
                fast > 0.9,
            ));
            let gets = v("kvstore.gets_per_point");
            checks.push((format!("kvstore.gets_per_point {gets} = 0"), gets == 0.0));
        }
        Workload::MixedRw => {
            let share = v("deltagraph.multipoint_share_ratio");
            checks.push((
                format!("deltagraph.multipoint_share_ratio {share:.4} < 1"),
                share > 0.0 && share < 1.0,
            ));
        }
        Workload::RestartScan => {
            let hydrate = v("sharded.hydrate_ms");
            checks.push((
                format!("sharded.hydrate_ms {hydrate:.3} > 0"),
                hydrate > 0.0,
            ));
        }
    }
    let coverage = v("trace.coverage");
    checks.push((
        format!("trace.coverage {coverage:.3} within 0.8..1.2 (warning only)"),
        (0.8..=1.2).contains(&coverage),
    ));
    checks
        .into_iter()
        .map(|(text, ok)| format!("  check {text}: {}", if ok { "ok" } else { "NOT MET" }))
        .collect()
}
