//! The serving stack's observability hub: per-verb latency histograms,
//! request-phase histograms, path counters, and the slow-query ring buffer.
//!
//! A [`MetricsHub`] is created once per server and shared (as an `Arc`) by
//! the serving core and every session's [`Executor`](crate::Executor). The
//! *push* side — everything recorded per request — goes through pre-fetched
//! [`metrics`] instruments, so the hot path pays a few relaxed atomic
//! operations and never locks or allocates. Everything that already has a
//! counter elsewhere (point caches, single-flight, per-shard skew, server
//! connection totals) is **pulled** at report time by [`metrics_report`],
//! which assembles the complete catalog served by both `STATS METRICS` and
//! the HTTP `GET /metrics` scrape endpoint.
//!
//! The slow-query log is a bounded ring (newest [`SLOW_LOG_CAP`] entries)
//! fed only by requests whose total time crosses the configured threshold —
//! under-threshold requests never touch its mutex — and drained destructively
//! by `STATS SLOW`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use historygraph::ShardedGraphManager;
use metrics::{Counter, Histogram, Registry, Sample};

use crate::ast::Query;
use crate::exec::ServerStats;
use crate::flight::FlightTable;
use crate::wire::{HistogramStats, MetricEntry, MetricValue, SlowQueryInfo};

/// Capacity of the slow-query ring buffer: old entries are dropped once
/// this many are pending (`STATS SLOW` drains the newest `SLOW_LOG_CAP`).
pub const SLOW_LOG_CAP: usize = 128;

/// The query classes that get their own latency histogram (the ISSUE's
/// per-verb split; bookkeeping verbs share `Other`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerbKind {
    /// `GET GRAPH AT`.
    GetGraphAt,
    /// `GET GRAPHS AT`.
    GetGraphsAt,
    /// `GET GRAPH BETWEEN`.
    Between,
    /// `GET GRAPH MATCHING`.
    Matching,
    /// `DIFF`.
    Diff,
    /// `NODE ... AT`.
    NodeAt,
    /// `HISTORY NODE`.
    NodeHistory,
    /// `APPEND`.
    Append,
    /// `APPEND BATCH` — one histogram sample per batch *request*, however
    /// many events it applies (per-event counts live in the per-shard
    /// `appends` counters; see `docs/OBSERVABILITY.md`).
    AppendBatch,
    /// The `STATS` family.
    Stats,
    /// Everything else: `BIND`, `RELEASE ALL`, `PROTOCOL`, `PING`, and
    /// unparseable requests.
    Other,
}

/// Number of [`VerbKind`] variants (histogram array size).
const VERBS: usize = 11;

impl VerbKind {
    /// Classifies a parsed query.
    pub fn of(query: &Query) -> VerbKind {
        match query {
            Query::GetGraphAt { .. } => VerbKind::GetGraphAt,
            Query::GetGraphsAt { .. } => VerbKind::GetGraphsAt,
            Query::GetGraphBetween { .. } => VerbKind::Between,
            Query::GetGraphMatching { .. } => VerbKind::Matching,
            Query::Diff { .. } => VerbKind::Diff,
            Query::NodeAt { .. } => VerbKind::NodeAt,
            Query::NodeHistory { .. } => VerbKind::NodeHistory,
            Query::Append(_) => VerbKind::Append,
            Query::AppendBatch(_) => VerbKind::AppendBatch,
            Query::Stats
            | Query::CacheStats
            | Query::ShardStats
            | Query::ServerStats
            | Query::MetricsStats
            | Query::SlowStats
            | Query::StorageStats
            | Query::HealthStats => VerbKind::Stats,
            Query::Bind { .. } | Query::ReleaseAll | Query::Protocol(_) | Query::Ping => {
                VerbKind::Other
            }
        }
    }

    /// The canonical verb text used in slow-query entries.
    pub fn verb_text(self) -> &'static str {
        match self {
            VerbKind::GetGraphAt => "GET GRAPH AT",
            VerbKind::GetGraphsAt => "GET GRAPHS AT",
            VerbKind::Between => "GET GRAPH BETWEEN",
            VerbKind::Matching => "GET GRAPH MATCHING",
            VerbKind::Diff => "DIFF",
            VerbKind::NodeAt => "NODE",
            VerbKind::NodeHistory => "HISTORY NODE",
            VerbKind::Append => "APPEND",
            VerbKind::AppendBatch => "APPEND BATCH",
            VerbKind::Stats => "STATS",
            VerbKind::Other => "OTHER",
        }
    }

    /// The histogram name this verb records into.
    pub fn metric_name(self) -> &'static str {
        match self {
            VerbKind::GetGraphAt => "verb_us_get_graph_at",
            VerbKind::GetGraphsAt => "verb_us_get_graphs_at",
            VerbKind::Between => "verb_us_between",
            VerbKind::Matching => "verb_us_matching",
            VerbKind::Diff => "verb_us_diff",
            VerbKind::NodeAt => "verb_us_node_at",
            VerbKind::NodeHistory => "verb_us_node_history",
            VerbKind::Append => "verb_us_append",
            VerbKind::AppendBatch => "verb_us_append_batch",
            VerbKind::Stats => "verb_us_stats",
            VerbKind::Other => "verb_us_other",
        }
    }

    fn index(self) -> usize {
        match self {
            VerbKind::GetGraphAt => 0,
            VerbKind::GetGraphsAt => 1,
            VerbKind::Between => 2,
            VerbKind::Matching => 3,
            VerbKind::Diff => 4,
            VerbKind::NodeAt => 5,
            VerbKind::NodeHistory => 6,
            VerbKind::Append => 7,
            VerbKind::AppendBatch => 8,
            VerbKind::Stats => 9,
            VerbKind::Other => 10,
        }
    }

    fn all() -> [VerbKind; VERBS] {
        [
            VerbKind::GetGraphAt,
            VerbKind::GetGraphsAt,
            VerbKind::Between,
            VerbKind::Matching,
            VerbKind::Diff,
            VerbKind::NodeAt,
            VerbKind::NodeHistory,
            VerbKind::Append,
            VerbKind::AppendBatch,
            VerbKind::Stats,
            VerbKind::Other,
        ]
    }
}

/// One server's push-model instruments plus the slow-query ring. See the
/// module docs for the push/pull split.
pub struct MetricsHub {
    registry: Registry,
    verbs: [Arc<Histogram>; VERBS],
    /// Time a parsed request spent queued for the worker pool.
    pub phase_queue_wait: Arc<Histogram>,
    /// Time spent executing the request (parse through framed reply).
    pub phase_service: Arc<Histogram>,
    /// Time a reply spent buffered in a connection outbox before the socket
    /// drained it (direct fast-path writes never enter it).
    pub phase_outbox_flush: Arc<Histogram>,
    /// Time from accepting a connection to parsing its first request.
    pub phase_accept_to_parse: Arc<Histogram>,
    /// Requests served inline on the reactor's cache-resident fast path.
    pub path_fast: Arc<Counter>,
    /// Requests executed by the worker pool.
    pub path_worker: Arc<Counter>,
    /// Requests refused at admission because the worker queue was over
    /// `--max-queue-depth` (the `OVERLOADED` reply).
    pub requests_shed: Arc<Counter>,
    /// Requests whose `--request-timeout-ms` deadline expired — either
    /// refused before execution (queue wait ate the budget) or detected
    /// after an over-deadline service phase.
    pub deadline_exceeded: Arc<Counter>,
    slow_threshold_us: AtomicU64,
    slow: Mutex<VecDeque<SlowQueryInfo>>,
}

impl Default for MetricsHub {
    fn default() -> MetricsHub {
        MetricsHub::new()
    }
}

impl MetricsHub {
    /// Creates a hub with every instrument registered (slow-query capture
    /// disabled until [`MetricsHub::set_slow_threshold_us`]).
    pub fn new() -> MetricsHub {
        let registry = Registry::new();
        let verbs = VerbKind::all().map(|v| registry.histogram(v.metric_name()));
        let phase_queue_wait = registry.histogram("phase_us_queue_wait");
        let phase_service = registry.histogram("phase_us_service");
        let phase_outbox_flush = registry.histogram("phase_us_outbox_flush");
        let phase_accept_to_parse = registry.histogram("phase_us_accept_to_parse");
        let path_fast = registry.counter("path_fast_total");
        let path_worker = registry.counter("path_worker_total");
        let requests_shed = registry.counter("requests_shed_total");
        let deadline_exceeded = registry.counter("deadline_exceeded_total");
        MetricsHub {
            registry,
            verbs,
            phase_queue_wait,
            phase_service,
            phase_outbox_flush,
            phase_accept_to_parse,
            path_fast,
            path_worker,
            requests_shed,
            deadline_exceeded,
            slow_threshold_us: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// The latency histogram for one verb class.
    #[inline]
    pub fn verb(&self, kind: VerbKind) -> &Histogram {
        &self.verbs[kind.index()]
    }

    /// Enables (non-zero) or disables (zero) slow-query capture.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// The active slow-query threshold (0 = capture off).
    #[inline]
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Pushes one over-threshold request into the ring, dropping the oldest
    /// entry at capacity. Callers check [`MetricsHub::slow_threshold_us`]
    /// first, so the mutex is only ever taken for genuinely slow requests.
    pub fn note_slow(&self, entry: SlowQueryInfo) {
        let mut ring = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= SLOW_LOG_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Drains the slow-query ring (oldest first), emptying it.
    pub fn drain_slow(&self) -> Vec<SlowQueryInfo> {
        self.slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect()
    }

    /// Snapshot of every push-model instrument, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Sample)> {
        self.registry.snapshot()
    }
}

fn push(out: &mut Vec<MetricEntry>, name: impl Into<String>, value: MetricValue) {
    out.push(MetricEntry {
        name: name.into(),
        value,
    });
}

/// Assembles the complete metric catalog: the hub's push-model instruments
/// plus everything pulled from the layers that keep their own counters —
/// the point caches (aggregated), the single-flight table, the serving
/// core's connection counters, lazy shard hydrations, shard lock waits,
/// and per-shard query/append/event counters (the skew view). This is the
/// single source behind `STATS METRICS` and the HTTP `/metrics` endpoint,
/// so the two can never disagree on names.
pub fn metrics_report(
    hub: Option<&MetricsHub>,
    router: &ShardedGraphManager,
    flights: Option<&FlightTable>,
    server: Option<&ServerStats>,
) -> Vec<MetricEntry> {
    use std::sync::atomic::Ordering::Relaxed;
    let mut out = Vec::new();
    if let Some(hub) = hub {
        for (name, sample) in hub.snapshot() {
            let value = match sample {
                Sample::Counter(v) => MetricValue::Counter(v),
                Sample::Gauge(v) => MetricValue::Gauge(v),
                Sample::Histogram(h) => MetricValue::Histogram(HistogramStats::of(&h)),
            };
            push(&mut out, name, value);
        }
    }
    // Cache tiers, summed across shards (each shard owns its own caches).
    let overview = router.cache_overview();
    push(
        &mut out,
        "cache_hits_total",
        MetricValue::Counter(overview.stats.hits),
    );
    push(
        &mut out,
        "cache_misses_total",
        MetricValue::Counter(overview.stats.misses),
    );
    push(
        &mut out,
        "cache_insertions_total",
        MetricValue::Counter(overview.stats.insertions),
    );
    push(
        &mut out,
        "cache_invalidations_total",
        MetricValue::Counter(overview.stats.invalidations),
    );
    push(
        &mut out,
        "cache_evictions_total",
        MetricValue::Counter(overview.stats.evictions),
    );
    push(
        &mut out,
        "cache_entries",
        MetricValue::Gauge(overview.entries.len() as u64),
    );
    push(
        &mut out,
        "cache_overlays",
        MetricValue::Gauge(overview.overlays as u64),
    );
    push(
        &mut out,
        "response_cache_hits_total",
        MetricValue::Counter(overview.response.hits),
    );
    push(
        &mut out,
        "response_cache_misses_total",
        MetricValue::Counter(overview.response.misses),
    );
    push(
        &mut out,
        "response_cache_insertions_total",
        MetricValue::Counter(overview.response.insertions),
    );
    push(
        &mut out,
        "response_cache_invalidations_total",
        MetricValue::Counter(overview.response.invalidations),
    );
    push(
        &mut out,
        "response_cache_evictions_total",
        MetricValue::Counter(overview.response.evictions),
    );
    push(
        &mut out,
        "response_cache_entries",
        MetricValue::Gauge(overview.response_entries as u64),
    );
    push(
        &mut out,
        "response_cache_bytes",
        MetricValue::Gauge(overview.response.bytes),
    );
    // Single-flight coalescing.
    if let Some(flights) = flights {
        let s = flights.stats();
        push(
            &mut out,
            "sf_leaders_total",
            MetricValue::Counter(s.leaders),
        );
        push(
            &mut out,
            "sf_coalesced_total",
            MetricValue::Counter(s.coalesced),
        );
        push(
            &mut out,
            "sf_stale_rerenders_total",
            MetricValue::Counter(s.stale_rerenders),
        );
    }
    // Serving-core connection counters.
    if let Some(server) = server {
        push(
            &mut out,
            "server_connections",
            MetricValue::Gauge(server.live_connections.load(Relaxed)),
        );
        push(
            &mut out,
            "server_accepted_total",
            MetricValue::Counter(server.accepted.load(Relaxed)),
        );
        push(
            &mut out,
            "server_rejected_total",
            MetricValue::Counter(server.rejected.load(Relaxed)),
        );
        push(
            &mut out,
            "server_queue_depth",
            MetricValue::Gauge(server.queue_depth.load(Relaxed)),
        );
        push(
            &mut out,
            "server_workers",
            MetricValue::Gauge(server.workers.load(Relaxed)),
        );
    }
    // Durable-store counters (all zero for an in-memory deployment, so the
    // storage section only appears when the router persists).
    let st = router.storage_info();
    if st.durable {
        push(
            &mut out,
            "storage_segments",
            MetricValue::Gauge(st.segments),
        );
        push(
            &mut out,
            "storage_segment_bytes",
            MetricValue::Gauge(st.segment_bytes),
        );
        push(
            &mut out,
            "storage_wal_bytes",
            MetricValue::Gauge(st.wal_bytes),
        );
        push(
            &mut out,
            "storage_wal_appends_total",
            MetricValue::Counter(st.wal_appends),
        );
        push(
            &mut out,
            "storage_wal_fsyncs_total",
            MetricValue::Counter(st.wal_fsyncs),
        );
        push(
            &mut out,
            "storage_torn_bytes_total",
            MetricValue::Counter(st.torn_bytes),
        );
        push(
            &mut out,
            "storage_torn_truncations_total",
            MetricValue::Counter(st.torn_truncations),
        );
        push(
            &mut out,
            "storage_recovery_ms",
            MetricValue::Gauge(st.recovery_ms),
        );
    }
    // Health counters: shard quarantine state, storage degradation, and the
    // transient-IO retry total. Cheap by construction (health_info never
    // hydrates a shard), so the scrape stays safe during incidents.
    let health = router.health_info();
    push(
        &mut out,
        "storage_degraded",
        MetricValue::Gauge(u64::from(health.degraded)),
    );
    push(
        &mut out,
        "storage_retries_total",
        MetricValue::Counter(health.storage_retries),
    );
    push(
        &mut out,
        "shards_quarantined",
        MetricValue::Gauge(health.quarantined),
    );
    push(
        &mut out,
        "hydration_failures_total",
        MetricValue::Counter(health.hydration_failures),
    );
    // Lazy shard hydrations (first touch of a recovered shard): how many
    // index builds this process has paid for, and what each one cost.
    let hydrations = Histogram::new();
    for us in router.hydration_us() {
        hydrations.record(us);
    }
    let hydrations = hydrations.snapshot();
    push(
        &mut out,
        "shard_hydrations_total",
        MetricValue::Counter(hydrations.count),
    );
    push(
        &mut out,
        "shard_hydrate_us",
        MetricValue::Histogram(HistogramStats::of(&hydrations)),
    );
    // Time spent blocked on the shard locks, all shards: where two requests
    // on one shard queue behind each other.
    let (read_wait_us, write_wait_us) = router.lock_wait_us();
    push(
        &mut out,
        "shard_read_lock_wait_us_total",
        MetricValue::Counter(read_wait_us),
    );
    push(
        &mut out,
        "shard_write_lock_wait_us_total",
        MetricValue::Counter(write_wait_us),
    );
    // Per-shard skew counters, one triple per shard.
    for info in router.shard_infos() {
        let i = info.index;
        push(
            &mut out,
            format!("shard{i}_queries_total"),
            MetricValue::Counter(info.queries),
        );
        push(
            &mut out,
            format!("shard{i}_appends_total"),
            MetricValue::Counter(info.appends),
        );
        push(
            &mut out,
            format!("shard{i}_events"),
            MetricValue::Gauge(info.events as u64),
        );
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn every_query_classifies() {
        let cases = [
            ("GET GRAPH AT 6", VerbKind::GetGraphAt),
            ("GET GRAPHS AT 1, 2", VerbKind::GetGraphsAt),
            ("GET GRAPH BETWEEN 1 AND 2", VerbKind::Between),
            ("GET GRAPH MATCHING 1 AND 2", VerbKind::Matching),
            ("DIFF 1 2", VerbKind::Diff),
            ("NODE alice AT 6", VerbKind::NodeAt),
            ("HISTORY NODE alice FROM 0 TO 9", VerbKind::NodeHistory),
            ("APPEND NODE 20 777", VerbKind::Append),
            (
                "APPEND BATCH NODE 20 777 ; NODEATTR 20 777 name \"x\"",
                VerbKind::AppendBatch,
            ),
            ("STATS", VerbKind::Stats),
            ("STATS CACHE", VerbKind::Stats),
            ("STATS METRICS", VerbKind::Stats),
            ("STATS SLOW", VerbKind::Stats),
            ("STATS STORAGE", VerbKind::Stats),
            ("STATS HEALTH", VerbKind::Stats),
            ("BIND alice 1", VerbKind::Other),
            ("PING", VerbKind::Other),
        ];
        for (line, expected) in cases {
            let q = parse(line).unwrap();
            assert_eq!(VerbKind::of(&q), expected, "{line}");
            // Every kind has a distinct metric name.
            assert!(expected.metric_name().starts_with("verb_us_"));
        }
    }

    #[test]
    fn hub_records_per_verb_and_reports() {
        let hub = MetricsHub::new();
        hub.verb(VerbKind::GetGraphAt).record(100);
        hub.verb(VerbKind::Append).record(250);
        hub.path_fast.inc();
        let snap = hub.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"verb_us_get_graph_at"));
        assert!(names.contains(&"phase_us_queue_wait"));
        assert!(names.contains(&"path_fast_total"));
        let (_, s) = snap
            .iter()
            .find(|(n, _)| n == "verb_us_get_graph_at")
            .unwrap();
        match s {
            Sample::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    #[test]
    fn slow_ring_is_bounded_and_drains() {
        let hub = MetricsHub::new();
        assert_eq!(hub.slow_threshold_us(), 0);
        hub.set_slow_threshold_us(50);
        assert_eq!(hub.slow_threshold_us(), 50);
        for i in 0..(SLOW_LOG_CAP + 10) {
            hub.note_slow(SlowQueryInfo {
                verb: "GET GRAPH AT".into(),
                t: Some(tgraph::Timestamp(i as i64)),
                shard: Some(0),
                total_us: 100 + i as u64,
                queue_us: 0,
                service_us: 100 + i as u64,
                session: 1,
            });
        }
        let drained = hub.drain_slow();
        assert_eq!(drained.len(), SLOW_LOG_CAP, "ring is bounded");
        // Oldest entries were dropped; the newest survive, oldest-first.
        assert_eq!(drained[0].t, Some(tgraph::Timestamp(10)));
        assert_eq!(
            drained.last().unwrap().t,
            Some(tgraph::Timestamp((SLOW_LOG_CAP + 9) as i64))
        );
        assert!(hub.drain_slow().is_empty(), "drain empties the ring");
    }
}
