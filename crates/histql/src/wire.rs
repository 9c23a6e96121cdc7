//! The `histql` wire format: responses as text lines or binary frames.
//!
//! In **text** mode (the default) every response is a sequence of lines
//! terminated by an `END` sentinel; the first starts with `OK` (failures
//! render as `ERR <msg>`). In **binary** mode (after `PROTOCOL BINARY`)
//! every response is one length-prefixed frame of `tgraph::codec` bytes —
//! see [`Frame`] for the envelope and `docs/PROTOCOL.md` for the layout.
//!
//! Both encodings serialize graphs deterministically — nodes and edges
//! sorted by id, attributes sorted by name — so two executions of the same
//! query over the same history produce byte-identical responses, in either
//! mode. That determinism is what the end-to-end tests compare against
//! direct [`GraphManager`] execution, and what makes whole replies safe to
//! cache as bytes (see `historygraph::response_cache`).
//!
//! [`GraphManager`]: historygraph::GraphManager

use std::sync::Arc;

use historygraph::{CacheOverview, HealthInfo, ShardInfo, StorageInfo, WireFormat};
use tgraph::codec::{write_varint, Decode, Encode, Reader};
use tgraph::{
    AttrValue, ColumnGraph, EdgeRecord, Event, EventKind, NodeId, Snapshot, TgError, Timestamp,
};

use crate::ast::{fmt_value, format_keyword, push_quoted, push_u64, push_value, quote};

/// The result of executing one [`crate::Query`].
#[derive(Clone, Debug)]
pub enum Response {
    /// A single retrieved graph (point, expression, or diff query).
    Graph {
        /// The query's time point (the anchor, for expression queries).
        t: Timestamp,
        /// The retrieved snapshot. Shared (`Arc`) so one retrieval can be
        /// rendered into several responses without copying it.
        graph: Arc<Snapshot>,
    },
    /// Several graphs from one multipoint query.
    Graphs {
        /// `(time, snapshot)` per queried point, in query order. Shared
        /// (`Arc`) so per-point snapshot-cache hits serve without copying.
        items: Vec<(Timestamp, Arc<Snapshot>)>,
    },
    /// An interval graph plus the window's transient events.
    Interval {
        /// Start of the window (inclusive).
        start: Timestamp,
        /// End of the window (exclusive).
        end: Timestamp,
        /// Elements valid during the window.
        graph: Snapshot,
        /// Transient (message) events inside the window.
        transients: Vec<Event>,
    },
    /// One entity's state at one time.
    Node {
        /// The queried application key.
        key: String,
        /// The resolved internal id.
        node: NodeId,
        /// The queried time point.
        t: Timestamp,
        /// Whether the node exists at `t`.
        present: bool,
        /// Attribute values, sorted by name.
        attrs: Vec<(String, AttrValue)>,
        /// Adjacent `(neighbor, edge)` pairs, sorted.
        neighbors: Vec<(NodeId, tgraph::EdgeId)>,
    },
    /// One entity's evolution over a sampled time range.
    History {
        /// The queried application key.
        key: String,
        /// The resolved internal id.
        node: NodeId,
        /// First sampled time.
        from: Timestamp,
        /// Last sampled time.
        to: Timestamp,
        /// The sampling stride used.
        step: i64,
        /// One sample per line, chronological.
        samples: Vec<HistorySample>,
    },
    /// Index statistics.
    Stats {
        /// Leaf count of the DeltaGraph.
        leaves: usize,
        /// Interior node count.
        interior: usize,
        /// Hierarchy height.
        height: u32,
        /// Persisted payload bytes.
        stored_bytes: u64,
        /// Materialized skeleton nodes.
        materialized_nodes: usize,
        /// Bytes of materialized in-memory graphs.
        materialized_bytes: usize,
        /// Events newer than the last indexed leaf.
        recent_events: usize,
    },
    /// Point-cache statistics (`STATS CACHE`): behavior counters for the
    /// overlays and the byte slots (the `OK CACHE` and `RC` lines), pool
    /// overlay count, and one `C` line per cached point with its live
    /// overlay reference count.
    CacheStats {
        /// Every shard's cache, aggregated.
        overview: CacheOverview,
    },
    /// Per-shard serving statistics (`STATS SHARDS`): one `S` line per
    /// shard with its time bounds, event count, overlay count, and its
    /// point cache's counters.
    Shards {
        /// One entry per shard, in time order (tail last).
        shards: Vec<ShardInfo>,
    },
    /// Serving-core counters (`STATS SERVER`): the event loop's connection
    /// totals, the worker pool's queue depth, and the single-flight table's
    /// coalescing counters.
    Server {
        /// The counter snapshot.
        counters: ServerCounters,
    },
    /// The full metric catalog (`STATS METRICS`): one `M` line per metric —
    /// counters and gauges with their value, histograms with
    /// count/p50/p90/p99/max/sum. Same entries, same names, as the HTTP
    /// `GET /metrics` scrape endpoint.
    Metrics {
        /// Every metric, sorted by name.
        entries: Vec<MetricEntry>,
    },
    /// The drained slow-query log (`STATS SLOW`): one `Q` line per captured
    /// over-threshold request, oldest first. Draining empties the ring.
    Slow {
        /// The captured requests, oldest first.
        entries: Vec<SlowQueryInfo>,
    },
    /// Durable-store counters (`STATS STORAGE`): one `OK STORAGE` line
    /// carrying WAL/segment/recovery gauges (all zero and `policy=none` for
    /// an in-memory deployment).
    Storage {
        /// The router's storage counters.
        info: StorageInfo,
    },
    /// Router health (`STATS HEALTH`): an `OK HEALTH` summary line plus one
    /// `H` line per shard with its state and hydration-failure count.
    Health {
        /// The router's health snapshot.
        info: HealthInfo,
    },
    /// An `APPEND` was applied.
    Appended {
        /// The event's time.
        t: Timestamp,
    },
    /// An `APPEND BATCH` was applied atomically: every event became visible
    /// under one append-epoch bump, so no reader observed a partial batch.
    AppendedBatch {
        /// Events applied, counting §3.1 normalization expansions.
        count: usize,
        /// Clearing events injected by `ContractPolicy::Normalize` (0 when
        /// the batch was already well-formed).
        normalized: usize,
        /// Earliest event time in the batch.
        t_min: Timestamp,
        /// Latest event time in the batch.
        t_max: Timestamp,
    },
    /// A `BIND` registered a key.
    Bound {
        /// The registered key.
        key: String,
        /// The node id it maps to.
        node: u64,
    },
    /// A `RELEASE ALL` released this many overlays.
    Released {
        /// Number of overlays released.
        count: usize,
    },
    /// A `PROTOCOL` verb switched the session's response encoding. The
    /// acknowledgment is already sent in the *new* encoding.
    Protocol {
        /// The encoding now in effect.
        mode: WireFormat,
    },
    /// Reply to `QUIT` (produced by the server, not the parser).
    Bye,
    /// Reply to `PING`.
    Pong,
}

/// The counter snapshot behind a `STATS SERVER` reply.
///
/// Connection and queue counters come from the serving core; the `sf_*`
/// counters from the single-flight render table. Everything is a plain
/// point-in-time `u64` so the reply is encoding-agnostic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections currently open.
    pub live_connections: u64,
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections refused (`ERR server busy`) at the cap.
    pub rejected: u64,
    /// Requests parsed and waiting for a worker right now.
    pub queue_depth: u64,
    /// Worker threads executing requests.
    pub workers: u64,
    /// Point renders that led a single-flight (one per coalescible miss).
    pub sf_leaders: u64,
    /// Requests served another request's render (the coalesced count).
    pub sf_coalesced: u64,
    /// Followers that re-rendered because the shared result was stale.
    pub sf_stale_rerenders: u64,
}

impl Encode for ServerCounters {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.live_connections.encode(buf);
        self.accepted.encode(buf);
        self.rejected.encode(buf);
        self.queue_depth.encode(buf);
        self.workers.encode(buf);
        self.sf_leaders.encode(buf);
        self.sf_coalesced.encode(buf);
        self.sf_stale_rerenders.encode(buf);
    }
}

impl Decode for ServerCounters {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(ServerCounters {
            live_connections: u64::decode(r)?,
            accepted: u64::decode(r)?,
            rejected: u64::decode(r)?,
            queue_depth: u64::decode(r)?,
            workers: u64::decode(r)?,
            sf_leaders: u64::decode(r)?,
            sf_coalesced: u64::decode(r)?,
            sf_stale_rerenders: u64::decode(r)?,
        })
    }
}

/// One metric in a `STATS METRICS` reply (and the `/metrics` scrape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEntry {
    /// The metric's registry name (e.g. `verb_us_get_graph_at`).
    pub name: String,
    /// Its current value.
    pub value: MetricValue,
}

/// The value side of a [`MetricEntry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically increasing total.
    Counter(u64),
    /// A point-in-time level.
    Gauge(u64),
    /// A latency distribution summary.
    Histogram(HistogramStats),
}

/// The reported summary of one latency histogram. Quantiles are the upper
/// bound of the log bucket holding the rank (clamped to the observed
/// maximum), so they over-estimate by at most 2x — plain `u64`s so the
/// reply is encoding-agnostic, like [`ServerCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramStats {
    /// Recorded observations.
    pub count: u64,
    /// Sum of observed values (wraps at `u64::MAX`).
    pub sum: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramStats {
    /// Summarizes a histogram snapshot into the reported quantile set.
    pub fn of(snap: &metrics::HistogramSnapshot) -> HistogramStats {
        HistogramStats {
            count: snap.count,
            sum: snap.sum,
            p50: snap.p50(),
            p90: snap.p90(),
            p99: snap.p99(),
            max: snap.max,
        }
    }
}

impl Encode for HistogramStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.count.encode(buf);
        self.sum.encode(buf);
        self.p50.encode(buf);
        self.p90.encode(buf);
        self.p99.encode(buf);
        self.max.encode(buf);
    }
}

impl Decode for HistogramStats {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(HistogramStats {
            count: u64::decode(r)?,
            sum: u64::decode(r)?,
            p50: u64::decode(r)?,
            p90: u64::decode(r)?,
            p99: u64::decode(r)?,
            max: u64::decode(r)?,
        })
    }
}

impl Encode for MetricEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        match &self.value {
            MetricValue::Counter(v) => {
                buf.push(0);
                v.encode(buf);
            }
            MetricValue::Gauge(v) => {
                buf.push(1);
                v.encode(buf);
            }
            MetricValue::Histogram(h) => {
                buf.push(2);
                h.encode(buf);
            }
        }
    }
}

impl Decode for MetricEntry {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        let name = String::decode(r)?;
        let value = match u64::decode(r)? {
            0 => MetricValue::Counter(u64::decode(r)?),
            1 => MetricValue::Gauge(u64::decode(r)?),
            2 => MetricValue::Histogram(HistogramStats::decode(r)?),
            t => return Err(TgError::Codec(format!("invalid MetricValue tag {t}"))),
        };
        Ok(MetricEntry { name, value })
    }
}

/// One captured over-threshold request in a `STATS SLOW` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQueryInfo {
    /// The request's verb class (`GET GRAPH AT`, `APPEND`, ...).
    pub verb: String,
    /// The primary queried time point, when the verb has one.
    pub t: Option<Timestamp>,
    /// The shard that served `t`, when routable.
    pub shard: Option<u64>,
    /// Total time over threshold: queue wait plus service.
    pub total_us: u64,
    /// Time spent queued for the worker pool (0 on inline paths).
    pub queue_us: u64,
    /// Time spent executing the request.
    pub service_us: u64,
    /// The serving connection's session id.
    pub session: u64,
}

impl Encode for SlowQueryInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.verb.encode(buf);
        self.t.encode(buf);
        self.shard.encode(buf);
        self.total_us.encode(buf);
        self.queue_us.encode(buf);
        self.service_us.encode(buf);
        self.session.encode(buf);
    }
}

impl Decode for SlowQueryInfo {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(SlowQueryInfo {
            verb: String::decode(r)?,
            t: Option::decode(r)?,
            shard: Option::decode(r)?,
            total_us: u64::decode(r)?,
            queue_us: u64::decode(r)?,
            service_us: u64::decode(r)?,
            session: u64::decode(r)?,
        })
    }
}

/// One row of a `HISTORY NODE` response.
#[derive(Clone, Debug, PartialEq)]
pub struct HistorySample {
    /// The sampled time point.
    pub t: Timestamp,
    /// Whether the node exists at `t`.
    pub present: bool,
    /// The node's degree at `t`.
    pub degree: usize,
    /// Attribute values at `t`, sorted by name.
    pub attrs: Vec<(String, AttrValue)>,
}

impl Response {
    /// Renders the response as protocol lines (without the `END` sentinel).
    pub fn to_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Response::Graph { t, graph } => {
                out.push(format!(
                    "OK GRAPH t={} nodes={} edges={}",
                    t.raw(),
                    graph.node_count(),
                    graph.edge_count()
                ));
                push_graph_body(&mut out, graph);
            }
            Response::Graphs { items } => {
                out.push(format!("OK GRAPHS count={}", items.len()));
                for (t, graph) in items {
                    out.push(format!(
                        "GRAPH t={} nodes={} edges={}",
                        t.raw(),
                        graph.node_count(),
                        graph.edge_count()
                    ));
                    push_graph_body(&mut out, graph);
                }
            }
            Response::Interval {
                start,
                end,
                graph,
                transients,
            } => {
                out.push(format!(
                    "OK INTERVAL start={} end={} nodes={} edges={} transients={}",
                    start.raw(),
                    end.raw(),
                    graph.node_count(),
                    graph.edge_count(),
                    transients.len()
                ));
                push_graph_body(&mut out, graph);
                for ev in transients {
                    out.push(format!("T {}", fmt_event(ev)));
                }
            }
            Response::Node {
                key,
                node,
                t,
                present,
                attrs,
                neighbors,
            } => {
                out.push(format!(
                    "OK NODE {} id={} t={} present={} degree={}",
                    quote(key),
                    node.raw(),
                    t.raw(),
                    present,
                    neighbors.len()
                ));
                for (name, value) in attrs {
                    out.push(format!("A {}={}", fmt_attr_name(name), fmt_value(value)));
                }
                for (nbr, edge) in neighbors {
                    out.push(format!("ADJ {} {}", nbr.raw(), edge.raw()));
                }
            }
            Response::History {
                key,
                node,
                from,
                to,
                step,
                samples,
            } => {
                out.push(format!(
                    "OK HISTORY {} id={} from={} to={} step={} samples={}",
                    quote(key),
                    node.raw(),
                    from.raw(),
                    to.raw(),
                    step,
                    samples.len()
                ));
                for s in samples {
                    let mut line = format!(
                        "H t={} present={} degree={}",
                        s.t.raw(),
                        s.present,
                        s.degree
                    );
                    for (name, value) in &s.attrs {
                        line.push_str(&format!(" {}={}", fmt_attr_name(name), fmt_value(value)));
                    }
                    out.push(line);
                }
            }
            Response::Stats {
                leaves,
                interior,
                height,
                stored_bytes,
                materialized_nodes,
                materialized_bytes,
                recent_events,
            } => {
                out.push(format!(
                    "OK STATS leaves={leaves} interior={interior} height={height} \
                     stored_bytes={stored_bytes} materialized_nodes={materialized_nodes} \
                     materialized_bytes={materialized_bytes} recent_events={recent_events}"
                ));
            }
            Response::CacheStats { overview } => {
                let CacheOverview {
                    capacity,
                    stats,
                    overlays,
                    entries,
                    response_capacity,
                    response_byte_budget,
                    response_entries,
                    response,
                } = overview;
                out.push(format!(
                    "OK CACHE entries={} capacity={capacity} hits={} misses={} \
                     insertions={} invalidations={} evictions={} overlays={overlays}",
                    entries.len(),
                    stats.hits,
                    stats.misses,
                    stats.insertions,
                    stats.invalidations,
                    stats.evictions
                ));
                out.push(format!(
                    "RC entries={response_entries} capacity={response_capacity} \
                     byte_budget={response_byte_budget} hits={} \
                     misses={} insertions={} invalidations={} evictions={} bytes={}",
                    response.hits,
                    response.misses,
                    response.insertions,
                    response.invalidations,
                    response.evictions,
                    response.bytes
                ));
                for e in entries {
                    out.push(format!(
                        "C t={} opts={} overlay={} refs={}",
                        e.t.raw(),
                        quote(&e.opts),
                        e.overlay.0,
                        e.refs
                    ));
                }
            }
            Response::Shards { shards } => {
                out.push(format!("OK SHARDS count={}", shards.len()));
                let fmt_bound =
                    |b: Option<Timestamp>| b.map_or("-".to_string(), |t| t.raw().to_string());
                for s in shards {
                    out.push(format!(
                        "S {} lower={} upper={} events={} overlays={} \
                         cache_entries={} cache_hits={} cache_misses={} \
                         cache_invalidations={} rc_entries={} rc_hits={} rc_misses={} \
                         queries={} appends={}",
                        s.index,
                        fmt_bound(s.lower),
                        fmt_bound(s.upper),
                        s.events,
                        s.overlays,
                        s.cache_entries,
                        s.cache.hits,
                        s.cache.misses,
                        s.cache.invalidations,
                        s.response_entries,
                        s.response.hits,
                        s.response.misses,
                        s.queries,
                        s.appends
                    ));
                }
            }
            Response::Server { counters } => {
                out.push(format!(
                    "OK SERVER connections={} accepted={} rejected={} \
                     queue_depth={} workers={}",
                    counters.live_connections,
                    counters.accepted,
                    counters.rejected,
                    counters.queue_depth,
                    counters.workers
                ));
                out.push(format!(
                    "SF leaders={} coalesced={} stale_rerenders={}",
                    counters.sf_leaders, counters.sf_coalesced, counters.sf_stale_rerenders
                ));
            }
            Response::Metrics { entries } => {
                out.push(format!("OK METRICS entries={}", entries.len()));
                for e in entries {
                    match &e.value {
                        MetricValue::Counter(v) => {
                            out.push(format!("M {} counter value={v}", e.name))
                        }
                        MetricValue::Gauge(v) => out.push(format!("M {} gauge value={v}", e.name)),
                        MetricValue::Histogram(h) => out.push(format!(
                            "M {} hist count={} p50={} p90={} p99={} max={} sum={}",
                            e.name, h.count, h.p50, h.p90, h.p99, h.max, h.sum
                        )),
                    }
                }
            }
            Response::Slow { entries } => {
                out.push(format!("OK SLOW entries={}", entries.len()));
                let fmt_opt = |v: Option<i64>| v.map_or("-".to_string(), |v| v.to_string());
                for q in entries {
                    out.push(format!(
                        "Q verb={} t={} shard={} total_us={} queue_us={} \
                         service_us={} session={}",
                        quote(&q.verb),
                        fmt_opt(q.t.map(|t| t.raw())),
                        fmt_opt(q.shard.map(|s| s as i64)),
                        q.total_us,
                        q.queue_us,
                        q.service_us,
                        q.session
                    ));
                }
            }
            Response::Storage { info } => out.push(format!(
                "OK STORAGE durable={} policy={} segments={} segment_bytes={} \
                 wal_bytes={} wal_appends={} wal_fsyncs={} torn_bytes={} \
                 torn_truncations={} recovery_ms={}",
                info.durable,
                info.policy,
                info.segments,
                info.segment_bytes,
                info.wal_bytes,
                info.wal_appends,
                info.wal_fsyncs,
                info.torn_bytes,
                info.torn_truncations,
                info.recovery_ms
            )),
            Response::Health { info } => {
                out.push(format!(
                    "OK HEALTH shards={} degraded={} quarantined={} \
                     hydration_failures={} storage_retries={}{}",
                    info.shards.len(),
                    info.degraded,
                    info.quarantined,
                    info.hydration_failures,
                    info.storage_retries,
                    if info.degraded_reason.is_empty() {
                        String::new()
                    } else {
                        format!(" reason={}", quote(&info.degraded_reason))
                    }
                ));
                for s in &info.shards {
                    out.push(format!(
                        "H {} state={} failures={}",
                        s.index, s.state, s.failures
                    ));
                }
            }
            Response::Appended { t } => out.push(format!("OK APPENDED t={}", t.raw())),
            Response::AppendedBatch {
                count,
                normalized,
                t_min,
                t_max,
            } => out.push(format!(
                "OK APPENDED BATCH count={count} normalized={normalized} t_min={} t_max={}",
                t_min.raw(),
                t_max.raw()
            )),
            Response::Bound { key, node } => out.push(format!("OK BOUND {} {node}", quote(key))),
            Response::Released { count } => out.push(format!("OK RELEASED {count}")),
            Response::Protocol { mode } => {
                out.push(format!("OK PROTOCOL {}", format_keyword(*mode)))
            }
            Response::Bye => out.push("OK BYE".into()),
            Response::Pong => out.push("OK PONG".into()),
        }
        out
    }

    /// The response as one newline-joined string.
    pub fn to_text(&self) -> String {
        self.to_lines().join("\n")
    }

    /// The complete reply as the bytes a server writes for this response in
    /// the given encoding: text lines plus the `END` sentinel, or one binary
    /// frame. These are exactly the bytes the point cache's slots store.
    pub fn to_frame(&self, format: WireFormat) -> Vec<u8> {
        match format {
            WireFormat::Text => {
                if let Response::Graph { t, graph } = self {
                    let mut out = graph_header(*t, graph.node_count(), graph.edge_count());
                    write_snapshot_body(&mut out, graph);
                    out.push_str("END\n");
                    return out.into_bytes();
                }
                let mut out = Vec::new();
                for line in self.to_lines() {
                    out.extend_from_slice(line.as_bytes());
                    out.push(b'\n');
                }
                out.extend_from_slice(b"END\n");
                out
            }
            WireFormat::Binary => {
                frame_bytes(MAX_FRAME_BYTES, |buf| encode_response_envelope(self, buf))
            }
        }
    }
}

// --- binary framing ---------------------------------------------------------

/// Version byte leading every binary frame's payload, for forward
/// compatibility: a client seeing an unknown version knows to bail rather
/// than misparse.
pub const BINARY_FRAME_VERSION: u8 = 1;

/// Upper bound on one binary frame, enforced on both sides: the server
/// replaces any reply that would exceed it with an error frame, and a
/// client should refuse larger length prefixes (the prefix is
/// attacker-controlled from the client's perspective).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// The binary reply envelope: one frame is either a successful [`Response`]
/// or an error message — the binary counterpart of `OK ...` vs `ERR ...`
/// text lines.
///
/// On the wire a frame is `[len: u32 LE] [version: u8] [envelope]`, where
/// `len` counts the version byte plus the envelope. The envelope is one tag
/// byte (0 = response, 1 = error) followed by `tgraph::codec` bytes; inside,
/// integers are LEB128 varints (signed values zigzag-encoded), strings and
/// sequences are length-prefixed, exactly as in the storage codec.
#[derive(Clone, Debug)]
pub enum Frame {
    /// A successful response.
    Response(Response),
    /// A failure, carrying the single-line error message.
    Error(String),
}

impl Frame {
    /// Serializes the frame as the full on-wire bytes (length prefix,
    /// version byte, envelope). A frame that would exceed
    /// [`MAX_FRAME_BYTES`] — which a conforming client must refuse, and
    /// which could not be length-prefixed past `u32::MAX` anyway — is
    /// replaced by an error frame, so a binary session never desyncs on an
    /// oversized reply.
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        self.to_frame_bytes_bounded(MAX_FRAME_BYTES)
    }

    /// [`Frame::to_frame_bytes`] with an explicit bound (exposed at crate
    /// level so tests can exercise the oversized path cheaply).
    pub(crate) fn to_frame_bytes_bounded(&self, max: usize) -> Vec<u8> {
        frame_bytes(max, |buf| self.encode(buf))
    }

    /// Decodes one frame payload (the bytes *after* the length prefix:
    /// version byte plus envelope).
    pub fn from_payload(payload: &[u8]) -> tgraph::Result<Frame> {
        let (&version, envelope) = payload
            .split_first()
            .ok_or_else(|| TgError::Codec("empty frame payload".into()))?;
        if version != BINARY_FRAME_VERSION {
            return Err(TgError::Codec(format!(
                "unsupported frame version {version} (expected {BINARY_FRAME_VERSION})"
            )));
        }
        Frame::from_bytes(envelope)
    }
}

/// Frames the envelope `encode` writes as the full on-wire bytes, in one
/// buffer: a length placeholder, the version byte and the envelope, then
/// the length patched in. An envelope past `max` bytes is replaced by an
/// error frame (see [`Frame::to_frame_bytes`]).
fn frame_bytes(max: usize, encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&[0; 4]);
    out.push(BINARY_FRAME_VERSION);
    encode(&mut out);
    let payload_len = out.len() - 4;
    if payload_len > max {
        // Replace with a short error frame, built directly rather than
        // recursing — if even the replacement exceeds a pathologically
        // small `max` it is emitted anyway (it is ~150 bytes; any
        // conforming bound is far larger than one error frame).
        let replacement = Frame::Error(format!(
            "reply of {payload_len} bytes exceeds the binary frame limit ({max}); \
             narrow the query or use PROTOCOL TEXT"
        ));
        out = vec![0; 4];
        out.push(BINARY_FRAME_VERSION);
        replacement.encode(&mut out);
    }
    // Fits u32: the payload is bounded by `max` (<= MAX_FRAME_BYTES in
    // production) or is the ~150-byte replacement.
    let len = u32::try_from(out.len() - 4).expect("bounded");
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// The envelope of a successful response: tag 0, then the response.
fn encode_response_envelope(resp: &Response, buf: &mut Vec<u8>) {
    buf.push(0);
    resp.encode(buf);
}

impl Encode for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Response(resp) => encode_response_envelope(resp, buf),
            Frame::Error(msg) => {
                buf.push(1);
                msg.encode(buf);
            }
        }
    }
}

impl Decode for Frame {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        match u64::decode(r)? {
            0 => Ok(Frame::Response(Response::decode(r)?)),
            1 => Ok(Frame::Error(String::decode(r)?)),
            t => Err(TgError::Codec(format!("invalid Frame tag {t}"))),
        }
    }
}

/// The complete error reply in the given encoding: `ERR <msg>` plus `END`
/// in text, or one [`Frame::Error`] binary frame. Embedded newlines are
/// flattened so the text framing always survives.
pub fn frame_error(msg: &str, format: WireFormat) -> Vec<u8> {
    match format {
        WireFormat::Text => {
            let msg = msg.replace('\n', " ");
            format!("ERR {msg}\nEND\n").into_bytes()
        }
        WireFormat::Binary => Frame::Error(msg.to_string()).to_frame_bytes(),
    }
}

/// Renders a metric catalog in the Prometheus plaintext exposition format
/// (version 0.0.4), the body of the HTTP `GET /metrics` scrape endpoint.
/// Every name is prefixed `histql_`; histograms render as summaries
/// (`quantile` labels plus `_sum`/`_count`) with the observed maximum as a
/// companion `_max` gauge.
pub fn render_prometheus(entries: &[MetricEntry]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for e in entries {
        let name = &e.name;
        match &e.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE histql_{name} counter");
                let _ = writeln!(out, "histql_{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE histql_{name} gauge");
                let _ = writeln!(out, "histql_{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE histql_{name} summary");
                let _ = writeln!(out, "histql_{name}{{quantile=\"0.5\"}} {}", h.p50);
                let _ = writeln!(out, "histql_{name}{{quantile=\"0.9\"}} {}", h.p90);
                let _ = writeln!(out, "histql_{name}{{quantile=\"0.99\"}} {}", h.p99);
                let _ = writeln!(out, "histql_{name}_sum {}", h.sum);
                let _ = writeln!(out, "histql_{name}_count {}", h.count);
                let _ = writeln!(out, "# TYPE histql_{name}_max gauge");
                let _ = writeln!(out, "histql_{name}_max {}", h.max);
            }
        }
    }
    out
}

impl Encode for HistorySample {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.t.encode(buf);
        self.present.encode(buf);
        self.degree.encode(buf);
        self.attrs.encode(buf);
    }
}

impl Decode for HistorySample {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(HistorySample {
            t: Timestamp::decode(r)?,
            present: bool::decode(r)?,
            degree: usize::decode(r)?,
            attrs: Vec::decode(r)?,
        })
    }
}

impl Encode for Response {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Graph { t, graph } => {
                buf.push(0);
                t.encode(buf);
                graph.encode(buf);
            }
            Response::Graphs { items } => {
                buf.push(1);
                items.encode(buf);
            }
            Response::Interval {
                start,
                end,
                graph,
                transients,
            } => {
                buf.push(2);
                start.encode(buf);
                end.encode(buf);
                graph.encode(buf);
                transients.encode(buf);
            }
            Response::Node {
                key,
                node,
                t,
                present,
                attrs,
                neighbors,
            } => {
                buf.push(3);
                key.encode(buf);
                node.encode(buf);
                t.encode(buf);
                present.encode(buf);
                attrs.encode(buf);
                neighbors.encode(buf);
            }
            Response::History {
                key,
                node,
                from,
                to,
                step,
                samples,
            } => {
                buf.push(4);
                key.encode(buf);
                node.encode(buf);
                from.encode(buf);
                to.encode(buf);
                step.encode(buf);
                samples.encode(buf);
            }
            Response::Stats {
                leaves,
                interior,
                height,
                stored_bytes,
                materialized_nodes,
                materialized_bytes,
                recent_events,
            } => {
                buf.push(5);
                leaves.encode(buf);
                interior.encode(buf);
                write_varint(buf, u64::from(*height));
                stored_bytes.encode(buf);
                materialized_nodes.encode(buf);
                materialized_bytes.encode(buf);
                recent_events.encode(buf);
            }
            Response::CacheStats { overview } => {
                buf.push(6);
                overview.encode(buf);
            }
            Response::Appended { t } => {
                buf.push(7);
                t.encode(buf);
            }
            Response::Shards { shards } => {
                buf.push(13);
                shards.encode(buf);
            }
            Response::Server { counters } => {
                buf.push(14);
                counters.encode(buf);
            }
            Response::Metrics { entries } => {
                buf.push(15);
                entries.encode(buf);
            }
            Response::Slow { entries } => {
                buf.push(16);
                entries.encode(buf);
            }
            Response::Storage { info } => {
                buf.push(17);
                info.encode(buf);
            }
            Response::Health { info } => {
                buf.push(18);
                info.encode(buf);
            }
            Response::AppendedBatch {
                count,
                normalized,
                t_min,
                t_max,
            } => {
                buf.push(19);
                count.encode(buf);
                normalized.encode(buf);
                t_min.encode(buf);
                t_max.encode(buf);
            }
            Response::Bound { key, node } => {
                buf.push(8);
                key.encode(buf);
                node.encode(buf);
            }
            Response::Released { count } => {
                buf.push(9);
                count.encode(buf);
            }
            Response::Pong => buf.push(10),
            Response::Protocol { mode } => {
                buf.push(11);
                mode.encode(buf);
            }
            Response::Bye => buf.push(12),
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        Ok(match u64::decode(r)? {
            0 => Response::Graph {
                t: Timestamp::decode(r)?,
                graph: Arc::new(Snapshot::decode(r)?),
            },
            1 => Response::Graphs {
                items: Vec::decode(r)?,
            },
            2 => Response::Interval {
                start: Timestamp::decode(r)?,
                end: Timestamp::decode(r)?,
                graph: Snapshot::decode(r)?,
                transients: Vec::<Event>::decode(r)?,
            },
            3 => {
                let key = String::decode(r)?;
                let node = NodeId::decode(r)?;
                let t = Timestamp::decode(r)?;
                let present = bool::decode(r)?;
                let attrs = Vec::decode(r)?;
                let neighbors = Vec::decode(r)?;
                Response::Node {
                    key,
                    node,
                    t,
                    present,
                    attrs,
                    neighbors,
                }
            }
            4 => Response::History {
                key: String::decode(r)?,
                node: NodeId::decode(r)?,
                from: Timestamp::decode(r)?,
                to: Timestamp::decode(r)?,
                step: i64::decode(r)?,
                samples: Vec::<HistorySample>::decode(r)?,
            },
            5 => Response::Stats {
                leaves: usize::decode(r)?,
                interior: usize::decode(r)?,
                height: u32::try_from(r.read_varint()?)
                    .map_err(|_| TgError::Codec("height exceeds u32 range".into()))?,
                stored_bytes: u64::decode(r)?,
                materialized_nodes: usize::decode(r)?,
                materialized_bytes: usize::decode(r)?,
                recent_events: usize::decode(r)?,
            },
            6 => Response::CacheStats {
                overview: CacheOverview::decode(r)?,
            },
            7 => Response::Appended {
                t: Timestamp::decode(r)?,
            },
            8 => Response::Bound {
                key: String::decode(r)?,
                node: u64::decode(r)?,
            },
            9 => Response::Released {
                count: usize::decode(r)?,
            },
            10 => Response::Pong,
            11 => Response::Protocol {
                mode: WireFormat::decode(r)?,
            },
            12 => Response::Bye,
            13 => Response::Shards {
                shards: Vec::<ShardInfo>::decode(r)?,
            },
            14 => Response::Server {
                counters: ServerCounters::decode(r)?,
            },
            15 => Response::Metrics {
                entries: Vec::<MetricEntry>::decode(r)?,
            },
            16 => Response::Slow {
                entries: Vec::<SlowQueryInfo>::decode(r)?,
            },
            17 => Response::Storage {
                info: StorageInfo::decode(r)?,
            },
            18 => Response::Health {
                info: HealthInfo::decode(r)?,
            },
            19 => Response::AppendedBatch {
                count: usize::decode(r)?,
                normalized: usize::decode(r)?,
                t_min: Timestamp::decode(r)?,
                t_max: Timestamp::decode(r)?,
            },
            t => return Err(TgError::Codec(format!("invalid Response tag {t}"))),
        })
    }
}

/// Renders an attribute name: bare when it is a plain identifier, quoted
/// otherwise — so names containing spaces, `=`, or control characters (which
/// would break the line framing) always round-trip safely.
fn fmt_attr_name(name: &str) -> String {
    let mut out = String::new();
    push_attr_name(&mut out, name);
    out
}

/// Appends an attribute name, as [`fmt_attr_name`] renders it.
fn push_attr_name(out: &mut String, name: &str) {
    let plain = !name.is_empty()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':'));
    if plain {
        out.push_str(name);
    } else {
        push_quoted(out, name);
    }
}

/// Appends the `N`/`E` lines of a graph: nodes then edges, sorted by id,
/// attributes sorted by name (attribute maps are ordered already).
fn push_graph_body(out: &mut Vec<String>, graph: &Snapshot) {
    let mut body = String::new();
    write_snapshot_body(&mut body, graph);
    // Every line ends in '\n', and no line holds one (values are escaped).
    out.extend(body.split_terminator('\n').map(str::to_owned));
}

/// Writes the `N`/`E` lines of `graph`, each ended by a newline, sorting
/// its ids first.
fn write_snapshot_body(out: &mut String, graph: &Snapshot) {
    let mut nodes: Vec<_> = graph.nodes().collect();
    nodes.sort_unstable_by_key(|(id, _)| *id);
    let mut edges: Vec<_> = graph.edges().collect();
    edges.sort_unstable_by_key(|(id, _)| *id);
    write_graph_body(
        out,
        nodes
            .into_iter()
            .map(|(id, d)| (id, d.attrs.iter().map(|(k, v)| (k.as_str(), v)))),
        edges.into_iter().map(|(id, d)| {
            (
                EdgeRecord {
                    edge: id,
                    src: d.src,
                    dst: d.dst,
                    directed: d.directed,
                },
                d.attrs.iter().map(|(k, v)| (k.as_str(), v)),
            )
        }),
    );
}

/// Writes the `N`/`E` lines of a graph given in id order, each ended by a
/// newline: the one text renderer behind [`Response::to_frame`] and
/// [`frame_columns`].
fn write_graph_body<'a, NA, EA>(
    out: &mut String,
    nodes: impl Iterator<Item = (NodeId, NA)>,
    edges: impl Iterator<Item = (EdgeRecord, EA)>,
) where
    NA: Iterator<Item = (&'a str, &'a AttrValue)>,
    EA: Iterator<Item = (&'a str, &'a AttrValue)>,
{
    for (id, attrs) in nodes {
        out.push_str("N ");
        push_u64(out, id.raw());
        write_attrs(out, attrs);
    }
    for (r, attrs) in edges {
        out.push_str("E ");
        push_u64(out, r.edge.raw());
        out.push(' ');
        push_u64(out, r.src.raw());
        out.push(' ');
        push_u64(out, r.dst.raw());
        out.push_str(if r.directed { " d" } else { " u" });
        write_attrs(out, attrs);
    }
}

/// Writes ` name=value` per attribute, then the newline ending the line.
fn write_attrs<'a>(out: &mut String, attrs: impl Iterator<Item = (&'a str, &'a AttrValue)>) {
    for (name, value) in attrs {
        out.push(' ');
        push_attr_name(out, name);
        out.push('=');
        push_value(out, value);
    }
    out.push('\n');
}

/// The full reply to `GET GRAPH AT t` for a graph held as sorted columns,
/// rendered straight from them: the same bytes as
/// `Response::Graph { t, graph }.to_frame(format)` for the same graph,
/// with no sort and no [`Snapshot`].
pub fn frame_columns(t: Timestamp, graph: &ColumnGraph, format: WireFormat) -> Vec<u8> {
    match format {
        WireFormat::Text => {
            let mut out = graph_header(t, graph.node_count(), graph.edge_count());
            write_graph_body(
                &mut out,
                graph
                    .node_rows()
                    .map(|(id, rows)| (id, rows.iter().map(|(_, k, v)| (&**k, v)))),
                graph
                    .edge_rows()
                    .map(|(r, rows)| (*r, rows.iter().map(|(_, k, v)| (&**k, v)))),
            );
            out.push_str("END\n");
            out.into_bytes()
        }
        WireFormat::Binary => frame_bytes(MAX_FRAME_BYTES, |buf| {
            // The envelope's success tag, then `Response::Graph`'s.
            buf.extend_from_slice(&[0, 0]);
            t.encode(buf);
            graph.encode(buf);
        }),
    }
}

/// The first line of a `GET GRAPH AT` reply, newline included.
fn graph_header(t: Timestamp, nodes: usize, edges: usize) -> String {
    format!("OK GRAPH t={} nodes={nodes} edges={edges}\n", t.raw())
}

/// Renders one event (used for interval transients).
fn fmt_event(ev: &Event) -> String {
    let t = ev.time.raw();
    match &ev.kind {
        EventKind::AddNode { node } => format!("{t} ADDNODE {}", node.raw()),
        EventKind::DeleteNode { node } => format!("{t} DELNODE {}", node.raw()),
        EventKind::AddEdge {
            edge,
            src,
            dst,
            directed,
        } => format!(
            "{t} ADDEDGE {} {} {} {}",
            edge.raw(),
            src.raw(),
            dst.raw(),
            if *directed { "d" } else { "u" }
        ),
        EventKind::DeleteEdge {
            edge,
            src,
            dst,
            directed,
        } => format!(
            "{t} DELEDGE {} {} {} {}",
            edge.raw(),
            src.raw(),
            dst.raw(),
            if *directed { "d" } else { "u" }
        ),
        EventKind::SetNodeAttr { node, key, new, .. } => format!(
            "{t} NODEATTR {} {}={}",
            node.raw(),
            fmt_attr_name(key),
            new.as_ref().map_or("null".into(), fmt_value)
        ),
        EventKind::SetEdgeAttr { edge, key, new, .. } => format!(
            "{t} EDGEATTR {} {}={}",
            edge.raw(),
            fmt_attr_name(key),
            new.as_ref().map_or("null".into(), fmt_value)
        ),
        EventKind::TransientEdge { src, dst, payload } => {
            let mut s = format!("{t} TEDGE {} {}", src.raw(), dst.raw());
            if let Some(p) = payload {
                s.push_str(&format!(" payload={}", fmt_value(p)));
            }
            s
        }
        EventKind::TransientNode { node, payload } => {
            let mut s = format!("{t} TNODE {}", node.raw());
            if let Some(p) = payload {
                s.push_str(&format!(" payload={}", fmt_value(p)));
            }
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use historygraph::{CacheEntryInfo, CacheStats, ResponseCacheStats};
    use tgraph::EdgeId;

    fn sample_overview() -> CacheOverview {
        CacheOverview {
            capacity: 8,
            stats: CacheStats {
                hits: 5,
                misses: 2,
                insertions: 2,
                invalidations: 1,
                evictions: 300,
            },
            overlays: 3,
            entries: vec![CacheEntryInfo {
                t: Timestamp(-6),
                opts: "+node:all".into(),
                overlay: graphpool::GraphId(7),
                refs: 2,
            }],
            response_capacity: 16,
            response_byte_budget: 65536,
            response_entries: 1,
            response: ResponseCacheStats {
                hits: 9,
                misses: 1,
                insertions: 1,
                invalidations: 0,
                evictions: 0,
                bytes: 512,
            },
        }
    }

    #[test]
    fn graph_serialization_is_sorted_and_typed() {
        let mut s = Snapshot::new();
        s.ensure_node(NodeId(2));
        s.ensure_node(NodeId(1));
        s.add_edge(EdgeId(9), NodeId(1), NodeId(2), true).unwrap();
        s.set_node_attr(NodeId(1), "name", Some(AttrValue::Str("a b".into())))
            .unwrap();
        s.set_edge_attr(EdgeId(9), "w", Some(AttrValue::Float(1.5)))
            .unwrap();
        let lines = Response::Graph {
            t: Timestamp(6),
            graph: Arc::new(s),
        }
        .to_lines();
        assert_eq!(
            lines,
            vec![
                "OK GRAPH t=6 nodes=2 edges=1",
                "N 1 name=\"a b\"",
                "N 2",
                "E 9 1 2 d w=1.5",
            ]
        );
    }

    #[test]
    fn hostile_attribute_names_cannot_break_line_framing() {
        let mut s = Snapshot::new();
        s.ensure_node(NodeId(1));
        s.set_node_attr(NodeId(1), "x\nEND\nOK PONG", Some(AttrValue::Int(1)))
            .unwrap();
        s.set_node_attr(NodeId(1), "a b=c", Some(AttrValue::Int(2)))
            .unwrap();
        let lines = Response::Graph {
            t: Timestamp(1),
            graph: Arc::new(s),
        }
        .to_lines();
        assert_eq!(lines.len(), 2, "one header + one node line: {lines:?}");
        assert!(!lines.iter().any(|l| l == "END" || l == "OK PONG"));
        assert!(lines[1].contains("\"a b=c\"=2"), "{lines:?}");
        assert!(lines[1].contains("\"x\\nEND\\nOK PONG\"=1"), "{lines:?}");
    }

    #[test]
    fn transient_events_render() {
        let ev = Event::transient_edge(7, 1, 2, Some(AttrValue::Str("m".into())));
        assert_eq!(fmt_event(&ev), "7 TEDGE 1 2 payload=\"m\"");
    }

    // --- binary framing ------------------------------------------------

    use proptest::prelude::*;

    /// Round-trips a response through the full binary frame (length prefix,
    /// version byte, envelope) and asserts the decoded response renders to
    /// the same text — the determinism guarantee extended to binary.
    fn assert_binary_roundtrip(resp: &Response) {
        let framed = resp.to_frame(WireFormat::Binary);
        let (len_bytes, payload) = framed.split_at(4);
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        assert_eq!(len, payload.len(), "length prefix must cover the payload");
        assert_eq!(payload[0], BINARY_FRAME_VERSION);
        let Frame::Response(decoded) = Frame::from_payload(payload).expect("decode") else {
            panic!("expected a response frame");
        };
        assert_eq!(
            decoded.to_lines(),
            resp.to_lines(),
            "decoded binary must re-render to the original text"
        );
        // And re-encoding the decoded response is byte-identical.
        assert_eq!(decoded.to_frame(WireFormat::Binary), framed);
    }

    fn sample_snapshot() -> Snapshot {
        let mut s = Snapshot::new();
        s.ensure_node(NodeId(2));
        s.ensure_node(NodeId(1));
        s.add_edge(EdgeId(9), NodeId(1), NodeId(2), true).unwrap();
        s.set_node_attr(NodeId(1), "name", Some(AttrValue::Str("a b".into())))
            .unwrap();
        s.set_edge_attr(EdgeId(9), "w", Some(AttrValue::Float(1.5)))
            .unwrap();
        s
    }

    #[test]
    fn every_response_variant_roundtrips_in_binary() {
        let snap = sample_snapshot();
        let cases = vec![
            Response::Graph {
                t: Timestamp(-6),
                graph: Arc::new(snap.clone()),
            },
            Response::Graphs {
                items: vec![
                    (Timestamp(1), Arc::new(snap.clone())),
                    (Timestamp(2), Arc::new(Snapshot::new())),
                ],
            },
            Response::Interval {
                start: Timestamp(0),
                end: Timestamp(10),
                graph: snap.clone(),
                transients: vec![Event::transient_edge(
                    7,
                    1,
                    2,
                    Some(AttrValue::Str("m".into())),
                )],
            },
            Response::Node {
                key: "bob smith".into(),
                node: NodeId(4),
                t: Timestamp(3),
                present: true,
                attrs: vec![("k".into(), AttrValue::Int(-2))],
                neighbors: vec![(NodeId(1), EdgeId(9))],
            },
            Response::History {
                key: "a".into(),
                node: NodeId(1),
                from: Timestamp(0),
                to: Timestamp(8),
                step: 2,
                samples: vec![HistorySample {
                    t: Timestamp(0),
                    present: false,
                    degree: 0,
                    attrs: vec![("x".into(), AttrValue::Bool(true))],
                }],
            },
            Response::Stats {
                leaves: 4,
                interior: 2,
                height: 3,
                stored_bytes: 1 << 40,
                materialized_nodes: 1,
                materialized_bytes: 9000,
                recent_events: 7,
            },
            Response::CacheStats {
                overview: sample_overview(),
            },
            Response::Shards {
                shards: vec![
                    ShardInfo {
                        index: 0,
                        lower: None,
                        upper: Some(Timestamp(50)),
                        events: 120,
                        overlays: 2,
                        cache_entries: 1,
                        cache: CacheStats {
                            hits: 3,
                            misses: 1,
                            insertions: 1,
                            invalidations: 0,
                            evictions: 0,
                        },
                        response_entries: 1,
                        response: ResponseCacheStats {
                            hits: 2,
                            misses: 1,
                            insertions: 1,
                            invalidations: 0,
                            evictions: 0,
                            bytes: 64,
                        },
                        queries: 90,
                        appends: 0,
                    },
                    ShardInfo {
                        index: 1,
                        lower: Some(Timestamp(50)),
                        upper: None,
                        events: 7,
                        overlays: 0,
                        cache_entries: 0,
                        cache: CacheStats::default(),
                        response_entries: 0,
                        response: ResponseCacheStats::default(),
                        queries: 10,
                        appends: 7,
                    },
                ],
            },
            Response::Server {
                counters: ServerCounters {
                    live_connections: 12,
                    accepted: 100,
                    rejected: 3,
                    queue_depth: 2,
                    workers: 4,
                    sf_leaders: 40,
                    sf_coalesced: 360,
                    sf_stale_rerenders: 1,
                },
            },
            Response::Metrics {
                entries: vec![
                    MetricEntry {
                        name: "path_fast_total".into(),
                        value: MetricValue::Counter(42),
                    },
                    MetricEntry {
                        name: "server_queue_depth".into(),
                        value: MetricValue::Gauge(3),
                    },
                    MetricEntry {
                        name: "verb_us_get_graph_at".into(),
                        value: MetricValue::Histogram(HistogramStats {
                            count: 100,
                            sum: 12345,
                            p50: 127,
                            p90: 255,
                            p99: 1023,
                            max: 900,
                        }),
                    },
                ],
            },
            Response::Slow {
                entries: vec![
                    SlowQueryInfo {
                        verb: "GET GRAPH AT".into(),
                        t: Some(Timestamp(-6)),
                        shard: Some(2),
                        total_us: 1500,
                        queue_us: 100,
                        service_us: 1400,
                        session: 9,
                    },
                    SlowQueryInfo {
                        verb: "OTHER".into(),
                        t: None,
                        shard: None,
                        total_us: 80,
                        queue_us: 0,
                        service_us: 80,
                        session: 1,
                    },
                ],
            },
            Response::Storage {
                info: StorageInfo {
                    durable: true,
                    policy: "always".into(),
                    segments: 2,
                    segment_bytes: 8192,
                    wal_bytes: 640,
                    wal_appends: 31,
                    wal_fsyncs: 31,
                    torn_bytes: 5,
                    torn_truncations: 1,
                    recovery_ms: 12,
                },
            },
            Response::Health {
                info: HealthInfo {
                    shards: vec![
                        historygraph::ShardHealth {
                            index: 0,
                            state: "ready".into(),
                            failures: 0,
                        },
                        historygraph::ShardHealth {
                            index: 1,
                            state: "quarantined".into(),
                            failures: 2,
                        },
                    ],
                    degraded: true,
                    degraded_reason: "injected EIO at wal.append".into(),
                    quarantined: 1,
                    hydration_failures: 2,
                    storage_retries: 4,
                },
            },
            Response::Appended { t: Timestamp(20) },
            Response::AppendedBatch {
                count: 5,
                normalized: 2,
                t_min: Timestamp(20),
                t_max: Timestamp(23),
            },
            Response::Bound {
                key: "alice".into(),
                node: 1,
            },
            Response::Released { count: 3 },
            Response::Protocol {
                mode: WireFormat::Binary,
            },
            Response::Bye,
            Response::Pong,
        ];
        for resp in &cases {
            assert_binary_roundtrip(resp);
        }
    }

    #[test]
    fn cache_stats_frames_are_pinned() {
        // Tag 6 encodes the overview's fields in declaration order; these
        // bytes (and the text lines) are the wire contract in PROTOCOL.md.
        let resp = Response::CacheStats {
            overview: sample_overview(),
        };
        let binary: Vec<u8> = vec![
            37, 0, 0, 0, 1, 0, 6, 8, 5, 2, 2, 1, 172, 2, 3, 1, 11, 9, 43, 110, 111, 100, 101, 58,
            97, 108, 108, 7, 2, 16, 128, 128, 4, 1, 9, 1, 1, 0, 0, 128, 4,
        ];
        assert_eq!(resp.to_frame(WireFormat::Binary), binary);
        assert_eq!(
            String::from_utf8(resp.to_frame(WireFormat::Text)).unwrap(),
            "OK CACHE entries=1 capacity=8 hits=5 misses=2 insertions=2 invalidations=1 \
             evictions=300 overlays=3\n\
             RC entries=1 capacity=16 byte_budget=65536 hits=9 misses=1 insertions=1 \
             invalidations=0 evictions=0 bytes=512\n\
             C t=-6 opts=\"+node:all\" overlay=7 refs=2\nEND\n"
        );
    }

    #[test]
    fn error_frames_roundtrip() {
        let framed = frame_error("unknown verb 'FROB'", WireFormat::Binary);
        match Frame::from_payload(&framed[4..]).unwrap() {
            Frame::Error(msg) => assert_eq!(msg, "unknown verb 'FROB'"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert_eq!(
            frame_error("multi\nline", WireFormat::Text),
            b"ERR multi line\nEND\n"
        );
    }

    #[test]
    fn text_frame_is_lines_plus_end() {
        let resp = Response::Pong;
        assert_eq!(resp.to_frame(WireFormat::Text), b"OK PONG\nEND\n");
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let entries = vec![
            MetricEntry {
                name: "path_fast_total".into(),
                value: MetricValue::Counter(42),
            },
            MetricEntry {
                name: "server_queue_depth".into(),
                value: MetricValue::Gauge(3),
            },
            MetricEntry {
                name: "verb_us_get_graph_at".into(),
                value: MetricValue::Histogram(HistogramStats {
                    count: 100,
                    sum: 12345,
                    p50: 127,
                    p90: 255,
                    p99: 1023,
                    max: 900,
                }),
            },
        ];
        let body = render_prometheus(&entries);
        assert!(body.contains("# TYPE histql_path_fast_total counter\n"));
        assert!(body.contains("histql_path_fast_total 42\n"));
        assert!(body.contains("# TYPE histql_server_queue_depth gauge\n"));
        assert!(body.contains("# TYPE histql_verb_us_get_graph_at summary\n"));
        assert!(body.contains("histql_verb_us_get_graph_at{quantile=\"0.5\"} 127\n"));
        assert!(body.contains("histql_verb_us_get_graph_at{quantile=\"0.99\"} 1023\n"));
        assert!(body.contains("histql_verb_us_get_graph_at_sum 12345\n"));
        assert!(body.contains("histql_verb_us_get_graph_at_count 100\n"));
        assert!(body.contains("histql_verb_us_get_graph_at_max 900\n"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in body.lines() {
            assert!(
                line.starts_with("# TYPE histql_")
                    || (line.starts_with("histql_") && line.split(' ').count() == 2),
                "malformed exposition line: {line}"
            );
        }
        assert!(body.ends_with('\n'));
    }

    #[test]
    fn oversized_replies_become_error_frames_not_desyncs() {
        let resp = Response::Graph {
            t: Timestamp(6),
            graph: Arc::new(sample_snapshot()),
        };
        let framed = Frame::Response(resp).to_frame_bytes_bounded(8);
        let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
        assert_eq!(len, framed.len() - 4, "error frame is well-formed");
        match Frame::from_payload(&framed[4..]).unwrap() {
            Frame::Error(msg) => assert!(msg.contains("frame limit"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_version_is_rejected() {
        let mut framed = Frame::Response(Response::Pong).to_frame_bytes();
        framed[4] = BINARY_FRAME_VERSION + 1;
        let err = Frame::from_payload(&framed[4..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        assert!(Frame::from_payload(&[]).is_err());
    }

    #[test]
    fn column_replies_render_every_value_and_name_like_snapshot_replies() {
        let mut s = Snapshot::new();
        s.add_edge(EdgeId(7), NodeId(2), NodeId(1), true).unwrap();
        s.add_edge(EdgeId(3), NodeId(1), NodeId(1), false).unwrap();
        s.ensure_node(NodeId(40));
        let values = [
            AttrValue::from("plain"),
            AttrValue::from("quote \" back\\ line\n tab\t"),
            AttrValue::Int(-42),
            AttrValue::Int(i64::MIN),
            AttrValue::Float(-0.5),
            AttrValue::Float(f64::NAN),
            AttrValue::Bool(true),
        ];
        for (i, v) in values.iter().enumerate() {
            let name = ["a", "two words", "x.y:z-1", "", "é", "n_", "Z"][i];
            s.set_node_attr(NodeId(1), name, Some(v.clone())).unwrap();
            s.set_edge_attr(EdgeId(7), name, Some(v.clone())).unwrap();
        }
        let columns = ColumnGraph::from_snapshot(&s);
        for format in [WireFormat::Text, WireFormat::Binary] {
            let reference = Response::Graph {
                t: Timestamp(-3),
                graph: Arc::new(s.clone()),
            };
            assert_eq!(
                frame_columns(Timestamp(-3), &columns, format),
                reference.to_frame(format),
                "{format:?}"
            );
        }
        // The text form is still the line-by-line one.
        let reference = Response::Graph {
            t: Timestamp(-3),
            graph: Arc::new(s),
        };
        let mut lines = reference.to_lines().join("\n");
        lines.push_str("\nEND\n");
        assert_eq!(lines.as_bytes(), &reference.to_frame(WireFormat::Text)[..]);
    }

    proptest! {
        #[test]
        fn prop_graph_responses_roundtrip_in_binary(
            t in -1000i64..1000,
            nodes in 0u64..12,
            attr in 0u64..5,
        ) {
            let mut s = Snapshot::new();
            for n in 0..nodes {
                s.ensure_node(NodeId(n));
                if n % 2 == 0 {
                    s.set_node_attr(NodeId(n), "v", Some(AttrValue::Int(attr as i64 + n as i64)))
                        .unwrap();
                }
            }
            for n in 1..nodes {
                s.add_edge(EdgeId(100 + n), NodeId(n - 1), NodeId(n), n % 3 == 0)
                    .unwrap();
            }
            assert_binary_roundtrip(&Response::Graph {
                t: Timestamp(t),
                graph: Arc::new(s),
            });
        }

        #[test]
        fn prop_column_replies_equal_snapshot_replies(seed in 0u64..1000, pick in any::<u64>()) {
            // A retrieval's columns, rendered straight, give the bytes of
            // the reference snapshot (a replay of the trace) through
            // `Response::to_frame`, in both encodings, under every
            // partitioning and attribute selection.
            use historygraph::kvstore::MemStore;
            let ds = datagen::churn_trace(&datagen::ChurnConfig::tiny(seed));
            let (start, end) = (ds.start_time().raw(), ds.end_time().raw());
            let t = Timestamp(start + (pick % (end - start + 1) as u64) as i64);
            for partitions in [1, 3] {
                let dg = deltagraph::DeltaGraph::build(
                    &ds.events,
                    deltagraph::DeltaGraphConfig::new(60, 2).with_partitions(partitions),
                    Arc::new(MemStore::new()),
                )
                .unwrap();
                for opts in ["", "+node:all", "+node:attr0", "+node:all+edge:all"] {
                    let opts = tgraph::AttrOptions::parse(opts).unwrap();
                    let columns: ColumnGraph = dg.plan_retrieval(t, &opts).unwrap().execute().unwrap();
                    let want = ds.snapshot_at(t).project_attrs(&opts);
                    assert_eq!(columns.clone().into_snapshot(), want, "seed={seed} t={t}");
                    let graph = Arc::new(want);
                    for format in [WireFormat::Text, WireFormat::Binary] {
                        let reference = Response::Graph { t, graph: Arc::clone(&graph) };
                        assert_eq!(
                            frame_columns(t, &columns, format),
                            reference.to_frame(format),
                            "seed={seed} t={t} {format:?}"
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_decoding_random_frames_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            // Any outcome is fine as long as it does not panic.
            let _ = Frame::from_payload(&bytes);
        }
    }
}
