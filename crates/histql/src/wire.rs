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

use std::fmt::Write;
use std::sync::Arc;

use historygraph::{CacheOverview, HealthInfo, ShardInfo, StorageInfo, WireFormat};
use tgraph::codec::{Decode, Encode};
use tgraph::{
    AttrValue, ColumnGraph, EdgeRecord, Event, EventKind, NodeId, Snapshot, TgError, Timestamp,
};

use crate::ast::{format_keyword, push_quoted, push_u64, push_value};

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
        /// Clearing events the §3.1 contract injected (0 when the batch
        /// was already well-formed).
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

tgraph::impl_codec!(ServerCounters {
    live_connections,
    accepted,
    rejected,
    queue_depth,
    workers,
    sf_leaders,
    sf_coalesced,
    sf_stale_rerenders
});

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

tgraph::impl_codec!(HistogramStats {
    count,
    sum,
    p50,
    p90,
    p99,
    max
});

tgraph::impl_codec!(MetricEntry { name, value });

tgraph::impl_codec_enum!(MetricValue {
    0 => Counter(v),
    1 => Gauge(v),
    2 => Histogram(h),
});

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

tgraph::impl_codec!(SlowQueryInfo {
    verb,
    t,
    shard,
    total_us,
    queue_us,
    service_us,
    session
});

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
        let mut text = String::new();
        self.write_text(&mut text);
        // Every line ends in '\n', and no line holds one (values are escaped).
        text.split_terminator('\n').map(str::to_owned).collect()
    }

    /// The response as one newline-joined string.
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        self.write_text(&mut text);
        text.pop();
        text
    }

    /// The complete reply as the bytes a server writes for this response in
    /// the given encoding: text lines plus the `END` sentinel, or one binary
    /// frame. These are exactly the bytes the point cache's slots store.
    pub fn to_frame(&self, format: WireFormat) -> Vec<u8> {
        match format {
            WireFormat::Text => {
                let mut out = String::new();
                self.write_text(&mut out);
                out.push_str("END\n");
                out.into_bytes()
            }
            WireFormat::Binary => frame_bytes(MAX_FRAME_BYTES, |buf| {
                // The envelope's success tag, as `Frame::Response` writes it.
                buf.push(0);
                self.encode(buf)
            }),
        }
    }

    /// Writes the response's protocol lines into `out`, each ended by a
    /// newline (no `END` sentinel): the one text renderer behind
    /// [`Response::to_frame`], [`Response::to_lines`] and
    /// [`Response::to_text`].
    fn write_text(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        macro_rules! emit {
            ($($arg:tt)*) => {{
                let _ = writeln!(out, $($arg)*);
            }};
        }
        match self {
            Response::Graph { t, graph } => {
                write_graph_header(out, "OK GRAPH", *t, graph.node_count(), graph.edge_count());
                write_snapshot_body(out, graph);
            }
            Response::Graphs { items } => {
                emit!("OK GRAPHS count={}", items.len());
                for (t, graph) in items {
                    write_graph_header(out, "GRAPH", *t, graph.node_count(), graph.edge_count());
                    write_snapshot_body(out, graph);
                }
            }
            Response::Interval {
                start,
                end,
                graph,
                transients,
            } => {
                emit!(
                    "OK INTERVAL start={} end={} nodes={} edges={} transients={}",
                    start.raw(),
                    end.raw(),
                    graph.node_count(),
                    graph.edge_count(),
                    transients.len()
                );
                write_snapshot_body(out, graph);
                for ev in transients {
                    out.push_str("T ");
                    write_event(out, ev);
                    out.push('\n');
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
                out.push_str("OK NODE ");
                push_quoted(out, key);
                emit!(
                    " id={} t={} present={} degree={}",
                    node.raw(),
                    t.raw(),
                    present,
                    neighbors.len()
                );
                for (name, value) in attrs {
                    out.push_str("A ");
                    write_assignment(out, name, value);
                    out.push('\n');
                }
                for (nbr, edge) in neighbors {
                    emit!("ADJ {} {}", nbr.raw(), edge.raw());
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
                out.push_str("OK HISTORY ");
                push_quoted(out, key);
                emit!(
                    " id={} from={} to={} step={} samples={}",
                    node.raw(),
                    from.raw(),
                    to.raw(),
                    step,
                    samples.len()
                );
                for s in samples {
                    let _ = write!(
                        out,
                        "H t={} present={} degree={}",
                        s.t.raw(),
                        s.present,
                        s.degree
                    );
                    write_attrs(out, s.attrs.iter().map(|(k, v)| (k.as_str(), v)));
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
            } => emit!(
                "OK STATS leaves={leaves} interior={interior} height={height} \
                 stored_bytes={stored_bytes} materialized_nodes={materialized_nodes} \
                 materialized_bytes={materialized_bytes} recent_events={recent_events}"
            ),
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
                emit!(
                    "OK CACHE entries={} capacity={capacity} hits={} misses={} \
                     insertions={} invalidations={} evictions={} overlays={overlays}",
                    entries.len(),
                    stats.hits,
                    stats.misses,
                    stats.insertions,
                    stats.invalidations,
                    stats.evictions
                );
                emit!(
                    "RC entries={response_entries} capacity={response_capacity} \
                     byte_budget={response_byte_budget} hits={} \
                     misses={} insertions={} invalidations={} evictions={} bytes={}",
                    response.hits,
                    response.misses,
                    response.insertions,
                    response.invalidations,
                    response.evictions,
                    response.bytes
                );
                for e in entries {
                    let _ = write!(out, "C t={} opts=", e.t.raw());
                    push_quoted(out, &e.opts);
                    emit!(" overlay={} refs={}", e.overlay.0, e.refs);
                }
            }
            Response::Shards { shards } => {
                emit!("OK SHARDS count={}", shards.len());
                let fmt_bound =
                    |b: Option<Timestamp>| b.map_or("-".to_string(), |t| t.raw().to_string());
                for s in shards {
                    emit!(
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
                    );
                }
            }
            Response::Server { counters } => {
                emit!(
                    "OK SERVER connections={} accepted={} rejected={} \
                     queue_depth={} workers={}",
                    counters.live_connections,
                    counters.accepted,
                    counters.rejected,
                    counters.queue_depth,
                    counters.workers
                );
                emit!(
                    "SF leaders={} coalesced={} stale_rerenders={}",
                    counters.sf_leaders,
                    counters.sf_coalesced,
                    counters.sf_stale_rerenders
                );
            }
            Response::Metrics { entries } => {
                emit!("OK METRICS entries={}", entries.len());
                for e in entries {
                    match &e.value {
                        MetricValue::Counter(v) => emit!("M {} counter value={v}", e.name),
                        MetricValue::Gauge(v) => emit!("M {} gauge value={v}", e.name),
                        MetricValue::Histogram(h) => emit!(
                            "M {} hist count={} p50={} p90={} p99={} max={} sum={}",
                            e.name,
                            h.count,
                            h.p50,
                            h.p90,
                            h.p99,
                            h.max,
                            h.sum
                        ),
                    }
                }
            }
            Response::Slow { entries } => {
                emit!("OK SLOW entries={}", entries.len());
                let fmt_opt = |v: Option<i64>| v.map_or("-".to_string(), |v| v.to_string());
                for q in entries {
                    out.push_str("Q verb=");
                    push_quoted(out, &q.verb);
                    emit!(
                        " t={} shard={} total_us={} queue_us={} service_us={} session={}",
                        fmt_opt(q.t.map(|t| t.raw())),
                        fmt_opt(q.shard.map(|s| s as i64)),
                        q.total_us,
                        q.queue_us,
                        q.service_us,
                        q.session
                    );
                }
            }
            Response::Storage { info } => emit!(
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
            ),
            Response::Health { info } => {
                let _ = write!(
                    out,
                    "OK HEALTH shards={} degraded={} quarantined={} \
                     hydration_failures={} storage_retries={}",
                    info.shards.len(),
                    info.degraded,
                    info.quarantined,
                    info.hydration_failures,
                    info.storage_retries
                );
                if !info.degraded_reason.is_empty() {
                    out.push_str(" reason=");
                    push_quoted(out, &info.degraded_reason);
                }
                out.push('\n');
                for s in &info.shards {
                    emit!("H {} state={} failures={}", s.index, s.state, s.failures);
                }
            }
            Response::Appended { t } => emit!("OK APPENDED t={}", t.raw()),
            Response::AppendedBatch {
                count,
                normalized,
                t_min,
                t_max,
            } => emit!(
                "OK APPENDED BATCH count={count} normalized={normalized} t_min={} t_max={}",
                t_min.raw(),
                t_max.raw()
            ),
            Response::Bound { key, node } => {
                out.push_str("OK BOUND ");
                push_quoted(out, key);
                emit!(" {node}");
            }
            Response::Released { count } => emit!("OK RELEASED {count}"),
            Response::Protocol { mode } => emit!("OK PROTOCOL {}", format_keyword(*mode)),
            Response::Bye => emit!("OK BYE"),
            Response::Pong => emit!("OK PONG"),
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

tgraph::impl_codec_enum!(Frame {
    0 => Response(resp),
    1 => Error(msg),
});

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

tgraph::impl_codec!(HistorySample {
    t,
    present,
    degree,
    attrs
});

tgraph::impl_codec_enum!(Response {
    0 => Graph { t, graph },
    1 => Graphs { items },
    2 => Interval { start, end, graph, transients },
    3 => Node { key, node, t, present, attrs, neighbors },
    4 => History { key, node, from, to, step, samples },
    5 => Stats {
        leaves,
        interior,
        height,
        stored_bytes,
        materialized_nodes,
        materialized_bytes,
        recent_events,
    },
    6 => CacheStats { overview },
    7 => Appended { t },
    8 => Bound { key, node },
    9 => Released { count },
    10 => Pong,
    11 => Protocol { mode },
    12 => Bye,
    13 => Shards { shards },
    14 => Server { counters },
    15 => Metrics { entries },
    16 => Slow { entries },
    17 => Storage { info },
    18 => Health { info },
    19 => AppendedBatch { count, normalized, t_min, t_max },
});

/// Appends an attribute name: bare when it is a plain identifier, quoted
/// otherwise — so names containing spaces, `=`, or control characters (which
/// would break the line framing) always round-trip safely.
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

/// Appends `name=value`.
fn write_assignment(out: &mut String, name: &str, value: &AttrValue) {
    push_attr_name(out, name);
    out.push('=');
    push_value(out, value);
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

/// Writes the `N`/`E` lines of `graph`, each ended by a newline, straight
/// from its sorted columns.
fn write_column_body(out: &mut String, graph: &ColumnGraph) {
    write_graph_body(
        out,
        graph
            .node_rows()
            .map(|(id, rows)| (id, rows.iter().map(|(_, k, v)| (&**k, v)))),
        graph
            .edge_rows()
            .map(|(r, rows)| (*r, rows.iter().map(|(_, k, v)| (&**k, v)))),
    );
}

/// Writes the `N`/`E` lines of a graph given in id order, each ended by a
/// newline: the one text renderer behind [`Response::to_frame`],
/// [`frame_columns`] and [`frame_graphs`].
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
        write_assignment(out, name, value);
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
            let mut out = String::new();
            write_graph_header(
                &mut out,
                "OK GRAPH",
                t,
                graph.node_count(),
                graph.edge_count(),
            );
            write_column_body(&mut out, graph);
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

/// The full reply to `GET GRAPHS AT` for graphs held as sorted columns, in
/// request order, rendered straight from them: the same bytes as
/// `Response::Graphs { items }.to_frame(format)` for the same graphs, with
/// no sort and no [`Snapshot`].
pub fn frame_graphs(items: &[(Timestamp, Arc<ColumnGraph>)], format: WireFormat) -> Vec<u8> {
    match format {
        WireFormat::Text => {
            let mut out = String::new();
            let _ = writeln!(out, "OK GRAPHS count={}", items.len());
            for (t, graph) in items {
                write_graph_header(
                    &mut out,
                    "GRAPH",
                    *t,
                    graph.node_count(),
                    graph.edge_count(),
                );
                write_column_body(&mut out, graph);
            }
            out.push_str("END\n");
            out.into_bytes()
        }
        WireFormat::Binary => frame_bytes(MAX_FRAME_BYTES, |buf| {
            // The envelope's success tag, then `Response::Graphs`'s.
            buf.extend_from_slice(&[0, 1]);
            items.len().encode(buf);
            for (t, graph) in items {
                t.encode(buf);
                graph.encode(buf);
            }
        }),
    }
}

/// Writes the first line of one graph in a reply, newline included:
/// `<label> t=.. nodes=.. edges=..`.
fn write_graph_header(out: &mut String, label: &str, t: Timestamp, nodes: usize, edges: usize) {
    let _ = writeln!(out, "{label} t={} nodes={nodes} edges={edges}", t.raw());
}

/// Writes one event (used for interval transients), with no newline.
fn write_event(out: &mut String, ev: &Event) {
    let t = ev.time.raw();
    let _ = match &ev.kind {
        EventKind::AddNode { node } => write!(out, "{t} ADDNODE {}", node.raw()),
        EventKind::DeleteNode { node } => write!(out, "{t} DELNODE {}", node.raw()),
        EventKind::AddEdge {
            edge,
            src,
            dst,
            directed,
        } => write!(
            out,
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
        } => write!(
            out,
            "{t} DELEDGE {} {} {} {}",
            edge.raw(),
            src.raw(),
            dst.raw(),
            if *directed { "d" } else { "u" }
        ),
        EventKind::SetNodeAttr { node, key, new, .. } => {
            let _ = write!(out, "{t} NODEATTR {} ", node.raw());
            write_optional_assignment(out, key, new.as_ref());
            Ok(())
        }
        EventKind::SetEdgeAttr { edge, key, new, .. } => {
            let _ = write!(out, "{t} EDGEATTR {} ", edge.raw());
            write_optional_assignment(out, key, new.as_ref());
            Ok(())
        }
        EventKind::TransientEdge { src, dst, payload } => {
            let _ = write!(out, "{t} TEDGE {} {}", src.raw(), dst.raw());
            write_payload(out, payload.as_ref());
            Ok(())
        }
        EventKind::TransientNode { node, payload } => {
            let _ = write!(out, "{t} TNODE {}", node.raw());
            write_payload(out, payload.as_ref());
            Ok(())
        }
    };
}

/// Appends `name=value`, or `name=null` for an attribute removed.
fn write_optional_assignment(out: &mut String, name: &str, value: Option<&AttrValue>) {
    match value {
        Some(value) => write_assignment(out, name, value),
        None => {
            push_attr_name(out, name);
            out.push_str("=null");
        }
    }
}

/// Appends ` payload=value` when a transient carries one.
fn write_payload(out: &mut String, payload: Option<&AttrValue>) {
    if let Some(p) = payload {
        out.push_str(" payload=");
        push_value(out, p);
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
        let mut line = String::new();
        write_event(&mut line, &ev);
        assert_eq!(line, "7 TEDGE 1 2 payload=\"m\"");
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

    /// The golden binary vectors, one `name hex` line each: every
    /// `Response` tag and the error envelope as whole frames, and each
    /// record type on its own. `tests/sealed_segments.rs` mutates the
    /// frames.
    const GOLDEN: &str = include_str!("../testdata/wire_golden.txt");

    fn golden(name: &str) -> &'static str {
        GOLDEN
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no golden vector named {name}"))
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Asserts `value` encodes to its golden vector and decodes back to a
    /// value that prints the same.
    fn pin<T: Encode + Decode + std::fmt::Debug>(name: &str, value: &T) {
        let bytes = value.to_bytes();
        assert_eq!(hex(&bytes), golden(name), "{name}");
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{value:?}"), "{name}");
    }

    /// Field-by-field equality; a snapshot's `Debug` order is its hash
    /// table's, so graphs compare by value.
    fn same_response(a: &Response, b: &Response) -> bool {
        match (a, b) {
            (Response::Graph { t, graph }, Response::Graph { t: t2, graph: g2 }) => {
                t == t2 && graph == g2
            }
            (Response::Graphs { items }, Response::Graphs { items: i2 }) => items == i2,
            (
                Response::Interval {
                    start,
                    end,
                    graph,
                    transients,
                },
                Response::Interval {
                    start: s2,
                    end: e2,
                    graph: g2,
                    transients: t2,
                },
            ) => start == s2 && end == e2 && graph == g2 && transients == t2,
            _ => format!("{a:?}") == format!("{b:?}"),
        }
    }

    fn sample_shards() -> Vec<ShardInfo> {
        vec![
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
                queries: 900,
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
        ]
    }

    fn sample_metrics() -> Vec<MetricEntry> {
        vec![
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
        ]
    }

    fn sample_slow() -> Vec<SlowQueryInfo> {
        vec![
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
        ]
    }

    fn sample_health() -> HealthInfo {
        HealthInfo {
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
        }
    }

    fn sample_sample() -> HistorySample {
        HistorySample {
            t: Timestamp(0),
            present: true,
            degree: 130,
            attrs: vec![("x".into(), AttrValue::Bool(true))],
        }
    }

    const SERVER: ServerCounters = ServerCounters {
        live_connections: 12,
        accepted: 100,
        rejected: 3,
        queue_depth: 2,
        workers: 4,
        sf_leaders: 40,
        sf_coalesced: 360,
        sf_stale_rerenders: 1,
    };

    /// One response per binary tag, 0 to 19, each with its name in the
    /// golden file and, for the `STATS` forms, its exact text reply.
    fn golden_responses() -> Vec<(&'static str, Response, Option<&'static str>)> {
        let snap = sample_snapshot();
        vec![
            (
                "Response::Graph",
                Response::Graph {
                    t: Timestamp(-6),
                    graph: Arc::new(snap.clone()),
                },
                None,
            ),
            (
                "Response::Graphs",
                Response::Graphs {
                    items: vec![
                        (Timestamp(1), Arc::new(snap.clone())),
                        (Timestamp(2), Arc::new(Snapshot::new())),
                    ],
                },
                None,
            ),
            (
                "Response::Interval",
                Response::Interval {
                    start: Timestamp(0),
                    end: Timestamp(10),
                    graph: snap,
                    transients: vec![Event::transient_edge(
                        7,
                        1,
                        2,
                        Some(AttrValue::Str("m".into())),
                    )],
                },
                None,
            ),
            (
                "Response::Node",
                Response::Node {
                    key: "bob smith".into(),
                    node: NodeId(4),
                    t: Timestamp(3),
                    present: true,
                    attrs: vec![("k".into(), AttrValue::Int(-2))],
                    neighbors: vec![(NodeId(1), EdgeId(9))],
                },
                None,
            ),
            (
                "Response::History",
                Response::History {
                    key: "a".into(),
                    node: NodeId(1),
                    from: Timestamp(0),
                    to: Timestamp(8),
                    step: 2,
                    samples: vec![sample_sample()],
                },
                None,
            ),
            (
                "Response::Stats",
                Response::Stats {
                    leaves: 4,
                    interior: 2,
                    height: 3,
                    stored_bytes: 1 << 40,
                    materialized_nodes: 1,
                    materialized_bytes: 9000,
                    recent_events: 7,
                },
                Some(
                    "OK STATS leaves=4 interior=2 height=3 stored_bytes=1099511627776 materialized_nodes=1 materialized_bytes=9000 recent_events=7\n\
                     END\n",
                ),
            ),
            (
                "Response::CacheStats",
                Response::CacheStats {
                    overview: sample_overview(),
                },
                Some(
                    "OK CACHE entries=1 capacity=8 hits=5 misses=2 insertions=2 invalidations=1 \
                     evictions=300 overlays=3\n\
                     RC entries=1 capacity=16 byte_budget=65536 hits=9 misses=1 insertions=1 \
                     invalidations=0 evictions=0 bytes=512\n\
                     C t=-6 opts=\"+node:all\" overlay=7 refs=2\nEND\n",
                ),
            ),
            (
                "Response::Appended",
                Response::Appended { t: Timestamp(20) },
                None,
            ),
            (
                "Response::Bound",
                Response::Bound {
                    key: "alice".into(),
                    node: 1,
                },
                None,
            ),
            ("Response::Released", Response::Released { count: 3 }, None),
            ("Response::Pong", Response::Pong, None),
            (
                "Response::Protocol",
                Response::Protocol {
                    mode: WireFormat::Binary,
                },
                None,
            ),
            ("Response::Bye", Response::Bye, None),
            (
                "Response::Shards",
                Response::Shards {
                    shards: sample_shards(),
                },
                Some(
                    "OK SHARDS count=2\n\
                     S 0 lower=- upper=50 events=120 overlays=2 cache_entries=1 cache_hits=3 cache_misses=1 cache_invalidations=0 rc_entries=1 rc_hits=2 rc_misses=1 queries=900 appends=0\n\
                     S 1 lower=50 upper=- events=7 overlays=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_invalidations=0 rc_entries=0 rc_hits=0 rc_misses=0 queries=10 appends=7\n\
                     END\n",
                ),
            ),
            (
                "Response::Server",
                Response::Server { counters: SERVER },
                Some(
                    "OK SERVER connections=12 accepted=100 rejected=3 queue_depth=2 workers=4\n\
                     SF leaders=40 coalesced=360 stale_rerenders=1\n\
                     END\n",
                ),
            ),
            (
                "Response::Metrics",
                Response::Metrics {
                    entries: sample_metrics(),
                },
                Some(
                    "OK METRICS entries=3\n\
                     M path_fast_total counter value=42\n\
                     M server_queue_depth gauge value=3\n\
                     M verb_us_get_graph_at hist count=100 p50=127 p90=255 p99=1023 max=900 sum=12345\n\
                     END\n",
                ),
            ),
            (
                "Response::Slow",
                Response::Slow {
                    entries: sample_slow(),
                },
                Some(
                    "OK SLOW entries=2\n\
                     Q verb=\"GET GRAPH AT\" t=-6 shard=2 total_us=1500 queue_us=100 service_us=1400 session=9\n\
                     Q verb=\"OTHER\" t=- shard=- total_us=80 queue_us=0 service_us=80 session=1\n\
                     END\n",
                ),
            ),
            (
                "Response::Storage",
                Response::Storage {
                    info: sample_storage(),
                },
                Some(
                    "OK STORAGE durable=true policy=always segments=2 segment_bytes=8192 wal_bytes=640 wal_appends=31 wal_fsyncs=31 torn_bytes=5 torn_truncations=1 recovery_ms=12\n\
                     END\n",
                ),
            ),
            (
                "Response::Health",
                Response::Health {
                    info: sample_health(),
                },
                Some(
                    "OK HEALTH shards=2 degraded=true quarantined=1 hydration_failures=2 storage_retries=4 reason=\"injected EIO at wal.append\"\n\
                     H 0 state=ready failures=0\n\
                     H 1 state=quarantined failures=2\n\
                     END\n",
                ),
            ),
            (
                "Response::AppendedBatch",
                Response::AppendedBatch {
                    count: 5,
                    normalized: 2,
                    t_min: Timestamp(20),
                    t_max: Timestamp(23),
                },
                None,
            ),
        ]
    }

    fn sample_storage() -> StorageInfo {
        StorageInfo {
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
        }
    }

    #[test]
    fn wire_formats_are_pinned() {
        // Every binary reply is its fields in declaration order after one
        // tag; these bytes and the `STATS` text forms are the wire contract
        // in PROTOCOL.md.
        let responses = golden_responses();
        for (tag, (name, resp, text)) in responses.iter().enumerate() {
            let framed = resp.to_frame(WireFormat::Binary);
            assert_eq!(framed[6] as usize, tag, "{name}");
            assert_eq!(hex(&framed), golden(name), "{name}");
            let Frame::Response(back) = Frame::from_payload(&framed[4..]).unwrap() else {
                panic!("{name}: expected a response frame");
            };
            assert!(same_response(&back, resp), "{name}: {back:?}");
            if let Some(text) = text {
                let got = String::from_utf8(resp.to_frame(WireFormat::Text)).unwrap();
                assert_eq!(&got, text, "{name}");
            }
        }
        let framed = frame_error("unknown verb 'FROB'", WireFormat::Binary);
        assert_eq!(hex(&framed), golden("Frame::Error"));
        let Frame::Error(msg) = Frame::from_payload(&framed[4..]).unwrap() else {
            panic!("expected an error frame");
        };
        assert_eq!(msg, "unknown verb 'FROB'");

        let overview = sample_overview();
        pin("WireFormat::Text", &WireFormat::Text);
        pin("WireFormat::Binary", &WireFormat::Binary);
        pin("CacheStats", &overview.stats);
        pin("ResponseCacheStats", &overview.response);
        pin("CacheEntryInfo", &overview.entries[0]);
        pin("CacheOverview", &overview);
        pin("ShardInfo", &sample_shards()[0]);
        pin("StorageInfo", &sample_storage());
        pin("ShardHealth", &sample_health().shards[1]);
        pin("HealthInfo", &sample_health());
        pin("ServerCounters", &SERVER);
        let metrics = sample_metrics();
        let MetricValue::Histogram(histogram) = metrics[2].value else {
            unreachable!()
        };
        pin("HistogramStats", &histogram);
        pin("MetricEntry::Counter", &metrics[0]);
        pin("MetricEntry::Gauge", &metrics[1]);
        pin("MetricEntry::Histogram", &metrics[2]);
        pin("SlowQueryInfo", &sample_slow()[0]);
        pin("HistorySample", &sample_sample());
        pin("Frame::Response", &Frame::Response(Response::Pong));
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

    /// `GET GRAPHS AT`, rendered through the executor from columns, gives
    /// the bytes of `Response::Graphs` over the reference snapshots (a
    /// replay of the trace) in both encodings. The times mix a repeated
    /// one, one before history, ones after the last leaf (answered from the
    /// recent events), and one the snapshot cache holds beside misses.
    fn assert_graphs_replies_equal_snapshot_replies(
        ds: &datagen::Dataset,
        partitions: u32,
        t: Timestamp,
        pick: u64,
    ) {
        use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager};
        let events = ds.events.events();
        let (built, appended) = events.split_at(events.len() - 5);
        let router = ShardedGraphManager::build_in_memory(
            &tgraph::EventList::from_events(built.to_vec()),
            ShardedConfig::default().with_manager(
                GraphManagerConfig::default()
                    .with_snapshot_cache(8)
                    .with_index(
                        deltagraph::DeltaGraphConfig::new(60, 2).with_partitions(partitions),
                    ),
            ),
        )
        .unwrap();
        for ev in appended {
            router.append_event(ev.clone()).unwrap();
        }
        let (start, end) = (ds.start_time(), ds.end_time());
        let last = appended[0].time;
        let opts = ["", "+node:all", "+node:attr0", "+node:all+edge:all"][(pick % 4) as usize];
        let with = if opts.is_empty() {
            String::new()
        } else {
            format!(" WITH \"{opts}\"")
        };
        let tail = router.shard_for(end).unwrap();
        let parsed = tgraph::AttrOptions::parse(opts).unwrap();
        assert!(tail
            .read()
            .index()
            .plan_snapshot(end, &parsed)
            .unwrap()
            .is_none());
        let cached = Timestamp((start.raw() + end.raw()) / 2);
        let times = [t, Timestamp(start.raw() - 5), cached, end, t, last];
        let mut exec = crate::Executor::for_router(router.clone());
        for _ in 0..2 {
            exec.execute_framed(&format!("GET GRAPH AT {}{with}", cached.raw()));
        }
        let line = format!(
            "GET GRAPHS AT {}{with}",
            times.map(|t| t.raw().to_string()).join(",")
        );
        let items: Vec<(Timestamp, Arc<Snapshot>)> = times
            .iter()
            .map(|&t| (t, Arc::new(ds.snapshot_at(t).project_attrs(&parsed))))
            .collect();
        let reference = Response::Graphs { items };
        assert_eq!(
            exec.execute_framed(&line).as_ref(),
            &reference.to_frame(WireFormat::Text)[..],
            "{line}"
        );
        exec.execute_framed("PROTOCOL BINARY");
        assert_eq!(
            exec.execute_framed(&line).as_ref(),
            &reference.to_frame(WireFormat::Binary)[..],
            "{line}"
        );
        let overview = router.cache_overview();
        assert!(
            overview.stats.hits >= 2,
            "the cached time was not hit: {overview:?}"
        );
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
                    let graphs = dg.plan_retrievals(&[t], &opts).unwrap().execute().unwrap();
                    let columns: &ColumnGraph = &graphs[0];
                    let want = ds.snapshot_at(t).project_attrs(&opts);
                    assert_eq!(columns.clone().into_snapshot(), want, "seed={seed} t={t}");
                    let graph = Arc::new(want);
                    for format in [WireFormat::Text, WireFormat::Binary] {
                        let reference = Response::Graph { t, graph: Arc::clone(&graph) };
                        assert_eq!(
                            frame_columns(t, columns, format),
                            reference.to_frame(format),
                            "seed={seed} t={t} {format:?}"
                        );
                    }
                }
                assert_graphs_replies_equal_snapshot_replies(&ds, partitions, t, pick);
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
