//! The `histql` abstract syntax tree.
//!
//! [`Query`] is the parsed form of one protocol line. Its [`fmt::Display`]
//! implementation renders the canonical text form, and the parser guarantees
//! `parse(q.to_string()) == q` (covered by round-trip tests).

use std::fmt;

use historygraph::WireFormat;
use tgraph::{AttrValue, BoolExpr, Event, Snapshot, TimeExpression, Timestamp};

use crate::error::{QlError, QlResult};

/// One parsed `histql` statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// `GET GRAPH AT <t> [WITH <attr_options>]` — single snapshot.
    GetGraphAt {
        /// The queried time point.
        t: Timestamp,
        /// Raw attribute-options string (Table 1 syntax), `""` for none.
        attrs: String,
    },
    /// `GET GRAPHS AT <t1>, <t2>, ... [WITH ...]` — multipoint retrieval.
    GetGraphsAt {
        /// The queried time points.
        times: Vec<Timestamp>,
        /// Raw attribute-options string.
        attrs: String,
    },
    /// `GET GRAPH BETWEEN <ts> AND <te> [WITH ...]` — interval + transients.
    GetGraphBetween {
        /// Start of the interval (inclusive).
        start: Timestamp,
        /// End of the interval (exclusive).
        end: Timestamp,
        /// Raw attribute-options string.
        attrs: String,
    },
    /// `GET GRAPH MATCHING <time expr> [WITH ...]` — Boolean time expression.
    GetGraphMatching {
        /// The Boolean expression over time points.
        expr: TimeExpr,
        /// Raw attribute-options string.
        attrs: String,
    },
    /// `DIFF <t1> <t2> [WITH ...]` — sugar for `MATCHING t1 AND NOT t2`.
    Diff {
        /// Elements valid here...
        a: Timestamp,
        /// ...but not here.
        b: Timestamp,
        /// Raw attribute-options string.
        attrs: String,
    },
    /// `NODE <key> AT <t>` — one entity's state at one time.
    NodeAt {
        /// Application-level key (resolved through the lookup table).
        key: String,
        /// The queried time point.
        t: Timestamp,
    },
    /// `HISTORY NODE <key> FROM <t1> TO <t2> [STEP <k>]` — entity evolution.
    NodeHistory {
        /// Application-level key.
        key: String,
        /// First sampled time (inclusive).
        from: Timestamp,
        /// Last sampled time (inclusive).
        to: Timestamp,
        /// Sampling stride; defaults to an 8-sample spread.
        step: Option<i64>,
    },
    /// `STATS` — index statistics (summed across shards).
    Stats,
    /// `STATS CACHE` — snapshot-cache statistics and per-entry refcounts,
    /// aggregated across shards.
    CacheStats,
    /// `STATS SHARDS` — per-shard serving statistics: time bounds, event
    /// counts, overlay counts, and the point cache's counters.
    ShardStats,
    /// `STATS SERVER` — serving-core counters: live connections, accept and
    /// reject totals, worker-pool queue depth, and single-flight coalescing
    /// counters. Only answerable inside a server session.
    ServerStats,
    /// `STATS METRICS` — the full metric catalog: per-verb and per-phase
    /// latency histograms (count/p50/p90/p99/max), path and cache counters,
    /// single-flight totals, and per-shard skew counters.
    MetricsStats,
    /// `STATS SLOW` — drains the slow-query ring buffer (requests over the
    /// server's `--slow-query-us` threshold).
    SlowStats,
    /// `STATS STORAGE` — durable-store counters: WAL bytes/appends/fsyncs,
    /// sealed segment count and bytes, torn-tail truncations, and the last
    /// recovery's duration (all zero/`none` for in-memory deployments).
    StorageStats,
    /// `STATS HEALTH` — per-shard health (`ready`/`cold`/`quarantined`/
    /// `degraded`), storage degradation, and retry counters. Computed
    /// without hydrating any shard, so it stays cheap during incidents.
    HealthStats,
    /// `APPEND ...` — one live update event.
    Append(AppendSpec),
    /// `APPEND BATCH <spec> ; <spec> ; ...` — a group of update events
    /// applied atomically: validated (chronology and §3.1 well-formedness)
    /// as a unit, visible under a single append-epoch bump, one cache
    /// invalidation. Readers at any `t` never observe a partial batch.
    AppendBatch(Vec<AppendSpec>),
    /// `BIND <key> <node id>` — register an application key.
    Bind {
        /// Application-level key.
        key: String,
        /// Internal node id the key maps to.
        node: u64,
    },
    /// `RELEASE ALL` — release every historical overlay in the pool.
    ReleaseAll,
    /// `PROTOCOL TEXT|BINARY` — switch this session's response encoding.
    Protocol(WireFormat),
    /// `PING` — liveness check.
    Ping,
}

/// The canonical keyword of a [`WireFormat`] in `PROTOCOL` syntax.
pub(crate) fn format_keyword(format: WireFormat) -> &'static str {
    match format {
        WireFormat::Text => "TEXT",
        WireFormat::Binary => "BINARY",
    }
}

/// A Boolean expression over time points, as written in a query
/// (`6 AND NOT 9`, `(1 OR 2) AND 3`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimeExpr {
    /// Membership at one time point.
    At(Timestamp),
    /// Negation.
    Not(Box<TimeExpr>),
    /// Conjunction.
    And(Box<TimeExpr>, Box<TimeExpr>),
    /// Disjunction.
    Or(Box<TimeExpr>, Box<TimeExpr>),
}

impl TimeExpr {
    /// Lowers the surface expression to the engine's [`TimeExpression`]:
    /// distinct time points become variables (first occurrence order), and
    /// the Boolean shape maps one-to-one onto [`BoolExpr`].
    ///
    /// Fails if the expression references no time points (mirroring
    /// `GraphManager::get_hist_graph_expr`'s validation).
    pub fn to_time_expression(&self) -> QlResult<TimeExpression> {
        let mut times: Vec<Timestamp> = Vec::new();
        let expr = self.lower(&mut times);
        if times.is_empty() {
            return Err(QlError::Exec(
                "time expression references no time points".into(),
            ));
        }
        TimeExpression::new(times, expr).map_err(QlError::from)
    }

    fn lower(&self, times: &mut Vec<Timestamp>) -> BoolExpr {
        match self {
            TimeExpr::At(t) => {
                let i = times.iter().position(|x| x == t).unwrap_or_else(|| {
                    times.push(*t);
                    times.len() - 1
                });
                BoolExpr::var(i)
            }
            TimeExpr::Not(e) => BoolExpr::not(e.lower(times)),
            TimeExpr::And(a, b) => BoolExpr::and(a.lower(times), b.lower(times)),
            TimeExpr::Or(a, b) => BoolExpr::or(a.lower(times), b.lower(times)),
        }
    }

    /// The last (rightmost first-occurrence) time point, used as the overlay
    /// anchor, if any.
    pub fn anchor(&self) -> Option<Timestamp> {
        let mut times = Vec::new();
        self.lower(&mut times);
        times.last().copied()
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        // Precedence: OR = 1, AND = 2, NOT = 3, atom = 4.
        let prec = match self {
            TimeExpr::Or(..) => 1,
            TimeExpr::And(..) => 2,
            TimeExpr::Not(..) => 3,
            TimeExpr::At(..) => 4,
        };
        let parens = prec < parent;
        if parens {
            f.write_str("(")?;
        }
        match self {
            TimeExpr::At(t) => write!(f, "{}", t.raw())?,
            TimeExpr::Not(e) => {
                f.write_str("NOT ")?;
                e.fmt_prec(f, 3)?;
            }
            TimeExpr::And(a, b) => {
                a.fmt_prec(f, 2)?;
                f.write_str(" AND ")?;
                // Right operand needs parens when it is itself AND/OR, so the
                // left-associative reparse rebuilds the same tree.
                b.fmt_prec(f, 3)?;
            }
            TimeExpr::Or(a, b) => {
                a.fmt_prec(f, 1)?;
                f.write_str(" OR ")?;
                b.fmt_prec(f, 2)?;
            }
        }
        if parens {
            f.write_str(")")?;
        }
        Ok(())
    }
}

impl fmt::Display for TimeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// The update kinds `APPEND` accepts, mirroring [`tgraph::EventKind`] minus
/// transients (which only arise from historical traces).
#[derive(Clone, Debug, PartialEq)]
pub enum AppendSpec {
    /// `APPEND NODE <t> <node>`.
    Node {
        /// Event time.
        t: Timestamp,
        /// New node id.
        node: u64,
    },
    /// `APPEND DELNODE <t> <node>`.
    DelNode {
        /// Event time.
        t: Timestamp,
        /// Deleted node id.
        node: u64,
    },
    /// `APPEND EDGE <t> <edge> <src> <dst> [DIRECTED]`.
    Edge {
        /// Event time.
        t: Timestamp,
        /// New edge id.
        edge: u64,
        /// Source node id.
        src: u64,
        /// Destination node id.
        dst: u64,
        /// Whether the edge is directed.
        directed: bool,
    },
    /// `APPEND DELEDGE <t> <edge> <src> <dst> [DIRECTED]`.
    DelEdge {
        /// Event time.
        t: Timestamp,
        /// Deleted edge id.
        edge: u64,
        /// Source node id.
        src: u64,
        /// Destination node id.
        dst: u64,
        /// Whether the edge was directed.
        directed: bool,
    },
    /// `APPEND NODEATTR <t> <node> <name> <value>`.
    NodeAttr {
        /// Event time.
        t: Timestamp,
        /// Target node id.
        node: u64,
        /// Attribute name.
        name: String,
        /// New attribute value.
        value: AttrValue,
    },
    /// `APPEND EDGEATTR <t> <edge> <name> <value>`.
    EdgeAttr {
        /// Event time.
        t: Timestamp,
        /// Target edge id.
        edge: u64,
        /// Attribute name.
        name: String,
        /// New attribute value.
        value: AttrValue,
    },
}

impl AppendSpec {
    /// Builds the bidirectional [`Event`]. Attribute events need the *old*
    /// value for backward application, which is read from `current` (the
    /// current graph at append time).
    pub fn to_event(&self, current: &Snapshot) -> Event {
        match self {
            AppendSpec::Node { t, node } => Event::add_node(*t, *node),
            AppendSpec::DelNode { t, node } => Event::delete_node(*t, *node),
            AppendSpec::Edge {
                t,
                edge,
                src,
                dst,
                directed,
            } => {
                let mut ev = Event::add_edge(*t, *edge, *src, *dst);
                if let tgraph::EventKind::AddEdge { directed: d, .. } = &mut ev.kind {
                    *d = *directed;
                }
                ev
            }
            AppendSpec::DelEdge {
                t,
                edge,
                src,
                dst,
                directed,
            } => {
                let mut ev = Event::delete_edge(*t, *edge, *src, *dst);
                if let tgraph::EventKind::DeleteEdge { directed: d, .. } = &mut ev.kind {
                    *d = *directed;
                }
                ev
            }
            AppendSpec::NodeAttr {
                t,
                node,
                name,
                value,
            } => {
                let old = current.node_attr(tgraph::NodeId(*node), name).cloned();
                Event::set_node_attr(*t, *node, name.clone(), old, Some(value.clone()))
            }
            AppendSpec::EdgeAttr {
                t,
                edge,
                name,
                value,
            } => {
                let old = current.edge_attr(tgraph::EdgeId(*edge), name).cloned();
                Event::set_edge_attr(*t, *edge, name.clone(), old, Some(value.clone()))
            }
        }
    }

    /// The event time.
    pub fn time(&self) -> Timestamp {
        match self {
            AppendSpec::Node { t, .. }
            | AppendSpec::DelNode { t, .. }
            | AppendSpec::Edge { t, .. }
            | AppendSpec::DelEdge { t, .. }
            | AppendSpec::NodeAttr { t, .. }
            | AppendSpec::EdgeAttr { t, .. } => *t,
        }
    }
}

/// Quotes a key or attribute name for the canonical text form.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` quoted and escaped, as [`quote`] renders it.
pub(crate) fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` in decimal, as `{v}` formats it.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Renders an [`AttrValue`] literal in query syntax.
pub(crate) fn fmt_value(v: &AttrValue) -> String {
    let mut out = String::new();
    push_value(&mut out, v);
    out
}

/// Appends an [`AttrValue`] literal, as [`fmt_value`] renders it.
pub(crate) fn push_value(out: &mut String, v: &AttrValue) {
    use std::fmt::Write;
    match v {
        AttrValue::Str(s) => push_quoted(out, s),
        AttrValue::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            push_u64(out, i.unsigned_abs());
        }
        AttrValue::Float(x) => write!(out, "{x:?}").expect("writing to a String"),
        AttrValue::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
    }
}

fn fmt_with(attrs: &str) -> String {
    if attrs.is_empty() {
        String::new()
    } else {
        format!(" WITH {attrs}")
    }
}

impl fmt::Display for AppendSpec {
    /// Renders the spec in query syntax *without* the leading `APPEND `
    /// keyword, so the same rendering serves both `APPEND <spec>` and the
    /// `;`-separated spec list of `APPEND BATCH`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendSpec::Node { t, node } => write!(f, "NODE {} {node}", t.raw()),
            AppendSpec::DelNode { t, node } => write!(f, "DELNODE {} {node}", t.raw()),
            AppendSpec::Edge {
                t,
                edge,
                src,
                dst,
                directed,
            } => write!(
                f,
                "EDGE {} {edge} {src} {dst}{}",
                t.raw(),
                if *directed { " DIRECTED" } else { "" }
            ),
            AppendSpec::DelEdge {
                t,
                edge,
                src,
                dst,
                directed,
            } => write!(
                f,
                "DELEDGE {} {edge} {src} {dst}{}",
                t.raw(),
                if *directed { " DIRECTED" } else { "" }
            ),
            AppendSpec::NodeAttr {
                t,
                node,
                name,
                value,
            } => write!(
                f,
                "NODEATTR {} {node} {} {}",
                t.raw(),
                quote(name),
                fmt_value(value)
            ),
            AppendSpec::EdgeAttr {
                t,
                edge,
                name,
                value,
            } => write!(
                f,
                "EDGEATTR {} {edge} {} {}",
                t.raw(),
                quote(name),
                fmt_value(value)
            ),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::GetGraphAt { t, attrs } => {
                write!(f, "GET GRAPH AT {}{}", t.raw(), fmt_with(attrs))
            }
            Query::GetGraphsAt { times, attrs } => {
                let list: Vec<String> = times.iter().map(|t| t.raw().to_string()).collect();
                write!(f, "GET GRAPHS AT {}{}", list.join(", "), fmt_with(attrs))
            }
            Query::GetGraphBetween { start, end, attrs } => write!(
                f,
                "GET GRAPH BETWEEN {} AND {}{}",
                start.raw(),
                end.raw(),
                fmt_with(attrs)
            ),
            Query::GetGraphMatching { expr, attrs } => {
                write!(f, "GET GRAPH MATCHING {expr}{}", fmt_with(attrs))
            }
            Query::Diff { a, b, attrs } => {
                write!(f, "DIFF {} {}{}", a.raw(), b.raw(), fmt_with(attrs))
            }
            Query::NodeAt { key, t } => write!(f, "NODE {} AT {}", quote(key), t.raw()),
            Query::NodeHistory {
                key,
                from,
                to,
                step,
            } => {
                write!(
                    f,
                    "HISTORY NODE {} FROM {} TO {}",
                    quote(key),
                    from.raw(),
                    to.raw()
                )?;
                if let Some(step) = step {
                    write!(f, " STEP {step}")?;
                }
                Ok(())
            }
            Query::Stats => f.write_str("STATS"),
            Query::CacheStats => f.write_str("STATS CACHE"),
            Query::ShardStats => f.write_str("STATS SHARDS"),
            Query::ServerStats => f.write_str("STATS SERVER"),
            Query::MetricsStats => f.write_str("STATS METRICS"),
            Query::SlowStats => f.write_str("STATS SLOW"),
            Query::StorageStats => f.write_str("STATS STORAGE"),
            Query::HealthStats => f.write_str("STATS HEALTH"),
            Query::Append(spec) => write!(f, "APPEND {spec}"),
            Query::AppendBatch(specs) => {
                f.write_str("APPEND BATCH ")?;
                for (i, spec) in specs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ; ")?;
                    }
                    write!(f, "{spec}")?;
                }
                Ok(())
            }
            Query::Bind { key, node } => write!(f, "BIND {} {node}", quote(key)),
            Query::ReleaseAll => f.write_str("RELEASE ALL"),
            Query::Protocol(mode) => write!(f, "PROTOCOL {}", format_keyword(*mode)),
            Query::Ping => f.write_str("PING"),
        }
    }
}
