//! # histql — a temporal query language for the historical graph store
//!
//! The engine crates answer snapshot queries through Rust calls against
//! [`historygraph::GraphManager`]. This crate puts a small declarative
//! language in front of them — the retrieval API of *Khurana & Deshpande
//! (ICDE 2013)* Section 3.2.1, spelled as text — so clients (the TCP server
//! in the `server` crate, the `histql_shell` example, scripts) can retrieve
//! history without linking the engine.
//!
//! ## The language
//!
//! One statement per line; keywords are case-insensitive; timestamps are
//! signed integers; `<attrs>` is an attribute-options string from Table 1 of
//! the paper (`+node:all-node:salary+edge:name`).
//!
//! ```text
//! GET GRAPH AT <t> [WITH <attrs>]                  single snapshot
//! GET GRAPHS AT <t1>, <t2>, ... [WITH <attrs>]     multipoint (Steiner planner)
//! GET GRAPH BETWEEN <ts> AND <te> [WITH <attrs>]   interval + transient events
//! GET GRAPH MATCHING <texpr> [WITH <attrs>]        Boolean time expression
//! DIFF <t1> <t2> [WITH <attrs>]                    sugar for MATCHING t1 AND NOT t2
//! NODE <key> AT <t>                                one entity at one time
//! HISTORY NODE <key> FROM <t1> TO <t2> [STEP <k>]  entity evolution (multipoint)
//! STATS                                            index statistics
//! STATS CACHE                                      snapshot-cache statistics
//! STATS SHARDS                                     per-shard serving statistics
//! STATS SERVER                                     serving-core counters (server sessions)
//! STATS METRICS                                    the full metric catalog (latency histograms)
//! STATS SLOW                                       drain the slow-query log
//! APPEND NODE <t> <id>                             live updates ...
//! APPEND DELNODE <t> <id>
//! APPEND EDGE <t> <id> <src> <dst> [DIRECTED]
//! APPEND DELEDGE <t> <id> <src> <dst> [DIRECTED]
//! APPEND NODEATTR <t> <id> <name> <value>
//! APPEND EDGEATTR <t> <id> <name> <value>
//! APPEND BATCH <spec> ; <spec> ; ...               atomic multi-event append
//! BIND <key> <node id>                             register an application key
//! RELEASE ALL                                      drop every pool overlay
//! PROTOCOL TEXT|BINARY                             switch the response encoding
//! PING
//! ```
//!
//! Time expressions combine integer time points with `AND`, `OR`, `NOT`,
//! and parentheses: `GET GRAPH MATCHING (3 OR 6) AND NOT 9`.
//!
//! ## Pieces
//!
//! * [`parse`] — text to [`Query`] (hand-written lexer + recursive descent),
//! * [`Query`]'s `Display` — the canonical text form; parse∘display = id,
//! * [`Executor`] — runs queries against a [`historygraph::ShardedGraphManager`]
//!   router (one shard or many), computing snapshots under the owning
//!   shard's read lock and overlaying them through a per-session pool
//!   handle set; point retrievals (`GET GRAPH AT`) route through the owning
//!   shard's point cache, so concurrent sessions asking for the same
//!   `(t, opts)` share one reference-counted overlay,
//! * [`Response`] — deterministic serialization of results, as text lines
//!   or binary codec frames ([`Frame`], after `PROTOCOL BINARY`); hot
//!   point-query replies are served as pre-framed bytes from the point
//!   cache's byte slots via [`Executor::execute_framed`].
//!
//! ```
//! use historygraph::{ShardedConfig, ShardedGraphManager};
//! use histql::{parse, Executor};
//!
//! let trace = datagen::toy_trace();
//! let router = ShardedGraphManager::build_in_memory(&trace.events, ShardedConfig::default()).unwrap();
//! let mut exec = Executor::for_router(router);
//! let response = exec.execute(&parse("GET GRAPH AT 6 WITH +node:name").unwrap()).unwrap();
//! assert!(response.to_text().starts_with("OK GRAPH t=6"));
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod flight;
pub mod lexer;
pub mod obs;
pub mod parser;
pub mod wire;

pub use ast::{AppendSpec, Query, TimeExpr};
pub use error::{QlError, QlResult};
pub use exec::{Executor, Rendered, Reply, ServerStats, MAX_HISTORY_SAMPLES};
pub use flight::{FlightStats, FlightTable};
pub use historygraph::WireFormat;
pub use obs::{metrics_report, MetricsHub, VerbKind};
pub use parser::parse;
pub use wire::{
    frame_error, render_prometheus, Frame, HistogramStats, HistorySample, MetricEntry, MetricValue,
    Response, ServerCounters, SlowQueryInfo, BINARY_FRAME_VERSION, MAX_FRAME_BYTES,
};

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    /// Satellite requirement: table-driven success round-trips. Each input
    /// must parse, display canonically, and reparse to the same AST.
    #[test]
    fn parse_display_reparse_roundtrips() {
        let cases: &[(&str, &str)] = &[
            // (input, canonical display)
            ("get graph at 6", "GET GRAPH AT 6"),
            ("GET GRAPH AT -3", "GET GRAPH AT -3"),
            (
                "GET GRAPH AT 6 WITH +node:all+edge:all",
                "GET GRAPH AT 6 WITH +node:all+edge:all",
            ),
            (
                "get graph at 7 with +node:all-node:salary+edge:name",
                "GET GRAPH AT 7 WITH +node:all-node:salary+edge:name",
            ),
            ("GET GRAPHS AT 3,9", "GET GRAPHS AT 3, 9"),
            (
                "get graphs at 1, 2 , 3 with +node:name",
                "GET GRAPHS AT 1, 2, 3 WITH +node:name",
            ),
            ("GET GRAPH BETWEEN 5 AND 10", "GET GRAPH BETWEEN 5 AND 10"),
            (
                "get graph between -2 and 4 with +edge:all",
                "GET GRAPH BETWEEN -2 AND 4 WITH +edge:all",
            ),
            (
                "GET GRAPH MATCHING 6 AND NOT 9",
                "GET GRAPH MATCHING 6 AND NOT 9",
            ),
            (
                "get graph matching (3 or 6) and not 9",
                "GET GRAPH MATCHING (3 OR 6) AND NOT 9",
            ),
            (
                "GET GRAPH MATCHING NOT (1 OR 2)",
                "GET GRAPH MATCHING NOT (1 OR 2)",
            ),
            ("diff 6 9", "DIFF 6 9"),
            ("DIFF 6 9 WITH +node:all", "DIFF 6 9 WITH +node:all"),
            ("node alice at 6", "NODE \"alice\" AT 6"),
            ("NODE \"bob smith\" AT 2", "NODE \"bob smith\" AT 2"),
            (
                "history node alice from 0 to 12",
                "HISTORY NODE \"alice\" FROM 0 TO 12",
            ),
            (
                "HISTORY NODE alice FROM 0 TO 12 STEP 3",
                "HISTORY NODE \"alice\" FROM 0 TO 12 STEP 3",
            ),
            ("stats", "STATS"),
            ("stats cache", "STATS CACHE"),
            ("STATS  CACHE", "STATS CACHE"),
            ("stats shards", "STATS SHARDS"),
            ("stats server", "STATS SERVER"),
            ("stats metrics", "STATS METRICS"),
            ("stats slow", "STATS SLOW"),
            ("stats storage", "STATS STORAGE"),
            ("stats health", "STATS HEALTH"),
            ("append node 20 777", "APPEND NODE 20 777"),
            ("APPEND DELNODE 21 5", "APPEND DELNODE 21 5"),
            ("append edge 21 500 777 1", "APPEND EDGE 21 500 777 1"),
            (
                "APPEND EDGE 21 500 777 1 DIRECTED",
                "APPEND EDGE 21 500 777 1 DIRECTED",
            ),
            ("APPEND DELEDGE 22 500 777 1", "APPEND DELEDGE 22 500 777 1"),
            (
                "append nodeattr 23 1 name \"alicia\"",
                "APPEND NODEATTR 23 1 \"name\" \"alicia\"",
            ),
            (
                "APPEND NODEATTR 23 1 age 41",
                "APPEND NODEATTR 23 1 \"age\" 41",
            ),
            (
                "APPEND EDGEATTR 24 500 weight 1.5",
                "APPEND EDGEATTR 24 500 \"weight\" 1.5",
            ),
            (
                "APPEND NODEATTR 25 1 active TRUE",
                "APPEND NODEATTR 25 1 \"active\" TRUE",
            ),
            (
                "append batch node 20 777",
                "APPEND BATCH NODE 20 777",
            ),
            (
                "append batch node 20 777 ; nodeattr 20 777 name \"x\" ; edge 21 500 777 1 directed",
                "APPEND BATCH NODE 20 777 ; NODEATTR 20 777 \"name\" \"x\" ; EDGE 21 500 777 1 DIRECTED",
            ),
            (
                "APPEND BATCH DELEDGE 30 500 777 1 ; DELNODE 31 777",
                "APPEND BATCH DELEDGE 30 500 777 1 ; DELNODE 31 777",
            ),
            ("bind alice 1", "BIND \"alice\" 1"),
            ("RELEASE ALL", "RELEASE ALL"),
            ("ping", "PING"),
        ];
        for (input, canonical) in cases {
            let q = parse(input).unwrap_or_else(|e| panic!("parse {input:?}: {e}"));
            assert_eq!(&q.to_string(), canonical, "display of {input:?}");
            let q2 = parse(canonical)
                .unwrap_or_else(|e| panic!("reparse of canonical {canonical:?}: {e}"));
            assert_eq!(q, q2, "round-trip of {input:?}");
        }
    }

    /// Satellite requirement: table-driven error cases.
    #[test]
    fn malformed_queries_are_rejected_with_positions() {
        let cases: &[(&str, &str)] = &[
            // (input, substring the error must contain)
            ("", "a query verb"),
            ("FROB 1", "unknown verb"),
            ("GET 6", "expected GRAPH or GRAPHS"),
            ("GET GRAPH 6", "expected AT, BETWEEN, or MATCHING"),
            ("GET GRAPH AT", "expected a timestamp"),
            ("GET GRAPH AT abc", "expected a timestamp"),
            ("GET GRAPH AT 6.5", "expected a timestamp"),
            ("GET GRAPH AT 6 WITH", "attribute-options string"),
            ("GET GRAPH AT 6 WITH bogus", "bad attribute options"),
            ("GET GRAPH AT 6 WITH +wat:all", "bad attribute options"),
            ("GET GRAPH AT 6 extra", "unexpected trailing"),
            ("GET GRAPHS AT 3,", "expected a timestamp"),
            ("GET GRAPH BETWEEN 5 10", "expected AND"),
            ("GET GRAPH MATCHING", "expected a timestamp"),
            ("GET GRAPH MATCHING (1 AND 2", "expected ')'"),
            ("GET GRAPH MATCHING NOT", "expected a timestamp"),
            ("DIFF 6", "expected a timestamp"),
            ("NODE alice", "expected AT"),
            ("HISTORY alice FROM 0 TO 2", "expected NODE"),
            (
                "HISTORY NODE alice FROM 0 TO 2 STEP 0",
                "STEP must be positive",
            ),
            (
                "HISTORY NODE alice FROM 0 TO 2 STEP -4",
                "STEP must be positive",
            ),
            ("APPEND WIDGET 1 2", "unknown APPEND kind"),
            ("APPEND BATCH", "an event kind"),
            ("APPEND BATCH NODE 1 2 ;", "an event kind"),
            ("APPEND BATCH NODE 1 2 NODE 2 3", "unexpected trailing"),
            ("APPEND NODE x 2", "expected a timestamp"),
            ("APPEND NODE 1 -2", "expected a non-negative id"),
            ("APPEND NODEATTR 1 2 k", "expected a value literal"),
            ("BIND alice", "expected a non-negative id"),
            ("RELEASE", "expected ALL"),
            ("NODE \"unterminated AT 3", "unterminated string"),
        ];
        for (input, needle) in cases {
            let err = parse(input).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "error for {input:?} was {msg:?}, expected to contain {needle:?}"
            );
        }
    }

    #[test]
    fn matching_and_diff_lower_to_the_same_expression() {
        let m = parse("GET GRAPH MATCHING 6 AND NOT 9").unwrap();
        let Query::GetGraphMatching { expr, .. } = m else {
            panic!("wrong variant")
        };
        let tex = expr.to_time_expression().unwrap();
        assert_eq!(tex, tgraph::TimeExpression::diff(6i64, 9i64));
        assert_eq!(expr.anchor(), Some(tgraph::Timestamp(9)));
    }

    #[test]
    fn repeated_time_points_share_one_variable() {
        let q = parse("GET GRAPH MATCHING 3 AND (3 OR 5)").unwrap();
        let Query::GetGraphMatching { expr, .. } = q else {
            panic!("wrong variant")
        };
        let tex = expr.to_time_expression().unwrap();
        assert_eq!(tex.times, vec![tgraph::Timestamp(3), tgraph::Timestamp(5)]);
    }
}
