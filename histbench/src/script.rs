//! Seeded request scripts: the only thing the server ever sees.
//!
//! A script is a fixed list of operations a connection cycles through, so
//! the traffic mix is fixed by count, not by time. Each request names what
//! the oracle must say about its reply.

use tgraph::{Event, Snapshot};

use crate::dataset::{OracleQuery, BASE_END, END};
use crate::spec::Workload;
use crate::stats::Fnv1a;

/// Every script sends `RELEASE ALL` after this many requests; session
/// overlays otherwise grow without bound.
pub const RELEASE_EVERY: usize = 32;
/// Attribute options of every point read.
pub const POINT_ATTRS: &str = "+node:all";
/// `HISTORY ... STEP` stride and sample count.
const HISTORY_STEP: i64 = 20_000;
const HISTORY_SAMPLES: i64 = 4;
/// Application keys bound for `NODE`/`HISTORY` requests.
pub const BOUND_KEYS: usize = 16;

/// Request classes; client latency is reported per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Point,
    Multipoint,
    Between,
    Diff,
    Node,
    History,
    Append,
    AppendBatch,
    Release,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::Point,
        Class::Multipoint,
        Class::Between,
        Class::Diff,
        Class::Node,
        Class::History,
        Class::Append,
        Class::AppendBatch,
        Class::Release,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Multipoint => "multipoint",
            Class::Between => "between",
            Class::Diff => "diff",
            Class::Node => "node",
            Class::History => "history",
            Class::Append => "append",
            Class::AppendBatch => "append_batch",
            Class::Release => "release",
        }
    }
}

/// What the oracle is asked about a reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Graph { t: i64 },
    Graphs { times: Vec<i64> },
    Interval { a: i64, b: i64 },
    Diff { a: i64, b: i64 },
    Node { key: usize, t: i64 },
    History { key: usize, times: Vec<i64> },
    Released,
}

/// One scripted operation. The writer's slots depend on what it has
/// appended so far, so they are rendered at send time by [`Writer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Fixed {
        class: Class,
        line: String,
        expect: Expect,
    },
    WriterTailRead,
    WriterAppendNode,
    WriterAppendBatch,
}

/// One connection's script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    pub ops: Vec<Op>,
    pub binary: bool,
}

impl Script {
    /// FNV-1a over the request lines (writer slots by their tag).
    pub fn fnv(&self) -> u64 {
        let mut h = Fnv1a::new();
        for op in &self.ops {
            match op {
                Op::Fixed { line, .. } => h.write(line.as_bytes()),
                Op::WriterTailRead => h.write(b"<writer tail read>"),
                Op::WriterAppendNode => h.write(b"<writer append node>"),
                Op::WriterAppendBatch => h.write(b"<writer append batch>"),
            }
            h.write(b"\n");
        }
        h.finish()
    }

    /// Adds everything this script's replies are checked against.
    pub fn collect(&self, keys: &[u64], query: &mut OracleQuery) {
        for op in &self.ops {
            let Op::Fixed { expect, .. } = op else {
                continue;
            };
            match expect {
                Expect::Graph { t } => {
                    query.points.insert(*t);
                }
                Expect::Graphs { times } => query.points.extend(times),
                Expect::Interval { a, b } => {
                    query.intervals.insert((*a, *b));
                }
                Expect::Diff { a, b } => {
                    query.diffs.insert((*a, *b));
                }
                Expect::Node { key, t } => {
                    query.nodes.insert((*t, keys[*key]));
                }
                Expect::History { key, times } => {
                    query.nodes.extend(times.iter().map(|&t| (t, keys[*key])));
                }
                Expect::Released => {}
            }
        }
    }
}

/// splitmix64: the scripts' only randomness, seeded per connection.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

fn point(t: i64) -> Op {
    Op::Fixed {
        class: Class::Point,
        line: format!("GET GRAPH AT {t} WITH {POINT_ATTRS}"),
        expect: Expect::Graph { t },
    }
}

fn release() -> Op {
    Op::Fixed {
        class: Class::Release,
        line: "RELEASE ALL".into(),
        expect: Expect::Released,
    }
}

/// Inserts a `RELEASE ALL` after every [`RELEASE_EVERY`] requests.
fn with_releases(requests: Vec<Op>) -> Vec<Op> {
    let mut ops = Vec::with_capacity(requests.len() + requests.len() / RELEASE_EVERY + 1);
    for (i, op) in requests.into_iter().enumerate() {
        ops.push(op);
        if (i + 1) % RELEASE_EVERY == 0 {
            ops.push(release());
        }
    }
    if !matches!(
        ops.last(),
        Some(Op::Fixed {
            class: Class::Release,
            ..
        })
    ) {
        ops.push(release());
    }
    ops
}

/// The shape of the run a script is generated for.
pub struct ScriptParams<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub conn: usize,
    pub conns: usize,
    pub quick: bool,
    /// `[lower, upper)` of every shard, in time order, clipped to the
    /// generated history.
    pub shards: &'a [(i64, i64)],
}

/// Distinct cold timestamps per connection: sixteen times the snapshot
/// cache, so an LRU of that size hits ~never.
pub fn cold_points(quick: bool) -> usize {
    if quick {
        256
    } else {
        2048
    }
}

/// The four timestamps every `hot_point` connection round-robins: fixed
/// fractions of the time axis in the growing phase, where a reply is tens
/// of kilobytes rather than the megabyte of the final graph.
pub fn hot_times() -> [i64; 4] {
    [0.15, 0.30, 0.45, 0.60].map(|f| (f * BASE_END as f64) as i64)
}

pub fn generate(p: &ScriptParams<'_>) -> Script {
    let mut rng = Rng::new(
        p.seed
            .wrapping_mul(0x1000_0000_01b3)
            .wrapping_add(p.conn as u64 * 7919 + p.workload as u64),
    );
    let start = p.shards[0].0;
    match p.workload {
        Workload::ColdPoint => {
            let mut seen = std::collections::BTreeSet::new();
            let mut requests = Vec::new();
            while requests.len() < cold_points(p.quick) {
                let t = rng.range(start, END + 1);
                if seen.insert(t) {
                    requests.push(point(t));
                }
            }
            Script {
                ops: with_releases(requests),
                binary: true,
            }
        }
        Workload::HotPoint => {
            let times = hot_times();
            let requests = (0..RELEASE_EVERY)
                .map(|i| point(times[(i + p.conn) % times.len()]))
                .collect();
            Script {
                ops: with_releases(requests),
                binary: false,
            }
        }
        Workload::MixedRw => Script {
            ops: with_releases(mixed_cycles(p, &mut rng)),
            binary: false,
        },
        Workload::RestartScan => {
            let ops = p
                .shards
                .iter()
                .enumerate()
                .filter(|(s, _)| s % p.conns == p.conn)
                .map(|(_, &(lo, hi))| point(rng.range(lo, hi)))
                .collect();
            Script { ops, binary: true }
        }
    }
}

/// `mixed_rw`: every connection repeats one 16-op cycle — 4 tail point
/// reads, 3 historical point reads, 2 multipoint (k=4), 1 interval, 1 diff,
/// 1 entity read, 1 entity history and 3 write slots — with fresh seeded
/// times in each repetition. The script holds enough repetitions that the
/// historical reads cycle through several times more distinct points than
/// the shards' snapshot caches hold, so they stay cold; the tail reads of
/// the non-writers stay hot. Half the requests then sit well inside the
/// slow mode, and the median latency is not balanced on the edge between
/// cached and computed replies.
fn mixed_cycles(p: &ScriptParams<'_>, rng: &mut Rng) -> Vec<Op> {
    let start = p.shards[0].0;
    let writer = p.conn == 0;
    let cycles = if p.quick { 16 } else { 256 };
    // Readers answer tail reads (and fill their write slots) at the end of
    // the generated history: inside the tail shard, never invalidated by
    // the writer's later events.
    let tail = || {
        if writer {
            Op::WriterTailRead
        } else {
            point(END)
        }
    };
    let write = |batch: bool| match (writer, batch) {
        (true, false) => Op::WriterAppendNode,
        (true, true) => Op::WriterAppendBatch,
        (false, _) => point(END),
    };
    let hist = |rng: &mut Rng| point(rng.range(start, END + 1));
    // Two points in each of two neighbouring shards (all four in the only
    // shard when there is one).
    let multipoint = |rng: &mut Rng| {
        let first = rng.range(0, p.shards.len().max(2) as i64 - 1) as usize;
        let mut times = Vec::with_capacity(4);
        for s in [first, (first + 1).min(p.shards.len() - 1)] {
            let (lo, hi) = p.shards[s];
            times.push(rng.range(lo, hi));
            times.push(rng.range(lo, hi));
        }
        let list: Vec<String> = times.iter().map(i64::to_string).collect();
        Op::Fixed {
            class: Class::Multipoint,
            line: format!("GET GRAPHS AT {}", list.join(", ")),
            expect: Expect::Graphs { times },
        }
    };
    // A window of 1/64 of one shard's range, so it never spans shards.
    let window = |rng: &mut Rng| {
        let (lo, hi) = p.shards[rng.range(0, p.shards.len() as i64) as usize];
        let width = ((hi - lo) / 64).max(2);
        let a = rng.range(lo, hi - width);
        (a, a + width)
    };
    let mut ops = Vec::with_capacity(cycles * 16);
    for _ in 0..cycles {
        let (ba, bb) = window(rng);
        let (da, db) = window(rng);
        let key = rng.range(0, BOUND_KEYS as i64) as usize;
        let node_t = rng.range(start, END + 1);
        let hkey = rng.range(0, BOUND_KEYS as i64) as usize;
        let from = rng.range(start, END - HISTORY_STEP * (HISTORY_SAMPLES - 1));
        let to = from + HISTORY_STEP * (HISTORY_SAMPLES - 1);
        ops.extend([
            tail(),
            hist(rng),
            write(false),
            multipoint(rng),
            tail(),
            Op::Fixed {
                class: Class::Between,
                line: format!("GET GRAPH BETWEEN {ba} AND {bb}"),
                expect: Expect::Interval { a: ba, b: bb },
            },
            hist(rng),
            write(false),
            Op::Fixed {
                class: Class::Node,
                line: format!("NODE k{key} AT {node_t}"),
                expect: Expect::Node { key, t: node_t },
            },
            tail(),
            Op::Fixed {
                class: Class::Diff,
                line: format!("DIFF {da} {db}"),
                expect: Expect::Diff { a: da, b: db },
            },
            multipoint(rng),
            hist(rng),
            write(true),
            Op::Fixed {
                class: Class::History,
                line: format!("HISTORY NODE k{hkey} FROM {from} TO {to} STEP {HISTORY_STEP}"),
                expect: Expect::History {
                    key: hkey,
                    times: (0..HISTORY_SAMPLES)
                        .map(|i| from + i * HISTORY_STEP)
                        .collect(),
                },
            },
            tail(),
        ]);
    }
    ops
}

/// The nodes bound to keys `k0..k15`: every `len/16`-th node id of the final
/// graph, so keys cover early and late arrivals.
pub fn bound_nodes(final_graph: &Snapshot) -> Vec<u64> {
    let mut ids: Vec<u64> = final_graph.node_ids().map(|n| n.raw()).collect();
    ids.sort_unstable();
    (0..BOUND_KEYS)
        .map(|i| ids[i * ids.len() / BOUND_KEYS])
        .collect()
}

/// The single writer of `mixed_rw` (connection 0): appends are
/// chronological, so one writer keeps `failed` about the server and not
/// about client races. It reads its own writes at its last acknowledged
/// append time, which the oracle can answer exactly.
pub struct Writer {
    /// Last acknowledged append time.
    pub t: i64,
    next_id: u64,
    nodes: usize,
    edges: usize,
    /// Acknowledged events, for the post-window full-reply check.
    pub acked: Vec<Event>,
    staged: Vec<Event>,
}

/// Events in one `APPEND BATCH`: five nodes and three edges among them.
pub const BATCH_EVENTS: usize = 8;

impl Writer {
    pub fn new(final_graph: &Snapshot) -> Writer {
        let max_node = final_graph.node_ids().map(|n| n.raw()).max().unwrap_or(0);
        let max_edge = final_graph.edge_ids().map(|e| e.raw()).max().unwrap_or(0);
        Writer {
            t: END,
            next_id: max_node.max(max_edge) + 1,
            nodes: final_graph.node_count(),
            edges: final_graph.edge_count(),
            acked: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// `(line, expected nodes, expected edges)` of a read-your-writes probe.
    pub fn tail_read(&self) -> (String, usize, usize) {
        (
            format!("GET GRAPH AT {} WITH {POINT_ATTRS}", self.t),
            self.nodes,
            self.edges,
        )
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Stages one `APPEND NODE` at the next time point.
    pub fn append_node(&mut self) -> String {
        let (t, id) = (self.t + 1, self.fresh_id());
        self.staged = vec![Event::add_node(t, id)];
        format!("APPEND NODE {t} {id}")
    }

    /// Stages one `APPEND BATCH` of [`BATCH_EVENTS`] events.
    pub fn append_batch(&mut self) -> String {
        let t = self.t + 1;
        let n: Vec<u64> = (0..5).map(|_| self.fresh_id()).collect();
        let e: Vec<u64> = (0..3).map(|_| self.fresh_id()).collect();
        self.staged = n.iter().map(|&id| Event::add_node(t, id)).collect();
        let mut specs: Vec<String> = n.iter().map(|id| format!("NODE {t} {id}")).collect();
        for (i, &id) in e.iter().enumerate() {
            self.staged.push(Event::add_edge(t, id, n[i], n[i + 1]));
            specs.push(format!("EDGE {t} {id} {} {}", n[i], n[i + 1]));
        }
        format!("APPEND BATCH {}", specs.join(" ; "))
    }

    /// The server acknowledged the staged append.
    pub fn ack(&mut self) {
        for ev in self.staged.drain(..) {
            self.t = ev.time.raw();
            match ev.kind {
                tgraph::EventKind::AddNode { .. } => self.nodes += 1,
                tgraph::EventKind::AddEdge { .. } => self.edges += 1,
                _ => unreachable!("the writer stages only additions"),
            }
            self.acked.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(workload: Workload, seed: u64, conn: usize) -> Script {
        let shards = [(0, 250_000), (250_000, 500_000), (500_000, END + 1)];
        generate(&ScriptParams {
            workload,
            seed,
            conn,
            conns: 2,
            quick: true,
            shards: &shards,
        })
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        for w in Workload::ALL {
            assert_eq!(params(w, 5, 0), params(w, 5, 0), "{}", w.name());
            assert_eq!(params(w, 5, 0).fnv(), params(w, 5, 0).fnv());
        }
        assert_ne!(
            params(Workload::ColdPoint, 5, 0),
            params(Workload::ColdPoint, 6, 0)
        );
        assert_ne!(
            params(Workload::ColdPoint, 5, 0),
            params(Workload::ColdPoint, 5, 1)
        );
        assert_ne!(
            params(Workload::MixedRw, 5, 1).fnv(),
            params(Workload::MixedRw, 6, 1).fnv()
        );
    }

    #[test]
    fn every_line_parses_and_release_comes_every_32() {
        for w in Workload::ALL {
            for conn in 0..2 {
                let script = params(w, 9, conn);
                let mut since_release = 0;
                for op in &script.ops {
                    if let Op::Fixed { class, line, .. } = op {
                        histql::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
                        if *class == Class::Release {
                            assert!(since_release <= RELEASE_EVERY);
                            since_release = 0;
                            continue;
                        }
                    }
                    since_release += 1;
                }
                if w != Workload::RestartScan {
                    assert_eq!(since_release, 0, "{} ends on a release", w.name());
                }
            }
        }
    }

    #[test]
    fn mixed_cycle_has_the_stated_mix_and_one_writer() {
        let count =
            |script: &Script, f: &dyn Fn(&Op) -> bool| script.ops.iter().filter(|op| f(op)).count();
        let class_is =
            |c: Class| move |op: &Op| matches!(op, Op::Fixed { class, .. } if *class == c);
        let writer = params(Workload::MixedRw, 2, 0);
        let reader = params(Workload::MixedRw, 2, 1);
        let cycles = 16;
        assert_eq!(count(&writer, &|op| *op == Op::WriterTailRead), 4 * cycles);
        assert_eq!(
            count(&writer, &|op| *op == Op::WriterAppendNode),
            2 * cycles
        );
        assert_eq!(count(&writer, &|op| *op == Op::WriterAppendBatch), cycles);
        assert_eq!(count(&writer, &class_is(Class::Point)), 3 * cycles);
        assert_eq!(count(&reader, &class_is(Class::Point)), 10 * cycles);
        for script in [&writer, &reader] {
            assert_eq!(count(script, &class_is(Class::Multipoint)), 2 * cycles);
            assert_eq!(count(script, &class_is(Class::Between)), cycles);
            assert_eq!(count(script, &class_is(Class::Diff)), cycles);
            assert_eq!(count(script, &class_is(Class::Node)), cycles);
            assert_eq!(count(script, &class_is(Class::History)), cycles);
        }
        assert_eq!(count(&reader, &|op| !matches!(op, Op::Fixed { .. })), 0);
    }

    #[test]
    fn writer_lines_parse_and_counts_follow_acks() {
        let final_graph = datagen::toy_trace().final_snapshot();
        let mut w = Writer::new(&final_graph);
        let (line, nodes, edges) = w.tail_read();
        histql::parse(&line).unwrap();
        assert_eq!((nodes, edges), (3, 2));
        histql::parse(&w.append_node()).unwrap();
        w.ack();
        let batch = w.append_batch();
        assert!(matches!(
            histql::parse(&batch).unwrap(),
            histql::Query::AppendBatch(specs) if specs.len() == BATCH_EVENTS
        ));
        w.ack();
        let (_, nodes, edges) = w.tail_read();
        assert_eq!((nodes, edges), (3 + 1 + 5, 2 + 3));
        assert_eq!(w.t, END + 2);
        assert_eq!(w.acked.len(), 1 + BATCH_EVENTS);
    }
}
