//! Dataset 1: a growing-only, co-authorship-style trace.
//!
//! The paper's Dataset 1 is a co-authorship network extracted from DBLP: the
//! network starts empty and grows over seven decades; nodes (authors) and
//! edges (co-author relationships) are only ever added; ~330k unique nodes
//! and 2M edge additions (1.04M distinct endpoint pairs); every node carries
//! 10 randomly generated attribute key–value pairs.
//!
//! This generator reproduces that shape with a preferential-attachment
//! process: each new collaboration either recruits a new author (with a
//! configurable probability) or picks an existing author weighted by degree,
//! which yields the heavy-tailed degree distribution typical of co-authorship
//! graphs. Event density over time is super-linear (`g(t)` convex), matching
//! the paper's observation that real networks change faster as they grow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tgraph::{AttrValue, Event, EventList, NodeId, Timestamp};

use crate::Dataset;

/// Configuration for [`dblp_like`].
#[derive(Clone, Debug)]
pub struct DblpConfig {
    /// RNG seed; identical seeds yield identical traces.
    pub seed: u64,
    /// Number of edge-addition events to generate.
    pub total_edges: usize,
    /// Probability that an endpoint of a new edge is a brand-new node.
    /// The paper's Dataset 1 has ~330k nodes for 2M edges, i.e. roughly
    /// 0.0825 new nodes per endpoint; the default approximates that ratio.
    pub new_node_prob: f64,
    /// Number of random attribute pairs assigned to every new node.
    pub attrs_per_node: usize,
    /// First time point of the trace.
    pub start_time: i64,
    /// Last time point of the trace.
    pub end_time: i64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            seed: 42,
            total_edges: 20_000,
            new_node_prob: 0.085,
            attrs_per_node: 10,
            start_time: 1940,
            end_time: 2010,
        }
    }
}

impl DblpConfig {
    /// A small configuration for unit tests (hundreds of events).
    pub fn tiny(seed: u64) -> Self {
        DblpConfig {
            seed,
            total_edges: 300,
            attrs_per_node: 3,
            ..Default::default()
        }
    }

    /// Scales the number of edge events by `factor` (the paper-claims tests
    /// run at 0.1, the server binary's `--scale` sets it for the churn
    /// trace).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.total_edges = ((self.total_edges as f64) * factor).max(10.0) as usize;
        self
    }
}

/// Maps event index `i` of `total` onto a timestamp in `[start, end]` such
/// that event density grows super-linearly over time (later years see more
/// events per unit time).
pub(crate) fn superlinear_time(i: usize, total: usize, start: i64, end: i64) -> Timestamp {
    let span = (end - start) as f64;
    let frac = (i as f64 + 1.0) / total.max(1) as f64;
    // sqrt maps uniform event indices to a concave time curve: the second
    // half of the time axis holds ~3/4 of the events.
    let t = start as f64 + span * frac.sqrt();
    Timestamp(t.round() as i64)
}

/// Generates a growing-only co-authorship-style trace (Dataset 1).
pub fn dblp_like(cfg: &DblpConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut events: Vec<Event> = Vec::with_capacity(cfg.total_edges * 3);

    // Degree-weighted sampling pool: node id appears once per incident edge
    // (plus once at creation), which is the classic preferential-attachment
    // trick without an explicit weighted structure.
    let mut attachment_pool: Vec<NodeId> = Vec::new();
    let mut next_node: u64 = 0;
    let mut next_edge: u64 = 0;

    let attr_keys: Vec<String> = (0..cfg.attrs_per_node.max(1))
        .map(|i| format!("attr{i}"))
        .collect();

    let mut new_node = |time: Timestamp,
                        events: &mut Vec<Event>,
                        pool: &mut Vec<NodeId>,
                        rng: &mut StdRng|
     -> NodeId {
        let id = NodeId(next_node);
        next_node += 1;
        events.push(Event::new(time, tgraph::EventKind::AddNode { node: id }));
        for key in attr_keys.iter().take(cfg.attrs_per_node) {
            let value = AttrValue::Int(rng.gen_range(0..1_000_000));
            events.push(Event::set_node_attr(
                time,
                id,
                key.clone(),
                None,
                Some(value),
            ));
        }
        pool.push(id);
        id
    };

    for i in 0..cfg.total_edges {
        let time = superlinear_time(i, cfg.total_edges, cfg.start_time, cfg.end_time);
        let pick = |rng: &mut StdRng, pool: &Vec<NodeId>| -> Option<NodeId> {
            if pool.is_empty() {
                None
            } else {
                Some(pool[rng.gen_range(0..pool.len())])
            }
        };

        let src = if rng.gen_bool(cfg.new_node_prob) || attachment_pool.is_empty() {
            new_node(time, &mut events, &mut attachment_pool, &mut rng)
        } else {
            pick(&mut rng, &attachment_pool).expect("pool non-empty")
        };
        let dst = if rng.gen_bool(cfg.new_node_prob) || attachment_pool.len() < 2 {
            new_node(time, &mut events, &mut attachment_pool, &mut rng)
        } else {
            // avoid self loops; retry a few times then fall back to a new node
            let mut candidate = pick(&mut rng, &attachment_pool).expect("pool non-empty");
            let mut tries = 0;
            while candidate == src && tries < 8 {
                candidate = pick(&mut rng, &attachment_pool).expect("pool non-empty");
                tries += 1;
            }
            if candidate == src {
                new_node(time, &mut events, &mut attachment_pool, &mut rng)
            } else {
                candidate
            }
        };

        let edge = tgraph::EdgeId(next_edge);
        next_edge += 1;
        events.push(Event::new(
            time,
            tgraph::EventKind::AddEdge {
                edge,
                src,
                dst,
                directed: false,
            },
        ));
        // co-authorship weight attribute on a fraction of edges
        if rng.gen_bool(0.25) {
            events.push(Event::set_edge_attr(
                time,
                edge,
                "papers",
                None,
                Some(AttrValue::Int(rng.gen_range(1..20))),
            ));
        }
        // reinforce preferential attachment
        attachment_pool.push(src);
        attachment_pool.push(dst);
    }

    Dataset {
        name: "dataset1",
        events: EventList::from_events(events),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = dblp_like(&DblpConfig::tiny(7));
        let b = dblp_like(&DblpConfig::tiny(7));
        let c = dblp_like(&DblpConfig::tiny(8));
        assert_eq!(a.events, b.events);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn trace_is_growing_only_and_well_formed() {
        let ds = dblp_like(&DblpConfig::tiny(1));
        assert_eq!(ds.events.delete_count(), 0);
        // replay must not error
        let snap = ds.final_snapshot();
        assert!(snap.node_count() > 0);
        assert!(snap.edge_count() > 0);
        // growing only: every prefix is a subgraph of the final state
        let mid = ds.snapshot_at(Timestamp(1980));
        for (n, _) in mid.nodes() {
            assert!(snap.has_node(n));
        }
        for (e, _) in mid.edges() {
            assert!(snap.has_edge(e));
        }
    }

    #[test]
    fn edge_count_matches_config() {
        let cfg = DblpConfig::tiny(3);
        let ds = dblp_like(&cfg);
        let snap = ds.final_snapshot();
        assert_eq!(snap.edge_count(), cfg.total_edges);
    }

    #[test]
    fn nodes_receive_attributes() {
        let cfg = DblpConfig::tiny(5);
        let ds = dblp_like(&cfg);
        let snap = ds.final_snapshot();
        let with_attrs = snap.nodes().filter(|(_, d)| !d.attrs.is_empty()).count();
        assert_eq!(with_attrs, snap.node_count());
        let (_, data) = snap.nodes().next().unwrap();
        assert_eq!(data.attrs.len(), cfg.attrs_per_node);
    }

    #[test]
    fn event_density_is_superlinear() {
        let cfg = DblpConfig::tiny(11);
        let ds = dblp_like(&cfg);
        let mid_time = Timestamp((cfg.start_time + cfg.end_time) / 2);
        let first_half = ds.events.prefix_at(mid_time).len();
        let second_half = ds.events.len() - first_half;
        assert!(
            second_half > first_half,
            "expected more events in the second half ({second_half} vs {first_half})"
        );
    }

    #[test]
    fn superlinear_time_is_monotone_and_bounded() {
        let total = 1000;
        let mut last = Timestamp(i64::MIN);
        for i in 0..total {
            let t = superlinear_time(i, total, 1940, 2010);
            assert!(t >= last);
            assert!(t.raw() >= 1940 && t.raw() <= 2010);
            last = t;
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let ds = dblp_like(&DblpConfig {
            total_edges: 2000,
            ..DblpConfig::tiny(2)
        });
        let snap = ds.final_snapshot();
        let hist = snap.degree_histogram();
        let max_degree = *hist.keys().max().unwrap();
        let mean_degree = 2.0 * snap.edge_count() as f64 / snap.node_count() as f64;
        assert!(
            max_degree as f64 > 4.0 * mean_degree,
            "expected a heavy tail: max {max_degree}, mean {mean_degree:.1}"
        );
    }

    #[test]
    fn scaled_config_changes_size() {
        let base = DblpConfig::default();
        let half = base.clone().scaled(0.5);
        assert_eq!(half.total_edges, base.total_edges / 2);
    }
}
