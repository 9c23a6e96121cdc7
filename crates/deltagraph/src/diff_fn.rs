//! Differential functions (Table 2).
//!
//! A differential function `f()` specifies how the graph associated with an
//! interior DeltaGraph node is constructed from the graphs of its children.
//! Interior graphs are *not* required to be valid snapshots of any time
//! point; they only influence the sizes of the deltas stored on the edges
//! (and therefore the space/latency trade-off). Correctness of retrieval is
//! independent of the choice: deltas are always computed exactly between the
//! parent graph and each child graph.
//!
//! | Name | Definition |
//! |---|---|
//! | Intersection | `f(a,b,c,…) = a ∩ b ∩ c …` |
//! | Union | `f(a,b,c,…) = a ∪ b ∪ c …` |
//! | Skewed(r) | `f(a,b) = a + r·(b − a)` |
//! | Right skewed(r) | `f(a,b) = a∩b + r·(b − a∩b)` |
//! | Left skewed(r) | `f(a,b) = a∩b + r·(a − a∩b)` |
//! | Mixed(r1,r2) | `f(a,b,c,…) = a + r1·(δab+δbc+…) − r2·(ρab+ρbc+…)` |
//! | Balanced | Mixed with `r1 = r2 = ½` |
//! | Empty | `f(…) = ∅` (reduces the DeltaGraph to Copy+Log) |
//!
//! The fractional selections ("choose half of the events") are made with a
//! deterministic hash of the element identity, exactly as the paper suggests,
//! so that construction is reproducible and the same element is consistently
//! included or excluded across components.

use tgraph::fxhash::{hash_fraction, hash_u64};
use tgraph::{Delta, Snapshot};

/// Salt mixed into node hashes so that node and edge sampling decisions are
/// independent.
const NODE_SALT: u64 = 0x9a3f_62d1;
/// Salt mixed into edge hashes.
const EDGE_SALT: u64 = 0x51e0_8c77;

/// The differential function used to build interior nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DifferentialFunction {
    /// Elements present in every child.
    Intersection,
    /// Elements present in any child.
    Union,
    /// `a + r·(b − a)`: a hash-selected `r`-fraction of the delta from the
    /// first child toward each subsequent child is applied.
    Skewed {
        /// Fraction in `[0, 1]`.
        r: f64,
    },
    /// `a∩b + r·(b − a∩b)`: the intersection plus an `r`-fraction of what the
    /// *later* child adds over it.
    RightSkewed {
        /// Fraction in `[0, 1]`.
        r: f64,
    },
    /// `a∩b + r·(a − a∩b)`: the intersection plus an `r`-fraction of what the
    /// *earlier* child adds over it.
    LeftSkewed {
        /// Fraction in `[0, 1]`.
        r: f64,
    },
    /// `a + r1·(δ…) − r2·(ρ…)`: insertions sampled at `r1`, deletions at `r2`.
    Mixed {
        /// Insertion fraction in `[0, 1]`.
        r1: f64,
        /// Deletion fraction in `[0, 1]`, `r2 ≤ r1`.
        r2: f64,
    },
    /// Mixed with `r1 = r2 = ½`: delta sizes balanced across children.
    Balanced,
    /// The empty graph; every child delta is a full copy (Copy+Log).
    Empty,
}

impl DifferentialFunction {
    /// Short name used in benchmark output.
    pub fn name(&self) -> String {
        match self {
            DifferentialFunction::Intersection => "intersection".into(),
            DifferentialFunction::Union => "union".into(),
            DifferentialFunction::Skewed { r } => format!("skewed(r={r})"),
            DifferentialFunction::RightSkewed { r } => format!("right-skewed(r={r})"),
            DifferentialFunction::LeftSkewed { r } => format!("left-skewed(r={r})"),
            DifferentialFunction::Mixed { r1, r2 } => format!("mixed(r1={r1},r2={r2})"),
            DifferentialFunction::Balanced => "balanced".into(),
            DifferentialFunction::Empty => "empty".into(),
        }
    }

    /// Checks that all fractions lie in `[0, 1]` (and `r2 ≤ r1` for Mixed).
    pub fn validate(&self) -> Result<(), String> {
        let check = |r: f64, name: &str| -> Result<(), String> {
            if (0.0..=1.0).contains(&r) {
                Ok(())
            } else {
                Err(format!("{name} must lie in [0, 1], got {r}"))
            }
        };
        match *self {
            DifferentialFunction::Skewed { r }
            | DifferentialFunction::RightSkewed { r }
            | DifferentialFunction::LeftSkewed { r } => check(r, "r"),
            DifferentialFunction::Mixed { r1, r2 } => {
                check(r1, "r1")?;
                check(r2, "r2")?;
                if r2 > r1 {
                    return Err(format!("Mixed requires r2 <= r1, got r1={r1}, r2={r2}"));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Computes the interior-node graph from the child graphs (ordered oldest
    /// to newest). Panics if `children` is empty.
    pub fn combine(&self, children: &[Snapshot]) -> Snapshot {
        assert!(!children.is_empty(), "combine needs at least one child");
        if children.len() == 1 {
            return match self {
                DifferentialFunction::Empty => Snapshot::new(),
                _ => children[0].clone(),
            };
        }
        match *self {
            DifferentialFunction::Empty => Snapshot::new(),
            DifferentialFunction::Intersection => intersect_all(children),
            DifferentialFunction::Union => children
                .iter()
                .skip(1)
                .fold(children[0].clone(), |acc, c| acc.union(c)),
            DifferentialFunction::Skewed { r } => mixed_combine(children, r, r),
            DifferentialFunction::Mixed { r1, r2 } => mixed_combine(children, r1, r2),
            DifferentialFunction::Balanced => mixed_combine(children, 0.5, 0.5),
            DifferentialFunction::RightSkewed { r } => {
                let base = intersect_all(children);
                let newest = children.last().expect("non-empty");
                skew_from_base(base, newest, r)
            }
            DifferentialFunction::LeftSkewed { r } => {
                let base = intersect_all(children);
                let oldest = &children[0];
                skew_from_base(base, oldest, r)
            }
        }
    }
}

/// `base + r·(target − base)`: adds a hash-selected `r`-fraction of what
/// `target` has beyond `base` (no deletions).
fn skew_from_base(mut base: Snapshot, target: &Snapshot, r: f64) -> Snapshot {
    let delta = Delta::between(&base, target);
    apply_sampled(&mut base, &delta, r, 0.0);
    base
}

/// The intersection of two or more graphs, oldest first. `intersect`
/// builds its result from scratch, so no child is copied on the way.
fn intersect_all(children: &[Snapshot]) -> Snapshot {
    children[2..]
        .iter()
        .fold(children[0].intersect(&children[1]), |acc, c| {
            acc.intersect(c)
        })
}

/// `a + r1·(δab + δbc + …) − r2·(ρab + ρbc + …)` over consecutive children.
fn mixed_combine(children: &[Snapshot], r1: f64, r2: f64) -> Snapshot {
    let mut acc = children[0].clone();
    for pair in children.windows(2) {
        let delta = Delta::between(&pair[0], &pair[1]);
        apply_sampled(&mut acc, &delta, r1, r2);
    }
    acc
}

/// Deterministic inclusion decision for a sampled fraction.
fn selected(key: u64, fraction: f64) -> bool {
    if fraction >= 1.0 {
        true
    } else if fraction <= 0.0 {
        false
    } else {
        hash_fraction(key) < fraction
    }
}

fn attr_key(id: u64, key: &str) -> u64 {
    let mut h = hash_u64(id);
    for b in key.as_bytes() {
        h = hash_u64(h ^ u64::from(*b));
    }
    h
}

/// Applies a sampled subset of `delta` to `target`: insertions (nodes, edges,
/// attribute assignments) with probability `add_frac`, deletions with
/// probability `del_frac`, decided by a deterministic hash of each element's
/// identity.
fn apply_sampled(target: &mut Snapshot, delta: &Delta, add_frac: f64, del_frac: f64) {
    // Deletions first, mirroring Delta::apply_to.
    for rec in &delta.structure.del_edges {
        if selected(hash_u64(rec.edge.raw() ^ EDGE_SALT), del_frac) && target.has_edge(rec.edge) {
            let _ = target.remove_edge(rec.edge);
        }
    }
    for n in &delta.structure.del_nodes {
        if selected(hash_u64(n.raw() ^ NODE_SALT), del_frac) && target.has_node(*n) {
            let _ = target.remove_node(*n);
        }
    }
    for n in &delta.structure.add_nodes {
        if selected(hash_u64(n.raw() ^ NODE_SALT), add_frac) {
            target.ensure_node(*n);
        }
    }
    for rec in &delta.structure.add_edges {
        if selected(hash_u64(rec.edge.raw() ^ EDGE_SALT), add_frac) && !target.has_edge(rec.edge) {
            let _ = target.add_edge(rec.edge, rec.src, rec.dst, rec.directed);
        }
    }
    for a in &delta.node_attrs {
        let frac = if a.value.is_some() {
            add_frac
        } else {
            del_frac
        };
        if selected(attr_key(a.id.raw() ^ NODE_SALT, &a.key), frac) && target.has_node(a.id) {
            let _ = target.set_node_attr(a.id, &a.key, a.value.clone());
        }
    }
    for a in &delta.edge_attrs {
        let frac = if a.value.is_some() {
            add_frac
        } else {
            del_frac
        };
        if selected(attr_key(a.id.raw() ^ EDGE_SALT, &a.key), frac) && target.has_edge(a.id) {
            let _ = target.set_edge_attr(a.id, &a.key, a.value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{EdgeId, NodeId};

    fn snap(nodes: std::ops::Range<u64>, edges: &[(u64, u64, u64)]) -> Snapshot {
        let mut s = Snapshot::new();
        for n in nodes {
            s.ensure_node(NodeId(n));
        }
        for &(e, a, b) in edges {
            s.add_edge(EdgeId(e), NodeId(a), NodeId(b), false).unwrap();
        }
        s
    }

    fn children() -> Vec<Snapshot> {
        // a growing sequence of three snapshots plus a deletion in the last
        let a = snap(0..10, &[(1, 0, 1), (2, 1, 2)]);
        let b = snap(0..20, &[(1, 0, 1), (2, 1, 2), (3, 2, 3)]);
        let mut c = snap(0..30, &[(1, 0, 1), (3, 2, 3), (4, 3, 4)]);
        c.remove_edge(EdgeId(1)).unwrap();
        vec![a, b, c]
    }

    #[test]
    fn empty_function_yields_empty_graph() {
        let p = DifferentialFunction::Empty.combine(&children());
        assert!(p.is_empty());
    }

    #[test]
    fn intersection_is_subset_of_every_child() {
        let cs = children();
        let p = DifferentialFunction::Intersection.combine(&cs);
        for (n, _) in p.nodes() {
            assert!(cs.iter().all(|c| c.has_node(n)));
        }
        for (e, _) in p.edges() {
            assert!(cs.iter().all(|c| c.has_edge(e)));
        }
        // node 5 is in all children, edge 2 is not in child c
        assert!(p.has_node(NodeId(5)));
        assert!(!p.has_edge(EdgeId(2)));
    }

    #[test]
    fn union_is_superset_of_every_child() {
        let cs = children();
        let p = DifferentialFunction::Union.combine(&cs);
        for c in &cs {
            for (n, _) in c.nodes() {
                assert!(p.has_node(n));
            }
            for (e, _) in c.edges() {
                assert!(p.has_edge(e));
            }
        }
    }

    #[test]
    fn skewed_extremes_reproduce_first_and_last_child() {
        let cs = children();
        let p0 = DifferentialFunction::Skewed { r: 0.0 }.combine(&cs);
        assert_eq!(p0, cs[0]);
        let p1 = DifferentialFunction::Skewed { r: 1.0 }.combine(&cs);
        assert_eq!(p1, cs[2]);
    }

    #[test]
    fn mixed_r1_only_never_deletes() {
        let cs = children();
        let p = DifferentialFunction::Mixed { r1: 1.0, r2: 0.0 }.combine(&cs);
        // everything in the first child survives
        for (n, _) in cs[0].nodes() {
            assert!(p.has_node(n));
        }
        for (e, _) in cs[0].edges() {
            assert!(p.has_edge(e));
        }
    }

    #[test]
    fn balanced_lies_between_children_in_size() {
        let cs = children();
        let p = DifferentialFunction::Balanced.combine(&cs);
        let min = cs.iter().map(Snapshot::element_count).min().unwrap();
        let max = cs.iter().map(Snapshot::element_count).max().unwrap();
        let got = p.element_count();
        assert!(
            got >= min / 2 && got <= max,
            "size {got} not within [{min}/2, {max}]"
        );
    }

    #[test]
    fn combine_is_deterministic() {
        let cs = children();
        for f in [
            DifferentialFunction::Balanced,
            DifferentialFunction::Skewed { r: 0.3 },
            DifferentialFunction::Mixed { r1: 0.7, r2: 0.2 },
            DifferentialFunction::RightSkewed { r: 0.5 },
            DifferentialFunction::LeftSkewed { r: 0.5 },
        ] {
            assert_eq!(f.combine(&cs), f.combine(&cs), "{}", f.name());
        }
    }

    #[test]
    fn right_and_left_skew_pull_toward_newest_and_oldest() {
        let cs = children();
        let right = DifferentialFunction::RightSkewed { r: 1.0 }.combine(&cs);
        let left = DifferentialFunction::LeftSkewed { r: 1.0 }.combine(&cs);
        // right-skewed with r=1 contains everything the newest child has
        for (n, _) in cs[2].nodes() {
            assert!(right.has_node(n));
        }
        // left-skewed with r=1 contains everything the oldest child has
        for (n, _) in cs[0].nodes() {
            assert!(left.has_node(n));
        }
    }

    #[test]
    fn single_child_passthrough() {
        let cs = children();
        let one = &cs[..1];
        assert_eq!(
            DifferentialFunction::Intersection.combine(one),
            cs[0].clone()
        );
        assert!(DifferentialFunction::Empty.combine(one).is_empty());
    }

    #[test]
    fn validation_rules() {
        assert!(DifferentialFunction::Mixed { r1: 0.5, r2: 0.6 }
            .validate()
            .is_err());
        assert!(DifferentialFunction::Mixed { r1: 0.6, r2: 0.5 }
            .validate()
            .is_ok());
        assert!(DifferentialFunction::Skewed { r: -0.1 }.validate().is_err());
        assert!(DifferentialFunction::Intersection.validate().is_ok());
    }

    #[test]
    fn names_are_informative() {
        assert!(DifferentialFunction::Mixed { r1: 0.9, r2: 0.1 }
            .name()
            .contains("0.9"));
        assert_eq!(DifferentialFunction::Balanced.name(), "balanced");
    }
}
