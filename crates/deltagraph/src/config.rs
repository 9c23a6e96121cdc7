//! Construction parameters for a DeltaGraph (Section 4.6).

use tgraph::codec::{Decode, Encode, Reader};
use tgraph::TgError;

use crate::diff_fn::DifferentialFunction;

/// Most partitions a persisted configuration may name: every retrieval
/// allocates one key per partition and column, so a corrupt count must not
/// reach it.
const MAX_PARTITIONS: u64 = 1 << 16;

/// Parameters accepted by the DeltaGraph construction algorithm:
/// the leaf-eventlist size `L`, the arity `k`, the differential function
/// `f()`, and the partitioning of the node-id space.
#[derive(Clone, Debug)]
pub struct DeltaGraphConfig {
    /// Leaf-eventlist size `L`: number of events between consecutive leaf
    /// snapshots. Smaller values mean more leaves, faster queries, and more
    /// disk space (Figure 9(b)).
    pub leaf_size: usize,
    /// Arity `k`: number of children per interior node. Higher arity lowers
    /// the tree and the query times at the cost of disk space (Figure 9(a)).
    pub arity: usize,
    /// The differential function used to construct interior nodes (Table 2).
    pub diff_fn: DifferentialFunction,
    /// Number of horizontal partitions of the node-id space (1 = single-site
    /// deployment).
    pub partitions: u32,
    /// Number of threads used to fetch partitions in parallel at query time.
    pub retrieval_threads: usize,
}

impl Default for DeltaGraphConfig {
    fn default() -> Self {
        DeltaGraphConfig {
            leaf_size: 1000,
            arity: 2,
            diff_fn: DifferentialFunction::Intersection,
            partitions: 1,
            retrieval_threads: 1,
        }
    }
}

impl DeltaGraphConfig {
    /// Creates a configuration with the given leaf size and arity, keeping
    /// the remaining parameters at their defaults.
    pub fn new(leaf_size: usize, arity: usize) -> Self {
        DeltaGraphConfig {
            leaf_size,
            arity,
            ..Default::default()
        }
    }

    /// Sets the differential function.
    pub fn with_diff_fn(mut self, f: DifferentialFunction) -> Self {
        self.diff_fn = f;
        self
    }

    /// Sets the number of horizontal partitions.
    pub fn with_partitions(mut self, partitions: u32) -> Self {
        self.partitions = partitions;
        self
    }

    /// Sets the number of parallel retrieval threads.
    pub fn with_retrieval_threads(mut self, threads: usize) -> Self {
        self.retrieval_threads = threads;
        self
    }

    /// Validates the parameters, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.leaf_size == 0 {
            return Err("leaf_size must be at least 1".into());
        }
        if self.arity < 2 {
            return Err("arity must be at least 2".into());
        }
        if self.partitions == 0 {
            return Err("partitions must be at least 1".into());
        }
        if self.retrieval_threads == 0 {
            return Err("retrieval_threads must be at least 1".into());
        }
        self.diff_fn.validate()
    }
}

/// The parameters a sealed index's payloads were written with — leaf size,
/// arity, differential function and partitions — in that order.
/// `retrieval_threads` is a run-time choice and is not persisted.
impl Encode for DeltaGraphConfig {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.leaf_size.encode(buf);
        self.arity.encode(buf);
        let (tag, r1, r2): (u64, f64, f64) = match self.diff_fn {
            DifferentialFunction::Intersection => (0, 0.0, 0.0),
            DifferentialFunction::Union => (1, 0.0, 0.0),
            DifferentialFunction::Skewed { r } => (2, r, 0.0),
            DifferentialFunction::RightSkewed { r } => (3, r, 0.0),
            DifferentialFunction::LeftSkewed { r } => (4, r, 0.0),
            DifferentialFunction::Mixed { r1, r2 } => (5, r1, r2),
            DifferentialFunction::Balanced => (6, 0.0, 0.0),
            DifferentialFunction::Empty => (7, 0.0, 0.0),
        };
        tag.encode(buf);
        r1.encode(buf);
        r2.encode(buf);
        u64::from(self.partitions).encode(buf);
    }
}

impl Decode for DeltaGraphConfig {
    /// Decodes and validates a persisted configuration (one retrieval
    /// thread; the opener picks its own).
    fn decode(r: &mut Reader<'_>) -> tgraph::Result<Self> {
        let leaf_size = usize::decode(r)?;
        let arity = usize::decode(r)?;
        let (tag, r1, r2) = (u64::decode(r)?, f64::decode(r)?, f64::decode(r)?);
        let diff_fn = match tag {
            0 => DifferentialFunction::Intersection,
            1 => DifferentialFunction::Union,
            2 => DifferentialFunction::Skewed { r: r1 },
            3 => DifferentialFunction::RightSkewed { r: r1 },
            4 => DifferentialFunction::LeftSkewed { r: r1 },
            5 => DifferentialFunction::Mixed { r1, r2 },
            6 => DifferentialFunction::Balanced,
            7 => DifferentialFunction::Empty,
            _ => {
                return Err(TgError::Codec(format!(
                    "invalid differential function tag {tag}"
                )))
            }
        };
        let partitions = u64::decode(r)?;
        if partitions > MAX_PARTITIONS {
            return Err(TgError::Codec(format!(
                "implausible partition count {partitions}"
            )));
        }
        let config = DeltaGraphConfig {
            leaf_size,
            arity,
            diff_fn,
            partitions: partitions as u32,
            retrieval_threads: 1,
        };
        config.validate().map_err(TgError::Codec)?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(DeltaGraphConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_style_setters_apply() {
        let cfg = DeltaGraphConfig::new(500, 4)
            .with_diff_fn(DifferentialFunction::Balanced)
            .with_partitions(3)
            .with_retrieval_threads(2);
        assert_eq!(cfg.leaf_size, 500);
        assert_eq!(cfg.arity, 4);
        assert_eq!(cfg.partitions, 3);
        assert_eq!(cfg.retrieval_threads, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn persisted_parameters_round_trip_and_are_validated() {
        for f in [
            DifferentialFunction::Intersection,
            DifferentialFunction::Skewed { r: 0.3 },
            DifferentialFunction::Mixed { r1: 0.9, r2: 0.1 },
            DifferentialFunction::Empty,
        ] {
            let cfg = DeltaGraphConfig::new(70, 3)
                .with_diff_fn(f)
                .with_partitions(4)
                .with_retrieval_threads(2);
            let back = DeltaGraphConfig::from_bytes(&cfg.to_bytes()).unwrap();
            assert_eq!(
                (back.leaf_size, back.arity, back.diff_fn, back.partitions),
                (70, 3, f, 4)
            );
            assert_eq!(back.retrieval_threads, 1, "threads are not persisted");
        }
        let bad = DeltaGraphConfig::new(10, 1).to_bytes();
        assert!(DeltaGraphConfig::from_bytes(&bad).is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(DeltaGraphConfig::new(0, 2).validate().is_err());
        assert!(DeltaGraphConfig::new(10, 1).validate().is_err());
        assert!(DeltaGraphConfig::new(10, 2)
            .with_partitions(0)
            .validate()
            .is_err());
        assert!(DeltaGraphConfig::new(10, 2)
            .with_retrieval_threads(0)
            .validate()
            .is_err());
        assert!(DeltaGraphConfig::new(10, 2)
            .with_diff_fn(DifferentialFunction::Skewed { r: 1.5 })
            .validate()
            .is_err());
    }
}
