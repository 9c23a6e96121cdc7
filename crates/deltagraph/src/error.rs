//! Error type for the DeltaGraph index layer.

use std::fmt;

use kvstore::StoreError;
use tgraph::{TgError, Timestamp};

/// Result alias for index operations.
pub type DgResult<T> = std::result::Result<T, DgError>;

/// Errors raised by DeltaGraph construction, planning, and retrieval.
#[derive(Debug)]
pub enum DgError {
    /// Error from the temporal-graph data model (codec, event application, ...).
    Model(TgError),
    /// Error from the storage backend.
    Store(StoreError),
    /// A query referenced a time point before the start of the recorded history.
    TimeBeforeHistory {
        /// The requested time point.
        requested: Timestamp,
        /// The first recorded time point.
        start: Timestamp,
    },
    /// The index is empty (constructed over an empty event trace).
    EmptyIndex,
    /// The planner could not find a path to a required node; indicates a bug
    /// or a corrupted skeleton.
    NoPlan(String),
    /// A referenced skeleton node does not exist.
    UnknownNode(usize),
    /// An auxiliary index with the given name was not registered.
    UnknownAuxIndex(String),
    /// Invalid construction or query parameter.
    InvalidParameter(String),
    /// A write reached a sealed index: it serves retrievals from its
    /// persisted payloads and takes no appends.
    Sealed,
    /// The shard owning the queried time range is quarantined after failed
    /// hydration attempts; other shards keep serving.
    ShardQuarantined {
        /// Index of the quarantined shard.
        shard: usize,
        /// Hydration attempts that have failed so far.
        failures: u64,
        /// The error that caused the last failed attempt.
        reason: String,
    },
}

impl fmt::Display for DgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgError::Model(e) => write!(f, "data model error: {e}"),
            DgError::Store(e) => write!(f, "storage error: {e}"),
            DgError::TimeBeforeHistory { requested, start } => write!(
                f,
                "time {requested} precedes the start of recorded history ({start})"
            ),
            DgError::EmptyIndex => write!(f, "the DeltaGraph index is empty"),
            DgError::NoPlan(msg) => write!(f, "no retrieval plan found: {msg}"),
            DgError::UnknownNode(id) => write!(f, "unknown skeleton node {id}"),
            DgError::UnknownAuxIndex(name) => write!(f, "unknown auxiliary index {name:?}"),
            DgError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            DgError::Sealed => write!(f, "the index is sealed: it takes no appends"),
            DgError::ShardQuarantined {
                shard,
                failures,
                reason,
            } => write!(
                f,
                "shard {shard} is quarantined after {failures} failed hydration attempt(s): {reason}"
            ),
        }
    }
}

impl std::error::Error for DgError {}

impl From<TgError> for DgError {
    fn from(e: TgError) -> Self {
        DgError::Model(e)
    }
}

impl From<StoreError> for DgError {
    fn from(e: StoreError) -> Self {
        DgError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_facts() {
        let e = DgError::TimeBeforeHistory {
            requested: Timestamp(3),
            start: Timestamp(10),
        };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains("10"));
        assert!(DgError::EmptyIndex.to_string().contains("empty"));
        assert!(DgError::UnknownAuxIndex("paths".into())
            .to_string()
            .contains("paths"));
    }

    #[test]
    fn conversions_from_layer_errors() {
        let m: DgError = TgError::Internal("x".into()).into();
        assert!(matches!(m, DgError::Model(_)));
        let s: DgError = StoreError::UnknownPartition(1).into();
        assert!(matches!(s, DgError::Store(_)));
    }
}
