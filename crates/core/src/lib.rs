//! # snapshot-core
//!
//! The primary contribution of *Kotidis, "Snapshot Queries: Towards
//! Data-Centric Sensor Networks" (ICDE 2005)*, implemented as a
//! library over the [`snapshot_netsim`] simulator:
//!
//! * [`metrics`] — the application-chosen error metric `d()`.
//! * [`model`] — per-neighbor linear correlation models (Lemma 1).
//! * [`cache`] — the byte-budgeted, model-aware cache manager
//!   (Section 4).
//! * [`election`] — the localized representative-election protocol:
//!   invitation, model evaluation, initial selection and the
//!   refinement Rules 0–4 (Section 5, Figures 2/3/4/5).
//! * [`maintenance`] — heartbeats, re-election on failure or model
//!   drift, spurious-representative accounting, energy-aware handoff
//!   (Section 5.1).
//! * [`snapshot`] — the network snapshot: who represents whom, with
//!   election epochs for reconciling stale claims.
//! * [`sensor`] — the per-node state machine tying the above together.
//! * [`network`] — `SensorNetwork`, the orchestration facade driving a
//!   whole deployment through training, election, maintenance and
//!   queries.
//! * [`query`] — snapshot query execution: spatial predicates,
//!   aggregates and drill-through over the representative set, plus the
//!   regular (every-node) baseline.
//! * [`checkpoint`] — frozen deployment images: extraction, pure
//!   time-travel execution (`AS OF`) and crash-restart rehydration,
//!   persisted by the `snapshot-store` crate.
//!
//! The protocol implementations are message-passing programs over the
//! simulator's lossy broadcast — not oracles with global knowledge —
//! so the paper's robustness experiments (message loss, node death)
//! exercise the very code paths a deployment would run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod coverage;
pub mod election;
pub mod error;
pub mod maintenance;
pub mod metrics;
pub mod model;
pub mod multi;
pub mod network;
pub mod query;
pub mod sensor;
pub mod snapshot;
pub(crate) mod trace;

pub use cache::{CacheConfig, CacheDecision, CachePolicy, LineKey, MeasurementId, ModelCache};
pub use checkpoint::{
    execute_at, CheckpointState, ChildParts, FrozenCheckpoint, LineCheckpoint, NodeCheckpoint,
    QualitySummary,
};
pub use config::SnapshotConfig;
pub use coverage::CoverageTracker;
pub use election::{ElectionOutcome, ProtocolMsg};
pub use error::CoreError;
pub use maintenance::{MaintenanceReport, RepairRecord, RepairTracker};
pub use metrics::ErrorMetric;
pub use model::{LinearModel, SuffStats};
pub use multi::{SnapshotAction, ThresholdLadder};
pub use network::{ScanBatch, SensorNetwork};
pub use query::{
    execute_tag, Aggregate, Comparison, QueryMode, QueryResult, SnapshotQuery, SpatialPredicate,
    TagResult, ValueFilter,
};
pub use sensor::{Mode, SensorNode};
pub use snapshot::Snapshot;

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::cache::{
        CacheConfig, CacheDecision, CachePolicy, LineKey, MeasurementId, ModelCache,
    };
    pub use crate::checkpoint::{execute_at, CheckpointState, FrozenCheckpoint, QualitySummary};
    pub use crate::config::SnapshotConfig;
    pub use crate::coverage::CoverageTracker;
    pub use crate::election::{ElectionOutcome, ProtocolMsg};
    pub use crate::error::CoreError;
    pub use crate::maintenance::{MaintenanceReport, RepairRecord, RepairTracker};
    pub use crate::metrics::ErrorMetric;
    pub use crate::model::{LinearModel, SuffStats};
    pub use crate::multi::{SnapshotAction, ThresholdLadder};
    pub use crate::network::SensorNetwork;
    pub use crate::query::{
        Aggregate, Comparison, QueryMode, QueryResult, SnapshotQuery, SpatialPredicate, ValueFilter,
    };
    pub use crate::sensor::{Mode, SensorNode};
    pub use crate::snapshot::Snapshot;
}
