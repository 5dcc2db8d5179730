//! # snapshot-store
//!
//! Persistence for the snapshot-queries reproduction: an append-only,
//! versioned store of deployment checkpoints
//! ([`snapshot_core::checkpoint::CheckpointState`]) and query-service
//! images ([`ServeStateRecord`]), in a deterministic hand-rolled text
//! format (no serde — the workspace builds offline).
//!
//! * [`format`](mod@format) — the `snapshot-store v2` block format: a checkpoint is
//!   a keyframe or a delta against the checkpoint before it, a keyframe
//!   every [`format::KEYFRAME_INTERVAL`] checkpoints; f64s as IEEE bit
//!   patterns, CRC-32 per block, percent-escaped SQL. The codec is
//!   canonical (`encode ∘ decode` is the identity), which is what makes
//!   [`SnapshotStore::rebuild`] byte-identical.
//! * [`SnapshotStore`] — create/open/append plus the time-travel
//!   lookups the query layer's `AS OF <tick>` and
//!   `BETWEEN <t1> AND <t2>` clauses plan against.
//! * [`SnapshotStore::verify`] / [`VerifyReport`] — the
//!   cross-snapshot consistency verifier (monotone ticks, stable
//!   deployment shape, quality flags matching recomputed accounting),
//!   also runnable as `snapshot-store verify <file>`.
//! * [`StoreError`] — typed failures naming the offending version,
//!   byte offset or line; nothing in this crate panics on bad input.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod format;
pub mod store;
pub mod verify;

pub use error::StoreError;
pub use format::{ActiveRecord, DecodedCheckpoint, PendingRecord, RecordKind, ServeStateRecord};
pub use store::{SnapshotStore, VersionInfo};
pub use verify::{remediation, VerifyReport};
