//! Typed store errors.
//!
//! Every way a store file can disappoint — missing, misheadered,
//! truncated, bit-flipped, out of order, or internally inconsistent —
//! maps to a distinct [`StoreError`] variant carrying the offending
//! version, byte offset or line number, so callers (and the
//! `snapshot-store verify` CLI) can report precisely what broke and
//! where without ever panicking. Every variant has a remediation hint
//! in [`verify::remediation`](crate::verify::remediation), a `match`
//! with no wildcard arm, and the store's unit tests raise every
//! variant through its own API.

use std::fmt;

/// Everything that can go wrong opening, decoding, verifying or
/// rebuilding a snapshot store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing (`"read"`, `"create"`, `"write"`).
        op: &'static str,
        /// The OS error rendered to text (kept as a string so the
        /// error type stays `Clone + PartialEq`).
        detail: String,
    },
    /// The file does not start with the `snapshot-store v2` header.
    BadHeader {
        /// The first line actually found (possibly empty).
        found: String,
    },
    /// The file ends mid-block: a `version`/`serve` opener with no
    /// matching `end` line.
    Truncated {
        /// Byte offset of the block that never ended.
        offset: u64,
    },
    /// A line inside a block failed to parse.
    BadRecord {
        /// 1-based line number in the file.
        line: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A block's CRC-32 does not match its contents — a bit flip or
    /// torn write inside an otherwise well-formed block.
    Corrupt {
        /// The version the damaged block claims to hold.
        version: u64,
        /// Byte offset of the block in the file.
        offset: u64,
    },
    /// Block versions are not strictly increasing.
    VersionOrder {
        /// The out-of-order version.
        version: u64,
        /// The version that preceded it.
        previous: u64,
    },
    /// A lookup named a version the store does not hold.
    NoSuchVersion {
        /// The requested version.
        version: u64,
    },
    /// An `AS OF` lookup found no checkpoint at or before the tick.
    NoVersionAsOf {
        /// The requested tick.
        tick: u64,
    },
    /// A block decoded cleanly but contradicts the rest of the store
    /// (quality flags vs. recomputed accounting, a serve record naming
    /// a missing checkpoint, deployment shape drift, …).
    Inconsistent {
        /// The version of the offending block.
        version: u64,
        /// What the cross-check found.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "store {op} failed: {detail}"),
            StoreError::BadHeader { found } => {
                write!(f, "not a snapshot store (header line {found:?})")
            }
            StoreError::Truncated { offset } => {
                write!(f, "store truncated inside the block at byte {offset}")
            }
            StoreError::BadRecord { line, detail } => {
                write!(f, "malformed record at line {line}: {detail}")
            }
            StoreError::Corrupt { version, offset } => {
                write!(
                    f,
                    "version {version} corrupt (crc mismatch at byte {offset})"
                )
            }
            StoreError::VersionOrder { version, previous } => {
                write!(
                    f,
                    "version {version} appears after {previous}: versions must increase"
                )
            }
            StoreError::NoSuchVersion { version } => {
                write!(f, "no version {version} in the store")
            }
            StoreError::NoVersionAsOf { tick } => {
                write!(f, "no checkpoint at or before tick {tick}")
            }
            StoreError::Inconsistent { version, detail } => {
                write!(f, "version {version} inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let cases: Vec<(StoreError, &str)> = vec![
            (
                StoreError::Io {
                    op: "read",
                    detail: "denied".into(),
                },
                "store read failed: denied",
            ),
            (
                StoreError::BadHeader {
                    found: "hello".into(),
                },
                "not a snapshot store (header line \"hello\")",
            ),
            (
                StoreError::Truncated { offset: 17 },
                "store truncated inside the block at byte 17",
            ),
            (
                StoreError::BadRecord {
                    line: 4,
                    detail: "no tick".into(),
                },
                "malformed record at line 4: no tick",
            ),
            (
                StoreError::Corrupt {
                    version: 3,
                    offset: 120,
                },
                "version 3 corrupt (crc mismatch at byte 120)",
            ),
            (
                StoreError::VersionOrder {
                    version: 2,
                    previous: 5,
                },
                "version 2 appears after 5: versions must increase",
            ),
            (
                StoreError::NoSuchVersion { version: 9 },
                "no version 9 in the store",
            ),
            (
                StoreError::NoVersionAsOf { tick: 40 },
                "no checkpoint at or before tick 40",
            ),
            (
                StoreError::Inconsistent {
                    version: 1,
                    detail: "coverage drift".into(),
                },
                "version 1 inconsistent: coverage drift",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }
}
