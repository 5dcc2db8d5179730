//! Error type for the snapshot core.
//!
//! The protocol crates are panic-free in library code (enforced by
//! clippy's workspace lints, DESIGN.md §10): conditions that used to
//! `expect` now
//! surface here so callers decide whether to degrade or abort.

use std::fmt;

/// Errors surfaced by the snapshot protocol and query execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreError {
    /// TAG execution was requested for a query with no aggregate
    /// function (TAG computes aggregates in-network; a selection
    /// query has nothing to aggregate).
    MissingAggregate,
    /// A least-squares fit was requested on statistics whose `x` has
    /// no variance (including `n <= 1`); Lemma 1's denominator
    /// vanishes and no unique line exists.
    DegenerateFit {
        /// Number of cached pairs.
        n: u32,
        /// Mean of the cached `y` values — the optimal constant
        /// fallback when the caller chooses to degrade.
        mean_y: f64,
    },
    /// A query was issued while the network has no usable nodes (the
    /// sink is dead, or every node is dead — e.g. after a region
    /// blackout injected by the fault engine). Queries on an
    /// unavailable network return this typed error instead of
    /// panicking or reporting zero coverage as if it were data.
    NetworkUnavailable {
        /// Number of alive nodes at query time (0 when the whole
        /// network is down; non-zero means the sink itself was dead).
        alive: usize,
    },
    /// A checkpoint failed structural validation (vector lengths
    /// disagree, an id points outside the deployment, or cache-line
    /// statistics contradict the pair count) — surfaced instead of
    /// indexing panics when store-decoded data is rehydrated.
    InvalidCheckpoint {
        /// What failed, for diagnostics.
        detail: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MissingAggregate => {
                f.write_str("TAG execution requires an aggregate function")
            }
            CoreError::DegenerateFit { n, mean_y } => write!(
                f,
                "least-squares fit is degenerate ({n} pair(s), zero x-variance); \
                 constant fallback would be {mean_y}"
            ),
            CoreError::NetworkUnavailable { alive } => write!(
                f,
                "query issued on an unavailable network ({alive} node(s) alive)"
            ),
            CoreError::InvalidCheckpoint { detail } => {
                write!(f, "invalid checkpoint: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        assert!(CoreError::MissingAggregate
            .to_string()
            .contains("aggregate"));
        let e = CoreError::DegenerateFit { n: 1, mean_y: 2.5 };
        assert!(e.to_string().contains("1 pair"));
        assert!(e.to_string().contains("2.5"));
        let e = CoreError::NetworkUnavailable { alive: 0 };
        assert!(e.to_string().contains("unavailable"));
        assert!(e.to_string().contains("0 node"));
        let e = CoreError::InvalidCheckpoint {
            detail: "node count",
        };
        assert!(e.to_string().contains("invalid checkpoint"));
        assert!(e.to_string().contains("node count"));
    }
}
