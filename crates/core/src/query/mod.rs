//! Snapshot query execution (Sections 3.1 and 6.2).
//!
//! A query names a spatial predicate, an optional aggregate (absent
//! for drill-through queries, which return per-node rows), and a mode:
//!
//! * [`QueryMode::Regular`] — every alive node matching the predicate
//!   responds through the aggregation tree (the paper's baseline).
//! * [`QueryMode::Snapshot`] — only representatives respond: a node
//!   contributes when it is unrepresented and matches, or when it
//!   represents a matching node (answering with its model's estimate).
//!
//! The result carries the paper's two headline metrics: the number of
//! *participants* (responders plus routing nodes — Table 3 compares
//! these across modes) and *coverage* (available measurements over
//! the infinite-battery ideal — Figure 10).

mod aggregate;
mod exec;
mod predicate;
pub mod tag;
mod value_filter;

pub use aggregate::Aggregate;
pub use exec::{execute, execute_frozen, QueryResult};
pub(crate) use exec::{execute_with, Readings};
pub use predicate::SpatialPredicate;
pub use tag::{execute_tag, TagResult};
pub use value_filter::{Comparison, ValueFilter};

/// Whether a query runs over all nodes or the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Every matching node responds (no `USE SNAPSHOT`).
    Regular,
    /// Only representatives respond (`USE SNAPSHOT`).
    Snapshot,
}

/// A query against the sensor network.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotQuery {
    /// Which nodes the query addresses.
    pub predicate: SpatialPredicate,
    /// The aggregate to compute; `None` means drill-through
    /// (per-node rows).
    pub aggregate: Option<Aggregate>,
    /// Execution mode.
    pub mode: QueryMode,
    /// Route partial aggregates through representative nodes when a
    /// same-length path exists — the refinement the paper sketches
    /// after Table 3 ("favor ... representative nodes for routing"),
    /// which further reduces the number of participating nodes. Only
    /// meaningful in [`QueryMode::Snapshot`].
    pub prefer_representative_routing: bool,
    /// Optional measurement predicate (`WHERE temperature > 5`).
    /// Under [`QueryMode::Snapshot`] the filter is evaluated on the
    /// representative's *estimate* — the approximate-selection
    /// semantics that make the snapshot useful for alert-style
    /// queries without waking the members.
    pub value_filter: Option<ValueFilter>,
}

impl SnapshotQuery {
    /// An aggregate query.
    pub fn aggregate(predicate: SpatialPredicate, aggregate: Aggregate, mode: QueryMode) -> Self {
        SnapshotQuery {
            predicate,
            aggregate: Some(aggregate),
            mode,
            prefer_representative_routing: false,
            value_filter: None,
        }
    }

    /// A drill-through query returning per-node measurements.
    pub fn drill_through(predicate: SpatialPredicate, mode: QueryMode) -> Self {
        SnapshotQuery {
            predicate,
            aggregate: None,
            mode,
            prefer_representative_routing: false,
            value_filter: None,
        }
    }

    /// Enable representative-favoring routing (see the field docs).
    pub fn with_representative_routing(mut self) -> Self {
        self.prefer_representative_routing = true;
        self
    }

    /// Restrict the query to measurements satisfying the filter.
    pub fn with_value_filter(mut self, filter: ValueFilter) -> Self {
        self.value_filter = Some(filter);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_shape() {
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Snapshot);
        assert_eq!(q.aggregate, Some(Aggregate::Sum));
        let d = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Regular);
        assert_eq!(d.aggregate, None);
        assert_eq!(d.mode, QueryMode::Regular);
    }
}
