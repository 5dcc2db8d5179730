//! Hierarchical operation spans.
//!
//! Point events (Section §11's `Event` taxonomy) say *that* something
//! happened; spans say *how long it took and on whose behalf*. A span
//! is a `span_open`/`span_close` event pair sharing an id, with a
//! parent link to the span that was innermost-open at open time — so a
//! recorded trace replays into a causality tree (election → refinement
//! round → deliver), a folded-stack flamegraph, and per-kind latency
//! histograms.
//!
//! Two clocks, one of them optional:
//!
//! * **Simulation ticks** — the network's delivery-round counter,
//!   recorded on both open and close. Always present, fully
//!   deterministic: identical seeds produce byte-identical span
//!   records.
//! * **Monotonic wall-clock nanoseconds** — only when a clock source
//!   was injected with [`Telemetry::set_wall_clock`]. The telemetry
//!   crate never reads a clock itself (`clippy.toml` forbids it below
//!   `crates/bench`); the default is
//!   `wall_ns: 0`, which keeps default traces byte-identical across
//!   machines and `--jobs` values.
//!
//! [`Telemetry::set_wall_clock`]: crate::Telemetry::set_wall_clock

/// What operation a span covers. Closed set, like [`Phase`]: per-kind
/// aggregation is an array index, not an allocation.
///
/// [`Phase`]: crate::Phase
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// One full election (discovery or maintenance).
    Election,
    /// The election's invitation phase.
    ElectionInvite,
    /// The election's candidate-list phase.
    ElectionCandidates,
    /// The election's acceptance phase.
    ElectionAccept,
    /// The election's refinement rounds.
    ElectionRefine,
    /// One maintenance cycle (heartbeats + detection + re-election).
    Maintenance,
    /// The standalone energy-handoff check.
    HandoffCheck,
    /// One spurious-representative reconciliation pass.
    Reconcile,
    /// One LEACH-style rotation cycle.
    Rotation,
    /// A fault-repair episode: a representative died, the span closes
    /// when the last orphan is re-covered.
    Repair,
    /// One `Network::deliver` round.
    Deliver,
    /// Firing due timer events from the deterministic event queue
    /// (opened only on ticks where at least one timer is due).
    Scheduler,
    /// One core-layer query execution (one epoch).
    Query,
    /// Planning one declarative query (`crates/query`).
    QueryPlan,
    /// Executing one declarative plan (all sampling epochs).
    QueryExec,
    /// The serving layer admitting one batch of submitted queries
    /// (tenant fair-share draining + plan-cache lookups).
    ServeAdmit,
    /// One shared scan executed on behalf of a batch group — every
    /// coalesced query in the group is answered from its rows.
    ServeBatch,
    /// One full serving tick: admission, batching, scans, and
    /// subscription bookkeeping.
    ServeTick,
    /// Appending one checkpoint block to a snapshot store.
    StoreWrite,
    /// Rebuilding a store index by replaying every persisted block.
    StoreRebuild,
}

impl SpanKind {
    /// Number of kinds (the size of per-kind arrays).
    pub const COUNT: usize = 20;

    /// Every kind, in canonical (report) order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Election,
        SpanKind::ElectionInvite,
        SpanKind::ElectionCandidates,
        SpanKind::ElectionAccept,
        SpanKind::ElectionRefine,
        SpanKind::Maintenance,
        SpanKind::HandoffCheck,
        SpanKind::Reconcile,
        SpanKind::Rotation,
        SpanKind::Repair,
        SpanKind::Deliver,
        SpanKind::Scheduler,
        SpanKind::Query,
        SpanKind::QueryPlan,
        SpanKind::QueryExec,
        SpanKind::ServeAdmit,
        SpanKind::ServeBatch,
        SpanKind::ServeTick,
        SpanKind::StoreWrite,
        SpanKind::StoreRebuild,
    ];

    /// Array index of this kind.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Canonical trace label.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Election => "election",
            SpanKind::ElectionInvite => "election_invite",
            SpanKind::ElectionCandidates => "election_candidates",
            SpanKind::ElectionAccept => "election_accept",
            SpanKind::ElectionRefine => "election_refine",
            SpanKind::Maintenance => "maintenance",
            SpanKind::HandoffCheck => "handoff_check",
            SpanKind::Reconcile => "reconcile",
            SpanKind::Rotation => "rotation",
            SpanKind::Repair => "repair",
            SpanKind::Deliver => "deliver",
            SpanKind::Scheduler => "scheduler",
            SpanKind::Query => "query",
            SpanKind::QueryPlan => "query_plan",
            SpanKind::QueryExec => "query_exec",
            SpanKind::ServeAdmit => "serve_admit",
            SpanKind::ServeBatch => "serve_batch",
            SpanKind::ServeTick => "serve_tick",
            SpanKind::StoreWrite => "store_write",
            SpanKind::StoreRebuild => "store_rebuild",
        }
    }

    /// Parse a canonical label.
    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Log2 bucket bounds for the per-hop delivery-latency histogram, in
/// ticks. Inclusive upper bounds; one implicit overflow bucket above.
pub const LOG2_TICKS_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_kind_once() {
        for (i, k) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{} out of order", k.as_str());
        }
    }

    #[test]
    fn labels_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(SpanKind::parse("siesta"), None);
    }

    #[test]
    fn log2_buckets_are_strictly_ascending_powers() {
        assert!(LOG2_TICKS_BUCKETS.windows(2).all(|w| w[1] == w[0] * 2));
    }
}
