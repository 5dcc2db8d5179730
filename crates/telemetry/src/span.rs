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

use crate::recorder::Telemetry;

/// What operation a span covers. Closed set, like [`Phase`]: per-kind
/// aggregation is a static-string key, not an allocation.
///
/// [`Phase`]: crate::Phase
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Every kind, in canonical (report) order.
    pub const ALL: [SpanKind; 20] = [
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

    /// Registry counter name for closed spans of this kind.
    pub fn counter_label(self) -> &'static str {
        match self {
            SpanKind::Election => "span_election",
            SpanKind::ElectionInvite => "span_election_invite",
            SpanKind::ElectionCandidates => "span_election_candidates",
            SpanKind::ElectionAccept => "span_election_accept",
            SpanKind::ElectionRefine => "span_election_refine",
            SpanKind::Maintenance => "span_maintenance",
            SpanKind::HandoffCheck => "span_handoff_check",
            SpanKind::Reconcile => "span_reconcile",
            SpanKind::Rotation => "span_rotation",
            SpanKind::Repair => "span_repair",
            SpanKind::Deliver => "span_deliver",
            SpanKind::Scheduler => "span_scheduler",
            SpanKind::Query => "span_query",
            SpanKind::QueryPlan => "span_query_plan",
            SpanKind::QueryExec => "span_query_exec",
            SpanKind::ServeAdmit => "span_serve_admit",
            SpanKind::ServeBatch => "span_serve_batch",
            SpanKind::ServeTick => "span_serve_tick",
            SpanKind::StoreWrite => "span_store_write",
            SpanKind::StoreRebuild => "span_store_rebuild",
        }
    }

    /// Registry histogram name for this kind's sim-tick latency.
    pub fn ticks_hist_label(self) -> &'static str {
        match self {
            SpanKind::Election => "span_ticks_election",
            SpanKind::ElectionInvite => "span_ticks_election_invite",
            SpanKind::ElectionCandidates => "span_ticks_election_candidates",
            SpanKind::ElectionAccept => "span_ticks_election_accept",
            SpanKind::ElectionRefine => "span_ticks_election_refine",
            SpanKind::Maintenance => "span_ticks_maintenance",
            SpanKind::HandoffCheck => "span_ticks_handoff_check",
            SpanKind::Reconcile => "span_ticks_reconcile",
            SpanKind::Rotation => "span_ticks_rotation",
            SpanKind::Repair => "span_ticks_repair",
            SpanKind::Deliver => "span_ticks_deliver",
            SpanKind::Scheduler => "span_ticks_scheduler",
            SpanKind::Query => "span_ticks_query",
            SpanKind::QueryPlan => "span_ticks_query_plan",
            SpanKind::QueryExec => "span_ticks_query_exec",
            SpanKind::ServeAdmit => "span_ticks_serve_admit",
            SpanKind::ServeBatch => "span_ticks_serve_batch",
            SpanKind::ServeTick => "span_ticks_serve_tick",
            SpanKind::StoreWrite => "span_ticks_store_write",
            SpanKind::StoreRebuild => "span_ticks_store_rebuild",
        }
    }

    /// Registry counter name accumulating this kind's wall-clock
    /// nanoseconds (only bumped when a wall clock was injected).
    pub fn wall_counter_label(self) -> &'static str {
        match self {
            SpanKind::Election => "span_wall_ns_election",
            SpanKind::ElectionInvite => "span_wall_ns_election_invite",
            SpanKind::ElectionCandidates => "span_wall_ns_election_candidates",
            SpanKind::ElectionAccept => "span_wall_ns_election_accept",
            SpanKind::ElectionRefine => "span_wall_ns_election_refine",
            SpanKind::Maintenance => "span_wall_ns_maintenance",
            SpanKind::HandoffCheck => "span_wall_ns_handoff_check",
            SpanKind::Reconcile => "span_wall_ns_reconcile",
            SpanKind::Rotation => "span_wall_ns_rotation",
            SpanKind::Repair => "span_wall_ns_repair",
            SpanKind::Deliver => "span_wall_ns_deliver",
            SpanKind::Scheduler => "span_wall_ns_scheduler",
            SpanKind::Query => "span_wall_ns_query",
            SpanKind::QueryPlan => "span_wall_ns_query_plan",
            SpanKind::QueryExec => "span_wall_ns_query_exec",
            SpanKind::ServeAdmit => "span_wall_ns_serve_admit",
            SpanKind::ServeBatch => "span_wall_ns_serve_batch",
            SpanKind::ServeTick => "span_wall_ns_serve_tick",
            SpanKind::StoreWrite => "span_wall_ns_store_write",
            SpanKind::StoreRebuild => "span_wall_ns_store_rebuild",
        }
    }
}

/// Log2 bucket bounds for tick-valued latency histograms (span
/// durations, per-hop delivery latency). Inclusive upper bounds; one
/// implicit overflow bucket above.
pub const LOG2_TICKS_BUCKETS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
];

/// RAII wrapper over [`Telemetry::open_span`] /
/// [`Telemetry::close_span`] for contexts that hold the hub
/// exclusively (query planning, tests). Simulator code that threads
/// `&mut Network` through the span's body uses the id-based API
/// instead — a guard's borrow would block it.
///
/// The guard closes at the tick it was opened with unless
/// [`SpanGuard::advance_to`] raised it.
///
/// [`Telemetry::open_span`]: crate::Telemetry::open_span
/// [`Telemetry::close_span`]: crate::Telemetry::close_span
#[derive(Debug)]
pub struct SpanGuard<'a> {
    telemetry: &'a mut Telemetry,
    id: u64,
    close_tick: u64,
}

impl<'a> SpanGuard<'a> {
    /// Open a span of `kind` at `tick` on `telemetry`.
    pub fn open(telemetry: &'a mut Telemetry, tick: u64, kind: SpanKind) -> Self {
        let id = telemetry.open_span(tick, kind);
        SpanGuard {
            telemetry,
            id,
            close_tick: tick,
        }
    }

    /// The wrapped span's id (0 when telemetry is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Move the close timestamp forward (never backward).
    pub fn advance_to(&mut self, tick: u64) {
        self.close_tick = self.close_tick.max(tick);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.telemetry.close_span(self.close_tick, self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn labels_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
            assert!(k.counter_label().starts_with("span_"));
            assert!(k.ticks_hist_label().starts_with("span_ticks_"));
            assert!(k.wall_counter_label().starts_with("span_wall_ns_"));
        }
        assert_eq!(SpanKind::parse("siesta"), None);
    }

    #[test]
    fn log2_buckets_are_strictly_ascending_powers() {
        assert!(LOG2_TICKS_BUCKETS.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn guard_opens_and_closes_one_span() {
        let mut t = Telemetry::with_ring(16);
        {
            let mut g = SpanGuard::open(&mut t, 5, SpanKind::QueryPlan);
            assert!(g.id() > 0);
            g.advance_to(7);
            g.advance_to(6); // never moves backward
        }
        let events = t.ring().expect("ring").events();
        assert!(matches!(
            events[0],
            Event::SpanOpen {
                tick: 5,
                parent: 0,
                span: SpanKind::QueryPlan,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            Event::SpanClose {
                tick: 7,
                open_tick: 5,
                wall_ns: 0,
                ..
            }
        ));
    }

    #[test]
    fn guard_on_disabled_hub_is_a_noop() {
        let mut t = Telemetry::off();
        {
            let g = SpanGuard::open(&mut t, 1, SpanKind::Query);
            assert_eq!(g.id(), 0);
        }
        assert!(!t.enabled());
    }
}
