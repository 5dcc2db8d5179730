//! # snapshot-telemetry
//!
//! Deterministic observability for the snapshot-queries workspace:
//! typed protocol events, a ring-buffer recorder, aggregate metrics,
//! and a hand-rolled JSONL trace format that replays bit-for-bit.
//!
//! The paper's evaluation (Kotidis, ICDE 2005) is built on counting
//! things: messages per election phase (Table 2), energy per node over
//! time (Figures 8–10), cache hit behaviour under byte budgets. The
//! seed repo computed those numbers ad hoc inside each experiment;
//! this crate gives the workspace one shared, allocation-light event
//! pipeline instead:
//!
//! * [`Event`] — every protocol occurrence worth recording, as a
//!   `Copy` enum timestamped by **simulation tick** (the network's
//!   delivery-round counter). Wall-clock time never appears: a trace
//!   recorded from seed *s* is byte-identical on every machine and
//!   every run.
//! * [`Phase`] — interned protocol-phase labels (previously free-form
//!   `String`s), so per-phase counters are fixed-size array lookups.
//! * The sinks. [`RingRecorder`] keeps the last *N* events in a
//!   bounded buffer; [`MetricsRegistry`] folds them into fixed, typed
//!   storage: per-kind span totals, a per-hop latency histogram and a
//!   per-node × per-phase energy table. Message counts are not kept
//!   here: `NetStats` (netsim) owns them.
//! * [`Telemetry`] — the hub the simulator embeds: optional ring +
//!   optional registry behind one `#[inline]` `enabled()` branch, so
//!   the disabled pipeline costs nothing measurable on hot paths.
//! * [`jsonl`] — serde-free JSONL export/import of traces.
//! * [`SpanKind`] — hierarchical operation spans
//!   (`span_open`/`span_close` event pairs with parent links and dual
//!   sim-tick / optional wall-clock timestamps), the causality layer
//!   over the point events.
//! * [`TraceSummary`] — replay a trace into election segments, query
//!   spans, a span tree (per-kind latency stats, folded-stack
//!   flamegraph export) and per-phase totals, and check paper
//!   invariants like the ≤ 6-messages-per-node election budget.
//! * [`PerfBudget`] — committed span-level ceilings
//!   (`PERF_BUDGET.toml`) checked against replayed traces in CI.
//!
//! This crate sits at the bottom of the workspace dependency graph
//! and depends on nothing (not even the simulator — node identities
//! are raw `u32`s).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod event;
pub mod jsonl;
pub mod phase;
pub mod recorder;
pub mod registry;
pub mod replay;
pub mod span;

pub use budget::{BudgetMetric, BudgetRule, BudgetViolation, PerfBudget};
pub use event::{CacheOutcome, Event, FaultTag, QueryStatus};
pub use phase::Phase;
pub use recorder::{RingRecorder, Telemetry};
pub use registry::{Histogram, MetricsRegistry, PerNodePhase, SpanTotals};
pub use replay::{
    ElectionSegment, ElectionViolation, QuerySpan, Span, SpanKindStats, TraceSummary,
};
pub use span::{SpanKind, LOG2_TICKS_BUCKETS};
