//! The metrics registry: fixed, typed storage for the three
//! aggregates the workspace reads — closed spans per kind (count and
//! wall time), the per-hop delivery-latency histogram, and the
//! per-node × per-phase energy table that the paper's Figures 8–10
//! are built from.
//!
//! Every other count has one owner elsewhere: messages are
//! `NetStats`'s (netsim), plan-cache lookups are `ServeStats`'s
//! (query), and events by kind are [`TraceSummary::kind_counts`]'s.
//! The registry folds the typed event stream like any other sink
//! ([`MetricsRegistry::record`]); every write is typed, and names
//! appear only in the one export lookup, [`MetricsRegistry::counter`].
//!
//! Determinism: the span and histogram cells are fixed arrays; the
//! energy table is a flat vector of per-node rows grown on demand.
//!
//! [`TraceSummary::kind_counts`]: crate::TraceSummary::kind_counts

use crate::event::Event;
use crate::phase::Phase;
use crate::span::{SpanKind, LOG2_TICKS_BUCKETS};

/// Per-node, per-phase accumulation table, grown on demand.
#[derive(Debug, Clone, Default)]
pub struct PerNodePhase<T> {
    rows: Vec<[T; Phase::COUNT]>,
}

impl<T: Copy + Default> PerNodePhase<T> {
    /// An empty table.
    pub fn new() -> Self {
        PerNodePhase { rows: Vec::new() }
    }

    /// Number of node rows currently allocated.
    pub fn nodes(&self) -> usize {
        self.rows.len()
    }

    /// The cell for `(node, phase)`, default when never touched.
    pub fn get(&self, node: u32, phase: Phase) -> T {
        self.rows
            .get(node as usize)
            .map_or_else(T::default, |row| row[phase.index()])
    }

    /// Mutable cell access, growing the table as needed.
    pub fn cell_mut(&mut self, node: u32, phase: Phase) -> &mut T {
        let idx = node as usize;
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, [T::default(); Phase::COUNT]);
        }
        &mut self.rows[idx][phase.index()]
    }

    /// Iterate `(node, row)` over allocated rows.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[T; Phase::COUNT])> {
        self.rows.iter().enumerate().map(|(i, r)| (i as u32, r))
    }
}

impl<T: Copy + Default + std::ops::AddAssign> PerNodePhase<T> {
    /// Cell-wise accumulate `other` into `self`, growing as needed.
    pub fn merge(&mut self, other: &PerNodePhase<T>) {
        if other.rows.len() > self.rows.len() {
            self.rows
                .resize(other.rows.len(), [T::default(); Phase::COUNT]);
        }
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for (cell, &v) in mine.iter_mut().zip(theirs) {
                *cell += v;
            }
        }
    }
}

/// A histogram over [`LOG2_TICKS_BUCKETS`], with one implicit
/// overflow bucket.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: [u64; LOG2_TICKS_BUCKETS.len() + 1],
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = LOG2_TICKS_BUCKETS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(LOG2_TICKS_BUCKETS.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Accumulate `other` into `self`, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// `(upper_bound, count)` pairs; the final pair uses `u64::MAX` as
    /// the overflow bound.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        LOG2_TICKS_BUCKETS
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }

    /// The bucket upper bound at quantile `q` (nearest-rank over
    /// bucket counts), or `None` when empty. The overflow bucket
    /// reports as `u64::MAX`. Bucketed quantiles over-estimate by at
    /// most one bucket width — fine for log2 latency buckets.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bound, count) in self.buckets() {
            seen += count;
            if seen >= rank {
                return Some(bound);
            }
        }
        Some(u64::MAX)
    }

    /// The upper bound of the highest non-empty bucket, or `None` when
    /// empty (a bucketed stand-in for the max observation).
    pub fn max_bound(&self) -> Option<u64> {
        self.buckets()
            .filter(|&(_, count)| count > 0)
            .map(|(bound, _)| bound)
            .last()
    }
}

/// Closed spans of one kind: how many, and their summed wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans of this kind closed.
    pub count: u64,
    /// Their summed wall-clock nanoseconds (0 unless a wall clock was
    /// injected with [`Telemetry::set_wall_clock`]).
    ///
    /// [`Telemetry::set_wall_clock`]: crate::Telemetry::set_wall_clock
    pub wall_ns: u64,
}

/// The aggregate view of a run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Closed spans, indexed by [`SpanKind::index`].
    spans: [SpanTotals; SpanKind::COUNT],
    /// Per-hop delivery latency (send tick → delivery tick).
    hop_latency: Histogram,
    /// Energy drawn (transmission equivalents), per node × phase.
    energy: PerNodePhase<f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Fold one event. Only energy draws and span closes feed the
    /// registry; the match has no wildcard arm, so a new `Event` fails
    /// to compile here until it is placed on one side or the other.
    // Reached only behind `enabled()`; the energy table grows on a
    // node's first draw, then updates in place.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn record(&mut self, ev: &Event) {
        match *ev {
            Event::EnergyDraw {
                node,
                phase,
                amount,
                ..
            } => *self.energy.cell_mut(node, phase) += amount,
            Event::SpanClose { span, wall_ns, .. } => {
                let totals = &mut self.spans[span.index()];
                totals.count += 1;
                totals.wall_ns += wall_ns;
            }
            Event::MsgSent { .. }
            | Event::MsgDropped { .. }
            | Event::NodeFailed { .. }
            | Event::ElectionPhase { .. }
            | Event::InviteAccepted { .. }
            | Event::Represented { .. }
            | Event::CacheAdmit { .. }
            | Event::CacheEvict { .. }
            | Event::ModelRefit { .. }
            | Event::HandoffTriggered { .. }
            | Event::QueryBegin { .. }
            | Event::QueryEnd { .. }
            | Event::FaultInjected { .. }
            | Event::NodeRecovered { .. }
            | Event::LinkStateFlipped { .. }
            | Event::PlanCacheLookup { .. }
            | Event::SpanOpen { .. } => {}
        }
    }

    /// Closed spans of `kind`: their count and summed wall time.
    pub fn span_totals(&self, kind: SpanKind) -> SpanTotals {
        self.spans[kind.index()]
    }

    /// A span total by its export name: `span_<kind>` counts closed
    /// spans of a kind, `span_wall_ns_<kind>` sums their wall time.
    /// Any other name reads 0.
    pub fn counter(&self, name: &str) -> u64 {
        let totals = |label: &str| SpanKind::parse(label).map(|k| self.span_totals(k));
        if let Some(label) = name.strip_prefix("span_wall_ns_") {
            totals(label).map_or(0, |t| t.wall_ns)
        } else if let Some(label) = name.strip_prefix("span_") {
            totals(label).map_or(0, |t| t.count)
        } else {
            0
        }
    }

    /// Record one per-hop delivery latency (in simulation ticks). In
    /// the synchronous delivery model every hop is exactly 1 tick, so
    /// the histogram is an invariant check the `trace` experiment
    /// prints.
    pub fn observe_hop_latency(&mut self, ticks: u64) {
        self.hop_latency.observe(ticks);
    }

    /// The per-hop delivery-latency histogram.
    pub fn hop_latency(&self) -> &Histogram {
        &self.hop_latency
    }

    /// Energy `node` drew in `phase`, in transmission equivalents.
    pub fn energy_in(&self, node: u32, phase: Phase) -> f64 {
        self.energy.get(node, phase)
    }

    /// Network-wide energy drawn in one phase.
    pub fn phase_energy(&self, phase: Phase) -> f64 {
        self.energy.iter().map(|(_, row)| row[phase.index()]).sum()
    }

    /// Fold `other` into `self`: span totals, the histogram and the
    /// energy table all accumulate cell by cell.
    ///
    /// Merging is deterministic: each traced network owns a private
    /// registry, and callers fold them in a fixed order, so the merged
    /// aggregate does not depend on which worker thread finished first.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (mine, theirs) in self.spans.iter_mut().zip(&other.spans) {
            mine.count += theirs.count;
            mine.wall_ns += theirs.wall_ns;
        }
        self.hop_latency.merge(&other.hop_latency);
        self.energy.merge(&other.energy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_phase_grows_on_demand() {
        let mut t: PerNodePhase<u64> = PerNodePhase::new();
        assert_eq!(t.get(5, Phase::Data), 0);
        *t.cell_mut(5, Phase::Data) += 3;
        assert_eq!(t.get(5, Phase::Data), 3);
        assert_eq!(t.nodes(), 6);
        assert_eq!(t.get(2, Phase::Data), 0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_with_overflow() {
        let mut h = Histogram::default();
        h.observe(2);
        h.observe(3);
        h.observe(90_000);
        let buckets: Vec<(u64, u64)> = h.buckets().filter(|&(_, c)| c > 0).collect();
        assert_eq!(buckets, vec![(2, 1), (4, 1), (u64::MAX, 1)]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum(), 90_005);
    }

    #[test]
    fn registry_folds_events_into_aggregates() {
        let mut m = MetricsRegistry::new();
        m.record(&Event::EnergyDraw {
            tick: 1,
            node: 2,
            phase: Phase::Invitation,
            amount: 1.0,
        });
        m.record(&Event::EnergyDraw {
            tick: 2,
            node: 2,
            phase: Phase::Cache,
            amount: 0.1,
        });
        assert!((m.energy_in(2, Phase::Invitation) - 1.0).abs() < 1e-12);
        assert!((m.energy_in(2, Phase::Cache) - 0.1).abs() < 1e-12);
        assert!((m.phase_energy(Phase::Cache) - 0.1).abs() < 1e-12);
        assert_eq!(m.energy_in(3, Phase::Cache), 0.0);
    }

    #[test]
    fn merge_accumulates_counters_histograms_and_tables() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.spans[SpanKind::Deliver.index()].count = 2;
        b.spans[SpanKind::Deliver.index()].count = 3;
        b.spans[SpanKind::Query.index()].wall_ns = 40;
        a.observe_hop_latency(1);
        b.observe_hop_latency(1);
        b.observe_hop_latency(90_000);
        *a.energy.cell_mut(1, Phase::Data) += 5.0;
        *b.energy.cell_mut(1, Phase::Data) += 7.0;
        *b.energy.cell_mut(9, Phase::Query) += 1.5;

        a.merge(&b);
        assert_eq!(a.span_totals(SpanKind::Deliver).count, 5);
        assert_eq!(a.span_totals(SpanKind::Query).wall_ns, 40);
        assert_eq!(a.hop_latency().total(), 3);
        assert_eq!(a.hop_latency().sum(), 90_002);
        assert_eq!(a.energy_in(1, Phase::Data), 12.0);
        assert!((a.energy_in(9, Phase::Query) - 1.5).abs() < 1e-12);
        // Table grew to cover b's widest row.
        assert_eq!(a.energy.nodes(), 10);
    }

    #[test]
    fn merge_order_of_many_registries_is_associative_on_integers() {
        let regs: Vec<MetricsRegistry> = (0..4)
            .map(|i| {
                let mut m = MetricsRegistry::new();
                m.spans[SpanKind::Deliver.index()].count = i + 1;
                // Integral energy sums are exact in f64, so any merge
                // order must agree bit for bit.
                *m.energy.cell_mut(i as u32, Phase::Data) += (i + 1) as f64;
                m
            })
            .collect();
        let mut left = MetricsRegistry::new();
        for r in &regs {
            left.merge(r);
        }
        let mut pairwise = MetricsRegistry::new();
        let mut first = regs[0].clone();
        first.merge(&regs[1]);
        let mut second = regs[2].clone();
        second.merge(&regs[3]);
        pairwise.merge(&first);
        pairwise.merge(&second);
        assert_eq!(
            left.span_totals(SpanKind::Deliver),
            pairwise.span_totals(SpanKind::Deliver)
        );
        for n in 0..4 {
            assert_eq!(
                left.energy_in(n, Phase::Data).to_bits(),
                pairwise.energy_in(n, Phase::Data).to_bits()
            );
        }
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = Histogram::default();
        for v in [1, 1, 1, 1, 1, 2, 2, 4, 8, 90_000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.7), Some(2));
        assert_eq!(h.quantile(0.9), Some(8));
        assert_eq!(h.quantile(0.99), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.max_bound(), Some(u64::MAX));
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn hop_latency_folds_into_named_histogram() {
        let mut m = MetricsRegistry::new();
        m.observe_hop_latency(1);
        m.observe_hop_latency(1);
        m.observe_hop_latency(3);
        let h = m.hop_latency();
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum(), 5);
        assert_eq!(h.quantile(0.5), Some(1));
    }

    #[test]
    fn span_close_folds_per_kind_latency() {
        let mut m = MetricsRegistry::new();
        m.record(&Event::SpanOpen {
            tick: 10,
            id: 1,
            parent: 0,
            span: SpanKind::Election,
        });
        m.record(&Event::SpanClose {
            tick: 14,
            id: 1,
            span: SpanKind::Election,
            open_tick: 10,
            wall_ns: 2_500,
        });
        assert_eq!(
            m.span_totals(SpanKind::Election),
            SpanTotals {
                count: 1,
                wall_ns: 2_500
            }
        );
        assert_eq!(m.span_totals(SpanKind::Deliver), SpanTotals::default());
    }

    #[test]
    fn counter_resolves_the_span_export_names() {
        let mut m = MetricsRegistry::new();
        m.record(&Event::SpanClose {
            tick: 3,
            id: 1,
            span: SpanKind::ElectionAccept,
            open_tick: 2,
            wall_ns: 700,
        });
        assert_eq!(m.counter("span_election_accept"), 1);
        assert_eq!(m.counter("span_wall_ns_election_accept"), 700);
        assert_eq!(m.counter("span_election"), 0);
        for unknown in [
            "span_siesta",
            "span_wall_ns_",
            "msg_sent",
            "election_accept",
        ] {
            assert_eq!(m.counter(unknown), 0, "{unknown}");
        }
    }
}
