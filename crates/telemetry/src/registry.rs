//! The metrics registry: named counters and gauges, fixed-bucket
//! histograms, and the per-node × per-phase energy breakdown that the
//! paper's Figures 8–10 are built from. Per-node message counts are
//! `NetStats`'s (netsim); the registry keeps the network-wide
//! `msg_sent` and `msg_dropped` counters.
//!
//! The registry is itself a [`Recorder`]: it folds the typed event
//! stream into aggregates, so one publish path (events) serves both
//! the trace and the metrics. Protocol code may also bump counters
//! directly through [`MetricsRegistry::inc`] for quantities that have
//! no event of their own.
//!
//! Determinism: all maps are `BTreeMap` keyed by `&'static str`
//! (stable iteration order); per-node state lives in flat vectors
//! grown on demand.

use crate::event::Event;
use crate::phase::Phase;
use crate::recorder::Recorder;
use crate::span::LOG2_TICKS_BUCKETS;
use std::collections::BTreeMap;

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

    /// One node's full phase row (zeros when never touched).
    pub fn row(&self, node: u32) -> [T; Phase::COUNT] {
        self.rows
            .get(node as usize)
            .copied()
            .unwrap_or([T::default(); Phase::COUNT])
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

/// A histogram over fixed, caller-supplied bucket upper bounds
/// (inclusive), with one implicit overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with the given ascending inclusive upper bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
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

    /// Accumulate `other` into `self`. Both histograms must share the
    /// same bucket bounds (they do when both were created by the same
    /// `observe_hist` call site).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// `(upper_bound, count)` pairs; the final pair uses `u64::MAX` as
    /// the overflow bound.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
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

/// Default byte-size buckets for message-size histograms.
pub const BYTES_BUCKETS: &[u64] = &[4, 8, 16, 32, 64, 128, 256, 1024];

/// Histogram name for per-hop delivery latency (send tick → delivery
/// tick).
pub const HOP_LATENCY_HIST: &str = "hop_latency_ticks";

/// The aggregate view of a run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Energy drawn (transmission equivalents), per node × phase.
    energy: PerNodePhase<f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Bump a named counter.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Read a named counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a named gauge.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Read a named gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record into a named fixed-bucket histogram (created with
    /// `bounds` on first touch).
    pub fn observe_hist(&mut self, name: &'static str, bounds: &'static [u64], value: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Read a named histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Record one per-hop delivery latency (in simulation ticks) into
    /// the [`HOP_LATENCY_HIST`] histogram. In the current synchronous
    /// model every hop is exactly 1 tick — the histogram is an
    /// invariant check today and the measurement substrate for the
    /// event-driven core (ROADMAP item 2), where messages can queue.
    // `deliver` calls this only when a registry is attached; the
    // histogram allocates on first touch, then updates in place.
    pub fn observe_hop_latency(&mut self, ticks: u64) {
        self.observe_hist(HOP_LATENCY_HIST, LOG2_TICKS_BUCKETS, ticks);
    }

    /// Iterate `(name, value)` over counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Energy `node` drew in `phase`, in transmission equivalents.
    pub fn energy_in(&self, node: u32, phase: Phase) -> f64 {
        self.energy.get(node, phase)
    }

    /// Total energy `node` drew across phases.
    pub fn node_energy(&self, node: u32) -> f64 {
        self.energy.row(node).iter().sum()
    }

    /// Network-wide energy drawn in one phase.
    pub fn phase_energy(&self, phase: Phase) -> f64 {
        self.energy.iter().map(|(_, row)| row[phase.index()]).sum()
    }

    /// Network-wide energy drawn, all nodes and phases.
    pub fn total_energy(&self) -> f64 {
        self.energy
            .iter()
            .map(|(_, row)| row.iter().sum::<f64>())
            .sum()
    }

    /// The per-node × per-phase energy table.
    pub fn energy_table(&self) -> &PerNodePhase<f64> {
        &self.energy
    }

    /// Fold `other` into `self`: counters, histograms, and the
    /// per-node × per-phase energy table accumulate; gauges take `other`'s
    /// value (a gauge is a level, not a flow — summing two runs'
    /// "cache_bytes_used" would be meaningless, so last merge wins and
    /// callers that need per-run gauges must read them before merging).
    ///
    /// Merging is deterministic: parallel experiment cells each own a
    /// private registry, and the harness folds them in canonical
    /// repetition order, so the merged aggregate is byte-identical no
    /// matter which worker thread finished first.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name, *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.entry(name) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(h),
            }
        }
        self.energy.merge(&other.energy);
    }
}

impl Recorder for MetricsRegistry {
    // Reached only behind `enabled()`; a counter or histogram
    // allocates on first touch, then updates in place.
    fn record(&mut self, ev: &Event) {
        match *ev {
            Event::MsgSent { bytes, .. } => {
                self.inc("msg_sent", 1);
                self.observe_hist("msg_bytes", BYTES_BUCKETS, u64::from(bytes));
            }
            Event::MsgDropped { .. } => self.inc("msg_dropped", 1),
            Event::EnergyDraw {
                node,
                phase,
                amount,
                ..
            } => {
                *self.energy.cell_mut(node, phase) += amount;
            }
            Event::NodeFailed { .. } => self.inc("node_failed", 1),
            Event::ElectionPhase { .. } => self.inc("election_phase", 1),
            Event::InviteAccepted { .. } => self.inc("invite_accepted", 1),
            Event::Represented { .. } => self.inc("represented", 1),
            Event::CacheAdmit { outcome, .. } => {
                if outcome.admitted() {
                    self.inc("cache_admit", 1);
                } else {
                    self.inc("cache_reject", 1);
                }
            }
            Event::CacheEvict { .. } => self.inc("cache_evict", 1),
            Event::ModelRefit { .. } => self.inc("model_refit", 1),
            Event::HandoffTriggered { .. } => self.inc("handoff", 1),
            Event::QueryBegin { .. } => self.inc("query_begin", 1),
            Event::QueryEnd { participants, .. } => {
                self.inc("query_end", 1);
                self.inc("query_participants", u64::from(participants));
            }
            Event::FaultInjected { .. } => self.inc("fault_injected", 1),
            Event::NodeRecovered { .. } => self.inc("node_recovered", 1),
            Event::LinkStateFlipped { .. } => self.inc("link_state_flip", 1),
            Event::PlanCacheLookup { hit, .. } => {
                if hit {
                    self.inc("plan_cache_hit", 1);
                } else {
                    self.inc("plan_cache_miss", 1);
                }
            }
            Event::SpanOpen { .. } => self.inc("span_open", 1),
            Event::SpanClose {
                tick,
                span,
                open_tick,
                wall_ns,
                ..
            } => {
                self.inc("span_close", 1);
                self.inc(span.counter_label(), 1);
                self.observe_hist(
                    span.ticks_hist_label(),
                    LOG2_TICKS_BUCKETS,
                    tick.saturating_sub(open_tick),
                );
                if wall_ns > 0 {
                    self.inc(span.wall_counter_label(), wall_ns);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheOutcome;

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
        let mut h = Histogram::new(&[4, 8]);
        h.observe(4);
        h.observe(5);
        h.observe(9000);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(4, 1), (8, 1), (u64::MAX, 1)]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum(), 9009);
    }

    #[test]
    fn registry_folds_events_into_aggregates() {
        let mut m = MetricsRegistry::new();
        m.record(&Event::MsgSent {
            tick: 1,
            node: 2,
            phase: Phase::Invitation,
            bytes: 12,
        });
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
        m.record(&Event::MsgDropped {
            tick: 2,
            src: 2,
            dst: 3,
            phase: Phase::Invitation,
        });
        m.record(&Event::CacheAdmit {
            tick: 2,
            node: 2,
            neighbor: 3,
            outcome: CacheOutcome::Rejected,
            used_bytes: 16,
            budget_bytes: 64,
        });

        assert_eq!(m.counter("msg_sent"), 1);
        assert_eq!(m.counter("msg_dropped"), 1);
        assert_eq!(m.counter("cache_reject"), 1);
        assert!((m.energy_in(2, Phase::Invitation) - 1.0).abs() < 1e-12);
        assert!((m.node_energy(2) - 1.1).abs() < 1e-12);
        assert!((m.phase_energy(Phase::Cache) - 0.1).abs() < 1e-12);
        assert!((m.total_energy() - 1.1).abs() < 1e-12);
        assert_eq!(m.histogram("msg_bytes").map(Histogram::total), Some(1));
    }

    #[test]
    fn merge_accumulates_counters_histograms_and_tables() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("msg_sent", 2);
        b.inc("msg_sent", 3);
        b.inc("cache_admit", 1);
        a.set_gauge("cache_bytes_used", 10.0);
        b.set_gauge("cache_bytes_used", 32.0);
        a.observe_hist("msg_bytes", BYTES_BUCKETS, 4);
        b.observe_hist("msg_bytes", BYTES_BUCKETS, 4);
        b.observe_hist("msg_bytes", BYTES_BUCKETS, 9000);
        b.observe_hist("latency", &[1, 2], 1);
        *a.energy.cell_mut(1, Phase::Data) += 5.0;
        *b.energy.cell_mut(1, Phase::Data) += 7.0;
        *b.energy.cell_mut(9, Phase::Query) += 1.5;

        a.merge(&b);
        assert_eq!(a.counter("msg_sent"), 5);
        assert_eq!(a.counter("cache_admit"), 1);
        // Gauges are levels: the merged-in registry's value wins.
        assert_eq!(a.gauge("cache_bytes_used"), Some(32.0));
        assert_eq!(a.histogram("msg_bytes").map(Histogram::total), Some(3));
        assert_eq!(a.histogram("msg_bytes").map(Histogram::sum), Some(9008));
        assert_eq!(a.histogram("latency").map(Histogram::total), Some(1));
        assert_eq!(a.energy_in(1, Phase::Data), 12.0);
        assert!((a.energy_in(9, Phase::Query) - 1.5).abs() < 1e-12);
        // Table grew to cover b's widest row.
        assert_eq!(a.energy_table().nodes(), 10);
    }

    #[test]
    fn merge_order_of_many_registries_is_associative_on_integers() {
        let regs: Vec<MetricsRegistry> = (0..4)
            .map(|i| {
                let mut m = MetricsRegistry::new();
                m.inc("msg_sent", i + 1);
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
        assert_eq!(left.counter("msg_sent"), pairwise.counter("msg_sent"));
        for n in 0..4 {
            assert_eq!(
                left.energy_in(n, Phase::Data).to_bits(),
                pairwise.energy_in(n, Phase::Data).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1, 2]);
        let b = Histogram::new(&[1, 2, 3]);
        a.merge(&b);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = Histogram::new(&[1, 2, 4, 8]);
        for v in [1, 1, 1, 1, 1, 2, 2, 4, 8, 9000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.7), Some(2));
        assert_eq!(h.quantile(0.9), Some(8));
        assert_eq!(h.quantile(0.99), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.max_bound(), Some(u64::MAX));
        assert_eq!(Histogram::new(&[1]).quantile(0.5), None);
    }

    #[test]
    fn hop_latency_folds_into_named_histogram() {
        let mut m = MetricsRegistry::new();
        m.observe_hop_latency(1);
        m.observe_hop_latency(1);
        m.observe_hop_latency(3);
        let h = m.histogram(HOP_LATENCY_HIST).expect("histogram exists");
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum(), 5);
        assert_eq!(h.quantile(0.5), Some(1));
    }

    #[test]
    fn span_close_folds_per_kind_latency() {
        use crate::span::SpanKind;
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
        assert_eq!(m.counter("span_open"), 1);
        assert_eq!(m.counter("span_close"), 1);
        assert_eq!(m.counter(SpanKind::Election.counter_label()), 1);
        assert_eq!(m.counter(SpanKind::Election.wall_counter_label()), 2_500);
        let h = m
            .histogram(SpanKind::Election.ticks_hist_label())
            .expect("latency histogram exists");
        assert_eq!(h.total(), 1);
        assert_eq!(h.sum(), 4);
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut m = MetricsRegistry::new();
        m.inc("zeta", 1);
        m.inc("alpha", 2);
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
