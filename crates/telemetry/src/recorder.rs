//! Event sinks: a bounded ring-buffer recorder and the `Telemetry`
//! hub the simulator embeds.
//!
//! The hub is designed so a disabled pipeline costs one predictable
//! branch on the hot path: `Telemetry::enabled` is `#[inline]` and
//! instrumented code guards event construction behind it.

use crate::event::Event;
use crate::jsonl;
use crate::registry::MetricsRegistry;
use crate::span::SpanKind;

/// A bounded, allocation-free-after-warmup event buffer: the last
/// `capacity` events are kept, oldest first dropped.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the next slot to overwrite once full.
    next: usize,
    /// Events ever recorded (including dropped ones).
    total: u64,
}

impl RingRecorder {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            buf: Vec::new(),
            capacity,
            next: 0,
            total: 0,
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events ever recorded, retained or not.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// The retained events in chronological order (oldest first).
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.capacity {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }

    /// Serialize the retained events as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.buf.len() * 64);
        for ev in self.events() {
            jsonl::write_event(&mut out, &ev);
            out.push('\n');
        }
        out
    }

    /// Forget everything recorded so far (capacity is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.total = 0;
    }

    /// Keep one event, overwriting the oldest once full.
    // Reached only behind `enabled()`; the ring grows until full, then
    // overwrites in place.
    pub fn record(&mut self, ev: &Event) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(*ev);
        } else {
            self.buf[self.next] = *ev;
            self.next = (self.next + 1) % self.capacity;
        }
    }
}

/// The sink the simulator embeds: an optional ring buffer (for trace
/// export) plus an optional metrics registry (for aggregate
/// counters/energy), fed from the same event stream.
///
/// The default is fully off; `enabled` then folds to `false` and
/// instrumented hot paths skip event construction.
///
/// The hub also tracks **open spans** (see [`crate::span`]): ids are
/// handed out from a run-local counter, the innermost open span is
/// the implicit parent of the next open, and closes may arrive out of
/// LIFO order (a repair span closes from inside a maintenance span).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    ring: Option<RingRecorder>,
    registry: Option<MetricsRegistry>,
    /// Open spans, innermost last: `(id, kind, open_tick, wall_start)`.
    open_spans: Vec<(u64, SpanKind, u64, u64)>,
    /// Last span id handed out; ids start at 1 (0 means "no span").
    next_span_id: u64,
    /// Injected wall-clock source (monotonic nanoseconds). `None` by
    /// default — this crate never reads a clock itself, so default
    /// traces are byte-identical across machines and `--jobs` values.
    clock: Option<fn() -> u64>,
}

impl Telemetry {
    /// Telemetry fully disabled (the default; zero overhead beyond one
    /// branch per instrumented site).
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// Record the last `capacity` events into a ring buffer, no
    /// registry.
    pub fn with_ring(capacity: usize) -> Self {
        Telemetry {
            ring: Some(RingRecorder::new(capacity)),
            ..Telemetry::default()
        }
    }

    /// Fold events into a metrics registry only.
    pub fn with_registry() -> Self {
        Telemetry {
            registry: Some(MetricsRegistry::new()),
            ..Telemetry::default()
        }
    }

    /// Ring buffer and registry together.
    pub fn full(capacity: usize) -> Self {
        Telemetry {
            ring: Some(RingRecorder::new(capacity)),
            registry: Some(MetricsRegistry::new()),
            ..Telemetry::default()
        }
    }

    /// True when any sink is attached. `#[inline]` so a disabled hub
    /// costs a single predictable branch at each instrumented site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some() || self.registry.is_some()
    }

    /// The ring buffer, when attached.
    pub fn ring(&self) -> Option<&RingRecorder> {
        self.ring.as_ref()
    }

    /// The metrics registry, when attached.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    /// Mutable metrics registry, when attached.
    pub fn registry_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.registry.as_mut()
    }

    /// Serialize the ring's events as JSONL (`None` when no ring is
    /// attached).
    pub fn export_jsonl(&self) -> Option<String> {
        self.ring.as_ref().map(RingRecorder::to_jsonl)
    }

    /// Install a monotonic wall-clock source (nanoseconds). Span
    /// closes then carry real elapsed time in `wall_ns`. Only the
    /// bench harness — the workspace's one sanctioned wall-clock user —
    /// should call this; default traces must stay clock-free so they
    /// are byte-identical.
    pub fn set_wall_clock(&mut self, clock: fn() -> u64) {
        self.clock = Some(clock);
    }

    /// Open a hierarchical span of `kind` at `tick`. Returns the span
    /// id to later pass to [`Telemetry::close_span`], or 0 when
    /// telemetry is disabled (a 0 close is a no-op, so callers never
    /// need their own guard branch).
    ///
    /// The parent is whatever span is innermost-open right now — the
    /// call structure of the instrumented code *is* the hierarchy.
    pub fn open_span(&mut self, tick: u64, kind: SpanKind) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.next_span_id += 1;
        let id = self.next_span_id;
        let parent = self.open_spans.last().map_or(0, |s| s.0);
        let wall_start = self.clock.map_or(0, |now| now());
        self.open_spans.push((id, kind, tick, wall_start));
        self.record(&Event::SpanOpen {
            tick,
            id,
            parent,
            span: kind,
        });
        id
    }

    /// Close the span `id` at `tick`. No-op for id 0 (disabled open)
    /// or an unknown id. Closes may arrive out of LIFO order — a
    /// repair span opened at a kill closes from inside a later
    /// maintenance span — so the open-list is searched by id.
    pub fn close_span(&mut self, tick: u64, id: u64) {
        if id == 0 {
            return;
        }
        let Some(pos) = self.open_spans.iter().rposition(|s| s.0 == id) else {
            return;
        };
        let (_, kind, open_tick, wall_start) = self.open_spans.remove(pos);
        let wall_ns = self.clock.map_or(0, |now| now().saturating_sub(wall_start));
        self.record(&Event::SpanClose {
            tick,
            id,
            span: kind,
            open_tick,
            wall_ns,
        });
    }

    /// Number of spans currently open (instrumentation depth).
    pub fn open_span_depth(&self) -> usize {
        self.open_spans.len()
    }

    /// Clear recorded events and metrics, keeping the configuration.
    pub fn clear(&mut self) {
        if let Some(r) = self.ring.as_mut() {
            r.clear();
        }
        if let Some(m) = self.registry.as_mut() {
            *m = MetricsRegistry::new();
        }
        self.open_spans.clear();
        self.next_span_id = 0;
    }

    /// Feed one event to every attached sink.
    #[inline]
    pub fn record(&mut self, ev: &Event) {
        if let Some(r) = self.ring.as_mut() {
            r.record(ev);
        }
        if let Some(m) = self.registry.as_mut() {
            m.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn ev(tick: u64) -> Event {
        Event::EnergyDraw {
            tick,
            node: 0,
            phase: Phase::Test,
            amount: 1.0,
        }
    }

    #[test]
    fn ring_keeps_everything_until_full() {
        let mut r = RingRecorder::new(4);
        for t in 0..3 {
            r.record(&ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let ticks: Vec<u64> = r.events().iter().map(Event::tick).collect();
        assert_eq!(ticks, vec![0, 1, 2]);
    }

    #[test]
    fn ring_wraparound_drops_oldest_and_keeps_order() {
        let mut r = RingRecorder::new(4);
        for t in 0..10 {
            r.record(&ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let ticks: Vec<u64> = r.events().iter().map(Event::tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9], "oldest-first after wrap");
    }

    #[test]
    fn ring_wraparound_exactly_at_capacity_boundary() {
        let mut r = RingRecorder::new(3);
        for t in 0..3 {
            r.record(&ev(t));
        }
        let ticks: Vec<u64> = r.events().iter().map(Event::tick).collect();
        assert_eq!(ticks, vec![0, 1, 2], "full but not yet wrapped");
        r.record(&ev(3));
        let ticks: Vec<u64> = r.events().iter().map(Event::tick).collect();
        assert_eq!(ticks, vec![1, 2, 3]);
    }

    #[test]
    fn ring_clear_resets_counts() {
        let mut r = RingRecorder::new(2);
        for t in 0..5 {
            r.record(&ev(t));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
        r.record(&ev(7));
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let r = RingRecorder::new(0);
        assert_eq!(r.capacity(), 1);
    }

    #[test]
    fn hub_off_is_disabled_and_exports_nothing() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        assert_eq!(t.export_jsonl(), None);
    }

    #[test]
    fn spans_nest_and_close_out_of_order() {
        let mut t = Telemetry::with_ring(32);
        let outer = t.open_span(1, SpanKind::Maintenance);
        let repair = t.open_span(1, SpanKind::Repair);
        let inner = t.open_span(2, SpanKind::Deliver);
        assert_eq!(t.open_span_depth(), 3);
        // Non-LIFO: the deliver closes, then the *outer* maintenance,
        // then the repair that outlived it.
        t.close_span(3, inner);
        t.close_span(4, outer);
        t.close_span(9, repair);
        assert_eq!(t.open_span_depth(), 0);
        let events = t.ring().expect("ring").events();
        assert!(matches!(
            events[0],
            Event::SpanOpen { id, parent: 0, .. } if id == outer
        ));
        assert!(matches!(
            events[1],
            Event::SpanOpen { id, parent, .. } if id == repair && parent == outer
        ));
        assert!(matches!(
            events[2],
            Event::SpanOpen { id, parent, .. } if id == inner && parent == repair
        ));
        assert!(matches!(
            events[5],
            Event::SpanClose { id, open_tick: 1, tick: 9, .. } if id == repair
        ));
    }

    #[test]
    fn disabled_hub_hands_out_id_zero() {
        let mut t = Telemetry::off();
        assert_eq!(t.open_span(1, SpanKind::Election), 0);
        t.close_span(2, 0); // no-op, no panic
        assert_eq!(t.open_span_depth(), 0);
    }

    #[test]
    fn unknown_close_is_ignored() {
        let mut t = Telemetry::with_ring(8);
        t.close_span(1, 42);
        assert!(t.ring().expect("ring").is_empty());
    }

    #[test]
    fn clear_resets_span_ids() {
        let mut t = Telemetry::with_ring(8);
        let first = t.open_span(1, SpanKind::Query);
        t.clear();
        let second = t.open_span(1, SpanKind::Query);
        assert_eq!(first, second, "id sequence restarts after clear");
        assert_eq!(t.open_span_depth(), 1, "pre-clear opens were forgotten");
    }

    #[test]
    fn injected_clock_stamps_wall_ns() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static FAKE_NOW: AtomicU64 = AtomicU64::new(0);
        fn fake_clock() -> u64 {
            FAKE_NOW.fetch_add(500, Ordering::Relaxed)
        }
        let mut t = Telemetry::with_ring(8);
        t.set_wall_clock(fake_clock);
        let id = t.open_span(1, SpanKind::QueryExec);
        t.close_span(2, id);
        let events = t.ring().expect("ring").events();
        assert!(matches!(events[1], Event::SpanClose { wall_ns: 500, .. }));
    }

    #[test]
    fn hub_feeds_both_sinks() {
        let mut t = Telemetry::full(8);
        t.record(&ev(1));
        t.record(&ev(2));
        assert_eq!(t.ring().map(RingRecorder::len), Some(2));
        assert_eq!(
            t.registry().map(|m| m.energy_in(0, Phase::Test)),
            Some(2.0),
            "registry saw the draws"
        );
        t.clear();
        assert_eq!(t.ring().map(RingRecorder::len), Some(0));
        assert_eq!(t.registry().map(|m| m.energy_in(0, Phase::Test)), Some(0.0));
    }
}
