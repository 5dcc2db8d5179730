//! Trace replay: fold a recorded event stream back into a structured
//! run summary, and check the paper's protocol invariants against it.
//!
//! This is the analysis half of the `snapshot-trace` CLI: given the
//! JSONL a run exported, reconstruct per-phase traffic, per-phase
//! energy, election segments, and query spans — then verify bounds
//! like the paper's "no node transmits more than a handful of
//! messages per election" budget (Section 3 fixes it at ≤ 6 in the
//! common case: 1 invitation + 1 candidate list + 1 accept + limited
//! refinement traffic).

use crate::event::{Event, QueryStatus};
use crate::phase::Phase;
use crate::registry::PerNodePhase;
use crate::span::SpanKind;
use core::fmt::Write as _;
use std::collections::BTreeMap;

/// One election reconstructed from the trace: the events between an
/// `ElectionPhase { phase: Invitation }` marker and the next such
/// marker (or end of trace).
#[derive(Debug, Clone)]
pub struct ElectionSegment {
    /// Election epoch from the opening marker.
    pub epoch: u64,
    /// Tick of the opening marker.
    pub start_tick: u64,
    /// Tick of the last event attributed to this election.
    pub end_tick: u64,
    /// Election-phase messages sent, per node (index = node id).
    pub sent_per_node: Vec<u64>,
    /// `Represented` links recorded in this segment.
    pub represented: u64,
    /// `InviteAccepted` events recorded in this segment.
    pub accepts: u64,
}

impl ElectionSegment {
    /// The heaviest sender's election-message count.
    pub fn max_sent(&self) -> u64 {
        self.sent_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Total election messages in this segment.
    pub fn total_sent(&self) -> u64 {
        self.sent_per_node.iter().sum()
    }

    /// Nodes whose election-message count exceeds `max`.
    pub fn offenders(&self, max: u64) -> Vec<(u32, u64)> {
        self.sent_per_node
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > max)
            .map(|(n, &c)| (n as u32, c))
            .collect()
    }
}

/// One node exceeding the per-election message budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionViolation {
    /// Epoch of the offending election.
    pub epoch: u64,
    /// The over-budget node.
    pub node: u32,
    /// Election messages it sent.
    pub sent: u64,
    /// The budget it broke.
    pub budget: u64,
}

/// One query span paired from `QueryBegin`/`QueryEnd`.
#[derive(Debug, Clone)]
pub struct QuerySpan {
    /// Span id.
    pub id: u64,
    /// Tick the span opened.
    pub begin_tick: u64,
    /// Tick the span closed (`None` when the trace ends mid-span).
    pub end_tick: Option<u64>,
    /// The collecting sink.
    pub sink: u32,
    /// Snapshot-mode execution.
    pub snapshot_mode: bool,
    /// Final status (`None` for an unclosed span).
    pub status: Option<QueryStatus>,
    /// Participants charged.
    pub participants: u32,
}

/// One hierarchical operation span reconstructed from
/// `span_open`/`span_close` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id (unique within the run, never 0).
    pub id: u64,
    /// Parent span id, 0 for a root span. A close whose open fell off
    /// the ring buffer is reconstructed as a root (parent unknown).
    pub parent: u64,
    /// What operation the span covers.
    pub kind: SpanKind,
    /// Tick the span opened at.
    pub open_tick: u64,
    /// Tick the span closed (`None` when the trace ends mid-span).
    pub close_tick: Option<u64>,
    /// Wall-clock nanoseconds elapsed (0 unless a clock was injected).
    pub wall_ns: u64,
}

impl Span {
    /// Simulation ticks the span covered, `None` while open.
    pub fn duration_ticks(&self) -> Option<u64> {
        self.close_tick.map(|c| c.saturating_sub(self.open_tick))
    }
}

/// Per-kind aggregate over a trace's closed spans, with exact
/// quantiles (the replay holds every duration, unlike the registry's
/// bucketed live histograms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanKindStats {
    /// The span kind.
    pub kind: SpanKind,
    /// Closed spans of this kind.
    pub count: u64,
    /// Sum of durations in simulation ticks.
    pub total_ticks: u64,
    /// Median duration.
    pub p50: u64,
    /// 90th-percentile duration.
    pub p90: u64,
    /// 99th-percentile duration.
    pub p99: u64,
    /// Longest duration.
    pub max: u64,
    /// Sum of wall-clock nanoseconds (0 unless a clock was injected).
    pub wall_ns: u64,
}

/// The structured summary of one recorded run.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Events in the trace.
    pub events: u64,
    /// First event tick (`0` for an empty trace).
    pub first_tick: u64,
    /// Last event tick.
    pub last_tick: u64,
    /// Event counts per kind label, in first-seen order.
    pub kind_counts: Vec<(&'static str, u64)>,
    /// Messages sent per node × phase.
    pub sent: PerNodePhase<u64>,
    /// Deliveries lost per node × phase, charged to the receiver that
    /// missed them (as `NetStats` does).
    pub lost: PerNodePhase<u64>,
    /// Energy drawn per node × phase.
    pub energy: PerNodePhase<f64>,
    /// Elections, in trace order.
    pub elections: Vec<ElectionSegment>,
    /// Query spans, in trace order.
    pub queries: Vec<QuerySpan>,
    /// Handoff announcements `(tick, node, battery_fraction)`.
    pub handoffs: Vec<(u64, u32, f64)>,
    /// Node failures `(tick, node)`.
    pub failures: Vec<(u64, u32)>,
    /// Injected faults `(tick, kind label, node)` — node is
    /// `u32::MAX` for network-wide faults.
    pub faults: Vec<(u64, &'static str, u32)>,
    /// Transient-outage recoveries `(tick, node)`.
    pub recoveries: Vec<(u64, u32)>,
    /// Gilbert–Elliott link-state flips observed in the trace.
    pub link_flips: u64,
    /// Serving-layer plan-cache hits.
    pub plan_cache_hits: u64,
    /// Serving-layer plan-cache misses.
    pub plan_cache_misses: u64,
    /// Hierarchical operation spans, in open order (reconstructed
    /// closes whose opens were lost to ring wraparound come in close
    /// order after the survivors).
    pub spans: Vec<Span>,
}

impl TraceSummary {
    /// Fold a chronological event stream into a summary. The match has
    /// no wildcard arm, so a new `Event` fails to compile here until
    /// the replayer handles it.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = TraceSummary {
            events: events.len() as u64,
            first_tick: events.first().map(Event::tick).unwrap_or(0),
            last_tick: events.last().map(Event::tick).unwrap_or(0),
            ..TraceSummary::default()
        };
        for ev in events {
            s.count_kind(ev.kind());
            match *ev {
                Event::MsgSent {
                    tick, node, phase, ..
                } => {
                    *s.sent.cell_mut(node, phase) += 1;
                    if Phase::ELECTION.contains(&phase) {
                        if let Some(seg) = s.elections.last_mut() {
                            if node as usize >= seg.sent_per_node.len() {
                                seg.sent_per_node.resize(node as usize + 1, 0);
                            }
                            seg.sent_per_node[node as usize] += 1;
                            seg.end_tick = tick;
                        }
                    }
                }
                Event::MsgDropped { dst, phase, .. } => {
                    *s.lost.cell_mut(dst, phase) += 1;
                }
                Event::EnergyDraw {
                    node,
                    phase,
                    amount,
                    ..
                } => {
                    *s.energy.cell_mut(node, phase) += amount;
                }
                Event::ElectionPhase { tick, epoch, phase } => {
                    if phase == Phase::Invitation {
                        s.elections.push(ElectionSegment {
                            epoch,
                            start_tick: tick,
                            end_tick: tick,
                            sent_per_node: Vec::new(),
                            represented: 0,
                            accepts: 0,
                        });
                    } else if let Some(seg) = s.elections.last_mut() {
                        seg.end_tick = tick;
                    }
                }
                Event::InviteAccepted { tick, .. } => {
                    if let Some(seg) = s.elections.last_mut() {
                        seg.accepts += 1;
                        seg.end_tick = tick;
                    }
                }
                Event::Represented { tick, .. } => {
                    if let Some(seg) = s.elections.last_mut() {
                        seg.represented += 1;
                        seg.end_tick = tick;
                    }
                }
                Event::HandoffTriggered {
                    tick,
                    node,
                    battery_fraction,
                } => s.handoffs.push((tick, node, battery_fraction)),
                Event::NodeFailed { tick, node } => s.failures.push((tick, node)),
                Event::QueryBegin {
                    tick,
                    id,
                    sink,
                    snapshot_mode,
                } => s.queries.push(QuerySpan {
                    id,
                    begin_tick: tick,
                    end_tick: None,
                    sink,
                    snapshot_mode,
                    status: None,
                    participants: 0,
                }),
                Event::QueryEnd {
                    tick,
                    id,
                    status,
                    participants,
                } => {
                    if let Some(span) = s
                        .queries
                        .iter_mut()
                        .rev()
                        .find(|q| q.id == id && q.end_tick.is_none())
                    {
                        span.end_tick = Some(tick);
                        span.status = Some(status);
                        span.participants = participants;
                    }
                }
                Event::FaultInjected { tick, fault, node } => {
                    s.faults.push((tick, fault.as_str(), node));
                }
                Event::NodeRecovered { tick, node } => s.recoveries.push((tick, node)),
                Event::LinkStateFlipped { .. } => s.link_flips += 1,
                Event::PlanCacheLookup { hit, .. } => {
                    if hit {
                        s.plan_cache_hits += 1;
                    } else {
                        s.plan_cache_misses += 1;
                    }
                }
                Event::SpanOpen {
                    tick,
                    id,
                    parent,
                    span,
                } => s.spans.push(Span {
                    id,
                    parent,
                    kind: span,
                    open_tick: tick,
                    close_tick: None,
                    wall_ns: 0,
                }),
                Event::SpanClose {
                    tick,
                    id,
                    span,
                    open_tick,
                    wall_ns,
                } => {
                    if let Some(sp) = s
                        .spans
                        .iter_mut()
                        .rev()
                        .find(|sp| sp.id == id && sp.close_tick.is_none())
                    {
                        sp.close_tick = Some(tick);
                        sp.wall_ns = wall_ns;
                    } else {
                        // The open fell off the ring; the close is
                        // self-contained, so reconstruct it as a root.
                        s.spans.push(Span {
                            id,
                            parent: 0,
                            kind: span,
                            open_tick,
                            close_tick: Some(tick),
                            wall_ns,
                        });
                    }
                }
                Event::CacheAdmit { .. } | Event::CacheEvict { .. } | Event::ModelRefit { .. } => {}
            }
        }
        s
    }

    fn count_kind(&mut self, kind: &'static str) {
        match self.kind_counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => *c += 1,
            None => self.kind_counts.push((kind, 1)),
        }
    }

    /// Network-wide messages sent in one phase.
    pub fn phase_sent(&self, phase: Phase) -> u64 {
        self.sent.iter().map(|(_, row)| row[phase.index()]).sum()
    }

    /// Network-wide deliveries lost in one phase.
    pub fn phase_lost(&self, phase: Phase) -> u64 {
        self.lost.iter().map(|(_, row)| row[phase.index()]).sum()
    }

    /// Network-wide energy drawn in one phase.
    pub fn phase_energy(&self, phase: Phase) -> f64 {
        self.energy.iter().map(|(_, row)| row[phase.index()]).sum()
    }

    /// Total energy across all nodes and phases.
    pub fn total_energy(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.phase_energy(p)).sum()
    }

    /// Plan-cache hit rate over the whole trace, `None` when the run
    /// recorded no lookups.
    pub fn plan_cache_hit_rate(&self) -> Option<f64> {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        (total > 0).then(|| self.plan_cache_hits as f64 / total as f64)
    }

    /// Every node that exceeded `budget` election messages in any
    /// election (the paper's bound is 6).
    pub fn election_message_violations(&self, budget: u64) -> Vec<ElectionViolation> {
        let mut out = Vec::new();
        for seg in &self.elections {
            for (node, sent) in seg.offenders(budget) {
                out.push(ElectionViolation {
                    epoch: seg.epoch,
                    node,
                    sent,
                    budget,
                });
            }
        }
        out
    }

    /// Per-kind aggregates over closed spans, in [`SpanKind::ALL`]
    /// order, kinds with no closed spans omitted. Quantiles are exact
    /// (nearest-rank over the sorted durations).
    pub fn span_stats(&self) -> Vec<SpanKindStats> {
        let mut out = Vec::new();
        for kind in SpanKind::ALL {
            let mut durations: Vec<u64> = self
                .spans
                .iter()
                .filter(|sp| sp.kind == kind)
                .filter_map(Span::duration_ticks)
                .collect();
            if durations.is_empty() {
                continue;
            }
            durations.sort_unstable();
            let rank = |q: f64| {
                let r = ((q * durations.len() as f64).ceil() as usize).max(1);
                durations[r.min(durations.len()) - 1]
            };
            let wall_ns = self
                .spans
                .iter()
                .filter(|sp| sp.kind == kind && sp.close_tick.is_some())
                .map(|sp| sp.wall_ns)
                .sum();
            out.push(SpanKindStats {
                kind,
                count: durations.len() as u64,
                total_ticks: durations.iter().sum(),
                p50: rank(0.50),
                p90: rank(0.90),
                p99: rank(0.99),
                max: *durations.last().unwrap_or(&0),
                wall_ns,
            });
        }
        out
    }

    /// Fraction of the trace's tick range `first_tick..last_tick`
    /// covered by the union of closed **root** spans' intervals
    /// (1.0 for a zero-width range). The acceptance bar for full
    /// instrumentation: every tick the run spent should fall inside
    /// some root span.
    pub fn root_tick_coverage(&self) -> f64 {
        let range = self.last_tick.saturating_sub(self.first_tick);
        if range == 0 {
            return 1.0;
        }
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|sp| sp.parent == 0)
            .filter_map(|sp| sp.close_tick.map(|c| (sp.open_tick, c)))
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = self.first_tick;
        for (lo, hi) in intervals {
            let lo = lo.max(cursor);
            let hi = hi.min(self.last_tick);
            if hi > lo {
                covered += hi - lo;
                cursor = hi;
            }
        }
        covered as f64 / range as f64
    }

    /// Folded-stack flamegraph lines (`a;b;c <self_ticks>` per line,
    /// sorted by stack path), loadable by inferno / speedscope /
    /// flamegraph.pl. Each closed span contributes its **self time**:
    /// duration minus the durations of its closed children. Stacks
    /// with zero self time are omitted.
    pub fn folded_stacks(&self) -> String {
        let by_id: BTreeMap<u64, &Span> = self.spans.iter().map(|sp| (sp.id, sp)).collect();
        let mut child_ticks: BTreeMap<u64, u64> = BTreeMap::new();
        for sp in &self.spans {
            if let (Some(d), true) = (sp.duration_ticks(), sp.parent != 0) {
                *child_ticks.entry(sp.parent).or_insert(0) += d;
            }
        }
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for sp in &self.spans {
            let Some(duration) = sp.duration_ticks() else {
                continue;
            };
            let self_ticks = duration.saturating_sub(child_ticks.get(&sp.id).copied().unwrap_or(0));
            if self_ticks == 0 {
                continue;
            }
            // Walk the parent chain; a parent lost to ring wraparound
            // truncates the stack at the deepest survivor.
            let mut stack = vec![sp.kind.as_str()];
            let mut cursor = sp.parent;
            while cursor != 0 {
                let Some(parent) = by_id.get(&cursor) else {
                    break;
                };
                stack.push(parent.kind.as_str());
                cursor = parent.parent;
            }
            stack.reverse();
            *folded.entry(stack.join(";")).or_insert(0) += self_ticks;
        }
        let mut out = String::new();
        for (path, ticks) in folded {
            let _ = writeln!(out, "{path} {ticks}");
        }
        out
    }

    /// Render the summary as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, ticks {}..{}",
            self.events, self.first_tick, self.last_tick
        );

        let _ = writeln!(out, "\nevents by kind:");
        for (kind, count) in &self.kind_counts {
            let _ = writeln!(out, "  {kind:<16} {count:>8}");
        }

        let _ = writeln!(out, "\nmessages by phase (sent / lost):");
        for &p in Phase::ALL.iter() {
            let (sent, lost) = (self.phase_sent(p), self.phase_lost(p));
            if sent > 0 || lost > 0 {
                let _ = writeln!(out, "  {:<12} {sent:>8} / {lost}", p.as_str());
            }
        }

        let _ = writeln!(out, "\nenergy by phase (transmission equivalents):");
        for &p in Phase::ALL.iter() {
            let e = self.phase_energy(p);
            if e > 0.0 {
                let _ = writeln!(out, "  {:<12} {e:>12.2}", p.as_str());
            }
        }
        let _ = writeln!(out, "  {:<12} {:>12.2}", "total", self.total_energy());

        let _ = writeln!(out, "\nelections: {}", self.elections.len());
        for seg in &self.elections {
            let _ = writeln!(
                out,
                "  epoch {:<4} ticks {}..{}  msgs {:>5}  max/node {}  accepts {}  represented {}",
                seg.epoch,
                seg.start_tick,
                seg.end_tick,
                seg.total_sent(),
                seg.max_sent(),
                seg.accepts,
                seg.represented,
            );
        }

        let _ = writeln!(out, "\nqueries: {}", self.queries.len());
        for q in &self.queries {
            let status = q.status.map(QueryStatus::as_str).unwrap_or("unclosed");
            let end = q
                .end_tick
                .map(|t| t.to_string())
                .unwrap_or_else(|| "?".to_owned());
            let mode = if q.snapshot_mode {
                "snapshot"
            } else {
                "direct"
            };
            let _ = writeln!(
                out,
                "  id {:<4} ticks {}..{end}  sink {}  {mode}  {status}  participants {}",
                q.id, q.begin_tick, q.sink, q.participants,
            );
        }

        if self.plan_cache_hits + self.plan_cache_misses > 0 {
            let _ = writeln!(
                out,
                "\nplan cache: {} hit(s) / {} miss(es) ({:.1}% hit rate)",
                self.plan_cache_hits,
                self.plan_cache_misses,
                self.plan_cache_hit_rate().unwrap_or(0.0) * 100.0,
            );
        }

        let stats = self.span_stats();
        if !stats.is_empty() {
            let open = self
                .spans
                .iter()
                .filter(|sp| sp.close_tick.is_none())
                .count();
            let _ = writeln!(
                out,
                "\nspans: {} ({open} left open), root tick coverage {:.1}%",
                self.spans.len(),
                self.root_tick_coverage() * 100.0
            );
            let _ = writeln!(
                out,
                "  {:<20} {:>6} {:>10} {:>6} {:>6} {:>6} {:>6}",
                "kind", "count", "ticks", "p50", "p90", "p99", "max"
            );
            for st in &stats {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>6} {:>10} {:>6} {:>6} {:>6} {:>6}",
                    st.kind.as_str(),
                    st.count,
                    st.total_ticks,
                    st.p50,
                    st.p90,
                    st.p99,
                    st.max,
                );
            }
        }

        if !self.handoffs.is_empty() {
            let _ = writeln!(out, "\nhandoffs: {}", self.handoffs.len());
            for (tick, node, frac) in &self.handoffs {
                let _ = writeln!(out, "  tick {tick:<6} node {node:<4} battery {frac:.3}");
            }
        }

        if !self.failures.is_empty() {
            let _ = writeln!(out, "\nnode failures: {}", self.failures.len());
            for (tick, node) in &self.failures {
                let _ = writeln!(out, "  tick {tick:<6} node {node}");
            }
        }

        if !self.faults.is_empty() {
            let _ = writeln!(out, "\ninjected faults: {}", self.faults.len());
            for (tick, kind, node) in &self.faults {
                if *node == u32::MAX {
                    let _ = writeln!(out, "  tick {tick:<6} {kind:<12} network-wide");
                } else {
                    let _ = writeln!(out, "  tick {tick:<6} {kind:<12} node {node}");
                }
            }
        }

        if !self.recoveries.is_empty() {
            let _ = writeln!(out, "\nrecoveries: {}", self.recoveries.len());
            for (tick, node) in &self.recoveries {
                let _ = writeln!(out, "  tick {tick:<6} node {node}");
            }
        }

        if self.link_flips > 0 {
            let _ = writeln!(out, "\nlink-state flips: {}", self.link_flips);
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn election_events(epoch: u64, base_tick: u64, per_node: &[u64]) -> Vec<Event> {
        let mut evs = vec![Event::ElectionPhase {
            tick: base_tick,
            epoch,
            phase: Phase::Invitation,
        }];
        for (node, &count) in per_node.iter().enumerate() {
            for i in 0..count {
                evs.push(Event::MsgSent {
                    tick: base_tick + i,
                    node: node as u32,
                    phase: Phase::Invitation,
                    bytes: 8,
                });
            }
        }
        evs
    }

    #[test]
    fn elections_segment_on_invitation_markers() {
        let mut evs = election_events(1, 10, &[2, 3]);
        evs.extend(election_events(2, 50, &[1, 7]));
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.elections.len(), 2);
        assert_eq!(s.elections[0].max_sent(), 3);
        assert_eq!(s.elections[1].max_sent(), 7);
        let violations = s.election_message_violations(6);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].epoch, 2);
        assert_eq!(violations[0].node, 1);
        assert_eq!(violations[0].sent, 7);
    }

    #[test]
    fn non_election_sends_do_not_count_against_budget() {
        let mut evs = election_events(1, 0, &[1]);
        for i in 0..20 {
            evs.push(Event::MsgSent {
                tick: 5 + i,
                node: 0,
                phase: Phase::Heartbeat,
                bytes: 4,
            });
        }
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.elections[0].max_sent(), 1);
        assert!(s.election_message_violations(6).is_empty());
        assert_eq!(s.phase_sent(Phase::Heartbeat), 20);
    }

    #[test]
    fn query_spans_pair_begin_and_end() {
        let evs = vec![
            Event::QueryBegin {
                tick: 1,
                id: 1,
                sink: 0,
                snapshot_mode: true,
            },
            Event::QueryEnd {
                tick: 4,
                id: 1,
                status: QueryStatus::Ok,
                participants: 9,
            },
            Event::QueryBegin {
                tick: 6,
                id: 2,
                sink: 0,
                snapshot_mode: false,
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.queries.len(), 2);
        assert_eq!(s.queries[0].end_tick, Some(4));
        assert_eq!(s.queries[0].status, Some(QueryStatus::Ok));
        assert_eq!(s.queries[0].participants, 9);
        assert_eq!(s.queries[1].end_tick, None, "unclosed span stays open");
    }

    #[test]
    fn fault_events_are_summarized() {
        use crate::event::FaultTag;
        let evs = vec![
            Event::FaultInjected {
                tick: 3,
                fault: FaultTag::Outage,
                node: 2,
            },
            Event::NodeFailed { tick: 3, node: 2 },
            Event::NodeRecovered { tick: 9, node: 2 },
            Event::FaultInjected {
                tick: 12,
                fault: FaultTag::LinkChange,
                node: u32::MAX,
            },
            Event::LinkStateFlipped {
                tick: 13,
                src: 0,
                dst: 1,
                bad: true,
            },
            Event::LinkStateFlipped {
                tick: 14,
                src: 0,
                dst: 1,
                bad: false,
            },
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(
            s.faults,
            vec![(3, "outage", 2), (12, "link_change", u32::MAX)]
        );
        assert_eq!(s.recoveries, vec![(9, 2)]);
        assert_eq!(s.link_flips, 2);
        let report = s.render();
        assert!(report.contains("injected faults: 2"));
        assert!(report.contains("network-wide"));
        assert!(report.contains("recoveries: 1"));
        assert!(report.contains("link-state flips: 2"));
    }

    fn span_open(tick: u64, id: u64, parent: u64, kind: SpanKind) -> Event {
        Event::SpanOpen {
            tick,
            id,
            parent,
            span: kind,
        }
    }

    fn span_close(tick: u64, id: u64, kind: SpanKind, open_tick: u64) -> Event {
        Event::SpanClose {
            tick,
            id,
            span: kind,
            open_tick,
            wall_ns: 0,
        }
    }

    #[test]
    fn spans_rebuild_into_a_tree() {
        let evs = vec![
            span_open(0, 1, 0, SpanKind::Election),
            span_open(0, 2, 1, SpanKind::Deliver),
            span_close(4, 2, SpanKind::Deliver, 0),
            span_close(10, 1, SpanKind::Election, 0),
            span_open(10, 3, 0, SpanKind::Query),
        ];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[0].duration_ticks(), Some(10));
        assert_eq!(s.spans[1].parent, 1);
        assert_eq!(s.spans[1].duration_ticks(), Some(4));
        assert_eq!(s.spans[2].close_tick, None, "trace ended mid-span");

        let stats = s.span_stats();
        assert_eq!(stats.len(), 2, "open query span excluded");
        assert_eq!(stats[0].kind, SpanKind::Election);
        assert_eq!(stats[0].total_ticks, 10);
        assert_eq!(stats[0].p50, 10);
        assert_eq!(stats[0].max, 10);
        assert_eq!(stats[1].kind, SpanKind::Deliver);
    }

    #[test]
    fn orphan_close_is_reconstructed_from_its_open_tick() {
        // Simulates ring wraparound: the close arrives with no open.
        let evs = vec![span_close(20, 9, SpanKind::Repair, 12)];
        let s = TraceSummary::from_events(&evs);
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].parent, 0);
        assert_eq!(s.spans[0].duration_ticks(), Some(8));
    }

    #[test]
    fn root_coverage_unions_root_intervals() {
        // Range 0..20; roots cover [0,10] and [5,15] → 15 of 20 ticks.
        let evs = vec![
            span_open(0, 1, 0, SpanKind::Election),
            span_open(5, 2, 0, SpanKind::Maintenance),
            span_close(10, 1, SpanKind::Election, 0),
            span_close(15, 2, SpanKind::Maintenance, 5),
            Event::NodeFailed { tick: 20, node: 1 },
        ];
        let s = TraceSummary::from_events(&evs);
        assert!((s.root_tick_coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn root_coverage_of_zero_width_trace_is_full() {
        let s = TraceSummary::from_events(&[Event::NodeFailed { tick: 5, node: 1 }]);
        assert!((s.root_tick_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let evs = vec![
            span_open(0, 1, 0, SpanKind::Election),
            span_open(2, 2, 1, SpanKind::Deliver),
            span_close(6, 2, SpanKind::Deliver, 2),
            span_close(10, 1, SpanKind::Election, 0),
        ];
        let s = TraceSummary::from_events(&evs);
        let folded = s.folded_stacks();
        // Election: 10 total − 4 in the child = 6 self ticks.
        assert_eq!(folded, "election 6\nelection;deliver 4\n");
    }

    #[test]
    fn render_includes_span_table() {
        let evs = vec![
            span_open(0, 1, 0, SpanKind::Maintenance),
            span_close(8, 1, SpanKind::Maintenance, 0),
        ];
        let report = TraceSummary::from_events(&evs).render();
        assert!(report.contains("spans: 1 (0 left open)"), "{report}");
        assert!(report.contains("maintenance"), "{report}");
        assert!(report.contains("root tick coverage"), "{report}");
    }

    #[test]
    fn render_mentions_key_sections() {
        let evs = election_events(1, 0, &[2, 2]);
        let s = TraceSummary::from_events(&evs);
        let report = s.render();
        assert!(report.contains("events by kind"));
        assert!(report.contains("elections: 1"));
        assert!(report.contains("invitation"));
    }
}
