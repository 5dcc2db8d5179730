//! Deterministic fault injection: scripted failure timelines.
//!
//! The paper's robustness story (Kotidis §5.3, §6.4) is that the
//! snapshot *self-heals*: when a representative dies, its orphans are
//! re-covered by maintenance, and message loss only degrades — never
//! corrupts — the answer. Exercising that story needs more than ad-hoc
//! `kill()` calls in tests: experiments want *scripted* failure
//! timelines (crash node 7 at tick 50, black out a region at tick 200,
//! switch the channel to bursty loss at tick 400) that replay
//! identically under any `--jobs` value.
//!
//! A [`FaultPlan`] is a tick-ordered schedule of [`FaultEvent`]s. The
//! simulator owns at most one compiled [`FaultSchedule`]; at every tick
//! boundary ([`Network::deliver`](crate::sim::Network::deliver)) it
//! applies the events that have come due, emitting typed telemetry
//! (`FaultInjected`, `NodeRecovered`) so traces record exactly what was
//! injected and when. `random` targets are resolved from a dedicated
//! RNG stream derived from the network seed, keeping the whole timeline
//! deterministic.
//!
//! Plans are written in a tiny line-oriented text format (`*.fault`
//! files, parsed by [`FaultPlan::parse`] with zero dependencies); the
//! grammar and semantics are documented operator-style in `FAULTS.md`
//! at the repository root.

use crate::link::GilbertElliott;
use crate::node::NodeId;
use crate::rng::{DetRng, RngExt};
use crate::topology::Position;
use std::collections::BTreeMap;

/// Which node a per-node fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A specific node id.
    Node(u32),
    /// A node drawn uniformly from the nodes alive when the fault
    /// fires (skipped when nobody is alive).
    Random,
}

/// One fault action, applied at a tick boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Permanently kill a node. A crash on an already-dead node is a
    /// no-op: no state change, no telemetry.
    Crash {
        /// The victim.
        target: FaultTarget,
    },
    /// Kill a node and revive it `down_for` ticks later (battery
    /// permitting). An outage landing on a node that is already down
    /// with a pending recovery extends that recovery to the later
    /// tick; an outage on a permanently-dead node is a no-op.
    Outage {
        /// The victim.
        target: FaultTarget,
        /// Ticks until the scheduled recovery.
        down_for: u64,
    },
    /// Kill every alive node within `radius` of `center`, permanently
    /// (pending outage recoveries inside the disc are cancelled).
    Blackout {
        /// Center of the blackout disc.
        center: Position,
        /// Disc radius (same units as node coordinates).
        radius: f64,
    },
    /// Set a battery drain multiplier: every subsequent energy draw by
    /// the affected node(s) is scaled by `factor`.
    Drain {
        /// Affected node, or `None` for the whole network.
        node: Option<u32>,
        /// Multiplier applied to every energy draw (1.0 = nominal).
        factor: f64,
    },
    /// Swap the link model to i.i.d. loss with probability `p_loss`.
    LinkIid {
        /// Per-delivery loss probability.
        p_loss: f64,
    },
    /// Swap the link model to a bursty Gilbert–Elliott channel (all
    /// links restart in the good state).
    LinkBurst {
        /// Chain parameters shared by every directed link.
        params: GilbertElliott,
    },
}

/// One scheduled fault: `kind` fires at the first tick boundary at or
/// after `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulation tick the fault comes due.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A tick-ordered schedule of fault events.
///
/// Construction sorts events stably by tick, so same-tick events fire
/// in the order they were written.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Why one line of a `.fault` file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultParseErrorKind {
    /// The line does not start with an unsigned tick number.
    BadTick,
    /// The directive after the tick names no known fault.
    UnknownDirective(String),
    /// A required argument is absent.
    MissingArgument(&'static str),
    /// An argument failed to parse or is out of range.
    BadArgument(&'static str),
    /// Extra tokens after a complete directive.
    TrailingTokens,
}

/// A line-anchored parse failure from [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub kind: FaultParseErrorKind,
}

impl core::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fault plan line {}: ", self.line)?;
        match &self.kind {
            FaultParseErrorKind::BadTick => write!(f, "expected an unsigned tick number"),
            FaultParseErrorKind::UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            FaultParseErrorKind::MissingArgument(a) => write!(f, "missing argument `{a}`"),
            FaultParseErrorKind::BadArgument(a) => write!(f, "bad value for `{a}`"),
            FaultParseErrorKind::TrailingTokens => write!(f, "unexpected trailing tokens"),
        }
    }
}

impl std::error::Error for FaultParseError {}

impl FaultPlan {
    /// Build a plan from events, sorting stably by tick.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The scheduled events, tick-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse the `.fault` text format (grammar in `FAULTS.md`).
    ///
    /// One directive per line; blank lines and `#` comments (full-line
    /// or trailing) are ignored:
    ///
    /// ```text
    /// <tick> crash <node|random>
    /// <tick> outage <node|random> for <ticks>
    /// <tick> blackout <x> <y> <radius>
    /// <tick> drain <node|all> x<factor>
    /// <tick> link iid <p_loss>
    /// <tick> link burst <p_good_to_bad> <p_bad_to_good> <p_loss_good> <p_loss_bad>
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, FaultParseError> {
        let mut events = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let at = |kind| FaultParseError { line, kind };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut tokens = content.split_whitespace();
            let tick: u64 = tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| at(FaultParseErrorKind::BadTick))?;
            let directive = tokens
                .next()
                .ok_or_else(|| at(FaultParseErrorKind::MissingArgument("directive")))?;
            let kind = match directive {
                "crash" => FaultKind::Crash {
                    target: parse_target(tokens.next(), line)?,
                },
                "outage" => {
                    let target = parse_target(tokens.next(), line)?;
                    match tokens.next() {
                        Some("for") => {}
                        _ => return Err(at(FaultParseErrorKind::MissingArgument("for"))),
                    }
                    let down_for = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .filter(|&d: &u64| d > 0)
                        .ok_or_else(|| at(FaultParseErrorKind::BadArgument("ticks")))?;
                    FaultKind::Outage { target, down_for }
                }
                "blackout" => {
                    let mut coord = |name| {
                        tokens
                            .next()
                            .and_then(|t| t.parse::<f64>().ok())
                            .filter(|v| v.is_finite())
                            .ok_or(FaultParseError {
                                line,
                                kind: FaultParseErrorKind::BadArgument(name),
                            })
                    };
                    let x = coord("x")?;
                    let y = coord("y")?;
                    let radius = coord("radius")?;
                    if radius < 0.0 {
                        return Err(at(FaultParseErrorKind::BadArgument("radius")));
                    }
                    FaultKind::Blackout {
                        center: Position::new(x, y),
                        radius,
                    }
                }
                "drain" => {
                    let node = match tokens.next() {
                        Some("all") => None,
                        Some(t) => Some(
                            t.parse()
                                .map_err(|_| at(FaultParseErrorKind::BadArgument("node")))?,
                        ),
                        None => return Err(at(FaultParseErrorKind::MissingArgument("node"))),
                    };
                    let factor = tokens
                        .next()
                        .and_then(|t| t.strip_prefix('x'))
                        .and_then(|t| t.parse::<f64>().ok())
                        .filter(|f| f.is_finite() && *f >= 0.0)
                        .ok_or_else(|| at(FaultParseErrorKind::BadArgument("factor")))?;
                    FaultKind::Drain { node, factor }
                }
                "link" => match tokens.next() {
                    Some("iid") => {
                        let p_loss = parse_prob(tokens.next(), "p_loss", line)?;
                        FaultKind::LinkIid { p_loss }
                    }
                    Some("burst") => {
                        let p_good_to_bad = parse_prob(tokens.next(), "p_good_to_bad", line)?;
                        let p_bad_to_good = parse_prob(tokens.next(), "p_bad_to_good", line)?;
                        let p_loss_good = parse_prob(tokens.next(), "p_loss_good", line)?;
                        let p_loss_bad = parse_prob(tokens.next(), "p_loss_bad", line)?;
                        FaultKind::LinkBurst {
                            params: GilbertElliott {
                                p_good_to_bad,
                                p_bad_to_good,
                                p_loss_good,
                                p_loss_bad,
                            },
                        }
                    }
                    Some(other) => {
                        return Err(at(FaultParseErrorKind::UnknownDirective(format!(
                            "link {other}"
                        ))))
                    }
                    None => return Err(at(FaultParseErrorKind::MissingArgument("link model"))),
                },
                other => return Err(at(FaultParseErrorKind::UnknownDirective(other.to_owned()))),
            };
            if tokens.next().is_some() {
                return Err(at(FaultParseErrorKind::TrailingTokens));
            }
            events.push(FaultEvent { at: tick, kind });
        }
        Ok(FaultPlan::new(events))
    }
}

fn parse_target(token: Option<&str>, line: usize) -> Result<FaultTarget, FaultParseError> {
    match token {
        Some("random") => Ok(FaultTarget::Random),
        Some(t) => t
            .parse()
            .map(FaultTarget::Node)
            .map_err(|_| FaultParseError {
                line,
                kind: FaultParseErrorKind::BadArgument("node"),
            }),
        None => Err(FaultParseError {
            line,
            kind: FaultParseErrorKind::MissingArgument("node"),
        }),
    }
}

fn parse_prob(
    token: Option<&str>,
    name: &'static str,
    line: usize,
) -> Result<f64, FaultParseError> {
    token
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or(FaultParseError {
            line,
            kind: FaultParseErrorKind::BadArgument(name),
        })
}

/// A [`FaultPlan`] compiled against a live network: tracks which events
/// have fired, outstanding outage recoveries, and the RNG stream that
/// resolves `random` targets.
///
/// Owned by [`Network`](crate::sim::Network); applied once per tick
/// boundary from `deliver`. The application logic itself lives in
/// `sim.rs` (it needs the network's mutators); this type holds the
/// bookkeeping so it can be taken out of the network during
/// application without borrow conflicts.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    plan: FaultPlan,
    next: usize,
    /// node id -> recovery tick; overlapping outages keep the max.
    recoveries: BTreeMap<u32, u64>,
    rng: DetRng,
}

impl FaultSchedule {
    /// Compile a plan; `seed` should be derived from the network seed
    /// so `random` targets replay deterministically.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultSchedule {
            plan,
            next: 0,
            recoveries: BTreeMap::new(),
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// The earliest tick at which this schedule has work to do: the
    /// next unfired plan event or the soonest pending recovery,
    /// whichever comes first. `None` once the plan is exhausted and no
    /// recoveries are pending. O(1) with no recovery pending, O(r) with
    /// r pending (`recoveries` is keyed by node, so its minimum is a
    /// walk); lets [`crate::sim::Network::deliver`] skip fault
    /// application on ticks with nothing due.
    pub(crate) fn next_due_tick(&self) -> Option<u64> {
        let next_event = self.plan.events.get(self.next).map(|e| e.at);
        let next_recovery = self.recoveries.values().min().copied();
        match (next_event, next_recovery) {
            (Some(e), Some(r)) => Some(e.min(r)),
            (a, b) => a.or(b),
        }
    }

    /// Events due at or before `tick` that have not fired yet, in
    /// schedule order. Advances the cursor; each event is handed out
    /// exactly once. (Cloning here is fine: fault application is a
    /// cold path, off the per-envelope delivery loop.)
    pub(crate) fn take_due(&mut self, tick: u64) -> Vec<FaultEvent> {
        let start = self.next;
        while self.next < self.plan.events.len() && self.plan.events[self.next].at <= tick {
            self.next += 1;
        }
        self.plan.events[start..self.next].to_vec()
    }

    /// Recoveries due at or before `tick`, removed from the pending
    /// set, in node-id order.
    pub(crate) fn take_due_recoveries(&mut self, tick: u64) -> Vec<u32> {
        let due: Vec<u32> = self
            .recoveries
            .iter()
            .filter(|&(_, &when)| when <= tick)
            .map(|(&node, _)| node)
            .collect();
        for node in &due {
            self.recoveries.remove(node);
        }
        due
    }

    /// Schedule (or extend) a recovery for `node`; overlapping outages
    /// resolve to the later tick.
    pub(crate) fn schedule_recovery(&mut self, node: u32, when: u64) {
        let slot = self.recoveries.entry(node).or_insert(when);
        *slot = (*slot).max(when);
    }

    /// True when `node` has a recovery pending.
    pub(crate) fn has_pending_recovery(&self, node: u32) -> bool {
        self.recoveries.contains_key(&node)
    }

    /// Cancel a pending recovery (blackouts are permanent).
    pub(crate) fn cancel_recovery(&mut self, node: u32) {
        self.recoveries.remove(&node);
    }

    /// Resolve a fault target against the alive set, drawing from the
    /// schedule's private RNG stream for `random`.
    pub(crate) fn resolve_target(
        &mut self,
        target: FaultTarget,
        alive: &[NodeId],
    ) -> Option<NodeId> {
        match target {
            FaultTarget::Node(id) => Some(NodeId(id)),
            FaultTarget::Random => {
                if alive.is_empty() {
                    None
                } else {
                    Some(alive[self.rng.random_range(0..alive.len())])
                }
            }
        }
    }

    /// True when every scheduled event has fired and no recovery is
    /// pending.
    pub fn exhausted(&self) -> bool {
        self.next >= self.plan.events.len() && self.recoveries.is_empty()
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_directive_and_comments() {
        let text = "\
# a full timeline
10 crash 3
20 outage random for 15   # transient
30 blackout 0.5 0.5 0.25
40 drain all x2.5
45 drain 7 x0.0
50 link iid 0.3
60 link burst 0.05 0.25 0.0 0.4
";
        let plan = FaultPlan::parse(text).expect("parses");
        assert_eq!(plan.events().len(), 7);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: 10,
                kind: FaultKind::Crash {
                    target: FaultTarget::Node(3)
                }
            }
        );
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::Outage {
                target: FaultTarget::Random,
                down_for: 15
            }
        );
        assert!(matches!(
            plan.events()[3].kind,
            FaultKind::Drain {
                node: None,
                factor: _
            }
        ));
        assert!(matches!(plan.events()[6].kind, FaultKind::LinkBurst { .. }));
    }

    #[test]
    fn parse_sorts_stably_by_tick() {
        let plan = FaultPlan::parse("30 crash 1\n10 crash 2\n30 crash 3\n").expect("parses");
        let ticks: Vec<u64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(ticks, vec![10, 30, 30]);
        // Same-tick events keep file order.
        assert_eq!(
            plan.events()[1].kind,
            FaultKind::Crash {
                target: FaultTarget::Node(1)
            }
        );
        assert_eq!(
            plan.events()[2].kind,
            FaultKind::Crash {
                target: FaultTarget::Node(3)
            }
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = FaultPlan::parse("10 crash 1\nnonsense here\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, FaultParseErrorKind::BadTick);

        let err = FaultPlan::parse("10 explode 1\n").unwrap_err();
        assert_eq!(
            err.kind,
            FaultParseErrorKind::UnknownDirective("explode".into())
        );

        let err = FaultPlan::parse("10 outage 1 for zero\n").unwrap_err();
        assert_eq!(err.kind, FaultParseErrorKind::BadArgument("ticks"));

        let err = FaultPlan::parse("10 link iid 1.5\n").unwrap_err();
        assert_eq!(err.kind, FaultParseErrorKind::BadArgument("p_loss"));

        let err = FaultPlan::parse("10 crash 1 extra\n").unwrap_err();
        assert_eq!(err.kind, FaultParseErrorKind::TrailingTokens);

        let err = FaultPlan::parse("10 drain 3 2.0\n").unwrap_err();
        assert_eq!(
            err.kind,
            FaultParseErrorKind::BadArgument("factor"),
            "drain factor requires the x prefix"
        );
    }

    #[test]
    fn schedule_hands_out_due_events_once() {
        let plan = FaultPlan::parse("5 crash 0\n10 crash 1\n").expect("parses");
        let mut sched = FaultSchedule::new(plan, 1);
        assert!(sched.take_due(4).is_empty());
        assert_eq!(sched.take_due(7).len(), 1);
        assert!(sched.take_due(7).is_empty(), "events fire once");
        assert_eq!(sched.take_due(100).len(), 1);
        assert!(sched.exhausted());
    }

    #[test]
    fn overlapping_recoveries_keep_the_later_tick() {
        let mut sched = FaultSchedule::new(FaultPlan::default(), 1);
        sched.schedule_recovery(4, 20);
        sched.schedule_recovery(4, 35);
        sched.schedule_recovery(4, 25); // earlier than pending: ignored
        assert!(sched.take_due_recoveries(30).is_empty());
        assert_eq!(sched.take_due_recoveries(35), vec![4]);
        assert!(sched.exhausted());
    }

    #[test]
    fn random_target_resolution_is_seed_deterministic() {
        let alive: Vec<NodeId> = (0..10).map(NodeId).collect();
        let pick = |seed| {
            let mut sched = FaultSchedule::new(FaultPlan::default(), seed);
            (0..5)
                .map(|_| {
                    sched
                        .resolve_target(FaultTarget::Random, &alive)
                        .map(|n| n.0)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(7), pick(7));
        let mut sched = FaultSchedule::new(FaultPlan::default(), 1);
        assert_eq!(sched.resolve_target(FaultTarget::Random, &[]), None);
        assert_eq!(
            sched.resolve_target(FaultTarget::Node(3), &[]),
            Some(NodeId(3))
        );
    }
}
