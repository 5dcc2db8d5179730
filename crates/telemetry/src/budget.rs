//! Performance budgets over recorded spans (`PERF_BUDGET.toml`).
//!
//! A budget file commits ceilings on span-level behavior — how many
//! elections a run may hold, how slow the p99 query execution may get
//! in simulation ticks — so CI can gate *causality-level* regressions
//! the same way `benchcmp` gates allocations. The parser reads a
//! hand-rolled section/`key = value` TOML subset (the workspace builds
//! offline with zero external dependencies).
//!
//! File format:
//!
//! ```toml
//! [span-budget]
//! election_max_count = 3      # at most 3 election spans per trace
//! query_exec_p99_ticks = 64   # p99 query-exec duration in sim ticks
//! repair_max_ticks = 200      # no repair episode longer than this
//! ```
//!
//! Keys are `<span_kind>_<metric>` where the metric suffix is one of
//! `max_count`, `p99_ticks`, or `max_ticks`. Unknown keys are a parse
//! error — a typoed bound that silently never fires is worse than a
//! loud one.

use crate::replay::TraceSummary;
use crate::span::SpanKind;

/// Which aggregate a budget rule bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetMetric {
    /// Closed-span count of the kind.
    MaxCount,
    /// 99th-percentile duration in simulation ticks.
    P99Ticks,
    /// Maximum duration in simulation ticks.
    MaxTicks,
}

impl BudgetMetric {
    /// The key suffix in `PERF_BUDGET.toml`.
    pub fn suffix(self) -> &'static str {
        match self {
            BudgetMetric::MaxCount => "max_count",
            BudgetMetric::P99Ticks => "p99_ticks",
            BudgetMetric::MaxTicks => "max_ticks",
        }
    }
}

/// One parsed budget rule: `kind`'s `metric` must stay ≤ `bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetRule {
    /// The span kind bounded.
    pub kind: SpanKind,
    /// Which aggregate is bounded.
    pub metric: BudgetMetric,
    /// Inclusive ceiling.
    pub bound: u64,
}

/// One rule a trace broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetViolation {
    /// The broken rule.
    pub rule: BudgetRule,
    /// The observed value that exceeded the bound.
    pub actual: u64,
}

impl core::fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "span budget violated: {}_{} = {} exceeds bound {}",
            self.rule.kind.as_str(),
            self.rule.metric.suffix(),
            self.actual,
            self.rule.bound,
        )
    }
}

/// A parsed `PERF_BUDGET.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfBudget {
    rules: Vec<BudgetRule>,
}

impl PerfBudget {
    /// Parse the `[span-budget]` section. Returns an error naming the
    /// offending line for unknown keys or unparsable values; a file
    /// with no `[span-budget]` section parses to an empty budget.
    pub fn parse(text: &str) -> Result<PerfBudget, String> {
        let mut budget = PerfBudget::default();
        let mut in_section = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                in_section = line == "[span-budget]";
                continue;
            }
            if !in_section {
                continue;
            }
            let mut parts = line.splitn(2, '=');
            let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
                return Err(format!("line {}: expected `key = value`", lineno + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            let bound: u64 = value
                .parse()
                .map_err(|_| format!("line {}: `{value}` is not a u64", lineno + 1))?;
            let rule = Self::parse_key(key)
                .ok_or_else(|| format!("line {}: unknown budget key `{key}`", lineno + 1))?;
            budget.rules.push(BudgetRule {
                kind: rule.0,
                metric: rule.1,
                bound,
            });
        }
        Ok(budget)
    }

    fn parse_key(key: &str) -> Option<(SpanKind, BudgetMetric)> {
        for metric in [
            BudgetMetric::MaxCount,
            BudgetMetric::P99Ticks,
            BudgetMetric::MaxTicks,
        ] {
            if let Some(prefix) = key
                .strip_suffix(metric.suffix())
                .and_then(|p| p.strip_suffix('_'))
            {
                if let Some(kind) = SpanKind::parse(prefix) {
                    return Some((kind, metric));
                }
            }
        }
        None
    }

    /// The parsed rules.
    pub fn rules(&self) -> &[BudgetRule] {
        &self.rules
    }

    /// True when no rules were parsed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Check every rule against a trace, returning the violations in
    /// rule order. A kind with no closed spans has count 0 and trivially
    /// satisfies latency bounds.
    pub fn check(&self, summary: &TraceSummary) -> Vec<BudgetViolation> {
        let stats = summary.span_stats();
        let for_kind = |kind: SpanKind| stats.iter().find(|st| st.kind == kind);
        let mut out = Vec::new();
        for &rule in &self.rules {
            let actual = match (rule.metric, for_kind(rule.kind)) {
                (BudgetMetric::MaxCount, st) => st.map_or(0, |st| st.count),
                (BudgetMetric::P99Ticks, st) => st.map_or(0, |st| st.p99),
                (BudgetMetric::MaxTicks, st) => st.map_or(0, |st| st.max),
            };
            if actual > rule.bound {
                out.push(BudgetViolation { rule, actual });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn trace_with_spans(durations: &[(SpanKind, u64, u64)]) -> TraceSummary {
        let mut events = Vec::new();
        for (i, &(kind, open, close)) in durations.iter().enumerate() {
            let id = i as u64 + 1;
            events.push(Event::SpanOpen {
                tick: open,
                id,
                parent: 0,
                span: kind,
            });
            events.push(Event::SpanClose {
                tick: close,
                id,
                span: kind,
                open_tick: open,
                wall_ns: 0,
            });
        }
        events.sort_by_key(Event::tick);
        TraceSummary::from_events(&events)
    }

    #[test]
    fn parses_rules_and_ignores_other_sections() {
        let b = PerfBudget::parse(
            "# comment\n[span-budget]\nelection_max_count = 3\n\
             query_exec_p99_ticks = 64 # inline\nrepair_max_ticks = 200\n\
             [other]\nwhatever = oops\n",
        )
        .expect("budget parses");
        assert_eq!(b.rules().len(), 3);
        assert_eq!(
            b.rules()[0],
            BudgetRule {
                kind: SpanKind::Election,
                metric: BudgetMetric::MaxCount,
                bound: 3,
            }
        );
        assert_eq!(b.rules()[1].kind, SpanKind::QueryExec);
        assert_eq!(b.rules()[1].metric, BudgetMetric::P99Ticks);
        assert_eq!(b.rules()[2].metric, BudgetMetric::MaxTicks);
    }

    #[test]
    fn unknown_key_is_a_loud_error() {
        let err = PerfBudget::parse("[span-budget]\nelectoin_max_count = 3\n")
            .expect_err("typo rejected");
        assert!(err.contains("electoin_max_count"), "{err}");
        assert!(PerfBudget::parse("[span-budget]\nelection_max_count = x\n").is_err());
    }

    #[test]
    fn empty_budget_parses_and_passes() {
        let b = PerfBudget::parse("[other]\nk = 1\n").expect("empty budget");
        assert!(b.is_empty());
        assert!(b.check(&TraceSummary::default()).is_empty());
    }

    #[test]
    fn count_and_latency_bounds_trip() {
        let trace = trace_with_spans(&[
            (SpanKind::Election, 0, 10),
            (SpanKind::Election, 10, 20),
            (SpanKind::QueryExec, 20, 120),
        ]);
        let b = PerfBudget::parse(
            "[span-budget]\nelection_max_count = 1\nquery_exec_p99_ticks = 50\n\
             repair_max_ticks = 5\n",
        )
        .expect("budget parses");
        let violations = b.check(&trace);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert_eq!(violations[0].actual, 2, "two elections vs bound 1");
        assert_eq!(violations[1].actual, 100, "query-exec took 100 ticks");
        assert!(violations[0].to_string().contains("election_max_count"));
        // No repair spans at all → the repair bound trivially holds.
    }

    #[test]
    fn widened_span_trips_a_previously_green_gate() {
        // Mutation-style: the same trace passes, then a single span
        // widened past the bound flips the gate to red.
        let b = PerfBudget::parse("[span-budget]\nquery_exec_max_ticks = 100\n")
            .expect("budget parses");
        let green = trace_with_spans(&[(SpanKind::QueryExec, 0, 100)]);
        assert!(b.check(&green).is_empty());
        let red = trace_with_spans(&[(SpanKind::QueryExec, 0, 101)]);
        let violations = b.check(&red);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].actual, 101);
    }
}
