//! Suppression-budget audit (`cargo xtask analyze --allow-audit`).
//!
//! Every `xtask-allow` and every `xtask-contract(alloc_cold)` is a
//! hole punched in a lint. Individually each is justified; in
//! aggregate they rot — so the total is budgeted in `xtask.toml` at
//! the repo root. The audit fails when the honored-suppression
//! count exceeds the committed budget, forcing the budget bump into
//! the same diff as the new allow where a reviewer can see both.

use crate::Report;
use std::collections::BTreeMap;

/// Parsed `[allow-budget]` section of `xtask.toml`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Maximum total suppressions (honored allows + alloc_cold marks).
    pub total: usize,
    /// Optional per-lint ceilings; `alloc_cold` budgets the cold
    /// marks.
    pub per_lint: BTreeMap<String, usize>,
}

/// Parse the `[allow-budget]` section from `xtask.toml` text. Keys are
/// `total = N` plus optional `lint_name = N` ceilings. Unknown
/// sections are ignored so the file can grow other knobs later.
pub fn parse_budget(text: &str) -> Option<Budget> {
    let mut budget = Budget::default();
    let mut in_section = false;
    let mut seen = false;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_section = line == "[allow-budget]";
            continue;
        }
        if !in_section {
            continue;
        }
        let mut parts = line.splitn(2, '=');
        let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let Ok(n) = value.parse::<usize>() else {
            continue;
        };
        seen = true;
        if key == "total" {
            budget.total = n;
        } else {
            budget.per_lint.insert(key.to_string(), n);
        }
    }
    seen.then_some(budget)
}

/// Outcome of one audit.
#[derive(Debug)]
pub struct AuditResult {
    /// Human-readable table.
    pub rendered: String,
    /// True when a ceiling was exceeded.
    pub failed: bool,
}

/// Audit a report's suppression counts against the budget.
pub fn audit(report: &Report, budget: &Budget) -> AuditResult {
    let mut counts: BTreeMap<&str, usize> = report
        .allow_counts
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let cold = report.cold_count();
    if cold > 0 {
        counts.insert("alloc_cold", cold);
    }
    let total: usize = counts.values().sum();

    let mut rendered = String::from("suppression audit (honored allows + alloc_cold marks)\n");
    let mut failed = false;
    for (lint, n) in &counts {
        let ceiling = budget.per_lint.get(*lint);
        let status = match ceiling {
            Some(c) if n > c => {
                failed = true;
                "OVER"
            }
            Some(_) => "ok",
            None => "-",
        };
        let ceiling_str = ceiling.map_or("-".to_string(), |c| c.to_string());
        rendered.push_str(&format!(
            "  {lint:<24} {n:>3} / {ceiling_str:<4} {status}\n"
        ));
    }
    let total_status = if total > budget.total {
        failed = true;
        "OVER"
    } else {
        "ok"
    };
    rendered.push_str(&format!(
        "  {:<24} {:>3} / {:<4} {}\n",
        "total", total, budget.total, total_status
    ));
    if failed {
        rendered.push_str(
            "audit FAILED: prune a suppression or raise the budget in xtask.toml \
             ([allow-budget]) in the same reviewed diff\n",
        );
    }
    AuditResult { rendered, failed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ContractSummary, Report};
    use std::path::PathBuf;

    fn report(allows: &[(&str, usize)], cold: usize) -> Report {
        let mut r = Report::default();
        for (lint, n) in allows {
            r.allow_counts.insert(lint.to_string(), *n);
        }
        for i in 0..cold {
            r.contracts.push(ContractSummary {
                kind: "alloc_cold".into(),
                function: format!("sink{i}"),
                path: PathBuf::from("x.rs"),
                line: 1,
            });
        }
        r
    }

    #[test]
    fn parses_budget_section() {
        let b = parse_budget(
            "# comment\n[allow-budget]\ntotal = 12  # inline comment\ncontract_zero_alloc = 4\n\n\
             [other]\ntotal = 99\n",
        )
        .expect("budget parsed");
        assert_eq!(b.total, 12);
        assert_eq!(b.per_lint.get("contract_zero_alloc"), Some(&4));
        assert_eq!(b.per_lint.len(), 1);
    }

    #[test]
    fn missing_section_is_none() {
        assert!(parse_budget("[other]\ntotal = 3\n").is_none());
    }

    #[test]
    fn total_over_budget_fails() {
        let r = report(&[("contract_zero_alloc", 3)], 2);
        let b = Budget {
            total: 4,
            per_lint: BTreeMap::new(),
        };
        let out = audit(&r, &b);
        assert!(out.failed);
        assert!(out.rendered.contains("total"));
        assert!(out.rendered.contains("OVER"));
    }

    #[test]
    fn per_lint_ceiling_fails_even_under_total() {
        let r = report(&[("contract_zero_alloc", 3)], 0);
        let mut per_lint = BTreeMap::new();
        per_lint.insert("contract_zero_alloc".to_string(), 2);
        let out = audit(
            &r,
            &Budget {
                total: 10,
                per_lint,
            },
        );
        assert!(out.failed);
    }

    #[test]
    fn under_budget_passes_and_counts_cold_marks() {
        let r = report(&[("contract_zero_alloc", 2)], 3);
        let out = audit(
            &r,
            &Budget {
                total: 5,
                per_lint: BTreeMap::new(),
            },
        );
        assert!(!out.failed, "{}", out.rendered);
        assert!(out.rendered.contains("alloc_cold"));
    }
}
