//! `cargo xtask benchcmp` — compare two `MICROBENCH_JSON` files and
//! gate on regressions.
//!
//! The microbench harness (crates/microbench) appends one JSON object
//! per benchmark: `{"name":"...","median_ns":...,"min_ns":...,
//! "iters":...,"allocs_per_iter":...}`. This module diffs a committed
//! baseline against a fresh run:
//!
//! - **`allocs_per_iter` gates hard.** Allocation counts are
//!   deterministic — independent of CPU load, frequency scaling or the
//!   shared-runner lottery — so any growth beyond the tolerance fails
//!   the comparison, and every other change is reported: a rise within
//!   the tolerance warns, and a fall notes that the row wants
//!   refreshing. A baseline of exactly 0 is a contract: the current run
//!   must also be 0 (the deliver-path "zero per-envelope heap
//!   allocation" invariant from DESIGN.md §12).
//! - **Wall-clock is advisory.** Wall-clock on shared CI runners is
//!   noisy; regressions beyond the tolerance are reported as warnings
//!   only and never affect the exit status. The check compares minima
//!   when both records carry `min_ns`, medians otherwise: a ms-scale
//!   bench takes one iteration per sample, and its median swings with
//!   the host far more than its fastest sample does.
//! - **A baseline bench missing from the current run fails** — the
//!   gate must not silently shrink. New benches in the current run are
//!   reported informationally (commit a refreshed baseline to adopt
//!   them).

use std::fmt::Write as _;

/// One parsed benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark label, e.g. `deliver_dense_broadcast_100`.
    pub name: String,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample's nanoseconds per iteration, when recorded.
    pub min_ns: Option<f64>,
    /// Heap allocations per iteration (deterministic).
    pub allocs_per_iter: f64,
}

/// Outcome of one comparison.
#[derive(Debug, Clone, Default)]
pub struct CmpReport {
    /// Hard failures (allocation regressions, missing benches).
    pub failures: Vec<String>,
    /// Warnings that do not fail the gate (wall-clock regressions,
    /// allocation rises within the tolerance).
    pub warnings: Vec<String>,
    /// Informational notes (new benches, improvements, allocation
    /// falls).
    pub notes: Vec<String>,
}

impl CmpReport {
    /// Whether the gate should fail.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Render the report for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            let _ = writeln!(out, "FAIL  {f}");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warn  {w}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note  {n}");
        }
        let _ = writeln!(
            out,
            "benchcmp: {} failure(s), {} warning(s)",
            self.failures.len(),
            self.warnings.len()
        );
        out
    }
}

fn find_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn find_string(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Labels are ascii identifiers plus '/'; the harness escapes
    // backslashes and quotes, so scan for the first unescaped quote.
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Parse a `MICROBENCH_JSON` file's contents (one JSON object per
/// line; blank lines ignored). Later records with the same name win,
/// matching the harness's append semantics.
pub fn parse_records(contents: &str) -> Vec<BenchRecord> {
    let mut records: Vec<BenchRecord> = Vec::new();
    for line in contents.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (Some(name), Some(median_ns), Some(allocs_per_iter)) = (
            find_string(line, "name"),
            find_number(line, "median_ns"),
            find_number(line, "allocs_per_iter"),
        ) else {
            continue;
        };
        let record = BenchRecord {
            name,
            median_ns,
            min_ns: find_number(line, "min_ns"),
            allocs_per_iter,
        };
        if let Some(existing) = records.iter_mut().find(|r| r.name == record.name) {
            *existing = record;
        } else {
            records.push(record);
        }
    }
    records
}

/// Compare `current` against `baseline` with a fractional `tolerance`
/// (0.15 = 15%). See the module docs for the gating rules.
pub fn compare(baseline: &[BenchRecord], current: &[BenchRecord], tolerance: f64) -> CmpReport {
    let mut report = CmpReport::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|r| r.name == base.name) else {
            report.failures.push(format!(
                "{}: present in baseline but missing from current run",
                base.name
            ));
            continue;
        };
        // Allocation counts are deterministic: gate hard. A zero
        // baseline allows zero, full stop; a nonzero baseline allows
        // the tolerance plus one allocation of absolute slack so a
        // 2-alloc bench does not fail on rounding.
        let alloc_limit = if base.allocs_per_iter == 0.0 {
            0.0
        } else {
            base.allocs_per_iter * (1.0 + tolerance) + 1.0
        };
        if cur.allocs_per_iter > alloc_limit {
            report.failures.push(format!(
                "{}: allocs/iter {} exceeds baseline {} (limit {:.1})",
                base.name, cur.allocs_per_iter, base.allocs_per_iter, alloc_limit
            ));
        } else if cur.allocs_per_iter > base.allocs_per_iter {
            report.warnings.push(format!(
                "{}: allocs/iter rose from {} to {} (within the limit {:.1})",
                base.name, base.allocs_per_iter, cur.allocs_per_iter, alloc_limit
            ));
        } else if cur.allocs_per_iter < base.allocs_per_iter {
            report.notes.push(format!(
                "{}: allocs/iter fell from {} to {}; refresh the baseline row",
                base.name, base.allocs_per_iter, cur.allocs_per_iter
            ));
        }
        // Wall-clock is advisory on shared runners.
        let (what, base_ns, cur_ns) = match (base.min_ns, cur.min_ns) {
            (Some(base_min), Some(cur_min)) => ("min", base_min, cur_min),
            _ => ("median", base.median_ns, cur.median_ns),
        };
        if cur_ns > base_ns * (1.0 + tolerance) {
            report.warnings.push(format!(
                "{}: {what} {:.0} ns is {:+.1}% vs baseline {:.0} ns (advisory)",
                base.name,
                cur_ns,
                (cur_ns / base_ns - 1.0) * 100.0,
                base_ns
            ));
        } else if cur_ns < base_ns * (1.0 - tolerance) {
            report.notes.push(format!(
                "{}: {what} improved {:.1}% ({:.0} ns -> {:.0} ns); consider refreshing the baseline",
                base.name,
                (1.0 - cur_ns / base_ns) * 100.0,
                base_ns,
                cur_ns
            ));
        }
    }
    for cur in current {
        if !baseline.iter().any(|r| r.name == cur.name) {
            report.notes.push(format!(
                "{}: new bench not in baseline (commit a refreshed BENCH_baseline.json to gate it)",
                cur.name
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, median_ns: f64, allocs: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_owned(),
            median_ns,
            min_ns: None,
            allocs_per_iter: allocs,
        }
    }

    fn timed(name: &str, median_ns: f64, min_ns: f64) -> BenchRecord {
        BenchRecord {
            min_ns: Some(min_ns),
            ..rec(name, median_ns, 1.0)
        }
    }

    #[test]
    fn parses_harness_output_lines() {
        let text = "\
{\"name\":\"deliver_dense_broadcast_100\",\"median_ns\":70560.0,\"iters\":50,\"allocs_per_iter\":0.0}\n\
\n\
{\"name\":\"model_fit/32\",\"median_ns\":1234.5,\"iters\":100,\"allocs_per_iter\":2.0}\n";
        let records = parse_records(text);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "deliver_dense_broadcast_100");
        assert_eq!(records[0].allocs_per_iter, 0.0);
        assert_eq!(records[1].name, "model_fit/32");
        assert_eq!(records[1].median_ns, 1234.5);
        assert_eq!(records[1].min_ns, None);
    }

    #[test]
    fn parses_the_minimum_when_a_record_carries_it() {
        let text = "{\"name\":\"query_batch_5k\",\"median_ns\":1740000.0,\"min_ns\":1060000.5,\"iters\":1,\"allocs_per_iter\":12.0}\n";
        let records = parse_records(text);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].median_ns, 1740000.0);
        assert_eq!(records[0].min_ns, Some(1060000.5));
        assert_eq!(records[0].allocs_per_iter, 12.0);
    }

    #[test]
    fn timing_compares_minima_when_both_records_have_them() {
        // The median swings 60 % while the fastest sample holds: no
        // warning, because both sides carry a minimum.
        let base = [timed("a", 1000.0, 900.0)];
        let report = compare(&base, &[timed("a", 1600.0, 920.0)], 0.15);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        // A slower minimum warns, whatever the medians say.
        let report = compare(&base, &[timed("a", 1000.0, 1200.0)], 0.15);
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("min 1200 ns"));
        // And a faster one notes an improvement.
        let report = compare(&base, &[timed("a", 1000.0, 500.0)], 0.15);
        assert!(report.notes[0].contains("min improved"));
        assert!(!report.failed());
    }

    #[test]
    fn timing_falls_back_to_medians_when_either_side_lacks_a_minimum() {
        let report = compare(&[rec("a", 1000.0, 1.0)], &[timed("a", 1600.0, 900.0)], 0.15);
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("median 1600 ns"));
        let report = compare(&[timed("a", 1000.0, 900.0)], &[rec("a", 1100.0, 1.0)], 0.15);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn duplicate_names_keep_the_last_record() {
        let text = "\
{\"name\":\"a\",\"median_ns\":10.0,\"iters\":1,\"allocs_per_iter\":1.0}\n\
{\"name\":\"a\",\"median_ns\":20.0,\"iters\":1,\"allocs_per_iter\":3.0}\n";
        let records = parse_records(text);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].median_ns, 20.0);
        assert_eq!(records[0].allocs_per_iter, 3.0);
    }

    #[test]
    fn allocation_regressions_fail_hard() {
        let base = [rec("a", 100.0, 10.0)];
        let cur = [rec("a", 100.0, 13.0)];
        let report = compare(&base, &cur, 0.15);
        assert!(report.failed());
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    fn zero_alloc_baseline_is_a_contract() {
        let base = [rec("deliver", 100.0, 0.0)];
        let ok = compare(&base, &[rec("deliver", 100.0, 0.0)], 0.15);
        assert!(!ok.failed());
        let bad = compare(&base, &[rec("deliver", 100.0, 0.5)], 0.15);
        assert!(bad.failed());
    }

    #[test]
    fn wall_clock_regressions_warn_but_pass() {
        let base = [rec("a", 100.0, 2.0)];
        let cur = [rec("a", 400.0, 2.0)];
        let report = compare(&base, &cur, 0.15);
        assert!(!report.failed());
        assert_eq!(report.warnings.len(), 1);
    }

    #[test]
    fn missing_bench_fails_and_new_bench_notes() {
        let base = [rec("gone", 100.0, 0.0)];
        let cur = [rec("fresh", 100.0, 0.0)];
        let report = compare(&base, &cur, 0.15);
        assert!(report.failed());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn an_allocation_rise_within_the_tolerance_warns() {
        let report = compare(&[rec("a", 100.0, 10.0)], &[rec("a", 100.0, 11.0)], 0.15);
        assert!(!report.failed());
        assert_eq!(
            report.warnings,
            ["a: allocs/iter rose from 10 to 11 (within the limit 12.5)"]
        );
        assert!(report.notes.is_empty());
    }

    #[test]
    fn an_allocation_rise_beyond_the_tolerance_fails_without_a_warning() {
        let report = compare(&[rec("a", 100.0, 10.0)], &[rec("a", 100.0, 13.0)], 0.15);
        assert_eq!(
            report.failures,
            ["a: allocs/iter 13 exceeds baseline 10 (limit 12.5)"]
        );
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn an_allocation_fall_notes_a_refresh() {
        let report = compare(&[rec("a", 100.0, 10.0)], &[rec("a", 100.0, 4.0)], 0.15);
        assert!(!report.failed());
        assert!(report.warnings.is_empty());
        assert_eq!(
            report.notes,
            ["a: allocs/iter fell from 10 to 4; refresh the baseline row"]
        );
    }

    #[test]
    fn small_alloc_counts_get_absolute_slack() {
        // 2 -> 3 allocs is within the +1 absolute slack even though
        // it is a 50% relative increase.
        let base = [rec("a", 100.0, 2.0)];
        let cur = [rec("a", 100.0, 3.0)];
        assert!(!compare(&base, &cur, 0.15).failed());
        let cur = [rec("a", 100.0, 4.0)];
        assert!(compare(&base, &cur, 0.15).failed());
    }
}
