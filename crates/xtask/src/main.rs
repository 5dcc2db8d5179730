//! `cargo xtask analyze` — repo-specific static analysis — and
//! `cargo xtask benchcmp` — the micro-benchmark regression gate.
//!
//! See the crate docs ([`xtask`]) for the lint families and the
//! `xtask-allow` escape hatch. Exit status: 0 when clean, 1 on any
//! finding or an over-budget audit, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask analyze [--json] [--sarif FILE] [--github]
                           [--allow-audit] [--list-lints] [paths…]
       cargo xtask benchcmp <baseline.json> <current.json> [--tolerance F]

Scans workspace sources for energy-accounting and allocation-contract
violations; clippy holds determinism and panic-freedom (DESIGN.md §10).
With no paths, scans every library source of the workspace (each
crates/*/src tree except xtask's, and the root src/).

options:
  --json         emit a machine-readable JSON report on stdout
  --sarif FILE   additionally write a SARIF 2.1.0 log to FILE
  --github       additionally emit GitHub Actions ::error annotations
                 on stdout
  --allow-audit  audit suppression counts against the [allow-budget]
                 section of xtask.toml; over-budget fails the run
  --list-lints   print the lint catalog (name | summary) and exit
  --help         show this message

Run `cargo xtask analyze --list-lints` for the full lint catalog; the
same table lives in DESIGN.md §15. Suppress a single finding with
`// xtask-allow(lint): reason` on the same line or the line above.
Contract functions with `// xtask-contract(zero_alloc)`, or mark a
dynamically-gated cold path with `// xtask-contract(alloc_cold): reason`.

benchcmp compares two MICROBENCH_JSON files (one JSON record per
bench). Deterministic allocation counters gate hard beyond the
tolerance (default 0.15; a baseline of 0 allocs admits only 0);
wall-clock is advisory, warnings only: it compares minima when both
records carry min_ns, medians otherwise. A baseline bench missing
from the current file fails the gate.";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => {}
        Some("benchcmp") => return benchcmp_main(args),
        Some("--help") | Some("help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    let mut json = false;
    let mut github = false;
    let mut allow_audit = false;
    let mut sarif_path: Option<PathBuf> = None;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--github" => github = true,
            "--allow-audit" => allow_audit = true,
            "--list-lints" => {
                print!("{}", xtask::render_lint_list());
                return ExitCode::SUCCESS;
            }
            "--sarif" => {
                sarif_path = args.next().map(PathBuf::from);
                if sarif_path.is_none() {
                    eprintln!("--sarif needs an output file\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
            "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => roots.push(PathBuf::from(path)),
        }
    }

    // CARGO_MANIFEST_DIR is crates/xtask; the repo root is two up.
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let report = if roots.is_empty() {
        xtask::analyze_workspace(&repo_root)
    } else {
        xtask::analyze_paths(&roots)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", xtask::to_json(&report));
    } else {
        for d in &report.diagnostics {
            println!("{}\n", d.render());
        }
        println!(
            "xtask analyze: {} file(s), {} error(s), {} allow(s) honored, {} contract(s)",
            report.files_scanned,
            report.diagnostics.len(),
            report.allows_honored,
            report.contracts.len()
        );
    }
    if github && !report.diagnostics.is_empty() {
        println!("{}", xtask::sarif::to_github_annotations(&report));
    }
    if let Some(path) = sarif_path {
        if let Err(e) = std::fs::write(&path, xtask::sarif::to_sarif(&report)) {
            eprintln!("xtask analyze: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let mut audit_failed = false;
    if allow_audit {
        let budget_path = repo_root.join("xtask.toml");
        let budget = std::fs::read_to_string(&budget_path)
            .ok()
            .and_then(|t| xtask::audit::parse_budget(&t));
        match budget {
            Some(budget) => {
                let outcome = xtask::audit::audit(&report, &budget);
                print!("{}", outcome.rendered);
                audit_failed = outcome.failed;
            }
            None => {
                eprintln!(
                    "xtask analyze: --allow-audit needs an [allow-budget] section in {}",
                    budget_path.display()
                );
                return ExitCode::from(2);
            }
        }
    }

    if report.failed() || audit_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn benchcmp_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut tolerance = 0.15;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => {
                tolerance = match args.next().as_deref().map(str::parse) {
                    Some(Ok(t)) if (0.0..10.0).contains(&t) => t,
                    _ => {
                        eprintln!("--tolerance needs a fraction like 0.15\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        eprintln!("benchcmp needs exactly two files\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &PathBuf| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("xtask benchcmp: {}: {e}", p.display());
            None
        }
    };
    let (Some(baseline_text), Some(current_text)) = (read(baseline_path), read(current_path))
    else {
        return ExitCode::from(2);
    };
    let baseline = xtask::benchcmp::parse_records(&baseline_text);
    let current = xtask::benchcmp::parse_records(&current_text);
    if baseline.is_empty() {
        eprintln!(
            "xtask benchcmp: no benchmark records in {}",
            baseline_path.display()
        );
        return ExitCode::from(2);
    }
    let report = xtask::benchcmp::compare(&baseline, &current, tolerance);
    print!("{}", report.render());
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
