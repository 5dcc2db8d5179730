//! End-to-end checks of `cargo xtask analyze`: the fixtures must
//! produce exactly the expected diagnostics, and the real workspace
//! must be clean.

use std::path::{Path, PathBuf};
use xtask::analyze_source;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn sends_fixture_reports_exact_diagnostics() {
    // The energy lints run on election/ and maintenance/ paths only;
    // the fixture sits under `election/` for that reason.
    let path = manifest_dir().join("tests/fixtures/election/sends.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let diags = analyze_source(&path, &src).diagnostics;
    let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.lint, d.line)).collect();
    assert_eq!(
        got,
        vec![("unaccounted_send", 6), ("unthreaded_network", 11)],
        "got: {diags:?}"
    );
}

#[test]
fn fixture_run_exits_nonzero_and_workspace_run_exits_zero() {
    let fixtures = manifest_dir().join("tests/fixtures");
    let report = xtask::analyze_paths(&[fixtures]).expect("fixtures scan");
    assert!(report.failed(), "fixtures must fail the analyzer");

    // Self-check: the real workspace is clean (the same invariant CI
    // enforces via `cargo xtask analyze`).
    let repo_root = manifest_dir()
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .expect("repo root");
    let report = xtask::analyze_workspace(&repo_root).expect("workspace scan");
    let findings: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        findings.is_empty(),
        "workspace must be free of findings:\n{}",
        findings.join("\n")
    );
    assert!(
        report.files_scanned > 40,
        "expected to scan every library crate"
    );
}

#[test]
fn grid_module_is_scanned_and_clean() {
    // The grid spatial index is protocol-critical state (neighbor
    // lists feed every election) and holds two zero_alloc contracts,
    // so the workspace scan must reach it and find it clean. Its
    // `BTreeMap` buckets are clippy's to hold (`disallowed-types`).
    let repo_root = manifest_dir()
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .expect("repo root");
    let grid = repo_root.join("crates/netsim/src/grid.rs");
    let report = xtask::analyze_workspace(&repo_root).expect("workspace scan");
    let contracted: Vec<&str> = report
        .contracts
        .iter()
        .filter(|c| c.path == grid && c.kind == "zero_alloc")
        .map(|c| c.function.as_str())
        .collect();
    assert_eq!(contracted, ["relocate", "candidates_around"]);
    let findings: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.path == grid)
        .map(|d| d.render())
        .collect();
    assert!(
        findings.is_empty(),
        "grid.rs must be free of findings:\n{}",
        findings.join("\n")
    );
}

#[test]
fn json_report_is_well_formed() {
    let fixtures = manifest_dir().join("tests/fixtures");
    let report = xtask::analyze_paths(&[fixtures]).expect("fixtures scan");
    let json = xtask::to_json(&report);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"diagnostics\""));
    assert!(json.contains("\"contract_zero_alloc\""));
    assert!(json.contains("\"errors\""));
    // Balanced braces/brackets — cheap structural sanity without a
    // JSON parser dependency.
    let braces = json.matches('{').count();
    assert_eq!(braces, json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
