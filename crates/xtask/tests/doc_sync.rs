//! Doc-sync: every rule of the DESIGN.md §10 policy table must be
//! switched on where it says it is, so the docs cannot drift from the
//! clippy configuration that holds them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .expect("repo root")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The text of DESIGN.md section `n`, up to the next `## ` heading.
fn design_section(design: &str, n: u32) -> String {
    let section = design
        .split(&format!("\n## {n}. "))
        .nth(1)
        .unwrap_or_else(|| panic!("DESIGN.md must have a §{n}"));
    section.split("\n## ").next().unwrap_or(section).to_string()
}

/// The body rows (below the `|---|` line) of the markdown tables in
/// `section`, as trimmed cells with enclosing backticks stripped.
fn table_rows(section: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut in_body = false;
    for line in section.lines().map(str::trim) {
        if !line.starts_with('|') {
            in_body = false;
        } else if line.chars().all(|c| matches!(c, '|' | '-' | ':' | ' ')) {
            in_body = true;
        } else if in_body {
            rows.push(
                line.trim_matches('|')
                    .split('|')
                    .map(|c| c.trim().trim_matches('`').to_string())
                    .collect(),
            );
        }
    }
    rows
}

/// `key = value` pairs of one `[section]` of a TOML file, read line by
/// line (comments stripped, quotes kept off the value).
fn toml_section(text: &str, name: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut inside = false;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == format!("[{name}]");
            continue;
        }
        if let (true, Some((key, value))) = (inside, line.split_once('=')) {
            out.insert(
                key.trim().to_string(),
                value.trim().trim_matches('"').to_string(),
            );
        }
    }
    out
}

/// The `path = "…"` entries of one `name = [ … ]` list in clippy.toml.
fn disallowed(clippy_toml: &str, list: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut inside = false;
    for line in clippy_toml.lines() {
        let line = line.trim();
        if line.starts_with(&format!("{list} = [")) {
            inside = true;
        } else if inside && line.starts_with(']') {
            inside = false;
        } else if let (true, Some(rest)) = (inside, line.split("path = \"").nth(1)) {
            out.insert(rest.split('"').next().unwrap_or("").to_string());
        }
    }
    out
}

/// Tier-1 guard on the clippy policy: CI's clippy step is what rejects
/// a panic or a nondeterminism source now, so a rule switched off in
/// `Cargo.toml` or `clippy.toml`, or a crate that stops opting in to
/// the workspace lints, must fail here, where every test run sees it.
#[test]
fn design_policy_table_matches_the_clippy_configuration() {
    let rows = table_rows(&design_section(&read("DESIGN.md"), 10));
    // Eleven rules today; fewer than ten means the table was cut or
    // no longer parses.
    assert!(rows.len() >= 10, "DESIGN.md §10 policy table: {rows:?}");

    let workspace_lints = toml_section(&read("Cargo.toml"), "workspace.lints.clippy");
    let clippy_toml = read("clippy.toml");
    for row in &rows {
        let [_, holder, place] = row.as_slice() else {
            panic!("§10 policy row needs three cells: {row:?}");
        };
        match place.as_str() {
            "workspace.lints.clippy" => {
                let lint = holder.strip_prefix("clippy::").unwrap_or(holder);
                assert_eq!(
                    workspace_lints.get(lint).map(String::as_str),
                    Some("deny"),
                    "Cargo.toml [workspace.lints.clippy] must set {lint} = \"deny\""
                );
            }
            "disallowed-types" | "disallowed-methods" => assert!(
                disallowed(&clippy_toml, place).contains(holder),
                "clippy.toml {place} must list {holder}"
            ),
            other => panic!("unknown `set in` place `{other}` in {row:?}"),
        }
    }

    for krate in [
        "core",
        "netsim",
        "query",
        "datagen",
        "telemetry",
        "snapshot-store",
    ] {
        let manifest = read(&format!("crates/{krate}/Cargo.toml"));
        assert_eq!(
            toml_section(&manifest, "lints")
                .get("workspace")
                .map(String::as_str),
            Some("true"),
            "crates/{krate}/Cargo.toml must opt in with [lints] workspace = true"
        );
    }
}
