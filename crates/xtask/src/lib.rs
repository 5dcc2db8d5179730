//! Repo-specific static analysis (`cargo xtask analyze`).
//!
//! The paper's entire evaluation is simulation (Kotidis §6): every
//! figure this repo reproduces rests on the simulator and protocol
//! crates being **deterministic under a seed** and **panic-free under
//! fault injection**. Clippy holds both (DESIGN.md §10): the workspace
//! lint table denies `unwrap_used`, `expect_used` and the panic-family
//! macros, and `clippy.toml` disallows hash collections, wall clocks
//! and `std::thread::spawn`. This pass holds what no compiler tool
//! sees, over every library source of the workspace:
//!
//! 1. **Energy accounting** — in `election/` and `maintenance/`, every
//!    message send must carry a static phase tag, and every `pub fn`
//!    that (transitively) sends must take the energy-accounted
//!    `Network` as a parameter, keeping the paper's ≤6-messages/node
//!    budget auditable via `NetStats::sent_in_phase`.
//! 2. **Allocation contracts** — a function marked
//!    `// xtask-contract(zero_alloc)` must not reach an allocation site
//!    through any call chain, across crates ([`contracts`]).
//!
//! Enum-variant coverage is not this pass's job. Each handler that must
//! see every variant of its enum — `Network::apply_fault` (`FaultKind`),
//! `TraceSummary::from_events` (`Event`) and `snapshot_store::remediation`
//! (`StoreError`) — is a `match` with no wildcard arm, so rustc rejects
//! a new variant until it is handled, and a clippy `deny` on the
//! function keeps a wildcard arm out. That every `WakeReason` has a
//! wake source is held by one `netsim` unit test per reason.
//!
//! Escape hatch: `// xtask-allow(lint_name): reason` on the same line
//! or the line above suppresses one lint at one site. Allows must name
//! a real lint and carry a non-empty reason; stale or malformed allows
//! are themselves diagnostics.

pub mod audit;
pub mod benchcmp;
pub mod callgraph;
pub mod contracts;
pub mod lexer;
pub mod sarif;
pub mod symbols;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One finding at one source position. Every finding fails the run.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint name, e.g. `contract_zero_alloc`.
    pub lint: &'static str,
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Actionable fix suggestion.
    pub suggestion: &'static str,
}

impl Diagnostic {
    /// Render in rustc's `error[lint]: … --> file:line:col` style.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}:{}\n  = help: {}",
            self.lint,
            self.message,
            self.path.display(),
            self.line,
            self.col,
            self.suggestion
        )
    }
}

/// One row of the lint catalog (`--list-lints`, DESIGN.md §15 table).
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Lint name as it appears in diagnostics and allows.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every lint the analyzer can emit, used to validate `xtask-allow`
/// annotations. The doc-sync test asserts this table and the
/// DESIGN.md §15 reference table agree.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "unaccounted_send",
        summary: "protocol sends must carry a static phase tag",
    },
    LintInfo {
        name: "unthreaded_network",
        summary: "sending pub fns must take the energy-accounted Network",
    },
    LintInfo {
        name: "contract_zero_alloc",
        summary: "zero_alloc fns must not reach an allocation site through any call chain",
    },
    LintInfo {
        name: "bad_contract",
        summary: "malformed or dangling xtask-contract annotation",
    },
    LintInfo {
        name: "bad_allow",
        summary: "malformed xtask-allow annotation",
    },
    LintInfo {
        name: "unused_allow",
        summary: "xtask-allow that suppresses nothing",
    },
];

/// Render the lint catalog, one `name | summary` row per lint.
pub fn render_lint_list() -> String {
    let mut out = String::new();
    for info in LINTS {
        out.push_str(&format!("{} | {}\n", info.name, info.summary));
    }
    out
}

/// One contract attachment, summarized for the report (the self-check
/// test asserts the annotated hot paths actually carry their
/// contracts — a deleted annotation must not pass silently).
#[derive(Debug, Clone)]
pub struct ContractSummary {
    /// Contract kind (`zero_alloc` or `alloc_cold`).
    pub kind: String,
    /// Contracted function name.
    pub function: String,
    /// File the function is declared in.
    pub path: PathBuf,
    /// 1-based declaration line.
    pub line: u32,
}

/// Outcome of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics that survived `xtask-allow` filtering, in file
    /// order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `xtask-allow` annotations that suppressed a finding.
    pub allows_honored: usize,
    /// Honored suppressions per lint name (the `--allow-audit` input).
    pub allow_counts: BTreeMap<String, usize>,
    /// Contracts attached across the scanned set, in file order.
    pub contracts: Vec<ContractSummary>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of `alloc_cold` propagation barriers (they budget like
    /// allows in `--allow-audit`).
    pub fn cold_count(&self) -> usize {
        self.contracts
            .iter()
            .filter(|c| c.kind == "alloc_cold")
            .count()
    }

    /// True when the run should exit non-zero.
    pub fn failed(&self) -> bool {
        !self.diagnostics.is_empty()
    }
}

/// Analyze one source file on its own (calls bind only within it).
pub fn analyze_source(path: &Path, src: &str) -> Report {
    analyze_sources(
        vec![SourceFile {
            path: path.to_path_buf(),
            src: src.to_string(),
        }],
        None,
    )
}

/// One file in an analysis set.
#[derive(Debug)]
pub struct SourceFile {
    /// File path (used for crate attribution, the protocol-directory
    /// test, and diagnostics).
    pub path: PathBuf,
    /// File contents.
    pub src: String,
}

/// Analyze a set of files as one unit: the workspace contract passes
/// (symbol table → call graph → contract propagation), the energy
/// lints on `election/` and `maintenance/` files, and `xtask-allow`
/// policing in every file. `repo_root`, when known, supplies Cargo
/// manifests for the dependency-direction edge filter; without it,
/// calls bind across all scanned crates.
pub fn analyze_sources(files: Vec<SourceFile>, repo_root: Option<&Path>) -> Report {
    // Pass 1: lex everything once; feed the symbol table.
    let mut table = symbols::SymbolTable::default();
    let lexed: Vec<(SourceFile, lexer::Lexed, Vec<bool>)> = files
        .into_iter()
        .map(|f| {
            let lx = lexer::lex(&f.src);
            let excluded = lexer::test_regions(&lx.tokens);
            table.add_file(&f.path, &lx, &excluded);
            (f, lx, excluded)
        })
        .collect();
    if let Some(root) = repo_root {
        symbols::load_workspace_deps(root, &mut table);
    }
    table.finish();

    // Pass 2: contracts — attach across all files, then propagate.
    let mut set = contracts::ContractSet::default();
    let mut contract_diags = Vec::new();
    for (f, lx, _) in &lexed {
        contracts::attach(&f.path, lx, &table, &mut set, &mut contract_diags);
    }
    contracts::check(&table, &set, &mut contract_diags);

    // Pass 3: per-file energy lints, then allow filtering over the
    // union of that file's findings and any contract findings whose
    // site lands in it — so one site-level allow covers every
    // contracted root that reaches the site.
    let mut report = Report::default();
    for (f, lx, excluded) in &lexed {
        let mut diags = Vec::new();
        if is_protocol_dir(&f.path) {
            callgraph::energy_accounting(&f.path, &lx.tokens, excluded, &mut diags);
        }
        diags.extend(contract_diags.iter().filter(|d| d.path == f.path).cloned());
        let (kept, honored) = apply_allows(&f.path, &lx.allows, diags, &mut report.allow_counts);
        report.diagnostics.extend(kept);
        report.allows_honored += honored;
        report.files_scanned += 1;
    }

    report.contracts = set
        .attached
        .iter()
        .map(|c| ContractSummary {
            kind: c.kind.clone(),
            function: table.fns[c.fn_index].name.clone(),
            path: table.fns[c.fn_index].path.clone(),
            line: table.fns[c.fn_index].line,
        })
        .collect();
    report
}

/// Filter diagnostics through the file's `xtask-allow` annotations and
/// append diagnostics for malformed or stale annotations.
fn apply_allows(
    path: &Path,
    allows: &[lexer::Allow],
    diags: Vec<Diagnostic>,
    counts: &mut BTreeMap<String, usize>,
) -> (Vec<Diagnostic>, usize) {
    let mut used = vec![false; allows.len()];
    let mut kept = Vec::new();
    for d in diags {
        let mut suppressed = false;
        for (i, a) in allows.iter().enumerate() {
            // An allow covers its own line and the line below (so it
            // can sit inline or on its own line above the site), but
            // only when well-formed.
            if a.lint == d.lint
                && !a.reason.is_empty()
                && (a.line == d.line || a.line + 1 == d.line)
            {
                // Budget by allow *site*, not by suppressed finding: a
                // single site-level allow legitimately covers every
                // contracted root that reaches the site.
                if !used[i] {
                    used[i] = true;
                    *counts.entry(a.lint.clone()).or_default() += 1;
                }
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            kept.push(d);
        }
    }

    let allows_honored = used.iter().filter(|u| **u).count();
    for (i, a) in allows.iter().enumerate() {
        let (lint, message, suggestion) = if !LINTS.iter().any(|l| l.name == a.lint) {
            (
                "bad_allow",
                format!("xtask-allow names unknown lint `{}`", a.lint),
                "use one of the lints listed by `cargo xtask analyze --list-lints`",
            )
        } else if a.reason.is_empty() {
            (
                "bad_allow",
                format!("xtask-allow({}) is missing a justification", a.lint),
                "write `// xtask-allow(lint): why this site is safe`",
            )
        } else if !used[i] {
            (
                "unused_allow",
                format!(
                    "xtask-allow({}) suppresses nothing on this or the next line",
                    a.lint
                ),
                "remove the stale annotation or move it next to the violation",
            )
        } else {
            continue;
        };
        kept.push(Diagnostic {
            lint,
            path: path.to_path_buf(),
            line: a.line,
            col: 1,
            message,
            suggestion,
        });
    }
    kept.sort_by_key(|d| (d.line, d.col));
    (kept, allows_honored)
}

/// True when the `election`/`maintenance` energy lints apply to this
/// path.
pub fn is_protocol_dir(path: &Path) -> bool {
    path.components().any(|c| {
        let s = c.as_os_str().to_string_lossy();
        s == "election" || s == "maintenance"
    })
}

/// Recursively collect `.rs` files under `root` (or `root` itself),
/// skipping integration-test and bench directories.
pub fn collect_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            let name = entry
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if name == "tests" || name == "benches" || name == "target" {
                continue;
            }
            collect_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Walk up from `start` to the workspace root (the ancestor holding
/// both `Cargo.toml` and `crates/`), so the dependency-direction edge
/// filter can read manifests.
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|a| a.join("Cargo.toml").is_file() && a.join("crates").is_dir())
        .map(Path::to_path_buf)
}

/// Analyze every `.rs` file under the given roots as one unit.
pub fn analyze_paths(roots: &[PathBuf]) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for root in roots {
        collect_files(root, &mut files)?;
    }
    let mut sources = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        sources.push(SourceFile { path, src });
    }
    let repo_root = roots.first().and_then(|r| find_repo_root(r));
    Ok(analyze_sources(sources, repo_root.as_deref()))
}

/// Analyze the whole workspace: every library source, i.e. each
/// `crates/*/src` tree and the repo-root `src/`, so contract
/// propagation sees the full call graph. xtask analyzes, it is not
/// analyzed: its own sources are full of lint-pattern fragments.
pub fn analyze_workspace(repo_root: &Path) -> std::io::Result<Report> {
    let mut roots: Vec<PathBuf> = std::fs::read_dir(repo_root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|dir| dir.file_name().is_some_and(|n| n != "xtask"))
        .map(|dir| dir.join("src"))
        .collect();
    roots.sort();
    roots.push(repo_root.join("src"));
    roots.retain(|src| src.is_dir());
    analyze_paths(&roots)
}

/// Minimal JSON string escaping for `--json` output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a report as a JSON object.
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\", \"suggestion\": \"{}\"}}{}\n",
            d.lint,
            json_escape(&d.path.display().to_string()),
            d.line,
            d.col,
            json_escape(&d.message),
            json_escape(d.suggestion),
            if i + 1 < report.diagnostics.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"allow_counts\": {");
    for (i, (lint, n)) in report.allow_counts.iter().enumerate() {
        out.push_str(&format!(
            "{}\"{}\": {}",
            if i == 0 { "" } else { ", " },
            json_escape(lint),
            n
        ));
    }
    out.push_str("},\n  \"contracts\": [\n");
    for (i, c) in report.contracts.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"function\": \"{}\", \"file\": \"{}\", \"line\": {}}}{}\n",
            json_escape(&c.kind),
            json_escape(&c.function),
            json_escape(&c.path.display().to_string()),
            c.line,
            if i + 1 < report.contracts.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"errors\": {},\n  \"allows_honored\": {},\n  \"files_scanned\": {}\n}}",
        report.diagnostics.len(),
        report.allows_honored,
        report.files_scanned
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero_alloc function whose one allocation site, `v.push(1)`,
    /// sits on line 4; `allow` goes on line 3, the line above it.
    fn push_site(allow: &str) -> String {
        format!("// xtask-contract(zero_alloc)\nfn f(v: &mut Vec<u8>) {{\n    {allow}\n    v.push(1);\n}}\n")
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        analyze_source(Path::new("mem.rs"), src).diagnostics
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let d = run("// xtask-contract(zero_alloc)\nfn f(v: &mut Vec<u8>) { v.push(1) } // xtask-allow(contract_zero_alloc): warm capacity\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_on_line_above_suppresses() {
        let d = run(&push_site(
            "// xtask-allow(contract_zero_alloc): capacity reserved by the caller",
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_must_match_lint_name() {
        let d = run(&push_site("// xtask-allow(unaccounted_send): wrong lint"));
        // The push fires AND the allow is stale.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.lint == "contract_zero_alloc"));
        assert!(d.iter().any(|d| d.lint == "unused_allow"));
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let d = run(&push_site("// xtask-allow(contract_zero_alloc)"));
        assert!(d.iter().any(|d| d.lint == "contract_zero_alloc"));
        assert!(d.iter().any(|d| d.lint == "bad_allow"));
    }

    #[test]
    fn allow_with_unknown_lint_is_rejected() {
        // Unwraps are clippy's (`unwrap_used`), not a lint of this
        // pass, so an allow naming `no_unwrap` is malformed.
        let d = run("// xtask-allow(no_unwrap): whatever\nfn f() {}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, "bad_allow");
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_failure_semantics() {
        let mut r = Report::default();
        assert!(!r.failed());
        r.diagnostics.push(Diagnostic {
            lint: "unused_allow",
            path: PathBuf::from("x.rs"),
            line: 2,
            col: 1,
            message: String::new(),
            suggestion: "",
        });
        assert!(r.failed());
    }

    #[test]
    fn protocol_dir_detection() {
        assert!(is_protocol_dir(Path::new(
            "crates/core/src/election/engine.rs"
        )));
        assert!(is_protocol_dir(Path::new(
            "crates/core/src/maintenance/mod.rs"
        )));
        assert!(!is_protocol_dir(Path::new("crates/core/src/model.rs")));
    }
}
