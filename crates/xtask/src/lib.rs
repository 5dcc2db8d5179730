//! Repo-specific static analysis (`cargo xtask analyze`).
//!
//! The paper's entire evaluation is simulation (Kotidis §6): every
//! figure this repo reproduces rests on the simulator and protocol
//! crates being **deterministic under a seed** and **panic-free under
//! fault injection**. This pass walks the protocol crates
//! (`core`, `netsim`, `query`, `datagen`), the telemetry layer and the
//! snapshot store, and emits rustc-style diagnostics for three
//! invariant families:
//!
//! 1. **Determinism** — no `HashMap`/`HashSet` (iteration order leaks
//!    into protocol state), no `rand::thread_rng` / argless
//!    `rand::random`, no `Instant::now` / `SystemTime::now`. All
//!    randomness must flow through the seeded `netsim::rng`.
//! 2. **Panic-freedom** — no `.unwrap()`, `.expect(…)`, `panic!`,
//!    `unreachable!`, `todo!`, `unimplemented!` in non-test library
//!    code; slice-index expressions are reported at *warn* level
//!    (verified hot-path indexing is idiomatic, but it should be
//!    visible and auditable).
//! 3. **Energy accounting** — in `election/` and `maintenance/`, every
//!    message send must carry a static phase tag, and every `pub fn`
//!    that (transitively) sends must take the energy-accounted
//!    [`Network`] as a parameter, keeping the paper's ≤6-messages/node
//!    budget auditable via `NetStats::sent_in_phase`.
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
//! are themselves deny-level diagnostics.

pub mod audit;
pub mod benchcmp;
pub mod callgraph;
pub mod contracts;
pub mod lexer;
pub mod lints;
pub mod sarif;
pub mod symbols;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Fails the run (non-zero exit).
    Deny,
    /// Reported but does not fail the run unless `--strict`.
    Warn,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Deny => f.write_str("error"),
            Level::Warn => f.write_str("warning"),
        }
    }
}

/// One finding at one source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint name, e.g. `no_unwrap`.
    pub lint: &'static str,
    /// Severity.
    pub level: Level,
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
            "{}[{}]: {}\n  --> {}:{}:{}\n  = help: {}",
            self.level,
            self.lint,
            self.message,
            self.path.display(),
            self.line,
            self.col,
            self.suggestion
        )
    }
}

/// All lint names the analyzer can emit, used to validate
/// `xtask-allow` annotations.
pub const LINT_NAMES: &[&str] = &[
    "no_unwrap",
    "no_expect",
    "no_panic",
    "slice_index",
    "no_hash_collections",
    "no_ambient_rng",
    "no_wall_clock",
    "no_thread_spawn",
    "unaccounted_send",
    "unthreaded_network",
    "contract_zero_alloc",
    "contract_deterministic",
    "bad_contract",
    "bad_allow",
    "unused_allow",
];

/// One row of the lint catalog (`--list-lints`, DESIGN.md §15 table).
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Lint name as it appears in diagnostics and allows.
    pub name: &'static str,
    /// Default severity (`deny` or `warn`).
    pub level: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The full lint catalog, in [`LINT_NAMES`] order. The doc-sync test
/// asserts this table and the DESIGN.md §15 reference table agree.
pub fn lint_infos() -> Vec<LintInfo> {
    vec![
        LintInfo {
            name: "no_unwrap",
            level: "deny",
            summary: "`.unwrap()` can panic under fault injection",
        },
        LintInfo {
            name: "no_expect",
            level: "deny",
            summary: "`.expect(…)` can panic under fault injection",
        },
        LintInfo {
            name: "no_panic",
            level: "deny",
            summary: "panic-family macros abort instead of degrading",
        },
        LintInfo {
            name: "slice_index",
            level: "warn",
            summary: "slice-index expressions can panic on out-of-bounds",
        },
        LintInfo {
            name: "no_hash_collections",
            level: "deny",
            summary: "HashMap/HashSet iteration order is nondeterministic",
        },
        LintInfo {
            name: "no_ambient_rng",
            level: "deny",
            summary: "ambient RNG makes runs unreproducible",
        },
        LintInfo {
            name: "no_wall_clock",
            level: "deny",
            summary: "wall-clock reads leak real time into simulated state",
        },
        LintInfo {
            name: "no_thread_spawn",
            level: "deny",
            summary: "unmanaged threads leak interleaving into results",
        },
        LintInfo {
            name: "unaccounted_send",
            level: "deny",
            summary: "protocol sends must carry a static phase tag",
        },
        LintInfo {
            name: "unthreaded_network",
            level: "deny",
            summary: "sending pub fns must take the energy-accounted Network",
        },
        LintInfo {
            name: "contract_zero_alloc",
            level: "deny",
            summary: "zero_alloc fns must not reach an allocation site through any call chain",
        },
        LintInfo {
            name: "contract_deterministic",
            level: "deny",
            summary: "deterministic fns must not reach a nondeterminism source",
        },
        LintInfo {
            name: "bad_contract",
            level: "deny",
            summary: "malformed or dangling xtask-contract annotation",
        },
        LintInfo {
            name: "bad_allow",
            level: "deny",
            summary: "malformed xtask-allow annotation",
        },
        LintInfo {
            name: "unused_allow",
            level: "deny",
            summary: "xtask-allow that suppresses nothing",
        },
    ]
}

/// Render the lint catalog, one `name | level | summary` row per lint.
pub fn render_lint_list() -> String {
    let mut out = String::new();
    for info in lint_infos() {
        out.push_str(&format!(
            "{} | {} | {}\n",
            info.name, info.level, info.summary
        ));
    }
    out
}

/// One contract attachment, summarized for the report (the self-check
/// test asserts the annotated hot paths actually carry their
/// contracts — a deleted annotation must not pass silently).
#[derive(Debug, Clone)]
pub struct ContractSummary {
    /// Contract kind (`zero_alloc`, `deterministic`, `alloc_cold`).
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
    /// Deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .count()
    }

    /// Warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Warn)
            .count()
    }

    /// Number of `alloc_cold` propagation barriers (they budget like
    /// allows in `--allow-audit`).
    pub fn cold_count(&self) -> usize {
        self.contracts
            .iter()
            .filter(|c| c.kind == "alloc_cold")
            .count()
    }

    /// True when the run should exit non-zero.
    pub fn failed(&self, strict: bool) -> bool {
        self.deny_count() > 0 || (strict && self.warn_count() > 0)
    }
}

/// Analyze one source file (token lints only — the contract passes
/// need the whole file set; see [`analyze_sources`]).
///
/// `protocol_dir` enables the energy-accounting lints (used for
/// `election/` and `maintenance/` sources).
pub fn analyze_source(path: &Path, src: &str, protocol_dir: bool) -> (Vec<Diagnostic>, usize) {
    let report = analyze_sources(
        vec![SourceFile {
            path: path.to_path_buf(),
            src: src.to_string(),
            lint: protocol_dir_mode(protocol_dir),
        }],
        None,
    );
    (report.diagnostics, report.allows_honored)
}

fn protocol_dir_mode(protocol_dir: bool) -> LintMode {
    if protocol_dir {
        LintMode::Protocol
    } else {
        LintMode::Lint
    }
}

/// How a file participates in the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintMode {
    /// Token lints plus the energy-accounting call-graph lints.
    Protocol,
    /// Token lints only.
    Lint,
    /// Symbol/contract scanning only: the file feeds the call graph
    /// (and can receive contract diagnostics), but its own tokens are
    /// not linted and stale allows in it are not policed.
    SymbolsOnly,
}

/// One file in an analysis set.
#[derive(Debug)]
pub struct SourceFile {
    /// File path (used for crate attribution and diagnostics).
    pub path: PathBuf,
    /// File contents.
    pub src: String,
    /// Participation mode.
    pub lint: LintMode,
}

/// Analyze a set of files as one unit: per-file token lints and the
/// workspace contract passes (symbol table → call graph → contract
/// propagation). `repo_root`, when known, supplies Cargo manifests for
/// the dependency-direction edge filter; without it, calls bind across
/// all scanned crates.
pub fn analyze_sources(files: Vec<SourceFile>, repo_root: Option<&Path>) -> Report {
    // Pass 1: lex everything once; feed the symbol table.
    let mut table = symbols::SymbolTable::default();
    let lexed: Vec<(SourceFile, lexer::Lexed, Vec<bool>)> = files
        .into_iter()
        .map(|f| {
            let lx = lexer::lex(&f.src);
            let excluded = lints::test_regions(&lx.tokens);
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

    // Pass 3: per-file token lints, then allow filtering over the
    // union of that file's token findings and any contract findings
    // whose site lands in it — so one site-level allow covers every
    // contracted root that reaches the site.
    let mut report = Report::default();
    for (f, lx, excluded) in &lexed {
        let mut diags = Vec::new();
        if f.lint != LintMode::SymbolsOnly {
            lints::panic_freedom(&f.path, &lx.tokens, excluded, &mut diags);
            lints::determinism(&f.path, &lx.tokens, excluded, &mut diags);
            if f.lint == LintMode::Protocol {
                callgraph::energy_accounting(&f.path, &lx.tokens, excluded, &mut diags);
            }
        }
        diags.extend(contract_diags.iter().filter(|d| d.path == f.path).cloned());
        let police = f.lint != LintMode::SymbolsOnly;
        let (kept, honored) =
            apply_allows(&f.path, &lx.allows, diags, police, &mut report.allow_counts);
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
/// append diagnostics for malformed or stale annotations. Staleness
/// (`bad_allow`/`unused_allow`) is only policed when `police` is set —
/// symbol-only files get suppression without the audit trail.
fn apply_allows(
    path: &Path,
    allows: &[lexer::Allow],
    diags: Vec<Diagnostic>,
    police: bool,
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
    if police {
        for (i, a) in allows.iter().enumerate() {
            if !LINT_NAMES.contains(&a.lint.as_str()) {
                kept.push(Diagnostic {
                    lint: "bad_allow",
                    level: Level::Deny,
                    path: path.to_path_buf(),
                    line: a.line,
                    col: 1,
                    message: format!("xtask-allow names unknown lint `{}`", a.lint),
                    suggestion: "use one of the lints listed by `cargo xtask analyze --list-lints`",
                });
            } else if a.reason.is_empty() {
                kept.push(Diagnostic {
                    lint: "bad_allow",
                    level: Level::Deny,
                    path: path.to_path_buf(),
                    line: a.line,
                    col: 1,
                    message: format!("xtask-allow({}) is missing a justification", a.lint),
                    suggestion: "write `// xtask-allow(lint): why this site is safe`",
                });
            } else if !used[i] {
                kept.push(Diagnostic {
                    lint: "unused_allow",
                    level: Level::Deny,
                    path: path.to_path_buf(),
                    line: a.line,
                    col: 1,
                    message: format!(
                        "xtask-allow({}) suppresses nothing on this or the next line",
                        a.lint
                    ),
                    suggestion: "remove the stale annotation or move it next to the violation",
                });
            }
        }
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

/// Analyze every `.rs` file under the given roots: token lints and
/// the contract passes over the same set.
pub fn analyze_paths(roots: &[PathBuf]) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for root in roots {
        collect_files(root, &mut files)?;
    }
    let mut sources = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let lint = protocol_dir_mode(is_protocol_dir(&file));
        sources.push(SourceFile {
            path: file,
            src,
            lint,
        });
    }
    let repo_root = roots.first().and_then(|r| find_repo_root(r));
    Ok(analyze_sources(sources, repo_root.as_deref()))
}

/// Analyze the whole workspace: the lint roots ([`default_roots`] plus
/// the sanctioned bench runner), with every other library source —
/// the rest of `crates/bench`, `crates/microbench`, and the repo-root
/// `src/` — scanned for symbols so contract propagation sees the full
/// call graph even where token lints do not apply.
pub fn analyze_workspace(repo_root: &Path) -> std::io::Result<Report> {
    let mut lint_files = Vec::new();
    for root in default_roots(repo_root) {
        collect_files(&root, &mut lint_files)?;
    }
    for bench_file in ["crates/bench/src/runner.rs", "crates/bench/src/serve.rs"] {
        let path = repo_root.join(bench_file);
        if path.is_file() {
            lint_files.push(path);
        }
    }

    let mut symbol_files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(repo_root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for dir in dirs {
            // xtask analyzes, it is not analyzed: its own sources are
            // full of lint-pattern string fragments.
            if dir.file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                collect_files(&src, &mut symbol_files)?;
            }
        }
    }
    let root_src = repo_root.join("src");
    if root_src.is_dir() {
        collect_files(&root_src, &mut symbol_files)?;
    }

    let mut sources = Vec::new();
    for file in &lint_files {
        sources.push(SourceFile {
            path: file.clone(),
            src: std::fs::read_to_string(file)?,
            lint: protocol_dir_mode(is_protocol_dir(file)),
        });
    }
    for file in symbol_files {
        if lint_files.contains(&file) {
            continue;
        }
        sources.push(SourceFile {
            path: file.clone(),
            src: std::fs::read_to_string(&file)?,
            lint: LintMode::SymbolsOnly,
        });
    }
    Ok(analyze_sources(sources, Some(repo_root)))
}

/// The workspace's default scan roots, relative to the repo root: the
/// protocol/simulator crates the invariants protect, plus the
/// telemetry layer (which must stay deterministic for traces to be
/// reproducible) and the snapshot store (whose canonical codec must
/// stay deterministic and whose failures must surface as typed
/// errors, not panics).
pub fn default_roots(repo_root: &Path) -> Vec<PathBuf> {
    [
        "core",
        "netsim",
        "query",
        "datagen",
        "telemetry",
        "snapshot-store",
    ]
    .iter()
    .map(|c| repo_root.join("crates").join(c).join("src"))
    .collect()
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

/// Render a report as a JSON object for CI consumption.
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"level\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\", \"suggestion\": \"{}\"}}{}\n",
            d.lint,
            d.level,
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
        "  ],\n  \"deny\": {},\n  \"warn\": {},\n  \"allows_honored\": {},\n  \"files_scanned\": {}\n}}",
        report.deny_count(),
        report.warn_count(),
        report.allows_honored,
        report.files_scanned
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        analyze_source(Path::new("mem.rs"), src, false).0
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let d = run("fn f(x: Option<u8>) -> u8 { x.unwrap() } // xtask-allow(no_unwrap): test\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_on_line_above_suppresses() {
        let d = run("// xtask-allow(no_unwrap): validated by caller\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_must_match_lint_name() {
        let d = run(
            "// xtask-allow(no_expect): wrong lint\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        // The unwrap fires AND the allow is stale.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.lint == "no_unwrap"));
        assert!(d.iter().any(|d| d.lint == "unused_allow"));
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let d = run("fn f(x: Option<u8>) -> u8 { x.unwrap() } // xtask-allow(no_unwrap)\n");
        assert!(d.iter().any(|d| d.lint == "no_unwrap"));
        assert!(d.iter().any(|d| d.lint == "bad_allow"));
    }

    #[test]
    fn allow_with_unknown_lint_is_rejected() {
        let d = run("// xtask-allow(no_such_lint): whatever\nfn f() {}\n");
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
        assert!(!r.failed(false));
        r.diagnostics.push(Diagnostic {
            lint: "slice_index",
            level: Level::Warn,
            path: PathBuf::from("x.rs"),
            line: 1,
            col: 1,
            message: String::new(),
            suggestion: "",
        });
        assert!(!r.failed(false));
        assert!(r.failed(true));
        r.diagnostics.push(Diagnostic {
            lint: "no_unwrap",
            level: Level::Deny,
            path: PathBuf::from("x.rs"),
            line: 2,
            col: 1,
            message: String::new(),
            suggestion: "",
        });
        assert!(r.failed(false));
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
