//! Workspace-wide symbol table and call graph.
//!
//! The contract passes ([`crate::contracts`]) need to answer "what can
//! `Network::deliver` reach, through any call chain, in any crate?" —
//! a question the file-local scan in [`crate::callgraph`] cannot. This
//! module parses every scanned file into [`FnDecl`]s (name, location,
//! call sites, allocation sites) and resolves call
//! sites to candidate declarations with three precision guards:
//!
//! 1. **Dependency direction** — an edge from crate A may only bind to
//!    a function in A itself or a crate A (transitively) depends on,
//!    per the workspace `Cargo.toml` manifests. This is what keeps a
//!    protocol function's `.record(…)` from "reaching" a
//!    similarly-named helper in the bench harness: `core` does not
//!    depend on `bench`, so no such edge exists.
//! 2. **Scope narrowing** — among the surviving candidates, same-file
//!    declarations win over same-crate declarations, which win over
//!    the rest. This mirrors how unqualified names actually resolve in
//!    practice without a type checker.
//! 3. **Ubiquitous-trait-method exclusion** — `clone`, `fmt`, `eq` and
//!    friends are implemented by nearly every type, so binding a
//!    `.clone()` call to *some* `fn clone` in the workspace would be
//!    wrong far more often than right. Declarations with these names
//!    are kept out of the table entirely; `.clone()` is still audited,
//!    but as a direct *site* in the calling function (see
//!    [`alloc_site_patterns`]), not as a call edge.
//!
//! The result is deliberately conservative in both directions the
//! analyzer can afford: a spurious edge can only produce a diagnostic
//! if the target actually contains a violation site (suppressed with a
//! justified site-level allow), and a missed edge is no worse than the
//! pre-contract state of the world — the dynamic bench gates remain
//! the backstop.

use crate::lexer::{matching_brace, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Trait-method names too ubiquitous to bind call edges through (see
/// module docs).
pub const UBIQUITOUS_METHODS: &[&str] = &[
    "clone",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "drop",
    "deref",
    "deref_mut",
    "from",
    "into",
    "next",
    // Every std container has `clear`; a `.clear()` on a recycled Vec
    // must not bind to a workspace type's own `fn clear`.
    "clear",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment).
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
}

/// An allocation site found in a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Pattern rendered for diagnostics, e.g. `` `format!` `` or
    /// `` `.push(…)` ``.
    pub what: &'static str,
    /// One-phrase consequence, e.g. "allocates a fresh String".
    pub why: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One function declaration parsed from the token stream.
#[derive(Debug)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// File the declaration is in.
    pub path: PathBuf,
    /// Crate directory name (`netsim`, `core`, …; `root` for the
    /// top-level `src/`, the parent directory name for out-of-tree
    /// fixtures).
    pub crate_name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Allocation sites in body order.
    pub sites: Vec<Site>,
}

/// The workspace symbol table: every parsed function plus name and
/// dependency indexes for call resolution.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All declarations, in (file, source) order.
    pub fns: Vec<FnDecl>,
    /// name → indexes into `fns`.
    by_name: BTreeMap<String, Vec<usize>>,
    /// crate dir name → transitive dependency closure (crate dir
    /// names, including itself). Crates absent from the map bind
    /// unrestricted (fixture sources have no manifest).
    deps: BTreeMap<String, BTreeSet<String>>,
}

/// The crate a scanned file belongs to: the component after `crates`
/// when present, `root` for the repo's own `src/`, otherwise the
/// parent directory name.
pub fn crate_of(path: &Path) -> String {
    let comps: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    for (i, c) in comps.iter().enumerate() {
        if c == "crates" && i + 1 < comps.len() {
            return comps[i + 1].clone();
        }
        if c == "src" && i > 0 && comps[i - 1] == "repo" {
            return "root".into();
        }
    }
    // `<repo>/src/lib.rs` without a recognizable repo dir name, or a
    // fixture: fall back to the parent directory.
    comps
        .iter()
        .rev()
        .nth(1)
        .cloned()
        .unwrap_or_else(|| "root".into())
}

impl SymbolTable {
    /// Feed one lexed file into the table. `excluded` marks test-only
    /// token regions (never scanned).
    pub fn add_file(&mut self, path: &Path, lexed: &Lexed, excluded: &[bool]) {
        let crate_name = crate_of(path);
        parse_fns(path, &crate_name, &lexed.tokens, excluded, &mut self.fns);
    }

    /// Record one crate's transitive dependency closure (crate dir
    /// names, including the crate itself).
    pub fn set_deps(&mut self, crate_name: &str, closure: BTreeSet<String>) {
        self.deps.insert(crate_name.to_string(), closure);
    }

    /// Build the name index. Call once after the last `add_file`.
    pub fn finish(&mut self) {
        self.by_name.clear();
        for (i, f) in self.fns.iter().enumerate() {
            self.by_name.entry(f.name.clone()).or_default().push(i);
        }
    }

    /// Declarations with the given name, unfiltered.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Find a function by name within a specific file.
    pub fn find_in_file(&self, name: &str, path: &Path) -> Option<usize> {
        self.named(name)
            .iter()
            .copied()
            .find(|&i| self.fns[i].path == path)
    }

    /// Resolve one call site from `caller` to candidate declarations,
    /// applying the dependency-direction filter and scope narrowing
    /// described in the module docs.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let from = &self.fns[caller];
        let mut candidates: Vec<usize> = self
            .named(&call.name)
            .iter()
            .copied()
            .filter(|&i| i != caller)
            .collect();
        if let Some(closure) = self.deps.get(&from.crate_name) {
            candidates.retain(|&i| {
                let to = &self.fns[i].crate_name;
                // Targets without a manifest (fixtures) stay bindable.
                closure.contains(to) || !self.deps.contains_key(to)
            });
        }
        if candidates.iter().any(|&i| self.fns[i].path == from.path) {
            candidates.retain(|&i| self.fns[i].path == from.path);
        } else if candidates
            .iter()
            .any(|&i| self.fns[i].crate_name == from.crate_name)
        {
            candidates.retain(|&i| self.fns[i].crate_name == from.crate_name);
        }
        candidates
    }
}

/// Parse the manifest text of one crate, returning the *direct*
/// in-workspace dependencies as crate dir names. Recognizes both
/// `snapshot-foo.workspace = true` and `snapshot-foo = { … }` forms
/// under `[dependencies]` (dev- and build-dependencies are ignored:
/// test code is not scanned).
pub fn manifest_deps(manifest: &str) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.starts_with('#') {
            continue;
        }
        let key: &str = line
            .split(|c: char| c == '.' || c == '=' || c.is_whitespace())
            .next()
            .unwrap_or("");
        if let Some(dir) = key.strip_prefix("snapshot-") {
            deps.insert(dir.to_string());
        }
    }
    deps
}

/// Load the dependency closures of every workspace crate into `table`
/// by reading `crates/*/Cargo.toml` plus the root manifest. Missing or
/// unreadable manifests are skipped (the affected crate then binds
/// unrestricted, which is only less precise, never unsound for the
/// workspace's own layout).
pub fn load_workspace_deps(repo_root: &Path, table: &mut SymbolTable) {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates_dir = repo_root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Ok(text) = std::fs::read_to_string(entry.path().join("Cargo.toml")) {
                direct.insert(name, manifest_deps(&text));
            }
        }
    }
    if let Ok(text) = std::fs::read_to_string(repo_root.join("Cargo.toml")) {
        // The root manifest holds both [workspace.dependencies] and the
        // root package's own [dependencies]; manifest_deps only reads
        // the latter.
        direct.insert("root".into(), manifest_deps(&text));
    }
    for name in direct.keys().cloned().collect::<Vec<_>>() {
        let mut closure = BTreeSet::new();
        let mut stack = vec![name.clone()];
        while let Some(cur) = stack.pop() {
            if !closure.insert(cur.clone()) {
                continue;
            }
            if let Some(ds) = direct.get(&cur) {
                stack.extend(ds.iter().cloned());
            }
        }
        table.set_deps(&name, closure);
    }
}

/// Heap-allocation patterns recognized as [`Site`]s, split by how they
/// appear in tokens.
mod alloc_site_patterns {
    /// `name!(…)` macros that build heap values.
    pub const MACROS: &[(&str, &str)] = &[
        ("`format!`", "allocates a fresh String"),
        ("`vec!`", "allocates a fresh Vec"),
    ];

    /// `.name(…)` method patterns that definitely allocate.
    pub const METHODS_DEFINITE: &[(&str, &str)] = &[
        ("`.to_vec()`", "copies into a fresh Vec"),
        ("`.to_string()`", "copies into a fresh String"),
        ("`.to_owned()`", "copies into a fresh owned value"),
        ("`.collect()`", "materializes an iterator into a container"),
        ("`.with_capacity(…)`", "allocates backing storage up front"),
    ];

    /// `.name(…)` method patterns that allocate unless the receiver's
    /// capacity was recycled (amortized-growth sites). These are the
    /// sites the zero-alloc bench gates prove warm; a justified
    /// site-level allow documents each one.
    pub const METHODS_AMORTIZED: &[(&str, &str)] = &[
        (
            "`.push(…)`",
            "grows the receiver when capacity is exhausted",
        ),
        (
            "`.push_str(…)`",
            "grows the receiver when capacity is exhausted",
        ),
        (
            "`.push_back(…)`",
            "grows the receiver when capacity is exhausted",
        ),
        (
            "`.insert(…)`",
            "may allocate container nodes or grow storage",
        ),
        (
            "`.extend(…)`",
            "grows the receiver when capacity is exhausted",
        ),
        (
            "`.extend_from_slice(…)`",
            "grows the receiver when capacity is exhausted",
        ),
        ("`.append(…)`", "may move elements into fresh storage"),
        ("`.reserve(…)`", "grows backing storage"),
        ("`.clone()`", "clones into the heap for owning types"),
    ];

    /// `Path::name(…)` qualified-call patterns.
    pub const QUALIFIED: &[(&str, &str, &str)] = &[
        ("Box", "new", "boxes a fresh heap value"),
        ("String", "from", "allocates a fresh String"),
        ("Vec", "with_capacity", "allocates backing storage up front"),
        (
            "String",
            "with_capacity",
            "allocates backing storage up front",
        ),
    ];
}

fn method_site(name: &str) -> Option<(&'static str, &'static str)> {
    for &(what, why) in alloc_site_patterns::METHODS_DEFINITE
        .iter()
        .chain(alloc_site_patterns::METHODS_AMORTIZED)
    {
        // `what` renders as `.name(…)` / `.name()`; match on the bare
        // name inside.
        let bare = what
            .trim_start_matches("`.")
            .split('(')
            .next()
            .unwrap_or("");
        if bare == name {
            return Some((what, why));
        }
    }
    None
}

/// Parse every non-test `fn` in the token stream into `out`,
/// recording call sites and allocation sites per body.
fn parse_fns(
    path: &Path,
    crate_name: &str,
    tokens: &[Token],
    excluded: &[bool],
    out: &mut Vec<FnDecl>,
) {
    let mut i = 0;
    while i < tokens.len() {
        if excluded[i] || tokens[i].kind.ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        let Some(name) = name_tok.kind.ident() else {
            i += 1;
            continue;
        };
        // Signature runs to the body `{` or a trait-declaration `;`;
        // angle depth guards against `where T: Fn() -> Vec<{…}>`-ish
        // token soup closing early.
        let mut j = i + 2;
        let mut body_open = None;
        let mut angle_depth = 0i32;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct('<') => angle_depth += 1,
                TokenKind::Punct('>') => angle_depth -= 1,
                TokenKind::Punct('{') if angle_depth <= 0 => {
                    body_open = Some(j);
                    break;
                }
                TokenKind::Punct(';') if angle_depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let close = matching_brace(tokens, open);
        if !UBIQUITOUS_METHODS.contains(&name) {
            let mut decl = FnDecl {
                name: name.to_string(),
                path: path.to_path_buf(),
                crate_name: crate_name.to_string(),
                line: name_tok.line,
                calls: Vec::new(),
                sites: Vec::new(),
            };
            scan_body(tokens, open + 1, close, &mut decl);
            out.push(decl);
        }
        i = close + 1;
    }
}

/// Record call sites and allocation sites inside one function body.
fn scan_body(tokens: &[Token], start: usize, end: usize, decl: &mut FnDecl) {
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        let Some(name) = t.kind.ident() else {
            j += 1;
            continue;
        };
        let next_is = |c: char| tokens.get(j + 1).is_some_and(|t| t.kind.is_punct(c));
        let prev_is = |c: char| j > 0 && tokens[j - 1].kind.is_punct(c);
        let site = |what, why| Site {
            what,
            why,
            line: t.line,
            col: t.col,
        };

        // Macro allocation sites: `format!(`, `vec![`.
        if next_is('!') {
            for &(what, why) in alloc_site_patterns::MACROS {
                if what.trim_start_matches('`').trim_end_matches("!`") == name {
                    decl.sites.push(site(what, why));
                }
            }
            j += 1;
            continue;
        }

        // Method sites: `.push(`, `.collect::<…>(`, … — the paren is
        // not required so turbofish forms still match.
        if prev_is('.') {
            if let Some((what, why)) = method_site(name) {
                decl.sites.push(site(what, why));
            }
        }

        // Qualified allocation sites: `Box::new(`, `String::from(`, …
        // matched on the *first* segment so the second is consumed
        // below as an ordinary call token.
        if next_is(':') && tokens.get(j + 2).is_some_and(|t| t.kind.is_punct(':')) {
            if let Some(seg2) = tokens.get(j + 3).and_then(|t| t.kind.ident()) {
                for &(ty, method, why) in alloc_site_patterns::QUALIFIED {
                    if ty == name && method == seg2 {
                        let what: &'static str = match (ty, method) {
                            ("Box", "new") => "`Box::new(…)`",
                            ("String", "from") => "`String::from(…)`",
                            _ => "`with_capacity(…)`",
                        };
                        decl.sites.push(site(what, why));
                    }
                }
            }
        }

        // Call edges: `name(` plain or method, skipping keywords,
        // ubiquitous trait methods, and macro-like uses handled above.
        let is_call = next_is('(');
        if is_call && !UBIQUITOUS_METHODS.contains(&name) && !is_keyword(name) {
            decl.calls.push(CallSite {
                name: name.to_string(),
                line: t.line,
                col: t.col,
            });
        }
        j += 1;
    }
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "move"
            | "loop"
            | "else"
            | "in"
            | "as"
            | "use"
            | "pub"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        let mut t = SymbolTable::default();
        for (path, src) in files {
            let lexed = lex(src);
            let excluded = test_regions(&lexed.tokens);
            t.add_file(Path::new(path), &lexed, &excluded);
        }
        t.finish();
        t
    }

    #[test]
    fn crate_of_classifies_paths() {
        assert_eq!(crate_of(Path::new("crates/netsim/src/sim.rs")), "netsim");
        assert_eq!(
            crate_of(Path::new("/root/repo/crates/core/src/lib.rs")),
            "core"
        );
        assert_eq!(crate_of(Path::new("/root/repo/src/lib.rs")), "root");
        assert_eq!(crate_of(Path::new("fixtures/crate_a/lib.rs")), "crate_a");
    }

    #[test]
    fn parses_fns_with_calls_and_sites() {
        let t = table(&[(
            "crates/x/src/a.rs",
            "fn a(v: &mut Vec<u8>) { helper(1); v.push(2); let s = format!(\"x\"); }\n\
             fn helper(n: u8) -> u8 { n }\n",
        )]);
        assert_eq!(t.fns.len(), 2);
        let a = &t.fns[0];
        assert_eq!(a.name, "a");
        // `helper(…)` is an edge; `.push(…)` is both an alloc *site*
        // and an edge (a workspace method named `push` must still be
        // traversed — resolution decides whether it binds).
        let call_names: Vec<&str> = a.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(call_names, vec!["helper", "push"]);
        let whats: Vec<&str> = a.sites.iter().map(|s| s.what).collect();
        assert!(whats.contains(&"`.push(…)`"), "{whats:?}");
        assert!(whats.contains(&"`format!`"), "{whats:?}");
    }

    #[test]
    fn ubiquitous_trait_methods_are_not_declared_or_called() {
        let t = table(&[(
            "crates/x/src/a.rs",
            "impl Clone for S { fn clone(&self) -> S { S } }\n\
             fn f(s: &S) -> S { s.clone() }\n",
        )]);
        assert_eq!(t.fns.len(), 1, "clone decl must be excluded");
        let f = &t.fns[0];
        assert!(f.calls.is_empty(), "clone call must not be an edge");
        // …but the clone *site* is still recorded.
        assert!(f.sites.iter().any(|s| s.what == "`.clone()`"));
    }

    #[test]
    fn resolution_prefers_same_file_then_same_crate() {
        let t = table(&[
            (
                "crates/a/src/m.rs",
                "fn f() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/a/src/n.rs", "fn helper() {}\n"),
            ("crates/b/src/o.rs", "fn helper() {}\n"),
        ]);
        let f = t.named("f")[0];
        let bound = t.resolve(f, &t.fns[f].calls[0]);
        assert_eq!(bound.len(), 1);
        assert_eq!(t.fns[bound[0]].path, Path::new("crates/a/src/m.rs"));
    }

    #[test]
    fn dependency_direction_filters_edges() {
        let mut t = table(&[
            ("crates/core/src/m.rs", "fn f() { helper(); }\n"),
            ("crates/bench/src/o.rs", "fn helper() {}\n"),
        ]);
        // core's closure does not include bench.
        t.set_deps(
            "core",
            ["core", "netsim"].iter().map(|s| s.to_string()).collect(),
        );
        t.set_deps(
            "bench",
            ["bench", "core"].iter().map(|s| s.to_string()).collect(),
        );
        let f = t.named("f")[0];
        assert!(t.resolve(f, &t.fns[f].calls[0]).is_empty());
    }

    #[test]
    fn manifest_deps_reads_both_dependency_forms() {
        let toml = "[package]\nname = \"snapshot-core\"\n\n[dependencies]\n\
                    snapshot-netsim.workspace = true\n\
                    snapshot-datagen = { workspace = true }\n\n\
                    [dev-dependencies]\nsnapshot-bench.workspace = true\n";
        let deps = manifest_deps(toml);
        assert!(deps.contains("netsim"));
        assert!(deps.contains("datagen"));
        assert!(!deps.contains("bench"), "dev-deps must be ignored");
    }

    #[test]
    fn test_regions_are_not_parsed() {
        let t = table(&[(
            "crates/x/src/a.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { format!(\"x\"); } }\n",
        )]);
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "lib");
    }
}
