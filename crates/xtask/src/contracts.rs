//! Contract attachment and transitive propagation.
//!
//! `// xtask-contract(kind)` annotations bind to the next `fn`
//! declaration below them in the same file (within a few lines, so a
//! doc comment block between annotation and item stays legal). Two
//! kinds exist:
//!
//! * `zero_alloc` — the function, and everything it can reach through
//!   the call graph, must contain no allocation site. Amortized-growth
//!   sites (`.push(…)` into recycled capacity) are still *reported*
//!   and must carry a site-level `xtask-allow(contract_zero_alloc)`
//!   documenting why capacity is warm — the static pass makes every
//!   such site visible, the dynamic bench gate proves the claim.
//! * `alloc_cold` — a *barrier* for `zero_alloc` propagation: the
//!   function is a dynamically-gated cold path (telemetry sinks,
//!   tick-boundary fault application) that may allocate, so traversal
//!   stops at its boundary instead of descending. The reason is
//!   mandatory — a cold mark is a suppression and is counted by the
//!   allow audit.
//!
//! Determinism needs no contract: clippy's `disallowed-types` and
//! `disallowed-methods` (`clippy.toml`) reject its sources in every
//! crate a contracted function can reach (DESIGN.md §10).
//!
//! Violations render the full blame chain, one hop per call edge:
//!
//! ```text
//! error[contract_zero_alloc]: `deliver` is contracted zero_alloc but reaches `format!` (allocates a fresh String)
//!   --> crates/netsim/src/sim.rs:540:17
//!   = note: chain: deliver (crates/netsim/src/sim.rs:493) → route_one (crates/netsim/src/sim.rs:530) → `format!` (crates/netsim/src/sim.rs:540)
//! ```
//!
//! The diagnostic is positioned at the violating *site*, so one
//! site-level allow suppresses it for every contracted root that
//! reaches it.

use crate::lexer::Lexed;
use crate::symbols::SymbolTable;
use crate::Diagnostic;
use std::collections::BTreeMap;
use std::path::Path;

/// Maximum lines between an annotation and the `fn` it binds to.
const ATTACH_WINDOW: u32 = 10;

/// One attached contract, for reporting.
#[derive(Debug, Clone)]
pub struct AttachedContract {
    /// Contract kind (`zero_alloc` or `alloc_cold`).
    pub kind: String,
    /// Function the contract binds to (index into the symbol table).
    pub fn_index: usize,
    /// Justification (non-empty for `alloc_cold`).
    pub reason: String,
}

/// All contracts attached across the workspace.
#[derive(Debug, Default)]
pub struct ContractSet {
    /// Every attached contract in file order.
    pub attached: Vec<AttachedContract>,
}

impl ContractSet {
    fn fns_with(&self, kind: &str) -> Vec<usize> {
        self.attached
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.fn_index)
            .collect()
    }

    /// True when the function is marked `alloc_cold`.
    pub fn is_cold(&self, fn_index: usize) -> bool {
        self.attached
            .iter()
            .any(|c| c.kind == "alloc_cold" && c.fn_index == fn_index)
    }

    /// Count of `alloc_cold` marks (they budget like allows).
    pub fn cold_count(&self) -> usize {
        self.attached
            .iter()
            .filter(|c| c.kind == "alloc_cold")
            .count()
    }
}

/// Attach one file's `xtask-contract` annotations to symbol-table
/// functions. Emits `bad_contract` for unknown kinds, reason-less
/// `alloc_cold`, and annotations with no `fn` below them; annotations
/// whose `fn` is in a test region (absent from the table) are ignored
/// silently — contracts are statements about library code.
pub fn attach(
    path: &Path,
    lexed: &Lexed,
    table: &SymbolTable,
    set: &mut ContractSet,
    diags: &mut Vec<Diagnostic>,
) {
    for ann in &lexed.contracts {
        let bad = |message: String, suggestion: &'static str| Diagnostic {
            lint: "bad_contract",
            path: path.to_path_buf(),
            line: ann.line,
            col: 1,
            message,
            suggestion,
        };
        if !matches!(ann.kind.as_str(), "zero_alloc" | "alloc_cold") {
            diags.push(bad(
                format!("xtask-contract names unknown kind `{}`", ann.kind),
                "use zero_alloc or alloc_cold",
            ));
            continue;
        }
        if ann.kind == "alloc_cold" && ann.reason.is_empty() {
            diags.push(bad(
                "xtask-contract(alloc_cold) is missing a justification".into(),
                "write `// xtask-contract(alloc_cold): why this path is dynamically gated`",
            ));
            continue;
        }
        // Bind to the first `fn` name token below the annotation.
        let target = lexed
            .tokens
            .iter()
            .zip(lexed.tokens.iter().skip(1))
            .find(|(kw, _)| {
                kw.kind.ident() == Some("fn")
                    && kw.line >= ann.line
                    && kw.line <= ann.line + ATTACH_WINDOW
            })
            .and_then(|(_, name)| name.kind.ident().map(|n| (n, name.line)));
        let Some((fn_name, fn_line)) = target else {
            diags.push(bad(
                format!(
                    "xtask-contract({}) has no fn within {} lines below it",
                    ann.kind, ATTACH_WINDOW
                ),
                "move the annotation directly above the function it contracts",
            ));
            continue;
        };
        // Resolve to the declaration at that exact position; test-region
        // and ubiquitous-trait-method fns are absent and skip silently.
        let Some(fn_index) = table
            .named(fn_name)
            .iter()
            .copied()
            .find(|&i| table.fns[i].path == path && table.fns[i].line == fn_line)
        else {
            continue;
        };
        set.attached.push(AttachedContract {
            kind: ann.kind.clone(),
            fn_index,
            reason: ann.reason.clone(),
        });
    }
}

/// Walk every `zero_alloc` root and emit blame-chain diagnostics for
/// each allocation site the root can reach.
pub fn check(table: &SymbolTable, set: &ContractSet, diags: &mut Vec<Diagnostic>) {
    for root in set.fns_with("zero_alloc") {
        propagate(table, set, root, diags);
    }
}

fn propagate(table: &SymbolTable, set: &ContractSet, root: usize, diags: &mut Vec<Diagnostic>) {
    // BFS with parent pointers so each violation can render the exact
    // chain that reached it. One visit per function per root keeps the
    // pass linear in the edge count.
    let mut prev: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([root]);
    let mut visited = std::collections::BTreeSet::from([root]);
    while let Some(cur) = queue.pop_front() {
        let f = &table.fns[cur];
        for site in &f.sites {
            let chain = render_chain(table, &prev, root, cur, site.what, site.line);
            diags.push(Diagnostic {
                lint: "contract_zero_alloc",
                path: f.path.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "`{}` is contracted zero_alloc but reaches {} ({}); chain: {}",
                    table.fns[root].name, site.what, site.why, chain
                ),
                suggestion: "hoist the allocation out of the contracted path, mark the callee \
                             `xtask-contract(alloc_cold)` if it is dynamically gated, or justify \
                             the site with `xtask-allow(contract_zero_alloc): why capacity is \
                             recycled`",
            });
        }
        for call in &f.calls {
            for target in table.resolve(cur, call) {
                if set.is_cold(target) {
                    continue;
                }
                if visited.insert(target) {
                    prev.insert(target, (cur, call.line));
                    queue.push_back(target);
                }
            }
        }
    }
}

/// Render `root (file:line) → … → site (file:line)` by walking parent
/// pointers back from the violating function.
fn render_chain(
    table: &SymbolTable,
    prev: &BTreeMap<usize, (usize, u32)>,
    root: usize,
    cur: usize,
    site_what: &str,
    site_line: u32,
) -> String {
    let mut hops = vec![cur];
    let mut at = cur;
    while at != root {
        let Some(&(parent, _)) = prev.get(&at) else {
            break;
        };
        hops.push(parent);
        at = parent;
    }
    hops.reverse();
    let mut out = String::new();
    for &h in &hops {
        let f = &table.fns[h];
        out.push_str(&format!("{} ({}:{}) → ", f.name, f.path.display(), f.line));
    }
    let site_file = table.fns[cur].path.display();
    out.push_str(&format!("{site_what} ({site_file}:{site_line})"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};
    use std::path::PathBuf;

    fn analyze(files: &[(&str, &str)]) -> (Vec<Diagnostic>, ContractSet, SymbolTable) {
        let mut table = SymbolTable::default();
        let lexed: Vec<(PathBuf, crate::lexer::Lexed)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), lex(s)))
            .collect();
        for (path, lx) in &lexed {
            let excluded = test_regions(&lx.tokens);
            table.add_file(path, lx, &excluded);
        }
        table.finish();
        let mut set = ContractSet::default();
        let mut diags = Vec::new();
        for (path, lx) in &lexed {
            attach(path, lx, &table, &mut set, &mut diags);
        }
        check(&table, &set, &mut diags);
        (diags, set, table)
    }

    #[test]
    fn direct_alloc_in_zero_alloc_fn_is_denied() {
        let (diags, ..) = analyze(&[(
            "crates/x/src/a.rs",
            "// xtask-contract(zero_alloc)\nfn hot() { let s = format!(\"x\"); }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, "contract_zero_alloc");
        assert!(diags[0].message.contains("`format!`"));
        assert!(diags[0].message.contains("hot (crates/x/src/a.rs:2)"));
    }

    #[test]
    fn transitive_alloc_two_hops_renders_full_chain() {
        let (diags, ..) = analyze(&[(
            "crates/x/src/a.rs",
            "// xtask-contract(zero_alloc)\nfn hot() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf() { let v = vec![1]; }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let msg = &diags[0].message;
        assert!(msg.contains("hot (crates/x/src/a.rs:2)"), "{msg}");
        assert!(msg.contains("mid (crates/x/src/a.rs:3)"), "{msg}");
        assert!(msg.contains("leaf (crates/x/src/a.rs:4)"), "{msg}");
        assert!(msg.contains("`vec!` (crates/x/src/a.rs:4)"), "{msg}");
    }

    #[test]
    fn alloc_cold_is_a_barrier_for_zero_alloc_only() {
        let (diags, set, _) = analyze(&[(
            "crates/x/src/a.rs",
            "// xtask-contract(zero_alloc)\n\
             fn hot() { sink(); warm(); }\n\
             // xtask-contract(alloc_cold): gated behind enabled()\n\
             fn sink() { let s = String::from(\"x\"); }\n\
             fn warm() { let v = vec![1]; }\n",
        )]);
        assert_eq!(set.cold_count(), 1);
        // The String::from is shielded; the unmarked sibling is not.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`vec!`"), "{diags:?}");
    }

    #[test]
    fn alloc_cold_without_reason_is_bad_contract() {
        let (diags, ..) = analyze(&[(
            "crates/x/src/a.rs",
            "// xtask-contract(alloc_cold)\nfn sink() {}\n",
        )]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, "bad_contract");
        assert!(diags[0].message.contains("justification"));
    }

    #[test]
    fn unknown_kind_and_dangling_are_bad_contract() {
        let (diags, ..) = analyze(&[(
            "crates/x/src/a.rs",
            "// xtask-contract(no_such_kind)\nfn f() {}\n\n\
             // xtask-contract(zero_alloc)\n// nothing below\n",
        )]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.lint == "bad_contract"));
        assert!(diags.iter().any(|d| d.message.contains("unknown kind")));
        assert!(diags.iter().any(|d| d.message.contains("no fn within")));
    }

    #[test]
    fn contract_on_test_fn_is_silently_ignored() {
        let (diags, set, _) = analyze(&[(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests {\n    // xtask-contract(zero_alloc)\n    \
             fn t() { format!(\"x\"); }\n}\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(set.attached.is_empty());
    }

    #[test]
    fn cross_crate_alloc_is_found_through_resolution() {
        let (diags, ..) = analyze(&[
            (
                "crates/a/src/m.rs",
                "// xtask-contract(zero_alloc)\nfn tick() { label(); }\n",
            ),
            (
                "crates/b/src/n.rs",
                "fn label() -> String { format!(\"x\") }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, "contract_zero_alloc");
        assert!(diags[0].message.contains("tick (crates/a/src/m.rs:2)"));
        assert!(diags[0].message.contains("label (crates/b/src/n.rs:1)"));
        assert_eq!(diags[0].path, PathBuf::from("crates/b/src/n.rs"));
    }

    #[test]
    fn contract_binds_through_attribute_lines() {
        let (diags, set, table) = analyze(&[(
            "crates/x/src/a.rs",
            "// xtask-contract(zero_alloc)\n#[inline]\n#[must_use]\npub fn hot() -> u8 { 1 }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(set.attached.len(), 1);
        assert_eq!(table.fns[set.attached[0].fn_index].name, "hot");
    }
}
