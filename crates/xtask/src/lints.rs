//! Token-pattern lints: panic-freedom and determinism.

use crate::lexer::{Token, TokenKind};
use crate::{Diagnostic, Level};
use std::path::Path;

/// Compute which token indices sit inside test-only regions:
/// `#[cfg(test)]`-gated items and `#[test]` functions. Lints skip
/// these — tests may unwrap freely.
pub fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut excluded = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = match_test_attr(tokens, i) {
            // Find the start of the gated item's block: the next `{`
            // not preceded by a terminating `;` (e.g. `#[cfg(test)]
            // use foo;` gates a single statement, no block).
            let mut j = attr_end;
            let mut block_start = None;
            while j < tokens.len() {
                match &tokens[j].kind {
                    TokenKind::Punct(';') => break,
                    TokenKind::Punct('{') => {
                        block_start = Some(j);
                        break;
                    }
                    _ => j += 1,
                }
            }
            if let Some(open) = block_start {
                let close = matching_brace(tokens, open);
                for slot in excluded.iter_mut().take(close + 1).skip(i) {
                    *slot = true;
                }
                i = close + 1;
                continue;
            }
            // Blockless gated item: exclude through the `;`.
            for slot in excluded.iter_mut().take(j + 1).skip(i) {
                *slot = true;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    excluded
}

/// If tokens at `i` begin `#[cfg(test)]`-like or `#[test]` attributes,
/// return the index just past the closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.kind.is_punct('#') || !tokens.get(i + 1)?.kind.is_punct('[') {
        return None;
    }
    // Find the matching `]` (attributes can nest brackets in theory;
    // parens are common).
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut close = None;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let close = close?;
    let inner: Vec<&str> = tokens[i + 2..close]
        .iter()
        .filter_map(|t| t.kind.ident())
        .collect();
    // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` all gate test
    // code. (`#[cfg(not(test))]` would be mis-excluded, but the
    // workspace never uses it and the analyzer's self-check would
    // surface it.)
    let gates_tests = inner.first() == Some(&"test")
        || (inner.first() == Some(&"cfg") && inner.contains(&"test") && !inner.contains(&"not"));
    if gates_tests {
        Some(close + 1)
    } else {
        None
    }
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match &t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len() - 1
}

fn diag(
    path: &Path,
    t: &Token,
    lint: &'static str,
    level: Level,
    message: String,
    suggestion: &'static str,
) -> Diagnostic {
    Diagnostic {
        lint,
        level,
        path: path.to_path_buf(),
        line: t.line,
        col: t.col,
        message,
        suggestion,
    }
}

/// Keywords that can legally precede `[` without forming an index
/// expression (`impl [T; 4]`, `for x in [1, 2]`, …).
const NON_VALUE_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Panic-freedom lints: `.unwrap()`, `.expect(`, panic-family macros,
/// and slice-index expressions.
pub fn panic_freedom(
    path: &Path,
    tokens: &[Token],
    excluded: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for i in 0..tokens.len() {
        if excluded[i] {
            continue;
        }
        let t = &tokens[i];
        match &t.kind {
            TokenKind::Punct('.') => {
                let (Some(name_tok), Some(paren)) = (tokens.get(i + 1), tokens.get(i + 2)) else {
                    continue;
                };
                if !paren.kind.is_punct('(') {
                    continue;
                }
                match name_tok.kind.ident() {
                    Some("unwrap") => diags.push(diag(
                        path,
                        name_tok,
                        "no_unwrap",
                        Level::Deny,
                        ".unwrap() can panic under fault injection".into(),
                        "return a typed error through the crate's error enum, or justify with \
                         `// xtask-allow(no_unwrap): reason`",
                    )),
                    Some("expect") => diags.push(diag(
                        path,
                        name_tok,
                        "no_expect",
                        Level::Deny,
                        ".expect(…) can panic under fault injection".into(),
                        "return a typed error through the crate's error enum, or justify with \
                         `// xtask-allow(no_expect): reason`",
                    )),
                    _ => {}
                }
            }
            TokenKind::Ident(name)
                if matches!(
                    name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && tokens.get(i + 1).is_some_and(|n| n.kind.is_punct('!'))
                    && !tokens
                        .get(i.wrapping_sub(1))
                        .is_some_and(|p| p.kind.is_punct('.') || p.kind.is_punct(':')) =>
            {
                diags.push(diag(
                    path,
                    t,
                    "no_panic",
                    Level::Deny,
                    format!("`{name}!` aborts the simulation instead of degrading"),
                    "convert to a typed error, or justify with `// xtask-allow(no_panic): reason`",
                ));
            }
            TokenKind::Punct('[') if i > 0 && !excluded[i - 1] => {
                let prev = &tokens[i - 1];
                let is_value = match &prev.kind {
                    TokenKind::Ident(id) => !NON_VALUE_KEYWORDS.contains(&id.as_str()),
                    TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                    _ => false,
                };
                if is_value {
                    diags.push(diag(
                        path,
                        t,
                        "slice_index",
                        Level::Warn,
                        "slice-index expression can panic on out-of-bounds".into(),
                        "prefer .get()/.get_mut() with a typed error, iterators, or justify with \
                         `// xtask-allow(slice_index): reason`",
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Determinism lints: hash-ordered collections, ambient RNG, wall
/// clocks.
pub fn determinism(path: &Path, tokens: &[Token], excluded: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if excluded[i] {
            continue;
        }
        let t = &tokens[i];
        let Some(name) = t.kind.ident() else { continue };
        match name {
            "HashMap" | "HashSet" => diags.push(diag(
                path,
                t,
                "no_hash_collections",
                Level::Deny,
                format!("`{name}` iteration order is nondeterministic (RandomState)"),
                "use BTreeMap/BTreeSet (deterministic order), or justify with \
                 `// xtask-allow(no_hash_collections): reason`",
            )),
            "thread_rng" => diags.push(diag(
                path,
                t,
                "no_ambient_rng",
                Level::Deny,
                "`thread_rng` draws from ambient OS entropy; runs become unreproducible".into(),
                "thread a seeded `netsim::rng::DetRng` through the call path",
            )),
            "rand"
                if tokens.get(i + 1).is_some_and(|c| c.kind.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|c| c.kind.is_punct(':'))
                    && tokens.get(i + 3).and_then(|n| n.kind.ident()) == Some("random") =>
            {
                diags.push(diag(
                    path,
                    t,
                    "no_ambient_rng",
                    Level::Deny,
                    "`rand::random` uses the ambient thread RNG; runs become unreproducible".into(),
                    "thread a seeded `netsim::rng::DetRng` through the call path",
                ));
            }
            "Instant" | "SystemTime"
                if tokens.get(i + 1).is_some_and(|c| c.kind.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|c| c.kind.is_punct(':'))
                    && tokens.get(i + 3).and_then(|n| n.kind.ident()) == Some("now") =>
            {
                diags.push(diag(
                    path,
                    t,
                    "no_wall_clock",
                    Level::Deny,
                    format!("`{name}::now` leaks wall-clock time into simulated state"),
                    "use the simulator's logical clock (`netsim::clock::SimClock`); wall time \
                     belongs only in `crates/bench`",
                ));
            }
            // Only the qualified form is denied: the sanctioned bench
            // pool spawns through `std::thread::scope`'s `scope.spawn`,
            // a *method* call this pattern deliberately does not match.
            "thread"
                if tokens.get(i + 1).is_some_and(|c| c.kind.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|c| c.kind.is_punct(':'))
                    && tokens.get(i + 3).and_then(|n| n.kind.ident()) == Some("spawn") =>
            {
                diags.push(diag(
                    path,
                    t,
                    "no_thread_spawn",
                    Level::Deny,
                    "`thread::spawn` creates an unmanaged thread; interleaving leaks into results"
                        .into(),
                    "use the permit-bounded pool in `bench::runner` (scoped spawns), or keep the \
                     code single-threaded",
                ));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint_names(src: &str) -> Vec<&'static str> {
        let lexed = lex(src);
        let excluded = test_regions(&lexed.tokens);
        let mut diags = Vec::new();
        panic_freedom(Path::new("m.rs"), &lexed.tokens, &excluded, &mut diags);
        determinism(Path::new("m.rs"), &lexed.tokens, &excluded, &mut diags);
        diags.into_iter().map(|d| d.lint).collect()
    }

    #[test]
    fn finds_unwrap_and_expect() {
        assert_eq!(
            lint_names("fn f(x: Option<u8>) { x.unwrap(); x.expect(\"boom\"); }"),
            vec!["no_unwrap", "no_expect"]
        );
    }

    #[test]
    fn finds_panic_macros_but_not_method_calls() {
        assert_eq!(
            lint_names("fn f() { panic!(\"x\"); unreachable!(); todo!(); }"),
            vec!["no_panic", "no_panic", "no_panic"]
        );
        // A method *named* panic is not the macro.
        assert!(lint_names("fn f(x: T) { x.panic(); }").is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = r#"
            fn lib() -> u8 { 0 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("fine in tests"); }
            }
        "#;
        assert!(lint_names(src).is_empty());
    }

    #[test]
    fn test_attr_fn_is_exempt_but_code_after_is_not() {
        let src = r#"
            #[test]
            fn t() { Some(1).unwrap(); }
            fn lib(x: Option<u8>) -> u8 { x.unwrap() }
        "#;
        assert_eq!(lint_names(src), vec!["no_unwrap"]);
    }

    #[test]
    fn slice_index_is_warned_but_types_are_not() {
        let src = "fn f(v: &[u8], i: usize) -> u8 { let _a: [u8; 2] = [0, 1]; v[i] }";
        assert_eq!(lint_names(src), vec!["slice_index"]);
    }

    #[test]
    fn attributes_are_not_index_expressions() {
        assert!(lint_names("#[derive(Debug)]\nstruct S { x: Vec<[f64; 2]> }").is_empty());
    }

    #[test]
    fn chained_index_after_call_is_caught() {
        assert_eq!(lint_names("fn f() -> u8 { g()[0] }"), vec!["slice_index"]);
    }

    #[test]
    fn finds_hash_collections() {
        assert_eq!(
            lint_names("use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) {}"),
            vec!["no_hash_collections", "no_hash_collections"]
        );
    }

    #[test]
    fn finds_ambient_rng_and_clocks() {
        assert_eq!(
            lint_names("fn f() { let r = thread_rng(); let x: f64 = rand::random(); }"),
            vec!["no_ambient_rng", "no_ambient_rng"]
        );
        assert_eq!(
            lint_names("fn f() { let t = Instant::now(); let s = SystemTime::now(); }"),
            vec!["no_wall_clock", "no_wall_clock"]
        );
    }

    #[test]
    fn qualified_thread_spawn_is_denied_but_scoped_spawn_is_not() {
        assert_eq!(
            lint_names("fn f() { thread::spawn(|| {}); std::thread::spawn(|| {}); }"),
            vec!["no_thread_spawn", "no_thread_spawn"]
        );
        // The sanctioned pool spawns through a scope handle.
        assert!(lint_names("fn f(s: &Scope) { s.spawn(|| {}); scope.spawn(|| {}); }").is_empty());
    }

    #[test]
    fn rand_random_with_args_via_detrng_is_clean() {
        assert!(lint_names("fn f(rng: &mut DetRng) { rng.random_range(0..4usize); }").is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = r#"
            // calls .unwrap() and panic! and HashMap
            fn f() { let s = "thread_rng Instant::now"; let _ = s; }
        "#;
        assert!(lint_names(src).is_empty());
    }
}
