//! A lightweight Rust lexer for the static-analysis pass.
//!
//! Not a full grammar — just enough to tokenize source into
//! identifiers, punctuation and literals with accurate line/column
//! positions, while stripping comments and string contents so lint
//! patterns never fire inside prose or data. `xtask-allow` escape
//! hatches live in comments, so the lexer also extracts them.
//!
//! The analyzer intentionally avoids `syn`: the container builds fully
//! offline, and the lint patterns below only need token shapes, not a
//! typed AST.

/// One lexical token with its source position (1-based line/column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// Token categories relevant to the lint patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `fn`, `HashMap`, …).
    Ident(String),
    /// Single punctuation character (`.`, `[`, `!`, …).
    Punct(char),
    /// String literal (contents dropped — only position matters).
    Str,
    /// Numeric or char literal (value dropped).
    Lit,
    /// Lifetime marker (`'a`) — kept distinct so `'[` heuristics stay
    /// honest.
    Lifetime,
}

impl TokenKind {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == c)
    }
}

/// An `// xtask-allow(lint): reason` annotation found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The lint name inside the parentheses.
    pub lint: String,
    /// The justification after the colon (may be empty — the analyzer
    /// rejects empty reasons).
    pub reason: String,
    /// 1-based line the annotation sits on.
    pub line: u32,
}

/// An `// xtask-contract(kind): reason` annotation found in a comment.
/// Contracts attach to the next `fn` declaration below them (see
/// [`crate::contracts`]); the reason is optional for the checked
/// kinds and mandatory for `alloc_cold`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractAnn {
    /// The contract kind inside the parentheses (`zero_alloc`,
    /// `deterministic`, `alloc_cold`).
    pub kind: String,
    /// The justification after the colon, when present.
    pub reason: String,
    /// 1-based line the annotation sits on.
    pub line: u32,
}

/// Lexer output: the token stream plus any escape-hatch annotations.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// `xtask-allow` annotations in source order.
    pub allows: Vec<Allow>,
    /// `xtask-contract` annotations in source order.
    pub contracts: Vec<ContractAnn>,
}

/// Parse a `marker(name): reason` annotation out of comment text.
/// Returns `(name, reason)`; the reason is empty when the colon is
/// missing.
fn parse_marker(comment: &str, marker: &str) -> Option<(String, String)> {
    let idx = comment.find(marker)?;
    let rest = &comment[idx + marker.len()..];
    let close = rest.find(')')?;
    let name = rest[..close].trim().to_string();
    let after = &rest[close + 1..];
    let reason = after
        .strip_prefix(':')
        .map(|r| r.trim().to_string())
        .unwrap_or_default();
    Some((name, reason))
}

/// Parse an `xtask-allow(lint): reason` annotation out of comment text.
fn parse_allow(comment: &str, line: u32) -> Option<Allow> {
    let (lint, reason) = parse_marker(comment, "xtask-allow(")?;
    Some(Allow { lint, reason, line })
}

/// Parse an `xtask-contract(kind): reason` annotation out of comment
/// text.
fn parse_contract(comment: &str, line: u32) -> Option<ContractAnn> {
    let (kind, reason) = parse_marker(comment, "xtask-contract(")?;
    Some(ContractAnn { kind, reason, line })
}

/// Tokenize `src`, stripping comments and literal contents.
pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! advance {
        ($c:expr) => {{
            if $c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let start_line = line;
        let start_col = col;

        // Line comment (also doc comments `///`, `//!`).
        if c == '/' && bytes.get(i + 1) == Some(&'/') {
            let mut text = String::new();
            while i < bytes.len() && bytes[i] != '\n' {
                text.push(bytes[i]);
                advance!(bytes[i]);
            }
            if let Some(allow) = parse_allow(&text, start_line) {
                out.allows.push(allow);
            }
            if let Some(contract) = parse_contract(&text, start_line) {
                out.contracts.push(contract);
            }
            continue;
        }

        // Block comment, possibly nested.
        if c == '/' && bytes.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            let mut text = String::new();
            while i < bytes.len() {
                if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push('/');
                    advance!('/');
                    text.push('*');
                    advance!('*');
                } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    advance!('*');
                    advance!('/');
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(bytes[i]);
                    advance!(bytes[i]);
                }
            }
            if let Some(allow) = parse_allow(&text, start_line) {
                out.allows.push(allow);
            }
            if let Some(contract) = parse_contract(&text, start_line) {
                out.contracts.push(contract);
            }
            continue;
        }

        // String literal.
        if c == '"' {
            advance!('"');
            while i < bytes.len() {
                match bytes[i] {
                    '\\' => {
                        advance!('\\');
                        if i < bytes.len() {
                            advance!(bytes[i]);
                        }
                    }
                    '"' => {
                        advance!('"');
                        break;
                    }
                    other => advance!(other),
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Str,
                line: start_line,
                col: start_col,
            });
            continue;
        }

        // Raw string literal r"…", r#"…"#, up to 3 hashes.
        if c == 'r' && matches!(bytes.get(i + 1), Some('"') | Some('#')) && {
            // distinguish from an identifier starting with r.
            let mut j = i + 1;
            while bytes.get(j) == Some(&'#') {
                j += 1;
            }
            bytes.get(j) == Some(&'"')
        } {
            advance!('r');
            let mut hashes = 0usize;
            while bytes.get(i) == Some(&'#') {
                hashes += 1;
                advance!('#');
            }
            advance!('"');
            'raw: while i < bytes.len() {
                if bytes[i] == '"' {
                    let mut j = i + 1;
                    let mut seen = 0usize;
                    while seen < hashes && bytes.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        advance!('"');
                        for _ in 0..hashes {
                            advance!('#');
                        }
                        break 'raw;
                    }
                }
                advance!(bytes[i]);
            }
            out.tokens.push(Token {
                kind: TokenKind::Str,
                line: start_line,
                col: start_col,
            });
            continue;
        }

        // Lifetime or char literal.
        if c == '\'' {
            // 'a (lifetime) vs 'x' / '\n' (char literal): a char
            // literal always has a closing quote right after one
            // (possibly escaped) character.
            let is_char = match bytes.get(i + 1) {
                Some('\\') => true,
                Some(_) => bytes.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                advance!('\'');
                if bytes.get(i) == Some(&'\\') {
                    advance!('\\');
                }
                if i < bytes.len() {
                    advance!(bytes[i]);
                }
                if bytes.get(i) == Some(&'\'') {
                    advance!('\'');
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lit,
                    line: start_line,
                    col: start_col,
                });
            } else {
                advance!('\'');
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    advance!(bytes[i]);
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    line: start_line,
                    col: start_col,
                });
            }
            continue;
        }

        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let mut ident = String::new();
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                ident.push(bytes[i]);
                advance!(bytes[i]);
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident(ident),
                line: start_line,
                col: start_col,
            });
            continue;
        }

        // Numeric literal (coarse: consume digits, dots, exponents,
        // underscores, suffixes).
        if c.is_ascii_digit() {
            while i < bytes.len()
                && (bytes[i].is_alphanumeric()
                    || bytes[i] == '_'
                    || (bytes[i] == '.' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
            {
                advance!(bytes[i]);
            }
            out.tokens.push(Token {
                kind: TokenKind::Lit,
                line: start_line,
                col: start_col,
            });
            continue;
        }

        // Whitespace.
        if c.is_whitespace() {
            advance!(c);
            continue;
        }

        // Everything else: single punctuation character.
        out.tokens.push(Token {
            kind: TokenKind::Punct(c),
            line: start_line,
            col: start_col,
        });
        advance!(c);
    }

    out
}

/// Compute which token indices sit inside test-only regions:
/// `#[cfg(test)]`-gated items and `#[test]` functions. The analysis
/// skips these — contracts are statements about library code.
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

/// Index of the `}` matching the `{` at `open` (the last token when
/// the braces never balance).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Identifiers outside test regions, in source order.
    fn library_idents(src: &str) -> Vec<String> {
        let lexed = lex(src);
        let excluded = test_regions(&lexed.tokens);
        lexed
            .tokens
            .iter()
            .zip(excluded)
            .filter(|(_, test)| !test)
            .filter_map(|(t, _)| t.kind.ident().map(String::from))
            .collect()
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = r#"
            fn lib() -> u8 { 0 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        assert_eq!(library_idents(src), vec!["fn", "lib", "u8"]);
    }

    #[test]
    fn test_attr_fn_is_exempt_but_code_after_is_not() {
        let src = r#"
            #[test]
            fn t() { Some(1).unwrap(); }
            #[cfg(test)]
            use helpers::fixture;
            fn lib(x: Option<u8>) -> u8 { x.unwrap() }
        "#;
        assert_eq!(
            library_idents(src),
            vec!["fn", "lib", "x", "Option", "u8", "u8", "x", "unwrap"]
        );
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.kind.ident().map(String::from))
            .collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = r#"
            // unwrap in a comment
            let s = "call .unwrap() inside a string";
            /* block .expect( comment */
            value.unwrap();
        "#;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "unwrap").count(), 1);
        assert!(!ids.contains(&"expect".to_string()));
    }

    #[test]
    fn tracks_line_numbers() {
        let src = "let a = 1;\nlet b = a.unwrap();\n";
        let lexed = lex(src);
        let unwrap = lexed
            .tokens
            .iter()
            .find(|t| t.kind.ident() == Some("unwrap"))
            .expect("unwrap token");
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn extracts_allow_annotations() {
        let src = "// xtask-allow(no_unwrap): checked by caller\nx.unwrap();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].lint, "no_unwrap");
        assert_eq!(lexed.allows[0].reason, "checked by caller");
        assert_eq!(lexed.allows[0].line, 1);
    }

    #[test]
    fn allow_without_reason_has_empty_reason() {
        let src = "// xtask-allow(no_panic)\npanic!();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert!(lexed.allows[0].reason.is_empty());
    }

    #[test]
    fn distinguishes_lifetimes_from_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lit)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        let src = r##"let s = r#"contains .unwrap() and "quotes""#; s.len();"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"len".to_string()));
    }

    #[test]
    fn extracts_contract_annotations() {
        let src = "// xtask-contract(zero_alloc)\npub fn hot() {}\n\
                   // xtask-contract(alloc_cold): gated off the hot path\nfn cold() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.contracts.len(), 2);
        assert_eq!(lexed.contracts[0].kind, "zero_alloc");
        assert!(lexed.contracts[0].reason.is_empty());
        assert_eq!(lexed.contracts[0].line, 1);
        assert_eq!(lexed.contracts[1].kind, "alloc_cold");
        assert_eq!(lexed.contracts[1].reason, "gated off the hot path");
        assert_eq!(lexed.contracts[1].line, 3);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still comment */ x.unwrap();";
        let ids = idents(src);
        assert_eq!(ids, vec!["x".to_string(), "unwrap".to_string()]);
    }
}
