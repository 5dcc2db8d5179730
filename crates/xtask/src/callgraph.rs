//! Energy-accounting lints for the protocol directories.
//!
//! The paper's headline result is the ≤6-messages/node election
//! budget (§4). The repo audits that budget through
//! `NetStats::sent_in_phase`, which only works when (a) every send
//! carries a *static* phase tag and (b) every public protocol entry
//! point threads the energy-accounted `Network` through its signature
//! rather than emitting messages through ambient state. This module
//! enforces both with a file-local call-graph scan over `election/`
//! and `maintenance/` sources.

use crate::lexer::{matching_brace, Token, TokenKind};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Method names that emit radio traffic through the simulator.
const SEND_METHODS: &[&str] = &["broadcast", "unicast", "send"];

/// One function parsed out of the token stream.
#[derive(Debug, Default)]
struct FnInfo {
    is_pub: bool,
    has_network_param: bool,
    name_line: u32,
    name_col: u32,
    /// Local functions this one calls.
    calls: BTreeSet<String>,
    /// Lines of direct send calls whose phase argument is not static.
    dynamic_sends: Vec<(u32, u32, String)>,
    /// True when the body contains any direct send call.
    sends_directly: bool,
}

/// Parse the top-level-ish functions of a file (any nesting — local
/// helper closures are attributed to the enclosing function, which is
/// what the budget audit wants).
fn parse_fns(tokens: &[Token], excluded: &[bool]) -> BTreeMap<String, FnInfo> {
    let mut fns = BTreeMap::new();
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
        // Visibility: look back past attributes for `pub`.
        let mut is_pub = false;
        let mut back = i;
        while back > 0 {
            back -= 1;
            match &tokens[back].kind {
                TokenKind::Ident(id) if id == "pub" => {
                    is_pub = true;
                    break;
                }
                // `pub(crate) fn` / `pub(super) fn`: step over the
                // visibility scope parens.
                TokenKind::Punct(')') | TokenKind::Punct('(') => continue,
                TokenKind::Ident(id) if id == "crate" || id == "super" || id == "in" => continue,
                _ => break,
            }
        }
        // Signature runs to the body `{` or a trait-decl `;`.
        let mut j = i + 2;
        let mut has_network_param = false;
        let mut body_open = None;
        let mut angle_depth = 0i32;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Ident(id) if id == "Network" => has_network_param = true,
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
        let mut info = FnInfo {
            is_pub,
            has_network_param,
            name_line: name_tok.line,
            name_col: name_tok.col,
            ..FnInfo::default()
        };
        scan_body(tokens, open + 1, close, &mut info);
        fns.insert(name.to_string(), info);
        i = close + 1;
    }
    fns
}

/// Record calls and send sites inside one function body.
fn scan_body(tokens: &[Token], start: usize, end: usize, info: &mut FnInfo) {
    let mut j = start;
    while j < end {
        let Some(name) = tokens[j].kind.ident() else {
            j += 1;
            continue;
        };
        let is_call = tokens.get(j + 1).is_some_and(|t| t.kind.is_punct('('));
        if !is_call {
            j += 1;
            continue;
        }
        let is_method = j > 0 && tokens[j - 1].kind.is_punct('.');
        if SEND_METHODS.contains(&name) && is_method {
            info.sends_directly = true;
            if !phase_arg_is_static(tokens, j + 1, end) {
                info.dynamic_sends
                    .push((tokens[j].line, tokens[j].col, name.to_string()));
            }
        } else if !is_method {
            // Plain call: candidate edge to a local function.
            info.calls.insert(name.to_string());
        }
        j += 1;
    }
}

/// Check that the *last* argument of the call whose `(` is at `open`
/// is a static phase tag: a string literal, a `Phase::X` / `phase::X`
/// path, or an ALL_CAPS constant.
fn phase_arg_is_static(tokens: &[Token], open: usize, limit: usize) -> bool {
    let mut depth = 0i32;
    let mut last_arg_start = open + 1;
    let mut close = None;
    let mut j = open;
    while j < limit {
        match &tokens[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            // Ignore a trailing comma (directly before the close):
            // `broadcast(…, phase::X,\n)` still ends in the phase arg.
            TokenKind::Punct(',')
                if depth == 1 && !tokens.get(j + 1).is_some_and(|t| t.kind.is_punct(')')) =>
            {
                last_arg_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    let Some(close) = close else { return false };
    if close <= last_arg_start {
        // Zero-argument send: nothing to audit.
        return false;
    }
    let arg = &tokens[last_arg_start..close];
    arg.iter().any(|t| match &t.kind {
        TokenKind::Str => true,
        TokenKind::Ident(id) => {
            id == "phase"
                || id == "Phase"
                || (id.len() > 1
                    && id
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()))
        }
        _ => false,
    })
}

/// Does `name` transitively reach a direct send, following local call
/// edges only?
fn reaches_send(name: &str, fns: &BTreeMap<String, FnInfo>, seen: &mut BTreeSet<String>) -> bool {
    if !seen.insert(name.to_string()) {
        return false;
    }
    let Some(info) = fns.get(name) else {
        return false;
    };
    if info.sends_directly {
        return true;
    }
    info.calls
        .iter()
        .any(|callee| reaches_send(callee, fns, seen))
}

/// The energy-accounting lints (see module docs).
pub fn energy_accounting(
    path: &Path,
    tokens: &[Token],
    excluded: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    let fns = parse_fns(tokens, excluded);
    for (name, info) in &fns {
        for (line, col, method) in &info.dynamic_sends {
            diags.push(Diagnostic {
                lint: "unaccounted_send",
                path: path.to_path_buf(),
                line: *line,
                col: *col,
                message: format!(
                    "`{method}` in `{name}` lacks a static phase tag; the per-phase message \
                     budget cannot be audited"
                ),
                suggestion: "pass a string literal or `phase::CONST` as the phase argument so \
                             NetStats::sent_in_phase can attribute the traffic",
            });
        }
        if info.is_pub {
            let mut seen = BTreeSet::new();
            if reaches_send(name, &fns, &mut seen) && !info.has_network_param {
                diags.push(Diagnostic {
                    lint: "unthreaded_network",
                    path: path.to_path_buf(),
                    line: info.name_line,
                    col: info.name_col,
                    message: format!(
                        "pub fn `{name}` sends messages but does not take the energy-accounted \
                         `Network` as a parameter"
                    ),
                    suggestion: "thread `&mut Network<…>` through the public API so every send \
                                 draws tx energy and is recorded in NetStats",
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};

    fn lint_names(src: &str) -> Vec<(&'static str, u32)> {
        let lexed = lex(src);
        let excluded = test_regions(&lexed.tokens);
        let mut diags = Vec::new();
        energy_accounting(
            Path::new("election/m.rs"),
            &lexed.tokens,
            &excluded,
            &mut diags,
        );
        diags.into_iter().map(|d| (d.lint, d.line)).collect()
    }

    #[test]
    fn static_phase_tags_pass() {
        let src = r#"
            pub fn run(net: &mut Network<Msg>) {
                net.broadcast(i, msg, bytes, phase::INVITATION);
                net.unicast(i, j, msg, bytes, "heartbeat");
            }
        "#;
        assert!(lint_names(src).is_empty());
    }

    #[test]
    fn dynamic_phase_tag_is_flagged() {
        let src = r#"
            pub fn run(net: &mut Network<Msg>, tag: &'static str) {
                net.broadcast(i, msg, bytes, tag);
            }
        "#;
        assert_eq!(lint_names(src), vec![("unaccounted_send", 3)]);
    }

    #[test]
    fn pub_fn_sending_without_network_param_is_flagged() {
        let src = r#"
            pub fn run(state: &mut AmbientState) {
                helper(state);
            }
            fn helper(state: &mut AmbientState) {
                state.net.broadcast(i, msg, bytes, "x");
            }
        "#;
        assert_eq!(lint_names(src), vec![("unthreaded_network", 2)]);
    }

    #[test]
    fn transitive_send_through_local_helper_is_tracked() {
        let src = r#"
            pub fn entry(net: &mut Network<Msg>) { helper(net); }
            fn helper(net: &mut Network<Msg>) { net.broadcast(a, b, c, "tag"); }
        "#;
        assert!(lint_names(src).is_empty());
    }

    #[test]
    fn non_sending_pub_fns_are_unconstrained() {
        let src = "pub fn pure(x: u32) -> u32 { x + 1 }";
        assert!(lint_names(src).is_empty());
    }

    #[test]
    fn trailing_comma_does_not_hide_the_phase_tag() {
        let src = r#"
            pub fn run(net: &mut Network<Msg>) {
                net.broadcast(
                    j,
                    Msg::Invite { value: values[j.index()], epoch },
                    Msg::Invite { value: 0.0, epoch }.wire_bytes(),
                    phase::INVITATION,
                );
            }
        "#;
        assert!(lint_names(src).is_empty());
    }

    #[test]
    fn phase_enum_variant_counts_as_static() {
        let src = r#"
            pub fn run(net: &mut Network<Msg>) {
                net.broadcast(i, msg, bytes, Phase::Invitation);
                net.unicast(i, j, msg, bytes, Phase::Heartbeat);
            }
        "#;
        assert!(lint_names(src).is_empty());
    }

    #[test]
    fn all_caps_const_counts_as_static() {
        let src = r#"
            pub fn run(net: &mut Network<Msg>) {
                net.broadcast(i, msg, bytes, HEARTBEAT_PHASE);
            }
        "#;
        assert!(lint_names(src).is_empty());
    }
}
