//! Machine-readable emission: SARIF 2.1.0 and GitHub Actions workflow
//! commands.
//!
//! SARIF is the interchange format GitHub's code-scanning UI ingests;
//! the `::error file=…,line=…` workflow commands render findings
//! inline on the PR diff even without code-scanning enabled. Both are
//! hand-rolled over the same minimal JSON helpers as `--json` — the
//! analyzer stays dependency-free.

use crate::{json_escape, Diagnostic, Report, LINTS};

/// Render a report as a minimal SARIF 2.1.0 log with one run and one
/// rule per lint.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"xtask-analyze\",\n          \"informationUri\": \"https://example.org/snapshot-queries\",\n          \"rules\": [\n",
    );
    for (i, info) in LINTS.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"defaultConfiguration\": {{\"level\": \"error\"}}}}{}\n",
            info.name,
            json_escape(info.summary),
            if i + 1 < LINTS.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}{}\n",
            d.lint,
            json_escape(&d.message),
            json_escape(&d.path.display().to_string()),
            d.line,
            d.col,
            if i + 1 < report.diagnostics.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}");
    out
}

/// Escape a workflow-command *message* (`%`, newlines).
fn escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escape a workflow-command *property value* (additionally `,`, `:`).
fn escape_property(s: &str) -> String {
    escape_data(s).replace(',', "%2C").replace(':', "%3A")
}

/// Render one diagnostic as a GitHub Actions workflow command
/// (`::error file=…,line=…,col=…,title=…::message`).
pub fn to_github_annotation(d: &Diagnostic) -> String {
    format!(
        "::error file={},line={},col={},title={}::{}",
        escape_property(&d.path.display().to_string()),
        d.line,
        d.col,
        escape_property(d.lint),
        escape_data(&format!("{} ({})", d.message, d.suggestion)),
    )
}

/// Render every diagnostic in the report as workflow commands, one per
/// line.
pub fn to_github_annotations(report: &Report) -> String {
    report
        .diagnostics
        .iter()
        .map(to_github_annotation)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn diag(message: &str) -> Diagnostic {
        Diagnostic {
            lint: "contract_zero_alloc",
            path: PathBuf::from("crates/x/src/a.rs"),
            line: 3,
            col: 7,
            message: message.to_string(),
            suggestion: "fix it",
        }
    }

    #[test]
    fn sarif_contains_schema_rules_and_results() {
        let mut r = Report::default();
        r.diagnostics.push(diag("boom"));
        let s = to_sarif(&r);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"contract_zero_alloc\""));
        assert!(s.contains("\"startLine\": 3"));
        // One rule entry per known lint.
        assert_eq!(s.matches("\"shortDescription\"").count(), LINTS.len());
    }

    #[test]
    fn github_annotation_escapes_message_and_properties() {
        let d = diag("50% broken\nsecond line");
        let a = to_github_annotation(&d);
        assert!(a.starts_with(
            "::error file=crates/x/src/a.rs,line=3,col=7,title=contract_zero_alloc::"
        ));
        assert!(a.contains("50%25 broken%0Asecond line"));
        assert!(!a.contains('\n'));
    }
}
