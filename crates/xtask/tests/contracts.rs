//! End-to-end checks of the contract-propagation analyzer: one
//! fixture per violation class, a mutation test that seeds an
//! allocation into a copy of the real delivery hot path, and a
//! workspace self-check that the annotated call trees analyze clean.

use std::path::{Path, PathBuf};
use xtask::{analyze_sources, SourceFile};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    manifest_dir()
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .expect("repo root")
}

/// Load a contract fixture. Its path is outside `election/` and
/// `maintenance/`, so the energy lints skip it and every diagnostic
/// the report carries came from the contract pass.
fn fixture(name: &str) -> SourceFile {
    let path = manifest_dir().join("tests/fixtures/contracts").join(name);
    SourceFile {
        src: std::fs::read_to_string(&path).expect("fixture readable"),
        path,
    }
}

#[test]
fn direct_allocation_in_contracted_fn_is_denied() {
    let report = analyze_sources(vec![fixture("direct_alloc.rs")], None);
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 1, "got: {diags:?}");
    assert_eq!(diags[0].lint, "contract_zero_alloc");
    assert!(
        diags[0].message.contains("hot_path"),
        "{}",
        diags[0].message
    );
    assert!(diags[0].message.contains("format!"), "{}", diags[0].message);
}

#[test]
fn transitive_allocation_two_hops_down_carries_full_chain() {
    let report = analyze_sources(vec![fixture("transitive.rs")], None);
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 1, "got: {diags:?}");
    assert_eq!(diags[0].lint, "contract_zero_alloc");
    // The blame chain must name every hop from the contracted root to
    // the allocation site.
    for hop in ["entry", "middle", "leaf", "push"] {
        assert!(
            diags[0].message.contains(hop),
            "chain must name `{hop}`: {}",
            diags[0].message
        );
    }
}

#[test]
fn cross_crate_allocation_is_denied_at_the_source() {
    // Remap the fixture paths so crate attribution sees two distinct
    // crates (`crate_a`, `crate_b`) rather than both files landing in
    // the xtask crate via the real `crates/xtask/...` prefix.
    let mut caller = fixture("crate_a/caller.rs");
    caller.path = PathBuf::from("/fixtures/crate_a/caller.rs");
    let mut callee = fixture("crate_b/callee.rs");
    callee.path = PathBuf::from("/fixtures/crate_b/callee.rs");

    let report = analyze_sources(vec![caller, callee], None);
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 1, "got: {diags:?}");
    assert_eq!(diags[0].lint, "contract_zero_alloc");
    assert!(
        diags[0].path.ends_with("callee.rs"),
        "diagnostic must point at the violating crate: {:?}",
        diags[0].path
    );
    for hop in ["tick_all", "seed_label", "format!"] {
        assert!(
            diags[0].message.contains(hop),
            "chain must name `{hop}`: {}",
            diags[0].message
        );
    }
}

#[test]
fn contract_on_trait_method_impl_is_enforced() {
    let report = analyze_sources(vec![fixture("trait_impl.rs")], None);
    let diags = &report.diagnostics;
    assert_eq!(diags.len(), 1, "got: {diags:?}");
    assert_eq!(diags[0].lint, "contract_zero_alloc");
    assert!(
        diags[0].message.contains("record_sample"),
        "{}",
        diags[0].message
    );
}

#[test]
fn alloc_cold_barrier_and_site_allow_analyze_clean() {
    let report = analyze_sources(vec![fixture("barrier.rs")], None);
    assert!(
        report.diagnostics.is_empty(),
        "barrier fixture must be clean, got: {:?}",
        report.diagnostics
    );
    // The suppressions still show up where the audit can see them.
    assert_eq!(report.cold_count(), 1);
    assert_eq!(
        report.allow_counts.get("contract_zero_alloc").copied(),
        Some(1)
    );
}

/// Mutation test: seed a `format!` two calls below `Network::deliver`
/// in a copy of the real source and require the analyzer to reject it
/// with a blame chain naming all three hops. The pristine file is the
/// control — it must analyze contract-clean, so the seeded diagnostic
/// is attributable to the mutation alone.
#[test]
fn seeded_allocation_in_delivery_path_is_rejected_with_blame_chain() {
    let sim_path = repo_root().join("crates/netsim/src/sim.rs");
    let pristine = std::fs::read_to_string(&sim_path).expect("sim.rs readable");

    let analyze = |src: String| {
        analyze_sources(
            vec![SourceFile {
                path: sim_path.clone(),
                src,
            }],
            None,
        )
    };

    // Control: the unmutated delivery path honors its contracts.
    let control = analyze(pristine.clone());
    assert!(
        control.diagnostics.is_empty(),
        "pristine sim.rs must analyze clean: {:?}",
        control.diagnostics
    );

    // Mutant: deliver -> mutation_route_one -> mutation_format_leaf,
    // where the leaf formats into a fresh String.
    let anchor = "let mut delivered = 0;";
    let mutated = pristine.replacen(
        anchor,
        "let mut delivered = 0;\n        mutation_route_one(&mut delivered);",
        1,
    );
    assert_ne!(mutated, pristine, "anchor line must exist in deliver()");
    let mutated = format!(
        "{mutated}\n{}",
        r#"
fn mutation_route_one(count: &mut usize) {
    mutation_format_leaf(count);
}

fn mutation_format_leaf(count: &mut usize) {
    let s = format!("{count:?}");
    *count += s.len();
}
"#
    );

    let report = analyze(mutated);
    let violations: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == "contract_zero_alloc")
        .collect();
    assert_eq!(
        violations.len(),
        1,
        "exactly the seeded allocation must be rejected: {violations:?}"
    );
    let msg = &violations[0].message;
    for hop in [
        "deliver",
        "mutation_route_one",
        "mutation_format_leaf",
        "format!",
    ] {
        assert!(msg.contains(hop), "blame chain must name `{hop}`: {msg}");
    }
}

/// Workspace self-check: the annotated hot paths really carry their
/// contracts and the whole workspace analyzes clean with them on.
#[test]
fn workspace_hot_paths_carry_contracts_and_analyze_clean() {
    let report = xtask::analyze_workspace(&repo_root()).expect("workspace scan");

    let findings: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        findings.is_empty(),
        "workspace must be free of findings:\n{}",
        findings.join("\n")
    );

    let has = |kind: &str, function: &str| {
        report
            .contracts
            .iter()
            .any(|c| c.kind == kind && c.function == function)
    };
    // The PR-3 delivery path and PR-5 incremental-move path hold their
    // allocation contracts statically, not just under the bench gate.
    assert!(has("zero_alloc", "deliver"), "deliver must be zero_alloc");
    assert!(
        has("zero_alloc", "set_position"),
        "set_position must be zero_alloc"
    );
    assert!(
        has("zero_alloc", "relocate"),
        "grid move must be zero_alloc"
    );
    assert!(
        report.cold_count() >= 3,
        "the sanctioned cold paths must be marked"
    );
}
