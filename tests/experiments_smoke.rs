//! Smoke-run every paper experiment in quick mode: each must complete
//! and produce a non-empty, well-formed report. This keeps the
//! reproduction harness itself from rotting.

use snapshot_bench::{experiments, RunContext};

#[test]
fn every_experiment_runs_in_quick_mode() {
    let ctx = RunContext::quick(1);
    for &(id, run) in experiments::ALL {
        let out = run(&ctx);
        assert_eq!(out.id, id);
        assert!(!out.rendered.is_empty(), "{id} rendered nothing");
        assert!(!out.notes.is_empty(), "{id} has no notes");
        assert!(
            out.rendered.lines().count() >= 3,
            "{id} produced a degenerate table:\n{}",
            out.rendered
        );
    }
}

#[test]
fn unknown_experiments_are_rejected() {
    assert!(experiments::run("fig99", &RunContext::quick(1)).is_none());
}

#[test]
fn experiments_are_deterministic_in_the_seed() {
    // Same seed, same table — different seed, (almost surely)
    // different table for a stochastic experiment like fig6.
    let a = experiments::run("fig6", &RunContext::quick(5)).unwrap();
    let b = experiments::run("fig6", &RunContext::quick(5)).unwrap();
    assert_eq!(a.rendered, b.rendered);
}

#[test]
fn csv_artifacts_are_written_when_requested() {
    let dir = std::env::temp_dir().join(format!("snapshot-bench-smoke-{}", std::process::id()));
    let ctx = RunContext {
        out_dir: Some(dir.clone()),
        ..RunContext::quick(2)
    };
    let _ = experiments::run("fig7", &ctx).unwrap();
    let csv = std::fs::read_to_string(dir.join("fig7.csv")).expect("fig7.csv written");
    assert!(csv.starts_with("P_loss,"));
    assert!(csv.lines().count() >= 3);
    let _ = std::fs::remove_dir_all(dir);
}
