//! Unit tests at `--quick` sizes; they run in seconds in a debug build.

use super::*;
use crate::measure::{ScratchDir, Segment};
use crate::speed::{at_reference_speed, Speed, REFERENCE_NS};
use crate::workloads::{kill_picks, probe_order, shared_query, time_travel_query, unique_query};
use snapshot_netsim::NodeId;
use snapshot_query::serve::normalize;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// A scratch base no other test uses.
fn base(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("e2e-test-{}-{test}", std::process::id()))
}

fn quick(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: Some(workload.to_owned()),
        seed,
        seconds: 0,
        trace,
        quick: true,
        list: false,
    }
}

/// Metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|field| {
            let name = field.trim_start_matches([' ', '"']);
            name[..name.find('"').expect("quoted name")].to_owned()
        })
        .collect()
}

fn names(metrics: &[spec::Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_owned()).collect()
}

#[test]
fn each_workload_emits_exactly_the_benchmark_metrics() {
    for (seed, w) in spec::WORKLOADS.iter().enumerate() {
        let dir = base(&format!("emit-{}", w.name));
        let line = run(w.name, &quick(w.name, seed as u64, false), &dir)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert_eq!(metric_names(&line), names(spec::END_TO_END), "{}", w.name);
        let line = run_traced(w.name, &quick(w.name, seed as u64, true), &dir)
            .unwrap_or_else(|e| panic!("{} traced: {e}", w.name));
        assert_eq!(metric_names(&line), names(spec::PER_LAYER), "{}", w.name);
        assert!(
            !dir.exists(),
            "{}: the scratch base was left behind",
            w.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, spec::benchmark_json());
}

#[test]
fn workload_generators_are_pure_functions_of_the_seed() {
    let captures: Vec<u64> = (0..20).map(|c| 25 + 5 * c).collect();
    let draw = |seed: u64| {
        let mut out = Vec::new();
        for i in 0..300 {
            out.push(format!("{:?}", shared_query(seed, i)));
            out.push(format!("{:?}", unique_query(seed, i)));
            out.push(format!("{:?}", time_travel_query(seed, i, &captures)));
        }
        for cycle in 0..8 {
            out.push(format!("{:?}", probe_order(seed, cycle, 32)));
        }
        out
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    let mut order = probe_order(7, 0, 32);
    order.sort_unstable();
    assert_eq!(order, (0..32).collect::<Vec<_>>());

    let reps: Vec<NodeId> = (0..=1000).map(NodeId).collect();
    let kills = kill_picks(0, &reps);
    assert_eq!(kills, kill_picks(0, &reps));
    assert_eq!(kills.len(), 5);
    assert!(kills.iter().all(|&id| id != NodeId(0)));
}

#[test]
fn serve_unique_texts_stay_distinct_after_normalization() {
    for seed in [1, 2, 99] {
        let texts: BTreeSet<String> = (0..2400)
            .map(|i| normalize(&unique_query(seed, i).1))
            .collect();
        assert_eq!(texts.len(), 2400, "seed {seed}");
    }
}

#[test]
fn scratch_dir_is_unique_and_removed_even_when_an_oracle_fails() {
    let root = base("scratch");
    let a = ScratchDir::new(&root, "history", 3).expect("create");
    let b = ScratchDir::new(&root, "history", 4).expect("create");
    let c = ScratchDir::new(&root, "serve-shared", 3).expect("create");
    let paths: BTreeSet<PathBuf> = [&a, &b, &c].iter().map(|d| d.path().to_owned()).collect();
    assert_eq!(paths.len(), 3);
    assert!(a
        .path()
        .ends_with(format!("{}-history-3", std::process::id())));
    drop((a, b, c));
    assert!(!root.exists());

    let failing = || -> Result<(), String> {
        let dir = ScratchDir::new(&root, "history", 5).map_err(|e| e.to_string())?;
        std::fs::write(dir.path().join("history.store"), "x").map_err(|e| e.to_string())?;
        Err("oracle: injected".into())
    };
    assert!(failing().is_err());
    assert!(!root.exists(), "an oracle failure left the store behind");

    let panicked = std::panic::catch_unwind(|| {
        let dir = ScratchDir::new(&root, "history", 6).expect("create");
        std::fs::write(dir.path().join("history.store"), "x").expect("write");
        panic!("oracle: injected");
    });
    assert!(panicked.is_err());
    assert!(!root.exists(), "a panic left the store behind");
}

#[test]
fn latency_sums_the_median_repetition_of_each_segment() {
    let round = |segments: &[u64]| Round {
        segments: segments
            .iter()
            .map(|&ns| Segment {
                name: "serve",
                wall_ns: 2 * ns,
                ref_ns: ns,
            })
            .collect(),
        ..Round::default()
    };
    let rounds = [round(&[5, 9, 4]), round(&[7, 2, 6]), round(&[6, 3, 1])];
    let median = median_segments(&rounds, |s| s.ref_ns);
    assert_eq!(median, [6, 3, 4]);
    assert_eq!(median_segments(&rounds, |s| s.wall_ns), [12, 6, 8]);
    assert_eq!(latencies(&median, &[(0, 0), (1, 2), (0, 2)]), [6, 7, 13]);
}

#[test]
fn reference_speed_scales_by_the_mean_reading_around_a_step() {
    let at_ref = REFERENCE_NS as u64;
    assert_eq!(at_reference_speed(1_000, at_ref, at_ref), 1_000);
    // A host running half as fast takes twice the wall time.
    assert_eq!(at_reference_speed(2_000, 2 * at_ref, 2 * at_ref), 1_000);
    assert_eq!(at_reference_speed(1_500, at_ref, 2 * at_ref), 1_000);
    let mut speed = Speed::new();
    assert!(speed.scale(1_000_000) > 0);
    assert!(speed.spent_ns() > 0 && speed.slowdown() > 0.0);
}

#[test]
fn arguments_follow_the_benchmark_contract_and_the_short_form() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
    let a = parse("--workload history --seed 9 --seconds 5 --trace 0").expect("parse");
    assert_eq!(
        (a.workload.as_deref(), a.seed, a.seconds, a.trace),
        (Some("history"), 9, 5, false)
    );
    let a = parse("serve-unique --seed 2 --trace --quick").expect("parse");
    assert_eq!(
        (a.workload.as_deref(), a.trace, a.quick),
        (Some("serve-unique"), true, true)
    );
    assert!(parse("--workload all --trace 1").expect("parse").trace);
    assert!(parse("--list").expect("parse").list);
    assert!(parse("--workload nope").is_err());
    assert!(parse("--seed x --workload history").is_err());
    assert!(parse("").is_err());
}
