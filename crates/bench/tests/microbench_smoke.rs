//! Smoke test guarding the benchmark regression gate itself: every
//! registered micro-benchmark suite must run and emit one valid
//! `MICROBENCH_JSON` record per benchmark. If a bench panics or the
//! JSON drifts from what `cargo xtask benchcmp` parses, this fails
//! long before a silent hole opens in the CI gate.

use snapshot_bench::microbenches;
use snapshot_microbench::Criterion;

#[test]
fn every_registered_bench_emits_valid_json() {
    let path = std::env::temp_dir().join(format!(
        "snapshot-microbench-smoke-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    // The harness appends on every bench completion while the var is
    // set. This file has exactly one test, so nothing else races it.
    std::env::set_var("MICROBENCH_JSON", &path);

    let mut suites = 0;
    for (name, suite) in microbenches::REGISTRY {
        let mut c = Criterion::default().sample_size(2);
        suite(&mut c);
        suites += 1;
        assert!(!name.is_empty());
    }
    std::env::remove_var("MICROBENCH_JSON");
    assert!(suites >= 9, "expected at least 9 suites, saw {suites}");

    let contents = std::fs::read_to_string(&path).expect("MICROBENCH_JSON file written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = contents.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        lines.len() >= suites,
        "expected at least one record per suite, got {} lines",
        lines.len()
    );
    for line in lines {
        assert!(
            line.starts_with("{\"name\":\"") && line.ends_with('}'),
            "record is not a JSON object: {line}"
        );
        for key in [
            "\"median_ns\":",
            "\"min_ns\":",
            "\"iters\":",
            "\"allocs_per_iter\":",
        ] {
            assert!(line.contains(key), "record missing {key}: {line}");
        }
        // The numeric fields must parse; reject NaN/inf, which the
        // gate's comparisons would silently mishandle.
        let field = |key: &str| -> f64 {
            let start = line.find(key).expect("key present") + key.len();
            let rest = &line[start..];
            let end = rest.find([',', '}']).expect("field terminated");
            rest[..end]
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("bad number for {key} in {line}: {e}"))
        };
        assert!(field("\"median_ns\":").is_finite());
        assert!(field("\"min_ns\":") <= field("\"median_ns\":"));
        assert!(field("\"iters\":") >= 1.0);
        assert!(field("\"allocs_per_iter\":").is_finite());
    }
}
