//! The event-driven core's equivalence contract (DESIGN.md §16):
//! wake-list drains ([`DrainMode::WakeList`]) must be **byte-identical**
//! to the retained all-scan reference path ([`DrainMode::AllScan`]) —
//! same telemetry trace, same snapshot, same stats — because a woken
//! set drained in ascending id order visits exactly the nodes the old
//! full scan found active, and empty drains consume no RNG and emit no
//! telemetry.
//!
//! The library-level test sweeps randomized workloads (seeds × fault
//! plans, with lossy links, mobility, timers, maintenance, rotation,
//! a TAG query);
//! the binary-level test crosses the two drain modes with `--jobs 1`
//! vs `--jobs 4` through the full experiment pipeline.

use snapshot_bench::RandomWalkSetup;
use snapshot_core::{Aggregate, QueryMode, SensorNetwork, SnapshotQuery, SpatialPredicate};
use snapshot_netsim::rng::{derive_seed, DetRng, RngExt};
use snapshot_netsim::{
    DrainMode, FaultEvent, FaultKind, FaultPlan, FaultTarget, NodeId, RandomWaypoint,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const N: usize = 30;

/// A deterministic pseudo-random fault plan: outages, crashes and
/// drains landing on random victims over the `base..base+10` window.
fn random_plan(seed: u64, base: u64) -> FaultPlan {
    let mut rng = DetRng::seed_from_u64(derive_seed(seed, 0xFA17));
    let mut events = Vec::new();
    for _ in 0..4 {
        let at = base + rng.random_range(1..10u64);
        let victim = FaultTarget::Node(rng.random_range(0..N as u32));
        let kind = match rng.random_range(0..3u32) {
            0 => FaultKind::Outage {
                target: victim,
                down_for: rng.random_range(1..5u64),
            },
            1 => FaultKind::Crash { target: victim },
            _ => FaultKind::Drain {
                node: Some(rng.random_range(0..N as u32)),
                factor: 2.0,
            },
        };
        events.push(FaultEvent { at, kind });
    }
    FaultPlan::new(events)
}

/// One full randomized workload touching every wake source: elections
/// (messages), scheduled timers, the fault plan, and mobility — under
/// 20% i.i.d. loss so inbox contents are RNG-coupled.
fn run_workload(mode: DrainMode, seed: u64) -> (String, String) {
    let setup = RandomWalkSetup {
        n_nodes: N,
        p_loss: 0.2,
        ..RandomWalkSetup::default()
    };
    let mut sn: SensorNetwork = setup.build(seed);
    sn.net_mut().set_drain_mode(mode);
    let base = sn.net().round();
    sn.net_mut().set_fault_plan(random_plan(seed, base));
    sn.enable_telemetry(1 << 15);
    // Every protocol operation drains each inbox its rounds filled. A
    // phase that skipped its drain would leave stale messages that both
    // drain modes read alike, which the trace comparison cannot see.
    let assert_drained = |sn: &SensorNetwork, op: &str| {
        let woken = sn.net().scheduler().woken_len();
        assert_eq!(woken, 0, "{op} left nodes woken ({mode:?}, seed {seed})");
    };

    sn.elect();
    assert_drained(&sn, "elect");
    let mut mob = RandomWaypoint::new(N, 0.01, derive_seed(seed, 0x0B11));
    for t in 0..12u64 {
        let round = sn.net().round();
        sn.net_mut()
            .schedule_wake(round + 1 + (t % 3), 0, NodeId((t % N as u64) as u32));
        sn.snoop_step(None, 0.5);
        assert_drained(&sn, "snoop_step");
        mob.step(sn.net_mut());
        if t % 4 == 0 {
            sn.maintain();
            assert_drained(&sn, "maintain");
        }
        if t % 5 == 0 {
            sn.reconcile();
            assert_drained(&sn, "reconcile");
        }
    }
    sn.rotate(0.5);
    assert_drained(&sn, "rotate");
    let avg = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Regular);
    sn.query_tag(&avg, NodeId(0))
        .expect("an aggregate runs as TAG");
    assert_drained(&sn, "query_tag");

    let trace = sn.export_trace_jsonl();
    let state = format!(
        "snapshot={:?} spurious={} alive={} stats={:?}",
        sn.snapshot(),
        sn.spurious_representatives(),
        sn.net().alive_count(),
        sn.stats(),
    );
    (trace, state)
}

#[test]
fn wake_list_matches_all_scan_across_seeds_and_fault_plans() {
    for seed in [1, 7, 23] {
        let (trace_wake, state_wake) = run_workload(DrainMode::WakeList, seed);
        let (trace_scan, state_scan) = run_workload(DrainMode::AllScan, seed);
        assert!(
            trace_wake.contains("\"msg_sent\""),
            "workload produced an empty trace (seed {seed})"
        );
        assert_eq!(
            trace_wake, trace_scan,
            "telemetry trace diverged between WakeList and AllScan (seed {seed})"
        );
        assert_eq!(
            state_wake, state_scan,
            "final state diverged between WakeList and AllScan (seed {seed})"
        );
    }
}

fn run_experiments(args: &[&str], out_dir: &Path) -> (String, BTreeMap<String, Vec<u8>>) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--out")
        .arg(out_dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch experiments binary: {e}"));
    assert!(
        output.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is utf-8");
    let stdout = stdout
        .lines()
        .filter(|l| !l.starts_with("CSV artifacts in "))
        .collect::<Vec<_>>()
        .join("\n");
    let mut csvs = BTreeMap::new();
    for entry in std::fs::read_dir(out_dir).expect("out dir exists") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        csvs.insert(
            name,
            std::fs::read(entry.path()).expect("artifact readable"),
        );
    }
    (stdout, csvs)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "snapshot-drain-equivalence-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp out dir");
    dir
}

#[test]
fn all_scan_jobs4_matches_wake_list_jobs1_end_to_end() {
    // The sharpest cross: the default mode on a serial runner vs the
    // reference mode on a parallel runner, through a fault-injecting
    // experiment (heal) and a span-instrumented one (trace).
    let d_wake = fresh_dir("wake-j1");
    let d_scan = fresh_dir("scan-j4");
    let (out_wake, csv_wake) = run_experiments(
        &[
            "trace",
            "heal",
            "--quick",
            "--seed",
            "3",
            "--jobs",
            "1",
            "--drain-mode",
            "wake-list",
        ],
        &d_wake,
    );
    let (out_scan, csv_scan) = run_experiments(
        &[
            "trace",
            "heal",
            "--quick",
            "--seed",
            "3",
            "--jobs",
            "4",
            "--drain-mode",
            "all-scan",
        ],
        &d_scan,
    );
    assert_eq!(
        out_wake, out_scan,
        "stdout diverged between wake-list/--jobs 1 and all-scan/--jobs 4"
    );
    assert_eq!(
        csv_wake.keys().collect::<Vec<_>>(),
        csv_scan.keys().collect::<Vec<_>>(),
        "artifact sets diverged between drain modes"
    );
    assert!(!csv_wake.is_empty(), "expected experiment artifacts");
    for (name, bytes) in &csv_wake {
        assert_eq!(
            bytes, &csv_scan[name],
            "{name} not byte-identical between wake-list/--jobs 1 and all-scan/--jobs 4"
        );
    }
    let _ = std::fs::remove_dir_all(&d_wake);
    let _ = std::fs::remove_dir_all(&d_scan);
}
