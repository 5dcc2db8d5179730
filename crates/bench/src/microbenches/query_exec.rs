//! Macro-benchmark: query execution in both modes on an elected
//! 100-node network — the per-query cost that snapshot mode trades
//! against accuracy — and scans on a 5000-node one: whole-field scans
//! alone, one serving tick's batch, and one quadrant inside a warm
//! batch.

use crate::RandomWalkSetup;
use snapshot_core::{Aggregate, QueryMode, SnapshotQuery, SpatialPredicate};
use snapshot_microbench::{BatchSize, Criterion};
use snapshot_netsim::NodeId;
use snapshot_query::serve::plan_text;
use snapshot_query::RegionCatalog;
use std::hint::black_box;

/// The five scan signatures of the e2e benchmark's serve-shared mix,
/// as drill-throughs: the whole field, three quadrants and a value
/// filter, all in snapshot mode.
const SHARED_SCANS: &[&str] = &[
    "SELECT loc, value FROM sensors USE SNAPSHOT",
    "SELECT loc, value FROM sensors WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
    "SELECT loc, value FROM sensors WHERE loc IN SOUTH_WEST_QUADRANT USE SNAPSHOT",
    "SELECT loc, value FROM sensors WHERE value > 0 USE SNAPSHOT",
    "SELECT loc, value FROM sensors WHERE loc IN NORTH_WEST_QUADRANT USE SNAPSHOT",
];

fn bench_queries(c: &mut Criterion) {
    let mut sn = RandomWalkSetup {
        k: 5,
        range: 0.7,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let _ = sn.elect();
    let pred = SpatialPredicate::window(0.5, 0.5, 0.316); // area 0.1

    for (name, mode) in [
        ("regular", QueryMode::Regular),
        ("snapshot", QueryMode::Snapshot),
    ] {
        let q = SnapshotQuery::aggregate(pred, Aggregate::Avg, mode);
        c.bench_function(&format!("query_{name}_area0.1"), |b| {
            b.iter_batched(
                || sn.clone(),
                |mut sn| black_box(sn.query(&q, NodeId(3))),
                BatchSize::LargeInput,
            )
        });
    }

    let drill = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Snapshot);
    c.bench_function("query_drill_through_all", |b| {
        b.iter_batched(
            || sn.clone(),
            |mut sn| black_box(sn.query(&drill, NodeId(3))),
            BatchSize::LargeInput,
        )
    });
}

/// One whole-field drill-through scan on the serving benchmark's
/// deployment (N = 5000, range 0.05, K = 10) with the aggregation tree
/// already cached: the per-scan cost a live query pays while nothing
/// dies or moves. Batteries are infinite, so the tree stays warm
/// across iterations.
fn bench_scans_5k(c: &mut Criterion) {
    let mut sn = RandomWalkSetup {
        n_nodes: 5000,
        k: 10,
        range: 0.05,
        train_until: 10,
        elect_at: 20,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let _ = sn.elect();

    for (name, mode) in [
        ("regular", QueryMode::Regular),
        ("snapshot", QueryMode::Snapshot),
    ] {
        let q = SnapshotQuery::drill_through(SpatialPredicate::All, mode);
        let _ = sn.query(&q, NodeId(0));
        c.bench_function(&format!("query_{name}_all_5k"), |b| {
            b.iter(|| black_box(sn.query(&q, NodeId(0))))
        });
    }

    // One serving tick's scans: the five signatures one by one, then
    // through one scan batch, which computes each node's reading once.
    let catalog = RegionCatalog::with_quadrants();
    let scans: Vec<SnapshotQuery> = SHARED_SCANS
        .iter()
        .filter_map(|sql| plan_text(sql, &catalog).ok())
        .map(|plan| plan.query)
        .collect();
    assert_eq!(scans.len(), SHARED_SCANS.len(), "every shared scan plans");
    c.bench_function("query_unbatched_5k", |b| {
        b.iter(|| {
            let results: Vec<_> = scans.iter().map(|q| sn.query(q, NodeId(0))).collect();
            black_box(results)
        })
    });
    c.bench_function("query_batch_5k", |b| {
        b.iter(|| {
            let mut batch = sn.scan_batch(NodeId(0));
            let results: Vec<_> = scans.iter().map(|q| batch.query(q)).collect();
            black_box(results)
        })
    });

    // One quadrant scanned again inside a warm batch: every reading
    // hits the table, so what is left is what the scan itself costs —
    // its targets, rows, participants and charges.
    let quadrant = &scans[1];
    let mut batch = sn.scan_batch(NodeId(0));
    let _ = batch.query(quadrant);
    c.bench_function("query_quadrant_in_batch_5k", |b| {
        b.iter(|| black_box(batch.query(quadrant)))
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_queries(c);
    bench_scans_5k(c);
}
