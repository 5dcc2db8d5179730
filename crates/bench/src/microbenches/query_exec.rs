//! Macro-benchmark: query execution in both modes on an elected
//! 100-node network — the per-query cost that snapshot mode trades
//! against accuracy — and whole-field scans on a 5000-node one.

use crate::RandomWalkSetup;
use snapshot_core::{Aggregate, QueryMode, SnapshotQuery, SpatialPredicate};
use snapshot_microbench::{BatchSize, Criterion};
use snapshot_netsim::NodeId;
use std::hint::black_box;

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
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_queries(c);
    bench_scans_5k(c);
}
