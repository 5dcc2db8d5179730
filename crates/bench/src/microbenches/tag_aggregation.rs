//! Message-level TAG aggregation vs the idealized accounting executor:
//! the cost of simulating the aggregate's actual journey up the tree.

use crate::RandomWalkSetup;
use snapshot_core::{Aggregate, QueryMode, SnapshotQuery, SpatialPredicate};
use snapshot_microbench::{BatchSize, Criterion};
use snapshot_netsim::NodeId;
use std::hint::black_box;

fn bench_tag(c: &mut Criterion) {
    let mut sn = RandomWalkSetup {
        k: 5,
        range: 0.4,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let _ = sn.elect();
    let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Snapshot);

    c.bench_function("query_idealized_snapshot_avg", |b| {
        b.iter_batched(
            || sn.clone(),
            |mut sn| black_box((sn.query(&q, NodeId(3)), sn)),
            BatchSize::LargeInput,
        )
    });

    c.bench_function("query_tag_snapshot_avg", |b| {
        b.iter_batched(
            || sn.clone(),
            |mut sn| black_box((sn.query_tag(&q, NodeId(3)), sn)),
            BatchSize::LargeInput,
        )
    });

    let regular =
        SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Regular);
    c.bench_function("query_tag_regular_avg", |b| {
        b.iter_batched(
            || sn.clone(),
            |mut sn| black_box((sn.query_tag(&regular, NodeId(3)), sn)),
            BatchSize::LargeInput,
        )
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_tag(c);
}
