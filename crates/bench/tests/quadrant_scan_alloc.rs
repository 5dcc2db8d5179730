//! DESIGN.md §12, "Query executor cost": a live scan costs its targets,
//! not the deployment. A quadrant scanned again inside a warm
//! `ScanBatch` (every reading hits the batch's table) allocates a fixed
//! number of buffers — its targets, rows, participants and responders,
//! each sized once — so the count is the same at N = 5,000 and at
//! N = 20,000. A `Vec` grown by pushes would reallocate about
//! log2(|targets|) times, more at the larger size. The counting global
//! allocator observes every allocation in the process, so this file
//! holds exactly one test: a second concurrent test would pollute the
//! counter.

use snapshot_bench::RandomWalkSetup;
use snapshot_core::{QueryMode, SnapshotQuery, SpatialPredicate};
use snapshot_microbench::counting_alloc::{self, CountingAllocator};
use snapshot_netsim::NodeId;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SCANS: u64 = 8;

/// Allocations per warm quadrant scan on an `n`-node deployment, with
/// the radio range scaled so the mean degree stays about 39. Every
/// node starts ACTIVE and answers for itself, so no election is needed
/// for the scan to touch a quarter of the deployment.
fn allocations_per_scan(n: usize) -> (u64, usize) {
    let mut sn = RandomWalkSetup {
        n_nodes: n,
        k: 10,
        range: 0.05 * (5_000.0 / n as f64).sqrt(),
        steps: 30,
        train_until: 0,
        elect_at: 20,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let quadrant = SnapshotQuery::drill_through(
        SpatialPredicate::Rect {
            x0: 0.5,
            y0: 0.5,
            x1: 1.0,
            y1: 1.0,
        },
        QueryMode::Snapshot,
    );
    let mut batch = sn.scan_batch(NodeId(0));
    let rows = batch.query(&quadrant).rows.len();
    let before = counting_alloc::allocations();
    for _ in 0..SCANS {
        black_box(batch.query(&quadrant));
    }
    ((counting_alloc::allocations() - before) / SCANS, rows)
}

#[test]
fn a_warm_quadrant_scan_allocates_the_same_at_5k_and_20k_nodes() {
    assert!(counting_alloc::is_counting(), "counting allocator inactive");
    let (small, small_rows) = allocations_per_scan(5_000);
    let (large, large_rows) = allocations_per_scan(20_000);
    assert!(
        small_rows > 1_000 && large_rows > 4_000,
        "{small_rows} / {large_rows} rows"
    );
    assert_eq!(
        small, large,
        "allocations per warm quadrant scan: {small} at N = 5,000, {large} at N = 20,000"
    );
}
