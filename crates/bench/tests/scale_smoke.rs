//! The `scale` smoke gate: the grid-indexed topology must build a
//! 10k-node network quickly, survive mobility ticks without heap
//! churn, and agree with the brute-force oracle on sampled
//! neighborhoods. The counting global allocator observes every
//! allocation in the process, so the allocation assertion lives in
//! this dedicated file (one global-allocator test binary per claim,
//! as in `zero_alloc_sweep.rs`).
//!
//! Timing assertions only run in release builds (`cargo test
//! --release -p snapshot-bench --test scale_smoke`, the CI step);
//! debug builds still exercise the same code paths for correctness.

// Wall-clock readings here measure the *host build*, not simulated
// protocol time, which is exactly what a performance gate wants.
#![allow(clippy::disallowed_methods)]

use snapshot_bench::experiments::scale::connectivity_range;
use snapshot_microbench::counting_alloc::{self, CountingAllocator};
use snapshot_netsim::{EnergyModel, LinkModel, Network, NodeId, RandomWaypoint, Topology};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Held for the whole of each test. The allocation counter is
/// process-wide and `cargo test` runs tests on parallel threads, so
/// without it the 100k build's allocations land in the 10k test's
/// measuring window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A poisoned lock only means the other test failed; `()` holds no
    // state it could have left half-updated.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Assert that `id`'s neighbor list matches a brute-force scan of
/// every node — the same oracle predicate the property suite uses,
/// sampled here because the full N² sweep at 10k nodes is the very
/// cost the grid removed.
fn assert_matches_oracle(topo: &Topology, id: NodeId) {
    let p = topo.position(id);
    let mut expect: Vec<NodeId> = topo
        .node_ids()
        .filter(|&j| j != id && p.distance(&topo.position(j)) <= topo.range())
        .collect();
    expect.sort_unstable();
    let mut got = topo.neighbors(id).to_vec();
    got.sort_unstable();
    assert_eq!(got, expect, "grid neighbors diverge from oracle for {id}");
}

#[test]
fn ten_k_nodes_build_and_tick_without_heap_churn() {
    let _serial = serial();
    const N: usize = 10_000;
    let range = connectivity_range(N);

    let t0 = std::time::Instant::now();
    let topo = Topology::random_uniform(N, range, 7).expect("valid deployment");
    let build_time = t0.elapsed();

    assert_eq!(topo.len(), N);
    assert!(topo.mean_degree() > 1.0, "degenerate deployment");
    for id in [0u32, 137, 4_999, 9_999] {
        assert_matches_oracle(&topo, NodeId(id));
    }

    let mut net: Network<u64> = Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 11);
    let mut mob = RandomWaypoint::new(N, 0.01, 5);

    // Warm tick: neighbor lists, grid buckets and the candidate
    // scratch buffer grow to steady-state capacity.
    mob.step(&mut net);

    let before = counting_alloc::allocations();
    let mut moved = 0;
    for _ in 0..5 {
        moved += mob.step(&mut net);
    }
    let allocs = counting_alloc::allocations() - before;
    assert_eq!(moved, 5 * N, "every alive node moves each tick");

    // Incremental updates reuse capacity; the residual is waypoint
    // re-rolls and the occasional neighbor-list or bucket growth as
    // nodes drift into denser cells — nothing proportional to N per
    // tick. (The old implementation re-scanned all 10k nodes per
    // *move*, i.e. 500M distance checks for these 5 ticks.)
    assert!(
        allocs < N as u64 / 2,
        "5 mobility ticks at N=10k allocated {allocs} times — incremental update regressed"
    );

    // Post-mobility: the incrementally maintained lists still agree
    // with the oracle.
    for id in [3u32, 2_500, 7_777] {
        assert_matches_oracle(net.topology(), NodeId(id));
    }

    #[cfg(not(debug_assertions))]
    assert!(
        build_time.as_millis() < 500,
        "10k-node build took {build_time:?} (budget 500ms in release)"
    );
    #[cfg(debug_assertions)]
    let _ = build_time;
}

#[cfg(not(debug_assertions))]
#[test]
fn hundred_k_nodes_build_under_two_seconds_in_release() {
    // The ISSUE's acceptance criterion, verbatim: `Topology::new` at
    // N=100k completes in < 2s in release mode. (The retired all-pairs
    // scan needed ~10^10 distance checks here — minutes, not seconds.)
    let _serial = serial();
    const N: usize = 100_000;
    let t0 = std::time::Instant::now();
    let topo = Topology::random_uniform(N, connectivity_range(N), 7).expect("valid deployment");
    let elapsed = t0.elapsed();
    assert_eq!(topo.len(), N);
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "100k-node build took {elapsed:?} (acceptance budget: 2s)"
    );
    for id in [0u32, 50_000, 99_999] {
        assert_matches_oracle(&topo, NodeId(id));
    }
}
