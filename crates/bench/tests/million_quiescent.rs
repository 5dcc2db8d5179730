//! The event-driven core's headline claim (DESIGN.md §16), gated in
//! CI: a **one-million-node** network is affordable to hold quiescent.
//! Idle ticks cost O(active) = O(1) — the wake-list is empty, the
//! timer queue peek is O(1), and nothing scans the node table — so ten
//! thousand idle ticks at N=1M must finish in well under a second.
//!
//! Release-only: the point is the wall-clock bound, and a debug build
//! of the 1M construction alone would dominate the suite (the same
//! code paths run at smaller N in the `quiescent/*` cases of
//! `zero_alloc_sweep.rs`).

// Wall-clock readings here measure the *host build*, not simulated
// protocol time, which is exactly what a performance gate wants.
#![allow(clippy::disallowed_methods)]
#![cfg(not(debug_assertions))]

use snapshot_netsim::{EnergyModel, LinkModel, Network, NodeId, Phase, Topology};

#[test]
fn million_node_network_holds_quiescent_in_constant_time() {
    const N: usize = 1_000_000;
    const IDLE_TICKS: u64 = 10_000;

    // A sparse deployment: the quiescent claim is topology-independent,
    // so keep the build cheap (mean degree ~3) and guard it loosely.
    let t0 = std::time::Instant::now();
    let topo = Topology::random_uniform(N, 0.001, 7).expect("valid deployment");
    let build = t0.elapsed();
    assert_eq!(topo.len(), N);
    assert!(
        build.as_secs_f64() < 30.0,
        "1M-node build took {build:?} (budget 30s in release)"
    );

    let mut net: Network<u64> = Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 11);

    // Prove the active path works at this size: one broadcast wakes
    // the sender's neighborhood and only that neighborhood drains.
    net.broadcast(NodeId(0), 1, 16, Phase::Data);
    net.deliver();
    let mut visited = 0;
    net.drain(|_, _, _| visited += 1);
    assert!(visited > 0, "a 1M-node broadcast reached nobody");
    assert!(
        visited < 100,
        "wake-list held {visited} nodes after one sparse broadcast"
    );

    // The gate: ten thousand idle ticks, zero fresh wakes, well under
    // a second of wall time even on a noisy shared runner. (An O(N)
    // per-tick scan would touch 10^10 node slots here — minutes.)
    let woken_before = net.stats().woken_total();
    let mut visited = 0;
    let t1 = std::time::Instant::now();
    for _ in 0..IDLE_TICKS {
        net.deliver();
        net.drain(|_, _, _| visited += 1);
    }
    let idle = t1.elapsed();
    assert_eq!(
        net.stats().woken_total() - woken_before,
        0,
        "idle ticks registered fresh wakes"
    );
    assert_eq!(visited, 0, "idle ticks produced drain candidates");
    assert!(
        idle.as_secs_f64() < 1.0,
        "{IDLE_TICKS} quiescent ticks at N=1M took {idle:?} (budget 1s in release)"
    );
}
