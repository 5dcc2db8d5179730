//! Micro-benchmarks for the netsim delivery hot path: one dense
//! 100-node broadcast round (everyone in range of everyone, as in the
//! paper's √2-range deployments), perfect and lossy links. This is the
//! innermost loop under every experiment; the DESIGN.md §12 contract
//! says it performs **zero per-envelope heap allocations** with
//! telemetry off, which the counting allocator verifies every bench
//! run (`allocs_per_iter` must stay 0 in steady state).

use snapshot_microbench::Criterion;
use snapshot_netsim::{
    EnergyModel, LinkModel, Network, NodeId, Phase, SpanKind, Telemetry, Topology,
};
use std::hint::black_box;

const N: u32 = 100;

/// Rounds run before a dense bench is measured, as many as the
/// `zero_alloc_sweep` test warms.
const WARM_ROUNDS: usize = 30;

fn dense_network(link: LinkModel) -> Network<u64> {
    let topo = Topology::random_uniform(N as usize, std::f64::consts::SQRT_2, 7)
        .expect("valid deployment");
    Network::new(topo, link, EnergyModel::default(), 11)
}

/// One full round: every node broadcasts, the round is delivered, and
/// every inbox is drained back into a reused buffer.
fn round(net: &mut Network<u64>, buf: &mut Vec<snapshot_netsim::Delivery<u64>>) -> usize {
    for i in 0..N {
        net.broadcast(NodeId(i), u64::from(i) * 3, 16, Phase::Data);
    }
    let delivered = net.deliver();
    for i in 0..N {
        net.take_inbox_into(NodeId(i), buf);
        black_box(buf.len());
    }
    delivered
}

fn bench_deliver(c: &mut Criterion) {
    for (name, link) in [
        ("deliver_dense_broadcast_100", LinkModel::Perfect),
        ("deliver_dense_lossy30_100", LinkModel::iid_loss(0.3)),
    ] {
        let mut net = dense_network(link);
        let mut buf = Vec::new();
        // Warm until every inbox, the outbox and `buf` have grown to
        // steady-state capacity; after this the path must not touch
        // the heap at all. One round is enough under perfect links.
        // Under loss the per-round receive counts are random and
        // capacities circulate between `buf` and the inboxes, so a
        // later round can still outgrow one.
        for _ in 0..WARM_ROUNDS {
            round(&mut net, &mut buf);
        }
        c.bench_function(name, |b| b.iter(|| black_box(round(&mut net, &mut buf))));
    }
}

/// The disabled-telemetry span fast path: the round is wrapped in an
/// explicit `open_span`/`close_span` pair (and `deliver` itself opens
/// a `Deliver` span internally), all of which must collapse to the one
/// `enabled()` branch when telemetry is off. The 0-allocs/iter pin on
/// this bench is the profiler's "free when unused" guarantee.
fn bench_deliver_spans_disabled(c: &mut Criterion) {
    let mut net = dense_network(LinkModel::Perfect);
    let mut buf = Vec::new();
    round(&mut net, &mut buf);
    c.bench_function("deliver_spans_disabled_100", |b| {
        b.iter(|| {
            let span = net.open_span(SpanKind::Election);
            let delivered = round(&mut net, &mut buf);
            net.close_span(span);
            black_box(delivered)
        })
    });
}

/// The registry path: the `deliver_dense_broadcast_100` round with the
/// hub the end-to-end benchmark's traced rounds install (a metrics
/// registry and the wall clock). Every send folds an energy draw into
/// the registry, every delivery a hop latency, and the round's span
/// close a per-kind total; the 0-allocs/iter pin holds the registry's
/// fixed storage to updating in place once warm.
fn bench_deliver_registry(c: &mut Criterion) {
    let mut net = dense_network(LinkModel::Perfect);
    let mut telemetry = Telemetry::with_registry();
    telemetry.set_wall_clock(crate::wall_clock_ns);
    net.set_telemetry(telemetry);
    let mut buf = Vec::new();
    for _ in 0..WARM_ROUNDS {
        round(&mut net, &mut buf);
    }
    c.bench_function("deliver_registry_100", |b| {
        b.iter(|| black_box(round(&mut net, &mut buf)))
    });
}

/// A quiescent tick at scale: nobody sends, the wake-list is empty,
/// and a tick (deliver + wake-list drain) must cost O(active) = O(1),
/// not O(N) (DESIGN.md §16). The 1k/100k pair pins the claim two
/// ways: the gated baseline holds the 100k figure within an order of
/// magnitude of the 1k figure, and the counting allocator holds both
/// at 0 allocs/iter.
fn bench_deliver_quiescent(c: &mut Criterion) {
    for (name, n) in [
        ("deliver_quiescent_1k", 1_000),
        ("deliver_quiescent_100k", 100_000),
    ] {
        let topo = Topology::random_uniform(n, 0.004, 7).expect("valid deployment");
        let mut net: Network<u64> =
            Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 11);
        let mut ids = Vec::new();
        // Warm one tick so the scratch buffer reaches steady state.
        net.deliver();
        net.drain_candidates_into(&mut ids);
        c.bench_function(name, |b| {
            b.iter(|| {
                let delivered = net.deliver();
                net.drain_candidates_into(&mut ids);
                black_box((delivered, ids.len()))
            })
        });
    }
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_deliver(c);
    bench_deliver_spans_disabled(c);
    bench_deliver_registry(c);
    bench_deliver_quiescent(c);
}
