//! Micro-benchmarks for the fault-injection hot paths.
//!
//! Three costs matter (see `FAULTS.md`):
//!
//! * parsing a `.fault` scenario file (cold, once per run);
//! * the per-round overhead of an attached-but-exhausted fault
//!   schedule — the price every deliver tick pays once a plan is
//!   loaded, which must stay negligible next to the delivery loop;
//! * a dense broadcast round under the Gilbert–Elliott bursty link
//!   model, the fault engine's replacement for i.i.d. loss (two RNG
//!   draws and a state update per directed link instead of one draw).

use snapshot_microbench::Criterion;
use snapshot_netsim::{
    EnergyModel, FaultPlan, GilbertElliott, LinkModel, Network, NodeId, Phase, Topology,
};
use std::hint::black_box;

const N: u32 = 100;

/// A representative scenario exercising every directive once plus a
/// sprinkle of repeats — roughly the size of `faults/demo.fault`.
const PLAN_TEXT: &str = "\
# demo scenario
5 crash 3
8 crash random
10 outage 7 for 6          # transient
12 outage random for 4
20 blackout 0.25 0.25 0.2
30 drain all x1.5
32 drain 9 x2.0
40 link iid 0.3
50 link burst 0.1 0.1 0.0 0.6
60 crash 11
70 outage 13 for 9
80 link iid 0.0
";

fn dense_network(link: LinkModel) -> Network<u64> {
    let topo = Topology::random_uniform(N as usize, std::f64::consts::SQRT_2, 7)
        .expect("valid deployment");
    Network::new(topo, link, EnergyModel::default(), 11)
}

fn round(net: &mut Network<u64>) -> usize {
    for i in 0..N {
        net.broadcast(NodeId(i), u64::from(i) * 3, 16, Phase::Data);
    }
    let delivered = net.deliver();
    net.drain(|_, _, mail| {
        black_box(mail.len());
    });
    delivered
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("fault_plan_parse", |b| {
        b.iter(|| black_box(FaultPlan::parse(black_box(PLAN_TEXT))))
    });
}

fn bench_schedule_overhead(c: &mut Criterion) {
    // All events fire in the warm-up round; the steady-state rounds
    // measure the residual cost of the fault branch in deliver().
    let mut net = dense_network(LinkModel::Perfect);
    net.set_fault_plan(FaultPlan::parse("0 drain all x1.0\n").expect("valid plan"));
    round(&mut net);
    c.bench_function("deliver_exhausted_fault_schedule_100", |b| {
        b.iter(|| black_box(round(&mut net)))
    });
}

fn bench_burst_link(c: &mut Criterion) {
    let params = GilbertElliott::with_average_loss(0.3, 0.1, 0.1);
    let mut net = dense_network(LinkModel::gilbert_elliott(N as usize, params));
    round(&mut net);
    c.bench_function("deliver_dense_burst30_100", |b| {
        b.iter(|| black_box(round(&mut net)))
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_parse(c);
    bench_schedule_overhead(c);
    bench_burst_link(c);
}
