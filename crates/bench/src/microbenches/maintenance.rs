//! Macro-benchmarks for the maintenance-path operations: handoff
//! checks (the cheap high-frequency probe), reconciliation passes and
//! LEACH-style rotation.

use crate::RandomWalkSetup;
use snapshot_microbench::{BatchSize, Criterion};
use std::hint::black_box;

fn elected() -> snapshot_core::SensorNetwork {
    let mut sn = RandomWalkSetup {
        k: 5,
        range: 0.7,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let _ = sn.elect();
    sn
}

fn bench_maintenance_paths(c: &mut Criterion) {
    let base = elected();

    c.bench_function("handoff_check_100_nodes", |b| {
        b.iter_batched(
            || {
                let mut sn = base.clone();
                sn.set_energy_handoff_fraction(0.1);
                sn
            },
            |mut sn| black_box((sn.check_handoffs(), sn)),
            BatchSize::LargeInput,
        )
    });

    c.bench_function("reconcile_pass_100_nodes", |b| {
        b.iter_batched(
            || base.clone(),
            |mut sn| black_box((sn.reconcile(), sn)),
            BatchSize::LargeInput,
        )
    });

    c.bench_function("rotation_cycle_100_nodes", |b| {
        b.iter_batched(
            || base.clone(),
            |mut sn| black_box((sn.rotate(0.5), sn)),
            BatchSize::LargeInput,
        )
    });

    c.bench_function("snoop_step_100_nodes", |b| {
        b.iter_batched(
            || base.clone(),
            |mut sn| {
                sn.snoop_step(None, 0.05);
                black_box(sn)
            },
            BatchSize::LargeInput,
        )
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_maintenance_paths(c);
}
