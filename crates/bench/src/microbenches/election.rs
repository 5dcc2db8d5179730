//! Macro-benchmarks on the paper's 100-node network: a full
//! representative election (training already done), a maintenance
//! cycle, and training ticks with the caches filling and full.

use crate::RandomWalkSetup;
use snapshot_microbench::{BatchSize, Criterion};
use std::hint::black_box;

fn bench_election(c: &mut Criterion) {
    let trained = RandomWalkSetup {
        k: 10,
        ..RandomWalkSetup::default()
    }
    .build(42);
    c.bench_function("full_election_100_nodes", |b| {
        b.iter_batched(
            || trained.clone(),
            |mut sn| black_box(sn.elect()),
            BatchSize::LargeInput,
        )
    });

    let mut elected = trained.clone();
    let _ = elected.elect();
    c.bench_function("maintenance_cycle_100_nodes", |b| {
        b.iter_batched(
            || elected.clone(),
            |mut sn| black_box(sn.maintain()),
            BatchSize::LargeInput,
        )
    });
}

fn bench_training(c: &mut Criterion) {
    c.bench_function("training_tick_100_nodes", |b| {
        b.iter_batched(
            || {
                RandomWalkSetup {
                    k: 10,
                    train_until: 0,
                    ..RandomWalkSetup::default()
                }
                .build(42)
            },
            |mut sn| {
                sn.set_time(0);
                sn.train(0, 1);
                black_box(sn.now())
            },
            BatchSize::LargeInput,
        )
    });
}

/// Tick 9 of the same deployment: 99 neighbours each fill a 256-pair
/// cache during tick 2, so from then on every heard pair takes the
/// full-cache path — reject, time-shift, or evict from a victim line.
fn bench_full_cache_training(c: &mut Criterion) {
    let trained = RandomWalkSetup {
        k: 10,
        train_until: 9,
        ..RandomWalkSetup::default()
    }
    .build(42);
    c.bench_function("training_tick_full_cache_100_nodes", |b| {
        b.iter_batched(
            || trained.clone(),
            |mut sn| {
                sn.set_time(9);
                sn.train(9, 10);
                black_box(sn.now())
            },
            BatchSize::LargeInput,
        )
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_election(c);
    bench_training(c);
    bench_full_cache_training(c);
}
