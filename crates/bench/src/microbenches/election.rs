//! Macro-benchmarks on the paper's 100-node network: a full
//! representative election (training already done), a maintenance
//! cycle, and training ticks with the caches filling and full; plus a
//! maintenance cycle at 1,000 nodes on a lossy, sparse deployment.

use crate::RandomWalkSetup;
use snapshot_microbench::{BatchSize, Criterion};
use snapshot_netsim::NodeId;
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
            |mut sn| black_box((sn.elect(), sn)),
            BatchSize::LargeInput,
        )
    });

    let mut elected = trained.clone();
    let _ = elected.elect();
    c.bench_function("maintenance_cycle_100_nodes", |b| {
        b.iter_batched(
            || elected.clone(),
            |mut sn| black_box((sn.maintain(), sn)),
            BatchSize::LargeInput,
        )
    });
}

/// One maintenance cycle where the re-elections do real work: 1,000
/// nodes at the connectivity-threshold range (mean degree ≈ 2 ln n,
/// as on e2e's deploy-churn), 5 % i.i.d. loss, trained and elected,
/// then one tick on with 1 % of the representatives killed. The 100-node
/// cycle above runs on a calm, lossless network.
fn bench_lossy_maintenance(c: &mut Criterion) {
    let n = 1_000;
    let mut sn = RandomWalkSetup {
        n_nodes: n,
        k: 10,
        range: (2.0 * (n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt(),
        p_loss: 0.05,
        steps: 60,
        elect_at: 20,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let _ = sn.elect();
    sn.advance(1);
    let snap = sn.snapshot();
    let reps: Vec<NodeId> = snap
        .representatives()
        .into_iter()
        .filter(|&id| sn.net().is_alive(id) && !snap.members_of(id).is_empty())
        .collect();
    for &rep in reps.iter().step_by(100) {
        sn.kill_representative(rep);
    }
    c.bench_function("maintenance_cycle_1k_lossy", |b| {
        b.iter_batched(
            || sn.clone(),
            |mut sn| black_box((sn.maintain(), sn)),
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
                black_box(sn)
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
                black_box(sn)
            },
            BatchSize::LargeInput,
        )
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_election(c);
    bench_lossy_maintenance(c);
    bench_training(c);
    bench_full_cache_training(c);
}
