//! Micro-benchmark: the snapshot store's codec and file paths — the
//! costs behind the `store_write` / `store_rebuild` spans — and the
//! time-travel read, cold (the version's query image not yet built)
//! and warm. A checkpoint is written as a keyframe or as a delta
//! against the one before; the `_delta` rows time the delta paths. The
//! `_history` rows time what a restart pays around the store on e2e's
//! history deployment: the clone of the pristine deployment, and
//! `restore_checkpoint` onto it.

use crate::RandomWalkSetup;
use snapshot_core::{
    Aggregate, CheckpointState, QueryMode, SensorNetwork, SnapshotQuery, SpatialPredicate,
};
use snapshot_microbench::{BatchSize, Criterion};
use snapshot_netsim::NodeId;
use snapshot_store::format::{self, KEYFRAME_INTERVAL};
use snapshot_store::SnapshotStore;
use std::hint::black_box;

fn checkpoint() -> CheckpointState {
    let mut sn = RandomWalkSetup {
        n_nodes: 60,
        k: 5,
        range: 0.7,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let _ = sn.elect();
    sn.checkpoint()
}

/// `cp` `k` ticks later, with every value moved: what a values-only
/// delta holds.
fn later(cp: &CheckpointState, k: u64) -> CheckpointState {
    let mut next = cp.clone();
    next.tick += k;
    for v in &mut next.values {
        *v += 0.25 * k as f64;
    }
    next
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("snapshot_store_bench");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn bench_store(c: &mut Criterion) {
    let cp = checkpoint();
    let encoded = format::encode_checkpoint(1, &cp);

    c.bench_function("store_checkpoint_encode", |b| {
        b.iter(|| black_box(format::encode_checkpoint(1, black_box(&cp))))
    });

    let lines: Vec<(u64, &str)> = encoded
        .lines()
        .enumerate()
        // Drop the sealing `end` line, as the store does before decode.
        .filter(|(_, l)| !l.starts_with("end "))
        .map(|(i, l)| (i as u64 + 1, l))
        .collect();
    c.bench_function("store_checkpoint_decode", |b| {
        b.iter(|| black_box(format::decode_checkpoint(black_box(&lines)).unwrap()))
    });

    c.bench_function("store_append_checkpoint", |b| {
        b.iter_batched(
            || SnapshotStore::create(scratch("append.store")).unwrap(),
            |mut store| {
                store.append_checkpoint(&cp).unwrap();
                black_box(store)
            },
            BatchSize::LargeInput,
        )
    });

    let next = later(&cp, 1);
    c.bench_function("store_append_delta", |b| {
        b.iter_batched(
            || {
                let mut store = SnapshotStore::create(scratch("append_delta.store")).unwrap();
                store.append_checkpoint(&cp).unwrap();
                store
            },
            |mut store| {
                store.append_checkpoint(&next).unwrap();
                black_box(store)
            },
            BatchSize::LargeInput,
        )
    });

    // One keyframe and three deltas.
    let mut store = SnapshotStore::create(scratch("rebuild.store")).unwrap();
    for _ in 0..4 {
        store.append_checkpoint(&cp).unwrap();
    }
    c.bench_function("store_rebuild_4", |b| {
        b.iter(|| black_box(store.rebuild(scratch("rebuild.out")).unwrap()))
    });

    // One `AS OF` answer: the lookup plus a snapshot AVG on the image.
    let query =
        SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Snapshot);
    let as_of = |store: &SnapshotStore| {
        let (_, image) = store.checkpoint_as_of(black_box(cp.tick)).unwrap();
        image.execute(&query, NodeId(0)).unwrap()
    };
    let path = scratch("as_of.store");
    let mut store = SnapshotStore::create(&path).unwrap();
    store.append_checkpoint(&cp).unwrap();
    c.bench_function("store_as_of_cold", |b| {
        b.iter(|| black_box(as_of(&SnapshotStore::open(&path).unwrap())))
    });
    as_of(&store); // builds the version's image
    c.bench_function("store_as_of_warm", |b| b.iter(|| black_box(as_of(&store))));

    // The first `AS OF` of the last version in a whole chain: a
    // keyframe and `KEYFRAME_INTERVAL - 1` values-only deltas.
    let path = scratch("as_of_delta.store");
    let mut store = SnapshotStore::create(&path).unwrap();
    let chain: Vec<CheckpointState> = (0..KEYFRAME_INTERVAL as u64)
        .map(|k| later(&cp, k))
        .collect();
    for state in &chain {
        store.append_checkpoint(state).unwrap();
    }
    let last_tick = chain.last().map_or(cp.tick, |state| state.tick);
    c.bench_function("store_as_of_cold_delta", |b| {
        b.iter(|| {
            let store = SnapshotStore::open(&path).unwrap();
            let (_, image) = store.checkpoint_as_of(black_box(last_tick)).unwrap();
            black_box(image.execute(&query, NodeId(0)).unwrap())
        })
    });
}

/// e2e's history deployment: 500 nodes at range 0.1, K = 5, trained
/// for 10 ticks and elected at tick 20.
fn history_deployment() -> SensorNetwork {
    let mut sn = RandomWalkSetup {
        n_nodes: 500,
        k: 5,
        range: 0.1,
        steps: 200,
        elect_at: 20,
        ..RandomWalkSetup::default()
    }
    .build(2005);
    let _ = sn.elect();
    sn
}

fn bench_restart(c: &mut Criterion) {
    let sn = history_deployment();
    c.bench_function("deployment_clone_history", |b| {
        b.iter(|| black_box(sn.clone()))
    });
    let cp = sn.checkpoint();
    c.bench_function("restore_checkpoint_history", |b| {
        b.iter_batched(
            || sn.clone(),
            |mut sn| {
                sn.restore_checkpoint(&cp).unwrap();
                black_box(sn)
            },
            BatchSize::LargeInput,
        )
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_store(c);
    bench_restart(c);
}
