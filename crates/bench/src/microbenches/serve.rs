//! Macro-benchmark: the serving layer's per-tick costs on an elected
//! 100-node network — submission, a coalesced shared-scan tick, and a
//! cold-cache planning tick.

use crate::serve::TEMPLATES;
use crate::RandomWalkSetup;
use snapshot_core::SensorNetwork;
use snapshot_microbench::{BatchSize, Criterion};
use snapshot_query::serve::{QueryService, ServeConfig};
use snapshot_query::RegionCatalog;
use std::hint::black_box;

fn network() -> SensorNetwork {
    let mut sn = RandomWalkSetup {
        k: 5,
        range: 0.7,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let _ = sn.elect();
    sn
}

fn service() -> QueryService {
    QueryService::new(ServeConfig::default(), RegionCatalog::with_quadrants())
}

fn bench_serve(c: &mut Criterion) {
    let sn = network();

    c.bench_function("serve_submit_enqueue", |b| {
        b.iter_batched(
            service,
            |mut svc| {
                let r = svc.submit(&sn, 0, "SELECT AVG(value) FROM sensors USE SNAPSHOT");
                black_box((svc, r))
            },
            BatchSize::LargeInput,
        )
    });

    // Eight same-signature aggregates, warm plan cache: one tick runs
    // one scan and folds eight answers — the shared-scan saving.
    let mut warm = service();
    for _ in 0..8 {
        let _ = warm.submit(&sn, 0, "SELECT AVG(value) FROM sensors USE SNAPSHOT");
    }
    c.bench_function("serve_tick_coalesced_8", |b| {
        b.iter_batched(
            || (warm.clone(), sn.clone()),
            |(mut svc, mut sn)| {
                svc.tick(&mut sn);
                black_box((svc.take_completions(), svc, sn))
            },
            BatchSize::LargeInput,
        )
    });

    // Eight distinct templates, cold cache: the tick pays parsing +
    // planning + grouped scans.
    let mut cold = service();
    for (i, sql) in TEMPLATES.iter().take(8).enumerate() {
        let _ = cold.submit(&sn, i as u32, sql);
    }
    c.bench_function("serve_tick_cold_plan_8", |b| {
        b.iter_batched(
            || (cold.clone(), sn.clone()),
            |(mut svc, mut sn)| {
                svc.tick(&mut sn);
                black_box((svc.take_completions(), svc, sn))
            },
            BatchSize::LargeInput,
        )
    });
}

/// Run the suite.
pub fn benches(c: &mut Criterion) {
    bench_serve(c);
}
