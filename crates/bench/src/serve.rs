//! The serving-layer harness: a deterministic multi-tenant workload
//! driven through [`snapshot_query::serve::QueryService`], with the
//! PR-3 work-queue pool ([`crate::runner::parallel_map`]) planning
//! plan-cache misses in parallel.
//!
//! The workload is a pure function of the query index — a small pool
//! of repeated templates (one-shot aggregates, drill-throughs, and
//! `SAMPLE INTERVAL` subscriptions) spread round-robin over the
//! tenants — so the whole run is byte-identical across seeds, `--jobs`
//! values, and drain modes. Rejected submissions (backpressure) are
//! retried on the next tick; nothing is ever dropped, so the harness
//! "sustains" the full query count rather than shedding it.

// The bench crate does not opt in to the workspace lints; this module
// is on the parallel-experiment and serving paths, so it holds the
// library crates' panic-freedom policy itself.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::runner::parallel_map;
use snapshot_core::SensorNetwork;
use snapshot_query::serve::{plan_text, Completion, QueryService, ServeConfig, ServeStats};
use snapshot_query::RegionCatalog;

/// The repeated query templates. Deliberately few and deliberately
/// overlapping in scan signature: repeats exercise the plan cache
/// (hit rate ≈ 1 − pool/total) and same-signature aggregates exercise
/// shared-scan batching.
pub const TEMPLATES: &[&str] = &[
    "SELECT AVG(value) FROM sensors USE SNAPSHOT",
    "SELECT SUM(value) FROM sensors USE SNAPSHOT",
    "SELECT COUNT(value) FROM sensors USE SNAPSHOT",
    "SELECT MIN(value) FROM sensors USE SNAPSHOT",
    "SELECT MAX(value) FROM sensors USE SNAPSHOT",
    "SELECT AVG(value) FROM sensors WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
    "SELECT SUM(value) FROM sensors WHERE loc IN NORTH_EAST_QUADRANT USE SNAPSHOT",
    "SELECT loc, value FROM sensors WHERE loc IN SOUTH_WEST_QUADRANT USE SNAPSHOT",
    "SELECT AVG(value) FROM sensors WHERE value > 0 USE SNAPSHOT",
    "SELECT COUNT(value) FROM sensors WHERE loc IN NORTH_WEST_QUADRANT USE SNAPSHOT",
    "SELECT AVG(value) FROM sensors SAMPLE INTERVAL 2s FOR 6s USE SNAPSHOT",
    "SELECT MAX(value) FROM sensors SAMPLE INTERVAL 3s FOR 9s USE SNAPSHOT",
];

/// The i-th query of the workload (a pure function of `i`).
pub fn workload_sql(i: usize) -> &'static str {
    // A co-prime stride visits the pool in a fixed scrambled order so
    // consecutive submissions mix signatures and tenants.
    TEMPLATES[(i * 7 + 3) % TEMPLATES.len()]
}

/// The i-th query's tenant.
pub fn workload_tenant(i: usize, n_tenants: u32) -> u32 {
    (i as u32) % n_tenants.max(1)
}

/// Workload shape for one serving run.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Total queries to submit (all are eventually served).
    pub n_queries: usize,
    /// Tenants the queries are spread over.
    pub n_tenants: u32,
    /// Submission attempts per tick (the offered load).
    pub arrivals_per_tick: usize,
}

impl Default for ServeWorkload {
    fn default() -> Self {
        ServeWorkload {
            n_queries: 2000,
            n_tenants: 8,
            arrivals_per_tick: 400,
        }
    }
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Every completion, in completion order.
    pub completions: Vec<Completion>,
    /// The service's final counters.
    pub stats: ServeStats,
    /// Serving ticks from first submission to drained.
    pub ticks: u64,
    /// Peak in-flight (admitted, unfinished) queries observed.
    pub peak_in_flight: usize,
    /// The exported telemetry trace (empty when telemetry was off).
    pub trace: String,
}

impl ServeRun {
    /// Sorted first-result latencies in ticks (plan errors excluded).
    fn latencies(&self) -> Vec<u64> {
        let mut ls: Vec<u64> = self
            .completions
            .iter()
            .filter_map(Completion::latency_ticks)
            .collect();
        ls.sort_unstable();
        ls
    }

    /// Nearest-rank percentile of first-result latency, in ticks.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let ls = self.latencies();
        if ls.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * ls.len() as f64).ceil() as usize;
        ls[rank.clamp(1, ls.len()) - 1]
    }

    /// Worst first-result latency, in ticks.
    pub fn latency_max(&self) -> u64 {
        self.latencies().last().copied().unwrap_or(0)
    }

    /// Completed queries per second of simulated time (1 tick = 1 s).
    pub fn qps(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.completions.len() as f64 / self.ticks as f64
    }
}

/// Drive `workload` through a fresh [`QueryService`] on `sn` until
/// every query completes. Cache misses are batch-planned on the
/// work-queue pool; rejected submissions retry next tick.
pub fn run_serve(
    sn: &mut SensorNetwork,
    workload: &ServeWorkload,
    config: ServeConfig,
) -> ServeRun {
    let catalog = RegionCatalog::with_quadrants();
    let pool_catalog = catalog.clone();
    let mut svc = QueryService::new(config, catalog);

    let mut completions = Vec::with_capacity(workload.n_queries);
    let mut next = 0usize;
    let mut ticks = 0u64;
    let mut peak_in_flight = 0usize;
    // Generous cap: the workload must drain long before this, and a
    // service bug should fail a gate, not hang the harness.
    let max_ticks = 64 + 8 * workload.n_queries as u64;
    while next < workload.n_queries || !svc.idle() {
        for _ in 0..workload.arrivals_per_tick {
            if next >= workload.n_queries {
                break;
            }
            let tenant = workload_tenant(next, workload.n_tenants);
            match svc.submit(sn, tenant, workload_sql(next)) {
                Ok(_) => next += 1,
                // Head-of-line backpressure: stop offering load this
                // tick, retry the same query next tick.
                Err(_) => break,
            }
        }
        svc.tick_with(sn, |texts| {
            parallel_map(texts.len(), |i| plan_text(&texts[i], &pool_catalog))
        });
        peak_in_flight = peak_in_flight.max(svc.in_flight());
        completions.extend(svc.take_completions());
        sn.advance(1);
        ticks += 1;
        assert!(ticks < max_ticks, "serving run failed to drain");
    }

    ServeRun {
        completions,
        stats: svc.stats(),
        ticks,
        peak_in_flight,
        trace: sn.export_trace_jsonl(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::RandomWalkSetup;

    fn network(seed: u64) -> SensorNetwork {
        let mut sn = RandomWalkSetup {
            n_nodes: 40,
            k: 5,
            ..RandomWalkSetup::default()
        }
        .build(seed);
        let _ = sn.elect();
        sn
    }

    #[test]
    fn workload_is_pure_and_mixes_templates() {
        assert_eq!(workload_sql(5), workload_sql(5));
        let distinct: std::collections::BTreeSet<&str> = (0..100).map(workload_sql).collect();
        assert_eq!(distinct.len(), TEMPLATES.len());
    }

    #[test]
    fn run_serves_every_query_and_batches_scans() {
        let mut sn = network(3);
        let run = run_serve(
            &mut sn,
            &ServeWorkload {
                n_queries: 240,
                n_tenants: 4,
                arrivals_per_tick: 120,
            },
            ServeConfig::default(),
        );
        assert_eq!(run.completions.len(), 240);
        assert!(run.completions.iter().all(|c| c.error.is_none()));
        assert_eq!(run.stats.completed, 240);
        // Far fewer scans than query-epochs: batching is working.
        assert!(run.stats.scans < run.stats.epochs_served / 2);
        // The 12-template pool over 240 queries: 95 % hit rate.
        assert!(run.stats.hit_rate().unwrap_or(0.0) > 0.9);
        assert!(run.qps() > 0.0);
        assert!(run.latency_max() >= run.latency_percentile(50.0));
    }

    #[test]
    fn backpressure_retries_until_everything_is_served() {
        let mut sn = network(4);
        let run = run_serve(
            &mut sn,
            &ServeWorkload {
                n_queries: 100,
                n_tenants: 2,
                arrivals_per_tick: 100,
            },
            ServeConfig {
                queue_capacity: 8,
                fair_share: 4,
                ..ServeConfig::default()
            },
        );
        assert_eq!(run.completions.len(), 100, "retries must not drop work");
        assert!(run.stats.rejected > 0, "the tiny queue must overflow");
    }
}
