//! Figures 14 and 15: the snapshot under periodic maintenance.
//!
//! Weather data split into 100 series of 5,000 values; the snapshot is
//! updated every 100 time units; between updates random queries run
//! and nodes snoop their neighbors' responses with probability 5%.
//! Figure 14 plots the snapshot size over time for transmission ranges
//! 0.2 and 0.7 (paper: fluctuating around ~70 and ~25 respectively);
//! Figure 15 plots the average number of messages per node per update
//! (paper: ~4.5 at range 0.7 and ~2 at range 0.2, under the bound of
//! six).

use crate::setup::WeatherSetup;
use crate::stats::{mean, rng};
use crate::table::{fmt, Table};
use crate::{ExperimentOutput, RunContext};
use snapshot_core::maintenance::SNOOP_PROB;
use snapshot_core::SpatialPredicate;
use snapshot_netsim::rng::RngExt;

/// One run's time series.
pub struct MaintenanceSeries {
    /// Transmission range of the run.
    pub range: f64,
    /// Snapshot size after each update.
    pub sizes: Vec<usize>,
    /// Messages per alive node during each update cycle.
    pub msgs_per_node: Vec<f64>,
}

/// Drive one full maintenance run at the given range.
pub fn simulate(ctx: &RunContext, range: f64) -> MaintenanceSeries {
    let window = if ctx.quick { 600 } else { 5000 };
    let update_every = 100;
    let snoop_queries_per_window = 8;

    let mut sn = WeatherSetup {
        window,
        range,
        threshold: 0.1,
        ..WeatherSetup::default()
    }
    .build(ctx.seed);
    let _ = sn.elect();

    let mut r = rng(ctx.seed ^ 0x5_0014);
    let mut sizes = Vec::new();
    let mut msgs = Vec::new();
    let mut t = 100;
    while t + update_every <= window {
        // Between updates: random queries, snooped at 5%.
        for q in 0..snoop_queries_per_window {
            sn.set_time(t + (q + 1) * update_every / (snoop_queries_per_window + 1));
            let x: f64 = r.random_f64();
            let y: f64 = r.random_f64();
            let pred = SpatialPredicate::window(x, y, 0.316);
            let participants = pred.targets(sn.net().topology());
            sn.snoop_step(Some(&participants), SNOOP_PROB);
        }
        t += update_every;
        sn.set_time(t);
        sn.net_mut().stats_mut().reset();
        let _ = sn.maintain();
        let alive = sn.net().alive_count().max(1);
        msgs.push(sn.stats().total_sent() as f64 / alive as f64);
        sizes.push(sn.snapshot_size());
    }
    MaintenanceSeries {
        range,
        sizes,
        msgs_per_node: msgs,
    }
}

fn series_pair(ctx: &RunContext) -> Vec<MaintenanceSeries> {
    let ranges = if ctx.quick { vec![0.7] } else { vec![0.2, 0.7] };
    ranges
        .into_iter()
        .map(|range| simulate(ctx, range))
        .collect()
}

/// Figure 14: snapshot size over time.
pub fn run_fig14(ctx: &RunContext) -> ExperimentOutput {
    let series = series_pair(ctx);
    let mut headers = vec!["update".to_owned()];
    headers.extend(series.iter().map(|s| format!("size @range={}", s.range)));
    let mut table = Table::new(headers);
    let updates = series.iter().map(|s| s.sizes.len()).max().unwrap_or(0);
    for u in 0..updates {
        let mut row = vec![format!("{}", (u + 1) * 100)];
        for s in &series {
            row.push(s.sizes.get(u).map_or(String::new(), |v| v.to_string()));
        }
        table.push(row);
    }
    ctx.write_csv("fig14.csv", &table.to_csv());

    let means: Vec<String> = series
        .iter()
        .map(|s| {
            let sizes: Vec<f64> = s.sizes.iter().map(|&v| v as f64).collect();
            format!("range {} -> mean size {:.1}", s.range, mean(&sizes))
        })
        .collect();

    ExperimentOutput {
        id: "fig14",
        title: "Snapshot size over time under maintenance (Figure 14)",
        rendered: table.render(),
        notes: format!(
            "{}\nPaper shape: the size fluctuates mildly around its mean — ~70 at range 0.2 \
             and ~25 at range 0.7.",
            means.join("; ")
        ),
    }
}

/// Figure 15: messages per node per update.
pub fn run_fig15(ctx: &RunContext) -> ExperimentOutput {
    let series = series_pair(ctx);
    let mut headers = vec!["update".to_owned()];
    headers.extend(
        series
            .iter()
            .map(|s| format!("msgs/node @range={}", s.range)),
    );
    let mut table = Table::new(headers);
    let updates = series
        .iter()
        .map(|s| s.msgs_per_node.len())
        .max()
        .unwrap_or(0);
    for u in 0..updates {
        let mut row = vec![format!("{}", (u + 1) * 100)];
        for s in &series {
            row.push(s.msgs_per_node.get(u).map_or(String::new(), |v| fmt(*v, 2)));
        }
        table.push(row);
    }
    ctx.write_csv("fig15.csv", &table.to_csv());

    let means: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "range {} -> mean {:.2} msgs/node",
                s.range,
                mean(&s.msgs_per_node)
            )
        })
        .collect();

    ExperimentOutput {
        id: "fig15",
        title: "Messages per node per maintenance update (Figure 15)",
        rendered: table.render(),
        notes: format!(
            "{}\nPaper shape: ~2 messages/node at range 0.2 and ~4.5 at range 0.7 — more \
             neighbors answer each invitation at the longer range — well under the bound of six.",
            means.join("; ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_series_have_matching_lengths() {
        let s = simulate(&RunContext::quick(43), 0.7);
        assert!(!s.sizes.is_empty());
        assert_eq!(s.sizes.len(), s.msgs_per_node.len());
    }

    #[test]
    fn messages_per_node_stay_bounded() {
        let s = simulate(&RunContext::quick(47), 0.7);
        for &m in &s.msgs_per_node {
            assert!(
                m <= 6.0,
                "messages per node {m} exceeded the paper's bound of six"
            );
        }
    }
}
