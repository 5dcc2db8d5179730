//! `trace` experiment: record a fully-instrumented protocol run and
//! export it as a JSON-lines event trace.
//!
//! The workload is the canonical Section 6.1 deployment driven through
//! the whole protocol surface — discovery election, one maintenance
//! cycle, and a regular/snapshot query pair — with the telemetry ring
//! and metrics registry switched on. The artifact
//! (`trace_election.jsonl`) is the input to the `snapshot-trace`
//! inspection binary, which replays it into per-phase message, energy
//! and election summaries and can assert the paper's per-node message
//! bound.

use crate::setup::RandomWalkSetup;
use crate::{ExperimentOutput, RunContext};
use snapshot_core::{Aggregate, QueryMode, SensorNetwork, SnapshotQuery, SpatialPredicate};
use snapshot_netsim::{FaultPlan, NodeId};
use snapshot_query::{execute_plan, executor::plan_traced, parse, RegionCatalog};
use snapshot_telemetry::{jsonl, TraceSummary};

/// Ring capacity for recorded runs: large enough that the 100-node
/// workload never wraps (a full election on 100 nodes emits a few
/// thousand events; training is not traced).
pub const RING_CAPACITY: usize = 1 << 17;

/// The paper's per-node election message bound checked by
/// `snapshot-trace --assert` (Table 2's nominal five plus the one
/// legitimate refinement-cascade corner).
pub const ELECTION_MSG_BUDGET: u64 = 6;

/// Record one instrumented run and return the exported JSONL trace.
///
/// Deterministic in `seed`: identical seeds produce byte-identical
/// traces (the integration tests assert this).
pub fn record_election_trace(seed: u64, n_nodes: usize) -> String {
    record_election_trace_with_plan(seed, n_nodes, None)
}

/// Like [`record_election_trace`], but with an optional fault
/// timeline attached before the protocol runs — `--fault-plan`
/// injections then show up as `fault_injected` / `node_recovered` /
/// `link_state` events in the artifact.
pub fn record_election_trace_with_plan(
    seed: u64,
    n_nodes: usize,
    plan: Option<&FaultPlan>,
) -> String {
    record_instrumented_run(seed, n_nodes, plan).export_trace_jsonl()
}

/// Run the instrumented workload and hand back the whole network, so
/// callers can read the live metrics registry (hop-latency histogram,
/// span counters) in addition to exporting the event trace.
fn record_instrumented_run(seed: u64, n_nodes: usize, plan: Option<&FaultPlan>) -> SensorNetwork {
    let mut sn = RandomWalkSetup {
        n_nodes,
        k: 10,
        ..RandomWalkSetup::default()
    }
    .build(seed);
    sn.enable_telemetry(RING_CAPACITY);
    if let Some(p) = plan {
        sn.net_mut().set_fault_plan(p.clone());
    }
    let _ = sn.elect();
    sn.advance(1);
    let _ = sn.maintain();
    let pred = SpatialPredicate::window(0.5, 0.5, 0.5);
    let sink = NodeId(0);
    let _ = sn.query(
        &SnapshotQuery::aggregate(pred, Aggregate::Avg, QueryMode::Regular),
        sink,
    );
    let _ = sn.query(
        &SnapshotQuery::aggregate(pred, Aggregate::Avg, QueryMode::Snapshot),
        sink,
    );
    // One SQL round through the front end, so the artifact carries
    // `query_plan` / `query_exec` spans alongside the core `query`
    // span (the causal chain the profiler report groups by).
    let q = parse("SELECT AVG(value) FROM sensors USE SNAPSHOT").expect("canonical SQL parses");
    let qp =
        plan_traced(&mut sn, &q, &RegionCatalog::with_quadrants()).expect("canonical SQL plans");
    let _ = execute_plan(&mut sn, &qp, sink);
    sn
}

/// Run the experiment.
pub fn run(ctx: &RunContext) -> ExperimentOutput {
    let n_nodes = if ctx.quick { 40 } else { 100 };
    let sn = record_instrumented_run(ctx.seed, n_nodes, ctx.fault_plan.as_ref());
    let jsonl_text = sn.export_trace_jsonl();
    let events = jsonl::parse(&jsonl_text).expect("self-produced trace must parse");
    let summary = TraceSummary::from_events(&events);
    let violations = summary.election_message_violations(ELECTION_MSG_BUDGET);

    // The per-hop latency histogram lives only in the live registry
    // (it is an aggregate, not an event), so render it here rather
    // than from the replayed trace.
    let mut rendered = summary.render();
    if let Some(h) = sn
        .net()
        .telemetry()
        .registry()
        .map(|r| r.hop_latency())
        .filter(|h| h.total() > 0)
    {
        rendered.push_str(&format!(
            "\nper-hop message latency (ticks): {} hops, p50 {} p90 {} p99 {} max {}\n",
            h.total(),
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.90).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max_bound().unwrap_or(0),
        ));
    }

    ctx.write_csv("trace_election.jsonl", &jsonl_text);

    let notes = if violations.is_empty() {
        format!(
            "Recorded {} events over {} lines; every node stayed within the paper's \
             {ELECTION_MSG_BUDGET}-message election bound. Inspect with \
             `snapshot-trace trace_election.jsonl` or gate with `--assert`.",
            events.len(),
            jsonl_text.lines().count(),
        )
    } else {
        format!(
            "WARNING: {} node(s) exceeded the {ELECTION_MSG_BUDGET}-message election bound — \
             investigate: {violations:?}",
            violations.len(),
        )
    };

    ExperimentOutput {
        id: "trace",
        title: "Recorded protocol trace (telemetry ring -> JSONL)",
        rendered,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_trace_parses_and_holds_the_election_bound() {
        let jsonl_text = record_election_trace(5, 30);
        let events = jsonl::parse(&jsonl_text).expect("trace parses");
        assert!(!events.is_empty());
        let summary = TraceSummary::from_events(&events);
        assert!(!summary.elections.is_empty(), "election was not segmented");
        assert!(summary
            .election_message_violations(ELECTION_MSG_BUDGET)
            .is_empty());
    }

    #[test]
    fn identical_seeds_record_identical_traces() {
        assert_eq!(record_election_trace(9, 25), record_election_trace(9, 25));
    }
}
