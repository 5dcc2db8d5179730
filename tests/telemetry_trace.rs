//! End-to-end telemetry checks: a fully-instrumented run on the
//! paper's 100-node deployment, recorded through the ring buffer,
//! exported as JSONL, parsed back, and replayed into summaries.

use snapshot_bench::experiments::trace::{
    record_election_trace, record_election_trace_with_plan, ELECTION_MSG_BUDGET,
};
use snapshot_bench::RandomWalkSetup;
use snapshot_queries::core::{
    Aggregate, QueryMode, SensorNetwork, SnapshotConfig, SnapshotQuery, SpatialPredicate,
};
use snapshot_queries::datagen::{random_walk, RandomWalkConfig};
use snapshot_queries::netsim::telemetry::{jsonl, Event, Phase, TraceSummary};
use snapshot_queries::netsim::{EnergyModel, FaultPlan, LinkModel, NodeId, Topology};
use snapshot_queries::store::format::crc32;

#[test]
fn recorded_traces_are_byte_identical_across_identical_seeds() {
    let a = record_election_trace(42, 100);
    let b = record_election_trace(42, 100);
    assert_eq!(a, b, "identical seeds must record identical traces");
    let c = record_election_trace(43, 100);
    assert_ne!(a, c, "different seeds should not collide");
}

/// The golden traces, pinned across commits by their CRC-32: the
/// canonical run at seed 1, the same run under `faults/demo.fault`
/// (crashes, outages, a blackout, i.i.d. and burst loss), and
/// [`record_maintenance_paths_trace`]. A change that alters a trace on
/// purpose updates these constants and says why in CHANGES.md; any
/// other change must leave them as they are.
#[test]
fn golden_traces_keep_their_digests() {
    let plain = record_election_trace(1, 100);
    let plan = FaultPlan::parse(include_str!("../faults/demo.fault")).expect("demo parses");
    let faulted = record_election_trace_with_plan(1, 100, Some(&plan));
    let (maintained, checked, rotated) = record_maintenance_paths_trace(1);
    let digest = |trace: &str| (crc32(trace.as_bytes()), trace.len());
    assert_eq!(digest(&plain), (0x2c6f_1296, 292_846), "seed 1 trace");
    assert_eq!(
        digest(&faulted),
        (0xdb8a_a0db, 335_058),
        "seed 1 trace under demo.fault"
    );
    assert!(checked > 0, "the handoff check stepped nobody down");
    assert!(rotated > 0, "the rotation stepped nobody down");
    assert_eq!(
        digest(&maintained),
        (0xf63a_ea1a, 1_067_321),
        "seed 1 maintenance-path trace"
    );
}

/// Finite batteries, two representatives drained below the handoff
/// fraction, then a handoff check, a rotation, a reconciliation pass
/// and a TAG query under 10 % loss. Returns the trace and the
/// `HandoffTriggered` events the check and the rotation recorded.
fn record_maintenance_paths_trace(seed: u64) -> (String, usize, usize) {
    let mut sn = RandomWalkSetup {
        k: 10,
        range: 0.7,
        p_loss: 0.1,
        ..RandomWalkSetup::default()
    }
    .build_with_batteries(seed, 200.0);
    sn.set_energy_handoff_fraction(0.5);
    sn.train(0, 10);
    sn.set_time(99);
    sn.enable_telemetry(1 << 20);
    let _ = sn.elect();

    let loaded: Vec<NodeId> = sn
        .snapshot()
        .representatives()
        .into_iter()
        .filter(|&r| sn.nodes()[r.index()].member_count() > 0)
        .take(2)
        .collect();
    for rep in loaded {
        sn.net_mut().charge(rep, 100.0, Phase::Test);
    }
    let check_from = sn.net().round();
    let _ = sn.check_handoffs();
    let rotate_from = sn.net().round();
    let _ = sn.rotate(0.5);
    let rotate_to = sn.net().round();
    let _ = sn.reconcile();
    let pred = SpatialPredicate::window(0.5, 0.5, 0.5);
    sn.query_tag(
        &SnapshotQuery::aggregate(pred, Aggregate::Avg, QueryMode::Regular),
        NodeId(0),
    )
    .expect("an aggregate query runs as TAG");

    let ring = sn.net().telemetry().ring().expect("ring attached");
    assert_eq!(ring.dropped(), 0, "the ring wrapped; widen it");
    let trace = sn.export_trace_jsonl();
    let events = jsonl::parse(&trace).expect("self-recorded trace parses");
    let handoffs = |ticks: std::ops::Range<u64>| {
        let stepped =
            |e: &&Event| matches!(e, Event::HandoffTriggered { tick, .. } if ticks.contains(tick));
        events.iter().filter(stepped).count()
    };
    let checked = handoffs(check_from..rotate_from);
    (trace, checked, handoffs(rotate_from..rotate_to))
}

#[test]
fn recorded_election_respects_the_papers_message_bound() {
    let text = record_election_trace(7, 100);
    let events = jsonl::parse(&text).expect("self-recorded trace parses");
    let summary = TraceSummary::from_events(&events);

    // The run performs a discovery election and a maintenance cycle's
    // re-elections; each segment must respect the per-node budget.
    assert!(!summary.elections.is_empty(), "no election was recorded");
    let violations = summary.election_message_violations(ELECTION_MSG_BUDGET);
    assert!(
        violations.is_empty(),
        "nodes exceeded the {ELECTION_MSG_BUDGET}-message election bound: {violations:?}"
    );

    // Phase activity sanity: the election phases actually transmitted,
    // and all query spans closed (two direct/snapshot probes plus the
    // SQL round that exercises the planner/executor spans).
    for phase in [Phase::Invitation, Phase::Candidates, Phase::Accept] {
        assert!(
            summary.phase_sent(phase) > 0,
            "no {phase} messages in the trace"
        );
    }
    assert_eq!(summary.queries.len(), 3);
    assert!(summary.queries.iter().all(|q| q.end_tick.is_some()));
}

#[test]
fn jsonl_round_trips_through_parse_and_rewrite() {
    let text = record_election_trace(11, 30);
    let events = jsonl::parse(&text).expect("trace parses");
    assert_eq!(
        jsonl::write_events(&events),
        text,
        "parse -> rewrite must reproduce the exported trace byte-for-byte"
    );
}

/// Per-node × per-phase message counts are kept twice: by `NetStats`,
/// the ledger, and by `TraceSummary` replaying the recorded events, the
/// one reader that has no `NetStats`. The metrics registry keeps only
/// network-wide `msg_sent` and `msg_dropped` counters. Over one whole
/// run — training, election, maintenance under loss with a crashed
/// representative, and live queries — all of them must agree.
///
/// Losses are compared per phase, not per node: the replay charges a
/// lost delivery to its sender, `NetStats` to the receiver that missed
/// it.
#[test]
fn net_stats_registry_and_replayed_trace_keep_the_same_ledger() {
    let (seed, n) = (7, 100);
    // The deployment `record_election_trace` builds, with telemetry
    // attached before training so all three ledgers start at zero.
    let data = random_walk(&RandomWalkConfig {
        n_nodes: n,
        steps: 100,
        ..RandomWalkConfig::paper_defaults(10, seed)
    })
    .expect("valid random-walk configuration");
    let topo =
        Topology::random_uniform(n, std::f64::consts::SQRT_2, seed).expect("valid deployment");
    let mut sn = SensorNetwork::new(
        topo,
        LinkModel::iid_loss(0.0),
        EnergyModel::default(),
        SnapshotConfig::paper(1.0, 2048, seed),
        data.trace,
    );
    sn.enable_telemetry(1 << 20);
    sn.train(0, 10);
    sn.set_time(99);
    let _ = sn.elect();

    // Maintenance under 10 % loss, with one representative (not the
    // sink) crashed.
    let sink = NodeId(0);
    sn.net_mut().set_link_model(LinkModel::iid_loss(0.1));
    let rep = sn
        .snapshot()
        .representatives()
        .into_iter()
        .find(|&r| r != sink)
        .expect("the election picked a representative besides the sink");
    sn.kill_representative(rep);
    sn.advance(1);
    let _ = sn.maintain();
    let pred = SpatialPredicate::window(0.5, 0.5, 0.5);
    for mode in [QueryMode::Regular, QueryMode::Snapshot] {
        let _ = sn.query(&SnapshotQuery::aggregate(pred, Aggregate::Avg, mode), sink);
    }

    let telemetry = sn.net().telemetry();
    let ring = telemetry.ring().expect("ring attached");
    assert_eq!(ring.dropped(), 0, "the ring wrapped; widen it");
    let replayed = TraceSummary::from_events(&ring.events());
    let registry = telemetry.registry().expect("registry attached");
    let stats = sn.stats();
    let (mut sent_total, mut lost_total) = (0, 0);
    for phase in Phase::ALL {
        // Query charges are counted by `NetStats::record_send` alone:
        // the executor emits no `MsgSent` for them, so the registry
        // and the replay read 0 there.
        if phase == Phase::Query {
            continue;
        }
        for node in 0..n as u32 {
            assert_eq!(
                replayed.sent.get(node, phase),
                stats.sent_in_phase(NodeId(node), phase),
                "replay, node {node}, {phase}"
            );
        }
        let lost = stats.phase_lost_total(phase);
        assert_eq!(replayed.phase_lost(phase), lost, "replayed losses, {phase}");
        sent_total += stats.phase_total(phase);
        lost_total += lost;
    }
    assert_eq!(registry.counter("msg_sent"), sent_total, "registry sends");
    assert_eq!(
        registry.counter("msg_dropped"),
        lost_total,
        "registry losses"
    );
    // The run sent in training, election and maintenance, lost
    // deliveries, and charged queries.
    for phase in [Phase::Data, Phase::Invitation, Phase::Heartbeat] {
        assert!(stats.phase_total(phase) > 0, "no {phase} messages");
    }
    assert!(stats.total_lost() > 0, "no losses to compare");
    assert!(stats.phase_total(Phase::Query) > 0, "no query charges");
}
