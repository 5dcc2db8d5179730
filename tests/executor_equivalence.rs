//! Equivalence suite for the live query executor.
//!
//! `SensorNetwork::query` enumerates its targets through the grid
//! index, reuses the network's cached BFS aggregation tree, finds
//! participants in one marking walk and reads each node's mode and
//! representative straight from its protocol state. This suite holds
//! it to a reference executor written the direct way: every node
//! tested against the predicate, a fresh BFS tree per query, a
//! reconciled [`Snapshot`], one [`AggregationTree::path_to_sink`] per
//! responder and ordered sets.
//!
//! Random deployments (perfect and lossy links, some with finite
//! batteries) answer a random mix of queries, and between queries the
//! network changes: a kill, a revival (alone or with a crash in the
//! same fault tick), a move, a battery drained flat, or a maintenance
//! cycle. Every answer must be bit-identical to the reference, the
//! nodes charged for it must be exactly the reference participants,
//! and the cached tree must be gone after every change that could
//! make it stale.
//!
//! Between those changes the sweep also runs batches of 2–8 random
//! queries through one [`ScanBatch`](snapshot_queries::core::ScanBatch),
//! which shares per-node readings across its scans, and the same
//! queries one by one through `query` on a clone. Answers, per-node
//! energy and sends, the query-phase total and the telemetry trace
//! must be equal. The battery cells drain nodes with query charges in
//! the middle of a batch, which must empty the shared table.

use snapshot_bench::RandomWalkSetup;
use snapshot_queries::core::{
    Aggregate, Comparison, QueryMode, QueryResult, SensorNetwork, Snapshot, SnapshotQuery,
    SpatialPredicate, ValueFilter,
};
use snapshot_queries::netsim::rng::{derive_seed, DetRng, RngExt};
use snapshot_queries::netsim::tree::AggregationTree;
use snapshot_queries::netsim::{NodeId, Phase, Position};
use std::collections::BTreeSet;

/// Queries per deployment.
const QUERIES: usize = 240;

/// The direct executor: every node tested against the predicate, a
/// fresh BFS tree, a reconciled [`Snapshot`], one path per responder
/// and ordered sets. Returns the answer and the nodes it charges.
fn reference(
    sn: &SensorNetwork,
    query: &SnapshotQuery,
    sink: NodeId,
) -> (QueryResult, BTreeSet<NodeId>) {
    let net = sn.net();
    let topology = net.topology();
    let alive = |id: NodeId| net.is_alive(id);
    let nodes = sn.nodes();
    let values = sn.values();
    let snapshot = matches!(query.mode, QueryMode::Snapshot).then(|| Snapshot::from_nodes(nodes));
    let tree = match &snapshot {
        Some(s) if query.prefer_representative_routing => {
            AggregationTree::bfs_preferring(topology, sink, alive, |id| s.is_active(id))
        }
        _ => AggregationTree::bfs(topology, sink, alive),
    };
    let targets: Vec<NodeId> = topology
        .node_ids()
        .filter(|&id| query.predicate.matches(topology.position(id)))
        .collect();
    let passes = |v: f64| query.value_filter.is_none_or(|f| f.matches(v));

    let mut responders = BTreeSet::new();
    let mut rows = Vec::new();
    let mut available = 0usize;
    for &t in &targets {
        let answer = match &snapshot {
            None => (alive(t) && tree.contains(t)).then(|| (t, values[t.index()])),
            Some(s) => {
                let rep = s.representative_of(t);
                if rep == t {
                    (alive(t) && s.is_active(t) && tree.contains(t)).then(|| (t, values[t.index()]))
                } else if alive(rep) && tree.contains(rep) {
                    nodes[rep.index()]
                        .cache
                        .estimate(t, values[rep.index()])
                        .map(|est| (rep, est))
                } else {
                    None
                }
            }
        };
        if let Some((who, v)) = answer {
            available += 1;
            if passes(v) {
                responders.insert(who);
                rows.push((t, v));
            }
        }
    }

    let mut participants = BTreeSet::new();
    for &r in &responders {
        participants.extend(tree.path_to_sink(r));
    }
    let value = query
        .aggregate
        .and_then(|a| a.apply(rows.iter().map(|&(_, v)| v)));
    let ground_truth = query.aggregate.and_then(|a| {
        a.apply(
            targets
                .iter()
                .map(|t| values[t.index()])
                .filter(|&v| passes(v)),
        )
    });
    let coverage = if targets.is_empty() {
        1.0
    } else {
        available as f64 / targets.len() as f64
    };
    let result = QueryResult {
        mode: query.mode,
        responders: responders.into_iter().collect(),
        participants: participants.len(),
        rows,
        value,
        ground_truth,
        targets: targets.len(),
        coverage,
    };
    (result, participants)
}

/// Every field equal, floats compared by their bits.
fn assert_bit_equal(live: &QueryResult, want: &QueryResult, ctx: &str) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let row_bits = |r: &QueryResult| -> Vec<(NodeId, u64)> {
        r.rows.iter().map(|&(id, v)| (id, v.to_bits())).collect()
    };
    assert_eq!(live.mode, want.mode, "{ctx}: mode");
    assert_eq!(live.responders, want.responders, "{ctx}: responders");
    assert_eq!(live.participants, want.participants, "{ctx}: participants");
    assert_eq!(row_bits(live), row_bits(want), "{ctx}: rows");
    assert_eq!(bits(live.value), bits(want.value), "{ctx}: value");
    assert_eq!(
        bits(live.ground_truth),
        bits(want.ground_truth),
        "{ctx}: ground truth"
    );
    assert_eq!(live.targets, want.targets, "{ctx}: targets");
    assert_eq!(
        live.coverage.to_bits(),
        want.coverage.to_bits(),
        "{ctx}: coverage"
    );
}

/// A random query: either mode, the whole field, a quadrant, a window
/// or a circle, drill-through or any aggregate, sometimes a value filter
/// (threshold drawn from the current readings) and sometimes
/// representative routing.
fn random_query(rng: &mut DetRng, values: &[f64]) -> SnapshotQuery {
    let mode = if rng.random_bool(0.5) {
        QueryMode::Snapshot
    } else {
        QueryMode::Regular
    };
    let predicate = match rng.random_range(0..4u32) {
        0 => SpatialPredicate::All,
        3 => SpatialPredicate::Circle {
            x: rng.random_f64(),
            y: rng.random_f64(),
            r: rng.random_range(0.05..0.5),
        },
        1 => {
            let x0 = if rng.random_bool(0.5) { 0.0 } else { 0.5 };
            let y0 = if rng.random_bool(0.5) { 0.0 } else { 0.5 };
            SpatialPredicate::Rect {
                x0,
                y0,
                x1: x0 + 0.5,
                y1: y0 + 0.5,
            }
        }
        _ => SpatialPredicate::window(
            rng.random_f64(),
            rng.random_f64(),
            rng.random_range(0.1..0.6),
        ),
    };
    let aggregates = [
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Count,
    ];
    let mut q = match rng.random_range(0..6usize) {
        5 => SnapshotQuery::drill_through(predicate, mode),
        i => SnapshotQuery::aggregate(predicate, aggregates[i], mode),
    };
    if rng.random_bool(0.3) {
        let ops = [
            Comparison::Lt,
            Comparison::Le,
            Comparison::Gt,
            Comparison::Ge,
        ];
        let op = ops[rng.random_range(0..ops.len())];
        let threshold = values[rng.random_range(0..values.len())];
        q = q.with_value_filter(ValueFilter::new(op, threshold));
    }
    if rng.random_bool(0.2) {
        q = q.with_representative_routing();
    }
    q
}

/// Run 2–8 random queries at `sink` through one scan batch on `sn`,
/// and the same queries one by one through `query` on a clone:
/// answers, per-node energy and sends, the query-phase total and the
/// telemetry trace must be equal. Returns true when a query charge
/// killed a node before the batch's last scan.
fn batch_matches_one_by_one(
    sn: &mut SensorNetwork,
    rng: &mut DetRng,
    sink: NodeId,
    ctx: &str,
) -> bool {
    let values = sn.values();
    let queries: Vec<SnapshotQuery> = (0..rng.random_range(2..9usize))
        .map(|_| random_query(rng, &values))
        .collect();

    let mut one_by_one = sn.clone();
    one_by_one.enable_telemetry(1 << 14);
    let mut died_mid_batch = false;
    let mut want = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let alive_before = one_by_one.net().alive_count();
        want.push(one_by_one.query(q, sink));
        died_mid_batch |= i + 1 < queries.len() && one_by_one.net().alive_count() < alive_before;
    }

    sn.enable_telemetry(1 << 14);
    let mut batch = sn.scan_batch(sink);
    let got: Vec<QueryResult> = queries.iter().map(|q| batch.query(q)).collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_bit_equal(
            got,
            want,
            &format!("{ctx}: batch scan {i}: {:?}", queries[i]),
        );
    }
    let (net, reference) = (sn.net(), one_by_one.net());
    for id in net.node_ids() {
        assert_eq!(
            net.battery(id).remaining().to_bits(),
            reference.battery(id).remaining().to_bits(),
            "{ctx}: batch energy of {id}"
        );
        assert_eq!(
            net.stats().sent_by(id),
            reference.stats().sent_by(id),
            "{ctx}: batch sends of {id}"
        );
    }
    assert_eq!(
        net.stats().phase_total(Phase::Query),
        reference.stats().phase_total(Phase::Query),
        "{ctx}: batch query-phase sends"
    );
    assert_eq!(
        sn.export_trace_jsonl(),
        one_by_one.export_trace_jsonl(),
        "{ctx}: batch telemetry trace"
    );
    sn.disable_telemetry();
    died_mid_batch
}

/// One deployment's run; returns (cache hits, battery deaths, batches
/// in which a query charge killed a node before the last scan).
fn run(n: usize, p_loss: f64, battery: Option<f64>, seed: u64) -> (usize, usize, usize) {
    let setup = RandomWalkSetup {
        n_nodes: n,
        k: 4,
        // Around the connectivity threshold, so kills and moves reshape
        // the tree.
        range: (2.5 * (n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt(),
        p_loss,
        steps: 100,
        train_until: 10,
        elect_at: 20,
        ..RandomWalkSetup::default()
    };
    let mut sn = match battery {
        Some(capacity) => {
            let mut sn = setup.build_with_batteries(seed, capacity);
            sn.train(0, setup.train_until);
            sn.set_time(setup.elect_at);
            sn
        }
        None => setup.build(seed),
    };
    let _ = sn.elect();

    let mut rng = DetRng::seed_from_u64(derive_seed(seed, 0xE9_u64));
    // Batches draw from a stream of their own, so the single-query
    // sweep asks what it asked before batches were added.
    let mut batch_rng = DetRng::seed_from_u64(derive_seed(seed, 0xBA7C_u64));
    let all: Vec<NodeId> = sn.net().node_ids().collect();
    let mut sink = NodeId(0);
    let mut killed: Vec<NodeId> = Vec::new();
    let (mut hits, mut deaths, mut mid_batch_deaths) = (0, 0, 0);

    for step in 0..QUERIES {
        // Mostly keep the sink, so consecutive queries can share the
        // cached tree; sometimes move it anywhere (alive or not).
        if rng.random_bool(0.3) {
            sink = all[rng.random_range(0..n)];
        }
        let q = random_query(&mut rng, &sn.values());
        let ctx = format!("n={n} loss={p_loss} battery={battery:?} step {step}: {q:?} at {sink}");

        let (want, want_participants) = reference(&sn, &q, sink);
        let sent_before: Vec<u64> = all.iter().map(|&id| sn.net().stats().sent_by(id)).collect();
        let alive_before = sn.net().alive_count();
        hits += usize::from(sn.net().bfs_tree(sink).is_some());
        let live = sn.query(&q, sink);
        assert_bit_equal(&live, &want, &ctx);
        let charged: BTreeSet<NodeId> = all
            .iter()
            .zip(&sent_before)
            .filter_map(|(&id, &before)| {
                let sent = sn.net().stats().sent_by(id) - before;
                assert!(sent <= 1, "{ctx}: {id} charged {sent} times");
                (sent == 1).then_some(id)
            })
            .collect();
        assert_eq!(charged, want_participants, "{ctx}: charged nodes");
        if sn.net().alive_count() < alive_before {
            deaths += alive_before - sn.net().alive_count();
            assert!(
                sn.net().bfs_tree(sink).is_none(),
                "{ctx}: tree cached across a battery death"
            );
        }

        if batch_rng.random_bool(0.25) {
            let alive_before = sn.net().alive_count();
            if batch_matches_one_by_one(&mut sn, &mut batch_rng, sink, &ctx) {
                mid_batch_deaths += 1;
            }
            deaths += alive_before - sn.net().alive_count();
        }

        // One change before the next query. A change that can make a
        // cached tree stale must leave none behind.
        let warm = sn.net().bfs_tree(sink).is_some();
        let alive: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|&id| sn.net().is_alive(id))
            .collect();
        let victim = alive.get(rng.random_range(0..alive.len().max(1))).copied();
        let ops: u32 = if battery.is_some() { 6 } else { 5 };
        let stale = match rng.random_range(0..ops) {
            0 => victim.map(|id| {
                sn.net_mut().kill(id);
                killed.push(id);
                "kill"
            }),
            // A revival, alone or with a crash in the same fault tick:
            // the pair leaves the alive count where it was.
            op @ (1 | 2) => {
                let id = (!killed.is_empty())
                    .then(|| killed.swap_remove(rng.random_range(0..killed.len())));
                id.filter(|&id| sn.net().battery(id).is_alive()).map(|id| {
                    sn.net_mut().revive(id);
                    match victim.filter(|_| op == 2) {
                        Some(v) => {
                            sn.net_mut().kill(v);
                            killed.push(v);
                            "revival and a crash"
                        }
                        None => "revive",
                    }
                })
            }
            3 => {
                let id = all[rng.random_range(0..n)];
                let pos = Position::new(rng.random_f64(), rng.random_f64());
                sn.net_mut().move_node(id, pos);
                Some("move")
            }
            4 => {
                sn.advance(1);
                let _ = sn.maintain();
                None
            }
            _ => victim.map(|id| {
                let remaining = sn.net().battery(id).remaining();
                sn.net_mut().charge(id, remaining, Phase::Test);
                assert!(!sn.net().is_alive(id), "{ctx}: drained battery still alive");
                deaths += 1;
                "battery death"
            }),
        };
        if let Some(change) = stale.filter(|_| warm) {
            assert!(
                sn.net().bfs_tree(sink).is_none(),
                "{ctx}: tree cached across a {change}"
            );
        }
    }
    (hits, deaths, mid_batch_deaths)
}

#[test]
fn live_answers_match_the_reference_executor_bit_for_bit() {
    // (nodes, loss, battery capacity): every size with a perfect and a
    // lossy link, half of them on batteries small enough to run flat.
    let cells = [
        (60, 0.0, None),
        (60, 0.1, Some(60.0)),
        (200, 0.0, Some(60.0)),
        (200, 0.1, None),
        (800, 0.0, None),
        (800, 0.1, Some(60.0)),
    ];
    let (mut deaths, mut mid_batch_deaths) = (0, 0);
    for (i, &(n, p_loss, battery)) in cells.iter().enumerate() {
        let (hits, d, m) = run(n, p_loss, battery, derive_seed(0x0E9, i as u64));
        // The cell is only meaningful if the cache actually serves
        // queries.
        assert!(hits > 0, "cell {i}: no query hit the cached tree");
        deaths += d;
        mid_batch_deaths += m;
    }
    assert!(deaths > 0, "no battery ran flat");
    assert!(
        mid_batch_deaths > 0,
        "no query charge killed a node in the middle of a scan batch"
    );
}
