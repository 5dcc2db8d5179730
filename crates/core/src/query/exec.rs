//! Query execution over the sensor network.
//!
//! Execution follows Section 6.2's methodology: an aggregation tree is
//! rooted at the sink (over the currently alive nodes), matching nodes
//! respond through it, and each participant — responder or router —
//! is charged one transmission. The only difference between the two
//! modes is *who responds*:
//!
//! * regular: every alive matching node;
//! * snapshot: unrepresented matching nodes answer for themselves, and
//!   representatives answer for their matching members with model
//!   estimates — so most of the network stays idle.

use super::{QueryMode, SnapshotQuery};
use crate::election::ProtocolMsg;
use crate::sensor::SensorNode;
use snapshot_netsim::tree::AggregationTree;
use snapshot_netsim::{Network, NodeId, NodeSet, Phase, Topology};

/// The outcome of one query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Mode the query ran in.
    pub mode: QueryMode,
    /// Nodes that contributed measurements or estimates.
    pub responders: Vec<NodeId>,
    /// Responders plus routers: every node that participated
    /// (the paper's `N_regular` / `N_snapshot`).
    pub participants: usize,
    /// One row per answered target: `(target, value-or-estimate)`.
    pub rows: Vec<(NodeId, f64)>,
    /// The aggregate over `rows` (None for drill-through or when no
    /// rows were available).
    pub value: Option<f64>,
    /// The same aggregate over *all* matching targets' true values —
    /// the infinite-battery, lossless reference.
    pub ground_truth: Option<f64>,
    /// Number of matching targets (alive or dead).
    pub targets: usize,
    /// `rows.len() / targets` — the paper's coverage metric
    /// (1.0 when the region is empty).
    pub coverage: f64,
}

impl QueryResult {
    /// Absolute error of the aggregate against the ground truth, when
    /// both exist.
    pub fn absolute_error(&self) -> Option<f64> {
        Some((self.value? - self.ground_truth?).abs())
    }

    /// Mean squared error of the drill-through rows against the true
    /// values (`None` when no rows).
    pub fn rows_mse(&self, truth: impl Fn(NodeId) -> f64) -> Option<f64> {
        if self.rows.is_empty() {
            return None;
        }
        let sum: f64 = self
            .rows
            .iter()
            .map(|&(id, v)| {
                let e = v - truth(id);
                e * e
            })
            .sum();
        Some(sum / self.rows.len() as f64)
    }
}

/// Rows assembled for one query execution: who answers, with what.
pub(crate) struct CollectedRows {
    /// `(target, value-or-estimate)` rows that passed the filters.
    pub rows: Vec<(NodeId, f64)>,
    /// `answered_by[i]`: the node that reported `rows[i]` — the target
    /// itself, or its representative with an estimate.
    pub answered_by: Vec<NodeId>,
    /// Obtainable measurements pre-value-filter (coverage numerator).
    pub available: usize,
}

/// One target's reading: `Some((who, value))` when `who` — the target
/// itself, or its representative with a model estimate — can report
/// it, `None` when nobody can.
type Reading = Option<(NodeId, f64)>;

/// Target `t`'s [`Reading`].
///
/// Each node's mode and representative come straight from its own
/// protocol state; a representative pointer is authoritative for the
/// member that holds it (the same reading as
/// [`Snapshot::from_nodes`](crate::snapshot::Snapshot::from_nodes)).
/// Besides the mode, a reading depends only on node state, the
/// measurements and which nodes are alive and in `tree`.
fn reading(
    alive: impl Fn(NodeId) -> bool,
    nodes: &[SensorNode],
    values: &[f64],
    tree: &AggregationTree,
    snapshot: bool,
    t: NodeId,
) -> Reading {
    let (node, &own) = nodes.get(t.index()).zip(values.get(t.index()))?;
    let rep = if snapshot {
        node.representative().unwrap_or(t)
    } else {
        t
    };
    if rep == t {
        // Regular mode, or unrepresented: the node answers for itself
        // when it is up, reachable and — under a snapshot query —
        // active.
        (alive(t) && tree.contains(t) && (!snapshot || node.is_active())).then_some((t, own))
    } else if alive(rep) && tree.contains(rep) {
        // Represented: the representative estimates the member's value
        // from its own current measurement.
        let (r, &x) = nodes.get(rep.index()).zip(values.get(rep.index()))?;
        r.cache.estimate(t, x).map(|v| (rep, v))
    } else {
        None
    }
}

/// Per-node readings shared by the scans of one
/// [`ScanBatch`](crate::ScanBatch): each reading is computed at most
/// once per mode while the table's key holds.
///
/// The key is `(sink, alive count)`, the key of the network's cached
/// BFS tree. Inside a batch nothing can change node state, the
/// measurements or the topology, and the alive set can only shrink (a
/// charge that drains a battery), so an unchanged alive count means an
/// unchanged alive set and an unchanged tree membership. A tree built
/// by [`AggregationTree::bfs_preferring`] spans the same nodes as the
/// plain BFS tree (it changes parents, not membership), so
/// representative-routing queries read the same table.
#[derive(Debug)]
pub(crate) struct Readings {
    /// The `(sink, alive count)` the slots were filled at.
    key: Option<(NodeId, usize)>,
    /// Per node, per mode (regular, snapshot): `None` until computed.
    slots: Vec<[Option<Reading>; 2]>,
}

impl Readings {
    /// An empty table for `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        Readings {
            key: None,
            slots: vec![[None; 2]; n],
        }
    }

    /// The table for `key`, emptied first when it was filled at
    /// another key.
    fn keyed(&mut self, key: (NodeId, usize)) -> &mut Self {
        if self.key != Some(key) {
            self.slots.fill([None; 2]);
            self.key = Some(key);
        }
        self
    }

    /// Target `t`'s slot for the mode: `None` inside until computed.
    fn slot(&mut self, t: NodeId, snapshot: bool) -> Option<&mut Option<Reading>> {
        let [regular, snapshot_mode] = self.slots.get_mut(t.index())?;
        Some(if snapshot { snapshot_mode } else { regular })
    }
}

/// Determine who answers a query and with which values — shared by
/// the idealized executor and the message-level TAG executor. With a
/// `readings` table each target's [`reading`] is looked up and
/// computed only on a miss; without one every reading is computed.
pub(crate) fn collect_rows(
    alive: impl Fn(NodeId) -> bool,
    nodes: &[SensorNode],
    values: &[f64],
    query: &SnapshotQuery,
    tree: &AggregationTree,
    targets: &[NodeId],
    mut readings: Option<&mut Readings>,
) -> CollectedRows {
    let mut rows: Vec<(NodeId, f64)> = Vec::with_capacity(targets.len());
    let mut answered_by: Vec<NodeId> = Vec::with_capacity(targets.len());
    let mut available = 0usize;

    // The value filter is evaluated on whatever value would be
    // reported (the true reading in regular mode, the estimate in
    // snapshot mode); a filtered-out row costs no response. The
    // paper's alert-style reading: the representative checks the
    // predicate locally and stays silent when nothing matches.
    let passes = |v: f64| query.value_filter.is_none_or(|f| f.matches(v));
    let snapshot = matches!(query.mode, QueryMode::Snapshot);

    for &t in targets {
        let slot = readings.as_deref_mut().and_then(|r| r.slot(t, snapshot));
        let answer = match slot.as_deref().copied().flatten() {
            Some(hit) => hit,
            None => {
                let read = reading(&alive, nodes, values, tree, snapshot, t);
                if let Some(slot) = slot {
                    *slot = Some(read);
                }
                read
            }
        };
        if let Some((who, v)) = answer {
            available += 1;
            if passes(v) {
                rows.push((t, v));
                answered_by.push(who);
            }
        }
    }

    CollectedRows {
        rows,
        answered_by,
        available,
    }
}

/// True when the query routes through representatives: its tree then
/// depends on the nodes' modes, not only on topology and liveness.
fn prefers_representatives(query: &SnapshotQuery) -> bool {
    query.prefer_representative_routing && matches!(query.mode, QueryMode::Snapshot)
}

/// The aggregation tree `query` collects over at `sink`: BFS over the
/// alive nodes, preferring active parents when the query routes
/// through representatives.
fn aggregation_tree(
    topology: &Topology,
    alive: impl Fn(NodeId) -> bool,
    nodes: &[SensorNode],
    query: &SnapshotQuery,
    sink: NodeId,
) -> AggregationTree {
    if prefers_representatives(query) {
        AggregationTree::bfs_preferring(topology, sink, &alive, |id| {
            nodes.get(id.index()).is_some_and(SensorNode::is_active)
        })
    } else {
        AggregationTree::bfs(topology, sink, &alive)
    }
}

/// Execute a query against *frozen* network state: a topology, an
/// aliveness predicate, node protocol state and current measurements.
/// Pure — no energy is charged, no clock moves — so the same inputs
/// always produce the same result, which is what lets time-travel
/// (`AS OF`) answers from a checkpoint match a replayed simulation
/// byte-for-byte. Returns the result plus the participants, in
/// ascending id order, so the live wrapper can charge energy.
pub fn execute_frozen(
    topology: &Topology,
    alive: impl Fn(NodeId) -> bool,
    nodes: &[SensorNode],
    values: &[f64],
    query: &SnapshotQuery,
    sink: NodeId,
) -> (QueryResult, Vec<NodeId>) {
    let tree = aggregation_tree(topology, &alive, nodes, query, sink);
    execute_on_tree(topology, alive, nodes, values, query, &tree, None)
}

/// [`execute_frozen`] on an already-built aggregation tree, reading
/// through `readings` when given.
fn execute_on_tree(
    topology: &Topology,
    alive: impl Fn(NodeId) -> bool,
    nodes: &[SensorNode],
    values: &[f64],
    query: &SnapshotQuery,
    tree: &AggregationTree,
    readings: Option<&mut Readings>,
) -> (QueryResult, Vec<NodeId>) {
    debug_assert_eq!(nodes.len(), values.len());
    let targets = query.predicate.targets(topology);
    let CollectedRows {
        rows,
        answered_by,
        available,
    } = collect_rows(alive, nodes, values, query, tree, &targets, readings);

    let participants = tree.participants(&answered_by);
    let mut responders = NodeSet::new(nodes.len());
    for &who in &answered_by {
        responders.insert(who);
    }

    let value = query
        .aggregate
        .and_then(|a| a.apply(rows.iter().map(|&(_, v)| v)));
    let truth_passes = |v: f64| query.value_filter.is_none_or(|f| f.matches(v));
    let ground_truth = query.aggregate.and_then(|a| {
        a.apply(
            targets
                .iter()
                .map(|t| values[t.index()])
                .filter(|&v| truth_passes(v)),
        )
    });
    let coverage = if targets.is_empty() {
        1.0
    } else {
        available as f64 / targets.len() as f64
    };

    let result = QueryResult {
        mode: query.mode,
        responders: responders.to_vec(),
        participants: participants.len(),
        rows,
        value,
        ground_truth,
        targets: targets.len(),
        coverage,
    };
    (result, participants)
}

/// Execute a query with `sink` as the collection point. `values[i]`
/// is `N_i`'s true current measurement. Participants are charged one
/// transmission each and counted under the `"query"` phase.
///
/// The aggregation tree comes from the network's cache
/// ([`Network::bfs_tree`]), so consecutive queries at one sink build
/// it once while nothing dies, revives or moves. A query that prefers
/// representative routing builds its own: that tree also depends on
/// the nodes' modes, which the cache does not track.
pub fn execute(
    net: &mut Network<ProtocolMsg>,
    nodes: &[SensorNode],
    values: &[f64],
    query: &SnapshotQuery,
    sink: NodeId,
) -> QueryResult {
    execute_with(net, nodes, values, query, sink, None)
}

/// [`execute`], reading through `readings` when given. The table is
/// emptied first unless it was filled at this sink and alive count.
pub(crate) fn execute_with(
    net: &mut Network<ProtocolMsg>,
    nodes: &[SensorNode],
    values: &[f64],
    query: &SnapshotQuery,
    sink: NodeId,
    readings: Option<&mut Readings>,
) -> QueryResult {
    let readings = readings.map(|r| r.keyed((sink, net.alive_count())));
    let cached = !prefers_representatives(query);
    if cached {
        net.refresh_bfs_tree(sink);
    }
    let alive = |id| net.is_alive(id);
    let topology = net.topology();
    let (result, participants) = match net.bfs_tree(sink).filter(|_| cached) {
        Some(tree) => execute_on_tree(topology, alive, nodes, values, query, tree, readings),
        None => {
            let tree = aggregation_tree(topology, alive, nodes, query, sink);
            execute_on_tree(topology, alive, nodes, values, query, &tree, readings)
        }
    };

    // Charge each participant one transmission (partial aggregates
    // flowing up the tree) and account it under the "query" phase.
    let tx = net.energy_model().tx_cost;
    for &p in &participants {
        net.charge(p, tx, Phase::Query);
        net.stats_mut().record_send(p, Phase::Query);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::query::{Aggregate, SpatialPredicate};
    use crate::sensor::Mode;
    use snapshot_netsim::clock::Epoch;
    use snapshot_netsim::prelude::*;

    /// Fully connected 4-node network with node 0 representing 1 and 2
    /// via the models y = x (trained on three exact pairs).
    fn setup() -> (Network<ProtocolMsg>, Vec<SensorNode>, Vec<f64>) {
        let topo = Topology::random_uniform(4, 2.0, 21).expect("valid deployment");
        let net = Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 3);
        let mut nodes: Vec<SensorNode> = (0..4)
            .map(|i| SensorNode::new(NodeId::from_index(i), CacheConfig::default()))
            .collect();
        for member in [1u32, 2] {
            nodes[member as usize].mode = Mode::Passive;
            nodes[member as usize].rep_of = Some((NodeId(0), Epoch(1)));
            nodes[0].represents.insert(NodeId(member), Epoch(1));
            for &(x, y) in &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)] {
                nodes[0].cache.observe(NodeId(member), x, y);
            }
        }
        let values = vec![10.0, 10.5, 9.5, 20.0];
        (net, nodes, values)
    }

    #[test]
    fn regular_mode_uses_every_alive_target() {
        let (mut net, nodes, values) = setup();
        let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Regular);
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        assert_eq!(r.responders.len(), 4);
        assert_eq!(r.value, Some(50.0));
        assert_eq!(r.ground_truth, Some(50.0));
        assert_eq!(r.coverage, 1.0);
    }

    #[test]
    fn snapshot_mode_answers_through_representatives() {
        let (mut net, nodes, values) = setup();
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Snapshot);
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        // Only nodes 0 and 3 respond; 1 and 2 are estimated as x_0=10.
        assert_eq!(r.responders, vec![NodeId(0), NodeId(3)]);
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.value, Some(10.0 + 10.0 + 10.0 + 20.0));
        assert_eq!(r.ground_truth, Some(50.0));
        assert!(r.absolute_error().unwrap() <= 1.0);
        assert!(r.participants <= 4);
    }

    #[test]
    fn snapshot_queries_use_fewer_participants() {
        let (mut net, nodes, values) = setup();
        let q_reg =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Regular);
        let q_snap =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Snapshot);
        let reg = execute(&mut net, &nodes, &values, &q_reg, NodeId(3));
        let snap = execute(&mut net, &nodes, &values, &q_snap, NodeId(3));
        assert!(snap.participants < reg.participants);
    }

    #[test]
    fn dead_member_is_covered_by_its_representative() {
        let (mut net, nodes, values) = setup();
        net.kill(NodeId(1));
        let q = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Snapshot);
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        // All four targets still produce rows: node 1 via its rep.
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.coverage, 1.0);

        // Under regular execution the dead node costs coverage.
        let q = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Regular);
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        assert_eq!(r.rows.len(), 3);
        assert!((r.coverage - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dead_representative_costs_coverage_until_maintenance() {
        let (mut net, nodes, values) = setup();
        net.kill(NodeId(0));
        let q = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Snapshot);
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        // Members 1 and 2 are passive and their representative is
        // gone: only node 3 answers.
        assert_eq!(r.rows.len(), 1);
        assert!((r.coverage - 0.25).abs() < 1e-12);
    }

    #[test]
    fn participants_are_charged_energy() {
        let topo = Topology::random_uniform(3, 2.0, 4).expect("valid deployment");
        let mut net: Network<ProtocolMsg> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            5.0,
            3,
        );
        let nodes: Vec<SensorNode> = (0..3)
            .map(|i| SensorNode::new(NodeId::from_index(i), CacheConfig::default()))
            .collect();
        let values = vec![1.0, 2.0, 3.0];
        let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Regular);
        let before: f64 = (0..3).map(|i| net.battery(NodeId(i)).remaining()).sum();
        let r = execute(&mut net, &nodes, &values, &q, NodeId(0));
        let after: f64 = (0..3).map(|i| net.battery(NodeId(i)).remaining()).sum();
        assert_eq!(r.participants, 3);
        assert!(
            (before - after - 3.0).abs() < 1e-9,
            "each participant pays one tx"
        );
        assert_eq!(net.stats().phase_total(Phase::Query), 3);
    }

    #[test]
    fn spatial_predicate_restricts_targets() {
        let (mut net, nodes, values) = setup();
        // Window around node 0's position only.
        let pos = net.topology().position(NodeId(0));
        let q = SnapshotQuery::aggregate(
            SpatialPredicate::window(pos.x, pos.y, 1e-6),
            Aggregate::Count,
            QueryMode::Regular,
        );
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        assert_eq!(r.targets, 1);
        assert_eq!(r.value, Some(1.0));
    }

    #[test]
    fn empty_region_has_full_coverage_and_no_value() {
        let (mut net, nodes, values) = setup();
        let q = SnapshotQuery::aggregate(
            SpatialPredicate::Rect {
                x0: 5.0,
                y0: 5.0,
                x1: 6.0,
                y1: 6.0,
            },
            Aggregate::Sum,
            QueryMode::Regular,
        );
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        assert_eq!(r.targets, 0);
        assert_eq!(r.value, None);
        assert_eq!(r.coverage, 1.0);
        assert_eq!(r.participants, 0);
    }

    #[test]
    fn value_filters_run_on_estimates_in_snapshot_mode() {
        use crate::query::{Comparison, ValueFilter};
        let (mut net, nodes, values) = setup();
        // True values: [10.0, 10.5, 9.5, 20.0]; estimates for 1 and 2
        // are both 10.0 (model y = x on x_0 = 10).
        let q = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Snapshot)
            .with_value_filter(ValueFilter::new(Comparison::Gt, 9.9));
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        // Node 2's true value (9.5) fails the filter, but its estimate
        // (10.0) passes: approximate selection includes it.
        assert_eq!(r.rows.len(), 4);
        // Coverage counts obtainable measurements, pre-filter.
        assert_eq!(r.coverage, 1.0);

        // Regular mode filters on true values: 9.5 is excluded.
        let q = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Regular)
            .with_value_filter(ValueFilter::new(Comparison::Gt, 9.9));
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn value_filtered_aggregates_use_filtered_ground_truth() {
        use crate::query::{Comparison, ValueFilter};
        let (mut net, nodes, values) = setup();
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Count, QueryMode::Regular)
                .with_value_filter(ValueFilter::new(Comparison::Ge, 10.0));
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        // 10.0, 10.5, 20.0 pass; 9.5 fails.
        assert_eq!(r.value, Some(3.0));
        assert_eq!(r.ground_truth, Some(3.0));
    }

    #[test]
    fn filtered_out_representatives_do_not_respond() {
        use crate::query::{Comparison, ValueFilter};
        let (mut net, nodes, values) = setup();
        // Nothing estimates above 50: no responders at all in
        // snapshot mode except... nothing.
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Count, QueryMode::Snapshot)
                .with_value_filter(ValueFilter::new(Comparison::Gt, 50.0));
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        assert_eq!(r.value, Some(0.0));
        assert!(r.responders.is_empty());
        assert_eq!(r.participants, 0, "a fully-filtered query wakes nobody");
    }

    #[test]
    fn rows_mse_measures_estimate_quality() {
        let (mut net, nodes, values) = setup();
        let q = SnapshotQuery::drill_through(SpatialPredicate::All, QueryMode::Snapshot);
        let r = execute(&mut net, &nodes, &values, &q, NodeId(3));
        let mse = r.rows_mse(|id| values[id.index()]).unwrap();
        // Estimates are 10.0 for true 10.5 / 9.5: mse = (0.25+0.25)/4.
        assert!((mse - 0.125).abs() < 1e-9);
    }
}
