//! Message-level TAG aggregation (Madden et al., reference \[11\] of the
//! paper).
//!
//! [`super::execute`] is the paper's *accounting* model: it computes
//! who would participate and charges them, without simulating the
//! aggregate's journey. This module is the full protocol: the tree is
//! formed by real flooding, and partial aggregates flow leaf-to-root
//! as real unicasts — both subject to message loss, so a dropped
//! partial silently loses an entire subtree, exactly the failure mode
//! that motivated sketch-based robustness work (\[3\] in the paper).
//!
//! Under a lossless link model the TAG result equals the idealized
//! executor's result bit-for-bit (tested); under loss it degrades by
//! whole subtrees.

use super::exec::collect_rows;
use super::SnapshotQuery;
use crate::election::ProtocolMsg;
use crate::error::CoreError;
use crate::query::Aggregate;
use crate::sensor::SensorNode;
use snapshot_netsim::flood::flood;
use snapshot_netsim::tree::AggregationTree;
use snapshot_netsim::{Network, NodeId, Phase};

/// A combinable partial aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partial {
    /// Sum of contributing values.
    pub sum: f64,
    /// Number of contributing values.
    pub count: u64,
    /// Minimum contributing value (`+inf` when empty).
    pub min: f64,
    /// Maximum contributing value (`-inf` when empty).
    pub max: f64,
}

impl Partial {
    /// The identity element.
    pub fn empty() -> Self {
        Partial {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one value in.
    pub fn add_value(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another partial in (associative, commutative).
    pub fn merge(&mut self, other: &Partial) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Extract the final answer for an aggregate function.
    pub fn finish(&self, agg: Aggregate) -> Option<f64> {
        match agg {
            Aggregate::Count => Some(self.count as f64),
            Aggregate::Sum => (self.count > 0).then_some(self.sum),
            Aggregate::Avg => (self.count > 0).then(|| self.sum / self.count as f64),
            Aggregate::Min => (self.count > 0).then_some(self.min),
            Aggregate::Max => (self.count > 0).then_some(self.max),
        }
    }
}

/// Outcome of one message-level TAG execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TagResult {
    /// The aggregate computed at the sink (`None` when no value
    /// reached it).
    pub value: Option<f64>,
    /// Values that actually made it into the sink's partial.
    pub delivered_count: u64,
    /// Values that responders contributed locally (before loss).
    pub contributed_count: u64,
    /// Nodes the formation flood reached.
    pub tree_size: usize,
    /// Messages sent during this execution (flood + partials).
    pub messages: u64,
}

/// Execute an aggregate query as the real TAG protocol: flood-formed
/// tree, per-depth rounds of partial aggregates, loss applied to every
/// message.
///
/// Returns [`CoreError::MissingAggregate`] when the query has no
/// aggregate (drill-through queries do not aggregate in-network).
pub fn execute_tag(
    net: &mut Network<ProtocolMsg>,
    nodes: &[SensorNode],
    values: &[f64],
    query: &SnapshotQuery,
    sink: NodeId,
) -> Result<TagResult, CoreError> {
    let Some(agg) = query.aggregate else {
        return Err(CoreError::MissingAggregate);
    };
    let msgs_before = net.stats().total_sent();

    // 1. Tree formation by real flooding.
    let outcome = flood(
        net,
        sink,
        ProtocolMsg::Flood,
        |p| match p {
            ProtocolMsg::Flood(t) => Some(*t),
            _ => None,
        },
        net.len(),
        Phase::Flood,
    );
    let tree = AggregationTree::from_flood(&outcome);

    // 2. Local contributions (same row logic as the idealized path).
    //    Each responder folds its rows in row order.
    let targets = query.predicate.targets(net.topology());
    let alive = |id| net.is_alive(id);
    let collected = collect_rows(alive, nodes, values, query, &tree, &targets, None);

    let n = net.len();
    let mut partials: Vec<Partial> = vec![Partial::empty(); n];
    for (who, &(_, v)) in collected.answered_by.iter().zip(&collected.rows) {
        partials[who.index()].add_value(v);
    }
    let contributed = collected.rows.len() as u64;

    // 3. Leaf-to-root rounds: at each depth (deepest first), nodes
    //    unicast their accumulated partial to their parent; parents
    //    fold in whatever survives the radio. One sweep buckets the
    //    tree by depth, ascending id within a depth.
    let mut levels: Vec<Vec<NodeId>> = Vec::new();
    for id in (0..n).map(NodeId::from_index) {
        if let Some(depth) = tree.depth(id) {
            let depth = depth as usize;
            if depth >= levels.len() {
                levels.resize_with(depth + 1, Vec::new);
            }
            levels[depth].push(id);
        }
    }
    for level in levels.iter().skip(1).rev() {
        for &id in level {
            if !net.is_alive(id) {
                continue;
            }
            let p = partials[id.index()];
            // Nothing to report and nothing inherited: stay silent
            // (TAG's suppression of empty partials).
            if p.count == 0 {
                continue;
            }
            // A sender at depth > 0 always has a parent in the
            // formation tree; skip (suppress) rather than panic if
            // the tree is ever inconsistent.
            let Some(parent) = tree.parent(id) else {
                continue;
            };
            let msg = ProtocolMsg::Partial {
                sum: p.sum,
                count: p.count,
                min: p.min,
                max: p.max,
            };
            let bytes = msg.wire_bytes();
            net.unicast(id, parent, msg, bytes, Phase::Query);
        }
        net.deliver();
        // Parents (any node above this depth) fold in delivered partials.
        net.drain(|_, id, mail| {
            for d in mail {
                if let ProtocolMsg::Partial {
                    sum,
                    count,
                    min,
                    max,
                } = d.payload
                {
                    if d.addressed && tree.contains(id) {
                        partials[id.index()].merge(&Partial {
                            sum,
                            count,
                            min,
                            max,
                        });
                    }
                }
            }
        });
    }

    let sink_partial = partials[sink.index()];
    Ok(TagResult {
        value: sink_partial.finish(agg),
        delivered_count: sink_partial.count,
        contributed_count: contributed,
        tree_size: tree.len(),
        messages: net.stats().total_sent() - msgs_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::query::{execute, QueryMode, SpatialPredicate};
    use snapshot_netsim::flood::FloodToken;
    use snapshot_netsim::prelude::*;

    fn setup(
        n: usize,
        range: f64,
        loss: f64,
        seed: u64,
    ) -> (Network<ProtocolMsg>, Vec<SensorNode>, Vec<f64>) {
        let topo = Topology::random_uniform(n, range, seed).expect("valid deployment");
        let net = Network::new(
            topo,
            LinkModel::iid_loss(loss),
            EnergyModel::default(),
            seed,
        );
        let nodes: Vec<SensorNode> = (0..n)
            .map(|i| SensorNode::new(NodeId::from_index(i), CacheConfig::default()))
            .collect();
        let values: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        (net, nodes, values)
    }

    #[test]
    fn lossless_tag_matches_the_idealized_executor() {
        for agg in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Count,
        ] {
            let (mut net, nodes, values) = setup(30, 0.5, 0.0, 7);
            let q = SnapshotQuery::aggregate(SpatialPredicate::All, agg, QueryMode::Regular);
            let tag =
                execute_tag(&mut net, &nodes, &values, &q, NodeId(3)).expect("aggregate query");

            let (mut net2, nodes2, values2) = setup(30, 0.5, 0.0, 7);
            let ideal = execute(&mut net2, &nodes2, &values2, &q, NodeId(3));
            assert_eq!(tag.value, ideal.value, "{agg:?} diverged");
            assert_eq!(tag.delivered_count, tag.contributed_count);
        }
    }

    #[test]
    fn partial_merge_is_associative_on_the_algebra() {
        let mut a = Partial::empty();
        a.add_value(3.0);
        a.add_value(-1.0);
        let mut b = Partial::empty();
        b.add_value(10.0);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.finish(Aggregate::Sum), Some(12.0));
        assert_eq!(ab.finish(Aggregate::Count), Some(3.0));
        assert_eq!(ab.finish(Aggregate::Min), Some(-1.0));
        assert_eq!(ab.finish(Aggregate::Max), Some(10.0));
        assert_eq!(ab.finish(Aggregate::Avg), Some(4.0));
    }

    #[test]
    fn empty_partial_finishes_to_none_except_count() {
        let p = Partial::empty();
        assert_eq!(p.finish(Aggregate::Sum), None);
        assert_eq!(p.finish(Aggregate::Avg), None);
        assert_eq!(p.finish(Aggregate::Min), None);
        assert_eq!(p.finish(Aggregate::Max), None);
        assert_eq!(p.finish(Aggregate::Count), Some(0.0));
    }

    #[test]
    fn loss_drops_whole_subtrees() {
        // Under loss the count delivered at the sink can only shrink.
        let (mut net, nodes, values) = setup(50, 0.3, 0.3, 11);
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Count, QueryMode::Regular);
        let tag = execute_tag(&mut net, &nodes, &values, &q, NodeId(5)).expect("aggregate query");
        assert!(tag.delivered_count <= tag.contributed_count);
        assert!(tag.tree_size <= 50);
        // With 30% loss on a multi-hop tree, *some* attrition is
        // overwhelmingly likely.
        assert!(
            tag.delivered_count < 50,
            "no attrition at 30% loss is implausible: {tag:?}"
        );
    }

    #[test]
    fn total_loss_leaves_only_the_sinks_own_reading() {
        let (mut net, nodes, values) = setup(20, 1.0, 1.0, 3);
        let q =
            SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Count, QueryMode::Regular);
        let tag = execute_tag(&mut net, &nodes, &values, &q, NodeId(0)).expect("aggregate query");
        // The flood never leaves the sink, so only the sink is in the
        // tree and only its own value is counted.
        assert_eq!(tag.tree_size, 1);
        assert_eq!(tag.value, Some(1.0));
    }

    #[test]
    fn message_counts_reflect_flood_plus_partials() {
        let (mut net, nodes, values) = setup(20, 0.5, 0.0, 9);
        let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Regular);
        let tag = execute_tag(&mut net, &nodes, &values, &q, NodeId(1)).expect("aggregate query");
        // Lossless: every node floods once (20) and every non-sink
        // tree node sends one partial (19).
        assert_eq!(tag.messages, 20 + 19);
    }

    /// Every flood message is recorded at the size the message table
    /// gives a `Flood`.
    #[test]
    fn flood_sends_carry_the_flood_wire_size() {
        let (mut net, nodes, values) = setup(20, 0.5, 0.0, 9);
        net.set_telemetry(Telemetry::with_ring(1 << 12));
        let q = SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Regular);
        execute_tag(&mut net, &nodes, &values, &q, NodeId(1)).expect("aggregate query");
        let flood_bytes = ProtocolMsg::Flood(FloodToken { hops: 0 }).wire_bytes();
        let events = net.telemetry().ring().expect("ring attached").events();
        let sizes: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                Event::MsgSent {
                    phase: Phase::Flood,
                    bytes,
                    ..
                } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(sizes.len(), 20, "every node floods once");
        assert!(sizes.iter().all(|&b| b == flood_bytes), "{sizes:?}");
    }

    #[test]
    fn empty_subtree_partials_are_suppressed() {
        // Only node values inside a tiny predicate contribute; nodes
        // with empty partials must stay silent on the way up.
        let (mut net, nodes, values) = setup(20, 0.5, 0.0, 13);
        let pos = net.topology().position(NodeId(4));
        let q = SnapshotQuery::aggregate(
            SpatialPredicate::window(pos.x, pos.y, 1e-9),
            Aggregate::Count,
            QueryMode::Regular,
        );
        let tag = execute_tag(&mut net, &nodes, &values, &q, NodeId(4)).expect("aggregate query");
        assert_eq!(tag.value, Some(1.0));
        // 20 flood messages; zero partials (the only contributor IS
        // the sink).
        assert_eq!(tag.messages, 20);
    }
}
