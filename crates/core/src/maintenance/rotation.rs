//! LEACH-style representative rotation (Section 5.1).
//!
//! "Another option is to use randomization in the selection of
//! representatives, similar to the one used in the LEACH data routing
//! protocol. The key idea is to have a rotating set of representatives
//! so that energy resources are drained uniformly." Each cycle, every
//! representative independently steps down with probability
//! `rotation_prob`; its members re-elect, and the retiring node
//! refuses candidacy for that election so the role genuinely moves.

use crate::config::SnapshotConfig;
use crate::election::{run_maintenance_election, ElectionOutcome, ProtocolMsg};
use crate::sensor::{Mode, SensorNode};
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::rng::DetRng;
use snapshot_netsim::rng::RngExt;
use snapshot_netsim::{Event, Network, NodeId, Phase};
use std::collections::BTreeSet;

/// Outcome of a rotation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationReport {
    /// Representatives that stepped down.
    pub retired: usize,
    /// Members that re-elected.
    pub reassigned: usize,
    /// The election outcome, when any member re-elected.
    pub election: Option<ElectionOutcome>,
}

/// Rotate representatives with the given per-representative
/// probability. `values[i]` is `N_i`'s current measurement.
#[allow(clippy::too_many_arguments)]
pub fn rotate_representatives(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
    rotation_prob: f64,
) -> RotationReport {
    assert!(
        (0.0..=1.0).contains(&rotation_prob),
        "rotation_prob must be a probability, got {rotation_prob}"
    );
    let n = nodes.len();
    let mut report = RotationReport {
        retired: 0,
        reassigned: 0,
        election: None,
    };

    // Retiring representatives announce a handoff.
    for i in (0..n).map(NodeId::from_index) {
        if !net.is_alive(i) {
            continue;
        }
        let node = &mut nodes[i.index()];
        if node.mode() == Mode::Active && node.member_count() > 0 && rng.random_bool(rotation_prob)
        {
            node.refusing_invites = true;
            report.retired += 1;
            if net.telemetry_enabled() {
                let tick = net.round();
                let battery_fraction = net.battery(i).fraction();
                net.emit(Event::HandoffTriggered {
                    tick,
                    node: i.0,
                    battery_fraction,
                });
            }
            net.broadcast(
                i,
                ProtocolMsg::EnergyHandoff,
                ProtocolMsg::EnergyHandoff.wire_bytes(),
                Phase::Handoff,
            );
        }
    }
    net.deliver();

    // Members of retiring representatives re-elect. Wake-list drain
    // (DESIGN.md §16): only nodes the handoff broadcast reached are
    // visited, in ascending id order.
    let mut initiators: BTreeSet<NodeId> = BTreeSet::new();
    let mut inbox = Vec::new();
    let mut drained: Vec<NodeId> = Vec::new();
    net.drain_candidates_into(&mut drained);
    for &i in &drained {
        if !net.is_alive(i) {
            net.clear_inbox(i);
            continue;
        }
        net.take_inbox_into(i, &mut inbox);
        let node = &nodes[i.index()];
        for d in inbox.drain(..) {
            if matches!(d.payload, ProtocolMsg::EnergyHandoff)
                && node.representative() == Some(d.from)
            {
                initiators.insert(i);
            }
        }
    }
    report.reassigned = initiators.len();

    if !initiators.is_empty() {
        let initiators: Vec<NodeId> = initiators.into_iter().collect();
        report.election = Some(run_maintenance_election(
            net,
            nodes,
            values,
            cfg,
            epoch,
            rng,
            &initiators,
        ));
    }

    for node in nodes.iter_mut() {
        node.refusing_invites = false;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use snapshot_netsim::prelude::*;

    #[test]
    fn rotation_moves_the_role() {
        let topo = Topology::random_uniform(3, 2.0, 1).expect("valid deployment");
        let mut net: Network<ProtocolMsg> =
            Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 2);
        let cfg = SnapshotConfig::default();
        let mut nodes: Vec<SensorNode> = (0..3)
            .map(|i| SensorNode::new(NodeId::from_index(i), CacheConfig::default()))
            .collect();
        // 0 represents 1; node 2 can also model node 1.
        nodes[1].mode = Mode::Passive;
        nodes[1].rep_of = Some((NodeId(0), Epoch(1)));
        nodes[0].represents.insert(NodeId(1), Epoch(1));
        for &(x, y) in &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)] {
            nodes[2].cache.observe(NodeId(1), x, y);
        }
        let values = vec![4.0, 4.0, 4.0];
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(3);
        let r =
            rotate_representatives(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng, 1.0);
        assert_eq!(r.retired, 1);
        assert_eq!(r.reassigned, 1);
        assert_eq!(nodes[1].representative(), Some(NodeId(2)));
    }

    #[test]
    fn zero_probability_rotates_nothing() {
        let topo = Topology::random_uniform(2, 2.0, 1).expect("valid deployment");
        let mut net: Network<ProtocolMsg> =
            Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 2);
        let cfg = SnapshotConfig::default();
        let mut nodes: Vec<SensorNode> = (0..2)
            .map(|i| SensorNode::new(NodeId::from_index(i), CacheConfig::default()))
            .collect();
        nodes[1].mode = Mode::Passive;
        nodes[1].rep_of = Some((NodeId(0), Epoch(1)));
        nodes[0].represents.insert(NodeId(1), Epoch(1));
        let values = vec![1.0, 1.0];
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(3);
        let r =
            rotate_representatives(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng, 0.0);
        assert_eq!(r.retired, 0);
        assert_eq!(nodes[1].representative(), Some(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_is_rejected() {
        let topo = Topology::random_uniform(1, 2.0, 1).expect("valid deployment");
        let mut net: Network<ProtocolMsg> =
            Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 2);
        let cfg = SnapshotConfig::default();
        let mut nodes = vec![SensorNode::new(NodeId(0), CacheConfig::default())];
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(3);
        let _ = rotate_representatives(&mut net, &mut nodes, &[1.0], &cfg, Epoch(1), &mut rng, 1.5);
    }
}
