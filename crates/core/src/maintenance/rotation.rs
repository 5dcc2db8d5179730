//! LEACH-style representative rotation (Section 5.1).
//!
//! "Another option is to use randomization in the selection of
//! representatives, similar to the one used in the LEACH data routing
//! protocol. The key idea is to have a rotating set of representatives
//! so that energy resources are drained uniformly." Each cycle, every
//! representative independently steps down with probability
//! `rotation_prob`; its members re-elect, and the retiring node
//! refuses candidacy for that election so the role genuinely moves.

use super::{Cycle, StepDownReport};
use crate::config::SnapshotConfig;
use crate::election::ProtocolMsg;
use crate::sensor::SensorNode;
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::rng::DetRng;
use snapshot_netsim::rng::RngExt;
use snapshot_netsim::Network;

/// Rotate representatives with the given per-representative
/// probability: step-down on a coin flip, then settle. `values[i]` is
/// `N_i`'s current measurement.
pub fn rotate_representatives(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
    rotation_prob: f64,
) -> StepDownReport {
    assert!(
        (0.0..=1.0).contains(&rotation_prob),
        "rotation_prob must be a probability, got {rotation_prob}"
    );
    let mut cycle = Cycle::new(net, nodes, values, cfg, epoch, rng);
    let stepped_down = cycle.step_down(|_, _, rng| rng.random_bool(rotation_prob));
    cycle.settle_step_down(stepped_down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::sensor::Mode;
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
        assert_eq!(r.stepped_down, 1);
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
        assert_eq!(r.stepped_down, 0);
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
