//! Spurious-representative reconciliation (Section 3).
//!
//! A lost Rule-2 recall leaves a node believing it still represents a
//! member that elected somebody else. The paper: "This can be detected
//! and corrected by having time-stamps describing the time that a node
//! N_i was elected as the representative of N_j and using the latest
//! representative based on these time-stamps. ... This filtering and
//! self-correction is performed by the network, transparently from the
//! application."
//!
//! The mechanism here is the natural protocol reading: every
//! representative periodically broadcasts its member list (the same
//! `RepresentAck` used during refinement); any member that hears a
//! stale claim — a list naming it, sent by a node that is *not* its
//! current representative — answers with a `Recall`, and the claimant
//! drops it.

use crate::election::ProtocolMsg;
use crate::sensor::SensorNode;
use snapshot_netsim::{Network, NodeId, Phase};

/// Outcome of one reconciliation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Representatives that announced their member lists.
    pub announcements: usize,
    /// Stale claims members objected to.
    pub objections: usize,
    /// Claims actually dropped (objections that were delivered).
    pub corrected: usize,
}

/// Run one announce/objection/correction pass. Message loss can leave
/// residual stale claims; repeated passes converge.
pub fn reconcile(net: &mut Network<ProtocolMsg>, nodes: &mut [SensorNode]) -> ReconcileReport {
    let n = nodes.len();
    let mut report = ReconcileReport {
        announcements: 0,
        objections: 0,
        corrected: 0,
    };

    // Announce, staging every member list through one buffer.
    let mut members = Vec::new();
    for i in (0..n).map(NodeId::from_index) {
        if !net.is_alive(i) {
            continue;
        }
        let node = &nodes[i.index()];
        if node.member_count() > 0 {
            let msg = ProtocolMsg::represent_ack(node.members(), &mut members);
            let bytes = msg.wire_bytes();
            net.broadcast(i, msg, bytes, Phase::Announce);
            report.announcements += 1;
        }
    }
    net.deliver();

    // Object to stale claims.
    let mut objections: Vec<(NodeId, NodeId)> = Vec::new();
    net.drain(|_, i, mail| {
        let node = &nodes[i.index()];
        for d in mail {
            if let ProtocolMsg::RepresentAck { members } = d.payload {
                if members.contains(&i) && node.representative() != Some(d.from) {
                    objections.push((i, d.from));
                }
            }
        }
    });
    report.objections = objections.len();
    for (i, claimant) in objections {
        net.unicast(
            i,
            claimant,
            ProtocolMsg::Recall,
            ProtocolMsg::Recall.wire_bytes(),
            Phase::Announce,
        );
    }
    net.deliver();

    // Corrections.
    net.drain(|_, i, mail| {
        let node = &mut nodes[i.index()];
        for d in mail {
            if matches!(d.payload, ProtocolMsg::Recall)
                && d.addressed
                && node.represents.remove(&d.from).is_some()
            {
                report.corrected += 1;
            }
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::sensor::Mode;
    use crate::snapshot::count_spurious;
    use snapshot_netsim::clock::Epoch;
    use snapshot_netsim::prelude::*;

    fn setup(n: usize, loss: f64) -> (Network<ProtocolMsg>, Vec<SensorNode>) {
        let topo = Topology::random_uniform(n, 2.0, 3).expect("valid deployment");
        let net = Network::new(topo, LinkModel::iid_loss(loss), EnergyModel::default(), 11);
        let nodes = (0..n)
            .map(|i| SensorNode::new(NodeId::from_index(i), CacheConfig::default()))
            .collect();
        (net, nodes)
    }

    #[test]
    fn stale_claim_is_corrected() {
        let (mut net, mut nodes) = setup(3, 0.0);
        // Node 2's true representative is node 1; node 0 has a stale claim.
        nodes[2].mode = Mode::Passive;
        nodes[2].rep_of = Some((NodeId(1), Epoch(2)));
        nodes[1].represents.insert(NodeId(2), Epoch(2));
        nodes[0].represents.insert(NodeId(2), Epoch(1));
        assert_eq!(count_spurious(&nodes), 1);

        let r = reconcile(&mut net, &mut nodes);
        assert_eq!(r.announcements, 2);
        assert_eq!(r.objections, 1);
        assert_eq!(r.corrected, 1);
        assert_eq!(count_spurious(&nodes), 0);
        // The genuine claim survives.
        assert_eq!(nodes[1].member_count(), 1);
    }

    #[test]
    fn consistent_network_is_untouched() {
        let (mut net, mut nodes) = setup(2, 0.0);
        nodes[1].mode = Mode::Passive;
        nodes[1].rep_of = Some((NodeId(0), Epoch(1)));
        nodes[0].represents.insert(NodeId(1), Epoch(1));
        let r = reconcile(&mut net, &mut nodes);
        assert_eq!(r.objections, 0);
        assert_eq!(r.corrected, 0);
        assert_eq!(nodes[0].member_count(), 1);
    }

    #[test]
    fn repeated_passes_converge_under_loss() {
        let (mut net, mut nodes) = setup(4, 0.4);
        nodes[3].mode = Mode::Passive;
        nodes[3].rep_of = Some((NodeId(1), Epoch(5)));
        nodes[1].represents.insert(NodeId(3), Epoch(5));
        nodes[0].represents.insert(NodeId(3), Epoch(1));
        nodes[2].represents.insert(NodeId(3), Epoch(2));
        for _ in 0..50 {
            if count_spurious(&nodes) == 0 {
                break;
            }
            reconcile(&mut net, &mut nodes);
        }
        assert_eq!(count_spurious(&nodes), 0, "reconciliation never converged");
        assert_eq!(nodes[1].member_count(), 1);
    }
}
