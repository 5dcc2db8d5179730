//! Network flooding.
//!
//! The paper forms its aggregation trees "using the flooding mechanism
//! described in \[11\]" (TAG, Madden et al.): the sink broadcasts a tree
//! formation message; every node that hears it for the first time
//! records the sender as its parent and rebroadcasts once. Loss applies
//! to every hop, so under heavy loss parts of the network never join
//! the tree — exactly the effect the paper's loss experiments exercise.

use crate::node::NodeId;
use crate::sim::Network;
use snapshot_telemetry::Phase;

/// The payload of a flood message: the hop distance of the sender from
/// the sink. Embed this in the application payload type via the
/// `wrap` / `unwrap` closures of [`flood`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodToken {
    /// Hops from the sink (the sink itself broadcasts 0).
    pub hops: u32,
}

/// Result of a flood: which nodes joined, through whom, at what depth.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    /// The flood's origin.
    pub sink: NodeId,
    /// `parent[i]` is the node from which `N_i` first heard the flood
    /// (`None` if the flood never reached it; the sink's parent is
    /// itself by convention).
    pub parent: Vec<Option<NodeId>>,
    /// Hop distance from the sink (`None` if unreached).
    pub hops: Vec<Option<u32>>,
}

impl FloodOutcome {
    /// Nodes the flood reached (including the sink).
    pub fn reached(&self) -> Vec<NodeId> {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|_| NodeId::from_index(i)))
            .collect()
    }

    /// Number of nodes reached.
    pub fn reached_count(&self) -> usize {
        self.parent.iter().filter(|p| p.is_some()).count()
    }
}

/// Run a flood from `sink` over the network.
///
/// `wrap` embeds a [`FloodToken`] into the application payload type;
/// `unwrap` recognizes flood messages in an inbox (returning `None`
/// for unrelated traffic, which is put back *nowhere* — run floods in
/// a quiescent window, as the paper's experiments do).
///
/// The flood runs for at most `max_rounds` delivery rounds (the
/// network diameter bounds the useful number; `n` is always safe).
/// Each round visits only the alive nodes its delivery woke
/// ([`Network::drain`]), so a round costs what the flood reached, not
/// the deployment.
pub fn flood<P: Clone>(
    net: &mut Network<P>,
    sink: NodeId,
    wrap: impl Fn(FloodToken) -> P,
    unwrap: impl Fn(&P) -> Option<FloodToken>,
    max_rounds: usize,
    phase: Phase,
) -> FloodOutcome {
    let n = net.len();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut hops: Vec<Option<u32>> = vec![None; n];

    if net.is_alive(sink) {
        parent[sink.index()] = Some(sink);
        hops[sink.index()] = Some(0);
        net.broadcast(sink, wrap(FloodToken { hops: 0 }), 4, phase);
    }

    for _ in 0..max_rounds {
        let delivered = net.deliver();
        if delivered == 0 && net.pending() == 0 {
            break;
        }
        let mut joiners: Vec<(NodeId, u32)> = Vec::new();
        // Only the alive nodes this round woke can have heard the flood.
        net.drain(|_, id, mail| {
            if parent[id.index()].is_some() {
                return; // already in the tree
            }
            // Join through the lowest-hop sender heard this round.
            let mut best: Option<(NodeId, u32)> = None;
            for d in mail {
                if let Some(token) = unwrap(&d.payload) {
                    let better = match best {
                        None => true,
                        Some((_, h)) => token.hops < h,
                    };
                    if better {
                        best = Some((d.from, token.hops));
                    }
                }
            }
            if let Some((from, h)) = best {
                parent[id.index()] = Some(from);
                hops[id.index()] = Some(h + 1);
                joiners.push((id, h + 1));
            }
        });
        if joiners.is_empty() && net.pending() == 0 {
            break;
        }
        for (id, h) in joiners {
            net.broadcast(id, wrap(FloodToken { hops: h }), 4, phase);
        }
    }
    // Drain any leftover flood traffic so later protocol phases start clean.
    net.deliver();
    net.drain(|_, _, _| {});

    FloodOutcome { sink, parent, hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyModel;
    use crate::link::LinkModel;
    use crate::topology::{Position, Topology};

    fn line_net(n: usize, loss: f64, seed: u64) -> Network<FloodToken> {
        let positions = (0..n).map(|i| Position::new(i as f64 * 0.1, 0.0)).collect();
        let topo = Topology::new(positions, 0.15).unwrap();
        Network::new(
            topo,
            LinkModel::iid_loss(loss),
            EnergyModel::default(),
            seed,
        )
    }

    #[test]
    fn lossless_flood_reaches_everyone_with_correct_hops() {
        let mut net = line_net(6, 0.0, 1);
        let out = flood(&mut net, NodeId(0), |t| t, |t| Some(*t), 10, Phase::Flood);
        assert_eq!(out.reached_count(), 6);
        for i in 0..6 {
            assert_eq!(out.hops[i], Some(i as u32));
        }
        // Parents form a chain back to the sink.
        for i in 1..6 {
            assert_eq!(out.parent[i], Some(NodeId(i as u32 - 1)));
        }
        assert_eq!(out.parent[0], Some(NodeId(0)));
    }

    #[test]
    fn total_loss_reaches_only_the_sink() {
        let mut net = line_net(6, 1.0, 1);
        let out = flood(&mut net, NodeId(0), |t| t, |t| Some(*t), 10, Phase::Flood);
        assert_eq!(out.reached_count(), 1);
        assert_eq!(out.reached(), vec![NodeId(0)]);
    }

    #[test]
    fn dead_sink_floods_nothing() {
        let mut net = line_net(4, 0.0, 1);
        net.kill(NodeId(0));
        let out = flood(&mut net, NodeId(0), |t| t, |t| Some(*t), 10, Phase::Flood);
        assert_eq!(out.reached_count(), 0);
    }

    #[test]
    fn flood_routes_around_dead_nodes() {
        // Full connectivity: everyone hears the sink directly even if
        // one intermediate node is dead.
        let positions = (0..5)
            .map(|i| Position::new(i as f64 * 0.01, 0.0))
            .collect();
        let topo = Topology::new(positions, 1.0).unwrap();
        let mut net: Network<FloodToken> =
            Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 1);
        net.kill(NodeId(2));
        let out = flood(&mut net, NodeId(0), |t| t, |t| Some(*t), 10, Phase::Flood);
        assert_eq!(out.reached_count(), 4);
        assert_eq!(out.parent[2], None);
    }

    #[test]
    fn each_node_rebroadcasts_at_most_once() {
        let mut net = line_net(8, 0.0, 3);
        let _ = flood(&mut net, NodeId(0), |t| t, |t| Some(*t), 20, Phase::Flood);
        for id in net.node_ids().collect::<Vec<_>>() {
            assert!(net.stats().sent_by(id) <= 1, "{id} sent more than once");
        }
    }
}
