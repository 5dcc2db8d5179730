//! The protocol's wire messages.
//!
//! One payload type covers every protocol the framework runs —
//! election, maintenance, data reporting and tree formation — so a
//! single [`snapshot_netsim::Network`] carries all traffic and the
//! per-phase statistics stay comparable to the paper's Table 2.
//!
//! The two list messages (`Candidates`, `RepresentAck`) share their id
//! list through an `Arc<[NodeId]>`: a broadcast builds the list once,
//! and every receiver but the last gets a refcount bump where a `Vec`
//! payload would cost a heap copy (DESIGN.md §12).

use snapshot_netsim::clock::Epoch;
use snapshot_netsim::flood::FloodToken;
use snapshot_netsim::NodeId;
use std::sync::Arc;

/// Every message the snapshot framework exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolMsg {
    /// "I am looking for a representative" — carries the sender's
    /// current measurement so receivers can test their models.
    Invite {
        /// The sender's current measurement `x_j(t)`.
        value: f64,
        /// Election epoch (time-stamps representative claims).
        epoch: Epoch,
    },
    /// The sender's candidate list: nodes it can represent within the
    /// threshold, plus how many nodes it already represents
    /// (the maintenance-mode score component).
    Candidates {
        /// Nodes the sender can represent.
        cand: Arc<[NodeId]>,
        /// Nodes the sender already represents.
        already: usize,
    },
    /// Unicast: "I accept you as my representative."
    Accept {
        /// Epoch of the acceptance.
        epoch: Epoch,
    },
    /// Unicast: "you need not represent me" (Rule 2 / re-election).
    Recall,
    /// Unicast: "I am going passive; you must stay active" (Rule 3).
    StayActive,
    /// Broadcast acknowledgment: the full member list of the sender;
    /// a member hearing itself listed may go PASSIVE.
    RepresentAck {
        /// All nodes the sender represents.
        members: Arc<[NodeId]>,
    },
    /// Unicast heartbeat from a passive node to its representative,
    /// carrying the current measurement (Section 5.1).
    Heartbeat {
        /// The sender's current measurement.
        value: f64,
    },
    /// Unicast reply to a heartbeat: the representative's estimate of
    /// the member's measurement.
    Estimate {
        /// The estimate `x̂_j(t)`.
        value: f64,
    },
    /// A measurement broadcast in response to a query (the traffic
    /// neighbors snoop on to build models).
    Data {
        /// The sender's measurement.
        value: f64,
    },
    /// Aggregation-tree formation (TAG-style flooding).
    Flood(FloodToken),
    /// A partial aggregate flowing up the aggregation tree during
    /// message-level TAG execution (Section 6.2's in-network
    /// aggregation). Carries the algebraic decomposition every
    /// SQL aggregate in the dialect can be rebuilt from.
    Partial {
        /// Sum of contributing values.
        sum: f64,
        /// Number of contributing values.
        count: u64,
        /// Minimum contributing value (+inf when empty).
        min: f64,
        /// Maximum contributing value (-inf when empty).
        max: f64,
    },
    /// Broadcast by a representative whose battery is low: members
    /// must find themselves a new representative (Section 5.1).
    EnergyHandoff,
}

impl ProtocolMsg {
    /// A `RepresentAck` listing `members`, staged through `buf` so that
    /// the list costs one allocation: the shared slice itself.
    pub fn represent_ack(members: impl IntoIterator<Item = NodeId>, buf: &mut Vec<NodeId>) -> Self {
        buf.clear();
        buf.extend(members);
        ProtocolMsg::RepresentAck {
            members: Arc::from(buf.as_slice()),
        }
    }

    /// Approximate wire size in bytes (for accounting; 4-byte floats
    /// and ids, matching the paper's cache accounting).
    pub fn wire_bytes(&self) -> u32 {
        match self {
            ProtocolMsg::Invite { .. } => 8,
            ProtocolMsg::Candidates { cand, .. } => 8 + 4 * cand.len() as u32,
            ProtocolMsg::Accept { .. } => 8,
            ProtocolMsg::Recall => 4,
            ProtocolMsg::StayActive => 4,
            ProtocolMsg::RepresentAck { members } => 4 + 4 * members.len() as u32,
            ProtocolMsg::Heartbeat { .. } => 8,
            ProtocolMsg::Estimate { .. } => 8,
            ProtocolMsg::Data { .. } => 8,
            ProtocolMsg::Flood(_) => 4,
            ProtocolMsg::Partial { .. } => 20,
            ProtocolMsg::EnergyHandoff => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_lists_grow_on_the_wire() {
        let short = ProtocolMsg::Candidates {
            cand: Arc::from([]),
            already: 0,
        };
        let long = ProtocolMsg::Candidates {
            cand: Arc::from([NodeId(1), NodeId(2), NodeId(3)]),
            already: 0,
        };
        assert!(long.wire_bytes() > short.wire_bytes());
        assert_eq!(long.wire_bytes() - short.wire_bytes(), 12);
    }

    #[test]
    fn a_represent_ack_lists_its_members_in_order() {
        let mut buf = vec![NodeId(9)];
        let msg = ProtocolMsg::represent_ack([NodeId(2), NodeId(5)], &mut buf);
        assert_eq!(
            msg,
            ProtocolMsg::RepresentAck {
                members: Arc::from([NodeId(2), NodeId(5)]),
            }
        );
        assert_eq!(msg.wire_bytes(), 4 + 2 * 4);
    }

    #[test]
    fn control_messages_are_small() {
        assert!(ProtocolMsg::Recall.wire_bytes() <= 8);
        assert!(ProtocolMsg::StayActive.wire_bytes() <= 8);
        assert!(ProtocolMsg::EnergyHandoff.wire_bytes() <= 8);
    }
}
