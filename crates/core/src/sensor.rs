//! The per-node state machine.
//!
//! Each sensor owns its model cache, its mode flag (undefined /
//! ACTIVE / PASSIVE, Section 5), its view of who represents it and whom
//! it represents, and the per-election scratch state (offers heard,
//! candidate list, refinement-rule flags). The election engine and the
//! maintenance protocol drive these nodes by delivering messages; no
//! component ever reads another node's private state directly.
//!
//! The per-election scratch lives in `Vec`s that `reset_scratch`
//! clears without freeing, so a node pays for its scratch once, not
//! once per election.

use crate::cache::{CacheConfig, ModelCache};
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::NodeId;
use std::collections::BTreeMap;

/// A node's mode flag (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Not yet decided in the current election.
    Undefined,
    /// Represents a non-empty set of nodes (including, by default,
    /// itself); responds to snapshot queries.
    Active,
    /// Represented by another node; stays silent during snapshot
    /// queries.
    Passive,
}

/// An offer of representation heard during an election: `from` claims
/// it can represent this node, along with the size of its candidate
/// list and the number of nodes it already represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// The candidate representative.
    pub from: NodeId,
    /// `length(Cand_nodes_from)` in this election.
    pub cand_len: usize,
    /// Nodes `from` already represents (used by maintenance-mode
    /// selection, Section 5.1).
    pub already: usize,
}

impl Offer {
    /// The paper's selection score. Initial elections rank offers by
    /// candidate-list length alone; maintenance re-elections add the
    /// number of nodes the candidate already represents.
    pub fn score(&self, count_already: bool) -> usize {
        self.cand_len + if count_already { self.already } else { 0 }
    }
}

/// One sensor node's complete protocol state.
#[derive(Debug, Clone)]
pub struct SensorNode {
    id: NodeId,
    /// The model cache (public: the cache manager has its own API).
    pub cache: ModelCache,
    pub(crate) mode: Mode,
    /// Who represents this node: `None` means "myself" (the default).
    pub(crate) rep_of: Option<(NodeId, Epoch)>,
    /// Nodes this node believes it represents, with the epoch of
    /// their election (used to filter spurious claims).
    pub(crate) represents: BTreeMap<NodeId, Epoch>,

    // ---- per-election scratch ----
    /// Nodes this node offered to represent in the current election.
    pub(crate) cand_list: Vec<NodeId>,
    /// Offers heard in the current election.
    pub(crate) offers: Vec<Offer>,
    /// Candidate-list lengths overheard (for Rule-0 tie-breaks), as
    /// `(sender, length)` ascending by sender.
    heard_cand_len: Vec<(NodeId, usize)>,
    /// Refinement bookkeeping: whether the Rule-2 recall has been sent
    /// this election (at most one, per the paper's message bound).
    pub(crate) sent_recall: bool,
    /// Rule-3: the representative whose acknowledgment this node is
    /// waiting for before going PASSIVE.
    pub(crate) waiting_ack_from: Option<NodeId>,
    /// Rounds until the Rule-3 notification may be re-sent. Under
    /// perfect links the acknowledgment arrives before the first
    /// retry, so exactly one notification is sent (the paper's <= 2
    /// refinement messages); retries only fire when loss ate the
    /// handshake ("Lost acknowledgments are handled by Rule-4" is the
    /// final backstop).
    pub(crate) notify_cooldown: u8,
    /// Representatives overheard acknowledging this node as a member.
    /// An overheard acknowledgment is as good as an addressed one —
    /// the representative is ACTIVE and lists us — so Rule 3 can go
    /// PASSIVE without a further exchange. Ascending, no repeats.
    acked_reps: Vec<NodeId>,
    /// Rounds spent with an undefined mode (drives Rule-4).
    pub(crate) rounds_undefined: u32,
    /// Whether this node was forced ACTIVE by the Rule-4 timeout.
    pub(crate) forced_active: bool,
    /// Members that asked this node to stay active and have not yet
    /// been acknowledged.
    pub(crate) pending_ack_members: Vec<NodeId>,
    /// Set while the node is deliberately shedding load (energy
    /// handoff): it ignores invitations instead of offering candidacy.
    pub(crate) refusing_invites: bool,
}

impl SensorNode {
    /// A fresh node with an empty cache.
    pub fn new(id: NodeId, cache_config: CacheConfig) -> Self {
        SensorNode {
            id,
            cache: ModelCache::new(cache_config),
            mode: Mode::Active, // a lone node answers for itself
            rep_of: None,
            represents: BTreeMap::new(),
            cand_list: Vec::new(),
            offers: Vec::new(),
            heard_cand_len: Vec::new(),
            sent_recall: false,
            waiting_ack_from: None,
            notify_cooldown: 0,
            acked_reps: Vec::new(),
            rounds_undefined: 0,
            forced_active: false,
            pending_ack_members: Vec::new(),
            refusing_invites: false,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current mode flag.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The node representing this one (`None` = itself).
    pub fn representative(&self) -> Option<NodeId> {
        self.rep_of.map(|(id, _)| id)
    }

    /// Epoch at which the current representative was accepted.
    pub fn representative_epoch(&self) -> Option<Epoch> {
        self.rep_of.map(|(_, e)| e)
    }

    /// The nodes this node believes it represents (never includes
    /// itself; self-representation is implicit).
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.represents.keys().copied()
    }

    /// Number of represented nodes (excluding itself).
    pub fn member_count(&self) -> usize {
        self.represents.len()
    }

    /// True when this node answers snapshot queries.
    pub fn is_active(&self) -> bool {
        self.mode == Mode::Active
    }

    /// Reset all election state for a brand-new full election: mode
    /// undefined, representation links cleared, scratch cleared.
    pub(crate) fn reset_for_full_election(&mut self) {
        self.mode = Mode::Undefined;
        self.rep_of = None;
        self.represents.clear();
        self.reset_scratch();
    }

    /// Reset only the per-election scratch (partial / maintenance
    /// elections keep standing representation links).
    pub(crate) fn reset_scratch(&mut self) {
        self.cand_list.clear();
        self.offers.clear();
        self.heard_cand_len.clear();
        self.sent_recall = false;
        self.waiting_ack_from = None;
        self.notify_cooldown = 0;
        self.acked_reps.clear();
        self.rounds_undefined = 0;
        self.forced_active = false;
        self.pending_ack_members.clear();
    }

    /// Pick the best offer: maximum score, ties broken by the larger
    /// node id (the paper's tie-break).
    pub(crate) fn best_offer(&self, count_already: bool) -> Option<Offer> {
        self.offers
            .iter()
            .copied()
            .max_by_key(|o| (o.score(count_already), o.from))
    }

    /// Record that `from` broadcast a candidate list of `len` nodes in
    /// this election (a repeat overwrites).
    pub(crate) fn hear_cand_len(&mut self, from: NodeId, len: usize) {
        upsert_sorted(&mut self.heard_cand_len, (from, len), |&(id, _)| id);
    }

    /// `length(Cand_nodes_j)` as overheard in this election, 0 when
    /// the broadcast was lost.
    pub(crate) fn heard_len(&self, j: NodeId) -> usize {
        match self.heard_cand_len.binary_search_by_key(&j, |&(id, _)| id) {
            Ok(k) => self.heard_cand_len[k].1,
            Err(_) => 0,
        }
    }

    /// Record that representative `rep` was overheard acknowledging
    /// this node as a member in this election.
    pub(crate) fn hear_ack(&mut self, rep: NodeId) {
        upsert_sorted(&mut self.acked_reps, rep, |&id| id);
    }

    /// Whether `rep` was overheard acknowledging this node as a member
    /// in this election (Rule 3).
    pub(crate) fn acked_by(&self, rep: NodeId) -> bool {
        self.acked_reps.binary_search(&rep).is_ok()
    }
}

/// Put `item` into `list`, which is kept ascending by `key`, replacing
/// the entry with the same key if there is one. A delivery round hands
/// a node its messages in ascending sender order, so the usual case is
/// one compare and a push; anything else takes a binary search.
fn upsert_sorted<T, K: Ord>(list: &mut Vec<T>, item: T, key: impl Fn(&T) -> K) {
    let k = key(&item);
    if list.last().is_none_or(|last| key(last) < k) {
        list.push(item);
        return;
    }
    match list.binary_search_by(|e| key(e).cmp(&k)) {
        Ok(at) => list[at] = item,
        Err(at) => list.insert(at, item),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use snapshot_netsim::rng::{DetRng, RngExt};
    use std::collections::BTreeSet;

    fn node(id: u32) -> SensorNode {
        SensorNode::new(NodeId(id), CacheConfig::default())
    }

    #[test]
    fn fresh_node_represents_itself_actively() {
        let n = node(3);
        assert_eq!(n.mode(), Mode::Active);
        assert_eq!(n.representative(), None);
        assert_eq!(n.member_count(), 0);
        assert!(n.is_active());
    }

    #[test]
    fn full_reset_clears_links_and_mode() {
        let mut n = node(1);
        n.rep_of = Some((NodeId(2), Epoch(1)));
        n.represents.insert(NodeId(3), Epoch(1));
        n.reset_for_full_election();
        assert_eq!(n.mode(), Mode::Undefined);
        assert_eq!(n.representative(), None);
        assert_eq!(n.member_count(), 0);
    }

    #[test]
    fn scratch_reset_keeps_links() {
        let mut n = node(1);
        n.rep_of = Some((NodeId(2), Epoch(1)));
        n.represents.insert(NodeId(3), Epoch(1));
        n.sent_recall = true;
        n.reset_scratch();
        assert_eq!(n.representative(), Some(NodeId(2)));
        assert_eq!(n.member_count(), 1);
        assert!(!n.sent_recall);
    }

    #[test]
    fn best_offer_prefers_longer_lists_then_larger_ids() {
        let mut n = node(0);
        n.offers = vec![
            Offer {
                from: NodeId(5),
                cand_len: 2,
                already: 0,
            },
            Offer {
                from: NodeId(9),
                cand_len: 3,
                already: 0,
            },
            Offer {
                from: NodeId(7),
                cand_len: 3,
                already: 0,
            },
        ];
        // Longest list wins; tie between 9 and 7 goes to the larger id.
        assert_eq!(n.best_offer(false).unwrap().from, NodeId(9));
    }

    #[test]
    fn maintenance_scoring_adds_current_members() {
        let mut n = node(0);
        n.offers = vec![
            Offer {
                from: NodeId(1),
                cand_len: 2,
                already: 0,
            },
            Offer {
                from: NodeId(2),
                cand_len: 1,
                already: 4,
            },
        ];
        // Initial-mode scoring ignores `already`.
        assert_eq!(n.best_offer(false).unwrap().from, NodeId(1));
        // Maintenance-mode scoring counts it (Section 5.1).
        assert_eq!(n.best_offer(true).unwrap().from, NodeId(2));
    }

    #[test]
    fn no_offers_means_no_representative() {
        let n = node(0);
        assert!(n.best_offer(true).is_none());
    }

    #[test]
    fn heard_len_defaults_to_zero_for_lost_broadcasts() {
        let mut n = node(0);
        n.hear_cand_len(NodeId(4), 7);
        assert_eq!(n.heard_len(NodeId(4)), 7);
        assert_eq!(n.heard_len(NodeId(5)), 0);
    }

    /// The order in which one election's senders reach a node.
    #[derive(Clone, Copy, Debug)]
    enum Sweep {
        /// Ascending with gaps: a delivery round of candidate lists.
        Ascending,
        /// Any order: a node's traffic from several rounds.
        Shuffled,
        /// Ascending, then earlier senders heard again.
        Repeats,
    }

    fn senders(rng: &mut DetRng, sweep: Sweep, ids: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = (0..ids)
            .filter(|_| rng.random_bool(0.6))
            .map(NodeId)
            .collect();
        match sweep {
            Sweep::Ascending => {}
            Sweep::Shuffled => {
                for i in (1..out.len()).rev() {
                    out.swap(i, rng.random_range(0..=i));
                }
            }
            Sweep::Repeats => {
                for _ in 0..out.len() / 2 {
                    let again = out[rng.random_range(0..out.len())];
                    out.push(again);
                }
            }
        }
        out
    }

    /// Hold the scratch to the ordered map and set it replaced: after
    /// every heard candidate list or acknowledgment, the scratch holds
    /// exactly the reference's entries in its order, and `heard_len`
    /// and `acked_by` answer for every id as the reference does, across
    /// elections separated by `reset_scratch`.
    fn scratch_answers_as_ordered_maps_do(sweep: Sweep, seed: u64) {
        const IDS: u32 = 24;
        let mut rng = DetRng::seed_from_u64(seed);
        let mut n = node(0);
        for election in 0..60 {
            n.reset_scratch();
            let mut lens: BTreeMap<NodeId, usize> = BTreeMap::new();
            let mut acks: BTreeSet<NodeId> = BTreeSet::new();
            for from in senders(&mut rng, sweep, IDS) {
                if rng.random_bool(0.75) {
                    let len = rng.random_range(0..12usize);
                    n.hear_cand_len(from, len);
                    lens.insert(from, len);
                } else {
                    n.hear_ack(from);
                    acks.insert(from);
                }
                let at = format!("{sweep:?} election {election}, after {from:?}");
                let entries: Vec<(NodeId, usize)> = lens.iter().map(|(&j, &l)| (j, l)).collect();
                assert_eq!(n.heard_cand_len, entries, "{at}");
                assert!(n.acked_reps.iter().eq(&acks), "{at}");
                for j in (0..IDS + 2).map(NodeId) {
                    let len = lens.get(&j).copied().unwrap_or(0);
                    assert_eq!(n.heard_len(j), len, "{at}, id {j:?}");
                    assert_eq!(n.acked_by(j), acks.contains(&j), "{at}, id {j:?}");
                }
            }
        }
    }

    #[test]
    fn scratch_matches_the_maps_on_ascending_sweeps_with_gaps() {
        scratch_answers_as_ordered_maps_do(Sweep::Ascending, 1);
    }

    #[test]
    fn scratch_matches_the_maps_on_out_of_order_senders() {
        scratch_answers_as_ordered_maps_do(Sweep::Shuffled, 2);
    }

    #[test]
    fn scratch_matches_the_maps_on_repeated_senders() {
        scratch_answers_as_ordered_maps_do(Sweep::Repeats, 3);
    }

    #[test]
    fn scratch_keeps_its_capacity_across_elections() {
        let mut n = node(0);
        for j in 1..=8 {
            n.hear_cand_len(NodeId(j), 1);
            n.hear_ack(NodeId(j));
        }
        let caps = (n.heard_cand_len.capacity(), n.acked_reps.capacity());
        n.reset_scratch();
        assert_eq!(n.heard_len(NodeId(3)), 0);
        assert!(!n.acked_by(NodeId(3)));
        assert_eq!((n.heard_cand_len.capacity(), n.acked_reps.capacity()), caps);
    }
}
