//! The election engine: invitation → model evaluation → initial
//! selection → refinement (Rules 0–4 of Figure 5).
//!
//! Two entry points share one implementation:
//!
//! * [`run_full_election`] — the initial, network-wide discovery: all
//!   representation state is reset, every alive node invites, and
//!   offers are ranked by candidate-list length alone.
//! * [`run_maintenance_election`] — the Section 5.1 re-election: only
//!   the given initiators invite (nodes whose representative failed or
//!   drifted, or self-only actives fishing for a representative);
//!   standing representation links are preserved, and offers are
//!   ranked by candidate-list length *plus* the number of nodes the
//!   candidate already represents.
//!
//! Each phase is one method of the private `Election` state (see the
//! phase table in the `election` module docs); `settle` then tallies
//! the outcome.
//!
//! Everything is exchanged as real messages over the lossy broadcast;
//! a lost `Recall` leaves a *spurious representative* behind (counted
//! by Figure 13), a lost `RepresentAck` parks the waiting node in
//! UNDEFINED until Rule 4 times it out into ACTIVE.

use crate::config::SnapshotConfig;
use crate::election::messages::ProtocolMsg;
use crate::sensor::{Mode, Offer, SensorNode};
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::rng::DetRng;
use snapshot_netsim::rng::RngExt;
use snapshot_netsim::{Event, Network, NodeId, Phase, SpanKind};
use std::sync::Arc;

/// Rule 4's timeout (the paper's `MAX_WAIT`): refinement rounds a node
/// may wait UNDEFINED before the rule can force it ACTIVE.
const MAX_WAIT: u32 = 10;
/// Rule 4's per-round switch probability past [`MAX_WAIT`] (the
/// paper's `P_wait`), which avoids synchronized switches.
const P_WAIT: f64 = 0.5;

/// Summary of one election run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// The epoch stamped on every acceptance of this election.
    pub epoch: Epoch,
    /// Refinement rounds executed before the protocol settled.
    pub refinement_rounds: u32,
    /// Alive ACTIVE nodes after the election — the snapshot size `n1`.
    pub snapshot_size: usize,
    /// Alive PASSIVE nodes.
    pub passive: usize,
    /// Nodes forced ACTIVE by the Rule-4 timeout (lost handshakes,
    /// circular dependencies).
    pub forced_active: usize,
}

/// Per-node "is electing" flags for a deployment of `n` nodes, built
/// once per election so every membership test is O(1): everyone in a
/// full election (`None`), else the initiators. The slice may be in any
/// order and hold duplicates; ids outside the deployment elect nobody.
fn electing_flags(initiators: Option<&[NodeId]>, n: usize) -> Vec<bool> {
    let Some(set) = initiators else {
        return vec![true; n];
    };
    let mut flags = vec![false; n];
    for id in set {
        if let Some(flag) = flags.get_mut(id.index()) {
            *flag = true;
        }
    }
    flags
}

/// Run the initial, network-wide election (Section 5, Figure 2).
pub fn run_full_election(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
) -> ElectionOutcome {
    run_election(net, nodes, values, cfg, epoch, rng, None)
}

/// Run a maintenance re-election for the given initiators
/// (Section 5.1). Offers are scored by candidate-list length plus the
/// candidate's current member count.
pub fn run_maintenance_election(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
    initiators: &[NodeId],
) -> ElectionOutcome {
    run_election(net, nodes, values, cfg, epoch, rng, Some(initiators))
}

/// An election among `initiators`, or a full one when `None`.
fn run_election(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
    initiators: Option<&[NodeId]>,
) -> ElectionOutcome {
    debug_assert_eq!(nodes.len(), values.len());
    let election_span = net.open_span(SpanKind::Election);
    let n = nodes.len();
    let mut election = Election {
        net,
        nodes,
        values,
        cfg,
        rng,
        epoch,
        maintenance: initiators.is_some(),
        electing: electing_flags(initiators, n),
        old_rep: vec![None; n],
        listed: Vec::with_capacity(n),
    };
    election.reset(initiators);
    election.invite();
    election.candidates();
    election.accept();
    let rounds = election.refine();
    let outcome = election.settle(rounds);
    election.net.close_span(election_span);
    outcome
}

/// The state one election's phases share.
struct Election<'a> {
    net: &'a mut Network<ProtocolMsg>,
    nodes: &'a mut [SensorNode],
    values: &'a [f64],
    cfg: &'a SnapshotConfig,
    rng: &'a mut DetRng,
    epoch: Epoch,
    /// Offers also count the members a candidate already represents.
    maintenance: bool,
    electing: Vec<bool>,
    /// The representative each initiator abandons, recalled on a change.
    old_rep: Vec<Option<NodeId>>,
    /// The nodes a drain picks to send once it ends: the hearers that
    /// offer candidacy, then the initiators that chose a
    /// representative. Sized `n` once per election.
    listed: Vec<NodeId>,
}

impl Election<'_> {
    /// Clear every node's election scratch, down nodes included: one
    /// that an outage revives mid-election must not carry its last
    /// election's lists and offers into this one. A full election also
    /// drops the representation of every alive node (a dead member
    /// stays covered through the representative it keeps); a
    /// maintenance election unsettles only its initiators, remembering
    /// the representative each abandons.
    fn reset(&mut self, initiators: Option<&[NodeId]>) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if initiators.is_none() && self.net.is_alive(NodeId::from_index(i)) {
                node.reset_for_full_election();
            } else {
                node.reset_scratch();
            }
        }
        for &i in initiators.unwrap_or_default() {
            if !self.net.is_alive(i) {
                continue;
            }
            let node = &mut self.nodes[i.index()];
            self.old_rep[i.index()] = node.representative();
            node.mode = Mode::Undefined;
            node.rep_of = None;
        }
    }

    /// Open `kind`'s span and record that `phase` starts at this tick.
    fn open_phase(&mut self, kind: SpanKind, phase: Phase) -> u64 {
        let span = self.net.open_span(kind);
        self.net.emit(Event::ElectionPhase {
            tick: self.net.round(),
            epoch: self.epoch.0,
            phase,
        });
        span
    }

    /// Phase 1, invitation: every alive initiator broadcasts its
    /// current measurement.
    fn invite(&mut self) {
        let span = self.open_phase(SpanKind::ElectionInvite, Phase::Invitation);
        let epoch = self.epoch;
        for j in (0..self.nodes.len()).map(NodeId::from_index) {
            if self.net.is_alive(j) && self.electing[j.index()] {
                let value = self.values[j.index()];
                let msg = ProtocolMsg::Invite { value, epoch };
                let bytes = msg.wire_bytes();
                self.net.broadcast(j, msg, bytes, Phase::Invitation);
            }
        }
        self.net.deliver();
        self.net.close_span(span);
    }

    /// Phase 2, model evaluation: each hearer lists the inviters its
    /// cache predicts within the threshold and, if it can afford the
    /// role, broadcasts that candidate list.
    fn candidates(&mut self) {
        let span = self.open_phase(SpanKind::ElectionCandidates, Phase::Candidates);
        let cfg = self.cfg;
        // List the hearers that offer candidacy; they broadcast once
        // every hearer has built its list.
        self.listed.clear();
        self.net.drain(|net, i, mail| {
            // Nodes shedding load — or too drained to take on the role —
            // do not offer candidacy ("a representative node that finds
            // its energy capacity fall below a threshold value ... simply
            // ignores these invitations", Section 5.1).
            let drained = cfg.energy_handoff_fraction > 0.0
                && net.battery(i).fraction() < cfg.energy_handoff_fraction;
            let node = &mut self.nodes[i.index()];
            if node.refusing_invites || drained {
                return;
            }
            let own = self.values[i.index()];
            for d in mail {
                if let ProtocolMsg::Invite { value, .. } = d.payload {
                    if d.from == i {
                        continue;
                    }
                    if let Some(est) = node.cache.estimate(d.from, own) {
                        if cfg.metric.within(value, est, cfg.threshold) {
                            node.cand_list.push(d.from);
                        }
                    }
                    // Maintenance invitations carry the inviter's fresh
                    // measurement; hearers cache it (after evaluating
                    // their pre-invite model, which is what the candidacy
                    // test must use). Invitations are rare, explicit
                    // announcements — unlike ambient data traffic they are
                    // always worth offering to the cache manager, whose
                    // model-aware admission policy decides whether the
                    // pair earns its keep. This keeps models of drifting
                    // nodes from going permanently stale between
                    // elections.
                    if self.maintenance
                        && cfg.invite_learn_prob > 0.0
                        && self.rng.random_bool(cfg.invite_learn_prob)
                    {
                        let decision = node.cache.observe(d.from, own, value);
                        net.charge_cache_update(i);
                        crate::trace::record_cache_decision(net, i, d.from, &decision, &node.cache);
                    }
                }
            }
            if node.cand_list.is_empty() {
                return;
            }
            // Energy viability (only when the handoff mechanism is in
            // force): taking on `cand_list.len()` members means paying
            // roughly three messages per member for the election plus
            // a heartbeat-reply round — a candidate that would hit its
            // own handoff floor immediately after winning must not
            // offer, or the role churns from one exhausted node to the
            // next, billing the members for each move.
            let viable = cfg.energy_handoff_fraction == 0.0 || {
                let prospective = node.cand_list.len() + node.member_count();
                let battery = net.battery(i);
                let need = (3 * prospective) as f64 * net.energy_model().tx_cost
                    + 0.05 * battery.capacity();
                battery.remaining() >= need
            };
            if viable {
                self.listed.push(i);
            } else {
                node.cand_list.clear();
            }
        });
        for &i in &self.listed {
            let node = &self.nodes[i.index()];
            let msg = ProtocolMsg::Candidates {
                cand: Arc::from(node.cand_list.as_slice()),
                already: node.member_count(),
            };
            let bytes = msg.wire_bytes();
            self.net.broadcast(i, msg, bytes, Phase::Candidates);
        }
        self.net.deliver();
        self.net.close_span(span);
    }

    /// Phase 3, initial selection: every hearer notes each list's
    /// length (Rule 0 compares them), each initiator accepts the best
    /// list naming it and recalls the representative it abandons, and
    /// representatives record the acceptances that arrive.
    fn accept(&mut self) {
        let span = self.open_phase(SpanKind::ElectionAccept, Phase::Accept);
        let epoch = self.epoch;
        // Each alive initiator chooses inside its own visit, among the
        // offers it just heard: offers are cleared at reset and pushed
        // only here. Nothing else in this drain emits, draws or sends,
        // so choosing here keeps the trace and the outbox in id order.
        // The chosen initiators' acceptances are unicast once every
        // initiator has chosen.
        self.listed.clear();
        self.net.drain(|net, j, mail| {
            let node = &mut self.nodes[j.index()];
            let electing = self.electing[j.index()];
            for d in mail {
                if let ProtocolMsg::Candidates { cand, already } = d.payload {
                    node.hear_cand_len(d.from, cand.len());
                    if electing && cand.contains(&j) {
                        node.offers.push(Offer {
                            from: d.from,
                            cand_len: cand.len(),
                            already,
                        });
                    }
                }
            }
            if !electing {
                return;
            }
            // No offers: rep_of stays None; Rule 1 will set ACTIVE.
            let Some(best) = node.best_offer(self.maintenance) else {
                return;
            };
            node.rep_of = Some((best.from, epoch));
            self.listed.push(j);
            if net.telemetry_enabled() {
                net.emit(Event::InviteAccepted {
                    tick: net.round(),
                    member: j.0,
                    rep: best.from.0,
                    epoch: epoch.0,
                });
            }
            // A maintenance initiator abandoning a different
            // representative recalls it (best effort; a lost recall
            // leaves a spurious representative behind).
            if let Some(old) = self.old_rep[j.index()].filter(|&old| old != best.from) {
                let msg = ProtocolMsg::Recall;
                let bytes = msg.wire_bytes();
                net.unicast(j, old, msg, bytes, Phase::Refinement);
            }
        });
        for &j in &self.listed {
            let Some((rep, _)) = self.nodes[j.index()].rep_of else {
                continue;
            };
            let msg = ProtocolMsg::Accept { epoch };
            let bytes = msg.wire_bytes();
            self.net.unicast(j, rep, msg, bytes, Phase::Accept);
        }
        self.net.deliver();

        // Acceptances arrive.
        self.net.drain(|_, i, mail| {
            let node = &mut self.nodes[i.index()];
            for d in mail {
                if !d.addressed {
                    continue;
                }
                match d.payload {
                    ProtocolMsg::Accept { epoch: e } => {
                        node.represents.insert(d.from, e);
                        // In a maintenance election an already-settled node
                        // (possibly PASSIVE) gaining a member must serve it.
                        if self.maintenance && node.mode == Mode::Passive {
                            node.mode = Mode::Active;
                        }
                    }
                    ProtocolMsg::Recall => {
                        node.represents.remove(&d.from);
                    }
                    _ => {}
                }
            }
        });
        self.net.close_span(span);
    }

    /// Phase 4, refinement: rounds of Rules 0–4 and their messages
    /// until no alive node is UNDEFINED and nothing is in flight, or
    /// until the hard cap. Returns the rounds run.
    fn refine(&mut self) -> u32 {
        let span = self.open_phase(SpanKind::ElectionRefine, Phase::Refinement);
        let hard_cap = MAX_WAIT + 16;
        // Staging buffer for acknowledgment member lists, reused by every
        // representative so that each broadcast allocates only its list.
        let mut members = Vec::new();
        let mut rounds = 0u32;
        for round in 0..hard_cap {
            rounds = round + 1;
            self.apply_rules();
            // Representatives acknowledge the members that asked them to
            // stay active: one broadcast listing everyone they represent
            // (the paper's footnote-optimized acknowledgment). The
            // broadcast fires only when a StayActive arrived this round,
            // and waiting members remember *any* overheard member list, so
            // under perfect links every representative broadcasts at most
            // once; repeats happen only when loss forces notify retries.
            for i in (0..self.nodes.len()).map(NodeId::from_index) {
                let node = &mut self.nodes[i.index()];
                if !self.net.is_alive(i) || node.pending_ack_members.is_empty() {
                    continue;
                }
                node.pending_ack_members.clear();
                let msg = ProtocolMsg::represent_ack(node.members(), &mut members);
                let bytes = msg.wire_bytes();
                self.net.broadcast(i, msg, bytes, Phase::Refinement);
            }
            let delivered = self.net.deliver();
            self.hear_refinement();
            // Converged? No undefined node and no traffic in flight.
            let net = &*self.net;
            let unsettled = self.nodes.iter().enumerate().any(|(i, node)| {
                net.is_alive(NodeId::from_index(i))
                    && (node.mode == Mode::Undefined || !node.pending_ack_members.is_empty())
            });
            if !unsettled && delivered == 0 && net.pending() == 0 {
                break;
            }
        }
        self.net.close_span(span);
        rounds
    }

    /// One pass of Rules 0–4 over the alive nodes. Rules 2 and 3 unicast
    /// to the representative as they fire, which keeps the outbox and
    /// the trace in node order only while the pass emits nothing else
    /// and a send charges only its sender.
    fn apply_rules(&mut self) {
        for i in (0..self.nodes.len()).map(NodeId::from_index) {
            if !self.net.is_alive(i) {
                continue;
            }
            let node = &mut self.nodes[i.index()];

            // Rule 0: mutual representation — the stronger candidate
            // (longer list, then larger id) goes ACTIVE.
            if node.mode == Mode::Undefined {
                if let Some((j, _)) = node.rep_of {
                    if j != i && node.represents.contains_key(&j) {
                        let mine = (node.cand_list.len(), i);
                        let theirs = (node.heard_len(j), j);
                        if mine > theirs {
                            node.mode = Mode::Active;
                            node.waiting_ack_from = None;
                        }
                    }
                }
            }

            // Rule 1: nodes that are not represented stay active.
            if node.mode == Mode::Undefined && node.rep_of.is_none() {
                node.mode = Mode::Active;
                node.waiting_ack_from = None;
            }

            // Rule 2: an ACTIVE node recalls its (now redundant)
            // representative.
            if node.mode == Mode::Active && !node.sent_recall {
                if let Some((j, _)) = node.rep_of {
                    if j != i {
                        node.sent_recall = true;
                        node.rep_of = None;
                        let msg = ProtocolMsg::Recall;
                        let bytes = msg.wire_bytes();
                        self.net.unicast(i, j, msg, bytes, Phase::Refinement);
                    }
                }
            }

            // Rule 3: represented, representing nobody -> go passive.
            // If the representative has already been overheard
            // acknowledging this node as a member, it is ACTIVE and
            // aware of us: go PASSIVE with no further exchange.
            // Otherwise ask it to stay active and await the
            // acknowledgment broadcast, re-sending the notification
            // every other round while still waiting (retries only
            // happen when loss ate the handshake; under perfect links
            // the first acknowledgment lands before the cooldown
            // expires).
            if node.mode == Mode::Undefined && node.represents.is_empty() {
                if let Some((j, _)) = node.rep_of {
                    if node.acked_by(j) {
                        node.mode = Mode::Passive;
                        node.waiting_ack_from = None;
                    } else if node.notify_cooldown == 0 {
                        node.waiting_ack_from = Some(j);
                        node.notify_cooldown = 1;
                        let msg = ProtocolMsg::StayActive;
                        let bytes = msg.wire_bytes();
                        self.net.unicast(i, j, msg, bytes, Phase::Refinement);
                    } else {
                        node.notify_cooldown -= 1;
                    }
                }
            }

            // Rule 4: timeout. A node stuck UNDEFINED past MAX_WAIT
            // flips ACTIVE with probability P_wait per round, avoiding
            // a synchronized stampede.
            if node.mode == Mode::Undefined {
                node.rounds_undefined += 1;
                if node.rounds_undefined > MAX_WAIT && self.rng.random_bool(P_WAIT) {
                    node.mode = Mode::Active;
                    node.waiting_ack_from = None;
                    node.forced_active = true;
                }
            }
        }
    }

    /// Drain one refinement round: recalls, stay-active requests and
    /// member-list acknowledgments.
    fn hear_refinement(&mut self) {
        self.net.drain(|_, i, mail| {
            let node = &mut self.nodes[i.index()];
            for d in mail {
                match d.payload {
                    ProtocolMsg::Recall if d.addressed => {
                        node.represents.remove(&d.from);
                    }
                    ProtocolMsg::StayActive if d.addressed => {
                        if node.mode == Mode::Passive {
                            // The paper forbids PASSIVE -> ACTIVE flips
                            // during refinement; the sender will time
                            // out via Rule 4.
                            continue;
                        }
                        // A StayActive implies "you represent me" — it
                        // recovers acceptances lost on the way.
                        node.represents.entry(d.from).or_insert(self.epoch);
                        node.mode = Mode::Active;
                        node.waiting_ack_from = None;
                        node.pending_ack_members.push(d.from);
                    }
                    ProtocolMsg::RepresentAck { members } => {
                        if members.contains(&i) {
                            // Remember the claim; Rule 3 may use it in
                            // a later round even if we are not waiting
                            // for it yet.
                            node.hear_ack(d.from);
                        }
                        if node.mode == Mode::Undefined
                            && node.waiting_ack_from == Some(d.from)
                            && members.contains(&i)
                        {
                            node.mode = Mode::Passive;
                            node.waiting_ack_from = None;
                        }
                    }
                    _ => {}
                }
            }
        });
    }

    /// Settle the election: the safety valve forces every alive node
    /// still UNDEFINED after the hard cap ACTIVE (the conservative
    /// choice — it can only improve accuracy), and the outcome counts
    /// the alive nodes by mode, recording each standing
    /// representation link.
    fn settle(&mut self, refinement_rounds: u32) -> ElectionOutcome {
        let (mut active, mut passive, mut forced) = (0, 0, 0);
        for i in (0..self.nodes.len()).map(NodeId::from_index) {
            if !self.net.is_alive(i) {
                continue;
            }
            let node = &mut self.nodes[i.index()];
            if node.mode == Mode::Undefined {
                node.mode = Mode::Active;
                node.waiting_ack_from = None;
                node.forced_active = true;
            }
            forced += usize::from(node.forced_active);
            if node.mode == Mode::Active {
                active += 1;
                continue;
            }
            passive += 1;
            if let Some((rep, _)) = node.rep_of {
                if self.net.telemetry_enabled() {
                    self.net.emit(Event::Represented {
                        tick: self.net.round(),
                        member: i.0,
                        rep: rep.0,
                        epoch: self.epoch.0,
                    });
                }
            }
        }
        ElectionOutcome {
            epoch: self.epoch,
            refinement_rounds,
            snapshot_size: active,
            passive,
            forced_active: forced,
        }
    }
}

#[cfg(test)]
mod tests {
    // Engine behaviour is exercised end-to-end in `network.rs` tests
    // and the integration suite; unit tests here cover the pure
    // helpers.
    use super::*;

    #[test]
    fn scope_membership() {
        let ids = [NodeId(1), NodeId(3)];
        assert_eq!(
            electing_flags(Some(&ids), 5),
            [false, true, false, true, false]
        );
        assert_eq!(electing_flags(None, 3), [true; 3]);

        // Any order, duplicates and out-of-range ids: a node elects
        // exactly when the slice contains it.
        let ids = [
            NodeId(7),
            NodeId(2),
            NodeId(7),
            NodeId(40),
            NodeId(0),
            NodeId(2),
        ];
        let flags = electing_flags(Some(&ids), 10);
        for (i, &flag) in flags.iter().enumerate() {
            assert_eq!(flag, ids.contains(&NodeId::from_index(i)), "node {i}");
        }
    }
}
