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

#[derive(Clone, Copy)]
enum Scope<'a> {
    Full,
    Partial(&'a [NodeId]),
}

impl Scope<'_> {
    /// A maintenance election: standing representation is kept, so
    /// offers count the members a candidate already represents.
    fn is_maintenance(&self) -> bool {
        matches!(self, Scope::Partial(_))
    }

    /// Per-node "is electing" flags for a deployment of `n` nodes,
    /// built once per election so every membership test is O(1). The
    /// initiator slice may be in any order and hold duplicates; ids
    /// outside the deployment elect nobody.
    fn electing_flags(&self, n: usize) -> Vec<bool> {
        match self {
            Scope::Full => vec![true; n],
            Scope::Partial(set) => {
                let mut flags = vec![false; n];
                for id in set.iter() {
                    if let Some(flag) = flags.get_mut(id.index()) {
                        *flag = true;
                    }
                }
                flags
            }
        }
    }
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
    run_election(net, nodes, values, cfg, epoch, rng, Scope::Full)
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
    run_election(
        net,
        nodes,
        values,
        cfg,
        epoch,
        rng,
        Scope::Partial(initiators),
    )
}

fn run_election(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
    scope: Scope<'_>,
) -> ElectionOutcome {
    debug_assert_eq!(nodes.len(), values.len());
    let election_span = net.open_span(SpanKind::Election);
    let ids: Vec<NodeId> = net.node_ids().collect();

    // ---- Reset state -------------------------------------------------
    // Remember the representative each initiator is abandoning so it
    // can be recalled after a new choice is made.
    let mut old_rep: Vec<Option<NodeId>> = vec![None; nodes.len()];
    let electing = scope.electing_flags(nodes.len());
    match scope {
        Scope::Full => {
            for &i in &ids {
                if net.is_alive(i) {
                    nodes[i.index()].reset_for_full_election();
                }
            }
        }
        Scope::Partial(initiators) => {
            for &i in &ids {
                if net.is_alive(i) {
                    nodes[i.index()].reset_scratch();
                }
            }
            for &i in initiators {
                if !net.is_alive(i) {
                    continue;
                }
                let node = &mut nodes[i.index()];
                old_rep[i.index()] = node.representative();
                node.mode = Mode::Undefined;
                node.rep_of = None;
            }
        }
    }

    // ---- Phase 1: invitation ------------------------------------------
    let invite_span = net.open_span(SpanKind::ElectionInvite);
    let tick = net.round();
    net.emit(Event::ElectionPhase {
        tick,
        epoch: epoch.0,
        phase: Phase::Invitation,
    });
    for &j in &ids {
        if net.is_alive(j) && electing[j.index()] {
            net.broadcast(
                j,
                ProtocolMsg::Invite {
                    value: values[j.index()],
                    epoch,
                },
                ProtocolMsg::Invite { value: 0.0, epoch }.wire_bytes(),
                Phase::Invitation,
            );
        }
    }
    net.deliver();
    net.close_span(invite_span);

    // ---- Phase 2: model evaluation + candidate lists -------------------
    let cand_span = net.open_span(SpanKind::ElectionCandidates);
    let tick = net.round();
    net.emit(Event::ElectionPhase {
        tick,
        epoch: epoch.0,
        phase: Phase::Candidates,
    });
    // Outgoing queue: (sender, Some(unicast target) | None for broadcast, message).
    let mut to_send: Vec<(NodeId, Option<NodeId>, ProtocolMsg)> = Vec::new();
    // One reusable delivery buffer serves every drain in this election;
    // `take_inbox_into` swaps capacity with the node's inbox, so the
    // steady-state message loops never touch the heap.
    let mut inbox = Vec::new();
    for &i in &ids {
        if !net.is_alive(i) {
            net.clear_inbox(i);
            continue;
        }
        net.take_inbox_into(i, &mut inbox);
        // Nodes shedding load — or too drained to take on the role —
        // do not offer candidacy ("a representative node that finds
        // its energy capacity fall below a threshold value ... simply
        // ignores these invitations", Section 5.1).
        let drained = cfg.energy_handoff_fraction > 0.0
            && net.battery(i).fraction() < cfg.energy_handoff_fraction;
        let node = &mut nodes[i.index()];
        if node.refusing_invites || drained {
            continue;
        }
        let own = values[i.index()];
        let learn = scope.is_maintenance();
        for d in inbox.drain(..) {
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
                if learn && cfg.invite_learn_prob > 0.0 && rng.random_bool(cfg.invite_learn_prob) {
                    let decision = node.cache.observe(d.from, own, value);
                    net.charge_cache_update(i);
                    crate::trace::record_cache_decision(net, i, d.from, &decision, &node.cache);
                }
            }
        }
        if !node.cand_list.is_empty() {
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
                let msg = ProtocolMsg::Candidates {
                    cand: Arc::from(node.cand_list.as_slice()),
                    already: node.member_count(),
                };
                to_send.push((i, None, msg));
            } else {
                node.cand_list.clear();
            }
        }
    }
    for (i, _, msg) in to_send.drain(..) {
        let bytes = msg.wire_bytes();
        net.broadcast(i, msg, bytes, Phase::Candidates);
    }
    net.deliver();
    net.close_span(cand_span);

    // ---- Phase 3: initial selection ------------------------------------
    let accept_span = net.open_span(SpanKind::ElectionAccept);
    let tick = net.round();
    net.emit(Event::ElectionPhase {
        tick,
        epoch: epoch.0,
        phase: Phase::Accept,
    });
    for &j in &ids {
        if !net.is_alive(j) {
            net.clear_inbox(j);
            continue;
        }
        net.take_inbox_into(j, &mut inbox);
        let node = &mut nodes[j.index()];
        for d in inbox.drain(..) {
            if let ProtocolMsg::Candidates { cand, already } = d.payload {
                node.hear_cand_len(d.from, cand.len());
                if electing[j.index()] && cand.contains(&j) {
                    node.offers.push(Offer {
                        from: d.from,
                        cand_len: cand.len(),
                        already,
                    });
                }
            }
        }
        if electing[j.index()] {
            if let Some(best) = node.best_offer(scope.is_maintenance()) {
                node.rep_of = Some((best.from, epoch));
                to_send.push((j, Some(best.from), ProtocolMsg::Accept { epoch }));
                if net.telemetry_enabled() {
                    let tick = net.round();
                    net.emit(Event::InviteAccepted {
                        tick,
                        member: j.0,
                        rep: best.from.0,
                        epoch: epoch.0,
                    });
                }
                // A maintenance initiator abandoning a different
                // representative recalls it (best effort; a lost
                // recall leaves a spurious representative behind).
                if let Some(old) = old_rep[j.index()] {
                    if old != best.from {
                        net.unicast(
                            j,
                            old,
                            ProtocolMsg::Recall,
                            ProtocolMsg::Recall.wire_bytes(),
                            Phase::Refinement,
                        );
                    }
                }
            }
            // No offers: rep_of stays None; Rule 1 will set ACTIVE.
        }
    }
    for (j, dst, msg) in to_send.drain(..) {
        // Acceptances are only queued with a chosen representative; a
        // destination-less entry is dropped rather than panicking.
        let Some(rep) = dst else { continue };
        let bytes = msg.wire_bytes();
        net.unicast(j, rep, msg, bytes, Phase::Accept);
    }
    net.deliver();

    // Acceptances arrive.
    for &i in &ids {
        if !net.is_alive(i) {
            net.clear_inbox(i);
            continue;
        }
        net.take_inbox_into(i, &mut inbox);
        let node = &mut nodes[i.index()];
        for d in inbox.drain(..) {
            if !d.addressed {
                continue;
            }
            match d.payload {
                ProtocolMsg::Accept { epoch: e } => {
                    node.represents.insert(d.from, e);
                    // In a maintenance election an already-settled node
                    // (possibly PASSIVE) gaining a member must serve it.
                    if scope.is_maintenance() && node.mode == Mode::Passive {
                        node.mode = Mode::Active;
                    }
                }
                ProtocolMsg::Recall => {
                    node.represents.remove(&d.from);
                }
                _ => {}
            }
        }
    }

    net.close_span(accept_span);

    // ---- Phase 4: refinement (Rules 0-4) --------------------------------
    let refine_span = net.open_span(SpanKind::ElectionRefine);
    let tick = net.round();
    net.emit(Event::ElectionPhase {
        tick,
        epoch: epoch.0,
        phase: Phase::Refinement,
    });
    let hard_cap = cfg.max_wait + 16;
    // Staging buffer for acknowledgment member lists, reused by every
    // representative so that each broadcast allocates only its list.
    let mut members = Vec::new();
    let mut rounds = 0u32;
    for round in 0..hard_cap {
        rounds = round + 1;
        // Rules pass.
        for &i in &ids {
            if !net.is_alive(i) {
                continue;
            }
            let node = &mut nodes[i.index()];

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
                        to_send.push((i, Some(j), ProtocolMsg::Recall));
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
                        to_send.push((i, Some(j), ProtocolMsg::StayActive));
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
                if node.rounds_undefined > cfg.max_wait && rng.random_bool(cfg.p_wait) {
                    node.mode = Mode::Active;
                    node.waiting_ack_from = None;
                    node.forced_active = true;
                }
            }
        }

        // Send rule messages (Recall / StayActive are unicasts to the
        // representative recorded when the rule fired).
        for (i, dst, msg) in to_send.drain(..) {
            let bytes = msg.wire_bytes();
            match dst {
                Some(t) => net.unicast(i, t, msg, bytes, Phase::Refinement),
                None => net.broadcast(i, msg, bytes, Phase::Refinement),
            }
        }

        // Representatives acknowledge the members that asked them to
        // stay active: one broadcast listing everyone they represent
        // (the paper's footnote-optimized acknowledgment). The
        // broadcast fires only when a StayActive arrived this round,
        // and waiting members remember *any* overheard member list, so
        // under perfect links every representative broadcasts at most
        // once; repeats happen only when loss forces notify retries.
        for &i in &ids {
            if !net.is_alive(i) {
                continue;
            }
            let node = &mut nodes[i.index()];
            if !node.pending_ack_members.is_empty() {
                node.pending_ack_members.clear();
                let msg = ProtocolMsg::represent_ack(node.members(), &mut members);
                let bytes = msg.wire_bytes();
                net.broadcast(i, msg, bytes, Phase::Refinement);
            }
        }

        let delivered = net.deliver();

        // Process refinement traffic.
        for &i in &ids {
            if !net.is_alive(i) {
                net.clear_inbox(i);
                continue;
            }
            net.take_inbox_into(i, &mut inbox);
            let node = &mut nodes[i.index()];
            for d in inbox.drain(..) {
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
                        node.represents.entry(d.from).or_insert(epoch);
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
        }

        // Converged? No undefined node and no traffic in flight.
        let any_undefined = ids
            .iter()
            .any(|&i| net.is_alive(i) && nodes[i.index()].mode == Mode::Undefined);
        let any_pending_ack = ids
            .iter()
            .any(|&i| net.is_alive(i) && !nodes[i.index()].pending_ack_members.is_empty());
        if !any_undefined && !any_pending_ack && delivered == 0 && net.pending() == 0 {
            break;
        }
    }
    net.close_span(refine_span);

    // Safety valve: anything still undefined after the hard cap goes
    // ACTIVE (the conservative choice — it can only improve accuracy).
    for &i in &ids {
        if net.is_alive(i) && nodes[i.index()].mode == Mode::Undefined {
            nodes[i.index()].mode = Mode::Active;
            nodes[i.index()].waiting_ack_from = None;
            nodes[i.index()].forced_active = true;
        }
    }

    let mut active = 0;
    let mut passive = 0;
    let mut forced = 0;
    for &i in &ids {
        if !net.is_alive(i) {
            continue;
        }
        match nodes[i.index()].mode {
            Mode::Active => active += 1,
            Mode::Passive => {
                passive += 1;
                // Record the standing representation link.
                if net.telemetry_enabled() {
                    if let Some((rep, _)) = nodes[i.index()].rep_of {
                        let tick = net.round();
                        net.emit(Event::Represented {
                            tick,
                            member: i.0,
                            rep: rep.0,
                            epoch: epoch.0,
                        });
                    }
                }
            }
            // The safety valve above forces every live node out of
            // Undefined; should that invariant ever break, degrade to
            // ACTIVE (the paper's Rule 1 default) instead of aborting
            // the simulation.
            Mode::Undefined => {
                nodes[i.index()].mode = Mode::Active;
                active += 1;
            }
        }
        if nodes[i.index()].forced_active {
            forced += 1;
        }
    }

    net.close_span(election_span);

    ElectionOutcome {
        epoch,
        refinement_rounds: rounds,
        snapshot_size: active,
        passive,
        forced_active: forced,
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
            Scope::Partial(&ids).electing_flags(5),
            [false, true, false, true, false]
        );
        assert_eq!(Scope::Full.electing_flags(3), [true; 3]);

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
        let flags = Scope::Partial(&ids).electing_flags(10);
        for (i, &flag) in flags.iter().enumerate() {
            assert_eq!(flag, ids.contains(&NodeId::from_index(i)), "node {i}");
        }
    }
}
