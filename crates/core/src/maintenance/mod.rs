//! Snapshot maintenance (Section 5.1): keeping the representative set
//! healthy after elections, without global knowledge.
//!
//! # The maintenance cycle
//!
//! [`run_maintenance`] executes one cycle, in four steps:
//!
//! 1. **Energy handoff** — representatives whose battery has fallen
//!    below the configured fraction (or below one burst of heartbeat
//!    replies plus a query window for their member count) broadcast a
//!    handoff announcement; members that hear it will re-elect. This
//!    step alone is also available as [`run_handoff_check`]: the
//!    battery test is local, so it can run every few queries at no
//!    cost to the members.
//! 2. **Heartbeats** — every PASSIVE node unicasts its current
//!    measurement to its representative. The representative feeds the
//!    pair to its cache manager (fine-tuning the model first, charged
//!    at the paper's 0.1-transmission processing cost) and replies
//!    with its estimate `x̂_j`. Bystanders snoop overheard heartbeats
//!    with the configured probability, keeping their own models warm.
//! 3. **Detection** — a member whose representative stayed silent
//!    (death, message loss) or whose returned estimate violates the
//!    threshold (`d(x_j, x̂_j) > T`) initiates a re-election; so does
//!    every ACTIVE node that represents nobody (it periodically
//!    *fishes* for a representative with a fresh invitation).
//! 4. **One election** settles all initiators at once, scoring offers
//!    by candidate-list length plus current member count.
//!
//! # Message budget
//!
//! The paper bounds the cycle at **six messages per node**: heartbeat
//! and estimate reply, plus the up-to-four election messages
//! (invitation, candidate list, accept, refinement). The repository
//! enforces this bound three ways: unit tests here and in
//! `network.rs`, the `snapshot-trace --assert --max-election-msgs 6`
//! CI gate over the `heal` experiment's trace, and Figure 15-style
//! measured averages in the [`MaintenanceReport`].
//!
//! # Companion passes
//!
//! * [`reconcile`](reconcile::reconcile) — the announce / object /
//!   correct pass that retires *spurious* representative claims left
//!   behind by lost recall messages (epoch numbers decide who is
//!   stale).
//! * [`rotation`](rotate_representatives) — LEACH-style random
//!   stepping-down so the representative role (and its energy bill)
//!   circulates through each cluster.
//! * [`repair`] — measurement only: tracks how many ticks the network
//!   takes to re-cover every orphan after a representative dies, and
//!   the query error paid meanwhile. Used by the fault-injection
//!   `heal` experiment (see `FAULTS.md`).

pub mod reconcile;
pub mod repair;
pub mod rotation;

pub use reconcile::{reconcile, ReconcileReport};
pub use repair::{RepairRecord, RepairTracker};
pub use rotation::{rotate_representatives, RotationReport};

use crate::config::SnapshotConfig;
use crate::election::{run_maintenance_election, ElectionOutcome, ProtocolMsg};
use crate::sensor::{Mode, SensorNode};
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::rng::DetRng;
use snapshot_netsim::rng::RngExt;
use snapshot_netsim::{Delivery, Event, Network, NodeId, Phase};
use std::collections::BTreeSet;

/// What one maintenance cycle did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Heartbeats sent by passive nodes.
    pub heartbeats: usize,
    /// Members that re-elected because the estimate violated `T`.
    pub drift_detected: usize,
    /// Members that re-elected because no estimate arrived
    /// (representative dead, or a message lost).
    pub silence_detected: usize,
    /// Representatives that initiated an energy handoff this cycle.
    pub handoffs: usize,
    /// Self-only ACTIVE nodes that fished for a representative.
    pub fishing: usize,
    /// Outcome of the maintenance election (`None` when nothing
    /// needed re-electing).
    pub election: Option<ElectionOutcome>,
}

impl MaintenanceReport {
    /// Total nodes that initiated a re-election.
    pub fn reelections(&self) -> usize {
        self.drift_detected + self.silence_detected + self.fishing
    }
}

/// Run one maintenance cycle. `values[i]` is `N_i`'s current
/// measurement.
pub fn run_maintenance(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
) -> MaintenanceReport {
    run_cycle(net, nodes, values, cfg, epoch, rng, true)
}

/// Run only the energy-handoff portion of maintenance: exhausted
/// representatives announce a handoff and their members re-elect.
///
/// The battery check is local to each representative, so this can run
/// far more often than the heartbeat exchange without costing the
/// members anything — the key to the Figure 10 lifetime result, where
/// a representative answers nearly every query and must rotate out
/// well before its battery dies.
pub fn run_handoff_check(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
) -> MaintenanceReport {
    run_cycle(net, nodes, values, cfg, epoch, rng, false)
}

fn run_cycle(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
    with_heartbeats: bool,
) -> MaintenanceReport {
    debug_assert_eq!(nodes.len(), values.len());
    let n = nodes.len();
    // Reusable delivery buffer: `take_inbox_into` swaps capacity with
    // the inboxes, keeping the maintenance loops allocation-free.
    let mut inbox = Vec::new();
    // Wake-list drain candidates (DESIGN.md §16): each post-deliver
    // drain visits only the alive nodes the round actually reached, in
    // ascending id order.
    let mut drained: Vec<NodeId> = Vec::new();
    let mut reelect: BTreeSet<NodeId> = BTreeSet::new();
    let mut report = MaintenanceReport {
        heartbeats: 0,
        drift_detected: 0,
        silence_detected: 0,
        handoffs: 0,
        fishing: 0,
        election: None,
    };

    // ---- Energy handoff announcements --------------------------------
    if cfg.energy_handoff_fraction > 0.0 {
        // A representative steps down when its battery falls below the
        // configured fraction — or below what one full round of
        // heartbeat replies *plus* a comparable window of query
        // answering would cost, whichever is larger: it must never die
        // mid-burst (or right after one) while still holding its
        // members, because orphans go dark until the next heartbeat
        // cycle notices the silence.
        let low = |net: &Network<ProtocolMsg>, node: &SensorNode| {
            let battery = net.battery(node.id());
            let burst_floor = (2 * node.member_count() + 10) as f64 * net.energy_model().tx_cost;
            battery.fraction() < cfg.energy_handoff_fraction || battery.remaining() < burst_floor
        };
        report.handoffs = step_down(net, nodes, low, &mut drained, &mut inbox, &mut reelect);
    }

    // ---- Heartbeats ----------------------------------------------------
    let mut awaiting: Vec<(NodeId, NodeId)> = Vec::new(); // (member, rep)
    for j in (0..n).map(NodeId::from_index) {
        if !with_heartbeats || !net.is_alive(j) || reelect.contains(&j) {
            continue;
        }
        let node = &nodes[j.index()];
        if node.mode() == Mode::Passive {
            if let Some(rep) = node.representative() {
                let msg = ProtocolMsg::Heartbeat {
                    value: values[j.index()],
                };
                let bytes = msg.wire_bytes();
                net.unicast(j, rep, msg, bytes, Phase::Heartbeat);
                awaiting.push((j, rep));
                report.heartbeats += 1;
            }
        }
    }
    net.deliver();

    // Representatives process heartbeats: fine-tune, reply with the
    // estimate. (The fine-tune happens *before* the estimate is
    // produced, as in the paper: the heartbeat "is also used by N_i to
    // fine-tune its model of N_j" — the reply then reflects the best
    // current model.)
    let mut replies: Vec<(NodeId, NodeId, f64)> = Vec::new();
    net.drain_candidates_into(&mut drained);
    for &i in &drained {
        net.take_inbox_into(i, &mut inbox);
        let own = values[i.index()];
        for d in inbox.drain(..) {
            if let ProtocolMsg::Heartbeat { value } = d.payload {
                if !d.addressed {
                    // Physically a heartbeat is a broadcast: bystanders
                    // snoop it with the configured probability, keeping
                    // their models of the member fresh (the Section 3
                    // mechanism: "snooping ... values broadcast by its
                    // neighbor node ... or by using periodic
                    // announcements").
                    if cfg.snoop_prob > 0.0 && rng.random_bool(cfg.snoop_prob) {
                        let decision = nodes[i.index()].cache.observe(d.from, own, value);
                        net.charge_cache_update(i);
                        crate::trace::record_cache_decision(
                            net,
                            i,
                            d.from,
                            &decision,
                            &nodes[i.index()].cache,
                        );
                    }
                    continue;
                }
                let node = &mut nodes[i.index()];
                let decision = node.cache.observe(d.from, own, value);
                net.charge_cache_update(i);
                crate::trace::record_cache_decision(net, i, d.from, &decision, &node.cache);
                // A heartbeat implies "you are my representative" —
                // repair membership lost to dropped acceptances.
                node.represents.entry(d.from).or_insert(epoch);
                if let Some(est) = node.cache.estimate(d.from, own) {
                    replies.push((i, d.from, est));
                }
            }
        }
    }
    for (i, j, est) in replies {
        let msg = ProtocolMsg::Estimate { value: est };
        let bytes = msg.wire_bytes();
        net.unicast(i, j, msg, bytes, Phase::Estimate);
    }
    net.deliver();

    // Members judge the replies.
    let mut estimates: Vec<Option<f64>> = vec![None; nodes.len()];
    net.drain_candidates_into(&mut drained);
    for &j in &drained {
        net.take_inbox_into(j, &mut inbox);
        for d in inbox.drain(..) {
            if let ProtocolMsg::Estimate { value } = d.payload {
                if d.addressed {
                    estimates[j.index()] = Some(value);
                }
            }
        }
    }
    for (j, _rep) in awaiting {
        match estimates[j.index()] {
            Some(est) => {
                if !cfg.metric.within(values[j.index()], est, cfg.threshold) {
                    reelect.insert(j);
                    report.drift_detected += 1;
                }
            }
            None => {
                reelect.insert(j);
                report.silence_detected += 1;
            }
        }
    }

    // ---- Self-only actives fish for a representative -------------------
    if with_heartbeats {
        for i in (0..n).map(NodeId::from_index) {
            if !net.is_alive(i) {
                continue;
            }
            let node = &nodes[i.index()];
            if node.mode() == Mode::Active
                && node.member_count() == 0
                && !node.refusing_invites
                && reelect.insert(i)
            {
                report.fishing += 1;
            }
        }
    }

    // ---- One election settles every initiator ---------------------------
    if !reelect.is_empty() {
        let initiators: Vec<NodeId> = reelect.into_iter().collect();
        let outcome = run_maintenance_election(net, nodes, values, cfg, epoch, rng, &initiators);
        report.election = Some(outcome);
    }

    // Handoff flags last one cycle.
    for node in nodes.iter_mut() {
        node.refusing_invites = false;
    }

    report
}

/// The step-down phase of the energy handoff and of rotation: each
/// alive ACTIVE representative with members that `trigger` picks (it is
/// asked about those only, in ascending id order) refuses invitations
/// for the cycle and broadcasts an `EnergyHandoff`; each member that
/// hears its own representative's joins `reelect`. Returns how many
/// stepped down.
fn step_down(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    mut trigger: impl FnMut(&Network<ProtocolMsg>, &SensorNode) -> bool,
    drained: &mut Vec<NodeId>,
    inbox: &mut Vec<Delivery<ProtocolMsg>>,
    reelect: &mut BTreeSet<NodeId>,
) -> usize {
    let mut stepped = 0;
    for node in nodes.iter_mut() {
        let i = node.id();
        if !net.is_alive(i)
            || node.mode() != Mode::Active
            || node.member_count() == 0
            || !trigger(net, node)
        {
            continue;
        }
        node.refusing_invites = true;
        stepped += 1;
        if net.telemetry_enabled() {
            net.emit(Event::HandoffTriggered {
                tick: net.round(),
                node: i.0,
                battery_fraction: net.battery(i).fraction(),
            });
        }
        let msg = ProtocolMsg::EnergyHandoff;
        let bytes = msg.wire_bytes();
        net.broadcast(i, msg, bytes, Phase::Handoff);
    }
    net.deliver();
    net.drain_candidates_into(drained);
    for &i in drained.iter() {
        net.take_inbox_into(i, inbox);
        let node = &nodes[i.index()];
        for d in inbox.drain(..) {
            if matches!(d.payload, ProtocolMsg::EnergyHandoff)
                && node.representative() == Some(d.from)
            {
                reelect.insert(i);
            }
        }
    }
    stepped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use snapshot_netsim::prelude::*;

    fn setup(n: usize, loss: f64) -> (Network<ProtocolMsg>, Vec<SensorNode>, SnapshotConfig) {
        let topo = Topology::random_uniform(n, 2.0, 5).expect("valid deployment");
        let net = Network::new(topo, LinkModel::iid_loss(loss), EnergyModel::default(), 7);
        let cfg = SnapshotConfig::default();
        let nodes: Vec<SensorNode> = (0..n)
            .map(|i| SensorNode::new(NodeId::from_index(i), CacheConfig::default()))
            .collect();
        (net, nodes, cfg)
    }

    /// Wire node `m` as a passive member of `rep`, with a trained model
    /// at the representative.
    fn wire_member(nodes: &mut [SensorNode], rep: NodeId, m: NodeId, pairs: &[(f64, f64)]) {
        nodes[m.index()].mode = Mode::Passive;
        nodes[m.index()].rep_of = Some((rep, Epoch(1)));
        nodes[rep.index()].represents.insert(m, Epoch(1));
        for &(x, y) in pairs {
            nodes[rep.index()].cache.observe(m, x, y);
        }
    }

    #[test]
    fn accurate_member_stays_passive() {
        let (mut net, mut nodes, cfg) = setup(3, 0.0);
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        // Model: x_m = x_rep exactly.
        wire_member(
            &mut nodes,
            NodeId(0),
            NodeId(1),
            &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)],
        );
        let values = vec![5.0, 5.0, 7.0];
        let r = run_maintenance(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        assert_eq!(r.heartbeats, 1);
        assert_eq!(r.drift_detected, 0);
        assert_eq!(r.silence_detected, 0);
        assert_eq!(nodes[1].mode(), Mode::Passive);
        assert_eq!(nodes[1].representative(), Some(NodeId(0)));
    }

    #[test]
    fn drifted_member_reelects() {
        let (mut net, mut nodes, cfg) = setup(3, 0.0);
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        wire_member(
            &mut nodes,
            NodeId(0),
            NodeId(1),
            &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)],
        );
        // Member's data diverged: model predicts 5, member reads 50.
        let values = vec![5.0, 50.0, 7.0];
        let r = run_maintenance(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        assert_eq!(r.drift_detected, 1);
        assert!(r.election.is_some());
    }

    #[test]
    fn dead_representative_is_detected_by_silence() {
        let (mut net, mut nodes, cfg) = setup(3, 0.0);
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        wire_member(&mut nodes, NodeId(0), NodeId(1), &[(1.0, 1.0), (2.0, 2.0)]);
        net.kill(NodeId(0));
        let values = vec![5.0, 5.0, 7.0];
        let r = run_maintenance(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        assert_eq!(r.silence_detected, 1);
        // The member re-elected; with no candidate able to model it
        // (node 2 has no cache line for node 1) it represents itself.
        assert_eq!(nodes[1].mode(), Mode::Active);
    }

    #[test]
    fn self_only_actives_fish_for_representatives() {
        let (mut net, mut nodes, cfg) = setup(2, 0.0);
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        // Node 1 can model node 0 perfectly.
        for &(x, y) in &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)] {
            nodes[1].cache.observe(NodeId(0), x, y);
        }
        let values = vec![4.0, 4.0];
        let r = run_maintenance(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        assert!(r.fishing >= 1);
        // Node 0 found node 1.
        assert_eq!(nodes[0].representative(), Some(NodeId(1)));
        assert_eq!(nodes[0].mode(), Mode::Passive);
        assert_eq!(nodes[1].mode(), Mode::Active);
    }

    #[test]
    fn heartbeat_fine_tunes_the_model() {
        let (mut net, mut nodes, cfg) = setup(2, 0.0);
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        wire_member(&mut nodes, NodeId(0), NodeId(1), &[(1.0, 1.0), (2.0, 2.0)]);
        let before = nodes[0].cache.line(NodeId(1)).unwrap().len();
        let values = vec![3.0, 3.0];
        let _ = run_maintenance(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        let after = nodes[0].cache.line(NodeId(1)).unwrap().len();
        assert_eq!(after, before + 1, "heartbeat pair must enter the cache");
    }

    #[test]
    fn energy_handoff_moves_members_away() {
        let (topo_net, mut nodes, mut cfg) = setup(3, 0.0);
        drop(topo_net);
        cfg.energy_handoff_fraction = 0.5;
        let topo = Topology::random_uniform(3, 2.0, 5).expect("valid deployment");
        let mut net: Network<ProtocolMsg> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            10.0,
            7,
        );
        // Drain rep 0 below 50%.
        net.charge(NodeId(0), 6.0, Phase::Test);
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        wire_member(&mut nodes, NodeId(0), NodeId(1), &[(1.0, 1.0), (2.0, 2.0)]);
        // Node 2 can also model node 1.
        for &(x, y) in &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)] {
            nodes[2].cache.observe(NodeId(1), x, y);
        }
        let values = vec![4.0, 4.0, 4.0];
        let r = run_maintenance(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        assert_eq!(r.handoffs, 1);
        // The member left the exhausted representative for node 2.
        assert_eq!(nodes[1].representative(), Some(NodeId(2)));
    }
}
