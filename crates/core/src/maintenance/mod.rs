//! Snapshot maintenance (Section 5.1): keeping the representative set
//! healthy after elections, without global knowledge.
//!
//! # Phases
//!
//! Each phase is one function. [`run_maintenance`] runs all four;
//! [`run_handoff_check`] and [`rotate_representatives`] run step-down
//! and settle only.
//!
//! 1. **Step-down** — chosen representatives refuse invitations and
//!    broadcast a handoff announcement; members that hear their own
//!    representative's re-elect. The energy handoff chooses those whose
//!    battery has fallen below the configured fraction (or below one
//!    burst of heartbeat replies plus a query window for their member
//!    count); rotation flips a coin. The battery test is local, so a
//!    handoff check can run every few queries: one that steps nobody
//!    down sends and delivers nothing.
//! 2. **Heartbeats** — every PASSIVE node unicasts its current
//!    measurement to its representative. The representative feeds the
//!    pair to its cache manager (fine-tuning the model first, charged
//!    at the paper's 0.1-transmission processing cost) and replies
//!    with its estimate `x̂_j`. Bystanders snoop overheard heartbeats
//!    with probability [`SNOOP_PROB`], keeping their own models warm.
//!    A member whose representative stayed silent (death, message
//!    loss) or whose estimate violates the threshold
//!    (`d(x_j, x̂_j) > T`) re-elects.
//! 3. **Fishing** — every ACTIVE node that represents nobody re-elects
//!    too: it *fishes* for a representative with a fresh invitation.
//! 4. **Settle** — one election settles every initiator at once,
//!    scoring offers by candidate-list length plus current member
//!    count; then the refusals end.
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
pub use rotation::rotate_representatives;

use crate::config::SnapshotConfig;
use crate::election::{run_maintenance_election, ElectionOutcome, ProtocolMsg};
use crate::sensor::{Mode, SensorNode};
use snapshot_netsim::clock::Epoch;
use snapshot_netsim::rng::DetRng;
use snapshot_netsim::rng::RngExt;
use snapshot_netsim::{Delivery, Event, Network, NodeId, Phase};
use std::collections::BTreeSet;

/// Probability that a node snoops (and caches) a neighbor's broadcast
/// outside dedicated training: an overheard heartbeat here, a
/// measurement in Figure 14's snooping windows (Section 6.3 uses 5%).
pub const SNOOP_PROB: f64 = 0.05;

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

/// What a step-down operation (a handoff check or a rotation) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepDownReport {
    /// Representatives that stepped down.
    pub stepped_down: usize,
    /// Members that re-elected.
    pub reassigned: usize,
    /// The election outcome, when any member re-elected.
    pub election: Option<ElectionOutcome>,
}

/// Run one maintenance cycle: the energy handoff's step-down,
/// heartbeats, fishing and settle. `values[i]` is `N_i`'s current
/// measurement.
pub fn run_maintenance(
    net: &mut Network<ProtocolMsg>,
    nodes: &mut [SensorNode],
    values: &[f64],
    cfg: &SnapshotConfig,
    epoch: Epoch,
    rng: &mut DetRng,
) -> MaintenanceReport {
    let mut cycle = Cycle::new(net, nodes, values, cfg, epoch, rng);
    let handoffs = cycle.hand_off();
    let (heartbeats, drift_detected, silence_detected) = cycle.exchange_heartbeats();
    let fishing = cycle.fish();
    MaintenanceReport {
        heartbeats,
        drift_detected,
        silence_detected,
        handoffs,
        fishing,
        election: cycle.settle(),
    }
}

/// Run only the energy handoff: exhausted representatives step down
/// and their members re-elect.
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
) -> StepDownReport {
    let mut cycle = Cycle::new(net, nodes, values, cfg, epoch, rng);
    let stepped_down = cycle.hand_off();
    cycle.settle_step_down(stepped_down)
}

/// The state one maintenance operation's phases share: the deployment
/// borrows, the re-elect set the phases fill and the election
/// settles, and the drain buffers every round reuses.
struct Cycle<'a> {
    net: &'a mut Network<ProtocolMsg>,
    nodes: &'a mut [SensorNode],
    values: &'a [f64],
    cfg: &'a SnapshotConfig,
    epoch: Epoch,
    rng: &'a mut DetRng,
    reelect: BTreeSet<NodeId>,
    /// Wake-list drain candidates (DESIGN.md §16): each drain visits
    /// only the alive nodes the round actually reached, in ascending
    /// id order.
    drained: Vec<NodeId>,
    /// Reusable delivery buffer: `take_inbox_into` swaps capacity with
    /// the inboxes, keeping the drains allocation-free.
    inbox: Vec<Delivery<ProtocolMsg>>,
}

impl<'a> Cycle<'a> {
    fn new(
        net: &'a mut Network<ProtocolMsg>,
        nodes: &'a mut [SensorNode],
        values: &'a [f64],
        cfg: &'a SnapshotConfig,
        epoch: Epoch,
        rng: &'a mut DetRng,
    ) -> Self {
        debug_assert_eq!(nodes.len(), values.len());
        Cycle {
            net,
            nodes,
            values,
            cfg,
            epoch,
            rng,
            reelect: BTreeSet::new(),
            drained: Vec::new(),
            inbox: Vec::new(),
        }
    }

    /// The step-down phase: each alive ACTIVE representative with
    /// members that `trigger` picks (it is asked about those only, in
    /// ascending id order) refuses invitations until the operation
    /// settles and broadcasts an `EnergyHandoff`; each member that
    /// hears its own representative's joins the re-elect set. Returns
    /// how many stepped down; when that is none, nothing is delivered.
    fn step_down(
        &mut self,
        mut trigger: impl FnMut(&Network<ProtocolMsg>, &SensorNode, &mut DetRng) -> bool,
    ) -> usize {
        let mut stepped = 0;
        for node in self.nodes.iter_mut() {
            let i = node.id();
            if !self.net.is_alive(i)
                || node.mode() != Mode::Active
                || node.member_count() == 0
                || !trigger(self.net, node, self.rng)
            {
                continue;
            }
            node.refusing_invites = true;
            stepped += 1;
            if self.net.telemetry_enabled() {
                self.net.emit(Event::HandoffTriggered {
                    tick: self.net.round(),
                    node: i.0,
                    battery_fraction: self.net.battery(i).fraction(),
                });
            }
            let msg = ProtocolMsg::EnergyHandoff;
            let bytes = msg.wire_bytes();
            self.net.broadcast(i, msg, bytes, Phase::Handoff);
        }
        if stepped == 0 {
            return 0;
        }
        self.net.deliver();
        self.net.drain_candidates_into(&mut self.drained);
        for &i in &self.drained {
            self.net.take_inbox_into(i, &mut self.inbox);
            let node = &self.nodes[i.index()];
            for d in self.inbox.drain(..) {
                if matches!(d.payload, ProtocolMsg::EnergyHandoff)
                    && node.representative() == Some(d.from)
                {
                    self.reelect.insert(i);
                }
            }
        }
        stepped
    }

    /// The energy handoff's step-down, when the handoff is on
    /// (`energy_handoff_fraction > 0`). A representative steps down
    /// when its battery falls below the configured fraction — or below
    /// what one full round of heartbeat replies *plus* a comparable
    /// window of query answering would cost, whichever is larger: it
    /// must never die mid-burst (or right after one) while still
    /// holding its members, because orphans go dark until the next
    /// heartbeat cycle notices the silence.
    fn hand_off(&mut self) -> usize {
        let fraction = self.cfg.energy_handoff_fraction;
        if fraction > 0.0 {
            self.step_down(|net, node, _| {
                let battery = net.battery(node.id());
                let burst_floor =
                    (2 * node.member_count() + 10) as f64 * net.energy_model().tx_cost;
                battery.fraction() < fraction || battery.remaining() < burst_floor
            })
        } else {
            0
        }
    }

    /// The heartbeat and estimate rounds: each alive PASSIVE node
    /// outside the re-elect set unicasts its measurement to its
    /// representative, which replies with its estimate; a member whose
    /// estimate violates `T` (drift) or never arrives (silence) joins
    /// the re-elect set. Returns the heartbeats sent and the drift and
    /// silence counts.
    fn exchange_heartbeats(&mut self) -> (usize, usize, usize) {
        let (values, cfg, epoch) = (self.values, self.cfg, self.epoch);
        let mut awaiting: Vec<NodeId> = Vec::new();
        for node in self.nodes.iter() {
            let j = node.id();
            if node.mode() != Mode::Passive || !self.net.is_alive(j) || self.reelect.contains(&j) {
                continue;
            }
            if let Some(rep) = node.representative() {
                let value = values[j.index()];
                let msg = ProtocolMsg::Heartbeat { value };
                let bytes = msg.wire_bytes();
                self.net.unicast(j, rep, msg, bytes, Phase::Heartbeat);
                awaiting.push(j);
            }
        }
        self.net.deliver();

        // Representatives process heartbeats: fine-tune, reply with the
        // estimate. (The fine-tune happens *before* the estimate is
        // produced, as in the paper: the heartbeat "is also used by N_i
        // to fine-tune its model of N_j" — the reply then reflects the
        // best current model.)
        let mut replies: Vec<(NodeId, NodeId, f64)> = Vec::new();
        self.net.drain_candidates_into(&mut self.drained);
        for &i in &self.drained {
            self.net.take_inbox_into(i, &mut self.inbox);
            let own = values[i.index()];
            let node = &mut self.nodes[i.index()];
            for d in self.inbox.drain(..) {
                let ProtocolMsg::Heartbeat { value } = d.payload else {
                    continue;
                };
                // Physically a heartbeat is a broadcast: bystanders
                // snoop it, keeping their models of the member fresh
                // (the Section 3 mechanism: "snooping ... values
                // broadcast by its neighbor node ... or by using
                // periodic announcements").
                let bystander = !d.addressed;
                if bystander && !self.rng.random_bool(SNOOP_PROB) {
                    continue;
                }
                let decision = node.cache.observe(d.from, own, value);
                self.net.charge_cache_update(i);
                crate::trace::record_cache_decision(self.net, i, d.from, &decision, &node.cache);
                if bystander {
                    continue;
                }
                // A heartbeat implies "you are my representative" —
                // repair membership lost to dropped acceptances.
                node.represents.entry(d.from).or_insert(epoch);
                if let Some(est) = node.cache.estimate(d.from, own) {
                    replies.push((i, d.from, est));
                }
            }
        }
        for (i, j, est) in replies {
            let msg = ProtocolMsg::Estimate { value: est };
            let bytes = msg.wire_bytes();
            self.net.unicast(i, j, msg, bytes, Phase::Estimate);
        }
        self.net.deliver();

        // Members judge the replies.
        let mut estimates: Vec<Option<f64>> = vec![None; self.nodes.len()];
        self.net.drain_candidates_into(&mut self.drained);
        for &j in &self.drained {
            self.net.take_inbox_into(j, &mut self.inbox);
            for d in self.inbox.drain(..) {
                if let (ProtocolMsg::Estimate { value }, true) = (d.payload, d.addressed) {
                    estimates[j.index()] = Some(value);
                }
            }
        }
        let (mut drift, mut silence) = (0, 0);
        for &j in &awaiting {
            match estimates[j.index()] {
                Some(est) if cfg.metric.within(values[j.index()], est, cfg.threshold) => continue,
                Some(_) => drift += 1,
                None => silence += 1,
            }
            self.reelect.insert(j);
        }
        (awaiting.len(), drift, silence)
    }

    /// Every alive self-only ACTIVE node that is not stepping down
    /// fishes for a representative: it joins the re-elect set. Returns
    /// how many joined.
    fn fish(&mut self) -> usize {
        let mut fishing = 0;
        for node in self.nodes.iter() {
            if self.net.is_alive(node.id())
                && node.mode() == Mode::Active
                && node.member_count() == 0
                && !node.refusing_invites
                && self.reelect.insert(node.id())
            {
                fishing += 1;
            }
        }
        fishing
    }

    /// One maintenance election settles every initiator in the
    /// re-elect set (`None` when it is empty); then the step-down
    /// refusals end.
    fn settle(self) -> Option<ElectionOutcome> {
        let initiators: Vec<NodeId> = self.reelect.into_iter().collect();
        let election = (!initiators.is_empty()).then(|| {
            run_maintenance_election(
                self.net,
                self.nodes,
                self.values,
                self.cfg,
                self.epoch,
                self.rng,
                &initiators,
            )
        });
        for node in self.nodes.iter_mut() {
            node.refusing_invites = false;
        }
        election
    }

    /// Settle a step-down operation whose step-down phase stepped
    /// `stepped_down` representatives down.
    fn settle_step_down(self, stepped_down: usize) -> StepDownReport {
        let reassigned = self.reelect.len();
        StepDownReport {
            stepped_down,
            reassigned,
            election: self.settle(),
        }
    }
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

    /// Three nodes on finite batteries with the handoff at 50 %:
    /// representative 0, drained to 40 %, holds member 1, which node 2
    /// can also model.
    fn exhausted_representative() -> (Network<ProtocolMsg>, Vec<SensorNode>, SnapshotConfig) {
        let (_, mut nodes, mut cfg) = setup(3, 0.0);
        cfg.energy_handoff_fraction = 0.5;
        let topo = Topology::random_uniform(3, 2.0, 5).expect("valid deployment");
        let mut net: Network<ProtocolMsg> = Network::with_finite_batteries(
            topo,
            LinkModel::Perfect,
            EnergyModel::default(),
            10.0,
            7,
        );
        net.charge(NodeId(0), 6.0, Phase::Test);
        wire_member(&mut nodes, NodeId(0), NodeId(1), &[(1.0, 1.0), (2.0, 2.0)]);
        for &(x, y) in &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)] {
            nodes[2].cache.observe(NodeId(1), x, y);
        }
        (net, nodes, cfg)
    }

    #[test]
    fn energy_handoff_moves_members_away() {
        let (mut net, mut nodes, cfg) = exhausted_representative();
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        let values = vec![4.0, 4.0, 4.0];
        let r = run_maintenance(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        assert_eq!(r.handoffs, 1);
        // The member left the exhausted representative for node 2.
        assert_eq!(nodes[1].representative(), Some(NodeId(2)));
    }

    #[test]
    fn a_handoff_check_moves_members_away_without_heartbeats() {
        let (mut net, mut nodes, cfg) = exhausted_representative();
        let mut rng = snapshot_netsim::rng::DetRng::seed_from_u64(1);
        let values = vec![4.0, 4.0, 4.0];
        let r = run_handoff_check(&mut net, &mut nodes, &values, &cfg, Epoch(2), &mut rng);
        assert_eq!((r.stepped_down, r.reassigned), (1, 1));
        assert!(r.election.is_some());
        assert_eq!(nodes[1].representative(), Some(NodeId(2)));
        assert_eq!(net.stats().sent_in_phase(NodeId(1), Phase::Heartbeat), 0);
        assert!(!nodes[0].refusing_invites, "the refusal outlived the check");
    }
}
