//! Message and energy accounting.
//!
//! Table 2 of the paper bounds the election protocol at five messages
//! per node (six during maintenance); Figures 14/15 report the average
//! number of messages per node per snapshot update. These statistics
//! are gathered here, broken down by protocol [`Phase`] exactly the
//! way Table 2 does.
//!
//! Phases were once free-form `&str` labels backed by a
//! `BTreeMap<String, Vec<u64>>`; they are now the interned
//! [`Phase`] enum from `snapshot-telemetry`, so every counter is a
//! fixed-size array lookup — no allocation or tree walk on the send
//! hot path — and losses are attributed to a phase symmetrically with
//! sends.

use crate::node::NodeId;
use snapshot_telemetry::Phase;

/// Per-node, per-phase message counters: the one ledger of messages.
/// Each send and each loss is counted once, in its node × phase cell;
/// per-node and network-wide totals are sums over those rows.
///
/// Construct with [`NetStats::new`] — the node count fixes the size of
/// every counter vector. (There is deliberately no `Default`: a
/// zero-node instance would panic on the first record.) Only netsim
/// writes the counters; callers read them, or [`NetStats::reset`] them
/// between measured windows.
#[derive(Debug, Clone)]
pub struct NetStats {
    n: usize,
    received: Vec<u64>,
    /// per-node × per-phase sent counts
    phase_sent: Vec<[u64; Phase::COUNT]>,
    /// per-node × per-phase lost-delivery counts, indexed by the
    /// *receiver* that missed the message
    phase_lost: Vec<[u64; Phase::COUNT]>,
    /// delivery ticks recorded via [`NetStats::record_tick`]
    ticks: u64,
    /// total fresh wakes across those ticks (active-set churn); the
    /// quotient is a machine-independent per-tick activity metric
    woken: u64,
}

impl NetStats {
    /// Counters for an `n`-node network, all zero.
    pub fn new(n: usize) -> Self {
        NetStats {
            n,
            received: vec![0; n],
            phase_sent: vec![[0; Phase::COUNT]; n],
            phase_lost: vec![[0; Phase::COUNT]; n],
            ticks: 0,
            woken: 0,
        }
    }

    /// Record one delivery tick that produced `woken` fresh wakes
    /// (nodes added to the active set by a message, timer, fault or
    /// move). Deterministic — a pure function of the simulation, not
    /// of wall-clock — so per-tick activity can appear in experiment
    /// artifacts without breaking byte-identity across machines.
    pub(crate) fn record_tick(&mut self, woken: u64) {
        self.ticks += 1;
        self.woken += woken;
    }

    /// Delivery ticks recorded since construction or [`NetStats::reset`].
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total fresh wakes across all recorded ticks.
    pub fn woken_total(&self) -> u64 {
        self.woken
    }

    /// Mean fresh wakes per delivery tick — the deterministic
    /// active-set size proxy reported by the `scale` experiment
    /// (quiescent phases sit near 0, active phases near the flood
    /// fan-out).
    pub fn mean_woken_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.woken as f64 / self.ticks as f64
        }
    }

    /// Record one transmission by `src` in `phase`.
    pub(crate) fn record_send(&mut self, src: NodeId, phase: Phase) {
        self.phase_sent[src.index()][phase.index()] += 1;
    }

    /// Record a successful delivery at `dst`.
    pub(crate) fn record_receive(&mut self, dst: NodeId) {
        self.received[dst.index()] += 1;
    }

    /// Record a delivery attempt at `dst` destroyed by link loss,
    /// attributed to the phase of the lost message.
    pub(crate) fn record_loss(&mut self, dst: NodeId, phase: Phase) {
        self.phase_lost[dst.index()][phase.index()] += 1;
    }

    /// Messages sent by one node, all phases.
    pub fn sent_by(&self, id: NodeId) -> u64 {
        self.phase_sent[id.index()].iter().sum()
    }

    /// Messages received by one node.
    pub fn received_by(&self, id: NodeId) -> u64 {
        self.received[id.index()]
    }

    /// Total messages sent network-wide.
    pub fn total_sent(&self) -> u64 {
        self.phase_sent.iter().flatten().sum()
    }

    /// Total successful deliveries network-wide.
    pub fn total_received(&self) -> u64 {
        self.received.iter().sum()
    }

    /// Total deliveries destroyed by loss.
    pub fn total_lost(&self) -> u64 {
        self.phase_lost.iter().flatten().sum()
    }

    /// Mean messages sent per node, all phases.
    pub fn mean_sent_per_node(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_sent() as f64 / self.n as f64
        }
    }

    /// Messages sent by one node in one phase.
    pub fn sent_in_phase(&self, id: NodeId, phase: Phase) -> u64 {
        self.phase_sent[id.index()][phase.index()]
    }

    /// Deliveries one node missed to loss in one phase.
    pub fn lost_in_phase(&self, id: NodeId, phase: Phase) -> u64 {
        self.phase_lost[id.index()][phase.index()]
    }

    /// Total messages sent in one phase across all nodes.
    pub fn phase_total(&self, phase: Phase) -> u64 {
        self.phase_sent.iter().map(|row| row[phase.index()]).sum()
    }

    /// Total deliveries destroyed by loss in one phase across all
    /// nodes.
    pub fn phase_lost_total(&self, phase: Phase) -> u64 {
        self.phase_lost.iter().map(|row| row[phase.index()]).sum()
    }

    /// Maximum messages sent by any single node in one phase —
    /// used to verify the paper's per-phase bounds (Table 2).
    pub fn phase_max_per_node(&self, phase: Phase) -> u64 {
        self.phase_sent
            .iter()
            .map(|row| row[phase.index()])
            .max()
            .unwrap_or(0)
    }

    /// Maximum messages sent by any single node across all phases.
    pub fn max_sent_per_node(&self) -> u64 {
        self.phase_sent
            .iter()
            .map(|row| row.iter().sum())
            .max()
            .unwrap_or(0)
    }

    /// All phases with at least one sent or lost message, in charging
    /// order.
    pub fn phases(&self) -> impl Iterator<Item = Phase> + '_ {
        Phase::ALL
            .into_iter()
            .filter(|p| self.phase_total(*p) > 0 || self.phase_lost_total(*p) > 0)
    }

    /// Reset every counter to zero (e.g. between maintenance rounds),
    /// keeping the node count.
    pub fn reset(&mut self) {
        self.received.iter_mut().for_each(|c| *c = 0);
        self.phase_sent
            .iter_mut()
            .for_each(|row| *row = [0; Phase::COUNT]);
        self.phase_lost
            .iter_mut()
            .for_each(|row| *row = [0; Phase::COUNT]);
        self.ticks = 0;
        self.woken = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_phase() {
        let mut s = NetStats::new(3);
        s.record_send(NodeId(0), Phase::Invitation);
        s.record_send(NodeId(0), Phase::Invitation);
        s.record_send(NodeId(1), Phase::Candidates);
        s.record_receive(NodeId(2));
        s.record_loss(NodeId(2), Phase::Invitation);

        assert_eq!(s.sent_by(NodeId(0)), 2);
        assert_eq!(s.sent_in_phase(NodeId(0), Phase::Invitation), 2);
        assert_eq!(s.sent_in_phase(NodeId(0), Phase::Candidates), 0);
        assert_eq!(s.phase_total(Phase::Invitation), 2);
        assert_eq!(s.phase_max_per_node(Phase::Invitation), 2);
        assert_eq!(s.total_sent(), 3);
        assert_eq!(s.total_received(), 1);
        assert_eq!(s.total_lost(), 1);
        assert_eq!(s.received_by(NodeId(2)), 1);
        assert!((s.mean_sent_per_node() - 1.0).abs() < 1e-12);
        assert_eq!(s.max_sent_per_node(), 2);
    }

    #[test]
    fn losses_are_attributed_to_phases_symmetrically() {
        let mut s = NetStats::new(2);
        s.record_loss(NodeId(1), Phase::Heartbeat);
        s.record_loss(NodeId(1), Phase::Heartbeat);
        s.record_loss(NodeId(0), Phase::Query);

        assert_eq!(s.lost_in_phase(NodeId(1), Phase::Heartbeat), 2);
        assert_eq!(s.lost_in_phase(NodeId(1), Phase::Query), 0);
        assert_eq!(s.phase_lost_total(Phase::Heartbeat), 2);
        assert_eq!(s.phase_lost_total(Phase::Query), 1);
        assert_eq!(s.total_lost(), 3);
        // Loss-only phases still show up in the phase listing.
        let phases: Vec<_> = s.phases().collect();
        assert_eq!(phases, vec![Phase::Heartbeat, Phase::Query]);
    }

    #[test]
    fn untouched_phase_reads_as_zero() {
        let s = NetStats::new(2);
        assert_eq!(s.phase_total(Phase::Flood), 0);
        assert_eq!(s.sent_in_phase(NodeId(0), Phase::Flood), 0);
        assert_eq!(s.phase_max_per_node(Phase::Flood), 0);
        assert_eq!(s.phase_lost_total(Phase::Flood), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = NetStats::new(2);
        s.record_send(NodeId(0), Phase::Test);
        s.record_receive(NodeId(1));
        s.record_loss(NodeId(1), Phase::Test);
        s.record_tick(5);
        s.reset();
        assert_eq!(s.total_sent(), 0);
        assert_eq!(s.total_received(), 0);
        assert_eq!(s.total_lost(), 0);
        assert_eq!(s.phases().count(), 0);
        assert_eq!(s.ticks(), 0);
        assert_eq!(s.woken_total(), 0);
    }

    #[test]
    fn tick_activity_counters_average_fresh_wakes() {
        let mut s = NetStats::new(4);
        assert_eq!(s.mean_woken_per_tick(), 0.0);
        s.record_tick(4);
        s.record_tick(0);
        s.record_tick(2);
        assert_eq!(s.ticks(), 3);
        assert_eq!(s.woken_total(), 6);
        assert!((s.mean_woken_per_tick() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn phases_listed_in_charging_order() {
        let mut s = NetStats::new(1);
        s.record_send(NodeId(0), Phase::Query);
        s.record_send(NodeId(0), Phase::Data);
        let phases: Vec<_> = s.phases().collect();
        assert_eq!(phases, vec![Phase::Data, Phase::Query]);
    }
}
