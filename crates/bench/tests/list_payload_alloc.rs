//! DESIGN.md §12, the delivery-path contract for the election's list
//! messages: a `Candidates` or `RepresentAck` broadcast costs one heap
//! allocation, its shared id list, and nothing per receiver. `deliver`
//! hands each receiver but the last a clone of the payload, which for
//! a shared list is a refcount bump, and the drain frees nothing but
//! the last reference. The counting global allocator observes
//! every allocation in the process, so this file holds exactly one
//! test: a second concurrent test would pollute the counter.

use snapshot_core::ProtocolMsg;
use snapshot_microbench::counting_alloc::{self, CountingAllocator};
use snapshot_netsim::{EnergyModel, LinkModel, Network, NodeId, Phase, Topology};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const N: u32 = 20;
const WARM_ROUNDS: u32 = 30;
const MEASURED_ROUNDS: u32 = 5;

/// Allocations one measured stretch of rounds made, by step.
#[derive(Debug, Default, PartialEq)]
struct Allocs {
    candidates: u64,
    acks: u64,
    deliver: u64,
    drains: u64,
}

/// One round in which every node broadcasts a candidate list and an
/// acknowledgment, then the drain hands every receiver its mail and
/// its lists are read. Returns the deliveries and the lists that named
/// node 0.
fn round(
    net: &mut Network<ProtocolMsg>,
    members: &mut Vec<NodeId>,
    allocs: &mut Allocs,
) -> (usize, usize) {
    let count = counting_alloc::allocations;
    for i in 0..N {
        // Lists of 1 to 7 ids, some naming node 0.
        let list: Vec<NodeId> = (i % 7..2 * (i % 7) + 1).map(NodeId).collect();
        let a0 = count();
        let msg = ProtocolMsg::Candidates {
            cand: list.as_slice().into(),
            already: 0,
        };
        let bytes = msg.wire_bytes();
        net.broadcast(NodeId(i), msg, bytes, Phase::Candidates);
        let a1 = count();
        let msg = ProtocolMsg::represent_ack(list.iter().copied(), members);
        let bytes = msg.wire_bytes();
        net.broadcast(NodeId(i), msg, bytes, Phase::Refinement);
        let a2 = count();
        allocs.candidates += a1 - a0;
        allocs.acks += a2 - a1;
    }
    let a0 = count();
    let delivered = net.deliver();
    let a1 = count();
    let mut named = 0;
    net.drain(|_, _, mail| {
        for d in mail {
            if let ProtocolMsg::Candidates { cand: ids, .. }
            | ProtocolMsg::RepresentAck { members: ids } = &d.payload
            {
                named += usize::from(ids.contains(&NodeId(0)));
            }
        }
    });
    allocs.deliver += a1 - a0;
    allocs.drains += count() - a1;
    (delivered, named)
}

#[test]
fn a_list_broadcast_costs_one_allocation_and_none_per_receiver() {
    for (name, link) in [
        ("perfect", LinkModel::Perfect),
        ("iid_loss(0.3)", LinkModel::iid_loss(0.3)),
    ] {
        let topo = Topology::random_uniform(N as usize, std::f64::consts::SQRT_2, 7)
            .expect("valid deployment");
        let mut net: Network<ProtocolMsg> = Network::new(topo, link, EnergyModel::default(), 11);
        for i in 0..N {
            let heard_by = net.topology().neighbors(NodeId(i)).len();
            assert!(heard_by >= 8, "node {i} has {heard_by} neighbours");
        }
        let mut members = Vec::new();
        // Warm rounds grow the outbox, the delivery scratch, every
        // inbox, the drain buffers and the member staging buffer to
        // steady-state capacity (under loss the receive counts are
        // binomial, so that takes a few dozen rounds).
        for _ in 0..WARM_ROUNDS {
            round(&mut net, &mut members, &mut Allocs::default());
        }

        let mut allocs = Allocs::default();
        let (mut delivered, mut named) = (0, 0);
        for _ in 0..MEASURED_ROUNDS {
            let (d, n) = round(&mut net, &mut members, &mut allocs);
            delivered += d;
            named += n;
        }

        let broadcasts = u64::from(N * MEASURED_ROUNDS);
        assert!(
            delivered as u64 > 8 * 2 * broadcasts,
            "{name}: only {delivered} deliveries"
        );
        assert!(named > 0, "{name}: no list named node 0");
        assert_eq!(
            allocs,
            Allocs {
                candidates: broadcasts,
                acks: broadcasts,
                deliver: 0,
                drains: 0,
            },
            "{name}: {broadcasts} broadcasts of each list message and {delivered} deliveries"
        );
    }
}
