//! The allocation contracts of netsim's per-tick entry points and of
//! the cache manager (DESIGN.md §15), asserted exactly: once warm, with
//! telemetry off, `deliver`, `Network::drain` under both drain modes,
//! the scheduler and fault checks, a node move, a full cache's
//! decisions and a training tick on full caches perform **zero** heap
//! allocations.
//! Each case drives one path to steady state, then counts the
//! allocations of a window of further ticks and checks that the window
//! did the work its case names: a window that delivered nothing would
//! read 0 for the wrong reason.
//!
//! `zero_alloc_sweep.rs` runs the cases. This module registers the
//! counting global allocator, which observes every allocation in the
//! process, so that file holds exactly one test: a second test on a
//! parallel thread would pollute the counter.

use snapshot_bench::RandomWalkSetup;
use snapshot_core::{CacheConfig, CacheDecision, CachePolicy, ModelCache};
use snapshot_microbench::counting_alloc::{self, CountingAllocator};
use snapshot_netsim::{
    DrainMode, EnergyModel, FaultPlan, GilbertElliott, LinkModel, Network, NodeId, Phase, Position,
    SpanKind, Topology,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Nodes of the dense deployment: every node in range of every other,
/// as in the paper's √2-range deployments.
const DENSE_N: u32 = 50;

/// Ticks run before a window is counted. Capacities circulate between
/// the network's mail buffer and the inboxes, and under loss the
/// per-round receive counts are random, so every circulating `Vec` is
/// as large as the worst receive count only after a few dozen rounds.
const WARM_TICKS: usize = 30;

/// Ticks in a counted window.
const WINDOW_TICKS: usize = 5;

/// What one case's counted window did.
struct Window {
    allocs: u64,
    /// Whether the window exercised the path its case names.
    exercised: bool,
}

/// A named case: it builds a network, warms it and counts one window.
type Case = (&'static str, fn() -> Window);

/// Count the allocations of `window`, which reports whether it
/// exercised its path.
fn count(window: impl FnOnce() -> bool) -> Window {
    let before = counting_alloc::allocations();
    let exercised = window();
    Window {
        allocs: counting_alloc::allocations() - before,
        exercised,
    }
}

fn dense_topology() -> Topology {
    Topology::random_uniform(DENSE_N as usize, std::f64::consts::SQRT_2, 7)
        .expect("valid deployment")
}

fn dense(link: LinkModel) -> Network<u64> {
    Network::new(dense_topology(), link, EnergyModel::default(), 11)
}

/// One round: every node broadcasts, the round is delivered, and the
/// drain hands every receiver its mail. The explicit span pair (and
/// the `Deliver` span `deliver` opens) must be no-ops with telemetry
/// off. Returns the deliveries.
fn round(net: &mut Network<u64>) -> usize {
    let span = net.open_span(SpanKind::Election);
    for i in 0..DENSE_N {
        net.broadcast(NodeId(i), u64::from(i), 16, Phase::Data);
    }
    let delivered = net.deliver();
    net.drain(|_, _, _| {});
    net.close_span(span);
    delivered
}

/// Warm `net` with broadcast rounds, then count a window of them. The
/// window must deliver.
fn rounds(net: &mut Network<u64>) -> Window {
    for _ in 0..WARM_TICKS {
        round(net);
    }
    count(|| {
        let delivered: usize = (0..WINDOW_TICKS).map(|_| round(net)).sum();
        delivered > 0
    })
}

fn deliver_under(link: LinkModel) -> Window {
    rounds(&mut dense(link))
}

/// Directed losses that differ per link and by direction, the
/// paper's "obstacle in their direct path" case.
fn per_link() -> LinkModel {
    let n = DENSE_N as usize;
    let p_loss = (0..n)
        .map(|src| {
            (0..n)
                .map(|dst| if src < dst { 0.1 } else { 0.5 })
                .collect()
        })
        .collect();
    LinkModel::PerLink { p_loss }
}

/// One tick in which every third node broadcasts, then the drain
/// visits every candidate, reading the mail of every other one and
/// leaving the rest unread. Returns how many messages were read.
fn drain_tick(net: &mut Network<u64>) -> usize {
    for i in (0..DENSE_N).step_by(3) {
        net.broadcast(NodeId(i), u64::from(i), 16, Phase::Data);
    }
    net.deliver();
    let mut read = 0;
    net.drain(|_, id, mail| {
        if id.0 % 2 == 0 {
            read += mail.count();
        }
    });
    read
}

fn drain(mode: DrainMode) -> Window {
    let mut net = dense(LinkModel::iid_loss(0.3));
    net.set_drain_mode(mode);
    // A node that never broadcasts is down, so each all-scan drain
    // discards a dead candidate.
    net.kill(NodeId(1));
    for _ in 0..WARM_TICKS {
        drain_tick(&mut net);
    }
    count(|| {
        (0..WINDOW_TICKS).all(|_| drain_tick(&mut net) > 0) && net.scheduler().woken_len() == 0
    })
}

/// Drain `net`, returning how many nodes it visited and the last one.
fn visit(net: &mut Network<u64>) -> (usize, Option<NodeId>) {
    let (mut visited, mut last) = (0, None);
    net.drain(|_, id, _| {
        visited += 1;
        last = Some(id);
    });
    (visited, last)
}

/// Quiescent ticks at `n` nodes: nothing is sent, scheduled or woken,
/// so `deliver` and the wake-list drain must cost O(1) and allocate
/// nothing however large the network.
fn quiescent(n: usize) -> Window {
    let topo = Topology::random_uniform(n, 0.004, 7).expect("valid deployment");
    let mut net: Network<u64> = Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 11);
    // One active round grows the outbox, an inbox and the drain
    // buffers; one quiescent tick follows it.
    net.broadcast(NodeId(0), 1, 16, Phase::Data);
    net.deliver();
    visit(&mut net);
    net.deliver();
    visit(&mut net);
    count(|| {
        (0..100).all(|_| {
            net.deliver();
            visit(&mut net).0 == 0
        })
    })
}

/// Broadcast rounds after the one-line fault `plan` fired at tick 1.
/// The plan stays attached, so every `deliver` asks the schedule when
/// it is next due. `fired` checks that the fault took effect.
fn after_fault(plan: &str, fired: fn(&Network<u64>) -> bool) -> Window {
    let mut net = dense(LinkModel::Perfect);
    net.set_fault_plan(FaultPlan::parse(plan).expect("valid plan"));
    let window = rounds(&mut net);
    Window {
        exercised: window.exercised && fired(&net),
        ..window
    }
}

/// Ticks that each fire two timers, all scheduled before the window
/// opened.
fn timers() -> Window {
    let mut net = dense(LinkModel::Perfect);
    let ticks = (WARM_TICKS + WINDOW_TICKS) as u64;
    for tick in 1..=ticks {
        for (priority, node) in [(1, tick), (0, tick + 7)] {
            net.schedule_wake(tick, priority, NodeId(node as u32 % DENSE_N));
        }
    }
    let tick = |net: &mut Network<u64>| {
        net.deliver();
        visit(net).0 == 2
    };
    for _ in 0..WARM_TICKS {
        tick(&mut net);
    }
    count(|| (0..WINDOW_TICKS).all(|_| tick(&mut net)) && net.scheduler().pending_timers() == 0)
}

/// A node moved to a far cell and back, pair after pair: `move_node`
/// updates the grid (`relocate`) and every affected neighbour list
/// (`set_position` over `candidates_around`). Both cells hold other
/// nodes, so neither bucket is ever emptied or created.
fn moves() -> Window {
    const RANGE: f64 = 0.1;
    let topo = Topology::random_uniform(1_000, RANGE, 7).expect("valid deployment");
    let mut net: Network<u64> = Network::new(topo, LinkModel::Perfect, EnergyModel::default(), 11);
    let id = NodeId(0);
    let home = net.topology().position(id);
    let away = Position::new((home.x + 0.5).fract(), (home.y + 0.5).fract());
    let pair = |net: &mut Network<u64>| {
        net.move_node(id, away);
        let neighbours_away = net.topology().neighbors(id).len();
        net.move_node(id, home);
        neighbours_away > 0
            && !net.topology().neighbors(id).is_empty()
            && visit(net) == (1, Some(id))
    };
    for _ in 0..3 {
        pair(&mut net);
    }
    let far = home.distance(&away) > 2.0 * RANGE;
    count(|| far && (0..WINDOW_TICKS).all(|_| pair(&mut net)))
}

/// Broadcast rounds on finite batteries that also pay to receive. The
/// capacity runs out inside the window, so the window covers the
/// depletion branch too.
fn finite_batteries() -> Window {
    let energy = EnergyModel {
        rx_cost: 0.05,
        ..EnergyModel::default()
    };
    let mut net = Network::with_finite_batteries(
        dense_topology(),
        LinkModel::iid_loss(0.3),
        energy,
        90.0,
        11,
    );
    for _ in 0..WARM_TICKS {
        round(&mut net);
    }
    let alive = net.alive_count();
    count(|| {
        let delivered: usize = (0..WINDOW_TICKS).map(|_| round(&mut net)).sum();
        delivered > 0 && alive == DENSE_N as usize && net.alive_count() < alive
    })
}

/// Neighbours a bare cache hears from.
const CACHE_NEIGHBOURS: u32 = 99;

/// One delivery round's observations on a bare cache: every neighbour
/// in ascending order, on a noisy line per neighbour. Returns how many
/// went to a line that had emptied and how many evicted a pair.
fn cache_round(cache: &mut ModelCache, round: u32) -> (usize, usize) {
    let (mut returned, mut evicted) = (0, 0);
    for j in 0..CACHE_NEIGHBOURS {
        let x = f64::from((round * 7 + j) % 23);
        let y = (1.0 + f64::from(j % 5)) * x + f64::from((round * 3 + j * 5) % 11);
        returned += usize::from(cache.line(NodeId(j)).is_none());
        evicted += usize::from(matches!(
            cache.observe(NodeId(j), x, y),
            CacheDecision::AdmittedEvicting(_) | CacheDecision::NewcomerEvicting(_)
        ));
    }
    (returned, evicted)
}

/// A full cache that keeps deciding: 64 pairs shared by 99 neighbours,
/// so lines empty and come back as newcomers. The first round fills it
/// and reaches its most lines; the window must evict and bring lines
/// back.
fn full_cache(policy: CachePolicy) -> Window {
    let mut cache = ModelCache::new(CacheConfig {
        budget_bytes: 512,
        pair_bytes: 8,
        policy,
    });
    for round in 0..WARM_TICKS as u32 {
        cache_round(&mut cache, round);
    }
    count(|| {
        let rounds = WARM_TICKS as u32..(WARM_TICKS + WINDOW_TICKS) as u32;
        let (returned, evicted) = rounds.fold((0, 0), |(r, e), round| {
            let (dr, de) = cache_round(&mut cache, round);
            (r + dr, e + de)
        });
        returned > 0 && evicted > 0 && cache.is_full()
    })
}

/// Training ticks on the paper's 100-node deployment once every cache
/// is full (it fills during tick 2), counted on the network that ran
/// the earlier ticks. The window must send, and move pairs.
fn full_cache_training() -> Window {
    let mut sn = RandomWalkSetup {
        k: 10,
        train_until: 9,
        ..RandomWalkSetup::default()
    }
    .build(42);
    let warm = 9 + 3;
    sn.train(9, warm);
    let digest = |sn: &snapshot_core::SensorNetwork| -> f64 {
        let lines = sn.nodes().iter().flat_map(|n| n.cache.lines());
        lines.map(|(_, line)| line.stats().sx).sum()
    };
    let (sent, moved) = (sn.stats().total_sent(), digest(&sn));
    let full = sn.nodes().iter().all(|n| n.cache.is_full());
    count(|| {
        sn.train(warm, warm + WINDOW_TICKS);
        full && sn.stats().total_sent() > sent && digest(&sn) != moved
    })
}

/// Run every case and assert that each counted window made zero
/// allocations and exercised its path. Every case runs, and the
/// failure names each one that failed, not just the first.
pub fn assert_zero_alloc() {
    let cases: [Case; 21] = [
        ("deliver/perfect", || deliver_under(LinkModel::Perfect)),
        ("deliver/iid", || deliver_under(LinkModel::iid_loss(0.3))),
        ("deliver/per_link", || deliver_under(per_link())),
        ("deliver/distance_degraded", || {
            deliver_under(LinkModel::DistanceDegraded {
                p_near: 0.0,
                p_far: 0.6,
            })
        }),
        ("deliver/burst", || {
            let params = GilbertElliott::with_average_loss(0.3, 0.1, 0.1);
            deliver_under(LinkModel::gilbert_elliott(DENSE_N as usize, params))
        }),
        ("drain/wake_list", || drain(DrainMode::WakeList)),
        ("drain/all_scan", || drain(DrainMode::AllScan)),
        ("quiescent/1k", || quiescent(1_000)),
        ("quiescent/20k", || quiescent(20_000)),
        ("fault/crash", || {
            after_fault("1 crash 3", |net| !net.is_alive(NodeId(3)))
        }),
        ("fault/outage_pending", || {
            // The recovery is due long after the window, so every
            // tick's due check walks it.
            after_fault("1 outage 7 for 1000", |net| !net.is_alive(NodeId(7)))
        }),
        ("fault/blackout", || {
            after_fault("1 blackout 0.5 0.5 0.3", |net| {
                (net.alive_count() as u32) < DENSE_N
            })
        }),
        ("fault/drain", || {
            after_fault("1 drain 9 x2.0", |net| {
                net.drain_multiplier(NodeId(9)) == 2.0
            })
        }),
        ("fault/link_iid", || {
            after_fault("1 link iid 0.3", |net| {
                matches!(net.link_model(), LinkModel::Iid { .. })
            })
        }),
        ("fault/link_burst", || {
            after_fault("1 link burst 0.1 0.1 0.0 0.6", |net| {
                matches!(net.link_model(), LinkModel::Burst { .. })
            })
        }),
        ("timer/due", timers),
        ("mobility/cross_cell_pair", moves),
        ("battery/finite_rx_cost", finite_batteries),
        ("cache/full_model_aware", || {
            full_cache(CachePolicy::ModelAware)
        }),
        ("cache/full_round_robin", || {
            full_cache(CachePolicy::RoundRobin)
        }),
        ("train/full_cache_tick", full_cache_training),
    ];

    let failures: Vec<String> = cases
        .iter()
        .filter_map(|&(name, case)| {
            let window = case();
            match (window.allocs, window.exercised) {
                (0, true) => None,
                (allocs, exercised) => Some(format!(
                    "{name}: {allocs} allocation(s){}",
                    if exercised {
                        ""
                    } else {
                        "; the window did not exercise its path"
                    }
                )),
            }
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} cases failed with telemetry off:\n  {}",
        failures.len(),
        cases.len(),
        failures.join("\n  ")
    );
}
