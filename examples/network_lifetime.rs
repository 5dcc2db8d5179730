//! Network lifetime: the Figure 10 experiment as a runnable story.
//!
//! Two identical deployments with finite batteries (500 transmissions
//! each) answer the same stream of random spatial queries — one the
//! plain way (every matching node responds), one through the snapshot
//! (representatives answer for their members, paying for training,
//! election and maintenance). Watch the regular network collapse while
//! the snapshot network degrades gracefully.
//!
//! Run with:
//! ```text
//! cargo run --release --example network_lifetime
//! ```

use snapshot_netsim::rng::DetRng;
use snapshot_netsim::rng::RngExt;
use snapshot_queries::core::{
    Aggregate, CoverageTracker, QueryMode, SensorNetwork, SnapshotConfig, SnapshotQuery,
    SpatialPredicate,
};
use snapshot_queries::datagen::{random_walk, RandomWalkConfig};
use snapshot_queries::netsim::{EnergyModel, LinkModel, NodeId, Topology};

const BATTERY: f64 = 500.0;
const N_QUERIES: usize = 6000;
const BUCKET: usize = 500;
/// Energy-handoff check cadence: cheap (no messages and no delivery
/// round unless a handoff fires), so it runs often enough that a
/// representative rotates out before its battery dies.
const HANDOFF_EVERY: usize = 25;
/// Full maintenance (heartbeats) cadence: each heartbeat costs the
/// member a transmission, so this is only a safety net for orphans.
const MAINTENANCE_EVERY: usize = 1000;

fn build(seed: u64) -> SensorNetwork {
    let data = random_walk(&RandomWalkConfig {
        steps: 200,
        ..RandomWalkConfig::paper_defaults(1, seed)
    })
    .expect("valid config");
    let topology = Topology::random_uniform(100, 0.7, seed).expect("valid deployment");
    SensorNetwork::with_battery_capacity(
        topology,
        LinkModel::Perfect,
        EnergyModel::default(),
        BATTERY,
        SnapshotConfig::paper(1.0, 2048, seed),
        data.trace,
    )
}

fn drive(
    network: &mut SensorNetwork,
    mode: QueryMode,
    maintain: bool,
    seed: u64,
) -> CoverageTracker {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut tracker = CoverageTracker::new();
    for q in 0..N_QUERIES {
        let x: f64 = rng.random_f64();
        let y: f64 = rng.random_f64();
        let sink = NodeId(rng.random_range(0..100u32));
        let pred = SpatialPredicate::window(x, y, 0.316); // area ~0.1
        let res = network.query(&SnapshotQuery::aggregate(pred, Aggregate::Avg, mode), sink);
        tracker.record(res.rows.len(), res.targets);
        if maintain {
            if q % HANDOFF_EVERY == HANDOFF_EVERY - 1 {
                let _ = network.check_handoffs();
            }
            if q % MAINTENANCE_EVERY == MAINTENANCE_EVERY - 1 {
                let _ = network.maintain();
            }
        }
        network.advance(1);
    }
    tracker
}

fn main() {
    let seed = 7;

    // Regular run: energy goes only into answering queries.
    let mut regular = build(seed);
    let reg_cov = drive(&mut regular, QueryMode::Regular, false, seed);

    // Snapshot run: pay for training, the election, and periodic
    // maintenance — then let most of the network sleep. The Section
    // 5.1 energy handoff rotates exhausted representatives out before
    // they die, and drained nodes refuse candidacy.
    let mut snap = build(seed);
    snap.set_energy_handoff_fraction(0.12);
    snap.set_invite_learn_prob(0.0);
    snap.train(0, 10);
    snap.set_time(99);
    let outcome = snap.elect();
    println!(
        "snapshot of {} representatives elected; starting the query storm...\n",
        outcome.snapshot_size
    );
    let snap_cov = drive(&mut snap, QueryMode::Snapshot, true, seed);

    println!("coverage over the query stream (bucketed means):");
    println!("{:>12}  {:>10}  {:>10}", "queries", "regular", "snapshot");
    let mut from = 0;
    while from < N_QUERIES {
        let to = (from + BUCKET).min(N_QUERIES);
        println!(
            "{:>5}-{:<6}  {:>9.1}%  {:>9.1}%",
            from,
            to,
            reg_cov.window_mean(from, to) * 100.0,
            snap_cov.window_mean(from, to) * 100.0
        );
        from = to;
    }

    println!(
        "\narea under the curve: regular {:.3}, snapshot {:.3}",
        reg_cov.mean(),
        snap_cov.mean()
    );
    println!(
        "nodes still alive:    regular {:>3}, snapshot {:>3}",
        regular.net().alive_count(),
        snap.net().alive_count()
    );
    if let Some(q) = reg_cov.first_below(0.5) {
        println!("the regular network first fell below 50% coverage at query {q}");
    }
}
