//! The delta-encoding equivalence suite: a store that writes most
//! checkpoints as deltas against the one before must give back exactly
//! what was appended.
//!
//! Each seeded deployment (both cache policies, finite batteries)
//! captures `2K + 3` checkpoints, `K` being the keyframe interval. Between
//! captures it runs a random mix of time steps, snooping steps,
//! `maintain()`, kills, revivals, `move_node` and battery deaths, so
//! the deltas carry every record kind. Then:
//!
//! 1. every version rebuilt through its chain equals the appended
//!    `CheckpointState` bit for bit;
//! 2. every `AS OF` image answers an aggregate, a drill-through and a
//!    representative-routing query exactly as an image built from the
//!    appended state alone does, whichever order the versions are
//!    first read in;
//! 3. a writer that reopens the file before every append writes the
//!    same bytes as one uninterrupted writer;
//! 4. `rebuild` is byte-identical and `verify` counts the keyframes
//!    the format places;
//! 5. across the sweep, every delta record kind occurs.

use snapshot_queries::core::{
    Aggregate, CachePolicy, CheckpointState, CoreError, FrozenCheckpoint, QueryMode, QueryResult,
    SensorNetwork, SnapshotConfig, SnapshotQuery, SpatialPredicate,
};
use snapshot_queries::datagen::{random_walk, RandomWalkConfig};
use snapshot_queries::netsim::rng::{DetRng, RngExt};
use snapshot_queries::netsim::{EnergyModel, LinkModel, NodeId, Position, Topology};
use snapshot_queries::store::format::{encode_checkpoint, KEYFRAME_INTERVAL};
use snapshot_queries::store::SnapshotStore;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Seeded deployments in the sweep, alternating cache policies.
const DEPLOYMENTS: usize = 50;

/// Captures per deployment: three keyframes, the last with two deltas.
const CAPTURES: usize = 2 * KEYFRAME_INTERVAL + 3;

/// Every record a delta block can hold, by its first word.
const DELTA_RECORDS: [&str; 9] = [
    "values", "alive", "pos", "adj", "node", "members", "line", "edit", "remove",
];

fn build(id: usize, seed: u64) -> SensorNetwork {
    let n_nodes = 12 + id % 13;
    let data = random_walk(&RandomWalkConfig {
        n_nodes,
        steps: 160,
        ..RandomWalkConfig::paper_defaults(1 + id % 3, seed)
    })
    .expect("valid random-walk configuration");
    let topo = Topology::random_uniform(n_nodes, 0.6, seed).expect("valid deployment");
    let mut cfg = SnapshotConfig::paper(1.0, 256 + 128 * (id % 4), seed);
    cfg.cache.policy = if id.is_multiple_of(2) {
        CachePolicy::ModelAware
    } else {
        CachePolicy::RoundRobin
    };
    let mut sn = SensorNetwork::with_battery_capacity(
        topo,
        LinkModel::Perfect,
        EnergyModel::default(),
        400.0,
        cfg,
        data.trace,
    );
    sn.train(0, 10);
    sn.set_time(40);
    let _ = sn.elect();
    sn
}

/// What happened between two captures, for the sweep's coverage
/// checks.
#[derive(Default)]
struct Events {
    revivals: usize,
    moves: usize,
}

/// One random mix of changes between two captures. Time always moves,
/// so every capture's tick is new and its values may change.
fn perturb(sn: &mut SensorNetwork, rng: &mut DetRng, events: &mut Events) {
    let n = sn.nodes().len() as u64;
    let pick = |rng: &mut DetRng| NodeId(rng.random_range(1..n) as u32);
    sn.advance(rng.random_range(1..3u64) as usize);
    if rng.random_range(0..5u32) == 0 {
        let now = sn.now();
        sn.train(now, now + 1);
    }
    if rng.random_range(0..6u32) == 0 {
        sn.net_mut().kill(pick(rng));
    }
    if rng.random_range(0..6u32) == 0 {
        let id = pick(rng);
        if !sn.net().is_alive(id) && sn.net().battery(id).is_alive() {
            sn.net_mut().revive(id);
            events.revivals += 1;
        }
    }
    if rng.random_range(0..8u32) == 0 {
        let id = pick(rng);
        let (x, y) = (rng.random_range(0..100u32), rng.random_range(0..100u32));
        sn.net_mut().move_node(
            id,
            Position::new(f64::from(x) / 100.0, f64::from(y) / 100.0),
        );
        events.moves += 1;
    }
    if rng.random_range(0..8u32) == 0 {
        // A node whose next transmission empties its battery.
        sn.net_mut().set_drain_multiplier(Some(pick(rng)), 1e9);
    }
    if rng.random_range(0..3u32) == 0 {
        let _ = sn.maintain();
    }
}

fn scratch(id: usize, label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "store-delta-{}-{id}-{label}.store",
        std::process::id()
    ))
}

/// A checkpoint's bit-exact fingerprint: its keyframe encoding.
fn bits(cp: &CheckpointState) -> String {
    encode_checkpoint(0, cp)
}

/// A query answer's bit-exact fingerprint.
fn answer(r: Result<QueryResult, CoreError>) -> String {
    match r {
        Err(e) => format!("error {e:?}"),
        Ok(r) => format!(
            "{:?} {:?} {} {:?} {:?} {:?} {} {:016x}",
            r.mode,
            r.responders,
            r.participants,
            r.rows
                .iter()
                .map(|&(id, v)| (id, v.to_bits()))
                .collect::<Vec<_>>(),
            r.value.map(f64::to_bits),
            r.ground_truth.map(f64::to_bits),
            r.targets,
            r.coverage.to_bits()
        ),
    }
}

fn answers(image: &FrozenCheckpoint, alive: &[bool]) -> Vec<String> {
    let queries = [
        SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Avg, QueryMode::Snapshot),
        SnapshotQuery::drill_through(SpatialPredicate::window(0.5, 0.5, 0.6), QueryMode::Snapshot),
        SnapshotQuery::aggregate(SpatialPredicate::All, Aggregate::Sum, QueryMode::Snapshot)
            .with_representative_routing(),
    ];
    let sinks = [Some(0), alive.iter().position(|&a| a)];
    queries
        .iter()
        .flat_map(|q| {
            sinks
                .iter()
                .flatten()
                .map(move |&sink| answer(image.execute(q, NodeId(sink as u32))))
        })
        .collect()
}

/// Record the first word of every line inside a delta block of `text`.
fn delta_records(text: &str, seen: &mut BTreeSet<String>) {
    let mut in_delta = false;
    for line in text.lines() {
        let word = line.split_ascii_whitespace().next().unwrap_or_default();
        match word {
            "delta" => in_delta = true,
            "end" => in_delta = false,
            _ if in_delta => {
                seen.insert(word.to_string());
            }
            _ => {}
        }
    }
}

#[test]
fn delta_chains_give_back_exactly_what_was_appended() {
    let mut seen = BTreeSet::new();
    let mut events = Events::default();
    let mut battery_deaths = 0;
    let mut policies = BTreeSet::new();
    for id in 0..DEPLOYMENTS {
        let seed = 1 + 7919 * id as u64;
        let mut rng = DetRng::seed_from_u64(seed ^ 0xDE17A);
        let mut sn = build(id, seed);
        let (path, reopened, rebuilt) = (
            scratch(id, "once"),
            scratch(id, "reopened"),
            scratch(id, "rebuilt"),
        );
        let mut store = SnapshotStore::create(&path).expect("temp dir is writable");
        SnapshotStore::create(&reopened).expect("temp dir is writable");
        let mut appended = Vec::with_capacity(CAPTURES);
        for capture in 0..CAPTURES {
            if capture > 0 {
                perturb(&mut sn, &mut rng, &mut events);
            }
            let cp = sn.checkpoint();
            policies.insert(format!("{:?}", cp.policy));
            store.append_checkpoint(&cp).expect("append");
            SnapshotStore::open(&reopened)
                .and_then(|mut again| again.append_checkpoint(&cp))
                .expect("append after reopening");
            appended.push(cp);
        }
        battery_deaths += (0..sn.nodes().len())
            .filter(|&i| !sn.net().battery(NodeId(i as u32)).is_alive())
            .count();

        // 3: reopening the writer changes no byte.
        let bytes = std::fs::read(&path).expect("read store");
        assert!(
            bytes == std::fs::read(&reopened).expect("read store"),
            "deployment {id}: a reopened writer wrote different bytes"
        );

        // 1: every version read back through its chain, cold.
        let store = SnapshotStore::open(&path).expect("reopen");
        let versions: Vec<u64> = store.versions().iter().map(|info| info.version).collect();
        assert_eq!(versions.len(), CAPTURES);
        for (&version, cp) in versions.iter().zip(&appended) {
            let back = store.checkpoint(version).expect("chain rebuilds");
            assert!(
                bits(&back) == bits(cp),
                "deployment {id}: version {version} rebuilt differently"
            );
        }

        // 2: images, first read in a random order so chains are built
        // both cold and from a partly built parent.
        let mut order: Vec<usize> = (0..CAPTURES).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i as u64 + 1) as usize);
        }
        for i in order {
            let cp = &appended[i];
            let (version, image) = store.checkpoint_as_of(cp.tick).expect("AS OF");
            assert_eq!(version, versions[i]);
            let fresh = FrozenCheckpoint::new(cp).expect("appended state validates");
            assert_eq!(
                answers(&image, &cp.alive),
                answers(&fresh, &cp.alive),
                "deployment {id}: version {version}'s image answers differently"
            );
        }

        // 4: rebuild and verify.
        store.rebuild(&rebuilt).expect("rebuild");
        assert!(
            bytes == std::fs::read(&rebuilt).expect("read rebuilt store"),
            "deployment {id}: rebuild is not byte-identical"
        );
        let report = store.verify().expect("verifies");
        assert_eq!(report.keyframes, CAPTURES.div_ceil(KEYFRAME_INTERVAL));
        assert_eq!(report.deltas, CAPTURES - report.keyframes);

        delta_records(&String::from_utf8_lossy(&bytes), &mut seen);
        for p in [&path, &reopened, &rebuilt] {
            let _ = std::fs::remove_file(p);
        }
    }

    // 5: the sweep reached every record kind and every kind of change.
    assert_eq!(policies.len(), 2, "both cache policies: {policies:?}");
    let missing: Vec<&str> = DELTA_RECORDS
        .iter()
        .copied()
        .filter(|r| !seen.contains(*r))
        .collect();
    assert!(missing.is_empty(), "no delta held {missing:?}");
    assert!(events.revivals > 0, "no node was revived");
    assert!(events.moves > 0, "no node moved");
    assert!(battery_deaths > 0, "no battery ran out");
}
