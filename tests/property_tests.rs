//! Property-based tests on the core data structures and invariants.
//!
//! Historically written with `proptest`; now driven by the workspace's
//! own deterministic RNG (`netsim::rng::DetRng`) so the test suite has
//! no external dependencies and every failure reproduces from the
//! fixed seeds below. Each test runs a few hundred randomized cases,
//! mirroring the old `ProptestConfig::with_cases` budgets.

use snapshot_queries::core::{
    Aggregate, CacheConfig, CachePolicy, ErrorMetric, LineKey, LinearModel, ModelCache, SuffStats,
};
use snapshot_queries::core::{Mode, SensorNetwork, SnapshotConfig, SpatialPredicate};
use snapshot_queries::datagen::Trace;
use snapshot_queries::datagen::{random_walk, RandomWalkConfig};
use snapshot_queries::netsim::rng::{derive_seed, DetRng, RngCore, RngExt};
use snapshot_queries::netsim::NodeId;
use snapshot_queries::netsim::{EnergyModel, LinkModel, Phase, Topology};
use snapshot_queries::query::parse;

/// Number of randomized cases for cheap, data-structure-level
/// properties (matches the old proptest budget).
const CASES: u64 = 256;

/// A bounded, well-behaved measurement value.
fn value(rng: &mut DetRng) -> f64 {
    rng.random_range(-1e4..1e4)
}

/// A vector of `(x, y)` pairs with random length in `[lo, hi)`.
fn pairs(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<(f64, f64)> {
    let n = rng.random_range(lo..hi);
    (0..n).map(|_| (value(rng), value(rng))).collect()
}

/// An observation stream: (neighbor id, own value, neighbor value).
fn observations(rng: &mut DetRng, max_len: usize) -> Vec<(u32, f64, f64)> {
    let n = rng.random_range(0..max_len);
    (0..n)
        .map(|_| (rng.random_range(0..12u32), value(rng), value(rng)))
        .collect()
}

// ---- Sufficient statistics / Lemma 1 --------------------------------

#[test]
fn incremental_stats_match_recompute() {
    let mut rng = DetRng::seed_from_u64(0x51A75);
    for _ in 0..CASES {
        let pairs = pairs(&mut rng, 0, 60);
        let mut inc = SuffStats::new();
        for &(x, y) in &pairs {
            inc.add(x, y);
        }
        let reference = SuffStats::from_pairs(pairs.iter());
        assert_eq!(inc.n, reference.n);
        assert!((inc.sx - reference.sx).abs() <= 1e-6 * (1.0 + reference.sx.abs()));
        assert!((inc.sxy - reference.sxy).abs() <= 1e-6 * (1.0 + reference.sxy.abs()));
    }
}

#[test]
fn least_squares_fit_is_optimal() {
    let mut rng = DetRng::seed_from_u64(0xF17);
    for _ in 0..CASES {
        let pairs = pairs(&mut rng, 2, 40);
        let stats = SuffStats::from_pairs(pairs.iter());
        let best = stats.fit();
        let base = stats.sse(&best);
        assert!(base >= 0.0);
        for (da, db) in [
            (0.1, 0.0),
            (-0.1, 0.0),
            (0.0, 0.1),
            (0.0, -0.1),
            (0.05, -0.05),
        ] {
            let other = LinearModel {
                a: best.a + da,
                b: best.b + db,
            };
            assert!(
                stats.sse(&other) + 1e-6 * (1.0 + base.abs()) >= base,
                "perturbation beat the fit: {} < {}",
                stats.sse(&other),
                base
            );
        }
    }
}

#[test]
fn sse_is_never_negative() {
    let mut rng = DetRng::seed_from_u64(0x55E);
    for _ in 0..CASES {
        let pairs = pairs(&mut rng, 0, 40);
        let stats = SuffStats::from_pairs(pairs.iter());
        let model = LinearModel {
            a: rng.random_range(-10.0..10.0),
            b: value(&mut rng),
        };
        assert!(stats.sse(&model) >= 0.0);
        assert!(stats.no_answer_sse() >= 0.0);
    }
}

#[test]
fn fit_on_an_exact_line_recovers_it() {
    let mut rng = DetRng::seed_from_u64(0x11E);
    let mut accepted = 0;
    while accepted < CASES {
        let a = rng.random_range(-50.0..50.0);
        let b = rng.random_range(-100.0..100.0);
        let n = rng.random_range(3..20usize);
        let xs: Vec<f64> = (0..n).map(|_| rng.random_range(-100.0..100.0)).collect();
        // Require genuinely distinct x values to avoid degeneracy.
        let spread = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        if spread <= 1.0 {
            continue;
        }
        accepted += 1;
        let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (x, a * x + b)).collect();
        let m = SuffStats::from_pairs(pairs.iter()).fit();
        assert!(
            (m.a - a).abs() < 1e-6 * (1.0 + a.abs()),
            "a: {} vs {}",
            m.a,
            a
        );
        assert!(
            (m.b - b).abs() < 1e-5 * (1.0 + b.abs()),
            "b: {} vs {}",
            m.b,
            b
        );
    }
}

// ---- Error metrics ----------------------------------------------------

#[test]
fn metrics_are_non_negative_and_zero_on_exact() {
    let mut rng = DetRng::seed_from_u64(0x3E7);
    for _ in 0..CASES {
        let actual = value(&mut rng);
        let est = value(&mut rng);
        for m in [
            ErrorMetric::Sse,
            ErrorMetric::Absolute,
            ErrorMetric::relative(),
        ] {
            assert!(m.d(actual, est) >= 0.0);
            assert_eq!(m.d(actual, actual), 0.0);
        }
    }
}

#[test]
fn absolute_and_sse_are_symmetric() {
    let mut rng = DetRng::seed_from_u64(0x5E5);
    for _ in 0..CASES {
        let a = value(&mut rng);
        let b = value(&mut rng);
        assert_eq!(ErrorMetric::Sse.d(a, b), ErrorMetric::Sse.d(b, a));
        assert_eq!(ErrorMetric::Absolute.d(a, b), ErrorMetric::Absolute.d(b, a));
    }
}

// ---- Cache manager ----------------------------------------------------

#[test]
fn cache_never_exceeds_its_budget() {
    let mut rng = DetRng::seed_from_u64(0xCAC);
    for _ in 0..CASES {
        let obs = observations(&mut rng, 300);
        let budget = rng.random_range(0..512usize);
        let mut cache = ModelCache::new(CacheConfig {
            budget_bytes: budget,
            pair_bytes: 8,
            policy: CachePolicy::ModelAware,
        });
        let cap = cache.config().capacity_pairs();
        for (j, x, y) in obs {
            cache.observe(NodeId(j), x, y);
            assert!(cache.total_pairs() <= cap);
            assert!(cache.used_bytes() <= budget);
        }
    }
}

#[test]
fn round_robin_cache_never_exceeds_its_budget() {
    let mut rng = DetRng::seed_from_u64(0x0BB);
    for _ in 0..CASES {
        let obs = observations(&mut rng, 300);
        let budget = rng.random_range(8..512usize);
        let mut cache = ModelCache::new(CacheConfig {
            budget_bytes: budget,
            pair_bytes: 8,
            policy: CachePolicy::RoundRobin,
        });
        let cap = cache.config().capacity_pairs();
        for (j, x, y) in obs {
            cache.observe(NodeId(j), x, y);
            assert!(cache.total_pairs() <= cap);
        }
    }
}

#[test]
fn rejected_observations_leave_the_cache_untouched() {
    use snapshot_queries::core::CacheDecision;
    let mut rng = DetRng::seed_from_u64(0x0E1);
    for _ in 0..CASES {
        let obs = observations(&mut rng, 150);
        let mut cache = ModelCache::new(CacheConfig {
            budget_bytes: 64,
            pair_bytes: 8,
            policy: CachePolicy::ModelAware,
        });
        for (j, x, y) in obs {
            let before: Vec<(LineKey, usize)> =
                cache.lines().map(|(id, l)| (id, l.len())).collect();
            let total_before = cache.total_pairs();
            let d = cache.observe(NodeId(j), x, y);
            if d == CacheDecision::Rejected {
                let after: Vec<(LineKey, usize)> =
                    cache.lines().map(|(id, l)| (id, l.len())).collect();
                assert_eq!(&before, &after);
                assert_eq!(total_before, cache.total_pairs());
            }
        }
    }
}

#[test]
fn full_cache_stays_full_under_model_aware_policy() {
    // Once the byte budget is reached, every subsequent decision
    // preserves the pair count: evictions are always paired with
    // insertions.
    let mut rng = DetRng::seed_from_u64(0xF11);
    for _ in 0..CASES {
        let obs = observations(&mut rng, 200);
        let mut cache = ModelCache::new(CacheConfig {
            budget_bytes: 80,
            pair_bytes: 8,
            policy: CachePolicy::ModelAware,
        });
        let cap = cache.config().capacity_pairs();
        let mut was_full = false;
        for (j, x, y) in obs {
            cache.observe(NodeId(j), x, y);
            if was_full {
                assert_eq!(cache.total_pairs(), cap);
            }
            was_full = was_full || cache.total_pairs() == cap;
        }
    }
}

#[test]
fn cache_line_stats_stay_consistent() {
    let mut rng = DetRng::seed_from_u64(0x57A75);
    for _ in 0..CASES {
        let obs = observations(&mut rng, 200);
        let mut cache = ModelCache::new(CacheConfig {
            budget_bytes: 128,
            pair_bytes: 8,
            policy: CachePolicy::ModelAware,
        });
        for (j, x, y) in obs {
            cache.observe(NodeId(j), x, y);
        }
        for (_, line) in cache.lines() {
            let inc = *line.stats();
            let reference = line.recomputed_stats();
            assert_eq!(inc.n, reference.n);
            assert!((inc.sxy - reference.sxy).abs() <= 1e-3 * (1.0 + reference.sxy.abs()));
        }
    }
}

// ---- Aggregates --------------------------------------------------------

#[test]
fn aggregates_respect_basic_identities() {
    let mut rng = DetRng::seed_from_u64(0xA88);
    for _ in 0..CASES {
        let n = rng.random_range(1..50usize);
        let vals: Vec<f64> = (0..n).map(|_| value(&mut rng)).collect();
        let sum = Aggregate::Sum.apply(vals.iter().copied()).unwrap();
        let avg = Aggregate::Avg.apply(vals.iter().copied()).unwrap();
        let min = Aggregate::Min.apply(vals.iter().copied()).unwrap();
        let max = Aggregate::Max.apply(vals.iter().copied()).unwrap();
        let count = Aggregate::Count.apply(vals.iter().copied()).unwrap();
        assert_eq!(count as usize, vals.len());
        assert!((avg - sum / vals.len() as f64).abs() < 1e-9 * (1.0 + sum.abs()));
        assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
    }
}

// ---- Traces -------------------------------------------------------------

#[test]
fn trace_roundtrips_series() {
    let mut rng = DetRng::seed_from_u64(0x76A6E);
    for _ in 0..CASES {
        let n_series = rng.random_range(1..6usize);
        let len = rng.random_range(5..10usize);
        let series: Vec<Vec<f64>> = (0..n_series)
            .map(|_| (0..len).map(|_| value(&mut rng)).collect())
            .collect();
        let trace = Trace::from_series(&series).unwrap();
        for (i, s) in series.iter().enumerate() {
            assert_eq!(&trace.series(NodeId::from_index(i)), s);
        }
    }
}

// ---- Seed derivation -----------------------------------------------------

#[test]
fn derived_seeds_are_deterministic_and_distinct() {
    let mut rng = DetRng::seed_from_u64(0x5EED);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let s1 = rng.random_range(0..64u64);
        let s2 = rng.random_range(0..64u64);
        assert_eq!(derive_seed(seed, s1), derive_seed(seed, s1));
        if s1 != s2 {
            assert_ne!(derive_seed(seed, s1), derive_seed(seed, s2));
        }
    }
}

// ---- Protocol-level fuzz ------------------------------------------------
//
// Expensive per case (a full train + election), so it runs with a
// smaller case budget than the data-structure properties above.

#[test]
fn elections_settle_on_arbitrary_small_networks() {
    let mut rng = DetRng::seed_from_u64(0xE1EC7);
    for _ in 0..48 {
        let seed = rng.random_range(0..10_000u64);
        let n = rng.random_range(4..25usize);
        let loss = rng.random_range(0.0..0.9);
        let range = rng.random_range(0.2..1.5);
        let k = 1 + (seed as usize % n.min(5));
        let data = random_walk(&RandomWalkConfig {
            n_nodes: n,
            steps: 40,
            ..RandomWalkConfig::paper_defaults(k, seed)
        })
        .unwrap();
        let topo = Topology::random_uniform(n, range, seed).expect("valid deployment");
        let mut sn = SensorNetwork::new(
            topo,
            LinkModel::iid_loss(loss),
            EnergyModel::default(),
            SnapshotConfig::paper(1.0, 256, seed),
            data.trace,
        );
        sn.train(0, 5);
        sn.set_time(39);
        let outcome = sn.elect();

        // Invariants that must hold for EVERY execution.
        assert_eq!(outcome.snapshot_size + outcome.passive, n);
        for node in sn.nodes() {
            assert_ne!(node.mode(), Mode::Undefined);
            if node.mode() == Mode::Passive {
                let rep = node.representative();
                assert!(
                    rep.is_some(),
                    "passive {} lacks a representative",
                    node.id()
                );
                assert_ne!(rep, Some(node.id()));
                assert_eq!(node.member_count(), 0);
                // A passive node's representative holds a model for it
                // OR claims it spuriously — but it must be in range.
                assert!(sn.net().topology().in_range(node.id(), rep.unwrap()));
            }
        }
        // Message caps per phase hold regardless of loss and topology.
        for node in sn.nodes() {
            let id = node.id();
            assert!(sn.stats().sent_in_phase(id, Phase::Invitation) <= 1);
            assert!(sn.stats().sent_in_phase(id, Phase::Candidates) <= 1);
            assert!(sn.stats().sent_in_phase(id, Phase::Accept) <= 1);
        }
    }
}

// ---- Query parser -----------------------------------------------------

#[test]
fn parser_never_panics() {
    let mut rng = DetRng::seed_from_u64(0xFA22);
    for _ in 0..512 {
        let len = rng.random_range(0..120usize);
        let input: String = (0..len)
            .map(|_| rng.random_range(0x20..0x7Fu32) as u8 as char)
            .collect();
        let _ = parse(&input);
    }
}

#[test]
fn generated_aggregate_queries_parse() {
    let aggs = ["SUM", "AVG", "MIN", "MAX", "COUNT"];
    let reserved = [
        "loc", "in", "and", "for", "use", "rect", "circle", "select", "from", "where", "sample",
        "interval", "snapshot", "min", "max", "sum", "avg", "count",
    ];
    let mut rng = DetRng::seed_from_u64(0xA66);
    for _ in 0..CASES {
        let agg = aggs[rng.random_range(0..aggs.len())];
        let col_len = rng.random_range(1..13usize);
        let col: String = (0..col_len)
            .map(|i| {
                if i == 0 || rng.random_bool(0.8) {
                    rng.random_range(b'a' as u32..=b'z' as u32) as u8 as char
                } else {
                    '_'
                }
            })
            .collect();
        if reserved.contains(&col.as_str()) {
            continue;
        }
        let snap = rng.random_bool(0.5);
        let sql = format!(
            "SELECT {agg}({col}) FROM sensors{}",
            if snap { " USE SNAPSHOT" } else { "" }
        );
        let q = parse(&sql).unwrap();
        assert_eq!(q.use_snapshot, snap);
    }
}

#[test]
fn generated_window_queries_parse() {
    let mut rng = DetRng::seed_from_u64(0x3377);
    for _ in 0..CASES {
        let x = rng.random_range(0.0..1.0);
        let y = rng.random_range(0.0..1.0);
        let w = rng.random_range(0.01..0.9);
        let (x0, y0, x1, y1) = (x - w / 2.0, y - w / 2.0, x + w / 2.0, y + w / 2.0);
        let sql =
            format!("SELECT * FROM sensors WHERE loc IN RECT({x0:.4}, {y0:.4}, {x1:.4}, {y1:.4})");
        let q = parse(&sql).unwrap();
        assert!(!q.conditions.is_empty());
    }
}

// ---- Grid-indexed topology (oracle-backed) ----------------------------
//
// `Topology` builds neighbor lists through a uniform-grid spatial
// index (DESIGN.md §14). These tests pit it against the retired
// all-pairs construction, kept here as a brute-force oracle, across
// hundreds of randomized deployments including the degenerate corners
// the grid must survive: every node in one cell, ranges wider than
// the whole field, and exactly duplicated positions.

use snapshot_queries::netsim::grid::GridIndex;
use snapshot_queries::netsim::{Position, Topology as Topo};

/// The retired O(N²) all-pairs neighbor construction. Pushing both
/// directions of each `i < j` pair emits every list already sorted
/// ascending by id — the ordering contract the grid build must match
/// byte for byte.
fn oracle_neighbors(positions: &[Position], range: f64) -> Vec<Vec<NodeId>> {
    let n = positions.len();
    let mut neighbors = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if positions[i].distance(&positions[j]) <= range {
                neighbors[i].push(NodeId::from_index(j));
                neighbors[j].push(NodeId::from_index(i));
            }
        }
    }
    neighbors
}

/// A randomized deployment: mixes in-square points, duplicates of
/// earlier points, and (occasionally) points far outside the unit
/// square, under a range drawn from one of three regimes — sparse,
/// paper-like, and "one cell covers everything".
fn random_deployment(rng: &mut DetRng) -> (Vec<Position>, f64) {
    let n = rng.random_range(1..90usize);
    let mut positions: Vec<Position> = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.random_range(0..10u32);
        let p = if roll == 0 && !positions.is_empty() {
            // Exact duplicate of an earlier node.
            positions[rng.random_range(0..positions.len())]
        } else if roll == 1 {
            // Outside the unit square (mobility can do this).
            Position::new(rng.random_range(-3.0..4.0), rng.random_range(-3.0..4.0))
        } else {
            Position::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))
        };
        positions.push(p);
    }
    let range = match rng.random_range(0..3u32) {
        0 => rng.random_range(0.01..0.08), // sparse: most cells empty
        1 => rng.random_range(0.08..0.6),  // the paper's regime
        _ => rng.random_range(1.5..12.0),  // everything in one cell
    };
    (positions, range)
}

#[test]
fn grid_topology_matches_the_all_pairs_oracle() {
    let mut rng = DetRng::seed_from_u64(0x6121D);
    for case in 0..CASES {
        let (positions, range) = random_deployment(&mut rng);
        let topo = Topo::new(positions.clone(), range).expect("valid deployment");
        let oracle = oracle_neighbors(&positions, range);
        for (i, expect) in oracle.iter().enumerate() {
            assert_eq!(
                topo.neighbors(NodeId::from_index(i)),
                expect.as_slice(),
                "case {case}: node {i} of {} (range {range})",
                positions.len(),
            );
        }
    }
}

#[test]
fn grid_index_stays_consistent_on_random_deployments() {
    let mut rng = DetRng::seed_from_u64(0x6121E);
    for _ in 0..CASES {
        let (positions, range) = random_deployment(&mut rng);
        let grid = GridIndex::build(&positions, range);
        grid.check_consistency(&positions)
            .expect("consistent index");
        // The 3×3 candidate scan is conservative, never lossy.
        let mut cand = Vec::new();
        for (i, p) in positions.iter().enumerate() {
            cand.clear();
            grid.candidates_around(p, &mut cand);
            for (j, q) in positions.iter().enumerate() {
                if i != j && p.distance(q) <= range {
                    assert!(
                        cand.contains(&NodeId::from_index(j)),
                        "in-range node {j} missing from candidates of {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn incremental_moves_match_a_from_scratch_rebuild() {
    let mut rng = DetRng::seed_from_u64(0x307E5);
    for _ in 0..40 {
        let (mut positions, range) = random_deployment(&mut rng);
        let mut topo = Topo::new(positions.clone(), range).expect("valid deployment");
        for _ in 0..12 {
            let mover = rng.random_range(0..positions.len());
            // Mix local jitter (usually same cell), fresh in-square
            // placements, and jumps far outside the square.
            let new_pos = match rng.random_range(0..3u32) {
                0 => {
                    let p = positions[mover];
                    Position::new(p.x + range * 0.05, p.y - range * 0.05)
                }
                1 => Position::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                _ => Position::new(rng.random_range(-4.0..5.0), rng.random_range(-4.0..5.0)),
            };
            positions[mover] = new_pos;
            topo.set_position(NodeId::from_index(mover), new_pos);

            let rebuilt = Topo::new(positions.clone(), range).expect("valid deployment");
            for i in 0..positions.len() {
                let id = NodeId::from_index(i);
                // The incremental update preserves the *historical*
                // ordering (appends on entry), so compare as sets.
                let mut got: Vec<NodeId> = topo.neighbors(id).to_vec();
                got.sort_unstable();
                assert_eq!(
                    got,
                    rebuilt.neighbors(id),
                    "node {i} diverged after moving {mover}"
                );
            }
        }
    }
}

/// The reference for `SpatialPredicate::targets`: every node tested
/// against the predicate, in id order.
fn linear_targets(pred: &SpatialPredicate, topo: &Topo) -> Vec<NodeId> {
    topo.node_ids()
        .filter(|&id| pred.matches(topo.position(id)))
        .collect()
}

/// A predicate drawn against `positions`: rectangles whose edges sit
/// on node coordinates, circles whose rim passes through a node,
/// zero-area rectangles and zero radii, boxes covering the whole field
/// or lying outside it, and NaN, ±∞ and ±1e20 bounds.
fn random_predicate(rng: &mut DetRng, positions: &[Position]) -> SpatialPredicate {
    let node = |rng: &mut DetRng| positions[rng.random_range(0..positions.len())];
    const ODD: [f64; 7] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e20,
        -1e20,
        1e300,
        -1e300,
    ];
    match rng.random_range(0..6u32) {
        0 => {
            let (a, b) = (node(rng), node(rng));
            SpatialPredicate::Rect {
                x0: a.x.min(b.x),
                y0: a.y.min(b.y),
                x1: a.x.max(b.x),
                y1: a.y.max(b.y),
            }
        }
        1 => {
            let (c, rim) = (node(rng), node(rng));
            SpatialPredicate::Circle {
                x: c.x,
                y: c.y,
                r: c.distance(&rim),
            }
        }
        2 => {
            let p = node(rng);
            if rng.random_bool(0.5) {
                SpatialPredicate::Rect {
                    x0: p.x,
                    y0: p.y,
                    x1: p.x,
                    y1: p.y,
                }
            } else {
                SpatialPredicate::Circle {
                    x: p.x,
                    y: p.y,
                    r: 0.0,
                }
            }
        }
        3 => {
            let (lo, hi) = if rng.random_bool(0.5) {
                (-5.0, 6.0) // the whole field, far-off nodes included
            } else {
                (7.0, 9.0) // outside it
            };
            SpatialPredicate::Rect {
                x0: lo,
                y0: lo,
                x1: hi,
                y1: hi,
            }
        }
        4 => {
            let bound = |rng: &mut DetRng, fallback: f64| {
                if rng.random_bool(0.5) {
                    ODD[rng.random_range(0..ODD.len())]
                } else {
                    fallback
                }
            };
            if rng.random_bool(0.5) {
                SpatialPredicate::Rect {
                    x0: bound(rng, 0.2),
                    y0: bound(rng, 0.3),
                    x1: bound(rng, 0.7),
                    y1: bound(rng, 0.8),
                }
            } else {
                SpatialPredicate::Circle {
                    x: bound(rng, 0.5),
                    y: bound(rng, 0.5),
                    r: bound(rng, 0.3),
                }
            }
        }
        _ => SpatialPredicate::window(
            rng.random_range(-0.5..1.5),
            rng.random_range(-0.5..1.5),
            rng.random_range(0.0..1.0),
        ),
    }
}

#[test]
fn grid_targets_match_the_linear_filter() {
    let mut rng = DetRng::seed_from_u64(0x7A26E7);
    let mut checked = 0;
    for case in 0..CASES {
        let (mut positions, range) = random_deployment(&mut rng);
        let mut topo = Topo::new(positions.clone(), range).expect("valid deployment");
        for step in 0..4 {
            for _ in 0..10 {
                let pred = random_predicate(&mut rng, &positions);
                assert_eq!(
                    pred.targets(&topo),
                    linear_targets(&pred, &topo),
                    "case {case}, step {step}: {pred:?} (range {range})"
                );
                checked += 1;
            }
            // Move nodes across cells, and now and then onto another
            // node or far outside the square.
            for _ in 0..3 {
                let mover = rng.random_range(0..positions.len());
                let to = match rng.random_range(0..4u32) {
                    0 => positions[rng.random_range(0..positions.len())],
                    1 => Position::new(rng.random_range(-4.0..5.0), rng.random_range(-4.0..5.0)),
                    _ => Position::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                };
                positions[mover] = to;
                topo.set_position(NodeId::from_index(mover), to);
            }
        }
    }
    assert!(checked >= 10_000, "{checked} predicates");
}

#[test]
fn random_uniform_rejects_an_empty_network_with_a_typed_error() {
    use snapshot_queries::netsim::NetsimError;
    let err = Topo::random_uniform(0, 0.5, 1).unwrap_err();
    assert!(matches!(
        err,
        NetsimError::InvalidParameter { name: "n", .. }
    ));
}

#[test]
fn election_budget_holds_on_a_grid_built_2k_topology() {
    // The paper's six-messages-per-node election bound, checked on a
    // network twenty times the paper's size — buildable at all only
    // because of the grid index. Connectivity-threshold range keeps
    // the degree at ~2 ln N, as in the `scale` experiment.
    let n = 2_000usize;
    let seed = 77;
    let range = (2.0 * (n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt();
    let data = random_walk(&RandomWalkConfig {
        n_nodes: n,
        steps: 20,
        ..RandomWalkConfig::paper_defaults(10, seed)
    })
    .unwrap();
    let topo = Topo::random_uniform(n, range, seed).expect("valid deployment");
    let mut sn = SensorNetwork::new(
        topo,
        LinkModel::Perfect,
        EnergyModel::default(),
        SnapshotConfig::paper(1.0, 2048, seed),
        data.trace,
    );
    sn.train(0, 4);
    sn.set_time(19);
    sn.net_mut().stats_mut().reset();
    let outcome = sn.elect();
    assert!(outcome.snapshot_size > 0);
    let max = sn.stats().max_sent_per_node();
    assert!(
        max <= 6,
        "election budget busted at N=2000: {max} msgs/node"
    );
}
