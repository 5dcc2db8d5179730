//! Equivalence suite for the model-aware cache manager.
//!
//! `ModelCache` keeps its lines in one flat layout in key order — a
//! dense key array for lookups and a parallel array of line records,
//! each a FIFO chain over the cache's one pair slab with its eviction
//! penalty and fit, kept current once the cache first needs a victim —
//! looks each observed key up once, starting after the last one, and
//! finds victims in one pass. This suite holds it to a reference
//! written the direct way: the same admission algorithm over a
//! `BTreeMap` of lines, each a `VecDeque` of its pairs with its running
//! statistics, and a `BTreeMap` of lazily memoized penalties,
//! collecting the candidate lines afresh for every victim search.
//!
//! Seeded random observation streams cover both policies, budgets from
//! zero pairs up to 256 (including one pair per line), 1–60 neighbours
//! with 1–3 measurement ids each, and three kinds of values: a constant
//! own reading (zero-variance models), pairs exactly on a line (ties at
//! a zero eviction penalty) and noisy pairs. Every so often both caches
//! go through a checkpoint-style round trip, `lines()` → `from_parts`,
//! with a few empty lines added, as a decoded checkpoint may hold them.
//! After every observation the decision, the pair count, the
//! round-robin marker and every line's key, pairs and statistics must
//! match the reference bit for bit.
//!
//! A second set of streams has the shape training gives them: rounds
//! of ascending sweeps over the neighbours with lost messages,
//! newcomers joining mid-sweep and a few out-of-order repeats, so the
//! lookup's start after the last key is both hit and missed.

use snapshot_queries::core::{
    CacheConfig, CacheDecision, CachePolicy, LineKey, MeasurementId, ModelCache, SuffStats,
};
use snapshot_queries::netsim::rng::{derive_seed, DetRng, RngExt};
use snapshot_queries::netsim::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// One reference line: its pairs oldest first, and its statistics,
/// updated as pairs come and go.
#[derive(Debug, Clone, Default)]
struct ReferenceLine {
    pairs: VecDeque<(f64, f64)>,
    stats: SuffStats,
}

impl ReferenceLine {
    fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    fn push(&mut self, x: f64, y: f64) {
        self.pairs.push_back((x, y));
        self.stats.add(x, y);
    }

    /// Drop the oldest pair; an emptied line's statistics are exactly
    /// zero.
    fn evict_oldest(&mut self) -> bool {
        let Some((x, y)) = self.pairs.pop_front() else {
            return false;
        };
        self.stats.remove(x, y);
        if self.pairs.is_empty() {
            self.stats = SuffStats::new();
        }
        true
    }

    /// The statistics without the oldest pair.
    fn without_oldest(&self) -> SuffStats {
        match self.pairs.front() {
            Some(&(x, y)) => self.stats.without(x, y),
            None => SuffStats::new(),
        }
    }

    /// The paper's eviction penalty: the full line's benefit under its
    /// own fit minus its benefit under the fit without the oldest pair.
    fn eviction_penalty(&self) -> f64 {
        let full = self.stats.benefit(&self.stats.fit());
        let truncated = self.stats.benefit(&self.without_oldest().fit());
        (full - truncated).max(0.0)
    }
}

/// The cache manager written the direct way: lines and memoized
/// penalties in ordered maps, candidates collected per search.
#[derive(Debug, Clone)]
struct ReferenceCache {
    config: CacheConfig,
    lines: BTreeMap<LineKey, ReferenceLine>,
    penalties: BTreeMap<LineKey, f64>,
    rr_after: Option<LineKey>,
    total_pairs: usize,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        ReferenceCache {
            config,
            lines: BTreeMap::new(),
            penalties: BTreeMap::new(),
            rr_after: None,
            total_pairs: 0,
        }
    }

    fn from_parts(
        config: CacheConfig,
        lines: BTreeMap<LineKey, ReferenceLine>,
        rr_after: Option<LineKey>,
    ) -> Self {
        let total_pairs = lines.values().map(|l| l.pairs.len()).sum();
        ReferenceCache {
            config,
            lines,
            penalties: BTreeMap::new(),
            rr_after,
            total_pairs,
        }
    }

    fn is_full(&self) -> bool {
        self.total_pairs + 1 > self.config.capacity_pairs()
    }

    fn observe_measurement(&mut self, key: LineKey, x_own: f64, x_j: f64) -> CacheDecision {
        if self.config.capacity_pairs() == 0 {
            return CacheDecision::Rejected;
        }
        if !self.is_full() {
            self.push_pair(key, x_own, x_j);
            return CacheDecision::Inserted;
        }
        match self.config.policy {
            CachePolicy::RoundRobin => self.observe_round_robin(key, x_own, x_j),
            CachePolicy::ModelAware => self.observe_model_aware(key, x_own, x_j),
        }
    }

    fn observe_round_robin(&mut self, j: LineKey, x: f64, y: f64) -> CacheDecision {
        match self.next_rr_victim(None) {
            Some(victim) => {
                self.evict_oldest_of(victim);
                self.push_pair(j, x, y);
                if victim == j {
                    CacheDecision::TimeShifted
                } else {
                    CacheDecision::AdmittedEvicting(victim)
                }
            }
            None => CacheDecision::Rejected,
        }
    }

    fn observe_model_aware(&mut self, j: LineKey, x: f64, y: f64) -> CacheDecision {
        let line_empty = self.lines.get(&j).is_none_or(ReferenceLine::is_empty);
        if line_empty {
            return match self.next_rr_victim(Some(j)) {
                Some(victim) => {
                    self.evict_oldest_of(victim);
                    self.push_pair(j, x, y);
                    CacheDecision::NewcomerEvicting(victim)
                }
                None => CacheDecision::Rejected,
            };
        }

        let line = &self.lines[&j];
        let c_aug = line.stats.with(x, y);
        let model_cur = line.stats.fit();
        let model_shift = line.without_oldest().with(x, y).fit();
        let model_aug = c_aug.fit();

        let b_cur = c_aug.benefit(&model_cur);
        let b_shift = c_aug.benefit(&model_shift);
        let b_aug = c_aug.benefit(&model_aug);

        if b_cur >= b_shift && b_cur >= b_aug {
            return CacheDecision::Rejected;
        }
        if b_shift >= b_aug {
            self.evict_oldest_of(j);
            self.push_pair(j, x, y);
            return CacheDecision::TimeShifted;
        }

        let gain_augment = b_aug - b_shift;
        if let Some(victim) = self.cheapest_victim(j, gain_augment) {
            self.evict_oldest_of(victim);
            self.push_pair(j, x, y);
            return CacheDecision::AdmittedEvicting(victim);
        }

        if b_shift > b_cur {
            self.evict_oldest_of(j);
            self.push_pair(j, x, y);
            CacheDecision::TimeShifted
        } else {
            CacheDecision::Rejected
        }
    }

    fn cheapest_victim(&mut self, j: LineKey, gain: f64) -> Option<LineKey> {
        let mut best: Option<(f64, LineKey)> = None;
        let candidates: Vec<LineKey> = self
            .lines
            .iter()
            .filter(|(id, l)| **id != j && !l.is_empty())
            .map(|(id, _)| *id)
            .collect();
        for id in candidates {
            let p = self.penalty_of(id);
            if p < gain {
                let better = match best {
                    None => true,
                    Some((bp, _)) => p < bp,
                };
                if better {
                    best = Some((p, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    fn penalty_of(&mut self, id: LineKey) -> f64 {
        if let Some(p) = self.penalties.get(&id) {
            return *p;
        }
        let p = self.lines[&id].eviction_penalty();
        self.penalties.insert(id, p);
        p
    }

    fn next_rr_victim(&mut self, exclude: Option<LineKey>) -> Option<LineKey> {
        let eligible: Vec<LineKey> = self
            .lines
            .iter()
            .filter(|(id, l)| !l.is_empty() && Some(**id) != exclude)
            .map(|(id, _)| *id)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let victim = match self.rr_after {
            Some(after) => eligible
                .iter()
                .copied()
                .find(|id| *id > after)
                .unwrap_or(eligible[0]),
            None => eligible[0],
        };
        self.rr_after = Some(victim);
        Some(victim)
    }

    fn push_pair(&mut self, j: LineKey, x: f64, y: f64) {
        self.lines.entry(j).or_default().push(x, y);
        self.penalties.remove(&j);
        self.total_pairs += 1;
    }

    fn evict_oldest_of(&mut self, id: LineKey) {
        if let Some(line) = self.lines.get_mut(&id) {
            if line.evict_oldest() {
                self.total_pairs -= 1;
            }
            if line.is_empty() {
                self.lines.remove(&id);
            }
        }
        self.penalties.remove(&id);
    }
}

/// Observations per stream.
const STEPS: usize = 1200;

/// How a stream draws its values.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// The own reading never changes: every model is a constant.
    ConstantX,
    /// Pairs lie exactly on a per-line line, so well-fed lines have a
    /// zero eviction penalty and victim searches meet ties.
    ExactLine,
    /// A per-line line plus noise.
    Noisy,
}

/// One line's statistics and pairs (oldest first) as raw bits.
fn line_bits<'a>(
    s: &SuffStats,
    pairs: impl Iterator<Item = &'a (f64, f64)>,
) -> (Vec<u64>, Vec<(u64, u64)>) {
    let stats = vec![
        u64::from(s.n),
        s.sx.to_bits(),
        s.sy.to_bits(),
        s.sxy.to_bits(),
        s.sxx.to_bits(),
        s.syy.to_bits(),
    ];
    let pairs = pairs.map(|&(x, y)| (x.to_bits(), y.to_bits())).collect();
    (stats, pairs)
}

fn assert_same(cache: &ModelCache, reference: &ReferenceCache, context: &str) {
    assert_eq!(
        cache.total_pairs(),
        reference.total_pairs,
        "{context}: total_pairs"
    );
    assert_eq!(cache.rr_after(), reference.rr_after, "{context}: rr_after");
    let lines: Vec<_> = cache
        .lines()
        .map(|(k, l)| (k, line_bits(l.stats(), l.pairs())))
        .collect();
    let expected: Vec<_> = reference
        .lines
        .iter()
        .map(|(&k, l)| (k, line_bits(&l.stats, l.pairs.iter())))
        .collect();
    assert_eq!(lines, expected, "{context}: lines");
}

/// Rebuild both caches from `cache.lines()` (equal to the reference's
/// lines when this is called) through `from_parts`, with up to three
/// empty lines added at keys not yet cached. When an odd number of
/// lines results, `ModelCache::from_parts` gets them in reverse order,
/// behind a stale line for the first key, so that it must sort them
/// into place and drop the stale line's pair from its slab.
fn round_trip(
    cache: &ModelCache,
    keys: &[LineKey],
    rng: &mut DetRng,
) -> (ModelCache, ReferenceCache) {
    let mut lines: BTreeMap<LineKey, (Vec<(f64, f64)>, SuffStats)> = cache
        .lines()
        .map(|(k, l)| (k, (l.pairs().copied().collect(), *l.stats())))
        .collect();
    for _ in 0..rng.random_range(0..4usize) {
        let key = keys[rng.random_range(0..keys.len())];
        lines.entry(key).or_default();
    }
    let config = *cache.config();
    let rr_after = cache.rr_after();
    let parts = lines
        .iter()
        .map(|(&k, (pairs, stats))| (k, pairs.as_slice(), *stats));
    let restored = if lines.len() % 2 == 1 {
        let stale: &[(f64, f64)] = &[(0.5, 0.5)];
        let stale_line = lines
            .keys()
            .next()
            .map(|&k| (k, stale, SuffStats::from_pairs(stale)));
        ModelCache::from_parts(config, stale_line.into_iter().chain(parts.rev()), rr_after)
    } else {
        ModelCache::from_parts(config, parts, rr_after)
    };
    let reference = lines
        .into_iter()
        .map(|(k, (pairs, stats))| {
            let pairs = pairs.into_iter().collect();
            (k, ReferenceLine { pairs, stats })
        })
        .collect();
    (
        restored,
        ReferenceCache::from_parts(config, reference, rr_after),
    )
}

/// Run one seeded stream, compare after every observation, and tally
/// the decisions by kind into `seen`.
fn run_stream(
    policy: CachePolicy,
    budget_bytes: usize,
    values: Values,
    seed: u64,
    seen: &mut BTreeMap<&'static str, usize>,
) {
    let mut rng = DetRng::seed_from_u64(seed);
    let neighbours = rng.random_range(1..=60u32);
    let measurements = rng.random_range(1..=3u32);
    let keys: Vec<LineKey> = (0..neighbours)
        .flat_map(|n| (0..measurements).map(move |m| (NodeId(n), MeasurementId(m as u8)).into()))
        .collect();
    // Each line's own relation y = a·x + b; small integers so exact
    // lines stay exact and penalties tie.
    let relation: Vec<(f64, f64)> = keys
        .iter()
        .map(|_| {
            (
                rng.random_range(0..5u32) as f64 - 2.0,
                rng.random_range(0..21u32) as f64,
            )
        })
        .collect();
    let config = CacheConfig {
        budget_bytes,
        pair_bytes: 8,
        policy,
    };
    let mut cache = ModelCache::new(config);
    let mut reference = ReferenceCache::new(config);
    for step in 0..STEPS {
        let k = rng.random_range(0..keys.len());
        let (a, b) = relation[k];
        let (x, y) = match values {
            Values::ConstantX => (3.0, rng.random_range(0..8u32) as f64),
            Values::ExactLine => {
                let x = rng.random_range(0..10u32) as f64;
                (x, a * x + b)
            }
            Values::Noisy => {
                let x = rng.random_f64() * 10.0;
                (x, a * x + b + (rng.random_f64() - 0.5) * 4.0)
            }
        };
        let decision = cache.observe_measurement(keys[k], x, y);
        let expected = reference.observe_measurement(keys[k], x, y);
        let context = format!("{policy:?} {budget_bytes} B {values:?} seed {seed} step {step}");
        assert_eq!(decision, expected, "{context}: decision");
        *seen.entry(kind(decision)).or_default() += 1;
        assert_same(&cache, &reference, &context);
        if step % 97 == 96 {
            (cache, reference) = round_trip(&cache, &keys, &mut rng);
            assert_same(&cache, &reference, &format!("{context} after round trip"));
        }
    }
}

fn kind(decision: CacheDecision) -> &'static str {
    match decision {
        CacheDecision::Inserted => "inserted",
        CacheDecision::AdmittedEvicting(_) => "admitted",
        CacheDecision::NewcomerEvicting(_) => "newcomer",
        CacheDecision::TimeShifted => "shifted",
        CacheDecision::Rejected => "rejected",
    }
}

#[test]
fn flat_cache_matches_the_reference_bit_for_bit() {
    let budgets = [0usize, 8, 16, 24, 512, 2048];
    let value_kinds = [Values::ConstantX, Values::ExactLine, Values::Noisy];
    let mut seen = BTreeMap::new();
    let mut stream = 0u64;
    for policy in [CachePolicy::ModelAware, CachePolicy::RoundRobin] {
        for &budget in &budgets {
            for &values in &value_kinds {
                for _ in 0..2 {
                    stream += 1;
                    let seed = derive_seed(0xCAC4E, stream);
                    run_stream(policy, budget, values, seed, &mut seen);
                }
            }
        }
    }
    // The comparison proves something only if the streams reach every
    // branch of the admission algorithm.
    for k in ["inserted", "admitted", "newcomer", "shifted", "rejected"] {
        assert!(
            seen.get(k).is_some_and(|&n| n > 0),
            "no {k} decision in {seen:?}"
        );
    }
}

/// Run one stream shaped like training's delivery rounds and compare
/// after every observation. Each round is an ascending sweep over the
/// neighbours, as a node drains its inbox: a lossy link drops a
/// neighbour's message (a gap), some neighbours first appear mid-run
/// (newcomers in the middle of a sweep), every heard neighbour brings
/// each of its measurements, and the node's own reading is fixed for
/// the round. One round in eight repeats a few earlier senders after
/// the sweep, out of order. Between rounds both caches go through the
/// `lines()` → `from_parts` round trip now and then, and tight budgets
/// empty lines that later sweeps revisit.
fn run_delivery_stream(
    policy: CachePolicy,
    budget_bytes: usize,
    values: Values,
    seed: u64,
    seen: &mut BTreeMap<&'static str, usize>,
) {
    let mut rng = DetRng::seed_from_u64(seed);
    let neighbours = rng.random_range(2..=40u32);
    let measurements = rng.random_range(1..=3u32);
    let loss = rng.random_range(0..5u32) as f64 * 0.1;
    // The round each neighbour is first heard in: most from the start,
    // some later, so they arrive as newcomers in the middle of a sweep.
    let joins: Vec<usize> = (0..neighbours)
        .map(|_| {
            if rng.random_bool(0.2) {
                rng.random_range(1..12usize)
            } else {
                0
            }
        })
        .collect();
    let keys: Vec<LineKey> = (0..neighbours)
        .flat_map(|n| (0..measurements).map(move |m| (NodeId(n), MeasurementId(m as u8)).into()))
        .collect();
    let relation: Vec<(f64, f64)> = keys
        .iter()
        .map(|_| {
            (
                rng.random_range(0..5u32) as f64 - 2.0,
                rng.random_range(0..21u32) as f64,
            )
        })
        .collect();
    let config = CacheConfig {
        budget_bytes,
        pair_bytes: 8,
        policy,
    };
    let mut cache = ModelCache::new(config);
    let mut reference = ReferenceCache::new(config);
    for round in 0..24 {
        let own = match values {
            Values::ConstantX => 3.0,
            Values::ExactLine => rng.random_range(0..10u32) as f64,
            Values::Noisy => rng.random_f64() * 10.0,
        };
        let m = measurements as usize;
        let mut order = Vec::new();
        for (n, &join) in joins.iter().enumerate() {
            if join <= round && !rng.random_bool(loss) {
                order.extend(n * m..(n + 1) * m);
            }
        }
        if round % 8 == 7 {
            for _ in 0..rng.random_range(1..4usize) {
                if let Some(&k) = order.get(rng.random_range(0..order.len().max(1))) {
                    order.push(k);
                }
            }
        }
        for (step, &k) in order.iter().enumerate() {
            let (a, b) = relation[k];
            let y = match values {
                Values::ConstantX => rng.random_range(0..8u32) as f64,
                Values::ExactLine => a * own + b,
                Values::Noisy => a * own + b + (rng.random_f64() - 0.5) * 4.0,
            };
            let decision = cache.observe_measurement(keys[k], own, y);
            let expected = reference.observe_measurement(keys[k], own, y);
            let context = format!(
                "delivery {policy:?} {budget_bytes} B {values:?} seed {seed} round {round} step {step} key {:?}",
                keys[k]
            );
            assert_eq!(decision, expected, "{context}: decision");
            *seen.entry(kind(decision)).or_default() += 1;
            assert_same(&cache, &reference, &context);
        }
        if rng.random_bool(0.25) {
            (cache, reference) = round_trip(&cache, &keys, &mut rng);
            assert_same(
                &cache,
                &reference,
                &format!("after round {round} round trip"),
            );
        }
    }
}

#[test]
fn delivery_rounds_match_the_reference_bit_for_bit() {
    let budgets = [16usize, 64, 200, 512, 2048];
    let value_kinds = [Values::ConstantX, Values::ExactLine, Values::Noisy];
    let mut seen = BTreeMap::new();
    let mut stream = 0u64;
    for policy in [CachePolicy::ModelAware, CachePolicy::RoundRobin] {
        for &budget in &budgets {
            for &values in &value_kinds {
                for _ in 0..3 {
                    stream += 1;
                    let seed = derive_seed(0xDE11, stream);
                    run_delivery_stream(policy, budget, values, seed, &mut seen);
                }
            }
        }
    }
    for k in ["inserted", "admitted", "newcomer", "shifted", "rejected"] {
        assert!(
            seen.get(k).is_some_and(|&n| n > 0),
            "no {k} decision in {seen:?}"
        );
    }
}
