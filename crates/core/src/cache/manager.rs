//! The model-aware cache manager (Section 4 of the paper).
//!
//! The cache holds `(x_i, x_j)` pairs under a hard byte budget
//! (the paper sweeps 200 bytes to 4 KB; pairs are two 4-byte floats =
//! 8 bytes). On every new observation for neighbor `N_j` the manager
//! weighs three actions — reject, time-shift `N_j`'s line, or augment
//! it at the expense of another line's oldest pair — by comparing the
//! *benefit* (accuracy gain over the no-answer policy) each resulting
//! model would achieve over all known observations of `N_j`, including
//! the new one.
//!
//! Special case ("newcomers"): the first observation for a neighbor
//! has `Gain_Augment = x_j²`, which would bully good models of
//! small-amplitude measurements out of a tight cache; the paper
//! instead picks newcomer victims round-robin over the lines.

use super::line::{Chain, LineRef, Slab};
use super::policy::CachePolicy;
use crate::model::{LinearModel, SuffStats};
use snapshot_netsim::NodeId;
use std::fmt;

/// Identifier of one sensing element on a node.
///
/// The paper (Section 3): "In practice there can be as many
/// measurements as the number of sensing elements installed on a node.
/// Our framework will still apply in such cases. The only necessary
/// modification is the addition of a *measurement_id* during model
/// computation." Single-measurement deployments use
/// [`MeasurementId::DEFAULT`] implicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeasurementId(pub u8);

impl MeasurementId {
    /// The implicit id of single-measurement deployments.
    pub const DEFAULT: MeasurementId = MeasurementId(0);
}

impl fmt::Display for MeasurementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A cache-line key: one neighbor's one measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineKey {
    /// The neighbor being modeled.
    pub node: NodeId,
    /// Which of its sensing elements.
    pub measurement: MeasurementId,
}

impl From<NodeId> for LineKey {
    fn from(node: NodeId) -> Self {
        LineKey {
            node,
            measurement: MeasurementId::DEFAULT,
        }
    }
}

impl From<(NodeId, MeasurementId)> for LineKey {
    fn from((node, measurement): (NodeId, MeasurementId)) -> Self {
        LineKey { node, measurement }
    }
}

/// Cache sizing and policy.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total budget, bytes (paper default: 2048).
    pub budget_bytes: usize,
    /// Bytes per cached pair (paper: two 4-byte floats = 8).
    pub pair_bytes: usize,
    /// Replacement policy.
    pub policy: CachePolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget_bytes: 2048,
            pair_bytes: 8,
            policy: CachePolicy::ModelAware,
        }
    }
}

impl CacheConfig {
    /// Maximum number of pairs the budget allows.
    pub fn capacity_pairs(&self) -> usize {
        self.budget_bytes.checked_div(self.pair_bytes).unwrap_or(0)
    }
}

/// What the manager did with an observation — returned so experiments
/// and tests can audit the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// Cache not yet full: stored without evicting anything.
    Inserted,
    /// Model-aware augment: stored, evicting the oldest pair of
    /// another line.
    AdmittedEvicting(LineKey),
    /// First observation for this line with a full cache: stored,
    /// evicting round-robin from `victim`.
    NewcomerEvicting(LineKey),
    /// Stored by dropping this line's own oldest pair.
    TimeShifted,
    /// Not stored: the current model explains the data better.
    Rejected,
}

/// A line's record: its chain of slab slots with its statistics, its
/// eviction penalty, and the model that penalty's computation fits on
/// the way, both current while the cache is live.
#[derive(Debug, Clone)]
struct Slot {
    chain: Chain,
    /// The line's eviction penalty; NaN for an empty line, which no
    /// comparison lets become a victim.
    penalty: f64,
    /// The fit of the whole line: the next decision's current model.
    model: LinearModel,
}

/// The per-node cache of neighbor observations.
///
/// Lines live in one flat layout in key order: `keys` is a dense,
/// strictly ascending array used only for lookups, and `slots` holds
/// each key's line record at the same index. A key and a slot are
/// inserted or removed only when a line appears or empties. The pairs
/// of every line live in one pair slab, each line a FIFO chain of its
/// slots, so once the cache is full and has held its most lines, no
/// decision calls the allocator. Once the cache first needs a victim
/// it is *live*: every slot's penalty and fit are computed, and from
/// then on every push and evict brings its slot's two up to date, so a
/// victim search is one pass that reads each slot's penalty and
/// computes nothing.
#[derive(Debug, Clone)]
pub struct ModelCache {
    config: CacheConfig,
    keys: Vec<LineKey>,
    slots: Vec<Slot>,
    slab: Slab,
    /// Whether penalties and fits are current (see above).
    live: bool,
    /// Where the next lookup looks first: the slot after the line the
    /// last observation went to.
    hint: usize,
    /// Round-robin rotation state for newcomer victims / the
    /// round-robin baseline policy: the key *after* which the search
    /// for the next victim line starts.
    rr_after: Option<LineKey>,
}

impl ModelCache {
    /// An empty cache. It allocates nothing before its first pair.
    pub fn new(config: CacheConfig) -> Self {
        ModelCache {
            config,
            keys: Vec::new(),
            slots: Vec::new(),
            slab: Slab::default(),
            live: false,
            hint: 0,
            rr_after: None,
        }
    }

    /// Rebuild a cache from checkpointed parts: each line's key, pairs
    /// (oldest first) and running statistics, in key order as
    /// [`ModelCache::lines`] yields them, plus the round-robin rotation
    /// marker. The statistics are carried *as they were*, including any
    /// floating-point residue from the historical add/remove sequence:
    /// replaying the pushes would recompute the sums without it, so a
    /// byte-identical restore must carry them verbatim (statistics that
    /// miscount their pairs are recomputed). The lines are read twice,
    /// first to size the pair slab to exactly the pairs they hold. A
    /// line out of order is sorted into place and a repeated key keeps
    /// its last line; empty lines are kept. The cache is restored not
    /// live: a live penalty or fit always equals a recompute from its
    /// line's current state and carries no history, so the next victim
    /// search computes them.
    pub fn from_parts<'p, I>(config: CacheConfig, lines: I, rr_after: Option<LineKey>) -> Self
    where
        I: IntoIterator<Item = (LineKey, &'p [(f64, f64)], SuffStats)>,
        I::IntoIter: Clone,
    {
        let lines = lines.into_iter();
        let pairs = lines.clone().map(|(_, pairs, _)| pairs.len()).sum();
        let mut cache = ModelCache {
            keys: Vec::with_capacity(lines.size_hint().0),
            slots: Vec::with_capacity(lines.size_hint().0),
            slab: Slab::with_capacity(pairs),
            rr_after,
            ..ModelCache::new(config)
        };
        for (key, pairs, stats) in lines {
            let slot = Slot::new(cache.slab.restore(pairs, stats));
            // Lines in key order, the normal case, append.
            let at = match cache.keys.last() {
                Some(&last) if last >= key => cache.find(key),
                _ => Err(cache.keys.len()),
            };
            match at {
                Ok(i) => {
                    if let Some(old) = cache.slots.get_mut(i) {
                        *old = slot;
                    }
                }
                Err(i) => {
                    cache.keys.insert(i, key);
                    cache.slots.insert(i, slot);
                }
            }
        }
        let held = cache.lines().map(|(_, line)| line.len()).sum();
        if held < cache.slab.len() {
            cache.compact(held);
        }
        cache
    }

    /// Rebuild the slab from the lines, which hold `held` pairs,
    /// dropping the slots no line holds: those of a repeated key's
    /// earlier lines.
    #[cold]
    fn compact(&mut self, held: usize) {
        let mut slab = Slab::with_capacity(held);
        for slot in &mut self.slots {
            let line = self.slab.line(&slot.chain);
            slot.chain = slab.restore(line.pairs(), *line.stats());
        }
        self.slab = slab;
    }

    /// Where `key` is in `keys` (`Ok`), or where it would be inserted
    /// to keep them ascending (`Err`): the first key not below `key`. A
    /// node caches a few dozen lines, and over so few keys a scan beats
    /// a binary search. A delivery round hands a node its neighbours'
    /// messages in ascending sender order, so the scan starts at
    /// `hint`, the slot after the last observed line, whenever the key
    /// before that slot is below `key`: then so is every key before
    /// it. The next sender is usually the key at `hint` (one compare),
    /// a lost message skips a slot or two, and a new last line is
    /// appended at once. When the order breaks the scan starts from the
    /// first key, as it would without a hint.
    #[inline]
    fn find(&self, key: LineKey) -> Result<usize, usize> {
        let from = match self.hint.checked_sub(1).and_then(|i| self.keys.get(i)) {
            Some(&before) if before < key => self.hint,
            _ => 0,
        };
        let rest = self.keys.get(from..).unwrap_or_default();
        match rest.iter().enumerate().find(|&(_, &k)| k >= key) {
            Some((i, &k)) if k == key => Ok(from + i),
            Some((i, _)) => Err(from + i),
            None => Err(self.keys.len()),
        }
    }

    /// The round-robin rotation marker (the key *after* which the next
    /// victim search starts), exposed for checkpoint extraction.
    pub fn rr_after(&self) -> Option<LineKey> {
        self.rr_after
    }

    /// The configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of pairs currently cached (across all lines): the slab
    /// holds exactly these.
    pub fn total_pairs(&self) -> usize {
        self.slab.len()
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> usize {
        self.total_pairs() * self.config.pair_bytes
    }

    /// True when admitting one more pair would exceed the budget.
    pub fn is_full(&self) -> bool {
        self.total_pairs() + 1 > self.config.capacity_pairs()
    }

    /// Pair slots the slab has allocated.
    #[cfg(test)]
    pub(crate) fn slab_capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// The cache line for a neighbor's default measurement.
    pub fn line(&self, j: NodeId) -> Option<LineRef<'_>> {
        self.line_for(j)
    }

    /// The cache line for one of a neighbor's measurements.
    pub fn line_for(&self, key: impl Into<LineKey>) -> Option<LineRef<'_>> {
        let i = self.find(key.into()).ok()?;
        self.slots.get(i).map(|s| self.slab.line(&s.chain))
    }

    /// Iterate over `(line key, line)` in key order.
    pub fn lines(&self) -> impl Iterator<Item = (LineKey, LineRef<'_>)> {
        self.keys
            .iter()
            .copied()
            .zip(self.slots.iter().map(|s| self.slab.line(&s.chain)))
    }

    /// Number of neighbors with at least one cached pair.
    pub fn populated_lines(&self) -> usize {
        self.lines().filter(|(_, line)| !line.is_empty()).count()
    }

    /// The fitted model for neighbor `j`'s default measurement
    /// (`None` without observations).
    pub fn model_for(&self, j: NodeId) -> Option<LinearModel> {
        self.model_for_measurement(j)
    }

    /// The fitted model for any line key.
    pub fn model_for_measurement(&self, key: impl Into<LineKey>) -> Option<LinearModel> {
        let line = self.line_for(key)?;
        if line.is_empty() {
            None
        } else {
            Some(line.model())
        }
    }

    /// Estimate `x̂_j` from this node's own current measurement.
    pub fn estimate(&self, j: NodeId, x_own: f64) -> Option<f64> {
        self.model_for(j).map(|m| m.predict(x_own))
    }

    /// Estimate a specific measurement of a neighbor.
    pub fn estimate_measurement(&self, key: impl Into<LineKey>, x_own: f64) -> Option<f64> {
        self.model_for_measurement(key).map(|m| m.predict(x_own))
    }

    /// Process a new observation of neighbor `j`'s default
    /// measurement. Returns what was done.
    pub fn observe(&mut self, j: NodeId, x_own: f64, x_j: f64) -> CacheDecision {
        self.observe_measurement(j, x_own, x_j)
    }

    /// Process a new observation of any line key: this node measured
    /// `x_own` while hearing the value `x_j` for that key. All
    /// measurements of all neighbors compete for the same byte budget
    /// under the same model-aware policy. The key is looked up once;
    /// the eviction and the push that follow reuse its index.
    pub fn observe_measurement(
        &mut self,
        key: impl Into<LineKey>,
        x_own: f64,
        x_j: f64,
    ) -> CacheDecision {
        let key = key.into();
        if self.config.capacity_pairs() == 0 {
            return CacheDecision::Rejected;
        }
        let at = self.find(key);
        self.hint = match at {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        if !self.is_full() {
            self.push_at(at, key, (x_own, x_j), None);
            return CacheDecision::Inserted;
        }
        match self.config.policy {
            CachePolicy::RoundRobin => self.observe_round_robin(at, key, x_own, x_j),
            CachePolicy::ModelAware => self.observe_model_aware(at, key, x_own, x_j),
        }
    }

    /// Baseline policy: always admit, evicting round-robin.
    fn observe_round_robin(
        &mut self,
        at: Result<usize, usize>,
        j: LineKey,
        x: f64,
        y: f64,
    ) -> CacheDecision {
        match self.next_rr_victim() {
            Some(v) => {
                let victim = self.move_pair(v, at, j, x, y);
                if victim == j {
                    CacheDecision::TimeShifted
                } else {
                    CacheDecision::AdmittedEvicting(victim)
                }
            }
            None => CacheDecision::Rejected, // capacity 0 handled above; unreachable in practice
        }
    }

    /// The paper's model-aware admission algorithm.
    fn observe_model_aware(
        &mut self,
        at: Result<usize, usize>,
        j: LineKey,
        x: f64,
        y: f64,
    ) -> CacheDecision {
        let Some((ji, slot)) = at
            .ok()
            .and_then(|i| Some((i, self.slots.get(i)?)))
            .filter(|(_, s)| !self.slab.line(&s.chain).is_empty())
        else {
            // Newcomer: round-robin victim "among all the available
            // cache lines" (never the newcomer's own empty line).
            return match self.next_rr_victim() {
                Some(v) => CacheDecision::NewcomerEvicting(self.move_pair(v, at, j, x, y)),
                None => CacheDecision::Rejected,
            };
        };
        let line = self.slab.line(&slot.chain);

        // All three candidate models are *evaluated* on c_aug — every
        // known observation of x_j including the new one — because the
        // model must serve future estimates, not relive the past.
        let c_aug = line.stats_augmented(x, y);
        let model_cur = if self.live { slot.model } else { line.model() };
        let model_shift = line.stats_shifted(x, y).fit();
        let model_aug = c_aug.fit();

        let b_cur = c_aug.benefit(&model_cur);
        let b_shift = c_aug.benefit(&model_shift);
        let b_aug = c_aug.benefit(&model_aug);

        if b_cur >= b_shift && b_cur >= b_aug {
            // The existing model already explains everything best.
            return CacheDecision::Rejected;
        }
        if b_shift >= b_aug {
            self.move_pair(ji, at, j, x, y);
            return CacheDecision::TimeShifted;
        }

        // Augmenting wins; look for the cheapest victim elsewhere.
        let gain_augment = b_aug - b_shift;
        if let Some(v) = self.cheapest_victim(ji, gain_augment) {
            return CacheDecision::AdmittedEvicting(self.move_pair(v, at, j, x, y));
        }

        // No victim is cheap enough; fall back to the next-best local
        // action.
        if b_shift > b_cur {
            self.move_pair(ji, at, j, x, y);
            CacheDecision::TimeShifted
        } else {
            CacheDecision::Rejected
        }
    }

    /// The line other than the one at `ji` with the smallest eviction
    /// penalty strictly below `gain`, if any: one pass over the slots,
    /// after the first search has made the cache live. On a tie the
    /// first, lowest key wins; an empty line's NaN never does.
    fn cheapest_victim(&mut self, ji: usize, gain: f64) -> Option<usize> {
        if !self.live {
            self.live = true;
            for i in 0..self.slots.len() {
                self.refresh(i);
            }
        }
        let mut best = None;
        let mut bound = gain;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.penalty < bound && i != ji {
                bound = slot.penalty;
                best = Some(i);
            }
        }
        best
    }

    /// Bring the live penalty and fit of the line at `i` up to date.
    fn refresh(&mut self, i: usize) {
        if let Some(slot) = self.slots.get_mut(i) {
            let line = self.slab.line(&slot.chain);
            let (model, penalty) = line.model_and_penalty();
            slot.penalty = if line.is_empty() { f64::NAN } else { penalty };
            slot.model = model;
        }
    }

    /// Next victim for round-robin rotation: the index of the first
    /// line after `rr_after` (cyclically, in key order) that has pairs.
    /// A newcomer's own line is absent or empty, so never chosen.
    fn next_rr_victim(&mut self) -> Option<usize> {
        let (v, victim) = {
            let mut eligible = self
                .lines()
                .enumerate()
                .filter(|(_, (_, line))| !line.is_empty())
                .map(|(i, (key, _))| (i, key));
            let first = eligible.next()?;
            match self.rr_after {
                Some(after) if first.1 <= after => {
                    eligible.find(|&(_, key)| key > after).unwrap_or(first)
                }
                _ => first,
            }
        };
        self.rr_after = Some(victim);
        Some(v)
    }

    /// Move one pair of the budget to `j`, whose lookup gave `at`: evict
    /// the oldest pair of the line at `v` (`j`'s own for a time shift),
    /// then push `(x, y)` to `j`'s line in the slot the eviction freed.
    /// Returns the key of `v`.
    fn move_pair(
        &mut self,
        v: usize,
        at: Result<usize, usize>,
        j: LineKey,
        x: f64,
        y: f64,
    ) -> LineKey {
        let victim = self.keys.get(v).copied().unwrap_or(j);
        let (at, freed) = self.evict_at(v, at);
        self.push_at(at, j, (x, y), freed);
        victim
    }

    /// Push `pair` to `key`'s line, which the lookup found at `at`,
    /// inserting the line there when it is new. The pair goes in
    /// `freed`, the slot an eviction just freed, or else in a new slot.
    fn push_at(
        &mut self,
        at: Result<usize, usize>,
        key: LineKey,
        pair: (f64, f64),
        freed: Option<u32>,
    ) {
        let i = match at {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, key);
                self.slots.insert(i, Slot::new(Chain::default()));
                i
            }
        };
        if let Some(slot) = self.slots.get_mut(i) {
            let capacity = self.config.capacity_pairs();
            self.slab.push(&mut slot.chain, freed, pair, capacity);
            if self.live {
                self.refresh(i);
            }
        }
        self.hint = i + 1;
    }

    /// Evict the oldest pair of the line at `v`, removing the line when
    /// it empties. Returns `at`, a lookup result for another key, as it
    /// reads afterwards, and the slot the eviction freed.
    fn evict_at(
        &mut self,
        v: usize,
        at: Result<usize, usize>,
    ) -> (Result<usize, usize>, Option<u32>) {
        let Some(slot) = self.slots.get_mut(v) else {
            return (at, None);
        };
        let freed = self.slab.evict_oldest(&mut slot.chain);
        if !self.slab.line(&slot.chain).is_empty() {
            if self.live {
                self.refresh(v);
            }
            return (at, freed);
        }
        self.keys.remove(v);
        self.slots.remove(v);
        let at = match at {
            Ok(i) if i == v => Err(i),
            Ok(i) if i > v => Ok(i - 1),
            Err(i) if i > v => Err(i - 1),
            at => at,
        };
        (at, freed)
    }
}

impl Slot {
    /// A record for `chain`; its penalty and fit are set when the cache
    /// is live.
    fn new(chain: Chain) -> Self {
        Slot {
            chain,
            penalty: f64::NAN,
            model: LinearModel::constant(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(bytes: usize, policy: CachePolicy) -> ModelCache {
        ModelCache::new(CacheConfig {
            budget_bytes: bytes,
            pair_bytes: 8,
            policy,
        })
    }

    #[test]
    fn fills_freely_until_budget() {
        let mut c = cache(32, CachePolicy::ModelAware); // 4 pairs
        for i in 0..4 {
            assert_eq!(
                c.observe(NodeId(i), i as f64, i as f64),
                CacheDecision::Inserted
            );
        }
        assert_eq!(c.total_pairs(), 4);
        assert_eq!(c.used_bytes(), 32);
        assert!(c.is_full());
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let mut c = cache(4, CachePolicy::ModelAware); // capacity 0 (pair = 8B)
        assert_eq!(c.observe(NodeId(0), 1.0, 2.0), CacheDecision::Rejected);
        assert_eq!(c.total_pairs(), 0);
    }

    #[test]
    fn newcomer_evicts_round_robin_not_by_gain() {
        // Fill with two lines, then observe a brand-new neighbor with a
        // huge value: the victim must rotate, not chase the x_j² gain.
        let mut c = cache(32, CachePolicy::ModelAware);
        for _ in 0..2 {
            c.observe(NodeId(1), 1.0, 0.01);
            c.observe(NodeId(2), 1.0, 0.02);
        }
        assert!(c.is_full());
        let d = c.observe(NodeId(3), 1.0, 1_000_000.0);
        assert!(matches!(d, CacheDecision::NewcomerEvicting(_)));
        let d2 = c.observe(NodeId(4), 1.0, 1_000_000.0);
        assert!(matches!(d2, CacheDecision::NewcomerEvicting(_)));
        // Two different victims: rotation, not repetition.
        if let (CacheDecision::NewcomerEvicting(v1), CacheDecision::NewcomerEvicting(v2)) = (d, d2)
        {
            assert_ne!(v1, v2, "newcomer victims must rotate");
        }
    }

    #[test]
    fn redundant_observation_is_rejected() {
        // Line already models y = 2x perfectly with plenty of pairs;
        // a new on-line pair adds nothing, and the other line would be
        // damaged by eviction: reject.
        let mut c = cache(48, CachePolicy::ModelAware); // 6 pairs
        for i in 0..4 {
            c.observe(NodeId(1), i as f64, 2.0 * i as f64);
        }
        c.observe(NodeId(2), 0.0, 5.0);
        c.observe(NodeId(2), 1.0, 6.0);
        assert!(c.is_full());
        let d = c.observe(NodeId(1), 10.0, 20.0);
        // On-model pair: current model benefit is maximal already.
        assert_eq!(d, CacheDecision::Rejected);
        assert_eq!(c.line(NodeId(1)).unwrap().len(), 4);
    }

    #[test]
    fn regime_change_prefers_time_shift() {
        // The line's old pairs describe a stale relation; new data
        // follows a different one. Shifting toward the new regime must
        // beat keeping the old model.
        let mut c = cache(32, CachePolicy::ModelAware); // 4 pairs
        c.observe(NodeId(1), 1.0, 100.0);
        c.observe(NodeId(1), 2.0, 100.0);
        c.observe(NodeId(1), 3.0, 100.0);
        c.observe(NodeId(1), 4.0, 100.0);
        assert!(c.is_full());
        // New regime: y = x.
        let d1 = c.observe(NodeId(1), 5.0, 5.0);
        assert_ne!(
            d1,
            CacheDecision::Rejected,
            "regime change must not be rejected"
        );
    }

    #[test]
    fn augment_steals_from_a_redundant_line() {
        let mut c = cache(48, CachePolicy::ModelAware); // 6 pairs
                                                        // Line 2: perfectly linear and over-provisioned (penalty ~ 0).
        for i in 0..4 {
            c.observe(NodeId(2), i as f64, 3.0 * i as f64);
        }
        // Line 1: two pairs of a noisy relation that genuinely needs
        // more samples.
        c.observe(NodeId(1), 0.0, 10.0);
        c.observe(NodeId(1), 1.0, 13.1);
        assert!(c.is_full());
        // A third, informative pair for line 1.
        let d = c.observe(NodeId(1), 2.0, 15.8);
        assert_eq!(d, CacheDecision::AdmittedEvicting(NodeId(2).into()));
        assert_eq!(c.line(NodeId(1)).unwrap().len(), 3);
        assert_eq!(c.line(NodeId(2)).unwrap().len(), 3);
    }

    #[test]
    fn budget_is_never_exceeded() {
        let mut c = cache(40, CachePolicy::ModelAware); // 5 pairs
        let cap = c.config().capacity_pairs();
        for i in 0..200u32 {
            let j = NodeId(i % 7);
            c.observe(j, (i as f64).sin() * 3.0, (i as f64).cos() * 5.0);
            assert!(c.total_pairs() <= cap, "budget exceeded at step {i}");
        }
    }

    #[test]
    fn round_robin_always_admits() {
        let mut c = cache(32, CachePolicy::RoundRobin);
        for i in 0..20u32 {
            let d = c.observe(NodeId(i % 3), i as f64, i as f64);
            assert_ne!(d, CacheDecision::Rejected);
        }
        assert_eq!(c.total_pairs(), 4);
    }

    #[test]
    fn round_robin_rotates_victims() {
        let mut c = cache(32, CachePolicy::RoundRobin);
        c.observe(NodeId(1), 0.0, 0.0);
        c.observe(NodeId(1), 1.0, 1.0);
        c.observe(NodeId(2), 0.0, 0.0);
        c.observe(NodeId(2), 1.0, 1.0);
        let mut victims = Vec::new();
        for i in 0..4 {
            match c.observe(NodeId(3), i as f64, i as f64) {
                CacheDecision::AdmittedEvicting(v) => victims.push(v),
                CacheDecision::TimeShifted => victims.push(NodeId(3).into()),
                other => panic!("unexpected decision {other:?}"),
            }
        }
        // The rotation must visit more than one line.
        let distinct: std::collections::BTreeSet<_> = victims.iter().collect();
        assert!(distinct.len() >= 2, "victims {victims:?} never rotated");
    }

    #[test]
    fn estimates_come_from_fitted_models() {
        let mut c = cache(1024, CachePolicy::ModelAware);
        for i in 0..5 {
            c.observe(NodeId(9), i as f64, 2.0 * i as f64 + 1.0);
        }
        let est = c.estimate(NodeId(9), 10.0).unwrap();
        assert!((est - 21.0).abs() < 1e-9);
        assert!(c.estimate(NodeId(8), 10.0).is_none());
    }

    #[test]
    fn populated_lines_counts_only_nonempty() {
        let mut c = cache(1024, CachePolicy::ModelAware);
        c.observe(NodeId(1), 1.0, 1.0);
        c.observe(NodeId(2), 1.0, 1.0);
        assert_eq!(c.populated_lines(), 2);
    }

    #[test]
    fn measurements_of_one_neighbor_have_independent_lines() {
        let mut c = cache(1024, CachePolicy::ModelAware);
        let temp = (NodeId(5), MeasurementId(0));
        let humidity = (NodeId(5), MeasurementId(1));
        for i in 0..4 {
            c.observe_measurement(temp, i as f64, 2.0 * i as f64);
            c.observe_measurement(humidity, i as f64, 100.0 - i as f64);
        }
        // Two distinct models from the same neighbor.
        let t = c.estimate_measurement(temp, 10.0).unwrap();
        let h = c.estimate_measurement(humidity, 10.0).unwrap();
        assert!((t - 20.0).abs() < 1e-9, "temperature model wrong: {t}");
        assert!((h - 90.0).abs() < 1e-9, "humidity model wrong: {h}");
        // The default-measurement API sees measurement 0 only.
        assert_eq!(c.estimate(NodeId(5), 10.0).unwrap(), t);
    }

    #[test]
    fn measurements_compete_for_the_shared_budget() {
        let mut c = cache(32, CachePolicy::ModelAware); // 4 pairs
        let a = (NodeId(1), MeasurementId(0));
        let b = (NodeId(1), MeasurementId(1));
        for i in 0..2 {
            c.observe_measurement(a, i as f64, i as f64);
            c.observe_measurement(b, i as f64, 7.0);
        }
        assert!(c.is_full());
        assert_eq!(c.total_pairs(), 4);
        // A third measurement is a newcomer and must evict from one of
        // the existing lines, keeping the budget exact.
        let d = c.observe_measurement((NodeId(1), MeasurementId(2)), 0.0, 3.0);
        assert!(matches!(d, CacheDecision::NewcomerEvicting(_)));
        assert_eq!(c.total_pairs(), 4);
    }

    #[test]
    fn from_parts_orders_lines_and_keeps_the_last_of_a_repeated_key() {
        let key = |n| LineKey::from(NodeId(n));
        let lines: [(u32, &[(f64, f64)]); 4] = [
            (3, &[(1.0, 2.0)]),
            (1, &[(0.0, 1.0)]),
            (3, &[(5.0, 6.0), (7.0, 8.0)]),
            (2, &[]),
        ];
        let mut c = ModelCache::from_parts(
            CacheConfig::default(),
            lines
                .iter()
                .map(|&(n, pairs)| (key(n), pairs, SuffStats::from_pairs(pairs))),
            None,
        );
        let keys: Vec<u32> = c.lines().map(|(k, _)| k.node.0).collect();
        assert_eq!(keys, [1, 2, 3]);
        assert!(c
            .line(NodeId(3))
            .unwrap()
            .pairs()
            .eq(&[(5.0, 6.0), (7.0, 8.0)]));
        assert_eq!(c.total_pairs(), 3);
        assert!(!c.live, "a restored cache computes its penalties afresh");
        // The empty line is kept but models nothing.
        assert_eq!(c.populated_lines(), 2);
        assert!(c.line(NodeId(2)).is_some_and(|l| l.is_empty()));
        assert!(c.model_for(NodeId(2)).is_none());
        // The repeated key's first line left no slot behind, and the
        // compacted lines take pushes in order.
        assert_eq!(c.slab_capacity(), 3);
        c.observe(NodeId(3), 9.0, 10.0);
        let line = c.line(NodeId(3)).unwrap();
        assert_eq!(
            (line.oldest(), line.newest()),
            (Some((5.0, 6.0)), Some((9.0, 10.0)))
        );
        assert!(c.line(NodeId(1)).unwrap().pairs().eq(&[(0.0, 1.0)]));
    }

    #[test]
    fn a_restore_far_under_its_budget_allocates_only_what_it_restores() {
        let config = CacheConfig {
            budget_bytes: 1 << 30,
            ..CacheConfig::default()
        };
        assert_eq!(ModelCache::new(config).slab_capacity(), 0);
        let empty = ModelCache::from_parts(config, std::iter::empty(), None);
        assert_eq!(empty.slab_capacity(), 0);
        let pairs = [(1.0, 2.0), (3.0, 4.0), (5.0, 7.0)];
        let lines = [(1, &pairs[..2]), (2, &pairs[2..])];
        let c = ModelCache::from_parts(
            config,
            lines.iter().map(|&(n, pairs)| {
                (
                    LineKey::from(NodeId(n)),
                    pairs,
                    SuffStats::from_pairs(pairs),
                )
            }),
            None,
        );
        assert_eq!(c.total_pairs(), 3);
        assert_eq!(c.slab_capacity(), 3);
    }

    #[test]
    fn a_full_cache_keeps_its_slab_at_the_budget() {
        // 8 pairs over 20 neighbours: lines empty and come back, and
        // every pair lands in the slot its eviction freed.
        for policy in [CachePolicy::ModelAware, CachePolicy::RoundRobin] {
            let mut c = cache(64, policy);
            for i in 0..400u32 {
                c.observe(NodeId(i * 7 % 20), f64::from(i % 11), f64::from(i % 13));
                assert!(c.slab_capacity() <= 8);
            }
            assert!(c.is_full());
            assert_eq!(c.slab_capacity(), 8);
        }
    }

    #[test]
    fn a_cached_line_costs_the_layout_88_bytes() {
        // A key, and a record of the line's chain ends, statistics,
        // penalty and fit; its pairs take 20 bytes a slot in the slab.
        use std::mem::size_of;
        assert_eq!(size_of::<LineKey>() + size_of::<Slot>(), 88);
    }

    #[test]
    fn a_lookup_starts_at_the_hint_only_when_the_key_before_it_is_below() {
        let mut c = cache(1024, CachePolicy::ModelAware);
        for n in [2, 4, 6, 8] {
            c.observe(NodeId(n), 1.0, 1.0);
        }
        let find = |c: &ModelCache, n| c.find(NodeId(n).into());
        // The hint is past the end, after 8: a larger key appends at
        // once, a smaller one is scanned for from the start.
        assert_eq!(c.hint, 4);
        assert_eq!(find(&c, 9), Err(4));
        for (n, expect) in [(4, Ok(1)), (5, Err(2)), (1, Err(0)), (8, Ok(3))] {
            assert_eq!(find(&c, n), expect, "key {n}");
        }
        // The hint at 6, after 4: a hit, a gap, a newcomer's slot, and
        // keys at or below 4 found by the scan from the start.
        c.hint = 2;
        for (n, expect) in [(6, Ok(2)), (8, Ok(3)), (5, Err(2)), (4, Ok(1)), (2, Ok(0))] {
            assert_eq!(find(&c, n), expect, "key {n}");
        }
        c.hint = 99;
        assert_eq!(find(&c, 6), Ok(2), "a hint out of range");
    }

    #[test]
    fn single_pair_per_line_degrades_to_round_robin() {
        // The paper: "for such small caches there is typically one pair
        // per cache line and our algorithm falls back into using the
        // round-robin policy". With one pair per line every line's
        // penalty is y² (large), so newcomers rotate victims and the
        // behaviour matches round-robin.
        let mut c = cache(16, CachePolicy::ModelAware); // 2 pairs
        c.observe(NodeId(1), 1.0, 5.0);
        c.observe(NodeId(2), 1.0, 6.0);
        let d = c.observe(NodeId(3), 1.0, 7.0);
        assert!(matches!(d, CacheDecision::NewcomerEvicting(_)));
        assert_eq!(c.total_pairs(), 2);
    }
}
