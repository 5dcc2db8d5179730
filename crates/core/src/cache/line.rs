//! Cache lines: the pairs cached for each neighbor, kept as FIFO chains
//! over one pair slab per cache.
//!
//! The paper: "the cache-line for `N_j` (maintained by `N_i`) is a list
//! of pairs of values of `x_i(t)` and `x_j(t)` collected at the same
//! time", ordered oldest-to-newest; "victims are always chosen from the
//! oldest member of a cache-line", which both shifts the cache toward
//! recent observations and keeps every update linear-time.
//!
//! A cache keeps all its pairs in one [`Slab`], and each line is a
//! [`Chain`] of slab slots from its oldest pair to its newest. The line
//! maintains its [`SuffStats`] incrementally, so fitting the model and
//! evaluating benefits is O(1); the raw pairs are retained so the
//! oldest can be removed exactly (and so tests can recompute statistics
//! from scratch).

use crate::model::{LinearModel, SuffStats};
use std::fmt;

/// One cached `(x_i, x_j)` measurement pair.
type Pair = (f64, f64);

/// The pairs of every line of one cache.
///
/// Slot `s` holds `pairs[s]`, and `next[s]` is the slot of the next
/// newer pair on the same line (a line's newest slot has no use for
/// its link). Both arrays grow by doubling, four slots at first, up to
/// the cache's pair capacity, so a cache never reserves room beyond its
/// budget. The slab holds exactly the cache's pairs: a full cache
/// evicts a pair only to push the new one into the slot it freed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slab {
    pairs: Vec<Pair>,
    next: Vec<u32>,
}

/// One line's place in the slab: the slots of its oldest and newest
/// pairs, and its running statistics, whose `n` is its length.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Chain {
    head: u32,
    tail: u32,
    stats: SuffStats,
}

impl Slab {
    /// An empty slab with room for exactly `pairs` pairs.
    pub(crate) fn with_capacity(pairs: usize) -> Self {
        Slab {
            pairs: Vec::with_capacity(pairs),
            next: Vec::with_capacity(pairs),
        }
    }

    /// Pairs held.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Pair slots allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.pairs.capacity()
    }

    /// A read view of `chain`'s line.
    pub(crate) fn line<'a>(&'a self, chain: &'a Chain) -> LineRef<'a> {
        LineRef { slab: self, chain }
    }

    /// Append `(x, y)` to `chain` as its newest pair, in `slot` (one an
    /// eviction freed) or, for `None`, in a new slot at the end of the
    /// slab, which grows when full up to `capacity` pairs.
    pub(crate) fn push(
        &mut self,
        chain: &mut Chain,
        slot: Option<u32>,
        (x, y): Pair,
        capacity: usize,
    ) {
        let s = match slot {
            Some(s) => {
                if let Some(pair) = self.pairs.get_mut(s as usize) {
                    *pair = (x, y);
                }
                s
            }
            None => {
                let len = self.pairs.len();
                if len == self.pairs.capacity() {
                    // Double, to at most `capacity` pairs but at least
                    // one more than the slab holds.
                    let room = (2 * len).max(4).min(capacity).max(len + 1) - len;
                    self.pairs.reserve_exact(room);
                    self.next.reserve_exact(room);
                }
                let s = len as u32;
                self.pairs.push((x, y));
                self.next.push(s);
                s
            }
        };
        if chain.stats.n == 0 {
            chain.head = s;
        } else if let Some(link) = self.next.get_mut(chain.tail as usize) {
            *link = s;
        }
        chain.tail = s;
        chain.stats.add(x, y);
    }

    /// Remove `chain`'s oldest pair and return the slot it freed.
    pub(crate) fn evict_oldest(&mut self, chain: &mut Chain) -> Option<u32> {
        if chain.stats.n == 0 {
            return None;
        }
        let s = chain.head;
        let (x, y) = self.pairs.get(s as usize).copied()?;
        chain.stats.remove(x, y);
        if chain.stats.n == 0 {
            // An emptied line has exactly-zero statistics by definition;
            // snap off any floating-point residue from the running sums.
            chain.stats = SuffStats::new();
        } else {
            chain.head = self.next.get(s as usize).copied().unwrap_or(s);
        }
        Some(s)
    }

    /// Append a whole line rebuilt from checkpointed parts, in new slots
    /// at the end of the slab: its pairs, oldest first, and its running
    /// statistics *as they were* — including any accumulated
    /// floating-point residue from the historical add/remove sequence.
    /// Replaying [`Slab::push`] would recompute the sums without that
    /// residue, so a faithful (byte-identical) restore must carry the
    /// stats verbatim. Statistics that miscount the pairs cannot be
    /// theirs, and are recomputed from them.
    pub(crate) fn restore<'p>(
        &mut self,
        pairs: impl IntoIterator<Item = &'p Pair>,
        stats: SuffStats,
    ) -> Chain {
        let head = self.pairs.len();
        self.pairs.extend(pairs);
        let end = self.pairs.len();
        self.next.extend((head + 1..=end).map(|s| s as u32));
        let restored = self.pairs.get(head..).unwrap_or_default();
        Chain {
            head: head as u32,
            tail: end.saturating_sub(1) as u32,
            stats: if stats.n as usize == restored.len() {
                stats
            } else {
                SuffStats::from_pairs(restored)
            },
        }
    }
}

/// A read view of one cache line: its pairs, oldest first, and its
/// statistics.
#[derive(Clone, Copy)]
pub struct LineRef<'a> {
    slab: &'a Slab,
    chain: &'a Chain,
}

impl fmt::Debug for LineRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineRef")
            .field("pairs", &self.pairs().collect::<Vec<_>>())
            .field("stats", self.stats())
            .finish()
    }
}

impl<'a> LineRef<'a> {
    /// Number of cached pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.chain.stats.n as usize
    }

    /// True when no pairs are cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chain.stats.n == 0
    }

    /// The cached pairs, oldest first: the chain from `head`, one link
    /// per pair. The count is known up front, so a `collect` allocates
    /// once.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = &'a (f64, f64)> + 'a {
        let slab = self.slab;
        let mut s = self.chain.head as usize;
        // Every slot a chain links to holds one of the slab's pairs.
        (0..self.len()).map(move |_| {
            let pair = &slab.pairs[s];
            s = slab.next[s] as usize;
            pair
        })
    }

    /// The pair in slot `s`, if the line is not empty.
    fn pair_at(&self, s: u32) -> Option<(f64, f64)> {
        if self.is_empty() {
            return None;
        }
        self.slab.pairs.get(s as usize).copied()
    }

    /// The oldest pair, if any.
    #[inline]
    pub fn oldest(&self) -> Option<(f64, f64)> {
        self.pair_at(self.chain.head)
    }

    /// The newest pair, if any.
    #[inline]
    pub fn newest(&self) -> Option<(f64, f64)> {
        self.pair_at(self.chain.tail)
    }

    /// Current sufficient statistics.
    #[inline]
    pub fn stats(&self) -> &'a SuffStats {
        &self.chain.stats
    }

    /// Fit the line's model (Lemma 1).
    pub fn model(&self) -> LinearModel {
        self.chain.stats.fit()
    }

    /// Statistics of the *time-shifted* line: drop the oldest pair,
    /// append `(x, y)`. Non-destructive; empty lines shift to the
    /// single new pair.
    pub(crate) fn stats_shifted(&self, x: f64, y: f64) -> SuffStats {
        match self.oldest() {
            Some((ox, oy)) => self.chain.stats.without(ox, oy).with(x, y),
            None => SuffStats::from_pairs(&[(x, y)]),
        }
    }

    /// Statistics of the *augmented* line: append `(x, y)` keeping
    /// everything. Non-destructive.
    pub(crate) fn stats_augmented(&self, x: f64, y: f64) -> SuffStats {
        self.chain.stats.with(x, y)
    }

    /// Statistics of the line with its oldest pair removed
    /// (the `c''` of the paper's eviction-penalty computation).
    fn stats_without_oldest(&self) -> SuffStats {
        match self.oldest() {
            Some((ox, oy)) => self.chain.stats.without(ox, oy),
            None => SuffStats::new(),
        }
    }

    /// The paper's eviction penalty for this line:
    /// `benefit(c', a*(c'), b*(c')) - benefit(c', a*(c''), b*(c''))`,
    /// where `c''` is the line minus its oldest pair and both benefits
    /// are evaluated over the full line `c'`. Always >= 0 because the
    /// full-line fit minimizes sse over the full line.
    pub fn eviction_penalty(&self) -> f64 {
        self.model_and_penalty().1
    }

    /// The line's model together with its eviction penalty: the penalty
    /// fits the full line on the way, so the model costs nothing more.
    /// An empty line has the zero model and penalty 0.
    pub(crate) fn model_and_penalty(&self) -> (LinearModel, f64) {
        let full_model = self.model();
        if self.is_empty() {
            return (full_model, 0.0);
        }
        let truncated_model = self.stats_without_oldest().fit();
        let stats = &self.chain.stats;
        let p = stats.benefit(&full_model) - stats.benefit(&truncated_model);
        (full_model, p.max(0.0))
    }

    /// Recompute statistics from the raw pairs (reference path used by
    /// tests to bound incremental drift).
    pub fn recomputed_stats(&self) -> SuffStats {
        SuffStats::from_pairs(self.pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One line in a slab of its own.
    fn line_of(pairs: &[(f64, f64)]) -> (Slab, Chain) {
        let (mut slab, mut chain) = (Slab::default(), Chain::default());
        for &pair in pairs {
            slab.push(&mut chain, None, pair, usize::MAX);
        }
        (slab, chain)
    }

    #[test]
    fn push_and_evict_preserve_fifo_order() {
        let (mut slab, mut chain) = line_of(&[(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]);
        assert_eq!(slab.line(&chain).oldest(), Some((1.0, 10.0)));
        assert_eq!(slab.line(&chain).newest(), Some((3.0, 30.0)));
        assert_eq!(slab.evict_oldest(&mut chain), Some(0));
        let l = slab.line(&chain);
        assert_eq!(l.oldest(), Some((2.0, 20.0)));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn incremental_stats_match_recompute() {
        let (mut slab, mut chain) = line_of(&[]);
        for i in 0..50 {
            let pair = (i as f64 * 0.7, (i * i) as f64 * 0.01);
            // Every third pair reuses the slot the eviction freed, as a
            // time shift does.
            let freed = if i % 3 == 0 {
                slab.evict_oldest(&mut chain)
            } else {
                None
            };
            slab.push(&mut chain, freed, pair, usize::MAX);
            let l = slab.line(&chain);
            let inc = *l.stats();
            let ref_ = l.recomputed_stats();
            assert_eq!(inc.n, ref_.n);
            assert!((inc.sx - ref_.sx).abs() < 1e-6);
            assert!((inc.sxy - ref_.sxy).abs() < 1e-6);
            assert!((inc.syy - ref_.syy).abs() < 1e-6);
        }
    }

    #[test]
    fn emptied_line_resets_stats_exactly() {
        let (mut slab, mut chain) = line_of(&[(0.1, 0.2)]);
        slab.evict_oldest(&mut chain);
        assert_eq!(*slab.line(&chain).stats(), SuffStats::new());
        assert!(slab.line(&chain).is_empty());
        assert_eq!(slab.line(&chain).oldest(), None);
        assert_eq!(slab.evict_oldest(&mut chain), None);
    }

    #[test]
    fn shifted_stats_equal_manual_shift() {
        let (slab, chain) = line_of(&[(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]);
        let shifted = slab.line(&chain).stats_shifted(4.0, 16.0);
        let manual = SuffStats::from_pairs(&[(2.0, 4.0), (3.0, 9.0), (4.0, 16.0)]);
        assert_eq!(shifted.n, manual.n);
        assert!((shifted.sxy - manual.sxy).abs() < 1e-9);
    }

    #[test]
    fn shifting_an_empty_line_is_just_the_new_pair() {
        let (slab, chain) = line_of(&[]);
        let s = slab.line(&chain).stats_shifted(2.0, 3.0);
        assert_eq!(s.n, 1);
        assert!((s.sx - 2.0).abs() < 1e-12);
    }

    #[test]
    fn augmented_stats_add_one_pair() {
        let (slab, chain) = line_of(&[(1.0, 2.0)]);
        let l = slab.line(&chain);
        let s = l.stats_augmented(3.0, 4.0);
        assert_eq!(s.n, 2);
        assert!((s.sy - 6.0).abs() < 1e-12);
        assert_eq!(l.len(), 1, "augmentation must not mutate the line");
    }

    #[test]
    fn eviction_penalty_is_non_negative() {
        let lines = [
            line_of(&[(1.0, 10.0)]),
            line_of(&[(1.0, 1.0), (2.0, 2.0)]),
            line_of(&[(0.0, 5.0), (1.0, 5.1), (2.0, 4.9), (3.0, 5.05)]),
        ];
        for (slab, chain) in &lines {
            assert!(slab.line(chain).eviction_penalty() >= 0.0);
        }
        let (slab, chain) = line_of(&[]);
        assert_eq!(slab.line(&chain).eviction_penalty(), 0.0);
    }

    #[test]
    fn single_pair_line_has_high_eviction_penalty() {
        // Evicting the only pair destroys a perfect model of y:
        // penalty equals the no-answer cost y².
        let (slab, chain) = line_of(&[(3.0, 7.0)]);
        assert!((slab.line(&chain).eviction_penalty() - 49.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_pair_has_low_eviction_penalty() {
        // A long line on an exact linear relation loses nothing by
        // dropping one pair: the refit is identical.
        let (slab, chain) = line_of(&[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 8.0)]);
        assert!(slab.line(&chain).eviction_penalty() < 1e-9);
    }

    #[test]
    fn chains_keep_fifo_order_as_slots_pass_between_lines() {
        // Three lines share a slab of 12 slots. Once it is full, each
        // step evicts one line's oldest pair and pushes to another line
        // into the slot that freed, as a full cache does; every line
        // must read as a VecDeque fed the same pushes and evictions.
        const CAPACITY: usize = 12;
        let mut slab = Slab::default();
        let mut chains = [Chain::default(); 3];
        let mut reference: [VecDeque<(f64, f64)>; 3] = Default::default();
        for step in 0..300u32 {
            let pair = (f64::from(step), f64::from(step) * 0.5);
            let to = (step * 7 % 3) as usize;
            let from = (step * 5 % 3) as usize;
            let freed = if slab.len() == CAPACITY && !reference[from].is_empty() {
                let freed = slab.evict_oldest(&mut chains[from]);
                reference[from].pop_front();
                assert!(freed.is_some());
                freed
            } else {
                None
            };
            if slab.len() < CAPACITY || freed.is_some() {
                slab.push(&mut chains[to], freed, pair, CAPACITY);
                reference[to].push_back(pair);
            }
            for (chain, reference) in chains.iter().zip(&reference) {
                let l = slab.line(chain);
                assert_eq!(l.len(), reference.len());
                assert_eq!(l.oldest(), reference.front().copied());
                assert_eq!(l.newest(), reference.back().copied());
                assert!(l.pairs().eq(reference.iter()));
            }
            assert!(slab.capacity() <= CAPACITY);
        }
        assert_eq!(slab.len(), CAPACITY);
    }

    #[test]
    fn a_slab_grows_by_doubling_up_to_its_capacity() {
        let (mut slab, mut chain) = line_of(&[]);
        let mut capacities = Vec::new();
        for i in 0..10 {
            slab.push(&mut chain, None, (f64::from(i), 1.0), 10);
            capacities.push(slab.capacity());
        }
        assert_eq!(capacities, [4, 4, 4, 4, 8, 8, 8, 8, 10, 10]);
    }

    #[test]
    fn a_restored_line_keeps_its_order_and_takes_pushes() {
        let pairs = [(1.0, 1.0), (2.0, 1.0), (9.0, 1.0)];
        // Statistics carried verbatim, residue included.
        let stats = SuffStats {
            sx: 12.000_000_000_000_002,
            ..SuffStats::from_pairs(&pairs)
        };
        let mut slab = Slab::with_capacity(4);
        let mut chain = slab.restore(&pairs, stats);
        assert!(slab.line(&chain).pairs().eq(pairs.iter()));
        assert_eq!(*slab.line(&chain).stats(), stats);
        slab.push(&mut chain, None, (10.0, 1.0), 4);
        let l = slab.line(&chain);
        assert_eq!(l.oldest(), Some((1.0, 1.0)));
        assert_eq!(l.newest(), Some((10.0, 1.0)));
        assert_eq!(slab.capacity(), 4);
        // Statistics that miscount their pairs are recomputed.
        let mut slab = Slab::default();
        let chain = slab.restore(&pairs, SuffStats::new());
        assert_eq!(*slab.line(&chain).stats(), SuffStats::from_pairs(&pairs));
    }

    #[test]
    fn a_pair_slot_takes_20_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Pair>() + size_of::<u32>(), 20);
    }

    #[test]
    fn model_tracks_the_cached_relation() {
        let (slab, chain) = line_of(&[(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]);
        let m = slab.line(&chain).model();
        assert!((m.a - 2.0).abs() < 1e-9);
        assert!((m.b - 1.0).abs() < 1e-9);
    }
}
