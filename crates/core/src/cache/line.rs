//! A single cache line: the pairs cached for one neighbor.
//!
//! The paper: "the cache-line for `N_j` (maintained by `N_i`) is a list
//! of pairs of values of `x_i(t)` and `x_j(t)` collected at the same
//! time", ordered oldest-to-newest; "victims are always chosen from the
//! oldest member of a cache-line", which both shifts the cache toward
//! recent observations and keeps every update linear-time.
//!
//! The line maintains its [`SuffStats`] incrementally, so fitting the
//! model and evaluating benefits is O(1); the raw pairs are retained so
//! the oldest can be removed exactly (and so tests can recompute
//! statistics from scratch).

use crate::model::{LinearModel, SuffStats};
use std::collections::VecDeque;
use std::fmt;

/// One cached `(x_i, x_j)` measurement pair.
type Pair = (f64, f64);

/// The cached pairs for one neighbor, oldest first.
///
/// The pairs sit in a ring buffer: `len` pairs from `ring[head]` on,
/// wrapping at the end. It grows as a `VecDeque` does (four slots, then
/// doubling), and its two `u32` cursors keep a line at 72 bytes, eight
/// fewer than a `VecDeque` of the pairs would take.
#[derive(Default)]
pub struct CacheLine {
    ring: Box<[Pair]>,
    head: u32,
    len: u32,
    stats: SuffStats,
}

impl Clone for CacheLine {
    /// A clone holds its pairs in a buffer of exactly their number, as a
    /// cloned `VecDeque` does.
    fn clone(&self) -> Self {
        CacheLine {
            ring: self.pairs().copied().collect(),
            head: 0,
            len: self.len,
            stats: self.stats,
        }
    }
}

impl fmt::Debug for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheLine")
            .field("pairs", &self.pairs().collect::<Vec<_>>())
            .field("stats", &self.stats)
            .finish()
    }
}

impl CacheLine {
    /// An empty line.
    pub fn new() -> Self {
        CacheLine::default()
    }

    /// Rebuild a line from checkpointed parts: the raw pairs plus the
    /// running statistics *as they were* — including any accumulated
    /// floating-point residue from the historical add/remove sequence.
    /// Replaying [`CacheLine::push`] would recompute the sums without
    /// that residue, so a faithful (byte-identical) restore must carry
    /// the stats verbatim. The deque's buffer becomes the ring, spare
    /// capacity included, so nothing is reallocated.
    pub fn from_parts(pairs: VecDeque<(f64, f64)>, stats: SuffStats) -> Self {
        let len = u32::try_from(pairs.len()).unwrap_or(u32::MAX);
        let mut ring = Vec::from(pairs);
        ring.resize(ring.capacity(), (0.0, 0.0));
        CacheLine {
            ring: ring.into_boxed_slice(),
            head: 0,
            len,
            stats,
        }
    }

    /// Number of cached pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no pairs are cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pairs as two runs, oldest first: from `head` toward the end
    /// of the ring, then the part that wrapped to its start.
    fn runs(&self) -> (&[Pair], &[Pair]) {
        let (wrapped, from_head) = self
            .ring
            .split_at_checked(self.head as usize)
            .unwrap_or_default();
        match from_head.get(..self.len()) {
            Some(run) => (run, &[]),
            None => (
                from_head,
                wrapped
                    .get(..self.len() - from_head.len())
                    .unwrap_or_default(),
            ),
        }
    }

    /// The cached pairs, oldest first.
    pub fn pairs(&self) -> impl Iterator<Item = &(f64, f64)> {
        let (first, second) = self.runs();
        first.iter().chain(second)
    }

    /// The oldest pair, if any.
    #[inline]
    pub fn oldest(&self) -> Option<(f64, f64)> {
        if self.is_empty() {
            return None;
        }
        self.ring.get(self.head as usize).copied()
    }

    /// The newest pair, if any.
    #[inline]
    pub fn newest(&self) -> Option<(f64, f64)> {
        let (first, second) = self.runs();
        second.last().or(first.last()).copied()
    }

    /// Current sufficient statistics.
    #[inline]
    pub fn stats(&self) -> &SuffStats {
        &self.stats
    }

    /// Fit the line's model (Lemma 1).
    pub fn model(&self) -> LinearModel {
        self.stats.fit()
    }

    /// Append a new (most recent) pair.
    pub fn push(&mut self, x: f64, y: f64) {
        if self.len() == self.ring.len() {
            self.grow();
        }
        let at = self.head as usize + self.len();
        let at = at.checked_sub(self.ring.len()).unwrap_or(at);
        if let Some(slot) = self.ring.get_mut(at) {
            *slot = (x, y);
            self.len += 1;
            self.stats.add(x, y);
        }
    }

    /// Double the ring (four slots at first), moving the pairs to its
    /// start: one allocation, as a `VecDeque` takes to grow.
    #[cold]
    fn grow(&mut self) {
        let capacity = (self.ring.len() * 2).max(4);
        let mut ring = Vec::with_capacity(capacity);
        ring.extend(self.pairs().copied());
        ring.resize(capacity, (0.0, 0.0));
        self.ring = ring.into_boxed_slice();
        self.head = 0;
    }

    /// Remove and return the oldest pair.
    pub fn evict_oldest(&mut self) -> Option<(f64, f64)> {
        let (x, y) = self.oldest()?;
        let next = self.head as usize + 1;
        self.head = if next < self.ring.len() {
            next as u32
        } else {
            0
        };
        self.len -= 1;
        self.stats.remove(x, y);
        // An emptied line has exactly-zero statistics by definition;
        // snap off any floating-point residue from the running sums.
        if self.is_empty() {
            self.stats = SuffStats::new();
        }
        Some((x, y))
    }

    /// Statistics of the *time-shifted* line: drop the oldest pair,
    /// append `(x, y)`. Non-destructive; empty lines shift to the
    /// single new pair.
    pub fn stats_shifted(&self, x: f64, y: f64) -> SuffStats {
        match self.oldest() {
            Some((ox, oy)) => self.stats.without(ox, oy).with(x, y),
            None => SuffStats::from_pairs(&[(x, y)]),
        }
    }

    /// Statistics of the *augmented* line: append `(x, y)` keeping
    /// everything. Non-destructive.
    pub fn stats_augmented(&self, x: f64, y: f64) -> SuffStats {
        self.stats.with(x, y)
    }

    /// Statistics of the line with its oldest pair removed
    /// (the `c''` of the paper's eviction-penalty computation).
    pub fn stats_without_oldest(&self) -> SuffStats {
        match self.oldest() {
            Some((ox, oy)) => self.stats.without(ox, oy),
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
        let p = self.stats.benefit(&full_model) - self.stats.benefit(&truncated_model);
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

    fn line_of(pairs: &[(f64, f64)]) -> CacheLine {
        let mut l = CacheLine::new();
        for &(x, y) in pairs {
            l.push(x, y);
        }
        l
    }

    #[test]
    fn push_and_evict_preserve_fifo_order() {
        let mut l = line_of(&[(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]);
        assert_eq!(l.oldest(), Some((1.0, 10.0)));
        assert_eq!(l.newest(), Some((3.0, 30.0)));
        assert_eq!(l.evict_oldest(), Some((1.0, 10.0)));
        assert_eq!(l.oldest(), Some((2.0, 20.0)));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn incremental_stats_match_recompute() {
        let mut l = CacheLine::new();
        for i in 0..50 {
            l.push(i as f64 * 0.7, (i * i) as f64 * 0.01);
            if i % 3 == 0 {
                l.evict_oldest();
            }
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
        let mut l = line_of(&[(0.1, 0.2)]);
        l.evict_oldest();
        assert_eq!(*l.stats(), SuffStats::new());
        assert!(l.is_empty());
        assert_eq!(l.evict_oldest(), None);
    }

    #[test]
    fn shifted_stats_equal_manual_shift() {
        let l = line_of(&[(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]);
        let shifted = l.stats_shifted(4.0, 16.0);
        let manual = SuffStats::from_pairs(&[(2.0, 4.0), (3.0, 9.0), (4.0, 16.0)]);
        assert_eq!(shifted.n, manual.n);
        assert!((shifted.sxy - manual.sxy).abs() < 1e-9);
    }

    #[test]
    fn shifting_an_empty_line_is_just_the_new_pair() {
        let l = CacheLine::new();
        let s = l.stats_shifted(2.0, 3.0);
        assert_eq!(s.n, 1);
        assert!((s.sx - 2.0).abs() < 1e-12);
    }

    #[test]
    fn augmented_stats_add_one_pair() {
        let l = line_of(&[(1.0, 2.0)]);
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
        for l in &lines {
            assert!(l.eviction_penalty() >= 0.0);
        }
        assert_eq!(CacheLine::new().eviction_penalty(), 0.0);
    }

    #[test]
    fn single_pair_line_has_high_eviction_penalty() {
        // Evicting the only pair destroys a perfect model of y:
        // penalty equals the no-answer cost y².
        let l = line_of(&[(3.0, 7.0)]);
        assert!((l.eviction_penalty() - 49.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_pair_has_low_eviction_penalty() {
        // A long line on an exact linear relation loses nothing by
        // dropping one pair: the refit is identical.
        let l = line_of(&[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 8.0)]);
        assert!(l.eviction_penalty() < 1e-9);
    }

    #[test]
    fn the_ring_keeps_fifo_order_across_wraps_and_growth() {
        // Against a VecDeque fed the same pushes and evictions: the
        // ring wraps once the front has moved, and grows while wrapped.
        let mut l = CacheLine::new();
        let mut reference = VecDeque::new();
        for i in 0..200u32 {
            let p = (f64::from(i), f64::from(i) * 0.5);
            l.push(p.0, p.1);
            reference.push_back(p);
            if i % 3 == 1 {
                assert_eq!(l.evict_oldest(), reference.pop_front());
            }
            assert_eq!(l.len(), reference.len());
            assert_eq!(l.oldest(), reference.front().copied());
            assert_eq!(l.newest(), reference.back().copied());
            assert!(l.pairs().eq(reference.iter()));
        }
        let c = l.clone();
        assert!(c.pairs().eq(l.pairs()));
        assert_eq!(c.stats(), l.stats());
    }

    #[test]
    fn from_parts_keeps_a_wrapped_deque_in_order() {
        let mut pairs = VecDeque::with_capacity(4);
        for i in 0..4 {
            pairs.push_back((f64::from(i), 1.0));
        }
        pairs.pop_front();
        pairs.push_back((9.0, 1.0));
        let stats = SuffStats::from_pairs(&pairs);
        let mut l = CacheLine::from_parts(pairs.clone(), stats);
        assert!(l.pairs().eq(pairs.iter()));
        l.push(10.0, 1.0);
        assert_eq!(l.oldest(), Some((1.0, 1.0)));
        assert_eq!(l.newest(), Some((10.0, 1.0)));
    }

    #[test]
    fn a_line_takes_72_bytes() {
        assert_eq!(std::mem::size_of::<CacheLine>(), 72);
    }

    #[test]
    fn model_tracks_the_cached_relation() {
        let l = line_of(&[(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]);
        let m = l.model();
        assert!((m.a - 2.0).abs() < 1e-9);
        assert!((m.b - 1.0).abs() < 1e-9);
    }
}
