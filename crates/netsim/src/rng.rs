//! Deterministic randomness for the whole workspace.
//!
//! Experiments in the paper are averaged over ten repetitions; we want
//! each repetition, and each independent stochastic component within a
//! repetition (placement, data generation, message loss, election
//! timing), to draw from statistically independent streams while
//! remaining reproducible from a single master seed. SplitMix64 is the
//! standard tool for deriving such sub-seeds.
//!
//! This module is also the *only* sanctioned source of randomness in
//! the protocol and simulator crates: the workspace depends on no RNG
//! crate, and `clippy.toml` forbids ambient clocks, so every
//! stochastic choice flows through a [`DetRng`]
//! seeded (directly or via [`derive_seed`]) from an experiment's master
//! seed. [`DetRng`] is xoshiro256++ seeded through SplitMix64 — fast,
//! well-mixed, and fully specified here so results never depend on an
//! external crate's version-to-version stream changes.

/// One step of the SplitMix64 generator: maps a seed to a
/// well-mixed 64-bit output. Used to derive independent sub-seeds.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the `stream`-th sub-seed from a master seed.
///
/// Different `(seed, stream)` pairs produce (with overwhelming
/// probability) unrelated values, so each simulator component can own
/// its own RNG without accidental correlation.
#[inline]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // Two rounds of mixing keep low-entropy (seed, stream) pairs apart.
    splitmix64(splitmix64(seed ^ 0xA076_1D64_78BD_642F).wrapping_add(stream))
}

/// Minimal random-source contract: a stream of 64-bit words.
///
/// Split from [`RngExt`] so generic code can stay object-safe when it
/// only needs raw words.
pub trait RngCore {
    /// Next 64 bits of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods over any [`RngCore`].
///
/// The API mirrors the subset of `rand` the workspace historically
/// used (`random_bool`, `random_range`, a uniform `f64` draw), so
/// protocol code reads the same while depending only on this crate.
pub trait RngExt: RngCore {
    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    fn random_f64(&mut self) -> f64 {
        // Take the top 53 bits; dividing by 2^53 yields a uniform
        // dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.random_f64() < p
    }

    /// Uniform draw from a range (`a..b`, `a..=b`; integer or float).
    fn random_range<T: SampleRange>(&mut self, range: T) -> T::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// A range that [`RngExt::random_range`] can sample uniformly.
pub trait SampleRange {
    /// The element type produced by sampling.
    type Output;
    /// Draw one value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Draw uniformly from `[0, bound)` without modulo bias
/// (Lemire's rejection method on the widening multiply).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(bound);
        let low = m as u64;
        if low >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "random_range called on empty range {}..{}",
                    self.start,
                    self.end
                );
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(
                    start <= end,
                    "random_range called on empty range {start}..={end}"
                );
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_sample_range!(usize, u64, u32, i64);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(
            self.start < self.end,
            "random_range called on empty range {}..{}",
            self.start,
            self.end
        );
        self.start + rng.random_f64() * (self.end - self.start)
    }
}

impl SampleRange for core::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(
            start <= end,
            "random_range called on empty range {start}..={end}"
        );
        start + rng.random_f64() * (end - start)
    }
}

/// The workspace's deterministic PRNG: xoshiro256++ seeded via
/// SplitMix64.
///
/// Identical seeds produce identical streams on every platform and in
/// every future version of this repo — the property the paper-figure
/// reproductions rely on. Not cryptographically secure, and does not
/// need to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seed the generator from a single 64-bit value, expanding it
    /// through SplitMix64 as the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *word = splitmix64(state);
        }
        // An all-zero state is a fixed point of xoshiro; SplitMix64
        // cannot produce four zero outputs from sequential states, but
        // guard anyway so the invariant is local.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng { s }
    }
}

impl RngCore for DetRng {
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ by Blackman & Vigna (public domain).
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let mut seen = BTreeSet::new();
        for seed in 0..50u64 {
            for stream in 0..50u64 {
                assert!(
                    seen.insert(derive_seed(seed, stream)),
                    "collision at ({seed},{stream})"
                );
            }
        }
    }

    #[test]
    fn splitmix_mixes_adjacent_inputs() {
        // Adjacent inputs should differ in roughly half their bits.
        let a = splitmix64(1);
        let b = splitmix64(2);
        let differing = (a ^ b).count_ones();
        assert!(differing > 16, "only {differing} differing bits");
    }

    #[test]
    fn det_rng_is_deterministic_in_seed() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        let mut c = DetRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn random_f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = DetRng::seed_from_u64(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.random_f64();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}, expected ~0.5");
    }

    #[test]
    fn random_bool_matches_probability() {
        let mut rng = DetRng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.random_bool(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}, expected ~0.3");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }

    #[test]
    fn random_range_covers_integer_ranges_uniformly() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut counts = [0u32; 5];
        for _ in 0..10_000 {
            counts[rng.random_range(0..5usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (1_700..2_300).contains(&c),
                "bucket {i} count {c} far from uniform"
            );
        }
        // Inclusive ranges reach both endpoints.
        let mut saw = BTreeSet::new();
        for _ in 0..200 {
            saw.insert(rng.random_range(0..=3u64));
        }
        assert_eq!(saw.len(), 4);
    }

    #[test]
    fn random_range_float_stays_inside_bounds() {
        let mut rng = DetRng::seed_from_u64(19);
        for _ in 0..5_000 {
            let x = rng.random_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&x), "out of range: {x}");
            let y = rng.random_range(1.0..=2.0);
            assert!((1.0..=2.0).contains(&y), "out of range: {y}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn random_range_rejects_empty_ranges() {
        let mut rng = DetRng::seed_from_u64(0);
        let _ = rng.random_range(5..5usize);
    }
}
