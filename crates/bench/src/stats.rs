//! Small statistics helpers for experiment aggregation.

use snapshot_netsim::rng::DetRng;

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation (0 for empty input).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Run `reps` repetitions — repetition `r` is a pure function of the
/// derived seed `derive_seed(base_seed, r)` — and collect the results
/// **in repetition order**. Work is distributed over the global
/// `--jobs` budget (see [`crate::runner`]); because each cell's seed
/// is derived, not shared, the collected vector is identical for any
/// jobs setting, and nearby base seeds no longer share rep streams
/// the way the old `base_seed + r` scheme made seed 5/rep 1 collide
/// with seed 6/rep 0.
pub fn run_reps<T, F>(reps: u64, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    crate::runner::parallel_map(reps as usize, |r| {
        f(snapshot_netsim::rng::derive_seed(base_seed, r as u64))
    })
}

/// A deterministic RNG for experiment-level randomness.
pub fn rng(seed: u64) -> DetRng {
    DetRng::seed_from_u64(snapshot_netsim::rng::derive_seed(seed, 0xE59))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn run_reps_is_ordered_and_complete() {
        use snapshot_netsim::rng::derive_seed;
        let out = run_reps(8, 100, |seed| seed.wrapping_mul(2));
        let expect: Vec<u64> = (0..8)
            .map(|r| derive_seed(100, r).wrapping_mul(2))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn rep_seeds_do_not_collide_across_adjacent_base_seeds() {
        use snapshot_netsim::rng::derive_seed;
        // The old `base_seed + r` scheme made (seed 5, rep 1) and
        // (seed 6, rep 0) identical runs; derived streams must not.
        assert_ne!(derive_seed(5, 1), derive_seed(6, 0));
    }

    #[test]
    fn run_reps_runs_closures_in_parallel_safely() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let counter = AtomicU64::new(0);
        let out = run_reps(16, 0, |_| counter.fetch_add(1, Ordering::SeqCst));
        assert_eq!(out.len(), 16);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
