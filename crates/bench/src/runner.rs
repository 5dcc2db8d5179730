//! Deterministic bounded work-queue scheduler for experiment cells.
//!
//! The paper's evaluation is ~200 independent `(experiment, rep)`
//! cells; every cell is a pure function of its derived seed, so cells
//! may execute in any order on any number of threads as long as the
//! results are *merged in a fixed canonical order*. This module
//! provides that: [`parallel_map`] fans indexed work across a global
//! budget of worker threads (set once from `--jobs`, default
//! `std::thread::available_parallelism()`) and returns results in
//! index order, so `--jobs 1` and `--jobs 32` produce byte-identical
//! output.
//!
//! The budget is global rather than per-call because the fan-out
//! nests: the experiment binary maps over experiments, and each
//! experiment maps over repetitions (and sweep points) via
//! [`crate::stats::run_reps`]. A global permit pool keeps the total
//! number of live compute threads at the configured `--jobs`
//! regardless of nesting depth; a nested call that finds no permits
//! free simply runs its cells inline on the worker that issued it.

// The bench crate does not opt in to the workspace lints; this module
// is on the parallel-experiment and serving paths, so it holds the
// library crates' panic-freedom policy itself.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads the scheduler would use by default: one
/// per available core (fallback 1 when parallelism is unknowable).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Extra-worker permits: `jobs - 1`, because the calling thread always
/// participates in its own `parallel_map`.
fn permits() -> &'static AtomicUsize {
    static PERMITS: OnceLock<AtomicUsize> = OnceLock::new();
    PERMITS.get_or_init(|| AtomicUsize::new(default_jobs().saturating_sub(1)))
}

/// Set the global worker budget (clamped to at least 1). Call once,
/// before any [`parallel_map`] is in flight; `jobs = 1` makes every
/// subsequent `parallel_map` run serially on the calling thread, in
/// index order.
pub fn set_jobs(jobs: usize) {
    permits().store(jobs.max(1) - 1, Ordering::SeqCst);
}

fn acquire_helpers(want: usize) -> usize {
    let pool = permits();
    let mut got = 0;
    while got < want {
        let cur = pool.load(Ordering::SeqCst);
        if cur == 0 {
            break;
        }
        if pool
            .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            got += 1;
        }
    }
    got
}

fn release_helpers(n: usize) {
    permits().fetch_add(n, Ordering::SeqCst);
}

/// Apply `f` to every index in `0..n`, distributing the indices over
/// the calling thread plus however many helper threads the global
/// budget currently allows, and return the results **in index order**.
///
/// Determinism contract: `f` must be a pure function of its index (the
/// experiment cells derive every random stream from the cell's seed),
/// in which case the returned vector is identical for every jobs
/// setting and every scheduling of the workers. Worker threads only
/// race for *which* index they compute next, never for where a result
/// is stored.
///
/// Panics in `f` propagate to the caller (the scope joins all workers
/// first), so a failing cell fails the whole run loudly rather than
/// silently dropping a result.
#[expect(
    clippy::expect_used,
    reason = "scope joined every worker, so every cell is computed; a hole is a runner bug worth aborting on"
)]
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let helpers = if n > 1 { acquire_helpers(n - 1) } else { 0 };
    if helpers == 0 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let work = |(next, slots, f): (&AtomicUsize, &Mutex<Vec<Option<T>>>, &F)| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let value = f(i);
        // Results are placed by index, so completion order is
        // irrelevant; a poisoned lock means a sibling worker
        // panicked, and the scope join will propagate that panic.
        let mut guard = match slots.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard[i] = Some(value);
    };

    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| work((&next, &slots, &f)));
        }
        work((&next, &slots, &f));
    });
    release_helpers(helpers);

    let slots = match slots.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    slots
        .into_iter()
        .map(|s| s.expect("scope joined every worker, so every cell is computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order() {
        let out = parallel_map(64, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = parallel_map(100, |i| {
            hits.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn nested_maps_do_not_deadlock_and_stay_ordered() {
        let out = parallel_map(8, |i| parallel_map(8, move |j| i * 8 + j));
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }
}
