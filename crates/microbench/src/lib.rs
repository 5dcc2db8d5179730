//! A tiny, dependency-free micro-benchmark harness.
//!
//! Implements the subset of the Criterion API that the workspace's
//! benches use (`criterion_group!`, `criterion_main!`, `Criterion`,
//! `Bencher::iter` / `iter_batched`, benchmark groups, `black_box`),
//! so the bench files read identically while building offline with no
//! external crates. Timing methodology is deliberately simple: a short
//! warm-up, then `sample_size` samples of an adaptively chosen
//! iteration count, reporting the median and the minimum
//! per-iteration time. A ms-scale bench runs one iteration per sample,
//! so its median moves with whatever else the host runs; the minimum,
//! the run least disturbed, is the steadier reading. Allocations are
//! counted apart from the timing, over a fixed number of calls, so
//! that figure does not depend on the host at all.

#![warn(missing_docs)]

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub mod counting_alloc {
    //! An opt-in counting global allocator.
    //!
    //! Bench binaries that register [`CountingAllocator`] as their
    //! `#[global_allocator]` get a deterministic *allocations per
    //! iteration* figure alongside every timing: `Bencher::iter` reads
    //! the global counter around an untimed pass of a fixed number of
    //! calls, and `Bencher::iter_batched` around each of its timed
    //! calls. Unlike wall-clock medians, allocation counts
    //! are exactly reproducible on any machine, so the CI regression
    //! gate (`cargo xtask benchcmp`) treats them as hard numbers and
    //! wall-clock as advisory.
    //!
    //! When no counting allocator is registered the counter never
    //! moves and every benchmark reports `allocs_per_iter: 0`.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    /// A pass-through wrapper over the system allocator that counts
    /// every allocation and reallocation.
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: CountingAllocator = CountingAllocator;
    /// ```
    #[derive(Debug)]
    pub struct CountingAllocator;

    // SAFETY: defers entirely to `System`; the wrapper only bumps
    // atomic counters and never touches the returned memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Total allocations (plus reallocations) observed so far; zero
    /// forever unless a [`CountingAllocator`] is registered.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested so far.
    pub fn allocated_bytes() -> u64 {
        ALLOCATED_BYTES.load(Ordering::Relaxed)
    }

    /// Whether a [`CountingAllocator`] serves this process: whether the
    /// counter sees one probe allocation.
    pub fn is_counting() -> bool {
        let before = allocations();
        drop(std::hint::black_box(Box::new(0u8)));
        allocations() != before
    }
}

/// Opaque value barrier preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost. The harness runs one
/// setup per routine invocation regardless, so the variants only
/// document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is cheap to hold many of.
    SmallInput,
    /// Setup output is expensive; batch conservatively.
    LargeInput,
    /// Exactly one setup per iteration.
    PerIteration,
}

/// A parameterized benchmark label, e.g. `fit/64`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Combine a function name and a parameter into one label.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Calls of the routine over which [`Bencher::iter`] counts
/// allocations, after the warm-up call and before the timed samples. A
/// fixed number makes `allocs_per_iter` a property of the code, not of
/// how many calls fit in a sample on the host: an amortized growth
/// reads `1 / ALLOC_COUNT_ITERS` or 0 everywhere. Sixteen calls of the
/// heaviest bench, a 73 ms experiment cell, add about a second.
const ALLOC_COUNT_ITERS: u64 = 16;

/// Drives the timed iterations of one benchmark.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
    sample_size: usize,
    allocs_per_iter: f64,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            samples: Vec::new(),
            iters_per_sample: 1,
            sample_size,
            allocs_per_iter: 0.0,
        }
    }

    /// Time `routine` repeatedly.
    #[allow(clippy::disallowed_methods)] // the bench harness is the one sanctioned wall-clock user
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and size the per-sample iteration count so each
        // sample runs for roughly a millisecond.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(1);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        // Without a counting allocator the pass could only read 0.
        let counter = counting_alloc::is_counting().then_some(counting_alloc::allocations);
        self.count_then_time(iters, routine, counter);
    }

    /// The part of [`Bencher::iter`] after the warm-up call: count the
    /// allocations of [`ALLOC_COUNT_ITERS`] calls of `routine` as
    /// `allocations` reads them (skipped when it is `None`), then time
    /// `sample_size` samples of `iters_per_sample` calls each.
    #[allow(clippy::disallowed_methods)] // the bench harness is the one sanctioned wall-clock user
    fn count_then_time<O>(
        &mut self,
        iters_per_sample: u64,
        mut routine: impl FnMut() -> O,
        allocations: Option<impl Fn() -> u64>,
    ) {
        self.allocs_per_iter = 0.0;
        if let Some(allocations) = allocations {
            let before = allocations();
            for _ in 0..ALLOC_COUNT_ITERS {
                black_box(routine());
            }
            self.allocs_per_iter = (allocations() - before) as f64 / ALLOC_COUNT_ITERS as f64;
        }
        self.iters_per_sample = iters_per_sample;
        self.samples.clear();
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.samples.push(t0.elapsed());
        }
    }

    /// Time `routine` on fresh input from `setup`, excluding setup
    /// time (and setup allocations) from the measurement.
    #[allow(clippy::disallowed_methods)] // the bench harness is the one sanctioned wall-clock user
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.samples.clear();
        self.samples.reserve(self.sample_size);
        self.iters_per_sample = 1;
        let mut allocs = 0u64;
        for _ in 0..self.sample_size {
            let input = setup();
            let a0 = counting_alloc::allocations();
            let t0 = Instant::now();
            black_box(routine(input));
            let elapsed = t0.elapsed();
            allocs += counting_alloc::allocations() - a0;
            self.samples.push(elapsed);
        }
        self.allocs_per_iter = allocs as f64 / (self.sample_size.max(1)) as f64;
    }

    /// The samples' per-iteration times, ascending.
    fn sorted_ns_per_iter(&self) -> Vec<f64> {
        let mut ns: Vec<f64> = self
            .samples
            .iter()
            .map(|d| d.as_nanos() as f64 / self.iters_per_sample as f64)
            .collect();
        ns.sort_by(|a, b| a.total_cmp(b));
        ns
    }

    fn median_ns_per_iter(&self) -> f64 {
        let ns = self.sorted_ns_per_iter();
        ns.get(ns.len() / 2).copied().unwrap_or(0.0)
    }

    fn min_ns_per_iter(&self) -> f64 {
        self.sorted_ns_per_iter().first().copied().unwrap_or(0.0)
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Append one machine-readable line for a benchmark to `path`:
/// `{"name":"...","median_ns":...,"min_ns":...,"iters":...,"allocs_per_iter":...}`.
/// CI compares these against the committed `BENCH_baseline.json` with
/// `cargo xtask benchcmp` (allocation counts gate hard, wall-clock is
/// advisory); failures to write are silently ignored (benchmarks
/// still print to stdout).
fn append_json_record(
    path: &Path,
    label: &str,
    median_ns: f64,
    min_ns: f64,
    iters: u64,
    allocs_per_iter: f64,
) {
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    let line = format!(
        "{{\"name\":\"{escaped}\",\"median_ns\":{median_ns:?},\"min_ns\":{min_ns:?},\
         \"iters\":{iters},\"allocs_per_iter\":{allocs_per_iter:?}}}\n"
    );
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = f.write_all(line.as_bytes());
    }
}

/// The benchmark driver: registry of named benchmarks plus the
/// sampling configuration.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    /// Where each benchmark appends its JSON record: the file the
    /// `MICROBENCH_JSON` environment variable named when this
    /// `Criterion` was built, if any.
    json: Option<PathBuf>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 50,
            json: std::env::var_os("MICROBENCH_JSON")
                .filter(|path| !path.is_empty())
                .map(PathBuf::from),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        let median_ns = b.median_ns_per_iter();
        let min_ns = b.min_ns_per_iter();
        println!(
            "{label:<40} {:>12}/iter (min {:>10}) {:>10.1} allocs/iter",
            human_time(median_ns),
            human_time(min_ns),
            b.allocs_per_iter
        );
        if let Some(path) = &self.json {
            append_json_record(
                path,
                label,
                median_ns,
                min_ns,
                b.iters_per_sample,
                b.allocs_per_iter,
            );
        }
    }

    /// Register and immediately run one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run_one(name, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: BenchmarkId, f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        self.criterion.run_one(&label, f);
        self
    }

    /// Run one benchmark with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        self.criterion.run_one(&label, |b| f(b, input));
        self
    }

    /// End the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// Define a benchmark group function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Define the bench entry point, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` passes harness flags benches don't parse;
            // with `--test` semantics we just run everything.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    // Exercise the counting allocator in this crate's own test binary;
    // the workspace bench binaries register it the same way.
    #[global_allocator]
    static ALLOC: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

    #[test]
    fn counting_allocator_observes_heap_traffic() {
        let a0 = counting_alloc::allocations();
        let b0 = counting_alloc::allocated_bytes();
        let v: Vec<u64> = Vec::with_capacity(32);
        black_box(&v);
        assert!(counting_alloc::allocations() > a0);
        assert!(counting_alloc::allocated_bytes() >= b0 + 32 * 8);
    }

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion {
            sample_size: 5,
            json: None,
        };
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let mut b = Bencher::new(3);
        b.iter(|| black_box(21u64 * 2));
        assert!(b.median_ns_per_iter() >= 0.0);
        assert_eq!(b.samples.len(), 3);
    }

    #[test]
    fn is_counting_sees_the_registered_allocator() {
        assert!(counting_alloc::is_counting());
    }

    /// A routine that allocates once in its life, on its third call,
    /// as an amortized growth does. The allocations are counted on a
    /// counter of the test's own, which tests running beside this one
    /// cannot move.
    fn allocs_per_iter_at(iters_per_sample: u64, counted: bool) -> (f64, u32) {
        let (calls, allocs) = (Cell::new(0u32), Cell::new(0u64));
        let routine = || {
            calls.set(calls.get() + 1);
            if calls.get() == 3 {
                allocs.set(allocs.get() + 1);
            }
        };
        let mut b = Bencher::new(5);
        routine(); // the warm-up call
        b.count_then_time(
            iters_per_sample,
            routine,
            counted.then_some(|| allocs.get()),
        );
        assert_eq!(b.samples.len(), 5);
        (b.allocs_per_iter, calls.get())
    }

    #[test]
    fn allocs_per_iter_does_not_depend_on_the_iterations_per_sample() {
        let figures: Vec<f64> = [1, 3, 300, 350]
            .into_iter()
            .map(|iters| allocs_per_iter_at(iters, true).0)
            .collect();
        assert_eq!(figures, [1.0 / ALLOC_COUNT_ITERS as f64; 4]);
    }

    #[test]
    fn without_a_counter_no_calls_are_spent_on_counting() {
        assert_eq!(allocs_per_iter_at(7, false), (0.0, 1 + 5 * 7));
        assert_eq!(
            allocs_per_iter_at(7, true).1,
            1 + ALLOC_COUNT_ITERS as u32 + 5 * 7
        );
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut b = Bencher::new(4);
        let mut setups = 0u32;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 16]
            },
            |v| v.len(),
            BatchSize::LargeInput,
        );
        assert_eq!(setups, 4);
    }

    #[test]
    fn the_minimum_is_the_fastest_sample_and_never_above_the_median() {
        let mut b = Bencher::new(0);
        assert_eq!((b.median_ns_per_iter(), b.min_ns_per_iter()), (0.0, 0.0));
        b.iters_per_sample = 2;
        b.samples = [40, 10, 30, 20, 50].map(Duration::from_nanos).to_vec();
        assert_eq!(b.min_ns_per_iter(), 5.0);
        assert_eq!(b.median_ns_per_iter(), 15.0);
    }

    #[test]
    fn benchmark_id_formats_label() {
        assert_eq!(BenchmarkId::new("fit", 64).to_string(), "fit/64");
    }

    #[test]
    fn json_records_append_when_env_var_is_set() {
        let path =
            std::env::temp_dir().join(format!("microbench_json_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut c = Criterion {
            sample_size: 2,
            json: Some(path.clone()),
        };
        c.bench_function("json_probe", |b| b.iter(|| black_box(3u64 + 4)));
        let text = std::fs::read_to_string(&path).expect("JSON file written");
        let _ = std::fs::remove_file(&path);
        let line = text
            .lines()
            .find(|l| l.contains("\"json_probe\""))
            .expect("record for the benchmark");
        assert!(line.starts_with("{\"name\":\"json_probe\",\"median_ns\":"));
        assert!(line.contains("\"min_ns\":"));
        assert!(line.contains("\"iters\":"));
        assert!(line.contains("\"allocs_per_iter\":"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn human_time_scales_units() {
        assert_eq!(human_time(12.0), "12.0 ns");
        assert_eq!(human_time(1_500.0), "1.50 µs");
        assert_eq!(human_time(2_500_000.0), "2.50 ms");
    }
}
