//! Offline drop-in replacement for the subset of the [Criterion] benchmark
//! API used by the `polycanary-bench` bench targets.
//!
//! The build environment has no access to crates.io, so the real Criterion
//! crate cannot be a dependency.  This shim keeps the bench sources
//! unchanged and compilable, and still produces useful wall-clock numbers:
//!
//! * under `cargo bench` (cargo passes `--bench`) every benchmark runs a
//!   short warm-up, then splits a timed measurement window into samples of
//!   equal iteration counts and reports the median iteration time with the
//!   samples' interquartile range;
//! * under `cargo test` (no `--bench` argument) every benchmark body runs
//!   exactly once, acting as a smoke test so bench regressions are caught
//!   by the tier-1 suite without inflating its runtime.
//!
//! [Criterion]: https://docs.rs/criterion

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Prevents the compiler from optimising away a benchmarked value.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// How a bench binary was invoked (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full timed run (`cargo bench`).
    Measure,
    /// Single-iteration smoke run (`cargo test`).
    Smoke,
}

fn detect_mode() -> Mode {
    if std::env::args().any(|a| a == "--bench") {
        Mode::Measure
    } else {
        Mode::Smoke
    }
}

/// Identifier of one benchmark: a function name plus an optional parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id such as `byte_by_byte/ssp_falls`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { name: format!("{}/{}", function_name.into(), parameter) }
    }
}

/// Conversion trait mirroring Criterion's `IntoBenchmarkId`.
pub trait IntoBenchmarkId {
    /// Converts `self` into a [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self.to_string() }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self }
    }
}

/// The number of samples a measurement window is split into.
const SAMPLES: u32 = 20;

/// Per-iteration time of one measured benchmark: the median of its samples
/// and their interquartile range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    median: Duration,
    q1: Duration,
    q3: Duration,
}

/// Timing loop handed to every benchmark closure.
pub struct Bencher {
    mode: Mode,
    warm_up: Duration,
    measurement: Duration,
    /// The last `iter` call's timing, if measured.
    last: Option<Summary>,
}

impl Bencher {
    /// Runs `routine` repeatedly and records its per-iteration timing.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.measure(|iterations| {
            let started = Instant::now();
            for _ in 0..iterations {
                black_box(routine());
            }
            started.elapsed()
        });
    }

    /// Runs `routine` on a fresh `setup()` input each iteration and records
    /// the timing of `routine` alone: building the input and dropping the
    /// output stay outside the timed window.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.measure(|iterations| {
            let mut timed = Duration::ZERO;
            for _ in 0..iterations {
                let input = setup();
                let started = Instant::now();
                let output = black_box(routine(input));
                timed += started.elapsed();
                drop(output);
            }
            timed
        });
    }

    /// Drives `run`, which runs the routine the given number of times and
    /// returns the time it measured: once in smoke mode; otherwise through
    /// the warm-up window, then [`SAMPLES`] times with an iteration count
    /// that fills the measurement window.
    fn measure(&mut self, mut run: impl FnMut(u32) -> Duration) {
        self.last = None;
        if self.mode == Mode::Smoke {
            run(1);
            return;
        }
        // The warm-up's wall time per iteration, setup included, sizes the
        // samples so that they fill the measurement window.
        let warm_started = Instant::now();
        let mut warm_iterations = 0u32;
        while warm_iterations == 0 || warm_started.elapsed() < self.warm_up {
            run(1);
            warm_iterations = warm_iterations.saturating_add(1);
        }
        let per_iteration = (warm_started.elapsed() / warm_iterations).max(Duration::from_nanos(1));
        let per_sample = self.measurement / SAMPLES;
        let iterations =
            (per_sample.as_nanos() / per_iteration.as_nanos()).clamp(1, 1 << 24) as u32;
        let mut times: Vec<Duration> = (0..SAMPLES).map(|_| run(iterations) / iterations).collect();
        times.sort_unstable();
        let quantile = |q: usize| times[(times.len() - 1) * q / 4];
        self.last = Some(Summary { median: quantile(2), q1: quantile(1), q3: quantile(3) });
    }
}

/// Batch-size hint of [`Bencher::iter_batched`], accepted for API
/// compatibility: the shim always builds one input per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs cheap enough to build many per sample.
    SmallInput,
}

/// A named group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    warm_up: Duration,
    measurement: Duration,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim always takes [`SAMPLES`]
    /// samples.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Sets the warm-up window used before each measurement.
    pub fn warm_up_time(&mut self, duration: Duration) -> &mut Self {
        self.warm_up = duration;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(&mut self, duration: Duration) -> &mut Self {
        self.measurement = duration;
        self
    }

    /// Benchmarks `routine` under `id`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.into_benchmark_id(), routine);
        self
    }

    /// Benchmarks `routine` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.into_benchmark_id(), |b| routine(b, input));
        self
    }

    fn run(&mut self, id: BenchmarkId, mut routine: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            mode: self.criterion.mode,
            warm_up: self.warm_up,
            measurement: self.measurement,
            last: None,
        };
        routine(&mut bencher);
        match (self.criterion.mode, bencher.last) {
            (Mode::Measure, Some(Summary { median, q1, q3 })) => {
                println!(
                    "{}/{:<40} median {:>12.3?}/iter  IQR {:.3?} .. {:.3?}",
                    self.name, id.name, median, q1, q3
                );
            }
            (Mode::Measure, None) => {
                println!("{}/{:<40} (no iterations recorded)", self.name, id.name);
            }
            (Mode::Smoke, _) => {
                println!("{}/{:<40} ok (smoke)", self.name, id.name);
            }
        }
    }

    /// Ends the group (no-op beyond API compatibility).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { mode: detect_mode() }
    }
}

impl Criterion {
    /// Opens a benchmark group with default windows.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            warm_up: Duration::from_millis(100),
            measurement: Duration::from_millis(500),
            criterion: self,
        }
    }

    /// Benchmarks `routine` outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, routine);
        self
    }
}

/// Declares a group-runner function from a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main`, running each declared group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_each_body_once() {
        let mut criterion = Criterion { mode: Mode::Smoke };
        let mut calls = 0u32;
        let mut group = criterion.benchmark_group("g");
        group.bench_function("one", |b| b.iter(|| calls += 1));
        group.finish();
        assert_eq!(calls, 1);
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        let id = BenchmarkId::new("byte_by_byte", "ssp_falls");
        assert_eq!(id.name, "byte_by_byte/ssp_falls");
    }

    fn measuring(measurement: Duration) -> Bencher {
        Bencher { mode: Mode::Measure, warm_up: Duration::from_millis(1), measurement, last: None }
    }

    #[test]
    fn measure_mode_records_a_mean() {
        // Each sample is the mean of its batch; the summary is their
        // median and quartiles.
        let mut bencher = measuring(Duration::from_millis(2));
        bencher.iter(|| black_box(1 + 1));
        let summary = bencher.last.expect("measured");
        assert!(summary.q1 <= summary.median && summary.median <= summary.q3, "{summary:?}");
    }

    #[test]
    fn iter_batched_times_the_routine_without_its_setup() {
        let mut bencher = measuring(Duration::from_millis(20));
        let slow_setup = || std::thread::sleep(Duration::from_millis(2));
        bencher.iter_batched(slow_setup, |()| black_box(1 + 1), BatchSize::SmallInput);
        let median = bencher.last.expect("measured").median;
        assert!(median < Duration::from_millis(1), "setup leaked into the timing: {median:?}");

        let mut calls = 0u32;
        let mut smoke = Bencher { mode: Mode::Smoke, ..bencher };
        smoke.iter_batched(Vec::<u8>::new, |v| calls += 1 + v.len() as u32, BatchSize::SmallInput);
        assert_eq!(calls, 1);
    }
}
