//! Offline API-compatible stand-in for `criterion` (0.5 subset).
//!
//! Supports the harness surface the matchkit benches use:
//! `Criterion::benchmark_group`, `sample_size`, `measurement_time`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`,
//! `criterion_group!`, `criterion_main!`, and `Bencher::iter`.
//!
//! Measurement model: a short warm-up, then timed batches until the
//! group's measurement budget (scaled down ~10× versus real criterion,
//! keeping `cargo bench` smoke-runnable) is spent; prints mean ns/iter.
//! No statistics, baselines, or HTML reports.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (std's implementation).
pub use std::hint::black_box;

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `group/function/parameter` style id.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Id from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    /// Mean wall-clock per iteration measured by the last `iter` call.
    mean_ns: f64,
    budget: Duration,
}

impl Bencher {
    /// Time `routine` repeatedly and record the mean per-iteration cost.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until ~10% of the budget or at least once.
        let warm_budget = self.budget / 10;
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= warm_budget || warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
        // Measure in batches sized to ~1/20 of the budget each.
        let batch = ((self.budget.as_nanos() as f64 / 20.0 / per_iter.max(1.0)) as u64).max(1);
        let mut total_ns = 0u128;
        let mut total_iters = 0u64;
        let start = Instant::now();
        while start.elapsed() < self.budget {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            total_ns += t.elapsed().as_nanos();
            total_iters += batch;
        }
        self.mean_ns = total_ns as f64 / total_iters as f64;
    }

    /// Batched variant; setup cost is excluded per batch of one.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let start = Instant::now();
        let mut total_ns = 0u128;
        let mut total_iters = 0u64;
        while start.elapsed() < self.budget {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            total_ns += t.elapsed().as_nanos();
            total_iters += 1;
        }
        self.mean_ns = total_ns as f64 / total_iters.max(1) as f64;
    }
}

/// Batch sizing hint (ignored by this harness).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One iteration per batch.
    PerIteration,
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of samples (scales the time budget in this harness).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Wall-clock budget for each benchmark in the group.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Throughput declaration (accepted, unused).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    fn budget(&self) -> Duration {
        // Scaled-down budget so full bench suites stay smoke-runnable:
        // proportional to the requested time, floored for stability.
        let ns = (self.measurement_time.as_nanos() / 10).max(20_000_000) as u64;
        Duration::from_nanos(ns)
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: String, mut f: F) {
        let mut b = Bencher {
            mean_ns: f64::NAN,
            budget: self.budget(),
        };
        f(&mut b);
        println!(
            "{:<40} time: [{:>12.1} ns/iter]  ({:.2} Melem/s)",
            format!("{}/{}", self.name, id),
            b.mean_ns,
            if b.mean_ns > 0.0 {
                1e3 / b.mean_ns
            } else {
                0.0
            }
        );
        self.criterion
            .results
            .push((format!("{}/{}", self.name, id), b.mean_ns));
    }

    /// Benchmark a closure under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl fmt::Display,
        f: F,
    ) -> &mut Self {
        self.run_one(id.to_string(), f);
        self
    }

    /// Benchmark a closure that receives `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run_one(id.to_string(), |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(&mut self) {}
}

/// Throughput declaration (accepted, unused).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Top-level harness state.
#[derive(Default)]
pub struct Criterion {
    results: Vec<(String, f64)>,
}

impl Criterion {
    /// Start a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
        }
    }

    /// Standalone single benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl fmt::Display,
        f: F,
    ) -> &mut Self {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, f);
        group.finish();
        self
    }

    /// Final-summary hook mirroring criterion's API (no-op).
    pub fn final_summary(&mut self) {}
}

/// Define a bench group runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
}

/// Define the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
