//! An offline, dependency-free subset of the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! member shadows the real `criterion` with the slice of its API our
//! benches use. Each benchmark is measured as a set of samples: the
//! routine first runs in doubling batches until one batch takes 0.5 ms
//! of wall time (which also warms caches and lazily initialised state
//! up), then that batch size is timed 15 times (or the group's
//! `sample_size`) with [`std::time::Instant`]. One line per
//! benchmark reports the **median** ns/iter over the samples with their
//! spread appended — the interquartile range and the sample count:
//!
//! ```text
//! bench table1/hmac/hmac_sha1/1: 283 ns/iter (64 bytes/iter) [IQR 281..286 ns, 15 samples]
//! ```
//!
//! A median over batched samples is robust to the one-off stalls (first
//! call, descheduled vCPU) that a mean over a few bare iterations is not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Samples per benchmark unless its group asks for fewer.
const DEFAULT_SAMPLES: usize = 15;

/// Wall time one sample aims for: short routines are batched until a
/// batch takes this long, so timer resolution stays far below it.
const SAMPLE_TARGET: Duration = Duration::from_micros(500);

/// Fewest samples a benchmark takes, whatever its group asks for: the
/// quartiles need a few points.
const MIN_SAMPLES: usize = 5;

/// Top-level handle mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_one("", name, None, DEFAULT_SAMPLES, f);
    }
}

/// Units for reporting how much work one iteration performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// A named collection of benchmarks sharing throughput settings.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
    samples: usize,
}

impl BenchmarkGroup {
    /// Sets the number of samples per benchmark, clamped to `5..=15` so
    /// the full suite stays quick.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.clamp(MIN_SAMPLES, DEFAULT_SAMPLES);
        self
    }

    /// Records the per-iteration workload for reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, name: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(
            &self.name,
            &name.to_string(),
            self.throughput,
            self.samples,
            f,
        );
        self
    }

    /// Runs one parameterised benchmark in this group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_one(
            &self.name,
            &id.to_string(),
            self.throughput,
            self.samples,
            |b| {
                f(b, input);
            },
        );
        self
    }

    /// Ends the group (a no-op in the shim).
    pub fn finish(&mut self) {}
}

/// Identifier for one parameter point of a benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// An id combining a function name with a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    /// An id that is only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.function.is_empty() {
            write!(f, "{}", self.parameter)
        } else {
            write!(f, "{}/{}", self.function, self.parameter)
        }
    }
}

/// How `iter_batched` amortises setup cost; the shim runs every batch
/// the same way regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Timing handle passed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// ns/iter of each sample, in measurement order.
    per_iter_ns: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            per_iter_ns: Vec::new(),
        }
    }

    /// Times `routine` in calibrated batches, one batch per sample.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        self.measure(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            (elapsed, elapsed)
        });
    }

    /// Times `routine` over fresh inputs produced by `setup`; only the
    /// routine is timed, but batches are sized by wall time including
    /// `setup`, so an expensive setup cannot stretch the run.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.measure(|iters| {
            let wall = Instant::now();
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                std::hint::black_box(routine(input));
                timed += start.elapsed();
            }
            (timed, wall.elapsed())
        });
    }

    /// Calibrates a batch size with `run(iters) -> (timed, wall)`, then
    /// records one ns/iter figure per sample.
    fn measure(&mut self, mut run: impl FnMut(u64) -> (Duration, Duration)) {
        let mut iters = 1u64;
        while run(iters).1 < SAMPLE_TARGET {
            iters *= 2;
        }
        self.per_iter_ns = (0..self.samples)
            .map(|_| run(iters).0.as_nanos() as f64 / iters as f64)
            .collect();
    }
}

/// Median and quartiles of one benchmark's samples, in ns/iter.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    samples: usize,
}

impl Summary {
    /// `None` when the benchmark closure never timed anything.
    fn of(per_iter_ns: &[f64]) -> Option<Self> {
        if per_iter_ns.is_empty() {
            return None;
        }
        let mut sorted = per_iter_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Linear interpolation between closest ranks.
        let quantile = |q: f64| {
            let rank = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        };
        Some(Summary {
            median: quantile(0.5),
            q1: quantile(0.25),
            q3: quantile(0.75),
            samples: sorted.len(),
        })
    }
}

fn report_line(label: &str, throughput: Option<Throughput>, summary: Option<Summary>) -> String {
    let Some(s) = summary else {
        return format!("bench {label}: 0 ns/iter [no samples]");
    };
    let work = match throughput {
        Some(Throughput::Bytes(bytes)) => format!(" ({bytes} bytes/iter)"),
        Some(Throughput::Elements(n)) => format!(" ({n} elements/iter)"),
        None => String::new(),
    };
    format!(
        "bench {label}: {:.0} ns/iter{work} [IQR {:.0}..{:.0} ns, {} samples]",
        s.median, s.q1, s.q3, s.samples
    )
}

fn run_one<F>(group: &str, name: &str, throughput: Option<Throughput>, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher::new(samples);
    f(&mut bencher);
    let label = if group.is_empty() {
        name.to_string()
    } else {
        format!("{group}/{name}")
    };
    println!(
        "{}",
        report_line(&label, throughput, Summary::of(&bencher.per_iter_ns))
    );
}

/// Declares a benchmark group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring
/// `criterion::criterion_main!`.
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
    fn group_runs_closures() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        let mut calls = 0u32;
        group
            .throughput(Throughput::Bytes(64))
            .bench_function("f", |b| {
                b.iter(|| calls += 1);
            });
        group.finish();
        // At least the calibration batch plus one iteration per sample.
        assert!(calls as usize > DEFAULT_SAMPLES);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::new("x", 7), &7u64, |b, &n| {
            b.iter_batched(|| n, |v| seen = v, BatchSize::SmallInput);
        });
        assert_eq!(seen, 7);
    }

    #[test]
    fn one_sample_per_requested_sample() {
        let mut bencher = Bencher::new(7);
        bencher.iter(|| std::hint::black_box(3u64).pow(2));
        assert_eq!(bencher.per_iter_ns.len(), 7);
        let mut batched = Bencher::new(5);
        batched.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert_eq!(batched.per_iter_ns.len(), 5);
    }

    #[test]
    fn sample_size_is_clamped() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        assert_eq!(group.sample_size(1).samples, MIN_SAMPLES);
        assert_eq!(group.sample_size(1000).samples, DEFAULT_SAMPLES);
        assert_eq!(group.sample_size(10).samples, 10);
    }

    #[test]
    fn summary_is_median_and_quartiles() {
        // An outlier moves the mean (28) but not the median.
        let s = Summary::of(&[10.0, 12.0, 100.0, 11.0, 7.0]).unwrap();
        assert_eq!(s.median, 11.0);
        assert_eq!(s.q1, 10.0);
        assert_eq!(s.q3, 12.0);
        assert_eq!(s.samples, 5);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn report_line_keeps_the_ns_per_iter_format() {
        let s = Summary::of(&[283.0, 281.0, 286.0, 290.0, 280.0]);
        assert_eq!(
            report_line("t/hmac", Some(Throughput::Bytes(64)), s),
            "bench t/hmac: 283 ns/iter (64 bytes/iter) [IQR 281..286 ns, 5 samples]"
        );
        assert_eq!(
            report_line("t/aes", None, s),
            "bench t/aes: 283 ns/iter [IQR 281..286 ns, 5 samples]"
        );
    }
}
