//! Offline shim for `criterion`.
//!
//! Implements the subset the botwall benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `Throughput`, `BenchmarkId`,
//! `b.iter`) with a simple adaptive timer instead of criterion's full
//! statistical machinery. As criterion does, the first argument that
//! is not a flag filters: only benchmarks whose `group/id` contains it
//! run (`cargo bench --bench capacity -- stats_at_occupancy/100000`).
//! Results print to stdout and, when
//! `CRITERION_SHIM_JSON` names a file, are appended there as JSON lines —
//! that is what `scripts/record_bench_baseline.sh` collects into
//! `BENCH_baseline.json`.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock spent measuring one benchmark.
const TARGET_MEASURE: Duration = Duration::from_millis(200);
/// Warmup before measuring.
const TARGET_WARMUP: Duration = Duration::from_millis(50);

/// Benchmark id (subset of `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        let function_name = function_name.into();
        BenchmarkId {
            name: format!("{function_name}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// Work-per-iteration declaration, used to report rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
    BytesDecimal(u64),
}

/// Timing loop handed to the closure in `bench_function`.
pub struct Bencher {
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            mean_ns: f64::NAN,
            iters: 0,
        }
    }

    /// Times `routine`, adapting iteration count to the routine's cost.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warmup, also estimating per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= TARGET_WARMUP {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let measure_iters = ((TARGET_MEASURE.as_secs_f64() / per_iter) as u64).clamp(10, 1_000_000);

        let start = Instant::now();
        for _ in 0..measure_iters {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        self.mean_ns = elapsed.as_nanos() as f64 / measure_iters as f64;
        self.iters = measure_iters;
    }

    /// Batched variant; the shim times setup + routine together but
    /// amortizes over the batch.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        self.iter(|| routine(setup()));
    }

    /// Caller-timed variant (subset of `criterion::Bencher::iter_custom`):
    /// `routine(n)` must perform `n` iterations and return the elapsed
    /// wall time for exactly those iterations. Used by benches whose
    /// per-iteration work spans threads (spawn/join overhead must stay
    /// outside the measured region).
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        // Warmup batch, also estimating per-iteration cost.
        const WARM_ITERS: u64 = 64;
        let mut warm = routine(WARM_ITERS);
        if warm.is_zero() {
            warm = Duration::from_nanos(1);
        }
        let per_iter = warm.as_secs_f64() / WARM_ITERS as f64;
        let measure_iters = ((TARGET_MEASURE.as_secs_f64() / per_iter) as u64).clamp(10, 1_000_000);
        let elapsed = routine(measure_iters);
        self.mean_ns = elapsed.as_nanos() as f64 / measure_iters as f64;
        self.iters = measure_iters;
    }
}

/// Batch sizing hint (accepted, ignored).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

struct Record {
    group: String,
    bench: String,
    mean_ns: f64,
    iters: u64,
    throughput: Option<Throughput>,
}

/// Benchmark group (subset of `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        if !self.selects(&id) {
            return self;
        }
        let mut b = Bencher::new();
        f(&mut b);
        self.record(id.name, b);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        if !self.selects(&id) {
            return self;
        }
        let mut b = Bencher::new();
        f(&mut b, input);
        self.record(id.name, b);
        self
    }

    pub fn finish(self) {}

    fn selects(&self, id: &BenchmarkId) -> bool {
        self.criterion
            .selects(&format!("{}/{}", self.name, id.name))
    }

    fn record(&mut self, bench: String, b: Bencher) {
        let rec = Record {
            group: self.name.clone(),
            bench,
            mean_ns: b.mean_ns,
            iters: b.iters,
            throughput: self.throughput,
        };
        report(&rec);
        self.criterion.records.push(rec);
    }
}

fn report(rec: &Record) {
    let rate = match rec.throughput {
        Some(Throughput::Elements(n)) => {
            format!(" ({:.3} Melem/s)", n as f64 / rec.mean_ns * 1e3)
        }
        Some(Throughput::Bytes(n)) | Some(Throughput::BytesDecimal(n)) => {
            format!(
                " ({:.1} MiB/s)",
                n as f64 / rec.mean_ns * 1e9 / (1 << 20) as f64
            )
        }
        None => String::new(),
    };
    println!(
        "{}/{}: {:.1} ns/iter{} [{} iters]",
        rec.group, rec.bench, rec.mean_ns, rate, rec.iters
    );
}

/// Entry point (subset of `criterion::Criterion`).
pub struct Criterion {
    records: Vec<Record>,
    /// What a benchmark's `group/id` must contain to run, if anything.
    filter: Option<String>,
}

impl Default for Criterion {
    /// Filtered by the process's first argument that is not a flag
    /// (`cargo bench` passes `--bench`; `--quick` is a bench's own).
    fn default() -> Self {
        Criterion {
            records: Vec::new(),
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    fn selects(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            throughput: None,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        if !self.selects(&id.name) {
            return self;
        }
        let mut b = Bencher::new();
        f(&mut b);
        let rec = Record {
            group: String::new(),
            bench: id.name,
            mean_ns: b.mean_ns,
            iters: b.iters,
            throughput: None,
        };
        report(&rec);
        self.records.push(rec);
        self
    }

    /// Appends results as JSON lines to `CRITERION_SHIM_JSON`, if set.
    pub fn final_summary(&self) {
        let Ok(path) = std::env::var("CRITERION_SHIM_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        use std::io::Write;
        let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        else {
            eprintln!("criterion shim: cannot open {path}");
            return;
        };
        for r in &self.records {
            let tp = match r.throughput {
                Some(Throughput::Elements(n)) => format!(r#","elements":{n}"#),
                Some(Throughput::Bytes(n)) | Some(Throughput::BytesDecimal(n)) => {
                    format!(r#","bytes":{n}"#)
                }
                None => String::new(),
            };
            // NaN (a closure that never called b.iter) must become null,
            // not a bare NaN token that breaks the JSON.
            let mean = if r.mean_ns.is_finite() {
                format!("{:.1}", r.mean_ns)
            } else {
                "null".to_string()
            };
            let _ = writeln!(
                f,
                r#"{{"group":"{}","bench":"{}","mean_ns":{},"iters":{}{}}}"#,
                json_escape(&r.group),
                json_escape(&r.bench),
                mean,
                r.iters,
                tp
            );
        }
    }
}

/// JSON string escaping (Rust's `{:?}` emits `\u{..}`, which JSON rejects).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags like `--bench`; ignore them.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A filter runs the benchmarks whose `group/id` contains it and
    /// skips the rest without calling them; no filter runs them all.
    #[test]
    fn a_filter_runs_only_the_benchmarks_it_names() {
        let run = |filter: Option<&str>| {
            let mut c = Criterion {
                records: Vec::new(),
                filter: filter.map(str::to_string),
            };
            let mut called = Vec::new();
            let mut group = c.benchmark_group("capacity");
            for n in [1_000, 100_000] {
                let id = BenchmarkId::new("at_occupancy", n);
                group.bench_with_input(id, &n, |_, n| called.push(n.to_string()));
            }
            group.bench_function("sweep", |_| called.push("sweep".to_string()));
            group.finish();
            c.bench_function("alone", |_| called.push("alone".to_string()));
            let recorded: Vec<String> = c.records.iter().map(|r| r.bench.clone()).collect();
            (called, recorded)
        };
        let (called, recorded) = run(Some("at_occupancy/100000"));
        assert_eq!(called, ["100000"]);
        assert_eq!(recorded, ["at_occupancy/100000"]);
        let (called, _) = run(Some("capacity/"));
        assert_eq!(called, ["1000", "100000", "sweep"]);
        let (called, _) = run(Some("alone"));
        assert_eq!(called, ["alone"]);
        let (called, recorded) = run(None);
        assert_eq!(called, ["1000", "100000", "sweep", "alone"]);
        assert_eq!(recorded.len(), 4);
    }
}
