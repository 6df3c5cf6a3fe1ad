//! A wall-clock benchmark harness.
//!
//! Replaces `criterion` for this workspace with a deliberately small
//! median-of-N design: per benchmark, a warmup pass, then `sample_size`
//! timed samples; the report records median/min/max nanoseconds and
//! optional element throughput. The public API mirrors the subset of
//! criterion the bench targets used (`benchmark_group`, `sample_size`,
//! `throughput`, `bench_function`, `bench_with_input`, `Bencher::iter`,
//! `iter_with_setup`, `BenchmarkId`), so the targets port 1:1 and keep
//! `harness = false`.
//!
//! Each finished group prints a table and writes
//! `target/bench-reports/BENCH_<group>.json` (override the directory with
//! `HEDGEX_BENCH_OUT`). Under `cargo test` (the libtest `--test` flag)
//! benches are skipped so test runs stay fast.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Top-level harness; create once per bench binary via [`Bench::from_env`].
pub struct Bench {
    test_mode: bool,
    smoke: bool,
    out_dir: Option<std::path::PathBuf>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench::from_env()
    }
}

impl Bench {
    /// Configure from CLI args (`--test` skips measurement) and the
    /// `HEDGEX_BENCH_OUT` / `HEDGEX_BENCH_SMOKE` environment variables.
    /// Smoke mode clamps every group to a single sample so CI can populate
    /// `BENCH_*.json` without paying full measurement time.
    pub fn from_env() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        let smoke = std::env::var_os("HEDGEX_BENCH_SMOKE").is_some_and(|v| v != "0");
        let out_dir = std::env::var_os("HEDGEX_BENCH_OUT")
            .map(std::path::PathBuf::from)
            .or_else(|| Some(std::path::PathBuf::from("target/bench-reports")));
        Bench {
            test_mode,
            smoke,
            out_dir,
        }
    }

    /// Is smoke mode active? Bench targets can also shrink their workload
    /// sizes when this is set (one sample over a small corpus).
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Start a named group of related measurements.
    pub fn benchmark_group(&mut self, name: &str) -> BenchGroup<'_> {
        let sample_size = if self.smoke { 1 } else { 20 };
        BenchGroup {
            bench: self,
            name: name.to_string(),
            sample_size,
            throughput: None,
            results: Vec::new(),
            extra: Vec::new(),
        }
    }
}

/// Throughput annotation for the next benchmarks in a group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration (e.g. hedge nodes).
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier, `function/parameter` style.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/param`.
    pub fn new(name: &str, param: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{param}"))
    }

    /// Just the parameter as the id.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId(param.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

struct BenchResult {
    id: String,
    median_ns: u128,
    min_ns: u128,
    max_ns: u128,
    samples: usize,
    throughput: Option<Throughput>,
}

/// How long [`BenchGroup::bench_interleaved`] warms its closures up.
pub const INTERLEAVED_WARMUP: Duration = Duration::from_millis(200);

/// A group of benchmarks sharing a name, sample size, and report file.
pub struct BenchGroup<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    results: Vec<BenchResult>,
    extra: Vec<(String, Json)>,
}

impl BenchGroup<'_> {
    /// Samples per benchmark (default 20; pinned to 1 in smoke mode).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = if self.bench.smoke { 1 } else { n.max(1) };
        self
    }

    /// Annotate subsequent benchmarks with a throughput denominator.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Attach an arbitrary JSON section to the group report (e.g. an
    /// observability-registry snapshot). The testkit deliberately has no
    /// dependency on the instrumentation crate — callers pass the value.
    pub fn attach_extra(&mut self, key: &str, value: Json) -> &mut Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// Measure a closure.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into().0;
        if self.bench.test_mode {
            println!("skipping bench {}/{id} (test mode)", self.name);
            return self;
        }
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        self.record(id, b.samples);
        self
    }

    /// Measure a closure over a fixed input (criterion-compatible shape).
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(BenchmarkId(id.0), |b| f(b, input))
    }

    /// Measure closures side by side in one process. A warm-up runs them
    /// in turn for at least [`INTERLEAVED_WARMUP`] (one call each in smoke
    /// mode); then each sample round times every closure once, rotating
    /// which goes first. A change in the machine's speed during the run
    /// reaches every row alike, so the rows compare with each other.
    pub fn bench_interleaved(&mut self, rows: &mut [(BenchmarkId, &mut dyn FnMut())]) -> &mut Self {
        if self.bench.test_mode {
            println!("skipping interleaved benches in {} (test mode)", self.name);
            return self;
        }
        let warm = Instant::now();
        loop {
            rows.iter_mut().for_each(|(_, f)| f());
            if self.bench.smoke || warm.elapsed() >= INTERLEAVED_WARMUP {
                break;
            }
        }
        let n = rows.len();
        let mut samples = vec![Vec::with_capacity(self.sample_size); n];
        for round in 0..self.sample_size {
            for i in (0..n).map(|k| (round + k) % n) {
                let t = Instant::now();
                (rows[i].1)();
                samples[i].push(t.elapsed());
            }
        }
        for ((id, _), samples) in rows.iter().zip(samples) {
            self.record(id.0.clone(), samples);
        }
        self
    }

    /// The median of a benchmark recorded in this group, in nanoseconds
    /// (`None` before it ran, and in test mode).
    pub fn median_ns(&self, id: &BenchmarkId) -> Option<u128> {
        self.results
            .iter()
            .find(|r| r.id == id.0)
            .map(|r| r.median_ns)
    }

    fn record(&mut self, id: String, mut samples: Vec<Duration>) {
        if samples.is_empty() {
            return;
        }
        samples.sort();
        let ns = |d: &Duration| d.as_nanos();
        let median = ns(&samples[samples.len() / 2]);
        let result = BenchResult {
            id,
            median_ns: median,
            min_ns: ns(&samples[0]),
            max_ns: ns(samples.last().unwrap()),
            samples: samples.len(),
            throughput: self.throughput,
        };
        let thr = match result.throughput {
            Some(Throughput::Elements(n)) if median > 0 => {
                format!("{:>14.0} elem/s", n as f64 / (median as f64 / 1e9))
            }
            Some(Throughput::Bytes(n)) if median > 0 => {
                format!("{:>14.0} B/s", n as f64 / (median as f64 / 1e9))
            }
            _ => String::new(),
        };
        println!(
            "{:<40} median {:>12} min {:>12} max {:>12} {}",
            format!("{}/{}", self.name, result.id),
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.max_ns),
            thr
        );
        self.results.push(result);
    }

    /// Print nothing further; write the group's JSON report.
    pub fn finish(&mut self) {
        if self.results.is_empty() {
            return;
        }
        let benches: Vec<Json> = self
            .results
            .iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::Str(r.id.clone())),
                    ("median_ns", Json::Num(r.median_ns as f64)),
                    ("min_ns", Json::Num(r.min_ns as f64)),
                    ("max_ns", Json::Num(r.max_ns as f64)),
                    ("samples", Json::Num(r.samples as f64)),
                    (
                        "throughput_elements",
                        match r.throughput {
                            Some(Throughput::Elements(n)) => Json::Num(n as f64),
                            _ => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("group".to_string(), Json::Str(self.name.clone())),
            ("benchmarks".to_string(), Json::Arr(benches)),
        ];
        fields.append(&mut self.extra);
        let report = Json::Obj(fields);
        if let Some(dir) = &self.bench.out_dir {
            let path = dir.join(format!("BENCH_{}.json", self.name));
            if std::fs::create_dir_all(dir).is_ok() {
                if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    println!("report: {}", path.display());
                }
            }
        }
        self.results.clear();
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Collects timed samples for one benchmark.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `f` once per sample, after one untimed warmup call.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        std::hint::black_box(f());
        for _ in 0..self.sample_size {
            let t = Instant::now();
            std::hint::black_box(f());
            self.samples.push(t.elapsed());
        }
    }

    /// Time `f` on a fresh `setup()` value per sample (setup untimed).
    pub fn iter_with_setup<S, O>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> O,
    ) {
        std::hint::black_box(f(setup()));
        for _ in 0..self.sample_size {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(f(input));
            self.samples.push(t.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_bench() -> Bench {
        Bench {
            test_mode: false,
            smoke: false,
            out_dir: None,
        }
    }

    #[test]
    fn records_requested_sample_count() {
        let mut c = quiet_bench();
        let mut g = c.benchmark_group("unit");
        g.sample_size(5);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        assert_eq!(g.results.len(), 1);
        assert_eq!(g.results[0].samples, 5);
    }

    #[test]
    fn iter_with_setup_excludes_setup_from_timing() {
        let mut c = quiet_bench();
        let mut g = c.benchmark_group("unit");
        g.sample_size(3);
        g.bench_function("setup", |b| {
            b.iter_with_setup(|| vec![0u8; 16], |v| v.len())
        });
        assert_eq!(g.results[0].samples, 3);
    }

    #[test]
    fn interleaved_rows_each_get_every_sample() {
        let mut c = quiet_bench();
        let mut g = c.benchmark_group("unit");
        g.sample_size(4);
        let (mut a, mut b) = (0, 0);
        g.bench_interleaved(&mut [
            (BenchmarkId::new("a", 1), &mut || a += 1),
            (BenchmarkId::new("b", 1), &mut || b += 1),
        ]);
        let ids: Vec<_> = g
            .results
            .iter()
            .map(|r| (r.id.as_str(), r.samples))
            .collect();
        assert_eq!(ids, [("a/1", 4), ("b/1", 4)]);
        assert!(g.median_ns(&BenchmarkId::new("b", 1)).is_some());
        assert_eq!(g.median_ns(&BenchmarkId::new("c", 1)), None);
        assert_eq!(a, b, "the warm-up runs the rows in turn");
        assert!(a > 4);
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("adversarial", 4).0, "adversarial/4");
        assert_eq!(BenchmarkId::from_parameter(16_000).0, "16000");
    }

    #[test]
    fn smoke_mode_pins_sample_size_to_one() {
        let mut c = Bench {
            test_mode: false,
            smoke: true,
            out_dir: None,
        };
        assert!(c.smoke());
        let mut g = c.benchmark_group("unit");
        g.sample_size(50); // explicit requests are clamped too
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        assert_eq!(g.results[0].samples, 1);
    }

    #[test]
    fn test_mode_skips_measurement() {
        let mut c = Bench {
            test_mode: true,
            smoke: false,
            out_dir: None,
        };
        let mut g = c.benchmark_group("unit");
        g.bench_function("never", |_| panic!("must not run in test mode"));
        assert!(g.results.is_empty());
    }

    #[test]
    fn json_report_shape() {
        let dir = std::env::temp_dir().join("hedgex-testkit-bench-test");
        let mut c = Bench {
            test_mode: false,
            smoke: false,
            out_dir: Some(dir.clone()),
        };
        let mut g = c.benchmark_group("shape");
        g.sample_size(2).throughput(Throughput::Elements(10));
        g.bench_function("f", |b| b.iter(|| 0));
        g.finish();
        let raw = std::fs::read_to_string(dir.join("BENCH_shape.json")).unwrap();
        let j = Json::parse(&raw).unwrap();
        assert_eq!(j.get("group").and_then(Json::as_str), Some("shape"));
        let benches = j.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("id").and_then(Json::as_str), Some("f"));
        assert!(benches[0].get("median_ns").and_then(Json::as_u64).is_some());
        assert_eq!(
            benches[0].get("throughput_elements").and_then(Json::as_u64),
            Some(10)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn attached_extras_land_in_the_report() {
        let dir = std::env::temp_dir().join("hedgex-testkit-bench-extra");
        let mut c = Bench {
            test_mode: false,
            smoke: false,
            out_dir: Some(dir.clone()),
        };
        let mut g = c.benchmark_group("extra");
        g.sample_size(1);
        g.bench_function("f", |b| b.iter(|| 0));
        g.attach_extra("metrics", Json::obj([("enabled", Json::Bool(true))]));
        g.finish();
        let raw = std::fs::read_to_string(dir.join("BENCH_extra.json")).unwrap();
        let j = Json::parse(&raw).unwrap();
        assert_eq!(
            j.get("metrics").and_then(|m| m.get("enabled")),
            Some(&Json::Bool(true))
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
