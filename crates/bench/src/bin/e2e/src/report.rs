//! Digests, statistics, failure accounting, the run report file and
//! `--compare`.

use std::path::Path;

use hedgex_testkit::Json;

use crate::layers::LayerRow;

/// Streaming FNV-1a (64-bit): answer digests and input fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.update(bytes);
    f.finish()
}

pub fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (the default, "exclusive"), so spreads read the same as the tool that
/// judges them. One value is its own quartiles.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return [f64::NAN; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let ld = d.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

pub fn median(v: &[f64]) -> f64 {
    quartiles(v)[1]
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of a non-empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let rank = ((p * d.len() as f64).ceil() as usize).clamp(1, d.len());
    d[rank - 1]
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Failure accounting: every checked operation is attempted; a wrong
/// answer, an unexpected exit code, a signal or a timeout is a failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure: what ran and how it failed.
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.first_failure.is_none() {
                let what = what();
                eprintln!("e2e: FAILED: {what}: {why}");
                self.first_failure = Some(format!("{what}: {why}"));
            }
        }
    }
}

/// One row of the per-class latency table.
pub struct ClassRow {
    pub class: String,
    /// Slots of the mix the class fills.
    pub slots: usize,
    /// Its fastest timed run.
    pub fastest_ms: f64,
}

/// Everything one workload run measured.
pub struct WorkloadResult {
    pub name: &'static str,
    pub fingerprint: u64,
    pub store_fingerprint: u64,
    pub inputs: Vec<(String, u64)>,
    pub tally: Tally,
    /// Slots of the mix, and timed rounds over its classes.
    pub slots: usize,
    pub rounds: usize,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub classes: Vec<ClassRow>,
    pub layers: Vec<LayerRow>,
}

impl WorkloadResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.into())),
            ("inputs_fingerprint", Json::Str(hex(self.fingerprint))),
            ("store_fingerprint", Json::Str(hex(self.store_fingerprint))),
            (
                "inputs",
                Json::Obj(
                    self.inputs
                        .iter()
                        .map(|(n, h)| (n.clone(), Json::Str(hex(*h))))
                        .collect(),
                ),
            ),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "first_failure",
                self.tally
                    .first_failure
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
            ("slots", Json::Num(self.slots as f64)),
            ("timed_rounds", Json::Num(self.rounds as f64)),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
            (
                "classes",
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("class", Json::Str(r.class.clone())),
                                ("slots", Json::Num(r.slots as f64)),
                                ("fastest_ms", Json::Num(r.fastest_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Arr(
                    self.layers
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.into())),
                                ("ms", Json::Num(r.ms)),
                                ("share", Json::Num(r.share)),
                                ("self_share", r.self_share.map_or(Json::Null, Json::Num)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The host a run measured: parallelism and CPU model.
pub fn host() -> Json {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("available_parallelism", Json::Num(jobs as f64)),
        ("cpu_model", Json::Str(cpu)),
    ])
}

const SCHEMA: &str = "hedgex-e2e/1";

fn load_report(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} report", path.display()));
    }
    Ok(json
        .get("runs")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default())
}

/// Add one run to the report at `path`: a report file is a set of runs
/// (`--compare` takes medians and quartiles over them).
pub fn append_run(path: &Path, run: Json) -> Result<usize, String> {
    let mut runs = if path.exists() {
        load_report(path)?
    } else {
        Vec::new()
    };
    runs.push(run);
    let n = runs.len();
    let json = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(n)
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("end_to_end entry without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// `(seed, workload) -> inputs fingerprint` over every run of a set.
fn fingerprints(runs: &[Json]) -> Vec<(u64, String, String)> {
    let mut out = Vec::new();
    for run in runs {
        let seed = run.get("seed").and_then(Json::as_u64).unwrap_or(0);
        for w in run.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("");
            let fp = w
                .get("inputs_fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("");
            out.push((seed, name.to_string(), fp.to_string()));
        }
    }
    out
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|run| run.get("workloads").and_then(Json::as_arr).unwrap_or(&[]))
        .filter(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .filter_map(|w| w.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `e2e --compare A.json B.json`: per workload × end-to-end metric, the
/// medians, quartiles and delta of two sets of runs, with a verdict
/// against the bounds in `BENCHMARK.json`. Refuses (an `Err`) when the two
/// sets generated different inputs from the same seed. Returns whether
/// any metric regressed.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = load_bounds(benchmark)?;
    let (runs_a, runs_b) = (load_report(a)?, load_report(b)?);
    let fps_b = fingerprints(&runs_b);
    for (seed, name, fp) in fingerprints(&runs_a) {
        if let Some((_, _, other)) = fps_b.iter().find(|(s, n, _)| *s == seed && *n == name) {
            if *other != fp {
                return Err(format!(
                    "refusing to compare: seed {seed} generated different {name} inputs \
                     ({fp} vs {other}); the input generator changed"
                ));
            }
        }
    }
    let host_of = |runs: &[Json]| {
        runs.first()
            .and_then(|r| r.get("host"))
            .map(Json::to_string)
    };
    if host_of(&runs_a) != host_of(&runs_b) {
        println!("warning: the two sets ran on different hosts");
    }
    let mut workloads: Vec<String> = Vec::new();
    for (_, name, _) in fingerprints(&runs_a).into_iter().chain(fps_b) {
        if !workloads.contains(&name) {
            workloads.push(name);
        }
    }
    println!(
        "{:<14} {:<26} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta"
    );
    let mut regressed = false;
    for w in &workloads {
        for m in &bounds {
            let (va, vb) = (values(&runs_a, w, &m.name), values(&runs_b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
            let delta = (qb[1] - qa[1]) / qa[1];
            let worse = if m.lower_is_better { delta } else { -delta };
            let verdict = if spread > m.bound {
                "unresolved"
            } else if worse > m.bound {
                regressed = true;
                "regressed"
            } else if worse < -m.bound {
                "improved"
            } else {
                "ok"
            };
            let cell = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            println!(
                "{w:<14} {:<26} {:>34} {:>34} {:>+7.2}%  {verdict}",
                m.name,
                cell(qa),
                cell(qb),
                delta * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(percentile(&v, 0.9), 9.0);
    }
}
